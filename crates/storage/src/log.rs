//! Record framing and segment scanning for the append-only op log.
//!
//! Wire format of one framed record:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [check: u32 LE]
//! ```
//!
//! where `check` is `crc32c(payload)` and the payload itself begins
//! `[lsn: u64 LE] [tag: u8] [body…]`. The check only has to tell an intact
//! frame from a torn or rotted one: a CRC-32C catches every burst of up to
//! 32 bits and misses random damage with probability 2⁻³². What the state
//! means is authenticated elsewhere: a checkpoint's decode recomputes every
//! Merkle digest against the recorded root, and the clients check every
//! reply the recovered server gives (DESIGN.md, "Record framing").
//!
//! A segment file on a real disk runs on past its last frame in zeros:
//! [`crate::FileMedium`] writes each commit into a zero-filled extent.
//! Recovery must *classify*, not just reject, so [`scan`] reads the end of
//! a segment by three rules:
//!
//! 1. **Zero tail** — at a frame boundary, a remainder that is all zero is
//!    the clean end of the log. The length header is tested first, so a
//!    scan stays linear.
//! 2. **Torn tail** — a damaged frame (a zero or bad header, a frame that
//!    runs past the buffer, a failed checksum) with no verifying frame
//!    anywhere after it: the shape an unacknowledged commit leaves when a
//!    crash lets only some of its sectors reach the disk. Recovery
//!    discards it; nothing acknowledged is lost, because acknowledgment
//!    happens only after fsync. Bit rot in only the last acknowledged
//!    frame reads the same way, and so does a flipped length header there.
//! 3. **Corruption** — anything else: a damaged frame below a frame that
//!    verifies (bit rot, a misdirected write), a verified frame too short
//!    for its LSN and tag, or an **LSN discontinuity** (a *splice*: a
//!    duplicated or dropped record). Recovery stops at it and reports it;
//!    replaying past a lie would launder it into state.
//!
//! A torn tail is benign only in the final segment; recovery treats one
//! under a later segment as corruption.
//!
//! A checkpoint file is one frame whose payload is `[lsn: u64 LE]
//! [state…]`, appended in slices across several commits
//! (`SlicedFrame`). A file shorter than its length header announces is an
//! *interrupted* checkpoint, not a corrupt one ([`scan_checkpoint`]).
//!
//! A medium holding this format carries a [`FORMAT_MARKER`] file, written
//! when the engine first recovers on an empty medium. Files the engine
//! writes without the marker beside them come from another frame format
//! (the first one checked frames with a truncated SHA-256), and recovery
//! refuses them before reading any.

use tcvs_crypto::{crc32c, crc32c_append};
use tcvs_store::enc::{Reader, Sink, Writer};

/// Bytes of `crc32c(payload)` stored per record.
pub const CHECK_LEN: usize = 4;

/// Name of the file that marks a medium as holding this frame format.
pub const FORMAT_MARKER: &str = "format-crc32c";

/// What the marker file holds, for a reader of the directory; recovery
/// checks only that the file exists.
pub(crate) const FORMAT_NOTE: &[u8] =
    b"tcvs-storage frames: [len u32 LE][payload][crc32c(payload) u32 LE]\n";

/// Prefix of a quarantined file's name.
const QUARANTINE_PREFIX: &str = "quarantine-";

/// Frame header size (the length prefix).
pub const HEADER_LEN: usize = 4;

/// Largest payload a frame may carry (1 GiB): anything bigger in a length
/// header is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Smallest slice a checkpoint frame is written in: each slice costs its
/// commit one more append and fsync, not worth paying for fewer bytes.
pub(crate) const MIN_SLICE: usize = 64 << 10;

/// Most slices a checkpoint frame is written in.
pub(crate) const MAX_SLICES: usize = 16;

/// The frame check of `payload`.
fn check(payload: &[u8]) -> [u8; CHECK_LEN] {
    crc32c(payload).to_le_bytes()
}

/// Frames a record payload: length prefix + payload + checksum.
///
/// # Panics
///
/// Panics when `payload` exceeds [`MAX_PAYLOAD`]: such a frame would be
/// classified as corruption on every subsequent scan (and past `u32::MAX`
/// the length prefix would silently wrap), so it must never reach disk.
/// [`crate::DurableStorage`] rejects oversized payloads with a typed
/// [`crate::StorageError::TooLarge`] before calling this.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds the maximum frame size",
        payload.len()
    );
    let mut w = Writer::new();
    w.u32(payload.len() as u32);
    w.raw(payload);
    w.raw(&check(payload));
    w.into_bytes()
}

/// Builds a record payload: `[lsn][tag][body]`.
pub fn payload(lsn: u64, tag: u8, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(lsn);
    w.u8(tag);
    w.raw(body);
    w.into_bytes()
}

/// Bytes of an unsealed frame before its body: length header, LSN, tag.
const OPEN_HEAD: usize = HEADER_LEN + 8 + 1;

/// Appends to `buf` the frame of a record whose LSN is not known yet: the
/// length header, a zero LSN, `tag`, the body `put` writes, a zero check.
/// Returns the body's length. [`seal`] fills in LSNs and checks once the
/// first LSN is known; the frame then equals
/// `frame(&payload(lsn, tag, body))`. A body over [`MAX_BODY`] leaves a
/// frame that must never be sealed.
pub(crate) fn open_frame(buf: &mut Vec<u8>, tag: u8, put: impl FnOnce(&mut Writer)) -> usize {
    let start = buf.len();
    let mut w = Writer::from(std::mem::take(buf));
    w.raw(&[0; OPEN_HEAD - 1]);
    w.u8(tag);
    put(&mut w);
    *buf = w.into_bytes();
    let body = buf.len() - start - OPEN_HEAD;
    let len = (OPEN_HEAD - HEADER_LEN + body) as u32;
    buf[start..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&[0; CHECK_LEN]);
    body
}

/// The `(tag, body)` of each frame [`open_frame`] appended to `buf`.
pub(crate) fn open_frames(buf: &[u8]) -> impl Iterator<Item = (u8, &[u8])> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let head = buf.get(at..at + HEADER_LEN)?;
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let payload = buf.get(at + HEADER_LEN..at + HEADER_LEN + len)?;
        at += HEADER_LEN + len + CHECK_LEN;
        Some((payload[8], &payload[9..]))
    })
}

/// Gives the frames [`open_frame`] appended to `buf` their LSNs, from
/// `first` on, and their checks. Returns the LSN after the last.
pub(crate) fn seal(buf: &mut [u8], first: u64) -> u64 {
    let (mut at, mut lsn) = (0, first);
    while let Some(head) = buf.get(at..at + HEADER_LEN) {
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let payload = at + HEADER_LEN..at + HEADER_LEN + len;
        buf[payload.start..payload.start + 8].copy_from_slice(&lsn.to_le_bytes());
        let crc = check(&buf[payload.clone()]);
        buf[payload.end..payload.end + CHECK_LEN].copy_from_slice(&crc);
        at = payload.end + CHECK_LEN;
        lsn += 1;
    }
    lsn
}

/// On-disk bytes of one framed record whose body is `body_len` bytes:
/// header + (lsn + tag + body) + checksum.
pub fn frame_len(body_len: usize) -> u64 {
    (HEADER_LEN + 8 + 1 + body_len + CHECK_LEN) as u64
}

/// Largest record *body* that still frames within [`MAX_PAYLOAD`] (the
/// payload wraps the body in an lsn and a tag byte).
pub const MAX_BODY: usize = MAX_PAYLOAD - 9;

/// Why a segment scan stopped before the end of the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belonged to a complete, valid record.
    Clean,
    /// The records end at `offset` and every byte after it is zero: the
    /// unused rest of a zero-filled extent, the clean end of the log.
    Zeros {
        /// Byte offset where the zeros start.
        offset: u64,
        /// Zero bytes from `offset` to the end of the buffer.
        len: u64,
    },
    /// A damaged frame with no verifying frame after it — a crash cut the
    /// commit short. `offset` is where the torn record starts; `dropped`
    /// how many bytes after it are discarded.
    Torn {
        /// Byte offset of the torn record's frame.
        offset: u64,
        /// Bytes discarded (from `offset` to the end of the buffer).
        dropped: u64,
    },
    /// A damaged frame below a verifying one, or a verified record that
    /// fails its LSN continuity check. `offset` is where the bad frame
    /// starts.
    Corrupt {
        /// Byte offset of the corrupt frame.
        offset: u64,
        /// Which check failed.
        reason: &'static str,
    },
}

impl TailStatus {
    /// True when the scan found no damage: it consumed the whole buffer,
    /// or the rest of it is zeros.
    pub fn is_clean(&self) -> bool {
        matches!(self, TailStatus::Clean | TailStatus::Zeros { .. })
    }
}

/// Result of scanning one segment buffer.
#[derive(Clone, Debug)]
pub struct SegmentScan {
    /// Valid records, in order: `(lsn, tag, body)`.
    pub records: Vec<(u64, u8, Vec<u8>)>,
    /// How the scan ended.
    pub tail: TailStatus,
    /// Bytes of valid prefix (frame-aligned); the segment can be truncated
    /// here to shed a zero, torn or corrupt tail.
    pub valid_len: u64,
}

/// What the bytes at a frame boundary hold.
enum Boundary<'a> {
    /// A frame whose checksum verifies: its payload and its whole length.
    Frame(&'a [u8], usize),
    /// Nothing but zeros from here on.
    Zeros,
    /// Not a verifying frame, and why.
    Damaged(&'static str),
}

fn boundary(rest: &[u8]) -> Boundary<'_> {
    let mut r = Reader::new(rest);
    let len = match r.u32() {
        Ok(len) if len != 0 => len as usize,
        // Only a zero (or cut-off) header sends the scan over the rest of
        // the buffer, and it stops there either way: the scan stays linear.
        _ if rest.iter().all(|&b| b == 0) => return Boundary::Zeros,
        _ => return Boundary::Damaged("zeroed or short length header"),
    };
    if len > MAX_PAYLOAD {
        return Boundary::Damaged("length header exceeds maximum payload");
    }
    let (Ok(payload), Ok(stored)) = (r.raw(len), r.raw(CHECK_LEN)) else {
        return Boundary::Damaged("frame runs past the end of the segment");
    };
    if check(payload) != stored {
        return Boundary::Damaged("checksum mismatch");
    }
    Boundary::Frame(payload, HEADER_LEN + len + CHECK_LEN)
}

/// True when a frame that could carry a later record of this log — one
/// past `expected_lsn`, at most as many past it as frames fit — verifies
/// at some byte offset after `from`. The header and LSN are tested before
/// the checksum, so only a plausible frame is checked, and a candidate cut
/// from damaged bytes passes its check with probability 2⁻³²: a torn tail
/// reads as corruption (which halts, never replays) at most that often
/// per plausible offset.
fn verifies_after(buf: &[u8], from: usize, expected_lsn: u64) -> bool {
    let fit = ((buf.len() - from) as u64) / frame_len(0);
    (from + 1..buf.len()).any(|at| {
        let mut r = Reader::new(&buf[at..]);
        let (Ok(_), Ok(lsn)) = (r.u32(), r.u64()) else {
            return false;
        };
        lsn > expected_lsn
            && lsn - expected_lsn <= fit
            && matches!(boundary(&buf[at..]), Boundary::Frame(..))
    })
}

/// Scans a segment buffer, expecting the first record to carry
/// `expected_lsn` and each subsequent record the next LSN. Stops at a zero
/// tail or at the first damaged or corrupt frame, classified by the rules
/// in the module docs; never panics on any input.
pub fn scan(buf: &[u8], mut expected_lsn: u64) -> SegmentScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    let tail = loop {
        let rest = &buf[at..];
        if rest.is_empty() {
            break TailStatus::Clean;
        }
        let offset = at as u64;
        let (payload, len) = match boundary(rest) {
            Boundary::Frame(payload, len) => (payload, len),
            Boundary::Zeros => {
                break TailStatus::Zeros {
                    offset,
                    len: rest.len() as u64,
                }
            }
            Boundary::Damaged(reason) if verifies_after(buf, at, expected_lsn) => {
                break TailStatus::Corrupt { offset, reason }
            }
            Boundary::Damaged(_) => {
                break TailStatus::Torn {
                    offset,
                    dropped: rest.len() as u64,
                }
            }
        };
        let mut pr = Reader::new(payload);
        let (Ok(lsn), Ok(tag)) = (pr.u64(), pr.u8()) else {
            break TailStatus::Corrupt {
                offset,
                reason: "payload too short for lsn+tag",
            };
        };
        if lsn != expected_lsn {
            break TailStatus::Corrupt {
                offset,
                reason: "lsn discontinuity",
            };
        }
        records.push((lsn, tag, payload[pr.position()..].to_vec()));
        expected_lsn += 1;
        at += len;
    };
    SegmentScan {
        records,
        tail,
        valid_len: at as u64,
    }
}

/// What a checkpoint file holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointScan {
    /// A verified frame: the checkpoint's LSN and state bytes.
    Valid(u64, Vec<u8>),
    /// Fewer bytes than the length header announces: a checkpoint whose
    /// streaming a crash cut short. Nothing was pruned on its account.
    Interrupted,
    /// Any other damage: too long, a failed checksum, a bad payload.
    Corrupt,
}

/// Verifies and unpacks a checkpoint file: a single [`frame`] whose payload
/// is `[lsn: u64 LE][state bytes]`. On anything but [`CheckpointScan::Valid`]
/// the caller falls back to an older checkpoint.
pub fn scan_checkpoint(buf: &[u8]) -> CheckpointScan {
    let mut r = Reader::new(buf);
    let Ok(len) = r.u32() else {
        return CheckpointScan::Interrupted;
    };
    let len = len as usize;
    if len > MAX_PAYLOAD || r.remaining() > len + CHECK_LEN {
        return CheckpointScan::Corrupt;
    }
    let (Ok(payload), Ok(stored)) = (r.raw(len), r.raw(CHECK_LEN)) else {
        return CheckpointScan::Interrupted;
    };
    if check(payload) != stored {
        return CheckpointScan::Corrupt;
    }
    let mut pr = Reader::new(payload);
    match pr.u64() {
        Ok(lsn) => CheckpointScan::Valid(lsn, payload[pr.position()..].to_vec()),
        Err(_) => CheckpointScan::Corrupt,
    }
}

/// A checkpoint [`frame`] handed out in slices for a streamed write,
/// checking the payload as the slices go; the last slice carries the
/// checksum. The slices concatenate to exactly what [`frame`] builds for
/// `[lsn][state]`. One buffer serves every checkpoint, so each reuses the
/// pages of the last.
#[derive(Default)]
pub(crate) struct SlicedFrame {
    /// LSN of the checkpoint the frame carries.
    lsn: u64,
    /// Header and payload; the checksum is appended by the last slice.
    buf: Vec<u8>,
    /// End of the payload in `buf`.
    payload_end: usize,
    /// Bytes already handed out.
    cut: usize,
    /// CRC-32C of the payload bytes handed out so far.
    crc: u32,
}

impl SlicedFrame {
    /// Starts the frame of a checkpoint at `lsn` holding `state` (copied),
    /// dropping whatever was left of the previous one. The caller has
    /// checked `8 + state.len()` against [`MAX_PAYLOAD`].
    pub(crate) fn start(&mut self, lsn: u64, state: &[u8]) {
        self.lsn = lsn;
        self.buf.clear();
        self.buf
            .extend_from_slice(&((8 + state.len()) as u32).to_le_bytes());
        self.buf.extend_from_slice(&lsn.to_le_bytes());
        self.buf.extend_from_slice(state);
        self.payload_end = self.buf.len();
        self.cut = 0;
        self.crc = 0;
    }

    /// LSN of the checkpoint the frame carries.
    pub(crate) fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The next slice: `max(MIN_SLICE, ⌈(header + payload) / MAX_SLICES⌉)`
    /// bytes, the last one shorter and followed by the checksum. `None` once
    /// the whole frame is handed out or the stream is abandoned.
    pub(crate) fn next_slice(&mut self) -> Option<&[u8]> {
        let from = self.cut;
        if from == self.buf.len() {
            return None;
        }
        let slice = MIN_SLICE.max(self.payload_end.div_ceil(MAX_SLICES));
        let to = self.payload_end.min(from + slice);
        self.crc = crc32c_append(self.crc, &self.buf[from.max(HEADER_LEN)..to]);
        if to == self.payload_end {
            self.buf.extend_from_slice(&self.crc.to_le_bytes());
            self.cut = self.buf.len();
        } else {
            self.cut = to;
        }
        Some(&self.buf[from..self.cut])
    }

    /// True once the last slice (the one with the checksum) is handed out,
    /// or the stream is abandoned.
    pub(crate) fn is_done(&self) -> bool {
        self.cut == self.buf.len()
    }

    /// Ends the stream without its remaining slices; the buffer stays for
    /// the next checkpoint.
    pub(crate) fn abandon(&mut self) {
        self.cut = self.buf.len();
    }
}

/// Segment file name for the segment whose first record carries `lsn`.
pub fn segment_name(lsn: u64) -> String {
    format!("seg-{lsn:016x}.log")
}

/// Checkpoint file name for a checkpoint taken at `lsn` (covering every
/// record below it).
pub fn checkpoint_name(lsn: u64) -> String {
    format!("ckpt-{lsn:016x}.ckp")
}

/// Quarantine name for a file recovery has discarded: the bytes are kept
/// for manual salvage, but neither [`parse_segment_name`] nor
/// [`parse_checkpoint_name`] matches the prefixed name, so no scan or
/// rotation will ever touch them again.
pub fn quarantine_name(name: &str) -> String {
    format!("{QUARANTINE_PREFIX}{name}")
}

/// True for every name the engine writes a frame under: segments,
/// checkpoints and their quarantined copies.
pub(crate) fn is_framed(name: &str) -> bool {
    let name = name.strip_prefix(QUARANTINE_PREFIX).unwrap_or(name);
    parse_segment_name(name).is_some() || parse_checkpoint_name(name).is_some()
}

/// Parses a segment file name back to its first LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Parses a checkpoint file name back to its LSN.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckp")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(lsn: u64, tag: u8, body: &[u8]) -> Vec<u8> {
        frame(&payload(lsn, tag, body))
    }

    /// Frames opened at push and sealed at commit are the frames
    /// `frame(payload(..))` builds, byte for byte, and read back whole.
    #[test]
    fn sealed_frames_equal_framed_payloads() {
        let bodies: [&[u8]; 3] = [b"", b"x", &[7; 300]];
        let mut open = Vec::new();
        let mut framed = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            let tag = i as u8 + 1;
            assert_eq!(open_frame(&mut open, tag, |w| w.raw(body)), body.len());
            framed.extend_from_slice(&record(40 + i as u64, tag, body));
        }
        let read: Vec<(u8, Vec<u8>)> = open_frames(&open).map(|(t, b)| (t, b.to_vec())).collect();
        assert_eq!(read.len(), 3);
        assert_eq!(seal(&mut open, 40), 43);
        assert_eq!(open, framed);
        let scan = scan(&open, 40);
        assert!(scan.tail.is_clean());
        let scanned: Vec<(u8, Vec<u8>)> =
            scan.records.into_iter().map(|(_, t, b)| (t, b)).collect();
        assert_eq!(scanned, read);
    }

    #[test]
    fn clean_log_scans_fully() {
        let mut buf = Vec::new();
        for i in 0..5u64 {
            buf.extend_from_slice(&record(i, 1, &[i as u8; 3]));
        }
        let scan = scan(&buf, 0);
        assert_eq!(scan.records.len(), 5);
        assert!(scan.tail.is_clean());
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(scan.records[3], (3, 1, vec![3u8; 3]));
    }

    #[test]
    fn truncation_at_every_boundary_is_torn_never_corrupt() {
        let mut buf = Vec::new();
        for i in 0..3u64 {
            buf.extend_from_slice(&record(i, 2, b"body"));
        }
        let frame_len = record(0, 2, b"body").len();
        for cut in 0..buf.len() {
            let scan = scan(&buf[..cut], 0);
            let whole = cut / frame_len;
            assert_eq!(scan.records.len(), whole, "cut={cut}");
            if cut % frame_len == 0 {
                assert!(scan.tail.is_clean(), "cut={cut}");
            } else {
                assert!(
                    matches!(scan.tail, TailStatus::Torn { .. }),
                    "cut={cut}: {:?}",
                    scan.tail
                );
                assert_eq!(scan.valid_len as usize, whole * frame_len);
            }
        }
    }

    #[test]
    fn bit_flip_is_corrupt_not_torn() {
        let mut buf = record(0, 1, b"payload");
        buf.extend_from_slice(&record(1, 1, b"payload"));
        // Flip a payload bit of the first record.
        buf[HEADER_LEN + 9] ^= 0x10;
        let scan = scan(&buf, 0);
        assert!(scan.records.is_empty());
        assert_eq!(
            scan.tail,
            TailStatus::Corrupt {
                offset: 0,
                reason: "checksum mismatch"
            }
        );
    }

    #[test]
    fn spliced_duplicate_is_an_lsn_discontinuity() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&record(0, 1, b"a"));
        let dup = record(0, 1, b"a");
        buf.extend_from_slice(&dup); // the same record again
        buf.extend_from_slice(&record(1, 1, b"b"));
        let scan = scan(&buf, 0);
        assert_eq!(scan.records.len(), 1, "duplicate never delivered twice");
        assert!(matches!(
            scan.tail,
            TailStatus::Corrupt {
                reason: "lsn discontinuity",
                ..
            }
        ));
    }

    /// An absurd length header is classified, never allocated: corruption
    /// below a record that verifies, a torn tail with nothing after it.
    #[test]
    fn absurd_length_header_is_corruption_not_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.raw(&[0u8; 16]);
        let damaged = w.into_bytes();
        let mut below = damaged.clone();
        below.extend_from_slice(&record(1, 1, b"next"));
        assert_eq!(
            scan(&below, 0).tail,
            TailStatus::Corrupt {
                offset: 0,
                reason: "length header exceeds maximum payload"
            }
        );
        assert_eq!(
            scan(&damaged, 0).tail,
            TailStatus::Torn {
                offset: 0,
                dropped: damaged.len() as u64
            }
        );
    }

    /// Three records followed by `zeros` zero bytes, as a segment in a
    /// zero-filled extent holds them; returns the buffer and the end of
    /// the records.
    fn in_extent(zeros: usize) -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        for i in 0..3u64 {
            buf.extend_from_slice(&record(i, 1, &[i as u8 + 1; 40]));
        }
        let end = buf.len();
        buf.resize(end + zeros, 0);
        (buf, end)
    }

    /// Rule 1: at a frame boundary, an all-zero remainder — even one too
    /// short for a header — is the clean end of the log.
    #[test]
    fn a_zero_remainder_at_a_frame_boundary_is_the_clean_end() {
        for zeros in [1usize, 3, 4, 20, 21, 511, 4096] {
            let (buf, end) = in_extent(zeros);
            let scan = scan(&buf, 0);
            assert_eq!(scan.records.len(), 3, "zeros={zeros}");
            assert_eq!(
                scan.tail,
                TailStatus::Zeros {
                    offset: end as u64,
                    len: zeros as u64
                },
                "zeros={zeros}"
            );
            assert!(scan.tail.is_clean());
            assert_eq!(scan.valid_len, end as u64);
        }
        let empty = scan(&[0u8; 600], 7);
        assert!(empty.records.is_empty());
        assert_eq!(
            empty.tail,
            TailStatus::Zeros {
                offset: 0,
                len: 600
            }
        );
    }

    /// Rule 2: a damaged last frame with no verifying frame after it is a
    /// torn tail, whatever the damage — a zeroed header with a later
    /// sector of the frame landed, a failed checksum, a frame cut short,
    /// stray bytes in the zeros.
    #[test]
    fn a_damaged_last_frame_with_nothing_verifying_after_it_is_torn() {
        let (mut buf, end) = in_extent(0);
        let last = record(3, 1, &[9u8; 1200]);
        buf.extend_from_slice(&last);
        buf.resize(4096, 0);
        let torn = |buf: &[u8]| TailStatus::Torn {
            offset: end as u64,
            dropped: (buf.len() - end) as u64,
        };
        let mut zeroed_header = buf.clone();
        zeroed_header[end..end + HEADER_LEN].fill(0);
        let mut first_sector_lost = buf.clone();
        first_sector_lost[end..512].fill(0);
        let mut flipped = buf.clone();
        flipped[end + last.len() - 1] ^= 0x01;
        let mut cut = buf.clone();
        cut[end + last.len() - 600..].fill(0);
        let mut stray = in_extent(100).0;
        stray[end + 50] = 0xAB;
        for (what, buf) in [
            ("zeroed header", &zeroed_header),
            ("first sector lost", &first_sector_lost),
            ("flipped checksum", &flipped),
            ("cut short", &cut),
            ("stray byte in the zeros", &stray),
        ] {
            let scan = scan(buf, 0);
            assert_eq!(scan.records.len(), 3, "{what}");
            assert_eq!(scan.tail, torn(buf), "{what}");
            assert_eq!(scan.valid_len, end as u64, "{what}");
        }
    }

    /// Rule 2 at sector granularity: whichever 512-B sectors of an
    /// unsynced commit reach the disk, the scan reads the commit as whole,
    /// absent or torn — never as corruption.
    #[test]
    fn any_subset_of_a_commits_sectors_is_never_corruption() {
        const SECTOR: usize = 512;
        let (synced, end) = in_extent(0);
        let mut full = synced.clone();
        full.extend_from_slice(&record(3, 1, &[0x5A; 1700]));
        let commit_end = full.len();
        full.resize(commit_end.next_multiple_of(SECTOR) + SECTOR, 0);
        let sectors: Vec<usize> = (end / SECTOR..commit_end.div_ceil(SECTOR)).collect();
        assert!(sectors.len() >= 4, "the commit spans several sectors");
        for mask in 0u32..1 << sectors.len() {
            let mut buf = full.clone();
            for (bit, &sector) in sectors.iter().enumerate() {
                if mask & (1 << bit) == 0 {
                    let from = (sector * SECTOR).max(end);
                    buf[from..(sector + 1) * SECTOR].fill(0);
                }
            }
            let scan = scan(&buf, 0);
            let landed = mask.count_ones() as usize;
            let (records, tail) = if landed == sectors.len() {
                (
                    4,
                    TailStatus::Zeros {
                        offset: commit_end as u64,
                        len: (buf.len() - commit_end) as u64,
                    },
                )
            } else if buf[end..].iter().all(|&b| b == 0) {
                (
                    3,
                    TailStatus::Zeros {
                        offset: end as u64,
                        len: (buf.len() - end) as u64,
                    },
                )
            } else {
                (
                    3,
                    TailStatus::Torn {
                        offset: end as u64,
                        dropped: (buf.len() - end) as u64,
                    },
                )
            };
            assert_eq!(scan.records.len(), records, "mask={mask:b}");
            assert_eq!(scan.tail, tail, "mask={mask:b}");
        }
    }

    /// Rule 3: damage below a frame that verifies is corruption, whatever
    /// the damage — a zeroed header, a failed checksum, a length that runs
    /// past the records after it.
    #[test]
    fn a_damaged_frame_below_a_verifying_one_is_corruption() {
        let mut buf = Vec::new();
        for i in 0..4u64 {
            buf.extend_from_slice(&record(i, 1, &[i as u8 + 1; 40]));
        }
        let frame = record(0, 1, &[1; 40]).len();
        let at = frame; // the second record
        buf.resize(buf.len() + 300, 0);
        let mut zeroed_header = buf.clone();
        zeroed_header[at..at + HEADER_LEN].fill(0);
        let mut flipped = buf.clone();
        flipped[at + frame - 1] ^= 0x01;
        let mut long = buf.clone();
        long[at..at + HEADER_LEN].copy_from_slice(&(100_000u32).to_le_bytes());
        for (what, buf, reason) in [
            (
                "zeroed header",
                &zeroed_header,
                "zeroed or short length header",
            ),
            ("flipped checksum", &flipped, "checksum mismatch"),
            (
                "long length",
                &long,
                "frame runs past the end of the segment",
            ),
        ] {
            let scan = scan(buf, 0);
            assert_eq!(scan.records.len(), 1, "{what}");
            assert_eq!(
                scan.tail,
                TailStatus::Corrupt {
                    offset: at as u64,
                    reason
                },
                "{what}"
            );
        }
    }

    /// The 4-byte check catches every single-bit flip in a frame, header
    /// and check included, and the scan classifies it by where the frame
    /// sits: below a frame that verifies, corruption; the last frame before
    /// the zeros, a torn tail.
    #[test]
    fn every_single_bit_flip_is_classified_by_where_it_sits() {
        let (clean, end) = in_extent(300);
        let frame = end / 3;
        let middle = TailStatus::Corrupt {
            offset: frame as u64,
            reason: "",
        };
        let last = TailStatus::Torn {
            offset: 2 * frame as u64,
            dropped: (clean.len() - 2 * frame) as u64,
        };
        for (at, want) in [(frame, middle), (2 * frame, last)] {
            for bit in 0..8 * frame {
                let mut buf = clean.clone();
                buf[at + bit / 8] ^= 1 << (bit % 8);
                let scan = scan(&buf, 0);
                assert_eq!(scan.records.len(), at / frame, "bit {bit} of {at}");
                let tail = match scan.tail {
                    TailStatus::Corrupt { offset, .. } => {
                        TailStatus::Corrupt { offset, reason: "" }
                    }
                    tail => tail,
                };
                assert_eq!(tail, want, "bit {bit} of {at}");
            }
        }
    }

    /// Every slice ends at a prefix of the frame: the streamed file is
    /// byte-identical to `frame`, and each prefix scans as interrupted.
    #[test]
    fn sliced_frame_streams_exactly_the_frame() {
        let mut sliced = SlicedFrame::default();
        assert!(sliced.is_done() && sliced.next_slice().is_none());
        for state_len in [
            0usize,
            5,
            MIN_SLICE - 12,
            MIN_SLICE,
            3 * MIN_SLICE + 1,
            2 << 20,
        ] {
            let state: Vec<u8> = (0..state_len).map(|i| (i * 7 % 251) as u8).collect();
            let mut payload = 42u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&state);
            let whole = frame(&payload);
            sliced.start(42, &state);
            let mut streamed = Vec::new();
            let mut slices = 0;
            while let Some(slice) = sliced.next_slice() {
                streamed.extend_from_slice(slice);
                slices += 1;
                if !sliced.is_done() {
                    assert_eq!(scan_checkpoint(&streamed), CheckpointScan::Interrupted);
                }
            }
            assert_eq!(streamed, whole, "state_len={state_len}");
            let body = whole.len() - CHECK_LEN;
            let expected = body.div_ceil(MIN_SLICE.max(body.div_ceil(MAX_SLICES)));
            assert_eq!(slices, expected, "state_len={state_len}");
            assert!(slices <= MAX_SLICES);
            assert_eq!(scan_checkpoint(&streamed), CheckpointScan::Valid(42, state));
        }
    }

    #[test]
    fn checkpoint_scan_tells_interrupted_from_corrupt() {
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"state");
        let whole = frame(&payload);
        for cut in 0..whole.len() {
            assert_eq!(
                scan_checkpoint(&whole[..cut]),
                CheckpointScan::Interrupted,
                "cut={cut}"
            );
        }
        let mut longer = whole.clone();
        longer.push(0);
        assert_eq!(scan_checkpoint(&longer), CheckpointScan::Corrupt);
        let mut flipped = whole.clone();
        flipped[HEADER_LEN + 9] ^= 0x01;
        assert_eq!(scan_checkpoint(&flipped), CheckpointScan::Corrupt);
        assert_eq!(scan_checkpoint(&frame(b"short")), CheckpointScan::Corrupt);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_checkpoint_name(&checkpoint_name(7)), Some(7));
        assert_eq!(parse_segment_name("ckpt-0000000000000007.ckp"), None);
        assert_eq!(parse_segment_name("seg-zz.log"), None);
        let quar = quarantine_name(&segment_name(42));
        assert_eq!(
            parse_segment_name(&quar),
            None,
            "quarantined: never scanned"
        );
        assert_eq!(
            parse_checkpoint_name(&quarantine_name(&checkpoint_name(7))),
            None
        );
    }

    #[test]
    fn frame_len_matches_the_wire_format() {
        for body_len in [0usize, 1, 7, 300] {
            let body = vec![0xAB; body_len];
            assert_eq!(
                frame_len(body_len),
                record(5, 1, &body).len() as u64,
                "body_len={body_len}"
            );
        }
    }
}

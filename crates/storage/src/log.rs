//! Commit framing and segment scanning for the append-only log.
//!
//! Every commit is one frame:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [check: u32 LE]
//! ```
//!
//! where `check` is `crc32c(payload)` and the payload is `[lsn: u64 LE]`
//! followed by the commit's records, each `[tag: u8] [body_len: u32 LE]
//! [body…]`; they carry LSNs `lsn`, `lsn + 1`, …. One check covers the
//! whole commit, so whichever of its sectors a power loss lets reach the
//! disk, the commit reads back whole or not at all. The check only has to
//! tell an intact frame from a torn or rotted one: a CRC-32C catches every
//! burst of up to 32 bits and misses random damage with probability 2⁻³².
//! What the state means is authenticated elsewhere: a checkpoint's decode
//! recomputes every Merkle digest against the recorded root, and the
//! clients check every reply the recovered server gives (DESIGN.md,
//! "Record framing").
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
//!    verifies (bit rot, a misdirected write), a verified frame whose
//!    records do not parse, or an **LSN discontinuity** (a *splice*: a
//!    duplicated or dropped commit). Recovery stops at it and reports it;
//!    replaying past a lie would launder it into state.
//!
//! A torn tail is benign only in the final segment; recovery treats one
//! under a later segment as corruption.
//!
//! A medium in this format holds a [`FORMAT_MARKER`] file, written when the
//! engine first recovers on an empty medium; framed files without it come
//! from another format, and recovery refuses them unread. The earlier
//! formats, oldest first: each record framed on its own and checked by
//! eight bytes of its SHA-256 (no marker); each record its own CRC-32C
//! frame, checkpoints in files of their own (`format-crc32c`); commit
//! frames that also logged incremental checkpoints as records of tag 7
//! (`format-commit-frames`); and full checkpoints only, with the server's
//! flight-recorder frames and evidence bundles logged as records of tags 5
//! and 6 and carried in every checkpoint (`format-full-checkpoints`).

use std::ops::Range;

use tcvs_crypto::crc32c;
use tcvs_store::enc::{Reader, Sink, Writer};

/// Bytes of `crc32c(payload)` stored per commit.
pub const CHECK_LEN: usize = 4;

/// Name of the file that marks a medium as holding this format.
pub const FORMAT_MARKER: &str = "format-protocol-state";

/// What the marker file holds, for a reader of the directory; recovery
/// checks only that the file exists.
pub(crate) const FORMAT_NOTE: &[u8] = b"tcvs-storage commits: [len u32 LE][lsn u64 LE \
    ([tag u8][len u32 LE][body])+][crc32c(payload) u32 LE]; record tags 1-4 and 8 only; \
    checkpoints only whole, as tag-8 pieces\n";

/// Prefix of a quarantined file's name.
const QUARANTINE_PREFIX: &str = "quarantine-";

/// Frame header size (the length prefix).
pub const HEADER_LEN: usize = 4;

/// Bytes ahead of a record's body in a commit: its tag and body length.
const RECORD_HEAD: usize = 1 + 4;

/// Bytes of a commit frame ahead of its first record: header and LSN.
const OPEN_HEAD: usize = HEADER_LEN + 8;

/// Largest payload a frame may carry (1 GiB): anything bigger in a length
/// header is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Largest record *body* that still frames within [`MAX_PAYLOAD`] (the
/// payload wraps the body in an LSN and a record head).
pub const MAX_BODY: usize = MAX_PAYLOAD - 8 - RECORD_HEAD;

/// The frame check of `payload`.
fn check(payload: &[u8]) -> [u8; CHECK_LEN] {
    crc32c(payload).to_le_bytes()
}

/// Appends to the unsealed commit frame in `buf` (started if `buf` is
/// empty) a record with tag `tag` and the body `put` writes, and returns
/// the body's length. [`seal`] fills in the header, LSN and check.
pub(crate) fn push_record(buf: &mut Vec<u8>, tag: u8, put: impl FnOnce(&mut Writer)) -> usize {
    if buf.is_empty() {
        buf.resize(OPEN_HEAD, 0);
    }
    let start = buf.len() + RECORD_HEAD;
    let mut w = Writer::from(std::mem::take(buf));
    w.u8(tag);
    w.u32(0);
    put(&mut w);
    *buf = w.into_bytes();
    let body = buf.len() - start;
    buf[start - 4..start].copy_from_slice(&(body as u32).to_le_bytes());
    body
}

/// The tag and body range of each record of the commit payload `payload`,
/// or `None` when its records do not parse: one runs past the end, or
/// there are none.
fn records(payload: &[u8]) -> Option<Vec<(u8, Range<usize>)>> {
    let (mut out, mut at) = (Vec::new(), 8);
    while at < payload.len() {
        let mut r = Reader::new(&payload[at..]);
        let (Ok(tag), Ok(len)) = (r.u8(), r.u32()) else {
            return None;
        };
        let body = at + RECORD_HEAD..at + RECORD_HEAD + len as usize;
        at = body.end;
        out.push((tag, body));
    }
    (at == payload.len() && !out.is_empty()).then_some(out)
}

/// Seals the commit frame [`push_record`] built in `buf`, its first record
/// at `lsn`: writes its header and LSN and appends its check.
pub(crate) fn seal(buf: &mut Vec<u8>, lsn: u64) {
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    buf[HEADER_LEN..OPEN_HEAD].copy_from_slice(&lsn.to_le_bytes());
    let crc = check(&buf[HEADER_LEN..]);
    buf.extend_from_slice(&crc);
}

/// On-disk bytes of a commit of one record whose body is `body_len` bytes:
/// header + (lsn + record head + body) + checksum.
pub fn frame_len(body_len: usize) -> u64 {
    (OPEN_HEAD + RECORD_HEAD + body_len + CHECK_LEN) as u64
}

/// Why a segment scan stopped before the end of the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belonged to a complete, valid commit.
    Clean,
    /// The commits end at `offset` and every byte after it is zero: the
    /// unused rest of a zero-filled extent, the clean end of the log.
    Zeros {
        /// Byte offset where the zeros start.
        offset: u64,
        /// Zero bytes from `offset` to the end of the buffer.
        len: u64,
    },
    /// A damaged frame with no verifying frame after it — a crash cut the
    /// commit short. `offset` is where the torn frame starts; `dropped`
    /// how many bytes after it are discarded.
    Torn {
        /// Byte offset of the torn frame.
        offset: u64,
        /// Bytes discarded (from `offset` to the end of the buffer).
        dropped: u64,
    },
    /// A damaged frame below a verifying one, or a verified commit that
    /// fails its LSN continuity check or does not parse. `offset` is where
    /// the bad frame starts.
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
    /// Valid records, in order: `(lsn, tag, body)`, the body a range of
    /// the scanned buffer.
    pub records: Vec<(u64, u8, Range<usize>)>,
    /// Each valid commit: its frame's byte offset and the indices of its
    /// records in `records`.
    pub commits: Vec<(u64, Range<usize>)>,
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

/// The first frame after byte `from` that could carry a later commit of
/// this log — one past `expected_lsn`, at most as many past it as records
/// fit — and verifies: its offset and LSN. The header and LSN are tested
/// before the checksum, so only a plausible frame is checked, and a
/// candidate cut from damaged bytes passes its check with probability
/// 2⁻³²: a torn tail reads as corruption (which halts, never replays) at
/// most that often per plausible offset.
pub(crate) fn resync(buf: &[u8], from: usize, expected_lsn: u64) -> Option<(usize, u64)> {
    let fit = ((buf.len() - from) / RECORD_HEAD) as u64;
    (from + 1..buf.len()).find_map(|at| {
        let mut r = Reader::new(&buf[at..]);
        let (Ok(_), Ok(lsn)) = (r.u32(), r.u64()) else {
            return None;
        };
        let plausible = lsn > expected_lsn && lsn - expected_lsn <= fit;
        (plausible && matches!(boundary(&buf[at..]), Boundary::Frame(..))).then_some((at, lsn))
    })
}

/// Scans a segment buffer, expecting its first commit to start at
/// `expected_lsn` and each later one where the one before ends. Stops at a
/// zero tail or at the first damaged or corrupt frame, classified by the
/// rules in the module docs; never panics on any input.
pub fn scan(buf: &[u8], mut expected_lsn: u64) -> SegmentScan {
    let (mut records, mut commits) = (Vec::new(), Vec::new());
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
            Boundary::Damaged(reason) if resync(buf, at, expected_lsn).is_some() => {
                break TailStatus::Corrupt { offset, reason }
            }
            Boundary::Damaged(_) => {
                break TailStatus::Torn {
                    offset,
                    dropped: rest.len() as u64,
                }
            }
        };
        let Ok(lsn) = Reader::new(payload).u64() else {
            break TailStatus::Corrupt {
                offset,
                reason: "payload too short for an lsn",
            };
        };
        if lsn != expected_lsn {
            break TailStatus::Corrupt {
                offset,
                reason: "lsn discontinuity",
            };
        }
        let Some(commit) = self::records(payload) else {
            break TailStatus::Corrupt {
                offset,
                reason: "commit records do not parse",
            };
        };
        commits.push((offset, records.len()..records.len() + commit.len()));
        for (tag, body) in commit {
            let body = at + HEADER_LEN + body.start..at + HEADER_LEN + body.end;
            records.push((expected_lsn, tag, body));
            expected_lsn += 1;
        }
        at += len;
    };
    SegmentScan {
        records,
        commits,
        tail,
        valid_len: at as u64,
    }
}

/// Segment file name for the segment whose first record carries `lsn`.
pub fn segment_name(lsn: u64) -> String {
    format!("seg-{lsn:016x}.log")
}

/// Quarantine name for a file recovery has discarded: the bytes are kept
/// for manual salvage, but [`parse_segment_name`] does not match the
/// prefixed name, so no scan or rotation will ever touch them again.
pub fn quarantine_name(name: &str) -> String {
    format!("{QUARANTINE_PREFIX}{name}")
}

/// True for every name the engine writes a frame under, and every name an
/// earlier format did: segments, the checkpoint files (`ckpt-…`) earlier
/// builds kept, and quarantined copies of either.
pub(crate) fn is_framed(name: &str) -> bool {
    let name = name.strip_prefix(QUARANTINE_PREFIX).unwrap_or(name);
    parse_segment_name(name).is_some() || name.starts_with("ckpt-")
}

/// Parses a segment file name back to its first LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Frames a commit payload by hand: length prefix + payload + checksum.
#[cfg(test)]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(payload.len() as u32);
    w.raw(payload);
    w.raw(&check(payload));
    w.into_bytes()
}

/// The payload of a commit of one record: `[lsn][tag][body_len][body]`.
#[cfg(test)]
pub(crate) fn payload(lsn: u64, tag: u8, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(lsn);
    w.u8(tag);
    w.u32(body.len() as u32);
    w.raw(body);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(lsn: u64, tag: u8, body: &[u8]) -> Vec<u8> {
        frame(&payload(lsn, tag, body))
    }

    /// A commit's records, pushed into its frame one by one and sealed
    /// once the LSN is known, are the frame `frame` builds of the commit's
    /// payload, byte for byte, and scan back as one commit.
    #[test]
    fn sealed_frames_equal_framed_payloads() {
        let bodies: [&[u8]; 3] = [b"", b"x", &[7; 300]];
        let mut open = Vec::new();
        let mut payload = 40u64.to_le_bytes().to_vec();
        for (i, body) in bodies.iter().enumerate() {
            let tag = i as u8 + 1;
            push_record(&mut open, tag, |w| w.raw(body));
            payload.extend_from_slice(&self::payload(0, tag, body)[8..]);
        }
        seal(&mut open, 40);
        assert_eq!(open, frame(&payload));
        let scan = scan(&open, 40);
        assert!(scan.tail.is_clean());
        assert_eq!(scan.commits, vec![(0, 0..3)]);
        let scanned: Vec<(u64, u8, &[u8])> = (scan.records.iter())
            .map(|(l, t, b)| (*l, *t, &open[b.clone()]))
            .collect();
        assert_eq!(
            scanned,
            vec![(40, 1, bodies[0]), (41, 2, bodies[1]), (42, 3, bodies[2])]
        );
        // A commit whose records do not parse is corruption, though its
        // frame verifies.
        for bad in [&payload[..8], &payload[..payload.len() - 1]] {
            let tail = super::scan(&frame(bad), 40).tail;
            assert!(
                matches!(tail, TailStatus::Corrupt { offset: 0, .. }),
                "{tail:?}"
            );
        }
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
        let (lsn, tag, body) = scan.records[3].clone();
        assert_eq!((lsn, tag, &buf[body]), (3, 1, &[3u8; 3][..]));
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
        // One commit of three records of tags in use: an op, a signature
        // deposit and a checkpoint piece. The scan checks frames, not
        // record bodies, so only their sizes matter: together they span
        // several sectors.
        let mut commit = Vec::new();
        for (tag, len) in [(1, 40), (2, 1700), (8, 900)] {
            push_record(&mut commit, tag, |w| w.raw(&vec![tag; len]));
        }
        seal(&mut commit, 3);
        full.extend_from_slice(&commit);
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
                    6,
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

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_name("ckpt-0000000000000007.ckp"), None);
        assert_eq!(parse_segment_name("seg-zz.log"), None);
        let quar = quarantine_name(&segment_name(42));
        assert_eq!(
            parse_segment_name(&quar),
            None,
            "quarantined: never scanned"
        );
        for name in [segment_name(7), "ckpt-0000000000000007.ckp".into(), quar] {
            assert!(is_framed(&name), "{name}");
        }
        assert!(!is_framed(FORMAT_MARKER));
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

//! Record framing and segment scanning for the append-only op log.
//!
//! Wire format of one framed record:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes] [check: 8 bytes]
//! ```
//!
//! where `check` is the first 8 bytes of `sha256(payload)` and the payload
//! itself begins `[lsn: u64 LE] [tag: u8] [body…]`. The three integrity
//! layers are deliberately distinct, because recovery must *classify*, not
//! just reject:
//!
//! * **insufficient bytes** (header or payload cut off) — a *torn tail*:
//!   the expected shape of a crash mid-append. Recovery discards it and
//!   continues; nothing acknowledged is lost, because acknowledgment
//!   happens only after fsync.
//! * **checksum mismatch** — *corruption* (bit rot, misdirected write).
//!   Recovery stops at the corrupt record and reports it; replaying past a
//!   lie would launder it into state.
//! * **LSN discontinuity** — a *splice* (duplicated or dropped record,
//!   e.g. a misdirected block landing twice). Also corruption: recovery
//!   stops and reports.

use tcvs_crypto::sha256;
use tcvs_store::enc::{Reader, Writer};

/// Bytes of `sha256(payload)` stored per record.
pub const CHECK_LEN: usize = 8;

/// Frame header size (the length prefix).
pub const HEADER_LEN: usize = 4;

/// Largest payload a frame may carry (1 GiB): anything bigger in a length
/// header is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// First allocation of a buffer that may grow to megabytes (a checkpoint
/// and its frame): larger than any size the allocator's per-thread cache
/// recycles. Growth is `realloc`, and glibc grows a chunk inside the arena
/// that *owns* it; a buffer started from nothing gets a cached 24-byte
/// chunk that — on the server thread, which mostly frees what its clients
/// allocated — usually belongs to a client thread's arena, and the
/// checkpoint then parks megabytes of slack there (cvs-durable-team
/// `peak_rss_mb` +31 %). Seeded, it grows in this thread's own arena and
/// reuses the pages the last checkpoint left resident.
pub(crate) const LARGE_ENCODING_SEED: usize = 4096;

/// Frames a record payload: length prefix + payload + truncated checksum.
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
    let mut w = Writer::with_capacity(LARGE_ENCODING_SEED);
    w.u32(payload.len() as u32);
    w.raw(payload);
    w.raw(&sha256(payload).0[..CHECK_LEN]);
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
    /// The final record is incomplete — a crash cut the append short.
    /// `offset` is where the torn record starts; `dropped` how many bytes
    /// after it are discarded.
    Torn {
        /// Byte offset of the torn record's frame.
        offset: u64,
        /// Bytes discarded (from `offset` to the end of the buffer).
        dropped: u64,
    },
    /// A record failed its checksum or LSN continuity check. `offset` is
    /// where the bad frame starts.
    Corrupt {
        /// Byte offset of the corrupt frame.
        offset: u64,
        /// Which check failed.
        reason: &'static str,
    },
}

impl TailStatus {
    /// True when the scan consumed the whole buffer.
    pub fn is_clean(&self) -> bool {
        *self == TailStatus::Clean
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
    /// here to shed a torn or corrupt tail.
    pub valid_len: u64,
}

/// Scans a segment buffer, expecting the first record to carry
/// `expected_lsn` and each subsequent record the next LSN. Stops at the
/// first torn or corrupt frame; never panics on any input.
pub fn scan(buf: &[u8], mut expected_lsn: u64) -> SegmentScan {
    let mut records = Vec::new();
    let mut r = Reader::new(buf);
    loop {
        let frame_start = r.position() as u64;
        if r.remaining() == 0 {
            return SegmentScan {
                records,
                tail: TailStatus::Clean,
                valid_len: frame_start,
            };
        }
        let torn = |records: Vec<(u64, u8, Vec<u8>)>| SegmentScan {
            records,
            tail: TailStatus::Torn {
                offset: frame_start,
                dropped: (buf.len() as u64) - frame_start,
            },
            valid_len: frame_start,
        };
        let len = match r.u32() {
            Ok(len) => len as usize,
            Err(_) => return torn(records),
        };
        if len > MAX_PAYLOAD {
            return SegmentScan {
                records,
                tail: TailStatus::Corrupt {
                    offset: frame_start,
                    reason: "length header exceeds maximum payload",
                },
                valid_len: frame_start,
            };
        }
        if r.remaining() < len + CHECK_LEN {
            return torn(records);
        }
        let payload = r.raw(len).expect("length just checked");
        let check = r.raw(CHECK_LEN).expect("length just checked");
        if &sha256(payload).0[..CHECK_LEN] != check {
            return SegmentScan {
                records,
                tail: TailStatus::Corrupt {
                    offset: frame_start,
                    reason: "checksum mismatch",
                },
                valid_len: frame_start,
            };
        }
        let mut pr = Reader::new(payload);
        let (lsn, tag) = match (pr.u64(), pr.u8()) {
            (Ok(lsn), Ok(tag)) => (lsn, tag),
            _ => {
                return SegmentScan {
                    records,
                    tail: TailStatus::Corrupt {
                        offset: frame_start,
                        reason: "payload too short for lsn+tag",
                    },
                    valid_len: frame_start,
                }
            }
        };
        if lsn != expected_lsn {
            return SegmentScan {
                records,
                tail: TailStatus::Corrupt {
                    offset: frame_start,
                    reason: "lsn discontinuity",
                },
                valid_len: frame_start,
            };
        }
        let body = payload[pr.position()..].to_vec();
        records.push((lsn, tag, body));
        expected_lsn += 1;
    }
}

/// Verifies and unpacks a checkpoint file: a single [`frame`] whose payload
/// is `[lsn: u64 LE][state bytes]`. Returns `None` on any damage — the
/// caller falls back to an older checkpoint.
pub fn scan_checkpoint(buf: &[u8]) -> Option<(u64, Vec<u8>)> {
    let mut r = Reader::new(buf);
    let len = r.u32().ok()? as usize;
    if len > MAX_PAYLOAD || r.remaining() != len + CHECK_LEN {
        return None;
    }
    let payload = r.raw(len).ok()?;
    let check = r.raw(CHECK_LEN).ok()?;
    if &sha256(payload).0[..CHECK_LEN] != check {
        return None;
    }
    let mut pr = Reader::new(payload);
    let lsn = pr.u64().ok()?;
    Some((lsn, payload[pr.position()..].to_vec()))
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
    format!("quarantine-{name}")
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

    #[test]
    fn absurd_length_header_is_corruption_not_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.raw(&[0u8; 16]);
        let scan = scan(&w.into_bytes(), 0);
        assert!(matches!(scan.tail, TailStatus::Corrupt { .. }));
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

//! Adversarial-input properties for the `enc` framing primitives.
//!
//! The encoder/decoder pair sits under every persisted byte in the
//! workspace (revision chains, log records, checkpoints), so it must be
//! total on arbitrary input: truncation at any byte boundary yields a
//! typed [`DecodeError::Truncated`] with an honest offset, bit flips and
//! splices never panic, and whatever *does* decode under damage is never
//! silently wrong about where it stands in the buffer.

use proptest::prelude::*;
use tcvs_store::enc::{DecodeError, Reader, Sink, Writer};

/// A value script both sides agree on, so one buffer exercises every
/// primitive in a round-trip.
#[derive(Clone, Debug)]
enum Item {
    U8(u8),
    U32(u32),
    U64(u64),
    Bytes(Vec<u8>),
    Str(String),
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        any::<u8>().prop_map(Item::U8),
        any::<u32>().prop_map(Item::U32),
        any::<u64>().prop_map(Item::U64),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Item::Bytes),
        proptest::collection::vec(any::<u8>(), 0..16)
            .prop_map(|bs| Item::Str(bs.iter().map(|b| (b'a' + b % 26) as char).collect())),
    ]
}

fn encode(items: &[Item]) -> Vec<u8> {
    let mut w = Writer::new();
    for it in items {
        match it {
            Item::U8(v) => w.u8(*v),
            Item::U32(v) => w.u32(*v),
            Item::U64(v) => w.u64(*v),
            Item::Bytes(v) => w.bytes(v),
            Item::Str(v) => w.string(v),
        }
    }
    w.into_bytes()
}

/// Decodes the script against a buffer; returns how many items decoded
/// before the first error (and the error).
fn decode(items: &[Item], buf: &[u8]) -> (usize, Option<DecodeError>) {
    let mut r = Reader::new(buf);
    for (i, it) in items.iter().enumerate() {
        let res: Result<(), DecodeError> = match it {
            Item::U8(_) => r.u8().map(drop),
            Item::U32(_) => r.u32().map(drop),
            Item::U64(_) => r.u64().map(drop),
            Item::Bytes(_) => r.bytes().map(drop),
            Item::Str(_) => r.string().map(drop),
        };
        if let Err(e) = res {
            return (i, Some(e));
        }
    }
    (items.len(), r.finish().err())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Untouched buffers round-trip every item and finish clean.
    #[test]
    fn full_buffers_round_trip(items in proptest::collection::vec(item_strategy(), 0..12)) {
        let buf = encode(&items);
        let (decoded, err) = decode(&items, &buf);
        prop_assert_eq!(decoded, items.len());
        prop_assert!(err.is_none(), "{:?}", err);
    }

    /// Truncation at EVERY byte boundary: never a panic, and every failure
    /// is a `Truncated` whose offset is inside the cut buffer and whose
    /// `needed` points past the cut — or, for a cut that severs a length
    /// prefix, an honest smaller-than-advertised read.
    #[test]
    fn truncation_at_every_boundary_is_typed(
        items in proptest::collection::vec(item_strategy(), 1..10)
    ) {
        let buf = encode(&items);
        for cut in 0..buf.len() {
            let (decoded, err) = decode(&items, &buf[..cut]);
            // A strict prefix can't satisfy the whole script AND finish.
            prop_assert!(
                decoded < items.len() || err.is_some(),
                "cut={cut}: decode of a strict prefix succeeded cleanly"
            );
            if let Some(DecodeError::Truncated { offset, needed }) = err {
                prop_assert!(offset <= cut, "cut={cut}: offset {offset} beyond buffer");
                prop_assert!(needed > 0, "cut={cut}: zero-byte shortfall reported");
                prop_assert!(
                    offset + needed > cut,
                    "cut={cut}: claimed shortfall {offset}+{needed} fits the buffer"
                );
            }
        }
    }

    /// A single flipped bit anywhere: never a panic. (The enc layer has no
    /// checksums — integrity is the log framing's job — so a flip may
    /// decode to different values; it must simply never be UB or a crash.)
    #[test]
    fn bit_flips_never_panic(
        items in proptest::collection::vec(item_strategy(), 1..10),
        flip in any::<u32>(),
    ) {
        let mut buf = encode(&items);
        let bit = (flip as usize) % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let _ = decode(&items, &buf);
    }

    /// Spliced buffers (duplicate a slice of the encoding into itself, the
    /// shape of a misdirected block write): never a panic, and a decode
    /// that errors reports an offset within bounds.
    #[test]
    fn duplicate_record_splices_never_panic(
        items in proptest::collection::vec(item_strategy(), 1..8),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let buf = encode(&items);
        let len = buf.len();
        let (a, b) = ((a as usize) % len, (b as usize) % len);
        let (lo, hi) = (a.min(b), a.max(b).max(a.min(b) + 1).min(len));
        let mut spliced = Vec::with_capacity(len + hi - lo);
        spliced.extend_from_slice(&buf[..hi]);
        spliced.extend_from_slice(&buf[lo..hi]); // the duplicate
        spliced.extend_from_slice(&buf[hi..]);
        let (_, err) = decode(&items, &spliced);
        if let Some(DecodeError::Truncated { offset, .. }) = err {
            prop_assert!(offset <= spliced.len());
        }
    }

    /// Pure garbage: reading any script off random bytes never panics.
    #[test]
    fn arbitrary_garbage_never_panics(
        items in proptest::collection::vec(item_strategy(), 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let _ = decode(&items, &garbage);
    }
}

/// The exact offsets, pinned (not property-based, so a regression names
/// the byte).
#[test]
fn truncated_offsets_are_exact() {
    let mut w = Writer::new();
    w.u32(7); // bytes 0..4
    w.bytes(b"abcdef"); // u64 len at 4..12, payload at 12..18
    let buf = w.into_bytes();

    // Cut inside the payload: the reader is at offset 12 and needs 6.
    let mut r = Reader::new(&buf[..14]);
    r.u32().unwrap();
    match r.bytes() {
        Err(DecodeError::Truncated { offset, needed }) => {
            assert_eq!((offset, needed), (12, 6));
        }
        other => panic!("wanted Truncated, got {other:?}"),
    }

    // Cut inside the length prefix itself: offset 4, needing its 8 bytes.
    let mut r = Reader::new(&buf[..6]);
    r.u32().unwrap();
    match r.bytes() {
        Err(DecodeError::Truncated { offset, needed }) => {
            assert_eq!((offset, needed), (4, 8));
        }
        other => panic!("wanted Truncated, got {other:?}"),
    }
}

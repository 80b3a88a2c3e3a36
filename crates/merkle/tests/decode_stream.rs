//! `DecodeStream`, the inverse of `EncodeStream`: a tree's encoding fed in
//! pieces split anywhere decodes to exactly what `MerkleTree::from_bytes`
//! makes of the whole, and damage fails it with a typed `CodecError`,
//! never a panic, and never an allocation a forged count sizes.
//!
//! Its own test binary: a counting `#[global_allocator]` keeps, per thread,
//! the bytes live and their peak, so the tests that run beside each other
//! do not count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use tcvs_merkle::{u64_key, CodecError, MerkleTree};

struct Counting;

thread_local! {
    /// Bytes this thread holds, and the most it held since the last reset.
    static LIVE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(grow: usize, shrink: usize) {
    // `try_with`: the slot is gone while a thread is torn down.
    let _ = LIVE.try_with(|live| {
        let (now, peak) = live.get();
        let now = (now + grow).saturating_sub(shrink);
        live.set((now, peak.max(now)));
    });
}

// SAFETY: defers every request to `System` unchanged; the counters are
// const-initialised thread locals without destructors.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the most bytes this thread held above what it
/// held before `f` ran.
fn peak_while<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(|live| {
        let (now, _) = live.get();
        live.set((now, now));
        now
    });
    let out = f();
    (out, LIVE.with(|live| live.get().1 - base))
}

fn tree(n: u64, order: usize, value_len: usize) -> MerkleTree {
    let mut t = MerkleTree::with_order(order);
    for i in 0..n {
        let mut v = vec![(i % 251) as u8; value_len];
        v[0] = 1;
        t.insert(u64_key(i * 7), v).unwrap();
    }
    t
}

/// Feeds `bytes` to a fresh stream, cut at `cuts` (offsets taken modulo
/// the length, in any order), and finishes it.
fn decode_in_pieces(bytes: &[u8], cuts: &[usize]) -> Result<MerkleTree, CodecError> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    at.push(0);
    at.push(bytes.len());
    at.sort_unstable();
    let mut stream = MerkleTree::decode_stream();
    for w in at.windows(2) {
        stream.feed(&bytes[w[0]..w[1]])?;
    }
    stream.finish()
}

/// Both decoders agree: the same tree, or both refuse.
fn same(a: &Result<MerkleTree, CodecError>, b: &Result<MerkleTree, CodecError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.root_digest() == b.root_digest()
                && a.len() == b.len()
                && a.order() == b.order()
                && a.to_bytes() == b.to_bytes()
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// One-byte pieces, the finest split, over full and pruned trees.
#[test]
fn one_byte_pieces_decode_every_shape() {
    for (n, order, value_len) in [
        (0u64, 4usize, 1usize),
        (1, 4, 3),
        (300, 4, 5),
        (500, 16, 40),
    ] {
        let t = tree(n, order, value_len);
        let pruned = t.prune_for_point(&u64_key(21));
        for t in [&t, &pruned] {
            let bytes = t.to_bytes();
            let mut stream = MerkleTree::decode_stream();
            for b in &bytes {
                stream.feed(std::slice::from_ref(b)).unwrap();
            }
            let back = stream.finish();
            assert!(same(&back, &MerkleTree::from_bytes(&bytes)), "n={n}");
            let back = back.unwrap();
            assert_eq!(back.root_digest(), t.root_digest(), "n={n} order={order}");
            if !back.is_pruned() {
                back.check_invariants().unwrap();
            }
        }
    }
}

/// A count the bytes cannot back is refused, or waits for bytes that never
/// come, without an allocation the count sizes: a leaf of 2³² − 1 entries
/// and a node of 2³² − 2 separators under a forged order of 2³² − 1.
#[test]
fn a_forged_count_allocates_nothing_in_proportion() {
    let mut header = tree(3, 4, 2).to_bytes()[..49].to_vec();
    header[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    for (tag, count) in [(1u8, u32::MAX), (3, u32::MAX), (2, u32::MAX - 1)] {
        let mut bytes = header.clone();
        bytes.push(tag);
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let ((streamed, whole), peak) = peak_while(|| {
            let streamed = decode_in_pieces(&bytes, &[50, 51, 60]).map(|_| ());
            (streamed, MerkleTree::from_bytes(&bytes).map(|_| ()))
        });
        assert!(streamed.is_err() && whole.is_err(), "tag {tag}");
        assert!(peak < 16 << 10, "tag {tag}: {peak} bytes held");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any split of a stream's output decodes to `from_bytes` of the whole.
    #[test]
    fn any_split_decodes_like_from_bytes(
        n in 0u64..400,
        order in 4usize..17,
        value_len in 1usize..300,
        cuts in proptest::collection::vec(any::<usize>(), 0..40),
        prune in any::<bool>(),
    ) {
        let mut t = tree(n, order, value_len);
        if prune {
            t = t.prune_for_point(&u64_key(n / 2 * 7));
        }
        let mut bytes = Vec::new();
        let mut stream = t.encode_stream(Vec::new());
        stream.fill(&mut bytes, usize::MAX);
        let back = decode_in_pieces(&bytes, &cuts);
        prop_assert!(same(&back, &MerkleTree::from_bytes(&bytes)));
        prop_assert_eq!(back.map(|b| b.root_digest()).ok(), Some(t.root_digest()));
    }

    /// A stream cut short or run on fails with a typed error; a flipped bit
    /// fails exactly when `from_bytes` refuses the flipped bytes.
    #[test]
    fn damage_fails_typed_and_never_panics(
        n in 1u64..200,
        order in 4usize..9,
        at in any::<usize>(),
        bit in 0u32..8,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let bytes = tree(n, order, 9).to_bytes();
        let at = at % bytes.len();
        prop_assert!(decode_in_pieces(&bytes[..at], &cuts).is_err());
        let mut long = bytes.clone();
        long.push(0);
        prop_assert_eq!(
            decode_in_pieces(&long, &cuts).err(),
            Some(CodecError::TrailingBytes)
        );
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << bit;
        let streamed = decode_in_pieces(&flipped, &cuts);
        prop_assert!(same(&streamed, &MerkleTree::from_bytes(&flipped)));
        // Only the order field can change and still decode: a tree's
        // digests do not cover its order.
        prop_assert!(streamed.is_err() || (5..9).contains(&at));
    }
}

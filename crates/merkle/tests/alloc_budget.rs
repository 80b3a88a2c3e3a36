//! Allocation budget of the proof hot path on the benchmark's tree
//! (65,536 × 256 B, order 16): building, verifying, replaying and dropping
//! a proof must allocate per *materialized node*, not per sibling, key and
//! value. The ceilings sit well under what this same test counted on the
//! `Arc`-per-stub layout this one replaced: point prune 96, point verify
//! 126–127, 222 frees per point op; 43 + 73 allocations and 116 frees per
//! batched op.
//!
//! Own test binary with a counting `#[global_allocator]`, one `#[test]`, so
//! no other thread allocates while a section is being counted. CI runs it
//! `--release`: the budget is checked on the build the benchmark measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tcvs_merkle::{
    apply_op, prune_for_op, prune_for_ops, replay_batch_unanchored, replay_unanchored, u64_key,
    BatchProof, MerkleTree, Op, VerificationObject,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every request to `System` unchanged; the counters are
// plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` is one more allocation and one more free.
        ALLOCS.fetch_add(1, Relaxed);
        FREES.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations, frees and bytes requested while `f` ran.
#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    allocs: u64,
    frees: u64,
    bytes: u64,
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (a, d, b) = (
        ALLOCS.load(Relaxed),
        FREES.load(Relaxed),
        BYTES.load(Relaxed),
    );
    let out = f();
    let cost = Cost {
        allocs: ALLOCS.load(Relaxed) - a,
        frees: FREES.load(Relaxed) - d,
        bytes: BYTES.load(Relaxed) - b,
    };
    (out, cost)
}

const KEYS: u64 = 65_536;
const VALUE_LEN: usize = 256;
const ORDER: usize = 16;
const WINDOW: u64 = 32;

fn value(i: u64, version: u8) -> Vec<u8> {
    let mut v = vec![version; VALUE_LEN];
    v[..8].copy_from_slice(&i.to_le_bytes());
    v
}

/// Worst case seen over several proofs: allocations and bytes to prune,
/// allocations and bytes to verify and replay, and frees over the whole life
/// cycle (temporaries of prune and verify plus the drop of the proof and of
/// everything the replay built).
#[derive(Clone, Copy, Debug, Default)]
struct Worst {
    prune: Cost,
    verify: Cost,
    frees: u64,
}

impl Worst {
    fn note(&mut self, prune: Cost, verify: Cost, drop: Cost) {
        self.prune.allocs = self.prune.allocs.max(prune.allocs);
        self.prune.bytes = self.prune.bytes.max(prune.bytes);
        self.verify.allocs = self.verify.allocs.max(verify.allocs);
        self.verify.bytes = self.verify.bytes.max(verify.bytes);
        self.frees = self.frees.max(prune.frees + verify.frees + drop.frees);
    }
}

/// Point proofs over a spread of keys.
fn point(tree: &MerkleTree, op_of: impl Fn(u64) -> Op) -> Worst {
    let mut worst = Worst::default();
    for i in 0..64u64 {
        let op = op_of((i * 1021 + 7) % KEYS);
        let (vo, prune) = counted(|| VerificationObject::new(prune_for_op(tree, &op)));
        let (verified, verify) = counted(|| replay_unanchored(ORDER, &vo, &op, None).unwrap());
        assert_eq!(verified.0, tree.root_digest());
        let ((), drop) = counted(|| std::mem::drop((vo, verified)));
        worst.note(prune, verify, drop);
    }
    worst
}

/// Batch proofs over a few windows of `WINDOW` spread keys.
fn window(tree: &MerkleTree, op_of: impl Fn(u64) -> Op) -> Worst {
    let mut worst = Worst::default();
    for w in 0..8u64 {
        let ops: Vec<Op> = (0..WINDOW)
            .map(|i| op_of((w * 7919 + i * 2039 + 13) % KEYS))
            .collect();
        let (proof, prune) = counted(|| BatchProof::new(prune_for_ops(tree, &ops)));
        let (replayed, verify) =
            counted(|| replay_batch_unanchored(ORDER, &proof, &ops, None).unwrap());
        assert_eq!(replayed.0, tree.root_digest());
        let ((), drop) = counted(|| std::mem::drop((proof, replayed)));
        worst.note(prune, verify, drop);
    }
    worst
}

#[test]
fn proof_hot_path_stays_inside_its_allocation_budget() {
    let mut tree = MerkleTree::with_order(ORDER);
    for i in 0..KEYS {
        tree.insert(u64_key(i), value(i, 0)).unwrap();
    }

    let get = point(&tree, |i| Op::Get(u64_key(i)));
    let put = point(&tree, |i| Op::Put(u64_key(i), value(i, 1)));
    let gets = window(&tree, |i| Op::Get(u64_key(i)));
    let puts = window(&tree, |i| Op::Put(u64_key(i), value(i, 1)));
    // The server's own copy-on-write update, for the EXPERIMENTS.md table.
    let mut live = tree.clone();
    let op = Op::Put(u64_key(4242), value(4242, 2));
    let (_, apply) = counted(|| apply_op(&mut live, &op).unwrap());
    println!("point get  : {get:?}");
    println!("point put  : {put:?}");
    println!("window get : {gets:?}");
    println!("window put : {puts:?}");
    println!("server put : {apply:?}");

    for p in [get, put] {
        assert!(p.prune.allocs <= 16, "point prune: {p:?}");
        assert!(p.frees <= 186 / 5, "point frees: {p:?}");
    }
    assert!(get.verify.allocs <= 6, "point Get verify: {get:?}");
    assert!(put.verify.allocs <= 24, "point Put verify: {put:?}");
    for w in [gets, puts] {
        assert!(w.prune.allocs <= 8 * WINDOW, "window prune: {w:?}");
        assert!(w.verify.allocs <= 14 * WINDOW, "window verify: {w:?}");
        assert!(w.frees <= 97 * WINDOW / 5, "window frees: {w:?}");
    }
}

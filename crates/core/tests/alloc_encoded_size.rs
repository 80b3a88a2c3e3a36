//! Counting a message's size allocates nothing: `ServerCore::process`
//! calls `encoded_size()` on every reply it serves, so the count runs the
//! message's encoder over a `ByteCount` that stores no byte and builds no
//! temporary buffer, not even for the embedded proof or signature.
//!
//! Own test binary with a counting `#[global_allocator]` and one `#[test]`,
//! so no other thread allocates while a section is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tcvs_core::{HonestServer, ProtocolConfig, ServerApi, SignedState};
use tcvs_merkle::{u64_key, Op};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every request to `System` unchanged; the counter is a
// plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn encoded_size_allocates_nothing() {
    let config = ProtocolConfig::default();
    let mut server = HonestServer::new(&config);
    for i in 0..4_096u64 {
        server.handle_op(0, &Op::Put(u64_key(i), vec![i as u8; 64]), i);
    }
    let (mut rings, _) = tcvs_crypto::setup_users([0x25; 32], 1, 6);
    let root = server.core().root_digest();
    let ctr = server.core().ctr();
    let payload = tcvs_core::state::signed_payload(&root, ctr);
    let signed = SignedState {
        signer: 0,
        root,
        ctr,
        sig: rings[0].sign(&payload).unwrap(),
    };

    let mut point = server.handle_op(1, &Op::Get(u64_key(7)), 5_000);
    point.sig = Some(signed.clone());
    let window: Vec<Op> = (0..32u64)
        .map(|i| Op::Put(u64_key(i * 97), vec![1; 64]))
        .collect();
    let mut batch = server.handle_op_batch(1, 0, &window, 5_001).unwrap();
    batch.sig = Some(signed);

    let (sizes, allocs) = counted(|| [point.encoded_size(), batch.encoded_size()]);
    println!("point {} B, batch {} B", sizes[0], sizes[1]);
    assert!(sizes.iter().all(|&s| s > 4_000), "{sizes:?}");
    assert_eq!(allocs, 0, "encoded_size allocated");
}

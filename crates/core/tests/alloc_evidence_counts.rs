//! A forged collection count cannot make the evidence decoder reserve
//! memory for items the bundle does not hold. The integrity digest is an
//! unkeyed sha256, so anyone can seal a bundle that passes it; a count is
//! refused unless the remaining input can hold that many items — the
//! bundle's own collections, and the counts inside a sealed exchange (a
//! window's ops, an `Entries` answer's items).
//!
//! Own test binary with a counting `#[global_allocator]` that records the
//! largest single request, and one `#[test]`, so no other thread allocates
//! while a section is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tcvs_core::evidence::EVIDENCE_MAGIC;
use tcvs_core::{audit_bytes, EvidenceBundle, EvidenceError};
use tcvs_crypto::sha256;
use tcvs_store::enc::{DecodeError, Sink, Writer};

struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged; the record is a
// plain atomic.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` made.
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Relaxed);
    let out = f();
    (out, LARGEST.load(Relaxed))
}

/// The fixed head of a bundle — version 2, kind `protocol-verdict`, empty
/// strings, no trigger coordinates, no initial token — followed by
/// whatever `rest` writes, sealed under a valid digest.
fn forged(rest: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(EVIDENCE_MAGIC);
    w.u32(2);
    w.u8(0);
    w.u64(0);
    w.string("");
    w.u64(0);
    w.string("");
    w.string("");
    w.string("");
    for _ in 0..3 {
        w.u8(0);
    }
    rest(&mut w);
    let mut bytes = w.into_bytes();
    let digest = sha256(&bytes);
    bytes.extend_from_slice(digest.as_bytes());
    bytes
}

#[test]
fn forged_counts_are_refused_before_any_large_allocation() {
    const CLAIM: u32 = 1 << 20;
    const CEILING: usize = 64 * 1024;
    // 2^20 shares, none present.
    let shares = forged(|w| w.u32(CLAIM));
    // An exchange after the empty share, deposit, epoch-state and
    // checkpoint lists: its shape tag and anchor, then what `rest` writes.
    let exchange = |shape: u8, rest: &dyn Fn(&mut Writer)| {
        forged(|w| {
            (0..4).for_each(|_| w.u32(0));
            w.u8(1); // present
            w.u8(shape);
            w.u32(8); // order
            w.u64(0); // gctr
            rest(w);
        })
    };
    // A window of 2^20 ops, none present.
    let window = exchange(1, &|w| w.u32(CLAIM));
    // One unbounded range answered by 2^20 entries, none present.
    let entries = exchange(0, &|w| {
        w.raw(&[1, 0, 0]); // Range(None, None)
        w.u8(1); // Entries
        w.u32(CLAIM);
    });

    for (bytes, field) in [
        (&shares, "shares"),
        (&window, "exchange"),
        (&entries, "exchange"),
    ] {
        let (decoded, peak) = largest(|| EvidenceBundle::from_bytes(bytes));
        println!(
            "{field}: {} B bundle, largest allocation {peak} B",
            bytes.len()
        );
        assert!(bytes.len() < 160, "{} B", bytes.len());
        match decoded {
            Err(EvidenceError::Malformed { field: f, err }) => {
                assert_eq!(f, field);
                assert_eq!(
                    err,
                    DecodeError::Invalid("count exceeds the remaining input")
                );
            }
            other => panic!("a forged {field} count decoded: {other:?}"),
        }
        assert!(peak <= CEILING, "decoding {field} allocated {peak} B");

        let (report, peak) = largest(|| audit_bytes(bytes));
        assert!(!report.accepted && !report.confirmed);
        assert!(peak <= CEILING, "auditing {field} allocated {peak} B");
    }
}

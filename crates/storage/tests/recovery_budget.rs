//! Memory budget of recovery: the peak of the bytes live while
//! `DurableServer::open` recovers a world must stay under the decoded world
//! plus the replay tail plus a fixed allowance for the read window, and
//! must not grow with the segment size or the segment count. Recovery
//! streams the newest checkpoint into the tree as it reads its pieces and
//! reads the log through one bounded window; it holds neither the state's
//! encoding nor a whole segment.
//!
//! The same world — a checkpoint stream loaded, the ops after it replayed —
//! is written at 256 KiB and at 4 MiB segments, and at the segment sizes
//! that spread its log over 8 and over 32 segments, then recovered; and
//! once more with a torn last frame whose length header claims 1 GiB.
//!
//! Own test binary with a counting `#[global_allocator]` that tracks the
//! bytes live and their peak, and one test, so no other thread allocates
//! while recovery is being counted. CI runs it `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tcvs_core::{ProtocolConfig, ServerApi};
use tcvs_merkle::{u64_key, Op};
use tcvs_storage::{
    log, DurabilityOptions, DurableOptions, DurableServer, DurableStorage, Medium, MemMedium,
    StorageObs,
};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let now = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: defers every request to `System` unchanged; the counters are
// plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block are both live while the bytes move.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;
const KEYS: u64 = 256;
const VALUE_LEN: usize = 2 * KIB;
const OPS: u64 = 1_400;
const EVERY: u64 = 64;

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every: EVERY,
        ..DurabilityOptions::default()
    }
}

fn open(mem: MemMedium, segment_bytes: usize) -> DurableServer<DurableStorage<MemMedium>> {
    let opts = DurableOptions {
        segment_bytes,
        retain_checkpoints: 2,
    };
    let storage = DurableStorage::open(mem, opts);
    DurableServer::open(
        storage,
        ProtocolConfig::default(),
        durability(),
        StorageObs::disabled(),
    )
    .expect("the medium recovers")
}

/// Writes the world with `segment_bytes` segments: `OPS` puts of
/// `VALUE_LEN` bytes over `KEYS` keys, each key rewritten several times.
fn write(segment_bytes: usize) -> MemMedium {
    let mem = MemMedium::new();
    let mut server = open(mem.clone(), segment_bytes);
    for j in 0..OPS {
        let mut value = vec![(j % 251) as u8; VALUE_LEN];
        value[..8].copy_from_slice(&j.to_le_bytes());
        let op = Op::Put(u64_key(j * 7 % KEYS), value);
        server.handle_op_seq((j % 2) as u32, j, &op, j);
    }
    mem
}

/// Segments of the log on `mem`, and their bytes.
fn segments(mem: &MemMedium) -> (usize, usize) {
    let names = mem.list().unwrap();
    let segs: Vec<_> = (names.iter())
        .filter(|n| log::parse_segment_name(n).is_some())
        .collect();
    let bytes = (segs.iter()).map(|n| mem.read(n).unwrap().map_or(0, |b| b.len()));
    (segs.len(), bytes.sum())
}

/// What one recovery of a world cost.
#[derive(Debug)]
struct Recovery {
    segments: usize,
    /// Most bytes live above those live before the open.
    peak: usize,
    /// Bytes the recovered server holds: the decoded world.
    world: usize,
    /// Body bytes of the records replayed after the checkpoint.
    tail: usize,
}

fn recover(mem: MemMedium, segment_bytes: usize) -> Recovery {
    let (segments, _) = segments(&mem);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let server = open(mem, segment_bytes);
    let (peak, world) = (PEAK.load(Relaxed) - base, LIVE.load(Relaxed) - base);
    let report = server.last_recovery().clone();
    assert_eq!(server.core().ctr(), OPS);
    assert!(report.stream.is_some(), "a stream is loaded: {report:?}");
    assert!(
        report.records_replayed > 0,
        "ops replay after it: {report:?}"
    );
    Recovery {
        segments,
        peak,
        world,
        tail: report.bytes_replayed as usize,
    }
}

#[test]
fn recovery_holds_the_world_and_tail_plus_a_window() {
    // The log kept behind the checkpoints sets the segment sizes that
    // spread it over 8 and over 32 segments.
    let (_, kept) = segments(&write(16 * KIB));
    let mut runs = Vec::new();
    for segment_bytes in [256 * KIB, 4 * MIB, kept / 8, kept / 32] {
        let run = recover(write(segment_bytes), segment_bytes);
        println!("{segment_bytes:>8} B segments: {run:?}");
        // The tail's records hold their values, plus a few dozen bytes
        // each; the window is 256 KiB.
        let bound = run.world + run.tail + run.tail / 4 + 512 * KIB;
        assert!(
            run.peak <= bound,
            "{segment_bytes} B segments: peak {} over {bound}: {run:?}",
            run.peak
        );
        runs.push(run);
    }
    // A torn last frame whose length header claims 1 GiB: classifying it
    // reads the rest of the segment, no more.
    let mut mem = write(256 * KIB);
    let names = mem.list().unwrap();
    let last = (names.iter())
        .filter(|n| log::parse_segment_name(n).is_some())
        .max()
        .unwrap();
    mem.append(last, &(log::MAX_PAYLOAD as u32).to_le_bytes())
        .unwrap();
    mem.append(last, &[0xA5; 64]).unwrap();
    mem.sync(last).unwrap();
    let torn = recover(mem, 256 * KIB);
    assert!(
        torn.peak.abs_diff(runs[0].peak) < 64 * KIB,
        "{torn:?} vs {:?}",
        runs[0]
    );
    let spread = |a: &Recovery, b: &Recovery| a.peak.abs_diff(b.peak);
    let (small, large) = (&runs[0], &runs[1]);
    assert!(
        spread(small, large) < 64 * KIB,
        "segment size: {small:?} vs {large:?}"
    );
    let (eight, many) = (&runs[2], &runs[3]);
    assert!(
        (6..=10).contains(&eight.segments) && (26..=38).contains(&many.segments),
        "{eight:?} {many:?}"
    );
    assert!(
        spread(eight, many) < 64 * KIB,
        "segment count: {eight:?} vs {many:?}"
    );
}

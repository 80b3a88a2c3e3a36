//! The kill-anywhere crash recovery property.
//!
//! A scripted, deterministic op stream runs against a [`DurableServer`]
//! over a [`MemMedium`] (an in-process model of file + page cache, whose
//! `crash()` is a power loss). The property, checked at *every* op index
//! and under every storage fault kind:
//!
//! after any crash, the recovered server's root digest, counter, and
//! reply journal are byte-identical to those of an oracle that replayed
//! exactly the acknowledged prefix — nothing acknowledged is lost, and
//! nothing unacknowledged is half-applied.
//!
//! The sweeps checkpoint as the engine does: every few ops the countdown
//! runs out, and once the records logged since the last full checkpoint
//! outweigh it a new one starts, streamed a piece per commit in the commits
//! after it. Their worlds are small, so a few dozen ops outweigh one.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use tcvs_core::{
    FaultKind, FaultPlan, FaultRates, ProtocolConfig, ServerApi, ServerCore, StorageFault,
};
use tcvs_merkle::{u64_key, Op};
use tcvs_storage::{
    log, response_bytes, DurabilityOptions, DurableOptions, DurableServer, DurableStorage,
    FaultMedium, Medium, MemMedium, Record, Storage, StorageError, StorageObs,
};

const USERS: u64 = 3;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 4,
        epoch_len: 10,
    }
}

/// The deterministic op stream: op index → (user, seq, op, round).
fn scripted(j: u64) -> (u32, u64, Op, u64) {
    let user = (j % USERS) as u32;
    let op = match j % 4 {
        0 => Op::Put(u64_key(j % 23), vec![(j % 251) as u8; 4]),
        1 => Op::Get(u64_key((j + 7) % 23)),
        2 => Op::Put(u64_key((j + 11) % 23), vec![(j % 13) as u8]),
        _ => Op::Delete(u64_key((j + 3) % 23)),
    };
    (user, j, op, j)
}

/// An op stream: op index → (user, seq, op, round).
type Script = fn(u64) -> (u32, u64, Op, u64);

/// Replays ops `0..n` of `script` on a fresh in-memory core, returning it
/// plus every response's canonical bytes.
fn oracle(script: Script, n: u64) -> (ServerCore, Vec<Vec<u8>>) {
    let mut core = ServerCore::new(&config());
    let mut replies = Vec::new();
    for j in 0..n {
        let (user, _seq, op, round) = script(j);
        replies.push(response_bytes(&core.process(user, &op, round)));
    }
    (core, replies)
}

fn open<M: Medium>(medium: M, checkpoint_every: u64) -> DurableServer<DurableStorage<M>> {
    // Tiny segments: crashes land across many segments.
    open_segments(medium, checkpoint_every, 256)
}

fn open_segments<M: Medium>(
    medium: M,
    checkpoint_every: u64,
    segment_bytes: usize,
) -> DurableServer<DurableStorage<M>> {
    let opts = DurableOptions {
        segment_bytes,
        retain_checkpoints: 2,
    };
    let store = DurableStorage::open(medium, opts);
    DurableServer::open(
        store,
        config(),
        DurabilityOptions {
            checkpoint_every,
            // These tests *inject* corruption and then assert on the exact
            // salvaged prefix, so they opt into serving past a corrupt
            // stop; the refusal default is covered by the engine tests.
            salvage_corruption: true,
        },
        StorageObs::disabled(),
    )
    .expect("open server")
}

/// Asserts the recovered world equals the oracle of `script` at `acked`
/// ops: root digest, counter, and a byte-identical reply journal.
fn assert_recovered_equals_oracle<M: Medium>(
    server: &DurableServer<DurableStorage<M>>,
    script: Script,
    acked: u64,
    what: &str,
) {
    let (oracle_core, replies) = oracle(script, acked);
    assert_eq!(server.core().ctr(), acked, "{what}: counter");
    assert_eq!(
        server.core().root_digest(),
        oracle_core.root_digest(),
        "{what}: root digest"
    );
    let journal = server.recovered_journal().expect("durable journal");
    for u in 0..USERS.min(acked) {
        // The last scripted op of user u below `acked`.
        let last = (0..acked).rev().find(|j| j % USERS == u).unwrap();
        let (_, seq, resp) = journal
            .iter()
            .find(|(user, _, _)| *user == u as u32)
            .unwrap_or_else(|| panic!("{what}: user {u} missing from journal"));
        assert_eq!(*seq, last, "{what}: user {u} journal watermark");
        assert_eq!(
            response_bytes(resp),
            replies[last as usize],
            "{what}: user {u} journaled reply bytes"
        );
    }
}

/// How many ops a crash sweep runs, from a dry run of its script at
/// checkpoint cadence `every`: where the second full checkpoint's stream
/// completes, and one countdown past it. Asserts that those ops hold every
/// piece of both streams, first, middle and last.
fn two_streams(run: &DryRun, every: u64) -> u64 {
    const STREAMS: usize = 2;
    let streams = run.streams();
    assert!(streams.len() >= STREAMS, "{streams:?}");
    let last = |stream| run.pieces_of(stream).last().map_or(0, |p| p.0);
    let n = last(streams[STREAMS - 1].1) + 1 + every;
    for &(_, stream, count) in &streams[..STREAMS] {
        let held: Vec<u32> = run.pieces_of(stream).iter().map(|p| p.1).collect();
        assert_eq!(held, (0..count).collect::<Vec<_>>(), "stream {stream}");
        assert!(last(stream) < n, "stream {stream} completes within {n} ops");
    }
    n
}

/// Crash (power loss) after every acknowledged op index: the recovered
/// state must be exactly the acknowledged prefix. The swept ops hold two
/// complete full-checkpoint streams and a countdown after them, so the
/// swept crashes recover from no checkpoint and from each of the two,
/// replaying the ops after it.
#[test]
fn power_loss_at_every_op_index_recovers_the_acked_prefix() {
    const EVERY: u64 = 7;
    let n = two_streams(&DryRun::new(scripted, EVERY, 16 * EVERY, 256, false), EVERY);
    let mut from_checkpoint = 0;
    // Ops each loaded checkpoint covers, 0 for none.
    let mut loaded = std::collections::BTreeSet::new();
    for crash_at in 0..=n {
        let mem = MemMedium::new();
        let mut server = open(mem.clone(), EVERY);
        for j in 0..crash_at {
            let (user, seq, op, round) = scripted(j);
            server.handle_op_seq(user, seq, &op, round);
        }
        drop(server); // process death
        mem.crash(); // and the page cache with it
        let server = open(mem, EVERY);
        assert!(
            server.last_recovery().corrupt_stop.is_none(),
            "crash_at={crash_at}: {:?}",
            server.last_recovery()
        );
        from_checkpoint += u64::from(server.last_recovery().records_replayed < crash_at);
        loaded.insert(crash_at - server.last_recovery().records_replayed);
        assert_recovered_equals_oracle(
            &server,
            scripted,
            crash_at,
            &format!("crash_at={crash_at}"),
        );
    }
    assert!(from_checkpoint > 0, "some recovery loaded a checkpoint");
    assert!(loaded.len() > 2, "none and each of two loaded: {loaded:?}");
}

/// A torn write at every append — each op's commit, with the checkpoint
/// piece riding along: the op whose commit it tears is never
/// acknowledged, and recovery lands exactly on the prefix before it —
/// whether the torn bytes survived in the page cache (process restart) or
/// not (power loss). The swept ops hold two complete full-checkpoint
/// streams, so the commits carrying their pieces are torn too.
#[test]
fn torn_write_at_every_op_index_loses_only_the_unacked_op() {
    const EVERY: u64 = 7;
    let n = two_streams(&DryRun::new(scripted, EVERY, 16 * EVERY, 256, false), EVERY);
    let mut torn_at = 0;
    loop {
        let mut tore = false;
        for power_loss in [false, true] {
            let mem = MemMedium::new();
            let mut fm = FaultMedium::new(mem.clone());
            fm.schedule(torn_at, StorageFault::TornWrite);
            let opts = DurableOptions {
                segment_bytes: 256,
                retain_checkpoints: 2,
            };
            let store = DurableStorage::open(fm, opts);
            let mut server = DurableServer::open(
                store,
                config(),
                DurabilityOptions {
                    checkpoint_every: EVERY,
                    ..DurabilityOptions::default()
                },
                StorageObs::disabled(),
            )
            .expect("open");
            // The torn write fails the op whose commit issued it.
            let unacked = (0..n).find(|&j| {
                let (user, seq, op, round) = scripted(j);
                server.apply(user, seq, &op, round).is_err()
            });
            drop(server);
            let Some(unacked) = unacked else {
                continue; // `torn_at` lies past the run's last append
            };
            tore = true;
            if power_loss {
                mem.crash();
            }
            let server = open(mem, EVERY);
            assert_recovered_equals_oracle(
                &server,
                scripted,
                unacked,
                &format!("torn_at={torn_at} unacked={unacked} power_loss={power_loss}"),
            );
        }
        if !tore {
            break;
        }
        torn_at += 1;
    }
    // One append per op: pieces ride the op's commit.
    assert_eq!(torn_at, n, "every append of the run was torn once");
}

/// A lying fsync at every op index, with the power failing right after:
/// the op whose sync was dropped is the modeled hazard — recovery must
/// still land on a *clean consistent prefix* (everything before it). Swept
/// twice over the same ops, which a dry run at a countdown of 7 finds to
/// hold two complete full-checkpoint streams: with that countdown, so a
/// lost sync drops the commit carrying a stream's first, middle or last
/// piece; and with checkpoints off, a pure log.
#[test]
fn lost_fsync_then_power_loss_recovers_a_clean_prefix() {
    const EVERY: u64 = 7;
    let n = two_streams(&DryRun::new(scripted, EVERY, 16 * EVERY, 256, false), EVERY);
    for every in [EVERY, 0] {
        for lost_at in 0..n {
            let mem = MemMedium::new();
            let mut fm = FaultMedium::new(mem.clone());
            fm.schedule(lost_at, StorageFault::FsyncLost);
            let mut server = open(fm, every);
            for j in 0..=lost_at {
                let (user, seq, op, round) = scripted(j);
                server.apply(user, seq, &op, round).expect("acked");
            }
            drop(server);
            mem.crash(); // power loss before any later sync could repair it
            let server = open(mem, EVERY);
            let what = format!("every={every} lost_at={lost_at}");
            assert!(server.last_recovery().corrupt_stop.is_none(), "{what}");
            assert_recovered_equals_oracle(&server, scripted, lost_at, &what);
        }
    }
}

/// A flipped bit in every commit, swept twice. With checkpoints off, the
/// log is every op record and nothing else, so a flip at every op index
/// from the first record on stops recovery exactly at the flip. With a
/// checkpoint countdown of 7 ops, the run takes a full checkpoint after 7
/// ops, so the commit that carries its piece is flipped too: a flip in what
/// the newest complete full checkpoint subsumes costs nothing, although it
/// sits in the segment the checkpoint's pieces are in; any other stops
/// recovery exactly at the flip, reports it, and replays the intact
/// prefix, because nothing after a damaged frame is trusted — a flipped
/// piece spoils its checkpoint, and recovery falls back to the log before
/// it. A flip below a frame that verifies is classified as
/// corruption; a flip in the last frame has nothing verifying after it and
/// is indistinguishable from a tear, so it is reported as a torn tail —
/// either way the stop point and the recovered prefix are exact.
#[test]
fn bit_flip_at_every_op_index_stops_replay_at_the_flip() {
    const N: u64 = 24;
    const SEGMENT: usize = 1 << 20; // the flips are interior to a segment
    for every in [0, 7] {
        let run = DryRun::new(scripted, every, N, SEGMENT, false);
        let (mut flipped, mut pieces) = (0, 0);
        for (a, m) in run.appends() {
            let j = run.op_of(m);
            flipped += 1;
            pieces += u64::from(run.holds(m, PIECE));
            let mem = MemMedium::new();
            let mut fm = FaultMedium::new(mem.clone());
            fm.schedule(a, StorageFault::BitFlip);
            let mut server = open_segments(fm, every, SEGMENT);
            for j in 0..N {
                let (user, seq, op, round) = scripted(j);
                server.apply(user, seq, &op, round).expect("acked");
            }
            drop(server);
            let server = open(mem, every);
            let expected = if j < run.subsumed { N } else { j };
            let report = server.last_recovery();
            assert!(
                expected == N || report.corrupt_stop.is_some() || report.torn_tail.is_some(),
                "every={every} append {a} of op {j}: the flip must be reported: {report:?}"
            );
            assert_recovered_equals_oracle(
                &server,
                scripted,
                expected,
                &format!("every={every} append {a}"),
            );
        }
        if every == 0 {
            assert_eq!(
                (flipped, run.subsumed),
                (N, 0),
                "one flip per op, none subsumed"
            );
        } else {
            assert!(pieces > 0 && run.subsumed > 0, "{pieces} pieces flipped");
        }
    }
}

/// A transient short read during recovery heals on retry: nothing is
/// misclassified as torn.
#[test]
fn short_read_during_recovery_retries_and_recovers_everything() {
    const N: u64 = 12;
    let mem = MemMedium::new();
    let mut server = open(mem.clone(), 0);
    for j in 0..N {
        let (user, seq, op, round) = scripted(j);
        server.handle_op_seq(user, seq, &op, round);
    }
    drop(server);
    mem.crash();
    let mut fm = FaultMedium::new(mem);
    fm.arm_short_read();
    let opts = DurableOptions {
        segment_bytes: 256,
        retain_checkpoints: 2,
    };
    let recovered = DurableStorage::open(fm, opts).recover().expect("recover");
    assert!(
        recovered.report.corrupt_stop.is_none(),
        "{:?}",
        recovered.report
    );
    assert_eq!(recovered.tail.len() as u64, N);
}

/// Crash-restart through the [`ServerApi`] surface at every index: the
/// in-process equivalent of the kill loop, checkpoints enabled. A dry run
/// that restarts after every op as well sets the range. A restart drops
/// the stream its op started, so there a checkpoint completes only when a
/// reopen's replay outweighs two and it takes one in a commit of its own;
/// the range holds two and a countdown after them, so the restarts load
/// no checkpoint and each of the two.
#[test]
fn crash_restart_at_every_op_index_is_transparent() {
    const EVERY: u64 = 5;
    let n = two_streams(&DryRun::new(scripted, EVERY, 400, 256, true), EVERY);
    let mem = MemMedium::new();
    let mut server = open(mem, EVERY);
    let (_, replies) = oracle(scripted, n);
    let mut loaded = std::collections::BTreeSet::new();
    for j in 0..n {
        let (user, seq, op, round) = scripted(j);
        let resp = server.handle_op_seq(user, seq, &op, round);
        assert_eq!(
            response_bytes(&resp),
            replies[j as usize],
            "op {j}: live reply matches oracle"
        );
        server.crash_restart(); // crash after *every* op
        loaded.insert(j + 1 - server.last_recovery().records_replayed);
        assert_recovered_equals_oracle(&server, scripted, j + 1, &format!("after op {j}"));
    }
    assert!(loaded.len() > 2, "none and each of two loaded: {loaded:?}");
}

/// Ties the seeded fault plans into storage: every storage fault kind a
/// seeded plan schedules lands on the medium, and recovery still converges
/// to a consistent prefix afterwards.
#[test]
fn seeded_fault_plans_drive_storage_faults_end_to_end() {
    let rates = FaultRates {
        drop_pct: 0,
        dup_pct: 0,
        delay_pct: 0,
        reorder_pct: 0,
        crash_pct: 0,
        storage_pct: 30,
        max_delay_rounds: 0,
    };
    let plan = FaultPlan::seeded(42, 60, &rates);
    let mem = MemMedium::new();
    let mut fm = FaultMedium::new(mem.clone());
    let mut scheduled = 0u64;
    for (at, kind) in plan.iter() {
        if let FaultKind::Storage(f) = kind {
            // Torn writes kill the medium permanently mid-run; keep the
            // end-to-end pass to the recoverable kinds and cover torn
            // writes exhaustively above.
            if f != StorageFault::TornWrite {
                fm.schedule(at, f);
                scheduled += 1;
            }
        }
    }
    assert!(scheduled > 0, "seed 42 schedules storage faults");
    let opts = DurableOptions {
        segment_bytes: 512,
        retain_checkpoints: 2,
    };
    let store = DurableStorage::open(fm, opts);
    let mut server = DurableServer::open(
        store,
        config(),
        DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        },
        StorageObs::disabled(),
    )
    .expect("open");
    for j in 0..60 {
        let (user, seq, op, round) = scripted(j);
        server
            .apply(user, seq, &op, round)
            .expect("recoverable faults only");
    }
    drop(server);
    let server = open(mem, 0);
    // Bit flips may truncate the usable prefix; whatever prefix recovery
    // lands on must be internally consistent with the oracle.
    let acked = server.core().ctr();
    assert_recovered_equals_oracle(&server, scripted, acked, "seeded plan");
}

/// `scripted` with every put's value blown up to 24 KiB, so that a
/// checkpoint of its world streams out in many pieces.
fn scripted_large(j: u64) -> (u32, u64, Op, u64) {
    let (user, seq, op, round) = scripted(j);
    let op = match op {
        Op::Put(k, v) => Op::Put(k, vec![v[0]; 24 << 10]),
        op => op,
    };
    (user, seq, op, round)
}

/// What one commit frame holds: each record's tag, with a checkpoint
/// piece's stream, index and count.
type Commit = Vec<(u8, Option<(u64, u32, u32)>)>;

/// The records of the commit frame `data`, as [`Commit`] tells them.
fn commit_of(data: &[u8]) -> Commit {
    let lsn = data
        .get(4..12)
        .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
    let records = log::scan(data, lsn).records.into_iter();
    records
        .map(|(_, tag, body)| match Record::decode(tag, &data[body]) {
            Ok(Record::Chunk(head, _)) => (tag, Some(head)),
            _ => (tag, None),
        })
        .collect()
}

/// Log tag of a checkpoint piece.
const PIECE: u8 = 8;

/// Every mutating medium operation of a run, in order: `(kind, file)`, and
/// for an append the commit it carries.
type OpLog = Arc<Mutex<Vec<(&'static str, String, Commit)>>>;

/// A medium that logs its mutating operations and loses power at the
/// `cut`-th: that operation and every later one fail.
struct PowerCut<M> {
    inner: M,
    log: OpLog,
    cut: usize,
}

impl<M: Medium> PowerCut<M> {
    fn op(&self, kind: &'static str, name: &str, commit: Commit) -> Result<(), StorageError> {
        let mut log = self.log.lock().unwrap();
        if log.len() >= self.cut {
            return Err(StorageError::io("power lost"));
        }
        log.push((kind, name.to_string(), commit));
        Ok(())
    }
}

impl<M: Medium> Medium for PowerCut<M> {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.op("append", name, commit_of(data))?;
        self.inner.append(name, data)
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        self.op("sync", name, Vec::new())?;
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.op("write_atomic", name, Vec::new())?;
        self.inner.write_atomic(name, data)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.op("remove", name, Vec::new())?;
        self.inner.remove(name)
    }
}

/// Applies `scripted_large` ops `0..n` until one fails; returns how many
/// were acknowledged.
fn run_large<M: Medium>(server: &mut DurableServer<DurableStorage<M>>, n: u64) -> u64 {
    (0..n)
        .find(|&j| {
            let (user, seq, op, round) = scripted_large(j);
            server.apply(user, seq, &op, round).is_err()
        })
        .unwrap_or(n)
}

/// A fault-free run of ops `0..n` of `script` over a medium that logs its
/// mutating operations: what each op writes, in order.
struct DryRun {
    /// Every mutating medium operation of the run.
    ops: Vec<(&'static str, String, Commit)>,
    /// Index in `ops` of each op's first one, then `ops.len()`.
    op_start: Vec<usize>,
    /// Ops the newest full checkpoint complete at the end covers.
    subsumed: u64,
}

impl DryRun {
    /// The run; with `restart`, the server crash-restarts after every op.
    fn new(script: Script, every: u64, n: u64, segment_bytes: usize, restart: bool) -> DryRun {
        let log = OpLog::default();
        let dry = MemMedium::new();
        let medium = PowerCut {
            inner: dry.clone(),
            log: Arc::clone(&log),
            cut: usize::MAX,
        };
        let mut server = open_segments(medium, every, segment_bytes);
        let mut op_start = Vec::new();
        for j in 0..n {
            op_start.push(log.lock().unwrap().len());
            let (user, seq, op, round) = script(j);
            server.apply(user, seq, &op, round).expect("fault-free run");
            if restart {
                server.crash_restart();
            }
        }
        drop(server);
        let ops = log.lock().unwrap().clone();
        op_start.push(ops.len());
        let newest = DurableStorage::open(dry, DurableOptions::default())
            .recover()
            .unwrap()
            .checkpoint;
        let subsumed = newest.map_or(0, |(_, state)| state.snapshot.ctr());
        DryRun {
            ops,
            op_start,
            subsumed,
        }
    }

    /// `(append index, medium operation index)` of every append.
    fn appends(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        (0..self.ops.len())
            .filter(|&m| self.ops[m].0 == "append")
            .enumerate()
            .map(|(a, m)| (a as u64, m))
    }

    /// The op issuing medium operation `m`.
    fn op_of(&self, m: usize) -> u64 {
        (self.op_start.partition_point(|&s| s <= m) - 1) as u64
    }

    /// Medium operations `m` of op `j` of `kind` on a log segment.
    fn segment_ops(&self, j: u64, kind: &str) -> impl Iterator<Item = usize> + '_ {
        let kind = kind.to_string();
        (self.op_start[j as usize]..self.op_start[j as usize + 1]).filter(move |&m| {
            self.ops[m].0 == kind && log::parse_segment_name(&self.ops[m].1).is_some()
        })
    }

    /// Whether medium operation `m` appends a commit holding a record
    /// with log tag `tag`.
    fn holds(&self, m: usize, tag: u8) -> bool {
        self.ops[m].2.iter().any(|r| r.0 == tag)
    }

    /// The pieces of checkpoint stream `stream` in the order the run
    /// appends them: the op whose commit carries each, and its index.
    fn pieces_of(&self, stream: u64) -> Vec<(u64, u32)> {
        let pieces = self.ops.iter().enumerate().flat_map(|(m, (_, _, commit))| {
            let mine = commit
                .iter()
                .filter_map(|r| r.1)
                .filter(move |p| p.0 == stream);
            mine.map(move |p| (m, p.1))
        });
        pieces.map(|(m, index)| (self.op_of(m), index)).collect()
    }

    /// The first piece of each checkpoint stream of the run: the medium
    /// operation appending it, its stream and its count.
    fn streams(&self) -> Vec<(usize, u64, u32)> {
        let firsts = self.ops.iter().enumerate().flat_map(|(m, (_, _, commit))| {
            let pieces = commit.iter().filter_map(|r| r.1);
            pieces.filter(|p| p.1 == 0).map(move |p| (m, p.0, p.2))
        });
        firsts.collect()
    }

    /// Ops durable when medium operation `m` fails: those before its op,
    /// and its op too once its record was synced (a failure in the
    /// checkpoint work after that fails an op that is already durable).
    fn durable_before(&self, m: usize) -> u64 {
        let j = self.op_of(m);
        let synced = self.segment_ops(j, "sync").last();
        j + u64::from(synced.is_some_and(|sync| sync < m))
    }
}

/// A full checkpoint streams out a piece per commit across the commits
/// after it, and the pruning behind it follows one segment per commit.
/// Power loss, a torn write, a lost fsync (then power loss) and a bit
/// flip, each injected at every medium operation from the second full
/// checkpoint's first piece (after 50 ops) to the end of the run, which
/// holds every piece of it and of a third (after 120 ops), and the pruning
/// below the second that the third's completion starts: the recovered
/// world is always the oracle's, at exactly the prefix the fault allows,
/// and only a flip in an acknowledged commit that no complete checkpoint
/// covers stops recovery.
#[test]
fn faults_anywhere_in_a_streamed_checkpoint_recover_the_oracle() {
    // Long enough for the third full checkpoint to complete and prune.
    const N: u64 = 136;
    const EVERY: u64 = 10;

    // A fault-free run maps every medium operation to the op issuing it.
    let run = DryRun::new(scripted_large, EVERY, N, 256, false);
    let ops = &run.ops;
    // The second full checkpoint: a damaged one falls back to the first,
    // and the third's completion prunes the log below it.
    let streams = run.streams();
    assert!(streams.len() >= 3, "{streams:?}");
    let (first, stream, count) = streams[1];
    assert!(count >= 3, "the stream spans {count} commits");
    let swept: Vec<u32> = ops[first..]
        .iter()
        .flat_map(|(_, _, commit)| commit.iter().filter_map(|r| r.1))
        .filter(|p| p.0 == stream)
        .map(|p| p.1)
        .collect();
    assert_eq!(
        swept,
        (0..count).collect::<Vec<_>>(),
        "the swept range holds the stream's first, middle and last pieces"
    );
    // The newest full checkpoint complete when the run ends subsumes every
    // record below it, damaged or not.
    let subsumed = run.subsumed;
    assert!(subsumed > run.op_of(first));
    let removed = ops[first..].iter().filter(|(kind, ..)| *kind == "remove");
    assert!(
        removed.count() > 0,
        "the stream's pruning lies inside the run"
    );

    // Power lost just before medium operation m: the op issuing it is
    // unacknowledged.
    let mut interrupted = 0;
    for m in first..ops.len() {
        let j = run.op_of(m);
        let mem = MemMedium::new();
        let mut server = open(
            PowerCut {
                inner: mem.clone(),
                log: OpLog::default(),
                cut: m,
            },
            EVERY,
        );
        assert_eq!(run_large(&mut server, N), j, "power cut at medium op {m}");
        drop(server);
        mem.crash();
        let server = open(mem, EVERY);
        let report = server.last_recovery();
        assert!(report.corrupt_stop.is_none(), "m={m}: {report:?}");
        interrupted += u64::from(report.stream.is_some_and(|(met, count)| met < count));
        let expected = run.durable_before(m);
        assert_recovered_equals_oracle(&server, scripted_large, expected, &format!("m={m}"));
    }
    assert!(interrupted > 0, "some power cut interrupted a stream");

    for (a, m) in run.appends().filter(|&(_, m)| m >= first) {
        let j = run.op_of(m);
        for fault in [
            StorageFault::TornWrite,
            StorageFault::FsyncLost,
            StorageFault::BitFlip,
        ] {
            let what = format!("{fault:?} at append {a} ({} of op {j})", ops[m].1);
            let mem = MemMedium::new();
            let mut fm = FaultMedium::new(mem.clone());
            fm.schedule(a, fault);
            let mut server = open(fm, EVERY);
            // (ops run, ops acknowledged, ops recovered)
            let (run_to, acked, expected) = match fault {
                // The torn append fails its op.
                StorageFault::TornWrite => (N, j, run.durable_before(m)),
                // Power fails right after the op whose sync was lost, and
                // the op is lost with whatever rode its commit.
                StorageFault::FsyncLost => (j + 1, j + 1, j),
                // A flipped commit stops replay at it, unless a complete
                // checkpoint subsumes it; one holding a piece spoils its
                // stream, and recovery falls back to the previous one.
                _ if j < subsumed => (N, N, N),
                _ => (N, N, j),
            };
            assert_eq!(run_large(&mut server, run_to), acked, "{what}");
            drop(server);
            if fault != StorageFault::BitFlip {
                mem.crash();
            }
            let server = open(mem, EVERY);
            // Only a flipped commit replay depends on is interior damage.
            let report = server.last_recovery();
            if fault != StorageFault::BitFlip || expected == N {
                assert!(report.corrupt_stop.is_none(), "{what}: {report:?}");
            }
            assert_recovered_equals_oracle(&server, scripted_large, expected, &what);
        }
    }
}

/// Bytes of one disk sector: a power loss lands or loses each one whole.
const SECTOR: usize = 512;

/// What a power loss left of the commit whose sync it interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// Every byte of it reached the disk.
    Whole,
    /// None of it did (or its file, never synced, vanished).
    Lost,
    /// Some of it did.
    Torn,
}

/// A log segment in `FileMedium`'s on-disk shape.
#[derive(Default)]
struct Segment {
    /// The file: the appended bytes, then zeros up to its capacity.
    data: Vec<u8>,
    /// End of the appended bytes.
    end: usize,
    /// Bytes a sync has made durable.
    synced: usize,
    /// File length a sync has made durable.
    durable_len: usize,
}

#[derive(Default)]
struct ExtentState {
    segments: std::collections::BTreeMap<String, Segment>,
    /// Every commit appended to a segment, in order, with the sectors it
    /// spans.
    commits: Vec<(Commit, usize)>,
    /// Segment syncs so far, and the one the power fails at.
    syncs: u64,
    cut_at: Option<u64>,
    dead: bool,
}

/// A `MemMedium` given `FileMedium`'s zero extents: log segments are
/// written into zero-filled capacity, grown by doubling, at most 256 KiB a
/// step; other files go to the `MemMedium` as they are. The power fails at
/// a chosen segment sync, and [`ZeroExtents::crash`] keeps each segment's
/// synced prefix plus a chosen subset of its unsynced 512-B sectors,
/// zeroing the rest.
#[derive(Clone, Default)]
struct ZeroExtents {
    inner: MemMedium,
    state: Arc<Mutex<ExtentState>>,
}

impl ZeroExtents {
    /// A medium whose power fails at segment sync `cut_at` (0-based): that
    /// sync and every later mutation fail.
    fn cut_at(cut_at: u64) -> ZeroExtents {
        let medium = ZeroExtents::default();
        medium.state.lock().unwrap().cut_at = Some(cut_at);
        medium
    }

    fn live(&self) -> Result<std::sync::MutexGuard<'_, ExtentState>, StorageError> {
        let st = self.state.lock().unwrap();
        if st.dead {
            return Err(StorageError::io("power lost"));
        }
        Ok(st)
    }

    /// The power loss: other files lose their unsynced bytes, a segment
    /// keeps its synced prefix and the unsynced sectors `keep` picks
    /// (indexed from its first unsynced one), a grown file keeps its new
    /// length only if `keep` picks the sector after the commit, and a
    /// segment never synced vanishes. Restores the power and returns what
    /// became of the interrupted commit, with the sectors it spans (0 when
    /// its file vanished).
    fn crash(&self, keep: impl Fn(usize) -> bool) -> (Shape, usize) {
        self.inner.crash();
        let mut st = self.state.lock().unwrap();
        st.dead = false;
        st.cut_at = None;
        let mut cut = (Shape::Lost, 0);
        st.segments.retain(|_, seg| {
            if seg.durable_len == 0 {
                return false;
            }
            let (from, to) = (seg.synced, seg.end);
            if from == to {
                return true;
            }
            let written = seg.data[from..to].to_vec();
            let first = from / SECTOR;
            let sectors = to.div_ceil(SECTOR) - first;
            if seg.data.len() > seg.durable_len && !keep(sectors) {
                seg.data.truncate(seg.durable_len);
            }
            let len = seg.data.len();
            for k in (0..sectors).filter(|&k| !keep(k)) {
                let lo = ((first + k) * SECTOR).clamp(from, len);
                let hi = ((first + k + 1) * SECTOR).min(len);
                seg.data[lo..hi].fill(0);
            }
            let landed = &seg.data[from.min(len)..to.min(len)];
            let shape = if landed == written {
                Shape::Whole
            } else if landed.iter().all(|&b| b == 0) {
                Shape::Lost
            } else {
                Shape::Torn
            };
            cut = (shape, sectors);
            seg.end = len;
            seg.synced = len;
            seg.durable_len = len;
            true
        });
        cut
    }
}

impl Medium for ZeroExtents {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut names = self.inner.list()?;
        names.extend(self.state.lock().unwrap().segments.keys().cloned());
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        if let Some(seg) = self.state.lock().unwrap().segments.get(name) {
            return Ok(Some(seg.data.clone()));
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.live()?;
        if log::parse_segment_name(name).is_none() {
            drop(st);
            return self.inner.append(name, data);
        }
        let seg = st.segments.entry(name.to_string()).or_default();
        let end = seg.end + data.len();
        let sectors = end.div_ceil(SECTOR) - seg.end / SECTOR;
        if end > seg.data.len() {
            let cap = seg.data.len();
            let grown = end
                .max(cap + cap.clamp(4 << 10, 256 << 10))
                .next_multiple_of(4 << 10);
            seg.data.resize(grown, 0);
        }
        seg.data[seg.end..end].copy_from_slice(data);
        seg.end = end;
        st.commits.push((commit_of(data), sectors));
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let mut st = self.live()?;
        if log::parse_segment_name(name).is_none() {
            drop(st);
            return self.inner.sync(name);
        }
        let at = st.syncs;
        st.syncs += 1;
        if st.cut_at == Some(at) {
            st.dead = true;
            return Err(StorageError::io("power lost"));
        }
        if let Some(seg) = st.segments.get_mut(name) {
            seg.synced = seg.end;
            seg.durable_len = seg.data.len();
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.live()?;
        if log::parse_segment_name(name).is_none() {
            drop(st);
            return self.inner.write_atomic(name, data);
        }
        let len = data.len();
        st.segments.insert(
            name.to_string(),
            Segment {
                data: data.to_vec(),
                end: len,
                synced: len,
                durable_len: len,
            },
        );
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.live()?.segments.remove(name);
        self.inner.remove(name)
    }
}

/// A stateless 64-bit mix (splitmix64's finaliser).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The power fails at the sync of every commit, on a medium with
/// `FileMedium`'s zero extents, and lands a chosen subset of the commit's
/// sectors. Every commit holds its op, and while a full checkpoint streams
/// a piece of it too, so the sweep holds commits of several records across
/// several sectors. Recovery returns exactly the prefix the disk holds: the
/// acknowledged ops, plus the interrupted op only when every byte of its
/// commit landed. It reports a torn tail exactly when part of the commit
/// landed (a commit spanning two sectors or more always tears under some
/// subset) and never stops at corruption. A dry run sets the range: two
/// complete full-checkpoint streams and a countdown after them, so the
/// sweep cuts the commits carrying their first, middle and last pieces.
#[test]
fn power_loss_landing_any_sectors_of_a_commit_recovers_the_acked_prefix() {
    const EVERY: u64 = 5;
    const SEGMENT: usize = 1 << 20;
    let n = two_streams(
        &DryRun::new(scripted_large, EVERY, 16 * EVERY, SEGMENT, false),
        EVERY,
    );
    let open = |medium: ZeroExtents| {
        let opts = DurableOptions {
            segment_bytes: SEGMENT,
            retain_checkpoints: 2,
        };
        DurableServer::open(
            DurableStorage::open(medium, opts),
            config(),
            DurabilityOptions {
                checkpoint_every: EVERY,
                ..DurabilityOptions::default()
            },
            StorageObs::disabled(),
        )
    };
    let seeded = |seed: u64| move |k: usize| mix(seed << 32 ^ k as u64) & 1 == 1;
    type Keep = Box<dyn Fn(usize) -> bool>;
    let subsets: [(&str, Keep); 7] = [
        ("nothing landed", Box::new(|_| false)),
        ("the first sector lost", Box::new(|k| k > 0)),
        ("only the first sector landed", Box::new(|k| k == 0)),
        ("every sector landed", Box::new(|_| true)),
        ("seed 1", Box::new(seeded(1))),
        ("seed 2", Box::new(seeded(2))),
        ("seed 3", Box::new(seeded(3))),
    ];
    // One commit, one segment sync, per op.
    let dry = ZeroExtents::default();
    let mut server = open(dry.clone()).expect("open");
    assert_eq!(run_large(&mut server, n), n, "fault-free run");
    drop(server);
    let commits = dry.state.lock().unwrap().commits.clone();
    assert_eq!(commits.len() as u64, n);
    let holds =
        |commit: &Commit, tags: &[u8]| tags.iter().all(|t| commit.iter().any(|r| r.0 == *t));
    let full = commits
        .iter()
        .filter(|(c, sectors)| holds(c, &[1, PIECE]) && *sectors >= 3);
    assert!(
        full.count() > 0,
        "a commit holds an op and a piece, and spans 3 sectors or more"
    );
    let pieces = commits.iter().flat_map(|c| &c.0).filter_map(|r| r.1);
    assert!(
        pieces.map(|p| p.2).max() >= Some(3),
        "a stream spans 3 commits"
    );
    let mut torn_commits = 0;
    for j in 0..n {
        let mut tore = false;
        let mut spans = 0;
        for (subset, keep) in &subsets {
            let what = format!("power lost in the sync of op {j}, {subset}");
            let medium = ZeroExtents::cut_at(j);
            let mut server = open(medium.clone()).expect("open");
            assert_eq!(run_large(&mut server, n), j, "{what}");
            drop(server);
            let (shape, sectors) = medium.crash(keep);
            let server_medium = medium.clone();
            let server = match open(medium) {
                Ok(server) => server,
                Err(e) => panic!("{what}: {shape:?} recovery refused: {e}"),
            };
            let report = server.last_recovery();
            assert!(report.corrupt_stop.is_none(), "{what}: {report:?}");
            assert_eq!(
                report.torn_tail.is_some(),
                shape == Shape::Torn,
                "{what}: {shape:?} {report:?}"
            );
            let expected = j + u64::from(shape == Shape::Whole);
            assert_recovered_equals_oracle(&server, scripted_large, expected, &what);
            // Recovery truncated the zero or torn tail: the next commit
            // lands right after the last record, and a clean restart
            // reads it back.
            let mut server = server;
            let (user, seq, op, round) = scripted_large(expected);
            server.apply(user, seq, &op, round).expect("the next op");
            drop(server);
            let server = open(server_medium).expect("clean restart");
            assert_eq!(server.last_recovery().torn_tail, None, "{what}");
            assert_recovered_equals_oracle(&server, scripted_large, expected + 1, &what);
            tore |= shape == Shape::Torn;
            spans = sectors;
        }
        assert!(tore || spans < 2, "op {j}: {spans} sectors, never torn");
        torn_commits += u64::from(tore);
    }
    // The puts' commits span dozens of sectors; those that open a segment
    // vanish with it instead.
    assert!(torn_commits >= n / 3, "{torn_commits} of {n} commits torn");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workload lengths, checkpoint cadences, and crash points:
    /// recovery is always the acknowledged prefix.
    #[test]
    fn random_crash_points_recover_exactly(
        n in 1u64..80,
        every in 0u64..12,
        crash_at_rel in 0u64..1000,
    ) {
        let crash_at = crash_at_rel % (n + 1);
        let mem = MemMedium::new();
        let mut server = open(mem.clone(), every);
        for j in 0..crash_at {
            let (user, seq, op, round) = scripted(j);
            server.handle_op_seq(user, seq, &op, round);
        }
        drop(server);
        mem.crash();
        let server = open(mem, every);
        prop_assert!(server.last_recovery().corrupt_stop.is_none());
        let (oracle_core, _) = oracle(scripted, crash_at);
        prop_assert_eq!(server.core().ctr(), crash_at);
        prop_assert_eq!(server.core().root_digest(), oracle_core.root_digest());
    }
}

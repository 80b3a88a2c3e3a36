//! Kill-anywhere crash smoke test over the real filesystem.
//!
//! Orchestrator mode (`crash_smoke <dir> <rounds>`) spawns itself in worker
//! mode, lets the worker append durable operations for a pseudo-random few
//! milliseconds, SIGKILLs it, recovers the store in-process, and verifies
//! the recovered world against an in-memory oracle that replays the same
//! deterministic op stream. Repeats for `<rounds>` rounds; any divergence,
//! corruption stop, or recovery failure exits nonzero.
//!
//! Worker mode (`crash_smoke worker <dir>`) recovers the store, then
//! applies ops `f(ctr), f(ctr+1), …` forever — the op stream is a pure
//! function of the op index, so the oracle can reconstruct the full history
//! from the recovered counter alone. Its puts are 4 KiB, so every full
//! checkpoint streams out in many pieces, one per commit, and a kill often
//! lands mid-stream. Each round reports the newest stream recovery found
//! (`stream=<pieces>/<count>`, or `none`) and fails if its count exceeds
//! 4 × the checkpoint interval (the stream could not complete within that
//! many commits of its start); reports the records replayed after the
//! newest complete stream and their bytes (`bytes=<n>/<bound>`), and
//! fails if those bytes exceed the bound: two full checkpoints of the
//! recovered world plus one interval's records; and reports the zero tail truncated and any torn record, and fails if a
//! segment file grew past twice the larger of the segment size and its
//! records (extents grow by doubling).

use std::process::{Command, Stdio};
use std::time::Duration;

use tcvs_core::{ProtocolConfig, ServerApi, ServerCore};
use tcvs_merkle::{u64_key, Op};
use tcvs_storage::{
    log, response_bytes, DurabilityOptions, DurableOptions, DurableServer, DurableState,
    DurableStorage, FileMedium, Record, StorageObs,
};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 4,
        epoch_len: 64,
    }
}

/// Bytes of a put's value: enough that a checkpoint spans several pieces.
const VALUE_BYTES: usize = 4 << 10;

/// The deterministic op stream: op index → (user, seq, op, round).
fn scripted(j: u64) -> (u32, u64, Op, u64) {
    let user = (j % 3) as u32;
    let op = match j % 4 {
        0 => Op::Put(u64_key(j % 97), vec![(j % 251) as u8; VALUE_BYTES]),
        1 => Op::Get(u64_key((j + 13) % 97)),
        2 => Op::Put(u64_key((j + 31) % 97), vec![(j % 13) as u8; VALUE_BYTES]),
        _ => Op::Delete(u64_key((j + 7) % 97)),
    };
    (user, j, op, j)
}

/// Bytes a segment holds before the log rotates to the next one.
const SEGMENT_BYTES: usize = 8 << 10;

/// Ops between checkpoints.
const CHECKPOINT_EVERY: u64 = 16;

fn open(dir: &str) -> Result<DurableServer<DurableStorage<FileMedium>>, String> {
    let medium = FileMedium::open(dir).map_err(|e| format!("open medium: {e}"))?;
    let opts = DurableOptions {
        segment_bytes: SEGMENT_BYTES,
        retain_checkpoints: 2,
    };
    let store = DurableStorage::open(medium, opts);
    DurableServer::open(
        store,
        config(),
        // No salvage override: a SIGKILL must never corrupt the log, so a
        // corrupt-stop refusal here is exactly the failure the smoke test
        // exists to catch.
        DurabilityOptions {
            checkpoint_every: CHECKPOINT_EVERY,
            ..DurabilityOptions::default()
        },
        StorageObs::disabled(),
    )
    .map_err(|e| format!("open server: {e}"))
}

/// Bytes of a full checkpoint of `server`'s world as it stands.
fn full_bytes(server: &DurableServer<DurableStorage<FileMedium>>) -> u64 {
    let state = DurableState {
        snapshot: server.core().crash_snapshot(),
        journal: server.recovered_journal().unwrap_or_default(),
    };
    state.stream().remaining() as u64
}

/// Body bytes of one interval's op records, each as large as the largest.
fn interval_bytes() -> u64 {
    let body = |j| {
        let (user, seq, op, round) = scripted(j);
        Record::Op {
            user,
            seq,
            op,
            round,
        }
        .body()
        .len() as u64
    };
    CHECKPOINT_EVERY * (0..4).map(body).max().unwrap_or(0)
}

fn worker(dir: &str) -> Result<(), String> {
    let mut server = open(dir)?;
    let mut j = server.core().ctr();
    loop {
        let (user, seq, op, round) = scripted(j);
        server
            .apply(user, seq, &op, round)
            .map_err(|e| format!("apply {j}: {e}"))?;
        j += 1;
    }
}

fn orchestrate(dir: &str, rounds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut max_ctr = 0u64;
    let mut interrupted = 0u64;
    let mut extent_tails = 0u64;
    for round in 0..rounds {
        let mut child = Command::new(&exe)
            .arg("worker")
            .arg(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        // A different kill point every round: the crash lands before the
        // first op, mid-append, mid-fsync, mid-checkpoint, …
        std::thread::sleep(Duration::from_millis(15 + (round * 7) % 60));
        child.kill().map_err(|e| format!("kill worker: {e}"))?; // SIGKILL
        child.wait().map_err(|e| format!("wait worker: {e}"))?;

        let server = open(dir)?;
        let report = server.last_recovery().clone();
        if let Some(stop) = &report.corrupt_stop {
            return Err(format!("round {round}: recovery hit corruption: {stop}"));
        }
        // A checkpoint starts once the records since the last one outweigh
        // it, and completes within an interval: the replay holds about one
        // checkpoint's weight, two where kills cut streams short.
        let bound = 2 * full_bytes(&server) + interval_bytes();
        if report.bytes_replayed > bound {
            return Err(format!(
                "round {round}: recovery replayed {} bytes of records, over the {bound} of \
                 two full checkpoints and one interval",
                report.bytes_replayed
            ));
        }
        // A piece rides each commit: a stream takes its count of commits.
        if report
            .stream
            .is_some_and(|(_, n)| u64::from(n) > 4 * CHECKPOINT_EVERY)
        {
            return Err(format!(
                "round {round}: stream {:?} cannot complete within 4 × {CHECKPOINT_EVERY} commits",
                report.stream
            ));
        }
        let ctr = server.core().ctr();
        if ctr < max_ctr {
            return Err(format!(
                "round {round}: recovered ctr {ctr} regressed below {max_ctr}"
            ));
        }
        max_ctr = ctr;

        // Oracle: replay the scripted stream from genesis in memory; the
        // recovered server must be indistinguishable from one that never
        // crashed, and journal replies must be byte-identical.
        let journal = server.recovered_journal().unwrap_or_default();
        let mut oracle = ServerCore::new(&config());
        let mut wanted: Vec<(u64, Vec<u8>)> = Vec::new();
        for j in 0..ctr {
            let (user, seq, op, round_no) = scripted(j);
            let resp = oracle.process(user, &op, round_no);
            if journal.iter().any(|(_, s, _)| *s == seq) {
                wanted.push((seq, response_bytes(&resp)));
            }
        }
        if server.core().root_digest() != oracle.root_digest() {
            return Err(format!(
                "round {round}: recovered root diverges from oracle at ctr {ctr}"
            ));
        }
        for (user, seq, resp) in &journal {
            let Some((_, oracle_bytes)) = wanted.iter().find(|(s, _)| s == seq) else {
                return Err(format!(
                    "round {round}: journal entry for user {user} seq {seq} beyond ctr {ctr}"
                ));
            };
            if &response_bytes(resp) != oracle_bytes {
                return Err(format!(
                    "round {round}: journal reply for user {user} seq {seq} not byte-identical"
                ));
            }
        }
        for entry in std::fs::read_dir(dir).map_err(|e| format!("list {dir}: {e}"))? {
            let entry = entry.map_err(|e| format!("list {dir}: {e}"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(first) = log::parse_segment_name(&name) else {
                continue;
            };
            let buf = std::fs::read(entry.path()).map_err(|e| format!("read {name}: {e}"))?;
            // A commit bigger than a segment fills one of its own.
            let held = log::scan(&buf, first).valid_len.max(SEGMENT_BYTES as u64);
            if buf.len() as u64 > 2 * held {
                return Err(format!(
                    "round {round}: segment {name} is {} bytes, over twice the {held} it holds",
                    buf.len()
                ));
            }
        }
        interrupted += u64::from(report.stream.is_some_and(|(met, n)| met < n));
        let stream = report
            .stream
            .map_or("none".into(), |(met, n)| format!("{met}/{n}"));
        extent_tails += u64::from(report.zero_tail_bytes > 0 || report.torn_tail.is_some());
        println!(
            "round {round}: recovered ctr={ctr} replayed={} bytes={}/{bound} zero_tail={} torn_tail={} \
             stream={stream} — ok",
            report.records_replayed,
            report.bytes_replayed,
            report.zero_tail_bytes,
            report.torn_tail.is_some(),
        );
    }
    println!(
        "crash-smoke: {rounds} kill -9 rounds survived, final ctr {max_ctr}, \
         {interrupted} recoveries found a stream cut short, \
         {extent_tails} a zero tail or a tear in an extent"
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("worker") => match args.get(2) {
            Some(dir) => worker(dir),
            None => Err("usage: crash_smoke worker <dir>".into()),
        },
        Some(dir) => {
            let rounds = args.get(2).and_then(|r| r.parse().ok()).unwrap_or(25);
            orchestrate(dir, rounds)
        }
        None => Err("usage: crash_smoke <dir> [rounds] | crash_smoke worker <dir>".into()),
    };
    if let Err(msg) = result {
        eprintln!("crash-smoke FAILED: {msg}");
        std::process::exit(1);
    }
}

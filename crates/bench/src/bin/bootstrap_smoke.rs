//! Bootstrap smoke test: SIGKILL a live durable server mid-run, restore it
//! from a peer via verified chunk sync, and prove it serves verified
//! clients again.
//!
//! Orchestrator mode (`bootstrap_smoke <dir> [rounds]`) spawns itself in
//! worker mode: the worker is the server's durable process, appending a
//! deterministic op stream to the real filesystem. The orchestrator
//! SIGKILLs it at a different point every round, verifies the kill was
//! survivable (recovered state matches an in-memory oracle replay), then
//! declares the worker's disk lost and restores the server the way a
//! production operator would:
//!
//! 1. A peer holding the full state serves chunked verified state sync
//!    over the wire ([`BootstrapClient`] pinned to the root of the peer's
//!    sample, taken behind a verified writer's last acknowledged op).
//! 2. The verified tree is re-anchored to fresh durable storage via
//!    [`DurableServer::open_from_chunks`], which checkpoints immediately
//!    so the kill-anywhere discipline resumes; a plain reopen must recover
//!    it locally.
//! 3. The reopened server serves again; its sample must hold the pinned
//!    root and counter.
//! 4. A late-joining verified client binds at that sample, reads what the
//!    peer's history wrote, writes, and the Protocol II sync-up must pass.
//!
//! A final corruption round forges one chunk of the peer's stream and
//! asserts the restore fails at exactly that chunk index. Any divergence,
//! alarm, or recovery failure exits nonzero.

use std::process::{Command, Stdio};
use std::time::Duration;

use tcvs_core::{HonestServer, ProtocolConfig, ServerCore, NO_USER};
use tcvs_merkle::{u64_key, ChunkAssembler, ChunkSource, MerkleTree, Op, OpResult};
use tcvs_net::{BootstrapClient, NetClient2, NetServer, NetServerOptions};
use tcvs_storage::{
    DurabilityOptions, DurableOptions, DurableServer, DurableStorage, FileMedium, StorageObs,
};

/// Ops of the stream the peer absorbs before serving the restore.
const PEER_OPS: u64 = 90;
const KEY_SPACE: u64 = 64;
/// Small chunk budget so every restore is a genuinely multi-chunk sync.
const CHUNK_BUDGET: usize = 256;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 16,
        epoch_len: 10,
    }
}

/// The deterministic op stream the whole smoke test is a function of: the
/// worker replays it, the peer absorbs its prefix, and the oracle
/// reconstructs either from indices alone.
fn scripted(j: u64) -> Op {
    Op::Put(u64_key(j % KEY_SPACE), vec![(j % 97) as u8; 6])
}

fn open_durable(dir: &str) -> Result<DurableServer<DurableStorage<FileMedium>>, String> {
    let medium = FileMedium::open(dir).map_err(|e| format!("open medium: {e}"))?;
    let store = DurableStorage::open(
        medium,
        DurableOptions {
            segment_bytes: 8 * 1024,
            retain_checkpoints: 2,
        },
    );
    DurableServer::open(
        store,
        config(),
        DurabilityOptions {
            checkpoint_every: 16,
            ..DurabilityOptions::default()
        },
        StorageObs::disabled(),
    )
    .map_err(|e| format!("open server: {e}"))
}

/// Worker mode: the server's durable process. Replays the stream from the
/// first op its recovered state lacks, and keeps going until the
/// orchestrator kills it.
fn worker(dir: &str) -> Result<(), String> {
    let mut server = open_durable(dir)?;
    let mut j = server.core().ctr();
    loop {
        server
            .apply(0, j, &scripted(j), j)
            .map_err(|e| format!("apply op {j}: {e}"))?;
        j += 1;
    }
}

/// Replays the first `n_ops` ops of the stream on a pristine in-memory
/// core — the oracle the killed worker's recovered state must match.
fn oracle(n_ops: u64) -> ServerCore {
    let mut oracle = ServerCore::new(&config());
    for j in 0..n_ops {
        oracle.process(0, &scripted(j), j);
    }
    oracle
}

fn round(exe: &std::path::Path, dir: &str, round: u64) -> Result<(), String> {
    let cfg = config();
    let worker_dir = format!("{dir}/round{round}/worker");
    let restored_dir = format!("{dir}/round{round}/restored");
    std::fs::create_dir_all(&worker_dir).map_err(|e| format!("mkdir: {e}"))?;
    std::fs::create_dir_all(&restored_dir).map_err(|e| format!("mkdir: {e}"))?;

    // The live server, as a real OS process, killed at a different point
    // every round — before the first op, mid-append, mid-checkpoint, …
    let mut child = Command::new(exe)
        .arg("worker")
        .arg(&worker_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    std::thread::sleep(Duration::from_millis(15 + (round * 7) % 60));
    child.kill().map_err(|e| format!("kill worker: {e}"))?; // SIGKILL
    child.wait().map_err(|e| format!("wait worker: {e}"))?;

    // The kill must be survivable on the worker's own disk (the durable
    // discipline), even though this round abandons that disk afterwards.
    let dead = open_durable(&worker_dir)?;
    if let Some(stop) = &dead.last_recovery().corrupt_stop {
        return Err(format!(
            "round {round}: worker recovery hit corruption: {stop}"
        ));
    }
    let dead_ctr = dead.core().ctr();
    if dead.core().root_digest() != oracle(dead_ctr).root_digest() {
        return Err(format!(
            "round {round}: recovered worker root diverges from oracle at ctr {dead_ctr}"
        ));
    }
    drop(dead);

    // The peer that will serve the restore. The stream prefix flows
    // through a verified client, so the peer's state is itself
    // root-checked.
    let peer = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            bootstrap_chunk_bytes: CHUNK_BUDGET,
            ..NetServerOptions::default()
        },
    );
    let r0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut writer = NetClient2::new(0, &r0, cfg, &peer);
    for j in 0..PEER_OPS {
        writer
            .execute(&scripted(j))
            .map_err(|e| format!("round {round}: peer write {j} alarmed: {e}"))?;
    }
    let (root, ctr, _) = peer
        .sample()
        .ok_or_else(|| format!("round {round}: the peer exposes no state"))?;

    // Verified chunk sync from the peer, pinned to the sampled root.
    let report = BootstrapClient::new(NO_USER, &peer)
        .bootstrap(Some(&root))
        .map_err(|e| format!("round {round}: chunk sync from peer failed: {e}"))?;
    peer.shutdown();
    if report.chunks_fetched <= 1 {
        return Err(format!(
            "round {round}: transfer was not chunked ({} chunks)",
            report.chunks_fetched
        ));
    }

    // Re-anchor the verified tree to fresh durable storage; the restored
    // server checkpoints immediately, so a plain open recovers it locally
    // without touching the network.
    let source = ChunkSource::new(&report.tree, CHUNK_BUDGET)
        .map_err(|e| format!("round {round}: chunk source: {e}"))?;
    let medium = FileMedium::open(&restored_dir).map_err(|e| format!("open medium: {e}"))?;
    let restored = DurableServer::open_from_chunks(
        DurableStorage::open(medium, DurableOptions::default()),
        cfg,
        DurabilityOptions::default(),
        StorageObs::disabled(),
        &report.root,
        report.ctr,
        &source.manifest().to_bytes(),
        |i| source.chunk(i),
    )
    .map_err(|e| format!("round {round}: durable restore: {e}"))?;
    if restored.core().root_digest() != root {
        return Err(format!("round {round}: restored durable root diverges"));
    }
    drop(restored);
    let reopened = open_durable(&restored_dir)?;
    if reopened.core().root_digest() != root {
        return Err(format!(
            "round {round}: restored server did not checkpoint locally"
        ));
    }

    // The restored server serves again, at the pinned state.
    let server = NetServer::spawn(Box::new(reopened), false);
    let (s_root, s_ctr, s_last) = server
        .sample()
        .ok_or_else(|| format!("round {round}: the restored server exposes no state"))?;
    if (s_root, s_ctr) != (root, ctr) {
        return Err(format!(
            "round {round}: restored server samples ctr {s_ctr}, pinned ctr {ctr}"
        ));
    }

    // A late joiner anchored at that sample reads what the peer's history
    // wrote and passes the Protocol II sync-up.
    let mut carol = NetClient2::join(2, &s_root, s_ctr, s_last, cfg, &server);
    for k in 0..KEY_SPACE {
        let last = (0..PEER_OPS).rev().find(|j| j % KEY_SPACE == k);
        let got = carol
            .execute(&Op::Get(u64_key(k)))
            .map_err(|e| format!("round {round}: verified read of key {k} alarmed: {e}"))?;
        let want = OpResult::Value(last.map(|j| vec![(j % 97) as u8; 6]));
        if got != want {
            return Err(format!(
                "round {round}: key {k} read {got:?}, expected {want:?}"
            ));
        }
    }
    for j in PEER_OPS..PEER_OPS + 12 {
        carol
            .execute(&scripted(j))
            .map_err(|e| format!("round {round}: post-restore write {j} alarmed: {e}"))?;
    }
    if !carol.sync_succeeds(&[carol.sync_share()]) {
        return Err(format!(
            "round {round}: Protocol II sync-up failed on the restored server"
        ));
    }
    server.shutdown();
    println!(
        "round {round}: worker killed at ctr {dead_ctr}, restored via {} chunks, \
         sample held, sync-up passed — ok",
        report.chunks_fetched
    );
    Ok(())
}

/// The corruption round: every chunk of a peer snapshot is forged in turn
/// (one byte flipped in the node region) and the stream replayed; the
/// restore must fail at exactly the offending index every time.
fn corruption_round() -> Result<(), String> {
    let cfg = config();
    let mut tree = MerkleTree::with_order(cfg.order);
    for j in 0..PEER_OPS {
        if let Op::Put(k, v) = scripted(j) {
            tree.insert(k, v).map_err(|e| format!("insert: {e}"))?;
        }
    }
    let source = ChunkSource::new(&tree, CHUNK_BUDGET).map_err(|e| format!("source: {e}"))?;
    let n = source.num_chunks();
    if n < 3 {
        return Err(format!(
            "corruption round needs a multi-chunk stream, got {n}"
        ));
    }
    for bad in 0..n {
        let mut assembler =
            ChunkAssembler::new(source.manifest().clone()).map_err(|e| format!("manifest: {e}"))?;
        let mut caught = None;
        for i in 0..n {
            let mut bytes = source.chunk(i).ok_or("chunk in range")?;
            if i == bad {
                let at = bytes.len() - 1 - bytes.len() / 4;
                bytes[at] ^= 0x01;
            }
            if assembler.admit(i, &bytes).is_err() {
                caught = Some(i);
                break;
            }
        }
        if caught != Some(bad) {
            return Err(format!(
                "forged chunk {bad} of {n}: rejected at {caught:?}, expected Some({bad})"
            ));
        }
    }
    println!("corruption round: {n} forged chunks, each rejected at its exact index — ok");
    Ok(())
}

fn orchestrate(dir: &str, rounds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for r in 0..rounds {
        round(&exe, dir, r)?;
    }
    corruption_round()?;
    println!("bootstrap-smoke: {rounds} kill-and-restore rounds survived");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("worker") => match args.get(2) {
            Some(dir) => worker(dir),
            None => Err("usage: bootstrap_smoke worker <dir>".into()),
        },
        Some(dir) => {
            let rounds = args.get(2).and_then(|r| r.parse().ok()).unwrap_or(8);
            orchestrate(dir, rounds)
        }
        None => Err("usage: bootstrap_smoke <dir> [rounds] | bootstrap_smoke worker <dir>".into()),
    };
    if let Err(msg) = result {
        eprintln!("bootstrap-smoke FAILED: {msg}");
        std::process::exit(1);
    }
}

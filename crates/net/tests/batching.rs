//! End-to-end tests of the batched verified paths: Protocol II windows
//! over one exchange, transparent fallback when a server declines,
//! detection through the batched path, and seeded fault storms over
//! batched windows.

use std::time::Duration;

use tcvs_core::adversary::{HideKeyServer, LieServer, Trigger};
use tcvs_core::{
    Deviation, FaultPlan, FaultRates, HonestServer, Op, OpResult, ProtocolConfig, SyncShare,
};
use tcvs_merkle::{u64_key, MerkleTree, VerifyError};
use tcvs_net::{
    FaultLink, NetClient2, NetError, NetServer, NetServerOptions, NetStats, RetryPolicy,
};
use tcvs_storage::{
    DurabilityOptions, DurableOptions, DurableServer, DurableStorage, MemMedium, StorageObs,
};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn root0(config: &ProtocolConfig) -> tcvs_core::Digest {
    MerkleTree::with_order(config.order).root_digest()
}

fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(40),
        max_jitter: Duration::from_millis(5),
    }
}

/// A batched client and a per-op client interleave on one honest server;
/// every answer matches the obvious sequential semantics and the post-hoc
/// sync-up (σ-token comparison) succeeds — the telescoped batch fold is
/// byte-compatible with the per-op fold.
#[test]
fn batched_windows_interleave_with_per_op_clients() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    let r0 = root0(&cfg);
    let mut batched = NetClient2::new(0, &r0, cfg, &server);
    let mut per_op = NetClient2::new(1, &r0, cfg, &server);

    for round in 0..6u64 {
        let window: Vec<Op> = (0..4u64)
            .map(|j| {
                let k = round * 4 + j;
                if j % 2 == 0 {
                    Op::Put(u64_key(k), vec![k as u8])
                } else {
                    Op::Get(u64_key(k - 1))
                }
            })
            .collect();
        let results = batched.execute_batch(&window).expect("honest batch");
        assert_eq!(results.len(), 4);
        // The Get inside the window sees the Put that precedes it.
        assert_eq!(
            results[1],
            OpResult::Value(Some(vec![(round * 4) as u8])),
            "window-internal read-your-writes"
        );
        // The per-op client reads what the batched client just wrote.
        let seen = per_op.execute(&Op::Get(u64_key(round * 4))).expect("get");
        assert_eq!(seen, OpResult::Value(Some(vec![(round * 4) as u8])));
    }

    // Join the server thread first: op counters are bumped after the reply
    // goes out, so a live-thread snapshot could under-count the last op.
    server.shutdown();
    let snap = stats.snapshot();
    assert_eq!(snap.counter("net.batch.windows"), Some(6));
    assert_eq!(snap.counter("net.batch.ops"), Some(24));
    assert_eq!(snap.counter("net.batch.declined"), Some(0));

    // The aggregate sync-up predicate: the σ chain — telescoped batch folds
    // and per-op folds interleaved — must cancel for the last operator.
    let clients = [&batched, &per_op];
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(
        clients.iter().any(|c| c.sync_succeeds(&shares)),
        "σ tokens agree across paths"
    );
}

/// A durable server does not implement batching: the window is declined
/// without side effects and the client transparently replays it per-op,
/// with identical results.
#[test]
fn declined_windows_fall_back_to_per_op() {
    let cfg = config();
    let store = DurableStorage::open(MemMedium::new(), DurableOptions::default());
    let inner = DurableServer::open(
        store,
        cfg,
        DurabilityOptions::default(),
        StorageObs::disabled(),
    )
    .expect("open durable server");
    let stats = NetStats::disabled();
    let server =
        NetServer::spawn_observed(Box::new(inner), NetServerOptions::default(), stats.clone());
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);

    let window: Vec<Op> = (0..5u64)
        .map(|k| Op::Put(u64_key(k), vec![k as u8]))
        .collect();
    let results = c.execute_batch(&window).expect("fallback succeeds");
    assert_eq!(results.len(), 5);
    let read = c.execute(&Op::Get(u64_key(3))).expect("get");
    assert_eq!(read, OpResult::Value(Some(vec![3u8])));

    server.shutdown();
    let snap = stats.snapshot();
    assert_eq!(snap.counter("net.batch.declined"), Some(1));
    assert_eq!(snap.counter("net.batch.windows"), Some(0));
    // The five ops (plus the read) went down the ordinary serialized path.
    assert_eq!(snap.counter("net.server.ops_served"), Some(6));
}

/// A window containing a non-batchable operation never goes out as a batch:
/// the client executes it per-op locally (no server decline involved).
#[test]
fn non_batchable_windows_are_executed_per_op() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), b"x".to_vec())).unwrap();
    let window = vec![Op::Get(u64_key(1)), Op::Delete(u64_key(1))];
    let results = c.execute_batch(&window).expect("per-op fallback");
    assert_eq!(results.len(), 2);
    server.shutdown();
    let snap = stats.snapshot();
    assert_eq!(snap.counter("net.batch.windows"), Some(0));
    assert_eq!(snap.counter("net.batch.declined"), Some(0));
}

/// A lying server is still caught when the client batches: the adversary
/// declines the window (it has no batched path), the fallback exercises the
/// ordinary per-op detection, and the lie surfaces as a deviation.
#[test]
fn batching_does_not_mask_a_lying_server() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))), false);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    let window: Vec<Op> = (0..8u64)
        .map(|k| Op::Put(u64_key(k), vec![k as u8]))
        .collect();
    let err = c.execute_batch(&window).expect_err("lie must be detected");
    assert!(
        matches!(err, NetError::Deviation(_)),
        "expected a deviation, got {err:?}"
    );
    server.shutdown();
}

/// A server that hides a present key inside a batched window is caught on
/// that window: the shared proof cannot prove the absence it claims.
#[test]
fn a_hidden_key_is_caught_inside_a_batched_window() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HideKeyServer::new(&cfg, Trigger::AtCtr(8))),
        NetServerOptions::default(),
        stats.clone(),
    );
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    let puts: Vec<Op> = (0..8u64)
        .map(|k| Op::Put(u64_key(k), vec![k as u8]))
        .collect();
    c.execute_batch(&puts).expect("honest before the trigger");
    let gets: Vec<Op> = (0..8u64).map(|k| Op::Get(u64_key(k))).collect();
    let err = c
        .execute_batch(&gets)
        .expect_err("the hidden key must be detected");
    assert!(
        matches!(
            err,
            NetError::Deviation(Deviation::BadProof(VerifyError::IncompleteProof))
        ),
        "expected an incomplete proof, got {err:?}"
    );
    server.shutdown();
    assert_eq!(stats.snapshot().counter("net.batch.windows"), Some(2));
}

/// Seeded benign fault storms over **batched** Protocol II windows: dropped
/// requests and replies, duplicates, and reorders of whole windows are
/// absorbed by retries and the journal, with zero false alarms and a
/// passing sync-up.
#[test]
fn seeded_fault_storms_over_batched_protocol2_zero_false_alarms() {
    for seed in [0xfeed_u64, 0xdead] {
        let cfg = config();
        let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
        let plan = FaultPlan::seeded(seed, 30, &FaultRates::heavy());
        let link = FaultLink::interpose(&server, plan);
        let r0 = root0(&cfg);
        let mut c = NetClient2::new(0, &r0, cfg, &link);
        c.set_retry_policy(quick_retries());
        for w in 0..15u64 {
            let window: Vec<Op> = (0..4u64)
                .map(|j| {
                    let k = w * 4 + j;
                    if j == 3 {
                        Op::Get(u64_key(k - 1))
                    } else {
                        Op::Put(u64_key(k), vec![k as u8])
                    }
                })
                .collect();
            c.execute_batch(&window).unwrap_or_else(|e| {
                panic!("benign fault alarmed at window {w} (seed {seed:#x}): {e}")
            });
        }
        assert!(link.applied().total() > 0, "the storm actually hit");
        let shares = vec![c.sync_share()];
        assert!(c.sync_succeeds(&shares), "σ chain survives the storm");
        server.shutdown();
    }
}

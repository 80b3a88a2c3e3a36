//! End-to-end tests of chunked verified state sync: a cold client
//! bootstrapping verified state from nothing, a pin that catches a server
//! whose snapshot differs from what it serves on the serialized path,
//! bootstrap traffic riding a seeded fault storm with zero false alarms,
//! and a killed shard rejoining the grove from a peer's chunks with the
//! Protocol II sync-up passing afterwards.

mod common;

use std::time::Duration;

use common::ShadowReadServer;
use tcvs_core::state::state_token;
use tcvs_core::{
    FaultPlan, FaultRates, HonestServer, Op, OpResult, ProtocolConfig, ServerApi, ServerCore,
    SyncShare, NO_USER,
};
use tcvs_merkle::{apply_op, u64_key, ChunkError, CodecError, MerkleTree};
use tcvs_net::{
    BootstrapClient, BootstrapError, FaultLink, NetClient2, NetClientTrusted, NetServer,
    NetServerOptions, RetryPolicy, ShardedClient2, ShardedServer,
};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 16,
        epoch_len: 10,
    }
}

fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(40),
        max_jitter: Duration::from_millis(5),
    }
}

/// A cold client reaches verified state through the chunk protocol alone:
/// no history replay, no trusted snapshot — bootstrap, then answer reads
/// from the verified tree, which must agree with what was written.
#[test]
fn cold_reader_bootstraps_and_serves_verified_reads() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            // A small budget forces a genuinely chunked transfer.
            bootstrap_chunk_bytes: 256,
            ..NetServerOptions::default()
        },
    );
    let mut writer = NetClientTrusted::new(0, &server);
    for i in 0..150u64 {
        writer
            .execute(&Op::Put(u64_key(i % 64), vec![(i % 97) as u8; 5]))
            .expect("honest server");
    }

    let report = BootstrapClient::new(9, &server)
        .bootstrap(None)
        .expect("cold bootstrap");
    assert_eq!(report.tree.len(), Some(64), "every written key arrived");
    assert_eq!(report.root, report.tree.root_digest());
    assert!(report.chunks_fetched > 1, "the transfer was chunked");
    for i in 0..64u64 {
        let expect = (0..150u64)
            .rev()
            .find(|j| j % 64 == i)
            .map(|j| vec![(j % 97) as u8; 5]);
        assert_eq!(
            report.tree.get(&u64_key(i)).expect("a full tree").cloned(),
            expect,
            "bootstrapped state agrees with the written history at key {i}"
        );
    }

    // Pinning the root just learned must succeed on the quiescent server;
    // pinning a wrong root must fail before any state is admitted.
    let pinned = BootstrapClient::new(10, &server)
        .bootstrap(Some(&report.root))
        .expect("pinned");
    assert_eq!(pinned.root, report.root);
    let wrong = MerkleTree::with_order(cfg.order).root_digest();
    assert!(
        matches!(
            BootstrapClient::new(11, &server).bootstrap(Some(&wrong)),
            Err(BootstrapError::AnchorMismatch { .. })
        ),
        "a wrong pin is a loud mismatch, not silent acceptance"
    );
    server.shutdown();
}

/// A server honest on the serialized path but serving a forged snapshot
/// cannot hand a pinned bootstrap its forgery: pinned to the root the
/// verified writer last saw, the bootstrap fails before admitting a
/// chunk. Unpinned, it assembles the forgery, and only the caller's check
/// of `report.root` against that same root catches it.
#[test]
fn a_pinned_bootstrap_refuses_a_forged_snapshot() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(ShadowReadServer::new(&cfg)), false);
    let r0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut writer = NetClient2::new(0, &r0, cfg, &server);
    let mut oracle = MerkleTree::with_order(cfg.order);
    for i in 0..40u64 {
        let op = Op::Put(u64_key(i % 16), vec![i as u8; 3]);
        writer.execute(&op).expect("the serialized path is honest");
        apply_op(&mut oracle, &op).expect("a full tree");
    }
    let seen = oracle.root_digest();
    assert_eq!(
        writer.sync_share().last,
        Some(state_token(&seen, 40, 0)),
        "the writer's last verified state has this root"
    );

    match BootstrapClient::new(9, &server).bootstrap(Some(&seen)) {
        Err(BootstrapError::AnchorMismatch { expected, got }) => {
            assert_eq!(expected, seen);
            assert_ne!(got, seen);
        }
        other => panic!("a forged snapshot passed a pinned bootstrap: {other:?}"),
    }
    let unpinned = BootstrapClient::new(10, &server)
        .bootstrap(None)
        .expect("the forgery is internally consistent");
    assert_ne!(unpinned.root, seen, "the caller's root check catches it");
    assert_eq!(
        unpinned
            .tree
            .get(&u64_key(0))
            .expect("a full tree")
            .cloned(),
        Some(b"forged".to_vec())
    );
    server.shutdown();
}

/// Bootstrap traffic rides the same wire as a seeded benign fault storm:
/// the storm hits the op path (drops, delays, duplicates, reorders), the
/// verifying writer raises zero false alarms, and every bootstrap through
/// the stormy link still completes with the correct root.
#[test]
fn bootstrap_under_fault_storm_zero_false_alarms() {
    for seed in [0xb007_u64, 0x57a9] {
        let cfg = config();
        let server = NetServer::spawn_with(
            Box::new(HonestServer::new(&cfg)),
            NetServerOptions {
                bootstrap_chunk_bytes: 256,
                ..NetServerOptions::default()
            },
        );
        let plan = FaultPlan::seeded(seed, 40, &FaultRates::heavy());
        let link = FaultLink::interpose(&server, plan);
        let r0 = tcvs_merkle::MerkleTree::with_order(cfg.order).root_digest();
        let mut c = NetClient2::new(0, &r0, cfg, &link);
        c.set_retry_policy(quick_retries());
        for i in 0..20u64 {
            c.execute(&Op::Put(u64_key(i), vec![i as u8; 4]))
                .unwrap_or_else(|e| {
                    panic!("benign fault raised an alarm at op {i} (seed {seed:#x}): {e}")
                });

            // Interleave bootstraps with the stormy writes: each one sees
            // some consistent published snapshot and must verify cleanly.
            if i % 5 == 4 {
                let mut boot = BootstrapClient::new(NO_USER, &link);
                boot.set_retry_policy(quick_retries());
                let report = boot.bootstrap(None).expect("bootstrap under storm");
                assert_eq!(report.root, report.tree.root_digest());
                assert!(report.tree.len().is_some(), "full tree assembled");
            }
        }
        assert!(link.applied().total() > 0, "the storm actually hit");

        // After the storm: the final bootstrap agrees with a storm-free
        // bootstrap straight off the server, and the σ chain still passes.
        let mut stormy = BootstrapClient::new(NO_USER, &link);
        stormy.set_retry_policy(quick_retries());
        let via_link = stormy.bootstrap(None).expect("final bootstrap via link");
        let mut direct = BootstrapClient::new(NO_USER, &server);
        let clean = direct.bootstrap(None).expect("direct bootstrap");
        assert_eq!(via_link.root, clean.root);
        assert_eq!(via_link.tree.to_bytes(), clean.tree.to_bytes());
        let shares: Vec<SyncShare> = vec![c.sync_share()];
        assert!(c.sync_succeeds(&shares), "zero false alarms end to end");
        server.shutdown();
    }
}

/// The shard recovery path: a shard is lost (its process replaced
/// wholesale), rebuilt from a replica's chunks pinned to the last grove
/// epoch's shard root, and rejoins the grove — the next epoch folds the
/// same grove root, fresh clients verify reads against it, and the
/// Protocol II grove sync-up passes.
#[test]
fn killed_shard_rejoins_the_grove_via_verified_chunk_sync() {
    let cfg = config();
    let n = 3;
    let mut grove = ShardedServer::spawn(
        n,
        &cfg,
        NetServerOptions {
            bootstrap_chunk_bytes: 256,
            ..NetServerOptions::default()
        },
    );
    let r0 = vec![tcvs_merkle::MerkleTree::with_order(cfg.order).root_digest(); n];
    let mut writer = ShardedClient2::new(0, &r0, cfg, &grove);
    for i in 0..48u64 {
        writer
            .execute(&Op::Put(u64_key(i), vec![i as u8; 4]))
            .expect("honest grove");
    }
    let epoch1 = grove.grove_epoch().expect("honest shards publish");

    // Stand up a replica of shard 1 by bootstrapping from it — the replica
    // is itself a product of verified chunk sync, pinned to the epoch root.
    let shard_root = epoch1.shard_roots[1];
    let mut boot = BootstrapClient::new(NO_USER, grove.shard(1));
    let replica_state = boot
        .bootstrap(Some(&shard_root))
        .expect("replica bootstrap");
    let core = ServerCore::from_verified_state(replica_state.tree, replica_state.ctr, &cfg)
        .expect("verified state makes a core");
    let replica = NetServer::spawn(Box::new(HonestServer::from_core(core)), false);

    // A lying pin is refused up front and leaves the grove untouched.
    let wrong = tcvs_merkle::MerkleTree::with_order(cfg.order).root_digest();
    assert!(matches!(
        grove.bootstrap_restart(1, &replica, &wrong, &cfg),
        Err(BootstrapError::AnchorMismatch { .. })
    ));

    // The real rejoin: kill-and-replace shard 1 from the replica's chunks.
    let report = grove
        .bootstrap_restart(1, &replica, &shard_root, &cfg)
        .expect("shard rejoin");
    assert_eq!(report.root, shard_root);

    let epoch2 = grove.grove_epoch().expect("rejoined grove publishes");
    assert_eq!(epoch2.shard_roots[1], epoch1.shard_roots[1]);
    assert_eq!(
        epoch2.grove_root, epoch1.grove_root,
        "the rejoined shard folds the same grove root"
    );

    // A late-joining verified client re-enters at the post-rejoin epoch —
    // the grove-epoch rejoin rule: its σ folds are anchored at the epoch's
    // join tokens, so it works across every shard (including the restored
    // one, whose chain restarted at the bootstrapped state) and passes the
    // Protocol II grove sync-up over its own era.
    let mut carol = ShardedClient2::join(2, &epoch2, cfg, &grove);
    for i in 0..24u64 {
        let got = carol.execute(&Op::Get(u64_key(i))).expect("verified read");
        assert_eq!(got, OpResult::Value(Some(vec![i as u8; 4])));
    }
    for i in 48..60u64 {
        carol
            .execute(&Op::Put(u64_key(i), vec![7]))
            .expect("verified write on the rejoined grove");
    }
    let shares = carol.sync_shares();
    let per_shard: Vec<Vec<SyncShare>> = shares.into_iter().map(|s| vec![s]).collect();
    assert!(
        carol.sync_succeeds(&per_shard),
        "Protocol II sync-up passes on the rejoined grove"
    );
    grove.shutdown();
}

/// A peer whose tree has another branching order than the grove's verifies
/// chunk by chunk, yet cannot become a shard: every proof the restored
/// core served would fail its clients' replay. `bootstrap_restart` refuses
/// it, and the shard it was to replace keeps serving.
#[test]
fn bootstrap_restart_refuses_a_tree_of_another_order() {
    let cfg = config();
    let mut inner = HonestServer::new(&ProtocolConfig { order: 8, ..cfg });
    for i in 0..20u64 {
        inner.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
    }
    let peer = NetServer::spawn(Box::new(inner), false);
    let root = BootstrapClient::new(NO_USER, &peer)
        .bootstrap(None)
        .expect("the peer serves its tree")
        .root;
    let mut grove = ShardedServer::spawn(2, &cfg, NetServerOptions::default());
    let before = grove.grove_epoch().expect("honest grove");
    assert!(matches!(
        grove.bootstrap_restart(1, &peer, &root, &cfg),
        Err(BootstrapError::Assembly(ChunkError::Codec(
            CodecError::Malformed(_)
        )))
    ));
    let after = grove.grove_epoch().expect("shard 1 still serves");
    assert_eq!(after.grove_root, before.grove_root);
    grove.shutdown();
    peer.shutdown();
}

//! End-to-end tests of the sharded grove: restart-stable routing across
//! shard crash-restarts, single-shard deviation caught at its exact
//! counter with zero false alarms on the honest shards, independently
//! seeded per-shard fault storms, the cross-shard sync-up rule, and
//! concurrent first binds of the shards' read paths.

use std::sync::Barrier;
use std::time::Duration;

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::state::initial_token;
use tcvs_core::sync::{protocol2_deviating_shards, protocol2_grove_sync_ok};
use tcvs_core::{
    Deviation, FaultRates, HonestServer, Op, OpResult, ProtocolConfig, ServerApi, SyncShare,
};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{
    GroveReader, NetError, NetServerOptions, NetStats, RetryPolicy, ShardedClient2,
    ShardedClientTrusted, ShardedServer,
};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn root0s(n: usize, config: &ProtocolConfig) -> Vec<tcvs_core::Digest> {
    vec![MerkleTree::with_order(config.order).root_digest(); n]
}

fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(40),
        max_jitter: Duration::from_millis(5),
    }
}

/// Routing is stable across shard crash-restarts: keys written before a
/// whole-grove power event are found by freshly bound clients afterwards,
/// verified against the restored per-shard roots — nothing about a restart
/// (spawn order, timing, recovered state) may enter the route.
#[test]
fn routing_survives_grove_crash_restarts() {
    let cfg = config();
    let n = 4;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    let mut writer = ShardedClient2::new(0, &root0s(n, &cfg), cfg, &grove);
    for i in 0..48u64 {
        writer
            .execute(&Op::Put(u64_key(i), vec![i as u8; 4]))
            .expect("honest grove");
    }
    // Crash one shard, then the whole grove, interleaved with reads.
    grove.crash_restart(1).expect("single-shard restart");
    for i in 0..48u64 {
        assert_eq!(
            writer.execute(&Op::Get(u64_key(i))).expect("routed read"),
            OpResult::Value(Some(vec![i as u8; 4])),
            "key {i} re-homed after a shard restart"
        );
    }
    grove.crash_restart_all().expect("grove-wide restart");
    // A *new* client binding (fresh router, fresh verified sessions over
    // the restored roots... via replayed verified reads) sees every key on
    // the same shard.
    let mut reader = GroveReader::bind(7, &cfg, &grove).expect("honest grove publishes");
    for i in 0..48u64 {
        assert_eq!(
            reader
                .execute(&Op::Get(u64_key(i)))
                .expect("grove-verified read"),
            OpResult::Value(Some(vec![i as u8; 4])),
            "key {i} re-homed after the grove restart"
        );
    }
    grove.shutdown();
}

/// A lie confined to one shard is flagged at exactly the triggering
/// counter of *that shard*, and the other N−1 honest shards complete the
/// full workload with zero false alarms — the grove preserves the
/// single-server k-bound per shard.
#[test]
fn single_shard_lie_is_detected_without_false_alarms_elsewhere() {
    const LIE_AT: u64 = 3;
    let cfg = config();
    let n = 4;
    let bad_shard = 2;
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..n)
        .map(|i| -> Box<dyn ServerApi + Send> {
            if i == bad_shard {
                Box::new(LieServer::new(&cfg, Trigger::AtCtr(LIE_AT)))
            } else {
                Box::new(HonestServer::new(&cfg))
            }
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(
        inners,
        NetServerOptions::default(),
        NetStats::disabled(),
    );
    let router = grove.router();
    let mut c = ShardedClient2::new(0, &root0s(n, &cfg), cfg, &grove);

    let mut per_shard_ops = vec![0u64; n];
    let mut verdict = None;
    for i in 0..400u64 {
        let op = Op::Put(u64_key(i), vec![i as u8]);
        let shard = router.route_op(&op).unwrap();
        match c.execute(&op) {
            Ok(_) => per_shard_ops[shard] += 1,
            Err(e) => {
                verdict = Some((shard, per_shard_ops[shard], e));
                break;
            }
        }
    }
    let (shard, ops_before, err) = verdict.expect("the lying shard escaped detection");
    assert_eq!(shard, bad_shard, "the alarm came from the deviating shard");
    assert!(
        matches!(err, NetError::Deviation(Deviation::BadProof(_))),
        "expected a bad-proof deviation, got {err:?}"
    );
    // LieServer lies on the first op at ctr >= LIE_AT; Protocol II's replay
    // check catches the lie on the very response that carries it.
    assert_eq!(
        ops_before, LIE_AT,
        "detection at the exact triggering counter of the bad shard"
    );
    for (i, &ops) in per_shard_ops.iter().enumerate() {
        if i != bad_shard {
            assert!(ops > 0, "honest shard {i} saw traffic and never alarmed");
        }
    }
    grove.shutdown();
}

/// The cross-shard sync-up rule: per-shard predicates, evaluated at one
/// grove epoch. Two users work disjoint honest groves and pass; replaying
/// one shard's share from a stale view (a fork on that shard) fails the
/// grove sync-up and is localized to exactly that shard.
#[test]
fn grove_sync_up_passes_honest_and_localizes_a_forked_shard() {
    let cfg = config();
    let n = 3;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    let r0 = root0s(n, &cfg);
    let mut alice = ShardedClient2::new(0, &r0, cfg, &grove);
    let mut bob = ShardedClient2::new(1, &r0, cfg, &grove);
    for i in 0..30u64 {
        alice
            .execute(&Op::Put(u64_key(2 * i), vec![1]))
            .expect("alice");
        bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
            .expect("bob");
    }
    let a = alice.sync_shares();
    let b = bob.sync_shares();
    // per_shard[i] = every user's share for shard i.
    let per_shard: Vec<Vec<SyncShare>> = (0..n).map(|i| vec![a[i].clone(), b[i].clone()]).collect();
    let initials: Vec<tcvs_core::Digest> = r0.iter().map(initial_token).collect();
    assert!(alice.sync_succeeds(&per_shard), "honest grove passes");
    assert!(bob.sync_succeeds(&per_shard));
    assert!(protocol2_grove_sync_ok(&initials, &per_shard));

    // Fork shard 1 from Bob's point of view: his share for that shard
    // reverts to a fresh session's (initial-state) share while Alice's
    // reflects the real chain — exactly what a server answering the two
    // users from diverged histories produces.
    let fresh = ShardedClient2::new(1, &r0, cfg, &grove);
    let mut forked = per_shard.clone();
    forked[1][1] = fresh.sync_shares()[1].clone();
    assert!(
        !protocol2_grove_sync_ok(&initials, &forked),
        "fork must fail"
    );
    assert_eq!(
        protocol2_deviating_shards(&initials, &forked),
        vec![1],
        "and be localized to the forked shard"
    );
    assert!(!alice.sync_succeeds(&forked));
    assert_eq!(alice.deviating_shards(&forked), vec![1]);
    grove.shutdown();
}

/// Per-shard fault links replay **independently seeded** streams derived
/// from one master seed: the storm hits every shard, no benign fault ever
/// raises an alarm, and the post-storm grove sync-up passes.
#[test]
fn independently_seeded_fault_storms_across_shards_zero_false_alarms() {
    let cfg = config();
    let n = 3;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    // No crash/storage faults through the link layer here: those rates are
    // exercised by the dedicated restart tests; this one targets the wire.
    let rates = FaultRates {
        drop_pct: 10,
        delay_pct: 10,
        dup_pct: 5,
        reorder_pct: 5,
        crash_pct: 0,
        storage_pct: 0,
        max_delay_rounds: 2,
    };
    let links = grove.interpose_faults(0xfeed_beef, 60, &rates);
    let r0 = root0s(n, &cfg);
    let mut c = ShardedClient2::bind(0, &r0, cfg, &links);
    c.set_retry_policy(quick_retries());
    for i in 0..60u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .unwrap_or_else(|e| panic!("benign fault raised an alarm at op {i}: {e}"));
    }
    let counts: Vec<u64> = links.iter().map(|l| l.applied().total()).collect();
    assert!(
        counts.iter().all(|&c| c > 0),
        "every shard's independently seeded storm actually hit: {counts:?}"
    );
    let per_shard: Vec<Vec<SyncShare>> = c.sync_shares().into_iter().map(|s| vec![s]).collect();
    let initials: Vec<tcvs_core::Digest> = r0.iter().map(initial_token).collect();
    assert!(
        protocol2_grove_sync_ok(&initials, &per_shard),
        "σ chains survive the storm on every shard"
    );
    assert!(c.sync_succeeds(&per_shard));
    grove.shutdown();
}

/// The grove epoch anchors cross-shard reads: a reader bound over an
/// actively written grove verifies every answer against a consistent
/// sample of all shard roots, while trusted and verified writers advance
/// the shards concurrently.
#[test]
fn grove_reader_stays_consistent_under_concurrent_writes() {
    let cfg = config();
    let n = 4;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    let mut seed_writer = ShardedClientTrusted::new(0, &grove);
    for i in 0..32u64 {
        seed_writer
            .execute(&Op::Put(u64_key(i), vec![0xab]))
            .expect("seed");
    }
    let mut reader = GroveReader::bind(9, &cfg, &grove).expect("read paths");
    reader.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        ..quick_retries()
    });
    let writer = {
        let mut w = ShardedClientTrusted::new(1, &grove);
        std::thread::spawn(move || {
            for i in 0..200u64 {
                w.execute(&Op::Put(u64_key(i % 32), vec![(i % 251) as u8]))
                    .expect("concurrent writer");
            }
        })
    };
    let mut verified = 0u64;
    for round in 0..20u64 {
        for i in 0..8u64 {
            match reader.execute(&Op::Get(u64_key((round * 8 + i) % 32))) {
                Ok(OpResult::Value(Some(_))) => verified += 1,
                Ok(other) => panic!("seeded key missing: {other:?}"),
                // A saturated write stream can outrun the bounded retry
                // loop's consistent-sample window; that is a liveness
                // outcome, never a verification one.
                Err(NetError::Timeout { .. }) => {}
                Err(e) => panic!("grove reader alarmed under honest load: {e}"),
            }
        }
    }
    writer.join().expect("writer thread");
    assert!(verified > 0, "the reader made verified progress under load");
    // Quiescent now: every read verifies.
    for i in 0..32u64 {
        reader
            .execute(&Op::Get(u64_key(i)))
            .expect("quiescent grove-verified read");
    }
    grove.shutdown();
}

/// Two threads opening a grove's read paths at once, one binding a reader
/// and one sampling an epoch, open each shard exactly once (one
/// publication per shard) and share its slot: a later write is seen by
/// both.
#[test]
fn concurrent_first_binds_open_each_shard_once() {
    let cfg = config();
    let n = 3;
    let stats = NetStats::disabled();
    let grove = ShardedServer::spawn_observed(n, &cfg, NetServerOptions::default(), stats.clone());
    let publishes = || {
        stats
            .snapshot()
            .counter("net.server.snapshot_publishes")
            .unwrap_or(0)
    };
    let r0 = root0s(n, &cfg);
    let mut writer = ShardedClient2::new(0, &r0, cfg, &grove);
    for i in 0..12u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    assert_eq!(publishes(), 0, "no reader bound, nothing published");

    let start = Barrier::new(2);
    let (mut reader, epoch) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            GroveReader::bind(5, &cfg, &grove).expect("honest grove")
        });
        let epoch = s.spawn(|| {
            start.wait();
            grove.grove_epoch().expect("honest grove")
        });
        (reader.join().unwrap(), epoch.join().unwrap())
    });
    assert_eq!(publishes(), n as u64, "each shard opened exactly once");
    assert_eq!(
        reader.execute(&Op::Get(u64_key(11))).unwrap(),
        OpResult::Value(Some(vec![11]))
    );
    let again = grove.grove_epoch().expect("honest grove");
    assert_eq!(again.grove_root, epoch.grove_root, "no write in between");

    writer.execute(&Op::Put(u64_key(11), vec![0xee])).unwrap();
    assert_eq!(publishes(), n as u64 + 1);
    assert_eq!(
        reader.execute(&Op::Get(u64_key(11))).unwrap(),
        OpResult::Value(Some(vec![0xee]))
    );
    let after = grove.grove_epoch().expect("honest grove");
    assert_ne!(
        after.grove_root, epoch.grove_root,
        "the epoch sees the write"
    );
    grove.shutdown();
}

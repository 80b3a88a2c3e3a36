//! End-to-end tests of the sharded grove: restart-stable routing across
//! shard crash-restarts, single-shard deviation caught at its exact
//! counter with zero false alarms on the honest shards, independently
//! seeded per-shard fault storms, the cross-shard sync-up rule, and grove
//! epochs: served in order, transitioning nothing, and caught at the next
//! sync-up when a shard forges one.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use common::ShadowReadServer;
use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::state::initial_token;
use tcvs_core::sync::{protocol2_deviating_shards, protocol2_grove_sync_ok};
use tcvs_core::{
    Deviation, FaultPlan, FaultRates, HonestServer, Op, OpResult, ProtocolConfig, ServerApi,
    SyncShare,
};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{
    FaultLink, NetClientTrusted, NetError, NetServerOptions, NetStats, RetryPolicy, ShardedClient2,
    ShardedServer,
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
    let before = grove.grove_epoch().expect("honest grove");
    grove.crash_restart_all().expect("grove-wide restart");
    // The restarted shards are sampled at the state they restored.
    let epoch = grove.grove_epoch().expect("honest grove");
    assert_eq!(epoch.shard_roots, before.shard_roots);
    assert_eq!(epoch.shard_ctrs, before.shard_ctrs);
    // A *new* client (fresh router, fresh verified sessions joined at the
    // restored epoch) sees every key on the same shard.
    let mut reader = ShardedClient2::join(7, &epoch, cfg, &grove);
    for i in 0..48u64 {
        assert_eq!(
            reader.execute(&Op::Get(u64_key(i))).expect("verified read"),
            OpResult::Value(Some(vec![i as u8; 4])),
            "key {i} re-homed after the grove restart"
        );
    }
    let shares = per_shard_shares(std::slice::from_ref(&reader), n);
    assert!(
        reader.sync_succeeds(&shares),
        "the restored epoch is honest"
    );
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

/// Every user's shares, regrouped per shard: `per_shard[i]` holds every
/// session's share for shard `i`.
fn per_shard_shares(sessions: &[ShardedClient2], n: usize) -> Vec<Vec<SyncShare>> {
    let shares: Vec<Vec<SyncShare>> = sessions.iter().map(ShardedClient2::sync_shares).collect();
    (0..n)
        .map(|i| shares.iter().map(|s| s[i].clone()).collect())
        .collect()
}

/// A grove epoch requested while a blocking Protocol I shard waits for a
/// deposit is served once that wait ends, here by `deposit_timeout`: the
/// sample queues behind the wait like any other request, and reflects the
/// write the wait followed.
#[test]
fn a_grove_epoch_during_a_deposit_wait_returns_when_the_wait_ends() {
    let cfg = config();
    let grove = ShardedServer::spawn(
        2,
        &cfg,
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_millis(200),
            ..NetServerOptions::default()
        },
    );
    // A trusted client never deposits, so its write leaves its shard
    // waiting. It works through fault links like any client.
    let links: Vec<FaultLink> = grove
        .shards()
        .iter()
        .map(|s| FaultLink::interpose(s, FaultPlan::none()))
        .collect();
    let key = u64_key(1);
    let mut c = NetClientTrusted::new(0, &links[grove.router().route_key(&key)]);
    c.execute(&Op::Put(key, vec![1])).unwrap();
    let epoch = grove.grove_epoch().expect("served after the wait");
    let missed: u64 = grove.shards().iter().map(|s| s.missed_deposits()).sum();
    assert_eq!(missed, 1, "served after the wait timed out");
    assert_eq!(
        epoch.shard_ctrs.iter().sum::<u64>(),
        1,
        "the write is in it"
    );
    grove.shutdown();
}

/// A grove epoch is a serialized request that transitions nothing:
/// samples taken between and beside verifying writers' operations leave
/// every shard's counter and σ chain as the writers alone would, so their
/// grove sync-up passes.
#[test]
fn protocol2_grove_sync_up_succeeds_with_concurrent_epoch_samples() {
    let cfg = config();
    let n = 3;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    let r0 = root0s(n, &cfg);
    let stop = AtomicBool::new(false);
    let (sessions, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                grove.grove_epoch().expect("honest grove");
                samples += 1;
            }
            samples
        });
        let writers: Vec<_> = (0..3u32)
            .map(|u| {
                let (grove, r0) = (&grove, &r0);
                s.spawn(move || {
                    let mut c = ShardedClient2::new(u, r0, cfg, grove);
                    for i in 0..60u64 {
                        let key = u64_key(u as u64 * 100 + i / 2);
                        let op = if i % 2 == 0 {
                            Op::Put(key, vec![i as u8])
                        } else {
                            Op::Get(key)
                        };
                        c.execute(&op).expect("honest grove");
                        if i % 10 == 0 {
                            grove.grove_epoch().expect("honest grove");
                        }
                    }
                    c
                })
            })
            .collect();
        let sessions: Vec<ShardedClient2> =
            writers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (sessions, sampler.join().unwrap())
    });
    assert!(samples > 0, "the sampler ran");
    let per_shard = per_shard_shares(&sessions, n);
    assert!(sessions.iter().all(|c| c.sync_succeeds(&per_shard)));
    let epoch = grove.grove_epoch().expect("honest grove");
    assert_eq!(
        epoch.shard_ctrs.iter().sum::<u64>(),
        180,
        "only the writers' operations advanced a counter"
    );
    grove.shutdown();
}

/// Joining at an epoch a shard forged surfaces at the next sync-up. Shard
/// 1 is honest on its serialized wire but samples its epoch state from a
/// forged shadow tree (same counter and last user, another root). Every
/// pair of sessions joining at such an epoch works on every shard with no
/// per-op alarm, and their grove sync-up then fails on shard 1 and only
/// there. The same script over an all-honest grove passes.
#[test]
fn joining_at_a_forged_grove_epoch_fails_the_next_sync_up_on_that_shard() {
    let cfg = config();
    let n = 3;
    for (shadowed, deviating) in [(false, vec![]), (true, vec![1])] {
        let inners: Vec<Box<dyn ServerApi + Send>> = (0..n)
            .map(|i| -> Box<dyn ServerApi + Send> {
                if shadowed && i == 1 {
                    Box::new(ShadowReadServer::new(&cfg))
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
        let mut writer = ShardedClient2::new(0, &root0s(n, &cfg), cfg, &grove);
        for i in 0..24u64 {
            writer
                .execute(&Op::Put(u64_key(i), vec![i as u8]))
                .expect("the serialized path is honest");
        }
        for round in 0..3u8 {
            let epoch = grove.grove_epoch().expect("every shard is sampled");
            let mut sessions: Vec<ShardedClient2> = (1..3)
                .map(|u| ShardedClient2::join(u, &epoch, cfg, &grove))
                .collect();
            let mut touched = vec![0u32; n];
            for (u, session) in sessions.iter_mut().enumerate() {
                for i in 0..24u64 {
                    let op = if i % 2 == 0 {
                        Op::Get(u64_key(i))
                    } else {
                        Op::Put(u64_key(i), vec![round, u as u8])
                    };
                    touched[router.route_op(&op).unwrap()] += 1;
                    session.execute(&op).expect("no per-op alarm");
                }
            }
            assert!(touched.iter().all(|&t| t > 0), "ops on every shard");
            let per_shard = per_shard_shares(&sessions, n);
            assert_eq!(
                sessions[0].sync_succeeds(&per_shard),
                !shadowed,
                "round {round}"
            );
            assert_eq!(sessions[0].deviating_shards(&per_shard), deviating);
        }
        grove.shutdown();
    }
}

//! End-to-end tests of pipelined Protocol I deposits: honest concurrent
//! runs with zero false alarms, intact adversary detection, crash-restart
//! mid-pipeline, and seeded fault storms over the pipelined and batched
//! paths (drops, reorders, duplicates, crash-restarts).

use std::time::Duration;

use tcvs_core::adversary::{TamperServer, Trigger};
use tcvs_core::{FaultPlan, FaultRates, HonestServer, Op, ProtocolConfig, SyncShare};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{
    FaultLink, NetClient1, NetClient2, NetError, NetServer, NetServerOptions, NetStats, RetryPolicy,
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

fn pipelined_options(depth: usize) -> NetServerOptions {
    NetServerOptions {
        blocking_signatures: false,
        pipeline_depth: depth,
        // Faulted deposits must not stall catch-up for the full default 2s.
        deposit_timeout: Duration::from_millis(400),
        ..NetServerOptions::default()
    }
}

/// Concurrent pipelined clients against an honest server: every operation
/// verifies against the client's own frontier, no deposit is ever missed,
/// the server actually serves ahead of the deposit stream, and the
/// Protocol I counter sync-up succeeds afterwards.
#[test]
fn pipelined_concurrent_honest_run_has_zero_false_alarms() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        pipelined_options(8),
        stats.clone(),
    );
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x33; 32], 3, 8);
    let mut clients: Vec<NetClient1> = rings
        .into_iter()
        .map(|r| {
            let mut c = NetClient1::new(r, registry.clone(), cfg, &server);
            c.set_pipelined(true);
            c
        })
        .collect();
    clients[0].deposit_initial(&r0).unwrap();

    let mut handles = Vec::new();
    for (u, mut c) in clients.into_iter().enumerate() {
        handles.push(std::thread::spawn(move || {
            for i in 0..40u64 {
                let op = if i % 4 == 0 {
                    Op::Get(u64_key(u as u64 * 64 + i))
                } else {
                    Op::Put(u64_key(u as u64 * 64 + i), vec![i as u8])
                };
                c.execute(&op)
                    .unwrap_or_else(|e| panic!("honest pipelined run alarmed at op {i}: {e}"));
            }
            c
        }));
    }
    let clients: Vec<NetClient1> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(server.missed_deposits(), 0, "no deposit was given up on");
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    server.shutdown();

    let snap = stats.snapshot();
    let served = snap.counter("net.server.pipelined_served").unwrap_or(0);
    assert!(served > 0, "the pipelined fast path was actually exercised");
}

/// A pipelined client against a server spawned with `pipeline_depth: 0`
/// gets blocking-path (legacy) replies throughout and still verifies —
/// the wire shapes are interoperable in both directions.
#[test]
fn pipelined_client_against_blocking_server_verifies() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), true);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x44; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.set_pipelined(true);
    c.deposit_initial(&r0).unwrap();
    for i in 0..20u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("honest server");
    }
    assert_eq!(server.missed_deposits(), 0);
    server.shutdown();
}

/// Pipelining must not weaken detection: a tampering server (which cannot
/// serve the pipelined fast path and falls back to the blocking shape) is
/// still caught within the usual bound.
#[test]
fn tampering_server_is_detected_under_pipelining() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(TamperServer::new(&cfg, Trigger::AtCtr(2))),
        pipelined_options(8),
    );
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x55; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.set_pipelined(true);
    c.deposit_initial(&r0).unwrap();
    let mut detected = None;
    for i in 0..8u64 {
        if let Err(e) = c.execute(&Op::Put(u64_key(i), vec![i as u8])) {
            detected = Some((i, e));
            break;
        }
    }
    match detected {
        Some((_, NetError::Deviation(_))) => {}
        other => panic!("tamper not detected as a deviation: {other:?}"),
    }
    server.shutdown();
}

/// A crash-restart in the middle of a pipelined run: the restarted server
/// falls back to the blocking path (its pipelining state is volatile),
/// re-arms on the next deposit, and the client keeps verifying with zero
/// false alarms.
#[test]
fn crash_restart_mid_pipelined_run_stays_verified() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        pipelined_options(8),
        stats.clone(),
    );
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x66; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.set_pipelined(true);
    c.deposit_initial(&r0).unwrap();
    for i in 0..10u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("pre-crash");
    }
    server.crash_restart().expect("restart");
    for i in 10..20u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("post-crash");
    }
    server.shutdown();
    let snap = stats.snapshot();
    assert_eq!(snap.counter("net.server.crashes"), Some(1));
    assert!(snap.counter("net.server.pipelined_served").unwrap_or(0) > 0);
}

/// Satellite storm: seeded benign fault plans (drops, dropped replies,
/// delays, duplicates, reorders, crash-restarts) over a **pipelined**
/// Protocol I client must cause zero false alarms — retries, the reply
/// journal, and the catch-up path absorb every fault.
#[test]
fn seeded_fault_storms_over_pipelined_protocol1_zero_false_alarms() {
    for seed in [0xbead_u64, 0x5eed, 0xf00d] {
        let cfg = config();
        let server = NetServer::spawn_with(Box::new(HonestServer::new(&cfg)), pipelined_options(8));
        let plan = FaultPlan::seeded(seed, 40, &FaultRates::light());
        assert!(!plan.is_empty());
        let link = FaultLink::interpose(&server, plan);
        let r0 = root0(&cfg);
        let (rings, registry) = setup_users([0x77; 32], 1, 7);
        let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &link);
        c.set_pipelined(true);
        c.set_retry_policy(quick_retries());
        c.deposit_initial(&r0).unwrap();
        for i in 0..40u64 {
            c.execute(&Op::Put(u64_key(i % 32), vec![i as u8]))
                .unwrap_or_else(|e| {
                    panic!("benign fault raised an alarm at op {i} (seed {seed:#x}): {e}")
                });
        }
        assert!(link.applied().total() > 0, "the storm actually hit");
        server.shutdown();
    }
}

/// The same storm discipline over **batched** Protocol II windows: dropped
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

/// Faults must not mask a deviating server on the pipelined path either:
/// the storm plus a tampering server still ends in a deviation verdict,
/// never a silent pass.
#[test]
fn fault_storms_do_not_mask_tampering_under_pipelining() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(TamperServer::new(&cfg, Trigger::AtCtr(3))),
        pipelined_options(8),
    );
    let plan = FaultPlan::seeded(0xabcd, 20, &FaultRates::light());
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x88; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &link);
    c.set_pipelined(true);
    c.set_retry_policy(quick_retries());
    c.deposit_initial(&r0).unwrap();
    let mut verdict = None;
    for i in 0..12u64 {
        if let Err(e) = c.execute(&Op::Put(u64_key(i), vec![i as u8])) {
            verdict = Some(e);
            break;
        }
    }
    match verdict {
        Some(NetError::Deviation(_)) => {}
        // Exhausted retries against a deviating server is also a detection
        // outcome, never a silent pass.
        Some(NetError::Timeout { .. }) | Some(NetError::ServerGone) => {}
        None => panic!("tampering server escaped detection under faults"),
    }
    server.shutdown();
}

//! End-to-end tests of the threaded deployment: concurrency safety,
//! blocking semantics, adversary detection over channels, and resilience —
//! benign faults, crash-restarts, and graceful shutdown.

use std::sync::Arc;
use std::time::Duration;

use tcvs_core::adversary::{ForkServer, LieServer, TamperServer, Trigger};
use tcvs_core::{
    Deviation, FaultKind, FaultPlan, FaultRates, HonestServer, Op, OpResult, ProtocolConfig,
    SyncShare,
};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{
    FaultLink, NetClient1, NetClient2, NetClient3, NetClientTrusted, NetError, NetServer,
    NetServerOptions, NetStats, RetryPolicy,
};
use tcvs_obs::{EventKind, MetricsRegistry, Tracer};

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

/// A policy that keeps fault-heavy tests fast without sacrificing retries.
fn quick_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(40),
        max_jitter: Duration::from_millis(5),
    }
}

#[test]
fn protocol2_concurrent_clients_stay_consistent() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let mut handles = Vec::new();
    for u in 0..4u32 {
        let mut c = NetClient2::new(u, &r0, cfg, &server);
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                let op = if i % 2 == 0 {
                    Op::Put(u64_key(u as u64 * 100 + i), vec![i as u8])
                } else {
                    Op::Get(u64_key(u as u64 * 100 + i - 1))
                };
                c.execute(&op).expect("honest server");
            }
            c
        }));
    }
    let clients: Vec<NetClient2> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Post-hoc sync-up over the collected clients must succeed.
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    server.shutdown();
}

#[test]
fn protocol1_blocking_server_serializes_concurrent_clients() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), true);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x22; 32], 3, 7);
    let mut clients: Vec<NetClient1> = rings
        .into_iter()
        .map(|r| NetClient1::new(r, registry.clone(), cfg, &server))
        .collect();
    clients[0].deposit_initial(&r0).unwrap();
    let mut handles = Vec::new();
    for (u, mut c) in clients.into_iter().enumerate() {
        handles.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                c.execute(&Op::Put(u64_key(u as u64 * 64 + i), vec![i as u8]))
                    .expect("honest server");
            }
            c
        }));
    }
    let clients: Vec<NetClient1> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    assert_eq!(server.missed_deposits(), 0, "every deposit arrived");
    server.shutdown();
}

#[test]
fn lie_server_detected_over_the_wire() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))), false);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    let mut detected = None;
    for i in 0..10u64 {
        if let Err(e) = c.execute(&Op::Get(u64_key(i))) {
            detected = Some((i, e));
            break;
        }
    }
    let (at, err) = detected.expect("lie must be detected");
    assert_eq!(at, 3, "detected at the forged answer itself");
    assert!(matches!(err, NetError::Deviation(Deviation::BadProof(_))));
    server.shutdown();
}

#[test]
fn tamper_detected_by_protocol1_signature_chain() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(TamperServer::new(&cfg, Trigger::AtCtr(2))), true);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x33; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.deposit_initial(&r0).unwrap();
    let mut detected = None;
    for i in 0..10u64 {
        if let Err(e) = c.execute(&Op::Put(u64_key(i), vec![1])) {
            detected = Some((i, e));
            break;
        }
    }
    let (at, err) = detected.expect("tamper must be detected");
    assert_eq!(at, 2, "first op after the silent edit exposes it");
    // The stored signature attests the pre-tamper root; the proof no longer
    // matches it (either surfaces as a root mismatch or a bad signature).
    assert!(matches!(
        err,
        NetError::Deviation(
            Deviation::BadSignature | Deviation::BadProof(tcvs_merkle::VerifyError::RootMismatch)
        )
    ));
    server.shutdown();
}

#[test]
fn protocol3_runs_over_the_wire_with_audits() {
    let cfg = ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 8,
    };
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let (tracer, sink) = Tracer::memory();
    let stats = NetStats::new(Arc::new(MetricsRegistry::new()), tracer);
    let mut clients = protocol3_clients(&cfg, &server);
    for c in &mut clients {
        c.set_stats(stats.clone());
    }
    for e in 0..6u64 {
        protocol3_epoch(&cfg, &mut clients, e).expect("honest epochs");
    }
    server.shutdown();
    // Epochs 0..=3 are each audited two epochs later by their checker.
    let audits = sink
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Audit)
        .count();
    assert!(audits >= 1, "no audit ran over the wire");
}

/// Two Protocol III clients bound to `server`.
fn protocol3_clients(cfg: &ProtocolConfig, server: &NetServer) -> Vec<NetClient3> {
    let r0 = root0(cfg);
    let (rings, registry) = setup_users([0x44; 32], 2, 7);
    rings
        .into_iter()
        .map(|r| NetClient3::new(r, registry.clone(), 2, &r0, *cfg, server))
        .collect()
}

/// Epoch `e` of the Protocol III workload: 2 ops per user, sequentially
/// (the round is the shared clock). The first failure ends the epoch.
fn protocol3_epoch(
    cfg: &ProtocolConfig,
    clients: &mut [NetClient3],
    e: u64,
) -> Result<(), NetError> {
    for j in 0..2u64 {
        for (u, c) in clients.iter_mut().enumerate() {
            let round = e * cfg.epoch_len + j * 4 + u as u64;
            c.execute_at(&Op::Put(u64_key((u as u64) * 10 + j), vec![e as u8]), round)?;
        }
    }
    Ok(())
}

/// A fork behind the threaded server is invisible to every per-op check,
/// and the epoch audit exposes it within two epochs (Theorem 4.3).
#[test]
fn protocol3_audit_detects_a_fork_over_the_wire() {
    let cfg = ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 8,
    };
    // Four ops per epoch: the fork splits the users at the start of epoch 2.
    let fork_epoch = 2;
    let fork = ForkServer::new(&cfg, Trigger::AtCtr(4 * fork_epoch), &[0]);
    let server = NetServer::spawn(Box::new(fork), false);
    let mut clients = protocol3_clients(&cfg, &server);
    let (epoch, err) = (0..8u64)
        .find_map(|e| {
            protocol3_epoch(&cfg, &mut clients, e)
                .err()
                .map(|err| (e, err))
        })
        .expect("the fork went undetected");
    server.shutdown();
    let label = match err {
        NetError::Deviation(Deviation::MissingEpochState { .. }) => "missing-epoch-state",
        NetError::Deviation(Deviation::EpochCheckFailed(_)) => "epoch-check-failed",
        NetError::Deviation(Deviation::BadEpochSignature(_)) => "bad-epoch-signature",
        err => panic!("not an audit verdict: {err:?}"),
    };
    assert!(epoch >= fork_epoch, "detected before the fork");
    assert!(epoch <= fork_epoch + 2, "detected in epoch {epoch}");
    // The audit follows a reply that passed its check, so the bundle seals
    // the audit's verdict and no exchange.
    let bundle = clients
        .iter_mut()
        .find_map(NetClient3::take_evidence)
        .expect("the auditor sealed a bundle");
    assert_eq!(bundle.trigger.deviation, label);
    assert!(bundle.exchange.is_none(), "{:?}", bundle.exchange);
}

/// Every instrumented trusted-client op, read or update, is served once on
/// the serialized wire and counted once in `ops_served`.
#[test]
fn instrumented_trusted_clients_count_every_op_once() {
    let cfg = config();
    let stats = NetStats::new(Arc::new(MetricsRegistry::new()), Tracer::disabled());
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    let handles: Vec<_> = (0..2u32)
        .map(|u| {
            let mut c = NetClientTrusted::new(u, &server);
            c.set_stats(stats.clone());
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let key = u64_key(u as u64 * 64 + i % 16);
                    let op = if i % 10 == 0 {
                        Op::Put(key, vec![i as u8])
                    } else {
                        Op::Get(key)
                    };
                    c.execute(&op).expect("honest server");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
    assert_eq!(stats.snapshot().counter("net.server.ops_served"), Some(100));
}

/// A write the trusted baseline has had acknowledged is visible to its very
/// next read.
#[test]
fn trusted_client_reads_its_own_writes() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let mut c = NetClientTrusted::new(0, &server);
    for i in 0..50u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
        assert_eq!(
            c.execute(&Op::Get(u64_key(i))).unwrap(),
            OpResult::Value(Some(vec![i as u8])),
            "read-your-write at {i}"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Resilience: crash-restarts, shutdown lifecycle, dead servers.
// ---------------------------------------------------------------------------

#[test]
fn killed_server_yields_server_gone_not_a_panic() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    server.shutdown();
    assert_eq!(
        c.execute(&Op::Put(u64_key(2), vec![2])),
        Err(NetError::ServerGone),
        "requests after shutdown fail cleanly"
    );
    assert_eq!(c.ops_done(), 1);
}

#[test]
fn honest_server_survives_crash_restart_mid_run() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    for i in 0..5u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    server.crash_restart().expect("server is alive");
    for i in 5..10u64 {
        // The restarted server must answer from the *same* verified history,
        // or the client's root/ctr tracking raises a (false) deviation.
        c.execute(&Op::Get(u64_key(i - 5))).expect("no false alarm");
    }
    server.shutdown();
}

#[test]
fn protocol1_crash_restart_preserves_the_signature_chain() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), true);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x66; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.deposit_initial(&r0).unwrap();
    for i in 0..4u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    server.crash_restart().expect("server is alive");
    for i in 4..8u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("restored last_sig keeps the chain verifiable");
    }
    server.shutdown();
}

#[test]
fn shutdown_unblocks_a_server_stuck_in_signature_wait() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_secs(30),
            ..NetServerOptions::default()
        },
    );
    let r0 = root0(&cfg);
    // A Protocol II client never deposits signatures, so after its first op
    // the blocking server waits for a deposit that will never come.
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown must not wait out the deposit timeout"
    );
}

#[test]
fn drop_unblocks_a_server_stuck_in_signature_wait() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_secs(30),
            ..NetServerOptions::default()
        },
    );
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let start = std::time::Instant::now();
    drop(server);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "Drop joins the thread promptly"
    );
}

#[test]
fn shutdown_drains_requests_backlogged_behind_a_block() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_secs(30),
            ..NetServerOptions::default()
        },
        stats.clone(),
    );
    let r0 = root0(&cfg);
    // Client A blocks the server (no deposit will come).
    let mut a = NetClient2::new(0, &r0, cfg, &server);
    a.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    // Client B's request lands in the backlog behind the block.
    let mut b = NetClient2::new(1, &r0, cfg, &server);
    let waiter = std::thread::spawn(move || b.execute(&Op::Put(u64_key(2), vec![2])));
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown();
    waiter
        .join()
        .unwrap()
        .expect("the graceful drain serves the backlogged op");
    // The drained op is counted like any other served op.
    assert_eq!(stats.snapshot().counter("net.server.ops_served"), Some(2));
}

#[test]
fn deposit_timeout_unblocks_protocol1_and_counts_the_miss() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_millis(50),
            ..NetServerOptions::default()
        },
    );
    let r0 = root0(&cfg);
    // A depositing-less client: each op blocks the server until the timeout.
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.set_retry_policy(quick_retries());
    for i in 0..3u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("the timeout keeps the server serving");
    }
    assert!(
        server.missed_deposits() >= 2,
        "each unblocked wait is recorded, got {}",
        server.missed_deposits()
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Fault injection: benign faults are invisible to the detectors.
// ---------------------------------------------------------------------------

#[test]
fn explicit_fault_kinds_cause_no_false_alarms() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let mut plan = FaultPlan::none();
    plan.schedule(1, FaultKind::DropRequest)
        .schedule(2, FaultKind::DropReply)
        .schedule(3, FaultKind::Delay(2))
        .schedule(4, FaultKind::Duplicate)
        .schedule(6, FaultKind::CrashRestart);
    let scheduled = plan.len() as u64;
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_retry_policy(quick_retries());
    for i in 0..10u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .unwrap_or_else(|e| panic!("benign fault raised an alarm at op {i}: {e}"));
    }
    assert_eq!(c.ops_done(), 10);
    assert_eq!(link.applied().total(), scheduled, "every fault fired");
    server.shutdown();
}

#[test]
fn seeded_fault_storm_protocol2_zero_false_alarms() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let plan = FaultPlan::seeded(0xfeed, 60, &FaultRates::heavy());
    assert!(!plan.is_empty());
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_retry_policy(quick_retries());
    for i in 0..60u64 {
        let op = if i % 3 == 0 {
            Op::Get(u64_key(i % 16))
        } else {
            Op::Put(u64_key(i % 16), vec![i as u8])
        };
        c.execute(&op)
            .unwrap_or_else(|e| panic!("benign fault raised an alarm at op {i}: {e}"));
    }
    assert!(link.applied().total() > 0, "the storm actually hit");
    server.shutdown();
}

#[test]
fn seeded_fault_storm_protocol1_zero_false_alarms() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), true);
    let plan = FaultPlan::seeded(0xbead, 40, &FaultRates::light());
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x77; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &link);
    c.set_retry_policy(quick_retries());
    c.deposit_initial(&r0).unwrap();
    for i in 0..40u64 {
        c.execute(&Op::Put(u64_key(i % 32), vec![i as u8]))
            .unwrap_or_else(|e| panic!("benign fault raised an alarm at op {i}: {e}"));
    }
    server.shutdown();
}

#[test]
fn faults_do_not_mask_a_lying_server() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))), false);
    let plan = FaultPlan::seeded(0xabcd, 20, &FaultRates::light());
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_retry_policy(quick_retries());
    let mut detected = None;
    for i in 0..20u64 {
        if let Err(e) = c.execute(&Op::Get(u64_key(i))) {
            detected = Some((i, e));
            break;
        }
    }
    let (at, err) = detected.expect("deviation detected despite benign noise");
    assert_eq!(at, 3, "exactly-once delivery preserves the detection index");
    assert!(matches!(err, NetError::Deviation(Deviation::BadProof(_))));
    server.shutdown();
}

/// Faults must not mask a deviating Protocol I server either: the storm
/// plus a tampering server still ends in a deviation verdict, never a
/// silent pass.
#[test]
fn faults_do_not_mask_a_tampering_protocol1_server() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(TamperServer::new(&cfg, Trigger::AtCtr(3))), true);
    let plan = FaultPlan::seeded(0xabcd, 20, &FaultRates::light());
    let link = FaultLink::interpose(&server, plan);
    let r0 = root0(&cfg);
    let (rings, registry) = setup_users([0x88; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &link);
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

#[test]
fn faulty_link_to_a_dead_server_reports_gone_or_timeout() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let link = FaultLink::interpose(&server, FaultPlan::none());
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        base_timeout: Duration::from_millis(30),
        max_jitter: Duration::ZERO,
    });
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    server.shutdown();
    match c.execute(&Op::Put(u64_key(2), vec![2])) {
        Err(NetError::ServerGone) | Err(NetError::Timeout { .. }) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn wire_trace_links_client_and_server_spans_of_one_operation() {
    use tcvs_obs::SpanContext;

    let cfg = config();
    let (tracer, sink) = Tracer::memory();
    let stats = NetStats::new(std::sync::Arc::new(MetricsRegistry::new()), tracer);
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    // Route through a (quiet) fault link too: pass-through must preserve
    // the trace context it forwards.
    let link = FaultLink::interpose_observed(&server, FaultPlan::none(), stats.clone());
    let r0 = root0(&cfg);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_stats(stats.clone());
    for i in 0..5u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    server.shutdown();

    // One logical operation, one trace: the server's op-served span and the
    // client's deposit span for (user 0, seq 3) both descend from the same
    // deterministic root.
    let root = SpanContext::root(0, 3);
    let events = sink.events();
    let served = events
        .iter()
        .find(|e| e.kind == EventKind::OpServed && e.span.is_some_and(|sp| sp.trace == root.trace))
        .expect("server-side span for seq 3 recorded");
    let deposit = events
        .iter()
        .find(|e| e.kind == EventKind::Deposit && e.span.is_some_and(|sp| sp.trace == root.trace))
        .expect("client-side span for seq 3 recorded");
    let served_span = served.span.unwrap();
    let deposit_span = deposit.span.unwrap();
    assert_eq!(
        served_span.parent,
        Some(root.span),
        "server hop links to the root"
    );
    assert_eq!(
        deposit_span.parent,
        Some(root.span),
        "client verdict links to the root"
    );
    assert_ne!(
        served_span.span, deposit_span.span,
        "distinct spans, one trace"
    );
    // Spans from a different operation live in a different trace.
    let other = SpanContext::root(0, 4);
    assert_ne!(other.trace, root.trace);
    assert!(events
        .iter()
        .any(|e| e.span.is_some_and(|sp| sp.trace == other.trace)));
}

//! Observability integration tests: traced runs must be byte-for-byte
//! deterministic under a fixed seed, and the measured detection latency
//! must respect the paper's theoretical bounds — `k` user operations for
//! Protocol I (Theorem 4.1) and two epochs for Protocol III (Theorem 4.3).

use tcvs_core::adversary::{ForkServer, TamperServer, Trigger};
use tcvs_core::{HonestServer, ProtocolConfig, ProtocolKind};
use tcvs_obs::{EventKind, Tracer};
use tcvs_sim::{simulate_observed, DetectionLatency, LatencyBound, SimSpec};
use tcvs_workload::{generate, generate_epoch_workload, OpMix, WorkloadSpec};

fn spec(protocol: ProtocolKind, k: u64, epoch_len: u64) -> SimSpec {
    SimSpec {
        protocol,
        config: ProtocolConfig {
            order: 8,
            k,
            epoch_len,
        },
        n_users: 3,
        mss_height: 7,
        setup_seed: [5; 32],
        final_sync: true,
        faults: tcvs_core::FaultPlan::none(),
    }
}

fn trace(seed: u64) -> tcvs_workload::Trace {
    generate(&WorkloadSpec {
        n_users: 3,
        n_ops: 80,
        key_space: 32,
        mix: OpMix::write_heavy(),
        seed,
        ..WorkloadSpec::default()
    })
}

#[test]
fn seeded_runs_produce_byte_identical_event_logs() {
    for protocol in [ProtocolKind::One, ProtocolKind::Two, ProtocolKind::Three] {
        let s = spec(protocol, 8, 16);
        let t = if protocol == ProtocolKind::Three {
            generate_epoch_workload(
                3,
                4,
                16,
                2,
                &WorkloadSpec {
                    key_space: 16,
                    ..WorkloadSpec::default()
                },
            )
        } else {
            trace(7)
        };
        let run = || {
            let (tracer, sink) = Tracer::memory();
            let mut server = HonestServer::new(&s.config);
            let report = simulate_observed(&s, &mut server, &t, None, &tracer);
            (report, sink.render_log())
        };
        let (r1, log1) = run();
        let (r2, log2) = run();
        assert!(!log1.is_empty(), "{protocol:?}: events were emitted");
        assert_eq!(log1, log2, "{protocol:?}: logs must be byte-identical");
        assert_eq!(r1.ops_executed, r2.ops_executed);
        assert!(
            log1.contains("op-served"),
            "{protocol:?}: per-op events present"
        );
    }
}

#[test]
fn adversarial_log_orders_injection_before_detection() {
    let s = spec(ProtocolKind::Two, 8, 16);
    let t = trace(9);
    let (tracer, sink) = Tracer::memory();
    let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
    let report = simulate_observed(&s, &mut server, &t, Some(20), &tracer);
    assert!(report.detected());
    let events = sink.events();
    let injected = events
        .iter()
        .position(|e| e.kind == EventKind::DeviationInjected)
        .expect("injection event recorded");
    let detected = events
        .iter()
        .position(|e| e.kind == EventKind::Detection)
        .expect("detection event recorded");
    assert!(
        injected < detected,
        "ground-truth injection precedes the alarm"
    );
}

#[test]
fn protocol1_latency_is_k_bounded() {
    // Hand-computed bound: Protocol I with k = 6 and three users. After the
    // fork at delivery index 20, no user may complete more than k ops
    // before a sync-up fires and fails — plus the sync round itself.
    let s = spec(ProtocolKind::One, 6, 1_000);
    let t = trace(11);
    let (tracer, _sink) = Tracer::memory();
    let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
    let report = simulate_observed(&s, &mut server, &t, Some(20), &tracer);
    assert!(report.detected(), "fork must be detected");
    let lat: &DetectionLatency = report
        .detection_latency
        .as_ref()
        .expect("latency measured: violation point was known");
    assert_eq!(lat.deviation_op, 20);
    assert!(lat.detection_op >= 20);
    assert_eq!(lat.bound, LatencyBound::UserOps(6));
    let max_user = lat.max_user_ops.expect("per-user metric measured");
    assert!(
        max_user <= 6 + 1,
        "Theorem 4.1: at most k (+ sync round) user ops after the fork, got {max_user}"
    );
    assert_eq!(lat.within_bound(), Some(true));
    // With 3 users the system-wide exposure is at most n * (k + 1).
    assert!(lat.ops <= 3 * 7, "system-wide ops bound, got {}", lat.ops);
}

#[test]
fn protocol3_latency_is_two_epoch_bounded() {
    // Hand-computed bound: the epoch-e audit runs in epoch e + 2
    // (Theorem 4.3), so a tamper in epoch 1 is caught by epoch 3.
    let epoch_len = 12;
    let s = spec(ProtocolKind::Three, 1_000, epoch_len);
    let t = generate_epoch_workload(
        3,
        7,
        epoch_len,
        2,
        &WorkloadSpec {
            key_space: 16,
            ..WorkloadSpec::default()
        },
    );
    // Tamper right after epoch 1 begins. Ops are served sequentially, so
    // the server's ctr equals the delivery index: trigger at the first
    // delivery whose round falls in epoch 1.
    let violation_idx = t
        .ops()
        .iter()
        .position(|sop| sop.round >= epoch_len)
        .expect("trace spans epoch 1") as u64;
    let (tracer, _sink) = Tracer::memory();
    let mut server = TamperServer::new(&s.config, Trigger::AtCtr(violation_idx));
    let report = simulate_observed(&s, &mut server, &t, Some(violation_idx), &tracer);
    assert!(report.detected(), "tamper must be detected");
    let lat = report.detection_latency.as_ref().expect("latency measured");
    assert_eq!(lat.bound, LatencyBound::Epochs(2));
    let epochs = lat.epochs.expect("epoch latency measured");
    assert!(
        epochs <= 2,
        "Theorem 4.3: detection within two epochs, got {epochs}"
    );
    assert_eq!(lat.within_bound(), Some(true));
}

#[test]
fn fork_attack_flight_dump_causally_links_the_forked_operations() {
    let s = spec(ProtocolKind::Two, 8, 16);
    let t = trace(9);
    let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
    let (tracer, recorder) = Tracer::flight(64);
    let report = simulate_observed(&s, &mut server, &t, Some(20), &tracer);
    let dump = report.detected().then(|| recorder.render_log());
    assert!(report.detected());
    let dump = dump.expect("a detected run dumps the flight recorder");
    assert!(
        dump.contains("detection"),
        "the verdict is in the dump:\n{dump}"
    );
    // Causality: the detection span and the server's op-served span for the
    // same delivery belong to the same trace (the forked client's op), and
    // each is parented on that operation's root span.
    let events = recorder.snapshot();
    let detection = events
        .iter()
        .find(|e| e.kind == EventKind::Detection)
        .expect("detection event retained");
    let det_span = detection.span.expect("detection carries a span");
    let served_same_trace = events.iter().any(|e| {
        e.kind == EventKind::OpServed && e.span.is_some_and(|sp| sp.trace == det_span.trace)
    });
    assert!(
        served_same_trace,
        "an op-served span shares the detection's trace"
    );
    assert!(
        det_span.parent.is_some(),
        "the verdict links back to the operation's root span"
    );
    // Ring bound: the recorder never retains more than its capacity, and a
    // long run records more than it keeps.
    assert!(events.len() <= 64);
    assert!(recorder.recorded() >= events.len() as u64);
}

#[test]
fn honest_flight_runs_dump_nothing() {
    let s = spec(ProtocolKind::Two, 8, 16);
    let mut server = HonestServer::new(&s.config);
    let (tracer, recorder) = Tracer::flight(32);
    let report = simulate_observed(&s, &mut server, &trace(3), None, &tracer);
    let dump = report.detected().then(|| recorder.render_log());
    assert!(!report.detected());
    assert!(dump.is_none(), "nothing fired, nothing to dump");
    assert!(recorder.recorded() > 0, "the ring was recording all along");
}

#[test]
fn honest_runs_measure_no_latency() {
    let s = spec(ProtocolKind::Two, 8, 16);
    let (tracer, sink) = Tracer::memory();
    let mut server = HonestServer::new(&s.config);
    let report = simulate_observed(&s, &mut server, &trace(3), None, &tracer);
    assert!(!report.detected());
    assert!(report.detection_latency.is_none());
    assert!(
        !sink.events().iter().any(|e| e.kind == EventKind::Detection),
        "honest run emits no detection events"
    );
}

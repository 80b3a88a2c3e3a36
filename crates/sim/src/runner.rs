//! The round-based multi-agent runner (§2.1's system model, executable).
//!
//! The runner drives a trace of query actions against any [`ServerApi`]
//! implementation — honest or adversarial — through the protocol clients'
//! one core step ([`Protocol::step`], the same step `tcvs-net`'s
//! `NetClient<P>` runs; `tests/parity.rs` holds the two drivers to the same
//! verdicts), honouring the model's timing rules:
//!
//! * at most one query action per round;
//! * messages delivered in one round;
//! * Protocol I's signature deposit *blocks* the server for an extra round
//!   (`b*`-bounded transactions with a larger `b*` — the measurable cost
//!   that motivates Protocol II);
//! * broadcast sync-ups occupy one round of their own.
//!
//! Detection stops the run: the paper assumes the first user to detect
//! leaves the system and alerts the others out of band.

use std::sync::Arc;
use tcvs_core::strawman::NaiveXorClient;
use tcvs_core::wire::{self, encoded_len};
use tcvs_core::{
    Client1, Client2, Client3, Deposit, Deviation, Digest, Direct, Epoch, EvidenceBuilder,
    EvidenceBundle, EvidenceKind, Exchange, FaultKind, FaultPlan, Port, Protocol, ProtocolConfig,
    ProtocolKind, ServerApi, SignedCheckpoint, SignedEpochState, SyncShare, TriggerInfo,
    TrustedClient, UserId,
};
use tcvs_crypto::setup_users;
use tcvs_merkle::MerkleTree;
use tcvs_obs::{stage, Event, EventKind, FlightRecorder, SpanContext, Tracer, NO_ACTOR};
use tcvs_workload::Trace;

use crate::latency::{theoretical_bound, DetectionLatency};
use crate::report::{DetectionEvent, RunReport};

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Which protocol the users speak.
    pub protocol: ProtocolKind,
    /// Protocol configuration (order, k, epoch length).
    pub config: ProtocolConfig,
    /// Number of users.
    pub n_users: u32,
    /// MSS tree height for signing protocols (capacity = 2^height sigs).
    pub mss_height: u32,
    /// Key-generation seed.
    pub setup_seed: [u8; 32],
    /// Whether to run one final sync-up after the trace ends (Protocols
    /// I/II). Disable to model a system with **no external communication**
    /// (§3 / Theorem 3.1).
    pub final_sync: bool,
    /// Benign faults to inject, keyed by delivery index. The runner models
    /// their cost (retransmissions, delay rounds, crash-restarts) and the
    /// oracle's invariant is that they never cause a deviation alarm.
    pub faults: FaultPlan,
}

impl SimSpec {
    /// A reasonable default spec for `protocol` with `n_users` users.
    pub fn new(protocol: ProtocolKind, n_users: u32) -> SimSpec {
        SimSpec {
            protocol,
            config: ProtocolConfig::default(),
            n_users,
            mss_height: 8,
            setup_seed: [0xA5; 32],
            final_sync: true,
            faults: FaultPlan::none(),
        }
    }

    /// The same spec with a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> SimSpec {
        self.faults = faults;
        self
    }
}

/// The root digest of the empty initial database — common knowledge among
/// users (the paper assumes `M(D₀)` is known to everyone).
pub fn initial_root(config: &ProtocolConfig) -> Digest {
    MerkleTree::with_order(config.order).root_digest()
}

/// Runs `trace` through `server` with fresh clients per `spec`.
///
/// `violation_op` is the harness's ground truth for when the server first
/// deviates (global op index); it parameterizes the detection-delay metrics
/// in the report. The runner itself never peeks at it.
pub fn simulate(
    spec: &SimSpec,
    server: &mut dyn ServerApi,
    trace: &Trace,
    violation_op: Option<u64>,
) -> RunReport {
    simulate_observed(spec, server, trace, violation_op, &Tracer::disabled())
}

/// [`simulate`], with structured events emitted through `tracer`.
///
/// Every event carries logical time only (delivery index, round, epoch), so
/// two runs of the same spec and trace produce byte-identical logs. When
/// the harness supplied `violation_op`, the run additionally measures the
/// deviation → detection latency ([`RunReport::detection_latency`]) against
/// the paper's theoretical bound for the protocol.
pub fn simulate_observed(
    spec: &SimSpec,
    server: &mut dyn ServerApi,
    trace: &Trace,
    violation_op: Option<u64>,
    tracer: &Tracer,
) -> RunReport {
    run(spec, server, trace, violation_op, tracer).0
}

/// [`simulate_observed`], returning also the evidence the detecting client
/// sealed at its detection site.
fn run(
    spec: &SimSpec,
    server: &mut dyn ServerApi,
    trace: &Trace,
    violation_op: Option<u64>,
    tracer: &Tracer,
) -> (RunReport, Option<EvidenceBuilder>) {
    let root0 = initial_root(&spec.config);
    let users = 0..spec.n_users;
    let keys = || setup_users(spec.setup_seed, spec.n_users, spec.mss_height);
    match spec.protocol {
        ProtocolKind::Trusted => {
            let cs = users.map(|_| TrustedClient).collect();
            drive(spec, server, trace, violation_op, tracer, cs)
        }
        ProtocolKind::One => {
            let (rings, registry) = keys();
            let mut cs: Vec<Client1> = rings
                .into_iter()
                .map(|r| Client1::new(r, registry.clone(), spec.config))
                .collect();
            // Protocol I initialization: elected user 0 signs h(M(D0) || 0).
            cs[0]
                .deposit_initial(&root0, &mut Direct(&mut *server))
                .expect("fresh key");
            drive(spec, server, trace, violation_op, tracer, cs)
        }
        ProtocolKind::Two => {
            let cs = users
                .map(|u| Client2::new(u, &root0, spec.config))
                .collect();
            drive(spec, server, trace, violation_op, tracer, cs)
        }
        ProtocolKind::Three => {
            let (rings, registry) = keys();
            let cs = rings
                .into_iter()
                .map(|r| Client3::new(r, registry.clone(), spec.n_users, &root0, spec.config))
                .collect();
            drive(spec, server, trace, violation_op, tracer, cs)
        }
        ProtocolKind::NaiveXor => {
            let cs = users
                .map(|u| NaiveXorClient::new(u, &root0, spec.config))
                .collect();
            drive(spec, server, trace, violation_op, tracer, cs)
        }
        ProtocolKind::TokenRing => {
            panic!("token-ring uses the dedicated ring runner (tcvs_sim::token_ring)")
        }
    }
}

/// [`run`] with one protocol client per user.
fn drive<C: Protocol>(
    spec: &SimSpec,
    server: &mut dyn ServerApi,
    trace: &Trace,
    violation_op: Option<u64>,
    tracer: &Tracer,
    mut clients: Vec<C>,
) -> (RunReport, Option<EvidenceBuilder>) {
    for c in &mut clients {
        c.set_tracer(tracer.clone());
    }
    let mut report = RunReport {
        protocol: spec.protocol,
        ops_executed: 0,
        makespan_rounds: 0,
        msgs: 0,
        bytes: 0,
        sync_rounds: 0,
        sync_bytes: 0,
        audits: 0,
        faults: tcvs_core::FaultCounts::default(),
        detection: None,
        detection_latency: None,
    };
    let mut busy_until = 0u64;
    // The round at which the violation delivery index was served (for the
    // rounds / epochs latency metrics).
    let mut violation_round: Option<u64> = None;

    // Per-user op counts *after* the violation point (for the k metric).
    let mut ops_after_violation_per_user = vec![0u64; spec.n_users as usize];
    // Per-user sequence numbers: the same numbering the threaded transport
    // uses, so simulator span trees match wire span trees op for op.
    let mut seqs = vec![0u64; spec.n_users as usize];

    // Benign faults: adjacent reorders permute the delivery order; the
    // other kinds add cost (retransmissions, delay rounds, restarts) at
    // their delivery index. None of them may trigger a detection.
    let order = spec.faults.effective_order(trace.len() as u64);
    // The run's verdict, `(op index, round, user, deviation)`: the first
    // detection stops the run, and its client seals the evidence.
    let mut verdict = None;
    let mut sealed = None;
    let seed = u64::from_le_bytes(spec.setup_seed[..8].try_into().expect("8-byte prefix"));
    let seal = |c: &C, at: u64, dev: &Deviation, exchange| {
        c.evidence(EvidenceKind::ProtocolVerdict, seed, at, dev, exchange)
    };
    for (idx, &trace_idx) in order.iter().enumerate() {
        let sop = &trace.ops()[trace_idx as usize];
        let fault = spec.faults.fault_at(idx as u64);
        seqs[sop.user as usize] += 1;
        // The root span for this logical operation: everything this delivery
        // causes — fault, server handling, verdict, sync — links under it.
        let ctx = SpanContext::root(sop.user, seqs[sop.user as usize]);
        let mut round = sop.round.max(busy_until);
        match fault {
            Some(FaultKind::DropRequest) => {
                // The request is lost and retransmitted a round later.
                report.faults.drops += 1;
                report.msgs += 2;
                round += 1;
            }
            Some(FaultKind::DropReply) => {
                report.faults.drops += 1;
                report.msgs += 2;
            }
            Some(FaultKind::Delay(r)) => {
                report.faults.delays += 1;
                round += r;
            }
            Some(FaultKind::Duplicate) => {
                // The duplicate reaches the server but is absorbed by its
                // reply journal: one extra message, no re-execution.
                report.faults.duplicates += 1;
                report.msgs += 1;
            }
            Some(FaultKind::ReorderNext) => {
                // The swap itself happened in `order`; holding the message
                // back costs a round.
                report.faults.reorders += 1;
                round += 1;
            }
            Some(FaultKind::Storage(_)) => {
                // Storage faults hit the medium under a durable engine; the
                // round-based simulator runs in-memory servers, so the
                // fault costs nothing here beyond being counted. The
                // storage-level property tests exercise the real effect.
                report.faults.storage += 1;
            }
            Some(FaultKind::CrashRestart) | None => {}
        }
        if let Some(f) = fault {
            tracer.emit(|| {
                Event::new(idx as u64, EventKind::FaultInjected, sop.user)
                    .detail(format!("{f:?}"))
                    .span(ctx.child(stage::FAULT))
            });
        }
        if violation_op == Some(idx as u64) {
            violation_round = Some(round);
            tracer.emit(|| {
                Event::new(idx as u64, EventKind::DeviationInjected, NO_ACTOR)
                    .detail(format!("round={round}"))
                    .span(ctx)
            });
        }
        let resp = server.handle_op(sop.user, &sop.op, round);
        tracer.emit(|| {
            Event::new(idx as u64, EventKind::OpServed, sop.user)
                .detail(format!("round={round} ctr={}", resp.ctr))
                .span(ctx.child(stage::SERVER))
        });
        report.msgs += 2;
        report.bytes += (encoded_len(|c| wire::put_op(c, &sop.op)) + resp.encoded_size()) as u64;
        report.ops_executed += 1;
        if let Some(v) = violation_op {
            if idx as u64 >= v {
                ops_after_violation_per_user[sop.user as usize] += 1;
            }
        }

        let c = &mut clients[sop.user as usize];
        c.set_current_span(Some(ctx));
        let mut port = Counted {
            server: &mut *server,
            report: &mut report,
            deposited: false,
        };
        let detection = c.step(&sop.op, &resp, round, &mut port).err();
        let mut extra_rounds = if port.deposited { 2 } else { 1 };

        // A lost reply is retransmitted: the exchange costs one more round.
        if fault == Some(FaultKind::DropReply) {
            extra_rounds += 1;
        }

        if let Some(dev) = detection {
            report.makespan_rounds = round + extra_rounds;
            tracer.emit(|| {
                Event::new(idx as u64, EventKind::Detection, sop.user)
                    .detail(format!("{dev} round={round}"))
                    .span(ctx.child(stage::VERDICT))
            });
            let exchange = c.anchor().map(|anchor| Exchange::Op {
                anchor,
                op: sop.op.clone(),
                reply: resp,
            });
            sealed = seal(c, idx as u64, &dev, exchange);
            verdict = Some((idx as u64, round, sop.user, dev));
            break;
        }

        busy_until = round + extra_rounds;

        // A scheduled crash: the server restarts from persisted state
        // before the next operation (the restart costs two rounds). An
        // adversary's crash_restart keeps its malicious state — crashing
        // must never launder a deviation.
        if fault == Some(FaultKind::CrashRestart) {
            report.faults.crashes += 1;
            tracer.emit(|| Event::new(idx as u64, EventKind::Crash, NO_ACTOR).detail("scheduled"));
            server.crash_restart();
            tracer.emit(|| Event::new(idx as u64, EventKind::Restart, NO_ACTOR));
            busy_until += 2;
        }
        report.makespan_rounds = busy_until;

        // Broadcast sync-up when any user hits k ops since the last one.
        if !clients.iter().any(C::wants_sync) {
            continue;
        }
        if let Some(shares) = sync_up(&mut clients, &mut report, &mut busy_until, tracer) {
            let dev = Deviation::SyncFailed;
            tracer.emit(|| {
                Event::new(idx as u64, EventKind::Detection, sop.user)
                    .detail(format!("{dev} round={busy_until}"))
                    .span(ctx.child(stage::SYNC))
            });
            let c = &clients[sop.user as usize];
            sealed = seal(c, idx as u64, &dev, None).map(|b| b.shares(shares));
            verdict = Some((idx as u64, busy_until, sop.user, dev));
            break;
        }
    }

    // Trace exhausted: one final sync-up so short traces still settle.
    if verdict.is_none() && spec.final_sync {
        let n = trace.len() as u64;
        if let Some(shares) = sync_up(&mut clients, &mut report, &mut busy_until, tracer) {
            let dev = Deviation::SyncFailed;
            tracer.emit(|| {
                Event::new(n, EventKind::Detection, 0).detail(format!("{dev} round={busy_until}"))
            });
            sealed = seal(&clients[0], n, &dev, None).map(|b| b.shares(shares));
            verdict = Some((n, busy_until, 0, dev));
        }
    }

    if let Some((op_index, round, by_user, deviation)) = verdict {
        // The delay metrics measure a detection at or after the violation;
        // one before it has no delay to report.
        let after = violation_op.filter(|&v| op_index >= v);
        let max_user = after.and_then(|_| ops_after_violation_per_user.iter().copied().max());
        report.detection_latency = after.map(|v| {
            let vr = violation_round.unwrap_or(round);
            DetectionLatency {
                deviation_op: v,
                detection_op: op_index,
                ops: op_index - v,
                rounds: round.saturating_sub(vr),
                max_user_ops: max_user,
                epochs: matches!(spec.protocol, ProtocolKind::Three).then(|| {
                    (round / spec.config.epoch_len).saturating_sub(vr / spec.config.epoch_len)
                }),
                bound: theoretical_bound(spec.protocol, &spec.config),
            }
        });
        report.detection = Some(DetectionEvent {
            op_index,
            round,
            by_user,
            deviation,
            // ops executed strictly after the violation point.
            ops_after_violation: after.map(|v| report.ops_executed.saturating_sub(v)),
            max_user_ops_after_violation: max_user,
        });
    }
    (report, sealed)
}

/// [`simulate_observed`] with an always-on [`FlightRecorder`] as the sink —
/// the bounded-memory deployment shape for long traces — that seals the
/// run's verdict into a portable [`EvidenceBundle`] when detection fired.
///
/// Every event of the run flows into a ring of `cap` slots (oldest
/// overwritten), so memory stays constant however long the trace;
/// scheduled crash-restarts land in the same ring. The detecting client
/// seals at its detection site (`Protocol::evidence`: the rejected
/// exchange, or every user's share at a failed sync-up); the bundle then
/// gains the detection's coordinates, the genesis anchor token, and the
/// recorder's retained tail. Honest runs return no bundle — capture must
/// cost nothing on the honest path.
pub fn simulate_with_evidence(
    spec: &SimSpec,
    server: &mut dyn ServerApi,
    trace: &Trace,
    violation_op: Option<u64>,
    cap: usize,
) -> (RunReport, Option<EvidenceBundle>, Arc<FlightRecorder>) {
    let (tracer, recorder) = Tracer::flight(cap);
    let (report, sealed) = run(spec, server, trace, violation_op, &tracer);
    let bundle = report.detection.as_ref().zip(sealed).map(|(det, b)| {
        let root0 = initial_root(&spec.config);
        b.description(format!(
            "simulated run detected at op {} (round {}) by user {}",
            det.op_index, det.round, det.by_user
        ))
        .trigger(TriggerInfo {
            user: Some(det.by_user),
            ctr: Some(det.op_index),
            ..TriggerInfo::from_deviation(&det.deviation)
        })
        .initial(tcvs_core::state::initial_token(&root0))
        .flight_tail(recorder.snapshot())
        .build()
    });
    (report, bundle, recorder)
}

/// One broadcast sync-up round of its own, for protocols that have one:
/// every user's share reaches every user, and the round passes iff some
/// user announces success. Returns the shares if it failed.
fn sync_up<C: Protocol>(
    cs: &mut [C],
    report: &mut RunReport,
    busy_until: &mut u64,
    tracer: &Tracer,
) -> Option<Vec<SyncShare>> {
    let shares: Vec<SyncShare> = cs.iter().map(C::sync_share).collect::<Option<_>>()?;
    let t = *busy_until;
    tracer.emit(|| Event::new(t, EventKind::SyncTriggered, NO_ACTOR));
    report.sync_rounds += 1;
    report.sync_bytes += tcvs_core::sync::sync_traffic_bytes(&shares) as u64;
    *busy_until += 1;
    let ok = cs.iter().any(|c| c.sync_succeeds(&shares));
    cs.iter_mut().for_each(C::sync_done);
    (!ok).then_some(shares)
}

/// The simulator's port: every deposit and fetch is a direct call on the
/// server, counted in the report's messages and bytes.
struct Counted<'a> {
    server: &'a mut dyn ServerApi,
    report: &'a mut RunReport,
    /// Whether the step deposited a Protocol I signature, which blocks the
    /// server for a round of its own.
    deposited: bool,
}

impl Port for Counted<'_> {
    type Error = Deviation;

    fn deposit(&mut self, deposit: Deposit) -> Result<(), Deviation> {
        self.report.msgs += 1;
        self.report.bytes += match &deposit {
            Deposit::Signature(s) => s.encoded_size(),
            Deposit::EpochState(s) => s.encoded_size(),
            Deposit::Checkpoint(c) => c.encoded_size(),
        } as u64;
        self.deposited |= matches!(deposit, Deposit::Signature(_));
        Direct(&mut *self.server).deposit(deposit)
    }

    /// Every audit starts with this fetch, so it counts the audit too.
    fn fetch_epoch_states(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Vec<SignedEpochState>, Deviation> {
        let states = self.server.fetch_epoch_states(user, epoch);
        self.report.msgs += 2;
        self.report.bytes += states.iter().map(|s| s.encoded_size() as u64).sum::<u64>();
        self.report.audits += 1;
        Ok(states)
    }

    fn fetch_checkpoint(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Option<SignedCheckpoint>, Deviation> {
        self.report.msgs += 2;
        Ok(self.server.fetch_checkpoint(user, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::HonestServer;
    use tcvs_workload::{generate, OpMix, WorkloadSpec};

    fn spec(protocol: ProtocolKind) -> SimSpec {
        SimSpec {
            protocol,
            config: ProtocolConfig {
                order: 8,
                k: 8,
                epoch_len: 50,
            },
            n_users: 3,
            mss_height: 7,
            setup_seed: [1; 32],
            final_sync: true,
            faults: tcvs_core::FaultPlan::none(),
        }
    }

    fn trace() -> Trace {
        generate(&WorkloadSpec {
            n_users: 3,
            n_ops: 60,
            key_space: 32,
            mix: OpMix::read_heavy(),
            ..WorkloadSpec::default()
        })
    }

    #[test]
    fn honest_runs_complete_undetected_for_all_protocols() {
        for p in [
            ProtocolKind::Trusted,
            ProtocolKind::One,
            ProtocolKind::Two,
            ProtocolKind::NaiveXor,
        ] {
            let s = spec(p);
            let mut server = HonestServer::new(&s.config);
            let r = simulate(&s, &mut server, &trace(), None);
            assert!(!r.detected(), "{p:?}: {:?}", r.detection);
            assert_eq!(r.ops_executed, 60, "{p:?}");
        }
    }

    #[test]
    fn protocol1_costs_more_messages_and_rounds_than_protocol2() {
        let t = trace();
        let s1 = spec(ProtocolKind::One);
        let mut sv1 = HonestServer::new(&s1.config);
        let r1 = simulate(&s1, &mut sv1, &t, None);
        let s2 = spec(ProtocolKind::Two);
        let mut sv2 = HonestServer::new(&s2.config);
        let r2 = simulate(&s2, &mut sv2, &t, None);
        assert!(r1.msgs_per_op() > r2.msgs_per_op());
        assert!(r1.makespan_rounds > r2.makespan_rounds);
        assert!(
            r1.bytes_per_op() > r2.bytes_per_op(),
            "signatures cost bytes"
        );
    }

    #[test]
    fn trusted_baseline_is_cheapest() {
        let t = trace();
        let st = spec(ProtocolKind::Trusted);
        let mut sv = HonestServer::new(&st.config);
        let rt = simulate(&st, &mut sv, &t, None);
        let s2 = spec(ProtocolKind::Two);
        let mut sv2 = HonestServer::new(&s2.config);
        let r2 = simulate(&s2, &mut sv2, &t, None);
        assert!(rt.msgs_per_op() <= r2.msgs_per_op());
        assert_eq!(rt.sync_rounds, 0);
        assert!(r2.sync_rounds >= 1);
    }

    #[test]
    fn protocol3_runs_epoch_workload_cleanly() {
        let s = SimSpec {
            protocol: ProtocolKind::Three,
            config: ProtocolConfig {
                order: 8,
                k: 8,
                epoch_len: 24,
            },
            n_users: 3,
            mss_height: 7,
            setup_seed: [2; 32],
            final_sync: true,
            faults: tcvs_core::FaultPlan::none(),
        };
        let t = tcvs_workload::generate_epoch_workload(
            3,
            6,
            24,
            2,
            &WorkloadSpec {
                key_space: 16,
                ..WorkloadSpec::default()
            },
        );
        let mut server = HonestServer::new(&s.config);
        let r = simulate(&s, &mut server, &t, None);
        assert!(!r.detected(), "{:?}", r.detection);
        assert!(r.audits >= 3, "audits ran: {}", r.audits);
    }

    #[test]
    fn fork_attack_detected_by_protocol2_sync() {
        use tcvs_core::adversary::{ForkServer, Trigger};
        let s = spec(ProtocolKind::Two);
        let t = trace();
        let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
        let r = simulate(&s, &mut server, &t, Some(20));
        assert!(r.detected());
        let ev = r.detection.unwrap();
        assert_eq!(ev.deviation, Deviation::SyncFailed);
        // k-bounded: no user did more than k ops after the violation
        // (sync triggers as soon as the first user reaches k).
        assert!(ev.max_user_ops_after_violation.unwrap() <= s.config.k + 1);
    }

    /// A detection that comes before the harness's violation point caught
    /// something else: it has no delay, so neither k metric may report one.
    #[test]
    fn a_detection_before_the_violation_reports_no_k_metric() {
        use tcvs_core::adversary::{LieServer, Trigger};
        let s = spec(ProtocolKind::Two);
        let mut server = LieServer::new(&s.config, Trigger::AtCtr(5));
        let r = simulate(&s, &mut server, &trace(), Some(40));
        let ev = r.detection.expect("the lie is caught on its op");
        assert_eq!(ev.op_index, 5);
        assert_eq!(ev.ops_after_violation, None);
        assert_eq!(ev.max_user_ops_after_violation, None);
        assert!(r.detection_latency.is_none());
    }

    #[test]
    fn fork_attack_not_detected_without_sync_by_per_op_checks() {
        use tcvs_core::adversary::{ForkServer, Trigger};
        // Protocol II with k larger than the trace: sync never fires before
        // the end-of-trace sync. Per-op checks alone never catch the fork.
        let mut s = spec(ProtocolKind::Two);
        s.config.k = 10_000;
        let t = trace();
        let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
        let r = simulate(&s, &mut server, &t, Some(20));
        // The final forced sync still catches it — but only at the end.
        let ev = r.detection.expect("end-of-trace sync catches the fork");
        assert_eq!(ev.op_index, 60, "not before the trace ended");
    }

    #[test]
    fn benign_fault_storm_never_raises_an_alarm() {
        use tcvs_core::FaultRates;
        for p in [
            ProtocolKind::Trusted,
            ProtocolKind::One,
            ProtocolKind::Two,
            ProtocolKind::NaiveXor,
        ] {
            let s = spec(p).with_faults(FaultPlan::seeded(0xacce, 60, &FaultRates::heavy()));
            let mut server = HonestServer::new(&s.config);
            let r = simulate(&s, &mut server, &trace(), None);
            assert!(
                !r.detected(),
                "{p:?}: benign faults alarmed: {:?}",
                r.detection
            );
            assert_eq!(r.ops_executed, 60, "{p:?}: every op still executes");
            assert!(r.faults.total() > 0, "{p:?}: faults were injected");
        }
    }

    #[test]
    fn faults_cost_rounds_and_messages_but_nothing_else() {
        let t = trace();
        let clean = spec(ProtocolKind::Two);
        let mut sv = HonestServer::new(&clean.config);
        let r_clean = simulate(&clean, &mut sv, &t, None);
        let faulty = spec(ProtocolKind::Two).with_faults(FaultPlan::seeded(
            7,
            60,
            &tcvs_core::FaultRates::heavy(),
        ));
        let mut sv = HonestServer::new(&faulty.config);
        let r_faulty = simulate(&faulty, &mut sv, &t, None);
        assert!(r_faulty.makespan_rounds > r_clean.makespan_rounds);
        assert!(r_faulty.msgs > r_clean.msgs);
        assert_eq!(r_faulty.ops_executed, r_clean.ops_executed);
        assert_eq!(r_faulty.sync_rounds, r_clean.sync_rounds);
    }

    #[test]
    fn protocol3_epochs_survive_benign_faults() {
        use tcvs_core::{FaultRates, HonestServer};
        let mut s = spec(ProtocolKind::Three);
        s.config.epoch_len = 24;
        s.faults = FaultPlan::seeded(0xe9, 144, &FaultRates::light());
        let t = tcvs_workload::generate_epoch_workload(
            3,
            6,
            24,
            2,
            &WorkloadSpec {
                key_space: 16,
                ..WorkloadSpec::default()
            },
        );
        let mut server = HonestServer::new(&s.config);
        let r = simulate(&s, &mut server, &t, None);
        assert!(!r.detected(), "{:?}", r.detection);
        assert!(r.audits >= 1, "audits still ran: {}", r.audits);
    }

    #[test]
    fn fork_attack_still_k_bounded_under_faults() {
        use tcvs_core::adversary::{ForkServer, Trigger};
        use tcvs_core::FaultRates;
        let s = spec(ProtocolKind::Two).with_faults(FaultPlan::seeded(
            0xdead,
            60,
            &FaultRates::light(),
        ));
        let t = trace();
        let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
        let r = simulate(&s, &mut server, &t, Some(20));
        assert!(r.detected(), "faults must not mask the fork");
        let ev = r.detection.unwrap();
        assert_eq!(ev.deviation, Deviation::SyncFailed);
        assert!(ev.max_user_ops_after_violation.unwrap() <= s.config.k + 1);
    }

    #[test]
    fn scheduled_crash_restart_preserves_honest_state() {
        let mut plan = FaultPlan::none();
        plan.schedule(10, FaultKind::CrashRestart)
            .schedule(30, FaultKind::CrashRestart);
        let s = spec(ProtocolKind::Two).with_faults(plan);
        let mut server = HonestServer::new(&s.config);
        let r = simulate(&s, &mut server, &trace(), None);
        assert!(
            !r.detected(),
            "restart from persisted state: {:?}",
            r.detection
        );
        assert_eq!(r.faults.crashes, 2);
    }
}

//! Integration: the full adversary × protocol detection matrix, plus the
//! impossibility boundary (no external communication ⇒ forks invisible).

#[path = "tests/common/mod.rs"]
mod common;

use common::{make_adversary, spec, ADVERSARIES, PROTOCOLS};
use tcvs_core::{Deviation, ProtocolKind};
use tcvs_sim::simulate;
use tcvs_workload::{generate, generate_epoch_workload, OpMix, WorkloadSpec};

fn trace_for(protocol: ProtocolKind, seed: u64, epoch_len: u64) -> tcvs_workload::Trace {
    if protocol == ProtocolKind::Three {
        // write-heavy: includes the reads the stale-read adversary needs.
        generate_epoch_workload(
            4,
            9,
            epoch_len,
            2,
            &WorkloadSpec {
                n_users: 4,
                key_space: 32,
                mix: OpMix::write_heavy(),
                seed,
                ..WorkloadSpec::default()
            },
        )
    } else {
        generate(&WorkloadSpec {
            n_users: 4,
            n_ops: 100,
            key_space: 32,
            mix: OpMix::write_heavy(),
            seed,
            ..WorkloadSpec::default()
        })
    }
}

#[test]
fn every_adversary_detected_by_every_protocol() {
    for adversary in ADVERSARIES {
        for protocol in PROTOCOLS {
            for seed in [1u64, 2] {
                let s = spec(protocol, 4);
                let trace = trace_for(protocol, seed, s.config.epoch_len);
                let trigger = trace.len() as u64 / 3;
                let mut server = make_adversary(adversary, &s.config, trigger);
                let r = simulate(&s, server.as_mut(), &trace, Some(trigger));
                assert!(
                    r.detected(),
                    "{adversary} undetected by {protocol:?} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn detection_is_k_bounded_for_sync_protocols() {
    for adversary in ADVERSARIES {
        for protocol in [ProtocolKind::One, ProtocolKind::Two] {
            let s = spec(protocol, 4); // k = 8
            let trace = trace_for(protocol, 7, s.config.epoch_len);
            let trigger = trace.len() as u64 / 3;
            let mut server = make_adversary(adversary, &s.config, trigger);
            let r = simulate(&s, server.as_mut(), &trace, Some(trigger));
            let ev = r.detection.expect("detected");
            if let Some(m) = ev.max_user_ops_after_violation {
                assert!(
                    m <= s.config.k + 1,
                    "{adversary}/{protocol:?}: {m} > k = {}",
                    s.config.k
                );
            }
        }
    }
}

#[test]
fn forks_invisible_without_external_communication() {
    // Theorem 3.1's boundary: same fork, same workload, no sync-up channel.
    let mut s = spec(ProtocolKind::Two, 4);
    s.config.k = u64::MAX;
    s.final_sync = false;
    let trace = generate(&WorkloadSpec {
        n_users: 4,
        n_ops: 200,
        key_space: 32,
        mix: OpMix::write_heavy(),
        seed: 13,
        ..WorkloadSpec::default()
    });
    let mut server = make_adversary("fork", &s.config, 40);
    let r = simulate(&s, server.as_mut(), &trace, Some(40));
    assert!(
        !r.detected(),
        "per-op checks alone must NOT expose the fork: {:?}",
        r.detection
    );
    assert_eq!(r.ops_executed, 200, "both branches served to the end");
}

#[test]
fn naive_xor_misses_the_fig3_replay_but_detects_lies() {
    use tcvs_core::Op;
    use tcvs_merkle::u64_key;
    use tcvs_workload::{ScheduledOp, Trace};
    // Fig. 3 scenario (see E4): drop of one of two identical updates.
    let trace = Trace::new(vec![
        ScheduledOp {
            round: 0,
            user: 0,
            op: Op::Put(u64_key(1), b"base".to_vec()),
        },
        ScheduledOp {
            round: 1,
            user: 1,
            op: Op::Put(u64_key(2), b"same".to_vec()),
        },
        ScheduledOp {
            round: 2,
            user: 2,
            op: Op::Put(u64_key(2), b"same".to_vec()),
        },
    ]);
    let s = spec(ProtocolKind::NaiveXor, 3);
    let mut server = make_adversary("drop", &s.config, 1);
    let r = simulate(&s, server.as_mut(), &trace, Some(1));
    assert!(!r.detected(), "naive-xor is blind to the Fig. 3 replay");

    // Same trace, Protocol II: detected at the final sync.
    let s = spec(ProtocolKind::Two, 3);
    let mut server = make_adversary("drop", &s.config, 1);
    let r = simulate(&s, server.as_mut(), &trace, Some(1));
    assert_eq!(
        r.detection.expect("protocol II detects").deviation,
        Deviation::SyncFailed
    );

    // But naive-xor still catches outright lies (the Merkle layer works).
    let s = spec(ProtocolKind::NaiveXor, 3);
    let mut server = make_adversary("lie", &s.config, 1);
    let r = simulate(&s, server.as_mut(), &trace, Some(1));
    assert!(matches!(
        r.detection.expect("lie caught").deviation,
        Deviation::BadProof(_)
    ));
}

#[test]
fn immediate_vs_deferred_detection_classes() {
    // "lie" must be caught on the spot (op index == trigger); "fork" must
    // wait for a sync-up (op index > trigger).
    let s = spec(ProtocolKind::Two, 4);
    let trace = trace_for(ProtocolKind::Two, 3, s.config.epoch_len);
    let trigger = 30u64;

    let mut lie = make_adversary("lie", &s.config, trigger);
    let r = simulate(&s, lie.as_mut(), &trace, Some(trigger));
    let ev = r.detection.unwrap();
    assert_eq!(ev.op_index, trigger, "lie caught immediately");

    let mut fork = make_adversary("fork", &s.config, trigger);
    let r = simulate(&s, fork.as_mut(), &trace, Some(trigger));
    let ev = r.detection.unwrap();
    assert!(ev.op_index > trigger, "fork needs the sync-up");
    assert_eq!(ev.deviation, Deviation::SyncFailed);
}

/// The hide-key adversary is caught on the op it lies on, under every
/// protocol: a leaf that ships only pair digests cannot prove an absence,
/// so the replay stops with `IncompleteProof` before any sync-up.
#[test]
fn hidden_key_caught_on_the_hidden_op() {
    use tcvs_core::adversary::{HideKeyServer, Trigger};
    use tcvs_merkle::VerifyError;
    for protocol in PROTOCOLS {
        let s = spec(protocol, 4);
        let trace = trace_for(protocol, 5, s.config.epoch_len);
        let trigger = trace.len() as u64 / 3;
        let mut server = HideKeyServer::new(&s.config, Trigger::AtCtr(trigger));
        let r = simulate(&s, &mut server, &trace, Some(trigger));
        let ev = r.detection.expect("detected");
        assert_eq!(Some(ev.op_index), server.hidden_at(), "{protocol:?}");
        assert_eq!(
            ev.deviation,
            Deviation::BadProof(VerifyError::IncompleteProof),
            "{protocol:?}"
        );
    }
}

#[test]
fn honest_control_never_detected() {
    // Trigger::Never controls: the adversary wrappers in honest mode.
    use tcvs_core::adversary::{ForkServer, Trigger};
    let s = spec(ProtocolKind::Two, 4);
    let trace = trace_for(ProtocolKind::Two, 9, s.config.epoch_len);
    let mut server = ForkServer::new(&s.config, Trigger::Never, &[0]);
    let r = simulate(&s, &mut server, &trace, None);
    assert!(!r.detected());
    assert!(!server.forked());
}

/// Crashing is not an alibi: an adversary's crash-restart keeps its
/// malicious state, so a lie under seeded benign crash-restarts is still
/// caught on the op that carries it, while the same crashes on an honest
/// server raise nothing.
#[test]
fn a_lie_is_caught_at_its_counter_under_crash_restarts() {
    use tcvs_core::adversary::{LieServer, Trigger};
    use tcvs_core::{FaultPlan, FaultRates, HonestServer};
    const LIE_AT: u64 = 12;
    let trace = generate(&WorkloadSpec {
        n_users: 3,
        n_ops: 240,
        key_space: 128,
        mix: OpMix::write_heavy(),
        seed: 0x5a5a,
        ..WorkloadSpec::default()
    });
    let rates = FaultRates {
        drop_pct: 0,
        delay_pct: 0,
        dup_pct: 0,
        reorder_pct: 0,
        crash_pct: 12,
        storage_pct: 0,
        max_delay_rounds: 2,
    };
    let plan = FaultPlan::seeded(0xc4a5, trace.len() as u64, &rates);
    let s = spec(ProtocolKind::Two, 3).with_faults(plan);

    let mut honest = HonestServer::new(&s.config);
    let report = simulate(&s, &mut honest, &trace, None);
    assert!(!report.detected(), "{:?}", report.detection);
    assert!(report.faults.crashes > 0, "the plan crashed the server");
    assert_eq!(report.ops_executed, trace.len() as u64);

    let mut liar = LieServer::new(&s.config, Trigger::AtCtr(LIE_AT));
    let report = simulate(&s, &mut liar, &trace, Some(LIE_AT));
    let det = report.detection.expect("crashes must not mask the lie");
    assert_eq!(det.op_index, LIE_AT, "flagged at the deviating op");
    assert_eq!(det.ops_after_violation, Some(1), "caught on the lying op");
    assert!(report.faults.crashes > 0, "the liar was crashed too");
}

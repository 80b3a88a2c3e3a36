//! Determinism and accounting tests for the simulator: identical inputs
//! must produce bit-identical reports — the property that makes every
//! experiment in this repository reproducible.

use tcvs_core::adversary::{ForkServer, Trigger};
use tcvs_core::wire::{encoded_len, put_op};
use tcvs_core::{HonestServer, Op, ProtocolConfig, ProtocolKind};
use tcvs_sim::{initial_root, simulate, SimSpec};
use tcvs_workload::{generate, OpMix, WorkloadSpec};

fn spec(protocol: ProtocolKind) -> SimSpec {
    SimSpec {
        protocol,
        config: ProtocolConfig {
            order: 8,
            k: 8,
            epoch_len: 16,
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
fn honest_runs_are_deterministic() {
    for protocol in [ProtocolKind::One, ProtocolKind::Two] {
        let s = spec(protocol);
        let t = trace(3);
        let mut sv1 = HonestServer::new(&s.config);
        let r1 = simulate(&s, &mut sv1, &t, None);
        let mut sv2 = HonestServer::new(&s.config);
        let r2 = simulate(&s, &mut sv2, &t, None);
        assert_eq!(r1.ops_executed, r2.ops_executed);
        assert_eq!(r1.msgs, r2.msgs);
        assert_eq!(r1.bytes, r2.bytes);
        assert_eq!(r1.makespan_rounds, r2.makespan_rounds);
        assert_eq!(r1.sync_rounds, r2.sync_rounds);
        assert_eq!(r1.detected(), r2.detected());
    }
}

#[test]
fn adversarial_runs_are_deterministic() {
    let s = spec(ProtocolKind::Two);
    let t = trace(9);
    let run = || {
        let mut server = ForkServer::new(&s.config, Trigger::AtCtr(20), &[0]);
        simulate(&s, &mut server, &t, Some(20))
    };
    let (r1, r2) = (run(), run());
    let e1 = r1.detection.expect("detected");
    let e2 = r2.detection.expect("detected");
    assert_eq!(e1, e2, "identical detection events");
}

#[test]
fn initial_root_is_order_dependent_constant() {
    let c8 = ProtocolConfig {
        order: 8,
        ..ProtocolConfig::default()
    };
    let c16 = ProtocolConfig {
        order: 16,
        ..ProtocolConfig::default()
    };
    assert_eq!(initial_root(&c8), initial_root(&c8));
    // Empty-leaf digests do not depend on order (both are empty leaves).
    assert_eq!(initial_root(&c8), initial_root(&c16));
}

#[test]
fn request_size_accounts_for_payloads() {
    let size = |op: &Op| encoded_len(|c| put_op(c, op));
    let small = size(&Op::Get(vec![1, 2, 3]));
    let big = size(&Op::Put(vec![1, 2, 3], vec![0; 500]));
    assert_eq!(big, small + 8 + 500);
    let range = size(&Op::Range(Some(vec![1]), None));
    assert_eq!(range, 1 + (1 + 8 + 1) + 1);
}

#[test]
fn byte_accounting_scales_with_value_size() {
    let s = spec(ProtocolKind::Two);
    let small = generate(&WorkloadSpec {
        n_users: 3,
        n_ops: 50,
        value_len: 16,
        mix: OpMix::update_only(),
        seed: 4,
        ..WorkloadSpec::default()
    });
    let large = generate(&WorkloadSpec {
        n_users: 3,
        n_ops: 50,
        value_len: 1024,
        mix: OpMix::update_only(),
        seed: 4,
        ..WorkloadSpec::default()
    });
    let mut sv = HonestServer::new(&s.config);
    let r_small = simulate(&s, &mut sv, &small, None);
    let mut sv = HonestServer::new(&s.config);
    let r_large = simulate(&s, &mut sv, &large, None);
    assert!(
        r_large.bytes > r_small.bytes + 50 * 900,
        "value bytes must appear in the traffic accounting"
    );
}

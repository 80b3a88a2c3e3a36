//! Integration: workload generators driving real protocol runs, plus
//! property tests over trace structure.

#[path = "tests/common/mod.rs"]
mod common;

use common::spec;
use proptest::prelude::*;
use tcvs_core::{HonestServer, ProtocolKind};
use tcvs_sim::simulate;
use tcvs_workload::{
    generate, generate_epoch_workload, partitionable, OpMix, PartitionSpec, WorkloadSpec,
};

#[test]
fn partitionable_workload_runs_clean_on_honest_server() {
    // The workload itself is perfectly legal: an honest server serves it
    // without any detection.
    let w = partitionable(&PartitionSpec::default());
    let s = spec(ProtocolKind::Two, 4);
    let mut server = HonestServer::new(&s.config);
    let r = simulate(&s, &mut server, &w.trace, None);
    assert!(!r.detected(), "{:?}", r.detection);
}

#[test]
fn zipf_workloads_concentrate_on_hot_keys() {
    let t = generate(&WorkloadSpec {
        n_ops: 3000,
        key_space: 100,
        zipf_theta: 1.0,
        mix: OpMix::update_only(),
        ..WorkloadSpec::default()
    });
    // Count accesses to the hottest key (rank 0 => key 0).
    let hot = t
        .ops()
        .iter()
        .filter(|s| matches!(&s.op, tcvs_core::Op::Put(k, _) if k == &tcvs_merkle::u64_key(0)))
        .count();
    assert!(
        hot > 3000 / 100 * 3,
        "hot key must be >3x uniform share: {hot}"
    );
}

#[test]
fn epoch_workload_drives_protocol3_without_violation() {
    let s = spec(ProtocolKind::Three, 4);
    let t = generate_epoch_workload(
        4,
        6,
        s.config.epoch_len,
        2,
        &WorkloadSpec {
            n_users: 4,
            seed: 77,
            ..WorkloadSpec::default()
        },
    );
    let mut server = HonestServer::new(&s.config);
    let r = simulate(&s, &mut server, &t, None);
    assert!(!r.detected(), "{:?}", r.detection);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated traces are structurally sound for arbitrary specs.
    #[test]
    fn generated_traces_are_wellformed(
        n_users in 1u32..6,
        n_ops in 1usize..200,
        key_space in 1u64..100,
        theta in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let t = generate(&WorkloadSpec {
            n_users,
            n_ops,
            key_space,
            zipf_theta: theta,
            seed,
            ..WorkloadSpec::default()
        });
        prop_assert_eq!(t.len(), n_ops);
        prop_assert!(t.ops().iter().all(|s| s.user < n_users));
        // Rounds are non-decreasing.
        prop_assert!(t.ops().windows(2).all(|w| w[0].round <= w[1].round));
    }

    /// Epoch workloads always satisfy Protocol III's requirement.
    #[test]
    fn epoch_workloads_satisfy_requirement(
        n_users in 1u32..5,
        epochs in 1u64..6,
        ops_per_epoch in 2u64..4,
        seed in any::<u64>(),
    ) {
        let epoch_len = (n_users as u64 * ops_per_epoch) * 2;
        let t = generate_epoch_workload(n_users, epochs, epoch_len, ops_per_epoch, &WorkloadSpec {
            n_users,
            seed,
            ..WorkloadSpec::default()
        });
        for e in 0..epochs {
            for u in 0..n_users {
                let count = t.ops().iter()
                    .filter(|s| s.user == u && s.round / epoch_len == e)
                    .count() as u64;
                prop_assert!(count >= 2, "user {} epoch {}: {}", u, e, count);
            }
        }
    }

    /// Every honest run over a random workload passes, for every protocol
    /// (the big no-false-positive property).
    #[test]
    fn no_protocol_false_positives_on_random_workloads(
        seed in any::<u64>(),
        protocol in prop_oneof![
            Just(ProtocolKind::One),
            Just(ProtocolKind::Two),
            Just(ProtocolKind::NaiveXor),
        ],
    ) {
        let s = spec(protocol, 3);
        let t = generate(&WorkloadSpec {
            n_users: 3,
            n_ops: 60,
            key_space: 24,
            seed,
            ..WorkloadSpec::default()
        });
        let mut server = HonestServer::new(&s.config);
        let r = simulate(&s, &mut server, &t, None);
        prop_assert!(!r.detected(), "{:?}", r.detection);
    }

    /// Partitionable workloads keep their defining structure for arbitrary
    /// parameters.
    #[test]
    fn partitionable_structure_invariants(
        n_users in 2u32..8,
        warmup in 0u64..30,
        tail in 1u64..40,
        seed in any::<u64>(),
    ) {
        let w = partitionable(&PartitionSpec {
            n_users,
            warmup_ops: warmup,
            tail_ops: tail,
            key_space: 32,
            seed,
        });
        prop_assert_eq!(w.trace.len() as u64, warmup + 2 + tail);
        // After t1, only group B speaks.
        let after = &w.trace.ops()[w.t1_index as usize + 1..];
        prop_assert!(after.iter().all(|s| w.group_b.contains(&s.user)));
        // Groups partition all users.
        prop_assert_eq!(w.group_a.len() + w.group_b.len(), n_users as usize);
    }
}

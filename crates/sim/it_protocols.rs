//! Integration: honest servers across all protocols and workload shapes —
//! nothing may ever be (falsely) detected, and costs must order correctly.

#[path = "tests/common/mod.rs"]
mod common;

use common::{small_config, spec};
use tcvs_core::{HonestServer, ProtocolKind};
use tcvs_sim::simulate;
use tcvs_workload::{generate, generate_epoch_workload, OpMix, WorkloadSpec};

#[test]
fn no_false_positives_across_protocols_and_mixes() {
    for protocol in [
        ProtocolKind::Trusted,
        ProtocolKind::One,
        ProtocolKind::Two,
        ProtocolKind::NaiveXor,
    ] {
        for (mix, seed) in [
            (OpMix::read_heavy(), 1u64),
            (OpMix::write_heavy(), 2),
            (OpMix::update_only(), 3),
        ] {
            let s = spec(protocol, 4);
            let trace = generate(&WorkloadSpec {
                n_users: 4,
                n_ops: 120,
                key_space: 48,
                mix,
                seed,
                ..WorkloadSpec::default()
            });
            let mut server = HonestServer::new(&s.config);
            let r = simulate(&s, &mut server, &trace, None);
            assert!(
                !r.detected(),
                "{protocol:?} seed {seed}: false positive {:?}",
                r.detection
            );
            assert_eq!(r.ops_executed, 120);
        }
    }
}

#[test]
fn no_false_positives_protocol3_epoch_workloads() {
    for seed in 1..=3u64 {
        let s = spec(ProtocolKind::Three, 3);
        let trace = generate_epoch_workload(
            3,
            8,
            s.config.epoch_len,
            2,
            &WorkloadSpec {
                n_users: 3,
                key_space: 32,
                seed,
                ..WorkloadSpec::default()
            },
        );
        let mut server = HonestServer::new(&s.config);
        let r = simulate(&s, &mut server, &trace, None);
        assert!(!r.detected(), "seed {seed}: {:?}", r.detection);
        assert!(r.audits >= 4, "audits must run (got {})", r.audits);
    }
}

#[test]
fn cost_ordering_trusted_p2_p1() {
    let trace = generate(&WorkloadSpec {
        n_users: 4,
        n_ops: 150,
        mix: OpMix::write_heavy(),
        seed: 11,
        ..WorkloadSpec::default()
    });
    let mut results = Vec::new();
    for protocol in [ProtocolKind::Trusted, ProtocolKind::Two, ProtocolKind::One] {
        let s = spec(protocol, 4);
        let mut server = HonestServer::new(&s.config);
        results.push(simulate(&s, &mut server, &trace, None));
    }
    let (trusted, p2, p1) = (&results[0], &results[1], &results[2]);
    assert!(trusted.bytes_per_op() <= p2.bytes_per_op());
    assert!(
        p2.bytes_per_op() < p1.bytes_per_op(),
        "P1 adds signature bytes"
    );
    assert!(
        p2.msgs_per_op() < p1.msgs_per_op(),
        "P1 adds the deposit message"
    );
    assert!(
        p2.makespan_rounds < p1.makespan_rounds,
        "P1 blocks one extra round"
    );
}

#[test]
fn protocol2_sync_identifies_exactly_the_last_operator() {
    use tcvs_core::{Client2, ServerApi, SyncShare};
    let config = small_config();
    let mut server = HonestServer::new(&config);
    let root0 = tcvs_sim::initial_root(&config);
    let mut clients: Vec<Client2> = (0..5).map(|u| Client2::new(u, &root0, config)).collect();
    // Deterministic interleaving; user 3 goes last.
    let order = [0u32, 1, 2, 4, 0, 1, 2, 4, 3];
    for (i, &u) in order.iter().enumerate() {
        let op = tcvs_core::Op::Put(tcvs_merkle::u64_key(i as u64), vec![u as u8]);
        let resp = server.handle_op(u, &op, i as u64);
        clients[u as usize].handle_response(&op, &resp).unwrap();
    }
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    let successes: Vec<u32> = clients
        .iter()
        .filter(|c| c.sync_succeeds(&shares))
        .map(|c| c.user())
        .collect();
    assert_eq!(successes, vec![3], "only the final operator succeeds");
}

#[test]
fn protocol3_checkpoints_are_signed_and_chained() {
    use tcvs_core::ServerApi;
    let s = spec(ProtocolKind::Three, 3);
    let trace = generate_epoch_workload(
        3,
        8,
        s.config.epoch_len,
        2,
        &WorkloadSpec {
            n_users: 3,
            seed: 5,
            ..WorkloadSpec::default()
        },
    );
    let mut server = HonestServer::new(&s.config);
    let r = simulate(&s, &mut server, &trace, None);
    assert!(!r.detected());
    // Checkpoints exist for the audited prefix and rotate checkers.
    let (_, registry) = tcvs_crypto::setup_users(s.setup_seed, 3, s.mss_height);
    for e in 0..4u64 {
        let cp = server
            .fetch_checkpoint(0, e)
            .unwrap_or_else(|| panic!("checkpoint {e} missing"));
        assert_eq!(cp.checker, (e % 3) as u32);
        let payload = tcvs_core::SignedCheckpoint::payload(cp.epoch, cp.checker, &cp.final_token);
        assert!(registry.verify(cp.checker, &payload, &cp.sig));
    }
}

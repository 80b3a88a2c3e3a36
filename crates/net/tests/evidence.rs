//! End-to-end evidence capture over the wire: a per-op rejection stashes a
//! portable bundle, a failed sync-up hands back an evidence builder (and
//! the grafted transition logs let the cold audit name the forked
//! counter), and the sealed bytes survive the independent verifier while
//! any single-byte mutation is rejected.

use tcvs_core::adversary::{ForkServer, LieServer, Trigger};
use tcvs_core::{audit_bytes, EvidenceKind, HonestServer, Op, ProtocolConfig};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient2, NetServer};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

/// A lying server's rejected response leaves an auditable bundle on the
/// client: the independent verifier accepts the sealed bytes and reads the
/// exact verdict out of them, and every single-byte mutation is rejected.
#[test]
fn per_op_rejection_captures_an_auditable_bundle() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))), false);
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = NetClient2::new(0, &root0, cfg, &server);
    c.enable_logging();
    c.set_evidence_seed(0xDEC0DE);

    let mut verdict = None;
    for i in 0..16u64 {
        if let Err(e) = c.execute(&Op::Put(u64_key(i), vec![i as u8])) {
            verdict = Some((i, e));
            break;
        }
    }
    let (at, _err) = verdict.expect("the lie went undetected");
    assert_eq!(at, 3, "caught on the very response that carried the lie");

    let bundle = c.take_evidence().expect("rejection captured evidence");
    assert!(c.take_evidence().is_none(), "the stash holds one bundle");
    assert_eq!(bundle.kind, EvidenceKind::ProtocolVerdict);
    assert_eq!(bundle.seed, 0xDEC0DE);
    assert_eq!(bundle.trigger.deviation, "bad-proof");
    assert_eq!(bundle.vos.len(), 1, "the offending VO rides along");
    assert_eq!(
        bundle.transition_logs.len(),
        1,
        "the client's accepted-transition history rides along"
    );

    let bytes = bundle.to_bytes();
    let report = audit_bytes(&bytes);
    assert!(report.accepted, "authentic bundle: {:?}", report.rejection);
    assert_eq!(report.kind.as_deref(), Some("protocol-verdict"));
    assert_eq!(report.protocol, "protocol-2");

    // Any single mutated byte is rejected — sample every 11th position to
    // keep the integration test quick (the exhaustive sweep lives in the
    // core unit tests).
    for at in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            !audit_bytes(&bad).accepted,
            "flipped byte {at} must reject the artifact"
        );
    }
    server.shutdown();
}

/// A fork on the one server: per-op exchanges stay clean on both
/// branches, the sync-up fails, and the captured bundle — with the other
/// user's transition log grafted in — lets the cold audit independently
/// confirm the deviation and name `fork` at the exact forked counter.
/// Sealing the same capture twice gives identical bytes.
#[test]
fn a_fork_caught_at_sync_up_is_confirmed_cold_at_its_counter() {
    const FORK_AT: u64 = 5;
    let cfg = config();
    // Partition user 0 onto branch A; user 1 continues on B.
    let server = NetServer::spawn(
        Box::new(ForkServer::new(&cfg, Trigger::AtCtr(FORK_AT), &[0])),
        false,
    );
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut alice = NetClient2::new(0, &root0, cfg, &server);
    let mut bob = NetClient2::new(1, &root0, cfg, &server);
    alice.enable_logging();
    bob.enable_logging();
    alice.set_evidence_seed(77);

    // Interleave writes; each branch of the fork stays self-consistent, so
    // no per-op exchange alarms — the fork only surfaces at sync-up.
    for i in 0..40u64 {
        alice
            .execute(&Op::Put(u64_key(2 * i), vec![1]))
            .expect("branch A self-consistent");
        bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
            .expect("branch B self-consistent");
    }
    let shares = [alice.sync_share(), bob.sync_share()];
    assert!(!alice.sync_succeeds(&shares) && !bob.sync_succeeds(&shares));

    // Capture: alice's builder carries her whole view; the harness grafts
    // bob's log and seals.
    let seal = || {
        let bob_log = bob.transition_log().expect("logging enabled");
        alice
            .sync_evidence(&shares)
            .expect("the failed sync-up is captured")
            .transition_log(0, bob.user(), bob_log)
            .build()
    };
    let bundle = seal();
    assert_eq!(bundle.kind, EvidenceKind::ProtocolVerdict);
    assert_eq!(bundle.seed, 77);
    assert_eq!(bundle.trigger.deviation, "sync-failed");
    assert_eq!(bundle.claimed_deviating_shards, vec![0]);

    let report = audit_bytes(&bundle.to_bytes());
    assert!(report.accepted, "authentic bundle: {:?}", report.rejection);
    assert!(report.confirmed, "the audit re-derives the deviation cold");
    assert_eq!(report.deviating_shards, vec![0]);
    let culprit = report
        .culprit
        .as_ref()
        .expect("transition logs pin the fork");
    assert_eq!(culprit.shard, 0);
    assert_eq!(culprit.class, "fork");
    assert_eq!(
        culprit.at_ctr, FORK_AT,
        "the audit names the exact forked counter"
    );
    assert_eq!(culprit.users, vec![0, 1], "both sides of the fork");
    assert!(report
        .render_text()
        .contains("culprit: shard 0 fork at ctr 5"));
    assert_eq!(seal().to_bytes(), bundle.to_bytes(), "resealing is stable");
    server.shutdown();
}

/// An honest run captures nothing: no per-op stash, no sync-up evidence —
/// evidence capture is free on the honest path.
#[test]
fn an_honest_sync_up_captures_no_evidence() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = NetClient2::new(0, &root0, cfg, &server);
    c.enable_logging();
    for i in 0..30u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("honest server");
    }
    assert!(c.take_evidence().is_none());
    let shares = [c.sync_share()];
    assert!(c.sync_succeeds(&shares));
    assert!(c.sync_evidence(&shares).is_none());
    server.shutdown();
}

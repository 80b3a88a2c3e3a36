//! End-to-end evidence capture over the wire: a per-op or window rejection
//! stashes a portable bundle that the cold audit confirms by failing the
//! client's own check again on the sealed exchange, a failed sync-up hands
//! back an evidence builder (and the grafted transition logs let the cold
//! audit name the forked counter), an honest exchange sealed under a false
//! claim confirms nothing, and a client whose own key ran out seals
//! nothing.

use tcvs_core::adversary::{all_adversaries, ForkServer, LieServer, Trigger};
use tcvs_core::{
    audit_bytes, Anchor, AuditReport, Deviation, EvidenceBuilder, EvidenceBundle, EvidenceKind,
    Exchange, HonestServer, Op, ProtocolConfig, ServerApi,
};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient1, NetClient2, NetError, NetServer};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

/// The check named `name` in `report`, and whether it passed.
fn check(report: &AuditReport, name: &str) -> Option<bool> {
    report
        .checks
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.passed)
}

/// A lying server's rejected response leaves an auditable bundle on the
/// client: the independent verifier re-runs the client's check on the
/// sealed exchange, sees it fail with the reporter's verdict, and confirms
/// the deviation cold; every single-byte mutation is rejected.
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
    match &bundle.exchange {
        Some(Exchange::Op { anchor, op, reply }) => {
            assert_eq!(*anchor, Anchor { order: 8, gctr: 3 });
            assert_eq!(*op, Op::Put(u64_key(3), vec![3]));
            assert_eq!(reply.ctr, 3, "the whole rejected reply rides along");
        }
        other => panic!("expected the rejected op's exchange, got {other:?}"),
    }
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
    assert!(report.confirmed, "{}", report.render_text());
    assert_eq!(check(&report, "reply-check"), Some(false));
    assert_eq!(check(&report, "verdict-consistent"), Some(true));
    assert!(
        report
            .render_text()
            .contains("reporter claimed bad-proof, audit re-derived bad-proof"),
        "{}",
        report.render_text()
    );

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

/// An honest exchange sealed under a claimed `bad-proof` proves nothing:
/// the audit re-derives the verdict from the reply instead of echoing the
/// reporter's, so the bundle is accepted, not confirmed, and its claim is
/// flagged as inconsistent.
#[test]
fn an_honest_exchange_sealed_as_a_bad_proof_is_not_confirmed() {
    let cfg = config();
    let mut server = HonestServer::new(&cfg);
    for i in 0..5u64 {
        server.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
    }
    let op = Op::Get(u64_key(2));
    let reply = server.handle_op(1, &op, 5);
    let claim = Deviation::BadProof(tcvs_merkle::VerifyError::BatchLengthMismatch);
    let bundle = EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 1, "protocol-2")
        .deviation(&claim)
        .exchange(Some(Exchange::Op {
            anchor: Anchor { order: 8, gctr: 5 },
            op,
            reply,
        }))
        .build();
    let report = audit_bytes(&bundle.to_bytes());
    assert!(report.accepted, "{:?}", report.rejection);
    assert!(!report.confirmed, "{}", report.render_text());
    assert_eq!(check(&report, "reply-check"), Some(true));
    assert_eq!(check(&report, "verdict-consistent"), Some(false));
    assert!(report
        .render_text()
        .contains("reporter claimed bad-proof, audit re-derived none"));
}

/// How a sweep run ended.
enum Outcome {
    /// A per-op or window rejection, with the bundle it sealed.
    Rejected(EvidenceBundle),
    /// No reply was rejected, and the sync-up failed; its bundle.
    SyncFailed(EvidenceBundle),
    /// No reply was rejected, and the sync-up passed.
    Clean,
}

/// Runs two logging Protocol II users against `server`, alternating 48
/// ops each — one at a time, or in windows of `window` — until a reply is
/// rejected, then syncs up if none was.
fn sweep(server: Box<dyn ServerApi + Send>, window: usize) -> Outcome {
    let cfg = config();
    let server = NetServer::spawn(server, false);
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut users: Vec<NetClient2> = (0..2)
        .map(|u| NetClient2::new(u, &root0, cfg, &server))
        .collect();
    for c in &mut users {
        c.enable_logging();
    }
    let ops: Vec<Op> = (0..96u64)
        .map(|i| match i % 3 {
            0 => Op::Get(u64_key(i % 7)),
            _ => Op::Put(u64_key(i % 11), vec![i as u8]),
        })
        .collect();
    let mut rejected = None;
    for (w, chunk) in ops.chunks(window).enumerate() {
        let c = &mut users[w % 2];
        let out = if window == 1 {
            c.execute(&chunk[0]).map(drop)
        } else {
            c.execute_batch(chunk).map(drop)
        };
        match out {
            Ok(()) => {}
            Err(NetError::Deviation(_)) => {
                rejected = Some(c.take_evidence().expect("a rejection seals a bundle"));
                break;
            }
            Err(e) => panic!("transport failure: {e}"),
        }
    }
    let outcome = match rejected {
        Some(bundle) => Outcome::Rejected(bundle),
        None => {
            let shares: Vec<_> = users.iter().map(NetClient2::sync_share).collect();
            match users[0].sync_evidence(&shares) {
                None => Outcome::Clean,
                Some(b) => {
                    let log = users[1].transition_log().expect("logging enabled");
                    Outcome::SyncFailed(b.transition_log(1, log).build())
                }
            }
        }
    };
    server.shutdown();
    outcome
}

/// Every adversary, against Protocol II clients per op and in windows of
/// 8: every bundle a rejected reply seals is confirmed cold by the
/// client's own check failing again, every sync-up bundle is confirmed by
/// the sync-up predicate, and an honest server seals nothing. A window the
/// hide-key server lies in is among the confirmed bundles.
#[test]
fn every_adversarys_bundle_is_confirmed_cold_per_op_and_in_windows() {
    let cfg = config();
    let mut window_failures = Vec::new();
    for window in [1usize, 8] {
        for (name, server) in all_adversaries(&cfg, Trigger::AtCtr(20), 2) {
            let (bundle, rerun) = match sweep(server, window) {
                Outcome::Rejected(b) => (b, true),
                Outcome::SyncFailed(b) => (b, false),
                Outcome::Clean => panic!("{name} (window {window}) went undetected"),
            };
            let report = audit_bytes(&bundle.to_bytes());
            let text = report.render_text();
            assert!(report.confirmed, "{name} (window {window}):\n{text}");
            assert_eq!(check(&report, "verdict-consistent"), Some(true), "{text}");
            let (decisive, other) = match rerun {
                true => ("reply-check", "sync-predicate"),
                false => ("sync-predicate", "reply-check"),
            };
            assert_eq!(check(&report, decisive), Some(false), "{name}: {text}");
            assert_eq!(check(&report, other), None, "{name}: {text}");
            if bundle.kind == EvidenceKind::BatchVerifyFailure {
                assert!(matches!(bundle.exchange, Some(Exchange::Window { .. })));
                window_failures.push(name);
            }
        }
        let honest = Box::new(HonestServer::new(&cfg));
        assert!(
            matches!(sweep(honest, window), Outcome::Clean),
            "an honest server (window {window}) sealed evidence"
        );
    }
    assert!(
        window_failures.contains(&"hide-key"),
        "confirmed window bundles: {window_failures:?}"
    );
}

/// A Protocol I client whose one-time keys run out reports its own fault,
/// `KeyExhausted`, and seals no bundle: one would accuse an honest server.
#[test]
fn a_client_whose_key_ran_out_seals_nothing() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), true);
    let (mut rings, registry) = setup_users([0x4e; 32], 1, 2);
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = NetClient1::new(rings.remove(0), registry, cfg, &server);
    c.deposit_initial(&root0).expect("a fresh key signs");
    let failure = (0..64u64)
        .find_map(|i| c.execute(&Op::Put(u64_key(i), vec![1])).err())
        .expect("a height-2 key runs out within 64 ops");
    assert!(
        matches!(failure, NetError::Deviation(Deviation::KeyExhausted)),
        "{failure:?}"
    );
    assert!(
        c.take_evidence().is_none(),
        "key exhaustion sealed a bundle"
    );
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
            .transition_log(bob.user(), bob_log)
            .build()
    };
    let bundle = seal();
    assert_eq!(bundle.kind, EvidenceKind::ProtocolVerdict);
    assert_eq!(bundle.seed, 77);
    assert_eq!(bundle.trigger.deviation, "sync-failed");
    assert_eq!(bundle.trigger.user, Some(0));
    assert!(bundle.exchange.is_none());

    let report = audit_bytes(&bundle.to_bytes());
    assert!(report.accepted, "authentic bundle: {:?}", report.rejection);
    assert!(report.confirmed, "the audit re-derives the deviation cold");
    assert_eq!(check(&report, "sync-predicate"), Some(false));
    assert_eq!(check(&report, "verdict-consistent"), Some(true));
    let culprit = report
        .culprit
        .as_ref()
        .expect("transition logs pin the fork");
    assert_eq!(culprit.class, "fork");
    assert_eq!(
        culprit.at_ctr, FORK_AT,
        "the audit names the exact forked counter"
    );
    assert_eq!(culprit.users, vec![0, 1], "both sides of the fork");
    assert!(report.render_text().contains("culprit: fork at ctr 5"));
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

//! Property tests for the protocol layer: soundness (honest runs always
//! pass) and completeness (structural faults always fail) of the Protocol
//! II accumulator check, over arbitrary interleavings — the executable
//! version of Lemma 4.1.

use proptest::prelude::*;
use tcvs_core::{Client2, Digest, HonestServer, Op, ProtocolConfig, ServerApi, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: u64::MAX,
        epoch_len: 1 << 30,
    }
}

/// A compact op encoding for generation.
#[derive(Clone, Debug)]
struct GenOp {
    user: u8,
    key: u8,
    kind: u8,
}

fn genop_strategy() -> impl Strategy<Value = GenOp> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(user, key, kind)| GenOp { user, key, kind })
}

fn to_op(g: &GenOp) -> Op {
    let key = u64_key(g.key as u64 % 32);
    match g.kind % 4 {
        0 => Op::Get(key),
        1 => Op::Put(key, vec![g.kind, g.key]),
        2 => Op::Delete(key),
        _ => Op::Range(Some(u64_key(0)), Some(key)),
    }
}

fn run_honest(ops: &[GenOp], n_users: u32) -> (Vec<Client2>, HonestServer) {
    let cfg = config();
    let mut server = HonestServer::new(&cfg);
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut clients: Vec<Client2> = (0..n_users).map(|u| Client2::new(u, &root0, cfg)).collect();
    for (i, g) in ops.iter().enumerate() {
        let u = (g.user as u32) % n_users;
        let op = to_op(g);
        let resp = server.handle_op(u, &op, i as u64);
        clients[u as usize]
            .handle_response(&op, &resp)
            .expect("honest server never fails per-op checks");
    }
    (clients, server)
}

fn sync_ok(clients: &[Client2]) -> bool {
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    clients.iter().any(|c| c.sync_succeeds(&shares))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: every honest interleaving passes the sync-up, and exactly
    /// one user claims success (unless nobody operated).
    #[test]
    fn honest_interleavings_always_pass(
        ops in proptest::collection::vec(genop_strategy(), 0..80),
        n_users in 1u32..6,
    ) {
        let (clients, _) = run_honest(&ops, n_users);
        let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        let successes = clients.iter().filter(|c| c.sync_succeeds(&shares)).count();
        if ops.is_empty() {
            prop_assert!(successes >= 1, "trivial pass when no ops happened");
        } else {
            prop_assert_eq!(successes, 1, "exactly the final operator succeeds");
        }
    }

    /// Completeness against share tampering: flipping any bit of any user's
    /// accumulator makes the sync-up fail (no user succeeds).
    #[test]
    fn any_sigma_corruption_fails_sync(
        ops in proptest::collection::vec(genop_strategy(), 1..60),
        n_users in 2u32..5,
        victim in any::<prop::sample::Index>(),
        bit in 0usize..256,
    ) {
        let (clients, _) = run_honest(&ops, n_users);
        let mut shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        let v = victim.index(shares.len());
        shares[v].sigma.0[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            !clients.iter().any(|c| c.sync_succeeds(&shares)),
            "corrupted σ must break the path equation"
        );
    }

    /// Completeness against hidden transitions: erasing a user's entire
    /// contribution fails the sync-up — **provided** someone else operated
    /// after them. (Hiding exactly the final operator's history is a
    /// rollback: the remaining shares describe a consistent shorter run,
    /// which is precisely why rollbacks are only caught at the *next*
    /// operation — the paper's detection bound, not a flaw.)
    #[test]
    fn hiding_non_suffix_history_fails_sync(
        ops in proptest::collection::vec(genop_strategy(), 2..60),
        n_users in 2u32..5,
        victim in any::<prop::sample::Index>(),
    ) {
        let (clients, _) = run_honest(&ops, n_users);
        let mut shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
        let v = victim.index(shares.len());
        let last_operator = (ops.last().unwrap().user as u32 % n_users) as usize;
        if shares[v].lctr == 0 {
            // A silent user's share is already empty; nothing to hide.
            prop_assert!(sync_ok(&clients));
        } else if v == last_operator {
            // Rollback case: hiding the final operator can only *shorten*
            // the apparent history; the check may legitimately pass, so the
            // property asserts nothing here beyond "no panic".
        } else {
            shares[v].sigma = Digest::ZERO;
            shares[v].lctr = 0;
            shares[v].last = None;
            prop_assert!(
                !clients.iter().any(|c| c.sync_succeeds(&shares)),
                "vanished mid-history transitions must break the path equation"
            );
        }
    }

    /// The server's answers under verification equal a plain BTreeMap
    /// model: the protocol layer never alters semantics.
    #[test]
    fn verified_answers_match_model(
        ops in proptest::collection::vec(genop_strategy(), 1..60),
    ) {
        use std::collections::BTreeMap;
        let cfg = config();
        let mut server = HonestServer::new(&cfg);
        let root0 = MerkleTree::with_order(cfg.order).root_digest();
        let mut client = Client2::new(0, &root0, cfg);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (i, g) in ops.iter().enumerate() {
            let op = to_op(g);
            let resp = server.handle_op(0, &op, i as u64);
            let result = client.handle_response(&op, &resp).unwrap();
            let expect = match &op {
                Op::Get(k) => tcvs_core::OpResult::Value(model.get(k).cloned()),
                Op::Put(k, v) => {
                    tcvs_core::OpResult::Replaced(model.insert(k.clone(), v.clone()))
                }
                Op::Delete(k) => tcvs_core::OpResult::Deleted(model.remove(k)),
                Op::Range(lo, hi) => tcvs_core::OpResult::Entries(
                    model
                        .iter()
                        .filter(|(k, _)| {
                            lo.as_ref().is_none_or(|l| *k >= l)
                                && hi.as_ref().is_none_or(|h| *k < h)
                        })
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            };
            prop_assert_eq!(result, expect);
        }
    }

    /// Forensics round trip: honest logs diagnose as a clean path whose
    /// final token matches the last operator's `last`.
    #[test]
    fn forensics_clean_on_honest_runs(
        ops in proptest::collection::vec(genop_strategy(), 1..50),
        n_users in 1u32..4,
    ) {
        use tcvs_core::forensics::{diagnose, Verdict};
        use tcvs_core::state::initial_token;
        let cfg = config();
        let mut server = HonestServer::new(&cfg);
        let root0 = MerkleTree::with_order(cfg.order).root_digest();
        let mut clients: Vec<Client2> = (0..n_users)
            .map(|u| {
                let mut c = Client2::new(u, &root0, cfg);
                c.enable_logging();
                c
            })
            .collect();
        for (i, g) in ops.iter().enumerate() {
            let u = (g.user as u32) % n_users;
            let op = to_op(g);
            let resp = server.handle_op(u, &op, i as u64);
            clients[u as usize].handle_response(&op, &resp).unwrap();
        }
        let logs: Vec<_> = clients
            .iter()
            .map(|c| c.transition_log().unwrap().clone())
            .collect();
        match diagnose(&logs, &initial_token(&root0)) {
            Verdict::CleanPath { length, .. } => prop_assert_eq!(length, ops.len()),
            other => prop_assert!(false, "honest run must be clean: {:?}", other),
        }
    }

    /// Forensics localization: a fork injected at a random point is located
    /// at exactly that counter value.
    #[test]
    fn forensics_locates_forks_exactly(
        pre_ops in proptest::collection::vec(genop_strategy(), 1..30),
        post_ops in proptest::collection::vec(genop_strategy(), 1..20),
    ) {
        use tcvs_core::adversary::{ForkServer, Trigger};
        use tcvs_core::forensics::{diagnose, Verdict};
        use tcvs_core::state::initial_token;
        let cfg = config();
        let fork_at = pre_ops.len() as u64;
        let mut server = ForkServer::new(&cfg, Trigger::AtCtr(fork_at), &[0]);
        let root0 = MerkleTree::with_order(cfg.order).root_digest();
        let mut clients: Vec<Client2> = (0..2u32)
            .map(|u| {
                let mut c = Client2::new(u, &root0, cfg);
                c.enable_logging();
                c
            })
            .collect();
        let mut round = 0u64;
        for g in &pre_ops {
            let u = (g.user as u32) % 2;
            let op = to_op(g);
            let resp = server.handle_op(u, &op, round);
            clients[u as usize].handle_response(&op, &resp).unwrap();
            round += 1;
        }
        // Both users operate after the fork so both branches are populated.
        for (i, g) in post_ops.iter().enumerate() {
            for u in 0..2u32 {
                let op = to_op(&GenOp { user: u as u8, key: g.key.wrapping_add(i as u8), kind: g.kind });
                let resp = server.handle_op(u, &op, round);
                clients[u as usize].handle_response(&op, &resp).unwrap();
                round += 1;
            }
        }
        let logs: Vec<_> = clients
            .iter()
            .map(|c| c.transition_log().unwrap().clone())
            .collect();
        match diagnose(&logs, &initial_token(&root0)) {
            Verdict::Fork { at_ctr, .. } => prop_assert_eq!(at_ctr, fork_at),
            other => prop_assert!(false, "fork must be located: {:?}", other),
        }
    }
}

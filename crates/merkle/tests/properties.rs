//! Property-based tests: the Merkle B+-tree must agree with a BTreeMap model
//! under arbitrary operation sequences, maintain its invariants, and produce
//! verification objects that replay to exactly the server transition.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tcvs_merkle::{
    apply_op, batchable, prune_for_op, prune_for_ops, verify_response, BatchProof, MerkleTree, Op,
    OpResult, VerificationObject,
};

/// A compact operation description for proptest generation.
#[derive(Clone, Debug)]
enum Action {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Range(u16, u16),
    /// Range with optional bounds: `None` on either side is an open end, so
    /// `RangeOpen(None, None)` is a full scan.
    RangeOpen(Option<u16>, Option<u16>),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Action::Put(k % 512, v)),
        any::<u16>().prop_map(|k| Action::Delete(k % 512)),
        any::<u16>().prop_map(|k| Action::Get(k % 512)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Action::Range(a % 512, b % 512)),
        (any::<bool>(), any::<u16>(), any::<bool>(), any::<u16>()).prop_map(|(la, a, lb, b)| {
            Action::RangeOpen(la.then_some(a % 512), lb.then_some(b % 512))
        }),
    ]
}

fn key(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn to_op(a: &Action) -> Op {
    match a {
        Action::Put(k, v) => Op::Put(key(*k), vec![*v, 0xEE]),
        Action::Delete(k) => Op::Delete(key(*k)),
        Action::Get(k) => Op::Get(key(*k)),
        Action::Range(a, b) => {
            let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
            Op::Range(Some(key(lo)), Some(key(hi)))
        }
        Action::RangeOpen(a, b) => {
            let (lo, hi) = match (a, b) {
                (Some(a), Some(b)) if a > b => (Some(*b), Some(*a)),
                _ => (*a, *b),
            };
            Op::Range(lo.map(key), hi.map(key))
        }
    }
}

/// Applies an op to the reference model.
fn model_apply(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) -> OpResult {
    match op {
        Op::Get(k) => OpResult::Value(model.get(k).cloned()),
        Op::Range(lo, hi) => {
            let es: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| {
                    lo.as_ref().is_none_or(|l| *k >= l) && hi.as_ref().is_none_or(|h| *k < h)
                })
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            OpResult::Entries(es)
        }
        Op::Put(k, v) => OpResult::Replaced(model.insert(k.clone(), v.clone())),
        Op::Delete(k) => OpResult::Deleted(model.remove(k)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree agrees with a BTreeMap under arbitrary op sequences, for
    /// multiple branching orders, while keeping its invariants.
    #[test]
    fn tree_matches_model(
        actions in proptest::collection::vec(action_strategy(), 1..200),
        order in prop_oneof![Just(4usize), Just(5), Just(8), Just(16)],
    ) {
        let mut tree = MerkleTree::with_order(order);
        let mut model = BTreeMap::new();
        for a in &actions {
            let op = to_op(a);
            let got = apply_op(&mut tree, &op).unwrap();
            let want = model_apply(&mut model, &op);
            prop_assert_eq!(got, want);
        }
        tree.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), Some(model.len()));
        // Full scan agrees with the model.
        let entries = tree.entries().unwrap();
        let expect: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(entries, expect);
    }

    /// Every verification object replays to exactly the server's transition:
    /// same answer, same new root — the heart of §4.1.
    #[test]
    fn verification_objects_replay_faithfully(
        setup in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..100),
        actions in proptest::collection::vec(action_strategy(), 1..60),
    ) {
        let mut server = MerkleTree::with_order(4);
        for (k, v) in &setup {
            server.insert(key(k % 256), vec![*v]).unwrap();
        }
        for a in &actions {
            let op = to_op(a);
            let known_root = server.root_digest();
            let vo = VerificationObject::new(prune_for_op(&server, &op));
            let answer = apply_op(&mut server, &op).unwrap();
            let new_root = server.root_digest();
            let verified = verify_response(
                &known_root, 4, &vo, &op, Some(&answer), Some(&new_root),
            ).map_err(|e| TestCaseError::fail(format!("{a:?}: {e}")))?;
            prop_assert_eq!(verified.new_root, new_root);
        }
    }

    /// Tampering with any materialized byte region of a VO (here: entry
    /// values via a rebuilt tree) must change its root digest — the client
    /// would reject it.
    #[test]
    fn digest_binds_content(
        kvs in proptest::collection::btree_map(any::<u16>(), any::<u8>(), 1..60),
        victim_idx in any::<prop::sample::Index>(),
    ) {
        let mut t1 = MerkleTree::with_order(4);
        let mut t2 = MerkleTree::with_order(4);
        let items: Vec<_> = kvs.iter().collect();
        let victim = victim_idx.index(items.len());
        for (i, (k, v)) in items.iter().enumerate() {
            t1.insert(key(**k), vec![**v]).unwrap();
            let tampered = if i == victim { vec![**v ^ 1] } else { vec![**v] };
            t2.insert(key(**k), tampered).unwrap();
        }
        prop_assert_ne!(t1.root_digest(), t2.root_digest());
    }

    /// Point proofs contain the queried key's leaf and verify even for
    /// absent keys (non-membership).
    #[test]
    fn point_proofs_cover_membership_and_absence(
        present in proptest::collection::btree_set(any::<u16>(), 1..200),
        probe in any::<u16>(),
    ) {
        let mut server = MerkleTree::with_order(8);
        for k in &present {
            server.insert(key(*k), b"v".to_vec()).unwrap();
        }
        let root = server.root_digest();
        let op = Op::Get(key(probe));
        let vo = VerificationObject::new(prune_for_op(&server, &op));
        let verified = verify_response(&root, 8, &vo, &op, None, None).unwrap();
        let expect = if present.contains(&probe) {
            OpResult::Value(Some(b"v".to_vec()))
        } else {
            OpResult::Value(None)
        };
        prop_assert_eq!(verified.result, expect);
    }

    /// Insertion order does not affect the set of entries (content
    /// determinism), and deleting everything returns to the canonical empty
    /// digest regardless of history.
    #[test]
    fn history_independence_of_content(
        mut keys in proptest::collection::vec(any::<u16>(), 1..150),
    ) {
        let mut t = MerkleTree::with_order(4);
        for k in &keys {
            t.insert(key(*k), b"x".to_vec()).unwrap();
        }
        keys.sort();
        keys.dedup();
        prop_assert_eq!(t.len(), Some(keys.len()));
        // Delete in a different order than insertion.
        for k in keys.iter().rev() {
            prop_assert!(t.delete(&key(*k)).unwrap().is_some());
        }
        prop_assert_eq!(t.root_digest(), MerkleTree::with_order(4).root_digest());
    }

    /// `encoded_size` is counted by the encoder itself: it equals
    /// `to_bytes().len()` for full trees and for every proof shape —
    /// point, range, delete and batch — through splits and merges.
    #[test]
    fn encoded_size_is_the_encoded_length(
        setup in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..160),
        actions in proptest::collection::vec(action_strategy(), 1..40),
        order in prop_oneof![Just(4usize), Just(16)],
    ) {
        let mut server = MerkleTree::with_order(order);
        for (k, v) in &setup {
            server.insert(key(k % 512), vec![*v; (*v % 40) as usize]).unwrap();
        }
        let ops: Vec<Op> = actions.iter().map(to_op).collect();
        let window: Vec<Op> = ops.iter().filter(|op| batchable(op)).cloned().collect();
        let batch = BatchProof::new(prune_for_ops(&server, &window));
        prop_assert_eq!(batch.encoded_size(), batch.to_bytes().len());
        for op in &ops {
            let vo = VerificationObject::new(prune_for_op(&server, op));
            prop_assert_eq!(vo.encoded_size(), vo.to_bytes().len(), "{:?}", op);
            apply_op(&mut server, op).unwrap();
            prop_assert_eq!(server.encoded_size(), server.to_bytes().len());
        }
    }

    /// An `O(1)` Arc-sharing clone and an eager deep copy (codec round-trip,
    /// zero shared nodes) are observationally identical: same answers,
    /// byte-identical proofs, bit-identical root digests, same verify
    /// verdicts — and the frozen original never moves while its clone
    /// diverges through arbitrary splits and merges.
    #[test]
    fn cow_clone_matches_eager_deep_copy(
        setup in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..120),
        actions in proptest::collection::vec(action_strategy(), 1..60),
        order in prop_oneof![Just(4usize), Just(8)],
    ) {
        let mut base = MerkleTree::with_order(order);
        for (k, v) in &setup {
            base.insert(key(k % 256), vec![*v]).unwrap();
        }
        let frozen = base.root_digest();
        let mut shared = base.clone();
        let mut eager = MerkleTree::from_bytes(&base.to_bytes()).unwrap();
        prop_assert_eq!(shared.root_digest(), eager.root_digest());
        for a in &actions {
            let op = to_op(a);
            let known = shared.root_digest();
            let pruned_shared = prune_for_op(&shared, &op);
            let pruned_eager = prune_for_op(&eager, &op);
            prop_assert_eq!(pruned_shared.to_bytes(), pruned_eager.to_bytes());
            let vo = VerificationObject::new(pruned_shared);
            let got_shared = apply_op(&mut shared, &op).unwrap();
            let got_eager = apply_op(&mut eager, &op).unwrap();
            prop_assert_eq!(&got_shared, &got_eager);
            prop_assert_eq!(shared.root_digest(), eager.root_digest());
            let verified = verify_response(
                &known, order, &vo, &op, Some(&got_shared), Some(&shared.root_digest()),
            ).map_err(|e| TestCaseError::fail(format!("{a:?}: {e}")))?;
            prop_assert_eq!(verified.new_root, eager.root_digest());
        }
        // The original is a frozen snapshot: its clone's mutations (COW)
        // must never have reached back into the shared structure.
        prop_assert_eq!(base.root_digest(), frozen);
        base.check_invariants().map_err(TestCaseError::fail)?;
        shared.check_invariants().map_err(TestCaseError::fail)?;
        eager.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(shared.entries().unwrap(), eager.entries().unwrap());
        prop_assert_eq!(base.entries().unwrap().len(), setup.iter()
            .map(|(k, _)| key(k % 256)).collect::<std::collections::BTreeSet<_>>().len());
    }
}

/// With order 4 and dense sequential keys every leaf sits near capacity: a
/// fresh-key Put splits a leaf whose proof neighbours are stubs, and a
/// Delete underflows a leaf that must merge with (or borrow from) a sibling
/// right at a stub boundary. The Arc-sharing clone and the eager deep copy
/// must produce byte-identical proofs and replay to the same new root in
/// every case — including ranges with one or both ends open.
#[test]
fn stub_adjacent_splits_and_merges_replay_identically() {
    let mut base = MerkleTree::with_order(4);
    for k in 0..256u16 {
        base.insert(key(k), vec![k as u8]).unwrap();
    }
    let shared = base.clone();
    let eager_bytes = base.to_bytes();
    for op in [
        Op::Put(key(100), vec![0xFF]),   // overwrite in place
        Op::Put(key(1000), vec![0xFF]),  // fresh key: leaf split beside stubs
        Op::Delete(key(7)),              // underflow: merge/borrow beside stubs
        Op::Range(None, None),           // full scan
        Op::Range(None, Some(key(42))),  // open low end
        Op::Range(Some(key(200)), None), // open high end
    ] {
        let mut s = shared.clone();
        let mut e = MerkleTree::from_bytes(&eager_bytes).unwrap();
        let known = s.root_digest();
        let pruned_shared = prune_for_op(&s, &op);
        let pruned_eager = prune_for_op(&e, &op);
        assert_eq!(pruned_shared.to_bytes(), pruned_eager.to_bytes(), "{op:?}");
        let vo = VerificationObject::new(pruned_shared);
        let got = apply_op(&mut s, &op).unwrap();
        assert_eq!(got, apply_op(&mut e, &op).unwrap(), "{op:?}");
        assert_eq!(s.root_digest(), e.root_digest(), "{op:?}");
        let verified =
            verify_response(&known, 4, &vo, &op, Some(&got), Some(&s.root_digest())).unwrap();
        assert_eq!(verified.new_root, s.root_digest(), "{op:?}");
        // COW isolation: neither replay leaked back into the shared base.
        assert_eq!(shared.root_digest(), known, "{op:?}");
    }
}

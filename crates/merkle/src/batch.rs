//! Batched verification objects: one proof for a window of point
//! operations.
//!
//! Per-operation proofs repeat the spine of the tree once per op — for a
//! window of `n` point reads/updates against the same pre-state, the
//! O(log N) internal siblings are shipped (and re-hashed by the client) `n`
//! times. A [`BatchProof`] prunes the pre-state **once** for the union of
//! the window's key paths ([`MerkleTree::prune_for_points`]), so the spine
//! is shared across the window, and the client replays the whole window on
//! the single pruned tree with [`MerkleTree::apply_window`]: each node the
//! window touches is hashed once, as on the server.
//!
//! The batch is restricted to point operations ([`batchable`]): `Get` and
//! `Put`. Point inserts split only nodes on their own root-to-leaf path,
//! so the union of paths stays replay-sufficient across the whole window;
//! `Delete` rebalances across siblings outside the union and `Range` has
//! its own interval pruner, so both fall back to per-op proofs.
//!
//! Verification returns every op's answer and the root after the window
//! ([`BatchVerified`]); no intermediate root is computed, because Protocol
//! II's token algebra telescopes over the window and needs only the two
//! ends. Each claimed answer is still checked against the replay: forging,
//! reordering, or dropping any single claimed result in the window makes
//! the replay disagree ([`VerifyError::AnswerMismatch`] /
//! [`VerifyError::BatchLengthMismatch`]); tampering with the proof itself
//! shifts the recomputed root ([`VerifyError::RootMismatch`] when
//! anchored, a σ mismatch at sync-up otherwise).

use tcvs_crypto::Digest;

use crate::error::VerifyError;
use crate::op::{Op, OpResult};
use crate::tree::MerkleTree;
use crate::verify::VerificationObject;

/// True iff `op` may be covered by a [`BatchProof`]: the point operations
/// whose replay touches only their own root-to-leaf path.
pub fn batchable(op: &Op) -> bool {
    matches!(op, Op::Get(_) | Op::Put(..))
}

/// Builds the pruned pre-state tree sufficient to replay the whole window
/// `ops` in order: the union of each operation's point path.
///
/// # Panics
///
/// Panics if any op is not [`batchable`] — callers gate the batch path on
/// `ops.iter().all(batchable)` and fall back to per-op proofs otherwise.
pub fn prune_for_ops(tree: &MerkleTree, ops: &[Op]) -> MerkleTree {
    let keys: Vec<&[u8]> = ops
        .iter()
        .map(|op| match op {
            Op::Get(k) | Op::Put(k, _) => k.as_slice(),
            other => panic!("prune_for_ops: non-batchable op `{}`", other.kind()),
        })
        .collect();
    tree.prune_for_points(&keys)
}

/// A batched verification object: one pruned pre-state tree covering a
/// window of point operations against a single root. It is the same
/// pruned-tree proof as a per-op [`VerificationObject`], built by
/// [`prune_for_ops`] instead.
pub type BatchProof = VerificationObject;

/// Outcome of a successful window verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchVerified {
    /// The (replayed, hence authenticated) answers, one per op in window
    /// order.
    pub results: Vec<OpResult>,
    /// Root digest after the whole window.
    pub new_root: Digest,
}

/// The checks every batch verifier starts with: agreed order, one claimed
/// result per op, and one read-only fold recomputing every materialized
/// digest from the proof's content. Returns the root that content commits
/// to.
fn folded_root(
    expected_order: usize,
    proof: &BatchProof,
    ops: &[Op],
    claimed: Option<&[OpResult]>,
) -> Result<Digest, VerifyError> {
    if proof.order() != expected_order {
        return Err(VerifyError::OrderMismatch);
    }
    if claimed.is_some_and(|c| c.len() != ops.len()) {
        return Err(VerifyError::BatchLengthMismatch);
    }
    proof.tree.verified_root()
}

/// Replays the window on one copy-on-write handle of the folded proof (the
/// proof itself is never written through; each node an update touches is
/// copied and hashed once for the whole window).
fn replay_window(
    proof: &BatchProof,
    ops: &[Op],
    claimed: Option<&[OpResult]>,
) -> Result<BatchVerified, VerifyError> {
    let mut replay = proof.tree.clone();
    let results = replay.apply_window(ops)?;
    if claimed.is_some_and(|c| c != results) {
        return Err(VerifyError::AnswerMismatch);
    }
    Ok(BatchVerified {
        results,
        new_root: replay.root_digest(),
    })
}

/// Replays the window `ops` against `proof` **without** an
/// independently-known root digest (the Protocol II/III trust model; see
/// [`crate::replay_unanchored`]).
///
/// `claimed`, when present, must hold exactly one result per op in window
/// order; any dropped, reordered, or forged entry fails the replay.
///
/// Returns `(old_root, verified)`: the pre-state root the proof commits
/// to, and the window's answers with the root after it.
pub fn replay_batch_unanchored(
    expected_order: usize,
    proof: &BatchProof,
    ops: &[Op],
    claimed: Option<&[OpResult]>,
) -> Result<(Digest, BatchVerified), VerifyError> {
    let old_root = folded_root(expected_order, proof, ops, claimed)?;
    Ok((old_root, replay_window(proof, ops, claimed)?))
}

/// Verifies a batched response against a known root and replays the whole
/// window (the Protocol I trust model; see [`crate::verify_response`]).
pub fn verify_batch_response(
    known_root: &Digest,
    expected_order: usize,
    proof: &BatchProof,
    ops: &[Op],
    claimed: Option<&[OpResult]>,
    claimed_new_root: Option<&Digest>,
) -> Result<BatchVerified, VerifyError> {
    if folded_root(expected_order, proof, ops, claimed)? != *known_root {
        return Err(VerifyError::RootMismatch);
    }
    let verified = replay_window(proof, ops, claimed)?;
    if claimed_new_root.is_some_and(|nr| *nr != verified.new_root) {
        return Err(VerifyError::NewRootMismatch);
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::u64_key;

    fn tree_with(n: u64, order: usize) -> MerkleTree {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        t
    }

    fn window(seed: u64, n: usize) -> Vec<Op> {
        (0..n as u64)
            .map(|i| {
                let k = u64_key((seed.wrapping_mul(31) + i * 7) % 97);
                if i % 3 == 0 {
                    Op::Put(k, format!("w{seed}-{i}").into_bytes())
                } else {
                    Op::Get(k)
                }
            })
            .collect()
    }

    fn serve_batch(tree: &mut MerkleTree, ops: &[Op]) -> (BatchProof, Vec<OpResult>, Digest) {
        let proof = BatchProof::new(prune_for_ops(tree, ops));
        let results = tree.apply_window(ops).expect("full tree");
        (proof, results, tree.root_digest())
    }

    #[test]
    fn honest_batch_replays_to_server_state() {
        for order in [4, 8, 16] {
            let mut server = tree_with(200, order);
            let root0 = server.root_digest();
            let ops = window(3, 24);
            let (proof, results, new_root) = serve_batch(&mut server, &ops);
            let (old_root, verified) =
                replay_batch_unanchored(order, &proof, &ops, Some(&results)).unwrap();
            assert_eq!(old_root, root0);
            assert_eq!(verified.results, results);
            assert_eq!(verified.new_root, new_root);
            let anchored =
                verify_batch_response(&root0, order, &proof, &ops, Some(&results), Some(&new_root))
                    .unwrap();
            assert_eq!(anchored, verified);
        }
    }

    #[test]
    fn batch_matches_per_op_replay_through_splits() {
        // Dense Put window on a small order forces leaf and internal splits
        // mid-window: the union pruning must stay replay-sufficient.
        let mut server = tree_with(16, 4);
        let root0 = server.root_digest();
        let ops: Vec<Op> = (0..32u64)
            .map(|i| Op::Put(u64_key(100 + i), vec![i as u8; 20]))
            .collect();
        let (proof, results, new_root) = serve_batch(&mut server, &ops);
        let (old_root, verified) =
            replay_batch_unanchored(4, &proof, &ops, Some(&results)).unwrap();
        assert_eq!(old_root, root0);
        assert_eq!(verified.new_root, new_root);
        server.check_invariants().unwrap();
    }

    #[test]
    fn proof_shares_spine_across_window() {
        let server = tree_with(500, 8);
        let ops = window(11, 16);
        let (proof, _, _) = serve_batch(&mut server.clone(), &ops);
        let per_op: usize = ops
            .iter()
            .map(|op| {
                crate::verify::VerificationObject::new(crate::op::prune_for_op(&server, op))
                    .encoded_size()
            })
            .sum();
        assert!(
            proof.encoded_size() < per_op,
            "batch {} !< per-op {}",
            proof.encoded_size(),
            per_op
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut server = tree_with(50, 8);
        let ops = window(5, 8);
        let (proof, mut results, _) = serve_batch(&mut server, &ops);
        results.pop();
        assert_eq!(
            replay_batch_unanchored(8, &proof, &ops, Some(&results)).unwrap_err(),
            VerifyError::BatchLengthMismatch
        );
    }

    #[test]
    fn forged_result_rejected() {
        let mut server = tree_with(50, 8);
        let ops = window(5, 8);
        let (proof, mut results, _) = serve_batch(&mut server, &ops);
        results[3] = OpResult::Value(Some(b"evil".to_vec()));
        assert_eq!(
            replay_batch_unanchored(8, &proof, &ops, Some(&results)).unwrap_err(),
            VerifyError::AnswerMismatch
        );
    }

    #[test]
    fn non_batchable_ops_are_classified() {
        assert!(batchable(&Op::Get(u64_key(1))));
        assert!(batchable(&Op::Put(u64_key(1), vec![])));
        assert!(!batchable(&Op::Delete(u64_key(1))));
        assert!(!batchable(&Op::Range(None, None)));
    }

    #[test]
    fn empty_window_is_a_stub_proof() {
        let server = tree_with(50, 8);
        let proof = BatchProof::new(prune_for_ops(&server, &[]));
        assert_eq!(proof.root_digest(), server.root_digest());
        assert_eq!(proof.materialized_nodes(), 0);
        let (old_root, verified) = replay_batch_unanchored(8, &proof, &[], Some(&[])).unwrap();
        assert_eq!(old_root, server.root_digest());
        assert!(verified.results.is_empty());
        assert_eq!(verified.new_root, old_root);
    }

    #[test]
    fn forged_caches_are_a_typed_deviation() {
        let mut server = tree_with(200, 8);
        let root0 = server.root_digest();
        let ops = window(3, 24);
        let (honest, results, new_root) = serve_batch(&mut server, &ops);
        let Op::Put(key, _) = &ops[0] else {
            panic!("window opens with a Put")
        };

        // A forged value under the honest pair digest.
        let mut proof = honest.clone();
        proof.tree.root_mut().forge_value(key, b"evil");
        assert_eq!(proof.root_digest(), root0);
        assert_eq!(
            replay_batch_unanchored(8, &proof, &ops, None).unwrap_err(),
            VerifyError::CachedDigestMismatch
        );
        assert_eq!(
            verify_batch_response(&root0, 8, &proof, &ops, Some(&results), Some(&new_root))
                .unwrap_err(),
            VerifyError::CachedDigestMismatch
        );

        // A forged node digest over honest content.
        let mut proof = honest.clone();
        proof.tree.root_mut().forge_leaf_digest(key, Digest::ZERO);
        assert_eq!(
            replay_batch_unanchored(8, &proof, &ops, None).unwrap_err(),
            VerifyError::CachedDigestMismatch
        );

        // Forged content under recomputed caches: a different root.
        let mut proof = honest.clone();
        proof.tree.insert(key.clone(), b"evil".to_vec()).unwrap();
        assert_eq!(
            verify_batch_response(&root0, 8, &proof, &ops, None, None).unwrap_err(),
            VerifyError::RootMismatch
        );
        assert_ne!(
            replay_batch_unanchored(8, &proof, &ops, None).unwrap().0,
            root0
        );
        // The honest proof the forgeries were copied from still verifies.
        verify_batch_response(&root0, 8, &honest, &ops, Some(&results), Some(&new_root)).unwrap();
    }
}

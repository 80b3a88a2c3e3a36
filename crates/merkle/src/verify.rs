//! Client-side verification of server responses (§4.1).
//!
//! The server answers an operation with a [`VerificationObject`]: a pruned
//! copy of the pre-state tree. The client
//!
//! 1. checks the proof's root digest against its known root digest `M(D)`,
//! 2. *replays* the operation on the pruned tree,
//! 3. compares the replayed answer with the server's claimed answer, and
//! 4. (for updates) compares the replayed new root digest with the server's
//!    claimed new root digest, adopting it as the next `M(D')`.
//!
//! Any mismatch is proof of server misbehaviour — the protocols map it to a
//! deviation report.

use tcvs_crypto::Digest;

use crate::error::VerifyError;
use crate::op::{apply_op, Op, OpResult};
use crate::tree::MerkleTree;

/// The verification object `v(Q, D)`: a pruned pre-state tree sufficient to
/// replay `Q`.
#[derive(Clone, Debug)]
pub struct VerificationObject {
    tree: MerkleTree,
}

impl VerificationObject {
    /// Wraps a pruned tree produced by [`crate::op::prune_for_op`].
    pub fn new(pruned: MerkleTree) -> VerificationObject {
        VerificationObject { tree: pruned }
    }

    /// Root digest the proof claims to be rooted at.
    pub fn root_digest(&self) -> Digest {
        self.tree.root_digest()
    }

    /// Proof size in materialized nodes.
    pub fn materialized_nodes(&self) -> usize {
        self.tree.materialized_nodes()
    }

    /// Proof size in bytes: exactly `to_bytes().len()`.
    pub fn encoded_size(&self) -> usize {
        self.tree.encoded_size()
    }

    /// The branching order the proof was built with.
    pub fn order(&self) -> usize {
        self.tree.order()
    }

    /// Serializes the proof (its pruned tree) for persistence. Stub nodes
    /// carry their digests, so the encoding commits to exactly what the
    /// proof committed to.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.tree.to_bytes()
    }

    /// Decodes a persisted proof; all materialized digests are re-verified
    /// during decode, so a corrupted proof is rejected rather than trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<VerificationObject, crate::CodecError> {
        let mut tree = MerkleTree::from_bytes(bytes)?;
        // A proof never authenticates an entry count; erase the count the
        // decoder recomputed so decode→encode stays byte-identical even
        // for proofs whose pruning kept every leaf.
        tree.forget_len();
        Ok(VerificationObject { tree })
    }
}

/// Outcome of a successful verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified {
    /// The (replayed, hence authenticated) answer to the operation.
    pub result: OpResult,
    /// Root digest after the operation: equals the pre-state root for reads,
    /// and the post-state root `M(D')` for updates.
    pub new_root: Digest,
}

/// Replays `op` on a copy-on-write handle of an already-folded proof and
/// checks the server's claims against the replay. The handle is an O(1)
/// root copy: a read touches nothing, an update copies only the path it
/// rewrites, and `proof` itself is never written through.
fn replay(
    proof: &MerkleTree,
    op: &Op,
    claimed: Option<&OpResult>,
    claimed_new_root: Option<&Digest>,
) -> Result<Verified, VerifyError> {
    let mut replay = proof.clone();
    let result = apply_op(&mut replay, op)?;
    if claimed.is_some_and(|c| c != &result) {
        return Err(VerifyError::AnswerMismatch);
    }
    let new_root = replay.root_digest();
    if claimed_new_root.is_some_and(|nr| nr != &new_root) {
        return Err(VerifyError::NewRootMismatch);
    }
    Ok(Verified { result, new_root })
}

/// Replays `op` against a proof **without** an independently-known root
/// digest, as Protocol II/III clients must (they keep no root between
/// operations; trust flows through the XOR accumulators instead).
///
/// All materialized digests are first recomputed from the proof's content
/// — one read-only fold, no node copied — so the returned `old_root`
/// genuinely commits to the materialized data: a proof whose cached
/// digests disagree with its content is
/// [`VerifyError::CachedDigestMismatch`].
///
/// Returns `(old_root, verified)` where `old_root` is the pre-state root the
/// proof commits to.
pub fn replay_unanchored(
    expected_order: usize,
    vo: &VerificationObject,
    op: &Op,
    claimed: Option<&OpResult>,
) -> Result<(Digest, Verified), VerifyError> {
    if vo.order() != expected_order {
        return Err(VerifyError::OrderMismatch);
    }
    let old_root = vo.tree.verified_root()?;
    Ok((old_root, replay(&vo.tree, op, claimed, None)?))
}

/// Verifies a server response against a known root and replays the
/// operation.
///
/// * `known_root` — the client's current `M(D)`.
/// * `vo` — the server-supplied verification object.
/// * `op` — the operation the client asked for.
/// * `claimed` — the answer the server returned, if the transport carries
///   one; `None` makes the replayed answer authoritative without comparison.
/// * `claimed_new_root` — the server's claimed `M(D')`, if any.
pub fn verify_response(
    known_root: &Digest,
    expected_order: usize,
    vo: &VerificationObject,
    op: &Op,
    claimed: Option<&OpResult>,
    claimed_new_root: Option<&Digest>,
) -> Result<Verified, VerifyError> {
    if vo.order() != expected_order {
        return Err(VerifyError::OrderMismatch);
    }
    // Root check comes before replay so a stale proof reports RootMismatch
    // rather than whatever the replay happens to hit.
    if vo.tree.verified_root()? != *known_root {
        return Err(VerifyError::RootMismatch);
    }
    replay(&vo.tree, op, claimed, claimed_new_root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{u64_key, Child};
    use crate::op::prune_for_op;

    fn tree_with(n: u64, order: usize) -> MerkleTree {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        t
    }

    fn serve(tree: &mut MerkleTree, op: &Op) -> (VerificationObject, OpResult, Digest) {
        let vo = VerificationObject::new(prune_for_op(tree, op));
        let result = apply_op(tree, op).unwrap();
        (vo, result, tree.root_digest())
    }

    #[test]
    fn honest_update_verifies() {
        let mut server = tree_with(100, 8);
        let root0 = server.root_digest();
        let op = Op::Put(u64_key(42), b"changed".to_vec());
        let (vo, result, new_root) = serve(&mut server, &op);
        let v = verify_response(&root0, 8, &vo, &op, Some(&result), Some(&new_root)).unwrap();
        assert_eq!(v.new_root, new_root);
        assert_eq!(v.result, result);
    }

    #[test]
    fn honest_read_keeps_root() {
        let mut server = tree_with(50, 8);
        let root0 = server.root_digest();
        let op = Op::Get(u64_key(7));
        let (vo, result, _) = serve(&mut server, &op);
        let v = verify_response(&root0, 8, &vo, &op, Some(&result), None).unwrap();
        assert_eq!(v.new_root, root0);
        assert_eq!(v.result, OpResult::Value(Some(b"v7".to_vec())));
    }

    #[test]
    fn stale_proof_detected() {
        // Server builds a proof against an *old* state (replay attack on the
        // database): the root digest no longer matches.
        let mut server = tree_with(30, 8);
        let stale = server.clone();
        apply_op(&mut server, &Op::Put(u64_key(1), b"x".to_vec())).unwrap();
        let current_root = server.root_digest();
        let op = Op::Get(u64_key(2));
        let vo = VerificationObject::new(prune_for_op(&stale, &op));
        let err = verify_response(&current_root, 8, &vo, &op, None, None).unwrap_err();
        assert_eq!(err, VerifyError::RootMismatch);
    }

    #[test]
    fn tampered_answer_detected() {
        // Server answers with a value that is not in the authenticated state
        // (integrity violation): the replay disagrees.
        let mut server = tree_with(30, 8);
        let root0 = server.root_digest();
        let op = Op::Get(u64_key(3));
        let (vo, _, _) = serve(&mut server, &op);
        let forged = OpResult::Value(Some(b"evil".to_vec()));
        let err = verify_response(&root0, 8, &vo, &op, Some(&forged), None).unwrap_err();
        assert_eq!(err, VerifyError::AnswerMismatch);
    }

    #[test]
    fn dropped_update_detected() {
        // Server acknowledges an update with the *old* root (availability
        // violation: it never applied it).
        let mut server = tree_with(30, 8);
        let root0 = server.root_digest();
        let op = Op::Put(u64_key(5), b"important".to_vec());
        let (vo, result, _) = serve(&mut server, &op);
        // The server lies: claims the root did not change.
        let err = verify_response(&root0, 8, &vo, &op, Some(&result), Some(&root0)).unwrap_err();
        assert_eq!(err, VerifyError::NewRootMismatch);
    }

    #[test]
    fn incomplete_proof_detected() {
        let mut server = tree_with(200, 4);
        let root0 = server.root_digest();
        let op = Op::Put(u64_key(42), b"v".to_vec());
        // Serve a proof for the wrong key: the path for 42 stays pruned.
        let vo = VerificationObject::new(server.prune_for_point(&u64_key(180)));
        let result = apply_op(&mut server, &op).unwrap();
        let err = verify_response(&root0, 4, &vo, &op, Some(&result), None).unwrap_err();
        assert_eq!(err, VerifyError::IncompleteProof);
    }

    #[test]
    fn order_mismatch_detected() {
        let mut server = tree_with(10, 8);
        let op = Op::Get(u64_key(1));
        let root0 = server.root_digest();
        let (vo, _, _) = serve(&mut server, &op);
        let err = verify_response(&root0, 16, &vo, &op, None, None).unwrap_err();
        assert_eq!(err, VerifyError::OrderMismatch);
    }

    #[test]
    fn non_membership_is_verifiable() {
        let mut server = tree_with(50, 8);
        let root0 = server.root_digest();
        let op = Op::Get(u64_key(999));
        let (vo, result, _) = serve(&mut server, &op);
        assert_eq!(result, OpResult::Value(None));
        let v = verify_response(&root0, 8, &vo, &op, Some(&result), None).unwrap();
        assert_eq!(v.result, OpResult::Value(None));
    }

    /// The in-memory wire carries cached digests. Content that its caches
    /// do not commit to is a typed deviation — anchored or not, read or
    /// update — and is never healed into a verdict about some other root.
    #[test]
    fn forged_caches_are_a_typed_deviation() {
        let mut server = tree_with(200, 8);
        let root0 = server.root_digest();
        let key = u64_key(42);
        for op in [Op::Get(key.clone()), Op::Put(key.clone(), b"w".to_vec())] {
            let (honest, _, _) = serve(&mut server.clone(), &op);

            // A forged value under the honest pair digest: every cached
            // digest up to the root still reads as the state the client
            // expects.
            let mut vo = honest.clone();
            vo.tree.root_mut().forge_leaf(&key, |es, _| {
                let i = es.iter().position(|e| e.key == key).unwrap();
                es[i] = Child::forged_entry(&es[i], b"evil");
            });
            assert_eq!(vo.root_digest(), root0);
            assert_eq!(
                verify_response(&root0, 8, &vo, &op, None, None).unwrap_err(),
                VerifyError::CachedDigestMismatch
            );
            assert_eq!(
                replay_unanchored(8, &vo, &op, None).unwrap_err(),
                VerifyError::CachedDigestMismatch
            );

            // A forged node digest over honest content.
            let mut vo = honest.clone();
            vo.tree
                .root_mut()
                .forge_leaf(&key, |_, digest| *digest = Digest::ZERO);
            assert_eq!(
                replay_unanchored(8, &vo, &op, None).unwrap_err(),
                VerifyError::CachedDigestMismatch
            );

            // Forging never wrote through to the proof it was copied from.
            verify_response(&root0, 8, &honest, &op, None, None).unwrap();
        }
        // Forged content with every cache recomputed to match it is
        // self-consistent — and commits to a different root, as ever.
        let op = Op::Get(key.clone());
        let (mut vo, _, _) = serve(&mut server, &op);
        vo.tree.insert(key, b"evil".to_vec()).unwrap();
        assert_eq!(
            verify_response(&root0, 8, &vo, &op, None, None).unwrap_err(),
            VerifyError::RootMismatch
        );
        let (old_root, v) = replay_unanchored(8, &vo, &op, None).unwrap();
        assert_ne!(old_root, root0);
        assert_eq!(v.result, OpResult::Value(Some(b"evil".to_vec())));
    }
}

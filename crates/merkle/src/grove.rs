//! The grove: a fixed-fanout Merkle combine of N shard roots.
//!
//! Sharding partitions the keyspace across N independent Merkle B+-trees
//! (one per shard server). Clients must still verify against a *single*
//! root, so the N shard roots are folded into one **grove root** by a small
//! fixed-fanout Merkle tree built here. A sharded verification object then
//! becomes two pieces:
//!
//! 1. the ordinary per-shard [`VerificationObject`] (pruned pre-state tree
//!    of the shard that owns the key), and
//! 2. a [`GroveSpine`]: the sibling digests along the fold from that
//!    shard's leaf up to the grove root.
//!
//! [`verify_grove_response`] replays the op on the shard proof, checks that
//! the shard's pre-state root folds (through the spine) to the known grove
//! root, and re-folds the shard's post-state root to obtain the new grove
//! root — so the client-side trust story is unchanged: one root digest
//! commits to the entire sharded database.
//!
//! Leaves are domain-separated and bind both the shard index and the shard
//! count, so a proof for shard `i` of `N` can never be replayed as a proof
//! for shard `j` of `M`.

use tcvs_crypto::{hash_parts, Digest};

use crate::error::VerifyError;
use crate::op::{Op, OpResult};
use crate::verify::{replay_unanchored, VerificationObject};

/// Fixed fanout of the grove combine. Small and constant: with realistic
/// shard counts (≤ 64) the spine is at most three levels.
pub const GROVE_FANOUT: usize = 4;

const LEAF_TAG: &[u8] = b"tcvs-grove-leaf";
const NODE_TAG: &[u8] = b"tcvs-grove-node";

fn leaf_digest(shard_index: usize, n_shards: usize, shard_root: &Digest) -> Digest {
    hash_parts(&[
        LEAF_TAG,
        &(shard_index as u64).to_le_bytes(),
        &(n_shards as u64).to_le_bytes(),
        shard_root.as_bytes(),
    ])
}

fn node_digest(children: &[Digest]) -> Digest {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(children.len() + 1);
    parts.push(NODE_TAG);
    for c in children {
        parts.push(c.as_bytes());
    }
    hash_parts(&parts)
}

/// Folds N shard roots into the grove root.
///
/// Deterministic in the shard-root slice alone — no RNG, clock, or spawn
/// order — so any party holding the same per-shard roots computes the same
/// grove root.
///
/// # Panics
///
/// Panics on an empty slice: a grove has at least one shard.
pub fn grove_root(shard_roots: &[Digest]) -> Digest {
    assert!(!shard_roots.is_empty(), "grove of zero shards");
    let n = shard_roots.len();
    let mut level: Vec<Digest> = shard_roots
        .iter()
        .enumerate()
        .map(|(i, r)| leaf_digest(i, n, r))
        .collect();
    while level.len() > 1 {
        level = level.chunks(GROVE_FANOUT).map(node_digest).collect();
    }
    level[0]
}

/// The fold path from one shard's leaf to the grove root: at every level,
/// the shard-side node's position within its chunk and the sibling digests
/// in order (ours excluded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroveSpine {
    shard_index: usize,
    n_shards: usize,
    levels: Vec<(usize, Vec<Digest>)>,
}

impl GroveSpine {
    /// Builds the spine for `shard_index` from the full shard-root set.
    ///
    /// # Panics
    ///
    /// Panics if `shard_index` is out of range or `shard_roots` is empty.
    pub fn prove(shard_roots: &[Digest], shard_index: usize) -> GroveSpine {
        assert!(!shard_roots.is_empty(), "grove of zero shards");
        assert!(shard_index < shard_roots.len(), "shard index out of range");
        let n = shard_roots.len();
        let mut level: Vec<Digest> = shard_roots
            .iter()
            .enumerate()
            .map(|(i, r)| leaf_digest(i, n, r))
            .collect();
        let mut idx = shard_index;
        let mut levels = Vec::new();
        while level.len() > 1 {
            let chunk_start = (idx / GROVE_FANOUT) * GROVE_FANOUT;
            let chunk_end = (chunk_start + GROVE_FANOUT).min(level.len());
            let pos = idx - chunk_start;
            let siblings: Vec<Digest> = level[chunk_start..chunk_end]
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, d)| *d)
                .collect();
            levels.push((pos, siblings));
            level = level.chunks(GROVE_FANOUT).map(node_digest).collect();
            idx /= GROVE_FANOUT;
        }
        GroveSpine {
            shard_index,
            n_shards: n,
            levels,
        }
    }

    /// The shard this spine authenticates.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The shard count the spine binds to.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Folds a shard root up the spine to the grove root it implies.
    pub fn resolve(&self, shard_root: &Digest) -> Digest {
        let mut d = leaf_digest(self.shard_index, self.n_shards, shard_root);
        for (pos, siblings) in &self.levels {
            let mut children: Vec<Digest> = Vec::with_capacity(siblings.len() + 1);
            children.extend_from_slice(&siblings[..*pos]);
            children.push(d);
            children.extend_from_slice(&siblings[*pos..]);
            d = node_digest(&children);
        }
        d
    }
}

/// Outcome of a successful sharded verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroveVerified {
    /// The replayed (hence authenticated) answer.
    pub result: OpResult,
    /// The owning shard's root after the operation.
    pub new_shard_root: Digest,
    /// The grove root after the operation: the spine re-folded over
    /// `new_shard_root`. Equals the pre-state grove root for reads.
    pub new_grove_root: Digest,
}

/// Verifies a sharded server response against a known **grove** root.
///
/// Replays `op` on the shard's verification object, folds the shard's
/// pre-state root up the spine and compares against `known_grove_root`,
/// then re-folds the post-state shard root to produce the next grove root.
/// A deviation *anywhere* — in the shard proof, in the spine, or in a
/// sibling shard root the server misreports — surfaces as a mismatch here,
/// exactly as in the single-tree [`crate::verify_response`] flow.
pub fn verify_grove_response(
    known_grove_root: &Digest,
    expected_order: usize,
    spine: &GroveSpine,
    vo: &VerificationObject,
    op: &Op,
    claimed: Option<&OpResult>,
    claimed_new_grove_root: Option<&Digest>,
) -> Result<GroveVerified, VerifyError> {
    let (old_shard_root, verified) = replay_unanchored(expected_order, vo, op, claimed)?;
    if spine.resolve(&old_shard_root) != *known_grove_root {
        return Err(VerifyError::RootMismatch);
    }
    let new_grove_root = spine.resolve(&verified.new_root);
    if let Some(claimed_root) = claimed_new_grove_root {
        if claimed_root != &new_grove_root {
            return Err(VerifyError::NewRootMismatch);
        }
    }
    Ok(GroveVerified {
        result: verified.result,
        new_shard_root: verified.new_root,
        new_grove_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::u64_key;
    use crate::op::{apply_op, prune_for_op};
    use crate::tree::MerkleTree;

    fn roots(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| hash_parts(&[b"test-shard-root", &(i as u64).to_le_bytes()]))
            .collect()
    }

    #[test]
    fn spine_resolves_to_grove_root_for_every_index_and_count() {
        for n in 1..=17 {
            let rs = roots(n);
            let gr = grove_root(&rs);
            for i in 0..n {
                let spine = GroveSpine::prove(&rs, i);
                assert_eq!(spine.resolve(&rs[i]), gr, "n={n} i={i}");
                assert_eq!(spine.shard_index(), i);
                assert_eq!(spine.n_shards(), n);
            }
        }
    }

    #[test]
    fn grove_root_binds_shard_count() {
        // The same root multiset under a different shard count must fold to
        // a different grove root (leaf digests bind n).
        let rs3 = roots(3);
        let mut rs4 = rs3.clone();
        rs4.push(rs3[0]);
        assert_ne!(grove_root(&rs3), grove_root(&rs4));
    }

    #[test]
    fn grove_root_binds_position() {
        let mut rs = roots(4);
        let gr = grove_root(&rs);
        rs.swap(1, 2);
        assert_ne!(grove_root(&rs), gr);
    }

    #[test]
    fn tampered_sibling_changes_resolution() {
        let rs = roots(8);
        let gr = grove_root(&rs);
        let mut spine = GroveSpine::prove(&rs, 3);
        spine.levels[0].1[0] = hash_parts(&[b"evil"]);
        assert_ne!(spine.resolve(&rs[3]), gr);
    }

    #[test]
    fn single_shard_grove_differs_from_bare_root() {
        // Even a 1-shard grove is domain-separated from the raw tree root,
        // so a grove client can never be confused with a single-tree client.
        let rs = roots(1);
        assert_ne!(grove_root(&rs), rs[0]);
    }

    fn shard_tree(n: u64, order: usize) -> MerkleTree {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        t
    }

    #[test]
    fn honest_sharded_update_verifies_and_updates_grove_root() {
        let order = 8;
        let mut shards: Vec<MerkleTree> = (0..4).map(|_| shard_tree(64, order)).collect();
        let rs: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        let gr0 = grove_root(&rs);

        let shard = 2;
        let op = Op::Put(u64_key(10), b"changed".to_vec());
        let vo = VerificationObject::new(prune_for_op(&shards[shard], &op));
        let result = apply_op(&mut shards[shard], &op).unwrap();
        let spine = GroveSpine::prove(&rs, shard);

        let v = verify_grove_response(&gr0, order, &spine, &vo, &op, Some(&result), None).unwrap();
        assert_eq!(v.new_shard_root, shards[shard].root_digest());

        let rs1: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        assert_eq!(v.new_grove_root, grove_root(&rs1));
    }

    #[test]
    fn sharded_read_keeps_grove_root() {
        let order = 8;
        let shards: Vec<MerkleTree> = (0..3).map(|_| shard_tree(32, order)).collect();
        let rs: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        let gr0 = grove_root(&rs);

        let shard = 1;
        let op = Op::Get(u64_key(7));
        let vo = VerificationObject::new(prune_for_op(&shards[shard], &op));
        let spine = GroveSpine::prove(&rs, shard);
        let v = verify_grove_response(&gr0, order, &spine, &vo, &op, None, None).unwrap();
        assert_eq!(v.new_grove_root, gr0);
        assert_eq!(v.result, OpResult::Value(Some(b"v7".to_vec())));
    }

    #[test]
    fn stale_spine_detected() {
        // Spine built against old sibling roots: the fold misses the known
        // grove root.
        let order = 8;
        let mut shards: Vec<MerkleTree> = (0..4).map(|_| shard_tree(32, order)).collect();
        let rs_old: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        // Shard 0 advances; the client tracks the fresh grove root.
        apply_op(&mut shards[0], &Op::Put(u64_key(1), b"x".to_vec())).unwrap();
        let rs_new: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        let gr_new = grove_root(&rs_new);

        // Server answers a shard-2 read with a spine sampled at the *old*
        // grove epoch.
        let op = Op::Get(u64_key(3));
        let vo = VerificationObject::new(prune_for_op(&shards[2], &op));
        let stale_spine = GroveSpine::prove(&rs_old, 2);
        let err =
            verify_grove_response(&gr_new, order, &stale_spine, &vo, &op, None, None).unwrap_err();
        assert_eq!(err, VerifyError::RootMismatch);
    }

    #[test]
    fn wrong_shard_proof_detected() {
        // A proof from shard 1 presented under shard 0's spine slot: the
        // leaf binding (index) makes the fold miss.
        let order = 8;
        let shards: Vec<MerkleTree> = (0..2).map(|i| shard_tree(16 + i as u64, order)).collect();
        let rs: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        let gr = grove_root(&rs);
        let op = Op::Get(u64_key(3));
        let vo = VerificationObject::new(prune_for_op(&shards[1], &op));
        let spine = GroveSpine::prove(&rs, 0);
        let err = verify_grove_response(&gr, order, &spine, &vo, &op, None, None).unwrap_err();
        assert_eq!(err, VerifyError::RootMismatch);
    }

    #[test]
    fn forged_grove_new_root_detected() {
        let order = 8;
        let mut shards: Vec<MerkleTree> = (0..2).map(|_| shard_tree(16, order)).collect();
        let rs: Vec<Digest> = shards.iter().map(|t| t.root_digest()).collect();
        let gr0 = grove_root(&rs);
        let op = Op::Put(u64_key(2), b"v".to_vec());
        let vo = VerificationObject::new(prune_for_op(&shards[0], &op));
        let result = apply_op(&mut shards[0], &op).unwrap();
        let spine = GroveSpine::prove(&rs, 0);
        // Server claims the grove root did not move (dropped update).
        let err = verify_grove_response(&gr0, order, &spine, &vo, &op, Some(&result), Some(&gr0))
            .unwrap_err();
        assert_eq!(err, VerifyError::NewRootMismatch);
    }

    #[test]
    fn spine_size_is_logarithmic() {
        let rs = roots(64);
        let spine = GroveSpine::prove(&rs, 17);
        // 64 shards at fanout 4 → 3 levels × 3 sibling digests.
        assert_eq!(spine.levels.len(), 3);
        assert!(spine.levels.iter().all(|(_, siblings)| siblings.len() == 3));
    }
}

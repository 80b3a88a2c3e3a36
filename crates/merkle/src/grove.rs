//! The grove root: a fixed-fanout Merkle combine of N shard roots.
//!
//! Sharding partitions the keyspace across N independent Merkle B+-trees
//! (one per shard server). Verification stays per shard: a client checks
//! every answer against the root of the shard that owns the key, in that
//! shard's own protocol session. The grove root only *names* the whole
//! grove at one epoch — the N shard roots sampled together, folded here by
//! a small fixed-fanout Merkle tree — so grove epochs and evidence bundles
//! can refer to that state by one digest.
//!
//! Leaves are domain-separated and bind both the shard index and the shard
//! count, so the root of shard `i` of `N` can never stand in for shard `j`
//! of `M`.

use tcvs_crypto::{hash_parts, Digest};

/// Fixed fanout of the grove combine. Small and constant: with realistic
/// shard counts (≤ 64) the fold is at most three levels deep.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn roots(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| hash_parts(&[b"test-shard-root", &(i as u64).to_le_bytes()]))
            .collect()
    }

    /// The fold pinned as literal digests, one to three levels deep: 17
    /// shards leave a partial chunk on the first level, 64 fill three.
    #[test]
    fn grove_root_is_pinned_across_fold_depths() {
        let pins = [
            (
                1,
                "3154b2a698afb13d20a67385dabc80d506bbd6baed792b8141a06670ca0fab48",
            ),
            (
                2,
                "2b9f4ddf226ccb5784e27c0fadbf0620c198f77be977a7df9ac7887be80967c8",
            ),
            (
                4,
                "1658518ee795b0550f5e6b34954fd5599f61a1f6c2cb3e5f4096f476728a7801",
            ),
            (
                5,
                "06975ed916bda7cd01f7085c73b56e27cffe215ab256ff7903526094ad1b0cb6",
            ),
            (
                16,
                "1fb9d59eec121ea388ef759238e7d81083ec5a8e5b39cfc9da65c43f18c4acc0",
            ),
            (
                17,
                "18a0b9132a6405b1174c825817f9910a67dbbdf4bf3567ef80b8eb8de0d8fda9",
            ),
            (
                64,
                "29fd8a51bb223adc794b630503ae1d6d857959614632efdb9e648ce4d1ac5433",
            ),
        ];
        for (n, hex) in pins {
            assert_eq!(grove_root(&roots(n)).to_hex(), hex, "n={n}");
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
        // A swap across a first-level chunk boundary: shards 0 and 16 of 17
        // sit in different chunks and fold at different depths.
        let mut rs = roots(17);
        let gr = grove_root(&rs);
        rs.swap(0, 16);
        assert_ne!(grove_root(&rs), gr);
    }

    #[test]
    fn single_shard_grove_differs_from_bare_root() {
        // Even a 1-shard grove is domain-separated from the raw tree root,
        // so a grove root can never be confused with a single tree's root.
        let rs = roots(1);
        assert_ne!(grove_root(&rs), rs[0]);
    }
}

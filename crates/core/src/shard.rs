//! Deterministic keyspace partitioning for the sharded grove.
//!
//! A grove deployment splits the database across N shard servers, each
//! owning its own Merkle B+-tree; the shard roots fold into one top-level
//! grove root (`tcvs_merkle::grove_root`). Everything downstream — clients,
//! the simulator's per-shard oracles, crash recovery — depends on every
//! party routing every key to the *same* shard, forever. [`ShardRouter`]
//! therefore hashes the key bytes alone: no RNG, no clock, no spawn-order
//! input, nothing process-local. The same `(key, n_shards)` pair routes
//! identically across crash-restarts, process restarts, and machines.

use tcvs_merkle::Op;

use crate::fault::splitmix64;

/// FNV-1a over the key bytes, finished with a splitmix64 mix so the low
/// bits (which `% n_shards` consumes) are well distributed even for short
/// or structured keys.
fn route_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h)
}

/// The deterministic, restart-stable keyspace partitioner.
///
/// Routing is a pure function of the key bytes and the shard count —
/// see the module docs for why nothing else may enter the hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    n_shards: usize,
}

impl ShardRouter {
    /// A router over `n_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: usize) -> ShardRouter {
        assert!(n_shards > 0, "a grove needs at least one shard");
        ShardRouter { n_shards }
    }

    /// Number of shards routed over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard that owns `key`.
    pub fn route_key(&self, key: &[u8]) -> usize {
        (route_hash(key) % self.n_shards as u64) as usize
    }

    /// The single shard `op` routes to, or `None` for operations that span
    /// shards ([`Op::Range`] — the caller scatter-gathers those).
    pub fn route_op(&self, op: &Op) -> Option<usize> {
        match op {
            Op::Get(k) | Op::Put(k, _) | Op::Delete(k) => Some(self.route_key(k)),
            Op::Range(..) => None,
        }
    }

    /// Splits keyed operations into per-shard groups, preserving order
    /// within each group and remembering every op's original position.
    /// Returns `None` if any op is a cross-shard [`Op::Range`].
    pub fn partition<'a>(&self, ops: &'a [Op]) -> Option<Vec<Vec<(usize, &'a Op)>>> {
        let mut groups: Vec<Vec<(usize, &'a Op)>> = vec![Vec::new(); self.n_shards];
        for (i, op) in ops.iter().enumerate() {
            groups[self.route_op(op)?].push((i, op));
        }
        Some(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::u64_key;

    /// Restart stability, pinned: the routing of these keys is frozen into
    /// the test as literal values, so any change to the hash — across
    /// process restarts, dependency bumps, refactors — fails loudly instead
    /// of silently re-homing every key in every deployed grove.
    #[test]
    fn routing_is_pinned_across_processes() {
        let r = ShardRouter::new(4);
        let got: Vec<usize> = (0..16).map(|i| r.route_key(&u64_key(i))).collect();
        assert_eq!(got, [3, 3, 0, 0, 2, 0, 0, 1, 3, 0, 1, 3, 1, 2, 3, 0]);
        let r8 = ShardRouter::new(8);
        let got8: Vec<usize> = (0..8).map(|i| r8.route_key(&u64_key(i))).collect();
        assert_eq!(got8, [3, 3, 0, 0, 6, 0, 4, 5]);
    }

    /// The seeded-exhaustive stability property: over a large pseudo-random
    /// key sample, two independently constructed routers agree everywhere,
    /// routing is insensitive to *when* or *in what order* shards were
    /// spawned (there is no such input), and every shard receives a
    /// reasonable share of the keyspace.
    #[test]
    fn routing_is_deterministic_and_balanced() {
        let mut rng = tcvs_crypto::SeedRng::from_label(b"shard-router-proptest");
        for n in [1usize, 2, 3, 4, 7, 8, 16] {
            let a = ShardRouter::new(n);
            let b = ShardRouter::new(n);
            let mut counts = vec![0u64; n];
            for _ in 0..2000 {
                let len = 1 + rng.next_below(24) as usize;
                let key: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
                let s = a.route_key(&key);
                assert_eq!(s, b.route_key(&key), "independent routers agree");
                assert!(s < n);
                counts[s] += 1;
            }
            if n > 1 {
                let min = *counts.iter().min().unwrap();
                let max = *counts.iter().max().unwrap();
                assert!(
                    min * 2 > max / 2,
                    "n={n}: grossly unbalanced routing {counts:?}"
                );
            }
        }
    }

    #[test]
    fn ops_route_by_their_key() {
        let r = ShardRouter::new(4);
        let k = u64_key(42);
        let s = r.route_key(&k);
        assert_eq!(r.route_op(&Op::Get(k.clone())), Some(s));
        assert_eq!(r.route_op(&Op::Put(k.clone(), vec![1])), Some(s));
        assert_eq!(r.route_op(&Op::Delete(k)), Some(s));
        assert_eq!(r.route_op(&Op::Range(None, None)), None);
    }

    #[test]
    fn partition_preserves_positions_and_order() {
        let r = ShardRouter::new(3);
        let ops: Vec<Op> = (0..20).map(|i| Op::Get(u64_key(i))).collect();
        let groups = r.partition(&ops).unwrap();
        let mut seen = vec![false; ops.len()];
        for (shard, group) in groups.iter().enumerate() {
            let mut last = None;
            for (pos, op) in group {
                assert_eq!(r.route_op(op), Some(shard));
                assert!(last.is_none_or(|l| l < *pos), "in-order within a shard");
                last = Some(*pos);
                assert!(!seen[*pos]);
                seen[*pos] = true;
            }
        }
        assert!(
            seen.iter().all(|s| *s),
            "every op lands in exactly one group"
        );
        assert!(r
            .partition(&[Op::Get(u64_key(0)), Op::Range(None, None)])
            .is_none());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }
}

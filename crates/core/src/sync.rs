//! Broadcast sync-up aggregation (Protocols I and II).
//!
//! Each client produces a [`SyncShare`]; the broadcast channel delivers all
//! shares to all users; each user evaluates its own success predicate and
//! announces the verdict. The run is judged deviant iff **no** user
//! announces success. These helpers compute the aggregate outcome the way
//! an observer of the broadcast channel would.

use tcvs_crypto::Digest;

use crate::msg::SyncShare;

/// Protocol I aggregate outcome: does any user's `gctrᵢ` equal `Σₖ lctrₖ`?
pub fn protocol1_sync_ok(shares: &[SyncShare]) -> bool {
    let total: u64 = shares.iter().map(|s| s.lctr).sum();
    shares.iter().any(|s| s.gctr == total)
}

/// Protocol II aggregate outcome: does any user's
/// `initial ⊕ lastᵢ` equal `⊕ₖ σₖ`? (Trivially true when no operation has
/// occurred anywhere.)
pub fn protocol2_sync_ok(initial: &Digest, shares: &[SyncShare]) -> bool {
    let x = shares.iter().fold(Digest::ZERO, |acc, s| acc ^ s.sigma);
    if shares.iter().all(|s| s.lctr == 0) {
        return x == Digest::ZERO;
    }
    shares
        .iter()
        .filter_map(|s| s.last)
        .any(|last| *initial ^ last == x)
}

/// Protocol I aggregate outcome across a grove: every shard's sync-up must
/// succeed independently.
///
/// The grove epoch rule (DESIGN.md "Sharded grove"): at a sync-up, all
/// shard roots are sampled at one published grove epoch, users exchange one
/// share *per shard*, and the grove passes iff each shard's share set
/// passes [`protocol1_sync_ok`] on its own. There is no useful cross-shard
/// cancellation for counters — summing lctrs across shards would let a
/// shard that under-counts hide behind one that over-counts.
pub fn protocol1_grove_sync_ok(per_shard: &[Vec<SyncShare>]) -> bool {
    !per_shard.is_empty() && per_shard.iter().all(|shares| protocol1_sync_ok(shares))
}

/// Protocol II aggregate outcome across a grove: conjunction of the
/// per-shard predicates, one initial state token per shard.
///
/// Deliberately *not* `⊕ᵢ initialᵢ ⊕ lastᵢ == ⊕ᵢ,ₖ σᵢₖ` (the single-XOR
/// composition): XOR over shards would cancel a *pair* of compensating
/// lies on two shards. Evaluating each shard independently keeps the
/// paper's Theorem 4.2 k-bound per shard, so a lie confined to one shard
/// is caught exactly as on a single server and is localized for free —
/// see [`protocol2_deviating_shards`].
pub fn protocol2_grove_sync_ok(initials: &[Digest], per_shard: &[Vec<SyncShare>]) -> bool {
    initials.len() == per_shard.len()
        && !per_shard.is_empty()
        && initials
            .iter()
            .zip(per_shard)
            .all(|(initial, shares)| protocol2_sync_ok(initial, shares))
}

/// The shards whose Protocol II sync-up failed — the grove's localization
/// bonus: a failed grove sync-up names the deviating shard(s) instead of
/// just the fact of deviation.
pub fn protocol2_deviating_shards(initials: &[Digest], per_shard: &[Vec<SyncShare>]) -> Vec<usize> {
    initials
        .iter()
        .zip(per_shard)
        .enumerate()
        .filter(|(_, (initial, shares))| !protocol2_sync_ok(initial, shares))
        .map(|(i, _)| i)
        .collect()
}

/// Total broadcast traffic in bytes for one sync-up round with `n` users
/// (everyone broadcasts one share to everyone).
pub fn sync_traffic_bytes(shares: &[SyncShare]) -> usize {
    let n = shares.len();
    shares.iter().map(SyncShare::encoded_size).sum::<usize>() * n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::sha256;

    fn share(user: u32, lctr: u64, gctr: u64, sigma: Digest, last: Option<Digest>) -> SyncShare {
        SyncShare {
            user,
            lctr,
            gctr,
            sigma,
            last,
        }
    }

    #[test]
    fn p1_ok_when_latest_matches_total() {
        let shares = vec![
            share(0, 3, 2, Digest::ZERO, None),
            share(1, 2, 5, Digest::ZERO, None),
        ];
        assert!(protocol1_sync_ok(&shares)); // user 1: gctr 5 == 3+2
    }

    #[test]
    fn p1_fails_when_counts_disagree() {
        let shares = vec![
            share(0, 3, 2, Digest::ZERO, None),
            share(1, 3, 5, Digest::ZERO, None),
        ];
        assert!(!protocol1_sync_ok(&shares)); // total 6, nobody saw 6
    }

    #[test]
    fn p2_honest_chain_cancels() {
        // Simulate: initial -> t1 (user 0) -> t2 (user 1).
        let initial = sha256(b"init");
        let t1 = sha256(b"t1");
        let t2 = sha256(b"t2");
        let shares = vec![
            share(0, 1, 1, initial ^ t1, Some(t1)),
            share(1, 1, 2, t1 ^ t2, Some(t2)),
        ];
        assert!(protocol2_sync_ok(&initial, &shares));
    }

    #[test]
    fn p2_fork_does_not_cancel() {
        // Fork: initial -> t1 (user 0); initial -> t2 (user 1).
        let initial = sha256(b"init");
        let t1 = sha256(b"t1");
        let t2 = sha256(b"t2");
        let shares = vec![
            share(0, 1, 1, initial ^ t1, Some(t1)),
            share(1, 1, 1, initial ^ t2, Some(t2)),
        ];
        assert!(!protocol2_sync_ok(&initial, &shares));
    }

    #[test]
    fn p2_zero_ops_trivial() {
        let initial = sha256(b"init");
        let shares = vec![
            share(0, 0, 0, Digest::ZERO, None),
            share(1, 0, 0, Digest::ZERO, None),
        ];
        assert!(protocol2_sync_ok(&initial, &shares));
    }

    #[test]
    fn p2_zero_ops_with_garbage_sigma_fails() {
        let initial = sha256(b"init");
        let shares = vec![share(0, 0, 0, sha256(b"garbage"), None)];
        assert!(!protocol2_sync_ok(&initial, &shares));
    }

    #[test]
    fn grove_p1_requires_every_shard_to_pass() {
        let ok = vec![
            share(0, 3, 2, Digest::ZERO, None),
            share(1, 2, 5, Digest::ZERO, None),
        ];
        let bad = vec![
            share(0, 3, 2, Digest::ZERO, None),
            share(1, 3, 5, Digest::ZERO, None),
        ];
        assert!(protocol1_grove_sync_ok(&[ok.clone(), ok.clone()]));
        assert!(!protocol1_grove_sync_ok(&[ok, bad]));
        assert!(!protocol1_grove_sync_ok(&[]));
    }

    #[test]
    fn grove_p2_localizes_a_single_shard_fork() {
        let init_a = sha256(b"init-a");
        let init_b = sha256(b"init-b");
        let t1 = sha256(b"t1");
        let t2 = sha256(b"t2");
        // Honest chain on a shard: init -> t1 (user 0) -> t2 (user 1).
        let honest = |init: Digest| {
            vec![
                share(0, 1, 1, init ^ t1, Some(t1)),
                share(1, 1, 2, t1 ^ t2, Some(t2)),
            ]
        };
        // Forked shard: both users extend init independently.
        let forked = |init: Digest| {
            vec![
                share(0, 1, 1, init ^ t1, Some(t1)),
                share(1, 1, 1, init ^ t2, Some(t2)),
            ]
        };
        let initials = [init_a, init_b];
        assert!(protocol2_grove_sync_ok(
            &initials,
            &[honest(init_a), honest(init_b)]
        ));
        assert!(!protocol2_grove_sync_ok(
            &initials,
            &[honest(init_a), forked(init_b)]
        ));
        assert_eq!(
            protocol2_deviating_shards(&initials, &[honest(init_a), forked(init_b)]),
            vec![1],
            "the fork is localized to shard 1"
        );
        assert_eq!(
            protocol2_deviating_shards(&initials, &[honest(init_a), honest(init_b)]),
            Vec::<usize>::new()
        );
        // A compensating pair of lies must NOT cancel across shards: both
        // shards forked still fails (each fails independently).
        assert!(!protocol2_grove_sync_ok(
            &initials,
            &[forked(init_a), forked(init_b)]
        ));
    }

    #[test]
    fn grove_p2_rejects_shape_mismatch_and_empty() {
        let init = sha256(b"init");
        assert!(!protocol2_grove_sync_ok(&[], &[]));
        assert!(!protocol2_grove_sync_ok(&[init], &[]));
    }

    #[test]
    fn traffic_scales_quadratically() {
        let s = share(0, 0, 0, Digest::ZERO, None);
        let two = sync_traffic_bytes(&[s.clone(), s.clone()]);
        let four = sync_traffic_bytes(&[s.clone(), s.clone(), s.clone(), s.clone()]);
        assert!(four > 2 * two);
    }
}

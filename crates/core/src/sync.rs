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
    fn traffic_scales_quadratically() {
        let s = share(0, 0, 0, Digest::ZERO, None);
        let two = sync_traffic_bytes(&[s.clone(), s.clone()]);
        let four = sync_traffic_bytes(&[s.clone(), s.clone(), s.clone(), s.clone()]);
        assert!(four > 2 * two);
    }
}

//! The key registry: the reproduction's stand-in for the paper's PKI \[4\].
//!
//! The protocols need exactly two properties from "a public key
//! infrastructure, for example as in \[4\]": (1) signatures are unforgeable,
//! and (2) every user can map a user id to that user's authentic public key.
//! An in-process registry distributed to all users at setup provides (2); the
//! MSS scheme provides (1). X.509 certificate chains, revocation, etc. are
//! out of the paper's scope (it assumes a working PKI as a primitive).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::digest::Digest;
use crate::mss::{
    bottom_root, certifies, MssCertificate, MssError, MssPublicKey, MssSignature, MssSigner,
};
use crate::sha256::hash_parts;

/// A user identifier. `u32::MAX` is reserved as the "no user" sentinel used
/// for the initial database state token in Protocol II.
pub type UserId = u32;

/// Sentinel user id tagging the initial database state (no previous writer).
pub const NO_USER: UserId = u32::MAX;

/// Table of authentic public keys, shared by all honest users.
///
/// It also remembers, per user, the last bottom tree whose certificate it
/// checked, so verifying the next signature from that tree costs one WOTS
/// walk instead of two. A clone starts with a copy of that memory.
#[derive(Default)]
pub struct KeyRegistry {
    keys: BTreeMap<UserId, MssPublicKey>,
    certified: Mutex<BTreeMap<UserId, Certified>>,
}

/// A bottom tree whose root's certificate a registry has checked.
#[derive(Clone)]
struct Certified {
    tree: u64,
    root: Digest,
    cert: Arc<MssCertificate>,
}

impl Clone for KeyRegistry {
    fn clone(&self) -> KeyRegistry {
        KeyRegistry {
            keys: self.keys.clone(),
            certified: Mutex::new(self.certified().clone()),
        }
    }
}

impl KeyRegistry {
    /// Empty registry.
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Registers a user's public key. Returns `false` (and leaves the
    /// registry unchanged) if the id is already registered or reserved.
    pub fn register(&mut self, user: UserId, key: MssPublicKey) -> bool {
        if user == NO_USER || self.keys.contains_key(&user) {
            return false;
        }
        self.keys.insert(user, key);
        true
    }

    /// Looks up a user's public key.
    pub fn lookup(&self, user: UserId) -> Option<&MssPublicKey> {
        self.keys.get(&user)
    }

    /// Verifies that `sig` is `user`'s signature over `msg`. Decides
    /// exactly as [`crate::mss_verify`] does; the top-level check is
    /// skipped only for the bottom root, tree and certificate this
    /// registry last checked for `user`, where it would pass again.
    pub fn verify(&self, user: UserId, msg: &Digest, sig: &MssSignature) -> bool {
        let Some(pk) = self.lookup(user) else {
            return false;
        };
        let Some((tree, root)) = bottom_root(pk, msg, sig) else {
            return false;
        };
        let known = |c: &Certified| c.tree == tree && c.root == root && c.cert == sig.cert;
        if self.certified().get(&user).is_some_and(known) {
            return true;
        }
        if !certifies(pk, tree, &root, &sig.cert) {
            return false;
        }
        let cert = sig.cert.clone();
        self.certified()
            .insert(user, Certified { tree, root, cert });
        true
    }

    fn certified(&self) -> MutexGuard<'_, BTreeMap<UserId, Certified>> {
        self.certified
            .lock()
            .expect("no thread panics while holding the certificate cache")
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Registered user ids, ascending.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.keys.keys().copied()
    }
}

/// A user's signing identity: id + stateful MSS signer.
pub struct Keyring {
    /// The user this keyring signs for.
    pub user: UserId,
    signer: MssSigner,
}

impl Keyring {
    /// Derives a keyring for `user` from a shared setup seed. Each user's key
    /// material is an independent hash-derived stream.
    pub fn derive(setup_seed: &[u8; 32], user: UserId, height: u32) -> Keyring {
        let seed = hash_parts(&[b"tcvs-keyring", setup_seed, &user.to_be_bytes()]);
        Keyring {
            user,
            signer: MssSigner::generate(seed.0, height),
        }
    }

    /// The public key to publish in the registry.
    pub fn public_key(&self) -> MssPublicKey {
        self.signer.public_key()
    }

    /// Does the message-independent part of the next signature now (see
    /// [`MssSigner::prepare`]), off whatever path the next `sign` is on.
    pub fn prepare(&mut self) {
        self.signer.prepare();
    }

    /// Signs a message digest.
    pub fn sign(&mut self, msg: &Digest) -> Result<MssSignature, MssError> {
        self.signer.sign(msg)
    }

    /// Remaining signatures before key exhaustion.
    pub fn remaining(&self) -> u64 {
        self.signer.remaining()
    }
}

/// Convenience: builds keyrings for users `0..n` and the matching registry.
pub fn setup_users(setup_seed: [u8; 32], n: u32, height: u32) -> (Vec<Keyring>, KeyRegistry) {
    let mut registry = KeyRegistry::new();
    let mut rings = Vec::with_capacity(n as usize);
    for user in 0..n {
        let ring = Keyring::derive(&setup_seed, user, height);
        assert!(registry.register(user, ring.public_key()));
        rings.push(ring);
    }
    (rings, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mss::mss_verify;
    use crate::sha256::sha256;
    use std::sync::Barrier;

    #[test]
    fn setup_and_cross_verification() {
        let (mut rings, registry) = setup_users([3u8; 32], 3, 3);
        assert_eq!(registry.len(), 3);
        let msg = sha256(b"root||ctr");
        let sig = rings[1].sign(&msg).unwrap();
        assert!(registry.verify(1, &msg, &sig));
        // Claiming another user's identity fails.
        assert!(!registry.verify(0, &msg, &sig));
        assert!(!registry.verify(2, &msg, &sig));
    }

    #[test]
    fn unknown_user_never_verifies() {
        let (mut rings, registry) = setup_users([3u8; 32], 2, 3);
        let msg = sha256(b"m");
        let sig = rings[0].sign(&msg).unwrap();
        assert!(!registry.verify(99, &msg, &sig));
    }

    #[test]
    fn duplicate_and_reserved_registration_rejected() {
        let mut registry = KeyRegistry::new();
        let ring = Keyring::derive(&[1u8; 32], 0, 2);
        assert!(registry.register(0, ring.public_key()));
        assert!(!registry.register(0, ring.public_key()));
        assert!(!registry.register(NO_USER, ring.public_key()));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn distinct_users_get_distinct_keys() {
        let (rings, _) = setup_users([8u8; 32], 4, 2);
        let mut roots: Vec<_> = rings.iter().map(|r| r.public_key().root).collect();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), 4);
    }

    #[test]
    fn keyring_capacity_tracks_signing() {
        let mut ring = Keyring::derive(&[5u8; 32], 7, 2);
        assert_eq!(ring.remaining(), 4);
        ring.sign(&sha256(b"a")).unwrap();
        assert_eq!(ring.remaining(), 3);
    }

    #[test]
    fn users_iterator_ascending() {
        let (_, registry) = setup_users([2u8; 32], 5, 2);
        let ids: Vec<_> = registry.users().collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    fn signed(ring: &mut Keyring, i: u32) -> (Digest, MssSignature) {
        let msg = sha256(&i.to_be_bytes());
        let sig = ring.sign(&msg).unwrap();
        (msg, sig)
    }

    /// Refused by the cold two-level check and by this (warm) registry.
    fn refused(registry: &KeyRegistry, user: UserId, msg: &Digest, sig: &MssSignature) -> bool {
        let pk = registry.lookup(user).unwrap();
        !mss_verify(pk, msg, sig) && !registry.verify(user, msg, sig)
    }

    #[test]
    fn forged_certificates_refused_cold_and_warm() {
        // Height 6: four bottom trees of 16 leaves under a top tree of 4.
        let (mut rings, registry) = setup_users([4u8; 32], 2, 6);
        let tree0: Vec<_> = (0..16).map(|i| signed(&mut rings[0], i)).collect();
        let (m16, s16) = signed(&mut rings[0], 16);
        let (m_other, s_other) = signed(&mut rings[1], 0);
        let (m, honest) = &tree0[5];
        // Both users' tree-0 roots are in the cache from here on.
        assert!(registry.verify(0, m, honest));
        assert!(registry.verify(1, &m_other, &s_other));

        // A certificate moved to another bottom tree of the same signer.
        let mut moved = s16.clone();
        moved.cert = honest.cert.clone();
        assert!(refused(&registry, 0, &m16, &moved));
        let mut moved = honest.clone();
        moved.cert = s16.cert.clone();
        assert!(refused(&registry, 0, m, &moved));

        // A certificate moved to another signer.
        let mut stolen = s_other.clone();
        stolen.cert = honest.cert.clone();
        assert!(refused(&registry, 1, &m_other, &stolen));
        let mut stolen = honest.clone();
        stolen.cert = s_other.cert.clone();
        assert!(refused(&registry, 0, m, &stolen));

        // One flipped byte in the top WOTS value, the top path, the bottom
        // path.
        for v in 0..honest.cert.wots.values.len() {
            let mut flipped = honest.clone();
            Arc::make_mut(&mut flipped.cert).wots.values[v].0[v % 32] ^= 1;
            assert!(refused(&registry, 0, m, &flipped), "top wots value {v}");
        }
        for d in 0..honest.cert.auth_path.len() {
            let mut flipped = honest.clone();
            Arc::make_mut(&mut flipped.cert).auth_path[d].0[7] ^= 0x80;
            assert!(refused(&registry, 0, m, &flipped), "top path digest {d}");
        }
        for d in 0..honest.auth_path.len() {
            let mut flipped = honest.clone();
            flipped.auth_path[d].0[31] ^= 1;
            assert!(refused(&registry, 0, m, &flipped), "bottom path digest {d}");
        }

        // A bottom tree that recomputes to another root, or claims another
        // tree, with the cached certificate: the top check still runs.
        assert!(refused(&registry, 0, &sha256(b"never signed"), honest));
        let mut other_leaf = honest.clone();
        other_leaf.leaf_index ^= 1;
        assert!(refused(&registry, 0, m, &other_leaf));
        let mut other_tree = honest.clone();
        other_tree.leaf_index += 16;
        assert!(refused(&registry, 0, m, &other_tree));

        // Nothing above evicted the honest roots.
        let pk = registry.lookup(0).unwrap();
        for (m, sig) in tree0.iter().chain([&(m16, s16)]) {
            assert!(mss_verify(pk, m, sig) && registry.verify(0, m, sig));
        }
        assert!(registry.verify(1, &m_other, &s_other));
    }

    /// Two threads verify the same signatures (and a forgery of each)
    /// through one shared registry and through clones of it, started
    /// together; a clone starts from a copy of the checked roots.
    #[test]
    fn registry_clones_and_a_shared_registry_verify_across_threads() {
        let (mut rings, registry) = setup_users([6u8; 32], 2, 6);
        let sigs: Vec<_> = (0..48u32)
            .map(|i| {
                let user = i % 2;
                let (msg, sig) = signed(&mut rings[user as usize], i);
                (user, msg, sig)
            })
            .collect();
        assert!(registry.verify(sigs[0].0, &sigs[0].1, &sigs[0].2));
        assert_eq!(registry.clone().certified().len(), 1);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (shared, own, sigs, start) = (&registry, registry.clone(), &sigs, &start);
                s.spawn(move || {
                    start.wait();
                    for (user, msg, sig) in sigs {
                        let mut forged = sig.clone();
                        Arc::make_mut(&mut forged.cert).wots.values[0].0[0] ^= 1;
                        for r in [shared, &own] {
                            assert!(r.verify(*user, msg, sig));
                            assert!(!r.verify(*user, msg, &forged));
                        }
                    }
                });
            }
        });
        assert_eq!(registry.certified().len(), 2);
    }
}

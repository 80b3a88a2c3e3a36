//! The key registry: the reproduction's stand-in for the paper's PKI \[4\].
//!
//! The protocols need exactly two properties from "a public key
//! infrastructure, for example as in \[4\]": (1) signatures are unforgeable,
//! and (2) every user can map a user id to that user's authentic public key.
//! An in-process registry distributed to all users at setup provides (2); the
//! MSS scheme provides (1). X.509 certificate chains, revocation, etc. are
//! out of the paper's scope (it assumes a working PKI as a primitive).

use std::collections::BTreeMap;

use crate::digest::Digest;
use crate::mss::{mss_verify, MssError, MssPublicKey, MssSignature, MssSigner};
use crate::sha256::hash_parts;

/// A user identifier. `u32::MAX` is reserved as the "no user" sentinel used
/// for the initial database state token in Protocol II.
pub type UserId = u32;

/// Sentinel user id tagging the initial database state (no previous writer).
pub const NO_USER: UserId = u32::MAX;

/// Immutable table of authentic public keys, shared by all honest users.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    keys: BTreeMap<UserId, MssPublicKey>,
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

    /// Verifies that `sig` is `user`'s signature over `msg`.
    pub fn verify(&self, user: UserId, msg: &Digest, sig: &MssSignature) -> bool {
        match self.lookup(user) {
            Some(pk) => mss_verify(pk, msg, sig),
            None => false,
        }
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
    use crate::sha256::sha256;

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
}

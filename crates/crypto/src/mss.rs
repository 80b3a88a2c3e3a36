//! Merkle Signature Scheme (MSS): a many-time signature built from a Merkle
//! tree over 2^H one-time (WOTS) public keys.
//!
//! This is the digital-signature substrate for Protocol I and Protocol III
//! (the paper assumes "a public key infrastructure, for example as in \[4\]").
//! The choice of a hash-based scheme keeps the whole trust chain on the same
//! collision-intractability assumption the paper already makes, and needs no
//! external crates — the signature construction is exactly the one in
//! Merkle's "A certified digital signature" (CRYPTO '89), which the paper
//! cites as \[9\].

use crate::digest::Digest;
use crate::sha256::hash_parts;
use crate::wots::{
    wots_pk_from_sig, wots_public_key_at, wots_secret_key_at, wots_sign, WotsSecretKey,
    WotsSignature,
};

/// Combines two child node digests into a parent digest (domain separated).
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    hash_parts(&[b"tcvs-mss-node", left.as_bytes(), right.as_bytes()])
}

/// An MSS public key: the Merkle root over the one-time public keys plus the
/// tree height (which bounds how many signatures the key can make).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MssPublicKey {
    /// Root digest of the Merkle tree over one-time public keys.
    pub root: Digest,
    /// Tree height; the key can sign `2^height` messages.
    pub height: u32,
}

/// An MSS signature: the index of the one-time key used, the WOTS signature,
/// and the authentication path from that leaf to the root.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MssSignature {
    /// Index of the one-time key used.
    pub leaf_index: u64,
    /// The underlying Winternitz signature.
    pub wots: WotsSignature,
    /// Sibling digests from the leaf to the root.
    pub auth_path: Vec<Digest>,
}

impl MssSignature {
    /// Signature size in bytes (wire estimate).
    pub fn size_bytes(&self) -> usize {
        8 + self.wots.size_bytes() + self.auth_path.len() * Digest::LEN
    }
}

/// Errors from MSS signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MssError {
    /// All 2^H one-time keys are spent.
    KeyExhausted,
}

impl std::fmt::Display for MssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MssError::KeyExhausted => write!(f, "all one-time keys of this MSS key are spent"),
        }
    }
}

impl std::error::Error for MssError {}

/// A stateful MSS signer. Tracks which one-time key to use next; the full
/// node set of the Merkle tree is retained (`2^(height+1)` digests, 1 MiB at
/// height 14) so authentication paths are O(H) lookups.
///
/// Signing is split into an *offline* half that does not depend on the
/// message — [`MssSigner::prepare`] builds the next leaf's chain table —
/// and an *online* half, [`MssSigner::sign`], that reads 67 values out of
/// it. At most one leaf is prepared at a time, and `sign` consumes it.
pub struct MssSigner {
    master_seed: [u8; 32],
    height: u32,
    /// `levels[0]` = leaves, `levels[height]` = `[root]`.
    levels: Vec<Vec<Digest>>,
    next_leaf: u64,
    /// Leaf `next_leaf`'s one-time key, when prepared ahead of its use.
    prepared: Option<WotsSecretKey>,
}

impl MssSigner {
    /// Generates a signer with capacity for `2^height` signatures.
    ///
    /// Key generation computes every one-time public key: `2^height` leaves
    /// of ~1,040 SHA-256 compressions each (about 0.8 s per signer at
    /// height 14 on SHA-NI hardware; experiment E8 has the table).
    pub fn generate(master_seed: [u8; 32], height: u32) -> MssSigner {
        assert!(height <= 20, "MSS height {height} unreasonably large");
        let n_leaves = 1u64 << height;
        let leaves: Vec<Digest> = (0..n_leaves)
            .map(|i| wots_public_key_at(&master_seed, i).compress())
            .collect();
        let mut levels = vec![leaves];
        for h in 0..height {
            let below = &levels[h as usize];
            let mut level = Vec::with_capacity(below.len() / 2);
            for pair in below.chunks_exact(2) {
                level.push(node_hash(&pair[0], &pair[1]));
            }
            levels.push(level);
        }
        MssSigner {
            master_seed,
            height,
            levels,
            next_leaf: 0,
            prepared: None,
        }
    }

    /// The public key to register for this signer.
    pub fn public_key(&self) -> MssPublicKey {
        MssPublicKey {
            root: self.levels[self.height as usize][0],
            height: self.height,
        }
    }

    /// Remaining signature capacity.
    pub fn remaining(&self) -> u64 {
        (1u64 << self.height) - self.next_leaf
    }

    /// Builds the next leaf's one-time key now, so that the next
    /// [`MssSigner::sign`] only looks values up. Idempotent; a no-op once
    /// the key is exhausted.
    pub fn prepare(&mut self) {
        if self.prepared.is_none() && self.remaining() > 0 {
            self.prepared = Some(wots_secret_key_at(&self.master_seed, self.next_leaf));
        }
    }

    /// Signs a message digest with the next unused one-time key, preparing
    /// it first if [`MssSigner::prepare`] has not.
    pub fn sign(&mut self, msg: &Digest) -> Result<MssSignature, MssError> {
        self.prepare();
        let mut sk = self.prepared.take().ok_or(MssError::KeyExhausted)?;
        let idx = self.next_leaf;
        self.next_leaf += 1;
        let wots = wots_sign(&mut sk, msg).expect("fresh one-time key");

        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut node = idx;
        for h in 0..self.height {
            let sibling = node ^ 1;
            auth_path.push(self.levels[h as usize][sibling as usize]);
            node >>= 1;
        }
        Ok(MssSignature {
            leaf_index: idx,
            wots,
            auth_path,
        })
    }
}

/// Verifies an MSS signature against a public key.
pub fn mss_verify(pk: &MssPublicKey, msg: &Digest, sig: &MssSignature) -> bool {
    if sig.auth_path.len() != pk.height as usize {
        return false;
    }
    if sig.leaf_index >= (1u64 << pk.height) {
        return false;
    }
    let leaf = wots_pk_from_sig(msg, &sig.wots).compress();
    let mut node = leaf;
    let mut idx = sig.leaf_index;
    for sib in &sig.auth_path {
        node = if idx & 1 == 0 {
            node_hash(&node, sib)
        } else {
            node_hash(sib, &node)
        };
        idx >>= 1;
    }
    node == pk.root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use crate::wots::OtsError;

    fn signer(h: u32) -> MssSigner {
        MssSigner::generate([7u8; 32], h)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut s = signer(3);
        let pk = s.public_key();
        for i in 0..8u32 {
            let msg = sha256(&i.to_be_bytes());
            let sig = s.sign(&msg).unwrap();
            assert!(mss_verify(&pk, &msg, &sig), "sig {i}");
            assert_eq!(sig.leaf_index, i as u64);
        }
    }

    #[test]
    fn exhaustion_detected() {
        let mut s = signer(2);
        for i in 0..4u32 {
            s.sign(&sha256(&i.to_be_bytes())).unwrap();
        }
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.sign(&sha256(b"x")), Err(MssError::KeyExhausted));
    }

    #[test]
    fn prepared_signature_equals_on_demand_signature() {
        let (mut ahead, mut lazy) = (signer(3), signer(3));
        for i in 0..8u32 {
            let msg = sha256(&i.to_be_bytes());
            ahead.prepare();
            assert_eq!(ahead.sign(&msg), lazy.sign(&msg), "leaf {i}");
        }
    }

    #[test]
    fn prepared_leaf_is_consumed_once_and_by_its_own_index() {
        let mut s = signer(2);
        let pk = s.public_key();
        s.prepare();
        s.prepare(); // idempotent: still leaf 0's key
        let (m0, m1) = (sha256(b"zero"), sha256(b"one"));
        let sig0 = s.sign(&m0).unwrap();
        // The prepared key went with that signature: the next one comes
        // from the next leaf, never a second time from leaf 0.
        let sig1 = s.sign(&m1).unwrap();
        assert_eq!((sig0.leaf_index, sig1.leaf_index), (0, 1));
        assert!(mss_verify(&pk, &m0, &sig0) && mss_verify(&pk, &m1, &sig1));
        assert_eq!(s.remaining(), 2);
        // Below the signer, the one-time key itself refuses a second use.
        let mut sk = wots_secret_key_at(&[7u8; 32], 0);
        wots_sign(&mut sk, &m0).unwrap();
        assert_eq!(wots_sign(&mut sk, &m1), Err(OtsError::KeyReused));
    }

    #[test]
    fn preparing_past_the_last_leaf_is_a_no_op() {
        let mut s = signer(1);
        s.sign(&sha256(b"a")).unwrap();
        s.prepare();
        s.sign(&sha256(b"b")).unwrap();
        s.prepare();
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.sign(&sha256(b"c")), Err(MssError::KeyExhausted));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut s = signer(3);
        let pk = s.public_key();
        let sig = s.sign(&sha256(b"real")).unwrap();
        assert!(!mss_verify(&pk, &sha256(b"fake"), &sig));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut s = signer(4);
        let pk = s.public_key();
        let msg = sha256(b"m");
        let mut sig = s.sign(&msg).unwrap();
        sig.auth_path[2].0[5] ^= 1;
        assert!(!mss_verify(&pk, &msg, &sig));
    }

    #[test]
    fn wrong_leaf_index_rejected() {
        let mut s = signer(4);
        let pk = s.public_key();
        let msg = sha256(b"m");
        let mut sig = s.sign(&msg).unwrap();
        sig.leaf_index = 3;
        assert!(!mss_verify(&pk, &msg, &sig));
        sig.leaf_index = 1 << 10; // out of range entirely
        assert!(!mss_verify(&pk, &msg, &sig));
    }

    #[test]
    fn cross_key_verification_fails() {
        let mut s1 = MssSigner::generate([1u8; 32], 3);
        let s2 = MssSigner::generate([2u8; 32], 3);
        let msg = sha256(b"m");
        let sig = s1.sign(&msg).unwrap();
        assert!(!mss_verify(&s2.public_key(), &msg, &sig));
    }

    #[test]
    fn wrong_height_pk_rejected() {
        let mut s = signer(3);
        let msg = sha256(b"m");
        let sig = s.sign(&msg).unwrap();
        let bad_pk = MssPublicKey {
            root: s.public_key().root,
            height: 4,
        };
        assert!(!mss_verify(&bad_pk, &msg, &sig));
    }

    #[test]
    fn deterministic_public_key() {
        let a = MssSigner::generate([9u8; 32], 3).public_key();
        let b = MssSigner::generate([9u8; 32], 3).public_key();
        assert_eq!(a, b);
    }

    #[test]
    fn signature_size_accounting() {
        let mut s = signer(5);
        let sig = s.sign(&sha256(b"m")).unwrap();
        assert_eq!(sig.size_bytes(), 8 + 67 * 32 + 5 * 32);
    }
}

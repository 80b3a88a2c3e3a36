//! Merkle Signature Scheme (MSS): a many-time signature built from
//! Winternitz one-time (WOTS) keys arranged in two levels.
//!
//! This is the digital-signature substrate for Protocol I and Protocol III
//! (the paper assumes "a public key infrastructure, for example as in \[4\]").
//! The choice of a hash-based scheme keeps the whole trust chain on the same
//! collision-intractability assumption the paper already makes, and needs no
//! external crates — the signature construction is the one in Merkle's
//! "A certified digital signature" (CRYPTO '89), which the paper cites as
//! \[9\], including its certification of one tree's root by another.
//!
//! A height-`h` key is a *top* tree of height `h − b` whose one-time keys
//! each sign the root of one *bottom* tree of height `b = min(4, h)`; the
//! bottom trees' one-time keys sign messages. Capacity is `2^h`, but key
//! generation walks only the `2^(h−b)` top keys, and a bottom tree is built
//! while the previous one is in use.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::digest::Digest;
use crate::sha256::hash_parts;
use crate::wots::{
    wots_pk_from_sig, wots_public_key_at, wots_secret_key_at, wots_sign, WotsKeyBuilder,
    WotsSecretKey, WotsSignature, LEN,
};

/// Height of a bottom tree, for keys at least this tall.
const BOTTOM_HEIGHT: u32 = 4;

/// The bottom-tree height of a height-`height` key.
fn bottom_height(height: u32) -> u32 {
    height.min(BOTTOM_HEIGHT)
}

/// Combines two child node digests into a parent digest (domain separated).
fn node_hash(left: &Digest, right: &Digest) -> Digest {
    hash_parts(&[b"tcvs-mss-node", left.as_bytes(), right.as_bytes()])
}

/// The node levels of a Merkle tree over a power-of-two number of leaves:
/// `levels[0]` the leaves, the last level `[root]`.
fn tree_levels(leaves: Vec<Digest>) -> Vec<Vec<Digest>> {
    let mut levels = vec![leaves];
    while let Some(below) = levels.last().filter(|level| level.len() > 1) {
        let level = below
            .chunks_exact(2)
            .map(|pair| node_hash(&pair[0], &pair[1]))
            .collect();
        levels.push(level);
    }
    levels
}

/// The sibling digests from leaf `index` up to the root.
fn auth_path(levels: &[Vec<Digest>], index: u64) -> Vec<Digest> {
    let below_root = &levels[..levels.len() - 1];
    below_root
        .iter()
        .enumerate()
        .map(|(h, level)| level[((index >> h) ^ 1) as usize])
        .collect()
}

/// The root that leaf `index` reaches along `path`.
fn climb(leaf: Digest, index: u64, path: &[Digest]) -> Digest {
    let mut node = leaf;
    for (h, sib) in (0u32..).zip(path) {
        node = if index.checked_shr(h).unwrap_or(0) & 1 == 0 {
            node_hash(&node, sib)
        } else {
            node_hash(sib, &node)
        };
    }
    node
}

/// An MSS public key: the top tree's root plus the key's total height
/// (which bounds how many signatures the key can make).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MssPublicKey {
    /// Root digest of the top tree.
    pub root: Digest,
    /// Total height; the key can sign `2^height` messages.
    pub height: u32,
}

/// The top tree's certification of one bottom tree's root. Every
/// signature from that bottom tree carries the same one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MssCertificate {
    /// The top one-time key's signature over the bottom root.
    pub wots: WotsSignature,
    /// Sibling digests from that top leaf to the public root.
    pub auth_path: Vec<Digest>,
}

/// An MSS signature: the index of the one-time key used, its WOTS
/// signature, the authentication path to its bottom tree's root, and that
/// root's certificate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MssSignature {
    /// Index of the one-time key used, counted across all bottom trees.
    pub leaf_index: u64,
    /// The Winternitz signature over the message.
    pub wots: WotsSignature,
    /// Sibling digests from the leaf to its bottom tree's root.
    pub auth_path: Vec<Digest>,
    /// The bottom root's certificate, shared by every signature from that
    /// tree (and every copy of them).
    pub cert: Arc<MssCertificate>,
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

/// A complete bottom tree and its certificate.
struct Bottom {
    /// Which top leaf certified it.
    index: u64,
    levels: Vec<Vec<Digest>>,
    cert: Arc<MssCertificate>,
}

/// The bottom tree being built ahead of use: the leaves built so far, and
/// the top one-time key that will certify it, walked a slice of chains per
/// leaf so no single leaf pays for a whole extra walk.
struct Building {
    index: u64,
    leaves: Vec<Digest>,
    top_key: WotsKeyBuilder,
}

impl Building {
    fn new(top_seed: &[u8; 32], index: u64) -> Building {
        Building {
            index,
            leaves: Vec::new(),
            top_key: WotsKeyBuilder::at(top_seed, index),
        }
    }

    /// Hashes the tree and signs its root with the finished top key.
    fn certify(self, top: &[Vec<Digest>]) -> Bottom {
        let levels = tree_levels(self.leaves);
        let root = levels[levels.len() - 1][0];
        let cert = Arc::new(MssCertificate {
            wots: wots_sign(&mut self.top_key.finish(), &root).expect("fresh one-time key"),
            auth_path: auth_path(top, self.index),
        });
        Bottom {
            index: self.index,
            levels,
            cert,
        }
    }
}

/// A stateful MSS signer. It keeps the top tree's nodes, the bottom tree
/// it is signing from, and a window of at most one bottom tree's worth of
/// WOTS chain tables (≈ 34 KB each): the unused leaves of the current
/// bottom tree, then the leaves built so far of the next one, whose
/// certifying top key is built alongside.
///
/// Every leaf's chain table is walked once. Signing is split into an
/// *offline* half that does not depend on the message —
/// [`MssSigner::prepare`] builds the next tables — and an *online* half,
/// [`MssSigner::sign`], that reads 67 values out of the oldest table.
pub struct MssSigner {
    master_seed: [u8; 32],
    /// Seed of the top tree's one-time keys, apart from the bottom trees'.
    top_seed: [u8; 32],
    height: u32,
    /// The top tree's node levels; `top[0]` are its one-time public keys.
    top: Vec<Vec<Digest>>,
    /// The bottom tree holding `next_leaf` (or, until the next one is
    /// complete, the one just used up). `None` only inside `generate`.
    bottom: Option<Bottom>,
    next: Building,
    next_leaf: u64,
    /// Chain tables of leaves `next_leaf ..`, in order.
    tables: VecDeque<WotsSecretKey>,
}

impl MssSigner {
    /// Generates a signer with capacity for `2^height` signatures.
    ///
    /// Key generation computes the `2^(height − 4)` top one-time public
    /// keys (~1,040 SHA-256 compressions each), then builds and certifies
    /// the first bottom tree: 16 chain tables and one more walk
    /// (experiment E8 has the table).
    pub fn generate(master_seed: [u8; 32], height: u32) -> MssSigner {
        assert!(height <= 20, "MSS height {height} unreasonably large");
        let top_seed = hash_parts(&[b"tcvs-mss-top", &master_seed]).0;
        let top_leaves = (0..1u64 << (height - bottom_height(height)))
            .map(|i| wots_public_key_at(&top_seed, i).compress())
            .collect();
        let mut signer = MssSigner {
            master_seed,
            top_seed,
            height,
            top: tree_levels(top_leaves),
            bottom: None,
            next: Building::new(&top_seed, 0),
            next_leaf: 0,
            tables: VecDeque::new(),
        };
        signer.prepare();
        signer
    }

    /// The public key to register for this signer.
    pub fn public_key(&self) -> MssPublicKey {
        MssPublicKey {
            root: self.top[self.top.len() - 1][0],
            height: self.height,
        }
    }

    /// Remaining signature capacity.
    pub fn remaining(&self) -> u64 {
        (1u64 << self.height) - self.next_leaf
    }

    /// Builds chain tables ahead until the window holds a bottom tree's
    /// worth, so that the next [`MssSigner::sign`] only looks values up.
    /// After each `sign` that is one table, and one slice of the next
    /// certifying key. Idempotent; a no-op once the key has no unbuilt
    /// leaves.
    pub fn prepare(&mut self) {
        let window = 1usize << bottom_height(self.height);
        while self.tables.len() < window && (self.tables.len() as u64) < self.remaining() {
            self.step();
        }
    }

    /// Builds the chain table of the first leaf past the window and a
    /// slice of the top key certifying its tree. The last leaf of a bottom
    /// tree completes it: the tree is certified and signed from next.
    fn step(&mut self) {
        let b = bottom_height(self.height);
        let leaf = self.next_leaf + self.tables.len() as u64;
        let sk = wots_secret_key_at(&self.master_seed, leaf);
        self.next.leaves.push(sk.public_key().compress());
        self.next.top_key.build(LEN.div_ceil(1 << b));
        self.tables.push_back(sk);
        if self.next.leaves.len() == 1 << b {
            let following = Building::new(&self.top_seed, self.next.index + 1);
            let done = std::mem::replace(&mut self.next, following);
            self.bottom = Some(done.certify(&self.top));
        }
    }

    /// Signs a message digest with the next unused one-time key, building
    /// its bottom tree first if [`MssSigner::prepare`] has not.
    pub fn sign(&mut self, msg: &Digest) -> Result<MssSignature, MssError> {
        if self.remaining() == 0 {
            return Err(MssError::KeyExhausted);
        }
        let b = bottom_height(self.height);
        while self.bottom.as_ref().map(|t| t.index) != Some(self.next_leaf >> b) {
            self.step();
        }
        let bottom = self.bottom.as_ref().expect("built by the loop above");
        let mut sk = self
            .tables
            .pop_front()
            .expect("a complete bottom tree's unused leaves have tables");
        let idx = self.next_leaf;
        self.next_leaf += 1;
        Ok(MssSignature {
            leaf_index: idx,
            wots: wots_sign(&mut sk, msg).expect("fresh one-time key"),
            auth_path: auth_path(&bottom.levels, idx % (1 << b)),
            cert: bottom.cert.clone(),
        })
    }
}

/// The bottom tree `sig` claims and the root its message half reaches, if
/// the signature's shape fits `pk`. One WOTS walk plus the bottom path.
pub(crate) fn bottom_root(
    pk: &MssPublicKey,
    msg: &Digest,
    sig: &MssSignature,
) -> Option<(u64, Digest)> {
    let b = bottom_height(pk.height);
    let fits = sig.auth_path.len() == b as usize
        && sig.cert.auth_path.len() == (pk.height - b) as usize
        && sig.leaf_index.checked_shr(pk.height).unwrap_or(0) == 0;
    fits.then(|| {
        let leaf = wots_pk_from_sig(msg, &sig.wots).compress();
        (
            sig.leaf_index >> b,
            climb(leaf, sig.leaf_index, &sig.auth_path),
        )
    })
}

/// Whether `cert` certifies `root` as bottom tree `tree` of `pk`. One WOTS
/// walk plus the top path.
pub(crate) fn certifies(
    pk: &MssPublicKey,
    tree: u64,
    root: &Digest,
    cert: &MssCertificate,
) -> bool {
    let top_leaf = wots_pk_from_sig(root, &cert.wots).compress();
    climb(top_leaf, tree, &cert.auth_path) == pk.root
}

/// Verifies an MSS signature against a public key, checking both levels.
pub fn mss_verify(pk: &MssPublicKey, msg: &Digest, sig: &MssSignature) -> bool {
    bottom_root(pk, msg, sig).is_some_and(|(tree, root)| certifies(pk, tree, &root, &sig.cert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;
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

    /// Preparing on a random subset of steps, across three bottom-tree
    /// boundaries, never changes a signature.
    #[test]
    fn prepared_signature_equals_on_demand_signature() {
        let (mut ahead, mut lazy) = (signer(6), signer(6));
        let mut coin = SeedRng::from_label(b"mss-prepare-subset");
        for i in 0..64u32 {
            let msg = sha256(&i.to_be_bytes());
            if coin.next_u64() & 1 == 1 {
                ahead.prepare();
            }
            assert_eq!(ahead.sign(&msg), lazy.sign(&msg), "leaf {i}");
            assert!(ahead.tables.len() <= 16, "the window holds one bottom tree");
        }
        assert_eq!(ahead.sign(&sha256(b"x")), Err(MssError::KeyExhausted));
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
        let mut s = signer(6);
        let pk = s.public_key();
        let msg = sha256(b"m");
        let sig = s.sign(&msg).unwrap();
        let mut bottom = sig.clone();
        bottom.auth_path[2].0[5] ^= 1;
        assert!(!mss_verify(&pk, &msg, &bottom));
        let mut top = sig;
        Arc::make_mut(&mut top.cert).auth_path[1].0[5] ^= 1;
        assert!(!mss_verify(&pk, &msg, &top));
    }

    #[test]
    fn wrong_leaf_index_rejected() {
        let mut s = signer(6);
        let pk = s.public_key();
        let msg = sha256(b"m");
        let mut sig = s.sign(&msg).unwrap();
        sig.leaf_index = 3; // same bottom tree, another leaf
        assert!(!mss_verify(&pk, &msg, &sig));
        sig.leaf_index = 16; // same leaf position, another bottom tree
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
        for height in [4, 64, u32::MAX] {
            let bad_pk = MssPublicKey {
                root: s.public_key().root,
                height,
            };
            assert!(!mss_verify(&bad_pk, &msg, &sig));
        }
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
        // Bottom path 4 and top path 1 digests, two WOTS bodies.
        assert_eq!((sig.auth_path.len(), sig.cert.auth_path.len()), (4, 1));
        assert_eq!(
            sig.wots.size_bytes() + sig.cert.wots.size_bytes(),
            2 * 67 * 32
        );
    }
}

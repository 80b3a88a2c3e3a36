//! Winternitz one-time signatures (WOTS) with w = 16.
//!
//! The compact OTS used as the leaf scheme of the Merkle Signature Scheme
//! ([`crate::mss`]). A 256-bit digest is cut into 64 base-16 chunks plus a
//! 3-chunk checksum; each chunk selects a position along an independent
//! length-16 hash chain.
//!
//! One chain step is one SHA-256 compression over the fixed 55-byte message
//! `"tcvs-wots-chain" ‖ chain index (u32 BE) ‖ position (u32 BE) ‖ value`
//! (index and position prevent cross-chain and cross-position reuse). A
//! key's 67 chains advance in lockstep through [`crate::multilane`]: all
//! end at position `W - 1`, so a chain starting at `p` joins in round `p`.
//! A secret key *is* its chain table (~34 KB): building it is the walk key
//! generation pays for the public key, and signing from it is 67 lookups.

use crate::digest::Digest;
use crate::multilane::sha256_blocks;
use crate::rng::SeedRng;
use crate::sha256::{hash_parts, Sha256};

/// Winternitz parameter (chain length). Chunks are 4 bits.
pub const W: u32 = 16;
/// Number of message chunks (256 bits / 4 bits).
pub const LEN1: usize = 64;
/// Number of checksum chunks: max checksum = 64·15 = 960 < 16³.
pub const LEN2: usize = 3;
/// Total number of hash chains per key.
pub const LEN: usize = LEN1 + LEN2;

/// Last chain position: the public end of every chain.
const TOP: usize = W as usize - 1;

/// WOTS secret key: the full chain table, `table[i][p]` being chain `i` at
/// position `p` (`p = 0` the secret start, `p = W - 1` the public end).
pub struct WotsSecretKey {
    table: Box<[[Digest; W as usize]]>,
    used: bool,
}

/// WOTS public key: the chain end points, plus the compressed digest that the
/// Merkle tree actually commits to.
#[derive(Clone, PartialEq, Eq)]
pub struct WotsPublicKey {
    ends: Box<[Digest]>,
}

/// WOTS signature: one intermediate chain value per chunk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WotsSignature {
    pub(crate) values: Box<[Digest]>,
}

impl WotsSignature {
    /// Signature size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.len() * Digest::LEN
    }

    /// Flat byte encoding (used by the wire codec in `tcvs-core`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        for v in self.values.iter() {
            out.extend_from_slice(v.as_bytes());
        }
        out
    }

    /// Decodes the flat encoding produced by [`WotsSignature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<WotsSignature> {
        if bytes.len() != LEN * Digest::LEN {
            return None;
        }
        let values: Vec<Digest> = bytes
            .chunks_exact(Digest::LEN)
            .map(|c| Digest::from_slice(c).expect("exact chunk"))
            .collect();
        Some(WotsSignature {
            values: values.into_boxed_slice(),
        })
    }
}

impl WotsPublicKey {
    /// Compresses the 67 chain ends into a single digest (the MSS leaf).
    pub fn compress(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"tcvs-wots-pk");
        for d in self.ends.iter() {
            h.update(d.as_bytes());
        }
        h.finalize()
    }
}

/// Domain tag opening every chain-step message.
const STEP_TAG: &[u8; 15] = b"tcvs-wots-chain";
/// Byte offsets of the fields after the tag, and the message length.
const STEP_IDX: usize = STEP_TAG.len();
const STEP_POS: usize = STEP_IDX + 4;
const STEP_VALUE: usize = STEP_POS + 4;
const STEP_LEN: usize = STEP_VALUE + Digest::LEN;

/// The padded block of one chain step: a 55-byte message, the `0x80`
/// terminator, and the 64-bit bit length — exactly one compression.
fn step_block(chain_idx: usize, pos: usize, value: &Digest) -> [u8; 64] {
    let mut b = [0u8; 64];
    b[..STEP_IDX].copy_from_slice(STEP_TAG);
    b[STEP_IDX..STEP_POS].copy_from_slice(&(chain_idx as u32).to_be_bytes());
    b[STEP_POS..STEP_VALUE].copy_from_slice(&(pos as u32).to_be_bytes());
    b[STEP_VALUE..STEP_LEN].copy_from_slice(value.as_bytes());
    b[STEP_LEN] = 0x80;
    b[56..].copy_from_slice(&(STEP_LEN as u64 * 8).to_be_bytes());
    b
}

/// A single-block hashing backend (see [`sha256_blocks`]).
type Kernel = fn(&[[u8; 64]], &mut [Digest]);

/// Walks every chain from `values[i]` at position `from[i]` to the end,
/// all chains in lockstep, leaving the ends in `values`. `each(i, p, v)`
/// sees every value computed on the way (chain `i` reached `v` at
/// position `p`).
fn walk(
    kernel: Kernel,
    values: &mut [Digest; LEN],
    from: &[u8; LEN],
    mut each: impl FnMut(usize, usize, &Digest),
) {
    // Latest starters last, so the chains active in a round are a prefix.
    let mut order: [usize; LEN] = std::array::from_fn(|i| i);
    order.sort_unstable_by_key(|&i| from[i]);
    let mut blocks = order.map(|i| step_block(i, 0, &values[i]));
    let mut out = [Digest::ZERO; LEN];
    let mut active = 0;
    for pos in 0..TOP {
        while active < LEN && from[order[active]] as usize <= pos {
            active += 1;
        }
        for b in &mut blocks[..active] {
            b[STEP_VALUE - 1] = pos as u8; // low byte of the BE position; pos < W
        }
        kernel(&blocks[..active], &mut out[..active]);
        for ((b, v), &i) in blocks.iter_mut().zip(&out).zip(&order).take(active) {
            b[STEP_VALUE..STEP_LEN].copy_from_slice(v.as_bytes());
            each(i, pos + 1, v);
        }
    }
    for (b, &i) in blocks.iter().zip(&order) {
        values[i] = Digest::from_slice(&b[STEP_VALUE..STEP_LEN]).expect("32-byte field");
    }
}

/// Splits a digest into 64 message chunks + 3 checksum chunks (base 16).
fn chunks_of(msg: &Digest) -> [u8; LEN] {
    let mut out = [0u8; LEN];
    for (i, chunk) in out.iter_mut().take(LEN1).enumerate() {
        let byte = msg.0[i / 2];
        *chunk = if i % 2 == 0 { byte >> 4 } else { byte & 0xf };
    }
    let checksum: u32 = out[..LEN1].iter().map(|&c| (W - 1) - c as u32).sum();
    // Encode the checksum in base 16, most significant chunk first.
    out[LEN1] = ((checksum >> 8) & 0xf) as u8;
    out[LEN1 + 1] = ((checksum >> 4) & 0xf) as u8;
    out[LEN1 + 2] = (checksum & 0xf) as u8;
    out
}

/// The 67 chain starting points drawn from `rng`.
fn secrets(rng: &mut SeedRng) -> [Digest; LEN] {
    std::array::from_fn(|_| Digest(rng.next_block()))
}

/// The generator for MSS leaf `index`'s chain starts, derived from a master
/// seed so the signer need not store 2^H secret keys.
fn leaf_rng(master_seed: &[u8; 32], index: u64) -> SeedRng {
    let leaf_seed = hash_parts(&[b"tcvs-wots-leaf", master_seed, &index.to_be_bytes()]);
    SeedRng::from_seed(leaf_seed.0)
}

fn secret_key(rng: &mut SeedRng) -> WotsSecretKey {
    let mut values = secrets(rng);
    let mut table = vec![[Digest::ZERO; W as usize]; LEN].into_boxed_slice();
    for (row, v) in table.iter_mut().zip(&values) {
        row[0] = *v;
    }
    walk(sha256_blocks, &mut values, &[0; LEN], |i, p, v| {
        table[i][p] = *v
    });
    WotsSecretKey { table, used: false }
}

impl WotsSecretKey {
    /// The matching public key (the last column of the chain table).
    pub fn public_key(&self) -> WotsPublicKey {
        WotsPublicKey {
            ends: self.table.iter().map(|row| row[TOP]).collect(),
        }
    }
}

/// Generates a WOTS key pair.
pub fn wots_keygen(rng: &mut SeedRng) -> (WotsSecretKey, WotsPublicKey) {
    let sk = secret_key(rng);
    let pk = sk.public_key();
    (sk, pk)
}

/// The secret key (chain table) of MSS leaf `index`: the *prepare* half of
/// signing, independent of the message.
pub fn wots_secret_key_at(master_seed: &[u8; 32], index: u64) -> WotsSecretKey {
    secret_key(&mut leaf_rng(master_seed, index))
}

/// The public key of MSS leaf `index`, without materialising the chain
/// table (MSS key generation walks 2^H leaves and keeps none of them).
pub fn wots_public_key_at(master_seed: &[u8; 32], index: u64) -> WotsPublicKey {
    let mut ends = secrets(&mut leaf_rng(master_seed, index));
    walk(sha256_blocks, &mut ends, &[0; LEN], |_, _, _| {});
    WotsPublicKey {
        ends: Box::new(ends),
    }
}

pub use crate::lamport::OtsError;

/// Signs a message digest, consuming the key's single use.
pub fn wots_sign(sk: &mut WotsSecretKey, msg: &Digest) -> Result<WotsSignature, OtsError> {
    if sk.used {
        return Err(OtsError::KeyReused);
    }
    sk.used = true;
    let values = chunks_of(msg)
        .iter()
        .zip(sk.table.iter())
        .map(|(&c, row)| row[c as usize])
        .collect();
    Ok(WotsSignature { values })
}

/// Recomputes the public key a signature *claims*; the caller compares it (or
/// its compression) against the authentic public key.
pub fn wots_pk_from_sig(msg: &Digest, sig: &WotsSignature) -> WotsPublicKey {
    let mut ends: [Digest; LEN] = sig.values[..]
        .try_into()
        .expect("a signature holds LEN chain values");
    walk(sha256_blocks, &mut ends, &chunks_of(msg), |_, _, _| {});
    WotsPublicKey {
        ends: Box::new(ends),
    }
}

/// Verifies a WOTS signature against the authentic public key.
pub fn wots_verify(pk: &WotsPublicKey, msg: &Digest, sig: &WotsSignature) -> bool {
    if sig.values.len() != LEN {
        return false;
    }
    wots_pk_from_sig(msg, sig) == *pk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilane::{sha256_block, sha256_blocks_portable};
    use crate::sha256::{hash_pair, sha256};
    use proptest::prelude::*;

    /// The reference chain: every step through the streaming hasher over
    /// the unpadded 55-byte message.
    fn chain_ref(start: &Digest, chain_idx: usize, from: usize) -> Digest {
        let mut cur = *start;
        for pos in from..TOP {
            let mut h = Sha256::new();
            h.update(STEP_TAG)
                .update(&(chain_idx as u32).to_be_bytes())
                .update(&(pos as u32).to_be_bytes())
                .update(cur.as_bytes());
            cur = h.finalize();
        }
        cur
    }

    fn scalar_kernel(blocks: &[[u8; 64]], out: &mut [Digest]) {
        for (b, o) in blocks.iter().zip(out) {
            *o = sha256_block(b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The one-compression step equals the streaming hasher over the
        /// same 55 bytes, on the scalar kernel, the dispatched lanes
        /// (2-lane SHA-NI where the CPU has it) and the portable 4-lane
        /// kernel. Random starting positions give chains of different
        /// remaining lengths, so the lockstep groups take every size —
        /// odd, and not a multiple of four — as chains join.
        #[test]
        fn walk_matches_streaming_reference_on_every_backend(
            starts in any::<[[u8; 32]; LEN]>(),
            from in any::<[u8; LEN]>(),
        ) {
            let from = from.map(|p| p % W as u8);
            let starts = starts.map(Digest);
            let want: [Digest; LEN] =
                std::array::from_fn(|i| chain_ref(&starts[i], i, from[i] as usize));
            let kernels: [Kernel; 3] = [scalar_kernel, sha256_blocks, sha256_blocks_portable];
            for kernel in kernels {
                let mut got = starts;
                let mut seen = 0usize;
                walk(kernel, &mut got, &from, |_, _, _| seen += 1);
                prop_assert_eq!(got, want);
                let steps: usize = from.iter().map(|&p| TOP - p as usize).sum();
                prop_assert_eq!(seen, steps);
            }
        }
    }

    /// A chain-step message can never equal a `hash_parts`, `hash_pair` or
    /// MSS `node_hash` message, so a chain value is never also a protocol
    /// token or a tree node:
    ///
    /// * it is exactly 55 bytes and opens with the tag byte `b't'`;
    /// * a `hash_parts` message opens with its part count as a 64-bit
    ///   big-endian integer, whose first byte is `0x00` for any count below
    ///   2^56 — and `node_hash` is a `hash_parts` message;
    /// * a `hash_pair` message is exactly 64 bytes.
    ///
    /// The test pins each premise to the code: it rebuilds the three
    /// framings by hand and checks they hash to what the functions return.
    #[test]
    fn chain_step_is_domain_separated_from_other_hashes() {
        let (a, b) = (sha256(b"a"), sha256(b"b"));
        let step = step_block(66, TOP - 1, &a);
        assert_eq!(STEP_LEN, 55);
        assert_eq!(sha256_block(&step), sha256(&step[..STEP_LEN]));
        assert_eq!(chain_ref(&a, 66, TOP - 1), sha256(&step[..STEP_LEN]));

        let parts: [&[u8]; 3] = [b"tcvs-mss-node", a.as_bytes(), b.as_bytes()];
        let mut framed = (parts.len() as u64).to_be_bytes().to_vec();
        for p in parts {
            framed.extend_from_slice(&(p.len() as u64).to_be_bytes());
            framed.extend_from_slice(p);
        }
        assert_eq!(hash_parts(&parts), sha256(&framed));
        assert_eq!(framed[0], 0x00);
        assert_ne!(step[0], 0x00);

        let pair = [a.0, b.0].concat();
        assert_eq!(hash_pair(&a, &b), sha256(&pair));
        assert_ne!(pair.len(), STEP_LEN);
    }

    fn setup() -> (WotsSecretKey, WotsPublicKey) {
        let mut rng = SeedRng::from_label(b"wots-test");
        wots_keygen(&mut rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (mut sk, pk) = setup();
        let msg = sha256(b"root digest 17");
        let sig = wots_sign(&mut sk, &msg).unwrap();
        assert!(wots_verify(&pk, &msg, &sig));
    }

    #[test]
    fn checksum_prevents_chunk_increase_forgery() {
        // Winternitz soundness depends on the checksum: increasing any
        // message chunk forces some checksum chunk to decrease, which a
        // forger cannot compute (it needs a preimage). We at least verify
        // that verification fails for a different message.
        let (mut sk, pk) = setup();
        let msg = sha256(b"a");
        let sig = wots_sign(&mut sk, &msg).unwrap();
        for other in [b"b".as_ref(), b"ab", b"aa", b""] {
            assert!(!wots_verify(&pk, &sha256(other), &sig));
        }
    }

    #[test]
    fn tampered_signature_rejected() {
        let (mut sk, pk) = setup();
        let msg = sha256(b"m");
        let mut sig = wots_sign(&mut sk, &msg).unwrap();
        sig.values[33].0[0] ^= 0x80;
        assert!(!wots_verify(&pk, &msg, &sig));
    }

    #[test]
    fn key_reuse_refused() {
        let (mut sk, _) = setup();
        wots_sign(&mut sk, &sha256(b"one")).unwrap();
        assert_eq!(
            wots_sign(&mut sk, &sha256(b"two")),
            Err(OtsError::KeyReused)
        );
    }

    #[test]
    fn chunks_cover_full_digest_and_checksum_bounds() {
        let all_zero = chunks_of(&Digest::ZERO);
        // All-zero message => max checksum 960 = 0x3C0.
        assert_eq!(&all_zero[LEN1..], &[0x3, 0xC, 0x0]);
        let all_ones = chunks_of(&Digest([0xFF; 32]));
        assert!(all_ones[..LEN1].iter().all(|&c| c == 0xF));
        assert_eq!(&all_ones[LEN1..], &[0, 0, 0]);
    }

    #[test]
    fn deterministic_leaf_keygen() {
        let seed = [5u8; 32];
        let pk1 = wots_public_key_at(&seed, 9);
        let pk2 = wots_public_key_at(&seed, 9);
        let pk3 = wots_public_key_at(&seed, 10);
        assert_eq!(pk1.compress(), pk2.compress());
        assert_ne!(pk1.compress(), pk3.compress());
        // The table-building and table-free derivations agree on the key.
        assert!(wots_secret_key_at(&seed, 9).public_key() == pk1);
    }

    #[test]
    fn signature_encoding_round_trip() {
        let (mut sk, _) = setup();
        let sig = wots_sign(&mut sk, &sha256(b"enc")).unwrap();
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), LEN * 32);
        assert_eq!(WotsSignature::from_bytes(&bytes).unwrap(), sig);
        assert!(WotsSignature::from_bytes(&bytes[1..]).is_none());
    }

    #[test]
    fn pk_from_sig_matches_real_pk() {
        let (mut sk, pk) = setup();
        let msg = sha256(b"pk-recovery");
        let sig = wots_sign(&mut sk, &msg).unwrap();
        assert_eq!(wots_pk_from_sig(&msg, &sig).compress(), pk.compress());
    }
}

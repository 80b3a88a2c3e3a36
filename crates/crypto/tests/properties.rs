//! Property tests for the crypto substrate: hashing determinism and
//! incremental-equals-one-shot, signature soundness under arbitrary
//! messages, forgery rejection under arbitrary bit flips, and the XOR
//! algebra Protocol II relies on.

use proptest::prelude::*;
use tcvs_crypto::{
    hash_parts, mss::MssSigner, mss_verify, multilane, sha256, sha256_many, wots, Digest,
    KeyRegistry, MssError, SeedRng, Sha256,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-lane hashing is byte-identical to the scalar backend for every
    /// message in an arbitrary batch, on both the dispatched path (SHA-NI
    /// interleave where the CPU has it) and the portable 4-lane interleave.
    #[test]
    fn multilane_matches_scalar(
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            0..12,
        ),
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let scalar: Vec<Digest> = refs.iter().map(|m| sha256(m)).collect();
        prop_assert_eq!(&sha256_many(&refs), &scalar);
        prop_assert_eq!(&multilane::sha256_many_portable(&refs), &scalar);
    }

    /// Incremental hashing equals one-shot hashing for every chunking.
    #[test]
    fn sha256_chunking_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.push(0);
        points.push(data.len());
        points.sort_unstable();
        points.dedup();
        let mut h = Sha256::new();
        for w in points.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// `hash_parts` is injective with respect to part boundaries: moving a
    /// boundary changes the digest.
    #[test]
    fn hash_parts_boundary_sensitivity(
        a in proptest::collection::vec(any::<u8>(), 1..40),
        b in proptest::collection::vec(any::<u8>(), 1..40),
        shift in 1usize..8,
    ) {
        let orig = hash_parts(&[&a, &b]);
        // Move `shift` bytes from the front of b to the back of a.
        let shift = shift.min(b.len());
        let mut a2 = a.clone();
        a2.extend_from_slice(&b[..shift]);
        let b2 = b[shift..].to_vec();
        if (a2.as_slice(), b2.as_slice()) != (a.as_slice(), b.as_slice()) {
            prop_assert_ne!(orig, hash_parts(&[&a2, &b2]));
        }
    }

    /// XOR over digests is an abelian group: associative, commutative,
    /// self-inverse — the algebra behind σᵢ cancellation.
    #[test]
    fn digest_xor_group_laws(
        seeds in proptest::collection::vec(any::<u64>(), 3..3usize.saturating_add(1)),
    ) {
        let d: Vec<Digest> = seeds.iter().map(|s| sha256(&s.to_le_bytes())).collect();
        let (a, b, c) = (d[0], d[1], d[2]);
        prop_assert_eq!((a ^ b) ^ c, a ^ (b ^ c));
        prop_assert_eq!(a ^ b, b ^ a);
        prop_assert_eq!(a ^ a, Digest::ZERO);
        prop_assert_eq!(a ^ Digest::ZERO, a);
    }

    /// WOTS: signatures over arbitrary messages verify; any single bit flip
    /// in the signature is rejected.
    #[test]
    fn wots_sound_and_tamper_evident(
        msg_bytes in proptest::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
        flip_value in any::<prop::sample::Index>(),
        flip_bit in 0usize..256,
    ) {
        let msg = sha256(&msg_bytes);
        let mut rng = SeedRng::from_label(&seed.to_le_bytes());
        let (mut sk, pk) = wots::wots_keygen(&mut rng);
        let sig = wots::wots_sign(&mut sk, &msg).unwrap();
        prop_assert!(wots::wots_verify(&pk, &msg, &sig));
        // Flip one bit of one chain value via the wire encoding.
        let mut bytes: Vec<u8> = sig.values().iter().flat_map(|d| d.0).collect();
        let v = flip_value.index(wots::LEN);
        bytes[v * 32 + flip_bit / 8] ^= 1 << (flip_bit % 8);
        let tampered = wots::WotsSignature::from_bytes(&bytes).unwrap();
        prop_assert!(!wots::wots_verify(&pk, &msg, &tampered));
    }

    /// MSS: every one-time slot signs and verifies; message substitution is
    /// rejected.
    #[test]
    fn mss_sound_across_slots(
        seed in any::<[u8; 32]>(),
        msgs in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut signer = MssSigner::generate(seed, 3);
        let pk = signer.public_key();
        for (i, m) in msgs.iter().enumerate() {
            let msg = sha256(&m.to_le_bytes());
            let sig = signer.sign(&msg).unwrap();
            prop_assert_eq!(sig.leaf_index, i as u64);
            prop_assert!(mss_verify(&pk, &msg, &sig));
            let other = sha256(&m.wrapping_add(1).to_le_bytes());
            prop_assert!(!mss_verify(&pk, &other, &sig));
        }
    }

    /// The deterministic RNG is a pure function of its seed, and distinct
    /// labels yield distinct streams.
    #[test]
    fn rng_determinism(label in proptest::collection::vec(any::<u8>(), 0..32)) {
        let mut a = SeedRng::from_label(&label);
        let mut b = SeedRng::from_label(&label);
        prop_assert_eq!(a.next_block(), b.next_block());
        let mut other_label = label.clone();
        other_label.push(0xAA);
        let mut c = SeedRng::from_label(&other_label);
        prop_assert_ne!(b.next_block(), c.next_block());
    }
}

proptest! {
    // Each case signs and verifies 1,023 signatures.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// MSS at every height 0..=9 (single bottom trees below 4, up to 32
    /// bottom trees at 9): all 2^h slots sign, every signature verifies
    /// cold (both levels) and through a registry that has seen the signer's
    /// earlier signatures, `remaining` counts down exactly, and signature
    /// 2^h + 1 is refused.
    #[test]
    fn mss_every_slot_verifies_cold_and_warm(seed in any::<[u8; 32]>()) {
        for height in 0..=9u32 {
            let mut signer = MssSigner::generate(seed, height);
            let pk = signer.public_key();
            let mut registry = KeyRegistry::new();
            registry.register(0, pk);
            for i in 0..1u64 << height {
                prop_assert_eq!(signer.remaining(), (1 << height) - i);
                let msg = sha256(&[&seed[..], &i.to_le_bytes()].concat());
                let sig = signer.sign(&msg).unwrap();
                prop_assert_eq!(sig.leaf_index, i);
                prop_assert!(mss_verify(&pk, &msg, &sig), "h={} i={} cold", height, i);
                prop_assert!(registry.verify(0, &msg, &sig), "h={} i={} warm", height, i);
            }
            prop_assert_eq!(signer.remaining(), 0);
            prop_assert_eq!(signer.sign(&sha256(b"one too many")), Err(MssError::KeyExhausted));
        }
    }
}

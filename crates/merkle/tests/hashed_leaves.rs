//! A point proof for a present key ships that entry whole and every other
//! entry of its leaf as its pair digest only. These tests hold that proof
//! to the whole-leaf proof of the same key (`prune_for_range(k, k)`, the
//! reference), to its own wire encoding, and to the rule that a leaf which
//! hides entries proves nothing but the entries it ships whole.

use proptest::prelude::*;
use tcvs_crypto::Digest;
use tcvs_merkle::{
    apply_op, prune_for_op, prune_for_ops, replay_batch_unanchored, replay_unanchored, u64_key,
    BatchProof, ChunkAssembler, ChunkError, ChunkSource, CodecError, MerkleTree, Op, OpResult,
    TreeError, VerificationObject, VerifyError,
};

/// `n` entries under the even keys `0, 2, …`, so odd keys are absent.
/// Values are 16–20 bytes: a whole entry then outweighs the 33 bytes of
/// its pair digest on the wire, as every benchmark value does.
fn tree(order: usize, n: u64) -> MerkleTree {
    let mut t = MerkleTree::with_order(order);
    for i in 0..n {
        t.insert(u64_key(2 * i), vec![i as u8; 16 + (i % 5) as usize])
            .unwrap();
    }
    t
}

fn key_of(op: &Op) -> &[u8] {
    match op {
        Op::Get(k) | Op::Put(k, _) | Op::Delete(k) => k,
        Op::Range(..) => unreachable!("point ops only"),
    }
}

/// The reference: `op` replayed over the whole-leaf proof of its key.
fn whole_leaf_replay(server: &MerkleTree, op: &Op) -> (OpResult, Digest) {
    let k = key_of(op);
    let mut whole = server.prune_for_range(Some(k), Some(k));
    let result = apply_op(&mut whole, op).expect("a whole-leaf proof replays its key");
    (result, whole.root_digest())
}

/// `(put?, key, value)`, with the key reduced against the tree size.
type RawOp = (bool, u64, Vec<u8>);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..6),
        ),
        1..33,
    )
}

/// Keys below `2n + 4` over a tree of `n` even keys: about half the ops
/// name a present key, half an absent one.
fn ops_for(n: u64, raw: &[RawOp]) -> Vec<Op> {
    raw.iter()
        .map(|(put, k, v)| {
            let k = u64_key(k % (2 * n + 4));
            if *put {
                Op::Put(k, v.clone())
            } else {
                Op::Get(k)
            }
        })
        .collect()
}

fn orders() -> impl Strategy<Value = usize> {
    prop_oneof![Just(4usize), Just(8), Just(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-op proofs: the same answer and the same new root as the
    /// whole-leaf proof of the same key, an exact size, and the same
    /// verdict after a trip through the wire.
    #[test]
    fn point_proofs_replay_like_whole_leaf_proofs(
        order in orders(),
        n in 0u64..300,
        raw in raw_ops(),
    ) {
        let ops = ops_for(n, &raw);
        let mut server = tree(order, n);
        for op in &ops {
            let vo = VerificationObject::new(prune_for_op(&server, op));
            let bytes = vo.to_bytes();
            prop_assert_eq!(vo.encoded_size(), bytes.len());
            let (old_root, got) = replay_unanchored(order, &vo, op, None).unwrap();
            prop_assert_eq!(old_root, server.root_digest());
            prop_assert_eq!((got.result, got.new_root), whole_leaf_replay(&server, op));
            let wire = VerificationObject::from_bytes(&bytes).unwrap();
            prop_assert_eq!(
                replay_unanchored(order, &wire, op, None),
                replay_unanchored(order, &vo, op, None)
            );
            apply_op(&mut server, op).unwrap();
        }
    }

    /// Batch proofs: every op of the window answers like the whole-leaf
    /// proof of its key against the server state before that op, and the
    /// window ends at the root the last such replay ends at.
    #[test]
    fn batch_proofs_replay_like_whole_leaf_proofs(
        order in orders(),
        n in 0u64..300,
        raw in raw_ops(),
    ) {
        let ops = ops_for(n, &raw);
        let mut server = tree(order, n);
        let proof = BatchProof::new(prune_for_ops(&server, &ops));
        let bytes = proof.to_bytes();
        prop_assert_eq!(proof.encoded_size(), bytes.len());
        let (old_root, verified) = replay_batch_unanchored(order, &proof, &ops, None).unwrap();
        prop_assert_eq!(old_root, server.root_digest());
        let mut new_root = old_root;
        for (op, result) in ops.iter().zip(&verified.results) {
            let (want, root) = whole_leaf_replay(&server, op);
            prop_assert_eq!(result, &want);
            new_root = root;
            apply_op(&mut server, op).unwrap();
        }
        prop_assert_eq!(verified.new_root, new_root);
        let wire = BatchProof::from_bytes(&bytes).unwrap();
        prop_assert_eq!(
            replay_batch_unanchored(order, &wire, &ops, None),
            replay_batch_unanchored(order, &proof, &ops, None)
        );
    }
}

/// A present key's proof is smaller than the whole-leaf proof, and the
/// leaf it carries proves that key and nothing else — identically in
/// memory and after a trip through the wire.
#[test]
fn a_hashed_leaf_proves_only_its_whole_entries() {
    let server = tree(8, 64);
    let k = u64_key(40);
    let whole = server.prune_for_range(Some(&k), Some(&k));
    let hashed = server.prune_for_point(&k);
    assert!(hashed.encoded_size() < whole.encoded_size());
    let wire = MerkleTree::from_bytes(&hashed.to_bytes()).unwrap();

    for proof in [&hashed, &wire] {
        assert_eq!(proof.get(&k).unwrap(), server.get(&k).unwrap());
        let mut replace = proof.clone();
        replace.insert(k.clone(), b"new".to_vec()).unwrap();
        let mut full = server.clone();
        full.insert(k.clone(), b"new".to_vec()).unwrap();
        assert_eq!(replace.root_digest(), full.root_digest());

        let mut neighbours = 0;
        for j in (30..50u64).map(u64_key).filter(|j| *j != k) {
            if whole.get(&j).is_err() {
                continue; // another leaf: a stub either way
            }
            neighbours += 1;
            let incomplete = Some(TreeError::IncompleteProof);
            // Present or absent, a hidden neighbourhood proves nothing.
            assert_eq!(proof.get(&j).err(), incomplete);
            assert_eq!(proof.clone().insert(j.clone(), vec![1]).err(), incomplete);
            let (lo, hi) = if j < k { (&j, &k) } else { (&k, &j) };
            assert_eq!(proof.range(Some(lo), Some(hi)).err(), incomplete);
        }
        assert!(
            neighbours > 2,
            "the leaf holds neighbours present and absent"
        );
        assert_eq!(
            proof.clone().delete(&k).err(),
            Some(TreeError::IncompleteProof)
        );
    }
}

/// A delete's proof keeps whole leaves; a server that hides a sibling the
/// rebalance needs gets `IncompleteProof`, never a different answer.
#[test]
fn a_rebalance_that_needs_a_hidden_sibling_is_incomplete() {
    let server = tree(4, 40);
    let mut caught = 0;
    for i in 5..35u64 {
        let op = Op::Delete(u64_key(2 * i));
        let honest = VerificationObject::new(prune_for_op(&server, &op));
        let (_, want) = replay_unanchored(4, &honest, &op, None).unwrap();
        for j in (2 * i - 6..2 * i + 7).map(u64_key) {
            let mut vo = honest.clone();
            vo.withhold(&j);
            if vo.to_bytes() == honest.to_bytes() {
                continue; // `j` routes to a stub: nothing hidden
            }
            let probe = Op::Get(u64_key(2 * i));
            if replay_unanchored(4, &vo, &probe, None).is_err() {
                continue; // `j` shares the deleted key's leaf
            }
            match replay_unanchored(4, &vo, &op, None) {
                Ok((_, got)) => assert_eq!(got, want, "delete {i}, hidden {j:?}"),
                Err(e) => {
                    assert_eq!(e, VerifyError::IncompleteProof);
                    caught += 1;
                }
            }
        }
    }
    assert!(
        caught > 0,
        "some delete borrowed from or merged a hidden sibling"
    );
}

/// Every strict prefix of a point proof and of a batch proof fails to
/// decode, and no single-byte change panics: each one fails to decode, or
/// fails verification, or commits to another root.
#[test]
fn truncated_and_mutated_proofs_never_verify_as_the_honest_one() {
    let server = tree(4, 24);
    let root = server.root_digest();
    let window: Vec<Op> = vec![
        Op::Get(u64_key(6)),
        Op::Put(u64_key(20), b"w".to_vec()),
        Op::Get(u64_key(21)),
        Op::Put(u64_key(33), b"i".to_vec()),
    ];
    let mut after = server.clone();
    let results: Vec<OpResult> = window
        .iter()
        .map(|op| apply_op(&mut after, op).unwrap())
        .collect();

    let get = Op::Get(u64_key(10));
    let put = Op::Put(u64_key(12), b"p".to_vec());
    for op in [&get, &put] {
        let result = apply_op(&mut server.clone(), op).unwrap();
        let bytes = VerificationObject::new(prune_for_op(&server, op)).to_bytes();
        let verdict = |b: &[u8]| {
            let vo = VerificationObject::from_bytes(b).ok()?;
            let (old, _) = replay_unanchored(4, &vo, op, Some(&result)).ok()?;
            Some(old)
        };
        assert_eq!(verdict(&bytes), Some(root));
        each_damaged_copy(&bytes, |b| assert_ne!(verdict(b), Some(root)));
    }

    let bytes = BatchProof::new(prune_for_ops(&server, &window)).to_bytes();
    let verdict = |b: &[u8]| {
        let proof = BatchProof::from_bytes(b).ok()?;
        let (old, _) = replay_batch_unanchored(4, &proof, &window, Some(&results)).ok()?;
        Some(old)
    };
    assert_eq!(verdict(&bytes), Some(root));
    each_damaged_copy(&bytes, |b| assert_ne!(verdict(b), Some(root)));
}

/// Runs `check` on every strict prefix of `bytes` and on every copy with
/// one byte changed to each of its 255 other values.
fn each_damaged_copy(bytes: &[u8], check: impl Fn(&[u8])) {
    for cut in 0..bytes.len() {
        assert!(VerificationObject::from_bytes(&bytes[..cut]).is_err());
        check(&bytes[..cut]);
    }
    let mut copy = bytes.to_vec();
    for at in 0..bytes.len() {
        for delta in 1..=255u8 {
            copy[at] = bytes[at].wrapping_add(delta);
            check(&copy);
        }
        copy[at] = bytes[at];
    }
}

/// A whole-tree decoder never mistakes a proof that hides an entry for a
/// full tree: it is pruned, has no length, and may not claim one.
#[test]
fn a_hidden_entry_makes_a_decoded_tree_pruned() {
    let server = tree(4, 3);
    let proof = server.prune_for_point(&u64_key(2));
    let mut bytes = proof.to_bytes();
    let back = MerkleTree::from_bytes(&bytes).unwrap();
    assert!(back.is_pruned(), "the root leaf hides two entries");
    assert_eq!(back.len(), None);
    // Header: magic (4), version (1), order (4), then the entry count.
    bytes[9..17].copy_from_slice(&3u64.to_le_bytes());
    assert_eq!(
        MerkleTree::from_bytes(&bytes).unwrap_err(),
        CodecError::Malformed("pruned tree claims an entry count")
    );
}

/// A bootstrap peer that sends a point proof in place of a chunk anchors
/// to the right root but hides values the restored server would have to
/// serve: rejected at that chunk's index.
#[test]
fn a_chunk_that_hides_an_entry_is_rejected_at_its_index() {
    let server = tree(4, 60);
    let src = ChunkSource::new(&server, 1).unwrap();
    let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
    for index in 0..src.num_chunks() {
        let lo = &src.manifest().ranges[index as usize].lo;
        let forged = server.prune_for_point(lo).to_bytes();
        assert!(matches!(
            asm.admit(index, &forged),
            Err(ChunkError::RangeMismatch { index: i, .. }) if i == index
        ));
        asm.admit(index, &src.chunk(index).unwrap()).unwrap();
    }
    assert_eq!(asm.finish().unwrap().to_bytes(), server.to_bytes());
}

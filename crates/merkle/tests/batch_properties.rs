//! Property tests for batched windows. `MerkleTree::apply_window` must
//! leave the tree exactly where applying each op in turn does, and the
//! client's replay of a batch proof must agree with the server. For an
//! arbitrary honest window, *any* single forged, reordered, or dropped op
//! in the window must fail batch verification, and tampering with the
//! serialized proof must be detected. Mirrors the pruned-VO splice
//! proptests in `tcvs-store`.

use proptest::prelude::*;
use tcvs_merkle::{
    apply_op, prune_for_ops, replay_batch_unanchored, u64_key, verify_batch_response, BatchProof,
    MerkleTree, Op, OpResult, VerifyError,
};

const ORDER: usize = 8;

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key space maximizes same-key collisions inside a window —
    // the hard case for reorder detection (Put/Get on one key do not
    // commute; distinct-key reorders are semantically invisible).
    prop_oneof![
        (0u64..24).prop_map(|k| Op::Get(u64_key(k))),
        ((0u64..24), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Put(u64_key(k), v)),
    ]
}

fn window_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 1..24)
}

/// Builds a populated server, serves the window, and returns the proof,
/// the honest results, and the pre/post roots.
fn serve(
    ops: &[Op],
    prefill: u64,
) -> (
    MerkleTree,
    BatchProof,
    Vec<OpResult>,
    tcvs_crypto::Digest,
    tcvs_crypto::Digest,
) {
    let mut server = MerkleTree::with_order(ORDER);
    for i in 0..prefill {
        server.insert(u64_key(i % 24), vec![i as u8; 9]).unwrap();
    }
    let root0 = server.root_digest();
    let proof = BatchProof::new(prune_for_ops(&server, ops));
    let results: Vec<OpResult> = ops
        .iter()
        .map(|op| apply_op(&mut server, op).expect("full tree"))
        .collect();
    let root1 = server.root_digest();
    (server, proof, results, root0, root1)
}

/// One op of an equivalence window, before keys are chosen.
#[derive(Clone, Debug)]
enum RawOp {
    Get(u64),
    Put(u64, u8),
    /// A `Get` of the key the window last wrote (a plain `Get` if none).
    GetLastPut,
}

fn raw_window() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..96).prop_map(RawOp::Get),
            ((0u64..96), any::<u8>()).prop_map(|(k, v)| RawOp::Put(k, v)),
            Just(RawOp::GetLastPut),
        ],
        0..33,
    )
}

/// Keys `0..96`: the tree holds the even ones below `2 * prefill`, so odd
/// and high keys are fresh inserts, and a window of 32 of them into a
/// small tree cascades splits up to a new root.
fn window_ops(raw: &[RawOp]) -> Vec<Op> {
    let mut last_put = None;
    raw.iter()
        .map(|r| match *r {
            RawOp::Get(k) => Op::Get(u64_key(k)),
            RawOp::Put(k, v) => {
                last_put = Some(k);
                Op::Put(u64_key(k), vec![v; 1 + usize::from(v % 5)])
            }
            RawOp::GetLastPut => Op::Get(u64_key(last_put.unwrap_or(0))),
        })
        .collect()
}

fn prefilled(order: usize, prefill: u64) -> MerkleTree {
    let mut t = MerkleTree::with_order(order);
    for i in 0..prefill {
        t.insert(u64_key(2 * i), vec![i as u8; 3]).unwrap();
    }
    t
}

/// Applies `ops` as one window and one op at a time from `tree`, checks
/// that both end alike, and checks that the client's replay of the
/// window's batch proof agrees with the server.
fn check_window(tree: &MerkleTree, ops: &[Op]) -> Result<(), TestCaseError> {
    let order = tree.order();
    let root0 = tree.root_digest();
    let proof = BatchProof::new(prune_for_ops(tree, ops));

    let mut per_op = tree.clone();
    let want: Vec<OpResult> = ops
        .iter()
        .map(|op| apply_op(&mut per_op, op).expect("full tree"))
        .collect();
    let mut window = tree.clone();
    let results = window.apply_window(ops).expect("full tree");
    prop_assert_eq!(&results, &want);
    prop_assert_eq!(window.root_digest(), per_op.root_digest());
    prop_assert_eq!(window.entries().unwrap(), per_op.entries().unwrap());
    window.check_invariants().map_err(TestCaseError::fail)?;

    let (old_root, verified) = replay_batch_unanchored(order, &proof, ops, Some(&results))
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(old_root, root0);
    prop_assert_eq!(&verified.results, &results);
    prop_assert_eq!(verified.new_root, window.root_digest());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A window applied with one rehash pass ends where the ops applied
    /// one at a time end, on orders 4, 8 and 16, through leaf and internal
    /// splits up to a new root; the client's replay agrees with both.
    #[test]
    fn apply_window_equals_sequential_apply_op(
        order in prop_oneof![Just(4usize), Just(8), Just(16)],
        prefill in 0u64..48,
        raw in raw_window(),
    ) {
        let tree = prefilled(order, prefill);
        check_window(&tree, &window_ops(&raw))?;
    }

    /// Honest windows always verify, anchored and unanchored, and the
    /// final replayed root equals the server's post-state root.
    #[test]
    fn honest_window_verifies(ops in window_strategy(), prefill in 0u64..40) {
        let (_, proof, results, root0, root1) = serve(&ops, prefill);
        let (old_root, verified) =
            replay_batch_unanchored(ORDER, &proof, &ops, Some(&results)).unwrap();
        prop_assert_eq!(old_root, root0);
        prop_assert_eq!(verified.new_root, root1);
        verify_batch_response(&root0, ORDER, &proof, &ops, Some(&results), Some(&root1))
            .unwrap();
    }

    /// Forging any single claimed result in the window is detected.
    #[test]
    fn forged_result_detected(
        ops in window_strategy(),
        prefill in 0u64..40,
        pick in any::<prop::sample::Index>(),
    ) {
        let (_, proof, mut results, root0, root1) = serve(&ops, prefill);
        let i = pick.index(results.len());
        // 13 bytes, one longer than any generated value, so the forgery
        // can never coincide with the honest result.
        let forged = match &results[i] {
            OpResult::Value(_) => OpResult::Value(Some(vec![0xEE; 13])),
            _ => OpResult::Replaced(Some(vec![0xEE; 13])),
        };
        results[i] = forged;
        prop_assert_eq!(
            replay_batch_unanchored(ORDER, &proof, &ops, Some(&results)).unwrap_err(),
            VerifyError::AnswerMismatch
        );
        prop_assert_eq!(
            verify_batch_response(&root0, ORDER, &proof, &ops, Some(&results), Some(&root1))
                .unwrap_err(),
            VerifyError::AnswerMismatch
        );
    }

    /// Dropping any single claimed result from the window is detected.
    #[test]
    fn dropped_result_detected(
        ops in window_strategy(),
        prefill in 0u64..40,
        pick in any::<prop::sample::Index>(),
    ) {
        let (_, proof, mut results, root0, root1) = serve(&ops, prefill);
        let i = pick.index(results.len());
        results.remove(i);
        prop_assert_eq!(
            replay_batch_unanchored(ORDER, &proof, &ops, Some(&results)).unwrap_err(),
            VerifyError::BatchLengthMismatch
        );
        prop_assert_eq!(
            verify_batch_response(&root0, ORDER, &proof, &ops, Some(&results), Some(&root1))
                .unwrap_err(),
            VerifyError::BatchLengthMismatch
        );
    }

    /// Reordering the claimed results (swapping two adjacent
    /// non-commuting entries) is detected: either the per-slot results
    /// disagree with the replay, or — when the swapped results are
    /// byte-identical — the responses are semantically interchangeable
    /// and verification legitimately succeeds.
    #[test]
    fn reordered_results_detected_unless_identical(
        ops in window_strategy(),
        prefill in 0u64..40,
        pick in any::<prop::sample::Index>(),
    ) {
        if ops.len() < 2 {
            return Ok(());
        }
        let (_, proof, mut results, _, _) = serve(&ops, prefill);
        let i = pick.index(results.len() - 1);
        if results[i] == results[i + 1] {
            return Ok(()); // interchangeable responses: no splice to detect
        }
        results.swap(i, i + 1);
        prop_assert_eq!(
            replay_batch_unanchored(ORDER, &proof, &ops, Some(&results)).unwrap_err(),
            VerifyError::AnswerMismatch
        );
    }

    /// Splicing the serialized proof — flipping any single bit — is
    /// detected: either the decode rejects it outright, or the recomputed
    /// root no longer matches the anchored root.
    #[test]
    fn spliced_proof_bytes_detected(
        ops in window_strategy(),
        prefill in 1u64..40,
        bit in any::<prop::sample::Index>(),
    ) {
        let (_, proof, results, root0, root1) = serve(&ops, prefill);
        let mut bytes = proof.to_bytes();
        let b = bit.index(bytes.len() * 8);
        bytes[b / 8] ^= 1 << (b % 8);
        match BatchProof::from_bytes(&bytes) {
            Err(_) => {} // decode-time rejection
            Ok(tampered) => {
                let out = verify_batch_response(
                    &root0, ORDER, &tampered, &ops, Some(&results), Some(&root1),
                );
                prop_assert!(out.is_err(), "tampered proof verified");
            }
        }
    }

}

/// A proof whose union omits one op's key path (on a leaf far from every
/// covered key) cannot replay that op: the replay hits a stub.
#[test]
fn missing_path_is_incomplete_proof() {
    let mut server = MerkleTree::with_order(ORDER);
    for i in 0..400u64 {
        server.insert(u64_key(i * 10), vec![i as u8; 9]).unwrap();
    }
    let root0 = server.root_digest();
    let ops = vec![
        Op::Get(u64_key(50)),
        Op::Put(u64_key(60), b"x".to_vec()),
        Op::Get(u64_key(3000)), // far-away leaf, left out of the proof
    ];
    let proof = BatchProof::new(prune_for_ops(&server, &ops[..2]));
    let results: Vec<OpResult> = ops
        .iter()
        .map(|op| apply_op(&mut server, op).expect("full tree"))
        .collect();
    let err = verify_batch_response(&root0, ORDER, &proof, &ops, Some(&results), None).unwrap_err();
    assert_eq!(err, VerifyError::IncompleteProof);
}

/// A `Put` edits a leaf; a later insert in the same window splits that
/// leaf and moves the written key into the new right half. The edited
/// left half then lies on no window key's path, and the window must
/// still rehash it.
#[test]
fn put_then_a_split_moves_the_key_right() {
    // Order 4 splits a leaf of five entries into two and three. The root
    // leaf [10, 20, 30, 40] becomes [10, 20] + [30, 35, 40]; under a
    // parent, the leaf [30, 33, 40, 50] becomes [30, 33] + [40, 45, 50].
    for (keys, written, fresh) in [
        (vec![10u64, 20, 30, 40], 30, 35),
        (vec![10, 20, 30, 40, 50, 33], 40, 45),
    ] {
        let mut tree = MerkleTree::with_order(4);
        for k in keys {
            tree.insert(u64_key(k), vec![k as u8]).unwrap();
        }
        let ops = vec![
            Op::Put(u64_key(written), b"new".to_vec()),
            Op::Put(u64_key(fresh), b"fresh".to_vec()),
            Op::Get(u64_key(written)),
        ];
        check_window(&tree, &ops).unwrap();
    }
}

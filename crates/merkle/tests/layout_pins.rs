//! The in-memory node layout is not observable: root digests and every
//! encoded byte are pinned here from the build *before* the layout change
//! (`Arc<Node::Stub>` children, `Vec<Vec<u8>>` separators, by-value leaf
//! entries) and must hold on every build after it.
//!
//! Two pins were re-recorded since, on purpose: `point` and `batch`, when
//! the leaf of a present key began to ship its other entries as their pair
//! digests only. `len`, `root`, `tree`, `range` and `delete` did not move:
//! no digest changed, and full trees and whole-leaf proofs encode as before.

use tcvs_crypto::{sha256, Digest};
use tcvs_merkle::{
    prune_for_op, prune_for_ops, u64_key, BatchProof, MerkleTree, Op, VerificationObject,
};

/// Splitmix-style generator: the script must not depend on any crate's RNG.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn value(k: u64, salt: u64) -> Vec<u8> {
    let len = 1 + ((k ^ salt) % 96) as usize;
    (0..len)
        .map(|i| (k as u8) ^ (salt as u8) ^ i as u8)
        .collect()
}

/// 10,000 seeded entries, then a fixed mixed script of overwrites, fresh
/// inserts and deletes (splits, borrows and merges all occur).
fn scripted_tree() -> MerkleTree {
    let mut s = Script(0x7C75_2006);
    let mut t = MerkleTree::with_order(16);
    while t.len() != Some(10_000) {
        let k = s.next() % 40_000;
        t.insert(u64_key(k), value(k, 0)).unwrap();
    }
    for step in 0..6_000u64 {
        let k = s.next() % 40_000;
        if s.next() % 5 < 2 {
            t.delete(&u64_key(k)).unwrap();
        } else {
            t.insert(u64_key(k), value(k, step)).unwrap();
        }
    }
    t.check_invariants().unwrap();
    t
}

/// Recorded on the parent of the layout change; `point` and `batch` on the
/// first build whose point proofs hide the entries they do not prove.
const PINS: &str = "\
len Some(11917)
root c5757d245fd8bff85d459b63bb2fc1673510d8b54ff36b86f8e8f1237566ab76
tree c9e50368facbaaede9393f26fed1eab15716a8ca15c363e79e27492c2efa6e4e
point 09388ff64b3b0366dc3f825950b37a590a9bae301dd1d78d898040b9b4f0a845
range 769a68cccf4654f24a0ca8779bbf696225534337921da8303c33b636cf02ea7f
delete 8696b3ed6aa43be9b8fed9b9a04545becb4e367941f92ac5136a81ef5ec69b3a
batch 68481b4709ab0ca47e72aad0744a0e78e4dbbdf51f98c6dd5912e2bb553ab827
";

fn hex(d: Digest) -> String {
    d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn root_digest_and_every_encoding_are_pinned() {
    let t = scripted_tree();
    let first = t.entries().unwrap()[1234].0.clone();
    let batch: Vec<Op> = (0..32u64)
        .map(|i| {
            let k = u64_key(i * 1237 % 40_000);
            if i % 2 == 0 {
                Op::Put(k, vec![i as u8; 40])
            } else {
                Op::Get(k)
            }
        })
        .collect();
    let point = VerificationObject::new(prune_for_op(&t, &Op::Get(first.clone())));
    let range = VerificationObject::new(prune_for_op(
        &t,
        &Op::Range(Some(u64_key(10_000)), Some(u64_key(10_400))),
    ));
    let delete = VerificationObject::new(prune_for_op(&t, &Op::Delete(first)));
    let batch = BatchProof::new(prune_for_ops(&t, &batch));

    let got = [
        ("len", format!("{:?}", t.len())),
        ("root", hex(t.root_digest())),
        ("tree", hex(sha256(&t.to_bytes()))),
        ("point", hex(sha256(&point.to_bytes()))),
        ("range", hex(sha256(&range.to_bytes()))),
        ("delete", hex(sha256(&delete.to_bytes()))),
        ("batch", hex(sha256(&batch.to_bytes()))),
    ]
    .map(|(name, v)| format!("{name} {v}\n"))
    .concat();
    assert_eq!(got, PINS, "an observable of the tree moved");
}

//! Copy-on-write B+-tree nodes with cached digests, including pruned (stub)
//! subtrees.
//!
//! The digest scheme follows §4.1 of the paper: a leaf's digest hashes the
//! data stored at the leaf; an internal node's digest hashes its children's
//! digests. We additionally bind the separator keys into internal digests so
//! a proof also authenticates the *search structure*, not just the data.
//!
//! The layout is chosen so that building, verifying, replaying and dropping
//! a proof allocate per *materialized node*, never per sibling, key or
//! value:
//!
//! * a child is a [`Child`]: either a materialized `Arc<Node>` or an
//!   **inline** stub digest in the parent's vector — pruning a sibling away
//!   allocates nothing;
//! * an internal node's separator keys are one shared `Arc<[Key]>` and a
//!   leaf's entries are `Arc<LeafEntry>`s, so pruning, the copy-on-write
//!   spine copy of an update, and a client's replay bump reference counts
//!   instead of cloning keys and values;
//! * each leaf entry caches its `kv_hash` (the digest of the key/value
//!   pair), and the leaf digest hashes those fixed-width digests — so
//!   updating one value rehashes that one pair plus 32-byte digests, not
//!   every value in the leaf.
//!
//! Entries are immutable once built (replacing a value builds a new entry),
//! so a cached digest can only disagree with its content if somebody forged
//! it: [`Child::verified_digest`] recomputes everything read-only and
//! reports a disagreement instead of silently overwriting it.

use std::sync::Arc;

use tcvs_crypto::{Digest, Sha256};

use crate::error::{TreeError, VerifyError};

/// A key stored in the tree (arbitrary bytes, ordered lexicographically).
pub type Key = Vec<u8>;
/// A value stored in the tree (arbitrary bytes).
pub type Value = Vec<u8>;

/// Encodes a `u64` as an order-preserving 8-byte key.
pub fn u64_key(x: u64) -> Key {
    x.to_be_bytes().to_vec()
}

/// One immutable `(key, value)` pair in a leaf, with its cached pair digest.
#[derive(Debug)]
pub(crate) struct LeafEntry {
    pub(crate) key: Key,
    pub(crate) value: Value,
    /// `H("tcvs-merkle-kv" ‖ |k| ‖ k ‖ |v| ‖ v)`, cached so leaf digests
    /// hash fixed-width digests instead of raw values.
    pub(crate) kv_hash: Digest,
}

/// The pair digest an entry caches (length-prefixed, so entry boundaries
/// are unambiguous). Streams the key and value in place — no copy.
pub(crate) fn kv_hash(key: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"tcvs-merkle-kv");
    h.update(&(key.len() as u64).to_be_bytes());
    h.update(key);
    h.update(&(value.len() as u64).to_be_bytes());
    h.update(value);
    h.finalize()
}

impl LeafEntry {
    /// Builds a shareable entry, computing its pair digest.
    pub(crate) fn new(key: Key, value: Value) -> Arc<LeafEntry> {
        let kv_hash = kv_hash(&key, &value);
        Arc::new(LeafEntry {
            key,
            value,
            kv_hash,
        })
    }

    /// The value of an entry leaving its leaf: moved out when this was the
    /// last handle, copied when a snapshot or proof still shares the entry.
    pub(crate) fn into_value(entry: Arc<LeafEntry>) -> Value {
        Arc::try_unwrap(entry).map_or_else(|shared| shared.value.clone(), |e| e.value)
    }
}

/// One slot of an internal node (or the root slot of a tree).
///
/// `Stub`s appear only in *pruned* trees (verification objects): they stand
/// for an entire subtree, represented solely by its digest, stored inline.
/// Full server-side trees contain no stubs.
#[derive(Clone, Debug)]
pub(crate) enum Child {
    /// A pruned-away subtree, known only by its digest.
    Stub(Digest),
    /// A materialized subtree, shared copy-on-write.
    Node(Arc<Node>),
}

/// A materialized node of the Merkle B+-tree.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    /// A leaf holding sorted `(key, value)` entries.
    Leaf {
        entries: Vec<Arc<LeafEntry>>,
        digest: Digest,
    },
    /// An internal node with `keys.len() + 1` children; subtree `i` holds
    /// keys `k` with `keys[i-1] <= k < keys[i]` (lexicographic).
    Internal {
        keys: Arc<[Key]>,
        children: Vec<Child>,
        digest: Digest,
    },
}

impl Node {
    /// A leaf over `entries`, digest computed.
    pub(crate) fn leaf(entries: Vec<Arc<LeafEntry>>) -> Node {
        let mut leaf = Node::Leaf {
            entries,
            digest: Digest::ZERO,
        };
        leaf.recompute_digest();
        leaf
    }

    /// An internal node over `keys` and `children`, digest computed.
    pub(crate) fn internal(keys: Arc<[Key]>, children: Vec<Child>) -> Node {
        let mut node = Node::Internal {
            keys,
            children,
            digest: Digest::ZERO,
        };
        node.recompute_digest();
        node
    }

    /// The cached digest of this node.
    pub(crate) fn digest(&self) -> Digest {
        match self {
            Node::Leaf { digest, .. } | Node::Internal { digest, .. } => *digest,
        }
    }

    /// This node's digest computed from its children's cached digests /
    /// its entries' cached pair digests.
    fn compute_digest(&self) -> Digest {
        let mut h = Sha256::new();
        match self {
            Node::Leaf { entries, .. } => {
                h.update(b"tcvs-merkle-leaf");
                h.update(&(entries.len() as u64).to_be_bytes());
                for e in entries.iter() {
                    h.update(e.kv_hash.as_bytes());
                }
            }
            Node::Internal { keys, children, .. } => {
                h.update(b"tcvs-merkle-int");
                h.update(&(keys.len() as u64).to_be_bytes());
                for k in keys.iter() {
                    h.update(&(k.len() as u64).to_be_bytes());
                    h.update(k);
                }
                h.update(&(children.len() as u64).to_be_bytes());
                for c in children.iter() {
                    h.update(c.digest().as_bytes());
                }
            }
        }
        h.finalize()
    }

    /// Recomputes and caches this node's digest after an edit.
    pub(crate) fn recompute_digest(&mut self) {
        let fresh = self.compute_digest();
        match self {
            Node::Leaf { digest, .. } | Node::Internal { digest, .. } => *digest = fresh,
        }
    }

    /// Checks this node's own caches against its content: every entry's
    /// pair digest, and the node digest over them (children's cached
    /// digests are taken as given — [`Child::verified_digest`] recurses).
    pub(crate) fn check_digest(&self) -> Result<(), VerifyError> {
        let pairs_hold = match self {
            Node::Leaf { entries, .. } => entries
                .iter()
                .all(|e| kv_hash(&e.key, &e.value) == e.kv_hash),
            Node::Internal { .. } => true,
        };
        if pairs_hold && self.compute_digest() == self.digest() {
            Ok(())
        } else {
            Err(VerifyError::CachedDigestMismatch)
        }
    }
}

impl Child {
    /// The digest of the subtree in this slot.
    pub(crate) fn digest(&self) -> Digest {
        match self {
            Child::Stub(d) => *d,
            Child::Node(n) => n.digest(),
        }
    }

    /// The materialized node, or `IncompleteProof` for a stub.
    pub(crate) fn node(&self) -> Result<&Node, TreeError> {
        match self {
            Child::Stub(_) => Err(TreeError::IncompleteProof),
            Child::Node(n) => Ok(n),
        }
    }

    /// The materialized node for editing, or `IncompleteProof` for a stub.
    /// Copy-on-write: a node still shared with a snapshot or proof is
    /// copied first (one `Arc` and one vector; its keys, entries and
    /// children stay shared), so other handles never see the edit.
    pub(crate) fn node_mut(&mut self) -> Result<&mut Node, TreeError> {
        match self {
            Child::Stub(_) => Err(TreeError::IncompleteProof),
            Child::Node(n) => Ok(Arc::make_mut(n)),
        }
    }

    /// This subtree pruned away: an inline stub carrying its digest.
    pub(crate) fn to_stub(&self) -> Child {
        Child::Stub(self.digest())
    }

    /// True iff this subtree contains a stub anywhere.
    pub(crate) fn contains_stub(&self) -> bool {
        match self.node() {
            Err(_) => true,
            Ok(Node::Leaf { .. }) => false,
            Ok(Node::Internal { children, .. }) => children.iter().any(Child::contains_stub),
        }
    }

    /// Number of entries stored in materialized leaves of this subtree.
    pub(crate) fn entry_count(&self) -> usize {
        match self.node() {
            Err(_) => 0,
            Ok(Node::Leaf { entries, .. }) => entries.len(),
            Ok(Node::Internal { children, .. }) => children.iter().map(Child::entry_count).sum(),
        }
    }

    /// Number of materialized (non-stub) nodes in this subtree.
    pub(crate) fn materialized_nodes(&self) -> usize {
        match self.node() {
            Err(_) => 0,
            Ok(Node::Leaf { .. }) => 1,
            Ok(Node::Internal { children, .. }) => {
                1 + children
                    .iter()
                    .map(Child::materialized_nodes)
                    .sum::<usize>()
            }
        }
    }

    /// A proof's copy of an internal node: the separator keys shared with
    /// the source, the cached digest kept, `children` as the pruner chose
    /// them. Two allocations — the node and its child vector.
    pub(crate) fn spine(keys: &Arc<[Key]>, children: Vec<Child>, digest: Digest) -> Child {
        Child::Node(Arc::new(Node::Internal {
            keys: Arc::clone(keys),
            children,
            digest,
        }))
    }

    /// Shallow copy for proof construction: a leaf is *shared*; an internal
    /// node shares its keys but its children become inline stubs. Used to
    /// materialize the siblings a delete may need for borrow/merge.
    pub(crate) fn shallow_copy(&self) -> Child {
        match self.node() {
            Ok(Node::Internal {
                keys,
                children,
                digest,
            }) => Child::spine(keys, children.iter().map(Child::to_stub).collect(), *digest),
            _ => self.clone(),
        }
    }

    /// Recomputes every materialized digest of this subtree from content,
    /// bottom-up and **read-only** — pair digests included; stub digests
    /// are taken as given — and returns the digest the content commits to.
    ///
    /// Clients run this on received proofs, so the root digest provably
    /// commits to the *materialized content*, not to whatever cached
    /// digests the server chose to send: a cached digest that disagrees is
    /// a typed deviation ([`VerifyError::CachedDigestMismatch`]), never
    /// silently healed. Nothing is copied, so a proof that shares nodes
    /// with a live tree verifies without a single allocation.
    pub(crate) fn verified_digest(&self) -> Result<Digest, VerifyError> {
        if let Child::Node(node) = self {
            if let Node::Internal { children, .. } = &**node {
                for c in children {
                    c.verified_digest()?;
                }
            }
            node.check_digest()?;
        }
        Ok(self.digest())
    }

    /// This subtree rebuilt from its content alone: same keys, values and
    /// stubs, every cached digest computed afresh.
    pub(crate) fn rebuilt(&self) -> Child {
        match self.node() {
            Err(_) => self.clone(),
            Ok(Node::Leaf { entries, .. }) => Child::Node(Arc::new(Node::leaf(
                entries
                    .iter()
                    .map(|e| LeafEntry::new(e.key.clone(), e.value.clone()))
                    .collect(),
            ))),
            Ok(Node::Internal { keys, children, .. }) => Child::Node(Arc::new(Node::internal(
                Arc::clone(keys),
                children.iter().map(Child::rebuilt).collect(),
            ))),
        }
    }
}

#[cfg(test)]
impl Child {
    /// Test-only forgery: hands the entries and the cached digest of the
    /// leaf on `key`'s path to `f` for editing and rehashes *nothing* — what
    /// a server does that ships content its cached digests do not commit
    /// to. Copy-on-write like any edit, so trees sharing the path keep
    /// their honest state.
    pub(crate) fn forge_leaf(
        &mut self,
        key: &[u8],
        f: impl FnOnce(&mut Vec<Arc<LeafEntry>>, &mut Digest),
    ) {
        match self.node_mut().expect("path is materialized") {
            Node::Leaf { entries, digest } => f(entries, digest),
            Node::Internal { keys, children, .. } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                children[idx].forge_leaf(key, f)
            }
        }
    }

    /// Test-only forgery: a copy of `honest` carrying `value` under the
    /// *honest* pair digest.
    pub(crate) fn forged_entry(honest: &LeafEntry, value: &[u8]) -> Arc<LeafEntry> {
        Arc::new(LeafEntry {
            key: honest.key.clone(),
            value: value.to_vec(),
            kv_hash: honest.kv_hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn leaf(entries: Vec<(Key, Value)>) -> Node {
        Node::leaf(
            entries
                .into_iter()
                .map(|(k, v)| LeafEntry::new(k, v))
                .collect(),
        )
    }

    fn two_leaf_parent() -> Child {
        let a = Child::Node(Arc::new(leaf(vec![(b"a".to_vec(), b"1".to_vec())])));
        let b = Child::Node(Arc::new(leaf(vec![(b"m".to_vec(), b"2".to_vec())])));
        Child::Node(Arc::new(Node::internal(
            vec![b"m".to_vec()].into(),
            vec![a, b],
        )))
    }

    #[test]
    fn empty_leaf_has_stable_digest() {
        let a = Node::leaf(Vec::new());
        let b = Node::leaf(Vec::new());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.digest().is_zero());
    }

    #[test]
    fn leaf_digest_binds_keys_and_values() {
        let l1 = leaf(vec![(b"k".to_vec(), b"v1".to_vec())]);
        let l2 = leaf(vec![(b"k".to_vec(), b"v2".to_vec())]);
        let l3 = leaf(vec![(b"j".to_vec(), b"v1".to_vec())]);
        assert_ne!(l1.digest(), l2.digest());
        assert_ne!(l1.digest(), l3.digest());
    }

    #[test]
    fn leaf_digest_binds_entry_boundaries() {
        // ("ab","c") vs ("a","bc") must not collide.
        let l1 = leaf(vec![(b"ab".to_vec(), b"c".to_vec())]);
        let l2 = leaf(vec![(b"a".to_vec(), b"bc".to_vec())]);
        assert_ne!(l1.digest(), l2.digest());
    }

    #[test]
    fn replacing_an_entry_updates_the_leaf_digest() {
        let mut l = leaf(vec![(b"k".to_vec(), b"v1".to_vec())]);
        let before = l.digest();
        if let Node::Leaf { entries, .. } = &mut l {
            let new = LeafEntry::new(b"k".to_vec(), b"v2".to_vec());
            let old = std::mem::replace(&mut entries[0], new);
            assert_eq!(LeafEntry::into_value(old), b"v1".to_vec());
        }
        l.recompute_digest();
        assert_ne!(l.digest(), before);
        // And the digest equals that of a freshly-built identical leaf.
        assert_eq!(
            l.digest(),
            leaf(vec![(b"k".to_vec(), b"v2".to_vec())]).digest()
        );
    }

    #[test]
    fn into_value_copies_only_when_shared() {
        let e = LeafEntry::new(b"k".to_vec(), b"v".to_vec());
        let shared = Arc::clone(&e);
        assert_eq!(LeafEntry::into_value(shared), b"v".to_vec());
        assert_eq!(e.value, b"v".to_vec(), "the other handle keeps its value");
        assert_eq!(LeafEntry::into_value(e), b"v".to_vec());
    }

    #[test]
    fn internal_digest_binds_children_order() {
        let a = Child::Node(Arc::new(leaf(vec![(b"a".to_vec(), b"1".to_vec())])));
        let b = Child::Node(Arc::new(leaf(vec![(b"b".to_vec(), b"2".to_vec())])));
        let keys: Arc<[Key]> = vec![b"b".to_vec()].into();
        let n1 = Node::internal(Arc::clone(&keys), vec![a.clone(), b.clone()]);
        let n2 = Node::internal(keys, vec![b, a]);
        assert_ne!(n1.digest(), n2.digest());
    }

    #[test]
    fn stub_preserves_digest_inline() {
        let l = Child::Node(Arc::new(leaf(vec![(b"k".to_vec(), b"v".to_vec())])));
        let s = l.to_stub();
        assert_eq!(s.digest(), l.digest());
        assert!(matches!(s, Child::Stub(_)));
        assert!(s.contains_stub());
        assert_eq!(s.materialized_nodes(), 0);
        assert_eq!(s.node().unwrap_err(), TreeError::IncompleteProof);
    }

    #[test]
    fn shallow_copy_of_internal_keeps_digest_and_shares_keys() {
        let n = two_leaf_parent();
        let s = n.shallow_copy();
        assert_eq!(s.digest(), n.digest());
        assert_eq!(s.materialized_nodes(), 1);
        match (n.node().unwrap(), s.node().unwrap()) {
            (Node::Internal { keys: a, .. }, Node::Internal { keys: b, .. }) => {
                assert!(Arc::ptr_eq(a, b), "separator keys are shared, not cloned")
            }
            _ => panic!("internal nodes expected"),
        }
        // Stub children are inline: the copy still folds to the same digest.
        assert_eq!(s.verified_digest().unwrap(), n.digest());
    }

    #[test]
    fn shallow_copy_of_leaf_is_shared() {
        let l = Child::Node(Arc::new(leaf(vec![(b"k".to_vec(), b"v".to_vec())])));
        match (&l, &l.shallow_copy()) {
            (Child::Node(a), Child::Node(b)) => {
                assert!(Arc::ptr_eq(a, b), "leaf shallow copies share the Arc")
            }
            _ => panic!("leaves expected"),
        }
    }

    #[test]
    fn copy_on_write_shares_entries_and_keys() {
        let original = two_leaf_parent();
        let mut copy = original.clone();
        // Un-sharing the parent copies one node and one child vector; the
        // keys and both leaves stay shared with the original.
        let Node::Internal { keys, children, .. } = copy.node_mut().unwrap() else {
            panic!("internal node expected")
        };
        let Node::Internal {
            keys: okeys,
            children: ochildren,
            ..
        } = original.node().unwrap()
        else {
            panic!("internal node expected")
        };
        assert!(Arc::ptr_eq(keys, okeys));
        // Editing one leaf of the copy never reaches the original.
        let before = ochildren[0].digest();
        if let Node::Leaf { entries, .. } = children[0].node_mut().unwrap() {
            entries[0] = LeafEntry::new(b"a".to_vec(), b"changed".to_vec());
        }
        children[0].node_mut().unwrap().recompute_digest();
        assert_ne!(children[0].digest(), before);
        assert_eq!(ochildren[0].digest(), before);
        assert_eq!(original.verified_digest().unwrap(), original.digest());
    }

    /// A forged cache is a typed deviation, at either level, and is never
    /// written through; honest content under an honest cache folds to the
    /// digest it always had.
    #[test]
    fn verified_digest_rejects_forged_caches() {
        let honest = two_leaf_parent();
        assert_eq!(honest.verified_digest().unwrap(), honest.digest());

        // Forged pair digest under a leaf digest recomputed to match it.
        let forged_pair = |evil: Digest| {
            let mut t = honest.clone();
            let Node::Internal { children, .. } = t.node_mut().unwrap() else {
                panic!("internal node expected")
            };
            if let Node::Leaf { entries, .. } = children[1].node_mut().unwrap() {
                entries[0] = Arc::new(LeafEntry {
                    key: entries[0].key.clone(),
                    value: entries[0].value.clone(),
                    kv_hash: evil,
                });
            }
            children[1].node_mut().unwrap().recompute_digest();
            t.node_mut().unwrap().recompute_digest();
            t
        };
        let t = forged_pair(Digest::ZERO);
        assert_ne!(t.digest(), honest.digest());
        assert_eq!(
            t.verified_digest().unwrap_err(),
            VerifyError::CachedDigestMismatch
        );

        // Forged node digest: honest content under a lying cache.
        let mut t = honest.clone();
        if let Node::Internal { digest, .. } = t.node_mut().unwrap() {
            *digest = Digest::ZERO;
        }
        assert_eq!(
            t.verified_digest().unwrap_err(),
            VerifyError::CachedDigestMismatch
        );
        // ...while the shared original was never written through.
        assert_eq!(honest.verified_digest().unwrap(), honest.digest());

        // Rebuilding from content restores exactly the honest digests.
        assert_eq!(t.rebuilt().verified_digest().unwrap(), honest.digest());
        assert_eq!(
            forged_pair(Digest::ZERO)
                .rebuilt()
                .verified_digest()
                .unwrap(),
            honest.digest()
        );
    }

    #[test]
    fn u64_keys_preserve_order() {
        let mut ks: Vec<Key> = [5u64, 300, 2, 70000, 0]
            .iter()
            .map(|&x| u64_key(x))
            .collect();
        ks.sort();
        let back: Vec<u64> = ks
            .iter()
            .map(|k| u64::from_be_bytes(k[..8].try_into().unwrap()))
            .collect();
        assert_eq!(back, vec![0, 2, 5, 300, 70000]);
    }
}

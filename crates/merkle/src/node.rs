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
//!   every value in the leaf;
//! * a point proof's leaf is a [`Node::ProofLeaf`]: the entries the proof
//!   is about stay whole, every other entry is only its `kv_hash`
//!   ([`ProofEntry::Hash`], Merk's `KVHash` kind). The leaf digest is the
//!   same function of the same pair digests, so hiding a value moves no
//!   digest, and a client never hashes a value it did not ask for.
//!
//! Entries are immutable once built (replacing a value builds a new entry),
//! so a cached digest can only disagree with its content if somebody forged
//! it: [`Child::verified_digest`] recomputes everything read-only and
//! reports a disagreement instead of silently overwriting it.
//!
//! Edits do not hash. The slot of each node an update edits or creates is
//! marked **stale**, and one bottom-up pass ([`Child::rehash`]) at the end of
//! the update (or of a whole window of updates) recomputes every stale
//! digest once. Staleness is a flag in the parent's slot, never a digest
//! value, and a node is no larger for it. A stale slot sits under a stale
//! slot, so the pass reads its children's flags from the child vector and
//! descends only into stale ones. Outside an update no slot is stale.

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
    /// True iff the cached pair digest is the digest of the content.
    fn pair_holds(&self) -> bool {
        kv_hash(&self.key, &self.value) == self.kv_hash
    }

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

/// One entry of a [`Node::ProofLeaf`].
#[derive(Clone, Debug)]
pub(crate) enum ProofEntry {
    /// The entry itself: the only kind a proof can prove anything with.
    Kv(Arc<LeafEntry>),
    /// An entry known only by its pair digest: its key and value are not
    /// in the proof at all.
    Hash(Digest),
}

impl ProofEntry {
    /// The pair digest this entry contributes to its leaf's digest.
    pub(crate) fn kv_hash(&self) -> &Digest {
        match self {
            ProofEntry::Kv(e) => &e.kv_hash,
            ProofEntry::Hash(d) => d,
        }
    }
}

/// Hashes a leaf from its entries' pair digests — the one leaf digest,
/// whether the leaf travels whole or as a [`Node::ProofLeaf`].
fn hash_leaf<'a>(h: &mut Sha256, n: usize, pairs: impl Iterator<Item = &'a Digest>) {
    h.update(b"tcvs-merkle-leaf");
    h.update(&(n as u64).to_be_bytes());
    for d in pairs {
        h.update(d.as_bytes());
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
    /// A materialized subtree, shared copy-on-write. `stale` is set from the
    /// moment an update edits or creates the node until the rehash pass
    /// that ends the update; while it is set, the node's cached digest is
    /// out of date.
    Node { node: Arc<Node>, stale: bool },
}

#[cfg(test)]
thread_local! {
    /// Node digests computed by [`Node::recompute_digest`] on this thread.
    static REHASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Node digests this thread has computed so far (tests count rehashes).
#[cfg(test)]
pub(crate) fn rehash_count() -> u64 {
    REHASHES.with(|c| c.get())
}

/// A materialized node of the Merkle B+-tree.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    /// A leaf holding sorted `(key, value)` entries.
    Leaf {
        entries: Vec<Arc<LeafEntry>>,
        digest: Digest,
    },
    /// A proof's copy of a leaf in which at least one entry travels only as
    /// its pair digest. It proves "key `k` holds value `v`" for its whole
    /// entries and nothing else: no absence, no insert, no entry's
    /// position, so any replay that needs more is `IncompleteProof`.
    /// Appears only in proofs, never in a full tree.
    ProofLeaf {
        entries: Vec<ProofEntry>,
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
            Node::Leaf { digest, .. }
            | Node::ProofLeaf { digest, .. }
            | Node::Internal { digest, .. } => *digest,
        }
    }

    /// This node's digest computed from its children's cached digests /
    /// its entries' cached pair digests.
    fn compute_digest(&self) -> Digest {
        let mut h = Sha256::new();
        match self {
            Node::Leaf { entries, .. } => {
                hash_leaf(&mut h, entries.len(), entries.iter().map(|e| &e.kv_hash))
            }
            Node::ProofLeaf { entries, .. } => hash_leaf(
                &mut h,
                entries.len(),
                entries.iter().map(ProofEntry::kv_hash),
            ),
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
        #[cfg(test)]
        REHASHES.with(|c| c.set(c.get() + 1));
        let fresh = self.compute_digest();
        match self {
            Node::Leaf { digest, .. }
            | Node::ProofLeaf { digest, .. }
            | Node::Internal { digest, .. } => *digest = fresh,
        }
    }

    /// Checks this node's own caches against its content: every whole
    /// entry's pair digest, and the node digest over them (a hash-only
    /// entry's digest and children's cached digests are taken as given —
    /// [`Child::verified_digest`] recurses).
    pub(crate) fn check_digest(&self) -> Result<(), VerifyError> {
        let pairs_hold = match self {
            Node::Leaf { entries, .. } => entries.iter().all(|e| e.pair_holds()),
            Node::ProofLeaf { entries, .. } => entries.iter().all(|e| match e {
                ProofEntry::Kv(e) => e.pair_holds(),
                ProofEntry::Hash(_) => true,
            }),
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
    /// A slot holding `node`, its digest up to date.
    pub(crate) fn new(node: Node) -> Child {
        Child::Node {
            node: Arc::new(node),
            stale: false,
        }
    }

    /// A slot holding a node an update just created: its digest waits for
    /// the rehash pass.
    pub(crate) fn edited(node: Node) -> Child {
        Child::Node {
            node: Arc::new(node),
            stale: true,
        }
    }

    /// The digest of the subtree in this slot.
    pub(crate) fn digest(&self) -> Digest {
        match self {
            Child::Stub(d) => *d,
            Child::Node { node, .. } => node.digest(),
        }
    }

    /// The materialized node, or `IncompleteProof` for a stub.
    pub(crate) fn node(&self) -> Result<&Node, TreeError> {
        match self {
            Child::Stub(_) => Err(TreeError::IncompleteProof),
            Child::Node { node, .. } => Ok(node),
        }
    }

    /// The materialized node for editing, or `IncompleteProof` for a stub.
    /// Copy-on-write: a node still shared with a snapshot or proof is
    /// copied first (one `Arc` and one vector; its keys, entries and
    /// children stay shared), so other handles never see the edit.
    pub(crate) fn node_mut(&mut self) -> Result<&mut Node, TreeError> {
        match self {
            Child::Stub(_) => Err(TreeError::IncompleteProof),
            Child::Node { node, .. } => Ok(Arc::make_mut(node)),
        }
    }

    /// [`Child::node_mut`] for an update: the slot is marked stale, so the
    /// rehash pass that ends the update recomputes the node's digest.
    pub(crate) fn edit(&mut self) -> Result<&mut Node, TreeError> {
        match self {
            Child::Stub(_) => Err(TreeError::IncompleteProof),
            Child::Node { node, stale } => {
                *stale = true;
                Ok(Arc::make_mut(node))
            }
        }
    }

    /// True iff an update edited or created this slot's node since its
    /// digest was computed.
    pub(crate) fn is_stale(&self) -> bool {
        matches!(self, Child::Node { stale: true, .. })
    }

    /// The rehash pass that ends every update: recomputes, bottom-up, the
    /// digest of every stale node in this subtree, each exactly once.
    /// Descends only into stale slots — an up-to-date node has no stale
    /// descendant — so a window of updates hashes the union of the nodes
    /// it touched, and a window of reads hashes nothing.
    pub(crate) fn rehash(&mut self) {
        let Child::Node { node, stale } = self else {
            return;
        };
        if !*stale {
            return;
        }
        // A stale node was un-shared when the update edited it.
        let node = Arc::make_mut(node);
        if let Node::Internal { children, .. } = node {
            children.iter_mut().for_each(Child::rehash);
        }
        node.recompute_digest();
        *stale = false;
    }

    /// This subtree pruned away: an inline stub carrying its digest.
    pub(crate) fn to_stub(&self) -> Child {
        Child::Stub(self.digest())
    }

    /// True iff this subtree contains a stub or a hash-only entry anywhere
    /// (i.e. it is pruned).
    pub(crate) fn contains_stub(&self) -> bool {
        match self.node() {
            Err(_) | Ok(Node::ProofLeaf { .. }) => true,
            Ok(Node::Leaf { .. }) => false,
            Ok(Node::Internal { children, .. }) => children.iter().any(Child::contains_stub),
        }
    }

    /// Number of entries stored in materialized leaves of this subtree.
    pub(crate) fn entry_count(&self) -> usize {
        match self.node() {
            Err(_) => 0,
            Ok(Node::Leaf { entries, .. }) => entries.len(),
            Ok(Node::ProofLeaf { entries, .. }) => entries.len(),
            Ok(Node::Internal { children, .. }) => children.iter().map(Child::entry_count).sum(),
        }
    }

    /// Number of materialized (non-stub) nodes in this subtree.
    pub(crate) fn materialized_nodes(&self) -> usize {
        match self.node() {
            Err(_) => 0,
            Ok(Node::Leaf { .. } | Node::ProofLeaf { .. }) => 1,
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
        Child::new(Node::Internal {
            keys: Arc::clone(keys),
            children,
            digest,
        })
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
        if let Child::Node { node, .. } = self {
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
    #[cfg(test)]
    pub(crate) fn rebuilt(&self) -> Child {
        match self.node() {
            Err(_) => self.clone(),
            Ok(Node::Leaf { entries, .. }) => Child::new(Node::leaf(
                entries
                    .iter()
                    .map(|e| LeafEntry::new(e.key.clone(), e.value.clone()))
                    .collect(),
            )),
            Ok(Node::ProofLeaf { entries, .. }) => {
                let mut leaf = Node::ProofLeaf {
                    entries: entries
                        .iter()
                        .map(|e| match e {
                            ProofEntry::Kv(e) => {
                                ProofEntry::Kv(LeafEntry::new(e.key.clone(), e.value.clone()))
                            }
                            ProofEntry::Hash(d) => ProofEntry::Hash(*d),
                        })
                        .collect(),
                    digest: Digest::ZERO,
                };
                leaf.recompute_digest();
                Child::new(leaf)
            }
            Ok(Node::Internal { keys, children, .. }) => Child::new(Node::internal(
                Arc::clone(keys),
                children.iter().map(Child::rebuilt).collect(),
            )),
        }
    }
}

#[cfg(test)]
impl Child {
    /// The leaf on `key`'s path, un-shared for editing.
    fn leaf_mut(&mut self, key: &[u8]) -> &mut Node {
        match self.node_mut().expect("path is materialized") {
            Node::Internal { keys, children, .. } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                children[idx].leaf_mut(key)
            }
            leaf => leaf,
        }
    }

    /// Test-only forgery: the whole entry for `key` on its leaf now carries
    /// `value` under the *honest* pair digest, and nothing is rehashed —
    /// what a server does that ships content its cached digests do not
    /// commit to. Copy-on-write like any edit, so trees sharing the path
    /// keep their honest state.
    pub(crate) fn forge_value(&mut self, key: &[u8], value: &[u8]) {
        let forge = |e: &mut Arc<LeafEntry>| {
            if e.key == key {
                *e = Arc::new(LeafEntry {
                    key: e.key.clone(),
                    value: value.to_vec(),
                    kv_hash: e.kv_hash,
                });
            }
        };
        match self.leaf_mut(key) {
            Node::Leaf { entries, .. } => entries.iter_mut().for_each(forge),
            Node::ProofLeaf { entries, .. } => entries
                .iter_mut()
                .filter_map(|e| match e {
                    ProofEntry::Kv(e) => Some(e),
                    ProofEntry::Hash(_) => None,
                })
                .for_each(forge),
            Node::Internal { .. } => {}
        }
    }

    /// Test-only forgery: the cached digest of the leaf on `key`'s path,
    /// overwritten over honest content.
    pub(crate) fn forge_leaf_digest(&mut self, key: &[u8], forged: Digest) {
        if let Node::Leaf { digest, .. } | Node::ProofLeaf { digest, .. } = self.leaf_mut(key) {
            *digest = forged;
        }
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
        let a = Child::new(leaf(vec![(b"a".to_vec(), b"1".to_vec())]));
        let b = Child::new(leaf(vec![(b"m".to_vec(), b"2".to_vec())]));
        Child::new(Node::internal(vec![b"m".to_vec()].into(), vec![a, b]))
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
        let a = Child::new(leaf(vec![(b"a".to_vec(), b"1".to_vec())]));
        let b = Child::new(leaf(vec![(b"b".to_vec(), b"2".to_vec())]));
        let keys: Arc<[Key]> = vec![b"b".to_vec()].into();
        let n1 = Node::internal(Arc::clone(&keys), vec![a.clone(), b.clone()]);
        let n2 = Node::internal(keys, vec![b, a]);
        assert_ne!(n1.digest(), n2.digest());
    }

    #[test]
    fn stub_preserves_digest_inline() {
        let l = Child::new(leaf(vec![(b"k".to_vec(), b"v".to_vec())]));
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
        let l = Child::new(leaf(vec![(b"k".to_vec(), b"v".to_vec())]));
        match (&l, &l.shallow_copy()) {
            (Child::Node { node: a, .. }, Child::Node { node: b, .. }) => {
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

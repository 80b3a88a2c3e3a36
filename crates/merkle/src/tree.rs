//! The Merkle B+-tree (§4.1 of the paper) and its pruning operations.
//!
//! One tree type serves both sides of the protocol:
//!
//! * the **server** holds a *full* tree (no stubs) and answers queries;
//! * the **client** receives a *pruned* tree — the verification object — in
//!   which every subtree irrelevant to the operation is replaced by an
//!   inline stub carrying only its digest.
//!
//! Because both trees run exactly the same operation code, the client
//! *replays* the server's operation on the pruned tree: if the pruned tree's
//! root digest matches the client's known root digest `M(D)`, and the replay
//! succeeds, the recomputed answer and new root digest are authoritative.
//! Touching a stub during replay means the proof was incomplete (server
//! misbehaviour).
//!
//! ## Copy-on-write
//!
//! Nodes are held behind [`Arc`], so trees *share structure*:
//!
//! * `Clone` is an O(1) root-pointer copy — a clone is a snapshot;
//! * a mutation copies only the root-to-leaf spine it touches
//!   ([`Arc::make_mut`]) — per node one `Arc` and one child (or entry)
//!   vector, the separator keys and leaf entries themselves staying
//!   shared; untouched siblings stay shared with every snapshot taken
//!   earlier;
//! * pruning shares the materialized leaves and in-range subtrees with the
//!   live tree, shares each spine node's separator keys, and writes pruned
//!   siblings as inline stubs — proof construction allocates two blocks
//!   per materialized internal node and per point-proof leaf, and nothing
//!   else.
//!
//! ## What a point proof's leaf proves
//!
//! A point proof for a key that is **present** ships that entry whole and
//! every other entry of its leaf as its pair digest only
//! ([`Node::ProofLeaf`]). Such a leaf proves "`k` holds `v`" for its whole
//! entries and nothing more; an absent-key `Get`, an inserting `Put`, a
//! split, borrow or merge would need the hidden keys, so they keep the
//! whole leaf, and a replay that reaches a hidden key anyway is
//! `IncompleteProof`.
//!
//! Sharing is never observable through the API: any mutation of one tree
//! first un-shares the affected nodes, so other handles keep their exact
//! pre-mutation state.

use std::sync::Arc;

use tcvs_crypto::Digest;

use crate::error::{TreeError, VerifyError};
use crate::node::{Child, Key, LeafEntry, Node, ProofEntry, Value};
use crate::op::{Op, OpResult};

/// Minimum supported branching order.
pub const MIN_ORDER: usize = 4;
/// Default branching order (max children per internal node and max entries
/// per leaf).
pub const DEFAULT_ORDER: usize = 16;

/// A Merkle B+-tree over byte keys and values.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    root: Child,
    order: usize,
    /// Entry count: `Some` for full trees, `None` for pruned trees, where
    /// the count is not authenticated and must not be relied upon.
    len: Option<usize>,
}

/// Returns the index of the child subtree that covers `key`.
#[inline]
fn child_index(keys: &[Key], key: &[u8]) -> usize {
    keys.partition_point(|k| k.as_slice() <= key)
}

/// Position of `key` in a leaf's sorted entries (`Err` = insertion point).
#[inline]
fn entry_index(entries: &[Arc<LeafEntry>], key: &[u8]) -> Result<usize, usize> {
    entries.binary_search_by(|e| e.key.as_slice().cmp(key))
}

/// The whole entry for `key` in a proof leaf. A leaf that hides entries
/// behind their digests proves nothing about a key it does not ship whole,
/// present or absent: that is `IncompleteProof`, never `None`.
fn proven_entry<'a>(
    entries: &'a mut [ProofEntry],
    key: &[u8],
) -> Result<&'a mut Arc<LeafEntry>, TreeError> {
    entries
        .iter_mut()
        .find_map(|e| match e {
            ProofEntry::Kv(e) if e.key == key => Some(e),
            _ => None,
        })
        .ok_or(TreeError::IncompleteProof)
}

impl MerkleTree {
    /// Creates an empty tree with the default branching order.
    pub fn new() -> MerkleTree {
        MerkleTree::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with branching order `order` (≥ 4).
    pub fn with_order(order: usize) -> MerkleTree {
        assert!(order >= MIN_ORDER, "order {order} < minimum {MIN_ORDER}");
        MerkleTree {
            root: Child::new(Node::leaf(Vec::new())),
            order,
            len: Some(0),
        }
    }

    /// The root digest `M(D)` of the current state.
    pub fn root_digest(&self) -> Digest {
        self.root.digest()
    }

    /// The branching order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of entries: `Some(n)` for a full tree, `None` for a pruned
    /// tree (a proof does not authenticate a count, so pruned trees refuse
    /// to report one — misuse fails to compile instead of returning the
    /// unverified server value).
    pub fn len(&self) -> Option<usize> {
        self.len
    }

    /// True iff this is a full tree known to hold no entries.
    pub fn is_empty(&self) -> bool {
        self.len == Some(0)
    }

    /// True iff this tree contains a stub or a hash-only leaf entry
    /// anywhere (i.e. it is pruned).
    pub fn is_pruned(&self) -> bool {
        self.root.contains_stub()
    }

    /// Number of materialized (non-stub) nodes; for a pruned tree this is
    /// the proof size in nodes.
    pub fn materialized_nodes(&self) -> usize {
        self.root.materialized_nodes()
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup. `Err(IncompleteProof)` if the search hits a stub.
    pub fn get(&self, key: &[u8]) -> Result<Option<&Value>, TreeError> {
        let mut child = &self.root;
        loop {
            match child.node()? {
                Node::Leaf { entries, .. } => {
                    return Ok(entry_index(entries, key).ok().map(|i| &entries[i].value));
                }
                Node::ProofLeaf { entries, .. } => {
                    return entries
                        .iter()
                        .find_map(|e| match e {
                            ProofEntry::Kv(e) if e.key == key => Some(Some(&e.value)),
                            _ => None,
                        })
                        .ok_or(TreeError::IncompleteProof);
                }
                Node::Internal { keys, children, .. } => {
                    child = &children[child_index(keys, key)];
                }
            }
        }
    }

    /// Range scan over `[lo, hi)`; `None` bounds are unbounded. Results are
    /// in key order. Stubs that *cannot* overlap the range are skipped;
    /// overlapping stubs raise `IncompleteProof`.
    pub fn range(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<Vec<(Key, Value)>, TreeError> {
        let mut out = Vec::new();
        range_rec(&self.root, lo, hi, &mut out)?;
        Ok(out)
    }

    /// All entries in key order (full trees).
    pub fn entries(&self) -> Result<Vec<(Key, Value)>, TreeError> {
        self.range(None, None)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Inserts or replaces `key`; returns the previous value if any. A
    /// window of one: the edit, then the rehash pass.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<Option<Value>, TreeError> {
        let old = self.insert_unhashed(key, value);
        self.root.rehash();
        old
    }

    /// Deletes `key`; returns the removed value if it existed. A window of
    /// one: the edit, then the rehash pass.
    pub fn delete(&mut self, key: &[u8]) -> Result<Option<Value>, TreeError> {
        let old = self.delete_unhashed(key);
        self.root.rehash();
        old
    }

    /// Applies `ops` in order and returns their answers, hashing once for
    /// the whole window: each op edits without hashing, then one bottom-up
    /// pass recomputes every node the window edited or created, each once.
    /// The tree ends exactly as after [`crate::apply_op`] on each op in
    /// turn; no intermediate root is computed.
    ///
    /// Any op may appear. On a pruned tree the first op that needs a
    /// pruned-away subtree ends the window with `Err(IncompleteProof)`; the
    /// tree is still fully hashed, holding the ops before it.
    pub fn apply_window(&mut self, ops: &[Op]) -> Result<Vec<OpResult>, TreeError> {
        let mut results = Vec::with_capacity(ops.len());
        let applied = ops.iter().try_for_each(|op| {
            results.push(self.apply_unhashed(op)?);
            Ok(())
        });
        self.root.rehash();
        applied.map(|()| results)
    }

    /// A window of one op, without the result vector (crate-internal, for
    /// [`crate::apply_op`]).
    pub(crate) fn apply(&mut self, op: &Op) -> Result<OpResult, TreeError> {
        let result = self.apply_unhashed(op);
        self.root.rehash();
        result
    }

    /// One op of a window, its edits left stale for the pass.
    fn apply_unhashed(&mut self, op: &Op) -> Result<OpResult, TreeError> {
        match op {
            Op::Get(k) => Ok(OpResult::Value(self.get(k)?.cloned())),
            Op::Range(lo, hi) => Ok(OpResult::Entries(self.range(lo.as_deref(), hi.as_deref())?)),
            Op::Put(k, v) => Ok(OpResult::Replaced(
                self.insert_entry_unhashed(LeafEntry::new(k.clone(), v.clone()))?
                    .map(LeafEntry::into_value),
            )),
            Op::Delete(k) => Ok(OpResult::Deleted(self.delete_unhashed(k)?)),
        }
    }

    fn insert_unhashed(&mut self, key: Key, value: Value) -> Result<Option<Value>, TreeError> {
        let old = self.insert_entry_unhashed(LeafEntry::new(key, value))?;
        Ok(old.map(LeafEntry::into_value))
    }

    /// Inserts or replaces `entry`, handing back the entry it replaced.
    fn insert_entry_unhashed(
        &mut self,
        entry: Arc<LeafEntry>,
    ) -> Result<Option<Arc<LeafEntry>>, TreeError> {
        let (old, split) = insert_rec(&mut self.root, entry, self.order)?;
        if let Some((sep, right)) = split {
            let left = std::mem::replace(&mut self.root, Child::Stub(Digest::ZERO));
            let root = Node::Internal {
                keys: vec![sep].into(),
                children: vec![left, right],
                digest: Digest::ZERO,
            };
            self.root = Child::edited(root);
        }
        if old.is_none() {
            if let Some(len) = &mut self.len {
                *len += 1;
            }
        }
        Ok(old)
    }

    fn delete_unhashed(&mut self, key: &[u8]) -> Result<Option<Value>, TreeError> {
        let old = delete_rec(&mut self.root, key, self.order)?;
        // Collapse a root that shrank to a single child.
        let collapsed = match self.root.node() {
            Ok(Node::Internal { children, .. }) if children.len() == 1 => Some(children[0].clone()),
            _ => None,
        };
        if let Some(child) = collapsed {
            self.root = child;
        }
        if old.is_some() {
            if let Some(len) = &mut self.len {
                *len -= 1;
            }
        }
        Ok(old)
    }

    /// The root digest this tree's *content* commits to: every materialized
    /// digest recomputed bottom-up, read-only, no node copied. Clients run
    /// this on a received proof before trusting [`Self::root_digest`]; a
    /// cached digest that disagrees is
    /// [`VerifyError::CachedDigestMismatch`].
    pub(crate) fn verified_root(&self) -> Result<Digest, VerifyError> {
        self.root.verified_digest()
    }

    /// The root slot (crate-internal, for the codec and chunk grafting).
    pub(crate) fn root(&self) -> &Child {
        &self.root
    }

    /// The root slot for editing behind the API's back (forgery tests).
    #[cfg(test)]
    pub(crate) fn root_mut(&mut self) -> &mut Child {
        &mut self.root
    }

    /// Hides every entry of the leaf `key` routes to behind its pair
    /// digest (crate-internal, for [`crate::VerificationObject::withhold`]).
    /// No digest moves; a stub on the path or an empty leaf leaves the
    /// tree as it was.
    pub(crate) fn withhold(&mut self, key: &[u8]) {
        withhold_rec(&mut self.root, key);
    }

    /// Erases the cached entry count (crate-internal). Proofs decode
    /// through [`crate::VerificationObject::from_bytes`], and a proof never
    /// authenticates a count — erasing it keeps decode→encode an identity
    /// even for proofs whose pruning happened to keep every leaf.
    pub(crate) fn forget_len(&mut self) {
        self.len = None;
    }

    /// Reassembles a tree from decoded parts (crate-internal, for the
    /// codec; the caller has already verified digests and structure).
    pub(crate) fn from_parts(root: Child, order: usize, len: Option<usize>) -> MerkleTree {
        MerkleTree { root, order, len }
    }

    // ------------------------------------------------------------------
    // Pruning (verification-object construction)
    // ------------------------------------------------------------------

    /// Pruned tree sufficient to replay `get(key)` or `insert(key, _)`:
    /// the root-to-leaf path for `key` is materialized, everything else is
    /// stubs. When `key` is present its leaf ships only that entry whole
    /// and every other entry as its pair digest; when it is absent the
    /// whole leaf is shared with `self`.
    pub fn prune_for_point(&self, key: &[u8]) -> MerkleTree {
        MerkleTree {
            root: prune_points_rec(&self.root, &[key]),
            order: self.order,
            len: None,
        }
    }

    /// Pruned tree sufficient to replay `range(lo, hi)`: every subtree
    /// intersecting the closed interval `[lo, hi]` is materialized.
    /// Zero-copy: in-range subtrees are shared whole with `self`.
    pub fn prune_for_range(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> MerkleTree {
        MerkleTree {
            root: prune_interval_rec(&self.root, lo, hi),
            order: self.order,
            len: None,
        }
    }

    /// Pruned tree sufficient to replay `delete(key)`: the path for `key`
    /// is materialized, and at every level the path node's adjacent siblings
    /// are shallow-materialized (leaves shared whole; internal nodes
    /// keys-only) so the replay can decide and perform borrows/merges.
    pub fn prune_for_delete(&self, key: &[u8]) -> MerkleTree {
        MerkleTree {
            root: prune_delete_rec(&self.root, key),
            order: self.order,
            len: None,
        }
    }

    /// Pruned tree sufficient to replay **any sequence** of point
    /// operations (`get`/`insert`) on `keys`: the union of the
    /// root-to-leaf paths, with spine siblings shared once instead of once
    /// per key. Each leaf is pruned as in [`MerkleTree::prune_for_point`]:
    /// it ships only the window's keys whole when every one of them that
    /// routes there is present, and whole otherwise.
    ///
    /// Replay-sufficiency of the union holds because point inserts split
    /// only nodes on their own root-to-leaf path: a split never destroys
    /// the materialization of another key's path (both halves of a split
    /// leaf stay materialized, and separator insertion shifts the other
    /// keys' child indices exactly as on the full tree). A leaf that hides
    /// entries takes no insert: every window key routed to it is present
    /// before the window and a window never deletes, so each op there is
    /// a `get` or a replace. Deletes rebalance across *sibling* nodes and
    /// are therefore not covered — batch them via
    /// [`MerkleTree::prune_for_delete`] per key instead.
    pub fn prune_for_points(&self, keys: &[&[u8]]) -> MerkleTree {
        let mut sorted: Vec<&[u8]> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let root = if sorted.is_empty() {
            self.root.to_stub()
        } else {
            prune_points_rec(&self.root, &sorted)
        };
        MerkleTree {
            root,
            order: self.order,
            len: None,
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by tests and debug assertions)
    // ------------------------------------------------------------------

    /// Verifies structural invariants: key order, separator correctness,
    /// occupancy bounds, uniform depth, and digest/pair-digest consistency.
    /// Intended for tests; cost is O(n).
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut depth = None;
        check_rec(&self.root, None, None, self.order, true, 0, &mut depth)?;
        let counted = self.root.entry_count();
        match self.len {
            Some(len) if counted != len => Err(format!("len {len} != counted {counted}")),
            None => Err("full tree with unknown len".into()),
            _ => Ok(()),
        }
    }
}

impl Default for MerkleTree {
    fn default() -> Self {
        MerkleTree::new()
    }
}

// ----------------------------------------------------------------------
// Recursive workers
// ----------------------------------------------------------------------

type SplitInfo = Option<(Key, Child)>;

fn insert_rec(
    child: &mut Child,
    entry: Arc<LeafEntry>,
    order: usize,
) -> Result<(Option<Arc<LeafEntry>>, SplitInfo), TreeError> {
    // Copy-on-write: `edit` un-shares this node before it is edited, so
    // snapshots and proofs holding the old version are unaffected. It marks
    // the slot stale before anything below it, so every stale slot sits
    // under a stale slot.
    let node = child.edit()?;
    let (old, split) = match node {
        Node::Leaf { entries, .. } => {
            let old = match entry_index(entries, &entry.key) {
                Ok(i) => Some(std::mem::replace(&mut entries[i], entry)),
                Err(i) => {
                    entries.insert(i, entry);
                    None
                }
            };
            let split = (entries.len() > order).then(|| {
                let right = entries.split_off(entries.len() / 2);
                let sep = right[0].key.clone();
                let right = Node::Leaf {
                    entries: right,
                    digest: Digest::ZERO,
                };
                (sep, Child::edited(right))
            });
            (old, split)
        }
        // Only a replace: the entry count does not move, so nothing splits.
        Node::ProofLeaf { entries, .. } => {
            let slot = proven_entry(entries, &entry.key)?;
            (Some(std::mem::replace(slot, entry)), None)
        }
        Node::Internal { keys, children, .. } => {
            let idx = child_index(keys, &entry.key);
            let (old, child_split) = insert_rec(&mut children[idx], entry, order)?;
            let mut split = None;
            if let Some((sep, right)) = child_split {
                let mut seps = take_keys(keys);
                seps.insert(idx, sep);
                children.insert(idx + 1, right);
                if children.len() > order {
                    let mid = children.len() / 2;
                    let right_children = children.split_off(mid);
                    let right_seps = seps.split_off(mid);
                    // `seps` now holds `seps[..mid]`; its last entry is
                    // promoted as the separator between the two halves.
                    let promote = seps.pop().expect("non-empty separator set");
                    let right = Node::Internal {
                        keys: right_seps.into(),
                        children: right_children,
                        digest: Digest::ZERO,
                    };
                    split = Some((promote, Child::edited(right)));
                }
                *keys = seps.into();
            }
            (old, split)
        }
    };
    Ok((old, split))
}

fn delete_rec(child: &mut Child, key: &[u8], order: usize) -> Result<Option<Value>, TreeError> {
    let node = child.edit()?;
    let old = match node {
        Node::Leaf { entries, .. } => entry_index(entries, key)
            .ok()
            .map(|i| LeafEntry::into_value(entries.remove(i))),
        // A delete may rebalance with the neighbours' keys; its proofs keep
        // whole leaves.
        Node::ProofLeaf { .. } => return Err(TreeError::IncompleteProof),
        Node::Internal { keys, children, .. } => {
            let idx = child_index(keys, key);
            let old = delete_rec(&mut children[idx], key, order)?;
            if old.is_some() && fill(children[idx].node()?) < min_fill(order) {
                let mut seps = take_keys(keys);
                let repaired = rebalance(&mut seps, children, idx, order);
                *keys = seps.into();
                repaired?;
            }
            old
        }
    };
    Ok(old)
}

/// A node's separators as an editable vector, to be shared again with
/// `.into()` once edited: moved out when no snapshot or proof shares them
/// (the slice is left holding empty keys until then), copied otherwise.
fn take_keys(keys: &mut Arc<[Key]>) -> Vec<Key> {
    match Arc::get_mut(keys) {
        Some(unique) => unique.iter_mut().map(std::mem::take).collect(),
        None => keys.to_vec(),
    }
}

/// Minimum entries for a non-root leaf / minimum children for a non-root
/// internal node.
#[inline]
fn min_fill(order: usize) -> usize {
    order / 2
}

/// Entries of a leaf / children of an internal node.
fn fill(node: &Node) -> usize {
    match node {
        Node::Leaf { entries, .. } => entries.len(),
        Node::ProofLeaf { entries, .. } => entries.len(),
        Node::Internal { children, .. } => children.len(),
    }
}

/// Repairs an underfull `children[idx]` by borrowing from or merging with an
/// adjacent sibling. Borrowing is preferred (left first), matching classic
/// B+-tree deletion; the choice order is part of the protocol: server and
/// client must transform state identically. A stub sibling means the proof
/// cannot support the repair (`IncompleteProof`).
fn rebalance(
    keys: &mut Vec<Key>,
    children: &mut Vec<Child>,
    idx: usize,
    order: usize,
) -> Result<(), TreeError> {
    if idx > 0 && fill(children[idx - 1].node()?) > min_fill(order) {
        borrow_from_left(keys, children, idx)
    } else if idx + 1 < children.len() && fill(children[idx + 1].node()?) > min_fill(order) {
        borrow_from_right(keys, children, idx)
    } else if idx > 0 {
        merge_into_left(keys, children, idx - 1)
    } else {
        merge_into_left(keys, children, idx)
    }
}

fn borrow_from_left(keys: &mut [Key], children: &mut [Child], idx: usize) -> Result<(), TreeError> {
    let (l, r) = children.split_at_mut(idx);
    let (left, cur) = (l[idx - 1].edit()?, r[0].edit()?);
    match (&mut *left, &mut *cur) {
        (Node::Leaf { entries: le, .. }, Node::Leaf { entries: ce, .. }) => {
            let moved = le.pop().ok_or(TreeError::IncompleteProof)?;
            keys[idx - 1] = moved.key.clone();
            ce.insert(0, moved);
        }
        (
            Node::Internal {
                keys: lk,
                children: lc,
                ..
            },
            Node::Internal {
                keys: ck,
                children: cc,
                ..
            },
        ) => {
            let (up, rest) = lk.split_last().ok_or(TreeError::IncompleteProof)?;
            let sep = std::mem::replace(&mut keys[idx - 1], up.clone());
            *ck = std::iter::once(sep).chain(ck.iter().cloned()).collect();
            *lk = rest.into();
            cc.insert(0, lc.pop().ok_or(TreeError::IncompleteProof)?);
        }
        _ => return Err(TreeError::IncompleteProof),
    }
    Ok(())
}

fn borrow_from_right(
    keys: &mut [Key],
    children: &mut [Child],
    idx: usize,
) -> Result<(), TreeError> {
    let (l, r) = children.split_at_mut(idx + 1);
    let (cur, right) = (l[idx].edit()?, r[0].edit()?);
    match (&mut *cur, &mut *right) {
        (Node::Leaf { entries: ce, .. }, Node::Leaf { entries: re, .. }) => {
            if re.len() < 2 {
                return Err(TreeError::IncompleteProof);
            }
            ce.push(re.remove(0));
            keys[idx] = re[0].key.clone();
        }
        (
            Node::Internal {
                keys: ck,
                children: cc,
                ..
            },
            Node::Internal {
                keys: rk,
                children: rc,
                ..
            },
        ) => {
            let (up, rest) = rk.split_first().ok_or(TreeError::IncompleteProof)?;
            if rc.is_empty() {
                return Err(TreeError::IncompleteProof);
            }
            let sep = std::mem::replace(&mut keys[idx], up.clone());
            *ck = ck.iter().cloned().chain(std::iter::once(sep)).collect();
            *rk = rest.into();
            cc.push(rc.remove(0));
        }
        _ => return Err(TreeError::IncompleteProof),
    }
    Ok(())
}

/// Merges `children[li + 1]` into `children[li]`, consuming separator
/// `keys[li]`.
fn merge_into_left(
    keys: &mut Vec<Key>,
    children: &mut Vec<Child>,
    li: usize,
) -> Result<(), TreeError> {
    let Child::Node { node: right, .. } = children.remove(li + 1) else {
        return Err(TreeError::IncompleteProof);
    };
    let sep = keys.remove(li);
    // Take the right node by value, copying only if a snapshot still
    // shares it.
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    let left = children[li].edit()?;
    match (&mut *left, right) {
        (Node::Leaf { entries: le, .. }, Node::Leaf { entries: re, .. }) => {
            le.extend(re);
        }
        (
            Node::Internal {
                keys: lk,
                children: lc,
                ..
            },
            Node::Internal {
                keys: rk,
                children: rc,
                ..
            },
        ) => {
            *lk = [&lk[..], &[sep], &rk[..]].concat().into();
            lc.extend(rc);
        }
        _ => return Err(TreeError::IncompleteProof),
    }
    Ok(())
}

fn range_rec(
    child: &Child,
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
    out: &mut Vec<(Key, Value)>,
) -> Result<(), TreeError> {
    match child.node()? {
        Node::Leaf { entries, .. } => {
            for e in entries {
                let above_lo = lo.is_none_or(|l| e.key.as_slice() >= l);
                let below_hi = hi.is_none_or(|h| e.key.as_slice() < h);
                if above_lo && below_hi {
                    out.push((e.key.clone(), e.value.clone()));
                }
            }
            Ok(())
        }
        // A hidden key may lie in the range; range proofs keep whole leaves.
        Node::ProofLeaf { .. } => Err(TreeError::IncompleteProof),
        Node::Internal { keys, children, .. } => {
            let start = lo.map_or(0, |l| child_index(keys, l));
            // Children up to and including the first whose lower bound is
            // >= hi can contain keys < hi.
            let end = hi.map_or(children.len() - 1, |h| {
                keys.partition_point(|k| k.as_slice() < h)
            });
            if start > end {
                // Inverted (empty) range.
                return Ok(());
            }
            for child in &children[start..=end] {
                range_rec(child, lo, hi, out)?;
            }
            Ok(())
        }
    }
}

/// Materializes exactly the subtrees whose key interval intersects the
/// closed interval `[lo, hi]` (`None` = unbounded), *sharing* them with the
/// source tree: leaves and fully-in-range subtrees are shared whole; only
/// the boundary spine of internal nodes (sharing their separator keys, with
/// out-of-range children as inline stubs) is freshly allocated.
fn prune_interval_rec(child: &Child, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Child {
    let Ok(Node::Internal {
        keys,
        children,
        digest,
    }) = child.node()
    else {
        return child.clone();
    };
    let start = lo.map_or(0, |l| child_index(keys, l));
    let end = hi.map_or(children.len() - 1, |h| child_index(keys, h));
    let slots = children.iter().enumerate().map(|(i, c)| {
        if i < start || i > end {
            c.to_stub()
        } else if (i > start || lo.is_none()) && (i < end || hi.is_none()) {
            // The child's whole key interval lies inside [lo, hi]:
            // recursing would materialize every node, so share the subtree
            // as-is.
            c.clone()
        } else {
            prune_interval_rec(c, lo, hi)
        }
    });
    Child::spine(keys, slots.collect(), *digest)
}

/// Materializes the union of the root-to-leaf paths for a **sorted,
/// deduplicated, non-empty** slice of keys. Each internal node partitions
/// the sorted keys into contiguous per-child groups; children covering no
/// key become stubs, the rest recurse with their group, down to
/// [`prune_leaf`].
fn prune_points_rec(child: &Child, keys: &[&[u8]]) -> Child {
    debug_assert!(!keys.is_empty());
    let Ok(Node::Internal {
        keys: seps,
        children,
        digest,
    }) = child.node()
    else {
        return prune_leaf(child, keys);
    };
    // Child `i` takes the keys below separator `i`, one merge pass: a
    // child with no key left costs one comparison, or none.
    let mut rest = keys;
    let slots = children.iter().enumerate().map(|(i, c)| {
        let n = seps.get(i).map_or(rest.len(), |sep| {
            rest.partition_point(|k| *k < sep.as_slice())
        });
        let (group, tail) = rest.split_at(n);
        rest = tail;
        if group.is_empty() {
            c.to_stub()
        } else {
            prune_points_rec(c, group)
        }
    });
    Child::spine(seps, slots.collect(), *digest)
}

/// A point proof's copy of the leaf the sorted `keys` route to: shared
/// whole when some key is absent (an absence or an insert is proven
/// against the whole neighbourhood) or when the keys are all it holds;
/// otherwise a [`Node::ProofLeaf`] with the keys' entries whole and every
/// other entry as its cached pair digest. Two allocations — the node and
/// its entry vector; no key, value or digest is recomputed, and a hidden
/// entry's key is never read.
fn prune_leaf(child: &Child, keys: &[&[u8]]) -> Child {
    let Ok(Node::Leaf { entries, digest }) = child.node() else {
        return child.clone();
    };
    if entries.len() == keys.len() {
        return child.clone();
    }
    let hash = |e: &Arc<LeafEntry>| ProofEntry::Hash(e.kv_hash);
    let mut proof = Vec::with_capacity(entries.len());
    let mut rest = entries.as_slice();
    for k in keys {
        let Ok(i) = entry_index(rest, k) else {
            return child.clone();
        };
        proof.extend(rest[..i].iter().map(hash));
        proof.push(ProofEntry::Kv(Arc::clone(&rest[i])));
        rest = &rest[i + 1..];
    }
    proof.extend(rest.iter().map(hash));
    Child::new(Node::ProofLeaf {
        entries: proof,
        digest: *digest,
    })
}

/// Hides the leaf `key` routes to (see [`MerkleTree::withhold`]).
fn withhold_rec(child: &mut Child, key: &[u8]) {
    let hidden: Vec<ProofEntry> = match child.node_mut() {
        Ok(Node::Internal { keys, children, .. }) => {
            return withhold_rec(&mut children[child_index(keys, key)], key)
        }
        Ok(Node::Leaf { entries, .. }) => entries
            .iter()
            .map(|e| ProofEntry::Hash(e.kv_hash))
            .collect(),
        Ok(Node::ProofLeaf { entries, .. }) => entries
            .iter()
            .map(|e| ProofEntry::Hash(*e.kv_hash()))
            .collect(),
        Err(_) => return,
    };
    if !hidden.is_empty() {
        let digest = child.digest();
        *child = Child::new(Node::ProofLeaf {
            entries: hidden,
            digest,
        });
    }
}

fn prune_delete_rec(child: &Child, key: &[u8]) -> Child {
    let Ok(Node::Internal {
        keys,
        children,
        digest,
    }) = child.node()
    else {
        return child.clone();
    };
    let idx = child_index(keys, key);
    let slots = children.iter().enumerate().map(|(i, c)| {
        if i == idx {
            prune_delete_rec(c, key)
        } else if i + 1 == idx || i == idx + 1 {
            c.shallow_copy()
        } else {
            c.to_stub()
        }
    });
    Child::spine(keys, slots.collect(), *digest)
}

#[allow(clippy::too_many_arguments)]
fn check_rec(
    child: &Child,
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
    order: usize,
    is_root: bool,
    depth: usize,
    leaf_depth: &mut Option<usize>,
) -> Result<(), String> {
    if child.is_stale() {
        return Err("node left stale after an update".into());
    }
    let node = child.node().map_err(|_| "full tree contains a stub")?;
    match node {
        Node::ProofLeaf { .. } => return Err("full tree contains a hash-only entry".into()),
        Node::Leaf { entries, .. } => {
            match leaf_depth {
                Some(d) if *d != depth => {
                    return Err(format!("leaf depth {depth} != expected {d}"))
                }
                None => *leaf_depth = Some(depth),
                _ => {}
            }
            if !is_root && entries.len() < min_fill(order) {
                return Err(format!("leaf underfull: {}", entries.len()));
            }
            if entries.len() > order {
                return Err(format!("leaf overfull: {}", entries.len()));
            }
            for w in entries.windows(2) {
                if w[0].key >= w[1].key {
                    return Err("leaf keys out of order".into());
                }
            }
            for e in entries {
                if let Some(l) = lo {
                    if e.key.as_slice() < l {
                        return Err("leaf key below lower bound".into());
                    }
                }
                if let Some(h) = hi {
                    if e.key.as_slice() >= h {
                        return Err("leaf key above upper bound".into());
                    }
                }
            }
        }
        Node::Internal { keys, children, .. } => {
            if children.len() != keys.len() + 1 {
                return Err("child/separator count mismatch".into());
            }
            let min = if is_root { 2 } else { min_fill(order) };
            if children.len() < min {
                return Err(format!("internal underfull: {}", children.len()));
            }
            if children.len() > order {
                return Err(format!("internal overfull: {}", children.len()));
            }
            for w in keys.windows(2) {
                if w[0] >= w[1] {
                    return Err("separator keys out of order".into());
                }
            }
            for (i, child) in children.iter().enumerate() {
                let clo = if i == 0 {
                    lo
                } else {
                    Some(keys[i - 1].as_slice())
                };
                let chi = if i == keys.len() {
                    hi
                } else {
                    Some(keys[i].as_slice())
                };
                check_rec(child, clo, chi, order, false, depth + 1, leaf_depth)?;
            }
        }
    }
    // Recompute the node's digest (for a leaf, its per-entry pair digests
    // too) to catch a stale cache at either level.
    node.check_digest()
        .map_err(|_| "stale cached digest".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{rehash_count, u64_key};

    fn tree_with(n: u64, order: usize) -> Result<MerkleTree, TreeError> {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(2 * i), vec![i as u8; 8])?;
        }
        Ok(t)
    }

    /// Stale slots in `child`'s subtree, counted over every materialized
    /// node.
    fn stale_nodes(child: &Child) -> u64 {
        let below = match child.node() {
            Ok(Node::Internal { children, .. }) => children.iter().map(stale_nodes).sum(),
            _ => 0,
        };
        u64::from(child.is_stale()) + below
    }

    /// Levels of internal nodes above the leaves.
    fn depth(tree: &MerkleTree) -> u64 {
        let mut child = &tree.root;
        let mut depth = 0;
        while let Ok(Node::Internal { children, .. }) = child.node() {
            child = &children[0];
            depth += 1;
        }
        depth
    }

    /// Node digests computed while `f` runs.
    fn rehashes<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = rehash_count();
        let out = f();
        (out, rehash_count() - before)
    }

    /// The pass of a window hashes exactly the nodes the window left
    /// stale, once each, and leaves the tree where op-at-a-time leaves it.
    #[test]
    fn a_window_rehashes_each_stale_node_once() -> Result<(), TreeError> {
        for order in [4, 8, 16] {
            let tree = tree_with(300, order)?;
            // Replaces, fresh inserts that split, and reads, over shared
            // upper spine nodes.
            let ops: Vec<Op> = (0..32u64)
                .map(|i| match i % 4 {
                    0 => Op::Put(u64_key((i * 37) % 600), vec![1; 8]),
                    1 => Op::Put(u64_key(2 * ((i * 53) % 300) + 1), vec![2; 8]),
                    2 => Op::Get(u64_key((i * 11) % 600)),
                    _ => Op::Put(u64_key(601 + i), vec![3; 8]),
                })
                .collect();
            let mut window = tree.clone();
            let results = ops
                .iter()
                .map(|op| window.apply_unhashed(op))
                .collect::<Result<Vec<_>, _>>()?;
            let stale = stale_nodes(&window.root);
            let ((), hashed) = rehashes(|| window.root.rehash());
            assert_eq!(hashed, stale, "order {order}");
            assert_eq!(stale_nodes(&window.root), 0);
            assert_eq!(window.check_invariants(), Ok(()));

            let mut per_op = tree.clone();
            let (want, per_op_hashed) = rehashes(|| {
                ops.iter()
                    .map(|op| crate::apply_op(&mut per_op, op))
                    .collect::<Result<Vec<_>, _>>()
            });
            assert_eq!(Ok(results), want);
            assert_eq!(window.root_digest(), per_op.root_digest());
            assert!(
                hashed < per_op_hashed,
                "order {order}: window {hashed} !< per-op {per_op_hashed}"
            );
        }
        Ok(())
    }

    #[test]
    fn a_get_only_window_rehashes_nothing() -> Result<(), TreeError> {
        let mut tree = tree_with(300, 8)?;
        let root = tree.root_digest();
        let ops: Vec<Op> = (0..32u64).map(|i| Op::Get(u64_key(i * 19))).collect();
        let (results, hashed) = rehashes(|| tree.apply_window(&ops));
        assert_eq!(results?.len(), 32);
        assert_eq!(hashed, 0);
        assert_eq!(tree.root_digest(), root);
        Ok(())
    }

    /// A single insert is a window of one: its path, root to leaf.
    #[test]
    fn a_single_insert_rehashes_its_path() -> Result<(), TreeError> {
        for order in [4, 8, 16] {
            let mut tree = tree_with(300, order)?;
            let d = depth(&tree);
            assert!(d >= 1, "order {order}: the tree has internal nodes");
            for key in [u64_key(40), u64_key(0)] {
                let (old, hashed) = rehashes(|| tree.insert(key, vec![9]));
                assert!(old?.is_some(), "a replace: no split");
                assert_eq!(hashed, d + 1, "order {order}");
            }
            assert_eq!(tree.check_invariants(), Ok(()));
        }
        Ok(())
    }
}

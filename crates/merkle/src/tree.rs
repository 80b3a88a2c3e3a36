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
//!   per materialized internal node and nothing else.
//!
//! Sharing is never observable through the API: any mutation of one tree
//! first un-shares the affected nodes, so other handles keep their exact
//! pre-mutation state.

use std::sync::Arc;

use tcvs_crypto::Digest;

use crate::error::{TreeError, VerifyError};
use crate::node::{Child, Key, LeafEntry, Node, Value};

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

impl MerkleTree {
    /// Creates an empty tree with the default branching order.
    pub fn new() -> MerkleTree {
        MerkleTree::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with branching order `order` (≥ 4).
    pub fn with_order(order: usize) -> MerkleTree {
        assert!(order >= MIN_ORDER, "order {order} < minimum {MIN_ORDER}");
        MerkleTree {
            root: Child::Node(Arc::new(Node::leaf(Vec::new()))),
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

    /// True iff this tree contains a stub anywhere (i.e. it is pruned).
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

    /// Inserts or replaces `key`; returns the previous value if any.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<Option<Value>, TreeError> {
        let (old, split) = insert_rec(&mut self.root, key, value, self.order)?;
        if let Some((sep, right)) = split {
            let left = std::mem::replace(&mut self.root, Child::Stub(Digest::ZERO));
            let root = Node::internal(vec![sep].into(), vec![left, right]);
            self.root = Child::Node(Arc::new(root));
        }
        if old.is_none() {
            if let Some(len) = &mut self.len {
                *len += 1;
            }
        }
        Ok(old)
    }

    /// Deletes `key`; returns the removed value if it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<Option<Value>, TreeError> {
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

    /// Rebuilds the tree from its content alone, computing every
    /// materialized digest afresh (per-entry pair digests included). The
    /// verifiers do not need this — they fold received proofs read-only and
    /// *reject* a cached digest that disagrees with its content — and no
    /// tree built through this API can hold a stale digest.
    pub fn recompute_all_digests(&mut self) {
        self.root = self.root.rebuilt();
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
    /// stubs. Zero-copy: the materialized leaf is shared with `self`.
    pub fn prune_for_point(&self, key: &[u8]) -> MerkleTree {
        MerkleTree {
            root: prune_interval_rec(&self.root, Some(key), Some(key)),
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
    /// per key. Zero-copy like [`MerkleTree::prune_for_point`].
    ///
    /// Replay-sufficiency of the union holds because point inserts split
    /// only nodes on their own root-to-leaf path: a split never destroys
    /// the materialization of another key's path (both halves of a split
    /// leaf stay materialized, and separator insertion shifts the other
    /// keys' child indices exactly as on the full tree). Deletes rebalance
    /// across *sibling* nodes and are therefore not covered — batch them
    /// via [`MerkleTree::prune_for_delete`] per key instead.
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
    key: Key,
    value: Value,
    order: usize,
) -> Result<(Option<Value>, SplitInfo), TreeError> {
    // Copy-on-write: `node_mut` un-shares this node before it is edited, so
    // snapshots and proofs holding the old version are unaffected.
    let node = child.node_mut()?;
    let (old, split) = match node {
        Node::Leaf { entries, .. } => {
            let old = match entry_index(entries, &key) {
                Ok(i) => {
                    let new = LeafEntry::new(key, value);
                    Some(LeafEntry::into_value(std::mem::replace(
                        &mut entries[i],
                        new,
                    )))
                }
                Err(i) => {
                    entries.insert(i, LeafEntry::new(key, value));
                    None
                }
            };
            let split = (entries.len() > order).then(|| {
                let right = entries.split_off(entries.len() / 2);
                (right[0].key.clone(), Node::leaf(right))
            });
            (old, split)
        }
        Node::Internal { keys, children, .. } => {
            let idx = child_index(keys, &key);
            let (old, child_split) = insert_rec(&mut children[idx], key, value, order)?;
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
                    split = Some((promote, Node::internal(right_seps.into(), right_children)));
                }
                *keys = seps.into();
            }
            (old, split)
        }
    };
    node.recompute_digest();
    Ok((
        old,
        split.map(|(sep, right)| (sep, Child::Node(Arc::new(right)))),
    ))
}

fn delete_rec(child: &mut Child, key: &[u8], order: usize) -> Result<Option<Value>, TreeError> {
    let node = child.node_mut()?;
    let old = match node {
        Node::Leaf { entries, .. } => entry_index(entries, key)
            .ok()
            .map(|i| LeafEntry::into_value(entries.remove(i))),
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
    node.recompute_digest();
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
    let (left, cur) = (l[idx - 1].node_mut()?, r[0].node_mut()?);
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
    left.recompute_digest();
    cur.recompute_digest();
    Ok(())
}

fn borrow_from_right(
    keys: &mut [Key],
    children: &mut [Child],
    idx: usize,
) -> Result<(), TreeError> {
    let (l, r) = children.split_at_mut(idx + 1);
    let (cur, right) = (l[idx].node_mut()?, r[0].node_mut()?);
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
    cur.recompute_digest();
    right.recompute_digest();
    Ok(())
}

/// Merges `children[li + 1]` into `children[li]`, consuming separator
/// `keys[li]`.
fn merge_into_left(
    keys: &mut Vec<Key>,
    children: &mut Vec<Child>,
    li: usize,
) -> Result<(), TreeError> {
    let Child::Node(right) = children.remove(li + 1) else {
        return Err(TreeError::IncompleteProof);
    };
    let sep = keys.remove(li);
    // Take the right node by value, copying only if a snapshot still
    // shares it.
    let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
    let left = children[li].node_mut()?;
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
    left.recompute_digest();
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
/// key become stubs, the rest recurse with their group.
fn prune_points_rec(child: &Child, keys: &[&[u8]]) -> Child {
    debug_assert!(!keys.is_empty());
    let Ok(Node::Internal {
        keys: seps,
        children,
        digest,
    }) = child.node()
    else {
        return child.clone();
    };
    let mut at = 0usize;
    let slots = children.iter().enumerate().map(|(i, c)| {
        let start = at;
        while at < keys.len() && child_index(seps, keys[at]) == i {
            at += 1;
        }
        if start == at {
            c.to_stub()
        } else {
            prune_points_rec(c, &keys[start..at])
        }
    });
    Child::spine(seps, slots.collect(), *digest)
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
    let node = child.node().map_err(|_| "full tree contains a stub")?;
    match node {
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

//! Database operations and their results.
//!
//! The paper models the CVS server as "a database of data items": `checkout`
//! becomes a read and `commit` an update (§2.1). [`Op`] is that common
//! operation vocabulary, shared by the trusted server, the untrusted server,
//! the protocol clients, and the workload generators.

use crate::error::TreeError;
use crate::node::{Key, Value};
use crate::tree::MerkleTree;

/// A database operation (the paper's query `Q`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Point read (`checkout` of one item).
    Get(Key),
    /// Range read over `[lo, hi)` (`checkout` of a set of items); `None`
    /// bounds are unbounded.
    Range(Option<Key>, Option<Key>),
    /// Insert-or-replace (`commit` of one item).
    Put(Key, Value),
    /// Delete an item.
    Delete(Key),
}

impl Op {
    /// True iff the operation modifies the database.
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Put(..) | Op::Delete(..))
    }

    /// A short human-readable label.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Get(_) => "get",
            Op::Range(..) => "range",
            Op::Put(..) => "put",
            Op::Delete(..) => "delete",
        }
    }
}

/// The answer `Q(D)` to an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Result of [`Op::Get`].
    Value(Option<Value>),
    /// Result of [`Op::Range`], in key order.
    Entries(Vec<(Key, Value)>),
    /// Result of [`Op::Put`]: the replaced value, if any.
    Replaced(Option<Value>),
    /// Result of [`Op::Delete`]: the removed value, if any.
    Deleted(Option<Value>),
}

/// Applies `op` to `tree`, returning the answer. Works identically on full
/// trees (server side) and pruned trees (client replay); on a pruned tree an
/// insufficient proof surfaces as `Err(IncompleteProof)`.
///
/// The same as [`MerkleTree::apply_window`] over a window of one.
pub fn apply_op(tree: &mut MerkleTree, op: &Op) -> Result<OpResult, TreeError> {
    tree.apply(op)
}

/// Builds the pruned verification object sufficient to replay `op` against
/// `tree`'s current state.
pub fn prune_for_op(tree: &MerkleTree, op: &Op) -> MerkleTree {
    match op {
        Op::Get(k) | Op::Put(k, _) => tree.prune_for_point(k),
        Op::Range(lo, hi) => tree.prune_for_range(lo.as_deref(), hi.as_deref()),
        Op::Delete(k) => tree.prune_for_delete(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::u64_key;

    fn tree_with(n: u64) -> MerkleTree {
        let mut t = MerkleTree::with_order(4);
        for i in 0..n {
            t.insert(u64_key(i), vec![i as u8]).unwrap();
        }
        t
    }

    #[test]
    fn apply_get() {
        let mut t = tree_with(10);
        let r = apply_op(&mut t, &Op::Get(u64_key(3))).unwrap();
        assert_eq!(r, OpResult::Value(Some(vec![3])));
        let r = apply_op(&mut t, &Op::Get(u64_key(99))).unwrap();
        assert_eq!(r, OpResult::Value(None));
    }

    #[test]
    fn apply_put_and_delete() {
        let mut t = tree_with(5);
        let r = apply_op(&mut t, &Op::Put(u64_key(2), b"new".to_vec())).unwrap();
        assert_eq!(r, OpResult::Replaced(Some(vec![2])));
        let r = apply_op(&mut t, &Op::Delete(u64_key(2))).unwrap();
        assert_eq!(r, OpResult::Deleted(Some(b"new".to_vec())));
        let r = apply_op(&mut t, &Op::Delete(u64_key(2))).unwrap();
        assert_eq!(r, OpResult::Deleted(None));
    }

    #[test]
    fn apply_range() {
        let mut t = tree_with(20);
        let r = apply_op(&mut t, &Op::Range(Some(u64_key(5)), Some(u64_key(8)))).unwrap();
        match r {
            OpResult::Entries(es) => {
                assert_eq!(es.len(), 3);
                assert_eq!(es[0].0, u64_key(5));
                assert_eq!(es[2].0, u64_key(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_classification() {
        assert!(!Op::Get(vec![]).is_update());
        assert!(!Op::Range(None, None).is_update());
        assert!(Op::Put(vec![], vec![]).is_update());
        assert!(Op::Delete(vec![]).is_update());
    }

    #[test]
    fn prune_matches_op_needs() {
        let t = tree_with(64);
        for op in [
            Op::Get(u64_key(7)),
            Op::Put(u64_key(31), b"x".to_vec()),
            Op::Delete(u64_key(40)),
            Op::Range(Some(u64_key(10)), Some(u64_key(14))),
        ] {
            let mut pruned = prune_for_op(&t, &op);
            assert_eq!(pruned.root_digest(), t.root_digest(), "{op:?}");
            let mut full = t.clone();
            let r1 = apply_op(&mut pruned, &op).unwrap();
            let r2 = apply_op(&mut full, &op).unwrap();
            assert_eq!(r1, r2, "{op:?}");
            assert_eq!(pruned.root_digest(), full.root_digest(), "{op:?}");
        }
    }
}

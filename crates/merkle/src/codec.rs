//! Structure-preserving serialization of Merkle B+-trees.
//!
//! Used for server snapshots/backups and for shipping verification objects
//! across process boundaries. The encoding preserves the exact node
//! structure (not just the entries), so digests — including the root digest
//! the whole protocol hangs off — are bit-identical after a round trip.
//! Stub nodes encode their digest, so pruned trees (proofs) serialize too.
//!
//! Decoding recomputes and verifies every materialized digest: a corrupted
//! or tampered byte stream is rejected rather than trusted.

use std::sync::Arc;

use tcvs_crypto::Digest;

use crate::node::{Child, LeafEntry, Node};
use crate::tree::MerkleTree;

/// Errors from decoding a serialized tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended early.
    Truncated,
    /// Unknown node tag byte.
    BadTag(u8),
    /// Structural rule violated (child/key arity, order bounds).
    Malformed(&'static str),
    /// A stored digest does not match the recomputed digest of the decoded
    /// content.
    DigestMismatch,
    /// Trailing bytes after the tree.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown node tag {t}"),
            CodecError::Malformed(m) => write!(f, "malformed tree: {m}"),
            CodecError::DigestMismatch => write!(f, "stored digest mismatch"),
            CodecError::TrailingBytes => write!(f, "trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_STUB: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const MAGIC: &[u8; 4] = b"TCVM";
const VERSION: u8 = 1;
/// Header sentinel for "entry count unknown" (pruned trees).
const LEN_UNKNOWN: u64 = u64::MAX;

/// Bounds-checked byte reader shared by the tree codec and the chunk
/// manifest codec ([`crate::chunk`]). Every read that runs off the end
/// reports [`CodecError::Truncated`] instead of panicking.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub(crate) fn digest(&mut self) -> Result<Digest, CodecError> {
        Ok(Digest::from_slice(self.take(32)?).expect("32 bytes"))
    }

    /// True once every input byte has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Where the encoder writes: real bytes, or only their count. Both run the
/// one routine below, so `encoded_size() == to_bytes().len()` by
/// construction.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes an encoding would take without writing them.
#[derive(Default)]
pub(crate) struct ByteCount(pub(crate) usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_bytes(out: &mut impl Sink, bytes: &[u8]) {
    out.put(&(bytes.len() as u32).to_le_bytes());
    out.put(bytes);
}

pub(crate) fn encode_node(child: &Child, out: &mut impl Sink) {
    match child {
        Child::Stub(d) => {
            out.put(&[TAG_STUB]);
            out.put(d.as_bytes());
        }
        Child::Node(node) => match &**node {
            Node::Leaf { entries, .. } => {
                out.put(&[TAG_LEAF]);
                out.put(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    put_bytes(out, &e.key);
                    put_bytes(out, &e.value);
                }
            }
            Node::Internal { keys, children, .. } => {
                out.put(&[TAG_INTERNAL]);
                out.put(&(keys.len() as u32).to_le_bytes());
                for k in keys.iter() {
                    put_bytes(out, k);
                }
                for c in children {
                    encode_node(c, out);
                }
            }
        },
    }
}

fn decode_node(c: &mut Cursor<'_>, order: usize, depth: usize) -> Result<Child, CodecError> {
    if depth > 64 {
        return Err(CodecError::Malformed("tree too deep"));
    }
    let node = match c.u8()? {
        TAG_STUB => return Ok(Child::Stub(c.digest()?)),
        TAG_LEAF => {
            let n = c.u32()? as usize;
            if n > order {
                return Err(CodecError::Malformed("leaf overfull"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.bytes()?.to_vec();
                let v = c.bytes()?.to_vec();
                // Pair digests are recomputed from content, never trusted
                // from the wire (they are not even serialized).
                entries.push(LeafEntry::new(k, v));
            }
            Node::leaf(entries)
        }
        TAG_INTERNAL => {
            let nk = c.u32()? as usize;
            if nk + 1 > order || nk == 0 {
                return Err(CodecError::Malformed("bad separator count"));
            }
            let mut keys = Vec::with_capacity(nk);
            for _ in 0..nk {
                keys.push(c.bytes()?.to_vec());
            }
            let mut children = Vec::with_capacity(nk + 1);
            for _ in 0..=nk {
                children.push(decode_node(c, order, depth + 1)?);
            }
            Node::internal(keys.into(), children)
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(Child::Node(Arc::new(node)))
}

impl MerkleTree {
    /// The one encoding routine, for bytes and for their count alike.
    fn encode(&self, out: &mut impl Sink) {
        out.put(MAGIC);
        out.put(&[VERSION]);
        out.put(&(self.order() as u32).to_le_bytes());
        let len = self.len().map_or(LEN_UNKNOWN, |l| l as u64);
        out.put(&len.to_le_bytes());
        out.put(self.root_digest().as_bytes());
        encode_node(self.root(), out);
    }

    /// Exact size in bytes of this tree's encoding: `to_bytes().len()`,
    /// counted by the encoder itself without writing anything.
    pub fn encoded_size(&self) -> usize {
        let mut count = ByteCount::default();
        self.encode(&mut count);
        count.0
    }

    /// Serializes the tree (full or pruned) to bytes, digests implicit.
    /// Pruned trees carry no authenticated entry count; their header
    /// records the `LEN_UNKNOWN` sentinel.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        self.encode(&mut out);
        out
    }

    /// Decodes a tree serialized by [`MerkleTree::to_bytes`], recomputing
    /// every materialized digest and verifying the recorded root digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<MerkleTree, CodecError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(CodecError::Malformed("bad magic"));
        }
        if c.u8()? != VERSION {
            return Err(CodecError::Malformed("unsupported version"));
        }
        let order = c.u32()? as usize;
        if order < crate::tree::MIN_ORDER {
            return Err(CodecError::Malformed("order below minimum"));
        }
        let recorded_len = u64::from_le_bytes(c.take(8)?.try_into().expect("8"));
        let recorded_root = c.digest()?;
        let root = decode_node(&mut c, order, 0)?;
        if c.pos != bytes.len() {
            return Err(CodecError::TrailingBytes);
        }
        if root.digest() != recorded_root {
            return Err(CodecError::DigestMismatch);
        }
        // Pruned trees never report a length (it is unauthenticated); for
        // full trees the header count must match the decoded content.
        let len = if root.contains_stub() {
            None
        } else {
            let counted = root.entry_count();
            if recorded_len != LEN_UNKNOWN && recorded_len != counted as u64 {
                return Err(CodecError::Malformed("entry count mismatch"));
            }
            Some(counted)
        };
        Ok(MerkleTree::from_parts(root, order, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::u64_key;
    use crate::op::{apply_op, prune_for_op, Op};

    fn tree(n: u64, order: usize) -> MerkleTree {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(i * 3), format!("value {i}").into_bytes())
                .unwrap();
        }
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        for (n, order) in [(0u64, 4usize), (5, 4), (300, 4), (300, 16)] {
            let t = tree(n, order);
            let bytes = t.to_bytes();
            let back = MerkleTree::from_bytes(&bytes).unwrap();
            assert_eq!(back.root_digest(), t.root_digest(), "n={n} order={order}");
            assert_eq!(back.len(), t.len());
            assert_eq!(back.order(), t.order());
            assert_eq!(back.entries().unwrap(), t.entries().unwrap());
            back.check_invariants().unwrap();
        }
    }

    #[test]
    fn round_trip_continues_identically() {
        // A restored server must produce the same future digests.
        let mut a = tree(100, 8);
        let mut b = MerkleTree::from_bytes(&a.to_bytes()).unwrap();
        for i in 0..20u64 {
            let op = Op::Put(u64_key(i * 7), vec![i as u8]);
            apply_op(&mut a, &op).unwrap();
            apply_op(&mut b, &op).unwrap();
            assert_eq!(a.root_digest(), b.root_digest(), "op {i}");
        }
    }

    #[test]
    fn pruned_trees_serialize() {
        let t = tree(500, 8);
        let pruned = prune_for_op(&t, &Op::Get(u64_key(42)));
        let back = MerkleTree::from_bytes(&pruned.to_bytes()).unwrap();
        assert_eq!(back.root_digest(), t.root_digest());
        assert_eq!(
            back.materialized_nodes(),
            pruned.materialized_nodes(),
            "stubs stay stubs"
        );
        // The proof still replays.
        assert_eq!(
            back.get(&u64_key(42)).unwrap(),
            t.get(&u64_key(42)).unwrap()
        );
    }

    #[test]
    fn corruption_rejected() {
        let t = tree(50, 4);
        let bytes = t.to_bytes();
        // Truncation.
        assert!(MerkleTree::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bit flip in content: either the digest check or structure fails.
        for pos in [50usize, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(MerkleTree::from_bytes(&bad).is_err(), "flip at {pos}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            MerkleTree::from_bytes(&long),
            Err(CodecError::TrailingBytes)
        ));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(MerkleTree::from_bytes(b"nope").is_err());
        let t = tree(2, 4);
        let mut bytes = t.to_bytes();
        bytes[4] = 99; // version
        assert!(MerkleTree::from_bytes(&bytes).is_err());
    }
}

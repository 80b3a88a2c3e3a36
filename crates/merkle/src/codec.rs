//! Structure-preserving serialization of Merkle B+-trees.
//!
//! Used for server snapshots/backups and for shipping verification objects
//! across process boundaries. The encoding preserves the exact node
//! structure (not just the entries), so digests — including the root digest
//! the whole protocol hangs off — are bit-identical after a round trip.
//! Stub nodes encode their digest, so pruned trees (proofs) serialize too,
//! and a proof leaf writes a kind byte per entry: the entry whole, or only
//! its pair digest. Full trees contain neither, so their bytes are the
//! same whether or not proofs hide entries.
//!
//! Decoding recomputes and verifies every materialized digest: a corrupted
//! or tampered byte stream is rejected rather than trusted. A tree's bytes
//! can also be handed out ([`EncodeStream`]) and taken back
//! ([`DecodeStream`]) a piece at a time, node by node, so neither side
//! holds the whole encoding.

use tcvs_crypto::Digest;

use crate::node::{Child, Key, LeafEntry, Node, ProofEntry};
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
const TAG_PROOF_LEAF: u8 = 3;
/// Proof-leaf entry kinds: only the pair digest, or the entry whole.
const KIND_HASH: u8 = 0;
const KIND_KV: u8 = 1;
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

    /// Input bytes not consumed yet.
    pub(crate) fn left(&self) -> usize {
        self.buf.len() - self.pos
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
        Child::Node { node, .. } => match &**node {
            Node::Leaf { entries, .. } => {
                out.put(&[TAG_LEAF]);
                out.put(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    put_bytes(out, &e.key);
                    put_bytes(out, &e.value);
                }
            }
            Node::ProofLeaf { entries, .. } => {
                out.put(&[TAG_PROOF_LEAF]);
                out.put(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    match e {
                        ProofEntry::Kv(e) => {
                            out.put(&[KIND_KV]);
                            put_bytes(out, &e.key);
                            put_bytes(out, &e.value);
                        }
                        ProofEntry::Hash(d) => {
                            out.put(&[KIND_HASH]);
                            out.put(d.as_bytes());
                        }
                    }
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

/// Deepest node a decoder accepts: the root is at depth 0.
const MAX_DEPTH: usize = 64;

/// A node's own encoding, decoded: a stub or leaf whole, or an internal
/// node's separators, its children still to come.
enum Head {
    Whole(Child),
    Internal(Vec<Key>),
}

/// Decodes a node's own encoding. Every count is held to `order`, and a
/// vector is sized by the input left, never by a count alone. Inlined into
/// `decode_node`: every client decodes a proof per reply through it.
#[inline(always)]
fn decode_head(c: &mut Cursor<'_>, order: usize) -> Result<Head, CodecError> {
    let node = match c.u8()? {
        TAG_STUB => return Ok(Head::Whole(Child::Stub(c.digest()?))),
        TAG_LEAF => {
            let n = c.u32()? as usize;
            if n > order {
                return Err(CodecError::Malformed("leaf overfull"));
            }
            let mut entries = Vec::with_capacity(n.min(c.left()));
            for _ in 0..n {
                let k = c.bytes()?.to_vec();
                let v = c.bytes()?.to_vec();
                // Pair digests are recomputed from content, never trusted
                // from the wire (they are not even serialized).
                entries.push(LeafEntry::new(k, v));
            }
            Node::leaf(entries)
        }
        TAG_PROOF_LEAF => {
            let n = c.u32()? as usize;
            if n > order {
                return Err(CodecError::Malformed("leaf overfull"));
            }
            let mut entries = Vec::with_capacity(n.min(c.left()));
            for _ in 0..n {
                entries.push(match c.u8()? {
                    KIND_HASH => ProofEntry::Hash(c.digest()?),
                    KIND_KV => {
                        let k = c.bytes()?.to_vec();
                        ProofEntry::Kv(LeafEntry::new(k, c.bytes()?.to_vec()))
                    }
                    _ => return Err(CodecError::Malformed("unknown proof entry kind")),
                });
            }
            // One encoding per leaf: a leaf that hides nothing is TAG_LEAF.
            if !entries.iter().any(|e| matches!(e, ProofEntry::Hash(_))) {
                return Err(CodecError::Malformed("proof leaf hides no entry"));
            }
            let mut leaf = Node::ProofLeaf {
                entries,
                digest: Digest::ZERO,
            };
            leaf.recompute_digest();
            leaf
        }
        TAG_INTERNAL => {
            let nk = c.u32()? as usize;
            if nk + 1 > order || nk == 0 {
                return Err(CodecError::Malformed("bad separator count"));
            }
            let mut keys = Vec::with_capacity(nk.min(c.left()));
            for _ in 0..nk {
                keys.push(c.bytes()?.to_vec());
            }
            return Ok(Head::Internal(keys));
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(Head::Whole(Child::new(node)))
}

fn decode_node(c: &mut Cursor<'_>, order: usize, depth: usize) -> Result<Child, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Malformed("tree too deep"));
    }
    match decode_head(c, order)? {
        Head::Whole(child) => Ok(child),
        Head::Internal(keys) => {
            let mut children = Vec::with_capacity(keys.len() + 1);
            for _ in 0..=keys.len() {
                children.push(decode_node(c, order, depth + 1)?);
            }
            Ok(Child::new(Node::internal(keys.into(), children)))
        }
    }
}

/// What a tree's encoding records ahead of its root node.
#[derive(Clone, Copy)]
struct Header {
    order: usize,
    len: u64,
    root: Digest,
}

fn decode_header(c: &mut Cursor<'_>) -> Result<Header, CodecError> {
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
    Ok(Header {
        order,
        len: c.u64()?,
        root: c.digest()?,
    })
}

/// The tree whose decoded root is `root`, once it matches what `header`
/// records.
fn finish_tree(header: Header, root: Child) -> Result<MerkleTree, CodecError> {
    if root.digest() != header.root {
        return Err(CodecError::DigestMismatch);
    }
    // Pruned trees (a stub or a hash-only entry anywhere) never report a
    // length, and their header must not claim one: a proof carries no
    // authenticated count. For full trees the header count must match the
    // decoded content.
    let len = if root.contains_stub() {
        if header.len != LEN_UNKNOWN {
            return Err(CodecError::Malformed("pruned tree claims an entry count"));
        }
        None
    } else {
        let counted = root.entry_count();
        if header.len != LEN_UNKNOWN && header.len != counted as u64 {
            return Err(CodecError::Malformed("entry count mismatch"));
        }
        Some(counted)
    };
    Ok(MerkleTree::from_parts(root, header.order, len))
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
        self.write_to(&mut out);
        out
    }

    /// Appends the [`MerkleTree::to_bytes`] encoding to `out`, so an
    /// enclosing encoding can embed the tree without an intermediate copy.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }

    /// `prefix` then the [`MerkleTree::to_bytes`] bytes, handed out a piece
    /// at a time ([`EncodeStream::fill`]) from this tree's nodes, shared
    /// copy-on-write: later updates to the tree leave the stream alone.
    pub fn encode_stream(&self, prefix: Vec<u8>) -> EncodeStream {
        let mut buf = prefix;
        let remaining = buf.len() + self.encoded_size();
        buf.put(MAGIC);
        buf.put(&[VERSION]);
        buf.put(&(self.order() as u32).to_le_bytes());
        buf.put(&self.len().map_or(LEN_UNKNOWN, |l| l as u64).to_le_bytes());
        buf.put(self.root_digest().as_bytes());
        let todo = vec![self.root().clone()];
        EncodeStream {
            buf,
            at: 0,
            todo,
            remaining,
        }
    }

    /// Decodes a tree serialized by [`MerkleTree::to_bytes`], recomputing
    /// every materialized digest and verifying the recorded root digest.
    pub fn from_bytes(bytes: &[u8]) -> Result<MerkleTree, CodecError> {
        let mut c = Cursor::new(bytes);
        let header = decode_header(&mut c)?;
        let root = decode_node(&mut c, header.order, 0)?;
        if !c.at_end() {
            return Err(CodecError::TrailingBytes);
        }
        finish_tree(header, root)
    }

    /// A decoder of a [`MerkleTree::to_bytes`] encoding fed in pieces
    /// split anywhere ([`DecodeStream::feed`]).
    pub fn decode_stream() -> DecodeStream {
        DecodeStream::default()
    }
}

/// A tree's encoding ([`MerkleTree::encode_stream`]), encoded leaf by leaf
/// as the pieces handed out need it: it holds one leaf's bytes at most.
pub struct EncodeStream {
    /// Encoded bytes, handed out up to `at`.
    buf: Vec<u8>,
    at: usize,
    /// Subtrees still to encode, the next one last.
    todo: Vec<Child>,
    remaining: usize,
}

impl EncodeStream {
    /// Bytes not handed out yet.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Appends the next `n` bytes of the encoding to `out` (fewer only at
    /// its end).
    pub fn fill(&mut self, out: &mut Vec<u8>, n: usize) {
        let mut n = n.min(self.remaining);
        self.remaining -= n;
        while n > 0 && (self.at < self.buf.len() || self.next()) {
            let k = n.min(self.buf.len() - self.at);
            out.extend_from_slice(&self.buf[self.at..self.at + k]);
            self.at += k;
            n -= k;
        }
    }

    /// Encodes the next node into the buffer: an internal node's own fields
    /// (its children follow), or a whole leaf. False at the tree's end.
    fn next(&mut self) -> bool {
        let Some(child) = self.todo.pop() else {
            return false;
        };
        self.buf.clear();
        self.at = 0;
        match child.node() {
            Ok(Node::Internal { keys, children, .. }) => {
                self.buf.put(&[TAG_INTERNAL]);
                self.buf.put(&(keys.len() as u32).to_le_bytes());
                for k in keys.iter() {
                    put_bytes(&mut self.buf, k);
                }
                self.todo.extend(children.iter().rev().cloned());
            }
            _ => encode_node(&child, &mut self.buf),
        }
        true
    }
}

/// A tree's encoding decoded from pieces split anywhere
/// ([`MerkleTree::decode_stream`]). Each node goes to the one node decoder
/// as soon as its own encoding is in — an internal node's fields, or a
/// whole leaf — so the stream buffers only the node a piece boundary cuts.
/// The tree is built on a stack of the internal nodes still open, and its
/// root checked against the recorded one at the end.
#[derive(Default)]
pub struct DecodeStream {
    /// The start of the header or node a piece boundary cut.
    buf: Vec<u8>,
    /// Bytes `buf` must hold before it is worth decoding again.
    want: usize,
    header: Option<Header>,
    /// Internal nodes whose children are still coming, the root's first:
    /// each one's separators and the children decoded so far.
    open: Vec<(Vec<Key>, Vec<Child>)>,
    root: Option<Child>,
}

impl DecodeStream {
    /// Decodes the next `bytes` of the encoding.
    pub fn feed(&mut self, mut bytes: &[u8]) -> Result<(), CodecError> {
        while !bytes.is_empty() {
            let held = self.buf.len();
            if held == 0 {
                let mut c = Cursor::new(bytes);
                match self.step(&mut c) {
                    Ok(()) => bytes = &bytes[c.pos..],
                    Err(CodecError::Truncated) => {
                        self.buf.extend_from_slice(bytes);
                        self.want = 2 * bytes.len();
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }
            // A cut node: decoded again only once its buffered start has
            // doubled, or the piece ends, so a node split into many pieces
            // costs twice its decode at most.
            let k = (self.want - held).min(bytes.len());
            self.buf.extend_from_slice(&bytes[..k]);
            if self.buf.len() < self.want {
                return Ok(());
            }
            let buf = std::mem::take(&mut self.buf);
            let mut c = Cursor::new(&buf);
            let step = self.step(&mut c);
            let used = c.pos;
            self.buf = buf;
            match step {
                // The node ended in this piece: the rest of it is decoded
                // in place.
                Ok(()) if used >= held => {
                    bytes = &bytes[used - held..];
                    self.buf.clear();
                }
                // It ended in what was held: the next node starts there.
                Ok(()) => {
                    self.buf.drain(..used);
                    self.want = self.buf.len();
                    bytes = &bytes[k..];
                }
                Err(CodecError::Truncated) => {
                    bytes = &bytes[k..];
                    self.want = 2 * self.buf.len();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Decodes the header, or the next node and closes every internal node
    /// it completes.
    fn step(&mut self, c: &mut Cursor<'_>) -> Result<(), CodecError> {
        let Some(header) = self.header else {
            self.header = Some(decode_header(c)?);
            return Ok(());
        };
        if self.root.is_some() {
            return Err(CodecError::TrailingBytes);
        }
        if self.open.len() > MAX_DEPTH {
            return Err(CodecError::Malformed("tree too deep"));
        }
        let mut child = match decode_head(c, header.order)? {
            Head::Whole(child) => child,
            Head::Internal(keys) => {
                let children = Vec::with_capacity(keys.len() + 1);
                self.open.push((keys, children));
                return Ok(());
            }
        };
        while let Some((keys, mut children)) = self.open.pop() {
            children.push(child);
            if children.len() <= keys.len() {
                self.open.push((keys, children));
                return Ok(());
            }
            child = Child::new(Node::internal(keys.into(), children));
        }
        self.root = Some(child);
        Ok(())
    }

    /// The tree, once the whole encoding is in and its root is the one
    /// recorded: [`MerkleTree::from_bytes`] of the bytes fed.
    pub fn finish(mut self) -> Result<MerkleTree, CodecError> {
        // Whatever is held is all there is of the nodes it starts.
        let held = std::mem::take(&mut self.buf);
        self.feed(&held)?;
        match (self.header, self.root) {
            (Some(header), Some(root)) if self.buf.is_empty() => finish_tree(header, root),
            _ => Err(CodecError::Truncated),
        }
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

    /// The stream's pieces, whatever their sizes, concatenate to the
    /// prefix and `to_bytes`, and updates after it starts leave it alone.
    #[test]
    fn a_stream_hands_out_exactly_the_encoding() {
        for (n, order, piece) in [(0u64, 4, 1), (300, 4, 7), (300, 16, 4096), (50, 8, 1 << 20)] {
            let mut t = tree(n, order);
            let want = [&b"prefix"[..], &t.to_bytes()].concat();
            let mut stream = t.encode_stream(b"prefix".to_vec());
            t.insert(u64_key(1), b"after the start".to_vec()).unwrap();
            let mut got = Vec::new();
            while stream.remaining() > 0 {
                let before = got.len();
                stream.fill(&mut got, piece);
                assert_eq!(got.len() - before, piece.min(want.len() - before));
            }
            stream.fill(&mut got, piece);
            assert_eq!(got, want, "n={n} order={order} piece={piece}");
        }
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

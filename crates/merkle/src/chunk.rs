//! Chunked verified state sync: slicing a Merkle B+-tree into fixed-budget,
//! independently verifiable chunks and reassembling a byte-identical tree
//! from them.
//!
//! A late joiner (or a restarted shard) knows only the published root digest
//! — the *anchor*. The server slices its full tree into chunks of whole
//! leaves grouped under a byte budget; each chunk is shipped as a **pruned
//! proof** ([`MerkleTree::prune_for_range`] + [`MerkleTree::to_bytes`]) that
//! materializes exactly that key range plus the digest-stub spine connecting
//! it to the root. The receiver verifies every chunk *in isolation* against
//! the anchor before admitting it:
//!
//! 1. decode ([`MerkleTree::from_bytes`] recomputes every digest — cached
//!    digests from the wire are never trusted);
//! 2. the recomputed root must equal the anchor (rejects forged values and
//!    chunks spliced in from a different snapshot);
//! 3. the materialized leaf entries must be exactly the manifest range for
//!    that chunk index, every one of them whole (rejects chunks delivered
//!    under the wrong index, and proofs that hide a value behind its pair
//!    digest — a restored server must hold every value it will serve).
//!
//! Admitted chunks are grafted together — every overlap digest-checked —
//! into a single tree; [`ChunkAssembler::finish`] demands no stub remains
//! and that a full bottom-up digest recomputation reproduces the anchor. A
//! forged, truncated, reordered, or cross-snapshot chunk is therefore
//! detected at the exact offending chunk, and a completed assembly is
//! byte-identical (structure and entries) to the server's snapshot.
//!
//! The design follows grovedb-merk's chunk-proof replication: restoring
//! state is just verifying a sequence of range proofs against one trusted
//! root.

use std::sync::Arc;

use tcvs_crypto::Digest;

use crate::codec::{encode_node, ByteCount, CodecError, Cursor};
use crate::node::{Child, Key, Node};
use crate::tree::{MerkleTree, MIN_ORDER};

/// Wire magic for serialized chunk manifests ("Trusted CVS Bootstrap").
const MANIFEST_MAGIC: &[u8; 4] = b"TCVB";
/// Manifest wire-format version.
const MANIFEST_VERSION: u8 = 1;

/// Errors from slicing, verifying, or assembling chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The chunk payload failed to decode as a serialized tree (truncated,
    /// bit-flipped, malformed, or carrying an unsatisfiable digest).
    Codec(CodecError),
    /// The manifest is internally inconsistent.
    BadManifest(&'static str),
    /// A chunk index outside the manifest's range table.
    UnknownChunk(u32),
    /// The chunk payload's tree order differs from the manifest's.
    OrderMismatch {
        /// Order the manifest declares.
        expected: usize,
        /// Order the payload decoded with.
        got: usize,
    },
    /// The chunk's recomputed root digest does not equal the anchor: a
    /// forged value, or a chunk spliced in from a different snapshot.
    AnchorMismatch {
        /// The offending chunk index.
        index: u32,
    },
    /// The chunk's materialized entries are not exactly the manifest range
    /// for this index (e.g. a valid chunk delivered under the wrong index).
    RangeMismatch {
        /// The offending chunk index.
        index: u32,
        /// What about the range was wrong.
        reason: &'static str,
    },
    /// Two admitted chunks disagree about an overlapping node. Unreachable
    /// for chunks that individually anchor to the same root, kept as a
    /// defense-in-depth check.
    GraftConflict(&'static str),
    /// [`ChunkAssembler::finish`] called before every chunk was admitted.
    Incomplete {
        /// How many chunks are still missing.
        missing: usize,
    },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Codec(e) => write!(f, "chunk payload: {e}"),
            ChunkError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            ChunkError::UnknownChunk(i) => write!(f, "unknown chunk index {i}"),
            ChunkError::OrderMismatch { expected, got } => {
                write!(f, "order mismatch: manifest {expected}, payload {got}")
            }
            ChunkError::AnchorMismatch { index } => {
                write!(f, "chunk {index} does not anchor to the expected root")
            }
            ChunkError::RangeMismatch { index, reason } => {
                write!(f, "chunk {index} range mismatch: {reason}")
            }
            ChunkError::GraftConflict(m) => write!(f, "graft conflict: {m}"),
            ChunkError::Incomplete { missing } => {
                write!(f, "assembly incomplete: {missing} chunk(s) missing")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

impl From<CodecError> for ChunkError {
    fn from(e: CodecError) -> ChunkError {
        ChunkError::Codec(e)
    }
}

/// The closed key interval one chunk covers, and how many entries it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRange {
    /// First key in the chunk (inclusive).
    pub lo: Key,
    /// Last key in the chunk (inclusive).
    pub hi: Key,
    /// Number of entries the chunk materializes.
    pub entries: u32,
}

/// The table of contents for one chunked snapshot: the anchor root, the tree
/// order, the total entry count, and the per-chunk key ranges.
///
/// The manifest itself is *untrusted* input — a bootstrapping client checks
/// `anchor` against the independently published root and relies on the
/// per-chunk verification plus [`ChunkAssembler::finish`]'s final recompute
/// gate, never on the manifest's honesty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// Root digest every chunk must anchor to.
    pub anchor: Digest,
    /// B+-tree order of the snapshot.
    pub order: u32,
    /// Total number of entries across all chunks.
    pub entry_count: u64,
    /// Per-chunk closed key ranges, sorted and disjoint.
    pub ranges: Vec<ChunkRange>,
}

impl ChunkManifest {
    /// Number of chunks this manifest describes.
    pub fn num_chunks(&self) -> u32 {
        self.ranges.len() as u32
    }

    /// Structural self-consistency: order bounds, sorted disjoint non-empty
    /// ranges, entry counts summing to `entry_count`, and the empty-tree
    /// special case (`entry_count == 0` iff there are no chunks).
    pub fn validate(&self) -> Result<(), ChunkError> {
        if (self.order as usize) < MIN_ORDER {
            return Err(ChunkError::BadManifest("order below minimum"));
        }
        if self.ranges.is_empty() != (self.entry_count == 0) {
            return Err(ChunkError::BadManifest(
                "entry count and chunk list disagree about emptiness",
            ));
        }
        let mut total: u64 = 0;
        for (i, r) in self.ranges.iter().enumerate() {
            if r.entries == 0 {
                return Err(ChunkError::BadManifest("empty chunk range"));
            }
            if r.lo > r.hi {
                return Err(ChunkError::BadManifest("range lo > hi"));
            }
            if i > 0 && self.ranges[i - 1].hi >= r.lo {
                return Err(ChunkError::BadManifest("ranges unsorted or overlapping"));
            }
            total = total
                .checked_add(u64::from(r.entries))
                .ok_or(ChunkError::BadManifest("entry count overflow"))?;
        }
        if total != self.entry_count {
            return Err(ChunkError::BadManifest("entry counts do not sum"));
        }
        Ok(())
    }

    /// Serializes the manifest (`TCVB` magic, version, order, entry count,
    /// anchor, then length-prefixed ranges).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(49 + self.ranges.len() * 24);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&self.order.to_le_bytes());
        out.extend_from_slice(&self.entry_count.to_le_bytes());
        out.extend_from_slice(self.anchor.as_bytes());
        out.extend_from_slice(&(self.ranges.len() as u32).to_le_bytes());
        for r in &self.ranges {
            out.extend_from_slice(&(r.lo.len() as u32).to_le_bytes());
            out.extend_from_slice(&r.lo);
            out.extend_from_slice(&(r.hi.len() as u32).to_le_bytes());
            out.extend_from_slice(&r.hi);
            out.extend_from_slice(&r.entries.to_le_bytes());
        }
        out
    }

    /// Decodes and validates a serialized manifest. Any truncation, bad
    /// framing, or structural inconsistency is rejected without panicking.
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkManifest, ChunkError> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != MANIFEST_MAGIC {
            return Err(ChunkError::BadManifest("bad magic"));
        }
        if c.u8()? != MANIFEST_VERSION {
            return Err(ChunkError::BadManifest("unsupported version"));
        }
        let order = c.u32()?;
        let entry_count = c.u64()?;
        let anchor = c.digest()?;
        let n = c.u32()? as usize;
        let mut ranges = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let lo = c.bytes()?.to_vec();
            let hi = c.bytes()?.to_vec();
            let entries = c.u32()?;
            ranges.push(ChunkRange { lo, hi, entries });
        }
        if !c.at_end() {
            return Err(ChunkError::Codec(CodecError::TrailingBytes));
        }
        let m = ChunkManifest {
            anchor,
            order,
            entry_count,
            ranges,
        };
        m.validate()?;
        Ok(m)
    }
}

/// Server side: slices a full tree into chunks of whole leaves grouped under
/// a byte budget, and serves each chunk as a root-anchored pruned proof.
///
/// Holds a copy-on-write clone of the snapshot (an `Arc` root pointer), so
/// a source stays consistent even while the live tree moves on.
pub struct ChunkSource {
    tree: MerkleTree,
    manifest: ChunkManifest,
}

impl ChunkSource {
    /// Slices `tree` into chunks whose *payload* encodings target
    /// `budget_bytes`. Whole leaves are never split: a chunk holds at least
    /// one leaf, so a single oversized leaf yields an oversized chunk rather
    /// than an error. Fails on a pruned tree (only full snapshots can be
    /// served).
    pub fn new(tree: &MerkleTree, budget_bytes: usize) -> Result<ChunkSource, ChunkError> {
        if tree.is_pruned() {
            return Err(ChunkError::BadManifest("source tree is pruned"));
        }
        let mut leaves = Vec::new();
        collect_leaf_spans(tree.root(), &mut leaves);
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < leaves.len() {
            let mut j = i;
            let mut bytes = leaves[i].bytes;
            let mut entries = u64::from(leaves[i].entries);
            while j + 1 < leaves.len() && bytes + leaves[j + 1].bytes <= budget_bytes {
                j += 1;
                bytes += leaves[j].bytes;
                entries += u64::from(leaves[j].entries);
            }
            ranges.push(ChunkRange {
                lo: leaves[i].lo.clone(),
                hi: leaves[j].hi.clone(),
                entries: u32::try_from(entries)
                    .map_err(|_| ChunkError::BadManifest("chunk entry count overflow"))?,
            });
            i = j + 1;
        }
        let manifest = ChunkManifest {
            anchor: tree.root_digest(),
            order: tree.order() as u32,
            entry_count: tree.root().entry_count() as u64,
            ranges,
        };
        manifest.validate()?;
        Ok(ChunkSource {
            tree: tree.clone(),
            manifest,
        })
    }

    /// The manifest describing this source's chunks.
    pub fn manifest(&self) -> &ChunkManifest {
        &self.manifest
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> u32 {
        self.manifest.num_chunks()
    }

    /// Encodes chunk `index`: a pruned proof materializing exactly that
    /// chunk's key range, anchored to the snapshot root. `None` for an
    /// out-of-range index.
    pub fn chunk(&self, index: u32) -> Option<Vec<u8>> {
        let r = self.manifest.ranges.get(index as usize)?;
        Some(
            self.tree
                .prune_for_range(Some(&r.lo), Some(&r.hi))
                .to_bytes(),
        )
    }
}

/// One leaf's span during slicing: its key interval, entry count, and
/// encoded size.
struct LeafSpan {
    lo: Key,
    hi: Key,
    entries: u32,
    bytes: usize,
}

fn collect_leaf_spans(child: &Child, out: &mut Vec<LeafSpan>) {
    match child.node() {
        Err(_) | Ok(Node::ProofLeaf { .. }) => {}
        Ok(Node::Leaf { entries, .. }) => {
            if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
                let mut bytes = ByteCount::default();
                encode_node(child, &mut bytes);
                out.push(LeafSpan {
                    lo: first.key.clone(),
                    hi: last.key.clone(),
                    entries: entries.len() as u32,
                    bytes: bytes.0,
                });
            }
        }
        Ok(Node::Internal { children, .. }) => {
            for c in children {
                collect_leaf_spans(c, out);
            }
        }
    }
}

/// Whether [`ChunkAssembler::admit`] actually consumed the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// First delivery: the chunk verified and was grafted in.
    Admitted,
    /// The chunk verified but this index was already admitted; nothing
    /// changed. (A *forged* duplicate still errors — verification runs
    /// before deduplication.)
    Duplicate,
}

/// Client side: verifies chunks against the anchor and assembles the full
/// tree. Out-of-order and duplicate delivery are tolerated; any forged,
/// truncated, reordered, or cross-snapshot chunk is rejected at
/// [`ChunkAssembler::admit`] time with the offending index.
pub struct ChunkAssembler {
    manifest: ChunkManifest,
    admitted: Vec<bool>,
    root: Child,
}

impl ChunkAssembler {
    /// Starts an assembly for `manifest` (validated first). The in-progress
    /// tree begins as a single stub carrying the anchor.
    pub fn new(manifest: ChunkManifest) -> Result<ChunkAssembler, ChunkError> {
        manifest.validate()?;
        let admitted = vec![false; manifest.ranges.len()];
        let root = Child::Stub(manifest.anchor);
        Ok(ChunkAssembler {
            manifest,
            admitted,
            root,
        })
    }

    /// The manifest this assembly is working from.
    pub fn manifest(&self) -> &ChunkManifest {
        &self.manifest
    }

    /// Chunk indices not yet admitted, ascending.
    pub fn missing(&self) -> Vec<u32> {
        self.admitted
            .iter()
            .enumerate()
            .filter(|(_, a)| !**a)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// True once every chunk has been admitted.
    pub fn is_complete(&self) -> bool {
        self.admitted.iter().all(|a| *a)
    }

    /// Verifies chunk `index` and grafts it into the assembly. Verification
    /// always runs in full — decode with digest recomputation, order check,
    /// anchor check, strict range check — before the duplicate shortcut, so
    /// a forged payload for an already-admitted index still errors.
    pub fn admit(&mut self, index: u32, bytes: &[u8]) -> Result<AdmitOutcome, ChunkError> {
        let range = self
            .manifest
            .ranges
            .get(index as usize)
            .ok_or(ChunkError::UnknownChunk(index))?;
        let chunk = MerkleTree::from_bytes(bytes)?;
        if chunk.order() != self.manifest.order as usize {
            return Err(ChunkError::OrderMismatch {
                expected: self.manifest.order as usize,
                got: chunk.order(),
            });
        }
        // `from_bytes` recomputed every materialized digest bottom-up, so
        // this equality means the materialized content genuinely hangs off
        // the anchor — a value forgery or a chunk from another snapshot
        // lands here.
        if chunk.root_digest() != self.manifest.anchor {
            return Err(ChunkError::AnchorMismatch { index });
        }
        // Strict range check: the materialized entries must be exactly this
        // chunk's manifest range. Anchoring already proves the entries are
        // *true* data; this pins them to the *right chunk index*, so a valid
        // chunk replayed under another index is rejected.
        let mut keys = Vec::with_capacity(range.entries as usize);
        if !materialized_keys(chunk.root(), &mut keys) {
            return Err(ChunkError::RangeMismatch {
                index,
                reason: "chunk hides an entry behind its pair digest",
            });
        }
        if keys.len() != range.entries as usize {
            return Err(ChunkError::RangeMismatch {
                index,
                reason: "entry count differs from manifest",
            });
        }
        match (keys.first(), keys.last()) {
            (Some(first), Some(last)) => {
                if *first != range.lo.as_slice() {
                    return Err(ChunkError::RangeMismatch {
                        index,
                        reason: "first key differs from manifest lo",
                    });
                }
                if *last != range.hi.as_slice() {
                    return Err(ChunkError::RangeMismatch {
                        index,
                        reason: "last key differs from manifest hi",
                    });
                }
            }
            _ => {
                return Err(ChunkError::RangeMismatch {
                    index,
                    reason: "chunk materializes no entries",
                })
            }
        }
        if self.admitted[index as usize] {
            return Ok(AdmitOutcome::Duplicate);
        }
        self.root = graft(&self.root, chunk.root())?;
        self.admitted[index as usize] = true;
        Ok(AdmitOutcome::Admitted)
    }

    /// Finishes the assembly: every chunk admitted, no stub left, entry
    /// count as promised, and — the final gate — a full bottom-up digest
    /// recomputation of the assembled tree (read-only: nothing is copied)
    /// must find every cached digest honest and reproduce the anchor.
    /// Returns the complete tree, byte-identical to the source snapshot.
    pub fn finish(self) -> Result<MerkleTree, ChunkError> {
        let missing = self.admitted.iter().filter(|a| !**a).count();
        if missing > 0 {
            return Err(ChunkError::Incomplete { missing });
        }
        let order = self.manifest.order as usize;
        if self.manifest.entry_count == 0 {
            let tree = MerkleTree::with_order(order);
            if tree.root_digest() != self.manifest.anchor {
                return Err(ChunkError::BadManifest("anchor is not the empty tree"));
            }
            return Ok(tree);
        }
        if self.root.contains_stub() {
            return Err(ChunkError::BadManifest(
                "manifest ranges do not cover the tree",
            ));
        }
        let entry_count = self.root.entry_count();
        if entry_count as u64 != self.manifest.entry_count {
            return Err(ChunkError::BadManifest(
                "assembled entry count differs from manifest",
            ));
        }
        if self.root.verified_digest() != Ok(self.manifest.anchor) {
            return Err(ChunkError::GraftConflict(
                "assembled root does not reproduce the anchor",
            ));
        }
        Ok(MerkleTree::from_parts(self.root, order, Some(entry_count)))
    }
}

/// Merges two digest-equal views of the same subtree, preferring
/// materialized content over stubs. Every overlapping node is digest-checked
/// — a disagreement is a [`ChunkError::GraftConflict`].
fn graft(a: &Child, b: &Child) -> Result<Child, ChunkError> {
    if a.digest() != b.digest() {
        return Err(ChunkError::GraftConflict("overlapping digests differ"));
    }
    let (x, y) = match (a, b) {
        (Child::Stub(_), _) => return Ok(b.clone()),
        (_, Child::Stub(_)) => return Ok(a.clone()),
        (Child::Node { node: x, .. }, Child::Node { node: y, .. }) if Arc::ptr_eq(x, y) => {
            return Ok(a.clone())
        }
        (Child::Node { node: x, .. }, Child::Node { node: y, .. }) => (&**x, &**y),
    };
    match (x, y) {
        (Node::Leaf { .. }, Node::Leaf { .. }) => Ok(a.clone()),
        (
            Node::Internal {
                keys: ka,
                children: ca,
                digest,
            },
            Node::Internal {
                keys: kb,
                children: cb,
                ..
            },
        ) => {
            if ka != kb || ca.len() != cb.len() {
                return Err(ChunkError::GraftConflict("internal node shapes differ"));
            }
            let children = ca
                .iter()
                .zip(cb.iter())
                .map(|(x, y)| graft(x, y))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Child::spine(ka, children, *digest))
        }
        _ => Err(ChunkError::GraftConflict("node kinds differ")),
    }
}

/// Collects the keys of all materialized leaf entries, in tree order;
/// `false` if some materialized leaf hides an entry behind its digest.
fn materialized_keys<'a>(child: &'a Child, out: &mut Vec<&'a [u8]>) -> bool {
    match child.node() {
        Err(_) => true,
        Ok(Node::Leaf { entries, .. }) => {
            out.extend(entries.iter().map(|e| e.key.as_slice()));
            true
        }
        Ok(Node::ProofLeaf { .. }) => false,
        Ok(Node::Internal { children, .. }) => children.iter().all(|c| materialized_keys(c, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::u64_key;

    fn tree(n: u64, order: usize) -> MerkleTree {
        let mut t = MerkleTree::with_order(order);
        for i in 0..n {
            t.insert(u64_key(i * 7 % n.max(1)), format!("value-{i}").into_bytes())
                .unwrap();
        }
        t
    }

    fn assemble_all(src: &ChunkSource) -> MerkleTree {
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        for i in 0..src.num_chunks() {
            assert_eq!(
                asm.admit(i, &src.chunk(i).unwrap()).unwrap(),
                AdmitOutcome::Admitted
            );
        }
        asm.finish().unwrap()
    }

    #[test]
    fn round_trip_across_sizes_and_budgets() {
        for n in [0u64, 1, 5, 64, 300] {
            let t = tree(n, 4);
            for budget in [1usize, 200, 4096, usize::MAX] {
                let src = ChunkSource::new(&t, budget).unwrap();
                let got = assemble_all(&src);
                assert_eq!(got.root_digest(), t.root_digest(), "n={n} budget={budget}");
                assert_eq!(got.entries().unwrap(), t.entries().unwrap());
                assert_eq!(got.len(), Some(n as usize));
                got.check_invariants().unwrap();
                // Byte-identical: the assembled tree re-encodes to exactly
                // the source snapshot's encoding.
                assert_eq!(got.to_bytes(), t.to_bytes());
            }
        }
    }

    #[test]
    fn manifest_round_trips_and_budget_scales_chunk_count() {
        let t = tree(200, 4);
        let tiny = ChunkSource::new(&t, 1).unwrap();
        let huge = ChunkSource::new(&t, usize::MAX).unwrap();
        assert_eq!(huge.num_chunks(), 1, "unbounded budget gives one chunk");
        assert!(
            tiny.num_chunks() > huge.num_chunks(),
            "tiny budget gives one chunk per leaf"
        );
        for src in [&tiny, &huge] {
            let m = src.manifest();
            assert_eq!(
                ChunkManifest::from_bytes(&m.to_bytes()).unwrap(),
                *m,
                "manifest wire round trip"
            );
        }
        // A mid-sized budget sits strictly between the two extremes.
        let src = ChunkSource::new(&t, 2048).unwrap();
        assert!(src.num_chunks() > huge.num_chunks());
        assert!(src.num_chunks() < tiny.num_chunks());
    }

    #[test]
    fn out_of_order_and_duplicate_delivery_tolerated() {
        let t = tree(120, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        assert!(src.num_chunks() >= 3, "need several chunks");
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        let mut order: Vec<u32> = (0..src.num_chunks()).collect();
        order.reverse();
        for &i in &order {
            assert_eq!(
                asm.admit(i, &src.chunk(i).unwrap()).unwrap(),
                AdmitOutcome::Admitted
            );
            // Duplicate delivery of an already-admitted chunk is a no-op.
            assert_eq!(
                asm.admit(i, &src.chunk(i).unwrap()).unwrap(),
                AdmitOutcome::Duplicate
            );
        }
        assert!(asm.is_complete());
        assert!(asm.missing().is_empty());
        let got = asm.finish().unwrap();
        assert_eq!(got.root_digest(), t.root_digest());
    }

    #[test]
    fn truncation_at_every_byte_boundary_rejected() {
        let t = tree(40, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let bytes = src.chunk(0).unwrap();
        for cut in 0..bytes.len() {
            let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
            let err = asm.admit(0, &bytes[..cut]);
            assert!(
                err.is_err(),
                "prefix of {cut}/{} bytes accepted",
                bytes.len()
            );
        }
        let m = src.manifest().to_bytes();
        for cut in 0..m.len() {
            assert!(
                ChunkManifest::from_bytes(&m[..cut]).is_err(),
                "manifest prefix of {cut}/{} bytes accepted",
                m.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_change_assembled_content() {
        // Flipping any byte either fails verification or (for bytes the
        // codec ignores, like the unknown-length sentinel of a pruned
        // payload) leaves the admitted content identical — it can never
        // smuggle in different data, because admission re-derives the root
        // from the materialized content.
        let t = tree(60, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let bytes = src.chunk(1).unwrap();
        for pos in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[pos] ^= 0x01;
            let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
            match asm.admit(1, &evil) {
                Err(_) => {}
                Ok(outcome) => {
                    assert_eq!(outcome, AdmitOutcome::Admitted);
                    // The flip survived decoding, so it must have been
                    // content-neutral: completing the assembly still
                    // reproduces the honest tree exactly.
                    for i in 0..src.num_chunks() {
                        if i != 1 {
                            asm.admit(i, &src.chunk(i).unwrap()).unwrap();
                        }
                    }
                    let got = asm.finish().unwrap();
                    assert_eq!(got.to_bytes(), t.to_bytes(), "flip at {pos} changed data");
                }
            }
        }
    }

    #[test]
    fn chunk_under_wrong_index_rejected() {
        let t = tree(120, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        assert!(src.num_chunks() >= 2);
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        // A perfectly valid chunk — delivered under another chunk's index.
        let err = asm.admit(0, &src.chunk(1).unwrap()).unwrap_err();
        assert!(
            matches!(err, ChunkError::RangeMismatch { index: 0, .. }),
            "reordered chunk must fail the index-0 range check, got {err:?}"
        );
    }

    #[test]
    fn cross_snapshot_splice_rejected_at_offending_chunk() {
        let a = tree(120, 4);
        let mut b = a.clone();
        // Same keys, one divergent value: different snapshots, near-identical
        // chunking.
        b.insert(u64_key(11), b"divergent".to_vec()).unwrap();
        let src_a = ChunkSource::new(&a, 512).unwrap();
        let src_b = ChunkSource::new(&b, 512).unwrap();
        assert_ne!(src_a.manifest().anchor, src_b.manifest().anchor);
        let mut asm = ChunkAssembler::new(src_a.manifest().clone()).unwrap();
        let common = src_a.num_chunks().min(src_b.num_chunks());
        assert!(common >= 2);
        for i in 0..common {
            match asm.admit(i, &src_b.chunk(i).unwrap()) {
                Err(ChunkError::AnchorMismatch { index }) => {
                    assert_eq!(index, i, "detection names the offending chunk");
                }
                Err(e) => panic!("chunk {i}: unexpected error {e:?}"),
                Ok(_) => panic!("chunk {i} of snapshot B admitted under anchor A"),
            }
        }
        // Honest delivery after the attack: a bad chunk never poisons the
        // assembly.
        for i in 0..src_a.num_chunks() {
            asm.admit(i, &src_a.chunk(i).unwrap()).unwrap();
        }
        assert_eq!(asm.finish().unwrap().root_digest(), a.root_digest());
    }

    #[test]
    fn forged_value_rejected() {
        let t = tree(80, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        // A lying server serves a chunk from a *modified* tree while
        // advertising the honest manifest.
        let mut forged = t.clone();
        forged.insert(u64_key(3), b"forged".to_vec()).unwrap();
        let lying = ChunkSource::new(&forged, 512).unwrap();
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        let err = asm.admit(0, &lying.chunk(0).unwrap()).unwrap_err();
        assert!(matches!(err, ChunkError::AnchorMismatch { index: 0 }));
    }

    #[test]
    fn forged_duplicate_still_errors() {
        let t = tree(80, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        asm.admit(0, &src.chunk(0).unwrap()).unwrap();
        let mut forged = t.clone();
        forged.insert(u64_key(2), b"evil".to_vec()).unwrap();
        let lying = ChunkSource::new(&forged, 512).unwrap();
        // Verification runs before the duplicate shortcut.
        assert!(asm.admit(0, &lying.chunk(0).unwrap()).is_err());
    }

    #[test]
    fn unknown_index_and_incomplete_finish_rejected() {
        let t = tree(60, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        assert_eq!(
            asm.admit(99, &src.chunk(0).unwrap()).unwrap_err(),
            ChunkError::UnknownChunk(99)
        );
        asm.admit(0, &src.chunk(0).unwrap()).unwrap();
        let missing = src.num_chunks() as usize - 1;
        assert_eq!(
            asm.finish().unwrap_err(),
            ChunkError::Incomplete { missing }
        );
    }

    #[test]
    fn empty_tree_bootstraps_from_zero_chunks() {
        let t = MerkleTree::with_order(8);
        let src = ChunkSource::new(&t, 1024).unwrap();
        assert_eq!(src.num_chunks(), 0);
        let asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
        assert!(asm.is_complete());
        let got = asm.finish().unwrap();
        assert_eq!(got.root_digest(), t.root_digest());
        assert_eq!(got.len(), Some(0));
    }

    #[test]
    fn malformed_manifests_rejected() {
        let t = tree(60, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let good = src.manifest().clone();

        let mut overlap = good.clone();
        overlap.ranges[1].lo = overlap.ranges[0].lo.clone();
        assert!(ChunkAssembler::new(overlap).is_err());

        let mut unsorted = good.clone();
        unsorted.ranges.swap(0, 1);
        assert!(ChunkAssembler::new(unsorted).is_err());

        let mut bad_sum = good.clone();
        bad_sum.entry_count += 1;
        assert!(ChunkAssembler::new(bad_sum).is_err());

        let mut zero_range = good.clone();
        zero_range.ranges[0].entries = 0;
        assert!(ChunkAssembler::new(zero_range).is_err());

        let mut empty_lie = good.clone();
        empty_lie.ranges.clear();
        assert!(
            ChunkAssembler::new(empty_lie).is_err(),
            "nonzero entry count with no chunks"
        );

        let mut tiny_order = good.clone();
        tiny_order.order = 1;
        assert!(ChunkAssembler::new(tiny_order).is_err());

        // A manifest that under-covers the tree: ranges are consistent, but
        // finishing must notice the stubs left behind.
        let mut partial = good.clone();
        let dropped = partial.ranges.pop().unwrap();
        partial.entry_count -= u64::from(dropped.entries);
        let mut asm = ChunkAssembler::new(partial.clone()).unwrap();
        for i in 0..partial.ranges.len() as u32 {
            asm.admit(i, &src.chunk(i).unwrap()).unwrap();
        }
        assert!(asm.finish().is_err(), "under-covering manifest caught");
    }

    #[test]
    fn pruned_source_tree_rejected() {
        let t = tree(60, 4);
        let pruned = t.prune_for_range(Some(&u64_key(0)), Some(&u64_key(5)));
        assert!(ChunkSource::new(&pruned, 512).is_err());
    }

    /// The final gate folds the assembled tree read-only: a cached digest
    /// that disagrees with the content under it (reachable only by forging
    /// the in-memory assembly — decoding computes every digest itself) is
    /// rejected, never healed.
    #[test]
    fn forged_cache_in_the_assembly_fails_the_final_gate() {
        let t = tree(120, 4);
        let src = ChunkSource::new(&t, 512).unwrap();
        let key = u64_key(11);
        let assembled = |forge: &dyn Fn(&mut Child)| {
            let mut asm = ChunkAssembler::new(src.manifest().clone()).unwrap();
            for i in 0..src.num_chunks() {
                asm.admit(i, &src.chunk(i).unwrap()).unwrap();
            }
            forge(&mut asm.root);
            asm.finish()
        };
        assert_eq!(
            assembled(&|_| {}).unwrap().to_bytes(),
            t.to_bytes(),
            "the unforged assembly is the source tree"
        );
        let forged_value = assembled(&|root| root.forge_value(&key, b"evil"));
        let forged_digest = assembled(&|root| root.forge_leaf_digest(&key, Digest::ZERO));
        for outcome in [forged_value, forged_digest] {
            assert!(matches!(outcome, Err(ChunkError::GraftConflict(_))));
        }
    }
}

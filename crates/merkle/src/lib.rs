//! # tcvs-merkle
//!
//! The authenticated dictionary of *"Trusted CVS"* §4.1: a **Merkle
//! B+-tree** — a B+-tree whose every node carries a digest; a leaf digest
//! hashes the leaf's data, an internal digest hashes the children's digests
//! (plus, here, the separator keys). The root digest `M(D)` commits to the
//! entire database state.
//!
//! A server operation is proven with a **verification object** `v(Q, D)`: a
//! pruned copy of the pre-state tree containing every node the operation
//! touches, with all other subtrees replaced by digest stubs — and, when a
//! point operation's key is present, every other entry of its leaf replaced
//! by that entry's pair digest, so the proof carries only the value it
//! proves. The client
//! checks the proof's root digest against its known `M(D)`, then *replays*
//! the operation on the pruned tree to obtain the authenticated answer and —
//! for updates — the new root digest `M(D')`. Proof sizes are `O(log n)`
//! (experiment E1 measures this).
//!
//! ```
//! use tcvs_merkle::{MerkleTree, Op, apply_op, prune_for_op,
//!                   VerificationObject, verify_response};
//!
//! // Server side.
//! let mut server = MerkleTree::new();
//! server.insert(b"Common.h".to_vec(), b"#define X 1".to_vec()).unwrap();
//! let known_root = server.root_digest();
//!
//! let op = Op::Put(b"Common.h".to_vec(), b"#define X 2".to_vec());
//! let vo = VerificationObject::new(prune_for_op(&server, &op));
//! let answer = apply_op(&mut server, &op).unwrap();
//! let new_root = server.root_digest();
//!
//! // Client side: replay and verify.
//! let verified = verify_response(
//!     &known_root, server.order(), &vo, &op, Some(&answer), Some(&new_root),
//! ).unwrap();
//! assert_eq!(verified.new_root, new_root);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod chunk;
mod codec;
mod error;
mod node;
mod op;
mod tree;
mod verify;

pub use batch::{
    batchable, prune_for_ops, replay_batch_unanchored, verify_batch_response, BatchProof,
    BatchVerified,
};
pub use chunk::{AdmitOutcome, ChunkAssembler, ChunkError, ChunkManifest, ChunkRange, ChunkSource};
pub use codec::CodecError;
pub use error::{TreeError, VerifyError};
pub use node::{u64_key, Key, Value};
pub use op::{apply_op, prune_for_op, Op, OpResult};
pub use tree::{MerkleTree, DEFAULT_ORDER, MIN_ORDER};
pub use verify::{replay_unanchored, verify_response, VerificationObject, Verified};

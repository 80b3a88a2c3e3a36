//! Error types for Merkle B+-tree operations and proof verification.

use std::fmt;

/// Errors raised while operating on a (possibly pruned) Merkle B+-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// The operation needed the contents of a pruned-away (stub) subtree.
    ///
    /// On a server-side full tree this is impossible; on a client-side
    /// verification object it means the server sent an incomplete proof —
    /// which the protocols treat as deviation.
    IncompleteProof,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::IncompleteProof => {
                write!(
                    f,
                    "operation reached a pruned (stub) subtree: proof incomplete"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors raised by client-side verification of a server response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The verification object's root digest does not match the root digest
    /// the client knows — the server's proof is against the wrong state.
    RootMismatch,
    /// The proof did not contain the subtrees needed to replay the operation.
    IncompleteProof,
    /// The server's claimed answer disagrees with the replayed answer.
    AnswerMismatch,
    /// The server's claimed new root digest disagrees with the replayed one.
    NewRootMismatch,
    /// The verification object uses a different branching order than agreed.
    OrderMismatch,
    /// A batched response's claimed result list does not match the window
    /// length — an op was dropped from (or spliced into) the window.
    BatchLengthMismatch,
    /// A digest cached inside an in-memory proof (a node's, or a leaf
    /// entry's pair digest) disagrees with the digest recomputed from the
    /// proof's own content — the server tried to decouple the two.
    CachedDigestMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerifyError::RootMismatch => "verification object root digest mismatch",
            VerifyError::IncompleteProof => "verification object incomplete",
            VerifyError::AnswerMismatch => "server answer disagrees with replay",
            VerifyError::NewRootMismatch => "server new-root disagrees with replay",
            VerifyError::OrderMismatch => "verification object branching order mismatch",
            VerifyError::BatchLengthMismatch => "batched result count disagrees with window",
            VerifyError::CachedDigestMismatch => "proof caches a digest its content does not have",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VerifyError {}

impl From<TreeError> for VerifyError {
    fn from(e: TreeError) -> VerifyError {
        match e {
            TreeError::IncompleteProof => VerifyError::IncompleteProof,
        }
    }
}

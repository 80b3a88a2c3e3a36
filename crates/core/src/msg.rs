//! Protocol messages exchanged between users and the (untrusted) server.
//!
//! Table 1 of the paper defines the response vocabulary:
//! `(Q(D), v(Q, D), ctr, j, sig)` — answer, verification object, operation
//! counter, last operating user, and (Protocol I only) the last user's
//! signature over `h(M(D) ‖ ctr)`. [`ServerResponse`] is that tuple with
//! Protocol III's epoch fields added; unused fields are `None`/ignored by
//! the other protocols.

use tcvs_crypto::{Digest, MssSignature, UserId};
use tcvs_merkle::{BatchProof, OpResult, VerificationObject};

use crate::types::{Ctr, Epoch};
use crate::wire::{self, encoded_len};

/// A root digest + counter signed by a user: `sigⱼ(h(M(D) ‖ ctr))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedState {
    /// The signer.
    pub signer: UserId,
    /// The root digest being attested.
    pub root: Digest,
    /// The counter value being attested.
    pub ctr: Ctr,
    /// MSS signature over [`crate::state::signed_payload`]`(root, ctr)`.
    pub sig: MssSignature,
}

impl SignedState {
    /// Encoded size in bytes: [`wire::put_signed_state`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_signed_state(c, self))
    }
}

/// The server's response `Φ` to an operation.
#[derive(Clone, Debug)]
pub struct ServerResponse {
    /// The answer `Q(D)`.
    pub result: OpResult,
    /// The verification object `v(Q, D)`.
    pub vo: VerificationObject,
    /// The operation counter *before* this operation.
    pub ctr: Ctr,
    /// The user `j` who performed the previous operation (`NO_USER` if this
    /// is the first operation ever).
    pub last_user: UserId,
    /// Protocol I: the stored signature `sigⱼ(h(M(D) ‖ ctr))`.
    pub sig: Option<SignedState>,
    /// Protocol III: the server's current epoch.
    pub epoch: Epoch,
    /// Protocol III: true iff this is the first response this user receives
    /// in `epoch`.
    pub new_epoch: bool,
}

impl ServerResponse {
    /// Encoded size in bytes: [`wire::put_response`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_response(c, self))
    }
}

/// The server's response to a *window* of batchable point operations by one
/// user: the per-op answers plus a single [`BatchProof`] whose pruned tree
/// covers the union of the window's key paths, so the spine of the tree is
/// shipped (and re-hashed) once instead of once per op.
///
/// `ctr`/`last_user`/`sig` describe the state *before the first op* of the
/// window, exactly as [`ServerResponse::ctr`] describes the state before a
/// single op. The window occupies counters `ctr .. ctr + results.len()`.
#[derive(Clone, Debug)]
pub struct BatchResponse {
    /// The answers, one per op in window order.
    pub results: Vec<OpResult>,
    /// One verification object for the whole window.
    pub proof: BatchProof,
    /// The operation counter before the first op of the window.
    pub ctr: Ctr,
    /// The user who performed the operation immediately preceding the
    /// window (`NO_USER` if none).
    pub last_user: UserId,
    /// Protocol I: the stored signature over the pre-window state.
    pub sig: Option<SignedState>,
    /// Protocol III: the server's current epoch.
    pub epoch: Epoch,
    /// Protocol III: true iff this is the first response this user receives
    /// in `epoch`.
    pub new_epoch: bool,
}

impl BatchResponse {
    /// Number of operations the window covers.
    pub fn window_len(&self) -> usize {
        self.results.len()
    }

    /// Encoded size in bytes: [`wire::put_batch_response`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_batch_response(c, self))
    }
}

/// A user's signed per-epoch accumulator state (Protocol III): the backup of
/// `(σᵢ, lastᵢ)` for a finished epoch, deposited on the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedEpochState {
    /// Whose state this is.
    pub user: UserId,
    /// The finished epoch this state describes.
    pub epoch: Epoch,
    /// XOR accumulator over the epoch's state tokens.
    pub sigma: Digest,
    /// Last state token this user created during the epoch (`None` if the
    /// user performed no operations in it).
    pub last: Option<Digest>,
    /// Number of operations the user performed in the epoch.
    pub ops: u64,
    /// Signature over the canonical digest of the fields above.
    pub sig: MssSignature,
}

impl SignedEpochState {
    /// The digest the signature covers.
    pub fn payload(
        user: UserId,
        epoch: Epoch,
        sigma: &Digest,
        last: Option<&Digest>,
        ops: u64,
    ) -> Digest {
        let last_bytes = last.map_or([0u8; 32], |d| d.0);
        let present = [u8::from(last.is_some())];
        tcvs_crypto::hash_parts(&[
            b"tcvs-epoch-state",
            &user.to_be_bytes(),
            &epoch.to_be_bytes(),
            sigma.as_bytes(),
            &present,
            &last_bytes,
            &ops.to_be_bytes(),
        ])
    }

    /// Encoded size in bytes: [`wire::put_epoch_state`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_epoch_state(c, self))
    }
}

/// The audited final state of an epoch, signed by that epoch's checker and
/// stored on the server so the next epoch's checker can chain from it
/// (Protocol III).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedCheckpoint {
    /// The epoch whose final state this records.
    pub epoch: Epoch,
    /// The checker who performed the audit.
    pub checker: UserId,
    /// The epoch's final state token (= the next epoch's initial token).
    pub final_token: Digest,
    /// Signature over the canonical digest of the fields above.
    pub sig: MssSignature,
}

impl SignedCheckpoint {
    /// The digest the signature covers.
    pub fn payload(epoch: Epoch, checker: UserId, final_token: &Digest) -> Digest {
        tcvs_crypto::hash_parts(&[
            b"tcvs-checkpoint",
            &epoch.to_be_bytes(),
            &checker.to_be_bytes(),
            final_token.as_bytes(),
        ])
    }

    /// Encoded size in bytes: [`wire::put_audit_checkpoint`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_audit_checkpoint(c, self))
    }
}

/// One user's contribution to a broadcast sync-up (Protocols I and II).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncShare {
    /// Whose share this is.
    pub user: UserId,
    /// Local operation count `lctrᵢ`.
    pub lctr: u64,
    /// Protocol I: last seen global counter + 1 (`gctrᵢ`).
    pub gctr: Ctr,
    /// Protocol II: XOR accumulator `σᵢ`.
    pub sigma: Digest,
    /// Protocol II: last state token created by this user, if any.
    pub last: Option<Digest>,
}

impl SyncShare {
    /// Encoded size in bytes: [`wire::put_sync_share`] counted.
    pub fn encoded_size(&self) -> usize {
        encoded_len(|c| wire::put_sync_share(c, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::sha256;

    #[test]
    fn epoch_state_payload_binds_fields() {
        let s = sha256(b"sigma");
        let l = sha256(b"last");
        let base = SignedEpochState::payload(1, 2, &s, Some(&l), 3);
        assert_ne!(base, SignedEpochState::payload(2, 2, &s, Some(&l), 3));
        assert_ne!(base, SignedEpochState::payload(1, 3, &s, Some(&l), 3));
        assert_ne!(base, SignedEpochState::payload(1, 2, &l, Some(&l), 3));
        assert_ne!(base, SignedEpochState::payload(1, 2, &s, None, 3));
        assert_ne!(base, SignedEpochState::payload(1, 2, &s, Some(&s), 3));
        assert_ne!(base, SignedEpochState::payload(1, 2, &s, Some(&l), 4));
    }

    #[test]
    fn absent_last_differs_from_zero_last() {
        let s = sha256(b"sigma");
        let zero = Digest::ZERO;
        assert_ne!(
            SignedEpochState::payload(1, 1, &s, None, 0),
            SignedEpochState::payload(1, 1, &s, Some(&zero), 0)
        );
    }

    #[test]
    fn checkpoint_payload_binds_fields() {
        let t = sha256(b"final");
        let base = SignedCheckpoint::payload(5, 0, &t);
        assert_ne!(base, SignedCheckpoint::payload(6, 0, &t));
        assert_ne!(base, SignedCheckpoint::payload(5, 1, &t));
        assert_ne!(base, SignedCheckpoint::payload(5, 0, &sha256(b"other")));
    }
}

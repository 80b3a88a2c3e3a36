//! One client step per protocol, written once for every driver.
//!
//! The paper's protocols are small client state machines. Each verifies a
//! server reply, then takes one follow-up step: Protocol I deposits its
//! signature over the new state, Protocol III deposits epoch states and
//! runs its audit duty, Protocol II has nothing left to do.
//! [`Protocol::step`] is that whole exchange after the reply. It reaches
//! the server through a [`Port`], the deposit and fetch messages a driver
//! carries, so the threaded client (`tcvs-net`'s `NetClient<P>`), the
//! round-based simulator (`tcvs-sim`) and the in-process CVS session
//! (`tcvs-cvs`) all run the same step and differ only in their port.

use tcvs_crypto::UserId;
use tcvs_merkle::{Op, OpResult};
use tcvs_obs::{SpanContext, Tracer};

use crate::evidence::{EvidenceBuilder, EvidenceKind};
use crate::msg::{
    BatchResponse, ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, SyncShare,
};
use crate::server::ServerApi;
use crate::types::{Ctr, Deviation, Epoch};

/// What a client checks the next reply against: the tree order its proofs
/// replay under and its `gctrᵢ`, the least counter that reply may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Anchor {
    /// The Merkle tree order.
    pub order: usize,
    /// The client's `gctrᵢ` before the request.
    pub gctr: Ctr,
}

/// A request a client rejected, the whole reply it rejected, and the
/// anchor it checked that reply against: what a cold audit re-runs the
/// client's check on. Drivers build one only on rejection, so the honest
/// path clones no op and no reply.
#[derive(Clone, Debug)]
pub enum Exchange {
    /// One operation and its reply.
    Op {
        /// The client's anchor before the operation.
        anchor: Anchor,
        /// The operation sent.
        op: Op,
        /// The reply rejected.
        reply: ServerResponse,
    },
    /// A batched window and its one reply.
    Window {
        /// The client's anchor before the window.
        anchor: Anchor,
        /// The window sent.
        ops: Vec<Op>,
        /// The reply rejected.
        reply: BatchResponse,
    },
}

/// A message a client step leaves at the server; nothing answers it.
#[derive(Debug)]
pub enum Deposit {
    /// Protocol I: a signature over the state its signer just created.
    Signature(SignedState),
    /// Protocol III: a user's signed epoch state.
    EpochState(SignedEpochState),
    /// Protocol III: an audited epoch's signed checkpoint.
    Checkpoint(SignedCheckpoint),
}

/// How a client step reaches the server after its reply: the driver
/// decides how each message travels and what it costs.
pub trait Port {
    /// The driver's error; a failed verification converts into it.
    type Error: From<Deviation>;
    /// Leaves `deposit` at the server.
    fn deposit(&mut self, deposit: Deposit) -> Result<(), Self::Error>;
    /// Fetches every signed state of `epoch` for its checker `user`.
    fn fetch_epoch_states(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Vec<SignedEpochState>, Self::Error>;
    /// Fetches the checkpoint of `epoch` for `user`.
    fn fetch_checkpoint(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Option<SignedCheckpoint>, Self::Error>;
}

/// A port straight into an in-process server: each message is one call,
/// and none can fail.
pub struct Direct<'a, S: ?Sized>(pub &'a mut S);

impl<S: ServerApi + ?Sized> Port for Direct<'_, S> {
    type Error = Deviation;

    fn deposit(&mut self, deposit: Deposit) -> Result<(), Deviation> {
        match deposit {
            Deposit::Signature(s) => self.0.deposit_signature(s.signer, s),
            Deposit::EpochState(s) => self.0.deposit_epoch_state(s),
            Deposit::Checkpoint(c) => self.0.deposit_checkpoint(c),
        }
        Ok(())
    }

    fn fetch_epoch_states(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Vec<SignedEpochState>, Deviation> {
        Ok(self.0.fetch_epoch_states(user, epoch))
    }

    fn fetch_checkpoint(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Option<SignedCheckpoint>, Deviation> {
        Ok(self.0.fetch_checkpoint(user, epoch))
    }
}

/// A protocol's client state machine, as every driver runs it.
///
/// The sync-up methods default to "this protocol has no sync-up": no
/// trigger, no share, nothing to fail.
pub trait Protocol {
    /// The protocol's label in an evidence bundle (`"protocol-2"`, …).
    const LABEL: &'static str;

    /// Whether the step ends in the signature deposit a blocking server
    /// waits for before it answers anyone else (Protocol I's extra
    /// message). A driver that shares the server's process may then hold
    /// the server from the reply to that deposit instead of passing both
    /// through its queue.
    const BLOCKING_DEPOSIT: bool = false;

    /// Verifies the server's reply `resp` to `op` at client clock `round`,
    /// then runs the protocol's follow-up through `port`. Returns the
    /// authenticated answer.
    fn step<P: Port>(
        &mut self,
        op: &Op,
        resp: &ServerResponse,
        round: u64,
        port: &mut P,
    ) -> Result<OpResult, P::Error>;

    /// Attaches an event tracer (clients that emit no events ignore it).
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Sets the trace context the next step's events attach to.
    fn set_current_span(&mut self, _ctx: Option<SpanContext>) {}

    /// True iff this user should announce a sync-up.
    fn wants_sync(&self) -> bool {
        false
    }

    /// This user's broadcast share, `None` for a protocol without a
    /// sync-up.
    fn sync_share(&self) -> Option<SyncShare> {
        None
    }

    /// This user's sync-up success predicate over everyone's shares.
    fn sync_succeeds(&self, _shares: &[SyncShare]) -> bool {
        true
    }

    /// Starts the next sync period.
    fn sync_done(&mut self) {}

    /// The anchor this client checks its next reply against; `None` for a
    /// client that checks nothing.
    fn anchor(&self) -> Option<Anchor> {
        None
    }

    /// The evidence this client seals when it rejects `exchange`, or fails
    /// a sync-up (`exchange` is `None`). It is returned unsealed, so the
    /// driver can graft in what only it knows before `.build()`. A client
    /// whose own signing key ran out seals nothing: that fault is its own,
    /// and a bundle would accuse an honest server.
    fn evidence(
        &self,
        kind: EvidenceKind,
        seed: u64,
        captured_at: u64,
        deviation: &Deviation,
        exchange: Option<Exchange>,
    ) -> Option<EvidenceBuilder> {
        rejection::<Self>(kind, seed, captured_at, deviation, exchange)
    }
}

/// The default [`Protocol::evidence`]: the deviation and `exchange` under
/// `P`'s label, and nothing for a client whose own key ran out.
pub(crate) fn rejection<P: Protocol + ?Sized>(
    kind: EvidenceKind,
    seed: u64,
    captured_at: u64,
    deviation: &Deviation,
    exchange: Option<Exchange>,
) -> Option<EvidenceBuilder> {
    if matches!(deviation, Deviation::KeyExhausted) {
        return None;
    }
    let b = EvidenceBuilder::new(kind, seed, P::LABEL)
        .captured_at(captured_at)
        .description(format!("a {} client rejected the server", P::LABEL))
        .deviation(deviation)
        .exchange(exchange);
    Some(b)
}

/// The unverifying client of the trusted-server baseline: it takes every
/// answer as given.
#[derive(Clone, Copy, Debug)]
pub struct TrustedClient;

impl Protocol for TrustedClient {
    const LABEL: &'static str = "trusted";

    fn step<P: Port>(
        &mut self,
        _op: &Op,
        resp: &ServerResponse,
        _round: u64,
        _port: &mut P,
    ) -> Result<OpResult, P::Error> {
        Ok(resp.result.clone())
    }
}

//! Threaded client handles: one [`NetClient<P>`] runs any protocol's
//! client step ([`Protocol`]) over a server channel.
//!
//! Every request path returns `Result<_, NetError>`. Transport trouble —
//! a dead server, an exhausted retry budget — surfaces as
//! [`NetError::ServerGone`] / [`NetError::Timeout`]; a failed protocol
//! verification surfaces as [`NetError::Deviation`]. Nothing on the request
//! path panics. Each handle numbers its requests with a per-user sequence
//! so the server can deduplicate retries (exactly-once execution).

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use tcvs_core::{
    Anchor, Client1, Client2, Client3, Ctr, Deposit, Deviation, Digest, Epoch, EvidenceBuilder,
    EvidenceBundle, EvidenceKind, Exchange, Op, OpResult, Port, Protocol, ProtocolConfig,
    SignedCheckpoint, SignedEpochState, SyncShare, TransitionLog, TrustedClient, UserId,
};
use tcvs_crypto::{KeyRegistry, Keyring};
use tcvs_obs::{stage, Event, EventKind, SpanContext};

use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;
use crate::server::{Body, Call, Endpoint, Head, Request, Wire};

/// The transport state of one user's connection: the wire, the user's
/// request numbering, the retry policy and the stats handles. Every client
/// handle — [`NetClient`] and [`crate::BootstrapClient`] — holds one.
pub(crate) struct Link {
    pub(crate) wire: Wire,
    pub(crate) user: UserId,
    /// The last sequence number used; every request takes the next one.
    pub(crate) seq: u64,
    pub(crate) policy: RetryPolicy,
    pub(crate) stats: NetStats,
}

impl Link {
    pub(crate) fn new(user: UserId, server: &impl Endpoint) -> Link {
        Link {
            wire: server.wire().0,
            user,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
        }
    }

    /// One untraced request under the next sequence number.
    pub(crate) fn call<T>(
        &mut self,
        make: impl FnMut(Sender<T>) -> Request,
    ) -> Result<T, NetError> {
        self.seq += 1;
        self.round_trip(None, make)
    }

    /// The one bounded-retry round trip behind every client request, under
    /// the current sequence number: each attempt builds the request around
    /// a fresh one-shot reply sender, submits it (a call may be served
    /// inline, its reply then already waiting) and waits
    /// [`RetryPolicy::attempt_timeout`] for the reply. Every attempt carries
    /// the same `seq`, so the server's reply journal guarantees the request
    /// executes at most once, and the same trace context `ctx`, so a retry
    /// is a new span in the *same* trace. A failed *send* means the server
    /// thread (or the link to it) is gone — that is terminal. A
    /// disconnected reply channel means the request was consumed but no
    /// reply will come (a dropped request or reply in flight) — retry at
    /// once. A timeout backs off exponentially before the retry.
    fn round_trip<T>(
        &self,
        ctx: Option<SpanContext>,
        mut make: impl FnMut(Sender<T>) -> Request,
    ) -> Result<T, NetError> {
        let (user, seq) = (self.user, self.seq);
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries.inc();
                self.stats.tracer.emit(|| {
                    Event::new(seq, EventKind::Retry, user)
                        .detail(format!("attempt={attempt}"))
                        .span_opt(ctx.map(|c| c.child(stage::RETRY)))
                });
            }
            let (reply_tx, reply_rx) = bounded(1);
            self.wire.submit(make(reply_tx))?;
            match reply_rx.recv_timeout(self.policy.attempt_timeout(user, seq, attempt)) {
                Ok(resp) => return Ok(resp),
                // The request or its reply was lost in flight; retry at once.
                Err(RecvTimeoutError::Disconnected) => continue,
                // No verdict on this attempt; the backoff grows with `attempt`.
                Err(RecvTimeoutError::Timeout) => continue,
            }
        }
        Err(NetError::Timeout { attempts })
    }
}

/// A client step's deposits travel as one-way messages, its fetches as
/// retried round trips.
impl Port for Link {
    type Error = NetError;

    fn deposit(&mut self, deposit: Deposit) -> Result<(), NetError> {
        self.wire.send(match deposit {
            // A signature settles the operation just answered, whose trace
            // is rooted at this same sequence number.
            Deposit::Signature(signed) => Request::Signature {
                user: signed.signer,
                ctx: Some(SpanContext::root(signed.signer, self.seq)),
                signed,
            },
            Deposit::EpochState(state) => Request::EpochState(state),
            Deposit::Checkpoint(checkpoint) => Request::Checkpoint(checkpoint),
        })
    }

    fn fetch_epoch_states(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Vec<SignedEpochState>, NetError> {
        self.call(|reply| Request::FetchEpochStates { user, epoch, reply })
    }

    fn fetch_checkpoint(
        &mut self,
        user: UserId,
        epoch: Epoch,
    ) -> Result<Option<SignedCheckpoint>, NetError> {
        self.call(|reply| Request::FetchCheckpoint { user, epoch, reply })
    }
}

/// A protocol client bound to a running server (a [`crate::NetServer`] or
/// a [`crate::FaultLink`] in front of one).
///
/// Each `execute` is a full protocol exchange: request → response →
/// the protocol's [`Protocol::step`] (verification, then Protocol I's
/// signature deposit or Protocol III's epoch deposits and audit duty). The
/// whole exchange shares one trace rooted at this client's `(user, seq)`.
pub struct NetClient<P> {
    inner: P,
    link: Link,
    ops: u64,
    evidence: Option<EvidenceBundle>,
    evidence_seed: u64,
}

/// A Protocol I client: each operation ends in the signature deposit the
/// blocking server waits for.
pub type NetClient1 = NetClient<Client1>;
/// A Protocol II client: one round trip per operation, no deposit.
pub type NetClient2 = NetClient<Client2>;
/// A Protocol III client: deposits signed epoch states and performs its
/// audit duties over the same channel.
pub type NetClient3 = NetClient<Client3>;
/// An unverifying client: the trusted-server baseline. Every operation
/// takes the same serialized path as a verifying client's; only the proof
/// check is skipped.
pub type NetClientTrusted = NetClient<TrustedClient>;

impl<P: Protocol> NetClient<P> {
    fn bind(inner: P, user: UserId, server: &impl Endpoint) -> NetClient<P> {
        NetClient {
            inner,
            link: Link::new(user, server),
            ops: 0,
            evidence: None,
            evidence_seed: 0,
        }
    }

    /// Attaches observability handles: transport retries feed the shared
    /// counters, and the inner protocol client emits through the tracer.
    pub fn set_stats(&mut self, stats: NetStats) {
        self.inner.set_tracer(stats.tracer.clone());
        self.link.stats = stats;
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.link.policy = policy;
    }

    /// Executes one verified operation; the client clock advances one round
    /// per operation.
    pub fn execute(&mut self, op: &Op) -> Result<OpResult, NetError> {
        self.execute_at(op, self.ops)
    }

    /// Executes one verified operation at client clock `round` (Protocol
    /// III reads its epoch from it). A failed verification stashes the
    /// evidence bundle the protocol seals over the exchange.
    pub fn execute_at(&mut self, op: &Op, round: u64) -> Result<OpResult, NetError> {
        let resp = self.call(round, |reply| Body::Op(op.clone(), reply))?;
        self.ops += 1;
        match self.inner.step(op, &resp, round, &mut self.link) {
            Err(NetError::Deviation(d)) => {
                self.capture(EvidenceKind::ProtocolVerdict, &d, |anchor| Exchange::Op {
                    anchor,
                    op: op.clone(),
                    reply: resp,
                });
                Err(d.into())
            }
            out => out,
        }
    }

    /// Sends one operation request under the next sequence number, traced
    /// under that operation's root span. Retries resend the same header
    /// with a fresh reply slot.
    fn call<T>(
        &mut self,
        round: u64,
        mut body: impl FnMut(Sender<T>) -> Body,
    ) -> Result<T, NetError> {
        self.link.seq += 1;
        let head = Head::root(self.link.user, self.link.seq, round);
        self.inner.set_current_span(head.ctx);
        self.link.round_trip(head.ctx, |reply| {
            Call {
                head,
                body: body(reply),
            }
            .into()
        })
    }

    /// Seals the evidence of a rejection over the exchange `exchange`
    /// builds from the client's anchor, keeping the first bundle until it
    /// is taken. Cold: it runs once per rejection, never per operation.
    #[cold]
    fn capture(
        &mut self,
        kind: EvidenceKind,
        d: &Deviation,
        exchange: impl FnOnce(Anchor) -> Exchange,
    ) {
        if self.evidence.is_none() {
            let exchange = self.inner.anchor().map(exchange);
            self.evidence = self
                .inner
                .evidence(kind, self.evidence_seed, self.ops, d, exchange)
                .map(EvidenceBuilder::build);
        }
    }

    /// Stamps captured evidence bundles with the run seed that produced
    /// them, tying an incident artifact back to a reproducible run.
    pub fn set_evidence_seed(&mut self, seed: u64) {
        self.evidence_seed = seed;
    }

    /// Takes the evidence bundle captured at the most recent failed
    /// verification, if any. The stash holds one bundle — the first
    /// deviation of an exchange — until taken.
    pub fn take_evidence(&mut self) -> Option<EvidenceBundle> {
        self.evidence.take()
    }

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops
    }

    /// User id.
    pub fn user(&self) -> UserId {
        self.link.user
    }
}

impl NetClient<Client1> {
    /// Binds a Protocol I client to `server`.
    pub fn new(
        keyring: Keyring,
        registry: KeyRegistry,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient1 {
        let user = keyring.user;
        NetClient::bind(Client1::new(keyring, registry, config), user, server)
    }

    /// Signs and deposits the initial state (run once, by the elected user,
    /// before any operation).
    pub fn deposit_initial(&mut self, root0: &Digest) -> Result<(), NetError> {
        self.inner.deposit_initial(root0, &mut self.link)
    }

    /// This user's broadcast share (for an out-of-band sync-up).
    pub fn sync_share(&self) -> SyncShare {
        self.inner.sync_share()
    }

    /// Evaluates the sync-up success predicate.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        self.inner.sync_succeeds(shares)
    }
}

impl NetClient<Client2> {
    /// Binds a Protocol II client to `server`.
    pub fn new(
        user: UserId,
        root0: &Digest,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient2 {
        NetClient::bind(Client2::new(user, root0, config), user, server)
    }

    /// Binds a client that joins mid-history at a published state
    /// `(root, ctr, last_user)` — see [`Client2::join`]. This is how a
    /// verified session starts on a server restored by chunked state sync,
    /// or how a late joiner anchors at [`crate::NetServer::sample`] instead
    /// of genesis.
    pub fn join(
        user: UserId,
        root: &Digest,
        ctr: Ctr,
        last_user: UserId,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient2 {
        let inner = Client2::join(user, root, ctr, last_user, config);
        NetClient::bind(inner, user, server)
    }

    /// Enables the forensic transition log on the inner protocol client, so
    /// a captured evidence bundle can carry this user's state-transition
    /// history for cold fork diagnosis.
    pub fn enable_logging(&mut self) {
        self.inner.enable_logging();
    }

    /// The recorded transition log, if [`NetClient2::enable_logging`] ran.
    pub fn transition_log(&self) -> Option<&TransitionLog> {
        self.inner.transition_log()
    }

    /// Executes a window of operations as **one** verified exchange: one
    /// round trip, one [`tcvs_core::BatchResponse`] whose spine siblings
    /// are shared across the window, one σ-token fold telescoped over the
    /// whole window.
    ///
    /// Falls back transparently to per-op [`NetClient::execute`] when the
    /// window contains a non-batchable operation or the server declines the
    /// batch (older deployments, durable backends) — the results are
    /// identical either way, only the wire cost differs.
    pub fn execute_batch(&mut self, ops: &[Op]) -> Result<Vec<OpResult>, NetError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        if !ops.iter().all(tcvs_merkle::batchable) {
            return self.execute_each(ops);
        }
        match self.call(self.ops, |reply| Body::Batch(ops.to_vec(), reply))? {
            Some(resp) => {
                self.ops += ops.len() as u64;
                self.inner.handle_batch_response(ops, &resp).map_err(|d| {
                    self.capture(EvidenceKind::BatchVerifyFailure, &d, |anchor| {
                        Exchange::Window {
                            anchor,
                            ops: ops.to_vec(),
                            reply: resp,
                        }
                    });
                    d.into()
                })
            }
            // Declined windows had no side effects; replay the ops one at a
            // time under fresh sequence numbers.
            None => self.execute_each(ops),
        }
    }

    fn execute_each(&mut self, ops: &[Op]) -> Result<Vec<OpResult>, NetError> {
        ops.iter().map(|op| self.execute(op)).collect()
    }

    /// This user's broadcast share.
    pub fn sync_share(&self) -> SyncShare {
        self.inner.sync_share()
    }

    /// Evaluates the sync-up success predicate.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        self.inner.sync_succeeds(shares)
    }

    /// Captures a failed sync-up over everyone's `shares`: a
    /// [`EvidenceKind::ProtocolVerdict`] builder with deviation
    /// `sync-failed`, stamped with the evidence seed, holding this user's
    /// view ([`Client2::sync_evidence`]). `None` when the sync-up passes.
    /// The harness grafts the other users' transition logs in before it
    /// seals the bundle.
    pub fn sync_evidence(&self, shares: &[SyncShare]) -> Option<EvidenceBuilder> {
        self.inner
            .sync_evidence(self.evidence_seed, self.ops, shares)
    }
}

impl NetClient<Client3> {
    /// Binds a Protocol III client to `server`. Call
    /// [`NetClient::execute_at`] with the client's clock reading: the epoch
    /// length is interpreted in its rounds.
    pub fn new(
        keyring: Keyring,
        registry: KeyRegistry,
        n_users: u32,
        root0: &Digest,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient3 {
        let user = keyring.user;
        let inner = Client3::new(keyring, registry, n_users, root0, config);
        NetClient::bind(inner, user, server)
    }
}

impl NetClient<TrustedClient> {
    /// Binds a baseline client to `server`.
    pub fn new(user: UserId, server: &impl Endpoint) -> NetClientTrusted {
        NetClient::bind(TrustedClient, user, server)
    }
}

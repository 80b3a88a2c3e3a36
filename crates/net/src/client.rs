//! Threaded client handles: protocol clients bound to a server channel.
//!
//! Every request path returns `Result<_, NetError>`. Transport trouble —
//! a dead server, an exhausted retry budget — surfaces as
//! [`NetError::ServerGone`] / [`NetError::Timeout`]; a failed protocol
//! verification surfaces as [`NetError::Deviation`]. Nothing on the request
//! path panics. Each handle numbers its requests with a per-user sequence
//! so the server can deduplicate retries (exactly-once execution).

use tcvs_core::{
    Client1, Client2, Ctr, Deviation, Digest, EvidenceBuilder, EvidenceBundle, EvidenceKind, Op,
    OpResult, ProtocolConfig, ServerResponse, SyncShare, TransitionLog, UserId,
};
use tcvs_crypto::{KeyRegistry, Keyring};

use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;
use crate::server::{remote_call, round_trip, Body, Endpoint, Head, Request, Wire};

/// A Protocol I client bound to a running server.
///
/// Each `execute` is a full protocol exchange: request → response →
/// verification → signature deposit (the deposit is what the blocking
/// server waits for).
pub struct NetClient1 {
    inner: Client1,
    wire: Wire,
    ops: u64,
    seq: u64,
    policy: RetryPolicy,
    stats: NetStats,
}

impl NetClient1 {
    /// Binds a client to `server` (a [`crate::NetServer`] or a
    /// [`crate::FaultLink`] in front of one).
    pub fn new(
        keyring: Keyring,
        registry: KeyRegistry,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient1 {
        NetClient1 {
            inner: Client1::new(keyring, registry, config),
            wire: server.wire().0,
            ops: 0,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
        }
    }

    /// Attaches observability handles: transport retries feed the shared
    /// counters, and the inner protocol client emits through the tracer.
    pub fn set_stats(&mut self, stats: NetStats) {
        self.inner.set_tracer(stats.tracer.clone());
        self.stats = stats;
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Signs and deposits the initial state (run once, by the elected user,
    /// before any operation).
    pub fn deposit_initial(&mut self, root0: &Digest) -> Result<(), NetError> {
        let init = self.inner.sign_initial(root0)?;
        self.wire.send(Request::Signature {
            user: self.inner.user(),
            signed: init,
            ctx: None,
        })?;
        self.inner.prepare_signature();
        Ok(())
    }

    /// Executes one verified operation. The whole exchange — request,
    /// server handling, verification verdict, signature deposit — shares
    /// one trace rooted at this client's `(user, seq)`.
    pub fn execute(&mut self, op: &Op) -> Result<OpResult, NetError> {
        self.seq += 1;
        let head = Head::root(self.inner.user(), self.seq, self.ops);
        self.inner.set_current_span(head.ctx);
        let resp = remote_call(&self.wire, head, &self.policy, &self.stats, |reply| {
            Body::Op(op.clone(), reply)
        })?;
        self.ops += 1;
        let (result, deposit) = self.inner.handle_response(op, &resp)?;
        self.wire.send(Request::Signature {
            user: self.inner.user(),
            signed: deposit,
            ctx: head.ctx,
        })?;
        // The server is released; build the next one-time key while it
        // serves the other users.
        self.inner.prepare_signature();
        Ok(result)
    }

    /// This user's broadcast share (for an out-of-band sync-up).
    pub fn sync_share(&self) -> SyncShare {
        self.inner.sync_share()
    }

    /// Evaluates the sync-up success predicate.
    pub fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        self.inner.sync_succeeds(shares)
    }

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops
    }

    /// User id.
    pub fn user(&self) -> UserId {
        self.inner.user()
    }
}

/// A Protocol II client bound to a running server: one round trip per
/// operation, no deposit.
pub struct NetClient2 {
    inner: Client2,
    wire: Wire,
    ops: u64,
    seq: u64,
    policy: RetryPolicy,
    stats: NetStats,
    evidence: Option<EvidenceBundle>,
    evidence_seed: u64,
}

impl NetClient2 {
    /// Binds a client to `server`.
    pub fn new(
        user: UserId,
        root0: &Digest,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient2 {
        NetClient2 {
            inner: Client2::new(user, root0, config),
            wire: server.wire().0,
            ops: 0,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
            evidence: None,
            evidence_seed: 0,
        }
    }

    /// Binds a client that joins mid-history at a published state
    /// `(root, ctr, last_user)` — see [`Client2::join`]. This is how a
    /// verified session starts on a server restored by chunked state sync,
    /// or how a late joiner anchors at a sampled state instead of genesis.
    pub fn join(
        user: UserId,
        root: &Digest,
        ctr: Ctr,
        last_user: UserId,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient2 {
        NetClient2 {
            inner: Client2::join(user, root, ctr, last_user, config),
            wire: server.wire().0,
            ops: 0,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
            evidence: None,
            evidence_seed: 0,
        }
    }

    /// Attaches observability handles: transport retries feed the shared
    /// counters, and the inner protocol client emits through the tracer.
    pub fn set_stats(&mut self, stats: NetStats) {
        self.inner.set_tracer(stats.tracer.clone());
        self.stats = stats;
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
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

    /// Builds and stashes an evidence bundle at a detection site. The
    /// bundle carries everything a cold auditor needs from this client's
    /// side: its anchor token, its sync share, the offending verification
    /// object and signed deposit (when the response carried them), and the
    /// transition log when logging is on.
    fn capture(&mut self, kind: EvidenceKind, d: &Deviation, resp: Option<&ServerResponse>) {
        if self.evidence.is_some() {
            return;
        }
        let mut b = EvidenceBuilder::new(kind, self.evidence_seed, "protocol-2")
            .captured_at(self.ops)
            .description(format!(
                "user {} rejected a server response at lctr {}",
                self.inner.user(),
                self.inner.lctr()
            ))
            .deviation(d)
            .initials(&[self.inner.initial_token()])
            .shares(vec![vec![self.inner.sync_share()]]);
        if let Some(resp) = resp {
            b = b.vo(resp.vo.to_bytes());
            if let Some(sig) = &resp.sig {
                b = b.signed_state(sig.clone());
            }
        }
        if let Some(log) = self.inner.transition_log() {
            b = b.transition_log(0, self.inner.user(), log);
        }
        self.evidence = Some(b.build());
    }

    /// Executes one verified operation. Request, server handling, and the
    /// verification verdict share one trace rooted at `(user, seq)`. A
    /// failed verification stashes an evidence bundle retrievable with
    /// [`NetClient2::take_evidence`].
    pub fn execute(&mut self, op: &Op) -> Result<OpResult, NetError> {
        self.seq += 1;
        let head = Head::root(self.inner.user(), self.seq, self.ops);
        self.inner.set_current_span(head.ctx);
        let resp = remote_call(&self.wire, head, &self.policy, &self.stats, |reply| {
            Body::Op(op.clone(), reply)
        })?;
        self.ops += 1;
        match self.inner.handle_response(op, &resp) {
            Ok(result) => Ok(result),
            Err(d) => {
                self.capture(EvidenceKind::ProtocolVerdict, &d, Some(&resp));
                Err(d.into())
            }
        }
    }

    /// Executes a window of operations as **one** verified exchange: one
    /// round trip, one [`tcvs_core::BatchResponse`] whose spine siblings
    /// are shared across the window, one σ-token fold telescoped over the
    /// whole window.
    ///
    /// Falls back transparently to per-op [`NetClient2::execute`] when the
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
        self.seq += 1;
        let head = Head::root(self.inner.user(), self.seq, self.ops);
        self.inner.set_current_span(head.ctx);
        match remote_call(&self.wire, head, &self.policy, &self.stats, |reply| {
            Body::Batch(ops.to_vec(), reply)
        })? {
            Some(resp) => {
                self.ops += ops.len() as u64;
                match self.inner.handle_batch_response(ops, &resp) {
                    Ok(results) => Ok(results),
                    Err(d) => {
                        // Batch proofs are window-shaped (no standalone VO to
                        // embed); the bundle still pins the client's view.
                        self.capture(EvidenceKind::BatchVerifyFailure, &d, None);
                        Err(d.into())
                    }
                }
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

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops
    }

    /// User id.
    pub fn user(&self) -> UserId {
        self.inner.user()
    }
}

/// A Protocol III client bound to a running server: deposits signed epoch
/// states and performs its audit duties over the same channel.
pub struct NetClient3 {
    inner: tcvs_core::Client3,
    wire: Wire,
    ops: u64,
    seq: u64,
    policy: RetryPolicy,
    stats: NetStats,
    /// Client-side clock: rounds advance one per operation (the bench rig's
    /// stand-in for wall time; epoch length is interpreted in ops).
    round: u64,
}

impl NetClient3 {
    /// Binds a client to `server`.
    pub fn new(
        keyring: Keyring,
        registry: KeyRegistry,
        n_users: u32,
        root0: &Digest,
        config: ProtocolConfig,
        server: &impl Endpoint,
    ) -> NetClient3 {
        NetClient3 {
            inner: tcvs_core::Client3::new(keyring, registry, n_users, root0, config),
            wire: server.wire().0,
            ops: 0,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
            round: 0,
        }
    }

    /// Attaches observability handles: transport retries feed the shared
    /// counters, and the inner protocol client emits through the tracer.
    pub fn set_stats(&mut self, stats: NetStats) {
        self.inner.set_tracer(stats.tracer.clone());
        self.stats = stats;
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Executes one verified operation at client clock `round`, forwarding
    /// epoch-state deposits and running any due audit.
    pub fn execute_at(&mut self, op: &Op, round: u64) -> Result<OpResult, NetError> {
        self.round = round;
        self.seq += 1;
        let head = Head::root(self.inner.user(), self.seq, round);
        self.inner.set_current_span(head.ctx);
        let resp = remote_call(&self.wire, head, &self.policy, &self.stats, |reply| {
            Body::Op(op.clone(), reply)
        })?;
        self.ops += 1;
        let (result, deposits) = self.inner.handle_response(op, &resp, round)?;
        for d in deposits {
            self.wire.send(Request::EpochState(d))?;
        }
        if let Some(epoch) = self.inner.pending_audit() {
            let user = self.inner.user();
            self.seq += 1;
            let states = round_trip(
                &self.wire,
                user,
                self.seq,
                None,
                &self.policy,
                &self.stats,
                |reply| Request::FetchEpochStates { user, epoch, reply },
            )?;
            let prev = if epoch == 0 {
                None
            } else {
                self.seq += 1;
                round_trip(
                    &self.wire,
                    user,
                    self.seq,
                    None,
                    &self.policy,
                    &self.stats,
                    |reply| Request::FetchCheckpoint {
                        user,
                        epoch: epoch - 1,
                        reply,
                    },
                )?
            };
            let cp = self.inner.audit(epoch, &states, prev.as_ref())?;
            self.wire.send(Request::Checkpoint(cp))?;
        }
        self.inner.prepare_signature();
        Ok(result)
    }

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops
    }

    /// User id.
    pub fn user(&self) -> UserId {
        self.inner.user()
    }
}

/// An unverifying client: the trusted-server baseline. Every operation,
/// read or update, takes the same serialized path as a verifying client's;
/// only the proof check is skipped.
pub struct NetClientTrusted {
    user: UserId,
    wire: Wire,
    ops: u64,
    seq: u64,
    policy: RetryPolicy,
    stats: NetStats,
}

impl NetClientTrusted {
    /// Binds a baseline client to `server`.
    pub fn new(user: UserId, server: &impl Endpoint) -> NetClientTrusted {
        NetClientTrusted {
            user,
            wire: server.wire().0,
            ops: 0,
            seq: 0,
            policy: RetryPolicy::default(),
            stats: NetStats::disabled(),
        }
    }

    /// Attaches observability handles (transport retry counters).
    pub fn set_stats(&mut self, stats: NetStats) {
        self.stats = stats;
    }

    /// Replaces the retry policy (timeouts, attempts, jitter).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Executes one unverified operation.
    pub fn execute(&mut self, op: &Op) -> Result<OpResult, NetError> {
        self.seq += 1;
        let head = Head::root(self.user, self.seq, self.ops);
        let resp = remote_call(&self.wire, head, &self.policy, &self.stats, |reply| {
            Body::Op(op.clone(), reply)
        })?;
        self.ops += 1;
        Ok(resp.result)
    }

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops
    }
}

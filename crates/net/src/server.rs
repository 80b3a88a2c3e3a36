//! The threaded server: one thread owning a [`ServerApi`] implementation,
//! serving requests over crossbeam channels.
//!
//! Every operation travels in one request shape, a `Call`: the header
//! `(user, seq, round, ctx)` and a body — a plain op or a Protocol II batch
//! window — whose reply slot is typed by that shape, so a client can only
//! receive the reply shape it asked for. The thread's state (the inner
//! server, the reply journal, the backlog, the bootstrap cache, the
//! missed-deposit count) lives in one `ServerLoop` with a single code path
//! per request kind: one `serve` for calls, one deposit, one crash-restart
//! and one deposit wait.
//!
//! Protocol I's blocking step is *physically* reproduced: in blocking mode
//! the server thread will not take the next operation until the previous
//! client's signature deposit has arrived — this is what experiment E6's
//! wall-clock throughput numbers measure. Under faults the block is bounded
//! by [`NetServerOptions::deposit_timeout`]: a lost or abandoned deposit is
//! counted in [`NetServer::missed_deposits`] and the server moves on instead
//! of deadlocking.
//!
//! Every read takes the same serialized path as a write, so every answer
//! a client sees is covered by its protocol's detection. The only other
//! views of the inner server's state are the bootstrap chunks and the
//! `(root, ctr, last_user)` sample behind a grove epoch, both served in
//! order on this thread and neither trusted by the party that receives it.
//!
//! Every operation carries a per-user sequence number; the thread keeps the
//! last reply per user in a *reply journal* so a retried request (after a
//! dropped reply) is answered from the journal instead of re-executing —
//! exactly-once semantics over an at-least-once transport. One shape table
//! (`answer`) decides which journaled reply may answer which request shape,
//! for retries and fresh replies alike. The journal is part of the server's
//! durable state: it survives [`NetServer::crash_restart`] along with
//! whatever the inner [`ServerApi`] chooses to persist.
//!
//! Shutdown (and `Drop`) switches the loop into a *drain*: every backlogged
//! and queued request is served exactly as in the main loop — counted and
//! traced, a crash really restarting the inner server, bootstrap chunks cut
//! from the configured slicing — except that no deposit wait runs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use tcvs_core::{
    BatchResponse, Ctr, Digest, Epoch, Op, ServerApi, ServerResponse, SignedCheckpoint,
    SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::ChunkSource;
use tcvs_obs::{stage, Event, EventKind, SpanContext, NO_ACTOR};

use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;

/// A request to the server thread.
pub(crate) enum Request {
    /// An operation, in either of its two shapes.
    Call(Call),
    Signature {
        user: UserId,
        signed: SignedState,
        /// Trace context of the operation this deposit settles.
        ctx: Option<SpanContext>,
    },
    EpochState(SignedEpochState),
    FetchEpochStates {
        user: UserId,
        epoch: Epoch,
        reply: Sender<Vec<SignedEpochState>>,
    },
    Checkpoint(SignedCheckpoint),
    FetchCheckpoint {
        user: UserId,
        epoch: Epoch,
        reply: Sender<Option<SignedCheckpoint>>,
    },
    /// Fetch the chunk manifest for the server's current snapshot: the
    /// serialized [`tcvs_merkle::ChunkManifest`] plus the counter the
    /// snapshot was current as of. `None` means the endpoint serves no
    /// bootstrap path (e.g. an adversary with no read snapshot).
    BootstrapManifest {
        reply: Sender<Option<(Vec<u8>, Ctr)>>,
    },
    /// Fetch one chunk of the snapshot identified by `anchor`. `None` means
    /// the server no longer holds that snapshot (the client refetches the
    /// manifest and resumes against the new anchor) or the index is out of
    /// range.
    BootstrapChunk {
        anchor: Digest,
        index: u32,
        reply: Sender<Option<Vec<u8>>>,
    },
    /// Sample the current state as `(root, ctr, last_user)`, the per-shard
    /// input of a grove epoch. `None` means the inner server exposes no
    /// state to sample (an adversary).
    Sample {
        reply: Sender<Option<(Digest, Ctr, UserId)>>,
    },
    /// Crash the inner server and restart it from persisted state.
    Crash {
        ack: Sender<()>,
    },
    Shutdown,
}

/// One operation request. Retries resend the same header with a fresh
/// reply slot.
#[derive(Clone)]
pub(crate) struct Call {
    pub(crate) head: Head,
    pub(crate) body: Body,
}

/// The header every operation request carries.
#[derive(Clone, Copy)]
pub(crate) struct Head {
    pub(crate) user: UserId,
    /// Per-user sequence number; retries of the same operation reuse it.
    pub(crate) seq: u64,
    pub(crate) round: u64,
    /// Wire-propagated trace context: the client's root span for this
    /// logical operation. Every event the server (or an interposed fault
    /// link) emits while handling the request is a child of it.
    pub(crate) ctx: Option<SpanContext>,
}

/// What an operation request asks for, with its reply slot typed by shape.
#[derive(Clone)]
pub(crate) enum Body {
    /// One operation, answered with a blocking-path response.
    Op(Op, Sender<ServerResponse>),
    /// A Protocol II window of operations verified as one exchange against
    /// one pre-state root. The server may decline (`None`) — e.g. the
    /// window mixes non-batchable structural ops, or the deployment does
    /// not implement batching — in which case the client falls back to
    /// per-operation execution with fresh sequence numbers.
    Batch(Vec<Op>, Sender<Option<BatchResponse>>),
}

impl Head {
    /// The header of `user`'s operation `seq`, traced under that
    /// operation's root span.
    pub(crate) fn root(user: UserId, seq: u64, round: u64) -> Head {
        Head {
            user,
            seq,
            round,
            ctx: Some(SpanContext::root(user, seq)),
        }
    }
}

impl From<Call> for Request {
    fn from(call: Call) -> Request {
        Request::Call(call)
    }
}

impl Call {
    /// The same call with its reply sender swapped for a dead end: the
    /// server executes and journals, the client's wait disconnects, and its
    /// retry is answered from the journal.
    pub(crate) fn severed(mut self) -> Call {
        match &mut self.body {
            Body::Op(_, reply) => *reply = bounded(1).0,
            Body::Batch(_, reply) => *reply = bounded(1).0,
        }
        self
    }
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// An opaque handle onto a server thread's request channel. Only this
/// crate can look inside; clients obtain one through [`Endpoint`].
pub struct WireHandle(pub(crate) Sender<Request>);

/// Something clients can bind to: a [`NetServer`] directly, or a
/// [`crate::FaultLink`] interposed in front of one.
///
/// The trait is sealed — only this crate's types implement it — because its
/// wire format (the request channel) is an internal detail.
pub trait Endpoint: sealed::Sealed {
    /// The wire into this endpoint (crate-internal).
    #[doc(hidden)]
    fn wire(&self) -> WireHandle;
}

/// Tuning knobs for a server thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetServerOptions {
    /// Reproduce Protocol I's blocking signature deposit: after each
    /// operation the server waits for that client's deposit before serving
    /// the next request.
    pub blocking_signatures: bool,
    /// How long a blocking wait may last before the server gives up on the
    /// deposit, records a miss, and moves on. Bounds the Protocol I deadlock
    /// when a client dies (or its deposit is lost) mid-exchange.
    pub deposit_timeout: Duration,
    /// Byte budget per bootstrap chunk (whole leaves are grouped under it;
    /// a single oversized leaf still ships as one chunk). Governs the
    /// chunk-count / per-chunk-size trade-off the `bootstrap` bench suite
    /// sweeps.
    pub bootstrap_chunk_bytes: usize,
}

impl Default for NetServerOptions {
    fn default() -> NetServerOptions {
        NetServerOptions {
            blocking_signatures: false,
            deposit_timeout: Duration::from_secs(2),
            bootstrap_chunk_bytes: 64 * 1024,
        }
    }
}

/// What the journal remembers about a served call: its reply in the shape
/// it was produced in. `answer` maps it to the shape a request asks for.
enum JournaledReply {
    /// A plain op's response, served or recovered by a durable server.
    Plain(ServerResponse),
    Batch(BatchResponse),
}

/// Handle to a running server thread.
pub struct NetServer {
    tx: Sender<Request>,
    join: Option<JoinHandle<()>>,
    missed: Arc<AtomicU64>,
}

impl sealed::Sealed for NetServer {}

impl Endpoint for NetServer {
    fn wire(&self) -> WireHandle {
        WireHandle(self.tx.clone())
    }
}

impl NetServer {
    /// Spawns the server thread over any (honest or adversarial) server
    /// implementation. `blocking_signatures` reproduces Protocol I's extra
    /// blocking message; see [`NetServer::spawn_with`] for the full knobs.
    pub fn spawn(inner: Box<dyn ServerApi + Send>, blocking_signatures: bool) -> NetServer {
        NetServer::spawn_with(
            inner,
            NetServerOptions {
                blocking_signatures,
                ..NetServerOptions::default()
            },
        )
    }

    /// Spawns the server thread with explicit [`NetServerOptions`].
    pub fn spawn_with(inner: Box<dyn ServerApi + Send>, opts: NetServerOptions) -> NetServer {
        NetServer::spawn_observed(inner, opts, NetStats::disabled())
    }

    /// Spawns the server thread with metric/event instrumentation feeding
    /// `stats`.
    pub fn spawn_observed(
        inner: Box<dyn ServerApi + Send>,
        opts: NetServerOptions,
        stats: NetStats,
    ) -> NetServer {
        let (tx, rx) = unbounded();
        let missed = Arc::new(AtomicU64::new(0));
        let server = ServerLoop {
            inner,
            rx,
            opts,
            journal: HashMap::new(),
            stats,
            backlog: VecDeque::new(),
            bootstrap: None,
            missed: Arc::clone(&missed),
            draining: false,
        };
        NetServer {
            tx,
            join: Some(std::thread::spawn(move || server.run())),
            missed,
        }
    }

    /// Signature deposits the blocking server gave up waiting for (always 0
    /// in non-blocking mode or on a fault-free network).
    pub fn missed_deposits(&self) -> u64 {
        self.missed.load(Ordering::Relaxed)
    }

    /// Crashes the inner server and restarts it from its persisted state,
    /// synchronously: when this returns `Ok`, the restart has completed.
    pub fn crash_restart(&self) -> Result<(), NetError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Request::Crash { ack: ack_tx })
            .map_err(|_| NetError::ServerGone)?;
        ack_rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// The inner server's current `(root, ctr, last_user)`, sampled in
    /// order behind every request sent before it, so it reflects every
    /// acknowledged write. `None` when the inner server exposes no state
    /// (an adversary) or the server thread has exited.
    pub(crate) fn sample(&self) -> Option<(Digest, Ctr, UserId)> {
        let (reply, sampled) = bounded(1);
        self.tx.send(Request::Sample { reply }).ok()?;
        sampled.recv().ok().flatten()
    }

    /// Stops the server thread gracefully: backlogged and queued requests
    /// are served (from the journal or by execution), then the thread exits.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The server thread: everything it owns, and one code path per request
/// kind, shared by the main loop and the shutdown drain.
struct ServerLoop {
    inner: Box<dyn ServerApi + Send>,
    rx: Receiver<Request>,
    opts: NetServerOptions,
    stats: NetStats,
    /// The per-user reply journal: the last `(seq, reply)` served to each
    /// user.
    journal: HashMap<UserId, (u64, JournaledReply)>,
    /// Requests that arrived while the server was blocked waiting for a
    /// deposit; replayed in arrival order.
    backlog: VecDeque<Request>,
    /// Lazily-built chunk source for the bootstrap path: the slicing of one
    /// snapshot, with the counter that snapshot was current as of. Kept
    /// across crash/restart: serving a consistent *stale* snapshot is
    /// exactly what lets a client resume an interrupted bootstrap.
    bootstrap: Option<(ChunkSource, Ctr)>,
    missed: Arc<AtomicU64>,
    /// Set once shutdown is requested (or every sender is gone): serve what
    /// is already queued, with no deposit waits, then exit.
    draining: bool,
}

impl ServerLoop {
    fn run(mut self) {
        // A durable inner server may already hold recovered replies from a
        // previous process; a retry arriving over the wire must hit them,
        // not re-execute.
        self.seed_journal();
        while let Some(req) = self.next() {
            self.dispatch(req);
        }
    }

    /// The next request to handle: the backlog first, then the queue.
    /// `None` once a drain has emptied both, or every sender is gone.
    fn next(&mut self) -> Option<Request> {
        if let Some(req) = self.backlog.pop_front() {
            return Some(req);
        }
        match self.rx.try_recv() {
            Ok(req) => Some(req),
            Err(TryRecvError::Empty) if !self.draining => self.rx.recv().ok(),
            Err(_) => None,
        }
    }

    fn dispatch(&mut self, req: Request) {
        match req {
            Request::Call(call) => self.serve(call),
            Request::Signature { user, signed, ctx } => self.deposit(user, signed, ctx),
            Request::EpochState(s) => self.inner.deposit_epoch_state(s),
            Request::FetchEpochStates { user, epoch, reply } => {
                let _ = reply.send(self.inner.fetch_epoch_states(user, epoch));
            }
            Request::Checkpoint(c) => self.inner.deposit_checkpoint(c),
            Request::FetchCheckpoint { user, epoch, reply } => {
                let _ = reply.send(self.inner.fetch_checkpoint(user, epoch));
            }
            Request::BootstrapManifest { reply } => {
                let _ = reply.send(self.serve_bootstrap_manifest());
            }
            Request::BootstrapChunk {
                anchor,
                index,
                reply,
            } => {
                let _ = reply.send(self.serve_bootstrap_chunk(&anchor, index));
            }
            Request::Sample { reply } => {
                let snap = self.inner.read_snapshot();
                let _ = reply.send(snap.map(|s| (s.root_digest(), s.ctr(), s.last_user())));
            }
            Request::Crash { ack } => self.crash(ack),
            Request::Shutdown => self.draining = true,
        }
    }

    /// Serves one call: from the journal if it retries a served one,
    /// otherwise by executing it. A fresh reply goes journal insert →
    /// reply → drop of the displaced reply → stats and tracer, and
    /// a blocking Protocol I deployment then waits for the op's deposit.
    fn serve(&mut self, call: Call) {
        if self.replay(&call) {
            return;
        }
        let Head {
            user,
            seq,
            round,
            ctx,
        } = call.head;
        let started = Instant::now();
        let Some(entry) = self.execute(&call) else {
            return;
        };
        let (ctr, ops) = match &entry {
            JournaledReply::Plain(r) => (r.ctr, 1),
            JournaledReply::Batch(b) => (b.ctr, b.window_len() as u64),
        };
        let batch = matches!(entry, JournaledReply::Batch(_));
        let displaced = self.journal_insert(user, seq, entry);
        if let Some((_, entry)) = self.journal.get(&user) {
            answer(&call.body, entry, || {});
        }
        // Freeing the displaced proof is work the client need not wait for.
        drop(displaced);
        self.stats.ops_served.add(ops);
        self.stats
            .op_micros
            .observe(started.elapsed().as_micros() as u64);
        if batch {
            self.stats.batch_windows.inc();
            self.stats.batch_ops.add(ops);
        }
        self.stats.tracer.emit(|| {
            let shape = if batch {
                format!(" batch={ops}")
            } else {
                String::new()
            };
            Event::new(ctr, EventKind::OpServed, user)
                .detail(format!("seq={seq} round={round}{shape}"))
                .span_opt(ctx.map(|c| c.child(stage::SERVER)))
        });
        // Batch windows are a Protocol II path: deposits are asynchronous
        // state tokens there, so no wait.
        if self.opts.blocking_signatures && !batch {
            self.wait(user);
        }
    }

    /// Executes `call` on the inner server and returns the reply to
    /// journal. `None` for a declined batch window, answered here: a
    /// decline is side-effect free by contract, so it is not journaled — a
    /// retry may legitimately decline again or (after a crash-restart)
    /// succeed.
    fn execute(&mut self, call: &Call) -> Option<JournaledReply> {
        let Head {
            user, seq, round, ..
        } = call.head;
        match &call.body {
            Body::Batch(ops, reply) => {
                let resp = self.inner.handle_op_batch(user, seq, ops, round);
                if resp.is_none() {
                    self.stats.batch_declined.inc();
                    let _ = reply.send(None);
                }
                resp.map(JournaledReply::Batch)
            }
            // The sequence number rides down to the inner server so a
            // durable backend can log it and recover its own copy of the
            // reply journal.
            Body::Op(op, _) => Some(JournaledReply::Plain(
                self.inner.handle_op_seq(user, seq, op, round),
            )),
        }
    }

    /// Answers a retry of an already-served call from the journal — never
    /// re-executing it, and never re-entering a deposit wait (the first
    /// delivery already did). `false` when the call must be executed.
    fn replay(&self, call: &Call) -> bool {
        let Head { user, seq, ctx, .. } = call.head;
        let Some((served, entry)) = self.journal.get(&user) else {
            return false;
        };
        *served == seq
            && answer(&call.body, entry, || {
                self.stats.journal_hits.inc();
                self.stats.tracer.emit(|| {
                    Event::new(seq, EventKind::JournalHit, user)
                        .span_opt(ctx.map(|c| c.child(stage::JOURNAL)))
                });
            })
    }

    /// Installs `user`'s newest reply, evicting the entry below the freshly
    /// acknowledged watermark. A new sequence number from a user is an
    /// implicit ack of every older one (the client retries strictly in
    /// order), so the journal stays bounded at one entry per user; each
    /// displaced entry is counted so deployments can see the eviction rate.
    ///
    /// The displaced reply is *returned*, not dropped: it owns a whole
    /// proof, and freeing that is work the client should not wait behind.
    #[must_use = "drop the displaced reply after the new one has been sent"]
    fn journal_insert(
        &mut self,
        user: UserId,
        seq: u64,
        resp: JournaledReply,
    ) -> Option<JournaledReply> {
        let (old_seq, displaced) = self.journal.insert(user, (seq, resp))?;
        if old_seq < seq {
            self.stats.journal_evictions.inc();
        }
        Some(displaced)
    }

    /// Re-seeds the journal from whatever the inner server recovered
    /// durably, so a retry of a pre-crash operation is still answered from
    /// the journal instead of re-executing. An inner server with no durable
    /// journal (`None`) keeps the in-memory journal as it is.
    fn seed_journal(&mut self) {
        if let Some(entries) = self.inner.recovered_journal() {
            self.journal.clear();
            for (user, seq, resp) in entries {
                self.journal
                    .insert(user, (seq, JournaledReply::Plain(resp)));
            }
        }
    }

    fn deposit(&mut self, user: UserId, signed: SignedState, ctx: Option<SpanContext>) {
        let ctr = signed.ctr;
        self.inner.deposit_signature(user, signed);
        self.stats.tracer.emit(|| {
            Event::new(ctr, EventKind::Deposit, user).span_opt(ctx.map(|c| c.child(stage::DEPOSIT)))
        });
    }

    /// Crash-restarts the inner server, then acknowledges. The reply journal
    /// is durable transport state: a durable inner server recovers its own
    /// copy, which replaces ours; otherwise the in-memory journal survives
    /// alongside whatever the inner server keeps.
    fn crash(&mut self, ack: Sender<()>) {
        self.stats.crashes.inc();
        self.stats
            .tracer
            .emit(|| Event::new(0, EventKind::Crash, NO_ACTOR));
        self.inner.crash_restart();
        self.seed_journal();
        let _ = ack.send(());
        self.stats
            .tracer
            .emit(|| Event::new(0, EventKind::Restart, NO_ACTOR));
    }

    /// Protocol I's blocking step: wait for `user`'s deposit of the op just
    /// served, while other users' requests queue up behind the block — that
    /// latency is the measured cost.
    ///
    /// The wait is bounded by `deposit_timeout`; on timeout the owed deposit
    /// is counted as missed and the server moves on rather than deadlock — a
    /// stale signature then surfaces at the client. Retries of served calls
    /// are answered in place (their clients may be the very ones whose
    /// deposits are owed) and a crash is handled at once, abandoning the
    /// owed deposit (absorbed by the main loop if it arrives); everything
    /// else queues in the backlog. A drain never waits.
    fn wait(&mut self, user: UserId) {
        while !self.draining {
            match self.rx.recv_timeout(self.opts.deposit_timeout) {
                Ok(Request::Signature {
                    user: from,
                    signed,
                    ctx,
                }) if from == user => {
                    self.deposit(from, signed, ctx);
                    return;
                }
                Ok(Request::Crash { ack }) => {
                    self.crash(ack);
                    self.miss(1, user, "crash");
                    return;
                }
                Ok(Request::Call(call)) => {
                    if !self.replay(&call) {
                        self.backlog.push_back(call.into());
                    }
                }
                Ok(Request::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    self.draining = true;
                }
                Ok(other) => self.backlog.push_back(other),
                Err(RecvTimeoutError::Timeout) => {
                    self.miss(1, user, "timeout");
                    return;
                }
            }
        }
    }

    /// Records `n` deposits the server gave up waiting for.
    fn miss(&self, n: u64, user: UserId, why: &'static str) {
        self.missed.fetch_add(n, Ordering::Relaxed);
        self.stats.missed_deposits.add(n);
        self.stats
            .tracer
            .emit(|| Event::new(0, EventKind::MissedDeposit, user).detail(why));
    }

    /// Serves the bootstrap manifest for the server's *current* snapshot,
    /// (re)slicing when the snapshot has moved since the cache was built.
    /// `None` when the inner server exposes no read snapshot (adversaries)
    /// or its snapshot cannot be sliced.
    fn serve_bootstrap_manifest(&mut self) -> Option<(Vec<u8>, Ctr)> {
        let snap = self.inner.read_snapshot()?;
        let stale = self
            .bootstrap
            .as_ref()
            .is_none_or(|(src, _)| src.manifest().anchor != snap.root_digest());
        if stale {
            let src = ChunkSource::new(snap.db(), self.opts.bootstrap_chunk_bytes).ok()?;
            self.bootstrap = Some((src, snap.ctr()));
        }
        self.bootstrap
            .as_ref()
            .map(|(src, ctr)| (src.manifest().to_bytes(), *ctr))
    }

    /// Serves one chunk of the snapshot identified by `anchor`. The cached
    /// slicing answers requests for *its* snapshot even after the live tree
    /// has moved on (that is what makes an in-flight bootstrap resumable); a
    /// request for any other anchor is answered only if the current
    /// snapshot matches, otherwise declined so the client refetches the
    /// manifest.
    fn serve_bootstrap_chunk(&mut self, anchor: &Digest, index: u32) -> Option<Vec<u8>> {
        let cached = self
            .bootstrap
            .as_ref()
            .is_some_and(|(src, _)| src.manifest().anchor == *anchor);
        if !cached {
            let snap = self.inner.read_snapshot()?;
            if snap.root_digest() != *anchor {
                return None;
            }
            let src = ChunkSource::new(snap.db(), self.opts.bootstrap_chunk_bytes).ok()?;
            self.bootstrap = Some((src, snap.ctr()));
        }
        self.bootstrap
            .as_ref()
            .and_then(|(src, _)| src.chunk(index))
    }
}

/// The journal's shape table, for journal hits and fresh replies alike:
/// sends `entry` into `body`'s reply slot in the shape the slot asked for,
/// calling `before_send` first. A plain slot takes only a plain reply
/// (fresh or durably recovered), and a batch slot only a batch reply. Any
/// other pairing sends nothing and returns `false`: the call is then
/// executed, and the per-user sequence check in the inner server still
/// guards against double execution.
fn answer(body: &Body, entry: &JournaledReply, before_send: impl FnOnce()) -> bool {
    match (body, entry) {
        (Body::Op(_, reply), JournaledReply::Plain(r)) => deliver(reply, r.clone(), before_send),
        (Body::Batch(_, reply), JournaledReply::Batch(b)) => {
            deliver(reply, Some(b.clone()), before_send)
        }
        _ => return false,
    }
    true
}

/// Sends `value` once `before_send` has run. The reply channel may be gone
/// if the client detected deviation and bailed; that's fine.
fn deliver<T>(reply: &Sender<T>, value: T, before_send: impl FnOnce()) {
    before_send();
    let _ = reply.send(value);
}

/// Performs one remote operation, with bounded retry (see [`round_trip`]).
/// Every attempt resends `head` — the same `seq`, so the server's reply
/// journal guarantees the operation executes at most once, and the same
/// trace context, so a retry is a new span in the *same* trace — with a
/// body built around that attempt's reply sender.
pub(crate) fn remote_call<T>(
    tx: &Sender<Request>,
    head: Head,
    policy: &RetryPolicy,
    stats: &NetStats,
    mut body: impl FnMut(Sender<T>) -> Body,
) -> Result<T, NetError> {
    round_trip(tx, head.user, head.seq, head.ctx, policy, stats, |reply| {
        Call {
            head,
            body: body(reply),
        }
        .into()
    })
}

/// The one bounded-retry round trip behind every client request: each
/// attempt builds the request around a fresh one-shot reply sender and
/// waits [`RetryPolicy::attempt_timeout`] for the reply. A failed *send*
/// means the server thread (or the link to it) is gone — that is terminal.
/// A disconnected reply channel means the request was consumed but no
/// reply will come (a dropped request or reply in flight) — retry at once.
/// A timeout backs off exponentially before the retry. `seq` seeds the
/// backoff jitter and, with `user` and `ctx`, labels the retry events.
pub(crate) fn round_trip<R, T>(
    tx: &Sender<R>,
    user: UserId,
    seq: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
    mut make: impl FnMut(Sender<T>) -> R,
) -> Result<T, NetError> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            stats.retries.inc();
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::Retry, user)
                    .detail(format!("attempt={attempt}"))
                    .span_opt(ctx.map(|c| c.child(stage::RETRY)))
            });
        }
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(make(reply_tx)).map_err(|_| NetError::ServerGone)?;
        match reply_rx.recv_timeout(policy.attempt_timeout(user, seq, attempt)) {
            Ok(resp) => return Ok(resp),
            // The request or its reply was lost in flight; retry at once.
            Err(RecvTimeoutError::Disconnected) => continue,
            // No verdict on this attempt; the backoff grows with `attempt`.
            Err(RecvTimeoutError::Timeout) => continue,
        }
    }
    Err(NetError::Timeout { attempts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::{HonestServer, OpResult, ProtocolConfig};
    use tcvs_merkle::{u64_key, ChunkManifest};
    use tcvs_storage::{
        response_bytes, DurabilityOptions, DurableOptions, DurableServer, DurableStorage,
        MemMedium, StorageObs,
    };

    fn open_durable(medium: MemMedium) -> DurableServer<DurableStorage<MemMedium>> {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let store = DurableStorage::open(medium, DurableOptions::default());
        DurableServer::open(
            store,
            config,
            DurabilityOptions::default(),
            StorageObs::disabled(),
        )
        .expect("open durable server")
    }

    /// One request/reply exchange with the server thread, no retries.
    fn ask<T>(tx: &Sender<Request>, make: impl FnOnce(Sender<T>) -> Request) -> T {
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(make(reply_tx)).expect("server thread alive");
        reply_rx.recv().expect("reply delivered")
    }

    /// One call to the server thread, no retries.
    fn call<T>(
        tx: &Sender<Request>,
        (user, seq, round): (UserId, u64, u64),
        body: impl FnOnce(Sender<T>) -> Body,
    ) -> T {
        let head = Head::root(user, seq, round);
        ask(tx, |reply| {
            Call {
                head,
                body: body(reply),
            }
            .into()
        })
    }

    fn send_op(tx: &Sender<Request>, user: UserId, seq: u64, op: Op, round: u64) -> ServerResponse {
        call(tx, (user, seq, round), |reply| Body::Op(op, reply))
    }

    fn send_batch(
        tx: &Sender<Request>,
        user: UserId,
        seq: u64,
        ops: Vec<Op>,
        round: u64,
    ) -> Option<BatchResponse> {
        call(tx, (user, seq, round), |reply| Body::Batch(ops, reply))
    }

    fn journal_hits(stats: &NetStats) -> Option<u64> {
        stats.snapshot().counter("net.server.journal_hits")
    }

    /// The full durability wiring: operations flow through the transport to
    /// a durable inner server with their sequence numbers; when the whole
    /// transport (thread *and* its in-memory journal) is torn down and the
    /// medium loses its unsynced tail, a freshly spawned server over the
    /// recovered store still answers a retry of the last acknowledged
    /// operation from the journal — byte-identical, without re-executing —
    /// because `spawn` seeds the journal from `recovered_journal()`.
    #[test]
    fn recovered_journal_survives_transport_replacement() {
        let medium = MemMedium::new();
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(open_durable(medium.clone())),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        send_op(&tx, 7, 0, Op::Put(u64_key(1), b"a".to_vec()), 0);
        let acked = send_op(&tx, 7, 1, Op::Put(u64_key(2), b"b".to_vec()), 1);
        // Seq 1 displaced seq 0's journal entry: one eviction, counted.
        assert_eq!(
            stats.snapshot().counter("net.server.journal_evictions"),
            Some(1)
        );

        // Kill the transport (its thread-local journal dies with it) and the
        // page cache; only what the durable engine synced survives.
        drop(server);
        medium.crash();

        let stats2 = NetStats::disabled();
        let server2 = NetServer::spawn_observed(
            Box::new(open_durable(medium)),
            NetServerOptions::default(),
            stats2.clone(),
        );
        let tx2 = server2.wire().0;
        // A retry of the last acknowledged op: journal hit, not a re-run.
        let replay = send_op(&tx2, 7, 1, Op::Put(u64_key(2), b"b".to_vec()), 1);
        assert_eq!(response_bytes(&replay), response_bytes(&acked));
        let snap = stats2.snapshot();
        assert_eq!(snap.counter("net.server.journal_hits"), Some(1));
        assert_eq!(snap.counter("net.server.ops_served"), Some(0));

        // New work continues exactly where the acknowledged history ended.
        let next = send_op(&tx2, 7, 2, Op::Get(u64_key(2)), 2);
        assert_eq!(next.ctr, acked.ctr + 1);
    }

    /// The displaced journal entry is dropped only after the new reply has
    /// been sent; the journal itself is updated before the send, exactly as
    /// when the drop sat on the reply's critical path: a retry of the
    /// newest `seq` is a journal hit with the byte-identical reply, it is
    /// not re-executed, and evictions count one per displaced entry.
    #[test]
    fn retry_is_served_from_the_journal_after_the_displaced_entry_is_dropped() {
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(open_durable(MemMedium::new())),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        let mut acked = None;
        for seq in 0..4u64 {
            let op = Op::Put(u64_key(seq), vec![seq as u8; 64]);
            acked = Some(send_op(&tx, 7, seq, op, seq));
        }
        let acked = acked.expect("four ops acknowledged");
        let retry = send_op(&tx, 7, 3, Op::Put(u64_key(3), vec![3; 64]), 3);
        assert_eq!(response_bytes(&retry), response_bytes(&acked));
        // Another user's first op displaces nothing.
        send_op(&tx, 8, 0, Op::Get(u64_key(3)), 4);
        // The server counts an op after replying to it: join the thread
        // before reading the counters.
        drop(server);
        let snap = stats.snapshot();
        assert_eq!(snap.counter("net.server.journal_hits"), Some(1));
        assert_eq!(snap.counter("net.server.ops_served"), Some(5));
        assert_eq!(snap.counter("net.server.journal_evictions"), Some(3));
    }

    /// An in-place crash (`Request::Crash`) over a durable inner server:
    /// the recovered journal replaces the transport's copy and retries
    /// still hit it.
    #[test]
    fn crash_restart_reseeds_the_journal_from_durable_state() {
        let medium = MemMedium::new();
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(open_durable(medium)),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        let acked = send_op(&tx, 3, 9, Op::Put(u64_key(5), b"x".to_vec()), 0);
        server.crash_restart().expect("restart");
        let replay = send_op(&tx, 3, 9, Op::Put(u64_key(5), b"x".to_vec()), 0);
        assert_eq!(response_bytes(&replay), response_bytes(&acked));
        assert_eq!(stats.snapshot().counter("net.server.journal_hits"), Some(1));
    }

    /// The journal's shape table: a retry is answered from the journal in
    /// the shape it asks for when the journaled reply can take that shape,
    /// and executed otherwise.
    #[test]
    fn journal_answers_retries_in_the_shape_they_ask_for() {
        let cfg = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };

        let put = || Op::Put(u64_key(1), b"p".to_vec());

        // A plain retry of a plain reply, fresh or durably recovered, gets
        // it byte-identical.
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(open_durable(MemMedium::new())),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        let recovered = send_op(&tx, 1, 1, put(), 0);
        server.crash_restart().expect("restart");
        let fresh = send_op(&tx, 2, 1, Op::Get(u64_key(1)), 1);
        for (user, op, plain) in [(1, put(), recovered), (2, Op::Get(u64_key(1)), fresh)] {
            let retry = send_op(&tx, user, 1, op, 0);
            assert_eq!(response_bytes(&retry), response_bytes(&plain));
        }
        drop(server);
        assert_eq!(journal_hits(&stats), Some(2));

        // A batch reply answers only a batch retry; any other shape reusing
        // the batch's `(user, seq)` is executed, as is a batch reusing a
        // plain reply's.
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(HonestServer::new(&cfg)),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        let window = || vec![put(), Op::Get(u64_key(1))];
        let batch = send_batch(&tx, 3, 1, window(), 0).expect("honest servers batch");
        let retry = send_batch(&tx, 3, 1, window(), 0).expect("journaled batch");
        assert_eq!((retry.ctr, &retry.results), (batch.ctr, &batch.results));
        assert_eq!(journal_hits(&stats), Some(1));
        let plain = send_op(&tx, 3, 1, Op::Get(u64_key(1)), 1);
        assert_eq!(plain.ctr, batch.ctr + 2, "executed after the window");
        let plain = send_op(&tx, 4, 1, Op::Get(u64_key(1)), 2);
        let batch = send_batch(&tx, 4, 1, window(), 3).expect("honest servers batch");
        assert_eq!(batch.ctr, plain.ctr + 1, "executed after the plain op");
        drop(server);
        assert_eq!(journal_hits(&stats), Some(1));
    }

    /// An honest server declines a window holding an op no batch proof
    /// covers, as `Body::Batch` documents, and keeps serving: the next
    /// plain op runs at the counter the declined window left untouched.
    #[test]
    fn a_non_batchable_window_is_declined_and_the_server_keeps_serving() {
        let cfg = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let stats = NetStats::disabled();
        let server = NetServer::spawn_observed(
            Box::new(HonestServer::new(&cfg)),
            NetServerOptions::default(),
            stats.clone(),
        );
        let tx = server.wire().0;
        let first = send_op(&tx, 1, 1, Op::Put(u64_key(1), b"a".to_vec()), 0);
        for (seq, op) in [(2, Op::Delete(u64_key(1))), (3, Op::Range(None, None))] {
            let window = vec![Op::Get(u64_key(1)), op];
            assert!(send_batch(&tx, 1, seq, window, 1).is_none());
        }
        let next = send_op(&tx, 1, 4, Op::Get(u64_key(1)), 2);
        assert_eq!(next.ctr, first.ctr + 1);
        assert_eq!(next.result, OpResult::Value(Some(b"a".to_vec())));
        drop(server);
        assert_eq!(stats.snapshot().counter("net.batch.declined"), Some(2));
    }

    /// Once the server thread has exited, a state sample returns `None`
    /// instead of waiting or panicking.
    #[test]
    fn sample_after_shutdown_is_none() {
        let cfg = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let mut server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
        server
            .tx
            .send(Request::Shutdown)
            .expect("server thread alive");
        let thread = server.join.take().expect("thread running");
        thread.join().expect("clean exit");
        assert!(server.sample().is_none());
    }

    /// A bootstrap chunk served by the shutdown drain is cut from the same
    /// slicing as the manifest its client holds: the configured chunk budget
    /// and the loop's cached source.
    #[test]
    fn drained_bootstrap_chunk_matches_the_configured_slicing() {
        let cfg = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let mut inner = HonestServer::new(&cfg);
        for i in 0..64u64 {
            inner.handle_op(0, &Op::Put(u64_key(i), vec![i as u8; 256]), i);
        }
        let server = NetServer::spawn_with(
            Box::new(inner),
            NetServerOptions {
                blocking_signatures: true,
                deposit_timeout: Duration::from_secs(30),
                bootstrap_chunk_bytes: 4 * 1024,
            },
        );
        let tx = server.wire().0;
        let (manifest, _) = ask(&tx, |reply| Request::BootstrapManifest { reply })
            .expect("honest servers serve bootstrap");
        let anchor = ChunkManifest::from_bytes(&manifest)
            .expect("manifest decodes")
            .anchor;
        let index = 2;
        let first = ask(&tx, |reply| Request::BootstrapChunk {
            anchor,
            index,
            reply,
        });
        assert!(first.is_some(), "the snapshot spans several chunks");
        // A plain op blocks the server on a deposit that never comes.
        send_op(&tx, 1, 1, Op::Get(u64_key(0)), 64);
        let (reply, drained) = bounded(1);
        tx.send(Request::BootstrapChunk {
            anchor,
            index,
            reply,
        })
        .expect("server thread alive");
        server.shutdown();
        let drained = drained.recv().expect("served by the drain");
        assert!(drained == first, "the drain cut chunk {index} differently");
    }
}

//! The threaded server: one thread owning a [`ServerApi`] implementation,
//! serving requests over crossbeam channels.
//!
//! Protocol I's blocking step is *physically* reproduced: in blocking mode
//! the server thread will not take the next operation until the previous
//! client's signature deposit has arrived — this is what experiment E6's
//! wall-clock throughput numbers measure. Under faults the block is bounded
//! by [`NetServerOptions::deposit_timeout`]: a lost or abandoned deposit is
//! counted in [`NetServer::missed_deposits`] and the server moves on instead
//! of deadlocking.
//!
//! Two batching levers close most of the verified-read gap against the
//! trusted baseline (see DESIGN.md §batching):
//!
//! * **Pipelined deposits** ([`NetServerOptions::pipeline_depth`]): a
//!   pipelined Protocol I request is served immediately, re-anchored at the
//!   client's own last deposited signature, instead of stalling on the
//!   previous client's deposit. The blocking wait survives only as a
//!   *catch-up* before any response whose signature must be current.
//! * **Batched snapshot publication**
//!   ([`NetServerOptions::publish_every_ops`]): the concurrent-read slot is
//!   republished every `W` writes or `T` elapsed, and always before the
//!   server goes idle, so staleness is bounded by `min(W ops, T)` under
//!   load and zero at idle.
//!
//! Protocol II windows travel as [`Request::OpBatch`] and are verified by
//! the client as one exchange over a shared [`tcvs_core::BatchResponse`].
//!
//! Every operation carries a per-user sequence number; the thread keeps the
//! last reply per user in a *reply journal* so a retried request (after a
//! dropped reply) is answered from the journal instead of re-executing —
//! exactly-once semantics over an at-least-once transport. The journal is
//! part of the server's durable state: it survives [`NetServer::crash_restart`]
//! along with whatever the inner [`ServerApi`] chooses to persist.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use tcvs_core::{
    BatchResponse, Ctr, Digest, Epoch, Op, OpResult, PipelinedResponse, ReadSnapshot, ServerApi,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::{ChunkSource, VerificationObject};
use tcvs_obs::{stage, Event, EventKind, SpanContext, NO_ACTOR};

use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;

/// A request to the server thread.
pub(crate) enum Request {
    Op {
        user: UserId,
        /// Per-user sequence number; retries of the same operation reuse it.
        seq: u64,
        op: Op,
        round: u64,
        /// Wire-propagated trace context: the client's root span for this
        /// logical operation. Every event the server (or an interposed
        /// fault link) emits while handling the request is a child of it.
        ctx: Option<SpanContext>,
        reply: Sender<ServerResponse>,
    },
    /// A Protocol II window of operations verified as one exchange against
    /// one pre-state root. The server may decline (`None`) — e.g. the
    /// window mixes non-batchable structural ops, or the deployment does
    /// not implement batching — in which case the client falls back to
    /// per-operation execution with fresh sequence numbers.
    OpBatch {
        user: UserId,
        seq: u64,
        ops: Vec<Op>,
        round: u64,
        ctx: Option<SpanContext>,
        reply: Sender<Option<BatchResponse>>,
    },
    /// A Protocol I operation the client is willing to verify against its
    /// own last *deposited* signature (its frontier) instead of a
    /// signature over the immediately preceding state — letting the server
    /// skip the blocking deposit wait when the pipeline is shallow enough.
    OpPipelined {
        user: UserId,
        seq: u64,
        op: Op,
        round: u64,
        ctx: Option<SpanContext>,
        reply: Sender<PipelinedReply>,
    },
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
    /// Crash the inner server and restart it from persisted state.
    Crash {
        ack: Sender<()>,
    },
    Shutdown,
}

/// Reply to a pipelined Protocol I request: the anchored fast-path shape
/// when the server could serve without waiting, or an ordinary blocking-path
/// response (signature current as of the reply) when it fell back.
#[derive(Clone)]
pub(crate) enum PipelinedReply {
    Pipelined(PipelinedResponse),
    Legacy(ServerResponse),
}

/// A read-only request for the concurrent snapshot read path. Carries no
/// user identity or sequence number: reads from a published snapshot are
/// idempotent, so retries need no journal.
pub(crate) struct ReadRequest {
    pub(crate) op: Op,
    /// Wire-propagated trace context for the reader's logical operation.
    pub(crate) ctx: Option<SpanContext>,
    pub(crate) reply: Sender<ReadResponse>,
}

/// Reply from the snapshot read path: the answer, its proof, and the
/// snapshot root/counter the proof is against.
pub(crate) struct ReadResponse {
    pub(crate) result: OpResult,
    pub(crate) vo: VerificationObject,
    /// Root digest of the snapshot the server claims this answer reflects.
    pub(crate) root: Digest,
    /// Counter the snapshot was current as of.
    pub(crate) ctr: Ctr,
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// An opaque handle onto a server thread's request channel. Only this
/// crate can look inside; clients obtain one through [`Endpoint`].
pub struct WireHandle(pub(crate) Sender<Request>);

/// An opaque handle onto a server's concurrent read path (if it has one).
/// Only this crate can look inside. It carries two ways in: the published
/// snapshot slot itself (proof-free reads executed on the caller's thread —
/// the shared-memory fast path the trusted baseline uses) and the channel
/// into the server's reader pool (proof-bearing reads for verifying
/// clients).
pub struct ReadWireHandle {
    pub(crate) slot: SnapshotSlot,
    pub(crate) tx: Sender<ReadRequest>,
}

/// Something clients can bind to: a [`NetServer`] directly, or a
/// [`crate::FaultLink`] interposed in front of one.
///
/// The trait is sealed — only this crate's types implement it — because its
/// wire format (the request channel) is an internal detail.
pub trait Endpoint: sealed::Sealed {
    /// The wire into this endpoint (crate-internal).
    #[doc(hidden)]
    fn wire(&self) -> WireHandle;

    /// The concurrent read wire, if this endpoint exposes one. The default
    /// is `None`: a [`crate::FaultLink`] deliberately inherits it, so faults
    /// exercise the serialized, detection-bearing path — the read path is a
    /// scalability side channel only honest deployments opt into.
    #[doc(hidden)]
    fn read_wire(&self) -> Option<ReadWireHandle> {
        None
    }
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
    /// Number of reader threads serving point/range queries concurrently
    /// from the latest published snapshot (only spawned when the inner
    /// server opts in via [`ServerApi::read_snapshot`]). Clamped to ≥ 1.
    pub read_pool: usize,
    /// Maximum number of operations the server may run ahead of a user's
    /// last deposited signature before a pipelined request falls back to
    /// the blocking path. `0` (the default) disables pipelining entirely:
    /// pipelined requests are served exactly like blocking ones.
    ///
    /// With depth `d > 0` the server answers pipelined operations without
    /// waiting for the preceding deposit; the reply re-anchors the client
    /// at its own frontier, so detection stays k-bounded (the deposit lag
    /// adds at most `d` undetected operations on top of Theorem 4.1's
    /// bound — see DESIGN.md).
    pub pipeline_depth: usize,
    /// Republish the concurrent-read snapshot every this many committed
    /// operations (write batching of the slot swap). `1` (the default)
    /// preserves strict read-your-writes across the two paths; `W > 1`
    /// relaxes it to bounded staleness: a reader may miss at most the last
    /// `W - 1` acknowledged writes, and never misses any once the server
    /// goes idle or [`NetServerOptions::publish_interval`] elapses.
    pub publish_every_ops: u64,
    /// Time bound on snapshot staleness under a sustained write load:
    /// whenever this much time has passed since the last publication, the
    /// next committed operation republishes regardless of the write count.
    /// (Checked at operation boundaries — an idle server publishes any
    /// pending writes before blocking on its queue, so idle staleness is
    /// zero.)
    pub publish_interval: Duration,
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
            read_pool: 2,
            pipeline_depth: 0,
            publish_every_ops: 1,
            publish_interval: Duration::from_millis(1),
            bootstrap_chunk_bytes: 64 * 1024,
        }
    }
}

/// The slot the write thread publishes fresh snapshots into and readers
/// load from. Swapping the inner `Arc` is O(1) and never torn: a reader
/// either sees the tree before an update or after it, never a mix.
pub(crate) type SnapshotSlot = Arc<Mutex<Arc<ReadSnapshot>>>;

/// What the journal remembers about a served request: the reply in the
/// shape it went out. Retries are answered in a compatible shape — a plain
/// retry of a pipelined op gets the embedded plain response, a pipelined
/// retry of a plain op (or of a durable server's recovered reply) gets it
/// wrapped as a legacy reply. Batch replies only answer batch retries.
#[derive(Clone)]
enum JournaledReply {
    Op(ServerResponse),
    Batch(BatchResponse),
    Pipelined(PipelinedReply),
}

/// The per-user reply journal: last `(seq, reply)` served to each user.
type ReplyJournal = HashMap<UserId, (u64, JournaledReply)>;

/// Write-batched publication of the concurrent-read snapshot. With the
/// default `publish_every_ops = 1` every committed operation republishes
/// before its reply is sent (strict read-your-writes, the pre-batching
/// behavior); with a wider window the slot swap and its lock traffic are
/// amortized over `W` writes, bounded in staleness by the window and by
/// `publish_interval`, and flushed whenever the server is about to go idle.
struct SnapshotPublisher {
    slot: Option<SnapshotSlot>,
    every_ops: u64,
    interval: Duration,
    /// Committed operations not yet reflected in the published snapshot.
    pending: u64,
    last: Instant,
    stats: NetStats,
}

impl SnapshotPublisher {
    fn new(slot: Option<SnapshotSlot>, opts: &NetServerOptions, stats: NetStats) -> Self {
        SnapshotPublisher {
            slot,
            every_ops: opts.publish_every_ops.max(1),
            interval: opts.publish_interval,
            pending: 0,
            last: Instant::now(),
            stats,
        }
    }

    /// Accounts `ops` freshly committed operations and republishes if the
    /// write window is full or the time bound has elapsed.
    fn record(&mut self, inner: &mut dyn ServerApi, ops: u64) {
        if self.slot.is_none() {
            return;
        }
        self.pending += ops;
        if self.pending >= self.every_ops || self.last.elapsed() >= self.interval {
            self.force(inner);
        }
    }

    /// Republishes if any committed operation is still unpublished. Called
    /// before the server blocks idle on its queue, so snapshot staleness is
    /// bounded by the window only *while the server is busy*.
    fn flush(&mut self, inner: &mut dyn ServerApi) {
        if self.pending > 0 {
            self.force(inner);
        }
    }

    /// Unconditional republication (crash recovery must make the restored
    /// state visible even when nothing is pending).
    fn force(&mut self, inner: &mut dyn ServerApi) {
        let Some(slot) = &self.slot else { return };
        if let Some(snap) = inner.read_snapshot() {
            *slot.lock() = Arc::new(snap);
            self.stats.snapshot_publishes.inc();
            self.stats.snapshot_lag_ops.observe(self.pending);
            self.pending = 0;
            self.last = Instant::now();
        }
    }
}

/// Handle to a running server thread.
pub struct NetServer {
    tx: Sender<Request>,
    read: Option<(SnapshotSlot, Sender<ReadRequest>)>,
    join: Option<JoinHandle<()>>,
    missed: Arc<AtomicU64>,
}

impl sealed::Sealed for NetServer {}

impl Endpoint for NetServer {
    fn wire(&self) -> WireHandle {
        WireHandle(self.tx.clone())
    }

    fn read_wire(&self) -> Option<ReadWireHandle> {
        self.read.as_ref().map(|(slot, tx)| ReadWireHandle {
            slot: Arc::clone(slot),
            tx: tx.clone(),
        })
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
    /// `stats`. Timestamps are taken and metrics recorded strictly outside
    /// the snapshot-slot critical section, so attaching stats does not
    /// lengthen the serialized region the concurrent readers contend on.
    pub fn spawn_observed(
        mut inner: Box<dyn ServerApi + Send>,
        opts: NetServerOptions,
        stats: NetStats,
    ) -> NetServer {
        let (tx, rx): (Sender<Request>, Receiver<Request>) = unbounded();
        let missed = Arc::new(AtomicU64::new(0));
        let missed_in = Arc::clone(&missed);
        // Probe for a read path before `inner` moves into the write thread.
        // Adversaries keep the default `None` and never get reader threads:
        // every answer they give stays on the serialized, countered path.
        let read = inner.read_snapshot().map(|snap| {
            let slot: SnapshotSlot = Arc::new(Mutex::new(Arc::new(snap)));
            let (read_tx, read_rx) = unbounded::<ReadRequest>();
            spawn_readers(&slot, read_rx, opts.read_pool.max(1), stats.clone());
            (slot, read_tx)
        });
        let slot = read.as_ref().map(|(slot, _)| Arc::clone(slot));
        let join = std::thread::spawn(move || {
            // Requests that arrived while the server was blocked waiting for
            // a Protocol I signature deposit; replayed in arrival order.
            let mut backlog: VecDeque<Request> = VecDeque::new();
            let mut journal = ReplyJournal::new();
            let mut publisher = SnapshotPublisher::new(slot, &opts, stats.clone());
            // Lazily-built chunk source for the bootstrap path, keyed by the
            // snapshot anchor it was sliced from. Kept across crash/restart:
            // serving a consistent *stale* snapshot is exactly what lets a
            // client resume an interrupted bootstrap.
            let mut bootstrap: BootstrapCache = None;
            // A durable inner server may already hold recovered replies from
            // a previous process; a retry arriving over the wire must hit
            // them, not re-execute.
            seed_journal(inner.as_ref(), &mut journal);
            loop {
                let req = match backlog.pop_front() {
                    Some(r) => r,
                    None => match rx.try_recv() {
                        Ok(r) => r,
                        Err(crossbeam::channel::TryRecvError::Empty) => {
                            // About to block idle: make every acknowledged
                            // write visible to readers first, so batched
                            // publication never leaves a stale snapshot
                            // standing while nothing else is happening.
                            publisher.flush(inner.as_mut());
                            match rx.recv() {
                                Ok(r) => r,
                                Err(_) => return,
                            }
                        }
                        Err(crossbeam::channel::TryRecvError::Disconnected) => return,
                    },
                };
                // A retry of an already-executed operation: serve the
                // journaled reply, never re-execute (and never re-enter the
                // blocking wait — the first delivery already did).
                let req = match serve_from_journal(&journal, &stats, req) {
                    Some(r) => r,
                    None => continue,
                };
                match req {
                    Request::Op {
                        user,
                        seq,
                        op,
                        round,
                        ctx,
                        reply,
                    } => {
                        // In pipelined mode the deposit wait moves *before*
                        // the operation: drain the outstanding deposits so
                        // the signature attached to this plain (blocking-
                        // path) response is current, instead of stalling
                        // after it.
                        if opts.pipeline_depth > 0
                            && !catch_up(
                                inner.as_mut(),
                                &rx,
                                &mut backlog,
                                &mut journal,
                                opts.deposit_timeout,
                                &missed_in,
                                &mut publisher,
                                &stats,
                            )
                        {
                            drain(
                                inner.as_mut(),
                                &rx,
                                backlog,
                                &mut journal,
                                &mut publisher,
                                &stats,
                            );
                            return;
                        }
                        // The op timestamp opens before the serialized region
                        // and closes after it; the histogram/tracer updates
                        // happen strictly after the publisher released the
                        // slot lock (and after the reply is on its way).
                        let started = Instant::now();
                        // The sequence number rides down to the inner server
                        // so a durable backend can log it and recover its own
                        // copy of the reply journal.
                        let resp = inner.handle_op_seq(user, seq, &op, round);
                        let displaced = journal_insert(
                            &mut journal,
                            &stats,
                            user,
                            seq,
                            JournaledReply::Op(resp.clone()),
                        );
                        // Publish before replying: a client that sees its
                        // write acknowledged must find it in the snapshot
                        // (read-your-writes across the two paths, relaxed to
                        // a bounded window when `publish_every_ops > 1`).
                        publisher.record(inner.as_mut(), 1);
                        let ctr = resp.ctr;
                        // The reply channel may be dropped if the client
                        // detected deviation and bailed; that's fine.
                        let _ = reply.send(resp);
                        drop(displaced);
                        stats.ops_served.inc();
                        stats
                            .op_micros
                            .observe(started.elapsed().as_micros() as u64);
                        stats.tracer.emit(|| {
                            Event::new(ctr, EventKind::OpServed, user)
                                .detail(format!("seq={seq} round={round}"))
                                .span_opt(ctx.map(|c| c.child(stage::SERVER)))
                        });
                        if opts.blocking_signatures
                            && opts.pipeline_depth == 0
                            && !blocking_wait(
                                inner.as_mut(),
                                &rx,
                                &mut backlog,
                                &mut journal,
                                user,
                                opts.deposit_timeout,
                                &missed_in,
                                &mut publisher,
                                &stats,
                            )
                        {
                            drain(
                                inner.as_mut(),
                                &rx,
                                backlog,
                                &mut journal,
                                &mut publisher,
                                &stats,
                            );
                            return;
                        }
                    }
                    Request::OpBatch {
                        user,
                        seq,
                        ops,
                        round,
                        ctx,
                        reply,
                    } => {
                        let started = Instant::now();
                        match inner.handle_op_batch(user, seq, &ops, round) {
                            Some(resp) => {
                                let displaced = journal_insert(
                                    &mut journal,
                                    &stats,
                                    user,
                                    seq,
                                    JournaledReply::Batch(resp.clone()),
                                );
                                let n = resp.window_len() as u64;
                                publisher.record(inner.as_mut(), n);
                                let ctr = resp.ctr;
                                let _ = reply.send(Some(resp));
                                drop(displaced);
                                stats.batch_windows.inc();
                                stats.batch_ops.add(n);
                                stats.ops_served.add(n);
                                stats
                                    .op_micros
                                    .observe(started.elapsed().as_micros() as u64);
                                stats.tracer.emit(|| {
                                    Event::new(ctr, EventKind::OpServed, user)
                                        .detail(format!("seq={seq} round={round} batch={n}"))
                                        .span_opt(ctx.map(|c| c.child(stage::SERVER)))
                                });
                            }
                            // Declined: side-effect free by contract, so not
                            // journaled — a retry may legitimately decline
                            // again or (after a crash-restart) succeed.
                            None => {
                                stats.batch_declined.inc();
                                let _ = reply.send(None);
                            }
                        }
                        // No blocking wait: batch windows are a Protocol II
                        // path, deposits are asynchronous state tokens.
                    }
                    Request::OpPipelined {
                        user,
                        seq,
                        op,
                        round,
                        ctx,
                        reply,
                    } => {
                        let started = Instant::now();
                        let pipelined = if opts.pipeline_depth > 0 {
                            inner.handle_op_pipelined(user, seq, &op, round, opts.pipeline_depth)
                        } else {
                            None
                        };
                        if let Some(presp) = pipelined {
                            let displaced = journal_insert(
                                &mut journal,
                                &stats,
                                user,
                                seq,
                                JournaledReply::Pipelined(PipelinedReply::Pipelined(presp.clone())),
                            );
                            publisher.record(inner.as_mut(), 1);
                            let ctr = presp.resp.ctr;
                            let lag = presp.backfill.len() as u64;
                            let _ = reply.send(PipelinedReply::Pipelined(presp));
                            drop(displaced);
                            stats.pipelined_served.inc();
                            stats.pipeline_backfill.observe(lag);
                            stats.ops_served.inc();
                            stats
                                .op_micros
                                .observe(started.elapsed().as_micros() as u64);
                            stats.tracer.emit(|| {
                                Event::new(ctr, EventKind::OpServed, user)
                                    .detail(format!("seq={seq} round={round} backfill={lag}"))
                                    .span_opt(ctx.map(|c| c.child(stage::SERVER)))
                            });
                        } else {
                            // Fallback to the blocking path: catch up on the
                            // outstanding deposits first so the attached
                            // signature is current, then serve and (in
                            // blocking deployments with pipelining off) wait
                            // for this op's deposit as usual.
                            if opts.pipeline_depth > 0 {
                                stats.pipeline_fallbacks.inc();
                                if !catch_up(
                                    inner.as_mut(),
                                    &rx,
                                    &mut backlog,
                                    &mut journal,
                                    opts.deposit_timeout,
                                    &missed_in,
                                    &mut publisher,
                                    &stats,
                                ) {
                                    drain(
                                        inner.as_mut(),
                                        &rx,
                                        backlog,
                                        &mut journal,
                                        &mut publisher,
                                        &stats,
                                    );
                                    return;
                                }
                            }
                            let resp = inner.handle_op_seq(user, seq, &op, round);
                            let displaced = journal_insert(
                                &mut journal,
                                &stats,
                                user,
                                seq,
                                JournaledReply::Pipelined(PipelinedReply::Legacy(resp.clone())),
                            );
                            publisher.record(inner.as_mut(), 1);
                            let ctr = resp.ctr;
                            let _ = reply.send(PipelinedReply::Legacy(resp));
                            drop(displaced);
                            stats.ops_served.inc();
                            stats
                                .op_micros
                                .observe(started.elapsed().as_micros() as u64);
                            stats.tracer.emit(|| {
                                Event::new(ctr, EventKind::OpServed, user)
                                    .detail(format!("seq={seq} round={round} fallback"))
                                    .span_opt(ctx.map(|c| c.child(stage::SERVER)))
                            });
                            if opts.blocking_signatures
                                && opts.pipeline_depth == 0
                                && !blocking_wait(
                                    inner.as_mut(),
                                    &rx,
                                    &mut backlog,
                                    &mut journal,
                                    user,
                                    opts.deposit_timeout,
                                    &missed_in,
                                    &mut publisher,
                                    &stats,
                                )
                            {
                                drain(
                                    inner.as_mut(),
                                    &rx,
                                    backlog,
                                    &mut journal,
                                    &mut publisher,
                                    &stats,
                                );
                                return;
                            }
                        }
                    }
                    Request::Signature { user, signed, ctx } => {
                        let ctr = signed.ctr;
                        inner.deposit_signature(user, signed);
                        stats.tracer.emit(|| {
                            Event::new(ctr, EventKind::Deposit, user)
                                .span_opt(ctx.map(|c| c.child(stage::DEPOSIT)))
                        });
                    }
                    Request::EpochState(s) => inner.deposit_epoch_state(s),
                    Request::FetchEpochStates { user, epoch, reply } => {
                        let _ = reply.send(inner.fetch_epoch_states(user, epoch));
                    }
                    Request::Checkpoint(c) => inner.deposit_checkpoint(c),
                    Request::FetchCheckpoint { user, epoch, reply } => {
                        let _ = reply.send(inner.fetch_checkpoint(user, epoch));
                    }
                    Request::BootstrapManifest { reply } => {
                        // Publish pending writes first so the manifest
                        // reflects every acknowledged operation.
                        publisher.flush(inner.as_mut());
                        let _ = reply.send(serve_bootstrap_manifest(
                            inner.as_mut(),
                            &mut bootstrap,
                            opts.bootstrap_chunk_bytes,
                        ));
                    }
                    Request::BootstrapChunk {
                        anchor,
                        index,
                        reply,
                    } => {
                        let _ = reply.send(serve_bootstrap_chunk(
                            inner.as_mut(),
                            &mut bootstrap,
                            opts.bootstrap_chunk_bytes,
                            &anchor,
                            index,
                        ));
                    }
                    Request::Crash { ack } => {
                        stats.crashes.inc();
                        stats
                            .tracer
                            .emit(|| Event::new(0, EventKind::Crash, NO_ACTOR));
                        // The reply journal is durable transport state: a
                        // durable inner server recovers its own copy, which
                        // replaces ours; otherwise the in-memory journal
                        // survives alongside whatever the inner server keeps.
                        inner.crash_restart();
                        seed_journal(inner.as_ref(), &mut journal);
                        // Readers must see the restored state, not a
                        // pre-crash root the restarted server no longer has.
                        publisher.force(inner.as_mut());
                        let _ = ack.send(());
                        stats
                            .tracer
                            .emit(|| Event::new(0, EventKind::Restart, NO_ACTOR));
                    }
                    Request::Shutdown => {
                        drain(
                            inner.as_mut(),
                            &rx,
                            backlog,
                            &mut journal,
                            &mut publisher,
                            &stats,
                        );
                        return;
                    }
                }
            }
        });
        NetServer {
            tx,
            read,
            join: Some(join),
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

/// Spawns the reader pool: detached threads pulling read requests off a
/// shared queue and answering them from the latest published snapshot.
/// They exit when every read-wire sender is gone.
fn spawn_readers(
    slot: &SnapshotSlot,
    read_rx: Receiver<ReadRequest>,
    pool: usize,
    stats: NetStats,
) {
    let read_rx = Arc::new(Mutex::new(read_rx));
    for _ in 0..pool {
        let slot = Arc::clone(slot);
        let read_rx = Arc::clone(&read_rx);
        let stats = stats.clone();
        std::thread::spawn(move || loop {
            // Hold the queue lock only to dequeue; serving (prune + replay)
            // happens outside it, so readers overlap on multi-core hosts.
            let dequeued = {
                let guard = read_rx.lock();
                guard.recv()
            };
            let req = match dequeued {
                Ok(r) => r,
                Err(_) => return,
            };
            // The timestamp opens *after* the slot lock has been taken and
            // released (the clone is one refcount bump under the guard);
            // nothing below touches the slot again, so instrumentation adds
            // zero time to the critical section writers contend on.
            let snap = Arc::clone(&slot.lock());
            let started = Instant::now();
            match snap.serve(&req.op) {
                Some((result, vo)) => {
                    let ctr = snap.ctr();
                    let _ = req.reply.send(ReadResponse {
                        result,
                        vo,
                        root: snap.root_digest(),
                        ctr,
                    });
                    stats.reads_served.inc();
                    stats
                        .read_micros
                        .observe(started.elapsed().as_micros() as u64);
                    stats.tracer.emit(|| {
                        Event::new(ctr, EventKind::ReadServed, NO_ACTOR)
                            .span_opt(req.ctx.map(|c| c.child(stage::READ)))
                    });
                }
                // An update on the read wire is a client bug; dropping the
                // reply sender disconnects the waiter rather than serving a
                // state transition outside the serialized path.
                None => drop(req.reply),
            }
        });
    }
}

/// Answers `req` from the reply journal when its `(user, seq)` matches the
/// journaled entry and the reply shapes are compatible, emitting the
/// journal-hit event. Returns the request back when it must be executed.
///
/// Shape conversions: a plain retry of a pipelined reply gets the embedded
/// plain response; a pipelined retry of a plain journaled reply (the only
/// shape a durable server recovers) gets it wrapped as `Legacy`. A batch
/// reply answers only a batch retry with the same `(user, seq)` — any other
/// pairing falls through to execution, where the per-user sequence check in
/// the inner server still guards against double execution.
fn serve_from_journal(journal: &ReplyJournal, stats: &NetStats, req: Request) -> Option<Request> {
    let (user, seq) = match &req {
        Request::Op { user, seq, .. }
        | Request::OpBatch { user, seq, .. }
        | Request::OpPipelined { user, seq, .. } => (*user, *seq),
        _ => return Some(req),
    };
    let entry = match journal.get(&user) {
        Some((s, entry)) if *s == seq => entry,
        _ => return Some(req),
    };
    let compatible = matches!(
        (&req, entry),
        (
            Request::Op { .. } | Request::OpPipelined { .. },
            JournaledReply::Op(_) | JournaledReply::Pipelined(_)
        ) | (Request::OpBatch { .. }, JournaledReply::Batch(_))
    );
    if !compatible {
        return Some(req);
    }
    stats.journal_hits.inc();
    match req {
        Request::Op { ctx, reply, .. } => {
            let resp = match entry {
                JournaledReply::Op(r) => r.clone(),
                JournaledReply::Pipelined(PipelinedReply::Legacy(r)) => r.clone(),
                JournaledReply::Pipelined(PipelinedReply::Pipelined(p)) => p.resp.clone(),
                JournaledReply::Batch(_) => unreachable!("shape checked above"),
            };
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::JournalHit, user)
                    .span_opt(ctx.map(|c| c.child(stage::JOURNAL)))
            });
            let _ = reply.send(resp);
        }
        Request::OpPipelined { ctx, reply, .. } => {
            let resp = match entry {
                JournaledReply::Op(r) => PipelinedReply::Legacy(r.clone()),
                JournaledReply::Pipelined(p) => p.clone(),
                JournaledReply::Batch(_) => unreachable!("shape checked above"),
            };
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::JournalHit, user)
                    .span_opt(ctx.map(|c| c.child(stage::JOURNAL)))
            });
            let _ = reply.send(resp);
        }
        Request::OpBatch { ctx, reply, .. } => {
            let resp = match entry {
                JournaledReply::Batch(b) => b.clone(),
                _ => unreachable!("shape checked above"),
            };
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::JournalHit, user)
                    .span_opt(ctx.map(|c| c.child(stage::JOURNAL)))
            });
            let _ = reply.send(Some(resp));
        }
        _ => unreachable!("only op-shaped requests reach here"),
    }
    None
}

/// Installs `user`'s newest reply, evicting the entry below the freshly
/// acknowledged watermark. A new sequence number from a user is an implicit
/// ack of every older one (the client retries strictly in order), so the
/// journal stays bounded at one entry per user; each displaced entry is
/// counted so deployments can see the eviction rate.
///
/// The displaced reply is *returned*, not dropped: it owns a whole proof,
/// and freeing that is work the client should not wait behind. Callers
/// hold it across `reply.send` and let it drop once the new reply is on
/// its way.
#[must_use = "drop the displaced reply after the new one has been sent"]
fn journal_insert(
    journal: &mut ReplyJournal,
    stats: &NetStats,
    user: UserId,
    seq: u64,
    resp: JournaledReply,
) -> Option<JournaledReply> {
    let (old_seq, displaced) = journal.insert(user, (seq, resp))?;
    if old_seq < seq {
        stats.journal_evictions.inc();
    }
    Some(displaced)
}

/// Re-seeds the transport journal from whatever the inner server recovered
/// durably, so a retry of a pre-crash operation is still answered from the
/// journal instead of re-executing. An inner server with no durable journal
/// (`None`) keeps the transport thread's in-memory journal as before.
/// The server thread's cached chunk source: the slicing of one snapshot,
/// with the counter that snapshot was current as of.
type BootstrapCache = Option<(ChunkSource, Ctr)>;

/// Serves the bootstrap manifest for the server's *current* snapshot,
/// (re)slicing when the snapshot has moved since the cache was built.
/// `None` when the inner server exposes no read snapshot (adversaries) or
/// its snapshot cannot be sliced.
fn serve_bootstrap_manifest(
    inner: &mut dyn ServerApi,
    cache: &mut BootstrapCache,
    budget: usize,
) -> Option<(Vec<u8>, Ctr)> {
    let snap = inner.read_snapshot()?;
    let stale = cache
        .as_ref()
        .is_none_or(|(src, _)| src.manifest().anchor != snap.root_digest());
    if stale {
        let src = ChunkSource::new(snap.db(), budget).ok()?;
        *cache = Some((src, snap.ctr()));
    }
    cache
        .as_ref()
        .map(|(src, ctr)| (src.manifest().to_bytes(), *ctr))
}

/// Serves one chunk of the snapshot identified by `anchor`. The cached
/// slicing answers requests for *its* snapshot even after the live tree has
/// moved on (that is what makes an in-flight bootstrap resumable); a request
/// for any other anchor is answered only if the current snapshot matches,
/// otherwise declined so the client refetches the manifest.
fn serve_bootstrap_chunk(
    inner: &mut dyn ServerApi,
    cache: &mut BootstrapCache,
    budget: usize,
    anchor: &Digest,
    index: u32,
) -> Option<Vec<u8>> {
    let cached = cache
        .as_ref()
        .is_some_and(|(src, _)| src.manifest().anchor == *anchor);
    if !cached {
        let snap = inner.read_snapshot()?;
        if snap.root_digest() != *anchor {
            return None;
        }
        let src = ChunkSource::new(snap.db(), budget).ok()?;
        *cache = Some((src, snap.ctr()));
    }
    cache.as_ref().and_then(|(src, _)| src.chunk(index))
}

fn seed_journal(inner: &dyn ServerApi, journal: &mut ReplyJournal) {
    if let Some(entries) = inner.recovered_journal() {
        journal.clear();
        for (user, seq, resp) in entries {
            journal.insert(user, (seq, JournaledReply::Op(resp)));
        }
    }
}

/// Pipelined mode's replacement for the post-op blocking wait: before the
/// server serves any response whose signature must be *current* (a plain
/// blocking-path op, or a pipelined fallback), drain the in-flight deposits
/// until none is outstanding. Each wait leg is bounded by `deposit_timeout`;
/// on timeout the remaining lag is recorded as missed deposits and the
/// server proceeds — the stale signature then surfaces at the client exactly
/// as a blocking-mode miss would. Returns `false` iff the server must shut
/// down.
#[allow(clippy::too_many_arguments)]
fn catch_up(
    inner: &mut dyn ServerApi,
    rx: &Receiver<Request>,
    backlog: &mut VecDeque<Request>,
    journal: &mut ReplyJournal,
    deposit_timeout: Duration,
    missed: &AtomicU64,
    publisher: &mut SnapshotPublisher,
    stats: &NetStats,
) -> bool {
    loop {
        let lag = inner.deposit_lag();
        if lag == 0 {
            return true;
        }
        match rx.recv_timeout(deposit_timeout) {
            Ok(Request::Signature { user, signed, ctx }) => {
                let ctr = signed.ctr;
                inner.deposit_signature(user, signed);
                stats.tracer.emit(|| {
                    Event::new(ctr, EventKind::Deposit, user)
                        .span_opt(ctx.map(|c| c.child(stage::DEPOSIT)))
                });
            }
            Ok(Request::Crash { ack }) => {
                // The crash abandons the whole pipeline (the restarted
                // server re-arms on the next deposit); absorb it here so the
                // caller's op runs against the restored state.
                stats.crashes.inc();
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::Crash, NO_ACTOR));
                inner.crash_restart();
                seed_journal(inner, journal);
                publisher.force(inner);
                let _ = ack.send(());
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::Restart, NO_ACTOR));
            }
            Ok(Request::Shutdown) => return false,
            Ok(other) => {
                // Retries of already-served ops are answered in place (their
                // clients may be the very ones whose deposits we are waiting
                // on); everything else queues behind the catch-up.
                if let Some(r) = serve_from_journal(journal, stats, other) {
                    backlog.push_back(r);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return false,
            Err(RecvTimeoutError::Timeout) => {
                // The outstanding deposits are lost or their clients died;
                // count every missing one and move on rather than deadlock.
                missed.fetch_add(lag, Ordering::Relaxed);
                stats.missed_deposits.add(lag);
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::MissedDeposit, NO_ACTOR).detail("timeout"));
                return true;
            }
        }
    }
}

/// Protocol I: wait (bounded) for `user`'s signature deposit before serving
/// the next operation. Other users' requests queue up behind the block —
/// that latency is the measured cost. Returns `false` iff the server must
/// shut down.
#[allow(clippy::too_many_arguments)]
fn blocking_wait(
    inner: &mut dyn ServerApi,
    rx: &Receiver<Request>,
    backlog: &mut VecDeque<Request>,
    journal: &mut ReplyJournal,
    user: UserId,
    deposit_timeout: Duration,
    missed: &AtomicU64,
    publisher: &mut SnapshotPublisher,
    stats: &NetStats,
) -> bool {
    loop {
        match rx.recv_timeout(deposit_timeout) {
            Ok(Request::Signature {
                user: su,
                signed,
                ctx,
            }) if su == user => {
                let ctr = signed.ctr;
                inner.deposit_signature(su, signed);
                stats.tracer.emit(|| {
                    Event::new(ctr, EventKind::Deposit, su)
                        .span_opt(ctx.map(|c| c.child(stage::DEPOSIT)))
                });
                return true;
            }
            Ok(Request::Crash { ack }) => {
                // A crash wipes the pending wait: the deposit (if it ever
                // arrives) will be absorbed by the main loop.
                stats.crashes.inc();
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::Crash, NO_ACTOR));
                inner.crash_restart();
                seed_journal(inner, journal);
                publisher.force(inner);
                let _ = ack.send(());
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::Restart, NO_ACTOR));
                missed.fetch_add(1, Ordering::Relaxed);
                stats.missed_deposits.inc();
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::MissedDeposit, user).detail("crash"));
                return true;
            }
            Ok(Request::Shutdown) => return false,
            Err(RecvTimeoutError::Disconnected) => return false,
            Ok(other) => {
                // A retry of an already-served op (notably the blocked
                // user's own, whose deposit is still owed for this very
                // operation) is answered from the journal while staying
                // blocked; everything else queues behind the block.
                if let Some(r) = serve_from_journal(journal, stats, other) {
                    backlog.push_back(r);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // The deposit is lost or its client died; record the miss
                // and unblock rather than deadlock the whole deployment.
                missed.fetch_add(1, Ordering::Relaxed);
                stats.missed_deposits.inc();
                stats
                    .tracer
                    .emit(|| Event::new(0, EventKind::MissedDeposit, user).detail("timeout"));
                return true;
            }
        }
    }
}

/// Graceful-shutdown drain: serve every backlogged and already-queued
/// request without any further blocking waits, then let the thread exit.
fn drain(
    inner: &mut dyn ServerApi,
    rx: &Receiver<Request>,
    backlog: VecDeque<Request>,
    journal: &mut ReplyJournal,
    publisher: &mut SnapshotPublisher,
    stats: &NetStats,
) {
    let queued = std::iter::from_fn(|| rx.try_recv().ok());
    for req in backlog.into_iter().chain(queued) {
        let req = match serve_from_journal(journal, stats, req) {
            Some(r) => r,
            None => continue,
        };
        match req {
            Request::Op {
                user,
                seq,
                op,
                round,
                ctx: _,
                reply,
            } => {
                let r = inner.handle_op_seq(user, seq, &op, round);
                let displaced =
                    journal_insert(journal, stats, user, seq, JournaledReply::Op(r.clone()));
                publisher.record(inner, 1);
                let _ = reply.send(r);
                drop(displaced);
            }
            Request::OpBatch {
                user,
                seq,
                ops,
                round,
                ctx: _,
                reply,
            } => match inner.handle_op_batch(user, seq, &ops, round) {
                Some(resp) => {
                    let displaced = journal_insert(
                        journal,
                        stats,
                        user,
                        seq,
                        JournaledReply::Batch(resp.clone()),
                    );
                    publisher.record(inner, resp.window_len() as u64);
                    let _ = reply.send(Some(resp));
                    drop(displaced);
                }
                None => {
                    let _ = reply.send(None);
                }
            },
            // Shutdown drains serve the blocking-path shape without waits
            // (same semantics as plain ops during a drain).
            Request::OpPipelined {
                user,
                seq,
                op,
                round,
                ctx: _,
                reply,
            } => {
                let r = inner.handle_op_seq(user, seq, &op, round);
                let displaced = journal_insert(
                    journal,
                    stats,
                    user,
                    seq,
                    JournaledReply::Pipelined(PipelinedReply::Legacy(r.clone())),
                );
                publisher.record(inner, 1);
                let _ = reply.send(PipelinedReply::Legacy(r));
                drop(displaced);
            }
            Request::Signature {
                user,
                signed,
                ctx: _,
            } => inner.deposit_signature(user, signed),
            Request::EpochState(s) => inner.deposit_epoch_state(s),
            Request::FetchEpochStates { user, epoch, reply } => {
                let _ = reply.send(inner.fetch_epoch_states(user, epoch));
            }
            Request::Checkpoint(c) => inner.deposit_checkpoint(c),
            Request::FetchCheckpoint { user, epoch, reply } => {
                let _ = reply.send(inner.fetch_checkpoint(user, epoch));
            }
            // Best-effort during a drain: served from the current snapshot
            // with a throwaway cache (the thread is about to exit anyway).
            Request::BootstrapManifest { reply } => {
                let mut cache: BootstrapCache = None;
                let _ = reply.send(serve_bootstrap_manifest(inner, &mut cache, 64 * 1024));
            }
            Request::BootstrapChunk {
                anchor,
                index,
                reply,
            } => {
                let mut cache: BootstrapCache = None;
                let _ = reply.send(serve_bootstrap_chunk(
                    inner,
                    &mut cache,
                    64 * 1024,
                    &anchor,
                    index,
                ));
            }
            Request::Crash { ack } => {
                let _ = ack.send(());
            }
            Request::Shutdown => {}
        }
    }
    // Leave the final state visible to any reader that outlives the writer.
    publisher.flush(inner);
}

/// Performs one remote operation: request → reply, with bounded retry.
///
/// Each attempt uses a fresh one-shot reply channel and waits
/// [`RetryPolicy::attempt_timeout`] for it. A failed *send* means the server
/// thread (or the link to it) is gone — that is terminal. A disconnected
/// reply channel means the request was consumed but no reply will come (a
/// dropped request or reply in flight) — retry immediately. A timeout backs
/// off exponentially before the retry. Retries reuse the same `seq`, so the
/// server's reply journal guarantees the operation executes at most once —
/// and reuse the same trace context (the retry is a new span in the *same*
/// trace, not a new trace).
#[allow(clippy::too_many_arguments)]
pub(crate) fn remote_op(
    tx: &Sender<Request>,
    user: UserId,
    seq: u64,
    op: &Op,
    round: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<ServerResponse, NetError> {
    remote_roundtrip(tx, user, seq, ctx, policy, stats, |reply| Request::Op {
        user,
        seq,
        op: op.clone(),
        round,
        ctx,
        reply,
    })
}

/// One batched Protocol II window over the wire; `Ok(None)` means the
/// server declined the window (side-effect free) and the caller should fall
/// back to per-op execution. Transport semantics match [`remote_op`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn remote_batch(
    tx: &Sender<Request>,
    user: UserId,
    seq: u64,
    ops: &[Op],
    round: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<Option<BatchResponse>, NetError> {
    remote_roundtrip(tx, user, seq, ctx, policy, stats, |reply| {
        Request::OpBatch {
            user,
            seq,
            ops: ops.to_vec(),
            round,
            ctx,
            reply,
        }
    })
}

/// One pipelined Protocol I operation over the wire. The reply is either
/// the anchored pipelined shape or a blocking-path response the server fell
/// back to. Transport semantics match [`remote_op`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn remote_pipelined(
    tx: &Sender<Request>,
    user: UserId,
    seq: u64,
    op: &Op,
    round: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<PipelinedReply, NetError> {
    remote_roundtrip(tx, user, seq, ctx, policy, stats, |reply| {
        Request::OpPipelined {
            user,
            seq,
            op: op.clone(),
            round,
            ctx,
            reply,
        }
    })
}

/// The shared bounded-retry round trip behind [`remote_op`] and friends:
/// each attempt builds the request around a fresh one-shot reply sender.
fn remote_roundtrip<T>(
    tx: &Sender<Request>,
    user: UserId,
    seq: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
    mut make: impl FnMut(Sender<T>) -> Request,
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

/// A retried fetch round trip (Protocol III audit reads). Same transport
/// semantics as [`remote_op`]; `make` builds the request around the
/// attempt's fresh reply sender.
/// One read over the concurrent snapshot path, with the same bounded-retry
/// transport semantics as [`remote_op`]. Reads are idempotent, so retries
/// need no server-side journal; `seq` only seeds the backoff jitter.
pub(crate) fn remote_read(
    tx: &Sender<ReadRequest>,
    user: UserId,
    seq: u64,
    op: &Op,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<ReadResponse, NetError> {
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
        tx.send(ReadRequest {
            op: op.clone(),
            ctx,
            reply: reply_tx,
        })
        .map_err(|_| NetError::ServerGone)?;
        match reply_rx.recv_timeout(policy.attempt_timeout(user, seq, attempt)) {
            Ok(resp) => return Ok(resp),
            Err(RecvTimeoutError::Disconnected) => continue,
            Err(RecvTimeoutError::Timeout) => continue,
        }
    }
    Err(NetError::Timeout { attempts })
}

pub(crate) fn remote_fetch<T>(
    tx: &Sender<Request>,
    user: UserId,
    seq: u64,
    policy: &RetryPolicy,
    stats: &NetStats,
    mut make: impl FnMut(Sender<T>) -> Request,
) -> Result<T, NetError> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            stats.retries.inc();
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::Retry, user).detail(format!("attempt={attempt}"))
            });
        }
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(make(reply_tx)).map_err(|_| NetError::ServerGone)?;
        match reply_rx.recv_timeout(policy.attempt_timeout(user, seq, attempt)) {
            Ok(v) => return Ok(v),
            Err(RecvTimeoutError::Disconnected) => continue,
            Err(RecvTimeoutError::Timeout) => continue,
        }
    }
    Err(NetError::Timeout { attempts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::ProtocolConfig;
    use tcvs_merkle::u64_key;
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

    fn send_op(tx: &Sender<Request>, user: UserId, seq: u64, op: Op, round: u64) -> ServerResponse {
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(Request::Op {
            user,
            seq,
            op,
            round,
            ctx: None,
            reply: reply_tx,
        })
        .expect("server thread alive");
        reply_rx.recv().expect("reply delivered")
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
}

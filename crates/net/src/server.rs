//! The threaded server: a [`ServerApi`] implementation behind one lock,
//! served by a server thread over crossbeam channels and, while the server
//! is idle, by the clients bound to it directly.
//!
//! Every operation travels in one request shape, a `Call`: the header
//! `(user, seq, round, ctx)` and a body — a plain op or a Protocol II batch
//! window — whose reply slot is typed by that shape, so a client can only
//! receive the reply shape it asked for. The serving state (the inner
//! server, the reply journal, the bootstrap cache) lives in one
//! `ServerState` with a single code path per request kind: one `dispatch`,
//! one `serve` for calls, one deposit and one crash-restart. The thread
//! (`ServerLoop`) adds only what queueing needs: the channel, the backlog,
//! the deposit wait and the drain.
//!
//! # Where a call runs
//!
//! A call — a plain op or a batch window — from a client bound to the
//! [`NetServer`] itself runs on the client's own thread when, checked
//! before the lock and again under it, nothing is queued or in flight to
//! the thread and shutdown has not started. It runs the same `serve` the
//! thread runs, so journal, replay check, stats and events do not depend
//! on where it runs; what it saves is the two thread wake-ups of a channel
//! round trip, and for a window the server thread's preemption by the
//! client it wakes. On a blocking Protocol I deployment the unit that runs
//! inline is a Protocol I client's whole step (`Shared::hold`; the client
//! type picks this route statically, by `Protocol::BLOCKING_DEPOSIT`): it
//! takes the lock, is served, verifies the reply, signs the new state and
//! deposits it straight into the serving state, and releases the lock at
//! that deposit; it prepares its next one-time key after the release. A
//! held step that deposits nothing — a caught lie, an exhausted key, a
//! panic in the client's step — counts one missed deposit as it releases.
//!
//! Everything else queues for the thread: deposits outside a held step,
//! fetches, bootstrap and sample requests, crashes, every call through a
//! [`crate::FaultLink`] (its faults would otherwise be bypassed), every
//! other call of a blocking deployment (a plain `Wire::submit` deposits
//! nothing, so only a client that runs its own step may hold the server),
//! and a call that found work queued. Every request sent into the channel
//! is counted until the thread has dispatched it, so an inline call never
//! overtakes queued work, its caller's own deposits included. A caller
//! that finds another inline call holding the lock (with nothing queued)
//! waits for it if it carries a window or a held step, which hold the lock
//! for hundreds of µs or for a verify and a sign that a hand-off to the
//! thread would not shorten; a plain op spins briefly (`INLINE_SPIN`), then
//! queues.
//!
//! Both drivers run a request under one `fail_stop`: a panic inside the
//! inner server — a durable server refusing to acknowledge an op whose
//! commit failed — drops the serving state and starts shutdown, so the
//! failing call and every later one get [`NetError::ServerGone`] whichever
//! thread the op ran on, and no client is answered from that server again.
//! A held step runs only the server's side under it: the client's verify
//! and sign stay outside.
//!
//! Protocol I's blocking step is *physically* reproduced: in blocking mode
//! the server answers no other query between a user's op and that user's
//! signature deposit — held on the client's thread, or on the server
//! thread, which will not take the next request until the deposit has
//! arrived. This is what experiment E6's wall-clock throughput numbers
//! measure: in one process the step costs the client's verify and sign and
//! one lock hand-off; the paper's deployment adds a network round trip.
//! Under faults the thread's wait is bounded by
//! [`NetServerOptions::deposit_timeout`]: a lost or abandoned deposit is
//! counted in [`NetServer::missed_deposits`] and the server moves on instead
//! of deadlocking.
//!
//! Every read takes the same serialized path as a write, so every answer
//! a client sees is covered by its protocol's detection. The only other
//! views of the inner server's state are the bootstrap chunks and the
//! `(root, ctr, last_user)` sample a late joiner anchors at, both served in
//! order on the thread and neither trusted by the party that receives it.
//!
//! Every operation carries a per-user sequence number; the server keeps the
//! last reply per user in a *reply journal* so a retried request (after a
//! dropped reply) is answered from the journal instead of re-executing —
//! exactly-once semantics over an at-least-once transport. One shape table
//! (`answer`) decides which journaled reply may answer which request shape,
//! for retries and fresh replies alike. The journal is part of the server's
//! durable state: it is seeded from the inner server's recovered replies
//! before `spawn*` returns, and it survives [`NetServer::crash_restart`]
//! along with whatever the inner [`ServerApi`] chooses to persist.
//!
//! Shutdown (and `Drop`) switches the thread into a *drain*: every
//! backlogged and queued request is served exactly as in the main loop —
//! counted and traced, a crash really restarting the inner server,
//! bootstrap chunks cut from the configured slicing — except that no
//! deposit wait runs. The thread then drops the inner server.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use tcvs_core::{
    BatchResponse, Ctr, Digest, Epoch, Op, ServerApi, ServerResponse, SignedCheckpoint,
    SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::ChunkSource;
use tcvs_obs::{stage, Event, EventKind, SpanContext, NO_ACTOR};

use crate::error::NetError;
use crate::obs::NetStats;

/// How long a plain op waits for another inline call to release the server
/// before it queues for the thread instead: about two point-op critical
/// sections (`core.server_get_us` ≈ 4 µs on `p2-point-read`). Parking on
/// the lock costs a futex wake-up, longer than this on a 2-vCPU host; with
/// no spin, `p2-point-read`'s `read_p50_us` gain was bimodal (−31…−59 %
/// over 10 pairs against −52 % with it).
const INLINE_SPIN: Duration = Duration::from_micros(8);

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
    /// Sample the current state as `(root, ctr, last_user)`, the anchor a
    /// late joiner folds its σ from. `None` means the inner server exposes
    /// no state to sample (an adversary).
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

/// An opaque handle onto a server's request channel. Only this crate can
/// look inside; clients obtain one through [`Endpoint`].
pub struct WireHandle(pub(crate) Wire);

/// The inside of a [`WireHandle`].
#[derive(Clone)]
pub(crate) struct Wire {
    tx: Sender<Request>,
    /// The server behind the channel, when nothing is interposed: every
    /// request sent is counted toward its queue, and a call may run inline
    /// on it. `None` for a wire into a link thread.
    direct: Option<Arc<Shared>>,
}

impl Wire {
    /// A wire into a link thread (or a test double) rather than a server:
    /// nothing sent on it is counted or run inline.
    pub(crate) fn link(tx: Sender<Request>) -> Wire {
        Wire { tx, direct: None }
    }

    /// Queues `req` for the thread behind this wire. Fails only once that
    /// thread (or the link to it) is gone.
    pub(crate) fn send(&self, req: Request) -> Result<(), NetError> {
        if let Some(shared) = &self.direct {
            shared.queued.fetch_add(1, Ordering::SeqCst);
        }
        self.tx.send(req).map_err(|_| NetError::ServerGone)
    }

    /// Sends `req` the way a client does: a plain op or a window runs on
    /// the calling thread when the server behind this wire is idle (see the
    /// module docs); anything else, or a call that finds work queued (or a
    /// plain op that finds the lock held past its spin), is queued.
    pub(crate) fn submit(&self, req: Request) -> Result<(), NetError> {
        match (&self.direct, req) {
            (Some(shared), Request::Call(call)) => {
                if shared.try_inline(&call)? {
                    Ok(())
                } else {
                    self.send(call.into())
                }
            }
            (_, req) => self.send(req),
        }
    }

    /// The server behind this wire when it is bound directly and blocks on
    /// Protocol I's deposits: a Protocol I client holds its step on it
    /// ([`Shared::hold`]).
    pub(crate) fn blocking_server(&self) -> Option<Arc<Shared>> {
        self.direct
            .as_ref()
            .filter(|shared| shared.blocking)
            .cloned()
    }
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
}

/// Tuning knobs for a server thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetServerOptions {
    /// Reproduce Protocol I's blocking signature deposit: after each
    /// operation the server waits for that client's deposit before serving
    /// the next request.
    pub blocking_signatures: bool,
    /// How long the server thread's blocking wait may last before it gives
    /// up on the deposit, records a miss, and moves on. Bounds the Protocol
    /// I deadlock when a client dies (or its deposit is lost) mid-exchange.
    /// A step held on its client's thread needs no bound: it ends when the
    /// client's step does.
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

/// Handle to a running server: its thread, and the state that thread
/// shares with directly bound clients.
pub struct NetServer {
    /// The one wire into the server's channel: every message sent on it is
    /// counted, and [`Endpoint::wire`] hands out clones of it.
    wire: Wire,
    shared: Arc<Shared>,
    join: Option<JoinHandle<()>>,
}

impl sealed::Sealed for NetServer {}

impl Endpoint for NetServer {
    fn wire(&self) -> WireHandle {
        WireHandle(self.wire.clone())
    }
}

impl NetServer {
    /// Spawns a server over any (honest or adversarial) server
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

    /// Spawns a server with explicit [`NetServerOptions`].
    pub fn spawn_with(inner: Box<dyn ServerApi + Send>, opts: NetServerOptions) -> NetServer {
        NetServer::spawn_observed(inner, opts, NetStats::disabled())
    }

    /// Spawns a server with metric/event instrumentation feeding `stats`.
    ///
    /// Every `spawn*` starts the server thread and returns with the reply
    /// journal already seeded from the inner server's recovered replies, so
    /// the first call — inline or queued — that retries a recovered
    /// operation is answered from the journal, not re-executed.
    pub fn spawn_observed(
        inner: Box<dyn ServerApi + Send>,
        opts: NetServerOptions,
        stats: NetStats,
    ) -> NetServer {
        let (tx, rx) = unbounded();
        let mut state = ServerState {
            inner,
            opts,
            stats,
            journal: HashMap::new(),
            bootstrap: None,
        };
        state.seed_journal();
        let shared = Arc::new(Shared {
            state: Mutex::new(Some(state)),
            queued: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            blocking: opts.blocking_signatures,
            missed: AtomicU64::new(0),
        });
        let server = ServerLoop {
            rx,
            shared: Arc::clone(&shared),
            backlog: VecDeque::new(),
            draining: false,
        };
        NetServer {
            wire: Wire {
                tx,
                direct: Some(Arc::clone(&shared)),
            },
            shared,
            join: Some(std::thread::spawn(move || server.run())),
        }
    }

    /// Signature deposits the blocking server gave up waiting for (always 0
    /// in non-blocking mode or on a fault-free network).
    pub fn missed_deposits(&self) -> u64 {
        self.shared.missed.load(Ordering::Relaxed)
    }

    /// Crashes the inner server and restarts it from its persisted state,
    /// synchronously: when this returns `Ok`, the restart has completed.
    pub fn crash_restart(&self) -> Result<(), NetError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.wire.send(Request::Crash { ack: ack_tx })?;
        ack_rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// The inner server's current `(root, ctr, last_user)`, sampled in
    /// order behind every request sent before it, so it reflects every
    /// acknowledged write. This is the anchor of
    /// [`crate::NetClient2::join`]. The sample is the server's word, not a
    /// verified fact: a session joined at a false one verifies every op,
    /// and fails its next sync-up. `None` when the inner server exposes no
    /// state (an adversary) or the server thread has exited.
    pub fn sample(&self) -> Option<(Digest, Ctr, UserId)> {
        let (reply, sampled) = bounded(1);
        self.wire.send(Request::Sample { reply }).ok()?;
        sampled.recv().ok().flatten()
    }

    /// Stops the server gracefully: no call runs inline from here on,
    /// backlogged and queued requests are served (from the journal or by
    /// execution), then the thread exits.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        let _ = self.wire.send(Request::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// What a server's thread shares with the clients bound to it directly.
pub(crate) struct Shared {
    /// The serving state, behind the one lock both drivers take. `None`
    /// once the thread has exited: it drops the inner server itself.
    state: Mutex<Option<ServerState>>,
    /// Requests sent into the channel and not yet dispatched by the thread;
    /// a call runs inline only when this is 0.
    queued: AtomicUsize,
    /// Set when shutdown starts; no call runs inline after that.
    closing: AtomicBool,
    /// A blocking Protocol I deployment: no call runs inline through
    /// [`Wire::submit`]; a direct Protocol I client holds its whole step
    /// instead ([`Shared::hold`]), and the thread's deposit wait serves the
    /// rest.
    blocking: bool,
    /// Deposits the blocking server gave up waiting for.
    missed: AtomicU64,
}

impl Shared {
    /// Serves `call` on the calling thread if the server is idle: `Ok(true)`
    /// when served, `Ok(false)` when it must be queued instead,
    /// `ServerGone` once the server has stopped (an inline call that
    /// panicked stops it, as one on the thread does). A window waits for
    /// another inline call's lock; a plain op spins for it, then queues.
    fn try_inline(&self, call: &Call) -> Result<bool, NetError> {
        if self.blocking {
            return Ok(false);
        }
        let window = matches!(call.body, Body::Batch(..));
        let Some(mut slot) = self.lock_idle(window) else {
            return Ok(false);
        };
        self.fail_stop(&mut slot, |state| state.serve(call, true))
            .map(|_| true)
            .ok_or(NetError::ServerGone)
    }

    /// Protocol I's blocking step on its client's thread: serves `call`
    /// under the lock, as [`Shared::try_inline`] does, and keeps the lock
    /// until the deposit the reply owes. `None` when the call must be
    /// queued instead; `Some(None)` when it was answered from the journal
    /// and owes no deposit.
    pub(crate) fn hold(&self, call: &Call) -> Result<Option<Option<Held<'_>>>, NetError> {
        let Some(mut slot) = self.lock_idle(true) else {
            return Ok(None);
        };
        let owed = self
            .fail_stop(&mut slot, |state| state.serve(call, true))
            .ok_or(NetError::ServerGone)?;
        Ok(Some(owed.map(|user| Held {
            shared: self,
            slot,
            user,
            settled: false,
        })))
    }

    /// The lock, for a call on its caller's thread, or `None` when the call
    /// must queue: work is queued or in flight to the thread, or shutdown
    /// has started. While another inline call holds the lock and nothing is
    /// queued, `park` waits for it; otherwise the caller spins up to
    /// [`INLINE_SPIN`] for it, then queues. A slot whose state is gone is
    /// returned, so that the caller reports the server gone.
    fn lock_idle(&self, park: bool) -> Option<MutexGuard<'_, Option<ServerState>>> {
        let mut spinning_since = None;
        while self.queued.load(Ordering::SeqCst) == 0 {
            let locked = if park {
                Some(self.state.lock())
            } else {
                self.state.try_lock()
            };
            if let Some(slot) = locked {
                // Re-checked under the lock: the thread dispatches (and
                // uncounts) only while holding it.
                let idle =
                    self.queued.load(Ordering::SeqCst) == 0 && !self.closing.load(Ordering::SeqCst);
                return (slot.is_none() || idle).then_some(slot);
            }
            let since = *spinning_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= INLINE_SPIN {
                break;
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Runs `f` on the serving state in `slot`, fail-stop. A panic in `f`
    /// is how an inner server refuses to acknowledge an op it could not
    /// make durable; it drops the state and starts shutdown, so no client
    /// is answered from that server again, whichever thread ran the op.
    /// `None` when the state is gone or `f` panicked.
    fn fail_stop<R>(
        &self,
        slot: &mut Option<ServerState>,
        f: impl FnOnce(&mut ServerState) -> R,
    ) -> Option<R> {
        let state = slot.as_mut()?;
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(state))).ok();
        if out.is_none() {
            self.closing.store(true, Ordering::SeqCst);
            *slot = None;
        }
        out
    }

    /// Uncounts one request the thread has finished dispatching.
    fn dispatched(&self) {
        let before = self.queued.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "a request reached the thread uncounted");
    }

    /// Records a deposit the server gave up waiting for.
    fn miss(&self, state: &ServerState, user: UserId, why: &'static str) {
        self.missed.fetch_add(1, Ordering::Relaxed);
        state.stats.missed_deposits.inc();
        state
            .stats
            .tracer
            .emit(|| Event::new(0, EventKind::MissedDeposit, user).detail(why));
    }
}

/// Protocol I's blocking step, held on its client's thread: the server
/// lock, from the served reply until `user`'s signature deposit. Dropped
/// without that deposit — a caught lie, an exhausted key, a panic in the
/// client's step — it counts one missed deposit, as the thread's wait does
/// on a timeout, and releases the lock.
pub(crate) struct Held<'a> {
    shared: &'a Shared,
    slot: MutexGuard<'a, Option<ServerState>>,
    user: UserId,
    settled: bool,
}

impl Held<'_> {
    /// Leaves the owed deposit at the server on this thread, fail-stop,
    /// then releases the lock.
    pub(crate) fn deposit(
        mut self,
        signed: SignedState,
        ctx: Option<SpanContext>,
    ) -> Result<(), NetError> {
        self.settled = true;
        self.shared
            .fail_stop(&mut self.slot, |state| {
                state.deposit(signed.signer, signed, ctx)
            })
            .ok_or(NetError::ServerGone)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if let (false, Some(state)) = (self.settled, self.slot.as_ref()) {
            self.shared.miss(state, self.user, "no deposit");
        }
    }
}

/// The serving state: everything a request needs, whichever thread serves
/// it, and one code path per request kind.
struct ServerState {
    inner: Box<dyn ServerApi + Send>,
    opts: NetServerOptions,
    stats: NetStats,
    /// The per-user reply journal: the last `(seq, reply)` served to each
    /// user.
    journal: HashMap<UserId, (u64, JournaledReply)>,
    /// Lazily-built chunk source for the bootstrap path: the slicing of one
    /// snapshot, with the counter that snapshot was current as of. Kept
    /// across crash/restart: serving a consistent *stale* snapshot is
    /// exactly what lets a client resume an interrupted bootstrap.
    bootstrap: Option<(ChunkSource, Ctr)>,
}

/// The server thread: the channel's receiving end and what only queueing
/// needs, around the shared serving state.
struct ServerLoop {
    rx: Receiver<Request>,
    shared: Arc<Shared>,
    /// Requests that arrived while the server was blocked waiting for a
    /// deposit; replayed in arrival order. Each stays counted in
    /// `Shared::queued` until it is dispatched.
    backlog: VecDeque<Request>,
    /// Set once shutdown is requested (or every sender is gone): serve what
    /// is already queued, with no deposit waits, then exit.
    draining: bool,
}

impl ServerLoop {
    fn run(mut self) {
        let shared = Arc::clone(&self.shared);
        while let Some(req) = self.next() {
            self.draining |= matches!(req, Request::Shutdown);
            let mut slot = shared.state.lock();
            if slot.is_none() {
                // An inline op stopped the server. Disconnect the channel
                // before `req` (and its reply slot) drops, so that its
                // sender's retry finds the server gone.
                drop(slot);
                drop(self.rx);
                return;
            }
            let served = shared.fail_stop(&mut slot, |state| {
                if let Some(user) = state.dispatch(req) {
                    self.wait(state, user);
                }
            });
            shared.dispatched();
            if served.is_none() {
                break;
            }
        }
        // Drop the inner server here, on its own thread, not on whichever
        // client happens to release the last handle.
        let state = shared.state.lock().take();
        drop(state);
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
    fn wait(&mut self, state: &mut ServerState, user: UserId) {
        while !self.draining {
            match self.rx.recv_timeout(state.opts.deposit_timeout) {
                Ok(Request::Signature {
                    user: from,
                    signed,
                    ctx,
                }) if from == user => {
                    state.deposit(from, signed, ctx);
                    self.shared.dispatched();
                    return;
                }
                Ok(Request::Crash { ack }) => {
                    state.crash(ack);
                    self.shared.miss(state, user, "crash");
                    self.shared.dispatched();
                    return;
                }
                Ok(Request::Call(call)) if state.replay(&call) => self.shared.dispatched(),
                Ok(Request::Shutdown) => {
                    self.draining = true;
                    self.shared.dispatched();
                }
                Err(RecvTimeoutError::Disconnected) => self.draining = true,
                Ok(other) => self.backlog.push_back(other),
                Err(RecvTimeoutError::Timeout) => {
                    self.shared.miss(state, user, "timeout");
                    return;
                }
            }
        }
    }
}

impl ServerState {
    /// Handles one request. Returns the user whose deposit a blocking
    /// Protocol I deployment must now wait for, if any.
    fn dispatch(&mut self, req: Request) -> Option<UserId> {
        match req {
            Request::Call(call) => return self.serve(&call, false),
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
            // The thread's drain; there is nothing to serve.
            Request::Shutdown => {}
        }
        None
    }

    /// Serves one call: from the journal if it retries a served one,
    /// otherwise by executing it. A fresh reply goes journal insert →
    /// reply → drop of the displaced reply → stats and tracer; an `inline`
    /// call's executed ops also count as inline. Returns the user a
    /// blocking Protocol I deployment now owes a deposit wait.
    fn serve(&mut self, call: &Call, inline: bool) -> Option<UserId> {
        if self.replay(call) {
            return None;
        }
        let Head {
            user,
            seq,
            round,
            ctx,
        } = call.head;
        let started = Instant::now();
        let entry = self.execute(call)?;
        let (ctr, ops) = match &entry {
            JournaledReply::Plain(r) => (r.ctr, 1),
            JournaledReply::Batch(b) => (b.ctr, b.window_len() as u64),
        };
        let batch = matches!(entry, JournaledReply::Batch(_));
        let displaced = self.journal_insert(user, seq, entry);
        if let Some((_, entry)) = self.journal.get(&user) {
            answer(&call.body, entry, || {});
        }
        // Freeing the displaced proof is work a queued call's client need
        // not wait for (an inline caller does, on its own thread).
        drop(displaced);
        self.stats.ops_served.add(ops);
        if inline {
            self.stats.inline_ops.add(ops);
        }
        self.stats
            .op_ns
            .observe(started.elapsed().as_nanos() as u64);
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
        (self.opts.blocking_signatures && !batch).then_some(user)
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

    /// One request/reply exchange with the server, submitted as a client
    /// submits it (a call may run inline), no retries.
    fn ask<T>(tx: &Wire, make: impl FnOnce(Sender<T>) -> Request) -> T {
        let (reply_tx, reply_rx) = bounded(1);
        tx.submit(make(reply_tx)).expect("server thread alive");
        reply_rx.recv().expect("reply delivered")
    }

    /// One call to the server, no retries.
    fn call<T>(
        tx: &Wire,
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

    fn send_op(tx: &Wire, user: UserId, seq: u64, op: Op, round: u64) -> ServerResponse {
        call(tx, (user, seq, round), |reply| Body::Op(op, reply))
    }

    fn send_batch(
        tx: &Wire,
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
            .wire()
            .0
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

    /// An honest server that holds each batch window at a gate: it signals
    /// `entered`, then waits for `release`.
    struct GatedWindows {
        inner: HonestServer,
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl ServerApi for GatedWindows {
        fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
            self.inner.handle_op(user, op, round)
        }

        fn handle_op_batch(
            &mut self,
            user: UserId,
            seq: u64,
            ops: &[Op],
            round: u64,
        ) -> Option<BatchResponse> {
            // A test that stopped waiting leaves the gate open.
            let _ = self.entered.send(());
            let _ = self.release.recv();
            self.inner.handle_op_batch(user, seq, ops, round)
        }

        fn deposit_signature(&mut self, user: UserId, s: SignedState) {
            self.inner.deposit_signature(user, s);
        }

        fn deposit_epoch_state(&mut self, s: SignedEpochState) {
            self.inner.deposit_epoch_state(s);
        }

        fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
            self.inner.fetch_epoch_states(requester, epoch)
        }

        fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
            self.inner.deposit_checkpoint(c);
        }

        fn fetch_checkpoint(
            &mut self,
            requester: UserId,
            epoch: Epoch,
        ) -> Option<SignedCheckpoint> {
            self.inner.fetch_checkpoint(requester, epoch)
        }

        fn metrics(&self) -> tcvs_core::ServerMetrics {
            self.inner.metrics()
        }
    }

    /// Calls issued while another user's window is queued and held on the
    /// server thread queue behind it instead of running inline: a plain op
    /// and a window are both served after it, with no deadlock, and once
    /// the server has shut down a call fails with `ServerGone`.
    #[test]
    fn an_inline_call_never_overtakes_queued_work() {
        let cfg = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let root0 = tcvs_merkle::MerkleTree::with_order(cfg.order).root_digest();
        let (entered_tx, entered) = bounded(1);
        let (release, release_rx) = bounded(1);
        let gated = GatedWindows {
            inner: HonestServer::new(&cfg),
            entered: entered_tx,
            release: release_rx,
        };
        let stats = NetStats::disabled();
        let server =
            NetServer::spawn_observed(Box::new(gated), NetServerOptions::default(), stats.clone());

        // User B's window is sent into the queue (a client's idle window
        // would run inline) and held on the server thread, still counted.
        let (reply, held) = bounded(1);
        let window = Call {
            head: Head::root(1, 1, 0),
            body: Body::Batch(vec![Op::Put(u64_key(7), vec![7])], reply),
        };
        assert!(
            server.wire.send(window.into()).is_ok(),
            "server thread alive"
        );
        assert_eq!(entered.recv(), Ok(()), "the window reached the gate");
        // User A's plain op and user C's window, issued meanwhile, are sent
        // into the queue.
        let mut a = crate::NetClient2::new(0, &root0, cfg, &server);
        let waiting = std::thread::spawn(move || a.execute(&Op::Get(u64_key(7))));
        let mut c = crate::NetClient2::new(2, &root0, cfg, &server);
        let windowed = std::thread::spawn(move || c.execute_batch(&[Op::Get(u64_key(7))]));
        while server.shared.queued.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        assert_eq!(release.send(()), Ok(()), "the window is still held");
        // C's window meets the gate too; leave it open.
        drop(release);

        assert!(matches!(held.recv(), Ok(Some(_))), "B's window is served");
        assert_eq!(
            waiting.join().ok(),
            Some(Ok(OpResult::Value(Some(vec![7])))),
            "A is served after B's write"
        );
        assert_eq!(
            windowed.join().ok(),
            Some(Ok(vec![OpResult::Value(Some(vec![7]))])),
            "C's window is served after B's write"
        );
        assert_eq!(stats.snapshot().counter("net.server.inline_ops"), Some(0));

        let mut late = crate::NetClient2::new(3, &root0, cfg, &server);
        server.shutdown();
        assert_eq!(
            late.execute(&Op::Get(u64_key(7))),
            Err(NetError::ServerGone)
        );
    }

    /// `net.server.inline_ops` counts the ops an inline call executed — a
    /// window its length, a journal hit nothing — so on an idle server,
    /// where every call runs inline, it equals `ops_served`.
    #[test]
    fn inline_ops_count_the_ops_inline_calls_execute() {
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
        let put = || Op::Put(u64_key(1), b"a".to_vec());
        send_op(&tx, 1, 1, put(), 0);
        let window = vec![Op::Put(u64_key(2), b"b".to_vec()), Op::Get(u64_key(1))];
        assert!(send_batch(&tx, 1, 2, window.clone(), 1).is_some());
        assert!(send_batch(&tx, 2, 1, window, 2).is_some());
        send_op(&tx, 2, 2, Op::Get(u64_key(2)), 3);
        // A retry is a journal hit: it executes nothing.
        send_op(&tx, 2, 2, Op::Get(u64_key(2)), 3);
        drop(server);
        let snap = stats.snapshot();
        assert_eq!(journal_hits(&stats), Some(1));
        assert_eq!(snap.counter("net.server.ops_served"), Some(6));
        assert_eq!(snap.counter("net.server.inline_ops"), Some(6));
    }
}

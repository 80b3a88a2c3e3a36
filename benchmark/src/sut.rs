//! The systems under test, and the only file that names program types.
//!
//! Workloads, the generator, statistics and trace analysis see the small
//! vocabulary defined here — [`Req`], [`Reply`], [`Client`], [`Deployment`],
//! [`Ladder`] — and nothing of `tcvs-*`. A change to the program's request
//! path should cost the benchmark an edit to this file alone.
//!
//! Three things live here:
//!
//! * **deployments**: the threaded stack each workload runs against
//!   ([`deploy`]), with the four span-recording decorators
//!   ([`TimedServer`], [`TimedStorage`], [`TimedMedium`], [`TimedDb`])
//!   slipped in at the program's own trait seams when a run is traced;
//! * **the ladder**: a single-threaded replay of the same requests through
//!   the public functions that have no seam under the net clients
//!   ([`Ladder`]) — proof generation, proof replay, codec, client
//!   verification, signing — plus exact byte and fsync counts;
//! * **canaries**: each protocol's client path against lying, tampering
//!   and forking servers ([`canary`]).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcvs_core::adversary::{ForkServer, LieServer, TamperServer, Trigger};
use tcvs_core::state::state_token;
use tcvs_core::{
    BatchResponse, Client1, Client2, Epoch, HonestServer, Op, OpResult, PipelinedResponse,
    ProtocolConfig, ReadSnapshot, ServerApi, ServerCore, ServerMetrics, ServerResponse,
    SignedCheckpoint, SignedEpochState, SignedState, SyncShare, UserId,
};
use tcvs_crypto::{hash_pair, sha256, sha256_many, Digest, KeyRegistry, Keyring};
use tcvs_cvs::{Cvs, CvsError, VerifiedDb, WorkingFile};
use tcvs_merkle::{
    apply_op, prune_for_op, prune_for_ops, verify_batch_response, verify_response, BatchProof,
    MerkleTree, VerificationObject,
};
use tcvs_net::{NetClient1, NetClient2, NetError, NetServer, NetServerOptions, NetStats};
use tcvs_obs::{MetricsRegistry, Tracer};
use tcvs_storage::{
    DurabilityOptions, DurableOptions, DurableServer, DurableStorage, FileMedium, Medium,
    Recovered, Storage, StorageError, StorageObs, WriteBatch,
};

use crate::gen::{file_line, file_path, key_bytes, value_bytes};
use crate::stats::median;
use crate::trace::{self, Sink, Span, NO_PARENT};

/// Every workload runs under this configuration: order-16 tree, no
/// in-band sync-up (one is performed explicitly after the measured phase),
/// epochs never roll.
const CONFIG: ProtocolConfig = ProtocolConfig {
    order: 16,
    k: u64::MAX,
    epoch_len: 1 << 30,
};

/// Number of closed-loop clients (this box has two cores).
pub const USERS: u32 = 2;

// ----------------------------------------------------------------------
// Vocabulary
// ----------------------------------------------------------------------

/// Which threaded stack a workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// Protocol II clients over an in-memory honest server.
    P2,
    /// Protocol I clients (blocking signature deposits) over an in-memory
    /// honest server.
    P1,
    /// CVS commands over Protocol II clients over the durable server on a
    /// real directory (fsync per commit).
    CvsDurable,
}

/// What the database holds before the measured phase.
#[derive(Clone, Copy, Debug)]
pub enum Preload {
    /// `keys` items of `value_len` bytes each, at version 0.
    Values { keys: u32, value_len: usize },
    /// `files` files of `lines` lines each, imported by user 0.
    Files { files: u32, lines: u32 },
}

/// Everything [`deploy`] needs to stand a stack up.
#[derive(Clone, Debug)]
pub struct Plan {
    pub stack: Stack,
    pub preload: Preload,
    /// Protocol I only: each user can sign `2^mss_height` times.
    pub mss_height: u32,
    /// Durable stack only: operations between checkpoints.
    pub checkpoint_every: u64,
    /// Durable stack only: data directories are created under this one.
    pub data_dir: PathBuf,
}

/// One client call, built during set-up so that the timed call itself
/// copies nothing.
pub struct Req(ReqKind);

enum ReqKind {
    Op(Op),
    Window(Vec<Op>),
    Add { path: String, content: String },
    Checkout(String),
    Commit(WorkingFile),
}

impl Req {
    pub fn get(key: Vec<u8>) -> Req {
        Req(ReqKind::Op(Op::Get(key)))
    }

    pub fn put(key: Vec<u8>, value: Vec<u8>) -> Req {
        Req(ReqKind::Op(Op::Put(key, value)))
    }

    /// A window of reads verified as one exchange.
    pub fn get_window(keys: Vec<Vec<u8>>) -> Req {
        Req(ReqKind::Window(keys.into_iter().map(Op::Get).collect()))
    }

    /// A window of writes verified as one exchange.
    pub fn put_window(items: Vec<(Vec<u8>, Vec<u8>)>) -> Req {
        Req(ReqKind::Window(
            items.into_iter().map(|(k, v)| Op::Put(k, v)).collect(),
        ))
    }

    pub fn add(path: String, lines: &[String]) -> Req {
        Req(ReqKind::Add {
            path,
            content: tcvs_store::from_lines(lines),
        })
    }

    pub fn checkout(path: String) -> Req {
        Req(ReqKind::Checkout(path))
    }

    pub fn commit(path: String, lines: Vec<String>, base_rev: u32) -> Req {
        Req(ReqKind::Commit(WorkingFile {
            path,
            lines,
            base_rev,
        }))
    }

    /// True for a `Put`, a `Put` window, an `add` and a `commit`.
    pub fn is_write(&self) -> bool {
        match &self.0 {
            ReqKind::Op(op) => op.is_update(),
            ReqKind::Window(ops) => ops.first().is_some_and(Op::is_update),
            ReqKind::Add { .. } | ReqKind::Commit(_) => true,
            ReqKind::Checkout(_) => false,
        }
    }
}

/// The verified answer to a [`Req`].
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    Value(Option<Vec<u8>>),
    Stored,
    Values(Vec<Option<Vec<u8>>>),
    File { lines: Vec<String>, rev: u32 },
    Rev(u32),
}

/// A call that did not return a verified answer.
#[derive(Debug)]
pub struct Failure {
    /// The client concluded the server deviated (on an honest server: a
    /// false alarm).
    pub deviation: bool,
    pub what: String,
}

impl From<NetError> for Failure {
    fn from(e: NetError) -> Failure {
        Failure {
            deviation: e.deviation().is_some(),
            what: e.to_string(),
        }
    }
}

impl From<CvsError> for Failure {
    fn from(e: CvsError) -> Failure {
        Failure {
            deviation: matches!(e, CvsError::Deviation(_)),
            what: e.to_string(),
        }
    }
}

/// One user's verified session with a deployment.
pub trait Client {
    /// One call, from entry to verified return.
    fn call(&mut self, req: &Req) -> Result<Reply, Failure>;
    #[doc(hidden)]
    fn share(&self) -> SyncShare;
    #[doc(hidden)]
    fn accepts(&self, shares: &[SyncShare]) -> bool;
}

fn op_reply(r: OpResult) -> Result<Reply, Failure> {
    match r {
        OpResult::Value(v) => Ok(Reply::Value(v)),
        OpResult::Replaced(_) => Ok(Reply::Stored),
        other => Err(Failure {
            deviation: false,
            what: format!("unexpected result shape {other:?}"),
        }),
    }
}

fn window_reply(rs: Vec<OpResult>) -> Result<Reply, Failure> {
    rs.into_iter()
        .map(|r| match r {
            OpResult::Value(v) => Ok(v),
            OpResult::Replaced(_) => Ok(None),
            other => Err(Failure {
                deviation: false,
                what: format!("unexpected result shape {other:?}"),
            }),
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Reply::Values)
}

fn not_served(stack: &str) -> Failure {
    Failure {
        deviation: false,
        what: format!("the {stack} stack does not serve this request"),
    }
}

/// The out-of-band sync-up across all users: succeeds iff some user's
/// predicate holds over everyone's shares. Returns the shares too.
fn sync_up(clients: &[Box<dyn Client + Send>]) -> (bool, Vec<SyncShare>) {
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.share()).collect();
    (clients.iter().any(|c| c.accepts(&shares)), shares)
}

// ----------------------------------------------------------------------
// Clients
// ----------------------------------------------------------------------

struct Kv2(NetClient2);

impl Client for Kv2 {
    fn call(&mut self, req: &Req) -> Result<Reply, Failure> {
        match &req.0 {
            ReqKind::Op(op) => op_reply(self.0.execute(op)?),
            ReqKind::Window(ops) => window_reply(self.0.execute_batch(ops)?),
            _ => Err(not_served("key-value")),
        }
    }

    fn share(&self) -> SyncShare {
        self.0.sync_share()
    }

    fn accepts(&self, shares: &[SyncShare]) -> bool {
        self.0.sync_succeeds(shares)
    }
}

struct Kv1(NetClient1);

impl Client for Kv1 {
    fn call(&mut self, req: &Req) -> Result<Reply, Failure> {
        match &req.0 {
            ReqKind::Op(op) => op_reply(self.0.execute(op)?),
            _ => Err(not_served("Protocol I")),
        }
    }

    fn share(&self) -> SyncShare {
        self.0.sync_share()
    }

    fn accepts(&self, shares: &[SyncShare]) -> bool {
        self.0.sync_succeeds(shares)
    }
}

/// A threaded Protocol II client as a CVS session.
struct NetDb(NetClient2);

impl VerifiedDb for NetDb {
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        self.0.execute(op).map_err(|e| match e {
            NetError::Deviation(d) => CvsError::Deviation(d),
            other => CvsError::Network(other.to_string()),
        })
    }
}

impl AsRef<NetClient2> for NetDb {
    fn as_ref(&self) -> &NetClient2 {
        &self.0
    }
}

/// Decorator at the `VerifiedDb` seam under `Cvs`: one `net.call` span per
/// database operation, numbered like the net client numbers its requests
/// so server-side spans can find it. `arg` is the value size of a `Put`.
pub struct TimedDb<D: VerifiedDb> {
    inner: D,
    user: u32,
    seq: u64,
}

impl<D: VerifiedDb> VerifiedDb for TimedDb<D> {
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        self.seq += 1;
        let (span, _) = trace::begin(trace::NET_CALL, self.user, self.seq);
        let out = self.inner.execute(op);
        let value_bytes = match op {
            Op::Put(_, v) => v.len() as u64,
            _ => 0,
        };
        trace::end(span, value_bytes);
        out
    }
}

impl<D: VerifiedDb + AsRef<NetClient2>> AsRef<NetClient2> for TimedDb<D> {
    fn as_ref(&self) -> &NetClient2 {
        self.inner.as_ref()
    }
}

/// One developer: CVS commands over a verified session.
struct CvsDev<D> {
    db: D,
    name: String,
}

fn cvs_call<D: VerifiedDb>(db: &mut D, name: &str, req: &Req) -> Result<Reply, Failure> {
    let mut cvs = Cvs::new(db, name);
    match &req.0 {
        ReqKind::Add { path, content } => Ok(Reply::Rev(cvs.add(path, content, "import", 0)?)),
        ReqKind::Checkout(path) => {
            let wf = cvs.checkout(path)?;
            Ok(Reply::File {
                lines: wf.lines,
                rev: wf.base_rev,
            })
        }
        ReqKind::Commit(wf) => Ok(Reply::Rev(cvs.commit(wf, "edit", wf.base_rev as u64)?)),
        _ => Err(not_served("CVS")),
    }
}

impl<D: VerifiedDb + AsRef<NetClient2>> Client for CvsDev<D> {
    fn call(&mut self, req: &Req) -> Result<Reply, Failure> {
        cvs_call(&mut self.db, &self.name, req)
    }

    fn share(&self) -> SyncShare {
        self.db.as_ref().sync_share()
    }

    fn accepts(&self, shares: &[SyncShare]) -> bool {
        self.db.as_ref().sync_succeeds(shares)
    }
}

// ----------------------------------------------------------------------
// Decorators on the server side
// ----------------------------------------------------------------------

/// Decorator at the `ServerApi` seam inside `NetServer`: one span per
/// handled request (named for what was asked, `arg` = encoded reply
/// bytes), one per signature deposit, and the wait between the two. The
/// server thread's spans are flushed when the server is dropped.
pub struct TimedServer<S: ServerApi> {
    inner: S,
    sink: Sink,
    /// Per user: when its last request finished being handled, and that
    /// request's sequence number.
    last: Vec<(u64, u64)>,
}

impl<S: ServerApi> TimedServer<S> {
    fn new(inner: S, sink: Sink) -> TimedServer<S> {
        TimedServer {
            inner,
            sink,
            last: vec![(0, 0); USERS as usize],
        }
    }

    fn handled(&mut self, user: UserId, seq: u64, end_ns: u64) {
        if let Some(slot) = self.last.get_mut(user as usize) {
            *slot = (end_ns, seq);
        }
    }
}

impl<S: ServerApi> Drop for TimedServer<S> {
    fn drop(&mut self) {
        self.sink.flush_thread("server");
    }
}

impl<S: ServerApi> ServerApi for TimedServer<S> {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.inner.handle_op(user, op, round)
    }

    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        let name = if op.is_update() {
            trace::SERVER_PUT
        } else {
            trace::SERVER_GET
        };
        let (span, _) = trace::begin(name, user, seq);
        let resp = self.inner.handle_op_seq(user, seq, op, round);
        let end = trace::end(span, resp.encoded_size() as u64);
        self.handled(user, seq, end);
        resp
    }

    fn handle_op_batch(
        &mut self,
        user: UserId,
        seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        let (span, _) = trace::begin(trace::SERVER_BATCH, user, seq);
        let resp = self.inner.handle_op_batch(user, seq, ops, round);
        let end = trace::end(span, resp.as_ref().map_or(0, |r| r.encoded_size() as u64));
        self.handled(user, seq, end);
        resp
    }

    fn handle_op_pipelined(
        &mut self,
        user: UserId,
        seq: u64,
        op: &Op,
        round: u64,
        depth: usize,
    ) -> Option<PipelinedResponse> {
        self.inner.handle_op_pipelined(user, seq, op, round, depth)
    }

    fn deposit_lag(&self) -> u64 {
        self.inner.deposit_lag()
    }

    fn deposit_signature(&mut self, user: UserId, s: SignedState) {
        let (handled_ns, seq) = self.last.get(user as usize).copied().unwrap_or((0, 0));
        let (span, start) = trace::begin(trace::SERVER_DEPOSIT, user, seq);
        self.inner.deposit_signature(user, s);
        trace::end(span, 0);
        if handled_ns > 0 {
            trace::record(Span {
                name: trace::NET_DEPOSIT_WAIT,
                start_ns: handled_ns,
                end_ns: start,
                parent: NO_PARENT,
                user,
                seq,
                arg: 0,
            });
        }
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        self.inner.deposit_epoch_state(s)
    }

    fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.inner.fetch_epoch_states(requester, epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        self.inner.deposit_checkpoint(c)
    }

    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.inner.fetch_checkpoint(requester, epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        self.inner.metrics()
    }

    fn crash_restart(&mut self) {
        self.inner.crash_restart()
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        self.inner.read_snapshot()
    }

    fn recovered_journal(&self) -> Option<Vec<(UserId, u64, ServerResponse)>> {
        self.inner.recovered_journal()
    }
}

/// Decorator at the `Storage` seam inside `DurableServer`: a span per
/// commit (`arg` = records) and per checkpoint (`arg` = state bytes),
/// attributed to the request being handled.
pub struct TimedStorage<S: Storage>(S);

impl<S: Storage> Storage for TimedStorage<S> {
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError> {
        let (user, seq) = trace::current_request();
        let records = batch.len() as u64;
        let (span, _) = trace::begin(trace::STORAGE_COMMIT, user, seq);
        let out = self.0.commit(batch);
        trace::end(span, records);
        out
    }

    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError> {
        let (user, seq) = trace::current_request();
        let (span, _) = trace::begin(trace::STORAGE_CHECKPOINT, user, seq);
        let out = self.0.checkpoint(state);
        trace::end(span, state.len() as u64);
        out
    }

    fn recover(&mut self) -> Result<Recovered, StorageError> {
        self.0.recover()
    }

    fn salvage(&mut self) -> Result<Recovered, StorageError> {
        self.0.salvage()
    }

    fn next_lsn(&self) -> u64 {
        self.0.next_lsn()
    }
}

/// Decorator at the `Medium` seam inside `DurableStorage`: a span per
/// write, fsync and remove (`arg` = bytes written).
pub struct TimedMedium<M: Medium>(M);

impl<M: Medium> TimedMedium<M> {
    fn timed<T>(&mut self, name: &'static str, bytes: u64, f: impl FnOnce(&mut M) -> T) -> T {
        let (user, seq) = trace::current_request();
        let (span, _) = trace::begin(name, user, seq);
        let out = f(&mut self.0);
        trace::end(span, bytes);
        out
    }
}

impl<M: Medium> Medium for TimedMedium<M> {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.0.list()
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.0.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.timed(trace::MEDIUM_APPEND, data.len() as u64, |m| {
            m.append(name, data)
        })
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        self.timed(trace::MEDIUM_SYNC, 0, |m| m.sync(name))
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.timed(trace::MEDIUM_WRITE_ATOMIC, data.len() as u64, |m| {
            m.write_atomic(name, data)
        })
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.timed(trace::MEDIUM_REMOVE, 0, |m| m.remove(name))
    }
}

// ----------------------------------------------------------------------
// Deployments
// ----------------------------------------------------------------------

fn empty_root() -> Digest {
    MerkleTree::with_order(CONFIG.order).root_digest()
}

/// An in-memory honest server holding the preloaded values.
fn preloaded_memory_server(preload: Preload) -> (HonestServer, Digest) {
    let mut core = ServerCore::new(&CONFIG);
    if let Preload::Values { keys, value_len } = preload {
        for i in 0..keys {
            core.db_mut()
                .insert(key_bytes(i), value_bytes(i, 0, value_len))
                .expect("a full tree accepts inserts");
        }
    }
    let root = core.root_digest();
    (HonestServer::from_core(core), root)
}

type PlainDurable = DurableServer<DurableStorage<FileMedium>>;
type TracedDurable = DurableServer<TimedStorage<DurableStorage<TimedMedium<FileMedium>>>>;

fn durability(plan: &Plan) -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every: plan.checkpoint_every,
        salvage_corruption: false,
    }
}

fn open_plain(dir: &Path, opts: DurabilityOptions) -> PlainDurable {
    let medium = FileMedium::open(dir).expect("data directory is writable");
    let storage = DurableStorage::open(medium, DurableOptions::default());
    DurableServer::open(storage, CONFIG, opts, StorageObs::disabled())
        .expect("a clean shutdown recovers")
}

fn open_traced(dir: &Path, opts: DurabilityOptions) -> TracedDurable {
    let medium = TimedMedium(FileMedium::open(dir).expect("data directory is writable"));
    let storage = TimedStorage(DurableStorage::open(medium, DurableOptions::default()));
    DurableServer::open(storage, CONFIG, opts, StorageObs::disabled()).expect("fresh storage opens")
}

/// A data directory of its own under `base`, emptied.
fn fresh_dir(base: &Path, tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = base.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("data directory is writable");
    dir
}

fn server_options(stack: Stack) -> NetServerOptions {
    NetServerOptions {
        blocking_signatures: stack == Stack::P1,
        ..NetServerOptions::default()
    }
}

fn spawn<S: ServerApi + Send + 'static>(
    inner: S,
    stack: Stack,
    traced: Option<(&Sink, &NetStats)>,
) -> NetServer {
    match traced {
        Some((sink, stats)) => NetServer::spawn_observed(
            Box::new(TimedServer::new(inner, sink.clone())),
            server_options(stack),
            stats.clone(),
        ),
        None => NetServer::spawn_with(Box::new(inner), server_options(stack)),
    }
}

/// Derives both users' MSS keys, one thread each; returns the keyrings,
/// the registry, and each derivation's wall time.
fn keygen(height: u32) -> (Vec<Keyring>, KeyRegistry, Vec<f64>) {
    let derived: Vec<(Keyring, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..USERS)
            .map(|u| {
                s.spawn(move || {
                    let t = Instant::now();
                    let ring = Keyring::derive(&[0x5a; 32], u, height);
                    (ring, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("key derivation does not panic"))
            .collect()
    });
    let mut registry = KeyRegistry::new();
    let mut rings = Vec::new();
    let mut secs = Vec::new();
    for (ring, s) in derived {
        assert!(registry.register(ring.user, ring.public_key()));
        rings.push(ring);
        secs.push(s);
    }
    (rings, registry, secs)
}

/// Binds one client per user to `server`, the way the measured run does.
fn connect(
    stack: Stack,
    server: &NetServer,
    root: &Digest,
    mss_height: u32,
    traced: Option<&NetStats>,
) -> (Vec<Box<dyn Client + Send>>, Vec<f64>) {
    let net2 = |u: u32| {
        let mut c = NetClient2::new(u, root, CONFIG, server);
        if let Some(stats) = traced {
            c.set_stats(stats.clone());
        }
        c
    };
    match stack {
        Stack::P2 => (
            (0..USERS)
                .map(|u| Box::new(Kv2(net2(u))) as Box<dyn Client + Send>)
                .collect(),
            Vec::new(),
        ),
        Stack::P1 => {
            let (rings, registry, secs) = keygen(mss_height);
            let mut clients: Vec<NetClient1> = rings
                .into_iter()
                .map(|ring| {
                    let mut c = NetClient1::new(ring, registry.clone(), CONFIG, server);
                    if let Some(stats) = traced {
                        c.set_stats(stats.clone());
                    }
                    c
                })
                .collect();
            clients[0]
                .deposit_initial(root)
                .expect("a fresh key signs the initial state");
            (
                clients
                    .into_iter()
                    .map(|c| Box::new(Kv1(c)) as Box<dyn Client + Send>)
                    .collect(),
                secs,
            )
        }
        Stack::CvsDurable => (
            (0..USERS)
                .map(|u| {
                    let name = format!("dev{u}");
                    let db = NetDb(net2(u));
                    if traced.is_some() {
                        let db = TimedDb {
                            inner: db,
                            user: u,
                            seq: 0,
                        };
                        Box::new(CvsDev { db, name }) as Box<dyn Client + Send>
                    } else {
                        Box::new(CvsDev { db, name }) as Box<dyn Client + Send>
                    }
                })
                .collect(),
            Vec::new(),
        ),
    }
}

/// The imported text of file `idx`.
pub fn imported_lines(idx: u32, lines: u32) -> Vec<String> {
    (0..lines).map(|l| file_line(idx, l, 0)).collect()
}

/// The `add` of every file to import (none for a key-value preload, which
/// is loaded straight into the server).
fn import_requests(preload: Preload) -> Vec<Req> {
    match preload {
        Preload::Files { files, lines } => (0..files)
            .map(|idx| Req::add(file_path(idx), &imported_lines(idx, lines)))
            .collect(),
        Preload::Values { .. } => Vec::new(),
    }
}

/// A running stack: server thread plus one bound client per user.
pub struct Deployment {
    clients: Vec<Box<dyn Client + Send>>,
    server: NetServer,
    stats: Option<NetStats>,
    durable: Option<(PathBuf, DurabilityOptions)>,
    /// Wall time of each MSS key derivation done while deploying.
    pub keygen_s: Vec<f64>,
}

/// Stands the plan's stack up and preloads it. With a `sink` the run is
/// traced: the decorators go in and a metrics registry is attached.
pub fn deploy(plan: &Plan, sink: Option<&Sink>) -> Deployment {
    let stats = sink.map(|_| NetStats::new(Arc::new(MetricsRegistry::new()), Tracer::disabled()));
    let traced = sink.zip(stats.as_ref());
    let (server, root, durable) = match plan.stack {
        Stack::P2 | Stack::P1 => {
            let (inner, root) = preloaded_memory_server(plan.preload);
            (spawn(inner, plan.stack, traced), root, None)
        }
        Stack::CvsDurable => {
            let dir = fresh_dir(&plan.data_dir, "data");
            let opts = durability(plan);
            let server = if traced.is_some() {
                spawn(open_traced(&dir, opts), plan.stack, traced)
            } else {
                spawn(open_plain(&dir, opts), plan.stack, traced)
            };
            (server, empty_root(), Some((dir, opts)))
        }
    };
    let (mut clients, keygen_s) =
        connect(plan.stack, &server, &root, plan.mss_height, stats.as_ref());
    // User 0 imports the files, through its own client.
    for req in import_requests(plan.preload) {
        clients[0].call(&req).expect("import on an honest server");
    }
    // Spans of the set-up itself are not part of any measured phase.
    trace::take();
    Deployment {
        clients,
        server,
        stats,
        durable,
        keygen_s,
    }
}

/// Counters read off the attached metrics registry after a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounts {
    pub batch_windows: u64,
    pub batch_declined: u64,
    pub retries: u64,
    pub journal_evictions: u64,
    pub snapshot_publishes: u64,
}

/// What re-opening the data directory after shutdown found.
#[derive(Clone, Copy, Debug)]
pub struct Reopened {
    /// The recovered state is the last state any client was acknowledged.
    pub root_matches: bool,
    /// Checkpoint plus replayed records cover every acknowledged op.
    pub covers_acknowledged: bool,
    pub records_replayed: u64,
    pub recovery_s: f64,
}

/// The verdict of tearing a deployment down.
#[derive(Clone, Copy, Debug)]
pub struct Finish {
    /// The final sync-up across all users passed.
    pub sync_ok: bool,
    pub net: Option<NetCounts>,
    pub reopened: Option<Reopened>,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Deployment {
    /// Hands the clients out (to be moved onto their threads).
    pub fn take_clients(&mut self) -> Vec<Box<dyn Client + Send>> {
        std::mem::take(&mut self.clients)
    }

    /// Final sync-up, shutdown, and — on the durable stack — a re-open of
    /// the data directory, which is then removed.
    pub fn finish(self, clients: Vec<Box<dyn Client + Send>>) -> Finish {
        let (sync_ok, shares) = sync_up(&clients);
        drop(clients);
        self.server.shutdown();
        let net = self.stats.map(|s| {
            let snap = s.snapshot();
            let c = |name: &str| snap.counter(name).unwrap_or(0);
            NetCounts {
                batch_windows: c("net.batch.windows"),
                batch_declined: c("net.batch.declined"),
                retries: c("net.client.retries"),
                journal_evictions: c("net.server.journal_evictions"),
                snapshot_publishes: c("net.server.snapshot_publishes"),
            }
        });
        let reopened = self.durable.map(|(dir, opts)| {
            let t = Instant::now();
            let server = open_plain(&dir, opts);
            let recovery_s = t.elapsed().as_secs_f64();
            let core = server.core();
            // The user who operated last holds the token of the state the
            // server acknowledged last; a Protocol II client keeps no root,
            // so tokens are what there is to compare.
            let last = shares.iter().max_by_key(|s| s.gctr);
            let recovered = state_token(&core.root_digest(), core.ctr(), core.last_user());
            let acknowledged: u64 = shares.iter().map(|s| s.lctr).sum();
            let out = Reopened {
                root_matches: last.is_some_and(|s| s.last == Some(recovered)),
                covers_acknowledged: core.ctr() == acknowledged,
                records_replayed: server.last_recovery().records_replayed,
                recovery_s,
            };
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
            out
        });
        Finish {
            sync_ok,
            net,
            reopened,
        }
    }
}

// ----------------------------------------------------------------------
// Canaries
// ----------------------------------------------------------------------

/// One named verification check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool) -> Check {
        Check {
            name: name.into(),
            ok,
        }
    }
}

/// MSS height for canary keys: 256 signatures per user covers a canary.
const CANARY_MSS_HEIGHT: u32 = 8;
/// The adversaries strike at this server counter.
const CANARY_TRIGGER: u64 = 64;
/// Calls each canary user makes at most.
const CANARY_CALLS: u32 = 100;

/// A valid request sequence for `user` on `stack`: writes to its own items
/// interleaved with reads of them. `windows` asks for batched windows.
fn canary_script(stack: Stack, user: u32, windows: bool) -> Vec<Req> {
    let mut out = Vec::new();
    match stack {
        Stack::P2 | Stack::P1 => {
            for i in 0..CANARY_CALLS {
                let key = |j: u32| key_bytes(user * 1000 + (i + j) % 16);
                out.push(match (windows, i % 2 == 0) {
                    (false, true) => Req::put(key(0), value_bytes(i, i, 64)),
                    (false, false) => Req::get(key(15)),
                    (true, true) => {
                        Req::put_window((0..8).map(|j| (key(j), value_bytes(i, j, 64))).collect())
                    }
                    (true, false) => Req::get_window((0..8).map(key).collect()),
                });
            }
        }
        Stack::CvsDurable => {
            let idx = 900 + user;
            let mut lines = imported_lines(idx, 8);
            out.push(Req::add(file_path(idx), &lines));
            for i in 1..CANARY_CALLS / 2 {
                lines[(i % 8) as usize] = file_line(idx, i % 8, i);
                out.push(Req::commit(file_path(idx), lines.clone(), i));
                out.push(Req::checkout(file_path(idx)));
            }
        }
    }
    out
}

/// Runs `users` canary clients round-robin against `inner`. Returns whether
/// the deviation was detected: by a call failing with a deviation, or by
/// the final sync-up failing.
fn detects(stack: Stack, inner: Box<dyn ServerApi + Send>, users: u32, windows: bool) -> bool {
    let server = NetServer::spawn_with(inner, server_options(stack));
    let (mut clients, _) = connect(stack, &server, &empty_root(), CANARY_MSS_HEIGHT, None);
    clients.truncate(users as usize);
    let scripts: Vec<Vec<Req>> = (0..users)
        .map(|u| canary_script(stack, u, windows))
        .collect();
    let mut alarm = false;
    'run: for i in 0..scripts[0].len() {
        for (client, script) in clients.iter_mut().zip(&scripts) {
            if let Err(f) = client.call(&script[i]) {
                alarm = f.deviation;
                break 'run;
            }
        }
    }
    let detected = alarm || !sync_up(&clients).0;
    drop(clients);
    server.shutdown();
    detected
}

/// Before any timing: the stack's own client path must catch a lying
/// server, a tampering server and a forking server, and must raise no
/// alarm on an honest one. A "speed-up" that skips verification fails
/// here.
pub fn canary(stack: Stack) -> Vec<Check> {
    let at = Trigger::AtCtr(CANARY_TRIGGER);
    let mut checks = vec![
        Check::new(
            "canary: honest server raises no alarm",
            !detects(stack, Box::new(HonestServer::new(&CONFIG)), USERS, false),
        ),
        Check::new(
            "canary: lying server detected",
            detects(stack, Box::new(LieServer::new(&CONFIG, at)), 1, false),
        ),
        Check::new(
            "canary: tampering server detected",
            detects(stack, Box::new(TamperServer::new(&CONFIG, at)), 1, false),
        ),
        Check::new(
            "canary: forking server fails the sync-up",
            detects(
                stack,
                Box::new(ForkServer::new(&CONFIG, at, &[0])),
                USERS,
                false,
            ),
        ),
    ];
    if stack == Stack::P2 {
        checks.push(Check::new(
            "canary: lying server detected through batched windows",
            detects(stack, Box::new(LieServer::new(&CONFIG, at)), 1, true),
        ));
    }
    checks
}

// ----------------------------------------------------------------------
// The ladder
// ----------------------------------------------------------------------

/// What the ladder measured, keyed by catalogue name and already in the
/// metric's unit.
#[derive(Default)]
struct Rungs {
    /// Timings: the metric is the median.
    timed: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts (bytes, nodes): the metric is the mean.
    counted: BTreeMap<&'static str, Vec<f64>>,
    /// Size of every value written, for the store and storage ratios.
    put_value_bytes: Vec<f64>,
}

impl Rungs {
    /// Records `elapsed` spent on `per` items under `metric`, in the unit
    /// the metric's name ends in.
    fn elapsed(&mut self, metric: &'static str, elapsed: Duration, per: u64) {
        let ns = elapsed.as_nanos() as f64 / per as f64;
        let value = if metric.ends_with("_ns") {
            ns
        } else {
            ns / 1e3
        };
        self.timed.entry(metric).or_default().push(value);
    }

    fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.elapsed(metric, t.elapsed(), 1);
        out
    }

    fn count(&mut self, metric: &'static str, v: f64) {
        self.counted.entry(metric).or_default().push(v);
    }
}

enum LadderClients {
    Two(Vec<Client2>),
    One(Vec<Client1>),
}

/// A single-threaded replay of a workload's requests through the public
/// functions that have no seam under the net clients. Each request is
/// proven, encoded, decoded and replayed by hand against a snapshot of the
/// server's tree — timing each step — and then served by the server and
/// verified by the protocol client, timing the client's side. Counts taken
/// here (bytes, nodes, fsyncs) repeat exactly for a given seed.
pub struct Ladder {
    server: Box<dyn ServerApi>,
    clients: LadderClients,
    rungs: Rungs,
    seq: Vec<u64>,
    round: u64,
    /// Last known head of each file, to time the diff a commit will run.
    heads: HashMap<String, Vec<String>>,
    durable: Option<PathBuf>,
    db_ops: u64,
}

fn failure(what: impl std::fmt::Debug) -> Failure {
    Failure {
        deviation: true,
        what: format!("{what:?}"),
    }
}

impl Ladder {
    /// A ladder over a fresh copy of the plan's server (in-process, no
    /// server thread). The durable stack gets a data directory of its own
    /// and the storage decorators, so its write and fsync counts come from
    /// the same seams as the threaded run's.
    pub fn new(plan: &Plan) -> Ladder {
        let (server, root, durable): (Box<dyn ServerApi>, Digest, Option<PathBuf>) =
            match plan.stack {
                Stack::P2 | Stack::P1 => {
                    let (inner, root) = preloaded_memory_server(plan.preload);
                    (Box::new(inner), root, None)
                }
                Stack::CvsDurable => {
                    let dir = fresh_dir(&plan.data_dir, "ladder");
                    (
                        Box::new(open_traced(&dir, durability(plan))),
                        empty_root(),
                        Some(dir),
                    )
                }
            };
        let clients = match plan.stack {
            Stack::P1 => {
                let (rings, registry, _) = keygen(CANARY_MSS_HEIGHT);
                LadderClients::One(
                    rings
                        .into_iter()
                        .map(|r| Client1::new(r, registry.clone(), CONFIG))
                        .collect(),
                )
            }
            _ => LadderClients::Two((0..USERS).map(|u| Client2::new(u, &root, CONFIG)).collect()),
        };
        let mut ladder = Ladder {
            server,
            clients,
            rungs: Rungs::default(),
            seq: vec![0; USERS as usize],
            round: 0,
            heads: HashMap::new(),
            durable,
            db_ops: 0,
        };
        if let LadderClients::One(clients) = &mut ladder.clients {
            let init = clients[0]
                .sign_initial(&root)
                .expect("a fresh key signs the initial state");
            ladder.server.deposit_signature(0, init);
        }
        for req in import_requests(plan.preload) {
            ladder.call(0, &req).expect("import on an honest server");
        }
        // The import is set-up: its samples and spans are not ladder
        // measurements.
        ladder.rungs = Rungs::default();
        ladder.db_ops = 0;
        trace::take();
        ladder
    }

    /// How many calls each user may make (Protocol I keys are small here).
    pub fn budget(&self) -> usize {
        match self.clients {
            LadderClients::One(_) => (1 << CANARY_MSS_HEIGHT) - 8,
            LadderClients::Two(_) => usize::MAX,
        }
    }

    /// One database operation: every rung below the net client, then the
    /// served exchange.
    fn point(&mut self, user: u32, op: &Op) -> Result<OpResult, Failure> {
        let snap = self
            .server
            .read_snapshot()
            .expect("honest servers publish snapshots");
        let root = snap.root_digest();
        let r = &mut self.rungs;
        let pruned = r.time("merkle.prove_point_us", || prune_for_op(snap.db(), op));
        let vo = VerificationObject::new(pruned);
        r.count("merkle.vo_nodes_per_op", vo.materialized_nodes() as f64);
        let bytes = r.time("merkle.vo_encode_us", || vo.to_bytes());
        r.count("merkle.vo_bytes_per_op", bytes.len() as f64);
        let decoded = r.time("merkle.vo_decode_us", || {
            VerificationObject::from_bytes(&bytes)
        });
        black_box(decoded.map_err(failure)?);
        let verified = r.time("merkle.verify_point_us", || {
            verify_response(&root, CONFIG.order, &vo, op, None, None)
        });
        black_box(verified.map_err(failure)?);
        let mut live = r.time("merkle.snapshot_clone_ns", || snap.db().clone());
        if let Op::Put(_, value) = op {
            let applied = r.time("merkle.apply_put_us", || apply_op(&mut live, op));
            black_box(applied.map_err(failure)?);
            r.put_value_bytes.push(value.len() as f64);
        }
        drop(snap);

        let u = user as usize;
        self.seq[u] += 1;
        self.round += 1;
        self.db_ops += 1;
        let resp = self.server.handle_op_seq(user, self.seq[u], op, self.round);
        match &mut self.clients {
            LadderClients::Two(clients) => {
                let client = &mut clients[u];
                r.time("core.client2_verify_us", || {
                    client.handle_response(op, &resp)
                })
                .map_err(failure)
            }
            LadderClients::One(clients) => {
                let client = &mut clients[u];
                let (result, deposit) = r
                    .time("core.client1_verify_sign_us", || {
                        client.handle_response(op, &resp)
                    })
                    .map_err(failure)?;
                self.server.deposit_signature(user, deposit);
                Ok(result)
            }
        }
    }

    /// One batched window.
    fn window(&mut self, user: u32, ops: &[Op]) -> Result<Vec<OpResult>, Failure> {
        let LadderClients::Two(clients) = &mut self.clients else {
            return Err(not_served("Protocol I"));
        };
        let snap = self
            .server
            .read_snapshot()
            .expect("honest servers publish snapshots");
        let root = snap.root_digest();
        let n = ops.len() as u64;
        let r = &mut self.rungs;
        let t = Instant::now();
        let proof = BatchProof::new(prune_for_ops(snap.db(), ops));
        r.elapsed("merkle.prove_batch_us_per_op", t.elapsed(), n);
        r.count(
            "merkle.batch_bytes_per_op",
            proof.to_bytes().len() as f64 / n as f64,
        );
        let t = Instant::now();
        let steps = verify_batch_response(&root, CONFIG.order, &proof, ops, None, None);
        r.elapsed("merkle.verify_batch_us_per_op", t.elapsed(), n);
        black_box(steps.map_err(failure)?);
        r.time("merkle.snapshot_clone_ns", || black_box(snap.db().clone()));
        drop(snap);

        let u = user as usize;
        self.seq[u] += 1;
        self.round += 1;
        self.db_ops += n;
        let resp = self
            .server
            .handle_op_batch(user, self.seq[u], ops, self.round)
            .ok_or_else(|| not_served("batch-declining"))?;
        let t = Instant::now();
        let out = clients[u].handle_batch_response(ops, &resp);
        r.elapsed("core.client2_batch_verify_us_per_op", t.elapsed(), n);
        out.map_err(failure)
    }

    /// Replays one request as `user`.
    pub fn call(&mut self, user: u32, req: &Req) -> Result<Reply, Failure> {
        match &req.0 {
            ReqKind::Op(op) => op_reply(self.point(user, op)?),
            ReqKind::Window(ops) => window_reply(self.window(user, ops)?),
            _ => {
                if let ReqKind::Commit(wf) = &req.0 {
                    if let Some(head) = self.heads.get(&wf.path) {
                        // The diff `FileHistory::commit` is about to run.
                        self.rungs.time("store.diff_us", || {
                            black_box(tcvs_store::diff(&wf.lines, head))
                        });
                    }
                }
                let name = format!("dev{user}");
                let mut db = |op: &Op| self.point(user, op).map_err(|f| CvsError::Network(f.what));
                let reply = cvs_call(&mut db, &name, req)?;
                match &req.0 {
                    ReqKind::Commit(wf) => {
                        self.heads.insert(wf.path.clone(), wf.lines.clone());
                    }
                    ReqKind::Add { path, content } => {
                        self.heads
                            .insert(path.clone(), tcvs_store::to_lines(content));
                    }
                    _ => {}
                }
                Ok(reply)
            }
        }
    }

    /// SHA-256 and MSS on their own.
    fn crypto_rungs(&mut self) {
        let (a, b) = (sha256(b"left"), sha256(b"right"));
        // hash_pair compresses two blocks: 64 bytes of input, then padding.
        const PAIRS: u64 = 2000;
        for _ in 0..50 {
            let t = Instant::now();
            let mut acc = a;
            for _ in 0..PAIRS {
                acc = hash_pair(black_box(&acc), black_box(&b));
            }
            black_box(acc);
            self.rungs
                .elapsed("crypto.sha256_block_ns", t.elapsed(), PAIRS * 2);
        }
        let msgs: Vec<[u8; 64]> = (0..64u8).map(|i| [i; 64]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for _ in 0..50 {
            let t = Instant::now();
            for _ in 0..32 {
                black_box(sha256_many(black_box(&refs)));
            }
            self.rungs
                .elapsed("crypto.sha256_many_block_ns", t.elapsed(), 32 * 64 * 2);
        }
        if matches!(self.clients, LadderClients::One(_)) {
            let mut ring = Keyring::derive(&[0x77; 32], 0, CANARY_MSS_HEIGHT);
            let mut registry = KeyRegistry::new();
            registry.register(0, ring.public_key());
            for i in 0..100u32 {
                let msg = sha256(&i.to_le_bytes());
                let sig = self
                    .rungs
                    .time("crypto.mss_sign_us", || ring.sign(&msg))
                    .expect("within the key's capacity");
                let ok = self
                    .rungs
                    .time("crypto.mss_verify_us", || registry.verify(0, &msg, &sig));
                assert!(ok, "a fresh signature verifies");
            }
        }
    }

    /// Ends the replay: final sync-up (timed), the crypto rungs, and — on
    /// the durable stack — the exact storage counts. Returns the per-layer
    /// metrics this ladder measured, by their catalogue names, and whether
    /// the sync-up passed.
    pub fn finish(mut self) -> (Vec<(&'static str, f64)>, bool) {
        let mut sync_ok = true;
        for _ in 0..20 {
            let clients = &self.clients;
            sync_ok &= self.rungs.time("core.sync_up_us", || match clients {
                LadderClients::Two(cs) => {
                    let shares: Vec<SyncShare> = cs.iter().map(Client2::sync_share).collect();
                    cs.iter().any(|c| c.sync_succeeds(&shares))
                }
                LadderClients::One(cs) => {
                    let shares: Vec<SyncShare> = cs.iter().map(Client1::sync_share).collect();
                    cs.iter().any(|c| c.sync_succeeds(&shares))
                }
            });
        }
        self.crypto_rungs();

        let rungs = self.rungs;
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        out.extend(
            rungs
                .timed
                .iter()
                .filter_map(|(name, v)| Some((*name, median(v)?))),
        );
        out.extend(
            rungs
                .counted
                .iter()
                .map(|(name, v)| (*name, v.iter().sum::<f64>() / v.len() as f64)),
        );

        if let Some(dir) = &self.durable {
            if let Some(v) = median(&rungs.put_value_bytes) {
                out.push(("store.value_bytes_p50", v));
            }
            let live_bytes: usize = self
                .server
                .read_snapshot()
                .and_then(|snap| snap.db().entries().ok())
                .map_or(0, |es| es.iter().map(|(_, v)| v.len()).sum());
            drop(self.server);
            // Everything the storage seams saw during the replay (the
            // import's spans were discarded).
            let spans = trace::take();
            let count = |n: &str| spans.iter().filter(|s| s.name == n).count() as f64;
            let bytes = |n: &str| -> f64 {
                spans
                    .iter()
                    .filter(|s| s.name == n)
                    .map(|s| s.arg as f64)
                    .sum()
            };
            let ops = self.db_ops.max(1) as f64;
            let user_bytes: f64 = rungs.put_value_bytes.iter().sum();
            let appended = bytes(trace::MEDIUM_APPEND);
            let written = appended + bytes(trace::MEDIUM_WRITE_ATOMIC);
            // A durable flush is a `sync` or a `write_atomic` at the seam.
            let flushes = count(trace::MEDIUM_SYNC) + count(trace::MEDIUM_WRITE_ATOMIC);
            out.push(("storage.fsyncs_per_op", flushes / ops));
            out.push(("storage.append_bytes_per_op", appended / ops));
            out.push(("storage.write_amp", written / user_bytes.max(1.0)));
            out.push((
                "storage.disk_bytes_per_user_byte",
                dir_bytes(dir) as f64 / live_bytes.max(1) as f64,
            ));
            let _ = std::fs::remove_dir_all(dir);
        }
        (out, sync_ok)
    }
}

//! The durable server engine: [`tcvs_core::ServerApi`] over a [`Storage`].
//!
//! [`DurableServer`] wraps the deterministic [`ServerCore`] with
//! write-ahead discipline: every state-changing message — operation,
//! signature deposit, epoch-state deposit, audited checkpoint — is
//! committed to the log (one append, one fsync) *before* the core applies
//! it and the response leaves the process. A crash at any instant therefore
//! loses at most work that was never acknowledged. The log holds the
//! protocol's state and nothing else: no black box and no evidence, which
//! the users who verify the server keep on their side.
//!
//! ## Checkpoints ride the log
//!
//! Because the core is deterministic, the log carries only inputs (see
//! [`Record`]), and the log alone rebuilds the server. A full checkpoint
//! bounds how much of it recovery replays. Every
//! [`DurabilityOptions::checkpoint_every`] operations the countdown runs
//! out; if no checkpoint is streaming and the records committed since the
//! last one started outweigh it (its own pieces not counted), a new one
//! starts: a copy-on-write snapshot of the world, encoded a piece at a time
//! into [`Record::Chunk`]s, one riding each commit inside its one fsync,
//! sized to complete within `checkpoint_every` commits.
//!
//! Recovery restores the newest complete checkpoint and replays every
//! record after its first piece through the same [`ServerCore::process`]
//! path, regenerating every response — including the reply-journal entries
//! the transport acknowledged — byte-identically. The replay holds at most
//! the checkpoint's own weight in record bytes plus two countdowns' worth,
//! and one countdown more for each stream a crash cut short. The byte
//! count and the countdown resume from the records replayed, so a server
//! that crashes often still checkpoints; one that crashes before its
//! streams can complete takes a checkpoint when it reopens, once the
//! replay outweighs two, so no recovery replays much more than that.
//!
//! Commit failures are crash-stop: the [`tcvs_core::ServerApi`] entry
//! points panic rather than acknowledge an op that was never made durable.
//! The fallible [`DurableServer::apply`] exists for harnesses that inject
//! storage faults and want the error back instead.

use std::sync::Arc;

use tcvs_core::wire::{put_audit_checkpoint, put_epoch_state, put_signed_state};
use tcvs_core::{
    Ctr, Digest, Epoch, ProtocolConfig, ReadSnapshot, ServerApi, ServerCore, ServerMetrics,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::{ChunkAssembler, ChunkManifest, EncodeStream, Op};
use tcvs_obs::{Counter, Event, EventKind, MetricsRegistry, Tracer};
use tcvs_store::enc::Writer;

use crate::codec::stream_state;
use crate::error::StorageError;
use crate::record::{
    put_op_body, JournalEntry, Record, NO_SEQ, TAG_AUDIT_CHECKPOINT, TAG_EPOCH_STATE, TAG_OP,
    TAG_SIGNATURE,
};
use crate::storage::{Recovered, RecoveryReport, Storage, WriteBatch};

/// Tuning knobs for [`DurableServer`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// Consider a checkpoint after this many committed operations (0
    /// disables automatic checkpoints; [`DurableServer::checkpoint_now`]
    /// still works). A full checkpoint of the whole world starts only once
    /// the records committed since the last one started outweigh it, and
    /// none is streaming; it streams out a piece per commit and completes
    /// within this many commits. Recovery replays every record after the
    /// newest complete checkpoint's first piece: about that checkpoint's
    /// weight in record bytes (see the module docs for the bound).
    pub checkpoint_every: u64,
    /// Serve even when recovery stopped at interior log corruption
    /// ([`RecoveryReport::corrupt_stop`]). Off by default: a corrupt stop
    /// means acknowledged operations may be lost, so [`DurableServer::open`]
    /// and [`tcvs_core::ServerApi::crash_restart`] fail with
    /// [`StorageError::Unrecoverable`] and an operator must opt in before
    /// the server resumes from the salvaged prefix. The storage layer has
    /// already quarantined everything past the stop point either way, so a
    /// salvage restart continues on a single consistent timeline.
    pub salvage_corruption: bool,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            checkpoint_every: 256,
            salvage_corruption: false,
        }
    }
}

/// Storage-engine observability: tracer plus commit/recovery counters.
pub struct StorageObs {
    /// Event tracer (recovery events are emitted through it).
    pub tracer: Tracer,
    registry: Arc<MetricsRegistry>,
    commits: Arc<Counter>,
    checkpoints: Arc<Counter>,
    recoveries: Arc<Counter>,
    recovery_replayed: Arc<Counter>,
    torn_tail_dropped_bytes: Arc<Counter>,
    stale_segments_quarantined: Arc<Counter>,
}

impl StorageObs {
    /// Observability wired to `tracer` and a fresh registry.
    pub fn new(tracer: Tracer) -> StorageObs {
        let registry = Arc::new(MetricsRegistry::new());
        StorageObs {
            commits: registry.counter("storage.commits"),
            checkpoints: registry.counter("storage.checkpoints"),
            recoveries: registry.counter("storage.recoveries"),
            recovery_replayed: registry.counter("storage.recovery_replayed"),
            torn_tail_dropped_bytes: registry.counter("storage.torn_tail_dropped_bytes"),
            stale_segments_quarantined: registry.counter("storage.stale_segments_quarantined"),
            registry,
            tracer,
        }
    }

    /// No-op observability.
    pub fn disabled() -> StorageObs {
        StorageObs::new(Tracer::disabled())
    }

    /// The metrics registry (for export/snapshot).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

/// A crash-safe server: [`ServerCore`] behind a write-ahead log (see
/// module docs).
pub struct DurableServer<S: Storage> {
    storage: S,
    core: ServerCore,
    config: ProtocolConfig,
    opts: DurabilityOptions,
    obs: StorageObs,
    /// Mirror of the transport's exactly-once journal: the latest
    /// `(user, seq, response)` per user, in user order, regenerated on
    /// recovery.
    journal: Vec<JournalEntry>,
    /// Ops since the countdown last ran out.
    ops_since_checkpoint: u64,
    last_report: RecoveryReport,
    /// The full checkpoint streaming out, if one is.
    stream: Option<Stream>,
    /// Bytes of the newest full checkpoint started.
    full_bytes: u64,
    /// Body bytes of the records committed since it started, its pieces
    /// left out: what the next one would summarise.
    logged: u64,
}

/// A full checkpoint streaming out: the next commit carries piece `index`.
struct Stream {
    lsn: u64,
    bytes: EncodeStream,
    index: u32,
    count: u32,
    piece: usize,
}

/// Makes `entry` its user's journal entry, keeping the journal in user
/// order.
fn journal_insert(journal: &mut Vec<JournalEntry>, entry: JournalEntry) {
    match journal.binary_search_by_key(&entry.0, |e| e.0) {
        Ok(i) => journal[i] = entry,
        Err(i) => journal.insert(i, entry),
    }
}

impl<S: Storage> DurableServer<S> {
    fn new(
        storage: S,
        core: ServerCore,
        config: ProtocolConfig,
        opts: DurabilityOptions,
        obs: StorageObs,
    ) -> DurableServer<S> {
        DurableServer {
            storage,
            core,
            config,
            opts,
            obs,
            journal: Vec::new(),
            ops_since_checkpoint: 0,
            last_report: RecoveryReport::default(),
            stream: None,
            full_bytes: 0,
            logged: 0,
        }
    }

    /// Opens the engine: recovers from `storage` (checkpoint and replay)
    /// or starts fresh from `config` when the storage is empty.
    pub fn open(
        storage: S,
        config: ProtocolConfig,
        opts: DurabilityOptions,
        obs: StorageObs,
    ) -> Result<DurableServer<S>, StorageError> {
        let mut server = DurableServer::new(storage, ServerCore::new(&config), config, opts, obs);
        server.recover()?;
        Ok(server)
    }

    /// Opens the engine from a **verified chunk stream** instead of local
    /// disk: disaster recovery for a node whose storage is empty or gone.
    ///
    /// The manifest and each chunk (fetched from any peer over any
    /// transport — `fetch(index)` returns the chunk's bytes) are verified
    /// against `expected_anchor` before a single byte is admitted; the
    /// assembled tree must recompute to the anchor exactly, and the
    /// resulting core is checkpointed to `storage` immediately so
    /// subsequent restarts recover locally through the normal
    /// [`DurableServer::open`] path.
    ///
    /// Refuses non-empty storage: a checkpoint or log tail on disk means
    /// this node already has durable state, and silently replacing it with
    /// a remote snapshot could discard acknowledged operations. Wipe the
    /// storage (an explicit operator action) before bootstrapping.
    #[allow(clippy::too_many_arguments)]
    pub fn open_from_chunks(
        storage: S,
        config: ProtocolConfig,
        opts: DurabilityOptions,
        obs: StorageObs,
        expected_anchor: &Digest,
        ctr: Ctr,
        manifest_bytes: &[u8],
        mut fetch: impl FnMut(u32) -> Option<Vec<u8>>,
    ) -> Result<DurableServer<S>, StorageError> {
        let manifest = ChunkManifest::from_bytes(manifest_bytes)
            .map_err(|e| StorageError::Bootstrap(format!("manifest rejected: {e}")))?;
        if manifest.anchor != *expected_anchor {
            return Err(StorageError::Bootstrap(
                "manifest anchor does not match the expected root".into(),
            ));
        }
        let mut assembler = ChunkAssembler::new(manifest)
            .map_err(|e| StorageError::Bootstrap(format!("manifest rejected: {e}")))?;
        for index in assembler.missing() {
            let bytes = fetch(index)
                .ok_or_else(|| StorageError::Bootstrap(format!("chunk {index} unavailable")))?;
            assembler
                .admit(index, &bytes)
                .map_err(|e| StorageError::Bootstrap(format!("chunk {index} rejected: {e}")))?;
        }
        let tree = assembler
            .finish()
            .map_err(|e| StorageError::Bootstrap(format!("assembly rejected: {e}")))?;
        let core = ServerCore::from_verified_state(tree, ctr, &config)
            .map_err(|e| StorageError::Bootstrap(format!("verified state rejected: {e}")))?;

        let mut server = DurableServer::new(storage, core, config, opts, obs);
        let found = server.storage.recover()?;
        if found.checkpoint.is_some()
            || !found.tail.is_empty()
            || found.report.corrupt_stop.is_some()
        {
            return Err(StorageError::Bootstrap(
                "storage already holds durable state; refusing to overwrite it with a \
                 remote snapshot — wipe the storage first"
                    .into(),
            ));
        }
        server.checkpoint_now()?;
        server.obs.tracer.emit(|| {
            Event::new(
                server.core.ctr(),
                EventKind::Recovery,
                server.core.last_user(),
            )
            .detail("bootstrap: restored from verified chunk stream".to_string())
        });
        Ok(server)
    }

    /// Runs recovery against the storage, replacing the in-memory world
    /// with what was durable: the checkpoint, then every record after it.
    fn recover(&mut self) -> Result<(), StorageError> {
        let mut recovered = self.storage.recover()?;
        if let Some(stop) = &recovered.report.corrupt_stop {
            if !self.opts.salvage_corruption {
                // Crash-stop discipline, mirrored: committing refuses to
                // acknowledge what is not durable, and recovery refuses to
                // serve from a log that *lost* something durable. The log
                // is left exactly as found; an operator restarts with
                // `salvage_corruption` to accept the loss explicitly.
                return Err(StorageError::Unrecoverable(format!(
                    "interior log corruption ({stop}); acknowledged operations past the stop \
                     point are lost — restart with DurabilityOptions::salvage_corruption to \
                     serve from the surviving prefix"
                )));
            }
            // The operator accepted the loss: make the discard durable
            // (quarantine the stale suffix, truncate the stopped segment)
            // and rebuild from the salvaged log.
            recovered = self.storage.salvage()?;
        }
        let Recovered {
            checkpoint,
            tail,
            report,
        } = recovered;
        self.journal.clear();
        self.stream = None;
        self.full_bytes = 0;
        self.core = match checkpoint {
            Some((_, ds)) => {
                self.full_bytes = ds.stream().remaining() as u64;
                for entry in ds.journal {
                    journal_insert(&mut self.journal, entry);
                }
                ServerCore::crash_restore(&ds.snapshot)
                    .map_err(|_| StorageError::io("checkpoint snapshot rejected"))?
            }
            None => ServerCore::new(&self.config),
        };
        // The countdown and the byte count go on from where the crash
        // stopped them: the next checkpoint would summarise the tail.
        (self.ops_since_checkpoint, self.logged) = (0, report.bytes_replayed);
        for (_, rec) in tail {
            match rec {
                Record::Op {
                    user,
                    seq,
                    op,
                    round,
                } => {
                    let resp = self.core.process(user, &op, round);
                    if seq != NO_SEQ {
                        journal_insert(&mut self.journal, (user, seq, resp));
                    }
                    self.ops_since_checkpoint += 1;
                }
                Record::Signature(s) => self.core.store_signature(s),
                Record::EpochState(s) => self.core.store_epoch_state(s),
                Record::AuditCheckpoint(c) => self.core.store_checkpoint(c),
                Record::Chunk(..) => {} // the storage leaves pieces out
            }
        }
        self.obs.recoveries.inc();
        self.obs.recovery_replayed.add(report.records_replayed);
        if let Some(tt) = &report.torn_tail {
            self.obs.torn_tail_dropped_bytes.add(tt.dropped_bytes);
        }
        self.obs
            .stale_segments_quarantined
            .add(report.stale_segments_quarantined);
        self.obs.tracer.emit(|| {
            Event::new(self.core.ctr(), EventKind::Recovery, self.core.last_user()).detail(format!(
                "replayed={} bytes={} torn={} corrupt_ckpts={} stream={:?}",
                report.records_replayed,
                report.bytes_replayed,
                report.torn_tail.is_some(),
                report.corrupt_checkpoints,
                report.stream
            ))
        });
        self.last_report = report;
        // A server that crashes before its streams complete replays more
        // at every restart: once the tail outweighs two checkpoints of the
        // world, it takes one before it serves.
        if self.opts.checkpoint_every > 0 && self.logged > 2 * self.checkpoint_size() {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Bytes of a full checkpoint of the world as it stands.
    fn checkpoint_size(&self) -> u64 {
        let snapshot = self.core.crash_snapshot();
        stream_state(&snapshot, &self.journal).remaining() as u64
    }

    /// Read access to the core (tests, oracles).
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// The storage backend.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// What the most recent recovery saw.
    pub fn last_recovery(&self) -> &RecoveryReport {
        &self.last_report
    }

    /// Storage observability (metrics registry, tracer).
    pub fn obs(&self) -> &StorageObs {
        &self.obs
    }

    /// Commits the record with log tag `tag`, whose body `put` writes,
    /// durably, in one frame with the next piece of a streaming checkpoint,
    /// if one streams.
    fn commit(&mut self, tag: u8, put: impl FnOnce(&mut Writer)) -> Result<(), StorageError> {
        let mut batch = WriteBatch::new();
        batch.push_with(tag, put);
        self.push_piece(&mut batch);
        let logged = batch.logged();
        self.storage.commit(batch)?;
        self.logged += logged;
        self.obs.commits.inc();
        Ok(())
    }

    /// Stages the next piece of the streaming checkpoint, if one streams;
    /// after its last piece none does.
    fn push_piece(&mut self, batch: &mut WriteBatch) {
        if let Some(s) = &mut self.stream {
            let len = s.piece.min(s.bytes.remaining());
            batch.push_chunk((s.lsn, s.index, s.count), len, |buf| s.bytes.fill(buf, len));
            s.index += 1;
        }
        self.stream = self.stream.take().filter(|s| s.index < s.count);
    }

    /// The fallible op path: log → sync → apply → journal. This is
    /// [`tcvs_core::ServerApi::handle_op_seq`] with the storage error
    /// surfaced instead of panicking — for fault-injection harnesses.
    pub fn apply(
        &mut self,
        user: UserId,
        seq: u64,
        op: &Op,
        round: u64,
    ) -> Result<ServerResponse, StorageError> {
        self.commit(TAG_OP, |w| put_op_body(w, user, seq, op, round))?;
        let resp = self.core.process(user, op, round);
        if seq != NO_SEQ {
            journal_insert(&mut self.journal, (user, seq, resp.clone()));
        }
        self.ops_since_checkpoint += 1;
        if self.opts.checkpoint_every > 0 && self.ops_since_checkpoint >= self.opts.checkpoint_every
        {
            self.checkpoint_due();
        }
        Ok(resp)
    }

    /// The countdown ran out: a full checkpoint starts streaming if none
    /// is and the records committed since the last one started outweigh
    /// it.
    fn checkpoint_due(&mut self) {
        self.ops_since_checkpoint = 0;
        if self.stream.is_none() && self.logged > self.full_bytes {
            self.start_stream();
            self.obs.checkpoints.inc();
        }
    }

    /// Starts streaming a full checkpoint of the world as it stands, which
    /// covers every committed record; its pieces (4 KiB at least) are sized
    /// to complete it within `checkpoint_every` commits.
    fn start_stream(&mut self) {
        let snapshot = self.core.crash_snapshot();
        let bytes = stream_state(&snapshot, &self.journal);
        let total = bytes.remaining();
        let every = self.opts.checkpoint_every.max(1) as usize;
        let piece = total.div_ceil(every).max(4 << 10);
        self.stream = Some(Stream {
            lsn: self.storage.next_lsn(),
            bytes,
            index: 0,
            count: total.div_ceil(piece) as u32,
            piece,
        });
        (self.full_bytes, self.logged) = (total as u64, 0);
    }

    /// Takes a full checkpoint of the whole durable world in one commit
    /// before returning, and lets the storage prune the log behind it. A
    /// checkpoint still streaming completes first, in a commit of its own.
    pub fn checkpoint_now(&mut self) -> Result<u64, StorageError> {
        let mut batch = WriteBatch::new();
        while self.stream.is_some() {
            self.push_piece(&mut batch);
        }
        self.storage.commit(batch)?;
        let mut state = Vec::new();
        let snapshot = self.core.crash_snapshot();
        stream_state(&snapshot, &self.journal).fill(&mut state, usize::MAX);
        let lsn = self.storage.checkpoint(&state)?;
        self.obs.checkpoints.inc();
        (self.full_bytes, self.logged, self.ops_since_checkpoint) = (state.len() as u64, 0, 0);
        // An empty commit finishes the pruning behind it.
        self.storage.commit(WriteBatch::new())?;
        Ok(lsn)
    }
}

impl<S: Storage> ServerApi for DurableServer<S> {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.handle_op_seq(user, NO_SEQ, op, round)
    }

    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        // Crash-stop: acknowledging an op that is not durable would break
        // the recovery contract, so a commit failure is fatal here.
        self.apply(user, seq, op, round)
            .expect("durable commit failed; refusing to acknowledge")
    }

    fn deposit_signature(&mut self, _user: UserId, s: SignedState) {
        self.commit(TAG_SIGNATURE, |w| put_signed_state(w, &s))
            .expect("durable commit failed; refusing to acknowledge");
        self.core.store_signature(s);
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        self.commit(TAG_EPOCH_STATE, |w| put_epoch_state(w, &s))
            .expect("durable commit failed; refusing to acknowledge");
        self.core.store_epoch_state(s);
    }

    fn fetch_epoch_states(&mut self, _requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.core.epoch_states(epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        self.commit(TAG_AUDIT_CHECKPOINT, |w| put_audit_checkpoint(w, &c))
            .expect("durable commit failed; refusing to acknowledge");
        self.core.store_checkpoint(c);
    }

    fn fetch_checkpoint(&mut self, _requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.core.checkpoint(epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        self.core.metrics()
    }

    /// A *real* crash-restart: all volatile state is dropped and the world
    /// is rebuilt from storage alone (checkpoint + log replay), unlike the
    /// in-memory [`tcvs_core::HonestServer`] whose restart round-trips
    /// through a snapshot it conveniently still holds.
    fn crash_restart(&mut self) {
        self.recover().expect("recovery after crash");
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        Some(self.core.read_snapshot())
    }

    fn recovered_journal(&self) -> Option<Vec<JournalEntry>> {
        Some(self.journal.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::DurableState;
    use crate::medium::{Medium, MemMedium};
    use crate::record::{chunk_view, TAG_CHUNK};
    use crate::response_bytes;
    use crate::storage::{DurableOptions, DurableStorage, MemStorage};
    use std::collections::BTreeSet;
    use tcvs_merkle::u64_key;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        }
    }

    fn op(i: u64) -> Op {
        match i % 3 {
            0 => Op::Put(u64_key(i % 17), vec![i as u8; 3]),
            1 => Op::Get(u64_key((i + 5) % 17)),
            _ => Op::Delete(u64_key((i + 11) % 17)),
        }
    }

    fn durable(mem: &MemMedium, every: u64) -> DurableServer<DurableStorage<MemMedium>> {
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        DurableServer::open(
            store,
            config(),
            DurabilityOptions {
                checkpoint_every: every,
                ..DurabilityOptions::default()
            },
            StorageObs::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn mem_backend_behaves_like_honest_server() {
        let mut durable = DurableServer::open(
            MemStorage::default(),
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
        )
        .unwrap();
        let mut honest = tcvs_core::HonestServer::new(&config());
        for i in 0..40 {
            let a = durable.handle_op_seq((i % 3) as u32, i, &op(i), i);
            let b = honest.handle_op((i % 3) as u32, &op(i), i);
            assert_eq!(response_bytes(&a), response_bytes(&b));
        }
        assert_eq!(durable.core().root_digest(), honest.core().root_digest());
    }

    #[test]
    fn crash_restart_recovers_from_storage_alone() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 8);
        let mut acked = Vec::new();
        for i in 0..30 {
            acked.push(response_bytes(&s.handle_op_seq(
                (i % 3) as u32,
                i,
                &op(i),
                i,
            )));
        }
        let root = s.core().root_digest();
        let ctr = s.core().ctr();
        s.crash_restart();
        assert_eq!(s.core().root_digest(), root);
        assert_eq!(s.core().ctr(), ctr);
        // The journal regenerated byte-identical replies for the last ack
        // of each user.
        let journal = s.recovered_journal().unwrap();
        assert_eq!(journal.len(), 3);
        for (user, seq, resp) in journal {
            assert_eq!(seq, 27 + user as u64);
            assert_eq!(response_bytes(&resp), acked[seq as usize]);
        }
        // And the server keeps serving correctly.
        let r = s.handle_op_seq(0, 30, &op(30), 30);
        assert_eq!(r.ctr, 30);
    }

    #[test]
    fn process_death_loses_nothing_acknowledged() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 10);
        for i in 0..25 {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
        }
        let root = s.core().root_digest();
        drop(s); // process death: all volatile state gone
        mem.crash(); // and the page cache with it
        let s2 = durable(&mem, 10);
        assert_eq!(s2.core().root_digest(), root);
        assert_eq!(s2.core().ctr(), 25);
        assert!(s2.last_recovery().corrupt_stop.is_none());
    }

    #[test]
    fn deposits_survive_a_real_crash() {
        let (mut rings, _) = tcvs_crypto::setup_users([7; 32], 1, 4);
        let mem = MemMedium::new();
        let mut s = durable(&mem, 100);
        s.handle_op_seq(0, 0, &op(0), 0);
        let root = s.core().root_digest();
        let payload = tcvs_core::state::signed_payload(&root, 1);
        s.deposit_signature(
            0,
            SignedState {
                signer: 0,
                root,
                ctr: 1,
                sig: rings[0].sign(&payload).unwrap(),
            },
        );
        drop(s);
        mem.crash();
        let mut s2 = durable(&mem, 100);
        // The deposit is served back on the very next op.
        let r = s2.handle_op_seq(1, 1, &op(1), 1);
        assert!(r.sig.is_some(), "Protocol I deposit survived the crash");
        assert_eq!(r.sig.unwrap().root, root);
    }

    /// Body bytes of `every` op records, each as large as the largest of
    /// `op(0..n)`: what one countdown can log at most.
    fn countdown_bytes(every: u64, n: u64) -> u64 {
        let body = |i: u64| {
            let mut batch = WriteBatch::new();
            batch.push_with(TAG_OP, |w| put_op_body(w, 2, i, &op(i), i));
            batch.logged()
        };
        every * (0..n).map(body).max().unwrap_or(0)
    }

    /// A restart after any op replays at most the loaded checkpoint's
    /// weight in record bytes plus one countdown's worth: the records
    /// logged before the countdown that starts the next checkpoint. (Two
    /// in general, with those riding the next one until it completes; this
    /// world's checkpoints fit one piece, which the next commit carries.)
    #[test]
    fn checkpoints_bound_replay() {
        const N: u64 = 200;
        let mem = MemMedium::new();
        let mut s = durable(&mem, 5);
        let mut loaded = BTreeSet::new();
        for i in 0..N {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
            let restarted = durable(&mem, 5);
            let report = restarted.last_recovery();
            assert_eq!(restarted.core().ctr(), i + 1);
            assert!(
                report.bytes_replayed <= restarted.full_bytes + countdown_bytes(5, N),
                "after op {i}: {report:?}"
            );
            loaded.insert(restarted.full_bytes);
        }
        drop(s);
        mem.crash();
        let s = durable(&mem, 5);
        assert_eq!(s.core().ctr(), N);
        assert!(loaded.len() > 3, "several checkpoints loaded: {loaded:?}");
    }

    /// A server that crashes more often than it checkpoints still
    /// checkpoints: recovery resumes the countdown and the byte count at
    /// the records it replayed, so no restart replays more than the
    /// loaded checkpoint's weight and a countdown (its checkpoints fit one
    /// piece).
    #[test]
    fn frequent_crashes_still_checkpoint_and_bound_replay() {
        const EVERY: u64 = 16;
        let mem = MemMedium::new();
        let mut honest = tcvs_core::HonestServer::new(&config());
        let mut i = 0;
        let mut loaded = BTreeSet::new();
        for restart in 0..40 {
            let mut s = durable(&mem, EVERY);
            let report = s.last_recovery();
            assert!(
                report.bytes_replayed <= s.full_bytes + countdown_bytes(EVERY, 600),
                "restart {restart}: {report:?}"
            );
            assert_eq!(s.core().root_digest(), honest.core().root_digest());
            loaded.insert(s.full_bytes);
            for _ in 0..15 {
                s.handle_op_seq((i % 3) as u32, i, &op(i), i);
                honest.handle_op((i % 3) as u32, &op(i), i);
                i += 1;
            }
            drop(s);
            mem.crash();
        }
        assert!(loaded.len() > 3, "several checkpoints loaded: {loaded:?}");
    }

    /// A server that crashes every 10 ops never completes a stream of 17
    /// pieces, so its tail grows at every restart until it outweighs two
    /// checkpoints of the world; then the restart takes one before it
    /// serves, and no restart replays more than that plus a countdown.
    #[test]
    fn crashes_that_cut_every_stream_short_still_bound_replay() {
        let mem = MemMedium::new();
        let countdown = {
            let put = Op::Put(u64_key(0), vec![0; 20 << 10]);
            let mut batch = WriteBatch::new();
            batch.push_with(TAG_OP, |w| put_op_body(w, 2, 0, &put, 0));
            17 * batch.logged()
        };
        let mut taken = 0;
        for restart in 0..12 {
            let mut s = durable(&mem, 17);
            let report = s.last_recovery();
            assert!(
                report.bytes_replayed <= 2 * s.checkpoint_size() + countdown,
                "restart {restart}: {report:?}"
            );
            let checkpoints = s.obs().registry().snapshot().counter("storage.checkpoints");
            taken += checkpoints.unwrap_or(0);
            big_puts(&mut s, 10 * restart..10 * restart + 10);
            drop(s);
            mem.crash();
        }
        assert!(taken >= 2, "{taken} checkpoints taken at a restart");
    }

    /// With automatic checkpoints off nothing streams, and recovery
    /// replays the whole log.
    #[test]
    fn no_automatic_checkpoints_stream_nothing() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 0);
        for i in 0..30 {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
        }
        assert!(s.stream.is_none());
        drop(s);
        mem.crash();
        let s = durable(&mem, 0);
        assert!(pieces(&mem).is_empty());
        assert_eq!(s.last_recovery().records_replayed, 30);
        assert_eq!(s.last_recovery().stream, None);
    }

    /// When every countdown rewrites every key, the records since a full
    /// checkpoint soon outweigh it, and nothing else rides the commits:
    /// each full-checkpoint cycle appends at most its op records, each in
    /// a frame of its own, and one stream's pieces.
    #[test]
    fn a_high_churn_log_holds_only_ops_and_checkpoint_pieces() -> Result<(), StorageError> {
        const KEYS: u64 = 16;
        let mem = MemMedium::new();
        let mut s = durable(&mem, KEYS);
        for i in 0..12 * KEYS {
            let put = Op::Put(u64_key(i % KEYS), vec![i as u8; 1 << 10]);
            s.handle_op_seq((i % 3) as u32, i, &put, i);
        }
        drop(s);
        let (mut appended, mut ops, mut pieces) = (0, 0, 0);
        let mut streams = BTreeSet::new();
        for name in mem.list()? {
            let Some(first) = crate::log::parse_segment_name(&name) else {
                continue;
            };
            let buf = mem.read(&name)?.unwrap_or_default();
            let scan = crate::log::scan(&buf, first);
            appended += scan.valid_len;
            for (_, tag, body) in scan.records {
                if tag == TAG_OP {
                    ops += crate::log::frame_len(body.len());
                } else if tag == TAG_CHUNK {
                    let ((stream, ..), _) = chunk_view(&buf[body.clone()])?;
                    streams.insert(stream);
                    // A piece's record head and body, inside its op's frame.
                    pieces += (1 + 4 + body.len()) as u64;
                }
            }
        }
        assert!(streams.len() >= 4, "{streams:?}");
        assert!(
            appended <= ops + pieces,
            "{appended} bytes appended for {ops} of op commits and {pieces} of pieces"
        );
        Ok(())
    }

    /// The segment holding the commit whose first record is at `lsn`, and
    /// the byte offset and length of its frame.
    fn commit_at(mem: &MemMedium, lsn: u64) -> Result<(String, usize, usize), StorageError> {
        for name in mem.list()? {
            let Some(first) = crate::log::parse_segment_name(&name) else {
                continue;
            };
            let scan = crate::log::scan(&mem.read(&name)?.unwrap_or_default(), first);
            for (k, (offset, commit)) in scan.commits.iter().enumerate() {
                if scan.records[commit.start].0 == lsn {
                    let end = scan.commits.get(k + 1).map_or(scan.valid_len, |c| c.0);
                    return Ok((name, *offset as usize, (end - offset) as usize));
                }
            }
        }
        Err(StorageError::io(format!("no commit at lsn {lsn}")))
    }

    /// A power loss that tears the commit carrying a stream's last piece
    /// loses no acknowledged op: the stream stays incomplete, and recovery
    /// replays every record after the checkpoint before it.
    #[test]
    fn a_torn_last_piece_falls_back_to_the_checkpoint_before() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 17);
        big_puts(&mut s, 0..16);
        s.checkpoint_now()?;
        big_puts(&mut s, 16..19);
        s.start_stream();
        let count = s.stream.as_ref().map_or(0, |st| st.count);
        assert!(count > 2, "{count} pieces");
        let mut end = 19;
        while s.stream.is_some() {
            big_puts(&mut s, end..end + 1);
            end += 1;
        }
        drop(s);
        // The op that carried the last piece is unacknowledged after all:
        // the power failed while its commit was landing, half of the frame
        // on disk.
        let last = pieces(&mem).last().map_or(0, |p| p.0);
        let (name, offset, len) = commit_at(&mem, last - 1)?;
        let buf = mem.read(&name)?.unwrap_or_default();
        let mut raw = mem.clone();
        raw.write_atomic(&name, &buf[..offset + len / 2])?;
        mem.crash();
        let s = durable(&mem, 17);
        let report = s.last_recovery();
        assert!(report.torn_tail.is_some(), "{report:?}");
        assert_eq!(report.stream, Some((count - 1, count)), "{report:?}");
        assert_eq!(report.records_replayed, end - 1 - 16, "{report:?}");
        let mut oracle = tcvs_core::HonestServer::new(&config());
        let mut replies = Vec::new();
        for i in 0..end - 1 {
            let put = Op::Put(u64_key(i % 17), vec![i as u8; 20 << 10]);
            replies.push(response_bytes(&oracle.handle_op((i % 3) as u32, &put, i)));
        }
        assert_eq!(s.core().root_digest(), oracle.core().root_digest());
        assert_eq!(s.core().ctr(), end - 1);
        for (_, seq, resp) in s.recovered_journal().unwrap_or_default() {
            assert_eq!(response_bytes(&resp), replies[seq as usize]);
        }
        Ok(())
    }

    /// A log of op records and checkpoints taken on request only — what
    /// `checkpoint_every` 0 writes — opens with automatic checkpoints,
    /// serves on, and recovers again from a checkpoint of its own.
    #[test]
    fn manual_checkpoints_then_automatic_ones_recover() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut honest = tcvs_core::HonestServer::new(&config());
        let mut s = durable(&mem, 0);
        for i in 0..14 {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
            honest.handle_op((i % 3) as u32, &op(i), i);
            if i % 6 == 5 {
                s.checkpoint_now()?;
            }
        }
        drop(s);
        mem.crash();
        let mut s = durable(&mem, 4);
        assert_eq!(s.last_recovery().records_replayed, 2);
        let first = s.full_bytes;
        for i in 14..200 {
            let a = s.handle_op_seq((i % 3) as u32, i, &op(i), i);
            let b = honest.handle_op((i % 3) as u32, &op(i), i);
            assert_eq!(response_bytes(&a), response_bytes(&b));
        }
        drop(s);
        mem.crash();
        let s = durable(&mem, 4);
        assert_ne!(s.full_bytes, first, "a streamed checkpoint loaded");
        assert!(s.last_recovery().bytes_replayed <= s.full_bytes + countdown_bytes(4, 200));
        assert_eq!(s.core().root_digest(), honest.core().root_digest());
        Ok(())
    }

    /// 20 KiB puts over 17 keys: a checkpoint of them spans many pieces.
    fn big_puts(s: &mut DurableServer<DurableStorage<MemMedium>>, ops: std::ops::Range<u64>) {
        for i in ops {
            let put = Op::Put(u64_key(i % 17), vec![i as u8; 20 << 10]);
            s.handle_op_seq((i % 3) as u32, i, &put, i);
        }
    }

    /// Every checkpoint piece in the log, in LSN order: its LSN, its
    /// stream, index and count, and its bytes.
    fn pieces(mem: &MemMedium) -> Vec<(u64, crate::record::ChunkHead, Vec<u8>)> {
        let mut out = Vec::new();
        for name in mem.list().unwrap() {
            let Some(first) = crate::log::parse_segment_name(&name) else {
                continue;
            };
            let buf = mem.read(&name).unwrap().unwrap_or_default();
            for (lsn, tag, body) in crate::log::scan(&buf, first).records {
                if let (TAG_CHUNK, Ok((head, data))) = (tag, chunk_view(&buf[body])) {
                    out.push((lsn, head, data.to_vec()));
                }
            }
        }
        out.sort_by_key(|p| p.0);
        out
    }

    /// A full checkpoint streams out a piece per commit, beside each op,
    /// completes within `checkpoint_every` commits, and its pieces
    /// concatenate to the state's encoding at its start, byte for byte.
    #[test]
    fn a_streamed_checkpoint_is_byte_identical_to_the_state_encoding() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 17);
        big_puts(&mut s, 0..17); // the 17th op starts a stream at lsn 17
        assert_eq!(s.stream.as_ref().map(|st| st.lsn), Some(17));
        let mut want = Vec::new();
        let state = DurableState {
            snapshot: s.core.crash_snapshot(),
            journal: s.journal.clone(),
        };
        state.encode_into(&mut want);
        assert!(pieces(&mem).is_empty(), "starting one writes nothing");
        big_puts(&mut s, 17..34);
        assert!(s.stream.is_none(), "complete within 17 commits");
        let got = pieces(&mem);
        let count = got.len() as u32;
        assert!((3..=17).contains(&count), "{count} pieces");
        for (i, (lsn, head, _)) in got.iter().enumerate() {
            assert_eq!(*head, (17, i as u32, count));
            assert_eq!(
                *lsn,
                18 + 2 * i as u64,
                "one piece per commit, after its op"
            );
        }
        let data: Vec<u8> = got.into_iter().flat_map(|p| p.2).collect();
        assert_eq!(data, want);
    }

    #[test]
    fn a_checkpoint_requested_mid_stream_completes_the_first() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 17);
        big_puts(&mut s, 0..16);
        let first = s.storage.next_lsn();
        s.start_stream();
        big_puts(&mut s, 16..17); // one piece out
        let count = s.stream.as_ref().map_or(0, |st| st.count);
        assert!(count > 2, "{count} pieces");
        let second = s.checkpoint_now().unwrap();
        let got = pieces(&mem);
        let of = |stream| -> Vec<u32> {
            let mine = got.iter().filter(|p| p.1 .0 == stream);
            mine.map(|p| p.1 .1).collect()
        };
        assert_eq!(
            of(first),
            (0..count).collect::<Vec<_>>(),
            "the first completed"
        );
        assert_eq!(of(second), vec![0], "the second in one piece");
        s.crash_restart();
        assert_eq!(s.last_recovery().stream, Some((1, 1)));
        assert_eq!(s.last_recovery().records_replayed, 0);
    }

    /// A full checkpoint that falls due while another streams waits: the
    /// stream in flight goes on to complete.
    #[test]
    fn a_full_checkpoint_never_starts_while_one_streams() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 5);
        big_puts(&mut s, 0..4);
        let first = s.storage.next_lsn();
        s.start_stream();
        // The records since it outweigh it: a full checkpoint is due at
        // the countdown.
        s.logged = s.full_bytes + 1;
        big_puts(&mut s, 4..5); // the countdown runs out mid-stream
        assert_eq!(
            s.stream.as_ref().map(|st| (st.lsn, st.index)),
            Some((first, 1))
        );
        while s.stream.is_some() {
            big_puts(&mut s, 5..6);
        }
        let got = pieces(&mem);
        assert!(got.iter().all(|p| p.1 .0 == first), "one stream only");
    }

    #[test]
    fn crash_restart_mid_stream_recovers_from_the_previous_checkpoint() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 17);
        big_puts(&mut s, 0..16);
        let previous = s.checkpoint_now().unwrap();
        big_puts(&mut s, 16..19);
        s.start_stream();
        big_puts(&mut s, 19..21); // two pieces of it out
        let count = s.stream.as_ref().map_or(0, |st| st.count);
        let root = s.core().root_digest();
        s.crash_restart();
        let report = s.last_recovery();
        assert_eq!(report.stream, Some((2, count)), "{report:?}");
        assert!(count > 2);
        assert_eq!(report.corrupt_checkpoints, 0);
        assert_eq!(
            report.records_replayed, 5,
            "ops 16..21, replayed from lsn {previous}"
        );
        assert_eq!(s.core().root_digest(), root);
        assert_eq!(s.core().ctr(), 21);
    }

    #[test]
    fn interior_corruption_refuses_to_serve_without_salvage() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 100);
        for i in 0..6 {
            s.handle_op_seq(0, i, &op(i), i);
        }
        drop(s);
        // Flip a payload bit of the 4th record: interior corruption that
        // loses acknowledged operations 3..6.
        let name = crate::log::segment_name(0);
        let mut buf = mem.read(&name).unwrap().unwrap();
        let scan = crate::log::scan(&buf, 0);
        let offset: u64 = scan.records[..3]
            .iter()
            .map(|(_, _, body)| crate::log::frame_len(body.len()))
            .sum();
        buf[offset as usize + crate::log::HEADER_LEN] ^= 0x01;
        let mut raw = mem.clone();
        raw.write_atomic(&name, &buf).unwrap();

        // Default options: the open fails loudly instead of silently
        // serving from the rolled-back prefix.
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        match DurableServer::open(
            store,
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
        ) {
            Err(StorageError::Unrecoverable(msg)) => {
                assert!(
                    msg.contains("salvage"),
                    "points the operator at the knob: {msg}"
                )
            }
            Ok(_) => panic!("open must fail on interior corruption"),
            Err(other) => panic!("expected Unrecoverable, got {other:?}"),
        }

        // Explicit salvage serves the surviving prefix.
        let store = DurableStorage::open(mem, DurableOptions::default());
        let s2 = DurableServer::open(
            store,
            config(),
            DurabilityOptions {
                checkpoint_every: 100,
                salvage_corruption: true,
            },
            StorageObs::disabled(),
        )
        .unwrap();
        assert!(s2.last_recovery().corrupt_stop.is_some());
        assert_eq!(s2.core().ctr(), 3, "exactly the prefix before the flip");
    }

    /// A medium an earlier format wrote is refused with a typed error
    /// before recovery reads, repairs or salvages any of it, with or
    /// without `salvage_corruption`: the first format (each record its own
    /// frame, checked by the first 8 bytes of `sha256(payload)`, no marker),
    /// the one before commit frames (each record its own CRC-32C frame,
    /// full checkpoints in `ckpt-` files, a `format-crc32c` marker), the
    /// one with incremental checkpoints (commit frames holding records of
    /// tag 7, a `format-commit-frames` marker) and the one that logged the
    /// server's flight-recorder frames and evidence bundles (records of
    /// tags 5 and 6, a `format-full-checkpoints` marker). An empty medium
    /// still opens fresh.
    #[test]
    fn a_medium_in_the_old_frame_format_is_refused_untouched() -> Result<(), StorageError> {
        use crate::log;
        type Framing = fn(&[u8]) -> Vec<u8>;
        fn sha_frame(payload: &[u8]) -> Vec<u8> {
            let check = &tcvs_crypto::sha256(payload).0[..8];
            [&(payload.len() as u32).to_le_bytes()[..], payload, check].concat()
        }
        fn crc_frame(payload: &[u8]) -> Vec<u8> {
            let check = tcvs_crypto::crc32c(payload).to_le_bytes();
            [&(payload.len() as u32).to_le_bytes()[..], payload, &check].concat()
        }
        fn files(mem: &MemMedium) -> Result<Vec<(String, Vec<u8>)>, StorageError> {
            let names = mem.list()?;
            names
                .into_iter()
                .map(|n| Ok((n.clone(), mem.read(&n)?.unwrap_or_default())))
                .collect()
        }
        // Write a log with this build, then write its records and states
        // again the way each earlier format framed and filed them.
        let mem = MemMedium::new();
        {
            let mut s = durable(&mem, 4);
            for i in 0..10 {
                s.handle_op_seq(0, i, &op(i), i);
            }
            s.checkpoint_now()?;
        }
        let earlier = |frame: Framing, marker: Option<&str>| -> Result<_, StorageError> {
            let old = MemMedium::new();
            let mut raw = old.clone();
            for (name, buf) in files(&mem)? {
                let Some(first) = log::parse_segment_name(&name) else {
                    continue;
                };
                let mut segment = Vec::new();
                for (lsn, tag, body) in log::scan(&buf, first).records {
                    let body = &buf[body];
                    if let (TAG_CHUNK, Ok(((at, ..), state))) = (tag, chunk_view(body)) {
                        let payload = [&at.to_le_bytes()[..], state].concat();
                        raw.write_atomic(&format!("ckpt-{at:016x}.ckp"), &frame(&payload))?;
                    } else {
                        let payload = [&lsn.to_le_bytes()[..], &[tag], body].concat();
                        segment.extend(frame(&payload));
                    }
                }
                raw.write_atomic(&name, &segment)?;
            }
            if let Some(marker) = marker {
                raw.write_atomic(marker, b"an earlier format\n")?;
            }
            Ok(old)
        };
        let sha = earlier(sha_frame, None)?;
        let crc = earlier(crc_frame, Some("format-crc32c"))?;
        for (what, old) in [("sha-256/8", &sha), ("crc-32c per record", &crc)] {
            let before = files(old)?;
            let ckpts = before
                .iter()
                .filter(|(n, _)| n.starts_with("ckpt-"))
                .count();
            assert!(ckpts > 0, "{what}: {before:?}");
            // Read with this build's framing, an old segment reads as
            // damaged: without the marker, recovery would drop its records
            // as a crash's debris or halt on them.
            let segments: Vec<_> = before
                .iter()
                .filter_map(|(n, buf)| Some((log::parse_segment_name(n)?, buf)))
                .collect();
            assert!(!segments.is_empty());
            for (first, buf) in segments {
                assert!(!log::scan(buf, first).tail.is_clean(), "{what}");
            }
        }
        // The same segments with a record of a retired tag committed after
        // their last record, under the marker of the format that wrote it:
        // its frame verifies, but this build decodes no record of that tag,
        // so without the marker recovery would halt on it as interior
        // corruption.
        let retired = |tag: u8, body: &[u8], marker: &str| -> Result<_, StorageError> {
            let old = MemMedium::new();
            let mut raw = old.clone();
            let mut last = (0, String::new());
            for (name, buf) in files(&mem)? {
                if let Some(first) = log::parse_segment_name(&name) {
                    raw.write_atomic(&name, &buf)?;
                    last = last.max((first + log::scan(&buf, first).records.len() as u64, name));
                }
            }
            let (next, name) = last;
            raw.append(&name, &log::frame(&log::payload(next, tag, body)))?;
            raw.sync(&name)?;
            raw.write_atomic(marker, b"an earlier format\n")?;
            assert!(Record::decode(tag, body).is_err());
            let segment = old.read(&name)?.unwrap_or_default();
            let scan = log::scan(&segment, log::parse_segment_name(&name).unwrap_or(0));
            assert!(scan.tail.is_clean() && scan.records.iter().any(|r| r.1 == tag));
            Ok(old)
        };
        let deltas = retired(7, b"an incremental checkpoint", "format-commit-frames")?;
        let flight = retired(5, b"a flight-recorder frame", "format-full-checkpoints")?;
        for (what, old) in [
            ("sha-256/8", sha),
            ("crc-32c per record", crc),
            ("tag-7 deltas", deltas),
            ("tag-5 flight frames", flight),
        ] {
            let before = files(&old)?;
            for salvage_corruption in [false, true] {
                let store = DurableStorage::open(old.clone(), DurableOptions::default());
                let opened = DurableServer::open(
                    store,
                    config(),
                    DurabilityOptions {
                        checkpoint_every: 4,
                        salvage_corruption,
                    },
                    StorageObs::disabled(),
                );
                let err = opened.err();
                assert!(
                    matches!(&err, Some(StorageError::UnknownFormat { file }) if log::is_framed(file)),
                    "{what}, salvage_corruption={salvage_corruption}: {err:?}"
                );
                assert_eq!(files(&old)?, before, "{what}, {salvage_corruption}");
            }
        }

        // An empty medium opens fresh, marked as this format.
        let fresh = MemMedium::new();
        let mut s = durable(&fresh, 4);
        s.handle_op_seq(0, 0, &op(0), 0);
        let root = s.core().root_digest();
        drop(s);
        fresh.crash();
        assert!(fresh.list()?.iter().any(|n| n == log::FORMAT_MARKER));
        assert_eq!(durable(&fresh, 4).core().root_digest(), root);
        Ok(())
    }

    #[test]
    fn metrics_count_commits_and_recoveries() {
        let mem = MemMedium::new();
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        let mut s = DurableServer::open(
            store,
            config(),
            DurabilityOptions {
                checkpoint_every: 4,
                ..DurabilityOptions::default()
            },
            StorageObs::new(Tracer::disabled()),
        )
        .unwrap();
        for i in 0..9 {
            s.handle_op_seq(0, i, &op(i), i);
        }
        s.crash_restart();
        let snap = s.obs().registry().snapshot();
        assert_eq!(snap.counter("storage.commits"), Some(9));
        // One full checkpoint streams at the first countdown; at the
        // second, the records since it weigh less than it.
        assert_eq!(snap.counter("storage.checkpoints"), Some(1));
        assert_eq!(snap.counter("storage.recoveries"), Some(2), "open + crash");
    }

    /// A populated source server, plus the chunk stream a peer would serve.
    fn chunk_stream(n_ops: u64) -> (DurableServer<MemStorage>, tcvs_merkle::ChunkSource, Ctr) {
        let mut src = DurableServer::open(
            MemStorage::default(),
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
        )
        .unwrap();
        for i in 0..n_ops {
            src.handle_op_seq((i % 3) as u32, i, &op(i), i);
        }
        let snap = ServerApi::read_snapshot(&src).unwrap();
        let source = tcvs_merkle::ChunkSource::new(snap.db(), 256).unwrap();
        let ctr = snap.ctr();
        (src, source, ctr)
    }

    #[test]
    fn open_from_chunks_restores_and_checkpoints_locally() {
        let (src, source, ctr) = chunk_stream(50);
        let mem = MemMedium::new();
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        let manifest = source.manifest().to_bytes();
        let mut restored = DurableServer::open_from_chunks(
            store,
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &source.manifest().anchor,
            ctr,
            &manifest,
            |i| source.chunk(i),
        )
        .unwrap();
        assert_eq!(restored.core().root_digest(), src.core().root_digest());
        assert_eq!(restored.core().ctr(), ctr);

        // The restored node serves ops and stays in lockstep with the
        // source. The very first response differs in one documented way:
        // chunks carry the verified database, not the writer identity, so
        // the restored core reports `last_user = NO_USER` until its first
        // op lands — skip the byte comparison for that op only.
        let mut src = src;
        for i in 50..60 {
            let a = restored.handle_op_seq((i % 3) as u32, i, &op(i), i);
            let b = src.handle_op_seq((i % 3) as u32, i, &op(i), i);
            if i > 50 {
                assert_eq!(response_bytes(&a), response_bytes(&b));
            }
        }
        assert_eq!(restored.core().root_digest(), src.core().root_digest());

        // The bootstrap checkpoint is durable: a normal open() on the same
        // medium recovers the restored state with no chunk stream in sight.
        drop(restored);
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        let reopened = DurableServer::open(
            store,
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
        )
        .unwrap();
        assert_eq!(reopened.core().root_digest(), src.core().root_digest());
    }

    #[test]
    fn open_from_chunks_rejects_forged_and_missing_chunks() {
        let (_src, source, ctr) = chunk_stream(40);
        let manifest = source.manifest().to_bytes();
        let anchor = source.manifest().anchor;

        // A single flipped byte in any chunk must be rejected (or be
        // content-neutral codec slack; the assembler decides — here we only
        // require that a *detected* forgery surfaces as Bootstrap).
        let forged = DurableServer::open_from_chunks(
            MemStorage::default(),
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &anchor,
            ctr,
            &manifest,
            |i| {
                source.chunk(i).map(|mut b| {
                    let mid = b.len() / 2;
                    b[mid] ^= 0xff;
                    b
                })
            },
        );
        assert!(
            matches!(forged.as_ref().err(), Some(StorageError::Bootstrap(_))),
            "{:?}",
            forged.err()
        );

        // A peer that stops serving mid-stream fails cleanly.
        let cut = DurableServer::open_from_chunks(
            MemStorage::default(),
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &anchor,
            ctr,
            &manifest,
            |i| {
                if i + 1 == source.num_chunks() {
                    None
                } else {
                    source.chunk(i)
                }
            },
        );
        assert!(
            matches!(cut.as_ref().err(), Some(StorageError::Bootstrap(_))),
            "{:?}",
            cut.err()
        );

        // An anchor mismatch is refused before any chunk is fetched.
        let wrong = DurableServer::open_from_chunks(
            MemStorage::default(),
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &Digest::default(),
            ctr,
            &manifest,
            |_| panic!("no chunk may be fetched under a wrong anchor"),
        );
        assert!(
            matches!(wrong.as_ref().err(), Some(StorageError::Bootstrap(_))),
            "{:?}",
            wrong.err()
        );
    }

    /// Chunks that verify against their anchor but assemble a tree of
    /// another branching order than the configured one are refused: every
    /// proof the restored server served would fail its clients' replay.
    #[test]
    fn open_from_chunks_refuses_a_tree_of_another_order() {
        let (_src, source, ctr) = chunk_stream(20);
        let refused = DurableServer::open_from_chunks(
            MemStorage::default(),
            ProtocolConfig {
                order: 8,
                ..config()
            },
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &source.manifest().anchor,
            ctr,
            &source.manifest().to_bytes(),
            |i| source.chunk(i),
        );
        match refused.err() {
            Some(StorageError::Bootstrap(why)) => assert!(why.contains("order"), "{why}"),
            other => panic!("a tree of another order was restored: {other:?}"),
        }
    }

    #[test]
    fn open_from_chunks_refuses_nonempty_storage() {
        let (_src, source, ctr) = chunk_stream(20);
        let mem = MemMedium::new();
        {
            let mut s = durable(&mem, 4);
            for i in 0..10 {
                s.handle_op_seq(0, i, &op(i), i);
            }
        }
        let store = DurableStorage::open(mem.clone(), DurableOptions::default());
        let refused = DurableServer::open_from_chunks(
            store,
            config(),
            DurabilityOptions::default(),
            StorageObs::disabled(),
            &source.manifest().anchor,
            ctr,
            &source.manifest().to_bytes(),
            |i| source.chunk(i),
        );
        assert!(
            matches!(refused.as_ref().err(), Some(StorageError::Bootstrap(_))),
            "bootstrap must not clobber existing durable state: {:?}",
            refused.err()
        );
    }
}

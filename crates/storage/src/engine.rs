//! The durable server engine: [`tcvs_core::ServerApi`] over a [`Storage`].
//!
//! [`DurableServer`] wraps the deterministic [`ServerCore`] with
//! write-ahead discipline: every state-changing message — operation,
//! signature deposit, epoch-state deposit, audited checkpoint, plus any
//! flight-recorder frames emitted since the previous commit — is committed
//! to the log (one append, one fsync) *before* the core applies it and the
//! response leaves the process. A crash at any instant therefore loses at
//! most work that was never acknowledged.
//!
//! Every [`DurabilityOptions::checkpoint_every`] operations the op that
//! reaches the count also encodes the durable world and hands it to
//! [`Storage::checkpoint`]; a streaming storage writes it out across the
//! commits that follow, so no single request waits for a whole-tree write.
//!
//! Because the core is deterministic, the log carries only inputs (see
//! [`Record`]): recovery restores the newest checkpoint and replays the
//! tail through the same [`ServerCore::process`] path, regenerating every
//! response — including the reply-journal entries the transport
//! acknowledged — byte-identically.
//!
//! Commit failures are crash-stop: the [`tcvs_core::ServerApi`] entry
//! points panic rather than acknowledge an op that was never made durable.
//! The fallible [`DurableServer::apply`] exists for harnesses that inject
//! storage faults and want the error back instead.

use std::collections::HashMap;
use std::sync::Arc;

use tcvs_core::{
    Ctr, Digest, Epoch, ProtocolConfig, ReadSnapshot, ServerApi, ServerCore, ServerMetrics,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::{ChunkAssembler, ChunkManifest, Op};
use tcvs_obs::{Counter, Event, EventKind, MetricsRegistry, Tracer};

use crate::codec::DurableState;
use crate::error::StorageError;
use crate::record::{JournalEntry, Record, NO_SEQ};
use crate::storage::{RecoveryReport, Storage, WriteBatch};

/// Tuning knobs for [`DurableServer`].
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// Take a checkpoint after this many committed operations (0 disables
    /// automatic checkpoints; [`DurableServer::checkpoint_now`] still works).
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
    /// `(seq, response)` per user, regenerated on recovery.
    journal: HashMap<UserId, (u64, ServerResponse)>,
    /// High-water mark of flight events already committed to the log.
    flight_drained: u64,
    ops_since_checkpoint: u64,
    last_report: RecoveryReport,
    /// Flight events recovered from the log tail (the checkpoint's own
    /// tail lives in the snapshot).
    recovered_flight: Vec<Event>,
    /// Every persisted deviation evidence bundle (checkpoint + log tail +
    /// bundles persisted this incarnation), opaque canonical bytes.
    evidence: Vec<Vec<u8>>,
    /// The last checkpoint's encoding, kept so the next one encodes into
    /// pages already resident instead of growing a fresh buffer.
    ckpt_buf: Vec<u8>,
}

impl<S: Storage> DurableServer<S> {
    /// Opens the engine: recovers from `storage` (checkpoint + replay) or
    /// starts fresh from `config` when the storage is empty.
    pub fn open(
        storage: S,
        config: ProtocolConfig,
        opts: DurabilityOptions,
        obs: StorageObs,
    ) -> Result<DurableServer<S>, StorageError> {
        let mut server = DurableServer {
            storage,
            core: ServerCore::new(&config),
            config,
            opts,
            obs,
            journal: HashMap::new(),
            flight_drained: 0,
            ops_since_checkpoint: 0,
            last_report: RecoveryReport::default(),
            recovered_flight: Vec::new(),
            evidence: Vec::new(),
            ckpt_buf: Vec::new(),
        };
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

        let mut server = DurableServer {
            storage,
            core,
            config,
            opts,
            obs,
            journal: HashMap::new(),
            flight_drained: 0,
            ops_since_checkpoint: 0,
            last_report: RecoveryReport::default(),
            recovered_flight: Vec::new(),
            evidence: Vec::new(),
            ckpt_buf: Vec::new(),
        };
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
    /// with what was durable. Keeps the attached flight recorder (the live
    /// ring is host-side infrastructure, not server state).
    fn recover(&mut self) -> Result<(), StorageError> {
        let recorder = self.core.flight_recorder();
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
        self.journal.clear();
        self.recovered_flight.clear();
        self.evidence.clear();
        self.core = match &recovered.checkpoint {
            Some((_, state)) => {
                let ds = DurableState::from_bytes(state)?;
                for (user, seq, resp) in ds.journal {
                    self.journal.insert(user, (seq, resp));
                }
                self.evidence = ds.evidence;
                ServerCore::crash_restore(&ds.snapshot)
                    .map_err(|_| StorageError::io("checkpoint snapshot rejected"))?
            }
            None => ServerCore::new(&self.config),
        };
        for (_lsn, rec) in recovered.tail {
            match rec {
                Record::Op {
                    user,
                    seq,
                    op,
                    round,
                } => {
                    let resp = self.core.process(user, &op, round);
                    if seq != NO_SEQ {
                        self.journal.insert(user, (seq, resp));
                    }
                }
                Record::Signature(s) => self.core.store_signature(s),
                Record::EpochState(s) => self.core.store_epoch_state(s),
                Record::AuditCheckpoint(c) => self.core.store_checkpoint(c),
                Record::Flight(ev) => self.recovered_flight.push(ev),
                Record::Evidence(bytes) => self.evidence.push(bytes),
            }
        }
        if let Some(r) = recorder {
            self.core.attach_flight_recorder(Arc::clone(&r));
            self.flight_drained = r.recorded();
        } else {
            self.flight_drained = 0;
        }
        self.ops_since_checkpoint = 0;
        let report = recovered.report;
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
                "replayed={} torn={} corrupt_ckpts={} interrupted_ckpts={}",
                report.records_replayed,
                report.torn_tail.is_some(),
                report.corrupt_checkpoints,
                report.interrupted_checkpoints
            ))
        });
        self.last_report = report;
        Ok(())
    }

    /// Attaches an always-on flight recorder; frames it captures are
    /// committed to the log alongside the ops that caused them, so the
    /// black box survives real (process-death) crashes.
    pub fn attach_flight_recorder(&mut self, recorder: Arc<tcvs_obs::FlightRecorder>) {
        self.flight_drained = recorder.recorded();
        self.core.attach_flight_recorder(recorder);
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

    /// Flight-recorder frames recovered from the log tail at the last
    /// recovery (oldest first). Frames older than the last checkpoint live
    /// in the snapshot instead ([`tcvs_core::ServerSnapshot::flight_events`]).
    pub fn recovered_flight(&self) -> &[Event] {
        &self.recovered_flight
    }

    /// Storage observability (metrics registry, tracer).
    pub fn obs(&self) -> &StorageObs {
        &self.obs
    }

    /// Persists a captured deviation evidence bundle through the same
    /// atomic-commit path as operations: logged and fsynced before the call
    /// returns, carried forward by every subsequent checkpoint, so the
    /// incident artifact survives crashes and log pruning alike. The bytes
    /// are stored opaquely — the bundle's own integrity digest, not the
    /// engine, vouches for them.
    pub fn persist_evidence(&mut self, bundle: Vec<u8>) -> Result<(), StorageError> {
        self.commit(Record::Evidence(bundle.clone()))?;
        self.evidence.push(bundle);
        Ok(())
    }

    /// Every evidence bundle this durable world holds (recovered from the
    /// checkpoint and log tail, plus any persisted this incarnation),
    /// oldest first.
    pub fn evidence_bundles(&self) -> &[Vec<u8>] {
        &self.evidence
    }

    /// Stages flight frames recorded since the last commit. The ring holds
    /// the newest `capacity` frames, so a burst larger than the ring between
    /// two commits loses its oldest frames — same contract as the ring
    /// itself.
    fn drain_flight(&mut self, batch: &mut WriteBatch) {
        let Some(r) = self.core.flight_recorder() else {
            return;
        };
        let total = r.recorded();
        if total <= self.flight_drained {
            return;
        }
        let tail = r.snapshot();
        let fresh = (total - self.flight_drained) as usize;
        let start = tail.len().saturating_sub(fresh);
        for ev in &tail[start..] {
            batch.push(Record::Flight(ev.clone()));
        }
        self.flight_drained = total;
    }

    /// Commits `rec` (plus pending flight frames) durably.
    fn commit(&mut self, rec: Record) -> Result<(), StorageError> {
        let mut batch = WriteBatch::new();
        batch.push(rec);
        self.drain_flight(&mut batch);
        self.storage.commit(batch)?;
        self.obs.commits.inc();
        Ok(())
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
        self.commit(Record::Op {
            user,
            seq,
            op: op.clone(),
            round,
        })?;
        let resp = self.core.process(user, op, round);
        if seq != NO_SEQ {
            self.journal.insert(user, (seq, resp.clone()));
        }
        self.ops_since_checkpoint += 1;
        if self.opts.checkpoint_every > 0 && self.ops_since_checkpoint >= self.opts.checkpoint_every
        {
            // Streams: the next commits carry it to the medium.
            self.start_checkpoint()?;
        }
        Ok(resp)
    }

    /// Takes a checkpoint immediately: persists the full durable world
    /// (server snapshot + reply journal) before returning, and lets the
    /// storage prune the log behind it.
    pub fn checkpoint_now(&mut self) -> Result<u64, StorageError> {
        let lsn = self.start_checkpoint()?;
        // An empty commit finishes the stream.
        self.storage.commit(WriteBatch::new())?;
        Ok(lsn)
    }

    /// Encodes the durable world and hands it to the storage, which copies
    /// it and streams it out across the following commits.
    fn start_checkpoint(&mut self) -> Result<u64, StorageError> {
        let mut journal: Vec<JournalEntry> = self
            .journal
            .iter()
            .map(|(u, (s, r))| (*u, *s, r.clone()))
            .collect();
        journal.sort_by_key(|(u, _, _)| *u);
        let state = DurableState {
            snapshot: self.core.crash_snapshot(),
            journal,
            evidence: self.evidence.clone(),
        };
        state.encode_into(&mut self.ckpt_buf);
        let lsn = self.storage.checkpoint(&self.ckpt_buf)?;
        self.obs.checkpoints.inc();
        self.ops_since_checkpoint = 0;
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
        self.commit(Record::Signature(s.clone()))
            .expect("durable commit failed; refusing to acknowledge");
        self.core.store_signature(s);
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        self.commit(Record::EpochState(s.clone()))
            .expect("durable commit failed; refusing to acknowledge");
        self.core.store_epoch_state(s);
    }

    fn fetch_epoch_states(&mut self, _requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.core.epoch_states(epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        self.commit(Record::AuditCheckpoint(c.clone()))
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
        let mut out: Vec<JournalEntry> = self
            .journal
            .iter()
            .map(|(u, (s, r))| (*u, *s, r.clone()))
            .collect();
        out.sort_by_key(|(u, _, _)| *u);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{scan_checkpoint, CheckpointScan, TailStatus};
    use crate::medium::{Medium, MemMedium};
    use crate::response_bytes;
    use crate::storage::{DurableOptions, DurableStorage, MemStorage};
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
            MemStorage::new(),
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

    #[test]
    fn flight_frames_survive_a_real_crash() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 100);
        let (tracer, recorder) = Tracer::flight(8);
        s.attach_flight_recorder(Arc::clone(&recorder));
        for i in 0..6 {
            tracer.emit(|| Event::new(i, EventKind::OpServed, 0).detail(format!("op {i}")));
            s.handle_op_seq(0, i, &op(i), i);
        }
        drop(s);
        mem.crash();
        let s2 = durable(&mem, 100);
        let ts: Vec<u64> = s2.recovered_flight().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4, 5], "black box survived the crash");
    }

    #[test]
    fn evidence_survives_a_real_crash_and_checkpoint_pruning() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 5);
        s.handle_op_seq(0, 0, &op(0), 0);
        s.persist_evidence(b"TCVSEVB1-incident-one".to_vec())
            .unwrap();
        // Push enough ops to force checkpoints (log pruned behind them).
        for i in 1..20 {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
        }
        s.persist_evidence(b"TCVSEVB1-incident-two".to_vec())
            .unwrap();
        drop(s);
        mem.crash();
        let s2 = durable(&mem, 5);
        assert_eq!(
            s2.evidence_bundles(),
            &[
                b"TCVSEVB1-incident-one".to_vec(),
                b"TCVSEVB1-incident-two".to_vec()
            ],
            "both bundles survived crash + pruning, oldest first"
        );
    }

    #[test]
    fn checkpoints_bound_replay() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 5);
        for i in 0..23 {
            s.handle_op_seq((i % 3) as u32, i, &op(i), i);
        }
        drop(s);
        mem.crash();
        let s2 = durable(&mem, 5);
        assert_eq!(s2.core().ctr(), 23);
        assert!(
            s2.last_recovery().records_replayed <= 5,
            "checkpoint bounds the tail: {:?}",
            s2.last_recovery()
        );
    }

    /// 20 KiB puts over 17 keys: a checkpoint of them spans several slices.
    fn big_puts(s: &mut DurableServer<DurableStorage<MemMedium>>, ops: std::ops::Range<u64>) {
        for i in ops {
            let put = Op::Put(u64_key(i % 17), vec![i as u8; 20 << 10]);
            s.handle_op_seq((i % 3) as u32, i, &put, i);
        }
    }

    fn ckpt_file(mem: &MemMedium, lsn: u64) -> Option<Vec<u8>> {
        mem.read(&crate::log::checkpoint_name(lsn)).unwrap()
    }

    #[test]
    fn empty_commit_finishes_a_stream_byte_identical_to_one_frame() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 17);
        big_puts(&mut s, 0..17); // the 17th op starts a checkpoint at lsn 17
        assert_eq!(ckpt_file(&mem, 17), None, "starting one writes nothing");
        big_puts(&mut s, 17..19); // two commits carry two slices
        let partial = ckpt_file(&mem, 17).unwrap();
        assert_eq!(scan_checkpoint(&partial), CheckpointScan::Interrupted);
        s.storage.commit(WriteBatch::new()).unwrap();
        let file = ckpt_file(&mem, 17).unwrap();
        let mut payload = 17u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&s.ckpt_buf);
        assert_eq!(
            file,
            crate::log::frame(&payload),
            "one `log::frame`, byte for byte"
        );
        assert_eq!(partial, file[..2 * crate::log::MIN_SLICE], "two slices");
        assert!(
            file.len() > 4 * crate::log::MIN_SLICE,
            "at least five slices"
        );
    }

    #[test]
    fn a_checkpoint_requested_mid_stream_completes_the_first() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 0);
        big_puts(&mut s, 0..17);
        let first = s.start_checkpoint().unwrap();
        big_puts(&mut s, 17..18); // one slice out
        let partial = ckpt_file(&mem, first).unwrap();
        assert_eq!(scan_checkpoint(&partial), CheckpointScan::Interrupted);
        let second = s.start_checkpoint().unwrap();
        assert!(matches!(
            scan_checkpoint(&ckpt_file(&mem, first).unwrap()),
            CheckpointScan::Valid(lsn, _) if lsn == first
        ));
        assert_eq!(ckpt_file(&mem, second), None, "the second has only started");
    }

    #[test]
    fn crash_restart_mid_stream_recovers_from_the_previous_checkpoint() {
        let mem = MemMedium::new();
        let mut s = durable(&mem, 0);
        big_puts(&mut s, 0..17);
        let previous = s.checkpoint_now().unwrap();
        big_puts(&mut s, 17..20);
        let streaming = s.start_checkpoint().unwrap();
        big_puts(&mut s, 20..22); // two slices of it out
        assert!(ckpt_file(&mem, streaming).is_some());
        let root = s.core().root_digest();
        s.crash_restart();
        let report = s.last_recovery();
        assert_eq!(report.interrupted_checkpoints, 1, "{report:?}");
        assert_eq!(report.corrupt_checkpoints, 0);
        assert_eq!(
            report.records_replayed,
            22 - previous,
            "replayed from lsn {previous}"
        );
        assert_eq!(
            ckpt_file(&mem, streaming),
            None,
            "the partial file is removed"
        );
        assert_eq!(s.core().root_digest(), root);
        assert_eq!(s.core().ctr(), 22);
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

    /// A medium the first frame format wrote — each frame checked by the
    /// first 8 bytes of `sha256(payload)`, no format marker — is refused
    /// with a typed error before recovery reads, repairs or salvages any of
    /// it, with or without `salvage_corruption`. An empty medium still
    /// opens fresh.
    #[test]
    fn a_medium_in_the_old_frame_format_is_refused_untouched() -> Result<(), StorageError> {
        use crate::log;
        fn old_frame(payload: &[u8]) -> Vec<u8> {
            let check = &tcvs_crypto::sha256(payload).0[..8];
            [&(payload.len() as u32).to_le_bytes()[..], payload, check].concat()
        }
        fn files(mem: &MemMedium) -> Result<Vec<(String, Vec<u8>)>, StorageError> {
            let names = mem.list()?;
            names
                .into_iter()
                .map(|n| Ok((n.clone(), mem.read(&n)?.unwrap_or_default())))
                .collect()
        }
        // Write a log and checkpoints with this build, then re-frame every
        // file the way the old framing wrote the same records and states.
        let mem = MemMedium::new();
        {
            let mut s = durable(&mem, 4);
            for i in 0..10 {
                s.handle_op_seq(0, i, &op(i), i);
            }
        }
        let mut raw = mem.clone();
        raw.remove(log::FORMAT_MARKER)?;
        for (name, buf) in files(&mem)? {
            let old: Vec<u8> = match log::parse_segment_name(&name) {
                Some(first) => log::scan(&buf, first)
                    .records
                    .iter()
                    .flat_map(|(lsn, tag, body)| old_frame(&log::payload(*lsn, *tag, body)))
                    .collect(),
                None => {
                    let CheckpointScan::Valid(lsn, state) = scan_checkpoint(&buf) else {
                        return Err(StorageError::io(format!("{name} is no whole checkpoint")));
                    };
                    old_frame(&[&lsn.to_le_bytes()[..], &state].concat())
                }
            };
            raw.write_atomic(&name, &old)?;
        }
        let before = files(&mem)?;
        assert!(before
            .iter()
            .any(|(n, _)| log::parse_checkpoint_name(n).is_some()));
        // Read with this build's check, an old segment looks torn: without
        // the marker, recovery would drop its records as a crash's debris.
        let segments: Vec<_> = before
            .iter()
            .filter_map(|(n, buf)| Some((log::parse_segment_name(n)?, buf)))
            .collect();
        assert!(!segments.is_empty());
        for (first, buf) in segments {
            assert!(matches!(
                log::scan(buf, first).tail,
                TailStatus::Torn { offset: 0, .. }
            ));
        }

        for salvage_corruption in [false, true] {
            let store = DurableStorage::open(mem.clone(), DurableOptions::default());
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
                "salvage_corruption={salvage_corruption}: {err:?}"
            );
            assert_eq!(
                files(&mem)?,
                before,
                "salvage_corruption={salvage_corruption}"
            );
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
        assert_eq!(snap.counter("storage.checkpoints"), Some(2));
        assert_eq!(snap.counter("storage.recoveries"), Some(2), "open + crash");
    }

    /// A populated source server, plus the chunk stream a peer would serve.
    fn chunk_stream(n_ops: u64) -> (DurableServer<MemStorage>, tcvs_merkle::ChunkSource, Ctr) {
        let mut src = DurableServer::open(
            MemStorage::new(),
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
            MemStorage::new(),
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
            MemStorage::new(),
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
            MemStorage::new(),
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
            MemStorage::new(),
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

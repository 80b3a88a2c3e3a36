//! The CVS database server: the honest core and the transport-facing API.
//!
//! [`ServerCore`] is the deterministic state machine every server (honest or
//! malicious) is built from: the Merkle B+-tree database, the operation
//! counter `ctr`, the last-operating user `j`, the stored Protocol I
//! signature, and the Protocol III deposit boxes. [`ServerApi`] is the
//! interface the transports (simulator, threads) and the adversaries in
//! [`crate::adversary`] implement.

use std::collections::BTreeMap;

use tcvs_crypto::{Digest, UserId, NO_USER};
use tcvs_merkle::{
    apply_op, batchable, prune_for_op, prune_for_ops, BatchProof, MerkleTree, Op,
    VerificationObject,
};

use crate::msg::{BatchResponse, ServerResponse, SignedCheckpoint, SignedEpochState, SignedState};
use crate::types::{Ctr, Epoch, ProtocolConfig};

/// Cumulative server-side traffic accounting (for the overhead experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Operations processed.
    pub ops: u64,
    /// Messages received from users (requests + signature/state deposits).
    pub msgs_in: u64,
    /// Messages sent to users.
    pub msgs_out: u64,
    /// Bytes sent to users (encoded sizes).
    pub bytes_out: u64,
}

/// The deterministic server state machine.
#[derive(Clone)]
pub struct ServerCore {
    db: MerkleTree,
    ctr: Ctr,
    last_user: UserId,
    /// Protocol I: the most recent `sigⱼ(h(M(D) ‖ ctr))` deposited.
    last_sig: Option<SignedState>,
    /// Protocol III: rounds per epoch.
    epoch_len: u64,
    /// Protocol III: deposited per-user epoch states, keyed by (epoch, user).
    epoch_states: BTreeMap<(Epoch, UserId), SignedEpochState>,
    /// Protocol III: audited epoch-final checkpoints.
    checkpoints: BTreeMap<Epoch, SignedCheckpoint>,
    /// Protocol III: last epoch in which each user was served (drives the
    /// `new_epoch` flag).
    user_epochs: BTreeMap<UserId, Epoch>,
    metrics: ServerMetrics,
}

impl ServerCore {
    /// Creates a server with an empty database.
    pub fn new(config: &ProtocolConfig) -> ServerCore {
        ServerCore {
            db: MerkleTree::with_order(config.order),
            ctr: 0,
            last_user: NO_USER,
            last_sig: None,
            epoch_len: config.epoch_len,
            epoch_states: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            user_epochs: BTreeMap::new(),
            metrics: ServerMetrics::default(),
        }
    }

    /// Current root digest `M(D)`.
    pub fn root_digest(&self) -> tcvs_crypto::Digest {
        self.db.root_digest()
    }

    /// Current operation counter.
    pub fn ctr(&self) -> Ctr {
        self.ctr
    }

    /// Builds a core from a *verified* database and counter — the landing
    /// point of chunked state sync (client cold start, shard rejoin,
    /// checkpoint restore). Deposited epoch states, checkpoints, and the
    /// last signature start empty: bootstrap transfers the authenticated
    /// database, not peers' audit deposits — users re-deposit on their next
    /// exchange, exactly as with a fresh server that already holds data.
    ///
    /// A tree whose branching order differs from `config.order` is refused:
    /// every proof the core served from it would fail its clients' replay.
    pub fn from_verified_state(
        db: MerkleTree,
        ctr: Ctr,
        config: &ProtocolConfig,
    ) -> Result<ServerCore, tcvs_merkle::CodecError> {
        if config.epoch_len == 0 {
            return Err(tcvs_merkle::CodecError::Malformed("zero epoch length"));
        }
        if db.order() != config.order {
            return Err(tcvs_merkle::CodecError::Malformed(
                "tree order differs from the configured order",
            ));
        }
        Ok(ServerCore {
            db,
            ctr,
            ..ServerCore::new(config)
        })
    }

    /// Read access to the database (diagnostics, oracle comparison).
    pub fn db(&self) -> &MerkleTree {
        &self.db
    }

    /// Mutable database access — used only by adversaries to tamper.
    pub fn db_mut(&mut self) -> &mut MerkleTree {
        &mut self.db
    }

    /// Traffic metrics so far.
    pub fn metrics(&self) -> ServerMetrics {
        self.metrics
    }

    /// The epoch the server is in at `round`.
    pub fn epoch_at(&self, round: u64) -> Epoch {
        round / self.epoch_len
    }

    /// Processes one operation honestly and produces the response tuple.
    pub fn process(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        let vo = VerificationObject::new(prune_for_op(&self.db, op));
        let result = apply_op(&mut self.db, op).expect("full tree never yields stubs");
        let epoch = self.epoch_at(round);
        let prev_epoch = self.user_epochs.insert(user, epoch);
        let resp = ServerResponse {
            result,
            vo,
            ctr: self.ctr,
            last_user: self.last_user,
            sig: self.last_sig.clone(),
            epoch,
            new_epoch: prev_epoch != Some(epoch),
        };
        self.ctr += 1;
        self.last_user = user;
        self.metrics.ops += 1;
        self.metrics.msgs_in += 1;
        self.metrics.msgs_out += 1;
        self.metrics.bytes_out += resp.encoded_size() as u64;
        resp
    }

    /// Processes a whole window of batchable point operations by `user`
    /// honestly, sharing one union-pruned proof across the window (see
    /// [`tcvs_merkle::prune_for_ops`]). Semantically identical to calling
    /// [`ServerCore::process`] once per op, but the tree spine is pruned
    /// (and the client re-hashes it) once instead of once per op, and the
    /// window is applied with one rehash pass
    /// ([`MerkleTree::apply_window`]).
    ///
    /// Declines (`None`, nothing changed) a window holding an op that is
    /// not [`batchable`]: the client then sends its ops one at a time.
    pub fn process_batch(&mut self, user: UserId, ops: &[Op], round: u64) -> Option<BatchResponse> {
        if !ops.iter().all(batchable) {
            return None;
        }
        let proof = BatchProof::new(prune_for_ops(&self.db, ops));
        let results = self
            .db
            .apply_window(ops)
            .expect("full tree never yields stubs");
        let epoch = self.epoch_at(round);
        let prev_epoch = self.user_epochs.insert(user, epoch);
        let resp = BatchResponse {
            results,
            proof,
            ctr: self.ctr,
            last_user: self.last_user,
            sig: self.last_sig.clone(),
            epoch,
            new_epoch: prev_epoch != Some(epoch),
        };
        self.ctr += ops.len() as u64;
        if !ops.is_empty() {
            self.last_user = user;
        }
        self.metrics.ops += ops.len() as u64;
        self.metrics.msgs_in += 1;
        self.metrics.msgs_out += 1;
        self.metrics.bytes_out += resp.encoded_size() as u64;
        Some(resp)
    }

    /// Rewinds the counter/last-user bookkeeping without touching the
    /// database. Only adversaries use this (counter-reuse attacks).
    pub(crate) fn set_counter_state(&mut self, ctr: Ctr, last_user: UserId) {
        self.ctr = ctr;
        self.last_user = last_user;
    }

    /// The user who performed the most recent operation.
    pub fn last_user(&self) -> UserId {
        self.last_user
    }

    /// Stores a user's signature over the new state (Protocol I step 6).
    /// An untrusted server stores blindly; honest servers overwrite.
    pub fn store_signature(&mut self, s: SignedState) {
        self.metrics.msgs_in += 1;
        self.last_sig = Some(s);
    }

    /// Stores a user's signed per-epoch state (Protocol III).
    pub fn store_epoch_state(&mut self, s: SignedEpochState) {
        self.metrics.msgs_in += 1;
        self.epoch_states.insert((s.epoch, s.user), s);
    }

    /// Returns all deposited states for `epoch` (Protocol III audit).
    pub fn epoch_states(&mut self, epoch: Epoch) -> Vec<SignedEpochState> {
        let out: Vec<SignedEpochState> = self
            .epoch_states
            .range((epoch, 0)..=(epoch, UserId::MAX))
            .map(|(_, v)| v.clone())
            .collect();
        self.metrics.msgs_out += 1;
        self.metrics.bytes_out += out.iter().map(|s| s.encoded_size() as u64).sum::<u64>();
        out
    }

    /// Stores an audited checkpoint (Protocol III).
    pub fn store_checkpoint(&mut self, c: SignedCheckpoint) {
        self.metrics.msgs_in += 1;
        self.checkpoints.insert(c.epoch, c);
    }

    /// Fetches the checkpoint for `epoch`, if deposited.
    pub fn checkpoint(&mut self, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.metrics.msgs_out += 1;
        self.checkpoints.get(&epoch).cloned()
    }

    /// Captures the *full* durable state for a crash-restart: the database
    /// plus the protocol deposit boxes.
    ///
    /// The database capture is an O(1) root-pointer copy: the tree is
    /// copy-on-write, so the snapshot shares every node with the live tree
    /// and later mutations copy only the spine they touch. Capturing is
    /// therefore cheap enough to run on every operation (the fault-injection
    /// harness does exactly that).
    ///
    /// A crash must preserve the deposits: Protocol I clients verify the
    /// stored `last_sig` on the very next response, and Protocol III audits
    /// read epoch states deposited before the crash. Losing either would
    /// make an honest restarted server look like a deviating one.
    pub fn crash_snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            db: self.db.clone(),
            ctr: self.ctr,
            last_user: self.last_user,
            epoch_len: self.epoch_len,
            last_sig: self.last_sig.clone(),
            epoch_states: self.epoch_states.values().cloned().collect(),
            checkpoints: self.checkpoints.values().cloned().collect(),
            user_epochs: self.user_epochs.iter().map(|(u, e)| (*u, *e)).collect(),
            metrics: self.metrics,
        }
    }

    /// Rebuilds a server from a [`ServerCore::crash_snapshot`]. The deposit
    /// boxes are restored verbatim.
    pub fn crash_restore(snap: &ServerSnapshot) -> Result<ServerCore, tcvs_merkle::CodecError> {
        use tcvs_merkle::CodecError;
        if snap.epoch_len == 0 {
            return Err(CodecError::Malformed("zero epoch length"));
        }
        Ok(ServerCore {
            db: snap.db.clone(),
            ctr: snap.ctr,
            last_user: snap.last_user,
            last_sig: snap.last_sig.clone(),
            epoch_len: snap.epoch_len,
            epoch_states: snap
                .epoch_states
                .iter()
                .map(|s| ((s.epoch, s.user), s.clone()))
                .collect(),
            checkpoints: snap
                .checkpoints
                .iter()
                .map(|c| (c.epoch, c.clone()))
                .collect(),
            user_epochs: snap.user_epochs.iter().copied().collect(),
            metrics: snap.metrics,
        })
    }

    /// An O(1) read snapshot of the current state: a structurally shared
    /// copy of the database plus the counter and last user it is current
    /// as of.
    pub fn read_snapshot(&self) -> ReadSnapshot {
        ReadSnapshot {
            db: self.db.clone(),
            ctr: self.ctr,
            last_user: self.last_user,
        }
    }
}

/// Durable state captured by [`ServerCore::crash_snapshot`]: everything an
/// honest server must carry across a crash-restart to stay indistinguishable
/// from one that never crashed.
///
/// The database is held as a structurally shared tree (captured in O(1)).
/// Its byte-level persisted form is the durable engine's checkpoint
/// (`tcvs_storage::DurableState`).
#[derive(Clone, Debug)]
pub struct ServerSnapshot {
    /// The database at capture time (copy-on-write share of the live tree).
    db: MerkleTree,
    /// Operation counter at capture time.
    ctr: Ctr,
    /// Last-operating user at capture time.
    last_user: UserId,
    /// Rounds per epoch.
    epoch_len: u64,
    /// Protocol I: the deposited signature over the latest state.
    last_sig: Option<SignedState>,
    /// Protocol III: deposited per-user epoch states.
    epoch_states: Vec<SignedEpochState>,
    /// Protocol III: audited checkpoints.
    checkpoints: Vec<SignedCheckpoint>,
    /// Per-user epoch bookkeeping (drives the `new_epoch` flag).
    user_epochs: Vec<(UserId, Epoch)>,
    /// Traffic accounting continues across restarts.
    metrics: ServerMetrics,
}

impl ServerSnapshot {
    /// Root digest of the captured database.
    pub fn root_digest(&self) -> Digest {
        self.db.root_digest()
    }

    /// Assembles a snapshot from its parts — the inverse of the accessors
    /// below, for storage engines that persist snapshots field by field and
    /// must rebuild one on recovery. `epoch_len` of zero is rejected, as in
    /// [`ServerCore::crash_restore`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        db: MerkleTree,
        ctr: Ctr,
        last_user: UserId,
        epoch_len: u64,
        last_sig: Option<SignedState>,
        epoch_states: Vec<SignedEpochState>,
        checkpoints: Vec<SignedCheckpoint>,
        user_epochs: Vec<(UserId, Epoch)>,
        metrics: ServerMetrics,
    ) -> Result<ServerSnapshot, tcvs_merkle::CodecError> {
        if epoch_len == 0 {
            return Err(tcvs_merkle::CodecError::Malformed("zero epoch length"));
        }
        Ok(ServerSnapshot {
            db,
            ctr,
            last_user,
            epoch_len,
            last_sig,
            epoch_states,
            checkpoints,
            user_epochs,
            metrics,
        })
    }

    /// The captured database (copy-on-write share).
    pub fn db(&self) -> &MerkleTree {
        &self.db
    }

    /// Operation counter at capture time.
    pub fn ctr(&self) -> Ctr {
        self.ctr
    }

    /// Last-operating user at capture time.
    pub fn last_user(&self) -> UserId {
        self.last_user
    }

    /// Rounds per epoch.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Protocol I: the deposited signature over the latest state.
    pub fn last_sig(&self) -> Option<&SignedState> {
        self.last_sig.as_ref()
    }

    /// Protocol III: deposited per-user epoch states.
    pub fn epoch_states(&self) -> &[SignedEpochState] {
        &self.epoch_states
    }

    /// Protocol III: audited checkpoints.
    pub fn checkpoints(&self) -> &[SignedCheckpoint] {
        &self.checkpoints
    }

    /// Per-user epoch bookkeeping.
    pub fn user_epochs(&self) -> &[(UserId, Epoch)] {
        &self.user_epochs
    }

    /// Traffic accounting at capture time.
    pub fn snapshot_metrics(&self) -> ServerMetrics {
        self.metrics
    }
}

/// An immutable, structurally shared view of the server's database as of a
/// particular operation counter: what bootstrap chunks are cut from and
/// what a state sample reads.
///
/// Capturing one is O(1) (tree clone is a root-pointer copy). While one is
/// held, the next write copies the spine it touches, leaving this
/// snapshot's nodes intact.
#[derive(Clone, Debug)]
pub struct ReadSnapshot {
    db: MerkleTree,
    ctr: Ctr,
    last_user: UserId,
}

impl ReadSnapshot {
    /// The operation counter this snapshot is current as of (the next
    /// operation the serialized path will assign).
    pub fn ctr(&self) -> Ctr {
        self.ctr
    }

    /// The user whose operation produced this state ([`NO_USER`] before the
    /// first operation, or on a server restored by verified state sync).
    pub fn last_user(&self) -> UserId {
        self.last_user
    }

    /// Root digest of the snapshot database.
    pub fn root_digest(&self) -> Digest {
        self.db.root_digest()
    }

    /// The snapshot database itself. Chunked state sync slices this tree
    /// into root-anchored chunks ([`tcvs_merkle::ChunkSource`]).
    pub fn db(&self) -> &MerkleTree {
        &self.db
    }
}

/// Uninhabited, so no server returns one; ROADMAP 1(a) deletes it with the benchmark's forward.
#[doc(hidden)]
pub enum PipelinedResponse {}

/// The server interface as seen by clients and transports. Implemented by
/// the honest server and by every adversary in [`crate::adversary`].
pub trait ServerApi {
    /// Handles one operation at (the server's view of) `round`.
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse;

    /// Handles one operation, additionally carrying the client's retry
    /// sequence number `seq` (the exactly-once key the transport journals
    /// replies under).
    ///
    /// The default ignores `seq` and delegates to
    /// [`ServerApi::handle_op`] — in-memory servers have no use for it. A
    /// durable server overrides this to log `(user, seq, op, round)` before
    /// returning, so that after a real crash it can regenerate the reply
    /// journal by replay and the transport keeps its exactly-once promise.
    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        let _ = seq;
        self.handle_op(user, op, round)
    }

    /// Handles a whole window of batchable point operations with one shared
    /// proof, or returns `None` if this server does not serve batches.
    ///
    /// The default is `None` — deliberately: batching is a *performance*
    /// feature of the honest server, and adversaries must exercise the
    /// ordinary per-op detection path unless they opt in explicitly.
    /// Transports fall back to per-op requests when the server declines.
    fn handle_op_batch(
        &mut self,
        user: UserId,
        seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        let _ = (user, seq, ops, round);
        None
    }

    /// Inert stub that always returns `None`; ROADMAP 1(a) deletes it with the benchmark's forward.
    #[doc(hidden)]
    fn handle_op_pipelined(
        &mut self,
        user: UserId,
        seq: u64,
        op: &Op,
        round: u64,
        depth: usize,
    ) -> Option<PipelinedResponse> {
        let _ = (user, seq, op, round, depth);
        None
    }

    /// Inert stub that always returns 0; ROADMAP 1(a) deletes it with the benchmark's forward.
    #[doc(hidden)]
    fn deposit_lag(&self) -> u64 {
        0
    }

    /// Protocol I: the client deposits its signature over the new state.
    fn deposit_signature(&mut self, user: UserId, s: SignedState);

    /// Protocol III: the client deposits its signed epoch state.
    fn deposit_epoch_state(&mut self, s: SignedEpochState);

    /// Protocol III: the auditor fetches all epoch states for `epoch`.
    fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState>;

    /// Protocol III: the auditor deposits the audited checkpoint.
    fn deposit_checkpoint(&mut self, c: SignedCheckpoint);

    /// Protocol III: fetches the checkpoint chaining into `epoch`.
    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint>;

    /// Cumulative traffic metrics.
    fn metrics(&self) -> ServerMetrics;

    /// Simulates a crash followed by a restart from persisted state.
    ///
    /// The default is a no-op: an adversary that survives restarts keeps
    /// whatever malicious state it maintains (a crash must never launder a
    /// deviation). [`HonestServer`] round-trips through
    /// [`ServerCore::crash_snapshot`], modelling a server that loses all
    /// volatile state and recovers only what it persisted.
    fn crash_restart(&mut self) {}

    /// An O(1) snapshot of the current state, or `None` if this server
    /// exposes none. Transports serve two things from it, neither of them
    /// trusted by the party that receives it: bootstrap chunks, which the
    /// client verifies against a root it pins, and the `(root, ctr,
    /// last_user)` sample a late joiner anchors at, which a session joining
    /// at it checks at its next sync-up. No user operation is ever answered
    /// from it.
    ///
    /// The default is `None`, so a server that keeps it serves no
    /// bootstrap and no sample.
    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        None
    }

    /// The reply journal recovered from durable storage, as
    /// `(user, seq, response)` triples — `None` when this server keeps no
    /// durable journal (every in-memory server).
    ///
    /// Transports call this at spawn and after every
    /// [`ServerApi::crash_restart`] to re-seed their exactly-once journal:
    /// a retry of an operation acknowledged before the crash must be
    /// answered from the journal, byte-identical, not re-executed.
    fn recovered_journal(&self) -> Option<Vec<(UserId, u64, ServerResponse)>> {
        None
    }
}

/// A server that follows the protocol exactly.
pub struct HonestServer {
    core: ServerCore,
}

impl HonestServer {
    /// Creates an honest server.
    pub fn new(config: &ProtocolConfig) -> HonestServer {
        HonestServer {
            core: ServerCore::new(config),
        }
    }

    /// Wraps an already-built core — the shard-rejoin path of chunked state
    /// sync: a restarted shard assembles a verified [`ServerCore`] from a
    /// peer's chunks and resumes serving from it.
    pub fn from_core(core: ServerCore) -> HonestServer {
        HonestServer { core }
    }

    /// Read access to the core (tests, oracles).
    pub fn core(&self) -> &ServerCore {
        &self.core
    }
}

impl ServerApi for HonestServer {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.core.process(user, op, round)
    }

    fn handle_op_batch(
        &mut self,
        user: UserId,
        _seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        self.core.process_batch(user, ops, round)
    }

    fn deposit_signature(&mut self, _user: UserId, s: SignedState) {
        // A duplicated or late deposit (a retried or reordered message) must
        // never roll the stored signature back: keep the most advanced one,
        // and count the stale message like any other.
        if self.core.last_sig.as_ref().is_none_or(|c| s.ctr >= c.ctr) {
            self.core.store_signature(s);
        } else {
            self.core.metrics.msgs_in += 1;
        }
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        self.core.store_epoch_state(s);
    }

    fn fetch_epoch_states(&mut self, _requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        self.core.epoch_states(epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        self.core.store_checkpoint(c);
    }

    fn fetch_checkpoint(&mut self, _requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.core.checkpoint(epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        self.core.metrics()
    }

    fn crash_restart(&mut self) {
        let snap = self.core.crash_snapshot();
        self.core = ServerCore::crash_restore(&snap)
            .expect("a snapshot the server itself produced decodes");
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        Some(self.core.read_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::{u64_key, OpResult};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        }
    }

    #[test]
    fn process_advances_counter_and_last_user() {
        let mut s = ServerCore::new(&config());
        let r0 = s.process(7, &Op::Put(u64_key(1), b"a".to_vec()), 0);
        assert_eq!(r0.ctr, 0);
        assert_eq!(r0.last_user, NO_USER);
        let r1 = s.process(9, &Op::Get(u64_key(1)), 1);
        assert_eq!(r1.ctr, 1);
        assert_eq!(r1.last_user, 7);
        assert_eq!(r1.result, OpResult::Value(Some(b"a".to_vec())));
        assert_eq!(s.ctr(), 2);
    }

    #[test]
    fn responses_carry_replayable_proofs() {
        let mut s = ServerCore::new(&config());
        let before = s.root_digest();
        let op = Op::Put(u64_key(5), b"v".to_vec());
        let r = s.process(0, &op, 0);
        let verified = tcvs_merkle::verify_response(
            &before,
            4,
            &r.vo,
            &op,
            Some(&r.result),
            Some(&s.root_digest()),
        )
        .unwrap();
        assert_eq!(verified.new_root, s.root_digest());
    }

    #[test]
    fn epoch_flagging_per_user() {
        let mut s = ServerCore::new(&config());
        let r = s.process(0, &Op::Get(u64_key(0)), 0);
        assert_eq!(r.epoch, 0);
        assert!(r.new_epoch);
        let r = s.process(0, &Op::Get(u64_key(0)), 5);
        assert!(!r.new_epoch, "same epoch, same user");
        let r = s.process(1, &Op::Get(u64_key(0)), 5);
        assert!(r.new_epoch, "first time user 1 is served");
        let r = s.process(0, &Op::Get(u64_key(0)), 10);
        assert_eq!(r.epoch, 1);
        assert!(r.new_epoch, "epoch rolled over");
    }

    #[test]
    fn epoch_state_deposit_and_fetch() {
        let mut s = ServerCore::new(&config());
        let (mut rings, _) = tcvs_crypto::setup_users([1; 32], 2, 3);
        for (u, ring) in rings.iter_mut().enumerate() {
            let sigma = tcvs_crypto::sha256(&[u as u8]);
            let payload = SignedEpochState::payload(u as u32, 3, &sigma, None, 0);
            s.store_epoch_state(SignedEpochState {
                user: u as u32,
                epoch: 3,
                sigma,
                last: None,
                ops: 0,
                sig: ring.sign(&payload).unwrap(),
            });
        }
        assert_eq!(s.epoch_states(3).len(), 2);
        assert!(s.epoch_states(2).is_empty());
    }

    #[test]
    fn metrics_accumulate() {
        let mut s = ServerCore::new(&config());
        s.process(0, &Op::Get(u64_key(0)), 0);
        s.process(1, &Op::Put(u64_key(0), vec![1]), 1);
        let m = s.metrics();
        assert_eq!(m.ops, 2);
        assert_eq!(m.msgs_out, 2);
        assert!(m.bytes_out > 0);
    }

    #[test]
    fn crash_snapshot_preserves_deposits() {
        let (mut rings, _) = tcvs_crypto::setup_users([3; 32], 1, 4);
        let mut s = ServerCore::new(&config());
        s.process(0, &Op::Put(u64_key(1), vec![1]), 0);
        let root = s.root_digest();
        let payload = crate::state::signed_payload(&root, 1);
        s.store_signature(SignedState {
            signer: 0,
            root,
            ctr: 1,
            sig: rings[0].sign(&payload).unwrap(),
        });
        let sigma = tcvs_crypto::sha256(&[9]);
        let ep_payload = SignedEpochState::payload(0, 2, &sigma, None, 5);
        s.store_epoch_state(SignedEpochState {
            user: 0,
            epoch: 2,
            sigma,
            last: None,
            ops: 5,
            sig: rings[0].sign(&ep_payload).unwrap(),
        });

        let restored = ServerCore::crash_restore(&s.crash_snapshot()).unwrap();
        assert_eq!(restored.root_digest(), s.root_digest());
        assert_eq!(restored.ctr(), s.ctr());
        assert!(restored.last_sig.is_some(), "Protocol I deposit survives");
        assert_eq!(restored.epoch_states.len(), 1, "epoch deposits survive");
        assert_eq!(restored.user_epochs, s.user_epochs);
        assert_eq!(restored.metrics(), s.metrics());
    }

    #[test]
    fn crashed_honest_server_is_indistinguishable() {
        // A client that ran ops before the crash keeps verifying after it.
        let cfg = config();
        let mut s = HonestServer::new(&cfg);
        let root0 = s.core().root_digest();
        let mut alice = crate::Client2::new(0, &root0, cfg);
        for i in 0..5u64 {
            let op = Op::Put(u64_key(i), vec![i as u8]);
            let resp = s.handle_op(0, &op, i);
            alice.handle_response(&op, &resp).expect("honest");
        }
        s.crash_restart();
        for i in 5..10u64 {
            let op = Op::Get(u64_key(i - 5));
            let resp = s.handle_op(0, &op, i);
            alice
                .handle_response(&op, &resp)
                .expect("restart is not a deviation");
        }
    }

    #[test]
    fn plain_restore_drops_session_state_but_crash_restore_keeps_it() {
        let (mut rings, _) = tcvs_crypto::setup_users([4; 32], 1, 4);
        let mut s = ServerCore::new(&config());
        s.process(0, &Op::Put(u64_key(1), vec![1]), 0);
        let root = s.root_digest();
        let payload = crate::state::signed_payload(&root, 1);
        s.store_signature(SignedState {
            signer: 0,
            root,
            ctr: 1,
            sig: rings[0].sign(&payload).unwrap(),
        });
        let crashed = ServerCore::crash_restore(&s.crash_snapshot()).unwrap();
        assert!(crashed.last_sig.is_some(), "crash recovery keeps deposits");
    }

    #[test]
    fn honest_server_implements_api() {
        let mut s = HonestServer::new(&config());
        let r = s.handle_op(0, &Op::Put(u64_key(9), vec![9]), 0);
        assert_eq!(r.ctr, 0);
        assert_eq!(s.metrics().ops, 1);
        assert!(s.fetch_checkpoint(0, 0).is_none());
    }

    /// A duplicated or late deposit never rolls the stored signature back:
    /// after the deposit at ctr 2, the ctr-1 deposit arriving again is
    /// counted and dropped, and the next response carries the ctr-2
    /// signature.
    #[test]
    fn stale_deposit_does_not_regress_the_stored_signature() {
        let (mut rings, _) = tcvs_crypto::setup_users([6; 32], 1, 4);
        let mut s = HonestServer::new(&config());
        let mut deposits = Vec::new();
        for i in 0..2u64 {
            s.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
            let (root, ctr) = (s.core().root_digest(), s.core().ctr());
            let payload = crate::state::signed_payload(&root, ctr);
            deposits.push(SignedState {
                signer: 0,
                root,
                ctr,
                sig: rings[0].sign(&payload).unwrap(),
            });
        }
        let (at1, at2) = (deposits[0].clone(), deposits[1].clone());
        assert_eq!((at1.ctr, at2.ctr), (1, 2));
        s.deposit_signature(0, at1.clone());
        s.deposit_signature(0, at2.clone());
        let msgs_in = s.metrics().msgs_in;
        s.deposit_signature(0, at1);
        assert_eq!(s.metrics().msgs_in, msgs_in + 1, "the stale message counts");
        let resp = s.handle_op(0, &Op::Get(u64_key(0)), 2);
        assert_eq!(resp.sig, Some(at2), "the ctr-2 signature stays stored");
    }
}

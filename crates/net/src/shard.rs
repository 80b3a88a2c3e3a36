//! The sharded grove: N independent shard servers, verified per shard.
//!
//! A [`ShardedServer`] partitions the keyspace across `N` [`NetServer`]s via
//! the deterministic, restart-stable [`ShardRouter`] — each shard owns its
//! own COW Merkle B+-tree and reply journal, and runs its own serialized
//! thread. A verified client runs one protocol session per shard, checking
//! each answer against that shard's root. The per-shard roots sampled at
//! one epoch fold into a top-level **grove root**
//! (`tcvs_merkle::grove_root`, a fixed-fanout Merkle combine) that names
//! the whole grove at that epoch; nothing is verified against it.
//!
//! Detection composes per shard: the Protocol II sync-up predicate is
//! evaluated per shard (`protocol2_grove_sync_ok`), so a lie confined to
//! one shard is caught within the same Theorem 4.2 k-bound as on a single
//! server — and is localized to the deviating shard for free. Sessions
//! join the grove at a sampled epoch ([`ShardedServer::grove_epoch`]); the
//! epoch-consistency rule is documented in DESIGN.md §"Sharded grove".
//!
//! [`ShardedClient2`] routes per key, splits batch windows per shard, and
//! scatter-gathers cross-shard `Range` queries, merging them by key.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tcvs_core::{
    Ctr, Digest, EvidenceBuilder, EvidenceBundle, EvidenceKind, FaultPlan, FaultRates,
    GroveEvidence, Op, OpResult, ProtocolConfig, ServerApi, ShardRouter, SyncShare, TriggerInfo,
    UserId,
};
use tcvs_merkle::{grove_root, Key, Value};
use tcvs_obs::Counter;

use crate::client::NetClient2;
use crate::error::{NetError, RetryPolicy};
use crate::fault::FaultLink;
use crate::obs::NetStats;
use crate::server::{Endpoint, NetServer, NetServerOptions};

/// One sampled grove epoch: every shard's root and counter, and the grove
/// root they fold into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroveEpoch {
    /// Monotone epoch number (per [`ShardedServer`], starting at 1).
    pub epoch: u64,
    /// Each shard's root at the sample, in shard order.
    pub shard_roots: Vec<Digest>,
    /// Each shard's counter at the sample.
    pub shard_ctrs: Vec<Ctr>,
    /// Each shard's last-writer at the sample ([`tcvs_core::NO_USER`] for
    /// a shard that has seen no operation — including one freshly restored
    /// by verified state sync).
    pub shard_last_users: Vec<UserId>,
    /// `grove_root(&shard_roots)`.
    pub grove_root: Digest,
}

impl GroveEpoch {
    /// The per-shard Protocol II join tokens of this epoch —
    /// `state_token(root, ctr, last_user)` per shard, the anchors a session
    /// joining the grove at this epoch folds its σ from. This is the
    /// **grove-epoch rejoin rule**: after a shard is restored by verified
    /// state sync, verified sessions re-enter at an epoch sampled *after*
    /// the rejoin, anchored by these tokens
    /// ([`ShardedClient2::join`]).
    pub fn join_tokens(&self) -> Vec<Digest> {
        self.shard_roots
            .iter()
            .zip(&self.shard_ctrs)
            .zip(&self.shard_last_users)
            .map(|((root, ctr), user)| tcvs_core::state::state_token(root, *ctr, *user))
            .collect()
    }
}

/// N shard servers behind one deterministic router and one combined root.
pub struct ShardedServer {
    shards: Vec<NetServer>,
    router: ShardRouter,
    stats: NetStats,
    /// The options every shard was spawned with — reused when
    /// [`ShardedServer::bootstrap_restart`] spawns a replacement shard.
    opts: NetServerOptions,
    epochs: AtomicU64,
    grove_epochs: Arc<Counter>,
}

impl ShardedServer {
    /// Spawns `n_shards` honest shard servers, each with its own tree and
    /// reply journal.
    pub fn spawn(
        n_shards: usize,
        config: &ProtocolConfig,
        opts: NetServerOptions,
    ) -> ShardedServer {
        let inners: Vec<Box<dyn ServerApi + Send>> = (0..n_shards)
            .map(|_| Box::new(tcvs_core::HonestServer::new(config)) as Box<dyn ServerApi + Send>)
            .collect();
        ShardedServer::spawn_with_servers(inners, opts, NetStats::disabled())
    }

    /// Spawns one shard per inner server, in order, all feeding the shared
    /// registry/tracer in `stats` plus the grove-level `net.shard.*`
    /// metrics. This is how a test puts an *adversarial* server on exactly
    /// one shard while the other N−1 stay honest.
    ///
    /// # Panics
    ///
    /// Panics if `inners` is empty.
    pub fn spawn_with_servers(
        inners: Vec<Box<dyn ServerApi + Send>>,
        opts: NetServerOptions,
        stats: NetStats,
    ) -> ShardedServer {
        assert!(!inners.is_empty(), "a grove needs at least one shard");
        let router = ShardRouter::new(inners.len());
        let shards: Vec<NetServer> = inners
            .into_iter()
            .map(|inner| NetServer::spawn_observed(inner, opts, stats.clone()))
            .collect();
        stats
            .registry()
            .gauge("net.shard.count")
            .set(shards.len() as i64);
        let grove_epochs = stats.registry().counter("net.shard.grove_epochs");
        ShardedServer {
            shards,
            router,
            stats,
            opts,
            epochs: AtomicU64::new(0),
            grove_epochs,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The keyspace router every client of this grove must use.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The shard servers, in shard order.
    pub fn shards(&self) -> &[NetServer] {
        &self.shards
    }

    /// One shard server.
    pub fn shard(&self, index: usize) -> &NetServer {
        &self.shards[index]
    }

    /// The stats handle the shards were spawned with.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Crash-restarts one shard from its persisted state, synchronously.
    pub fn crash_restart(&self, shard: usize) -> Result<(), NetError> {
        self.shards[shard].crash_restart()
    }

    /// Crash-restarts every shard (a whole-grove power event).
    pub fn crash_restart_all(&self) -> Result<(), NetError> {
        self.shards.iter().try_for_each(NetServer::crash_restart)
    }

    /// Replaces shard `shard` with a server rebuilt from `peer`'s chunks
    /// via verified state sync — the recovery path for a shard whose local
    /// state is gone or stale (e.g. a SIGKILLed process with no durable
    /// storage).
    ///
    /// `expected_root` pins the shard root to restore (from the last
    /// published grove epoch's `shard_roots[shard]`); every chunk is
    /// verified against it before admission, so a lying peer cannot feed
    /// the grove a diverged shard. On success the restored shard serves at
    /// the bootstrapped counter and the next [`ShardedServer::grove_epoch`]
    /// folds its (verified) root back into the grove — that is the rejoin:
    /// epochs sampled after this call include the restored shard, and
    /// Protocol II sync-up evaluates it like any other shard.
    ///
    /// The peer may be the shard's old incarnation, a replica, or any
    /// endpoint serving that shard's keyspace — the chunk verification, not
    /// the peer's identity, is what makes the restored state trustworthy.
    pub fn bootstrap_restart(
        &mut self,
        shard: usize,
        peer: &impl Endpoint,
        expected_root: &Digest,
        config: &ProtocolConfig,
    ) -> Result<crate::bootstrap::BootstrapReport, crate::bootstrap::BootstrapError> {
        use crate::bootstrap::{BootstrapClient, BootstrapError};
        let mut boot = BootstrapClient::new(tcvs_core::NO_USER, peer);
        boot.set_stats(self.stats.clone());
        let report = boot.bootstrap(Some(expected_root))?;
        let core =
            tcvs_core::ServerCore::from_verified_state(report.tree.clone(), report.ctr, config)
                .map_err(|e| BootstrapError::Assembly(tcvs_merkle::ChunkError::Codec(e)))?;
        let inner = Box::new(tcvs_core::HonestServer::from_core(core)) as Box<dyn ServerApi + Send>;
        let replacement = NetServer::spawn_observed(inner, self.opts, self.stats.clone());
        let old = std::mem::replace(&mut self.shards[shard], replacement);
        // The old incarnation (possibly wedged or stale) drains gracefully;
        // clients holding its wire see `ServerGone` and rebind.
        old.shutdown();
        Ok(report)
    }

    /// Interposes one [`FaultLink`] per shard, each replaying an
    /// **independently seeded** stream derived from `seed` via
    /// [`FaultPlan::link_subseed`] — a multi-shard fault storm must not
    /// inject in lockstep across shards. Clients that should see the faults
    /// must be bound over the returned links (in shard order) instead of
    /// the servers.
    pub fn interpose_faults(&self, seed: u64, n_ops: u64, rates: &FaultRates) -> Vec<FaultLink> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let plan = FaultPlan::seeded_for_link(seed, i as u64, n_ops, rates);
                FaultLink::interpose_observed(shard, plan, self.stats.clone())
            })
            .collect()
    }

    /// Samples every shard's `(root, ctr, last_user)` and folds the roots
    /// into a grove root — one **grove epoch**, the anchor the cross-shard
    /// sync-up rule is stated against. Each shard answers one request on
    /// its serialized wire, in order, so the epoch reflects every write
    /// acknowledged before this call. The sample is the server's word, not
    /// a verified fact: a session joining at it ([`ShardedClient2::join`])
    /// finds out at its next sync-up whether the server told the truth.
    /// Returns `None` when any shard exposes no state to sample (an
    /// adversarial shard never does) or has exited.
    pub fn grove_epoch(&self) -> Option<GroveEpoch> {
        let mut shard_roots = Vec::with_capacity(self.shards.len());
        let mut shard_ctrs = Vec::with_capacity(self.shards.len());
        let mut shard_last_users = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (root, ctr, last_user) = shard.sample()?;
            shard_roots.push(root);
            shard_ctrs.push(ctr);
            shard_last_users.push(last_user);
        }
        let root = grove_root(&shard_roots);
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        self.grove_epochs.inc();
        Some(GroveEpoch {
            epoch,
            shard_roots,
            shard_ctrs,
            shard_last_users,
            grove_root: root,
        })
    }

    /// Stops every shard thread gracefully (backlogged requests drain).
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Merges per-shard `Entries` results of a scatter-gathered range query
/// into one key-ordered result. Non-`Entries` shapes contribute nothing —
/// verified clients have already rejected them by the time this runs.
fn merge_entries(per_shard: Vec<OpResult>) -> OpResult {
    let mut all: Vec<(Key, Value)> = Vec::new();
    for r in per_shard {
        if let OpResult::Entries(es) = r {
            all.extend(es);
        }
    }
    all.sort_by(|a, b| a.0.cmp(&b.0));
    OpResult::Entries(all)
}

/// Per-shard routed-operation counters, registered lazily on `set_stats`.
fn shard_counters(stats: &NetStats, n: usize) -> Vec<Arc<Counter>> {
    (0..n)
        .map(|i| stats.registry().counter(&format!("net.shard.{i}.routed")))
        .collect()
}

/// A Protocol II client over a grove: each shard gets its own verified
/// [`NetClient2`] anchored at that shard's root; batch windows are split
/// per shard and reassembled in submission order.
pub struct ShardedClient2 {
    clients: Vec<NetClient2>,
    initials: Vec<Digest>,
    router: ShardRouter,
    routed: Option<Vec<Arc<Counter>>>,
}

impl ShardedClient2 {
    /// Binds one verified client per shard of `grove`; `root0s` are the
    /// per-shard initial roots, in shard order.
    pub fn new(
        user: UserId,
        root0s: &[Digest],
        config: ProtocolConfig,
        grove: &ShardedServer,
    ) -> ShardedClient2 {
        ShardedClient2::bind(user, root0s, config, grove.shards())
    }

    /// Binds over explicit per-shard endpoints (e.g. [`FaultLink`]s), in
    /// shard order.
    ///
    /// # Panics
    ///
    /// Panics if `root0s` and `shards` disagree in length.
    pub fn bind<E: Endpoint>(
        user: UserId,
        root0s: &[Digest],
        config: ProtocolConfig,
        shards: &[E],
    ) -> ShardedClient2 {
        assert_eq!(
            root0s.len(),
            shards.len(),
            "one initial root per shard, in shard order"
        );
        ShardedClient2 {
            clients: root0s
                .iter()
                .zip(shards)
                .map(|(root0, s)| NetClient2::new(user, root0, config, s))
                .collect(),
            initials: root0s.iter().map(tcvs_core::state::initial_token).collect(),
            router: ShardRouter::new(shards.len()),
            routed: None,
        }
    }

    /// Binds one verified client per shard, joining the grove **at a
    /// published epoch** instead of genesis — the grove-epoch rejoin rule.
    /// Each per-shard σ fold is anchored at the epoch's join token
    /// ([`GroveEpoch::join_tokens`]), so the session's sync-up covers
    /// exactly the transitions since the epoch. This is how verified
    /// sessions re-enter a grove after a shard was restored by verified
    /// state sync (its old wires are gone, its chain restarts at the
    /// bootstrapped state), and how a late joiner starts without replaying
    /// history. The epoch must come from a trusted sample — joining at a
    /// forged epoch surfaces as a failed sync-up, like any fork.
    pub fn join(
        user: UserId,
        epoch: &GroveEpoch,
        config: ProtocolConfig,
        grove: &ShardedServer,
    ) -> ShardedClient2 {
        let shards = grove.shards();
        assert_eq!(
            epoch.shard_roots.len(),
            shards.len(),
            "the epoch and the grove must agree on shard count"
        );
        ShardedClient2 {
            clients: (0..shards.len())
                .map(|i| {
                    NetClient2::join(
                        user,
                        &epoch.shard_roots[i],
                        epoch.shard_ctrs[i],
                        epoch.shard_last_users[i],
                        config,
                        &shards[i],
                    )
                })
                .collect(),
            initials: epoch.join_tokens(),
            router: ShardRouter::new(shards.len()),
            routed: None,
        }
    }

    /// Attaches observability: per-shard `net.shard.{i}.routed` counters
    /// plus the usual transport counters on every inner client.
    pub fn set_stats(&mut self, stats: NetStats) {
        self.routed = Some(shard_counters(&stats, self.clients.len()));
        for c in &mut self.clients {
            c.set_stats(stats.clone());
        }
    }

    /// Replaces the retry policy on every inner client.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for c in &mut self.clients {
            c.set_retry_policy(policy);
        }
    }

    /// Executes one verified operation, routed by key. A cross-shard range
    /// scatter-gathers: every shard's slice is verified against that
    /// shard's root, then the slices merge by key.
    pub fn execute(&mut self, op: &Op) -> Result<OpResult, NetError> {
        match self.router.route_op(op) {
            Some(shard) => {
                if let Some(routed) = &self.routed {
                    routed[shard].inc();
                }
                self.clients[shard].execute(op)
            }
            None => {
                let per_shard = self
                    .clients
                    .iter_mut()
                    .map(|c| c.execute(op))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(merge_entries(per_shard))
            }
        }
    }

    /// Executes a window of operations, split into per-shard batched
    /// exchanges ([`NetClient2::execute_batch`]) and reassembled into
    /// submission order. A window containing a cross-shard range falls back
    /// to per-op execution.
    pub fn execute_batch(&mut self, ops: &[Op]) -> Result<Vec<OpResult>, NetError> {
        let Some(groups) = self.router.partition(ops) else {
            return ops.iter().map(|op| self.execute(op)).collect();
        };
        let mut out: Vec<Option<OpResult>> = vec![None; ops.len()];
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            if let Some(routed) = &self.routed {
                routed[shard].add(group.len() as u64);
            }
            let shard_ops: Vec<Op> = group.iter().map(|(_, op)| (*op).clone()).collect();
            let results = self.clients[shard].execute_batch(&shard_ops)?;
            for ((pos, _), result) in group.into_iter().zip(results) {
                out[pos] = Some(result);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every op routed to exactly one shard"))
            .collect())
    }

    /// This user's broadcast shares, one per shard in shard order — the
    /// grove sync-up exchanges all of them
    /// (`tcvs_core::sync::protocol2_grove_sync_ok`).
    pub fn sync_shares(&self) -> Vec<SyncShare> {
        self.clients.iter().map(NetClient2::sync_share).collect()
    }

    /// Evaluates the grove sync-up verdict from the broadcast shares:
    /// `per_shard[i]` holds every user's share for shard `i`, sampled at
    /// one grove epoch. The grove passes iff *every* shard's share set
    /// passes its own Protocol II predicate — on each shard that means
    /// *some* user (the shard's last operator) announces success, exactly
    /// the paper's single-server verdict applied per shard.
    pub fn sync_succeeds(&self, per_shard: &[Vec<SyncShare>]) -> bool {
        tcvs_core::sync::protocol2_grove_sync_ok(&self.initials, per_shard)
    }

    /// The shards whose sync-up failed — the grove's localization bonus.
    pub fn deviating_shards(&self, per_shard: &[Vec<SyncShare>]) -> Vec<usize> {
        tcvs_core::sync::protocol2_deviating_shards(&self.initials, per_shard)
    }

    /// Enables the forensic transition log on every inner per-shard client.
    pub fn enable_logging(&mut self) {
        for c in &mut self.clients {
            c.enable_logging();
        }
    }

    /// Stamps captured evidence bundles (per-op rejections and sync-up
    /// localizations alike) with the run seed that produced them.
    pub fn set_evidence_seed(&mut self, seed: u64) {
        for c in &mut self.clients {
            c.set_evidence_seed(seed);
        }
    }

    /// Takes the evidence bundle stashed by the first inner client whose
    /// per-op verification failed, if any.
    pub fn take_evidence(&mut self) -> Option<EvidenceBundle> {
        self.clients.iter_mut().find_map(NetClient2::take_evidence)
    }

    /// Captures a cross-shard sync-up incident: evaluates the grove
    /// localization over `per_shard` shares and, when at least one shard
    /// deviates, returns an [`EvidenceBuilder`] pre-populated with this
    /// user's whole view — per-shard anchor tokens, the full share
    /// exchange, the localized shard set, the sampled grove epoch (when
    /// given), and this user's per-shard transition logs.
    ///
    /// Returns a *builder* rather than a sealed bundle so the sync-up
    /// harness can graft in what one client cannot know — the other users'
    /// transition logs and their verification keys — before `.build()`:
    /// fork diagnosis needs at least two users' histories to name the fork
    /// point. Only the *deviating* shards' logs are included (and should be
    /// grafted): diagnosis over a shard whose log set misses a
    /// participating user reads that user's states as fabricated and
    /// mis-localizes.
    pub fn localization_evidence(
        &self,
        seed: u64,
        per_shard: &[Vec<SyncShare>],
        epoch: Option<&GroveEpoch>,
    ) -> Option<EvidenceBuilder> {
        let deviating = self.deviating_shards(per_shard);
        if deviating.is_empty() {
            return None;
        }
        let user = self.clients[0].user();
        let mut b = EvidenceBuilder::new(EvidenceKind::ShardLocalization, seed, "protocol-2")
            .captured_at(self.ops_done())
            .description(format!(
                "grove sync-up failed; localization names {} of {} shards",
                deviating.len(),
                self.clients.len()
            ))
            .trigger(TriggerInfo {
                deviation: "sync-failed".to_string(),
                detail: format!("deviating shards: {deviating:?}"),
                user: Some(user),
                shard: Some(deviating[0] as u32),
                ctr: None,
            })
            .initials(&self.initials)
            .shares(per_shard.to_vec())
            .claimed_shards(deviating.iter().copied());
        if let Some(epoch) = epoch {
            b = b.grove(GroveEvidence {
                epoch: epoch.epoch,
                shard_roots: epoch.shard_roots.clone(),
                shard_ctrs: epoch.shard_ctrs.clone(),
                shard_last_users: epoch.shard_last_users.clone(),
                grove_root: epoch.grove_root,
            });
        }
        for &shard in &deviating {
            if let Some(log) = self.clients[shard].transition_log() {
                b = b.transition_log(shard, user, log);
            }
        }
        Some(b)
    }

    /// One inner per-shard client (tests and sync-up plumbing).
    pub fn client(&self, shard: usize) -> &NetClient2 {
        &self.clients[shard]
    }

    /// Operations completed across all shards.
    pub fn ops_done(&self) -> u64 {
        self.clients.iter().map(NetClient2::ops_done).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::{u64_key, MerkleTree};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 4,
            k: 8,
            epoch_len: 64,
        }
    }

    fn root0s(n: usize, config: &ProtocolConfig) -> Vec<Digest> {
        vec![MerkleTree::with_order(config.order).root_digest(); n]
    }

    /// An honest grove routes every key to one shard and merges a
    /// cross-shard range by key.
    #[test]
    fn trusted_grove_routes_and_range_merges() {
        let cfg = config();
        let grove = ShardedServer::spawn(4, &cfg, NetServerOptions::default());
        let mut c = ShardedClient2::new(0, &root0s(4, &cfg), cfg, &grove);
        for i in 0..32u64 {
            c.execute(&Op::Put(u64_key(i), vec![i as u8]))
                .expect("honest grove");
        }
        for i in 0..32u64 {
            let got = c.execute(&Op::Get(u64_key(i))).expect("routed read");
            assert_eq!(got, OpResult::Value(Some(vec![i as u8])));
        }
        // A cross-shard range gathers every shard's slice, merged by key.
        let got = c.execute(&Op::Range(None, None)).expect("scatter-gather");
        match got {
            OpResult::Entries(es) => {
                assert_eq!(es.len(), 32);
                let keys: Vec<Key> = es.iter().map(|(k, _)| k.clone()).collect();
                let mut sorted = keys.clone();
                sorted.sort();
                assert_eq!(keys, sorted, "merged entries are key-ordered");
            }
            other => panic!("range returned {other:?}"),
        }
        grove.shutdown();
    }

    #[test]
    fn sharded_p2_batches_verify_and_survive_restarts() {
        let cfg = config();
        let grove = ShardedServer::spawn(3, &cfg, NetServerOptions::default());
        let mut c = ShardedClient2::new(0, &root0s(3, &cfg), cfg, &grove);
        let window: Vec<Op> = (0..12u64)
            .map(|i| Op::Put(u64_key(i), vec![i as u8; 4]))
            .collect();
        let results = c.execute_batch(&window).expect("verified grove window");
        assert_eq!(results.len(), 12);
        grove.crash_restart_all().expect("grove restart");
        // Reads verify against the restored per-shard roots.
        for i in 0..12u64 {
            let got = c.execute(&Op::Get(u64_key(i))).expect("post-restart read");
            assert_eq!(got, OpResult::Value(Some(vec![i as u8; 4])));
        }
        assert_eq!(c.ops_done(), 24);
        grove.shutdown();
    }

    /// An epoch folds the sampled roots, and each sample is served in order
    /// behind the writes before it: one taken right after an acknowledged
    /// write reflects it.
    #[test]
    fn grove_epoch_folds_the_sampled_roots() {
        let cfg = config();
        let grove = ShardedServer::spawn(2, &cfg, NetServerOptions::default());
        let mut c = ShardedClient2::new(0, &root0s(2, &cfg), cfg, &grove);
        for i in 0..8u64 {
            c.execute(&Op::Put(u64_key(i), vec![1])).expect("write");
        }
        let epoch = grove.grove_epoch().expect("honest shards are sampled");
        assert_eq!(epoch.epoch, 1);
        assert_eq!(epoch.shard_roots.len(), 2);
        assert_eq!(epoch.grove_root, grove_root(&epoch.shard_roots));
        assert_eq!(
            epoch.shard_ctrs.iter().sum::<u64>(),
            8,
            "every write landed on exactly one shard"
        );
        let again = grove.grove_epoch().expect("sample again");
        assert_eq!(again.epoch, 2);
        assert_eq!(again.grove_root, epoch.grove_root, "quiescent grove");

        let shard = grove.router().route_key(&u64_key(7));
        c.execute(&Op::Put(u64_key(7), vec![2])).expect("write");
        let after = grove.grove_epoch().expect("sample after the write");
        let mut oracle = MerkleTree::with_order(cfg.order);
        for i in (0..8u64).filter(|&i| grove.router().route_key(&u64_key(i)) == shard) {
            let v = if i == 7 { 2 } else { 1 };
            tcvs_merkle::apply_op(&mut oracle, &Op::Put(u64_key(i), vec![v])).expect("full tree");
        }
        assert_eq!(after.shard_roots[shard], oracle.root_digest());
        assert_eq!(after.shard_ctrs[shard], epoch.shard_ctrs[shard] + 1);
        assert_eq!(after.shard_roots[1 - shard], epoch.shard_roots[1 - shard]);
        grove.shutdown();
    }

    #[test]
    fn shard_metrics_count_grove_activity() {
        let cfg = config();
        let stats = NetStats::disabled();
        let inners: Vec<Box<dyn ServerApi + Send>> = (0..2)
            .map(|_| Box::new(tcvs_core::HonestServer::new(&cfg)) as Box<dyn ServerApi + Send>)
            .collect();
        let grove =
            ShardedServer::spawn_with_servers(inners, NetServerOptions::default(), stats.clone());
        let mut c = ShardedClient2::new(0, &root0s(2, &cfg), cfg, &grove);
        c.set_stats(stats.clone());
        for i in 0..10u64 {
            c.execute(&Op::Put(u64_key(i), vec![1])).expect("write");
        }
        grove.grove_epoch().expect("sample");
        let snap = stats.snapshot();
        assert_eq!(
            snap.get("net.shard.count"),
            Some(&tcvs_obs::MetricValue::Gauge(2))
        );
        assert_eq!(snap.counter("net.shard.grove_epochs"), Some(1));
        let routed: u64 = (0..2)
            .map(|i| snap.counter(&format!("net.shard.{i}.routed")).unwrap_or(0))
            .sum();
        assert_eq!(routed, 10, "every op routed to exactly one shard");
        grove.shutdown();
    }
}

//! Where a call runs: a directly bound client's plain op or batch window
//! runs on its own thread while the server is idle, and so does a direct
//! Protocol I client's whole blocking step, which holds the server from
//! its reply to its deposit; calls through a fault link run on the server
//! thread; concurrent windows and concurrent held steps wait for each
//! other's lock instead of queueing; and an op or window that panics stops
//! the server for every client wherever it ran. That a call never
//! overtakes queued work is checked inside the crate (`server::tests`),
//! where the queue is visible.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::{
    BatchResponse, Deviation, Epoch, FaultKind, FaultPlan, HonestServer, Op, OpResult,
    ProtocolConfig, ReadSnapshot, ServerApi, ServerMetrics, ServerResponse, SignedCheckpoint,
    SignedEpochState, SignedState, UserId,
};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{
    FaultLink, NetClient1, NetClient2, NetError, NetServer, NetServerOptions, NetStats, RetryPolicy,
};
use tcvs_obs::MetricValue;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn root0(config: &ProtocolConfig) -> tcvs_core::Digest {
    MerkleTree::with_order(config.order).root_digest()
}

/// The thread each executed op or window ran on, in serving order.
type Log = Arc<Mutex<Vec<ThreadId>>>;

/// A value a [`Probe`] will not store: a `Put` of it, alone or in a
/// window, panics, as a durable server's does when its commit fails.
const REFUSED: &[u8] = b"refused";

fn is_refused(op: &Op) -> bool {
    matches!(op, Op::Put(_, value) if value == REFUSED)
}

/// An honest server that logs the thread every op and window runs on.
struct Probe {
    inner: HonestServer,
    log: Log,
}

impl Probe {
    fn new(cfg: &ProtocolConfig) -> (Probe, Log) {
        let log = Log::default();
        let probe = Probe {
            inner: HonestServer::new(cfg),
            log: Arc::clone(&log),
        };
        (probe, log)
    }

    fn record(&self) {
        self.log.lock().unwrap().push(thread::current().id());
    }
}

impl ServerApi for Probe {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.inner.handle_op(user, op, round)
    }

    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        self.record();
        if is_refused(op) {
            panic!("commit failed; refusing to acknowledge");
        }
        self.inner.handle_op_seq(user, seq, op, round)
    }

    fn handle_op_batch(
        &mut self,
        user: UserId,
        seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        self.record();
        if ops.iter().any(is_refused) {
            panic!("commit failed; refusing to acknowledge");
        }
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

    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        self.inner.fetch_checkpoint(requester, epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        self.inner.metrics()
    }

    fn crash_restart(&mut self) {
        self.inner.crash_restart();
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        self.inner.read_snapshot()
    }
}

fn ran_on(log: &Log) -> Vec<ThreadId> {
    log.lock().unwrap().clone()
}

fn inline_ops(stats: &NetStats) -> Option<u64> {
    stats.snapshot().counter("net.server.inline_ops")
}

/// A blocking Protocol I deployment that waits `deposit_timeout` for a
/// deposit on its thread.
fn blocking(deposit_timeout: Duration) -> NetServerOptions {
    NetServerOptions {
        blocking_signatures: true,
        deposit_timeout,
        ..NetServerOptions::default()
    }
}

/// Protocol I clients of `n` users with `2^height` one-time keys each,
/// bound to `server`. User 0 has deposited the initial state, and the
/// server thread has taken that deposit off its queue.
fn protocol1_clients(server: &NetServer, n: u32, height: u32) -> Vec<NetClient1> {
    let (rings, registry) = setup_users([0x35; 32], n, height);
    let mut clients: Vec<NetClient1> = rings
        .into_iter()
        .map(|r| NetClient1::new(r, registry.clone(), config(), server))
        .collect();
    clients[0].deposit_initial(&root0(&config())).unwrap();
    // Served in order behind the deposit.
    let _ = server.sample();
    clients
}

/// The selection rule, clause by clause: an idle server's plain op and
/// batch window run on the caller's thread, and so does a direct Protocol I
/// client's op on a blocking server; an op through a fault link runs on the
/// server thread.
#[test]
fn an_idle_servers_op_or_window_runs_on_the_callers_thread_and_nothing_else_does() {
    let cfg = config();
    let r0 = root0(&cfg);
    let me = thread::current().id();

    // Plain ops and a window from one Protocol II client.
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server =
        NetServer::spawn_observed(Box::new(probe), NetServerOptions::default(), stats.clone());
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    c.execute(&Op::Get(u64_key(1))).unwrap();
    assert_eq!(ran_on(&log), [me, me], "plain ops run inline");
    assert_eq!(inline_ops(&stats), Some(2));
    let window = [Op::Put(u64_key(2), vec![2]), Op::Get(u64_key(1))];
    c.execute_batch(&window).unwrap();
    assert_eq!(ran_on(&log), [me, me, me], "a batch window runs inline");
    assert_eq!(inline_ops(&stats), Some(4), "a window adds its ops");
    server.shutdown();

    // A direct Protocol I client holds a blocking server through its step:
    // each op runs on the caller's thread, and each deposit arrives.
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(probe),
        NetServerOptions {
            blocking_signatures: true,
            ..NetServerOptions::default()
        },
        stats.clone(),
    );
    let (rings, registry) = setup_users([0x34; 32], 1, 5);
    let mut c1 = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c1.deposit_initial(&r0).unwrap();
    // The initial deposit queues; an op never overtakes it.
    let _ = server.sample();
    for i in 0..3u64 {
        c1.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    assert_eq!(ran_on(&log), [me, me, me], "held steps run inline");
    assert_eq!(inline_ops(&stats), Some(3));
    assert_eq!(server.missed_deposits(), 0);
    server.shutdown();

    // A client behind a fault link is served by the thread, faults and all.
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server =
        NetServer::spawn_observed(Box::new(probe), NetServerOptions::default(), stats.clone());
    let mut plan = FaultPlan::none();
    plan.schedule(1, FaultKind::DropReply)
        .schedule(3, FaultKind::Duplicate);
    let scheduled = plan.len() as u64;
    let link = FaultLink::interpose(&server, plan);
    let mut c = NetClient2::new(0, &r0, cfg, &link);
    c.set_retry_policy(RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(40),
        max_jitter: Duration::from_millis(5),
    });
    for i in 0..5u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    assert_eq!(link.applied().total(), scheduled, "every fault fired");
    let threads = ran_on(&log);
    assert_eq!(threads.len(), 5, "retries and duplicates hit the journal");
    assert!(threads.iter().all(|&t| t != me), "{threads:?}");
    assert_eq!(inline_ops(&stats), Some(0));
    server.shutdown();
}

/// `net.server.op_ns` holds one nanosecond-grained sample per served call,
/// inline or queued, and `net.server.inline_ops` counts only the ops of the
/// inline ones.
#[test]
fn op_ns_samples_every_served_call_and_inline_ops_only_inline_ones() {
    let cfg = config();
    let r0 = root0(&cfg);
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    let mut c = NetClient2::new(0, &r0, cfg, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let op_ns = |stats: &NetStats| match stats.snapshot().get("net.server.op_ns") {
        Some(&MetricValue::Histogram { count, sum, .. }) => (count, sum),
        other => panic!("net.server.op_ns is a histogram: {other:?}"),
    };
    // An inline op is counted before its caller gets the reply.
    let (count, sum) = op_ns(&stats);
    assert_eq!(count, 1);
    assert!(sum > 0, "a served op takes a nonzero number of nanoseconds");
    assert_eq!(inline_ops(&stats), Some(1));

    c.execute_batch(&[Op::Get(u64_key(1)), Op::Get(u64_key(2))])
        .unwrap();
    assert_eq!(op_ns(&stats).0, 2, "a window is one served call");
    assert_eq!(inline_ops(&stats), Some(3), "an inline window adds its ops");

    // A call through a fault link is served by the thread.
    let link = FaultLink::interpose(&server, FaultPlan::none());
    NetClient2::new(1, &r0, cfg, &link)
        .execute(&Op::Get(u64_key(1)))
        .unwrap();
    // The thread counts a call after replying to it: join it first.
    server.shutdown();
    assert_eq!(op_ns(&stats).0, 3);
    assert_eq!(inline_ops(&stats), Some(3), "a queued op is not inline");
}

/// Two clients each send 200 windows of `Put`s and `Get`s to an idle
/// server. Nothing is ever queued, so every window runs on its caller's
/// thread, waiting for the lock whenever the other client's window holds
/// it (a window that spun and then queued would run on the server thread);
/// every answer matches a per-key model and the final sync-up passes.
#[test]
fn concurrent_windows_run_on_their_callers_threads() {
    const WINDOWS: u64 = 200;
    let cfg = config();
    let r0 = root0(&cfg);
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server =
        NetServer::spawn_observed(Box::new(probe), NetServerOptions::default(), stats.clone());
    let workers: Vec<_> = (0..2)
        .map(|user| {
            let mut c = NetClient2::new(user, &r0, cfg, &server);
            thread::spawn(move || {
                // Each client writes its own keys, so its model is exact.
                let mut model = HashMap::new();
                for w in 0..WINDOWS {
                    let window: Vec<(u64, Op)> = (0..32)
                        .map(|i| {
                            let key = u64::from(user) * 1000 + (w * 7 + i) % 64;
                            let op = if (w + i) % 3 == 0 {
                                Op::Put(u64_key(key), vec![user as u8, w as u8, i as u8])
                            } else {
                                Op::Get(u64_key(key))
                            };
                            (key, op)
                        })
                        .collect();
                    let ops: Vec<Op> = window.iter().map(|(_, op)| op.clone()).collect();
                    let results = c.execute_batch(&ops).unwrap();
                    for ((key, op), result) in window.into_iter().zip(results) {
                        let expected = match op {
                            Op::Put(_, value) => OpResult::Replaced(model.insert(key, value)),
                            _ => OpResult::Value(model.get(&key).cloned()),
                        };
                        assert_eq!(result, expected, "user {user} window {w} key {key}");
                    }
                }
                (thread::current().id(), c)
            })
        })
        .collect();
    let (threads, clients): (Vec<ThreadId>, Vec<NetClient2>) =
        workers.into_iter().map(|w| w.join().unwrap()).unzip();

    let ran = ran_on(&log);
    assert_eq!(ran.len(), 2 * WINDOWS as usize);
    for t in &threads {
        let n = ran.iter().filter(|&r| r == t).count();
        assert_eq!(
            n, WINDOWS as usize,
            "every window ran on its caller's thread"
        );
    }
    assert_eq!(
        stats.snapshot().counter("net.batch.windows"),
        Some(2 * WINDOWS)
    );
    let shares: Vec<_> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    server.shutdown();
}

/// An op or a window that panics inside the inner server stops the server
/// for every client, whether it ran inline on its caller's thread or queued
/// on the server thread: the failing call and the next call of another
/// client both return `ServerGone`, and nothing is served after the failed
/// call.
#[test]
fn a_panicking_op_stops_the_server_inline_or_queued() {
    let cfg = config();
    let r0 = root0(&cfg);
    let me = thread::current().id();
    for (through_link, window) in [(false, false), (true, false), (false, true), (true, true)] {
        let (probe, log) = Probe::new(&cfg);
        let server = NetServer::spawn(Box::new(probe), false);
        let link = FaultLink::interpose(&server, FaultPlan::none());
        let mut failing = if through_link {
            NetClient2::new(0, &r0, cfg, &link)
        } else {
            NetClient2::new(0, &r0, cfg, &server)
        };
        // A retry that races the server thread's exit may land in its
        // channel once more before the send itself fails.
        failing.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_secs(2),
            max_jitter: Duration::from_millis(5),
        });
        let mut other = NetClient2::new(1, &r0, cfg, &server);
        other.execute(&Op::Put(u64_key(1), vec![1])).unwrap();

        let refused = Op::Put(u64_key(2), REFUSED.to_vec());
        let failed = if window {
            failing
                .execute_batch(&[Op::Get(u64_key(1)), refused])
                .map(drop)
        } else {
            failing.execute(&refused).map(drop)
        };
        assert_eq!(failed, Err(NetError::ServerGone), "window: {window}");
        let ran = ran_on(&log);
        assert_eq!(ran.len(), 2);
        assert_eq!(ran[1] == me, !through_link, "inline only when direct");
        assert_eq!(
            other.execute(&Op::Get(u64_key(1))),
            Err(NetError::ServerGone),
            "no client is answered after a failed call"
        );
        assert_eq!(
            ran_on(&log).len(),
            2,
            "nothing served after the failed call"
        );
        server.shutdown();
    }
}

/// A lie caught inside a held step leaves its deposit undone: the step
/// counts the miss before `execute` returns, with no deposit wait, and
/// releases the server, so the next user's op is served at once (and, on
/// Protocol I, exposes the missing signature).
#[test]
fn a_lie_caught_in_a_held_step_counts_its_miss_and_releases_the_server() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(LieServer::new(&cfg, Trigger::AtCtr(1))),
        blocking(Duration::from_secs(30)),
    );
    let mut clients = protocol1_clients(&server, 2, 5);
    let started = Instant::now();
    clients[0].execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let lie = clients[0].execute(&Op::Get(u64_key(1)));
    assert!(
        matches!(lie, Err(NetError::Deviation(Deviation::BadProof(_)))),
        "{lie:?}"
    );
    assert_eq!(server.missed_deposits(), 1, "counted as the step ended");
    assert_eq!(
        clients[1].execute(&Op::Get(u64_key(1))),
        Err(NetError::Deviation(Deviation::BadSignature)),
        "the next user is served, against the last deposited signature"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "no deposit wait ran"
    );
    server.shutdown();
}

/// A client whose one-time keys run out inside a held step deposits
/// nothing: the step counts one miss, releases the server, and seals no
/// evidence, since the fault is the client's own.
#[test]
fn a_key_that_runs_out_in_a_held_step_releases_the_server_and_seals_nothing() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        blocking(Duration::from_secs(30)),
    );
    // Four one-time keys each; user 0 spent one on the initial state.
    let mut clients = protocol1_clients(&server, 2, 2);
    for i in 0..3u64 {
        clients[0]
            .execute(&Op::Put(u64_key(i), vec![i as u8]))
            .unwrap();
    }
    assert_eq!(
        clients[0].execute(&Op::Get(u64_key(0))),
        Err(NetError::Deviation(Deviation::KeyExhausted))
    );
    assert_eq!(server.missed_deposits(), 1);
    assert!(clients[0].take_evidence().is_none(), "nothing is sealed");
    assert_eq!(
        clients[1].execute(&Op::Get(u64_key(0))),
        Err(NetError::Deviation(Deviation::BadSignature)),
        "the server is released, and its next reply lacks the deposit"
    );
    server.shutdown();
}

/// Two Protocol I clients each run 500 ops on a blocking server bound
/// directly. Every deposit goes straight into the server, so nothing is
/// ever queued: every op runs on its caller's thread, parking on the lock
/// while the other client's step holds it. Both users finish, every answer
/// matches a per-key model, the counter is the sum of their ops, no
/// deposit is missed, and the sync-up passes.
#[test]
fn concurrent_held_steps_run_on_their_callers_threads() {
    const OPS: u64 = 500;
    let cfg = config();
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(probe),
        blocking(Duration::from_secs(30)),
        stats.clone(),
    );
    // 2^9 = 512 one-time keys cover 500 deposits and the initial one.
    let workers: Vec<_> = (0u64..)
        .zip(protocol1_clients(&server, 2, 9))
        .map(|(user, mut c)| {
            thread::spawn(move || {
                let mut model = HashMap::new();
                for i in 0..OPS {
                    let key = user * 1000 + (i * 7) % 64;
                    let op = if i % 2 == 0 {
                        Op::Put(u64_key(key), vec![user as u8, i as u8])
                    } else {
                        Op::Get(u64_key(key))
                    };
                    let expected = match &op {
                        Op::Put(_, value) => OpResult::Replaced(model.insert(key, value.clone())),
                        _ => OpResult::Value(model.get(&key).cloned()),
                    };
                    assert_eq!(c.execute(&op).unwrap(), expected, "user {user} op {i}");
                }
                (thread::current().id(), c)
            })
        })
        .collect();
    let (threads, clients): (Vec<ThreadId>, Vec<NetClient1>) =
        workers.into_iter().map(|w| w.join().unwrap()).unzip();

    let ran = ran_on(&log);
    assert_eq!(ran.len(), 2 * OPS as usize);
    for t in &threads {
        let n = ran.iter().filter(|&r| r == t).count();
        assert_eq!(n, OPS as usize, "every op ran on its caller's thread");
    }
    assert_eq!(inline_ops(&stats), Some(2 * OPS));
    assert_eq!(server.missed_deposits(), 0);
    let (_, ctr, _) = server.sample().unwrap();
    assert_eq!(ctr, 2 * OPS, "the counter holds every op");
    let shares: Vec<_> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    server.shutdown();
}

/// A Protocol I client behind a fault link, even one with no faults
/// planned, is served by the server thread, which then waits for its
/// deposit. When a caught lie leaves that deposit undone, the wait lasts
/// `deposit_timeout`, holds a direct client's op behind it, and counts the
/// miss as it ends.
#[test]
fn a_protocol1_client_behind_a_fault_link_keeps_the_threads_deposit_wait() {
    let cfg = config();
    let me = thread::current().id();
    let (probe, log) = Probe::new(&cfg);
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(probe),
        blocking(Duration::from_secs(30)),
        stats.clone(),
    );
    let link = FaultLink::interpose(&server, FaultPlan::none());
    let (rings, registry) = setup_users([0x36; 32], 1, 5);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &link);
    c.deposit_initial(&root0(&cfg)).unwrap();
    for i in 0..3u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let threads = ran_on(&log);
    assert_eq!(threads.len(), 3);
    assert!(threads.iter().all(|&t| t != me), "{threads:?}");
    assert_eq!(inline_ops(&stats), Some(0));
    assert_eq!(server.missed_deposits(), 0, "every deposit arrived");
    server.shutdown();

    let timeout = Duration::from_secs(1);
    let server = NetServer::spawn_with(
        Box::new(LieServer::new(&cfg, Trigger::AtCtr(1))),
        blocking(timeout),
    );
    let link = FaultLink::interpose(&server, FaultPlan::none());
    let (rings, registry) = setup_users([0x37; 32], 2, 5);
    let mut rings = rings.into_iter();
    let mut linked = NetClient1::new(rings.next().unwrap(), registry.clone(), cfg, &link);
    let mut direct = NetClient1::new(rings.next().unwrap(), registry, cfg, &server);
    direct.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        base_timeout: Duration::from_secs(30),
        max_jitter: Duration::ZERO,
    });
    linked.deposit_initial(&root0(&cfg)).unwrap();
    linked.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let lie = linked.execute(&Op::Get(u64_key(1)));
    let caught = Instant::now();
    assert!(
        matches!(lie, Err(NetError::Deviation(Deviation::BadProof(_)))),
        "{lie:?}"
    );
    assert_eq!(server.missed_deposits(), 0, "the thread is still waiting");
    assert_eq!(
        direct.execute(&Op::Get(u64_key(1))),
        Err(NetError::Deviation(Deviation::BadSignature)),
        "served once the wait gave up"
    );
    assert!(caught.elapsed() >= timeout / 2, "{:?}", caught.elapsed());
    assert_eq!(server.missed_deposits(), 1, "the timeout counted the miss");
    server.shutdown();
}

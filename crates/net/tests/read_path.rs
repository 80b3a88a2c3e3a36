//! Tests of the concurrent snapshot read path: torn-root freedom under a
//! write storm, read-your-writes across the two wires, crash-restart
//! republication, opening the path on the first bind, and the security
//! boundary (adversaries and fault links never expose a read wire;
//! Protocol II detection is unaffected by concurrent readers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::{HonestServer, Op, ProtocolConfig, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree, OpResult};
use tcvs_net::{
    FaultLink, NetClient2, NetClientTrusted, NetServer, NetServerOptions, NetSnapshotReader,
    NetStats,
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

/// Readers hammering point and range queries while writers mutate
/// concurrently must never observe a torn root: every reply's proof must
/// replay bit-exactly to the root the server committed to for it, and the
/// snapshot counter must never move backwards. `NetSnapshotReader` checks
/// both on every read, so it suffices to run it hard and assert success.
#[test]
fn concurrent_readers_never_observe_a_torn_root_during_a_write_storm() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            read_pool: 3,
            ..NetServerOptions::default()
        },
    );
    let r0 = root0(&cfg);
    let stop = Arc::new(AtomicBool::new(false));

    // The write storm: a verifying Protocol II client updating hot keys.
    let mut writer = NetClient2::new(0, &r0, cfg, &server);
    let stop_w = Arc::clone(&stop);
    let storm = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop_w.load(Ordering::Relaxed) {
            writer
                .execute(&Op::Put(u64_key(i % 64), vec![(i % 251) as u8; 24]))
                .expect("honest server");
            i += 1;
        }
        i
    });

    let mut readers = Vec::new();
    for u in 1..4u32 {
        let mut r = NetSnapshotReader::bind(u, &cfg, &server).expect("honest server offers reads");
        readers.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let op = if i % 3 == 0 {
                    Op::Range(Some(u64_key(i % 64)), Some(u64_key(i % 64 + 8)))
                } else {
                    Op::Get(u64_key((u as u64 * 17 + i) % 64))
                };
                r.execute(&op)
                    .unwrap_or_else(|e| panic!("reader {u} op {i}: {e}"));
            }
            r.last_ctr()
        }));
    }
    for h in readers {
        h.join().expect("reader thread");
    }
    stop.store(true, Ordering::Relaxed);
    let writes = storm.join().expect("writer thread");
    assert!(writes > 0, "the storm actually wrote");
    server.shutdown();
}

/// A write acknowledged on the serialized wire is visible to the very next
/// read on the snapshot wire — the server publishes before it replies.
#[test]
fn trusted_client_reads_its_own_writes_across_the_two_wires() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let mut c = NetClientTrusted::new(0, &server);
    for i in 0..50u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
        match c.execute(&Op::Get(u64_key(i))).unwrap() {
            OpResult::Value(Some(v)) => assert_eq!(v, vec![i as u8], "read-your-write at {i}"),
            other => panic!("unexpected result at {i}: {other:?}"),
        }
    }
    server.shutdown();
}

/// Snapshot readers keep verifying after a crash-restart: the restored
/// state is republished before the crash is acknowledged.
#[test]
fn snapshot_readers_survive_a_crash_restart() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let mut writer = NetClient2::new(0, &r0, cfg, &server);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let mut reader = NetSnapshotReader::bind(1, &cfg, &server).unwrap();
    reader.execute(&Op::Get(u64_key(3))).unwrap();
    let ctr_before = reader.last_ctr();
    server.crash_restart().unwrap();
    match reader.execute(&Op::Get(u64_key(3))).unwrap() {
        OpResult::Value(Some(v)) => assert_eq!(v, vec![3u8]),
        other => panic!("state lost across restart: {other:?}"),
    }
    assert!(reader.last_ctr() >= ctr_before, "counter never regresses");
    server.shutdown();
}

/// The security boundary: only servers that opt in get a read wire.
/// Adversarial servers keep the `ServerApi` default (`None`), and a fault
/// link hides its server's — faults exercise the serialized path.
#[test]
fn adversaries_and_fault_links_expose_no_read_wire() {
    let cfg = config();
    let lying = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(1))), false);
    assert!(
        NetSnapshotReader::bind(0, &cfg, &lying).is_none(),
        "an adversary must never serve the unserialized side channel"
    );
    lying.shutdown();

    let honest = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let link = FaultLink::interpose(&honest, tcvs_core::FaultPlan::none());
    assert!(
        NetSnapshotReader::bind(0, &cfg, &link).is_none(),
        "a fault link pins clients to the serialized wire"
    );
    // Bound through the link, the trusted baseline silently falls back to
    // the serialized path and still works.
    let mut c = NetClientTrusted::new(0, &link);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    assert!(matches!(
        c.execute(&Op::Get(u64_key(1))).unwrap(),
        OpResult::Value(Some(_))
    ));
    honest.shutdown();
}

/// Protocol II's fork-detection state (σᵢ folding, counters, sync-up) rides
/// only on the serialized wire; a pool of snapshot readers running flat out
/// beside the verifying clients must not perturb it.
#[test]
fn protocol2_sync_up_succeeds_with_concurrent_snapshot_readers() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let mut noise = Vec::new();
    for u in 10..13u32 {
        let mut r = NetSnapshotReader::bind(u, &cfg, &server).unwrap();
        let stop_r = Arc::clone(&stop);
        noise.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop_r.load(Ordering::Relaxed) {
                r.execute(&Op::Get(u64_key(i % 97))).expect("verified read");
                i += 1;
            }
        }));
    }
    let mut handles = Vec::new();
    for u in 0..3u32 {
        let mut c = NetClient2::new(u, &r0, cfg, &server);
        handles.push(std::thread::spawn(move || {
            for i in 0..60u64 {
                let op = if i % 2 == 0 {
                    Op::Put(u64_key(u as u64 * 100 + i), vec![i as u8])
                } else {
                    Op::Get(u64_key(u as u64 * 100 + i - 1))
                };
                c.execute(&op).expect("honest server");
            }
            c
        }));
    }
    let clients: Vec<NetClient2> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for h in noise {
        h.join().expect("reader");
    }
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(
        clients.iter().any(|c| c.sync_succeeds(&shares)),
        "sync-up must still succeed under reader noise"
    );
    server.shutdown();
}

fn publishes(stats: &NetStats) -> Option<u64> {
    stats.snapshot().counter("net.server.snapshot_publishes")
}

/// Until a reader binds, the server keeps no snapshot slot: acknowledged
/// writes publish nothing. A reader bound after them opens the path at the
/// state every one of them left (the bind is the one publication so far),
/// and from then on, at `W = 1`, each acknowledged write is visible to the
/// next read.
#[test]
fn a_reader_bound_after_writes_sees_every_acknowledged_one() {
    let cfg = config();
    let stats = NetStats::disabled();
    let server = NetServer::spawn_observed(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions::default(),
        stats.clone(),
    );
    let mut writer = NetClient2::new(0, &root0(&cfg), cfg, &server);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    assert_eq!(
        publishes(&stats),
        Some(0),
        "no reader bound, nothing published"
    );
    let mut reader = NetSnapshotReader::bind(1, &cfg, &server).unwrap();
    assert_eq!(publishes(&stats), Some(1), "the bind published once");
    assert_eq!(
        reader.execute(&Op::Get(u64_key(19))).unwrap(),
        OpResult::Value(Some(vec![19]))
    );
    writer.execute(&Op::Put(u64_key(19), vec![0xee])).unwrap();
    assert_eq!(
        reader.execute(&Op::Get(u64_key(19))).unwrap(),
        OpResult::Value(Some(vec![0xee])),
        "a write after the bind is visible to the next read"
    );
    assert_eq!(publishes(&stats), Some(2));
    server.shutdown();
}

/// A bind that reaches a blocking Protocol I server while it waits for a
/// deposit is served once the wait ends, here by `deposit_timeout`: the
/// open queues behind the wait like any other request.
#[test]
fn a_bind_during_a_deposit_wait_returns_when_the_wait_ends() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&cfg)),
        NetServerOptions {
            blocking_signatures: true,
            deposit_timeout: Duration::from_millis(200),
            ..NetServerOptions::default()
        },
    );
    // A trusted client never deposits, so its write leaves the server
    // waiting. Bound through a link, it opens no read path itself.
    let link = FaultLink::interpose(&server, tcvs_core::FaultPlan::none());
    let mut c = NetClientTrusted::new(0, &link);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let mut reader = NetSnapshotReader::bind(1, &cfg, &server).expect("opened after the wait");
    assert_eq!(
        server.missed_deposits(),
        1,
        "served after the wait timed out"
    );
    assert_eq!(
        reader.execute(&Op::Get(u64_key(1))).unwrap(),
        OpResult::Value(Some(vec![1]))
    );
    server.shutdown();
}

/// The trusted client's slot reads are timed in nanoseconds: one read is
/// far under a microsecond, and must still record a non-zero sample.
#[test]
fn a_trusted_snapshot_read_records_a_nonzero_read_ns_sample() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let stats = NetStats::disabled();
    let mut c = NetClientTrusted::new(0, &server);
    c.set_stats(stats.clone());
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    c.execute(&Op::Get(u64_key(1))).unwrap();
    match stats.snapshot().get("net.server.read_ns") {
        Some(MetricValue::Histogram { count, sum, .. }) => {
            assert_eq!(*count, 1, "one slot read");
            assert!(*sum > 0, "the sample is not rounded to zero");
        }
        other => panic!("missing read_ns histogram: {other:?}"),
    }
    server.shutdown();
}

//! Integration: the threaded deployment under concurrency and attack.

use std::sync::Arc;

use tcvs_core::adversary::{CounterSkipServer, ForkServer, Trigger};
use tcvs_core::{Deviation, FaultPlan, FaultRates, HonestServer, Op, ProtocolConfig, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{FaultLink, NetClient1, NetClient2, NetError, NetServer};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: u64::MAX,
        epoch_len: 1 << 30,
    }
}

fn root0(config: &ProtocolConfig) -> tcvs_core::Digest {
    MerkleTree::with_order(config.order).root_digest()
}

#[test]
fn heavy_concurrency_protocol2_consistent() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let r0 = root0(&cfg);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let mut handles = Vec::new();
    for u in 0..8u32 {
        let mut c = NetClient2::new(u, &r0, cfg, &server);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..100u64 {
                let k = u64_key((u as u64 * 131 + i * 7) % 256);
                let op = if i % 3 == 0 {
                    Op::Get(k)
                } else {
                    Op::Put(k, vec![u as u8, i as u8])
                };
                c.execute(&op).expect("honest server never deviates");
            }
            c
        }));
    }
    let clients: Vec<NetClient2> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    let successes = clients.iter().filter(|c| c.sync_succeeds(&shares)).count();
    assert_eq!(successes, 1, "exactly the final operator succeeds");
    server.shutdown();
}

#[test]
fn fork_across_threads_detected_at_sync() {
    let cfg = config();
    // Users 0,1 on branch A; 2,3 on branch B after op 20.
    let server = NetServer::spawn(
        Box::new(ForkServer::new(&cfg, Trigger::AtCtr(20), &[0, 1])),
        false,
    );
    let r0 = root0(&cfg);
    let mut handles = Vec::new();
    for u in 0..4u32 {
        let mut c = NetClient2::new(u, &r0, cfg, &server);
        handles.push(std::thread::spawn(move || {
            for i in 0..40u64 {
                c.execute(&Op::Put(u64_key(u as u64 * 64 + i), vec![i as u8]))
                    .expect("per-op checks pass on both branches");
            }
            c
        }));
    }
    let clients: Vec<NetClient2> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(
        !clients.iter().any(|c| c.sync_succeeds(&shares)),
        "the out-of-band sync-up must expose the fork"
    );
    server.shutdown();
}

#[test]
fn counter_skip_detected_by_protocol1_over_wire() {
    let cfg = config();
    let server = NetServer::spawn(
        Box::new(CounterSkipServer::new(&cfg, Trigger::AtCtr(3))),
        true,
    );
    let r0 = root0(&cfg);
    let (rings, registry) = tcvs_crypto::setup_users([0x55; 32], 1, 7);
    let mut c = NetClient1::new(rings.into_iter().next().unwrap(), registry, cfg, &server);
    c.deposit_initial(&r0).unwrap();
    let mut detected = false;
    for i in 0..10u64 {
        match c.execute(&Op::Put(u64_key(i), vec![1])) {
            Ok(_) => {}
            Err(e) => {
                // The replayed ctr no longer matches the deposited signature.
                assert!(matches!(
                    e,
                    NetError::Deviation(Deviation::BadSignature | Deviation::BadProof(_))
                ));
                detected = true;
                break;
            }
        }
    }
    assert!(detected, "protocol 1 catches counter reuse at the next op");
    // NetServer is blocked waiting for the detecting client's signature;
    // shutdown unblocks it.
    server.shutdown();
}

#[test]
fn concurrent_clients_through_a_faulty_link_raise_no_false_alarms() {
    let cfg = config();
    let server = NetServer::spawn(Box::new(HonestServer::new(&cfg)), false);
    let plan = FaultPlan::seeded(0x5eed, 160, &FaultRates::light());
    let link = Arc::new(FaultLink::interpose(&server, plan));
    let r0 = root0(&cfg);
    let mut handles = Vec::new();
    for u in 0..4u32 {
        let mut c = NetClient2::new(u, &r0, cfg, link.as_ref());
        handles.push(std::thread::spawn(move || {
            for i in 0..40u64 {
                c.execute(&Op::Put(u64_key(u as u64 * 64 + i), vec![i as u8]))
                    .unwrap_or_else(|e| {
                        panic!("benign faults must not alarm (user {u}, op {i}): {e}")
                    });
            }
            c
        }));
    }
    let clients: Vec<NetClient2> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let shares: Vec<SyncShare> = clients.iter().map(|c| c.sync_share()).collect();
    assert!(clients.iter().any(|c| c.sync_succeeds(&shares)));
    assert!(link.applied().total() > 0, "faults actually fired");
    server.shutdown();
}

//! Tests of how a reader that joins after the writes starts reading: every
//! read takes the serialized wire, the reader anchors at the server's state
//! sample (`NetServer::sample`), taken in order behind the writes, and it
//! keeps verifying across a crash-restart. A sample transitions nothing,
//! waits behind a deposit wait like any request, and is the server's word:
//! a session that joins at a forged one fails its next sync-up.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use common::ShadowReadServer;
use tcvs_core::{HonestServer, Op, ProtocolConfig, ServerApi};
use tcvs_merkle::{u64_key, MerkleTree, OpResult};
use tcvs_net::{NetClient2, NetClientTrusted, NetServer, NetServerOptions};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn honest(cfg: &ProtocolConfig) -> NetServer {
    NetServer::spawn(Box::new(HonestServer::new(cfg)), false)
}

fn writer(user: u32, cfg: ProtocolConfig, server: &NetServer) -> NetClient2 {
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    NetClient2::new(user, &root0, cfg, server)
}

/// A session joined at the server's current sample.
fn join(user: u32, cfg: ProtocolConfig, server: &NetServer) -> NetClient2 {
    let (root, ctr, last_user) = server.sample().expect("the server exposes its state");
    NetClient2::join(user, &root, ctr, last_user, cfg, server)
}

/// How many of `sessions` announce success at a sync-up over all their
/// shares. The run passes iff one does: the user who made the last
/// operation.
fn announced(sessions: &[NetClient2]) -> usize {
    let shares: Vec<_> = sessions.iter().map(NetClient2::sync_share).collect();
    sessions.iter().filter(|c| c.sync_succeeds(&shares)).count()
}

/// A reader bound after 20 acknowledged writes joins at the sample taken
/// behind them and reads every one of them, verified. A write
/// acknowledged after the bind is visible to the reader's next read,
/// because that read is served in order behind it on the same wire.
#[test]
fn a_reader_bound_after_writes_sees_every_acknowledged_one() {
    let cfg = config();
    let server = honest(&cfg);
    let mut writer = writer(0, cfg, &server);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let (_, ctr, _) = server.sample().expect("honest server");
    assert_eq!(
        ctr, 20,
        "the sample is taken behind every acknowledged write"
    );
    let mut reader = join(1, cfg, &server);
    for i in 0..20u64 {
        assert_eq!(
            reader.execute(&Op::Get(u64_key(i))).unwrap(),
            OpResult::Value(Some(vec![i as u8])),
            "acknowledged write {i} is visible to the late reader"
        );
    }
    writer.execute(&Op::Put(u64_key(19), vec![0xee])).unwrap();
    assert_eq!(
        reader.execute(&Op::Get(u64_key(19))).unwrap(),
        OpResult::Value(Some(vec![0xee])),
        "a write after the bind is visible to the next read"
    );
    server.shutdown();
}

/// A reader joined at a sample keeps verifying across a crash-restart of
/// the server: the restored state is what its next reads see, a sample
/// after the restart never moves the counter backwards, and its sync-up
/// still passes.
#[test]
fn a_joined_reader_survives_a_crash_restart() {
    let cfg = config();
    let server = honest(&cfg);
    let mut writer = writer(0, cfg, &server);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let mut reader = join(1, cfg, &server);
    assert_eq!(
        reader.execute(&Op::Get(u64_key(3))).unwrap(),
        OpResult::Value(Some(vec![3u8]))
    );
    let (_, before, _) = server.sample().expect("honest server");
    server.crash_restart().expect("restart");
    match reader.execute(&Op::Get(u64_key(3))).unwrap() {
        OpResult::Value(Some(v)) => assert_eq!(v, vec![3u8]),
        other => panic!("state lost across restart: {other:?}"),
    }
    let (_, after, _) = server.sample().expect("the restarted server is sampled");
    assert!(after >= before, "the counter never regresses");
    assert_eq!(
        announced(std::slice::from_ref(&reader)),
        1,
        "the reader was served the restored honest state"
    );
    server.shutdown();
}

/// A sample requested while a blocking Protocol I server waits for a
/// deposit is served once that wait ends, here by `deposit_timeout`: the
/// sample queues behind the wait like any other request, and reflects the
/// write the wait followed.
#[test]
fn a_sample_during_a_deposit_wait_returns_when_the_wait_ends() {
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
    // waiting.
    let mut c = NetClientTrusted::new(0, &server);
    c.execute(&Op::Put(u64_key(1), vec![1])).unwrap();
    let (_, ctr, _) = server.sample().expect("served after the wait");
    assert_eq!(
        server.missed_deposits(),
        1,
        "served after the wait timed out"
    );
    assert_eq!(ctr, 1, "the write is in it");
    server.shutdown();
}

/// A sample is a serialized request that transitions nothing: samples
/// taken between and beside verifying writers' operations leave the
/// counter and every σ chain as the writers alone would, so their sync-up
/// passes.
#[test]
fn a_sync_up_passes_while_samples_run_beside_verifying_writers() {
    let cfg = config();
    let server = honest(&cfg);
    let stop = AtomicBool::new(false);
    let (sessions, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = 0u64;
            while !stop.load(Ordering::Relaxed) {
                server.sample().expect("honest server");
                samples += 1;
            }
            samples
        });
        let writers: Vec<_> = (0..3u32)
            .map(|u| {
                let server = &server;
                s.spawn(move || {
                    let mut c = writer(u, cfg, server);
                    for i in 0..60u64 {
                        let key = u64_key(u as u64 * 100 + i / 2);
                        let op = if i % 2 == 0 {
                            Op::Put(key, vec![i as u8])
                        } else {
                            Op::Get(key)
                        };
                        c.execute(&op).expect("honest server");
                        if i % 10 == 0 {
                            server.sample().expect("honest server");
                        }
                    }
                    c
                })
            })
            .collect();
        let sessions: Vec<NetClient2> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        (sessions, sampler.join().unwrap())
    });
    assert!(samples > 0, "the sampler ran");
    assert_eq!(
        announced(&sessions),
        1,
        "the last operator announces success"
    );
    let (_, ctr, _) = server.sample().expect("honest server");
    assert_eq!(
        ctr, 180,
        "only the writers' operations advanced the counter"
    );
    server.shutdown();
}

/// Joining at a sample the server forged surfaces at the next sync-up.
/// The server is honest on its serialized wire but samples its state from
/// a forged shadow tree (same counter and last user, another root). Every
/// pair of sessions joining at such a sample works with no per-op alarm,
/// and their sync-up then fails. The same script over an honest server
/// passes.
#[test]
fn joining_at_a_forged_sample_fails_the_next_sync_up() {
    let cfg = config();
    for shadowed in [false, true] {
        let inner: Box<dyn ServerApi + Send> = if shadowed {
            Box::new(ShadowReadServer::new(&cfg))
        } else {
            Box::new(HonestServer::new(&cfg))
        };
        let server = NetServer::spawn(inner, false);
        let mut w = writer(0, cfg, &server);
        for i in 0..24u64 {
            w.execute(&Op::Put(u64_key(i), vec![i as u8]))
                .expect("the serialized path is honest");
        }
        for round in 0..3u8 {
            let mut sessions: Vec<NetClient2> = (1..3).map(|u| join(u, cfg, &server)).collect();
            for (u, session) in sessions.iter_mut().enumerate() {
                for i in 0..24u64 {
                    let op = if i % 2 == 0 {
                        Op::Get(u64_key(i))
                    } else {
                        Op::Put(u64_key(i), vec![round, u as u8])
                    };
                    session.execute(&op).expect("no per-op alarm");
                }
            }
            assert_eq!(
                announced(&sessions),
                usize::from(!shadowed),
                "round {round}"
            );
        }
        server.shutdown();
    }
}

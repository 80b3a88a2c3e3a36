//! Tests of how a reader that joins after the writes starts reading: every
//! read takes the serialized wire, the reader anchors at a grove epoch
//! sampled in order behind the writes, and it keeps verifying across a
//! crash-restart.

use tcvs_core::{Op, ProtocolConfig, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree, OpResult};
use tcvs_net::{NetServerOptions, ShardedClient2, ShardedServer};

const SHARDS: usize = 3;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn root0s(config: &ProtocolConfig) -> Vec<tcvs_core::Digest> {
    vec![MerkleTree::with_order(config.order).root_digest(); SHARDS]
}

fn per_shard_shares(session: &ShardedClient2) -> Vec<Vec<SyncShare>> {
    session.sync_shares().into_iter().map(|s| vec![s]).collect()
}

/// A reader bound after 20 acknowledged writes joins at the grove epoch
/// sampled behind them and reads every one of them, verified. A write
/// acknowledged after the bind is visible to the reader's next read,
/// because that read is served in order behind it on the same wire.
#[test]
fn a_reader_bound_after_writes_sees_every_acknowledged_one() {
    let cfg = config();
    let grove = ShardedServer::spawn(SHARDS, &cfg, NetServerOptions::default());
    let mut writer = ShardedClient2::new(0, &root0s(&cfg), cfg, &grove);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let epoch = grove.grove_epoch().expect("honest grove");
    assert_eq!(
        epoch.shard_ctrs.iter().sum::<u64>(),
        20,
        "the epoch is sampled behind every acknowledged write"
    );
    let mut reader = ShardedClient2::join(1, &epoch, cfg, &grove);
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
    grove.shutdown();
}

/// A reader keeps verifying across a crash-restart of every shard: the
/// restored state is what its next reads see, a sample after the restart
/// never moves a counter backwards, and its sync-up still passes.
#[test]
fn snapshot_readers_survive_a_crash_restart() {
    let cfg = config();
    let grove = ShardedServer::spawn(SHARDS, &cfg, NetServerOptions::default());
    let mut writer = ShardedClient2::new(0, &root0s(&cfg), cfg, &grove);
    for i in 0..20u64 {
        writer.execute(&Op::Put(u64_key(i), vec![i as u8])).unwrap();
    }
    let epoch = grove.grove_epoch().expect("honest grove");
    let mut reader = ShardedClient2::join(1, &epoch, cfg, &grove);
    assert_eq!(
        reader.execute(&Op::Get(u64_key(3))).unwrap(),
        OpResult::Value(Some(vec![3u8]))
    );
    let before = grove.grove_epoch().expect("honest grove");
    grove.crash_restart_all().expect("grove-wide restart");
    match reader.execute(&Op::Get(u64_key(3))).unwrap() {
        OpResult::Value(Some(v)) => assert_eq!(v, vec![3u8]),
        other => panic!("state lost across restart: {other:?}"),
    }
    let after = grove.grove_epoch().expect("restarted shards are sampled");
    for (i, (a, b)) in after.shard_ctrs.iter().zip(&before.shard_ctrs).enumerate() {
        assert!(a >= b, "shard {i}'s counter never regresses");
    }
    assert!(
        reader.sync_succeeds(&per_shard_shares(&reader)),
        "the reader was served the restored honest state"
    );
    grove.shutdown();
}

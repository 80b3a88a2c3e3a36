//! Sharded grove: N shard servers, each verified in its own session.
//!
//! Partitions the keyspace across `--shards N` independent shard servers
//! (each with its own COW Merkle B+-tree and reply journal), names each
//! sampled epoch by the grove root its shard roots fold into, and shows
//! that the single-server guarantees survive the composition: a
//! cross-shard sync-up that passes on an honest grove, a late joiner that
//! enters at a grove epoch and verifies its reads per shard, and a lie
//! confined to one shard that is caught on the very response that carries
//! it — localized to exactly that shard.
//!
//! Run with: `cargo run -p tcvs-bench --release --example sharded_grove -- --shards 8`

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::{Deviation, HonestServer, Op, ProtocolConfig, ServerApi, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetError, NetServerOptions, NetStats, ShardedClient2, ShardedServer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--shards takes a positive integer"))
        .unwrap_or(4);
    assert!(n_shards > 0, "--shards takes a positive integer");
    let config = ProtocolConfig::default();
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let root0s = vec![root0; n_shards];

    println!("== sharded grove: {n_shards} shards, one combined root ==\n");

    // --- An honest grove: routed writes, one root, passing sync-up ------
    let grove = ShardedServer::spawn(n_shards, &config, NetServerOptions::default());
    let mut alice = ShardedClient2::new(0, &root0s, config, &grove);
    let mut bob = ShardedClient2::new(1, &root0s, config, &grove);
    for i in 0..64u64 {
        alice
            .execute(&Op::Put(u64_key(2 * i), vec![1]))
            .expect("alice");
        bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
            .expect("bob");
    }
    let router = grove.router();
    let mut per_shard = vec![0u64; n_shards];
    for i in 0..128u64 {
        per_shard[router.route_key(&u64_key(i))] += 1;
    }
    println!("128 keys routed restart-stably across shards: {per_shard:?}");

    // Cross-shard sync-up: per-shard Protocol II predicates, all shards
    // sampled at one grove epoch.
    let (a, b) = (alice.sync_shares(), bob.sync_shares());
    let shares: Vec<Vec<SyncShare>> = (0..n_shards)
        .map(|s| vec![a[s].clone(), b[s].clone()])
        .collect();
    assert!(alice.sync_succeeds(&shares) && bob.sync_succeeds(&shares));
    println!("cross-shard sync-up: PASS on the honest grove");

    let epoch = grove.grove_epoch().expect("every shard is sampled");
    println!(
        "grove epoch {}: {} shard roots folded into grove root {}",
        epoch.epoch,
        epoch.shard_roots.len(),
        hex_prefix(epoch.grove_root.as_ref()),
    );

    // A late joiner enters at the epoch: every read is verified against
    // its shard's root, and its own sync-up covers what it did since.
    let mut dave = ShardedClient2::join(9, &epoch, config, &grove);
    for i in 0..128u64 {
        dave.execute(&Op::Get(u64_key(i))).expect("verified read");
    }
    let shares: Vec<Vec<SyncShare>> = dave.sync_shares().into_iter().map(|s| vec![s]).collect();
    assert!(dave.sync_succeeds(&shares));
    println!("late joiner: 128 verified reads, sync-up PASS from the epoch\n");
    grove.shutdown();

    // --- The same grove with exactly one lying shard ---------------------
    println!("== now with one deviating shard out of {n_shards} ==\n");
    let bad_shard = n_shards / 2;
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..n_shards)
        .map(|i| -> Box<dyn ServerApi + Send> {
            if i == bad_shard {
                Box::new(LieServer::new(&config, Trigger::AtCtr(3)))
            } else {
                Box::new(HonestServer::new(&config))
            }
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(
        inners,
        NetServerOptions::default(),
        NetStats::disabled(),
    );
    let router = grove.router();
    let mut carol = ShardedClient2::new(0, &root0s, config, &grove);
    for i in 0..1024u64 {
        let op = Op::Put(u64_key(i), vec![3]);
        let shard = router.route_op(&op).expect("keyed op");
        match carol.execute(&op) {
            Ok(_) => {}
            Err(NetError::Deviation(Deviation::BadProof(e))) => {
                println!("op {i} (shard {shard}): DEVIATION CAUGHT: {e}");
                assert_eq!(shard, bad_shard, "localized to the lying shard");
                println!(
                    "the lie was confined to shard {bad_shard}; the other {} shards \
                     served verified answers throughout",
                    n_shards - 1
                );
                grove.shutdown();
                return;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    panic!("the lying shard escaped detection");
}

fn hex_prefix(bytes: &[u8]) -> String {
    bytes.iter().take(6).map(|b| format!("{b:02x}")).collect()
}

//! `audit_smoke` — the end-to-end forensics drill the CI audit-smoke job
//! runs: a seeded 1-of-4-shard fork attack is driven to a failed grove
//! sync-up, the localization evidence bundle is captured (with the second
//! user's transition log grafted in) and written to disk, the cold audit
//! must re-derive the deviation and name the exact shard and counter, the
//! sealed bytes must be identical across two same-seed captures, and a
//! tampered copy (one flipped byte) must be rejected.
//!
//! ```text
//! audit_smoke [path]      # default path: BENCH_evidence.bin
//! ```
//!
//! Writes `<path>` (the authentic bundle) and `<path>.tampered` (the same
//! bytes with one bit flipped) so the job can then run the *actual*
//! `tcvs-audit` binary against both and check its exit codes. Exit 0 iff
//! every in-process assertion held; any failure exits 1 with a message.

use tcvs_core::adversary::{ForkServer, Trigger};
use tcvs_core::{
    audit_bytes, EvidenceBundle, HonestServer, Op, ProtocolConfig, ServerApi, SyncShare,
};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetServerOptions, NetStats, ShardedClient2, ShardedServer};

const SEED: u64 = 0x0DD5EED;

/// A 1-of-4-shard fork driven to a failed sync-up: the localizing client,
/// the second user whose log gets grafted in, and the per-shard shares.
/// Shard 3 is the forked one (the routing of the even/odd key split gives
/// both users a healthy op count there).
struct ForkScenario {
    grove: ShardedServer,
    alice: ShardedClient2,
    bob: ShardedClient2,
    per_shard: Vec<Vec<SyncShare>>,
    /// The shard running the forking server.
    bad_shard: usize,
    /// The counter at which that shard forked.
    fork_at: u64,
}

impl ForkScenario {
    /// Runs the seeded fork attack to the point where sync-up has failed
    /// and localization names exactly one shard.
    fn drive(n_ops: u64) -> ForkScenario {
        const FORK_AT: u64 = 5;
        let cfg = ProtocolConfig {
            order: 8,
            k: 1 << 20,
            epoch_len: 1 << 30,
        };
        let n = 4;
        let bad_shard = 3;
        let inners: Vec<Box<dyn ServerApi + Send>> = (0..n)
            .map(|i| -> Box<dyn ServerApi + Send> {
                if i == bad_shard {
                    Box::new(ForkServer::new(&cfg, Trigger::AtCtr(FORK_AT), &[0]))
                } else {
                    Box::new(HonestServer::new(&cfg))
                }
            })
            .collect();
        let grove = ShardedServer::spawn_with_servers(
            inners,
            NetServerOptions::default(),
            NetStats::disabled(),
        );
        let r0 = vec![MerkleTree::with_order(cfg.order).root_digest(); n];
        let mut alice = ShardedClient2::new(0, &r0, cfg, &grove);
        let mut bob = ShardedClient2::new(1, &r0, cfg, &grove);
        alice.enable_logging();
        bob.enable_logging();
        for i in 0..n_ops {
            alice
                .execute(&Op::Put(u64_key(2 * i), vec![1]))
                .expect("branch A self-consistent");
            bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
                .expect("branch B self-consistent");
        }
        let a = alice.sync_shares();
        let b = bob.sync_shares();
        let per_shard: Vec<Vec<SyncShare>> =
            (0..n).map(|i| vec![a[i].clone(), b[i].clone()]).collect();
        assert!(!alice.sync_succeeds(&per_shard), "the fork fails sync-up");
        ForkScenario {
            grove,
            alice,
            bob,
            per_shard,
            bad_shard,
            fork_at: FORK_AT,
        }
    }

    /// Seals one localization bundle (alice's view plus bob's grafted log
    /// for the deviating shard) — the exact capture the sync-up harness
    /// performs.
    fn seal(&self, seed: u64) -> EvidenceBundle {
        let builder = self
            .alice
            .localization_evidence(seed, &self.per_shard, None)
            .expect("localization fired");
        let bob = self.bob.client(self.bad_shard);
        let bob_log = bob.transition_log().expect("logging enabled");
        builder
            .transition_log(self.bad_shard, bob.user(), bob_log)
            .build()
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("audit-smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_evidence.bin".to_string());

    let scenario = ForkScenario::drive(40);
    let bundle = scenario.seal(SEED);
    let bytes = bundle.to_bytes();
    println!(
        "audit-smoke: sealed localization bundle ({} bytes, {} transition logs)",
        bytes.len(),
        bundle.transition_logs.len()
    );

    // Same capture, same seed → byte-identical artifact.
    if scenario.seal(SEED).to_bytes() != bytes {
        fail("same-seed re-capture is not byte-identical");
    }
    println!("audit-smoke: re-capture is byte-identical");

    // The cold audit must confirm the deviation and name shard + counter.
    let report = audit_bytes(&bytes);
    if !report.accepted {
        fail(&format!(
            "authentic bundle rejected: {:?}",
            report.rejection
        ));
    }
    if !report.confirmed {
        fail("audit did not re-derive the deviation from the bundle");
    }
    if report.deviating_shards != vec![scenario.bad_shard as u32] {
        fail(&format!(
            "expected shard {} deviating, got {:?}",
            scenario.bad_shard, report.deviating_shards
        ));
    }
    let culprit = report
        .culprit
        .as_ref()
        .unwrap_or_else(|| fail("audit named no culprit"));
    if culprit.shard != scenario.bad_shard as u32 || culprit.at_ctr != scenario.fork_at {
        fail(&format!(
            "expected shard {} at ctr {}, got shard {} at ctr {}",
            scenario.bad_shard, scenario.fork_at, culprit.shard, culprit.at_ctr
        ));
    }
    println!(
        "audit-smoke: culprit shard={} ctr={} class={}",
        culprit.shard, culprit.at_ctr, culprit.class
    );

    // One flipped byte anywhere must be rejected; spot-check in-process
    // before handing the file pair to the real verifier binary.
    let mut tampered = bytes.clone();
    let at = tampered.len() / 2;
    tampered[at] ^= 0x01;
    if audit_bytes(&tampered).accepted {
        fail(&format!("tampered bundle (byte {at} flipped) was accepted"));
    }
    println!("audit-smoke: tampered copy rejected (byte {at} flipped)");

    if let Err(e) = std::fs::write(&path, &bytes) {
        fail(&format!("cannot write {path}: {e}"));
    }
    let tampered_path = format!("{path}.tampered");
    if let Err(e) = std::fs::write(&tampered_path, &tampered) {
        fail(&format!("cannot write {tampered_path}: {e}"));
    }
    println!("audit-smoke: wrote {path} and {tampered_path}");
    scenario.grove.shutdown();
    println!("audit-smoke: OK");
}

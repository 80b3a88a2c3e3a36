//! `audit_smoke` — the end-to-end forensics drill the CI audit-smoke job
//! runs: a seeded fork attack on one server is driven to a failed
//! sync-up, the sync-up evidence bundle is captured (with the second
//! user's transition log grafted in) and written to disk, the cold audit
//! must re-derive the deviation and name `fork` at the exact counter, the
//! sealed bytes must be identical across two same-seed captures, and a
//! tampered copy (one flipped byte) must be rejected. Then a lying server's
//! per-op answer is caught by a Protocol II client, and the cold audit
//! must confirm that bundle by failing the client's own check again.
//!
//! ```text
//! audit_smoke [path]      # default path: BENCH_evidence.bin
//! ```
//!
//! Writes `<path>` (the authentic sync-up bundle), `<path>.tampered` (the
//! same bytes with one bit flipped) and `<path>.per-op` (the per-op lie's
//! bundle) so the job can then run the *actual* `tcvs-audit` binary
//! against them and check its verdicts and exit codes. Exit 0 iff every
//! in-process assertion held; any failure exits 1 with a message.

use tcvs_core::adversary::{ForkServer, LieServer, Trigger};
use tcvs_core::{audit_bytes, EvidenceBundle, Op, ProtocolConfig, SyncShare};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient2, NetServer};

const SEED: u64 = 0x0DD5EED;

/// A fork driven to a failed sync-up: the server partitions user 0 onto
/// its own branch at `fork_at`; alice is the capturing client, bob the
/// second user whose log gets grafted in.
struct ForkScenario {
    server: NetServer,
    alice: NetClient2,
    bob: NetClient2,
    shares: Vec<SyncShare>,
    /// The counter at which the server forked.
    fork_at: u64,
}

impl ForkScenario {
    /// Runs the seeded fork attack to the point where sync-up has failed.
    fn drive(n_ops: u64) -> ForkScenario {
        const FORK_AT: u64 = 5;
        let cfg = ProtocolConfig {
            order: 8,
            k: 1 << 20,
            epoch_len: 1 << 30,
        };
        let server = NetServer::spawn(
            Box::new(ForkServer::new(&cfg, Trigger::AtCtr(FORK_AT), &[0])),
            false,
        );
        let r0 = MerkleTree::with_order(cfg.order).root_digest();
        let mut alice = NetClient2::new(0, &r0, cfg, &server);
        let mut bob = NetClient2::new(1, &r0, cfg, &server);
        alice.enable_logging();
        bob.enable_logging();
        alice.set_evidence_seed(SEED);
        for i in 0..n_ops {
            alice
                .execute(&Op::Put(u64_key(2 * i), vec![1]))
                .expect("branch A self-consistent");
            bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
                .expect("branch B self-consistent");
        }
        let shares = vec![alice.sync_share(), bob.sync_share()];
        assert!(!alice.sync_succeeds(&shares), "the fork fails sync-up");
        ForkScenario {
            server,
            alice,
            bob,
            shares,
            fork_at: FORK_AT,
        }
    }

    /// Seals one sync-up bundle (alice's view plus bob's grafted log) —
    /// the exact capture the sync-up harness performs.
    fn seal(&self) -> EvidenceBundle {
        let builder = self
            .alice
            .sync_evidence(&self.shares)
            .expect("the failed sync-up is captured");
        let bob_log = self.bob.transition_log().expect("logging enabled");
        builder.transition_log(self.bob.user(), bob_log).build()
    }
}

/// A lying server's answer caught on the op that carried it: the bundle
/// the Protocol II client sealed over that exchange.
fn per_op_lie() -> EvidenceBundle {
    let cfg = ProtocolConfig {
        order: 8,
        k: 1 << 20,
        epoch_len: 1 << 30,
    };
    let server = NetServer::spawn(Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))), false);
    let r0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut carol = NetClient2::new(0, &r0, cfg, &server);
    carol.set_evidence_seed(SEED);
    let caught = (0..16u64).any(|i| carol.execute(&Op::Put(u64_key(i), vec![3])).is_err());
    server.shutdown();
    if !caught {
        fail("the per-op lie went undetected");
    }
    carol
        .take_evidence()
        .unwrap_or_else(|| fail("the per-op rejection sealed no bundle"))
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
    let bundle = scenario.seal();
    let bytes = bundle.to_bytes();
    println!(
        "audit-smoke: sealed sync-up bundle ({} bytes, {} transition logs)",
        bytes.len(),
        bundle.transition_logs.len()
    );

    // Same capture, same seed → byte-identical artifact.
    if scenario.seal().to_bytes() != bytes {
        fail("same-seed re-capture is not byte-identical");
    }
    println!("audit-smoke: re-capture is byte-identical");

    // The cold audit must confirm the deviation and name the counter.
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
    let culprit = report
        .culprit
        .as_ref()
        .unwrap_or_else(|| fail("audit named no culprit"));
    if culprit.class != "fork" || culprit.at_ctr != scenario.fork_at {
        fail(&format!(
            "expected fork at ctr {}, got {} at ctr {}",
            scenario.fork_at, culprit.class, culprit.at_ctr
        ));
    }
    println!(
        "audit-smoke: culprit ctr={} class={}",
        culprit.at_ctr, culprit.class
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
    scenario.server.shutdown();
    println!("audit-smoke: wrote {path} and {tampered_path}");

    // The per-op lie: the audit re-runs the client's check on the sealed
    // exchange, and the check must fail again with the same verdict.
    let lie = per_op_lie().to_bytes();
    if per_op_lie().to_bytes() != lie {
        fail("same-seed per-op re-capture is not byte-identical");
    }
    let report = audit_bytes(&lie);
    let rerun_failed = report
        .checks
        .iter()
        .any(|c| c.name == "reply-check" && !c.passed);
    let agrees = report
        .checks
        .iter()
        .any(|c| c.name == "verdict-consistent" && c.passed);
    if !report.accepted || !report.confirmed || !rerun_failed || !agrees {
        fail(&format!(
            "per-op bundle not confirmed cold:\n{}",
            report.render_text()
        ));
    }
    let lie_path = format!("{path}.per-op");
    if let Err(e) = std::fs::write(&lie_path, &lie) {
        fail(&format!("cannot write {lie_path}: {e}"));
    }
    println!("audit-smoke: per-op lie confirmed cold; wrote {lie_path}");
    println!("audit-smoke: OK");
}

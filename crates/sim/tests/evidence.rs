//! Evidence capture at the simulator's detection sites: a detected run
//! seals a portable bundle (confirmed cold, byte-stable across same-seed
//! re-runs), the trusted-replay oracle seals its divergence verdict, and
//! honest runs capture nothing.

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::{audit_bytes, EvidenceKind, HonestServer, ProtocolKind};
use tcvs_sim::{run_with_oracle_evidence, simulate_with_evidence, SimSpec};
use tcvs_workload::{generate, WorkloadSpec};

fn workload(seed: u64) -> tcvs_workload::Trace {
    generate(&WorkloadSpec {
        n_users: 3,
        n_ops: 60,
        key_space: 16,
        seed,
        ..WorkloadSpec::default()
    })
}

#[test]
fn detected_run_seals_a_byte_stable_auditable_bundle() {
    let spec = SimSpec::new(ProtocolKind::Two, 3);
    let trace = workload(7);
    let run = |spec: &SimSpec| {
        let mut server = LieServer::new(&spec.config, Trigger::AtCtr(9));
        simulate_with_evidence(spec, &mut server, &trace, Some(9), 64)
    };
    let (report, bundle, _rec) = run(&spec);
    assert!(report.detected(), "the lie must be caught");
    let bundle = bundle.expect("detection seals evidence");
    assert_eq!(bundle.kind, EvidenceKind::ProtocolVerdict);
    assert_eq!(bundle.protocol, "protocol-2");
    assert_eq!(
        bundle.seed,
        u64::from_le_bytes([0xA5; 8]),
        "seed derived from the spec's setup seed"
    );
    assert!(
        !bundle.flight_tail.is_empty(),
        "the flight recorder tail rides along"
    );

    let audit = audit_bytes(&bundle.to_bytes());
    assert!(audit.accepted, "{:?}", audit.rejection);
    assert_eq!(audit.kind.as_deref(), Some("protocol-verdict"));
    assert!(
        audit.confirmed,
        "the client's check fails again on the sealed exchange:\n{}",
        audit.render_text()
    );

    // Same seed, same trace → byte-identical artifact.
    let (_, bundle2, _) = run(&spec);
    assert_eq!(
        bundle.to_bytes(),
        bundle2.expect("detects again").to_bytes()
    );
}

#[test]
fn honest_run_captures_nothing() {
    let spec = SimSpec::new(ProtocolKind::Two, 3);
    let trace = workload(11);
    let mut server = HonestServer::new(&spec.config);
    let (report, bundle, _rec) = simulate_with_evidence(&spec, &mut server, &trace, None, 64);
    assert!(!report.detected());
    assert!(bundle.is_none(), "capture is free on the honest path");
}

#[test]
fn oracle_divergence_seals_a_bundle_naming_the_op_and_user() {
    let spec = SimSpec::new(ProtocolKind::Two, 2);
    let trace = workload(3);
    let mut server = LieServer::new(&spec.config, Trigger::AtCtr(5));
    let (verdict, bundle) = run_with_oracle_evidence(&mut server, &spec.config, &trace, 99);
    assert_eq!(verdict.first_divergence(), Some(5));
    let bundle = bundle.expect("divergence seals evidence");
    assert_eq!(bundle.kind, EvidenceKind::OracleDeviation);
    assert_eq!(bundle.seed, 99);
    assert_eq!(bundle.trigger.ctr, Some(5));
    assert!(bundle.trigger.user.is_some());
    let audit = audit_bytes(&bundle.to_bytes());
    assert!(audit.accepted, "{:?}", audit.rejection);
    assert_eq!(audit.kind.as_deref(), Some("oracle-deviation"));

    let mut honest = HonestServer::new(&spec.config);
    let (v, b) = run_with_oracle_evidence(&mut honest, &spec.config, &trace, 99);
    assert!(!v.deviated());
    assert!(b.is_none());
}

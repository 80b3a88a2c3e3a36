//! Integration: the CVS layer against a plain-repository oracle, and
//! against adversarial servers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcvs_core::adversary::{DropServer, LieServer, RollbackServer, Trigger};
use tcvs_core::{HonestServer, ProtocolConfig};
use tcvs_cvs::{Cvs, CvsError, DirectSession};
use tcvs_store::{from_lines, to_lines, Repository};

/// A compact config suitable for fast end-to-end runs.
fn small_config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 8,
        epoch_len: 16,
    }
}

/// Drives the same randomized commit history through the plain repository
/// and the verified CVS stack; every revision of every file must agree.
#[test]
fn verified_cvs_agrees_with_plain_repository_oracle() {
    let config = small_config();
    let mut oracle = Repository::new();
    let mut session = DirectSession::new(0, HonestServer::new(&config), config);
    let mut cvs = Cvs::new(&mut session, "user");

    let files = 6usize;
    let mut rng = StdRng::seed_from_u64(2024);

    for i in 0..files {
        let body = format!("file {i}\nline a\nline b\n");
        oracle
            .commit(
                "user",
                "import",
                0,
                vec![(format!("f{i}"), to_lines(&body))],
            )
            .unwrap();
        cvs.add(&format!("f{i}"), &body, "import", 0).unwrap();
    }

    for step in 0..60u64 {
        let fidx = rng.gen_range(0..files);
        let path = format!("f{fidx}");
        // Oracle side.
        let mut lines = oracle.checkout(&path).unwrap().to_vec();
        match rng.gen_range(0..3) {
            0 => lines.push(format!("appended at step {step}")),
            1 => {
                let li = rng.gen_range(0..lines.len());
                lines[li] = format!("rewritten at step {step}");
            }
            _ => {
                if lines.len() > 1 {
                    let li = rng.gen_range(0..lines.len());
                    lines.remove(li);
                }
            }
        }
        oracle
            .commit(
                "user",
                &format!("step {step}"),
                step,
                vec![(path.clone(), lines.clone())],
            )
            .unwrap();
        // CVS side: mirror the same content.
        let mut wf = cvs.checkout(&path).unwrap();
        wf.lines = lines;
        cvs.commit(&wf, &format!("step {step}"), step).unwrap();
    }

    // Compare every revision of every file.
    for i in 0..files {
        let path = format!("f{i}");
        let head = oracle.history(&path).unwrap().head_rev();
        assert_eq!(cvs.checkout(&path).unwrap().base_rev, head, "{path} head");
        for rev in 1..=head {
            let want = oracle.checkout_at(&path, rev).unwrap();
            let got = cvs.checkout_rev(&path, rev).unwrap().lines;
            assert_eq!(got, want, "{path} r{rev}");
        }
        // Logs agree on author/message sequence.
        let oracle_log: Vec<String> = oracle
            .history(&path)
            .unwrap()
            .log()
            .map(|(_, m)| m.message.clone())
            .collect();
        let cvs_log: Vec<String> = cvs
            .log(&path)
            .unwrap()
            .into_iter()
            .map(|(_, m)| m.message)
            .collect();
        assert_eq!(cvs_log, oracle_log, "{path} log");
    }
}

#[test]
fn lying_server_stops_the_session() {
    let config = small_config();
    let server = LieServer::new(&config, Trigger::AtCtr(4));
    let mut session = DirectSession::new(0, server, config);
    let mut cvs = Cvs::new(&mut session, "alice");
    cvs.add("f", "content\n", "import", 0).unwrap();
    let mut saw_deviation = false;
    for i in 0..10 {
        match cvs.checkout("f") {
            Ok(_) => {}
            Err(CvsError::Deviation(_)) => {
                saw_deviation = true;
                break;
            }
            Err(e) => panic!("unexpected at step {i}: {e}"),
        }
    }
    assert!(saw_deviation);
}

#[test]
fn rollback_detected_via_counter_regression() {
    let config = small_config();
    // Rollback with tiny lag so the same (single) user notices.
    let server = RollbackServer::with_lag(&config, Trigger::AtCtr(3), 2);
    let mut session = DirectSession::new(0, server, config);
    let mut cvs = Cvs::new(&mut session, "alice");
    cvs.add("f", "v1\n", "import", 0).unwrap();
    let mut outcome = None;
    for i in 0..12u64 {
        let mut wf = match cvs.checkout("f") {
            Ok(wf) => wf,
            Err(e) => {
                outcome = Some(e);
                break;
            }
        };
        wf.lines.push(format!("edit {i}"));
        if let Err(e) = cvs.commit(&wf, "edit", i) {
            outcome = Some(e);
            break;
        }
    }
    match outcome {
        Some(CvsError::Deviation(d)) => {
            assert!(matches!(
                d,
                tcvs_core::Deviation::CounterRegression { .. } | tcvs_core::Deviation::BadProof(_)
            ));
        }
        other => panic!("rollback must surface as deviation, got {other:?}"),
    }
}

#[test]
fn dropped_commit_surfaces_at_the_next_operation() {
    let config = small_config();
    let server = DropServer::new(&config, Trigger::AtCtr(2));
    let mut session = DirectSession::new(0, server, config);
    let mut cvs = Cvs::new(&mut session, "alice");
    cvs.add("f", "v1\n", "import", 0).unwrap();
    let mut wf = cvs.checkout("f").unwrap();
    wf.lines.push("my precious change".to_string());
    // The drop server acknowledges this commit but never applies it. At
    // this instant the lone user's view is still a consistent chain — the
    // paper's detection bound is about *subsequent* operations.
    cvs.commit(&wf, "dropped", 1).unwrap();
    // The very next operation exposes the drop: the server's counter (and
    // root) regressed relative to what this user verified.
    match cvs.checkout("f") {
        Err(CvsError::Deviation(d)) => {
            assert!(matches!(
                d,
                tcvs_core::Deviation::CounterRegression { .. } | tcvs_core::Deviation::BadProof(_)
            ));
        }
        other => panic!("drop must surface at the next op, got {other:?}"),
    }
}

#[test]
fn render_round_trip_through_cvs() {
    let config = small_config();
    let mut session = DirectSession::new(0, HonestServer::new(&config), config);
    let mut cvs = Cvs::new(&mut session, "alice");
    let body = "alpha\nbeta\ngamma\n";
    cvs.add("f", body, "import", 0).unwrap();
    let wf = cvs.checkout("f").unwrap();
    assert_eq!(from_lines(&wf.lines), body);
}

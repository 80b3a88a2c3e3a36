//! The benchmark against its own contract: `BENCHMARK.json` lists exactly
//! what the catalogue and the workload set define, and a `--quick` run of
//! the whole set reports every listed metric for every workload.

use std::path::Path;
use std::process::Command;

use tcvs_benchmark::catalogue::{END_TO_END, PER_LAYER};
use tcvs_benchmark::json::{self, Json};
use tcvs_benchmark::workloads;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

#[test]
fn benchmark_json_lists_what_the_code_defines() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = doc.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths, [Json::Str("benchmark".into())]);

    let listed = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), workloads::ALL.len());
    for (l, w) in listed.iter().zip(workloads::ALL) {
        assert_eq!(str_field(l, "name"), w.name);
        assert_eq!(str_field(l, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (l, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_field(l, "name"), m.name);
        assert_eq!(str_field(l, "unit"), m.unit);
        assert_eq!(str_field(l, "better"), m.better.as_str());
        assert_eq!(l.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let layers = doc.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (l, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(str_field(l, "name"), m.name);
        assert_eq!(str_field(l, "unit"), m.unit);
        assert_eq!(str_field(l, "better"), m.better.as_str());
    }
}

#[test]
fn quick_run_reports_every_listed_metric_for_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_tcvs-benchmark"))
        .args(["run", "--quick", "--seed", "7"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Every metric is printed by name, with its unit.
    for m in &END_TO_END {
        assert!(stdout.contains(m.name), "{} not printed", m.name);
    }

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json");
    let doc = json::parse(&std::fs::read_to_string(results).unwrap()).expect("results parse");
    assert_eq!(str_field(&doc, "schema"), "tcvs-benchmark-results/v1");
    let runs = doc.get("runs").unwrap().as_array().unwrap();
    assert_eq!(runs.len(), workloads::ALL.len());
    for (run, w) in runs.iter().zip(workloads::ALL) {
        assert_eq!(str_field(run, "workload"), w.name);
        assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        let e2e = run.get("end_to_end").unwrap();
        for m in &END_TO_END {
            let v = e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{}: {} missing", w.name, m.name));
            let value = v.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(|x| x > 0.0),
                "{}: {} is {value:?}; end-to-end metrics are never 0",
                w.name,
                m.name
            );
            assert_eq!(str_field(v, "unit"), m.unit);
        }
        let layers = run.get("per_layer").unwrap();
        for m in &PER_LAYER {
            assert!(
                layers.get(m.name).is_some(),
                "{}: {} missing",
                w.name,
                m.name
            );
        }
        // A layer that is idle on a workload is absent there, not zero.
        let absent = |name: &str| layers.get(name).unwrap().get("value") == Some(&Json::Null);
        assert_eq!(absent("storage.commit_us"), !w.is_cvs(), "{}", w.name);
        assert_eq!(
            absent("crypto.mss_sign_us"),
            w.name != "p1-signed",
            "{}",
            w.name
        );
        assert!(!absent("trace.overhead_frac") && !absent("trace.unattributed_frac"));
    }
}

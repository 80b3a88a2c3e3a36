//! `expgen` — regenerates every experiment table of `EXPERIMENTS.md`.
//!
//! ```text
//! expgen                    # run all experiments, full parameters
//! expgen --quick            # reduced parameters
//! expgen e3 e5              # run selected experiments
//! expgen --validate f       # validate an exported artifact and exit
//! expgen trace              # export a seeded fork-attack run: Perfetto
//!                           # JSON (BENCH_trace.json) + OpenMetrics
//!                           # (BENCH_metrics.prom)
//! ```
//!
//! `--validate` dispatches on artifact shape: Chrome-trace/Perfetto JSON or
//! OpenMetrics text exposition.
//!
//! Run with `--release` — the numbers are meaningless in debug builds.

use std::time::Instant;

use tcvs_bench::experiments::{e12, run_by_id, ALL};
use tcvs_bench::results::validate_artifact;

/// `expgen --validate <file>`: check an emitted artifact (Perfetto trace or
/// OpenMetrics exposition). Exit 0 on success, 2 on any failure — this is
/// what the CI trace-smoke job runs on the artifacts it uploads.
fn validate_file(path: &str) -> ! {
    let content = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = validate_artifact(&content) {
        eprintln!("{path}: INVALID: {e}");
        std::process::exit(2);
    }
    println!("{path}: valid");
    std::process::exit(0);
}

/// `expgen trace`: runs the seeded E12 fork-attack simulation once and
/// writes its two exporter artifacts, self-validating each before writing
/// (exit 3 on an internally-invalid artifact).
fn emit_trace_artifacts(quick: bool) {
    let (trace_json, openmetrics, dump, _) = e12::artifacts(quick);
    for (path, content) in [
        ("BENCH_trace.json", &trace_json),
        ("BENCH_metrics.prom", &openmetrics),
    ] {
        if let Err(e) = validate_artifact(content) {
            eprintln!("internal error: generated {path} is invalid: {e}");
            std::process::exit(3);
        }
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(3);
        }
        println!("wrote {path}");
    }
    if let Some(dump) = dump {
        println!("\nflight-recorder dump (detection fired):\n{dump}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        match args.get(i + 1) {
            Some(path) => validate_file(path),
            None => {
                eprintln!("--validate requires a file argument");
                std::process::exit(2);
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    let run_trace = ids.iter().any(|i| i == "trace");
    let ids: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|i| *i != "trace")
        .collect();
    if run_trace {
        emit_trace_artifacts(quick);
        if ids.is_empty() {
            return;
        }
    }
    let ids = if ids.is_empty() { ALL.to_vec() } else { ids };

    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — timings will be wildly off; use --release");
    }

    println!(
        "trusted-cvs experiment generator ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let mut failed = false;
    for id in ids {
        let start = Instant::now();
        match run_by_id(id, quick) {
            Some(tables) => {
                for t in &tables {
                    println!("{}", t.render());
                }
                println!(
                    "[{} completed in {:.1}s]\n",
                    id,
                    start.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!(
                    "unknown experiment id: {id} (known: {}, trace)",
                    ALL.join(", ")
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(2);
    }
}

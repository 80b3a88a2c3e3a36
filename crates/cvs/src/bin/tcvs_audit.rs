//! `tcvs-audit` — the independent cold verifier for evidence bundles.
//!
//! ```text
//! $ tcvs-audit incident.evb
//! $ tcvs-audit --json incident.evb > report.json
//! ```
//!
//! Loads a captured [`tcvs_core::EvidenceBundle`] from disk with **no live
//! server** and re-derives the verdict from the artifact alone: the
//! detecting client's own reply check is re-run on the sealed exchange
//! (Protocol II; Protocol I and III exchanges are reported "not re-run"),
//! every signature and the sync-up predicate are re-verified, and the
//! embedded transition logs are re-diagnosed to name which counter and
//! users first deviated. A tampered artifact — any single flipped byte — is
//! rejected at the exact offending field and proves nothing; so is a
//! version-1 bundle (`unsupported bundle version 1`).
//!
//! Exit status: `0` when the artifact is authentic (whatever the verdict),
//! `1` when any artifact is rejected as forged/tampered, `2` on usage or
//! I/O errors.

use std::process::ExitCode;

use tcvs_core::audit_bytes;

const USAGE: &str = "usage: tcvs-audit [--json] <bundle-file>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() || args.iter().any(|a| a.starts_with("--") && a != "--json") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut any_rejected = false;
    for path in files {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("tcvs-audit: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = audit_bytes(&bytes);
        if json {
            println!("{}", report.render_json());
        } else {
            print!("== {path} ==\n{}", report.render_text());
        }
        any_rejected |= !report.accepted;
    }
    if any_rejected {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

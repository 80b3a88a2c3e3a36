//! Cold, independent re-verification of an [`EvidenceBundle`].
//!
//! The paper's detection guarantee ends with a client *knowing* the server
//! deviated; convincing a third party (the other users, an operator, the
//! paper's "external mechanism") requires that the third party re-derive
//! the verdict from the bundle alone, without talking to the accused
//! server. [`audit`] has no verifier of its own: it re-runs the detecting
//! client's own reply check on the sealed [`Exchange`] (Protocol II's
//! counter rule and proof replay, the functions `Client2` itself calls),
//! re-runs the broadcast sync-up predicate on the shares, re-verifies
//! every embedded signature against the embedded keys, and re-runs
//! [`crate::forensics::diagnose`] over the opt-in transition logs to name
//! the first bad counter — then cross-checks the verdict it re-derived
//! against the one the reporter claimed.
//!
//! No reply is server-signed, so a per-op bundle is the reporter's record
//! of the exchange: a confirmation convinces those who trust the reporter
//! not to have forged the reply, which is the paper's model of mutually
//! trusting users. Protocol I and III exchanges are not re-run yet (the
//! first needs the signers' public keys in the bundle, the second replays
//! after its epoch state moved); the report says so, and such a bundle is
//! not confirmed by its exchange.
//!
//! Tampered or forged artifacts never reach the re-derivation: the framing
//! layer ([`EvidenceBundle::from_bytes`]) rejects them at the exact
//! offending field, and [`audit_bytes`] surfaces that as a rejected
//! [`AuditReport`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcvs_crypto::{mss_verify, Digest, MssPublicKey, MssSignature, UserId};
use tcvs_obs::json_escape;

use crate::client1::Client1;
use crate::client2::{check_reply, check_window, Client2};
use crate::evidence::{deviation_label, EvidenceBundle, EvidenceError};
use crate::forensics::{diagnose, TransitionLog, Verdict};
use crate::msg::{SignedCheckpoint, SignedEpochState};
use crate::protocol::{Exchange, Protocol};
use crate::state::signed_payload;
use crate::sync::{protocol1_sync_ok, protocol2_sync_ok};
use crate::types::Ctr;

/// One named re-verification step. `passed` means the *honest-server
/// property* the step checks held on the embedded materials — so a failed
/// check inside an authentic bundle is confirmation of deviation, not a
/// defect in the bundle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditCheck {
    /// Stable step name (e.g. `"deposit-signatures"`).
    pub name: &'static str,
    /// Whether the honesty property held.
    pub passed: bool,
    /// Human-readable explanation of the outcome.
    pub detail: String,
}

impl AuditCheck {
    fn new(name: &'static str, passed: bool, detail: String) -> AuditCheck {
        AuditCheck {
            name,
            passed,
            detail,
        }
    }
}

/// The first deviation the audit could localize from transition logs: the
/// counter and the users on the wrong side of history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Culprit {
    /// Counter at which history first went bad.
    pub at_ctr: Ctr,
    /// Users involved (both fork sides, or the orphan's victim).
    pub users: Vec<UserId>,
    /// Anomaly class: `"fork"` or `"orphan-state"`.
    pub class: &'static str,
    /// The offending state token (forked or fabricated).
    pub token: Digest,
}

/// The machine-readable outcome of a cold audit.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// True iff the artifact was authentic and well-formed (magic,
    /// integrity digest, every field decoded). A rejected bundle proves
    /// nothing about the server.
    pub accepted: bool,
    /// Why the artifact was rejected, when `accepted` is false.
    pub rejection: Option<String>,
    /// The bundle's detection-site label, once decoded.
    pub kind: Option<String>,
    /// The bundle's seed (0 when rejected before decoding).
    pub seed: u64,
    /// The detecting client's protocol label.
    pub protocol: String,
    /// The re-verification steps, in execution order.
    pub checks: Vec<AuditCheck>,
    /// The transition-log verdict, when the bundle carries logs.
    pub log_verdict: Option<String>,
    /// The first localized deviation, when transition logs pin one down.
    pub culprit: Option<Culprit>,
    /// True iff the audit independently confirmed a deviation: the
    /// client's check failed again on the cold bytes, the sync-up
    /// predicate failed, a signature failed, or the logs name a culprit.
    pub confirmed: bool,
}

impl AuditReport {
    fn rejected(err: &EvidenceError) -> AuditReport {
        AuditReport {
            accepted: false,
            rejection: Some(err.to_string()),
            kind: None,
            seed: 0,
            protocol: String::new(),
            checks: Vec::new(),
            log_verdict: None,
            culprit: None,
            confirmed: false,
        }
    }

    /// Renders the report for a human operator.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.accepted {
            let why = self.rejection.as_deref().unwrap_or("unknown");
            let _ = writeln!(out, "REJECTED: {why}");
            let _ = writeln!(
                out,
                "the artifact is not authentic evidence; it proves nothing about the server"
            );
            return out;
        }
        let kind = self.kind.as_deref().unwrap_or("?");
        let _ = writeln!(
            out,
            "evidence bundle: {kind} (protocol {}, seed {})",
            self.protocol, self.seed
        );
        for c in &self.checks {
            let mark = if c.passed { "  ok " } else { "FAIL " };
            let _ = writeln!(out, "  [{mark}] {} — {}", c.name, c.detail);
        }
        if let Some(summary) = &self.log_verdict {
            let _ = writeln!(out, "  logs: {summary}");
        }
        if let Some(c) = &self.culprit {
            let _ = writeln!(
                out,
                "  culprit: {} at ctr {} involving users {:?} (state {})",
                c.class,
                c.at_ctr,
                c.users,
                c.token.short()
            );
        }
        if self.confirmed {
            let _ = writeln!(out, "verdict: DEVIATION CONFIRMED");
        } else {
            let _ = writeln!(out, "verdict: no deviation re-derivable from this bundle");
        }
        out
    }

    /// Renders the report as a stable JSON document (hand-rolled, like the
    /// bench results writer — no serde in the workspace).
    pub fn render_json(&self) -> String {
        let string =
            |s: Option<&str>| s.map_or("null".into(), |s| format!("\"{}\"", json_escape(s)));
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"tcvs-audit-report/v2\",");
        let _ = writeln!(out, "  \"accepted\": {},", self.accepted);
        let _ = writeln!(
            out,
            "  \"rejection\": {},",
            string(self.rejection.as_deref())
        );
        let _ = writeln!(out, "  \"kind\": {},", string(self.kind.as_deref()));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"protocol\": {},", string(Some(&self.protocol)));
        out.push_str("  \"checks\": [\n");
        for (i, c) in self.checks.iter().enumerate() {
            let comma = if i + 1 == self.checks.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}{comma}",
                c.name,
                c.passed,
                json_escape(&c.detail)
            );
        }
        out.push_str("  ],\n");
        let culprit = self.culprit.as_ref().map_or("null".into(), |c| {
            let users: Vec<String> = c.users.iter().map(u32::to_string).collect();
            format!(
                "{{\"at_ctr\": {}, \"class\": \"{}\", \"users\": [{}], \"token\": \"{}\"}}",
                c.at_ctr,
                c.class,
                users.join(", "),
                c.token
            )
        });
        let _ = writeln!(out, "  \"culprit\": {culprit},");
        let _ = writeln!(out, "  \"confirmed\": {}", self.confirmed);
        out.push_str("}\n");
        out
    }
}

/// Decodes and audits raw bundle bytes. Framing-level tampering (bad
/// magic, digest mismatch, malformed field) yields a rejected report
/// naming the offending layer; an authentic bundle proceeds to [`audit`].
pub fn audit_bytes(bytes: &[u8]) -> AuditReport {
    match EvidenceBundle::from_bytes(bytes) {
        Ok(bundle) => audit(&bundle),
        Err(err) => AuditReport::rejected(&err),
    }
}

/// Re-derives the deviation verdict from an (already authenticated)
/// bundle's embedded materials. See the module docs for the steps.
pub fn audit(bundle: &EvidenceBundle) -> AuditReport {
    let keys: BTreeMap<UserId, MssPublicKey> = bundle.keys.iter().copied().collect();
    let mut checks = vec![check_signatures(
        "deposit-signatures",
        &bundle.signed_states,
        &keys,
        |s| {
            let who = format!("signer {} ctr {}", s.signer, s.ctr);
            (s.signer, signed_payload(&s.root, s.ctr), &s.sig, who)
        },
    )];
    if !bundle.epoch_states.is_empty() {
        checks.push(check_signatures(
            "epoch-signatures",
            &bundle.epoch_states,
            &keys,
            |s| {
                let payload =
                    SignedEpochState::payload(s.user, s.epoch, &s.sigma, s.last.as_ref(), s.ops);
                (
                    s.user,
                    payload,
                    &s.sig,
                    format!("user {} epoch {}", s.user, s.epoch),
                )
            },
        ));
    }
    if !bundle.checkpoints.is_empty() {
        checks.push(check_signatures(
            "checkpoint-signatures",
            &bundle.checkpoints,
            &keys,
            |c| {
                let payload = SignedCheckpoint::payload(c.epoch, c.checker, &c.final_token);
                let who = format!("checker {} epoch {}", c.checker, c.epoch);
                (c.checker, payload, &c.sig, who)
            },
        ));
    }

    let rederived = match &bundle.exchange {
        Some(exchange) => check_exchange(bundle, exchange, &mut checks),
        None => check_sync(bundle, &mut checks),
    };
    if let Some(label) = rederived {
        let claimed = &bundle.trigger.deviation;
        checks.push(AuditCheck::new(
            "verdict-consistent",
            claimed == label,
            format!("reporter claimed {claimed}, audit re-derived {label}"),
        ));
    }

    let (log_verdict, culprit) = run_diagnosis(bundle);
    let honesty_failed = checks
        .iter()
        .any(|c| !c.passed && c.name != "verdict-consistent");

    AuditReport {
        accepted: true,
        rejection: None,
        kind: Some(bundle.kind.label().to_string()),
        seed: bundle.seed,
        protocol: bundle.protocol.clone(),
        checks,
        log_verdict,
        confirmed: honesty_failed || culprit.is_some(),
        culprit,
    }
}

/// Verifies every signed item against the embedded keys; `signed` names an
/// item's signer, signed digest, signature and description.
fn check_signatures<'a, T>(
    name: &'static str,
    items: &'a [T],
    keys: &BTreeMap<UserId, MssPublicKey>,
    signed: impl Fn(&'a T) -> (UserId, Digest, &'a MssSignature, String),
) -> AuditCheck {
    let mut bad: Vec<String> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let (signer, payload, sig, who) = signed(item);
        match keys.get(&signer) {
            None => bad.push(format!("[{i}] {who}: signer has no key")),
            Some(pk) if !mss_verify(pk, &payload, sig) => bad.push(format!("[{i}] {who} invalid")),
            Some(_) => {}
        }
    }
    let total = items.len();
    let detail = if bad.is_empty() {
        format!("{total}/{total} signatures verify")
    } else {
        format!("{}/{total} invalid: {}", bad.len(), bad.join("; "))
    };
    AuditCheck::new(name, bad.is_empty(), detail)
}

/// Re-runs the detecting client's reply check on the sealed exchange and
/// returns the verdict label it re-derives (`"none"` when the reply
/// passes), or `None` when this protocol's check is not re-run yet.
fn check_exchange(
    bundle: &EvidenceBundle,
    exchange: &Exchange,
    checks: &mut Vec<AuditCheck>,
) -> Option<&'static str> {
    if bundle.protocol != Client2::LABEL {
        let detail = format!(
            "not re-run: {} exchanges are not re-checked yet",
            bundle.protocol
        );
        checks.push(AuditCheck::new("reply-check", true, detail));
        return None;
    }
    let out = match exchange {
        Exchange::Op { anchor, op, reply } => check_reply(*anchor, op, reply).map(drop),
        Exchange::Window { anchor, ops, reply } => check_window(*anchor, ops, reply).map(drop),
    };
    let detail = match &out {
        Ok(()) => "the reply passes the client's check".to_string(),
        Err(d) => format!("the client's check fails: {d}"),
    };
    checks.push(AuditCheck::new("reply-check", out.is_ok(), detail));
    Some(out.err().map_or("none", |d| deviation_label(&d)))
}

/// Re-runs the broadcast sync-up predicate of the bundle's protocol on its
/// shares and returns the verdict label it re-derives, or `None` when the
/// bundle holds nothing the predicate can run on.
fn check_sync(bundle: &EvidenceBundle, checks: &mut Vec<AuditCheck>) -> Option<&'static str> {
    if bundle.shares.is_empty() {
        return None;
    }
    let passes = match &bundle.initial {
        _ if bundle.protocol == Client1::LABEL => protocol1_sync_ok(&bundle.shares),
        Some(initial) if bundle.protocol == Client2::LABEL => {
            protocol2_sync_ok(initial, &bundle.shares)
        }
        _ => return None,
    };
    let (holds, label) = if passes {
        ("holds", "none")
    } else {
        ("fails", "sync-failed")
    };
    let detail = format!("{holds} on {} shares", bundle.shares.len());
    checks.push(AuditCheck::new("sync-predicate", passes, detail));
    Some(label)
}

/// Runs `diagnose` over the opt-in transition logs; a fork or an orphan
/// state becomes the culprit.
fn run_diagnosis(bundle: &EvidenceBundle) -> (Option<String>, Option<Culprit>) {
    if bundle.transition_logs.is_empty() {
        return (None, None);
    }
    let Some(initial) = &bundle.initial else {
        return (Some("no initial token to diagnose from".into()), None);
    };
    let logs: Vec<TransitionLog> = bundle
        .transition_logs
        .iter()
        .map(|(_, l)| l.clone())
        .collect();
    let (summary, culprit) = match diagnose(&logs, initial) {
        Verdict::CleanPath { length, .. } => (format!("clean path of {length} transitions"), None),
        Verdict::Fork {
            at_ctr,
            forked_state,
            users,
        } => (
            format!(
                "FORK at ctr {at_ctr}: state {} served twice, users {users:?}",
                forked_state.short()
            ),
            Some(Culprit {
                at_ctr,
                users,
                class: "fork",
                token: forked_state,
            }),
        ),
        Verdict::OrphanState {
            at_ctr,
            victim,
            token,
        } => (
            format!(
                "ORPHAN at ctr {at_ctr}: user {victim} consumed fabricated state {}",
                token.short()
            ),
            Some(Culprit {
                at_ctr,
                users: vec![victim],
                class: "orphan-state",
                token,
            }),
        ),
        Verdict::Empty => ("no transitions logged".to_string(), None),
    };
    (Some(summary), culprit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::{setup_users, sha256};
    use tcvs_merkle::{u64_key, Op};
    use tcvs_obs::MetricsRegistry;

    use crate::evidence::{EvidenceBuilder, EvidenceKind};
    use crate::forensics::LoggedTransition;
    use crate::msg::{SignedState, SyncShare};
    use crate::protocol::Anchor;
    use crate::server::{HonestServer, ServerApi};
    use crate::state::{signed_payload, state_token};
    use crate::types::{Deviation, ProtocolConfig};

    fn passed(report: &AuditReport, name: &str) -> Option<bool> {
        report
            .checks
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.passed)
    }

    /// An incident where the server equivocated: shares that XOR to
    /// garbage, plus transition logs that contain a fork at ctr 3.
    fn forked_bundle() -> EvidenceBundle {
        let (mut rings, registry) = setup_users([9; 32], 3, 4);
        let initial = sha256(b"init");

        // The server equivocated — the XOR of the shares can't close.
        let shares = vec![
            SyncShare {
                user: 0,
                lctr: 1,
                gctr: 1,
                sigma: sha256(b"lie-a"),
                last: Some(sha256(b"lie-a-last")),
            },
            SyncShare {
                user: 2,
                lctr: 1,
                gctr: 1,
                sigma: sha256(b"lie-b"),
                last: Some(sha256(b"lie-b-last")),
            },
        ];

        // Both users were shown histories that consume the same parent
        // state — a fork at ctr 3.
        let forked = sha256(b"forked-parent");
        let mut log_a = TransitionLog::new();
        log_a.record(LoggedTransition {
            old_token: initial,
            new_token: forked,
            ctr: 2,
            user: 0,
        });
        log_a.record(LoggedTransition {
            old_token: forked,
            new_token: sha256(b"side-a"),
            ctr: 3,
            user: 0,
        });
        let mut log_b = TransitionLog::new();
        log_b.record(LoggedTransition {
            old_token: forked,
            new_token: sha256(b"side-b"),
            ctr: 3,
            user: 2,
        });

        // A valid deposit rides along (evidence of what *was* signed).
        let root = sha256(b"deposit-root");
        let payload = signed_payload(&root, 7);
        let sig = rings[0].sign(&payload).unwrap();

        let metrics = MetricsRegistry::new();
        metrics.counter("sync.rounds").add(2);

        EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 99, "protocol-2")
            .captured_at(12)
            .description("seeded fork")
            .deviation(&Deviation::SyncFailed)
            .initial(initial)
            .shares(shares)
            .signed_state(SignedState {
                signer: 0,
                root,
                ctr: 7,
                sig,
            })
            .keys_from(&registry)
            .transition_log(2, &log_b)
            .transition_log(0, &log_a)
            .metrics(&metrics.snapshot())
            .build()
    }

    #[test]
    fn confirms_fork_and_names_the_counter() {
        let report = audit(&forked_bundle());
        assert!(report.accepted);
        assert!(report.confirmed, "deviation must be re-derived");
        assert_eq!(passed(&report, "sync-predicate"), Some(false));
        // Reporter and audit agree on the verdict.
        assert_eq!(passed(&report, "verdict-consistent"), Some(true));
        // The honest materials still verify.
        assert_eq!(passed(&report, "deposit-signatures"), Some(true));
        let culprit = report.culprit.clone().expect("the logs pin the culprit");
        assert_eq!(culprit.at_ctr, 3);
        assert_eq!(culprit.class, "fork");
        assert_eq!(culprit.users, vec![0, 2]);
        let text = report.render_text();
        assert!(text.contains("DEVIATION CONFIRMED"), "{text}");
        assert!(text.contains("culprit: fork at ctr 3"), "{text}");
        let json = report.render_json();
        assert!(json.contains("tcvs-audit-report/v2"), "{json}");
        assert!(json.contains("\"confirmed\": true"), "{json}");
        assert!(json.contains("\"at_ctr\": 3"), "{json}");
    }

    #[test]
    fn audit_bytes_round_trip_matches_in_memory_audit() {
        let bundle = forked_bundle();
        let cold = audit_bytes(&bundle.to_bytes());
        assert!(cold.accepted);
        assert!(cold.confirmed);
        assert_eq!(cold.checks, audit(&bundle).checks);
    }

    #[test]
    fn every_byte_flip_is_rejected_by_audit() {
        let bytes = forked_bundle().to_bytes();
        // Exhaustive over a prefix + stride over the rest keeps the test
        // fast while still crossing every section of the payload.
        let positions = (0..bytes.len()).filter(|i| *i < 64 || i % 7 == 0);
        for i in positions {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let report = audit_bytes(&bad);
            assert!(!report.accepted, "flip at byte {i} accepted");
            assert!(!report.confirmed, "rejected artifact must confirm nothing");
            assert!(report.rejection.is_some());
        }
    }

    #[test]
    fn tampered_deposit_signature_fails_that_check() {
        let mut bundle = forked_bundle();
        bundle.signed_states[0].ctr += 1; // payload no longer matches sig
        let report = audit(&bundle);
        assert_eq!(passed(&report, "deposit-signatures"), Some(false));
        assert!(report.confirmed);
    }

    #[test]
    fn honest_bundle_confirms_nothing() {
        let (_, registry) = setup_users([3; 32], 2, 3);
        let initial = sha256(b"init");
        let t1 = state_token(&sha256(b"r1"), 1, 0);
        let shares = vec![
            SyncShare {
                user: 0,
                lctr: 1,
                gctr: 1,
                sigma: initial ^ t1,
                last: Some(t1),
            },
            SyncShare {
                user: 1,
                lctr: 0,
                gctr: 1,
                sigma: Digest::ZERO,
                last: None,
            },
        ];
        let bundle = EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 5, "protocol-2")
            .description("false alarm probe")
            .deviation(&Deviation::SyncFailed)
            .initial(initial)
            .shares(shares)
            .keys_from(&registry)
            .build();
        let report = audit(&bundle);
        assert!(report.accepted);
        assert!(!report.confirmed, "{}", report.render_text());
        assert_eq!(passed(&report, "sync-predicate"), Some(true));
        assert_eq!(passed(&report, "verdict-consistent"), Some(false));
        assert!(report.render_text().contains("no deviation"));
    }

    #[test]
    fn overclaiming_reporter_is_flagged() {
        let mut bundle = forked_bundle();
        bundle.trigger.deviation = "bad-proof".into(); // the sync-up failed
        let report = audit(&bundle);
        // Still confirmed (the sync-up really fails) but the claim mismatch
        // is surfaced.
        assert!(report.confirmed);
        assert_eq!(passed(&report, "verdict-consistent"), Some(false));
    }

    /// A Protocol I exchange is not re-run yet: the report says so, and the
    /// exchange alone confirms nothing.
    #[test]
    fn a_protocol1_exchange_is_reported_not_re_run() {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        };
        let mut server = HonestServer::new(&config);
        let op = Op::Put(u64_key(1), vec![1]);
        let reply = server.handle_op(0, &op, 0);
        let bundle = EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 5, "protocol-1")
            .deviation(&Deviation::BadSignature)
            .exchange(Some(Exchange::Op {
                anchor: Anchor { order: 4, gctr: 0 },
                op,
                reply,
            }))
            .build();
        let report = audit(&bundle);
        assert!(!report.confirmed, "{}", report.render_text());
        assert_eq!(passed(&report, "verdict-consistent"), None);
        let rerun = report.checks.iter().find(|c| c.name == "reply-check");
        assert!(rerun.is_some_and(|c| c.detail.starts_with("not re-run")));
    }
}

//! Cold, independent re-verification of an [`EvidenceBundle`].
//!
//! The paper's detection guarantee ends with a client *knowing* the server
//! deviated; convincing a third party (the other users, an operator, the
//! paper's "external mechanism") requires that the third party re-derive
//! the verdict from the signed materials alone, without trusting the
//! reporter or talking to the accused server. [`audit`] does exactly that:
//! starting from nothing but bundle bytes it re-verifies every embedded
//! signature against the embedded public keys, re-decodes every
//! verification object (which re-checks its internal hash chain),
//! recomputes `grove_root` over the per-shard roots, re-runs the
//! broadcast sync-up predicates, re-localizes the deviating shards, and
//! re-runs [`crate::forensics::diagnose`] over the opt-in transition logs
//! to name the first bad counter — then cross-checks its own conclusions
//! against what the reporter claimed.
//!
//! Tampered or forged artifacts never reach the re-derivation: the framing
//! layer ([`EvidenceBundle::from_bytes`]) rejects them at the exact
//! offending field, and [`audit_bytes`] surfaces that as a rejected
//! [`AuditReport`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcvs_crypto::{mss_verify, Digest, MssPublicKey, UserId};
use tcvs_merkle::{grove_root, VerificationObject};
use tcvs_obs::json_escape;

use crate::evidence::{EvidenceBundle, EvidenceError};
use crate::forensics::{diagnose, TransitionLog, Verdict};
use crate::msg::{SignedCheckpoint, SignedEpochState};
use crate::state::signed_payload;
use crate::sync::{
    protocol1_grove_sync_ok, protocol1_sync_ok, protocol2_deviating_shards,
    protocol2_grove_sync_ok, protocol2_sync_ok,
};
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

/// The first deviation the audit could localize from transition logs: the
/// shard, counter, and users on the wrong side of history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Culprit {
    /// Shard whose logs contain the anomaly.
    pub shard: u32,
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
    /// Shards the audit itself re-localized from the embedded shares.
    pub deviating_shards: Vec<u32>,
    /// Per-shard transition-log verdict summaries `(shard, summary)`.
    pub shard_verdicts: Vec<(u32, String)>,
    /// The first localized deviation, when transition logs pin one down.
    pub culprit: Option<Culprit>,
    /// True iff the audit independently confirmed a deviation: some
    /// honesty check failed, a shard's sync-up predicate failed, or a
    /// transition-log verdict was non-clean.
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
            deviating_shards: Vec::new(),
            shard_verdicts: Vec::new(),
            culprit: None,
            confirmed: false,
        }
    }

    /// True iff every honesty check passed (only meaningful when
    /// `accepted`).
    pub fn all_checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
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
        if !self.deviating_shards.is_empty() {
            let _ = writeln!(
                out,
                "  deviating shards (re-localized): {:?}",
                self.deviating_shards
            );
        }
        for (shard, summary) in &self.shard_verdicts {
            let _ = writeln!(out, "  shard {shard} logs: {summary}");
        }
        if let Some(c) = &self.culprit {
            let _ = writeln!(
                out,
                "  culprit: shard {} {} at ctr {} involving users {:?} (state {})",
                c.shard,
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
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"tcvs-audit-report/v1\",");
        let _ = writeln!(out, "  \"accepted\": {},", self.accepted);
        match &self.rejection {
            Some(r) => {
                let _ = writeln!(out, "  \"rejection\": \"{}\",", json_escape(r));
            }
            None => {
                let _ = writeln!(out, "  \"rejection\": null,");
            }
        }
        match &self.kind {
            Some(k) => {
                let _ = writeln!(out, "  \"kind\": \"{}\",", json_escape(k));
            }
            None => {
                let _ = writeln!(out, "  \"kind\": null,");
            }
        }
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"protocol\": \"{}\",", json_escape(&self.protocol));
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
        let shards: Vec<String> = self.deviating_shards.iter().map(u32::to_string).collect();
        let _ = writeln!(out, "  \"deviating_shards\": [{}],", shards.join(", "));
        match &self.culprit {
            Some(c) => {
                let users: Vec<String> = c.users.iter().map(u32::to_string).collect();
                let _ = writeln!(
                    out,
                    "  \"culprit\": {{\"shard\": {}, \"at_ctr\": {}, \"class\": \"{}\", \
                     \"users\": [{}], \"token\": \"{}\"}},",
                    c.shard,
                    c.at_ctr,
                    c.class,
                    users.join(", "),
                    c.token
                );
            }
            None => {
                let _ = writeln!(out, "  \"culprit\": null,");
            }
        }
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
    let mut checks = Vec::new();
    let keys: BTreeMap<UserId, MssPublicKey> = bundle.keys.iter().copied().collect();

    checks.push(check_deposit_signatures(bundle, &keys));
    if !bundle.epoch_states.is_empty() {
        checks.push(check_epoch_signatures(bundle, &keys));
    }
    if !bundle.checkpoints.is_empty() {
        checks.push(check_checkpoint_signatures(bundle, &keys));
    }
    if !bundle.vos.is_empty() {
        checks.push(check_vos(bundle));
    }
    if let Some(c) = check_grove(bundle) {
        checks.push(c);
    }

    let mut deviating_shards: Vec<u32> = Vec::new();
    if !bundle.shares.is_empty() {
        let (check, shards) = check_sync(bundle);
        checks.push(check);
        deviating_shards = shards;
        checks.push(check_localization(bundle, &deviating_shards));
    }

    let (shard_verdicts, culprit) = run_diagnosis(bundle);

    let honesty_failed = checks
        .iter()
        .any(|c| !c.passed && c.name != "localization-consistent");
    let confirmed = honesty_failed || culprit.is_some();

    AuditReport {
        accepted: true,
        rejection: None,
        kind: Some(bundle.kind.label().to_string()),
        seed: bundle.seed,
        protocol: bundle.protocol.clone(),
        checks,
        deviating_shards,
        shard_verdicts,
        culprit,
        confirmed,
    }
}

/// Verifies every Protocol I signed deposit against the embedded keys.
fn check_deposit_signatures(
    bundle: &EvidenceBundle,
    keys: &BTreeMap<UserId, MssPublicKey>,
) -> AuditCheck {
    let mut bad: Vec<String> = Vec::new();
    for (i, s) in bundle.signed_states.iter().enumerate() {
        match keys.get(&s.signer) {
            None => bad.push(format!("[{i}] signer {} has no key", s.signer)),
            Some(pk) => {
                let payload = signed_payload(&s.root, s.ctr);
                if !mss_verify(pk, &payload, &s.sig) {
                    bad.push(format!("[{i}] signer {} ctr {} invalid", s.signer, s.ctr));
                }
            }
        }
    }
    finish_sig_check("deposit-signatures", bundle.signed_states.len(), bad)
}

/// Verifies every Protocol III epoch state against the embedded keys.
fn check_epoch_signatures(
    bundle: &EvidenceBundle,
    keys: &BTreeMap<UserId, MssPublicKey>,
) -> AuditCheck {
    let mut bad: Vec<String> = Vec::new();
    for (i, s) in bundle.epoch_states.iter().enumerate() {
        match keys.get(&s.user) {
            None => bad.push(format!("[{i}] user {} has no key", s.user)),
            Some(pk) => {
                let payload =
                    SignedEpochState::payload(s.user, s.epoch, &s.sigma, s.last.as_ref(), s.ops);
                if !mss_verify(pk, &payload, &s.sig) {
                    bad.push(format!("[{i}] user {} epoch {} invalid", s.user, s.epoch));
                }
            }
        }
    }
    finish_sig_check("epoch-signatures", bundle.epoch_states.len(), bad)
}

/// Verifies every Protocol III audited checkpoint against the embedded keys.
fn check_checkpoint_signatures(
    bundle: &EvidenceBundle,
    keys: &BTreeMap<UserId, MssPublicKey>,
) -> AuditCheck {
    let mut bad: Vec<String> = Vec::new();
    for (i, c) in bundle.checkpoints.iter().enumerate() {
        match keys.get(&c.checker) {
            None => bad.push(format!("[{i}] checker {} has no key", c.checker)),
            Some(pk) => {
                let payload = SignedCheckpoint::payload(c.epoch, c.checker, &c.final_token);
                if !mss_verify(pk, &payload, &c.sig) {
                    bad.push(format!(
                        "[{i}] checker {} epoch {} invalid",
                        c.checker, c.epoch
                    ));
                }
            }
        }
    }
    finish_sig_check("checkpoint-signatures", bundle.checkpoints.len(), bad)
}

fn finish_sig_check(name: &'static str, total: usize, bad: Vec<String>) -> AuditCheck {
    if bad.is_empty() {
        AuditCheck {
            name,
            passed: true,
            detail: format!("{total}/{total} signatures verify"),
        }
    } else {
        AuditCheck {
            name,
            passed: false,
            detail: format!("{}/{total} invalid: {}", bad.len(), bad.join("; ")),
        }
    }
}

/// Re-decodes every embedded verification object; `from_bytes` re-verifies
/// the VO's internal digests, so a successful decode re-checks the proof's
/// hash chain.
fn check_vos(bundle: &EvidenceBundle) -> AuditCheck {
    let mut bad: Vec<String> = Vec::new();
    for (i, v) in bundle.vos.iter().enumerate() {
        if let Err(e) = VerificationObject::from_bytes(v) {
            bad.push(format!("[{i}] {e:?}"));
        }
    }
    if bad.is_empty() {
        AuditCheck {
            name: "vo-hash-chains",
            passed: true,
            detail: format!("{0}/{0} verification objects re-verify", bundle.vos.len()),
        }
    } else {
        AuditCheck {
            name: "vo-hash-chains",
            passed: false,
            detail: format!(
                "{}/{} invalid: {}",
                bad.len(),
                bundle.vos.len(),
                bad.join("; ")
            ),
        }
    }
}

/// Recomputes `grove_root` over the embedded per-shard roots and compares
/// it to the claimed grove root.
fn check_grove(bundle: &EvidenceBundle) -> Option<AuditCheck> {
    let g = bundle.grove.as_ref()?;
    if g.shard_roots.is_empty() {
        return Some(AuditCheck {
            name: "grove-root",
            passed: false,
            detail: "grove evidence has zero shard roots".into(),
        });
    }
    let recomputed = grove_root(&g.shard_roots);
    if recomputed == g.grove_root {
        Some(AuditCheck {
            name: "grove-root",
            passed: true,
            detail: format!(
                "recomputed root over {} shard roots matches (epoch {})",
                g.shard_roots.len(),
                g.epoch
            ),
        })
    } else {
        Some(AuditCheck {
            name: "grove-root",
            passed: false,
            detail: format!(
                "recomputed {} != claimed {} (epoch {})",
                recomputed.short(),
                g.grove_root.short(),
                g.epoch
            ),
        })
    }
}

/// Re-runs the broadcast sync-up predicate appropriate to the bundle's
/// protocol, and (for XOR-accumulator protocols) re-localizes the
/// deviating shards.
fn check_sync(bundle: &EvidenceBundle) -> (AuditCheck, Vec<u32>) {
    let protocol1 = bundle.protocol == "protocol-1";
    let sharded = bundle.shares.len() > 1;
    let (ok, shards): (bool, Vec<u32>) = if protocol1 {
        let ok = if sharded {
            protocol1_grove_sync_ok(&bundle.shares)
        } else {
            protocol1_sync_ok(&bundle.shares[0])
        };
        // Protocol I's counter predicate localizes too: a shard whose
        // shares fail the per-shard predicate is deviating.
        let shards = bundle
            .shares
            .iter()
            .enumerate()
            .filter(|(_, s)| !protocol1_sync_ok(s))
            .map(|(i, _)| i as u32)
            .collect();
        (ok, shards)
    } else if bundle.initials.len() == bundle.shares.len() {
        let ok = if sharded {
            protocol2_grove_sync_ok(&bundle.initials, &bundle.shares)
        } else {
            protocol2_sync_ok(&bundle.initials[0], &bundle.shares[0])
        };
        let shards = protocol2_deviating_shards(&bundle.initials, &bundle.shares)
            .into_iter()
            .map(|s| s as u32)
            .collect();
        (ok, shards)
    } else {
        return (
            AuditCheck {
                name: "sync-predicate",
                passed: false,
                detail: format!(
                    "{} initial tokens for {} shard share-sets",
                    bundle.initials.len(),
                    bundle.shares.len()
                ),
            },
            Vec::new(),
        );
    };
    let check = if ok {
        AuditCheck {
            name: "sync-predicate",
            passed: true,
            detail: "broadcast sync-up predicate holds on embedded shares".into(),
        }
    } else {
        AuditCheck {
            name: "sync-predicate",
            passed: false,
            detail: format!("sync-up predicate fails; shards {shards:?} deviate"),
        }
    };
    (check, shards)
}

/// Cross-checks the reporter's claimed deviating shards against the
/// audit's own localization. A mismatch does not clear the server — the
/// recomputed set is authoritative — but it flags a reporter whose claims
/// overreach the evidence.
fn check_localization(bundle: &EvidenceBundle, recomputed: &[u32]) -> AuditCheck {
    if bundle.claimed_deviating_shards == recomputed {
        AuditCheck {
            name: "localization-consistent",
            passed: true,
            detail: format!("reporter and audit agree: {recomputed:?}"),
        }
    } else {
        AuditCheck {
            name: "localization-consistent",
            passed: false,
            detail: format!(
                "reporter claimed {:?}, audit re-derived {:?}",
                bundle.claimed_deviating_shards, recomputed
            ),
        }
    }
}

/// Runs `diagnose` per shard over the opt-in transition logs; the first
/// non-clean verdict (lowest shard index) becomes the culprit.
fn run_diagnosis(bundle: &EvidenceBundle) -> (Vec<(u32, String)>, Option<Culprit>) {
    let mut verdicts = Vec::new();
    let mut culprit: Option<Culprit> = None;
    for (shard, users) in &bundle.transition_logs {
        let Some(initial) = bundle.initials.get(*shard as usize) else {
            verdicts.push((*shard, "no initial token for shard".to_string()));
            continue;
        };
        let logs: Vec<TransitionLog> = users.iter().map(|(_, l)| l.clone()).collect();
        let verdict = diagnose(&logs, initial);
        let summary = match &verdict {
            Verdict::CleanPath { length, .. } => {
                format!("clean path of {length} transitions")
            }
            Verdict::Fork {
                at_ctr,
                forked_state,
                users,
            } => format!(
                "FORK at ctr {at_ctr}: state {} served twice, users {users:?}",
                forked_state.short()
            ),
            Verdict::OrphanState {
                at_ctr,
                victim,
                token,
            } => format!(
                "ORPHAN at ctr {at_ctr}: user {victim} consumed fabricated state {}",
                token.short()
            ),
            Verdict::Empty => "no transitions logged".to_string(),
        };
        verdicts.push((*shard, summary));
        if culprit.is_none() {
            culprit = match verdict {
                Verdict::Fork {
                    at_ctr,
                    forked_state,
                    users,
                } => Some(Culprit {
                    shard: *shard,
                    at_ctr,
                    users,
                    class: "fork",
                    token: forked_state,
                }),
                Verdict::OrphanState {
                    at_ctr,
                    victim,
                    token,
                } => Some(Culprit {
                    shard: *shard,
                    at_ctr,
                    users: vec![victim],
                    class: "orphan-state",
                    token,
                }),
                _ => None,
            };
        }
    }
    (verdicts, culprit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::{setup_users, sha256};
    use tcvs_obs::MetricsRegistry;

    use crate::evidence::{EvidenceBuilder, EvidenceKind, GroveEvidence};
    use crate::forensics::LoggedTransition;
    use crate::msg::{SignedState, SyncShare};
    use crate::state::{signed_payload, state_token};

    /// A two-shard incident where shard 1's accumulator was corrupted by a
    /// lying server: shares that XOR to garbage, plus transition logs that
    /// contain a fork at ctr 3.
    fn forked_bundle() -> EvidenceBundle {
        let (mut rings, registry) = setup_users([9; 32], 3, 4);
        let initials = [sha256(b"shard0-init"), sha256(b"shard1-init")];

        // Shard 0: one honest op by user 0 — σ telescopes to
        // `initial ⊕ t1`, so the per-shard predicate holds.
        let t1 = state_token(&sha256(b"r1"), 1, 0);
        let shard0 = vec![
            SyncShare {
                user: 0,
                lctr: 1,
                gctr: 1,
                sigma: initials[0] ^ t1,
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

        // Shard 1: the server equivocated — the XOR of shares can't close.
        let shard1 = vec![
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

        // Transition logs for shard 1: both users were shown histories
        // that consume the same parent state — a fork at ctr 3.
        let forked = sha256(b"forked-parent");
        let mut log_a = TransitionLog::new();
        log_a.record(LoggedTransition {
            old_token: initials[1],
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

        EvidenceBuilder::new(EvidenceKind::ShardLocalization, 99, "protocol-2")
            .captured_at(12)
            .description("seeded 1-of-2 shard fork")
            .deviation(&crate::types::Deviation::SyncFailed)
            .initials(&initials)
            .grove(GroveEvidence {
                epoch: 1,
                shard_roots: vec![sha256(b"gr0"), sha256(b"gr1")],
                shard_ctrs: vec![1, 3],
                shard_last_users: vec![0, 2],
                grove_root: grove_root(&[sha256(b"gr0"), sha256(b"gr1")]),
            })
            .claimed_shards([1usize])
            .shares(vec![shard0, shard1])
            .signed_state(SignedState {
                signer: 0,
                root,
                ctr: 7,
                sig,
            })
            .keys_from(&registry)
            .transition_log(1, 0, &log_a)
            .transition_log(1, 2, &log_b)
            .metrics(&metrics.snapshot())
            .build()
    }

    #[test]
    fn confirms_fork_and_names_shard_and_counter() {
        let bundle = forked_bundle();
        let report = audit(&bundle);
        assert!(report.accepted);
        assert!(report.confirmed, "deviation must be re-derived");
        assert_eq!(report.deviating_shards, vec![1]);
        let culprit = report
            .culprit
            .clone()
            .expect("transition logs pin the culprit");
        assert_eq!(culprit.shard, 1);
        assert_eq!(culprit.at_ctr, 3);
        assert_eq!(culprit.class, "fork");
        assert_eq!(culprit.users, vec![0, 2]);
        // Reporter and audit agree on localization.
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "localization-consistent" && c.passed));
        // The honest materials still verify.
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "deposit-signatures" && c.passed));
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "grove-root" && c.passed));
        let text = report.render_text();
        assert!(text.contains("DEVIATION CONFIRMED"), "{text}");
        assert!(text.contains("shard 1"), "{text}");
        let json = report.render_json();
        assert!(json.contains("\"confirmed\": true"), "{json}");
        assert!(json.contains("\"at_ctr\": 3"), "{json}");
    }

    #[test]
    fn audit_bytes_round_trip_matches_in_memory_audit() {
        let bundle = forked_bundle();
        let report = audit_bytes(&bundle.to_bytes());
        assert!(report.accepted);
        assert!(report.confirmed);
        assert_eq!(report.deviating_shards, vec![1]);
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
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "deposit-signatures" && !c.passed));
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
            .initials(&[initial])
            .shares(vec![shares])
            .keys_from(&registry)
            .build();
        let report = audit(&bundle);
        assert!(report.accepted);
        assert!(!report.confirmed, "{}", report.render_text());
        assert!(report.deviating_shards.is_empty());
        assert!(report.render_text().contains("no deviation"));
    }

    #[test]
    fn overclaiming_reporter_is_flagged() {
        let mut bundle = forked_bundle();
        bundle.claimed_deviating_shards = vec![0, 1]; // shard 0 was honest
        let report = audit(&bundle);
        // Still confirmed (shard 1 really deviated) but the claim mismatch
        // is surfaced.
        assert!(report.confirmed);
        assert!(report
            .checks
            .iter()
            .any(|c| c.name == "localization-consistent" && !c.passed));
    }
}

//! Fault localization — the paper's future-work item (1): "extend these
//! protocols to detect exactly *when* the fault occurred".
//!
//! The constant-space accumulators of Protocols II/III can only say *that*
//! the history is not a single path. If users are willing to keep their
//! full transition logs (trading §2.2.5's constant-memory requirement for
//! diagnosability — an explicit extension, not part of the base protocols),
//! the state graph of Lemma 4.1 can be reconstructed exactly and the first
//! anomaly pinpointed: the counter value where the history stops being a
//! path, and the users affected.
//!
//! After a sync-up fails, users exchange logs over the broadcast channel
//! (or hand them to an investigator — the paper's "external mechanism,
//! e.g. law enforcement") and run [`diagnose`].

use std::collections::{BTreeMap, BTreeSet};

use tcvs_crypto::{Digest, UserId};
use tcvs_obs::{render_log, Event};

use crate::types::Ctr;

/// One witnessed state transition, as logged by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedTransition {
    /// Token of the state the operation consumed.
    pub old_token: Digest,
    /// Token of the state the operation produced.
    pub new_token: Digest,
    /// Counter value the server presented (`ctr` of the old state).
    pub ctr: Ctr,
    /// The user who performed the operation.
    pub user: UserId,
}

/// A client-side transition log (the unbounded-memory extension).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransitionLog {
    entries: Vec<LoggedTransition>,
}

impl TransitionLog {
    /// Empty log.
    pub fn new() -> TransitionLog {
        TransitionLog::default()
    }

    /// Records one transition.
    pub fn record(&mut self, t: LoggedTransition) {
        self.entries.push(t);
    }

    /// All entries.
    pub fn entries(&self) -> &[LoggedTransition] {
        &self.entries
    }

    /// Number of logged transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The verdict of a forensic analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All logged transitions form a single path from the initial state:
    /// the server behaved (w.r.t. these logs).
    CleanPath {
        /// Token of the final state.
        final_token: Digest,
        /// Number of transitions on the path.
        length: usize,
    },
    /// The history forks: one state was consumed by two different
    /// transitions — the partition/replay attack, located.
    Fork {
        /// Counter at which the fork happened.
        at_ctr: Ctr,
        /// The state token that was served twice.
        forked_state: Digest,
        /// The users on the two sides of the fork.
        users: Vec<UserId>,
    },
    /// A transition consumed a state that no logged transition (nor the
    /// initial state) ever produced — fabricated or tampered state.
    OrphanState {
        /// Counter the orphan transition presented.
        at_ctr: Ctr,
        /// The user whose operation consumed the fabricated state.
        victim: UserId,
        /// The fabricated state's token.
        token: Digest,
    },
    /// No transitions were logged and no anomaly exists.
    Empty,
}

/// Reconstructs the state graph from all users' logs and locates the first
/// anomaly (by counter value).
///
/// `initial` is the initial-state token `h(M(D₀) ‖ 0 ‖ ⊥)`, which is
/// common knowledge.
pub fn diagnose(logs: &[TransitionLog], initial: &Digest) -> Verdict {
    let mut all: Vec<&LoggedTransition> = logs.iter().flat_map(|l| l.entries()).collect();
    if all.is_empty() {
        return Verdict::Empty;
    }
    all.sort_by_key(|t| t.ctr);

    // Producers: initial state plus every new_token.
    let mut produced: BTreeSet<Digest> = BTreeSet::new();
    produced.insert(*initial);
    for t in &all {
        produced.insert(t.new_token);
    }

    // First anomaly by counter: a state consumed twice (fork) or a consumed
    // state nobody produced (orphan).
    let mut consumed_by: BTreeMap<Digest, &LoggedTransition> = BTreeMap::new();
    for t in &all {
        if let Some(first) = consumed_by.get(&t.old_token) {
            // Same user consuming the same state twice is a replay the
            // client-side ctr check would have caught; across users it is
            // the fork.
            return Verdict::Fork {
                at_ctr: t.ctr,
                forked_state: t.old_token,
                users: vec![first.user, t.user],
            };
        }
        if !produced.contains(&t.old_token) {
            return Verdict::OrphanState {
                at_ctr: t.ctr,
                victim: t.user,
                token: t.old_token,
            };
        }
        consumed_by.insert(t.old_token, t);
    }

    // No fork, no orphan: check that the transitions chain into one path
    // starting at the initial state.
    let mut cur = *initial;
    let mut length = 0usize;
    let by_old: BTreeMap<Digest, &LoggedTransition> =
        all.iter().map(|t| (t.old_token, *t)).collect();
    while let Some(t) = by_old.get(&cur) {
        cur = t.new_token;
        length += 1;
    }
    if length == all.len() {
        Verdict::CleanPath {
            final_token: cur,
            length,
        }
    } else {
        // Some transitions are unreachable from the initial state even
        // though each old token was produced *somewhere*: a cycle cannot
        // occur (ctr increases), so this means a disconnected segment whose
        // producer link was walked differently; report the earliest
        // unreachable transition as orphaned from the main history.
        let mut reachable: BTreeSet<Digest> = BTreeSet::new();
        let mut c = *initial;
        reachable.insert(c);
        while let Some(t) = by_old.get(&c) {
            c = t.new_token;
            reachable.insert(c);
        }
        let first_bad = all
            .iter()
            .find(|t| !reachable.contains(&t.old_token))
            .expect("length mismatch implies an unreachable transition");
        Verdict::OrphanState {
            at_ctr: first_bad.ctr,
            victim: first_bad.user,
            token: first_bad.old_token,
        }
    }
}

/// A forensic verdict together with the observability timeline that led up
/// to it — the input an investigator actually receives after a failed
/// sync-up: the localized anomaly *and* the event log around it.
#[derive(Clone, Debug)]
pub struct DiagnosisReport {
    /// The graph-reconstruction verdict.
    pub verdict: Verdict,
    /// The traced events preceding the failed sync-up, in emission order.
    pub timeline: Vec<Event>,
}

impl DiagnosisReport {
    /// Renders the report as diffable text: the verdict line followed by
    /// the timeline (one event per line).
    pub fn render(&self) -> String {
        let mut out = format!("verdict: {:?}\n", self.verdict);
        if !self.timeline.is_empty() {
            out.push_str("timeline:\n");
            out.push_str(&render_log(&self.timeline));
        }
        out
    }
}

/// [`diagnose`], with the traced event timeline attached to the result.
///
/// When a sync-up fails, the caller hands over both the transition logs and
/// whatever events its tracer sink collected; the report pairs the located
/// anomaly with that timeline so the handoff to the paper's "external
/// mechanism" carries the full run context.
pub fn diagnose_with_timeline(
    logs: &[TransitionLog],
    initial: &Digest,
    timeline: Vec<Event>,
) -> DiagnosisReport {
    DiagnosisReport {
        verdict: diagnose(logs, initial),
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::sha256;

    fn tok(s: &str) -> Digest {
        sha256(s.as_bytes())
    }

    fn t(old: &str, new: &str, ctr: Ctr, user: UserId) -> LoggedTransition {
        LoggedTransition {
            old_token: tok(old),
            new_token: tok(new),
            ctr,
            user,
        }
    }

    fn logs(entries: Vec<LoggedTransition>) -> Vec<TransitionLog> {
        // Split across two "users'" logs to exercise merging.
        let mut a = TransitionLog::new();
        let mut b = TransitionLog::new();
        for (i, e) in entries.into_iter().enumerate() {
            if i % 2 == 0 {
                a.record(e);
            } else {
                b.record(e);
            }
        }
        vec![a, b]
    }

    #[test]
    fn clean_path_recognized() {
        let ls = logs(vec![
            t("s0", "s1", 0, 0),
            t("s1", "s2", 1, 1),
            t("s2", "s3", 2, 0),
        ]);
        assert_eq!(
            diagnose(&ls, &tok("s0")),
            Verdict::CleanPath {
                final_token: tok("s3"),
                length: 3
            }
        );
    }

    #[test]
    fn empty_logs() {
        assert_eq!(
            diagnose(&[TransitionLog::new()], &tok("s0")),
            Verdict::Empty
        );
    }

    #[test]
    fn fork_located_at_exact_ctr() {
        // s1 served to both user 1 and user 2 (partition attack at ctr 1).
        let ls = logs(vec![
            t("s0", "s1", 0, 0),
            t("s1", "s2a", 1, 1),
            t("s1", "s2b", 1, 2),
            t("s2a", "s3a", 2, 1),
        ]);
        match diagnose(&ls, &tok("s0")) {
            Verdict::Fork {
                at_ctr,
                forked_state,
                users,
            } => {
                assert_eq!(at_ctr, 1);
                assert_eq!(forked_state, tok("s1"));
                let mut users = users;
                users.sort();
                assert_eq!(users, vec![1, 2]);
            }
            other => panic!("expected fork, got {other:?}"),
        }
    }

    #[test]
    fn fabricated_state_located() {
        let ls = logs(vec![
            t("s0", "s1", 0, 0),
            // Server invents "evil" out of thin air for user 1's op.
            t("evil", "s2", 1, 1),
        ]);
        match diagnose(&ls, &tok("s0")) {
            Verdict::OrphanState {
                at_ctr,
                victim,
                token,
            } => {
                assert_eq!(at_ctr, 1);
                assert_eq!(victim, 1);
                assert_eq!(token, tok("evil"));
            }
            other => panic!("expected orphan, got {other:?}"),
        }
    }

    #[test]
    fn disconnected_segment_located() {
        // A correct-looking island (sX -> sY) that never connects to the
        // main history — e.g. a rollback where ops continued on a ghost.
        let ls = logs(vec![
            t("s0", "s1", 0, 0),
            t("sX", "sY", 5, 2),
            t("sY", "sX", 6, 2), // even a 2-cycle: still disconnected
        ]);
        match diagnose(&ls, &tok("s0")) {
            Verdict::Fork { .. } => panic!("not a fork"),
            Verdict::OrphanState { victim, .. } => assert_eq!(victim, 2),
            other => panic!("expected orphan, got {other:?}"),
        }
    }

    #[test]
    fn timeline_attaches_to_report() {
        use tcvs_obs::EventKind;
        let ls = logs(vec![t("s0", "s1", 0, 0), t("evil", "s2", 1, 1)]);
        let timeline = vec![
            Event::new(1, EventKind::SyncUp, 0).detail("fail"),
            Event::new(2, EventKind::Detection, 1).detail("orphan"),
        ];
        let report = diagnose_with_timeline(&ls, &tok("s0"), timeline);
        assert!(matches!(report.verdict, Verdict::OrphanState { .. }));
        assert_eq!(report.timeline.len(), 2);
        let text = report.render();
        assert!(text.starts_with("verdict: OrphanState"));
        assert!(text.contains("timeline:"));
        assert!(text.contains("sync-up"));
    }

    /// Runs `script` — `(user, window)` pairs — against `server` with
    /// logging clients, as one batched exchange per window or one exchange
    /// per op, and diagnoses the logs. `None` if any exchange failed.
    fn diagnose_script(
        mut server: impl crate::server::ServerApi,
        script: &[(UserId, Vec<tcvs_merkle::Op>)],
        batched: bool,
    ) -> Option<Verdict> {
        use crate::state::initial_token;
        use crate::{Client2, ProtocolConfig};
        let config = ProtocolConfig {
            order: 4,
            k: 64,
            epoch_len: 100,
        };
        let root0 = tcvs_merkle::MerkleTree::with_order(config.order).root_digest();
        let mut clients: Vec<Client2> = (0..2)
            .map(|u| {
                let mut c = Client2::new(u, &root0, config);
                c.enable_logging();
                c
            })
            .collect();
        for (round, (user, window)) in script.iter().enumerate() {
            let (c, round) = (&mut clients[*user as usize], round as u64);
            if batched {
                let resp = server.handle_op_batch(*user, 0, window, round)?;
                c.handle_batch_response(window, &resp).ok()?;
            } else {
                for op in window {
                    let resp = server.handle_op(*user, op, round);
                    c.handle_response(op, &resp).ok()?;
                }
            }
        }
        let logs: Vec<TransitionLog> = clients
            .iter()
            .map(|c| c.transition_log().cloned().unwrap_or_default())
            .collect();
        Some(diagnose(&logs, &initial_token(&root0)))
    }

    /// Four windows of four ops, users alternating.
    fn script() -> Vec<(UserId, Vec<tcvs_merkle::Op>)> {
        use tcvs_merkle::{u64_key, Op};
        (0..4u64)
            .map(|w| {
                let window = (0..4u64)
                    .map(|i| match i % 2 {
                        0 => Op::Put(u64_key(w * 3 + i), vec![w as u8; 4]),
                        _ => Op::Get(u64_key(w + i)),
                    })
                    .collect();
                ((w % 2) as UserId, window)
            })
            .collect()
    }

    /// A batched honest run logs one transition per exchange and still
    /// diagnoses as a clean path, ending at the per-op run's final state.
    #[test]
    fn batched_honest_run_is_a_clean_path() {
        let config = crate::ProtocolConfig {
            order: 4,
            k: 64,
            epoch_len: 100,
        };
        let server = || crate::HonestServer::new(&config);
        let per_op = diagnose_script(server(), &script(), false);
        let final_token = match &per_op {
            Some(Verdict::CleanPath { final_token, .. }) => *final_token,
            _ => Digest::ZERO,
        };
        let clean = |length| {
            Some(Verdict::CleanPath {
                final_token,
                length,
            })
        };
        assert_eq!(per_op, clean(16));
        assert_eq!(diagnose_script(server(), &script(), true), clean(4));
    }

    /// A fork of a window's pre-state is located at the same counter, with
    /// the same users, whether the victims batched or not.
    #[test]
    fn a_fork_at_a_window_boundary_is_located_as_per_op() {
        use crate::adversary::{ForkServer, Trigger};
        let config = crate::ProtocolConfig {
            order: 4,
            k: 64,
            epoch_len: 100,
        };
        // Windows start at counters 0, 4, 8 and 12: users 0 and 1 both
        // consume the state at counter 8, each on its own branch.
        let server = || ForkServer::new(&config, Trigger::AtCtr(8), &[0]);
        let batched = diagnose_script(server(), &script(), true);
        let per_op = diagnose_script(server(), &script(), false);
        assert!(
            matches!(&batched, Some(Verdict::Fork { at_ctr: 8, users, .. }) if users == &[0, 1]),
            "{batched:?}"
        );
        assert_eq!(batched, per_op);
    }

    #[test]
    fn single_transition_path() {
        let mut l = TransitionLog::new();
        l.record(t("s0", "s1", 0, 0));
        assert_eq!(
            diagnose(&[l], &tok("s0")),
            Verdict::CleanPath {
                final_token: tok("s1"),
                length: 1
            }
        );
    }
}

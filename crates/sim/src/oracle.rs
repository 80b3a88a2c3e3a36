//! The deviation oracle: Definition 2.1, executable.
//!
//! A run of the untrusted system *deviates* if its query/response actions
//! cannot be produced by any run of the trusted system with the same
//! operation order. Since the trusted server executes operations serially
//! in arrival order, the oracle simply replays the trace on a pristine
//! database and compares every response.
//!
//! This is ground truth that is *independent of the protocols*: experiments
//! use it to separate "the adversary's switch flipped" (the trigger) from
//! "a deviation became observable" (some response differed). A drop whose
//! key is never read again, or a fork whose minority branch stays silent,
//! produces no observable deviation in the finite prefix — and the
//! protocols, correctly, have nothing to detect yet.

use tcvs_core::{
    EvidenceBuilder, EvidenceBundle, EvidenceKind, OpResult, ProtocolConfig, ServerApi,
    TriggerInfo, UserId,
};
use tcvs_merkle::{apply_op, MerkleTree};
use tcvs_workload::Trace;

/// The oracle's verdict for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Every response matched the trusted execution: no observable
    /// deviation in this prefix.
    NoObservableDeviation,
    /// The first response that no trusted run could have produced.
    Deviated {
        /// Global operation index of the first divergent response.
        op_index: u64,
        /// The user who received it.
        user: UserId,
        /// What the untrusted server answered.
        got: OpResult,
        /// What the trusted server answers at that point.
        expected: OpResult,
    },
}

impl OracleVerdict {
    /// True iff a deviation was observable.
    pub fn deviated(&self) -> bool {
        matches!(self, OracleVerdict::Deviated { .. })
    }

    /// The first divergence index, if any.
    pub fn first_divergence(&self) -> Option<u64> {
        match self {
            OracleVerdict::Deviated { op_index, .. } => Some(*op_index),
            OracleVerdict::NoObservableDeviation => None,
        }
    }
}

/// Runs `trace` against `server` while executing the same operations on a
/// pristine trusted database, and reports the first response divergence.
///
/// The server under test must be fresh (its counter at zero); rounds are
/// fed from the trace as in [`crate::simulate`].
pub fn run_with_oracle(
    server: &mut dyn ServerApi,
    config: &ProtocolConfig,
    trace: &Trace,
) -> OracleVerdict {
    let mut reference = MerkleTree::with_order(config.order);
    for (idx, sop) in trace.ops().iter().enumerate() {
        let resp = server.handle_op(sop.user, &sop.op, sop.round);
        let expected = apply_op(&mut reference, &sop.op).expect("full tree");
        if resp.result != expected {
            return OracleVerdict::Deviated {
                op_index: idx as u64,
                user: sop.user,
                got: resp.result,
                expected,
            };
        }
    }
    OracleVerdict::NoObservableDeviation
}

/// [`run_with_oracle`] that additionally seals a `Deviated` verdict into a
/// portable [`EvidenceBundle`] (kind [`EvidenceKind::OracleDeviation`]):
/// the divergence point, the receiving user, and the got/expected pair in
/// the trigger detail. `NoObservableDeviation` returns no bundle.
pub fn run_with_oracle_evidence(
    server: &mut dyn ServerApi,
    config: &ProtocolConfig,
    trace: &Trace,
    seed: u64,
) -> (OracleVerdict, Option<EvidenceBundle>) {
    let verdict = run_with_oracle(server, config, trace);
    let bundle = match &verdict {
        OracleVerdict::NoObservableDeviation => None,
        OracleVerdict::Deviated {
            op_index,
            user,
            got,
            expected,
        } => Some(
            EvidenceBuilder::new(EvidenceKind::OracleDeviation, seed, "oracle")
                .captured_at(*op_index)
                .description(format!(
                    "trusted-replay oracle diverged at op {op_index} for user {user}"
                ))
                .trigger(TriggerInfo {
                    deviation: "oracle-divergence".to_string(),
                    detail: format!("got {got:?}, trusted run answers {expected:?}"),
                    user: Some(*user),
                    ctr: Some(*op_index),
                })
                .build(),
        ),
    };
    (verdict, bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::adversary::{DropServer, ForkServer, LieServer, TamperServer, Trigger};
    use tcvs_core::{HonestServer, Op};
    use tcvs_merkle::u64_key;
    use tcvs_workload::{generate, OpMix, ScheduledOp, WorkloadSpec};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            order: 8,
            k: 8,
            epoch_len: 16,
        }
    }

    #[test]
    fn honest_server_never_observably_deviates() {
        let cfg = config();
        for seed in 0..5 {
            let t = generate(&WorkloadSpec {
                n_users: 3,
                n_ops: 120,
                key_space: 24,
                mix: OpMix::write_heavy(),
                seed,
                ..WorkloadSpec::default()
            });
            let mut server = HonestServer::new(&cfg);
            assert_eq!(
                run_with_oracle(&mut server, &cfg, &t),
                OracleVerdict::NoObservableDeviation,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn lie_is_observable_at_the_lie() {
        let cfg = config();
        let t = generate(&WorkloadSpec {
            n_users: 2,
            n_ops: 30,
            seed: 1,
            ..WorkloadSpec::default()
        });
        let mut server = LieServer::new(&cfg, Trigger::AtCtr(7));
        let v = run_with_oracle(&mut server, &cfg, &t);
        assert_eq!(v.first_divergence(), Some(7));
    }

    #[test]
    fn tamper_becomes_observable_at_the_first_read_of_the_backdoor_region() {
        let cfg = config();
        // Read the backdoor key explicitly after the tamper.
        let t = Trace::new(vec![
            ScheduledOp {
                round: 0,
                user: 0,
                op: Op::Put(u64_key(1), vec![1]),
            },
            ScheduledOp {
                round: 1,
                user: 0,
                op: Op::Get(b"backdoor".to_vec()),
            },
        ]);
        let mut server = TamperServer::new(&cfg, Trigger::AtCtr(1));
        let v = run_with_oracle(&mut server, &cfg, &t);
        assert_eq!(v.first_divergence(), Some(1));
    }

    #[test]
    fn unobserved_drop_is_not_yet_a_deviation() {
        // The drop victim's key is never read again: Definition 2.1 has
        // nothing to point at in this prefix — and that is exactly why the
        // *protocols*' detection bounds are stated over FUTURE operations.
        let cfg = config();
        let t = Trace::new(vec![
            ScheduledOp {
                round: 0,
                user: 0,
                op: Op::Put(u64_key(1), vec![1]),
            },
            ScheduledOp {
                round: 1,
                user: 1,
                op: Op::Put(u64_key(2), vec![2]),
            }, // dropped
            ScheduledOp {
                round: 2,
                user: 0,
                op: Op::Get(u64_key(1)),
            }, // unrelated
        ]);
        let mut server = DropServer::new(&cfg, Trigger::AtCtr(1));
        assert_eq!(
            run_with_oracle(&mut server, &cfg, &t),
            OracleVerdict::NoObservableDeviation
        );
    }

    #[test]
    fn observed_drop_is_a_deviation() {
        let cfg = config();
        let t = Trace::new(vec![
            ScheduledOp {
                round: 0,
                user: 0,
                op: Op::Put(u64_key(1), vec![1]),
            },
            ScheduledOp {
                round: 1,
                user: 1,
                op: Op::Put(u64_key(2), vec![2]),
            }, // dropped
            ScheduledOp {
                round: 2,
                user: 0,
                op: Op::Get(u64_key(2)),
            }, // reads it!
        ]);
        let mut server = DropServer::new(&cfg, Trigger::AtCtr(1));
        let v = run_with_oracle(&mut server, &cfg, &t);
        assert_eq!(v.first_divergence(), Some(2));
        if let OracleVerdict::Deviated { got, expected, .. } = v {
            assert_eq!(got, OpResult::Value(None));
            assert_eq!(expected, OpResult::Value(Some(vec![2])));
        }
    }

    #[test]
    fn fork_observable_once_branches_read_each_others_writes() {
        let cfg = config();
        let t = Trace::new(vec![
            ScheduledOp {
                round: 0,
                user: 0,
                op: Op::Put(u64_key(1), vec![1]),
            },
            // Fork at ctr 1: user 0 on branch A, user 1 on branch B.
            ScheduledOp {
                round: 1,
                user: 0,
                op: Op::Put(u64_key(5), vec![5]),
            }, // A only
            ScheduledOp {
                round: 2,
                user: 1,
                op: Op::Get(u64_key(5)),
            }, // B: missing!
        ]);
        let mut server = ForkServer::new(&cfg, Trigger::AtCtr(1), &[0]);
        let v = run_with_oracle(&mut server, &cfg, &t);
        assert_eq!(v.first_divergence(), Some(2));
    }
}

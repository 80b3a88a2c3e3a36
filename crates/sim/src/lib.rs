//! # tcvs-sim
//!
//! A deterministic, round-based executable version of the paper's §2.1
//! system model: users, an (untrusted) server, and an environment clock,
//! with one query action per round and single-round message delivery.
//!
//! [`simulate`] drives a workload trace through any [`tcvs_core::ServerApi`]
//! — the honest server or any adversary — with the clients of the chosen
//! protocol, and reports costs (messages, bytes, rounds, sync traffic) and
//! the first [`DetectionEvent`] with the paper's detection-delay metrics.
//!
//! ```
//! use tcvs_core::{HonestServer, ProtocolKind};
//! use tcvs_sim::{simulate, SimSpec};
//! use tcvs_workload::{generate, WorkloadSpec};
//!
//! let spec = SimSpec::new(ProtocolKind::Two, 3);
//! let mut server = HonestServer::new(&spec.config);
//! let trace = generate(&WorkloadSpec { n_users: 3, n_ops: 50, ..Default::default() });
//! let report = simulate(&spec, &mut server, &trace, None);
//! assert!(!report.detected());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod latency;
mod oracle;
mod report;
mod runner;
pub mod token_ring;

pub use latency::{theoretical_bound, DetectionLatency, LatencyBound};
pub use oracle::{run_with_oracle, run_with_oracle_evidence, OracleVerdict};
pub use report::{DetectionEvent, RunReport};
pub use runner::{initial_root, simulate, simulate_observed, simulate_with_evidence, SimSpec};

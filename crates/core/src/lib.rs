//! # tcvs-core
//!
//! The contribution of *"Trusted CVS"* (ICDE 2006): protocols that let
//! mutually-trusting users detect that an **untrusted server** hosting
//! their shared database has deviated — violated integrity or availability
//! — within a bounded number of operations (Protocols I and II) or bounded
//! time (Protocol III).
//!
//! The crate provides, transport-agnostically:
//!
//! * the honest server state machine and the [`server::ServerApi`] surface,
//! * six paper-motivated **adversaries** ([`adversary`]),
//! * the three **protocol clients** ([`Client1`], [`Client2`], [`Client3`])
//!   plus the two strawmen the paper argues against ([`strawman`]), and the
//!   one client step every driver runs ([`Protocol`], through a [`Port`]),
//! * the broadcast **sync-up** aggregation ([`sync`]), and
//! * the state-token algebra ([`state`]).
//!
//! The round-based simulator (`tcvs-sim`) and the threaded deployment
//! (`tcvs-net`) drive these state machines; `tcvs-cvs` builds the CVS
//! front end on top.
//!
//! ```
//! use tcvs_core::{Client2, HonestServer, ServerApi, ProtocolConfig};
//! use tcvs_merkle::{Op, u64_key};
//!
//! let config = ProtocolConfig::default();
//! let mut server = HonestServer::new(&config);
//! let root0 = server.core().root_digest();
//! let mut alice = Client2::new(0, &root0, config);
//!
//! let op = Op::Put(u64_key(1), b"int main(){}".to_vec());
//! let resp = server.handle_op(alice.user(), &op, 0);
//! alice.handle_response(&op, &resp).expect("honest server verifies");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod audit;
mod client1;
mod client2;
mod client3;
pub mod evidence;
pub mod fault;
pub mod forensics;
pub mod msg;
mod protocol;
pub mod server;
pub mod state;
pub mod strawman;
pub mod sync;
mod types;
pub mod wire;

pub use audit::{audit, audit_bytes, AuditCheck, AuditReport, Culprit};
pub use client1::Client1;
pub use client2::Client2;
pub use client3::Client3;
pub use evidence::{
    EvidenceBuilder, EvidenceBundle, EvidenceError, EvidenceKind, MetricSample, TriggerInfo,
};
pub use fault::{FaultCounts, FaultKind, FaultPlan, FaultRates, StorageFault};
pub use forensics::{diagnose, diagnose_with_timeline, DiagnosisReport, TransitionLog, Verdict};
pub use msg::{
    BatchResponse, ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, SyncShare,
};
pub use protocol::{Anchor, Deposit, Direct, Exchange, Port, Protocol, TrustedClient};
pub use server::{
    HonestServer, PipelinedResponse, ReadSnapshot, ServerApi, ServerCore, ServerMetrics,
    ServerSnapshot,
};
pub use types::{Ctr, Deviation, Epoch, ProtocolConfig, ProtocolKind};

// Re-export the vocabulary types users of this crate always need.
pub use tcvs_crypto::{Digest, KeyRegistry, Keyring, UserId, NO_USER};
pub use tcvs_merkle::{Op, OpResult};

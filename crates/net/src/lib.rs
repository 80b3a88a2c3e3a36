//! # tcvs-net
//!
//! A threaded deployment of the trusted-cvs protocols: a server whose state
//! sits behind one lock, served by a server thread over crossbeam channels
//! and, while the server is idle, on the calling client's own thread;
//! client handles per user; and a deterministic fault-injection link.
//!
//! ## Client handles
//!
//! One struct, [`NetClient<P>`], runs any protocol's client step
//! ([`tcvs_core::Protocol`]) over the wire; [`NetClient1`], [`NetClient2`],
//! [`NetClient3`] and [`NetClientTrusted`] are its aliases. The step is the
//! one the simulator runs, so Protocol I's deposit and Protocol III's audit
//! exchange exist once, in `tcvs-core`. The only other handle,
//! [`BootstrapClient`], shares its transport state to fetch a verified copy
//! of the server's tree.
//!
//! ## Where a call runs
//!
//! A plain op or a batch window from a client bound to the [`NetServer`]
//! itself runs inline, on the client's thread, when nothing is queued or in
//! flight to the server thread, shutdown has not started and the
//! deployment is not Protocol I's blocking one. Deposits, fetches, crashes,
//! calls through a [`FaultLink`], every call of a blocking deployment and a
//! call that finds work queued go to the thread. A window that finds
//! another inline call holding the server waits for it; a plain op spins
//! briefly, then queues. Both drivers run the same serving code — journal,
//! replay check, stats and events — so only the thread differs; an inline
//! call saves the two thread wake-ups of a channel round trip.
//! `net.server.inline_ops` counts the ops inline calls executed.
//!
//! Protocol I's blocking signature deposit is reproduced physically: the
//! server thread refuses to take the next operation until the previous
//! operation's signature has arrived — experiment E6 measures what that
//! costs under contention, which is the paper's §4.3 motivation for
//! Protocol II ("this additional blocking step affects throughput in
//! systems with frequent updates"). Under faults the block is bounded by a
//! deposit timeout instead of deadlocking.
//!
//! ## Batching
//!
//! [`NetClient2::execute_batch`] sends a window of ops as one exchange; the
//! server answers with one [`tcvs_core::BatchResponse`] whose spine
//! siblings are shared across the window and whose σ-token fold
//! telescopes, and the client verifies the whole window against one
//! pre-state root (see DESIGN.md for the bounds).
//!
//! ## Resilience
//!
//! Clients return `Result<_, NetError>` on every request path and retry
//! with exponential backoff and deterministic jitter ([`RetryPolicy`]),
//! through one retry loop shared by every request kind. Every operation —
//! plain or batched window — travels in one call shape with the header
//! `(user, seq, round, trace context)`. The server journals its last
//! reply per user and answers a retry of the same `(user, seq)` from the
//! journal, in the shape the retry asks for, without re-executing
//! (exactly-once semantics). A [`FaultLink`] interposed between clients and
//! server replays a seeded [`tcvs_core::FaultPlan`] against the first
//! delivery of each call; benign faults must never raise a deviation alarm.
//! [`NetServer::crash_restart`] crash-restarts the inner server from its
//! persisted state. Shutdown drains: every backlogged and queued request is
//! served exactly as the running server would serve it — counted, traced, a
//! queued crash-restart really performed — only without deposit waits, and
//! then the thread exits.
//!
//! ## One path for every operation
//!
//! Reads and updates, verified or trusted, all take the serialized wire,
//! where every answer is covered by its protocol's detection. There is no
//! side channel that answers queries from a snapshot the server picks.
//! The server's state is visible off that path twice, and neither view is
//! trusted by its receiver: a [`BootstrapClient`] checks every chunk against
//! a root it pins, and a late joiner that anchors at a
//! [`NetServer::sample`] ([`NetClient2::join`]) learns at its next sync-up
//! whether the sample was true.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bootstrap;
mod client;
mod error;
mod fault;
mod obs;
mod server;

pub use bootstrap::{BootstrapClient, BootstrapError, BootstrapReport};
pub use client::{NetClient, NetClient1, NetClient2, NetClient3, NetClientTrusted};
pub use error::{NetError, RetryPolicy};
pub use fault::FaultLink;
pub use obs::NetStats;
pub use server::{Endpoint, NetServer, NetServerOptions, WireHandle};

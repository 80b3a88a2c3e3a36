//! # tcvs-net
//!
//! A threaded deployment of the trusted-cvs protocols: one server thread
//! serving crossbeam channels, client handles per user, and a
//! deterministic fault-injection link.
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
//! Two levers close most of the gap between the verified paths and the
//! trusted baseline (see DESIGN.md for the bounds):
//!
//! * **Batched Protocol II windows** — [`NetClient2::execute_batch`] sends
//!   a window of ops as one exchange; the server answers with one
//!   [`tcvs_core::BatchResponse`] whose spine siblings are shared across
//!   the window and whose σ-token fold telescopes, and the client verifies
//!   the whole window against one pre-state root.
//! * **Batched snapshot publication** —
//!   [`NetServerOptions::publish_every_ops`] /
//!   [`NetServerOptions::publish_interval`] amortize the read-slot swap
//!   over a bounded window of writes.
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
//! ## Concurrent read path
//!
//! Servers that opt in (the honest server does; adversaries cannot) expose
//! a second wire serving point/range queries from the latest **published
//! snapshot** — an O(1), structurally shared capture of the database that
//! the write thread refreshes after every committed operation. Reads on
//! this path run in a reader pool, in parallel with each other and with the
//! serialized write path; state transitions (all updates, and every
//! Protocol I/II/III exchange) remain strictly serialized on the original
//! wire. [`NetClientTrusted`] routes reads over it automatically;
//! [`NetSnapshotReader`] adds replay verification against the snapshot root
//! the server commits to.
//!
//! The path opens on the first bind (or [`ShardedServer::grove_epoch`]
//! sample): until then the server keeps no slot or reader pool and
//! publishes nothing, so a write edits the tree in place. The bind
//! publishes behind every earlier request, so it sees every acknowledged
//! write; from then on each publication shares the tree, and the next
//! write copies the nodes it touches.
//!
//! ## Sharded grove
//!
//! [`ShardedServer`] partitions the keyspace over N independent shard
//! servers via the restart-stable `tcvs_core::ShardRouter` and folds the
//! shard roots into one top-level **grove root**, so every verified answer
//! becomes shard proof + grove spine and clients still check a single
//! digest. [`ShardedClient2`], [`ShardedClientTrusted`], and
//! [`GroveReader`] route per key. See DESIGN.md §"Sharded grove".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bootstrap;
mod client;
mod error;
mod fault;
mod obs;
mod server;
mod shard;

pub use bootstrap::{BootstrapClient, BootstrapError, BootstrapReport};
pub use client::{NetClient1, NetClient2, NetClient3, NetClientTrusted, NetSnapshotReader};
pub use error::{NetError, RetryPolicy};
pub use fault::FaultLink;
pub use obs::NetStats;
pub use server::{Endpoint, NetServer, NetServerOptions, ReadWireHandle, WireHandle};
pub use shard::{GroveEpoch, GroveReader, ShardedClient2, ShardedClientTrusted, ShardedServer};

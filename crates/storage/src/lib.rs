//! # tcvs-storage
//!
//! The durable storage engine beneath the trusted-CVS server: a
//! checksummed append-only op log that carries the checkpoints too, and
//! kill-anywhere crash recovery.
//!
//! The layering, bottom up:
//!
//! * [`medium`] — the raw byte device: named append-only files with
//!   explicit `sync` and atomic whole-file replacement. [`MemMedium`]
//!   models an OS page cache whose unsynced tail a crash discards;
//!   [`FileMedium`] is the real thing (`fsync`, `rename`, directory sync).
//! * [`fault`] — [`FaultMedium`], a shim that injects
//!   [`tcvs_core::StorageFault`]s (torn writes, lost fsyncs, bit flips,
//!   short reads) between the engine and any medium.
//! * [`log`] — commit framing (`[len][payload][checksum]`, one frame per
//!   commit, payload `[lsn]([tag][len][body])+`) and the segment scanner
//!   that classifies damage: torn tail vs. corruption vs. splice.
//! * [`storage`] — the [`Storage`] trait (batch → atomic commit →
//!   recover) with the [`MemStorage`] and [`DurableStorage`] backends:
//!   segment rotation, checkpoints streamed through the log, pruning.
//! * [`engine`] — [`DurableServer`], the [`tcvs_core::ServerApi`]
//!   implementation with write-ahead discipline: log → fsync → apply →
//!   reply, and real recovery on [`tcvs_core::ServerApi::crash_restart`].
//!
//! ```
//! use tcvs_core::{ProtocolConfig, ServerApi};
//! use tcvs_merkle::{u64_key, Op};
//! use tcvs_storage::{
//!     DurabilityOptions, DurableOptions, DurableServer, DurableStorage, MemMedium, StorageObs,
//! };
//!
//! let medium = MemMedium::new();
//! let config = ProtocolConfig { order: 4, k: 4, epoch_len: 10 };
//! let store = DurableStorage::open(medium.clone(), DurableOptions::default());
//! let mut server = DurableServer::open(
//!     store, config, DurabilityOptions::default(), StorageObs::disabled()).unwrap();
//! server.handle_op_seq(0, 0, &Op::Put(u64_key(1), b"v".to_vec()), 0);
//! let root = server.core().root_digest();
//!
//! // Kill the process (drop) and the page cache (crash); recover.
//! drop(server);
//! medium.crash();
//! let store = DurableStorage::open(medium, DurableOptions::default());
//! let server = DurableServer::open(
//!     store, config, DurabilityOptions::default(), StorageObs::disabled()).unwrap();
//! assert_eq!(server.core().root_digest(), root);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod engine;
pub mod error;
pub mod fault;
pub mod log;
pub mod medium;
pub mod record;
pub mod storage;

pub use codec::DurableState;
pub use engine::{DurabilityOptions, DurableServer, StorageObs};
pub use error::StorageError;
pub use fault::FaultMedium;
pub use log::{SegmentScan, TailStatus};
pub use medium::{FileMedium, Medium, MemMedium};
pub use record::{JournalEntry, Record, NO_SEQ};
pub use storage::{
    DurableOptions, DurableStorage, MemStorage, Recovered, RecoveryReport, Storage, TornTail,
    WriteBatch,
};
pub use tcvs_core::wire::response_bytes;

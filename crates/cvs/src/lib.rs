//! # tcvs-cvs
//!
//! The CVS front end of trusted-cvs: checkout / commit / update / log /
//! diff / annotate over the **authenticated** database, so every command's
//! result is verified against the server's Merkle commitments and every
//! server deviation surfaces as an error.
//!
//! Files map to database entries `f:<path>` whose values are RCS-style
//! reverse-delta histories (`tcvs-store`); commands are verified database
//! operations executed through any [`VerifiedDb`] session — in-process
//! ([`DirectSession`]), threaded (`tcvs-net` clients via the closure
//! adapter), or a test double.
//!
//! ```
//! use tcvs_core::{HonestServer, ProtocolConfig};
//! use tcvs_cvs::{Cvs, DirectSession};
//!
//! let config = ProtocolConfig::default();
//! let mut session = DirectSession::new(0, HonestServer::new(&config), config);
//! let mut cvs = Cvs::new(&mut session, "alice");
//!
//! cvs.add("Common.h", "#pragma once\n", "initial import", 1).unwrap();
//! let mut wf = cvs.checkout("Common.h").unwrap();
//! wf.lines.push("#define VERSION 2".to_string());
//! let rev = cvs.commit(&wf, "bump version", 2).unwrap();
//! assert_eq!(rev, 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod error;
pub mod repl;
mod session;
mod wc;

pub use client::{file_key, key_path, Cvs, WorkingFile};
pub use error::CvsError;
pub use repl::Repl;
pub use session::{DirectSession, Session, UnverifiedSession, VerifiedDb};
pub use wc::{FileStatus, WorkingCopy};

//! # tcvs-crypto
//!
//! Cryptographic substrate for the trusted-cvs reproduction of
//! *"Trusted CVS"* (ICDE 2006): a from-scratch SHA-256, a deterministic
//! ChaCha20-based RNG, hash-based one-time signatures (Lamport, Winternitz),
//! the Merkle Signature Scheme, a key registry standing in for the
//! paper's PKI assumption, and the CRC-32C frame check of the storage
//! engine's own files.
//!
//! Everything here rests on a single assumption — collision-intractability of
//! the hash — which is exactly the assumption the paper makes for its Merkle
//! trees, so no new trust is introduced by the signature layer.
//!
//! ```
//! use tcvs_crypto::{sha256, setup_users};
//!
//! let (mut users, registry) = setup_users([0u8; 32], 2, 4);
//! let msg = sha256(b"h(M(D) || ctr)");
//! let sig = users[0].sign(&msg).unwrap();
//! assert!(registry.verify(0, &msg, &sig));
//! ```

#![warn(missing_docs)]
// Unsafe is denied rather than forbidden in this one crate: the SHA-256
// and CRC-32C modules carry tightly-scoped exceptions for their hardware
// backends (SHA-NI, SSE4.2 `crc32`), each gated on runtime CPU feature
// detection and cross-checked against the portable implementation by the
// test suite. Everything else in the workspace forbids unsafe outright.
#![deny(unsafe_code)]

pub mod crc32c;
pub mod digest;
pub mod lamport;
pub mod mss;
pub mod multilane;
pub mod registry;
pub mod rng;
pub mod sha256;
pub mod wots;

pub use crc32c::{crc32c, crc32c_append};
pub use digest::Digest;
pub use mss::{mss_verify, MssError, MssPublicKey, MssSignature, MssSigner};
pub use multilane::{lanes as sha_lanes, sha256_many};
pub use registry::{setup_users, KeyRegistry, Keyring, UserId, NO_USER};
pub use rng::SeedRng;
pub use sha256::{hash_pair, hash_parts, sha256, Sha256};

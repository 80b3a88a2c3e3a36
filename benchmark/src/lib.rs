//! The trusted-cvs benchmark: one closed-loop harness, four named
//! workloads, end-to-end metrics and per-layer spans. See `README.md`.

pub mod catalogue;
pub mod gen;
pub mod json;
pub mod layers;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;

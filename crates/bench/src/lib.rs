//! # tcvs-bench
//!
//! The experiment harness: every table and figure of the paper's argument,
//! regenerated as code. Run `cargo run -p tcvs-bench --bin expgen --release`
//! for the full suite, or `expgen e3 --quick` for one experiment.
//!
//! | id | paper artifact | claim reproduced |
//! |----|----------------|------------------|
//! | E1 | Fig. 2 / §4.1 | verification objects are O(log n) |
//! | E2 | Thms. 4.1-4.3 | per-op overhead constants (c-workload preservation) |
//! | E3 | Fig. 1 / Thm. 3.1 | partition attack: impossible without, k-bounded with, external comm |
//! | E4 | Fig. 3 / Lemma 4.1 | untagged XOR is unsound; user tags fix it |
//! | E5 | Fig. 4 / Thm. 4.3 | Protocol III detects within 2 epochs |
//! | E6 | §4.3 motivation | Protocol I's blocking step costs throughput |
//! | E7 | §2.2.3 | token-ring strawman violates workload preservation |
//! | E8 | §4.2 PKI assumption | hash/signature substrate costs |
//! | E9 | §1 | end-to-end CVS overhead of trusting nothing |
//! | E10 | §2.2.1 | detection matrix across adversaries × protocols |
//! | E11 | Thms. 4.1/4.3 | measured detection latency vs theoretical bounds |
//! | E12 | §2.1 model | seeded runs export byte-identical trace/metric artifacts |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod results;
pub mod table;

pub use table::Table;

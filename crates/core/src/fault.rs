//! Deterministic fault plans: scheduled *benign* faults for the partial-
//! synchrony experiments.
//!
//! The paper's deviation detectors (Definition 2.1) must tell a server that
//! *deviates* apart from a network that merely *misbehaves* — drops, delays,
//! duplicates, reorders messages, or lets the server crash and restart from
//! persisted state. A [`FaultPlan`] schedules such faults at operation
//! indices, either explicitly or pseudo-randomly from a seed, so both the
//! round-based simulator (`tcvs-sim`) and the threaded deployment
//! (`tcvs-net`) can inject the *same* fault sequence and the oracles can
//! assert that benign faults never raise a deviation alarm.

use std::collections::BTreeMap;

use tcvs_crypto::SeedRng;

/// One benign fault, applied to the operation scheduled at some index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation request is lost before reaching the server; the client
    /// retries.
    DropRequest,
    /// The server executes the operation but its reply is lost; the client
    /// retries and must receive the *same* response (exactly-once).
    DropReply,
    /// Delivery is delayed by this many rounds (bounded, per the partial-
    /// synchrony assumption).
    Delay(u64),
    /// The request is delivered twice; the duplicate must not re-execute.
    Duplicate,
    /// This operation is delivered *after* the next one (adjacent reorder).
    ReorderNext,
    /// The server crashes after serving this operation and restarts from
    /// its persisted state before the next one.
    CrashRestart,
    /// The storage medium misbehaves around this operation's commit. The
    /// fault applies *below* the storage engine (between engine and
    /// medium), not on the wire; network links pass it through untouched.
    Storage(StorageFault),
}

/// One benign storage-medium fault, injected by a shim between the storage
/// engine and its medium. All four model real disk behavior that a durable
/// engine must survive: recovery may lose the *unacknowledged* tail but must
/// never corrupt acknowledged state and never replay a torn record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The append is cut short mid-record (power loss mid-write): only a
    /// prefix of the record reaches the medium.
    TornWrite,
    /// A read returns fewer bytes than the file holds (transient short
    /// read); a retry sees the full contents.
    ShortRead,
    /// An fsync is silently dropped: the data sits in the volatile cache
    /// and is lost if a crash follows before the next successful sync.
    FsyncLost,
    /// A single bit of the just-written record flips on the medium
    /// (latent sector corruption); the record checksum must catch it.
    BitFlip,
}

/// Per-operation fault probabilities (percent) for seeded plan generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRates {
    /// Chance an operation's request or reply is dropped.
    pub drop_pct: u8,
    /// Chance an operation is delayed.
    pub delay_pct: u8,
    /// Chance a request is duplicated.
    pub dup_pct: u8,
    /// Chance an operation is reordered past its successor.
    pub reorder_pct: u8,
    /// Chance the server crash-restarts after an operation.
    pub crash_pct: u8,
    /// Chance the storage medium faults around an operation's commit.
    pub storage_pct: u8,
    /// Maximum delay, in rounds (delays are 1..=max).
    pub max_delay_rounds: u64,
}

impl Default for FaultRates {
    fn default() -> FaultRates {
        FaultRates::light()
    }
}

impl FaultRates {
    /// A lightly faulty network: occasional drops and delays.
    pub fn light() -> FaultRates {
        FaultRates {
            drop_pct: 5,
            delay_pct: 5,
            dup_pct: 3,
            reorder_pct: 3,
            crash_pct: 1,
            storage_pct: 1,
            max_delay_rounds: 3,
        }
    }

    /// A hostile-but-benign network: every fault kind is frequent.
    pub fn heavy() -> FaultRates {
        FaultRates {
            drop_pct: 15,
            delay_pct: 15,
            dup_pct: 10,
            reorder_pct: 10,
            crash_pct: 5,
            storage_pct: 5,
            max_delay_rounds: 8,
        }
    }

    fn total_pct(&self) -> u64 {
        self.drop_pct as u64
            + self.delay_pct as u64
            + self.dup_pct as u64
            + self.reorder_pct as u64
            + self.crash_pct as u64
            + self.storage_pct as u64
    }
}

/// How many faults of each kind a plan carries (reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Dropped requests plus dropped replies.
    pub drops: u64,
    /// Delayed deliveries.
    pub delays: u64,
    /// Duplicated requests.
    pub duplicates: u64,
    /// Adjacent reorders.
    pub reorders: u64,
    /// Server crash-restarts.
    pub crashes: u64,
    /// Storage-medium faults (torn writes, short reads, lost fsyncs,
    /// bit-flips).
    pub storage: u64,
}

impl FaultCounts {
    /// Total scheduled faults.
    pub fn total(&self) -> u64 {
        self.drops + self.delays + self.duplicates + self.reorders + self.crashes + self.storage
    }
}

/// A schedule of benign faults keyed by global operation index.
///
/// At most one fault per operation; the plan is immutable once built and
/// cheap to share between a harness and its oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    /// The empty plan: a perfect network.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True iff no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Schedules `kind` at operation `at_op` (replacing any prior fault
    /// there). `Delay(0)` is normalized away.
    pub fn schedule(&mut self, at_op: u64, kind: FaultKind) -> &mut FaultPlan {
        if kind == FaultKind::Delay(0) {
            self.faults.remove(&at_op);
        } else {
            self.faults.insert(at_op, kind);
        }
        self
    }

    /// Builds a plan of `n_ops` operations pseudo-randomly from `seed`.
    /// The same seed always yields the same plan.
    pub fn seeded(seed: u64, n_ops: u64, rates: &FaultRates) -> FaultPlan {
        let mut label = Vec::with_capacity(24);
        label.extend_from_slice(b"tcvs-fault-plan:");
        label.extend_from_slice(&seed.to_le_bytes());
        let mut rng = SeedRng::from_label(&label);
        let mut plan = FaultPlan::none();
        let total = rates.total_pct().min(100);
        for op in 0..n_ops {
            let roll = rng.next_below(100);
            if roll >= total {
                continue;
            }
            let mut edge = rates.drop_pct as u64;
            let kind = if roll < edge {
                if rng.next_below(2) == 0 {
                    FaultKind::DropRequest
                } else {
                    FaultKind::DropReply
                }
            } else if roll < {
                edge += rates.delay_pct as u64;
                edge
            } {
                FaultKind::Delay(1 + rng.next_below(rates.max_delay_rounds.max(1)))
            } else if roll < {
                edge += rates.dup_pct as u64;
                edge
            } {
                FaultKind::Duplicate
            } else if roll < {
                edge += rates.reorder_pct as u64;
                edge
            } {
                // Reordering needs a successor to swap with.
                if op + 1 >= n_ops {
                    continue;
                }
                FaultKind::ReorderNext
            } else if roll < {
                edge += rates.crash_pct as u64;
                edge
            } {
                FaultKind::CrashRestart
            } else {
                FaultKind::Storage(match rng.next_below(4) {
                    0 => StorageFault::TornWrite,
                    1 => StorageFault::ShortRead,
                    2 => StorageFault::FsyncLost,
                    _ => StorageFault::BitFlip,
                })
            };
            plan.schedule(op, kind);
        }
        plan
    }

    /// The fault scheduled at operation `op_index`, if any.
    pub fn fault_at(&self, op_index: u64) -> Option<FaultKind> {
        self.faults.get(&op_index).copied()
    }

    /// Iterates scheduled faults in operation order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, FaultKind)> + '_ {
        self.faults.iter().map(|(k, v)| (*k, *v))
    }

    /// Per-kind totals.
    pub fn counts(&self) -> FaultCounts {
        let mut c = FaultCounts::default();
        for kind in self.faults.values() {
            match kind {
                FaultKind::DropRequest | FaultKind::DropReply => c.drops += 1,
                FaultKind::Delay(_) => c.delays += 1,
                FaultKind::Duplicate => c.duplicates += 1,
                FaultKind::ReorderNext => c.reorders += 1,
                FaultKind::CrashRestart => c.crashes += 1,
                FaultKind::Storage(_) => c.storage += 1,
            }
        }
        c
    }

    /// The order in which `n_ops` trace entries are actually delivered
    /// after applying every adjacent reorder, as indices into the trace.
    /// Swaps apply left to right; each is skipped if its successor was
    /// already consumed by an earlier swap.
    pub fn effective_order(&self, n_ops: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n_ops).collect();
        for (&at, kind) in &self.faults {
            if *kind != FaultKind::ReorderNext {
                continue;
            }
            let pos = at as usize;
            if pos + 1 < order.len() {
                order.swap(pos, pos + 1);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let rates = FaultRates::heavy();
        let a = FaultPlan::seeded(7, 500, &rates);
        let b = FaultPlan::seeded(7, 500, &rates);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 500, &rates);
        assert_ne!(a, c, "different seeds give different plans");
        assert!(!a.is_empty(), "heavy rates over 500 ops schedule faults");
    }

    #[test]
    fn seeded_plan_respects_rate_bounds() {
        let rates = FaultRates {
            drop_pct: 0,
            delay_pct: 100,
            dup_pct: 0,
            reorder_pct: 0,
            crash_pct: 0,
            storage_pct: 0,
            max_delay_rounds: 4,
        };
        let plan = FaultPlan::seeded(1, 200, &rates);
        assert_eq!(plan.len(), 200);
        for (_, kind) in plan.iter() {
            match kind {
                FaultKind::Delay(d) => assert!((1..=4).contains(&d)),
                other => panic!("only delays were scheduled, got {other:?}"),
            }
        }
        assert_eq!(plan.counts().delays, 200);
    }

    #[test]
    fn zero_rates_schedule_nothing() {
        let rates = FaultRates {
            drop_pct: 0,
            delay_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            crash_pct: 0,
            storage_pct: 0,
            max_delay_rounds: 1,
        };
        assert!(FaultPlan::seeded(3, 1000, &rates).is_empty());
    }

    #[test]
    fn effective_order_is_a_permutation() {
        let mut plan = FaultPlan::none();
        plan.schedule(0, FaultKind::ReorderNext)
            .schedule(3, FaultKind::ReorderNext)
            .schedule(9, FaultKind::ReorderNext); // no successor: ignored
        let order = plan.effective_order(10);
        assert_eq!(order.len(), 10);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(&order[..2], &[1, 0]);
        assert_eq!(&order[3..5], &[4, 3]);
    }

    #[test]
    fn reorder_never_scheduled_on_the_last_op() {
        let rates = FaultRates {
            drop_pct: 0,
            delay_pct: 0,
            dup_pct: 0,
            reorder_pct: 100,
            crash_pct: 0,
            storage_pct: 0,
            max_delay_rounds: 1,
        };
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 6, &rates);
            assert!(plan.fault_at(5).is_none(), "seed {seed}");
        }
    }

    #[test]
    fn storage_only_rates_schedule_storage_faults() {
        let rates = FaultRates {
            drop_pct: 0,
            delay_pct: 0,
            dup_pct: 0,
            reorder_pct: 0,
            crash_pct: 0,
            storage_pct: 100,
            max_delay_rounds: 1,
        };
        let plan = FaultPlan::seeded(11, 200, &rates);
        assert_eq!(plan.len(), 200);
        let mut kinds = [false; 4];
        for (_, kind) in plan.iter() {
            match kind {
                FaultKind::Storage(StorageFault::TornWrite) => kinds[0] = true,
                FaultKind::Storage(StorageFault::ShortRead) => kinds[1] = true,
                FaultKind::Storage(StorageFault::FsyncLost) => kinds[2] = true,
                FaultKind::Storage(StorageFault::BitFlip) => kinds[3] = true,
                other => panic!("only storage faults were scheduled, got {other:?}"),
            }
        }
        assert_eq!(kinds, [true; 4], "all four storage faults appear");
        assert_eq!(plan.counts().storage, 200);
    }

    #[test]
    fn schedule_overwrites_and_normalizes() {
        let mut plan = FaultPlan::none();
        plan.schedule(4, FaultKind::Duplicate);
        plan.schedule(4, FaultKind::CrashRestart);
        assert_eq!(plan.fault_at(4), Some(FaultKind::CrashRestart));
        plan.schedule(4, FaultKind::Delay(0));
        assert!(plan.is_empty(), "zero delay removes the fault");
    }
}

//! Storage fault injection: a [`Medium`] shim that misbehaves on schedule.
//!
//! [`FaultMedium`] sits between the engine and a real medium and applies
//! [`StorageFault`]s from a [`tcvs_core::FaultPlan`]-style schedule, keyed
//! by *append index* (the n-th `append` call — one per commit, whose one
//! frame carries any checkpoint piece riding along; so under a
//! pure op workload, append index = op index, and a `checkpoint_now`
//! appends one or two commits of its own):
//!
//! * `TornWrite` — only a prefix of the commit reaches the medium, then
//!   the medium goes dead (the process would have lost power mid-write).
//!   The engine sees an error; recovery must detect and discard the torn
//!   tail, and fall back to the previous checkpoint if it held a piece.
//! * `FsyncLost` — the sync after the faulted append silently succeeds
//!   without making anything durable: the classic lying-fsync. Harmless
//!   unless a crash follows before the next real sync.
//! * `BitFlip` — one bit of the appended commit flips on the way down
//!   (latent sector corruption). The commit's checksum must catch it at
//!   recovery; until then reads return the corrupted bytes.
//! * `ShortRead` — the next `read` of each file returns a prefix; a retry
//!   sees the full contents. Recovery must re-read rather than mistake the
//!   transient truncation for a torn tail.

use std::collections::BTreeMap;

use tcvs_core::StorageFault;

use crate::error::StorageError;
use crate::medium::Medium;

/// A fault-injecting wrapper around a [`Medium`] (see module docs).
pub struct FaultMedium<M: Medium> {
    inner: M,
    faults: BTreeMap<u64, StorageFault>,
    appends: u64,
    /// Set by a torn write: the medium is dead until [`FaultMedium::heal`].
    dead: bool,
    /// Set by `FsyncLost`: the next sync is silently dropped.
    lose_next_sync: bool,
    /// Armed by `ShortRead`: exactly one upcoming read returns a prefix.
    /// A `Cell` because `read` takes `&self` (transient faults are a read-
    /// side property); `Cell<bool>` keeps the medium `Send`.
    short_read_pending: std::cell::Cell<bool>,
    applied: u64,
}

impl<M: Medium> FaultMedium<M> {
    /// Wraps `inner` with an empty schedule (transparent until scheduled).
    pub fn new(inner: M) -> FaultMedium<M> {
        FaultMedium {
            inner,
            faults: BTreeMap::new(),
            appends: 0,
            dead: false,
            lose_next_sync: false,
            short_read_pending: std::cell::Cell::new(false),
            applied: 0,
        }
    }

    /// Schedules `fault` at append index `at` (the n-th future append).
    pub fn schedule(&mut self, at: u64, fault: StorageFault) -> &mut Self {
        self.faults.insert(at, fault);
        self
    }

    /// Revives a medium killed by a torn write (models the restart after
    /// the power loss).
    pub fn heal(&mut self) {
        self.dead = false;
    }

    /// Arms one short read directly (recovery-side tests have no append to
    /// hang a scheduled `ShortRead` on).
    pub fn arm_short_read(&mut self) {
        self.short_read_pending.set(true);
        self.applied += 1;
    }

    /// Faults applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    fn check_dead(&self) -> Result<(), StorageError> {
        if self.dead {
            Err(StorageError::io("medium dead after torn write"))
        } else {
            Ok(())
        }
    }
}

impl<M: Medium> Medium for FaultMedium<M> {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.check_dead()?;
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.check_dead()?;
        let full = self.inner.read(name)?;
        if self.short_read_pending.get() {
            if let Some(data) = &full {
                if data.len() > 1 {
                    self.short_read_pending.set(false);
                    return Ok(Some(data[..data.len() / 2].to_vec()));
                }
            }
        }
        Ok(full)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.check_dead()?;
        let idx = self.appends;
        self.appends += 1;
        match self.faults.get(&idx).copied() {
            None => self.inner.append(name, data),
            Some(StorageFault::TornWrite) => {
                self.applied += 1;
                let torn = &data[..data.len() / 2];
                if !torn.is_empty() {
                    self.inner.append(name, torn)?;
                }
                self.dead = true;
                Err(StorageError::io("torn write: power lost mid-append"))
            }
            Some(StorageFault::FsyncLost) => {
                self.applied += 1;
                self.lose_next_sync = true;
                self.inner.append(name, data)
            }
            Some(StorageFault::BitFlip) => {
                self.applied += 1;
                let mut flipped = data.to_vec();
                let bit = (idx as usize).wrapping_mul(7) % (flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                self.inner.append(name, &flipped)
            }
            Some(StorageFault::ShortRead) => {
                self.applied += 1;
                self.short_read_pending.set(true);
                self.inner.append(name, data)
            }
        }
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        self.check_dead()?;
        if self.lose_next_sync {
            self.lose_next_sync = false;
            return Ok(()); // the lie: reported durable, actually not
        }
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.check_dead()?;
        self.inner.write_atomic(name, data)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.check_dead()?;
        self.inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        self.check_dead()?;
        self.inner.truncate(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;

    #[test]
    fn torn_write_kills_the_medium_until_healed() {
        let mem = MemMedium::new();
        let mut m = FaultMedium::new(mem.clone());
        m.schedule(1, StorageFault::TornWrite);
        m.append("f", b"first").unwrap();
        let err = m.append("f", b"secondsecond").unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(m.append("f", b"x").is_err(), "dead until healed");
        m.heal();
        m.append("f", b"x").unwrap();
        // Prefix of the torn batch landed.
        assert_eq!(mem.read("f").unwrap().unwrap(), b"firstsecondx");
        assert_eq!(m.applied(), 1);
    }

    #[test]
    fn lost_fsync_leaves_data_volatile() {
        let mem = MemMedium::new();
        let mut m = FaultMedium::new(mem.clone());
        m.schedule(1, StorageFault::FsyncLost);
        m.append("f", b"safe").unwrap();
        m.sync("f").unwrap();
        m.append("f", b" lost").unwrap();
        m.sync("f").unwrap(); // silently dropped
        mem.crash();
        assert_eq!(mem.read("f").unwrap().unwrap(), b"safe");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let mem = MemMedium::new();
        let mut m = FaultMedium::new(mem.clone());
        m.schedule(0, StorageFault::BitFlip);
        m.append("f", &[0u8; 8]).unwrap();
        let data = mem.read("f").unwrap().unwrap();
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn short_read_is_transient() {
        let mem = MemMedium::new();
        let mut m = FaultMedium::new(mem);
        m.schedule(0, StorageFault::ShortRead);
        m.append("f", b"0123456789").unwrap();
        assert_eq!(m.read("f").unwrap().unwrap(), b"01234", "first read short");
        assert_eq!(m.read("f").unwrap().unwrap(), b"0123456789", "retry full");
    }
}

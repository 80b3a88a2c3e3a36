//! The four named workloads: what each client asks for, in what order, and
//! what answer its local model expects back.
//!
//! A workload is a [`sut::Plan`] (which stack, preloaded with what) plus one
//! seeded script per client. Scripts are compact — an item index and a
//! kind per entry — and are generated in full during set-up; a [`Driver`]
//! walks one script, materialises each request just before it is issued
//! (outside the timed call), and checks every reply against the model of
//! the items its client owns. Clients write only their own half of the
//! items (odd or even index), so the model is exact without coordination.

use std::path::Path;

use crate::gen::{
    check_value, file_line, file_path, key_bytes, value_bytes, ScriptHash, SplitMix64, Zipf,
};
use crate::sut::{imported_lines, Plan, Preload, Reply, Req, Stack, USERS};

/// Ops per batched window: a 32-file commit or `checkout_all`.
const WINDOW: usize = 32;
const VALUE_LEN: usize = 256;
const FILE_LINES: u32 = 40;
/// Database operations between checkpoints of the durable server. A
/// checkpoint stalls the call that triggers it and the other client's call
/// in flight. At the program's default of 256 that is 0.9 % of reads —
/// which put `read_p99_us` on the edge of the stalled population, where it
/// flipped between 1.0 and 1.5 ms from seed to seed (27 % spread). At 128
/// it is 1.9 % of reads and 2.7 % of writes: both p99s sit inside the
/// stalled population and measure the stall (5–6 % spread).
const CHECKPOINT_EVERY: u64 = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    PointRead,
    BatchWrite,
    Signed,
    DurableTeam,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    kind: Kind,
}

/// The permanent workload set, in report order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "p2-point-read",
        why: "Per-op Protocol II, 95% Get / 5% Put, Zipf 0.99 over 65,536 keys x 256 B (tree larger than L2): point proofs, client replay and the channel hop dominate; a batching change must not move it.",
        kind: Kind::PointRead,
    },
    Workload {
        name: "p2-batch-write",
        why: "Protocol II windows of 32, alternating all-Put and all-Get, uniform keys over the same tree: COW updates, shared-sibling batch proofs, multi-lane SHA; the hop is amortised 32x, bypassing per-op cost.",
        kind: Kind::BatchWrite,
    },
    Workload {
        name: "p1-signed",
        why: "Protocol I with blocking signature deposits, MSS height 14, 50/50 uniform over 4,096 keys (fits cache): MSS sign/verify and the deposit wait dominate; storage and batching are bypassed.",
        kind: Kind::Signed,
    },
    Workload {
        name: "cvs-durable-team",
        why: "Two developers on Cvs over the durable server (fsync per op, checkpoint every 128 ops), 60% checkout Zipf 0.8 / 40% edit+commit of own files: only here do storage, store and cvs do most of the work.",
        kind: Kind::DurableTeam,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// Sizes that differ between a full run and `--quick`.
struct Sizes {
    items: u32,
    /// Script entries (calls) per client: the run ends at the deadline or
    /// when a script runs out, whichever comes first.
    calls: usize,
    mss_height: u32,
}

impl Workload {
    fn sizes(&self, quick: bool) -> Sizes {
        let (items, calls, mss_height) = match (self.kind, quick) {
            (Kind::PointRead, false) => (65_536, 500_000, 0),
            (Kind::PointRead, true) => (2_048, 20_000, 0),
            (Kind::BatchWrite, false) => (65_536, 50_000, 0),
            (Kind::BatchWrite, true) => (2_048, 1_000, 0),
            // A user signs once per op and once at initialisation; the
            // script must fit the key.
            (Kind::Signed, false) => (4_096, 16_000, 14),
            (Kind::Signed, true) => (256, 500, 9),
            (Kind::DurableTeam, false) => (512, 24_000, 0),
            (Kind::DurableTeam, true) => (32, 1_000, 0),
        };
        Sizes {
            items,
            calls,
            mss_height,
        }
    }

    /// Verified operations one call stands for.
    pub fn ops_per_call(&self) -> u64 {
        match self.kind {
            Kind::BatchWrite => WINDOW as u64,
            _ => 1,
        }
    }

    /// Whether calls are CVS commands (each several database operations).
    pub fn is_cvs(&self) -> bool {
        self.kind == Kind::DurableTeam
    }

    pub fn plan(&self, quick: bool, data_dir: &Path) -> Plan {
        let sizes = self.sizes(quick);
        Plan {
            stack: match self.kind {
                Kind::PointRead | Kind::BatchWrite => Stack::P2,
                Kind::Signed => Stack::P1,
                Kind::DurableTeam => Stack::CvsDurable,
            },
            preload: match self.kind {
                Kind::DurableTeam => Preload::Files {
                    files: sizes.items,
                    lines: FILE_LINES,
                },
                _ => Preload::Values {
                    keys: sizes.items,
                    value_len: VALUE_LEN,
                },
            },
            mss_height: sizes.mss_height,
            checkpoint_every: CHECKPOINT_EVERY,
            data_dir: data_dir.to_path_buf(),
        }
    }

    /// Both clients' scripts for `seed`.
    pub fn script(&self, seed: u64, quick: bool) -> Script {
        let sizes = self.sizes(quick);
        let zipf = match self.kind {
            Kind::PointRead => Some(Zipf::new(sizes.items as usize, 0.99, seed)),
            Kind::DurableTeam => Some(Zipf::new(sizes.items as usize, 0.8, seed)),
            _ => None,
        };
        let mut hash = ScriptHash::new();
        let users = (0..USERS)
            .map(|user| {
                let mut rng = SplitMix64::fork(seed, user as u64 + 1);
                let own = |idx: u32| (idx & !1) | user;
                let any = |rng: &mut SplitMix64| rng.below(sizes.items as u64) as u32;
                let mut entries = Vec::new();
                for call in 0..sizes.calls {
                    match self.kind {
                        Kind::PointRead => {
                            let idx = zipf.as_ref().expect("built above").sample(&mut rng) as u32;
                            entries.push(if rng.below(100) < 5 {
                                Entry::write(own(idx))
                            } else {
                                Entry::read(idx)
                            });
                        }
                        Kind::BatchWrite => {
                            for _ in 0..WINDOW {
                                let idx = any(&mut rng);
                                entries.push(if call % 2 == 0 {
                                    Entry::write(own(idx))
                                } else {
                                    Entry::read(idx)
                                });
                            }
                        }
                        Kind::Signed => {
                            let idx = any(&mut rng);
                            entries.push(if rng.below(2) == 0 {
                                Entry::write(own(idx))
                            } else {
                                Entry::read(idx)
                            });
                        }
                        Kind::DurableTeam => {
                            entries.push(if rng.below(100) < 40 {
                                let (a, b) = (
                                    rng.below(FILE_LINES as u64) as u32,
                                    rng.below(FILE_LINES as u64) as u32,
                                );
                                Entry::edit(own(any(&mut rng)), a, b)
                            } else {
                                let idx = zipf.as_ref().expect("built above").sample(&mut rng);
                                Entry::read(idx as u32)
                            });
                        }
                    }
                }
                for e in &entries {
                    hash.feed(e.0);
                }
                entries
            })
            .collect();
        Script {
            users,
            hash,
            kind: self.kind,
            items: sizes.items,
        }
    }
}

/// One script entry: item index in the low 32 bits, two line numbers above
/// them, the write flag on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry(u64);

impl Entry {
    const WRITE: u64 = 1 << 63;

    fn read(idx: u32) -> Entry {
        Entry(idx as u64)
    }

    fn write(idx: u32) -> Entry {
        Entry(idx as u64 | Entry::WRITE)
    }

    fn edit(idx: u32, line_a: u32, line_b: u32) -> Entry {
        Entry(idx as u64 | (line_a as u64) << 32 | (line_b as u64) << 40 | Entry::WRITE)
    }

    fn idx(self) -> u32 {
        self.0 as u32
    }

    fn is_write(self) -> bool {
        self.0 & Entry::WRITE != 0
    }

    fn lines(self) -> (u32, u32) {
        ((self.0 >> 32) as u32 & 0xff, (self.0 >> 40) as u32 & 0xff)
    }
}

/// The generated inputs of one run.
pub struct Script {
    users: Vec<Vec<Entry>>,
    /// Fingerprint of every entry of every user, in order.
    pub hash: ScriptHash,
    kind: Kind,
    items: u32,
}

impl Script {
    /// Calls in each client's script.
    pub fn calls_per_user(&self) -> usize {
        match self.kind {
            Kind::BatchWrite => self.users[0].len() / WINDOW,
            _ => self.users[0].len(),
        }
    }

    /// One driver per client, in user order.
    pub fn drivers(&self) -> Vec<Driver<'_>> {
        self.users
            .iter()
            .enumerate()
            .map(|(user, entries)| Driver {
                kind: self.kind,
                user: user as u32,
                entries,
                next: 0,
                pending: &[],
                versions: match self.kind {
                    Kind::DurableTeam => Vec::new(),
                    _ => vec![0; self.items as usize / 2 + 1],
                },
                files: match self.kind {
                    Kind::DurableTeam => (0..self.items)
                        .filter(|idx| idx % USERS == user as u32)
                        .map(|idx| (imported_lines(idx, FILE_LINES), 1))
                        .collect(),
                    _ => Vec::new(),
                },
                edits: 0,
            })
            .collect()
    }
}

/// Walks one client's script and keeps the model of the items it owns.
pub struct Driver<'a> {
    kind: Kind,
    user: u32,
    entries: &'a [Entry],
    next: usize,
    /// The entries of the request last handed out, for [`Driver::check`].
    pending: &'a [Entry],
    /// Key-value workloads: current version of each owned key.
    versions: Vec<u32>,
    /// CVS workload: head lines and revision of each owned file.
    files: Vec<(Vec<String>, u32)>,
    edits: u32,
}

impl Driver<'_> {
    /// The next request, or `None` when the script has run out. Owned
    /// items are updated in the model here; [`Driver::check`] compares the
    /// reply against it.
    pub fn next_request(&mut self) -> Option<Req> {
        let width = if self.kind == Kind::BatchWrite {
            WINDOW
        } else {
            1
        };
        let script = self.entries; // the slice outlives `self`'s borrow
        let entries = script.get(self.next..self.next + width)?;
        self.next += width;
        self.pending = entries;
        let first = entries[0];
        Some(match self.kind {
            Kind::PointRead | Kind::Signed => {
                if first.is_write() {
                    let (key, value) = self.bump(first.idx());
                    Req::put(key, value)
                } else {
                    Req::get(key_bytes(first.idx()))
                }
            }
            Kind::BatchWrite => {
                if first.is_write() {
                    Req::put_window(entries.iter().map(|e| self.bump(e.idx())).collect())
                } else {
                    Req::get_window(entries.iter().map(|e| key_bytes(e.idx())).collect())
                }
            }
            Kind::DurableTeam => {
                let idx = first.idx();
                if first.is_write() {
                    self.edits += 1;
                    let (a, b) = first.lines();
                    // Tag the edit with the user so two developers never
                    // write the same text.
                    let edit = self.edits * USERS + self.user;
                    let (lines, rev) = &mut self.files[(idx / USERS) as usize];
                    lines[a as usize] = file_line(idx, a, edit);
                    lines[b as usize] = file_line(idx, b, edit);
                    Req::commit(file_path(idx), lines.clone(), *rev)
                } else {
                    Req::checkout(file_path(idx))
                }
            }
        })
    }

    /// Advances an owned key to its next version.
    fn bump(&mut self, idx: u32) -> (Vec<u8>, Vec<u8>) {
        let v = &mut self.versions[(idx / USERS) as usize];
        *v += 1;
        (key_bytes(idx), value_bytes(idx, *v, VALUE_LEN))
    }

    fn value_ok(&self, idx: u32, value: &Option<Vec<u8>>) -> bool {
        let Some((got_idx, got_version)) = value.as_deref().and_then(|v| check_value(v, VALUE_LEN))
        else {
            return false;
        };
        got_idx == idx
            && (idx % USERS != self.user || got_version == self.versions[(idx / USERS) as usize])
    }

    /// True iff `reply` is the right answer to the request last returned by
    /// [`Driver::next_request`]: exact for owned items, well-formed for the rest.
    pub fn check(&mut self, reply: &Reply) -> bool {
        let first = self.pending[0];
        match (self.kind, reply) {
            (Kind::PointRead | Kind::Signed, Reply::Stored) => first.is_write(),
            (Kind::PointRead | Kind::Signed, Reply::Value(v)) => {
                !first.is_write() && self.value_ok(first.idx(), v)
            }
            (Kind::BatchWrite, Reply::Values(vs)) => {
                vs.len() == self.pending.len()
                    && (first.is_write()
                        || self
                            .pending
                            .iter()
                            .zip(vs)
                            .all(|(e, v)| self.value_ok(e.idx(), v)))
            }
            (Kind::DurableTeam, Reply::Rev(rev)) => {
                let (_, model_rev) = &mut self.files[(first.idx() / USERS) as usize];
                let ok = first.is_write() && *rev == *model_rev + 1;
                *model_rev = *rev;
                ok
            }
            (Kind::DurableTeam, Reply::File { lines, rev }) => {
                let idx = first.idx();
                if first.is_write() {
                    false
                } else if idx % USERS == self.user {
                    let (model, model_rev) = &self.files[(idx / USERS) as usize];
                    lines == model && rev == model_rev
                } else {
                    let prefix = |l: u32| format!("// f{idx:03} l{l:02} ");
                    *rev >= 1
                        && lines.len() == FILE_LINES as usize
                        && lines
                            .iter()
                            .enumerate()
                            .all(|(l, text)| text.starts_with(&prefix(l as u32)))
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        for w in ALL {
            let a = w.script(11, true);
            let b = w.script(11, true);
            let c = w.script(12, true);
            assert_eq!(a.hash, b.hash, "{}", w.name);
            assert_eq!(a.users, b.users, "{}", w.name);
            assert_ne!(a.hash, c.hash, "{}", w.name);
            assert_ne!(a.users[0], a.users[1], "{}: users differ", w.name);
        }
    }

    #[test]
    fn clients_write_only_their_own_items() {
        for w in ALL {
            let s = w.script(5, true);
            for (user, entries) in s.users.iter().enumerate() {
                assert!(entries
                    .iter()
                    .filter(|e| e.is_write())
                    .all(|e| e.idx() % USERS == user as u32 && e.idx() < s.items));
                assert!(entries.iter().any(|e| e.is_write()));
                assert!(entries.iter().any(|e| !e.is_write()));
            }
        }
    }

    #[test]
    fn batch_windows_alternate_all_put_and_all_get() {
        let s = by_name("p2-batch-write").unwrap().script(3, true);
        for (w, window) in s.users[0].chunks(WINDOW).enumerate() {
            assert!(window.iter().all(|e| e.is_write() == (w % 2 == 0)));
        }
        assert_eq!(s.calls_per_user(), s.users[0].len() / WINDOW);
    }

    #[test]
    fn mixes_are_as_stated() {
        let share = |name: &str| {
            let s = by_name(name).unwrap().script(9, true);
            let writes = s.users[0].iter().filter(|e| e.is_write()).count() as f64;
            writes / s.users[0].len() as f64
        };
        assert!((share("p2-point-read") - 0.05).abs() < 0.01);
        assert!((share("p1-signed") - 0.5).abs() < 0.07);
        assert!((share("cvs-durable-team") - 0.4).abs() < 0.05);
    }

    #[test]
    fn the_signed_script_fits_its_key() {
        for quick in [false, true] {
            let w = by_name("p1-signed").unwrap();
            let sizes = w.sizes(quick);
            assert!(sizes.calls + 2 <= 1 << sizes.mss_height);
        }
    }
}

//! The medium: the flat byte-file surface the durable engine writes to.
//!
//! A [`Medium`] is a directory of named byte files with exactly the
//! operations the log engine needs — append, fsync, atomic whole-file
//! replace, delete — and nothing more. Two implementations:
//!
//! * [`FileMedium`] — a real directory. `sync` is `fsync`, plus a directory
//!   `fsync` when a file was created or removed since the last one;
//!   `write_atomic` is write-to-temp + `fsync` + `rename` + directory
//!   `fsync`, so a replace is all-or-nothing across a crash.
//! * [`MemMedium`] — an in-memory directory that *models fsync*: every
//!   file tracks how many bytes a successful `sync` has made durable, and
//!   [`MemMedium::crash`] discards everything after that point — the exact
//!   loss a `kill -9` inflicts on page-cached writes. This is what lets
//!   the kill-anywhere property test crash at every op index in-process.
//!
//! Reads return whatever has been written (durable or not), matching an OS
//! page cache: a process that just wrote sees its own write; only a crash
//! reveals what was actually on the platter.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::StorageError;

/// A directory of named byte files, as seen by the log engine.
pub trait Medium: Send {
    /// Names of all files present, in unspecified order.
    fn list(&self) -> Result<Vec<String>, StorageError>;

    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Appends `data` to `name`, creating it if absent. Not durable until
    /// the next successful [`Medium::sync`] of the same file.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Makes every byte previously appended to `name` durable (fsync).
    fn sync(&mut self, name: &str) -> Result<(), StorageError>;

    /// Atomically replaces `name` with `data`, durably: after this returns,
    /// a crash leaves either the old contents or the new, never a mix.
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Deletes `name` (no-op if absent).
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
}

#[derive(Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes made durable by `sync`/`write_atomic`; `crash` truncates here.
    synced: usize,
}

#[derive(Default)]
struct MemState {
    files: BTreeMap<String, MemFile>,
}

/// An in-memory [`Medium`] with modelled fsync semantics (see module docs).
/// Clones share the same directory, so a test can keep a handle while the
/// engine owns another and crash the medium out from under it.
#[derive(Clone, Default)]
pub struct MemMedium {
    state: Arc<Mutex<MemState>>,
}

impl MemMedium {
    /// An empty in-memory directory.
    pub fn new() -> MemMedium {
        MemMedium::default()
    }

    /// Simulates `kill -9`: every file loses the bytes not yet covered by a
    /// successful sync. Files never synced vanish entirely.
    pub fn crash(&self) {
        let mut st = self.state.lock().expect("medium poisoned");
        st.files.retain(|_, f| {
            f.data.truncate(f.synced);
            f.synced > 0
        });
    }

    /// Total durable bytes across all files (diagnostics).
    pub fn durable_bytes(&self) -> u64 {
        let st = self.state.lock().expect("medium poisoned");
        st.files.values().map(|f| f.synced as u64).sum()
    }
}

impl Medium for MemMedium {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let st = self.state.lock().expect("medium poisoned");
        Ok(st.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let st = self.state.lock().expect("medium poisoned");
        Ok(st.files.get(name).map(|f| f.data.clone()))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.state.lock().expect("medium poisoned");
        st.files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let mut st = self.state.lock().expect("medium poisoned");
        if let Some(f) = st.files.get_mut(name) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.state.lock().expect("medium poisoned");
        let f = st.files.entry(name.to_string()).or_default();
        f.data = data.to_vec();
        f.synced = f.data.len();
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let mut st = self.state.lock().expect("medium poisoned");
        st.files.remove(name);
        Ok(())
    }
}

/// A real directory on disk.
pub struct FileMedium {
    root: PathBuf,
    /// A file was created or removed since the last directory fsync: the
    /// next `sync` must make the directory entry durable too.
    dir_dirty: bool,
    /// Directory fsyncs issued (unit tests count them).
    #[cfg(test)]
    dir_syncs: u64,
}

impl FileMedium {
    /// Opens (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FileMedium, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileMedium {
            root,
            dir_dirty: false,
            #[cfg(test)]
            dir_syncs: 0,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// fsync the directory itself so renames/creates/removals are durable.
    fn sync_dir(&mut self) -> Result<(), StorageError> {
        std::fs::File::open(&self.root)?.sync_all()?;
        self.dir_dirty = false;
        #[cfg(test)]
        {
            self.dir_syncs += 1;
        }
        Ok(())
    }
}

impl Medium for FileMedium {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                // Stray temp files from an interrupted write_atomic are
                // dead: the rename never happened.
                if !name.ends_with(".tmp") {
                    out.push(name);
                }
            }
        }
        Ok(out)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let path = self.path(name);
        let mut f = match std::fs::OpenOptions::new().append(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.dir_dirty = true;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?
            }
            Err(e) => return Err(e.into()),
        };
        f.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?
            .sync_all()?;
        // A created file's directory entry must be durable too, and so must
        // a removal (a quarantined segment must not reappear after a crash
        // once new records reuse its LSNs). Only then is the directory
        // synced: it costs about a quarter of a small commit.
        if self.dir_dirty {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => {
                self.dir_dirty = true;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_drops_unsynced_tail() {
        let mut m = MemMedium::new();
        m.append("a", b"durable").unwrap();
        m.sync("a").unwrap();
        m.append("a", b" volatile").unwrap();
        m.append("b", b"never synced").unwrap();
        m.crash();
        assert_eq!(m.read("a").unwrap().unwrap(), b"durable");
        assert_eq!(m.read("b").unwrap(), None, "unsynced file vanishes");
    }

    #[test]
    fn mem_write_atomic_is_durable() {
        let mut m = MemMedium::new();
        m.write_atomic("c", b"v1").unwrap();
        m.crash();
        assert_eq!(m.read("c").unwrap().unwrap(), b"v1");
    }

    #[test]
    fn mem_clones_share_state() {
        let mut m = MemMedium::new();
        let other = m.clone();
        m.append("x", b"hi").unwrap();
        assert_eq!(other.read("x").unwrap().unwrap(), b"hi");
    }

    #[test]
    fn file_medium_round_trip() {
        let dir = std::env::temp_dir().join(format!("tcvs-medium-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = FileMedium::open(&dir).unwrap();
        m.append("seg", b"abc").unwrap();
        m.append("seg", b"def").unwrap();
        m.sync("seg").unwrap();
        m.write_atomic("ckpt", b"state").unwrap();
        assert_eq!(m.read("seg").unwrap().unwrap(), b"abcdef");
        assert_eq!(m.read("ckpt").unwrap().unwrap(), b"state");
        let mut names = m.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["ckpt", "seg"]);
        m.remove("seg").unwrap();
        assert_eq!(m.read("seg").unwrap(), None);
        m.remove("seg").unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_medium_syncs_the_directory_only_after_it_changed() {
        let dir = std::env::temp_dir().join(format!("tcvs-dirsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = FileMedium::open(&dir).unwrap();
        fn commits(m: &mut FileMedium, seg: &str) {
            for _ in 0..50 {
                m.append(seg, b"record").unwrap();
                m.sync(seg).unwrap();
            }
        }
        commits(&mut m, "seg-0");
        assert_eq!(
            m.dir_syncs, 1,
            "one directory fsync for the segment's creation"
        );
        commits(&mut m, "seg-1");
        assert_eq!(m.dir_syncs, 2, "a rotation costs exactly one more");
        m.remove("seg-0").unwrap();
        commits(&mut m, "seg-1");
        assert_eq!(m.dir_syncs, 3, "the next sync makes a removal durable");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

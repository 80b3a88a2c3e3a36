//! The medium: the flat byte-file surface the durable engine writes to.
//!
//! A [`Medium`] is a directory of named byte files with exactly the
//! operations the log engine needs — append, fsync, atomic whole-file
//! replace, delete, and for recovery a read of a byte range and a cut to a
//! prefix — and nothing more. Two implementations:
//!
//! * [`FileMedium`] — a real directory. The file appended to (a log
//!   segment: the engine appends to nothing else) is held open and written
//!   into a zero-filled extent: an append is one positional write at the
//!   end of its records, and `sync` is one `fdatasync`, because neither
//!   the file's size nor its block map changed. Only the append that
//!   outgrows the extent grows it — the extent doubles, by at most
//!   256 KiB — and its `sync` is a full `fsync`. Any `sync` adds a
//!   directory `fsync` when a file was created or removed since the last
//!   one; `write_atomic`
//!   is write-to-temp + `fsync` + `rename` + directory `fsync`, so a
//!   replace is all-or-nothing across a crash. `read_at` is `pread`, and
//!   `truncate` is `set_len` + `fsync` in place.
//! * [`MemMedium`] — an in-memory directory that *models fsync*: every
//!   file tracks how many bytes a successful `sync` has made durable, and
//!   [`MemMedium::crash`] discards everything after that point — the exact
//!   loss a `kill -9` inflicts on page-cached writes. This is what lets
//!   the kill-anywhere property test crash at every op index in-process.
//!
//! Reads return whatever has been written (durable or not), matching an OS
//! page cache: a process that just wrote sees its own write; only a crash
//! reveals what was actually on the platter. A [`FileMedium`] segment
//! reads on past its records in zeros, which [`crate::log::scan`] takes
//! for the clean end of the log; so does any file appended to.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::error::StorageError;

/// A directory of named byte files, as seen by the log engine.
pub trait Medium: Send {
    /// Names of all files present, in unspecified order.
    fn list(&self) -> Result<Vec<String>, StorageError>;

    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Copies the bytes of `name` from `offset` on into `buf`, and returns
    /// how many: fewer than `buf` holds only where the file ends, none for
    /// a file that does not exist.
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let data = self.read(name)?.unwrap_or_default();
        let from = data.len().min(offset as usize);
        let n = buf.len().min(data.len() - from);
        buf[..n].copy_from_slice(&data[from..from + n]);
        Ok(n)
    }

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

    /// Cuts `name` to its first `len` bytes, durably, if it is longer: a
    /// crash leaves the old length or the new.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        match self.read(name)? {
            Some(data) if data.len() as u64 > len => self.write_atomic(name, &data[..len as usize]),
            _ => Ok(()),
        }
    }
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

    /// The directory, locked.
    fn files(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().expect("medium poisoned")
    }

    /// Simulates `kill -9`: every file loses the bytes not yet covered by a
    /// successful sync. Files never synced vanish entirely.
    pub fn crash(&self) {
        let mut st = self.files();
        st.files.retain(|_, f| {
            f.data.truncate(f.synced);
            f.synced > 0
        });
    }
}

impl Medium for MemMedium {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let st = self.files();
        Ok(st.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let st = self.files();
        Ok(st.files.get(name).map(|f| f.data.clone()))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let st = self.files();
        let data = st.files.get(name).map_or(&[][..], |f| &f.data);
        let data = &data[data.len().min(offset as usize)..];
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(n)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.files();
        st.files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let mut st = self.files();
        if let Some(f) = st.files.get_mut(name) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut st = self.files();
        let f = st.files.entry(name.to_string()).or_default();
        f.data = data.to_vec();
        f.synced = f.data.len();
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let mut st = self.files();
        st.files.remove(name);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        let mut st = self.files();
        if let Some(f) = st.files.get_mut(name) {
            let len = f.data.len().min(len as usize);
            f.data.truncate(len);
            f.synced = f.synced.min(len);
        }
        Ok(())
    }
}

/// Largest step a segment's extent grows by: below it the extent doubles,
/// so a small segment stays a small file.
const EXTENT_STEP: u64 = 256 << 10;

/// Smallest step, and the unit an extent is rounded up to.
const PAGE: u64 = 4 << 10;

/// The zeros an extent is filled with, written from here a slice at a time.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

/// The file being appended to, held open between commits.
struct Extent {
    name: String,
    file: File,
    /// End of the bytes appended: the next append lands here.
    end: u64,
    /// File length; the bytes from `end` to here are zeros.
    cap: u64,
    /// The length changed since the last sync, which must then commit the
    /// inode too.
    grown: bool,
}

impl Extent {
    /// Holds `name` open for appends, creating it if absent (and then
    /// marking the directory dirty). An existing file is appended to at its
    /// end: recovery has truncated whatever zeros it held.
    fn open(root: &Path, name: &str, dir_dirty: &mut bool) -> Result<Extent, StorageError> {
        let path = root.join(name);
        let file = match OpenOptions::new().write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                *dir_dirty = true;
                OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)?
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        Ok(Extent {
            name: name.to_string(),
            file,
            end: len,
            cap: len,
            grown: false,
        })
    }

    /// Writes `data` at the end; when it does not fit, zero-fills the file
    /// past it to a grown capacity: by the capacity itself, between
    /// [`PAGE`] and [`EXTENT_STEP`], and at least to the new end.
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        let end = self.end + data.len() as u64;
        self.file.write_all_at(data, self.end)?;
        if end > self.cap {
            let cap = end
                .max(self.cap + self.cap.clamp(PAGE, EXTENT_STEP))
                .next_multiple_of(PAGE);
            let mut at = end;
            while at < cap {
                let n = (cap - at).min(ZEROS.len() as u64);
                self.file.write_all_at(&ZEROS[..n as usize], at)?;
                at += n;
            }
            self.cap = cap;
            self.grown = true;
        }
        self.end = end;
        Ok(())
    }
}

/// A real directory on disk.
pub struct FileMedium {
    root: PathBuf,
    /// A file was created or removed since the last directory fsync: the
    /// next `sync` must make the directory entry durable too.
    dir_dirty: bool,
    /// The file appends go to, if one is open.
    held: Option<Extent>,
    /// Directory fsyncs issued (unit tests count them).
    #[cfg(test)]
    dir_syncs: u64,
    /// Full file fsyncs issued by `sync` (unit tests count them).
    #[cfg(test)]
    full_syncs: u64,
}

impl FileMedium {
    /// Opens (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FileMedium, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileMedium {
            root,
            dir_dirty: false,
            held: None,
            #[cfg(test)]
            dir_syncs: 0,
            #[cfg(test)]
            full_syncs: 0,
        })
    }

    /// Lets go of the held file if it is `name`: the next append to
    /// that name opens whatever file then holds it.
    fn release(&mut self, name: &str) {
        if self.held.as_ref().is_some_and(|x| x.name == name) {
            self.held = None;
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Counts a full file fsync (unit tests read the count).
    fn count_full_sync(&mut self) {
        #[cfg(test)]
        {
            self.full_syncs += 1;
        }
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

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let file = match File::open(self.path(name)) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        let mut n = 0;
        while n < buf.len() {
            match file.read_at(&mut buf[n..], offset + n as u64)? {
                0 => break,
                k => n += k,
            }
        }
        Ok(n)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let held = match &mut self.held {
            Some(x) if x.name == name => x,
            slot => slot.insert(Extent::open(&self.root, name, &mut self.dir_dirty)?),
        };
        held.append(data)
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        match &mut self.held {
            // The records went into bytes the file already had: the data
            // alone makes them durable.
            Some(x) if x.name == name && !x.grown => x.file.sync_data()?,
            Some(x) if x.name == name => {
                x.file.sync_all()?;
                x.grown = false;
                self.count_full_sync();
            }
            _ => {
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(self.path(name))?
                    .sync_all()?;
                self.count_full_sync();
            }
        }
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
        self.release(name);
        let tmp = self.path(&format!("{name}.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.release(name);
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => {
                self.dir_dirty = true;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// In place: the file keeps its inode, and no temporary is written.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StorageError> {
        self.release(name);
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        if file.metadata()?.len() > len {
            file.set_len(len)?;
            file.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log;

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
        let seg = m.read("seg").unwrap().unwrap();
        assert_eq!(&seg[..6], b"abcdef");
        assert!(
            seg[6..].iter().all(|&b| b == 0),
            "an append runs on in zeros"
        );
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

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcvs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The held segment is let go when its name is replaced, cut or
    /// removed: an append then lands in the file the name now holds, at its
    /// end, not in the unlinked one (which would silently lose acknowledged
    /// records) or past the cut.
    #[test]
    fn an_append_after_a_replace_or_remove_lands_in_the_new_file() -> Result<(), StorageError> {
        let dir = fresh_dir("held");
        let mut m = FileMedium::open(&dir)?;
        let seg = log::segment_name(0);
        let read = |m: &FileMedium| -> Result<Vec<u8>, StorageError> {
            Ok(m.read(&seg)?.unwrap_or_default())
        };
        m.append(&seg, b"aaa")?;
        m.append(&seg, b"xxx")?;
        m.sync(&seg)?;
        // A replace: the name now holds a new, shorter file.
        m.write_atomic(&seg, b"aaa")?;
        m.append(&seg, b"bbb")?;
        m.sync(&seg)?;
        let bytes = read(&m)?;
        assert_eq!(&bytes[..6], b"aaabbb");
        assert!(bytes[6..].iter().all(|&b| b == 0), "a zero-filled extent");
        // Recovery's cut, in place: the next append lands at the new end.
        m.truncate(&seg, 4)?;
        assert_eq!(read(&m)?, b"aaab");
        m.append(&seg, b"ddd")?;
        m.sync(&seg)?;
        let bytes = read(&m)?;
        assert_eq!(&bytes[..7], b"aaabddd");
        assert!(bytes[7..].iter().all(|&b| b == 0));
        m.remove(&seg)?;
        m.append(&seg, b"ccc")?;
        m.sync(&seg)?;
        let bytes = read(&m)?;
        assert_eq!(&bytes[..3], b"ccc");
        assert!(bytes[3..].iter().all(|&b| b == 0));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// A commit into bytes the segment already has syncs its data only;
    /// just the commits that grow the extent sync the whole file. Growth
    /// doubles the extent up to a fixed step.
    #[test]
    fn only_a_commit_that_grows_the_extent_syncs_the_whole_file() -> Result<(), StorageError> {
        let dir = fresh_dir("extent");
        let mut m = FileMedium::open(&dir)?;
        let seg = log::segment_name(0);
        let record = [0x5Au8; 10_000];
        let (mut growths, mut end) = (0u64, 0u64);
        for _ in 0..100 {
            let before = std::fs::metadata(dir.join(&seg)).map_or(0, |md| md.len());
            m.append(&seg, &record)?;
            m.sync(&seg)?;
            end += record.len() as u64;
            let after = std::fs::metadata(dir.join(&seg))?.len();
            if after != before {
                growths += 1;
                assert!(
                    after - before <= EXTENT_STEP.max(before),
                    "{before} → {after}"
                );
                assert_eq!(after % PAGE, 0);
            }
            assert!(
                after >= end && after - end < EXTENT_STEP,
                "{end} in {after}"
            );
        }
        assert_eq!(m.full_syncs, growths, "one full sync per growth");
        assert!(growths <= 10, "{growths} growths for 1 MB");
        assert_eq!(m.dir_syncs, 1, "one directory sync, for the creation");
        let bytes = m.read(&seg)?.unwrap_or_default();
        assert!(bytes[..end as usize].iter().all(|&b| b == 0x5A));
        assert!(bytes[end as usize..].iter().all(|&b| b == 0));

        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

//! Reopening a data directory. Recovery cuts the last segment back to its
//! valid prefix in place — on a clean directory that is exactly the zero
//! extent — and a failure or a power loss at the cut recovers the same
//! prefix, because only bytes past the prefix are cut. A directory written
//! before recovery read segments through a window opens unchanged: the
//! format did not move.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use tcvs_core::{Digest, ProtocolConfig, ServerApi, ServerCore};
use tcvs_merkle::{u64_key, Op};
use tcvs_storage::{
    log, DurabilityOptions, DurableOptions, DurableServer, DurableStorage, FileMedium, Medium,
    MemMedium, StorageError, StorageObs,
};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 4,
        epoch_len: 10,
    }
}

/// The op stream: op index → (user, seq, op, round).
fn scripted(j: u64) -> (u32, u64, Op, u64) {
    let op = match j % 4 {
        0 => Op::Put(u64_key(j % 23), vec![(j % 251) as u8; 4]),
        1 => Op::Get(u64_key((j + 7) % 23)),
        2 => Op::Put(u64_key((j + 11) % 23), vec![(j % 13) as u8]),
        _ => Op::Delete(u64_key((j + 3) % 23)),
    };
    ((j % 3) as u32, j, op, j)
}

/// The root of ops `0..n` replayed on a fresh core.
fn oracle(n: u64) -> Digest {
    let mut core = ServerCore::new(&config());
    for j in 0..n {
        let (user, _, op, round) = scripted(j);
        core.process(user, &op, round);
    }
    core.root_digest()
}

fn open<M: Medium>(medium: M) -> Result<DurableServer<DurableStorage<M>>, StorageError> {
    let opts = DurableOptions {
        segment_bytes: 1024,
        retain_checkpoints: 2,
    };
    let durability = DurabilityOptions {
        checkpoint_every: 4,
        ..DurabilityOptions::default()
    };
    DurableServer::open(
        DurableStorage::open(medium, opts),
        config(),
        durability,
        StorageObs::disabled(),
    )
}

fn run<M: Medium>(server: &mut DurableServer<DurableStorage<M>>, ops: std::ops::Range<u64>) {
    for j in ops {
        let (user, seq, op, round) = scripted(j);
        server.handle_op_seq(user, seq, &op, round);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcvs-reopen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest segment in `dir`, and the LSN it starts at.
fn last_segment(dir: &Path) -> (PathBuf, u64) {
    let names = std::fs::read_dir(dir).unwrap().flatten();
    let segs = names.filter_map(|e| {
        let name = e.file_name().into_string().ok()?;
        log::parse_segment_name(&name).map(|lsn| (lsn, e.path()))
    });
    let (lsn, path) = segs.max().expect("a segment");
    (path, lsn)
}

/// A clean reopen cuts the last segment's zero extent, and nothing else,
/// in place: the segment keeps its inode, no temporary file is left, and
/// the next commit lands right after the last record.
#[test]
fn a_clean_reopen_cuts_exactly_the_zero_extent_in_place() -> Result<(), StorageError> {
    let dir = fresh_dir("zero-extent");
    let mut server = open(FileMedium::open(&dir)?)?;
    run(&mut server, 0..30);
    drop(server);
    let (seg, lsn) = last_segment(&dir);
    let before = std::fs::metadata(&seg)?;
    let records = log::scan(&std::fs::read(&seg)?, lsn).valid_len;
    let server = open(FileMedium::open(&dir)?)?;
    let after = std::fs::metadata(&seg)?;
    let zeros = server.last_recovery().zero_tail_bytes;
    assert!(zeros > 0, "a clean segment runs on in zeros");
    assert_eq!(zeros, before.len() - after.len(), "only the zeros are cut");
    assert_eq!(after.len(), records, "the records stay whole");
    assert_eq!(after.ino(), before.ino(), "cut in place");
    let names = std::fs::read_dir(&dir)?.flatten();
    let temps = names.filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
    assert_eq!(temps.count(), 0, "no temporary file");
    let mut server = server;
    run(&mut server, 30..40);
    drop(server);
    let server = open(FileMedium::open(&dir)?)?;
    assert_eq!(server.core().ctr(), 40);
    assert_eq!(server.core().root_digest(), oracle(40));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A medium whose cut fails, or is lost to a power failure before it
/// lands; everything else it passes through.
struct Cut<M> {
    inner: M,
    fails: bool,
}

impl<M: Medium> Medium for Cut<M> {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.inner.append(name, data)
    }
    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.sync(name)
    }
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        self.inner.write_atomic(name, data)
    }
    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
    fn truncate(&mut self, _: &str, _: u64) -> Result<(), StorageError> {
        match self.fails {
            true => Err(StorageError::io("the cut failed")),
            false => Ok(()),
        }
    }
}

/// A synced torn frame ends the log. A cut that fails fails the open, and
/// one a power loss drops leaves the torn bytes; either way the next
/// recovery finds the same records and cuts them for good.
#[test]
fn a_failed_or_lost_cut_recovers_the_same_prefix() -> Result<(), StorageError> {
    let mem = MemMedium::new();
    let mut server = open(mem.clone())?;
    run(&mut server, 0..30);
    drop(server);
    let mut raw = mem.clone();
    let seg = (raw.list()?.into_iter())
        .filter(|n| log::parse_segment_name(n).is_some())
        .max()
        .expect("a segment");
    raw.append(&seg, &[0xA5; 40])?;
    raw.sync(&seg)?;
    let torn = raw.read(&seg)?.map_or(0, |b| b.len());

    let failing = Cut {
        inner: mem.clone(),
        fails: true,
    };
    assert!(open(failing).is_err(), "a failed cut fails the open");
    let lost = Cut {
        inner: mem.clone(),
        fails: false,
    };
    let server = open(lost)?;
    assert!(server.last_recovery().torn_tail.is_some());
    assert_eq!(server.core().ctr(), 30);
    drop(server);
    mem.crash();
    assert_eq!(raw.read(&seg)?.map_or(0, |b| b.len()), torn, "nothing cut");

    let server = open(mem.clone())?;
    let report = server.last_recovery();
    assert!(report.torn_tail.is_some() && report.corrupt_stop.is_none());
    assert_eq!(server.core().ctr(), 30);
    assert_eq!(server.core().root_digest(), oracle(30));
    drop(server);
    mem.crash();
    let server = open(mem)?;
    assert_eq!(server.last_recovery().torn_tail, None, "the cut is durable");
    assert_eq!(server.core().root_digest(), oracle(30));
    Ok(())
}

/// `fixtures/protocol-state-log` is the directory a `FileMedium` held
/// after ops `0..60` of [`scripted`] at these options, written by the
/// build before recovery read segments through a window: segments pruned
/// behind two complete checkpoint streams, each segment running on in its
/// zero extent.
#[test]
fn a_directory_written_before_windowed_recovery_opens() -> Result<(), StorageError> {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/protocol-state-log");
    let dir = fresh_dir("fixture");
    std::fs::create_dir_all(&dir)?;
    for entry in std::fs::read_dir(fixture)?.flatten() {
        std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
    }
    let server = open(FileMedium::open(&dir)?)?;
    let report = server.last_recovery().clone();
    assert!(report.corrupt_stop.is_none() && report.torn_tail.is_none());
    assert!(
        report.records_replayed < 60,
        "a checkpoint loads: {report:?}"
    );
    assert!(report.zero_tail_bytes > 0);
    assert_eq!(server.core().ctr(), 60);
    assert_eq!(server.core().root_digest(), oracle(60));
    drop(server);
    let server = open(FileMedium::open(&dir)?)?;
    assert_eq!(server.last_recovery().zero_tail_bytes, 0);
    assert_eq!(server.core().root_digest(), oracle(60));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

//! The storage abstraction: open → batch → atomic commit → recover.
//!
//! [`Storage`] is the boundary between the server engine and persistence,
//! in the shape of grovedb's storage layer: the engine stages [`Record`]s
//! into a [`WriteBatch`], commits the batch atomically (one frame, one
//! append, one fsync), and on restart calls [`Storage::recover`] to get
//! back the newest valid checkpoint plus the log tail after it.
//!
//! Two backends:
//!
//! * [`DurableStorage`] — the real engine over a [`Medium`]: one
//!   checksummed frame per commit in append-only segments ([`crate::log`]),
//!   segment rotation, and pruning behind the checkpoints. The log is the
//!   only kind of file it writes.
//! * [`MemStorage`] — the same engine over a [`MemMedium`] of its own:
//!   dropping it loses everything. Only `DurableServer`'s unit tests run on
//!   it; the simulator never does.
//!
//! ## Checkpoints ride the log
//!
//! A full checkpoint is a *stream* of [`Record::Chunk`]s: the state that
//! covers every record below LSN `L`, in pieces that ride the commits from
//! `L` on, one per commit, inside their one fsync ([`Storage::checkpoint`]
//! writes one in a single commit). Once its last piece is durable, the
//! segments wholly behind the oldest of the newest
//! [`DurableOptions::retain_checkpoints`] complete streams are removed, one
//! per commit, oldest first. Every record after a retained stream's first
//! piece therefore stays on the medium, and recovery replays all of them.
//!
//! ## Recovery state machine ([`DurableStorage::recover`])
//!
//! 0. **Check the format**: a medium whose segments or checkpoint files
//!    have no `log::FORMAT_MARKER` beside them was written under another
//!    format; recovery refuses it with [`StorageError::UnknownFormat`]
//!    before reading anything, salvage included. An empty medium gets the
//!    marker.
//! 1. **Find the streams**: a stream is complete when its pieces, met in
//!    LSN order with no damage or gap between them, reach its count.
//! 2. **Pick a checkpoint**: complete streams newest-first; the first whose
//!    pieces decode to a state, its root checked, wins. The pieces are
//!    decoded as step 3 meets them, straight into the tree, so no buffer
//!    ever holds the state's encoding. The others are counted and skipped
//!    (that is why two are retained).
//! 3. **Scan the log from it**: commits in LSN order, each checksum and
//!    LSN verified, by the three tail rules of [`crate::log`]; every record
//!    after the checkpoint's first piece is handed back for replay, pieces
//!    left out. Zeros after a segment's last frame are the unused rest of
//!    its extent. A *torn* tail (a damaged frame with nothing verifying after
//!    it) in the last segment is the expected crash shape: discard it,
//!    note it, continue. Damage anywhere else stops the scan — no record
//!    after a hole is trusted — and damage below the checkpoint is never
//!    read. Steps 1 and 3 read through one window ([`Medium::read_at`])
//!    kept across reads: it holds a frame at least, and the rest of a
//!    segment only to classify damage, never a whole segment otherwise.
//! 4. **Re-read on short read**: a scan that stops early at damage goes
//!    on once where it stopped if the segment has since grown; a transient
//!    short read heals, a real torn tail does not.
//! 5. **Truncate the tail**: the last segment is cut back to its valid
//!    prefix in place ([`Medium::truncate`]), so torn bytes can never
//!    resurface and the next commit lands right after the last record,
//!    not after the zeros. Only bytes past the prefix go, so a crash that
//!    keeps the old length recovers the same prefix.

use std::ops::Range;

use tcvs_store::enc::{DecodeError, Writer};

use crate::codec::{DurableState, StateDecoder};
use crate::error::StorageError;
use crate::log::{self, SegmentScan, TailStatus};
use crate::medium::{Medium, MemMedium};
use crate::record::{chunk_view, put_chunk, Record, TAG_CHUNK};

/// Records staged for one atomic commit, each encoded once, straight into
/// the commit's frame: the commit only fills in the LSN and the check
/// (`log::seal`) and appends the frame as it is.
#[derive(Default)]
pub struct WriteBatch {
    /// The unsealed commit frame ([`log::push_record`]).
    frame: Vec<u8>,
    records: usize,
    /// Body bytes of the records staged, checkpoint pieces left out.
    logged: u64,
    /// LSN of the checkpoint stream whose last piece the batch carries.
    completes: Option<u64>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Stages a record.
    pub fn push(&mut self, rec: Record) -> &mut WriteBatch {
        self.push_with(rec.tag(), |w| rec.put_body(w))
    }

    /// Stages the record with log tag `tag` whose body `put` writes, from
    /// whatever the caller borrows.
    pub(crate) fn push_with(&mut self, tag: u8, put: impl FnOnce(&mut Writer)) -> &mut WriteBatch {
        let body = log::push_record(&mut self.frame, tag, put);
        self.records += 1;
        if tag != TAG_CHUNK {
            self.logged += body as u64;
        }
        self
    }

    /// Stages piece `index` of the `count` pieces of the checkpoint stream
    /// at LSN `stream`: `len` bytes that `fill` appends in place.
    pub(crate) fn push_chunk(
        &mut self,
        (stream, index, count): (u64, u32, u32),
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> &mut WriteBatch {
        if index + 1 == count {
            self.completes = Some(stream);
        }
        self.push_with(TAG_CHUNK, |w| {
            put_chunk(w, (stream, index, count), len, fill)
        })
    }

    /// Body bytes of the records staged, checkpoint pieces left out: what
    /// the batch adds to the log that a checkpoint would summarise.
    pub(crate) fn logged(&self) -> u64 {
        self.logged
    }

    /// Number of staged records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The unsealed frame, refused when too large: it would be written
    /// fine, then read as corruption by every recovery.
    fn into_frame(self) -> Result<Vec<u8>, StorageError> {
        let bytes = self.frame.len() - log::HEADER_LEN;
        if bytes > log::MAX_PAYLOAD {
            return Err(StorageError::TooLarge {
                what: "commit",
                bytes,
            });
        }
        Ok(self.frame)
    }
}

/// Where a commit starts: a segment's index and a byte offset in it.
type At = (usize, u64);

/// The checkpoint streams a scan meets, in LSN order: each complete one's
/// LSN and where its first piece's commit (which starts at that LSN) is,
/// and the newest begun's LSN, pieces met, count and first piece.
#[derive(Default)]
struct Streams {
    complete: Vec<(u64, At)>,
    newest: Option<(u64, u32, u32, At)>,
}

impl Streams {
    /// Notes a piece in the commit at `at`, which starts at LSN `commit`;
    /// one that continues no stream is skipped, unless it starts its own.
    fn note(&mut self, (stream, index, count): (u64, u32, u32), at: At, commit: u64) {
        match &mut self.newest {
            Some((s, met, c, _)) if (*s, *met, *c) == (stream, index, count) => *met += 1,
            _ if index == 0 && commit == stream => self.newest = Some((stream, 1, count, at)),
            _ => return,
        }
        if let Some((stream, _, _, at)) = self.newest.filter(|n| n.1 == n.2) {
            self.complete.push((stream, at));
        }
    }
}

/// The records of one commit as recovery reads them, and their body bytes:
/// the pieces of the checkpoint at `base` fed to `state` (dropped when one
/// does not decode), other pieces checked and left out, and anything else
/// decoded. `records` are the commit's, their bodies ranges of `frame`.
fn read_commit(
    frame: &[u8],
    records: &[(u64, u8, Range<usize>)],
    base: u64,
    state: &mut Option<StateDecoder>,
) -> Result<(Vec<(u64, Record)>, u64), DecodeError> {
    let (mut out, mut bytes) = (Vec::new(), 0);
    for (lsn, tag, body) in records {
        let body = &frame[body.clone()];
        match *tag {
            TAG_CHUNK => match chunk_view(body)? {
                ((stream, ..), data) if stream == base => {
                    *state = state
                        .take()
                        .and_then(|mut s| s.feed(data).is_ok().then_some(s));
                }
                _ => {}
            },
            tag => {
                out.push((*lsn, Record::decode(tag, body)?));
                bytes += body.len() as u64;
            }
        }
    }
    Ok((out, bytes))
}

/// What a pass over the log from a checkpoint's commit found: the tail and
/// its body bytes, the LSN after the last record kept, the last segment
/// scanned and the length of its valid prefix, and the first segment the
/// pass never reached (everything from it on is quarantined when the pass
/// stopped at corruption). The checkpoint's pieces went to its decoder.
struct Replay {
    tail: Vec<(u64, Record)>,
    bytes: u64,
    end: u64,
    last_valid: Option<(String, u64)>,
    stale_from: usize,
}

/// Bytes recovery reads a segment through at a time.
const WINDOW: usize = 256 << 10;

/// A segment read through one buffer that recovery keeps across reads and
/// segments: it holds bytes `at..at + len` of segment `name`. A read moves
/// it forward, carrying over the bytes still wanted (a frame it cut); it
/// grows only to hold a frame larger than it, or the rest of a segment
/// whose damage must be classified (`n` = `usize::MAX`).
#[derive(Default)]
struct Window {
    name: String,
    buf: Vec<u8>,
    at: u64,
    len: usize,
    /// A read came back short: the segment ends at `at + len`.
    end: bool,
}

impl Window {
    /// Points the window at segment `name`, holding none of it.
    fn open(&mut self, name: &str) {
        self.name.clear();
        self.name.push_str(name);
        (self.at, self.len, self.end) = (0, 0, false);
    }

    /// Bytes `pos..pos + n` of the segment, fewer only where it ends. The
    /// window moves to `pos`, keeping what it holds from there on, and
    /// reads on, doubling only while `n` is more than it can hold: it never
    /// holds much more than the segment has.
    fn get(&mut self, medium: &impl Medium, pos: u64, n: usize) -> Result<&[u8], StorageError> {
        if pos < self.at || pos > self.at + self.len as u64 {
            (self.at, self.len, self.end) = (pos, 0, false);
        }
        let mut from = (pos - self.at) as usize;
        if from.saturating_add(n) > self.len && !self.end {
            self.buf.copy_within(from..self.len, 0);
            (self.at, self.len, from) = (pos, self.len - from, 0);
            while n > self.len && !self.end {
                if self.len == self.buf.len() {
                    self.buf.resize((2 * self.len).max(WINDOW), 0);
                }
                let (at, room) = (self.at + self.len as u64, self.buf.len() - self.len);
                let got = medium.read_at(&self.name, at, &mut self.buf[self.len..])?;
                (self.len, self.end) = (self.len + got, got < room);
            }
        }
        Ok(&self.buf[from.min(self.len)..from.saturating_add(n).min(self.len)])
    }

    /// How many bytes from `pos` to the segment's end, if all are zero.
    fn zeros(&mut self, medium: &impl Medium, pos: u64) -> Result<Option<u64>, StorageError> {
        let mut at = pos;
        loop {
            let bytes = self.get(medium, at, WINDOW)?;
            if bytes.iter().any(|&b| b != 0) {
                return Ok(None);
            }
            at += bytes.len() as u64;
            if bytes.len() < WINDOW {
                return Ok(Some(at - pos));
            }
        }
    }
}

/// How a segment scan through the window ended: by the tail rules of
/// [`log::scan`], offsets in the segment; the end of its valid prefix; and
/// the LSN after its last commit.
struct Scanned {
    tail: TailStatus,
    valid_len: u64,
    lsn: u64,
}

/// What happened during the tail scan of a recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments scanned for the tail.
    pub segments_scanned: u64,
    /// Records handed back for replay (see [`Recovered::tail`]).
    pub records_replayed: u64,
    /// Body bytes of those records: what the log holds past the checkpoint
    /// that the next one would summarise.
    pub bytes_replayed: u64,
    /// Complete checkpoint streams whose state did not decode, skipped.
    pub corrupt_checkpoints: u64,
    /// The newest checkpoint stream the log holds: its pieces found, in
    /// order, and its piece count. Fewer pieces than the count is a stream
    /// a crash cut short; nothing was pruned on its account.
    pub stream: Option<(u32, u32)>,
    /// A torn tail that was detected and discarded, if any.
    pub torn_tail: Option<TornTail>,
    /// Zero bytes after the last record of the final segment — the unused
    /// rest of its zero-filled extent — truncated away.
    pub zero_tail_bytes: u64,
    /// Set when the scan stopped at interior corruption (checksum or LSN
    /// failure before the tail); everything after is discarded.
    pub corrupt_stop: Option<String>,
    /// Reads that came back short and were retried successfully.
    pub short_reads_retried: u64,
    /// Segments past a corrupt stop that were moved aside (renamed to a
    /// `quarantine-` name recovery never scans) so their stale records can
    /// neither be replayed on a later recovery nor appended into when
    /// rotation reuses an LSN from the rolled-back range.
    pub stale_segments_quarantined: u64,
}

/// A torn (incomplete) record tail discarded by recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Segment file the tear was found in.
    pub segment: String,
    /// Byte offset of the torn frame.
    pub offset: u64,
    /// Bytes discarded.
    pub dropped_bytes: u64,
}

/// Everything [`Storage::recover`] hands back.
pub struct Recovered {
    /// The LSN and decoded state of the newest checkpoint whose stream is
    /// complete and decodes, if any. Every record below the LSN is
    /// subsumed by it.
    pub checkpoint: Option<(u64, DurableState)>,
    /// The replay tail: every record at and after the checkpoint LSN, in
    /// order, with LSNs, checkpoint pieces left out.
    pub tail: Vec<(u64, Record)>,
    /// What the scan saw.
    pub report: RecoveryReport,
}

/// The storage boundary (see module docs).
pub trait Storage: Send {
    /// Commits a batch atomically: all records become durable (one fsync)
    /// or none do. Returns the LSN after the last committed record.
    ///
    /// [`DurableStorage`] first removes one segment its checkpoints made
    /// disposable; an error there fails the commit before any of its
    /// records is written. An **empty batch** removes all of them.
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError>;

    /// Checkpoints `state`, which covers every committed record, in one
    /// commit of its own, and returns its LSN. A checkpoint the engine
    /// takes on its own schedule instead streams out a piece per commit
    /// inside the commits it makes anyway; this form stays for the state
    /// that must be durable at once — one restored from a verified chunk
    /// stream, or one an operator asks for ([`crate::DurableServer::
    /// checkpoint_now`]). A checkpoint taken with nothing committed since
    /// the last one taken this way is that one.
    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError>;

    /// Re-reads durable state: newest valid checkpoint + replay tail.
    ///
    /// A recovery that stops at *interior corruption*
    /// ([`RecoveryReport::corrupt_stop`]) leaves the medium exactly as
    /// found — the damaged bytes and everything after them are evidence —
    /// and the store refuses commits until [`Storage::salvage`] makes the
    /// discard explicit. A benign torn tail (the expected crash shape) is
    /// repaired in place and does not halt the store.
    fn recover(&mut self) -> Result<Recovered, StorageError>;

    /// Accepts the loss a corrupt-stopped [`Storage::recover`] reported:
    /// makes the discard permanent (quarantines every segment past the
    /// stop point, truncates the stopped one) and reopens the store for
    /// commits. On a healthy store this is just `recover`.
    fn salvage(&mut self) -> Result<Recovered, StorageError> {
        self.recover()
    }

    /// The LSN the next committed record will get.
    fn next_lsn(&self) -> u64;
}

/// The in-memory backend: a [`DurableStorage`] over a [`MemMedium`] only
/// it holds, so dropping it loses everything, exactly as the
/// pre-durability server did.
pub type MemStorage = DurableStorage<MemMedium>;

impl Default for MemStorage {
    /// An empty in-memory store, recovered and ready for commits.
    fn default() -> MemStorage {
        let mut store = DurableStorage::open(MemMedium::new(), DurableOptions::default());
        let _ = store.recover(); // or every commit is refused
        store
    }
}

/// Tuning knobs for [`DurableStorage`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Rotate to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: usize,
    /// Complete checkpoint streams retained (≥ 1). Two by default: if the
    /// newest does not decode, recovery falls back to the previous one
    /// plus the log kept alive since it.
    pub retain_checkpoints: usize,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            segment_bytes: 2 << 20,
            retain_checkpoints: 2,
        }
    }
}

/// The durable backend over a [`Medium`] (see module docs).
pub struct DurableStorage<M: Medium> {
    medium: M,
    opts: DurableOptions,
    next_lsn: u64,
    /// Active segment file name.
    seg_name: String,
    /// Bytes already in the active segment.
    seg_bytes: usize,
    /// Set by [`Storage::recover`]; commits before it are refused, because
    /// only recovery positions the append cursor past existing records.
    recovered: bool,
    /// Set when the last recovery stopped at interior corruption without
    /// repairing it: commits stay refused until [`Storage::salvage`].
    halted: Option<String>,
    /// LSNs of the complete checkpoint streams retained, oldest first.
    streams: Vec<u64>,
    /// The newest checkpoint when nothing but its own one commit came
    /// after it: its LSN, and the LSN after that commit.
    covered: Option<(u64, u64)>,
    /// Segments wholly behind the retained streams, removed one per
    /// commit, the oldest (last) first: no crash leaves a gap below a
    /// segment still held.
    doomed: Vec<String>,
}

impl<M: Medium> DurableStorage<M> {
    /// Opens the store on `medium`. [`Storage::recover`] must run before
    /// the first commit — it checks the format, positions the append
    /// cursor and truncates any torn tail; [`crate::DurableServer::open`]
    /// runs it for you.
    pub fn open(medium: M, opts: DurableOptions) -> DurableStorage<M> {
        DurableStorage {
            medium,
            opts: DurableOptions {
                retain_checkpoints: opts.retain_checkpoints.max(1),
                ..opts
            },
            next_lsn: 0,
            seg_name: log::segment_name(0),
            seg_bytes: 0,
            recovered: false,
            halted: None,
            streams: Vec::new(),
            covered: None,
            doomed: Vec::new(),
        }
    }

    fn segment_lsns(&self) -> Result<Vec<u64>, StorageError> {
        let mut lsns: Vec<u64> = self
            .medium
            .list()?
            .iter()
            .filter_map(|n| log::parse_segment_name(n))
            .collect();
        lsns.sort_unstable();
        Ok(lsns)
    }

    /// Scans the segment in `win` from byte `from`, whose commit starts at
    /// `lsn`, by the rules of [`log::scan`], a frame at a time, handing
    /// each commit that verifies to `each` with its offset, its frame and
    /// its scan; `each` returning false stops the scan at that commit. A
    /// scan stopped by damage goes on once from where it stopped if the
    /// segment has grown since (a transient short read).
    fn scan_segment(
        &self,
        win: &mut Window,
        (mut pos, mut lsn): (u64, u64),
        report: &mut RecoveryReport,
        mut each: impl FnMut(u64, &[u8], &SegmentScan) -> bool,
    ) -> Result<Scanned, StorageError> {
        let mut retried = false;
        let tail = loop {
            let head = win.get(&self.medium, pos, log::HEADER_LEN)?;
            if head.is_empty() {
                break TailStatus::Clean;
            }
            let len = <[u8; 4]>::try_from(head).map_or(0, u32::from_le_bytes) as usize;
            if len == 0 {
                if let Some(len) = win.zeros(&self.medium, pos)? {
                    break TailStatus::Zeros { offset: pos, len };
                }
            } else if len <= log::MAX_PAYLOAD {
                let frame = win.get(&self.medium, pos, log::HEADER_LEN + len + log::CHECK_LEN)?;
                let scan = log::scan(frame, lsn);
                if scan.tail == TailStatus::Clean && !scan.commits.is_empty() {
                    if !each(pos, frame, &scan) {
                        let reason = "a record does not decode";
                        break TailStatus::Corrupt {
                            offset: pos,
                            reason,
                        };
                    }
                    (pos, lsn) = (pos + frame.len() as u64, lsn + scan.records.len() as u64);
                    continue;
                }
            }
            // Damage, or a frame that breaks the log: classified over the
            // rest of the segment, which tells a torn tail from corruption
            // below a frame that verifies.
            let tail = match log::scan(win.get(&self.medium, pos, usize::MAX)?, lsn).tail {
                TailStatus::Torn { dropped, .. } => TailStatus::Torn {
                    offset: pos,
                    dropped,
                },
                TailStatus::Corrupt { reason, .. } => TailStatus::Corrupt {
                    offset: pos,
                    reason,
                },
                tail => tail,
            };
            let end = win.at + win.len as u64;
            if retried || self.medium.read_at(&win.name, end, &mut [0])? == 0 {
                break tail;
            }
            report.short_reads_retried += 1;
            (retried, win.end) = (true, false);
        };
        let valid_len = pos;
        Ok(Scanned {
            tail,
            valid_len,
            lsn,
        })
    }

    /// Notes that the stream at `stream` is complete, and queues for
    /// removal the segments wholly behind the oldest stream retained.
    fn prune_behind(&mut self, stream: u64) -> Result<(), StorageError> {
        self.streams.push(stream);
        while self.streams.len() > self.opts.retain_checkpoints {
            self.streams.remove(0);
        }
        let Some(&cutoff) = self.streams.first() else {
            return Ok(());
        };
        // Segment i covers [segs[i], segs[i+1]); it is disposable when the
        // whole range sits below the cutoff. The active segment (last) is
        // never removed.
        let segs = self.segment_lsns()?;
        self.doomed = segs
            .windows(2)
            .rev()
            .filter(|pair| pair[1] <= cutoff)
            .map(|pair| log::segment_name(pair[0]))
            .filter(|name| *name != self.seg_name)
            .collect();
        Ok(())
    }

    /// Refuses a medium whose framed files have no [`log::FORMAT_MARKER`]
    /// beside them — written under another format, whose every frame would
    /// fail this build's check and read as corruption — and marks a medium
    /// holding none as this format. Recovery runs it before it reads,
    /// repairs or salvages anything.
    fn check_format(&mut self) -> Result<(), StorageError> {
        let names = self.medium.list()?;
        if names.iter().any(|n| n == log::FORMAT_MARKER) {
            return Ok(());
        }
        if let Some(file) = names.into_iter().find(|n| log::is_framed(n)) {
            return Err(StorageError::UnknownFormat { file });
        }
        self.medium
            .write_atomic(log::FORMAT_MARKER, log::FORMAT_NOTE)
    }

    /// The refusal every write gets while a corrupt stop is unresolved or
    /// before the first recovery.
    fn check_writable(&self, what: &str) -> Result<(), StorageError> {
        if let Some(stop) = &self.halted {
            return Err(StorageError::Unrecoverable(format!(
                "{what} refused: recovery stopped at interior corruption ({stop}); \
                 salvage() makes the discard explicit"
            )));
        }
        if !self.recovered {
            return Err(StorageError::io(format!("{what} before recovery")));
        }
        Ok(())
    }
}

impl<M: Medium> Storage for DurableStorage<M> {
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError> {
        self.check_writable("commit")?;
        if batch.is_empty() {
            while let Some(name) = self.doomed.pop() {
                self.medium.remove(&name)?;
            }
            return Ok(self.next_lsn);
        }
        let (records, completes) = (batch.records as u64, batch.completes);
        let mut buf = batch.into_frame()?;
        log::seal(&mut buf, self.next_lsn);
        // One disposable segment goes ahead of the records: if removing it
        // fails, the commit fails with nothing of the batch on the medium.
        if let Some(name) = self.doomed.pop() {
            self.medium.remove(&name)?;
        }
        if self.seg_bytes > 0 && self.seg_bytes + buf.len() > self.opts.segment_bytes {
            self.seg_name = log::segment_name(self.next_lsn);
            self.seg_bytes = 0;
        }
        // One frame, one append, one fsync: a crash either keeps the whole
        // commit out (torn tail, discarded at recovery) or lands it all.
        self.medium.append(&self.seg_name, &buf)?;
        self.medium.sync(&self.seg_name)?;
        self.seg_bytes += buf.len();
        self.next_lsn += records;
        if let Some(stream) = completes {
            self.prune_behind(stream)?;
        }
        Ok(self.next_lsn)
    }

    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError> {
        self.check_writable("checkpoint")?;
        // The commit refuses a frame too large all the same, but only once
        // the state is copied into it.
        if state.len() > log::MAX_BODY {
            return Err(StorageError::TooLarge {
                what: "checkpoint",
                bytes: state.len(),
            });
        }
        if let Some((lsn, _)) = self.covered.filter(|c| c.1 == self.next_lsn) {
            // Already on the medium, covering every committed record.
            return Ok(lsn);
        }
        let lsn = self.next_lsn;
        let mut batch = WriteBatch::new();
        batch.push_chunk((lsn, 0, 1), state.len(), |buf| buf.extend_from_slice(state));
        self.commit(batch)?;
        self.covered = Some((lsn, self.next_lsn));
        Ok(lsn)
    }

    fn recover(&mut self) -> Result<Recovered, StorageError> {
        self.recover_impl(false)
    }

    fn salvage(&mut self) -> Result<Recovered, StorageError> {
        self.recover_impl(true)
    }

    fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

impl<M: Medium> DurableStorage<M> {
    /// Step 1 of recovery: the streams whose pieces meet in order within
    /// one stretch of log with no damage or gap in it. Past damage the scan
    /// picks up at the next frame that verifies.
    fn find_streams(
        &self,
        win: &mut Window,
        segs: &[u64],
        report: &mut RecoveryReport,
    ) -> Result<Streams, StorageError> {
        let mut streams = Streams::default();
        let mut next = None;
        for (i, &first) in segs.iter().enumerate() {
            if next != Some(first) {
                streams.newest = None;
            }
            win.open(&log::segment_name(first));
            let mut from = (0, first);
            loop {
                let scan = self.scan_segment(win, from, report, |offset, frame, scan| {
                    let commit = scan.records[0].0;
                    for (_, _, body) in scan.records.iter().filter(|r| r.1 == TAG_CHUNK) {
                        if let Ok((head, _)) = chunk_view(&frame[body.clone()]) {
                            streams.note(head, (i, offset), commit);
                        }
                    }
                    true
                })?;
                next = scan.tail.is_clean().then_some(scan.lsn);
                let TailStatus::Corrupt { offset, .. } = scan.tail else {
                    break;
                };
                let Some((at, lsn)) =
                    log::resync(win.get(&self.medium, offset, usize::MAX)?, 0, scan.lsn)
                else {
                    break;
                };
                streams.newest = None;
                from = (offset + at as u64, lsn);
            }
        }
        Ok(streams)
    }

    /// Step 3 of recovery: the log in LSN order from the commit at `at`,
    /// which starts at `base` — a checkpoint's first piece, fed to `state`,
    /// or the start of a log that must then begin at LSN 0 — by the tail
    /// rules.
    fn replay(
        &self,
        win: &mut Window,
        segs: &[u64],
        (base, (seg, offset)): (u64, At),
        state: &mut Option<StateDecoder>,
        report: &mut RecoveryReport,
    ) -> Result<Replay, StorageError> {
        let mut r = Replay {
            tail: Vec::new(),
            bytes: 0,
            end: base,
            last_valid: None,
            stale_from: segs.len(),
        };
        for (i, &first_lsn) in segs.iter().enumerate().skip(seg) {
            let next_first = segs.get(i + 1).copied();
            let name = log::segment_name(first_lsn);
            let from = if i == seg { offset } else { 0 };
            if from == 0 && first_lsn != r.end {
                report.corrupt_stop = Some(format!(
                    "segment {name} starts at lsn {first_lsn}, expected {}",
                    r.end
                ));
                r.stale_from = i;
                break;
            }
            report.segments_scanned += 1;
            win.open(&name);
            let mut failed = None;
            let scan = self.scan_segment(win, (from, r.end), report, |_, frame, scan| {
                match read_commit(frame, &scan.records, base, state) {
                    Ok((records, bytes)) => {
                        r.tail.extend(records);
                        r.bytes += bytes;
                        r.end += scan.records.len() as u64;
                        true
                    }
                    // The frame verified but a record does not decode: stop
                    // *at* its commit, which is shed with all after it, so
                    // it is never rescanned.
                    Err(e) => {
                        failed = Some(format!("commit at lsn {} in {name}: {e}", r.end));
                        false
                    }
                }
            })?;
            match scan.tail {
                _ if failed.is_some() => report.corrupt_stop = failed,
                TailStatus::Clean => {}
                TailStatus::Zeros { len, .. } => {
                    if next_first.is_none() {
                        report.zero_tail_bytes = len;
                    }
                }
                // A torn tail is only benign where a crash can produce one:
                // with no successor segment carrying on. A tear *under* a
                // later segment is a hole.
                TailStatus::Torn { offset, dropped } if next_first.is_none() => {
                    report.torn_tail = Some(TornTail {
                        segment: name.clone(),
                        offset,
                        dropped_bytes: dropped,
                    });
                }
                TailStatus::Torn { offset, .. } => {
                    report.corrupt_stop = Some(format!(
                        "torn record at byte {offset} of {name} below a later segment"
                    ));
                }
                TailStatus::Corrupt { offset, reason } => {
                    report.corrupt_stop = Some(format!("{reason} at byte {offset} of {name}"));
                }
            }
            r.last_valid = Some((name, scan.valid_len));
            if !scan.tail.is_clean() {
                r.stale_from = i + 1;
                break;
            }
        }
        Ok(r)
    }

    /// The recovery state machine (see module docs). `repair` is the
    /// [`Storage::salvage`] mode: with it, a corrupt stop quarantines the
    /// stale suffix and truncates the stopped segment so the store can
    /// serve on from the surviving prefix; without it, interior corruption
    /// halts the store with the medium left exactly as found.
    fn recover_impl(&mut self, repair: bool) -> Result<Recovered, StorageError> {
        self.check_format()?;
        let mut report = RecoveryReport::default();
        self.halted = None;
        // Whatever pruning this incarnation had pending is void: the medium
        // is re-read from scratch.
        self.doomed.clear();
        let segs = self.segment_lsns()?;

        // 1-3. The log from the newest complete stream whose state decodes,
        // or from the start, read through one window.
        let mut win = Window::default();
        let streams = self.find_streams(&mut win, &segs, &mut report)?;
        report.stream = streams.newest.map(|(_, met, count, _)| (met, count));
        let (mut checkpoint, mut pass) = (None, None);
        for &(lsn, at) in streams.complete.iter().rev() {
            let mut attempt = report.clone();
            let mut state = Some(StateDecoder::default());
            let r = self.replay(&mut win, &segs, (lsn, at), &mut state, &mut attempt)?;
            match state.map(StateDecoder::finish) {
                Some(Ok(state)) => {
                    (checkpoint, pass, report) = (Some((lsn, state)), Some(r), attempt);
                    break;
                }
                _ => report.corrupt_checkpoints += 1,
            }
        }
        let r = match pass {
            Some(r) => r,
            None => self.replay(&mut win, &segs, (0, (0, 0)), &mut None, &mut report)?,
        };
        drop(win);
        let base = checkpoint.as_ref().map_or(0, |(lsn, _)| *lsn);
        let loaded = checkpoint.is_some();
        // Streams that did not decode are no fallback: pruning counts only
        // the loaded one and those below it.
        self.streams = (streams.complete.iter())
            .map(|&(lsn, _)| lsn)
            .filter(|&lsn| loaded && lsn <= base)
            .collect();
        (report.records_replayed, report.bytes_replayed) = (r.tail.len() as u64, r.bytes);
        let tail = r.tail;
        self.next_lsn = r.end;
        // 4. Interior corruption means acknowledged records past the stop
        // point are lost. Outside salvage mode, leave the medium exactly as
        // found — the damaged bytes are evidence for the operator — and
        // halt: commits are refused until `salvage` makes the discard
        // explicit. (A benign torn tail never takes this path.)
        if let Some(stop) = &report.corrupt_stop {
            if !repair {
                self.halted = Some(stop.clone());
                self.recovered = false;
                return Ok(Recovered {
                    checkpoint,
                    tail,
                    report,
                });
            }
        }

        // 5. (Salvage only.) A corrupt stop poisons everything after it:
        // records beyond the stop point are never replayed ("no record
        // after a hole"), so leaving their segments on disk would let the
        // *next* recovery scan straight past the repaired prefix into the
        // old timeline once new commits fill the LSN range back up — and
        // rotation could reuse a stale segment's name and append into its
        // old contents. Move them aside under names no scan or rotation
        // ever touches.
        if report.corrupt_stop.is_some() {
            for &first_lsn in &segs[r.stale_from..] {
                let name = log::segment_name(first_lsn);
                if let Some(buf) = self.medium.read(&name)? {
                    self.medium
                        .write_atomic(&log::quarantine_name(&name), &buf)?;
                }
                self.medium.remove(&name)?;
                report.stale_segments_quarantined += 1;
            }
        }

        // 6. Make the discard permanent: truncate the last scanned segment
        // to its valid prefix so torn bytes can never resurface and a zero
        // tail does not sit between its records and the next commit, and
        // point appends at it.
        if let Some((name, valid_len)) = &r.last_valid {
            self.medium.truncate(name, *valid_len)?;
        }
        // The loaded checkpoint covers every record when nothing but its
        // own pieces follow it.
        self.covered = streams.newest.and_then(|(lsn, met, count, _)| {
            let only = loaded && lsn == base && self.next_lsn == lsn + u64::from(count);
            (only && met == count).then_some((lsn, self.next_lsn))
        });
        // Resume appending to the scanned segment; after a hole at the
        // start of the log nothing was scanned, so start a fresh one.
        (self.seg_name, self.seg_bytes) = match r.last_valid {
            Some((name, valid_len)) => (name, valid_len as usize),
            None => (log::segment_name(self.next_lsn), 0),
        };
        self.recovered = true;
        Ok(Recovered {
            checkpoint,
            tail,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMedium;
    use tcvs_core::{ProtocolConfig, ServerCore, StorageFault};
    use tcvs_merkle::{u64_key, Op};

    /// A checkpoint's state that names itself: `tag` is the `seq` of its
    /// one journal entry.
    fn state(tag: u64) -> Vec<u8> {
        let mut core = ServerCore::new(&ProtocolConfig::default());
        let snapshot = core.crash_snapshot();
        let reply = core.process(0, &Op::Get(u64_key(0)), 0);
        let mut bytes = Vec::new();
        DurableState {
            snapshot,
            journal: vec![(0, tag, reply)],
        }
        .encode_into(&mut bytes);
        bytes
    }

    /// The LSN and tag of the checkpoint a recovery loaded.
    fn loaded(rec: &Recovered) -> Option<(u64, u64)> {
        let (lsn, state) = rec.checkpoint.as_ref()?;
        Some((*lsn, state.journal[0].1))
    }

    fn op_record(i: u64) -> Record {
        Record::Op {
            user: (i % 3) as u32,
            seq: i,
            op: Op::Put(u64_key(i), vec![i as u8]),
            round: i,
        }
    }

    fn commit_one<S: Storage>(s: &mut S, i: u64) -> u64 {
        let mut b = WriteBatch::new();
        b.push(op_record(i));
        s.commit(b).unwrap()
    }

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::default();
        for i in 0..5 {
            commit_one(&mut s, i);
        }
        assert_eq!(s.checkpoint(&state(5)).unwrap(), 5);
        for i in 5..8 {
            commit_one(&mut s, i);
        }
        let rec = s.recover().unwrap();
        assert_eq!(loaded(&rec), Some((5, 5)));
        assert_eq!(rec.tail.len(), 3);
        assert_eq!(rec.tail[0].0, 6, "the checkpoint's own commit holds lsn 5");
    }

    #[test]
    fn durable_commit_recover_round_trips() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        assert!(s.recover().unwrap().tail.is_empty());
        for i in 0..10 {
            commit_one(&mut s, i);
        }
        drop(s);
        let mut s2 = DurableStorage::open(mem, DurableOptions::default());
        let rec = s2.recover().unwrap();
        assert_eq!(rec.tail.len(), 10);
        assert!(rec.report.torn_tail.is_none());
        assert!(rec.report.corrupt_stop.is_none());
        assert_eq!(s2.next_lsn(), 10);
        for (i, (lsn, rec)) in rec.tail.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert!(matches!(rec, Record::Op { seq, .. } if *seq == i as u64));
        }
    }

    #[test]
    fn unsynced_tail_is_lost_cleanly() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        for i in 0..4 {
            commit_one(&mut s, i);
        }
        // Torn write: half a frame lands beyond the synced prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&log::frame(&log::payload(4, 1, b"x")));
        let mut raw = mem.clone();
        raw.append(&log::segment_name(0), &buf[..buf.len() / 2])
            .unwrap();
        mem.crash();
        let rec = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert_eq!(rec.tail.len(), 4, "synced records survive");
        assert!(rec.report.torn_tail.is_none(), "crash cut at sync boundary");
    }

    #[test]
    fn torn_tail_is_detected_discarded_and_truncated() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        for i in 0..3 {
            commit_one(&mut s, i);
        }
        // A torn frame that *was* synced (power loss between fsync of a
        // partial page and the rest never arriving).
        let torn = log::frame(&log::payload(3, 1, &[0u8; 40]));
        let mut raw = mem.clone();
        raw.append(&log::segment_name(0), &torn[..torn.len() - 7])
            .unwrap();
        raw.sync(&log::segment_name(0)).unwrap();
        mem.crash();
        let mut s2 = DurableStorage::open(mem.clone(), DurableOptions::default());
        let rec = s2.recover().unwrap();
        assert_eq!(rec.tail.len(), 3);
        let tt = rec.report.torn_tail.expect("torn tail detected");
        assert!(tt.dropped_bytes > 0);
        assert_eq!(s2.next_lsn(), 3);
        // The truncation is durable: a second recovery sees a clean log.
        let rec2 = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert!(rec2.report.torn_tail.is_none());
        assert_eq!(rec2.tail.len(), 3);
    }

    /// Segments wholly behind the older of the two newest complete streams
    /// go; a newest stream that does not decode falls back to the one
    /// before and the records since it.
    #[test]
    fn checkpoint_prunes_segments_and_keeps_fallback() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 128,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover()?;
        let mut lsns = Vec::new();
        for (ops, tag) in [(0..6, 6), (6..12, 12), (12..15, 15)] {
            for i in ops {
                commit_one(&mut s, i);
            }
            lsns.push(s.checkpoint(&state(tag))?);
        }
        // The last stream's pruning rides the commits after it; an empty
        // commit finishes it.
        s.commit(WriteBatch::new())?;
        let segs = s.segment_lsns()?;
        assert!(segs[0] <= lsns[1], "the fallback's log is kept: {segs:?}");
        assert!(segs[1] > lsns[1], "the log behind it is pruned: {segs:?}");
        let rec = DurableStorage::open(mem.clone(), opts).recover()?;
        assert_eq!(loaded(&rec), Some((lsns[2], 15)));
        assert!(rec.tail.is_empty());

        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover()?;
        for i in 15..17 {
            commit_one(&mut s, i);
        }
        s.checkpoint(b"no state at all")?;
        let rec = DurableStorage::open(mem, opts).recover()?;
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(loaded(&rec), Some((lsns[2], 15)));
        assert_eq!(rec.tail.len(), 2, "records 15 and 16 replay from the log");
        Ok(())
    }

    /// A checkpoint with nothing committed since the last one, in the same
    /// incarnation or after a recovery, is that one: nothing is written.
    #[test]
    fn checkpoint_at_a_completed_lsn_keeps_the_complete_file() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover()?;
        commit_one(&mut s, 0);
        assert_eq!(s.checkpoint(&state(1))?, 1);
        s.commit(WriteBatch::new())?;
        assert_eq!(s.checkpoint(&state(1001))?, 1);
        let mut s2 = DurableStorage::open(mem.clone(), DurableOptions::default());
        s2.recover()?;
        assert_eq!(s2.checkpoint(&state(1002))?, 1);
        assert_eq!(s2.next_lsn(), 2, "nothing written");
        commit_one(&mut s2, 1);
        assert_eq!(s2.checkpoint(&state(3))?, 3, "a record since: a new one");
        let rec = DurableStorage::open(mem, DurableOptions::default()).recover()?;
        assert_eq!(loaded(&rec), Some((3, 3)));
        Ok(())
    }

    /// A power loss that tears a checkpoint's commit leaves it out: the
    /// torn frame is the log's tail, and recovery replays the records
    /// before it from the previous checkpoint.
    #[test]
    fn a_torn_checkpoint_commit_recovers_without_it() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut fm = FaultMedium::new(mem.clone());
        fm.schedule(3, StorageFault::TornWrite); // the second checkpoint
        let mut s = DurableStorage::open(fm, DurableOptions::default());
        s.recover()?;
        commit_one(&mut s, 0);
        s.checkpoint(&state(1))?;
        commit_one(&mut s, 1);
        assert!(s.checkpoint(&state(3)).is_err());
        drop(s);
        mem.crash();
        let rec = DurableStorage::open(mem, DurableOptions::default()).recover()?;
        assert!(rec.report.corrupt_stop.is_none(), "{:?}", rec.report);
        assert_eq!(loaded(&rec), Some((1, 1)));
        assert_eq!(rec.tail.len(), 1);
        Ok(())
    }

    /// A stream's pieces ride commits that carry records of their own.
    /// Until its last piece lands the stream is skipped and recovery takes
    /// the one before; a stream missing a piece never completes; a
    /// complete one that does not decode is counted and skipped.
    #[test]
    fn a_stream_counts_only_once_every_piece_is_in() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover()?;
        let first = s.checkpoint(&state(0xa))?;
        let streamed = state(0xb);
        let pieces: Vec<&[u8]> = streamed.chunks(streamed.len().div_ceil(3)).collect();
        let at = s.next_lsn();
        let mut recovered = Vec::new();
        for (i, piece) in pieces.iter().enumerate() {
            let mut b = WriteBatch::new();
            b.push(op_record(i as u64));
            b.push_chunk((at, i as u32, 3), piece.len(), |buf| {
                buf.extend_from_slice(piece)
            });
            s.commit(b)?;
            let rec = DurableStorage::open(mem.clone(), DurableOptions::default()).recover()?;
            recovered.push((
                loaded(&rec).map(|(lsn, _)| lsn),
                rec.report.stream,
                rec.tail.len(),
            ));
        }
        let want = [
            (Some(first), Some((1, 3)), 1),
            (Some(first), Some((2, 3)), 2),
            (Some(at), Some((3, 3)), 3),
        ];
        assert_eq!(
            recovered, want,
            "pieces never replay; the ops riding them do"
        );

        // Piece 1 of 3 is lost: the stream stays one piece in.
        let gap = s.next_lsn();
        for i in [0u32, 2] {
            let mut b = WriteBatch::new();
            b.push_chunk((gap, i, 3), 1, |buf| buf.push(0));
            s.commit(b)?;
        }
        let rec = DurableStorage::open(mem.clone(), DurableOptions::default()).recover()?;
        assert_eq!(
            (rec.report.stream, loaded(&rec)),
            (Some((1, 3)), Some((at, 0xb)))
        );
        s.checkpoint(b"no state at all")?;
        let rec = DurableStorage::open(mem, DurableOptions::default()).recover()?;
        assert_eq!(rec.report.stream, Some((1, 1)));
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(loaded(&rec), Some((at, 0xb)));
        Ok(())
    }

    /// With every checkpoint undecodable, a log pruned below them is not
    /// replayed onto an empty state: the pruned records are a hole.
    #[test]
    fn log_pruned_below_damaged_checkpoints_is_a_hole() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 1,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover()?;
        for i in 0..6 {
            commit_one(&mut s, i);
            if i == 2 || i == 4 {
                s.checkpoint(b"damaged")?;
                s.commit(WriteBatch::new())?;
            }
        }
        assert_eq!(s.segment_lsns()?, vec![3, 4, 5, 6, 7], "pruned below 3");
        let rec = DurableStorage::open(mem, opts).recover()?;
        assert_eq!(rec.report.corrupt_checkpoints, 2);
        assert!(rec.report.corrupt_stop.is_some(), "{:?}", rec.report);
        assert!(rec.tail.is_empty());
        Ok(())
    }

    #[test]
    fn bit_flip_stops_replay_at_the_flip() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        for i in 0..6 {
            commit_one(&mut s, i);
        }
        let name = log::segment_name(0);
        let mut buf = mem.read(&name).unwrap().unwrap();
        // Flip a bit inside the 4th record's frame.
        let frame_len = buf.len() / 6;
        buf[3 * frame_len + 10] ^= 0x04;
        let mut raw = mem.clone();
        raw.write_atomic(&name, &buf).unwrap();
        let mut s2 = DurableStorage::open(mem.clone(), DurableOptions::default());
        let rec = s2.recover().unwrap();
        assert_eq!(rec.tail.len(), 3, "replay stops before the corruption");
        assert!(rec.report.corrupt_stop.is_some());
        assert_eq!(s2.next_lsn(), 3);
        // The store is halted: nothing may be acknowledged on top of a log
        // that lost acknowledged records, and the damage stays on disk for
        // the operator (a plain re-recovery still reports it).
        let refused = s2.commit({
            let mut b = WriteBatch::new();
            b.push(op_record(3));
            b
        });
        assert!(
            matches!(refused, Err(StorageError::Unrecoverable(_))),
            "{refused:?}"
        );
        let again = DurableStorage::open(mem.clone(), DurableOptions::default())
            .recover()
            .unwrap();
        assert!(again.report.corrupt_stop.is_some(), "evidence preserved");
        // Salvage makes the discard durable; only then is the log clean.
        let mut s3 = DurableStorage::open(mem.clone(), DurableOptions::default());
        let rec3 = s3.salvage().unwrap();
        assert!(rec3.report.corrupt_stop.is_some());
        assert_eq!(rec3.tail.len(), 3);
        let rec4 = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert!(rec4.report.corrupt_stop.is_none());
        assert_eq!(rec4.tail.len(), 3);
    }

    /// The old-timeline resurrection hazard: interior corruption in an
    /// early segment rolls the LSN back, new commits refill the rolled-back
    /// range, and the *stale* later segments — whose first LSN and record
    /// continuity still line up — must never be scanned back into state.
    #[test]
    fn corrupt_stop_quarantines_stale_segments_for_good() {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 100,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover().unwrap();
        for i in 0..20 {
            commit_one(&mut s, i);
        }
        let segs = s.segment_lsns().unwrap();
        assert!(segs.len() > 2, "needs several segments: {segs:?}");
        // Flip a checksum bit of the first segment's last record: interior
        // corruption with live segments after it.
        let name = log::segment_name(segs[0]);
        let mut buf = mem.read(&name).unwrap().unwrap();
        let end = buf.len() - 1;
        buf[end] ^= 0xFF;
        let mut raw = mem.clone();
        raw.write_atomic(&name, &buf).unwrap();
        drop(s);

        let mut s2 = DurableStorage::open(mem.clone(), opts);
        assert!(
            s2.recover().unwrap().report.corrupt_stop.is_some(),
            "recovery reports the stop and halts"
        );
        let rec = s2.salvage().unwrap();
        assert!(rec.report.corrupt_stop.is_some());
        assert_eq!(
            rec.report.stale_segments_quarantined,
            (segs.len() - 1) as u64,
            "every segment after the stop is quarantined"
        );
        let survivors = rec.tail.len() as u64;
        assert!(survivors < segs[1], "the corrupted record is discarded");
        assert_eq!(s2.next_lsn(), survivors);
        let names = mem.list().unwrap();
        assert!(
            names
                .iter()
                .filter_map(|n| log::parse_segment_name(n))
                .all(|l| l == segs[0]),
            "no stale segment remains scannable: {names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("quarantine-")),
            "stale bytes kept for manual salvage: {names:?}"
        );

        // New commits refill the rolled-back LSN range on the new timeline.
        for j in 0..12 {
            commit_one(&mut s2, 1000 + j);
        }
        drop(s2);
        let rec2 = DurableStorage::open(mem, opts).recover().unwrap();
        assert!(rec2.report.corrupt_stop.is_none(), "{:?}", rec2.report);
        assert!(rec2.report.torn_tail.is_none());
        assert_eq!(rec2.tail.len() as u64, survivors + 12);
        for (i, (lsn, rec)) in rec2.tail.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            let want_seq = if (i as u64) < survivors {
                i as u64
            } else {
                1000 + (i as u64 - survivors)
            };
            assert!(
                matches!(rec, Record::Op { seq, .. } if *seq == want_seq),
                "lsn {lsn}: stale-timeline record resurfaced"
            );
        }
    }

    /// A frame that verifies but whose record does not decode is shed from
    /// the segment at recovery, so the stop does not recur forever.
    #[test]
    fn undecodable_record_is_shed_not_rescanned() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        for i in 0..3 {
            commit_one(&mut s, i);
        }
        // A well-framed record with a tag no decoder knows.
        let bogus = log::frame(&log::payload(3, 0xEE, b"junk"));
        let mut raw = mem.clone();
        raw.append(&log::segment_name(0), &bogus).unwrap();
        raw.sync(&log::segment_name(0)).unwrap();
        drop(s);

        let mut s2 = DurableStorage::open(mem.clone(), DurableOptions::default());
        let rec = s2.salvage().unwrap();
        assert_eq!(rec.tail.len(), 3);
        assert!(rec.report.corrupt_stop.is_some());
        assert_eq!(s2.next_lsn(), 3, "rolled back to the undecodable record");
        // Shed durably: recovery does not stop at the same record again,
        // and the log keeps growing cleanly past it.
        commit_one(&mut s2, 3);
        drop(s2);
        let rec2 = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert!(rec2.report.corrupt_stop.is_none(), "{:?}", rec2.report);
        assert_eq!(rec2.tail.len(), 4);
    }

    /// Oversized payloads are rejected when written, not discovered as
    /// "corruption" by the next recovery.
    #[test]
    fn oversized_checkpoint_rejected_at_write_time() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        commit_one(&mut s, 0);
        // Zero pages: allocated lazily, never touched before the size check.
        let huge = vec![0u8; log::MAX_PAYLOAD - 7];
        match s.checkpoint(&huge) {
            Err(StorageError::TooLarge { what, .. }) => assert_eq!(what, "checkpoint"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Nothing reached disk; the store still recovers cleanly.
        drop(s);
        let rec = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.tail.len(), 1);
    }

    /// Commits that straddle the read window's edge are carried over, and
    /// one larger than the window grows it: every record reads back.
    #[test]
    fn commits_across_and_beyond_the_window_read_back() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 4 << 20,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover()?;
        let sizes = [100_000, 200_000, WINDOW + 1000, 7, 3 * WINDOW];
        for (i, &len) in sizes.iter().enumerate() {
            let mut b = WriteBatch::new();
            b.push(Record::Op {
                user: 0,
                seq: i as u64,
                op: Op::Put(u64_key(i as u64), vec![i as u8; len]),
                round: 0,
            });
            s.commit(b)?;
        }
        let rec = DurableStorage::open(mem, opts).recover()?;
        let read: Vec<usize> = (rec.tail.iter())
            .map(|(_, r)| match r {
                Record::Op {
                    op: Op::Put(_, v), ..
                } => v.len(),
                _ => 0,
            })
            .collect();
        assert_eq!(read, sizes);
        assert!(rec.report.corrupt_stop.is_none() && rec.report.torn_tail.is_none());
        Ok(())
    }

    #[test]
    fn segment_rotation_preserves_replay_order() {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 100,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover().unwrap();
        for i in 0..20 {
            commit_one(&mut s, i);
        }
        let segs = s.segment_lsns().unwrap();
        assert!(segs.len() > 1, "rotation happened: {segs:?}");
        let rec = DurableStorage::open(mem, opts).recover().unwrap();
        assert_eq!(rec.tail.len(), 20);
        for (i, (lsn, _)) in rec.tail.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
        }
    }
}

//! The storage abstraction: open → batch → atomic commit → recover.
//!
//! [`Storage`] is the boundary between the server engine and persistence,
//! in the shape of grovedb's storage layer: the engine stages [`Record`]s
//! into a [`WriteBatch`], commits the batch atomically (one append + one
//! fsync), and on restart calls [`Storage::recover`] to get back the
//! newest valid checkpoint plus the log tail after it.
//!
//! Two backends:
//!
//! * [`MemStorage`] — the refactored in-memory maps: same trait, no
//!   durability (a `recover` after drop starts empty). Only
//!   `DurableServer`'s unit tests run on it; the simulator never does.
//! * [`DurableStorage`] — the real engine over a [`Medium`]: checksummed
//!   length-prefixed append-only segments ([`crate::log`]), periodic
//!   checkpoint files, segment rotation, and log truncation after
//!   checkpoint.
//!
//! ## Streamed checkpoints
//!
//! [`Storage::checkpoint`] on [`DurableStorage`] only copies the state.
//! Each following commit appends and fsyncs one more slice of the
//! checkpoint's frame (at most `log::MAX_SLICES` of them) before
//! its own records, so no single request writes the whole tree. The last
//! slice carries the checksum; only once it is synced are the log segments
//! and old checkpoints the new one subsumes removed, again one per commit.
//! A commit with an empty batch finishes all of it, and a new checkpoint
//! finishes the previous one first. A crash mid-stream leaves an
//! *interrupted* checkpoint file that recovery skips and removes; the
//! previous checkpoint and the log behind it are still there.
//!
//! ## Deltas
//!
//! Between full checkpoints the engine logs [`Record::Delta`]s, each based
//! on the checkpoint or delta before it. Recovery keeps a delta based on
//! the *anchor* — the checkpoint it loaded, then each delta it kept — and
//! drops the records since the anchor, which the delta summarises; any
//! other delta, and a delta frame that verifies but does not decode, it
//! leaves out, so the records stay and replay. The tail it hands back is
//! the chain of deltas, then the records after the newest. Pruning is
//! unchanged: the log goes only behind full checkpoints, so every record
//! a delta summarises is still on the medium.
//!
//! ## Recovery state machine ([`DurableStorage::recover`])
//!
//! 0. **Check the format**: a medium whose segments or checkpoints have
//!    no `log::FORMAT_MARKER` beside them was written under another frame
//!    format; recovery refuses it with [`StorageError::UnknownFormat`]
//!    before reading anything, salvage included. An empty medium gets the
//!    marker.
//! 1. **Pick a checkpoint**: try checkpoint files newest-first; the first
//!    one whose frame checksum and body decode verify wins. Corrupt ones
//!    are counted and skipped (that is why two are retained); an
//!    interrupted one is counted apart and removed (unless recovery halts).
//! 2. **Scan the log**: segments in LSN order, each record's checksum and
//!    LSN continuity verified, by the three tail rules of [`crate::log`];
//!    deltas on the chain replace the records they summarise.
//!    A run of zeros after a segment's last frame is the unused rest of
//!    its extent. A *torn* tail (a damaged frame with nothing verifying
//!    after it) in the last segment is the expected crash shape: discard
//!    it, note it, continue. Torn or corrupt frames anywhere else stop the
//!    scan — no record after a hole is trusted.
//! 3. **Re-read on short read**: a scan that stops early retries the read
//!    once; a transient short read heals, a real torn tail does not.
//! 4. **Truncate the tail**: the last segment is atomically rewritten to
//!    its valid prefix, so torn bytes can never resurface and the next
//!    commit lands right after the last record, not after the zeros.

use tcvs_store::enc::Writer;

use crate::error::StorageError;
use crate::log::{self, CheckpointScan, SegmentScan, SlicedFrame, TailStatus};
use crate::medium::Medium;
use crate::record::{Record, TAG_DELTA};

/// Records staged for one atomic commit, each encoded once, straight into
/// its log frame: the commit only fills in LSNs and checks
/// (`log::seal`) and appends the batch's bytes as they are.
#[derive(Default)]
pub struct WriteBatch {
    /// Unsealed frames back to back ([`log::open_frame`]).
    frames: Vec<u8>,
    records: usize,
    /// Size of the first body over [`log::MAX_BODY`]: such a batch is
    /// refused whole at commit.
    oversized: Option<usize>,
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
        let body = log::open_frame(&mut self.frames, tag, put);
        if body > log::MAX_BODY {
            self.oversized.get_or_insert(body);
        }
        self.records += 1;
        self
    }

    /// Makes room for one more record of a `body`-byte body, so that a
    /// large record is written into one allocation rather than grown into
    /// it.
    pub(crate) fn reserve(&mut self, body: usize) {
        self.frames.reserve(log::frame_len(body) as usize);
    }

    /// Number of staged records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The staged frames, refused whole when a body is too large: an
    /// oversized frame would be written fine and then classified as
    /// corruption on every recovery.
    fn into_frames(self) -> Result<Vec<u8>, StorageError> {
        match self.oversized {
            Some(bytes) => Err(StorageError::TooLarge {
                what: "record",
                bytes,
            }),
            None => Ok(self.frames),
        }
    }
}

/// The replay tail as recovery assembles it, record by record in LSN
/// order. A delta whose base is the anchor — the newest checkpoint or
/// delta on the chain — summarises every record since the anchor, so those
/// records leave the tail and the delta becomes the anchor. A delta off
/// the chain (its base is a checkpoint recovery did not load) is left out,
/// and the records it would have summarised stay. The tail therefore holds
/// the deltas since the checkpoint, then the records after the newest.
struct Tail {
    records: Vec<(u64, Record)>,
    anchor: u64,
    deltas: u64,
}

impl Tail {
    fn new(base: u64) -> Tail {
        Tail {
            records: Vec::new(),
            anchor: base,
            deltas: 0,
        }
    }

    fn push(&mut self, lsn: u64, rec: Record) {
        if let Record::Delta(delta) = &rec {
            if delta.base != self.anchor {
                return;
            }
            self.records.retain(|(_, r)| matches!(r, Record::Delta(_)));
            self.anchor = lsn;
            self.deltas += 1;
        }
        self.records.push((lsn, rec));
    }

    /// The tail, with its counts entered in `report`.
    fn finish(self, report: &mut RecoveryReport) -> Vec<(u64, Record)> {
        report.deltas = self.deltas;
        report.records_replayed = self.records.len() as u64 - self.deltas;
        self.records
    }
}

/// What happened during the tail scan of a recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments scanned.
    pub segments_scanned: u64,
    /// Records handed back for replay after the newest delta (deltas not
    /// counted).
    pub records_replayed: u64,
    /// Deltas handed back to be applied, in order, on top of the
    /// checkpoint (see [`Recovered::tail`]).
    pub deltas: u64,
    /// Checkpoint files that failed verification and were skipped.
    pub corrupt_checkpoints: u64,
    /// Checkpoint files shorter than their length header — streams a crash
    /// cut short — skipped and (unless recovery halts) removed.
    pub interrupted_checkpoints: u64,
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
    /// `(lsn, state bytes)` of the newest valid checkpoint, if any. Every
    /// record below `lsn` is subsumed by it.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// The log at and after the checkpoint LSN, in order, with LSNs: first
    /// the chain of [`Record::Delta`]s, each based on the checkpoint or the
    /// delta before it, then the records after the newest delta — the
    /// replay tail. The records a delta summarises are left out; a delta
    /// that is torn, missing or does not decode leaves them in.
    pub tail: Vec<(u64, Record)>,
    /// What the scan saw.
    pub report: RecoveryReport,
}

/// The storage boundary (see module docs).
pub trait Storage: Send {
    /// Commits a batch atomically: all records become durable (one fsync)
    /// or none do. Returns the LSN after the last committed record.
    ///
    /// A backend that streams checkpoints ([`DurableStorage`]) first does
    /// one step of the pending checkpoint work — one appended and fsynced
    /// slice, or one removed file the finished checkpoint subsumes — and an
    /// error there fails the commit before any of its records is written.
    /// An **empty batch** does all of the pending work: on return the last
    /// checkpoint is durable and pruning is done.
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError>;

    /// Starts a checkpoint covering every committed record and returns its
    /// LSN. The state is copied; it need not outlive the call.
    ///
    /// A streaming backend ([`DurableStorage`]) writes nothing here beyond
    /// what a previous checkpoint still had pending, which it finishes
    /// first. The new checkpoint reaches the medium in slices carried by
    /// the following commits, and the log segments and old checkpoints it
    /// subsumes are pruned only after its last slice is synced — until then
    /// a crash recovers from the previous checkpoint plus the log. Commit an
    /// empty batch to make it durable at once.
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

/// The in-memory backend: the trait over plain vectors. `recover` returns
/// what was committed in this process lifetime — dropping it loses
/// everything, exactly as the pre-durability server did.
#[derive(Default)]
pub struct MemStorage {
    checkpoint: Option<(u64, Vec<u8>)>,
    records: Vec<(u64, Record)>,
    next_lsn: u64,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }
}

impl Storage for MemStorage {
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError> {
        let frames = batch.into_frames()?;
        for (tag, body) in log::open_frames(&frames) {
            self.records
                .push((self.next_lsn, Record::decode(tag, body)?));
            self.next_lsn += 1;
        }
        Ok(self.next_lsn)
    }

    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError> {
        let lsn = self.next_lsn;
        self.checkpoint = Some((lsn, state.to_vec()));
        self.records.retain(|(l, _)| *l >= lsn);
        Ok(lsn)
    }

    fn recover(&mut self) -> Result<Recovered, StorageError> {
        let base = self.checkpoint.as_ref().map_or(0, |(lsn, _)| *lsn);
        let mut tail = Tail::new(base);
        for (lsn, rec) in self.records.iter().filter(|(l, _)| *l >= base) {
            tail.push(*lsn, rec.clone());
        }
        let mut report = RecoveryReport::default();
        Ok(Recovered {
            checkpoint: self.checkpoint.clone(),
            tail: tail.finish(&mut report),
            report,
        })
    }

    fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

/// Tuning knobs for [`DurableStorage`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Rotate to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: usize,
    /// Checkpoint files retained (≥ 1). Two by default: if the newest is
    /// corrupt, recovery falls back to the previous one plus the log tail
    /// kept alive since it.
    pub retain_checkpoints: usize,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            segment_bytes: 1 << 20,
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
    /// Frame of the newest checkpoint, handed out one slice per commit
    /// until its last slice is synced.
    frame: SlicedFrame,
    /// LSN of the newest checkpoint known to be complete on the medium.
    complete: Option<u64>,
    /// Files the newest complete checkpoint subsumes, removed one per
    /// commit.
    doomed: Vec<String>,
}

impl<M: Medium> DurableStorage<M> {
    /// Opens the store on `medium`. [`Storage::recover`] must run before
    /// the first commit — it checks the frame format, positions the append
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
            frame: SlicedFrame::default(),
            complete: None,
            doomed: Vec::new(),
        }
    }

    /// The medium (tests inspect durable bytes through it).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    fn checkpoint_lsns(&self) -> Result<Vec<u64>, StorageError> {
        let mut lsns: Vec<u64> = self
            .medium
            .list()?
            .iter()
            .filter_map(|n| log::parse_checkpoint_name(n))
            .collect();
        lsns.sort_unstable();
        Ok(lsns)
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

    /// Reads and scans one segment, retrying once if the tail looks torn
    /// but a re-read returns more bytes (transient short read).
    fn scan_segment(
        &self,
        name: &str,
        expected_lsn: u64,
        report: &mut RecoveryReport,
    ) -> Result<SegmentScan, StorageError> {
        let buf = self.medium.read(name)?.unwrap_or_default();
        let scan = log::scan(&buf, expected_lsn);
        if scan.tail.is_clean() {
            return Ok(scan);
        }
        let again = self.medium.read(name)?.unwrap_or_default();
        if again.len() > buf.len() {
            report.short_reads_retried += 1;
            return Ok(log::scan(&again, expected_lsn));
        }
        Ok(scan)
    }

    /// Queues for removal the checkpoints beyond the retention count and the
    /// log segments fully covered by the oldest retained checkpoint.
    fn plan_prune(&mut self) -> Result<(), StorageError> {
        let mut ckpts = self.checkpoint_lsns()?;
        let excess = ckpts.len().saturating_sub(self.opts.retain_checkpoints);
        self.doomed
            .extend(ckpts.drain(..excess).map(log::checkpoint_name));
        let Some(&cutoff) = ckpts.first() else {
            return Ok(());
        };
        let segs = self.segment_lsns()?;
        // Segment i covers [segs[i], segs[i+1]); it is disposable when the
        // whole range sits below the cutoff. The active segment (last) is
        // never removed.
        for pair in segs.windows(2) {
            if pair[1] <= cutoff && log::segment_name(pair[0]) != self.seg_name {
                self.doomed.push(log::segment_name(pair[0]));
            }
        }
        Ok(())
    }

    /// One step of pending checkpoint work: the next slice of the streaming
    /// checkpoint, else one subsumed file. False when nothing was pending.
    fn step(&mut self) -> Result<bool, StorageError> {
        let lsn = self.frame.lsn();
        if let Some(slice) = self.frame.next_slice() {
            let name = log::checkpoint_name(lsn);
            let written = self
                .medium
                .append(&name, slice)
                .and_then(|()| self.medium.sync(&name));
            if let Err(e) = written {
                // The partial file is dead: the next checkpoint at this LSN
                // starts over, and recovery removes it.
                self.frame.abandon();
                return Err(e);
            }
            if self.frame.is_done() {
                // The checkpoint is durable; only now may what it subsumes go.
                self.complete = Some(lsn);
                self.plan_prune()?;
            }
        } else if let Some(name) = self.doomed.pop() {
            self.medium.remove(&name)?;
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// Does all pending checkpoint work.
    fn flush(&mut self) -> Result<(), StorageError> {
        while self.step()? {}
        Ok(())
    }

    /// Refuses a medium whose framed files have no [`log::FORMAT_MARKER`]
    /// beside them — written under another frame format, whose every frame
    /// would fail this build's check and read as corruption — and marks a
    /// medium holding none as this format. Recovery runs it before it
    /// reads, repairs or salvages anything.
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
            self.flush()?;
            return Ok(self.next_lsn);
        }
        let mut buf = batch.into_frames()?;
        let lsn = log::seal(&mut buf, self.next_lsn);
        // Pending checkpoint work rides along, ahead of the records: if it
        // fails, the commit fails with nothing of the batch on the medium.
        self.step()?;
        if self.seg_bytes > 0 && self.seg_bytes + buf.len() > self.opts.segment_bytes {
            self.seg_name = log::segment_name(self.next_lsn);
            self.seg_bytes = 0;
        }
        // One append + one fsync per batch: a crash either keeps the whole
        // suffix out (torn tail, discarded at recovery) or lands it all.
        self.medium.append(&self.seg_name, &buf)?;
        self.medium.sync(&self.seg_name)?;
        self.seg_bytes += buf.len();
        self.next_lsn = lsn;
        Ok(lsn)
    }

    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError> {
        self.check_writable("checkpoint")?;
        if 8 + state.len() > log::MAX_PAYLOAD {
            return Err(StorageError::TooLarge {
                what: "checkpoint",
                bytes: state.len(),
            });
        }
        self.flush()?;
        let lsn = self.next_lsn;
        if self.complete == Some(lsn) {
            // Already on the medium, covering every committed record. A
            // second stream under the same name could only destroy it.
            return Ok(lsn);
        }
        // A stream appends from an empty file; clear whatever a failed
        // stream or a corrupt checkpoint left under this name.
        self.medium.remove(&log::checkpoint_name(lsn))?;
        self.frame.start(lsn, state);
        // Rotate so the pre-checkpoint segment becomes prunable once the
        // *next* checkpoint completes.
        if self.seg_bytes > 0 {
            self.seg_name = log::segment_name(lsn);
            self.seg_bytes = 0;
        }
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
    /// The recovery state machine (see module docs). `repair` is the
    /// [`Storage::salvage`] mode: with it, a corrupt stop quarantines the
    /// stale suffix and truncates the stopped segment so the store can
    /// serve on from the surviving prefix; without it, interior corruption
    /// halts the store with the medium left exactly as found.
    fn recover_impl(&mut self, repair: bool) -> Result<Recovered, StorageError> {
        self.check_format()?;
        let mut report = RecoveryReport::default();
        self.halted = None;
        // Whatever checkpoint work this incarnation had pending is void: the
        // medium is re-read from scratch.
        self.frame.abandon();
        self.doomed.clear();

        // 1. Newest checkpoint that verifies.
        let mut checkpoint: Option<(u64, Vec<u8>)> = None;
        let mut interrupted = Vec::new();
        for lsn in self.checkpoint_lsns()?.into_iter().rev() {
            let name = log::checkpoint_name(lsn);
            let Some(buf) = self.medium.read(&name)? else {
                continue;
            };
            match log::scan_checkpoint(&buf) {
                CheckpointScan::Valid(stored_lsn, state) if stored_lsn == lsn => {
                    checkpoint = Some((lsn, state));
                    break;
                }
                CheckpointScan::Interrupted => {
                    report.interrupted_checkpoints += 1;
                    interrupted.push(name);
                }
                _ => report.corrupt_checkpoints += 1,
            }
        }
        self.complete = checkpoint.as_ref().map(|(lsn, _)| *lsn);
        let base = self.complete.unwrap_or(0);

        // 2. Scan segments in LSN order. The scan starts at the base at the
        // latest: a log that begins above it has lost the records between.
        let segs = self.segment_lsns()?;
        let mut tail = Tail::new(base);
        let mut expected = segs.first().map_or(0, |&first| first.min(base));
        let mut last_valid: Option<(String, u64)> = None; // (name, valid_len)
        let mut stopped = false;
        // First segment index the scan never reached; everything from here
        // on is quarantined when the scan stopped at corruption.
        let mut stale_from = segs.len();
        for (i, &first_lsn) in segs.iter().enumerate() {
            if stopped {
                break;
            }
            let next_first = segs.get(i + 1).copied();
            // A segment entirely below the checkpoint whose records we will
            // never replay can be skipped wholesale (it survives only until
            // the next prune).
            if let Some(next) = next_first.filter(|&n| n <= base) {
                expected = next;
                continue;
            }
            let name = log::segment_name(first_lsn);
            if first_lsn != expected {
                report.corrupt_stop = Some(format!(
                    "segment {name} starts at lsn {first_lsn}, expected {expected}"
                ));
                stale_from = i;
                break;
            }
            report.segments_scanned += 1;
            let scan = self.scan_segment(&name, expected, &mut report)?;
            let mut valid_len = scan.valid_len;
            let mut offset = 0u64; // byte offset of the record under examination
            for (lsn, tag, body) in &scan.records {
                if *lsn >= base {
                    match Record::decode(*tag, body) {
                        Ok(rec) => tail.push(*lsn, rec),
                        // A delta only summarises records the log still
                        // holds: one that does not decode is left out, and
                        // they replay instead.
                        Err(_) if *tag == TAG_DELTA => {}
                        Err(e) => {
                            // The frame verified but the record does not
                            // decode: stop *at* this record — `expected`
                            // stays rolled back to its LSN and the frame is
                            // shed from the segment with everything after
                            // it, so it can never be rescanned.
                            report.corrupt_stop = Some(format!("record {lsn} in {name}: {e}"));
                            valid_len = offset;
                            stopped = true;
                            break;
                        }
                    }
                }
                offset += log::frame_len(body.len());
                expected = lsn + 1;
            }
            if !stopped {
                match &scan.tail {
                    TailStatus::Clean => {}
                    TailStatus::Zeros { len, .. } => {
                        if next_first.is_none() {
                            report.zero_tail_bytes = *len;
                        }
                    }
                    TailStatus::Torn { offset, dropped } => {
                        // A torn tail is only benign where a crash can
                        // produce one: with no successor segment carrying
                        // on. A tear *under* a later segment is a hole.
                        if next_first.is_some() {
                            report.corrupt_stop = Some(format!(
                                "torn record at byte {offset} of {name} below a later segment"
                            ));
                        } else {
                            report.torn_tail = Some(TornTail {
                                segment: name.clone(),
                                offset: *offset,
                                dropped_bytes: *dropped,
                            });
                        }
                        stopped = true;
                    }
                    TailStatus::Corrupt { offset, reason } => {
                        report.corrupt_stop = Some(format!("{reason} at byte {offset} of {name}"));
                        stopped = true;
                    }
                }
            }
            if stopped {
                stale_from = i + 1;
            }
            last_valid = Some((name, valid_len));
        }
        let tail = tail.finish(&mut report);

        // 3. Interior corruption means acknowledged records past the stop
        // point are lost. Outside salvage mode, leave the medium exactly as
        // found — the damaged bytes are evidence for the operator — and
        // halt: commits are refused until `salvage` makes the discard
        // explicit. (A benign torn tail never takes this path.)
        if let Some(stop) = &report.corrupt_stop {
            if !repair {
                self.next_lsn = expected.max(base);
                self.halted = Some(stop.clone());
                self.recovered = false;
                return Ok(Recovered {
                    checkpoint,
                    tail,
                    report,
                });
            }
        }

        // 4. (Salvage only.) A corrupt stop poisons everything after it:
        // records beyond the stop point are never replayed ("no record
        // after a hole"), so leaving their segments on disk would let the
        // *next* recovery scan straight past the repaired prefix into the
        // old timeline once new commits fill the LSN range back up — and
        // rotation could reuse a stale segment's name and append into its
        // old contents. Move them aside under names no scan or rotation
        // ever touches.
        if report.corrupt_stop.is_some() {
            for &first_lsn in &segs[stale_from..] {
                let name = log::segment_name(first_lsn);
                if let Some(buf) = self.medium.read(&name)? {
                    self.medium
                        .write_atomic(&log::quarantine_name(&name), &buf)?;
                }
                self.medium.remove(&name)?;
                report.stale_segments_quarantined += 1;
            }
        }

        // 5. Make the discard permanent: drop interrupted checkpoints, so no
        // stream appends to one and no retention count includes one;
        // truncate the last scanned segment to its valid prefix so torn
        // bytes can never resurface and a zero tail does not sit between
        // its records and the next commit, and point appends at it.
        for name in &interrupted {
            self.medium.remove(name)?;
        }
        self.next_lsn = expected.max(base);
        if let Some((name, valid_len)) = &last_valid {
            let buf = self.medium.read(name)?.unwrap_or_default();
            if (buf.len() as u64) > *valid_len {
                self.medium
                    .write_atomic(name, &buf[..*valid_len as usize])?;
            }
        }
        match last_valid {
            // Resume appending to the scanned segment only when the next
            // commit continues its LSN run; if the checkpoint sits past the
            // end of the scanned log (`base > expected`, e.g. corruption
            // below a checkpoint that subsumes it), appending there would
            // put an LSN gap *inside* the segment, so start a fresh one.
            Some((name, valid_len)) if self.next_lsn == expected => {
                self.seg_name = name;
                self.seg_bytes = valid_len as usize;
            }
            _ => {
                self.seg_name = log::segment_name(self.next_lsn);
                self.seg_bytes = 0;
            }
        }
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
    use crate::medium::MemMedium;
    use tcvs_core::StorageFault;
    use tcvs_merkle::{u64_key, Op};

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
        let mut s = MemStorage::new();
        for i in 0..5 {
            commit_one(&mut s, i);
        }
        s.checkpoint(b"state@5").unwrap();
        for i in 5..8 {
            commit_one(&mut s, i);
        }
        let rec = s.recover().unwrap();
        assert_eq!(rec.checkpoint, Some((5, b"state@5".to_vec())));
        assert_eq!(rec.tail.len(), 3);
        assert_eq!(rec.tail[0].0, 5);
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

    #[test]
    fn checkpoint_prunes_segments_and_keeps_fallback() {
        let mem = MemMedium::new();
        let opts = DurableOptions {
            segment_bytes: 128,
            retain_checkpoints: 2,
        };
        let mut s = DurableStorage::open(mem.clone(), opts);
        s.recover().unwrap();
        for i in 0..6 {
            commit_one(&mut s, i);
        }
        s.checkpoint(b"state@6").unwrap();
        for i in 6..12 {
            commit_one(&mut s, i);
        }
        s.checkpoint(b"state@12").unwrap();
        for i in 12..15 {
            commit_one(&mut s, i);
        }
        s.checkpoint(b"state@15").unwrap();
        // The earlier checkpoints streamed out in the commits after them;
        // an empty commit finishes the last one and the pruning behind it.
        s.commit(WriteBatch::new()).unwrap();
        let names = mem.list().unwrap();
        let ckpts: Vec<_> = names
            .iter()
            .filter(|n| log::parse_checkpoint_name(n).is_some())
            .collect();
        assert_eq!(ckpts.len(), 2, "retention bound holds: {names:?}");
        let rec = DurableStorage::open(mem.clone(), opts).recover().unwrap();
        assert_eq!(rec.checkpoint, Some((15, b"state@15".to_vec())));
        assert!(rec.tail.is_empty());

        // Newest checkpoint corrupt → fall back to the previous one and
        // replay the tail records since it.
        let name = log::checkpoint_name(15);
        let mut buf = mem.read(&name).unwrap().unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let mut raw = mem.clone();
        raw.write_atomic(&name, &buf).unwrap();
        let rec = DurableStorage::open(mem, opts).recover().unwrap();
        assert_eq!(rec.report.corrupt_checkpoints, 1);
        assert_eq!(rec.checkpoint.as_ref().unwrap().0, 12);
        assert_eq!(rec.tail.len(), 3, "records 12..15 replay from the log");
    }

    /// A checkpoint at the LSN of the newest complete one, in the same
    /// incarnation or after a recovery, leaves that file alone: a second
    /// stream under its name could only destroy it.
    #[test]
    fn checkpoint_at_a_completed_lsn_keeps_the_complete_file() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        commit_one(&mut s, 0);
        s.checkpoint(b"state@1").unwrap();
        s.commit(WriteBatch::new()).unwrap();
        assert_eq!(s.checkpoint(b"again@1").unwrap(), 1);
        s.commit(WriteBatch::new()).unwrap();
        let mut s2 = DurableStorage::open(mem.clone(), DurableOptions::default());
        s2.recover().unwrap();
        assert_eq!(s2.checkpoint(b"reopened@1").unwrap(), 1);
        s2.commit(WriteBatch::new()).unwrap();
        let rec = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert_eq!(rec.checkpoint, Some((1, b"state@1".to_vec())));
    }

    /// A failed stream leaves a partial file behind; the next checkpoint
    /// under the same name starts from an empty file, not after the debris.
    #[test]
    fn a_failed_stream_restarts_from_an_empty_file() {
        let mem = MemMedium::new();
        let mut fm = FaultMedium::new(mem.clone());
        fm.schedule(1, StorageFault::TornWrite); // the first slice
        let mut s = DurableStorage::open(fm, DurableOptions::default());
        s.recover().unwrap();
        commit_one(&mut s, 0);
        s.checkpoint(b"state@1").unwrap();
        assert!(s.commit(WriteBatch::new()).is_err());
        assert!(mem.read(&log::checkpoint_name(1)).unwrap().is_some());
        s.medium.heal();
        s.checkpoint(b"state@1").unwrap();
        s.commit(WriteBatch::new()).unwrap();
        let rec = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert_eq!(rec.checkpoint, Some((1, b"state@1".to_vec())));
    }

    /// With every checkpoint damaged, a log pruned below them is not
    /// replayed onto an empty state: the pruned records are a hole.
    #[test]
    fn log_pruned_below_damaged_checkpoints_is_a_hole() {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover().unwrap();
        for i in 0..6 {
            commit_one(&mut s, i);
            if i == 2 || i == 4 {
                s.checkpoint(b"state").unwrap();
                s.commit(WriteBatch::new()).unwrap();
            }
        }
        assert_eq!(s.segment_lsns().unwrap(), vec![3, 5], "pruned below 3");
        let mut raw = mem.clone();
        for lsn in [3, 5] {
            let name = log::checkpoint_name(lsn);
            let mut buf = mem.read(&name).unwrap().unwrap();
            let last = buf.len() - 1;
            buf[last] ^= 0x01;
            raw.write_atomic(&name, &buf).unwrap();
        }
        let rec = DurableStorage::open(mem, DurableOptions::default())
            .recover()
            .unwrap();
        assert_eq!(rec.report.corrupt_checkpoints, 2);
        assert!(rec.report.corrupt_stop.is_some(), "{:?}", rec.report);
        assert!(rec.tail.is_empty());
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

    /// A delta that verifies but does not decode is left out of the tail,
    /// not taken for corruption: the records it would summarise replay
    /// instead.
    #[test]
    fn a_delta_that_does_not_decode_leaves_its_records_in() -> Result<(), StorageError> {
        let mem = MemMedium::new();
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        s.recover()?;
        for i in 0..3 {
            commit_one(&mut s, i);
        }
        let mut raw = mem.clone();
        let junk = log::frame(&log::payload(3, TAG_DELTA, b"junk"));
        raw.append(&log::segment_name(0), &junk)?;
        raw.sync(&log::segment_name(0))?;
        drop(s);
        let mut s = DurableStorage::open(mem.clone(), DurableOptions::default());
        let rec = s.recover()?;
        assert!(rec.report.corrupt_stop.is_none(), "{:?}", rec.report);
        assert_eq!((rec.report.deltas, rec.report.records_replayed), (0, 3));
        for i in 3..5 {
            commit_one(&mut s, i);
        }
        let rec = s.recover()?;
        assert_eq!(rec.tail.len(), 5);
        assert!(rec.tail.iter().all(|(_, r)| matches!(r, Record::Op { .. })));
        Ok(())
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

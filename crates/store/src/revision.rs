//! Per-file revision chains with RCS-style reverse-delta storage.
//!
//! The newest revision is stored in full; each older revision is stored as
//! an edit script *from the next-newer revision back to it*. Checking out
//! the head is O(1); checking out revision `r` applies `head_rev − r`
//! deltas, matching how CVS/RCS store `,v` files.

use crate::diff::{diff, EditScript};
use crate::enc::{DecodeError, Reader, Sink, Writer};
use crate::patch::{apply, PatchError};

/// A revision number within one file's history. The first revision is 1
/// (CVS would render it "1.1").
pub type RevNo = u32;

/// Metadata recorded with every committed revision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevMeta {
    /// Committing user's name.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Logical timestamp (simulation round or wall-clock seconds).
    pub stamp: u64,
}

/// One archived (non-head) revision: metadata + the reverse delta that
/// reconstructs it from the next-newer revision.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ArchivedRev {
    meta: RevMeta,
    /// Edit script from revision `n+1`'s content to revision `n`'s content.
    back_delta: EditScript,
}

/// A file's complete revision history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileHistory {
    /// Content of the head revision, as lines.
    head: Vec<String>,
    /// Metadata of the head revision.
    head_meta: RevMeta,
    /// Archived older revisions: `archived[i]` is revision `i+1`, so the
    /// last archived entry is the revision just below head.
    archived: Vec<ArchivedRev>,
}

/// Errors when reading a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// Requested revision does not exist (0 or greater than head).
    NoSuchRevision(RevNo),
    /// A stored delta failed to apply — the history bytes are corrupt.
    Corrupt(PatchError),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::NoSuchRevision(r) => write!(f, "no such revision {r}"),
            HistoryError::Corrupt(e) => write!(f, "corrupt history: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl FileHistory {
    /// Creates a history whose revision 1 has `content`.
    pub fn create(content: Vec<String>, meta: RevMeta) -> FileHistory {
        FileHistory {
            head: content,
            head_meta: meta,
            archived: Vec::new(),
        }
    }

    /// Head revision number.
    pub fn head_rev(&self) -> RevNo {
        self.archived.len() as RevNo + 1
    }

    /// Head content (lines).
    pub fn head_content(&self) -> &[String] {
        &self.head
    }

    /// Metadata for `rev`.
    pub fn meta(&self, rev: RevNo) -> Result<&RevMeta, HistoryError> {
        if rev == 0 || rev > self.head_rev() {
            return Err(HistoryError::NoSuchRevision(rev));
        }
        if rev == self.head_rev() {
            Ok(&self.head_meta)
        } else {
            Ok(&self.archived[rev as usize - 1].meta)
        }
    }

    /// Commits new head content; returns the new revision number.
    pub fn commit(&mut self, content: Vec<String>, meta: RevMeta) -> RevNo {
        let back_delta = diff(&content, &self.head);
        let old_meta = std::mem::replace(&mut self.head_meta, meta);
        self.archived.push(ArchivedRev {
            meta: old_meta,
            back_delta,
        });
        // The freshly archived entry describes the *previous* head, which is
        // revision `head_rev - 1` after the push; keep entries ordered by
        // revision: archived[i] = revision i+1. The push appends the highest
        // archived revision, so order is already correct.
        self.head = content;
        self.head_rev()
    }

    /// Reconstructs the content of `rev` (1-based).
    pub fn content_at(&self, rev: RevNo) -> Result<Vec<String>, HistoryError> {
        if rev == 0 || rev > self.head_rev() {
            return Err(HistoryError::NoSuchRevision(rev));
        }
        let mut cur = self.head.clone();
        // Walk back from head-1 down to rev.
        for archived in self.archived[rev as usize - 1..].iter().rev() {
            cur = apply(&cur, &archived.back_delta).map_err(HistoryError::Corrupt)?;
        }
        Ok(cur)
    }

    /// Iterates `(rev, meta)` from revision 1 to head.
    pub fn log(&self) -> impl Iterator<Item = (RevNo, &RevMeta)> {
        self.archived
            .iter()
            .enumerate()
            .map(|(i, a)| (i as RevNo + 1, &a.meta))
            .chain(std::iter::once((self.head_rev(), &self.head_meta)))
    }

    // ------------------------------------------------------------------
    // Serialization (for storing the history as a database value)
    // ------------------------------------------------------------------

    /// Serializes the history to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.archived.len() as u32);
        for a in &self.archived {
            encode_meta(&mut w, &a.meta);
            encode_script(&mut w, &a.back_delta);
        }
        encode_meta(&mut w, &self.head_meta);
        w.u32(self.head.len() as u32);
        for line in &self.head {
            w.string(line);
        }
        w.into_bytes()
    }

    /// Decodes a history serialized by [`FileHistory::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<FileHistory, DecodeError> {
        let mut r = Reader::new(bytes);
        let n_arch = r.u32()? as usize;
        let mut archived = Vec::with_capacity(n_arch);
        for _ in 0..n_arch {
            let meta = decode_meta(&mut r)?;
            let back_delta = decode_script(&mut r)?;
            archived.push(ArchivedRev { meta, back_delta });
        }
        let head_meta = decode_meta(&mut r)?;
        let n_lines = r.u32()? as usize;
        let mut head = Vec::with_capacity(n_lines);
        for _ in 0..n_lines {
            head.push(r.string()?);
        }
        r.finish()?;
        Ok(FileHistory {
            head,
            head_meta,
            archived,
        })
    }
}

fn encode_meta(w: &mut Writer, m: &RevMeta) {
    w.string(&m.author);
    w.string(&m.message);
    w.u64(m.stamp);
}

fn decode_meta(r: &mut Reader<'_>) -> Result<RevMeta, DecodeError> {
    Ok(RevMeta {
        author: r.string()?,
        message: r.string()?,
        stamp: r.u64()?,
    })
}

fn encode_script(w: &mut Writer, s: &EditScript) {
    use crate::diff::DiffOp;
    w.u32(s.len() as u32);
    for op in s {
        match op {
            DiffOp::Copy { base_start, len } => {
                w.u8(0);
                w.u64(*base_start as u64);
                w.u64(*len as u64);
            }
            DiffOp::Insert(lines) => {
                w.u8(1);
                w.u32(lines.len() as u32);
                for l in lines {
                    w.string(l);
                }
            }
        }
    }
}

fn decode_script(r: &mut Reader<'_>) -> Result<EditScript, DecodeError> {
    use crate::diff::DiffOp;
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match r.u8()? {
            0 => out.push(DiffOp::Copy {
                base_start: r.u64()? as usize,
                len: r.u64()? as usize,
            }),
            1 => {
                let k = r.u32()? as usize;
                let mut lines = Vec::with_capacity(k);
                for _ in 0..k {
                    lines.push(r.string()?);
                }
                out.push(DiffOp::Insert(lines));
            }
            t => return Err(DecodeError::BadTag(t)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(author: &str, msg: &str, stamp: u64) -> RevMeta {
        RevMeta {
            author: author.into(),
            message: msg.into(),
            stamp,
        }
    }

    fn lines(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn create_and_head() {
        let h = FileHistory::create(lines(&["v1"]), meta("alice", "initial", 1));
        assert_eq!(h.head_rev(), 1);
        assert_eq!(h.head_content(), &lines(&["v1"])[..]);
        assert_eq!(h.content_at(1).unwrap(), lines(&["v1"]));
    }

    #[test]
    fn commit_chain_reconstructs_every_revision() {
        let mut h = FileHistory::create(lines(&["a"]), meta("alice", "r1", 1));
        h.commit(lines(&["a", "b"]), meta("bob", "r2", 2));
        h.commit(lines(&["a", "B", "c"]), meta("alice", "r3", 3));
        h.commit(lines(&["z"]), meta("carol", "r4", 4));
        assert_eq!(h.head_rev(), 4);
        assert_eq!(h.content_at(1).unwrap(), lines(&["a"]));
        assert_eq!(h.content_at(2).unwrap(), lines(&["a", "b"]));
        assert_eq!(h.content_at(3).unwrap(), lines(&["a", "B", "c"]));
        assert_eq!(h.content_at(4).unwrap(), lines(&["z"]));
    }

    #[test]
    fn bad_revision_numbers() {
        let h = FileHistory::create(lines(&["x"]), meta("a", "m", 0));
        assert_eq!(h.content_at(0), Err(HistoryError::NoSuchRevision(0)));
        assert_eq!(h.content_at(2), Err(HistoryError::NoSuchRevision(2)));
        assert!(h.meta(2).is_err());
    }

    #[test]
    fn log_is_ordered_and_complete() {
        let mut h = FileHistory::create(lines(&["x"]), meta("a", "first", 10));
        h.commit(lines(&["y"]), meta("b", "second", 20));
        h.commit(lines(&["z"]), meta("c", "third", 30));
        let entries: Vec<(RevNo, String)> = h.log().map(|(r, m)| (r, m.message.clone())).collect();
        assert_eq!(
            entries,
            vec![
                (1, "first".to_string()),
                (2, "second".to_string()),
                (3, "third".to_string())
            ]
        );
    }

    #[test]
    fn serialization_round_trip() {
        let mut h = FileHistory::create(lines(&["alpha", "beta"]), meta("a", "r1", 1));
        h.commit(lines(&["alpha", "BETA", "gamma"]), meta("b", "r2", 2));
        h.commit(Vec::new(), meta("c", "emptied", 3));
        let bytes = h.to_bytes();
        let back = FileHistory::from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
        // Contents reconstruct identically after the round trip.
        for rev in 1..=3 {
            assert_eq!(back.content_at(rev).unwrap(), h.content_at(rev).unwrap());
        }
    }

    #[test]
    fn corrupted_bytes_rejected() {
        let h = FileHistory::create(lines(&["x"]), meta("a", "m", 1));
        let bytes = h.to_bytes();
        assert!(FileHistory::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(FileHistory::from_bytes(&extended).is_err());
    }

    #[test]
    fn reverse_delta_storage_is_compact() {
        // 100 revisions each changing one line of a 200-line file: total
        // storage must be far below 100 full copies.
        let base: Vec<String> = (0..200).map(|i| format!("line {i}")).collect();
        let mut h = FileHistory::create(base.clone(), meta("a", "r1", 0));
        for rev in 0..100u64 {
            let mut c = base.clone();
            c[(rev as usize * 7) % 200] = format!("edited at {rev}");
            h.commit(c, meta("a", "edit", rev));
        }
        let stored = h.to_bytes().len();
        let full_copies = 101 * base.iter().map(|l| l.len() + 9).sum::<usize>();
        assert!(
            stored * 5 < full_copies,
            "stored {stored} vs naive {full_copies}"
        );
    }

    #[test]
    fn meta_lookup_per_revision() {
        let mut h = FileHistory::create(lines(&["x"]), meta("alice", "r1", 1));
        h.commit(lines(&["y"]), meta("bob", "r2", 2));
        assert_eq!(h.meta(1).unwrap().author, "alice");
        assert_eq!(h.meta(2).unwrap().author, "bob");
    }
}

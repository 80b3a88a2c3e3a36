//! Log records: the committed facts the append-only log carries.
//!
//! A record persists an operation's *inputs* — who, which retry, what, when
//! — never its outputs. The server state machine is deterministic, so
//! recovery regenerates every response (including the reply-journal entry
//! the transport acknowledged) by replaying inputs on top of the last
//! checkpoint. That keeps the per-op log write small: an op record costs
//! tens of bytes where a response (with its Merkle proof) costs kilobytes.
//! Checkpoints ride the same log, each as a run of [`Record::Chunk`]s.

use tcvs_core::wire::{
    get_audit_checkpoint, get_epoch_state, get_op, get_signed_state, put_audit_checkpoint,
    put_epoch_state, put_op, put_signed_state,
};
use tcvs_core::{ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId};
use tcvs_merkle::Op;
use tcvs_store::enc::{DecodeError, Reader, Sink, Writer};

/// The sentinel sequence number for ops that arrived without an
/// exactly-once sequence (direct [`tcvs_core::ServerApi::handle_op`]
/// calls); such ops replay into state but never into the reply journal.
pub const NO_SEQ: u64 = u64::MAX;

/// One committed fact.
#[derive(Clone, Debug)]
pub enum Record {
    /// An operation executed by the serialized write path.
    Op {
        /// The requesting user.
        user: UserId,
        /// The transport's exactly-once sequence number ([`NO_SEQ`] if the
        /// op arrived without one).
        seq: u64,
        /// The operation itself.
        op: Op,
        /// The server-side round it executed at.
        round: u64,
    },
    /// A Protocol I signature deposit.
    Signature(SignedState),
    /// A Protocol III epoch-state deposit.
    EpochState(SignedEpochState),
    /// A Protocol III audited checkpoint deposit.
    AuditCheckpoint(SignedCheckpoint),
    /// `((stream, index, count), bytes)`: piece `index` of `count` of a
    /// full checkpoint ([`crate::DurableState`]) covering every record
    /// below LSN `stream`. It changes nothing and never replays; recovery
    /// concatenates a stream's pieces into the state.
    Chunk((u64, u32, u32), Vec<u8>),
}

pub(crate) const TAG_OP: u8 = 1;
pub(crate) const TAG_SIGNATURE: u8 = 2;
pub(crate) const TAG_EPOCH_STATE: u8 = 3;
pub(crate) const TAG_AUDIT_CHECKPOINT: u8 = 4;
// Tags 5 and 6 carried the server's flight-recorder frames and evidence
// bundles, and tag 7 an incremental checkpoint, in earlier formats; all
// three stay unassigned.
pub(crate) const TAG_CHUNK: u8 = 8;

/// A chunk's stream, index and count.
pub(crate) type ChunkHead = (u64, u32, u32);

/// Writes a chunk record's body: its stream, index and count, then `len`
/// bytes of data that `fill` appends in place.
pub(crate) fn put_chunk(
    w: &mut impl Sink,
    (stream, index, count): (u64, u32, u32),
    len: usize,
    fill: impl FnOnce(&mut Vec<u8>),
) {
    w.u64(stream);
    w.u32(index);
    w.u32(count);
    w.framed(len, fill);
}

/// Reads a chunk record's body, `((stream, index, count), data)`, without
/// copying its data.
pub(crate) fn chunk_view(body: &[u8]) -> Result<(ChunkHead, &[u8]), DecodeError> {
    let mut r = Reader::new(body);
    let head = (r.u64()?, r.u32()?, r.u32()?);
    let data = r.bytes()?;
    r.finish()?;
    Ok((head, data))
}

/// Writes an op record's body from borrowed parts.
pub(crate) fn put_op_body(w: &mut impl Sink, user: UserId, seq: u64, op: &Op, round: u64) {
    w.u32(user);
    w.u64(seq);
    w.u64(round);
    put_op(w, op);
}

impl Record {
    /// The record's log tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Record::Op { .. } => TAG_OP,
            Record::Signature(_) => TAG_SIGNATURE,
            Record::EpochState(_) => TAG_EPOCH_STATE,
            Record::AuditCheckpoint(_) => TAG_AUDIT_CHECKPOINT,
            Record::Chunk(..) => TAG_CHUNK,
        }
    }

    /// Writes the record body (everything after the log framing's
    /// `[lsn][tag]` prefix).
    pub fn put_body(&self, w: &mut impl Sink) {
        match self {
            Record::Op {
                user,
                seq,
                op,
                round,
            } => put_op_body(w, *user, *seq, op, *round),
            Record::Signature(s) => put_signed_state(w, s),
            Record::EpochState(s) => put_epoch_state(w, s),
            Record::AuditCheckpoint(c) => put_audit_checkpoint(w, c),
            Record::Chunk(head, data) => {
                put_chunk(w, *head, data.len(), |buf| buf.extend_from_slice(data))
            }
        }
    }

    /// Encodes the record body.
    pub fn body(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put_body(&mut w);
        w.into_bytes()
    }

    /// Decodes a record from its tag and body.
    pub fn decode(tag: u8, body: &[u8]) -> Result<Record, DecodeError> {
        let mut r = Reader::new(body);
        let rec = match tag {
            TAG_OP => {
                let user = r.u32()?;
                let seq = r.u64()?;
                let round = r.u64()?;
                let op = get_op(&mut r)?;
                Record::Op {
                    user,
                    seq,
                    op,
                    round,
                }
            }
            TAG_SIGNATURE => Record::Signature(get_signed_state(&mut r)?),
            TAG_EPOCH_STATE => Record::EpochState(get_epoch_state(&mut r)?),
            TAG_AUDIT_CHECKPOINT => Record::AuditCheckpoint(get_audit_checkpoint(&mut r)?),
            TAG_CHUNK => {
                let (head, data) = chunk_view(body)?;
                return Ok(Record::Chunk(head, data.to_vec()));
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// A [`ServerResponse`] journal entry regenerated (or about to be
/// persisted) alongside its exactly-once key.
pub type JournalEntry = (UserId, u64, ServerResponse);

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::u64_key;

    #[test]
    fn op_record_round_trips() {
        let rec = Record::Op {
            user: 2,
            seq: 41,
            op: Op::Put(u64_key(9), b"val".to_vec()),
            round: 17,
        };
        let back = Record::decode(rec.tag(), &rec.body()).unwrap();
        match back {
            Record::Op {
                user,
                seq,
                op,
                round,
            } => {
                assert_eq!((user, seq, round), (2, 41, 17));
                assert_eq!(op, Op::Put(u64_key(9), b"val".to_vec()));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Tags no record holds, the retired 5, 6 and 7 among them, fail
    /// typed.
    #[test]
    fn unknown_tag_rejected() {
        for tag in [5, 6, 7, 99] {
            assert!(
                matches!(Record::decode(tag, &[]), Err(DecodeError::BadTag(t)) if t == tag),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let rec = Record::Op {
            user: 0,
            seq: 0,
            op: Op::Get(u64_key(0)),
            round: 0,
        };
        let mut body = rec.body();
        body.push(0);
        assert!(matches!(
            Record::decode(rec.tag(), &body),
            Err(DecodeError::TrailingBytes)
        ));
    }
}

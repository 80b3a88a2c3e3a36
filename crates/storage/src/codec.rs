//! The checkpoint format: [`DurableState`], the complete durable world at
//! one LSN — a full [`ServerSnapshot`] plus the transport's reply journal.
//!
//! Built on `tcvs_store::enc`'s length-prefixed little-endian framing, with
//! every protocol value written by its one encoder in [`tcvs_core::wire`]
//! (log record bodies use the same encoders; see [`crate::record`]).
//! The state is written from borrowed parts (`stream_state`), so a
//! checkpoint copies nothing of the live server before it encodes it, and
//! it is encoded a piece at a time, as the commits that carry it need the
//! pieces, and decoded the same way (`StateDecoder`), as recovery reads
//! them. Decoding validates everything: signatures and trees re-verify
//! their digests, enum tags reject unknown values, and all errors surface
//! as typed [`DecodeError`]s with offsets (the recovery path needs to tell
//! a torn tail from corruption).

use tcvs_core::wire::{
    get_audit_checkpoint, get_epoch_state, get_response, get_signed_state, put_audit_checkpoint,
    put_epoch_state, put_response, put_signed_state,
};
use tcvs_core::{
    Ctr, Epoch, ServerMetrics, ServerSnapshot, SignedCheckpoint, SignedEpochState, SignedState,
    UserId,
};
use tcvs_merkle::{DecodeStream, EncodeStream, MerkleTree};
use tcvs_store::enc::{DecodeError, Reader, Sink, Writer};

use crate::record::JournalEntry;

/// Magic prefix of an encoded [`DurableState`].
const STATE_MAGIC: &[u8; 4] = b"TCKP";
/// Format version of the checkpoint encoding. Version 2 also carried the
/// server's flight-recorder tail and evidence bundles.
const STATE_VERSION: u32 = 3;

/// The complete durable world at one LSN: the server's crash snapshot plus
/// the transport's exactly-once reply journal. It holds the protocol's
/// state and nothing else: evidence of a deviation is kept by the users
/// who caught it, never by the server under suspicion.
pub struct DurableState {
    /// The server state (database, counters, deposits).
    pub snapshot: ServerSnapshot,
    /// The reply journal as `(user, seq, response)` — one live entry per
    /// user (older entries are below the acknowledgment watermark).
    pub journal: Vec<JournalEntry>,
}

/// A full checkpoint of `snapshot` and `journal`, its bytes handed out a
/// piece at a time: the database is encoded leaf by leaf as the stream
/// reaches it, from the copy-on-write snapshot's nodes, so no buffer ever
/// holds the whole state.
pub(crate) fn stream_state(snapshot: &ServerSnapshot, journal: &[JournalEntry]) -> EncodeStream {
    let mut w = Writer::new();
    w.raw(STATE_MAGIC);
    w.u32(STATE_VERSION);
    w.u64(snapshot.ctr());
    w.u32(snapshot.last_user());
    w.u64(snapshot.epoch_len());
    w.opt(snapshot.last_sig(), put_signed_state);
    w.u32(snapshot.epoch_states().len() as u32);
    for s in snapshot.epoch_states() {
        put_epoch_state(&mut w, s);
    }
    w.u32(snapshot.checkpoints().len() as u32);
    for c in snapshot.checkpoints() {
        put_audit_checkpoint(&mut w, c);
    }
    w.u32(snapshot.user_epochs().len() as u32);
    for (u, e) in snapshot.user_epochs() {
        w.u32(*u);
        w.u64(*e);
    }
    let m = snapshot.snapshot_metrics();
    w.u64(m.ops);
    w.u64(m.msgs_in);
    w.u64(m.msgs_out);
    w.u64(m.bytes_out);
    w.u32(journal.len() as u32);
    for (user, seq, resp) in journal {
        w.u32(*user);
        w.u64(*seq);
        put_response(&mut w, resp);
    }
    let db = snapshot.db();
    w.u64(db.encoded_size() as u64);
    db.encode_stream(w.into_bytes())
}

impl DurableState {
    /// The state's encoding as a stream ([`EncodeStream::fill`]).
    pub fn stream(&self) -> EncodeStream {
        stream_state(&self.snapshot, &self.journal)
    }

    /// Encodes the state for a checkpoint into `buf`, replacing its
    /// contents.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        self.stream().fill(buf, usize::MAX);
    }

    /// Decodes a checkpoint; the database's digests are fully re-verified
    /// during decode, its root against the one its encoding records.
    pub fn from_bytes(bytes: &[u8]) -> Result<DurableState, DecodeError> {
        let mut state = StateDecoder::default();
        state.feed(bytes)?;
        state.finish()
    }
}

/// The fields of a checkpoint ahead of its database.
struct Head {
    ctr: Ctr,
    last_user: UserId,
    epoch_len: u64,
    last_sig: Option<SignedState>,
    epoch_states: Vec<SignedEpochState>,
    checkpoints: Vec<SignedCheckpoint>,
    user_epochs: Vec<(UserId, Epoch)>,
    metrics: ServerMetrics,
    journal: Vec<JournalEntry>,
    /// Bytes of the database's encoding, which follows.
    db_len: u64,
}

fn get_head(r: &mut Reader) -> Result<Head, DecodeError> {
    if r.raw(4)? != STATE_MAGIC {
        return Err(DecodeError::Invalid("bad checkpoint magic"));
    }
    if r.u32()? != STATE_VERSION {
        return Err(DecodeError::Invalid("unknown checkpoint version"));
    }
    let (ctr, last_user, epoch_len) = (r.u64()?, r.u32()?, r.u64()?);
    let last_sig = r.opt(get_signed_state)?;
    let n = r.u32()?;
    let epoch_states = (0..n)
        .map(|_| get_epoch_state(r))
        .collect::<Result<_, _>>()?;
    let n = r.u32()?;
    let checkpoints = (0..n)
        .map(|_| get_audit_checkpoint(r))
        .collect::<Result<_, _>>()?;
    let n = r.u32()?;
    let user_epochs = (0..n)
        .map(|_| Ok((r.u32()?, r.u64()?)))
        .collect::<Result<_, _>>()?;
    let metrics = ServerMetrics {
        ops: r.u64()?,
        msgs_in: r.u64()?,
        msgs_out: r.u64()?,
        bytes_out: r.u64()?,
    };
    let n = r.u32()?;
    let journal = (0..n)
        .map(|_| Ok((r.u32()?, r.u64()?, get_response(r)?)))
        .collect::<Result<_, _>>()?;
    Ok(Head {
        ctr,
        last_user,
        epoch_len,
        last_sig,
        epoch_states,
        checkpoints,
        user_epochs,
        metrics,
        journal,
        db_len: r.u64()?,
    })
}

/// A checkpoint decoded from its pieces as they arrive, split anywhere:
/// the fields ahead of the database once their bytes are in, then the
/// database node by node ([`tcvs_merkle::DecodeStream`]). It holds the
/// fields' bytes until they decode and one node's bytes after that, never
/// the state's whole encoding.
#[derive(Default)]
pub(crate) struct StateDecoder {
    /// The bytes ahead of the database, while they do not decode yet.
    head: Vec<u8>,
    /// `head`'s length at which to decode it again: a field the bytes so
    /// far cut short (a count held to the input left included) fails only
    /// until the rest arrive, so it is retried as `head` doubles.
    retry: usize,
    /// The fields, the database's decoder and its bytes still to come.
    db: Option<(Head, DecodeStream, u64)>,
}

impl StateDecoder {
    /// Decodes the next piece of the state.
    pub(crate) fn feed(&mut self, piece: &[u8]) -> Result<(), DecodeError> {
        let Some((_, db, left)) = &mut self.db else {
            self.head.extend_from_slice(piece);
            return self.decode_head(false);
        };
        if piece.len() as u64 > *left {
            return Err(DecodeError::TrailingBytes);
        }
        *left -= piece.len() as u64;
        db.feed(piece)
            .map_err(|_| DecodeError::Invalid("checkpoint database"))
    }

    /// Decodes the fields ahead of the database if their bytes are in, and
    /// feeds the bytes after them to the database. An error is final only
    /// once no more bytes come (`last`).
    fn decode_head(&mut self, last: bool) -> Result<(), DecodeError> {
        if self.head.len() < self.retry && !last {
            return Ok(());
        }
        let mut r = Reader::new(&self.head);
        match get_head(&mut r) {
            Ok(head) => {
                let at = r.position();
                let bytes = std::mem::take(&mut self.head);
                let left = head.db_len;
                self.db = Some((head, MerkleTree::decode_stream(), left));
                self.feed(&bytes[at..])
            }
            Err(e) if last => Err(e),
            Err(_) => {
                self.retry = 2 * self.head.len();
                Ok(())
            }
        }
    }

    /// The state, once every piece is in.
    pub(crate) fn finish(mut self) -> Result<DurableState, DecodeError> {
        if self.db.is_none() {
            self.decode_head(true)?;
        }
        let Some((h, db, left)) = self.db else {
            return Err(DecodeError::Invalid("checkpoint fields"));
        };
        let db = (db.finish().ok())
            .filter(|_| left == 0)
            .ok_or(DecodeError::Invalid("checkpoint database"))?;
        // A server serves every value it holds: a stub or a hash-only entry
        // would leave it answering from content it does not have.
        if db.is_pruned() {
            return Err(DecodeError::Invalid("checkpoint database is pruned"));
        }
        let snapshot = ServerSnapshot::from_parts(
            db,
            h.ctr,
            h.last_user,
            h.epoch_len,
            h.last_sig,
            h.epoch_states,
            h.checkpoints,
            h.user_epochs,
            h.metrics,
        )
        .map_err(|_| DecodeError::Invalid("snapshot parts"))?;
        Ok(DurableState {
            snapshot,
            journal: h.journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::wire::{get_event, get_mss, get_op, put_event, put_mss, put_op, response_bytes};
    use tcvs_core::{HonestServer, ProtocolConfig, ServerApi, SignedState};
    use tcvs_crypto::MssSignature;
    use tcvs_merkle::{u64_key, Op};
    use tcvs_obs::{Event, EventKind, SpanContext};

    fn sample_sig(seed: u8) -> MssSignature {
        let (mut rings, _) = tcvs_crypto::setup_users([seed; 32], 1, 3);
        rings[0].sign(&tcvs_crypto::sha256(&[seed])).unwrap()
    }

    #[test]
    fn op_codec_round_trips() {
        let ops = [
            Op::Get(u64_key(1)),
            Op::Range(None, Some(u64_key(9))),
            Op::Range(Some(u64_key(2)), None),
            Op::Put(u64_key(3), b"v".to_vec()),
            Op::Delete(u64_key(4)),
        ];
        for op in &ops {
            let mut w = Writer::new();
            put_op(&mut w, op);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(&get_op(&mut r).unwrap(), op);
            r.finish().unwrap();
        }
    }

    #[test]
    fn signature_codec_round_trips_and_rejects_garbage() {
        let sig = sample_sig(5);
        let mut w = Writer::new();
        put_mss(&mut w, &sig);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(get_mss(&mut r).unwrap(), sig);

        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(get_mss(&mut r).is_err());
    }

    #[test]
    fn response_codec_round_trips_byte_identically() {
        let mut server = HonestServer::new(&ProtocolConfig::default());
        server.handle_op(0, &Op::Put(u64_key(1), b"a".to_vec()), 0);
        let resp = server.handle_op(1, &Op::Get(u64_key(1)), 1);
        let bytes = response_bytes(&resp);
        let mut r = Reader::new(&bytes);
        let back = get_response(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(response_bytes(&back), bytes, "encode∘decode is identity");
        assert_eq!(back.ctr, resp.ctr);
        assert_eq!(back.result, resp.result);
        assert_eq!(back.vo.root_digest(), resp.vo.root_digest());
    }

    #[test]
    fn event_codec_round_trips_spans() {
        let ctx = SpanContext::root(3, 9).child(4);
        let ev = Event::new(7, EventKind::Recovery, 3)
            .detail("replayed=12")
            .span(ctx);
        let mut w = Writer::new();
        put_event(&mut w, &ev);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(get_event(&mut r).unwrap(), ev);
        r.finish().unwrap();
    }

    /// A state of `n` puts, a journal entry per op and a deposited
    /// signature.
    fn sample_state(n: u64) -> DurableState {
        let mut server = HonestServer::new(&ProtocolConfig::default());
        let mut journal = Vec::new();
        for i in 0..n {
            let resp = server.handle_op((i % 2) as u32, &Op::Put(u64_key(i), vec![i as u8]), i);
            journal.push(((i % 2) as u32, i, resp));
        }
        let sig = SignedState {
            signer: 0,
            root: server.core().root_digest(),
            ctr: n,
            sig: sample_sig(1),
        };
        server.deposit_signature(0, sig);
        DurableState {
            snapshot: server.core().crash_snapshot(),
            journal,
        }
    }

    /// Pieces split anywhere, one byte each included, decode to the state;
    /// any prefix of its bytes, or one byte more, is refused.
    #[test]
    fn a_state_decodes_from_pieces_split_anywhere() {
        let mut bytes = Vec::new();
        sample_state(300).encode_into(&mut bytes);
        let decode = |bytes: &[u8], piece: usize| {
            let mut state = StateDecoder::default();
            bytes.chunks(piece).try_for_each(|p| state.feed(p))?;
            state.finish()
        };
        let whole = DurableState::from_bytes(&bytes).unwrap();
        for piece in [1, 7, 100, 4096] {
            let back = decode(&bytes, piece).unwrap();
            assert_eq!(back.snapshot.root_digest(), whole.snapshot.root_digest());
            assert_eq!(back.snapshot.ctr(), 300);
            let (a, b) = (&back.journal, &whole.journal);
            assert!(a
                .iter()
                .zip(b)
                .all(|(a, b)| response_bytes(&a.2) == response_bytes(&b.2)));
            for cut in [3, 60, bytes.len() / 2, bytes.len() - 1] {
                assert!(decode(&bytes[..cut], piece).is_err(), "{cut} of {piece}");
            }
            let long = [&bytes[..], &[0]].concat();
            assert!(decode(&long, piece).is_err(), "{piece}");
        }
    }

    #[test]
    fn durable_state_round_trips() {
        let state = sample_state(10);
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        // A reused buffer's old contents leave no trace in the encoding.
        let mut reused = vec![0xAA; bytes.len() + 17];
        state.encode_into(&mut reused);
        assert_eq!(reused, bytes);
        let back = DurableState::from_bytes(&bytes).unwrap();
        assert_eq!(back.snapshot.root_digest(), state.snapshot.root_digest());
        assert_eq!(back.snapshot.ctr(), state.snapshot.ctr());
        assert!(back.snapshot.last_sig().is_some());
        assert_eq!(back.journal.len(), 10);
        for ((u1, s1, r1), (u2, s2, r2)) in back.journal.iter().zip(state.journal.iter()) {
            assert_eq!((u1, s1), (u2, s2));
            assert_eq!(response_bytes(r1), response_bytes(r2));
        }

        // Corruption in the database bytes is rejected by digest re-check.
        let mut bad = bytes.clone();
        let idx = bad.len() - 3;
        bad[idx] ^= 0x40;
        assert!(DurableState::from_bytes(&bad).is_err());
    }

    /// A checkpoint whose database hides an entry behind its pair digest
    /// decodes as a tree, but never as a server's durable state.
    #[test]
    fn pruned_checkpoint_database_rejected() -> Result<(), tcvs_merkle::CodecError> {
        let mut server = HonestServer::new(&ProtocolConfig::default());
        for i in 0..40u64 {
            server.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
        }
        let snap = server.core().crash_snapshot();
        let hidden = snap.db().prune_for_point(&u64_key(7));
        let snapshot = ServerSnapshot::from_parts(
            hidden,
            snap.ctr(),
            snap.last_user(),
            snap.epoch_len(),
            None,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            snap.snapshot_metrics(),
        )?;
        let state = DurableState {
            snapshot,
            journal: Vec::new(),
        };
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        assert!(matches!(
            DurableState::from_bytes(&bytes),
            Err(DecodeError::Invalid("checkpoint database is pruned"))
        ));
        Ok(())
    }
}

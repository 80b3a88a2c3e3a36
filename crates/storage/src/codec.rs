//! Byte codecs for everything the durable engine persists.
//!
//! Built on `tcvs_store::enc`'s length-prefixed little-endian framing so
//! the whole on-disk vocabulary shares one explicit, auditable format. Two
//! kinds of value are encoded:
//!
//! * **log record bodies** ([`crate::record::Record`]) — op *inputs*, not
//!   outputs: the server state machine is deterministic, so replaying the
//!   inputs regenerates every response (and hence the reply journal)
//!   byte-identically. Only checkpoints serialize responses.
//! * **checkpoint states** ([`DurableState`]) — a full
//!   [`ServerSnapshot`] plus the transport's reply journal, the complete
//!   durable world at one LSN.
//!
//! Decoders validate everything: signatures and trees re-verify their
//! digests, enum tags reject unknown values, and all errors surface as
//! typed [`DecodeError`]s with offsets (the recovery path needs to tell a
//! torn tail from corruption).

use tcvs_core::{Ctr, Epoch, ServerMetrics, ServerResponse, ServerSnapshot, UserId};
use tcvs_merkle::{MerkleTree, Op, OpResult, VerificationObject};
use tcvs_store::enc::{DecodeError, Reader, Writer};

// The protocol-vocabulary codecs (digests, signatures, deposits, events)
// live in `tcvs_core::wire` — shared with the evidence-bundle format so
// the durable log and the portable forensic artifact speak one encoding.
pub(crate) use tcvs_core::wire::{
    get_audit_checkpoint, get_epoch_state, get_event, get_signed_state, put_audit_checkpoint,
    put_epoch_state, put_event, put_signed_state,
};

// --- operations and results ----------------------------------------------

pub(crate) fn put_op(w: &mut Writer, op: &Op) {
    match op {
        Op::Get(k) => {
            w.u8(0);
            w.bytes(k);
        }
        Op::Range(lo, hi) => {
            w.u8(1);
            put_opt_bytes(w, lo.as_deref());
            put_opt_bytes(w, hi.as_deref());
        }
        Op::Put(k, v) => {
            w.u8(2);
            w.bytes(k);
            w.bytes(v);
        }
        Op::Delete(k) => {
            w.u8(3);
            w.bytes(k);
        }
    }
}

pub(crate) fn get_op(r: &mut Reader) -> Result<Op, DecodeError> {
    match r.u8()? {
        0 => Ok(Op::Get(r.bytes()?.to_vec())),
        1 => Ok(Op::Range(get_opt_bytes(r)?, get_opt_bytes(r)?)),
        2 => Ok(Op::Put(r.bytes()?.to_vec(), r.bytes()?.to_vec())),
        3 => Ok(Op::Delete(r.bytes()?.to_vec())),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_opt_bytes(w: &mut Writer, v: Option<&[u8]>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.bytes(v);
        }
    }
}

fn get_opt_bytes(r: &mut Reader) -> Result<Option<Vec<u8>>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.bytes()?.to_vec())),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_op_result(w: &mut Writer, res: &OpResult) {
    match res {
        OpResult::Value(v) => {
            w.u8(0);
            put_opt_bytes(w, v.as_deref());
        }
        OpResult::Entries(entries) => {
            w.u8(1);
            w.u32(entries.len() as u32);
            for (k, v) in entries {
                w.bytes(k);
                w.bytes(v);
            }
        }
        OpResult::Replaced(v) => {
            w.u8(2);
            put_opt_bytes(w, v.as_deref());
        }
        OpResult::Deleted(v) => {
            w.u8(3);
            put_opt_bytes(w, v.as_deref());
        }
    }
}

fn get_op_result(r: &mut Reader) -> Result<OpResult, DecodeError> {
    match r.u8()? {
        0 => Ok(OpResult::Value(get_opt_bytes(r)?)),
        1 => {
            let n = r.u32()? as usize;
            let mut entries = Vec::new();
            for _ in 0..n {
                entries.push((r.bytes()?.to_vec(), r.bytes()?.to_vec()));
            }
            Ok(OpResult::Entries(entries))
        }
        2 => Ok(OpResult::Replaced(get_opt_bytes(r)?)),
        3 => Ok(OpResult::Deleted(get_opt_bytes(r)?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

// --- responses ------------------------------------------------------------

/// Encodes a full server response (checkpoint journal entries only; live
/// op records persist inputs and regenerate responses by replay).
pub fn put_response(w: &mut Writer, resp: &ServerResponse) {
    put_op_result(w, &resp.result);
    w.bytes(&resp.vo.to_bytes());
    w.u64(resp.ctr);
    w.u32(resp.last_user);
    match &resp.sig {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            put_signed_state(w, s);
        }
    }
    w.u64(resp.epoch);
    w.u8(u8::from(resp.new_epoch));
}

/// Decodes a [`put_response`] encoding; the verification object's digests
/// re-verify during decode.
pub fn get_response(r: &mut Reader) -> Result<ServerResponse, DecodeError> {
    let result = get_op_result(r)?;
    let vo = VerificationObject::from_bytes(r.bytes()?)
        .map_err(|_| DecodeError::Invalid("verification object"))?;
    let ctr = r.u64()?;
    let last_user = r.u32()?;
    let sig = match r.u8()? {
        0 => None,
        1 => Some(get_signed_state(r)?),
        t => return Err(DecodeError::BadTag(t)),
    };
    Ok(ServerResponse {
        result,
        vo,
        ctr,
        last_user,
        sig,
        epoch: r.u64()?,
        new_epoch: match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(DecodeError::BadTag(t)),
        },
    })
}

/// Canonical bytes of a response — the unit the kill-anywhere property
/// compares for "byte-identical journal" across a recovery.
pub fn response_bytes(resp: &ServerResponse) -> Vec<u8> {
    let mut w = Writer::new();
    put_response(&mut w, resp);
    w.into_bytes()
}

// --- the durable checkpoint state -----------------------------------------

/// Magic prefix of an encoded [`DurableState`].
const STATE_MAGIC: &[u8; 4] = b"TCKP";
/// Format version of the checkpoint encoding.
const STATE_VERSION: u32 = 2;

/// The complete durable world at one LSN: the server's crash snapshot plus
/// the transport's exactly-once reply journal.
pub struct DurableState {
    /// The server state (database, counters, deposits, flight tail).
    pub snapshot: ServerSnapshot,
    /// The reply journal as `(user, seq, response)` — one live entry per
    /// user (older entries are below the acknowledgment watermark).
    pub journal: Vec<(UserId, u64, ServerResponse)>,
    /// Persisted deviation evidence bundles, opaque canonical bytes
    /// (self-integrity-checked by the bundle format). Carried in the
    /// checkpoint so incident artifacts outlive log pruning.
    pub evidence: Vec<Vec<u8>>,
}

impl DurableState {
    /// Encodes the state for a checkpoint file.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(crate::log::LARGE_ENCODING_SEED);
        w.raw(STATE_MAGIC);
        w.u32(STATE_VERSION);
        w.u64(self.snapshot.ctr());
        w.u32(self.snapshot.last_user());
        w.u64(self.snapshot.epoch_len());
        match self.snapshot.last_sig() {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                put_signed_state(&mut w, s);
            }
        }
        w.u32(self.snapshot.epoch_states().len() as u32);
        for s in self.snapshot.epoch_states() {
            put_epoch_state(&mut w, s);
        }
        w.u32(self.snapshot.checkpoints().len() as u32);
        for c in self.snapshot.checkpoints() {
            put_audit_checkpoint(&mut w, c);
        }
        w.u32(self.snapshot.user_epochs().len() as u32);
        for (u, e) in self.snapshot.user_epochs() {
            w.u32(*u);
            w.u64(*e);
        }
        let m = self.snapshot.snapshot_metrics();
        w.u64(m.ops);
        w.u64(m.msgs_in);
        w.u64(m.msgs_out);
        w.u64(m.bytes_out);
        w.u32(self.snapshot.flight_events().len() as u32);
        for ev in self.snapshot.flight_events() {
            put_event(&mut w, ev);
        }
        w.u32(self.journal.len() as u32);
        for (user, seq, resp) in &self.journal {
            w.u32(*user);
            w.u64(*seq);
            put_response(&mut w, resp);
        }
        w.u32(self.evidence.len() as u32);
        for e in &self.evidence {
            w.bytes(e);
        }
        w.bytes(&self.snapshot.db().to_bytes());
        w.into_bytes()
    }

    /// Decodes a checkpoint file body; the database's digests are fully
    /// re-verified during decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<DurableState, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.raw(4)? != STATE_MAGIC {
            return Err(DecodeError::Invalid("bad checkpoint magic"));
        }
        if r.u32()? != STATE_VERSION {
            return Err(DecodeError::Invalid("unknown checkpoint version"));
        }
        let ctr: Ctr = r.u64()?;
        let last_user: UserId = r.u32()?;
        let epoch_len = r.u64()?;
        let last_sig = match r.u8()? {
            0 => None,
            1 => Some(get_signed_state(&mut r)?),
            t => return Err(DecodeError::BadTag(t)),
        };
        let n = r.u32()? as usize;
        let mut epoch_states = Vec::new();
        for _ in 0..n {
            epoch_states.push(get_epoch_state(&mut r)?);
        }
        let n = r.u32()? as usize;
        let mut checkpoints = Vec::new();
        for _ in 0..n {
            checkpoints.push(get_audit_checkpoint(&mut r)?);
        }
        let n = r.u32()? as usize;
        let mut user_epochs: Vec<(UserId, Epoch)> = Vec::new();
        for _ in 0..n {
            user_epochs.push((r.u32()?, r.u64()?));
        }
        let metrics = ServerMetrics {
            ops: r.u64()?,
            msgs_in: r.u64()?,
            msgs_out: r.u64()?,
            bytes_out: r.u64()?,
        };
        let n = r.u32()? as usize;
        let mut flight = Vec::new();
        for _ in 0..n {
            flight.push(get_event(&mut r)?);
        }
        let n = r.u32()? as usize;
        let mut journal = Vec::new();
        for _ in 0..n {
            let user = r.u32()?;
            let seq = r.u64()?;
            journal.push((user, seq, get_response(&mut r)?));
        }
        let n = r.u32()? as usize;
        let mut evidence = Vec::new();
        for _ in 0..n {
            evidence.push(r.bytes()?.to_vec());
        }
        let db = MerkleTree::from_bytes(r.bytes()?)
            .map_err(|_| DecodeError::Invalid("checkpoint database"))?;
        r.finish()?;
        let snapshot = ServerSnapshot::from_parts(
            db,
            ctr,
            last_user,
            epoch_len,
            last_sig,
            epoch_states,
            checkpoints,
            user_epochs,
            metrics,
            flight,
        )
        .map_err(|_| DecodeError::Invalid("snapshot parts"))?;
        Ok(DurableState {
            snapshot,
            journal,
            evidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::wire::{get_mss, put_mss};
    use tcvs_core::{HonestServer, ProtocolConfig, ServerApi, SignedState};
    use tcvs_crypto::MssSignature;
    use tcvs_merkle::u64_key;
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
        let back = get_mss(&mut r).unwrap();
        assert_eq!(back.leaf_index, sig.leaf_index);
        assert_eq!(back.auth_path, sig.auth_path);
        assert_eq!(back.wots.to_bytes(), sig.wots.to_bytes());

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

    #[test]
    fn durable_state_round_trips() {
        let config = ProtocolConfig::default();
        let mut server = HonestServer::new(&config);
        let mut journal = Vec::new();
        for i in 0..10u64 {
            let resp = server.handle_op((i % 2) as u32, &Op::Put(u64_key(i), vec![i as u8]), i);
            journal.push(((i % 2) as u32, i, resp));
        }
        server.deposit_signature(
            0,
            SignedState {
                signer: 0,
                root: server.core().root_digest(),
                ctr: 10,
                sig: sample_sig(1),
            },
        );
        let state = DurableState {
            snapshot: server.core().crash_snapshot(),
            journal,
            evidence: vec![b"TCVSEVB1-bundle-bytes".to_vec()],
        };
        let bytes = state.to_bytes();
        let back = DurableState::from_bytes(&bytes).unwrap();
        assert_eq!(back.snapshot.root_digest(), state.snapshot.root_digest());
        assert_eq!(back.snapshot.ctr(), state.snapshot.ctr());
        assert!(back.snapshot.last_sig().is_some());
        assert_eq!(back.evidence, state.evidence);
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
}

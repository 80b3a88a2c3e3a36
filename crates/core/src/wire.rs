//! The one encoder of every protocol message.
//!
//! Built on `tcvs_store::enc`'s length-prefixed little-endian framing and
//! shared by everything that puts the protocol vocabulary into bytes: the
//! durable log, the checkpoint format, the portable evidence bundle, and
//! the traffic accounting. Every encoder is written once against
//! [`Sink`], so a message's `encoded_size` is its encoder run over a
//! [`ByteCount`] ([`encoded_len`]) and equals the bytes written by
//! construction.
//!
//! Decoders validate everything: signatures re-verify their structure,
//! proofs re-verify their digests, enum tags reject unknown values, and all
//! errors surface as typed [`DecodeError`]s with offsets.

use std::sync::Arc;

use tcvs_crypto::mss::MssCertificate;
use tcvs_crypto::wots::WotsSignature;
use tcvs_crypto::{Digest, MssPublicKey, MssSignature};
use tcvs_merkle::{Op, OpResult, VerificationObject};
use tcvs_obs::{Event, EventKind, SpanContext, SpanId, TraceId};
use tcvs_store::enc::{ByteCount, DecodeError, Reader, Sink, Writer};

use crate::forensics::LoggedTransition;
use crate::msg::{
    BatchResponse, ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, SyncShare,
};

/// The number of bytes `put` writes, counted without writing (or
/// allocating) anything.
pub fn encoded_len(put: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount::default();
    put(&mut count);
    count.len()
}

// --- primitives -----------------------------------------------------------

/// Writes a raw 32-byte digest.
pub fn put_digest(w: &mut impl Sink, d: &Digest) {
    w.raw(&d.0);
}

/// Reads a raw 32-byte digest.
pub fn get_digest(r: &mut Reader) -> Result<Digest, DecodeError> {
    let raw = r.raw(Digest::LEN)?;
    Ok(Digest(raw.try_into().expect("fixed length")))
}

// --- signatures and keys --------------------------------------------------

/// Writes an MSS signature: the leaf index, the bottom and the top
/// authentication path (each behind a u32 count), then the leaf's and the
/// certificate's WOTS bodies (each behind a u64 length). The bodies go
/// last, so a wrong count moves a length prefix and the decode fails.
pub fn put_mss(w: &mut impl Sink, s: &MssSignature) {
    w.u64(s.leaf_index);
    put_path(w, &s.auth_path);
    put_path(w, &s.cert.auth_path);
    put_wots(w, &s.wots);
    put_wots(w, &s.cert.wots);
}

/// Reads an MSS signature written by [`put_mss`].
pub fn get_mss(r: &mut Reader) -> Result<MssSignature, DecodeError> {
    let leaf_index = r.u64()?;
    let auth_path = get_path(r)?;
    let cert_path = get_path(r)?;
    Ok(MssSignature {
        leaf_index,
        wots: get_wots(r)?,
        auth_path,
        cert: Arc::new(MssCertificate {
            wots: get_wots(r)?,
            auth_path: cert_path,
        }),
    })
}

fn put_path(w: &mut impl Sink, path: &[Digest]) {
    w.u32(path.len() as u32);
    for d in path {
        put_digest(w, d);
    }
}

fn get_path(r: &mut Reader) -> Result<Vec<Digest>, DecodeError> {
    let n = r.u32()? as usize;
    // Auth paths are log₂(leaves) deep; a huge count is corruption.
    if n > 64 {
        return Err(DecodeError::Invalid("auth path too deep"));
    }
    (0..n).map(|_| get_digest(r)).collect()
}

fn put_wots(w: &mut impl Sink, s: &WotsSignature) {
    w.u64(s.size_bytes() as u64);
    for d in s.values() {
        put_digest(w, d);
    }
}

fn get_wots(r: &mut Reader) -> Result<WotsSignature, DecodeError> {
    WotsSignature::from_bytes(r.bytes()?).ok_or(DecodeError::Invalid("wots signature"))
}

/// Writes an MSS public key (Merkle root + tree height).
pub fn put_mss_public_key(w: &mut impl Sink, pk: &MssPublicKey) {
    put_digest(w, &pk.root);
    w.u32(pk.height);
}

/// Reads an MSS public key written by [`put_mss_public_key`].
pub fn get_mss_public_key(r: &mut Reader) -> Result<MssPublicKey, DecodeError> {
    let root = get_digest(r)?;
    let height = r.u32()?;
    if height > 64 {
        return Err(DecodeError::Invalid("key tree too tall"));
    }
    Ok(MssPublicKey { root, height })
}

/// Writes a Protocol I signed state deposit.
pub fn put_signed_state(w: &mut impl Sink, s: &SignedState) {
    w.u32(s.signer);
    put_digest(w, &s.root);
    w.u64(s.ctr);
    put_mss(w, &s.sig);
}

/// Reads a deposit written by [`put_signed_state`].
pub fn get_signed_state(r: &mut Reader) -> Result<SignedState, DecodeError> {
    Ok(SignedState {
        signer: r.u32()?,
        root: get_digest(r)?,
        ctr: r.u64()?,
        sig: get_mss(r)?,
    })
}

/// Writes a Protocol III signed epoch state.
pub fn put_epoch_state(w: &mut impl Sink, s: &SignedEpochState) {
    w.u32(s.user);
    w.u64(s.epoch);
    put_digest(w, &s.sigma);
    w.opt(s.last.as_ref(), put_digest);
    w.u64(s.ops);
    put_mss(w, &s.sig);
}

/// Reads an epoch state written by [`put_epoch_state`].
pub fn get_epoch_state(r: &mut Reader) -> Result<SignedEpochState, DecodeError> {
    Ok(SignedEpochState {
        user: r.u32()?,
        epoch: r.u64()?,
        sigma: get_digest(r)?,
        last: r.opt(get_digest)?,
        ops: r.u64()?,
        sig: get_mss(r)?,
    })
}

/// Writes a Protocol III audited checkpoint.
pub fn put_audit_checkpoint(w: &mut impl Sink, c: &SignedCheckpoint) {
    w.u64(c.epoch);
    w.u32(c.checker);
    put_digest(w, &c.final_token);
    put_mss(w, &c.sig);
}

/// Reads a checkpoint written by [`put_audit_checkpoint`].
pub fn get_audit_checkpoint(r: &mut Reader) -> Result<SignedCheckpoint, DecodeError> {
    Ok(SignedCheckpoint {
        epoch: r.u64()?,
        checker: r.u32()?,
        final_token: get_digest(r)?,
        sig: get_mss(r)?,
    })
}

// --- sync-up shares and transition logs -----------------------------------

/// Writes one user's broadcast sync-up share.
pub fn put_sync_share(w: &mut impl Sink, s: &SyncShare) {
    w.u32(s.user);
    w.u64(s.lctr);
    w.u64(s.gctr);
    put_digest(w, &s.sigma);
    w.opt(s.last.as_ref(), put_digest);
}

/// Reads a share written by [`put_sync_share`].
pub fn get_sync_share(r: &mut Reader) -> Result<SyncShare, DecodeError> {
    Ok(SyncShare {
        user: r.u32()?,
        lctr: r.u64()?,
        gctr: r.u64()?,
        sigma: get_digest(r)?,
        last: r.opt(get_digest)?,
    })
}

/// Writes one logged state transition (the forensics vocabulary).
pub fn put_transition(w: &mut impl Sink, t: &LoggedTransition) {
    put_digest(w, &t.old_token);
    put_digest(w, &t.new_token);
    w.u64(t.ctr);
    w.u32(t.user);
}

/// Reads a transition written by [`put_transition`].
pub fn get_transition(r: &mut Reader) -> Result<LoggedTransition, DecodeError> {
    Ok(LoggedTransition {
        old_token: get_digest(r)?,
        new_token: get_digest(r)?,
        ctr: r.u64()?,
        user: r.u32()?,
    })
}

// --- operations, answers and responses ------------------------------------

/// Writes an operation (a log record's input).
pub fn put_op(w: &mut impl Sink, op: &Op) {
    match op {
        Op::Get(k) => {
            w.u8(0);
            w.bytes(k);
        }
        Op::Range(lo, hi) => {
            w.u8(1);
            w.opt(lo.as_deref(), Sink::bytes);
            w.opt(hi.as_deref(), Sink::bytes);
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

/// Reads an operation written by [`put_op`].
pub fn get_op(r: &mut Reader) -> Result<Op, DecodeError> {
    match r.u8()? {
        0 => Ok(Op::Get(r.bytes()?.to_vec())),
        1 => Ok(Op::Range(r.opt(get_vec)?, r.opt(get_vec)?)),
        2 => Ok(Op::Put(r.bytes()?.to_vec(), r.bytes()?.to_vec())),
        3 => Ok(Op::Delete(r.bytes()?.to_vec())),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn get_vec(r: &mut Reader) -> Result<Vec<u8>, DecodeError> {
    Ok(r.bytes()?.to_vec())
}

fn put_op_result(w: &mut impl Sink, res: &OpResult) {
    match res {
        OpResult::Value(v) => {
            w.u8(0);
            w.opt(v.as_deref(), Sink::bytes);
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
            w.opt(v.as_deref(), Sink::bytes);
        }
        OpResult::Deleted(v) => {
            w.u8(3);
            w.opt(v.as_deref(), Sink::bytes);
        }
    }
}

fn get_op_result(r: &mut Reader) -> Result<OpResult, DecodeError> {
    match r.u8()? {
        0 => Ok(OpResult::Value(r.opt(get_vec)?)),
        1 => (0..r.u32()?)
            .map(|_| Ok((get_vec(r)?, get_vec(r)?)))
            .collect::<Result<_, _>>()
            .map(OpResult::Entries),
        2 => Ok(OpResult::Replaced(r.opt(get_vec)?)),
        3 => Ok(OpResult::Deleted(r.opt(get_vec)?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Writes a proof behind its u64 length, encoding the tree in place.
fn put_proof(w: &mut impl Sink, vo: &VerificationObject) {
    w.framed(vo.encoded_size(), |buf| vo.write_to(buf));
}

/// Writes a server response: the answer, the proof behind its length, the
/// counter and last user before the op, the stored signature, and the
/// epoch fields.
pub fn put_response(w: &mut impl Sink, resp: &ServerResponse) {
    put_op_result(w, &resp.result);
    put_proof(w, &resp.vo);
    w.u64(resp.ctr);
    w.u32(resp.last_user);
    w.opt(resp.sig.as_ref(), put_signed_state);
    w.u64(resp.epoch);
    w.u8(u8::from(resp.new_epoch));
}

/// Reads a [`put_response`] encoding; the verification object's digests
/// re-verify during decode.
pub fn get_response(r: &mut Reader) -> Result<ServerResponse, DecodeError> {
    Ok(ServerResponse {
        result: get_op_result(r)?,
        vo: VerificationObject::from_bytes(r.bytes()?)
            .map_err(|_| DecodeError::Invalid("verification object"))?,
        ctr: r.u64()?,
        last_user: r.u32()?,
        sig: r.opt(get_signed_state)?,
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

/// Writes a batched response: the window's answers behind a u32 count,
/// the shared proof, then the fields after the proof in [`put_response`]. Only
/// its size is used, so it has no decoder.
pub fn put_batch_response(w: &mut impl Sink, resp: &BatchResponse) {
    w.u32(resp.results.len() as u32);
    for res in &resp.results {
        put_op_result(w, res);
    }
    put_proof(w, &resp.proof);
    w.u64(resp.ctr);
    w.u32(resp.last_user);
    w.opt(resp.sig.as_ref(), put_signed_state);
    w.u64(resp.epoch);
    w.u8(u8::from(resp.new_epoch));
}

// --- events ---------------------------------------------------------------

/// Stable wire tag of an [`EventKind`] (the enum is `non_exhaustive`, so
/// the mapping is explicit rather than derived from discriminants).
pub fn event_kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::OpServed => 0,
        EventKind::ReadServed => 1,
        EventKind::ProofBuilt => 2,
        EventKind::Retry => 3,
        EventKind::JournalHit => 4,
        EventKind::Deposit => 5,
        EventKind::MissedDeposit => 6,
        EventKind::Checkpoint => 7,
        EventKind::Crash => 8,
        EventKind::Restart => 9,
        EventKind::SyncTriggered => 10,
        EventKind::SyncUp => 11,
        EventKind::Audit => 12,
        EventKind::FaultInjected => 13,
        EventKind::DeviationInjected => 14,
        EventKind::Detection => 15,
        EventKind::Recovery => 16,
        // `EventKind` is non_exhaustive: a kind added after this codec
        // shipped persists as the reserved tag and is dropped (with an
        // error) on decode rather than mis-decoded as something else.
        _ => u8::MAX,
    }
}

/// Inverse of [`event_kind_tag`].
pub fn event_kind_from_tag(tag: u8) -> Result<EventKind, DecodeError> {
    Ok(match tag {
        0 => EventKind::OpServed,
        1 => EventKind::ReadServed,
        2 => EventKind::ProofBuilt,
        3 => EventKind::Retry,
        4 => EventKind::JournalHit,
        5 => EventKind::Deposit,
        6 => EventKind::MissedDeposit,
        7 => EventKind::Checkpoint,
        8 => EventKind::Crash,
        9 => EventKind::Restart,
        10 => EventKind::SyncTriggered,
        11 => EventKind::SyncUp,
        12 => EventKind::Audit,
        13 => EventKind::FaultInjected,
        14 => EventKind::DeviationInjected,
        15 => EventKind::Detection,
        16 => EventKind::Recovery,
        t => return Err(DecodeError::BadTag(t)),
    })
}

/// Writes a flight-recorder / tracer event (timestamp, kind, actor,
/// detail, and the optional span context).
pub fn put_event(w: &mut impl Sink, ev: &Event) {
    w.u64(ev.t);
    w.u8(event_kind_tag(ev.kind));
    w.u32(ev.user);
    w.string(&ev.detail);
    w.opt(ev.span.as_ref(), |w, ctx| {
        w.u64(ctx.trace.0);
        w.u64(ctx.span.0);
        w.opt(ctx.parent, |w, p| w.u64(p.0));
    });
}

/// Reads an event written by [`put_event`].
pub fn get_event(r: &mut Reader) -> Result<Event, DecodeError> {
    let t = r.u64()?;
    let kind = event_kind_from_tag(r.u8()?)?;
    let user = r.u32()?;
    let detail = r.string()?;
    let span = r.opt(|r| {
        Ok(SpanContext {
            trace: TraceId(r.u64()?),
            span: SpanId(r.u64()?),
            parent: r.opt(|r| Ok(SpanId(r.u64()?)))?,
        })
    })?;
    let mut ev = Event::new(t, kind, user).detail(detail);
    ev.span = span;
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_merkle::u64_key;
    use tcvs_obs::stage;

    use crate::{HonestServer, ProtocolConfig, ServerApi};

    /// A signature from a height-6 key: both authentication paths are
    /// non-empty (4 bottom digests, 2 top digests).
    fn sample_sig(seed: u8) -> MssSignature {
        let (mut rings, _) = tcvs_crypto::setup_users([seed; 32], 1, 6);
        rings[0].sign(&tcvs_crypto::sha256(&[seed])).unwrap()
    }

    fn encoded(put: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn signature_codec_round_trips_and_rejects_truncation() {
        let sig = sample_sig(5);
        let buf = encoded(|w| put_mss(w, &sig));
        // Leaf index, two path counts, 4 + 2 path digests, two WOTS bodies.
        assert_eq!(buf.len(), 8 + 2 * 4 + 6 * 32 + 2 * (8 + 67 * 32));
        assert_eq!(encoded_len(|c| put_mss(c, &sig)), buf.len());
        let mut r = Reader::new(&buf);
        assert_eq!(get_mss(&mut r).unwrap(), sig);
        r.finish().unwrap();

        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(get_mss(&mut r).is_err());
    }

    /// Every strict prefix fails, and so does every single-byte change to
    /// either path count or either WOTS length: a count that still parses
    /// moves the next length prefix into digest bytes.
    #[test]
    fn signature_decoder_rejects_prefixes_and_changed_counts_and_lengths() {
        let sig = sample_sig(6);
        let buf = encoded(|w| put_mss(w, &sig));
        for cut in 0..buf.len() {
            assert!(
                get_mss(&mut Reader::new(&buf[..cut])).is_err(),
                "prefix {cut}"
            );
        }
        let bottom_count = 8;
        let top_count = bottom_count + 4 + 32 * sig.auth_path.len();
        let leaf_len = top_count + 4 + 32 * sig.cert.auth_path.len();
        let cert_len = leaf_len + 8 + sig.wots.size_bytes();
        let fields = [
            bottom_count..bottom_count + 4,
            top_count..top_count + 4,
            leaf_len..leaf_len + 8,
            cert_len..cert_len + 8,
        ];
        for at in fields.into_iter().flatten() {
            for delta in 1..=255u8 {
                let mut bad = buf.clone();
                bad[at] = bad[at].wrapping_add(delta);
                assert!(
                    get_mss(&mut Reader::new(&bad)).is_err(),
                    "byte {at} + {delta}"
                );
            }
        }
    }

    /// Each signed type's `encoded_size` is the number of bytes its
    /// encoder writes.
    #[test]
    fn signed_types_encoded_size_matches_bytes_written() {
        let state = SignedState {
            signer: 1,
            root: tcvs_crypto::sha256(b"root"),
            ctr: 9,
            sig: sample_sig(1),
        };
        let len = encoded(|w| put_signed_state(w, &state)).len();
        assert_eq!(state.encoded_size(), len);

        for last in [Some(tcvs_crypto::sha256(b"last")), None] {
            let epoch = SignedEpochState {
                user: 2,
                epoch: 3,
                sigma: tcvs_crypto::sha256(b"sigma"),
                last,
                ops: 4,
                sig: sample_sig(2),
            };
            let len = encoded(|w| put_epoch_state(w, &epoch)).len();
            assert_eq!(epoch.encoded_size(), len, "last = {last:?}");
        }

        let checkpoint = SignedCheckpoint {
            epoch: 5,
            checker: 0,
            final_token: tcvs_crypto::sha256(b"final"),
            sig: sample_sig(3),
        };
        let len = encoded(|w| put_audit_checkpoint(w, &checkpoint)).len();
        assert_eq!(checkpoint.encoded_size(), len);
    }

    /// Every op and answer kind: present and absent values, both range
    /// bounds open and closed.
    fn all_ops() -> Vec<Op> {
        vec![
            Op::Get(u64_key(3)),
            Op::Get(u64_key(999)),
            Op::Put(u64_key(5), b"five".to_vec()),
            Op::Put(u64_key(500), b"new".to_vec()),
            Op::Range(Some(u64_key(10)), Some(u64_key(20))),
            Op::Range(None, Some(u64_key(2))),
            Op::Range(Some(u64_key(38)), None),
            Op::Delete(u64_key(7)),
            Op::Delete(u64_key(999)),
        ]
    }

    /// A server holding 40 keys, and a Protocol I deposit over its state.
    fn server() -> (HonestServer, SignedState) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        };
        let mut server = HonestServer::new(&config);
        for i in 0..40u64 {
            let value = vec![i as u8; 1 + (i % 7) as usize];
            server.handle_op((i % 2) as u32, &Op::Put(u64_key(i), value), i);
        }
        let signed = SignedState {
            signer: 0,
            root: server.core().root_digest(),
            ctr: server.core().ctr(),
            sig: sample_sig(1),
        };
        (server, signed)
    }

    /// One table of every message shape: the size its `encoded_size`
    /// reports against the length of the bytes its encoder writes.
    #[test]
    fn every_message_encoded_size_is_its_encoding_length() {
        let (mut server, signed) = server();
        let mut rows: Vec<(String, usize, usize)> = Vec::new();
        let mut row = |name: String, size: usize, put: &dyn Fn(&mut Writer)| {
            rows.push((name, size, encoded(put).len()));
        };
        for (i, op) in all_ops().iter().enumerate() {
            row(
                format!("op {i} {}", op.kind()),
                encoded_len(|c| put_op(c, op)),
                &|w| put_op(w, op),
            );
            let mut resp = server.handle_op(1, op, 40 + i as u64);
            row(
                format!("result {i} {:?}", std::mem::discriminant(&resp.result)),
                encoded_len(|c| put_op_result(c, &resp.result)),
                &|w| put_op_result(w, &resp.result),
            );
            for sig in [None, Some(signed.clone())] {
                resp.sig = sig;
                let name = format!("response {i} {} sig={}", op.kind(), resp.sig.is_some());
                row(name, resp.encoded_size(), &|w| put_response(w, &resp));
            }
        }

        let window = [
            Op::Get(u64_key(1)),
            Op::Put(u64_key(2), b"two".to_vec()),
            Op::Get(u64_key(999)),
        ];
        let mut batch = server.handle_op_batch(0, 0, &window, 60).unwrap();
        for sig in [None, Some(signed.clone())] {
            batch.sig = sig;
            let name = format!("batch sig={}", batch.sig.is_some());
            row(name, batch.encoded_size(), &|w| {
                put_batch_response(w, &batch)
            });
        }
        row("signed state".into(), signed.encoded_size(), &|w| {
            put_signed_state(w, &signed)
        });
        for last in [Some(tcvs_crypto::sha256(b"last")), None] {
            let state = SignedEpochState {
                user: 2,
                epoch: 3,
                sigma: tcvs_crypto::sha256(b"sigma"),
                last,
                ops: 4,
                sig: sample_sig(2),
            };
            let name = format!("epoch state last={}", last.is_some());
            row(name, state.encoded_size(), &|w| put_epoch_state(w, &state));
            let share = SyncShare {
                user: 3,
                lctr: 7,
                gctr: 11,
                sigma: tcvs_crypto::sha256(b"s"),
                last,
            };
            let name = format!("sync share last={}", last.is_some());
            row(name, share.encoded_size(), &|w| put_sync_share(w, &share));
        }
        let checkpoint = SignedCheckpoint {
            epoch: 5,
            checker: 0,
            final_token: tcvs_crypto::sha256(b"final"),
            sig: sample_sig(3),
        };
        row("audit checkpoint".into(), checkpoint.encoded_size(), &|w| {
            put_audit_checkpoint(w, &checkpoint)
        });

        assert_eq!(rows.len(), 9 * 4 + 2 + 1 + 2 * 2 + 1);
        let wrong: Vec<_> = rows.iter().filter(|(_, size, len)| size != len).collect();
        assert!(
            wrong.is_empty(),
            "(message, encoded_size, bytes written): {wrong:#?}"
        );
    }

    /// Every strict prefix of `buf` fails to decode, and no single-byte
    /// change makes the decoder panic (the `store::enc` pattern).
    fn assert_decoder_is_strict<T>(
        buf: &[u8],
        get: impl Fn(&mut Reader) -> Result<T, DecodeError>,
    ) {
        for cut in 0..buf.len() {
            let got = get(&mut Reader::new(&buf[..cut]));
            assert!(got.is_err(), "prefix {cut} of {} decoded", buf.len());
        }
        for at in 0..buf.len() {
            for delta in [0x01, 0x80, 0xFF] {
                let mut bad = buf.to_vec();
                bad[at] = bad[at].wrapping_add(delta);
                let _ = get(&mut Reader::new(&bad));
            }
        }
    }

    #[test]
    fn op_and_response_decoders_reject_prefixes_and_survive_byte_changes() {
        let (mut server, signed) = server();
        for (i, op) in all_ops().iter().enumerate() {
            let buf = encoded(|w| put_op(w, op));
            let mut r = Reader::new(&buf);
            assert_eq!(&get_op(&mut r).unwrap(), op);
            r.finish().unwrap();
            assert_decoder_is_strict(&buf, get_op);

            let mut resp = server.handle_op(0, op, 40 + i as u64);
            if i == 0 {
                resp.sig = Some(signed.clone());
            }
            let buf = response_bytes(&resp);
            let mut r = Reader::new(&buf);
            assert_eq!(response_bytes(&get_response(&mut r).unwrap()), buf);
            r.finish().unwrap();
            assert_decoder_is_strict(&buf, get_response);
        }
    }

    #[test]
    fn key_share_and_transition_codecs_round_trip() {
        let (_, registry) = tcvs_crypto::setup_users([9; 32], 2, 3);
        let pk = *registry.lookup(1).unwrap();
        let mut w = Writer::new();
        put_mss_public_key(&mut w, &pk);
        let share = SyncShare {
            user: 3,
            lctr: 7,
            gctr: 11,
            sigma: tcvs_crypto::sha256(b"s"),
            last: Some(tcvs_crypto::sha256(b"l")),
        };
        put_sync_share(&mut w, &share);
        let tr = LoggedTransition {
            old_token: tcvs_crypto::sha256(b"a"),
            new_token: tcvs_crypto::sha256(b"b"),
            ctr: 4,
            user: 1,
        };
        put_transition(&mut w, &tr);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let pk2 = get_mss_public_key(&mut r).unwrap();
        assert_eq!((pk2.root, pk2.height), (pk.root, pk.height));
        assert_eq!(get_sync_share(&mut r).unwrap(), share);
        assert_eq!(get_transition(&mut r).unwrap(), tr);
        r.finish().unwrap();
    }

    #[test]
    fn event_codec_round_trips_spans_and_rejects_unknown_kind() {
        let ctx = SpanContext::root(3, 9).child(stage::SERVER);
        let ev = Event::new(7, EventKind::Detection, 3)
            .detail("shard=2")
            .span(ctx);
        let mut w = Writer::new();
        put_event(&mut w, &ev);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(get_event(&mut r).unwrap(), ev);
        r.finish().unwrap();
        assert!(event_kind_from_tag(200).is_err());
    }
}

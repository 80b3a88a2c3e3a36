//! Shared byte codecs for the protocol vocabulary.
//!
//! Built on `tcvs_store::enc`'s length-prefixed little-endian framing.
//! These encoders used to live inside `tcvs-storage`; they moved here when
//! evidence bundles ([`crate::evidence`]) started needing the same
//! vocabulary — the durable log, the checkpoint format, and the portable
//! forensic artifact now share one explicit, auditable encoding for
//! signatures, deposits, shares, and flight-recorder frames.
//!
//! Decoders validate everything: signatures re-verify their structure,
//! enum tags reject unknown values, and all errors surface as typed
//! [`DecodeError`]s with offsets.

use std::sync::Arc;

use tcvs_crypto::mss::MssCertificate;
use tcvs_crypto::wots::WotsSignature;
use tcvs_crypto::{Digest, MssPublicKey, MssSignature};
use tcvs_obs::{Event, EventKind, SpanContext, SpanId, TraceId};
use tcvs_store::enc::{DecodeError, Reader, Writer};

use crate::forensics::LoggedTransition;
use crate::msg::{SignedCheckpoint, SignedEpochState, SignedState, SyncShare};

// --- primitives -----------------------------------------------------------

/// Writes a raw 32-byte digest.
pub fn put_digest(w: &mut Writer, d: &Digest) {
    w.raw(&d.0);
}

/// Reads a raw 32-byte digest.
pub fn get_digest(r: &mut Reader) -> Result<Digest, DecodeError> {
    let raw = r.raw(Digest::LEN)?;
    Ok(Digest(raw.try_into().expect("fixed length")))
}

/// Writes an optional digest with a presence byte.
pub fn put_opt_digest(w: &mut Writer, d: Option<&Digest>) {
    match d {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            put_digest(w, d);
        }
    }
}

/// Reads an optional digest written by [`put_opt_digest`].
pub fn get_opt_digest(r: &mut Reader) -> Result<Option<Digest>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_digest(r)?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

// --- signatures and keys --------------------------------------------------

/// Writes an MSS signature: the leaf index, the bottom and the top
/// authentication path (each behind a u32 count), then the leaf's and the
/// certificate's WOTS bodies (each behind a u64 length). The bodies go
/// last, so a wrong count moves a length prefix and the decode fails.
pub fn put_mss(w: &mut Writer, s: &MssSignature) {
    w.u64(s.leaf_index);
    put_path(w, &s.auth_path);
    put_path(w, &s.cert.auth_path);
    w.bytes(&s.wots.to_bytes());
    w.bytes(&s.cert.wots.to_bytes());
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

fn put_path(w: &mut Writer, path: &[Digest]) {
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

fn get_wots(r: &mut Reader) -> Result<WotsSignature, DecodeError> {
    WotsSignature::from_bytes(r.bytes()?).ok_or(DecodeError::Invalid("wots signature"))
}

/// Writes an MSS public key (Merkle root + tree height).
pub fn put_mss_public_key(w: &mut Writer, pk: &MssPublicKey) {
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
pub fn put_signed_state(w: &mut Writer, s: &SignedState) {
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
pub fn put_epoch_state(w: &mut Writer, s: &SignedEpochState) {
    w.u32(s.user);
    w.u64(s.epoch);
    put_digest(w, &s.sigma);
    put_opt_digest(w, s.last.as_ref());
    w.u64(s.ops);
    put_mss(w, &s.sig);
}

/// Reads an epoch state written by [`put_epoch_state`].
pub fn get_epoch_state(r: &mut Reader) -> Result<SignedEpochState, DecodeError> {
    Ok(SignedEpochState {
        user: r.u32()?,
        epoch: r.u64()?,
        sigma: get_digest(r)?,
        last: get_opt_digest(r)?,
        ops: r.u64()?,
        sig: get_mss(r)?,
    })
}

/// Writes a Protocol III audited checkpoint.
pub fn put_audit_checkpoint(w: &mut Writer, c: &SignedCheckpoint) {
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
pub fn put_sync_share(w: &mut Writer, s: &SyncShare) {
    w.u32(s.user);
    w.u64(s.lctr);
    w.u64(s.gctr);
    put_digest(w, &s.sigma);
    put_opt_digest(w, s.last.as_ref());
}

/// Reads a share written by [`put_sync_share`].
pub fn get_sync_share(r: &mut Reader) -> Result<SyncShare, DecodeError> {
    Ok(SyncShare {
        user: r.u32()?,
        lctr: r.u64()?,
        gctr: r.u64()?,
        sigma: get_digest(r)?,
        last: get_opt_digest(r)?,
    })
}

/// Writes one logged state transition (the forensics vocabulary).
pub fn put_transition(w: &mut Writer, t: &LoggedTransition) {
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
pub fn put_event(w: &mut Writer, ev: &Event) {
    w.u64(ev.t);
    w.u8(event_kind_tag(ev.kind));
    w.u32(ev.user);
    w.string(&ev.detail);
    match &ev.span {
        None => w.u8(0),
        Some(ctx) => {
            w.u8(1);
            w.u64(ctx.trace.0);
            w.u64(ctx.span.0);
            match ctx.parent {
                None => w.u8(0),
                Some(p) => {
                    w.u8(1);
                    w.u64(p.0);
                }
            }
        }
    }
}

/// Reads an event written by [`put_event`].
pub fn get_event(r: &mut Reader) -> Result<Event, DecodeError> {
    let t = r.u64()?;
    let kind = event_kind_from_tag(r.u8()?)?;
    let user = r.u32()?;
    let detail = r.string()?;
    let span = match r.u8()? {
        0 => None,
        1 => {
            let trace = TraceId(r.u64()?);
            let span = SpanId(r.u64()?);
            let parent = match r.u8()? {
                0 => None,
                1 => Some(SpanId(r.u64()?)),
                t => return Err(DecodeError::BadTag(t)),
            };
            Some(SpanContext {
                trace,
                span,
                parent,
            })
        }
        t => return Err(DecodeError::BadTag(t)),
    };
    let mut ev = Event::new(t, kind, user).detail(detail);
    ev.span = span;
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_obs::stage;

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
        assert_eq!(buf.len(), sig.size_bytes());
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

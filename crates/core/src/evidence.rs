//! Portable deviation evidence: the [`EvidenceBundle`].
//!
//! The protocols tell a client *that* the server deviated, and
//! [`crate::forensics::diagnose`] can say *where* — but a verdict that
//! lives only inside the process that noticed it asks a third party to
//! trust the reporting node. A bundle closes that gap: it is a
//! deterministic, self-contained, byte-stable artifact carrying what an
//! independent verifier (`tcvs-audit`, or the paper's "external mechanism,
//! e.g. law enforcement") needs to re-derive the verdict cold — the
//! triggering deviation, the rejected [`Exchange`] (the client's anchor,
//! the op or window, and the whole reply), the sync-up shares, signed
//! deposits, opt-in transition logs, the span-carrying trace tail, the
//! flight-recorder tail, and a metrics snapshot, plus the public keys every
//! embedded signature verifies against. [`crate::audit()`] re-runs the
//! client's own check on the exchange.
//!
//! ## Framing and byte stability
//!
//! A bundle is `MAGIC ‖ payload ‖ sha256(MAGIC ‖ payload)`, with the
//! payload in `tcvs_store::enc`'s length-prefixed little-endian encoding
//! (the same vocabulary codecs as the durable log — [`crate::wire`]).
//! Every collection is canonically ordered by [`EvidenceBuilder::build`]
//! (events by logical time, keys and logs by user) and only logical
//! timestamps and counters are embedded — never wall-clock values — so the
//! same seeded incident always serializes to identical bytes (the E12
//! property, extended to incident artifacts). The trailing digest makes
//! any single-byte mutation detectable before field-level parsing even
//! begins; field-level parsing then rejects structural tampering at the
//! exact offending field ([`EvidenceError::Malformed`]).
//!
//! ## Version 2: one server
//!
//! The payload is version 2: one initial token, one share set, one log
//! set, and the exchange where version 1 carried bare proofs and one slot
//! per server of the deleted grove. A version-1 artifact is refused
//! as [`EvidenceError::UnsupportedVersion`]`(1)`; durable stores keep
//! bundles as opaque bytes, so they still recover.

use std::fmt;

use tcvs_crypto::{sha256, Digest, MssPublicKey, UserId};
use tcvs_obs::{Event, MetricValue, MetricsSnapshot};
use tcvs_store::enc::{DecodeError, Reader, Sink, Writer};

use crate::forensics::TransitionLog;
use crate::msg::{SignedCheckpoint, SignedEpochState, SignedState, SyncShare};
use crate::protocol::{Anchor, Exchange};
use crate::types::{Ctr, Deviation};
use crate::wire::{self, min_len};

/// Magic prefix of an encoded bundle.
pub const EVIDENCE_MAGIC: &[u8; 8] = b"TCVSEVB1";
/// Format version of the bundle payload.
const VERSION: u32 = 2;
/// Upper bound on any embedded collection length; a count past this is
/// corruption (or an attempted decompression bomb), not evidence.
const MAX_ITEMS: usize = 1 << 20;

/// Which detection site assembled the bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvidenceKind {
    /// A protocol driver's per-op or sync-up verdict (Protocol I/II/III).
    ProtocolVerdict,
    /// `verify_batch_response` rejected a batched window.
    BatchVerifyFailure,
    /// A bootstrap chunk failed its root-anchored proof (forgery).
    BootstrapForgery,
    /// The simulation oracle observed a deviation.
    OracleDeviation,
}

impl EvidenceKind {
    /// Stable wire tag.
    fn tag(self) -> u8 {
        match self {
            EvidenceKind::ProtocolVerdict => 0,
            EvidenceKind::BatchVerifyFailure => 1,
            EvidenceKind::BootstrapForgery => 4,
            EvidenceKind::OracleDeviation => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<EvidenceKind, DecodeError> {
        Ok(match tag {
            0 => EvidenceKind::ProtocolVerdict,
            1 => EvidenceKind::BatchVerifyFailure,
            4 => EvidenceKind::BootstrapForgery,
            5 => EvidenceKind::OracleDeviation,
            t => return Err(DecodeError::BadTag(t)),
        })
    }

    /// Stable human/machine label.
    pub fn label(self) -> &'static str {
        match self {
            EvidenceKind::ProtocolVerdict => "protocol-verdict",
            EvidenceKind::BatchVerifyFailure => "batch-verify-failure",
            EvidenceKind::BootstrapForgery => "bootstrap-forgery",
            EvidenceKind::OracleDeviation => "oracle-deviation",
        }
    }
}

impl fmt::Display for EvidenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The triggering deviation, flattened into stable strings plus the
/// coordinates the reporter knew at capture time. The audit re-derives its
/// own verdict from the raw materials; this records what the reporter
/// *claimed*, so the two can be cross-checked.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TriggerInfo {
    /// Stable deviation class label (e.g. `"sync-failed"`, `"bad-proof"`).
    pub deviation: String,
    /// Free-form detail (the deviation's display rendering).
    pub detail: String,
    /// The user who observed the deviation, if known.
    pub user: Option<UserId>,
    /// The counter at which the deviation surfaced, if known.
    pub ctr: Option<Ctr>,
}

impl TriggerInfo {
    /// Flattens a [`Deviation`] into its stable label + detail rendering.
    pub fn from_deviation(d: &Deviation) -> TriggerInfo {
        TriggerInfo {
            deviation: deviation_label(d).into(),
            detail: d.to_string(),
            ..TriggerInfo::default()
        }
    }
}

/// The stable class label of a [`Deviation`] (`"bad-proof"`, …).
pub(crate) fn deviation_label(d: &Deviation) -> &'static str {
    match d {
        Deviation::BadSignature => "bad-signature",
        Deviation::BadProof(_) => "bad-proof",
        Deviation::CounterRegression { .. } => "counter-regression",
        Deviation::SyncFailed => "sync-failed",
        Deviation::EpochCheckFailed(_) => "epoch-check-failed",
        Deviation::MissingEpochState { .. } => "missing-epoch-state",
        Deviation::BadEpochSignature(_) => "bad-epoch-signature",
        Deviation::EpochSkew { .. } => "epoch-skew",
        Deviation::KeyExhausted => "key-exhausted",
    }
}

/// One counter or gauge from the capture-time metrics snapshot.
/// Histograms measure wall-clock time and are deliberately excluded —
/// they would break byte stability across re-runs of the same seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricSample {
    /// A monotonic counter.
    Counter {
        /// Metric name (dot-namespaced, as registered).
        name: String,
        /// Counter value at capture.
        value: u64,
    },
    /// A point-in-time gauge.
    Gauge {
        /// Metric name (dot-namespaced, as registered).
        name: String,
        /// Gauge value at capture.
        value: i64,
    },
}

impl MetricSample {
    /// The sample's metric name.
    pub fn name(&self) -> &str {
        match self {
            MetricSample::Counter { name, .. } | MetricSample::Gauge { name, .. } => name,
        }
    }
}

/// A decoded evidence bundle. Construct with [`EvidenceBuilder`];
/// serialize with [`EvidenceBundle::to_bytes`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceBundle {
    /// Which detection site assembled this bundle.
    pub kind: EvidenceKind,
    /// The run's seed (reproduces the incident end to end).
    pub seed: u64,
    /// Protocol label of the detecting client (`"protocol-2"`, …).
    pub protocol: String,
    /// Logical capture time (round / op index — never wall clock).
    pub captured_at: u64,
    /// One-line human description of the incident.
    pub description: String,
    /// The claimed trigger (cross-checked by the audit, not trusted).
    pub trigger: TriggerInfo,
    /// The reporter's initial state token: the `initial` of the sync-up
    /// predicate and the root of the diagnosed logs.
    pub initial: Option<Digest>,
    /// Broadcast sync-up shares.
    pub shares: Vec<SyncShare>,
    /// Offending / relevant Protocol I signed deposits.
    pub signed_states: Vec<SignedState>,
    /// Offending / relevant Protocol III epoch states.
    pub epoch_states: Vec<SignedEpochState>,
    /// Offending / relevant Protocol III audited checkpoints.
    pub checkpoints: Vec<SignedCheckpoint>,
    /// The rejected exchange, which the audit re-checks.
    pub exchange: Option<Exchange>,
    /// Public keys of every user whose signature appears above. Embedding
    /// them makes the bundle self-verifying *relative to this key set*; a
    /// verifier with an out-of-band PKI can additionally check the set.
    pub keys: Vec<(UserId, MssPublicKey)>,
    /// Opt-in transition logs, one per user: the raw material `diagnose`
    /// needs to name the first bad counter.
    pub transition_logs: Vec<(UserId, TransitionLog)>,
    /// The relevant span-carrying trace events (canonically sorted).
    pub events: Vec<Event>,
    /// The flight-recorder tail at capture (already oldest-first).
    pub flight_tail: Vec<Event>,
    /// Counters and gauges at capture (name-sorted; no histograms).
    pub metrics: Vec<MetricSample>,
}

/// Two exchanges are equal when they encode to the same bytes.
impl PartialEq for Exchange {
    fn eq(&self, other: &Exchange) -> bool {
        let bytes = |x: &Exchange| {
            let mut w = Writer::new();
            put_exchange(&mut w, x);
            w.into_bytes()
        };
        bytes(self) == bytes(other)
    }
}

/// Why a bundle was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvidenceError {
    /// The artifact does not start with [`EVIDENCE_MAGIC`].
    BadMagic,
    /// The payload version is one this verifier does not read.
    UnsupportedVersion(u32),
    /// The trailing sha256 does not match `MAGIC ‖ payload` — the artifact
    /// was truncated or mutated.
    IntegrityDigest,
    /// A field failed to decode; `field` names the exact offender.
    Malformed {
        /// Dotted path of the field that failed (e.g. `signed_states[2]`).
        field: String,
        /// The underlying decode failure.
        err: DecodeError,
    },
}

impl fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvidenceError::BadMagic => write!(f, "not an evidence bundle (bad magic)"),
            EvidenceError::UnsupportedVersion(v) => write!(f, "unsupported bundle version {v}"),
            EvidenceError::IntegrityDigest => {
                write!(f, "integrity digest mismatch (truncated or tampered)")
            }
            EvidenceError::Malformed { field, err } => {
                write!(f, "malformed field '{field}': {err:?}")
            }
        }
    }
}

impl std::error::Error for EvidenceError {}

/// Annotates a decode result with the field path it belongs to.
fn fld<T>(field: &str, r: Result<T, DecodeError>) -> Result<T, EvidenceError> {
    r.map_err(|err| EvidenceError::Malformed {
        field: field.into(),
        err,
    })
}

/// Reads a collection count whose items each encode to at least
/// `min_item` bytes ([`wire::get_count`]), refusing one past
/// [`MAX_ITEMS`] too. The integrity digest is unkeyed, so anyone can seal a
/// bundle with a forged count; this bound is what keeps the decoder's
/// `with_capacity` proportional to the bytes it was actually given.
fn counted(field: &str, r: &mut Reader, min_item: usize) -> Result<usize, EvidenceError> {
    let n = fld(field, wire::get_count(r, min_item))?;
    if n > MAX_ITEMS {
        return fld(field, Err(DecodeError::Invalid("count too large")));
    }
    Ok(n)
}

/// Reads a [`counted`] collection, naming a bad item `field[i]`.
fn get_all<T>(
    r: &mut Reader,
    field: &str,
    min_item: usize,
    get: impl Fn(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Vec<T>, EvidenceError> {
    let n = counted(field, r, min_item)?;
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        items.push(get(r).map_err(|err| EvidenceError::Malformed {
            field: format!("{field}[{i}]"),
            err,
        })?);
    }
    Ok(items)
}

/// Writes a collection behind its u32 count.
fn put_all<T>(w: &mut Writer, items: &[T], put: impl Fn(&mut Writer, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        put(w, item);
    }
}

/// Writes an exchange: its shape tag, the anchor, the op (or the window
/// behind its count), then the whole reply in its wire encoding.
fn put_exchange(w: &mut Writer, x: &Exchange) {
    let put_anchor = |w: &mut Writer, a: &Anchor| {
        w.u32(a.order as u32);
        w.u64(a.gctr);
    };
    match x {
        Exchange::Op { anchor, op, reply } => {
            w.u8(0);
            put_anchor(w, anchor);
            wire::put_op(w, op);
            wire::put_response(w, reply);
        }
        Exchange::Window { anchor, ops, reply } => {
            w.u8(1);
            put_anchor(w, anchor);
            put_all(w, ops, wire::put_op);
            wire::put_batch_response(w, reply);
        }
    }
}

/// Reads an exchange written by [`put_exchange`]; the window's op count is
/// held to the input left, like every other count.
fn get_exchange(r: &mut Reader) -> Result<Exchange, DecodeError> {
    let shape = r.u8()?;
    let anchor = Anchor {
        order: r.u32()? as usize,
        gctr: r.u64()?,
    };
    match shape {
        0 => Ok(Exchange::Op {
            anchor,
            op: wire::get_op(r)?,
            reply: wire::get_response(r)?,
        }),
        1 => Ok(Exchange::Window {
            anchor,
            ops: (0..wire::get_count(r, min_len::OP)?)
                .map(|_| wire::get_op(r))
                .collect::<Result<_, _>>()?,
            reply: wire::get_batch_response(r)?,
        }),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_metric(w: &mut Writer, m: &MetricSample) {
    match m {
        MetricSample::Counter { name, value } => {
            w.u8(0);
            w.string(name);
            w.u64(*value);
        }
        MetricSample::Gauge { name, value } => {
            w.u8(1);
            w.string(name);
            w.u64(*value as u64);
        }
    }
}

fn get_metric(r: &mut Reader) -> Result<MetricSample, DecodeError> {
    Ok(match r.u8()? {
        0 => MetricSample::Counter {
            name: r.string()?,
            value: r.u64()?,
        },
        1 => MetricSample::Gauge {
            name: r.string()?,
            value: r.u64()? as i64,
        },
        t => return Err(DecodeError::BadTag(t)),
    })
}

fn get_user_log(r: &mut Reader) -> Result<(UserId, TransitionLog), DecodeError> {
    let user = r.u32()?;
    let mut log = TransitionLog::new();
    for _ in 0..wire::get_count(r, min_len::TRANSITION)? {
        log.record(wire::get_transition(r)?);
    }
    Ok((user, log))
}

impl EvidenceBundle {
    /// Serializes the bundle: `MAGIC ‖ payload ‖ sha256(MAGIC ‖ payload)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(EVIDENCE_MAGIC);
        w.u32(VERSION);
        w.u8(self.kind.tag());
        w.u64(self.seed);
        w.string(&self.protocol);
        w.u64(self.captured_at);
        w.string(&self.description);
        w.string(&self.trigger.deviation);
        w.string(&self.trigger.detail);
        w.opt(self.trigger.user, Sink::u32);
        w.opt(self.trigger.ctr, Sink::u64);
        w.opt(self.initial.as_ref(), wire::put_digest);
        put_all(&mut w, &self.shares, wire::put_sync_share);
        put_all(&mut w, &self.signed_states, wire::put_signed_state);
        put_all(&mut w, &self.epoch_states, wire::put_epoch_state);
        put_all(&mut w, &self.checkpoints, wire::put_audit_checkpoint);
        w.opt(self.exchange.as_ref(), put_exchange);
        put_all(&mut w, &self.keys, |w, (u, pk)| {
            w.u32(*u);
            wire::put_mss_public_key(w, pk);
        });
        put_all(&mut w, &self.transition_logs, |w, (u, log)| {
            w.u32(*u);
            put_all(w, log.entries(), wire::put_transition);
        });
        put_all(&mut w, &self.events, wire::put_event);
        put_all(&mut w, &self.flight_tail, wire::put_event);
        put_all(&mut w, &self.metrics, put_metric);

        let mut bytes = w.into_bytes();
        let digest = sha256(&bytes);
        bytes.extend_from_slice(digest.as_bytes());
        bytes
    }

    /// The bundle's integrity digest: `sha256(MAGIC ‖ payload)` — the last
    /// 32 bytes of [`EvidenceBundle::to_bytes`], usable as a stable
    /// incident identifier.
    pub fn integrity_digest(&self) -> Digest {
        let bytes = self.to_bytes();
        Digest::from_slice(&bytes[bytes.len() - Digest::LEN..]).expect("digest suffix")
    }

    /// Decodes and integrity-checks a bundle. Tampering is rejected at the
    /// outermost layer it corrupts: the magic, the trailing digest, or the
    /// exact malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<EvidenceBundle, EvidenceError> {
        if bytes.len() < EVIDENCE_MAGIC.len() + Digest::LEN
            || &bytes[..EVIDENCE_MAGIC.len()] != EVIDENCE_MAGIC
        {
            return Err(EvidenceError::BadMagic);
        }
        let body_len = bytes.len() - Digest::LEN;
        let claimed = Digest::from_slice(&bytes[body_len..]).expect("length checked");
        if sha256(&bytes[..body_len]) != claimed {
            return Err(EvidenceError::IntegrityDigest);
        }
        let r = &mut Reader::new(&bytes[EVIDENCE_MAGIC.len()..body_len]);
        let version = fld("version", r.u32())?;
        if version != VERSION {
            return Err(EvidenceError::UnsupportedVersion(version));
        }
        let bundle = EvidenceBundle {
            kind: fld("kind", r.u8().and_then(EvidenceKind::from_tag))?,
            seed: fld("seed", r.u64())?,
            protocol: fld("protocol", r.string())?,
            captured_at: fld("captured_at", r.u64())?,
            description: fld("description", r.string())?,
            trigger: TriggerInfo {
                deviation: fld("trigger.deviation", r.string())?,
                detail: fld("trigger.detail", r.string())?,
                user: fld("trigger.user", r.opt(Reader::u32))?,
                ctr: fld("trigger.ctr", r.opt(Reader::u64))?,
            },
            initial: fld("initial", r.opt(wire::get_digest))?,
            shares: get_all(r, "shares", min_len::SHARE, wire::get_sync_share)?,
            signed_states: get_all(
                r,
                "signed_states",
                min_len::SIGNED_STATE,
                wire::get_signed_state,
            )?,
            epoch_states: get_all(
                r,
                "epoch_states",
                min_len::EPOCH_STATE,
                wire::get_epoch_state,
            )?,
            checkpoints: get_all(
                r,
                "checkpoints",
                min_len::CHECKPOINT,
                wire::get_audit_checkpoint,
            )?,
            exchange: fld("exchange", r.opt(get_exchange))?,
            keys: get_all(r, "keys", min_len::KEY, |r| {
                Ok((r.u32()?, wire::get_mss_public_key(r)?))
            })?,
            transition_logs: get_all(r, "transition_logs", min_len::USER_LOG, get_user_log)?,
            events: get_all(r, "events", min_len::EVENT, wire::get_event)?,
            flight_tail: get_all(r, "flight_tail", min_len::EVENT, wire::get_event)?,
            metrics: get_all(r, "metrics", min_len::METRIC, get_metric)?,
        };
        fld("trailing", r.finish())?;
        Ok(bundle)
    }
}

/// Assembles an [`EvidenceBundle`] at a detection site, enforcing the
/// canonical orderings byte stability depends on: [`EvidenceBuilder::build`]
/// sorts trace events by (logical time, actor, kind, detail, span), keys
/// and logs by user, and metric samples by name — so capture-order
/// nondeterminism (threaded clients racing) never leaks into the artifact.
#[derive(Debug)]
pub struct EvidenceBuilder {
    bundle: EvidenceBundle,
}

impl EvidenceBuilder {
    /// Starts a bundle for a detection site.
    pub fn new(kind: EvidenceKind, seed: u64, protocol: &str) -> EvidenceBuilder {
        EvidenceBuilder {
            bundle: EvidenceBundle {
                kind,
                seed,
                protocol: protocol.into(),
                captured_at: 0,
                description: String::new(),
                trigger: TriggerInfo::default(),
                initial: None,
                shares: Vec::new(),
                signed_states: Vec::new(),
                epoch_states: Vec::new(),
                checkpoints: Vec::new(),
                exchange: None,
                keys: Vec::new(),
                transition_logs: Vec::new(),
                events: Vec::new(),
                flight_tail: Vec::new(),
                metrics: Vec::new(),
            },
        }
    }

    /// Sets the logical capture time.
    pub fn captured_at(mut self, t: u64) -> Self {
        self.bundle.captured_at = t;
        self
    }

    /// Sets the one-line incident description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.bundle.description = d.into();
        self
    }

    /// Sets the claimed trigger.
    pub fn trigger(mut self, t: TriggerInfo) -> Self {
        self.bundle.trigger = t;
        self
    }

    /// Sets the trigger from a protocol [`Deviation`].
    pub fn deviation(self, d: &Deviation) -> Self {
        self.trigger(TriggerInfo::from_deviation(d))
    }

    /// Sets the reporter's initial state token.
    pub fn initial(mut self, initial: Digest) -> Self {
        self.bundle.initial = Some(initial);
        self
    }

    /// Sets the broadcast sync-up shares.
    pub fn shares(mut self, shares: Vec<SyncShare>) -> Self {
        self.bundle.shares = shares;
        self
    }

    /// Adds an offending / relevant signed deposit.
    pub fn signed_state(mut self, s: SignedState) -> Self {
        self.bundle.signed_states.push(s);
        self
    }

    /// Adds offending / relevant epoch states.
    pub fn epoch_states(mut self, states: impl IntoIterator<Item = SignedEpochState>) -> Self {
        self.bundle.epoch_states.extend(states);
        self
    }

    /// Adds offending / relevant audited checkpoints.
    pub fn checkpoints(mut self, cps: impl IntoIterator<Item = SignedCheckpoint>) -> Self {
        self.bundle.checkpoints.extend(cps);
        self
    }

    /// Sets the rejected exchange.
    pub fn exchange(mut self, exchange: Option<Exchange>) -> Self {
        self.bundle.exchange = exchange;
        self
    }

    /// Registers every key in a [`tcvs_crypto::KeyRegistry`].
    pub fn keys_from(mut self, registry: &tcvs_crypto::KeyRegistry) -> Self {
        let keys = registry
            .users()
            .filter_map(|u| Some((u, *registry.lookup(u)?)));
        self.bundle.keys.extend(keys);
        self
    }

    /// Attaches one user's opt-in transition log.
    pub fn transition_log(mut self, user: UserId, log: &TransitionLog) -> Self {
        self.bundle.transition_logs.push((user, log.clone()));
        self
    }

    /// Attaches the relevant trace events (sorted canonically at build).
    pub fn events(mut self, events: impl IntoIterator<Item = Event>) -> Self {
        self.bundle.events.extend(events);
        self
    }

    /// Attaches the flight-recorder tail (kept in recorder order).
    pub fn flight_tail(mut self, events: impl IntoIterator<Item = Event>) -> Self {
        self.bundle.flight_tail.extend(events);
        self
    }

    /// Attaches the counters and gauges of a metrics snapshot. Histograms
    /// (wall-clock timings) are dropped to keep the artifact byte-stable.
    pub fn metrics(mut self, snapshot: &MetricsSnapshot) -> Self {
        let samples = snapshot.entries.iter().filter_map(|e| match e.value {
            MetricValue::Counter(value) => Some(MetricSample::Counter {
                name: e.name.clone(),
                value,
            }),
            MetricValue::Gauge(value) => Some(MetricSample::Gauge {
                name: e.name.clone(),
                value,
            }),
            MetricValue::Histogram { .. } => None,
        });
        self.bundle.metrics.extend(samples);
        self
    }

    /// Finalizes the bundle, applying the canonical orderings.
    pub fn build(self) -> EvidenceBundle {
        let mut b = self.bundle;
        b.keys.sort_by_key(|(u, _)| *u);
        b.keys.dedup_by_key(|(u, _)| *u);
        b.transition_logs.sort_by_key(|(u, _)| *u);
        b.events.sort_by(|a, e| {
            let ka = (a.t, a.user, wire::event_kind_tag(a.kind));
            let ke = (e.t, e.user, wire::event_kind_tag(e.kind));
            ka.cmp(&ke)
                .then_with(|| a.detail.cmp(&e.detail))
                .then_with(|| span_key(a).cmp(&span_key(e)))
        });
        b.metrics.sort_by(|a, e| a.name().cmp(e.name()));
        b
    }
}

fn span_key(ev: &Event) -> (u64, u64, u64) {
    match &ev.span {
        None => (0, 0, 0),
        Some(ctx) => (ctx.trace.0, ctx.span.0, ctx.parent.map_or(0, |p| p.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_crypto::setup_users;
    use tcvs_merkle::{u64_key, Op};
    use tcvs_obs::{EventKind, MetricsRegistry};

    use crate::server::{HonestServer, ServerApi};
    use crate::state::signed_payload;
    use crate::types::ProtocolConfig;

    /// A per-op and a window exchange with a server holding five keys.
    fn exchanges() -> (Exchange, Exchange) {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 10,
        };
        let mut server = HonestServer::new(&config);
        for i in 0..5u64 {
            server.handle_op(0, &Op::Put(u64_key(i), vec![i as u8]), i);
        }
        let anchor = Anchor { order: 4, gctr: 5 };
        let op = Op::Get(u64_key(2));
        let reply = server.handle_op(1, &op, 5);
        let ops = vec![Op::Put(u64_key(9), b"nine".to_vec()), Op::Get(u64_key(3))];
        let window = server.handle_op_batch(1, 0, &ops, 6);
        let window = Exchange::Window {
            anchor: Anchor { order: 4, gctr: 6 },
            ops,
            reply: window.expect("an honest server batches point ops"),
        };
        (Exchange::Op { anchor, op, reply }, window)
    }

    fn sample_bundle() -> EvidenceBundle {
        let (mut rings, registry) = setup_users([7; 32], 2, 3);
        let root = sha256(b"root");
        let payload = signed_payload(&root, 5);
        let sig = rings[0].sign(&payload).unwrap();
        let registry_metrics = MetricsRegistry::new();
        registry_metrics.counter("net.retries").add(9);
        registry_metrics.gauge("net.depth").set(-3);
        registry_metrics.histogram("net.op_micros").observe(12);
        let mut log = TransitionLog::new();
        log.record(crate::forensics::LoggedTransition {
            old_token: sha256(b"a"),
            new_token: sha256(b"b"),
            ctr: 1,
            user: 0,
        });
        EvidenceBuilder::new(EvidenceKind::ProtocolVerdict, 42, "protocol-2")
            .captured_at(17)
            .description("a lie caught on its op")
            .deviation(&Deviation::SyncFailed)
            .initial(sha256(b"i0"))
            .shares(vec![SyncShare {
                user: 0,
                lctr: 1,
                gctr: 1,
                sigma: sha256(b"s"),
                last: Some(sha256(b"l")),
            }])
            .signed_state(SignedState {
                signer: 0,
                root,
                ctr: 5,
                sig,
            })
            .exchange(Some(exchanges().0))
            .keys_from(&registry)
            .transition_log(1, &log)
            .transition_log(0, &log)
            .events([
                Event::new(9, EventKind::Detection, 1).detail("late"),
                Event::new(2, EventKind::OpServed, 0).detail("early"),
            ])
            .flight_tail([Event::new(1, EventKind::Deposit, 0)])
            .metrics(&registry_metrics.snapshot())
            .build()
    }

    #[test]
    fn round_trips_byte_identically() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        let back = EvidenceBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.to_bytes(), bytes, "encode∘decode is identity");
        assert_eq!(back.kind, EvidenceKind::ProtocolVerdict);
        assert_eq!(back.seed, 42);
        assert_eq!(back.initial, Some(sha256(b"i0")));
        assert_eq!(back.signed_states.len(), 1);
        assert_eq!(back.keys.len(), 2);
        // Logs and events were canonically re-ordered.
        assert_eq!(back.transition_logs[0].0, 0);
        assert_eq!(back.events[0].detail, "early");
        // Histograms were dropped; counters and gauges kept.
        assert!(back.metrics.iter().all(|m| m.name() != "net.op_micros"));
        assert_eq!(back.metrics.len(), 2);
        // A window exchange round-trips too, and differs from the op's.
        let mut w = sample_bundle();
        w.exchange = Some(exchanges().1);
        let back = EvidenceBundle::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(back.exchange, w.exchange);
        assert_ne!(back.exchange, b.exchange);
        // Every kind's tag decodes.
        for kind in [
            EvidenceKind::ProtocolVerdict,
            EvidenceKind::BatchVerifyFailure,
            EvidenceKind::BootstrapForgery,
            EvidenceKind::OracleDeviation,
        ] {
            let mut b = sample_bundle();
            b.kind = kind;
            assert_eq!(
                EvidenceBundle::from_bytes(&b.to_bytes()).unwrap().kind,
                kind
            );
        }
    }

    #[test]
    fn same_inputs_build_identical_bytes() {
        assert_eq!(sample_bundle().to_bytes(), sample_bundle().to_bytes());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample_bundle().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                EvidenceBundle::from_bytes(&bad).is_err(),
                "flip at byte {i} of {} was accepted",
                bytes.len()
            );
        }
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let bytes = sample_bundle().to_bytes();
        assert_eq!(
            EvidenceBundle::from_bytes(&bytes[..bytes.len() - 1]),
            Err(EvidenceError::IntegrityDigest)
        );
        assert_eq!(
            EvidenceBundle::from_bytes(b"NOTABNDL"),
            Err(EvidenceError::BadMagic)
        );
        assert_eq!(
            EvidenceBundle::from_bytes(b""),
            Err(EvidenceError::BadMagic)
        );
    }

    /// Re-seals `payload` (magic included) under a valid digest, as anyone
    /// can: the digest is unkeyed.
    fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
        let digest = sha256(&payload);
        payload.extend_from_slice(digest.as_bytes());
        payload
    }

    #[test]
    fn malformed_field_is_named_exactly() {
        // Re-frame a corrupted payload with a *valid* trailing digest so the
        // failure surfaces at field level, not at the integrity layer:
        // truncate mid-payload and re-seal. The exchange starts where a
        // bundle without one first differs.
        let bytes = sample_bundle().to_bytes();
        let mut plain = sample_bundle();
        plain.exchange = None;
        let exchange = plain
            .to_bytes()
            .iter()
            .zip(&bytes)
            .take_while(|(a, b)| a == b)
            .count();
        let metrics_end = bytes.len() - Digest::LEN - 40;
        for (cut, field) in [(metrics_end, "metrics"), (exchange + 20, "exchange")] {
            let forged = reseal(bytes[..cut].to_vec());
            match EvidenceBundle::from_bytes(&forged) {
                Err(EvidenceError::Malformed { field: f, .. }) => {
                    assert!(f.starts_with(field), "{f}");
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    /// A version-1 artifact is refused by its version, typed, and the kind
    /// tags of the deleted grove's capture sites are unknown tags.
    #[test]
    fn version_1_and_retired_kind_tags_are_refused_typed() {
        let bytes = sample_bundle().to_bytes();
        let payload = &bytes[..bytes.len() - Digest::LEN];
        // magic 8, version 4: the kind tag is byte 12.
        let mut old = payload.to_vec();
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            EvidenceBundle::from_bytes(&reseal(old)),
            Err(EvidenceError::UnsupportedVersion(1))
        );
        for tag in [2u8, 3] {
            let mut old = payload.to_vec();
            old[12] = tag;
            assert_eq!(
                EvidenceBundle::from_bytes(&reseal(old)),
                Err(EvidenceError::Malformed {
                    field: "kind".into(),
                    err: DecodeError::BadTag(tag),
                })
            );
        }
    }

    #[test]
    fn integrity_digest_is_stable_and_suffix() {
        let b = sample_bundle();
        let bytes = b.to_bytes();
        assert_eq!(
            b.integrity_digest().as_bytes(),
            &bytes[bytes.len() - Digest::LEN..]
        );
    }
}

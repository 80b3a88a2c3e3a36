//! Portable deviation evidence: the [`EvidenceBundle`].
//!
//! The protocols tell a client *that* the server forked its history, and
//! [`crate::forensics::diagnose`] can say *where* — but a verdict that
//! lives only inside the process that noticed it asks a third party to
//! trust the reporting node. A bundle closes that gap: it is a
//! deterministic, self-contained, byte-stable artifact carrying everything
//! an independent verifier (`tcvs-audit`, or the paper's "external
//! mechanism, e.g. law enforcement") needs to re-derive the verdict cold —
//! the triggering deviation, the offending signed deposits, the sync-up
//! shares, opt-in transition logs, the span-carrying
//! trace tail, the flight-recorder tail, and a metrics snapshot, plus the
//! public keys every embedded signature verifies against.
//!
//! ## Framing and byte stability
//!
//! A bundle is `MAGIC ‖ payload ‖ sha256(MAGIC ‖ payload)`, with the
//! payload in `tcvs_store::enc`'s length-prefixed little-endian encoding
//! (the same vocabulary codecs as the durable log — [`crate::wire`]).
//! Every collection is canonically ordered by [`EvidenceBuilder::build`]
//! (events by logical time, keys/logs by user, shards by index) and only
//! logical timestamps and counters are embedded — never wall-clock
//! values — so the same seeded incident always serializes to identical
//! bytes (the E12 property, extended to incident artifacts). The trailing
//! digest makes any single-byte mutation detectable before field-level
//! parsing even begins; field-level parsing then rejects structural
//! tampering at the exact offending field ([`EvidenceError::Malformed`]).
//!
//! ## Per-shard fields and retired slots
//!
//! The per-shard collections (`initials`, `shares`, `transition_logs`,
//! the claimed shard set, the trigger's shard) stay in the format; the one
//! server a deployment runs is shard 0. Two slots are retired: the grove
//! sample (always written absent) and the kind tags 2 and 3 of the grove
//! reader and grove sync-up capture sites. A bundle that carries either
//! is refused at that field ([`EvidenceError::Malformed`] naming `grove`
//! or `kind`); every other bundle decodes as it always did.

use std::fmt;

use tcvs_crypto::{sha256, Digest, MssPublicKey, UserId};
use tcvs_obs::{Event, MetricValue, MetricsSnapshot};
use tcvs_store::enc::{DecodeError, Reader, Sink, Writer};

use crate::forensics::TransitionLog;
use crate::msg::{SignedCheckpoint, SignedEpochState, SignedState, SyncShare};
use crate::types::{Ctr, Deviation};
use crate::wire;

/// Magic prefix of an encoded bundle.
pub const EVIDENCE_MAGIC: &[u8; 8] = b"TCVSEVB1";
/// Format version of the bundle payload.
const VERSION: u32 = 1;
/// Upper bound on any embedded collection length; a count past this is
/// corruption (or an attempted decompression bomb), not evidence.
const MAX_ITEMS: u32 = 1 << 20;

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
            // The retired grove snapshot reader and grove sync-up sites.
            2 | 3 => return Err(DecodeError::Invalid("retired grove evidence kind")),
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
    /// The shard the reporter localized, if any.
    pub shard: Option<u32>,
    /// The counter at which the deviation surfaced, if known.
    pub ctr: Option<Ctr>,
}

impl TriggerInfo {
    /// Flattens a [`Deviation`] into its stable label + detail rendering.
    pub fn from_deviation(d: &Deviation) -> TriggerInfo {
        let deviation = match d {
            Deviation::BadSignature => "bad-signature",
            Deviation::BadProof(_) => "bad-proof",
            Deviation::CounterRegression { .. } => "counter-regression",
            Deviation::SyncFailed => "sync-failed",
            Deviation::EpochCheckFailed(_) => "epoch-check-failed",
            Deviation::MissingEpochState { .. } => "missing-epoch-state",
            Deviation::BadEpochSignature(_) => "bad-epoch-signature",
            Deviation::EpochSkew { .. } => "epoch-skew",
            Deviation::KeyExhausted => "key-exhausted",
        };
        TriggerInfo {
            deviation: deviation.into(),
            detail: d.to_string(),
            ..TriggerInfo::default()
        }
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
    /// Per-shard initial state tokens (one entry: the server is shard 0).
    pub initials: Vec<Digest>,
    /// Shards the reporter claims deviated (audit recomputes its own set).
    pub claimed_deviating_shards: Vec<u32>,
    /// Broadcast sync-up shares, grouped per shard (`shares[s]` pairs with
    /// `initials[s]`).
    pub shares: Vec<Vec<SyncShare>>,
    /// Offending / relevant Protocol I signed deposits.
    pub signed_states: Vec<SignedState>,
    /// Offending / relevant Protocol III epoch states.
    pub epoch_states: Vec<SignedEpochState>,
    /// Offending / relevant Protocol III audited checkpoints.
    pub checkpoints: Vec<SignedCheckpoint>,
    /// Offending verification objects, in their canonical encoding (their
    /// internal digests re-verify on decode).
    pub vos: Vec<Vec<u8>>,
    /// Public keys of every user whose signature appears above. Embedding
    /// them makes the bundle self-verifying *relative to this key set*; a
    /// verifier with an out-of-band PKI can additionally check the set.
    pub keys: Vec<(UserId, MssPublicKey)>,
    /// Opt-in transition logs: `(shard, [(user, log)])`, the raw material
    /// `diagnose` needs to name the first bad counter.
    pub transition_logs: Vec<(u32, Vec<(UserId, TransitionLog)>)>,
    /// The relevant span-carrying trace events (canonically sorted).
    pub events: Vec<Event>,
    /// The flight-recorder tail at capture (already oldest-first).
    pub flight_tail: Vec<Event>,
    /// Counters and gauges at capture (name-sorted; no histograms).
    pub metrics: Vec<MetricSample>,
}

/// Why a bundle was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvidenceError {
    /// The artifact does not start with [`EVIDENCE_MAGIC`].
    BadMagic,
    /// The payload version is newer than this verifier understands.
    UnsupportedVersion(u32),
    /// The trailing sha256 does not match `MAGIC ‖ payload` — the artifact
    /// was truncated or mutated.
    IntegrityDigest,
    /// A field failed to decode; `field` names the exact offender.
    Malformed {
        /// Dotted path of the field that failed (e.g. `signed_states[2].sig`).
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
fn fld<T>(field: impl Into<String>, r: Result<T, DecodeError>) -> Result<T, EvidenceError> {
    r.map_err(|err| EvidenceError::Malformed {
        field: field.into(),
        err,
    })
}

/// Reads a collection count whose items each encode to at least
/// `min_item` bytes, refusing one past [`MAX_ITEMS`] or one the remaining
/// input cannot hold. The integrity digest is unkeyed, so anyone can seal a
/// bundle with a forged count; this bound is what keeps the decoder's
/// `with_capacity` proportional to the bytes it was actually given.
fn counted(field: &str, r: &mut Reader, min_item: usize) -> Result<usize, EvidenceError> {
    let n = fld(field, r.u32())?;
    let refuse = |why| {
        Err(EvidenceError::Malformed {
            field: field.into(),
            err: DecodeError::Invalid(why),
        })
    };
    if n > MAX_ITEMS {
        return refuse("count too large");
    }
    if (n as usize).saturating_mul(min_item) > r.remaining() {
        return refuse("count exceeds the remaining input");
    }
    Ok(n as usize)
}

/// Least encoded sizes of the bundle's collection items: the fixed-width
/// fields of each, with every string, byte string, signature and option
/// taken at its smallest.
mod min_len {
    const DIGEST: usize = 32;
    pub const INITIAL: usize = DIGEST;
    pub const SHARD: usize = 4;
    /// A share set: its item count.
    pub const SHARE_SET: usize = 4;
    pub const SHARE: usize = 4 + 8 + 8 + DIGEST + 1;
    pub const SIGNED_STATE: usize = 4 + DIGEST + 8;
    pub const EPOCH_STATE: usize = 4 + 8 + DIGEST + 1 + 8;
    pub const CHECKPOINT: usize = 8 + 4 + DIGEST;
    /// A VO: its length prefix.
    pub const VO: usize = 8;
    pub const KEY: usize = 4 + DIGEST + 4;
    /// A shard's log set: the shard and its user count.
    pub const LOG_SET: usize = 4 + 4;
    /// One user's log: the user and its entry count.
    pub const USER_LOG: usize = 4 + 4;
    pub const TRANSITION: usize = DIGEST + DIGEST + 8 + 4;
    pub const EVENT: usize = 8 + 1 + 4 + 8 + 1;
    pub const METRIC: usize = 1 + 8 + 8;
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
        w.opt(self.trigger.shard, Sink::u32);
        w.opt(self.trigger.ctr, Sink::u64);

        w.u32(self.initials.len() as u32);
        for d in &self.initials {
            wire::put_digest(&mut w, d);
        }
        // The retired grove sample, always absent.
        w.u8(0);
        w.u32(self.claimed_deviating_shards.len() as u32);
        for s in &self.claimed_deviating_shards {
            w.u32(*s);
        }
        w.u32(self.shares.len() as u32);
        for shard in &self.shares {
            w.u32(shard.len() as u32);
            for s in shard {
                wire::put_sync_share(&mut w, s);
            }
        }
        w.u32(self.signed_states.len() as u32);
        for s in &self.signed_states {
            wire::put_signed_state(&mut w, s);
        }
        w.u32(self.epoch_states.len() as u32);
        for s in &self.epoch_states {
            wire::put_epoch_state(&mut w, s);
        }
        w.u32(self.checkpoints.len() as u32);
        for c in &self.checkpoints {
            wire::put_audit_checkpoint(&mut w, c);
        }
        w.u32(self.vos.len() as u32);
        for v in &self.vos {
            w.bytes(v);
        }
        w.u32(self.keys.len() as u32);
        for (u, pk) in &self.keys {
            w.u32(*u);
            wire::put_mss_public_key(&mut w, pk);
        }
        w.u32(self.transition_logs.len() as u32);
        for (shard, users) in &self.transition_logs {
            w.u32(*shard);
            w.u32(users.len() as u32);
            for (u, log) in users {
                w.u32(*u);
                w.u32(log.len() as u32);
                for t in log.entries() {
                    wire::put_transition(&mut w, t);
                }
            }
        }
        w.u32(self.events.len() as u32);
        for ev in &self.events {
            wire::put_event(&mut w, ev);
        }
        w.u32(self.flight_tail.len() as u32);
        for ev in &self.flight_tail {
            wire::put_event(&mut w, ev);
        }
        w.u32(self.metrics.len() as u32);
        for m in &self.metrics {
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
        let mut r = Reader::new(&bytes[EVIDENCE_MAGIC.len()..body_len]);
        let version = fld("version", r.u32())?;
        if version != VERSION {
            return Err(EvidenceError::UnsupportedVersion(version));
        }
        let kind = fld("kind", r.u8().and_then(EvidenceKind::from_tag))?;
        let seed = fld("seed", r.u64())?;
        let protocol = fld("protocol", r.string())?;
        let captured_at = fld("captured_at", r.u64())?;
        let description = fld("description", r.string())?;

        let trigger = TriggerInfo {
            deviation: fld("trigger.deviation", r.string())?,
            detail: fld("trigger.detail", r.string())?,
            user: fld("trigger.user", r.opt(Reader::u32))?,
            shard: fld("trigger.shard", r.opt(Reader::u32))?,
            ctr: fld("trigger.ctr", r.opt(Reader::u64))?,
        };

        let n = counted("initials", &mut r, min_len::INITIAL)?;
        let mut initials = Vec::with_capacity(n);
        for i in 0..n {
            initials.push(fld(format!("initials[{i}]"), wire::get_digest(&mut r))?);
        }
        match fld("grove", r.u8())? {
            0 => {}
            t => {
                return Err(EvidenceError::Malformed {
                    field: "grove".into(),
                    err: match t {
                        1 => DecodeError::Invalid("retired grove sample"),
                        t => DecodeError::BadTag(t),
                    },
                })
            }
        }
        let n = counted("claimed_deviating_shards", &mut r, min_len::SHARD)?;
        let mut claimed_deviating_shards = Vec::with_capacity(n);
        for i in 0..n {
            claimed_deviating_shards.push(fld(format!("claimed_deviating_shards[{i}]"), r.u32())?);
        }
        let n = counted("shares", &mut r, min_len::SHARE_SET)?;
        let mut shares = Vec::with_capacity(n);
        for s in 0..n {
            let m = counted(&format!("shares[{s}]"), &mut r, min_len::SHARE)?;
            let mut shard = Vec::with_capacity(m);
            for i in 0..m {
                shard.push(fld(
                    format!("shares[{s}][{i}]"),
                    wire::get_sync_share(&mut r),
                )?);
            }
            shares.push(shard);
        }
        let n = counted("signed_states", &mut r, min_len::SIGNED_STATE)?;
        let mut signed_states = Vec::with_capacity(n);
        for i in 0..n {
            signed_states.push(fld(
                format!("signed_states[{i}]"),
                wire::get_signed_state(&mut r),
            )?);
        }
        let n = counted("epoch_states", &mut r, min_len::EPOCH_STATE)?;
        let mut epoch_states = Vec::with_capacity(n);
        for i in 0..n {
            epoch_states.push(fld(
                format!("epoch_states[{i}]"),
                wire::get_epoch_state(&mut r),
            )?);
        }
        let n = counted("checkpoints", &mut r, min_len::CHECKPOINT)?;
        let mut checkpoints = Vec::with_capacity(n);
        for i in 0..n {
            checkpoints.push(fld(
                format!("checkpoints[{i}]"),
                wire::get_audit_checkpoint(&mut r),
            )?);
        }
        let n = counted("vos", &mut r, min_len::VO)?;
        let mut vos = Vec::with_capacity(n);
        for i in 0..n {
            vos.push(fld(format!("vos[{i}]"), r.bytes())?.to_vec());
        }
        let n = counted("keys", &mut r, min_len::KEY)?;
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            let u = fld(format!("keys[{i}].user"), r.u32())?;
            let pk = fld(format!("keys[{i}].key"), wire::get_mss_public_key(&mut r))?;
            keys.push((u, pk));
        }
        let n = counted("transition_logs", &mut r, min_len::LOG_SET)?;
        let mut transition_logs = Vec::with_capacity(n);
        for s in 0..n {
            let shard = fld(format!("transition_logs[{s}].shard"), r.u32())?;
            let m = counted(
                &format!("transition_logs[{s}].users"),
                &mut r,
                min_len::USER_LOG,
            )?;
            let mut users = Vec::with_capacity(m);
            for j in 0..m {
                let u = fld(format!("transition_logs[{s}].users[{j}].user"), r.u32())?;
                let len = counted(
                    &format!("transition_logs[{s}].users[{j}].log"),
                    &mut r,
                    min_len::TRANSITION,
                )?;
                let mut log = TransitionLog::new();
                for i in 0..len {
                    log.record(fld(
                        format!("transition_logs[{s}].users[{j}].log[{i}]"),
                        wire::get_transition(&mut r),
                    )?);
                }
                users.push((u, log));
            }
            transition_logs.push((shard, users));
        }
        let n = counted("events", &mut r, min_len::EVENT)?;
        let mut events = Vec::with_capacity(n);
        for i in 0..n {
            events.push(fld(format!("events[{i}]"), wire::get_event(&mut r))?);
        }
        let n = counted("flight_tail", &mut r, min_len::EVENT)?;
        let mut flight_tail = Vec::with_capacity(n);
        for i in 0..n {
            flight_tail.push(fld(format!("flight_tail[{i}]"), wire::get_event(&mut r))?);
        }
        let n = counted("metrics", &mut r, min_len::METRIC)?;
        let mut metrics = Vec::with_capacity(n);
        for i in 0..n {
            let sample = match fld(format!("metrics[{i}].kind"), r.u8())? {
                0 => MetricSample::Counter {
                    name: fld(format!("metrics[{i}].name"), r.string())?,
                    value: fld(format!("metrics[{i}].value"), r.u64())?,
                },
                1 => MetricSample::Gauge {
                    name: fld(format!("metrics[{i}].name"), r.string())?,
                    value: fld(format!("metrics[{i}].value"), r.u64())? as i64,
                },
                t => {
                    return Err(EvidenceError::Malformed {
                        field: format!("metrics[{i}].kind"),
                        err: DecodeError::BadTag(t),
                    })
                }
            };
            metrics.push(sample);
        }
        fld("trailing", r.finish())?;
        Ok(EvidenceBundle {
            kind,
            seed,
            protocol,
            captured_at,
            description,
            trigger,
            initials,
            claimed_deviating_shards,
            shares,
            signed_states,
            epoch_states,
            checkpoints,
            vos,
            keys,
            transition_logs,
            events,
            flight_tail,
            metrics,
        })
    }
}

/// Assembles an [`EvidenceBundle`] at a detection site, enforcing the
/// canonical orderings byte stability depends on: [`EvidenceBuilder::build`]
/// sorts trace events by (logical time, actor, kind, detail, span), keys
/// and per-shard logs by user, shard groups by index, and metric samples by
/// name — so capture-order nondeterminism (threaded shards racing) never
/// leaks into the artifact.
#[derive(Debug, Default)]
pub struct EvidenceBuilder {
    bundle: Option<EvidenceBundle>,
}

impl EvidenceBuilder {
    /// Starts a bundle for a detection site.
    pub fn new(kind: EvidenceKind, seed: u64, protocol: &str) -> EvidenceBuilder {
        EvidenceBuilder {
            bundle: Some(EvidenceBundle {
                kind,
                seed,
                protocol: protocol.into(),
                captured_at: 0,
                description: String::new(),
                trigger: TriggerInfo::default(),
                initials: Vec::new(),
                claimed_deviating_shards: Vec::new(),
                shares: Vec::new(),
                signed_states: Vec::new(),
                epoch_states: Vec::new(),
                checkpoints: Vec::new(),
                vos: Vec::new(),
                keys: Vec::new(),
                transition_logs: Vec::new(),
                events: Vec::new(),
                flight_tail: Vec::new(),
                metrics: Vec::new(),
            }),
        }
    }

    fn b(&mut self) -> &mut EvidenceBundle {
        self.bundle.as_mut().expect("builder not consumed")
    }

    /// Sets the logical capture time.
    pub fn captured_at(mut self, t: u64) -> Self {
        self.b().captured_at = t;
        self
    }

    /// Sets the one-line incident description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.b().description = d.into();
        self
    }

    /// Sets the claimed trigger.
    pub fn trigger(mut self, t: TriggerInfo) -> Self {
        self.b().trigger = t;
        self
    }

    /// Sets the trigger from a protocol [`Deviation`].
    pub fn deviation(self, d: &Deviation) -> Self {
        let t = TriggerInfo::from_deviation(d);
        self.trigger(t)
    }

    /// Sets the per-shard initial state tokens.
    pub fn initials(mut self, initials: &[Digest]) -> Self {
        self.b().initials = initials.to_vec();
        self
    }

    /// Records the shards the reporter localized.
    pub fn claimed_shards(mut self, shards: impl IntoIterator<Item = usize>) -> Self {
        self.b().claimed_deviating_shards = shards.into_iter().map(|s| s as u32).collect();
        self
    }

    /// Attaches the per-shard broadcast sync-up shares.
    pub fn shares(mut self, shares: Vec<Vec<SyncShare>>) -> Self {
        self.b().shares = shares;
        self
    }

    /// Adds an offending / relevant signed deposit.
    pub fn signed_state(mut self, s: SignedState) -> Self {
        self.b().signed_states.push(s);
        self
    }

    /// Adds offending / relevant epoch states.
    pub fn epoch_states(mut self, states: impl IntoIterator<Item = SignedEpochState>) -> Self {
        self.b().epoch_states.extend(states);
        self
    }

    /// Adds offending / relevant audited checkpoints.
    pub fn checkpoints(mut self, cps: impl IntoIterator<Item = SignedCheckpoint>) -> Self {
        self.b().checkpoints.extend(cps);
        self
    }

    /// Adds an offending verification object (canonical encoding).
    pub fn vo(mut self, bytes: Vec<u8>) -> Self {
        self.b().vos.push(bytes);
        self
    }

    /// Registers one user's public key.
    pub fn key(mut self, user: UserId, pk: MssPublicKey) -> Self {
        self.b().keys.push((user, pk));
        self
    }

    /// Registers every key in a [`tcvs_crypto::KeyRegistry`].
    pub fn keys_from(mut self, registry: &tcvs_crypto::KeyRegistry) -> Self {
        let b = self.b();
        for u in registry.users() {
            if let Some(pk) = registry.lookup(u) {
                b.keys.push((u, *pk));
            }
        }
        self
    }

    /// Attaches one user's opt-in transition log for a shard.
    pub fn transition_log(mut self, shard: usize, user: UserId, log: &TransitionLog) -> Self {
        let b = self.b();
        let shard = shard as u32;
        match b.transition_logs.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, users)) => users.push((user, log.clone())),
            None => b.transition_logs.push((shard, vec![(user, log.clone())])),
        }
        self
    }

    /// Attaches the relevant trace events (sorted canonically at build).
    pub fn events(mut self, events: impl IntoIterator<Item = Event>) -> Self {
        self.b().events.extend(events);
        self
    }

    /// Attaches the flight-recorder tail (kept in recorder order).
    pub fn flight_tail(mut self, events: impl IntoIterator<Item = Event>) -> Self {
        self.b().flight_tail.extend(events);
        self
    }

    /// Attaches the counters and gauges of a metrics snapshot. Histograms
    /// (wall-clock timings) are dropped to keep the artifact byte-stable.
    pub fn metrics(mut self, snapshot: &MetricsSnapshot) -> Self {
        let b = self.b();
        for e in &snapshot.entries {
            match e.value {
                MetricValue::Counter(v) => b.metrics.push(MetricSample::Counter {
                    name: e.name.clone(),
                    value: v,
                }),
                MetricValue::Gauge(v) => b.metrics.push(MetricSample::Gauge {
                    name: e.name.clone(),
                    value: v,
                }),
                MetricValue::Histogram { .. } => {}
            }
        }
        self
    }

    /// Finalizes the bundle, applying the canonical orderings.
    pub fn build(mut self) -> EvidenceBundle {
        let mut b = self.bundle.take().expect("builder not consumed");
        b.claimed_deviating_shards.sort_unstable();
        b.claimed_deviating_shards.dedup();
        b.keys.sort_by_key(|(u, _)| *u);
        b.keys.dedup_by_key(|(u, _)| *u);
        b.transition_logs.sort_by_key(|(s, _)| *s);
        for (_, users) in &mut b.transition_logs {
            users.sort_by_key(|(u, _)| *u);
        }
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
    use tcvs_obs::{EventKind, MetricsRegistry};

    use crate::state::signed_payload;

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
            .description("a fork caught at sync-up")
            .deviation(&Deviation::SyncFailed)
            .initials(&[sha256(b"i0"), sha256(b"i1")])
            .claimed_shards([1usize])
            .shares(vec![
                vec![SyncShare {
                    user: 0,
                    lctr: 1,
                    gctr: 1,
                    sigma: sha256(b"s"),
                    last: Some(sha256(b"l")),
                }],
                vec![],
            ])
            .signed_state(SignedState {
                signer: 0,
                root,
                ctr: 5,
                sig,
            })
            .keys_from(&registry)
            .transition_log(1, 0, &log)
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
        assert_eq!(back.to_bytes(), bytes, "encode∘decode is identity");
        assert_eq!(back.kind, EvidenceKind::ProtocolVerdict);
        assert_eq!(back.seed, 42);
        assert_eq!(back.claimed_deviating_shards, vec![1]);
        assert_eq!(back.initials.len(), 2);
        assert_eq!(back.signed_states.len(), 1);
        assert_eq!(back.keys.len(), 2);
        // Events were canonically re-ordered by logical time.
        assert_eq!(back.events[0].detail, "early");
        // Histograms were dropped; counters and gauges kept.
        assert!(back.metrics.iter().all(|m| m.name() != "net.op_micros"));
        assert_eq!(back.metrics.len(), 2);
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

    #[test]
    fn malformed_field_is_named_exactly() {
        // Re-frame a corrupted payload with a *valid* trailing digest so the
        // failure surfaces at field level, not at the integrity layer: truncate
        // mid-payload and re-seal.
        let b = sample_bundle();
        let bytes = b.to_bytes();
        let cut = bytes.len() - Digest::LEN - 40;
        let mut forged = bytes[..cut].to_vec();
        let digest = sha256(&forged);
        forged.extend_from_slice(digest.as_bytes());
        let err = EvidenceBundle::from_bytes(&forged).unwrap_err();
        match err {
            EvidenceError::Malformed { field, .. } => {
                assert!(!field.is_empty(), "field path is present");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Re-seals `payload` (magic included) under a valid digest, as anyone
    /// can: the digest is unkeyed.
    fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
        let digest = sha256(&payload);
        payload.extend_from_slice(digest.as_bytes());
        payload
    }

    /// A bundle sealed before the grove was deleted decodes unless it
    /// carries a grove slot: a grove sample or a grove kind tag is refused
    /// at that field, under a valid digest.
    #[test]
    fn retired_grove_slots_are_refused_by_field() {
        let bytes = sample_bundle().to_bytes();
        let payload = &bytes[..bytes.len() - Digest::LEN];
        // magic 8, version 4: the kind tag is byte 12.
        for tag in [2u8, 3] {
            let mut old = payload.to_vec();
            old[12] = tag;
            match EvidenceBundle::from_bytes(&reseal(old)) {
                Err(EvidenceError::Malformed { field, err }) => {
                    assert_eq!(field, "kind");
                    assert_eq!(err, DecodeError::Invalid("retired grove evidence kind"));
                }
                other => panic!("kind tag {tag} decoded: {other:?}"),
            }
        }
        // The grove slot follows the initials; a present sample is tag 1.
        let last_initial = sample_bundle().initials[1];
        let at = payload
            .windows(Digest::LEN)
            .position(|w| w == last_initial.as_bytes())
            .expect("the last initial is in the payload")
            + Digest::LEN;
        assert_eq!(payload[at], 0, "the grove sample is always absent");
        let mut old = payload.to_vec();
        old[at] = 1;
        match EvidenceBundle::from_bytes(&reseal(old)) {
            Err(EvidenceError::Malformed { field, err }) => {
                assert_eq!(field, "grove");
                assert_eq!(err, DecodeError::Invalid("retired grove sample"));
            }
            other => panic!("a grove sample decoded: {other:?}"),
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

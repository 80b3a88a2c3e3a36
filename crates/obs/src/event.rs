//! Structured events: the span-like records every instrumented component
//! emits. An [`Event`] is deliberately flat — logical timestamp, kind,
//! actor, free-form detail — so logs render as stable, diffable text.

use std::fmt;

use crate::span::SpanContext;

/// Actor value meaning "no specific user" (the server itself, or the
/// harness).
pub const NO_ACTOR: u32 = u32::MAX;

/// The event taxonomy. One variant per observable moment in the stack;
/// components attach specifics (counter values, deviation evidence) in
/// [`Event::detail`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// An operation was executed by the server (serialized write path).
    OpServed,
    /// A read was served from a published snapshot. Nothing emits it any
    /// more; the tag stays so traces that carry it still decode.
    ReadServed,
    /// A verification object was constructed for a response.
    ProofBuilt,
    /// A client retried a request after a timeout or lost reply.
    Retry,
    /// A retried request was answered from the server's reply journal
    /// instead of re-executing.
    JournalHit,
    /// A signature / epoch-state deposit was produced or stored.
    Deposit,
    /// The blocking server gave up waiting for a signature deposit.
    MissedDeposit,
    /// A Protocol III checkpoint was deposited.
    Checkpoint,
    /// The server crashed (scheduled fault or adversarial).
    Crash,
    /// The server restarted from persisted state.
    Restart,
    /// Durable storage finished crash recovery; detail records the
    /// checkpoint used, records replayed, and any torn tail discarded.
    Recovery,
    /// A broadcast sync-up was triggered (some user reached `k` ops).
    SyncTriggered,
    /// A broadcast sync-up completed; detail records the outcome.
    SyncUp,
    /// A Protocol III epoch audit ran; detail records the epoch + outcome.
    Audit,
    /// A benign fault was injected by the harness or fault link.
    FaultInjected,
    /// Ground truth: the harness knows the server first deviated here.
    DeviationInjected,
    /// A client concluded the server deviated (the protocol verdict).
    Detection,
}

impl EventKind {
    /// Stable lowercase label used in rendered logs.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::OpServed => "op-served",
            EventKind::ReadServed => "read-served",
            EventKind::ProofBuilt => "proof-built",
            EventKind::Retry => "retry",
            EventKind::JournalHit => "journal-hit",
            EventKind::Deposit => "deposit",
            EventKind::MissedDeposit => "missed-deposit",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Crash => "crash",
            EventKind::Restart => "restart",
            EventKind::Recovery => "recovery",
            EventKind::SyncTriggered => "sync-triggered",
            EventKind::SyncUp => "sync-up",
            EventKind::Audit => "audit",
            EventKind::FaultInjected => "fault-injected",
            EventKind::DeviationInjected => "deviation-injected",
            EventKind::Detection => "detection",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured event.
///
/// `t` is a *logical* timestamp — a round, an operation index, or a counter
/// value, whichever the emitting component documents — never wall-clock, so
/// seeded runs produce identical logs. Wall-clock durations belong in
/// [`crate::Histogram`]s, not events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical timestamp (source-defined: round / op index / ctr).
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
    /// Acting user, or [`NO_ACTOR`].
    pub user: u32,
    /// Free-form detail: counter values, outcomes, evidence.
    pub detail: String,
    /// The wire-propagated span this event belongs to, when the emitting
    /// component took part in a traced operation. `None` renders exactly
    /// as before spans existed, so span-less logs stay byte-stable.
    pub span: Option<SpanContext>,
}

impl Event {
    /// A detail-less event.
    pub fn new(t: u64, kind: EventKind, user: u32) -> Event {
        Event {
            t,
            kind,
            user,
            detail: String::new(),
            span: None,
        }
    }

    /// Attaches detail text (builder style).
    pub fn detail(mut self, detail: impl Into<String>) -> Event {
        self.detail = detail.into();
        self
    }

    /// Attaches a span context (builder style).
    pub fn span(mut self, ctx: SpanContext) -> Event {
        self.span = Some(ctx);
        self
    }

    /// Attaches a span context when one is present (builder style; the
    /// common shape at call sites that thread an `Option` through).
    pub fn span_opt(mut self, ctx: Option<SpanContext>) -> Event {
        self.span = ctx;
        self
    }

    /// Renders the event as one stable log line.
    pub fn render_line(&self) -> String {
        let user = if self.user == NO_ACTOR {
            "-".to_string()
        } else {
            format!("u{}", self.user)
        };
        let mut line = if self.detail.is_empty() {
            format!("{:>8}  {:<18} {:<6}", self.t, self.kind.label(), user)
        } else {
            format!(
                "{:>8}  {:<18} {:<6} {}",
                self.t,
                self.kind.label(),
                user,
                self.detail
            )
        };
        if let Some(ctx) = &self.span {
            line.push_str("  ");
            line.push_str(&ctx.render());
        }
        line
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_line())
    }
}

/// Renders a sequence of events as a diffable multi-line log (one
/// [`Event::render_line`] per event, `\n`-terminated).
pub fn render_log(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for ev in events {
        out.push_str(&ev.render_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let all = [
            EventKind::OpServed,
            EventKind::ReadServed,
            EventKind::ProofBuilt,
            EventKind::Retry,
            EventKind::JournalHit,
            EventKind::Deposit,
            EventKind::MissedDeposit,
            EventKind::Checkpoint,
            EventKind::Crash,
            EventKind::Restart,
            EventKind::Recovery,
            EventKind::SyncTriggered,
            EventKind::SyncUp,
            EventKind::Audit,
            EventKind::FaultInjected,
            EventKind::DeviationInjected,
            EventKind::Detection,
        ];
        let mut labels: Vec<_> = all.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn render_is_stable_and_aligned() {
        let ev = Event::new(42, EventKind::SyncUp, 1).detail("ok lctr=8");
        assert_eq!(
            ev.render_line(),
            "      42  sync-up            u1     ok lctr=8"
        );
        let anon = Event::new(0, EventKind::Crash, NO_ACTOR);
        assert!(anon.render_line().contains(" - "));
    }

    #[test]
    fn span_suffix_only_renders_when_present() {
        use crate::span::{stage, SpanContext};
        let bare = Event::new(42, EventKind::SyncUp, 1).detail("ok lctr=8");
        let spanned = bare
            .clone()
            .span(SpanContext::root(1, 3).child(stage::SYNC));
        assert!(!bare.render_line().contains("trace="));
        let line = spanned.render_line();
        assert!(line.starts_with(&bare.render_line()), "{line}");
        assert!(
            line.contains("trace=") && line.contains("parent="),
            "{line}"
        );
        // `span_opt(None)` is the identity.
        assert_eq!(bare.clone().span_opt(None), bare);
    }

    #[test]
    fn log_renders_one_line_per_event() {
        let evs = vec![
            Event::new(0, EventKind::OpServed, 0),
            Event::new(1, EventKind::Detection, 2).detail("sync failed"),
        ];
        let log = render_log(&evs);
        assert_eq!(log.lines().count(), 2);
        assert!(log.ends_with('\n'));
    }
}

//! Exporters: OpenMetrics text exposition for [`MetricsSnapshot`]s and
//! Chrome-trace / Perfetto JSON for event timelines.
//!
//! Both renderers are deterministic functions of their input: metric
//! snapshots are name-sorted by construction, and events carry logical
//! timestamps — so two seeded runs export byte-identical artifacts (CI
//! asserts this for E12). Everything is hand-rolled `std` string building;
//! this crate stays dependency-free.

use std::fmt::Write as _;

use crate::event::{Event, EventKind, NO_ACTOR};
use crate::metrics::{MetricValue, MetricsSnapshot};

/// Sanitizes a dot-namespaced metric name into the OpenMetrics grammar
/// (`[a-zA-Z_][a-zA-Z0-9_]*`): every other character becomes `_`.
fn openmetrics_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splits a per-shard routed counter name (`net.shard.{i}.routed`) into its
/// shard index. These flat names stay the in-process registry keys; only
/// the exposition folds them into one labeled series.
fn shard_routed_index(name: &str) -> Option<&str> {
    let idx = name.strip_prefix("net.shard.")?.strip_suffix(".routed")?;
    (!idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit())).then_some(idx)
}

/// Renders a snapshot in OpenMetrics / Prometheus text exposition format.
///
/// Counters expose a `_total` sample, gauges a bare sample, histograms a
/// summary (`_count`, `_sum`, and the p50/p99 quantile upper bounds the
/// snapshot carries). The per-shard `net.shard.{i}.routed` counters are
/// folded into one `net_shard_routed` series labeled `{shard="i"}` —
/// queryable across any shard count instead of N metric names. The output
/// ends with the mandatory `# EOF` line.
pub fn render_openmetrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut routed_header = false;
    for e in &snapshot.entries {
        if let (Some(shard), MetricValue::Counter(v)) = (shard_routed_index(&e.name), &e.value) {
            if !routed_header {
                let _ = writeln!(out, "# TYPE net_shard_routed counter");
                routed_header = true;
            }
            let _ = writeln!(out, "net_shard_routed_total{{shard=\"{shard}\"}} {v}");
            continue;
        }
        let name = openmetrics_name(&e.name);
        match &e.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram {
                count,
                sum,
                p50,
                p99,
            } => {
                let _ = writeln!(out, "# TYPE {name} summary");
                let _ = writeln!(out, "{name}_count {count}");
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {p50}");
                let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {p99}");
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character (`\n`, `\r` and `\t` by name, the rest as
/// `\u00XX`).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a Chrome-trace "complete" event object.
///
/// `ts` is the event's *logical* timestamp (Perfetto renders it as
/// microseconds; the unit is rounds / op indices here — relative order and
/// spacing are what matter). Each process row is a user (`pid` = user + 1,
/// the server and harness render as pid 0's row via [`NO_ACTOR`]), and the
/// span identifiers ride in `args` so a fork's cross-client causality can
/// be read straight off the trace.
fn chrome_event(ev: &Event) -> String {
    let pid = if ev.user == NO_ACTOR {
        0
    } else {
        u64::from(ev.user) + 1
    };
    let mut args = format!("\"detail\": \"{}\"", json_escape(&ev.detail));
    if let Some(ctx) = &ev.span {
        let _ = write!(
            args,
            ", \"trace\": \"{:016x}\", \"span\": \"{:016x}\"",
            ctx.trace.0, ctx.span.0
        );
        if let Some(p) = ctx.parent {
            let _ = write!(args, ", \"parent\": \"{:016x}\"", p.0);
        }
    }
    format!(
        "    {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": 1, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
        ev.kind.label(),
        category(ev.kind),
        ev.t,
        pid,
        pid,
        args,
    )
}

/// Coarse event grouping shown as Perfetto categories.
fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::OpServed | EventKind::ReadServed | EventKind::ProofBuilt => "serve",
        EventKind::Retry | EventKind::JournalHit | EventKind::FaultInjected => "transport",
        EventKind::Deposit | EventKind::MissedDeposit | EventKind::Checkpoint => "deposit",
        EventKind::Crash | EventKind::Restart | EventKind::Recovery => "crash",
        EventKind::SyncTriggered | EventKind::SyncUp | EventKind::Audit => "sync",
        EventKind::DeviationInjected | EventKind::Detection => "verdict",
    }
}

/// How much of a timeline the bounded collectors lost before export: ring
/// overwrites ([`crate::FlightRecorder::overwritten`]) and full-sink drops
/// ([`crate::MemorySink::dropped`]). A rendered trace that silently starts
/// mid-history reads as a complete record; this rides in the document
/// metadata so it cannot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceLoss {
    /// Events overwritten by a flight recorder's ring wrapping.
    pub overwritten: u64,
    /// Events dropped by a bounded sink that filled up.
    pub dropped: u64,
}

/// Renders an event timeline as a Chrome-trace / Perfetto JSON document
/// (the "JSON object format": a `traceEvents` array plus metadata). Open
/// the file in <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn render_chrome_trace(events: &[Event]) -> String {
    render_chrome_trace_with_loss(events, TraceLoss::default())
}

/// [`render_chrome_trace`] with loss accounting: the document's
/// `otherData` block reports how many events the timeline retains and how
/// many the bounded collectors lost (ring overwrites, sink drops), so a
/// truncated trace declares itself.
pub fn render_chrome_trace_with_loss(events: &[Event], loss: TraceLoss) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{\"events_retained\": \"{}\", \"events_overwritten\": \"{}\", \"events_dropped\": \"{}\"}},",
        events.len(),
        loss.overwritten,
        loss.dropped,
    );
    out.push_str("  \"traceEvents\": [\n");
    let rows: Vec<String> = events.iter().map(chrome_event).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::{stage, SpanContext};

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\r\t"), "\\r\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn openmetrics_names_are_sanitized_and_document_terminated() {
        let r = MetricsRegistry::new();
        r.counter("net.server.ops_served").add(3);
        r.gauge("obs.sink.dropped-events").set(2);
        r.histogram("net.server.op_micros").observe(100);
        let text = render_openmetrics(&r.snapshot());
        assert!(
            text.contains("# TYPE net_server_ops_served counter"),
            "{text}"
        );
        assert!(text.contains("net_server_ops_served_total 3"), "{text}");
        assert!(text.contains("obs_sink_dropped_events 2"), "{text}");
        assert!(text.contains("net_server_op_micros_count 1"), "{text}");
        assert!(text.contains("{quantile=\"0.99\"}"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn openmetrics_rejects_leading_digits() {
        assert_eq!(openmetrics_name("9lives"), "_lives");
        assert_eq!(openmetrics_name("a.b-c"), "a_b_c");
        assert_eq!(openmetrics_name(""), "_");
    }

    #[test]
    fn chrome_trace_is_deterministic_and_carries_spans() {
        let root = SpanContext::root(1, 1);
        let events = vec![
            Event::new(0, EventKind::OpServed, 1)
                .detail("ctr=0")
                .span(root.child(stage::SERVER)),
            Event::new(1, EventKind::Detection, 1).detail("say \"no\""),
        ];
        let a = render_chrome_trace(&events);
        let b = render_chrome_trace(&events);
        assert_eq!(a, b, "pure function of its input");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"name\": \"op-served\""));
        assert!(a.contains("\"trace\": "), "{a}");
        assert!(a.contains("\"parent\": "), "{a}");
        assert!(a.contains("say \\\"no\\\""), "strings escaped: {a}");
        // Balanced braces/brackets outside strings.
        let (mut obj, mut arr, mut in_str, mut escd) = (0i64, 0i64, false, false);
        for c in a.chars() {
            if in_str {
                if escd {
                    escd = false;
                } else if c == '\\' {
                    escd = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => obj += 1,
                '}' => obj -= 1,
                '[' => arr += 1,
                ']' => arr -= 1,
                _ => {}
            }
        }
        assert_eq!((obj, arr, in_str), (0, 0, false));
    }

    #[test]
    fn empty_timeline_still_renders_a_valid_document() {
        let doc = render_chrome_trace(&[]);
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn shard_routed_counters_fold_into_one_labeled_series() {
        let r = MetricsRegistry::new();
        r.counter("net.shard.0.routed").add(7);
        r.counter("net.shard.1.routed").add(3);
        r.counter("net.shard.11.routed").add(1);
        r.gauge("net.shard.count").set(3);
        r.counter("net.shard.grove_epochs").add(2);
        let text = render_openmetrics(&r.snapshot());
        assert!(text.contains("# TYPE net_shard_routed counter"), "{text}");
        assert!(
            text.contains("net_shard_routed_total{shard=\"0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("net_shard_routed_total{shard=\"1\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("net_shard_routed_total{shard=\"11\"} 1"),
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE net_shard_routed counter").count(),
            1,
            "one family header for the whole series: {text}"
        );
        // Unlabeled shard metrics keep their flat exposition names.
        assert!(text.contains("net_shard_count 3"), "{text}");
        assert!(text.contains("net_shard_grove_epochs_total 2"), "{text}");
        // Non-index middles never fold.
        assert_eq!(shard_routed_index("net.shard.x.routed"), None);
        assert_eq!(shard_routed_index("net.shard..routed"), None);
        assert_eq!(shard_routed_index("net.shard.3.routed"), Some("3"));
    }

    #[test]
    fn chrome_trace_metadata_declares_collector_loss() {
        let events = vec![Event::new(0, EventKind::OpServed, 1)];
        let doc = render_chrome_trace_with_loss(
            &events,
            TraceLoss {
                overwritten: 12,
                dropped: 5,
            },
        );
        assert!(doc.contains("\"events_retained\": \"1\""), "{doc}");
        assert!(doc.contains("\"events_overwritten\": \"12\""), "{doc}");
        assert!(doc.contains("\"events_dropped\": \"5\""), "{doc}");
        // The lossless wrapper declares zero loss rather than staying
        // silent.
        let plain = render_chrome_trace(&events);
        assert!(plain.contains("\"events_overwritten\": \"0\""), "{plain}");
    }
}

//! E12 — deterministic observability artifacts.
//!
//! A seeded fork-attack simulation exports its flight-recorder timeline as
//! Chrome-trace/Perfetto JSON and its counters as OpenMetrics text. Because
//! events carry logical timestamps and span ids are pure functions of
//! `(user, seq, stage)`, two runs of the same seed must produce
//! **byte-identical** artifacts — the property CI pins. The table also
//! verifies the dump is useful: the detection span links back (via its
//! trace id) to the forked client's served operations.

use tcvs_core::adversary::{ForkServer, Trigger};
use tcvs_core::{FaultPlan, ProtocolConfig, ProtocolKind};
use tcvs_obs::{
    render_chrome_trace_with_loss, render_openmetrics, EventKind, MetricsRegistry, TraceLoss,
    Tracer,
};
use tcvs_sim::{simulate_observed, SimSpec};
use tcvs_workload::{generate, OpMix, WorkloadSpec};

use crate::table::Table;

const FORK_AT: u64 = 20;
const RING_CAP: usize = 256;

fn spec() -> SimSpec {
    SimSpec {
        protocol: ProtocolKind::Two,
        config: ProtocolConfig {
            order: 8,
            k: 8,
            epoch_len: 16,
        },
        n_users: 3,
        mss_height: 7,
        setup_seed: [5; 32],
        final_sync: true,
        faults: FaultPlan::none(),
    }
}

fn workload(n_ops: usize) -> tcvs_workload::Trace {
    generate(&WorkloadSpec {
        n_users: 3,
        n_ops,
        key_space: 32,
        mix: OpMix::write_heavy(),
        seed: 9,
        ..WorkloadSpec::default()
    })
}

/// One seeded fork-attack run, exported. Returns the Perfetto JSON, the
/// OpenMetrics exposition, the flight dump (present iff detected), and
/// whether the detection span shares a trace with a served-op span.
pub fn artifacts(quick: bool) -> (String, String, Option<String>, bool) {
    let s = spec();
    let n_ops = if quick { 60 } else { 120 };
    let t = workload(n_ops);
    let mut server = ForkServer::new(&s.config, Trigger::AtCtr(FORK_AT), &[0]);
    let (tracer, recorder) = Tracer::flight(RING_CAP);
    let report = simulate_observed(&s, &mut server, &t, Some(FORK_AT), &tracer);
    let dump = report.detected().then(|| recorder.render_log());
    let events = recorder.snapshot();
    let linked = events
        .iter()
        .find(|e| e.kind == EventKind::Detection)
        .and_then(|d| d.span)
        .map(|det| {
            events.iter().any(|e| {
                e.kind == EventKind::OpServed && e.span.is_some_and(|sp| sp.trace == det.trace)
            })
        })
        .unwrap_or(false);

    // The same seeded run through a deliberately tiny bounded sink, so the
    // exposition demonstrates the drop counter alongside the ring gauges.
    let (tracer, sink) = Tracer::memory_bounded(32);
    let mut server2 = ForkServer::new(&s.config, Trigger::AtCtr(FORK_AT), &[0]);
    let _ = simulate_observed(&s, &mut server2, &t, Some(FORK_AT), &tracer);

    let registry = MetricsRegistry::new();
    registry
        .counter("sim.ops_executed")
        .add(report.ops_executed);
    registry
        .counter("sim.detections")
        .add(u64::from(report.detected()));
    registry
        .gauge("obs.flight.recorded")
        .set(recorder.recorded() as i64);
    registry
        .gauge("obs.flight.overwritten")
        .set(recorder.overwritten() as i64);
    registry
        .gauge("obs.sink.dropped")
        .set(sink.dropped() as i64);

    (
        render_chrome_trace_with_loss(
            &events,
            TraceLoss {
                overwritten: recorder.overwritten(),
                dropped: sink.dropped(),
            },
        ),
        render_openmetrics(&registry.snapshot()),
        dump,
        linked,
    )
}

/// Runs E12.
pub fn run(quick: bool) -> Vec<Table> {
    let (trace_a, metrics_a, dump_a, linked_a) = artifacts(quick);
    let (trace_b, metrics_b, dump_b, _) = artifacts(quick);

    let verdict = |same: bool| if same { "byte-identical" } else { "DIFFERS" };
    let mut t = Table::new(
        "E12",
        "deterministic observability artifacts: seeded fork attack, two runs compared",
        &["artifact", "bytes", "entries", "across runs", "property"],
    );
    t.row(vec![
        "perfetto trace".into(),
        trace_a.len().to_string(),
        trace_a.matches("\"ph\"").count().to_string(),
        verdict(trace_a == trace_b).into(),
        if linked_a {
            "detection span linked to served op".into()
        } else {
            "DETECTION SPAN UNLINKED".into()
        },
    ]);
    t.row(vec![
        "openmetrics".into(),
        metrics_a.len().to_string(),
        metrics_a.lines().count().to_string(),
        verdict(metrics_a == metrics_b).into(),
        if metrics_a.contains("obs_sink_dropped") {
            "sink drop counter exposed".into()
        } else {
            "DROP COUNTER MISSING".into()
        },
    ]);
    let dump_len = dump_a.as_deref().map_or(0, str::len);
    t.row(vec![
        "flight dump".into(),
        dump_len.to_string(),
        dump_a
            .as_deref()
            .map_or(0, |d| d.lines().count())
            .to_string(),
        verdict(dump_a == dump_b).into(),
        if dump_a.is_some() {
            "dumped on detection".into()
        } else {
            "NO DUMP ON DETECTION".into()
        },
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_byte_identical_and_causally_linked() {
        let (trace_a, metrics_a, dump_a, linked) = artifacts(true);
        let (trace_b, metrics_b, dump_b, _) = artifacts(true);
        assert_eq!(trace_a, trace_b, "Perfetto JSON is seed-deterministic");
        assert_eq!(metrics_a, metrics_b, "OpenMetrics is seed-deterministic");
        assert_eq!(dump_a, dump_b, "flight dump is seed-deterministic");
        assert!(dump_a.is_some(), "fork attack dumps the recorder");
        assert!(linked, "detection span shares the forked op's trace");
        assert!(metrics_a.ends_with("# EOF\n"));
        crate::results::validate_artifact(&trace_a).unwrap();
        crate::results::validate_artifact(&metrics_a).unwrap();
    }

    #[test]
    fn table_reports_clean_verdicts() {
        let tables = run(true);
        let rendered = tables[0].render();
        assert!(rendered.contains("byte-identical"), "{rendered}");
        assert!(!rendered.contains("DIFFERS"), "{rendered}");
        assert!(!rendered.contains("MISSING"), "{rendered}");
        assert!(!rendered.contains("UNLINKED"), "{rendered}");
    }
}

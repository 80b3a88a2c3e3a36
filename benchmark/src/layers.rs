//! Per-layer metrics read off a traced run's spans.
//!
//! Only spans inside the measured window count. Server-side spans find the
//! client span that caused them by `(user, seq)`: the harness's call span
//! on the key-value stacks, the `net.call` span under `Cvs` on the CVS
//! stack.

use std::collections::HashMap;

use crate::stats::quantile;
use crate::trace::{self, Span, Trace, NO_PARENT};

/// What the analysis needs to know about the run.
pub struct Context {
    /// The measured window, in trace-clock nanoseconds.
    pub window: (u64, u64),
    /// Calls are CVS commands (several database operations each).
    pub cvs: bool,
    /// Verified operations per client call (32 for batched windows).
    pub ops_per_call: u64,
    /// The ladder's client-side verification time per call, to take out of
    /// the hop.
    pub client_verify_us: Option<f64>,
}

fn p(values: &mut [u64], q: f64) -> Option<f64> {
    quantile(values, q).map(|v| v as f64)
}

fn us(ns: Option<f64>) -> Option<f64> {
    ns.map(|v| v / 1e3)
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("call") => "client",
        Some("net") => "net-client",
        Some("server") => "server",
        Some("storage") => "storage",
        Some("medium") => "device",
        _ => "other",
    }
}

/// Per-layer metrics by catalogue name. A metric whose spans did not occur
/// is left out (absent, not zero).
pub fn analyze(trace: &Trace, ctx: &Context) -> Vec<(&'static str, f64)> {
    let (w0, w1) = ctx.window;
    let inside = |s: &Span| s.start_ns >= w0 && s.end_ns <= w1;
    let durs = |name: &str| -> Vec<u64> {
        trace
            .named(name)
            .filter(|s| inside(s))
            .map(Span::dur_ns)
            .collect()
    };
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            out.push((name, v));
        }
    };

    // core, from the ServerApi seam.
    put(
        "core.server_get_us",
        us(p(&mut durs(trace::SERVER_GET), 0.5)),
    );
    put(
        "core.server_put_us",
        us(p(&mut durs(trace::SERVER_PUT), 0.5)),
    );
    let mut batch_per_op: Vec<u64> = durs(trace::SERVER_BATCH)
        .into_iter()
        .map(|d| d / ctx.ops_per_call)
        .collect();
    put("core.server_batch_us_per_op", us(p(&mut batch_per_op, 0.5)));
    let handled: Vec<&Span> = trace
        .spans()
        .filter(|s| {
            inside(s)
                && matches!(
                    s.name,
                    trace::SERVER_GET | trace::SERVER_PUT | trace::SERVER_BATCH
                )
        })
        .collect();
    let busy_ns: u64 = trace
        .spans()
        .filter(|s| inside(s) && s.name.starts_with("server."))
        .map(Span::dur_ns)
        .sum();
    if !handled.is_empty() {
        put(
            "core.server_busy_frac",
            Some(busy_ns as f64 / (w1 - w0).max(1) as f64),
        );
        let ops: u64 = handled
            .iter()
            .map(|s| {
                if s.name == trace::SERVER_BATCH {
                    ctx.ops_per_call
                } else {
                    1
                }
            })
            .sum();
        let bytes: u64 = handled.iter().map(|s| s.arg).sum();
        put("core.reply_bytes_per_op", Some(bytes as f64 / ops as f64));
    }

    // net: join each handled request with the client span that caused it.
    let join_on = if ctx.cvs { trace::NET_CALL } else { "call." };
    let client_side: HashMap<(u32, u64), &Span> = trace
        .spans()
        .filter(|s| s.name.starts_with(join_on))
        .map(|s| ((s.user, s.seq), s))
        .collect();
    let (mut waits, mut hops) = (Vec::new(), Vec::new());
    for s in &handled {
        if let Some(c) = client_side.get(&(s.user, s.seq)) {
            waits.push(s.start_ns.saturating_sub(c.start_ns));
            hops.push(c.dur_ns().saturating_sub(s.dur_ns()));
        }
    }
    put("net.request_wait_us", us(p(&mut waits, 0.5)));
    put(
        "net.hop_self_us",
        us(p(&mut hops, 0.5)).map(|h| (h - ctx.client_verify_us.unwrap_or(0.0)).max(0.0)),
    );
    put(
        "net.deposit_wait_us",
        us(p(&mut durs(trace::NET_DEPOSIT_WAIT), 0.5)),
    );

    // storage, from the Storage and Medium seams.
    put(
        "storage.commit_us",
        us(p(&mut durs(trace::STORAGE_COMMIT), 0.5)),
    );
    put(
        "storage.checkpoint_ms",
        p(&mut durs(trace::STORAGE_CHECKPOINT), 0.5).map(|v| v / 1e6),
    );
    put(
        "storage.fsync_us",
        us(p(&mut durs(trace::MEDIUM_SYNC), 0.5)),
    );
    let mut stalled: Vec<u64> = Vec::new();
    for (_, spans) in &trace.threads {
        for s in spans {
            if s.name == trace::STORAGE_CHECKPOINT && inside(s) && s.parent != NO_PARENT {
                stalled.push(spans[s.parent as usize].dur_ns());
            }
        }
    }
    put("storage.checkpoint_stall_us", us(p(&mut stalled, 0.99)));

    // cvs and store: a command's time outside its database operations.
    let parents = trace.parents("server.", join_on);
    let roots = trace.attribute(&parents, "call.", ctx.window, layer_of);
    if ctx.cvs {
        let self_of = |name: &str| -> Vec<u64> {
            roots
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.layer_ns("client"))
                .collect()
        };
        put(
            "cvs.commit_self_us",
            us(p(&mut self_of(trace::CALL_WRITE), 0.5)),
        );
        put(
            "cvs.checkout_self_us",
            us(p(&mut self_of(trace::CALL_READ), 0.5)),
        );
        let db_ops = trace.named(trace::NET_CALL).filter(|s| inside(s)).count();
        if !roots.is_empty() {
            put(
                "cvs.db_ops_per_command",
                Some(db_ops as f64 / roots.len() as f64),
            );
        }
    }

    // How much of a call's median the layers' median self times explain.
    let mut e2e: Vec<u64> = roots.iter().map(|r| r.dur_ns).collect();
    if let Some(e2e_p50) = p(&mut e2e, 0.5).filter(|v| *v > 0.0) {
        let mut layers: Vec<&'static str> = roots
            .iter()
            .flat_map(|r| r.self_ns.iter().map(|(l, _)| *l))
            .collect();
        layers.sort_unstable();
        layers.dedup();
        let explained: f64 = layers
            .iter()
            .filter_map(|layer| {
                let mut v: Vec<u64> = roots.iter().map(|r| r.layer_ns(layer)).collect();
                p(&mut v, 0.5)
            })
            .sum();
        put(
            "trace.unattributed_frac",
            Some((e2e_p50 - explained) / e2e_p50),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, seq: u64, arg: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            user: 0,
            seq,
            arg,
        }
    }

    #[test]
    fn kv_metrics_from_a_hand_made_trace() {
        // Two reads and a write; each server span sits inside its call.
        let client = vec![
            span(trace::CALL_READ, 1_000, 11_000, NO_PARENT, 1, 0),
            span(trace::CALL_READ, 20_000, 30_000, NO_PARENT, 2, 0),
            span(trace::CALL_WRITE, 40_000, 60_000, NO_PARENT, 3, 0),
            // Outside the window: ignored.
            span(trace::CALL_READ, 200_000, 290_000, NO_PARENT, 4, 0),
        ];
        let server = vec![
            span(trace::SERVER_GET, 3_000, 7_000, NO_PARENT, 1, 100),
            span(trace::SERVER_GET, 22_000, 26_000, NO_PARENT, 2, 100),
            span(trace::SERVER_PUT, 44_000, 52_000, NO_PARENT, 3, 400),
            span(trace::SERVER_GET, 210_000, 280_000, NO_PARENT, 4, 100),
        ];
        let trace = Trace {
            threads: vec![("client-0".into(), client), ("server".into(), server)],
        };
        let ctx = Context {
            window: (0, 100_000),
            cvs: false,
            ops_per_call: 1,
            client_verify_us: Some(1.0),
        };
        let m: HashMap<&str, f64> = analyze(&trace, &ctx).into_iter().collect();
        assert_eq!(m["core.server_get_us"], 4.0);
        assert_eq!(m["core.server_put_us"], 8.0);
        assert_eq!(m["core.reply_bytes_per_op"], 200.0);
        assert!((m["core.server_busy_frac"] - 0.16).abs() < 1e-9);
        assert_eq!(m["net.request_wait_us"], 2.0);
        // hop = call − handle = 6 µs (reads) / 12 µs (write): p50 6, minus 1.
        assert_eq!(m["net.hop_self_us"], 5.0);
        // Layers present: client (6/6/12 → 6) and server (4/4/8 → 4); the
        // median call is 10 µs, so nothing is unattributed.
        assert!(m["trace.unattributed_frac"].abs() < 1e-9);
        assert!(!m.contains_key("storage.commit_us"), "idle layer is absent");
        assert!(!m.contains_key("cvs.commit_self_us"));
    }
}

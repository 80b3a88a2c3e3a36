//! Network-layer observability: the metric handles and tracer shared by a
//! server and the clients bound to it.
//!
//! Server-side metrics, recorded wherever a call is served:
//!
//! * `net.server.ops_served` — ops executed (a batch window counts its
//!   ops; a journal hit counts nothing);
//! * `net.server.op_ns` — histogram of the nanoseconds one executed call
//!   spends being served: execution, journal insert, reply send and the
//!   drop of the displaced reply. Nanosecond-grained because a point op
//!   takes 3–4 µs, which a microsecond histogram's power-of-two buckets
//!   split over two buckets;
//! * `net.server.inline_ops` — ops executed on the calling client's own
//!   thread instead of the server thread, counted as `ops_served` counts
//!   them (an inline window counts its ops; a journal hit counts nothing),
//!   so `inline_ops ≤ ops_served` and `inline_ops / ops_served` is a
//!   workload's inline share;
//! * `net.server.journal_hits`, `net.server.journal_evictions`,
//!   `net.server.missed_deposits`, `net.server.crashes`, and
//!   `net.batch.{windows,ops,declined}`.
//!
//! Client-side: `net.client.retries`. The `crypto.lanes` gauge mirrors the
//! compiled SHA-256 lane width.
//!
//! All counters and histograms are lock-free relaxed atomics; the tracer is
//! an `Option` check per emit. The disabled default ([`NetStats::disabled`])
//! makes every probe a no-op, so instrumented and dark builds run the same
//! hot path.

use std::sync::Arc;

use tcvs_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Tracer};

/// Shared observability handles for one threaded deployment. Cloning is
/// cheap (`Arc`s all the way down); clones feed the same registry and sink.
#[derive(Clone)]
pub struct NetStats {
    /// Structured-event tracer. Server-side events carry the server's op
    /// counter as logical time; client-side events carry the per-user
    /// sequence number.
    pub tracer: Tracer,
    registry: Arc<MetricsRegistry>,
    pub(crate) ops_served: Arc<Counter>,
    pub(crate) journal_hits: Arc<Counter>,
    pub(crate) journal_evictions: Arc<Counter>,
    pub(crate) missed_deposits: Arc<Counter>,
    pub(crate) crashes: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) inline_ops: Arc<Counter>,
    pub(crate) op_ns: Arc<Histogram>,
    pub(crate) batch_windows: Arc<Counter>,
    pub(crate) batch_ops: Arc<Counter>,
    pub(crate) batch_declined: Arc<Counter>,
    pub(crate) crypto_lanes: Arc<Gauge>,
}

impl NetStats {
    /// Stats feeding `registry` and emitting events through `tracer`.
    pub fn new(registry: Arc<MetricsRegistry>, tracer: Tracer) -> NetStats {
        let crypto_lanes = registry.gauge("crypto.lanes");
        crypto_lanes.set(tcvs_crypto::sha_lanes() as i64);
        NetStats {
            tracer,
            ops_served: registry.counter("net.server.ops_served"),
            journal_hits: registry.counter("net.server.journal_hits"),
            journal_evictions: registry.counter("net.server.journal_evictions"),
            missed_deposits: registry.counter("net.server.missed_deposits"),
            crashes: registry.counter("net.server.crashes"),
            retries: registry.counter("net.client.retries"),
            inline_ops: registry.counter("net.server.inline_ops"),
            op_ns: registry.histogram("net.server.op_ns"),
            batch_windows: registry.counter("net.batch.windows"),
            batch_ops: registry.counter("net.batch.ops"),
            batch_declined: registry.counter("net.batch.declined"),
            crypto_lanes,
            registry,
        }
    }

    /// Dark instrumentation: a fresh registry nobody reads and no tracer.
    pub fn disabled() -> NetStats {
        NetStats::new(Arc::new(MetricsRegistry::new()), Tracer::disabled())
    }

    /// The registry behind these handles (for registering more metrics or
    /// snapshotting).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The SHA-256 lane width the crypto crate compiled in (mirrored into
    /// the `crypto.lanes` gauge at registration).
    pub fn crypto_lanes(&self) -> i64 {
        self.crypto_lanes.get()
    }
}

impl Default for NetStats {
    fn default() -> NetStats {
        NetStats::disabled()
    }
}

impl std::fmt::Debug for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStats")
            .field("tracer", &self.tracer)
            .field("ops_served", &self.ops_served.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_stats_still_count() {
        let stats = NetStats::disabled();
        stats.ops_served.inc();
        stats.retries.add(3);
        let snap = stats.snapshot();
        assert_eq!(snap.counter("net.server.ops_served"), Some(1));
        assert_eq!(snap.counter("net.client.retries"), Some(3));
        assert!(!stats.tracer.is_enabled());
    }

    #[test]
    fn lane_width_is_exported_as_a_gauge() {
        let stats = NetStats::disabled();
        assert_eq!(
            stats.crypto_lanes.get(),
            tcvs_crypto::sha_lanes() as i64,
            "gauge mirrors the compiled SHA-256 lane width"
        );
        assert!(matches!(
            stats.snapshot().get("crypto.lanes"),
            Some(tcvs_obs::MetricValue::Gauge(v)) if *v >= 1
        ));
    }

    #[test]
    fn clones_share_the_registry() {
        let stats = NetStats::disabled();
        let clone = stats.clone();
        clone.ops_served.inc();
        assert_eq!(stats.snapshot().counter("net.server.ops_served"), Some(1));
    }

    /// Exercised under TSan by the nightly `--lib` job: threads repeatedly
    /// attach fresh `NetStats` handles to a shared flight-recorder ring,
    /// emit through them, and detach (drop), while a reader snapshots the
    /// ring and the registry concurrently. Nothing here may race or tear.
    #[test]
    fn concurrent_attach_detach_races_cleanly_with_snapshots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use tcvs_obs::{Event, EventKind, EventSink, FlightRecorder};

        const WRITERS: u32 = 4;
        const ATTACHES: u64 = 64;

        let ring = Arc::new(FlightRecorder::with_capacity(128));
        let registry = Arc::new(MetricsRegistry::new());
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let ring = Arc::clone(&ring);
            let registry = Arc::clone(&registry);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !done.load(Ordering::Acquire) {
                    let events = ring.snapshot();
                    assert!(events.len() <= 128, "ring bound holds mid-flight");
                    let _ = registry.snapshot();
                    snaps += 1;
                }
                snaps
            })
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|u| {
                let ring = Arc::clone(&ring);
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for i in 0..ATTACHES {
                        // Attach: a fresh stats handle onto the shared ring.
                        let tracer = Tracer::to_sink(Arc::clone(&ring) as Arc<dyn EventSink>);
                        let stats = NetStats::new(Arc::clone(&registry), tracer);
                        stats.ops_served.inc();
                        stats.tracer.emit(|| Event::new(i, EventKind::OpServed, u));
                        // Detach: `stats` (and its tracer) drop here.
                    }
                })
            })
            .collect();

        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();

        let expected = u64::from(WRITERS) * ATTACHES;
        assert_eq!(ring.recorded(), expected, "no emit was lost or doubled");
        assert_eq!(
            registry.snapshot().counter("net.server.ops_served"),
            Some(expected)
        );
        let tail = ring.snapshot();
        assert_eq!(tail.len(), 128, "a full run fills the ring exactly");
    }
}

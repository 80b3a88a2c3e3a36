//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`, the share of
/// the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports all of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A metric of a single layer, reported with `--trace 1`; not gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layers are the crates. A metric whose layer is idle on a workload is
/// absent there (printed `absent`, `null` in `results.json`, 0 on the
/// machine-readable line, which must carry every name).
pub const PER_LAYER: [PerLayer; 48] = [
    layer("crypto.sha256_block_ns", "ns", Lower),
    layer("crypto.sha256_many_block_ns", "ns", Lower),
    layer("crypto.mss_sign_us", "us", Lower),
    layer("crypto.mss_verify_us", "us", Lower),
    layer("crypto.mss_keygen_s", "s", Lower),
    layer("merkle.prove_point_us", "us", Lower),
    layer("merkle.verify_point_us", "us", Lower),
    layer("merkle.apply_put_us", "us", Lower),
    layer("merkle.prove_batch_us_per_op", "us", Lower),
    layer("merkle.verify_batch_us_per_op", "us", Lower),
    layer("merkle.vo_bytes_per_op", "B", Lower),
    layer("merkle.batch_bytes_per_op", "B", Lower),
    layer("merkle.vo_nodes_per_op", "count", Lower),
    layer("merkle.vo_encode_us", "us", Lower),
    layer("merkle.vo_decode_us", "us", Lower),
    layer("merkle.snapshot_clone_ns", "ns", Lower),
    layer("core.server_get_us", "us", Lower),
    layer("core.server_put_us", "us", Lower),
    layer("core.server_batch_us_per_op", "us", Lower),
    layer("core.server_busy_frac", "frac", Lower),
    layer("core.reply_bytes_per_op", "B", Lower),
    layer("core.client2_verify_us", "us", Lower),
    layer("core.client2_batch_verify_us_per_op", "us", Lower),
    layer("core.client1_verify_sign_us", "us", Lower),
    layer("core.sync_up_us", "us", Lower),
    layer("net.request_wait_us", "us", Lower),
    layer("net.hop_self_us", "us", Lower),
    layer("net.deposit_wait_us", "us", Lower),
    layer("net.batch_accept_ratio", "frac", Higher),
    layer("net.retries", "count", Lower),
    layer("net.journal_evictions", "count", Lower),
    layer("net.snapshot_publishes_per_write", "count", Lower),
    layer("storage.commit_us", "us", Lower),
    layer("storage.checkpoint_ms", "ms", Lower),
    layer("storage.checkpoint_stall_us", "us", Lower),
    layer("storage.fsync_us", "us", Lower),
    layer("storage.fsyncs_per_op", "count", Lower),
    layer("storage.append_bytes_per_op", "B", Lower),
    layer("storage.write_amp", "frac", Lower),
    layer("storage.disk_bytes_per_user_byte", "frac", Lower),
    layer("storage.recovery_s", "s", Lower),
    layer("cvs.commit_self_us", "us", Lower),
    layer("cvs.checkout_self_us", "us", Lower),
    layer("cvs.db_ops_per_command", "count", Lower),
    layer("store.diff_us", "us", Lower),
    layer("store.value_bytes_p50", "B", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.unattributed_frac", "frac", Lower),
];

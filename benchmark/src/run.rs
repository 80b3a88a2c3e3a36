//! One pass of one workload: the closed loop, its output checks, and the
//! metrics it yields.
//!
//! The **untraced** pass gives the end-to-end metrics: canaries, several
//! timed set-ups, a warm-up, then the measured phase cut into ten equal
//! time segments. The **traced** pass gives the per-layer metrics: a short
//! untraced reference, the same loop with the decorators in, then the
//! single-threaded ladder.

use std::path::Path;
use std::time::Instant;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::layers;
use crate::stats::{median, over_segments, quantile, SegmentStat};
use crate::sut::{self, Check, Client, Deployment, Finish, Ladder, Plan, Preload, USERS};
use crate::trace::{self, Sink};
use crate::workloads::{Driver, Script, Workload};

/// Segments the measured phase is cut into.
const SEGMENTS: usize = 10;
/// Warm-up before the measured phase, as a share of it.
const WARMUP_FRAC: f64 = 0.05;
/// Set-ups timed per untraced pass; the median is reported.
const SETUP_REPS: usize = 3;
/// Spans written to the trace file at most.
const TRACE_FILE_SPANS: usize = 200_000;

/// What to run.
pub struct PassArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub traced: bool,
    /// Small sizes and a single set-up, for tests.
    pub quick: bool,
    /// Durable workloads keep their data under this directory.
    pub data_dir: &'a Path,
    /// The traced pass writes `trace-<workload>.json` here.
    pub out_dir: &'a Path,
}

/// What one pass found.
pub struct PassResult {
    /// Every output check and canary passed and no call failed.
    pub correct: bool,
    /// Client calls made plus checks evaluated.
    pub attempted: u64,
    /// Calls that failed, were refused, raised a false alarm or returned a
    /// wrong answer, plus checks that did not hold.
    pub failed: u64,
    /// Every metric of the pass's family by catalogue name, in catalogue
    /// order; `None` where the layer is idle on this workload.
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    pub checks: Vec<Check>,
    /// Human-readable detail: segment min/max, sample counts.
    pub notes: Vec<String>,
}

const WRITE_FLAG: u32 = 1 << 31;

/// One client thread's record of the loop.
struct ThreadOut {
    /// Completion time of every call, trace clock.
    end_ns: Vec<u64>,
    /// Latency of every call in ns, [`WRITE_FLAG`] set on writes.
    lat: Vec<u32>,
    failed_calls: Vec<String>,
    wrong_answers: u64,
}

/// The closed loop: each client issues its next request only after the
/// previous one returned verified, until `deadline_ns` or the end of its
/// script. Latencies go to per-thread preallocated buffers.
fn closed_loop(
    clients: Vec<Box<dyn Client + Send>>,
    drivers: Vec<Driver<'_>>,
    calls_per_user: usize,
    deadline_ns: u64,
    sink: Option<&Sink>,
) -> Vec<(Box<dyn Client + Send>, ThreadOut)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(drivers)
            .enumerate()
            .map(|(user, (mut client, mut driver))| {
                s.spawn(move || {
                    let user = user as u32;
                    let mut out = ThreadOut {
                        end_ns: Vec::with_capacity(calls_per_user),
                        lat: Vec::with_capacity(calls_per_user),
                        failed_calls: Vec::new(),
                        wrong_answers: 0,
                    };
                    if sink.is_some() {
                        trace::reserve(calls_per_user);
                    }
                    let mut seq = 0u64;
                    while trace::now_ns() < deadline_ns {
                        let Some(req) = driver.next_request() else {
                            break;
                        };
                        seq += 1;
                        let write = req.is_write();
                        let (t0, result, t1);
                        if sink.is_some() {
                            let name = if write {
                                trace::CALL_WRITE
                            } else {
                                trace::CALL_READ
                            };
                            let (span, start) = trace::begin(name, user, seq);
                            result = client.call(&req);
                            t1 = trace::end(span, 0);
                            t0 = start;
                        } else {
                            t0 = trace::now_ns();
                            result = client.call(&req);
                            t1 = trace::now_ns();
                        }
                        let lat = (t1 - t0).min((WRITE_FLAG - 1) as u64) as u32;
                        out.end_ns.push(t1);
                        out.lat.push(if write { lat | WRITE_FLAG } else { lat });
                        match result {
                            Ok(reply) => {
                                if !driver.check(&reply) {
                                    out.wrong_answers += 1;
                                }
                            }
                            Err(f) => {
                                // A failed session is over: a deviation
                                // poisons it, a dead server cannot answer.
                                out.failed_calls.push(f.what);
                                break;
                            }
                        }
                    }
                    if let Some(sink) = sink {
                        sink.flush_thread(&format!("client-{user}"));
                    }
                    (client, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Timing statistics of the measured window.
struct Timing {
    ops_per_s: Option<SegmentStat>,
    read_p50: Option<SegmentStat>,
    read_p99: Option<SegmentStat>,
    write_p50: Option<SegmentStat>,
    write_p99: Option<SegmentStat>,
    reads: usize,
    writes: usize,
    /// Throughput of each segment in turn, to show drift within a run.
    rate_per_segment: Vec<Option<f64>>,
}

/// Cuts `window` into [`SEGMENTS`] equal time segments and takes each
/// statistic per segment; the reported value is the median over segments.
fn timing(outs: &[ThreadOut], window: (u64, u64), ops_per_call: u64) -> Timing {
    let (w0, w1) = window;
    let seg_ns = ((w1 - w0) / SEGMENTS as u64).max(1);
    let mut reads: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    let mut writes: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    for out in outs {
        for (&end, &lat) in out.end_ns.iter().zip(&out.lat) {
            if end < w0 || end >= w0 + seg_ns * SEGMENTS as u64 {
                continue;
            }
            let seg = ((end - w0) / seg_ns) as usize;
            if lat & WRITE_FLAG != 0 {
                writes[seg].push((lat & !WRITE_FLAG) as u64);
            } else {
                reads[seg].push(lat as u64);
            }
        }
    }
    let per_segment = |f: &dyn Fn(usize) -> Option<f64>| -> Option<SegmentStat> {
        over_segments(&(0..SEGMENTS).map(f).collect::<Vec<_>>())
    };
    let rate = |seg: usize| {
        let calls = reads[seg].len() + writes[seg].len();
        (calls > 0).then(|| (calls as u64 * ops_per_call) as f64 / (seg_ns as f64 / 1e9))
    };
    let q = |samples: &[Vec<u64>], seg: usize, q: f64| {
        quantile(&mut samples[seg].clone(), q).map(|ns| ns as f64 / 1e3)
    };
    Timing {
        ops_per_s: per_segment(&rate),
        read_p50: per_segment(&|s| q(&reads, s, 0.5)),
        read_p99: per_segment(&|s| q(&reads, s, 0.99)),
        write_p50: per_segment(&|s| q(&writes, s, 0.5)),
        write_p99: per_segment(&|s| q(&writes, s, 0.99)),
        reads: reads.iter().map(Vec::len).sum(),
        writes: writes.iter().map(Vec::len).sum(),
        rate_per_segment: (0..SEGMENTS).map(rate).collect(),
    }
}

/// Peak resident set of this process, from the kernel's own high-water
/// mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One measured run of the loop against a fresh deployment.
struct Measured {
    outs: Vec<ThreadOut>,
    window: (u64, u64),
    finish: Finish,
    keygen_s: Vec<f64>,
}

fn measure(
    mut deployment: Deployment,
    script: &Script,
    seconds: f64,
    warmup_s: f64,
    sink: Option<&Sink>,
) -> Measured {
    let keygen_s = deployment.keygen_s.clone();
    let origin = trace::now_ns();
    let w0 = origin + (warmup_s * 1e9) as u64;
    let w1 = w0 + (seconds * 1e9) as u64;
    let (clients, outs) = closed_loop(
        deployment.take_clients(),
        script.drivers(),
        script.calls_per_user(),
        w1,
        sink,
    )
    .into_iter()
    .unzip();
    let finish = deployment.finish(clients);
    Measured {
        outs,
        window: (w0, w1),
        finish,
        keygen_s,
    }
}

/// The output checks every measured run must pass.
fn output_checks(m: &Measured, checks: &mut Vec<Check>, label: &str) {
    let failed: Vec<&String> = m.outs.iter().flat_map(|o| &o.failed_calls).collect();
    checks.push(Check::new(
        format!(
            "{label}: no call failed, was refused or raised an alarm{}",
            failed.first().map_or(String::new(), |f| format!(" ({f})"))
        ),
        failed.is_empty(),
    ));
    checks.push(Check::new(
        format!("{label}: every reply matches the client's local model"),
        m.outs.iter().all(|o| o.wrong_answers == 0),
    ));
    checks.push(Check::new(
        format!("{label}: final sync-up across both users passes"),
        m.finish.sync_ok,
    ));
    if let Some(r) = &m.finish.reopened {
        checks.push(Check::new(
            format!("{label}: re-opened data directory holds the last acknowledged state"),
            r.root_matches,
        ));
        checks.push(Check::new(
            format!(
                "{label}: checkpoint plus {} replayed records cover every acknowledged op",
                r.records_replayed
            ),
            r.covers_acknowledged,
        ));
    }
}

fn seg_note(name: &str, unit: &str, s: &Option<SegmentStat>) -> String {
    match s {
        Some(s) => format!(
            "{name}: median {:.3} {unit} over {} segments (min {:.3}, max {:.3})",
            s.median, s.segments, s.min, s.max
        ),
        None => format!("{name}: no samples"),
    }
}

fn tally(
    checks: Vec<Check>,
    measured: &[&Measured],
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    notes: Vec<String>,
) -> PassResult {
    let calls: u64 = measured
        .iter()
        .flat_map(|m| &m.outs)
        .map(|o| o.lat.len() as u64)
        .sum();
    let bad_calls: u64 = measured
        .iter()
        .flat_map(|m| &m.outs)
        .map(|o| o.failed_calls.len() as u64 + o.wrong_answers)
        .sum();
    let bad_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    PassResult {
        correct: bad_checks == 0 && bad_calls == 0,
        attempted: calls + checks.len() as u64,
        failed: bad_calls + bad_checks,
        metrics,
        checks,
        notes,
    }
}

fn untraced(args: &PassArgs<'_>, plan: &Plan) -> PassResult {
    let w = args.workload;
    let mut checks = sut::canary(plan.stack);

    // Set-up, several times over; the last one is measured.
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((_, deployment)) = last.take() {
            discard(deployment);
        }
        let t = Instant::now();
        let script = w.script(args.seed, args.quick);
        let deployment = sut::deploy(plan, None);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((script, deployment));
    }
    let (script, deployment) = last.expect("at least one set-up");

    let m = measure(
        deployment,
        &script,
        args.seconds,
        args.seconds * WARMUP_FRAC,
        None,
    );
    output_checks(&m, &mut checks, "run");
    let t = timing(&m.outs, m.window, w.ops_per_call());
    let value = |name: &str| -> Option<f64> {
        match name {
            "setup_s" => median(&setup_s),
            "ops_per_s" => t.ops_per_s.map(|s| s.median),
            "read_p50_us" => t.read_p50.map(|s| s.median),
            "read_p99_us" => t.read_p99.map(|s| s.median),
            "write_p50_us" => t.write_p50.map(|s| s.median),
            "write_p99_us" => t.write_p99.map(|s| s.median),
            "peak_rss_mb" => peak_rss_mb(),
            _ => None,
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect();
    let notes = vec![
        format!(
            "script {:016x}, {} calls per client at most; closed loop, {USERS} clients, {} cores",
            script.hash.0,
            script.calls_per_user(),
            std::thread::available_parallelism().map_or(0, usize::from),
        ),
        format!(
            "measured {} reads and {} writes in {:.1} s after {:.2} s warm-up; set-ups: {}",
            t.reads,
            t.writes,
            args.seconds,
            args.seconds * WARMUP_FRAC,
            setup_s
                .iter()
                .map(|s| format!("{s:.3} s"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        seg_note("ops_per_s", "1/s", &t.ops_per_s),
        format!(
            "ops_per_s by segment: {}",
            t.rate_per_segment
                .iter()
                .map(|r| r.map_or("-".into(), |r| format!("{r:.0}")))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        seg_note("read_p50_us", "us", &t.read_p50),
        seg_note("read_p99_us", "us", &t.read_p99),
        seg_note("write_p50_us", "us", &t.write_p50),
        seg_note("write_p99_us", "us", &t.write_p99),
    ];
    tally(checks, &[&m], metrics, notes)
}

/// Tears down a deployment that was set up only to be timed.
fn discard(mut deployment: Deployment) {
    let clients = deployment.take_clients();
    deployment.finish(clients);
}

/// Calls each user replays through the ladder.
fn ladder_calls(w: &Workload, quick: bool) -> usize {
    let full = if w.is_cvs() {
        400
    } else if w.ops_per_call() > 1 {
        150
    } else {
        1500
    };
    if quick {
        full / 10
    } else {
        full
    }
}

fn traced(args: &PassArgs<'_>, plan: &Plan) -> PassResult {
    let w = args.workload;
    let mut checks = sut::canary(plan.stack);
    let script = w.script(args.seed, args.quick);
    let warmup = args.seconds * WARMUP_FRAC;

    // A short untraced reference on an identical deployment, so that the
    // cost of tracing is measured and not assumed.
    let reference = measure(
        sut::deploy(plan, None),
        &script,
        args.seconds * 0.25,
        warmup,
        None,
    );
    output_checks(&reference, &mut checks, "reference");
    let ref_rate = timing(&reference.outs, reference.window, w.ops_per_call()).ops_per_s;

    let sink = Sink::new();
    let m = measure(
        sut::deploy(plan, Some(&sink)),
        &script,
        args.seconds * 0.5,
        warmup,
        Some(&sink),
    );
    output_checks(&m, &mut checks, "traced run");
    let traced_rate = timing(&m.outs, m.window, w.ops_per_call()).ops_per_s;
    let spans = sink.drain();

    // The ladder: the same requests, single-threaded, through the public
    // functions under the net clients.
    let mut ladder = Ladder::new(plan);
    let mut drivers = script.drivers();
    let mut ladder_ok = true;
    'replay: for _ in 0..ladder_calls(&w, args.quick).min(ladder.budget()) {
        for (user, driver) in drivers.iter_mut().enumerate() {
            let Some(req) = driver.next_request() else {
                break 'replay;
            };
            match ladder.call(user as u32, &req) {
                Ok(reply) => ladder_ok &= driver.check(&reply),
                Err(_) => {
                    ladder_ok = false;
                    break 'replay;
                }
            }
        }
    }
    let (ladder_metrics, ladder_sync) = ladder.finish();
    checks.push(Check::new(
        "ladder: every reply matches the model and the sync-up passes",
        ladder_ok && ladder_sync,
    ));

    let mut found: Vec<(&'static str, f64)> = ladder_metrics;
    let lookup = |found: &[(&'static str, f64)], name: &str| {
        found.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    };
    let client_verify_us = lookup(&found, "core.client2_verify_us")
        .or(lookup(&found, "core.client1_verify_sign_us"))
        .or(lookup(&found, "core.client2_batch_verify_us_per_op")
            .map(|v| v * w.ops_per_call() as f64));
    found.extend(layers::analyze(
        &spans,
        &layers::Context {
            window: m.window,
            cvs: w.is_cvs(),
            ops_per_call: w.ops_per_call(),
            client_verify_us,
        },
    ));

    if let Some(net) = m.finish.net {
        let windows = net.batch_windows + net.batch_declined;
        if windows > 0 {
            found.push((
                "net.batch_accept_ratio",
                net.batch_windows as f64 / windows as f64,
            ));
        }
        found.push(("net.retries", net.retries as f64));
        found.push(("net.journal_evictions", net.journal_evictions as f64));
        // Every write the deployment served, the import included.
        let imported = match plan.preload {
            Preload::Files { files, .. } => files as u64,
            Preload::Values { .. } => 0,
        };
        let writes: u64 = imported
            + m.outs
                .iter()
                .flat_map(|o| &o.lat)
                .filter(|lat| *lat & WRITE_FLAG != 0)
                .count() as u64
                * w.ops_per_call();
        if writes > 0 {
            found.push((
                "net.snapshot_publishes_per_write",
                net.snapshot_publishes as f64 / writes as f64,
            ));
        }
    }
    if let Some(r) = &m.finish.reopened {
        found.push(("storage.recovery_s", r.recovery_s));
    }
    let keygen: Vec<f64> = reference
        .keygen_s
        .iter()
        .chain(&m.keygen_s)
        .copied()
        .collect();
    if let Some(s) = median(&keygen) {
        found.push(("crypto.mss_keygen_s", s));
    }
    if let (Some(r), Some(t)) = (ref_rate, traced_rate) {
        found.push(("trace.overhead_frac", 1.0 - t.median / r.median));
    }

    let trace_path = args.out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(args.out_dir)
        .and_then(|()| std::fs::File::create(&trace_path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            spans.write_json(&mut out, TRACE_FILE_SPANS)?;
            std::io::Write::flush(&mut out)
        });
    checks.push(Check::new(
        format!("trace written to {}", trace_path.display()),
        written.is_ok(),
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|l| (l.name, l.unit, lookup(&found, l.name)))
        .collect();
    let notes = vec![
        format!(
            "script {:016x}; {} spans from {} threads",
            script.hash.0,
            spans.spans().count(),
            spans.threads.len()
        ),
        seg_note("untraced reference ops_per_s", "1/s", &ref_rate),
        seg_note("traced ops_per_s", "1/s", &traced_rate),
    ];
    tally(checks, &[&reference, &m], metrics, notes)
}

/// Runs one pass.
pub fn run_pass(args: &PassArgs<'_>) -> PassResult {
    let plan = args.workload.plan(args.quick, args.data_dir);
    if args.traced {
        traced(args, &plan)
    } else {
        untraced(args, &plan)
    }
}

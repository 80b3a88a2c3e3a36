//! Command line of the trusted-cvs benchmark.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   pass of one workload in this process and prints, as the last line of
//!   standard output, one JSON object with the pass's metrics.
//! * `run` (or no `--trace`) runs the whole set: every workload in a child
//!   process of its own (clean allocator, true peak RSS), untraced then
//!   traced, and writes `out/results.json`. `--aa <n>` repeats the set `n`
//!   times on the same build and seed and holds every end-to-end metric's
//!   spread against its bound.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tcvs_benchmark::catalogue::END_TO_END;
use tcvs_benchmark::json::{self, Json};
use tcvs_benchmark::run::{run_pass, PassArgs, PassResult};
use tcvs_benchmark::stats::{median, relative_spread};
use tcvs_benchmark::workloads::{self, Workload};

const USAGE: &str = "usage: tcvs-benchmark [run] [--workload <name>] [--seed <u64>] [--seconds <n>]
                      [--trace <0|1>] [--quick] [--aa <n>] [--data-dir <dir>]

  --workload <name>  one of: p2-point-read, p2-batch-write, p1-signed, cvs-durable-team
  --seed <u64>       seed of the generated inputs (default 1)
  --seconds <n>      length of the measured phase (default 10; 0.4 with --quick)
  --trace <0|1>      run one pass in this process: 0 = end-to-end metrics,
                     1 = per-layer metrics; needs --workload
  --quick            small sizes, for tests: the whole set in under 10 s
  --aa <n>           run the set n times, print each metric's spread against
                     its bound, fail if any end-to-end metric is outside
  --data-dir <dir>   where the durable workload keeps its data (default out/data)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    aa: Option<usize>,
    data_dir: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        aa: None,
        data_dir: None,
    };
    let mut it = args.iter().peekable();
    if it.peek().is_some_and(|a| a.as_str() == "run") {
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => cli.quick = true,
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if !(2..=20).contains(&n) {
                    return Err("--aa takes 2 to 20 repetitions".into());
                }
                cli.aa = Some(n);
            }
            "--data-dir" => cli.data_dir = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    if cli.trace.is_some() && cli.aa.is_some() {
        return Err("--aa runs the whole set; leave out --trace".into());
    }
    Ok(cli)
}

/// The benchmark's own output directory, beside its manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn seconds(cli: &Cli) -> f64 {
    cli.seconds.unwrap_or(if cli.quick { 0.4 } else { 10.0 })
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every metric of the pass's family present. A
/// metric that is absent on this workload reads 0 here.
fn result_line(r: &PassResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v.unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn print_pass(w: &Workload, cli: &Cli, r: &PassResult) {
    println!(
        "== {} · seed {} · {} s · {} ==",
        w.name,
        cli.seed,
        seconds(cli),
        if cli.trace == Some(true) {
            "traced"
        } else {
            "untraced"
        }
    );
    for note in &r.notes {
        println!("  {note}");
    }
    for c in &r.checks {
        println!("  [{}] {}", if c.ok { "ok" } else { "FAILED" }, c.name);
    }
    for (name, unit, v) in &r.metrics {
        match v {
            Some(v) => println!("  {name:<40} {v:>16.4} {unit}"),
            None => println!(
                "  {name:<40} {:>16} (layer idle on this workload)",
                "absent"
            ),
        }
    }
    let absent: Vec<&str> = r
        .metrics
        .iter()
        .filter(|(_, _, v)| v.is_none())
        .map(|(n, _, _)| *n)
        .collect();
    println!("absent: {}", absent.join(","));
}

fn single_pass(cli: &Cli, w: Workload, traced: bool) -> ExitCode {
    let out = out_dir();
    let data_dir = cli.data_dir.clone().unwrap_or_else(|| out.join("data"));
    let result = run_pass(&PassArgs {
        workload: w,
        seed: cli.seed,
        seconds: seconds(cli),
        traced,
        quick: cli.quick,
        data_dir: &data_dir,
        out_dir: &out,
    });
    print_pass(&w, cli, &result);
    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child pass as the orchestrator sees it.
struct ChildPass {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)`; `None` for metrics the child listed as absent.
    metrics: Vec<(String, String, Option<f64>)>,
}

fn child_pass(cli: &Cli, w: &Workload, traced: bool) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds(cli).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    if let Some(d) = &cli.data_dir {
        cmd.arg("--data-dir").arg(d);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The child's own report, indented under ours.
    for line in stdout.lines() {
        if !line.starts_with('{') && !line.starts_with("absent:") {
            println!("  {line}");
        }
    }
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let doc = json::parse(last).map_err(|e| {
        format!(
            "unreadable result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let absent: Vec<&str> = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("absent: "))
        .map_or(Vec::new(), |l| l.split(',').collect());
    let field = |k: &str| doc.get(k).ok_or(format!("result line lacks `{k}`"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (
                name.clone(),
                unit.to_string(),
                value.filter(|_| !absent.contains(&name.as_str())),
            )
        })
        .collect();
    let pass = ChildPass {
        correct: field("correct")?.as_bool().unwrap_or(false) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    };
    Ok(pass)
}

fn metrics_json(metrics: &[(String, String, Option<f64>)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(name),
                v.map_or("null".into(), number),
                json::escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One repetition of the set: `(workload, untraced, traced)` per workload.
type SetResult = Vec<(Workload, ChildPass, ChildPass)>;

fn run_set(cli: &Cli, set: &[Workload]) -> Result<SetResult, String> {
    let mut results = Vec::new();
    for w in set {
        println!("-- {}: {}", w.name, w.why);
        let untraced = child_pass(cli, w, false).map_err(|e| format!("{}: {e}", w.name))?;
        let traced = child_pass(cli, w, true).map_err(|e| format!("{}: {e}", w.name))?;
        results.push((*w, untraced, traced));
    }
    Ok(results)
}

fn write_results(cli: &Cli, reps: &[SetResult]) -> std::io::Result<PathBuf> {
    let runs: Vec<String> = reps
        .iter()
        .enumerate()
        .flat_map(|(rep, set)| {
            set.iter().map(move |(w, u, t)| {
                format!(
                    "{{\"workload\": \"{}\", \"repetition\": {rep}, \"correct\": {}, \
                     \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                    w.name,
                    u.correct && t.correct,
                    u.attempted + t.attempted,
                    u.failed + t.failed,
                    metrics_json(&u.metrics),
                    metrics_json(&t.metrics)
                )
            })
        })
        .collect();
    let doc = format!(
        "{{\"schema\": \"tcvs-benchmark-results/v1\", \"seed\": {}, \"seconds\": {}, \
         \"quick\": {}, \"clients\": 2, \"cores\": {},\n \"runs\": [\n  {}\n ]}}\n",
        cli.seed,
        seconds(cli),
        cli.quick,
        std::thread::available_parallelism().map_or(0, usize::from),
        runs.join(",\n  ")
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("results.json");
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// Prints, per workload × end-to-end metric, the spread of the repetitions
/// against the metric's bound; true iff every metric is inside.
fn aa_report(reps: &[SetResult]) -> bool {
    println!(
        "== A/A: {} repetitions, same build, same seed ==",
        reps.len()
    );
    println!(
        "{:<18} {:<14} {:>14} {:>10} {:>8}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut inside = true;
    for (i, (w, _, _)) in reps[0].iter().enumerate() {
        for m in &END_TO_END {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|set| {
                    set[i]
                        .1
                        .metrics
                        .iter()
                        .find(|(n, _, _)| n == m.name)
                        .and_then(|(_, _, v)| *v)
                })
                .collect();
            let Some(mid) = median(&values).filter(|_| values.len() == reps.len()) else {
                println!("{:<18} {:<14} missing in some repetition", w.name, m.name);
                inside = false;
                continue;
            };
            // The same spread the acceptance rule uses: first to third
            // quartile, as a share of the median.
            let spread = relative_spread(&values).unwrap_or(0.0);
            let ok = spread <= m.bound;
            inside &= ok;
            println!(
                "{:<18} {:<14} {:>14.4} {:>9.2}% {:>7.0}%  {} ({} is better)",
                w.name,
                m.name,
                mid,
                spread * 100.0,
                m.bound * 100.0,
                if ok { "inside" } else { "OUTSIDE" },
                m.better.as_str()
            );
        }
    }
    inside
}

fn orchestrate(cli: &Cli) -> ExitCode {
    let set: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => workloads::ALL.to_vec(),
    };
    let mut reps = Vec::new();
    for rep in 0..cli.aa.unwrap_or(1) {
        if cli.aa.is_some() {
            println!("== repetition {} ==", rep + 1);
        }
        match run_set(cli, &set) {
            Ok(r) => reps.push(r),
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match write_results(cli, &reps) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = reps
        .iter()
        .flatten()
        .all(|(_, u, t)| u.correct && t.correct);
    if !correct {
        eprintln!("benchmark failed: an output check or canary did not hold (see above)");
    }
    let steady = cli.aa.is_none() || aa_report(&reps);
    if correct && steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (cli.trace, cli.workload) {
        (Some(traced), Some(w)) => single_pass(&cli, w, traced),
        _ => orchestrate(&cli),
    }
}

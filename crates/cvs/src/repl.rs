//! A scriptable command interpreter for trusted-cvs: the engine behind the
//! `tcvs` binary. Commands run against an in-process server (honest or
//! adversarial) through per-user verified sessions, so the whole protocol
//! stack is exercised interactively.
//!
//! ```text
//! tcvs> user alice
//! tcvs> add Common.h "#pragma once"
//! tcvs> commit Common.h "#pragma once\n#define V 2" -m "bump"
//! tcvs> log Common.h
//! tcvs> sync
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use tcvs_obs::{
    render_chrome_trace_with_loss, render_openmetrics, FlightRecorder, MetricsRegistry, TraceLoss,
    Tracer, FLIGHT_RECORDER_DEFAULT_CAP,
};

use tcvs_core::adversary::{
    CounterSkipServer, DropServer, ForkServer, LieServer, RollbackServer, TamperServer, Trigger,
};
use tcvs_core::{
    Client2, HonestServer, Op, OpResult, Protocol, ProtocolConfig, ServerApi, SyncShare, UserId,
};
use tcvs_merkle::MerkleTree;
use tcvs_store::from_lines;

use crate::client::{Cvs, WorkingFile};
use crate::error::CvsError;
use crate::session::VerifiedDb;

/// The interpreter: one shared server, one verified session per user.
pub struct Repl {
    server: Box<dyn ServerApi>,
    config: ProtocolConfig,
    root0: tcvs_core::Digest,
    clients: BTreeMap<String, (UserId, Client2)>,
    current: Option<String>,
    next_user_id: UserId,
    round: u64,
    stamp: u64,
    /// Set once any session detects deviation; all further ops refuse.
    poisoned: bool,
    /// Observability, present after [`Repl::enable_metrics`]: the registry
    /// behind the `metrics` command, the tracer handed to every client, and
    /// the flight-recorder ring the clients' protocol events land in —
    /// bounded memory no matter how long the session runs.
    obs: Option<ReplObs>,
}

struct ReplObs {
    registry: Arc<MetricsRegistry>,
    tracer: Tracer,
    recorder: Arc<FlightRecorder>,
}

impl ReplObs {
    /// Mirrors the flight-recorder counters into gauges so snapshots (text,
    /// OpenMetrics) show how much of the timeline the ring still holds.
    fn sync_ring_gauges(&self) {
        self.registry
            .gauge("obs.flight.recorded")
            .set(self.recorder.recorded() as i64);
        self.registry
            .gauge("obs.flight.overwritten")
            .set(self.recorder.overwritten() as i64);
    }
}

/// A borrowed session for one command: routes through the REPL's server.
struct ReplSession<'a> {
    server: &'a mut dyn ServerApi,
    client: &'a mut Client2,
    round: &'a mut u64,
}

impl VerifiedDb for ReplSession<'_> {
    fn execute(&mut self, op: &Op) -> Result<OpResult, crate::CvsError> {
        let resp = self.server.handle_op(self.client.user(), op, *self.round);
        *self.round += 1;
        Ok(self.client.handle_response(op, &resp)?)
    }
}

impl Repl {
    /// A REPL over an honest server.
    pub fn new() -> Repl {
        let config = ProtocolConfig::default();
        Repl::with_server(Box::new(HonestServer::new(&config)), config)
    }

    /// A REPL over any server implementation.
    pub fn with_server(server: Box<dyn ServerApi>, config: ProtocolConfig) -> Repl {
        Repl {
            server,
            config,
            root0: MerkleTree::with_order(config.order).root_digest(),
            clients: BTreeMap::new(),
            current: None,
            next_user_id: 0,
            round: 0,
            stamp: 0,
            poisoned: false,
            obs: None,
        }
    }

    /// Turns on observability (the `tcvs --metrics` flag): every session's
    /// protocol events are traced into memory, commands and detections are
    /// counted, and the `metrics` command reports both. Survives `attack`
    /// world resets.
    pub fn enable_metrics(&mut self) {
        let (tracer, recorder) = Tracer::flight(FLIGHT_RECORDER_DEFAULT_CAP);
        for (_, client) in self.clients.values_mut() {
            client.set_tracer(tracer.clone());
        }
        self.obs = Some(ReplObs {
            registry: Arc::new(MetricsRegistry::new()),
            tracer,
            recorder,
        });
    }

    /// The current metrics in diffable text form (empty when metrics are
    /// not enabled).
    pub fn metrics_text(&self) -> String {
        self.obs
            .as_ref()
            .map(|o| {
                o.sync_ring_gauges();
                o.registry.snapshot().render_text()
            })
            .unwrap_or_default()
    }

    /// The current metrics in OpenMetrics text exposition (empty when
    /// metrics are not enabled) — what `tcvs --metrics-out` writes at exit.
    pub fn openmetrics_text(&self) -> String {
        self.obs
            .as_ref()
            .map(|o| {
                o.sync_ring_gauges();
                render_openmetrics(&o.registry.snapshot())
            })
            .unwrap_or_default()
    }

    /// Executes one command line, returning the text to print.
    pub fn exec(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return String::new();
        }
        // `help`, `metrics` and `trace` stay available after detection —
        // the event timeline is exactly what a poisoned session wants to
        // inspect.
        if self.poisoned && line != "help" && line != "metrics" && !line.starts_with("trace") {
            return "session poisoned: server deviation was detected; restart required".into();
        }
        let tokens = tokenize(line);
        let (cmd, args) = tokens.split_first().map(|(c, a)| (c.as_str(), a)).unwrap();
        if let Some(obs) = &self.obs {
            obs.registry.counter("cvs.commands").inc();
            obs.registry.counter(&format!("cvs.cmd.{cmd}")).inc();
        }
        let result = match cmd {
            "help" => Ok(HELP.to_string()),
            "metrics" => Ok(self.cmd_metrics()),
            "trace" => Ok(self.cmd_trace(args)),
            "user" => self.cmd_user(args),
            "add" => self.cmd_add(args),
            "cat" => self.cmd_cat(args),
            "commit" => self.cmd_commit(args),
            "log" => self.cmd_log(args),
            "diff" => self.cmd_diff(args),
            "annotate" => self.cmd_annotate(args),
            "ls" => self.cmd_ls(),
            "rm" => self.cmd_rm(args),
            "sync" => Ok(self.cmd_sync()),
            "attack" => self.cmd_attack(args),
            other => Err(format!("unknown command: {other} (try `help`)")),
        };
        match result {
            Ok(s) => s,
            Err(e) => {
                if e.contains("deviation") {
                    self.poisoned = true;
                    if let Some(obs) = &self.obs {
                        obs.registry.counter("cvs.detections").inc();
                    }
                }
                format!("error: {e}")
            }
        }
    }

    /// The `metrics` command: counter values plus the tail of the protocol
    /// event timeline.
    fn cmd_metrics(&mut self) -> String {
        let Some(obs) = &self.obs else {
            return "metrics are off (run `tcvs --metrics`, or call Repl::enable_metrics)".into();
        };
        obs.sync_ring_gauges();
        let mut out = obs.registry.snapshot().render_text();
        let events = obs.recorder.snapshot();
        if !events.is_empty() {
            let tail = &events[events.len().saturating_sub(10)..];
            let _ = write!(
                out,
                "\nlast {} of {} events:\n{}",
                tail.len(),
                obs.recorder.recorded(),
                tcvs_obs::render_log(tail)
            );
        }
        out
    }

    /// The `trace` command: the flight-recorder timeline as a text log, or
    /// — with `trace json` — as Chrome-trace JSON for Perfetto.
    fn cmd_trace(&mut self, args: &[String]) -> String {
        let Some(obs) = &self.obs else {
            return "tracing is off (run `tcvs --metrics`, or call Repl::enable_metrics)".into();
        };
        let events = obs.recorder.snapshot();
        match args.first().map(String::as_str) {
            Some("json") => render_chrome_trace_with_loss(
                &events,
                TraceLoss {
                    overwritten: obs.recorder.overwritten(),
                    dropped: 0,
                },
            ),
            _ if events.is_empty() => "no events recorded yet".into(),
            _ => format!(
                "flight recorder: {} retained of {} recorded ({} overwritten)\n{}",
                events.len(),
                obs.recorder.recorded(),
                obs.recorder.overwritten(),
                obs.recorder.render_log()
            ),
        }
    }

    fn with_cvs<T>(
        &mut self,
        f: impl FnOnce(&mut Cvs<'_, ReplSession<'_>>) -> Result<T, CvsError>,
    ) -> Result<T, String> {
        let name = self
            .current
            .clone()
            .ok_or("no user selected (use `user <name>`)")?;
        let (_, client) = self.clients.get_mut(&name).expect("selected user exists");
        let mut session = ReplSession {
            server: self.server.as_mut(),
            client,
            round: &mut self.round,
        };
        let mut cvs = Cvs::new(&mut session, &name);
        f(&mut cvs).map_err(|e| e.to_string())
    }

    fn cmd_user(&mut self, args: &[String]) -> Result<String, String> {
        let name = args.first().ok_or("usage: user <name>")?;
        if !self.clients.contains_key(name) {
            let id = self.next_user_id;
            self.next_user_id += 1;
            let mut client = Client2::new(id, &self.root0, self.config);
            if let Some(obs) = &self.obs {
                client.set_tracer(obs.tracer.clone());
            }
            self.clients.insert(name.clone(), (id, client));
        }
        self.current = Some(name.clone());
        Ok(format!("now acting as {name}"))
    }

    fn cmd_add(&mut self, args: &[String]) -> Result<String, String> {
        let [path, content] = two(args, "add <path> <content>")?;
        self.stamp += 1;
        let stamp = self.stamp;
        let rev = self.with_cvs(|cvs| cvs.add(&path, &unescape(&content), "add", stamp))?;
        Ok(format!("{path} r{rev}"))
    }

    fn cmd_cat(&mut self, args: &[String]) -> Result<String, String> {
        let path = args.first().ok_or("usage: cat <path> [rev]")?.clone();
        let rev = args
            .get(1)
            .map(|r| r.parse::<u32>().map_err(|e| e.to_string()))
            .transpose()?;
        let wf = self.with_cvs(|cvs| match rev {
            Some(r) => cvs.checkout_rev(&path, r),
            None => cvs.checkout(&path),
        })?;
        Ok(format!(
            "== {} r{} ==\n{}",
            wf.path,
            wf.base_rev,
            from_lines(&wf.lines)
        ))
    }

    fn cmd_commit(&mut self, args: &[String]) -> Result<String, String> {
        // commit <path> <content> [-m <message>]
        let [path, content] = two(
            &args[..2.min(args.len())],
            "commit <path> <content> [-m msg]",
        )?;
        let message = args
            .iter()
            .position(|a| a == "-m")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "(no message)".into());
        self.stamp += 1;
        let stamp = self.stamp;
        let rev = self.with_cvs(|cvs| {
            let base = cvs.checkout(&path)?;
            let wf = WorkingFile {
                path: path.clone(),
                lines: tcvs_store::to_lines(&unescape(&content)),
                base_rev: base.base_rev,
            };
            cvs.commit(&wf, &message, stamp)
        })?;
        Ok(format!("{path} -> r{rev}"))
    }

    fn cmd_log(&mut self, args: &[String]) -> Result<String, String> {
        let path = args.first().ok_or("usage: log <path>")?.clone();
        let entries = self.with_cvs(|cvs| cvs.log(&path))?;
        let mut out = String::new();
        for (rev, meta) in entries {
            let _ = writeln!(out, "r{rev}  {}  \"{}\"", meta.author, meta.message);
        }
        Ok(out)
    }

    fn cmd_diff(&mut self, args: &[String]) -> Result<String, String> {
        if args.len() < 3 {
            return Err("usage: diff <path> <rev-a> <rev-b>".into());
        }
        let path = args[0].clone();
        let a: u32 = args[1].parse().map_err(|_| "rev-a must be a number")?;
        let b: u32 = args[2].parse().map_err(|_| "rev-b must be a number")?;
        self.with_cvs(|cvs| cvs.diff(&path, a, b))
    }

    fn cmd_annotate(&mut self, args: &[String]) -> Result<String, String> {
        let path = args.first().ok_or("usage: annotate <path>")?.clone();
        let blame = self.with_cvs(|cvs| cvs.annotate(&path))?;
        let mut out = String::new();
        for (rev, line) in blame {
            let _ = writeln!(out, "r{rev:<4} {line}");
        }
        Ok(out)
    }

    fn cmd_ls(&mut self) -> Result<String, String> {
        let paths = self.with_cvs(|cvs| cvs.list())?;
        Ok(paths.join("\n"))
    }

    fn cmd_rm(&mut self, args: &[String]) -> Result<String, String> {
        let path = args.first().ok_or("usage: rm <path>")?.clone();
        self.with_cvs(|cvs| cvs.remove(&path))?;
        Ok(format!("removed {path}"))
    }

    /// Broadcast sync-up across every user this REPL has created.
    fn cmd_sync(&mut self) -> String {
        let shares: Vec<SyncShare> = self.clients.values().map(|(_, c)| c.sync_share()).collect();
        let ok = self.clients.values().any(|(_, c)| c.sync_succeeds(&shares));
        if ok {
            let total: u64 = shares.iter().map(|s| s.lctr).sum();
            format!("sync-up OK over {total} operations: single consistent history")
        } else {
            self.poisoned = true;
            if let Some(obs) = &self.obs {
                obs.registry.counter("cvs.detections").inc();
            }
            "SYNC-UP FAILED: the server deviated (fork/drop/replay); leave the system".into()
        }
    }

    /// Swaps in an adversarial server *preserving no state* — a fresh demo
    /// world where the named attack will fire after `trigger` ops.
    fn cmd_attack(&mut self, args: &[String]) -> Result<String, String> {
        let name = args
            .first()
            .ok_or("usage: attack <fork|drop|rollback|tamper|counter-skip|lie> [trigger]")?;
        let trigger: u64 = args
            .get(1)
            .map_or(Ok(3), |t| t.parse().map_err(|_| "bad trigger"))?;
        let t = Trigger::AtCtr(trigger);
        let server: Box<dyn ServerApi> = match name.as_str() {
            "fork" => Box::new(ForkServer::new(&self.config, t, &[0])),
            "drop" => Box::new(DropServer::new(&self.config, t)),
            "rollback" => Box::new(RollbackServer::new(&self.config, t)),
            "tamper" => Box::new(TamperServer::new(&self.config, t)),
            "counter-skip" => Box::new(CounterSkipServer::new(&self.config, t)),
            "lie" => Box::new(LieServer::new(&self.config, t)),
            other => return Err(format!("unknown attack: {other}")),
        };
        let observed = self.obs.is_some();
        *self = Repl::with_server(server, self.config);
        if observed {
            self.enable_metrics();
        }
        Ok(format!(
            "fresh world over a malicious `{name}` server (attack at op #{trigger}); recreate users and watch the protocol catch it"
        ))
    }
}

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

/// Splits a command line into tokens, honouring double quotes.
fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Interprets `\n` escapes in quoted content.
fn unescape(s: &str) -> String {
    s.replace("\\n", "\n")
}

fn two(args: &[String], usage: &str) -> Result<[String; 2], String> {
    if args.len() < 2 {
        return Err(format!("usage: {usage}"));
    }
    Ok([args[0].clone(), args[1].clone()])
}

const HELP: &str = "\
commands:
  user <name>                    select (or create) a user
  add <path> <content>           create a file (content may use \\n)
  cat <path> [rev]               verified checkout
  commit <path> <content> -m <msg>   verified read-modify-write commit
  log <path> | diff <path> a b | annotate <path> | ls | rm <path>
  sync                           broadcast sync-up across all users
  attack <name> [trigger]        restart against a malicious server
  metrics                        counters + recent protocol events (needs --metrics)
  trace [json]                   flight-recorder timeline; `json` emits Chrome-trace
  help";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(repl: &mut Repl, script: &[&str]) -> Vec<String> {
        script.iter().map(|l| repl.exec(l)).collect()
    }

    #[test]
    fn basic_session() {
        let mut r = Repl::new();
        let out = run(
            &mut r,
            &[
                "user alice",
                r##"add Common.h "#pragma once""##,
                r##"commit Common.h "#pragma once\n#define V 2" -m "bump""##,
                "cat Common.h",
                "log Common.h",
                "ls",
                "sync",
            ],
        );
        assert!(out[1].contains("r1"));
        assert!(out[2].contains("r2"));
        assert!(out[3].contains("#define V 2"));
        assert!(out[4].contains("alice") && out[4].contains("bump"));
        assert_eq!(out[5], "Common.h");
        assert!(out[6].contains("sync-up OK"));
    }

    #[test]
    fn multi_user_history() {
        let mut r = Repl::new();
        run(&mut r, &["user alice", r#"add f "one""#]);
        let out = run(
            &mut r,
            &[
                "user bob",
                r#"commit f "one\ntwo" -m "bob adds""#,
                "annotate f",
            ],
        );
        assert!(out[1].contains("r2"));
        assert!(out[2].contains("r1") && out[2].contains("r2"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut r = Repl::new();
        assert!(r.exec("cat nothing").contains("error"));
        assert!(r.exec("bogus").contains("unknown command"));
        assert!(r.exec("user alice").contains("alice"));
        assert!(r.exec("cat missing").contains("no such file"));
        // Still usable afterwards.
        assert!(r.exec(r#"add f "x""#).contains("r1"));
    }

    #[test]
    fn lie_attack_detected_and_poisons_session() {
        let mut r = Repl::new();
        r.exec("attack lie 2");
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        // Keep reading until the lie fires.
        let mut detected = false;
        for _ in 0..6 {
            let out = r.exec("cat f");
            if out.contains("deviation") {
                detected = true;
                break;
            }
        }
        assert!(detected, "lie must surface");
        assert!(r.exec("cat f").contains("poisoned"));
    }

    #[test]
    fn fork_attack_caught_by_sync() {
        let mut r = Repl::new();
        r.exec("attack fork 4");
        r.exec("user alice"); // user id 0 => branch A
        r.exec(r#"add shared "v1""#);
        r.exec("user bob"); // user id 1 => branch B after fork
        for i in 0..4 {
            r.exec(&format!(r#"commit shared "v{i}" -m edit"#));
        }
        r.exec("user alice");
        r.exec("cat shared");
        let out = r.exec("sync");
        assert!(out.contains("FAILED"), "{out}");
    }

    #[test]
    fn metrics_command_reports_counts_and_events() {
        let mut r = Repl::new();
        assert!(r.exec("metrics").contains("metrics are off"));
        r.enable_metrics();
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        r.exec("sync");
        let out = r.exec("metrics");
        assert!(out.contains("cvs.commands"), "{out}");
        assert!(out.contains("cvs.cmd.sync"), "{out}");
        assert!(out.contains("sync-up"), "traced events shown: {out}");
        assert!(r.metrics_text().contains("cvs.cmd.add"));
    }

    #[test]
    fn metrics_survive_attack_reset_and_poisoning() {
        let mut r = Repl::new();
        r.enable_metrics();
        r.exec("attack lie 2");
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        for _ in 0..6 {
            if r.exec("cat f").contains("deviation") {
                break;
            }
        }
        // Poisoned sessions still answer `metrics`, and the detection was
        // counted and traced.
        let out = r.exec("metrics");
        assert!(out.contains("cvs.detections"), "{out}");
        assert!(out.contains("detection"), "{out}");
    }

    #[test]
    fn failed_sync_counts_as_detection() {
        let mut r = Repl::new();
        r.enable_metrics();
        r.exec("attack fork 3");
        r.exec("user alice");
        r.exec("user bob");
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        r.exec("user bob");
        for i in 0..4 {
            r.exec(&format!(r#"commit f "v{i}" -m edit"#));
        }
        r.exec("user alice");
        r.exec("cat f");
        assert!(r.exec("sync").contains("FAILED"));
        assert!(r.metrics_text().contains("cvs.detections"));
    }

    #[test]
    fn trace_command_renders_timeline_and_chrome_json() {
        let mut r = Repl::new();
        assert!(r.exec("trace").contains("tracing is off"));
        r.enable_metrics();
        assert!(r.exec("trace").contains("no events"));
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        r.exec("sync");
        let text = r.exec("trace");
        assert!(text.contains("flight recorder:"), "{text}");
        assert!(text.contains("sync-up"), "{text}");
        let json = r.exec("trace json");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("sync-up"), "{json}");
        // The ring counters surface in both text and OpenMetrics form.
        assert!(r.metrics_text().contains("obs.flight.recorded"));
        let om = r.openmetrics_text();
        assert!(om.contains("obs_flight_recorded"), "{om}");
        assert!(om.ends_with("# EOF\n"), "{om}");
    }

    #[test]
    fn trace_survives_poisoning() {
        let mut r = Repl::new();
        r.enable_metrics();
        r.exec("attack lie 2");
        r.exec("user alice");
        r.exec(r#"add f "v1""#);
        for _ in 0..6 {
            if r.exec("cat f").contains("deviation") {
                break;
            }
        }
        assert!(r.exec("cat f").contains("poisoned"));
        assert!(r.exec("trace").contains("detection"));
        assert!(r.exec("trace json").contains("verdict"));
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize(r#"commit f "two words" -m "a message""#),
            vec!["commit", "f", "two words", "-m", "a message"]
        );
        assert_eq!(tokenize("  "), Vec::<String>::new());
    }
}

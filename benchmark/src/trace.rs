//! Spans recorded from outside the program, at its trait seams.
//!
//! Each thread records into its own preallocated buffer (no lock, no
//! allocation on the hot path); buffers are handed to a [`Sink`] when the
//! thread finishes and written out when the benchmark ends. A span carries
//! its name, start, end, the span that caused it, and the `(user, seq)` of
//! the client request it belongs to, which is how a server-side span finds
//! its cause on a client thread.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// No parent (a root span, or a parent yet to be resolved by request id).
pub const NO_PARENT: u32 = u32::MAX;

// Span names. The prefix is the seam the span was recorded at.
/// A client call that reads, timed by the harness around `Client::call`.
pub const CALL_READ: &str = "call.read";
/// A client call that writes.
pub const CALL_WRITE: &str = "call.write";
/// One database operation at the `VerifiedDb` seam under `Cvs`.
pub const NET_CALL: &str = "net.call";
/// From the server finishing a request to that user's signature deposit
/// reaching it (Protocol I).
pub const NET_DEPOSIT_WAIT: &str = "net.deposit_wait";
pub const SERVER_GET: &str = "server.get";
pub const SERVER_PUT: &str = "server.put";
pub const SERVER_BATCH: &str = "server.batch";
pub const SERVER_DEPOSIT: &str = "server.deposit";
pub const STORAGE_COMMIT: &str = "storage.commit";
pub const STORAGE_CHECKPOINT: &str = "storage.checkpoint";
pub const MEDIUM_APPEND: &str = "medium.append";
pub const MEDIUM_SYNC: &str = "medium.sync";
pub const MEDIUM_WRITE_ATOMIC: &str = "medium.write_atomic";
pub const MEDIUM_REMOVE: &str = "medium.remove";

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same thread's buffer, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// The client request this work belongs to.
    pub user: u32,
    pub seq: u64,
    /// A count taken at the same boundary (bytes, ops), 0 if none.
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder { spans: Vec::new(), open: Vec::new() })
    };
}

/// Preallocates this thread's buffer for about `spans` spans.
pub fn reserve(spans: usize) {
    RECORDER.with(|r| r.borrow_mut().spans.reserve(spans));
}

/// Opens a span under the innermost open span of this thread; returns its
/// handle and start time.
pub fn begin(name: &'static str, user: u32, seq: u64) -> (u32, u64) {
    let start_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let idx = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            user,
            seq,
            arg: 0,
        });
        r.open.push(idx);
        (idx, start_ns)
    })
}

/// Closes the span `idx` (and anything left open inside it), recording
/// `arg`; returns the end time.
pub fn end(idx: u32, arg: u64) -> u64 {
    let end_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        while let Some(top) = r.open.pop() {
            if top == idx {
                break;
            }
        }
        let span = &mut r.spans[idx as usize];
        span.end_ns = end_ns;
        span.arg = arg;
    });
    end_ns
}

/// Records a finished span whose ends were taken elsewhere.
pub fn record(span: Span) {
    RECORDER.with(|r| r.borrow_mut().spans.push(span));
}

/// `(user, seq)` of the innermost open span on this thread, for seams that
/// are not told which request they serve.
pub fn current_request() -> (u32, u64) {
    RECORDER.with(|r| {
        let r = r.borrow();
        r.open.last().map_or((u32::MAX, 0), |&i| {
            let s = &r.spans[i as usize];
            (s.user, s.seq)
        })
    })
}

/// Takes this thread's buffer, leaving it empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// One thread's name and the spans it recorded.
type ThreadSpans = (String, Vec<Span>);

/// Where finished threads leave their buffers.
#[derive(Clone, Default)]
pub struct Sink(Arc<Mutex<Vec<ThreadSpans>>>);

impl Sink {
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Moves the calling thread's buffer into the sink under `thread`.
    pub fn flush_thread(&self, thread: &str) {
        let spans = take();
        if !spans.is_empty() {
            self.0
                .lock()
                .expect("a thread panicked while flushing its spans")
                .push((thread.to_string(), spans));
        }
    }

    /// All buffers flushed so far, sorted by thread name so output and
    /// span ids do not depend on which thread finished first.
    pub fn drain(&self) -> Trace {
        let mut threads = std::mem::take(
            &mut *self
                .0
                .lock()
                .expect("a thread panicked while flushing its spans"),
        );
        threads.sort_by(|a, b| a.0.cmp(&b.0));
        Trace { threads }
    }
}

/// Self time of the interval `[start, end]`: its duration minus the part
/// covered by `children`, which may nest, overlap each other, or stick out
/// of the parent.
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Every thread's spans of one traced run.
pub struct Trace {
    pub threads: Vec<ThreadSpans>,
}

/// A span's position: `(thread, index)`.
pub type SpanId = (usize, usize);

/// A root span with its whole subtree's self time, per layer.
pub struct Root {
    pub name: &'static str,
    pub dur_ns: u64,
    pub self_ns: Vec<(&'static str, u64)>,
}

impl Root {
    /// Self time charged to `layer` under this root (0 if none).
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns)
    }
}

impl Trace {
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flat_map(|(_, s)| s.iter())
    }

    /// All spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans().filter(move |s| s.name == name)
    }

    /// The parent of every span: the recorded one on its own thread, else
    /// — for a span whose name starts with `joined_prefix` — the span whose
    /// name starts with `join_on` carrying the same `(user, seq)` on
    /// another thread.
    pub fn parents(&self, joined_prefix: &str, join_on: &str) -> HashMap<SpanId, SpanId> {
        let mut by_request: HashMap<(u32, u64), SpanId> = HashMap::new();
        for (t, (_, spans)) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if s.name.starts_with(join_on) {
                    by_request.insert((s.user, s.seq), (t, i));
                }
            }
        }
        let mut parents = HashMap::new();
        for (t, (_, spans)) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if s.parent != NO_PARENT {
                    parents.insert((t, i), (t, s.parent as usize));
                } else if s.name.starts_with(joined_prefix) {
                    if let Some(&p) = by_request.get(&(s.user, s.seq)) {
                        parents.insert((t, i), p);
                    }
                }
            }
        }
        parents
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.threads[id.0].1[id.1]
    }

    /// For every root span inside `window` whose name starts with
    /// `root_prefix`: its duration and its descendants' self time summed
    /// per layer, where `layer_of` maps a span name to a layer.
    pub fn attribute(
        &self,
        parents: &HashMap<SpanId, SpanId>,
        root_prefix: &str,
        window: (u64, u64),
        layer_of: impl Fn(&str) -> &'static str,
    ) -> Vec<Root> {
        let mut children: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
        for (&child, &parent) in parents {
            children.entry(parent).or_default().push(child);
        }
        let mut out = Vec::new();
        for (t, (_, spans)) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                if !s.name.starts_with(root_prefix)
                    || parents.contains_key(&(t, i))
                    || s.start_ns < window.0
                    || s.end_ns > window.1
                {
                    continue;
                }
                let mut root = Root {
                    name: s.name,
                    dur_ns: s.dur_ns(),
                    self_ns: Vec::new(),
                };
                let mut stack = vec![(t, i)];
                while let Some(id) = stack.pop() {
                    let span = self.get(id);
                    let kids = children.get(&id).map_or(&[][..], Vec::as_slice);
                    let mut intervals: Vec<(u64, u64)> = kids
                        .iter()
                        .map(|&k| (self.get(k).start_ns, self.get(k).end_ns))
                        .collect();
                    let own = self_time_ns(span.start_ns, span.end_ns, &mut intervals);
                    let layer = layer_of(span.name);
                    match root.self_ns.iter_mut().find(|(l, _)| *l == layer) {
                        Some((_, ns)) => *ns += own,
                        None => root.self_ns.push((layer, own)),
                    }
                    stack.extend_from_slice(kids);
                }
                out.push(root);
            }
        }
        out
    }

    /// Writes the trace as JSON: a name table and, per thread, rows of
    /// `[name, start_ns, end_ns, parent, user, seq, arg]` with `parent` an
    /// index into the same thread's rows or -1. At most `max_spans` rows
    /// are written; `"truncated"` says whether any were left out.
    pub fn write_json(
        &self,
        out: &mut impl std::io::Write,
        max_spans: usize,
    ) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut name_idx: HashMap<&'static str, usize> = HashMap::new();
        for s in self.spans() {
            name_idx.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let total: usize = self.threads.iter().map(|(_, s)| s.len()).sum();
        write!(out, "{{\"schema\":\"tcvs-benchmark-trace/v1\",\"names\":[")?;
        for (i, n) in names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
        }
        write!(
            out,
            "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"user\",\"seq\",\"arg\"],\
             \"spans_recorded\":{total},\"truncated\":{},\"threads\":[",
            total > max_spans
        )?;
        let per_thread = max_spans / self.threads.len().max(1);
        for (t, (thread, spans)) in self.threads.iter().enumerate() {
            write!(
                out,
                "{}\n{{\"thread\":\"{thread}\",\"spans\":[",
                if t > 0 { "," } else { "" }
            )?;
            for (i, s) in spans.iter().take(per_thread).enumerate() {
                let parent = if s.parent == NO_PARENT || s.parent as usize >= per_thread {
                    -1
                } else {
                    s.parent as i64
                };
                let user = if s.user == u32::MAX {
                    -1
                } else {
                    s.user as i64
                };
                write!(
                    out,
                    "{}[{},{},{},{parent},{user},{},{}]",
                    if i > 0 { "," } else { "" },
                    name_idx[s.name],
                    s.start_ns,
                    s.end_ns,
                    s.seq,
                    s.arg
                )?;
            }
            write!(out, "]}}")?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // No children: all self.
        assert_eq!(self_time_ns(0, 100, &mut []), 100);
        // Two disjoint children.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 20), (50, 80)]), 60);
        // A child nested inside another counts once.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 60), (20, 30)]), 50);
        // Overlapping children cover their union.
        assert_eq!(self_time_ns(0, 100, &mut [(40, 70), (10, 50)]), 40);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(100, 200, &mut [(50, 120), (190, 300)]), 70);
        // A child covering everything leaves nothing.
        assert_eq!(self_time_ns(10, 20, &mut [(0, 100)]), 0);
    }

    #[test]
    fn spans_nest_on_a_thread_and_join_across_threads() {
        let sink = Sink::new();
        let client = {
            let sink = sink.clone();
            std::thread::spawn(move || {
                let (root, _) = begin("call.read", 0, 1);
                let (inner, _) = begin("net.call", 0, 1);
                end(inner, 0);
                end(root, 0);
                sink.flush_thread("client-0");
            })
        };
        client.join().unwrap();
        let server = {
            let sink = sink.clone();
            std::thread::spawn(move || {
                let (h, _) = begin("server.get", 0, 1);
                assert_eq!(current_request(), (0, 1));
                let (c, _) = begin("storage.commit", 0, 1);
                end(c, 64);
                end(h, 300);
                sink.flush_thread("server");
            })
        };
        server.join().unwrap();
        let trace = sink.drain();
        assert_eq!(trace.threads[0].0, "client-0");
        assert_eq!(trace.threads[1].0, "server");
        let parents = trace.parents("server.", "net.call");
        // net.call → call.read, server.get → net.call, storage.commit → server.get
        assert_eq!(parents.get(&(0, 1)), Some(&(0, 0)));
        assert_eq!(parents.get(&(1, 0)), Some(&(0, 1)));
        assert_eq!(parents.get(&(1, 1)), Some(&(1, 0)));
        assert_eq!(trace.get((1, 1)).arg, 64);

        let roots = trace.attribute(&parents, "call.", (0, u64::MAX), |n| {
            if n.starts_with("server.") {
                "core"
            } else if n.starts_with("storage.") {
                "storage"
            } else {
                "client"
            }
        });
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].dur_ns, trace.get((0, 0)).dur_ns());
        assert_eq!(roots[0].self_ns.len(), 3, "client, core and storage");
        assert!(trace
            .attribute(&parents, "call.", (0, 1), |_| "x")
            .is_empty());

        let mut json = Vec::new();
        trace.write_json(&mut json, 1000).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.contains("\"truncated\":false") && json.contains("\"storage.commit\""));
    }
}

//! Per-layer attribution for a traced run: span totals from the program's
//! own instrumentation, gathered by recorders the benchmark passes in.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use netmeter_sentinel::obs::span::SpanNode;
use netmeter_sentinel::obs::{Recorder, SpanProfile};

/// Prefix of the spans the benchmark wraps around each public call.
const BENCH_PREFIX: &str = "bench.";

/// Wall time attributed to one span name, summed over every place it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub total_s: f64,
    pub self_s: f64,
}

/// Span times by name plus the time covered by the program's outermost
/// spans (those directly under the benchmark's wrappers or the root).
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub by_name: BTreeMap<String, SpanTotals>,
    pub program_top_s: f64,
}

impl Attribution {
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.total_s)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.self_s)
    }

    /// Folds in span totals gathered off the home thread. They add to the
    /// per-name times but not to `program_top_s`: their wall time already
    /// lies inside a home-thread span that waited for them.
    pub fn absorb_workers(&mut self, workers: &BTreeMap<String, SpanTotals>) {
        for (name, t) in workers {
            let entry = self.by_name.entry(name.clone()).or_default();
            entry.total_s += t.total_s;
            entry.self_s += t.self_s;
        }
    }
}

/// Aggregates a [`SpanProfile`] from the run's `SpanRecorder`.
pub fn attribute(profile: &SpanProfile) -> Attribution {
    fn walk(node: &SpanNode, under_program: bool, out: &mut Attribution) {
        let is_bench = node.name.starts_with(BENCH_PREFIX);
        if !is_bench && !under_program {
            out.program_top_s += node.total_secs;
        }
        let entry = out.by_name.entry(node.name.clone()).or_default();
        entry.total_s += node.total_secs;
        entry.self_s += node.self_secs;
        for child in &node.children {
            walk(child, under_program || !is_bench, out);
        }
    }
    let mut out = Attribution::default();
    for root in &profile.roots {
        walk(root, false, &mut out);
    }
    out
}

struct Frame {
    name: &'static str,
    started: Instant,
    child_s: f64,
}

/// A span sink that keeps one stack per thread, for runs stepped on
/// `nms-par` workers. `SpanRecorder` pins itself to the first thread that
/// enters a span and drops the rest, and a fleet shard may close each day
/// on a different worker; this sink sums per-name times across threads
/// (so totals are busy time, not wall time).
#[derive(Default)]
pub struct WorkerSpans {
    inner: Mutex<WorkerState>,
}

#[derive(Default)]
struct WorkerState {
    stacks: HashMap<ThreadId, Vec<Frame>>,
    totals: BTreeMap<String, SpanTotals>,
}

impl WorkerSpans {
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        self.inner
            .lock()
            .expect("span sink poisoned")
            .totals
            .clone()
    }
}

impl Recorder for WorkerSpans {
    fn span_enter(&self, name: &'static str) {
        let mut state = self.inner.lock().expect("span sink poisoned");
        state
            .stacks
            .entry(std::thread::current().id())
            .or_default()
            .push(Frame {
                name,
                started: Instant::now(),
                child_s: 0.0,
            });
    }

    fn span_exit(&self, name: &'static str) {
        let mut guard = self.inner.lock().expect("span sink poisoned");
        let state = &mut *guard;
        let Some(stack) = state.stacks.get_mut(&std::thread::current().id()) else {
            return;
        };
        // Same policy as SpanRecorder: close the named span and any inner
        // spans left open; ignore an exit whose span is not open.
        let Some(position) = stack.iter().rposition(|frame| frame.name == name) else {
            return;
        };
        while stack.len() > position {
            let frame = stack.pop().expect("stack holds the frame");
            let elapsed = frame.started.elapsed().as_secs_f64();
            if let Some(parent) = stack.last_mut() {
                parent.child_s += elapsed;
            }
            let entry = state.totals.entry(frame.name.to_string()).or_default();
            entry.total_s += elapsed;
            entry.self_s += (elapsed - frame.child_s).max(0.0);
        }
    }
}

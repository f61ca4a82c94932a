//! The benchmark's client: times every client call, and in a traced
//! pass records wall-clock spans around each call into a layer plus the
//! `dla_telemetry` counters each call produced.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into the public functions of each layer; nothing inside the system
//! under test is instrumented by this file. They are kept in memory and
//! written out once, when the pass ends.

use dla_telemetry::{CostVector, InstallGuard, Recorder};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// The span name of a client call's root span; its self time is client
/// bookkeeping, not a layer of the system.
pub const CLIENT: &str = "client";

/// One wall-clock span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`cluster`, `plan`, `exec`, …) or [`CLIENT`].
    pub name: &'static str,
    /// Client call kind the span belongs to.
    pub kind: &'static str,
    /// Nanoseconds since the pass began.
    pub start_ns: u64,
    /// Nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Client call id (one per client call).
    pub op: u32,
}

/// One timed client call.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Call kind (`deposit`, `seal_deposit`, `query`, …).
    pub kind: &'static str,
    /// Wall milliseconds.
    pub ms: f64,
}

/// The telemetry counters one client call produced (traced pass only).
#[derive(Clone, Debug)]
pub struct OpCost {
    /// Call kind.
    pub kind: &'static str,
    /// Every counter recorded during the call, on any thread.
    pub cost: CostVector,
    /// Distinct MPC sessions that reported cost scopes.
    pub sessions: usize,
}

struct Traced {
    recorder: Recorder,
    guard: RefCell<Option<InstallGuard>>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    costs: RefCell<Vec<OpCost>>,
}

/// The single client thread of a closed-loop workload.
pub struct Client {
    origin: Instant,
    traced: Option<Traced>,
    samples: RefCell<Vec<Sample>>,
    errors: RefCell<Vec<String>>,
}

impl Client {
    /// A client whose calls are timed but not traced.
    pub fn untraced() -> Self {
        Client {
            origin: Instant::now(),
            traced: None,
            samples: RefCell::new(Vec::new()),
            errors: RefCell::new(Vec::new()),
        }
    }

    /// A client that installs a telemetry recorder on this thread and
    /// records spans and per-call counters.
    pub fn traced() -> Self {
        let recorder = Recorder::new();
        let guard = recorder.install();
        Client {
            origin: Instant::now(),
            traced: Some(Traced {
                recorder,
                guard: RefCell::new(Some(guard)),
                spans: RefCell::new(Vec::new()),
                stack: RefCell::new(Vec::new()),
                costs: RefCell::new(Vec::new()),
            }),
            samples: RefCell::new(Vec::new()),
            errors: RefCell::new(Vec::new()),
        }
    }

    /// Uninstalls the telemetry recorder, keeping what was recorded;
    /// later calls are still timed and spanned but add no counters.
    pub fn stop_telemetry(&self) {
        if let Some(t) = &self.traced {
            drop(t.guard.borrow_mut().take());
        }
    }

    fn open(&self, name: &'static str, kind: &'static str) -> Option<usize> {
        let t = self.traced.as_ref()?;
        let mut spans = t.spans.borrow_mut();
        let mut stack = t.stack.borrow_mut();
        let parent = stack.last().copied();
        let op = match parent {
            Some(p) => spans[p].op,
            None => u32::try_from(self.samples.borrow().len()).expect("fewer than 2^32 calls"),
        };
        let kind = parent.map_or(kind, |p| spans[p].kind);
        spans.push(Span {
            name,
            kind,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        stack.push(spans.len() - 1);
        Some(spans.len() - 1)
    }

    fn close(&self, index: Option<usize>) {
        if let (Some(t), Some(i)) = (&self.traced, index) {
            t.spans.borrow_mut()[i].end_ns = self.now_ns();
            t.stack.borrow_mut().pop();
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs one client call of `kind`, timing it. An `Err` counts as a
    /// failed call; its message is kept for the report.
    pub fn op<R>(&self, kind: &'static str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        let span = self.open(CLIENT, kind);
        let started = Instant::now();
        let out = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.close(span);
        if let Some(t) = &self.traced {
            let trace = t.recorder.take();
            let sessions: BTreeSet<u64> = trace.scopes.iter().map(|s| s.session).collect();
            t.costs.borrow_mut().push(OpCost {
                kind,
                cost: trace.total_cost(),
                sessions: sessions.len(),
            });
        }
        self.samples.borrow_mut().push(Sample { kind, ms });
        match out {
            Ok(value) => Some(value),
            Err(message) => {
                self.fail(format!("{kind}: {message}"));
                None
            }
        }
    }

    /// Re-labels the most recent call (a deposit turns out to have
    /// sealed an epoch only once it returns).
    pub fn relabel_last(&self, kind: &'static str) {
        if let Some(s) = self.samples.borrow_mut().last_mut() {
            s.kind = kind;
        }
        if let Some(t) = &self.traced {
            if let Some(c) = t.costs.borrow_mut().last_mut() {
                c.kind = kind;
            }
            let mut spans = t.spans.borrow_mut();
            if let Some(last_op) = spans.last().map(|s| s.op) {
                for s in spans.iter_mut().rev().take_while(|s| s.op == last_op) {
                    s.kind = kind;
                }
            }
        }
    }

    /// Runs `f` inside a span named after the layer it calls into.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(layer, "");
        let out = f();
        self.close(span);
        out
    }

    /// Records a failure found outside a call (a wrong answer, a failed
    /// durability check).
    pub fn fail(&self, message: String) {
        self.errors.borrow_mut().push(message);
    }

    /// Every timed call so far.
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.borrow().clone()
    }

    /// Every failure message so far.
    pub fn errors(&self) -> Vec<String> {
        self.errors.borrow().clone()
    }

    /// Latencies (ms) of the calls whose kind is one of `kinds`.
    pub fn latencies(&self, kinds: &[&str]) -> Vec<f64> {
        self.samples
            .borrow()
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.ms)
            .collect()
    }

    /// Per-call counters of the traced pass.
    pub fn costs(&self) -> Vec<OpCost> {
        self.traced
            .as_ref()
            .map(|t| t.costs.borrow().clone())
            .unwrap_or_default()
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.traced
            .as_ref()
            .map(|t| t.spans.borrow().clone())
            .unwrap_or_default()
    }
}

/// Summed counters and call count for the calls of the given kinds.
pub fn cost_of(costs: &[OpCost], kinds: &[&str]) -> (CostVector, usize, usize) {
    let mut total = CostVector::default();
    let mut calls = 0;
    let mut sessions = 0;
    for c in costs.iter().filter(|c| kinds.contains(&c.kind)) {
        total.merge(&c.cost);
        calls += 1;
        sessions += c.sessions;
    }
    (total, calls, sessions)
}

/// One counter summed over the calls of the given kinds, divided by
/// `per` (records deposited, queries run, …); 0 when `per` is 0.
pub fn per(costs: &[OpCost], kinds: &[&str], per: f64, field: impl Fn(&CostVector) -> u64) -> f64 {
    if per == 0.0 {
        return 0.0;
    }
    let total: u64 = costs
        .iter()
        .filter(|c| kinds.contains(&c.kind))
        .map(|c| field(&c.cost))
        .sum();
    total as f64 / per
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover. Spans nest strictly on the one client
/// thread, so children never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// Self times of the given layer spans, as a per-call median in
/// milliseconds over the calls of the given kinds that entered it.
pub fn layer_ms_per_call(spans: &[Span], layer: &str, kinds: &[&str]) -> Vec<f64> {
    let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == layer && kinds.contains(&s.kind))
    {
        *per_op.entry(s.op).or_insert(0) += s.end_ns - s.start_ns;
    }
    per_op.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// The spans as JSON lines: id, parent, call id, kind, layer, start
/// and end in nanoseconds since the traced pass began.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"kind\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.kind, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            kind: "query",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(CLIENT, 0, 100, None),
            span("plan", 10, 20, Some(0)),
            span("exec", 20, 90, Some(0)),
            span("net", 30, 50, Some(2)),
        ];
        let times = self_times(&spans);
        assert_eq!(times[CLIENT], 20);
        assert_eq!(times["plan"], 10);
        assert_eq!(times["exec"], 50);
        assert_eq!(times["net"], 20);
        assert_eq!(times.values().sum::<u64>(), 100);
    }

    #[test]
    fn failed_calls_are_counted_and_kept() {
        let client = Client::untraced();
        assert_eq!(client.op("query", || Ok::<_, String>(7)), Some(7));
        assert_eq!(client.op("query", || Err::<u8, _>("boom".into())), None);
        assert_eq!(client.samples().len(), 2);
        assert_eq!(client.errors(), vec!["query: boom".to_string()]);
    }
}

//! The traced run's span store and the timing wrappers it puts around
//! the oracle layer.
//!
//! A span is a name, a start, a duration, the span that caused it and
//! the trial or session id it belongs to. Spans stay in memory until the
//! workload ends; then [`Trace::write`] saves them and [`Trace::self_times`]
//! folds them into per-layer self time: a span's duration (times the
//! threads it owns, for a pool-wide span) minus the durations of its
//! children.

use crate::common::Outcome;
use mph_bits::{BitSlice, BitVec};
use mph_metrics::json::Json;
use mph_oracle::Oracle;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The trial or session the span belongs to.
    pub id: u64,
    /// Index of the parent span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Threads the span occupies: 1, or the pool width for a span that
    /// spans a whole pool pass.
    pub threads: u32,
}

/// Spans of one workload, collected from any thread.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of a folded trace. Self time is signed: a span whose
/// children ran partly on another pool thread can have more child time
/// than its own duration, and the excess is charged to it so that self
/// times still sum to the traced time.
#[derive(Default, Clone, Copy, Debug)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

/// The trace accounting of a traced phase.
pub struct Accounting {
    /// Sum of all self times, in ns.
    pub self_ns: i64,
    /// Wall time of the traced phase times its threads, in ns.
    pub capacity_ns: u64,
    /// Sum over spans of the child time that exceeds the span's own.
    pub overlap_ns: u64,
}

impl Accounting {
    /// Share of the traced wall time the self times account for.
    pub fn accounted(&self) -> f64 {
        self.self_ns as f64 / self.capacity_ns.max(1) as f64
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Appends one span and returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Sets the duration of a span pushed before it ended.
    pub fn set_dur(&self, index: usize, dur_ns: u64) {
        self.spans.lock().expect("span store poisoned")[index].dur_ns = dur_ns;
    }

    /// Appends a locally built batch whose parents index into the batch
    /// itself (or are `None`, which becomes `root`).
    pub fn append(&self, batch: Vec<Span>, root: Option<usize>) {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let base = spans.len();
        spans.extend(batch.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
    }

    /// Folds the spans into per-name totals and checks that self times
    /// add up to `capacity_ns` (the traced wall time times its threads).
    pub fn self_times(&self, capacity_ns: u64) -> (BTreeMap<&'static str, SelfTime>, Accounting) {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                children_ns[p] += span.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        let mut acc = Accounting { self_ns: 0, capacity_ns, overlap_ns: 0 };
        for (span, &children) in spans.iter().zip(&children_ns) {
            let own = span.dur_ns * span.threads as u64;
            let self_ns = own as i64 - children as i64;
            acc.overlap_ns += children.saturating_sub(own);
            acc.self_ns += self_ns;
            let entry = by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.dur_ns;
            entry.self_ns += self_ns;
        }
        (by_name, acc)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"threads\":{}}}",
                s.name, s.id, s.start_ns, s.dur_ns, s.threads
            )?;
        }
        out.flush()
    }
}

/// Spans of one trial or session, built on one thread and appended to
/// the [`Trace`] in one lock acquisition.
pub struct SpanBuf<'a> {
    pub trace: &'a Trace,
    pub id: u64,
    pub spans: Vec<Span>,
}

impl<'a> SpanBuf<'a> {
    pub fn new(trace: &'a Trace, id: u64) -> Self {
        SpanBuf { trace, id, spans: Vec::new() }
    }

    /// Opens span `name` under `parent`; [`SpanBuf::end`] closes it.
    /// Returns its index and start.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> (usize, Instant) {
        let start = Instant::now();
        self.spans.push(Span {
            name,
            id: self.id,
            parent,
            start_ns: self.trace.ns_at(start),
            dur_ns: 0,
            threads: 1,
        });
        (self.spans.len() - 1, start)
    }

    pub fn end(&mut self, (index, start): (usize, Instant)) {
        self.spans[index].dur_ns = start.elapsed().as_nanos() as u64;
    }

    /// Records a finished span that started at `start`; returns its index.
    pub fn close(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> usize {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id: self.id,
            parent,
            start_ns: self.trace.ns_at(start),
            dur_ns,
            threads: 1,
        });
        self.spans.len() - 1
    }

    /// Records a child whose duration is a sum of many short calls (the
    /// oracle calls made during its parent), placed at its parent's start.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, dur_ns: u64) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            id: self.id,
            parent: Some(parent),
            start_ns,
            dur_ns,
            threads: 1,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as span `name` under `parent`, attributing the oracle
    /// time `clocks` accumulate meanwhile to aggregated child spans.
    pub fn run<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        clocks: Option<&OracleClocks>,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = clocks.map(OracleClocks::read);
        let start = Instant::now();
        let value = f();
        let span = self.close(name, parent, start);
        if let (Some(clocks), Some(before)) = (clocks, before) {
            let after = clocks.read();
            let query_ns = after.1 - before.1;
            if after.0 > before.0 {
                let q = self.aggregate("oracle.query", span, query_ns);
                let derive_ns = after.3 - before.3;
                if after.2 > before.2 {
                    self.aggregate("oracle.derive", q, derive_ns);
                }
            }
        }
        value
    }

    pub fn finish(self, root: Option<usize>) {
        self.trace.append(self.spans, root);
    }
}

/// The stated tolerance of the trace accounting: self times must sum to
/// between this share of the traced wall time (times its threads) and
/// 1 % over it.
pub const ACCOUNTING_MIN: f64 = 0.95;

/// Records the trace accounting and fails the run when the self times do
/// not add up to the traced wall time within the stated tolerance.
pub fn check_accounting(out: &mut Outcome, acc: &Accounting) {
    let accounted = acc.accounted();
    let overlap = acc.overlap_ns as f64 / acc.capacity_ns.max(1) as f64;
    out.extra(
        "trace_accounting",
        Json::object(vec![
            ("self_over_wall", Json::f64(accounted)),
            ("overlap_over_wall", Json::f64(overlap)),
            ("tolerance", Json::str(format!("self/wall in [{ACCOUNTING_MIN}, 1.01]"))),
        ]),
    );
    out.check((ACCOUNTING_MIN..=1.01).contains(&accounted), || {
        format!("trace accounting: self times sum to {accounted:.4} of the traced wall")
    });
}

/// Calls and time accumulated by a [`Timed`] oracle.
#[derive(Default)]
pub struct Clock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Clock {
    fn add(&self, calls: usize, start: Instant) {
        // Statistics only: nothing else is published through them.
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(calls as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// The two clocks of one trial's oracle stack: every query on the
/// trial's `CachedOracle`, and the cache misses derived by the
/// `LazyOracle` inside it.
#[derive(Default)]
pub struct OracleClocks {
    pub query: Arc<Clock>,
    pub derive: Arc<Clock>,
}

impl OracleClocks {
    /// `(query calls, query ns, derive calls, derive ns)`.
    pub fn read(&self) -> (u64, u64, u64, u64) {
        (self.query.calls(), self.query.ns(), self.derive.calls(), self.derive.ns())
    }
}

/// An oracle that forwards every call to `inner` and adds its count and
/// duration to a [`Clock`]. Answers are the inner oracle's, bit for bit.
pub struct Timed<O> {
    inner: O,
    clock: Arc<Clock>,
}

impl<O: Oracle> Timed<O> {
    pub fn new(inner: O, clock: Arc<Clock>) -> Self {
        Timed { inner, clock }
    }
}

impl<O: Oracle> Oracle for Timed<O> {
    fn n_in(&self) -> usize {
        self.inner.n_in()
    }

    fn n_out(&self) -> usize {
        self.inner.n_out()
    }

    fn query(&self, input: &BitVec) -> BitVec {
        let start = Instant::now();
        let answer = self.inner.query(input);
        self.clock.add(1, start);
        answer
    }

    fn query_many(&self, inputs: &[BitVec]) -> Vec<BitVec> {
        let start = Instant::now();
        let answers = self.inner.query_many(inputs);
        self.clock.add(inputs.len(), start);
        answers
    }

    fn query_slice(&self, input: &BitSlice<'_>) -> BitVec {
        let start = Instant::now();
        let answer = self.inner.query_slice(input);
        self.clock.add(1, start);
        answer
    }

    fn query_many_slices(&self, inputs: &[BitSlice<'_>]) -> Vec<BitVec> {
        let start = Instant::now();
        let answers = self.inner.query_many_slices(inputs);
        self.clock.add(inputs.len(), start);
        answers
    }

    fn query_into(&self, input: &BitSlice<'_>, out: &mut BitVec) {
        let start = Instant::now();
        self.inner.query_into(input, out);
        self.clock.add(1, start);
    }

    fn query_many_into(&self, inputs: &[BitSlice<'_>], out: &mut BitVec) {
        let start = Instant::now();
        self.inner.query_many_into(inputs, out);
        self.clock.add(inputs.len(), start);
    }
}

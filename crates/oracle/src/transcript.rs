//! Query transcripts.
//!
//! The proofs reason extensively about *which* queries an algorithm makes:
//! `Q_i^{(k)}` (queries of machine `i` in round `k`), `Q^{(≤k)}`, the set
//! `B_i^{(k)}` of input blocks revealed by queries, and the encoder of
//! Claim A.4 replays `𝒜₂` and "examines the queries". [`TranscriptOracle`]
//! records the ordered `(query, answer)` sequence so harnesses and encoders
//! can compute exactly those sets from a real run.

use crate::traits::{check_input_width, Oracle};
use mph_bits::BitVec;
use mph_metrics::{emit, Event, MetricsSink, QueryKind};
use parking_lot::Mutex;
use std::sync::Arc;

/// One recorded oracle interaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRecord {
    /// The query string.
    pub input: BitVec,
    /// The oracle's answer.
    pub output: BitVec,
}

/// An oracle wrapper recording every `(query, answer)` pair in order.
///
/// Recording is appended under a mutex; with parallel callers the
/// interleaving is unspecified but the *set* of records is exact, which is
/// all the proofs' set-valued quantities need.
pub struct TranscriptOracle {
    inner: Arc<dyn Oracle>,
    records: Mutex<Vec<QueryRecord>>,
    /// Telemetry sink; `None` = zero-cost disabled path.
    metrics: Option<Arc<dyn MetricsSink>>,
}

impl TranscriptOracle {
    /// Wraps `inner` with an empty transcript.
    pub fn new(inner: Arc<dyn Oracle>) -> Self {
        TranscriptOracle { inner, records: Mutex::new(Vec::new()), metrics: None }
    }

    /// Attaches a telemetry sink, builder-style. Each query emits an
    /// [`Event::OracleQuery`]: [`QueryKind::Fresh`] if no earlier record in
    /// the current transcript has the same input, [`QueryKind::Cached`]
    /// otherwise. [`Self::clear`] / [`Self::drain`] reset that notion of
    /// "seen", matching the per-round `Q^{(k)}` sets of the proofs.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// A snapshot of the transcript so far.
    pub fn transcript(&self) -> Vec<QueryRecord> {
        self.records.lock().clone()
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no queries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Clears the transcript (e.g. between rounds, to obtain `Q^{(k)}`
    /// per-round sets).
    pub fn clear(&self) {
        self.records.lock().clear();
    }

    /// Takes the transcript, leaving it empty — the usual per-round drain.
    pub fn drain(&self) -> Vec<QueryRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Whether some recorded query equals `input`.
    pub fn contains_query(&self, input: &BitVec) -> bool {
        self.records.lock().iter().any(|r| &r.input == input)
    }
}

impl Oracle for TranscriptOracle {
    fn n_in(&self) -> usize {
        self.inner.n_in()
    }

    fn n_out(&self) -> usize {
        self.inner.n_out()
    }

    fn query(&self, input: &BitVec) -> BitVec {
        check_input_width("TranscriptOracle", self.inner.n_in(), input);
        let output = self.inner.query(input);
        let mut records = self.records.lock();
        if self.metrics.is_some() {
            let fresh = !records.iter().any(|r| &r.input == input);
            emit(&self.metrics, || Event::OracleQuery {
                kind: if fresh { QueryKind::Fresh } else { QueryKind::Cached },
            });
        }
        records.push(QueryRecord { input: input.clone(), output: output.clone() });
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LazyOracle;

    fn recorded() -> TranscriptOracle {
        TranscriptOracle::new(Arc::new(LazyOracle::square(4, 16)))
    }

    #[test]
    fn records_in_order() {
        let t = recorded();
        let q1 = BitVec::from_u64(1, 16);
        let q2 = BitVec::from_u64(2, 16);
        let a1 = t.query(&q1);
        let a2 = t.query(&q2);
        let tr = t.transcript();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0], QueryRecord { input: q1, output: a1 });
        assert_eq!(tr[1], QueryRecord { input: q2, output: a2 });
    }

    #[test]
    fn duplicate_queries_recorded_each_time() {
        let t = recorded();
        let q = BitVec::from_u64(7, 16);
        t.query(&q);
        t.query(&q);
        assert_eq!(t.len(), 2);
        assert!(t.contains_query(&q));
    }

    #[test]
    fn drain_resets() {
        let t = recorded();
        t.query(&BitVec::zeros(16));
        let drained = t.drain();
        assert_eq!(drained.len(), 1);
        assert!(t.is_empty());
        t.query(&BitVec::ones(16));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn metrics_follow_transcript_membership() {
        let recorder = Arc::new(mph_metrics::Recorder::new());
        let t = TranscriptOracle::new(Arc::new(LazyOracle::square(4, 16)))
            .with_metrics(recorder.clone());
        let q = BitVec::from_u64(7, 16);
        t.query(&q);
        t.query(&q);
        t.clear();
        t.query(&q); // fresh again after the per-round reset
        let snap = recorder.snapshot();
        assert_eq!(snap.oracle.fresh, 2);
        assert_eq!(snap.oracle.cached, 1);
    }

    #[test]
    fn clear_resets() {
        let t = recorded();
        t.query(&BitVec::zeros(16));
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains_query(&BitVec::zeros(16)));
    }
}

//! Oracles with finitely many overridden entries.
//!
//! Definition 3.4 of the paper builds, from a base oracle `RO` and a
//! candidate pointer sequence `a_1, …, a_{log² w}`, a *rewired* oracle
//! `RO^{(k)}_{a_1,…,a_{log² w}}` that agrees with `RO` everywhere except on
//! `log² w` entries along the speculative continuation of the line. The
//! encoder of Claim 3.7 runs the machine against *every* such rewiring
//! ("for any a₁,…,a_{log²w}, run 𝒜₂ with oracle access to RO_{a₁,…}"), and
//! the speculative adversary does the same to pre-explore the line.
//!
//! [`PatchedOracle`] is that construction: a cheap overlay of overrides on
//! a shared base oracle. Building one never mutates the base, so thousands
//! of rewirings can coexist (the encoder enumerates `v^{log² w}` of them).

use crate::traits::{check_input_width, Oracle};
use mph_bits::BitVec;
use mph_metrics::{emit, Event, MetricsSink, QueryKind};
use std::collections::HashMap;
use std::sync::Arc;

/// An oracle equal to a base oracle except on an explicit finite set of
/// patched entries.
///
/// # Examples
///
/// ```
/// use mph_oracle::{LazyOracle, PatchedOracle, Oracle};
/// use mph_bits::BitVec;
/// use std::sync::Arc;
///
/// let base = Arc::new(LazyOracle::square(1, 16));
/// let q = BitVec::from_u64(5, 16);
/// let forged = BitVec::from_u64(0xFFFF, 16);
///
/// let patched = PatchedOracle::new(base.clone()).with(q.clone(), forged.clone());
/// assert_eq!(patched.query(&q), forged);
/// let other = BitVec::from_u64(6, 16);
/// assert_eq!(patched.query(&other), base.query(&other)); // agrees off-patch
/// ```
pub struct PatchedOracle {
    base: Arc<dyn Oracle>,
    overrides: HashMap<BitVec, BitVec>,
    /// Telemetry sink; `None` = zero-cost disabled path.
    metrics: Option<Arc<dyn MetricsSink>>,
}

impl PatchedOracle {
    /// An overlay with no patches yet (identical to `base`).
    pub fn new(base: Arc<dyn Oracle>) -> Self {
        PatchedOracle { base, overrides: HashMap::new(), metrics: None }
    }

    /// Attaches a telemetry sink, builder-style. Queries that hit a patched
    /// entry emit [`Event::OracleQuery`] with [`QueryKind::Patched`];
    /// off-patch queries forward to the base oracle *without* an event, so
    /// an instrumented base (e.g. a [`crate::CachedOracle`] with metrics)
    /// classifies them fresh/cached without double counting.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Adds (or replaces) a patch, builder-style.
    ///
    /// Panics on width mismatches — a patch outside the oracle's domain is
    /// a harness bug.
    pub fn with(mut self, input: BitVec, answer: BitVec) -> Self {
        self.patch(input, answer);
        self
    }

    /// Adds (or replaces) a patch in place.
    pub fn patch(&mut self, input: BitVec, answer: BitVec) {
        assert_eq!(input.len(), self.base.n_in(), "patch input width mismatch");
        assert_eq!(answer.len(), self.base.n_out(), "patch answer width mismatch");
        self.overrides.insert(input, answer);
    }

    /// Number of patched entries.
    pub fn num_patches(&self) -> usize {
        self.overrides.len()
    }

    /// Whether `input` is one of the patched entries.
    pub fn is_patched(&self, input: &BitVec) -> bool {
        self.overrides.contains_key(input)
    }

    /// Iterates over the patch set.
    pub fn patches(&self) -> impl Iterator<Item = (&BitVec, &BitVec)> {
        self.overrides.iter()
    }

    /// Applies every patch onto a materialized table — the in-place
    /// `RO ← RO'` rewiring used when an experiment commits a rewired oracle.
    pub fn materialize(&self, table: &mut crate::TableOracle) {
        assert_eq!(table.n_in(), self.base.n_in(), "table width mismatch");
        for (input, answer) in &self.overrides {
            table.set(input, answer);
        }
    }
}

impl Oracle for PatchedOracle {
    fn n_in(&self) -> usize {
        self.base.n_in()
    }

    fn n_out(&self) -> usize {
        self.base.n_out()
    }

    fn query(&self, input: &BitVec) -> BitVec {
        check_input_width("PatchedOracle", self.base.n_in(), input);
        match self.overrides.get(input) {
            Some(answer) => {
                emit(&self.metrics, || Event::OracleQuery { kind: QueryKind::Patched });
                answer.clone()
            }
            None => self.base.query(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LazyOracle, TableOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base16() -> Arc<dyn Oracle> {
        Arc::new(LazyOracle::square(3, 16))
    }

    #[test]
    fn empty_patch_set_is_identity() {
        let base = base16();
        let p = PatchedOracle::new(base.clone());
        for i in 0..20u64 {
            let q = BitVec::from_u64(i, 16);
            assert_eq!(p.query(&q), base.query(&q));
        }
    }

    #[test]
    fn patches_take_priority_and_can_be_replaced() {
        let base = base16();
        let q = BitVec::from_u64(9, 16);
        let mut p = PatchedOracle::new(base.clone());
        p.patch(q.clone(), BitVec::from_u64(1, 16));
        assert_eq!(p.query(&q), BitVec::from_u64(1, 16));
        p.patch(q.clone(), BitVec::from_u64(2, 16));
        assert_eq!(p.query(&q), BitVec::from_u64(2, 16));
        assert_eq!(p.num_patches(), 1);
    }

    #[test]
    fn stacked_overlays_do_not_mutate_base() {
        let base = base16();
        let q = BitVec::from_u64(4, 16);
        let original = base.query(&q);
        let p1 = PatchedOracle::new(base.clone()).with(q.clone(), BitVec::from_u64(10, 16));
        let p2 = PatchedOracle::new(base.clone()).with(q.clone(), BitVec::from_u64(20, 16));
        assert_eq!(p1.query(&q), BitVec::from_u64(10, 16));
        assert_eq!(p2.query(&q), BitVec::from_u64(20, 16));
        assert_eq!(base.query(&q), original);
    }

    #[test]
    fn materialize_commits_patches() {
        let mut rng = StdRng::seed_from_u64(8);
        let table = TableOracle::random(&mut rng, 8, 8);
        let base: Arc<dyn Oracle> = Arc::new(table.clone());
        let q = BitVec::from_u64(200, 8);
        let a = BitVec::from_u64(0x5A, 8);
        let p = PatchedOracle::new(base).with(q.clone(), a.clone());
        let mut committed = table.clone();
        p.materialize(&mut committed);
        assert_eq!(committed.query(&q), a);
        // All other entries untouched.
        for i in 0..256u64 {
            if i != 200 {
                let qi = BitVec::from_u64(i, 8);
                assert_eq!(committed.query(&qi), table.query(&qi));
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn patch_width_checked() {
        let base = base16();
        PatchedOracle::new(base).with(BitVec::zeros(8), BitVec::zeros(16));
    }

    #[test]
    fn metrics_count_patched_hits_only() {
        let recorder = Arc::new(mph_metrics::Recorder::new());
        let base = base16();
        let q = BitVec::from_u64(9, 16);
        let p = PatchedOracle::new(base)
            .with(q.clone(), BitVec::zeros(16))
            .with_metrics(recorder.clone());
        p.query(&q); // hits the patch
        p.query(&BitVec::from_u64(10, 16)); // forwards to base, no event
        let snap = recorder.snapshot();
        assert_eq!(snap.oracle.patched, 1);
        assert_eq!(snap.oracle.total(), 1);
    }

    #[test]
    fn is_patched_reports_membership() {
        let base = base16();
        let q = BitVec::from_u64(1, 16);
        let p = PatchedOracle::new(base).with(q.clone(), BitVec::zeros(16));
        assert!(p.is_patched(&q));
        assert!(!p.is_patched(&BitVec::from_u64(2, 16)));
        assert_eq!(p.patches().count(), 1);
    }
}

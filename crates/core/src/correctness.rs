//! The success notions of Definitions 2.4 and 2.5.
//!
//! The theorem's conclusion is probabilistic: "the probability that `𝒜^RO`
//! computes `f^RO` correctly in `o(T/log² T)` rounds is at most 1/3 over
//! the random choice of RO and input". These estimators measure such
//! probabilities by Monte Carlo: cap the round budget at `R`, draw fresh
//! `(RO, X)` (average case) or fresh `RO` for a fixed `X` (worst case),
//! and count correct completions.

use crate::algorithms::pipeline::Pipeline;
use crate::theorem::{draw_instance, reference_output, RoundMeasurement};
use mph_bits::BitVec;
use mph_oracle::{LazyOracle, Oracle, RandomTape};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A Monte-Carlo success estimate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuccessEstimate {
    /// Trials run.
    pub trials: usize,
    /// Trials that completed within the round cap with the correct output.
    pub successes: usize,
    /// The round cap `R`.
    pub round_cap: usize,
}

impl SuccessEstimate {
    /// The estimated success probability.
    pub fn rate(&self) -> f64 {
        self.successes as f64 / self.trials as f64
    }

    /// Whether the estimate clears Definition 2.4/2.5's `1/3` threshold.
    pub fn succeeds_per_definition(&self) -> bool {
        self.rate() >= 1.0 / 3.0
    }
}

/// Average-case success (Definition 2.5): both `RO` and `X` are drawn
/// fresh per trial.
pub fn average_case_success(
    pipeline: &Arc<Pipeline>,
    round_cap: usize,
    trials: usize,
    base_seed: u64,
) -> SuccessEstimate {
    let successes = (0..trials)
        .into_par_iter()
        .map(|t| {
            let seed = base_seed.wrapping_add(t as u64);
            let (oracle, blocks) = draw_instance(pipeline.params(), seed);
            usize::from(run_is_correct(pipeline, oracle, &blocks, round_cap, seed))
        })
        .sum();
    SuccessEstimate { trials, successes, round_cap }
}

/// Worst-case-style success on a *fixed* input (Definition 2.4's inner
/// probability): only `RO` is redrawn per trial.
pub fn success_on_input(
    pipeline: &Arc<Pipeline>,
    blocks: &[BitVec],
    round_cap: usize,
    trials: usize,
    base_seed: u64,
) -> SuccessEstimate {
    let successes = (0..trials)
        .into_par_iter()
        .map(|t| {
            let seed = base_seed.wrapping_add(t as u64);
            let oracle = Arc::new(LazyOracle::square(seed, pipeline.params().n));
            usize::from(run_is_correct(pipeline, oracle, blocks, round_cap, seed))
        })
        .sum();
    SuccessEstimate { trials, successes, round_cap }
}

fn run_is_correct(
    pipeline: &Arc<Pipeline>,
    oracle: Arc<LazyOracle>,
    blocks: &[BitVec],
    round_cap: usize,
    seed: u64,
) -> bool {
    let expected = reference_output(&**pipeline, &*oracle, blocks);
    let mut sim = pipeline.build_simulation(
        oracle as Arc<dyn Oracle>,
        RandomTape::new(seed),
        pipeline.required_s(),
        None,
        blocks,
    );
    match sim.run_until_output(round_cap) {
        Ok(result) => RoundMeasurement::of(&result, &expected).correct,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pipeline::Target;
    use crate::algorithms::BlockAssignment;
    use crate::params::LineParams;

    fn pipeline(window: usize) -> Arc<Pipeline> {
        let params = LineParams::new(64, 60, 16, 12);
        Pipeline::new(params, BlockAssignment::new(12, 4, window), Target::Line)
    }

    #[test]
    fn generous_cap_always_succeeds() {
        let p = pipeline(4);
        let est = average_case_success(&p, 1000, 12, 1);
        assert_eq!(est.successes, est.trials);
        assert!(est.succeeds_per_definition());
    }

    #[test]
    fn tight_cap_fails_per_definition() {
        // Line with window/v = 1/3 needs ≈ w(1-1/3) = 40 rounds; cap at 10
        // and the success rate collapses below 1/3 — the theorem's
        // conclusion at toy scale.
        let p = pipeline(4);
        let est = average_case_success(&p, 10, 12, 2);
        assert!(!est.succeeds_per_definition(), "rate {} should be below 1/3", est.rate());
    }

    #[test]
    fn wide_memory_succeeds_in_one_round() {
        let p = pipeline(12); // window = v
        let est = average_case_success(&p, 1, 8, 3);
        assert_eq!(est.successes, est.trials);
    }

    #[test]
    fn worst_case_over_all_inputs_exhaustively() {
        // Definition 2.4 quantifies over EVERY input. At u = 2, v = 3 the
        // whole domain {0,1}^6 has 64 inputs — check them all: the honest
        // pipeline with a generous round cap computes Line on each.
        let params = LineParams::new(24, 6, 2, 3);
        let pipeline = Pipeline::new(params, BlockAssignment::new(3, 2, 2), Target::Line);
        for input in 0u64..64 {
            let blocks: Vec<BitVec> =
                (0..3).map(|j| BitVec::from_u64((input >> (2 * j)) & 0b11, 2)).collect();
            let est = success_on_input(&pipeline, &blocks, 1000, 2, input);
            assert_eq!(est.successes, est.trials, "input {input:06b}");
        }
    }

    #[test]
    fn fixed_input_estimates_definition_24() {
        let p = pipeline(4);
        let (_, blocks) = crate::theorem::draw_instance(p.params(), 99);
        let est = success_on_input(&p, &blocks, 1000, 8, 4);
        assert_eq!(est.successes, est.trials);
        let est = success_on_input(&p, &blocks, 5, 8, 5);
        assert!(est.rate() < 1.0 / 3.0);
    }
}

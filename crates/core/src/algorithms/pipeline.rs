//! The honest token-walking MPC algorithm.
//!
//! Machines hold replicated contiguous windows of input blocks
//! ([`super::BlockAssignment`]); a single *token* `(i, ℓ, r)` carries the
//! evaluation front. Per round, the machine holding the token advances the
//! line as far as its local blocks allow — each advance is one oracle query
//! — then hands the token to the machine routed for the next needed block.
//! Blocks persist by self-messaging, so the *entire* cross-round state is
//! message traffic, charged bit-for-bit against `s`.
//!
//! This is the strategy the paper's intuition describes ("the machines can
//! only learn the value of at most `s/u` new nodes" per round), and its
//! measured round complexity is exactly the theorems' envelope:
//!
//! * `SimLine`, contiguous windows: advances `≈ window` nodes per visit →
//!   `≈ w·u/s` rounds (Theorem A.1 tight).
//! * `Line`: each advance survives locally with probability `window/v`, so
//!   visits advance `≈ 1/(1 − window/v)` nodes → `≈ w·(1 − s/S)` rounds —
//!   `Ω(w)` for any `s ≤ S/c` (Theorem 3.1's shape).
//! * `window = v` (i.e. `s ≥ S` plus overhead): one round.

use super::{BlockAssignment, Codec, ParsedView};
use crate::params::LineParams;
use mph_bits::{BitSlice, BitVec};
use mph_mpc::{Inbox, MachineLogic, ModelViolation, Outbox, RoundCtx, Simulation};
use mph_oracle::{Oracle, RandomTape};
use std::sync::Arc;

/// Which function the pipeline computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `Line` (Section 3): oracle-chosen pointers.
    Line,
    /// `SimLine` (Appendix A): the public cyclic schedule.
    SimLine,
}

/// The pipeline algorithm: configuration plus [`MachineLogic`].
pub struct Pipeline {
    params: LineParams,
    assignment: BlockAssignment,
    codec: Codec,
    target: Target,
}

impl Pipeline {
    /// A pipeline for `params` over `assignment`, computing `target`.
    pub fn new(params: LineParams, assignment: BlockAssignment, target: Target) -> Arc<Self> {
        assert_eq!(assignment.v, params.v, "assignment/params block count mismatch");
        Arc::new(Pipeline { params, assignment, codec: Codec::new(params), target })
    }

    /// The widest-memory configuration: one machine holds everything and
    /// finishes in one round (the trivial upper bound when `s ≥ S`).
    pub fn wide(params: LineParams, m: usize, target: Target) -> Arc<Self> {
        Self::new(params, BlockAssignment::new(params.v, m, params.v), target)
    }

    /// The instance parameters.
    pub fn params(&self) -> &LineParams {
        &self.params
    }

    /// The block assignment.
    pub fn assignment(&self) -> &BlockAssignment {
        &self.assignment
    }

    /// The wire codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Which function this pipeline computes.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The local memory `s` (bits) this configuration needs: the window
    /// plus a token, but never less than the `n`-bit oracle answer the
    /// finishing machine must hold to emit as output (the executor bounds a
    /// round's sends *plus output* by `s`).
    pub fn required_s(&self) -> usize {
        self.codec.required_s(self.assignment.window).max(self.params.n)
    }

    /// Builds a ready-to-run simulation: installs the logic on all `m`
    /// machines, seeds every machine's block window and the initial token
    /// `(i=1, ℓ=0, r=0^u)` at the machine routed for block 0.
    pub fn build_simulation(
        self: &Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        let mut sim = Simulation::new(self.assignment.m, s_bits, oracle, tape);
        if let Some(q) = q {
            sim.set_query_budget(q);
        }
        self.install_and_seed(&mut sim, blocks);
        sim
    }

    /// Reuses an already-built simulation for a fresh trial: swaps in the
    /// new oracle/tape/budget via [`Simulation::reinit`] (retaining the
    /// executor's internal buffers), reinstalls this pipeline's logic
    /// (the previous trial may have run a different pipeline with the
    /// same machine count), and re-seeds blocks and the initial token.
    /// Observationally identical to [`Self::build_simulation`]; the
    /// simulation must have matching `m` and `s_bits`.
    pub fn reset_simulation(
        self: &Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    ) {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        assert_eq!(sim.m(), self.assignment.m, "machine count mismatch on reuse");
        sim.reinit(oracle, tape, q);
        self.install_and_seed(sim, blocks);
    }

    /// The shared tail of [`Self::build_simulation`] and
    /// [`Self::reset_simulation`]: installs the logic on all machines,
    /// seeds every machine's block window, and places the initial token
    /// `(i=1, ℓ=0, r=0^u)` at the machine routed for block 0.
    fn install_and_seed(self: &Arc<Self>, sim: &mut Simulation, blocks: &[BitVec]) {
        let logic: Arc<dyn MachineLogic> = Arc::clone(self) as Arc<dyn MachineLogic>;
        sim.set_uniform_logic(logic);
        for machine in 0..self.assignment.m {
            for idx in self.assignment.blocks_of(machine) {
                sim.seed_memory(machine, self.codec.encode_block(idx, &blocks[idx]));
            }
        }
        let start = self.assignment.route(0);
        sim.seed_memory(start, self.codec.encode_token(1, 0, &BitVec::zeros(self.params.u)));
    }
}

impl Target {
    /// The block node `i` needs when the current pointer is `l`.
    pub(super) fn needed_block(self, params: &LineParams, i: u64, l: usize) -> usize {
        match self {
            Target::Line => l,
            Target::SimLine => ((i - 1) % params.v as u64) as usize,
        }
    }
}

/// Reusable buffers for the token walk: the chain value, the packed query,
/// and the oracle answer. One instance lives per `round` call; every
/// advance reuses the same three allocations.
pub(super) struct WalkScratch {
    /// The chain value `r` of the next node.
    pub(super) r: BitVec,
    query: BitVec,
    /// The last oracle answer: the function output once node `w` is done.
    pub(super) answer: BitVec,
}

impl WalkScratch {
    /// Scratch for a walk whose next chain value is `r`.
    pub(super) fn new(r: &BitSlice<'_>) -> Self {
        WalkScratch { r: r.to_bitvec(), query: BitVec::new(), answer: BitVec::new() }
    }

    /// One oracle step: query node `i` of `target` with block `x` and
    /// chain `self.r`, updating the buffers in place and returning the new
    /// pointer `ℓ`. Steady-state advances touch only the three reused
    /// buffers — no allocation per step.
    pub(super) fn advance(
        &mut self,
        params: &LineParams,
        target: Target,
        ctx: &RoundCtx<'_>,
        i: u64,
        x: &BitSlice<'_>,
    ) -> Result<usize, ModelViolation> {
        let r = self.r.as_view();
        match target {
            Target::Line => params.pack_query_into(i, x, &r, &mut self.query),
            Target::SimLine => params.pack_simline_query_into(x, &r, &mut self.query),
        }
        ctx.query_into(&self.query.as_view(), &mut self.answer)?;
        let (l, r_off) = match target {
            Target::Line => (params.extract_pointer(&self.answer), params.l_width()),
            // SimLine answers are (r, z): the chain value leads, and the
            // pointer is unused (the schedule is public).
            Target::SimLine => (0, 0),
        };
        // The chain field of the answer becomes the next step's r. Copy it
        // out (u bits into a reused buffer) so the answer buffer is free to
        // be overwritten by the next query.
        self.r.clear();
        self.r.extend_from_view(&self.answer.view(r_off, params.u));
        Ok(l)
    }
}

impl MachineLogic for Pipeline {
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        // Parse memory zero-copy: the block window and (possibly) the
        // token stay as views into the round arena. The window is
        // persisted by re-bundling every held block record into ONE
        // concatenated self-message — a machine's cross-round state is a
        // single s-bit memory image, and shipping it as a single message
        // costs one send record, one routing decision and one inbox entry
        // per round instead of one per block (the wire bits are
        // identical). Round-0 seeds arrive as single-block bundles and
        // coalesce on the first forward. Only the token holder needs
        // blocks *indexed*; every other machine — the common case, all
        // but one per round — validates and forwards with no per-round
        // block table at all.
        let mut token: Option<(u64, usize, BitSlice<'_>)> = None;
        let mut holds_blocks = false;
        for msg in incoming.iter() {
            if let Some(records) = self.codec.bundle_records(&msg.payload) {
                for k in 0..records {
                    let record = self.codec.bundle_record(&msg.payload, k);
                    if self.codec.block_record_index(&record).is_none() {
                        return Err(ctx.error(format!(
                            "malformed block record in bundle ({} bits) in memory",
                            msg.payload.len()
                        )));
                    }
                }
                holds_blocks = true;
            } else {
                match self.codec.decode_view(msg.payload) {
                    Some(ParsedView::Token { i, l, r }) => token = Some((i, l, r)),
                    _ => {
                        return Err(ctx.error(format!(
                            "malformed message ({} bits) in memory",
                            msg.payload.len()
                        )))
                    }
                }
            }
        }
        if holds_blocks {
            out.push_concat(
                ctx.machine(),
                incoming
                    .iter()
                    .filter(|msg| self.codec.bundle_records(&msg.payload).is_some())
                    .map(|msg| msg.payload),
            );
        }

        // Walk the line as far as local blocks allow. Queried blocks stay
        // zero-copy views into the round arena; the chain value, packed
        // query, and oracle answer cycle through one reused buffer each, so
        // a multi-advance visit allocates only on its first step.
        if let Some((mut i, mut l, r)) = token {
            // A second pass builds the block index — one header read per
            // record, and re-walking the one token holder's inbox is far
            // cheaper than allocating an index on the machines that never
            // consult one.
            let mut local: Vec<Option<BitSlice<'_>>> = vec![None; self.params.v];
            for msg in incoming.iter() {
                let Some(records) = self.codec.bundle_records(&msg.payload) else {
                    continue;
                };
                for k in 0..records {
                    let record = self.codec.bundle_record(&msg.payload, k);
                    if let Some(idx) = self.codec.block_record_index(&record) {
                        local[idx] = Some(self.codec.block_record_body(&record));
                    }
                }
            }
            let mut scratch = WalkScratch::new(&r);
            loop {
                debug_assert!(i <= self.params.w, "token index past the line");
                let needed = self.target.needed_block(&self.params, i, l);
                match &local[needed] {
                    Some(x) => {
                        l = scratch.advance(&self.params, self.target, ctx, i, x)?;
                        i += 1;
                        if i > self.params.w {
                            // The answer to query w is the function output.
                            // The machine is done — drop the window
                            // persistence self-messages (there is no next
                            // round to persist for), so the round's sends
                            // plus the output stay within the s-bit send
                            // bound.
                            let me = ctx.machine();
                            out.retain_sends(|to| to != me);
                            out.emit(scratch.answer);
                            break;
                        }
                    }
                    None => {
                        let dest = self.assignment.route(needed);
                        debug_assert_ne!(
                            dest,
                            ctx.machine(),
                            "routed to self for a block we do not hold"
                        );
                        out.push(dest, &self.codec.encode_token(i, l, &scratch.r));
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Line, SimLine};
    use mph_bits::random_blocks;
    use mph_oracle::LazyOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(
        params: LineParams,
        m: usize,
        window: usize,
        target: Target,
        seed: u64,
    ) -> (BitVec, usize, Vec<BitVec>, LazyOracle) {
        let assignment = BlockAssignment::new(params.v, m, window);
        let pipeline = Pipeline::new(params, assignment, target);
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        let mut sim =
            pipeline.build_simulation(oracle.clone(), RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(10 * params.w as usize + 10).unwrap();
        assert!(result.completed(), "pipeline must finish");
        (
            result.sole_output().unwrap().clone(),
            result.rounds(),
            blocks,
            LazyOracle::square(seed, params.n),
        )
    }

    #[test]
    fn line_pipeline_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (out, _rounds, blocks, oracle) = run(params, 4, 4, Target::Line, 1);
        assert_eq!(out, Line::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn simline_pipeline_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (out, _rounds, blocks, oracle) = run(params, 4, 4, Target::SimLine, 2);
        assert_eq!(out, SimLine::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn wide_memory_finishes_in_one_round() {
        let params = LineParams::new(64, 50, 16, 12);
        let (out, rounds, blocks, oracle) = run(params, 4, params.v, Target::Line, 3);
        assert_eq!(rounds, 1);
        assert_eq!(out, Line::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn simline_rounds_scale_inversely_with_window() {
        // Theorem A.1's tight shape: rounds ≈ w / window.
        let params = LineParams::new(64, 96, 16, 16);
        let (_, r_small, _, _) = run(params, 4, 4, Target::SimLine, 4);
        let (_, r_big, _, _) = run(params, 4, 8, Target::SimLine, 4);
        // window 4: ~w/4 = 24+; window 8: ~w/8 = 12+. Allow slack for
        // hop rounds.
        assert!(r_small > r_big, "rounds {r_small} vs {r_big}");
        assert!((20..=40).contains(&r_small), "r_small = {r_small}");
        assert!((10..=20).contains(&r_big), "r_big = {r_big}");
    }

    #[test]
    fn line_rounds_stay_linear_despite_big_windows() {
        // Theorem 3.1's shape: as long as window/v is bounded below 1,
        // rounds stay Ω(w) — unlike SimLine.
        let params = LineParams::new(64, 200, 16, 16);
        let (_, r4, _, _) = run(params, 4, 4, Target::Line, 5);
        let (_, r8, _, _) = run(params, 4, 8, Target::Line, 5);
        // Expected ≈ w(1 - f): f=0.25 -> 150, f=0.5 -> 100.
        assert!(r4 as f64 > 200.0 * 0.55, "r4 = {r4}");
        assert!(r8 as f64 > 200.0 * 0.3, "r8 = {r8}");
        // Both remain a constant fraction of w; the win from doubling the
        // window is bounded (vs SimLine's proportional win).
        assert!((r4 as f64) < 200.0, "r4 = {r4}");
        assert!(r8 < r4);
    }

    #[test]
    fn memory_bound_is_respected_exactly() {
        let params = LineParams::new(64, 30, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let oracle = Arc::new(LazyOracle::square(9, params.n));
        let mut rng = StdRng::seed_from_u64(9);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        // Exactly the required s works ...
        let s = pipeline.required_s();
        let mut sim =
            pipeline.build_simulation(oracle.clone(), RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(1000).unwrap();
        assert!(result.completed());
        assert!(result.stats.peak_memory_bits() <= s);
        // ... one bit less does not.
        let mut sim = pipeline.build_simulation(oracle, RandomTape::new(0), s - 1, None, &blocks);
        let err = sim.run_until_output(1000).unwrap_err();
        assert!(matches!(err, ModelViolation::MemoryExceeded { .. }));
    }

    #[test]
    fn query_budget_suffices_at_window_per_round() {
        let params = LineParams::new(64, 40, 16, 8);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let pipeline = Pipeline::new(params, assignment, Target::SimLine);
        let oracle = Arc::new(LazyOracle::square(10, params.n));
        let mut rng = StdRng::seed_from_u64(10);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        // SimLine advances at most window+? nodes per visit; q = window + 1
        // is plenty.
        let mut sim = pipeline.build_simulation(
            oracle,
            RandomTape::new(0),
            s,
            Some(params.v as u64 + 1),
            &blocks,
        );
        let result = sim.run_until_output(1000).unwrap();
        assert!(result.completed());
        assert!(result.stats.peak_queries() <= params.v as u64 + 1);
    }

    #[test]
    fn reset_simulation_matches_fresh_build_across_targets() {
        // One simulation carried across trials — including a switch of
        // pipeline (Line → SimLine) with the same machine count — must
        // reproduce fresh-built runs exactly.
        let params = LineParams::new(64, 60, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let line = Pipeline::new(params, assignment, Target::Line);
        let simline = Pipeline::new(params, assignment, Target::SimLine);
        let s = line.required_s().max(simline.required_s());

        let fresh = |pipeline: &Arc<Pipeline>, seed: u64| {
            let oracle = Arc::new(LazyOracle::square(seed, params.n));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            let mut sim =
                pipeline.build_simulation(oracle, RandomTape::new(seed), s, None, &blocks);
            sim.run_until_output(10_000).unwrap()
        };

        let mut sim = {
            let oracle = Arc::new(LazyOracle::square(7, params.n));
            let mut rng = StdRng::seed_from_u64(7 ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            line.build_simulation(oracle, RandomTape::new(7), s, None, &blocks)
        };
        sim.run_until_output(10_000).unwrap();

        for (pipeline, seed) in [(&line, 21u64), (&simline, 22), (&line, 23), (&simline, 21)] {
            let oracle = Arc::new(LazyOracle::square(seed, params.n));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
            let blocks = random_blocks(&mut rng, params.v, params.u);
            pipeline.reset_simulation(&mut sim, oracle, RandomTape::new(seed), None, &blocks);
            let reused = sim.run_until_output(10_000).unwrap();
            let baseline = fresh(pipeline, seed);
            assert_eq!(reused.outputs, baseline.outputs);
            assert_eq!(reused.rounds(), baseline.rounds());
            assert_eq!(reused.stats, baseline.stats);
        }
    }

    #[test]
    fn total_queries_equal_w() {
        // The honest algorithm queries each node exactly once.
        let params = LineParams::new(64, 70, 16, 8);
        let (out, _, blocks, oracle) = run(params, 4, 3, Target::Line, 11);
        let _ = (out, blocks, oracle);
        let assignment = BlockAssignment::new(params.v, 4, 3);
        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let oracle = Arc::new(LazyOracle::square(11, params.n));
        let mut rng = StdRng::seed_from_u64(11 ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        let mut sim = pipeline.build_simulation(oracle, RandomTape::new(0), s, None, &blocks);
        let result = sim.run_until_output(10_000).unwrap();
        assert_eq!(result.stats.total_queries(), params.w);
    }
}

//! The broadcast-frontier algorithm — an ablation of the pipeline.
//!
//! One might suspect the pipeline's round count is an artifact of
//! point-to-point routing: maybe machines that *shared* the evaluation
//! frontier more aggressively could overlap work. This variant tests that:
//! whichever machine advances the line **broadcasts** the frontier
//! `(i, ℓ, r)` to *every* machine at round end; all machines see the full
//! frontier every round, and the designated holder of the needed block
//! continues.
//!
//! The measured result (see `exp_ablation` and the tests): identical round
//! counts to the routed pipeline, at `m×` the token communication. The
//! bottleneck is *information* — nobody can act on node `i+1` before node
//! `i`'s answer exists, and only a machine holding `x_{ℓ_{i+1}}` can
//! produce it — not addressing. That is the theorem's content in
//! algorithmic form.

use super::pipeline::WalkScratch;
use super::{BlockAssignment, Codec, ParsedView};
use crate::params::LineParams;
use mph_bits::{BitSlice, BitVec};
use mph_mpc::{Inbox, MachineLogic, ModelViolation, Outbox, RoundCtx, Simulation};
use mph_oracle::{Oracle, RandomTape};
use std::sync::Arc;

pub use super::pipeline::Target;

/// The broadcast-frontier algorithm: configuration plus [`MachineLogic`].
pub struct Broadcast {
    params: LineParams,
    assignment: BlockAssignment,
    codec: Codec,
    target: Target,
}

impl Broadcast {
    /// A broadcast algorithm for `params` over `assignment`.
    pub fn new(params: LineParams, assignment: BlockAssignment, target: Target) -> Arc<Self> {
        assert_eq!(assignment.v, params.v, "assignment/params block count mismatch");
        Arc::new(Broadcast { params, assignment, codec: Codec::new(params), target })
    }

    /// The local memory `s` (bits) this configuration needs: the window
    /// plus one frontier token from *each* machine (every machine may
    /// receive the broadcast), and never less than the `n`-bit output the
    /// finishing machine emits.
    pub fn required_s(&self) -> usize {
        (self.codec.required_s(self.assignment.window)
            + (self.assignment.m - 1) * self.codec.token_bits())
        .max(self.params.n)
    }

    /// Builds a ready-to-run simulation (mirrors
    /// `Pipeline::build_simulation`).
    pub fn build_simulation(
        self: &Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        let m = self.assignment.m;
        let mut sim = Simulation::new(m, s_bits, oracle, tape);
        if let Some(q) = q {
            sim.set_query_budget(q);
        }
        let logic: Arc<dyn MachineLogic> = Arc::clone(self) as Arc<dyn MachineLogic>;
        sim.set_uniform_logic(logic);
        for machine in 0..m {
            for idx in self.assignment.blocks_of(machine) {
                sim.seed_memory(machine, self.codec.encode_block(idx, &blocks[idx]));
            }
            // The initial frontier is broadcast: everyone starts knowing it.
            sim.seed_memory(machine, self.codec.encode_token(1, 0, &BitVec::zeros(self.params.u)));
        }
        sim
    }
}

impl MachineLogic for Broadcast {
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        // Parse zero-copy; blocks are persisted by forwarding their wire
        // view verbatim, never re-encoded.
        let mut local: Vec<Option<BitSlice<'_>>> = vec![None; self.params.v];
        let mut frontier: Option<(u64, usize, BitSlice<'_>)> = None;
        for msg in incoming.iter() {
            match self.codec.decode_view(msg.payload) {
                Some(ParsedView::Block { idx, x }) => {
                    local[idx] = Some(x);
                    out.push_view(ctx.machine(), msg.payload);
                }
                Some(ParsedView::Token { i, l, r }) => {
                    // All broadcast copies are identical; keep the freshest
                    // (largest i) defensively.
                    if frontier.as_ref().is_none_or(|(fi, _, _)| i > *fi) {
                        frontier = Some((i, l, r));
                    }
                }
                None => return Err(ctx.error("malformed message in memory")),
            }
        }

        if let Some((mut i, mut l, r)) = frontier {
            // Only the designated holder acts; everyone else just watches
            // the frontier go by (and re-learns it next round from the
            // broadcast).
            let needed = self.target.needed_block(&self.params, i, l);
            if self.assignment.route(needed) != ctx.machine() {
                return Ok(());
            }
            let mut scratch = WalkScratch::new(&r);
            loop {
                let needed = self.target.needed_block(&self.params, i, l);
                match &local[needed] {
                    Some(x) => {
                        l = scratch.advance(&self.params, self.target, ctx, i, x)?;
                        i += 1;
                        if i > self.params.w {
                            // Done — drop the window persistence
                            // self-messages (no next round to persist for)
                            // so sends plus output stay within the s-bit
                            // send bound.
                            let me = ctx.machine();
                            out.retain_sends(|to| to != me);
                            out.emit(scratch.answer);
                            return Ok(());
                        }
                    }
                    None => break,
                }
            }
            // Broadcast the new frontier to everyone.
            let token = self.codec.encode_token(i, l, &scratch.r);
            for machine in 0..ctx.m() {
                out.push(machine, &token);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::pipeline::Pipeline;
    use crate::Line;
    use mph_bits::random_blocks;
    use mph_oracle::LazyOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_broadcast(
        params: LineParams,
        m: usize,
        window: usize,
        target: Target,
        seed: u64,
    ) -> (BitVec, usize) {
        let algo = Broadcast::new(params, BlockAssignment::new(params.v, m, window), target);
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut sim =
            algo.build_simulation(oracle, RandomTape::new(0), algo.required_s(), None, &blocks);
        let result = sim.run_until_output(100_000).unwrap();
        assert!(result.completed());
        (result.sole_output().unwrap().clone(), result.rounds())
    }

    #[test]
    fn computes_line_correctly() {
        let params = LineParams::new(64, 50, 16, 12);
        let (out, _) = run_broadcast(params, 4, 4, Target::Line, 1);
        let oracle = LazyOracle::square(1, 64);
        let mut rng = StdRng::seed_from_u64(1 ^ 0x77);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        assert_eq!(out, Line::new(params).eval(&oracle, &blocks));
    }

    #[test]
    fn broadcasting_buys_no_rounds() {
        // The ablation claim: same rounds as the routed pipeline, more
        // communication. (Compare on identical (RO, X): the broadcast run
        // uses the frontier holder = route(needed), identical to routing.)
        let params = LineParams::new(64, 120, 16, 16);
        let seed = 5;
        let (_, r_broadcast) = run_broadcast(params, 4, 4, Target::Line, seed);
        let pipeline = Pipeline::new(params, BlockAssignment::new(params.v, 4, 4), Target::Line);
        // theorem::draw_instance derives blocks differently; rebuild the
        // broadcast's instance for the pipeline run instead.
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut sim = pipeline.build_simulation(
            oracle,
            RandomTape::new(0),
            pipeline.required_s(),
            None,
            &blocks,
        );
        let r_pipeline = sim.run_until_output(100_000).unwrap().rounds();
        assert_eq!(r_broadcast, r_pipeline, "broadcast must not beat routing");
    }

    #[test]
    fn broadcast_communicates_more() {
        let params = LineParams::new(64, 60, 16, 12);
        let seed = 9;
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let blocks = random_blocks(&mut rng, params.v, params.u);

        let b = Broadcast::new(params, BlockAssignment::new(12, 4, 4), Target::Line);
        let mut sim =
            b.build_simulation(oracle.clone(), RandomTape::new(0), b.required_s(), None, &blocks);
        let broadcast_bits = sim.run_until_output(100_000).unwrap().stats.total_bits();

        let p = Pipeline::new(params, BlockAssignment::new(12, 4, 4), Target::Line);
        let mut sim = p.build_simulation(oracle, RandomTape::new(0), p.required_s(), None, &blocks);
        let pipeline_bits = sim.run_until_output(100_000).unwrap().stats.total_bits();

        assert!(
            broadcast_bits > pipeline_bits,
            "broadcast {broadcast_bits} vs pipeline {pipeline_bits}"
        );
    }

    #[test]
    fn works_for_simline_too() {
        let params = LineParams::new(64, 48, 16, 12);
        let (out, rounds) = run_broadcast(params, 4, 4, Target::SimLine, 3);
        let oracle = LazyOracle::square(3, 64);
        let mut rng = StdRng::seed_from_u64(3 ^ 0x77);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        assert_eq!(out, crate::SimLine::new(params).eval(&oracle, &blocks));
        assert!(rounds >= 48 / 4);
    }
}

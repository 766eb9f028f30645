//! The fault-tolerant, group-replicated token-walking algorithm.
//!
//! [`Pipeline`](super::Pipeline) dies with its machines: one crash while a
//! machine holds the token — or before it ever receives it — and the run
//! can never complete. [`ReplicatedPipeline`] trades memory and traffic
//! for survival, exploiting the redundancy the honest algorithm already
//! has (windows are *replicated* across machines; Theorem 3.1 quantifies
//! over this algorithm too — fault tolerance costs rounds, never
//! correctness):
//!
//! * The `m = groups · ρ` machines form `groups` replica groups of size
//!   `ρ`; every member of a group holds the *same* block window, assigned
//!   group-wise by [`BlockAssignment`].
//! * The token is **multicast**: a group member forwarding the token sends
//!   one copy to *each* member of the destination group (`ρ²` copies per
//!   hop across the group). All surviving members of the holding group
//!   advance identically — queries are deterministic, so replicas stay in
//!   lock-step without coordination — and a receiver keeps the copy with
//!   the largest node index `i`, discarding stale straggler duplicates.
//! * Every message rides a **checksum frame** ([`FRAME_CHECK_BITS`] check
//!   bits prepended to the payload). A copy that fails verification is
//!   discarded when replicas remain (`ρ ≥ 2` — recovery), and surfaced as
//!   [`ModelViolation::AlgorithmError`] when it was the only copy
//!   (`ρ = 1`) — corruption becomes a *detected* failure, never a silent
//!   wrong output.
//! * A member that receives the token but finds a block of its own window
//!   missing hands the token to its group siblings, who hold the same
//!   window — the missing-window recovery path.
//!
//! With `ρ = 1` the protocol *is* the plain pipeline (same hops, same
//! queries, same rounds) plus the checksum guard; recovery overhead is
//! measured by `exp_fault_tolerance` against that baseline. Every
//! surviving replica of the finishing group emits the answer, so runs are
//! judged by [`RunResult::unanimous_output`], not `sole_output`.
//!
//! [`RunResult::unanimous_output`]: mph_mpc::RunResult::unanimous_output

use super::pipeline::{Target, WalkScratch};
use super::{BlockAssignment, Codec, ParsedView};
use crate::params::LineParams;
use mph_bits::{BitSlice, BitVec};
use mph_mpc::{Inbox, MachineLogic, ModelViolation, Outbox, RoundCtx, Simulation};
use mph_oracle::{Oracle, RandomTape};
use std::sync::Arc;

/// Width of the checksum prepended to every framed message.
pub const FRAME_CHECK_BITS: usize = 32;

/// A 32-bit checksum over a payload's words and length (splitmix64-style
/// mixing, folded to 32 bits). One flipped bit anywhere in the frame —
/// payload or checksum field — makes verification fail. The words are
/// read in place (`BitSlice::read_word`), at any arena offset.
fn checksum(bits: &BitSlice<'_>) -> u32 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (bits.len() as u64);
    for w in (0..bits.n_words()).map(|i| bits.read_word(i)) {
        h = (h ^ w).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    (h ^ (h >> 32)) as u32
}

/// The replicated pipeline: configuration plus [`MachineLogic`].
pub struct ReplicatedPipeline {
    params: LineParams,
    /// Group-level assignment: `v` blocks across `groups` windows.
    assignment: BlockAssignment,
    codec: Codec,
    target: Target,
    /// Replication factor ρ: machines per group.
    rho: usize,
}

impl ReplicatedPipeline {
    /// A replicated pipeline over `groups · rho` machines computing
    /// `target`: `groups` contiguous windows of `window` blocks each
    /// (clamped like [`BlockAssignment::new`]), every window held by `rho`
    /// replicas.
    pub fn new(
        params: LineParams,
        groups: usize,
        window: usize,
        rho: usize,
        target: Target,
    ) -> Arc<Self> {
        assert!(rho >= 1, "need at least one replica per group");
        let assignment = BlockAssignment::new(params.v, groups, window);
        Arc::new(ReplicatedPipeline { params, assignment, codec: Codec::new(params), target, rho })
    }

    /// Total machine count `m = groups · ρ`.
    pub fn m(&self) -> usize {
        self.assignment.m * self.rho
    }

    /// The replication factor ρ.
    pub fn rho(&self) -> usize {
        self.rho
    }

    /// Which function this pipeline computes.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The instance parameters.
    pub fn params(&self) -> &LineParams {
        &self.params
    }

    /// The group-level block assignment.
    pub fn assignment(&self) -> &BlockAssignment {
        &self.assignment
    }

    /// Bits on the wire per framed block message.
    pub fn framed_block_bits(&self) -> usize {
        FRAME_CHECK_BITS + self.codec.block_bits()
    }

    /// Bits on the wire per framed token message.
    pub fn framed_token_bits(&self) -> usize {
        FRAME_CHECK_BITS + self.codec.token_bits()
    }

    /// The local memory `s` (bits) this configuration needs: the framed
    /// window plus `2ρ` framed tokens (a full multicast round of copies
    /// plus as many straggler-delayed duplicates arriving late), never
    /// less than the `n`-bit output the finishing machines must emit.
    pub fn required_s(&self) -> usize {
        (self.assignment.window * self.framed_block_bits()
            + 2 * self.rho * self.framed_token_bits())
        .max(self.params.n)
    }

    /// Wraps `inner` in a checksum frame.
    fn frame(&self, inner: &BitVec) -> BitVec {
        let mut framed = BitVec::from_u64(u64::from(checksum(&inner.as_view())), FRAME_CHECK_BITS);
        framed.extend_bits(inner);
        framed
    }

    /// Verifies and strips the checksum frame, zero-copy: the inner
    /// message stays a view into `payload`'s arena. `None` on any
    /// mismatch.
    fn unframe<'a>(&self, payload: BitSlice<'a>) -> Option<BitSlice<'a>> {
        if payload.len() <= FRAME_CHECK_BITS {
            return None;
        }
        let claimed = payload.read_u64(0, FRAME_CHECK_BITS) as u32;
        let inner = payload.slice(FRAME_CHECK_BITS, payload.len() - FRAME_CHECK_BITS);
        (checksum(&inner) == claimed).then_some(inner)
    }

    /// The group a machine belongs to.
    fn group_of(&self, machine: usize) -> usize {
        machine / self.rho
    }

    /// The machine ids of `group`'s members.
    fn members(&self, group: usize) -> impl Iterator<Item = usize> {
        let base = group * self.rho;
        base..base + self.rho
    }

    /// Builds a ready-to-run simulation: installs the logic on all
    /// `groups · ρ` machines, seeds every replica's window, and multicasts
    /// the initial token `(i=1, ℓ=0, r=0^u)` to every member of the group
    /// routed for block 0.
    pub fn build_simulation(
        self: &Arc<Self>,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        s_bits: usize,
        q: Option<u64>,
        blocks: &[BitVec],
    ) -> Simulation {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        let mut sim = Simulation::new(self.m(), s_bits, oracle, tape);
        if let Some(q) = q {
            sim.set_query_budget(q);
        }
        self.install_and_seed(&mut sim, blocks);
        sim
    }

    /// Reuses an already-built simulation for a fresh trial (the
    /// replicated analogue of [`super::Pipeline::reset_simulation`]).
    pub fn reset_simulation(
        self: &Arc<Self>,
        sim: &mut Simulation,
        oracle: Arc<dyn Oracle>,
        tape: RandomTape,
        q: Option<u64>,
        blocks: &[BitVec],
    ) {
        assert_eq!(blocks.len(), self.params.v, "expected v blocks");
        assert_eq!(sim.m(), self.m(), "machine count mismatch on reuse");
        sim.reinit(oracle, tape, q);
        self.install_and_seed(sim, blocks);
    }

    /// Shared tail of [`Self::build_simulation`] / [`Self::reset_simulation`].
    fn install_and_seed(self: &Arc<Self>, sim: &mut Simulation, blocks: &[BitVec]) {
        let logic: Arc<dyn MachineLogic> = Arc::clone(self) as Arc<dyn MachineLogic>;
        sim.set_uniform_logic(logic);
        for group in 0..self.assignment.m {
            for machine in self.members(group) {
                for idx in self.assignment.blocks_of(group) {
                    sim.seed_memory(
                        machine,
                        self.frame(&self.codec.encode_block(idx, &blocks[idx])),
                    );
                }
            }
        }
        let token = self.frame(&self.codec.encode_token(1, 0, &BitVec::zeros(self.params.u)));
        for machine in self.members(self.assignment.route(0)) {
            sim.seed_memory(machine, token.clone());
        }
    }
}

impl MachineLogic for ReplicatedPipeline {
    fn round(
        &self,
        ctx: &RoundCtx<'_>,
        incoming: &Inbox<'_>,
        out: &mut Outbox,
    ) -> Result<(), ModelViolation> {
        let me = ctx.machine();
        let my_group = self.group_of(me);

        // Parse memory. Checksum failures are recoverable while replicas
        // remain (the sibling copies carry the same data); with ρ = 1
        // there is no redundancy left, so corruption must surface as a
        // detected error rather than be dropped into a silent stall.
        // Window blocks are persisted by forwarding the verified framed
        // wire view verbatim — no re-encode, no re-frame.
        let mut local: Vec<Option<BitSlice<'_>>> = vec![None; self.params.v];
        let mut token: Option<(u64, usize, BitSlice<'_>)> = None;
        for msg in incoming.iter() {
            let Some(inner) = self.unframe(msg.payload) else {
                if self.rho == 1 {
                    return Err(ctx.error(format!(
                        "checksum mismatch on {}-bit message with no replica to recover from",
                        msg.payload.len()
                    )));
                }
                continue;
            };
            match self.codec.decode_view(inner) {
                Some(ParsedView::Block { idx, x }) => {
                    local[idx] = Some(x);
                    out.push_view(me, msg.payload);
                }
                Some(ParsedView::Token { i, l, r }) => {
                    // Keep the most advanced copy; stale straggler
                    // duplicates lose.
                    if token.as_ref().is_none_or(|(best, _, _)| i > *best) {
                        token = Some((i, l, r));
                    }
                }
                None => {
                    // The checksum matched but the content is malformed —
                    // not a transit fault; fail loudly on any ρ.
                    return Err(
                        ctx.error(format!("malformed {}-bit message passed checksum", inner.len()))
                    );
                }
            }
        }

        // Walk the line as far as local blocks allow, through the reused
        // buffers of the plain pipeline's walk.
        if let Some((mut i, mut l, r)) = token {
            let mut scratch = WalkScratch::new(&r);
            loop {
                debug_assert!(i <= self.params.w, "token index past the line");
                let needed = self.target.needed_block(&self.params, i, l);
                match &local[needed] {
                    Some(x) => {
                        l = scratch.advance(&self.params, self.target, ctx, i, x)?;
                        i += 1;
                        if i > self.params.w {
                            // Done: drop window persistence (no next round
                            // to persist for) and emit. Every surviving
                            // replica of this group does the same, so the
                            // output union is ρ identical strings.
                            out.retain_sends(|to| to != me);
                            out.emit(scratch.answer);
                            break;
                        }
                    }
                    None => {
                        let dest_group = self.assignment.route(needed);
                        if dest_group == my_group {
                            // A block of our own window is missing. Our
                            // siblings hold the same window — hand them
                            // the token (missing-window recovery).
                            if self.rho == 1 {
                                return Err(ctx.error(format!(
                                    "window block {needed} missing with no replica to recover \
                                     from"
                                )));
                            }
                            let framed = self.frame(&self.codec.encode_token(i, l, &scratch.r));
                            for sibling in self.members(my_group) {
                                if sibling != me {
                                    out.push(sibling, &framed);
                                }
                            }
                        } else {
                            let framed = self.frame(&self.codec.encode_token(i, l, &scratch.r));
                            for member in self.members(dest_group) {
                                out.push(member, &framed);
                            }
                        }
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
    use mph_mpc::faults::{FaultPlan, FaultSpec};
    use mph_mpc::RunResult;
    use mph_oracle::LazyOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_with(
        params: LineParams,
        groups: usize,
        window: usize,
        rho: usize,
        target: Target,
        seed: u64,
        plan: Option<FaultPlan>,
    ) -> (RunResult, Vec<BitVec>, LazyOracle) {
        let pipeline = ReplicatedPipeline::new(params, groups, window, rho, target);
        let oracle = Arc::new(LazyOracle::square(seed, params.n));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let s = pipeline.required_s();
        let mut sim = pipeline.build_simulation(oracle, RandomTape::new(0), s, None, &blocks);
        if let Some(plan) = plan {
            sim.set_fault_plan(plan);
        }
        let result = sim.run_until_output(10 * params.w as usize + 10).unwrap();
        (result, blocks, LazyOracle::square(seed, params.n))
    }

    #[test]
    fn replicated_line_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (result, blocks, oracle) = run_with(params, 4, 4, 2, Target::Line, 1, None);
        assert!(result.completed());
        assert_eq!(result.output_count(), 2, "both replicas of the finishing group emit");
        assert_eq!(
            result.unanimous_output().expect("replicas agree"),
            &Line::new(params).eval(&oracle, &blocks)
        );
    }

    #[test]
    fn replicated_simline_computes_the_function() {
        let params = LineParams::new(64, 60, 16, 12);
        let (result, blocks, oracle) = run_with(params, 4, 4, 3, Target::SimLine, 2, None);
        assert!(result.completed());
        assert_eq!(result.output_count(), 3);
        assert_eq!(
            result.unanimous_output().expect("replicas agree"),
            &SimLine::new(params).eval(&oracle, &blocks)
        );
    }

    #[test]
    fn rho_one_matches_plain_pipeline_rounds() {
        // With ρ = 1 the protocol is the plain pipeline plus framing: same
        // hops, same queries, same rounds.
        let params = LineParams::new(64, 60, 16, 12);
        let assignment = BlockAssignment::new(params.v, 4, 4);
        let plain = super::super::Pipeline::new(params, assignment, Target::SimLine);
        let oracle = Arc::new(LazyOracle::square(5, params.n));
        let mut rng = StdRng::seed_from_u64(5 ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut sim =
            plain.build_simulation(oracle, RandomTape::new(0), plain.required_s(), None, &blocks);
        let plain_result = sim.run_until_output(10_000).unwrap();

        let (replicated, _, _) = run_with(params, 4, 4, 1, Target::SimLine, 5, None);
        assert!(replicated.completed());
        assert_eq!(replicated.rounds(), plain_result.rounds());
        assert_eq!(replicated.unanimous_output(), plain_result.sole_output());
        assert_eq!(replicated.stats.total_queries(), plain_result.stats.total_queries());
    }

    #[test]
    fn corruption_with_rho_one_is_a_detected_error() {
        // drop-in corruption at rate 1 hits the first cross-machine token
        // hop; the sole replica must turn the checksum mismatch into an
        // AlgorithmError, never a silent stall or wrong output.
        let params = LineParams::new(64, 60, 16, 12);
        let pipeline = ReplicatedPipeline::new(params, 4, 4, 1, Target::SimLine);
        let oracle = Arc::new(LazyOracle::square(3, params.n));
        let mut rng = StdRng::seed_from_u64(3 ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut sim = pipeline.build_simulation(
            oracle,
            RandomTape::new(0),
            pipeline.required_s(),
            None,
            &blocks,
        );
        sim.set_fault_plan(FaultPlan::new(
            11,
            FaultSpec { corrupt_rate: 1.0, ..FaultSpec::default() },
        ));
        let err = sim.run_until_output(10_000).unwrap_err();
        match err {
            ModelViolation::AlgorithmError { reason, .. } => {
                assert!(reason.contains("checksum"), "unexpected reason: {reason}");
            }
            other => panic!("expected AlgorithmError, got {other:?}"),
        }
    }

    #[test]
    fn replication_survives_crashes_that_kill_the_plain_pipeline() {
        // One fault seed, one crash rate: every ρ = 1 run dies, ρ = 2
        // still completes with the correct output. This is the acceptance
        // shape exp_fault_tolerance sweeps.
        let params = LineParams::new(64, 48, 16, 12);
        let spec = FaultSpec { crash_rate: 0.03, ..FaultSpec::default() };
        let mut plain_failures = 0;
        let mut replicated_ok = 0;
        let trials = 6;
        for t in 0..trials {
            let plan = FaultPlan::new(1000 + t, spec);
            let (plain, _, _) = run_with(params, 4, 3, 1, Target::SimLine, t, Some(plan));
            if !plain.completed() {
                plain_failures += 1;
            }
            let (rep, blocks, oracle) = run_with(params, 4, 3, 2, Target::SimLine, t, Some(plan));
            if rep.completed()
                && rep.unanimous_output() == Some(&SimLine::new(params).eval(&oracle, &blocks))
            {
                replicated_ok += 1;
            }
        }
        let plain_ok = trials - plain_failures;
        assert!(
            plain_failures >= 3,
            "crash rate should kill most plain runs: only {plain_failures}/{trials} failed"
        );
        assert!(
            replicated_ok > plain_ok,
            "replication must beat the plain pipeline: plain ok {plain_ok}/{trials}, \
             replicated ok {replicated_ok}/{trials}"
        );
    }

    #[test]
    fn missing_window_block_recovers_via_siblings() {
        // Surgically remove block 0 from the token-holding replica's
        // window at seeding time: the member must hand the token to its
        // sibling instead of stalling.
        let params = LineParams::new(64, 20, 16, 8);
        let pipeline = ReplicatedPipeline::new(params, 4, 2, 2, Target::SimLine);
        let oracle = Arc::new(LazyOracle::square(6, params.n));
        let mut rng = StdRng::seed_from_u64(6 ^ 0x55);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let mut sim =
            Simulation::new(pipeline.m(), pipeline.required_s(), oracle, RandomTape::new(0));
        let logic: Arc<dyn MachineLogic> = Arc::clone(&pipeline) as Arc<dyn MachineLogic>;
        sim.set_uniform_logic(logic);
        let start_group = pipeline.assignment().route(0);
        let holder = start_group * pipeline.rho(); // first member gets the token
        for group in 0..pipeline.assignment().m {
            for machine in pipeline.members(group) {
                for idx in pipeline.assignment().blocks_of(group) {
                    if machine == holder && idx == 0 {
                        continue; // the surgically missing window block
                    }
                    sim.seed_memory(
                        machine,
                        pipeline.frame(&pipeline.codec.encode_block(idx, &blocks[idx])),
                    );
                }
            }
        }
        sim.seed_memory(
            holder,
            pipeline.frame(&pipeline.codec.encode_token(1, 0, &BitVec::zeros(params.u))),
        );
        let result = sim.run_until_output(10_000).unwrap();
        assert!(result.completed(), "sibling recovery must keep the run alive");
        assert_eq!(
            result.unanimous_output().expect("replicas agree"),
            &SimLine::new(params).eval(&LazyOracle::square(6, params.n), &blocks)
        );
    }

    #[test]
    fn frame_roundtrip_and_tamper_detection() {
        let params = LineParams::new(64, 20, 16, 8);
        let pipeline = ReplicatedPipeline::new(params, 2, 4, 2, Target::Line);
        let inner = pipeline.codec.encode_token(3, 1, &BitVec::ones(16));
        let framed = pipeline.frame(&inner);
        assert_eq!(framed.len(), inner.len() + FRAME_CHECK_BITS);
        assert_eq!(pipeline.unframe(framed.as_view()), Some(inner.as_view()));
        for bit in [0, FRAME_CHECK_BITS - 1, FRAME_CHECK_BITS, framed.len() - 1] {
            let mut tampered = framed.clone();
            tampered.set(bit, !tampered.get(bit));
            assert_eq!(pipeline.unframe(tampered.as_view()), None, "flip at {bit} must be caught");
        }
        assert_eq!(pipeline.unframe(BitVec::zeros(FRAME_CHECK_BITS).as_view()), None);
        // A frame read out of an arena at an unaligned offset verifies too.
        let mut arena = BitVec::ones(13);
        arena.extend_bits(&framed);
        assert_eq!(pipeline.unframe(arena.view(13, framed.len())), Some(inner.as_view()));
    }

    #[test]
    fn required_s_is_sufficient_and_respected() {
        let params = LineParams::new(64, 40, 16, 12);
        let (result, _, _) = run_with(params, 4, 4, 2, Target::SimLine, 8, None);
        assert!(result.completed());
        let pipeline = ReplicatedPipeline::new(params, 4, 4, 2, Target::SimLine);
        assert!(result.stats.peak_memory_bits() <= pipeline.required_s());
    }
}

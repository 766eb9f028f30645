//! The warm-up function `SimLine_{n,w,u,v}` of Appendix A.
//!
//! Identical to `Line` except the block schedule is *public and cyclic*:
//! iteration `i` consumes `x_{(i-1) mod v}` (0-based), so queries carry no
//! index field:
//!
//! ```text
//! (r_{i+1}, z_{i+1}) := RO(x_{(i-1) mod v}, r_i, 0^*)   for i = 1..w
//! ```
//!
//! Because the schedule is predictable, an MPC machine holding a contiguous
//! window of `h` blocks advances `h` nodes per visit, and the lower bound
//! degrades to `Ω(T·u/s)` rounds (Theorem A.1) instead of `Line`'s `Ω̃(T)` —
//! the pair of functions together demonstrates exactly what the random
//! pointer buys.

use crate::params::LineParams;
use crate::trace::{EvalTrace, Node};
use mph_bits::BitVec;
use mph_oracle::Oracle;
use mph_ram::{gen_simline_program, Ram, RamStats};

/// A `SimLine` instance.
///
/// # Examples
///
/// ```
/// use mph_core::{SimLine, LineParams};
/// use mph_oracle::LazyOracle;
/// use mph_bits::random_blocks;
/// use rand::SeedableRng;
///
/// let params = LineParams::new(64, 30, 16, 8);
/// let f = SimLine::new(params);
/// let oracle = LazyOracle::square(1, 64);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let blocks = random_blocks(&mut rng, params.v, params.u);
/// // The walk is the fixed cyclic schedule:
/// let trace = f.trace(&oracle, &blocks);
/// assert_eq!(trace.pointer_walk()[..10], [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SimLine {
    params: LineParams,
}

impl SimLine {
    /// A `SimLine` instance over `params`.
    pub fn new(params: LineParams) -> Self {
        params.validate();
        SimLine { params }
    }

    /// The instance's parameters.
    pub fn params(&self) -> &LineParams {
        &self.params
    }

    /// The block consumed by iteration `i` (1-based): `(i-1) mod v`.
    pub fn block_for(&self, i: u64) -> usize {
        ((i - 1) % self.params.v as u64) as usize
    }

    /// Evaluates the function natively: the same queries as
    /// [`SimLine::trace`], in the same order, through one reused query
    /// buffer and one reused answer buffer, recording nothing.
    pub fn eval<O: Oracle + ?Sized>(&self, oracle: &O, blocks: &[BitVec]) -> BitVec {
        let p = &self.params;
        p.check_blocks(blocks);
        let mut r = BitVec::zeros(p.u);
        let mut query = BitVec::with_capacity(p.n);
        let mut answer = BitVec::with_capacity(p.n);
        for i in 1..=p.w {
            p.pack_simline_query_into(
                &blocks[self.block_for(i)].as_view(),
                &r.as_view(),
                &mut query,
            );
            oracle.query_into(&query.as_view(), &mut answer);
            // SimLine answers are (r_{i+1}, z): the chain value leads.
            r.clear();
            r.extend_from_view(&answer.view(0, p.u));
        }
        answer
    }

    /// Evaluates and records the full trace.
    pub fn trace<O: Oracle + ?Sized>(&self, oracle: &O, blocks: &[BitVec]) -> EvalTrace {
        let p = &self.params;
        p.check_blocks(blocks);
        let mut r = BitVec::zeros(p.u);
        let mut nodes = Vec::with_capacity(p.w as usize);
        let mut answer = BitVec::zeros(p.n);
        for i in 1..=p.w {
            let block = self.block_for(i);
            let query = p.pack_simline_query(&blocks[block], &r);
            answer = oracle.query(&query);
            nodes.push(Node {
                i,
                block,
                r_in: r.clone(),
                query: query.clone(),
                answer: answer.clone(),
            });
            // SimLine answers are (r_{i+1}, z): the chain value leads.
            r = answer.slice(0, p.u);
        }
        EvalTrace { nodes, output: answer }
    }

    /// Evaluates on the generated word-RAM program with cost accounting.
    pub fn eval_on_ram<O: Oracle + ?Sized>(
        &self,
        oracle: &O,
        blocks: &[BitVec],
    ) -> Result<(BitVec, RamStats), mph_ram::RamError> {
        let shape = self.params.shape(true);
        let program = gen_simline_program(&shape);
        let mut ram = Ram::new(shape.mem_words());
        shape.load_input(&mut ram, blocks);
        let limit = 64 * (shape.n as u64 + 64) * (self.params.w + 2);
        let stats = ram.run(&program, oracle, limit)?;
        Ok((shape.read_output(&ram), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_bits::random_blocks;
    use mph_oracle::LazyOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (SimLine, LazyOracle, Vec<BitVec>) {
        let params = LineParams::new(64, 35, 16, 8);
        let oracle = LazyOracle::square(seed, 64);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        (SimLine::new(params), oracle, blocks)
    }

    #[test]
    fn cyclic_schedule() {
        let (f, oracle, blocks) = setup(1);
        let walk = f.trace(&oracle, &blocks).pointer_walk();
        for (idx, &block) in walk.iter().enumerate() {
            assert_eq!(block, idx % 8);
        }
    }

    #[test]
    fn chain_values_propagate() {
        let (f, oracle, blocks) = setup(2);
        let trace = f.trace(&oracle, &blocks);
        for pair in trace.nodes.windows(2) {
            assert_eq!(pair[1].r_in, pair[0].answer.slice(0, 16));
        }
        assert!(trace.nodes[0].r_in.is_zero());
    }

    #[test]
    fn ram_program_agrees_with_native() {
        let (f, oracle, blocks) = setup(3);
        let native = f.eval(&oracle, &blocks);
        let (ram_out, stats) = f.eval_on_ram(&oracle, &blocks).unwrap();
        assert_eq!(ram_out, native);
        assert_eq!(stats.oracle_queries, 35);
    }

    #[test]
    fn differs_from_line_on_same_input() {
        // The two functions use different query formats, so they disagree
        // (overwhelmingly) on the same (RO, X).
        let (f, oracle, blocks) = setup(4);
        let line = crate::Line::new(*f.params());
        assert_ne!(f.eval(&oracle, &blocks), line.eval(&oracle, &blocks));
    }

    #[test]
    fn every_block_matters_once_w_covers_v() {
        let (f, oracle, blocks) = setup(5);
        // w = 35 > v = 8, so every block is on the walk; flipping any block
        // changes the output.
        for j in 0..blocks.len() {
            let mut mutated = blocks.clone();
            let mut b = mutated[j].clone();
            b.set(3, !b.get(3));
            mutated[j] = b;
            assert_ne!(f.eval(&oracle, &mutated), f.eval(&oracle, &blocks), "block {j}");
        }
    }
}

//! The hard function `Line_{n,w,u,v}` of Section 3.
//!
//! Given input blocks `x_1, …, x_v` and an oracle `RO`, with `ℓ_1 = 0`
//! (0-based) and `r_1 = 0^u`:
//!
//! ```text
//! (ℓ_{i+1}, r_{i+1}, z_{i+1}) := RO(i, x_{ℓ_i}, r_i, 0^*)   for i = 1..w
//! ```
//!
//! and the output is the answer to the last query. The pointer `ℓ` being
//! *oracle-chosen* is the whole point: no algorithm can predict which block
//! the next node needs, so bounded local memory forces `Ω̃(T)` MPC rounds
//! (Theorem 3.1), while a RAM holding all of `X` walks the chain in
//! `O(T·n)` time.

use crate::params::LineParams;
use crate::trace::{EvalTrace, Node};
use mph_bits::BitVec;
use mph_oracle::Oracle;
use mph_ram::{gen_line_program, Ram, RamStats};

/// A `Line` instance: parameters plus evaluation entry points.
///
/// # Examples
///
/// ```
/// use mph_core::{Line, LineParams};
/// use mph_oracle::LazyOracle;
/// use mph_bits::random_blocks;
/// use rand::SeedableRng;
///
/// let params = LineParams::new(64, 50, 16, 8);
/// let line = Line::new(params);
/// let oracle = LazyOracle::square(1, 64);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let blocks = random_blocks(&mut rng, params.v, params.u);
///
/// let out = line.eval(&oracle, &blocks);
/// assert_eq!(out.len(), 64);
/// // Deterministic given (RO, X):
/// assert_eq!(out, line.eval(&oracle, &blocks));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Line {
    params: LineParams,
}

impl Line {
    /// A `Line` instance over `params`.
    pub fn new(params: LineParams) -> Self {
        params.validate();
        Line { params }
    }

    /// The instance's parameters.
    pub fn params(&self) -> &LineParams {
        &self.params
    }

    /// Evaluates the function natively (the reference semantics): the
    /// same queries as [`Line::trace`], in the same order, through one
    /// reused query buffer and one reused answer buffer, recording nothing.
    pub fn eval<O: Oracle + ?Sized>(&self, oracle: &O, blocks: &[BitVec]) -> BitVec {
        let p = &self.params;
        p.check_blocks(blocks);
        let mut l = 0usize;
        let mut r = BitVec::zeros(p.u);
        let mut query = BitVec::with_capacity(p.n);
        let mut answer = BitVec::with_capacity(p.n);
        for i in 1..=p.w {
            p.pack_query_into(i, &blocks[l].as_view(), &r.as_view(), &mut query);
            oracle.query_into(&query.as_view(), &mut answer);
            l = p.extract_pointer(&answer);
            r.clear();
            r.extend_from_view(&answer.view(p.l_width(), p.u));
        }
        answer
    }

    /// Evaluates and records the full trace (every node's pointer, chain
    /// value, query and answer) — the data behind Figure 1 and behind the
    /// correct-entry sets `C^{(k)}` of the lower-bound proof.
    pub fn trace<O: Oracle + ?Sized>(&self, oracle: &O, blocks: &[BitVec]) -> EvalTrace {
        let p = &self.params;
        p.check_blocks(blocks);
        let mut l = 0usize;
        let mut r = BitVec::zeros(p.u);
        let mut nodes = Vec::with_capacity(p.w as usize);
        let mut answer = BitVec::zeros(p.n);
        for i in 1..=p.w {
            let query = p.pack_query(i, &blocks[l], &r);
            answer = oracle.query(&query);
            nodes.push(Node {
                i,
                block: l,
                r_in: r.clone(),
                query: query.clone(),
                answer: answer.clone(),
            });
            l = p.extract_pointer(&answer);
            r = p.extract_chain(&answer);
        }
        EvalTrace { nodes, output: answer }
    }

    /// Evaluates by *running the generated RAM program* on the word-RAM
    /// model, returning the output and the machine's exact cost accounting —
    /// the upper-bound side of Theorem 3.1, measured.
    pub fn eval_on_ram<O: Oracle + ?Sized>(
        &self,
        oracle: &O,
        blocks: &[BitVec],
    ) -> Result<(BitVec, RamStats), mph_ram::RamError> {
        let shape = self.params.shape(false);
        let program = gen_line_program(&shape);
        let mut ram = Ram::new(shape.mem_words());
        shape.load_input(&mut ram, blocks);
        // Generous per-iteration instruction budget.
        let limit = 64 * (shape.n as u64 + 64) * (self.params.w + 2);
        let stats = ram.run(&program, oracle, limit)?;
        Ok((shape.read_output(&ram), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_bits::random_blocks;
    use mph_oracle::{HashOracle, LazyOracle, TranscriptOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup(seed: u64) -> (Line, LazyOracle, Vec<BitVec>) {
        let params = LineParams::new(64, 40, 16, 8);
        let oracle = LazyOracle::square(seed, 64);
        let mut rng = StdRng::seed_from_u64(seed ^ 99);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        (Line::new(params), oracle, blocks)
    }

    #[test]
    fn trace_is_consistent() {
        let (line, oracle, blocks) = setup(1);
        let trace = line.trace(&oracle, &blocks);
        assert_eq!(trace.len(), 40);
        // Node chaining: each node's pointer/chain comes from the previous
        // answer.
        let p = line.params();
        for pair in trace.nodes.windows(2) {
            assert_eq!(pair[1].block, p.extract_pointer(&pair[0].answer));
            assert_eq!(pair[1].r_in, p.extract_chain(&pair[0].answer));
        }
        assert_eq!(trace.nodes[0].block, 0);
        assert!(trace.nodes[0].r_in.is_zero());
        assert_eq!(trace.output, trace.nodes.last().unwrap().answer);
    }

    #[test]
    fn queries_made_in_order_exactly_w() {
        let (line, oracle, blocks) = setup(2);
        let recorded = TranscriptOracle::new(Arc::new(LazyOracle::square(2, 64)));
        let out = line.eval(&recorded, &blocks);
        assert_eq!(recorded.len(), 40);
        // The last recorded answer is the output.
        assert_eq!(recorded.transcript().last().unwrap().output, out);
        let _ = oracle;
    }

    #[test]
    fn sensitive_to_every_input_block_on_its_walk() {
        let (line, oracle, blocks) = setup(3);
        let trace = line.trace(&oracle, &blocks);
        // Flip a bit in a block the walk touches: output must change.
        let touched = trace.nodes[5].block;
        let mut mutated = blocks.clone();
        let mut b = mutated[touched].clone();
        b.set(0, !b.get(0));
        mutated[touched] = b;
        assert_ne!(line.eval(&oracle, &mutated), trace.output);
    }

    #[test]
    fn untouched_blocks_do_not_affect_output() {
        let (line, oracle, blocks) = setup(4);
        let trace = line.trace(&oracle, &blocks);
        let touched: std::collections::HashSet<usize> = trace.pointer_walk().into_iter().collect();
        if let Some(untouched) = (0..blocks.len()).find(|b| !touched.contains(b)) {
            let mut mutated = blocks.clone();
            mutated[untouched] = BitVec::ones(line.params().u);
            assert_eq!(line.eval(&oracle, &mutated), trace.output);
        }
    }

    #[test]
    fn ram_program_agrees_with_native() {
        let (line, oracle, blocks) = setup(5);
        let native = line.eval(&oracle, &blocks);
        let (ram_out, stats) = line.eval_on_ram(&oracle, &blocks).unwrap();
        assert_eq!(ram_out, native);
        assert_eq!(stats.oracle_queries, line.params().w);
        // Space: exactly the input plus two oracle buffers (the O(S) claim).
        assert!(stats.peak_bits() <= 2 * line.params().input_bits() + 4 * line.params().n + 256);
    }

    #[test]
    fn works_with_concrete_hash_instantiation() {
        // The f^h of the RO methodology: swap in SHA-256 and nothing changes
        // structurally.
        let params = LineParams::new(48, 20, 16, 6);
        let line = Line::new(params);
        let h = HashOracle::square("line-instance", 48);
        let mut rng = StdRng::seed_from_u64(11);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let out1 = line.eval(&h, &blocks);
        let out2 = line.eval(&HashOracle::square("line-instance", 48), &blocks);
        assert_eq!(out1, out2); // public function: reproducible from the label
    }

    #[test]
    fn pointer_walk_looks_uniform() {
        // Over a long walk, block usage should be roughly balanced — the
        // uniformity of ℓ that the hardness argument leans on.
        let params = LineParams::new(64, 2000, 16, 8);
        let line = Line::new(params);
        let oracle = LazyOracle::square(17, 64);
        let mut rng = StdRng::seed_from_u64(18);
        let blocks = random_blocks(&mut rng, params.v, params.u);
        let walk = line.trace(&oracle, &blocks).pointer_walk();
        let mut counts = vec![0usize; params.v];
        for b in walk {
            counts[b] += 1;
        }
        let expected = 2000.0 / 8.0;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.35,
                "block {b} used {c} times (expected ~{expected})"
            );
        }
    }
}

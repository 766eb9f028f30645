//! MPC algorithms for `Line` and `SimLine`.
//!
//! Lower bounds quantify over *all* algorithms; an experimental
//! reproduction runs the best concrete strategies available and checks
//! they land where the theorem says any strategy must:
//!
//! * [`pipeline`] — the honest token-walking algorithm over replicated
//!   block windows. Its measured rounds reproduce the upper envelope:
//!   `≈ w·u/s` for `SimLine` (Theorem A.1 is tight), `≈ w·(1 − s/S)` for
//!   `Line` (so `Ω(w)` whenever `s ≤ S/c` — Theorem 3.1's shape), and a
//!   single round once a machine's memory covers the whole input.
//! * [`broadcast`] — an ablation of the pipeline: the frontier is
//!   broadcast to every machine each round. Measured: identical rounds,
//!   `m×` the token traffic — the bottleneck is information, not routing.
//! * [`guess`] — the skip-ahead adversary of Lemma 3.3 / Lemma A.7: trying
//!   to query a correct entry without its predecessor succeeds with
//!   probability `≈ 2^{-u}` per guess, measured.
//! * [`replicated`] — the fault-tolerant variant of the pipeline: `ρ`
//!   replicas per block window, checksum-framed multicast tokens, and
//!   sibling recovery, so injected crashes and corruption (see
//!   `mph_mpc::faults`) become bounded round overhead or *detected*
//!   failures instead of wrong output. With `ρ = 1` it is the plain
//!   pipeline plus the checksum guard.
//!
//! Shared plumbing lives here: the replicated [`BlockAssignment`] and the
//! bit-exact message [`Codec`] (blocks and tokens), both charged against
//! the simulator's `s` like everything else.

pub mod broadcast;
pub mod guess;
pub mod pipeline;
pub mod replicated;

pub use broadcast::Broadcast;
pub use guess::{guess_ahead_experiment, GuessOutcome};
pub use pipeline::Pipeline;
pub use replicated::ReplicatedPipeline;

use crate::params::LineParams;
use mph_bits::{bits_for_index, BitSlice, BitVec, FieldValue, Layout};
use mph_mpc::MachineId;
use serde::{Deserialize, Serialize};

/// How a machine's block window is laid out over the index space.
///
/// Placement is an *algorithm* choice the model leaves free ("the input is
/// arbitrarily split"), and it is the knob behind one of the paper's
/// subtler points: for `SimLine`'s public cyclic schedule, contiguous
/// windows stream `h` nodes per visit while strided windows force a hop
/// every node — but for `Line` the oracle-chosen pointers make placement
/// irrelevant. The ablation experiment measures exactly this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowLayout {
    /// Machine `j` holds the `window` consecutive blocks from `j·g`
    /// (mod `v`), `g = ⌈v/m⌉`. Best case for sequential access.
    Contiguous,
    /// Machine `j` holds blocks `{j, j+m, j+2m, …}` (its residue class,
    /// up to `window` of them). Worst case for sequential access.
    Strided,
}

/// Replicated block windows.
///
/// Machine `j` holds `window` blocks laid out per [`WindowLayout`];
/// windows overlap when they exceed the coverage minimum, so growing `s`
/// grows the fraction of blocks each machine holds — the knob the theorems
/// are about. Every block is covered, and [`BlockAssignment::route`] sends
/// a request for block `b` to a deterministic holder (for contiguous
/// layouts, the machine whose window *starts* nearest below `b`, which
/// maximizes the remaining contiguous run — the best case for `SimLine`'s
/// cyclic schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockAssignment {
    /// Number of blocks `v`.
    pub v: usize,
    /// Number of machines `m`.
    pub m: usize,
    /// Blocks held per machine (an upper bound for strided layouts near
    /// the end of the index space).
    pub window: usize,
    /// Window stride `g = ⌈v/m⌉` (contiguous layouts).
    stride: usize,
    /// The placement.
    pub layout: WindowLayout,
}

impl BlockAssignment {
    /// A contiguous assignment of `v` blocks to `m` machines with `window`
    /// blocks per machine. `window` is clamped to `[g, v]` where
    /// `g = ⌈v/m⌉` — below `g` some block would be held by nobody and the
    /// function would be uncomputable.
    pub fn new(v: usize, m: usize, window: usize) -> Self {
        assert!(v >= 1 && m >= 1, "degenerate assignment");
        let stride = v.div_ceil(m);
        let window = window.clamp(stride, v);
        BlockAssignment { v, m, window, stride, layout: WindowLayout::Contiguous }
    }

    /// A strided (residue-class) assignment: machine `j` holds its entire
    /// residue class `{j, j+m, j+2m, …} ∩ [0, v)` — the same per-machine
    /// block count as a minimal contiguous window, placed maximally badly
    /// for sequential access.
    pub fn strided(v: usize, m: usize) -> Self {
        assert!(v >= 1 && m >= 1, "degenerate assignment");
        let window = v.div_ceil(m);
        BlockAssignment { v, m, window, stride: window, layout: WindowLayout::Strided }
    }

    /// The window stride `g`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The blocks machine `j` holds, in window order.
    pub fn blocks_of(&self, machine: MachineId) -> Vec<usize> {
        match self.layout {
            WindowLayout::Contiguous => {
                let start = (machine * self.stride) % self.v;
                (0..self.window).map(|t| (start + t) % self.v).collect()
            }
            WindowLayout::Strided => {
                (0..self.window).map(|t| machine + t * self.m).filter(|&b| b < self.v).collect()
            }
        }
    }

    /// Whether machine `j` holds `block`.
    pub fn holds(&self, machine: MachineId, block: usize) -> bool {
        match self.layout {
            WindowLayout::Contiguous => {
                let start = (machine * self.stride) % self.v;
                let offset = (block + self.v - start) % self.v;
                offset < self.window
            }
            WindowLayout::Strided => {
                block % self.m == machine % self.m && block / self.m < self.window
            }
        }
    }

    /// The machine a request for `block` is routed to.
    pub fn route(&self, block: usize) -> MachineId {
        assert!(block < self.v, "block {block} out of range");
        match self.layout {
            WindowLayout::Contiguous => (block / self.stride).min(self.m - 1),
            WindowLayout::Strided => block % self.m,
        }
    }

    /// The fraction of all blocks each machine holds — the `h/v` of
    /// Claim 3.9's decay rate (an upper estimate for strided layouts).
    pub fn local_fraction(&self) -> f64 {
        self.window.min(self.v) as f64 / self.v as f64
    }
}

/// Message kinds on the wire.
const TAG_BLOCK: u64 = 1;
const TAG_TOKEN: u64 = 2;
const TAG_WIDTH: usize = 2;

/// A parsed incoming message. The variable-width payload fields stay
/// borrowed views into the round arena.
///
/// This is what the algorithms parse their memory image with each round —
/// a block's `u`-bit body is only materialized if the token walk actually
/// queries it, and block persistence forwards the original wire view
/// verbatim ([`mph_mpc::Outbox::push_view`]) instead of re-encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParsedView<'a> {
    /// A stored input block `(index, x)`.
    Block {
        /// Block index (0-based).
        idx: usize,
        /// The `u`-bit block, borrowed from the arena.
        x: BitSlice<'a>,
    },
    /// The evaluation token `(i, ℓ, r)`: "the next query is node `i`, it
    /// needs block `ℓ`, and the chain value is `r`".
    Token {
        /// Next node index, 1-based.
        i: u64,
        /// Needed block index.
        l: usize,
        /// Chain value `r_i`, borrowed from the arena.
        r: BitSlice<'a>,
    },
}

/// The bit-exact wire format shared by the algorithms.
#[derive(Clone, Debug)]
pub struct Codec {
    params: LineParams,
    block_layout: Layout,
    token_layout: Layout,
    token_i_width: usize,
    /// Width of the block record header: the tag, then the index.
    block_header_width: usize,
}

impl Codec {
    /// A codec for `params`.
    pub fn new(params: LineParams) -> Self {
        let l_width = params.l_width();
        let token_i_width = bits_for_index(params.w + 2) as usize;
        let block_layout = Layout::builder(TAG_WIDTH + l_width + params.u)
            .field("tag", TAG_WIDTH)
            .field("idx", l_width)
            .field("x", params.u)
            .build()
            .expect("block layout fits by construction");
        let token_layout = Layout::builder(TAG_WIDTH + token_i_width + l_width + params.u)
            .field("tag", TAG_WIDTH)
            .field("i", token_i_width)
            .field("l", l_width)
            .field("r", params.u)
            .build()
            .expect("token layout fits by construction");
        let block_header_width = TAG_WIDTH + l_width;
        assert!(
            block_header_width <= 64,
            "v = {} blocks: a block header must fit one word",
            params.v
        );
        Codec { params, block_layout, token_layout, token_i_width, block_header_width }
    }

    /// Bits on the wire per stored block.
    pub fn block_bits(&self) -> usize {
        self.block_layout.total_width()
    }

    /// Bits on the wire per token.
    pub fn token_bits(&self) -> usize {
        self.token_layout.total_width()
    }

    /// The memory a machine needs to hold `window` blocks plus the token —
    /// the `s` a configuration requires.
    pub fn required_s(&self, window: usize) -> usize {
        window * self.block_bits() + self.token_bits()
    }

    /// The largest window affordable within `s_bits` of memory (leaving
    /// room for the token). Returns 0 when even one block does not fit.
    pub fn max_window(&self, s_bits: usize) -> usize {
        s_bits.saturating_sub(self.token_bits()) / self.block_bits()
    }

    /// Encodes a block message.
    pub fn encode_block(&self, idx: usize, x: &BitVec) -> BitVec {
        self.block_layout
            .pack(&[FieldValue::Int(TAG_BLOCK), FieldValue::Int(idx as u64), x.into()])
            .expect("block fields sized by params")
    }

    /// Encodes a token message.
    pub fn encode_token(&self, i: u64, l: usize, r: &BitVec) -> BitVec {
        self.token_layout
            .pack(&[
                FieldValue::Int(TAG_TOKEN),
                FieldValue::Int(i),
                FieldValue::Int(l as u64),
                r.into(),
            ])
            .expect("token fields sized by params")
    }

    /// Decodes any wire message by its tag, zero-copy: field payloads in
    /// the returned [`ParsedView`] borrow `payload`'s backing arena.
    ///
    /// Returns `None` for malformed payloads (wrong length, unknown tag or
    /// an index out of range) — honest runs never produce these;
    /// fault-injection tests do.
    pub fn decode_view<'a>(&self, payload: BitSlice<'a>) -> Option<ParsedView<'a>> {
        if let Some(idx) = self.block_record_index(&payload) {
            return Some(ParsedView::Block { idx, x: self.block_record_body(&payload) });
        }
        // Not a block; when the widths collide it can still be a token.
        if payload.len() == self.token_bits() {
            let tag = self.token_layout.extract_u64_view(&payload, 0).ok()?;
            if tag != TAG_TOKEN {
                return None;
            }
            let i = self.token_layout.extract_u64_view(&payload, 1).ok()?;
            let l = self.token_layout.extract_u64_view(&payload, 2).ok()? as usize;
            if l >= self.params.v {
                return None;
            }
            let r = self.token_layout.extract_view(&payload, 3).ok()?;
            return Some(ParsedView::Token { i, l, r });
        }
        None
    }

    /// The token's index-field width (for tests and bound accounting).
    pub fn token_i_width(&self) -> usize {
        self.token_i_width
    }

    /// Number of block records in a window bundle: one or more block
    /// records back to back, the wire shape a machine's persisted block
    /// window travels in (a single block message is the `k = 1` case).
    ///
    /// Returns `None` when `payload` is not bundle-shaped — wrong length
    /// granularity, or a leading tag that is not a block's. Tag bits lead
    /// every wire record, so a bundle can never be confused with a token
    /// even when their bit lengths coincide. A `Some` answer promises only
    /// the shape; callers validate each record via
    /// [`Codec::bundle_record`] + [`Codec::block_record_index`].
    pub fn bundle_records(&self, payload: &BitSlice<'_>) -> Option<usize> {
        let bb = self.block_bits();
        if payload.is_empty() || payload.len() % bb != 0 {
            return None;
        }
        if payload.read_u64(0, TAG_WIDTH) != TAG_BLOCK {
            return None;
        }
        Some(payload.len() / bb)
    }

    /// The `k`-th block record of a window bundle, zero-copy.
    pub fn bundle_record<'a>(&self, payload: &BitSlice<'a>, k: usize) -> BitSlice<'a> {
        let bb = self.block_bits();
        payload.slice(k * bb, bb)
    }

    /// The index of a block record, validated with one header read: the
    /// tag and the index lead every block record side by side, so a single
    /// word read checks both. `None` for a wrong length, a tag that is not
    /// a block's, or an index out of range. This is the block branch of
    /// [`Codec::decode_view`]; the body is [`Codec::block_record_body`].
    pub fn block_record_index(&self, record: &BitSlice<'_>) -> Option<usize> {
        if record.len() != self.block_bits() {
            return None;
        }
        let header = record.read_u64(0, self.block_header_width);
        if header & ((1 << TAG_WIDTH) - 1) != TAG_BLOCK {
            return None;
        }
        let idx = header >> TAG_WIDTH;
        (idx < self.params.v as u64).then_some(idx as usize)
    }

    /// The `u`-bit body of a block record that
    /// [`Codec::block_record_index`] accepted, zero-copy.
    pub fn block_record_body<'a>(&self, record: &BitSlice<'a>) -> BitSlice<'a> {
        record.slice(self.block_header_width, self.params.u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn assignment_covers_every_block() {
        for (v, m, window) in [(16, 4, 4), (16, 4, 7), (10, 3, 4), (5, 8, 1), (12, 1, 3)] {
            let a = BlockAssignment::new(v, m, window);
            for b in 0..v {
                let r = a.route(b);
                assert!(r < m, "route {r} out of range for m = {m}");
                assert!(
                    a.holds(r, b),
                    "v={v} m={m} w={window}: routed machine must hold block {b}"
                );
            }
        }
    }

    #[test]
    fn window_clamped_to_coverage() {
        let a = BlockAssignment::new(16, 4, 1);
        assert_eq!(a.window, 4); // g = 4; below that coverage would break
        let a = BlockAssignment::new(16, 4, 100);
        assert_eq!(a.window, 16);
        assert_eq!(a.local_fraction(), 1.0);
    }

    #[test]
    fn blocks_of_wraps_and_matches_holds() {
        let a = BlockAssignment::new(10, 3, 5);
        let blocks = a.blocks_of(2); // start = 8, window 5 -> 8,9,0,1,2
        assert_eq!(blocks, vec![8, 9, 0, 1, 2]);
        for b in 0..10 {
            assert_eq!(a.holds(2, b), blocks.contains(&b));
        }
    }

    #[test]
    fn strided_assignment_covers_every_block() {
        for (v, m) in [(16, 4), (10, 3), (7, 7), (12, 1)] {
            let a = BlockAssignment::strided(v, m);
            for b in 0..v {
                let r = a.route(b);
                assert!(a.holds(r, b), "v={v} m={m}: routed machine must hold block {b}");
            }
        }
    }

    #[test]
    fn strided_blocks_are_residue_classes() {
        let a = BlockAssignment::strided(10, 3);
        assert_eq!(a.blocks_of(0), vec![0, 3, 6, 9]);
        assert_eq!(a.blocks_of(1), vec![1, 4, 7]);
        assert_eq!(a.blocks_of(2), vec![2, 5, 8]);
        assert!(a.holds(1, 7));
        assert!(!a.holds(1, 6));
        assert_eq!(a.route(8), 2);
    }

    #[test]
    fn strided_and_contiguous_same_block_budget() {
        // The ablation's fairness condition: both layouts hold the same
        // number of blocks per machine (up to residue-class truncation).
        let c = BlockAssignment::new(16, 4, 4);
        let s = BlockAssignment::strided(16, 4);
        assert_eq!(c.window, s.window);
        for j in 0..4 {
            assert_eq!(c.blocks_of(j).len(), s.blocks_of(j).len());
        }
    }

    #[test]
    fn codec_roundtrips() {
        let params = LineParams::new(64, 100, 16, 10);
        let codec = Codec::new(params);
        let x = BitVec::ones(16);
        let msg = codec.encode_block(7, &x);
        assert_eq!(
            codec.decode_view(msg.as_view()),
            Some(ParsedView::Block { idx: 7, x: x.as_view() })
        );
        assert_eq!(codec.block_record_index(&msg.as_view()), Some(7));
        assert_eq!(codec.block_record_body(&msg.as_view()), x);

        let r = BitVec::from_u64(0xABCD, 16);
        let tok = codec.encode_token(42, 3, &r);
        assert_eq!(
            codec.decode_view(tok.as_view()),
            Some(ParsedView::Token { i: 42, l: 3, r: r.as_view() })
        );
        assert_eq!(codec.block_record_index(&tok.as_view()), None);
    }

    #[test]
    fn codec_rejects_garbage() {
        let params = LineParams::new(64, 100, 16, 10);
        let codec = Codec::new(params);
        let short = BitVec::zeros(5);
        // Correct block length, bad tag.
        let bad = BitVec::zeros(codec.block_bits());
        // Correct block length, out-of-range index.
        let mut oob = codec.encode_block(9, &BitVec::zeros(16));
        oob.write_u64(2, 15, 4); // idx field = 15 >= v = 10
        for garbage in [short, bad, oob] {
            assert_eq!(codec.decode_view(garbage.as_view()), None);
            assert_eq!(codec.block_record_index(&garbage.as_view()), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On every record-sized input — any tag, any value of the index
        /// field (`idx >= v` included), any body, at any arena offset —
        /// `decode_view` parses a `Block` exactly when the tag is a block's
        /// and the index is below `v`, with that index and body; the
        /// accepted records are the ones `encode_block` writes, and
        /// `block_record_index` accepts the same ones.
        #[test]
        fn decode_view_parses_exactly_the_valid_block_records(
            v in 2usize..70,
            u in 1usize..28,
            tag in 0u64..4,
            raw_idx in any::<u64>(),
            body in any::<u64>(),
            offset in 0usize..130,
        ) {
            let params = LineParams::new(64, 100, u, v);
            let codec = Codec::new(params);
            let l_width = params.l_width();
            let idx = (raw_idx & ((1 << l_width) - 1)) as usize;
            let x = BitVec::from_u64(body & ((1 << u) - 1), u);
            let mut arena = BitVec::ones(offset);
            arena.push_u64(tag, TAG_WIDTH);
            arena.push_u64(idx as u64, l_width);
            arena.extend_bits(&x);
            arena.extend_bits(&BitVec::ones(offset % 7));
            let record = arena.view(offset, codec.block_bits());
            let expected = (tag == TAG_BLOCK && idx < v).then_some((idx, x.as_view()));
            let parsed = match codec.decode_view(record) {
                Some(ParsedView::Block { idx, x }) => Some((idx, x)),
                _ => None,
            };
            prop_assert_eq!(parsed, expected);
            prop_assert_eq!(codec.block_record_index(&record), expected.map(|(idx, _)| idx));
            if expected.is_some() {
                prop_assert_eq!(record, codec.encode_block(idx, &x));
            }
        }
    }

    #[test]
    fn memory_budget_arithmetic() {
        let params = LineParams::new(64, 100, 16, 10);
        let codec = Codec::new(params);
        let s = codec.required_s(5);
        assert_eq!(codec.max_window(s), 5);
        assert_eq!(codec.max_window(s - 1), 4);
        assert_eq!(codec.max_window(0), 0);
    }
}

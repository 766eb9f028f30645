//! The parameter system of the paper's Tables 2 and 3.
//!
//! Table 2 (Theorem 3.1) fixes the global parameters — oracle width `n`,
//! RAM space `S`, RAM time `T`, per-round query bound `q` — and Table 3
//! derives the `Line` function's internals: block width `u = n/3`, block
//! count `v = S/u`, iteration count `w = T`, and the field widths of oracle
//! queries `(i, x_{ℓ_i}, r_i, 0^*)` and answers `(ℓ, r, z)`.
//!
//! [`LineParams`] is that derivation as a value, shared by every consumer:
//! the native evaluators, the RAM code generator, the MPC algorithms, the
//! encoders, and the bound calculators all read field widths from the same
//! place, so the bit conventions cannot drift apart.

use mph_bits::{bits_for_index, BitSlice, BitVec, Layout};
use mph_ram::LineShape;
use serde::{Deserialize, Serialize};

/// Concrete parameters of a `Line`/`SimLine` instance.
///
/// # Examples
///
/// ```
/// use mph_core::LineParams;
///
/// // Paper Table 3 derivation from (n, S, T):
/// let p = LineParams::from_nst(48, 48 * 8, 100);
/// assert_eq!(p.u, 16);       // u = n/3
/// assert_eq!(p.v, 24);       // v = S/u
/// assert_eq!(p.w, 100);      // w = T
/// assert_eq!(p.input_bits(), 16 * 24);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineParams {
    /// Oracle input/output width `n` in bits.
    pub n: usize,
    /// Number of iterations `w = T`.
    pub w: u64,
    /// Block width `u` in bits (`u = n/3` in the paper's derivation).
    pub u: usize,
    /// Number of blocks `v` (`v = S/u`).
    pub v: usize,
}

impl LineParams {
    /// Builds parameters directly. Panics if the derived field widths do
    /// not fit the oracle width (see [`LineParams::validate`]).
    pub fn new(n: usize, w: u64, u: usize, v: usize) -> Self {
        let p = LineParams { n, w, u, v };
        p.validate();
        p
    }

    /// The paper's Table 3 derivation: `u = n/3` (rounded down), `v = S/u`
    /// (rounded up so the input covers at least `S` bits), `w = T`.
    pub fn from_nst(n: usize, s_bits: usize, t: u64) -> Self {
        let u = (n / 3).max(1);
        let v = s_bits.div_ceil(u).max(2);
        Self::new(n, t, u, v)
    }

    /// Checks that the instance is realizable: all fields fit their
    /// containers. Panics with a description otherwise.
    pub fn validate(&self) {
        assert!(self.n >= 3, "oracle width too small");
        assert!(self.u >= 1, "u must be positive");
        assert!(self.v >= 2, "need at least two blocks (v >= 2) for a pointer to matter");
        assert!(self.w >= 1, "w must be positive");
        assert!(
            self.i_width() + 2 * self.u <= self.n,
            "query fields i({}) + x({}) + r({}) exceed n = {}",
            self.i_width(),
            self.u,
            self.u,
            self.n
        );
        assert!(
            self.l_width() + self.u <= self.n,
            "answer fields l({}) + r({}) exceed n = {}",
            self.l_width(),
            self.u,
            self.n
        );
        assert!(self.l_width() <= 63, "v too large for a 63-bit pointer field");
        assert!(self.i_width() <= 63, "w too large for a 63-bit index field");
    }

    /// Total input size `u·v` in bits — the `S` the function actually uses
    /// (the paper's `{0,1}^S` domain, with `S` rounded up to a multiple of
    /// `u`).
    pub fn input_bits(&self) -> usize {
        self.u * self.v
    }

    /// Checks that `blocks` is an input of this instance: `v` blocks of
    /// `u` bits each. Panics otherwise.
    pub(crate) fn check_blocks(&self, blocks: &[BitVec]) {
        assert_eq!(blocks.len(), self.v, "expected v = {} blocks", self.v);
        for (j, b) in blocks.iter().enumerate() {
            assert_eq!(b.len(), self.u, "block {j} is not u = {} bits", self.u);
        }
    }

    /// Width of the pointer field `ℓ`: `⌈log v⌉` bits (Table 3).
    pub fn l_width(&self) -> usize {
        bits_for_index(self.v as u64) as usize
    }

    /// Width of the node-index field `i` in `Line` queries: enough for
    /// values `1..=w`.
    pub fn i_width(&self) -> usize {
        bits_for_index(self.w + 1) as usize
    }

    /// The query layout `[i | x | r | 0^*]` for `Line`.
    pub fn query_layout(&self) -> Layout {
        Layout::builder(self.n)
            .field("i", self.i_width())
            .field("x", self.u)
            .field("r", self.u)
            .build()
            .expect("validated params always fit")
    }

    /// The query layout `[x | r | 0^*]` for `SimLine` (no index field, as
    /// in Appendix A).
    pub fn simline_query_layout(&self) -> Layout {
        Layout::builder(self.n)
            .field("x", self.u)
            .field("r", self.u)
            .build()
            .expect("validated params always fit")
    }

    /// The answer layout `[ℓ | r | z]`; `z` is the redundant remainder
    /// (Table 3).
    pub fn answer_layout(&self) -> Layout {
        Layout::builder(self.n)
            .field("l", self.l_width())
            .field("r", self.u)
            .field("z", self.n - self.l_width() - self.u)
            .build()
            .expect("validated params always fit")
    }

    /// Packs a `Line` query `(i, x, r, 0^*)` into a new buffer, laid out
    /// as [`Self::query_layout`] describes.
    pub fn pack_query(&self, i: u64, x: &BitVec, r: &BitVec) -> BitVec {
        let mut out = BitVec::with_capacity(self.n);
        self.pack_query_into(i, &x.as_view(), &r.as_view(), &mut out);
        out
    }

    /// Packs a `SimLine` query `(x, r, 0^*)` into a new buffer, laid out
    /// as [`Self::simline_query_layout`] describes.
    pub fn pack_simline_query(&self, x: &BitVec, r: &BitVec) -> BitVec {
        let mut out = BitVec::with_capacity(self.n);
        self.pack_simline_query_into(&x.as_view(), &r.as_view(), &mut out);
        out
    }

    /// Packs a `Line` query `(i, x, r, 0^*)` into `out`, reusing its
    /// allocation: the one `Line` query packer, [`Self::pack_query`]
    /// included. `x` and `r` are borrowed views, so hot walks never
    /// materialize owned blocks. Panics when `i` does not fit the index
    /// field or a view is not `u` bits wide.
    pub fn pack_query_into(&self, i: u64, x: &BitSlice<'_>, r: &BitSlice<'_>, out: &mut BitVec) {
        assert_eq!(x.len(), self.u, "block width mismatch");
        assert_eq!(r.len(), self.u, "chain width mismatch");
        out.clear();
        out.push_u64(i, self.i_width());
        out.extend_from_view(x);
        out.extend_from_view(r);
        out.extend_zeros(self.n - self.i_width() - 2 * self.u);
    }

    /// Packs a `SimLine` query `(x, r, 0^*)` into `out`, reusing its
    /// allocation: the one `SimLine` query packer. Panics when a view is
    /// not `u` bits wide.
    pub fn pack_simline_query_into(&self, x: &BitSlice<'_>, r: &BitSlice<'_>, out: &mut BitVec) {
        assert_eq!(x.len(), self.u, "block width mismatch");
        assert_eq!(r.len(), self.u, "chain width mismatch");
        out.clear();
        out.extend_from_view(x);
        out.extend_from_view(r);
        out.extend_zeros(self.n - 2 * self.u);
    }

    /// Extracts the pointer `ℓ` from an answer: the first `⌈log v⌉` bits
    /// reduced mod `v`, a 0-based block index.
    pub fn extract_pointer(&self, answer: &BitVec) -> usize {
        (answer.read_u64(0, self.l_width()) % self.v as u64) as usize
    }

    /// Extracts the chain value `r` from an answer.
    pub fn extract_chain(&self, answer: &BitVec) -> BitVec {
        answer.slice(self.l_width(), self.u)
    }

    /// The [`LineShape`] consumed by the `mph-ram` code generator.
    pub fn shape(&self, simline: bool) -> LineShape {
        LineShape {
            n: self.n,
            w: self.w,
            u: self.u,
            v: self.v,
            i_width: if simline { 0 } else { self.i_width() },
            l_width: self.l_width(),
        }
    }

    /// Checks the asymptotic-regime constraints of Theorem 3.1 for a
    /// concrete MPC configuration, reporting each individually.
    pub fn regime_report(&self, m: usize, s_bits: usize, q: u64) -> RegimeReport {
        let n = self.n as f64;
        // The paper's ranges are 2^{O(n^{1/4})}; "O" hides a constant, which
        // we pin at EXP_CONSTANT for concrete checks: x < 2^{4·n^{1/4}}.
        const EXP_CONSTANT: f64 = 4.0;
        let log_bound = EXP_CONSTANT * n.powf(0.25);
        RegimeReport {
            s_at_least_n: self.input_bits() >= self.n,
            t_at_least_s: self.w >= self.v as u64, // T >= S in oracle-call units: w >= v
            s_below_exp: (self.input_bits() as f64).log2() < log_bound,
            t_below_exp: (self.w as f64).log2() < log_bound,
            m_below_exp: (m as f64).max(1.0).log2() < log_bound,
            q_below_quarter: (q as f64) < 2f64.powf(n / 4.0),
            local_memory_fraction: s_bits as f64 / self.input_bits() as f64,
            lemma36_u_margin: self.u as f64
                - ((self.w as f64).log2().powi(2) + 2.0) * (self.v as f64).log2()
                - (q as f64).log2(),
        }
    }
}

/// Whether a concrete instance sits inside Theorem 3.1's parameter regime,
/// constraint by constraint (the content of the paper's Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegimeReport {
    /// `S ≥ n`.
    pub s_at_least_n: bool,
    /// `T ≥ S` (in oracle-call units, `w ≥ v`).
    pub t_at_least_s: bool,
    /// `S < 2^{O(n^{1/4})}`.
    pub s_below_exp: bool,
    /// `T < 2^{O(n^{1/4})}`.
    pub t_below_exp: bool,
    /// `m < 2^{O(n^{1/4})}`.
    pub m_below_exp: bool,
    /// `q < 2^{n/4}`.
    pub q_below_quarter: bool,
    /// `s / S` — the theorem requires this ≤ `1/c` for some constant
    /// `c > 1`.
    pub local_memory_fraction: f64,
    /// Slack in Lemma 3.6's hypothesis
    /// `u ≥ (log² w + 2)·log v + log q`, in bits (positive = satisfied).
    pub lemma36_u_margin: f64,
}

impl RegimeReport {
    /// True when every boolean constraint holds and the Lemma 3.6 margin is
    /// nonnegative.
    pub fn in_regime(&self) -> bool {
        self.s_at_least_n
            && self.t_at_least_s
            && self.s_below_exp
            && self.t_below_exp
            && self.m_below_exp
            && self.q_below_quarter
            && self.lemma36_u_margin >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_bits::FieldValue;

    #[test]
    fn table3_derivation() {
        let p = LineParams::from_nst(60, 1000, 500);
        assert_eq!(p.u, 20);
        assert_eq!(p.v, 50);
        assert_eq!(p.w, 500);
        assert_eq!(p.l_width(), 6);
        assert!(p.input_bits() >= 1000);
    }

    #[test]
    fn layouts_fit_and_roundtrip() {
        let p = LineParams::new(64, 100, 16, 10);
        let x = BitVec::ones(16);
        let r = BitVec::zeros(16);
        let q = p.pack_query(37, &x, &r);
        assert_eq!(q.len(), 64);
        let layout = p.query_layout();
        assert_eq!(layout.extract_u64(&q, 0).unwrap(), 37);
        assert_eq!(layout.extract(&q, 1).unwrap(), x);
        assert!(layout.padding_is_zero(&q));

        let sq = p.pack_simline_query(&x, &r);
        assert_eq!(p.simline_query_layout().extract(&sq, 0).unwrap(), x);
    }

    #[test]
    fn pack_into_matches_the_layouts() {
        // The packers must be byte-identical to the documented layouts,
        // including for unaligned views and across buffer reuse.
        let p = LineParams::new(64, 100, 15, 10);
        let mut arena = BitVec::zeros(3);
        let x = BitVec::from_u64(0x5A5A, 15);
        let r = BitVec::from_u64(0x2BCD, 15);
        arena.extend_from_view(&x.as_view());
        arena.extend_from_view(&r.as_view());
        let (xv, rv) = (arena.view(3, 15), arena.view(18, 15));
        let line = p.query_layout().pack(&[FieldValue::Int(37), (&x).into(), (&r).into()]).unwrap();
        let simline = p.simline_query_layout().pack(&[(&x).into(), (&r).into()]).unwrap();

        let mut out = BitVec::from_u64(u64::MAX, 64); // dirty buffer
        p.pack_query_into(37, &xv, &rv, &mut out);
        assert_eq!(out, line);
        assert_eq!(p.pack_query(37, &x, &r), line);
        p.pack_simline_query_into(&xv, &rv, &mut out);
        assert_eq!(out, simline);
        assert_eq!(p.pack_simline_query(&x, &r), simline);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pack_query_rejects_an_index_wider_than_its_field() {
        let p = LineParams::new(64, 100, 16, 10);
        p.pack_query(1 << p.i_width(), &BitVec::zeros(16), &BitVec::zeros(16));
    }

    #[test]
    fn pointer_extraction_mod_v() {
        let p = LineParams::new(64, 100, 16, 10);
        // l_width = 4; raw value 13 -> 13 % 10 = 3.
        let mut ans = BitVec::zeros(64);
        ans.write_u64(0, 13, 4);
        assert_eq!(p.extract_pointer(&ans), 3);
        let chain = p.extract_chain(&ans);
        assert_eq!(chain.len(), 16);
    }

    #[test]
    fn shape_bridges_to_ram() {
        let p = LineParams::new(96, 200, 24, 12);
        let line = p.shape(false);
        assert_eq!(line.i_width, p.i_width());
        line.validate();
        let sim = p.shape(true);
        assert_eq!(sim.i_width, 0);
        sim.validate();
    }

    #[test]
    #[should_panic(expected = "exceed n")]
    fn overfull_query_rejected() {
        LineParams::new(32, 100, 14, 4);
    }

    #[test]
    fn regime_report_flags() {
        // A deliberately tiny instance: the asymptotic regime fails
        // (n too small for Lemma 3.6's hypothesis), and the report says so.
        let p = LineParams::new(48, 64, 16, 8);
        let report = p.regime_report(4, 32, 16);
        assert!(report.local_memory_fraction < 1.0);
        assert!(report.lemma36_u_margin < 0.0);
        assert!(!report.in_regime());

        // A paper-scale instance: n = 2^16 => u ≈ 21845, comfortably above
        // Lemma 3.6's (log²w + 2)·log v + log q requirement.
        let p = LineParams::from_nst(1 << 16, 1 << 22, 1 << 22);
        let report = p.regime_report(1024, (1 << 22) / 4, 1 << 16);
        assert!(report.in_regime(), "{report:?}");
    }
}

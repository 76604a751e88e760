//! The Hessian / steepest-descent kernel (§3.4): `H += Jᵀ J` and
//! `b += Jᵀ r` accumulated in 32-bit Q29.3 — the paper's finding is
//! that 16-bit accumulators break the LM solver while Q29.3 tracks as
//! well as float.

use crate::pim_exec::BATCH;
use crate::qmath::sat32;
use crate::quant::{GRAD_FRAC, HES_FRAC, RES_FRAC};
use pimvo_vomath::NormalEquations;

/// Quantized normal equations: the 21 unique entries of the symmetric
/// 6x6 Hessian and the 6-vector `b`, in Q29.3 raw values clamped to
/// 32 bits after every accumulation (hardware accumulator semantics),
/// plus the (host-side) squared-residual cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QNormalEquations {
    /// Upper-triangular Hessian entries, row-major: `h[idx(i,j)]`,
    /// Q29.3 raw.
    pub h: [i64; 21],
    /// Steepest-descent vector, Q29.3 raw.
    pub b: [i64; 6],
    /// Total squared residual, Q(2*RES_FRAC) raw (64-bit host scalar).
    pub cost: i64,
    /// Number of accumulated residuals.
    pub count: usize,
    /// Fractional bits used for `h` and `b` (Q29.`hes_frac`); exposed
    /// for the quantization ablation (the paper shows 16-bit fails).
    pub hes_frac: u32,
    /// Accumulator width in bits (32 in the paper; 16 in the failing
    /// ablation).
    pub bits: u32,
}

/// Up to one [`BATCH`] of Jacobian rows and residuals in column layout
/// (`i16`, the range of the Q14.2 / Q12.4 formats): the staging buffer
/// of the PIM backend's fast path, summed by
/// [`QNormalEquations::accumulate_columns`].
#[derive(Debug, Clone)]
pub(crate) struct JacobianColumns {
    /// Columns `0..6` hold the Jacobian entries, column [`RES_COL`] the
    /// residual.
    cols: [[i16; BATCH]; 7],
    len: usize,
}

/// The residual's column in [`JacobianColumns`].
const RES_COL: usize = 6;

impl JacobianColumns {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        JacobianColumns {
            cols: [[0; BATCH]; 7],
            len: 0,
        }
    }

    /// Empties the buffer.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the buffer already holds [`BATCH`] rows.
    pub(crate) fn push(&mut self, j: [i16; 6], r: i16) {
        let t = self.len;
        for (col, v) in self.cols.iter_mut().zip(j) {
            col[t] = v;
        }
        self.cols[RES_COL][t] = r;
        self.len += 1;
    }
}

/// The `(i, j)` pairs of the packed upper triangle, in [`tri_idx`]
/// order.
const TRI_PAIRS: [(usize, usize); 21] = {
    let mut pairs = [(0, 0); 21];
    let (mut n, mut i) = (0, 0);
    while i < 6 {
        let mut j = i;
        while j < 6 {
            pairs[n] = (i, j);
            n += 1;
            j += 1;
        }
        i += 1;
    }
    pairs
};

/// Index into the packed upper triangle (`i <= j`).
#[inline]
pub fn tri_idx(i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < 6);
    i * 6 + j - i * (i + 1) / 2
}

impl QNormalEquations {
    /// Empty accumulator at the paper's Q29.3 / 32-bit configuration.
    pub fn zero() -> Self {
        Self::zero_with(HES_FRAC, 32)
    }

    /// Empty accumulator with explicit format (ablation support).
    pub fn zero_with(hes_frac: u32, bits: u32) -> Self {
        QNormalEquations {
            h: [0; 21],
            b: [0; 6],
            cost: 0,
            count: 0,
            hes_frac,
            bits,
        }
    }

    /// Accumulates one feature's Jacobian row (Q14.2 raw) and residual
    /// (Q12.4 raw).
    ///
    /// Products `J·J` are Q28.4; they are rescaled to the accumulator
    /// format and added with saturation at the accumulator width. The
    /// rescale shifts and the clamp bounds are fixed per call, and the
    /// packed triangle is walked one row slice at a time.
    pub fn accumulate(&mut self, j: &[i64; 6], r: i64) {
        let (lo, hi) = self.bounds();
        let (jj_l, jj_r) = shifts((2 * GRAD_FRAC) as i64 - self.hes_frac as i64);
        let (jr_l, jr_r) = shifts((GRAD_FRAC + RES_FRAC) as i64 - self.hes_frac as i64);
        let mut rest = &mut self.h[..];
        for (i, (&ji, b)) in j.iter().zip(&mut self.b).enumerate() {
            let (row, tail) = rest.split_at_mut(6 - i);
            for (h, &jk) in row.iter_mut().zip(&j[i..]) {
                let p = ((ji * jk) << jj_l) >> jj_r;
                *h = (*h + p).max(lo).min(hi);
            }
            rest = tail;
            let p = ((ji * r) << jr_l) >> jr_r;
            *b = (*b + p).max(lo).min(hi);
        }
        self.cost += r * r;
        self.count += 1;
    }

    /// Accumulates one part of up to [`BATCH`] rows in column layout
    /// with the result of calling [`QNormalEquations::accumulate`] on
    /// each row in order.
    ///
    /// The clamp after every addition makes the per-row sums
    /// order-sensitive, and clamping is most of their cost. The part is
    /// summed without the clamp when a bound proves none can fire: with
    /// `m_i = max|J_i|` and `m_r = max|r|` over the part's `n` rows,
    /// every rescaled product `((J_i·J_k) << l) >> r` has magnitude at
    /// most `((m_i·m_k) << l) >> r` plus one (the floor of a negative
    /// product), so if `|h_ik| + n·(that + 1)` stays within the
    /// accumulator range for every entry of `h` and `b`, no prefix sum
    /// leaves it. No clamp fires, the unclamped sum is exact, and its
    /// order is free. Otherwise the part falls back to per-row
    /// [`QNormalEquations::accumulate`].
    ///
    /// Each unclamped entry is one dot product of two `i16` columns with
    /// `i32` products and sums — exact, because the bound limits every
    /// term and partial sum to the accumulator range, which fits `i32`.
    /// The column loops vectorise.
    pub(crate) fn accumulate_columns(&mut self, rows: &JacobianColumns) {
        let n = rows.len;
        let col = |i: usize| &rows.cols[i][..n];
        let jj = shifts((2 * GRAD_FRAC) as i64 - self.hes_frac as i64);
        let jr = shifts((GRAD_FRAC + RES_FRAC) as i64 - self.hes_frac as i64);
        let max_abs: [i64; 7] = std::array::from_fn(|i| {
            let m = col(i).iter().map(|&v| i32::from(v).abs()).max();
            m.map_or(0, i64::from)
        });
        if !self.cannot_clamp(&max_abs, n, jj, jr) {
            for t in 0..n {
                let j = std::array::from_fn(|i| i64::from(rows.cols[i][t]));
                self.accumulate(&j, i64::from(rows.cols[RES_COL][t]));
            }
            return;
        }
        let dot = |a: usize, c: usize, (l, r): (u32, u32)| {
            let products = col(a)
                .iter()
                .zip(col(c))
                .map(|(&x, &y)| i32::from(x) * i32::from(y));
            // a left shift distributes over the sum; a right shift
            // floors each term
            let sum: i32 = if r == 0 {
                products.sum::<i32>() << l
            } else {
                products.map(|p| p >> r).sum()
            };
            i64::from(sum)
        };
        for (h, &(i, k)) in self.h.iter_mut().zip(&TRI_PAIRS) {
            *h += dot(i, k, jj);
        }
        for (i, b) in self.b.iter_mut().enumerate() {
            *b += dot(i, RES_COL, jr);
        }
        let res = col(RES_COL);
        self.cost += res
            .iter()
            .map(|&r| i64::from(r) * i64::from(r))
            .sum::<i64>();
        self.count += n;
    }

    /// The no-clamp bound of [`QNormalEquations::accumulate_columns`] for
    /// `n` rows whose columns have magnitudes at most `max_abs`
    /// (Jacobian entries, then the residual), with the `(left, right)`
    /// rescale shifts `jj` of `J·J` and `jr` of `J·r`.
    fn cannot_clamp(&self, max_abs: &[i64; 7], n: usize, jj: (u32, u32), jr: (u32, u32)) -> bool {
        let n = n as i128;
        let hi = i128::from(self.bounds().1);
        // |acc| + n·(((m << l) >> r) + 1) <= hi, in i128 so that no
        // term of the bound itself can overflow; a left shift of 32 or
        // more is out of reach of the i32 column sums
        let fits = |acc: i64, m: i64, (l, r): (u32, u32)| {
            l < 32 && i128::from(acc).abs() + n * (((i128::from(m) << l) >> r) + 1) <= hi
        };
        (0..6).all(|i| {
            fits(self.b[i], max_abs[i] * max_abs[RES_COL], jr)
                && (i..6).all(|k| fits(self.h[tri_idx(i, k)], max_abs[i] * max_abs[k], jj))
        })
    }

    /// The saturation range of the accumulator width: [`sat32`]'s for
    /// any width of 32 bits or more (the Q29.3 accumulator clamp).
    fn bounds(&self) -> (i64, i64) {
        if self.bits >= 32 {
            (sat32(i64::MIN), sat32(i64::MAX))
        } else {
            let max = (1i64 << (self.bits - 1)) - 1;
            (-max - 1, max)
        }
    }

    fn clamp(&self, v: i64) -> i64 {
        let (lo, hi) = self.bounds();
        v.clamp(lo, hi)
    }

    /// Merges another accumulator (batch partials).
    pub fn merge(&mut self, other: &QNormalEquations) {
        for i in 0..21 {
            self.h[i] = self.clamp(self.h[i] + other.h[i]);
        }
        for i in 0..6 {
            self.b[i] = self.clamp(self.b[i] + other.b[i]);
        }
        self.cost += other.cost;
        self.count += other.count;
    }

    /// Converts to float normal equations for the CPU-side 6x6 solve.
    #[allow(clippy::needless_range_loop)] // (i, j) index pairs mirror the math
    pub fn to_normal_equations(&self) -> NormalEquations {
        let s = 1.0 / (1i64 << self.hes_frac) as f64;
        let mut h = [[0.0; 6]; 6];
        let mut b = [0.0; 6];
        for i in 0..6 {
            for j in i..6 {
                let v = self.h[tri_idx(i, j)] as f64 * s;
                h[i][j] = v;
                h[j][i] = v;
            }
            b[i] = self.b[i] as f64 * s;
        }
        NormalEquations {
            h,
            b,
            cost: self.cost as f64 / (1i64 << (2 * RES_FRAC)) as f64,
            count: self.count,
        }
    }
}

impl Default for QNormalEquations {
    fn default() -> Self {
        Self::zero()
    }
}

/// A signed right-shift amount (negative = left shift) as the
/// `(left, right)` pair that rescales by `(v << left) >> right`.
#[inline]
fn shifts(shift: i64) -> (u32, u32) {
    if shift >= 0 {
        (0, shift as u32)
    } else {
        ((-shift) as u32, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_indexing_covers_21() {
        let mut seen = [false; 21];
        for i in 0..6 {
            for j in i..6 {
                let idx = tri_idx(i, j);
                assert!(!seen[idx], "duplicate index {idx}");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn accumulation_matches_float_reference() {
        let mut q = QNormalEquations::zero();
        let mut f = NormalEquations::zero();
        let rows_q = [
            [400i64, -200, 100, 50, -300, 8],
            [120, 340, -80, -260, 90, -44],
        ];
        let res_q = [48i64, -32]; // Q12.4: 3.0, -2.0
        for (jq, &rq) in rows_q.iter().zip(&res_q) {
            q.accumulate(jq, rq);
            let jf: [f64; 6] = std::array::from_fn(|i| jq[i] as f64 / 4.0);
            f.accumulate(&jf, rq as f64 / 16.0, 1.0);
        }
        let qf = q.to_normal_equations();
        for i in 0..6 {
            for j in 0..6 {
                let err = (qf.h[i][j] - f.h[i][j]).abs();
                // Q29.3 resolution: 1/8 per product, 2 products
                assert!(err <= 0.25 + 1e-9, "h[{i}][{j}] err {err}");
            }
            assert!((qf.b[i] - f.b[i]).abs() <= 0.25 + 1e-9);
        }
        assert!((qf.cost - f.cost).abs() < 1e-9);
        assert_eq!(qf.count, 2);
    }

    #[test]
    fn thirty_two_bit_handles_full_feature_load() {
        // 4000 features with strong gradients must not saturate Q29.3
        // (the format is tight: the paper's 32-bit choice is the
        // minimum that survives a full feature load)
        let mut q = QNormalEquations::zero();
        let row = [800i64, 800, 400, 1000, 1000, 300]; // ~200-250 in f·I scale
        for _ in 0..4000 {
            q.accumulate(&row, 80);
        }
        let max_h = (1i64 << 31) - 1;
        assert!(q.h.iter().all(|&h| h.abs() < max_h), "saturated");
        let f = q.to_normal_equations();
        // J1^2 = 200^2 * 4000 = 1.6e8: check one diagonal value
        assert!((f.h[0][0] - 200.0 * 200.0 * 4000.0).abs() / f.h[0][0] < 0.01);
    }

    #[test]
    fn sixteen_bit_accumulator_saturates() {
        // the paper's failing ablation: 16-bit H overflows immediately
        let mut q = QNormalEquations::zero_with(HES_FRAC, 16);
        let row = [800i64, 0, 0, 0, 0, 0];
        for _ in 0..100 {
            q.accumulate(&row, 16);
        }
        assert_eq!(q.h[0], 32767, "16-bit accumulator must saturate");
    }

    /// The per-call fast path is bit-identical to the per-entry formula
    /// it replaced (inlined here), saturating or not, at the paper's
    /// 32-bit width and the ablation's narrower ones, with rescales in
    /// both directions.
    #[test]
    fn accumulate_matches_per_entry_formula() {
        fn reference(eq: &mut QNormalEquations, j: &[i64; 6], r: i64) {
            let clamp = |v: i64| {
                if eq.bits >= 32 {
                    sat32(v)
                } else {
                    let max = (1i64 << (eq.bits - 1)) - 1;
                    v.clamp(-max - 1, max)
                }
            };
            let rescale = |v: i64, shift: i64| {
                if shift >= 0 {
                    v >> shift
                } else {
                    v << (-shift)
                }
            };
            let jj_shift = (2 * GRAD_FRAC) as i64 - eq.hes_frac as i64;
            let jr_shift = (GRAD_FRAC + RES_FRAC) as i64 - eq.hes_frac as i64;
            let (mut h, mut b) = (eq.h, eq.b);
            for i in 0..6 {
                for k in i..6 {
                    let idx = tri_idx(i, k);
                    h[idx] = clamp(h[idx] + rescale(j[i] * j[k], jj_shift));
                }
                b[i] = clamp(b[i] + rescale(j[i] * r, jr_shift));
            }
            (eq.h, eq.b) = (h, b);
            eq.cost += r * r;
            eq.count += 1;
        }
        let (max, min) = (i64::from(i16::MAX), i64::from(i16::MIN));
        let rows: [([i64; 6], i64); 6] = [
            ([max, min, max, min, max, min], max),
            ([min, min, min, max, max, max], min),
            ([400, -200, 100, 50, -300, 8], 48),
            ([0, 0, 0, 0, 0, 0], 0),
            ([-7, 3, -1, 1, 9, -13], -5),
            ([max, 0, -1, 1, 0, min], 1),
        ];
        for bits in [32, 24, 16, 12] {
            for hes_frac in [HES_FRAC, 0, 6, 8] {
                let mut fast = QNormalEquations::zero_with(hes_frac, bits);
                let mut slow = fast.clone();
                for _ in 0..40 {
                    for (j, r) in &rows {
                        fast.accumulate(j, *r);
                        reference(&mut slow, j, *r);
                        assert_eq!(fast, slow, "bits {bits} hes_frac {hes_frac}");
                    }
                }
                let limit = if bits >= 32 {
                    i64::from(i32::MAX)
                } else {
                    (1 << (bits - 1)) - 1
                };
                assert!(fast.h.iter().any(|&h| h == limit), "bits {bits}: saturates");
            }
        }
    }

    /// The column accumulate gives per-row accumulate's result whether
    /// its no-clamp proof holds or not. Rows at ±32767 with maximal
    /// residuals fail the proof on a stream's first chunk, and again
    /// mid-stream after chunks of small rows passed it; a chunk longer
    /// than one batch is summed in parts, and an empty part adds
    /// nothing. Checked at the paper's format and the ablation's
    /// narrower widths and other `hes_frac`.
    #[test]
    fn accumulate_columns_matches_per_row_accumulate() {
        // whether the no-clamp bound holds for `chunk` from `eq`'s state
        fn bound_holds(eq: &QNormalEquations, chunk: &[([i64; 6], i64)]) -> bool {
            let max_abs = std::array::from_fn(|i| {
                let col = chunk.iter().map(|(j, r)| if i < 6 { j[i] } else { *r });
                col.map(i64::abs).max().unwrap_or(0)
            });
            let jj = shifts((2 * GRAD_FRAC) as i64 - eq.hes_frac as i64);
            let jr = shifts((GRAD_FRAC + RES_FRAC) as i64 - eq.hes_frac as i64);
            eq.cannot_clamp(&max_abs, chunk.len(), jj, jr)
        }
        // `chunk` staged and summed one BATCH part at a time, as
        // `linearize_q` does (an empty chunk is one empty part)
        fn accumulate_parts(eq: &mut QNormalEquations, chunk: &[([i64; 6], i64)]) {
            let mut cols = JacobianColumns::new();
            for part in chunk.chunks(BATCH) {
                cols.clear();
                for (j, r) in part {
                    cols.push(j.map(|v| v as i16), *r as i16);
                }
                eq.accumulate_columns(&cols);
            }
            if chunk.is_empty() {
                eq.accumulate_columns(&JacobianColumns::new());
            }
        }
        let m = i64::from(i16::MAX);
        let big: Vec<([i64; 6], i64)> = (0..BATCH as i64)
            .map(|i| {
                let s = if i % 3 == 0 { -1 } else { 1 };
                ([s * m, m, -m, s * m, -m, m], -s * m)
            })
            .collect();
        let small: Vec<([i64; 6], i64)> = (0..BATCH as i64)
            .map(|i| ([3 - i % 7, -2, 1, i % 5, 4, -1], 2 - i % 4))
            .collect();
        let long: Vec<_> = small.iter().cycle().take(5 * BATCH / 2).copied().collect();
        // (chunk, whether the bound holds at the paper's Q29.3 / 32 bits)
        let first_chunk_fails = [(&big[..], false), (&small[..], false)];
        let fails_mid_stream = [
            (&small[..], true),
            (&small[..BATCH / 2], true),
            (&big[..], false),
            (&small[..], false),
        ];
        let longer_than_a_batch = [(&long[..], true), (&[][..], false)];
        for bits in [32, 24, 16, 12] {
            for hes_frac in [HES_FRAC, 0, 6, 8] {
                let streams = [
                    &first_chunk_fails[..],
                    &fails_mid_stream,
                    &longer_than_a_batch,
                ];
                for stream in streams {
                    let mut batched = QNormalEquations::zero_with(hes_frac, bits);
                    let mut per_row = batched.clone();
                    for &(chunk, proof) in stream {
                        if (bits, hes_frac) == (32, HES_FRAC) && !chunk.is_empty() {
                            assert_eq!(bound_holds(&batched, chunk), proof);
                        }
                        accumulate_parts(&mut batched, chunk);
                        for (j, r) in chunk {
                            per_row.accumulate(j, *r);
                        }
                        assert_eq!(batched, per_row, "bits {bits} hes_frac {hes_frac}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_combines_batches() {
        let mut a = QNormalEquations::zero();
        let mut b = QNormalEquations::zero();
        a.accumulate(&[4, 0, 0, 0, 0, 0], 16);
        b.accumulate(&[4, 0, 0, 0, 0, 0], 16);
        let mut m = QNormalEquations::zero();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.count, 2);
        assert_eq!(m.h[0], 2 * a.h[0]);
        assert_eq!(m.cost, 2 * a.cost);
    }
}

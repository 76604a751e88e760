//! The Hessian / steepest-descent kernel (§3.4): `H += Jᵀ J` and
//! `b += Jᵀ r` accumulated in 32-bit Q29.3 — the paper's finding is
//! that 16-bit accumulators break the LM solver while Q29.3 tracks as
//! well as float.

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

/// Accumulates a whole batch of Jacobian rows and residuals.
pub fn accumulate_batch_q(eq: &mut QNormalEquations, rows: &[[i64; 6]], residuals: &[i64]) {
    assert_eq!(rows.len(), residuals.len(), "rows/residuals mismatch");
    for (j, &r) in rows.iter().zip(residuals) {
        eq.accumulate(j, r);
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

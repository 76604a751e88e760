//! Fixed-point helper semantics shared by the fast quantized path and
//! the PIM machine execution.
//!
//! Every helper here is defined to match one PIM primitive exactly:
//!
//! * [`qmul_shr`] — `mul_signed` followed by an arithmetic right shift
//!   of the double-width product in the Tmp Reg;
//! * [`qdiv`] — the restoring divider with sign pre/post-processing,
//!   truncating toward zero;
//! * [`sat32`] / [`sat16`] — the carry-extension saturation at the
//!   configured lane width.
//!
//! The equivalence is enforced by tests in [`crate::pim_exec`].

/// Full product then arithmetic right shift: `(a * b) >> shift`.
#[inline]
pub fn qmul_shr(a: i64, b: i64, shift: u32) -> i64 {
    (a * b) >> shift
}

/// Quotient truncated toward zero, like the PIM restoring divider with
/// sign fix-up. Division by zero saturates to the signed extreme of the
/// dividend's sign (the divider's all-ones quotient reinterpreted).
#[inline]
pub fn qdiv(num: i64, den: i64, sat_bits: u32) -> i64 {
    if den == 0 {
        let max = (1i64 << (sat_bits - 1)) - 1;
        return if num >= 0 { max } else { -max - 1 };
    }
    num / den
}

/// Saturate to signed 32-bit (the Q29.3 accumulator clamp).
#[inline]
pub fn sat32(v: i64) -> i64 {
    v.clamp(i32::MIN as i64, i32::MAX as i64)
}

/// Saturate to signed 16-bit (Q14.2 / Q4.12 outputs).
#[inline]
pub fn sat16(v: i64) -> i64 {
    v.clamp(i16::MIN as i64, i16::MAX as i64)
}

/// Round a float to the nearest fixed-point raw value with `frac`
/// fractional bits (ties away from zero, as [`f64::round`]),
/// saturating to `bits` total width. NaN maps to 0.
///
/// The bounds are integers, so clamping before rounding gives the same
/// value as after; the clamped value then rounds by truncation and an
/// exact remainder test instead of a call to `round`, which the
/// baseline x86-64 target has no instruction for.
#[inline]
pub fn quantize(v: f64, frac: u32, bits: u32) -> i64 {
    let max = ((1i64 << (bits - 1)) - 1) as f64;
    let min = -(1i64 << (bits - 1)) as f64;
    let scaled = (v * (1i64 << frac) as f64).clamp(min, max);
    let whole = scaled as i64;
    let rem = scaled - whole as f64;
    whole + i64::from(rem >= 0.5) - i64::from(rem <= -0.5)
}

/// Fixed-point raw value back to float: the test reference inverting
/// `quantize`.
#[cfg(test)]
fn dequantize(raw: i64, frac: u32) -> f64 {
    raw as f64 / (1i64 << frac) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_shift_truncates_toward_neg_inf() {
        assert_eq!(qmul_shr(-3, 1, 1), -2); // -3 >> 1 = -2
        assert_eq!(qmul_shr(3, 1, 1), 1);
        assert_eq!(qmul_shr(1 << 15, 1 << 15, 15), 1 << 15);
    }

    #[test]
    fn div_truncates_toward_zero() {
        assert_eq!(qdiv(-7, 2, 32), -3);
        assert_eq!(qdiv(7, 2, 32), 3);
        assert_eq!(qdiv(5, 0, 16), 32767);
        assert_eq!(qdiv(-5, 0, 16), -32768);
    }

    #[test]
    fn saturation_bounds() {
        assert_eq!(sat32(i64::MAX), i32::MAX as i64);
        assert_eq!(sat32(i64::MIN), i32::MIN as i64);
        assert_eq!(sat16(40000), 32767);
        assert_eq!(sat16(-40000), -32768);
        assert_eq!(sat16(1234), 1234);
    }

    /// The rounding `quantize` replaces: `round`, clamp, cast.
    fn quantize_by_round(v: f64, frac: u32, bits: u32) -> i64 {
        let scaled = (v * (1i64 << frac) as f64).round();
        let max = ((1i64 << (bits - 1)) - 1) as f64;
        let min = -(1i64 << (bits - 1)) as f64;
        scaled.clamp(min, max) as i64
    }

    /// Bit-identical to `round`-clamp-cast on ties, values one ulp off
    /// a tie, the saturation bounds, infinities, NaN and a random sweep.
    #[test]
    fn quantize_rounds_like_f64_round() {
        let mut values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1e300];
        for k in -70_000i64..70_000 {
            let tie = k as f64 + 0.5;
            values.extend([tie, tie.next_up(), tie.next_down(), k as f64]);
            values.extend([(k as f64).next_up(), (k as f64).next_down()]);
        }
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            values.push((s >> 11) as f64 / (1u64 << 53) as f64 * 80_000.0 - 40_000.0);
        }
        let formats = [
            (0, 16),
            (2, 16),
            (4, 16),
            (12, 16),
            (15, 16),
            (4, 8),
            (3, 32),
        ];
        for &v in &values {
            for (frac, bits) in formats {
                let scaled_back = v / (1i64 << frac) as f64;
                assert_eq!(
                    quantize(scaled_back, frac, bits),
                    quantize_by_round(scaled_back, frac, bits),
                    "{v} at Q.{frac} in {bits} bits"
                );
            }
        }
    }

    #[test]
    fn quantize_roundtrip() {
        let v = 1.23456;
        let raw = quantize(v, 12, 16);
        assert!((dequantize(raw, 12) - v).abs() < 1.0 / 4096.0);
        // saturates
        assert_eq!(quantize(100.0, 12, 16), 32767);
        assert_eq!(quantize(-100.0, 12, 16), -32768);
    }
}

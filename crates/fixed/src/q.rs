use std::cmp::Ordering;
use std::fmt;

/// A two's-complement fixed-point number in Q`I`.`F` format.
///
/// `I` counts the integer bits *including the sign bit* and `F` the
/// fractional bits, following the convention of the paper (Q4.12, Q1.15,
/// Q14.2 and Q29.3 are all 16- or 32-bit words). The total width
/// `I + F` must be between 2 and 63 bits.
///
/// The raw value is stored sign-extended in an `i64`; every constructor
/// and arithmetic method maintains the invariant that the raw value fits
/// in `I + F` bits.
///
/// Arithmetic comes in two flavours mirroring the PIM datapath:
/// *wrapping* (`wrapping_add`, plain `+`) which reduces modulo 2^(I+F)
/// exactly like the hardware accumulator with carry propagation cut at
/// the word boundary, and *saturating* (`saturating_add`, …) which uses
/// the carry-extension overflow mask the way the paper's `sat` operator
/// does.
///
/// ```
/// use pimvo_fixed::Q;
/// let a: Q<4, 12> = Q::from_f64(3.25);
/// let b: Q<4, 12> = Q::from_f64(6.0); // saturates: max is ~7.9998
/// assert_eq!(a.saturating_add(b), Q::<4, 12>::MAX);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Q<const I: u32, const F: u32>(i64);

impl<const I: u32, const F: u32> Q<I, F> {
    /// Total bit width of the format (integer + fractional bits).
    pub const BITS: u32 = I + F;
    /// Largest representable value.
    pub const MAX: Self = {
        assert!(I + F >= 2 && I + F <= 63, "Q format must be 2..=63 bits");
        Q((1i64 << (I + F - 1)) - 1)
    };
    /// Most negative representable value.
    pub const MIN: Self = Q(-(1i64 << (I + F - 1)));
    /// Zero.
    pub const ZERO: Self = Q(0);
    /// The smallest positive increment (one LSB).
    pub const EPSILON: Self = Q(1);
    /// Scale factor: one unit equals `2^F` raw LSBs.
    pub const SCALE: f64 = (1u64 << F) as f64;

    /// Builds a value from its raw two's-complement representation.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `raw` does not fit in `I + F` bits.
    #[inline]
    pub fn from_raw(raw: i64) -> Self {
        debug_assert!(
            raw >= Self::MIN.0 && raw <= Self::MAX.0,
            "raw value {raw} out of range for Q{I}.{F}"
        );
        Q(raw)
    }

    /// Builds a value from a raw representation, wrapping modulo 2^(I+F).
    #[inline]
    fn from_raw_wrapping(raw: i64) -> Self {
        let bits = I + F;
        let shifted = (raw as u64) << (64 - bits);
        Q((shifted as i64) >> (64 - bits))
    }

    /// Builds a value from a raw representation, saturating to the range.
    #[inline]
    fn from_raw_saturating(raw: i64) -> Self {
        Q(raw.clamp(Self::MIN.0, Self::MAX.0))
    }

    /// Converts from `f64`, rounding to nearest and saturating.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Self::ZERO;
        }
        let scaled = (v * Self::SCALE).round();
        if scaled >= Self::MAX.0 as f64 {
            Self::MAX
        } else if scaled <= Self::MIN.0 as f64 {
            Self::MIN
        } else {
            Q(scaled as i64)
        }
    }

    /// Raw two's-complement representation, sign-extended to `i64`.
    #[inline]
    pub fn raw(self) -> i64 {
        self.0
    }

    /// Converts to `f64`. Exact: every representable value fits in an f64
    /// mantissa for formats up to 53 bits.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE
    }

    /// Wrapping addition (hardware accumulator semantics).
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        Self::from_raw_wrapping(self.0 + rhs.0)
    }

    /// Wrapping subtraction.
    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        Self::from_raw_wrapping(self.0 - rhs.0)
    }

    /// Saturating addition (carry-extension `sat` semantics).
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Self::from_raw_saturating(self.0 + rhs.0)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self::from_raw_saturating(self.0 - rhs.0)
    }

    /// Average `(a + b) / 2` with truncation toward negative infinity —
    /// the PIM `avg` primitive (add then arithmetic shift right by 1).
    #[inline]
    pub fn avg(self, rhs: Self) -> Self {
        Q((self.0 + rhs.0) >> 1)
    }

    /// Absolute difference `|a - b|`, saturating.
    #[inline]
    pub fn abs_diff(self, rhs: Self) -> Self {
        Self::from_raw_saturating((self.0 - rhs.0).abs())
    }

    /// Branch-free maximum as realized on the PIM:
    /// `max(a, b) = sat(a - b) + b` (valid because `sat` clamps the
    /// difference at 0 from below only when `a < b`... the hardware uses
    /// the carry-extension mask; the arithmetic identity below is the
    /// Hacker's-Delight form the paper cites and is what we model).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Branch-free minimum (`min(a, b) = a - sat(a - b)` on hardware).
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Multiplies by a value in another format and rescales (with
    /// round-half-up on the discarded bits) into the requested output
    /// format, saturating on overflow.
    #[inline]
    pub fn mul_rescale<const IO: u32, const FO: u32>(self, rhs: impl Into<RawQ>) -> Q<IO, FO> {
        let rhs = rhs.into();
        let prod = self.0 * rhs.raw;
        let prod_frac = F + rhs.frac;
        rescale_raw(prod, prod_frac, FO)
    }

    /// Reinterprets into another format, shifting the binary point and
    /// saturating (used for explicit down/up-conversion steps between
    /// pipeline stages).
    #[inline]
    pub fn convert<const IO: u32, const FO: u32>(self) -> Q<IO, FO> {
        rescale_raw(self.0, F, FO)
    }

    /// `self / rhs` using integer division on the raw values, keeping
    /// `FO` fractional bits in the quotient (the PIM restoring divider
    /// produces exactly this when the dividend is pre-shifted).
    ///
    /// Returns `None` when `rhs` is zero.
    #[inline]
    pub fn div_rescale<const I2: u32, const F2: u32, const IO: u32, const FO: u32>(
        self,
        rhs: Q<I2, F2>,
    ) -> Option<Q<IO, FO>> {
        if rhs.0 == 0 {
            return None;
        }
        // quotient fractional bits = F - F2 + pre_shift
        // choose pre_shift so that F - F2 + pre_shift == FO
        let pre_shift = (FO + F2) as i64 - F as i64;
        let num = if pre_shift >= 0 {
            (self.0 as i128) << pre_shift
        } else {
            (self.0 as i128) >> (-pre_shift)
        };
        let q = num / rhs.0 as i128;
        Some(Q::<IO, FO>::from_raw_saturating(
            q.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        ))
    }

    /// Absolute value, saturating at `MAX` for `MIN`.
    #[inline]
    pub fn abs(self) -> Self {
        Self::from_raw_saturating(self.0.abs())
    }
}

/// Rescales a raw fixed-point value from `from_frac` fractional bits to
/// `to_frac`, rounding half-up on right shifts, saturating into Q`IO`.`FO`.
#[inline]
fn rescale_raw<const IO: u32, const FO: u32>(raw: i64, from_frac: u32, to_frac: u32) -> Q<IO, FO> {
    let v = match from_frac.cmp(&to_frac) {
        Ordering::Greater => {
            let sh = from_frac - to_frac;
            // round half up: add 2^(sh-1) before the arithmetic shift
            ((raw as i128 + (1i128 << (sh - 1))) >> sh) as i64
        }
        Ordering::Less => {
            let sh = to_frac - from_frac;
            match raw.checked_shl(sh) {
                Some(v) if (v >> sh) == raw => v,
                _ => {
                    return if raw >= 0 {
                        Q::<IO, FO>::MAX
                    } else {
                        Q::<IO, FO>::MIN
                    }
                }
            }
        }
        Ordering::Equal => raw,
    };
    Q::<IO, FO>::from_raw_saturating(v)
}

/// Type-erased raw fixed-point value used by [`Q::mul_rescale`] so the
/// multiplier can accept any Q-format operand.
#[derive(Debug, Clone, Copy)]
pub struct RawQ {
    raw: i64,
    frac: u32,
}

impl<const I: u32, const F: u32> From<Q<I, F>> for RawQ {
    fn from(q: Q<I, F>) -> Self {
        RawQ { raw: q.0, frac: F }
    }
}

impl<const I: u32, const F: u32> fmt::Debug for Q<I, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{I}.{F}({})", self.to_f64())
    }
}

impl<const I: u32, const F: u32> fmt::Display for Q<I, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<const I: u32, const F: u32> fmt::Binary for Q<I, F> {
    /// Formats the raw two's-complement bit pattern (masked to the
    /// format's width) — the view the PIM word line stores.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mask = if Self::BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << Self::BITS) - 1
        };
        fmt::Binary::fmt(&((self.0 as u64) & mask), f)
    }
}

impl<const I: u32, const F: u32> fmt::LowerHex for Q<I, F> {
    /// Formats the raw bit pattern in hexadecimal.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mask = if Self::BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << Self::BITS) - 1
        };
        fmt::LowerHex::fmt(&((self.0 as u64) & mask), f)
    }
}

impl<const I: u32, const F: u32> PartialOrd for Q<I, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const I: u32, const F: u32> Ord for Q<I, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl<const I: u32, const F: u32> std::ops::Add for Q<I, F> {
    type Output = Self;
    /// Wrapping addition, matching the hardware accumulator.
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
}

impl<const I: u32, const F: u32> std::ops::Sub for Q<I, F> {
    type Output = Self;
    /// Wrapping subtraction, matching the hardware accumulator.
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

impl<const I: u32, const F: u32> std::ops::Neg for Q<I, F> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::from_raw_wrapping(-self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    type Q4_12 = Q<4, 12>;
    type Q1_15 = Q<1, 15>;
    type Q29_3 = Q<29, 3>;

    #[test]
    fn constants() {
        assert_eq!(Q4_12::BITS, 16);
        assert_eq!(Q4_12::MAX.raw(), 32767);
        assert_eq!(Q4_12::MIN.raw(), -32768);
        assert_eq!(Q4_12::SCALE, 4096.0);
        assert_eq!(Q29_3::BITS, 32);
    }

    #[test]
    fn f64_roundtrip_is_within_half_lsb() {
        for &v in &[0.0, 1.0, -1.0, 3.14159, -2.71828, 7.9, -7.9] {
            let q = Q4_12::from_f64(v);
            assert!((q.to_f64() - v).abs() <= 0.5 / 4096.0 + 1e-12, "v={v}");
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q4_12::from_f64(100.0), Q4_12::MAX);
        assert_eq!(Q4_12::from_f64(-100.0), Q4_12::MIN);
        assert_eq!(Q4_12::from_f64(f64::NAN), Q4_12::ZERO);
    }

    #[test]
    fn wrapping_add_wraps() {
        let max = Q4_12::MAX;
        let one = Q4_12::EPSILON;
        assert_eq!(max.wrapping_add(one), Q4_12::MIN);
    }

    #[test]
    fn saturating_ops_clamp() {
        let max = Q4_12::MAX;
        assert_eq!(max.saturating_add(Q4_12::EPSILON), max);
        assert_eq!(Q4_12::MIN.saturating_sub(Q4_12::EPSILON), Q4_12::MIN);
    }

    #[test]
    fn avg_matches_shift() {
        let a = Q4_12::from_f64(3.0);
        let b = Q4_12::from_f64(1.0);
        assert_eq!(a.avg(b).to_f64(), 2.0);
        // truncation toward -inf on odd raw sums
        let a = Q4_12::from_raw(3);
        let b = Q4_12::from_raw(0);
        assert_eq!(a.avg(b).raw(), 1);
        let a = Q4_12::from_raw(-3);
        assert_eq!(a.avg(b).raw(), -2);
    }

    #[test]
    fn mul_rescale_q4_12_by_q1_15() {
        let a = Q4_12::from_f64(2.5);
        let r = Q1_15::from_f64(-0.5);
        let out: Q4_12 = a.mul_rescale(r);
        assert!((out.to_f64() + 1.25).abs() < 2.0 / 4096.0);
    }

    #[test]
    fn div_rescale_basic() {
        let x: Q<20, 12> = Q::from_f64(6.0);
        let z: Q<20, 12> = Q::from_f64(2.0);
        let q: Q<20, 12> = x.div_rescale::<20, 12, 20, 12>(z).unwrap();
        assert!((q.to_f64() - 3.0).abs() < 1.0 / 4096.0);
        assert!(x.div_rescale::<20, 12, 20, 12>(Q::ZERO).is_none());
    }

    #[test]
    fn convert_between_formats() {
        let j: Q<14, 2> = Q::<4, 12>::from_f64(3.75).convert();
        assert_eq!(j.to_f64(), 3.75);
        // precision loss rounds to nearest
        let j: Q<14, 2> = Q::<4, 12>::from_f64(3.3).convert();
        assert!((j.to_f64() - 3.25).abs() < 0.26);
    }

    #[test]
    fn min_max_and_absdiff() {
        let a = Q4_12::from_f64(1.0);
        let b = Q4_12::from_f64(-2.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(a.abs_diff(b).to_f64(), 3.0);
        assert_eq!(b.abs(), Q4_12::from_f64(2.0));
    }

    #[test]
    fn ordering_follows_value() {
        let mut v = [
            Q4_12::from_f64(1.5),
            Q4_12::from_f64(-3.0),
            Q4_12::from_f64(0.0),
        ];
        v.sort();
        assert_eq!(v[0].to_f64(), -3.0);
        assert_eq!(v[2].to_f64(), 1.5);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Q4_12::ZERO).is_empty());
    }

    #[test]
    fn binary_and_hex_show_raw_pattern() {
        let v = Q4_12::from_raw(-1); // all ones in 16 bits
        assert_eq!(format!("{v:x}"), "ffff");
        assert_eq!(format!("{v:b}"), "1".repeat(16));
        let one = Q4_12::from_f64(1.0); // raw 0x1000
        assert_eq!(format!("{one:x}"), "1000");
    }
}

//! Saturating lane arithmetic on plain integer types.
//!
//! The PIM value model (crate `pimvo-pim`) operates on lanes of 8/16/32
//! bits; these helpers define the exact semantics of the saturating and
//! averaging primitives for each lane width so that the fast vector model
//! and the gate-level bit-exact model agree on one definition.

/// Saturating unsigned 8-bit subtract, clamping at zero.
#[inline]
pub fn sat_sub_u8(a: u8, b: u8) -> u8 {
    a.saturating_sub(b)
}

/// Absolute difference of unsigned 8-bit values (Fig. 7-a of the paper).
#[inline]
pub fn abs_diff_u8(a: u8, b: u8) -> u8 {
    a.abs_diff(b)
}

/// Average with truncation: `(a + b) >> 1` on unsigned 8-bit pixels.
#[inline]
pub fn avg_u8(a: u8, b: u8) -> u8 {
    (((a as u16) + (b as u16)) >> 1) as u8
}

/// Branch-free max via the saturating identity the paper cites:
/// `max(a, b) = sat(a - b) + b` (unsigned saturation clamps at 0).
#[inline]
pub fn max_u8(a: u8, b: u8) -> u8 {
    sat_sub_u8(a, b).wrapping_add(b)
}

/// Branch-free min: `min(a, b) = a - sat(a - b)`.
#[inline]
pub fn min_u8(a: u8, b: u8) -> u8 {
    a.wrapping_sub(sat_sub_u8(a, b))
}

/// Generic saturating clamp of an `i64` into a signed `bits`-wide word
/// (`1..=64` bits).
#[inline]
pub fn clamp_signed(v: i64, bits: u32) -> i64 {
    let max = i64::MAX >> (64 - bits);
    v.clamp(!max, max)
}

/// Generic wrap of an `i64` into a signed `bits`-wide word (two's
/// complement truncation, i.e. carry propagation cut at the word edge).
#[inline]
pub fn wrap_signed(v: i64, bits: u32) -> i64 {
    let sh = 64 - bits;
    ((v as u64) << sh) as i64 >> sh
}

/// Generic wrap into an unsigned `bits`-wide word.
#[inline]
pub fn wrap_unsigned(v: i64, bits: u32) -> u64 {
    (v as u64) & (u64::MAX >> (64 - bits))
}

/// Generic saturating clamp into an unsigned `bits`-wide word
/// (`1..=64` bits). No `i64` exceeds a 64-bit word's maximum, so at 64
/// bits only negative values move.
#[inline]
pub fn clamp_unsigned(v: i64, bits: u32) -> u64 {
    let max = (u64::MAX >> (64 - bits)).min(i64::MAX as u64) as i64;
    v.clamp(0, max) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_primitives() {
        assert_eq!(sat_sub_u8(10, 100), 0);
        assert_eq!(abs_diff_u8(10, 100), 90);
        assert_eq!(avg_u8(3, 4), 3);
        assert_eq!(avg_u8(255, 255), 255);
    }

    #[test]
    fn branch_free_min_max_match_std() {
        for a in (0u16..=255).step_by(7) {
            for b in (0u16..=255).step_by(11) {
                let (a, b) = (a as u8, b as u8);
                assert_eq!(max_u8(a, b), a.max(b), "max({a},{b})");
                assert_eq!(min_u8(a, b), a.min(b), "min({a},{b})");
            }
        }
    }

    #[test]
    fn wrap_and_clamp() {
        assert_eq!(wrap_signed(128, 8), -128);
        assert_eq!(wrap_signed(-129, 8), 127);
        assert_eq!(clamp_signed(128, 8), 127);
        assert_eq!(clamp_signed(-300, 8), -128);
        assert_eq!(wrap_unsigned(256, 8), 0);
        assert_eq!(clamp_unsigned(-5, 8), 0);
        assert_eq!(clamp_unsigned(300, 8), 255);
    }

    #[test]
    fn clamps_are_exact_at_every_width() {
        let vals = [
            i64::MIN,
            i64::MIN + 1,
            -300,
            -1,
            0,
            1,
            300,
            i64::MAX - 1,
            i64::MAX,
        ];
        for bits in 1..=64u32 {
            let (lo, hi) = (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1);
            let umax = (1i128 << bits) - 1;
            for v in vals {
                let w = i128::from(v);
                assert_eq!(
                    i128::from(clamp_signed(v, bits)),
                    w.clamp(lo, hi),
                    "{v} s{bits}"
                );
                assert_eq!(
                    i128::from(clamp_unsigned(v, bits)),
                    w.clamp(0, umax),
                    "{v} u{bits}"
                );
            }
        }
    }
}

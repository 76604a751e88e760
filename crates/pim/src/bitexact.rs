//! Gate-level reference model of the PIM datapath.
//!
//! The fast simulator in [`crate::PimMachine`] computes lane values with
//! ordinary integer arithmetic. This module re-derives the same results
//! **from the gates the paper actually proposes** — the two sense
//! amplifiers per bitline column (AND, NOR), the derived XOR/OR gates,
//! and the 8-bit accumulator slices with configurable carry propagation
//! and carry extension (Fig. 6) — and is used by property tests to prove
//! that the two models agree bit-for-bit.
//!
//! Everything here operates on *word lines as bit vectors*: a row is a
//! `&[bool]` of physical column values, and lanes are consecutive groups
//! of 8/16/32/64 columns in little-endian bit order.

use crate::config::LaneWidth;

/// Output of the two sense amplifiers for a dual-row activation, plus
/// the two derived gates (Fig. 6-a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenseAmpOut {
    /// SA1: bit-wise AND of the two activated rows.
    pub and: Vec<bool>,
    /// SA2: bit-wise NOR.
    pub nor: Vec<bool>,
    /// Derived: XOR = NOR(AND, NOR).
    pub xor: Vec<bool>,
    /// Derived: OR = NOT(NOR).
    pub or: Vec<bool>,
}

/// Simultaneously activates two word lines and senses every column.
///
/// # Panics
///
/// Panics if the rows have different lengths.
pub fn sense(row_a: &[bool], row_b: &[bool]) -> SenseAmpOut {
    assert_eq!(row_a.len(), row_b.len(), "word lines must have equal width");
    let n = row_a.len();
    let mut out = SenseAmpOut {
        and: Vec::with_capacity(n),
        nor: Vec::with_capacity(n),
        xor: Vec::with_capacity(n),
        or: Vec::with_capacity(n),
    };
    for i in 0..n {
        let (a, b) = (row_a[i], row_b[i]);
        let and = a & b;
        let nor = !(a | b);
        out.and.push(and);
        out.nor.push(nor);
        // XOR realized as a NOR gate over the two SA outputs
        out.xor.push(!(and | nor));
        // OR realized as a NOT gate on the NOR output
        out.or.push(!nor);
    }
    out
}

/// Result of one accumulator pass: the sum bits and the carry-extension
/// mask (one carry-out flag per lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccumulatorOut {
    /// Per-column sum bits.
    pub sum: Vec<bool>,
    /// Per-lane carry-out of the most significant slice — the "Carry
    /// Extension" bitmask used for saturation and comparison.
    pub carry_ext: Vec<bool>,
}

/// The bit-parallel accumulator: adds two rows using only the SA
/// outputs (AND = generate, XOR = propagate-sum) and a ripple carry
/// chained through 8-bit slices; the carry-control configuration cuts
/// the chain at lane boundaries given by `width`.
///
/// `carry_in` seeds each lane's LSB carry (used to form two's-complement
/// subtraction: `a - b = a + !b + 1`).
pub fn accumulate(
    row_a: &[bool],
    row_b: &[bool],
    width: LaneWidth,
    carry_in: bool,
) -> AccumulatorOut {
    assert_eq!(row_a.len(), row_b.len());
    let lane_bits = width.bits() as usize;
    assert_eq!(
        row_a.len() % lane_bits,
        0,
        "row width must be a multiple of the lane width"
    );
    let lanes = row_a.len() / lane_bits;
    let mut sum = vec![false; row_a.len()];
    let mut carry_ext = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let base = lane * lane_bits;
        // carry control: the chain restarts at every lane boundary
        let mut carry = carry_in;
        for k in 0..lane_bits {
            let i = base + k;
            let (a, b) = (row_a[i], row_b[i]);
            // full adder from SA primitives:
            //   p = a XOR b   (derived SA gate)
            //   g = a AND b   (SA1)
            let p = a ^ b;
            let g = a & b;
            sum[i] = p ^ carry;
            carry = g | (p & carry);
        }
        carry_ext.push(carry);
    }
    AccumulatorOut { sum, carry_ext }
}

/// Bit-level two's-complement subtraction `a - b` per lane:
/// `a + NOT(b) + 1`, using the OR/NOR-derived inverse. The carry-out of
/// a lane equals `a >= b` for unsigned operands — exactly the mask the
/// carry extension exposes for comparison and saturation.
pub fn subtract(row_a: &[bool], row_b: &[bool], width: LaneWidth) -> AccumulatorOut {
    let not_b: Vec<bool> = row_b.iter().map(|&b| !b).collect();
    accumulate(row_a, &not_b, width, true)
}

/// Encodes unsigned lane values into a bit row (little-endian within
/// each lane).
pub fn encode_lanes(values: &[u64], width: LaneWidth) -> Vec<bool> {
    let lane_bits = width.bits() as usize;
    let mut out = Vec::with_capacity(values.len() * lane_bits);
    for &v in values {
        for k in 0..lane_bits {
            out.push((v >> k) & 1 == 1);
        }
    }
    out
}

/// Decodes a bit row into unsigned lane values.
pub fn decode_lanes(row: &[bool], width: LaneWidth) -> Vec<u64> {
    let lane_bits = width.bits() as usize;
    assert_eq!(row.len() % lane_bits, 0);
    row.chunks(lane_bits)
        .map(|bits| {
            bits.iter()
                .enumerate()
                .fold(0u64, |acc, (k, &b)| acc | ((b as u64) << k))
        })
        .collect()
}

/// The complete multi-step absolute-difference sequence of Fig. 7-a,
/// executed at gate level: `M = A - B` with carry extension `N`
/// (all-zero or all-one per lane), then `M = M + N`, then `C = M ^ N`.
pub fn abs_diff(row_a: &[bool], row_b: &[bool], width: LaneWidth) -> Vec<bool> {
    let lane_bits = width.bits() as usize;
    let sub = subtract(row_a, row_b, width);
    // N: lanes where the subtraction borrowed (carry-out == 0) get the
    // all-ones pattern; others all-zero. (Fig. 7-a's N is the borrow
    // indicator replicated across the lane.)
    let mut n_row = vec![false; row_a.len()];
    for (lane, &cout) in sub.carry_ext.iter().enumerate() {
        if !cout {
            for k in 0..lane_bits {
                n_row[lane * lane_bits + k] = true;
            }
        }
    }
    // M = M + N (adds -1 on borrowed lanes, i.e. M - 1)
    let m_plus_n = accumulate(&sub.sum, &n_row, width, false);
    // C = M XOR N (bit inversion on borrowed lanes) — via the SA gates
    sense(&m_plus_n.sum, &n_row).xor
}

/// The branch-free min/max sequence of Fig. 7-b at gate level, for
/// unsigned lanes: `D = sat(A - B)` (zero on borrow), then
/// `max = D + B` and `min = A - D`.
pub fn min_max(row_a: &[bool], row_b: &[bool], width: LaneWidth) -> (Vec<bool>, Vec<bool>) {
    let lane_bits = width.bits() as usize;
    let sub = subtract(row_a, row_b, width);
    // saturation: zero out lanes that borrowed, using the carry mask
    let mut sat = sub.sum.clone();
    for (lane, &cout) in sub.carry_ext.iter().enumerate() {
        if !cout {
            for k in 0..lane_bits {
                sat[lane * lane_bits + k] = false;
            }
        }
    }
    let max = accumulate(&sat, row_b, width, false).sum;
    let min = subtract(row_a, &sat, width).sum;
    (min, max)
}

/// Gate-level shift-and-add multiplication of Fig. 7-c for unsigned
/// lanes, processing multiplier bits from MSB to LSB with the partial
/// product held in a double-width register. Returns the `2n`-bit
/// product rows (low, high interleaved as one double-width lane row).
pub fn multiply(row_a: &[bool], row_b: &[bool], width: LaneWidth) -> Vec<u64> {
    let lane_bits = width.bits() as usize;
    let a = decode_lanes(row_a, width);
    let b = decode_lanes(row_b, width);
    // Bit-serial-over-multiplier shift-accumulate, mirroring the Tmp Reg
    // concatenation trick: acc = (acc << 1) + (bit ? a : 0), bit by bit.
    // Each step only uses shift and add — the primitives available in
    // one accumulator cycle.
    a.iter()
        .zip(&b)
        .map(|(&av, &bv)| {
            let mut acc: u64 = 0;
            for k in (0..lane_bits).rev() {
                acc <<= 1;
                if (bv >> k) & 1 == 1 {
                    acc = acc.wrapping_add(av);
                }
            }
            acc
        })
        .collect()
}

/// Gate-level restoring division of Fig. 7-d for unsigned lanes:
/// returns (quotient, remainder) per lane. Division by zero yields the
/// all-ones quotient, matching [`crate::MachineInstr::DivFrac`] with
/// `frac: 0`.
pub fn divide(row_a: &[bool], row_b: &[bool], width: LaneWidth) -> (Vec<u64>, Vec<u64>) {
    let lane_bits = width.bits() as usize;
    let a = decode_lanes(row_a, width);
    let b = decode_lanes(row_b, width);
    let mask = if lane_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << lane_bits) - 1
    };
    let mut quots = Vec::with_capacity(a.len());
    let mut rems = Vec::with_capacity(a.len());
    for (&av, &bv) in a.iter().zip(&b) {
        if bv == 0 {
            quots.push(mask);
            rems.push(av);
            continue;
        }
        let mut rem: u64 = 0;
        let mut quot: u64 = 0;
        for k in (0..lane_bits).rev() {
            // shift remainder left, bring down next dividend bit
            rem = (rem << 1) | ((av >> k) & 1);
            // trial subtract; restore on borrow (quotient bit stacks LSB)
            quot <<= 1;
            if rem >= bv {
                rem -= bv;
                quot |= 1;
            }
        }
        quots.push(quot);
        rems.push(rem);
    }
    (quots, rems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig7a_absolute_difference_example() {
        // A = 121, B = 106 -> |A - B| = 15 ; and A = 12, B = 22 -> 10
        let a = encode_lanes(&[121, 12], LaneWidth::W8);
        let b = encode_lanes(&[106, 22], LaneWidth::W8);
        let c = abs_diff(&a, &b, LaneWidth::W8);
        assert_eq!(decode_lanes(&c, LaneWidth::W8), vec![15, 10]);
    }

    #[test]
    fn paper_fig7b_min_max_example() {
        // A = [121, 12], B = [106, 22] -> min [106, 12], max [121, 22]
        let a = encode_lanes(&[121, 12], LaneWidth::W8);
        let b = encode_lanes(&[106, 22], LaneWidth::W8);
        let (min, max) = min_max(&a, &b, LaneWidth::W8);
        assert_eq!(decode_lanes(&min, LaneWidth::W8), vec![106, 12]);
        assert_eq!(decode_lanes(&max, LaneWidth::W8), vec![121, 22]);
    }

    #[test]
    fn paper_fig7c_multiplication_example() {
        // 13 x 11 = 143
        let a = encode_lanes(&[13], LaneWidth::W8);
        let b = encode_lanes(&[11], LaneWidth::W8);
        assert_eq!(multiply(&a, &b, LaneWidth::W8), vec![143]);
    }

    #[test]
    fn paper_fig7d_division_example() {
        // 15 / 6 = 2 rem 3
        let a = encode_lanes(&[15], LaneWidth::W8);
        let b = encode_lanes(&[6], LaneWidth::W8);
        let (q, r) = divide(&a, &b, LaneWidth::W8);
        assert_eq!(q, vec![2]);
        assert_eq!(r, vec![3]);
    }

    #[test]
    fn accumulate_with_carry_control() {
        // 16-bit lanes: carries must cross the 8-bit slice boundary
        let a = encode_lanes(&[0x00FF, 0x1234], LaneWidth::W16);
        let b = encode_lanes(&[0x0001, 0x0FFF], LaneWidth::W16);
        let out = accumulate(&a, &b, LaneWidth::W16, false);
        assert_eq!(decode_lanes(&out.sum, LaneWidth::W16), vec![0x0100, 0x2233]);
        // 8-bit lanes: the same data with the carry chain cut at 8 bits
        let out8 = accumulate(&a, &b, LaneWidth::W8, false);
        assert_eq!(
            decode_lanes(&out8.sum, LaneWidth::W8),
            vec![0x00, 0x00, 0x33, 0x21] // per-byte wrapping sums (LE)
        );
    }

    #[test]
    fn carry_extension_signals_unsigned_compare() {
        let a = encode_lanes(&[50, 10], LaneWidth::W8);
        let b = encode_lanes(&[20, 30], LaneWidth::W8);
        let sub = subtract(&a, &b, LaneWidth::W8);
        // carry-out true <=> a >= b
        assert_eq!(sub.carry_ext, vec![true, false]);
    }

    #[test]
    fn sense_amp_gates_consistent() {
        let a = encode_lanes(&[0b1100], LaneWidth::W8);
        let b = encode_lanes(&[0b1010], LaneWidth::W8);
        let s = sense(&a, &b);
        assert_eq!(decode_lanes(&s.and, LaneWidth::W8), vec![0b1000]);
        assert_eq!(decode_lanes(&s.xor, LaneWidth::W8), vec![0b0110]);
        assert_eq!(decode_lanes(&s.or, LaneWidth::W8), vec![0b1110]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let vals = vec![0u64, 1, 255, 128, 7];
        let row = encode_lanes(&vals, LaneWidth::W8);
        assert_eq!(decode_lanes(&row, LaneWidth::W8), vals);
    }
}

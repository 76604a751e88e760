//! Cross-validation: the fast lane-level simulator must agree
//! bit-for-bit with the gate-level reference model built from the two
//! sense amplifiers and the sliced accumulator.
//!
//! Every case is a one-op lowered program run through `run_program`,
//! so the gate model checks the interpreter path that program takes:
//! the 8-bit add, sub, abs-diff, min/max, logic and compare programs
//! run on `i16` lanes ([`LaneClass::I16`]), the 16-bit add, multiply
//! and divide programs on `i64` lanes. Each case asserts its class.

use pimvo_pim::{
    bitexact, lower, AluOp, ArrayConfig, LaneClass, LaneWidth, LogicFunc, LowerLevel, PimMachine,
    PimProgram, ScratchRows, Signedness, VReg, Val,
};
use proptest::prelude::*;

/// Row the one-op programs store their result to.
const OUT: usize = 2;

/// Loads `a` and `b` into rows 0 and 1 as unsigned `width` lanes, runs
/// the one-op program `op` builds over them (its result stored to
/// [`OUT`]), lowered at Opt, and checks the program's lane class.
fn run_one(
    width: LaneWidth,
    a: &[u64],
    b: &[u64],
    class: LaneClass,
    op: impl FnOnce(&mut PimProgram, Val, Val) -> VReg,
) -> PimMachine {
    let mut m = PimMachine::new(ArrayConfig::qvga());
    m.set_lanes(width, Signedness::Unsigned);
    let lanes = |v: &[u64]| v.iter().map(|&x| x as i64).collect::<Vec<_>>();
    m.host_write_lanes(0, &lanes(a)).unwrap();
    m.host_write_lanes(1, &lanes(b)).unwrap();
    let mut p = PimProgram::new("gate_check");
    p.set_lanes(width, Signedness::Unsigned);
    let v = op(&mut p, Val::Row(0), Val::Row(1));
    p.store(v, OUT);
    let prog = lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(8, 4)).unwrap();
    assert_eq!(prog.lane_class(), class, "{prog}");
    m.run_program(&prog).unwrap();
    m
}

/// The first `n` Tmp lanes as unsigned `bits`-wide words.
fn tmp_unsigned(m: &PimMachine, n: usize, bits: u32) -> Vec<u64> {
    m.tmp_lanes()[..n]
        .iter()
        .map(|&v| (v as u64) & (u64::MAX >> (64 - bits)))
        .collect()
}

/// The first `n` lanes of the stored result row.
fn stored(m: &mut PimMachine, n: usize) -> Vec<u64> {
    m.host_read_lanes(OUT).unwrap()[..n]
        .iter()
        .map(|&v| v as u64)
        .collect()
}

/// Runs a one-op 8-bit program (an `i16` program) and returns its
/// stored lanes, after checking the Tmp Reg it hands on holds them too.
fn run_w8(a: &[u64], b: &[u64], op: impl FnOnce(&mut PimProgram, Val, Val) -> VReg) -> Vec<u64> {
    let mut m = run_one(LaneWidth::W8, a, b, LaneClass::I16, op);
    let got = stored(&mut m, a.len());
    assert_eq!(tmp_unsigned(&m, a.len(), 8), got, "Tmp Reg vs stored row");
    got
}

/// Equal-length prefixes of two lane vectors.
fn pair<'a>(a: &'a [u64], b: &'a [u64]) -> (&'a [u64], &'a [u64]) {
    let n = a.len().min(b.len());
    (&a[..n], &b[..n])
}

proptest! {
    /// Addition: machine lanes == gate-level accumulator, at 8 and 16 bit.
    #[test]
    fn add_matches_gates_w8(a in prop::collection::vec(0u64..256, 1..64),
                            b_seed in any::<u64>()) {
        let b: Vec<u64> = a.iter().enumerate()
            .map(|(i, _)| (b_seed.rotate_left(i as u32)) & 0xFF).collect();
        let got = run_w8(&a, &b, |p, x, y| p.add(x, y));

        let ra = bitexact::encode_lanes(&a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(&b, LaneWidth::W8);
        let out = bitexact::accumulate(&ra, &rb, LaneWidth::W8, false);
        let want = bitexact::decode_lanes(&out.sum, LaneWidth::W8);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn add_matches_gates_w16(a in prop::collection::vec(0u64..65536, 1..32),
                             b in prop::collection::vec(0u64..65536, 1..32)) {
        let (a, b) = pair(&a, &b);
        let mut m = run_one(LaneWidth::W16, a, b, LaneClass::I64, |p, x, y| p.add(x, y));
        let got = stored(&mut m, a.len());

        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let out = bitexact::accumulate(&ra, &rb, LaneWidth::W16, false);
        prop_assert_eq!(got, bitexact::decode_lanes(&out.sum, LaneWidth::W16));
    }

    /// Subtraction via a + !b + 1 at gate level.
    #[test]
    fn sub_matches_gates(a in prop::collection::vec(0u64..256, 1..64),
                         b in prop::collection::vec(0u64..256, 1..64)) {
        let (a, b) = pair(&a, &b);
        let got = run_w8(a, b, |p, x, y| p.sub(x, y));

        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let out = bitexact::subtract(&ra, &rb, LaneWidth::W8);
        prop_assert_eq!(got, bitexact::decode_lanes(&out.sum, LaneWidth::W8));
    }

    /// The 3-step absolute-difference sequence.
    #[test]
    fn abs_diff_matches_gates(a in prop::collection::vec(0u64..256, 1..64),
                              b in prop::collection::vec(0u64..256, 1..64)) {
        let (a, b) = pair(&a, &b);
        let got = run_w8(a, b, |p, x, y| p.abs_diff(x, y));

        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let c = bitexact::abs_diff(&ra, &rb, LaneWidth::W8);
        prop_assert_eq!(got, bitexact::decode_lanes(&c, LaneWidth::W8));
    }

    /// The 2-step branch-free min/max sequence.
    #[test]
    fn min_max_match_gates(a in prop::collection::vec(0u64..256, 1..64),
                           b in prop::collection::vec(0u64..256, 1..64)) {
        let (a, b) = pair(&a, &b);
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let (gmin, gmax) = bitexact::min_max(&ra, &rb, LaneWidth::W8);

        let min = run_w8(a, b, |p, x, y| p.min(x, y));
        prop_assert_eq!(min, bitexact::decode_lanes(&gmin, LaneWidth::W8));
        let max = run_w8(a, b, |p, x, y| p.max(x, y));
        prop_assert_eq!(max, bitexact::decode_lanes(&gmax, LaneWidth::W8));
    }

    /// Shift-and-add multiplication against the gate-level walker: the
    /// Tmp Reg holds the 32-bit product, the stored row its low half.
    #[test]
    fn mul_matches_gates(a in prop::collection::vec(0u64..65536, 1..16),
                         b in prop::collection::vec(0u64..65536, 1..16)) {
        let (a, b) = pair(&a, &b);
        let mut m = run_one(LaneWidth::W16, a, b, LaneClass::I64, |p, x, y| p.mul(x, y));
        let got = tmp_unsigned(&m, a.len(), 32);

        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let want: Vec<u64> = bitexact::multiply(&ra, &rb, LaneWidth::W16)
            .into_iter().map(|p| p & 0xFFFF_FFFF).collect();
        let low: Vec<u64> = want.iter().map(|p| p & 0xFFFF).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(stored(&mut m, a.len()), low);
    }

    /// Restoring division (`DivFrac` with no fractional bits) against
    /// the gate-level walker's quotient; about a quarter of the divisors
    /// are zero, which both give the all-ones quotient.
    #[test]
    fn div_matches_gates(a in prop::collection::vec(0u64..65536, 1..16),
                         b in prop::collection::vec(0u64..65536, 1..16),
                         zeros in any::<u32>()) {
        let b: Vec<u64> = b.iter().enumerate()
            .map(|(i, &v)| if (zeros >> (2 * i)) & 3 == 0 { 0 } else { v }).collect();
        let (a, b) = pair(&a, &b);
        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let (gq, _) = bitexact::divide(&ra, &rb, LaneWidth::W16);

        let mut m = run_one(LaneWidth::W16, a, b, LaneClass::I64, |p, x, y| p.div_frac(x, y, 0));
        prop_assert_eq!(tmp_unsigned(&m, a.len(), 16), gq.clone());
        prop_assert_eq!(stored(&mut m, a.len()), gq);
    }

    /// Logic functions against the sense-amplifier outputs.
    #[test]
    fn logic_matches_sense_amps(a in prop::collection::vec(0u64..256, 1..64),
                                b in prop::collection::vec(0u64..256, 1..64)) {
        let (a, b) = pair(&a, &b);
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let s = bitexact::sense(&ra, &rb);

        for (f, bits) in [
            (LogicFunc::And, &s.and),
            (LogicFunc::Nor, &s.nor),
            (LogicFunc::Xor, &s.xor),
            (LogicFunc::Or, &s.or),
        ] {
            let got = run_w8(a, b, |p, x, y| p.alu(AluOp::Logic(f), x, y));
            prop_assert_eq!(got, bitexact::decode_lanes(bits, LaneWidth::W8), "func {:?}", f);
        }
    }

    /// Carry-extension comparison: cmp_gt mask == gate-level borrow mask
    /// on strict inequality.
    #[test]
    fn cmp_matches_carry_extension(a in prop::collection::vec(0u64..256, 1..64),
                                   b in prop::collection::vec(0u64..256, 1..64)) {
        let (a, b) = pair(&a, &b);
        let got = run_w8(a, b, |p, x, y| p.cmp_gt(x, y));
        // gate level: a > b  <=>  b - a borrows  <=> carry-out of (b - a) is 0
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let sub = bitexact::subtract(&rb, &ra, LaneWidth::W8);
        for i in 0..a.len() {
            let want = if !sub.carry_ext[i] { 0xFF } else { 0 };
            prop_assert_eq!(got[i], want, "lane {}", i);
        }
    }
}

//! Cross-validation: the fast lane-level simulator must agree
//! bit-for-bit with the gate-level reference model built from the two
//! sense amplifiers and the sliced accumulator.

use pimvo_pim::{
    bitexact, AluOp, ArrayConfig, LaneWidth, LogicFunc, Operand, PimMachine, Shift, Signedness,
};
use proptest::prelude::*;

fn machine_with(width: LaneWidth, a: &[u64], b: &[u64]) -> PimMachine {
    let mut m = PimMachine::new(ArrayConfig::qvga());
    m.set_lanes(width, Signedness::Unsigned);
    let ai: Vec<i64> = a.iter().map(|&v| v as i64).collect();
    let bi: Vec<i64> = b.iter().map(|&v| v as i64).collect();
    m.host_write_lanes(0, &ai).unwrap();
    m.host_write_lanes(1, &bi).unwrap();
    m
}

fn tmp_unsigned(m: &PimMachine, n: usize, bits: u32) -> Vec<u64> {
    m.tmp_lanes()[..n]
        .iter()
        .map(|&v| (v as u64) & (u64::MAX >> (64 - bits.min(64))))
        .collect()
}

proptest! {
    /// Addition: machine lanes == gate-level accumulator, at 8 and 16 bit.
    #[test]
    fn add_matches_gates_w8(a in prop::collection::vec(0u64..256, 1..64),
                            b_seed in any::<u64>()) {
        let b: Vec<u64> = a.iter().enumerate()
            .map(|(i, _)| (b_seed.rotate_left(i as u32)) & 0xFF).collect();
        let mut m = machine_with(LaneWidth::W8, &a, &b);
        m.alu(AluOp::Add, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        let got = tmp_unsigned(&m, a.len(), 8);

        let ra = bitexact::encode_lanes(&a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(&b, LaneWidth::W8);
        let out = bitexact::accumulate(&ra, &rb, LaneWidth::W8, false);
        let want = bitexact::decode_lanes(&out.sum, LaneWidth::W8);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn add_matches_gates_w16(a in prop::collection::vec(0u64..65536, 1..32),
                             b in prop::collection::vec(0u64..65536, 1..32)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut m = machine_with(LaneWidth::W16, a, b);
        m.alu(AluOp::Add, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        let got = tmp_unsigned(&m, n, 16);

        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let out = bitexact::accumulate(&ra, &rb, LaneWidth::W16, false);
        prop_assert_eq!(got, bitexact::decode_lanes(&out.sum, LaneWidth::W16));
    }

    /// Subtraction via a + !b + 1 at gate level.
    #[test]
    fn sub_matches_gates(a in prop::collection::vec(0u64..256, 1..64),
                         b in prop::collection::vec(0u64..256, 1..64)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut m = machine_with(LaneWidth::W8, a, b);
        m.alu(AluOp::Sub, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        let got = tmp_unsigned(&m, n, 8);

        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let out = bitexact::subtract(&ra, &rb, LaneWidth::W8);
        prop_assert_eq!(got, bitexact::decode_lanes(&out.sum, LaneWidth::W8));
    }

    /// The 3-step absolute-difference sequence.
    #[test]
    fn abs_diff_matches_gates(a in prop::collection::vec(0u64..256, 1..64),
                              b in prop::collection::vec(0u64..256, 1..64)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut m = machine_with(LaneWidth::W8, a, b);
        m.alu(AluOp::AbsDiff, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        let got = tmp_unsigned(&m, n, 8);

        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let c = bitexact::abs_diff(&ra, &rb, LaneWidth::W8);
        prop_assert_eq!(got, bitexact::decode_lanes(&c, LaneWidth::W8));
    }

    /// The 2-step branch-free min/max sequence.
    #[test]
    fn min_max_match_gates(a in prop::collection::vec(0u64..256, 1..64),
                           b in prop::collection::vec(0u64..256, 1..64)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let (gmin, gmax) = bitexact::min_max(&ra, &rb, LaneWidth::W8);

        let mut m = machine_with(LaneWidth::W8, a, b);
        m.alu(AluOp::Min, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        prop_assert_eq!(tmp_unsigned(&m, n, 8), bitexact::decode_lanes(&gmin, LaneWidth::W8));
        m.alu(AluOp::Max, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        prop_assert_eq!(tmp_unsigned(&m, n, 8), bitexact::decode_lanes(&gmax, LaneWidth::W8));
    }

    /// Shift-and-add multiplication against the gate-level walker.
    #[test]
    fn mul_matches_gates(a in prop::collection::vec(0u64..65536, 1..16),
                         b in prop::collection::vec(0u64..65536, 1..16)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut m = machine_with(LaneWidth::W16, a, b);
        m.mul(Operand::Row(0), Operand::Row(1)).unwrap();
        let got = tmp_unsigned(&m, n, 32);

        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let want: Vec<u64> = bitexact::multiply(&ra, &rb, LaneWidth::W16)
            .into_iter().map(|p| p & 0xFFFF_FFFF).collect();
        prop_assert_eq!(got, want);
    }

    /// Restoring division against the gate-level walker.
    #[test]
    fn div_matches_gates(a in prop::collection::vec(0u64..65536, 1..16),
                         b in prop::collection::vec(0u64..65536, 1..16)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ra = bitexact::encode_lanes(a, LaneWidth::W16);
        let rb = bitexact::encode_lanes(b, LaneWidth::W16);
        let (gq, gr) = bitexact::divide(&ra, &rb, LaneWidth::W16);

        let mut m = machine_with(LaneWidth::W16, a, b);
        m.div(Operand::Row(0), Operand::Row(1)).unwrap();
        prop_assert_eq!(tmp_unsigned(&m, n, 16), gq);
        m.rem(Operand::Row(0), Operand::Row(1)).unwrap();
        prop_assert_eq!(tmp_unsigned(&m, n, 16), gr);
    }

    /// Logic functions against the sense-amplifier outputs.
    #[test]
    fn logic_matches_sense_amps(a in prop::collection::vec(0u64..256, 1..64),
                                b in prop::collection::vec(0u64..256, 1..64)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let s = bitexact::sense(&ra, &rb);

        for (f, bits) in [
            (LogicFunc::And, &s.and),
            (LogicFunc::Nor, &s.nor),
            (LogicFunc::Xor, &s.xor),
            (LogicFunc::Or, &s.or),
        ] {
            let mut m = machine_with(LaneWidth::W8, a, b);
            m.alu(AluOp::Logic(f), Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
            prop_assert_eq!(
                tmp_unsigned(&m, n, 8),
                bitexact::decode_lanes(bits, LaneWidth::W8),
                "func {:?}", f
            );
        }
    }

    /// Carry-extension comparison: cmp_gt mask == gate-level borrow mask
    /// on strict inequality.
    #[test]
    fn cmp_matches_carry_extension(a in prop::collection::vec(0u64..256, 1..64),
                                   b in prop::collection::vec(0u64..256, 1..64)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut m = machine_with(LaneWidth::W8, a, b);
        m.alu(AluOp::CmpGt, Operand::Row(0), Operand::Row(1), Shift::None).unwrap();
        // gate level: a > b  <=>  b - a borrows  <=> carry-out of (b - a) is 0
        let ra = bitexact::encode_lanes(a, LaneWidth::W8);
        let rb = bitexact::encode_lanes(b, LaneWidth::W8);
        let sub = bitexact::subtract(&rb, &ra, LaneWidth::W8);
        for i in 0..n {
            let want = if !sub.carry_ext[i] { 0xFF } else { 0 };
            prop_assert_eq!(m.tmp_lanes()[i] as u64 & 0xFF, want, "lane {}", i);
        }
    }
}

//! Lane arithmetic at the edges of every width, 64-bit lanes included.
//!
//! Each case executes one instruction on full-range operands (the
//! extremes of the lane range mixed into random values) and compares
//! every Tmp lane with an `i128` oracle of the instruction's meaning:
//! add, sub and negation wrap at the lane width, saturating ops clamp
//! to it, the average is the exact floor mean, and shifts by the lane
//! width or more (amounts up to 80) give the sign fill or zero. Unsigned
//! compute on 64-bit lanes is rejected with a typed error. No case may
//! panic, in debug or release builds.

use pimvo_pim::{
    AluOp, ArrayConfig, LaneWidth, LogicFunc, MachineInstr, Operand, PimError, PimMachine, Shift,
    Signedness,
};
use proptest::prelude::*;

const WIDTHS: [LaneWidth; 4] = [
    LaneWidth::W8,
    LaneWidth::W16,
    LaneWidth::W32,
    LaneWidth::W64,
];

const ALU_OPS: [AluOp; 13] = [
    AluOp::Logic(LogicFunc::And),
    AluOp::Logic(LogicFunc::Nor),
    AluOp::Logic(LogicFunc::Xor),
    AluOp::Logic(LogicFunc::Or),
    AluOp::Add,
    AluOp::Sub,
    AluOp::SatAdd,
    AluOp::SatSub,
    AluOp::Avg,
    AluOp::AbsDiff,
    AluOp::Max,
    AluOp::Min,
    AluOp::CmpGt,
];

/// The value range of a `bits`-wide lane.
fn range(bits: u32, sign: Signedness) -> (i128, i128) {
    match sign {
        Signedness::Signed => (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1),
        Signedness::Unsigned => (0, (1i128 << bits) - 1),
    }
}

/// `v` modulo `2^bits`, as a lane value.
fn wrap(v: i128, bits: u32, sign: Signedness) -> i128 {
    let m = v.rem_euclid(1i128 << bits);
    match sign {
        Signedness::Signed if m >= 1i128 << (bits - 1) => m - (1i128 << bits),
        _ => m,
    }
}

/// The instruction's meaning on one lane pair, at a `bits`-wide lane.
fn oracle(instr: &MachineInstr, x: i128, y: i128, bits: u32, sign: Signedness) -> i64 {
    let (lo, hi) = range(bits, sign);
    let mask = (1i128 << bits) - 1;
    let v = match *instr {
        MachineInstr::Alu { op, .. } => match op {
            AluOp::Logic(f) => {
                let (px, py) = (x & mask, y & mask);
                match f {
                    LogicFunc::And => px & py,
                    LogicFunc::Nor => !(px | py) & mask,
                    LogicFunc::Xor => px ^ py,
                    LogicFunc::Or => px | py,
                }
            }
            AluOp::Add => wrap(x + y, bits, sign),
            AluOp::Sub => wrap(x - y, bits, sign),
            AluOp::SatAdd => (x + y).clamp(lo, hi),
            AluOp::SatSub => (x - y).clamp(lo, hi),
            AluOp::Avg => (x + y) >> 1,
            AluOp::AbsDiff => (x - y).abs().min(hi),
            AluOp::Max => x.max(y),
            AluOp::Min => x.min(y),
            AluOp::CmpGt => {
                if x > y {
                    mask
                } else {
                    0
                }
            }
        },
        MachineInstr::ShrBits { k, .. } => x >> k.min(127),
        MachineInstr::ShlBits { k, .. } if k >= bits => 0,
        MachineInstr::ShlBits { k, .. } => wrap(x << k, bits, sign),
        MachineInstr::Neg { .. } => wrap(-x, bits, sign),
        MachineInstr::SatNarrow { bits: n, .. } => {
            x.clamp(-(1i128 << (n - 1)), (1i128 << (n - 1)) - 1)
        }
        MachineInstr::Mul { .. } => x * y,
        MachineInstr::DivFrac { frac, signed, .. } => {
            let out = (bits + frac).min(64);
            match (y, signed) {
                (0, false) => (1i128 << (bits + frac)) - 1,
                (0, true) if x >= 0 => (1i128 << (out - 1)) - 1,
                (0, true) => -(1i128 << (out - 1)),
                _ => (x << frac) / y,
            }
        }
        _ => unreachable!("not generated"),
    };
    // the Tmp Reg keeps the low 64 bits
    v as i64
}

/// A SplitMix64 stream: lane values mixing the range's extremes with
/// uniform draws.
struct Values(u64);

impl Values {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn lanes(&mut self, n: usize, bits: u32, sign: Signedness) -> Vec<i64> {
        let (lo, hi) = range(bits, sign);
        (0..n)
            .map(|_| match self.next() % 8 {
                0 => lo as i64,
                1 => hi as i64,
                2 => (lo + 1) as i64,
                3 => (hi - 1) as i64,
                4 => 0,
                5 => -1,
                _ => self.next() as i64,
            })
            .collect()
    }
}

/// One instruction over rows 0 and 1, selected by `pick`.
fn instr(pick: usize, k: u32, narrow: u32, frac: u32, signed: bool) -> MachineInstr {
    let (a, b) = (Operand::Row(0), Operand::Row(1));
    match pick {
        0..=12 => MachineInstr::Alu {
            op: ALU_OPS[pick],
            a,
            b,
            shift: Shift::None,
        },
        13 => MachineInstr::ShrBits { a, k },
        14 => MachineInstr::ShlBits { a, k },
        15 => MachineInstr::Neg { a },
        16 => MachineInstr::SatNarrow { a, bits: narrow },
        17 => MachineInstr::Mul { a, b, signed },
        _ => MachineInstr::DivFrac { a, b, frac, signed },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_instruction_matches_the_i128_oracle(
        seed in any::<u64>(),
        width in 0usize..4,
        signed in any::<bool>(),
        pick in 0usize..19,
        k in 0u32..=80,
        narrow in 1u32..=64,
        frac in 0u32..=16,
    ) {
        let width = WIDTHS[width];
        let sign = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let bits = width.bits();
        // a multiply or divide takes its signedness from the instruction
        let instr = instr(pick, k, narrow, frac, signed);
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.set_lanes(width, sign);
        let mut values = Values(seed);
        let lanes = m.lanes();
        m.host_write_lanes(0, &values.lanes(lanes, bits, sign)).unwrap();
        m.host_write_lanes(1, &values.lanes(lanes, bits, sign)).unwrap();
        // the operands as the machine decodes them
        let xs = m.host_read_lanes(0).unwrap();
        let ys = m.host_read_lanes(1).unwrap();
        let before = m.stats().clone();
        let run = m.execute(&instr);
        if bits == 64 && !signed {
            prop_assert_eq!(run, Err(PimError::UnsignedW64), "{}", instr);
            prop_assert_eq!(m.stats(), &before, "a rejected instruction charges nothing");
            return Ok(());
        }
        prop_assert_eq!(run, Ok(None), "{}", instr);
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            let want = oracle(&instr, i128::from(x), i128::from(y), bits, sign);
            prop_assert_eq!(m.tmp_lanes()[i], want, "{} {:?} {:?} lane {}: x {} y {}", instr, width, sign, i, x, y);
        }
    }
}

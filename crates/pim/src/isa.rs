use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A source operand of a PIM operation.
///
/// The accumulator's input multiplexer (Fig. 6-c) selects between the
/// sense-amplifier outputs (an SRAM row) and the Tmp Reg, so every
/// binary operation can mix array rows and the register:
///
/// * `Row op Row` — both word lines activated simultaneously; one SRAM
///   array access.
/// * `Row op Tmp` / `Tmp op Row` — single word line activated.
/// * `Tmp op Tmp` — register-resident step, no SRAM access (unary
///   operations on Tmp also fall here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An SRAM word line, by row index.
    Row(usize),
    /// The primary temporary register (result of the previous
    /// operation). Equivalent to `Reg(0)`.
    Tmp,
    /// An additional temporary register (the paper's §5.4 extension:
    /// "we could use more registers to further improve the efficiency
    /// of both computation and power"). Registers beyond index 0 must
    /// be enabled via [`crate::PimMachine::set_tmp_regs`] and are
    /// filled with [`crate::MachineInstr::SaveTmp`].
    Reg(u8),
}

impl Operand {
    /// True when the operand requires an SRAM word-line activation.
    #[inline]
    pub fn touches_sram(self) -> bool {
        matches!(self, Operand::Row(_))
    }

    /// True when the operand reads a temporary register.
    #[inline]
    pub fn is_reg(self) -> bool {
        matches!(self, Operand::Tmp | Operand::Reg(_))
    }
}

/// Lane pre-shift applied to operand `b` of an ALU submission.
///
/// The architecture's shifter sits in front of the accumulator, so any
/// binary operation can consume its `b` operand shifted by a whole
/// number of lanes in the same cycle (the `<< 1pix` of Fig. 2), so the
/// shift is a field of [`crate::MachineInstr::Alu`] rather than a
/// separate instruction per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Shift {
    /// Operand `b` is used as stored.
    #[default]
    None,
    /// Lane `i + pix` of operand `b` feeds lane `i` (positive `pix`
    /// shifts towards lane 0; zeros shift in at the border).
    Pix(i32),
}

impl Shift {
    /// The shift amount in lanes (`None` ≡ `Pix(0)`).
    #[inline]
    pub fn pix(self) -> i32 {
        match self {
            Shift::None => 0,
            Shift::Pix(p) => p,
        }
    }
}

/// Operation selector of [`crate::MachineInstr::Alu`] — every
/// shift-capable binary macro-op of the datapath. Multi-cycle sequences
/// (abs-diff 3 cycles, min/max 2) keep their paper-faithful costs; the
/// selector only unifies the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Bit-wise logic through the sense amplifiers. `Logic(Or)` of an
    /// operand with itself loads it into the Tmp Reg.
    Logic(LogicFunc),
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction `a - b`.
    Sub,
    /// Saturating addition.
    SatAdd,
    /// Saturating subtraction `sat(a - b)`.
    SatSub,
    /// Average `(a + b) >> 1`.
    Avg,
    /// Absolute difference `|a - b|` (3 cycles, Fig. 7-a).
    AbsDiff,
    /// Branch-free maximum (2 cycles, Fig. 7-b).
    Max,
    /// Branch-free minimum (2 cycles).
    Min,
    /// Per-lane `a > b` mask.
    CmpGt,
}

/// Bit-wise logic function computed by the sense amplifiers plus the
/// derived gates (Fig. 6-a): AND and NOR come straight from the two SAs,
/// XOR from a NOR of the two, OR from a NOT of the NOR output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicFunc {
    /// Bit-wise AND (sense amplifier 1).
    And,
    /// Bit-wise NOR (sense amplifier 2).
    Nor,
    /// Bit-wise XOR = NOR(AND, NOR).
    Xor,
    /// Bit-wise OR = NOT(NOR).
    Or,
}

impl LogicFunc {
    /// Applies the function to two lane bit-patterns, held in any
    /// integer type.
    #[inline]
    pub fn apply<T>(self, a: T, b: T) -> T
    where
        T: BitAnd<Output = T> + BitOr<Output = T> + BitXor<Output = T> + Not<Output = T>,
    {
        match self {
            LogicFunc::And => a & b,
            LogicFunc::Nor => !(a | b),
            LogicFunc::Xor => a ^ b,
            LogicFunc::Or => a | b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_truth_tables() {
        assert_eq!(LogicFunc::And.apply(0b1100, 0b1010) & 0xF, 0b1000);
        assert_eq!(LogicFunc::Nor.apply(0b1100, 0b1010) & 0xF, 0b0001);
        assert_eq!(LogicFunc::Xor.apply(0b1100, 0b1010) & 0xF, 0b0110);
        assert_eq!(LogicFunc::Or.apply(0b1100, 0b1010) & 0xF, 0b1110);
    }

    #[test]
    fn xor_is_nor_of_and_and_nor() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                let and = LogicFunc::And.apply(a, b);
                let nor = LogicFunc::Nor.apply(a, b);
                let xor_via_gates = LogicFunc::Nor.apply(and, nor);
                assert_eq!(xor_via_gates & 0xF, (a ^ b) & 0xF, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn operand_sram_classification() {
        assert!(Operand::Row(3).touches_sram());
        assert!(!Operand::Tmp.touches_sram());
    }
}

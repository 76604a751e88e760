//! Macro-op program IR: kernels written once over virtual registers.
//!
//! A [`PimProgram`] is a straight-line sequence of typed macro-ops
//! ([`MacroOp`]) over SSA-style virtual registers ([`VReg`]): each
//! value-producing macro-op defines a fresh virtual register, and
//! operands name either an SRAM row (inputs, broadcast constants,
//! rows written by earlier [`MacroOp::Store`]s) or an earlier virtual
//! register. The program says *what* to compute; *where* each
//! intermediate lives — the Tmp Reg, an extra temporary register, or
//! an SRAM scratch row — is decided by the lowering pass in
//! [`crate::lower()`], which turns the same program into the naive,
//! optimized, or multi-register machine-op sequence.
//!
//! Programs are the way in to the array's compute path: the machine
//! runs nothing but lowered instructions
//! ([`crate::lower::MachineInstr`]), so every in-array computation —
//! edge kernels, pose math, CNN layers — is written here and passes
//! through the lowering. Host-side operations (row I/O, broadcasts,
//! gathers) are *not* part of the IR: they stay explicit
//! [`crate::PimMachine`] calls between program submissions, mirroring
//! the paper's split between the I/O port and the in-array compute
//! path.

use crate::config::{LaneWidth, Signedness};
use crate::isa::{AluOp, LogicFunc};
use std::fmt;

/// An SSA virtual register: the whole-row vector value produced by one
/// macro-op of a [`PimProgram`]. Purely symbolic — the lowering pass
/// assigns each one a physical home (Tmp Reg, extra register, or SRAM
/// scratch row).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u32);

impl VReg {
    /// Dense index of the register (definition order within its
    /// program).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Constructs a register from a raw index (lowering passes that
    /// introduce fresh temporaries).
    pub(crate) fn from_raw(index: u32) -> VReg {
        VReg(index)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A macro-op operand: an SRAM row or an earlier virtual register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Val {
    /// An SRAM row — kernel input, broadcast constant, or a row
    /// written by an earlier [`MacroOp::Store`].
    Row(usize),
    /// The value of an earlier macro-op.
    V(VReg),
}

impl From<VReg> for Val {
    fn from(v: VReg) -> Self {
        Val::V(v)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Row(r) => write!(f, "r{r}"),
            Val::V(v) => write!(f, "{v}"),
        }
    }
}

/// One typed macro-op of a [`PimProgram`].
///
/// Every value-producing variant names its destination register
/// explicitly; [`MacroOp::SetLanes`], [`MacroOp::Store`] and
/// [`MacroOp::Reduce`] produce no register value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MacroOp {
    /// Reconfigure the SIMD lane width and signedness (free — a
    /// datapath strobe, no cycles charged).
    SetLanes {
        /// New lane width.
        width: LaneWidth,
        /// New signedness.
        sign: Signedness,
    },
    /// Shift-capable binary ALU op `dst = op(a, b << shift)`, covering
    /// logic, add/sub, saturating add/sub, average, abs-diff, min/max
    /// and compare — everything [`crate::MachineInstr::Alu`] selects.
    Alu {
        /// The operation.
        op: AluOp,
        /// Left operand.
        a: Val,
        /// Right operand (the shiftable one).
        b: Val,
        /// Lane pre-shift applied to `b` (`0` = none); lane `i + shift`
        /// feeds lane `i`, zeros at the border.
        shift: i32,
        /// Result register.
        dst: VReg,
    },
    /// Stand-alone lane shift `dst = a << shift` (in pixels).
    ShiftPix {
        /// Operand.
        a: Val,
        /// Lane shift amount.
        pix: i32,
        /// Result register.
        dst: VReg,
    },
    /// Per-lane right shift by `k` bits (arithmetic when signed).
    ShrBits {
        /// Operand.
        a: Val,
        /// Bit count.
        k: u32,
        /// Result register.
        dst: VReg,
    },
    /// Per-lane left shift by `k` bits, wrapping.
    ShlBits {
        /// Operand.
        a: Val,
        /// Bit count.
        k: u32,
        /// Result register.
        dst: VReg,
    },
    /// Per-lane arithmetic negation.
    Neg {
        /// Operand.
        a: Val,
        /// Result register.
        dst: VReg,
    },
    /// Saturating narrowing to `bits`-wide signed values.
    SatNarrow {
        /// Operand.
        a: Val,
        /// Target width in bits.
        bits: u32,
        /// Result register.
        dst: VReg,
    },
    /// Bit-serial multiplication (unsigned core, optional signed
    /// pre/post inversion), leaving a double-width product.
    Mul {
        /// Multiplicand.
        a: Val,
        /// Multiplier.
        b: Val,
        /// Signed multiplication (5 extra inversion cycles).
        signed: bool,
        /// Result register.
        dst: VReg,
    },
    /// Fractional-quotient division `(a << frac) / b`.
    DivFrac {
        /// Dividend.
        a: Val,
        /// Divisor.
        b: Val,
        /// Fractional quotient bits.
        frac: u32,
        /// Signed division (5 extra inversion cycles).
        signed: bool,
        /// Result register.
        dst: VReg,
    },
    /// Write a register's value to an SRAM row. The row must not be
    /// read between the defining op and the store — lowering levels
    /// that write results eagerly rely on this.
    Store {
        /// Value to write.
        src: VReg,
        /// Destination row.
        row: usize,
    },
    /// Reduce the lanes of `a` to their sum. Each reduction's result is
    /// returned, in program order, by
    /// [`crate::PimMachine::run_program`].
    Reduce {
        /// Operand.
        a: Val,
    },
}

impl MacroOp {
    /// The register this op defines, if any.
    #[must_use]
    pub fn dst(&self) -> Option<VReg> {
        match *self {
            MacroOp::Alu { dst, .. }
            | MacroOp::ShiftPix { dst, .. }
            | MacroOp::ShrBits { dst, .. }
            | MacroOp::ShlBits { dst, .. }
            | MacroOp::Neg { dst, .. }
            | MacroOp::SatNarrow { dst, .. }
            | MacroOp::Mul { dst, .. }
            | MacroOp::DivFrac { dst, .. } => Some(dst),
            MacroOp::SetLanes { .. } | MacroOp::Store { .. } | MacroOp::Reduce { .. } => None,
        }
    }

    /// The values this op reads (registers and rows alike).
    #[must_use]
    pub fn sources(&self) -> Vec<Val> {
        match *self {
            MacroOp::SetLanes { .. } => Vec::new(),
            MacroOp::Alu { a, b, .. }
            | MacroOp::Mul { a, b, .. }
            | MacroOp::DivFrac { a, b, .. } => vec![a, b],
            MacroOp::ShiftPix { a, .. }
            | MacroOp::ShrBits { a, .. }
            | MacroOp::ShlBits { a, .. }
            | MacroOp::Neg { a, .. }
            | MacroOp::SatNarrow { a, .. }
            | MacroOp::Reduce { a } => vec![a],
            MacroOp::Store { src, .. } => vec![Val::V(src)],
        }
    }

    /// Whether this op reads the given SRAM row.
    #[must_use]
    pub fn reads_row(&self, row: usize) -> bool {
        self.sources().contains(&Val::Row(row))
    }
}

impl fmt::Display for MacroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn sh(shift: i32) -> String {
            if shift == 0 {
                String::new()
            } else {
                format!(" sh({shift})")
            }
        }
        match self {
            MacroOp::SetLanes { width, sign } => {
                write!(f, "set_lanes {width:?} {sign:?}")
            }
            MacroOp::Alu {
                op,
                a,
                b,
                shift,
                dst,
            } => write!(f, "{dst} = {} {a}, {b}{}", alu_name(*op), sh(*shift)),
            MacroOp::ShiftPix { a, pix, dst } => write!(f, "{dst} = shift_pix {a}, {pix}"),
            MacroOp::ShrBits { a, k, dst } => write!(f, "{dst} = shr_bits {a}, {k}"),
            MacroOp::ShlBits { a, k, dst } => write!(f, "{dst} = shl_bits {a}, {k}"),
            MacroOp::Neg { a, dst } => write!(f, "{dst} = neg {a}"),
            MacroOp::SatNarrow { a, bits, dst } => write!(f, "{dst} = sat_narrow {a}, {bits}"),
            MacroOp::Mul { a, b, signed, dst } => {
                write!(f, "{dst} = mul{} {a}, {b}", if *signed { "_s" } else { "" })
            }
            MacroOp::DivFrac {
                a,
                b,
                frac,
                signed,
                dst,
            } => write!(
                f,
                "{dst} = div_frac{} {a}, {b}, {frac}",
                if *signed { "_s" } else { "" }
            ),
            MacroOp::Store { src, row } => write!(f, "store {src} -> r{row}"),
            MacroOp::Reduce { a } => write!(f, "reduce {a}"),
        }
    }
}

/// Mnemonic stem of an [`AluOp`] for program listings.
fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Logic(LogicFunc::And) => "and",
        AluOp::Logic(LogicFunc::Or) => "or",
        AluOp::Logic(LogicFunc::Xor) => "xor",
        AluOp::Logic(LogicFunc::Nor) => "nor",
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::SatAdd => "sat_add",
        AluOp::SatSub => "sat_sub",
        AluOp::Avg => "avg",
        AluOp::AbsDiff => "abs_diff",
        AluOp::Max => "max",
        AluOp::Min => "min",
        AluOp::CmpGt => "cmp_gt",
    }
}

/// A straight-line macro-op program over virtual registers.
///
/// Built through the fluent methods below (each value-producing method
/// returns the fresh [`VReg`] holding its result), then lowered with
/// [`crate::lower::lower`] and executed with
/// [`crate::PimMachine::run_program`].
///
/// ```
/// use pimvo_pim::ir::{PimProgram, Val};
///
/// let mut p = PimProgram::new("smooth");
/// let d = p.avg(Val::Row(0), Val::Row(1));
/// let e = p.avg_sh(d.into(), d.into(), 1);
/// p.store(e, 2);
/// assert_eq!(p.ops().len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PimProgram {
    name: String,
    ops: Vec<MacroOp>,
    next_vreg: u32,
}

impl PimProgram {
    /// Creates an empty program. The name labels trace events and
    /// golden-program listings.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        PimProgram {
            name: name.into(),
            ops: Vec::new(),
            next_vreg: 0,
        }
    }

    /// The program's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The macro-op sequence.
    #[must_use]
    pub fn ops(&self) -> &[MacroOp] {
        &self.ops
    }

    /// Number of virtual registers defined so far.
    #[must_use]
    pub fn vreg_count(&self) -> u32 {
        self.next_vreg
    }

    /// Number of [`MacroOp::Reduce`] ops (= length of the result vector
    /// [`crate::PimMachine::run_program`] returns).
    #[must_use]
    pub fn reduce_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, MacroOp::Reduce { .. }))
            .count()
    }

    fn fresh(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Appends a lane reconfiguration.
    pub fn set_lanes(&mut self, width: LaneWidth, sign: Signedness) {
        self.ops.push(MacroOp::SetLanes { width, sign });
    }

    /// Appends a generic shift-capable ALU op; returns its result.
    pub fn alu_sh(&mut self, op: AluOp, a: Val, b: Val, shift: i32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::Alu {
            op,
            a,
            b,
            shift,
            dst,
        });
        dst
    }

    /// Appends an unshifted ALU op; returns its result.
    pub fn alu(&mut self, op: AluOp, a: Val, b: Val) -> VReg {
        self.alu_sh(op, a, b, 0)
    }

    /// Bit-wise AND.
    pub fn and(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Logic(LogicFunc::And), a, b)
    }

    /// Bit-wise OR.
    pub fn or(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Logic(LogicFunc::Or), a, b)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Add, a, b)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Sub, a, b)
    }

    /// Saturating subtraction.
    pub fn sat_sub(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::SatSub, a, b)
    }

    /// Average `(a + b) >> 1`.
    pub fn avg(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Avg, a, b)
    }

    /// Average with `b` pre-shifted by `pix` lanes.
    pub fn avg_sh(&mut self, a: Val, b: Val, pix: i32) -> VReg {
        self.alu_sh(AluOp::Avg, a, b, pix)
    }

    /// Absolute difference.
    pub fn abs_diff(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::AbsDiff, a, b)
    }

    /// Absolute difference with `b` pre-shifted.
    pub fn abs_diff_sh(&mut self, a: Val, b: Val, pix: i32) -> VReg {
        self.alu_sh(AluOp::AbsDiff, a, b, pix)
    }

    /// Branch-free maximum.
    pub fn max(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Max, a, b)
    }

    /// Maximum with `b` pre-shifted.
    pub fn max_sh(&mut self, a: Val, b: Val, pix: i32) -> VReg {
        self.alu_sh(AluOp::Max, a, b, pix)
    }

    /// Branch-free minimum.
    pub fn min(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::Min, a, b)
    }

    /// Minimum with `b` pre-shifted.
    pub fn min_sh(&mut self, a: Val, b: Val, pix: i32) -> VReg {
        self.alu_sh(AluOp::Min, a, b, pix)
    }

    /// Per-lane comparison `a > b` producing an all-ones/zero mask.
    pub fn cmp_gt(&mut self, a: Val, b: Val) -> VReg {
        self.alu(AluOp::CmpGt, a, b)
    }

    /// Stand-alone lane shift.
    pub fn shift_pix(&mut self, a: Val, pix: i32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::ShiftPix { a, pix, dst });
        dst
    }

    /// Per-lane right shift by `k` bits.
    pub fn shr_bits(&mut self, a: Val, k: u32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::ShrBits { a, k, dst });
        dst
    }

    /// Per-lane left shift by `k` bits.
    pub fn shl_bits(&mut self, a: Val, k: u32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::ShlBits { a, k, dst });
        dst
    }

    /// Per-lane negation.
    pub fn neg(&mut self, a: Val) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::Neg { a, dst });
        dst
    }

    /// Saturating narrowing to `bits`-wide signed values.
    pub fn sat_narrow(&mut self, a: Val, bits: u32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::SatNarrow { a, bits, dst });
        dst
    }

    /// Unsigned multiplication.
    pub fn mul(&mut self, a: Val, b: Val) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::Mul {
            a,
            b,
            signed: false,
            dst,
        });
        dst
    }

    /// Signed multiplication.
    pub fn mul_signed(&mut self, a: Val, b: Val) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::Mul {
            a,
            b,
            signed: true,
            dst,
        });
        dst
    }

    /// Unsigned fractional-quotient division `(a << frac) / b`.
    pub fn div_frac(&mut self, a: Val, b: Val, frac: u32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::DivFrac {
            a,
            b,
            frac,
            signed: false,
            dst,
        });
        dst
    }

    /// Signed fractional-quotient division.
    pub fn div_frac_signed(&mut self, a: Val, b: Val, frac: u32) -> VReg {
        let dst = self.fresh();
        self.ops.push(MacroOp::DivFrac {
            a,
            b,
            frac,
            signed: true,
            dst,
        });
        dst
    }

    /// Writes a register's value to an SRAM row.
    pub fn store(&mut self, src: VReg, row: usize) {
        self.ops.push(MacroOp::Store { src, row });
    }

    /// Reduces the lanes of `a` to their sum (result returned by the
    /// executor, in program order).
    pub fn reduce(&mut self, a: Val) {
        self.ops.push(MacroOp::Reduce { a });
    }

    /// Replaces this program's op list (used by lowering passes).
    pub(crate) fn with_ops(&self, ops: Vec<MacroOp>, next_vreg: u32) -> PimProgram {
        PimProgram {
            name: self.name.clone(),
            ops,
            next_vreg,
        }
    }
}

impl fmt::Display for PimProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}:", self.name)?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  {i:3}: {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_vregs_in_order() {
        let mut p = PimProgram::new("t");
        let a = p.avg(Val::Row(0), Val::Row(1));
        let b = p.avg_sh(a.into(), a.into(), 1);
        p.store(b, 7);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.vreg_count(), 2);
        assert_eq!(p.ops()[2], MacroOp::Store { src: b, row: 7 });
    }

    #[test]
    fn sources_and_dst_cover_every_variant() {
        let mut p = PimProgram::new("t");
        let a = p.abs_diff_sh(Val::Row(3), Val::Row(4), 2);
        let b = p.shift_pix(a.into(), -1);
        let c = p.mul(a.into(), b.into());
        p.reduce(c.into());
        p.store(c, 9);
        let ops = p.ops();
        assert_eq!(ops[0].dst(), Some(a));
        assert_eq!(ops[0].sources(), vec![Val::Row(3), Val::Row(4)]);
        assert!(ops[0].reads_row(4));
        assert!(!ops[0].reads_row(5));
        assert_eq!(ops[3].dst(), None);
        assert_eq!(ops[4].sources(), vec![Val::V(c)]);
    }

    #[test]
    fn display_lists_ops_with_indices() {
        let mut p = PimProgram::new("smooth");
        let d = p.avg(Val::Row(0), Val::Row(1));
        let e = p.avg_sh(d.into(), d.into(), 1);
        p.store(e, 2);
        let text = p.to_string();
        assert!(text.starts_with("program smooth:\n"));
        assert!(text.contains("%0 = avg r0, r1"));
        assert!(text.contains("%1 = avg %0, %0 sh(1)"));
        assert!(text.contains("store %1 -> r2"));
    }
}

//! Optimizing lowering from the macro-op IR to machine-op sequences.
//!
//! [`lower()`] turns one [`PimProgram`] into a [`LoweredProgram`] — a
//! flat list of [`MachineInstr`]s ready for
//! [`crate::PimMachine::run_program`] — at one of three
//! [`LowerLevel`]s:
//!
//! * **Naive** reproduces the paper's unoptimized mapping: fused lane
//!   shifts are expanded into stand-alone shift + write-back pairs,
//!   and every intermediate is written back to an SRAM row and re-read
//!   by its consumers.
//! * **Opt** chains intermediates through the Tmp Reg: a value is only
//!   written back ("spilled") to a scratch row right before another op
//!   would clobber the Tmp Reg while the value is still live.
//!   Stand-alone shifts feeding a single shift-capable ALU op are
//!   fused into the op's lane pre-shift, and a list scheduler orders
//!   each value's producer right before its consumer.
//! * **MultiReg(n)** is Opt on a machine with `n` temporary registers:
//!   spills prefer a free extra register ([`MachineInstr::SaveTmp`],
//!   no SRAM write) and fall back to scratch rows when all registers
//!   hold live values.
//!
//! The register-allocation rule is a greedy forward walk with exact
//! liveness (the program is straight-line SSA, so every use index is
//! known): the most recent definition lives in the Tmp Reg; scratch
//! rows and extra registers are recycled lowest-first as soon as their
//! owner's last use has passed. Two hazards of the eager mapping are
//! handled explicitly: a write-back about to clobber a row that still
//! caches another live value first *rescues* that value through the
//! Tmp Reg into a register or scratch row, and a reduce whose operand
//! sits in the Tmp Reg spills it first when it has later uses
//! (`reduce_sum` destroys the Tmp Reg).

use crate::config::{LaneWidth, Signedness};
use crate::ir::{MacroOp, PimProgram, VReg, Val};
use crate::isa::{AluOp, LogicFunc, Operand, Shift};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// How aggressively [`lower()`] maps virtual registers onto the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LowerLevel {
    /// Every intermediate written back to SRAM and re-read; fused
    /// shifts expanded (the paper's unoptimized mapping).
    Naive,
    /// Tmp-Reg chaining, shift fusion and list scheduling.
    Opt,
    /// Opt plus spilling to `n` temporary registers (the machine must
    /// have been configured with
    /// [`crate::PimMachine::set_tmp_regs`]`(n)` or more). `n` must be
    /// in `1..=`[`MAX_TMP_REGS`]; [`lower()`] rejects other depths with
    /// [`LowerError::RegisterDepth`].
    MultiReg(u8),
}

/// The deepest Tmp-Reg file any machine supports
/// ([`crate::PimMachine::set_tmp_regs`] accepts `1..=8`).
/// [`LowerLevel::MultiReg`] requests outside `1..=MAX_TMP_REGS` are
/// rejected with [`LowerError::RegisterDepth`] instead of silently
/// emitting register saves no machine can execute.
pub const MAX_TMP_REGS: u8 = 8;

impl fmt::Display for LowerLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerLevel::Naive => write!(f, "naive"),
            LowerLevel::Opt => write!(f, "opt"),
            LowerLevel::MultiReg(n) => write!(f, "multireg({n})"),
        }
    }
}

/// The SRAM rows a lowering may use for spilled intermediates. Must
/// not overlap rows the program reads or stores to — [`lower()`]
/// validates this and rejects overlapping pools with
/// [`LowerError::ScratchOverlap`] (a spill into a program row would
/// silently corrupt results).
#[derive(Clone, Debug)]
pub struct ScratchRows {
    rows: Vec<usize>,
}

impl ScratchRows {
    /// A scratch pool from an explicit row list (allocated
    /// lowest-index-first in list order).
    #[must_use]
    pub fn new(rows: Vec<usize>) -> Self {
        ScratchRows { rows }
    }

    /// A contiguous scratch pool `base..base + len`.
    #[must_use]
    pub fn contiguous(base: usize, len: usize) -> Self {
        ScratchRows {
            rows: (base..base + len).collect(),
        }
    }

    /// The pool's rows.
    #[must_use]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

/// Why a program could not be lowered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// Every scratch row already holds a live value at op `op`.
    OutOfScratch {
        /// IR op index needing a scratch row.
        op: usize,
    },
    /// Op `op` reads a virtual register with no prior definition.
    UseBeforeDef {
        /// IR op index with the undefined operand.
        op: usize,
    },
    /// Row `row` is read between a value's definition and its
    /// [`MacroOp::Store`] to that row — illegal at every level (eager
    /// lowerings write results at the defining op).
    StoreHazard {
        /// IR index of the offending store.
        op: usize,
        /// The row stored to and read in between.
        row: usize,
    },
    /// A [`ScratchRows`] row collides with a row the program reads or
    /// stores to — spills into it would corrupt program data.
    ScratchOverlap {
        /// The offending scratch row.
        row: usize,
    },
    /// [`LowerLevel::MultiReg`] requested a register depth outside the
    /// machine's representable range (`1..=`[`MAX_TMP_REGS`]). Before
    /// this check, `MultiReg(0)` silently degraded to `Opt` and depths
    /// above [`MAX_TMP_REGS`] emitted [`MachineInstr::SaveTmp`] indices
    /// no machine accepts.
    RegisterDepth {
        /// The requested Tmp-Reg depth.
        requested: u8,
        /// The deepest supported depth ([`MAX_TMP_REGS`]).
        max: u8,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::OutOfScratch { op } => {
                write!(f, "no free scratch row at IR op {op}")
            }
            LowerError::UseBeforeDef { op } => {
                write!(f, "IR op {op} reads an undefined virtual register")
            }
            LowerError::StoreHazard { op, row } => write!(
                f,
                "IR store {op}: row {row} is read between definition and store"
            ),
            LowerError::ScratchOverlap { row } => write!(
                f,
                "scratch row {row} overlaps a row the program reads or stores to"
            ),
            LowerError::RegisterDepth { requested, max } => write!(
                f,
                "multireg depth {requested} is outside the machine range 1..={max}"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// One machine-level instruction of a [`LoweredProgram`]: the
/// instruction set of [`crate::PimMachine`], which computes nothing
/// else. [`crate::PimMachine::run_program`] runs a program of them and
/// [`crate::PimMachine::execute`] one at a time. Every compute
/// instruction leaves its result in the Tmp Reg; on unsigned 64-bit
/// operands it fails with [`crate::PimError::UnsignedW64`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineInstr {
    /// Reconfigures lane width and signedness
    /// ([`crate::PimMachine::set_lanes`]); free.
    SetLanes {
        /// Lane width.
        width: LaneWidth,
        /// Signedness.
        sign: Signedness,
    },
    /// Shift-capable binary ALU op `op(a, b << shift)`: one cycle,
    /// abs-diff three, min/max two (Fig. 7-a/b). Add, sub and negation
    /// wrap at the operand width, saturating ops clamp to it, and the
    /// average is the exact floor mean.
    Alu {
        /// Operation.
        op: AluOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Lane pre-shift on `b`.
        shift: Shift,
    },
    /// Stand-alone lane shift (1 cycle): positive `pix` moves lane
    /// `i + pix` into lane `i` (the `<< 1pix` of Fig. 2); zeros shift
    /// in at the border.
    ShiftPix {
        /// Operand.
        a: Operand,
        /// Lane shift.
        pix: i32,
    },
    /// Right shift of every lane by `k` bits (1 cycle), arithmetic on
    /// signed lanes. A shift by 64 or more leaves the sign fill
    /// (arithmetic) or zero (logical).
    ShrBits {
        /// Operand.
        a: Operand,
        /// Bit count.
        k: u32,
    },
    /// Left shift of every lane by `k` bits, wrapping (1 cycle); by 64
    /// or more every lane becomes zero.
    ShlBits {
        /// Operand.
        a: Operand,
        /// Bit count.
        k: u32,
    },
    /// Wrapping negation of every lane (1 cycle: invert + carry-in).
    Neg {
        /// Operand.
        a: Operand,
    },
    /// Saturating narrowing to `bits`-wide signed values (1 cycle: the
    /// carry-extension clamp at a narrower carry-control setting).
    SatNarrow {
        /// Operand.
        a: Operand,
        /// Target width.
        bits: u32,
    },
    /// Shift-accumulate multiplication (Fig. 7-c): `n + 1` compute
    /// cycles for `n`-bit lanes, `n + 2` with the write-back; the
    /// signed variant inverts around the unsigned core in 5 more
    /// cycles. The product stays in the Tmp Reg at double width.
    Mul {
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Signed variant.
        signed: bool,
    },
    /// Restoring division continued for `frac` fractional quotient
    /// bits (Fig. 7-d): `(a << frac) / b` in `n + frac + 1` compute
    /// cycles, the signed variant truncating toward zero in 5 more. A
    /// zero divisor yields the all-ones quotient (unsigned) or the
    /// saturated extreme of the dividend's sign (signed).
    DivFrac {
        /// Dividend.
        a: Operand,
        /// Divisor.
        b: Operand,
        /// Fractional bits.
        frac: u32,
        /// Signed variant.
        signed: bool,
    },
    /// Writes the Tmp Reg back to an SRAM row (1 cycle + write energy),
    /// wrapped to the lane width.
    Writeback {
        /// Destination row.
        row: usize,
    },
    /// Copies the Tmp Reg into extra register `idx` (1 cycle, no SRAM
    /// traffic: the write-back a second register elides).
    SaveTmp {
        /// Extra-register index (1-based).
        idx: u8,
    },
    /// Reduces the Tmp Reg lanes to their sum in `ceil(log2(lanes))`
    /// Tmp-resident steps, consuming the Tmp Reg.
    Reduce,
}

/// A machine instruction tagged with the IR op it was lowered from
/// (`"{program}[{ir_index}]"`), threaded into trace mnemonics by the
/// executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredOp {
    /// The instruction.
    pub instr: MachineInstr,
    /// IR provenance label.
    pub label: String,
}

impl MachineInstr {
    /// Whether the instruction leaves a new value in the Tmp Reg.
    pub fn writes_tmp(&self) -> bool {
        !matches!(
            self,
            MachineInstr::SetLanes { .. } | MachineInstr::Writeback { .. }
        )
    }
}

/// The element type [`crate::PimMachine::run_program`] keeps a
/// program's lanes in. It is fixed at lowering time from the program
/// alone ([`LaneClass::of`]); the simulated results, costs and op
/// records are the same in every class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneClass {
    /// `i16` lanes: the program stays on 8-bit lanes, and every value
    /// it can produce fits in an `i16`.
    I16,
    /// `i32` lanes: the program stays on signed 16-bit lanes and only
    /// multiplies rows, shifts and reduces the product (the pose
    /// Hessian).
    I32,
    /// `i64` lanes: every other program, and
    /// [`crate::PimMachine::execute`].
    I64,
}

impl LaneClass {
    /// Classifies a machine-op sequence.
    ///
    /// It is [`LaneClass::I16`] when
    ///
    /// * it opens with `SetLanes { W8, _ }` and never leaves W8;
    /// * every op is an `Alu`, `ShiftPix`, `ShrBits` with `k < 16`,
    ///   `Neg`, `SatNarrow` with `bits` in `1..=8`, or `Writeback`;
    /// * no operand names an extra register ([`Operand::Reg`]);
    /// * it writes the Tmp Reg before it first reads it;
    /// * no unsigned `ShrBits` follows a signed `SetLanes`.
    ///
    /// Under these rules every value is in `-128..=255`: a W8 row
    /// decodes into that range, and each admitted op maps it back into
    /// it (8-bit wrap or clamp, bit mask, average, min/max, lane shift,
    /// arithmetic right shift), with no intermediate beyond ±511. On
    /// that range `i16` arithmetic is exact. The one op whose `i64`
    /// result depends on more than the low 16 bits is an unsigned right
    /// shift of a negative value, and only a signed op can leave a
    /// negative value behind: hence the last rule. The Tmp rule means
    /// a run never reads a value an earlier call left in the Tmp Reg.
    ///
    /// It is [`LaneClass::I32`] when
    ///
    /// * it opens with `SetLanes { W16, Signed }` and never leaves it;
    /// * every other op is a signed `Mul` of two [`Operand::Row`]s, a
    ///   `ShrBits` of [`Operand::Tmp`], or a `Reduce`;
    /// * it multiplies before its first `ShrBits` or `Reduce`.
    ///
    /// The proof needs no value ranges. A signed W16 row decodes into
    /// an `i16`, so a product has magnitude at most `2^30` and fits in
    /// an `i32`; the Tmp Reg then holds 32-bit values. On a 32-bit
    /// value an arithmetic shift by `k.min(31)` equals the `i64` shift
    /// by `k.min(63)`. A reduce wraps its sum at the 32-bit Tmp width,
    /// and the wrapping `i32` sum equals the `i64` sum wrapped once,
    /// because wrapping is a ring homomorphism modulo `2^32`. No op
    /// reads a register or a Tmp value an earlier call left behind.
    #[must_use]
    pub fn of(ops: &[LoweredOp]) -> LaneClass {
        match ops.first().map(|op| &op.instr) {
            Some(MachineInstr::SetLanes {
                width: LaneWidth::W8,
                ..
            }) if fits_i16(ops) => LaneClass::I16,
            Some(MachineInstr::SetLanes {
                width: LaneWidth::W16,
                sign: Signedness::Signed,
            }) if fits_i32(ops) => LaneClass::I32,
            _ => LaneClass::I64,
        }
    }
}

/// The [`LaneClass::I16`] rules past the opening `SetLanes`.
fn fits_i16(ops: &[LoweredOp]) -> bool {
    let (mut sign, mut seen_signed, mut tmp_written) = (Signedness::Unsigned, false, false);
    for op in ops {
        let (a, b) = match op.instr {
            MachineInstr::SetLanes {
                width: LaneWidth::W8,
                sign: s,
            } => {
                sign = s;
                seen_signed |= s == Signedness::Signed;
                continue;
            }
            MachineInstr::Alu { a, b, .. } => (a, b),
            MachineInstr::ShiftPix { a, .. } | MachineInstr::Neg { a } => (a, a),
            MachineInstr::ShrBits { a, k }
                if k < 16 && (sign == Signedness::Signed || !seen_signed) =>
            {
                (a, a)
            }
            MachineInstr::SatNarrow { a, bits } if (1..=8).contains(&bits) => (a, a),
            MachineInstr::Writeback { .. } => (Operand::Tmp, Operand::Tmp),
            _ => return false,
        };
        if matches!(a, Operand::Reg(_)) || matches!(b, Operand::Reg(_)) {
            return false;
        }
        if !tmp_written && (a == Operand::Tmp || b == Operand::Tmp) {
            return false;
        }
        tmp_written |= op.instr.writes_tmp();
    }
    true
}

/// The [`LaneClass::I32`] rules past the opening `SetLanes`.
fn fits_i32(ops: &[LoweredOp]) -> bool {
    let mut tmp_written = false;
    ops.iter().all(|op| match op.instr {
        MachineInstr::SetLanes {
            width: LaneWidth::W16,
            sign: Signedness::Signed,
        } => true,
        MachineInstr::Mul {
            a: Operand::Row(_),
            b: Operand::Row(_),
            signed: true,
        } => {
            tmp_written = true;
            true
        }
        MachineInstr::ShrBits {
            a: Operand::Tmp, ..
        }
        | MachineInstr::Reduce => tmp_written,
        _ => false,
    })
}

/// The result of [`lower()`]: a machine-op sequence plus bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredProgram {
    name: String,
    level: LowerLevel,
    ops: Vec<LoweredOp>,
    reduce_count: usize,
    lane_class: LaneClass,
}

impl LoweredProgram {
    /// Name of the source program.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The level this program was lowered at.
    #[must_use]
    pub fn level(&self) -> LowerLevel {
        self.level
    }

    /// The machine instructions, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[LoweredOp] {
        &self.ops
    }

    /// Number of [`MachineInstr::Reduce`] results the executor returns.
    #[must_use]
    pub fn reduce_count(&self) -> usize {
        self.reduce_count
    }

    /// The element type the interpreter runs this program's lanes in.
    #[must_use]
    pub fn lane_class(&self) -> LaneClass {
        self.lane_class
    }
}

fn fmt_operand(o: Operand) -> String {
    match o {
        Operand::Row(r) => format!("r{r}"),
        Operand::Tmp => "tmp".to_string(),
        Operand::Reg(i) => format!("reg{i}"),
    }
}

impl fmt::Display for MachineInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineInstr::SetLanes { width, sign } => {
                write!(f, "set_lanes {width:?} {sign:?}")
            }
            MachineInstr::Alu { op, a, b, shift } => {
                let sh = match shift {
                    Shift::None => String::new(),
                    Shift::Pix(p) => format!(" sh({p})"),
                };
                write!(f, "{op:?} {}, {}{sh}", fmt_operand(*a), fmt_operand(*b))
            }
            MachineInstr::ShiftPix { a, pix } => {
                write!(f, "shift_pix {}, {pix}", fmt_operand(*a))
            }
            MachineInstr::ShrBits { a, k } => write!(f, "shr_bits {}, {k}", fmt_operand(*a)),
            MachineInstr::ShlBits { a, k } => write!(f, "shl_bits {}, {k}", fmt_operand(*a)),
            MachineInstr::Neg { a } => write!(f, "neg {}", fmt_operand(*a)),
            MachineInstr::SatNarrow { a, bits } => {
                write!(f, "sat_narrow {}, {bits}", fmt_operand(*a))
            }
            MachineInstr::Mul { a, b, signed } => write!(
                f,
                "mul{} {}, {}",
                if *signed { "_s" } else { "" },
                fmt_operand(*a),
                fmt_operand(*b)
            ),
            MachineInstr::DivFrac { a, b, frac, signed } => write!(
                f,
                "div_frac{} {}, {}, {frac}",
                if *signed { "_s" } else { "" },
                fmt_operand(*a),
                fmt_operand(*b)
            ),
            MachineInstr::Writeback { row } => write!(f, "writeback r{row}"),
            MachineInstr::SaveTmp { idx } => write!(f, "save_tmp {idx}"),
            MachineInstr::Reduce => write!(f, "reduce_sum"),
        }
    }
}

impl fmt::Display for LoweredProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lowered {} ({}):", self.name, self.level)?;
        for op in &self.ops {
            writeln!(f, "  {:<36} ; {}", op.instr.to_string(), op.label)?;
        }
        Ok(())
    }
}

/// One stage of the lowering pipeline. [`pass_pipeline`] names the
/// stages [`lower()`] runs per level; [`lower_passes`] accepts any
/// subset (every prefix is independently value-preserving — property
/// tested against the scalar reference).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Naive pre-pass: fused ALU lane shifts become stand-alone shift
    /// ops (the paper's unoptimized mapping charges them separately).
    ExpandShifts,
    /// A stand-alone lane shift whose single consumer is an unshifted
    /// ALU op folds into that op's lane pre-shift.
    FuseShifts,
    /// Cost-guided list scheduling: macro-ops are reordered (within
    /// SSA, row, reduce-order and lane-config dependencies) so each
    /// value's consumer follows its producer and reads it from the Tmp
    /// Reg instead of a spill row.
    Schedule,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Pass::ExpandShifts => "expand_shifts",
            Pass::FuseShifts => "fuse_shifts",
            Pass::Schedule => "schedule",
        };
        f.write_str(name)
    }
}

/// The pass list [`lower()`] runs at `level`, in execution order.
///
/// `Naive` runs only [`Pass::ExpandShifts`] — it is the paper's
/// unoptimized baseline and must stay cycle-identical to it. `Opt` and
/// `MultiReg` run the paper's optimized mapping (§5.2): shift fusion,
/// then list scheduling for Tmp-Reg chaining.
#[must_use]
pub fn pass_pipeline(level: LowerLevel) -> &'static [Pass] {
    const NAIVE: &[Pass] = &[Pass::ExpandShifts];
    const OPT: &[Pass] = &[Pass::FuseShifts, Pass::Schedule];
    match level {
        LowerLevel::Naive => NAIVE,
        LowerLevel::Opt | LowerLevel::MultiReg(_) => OPT,
    }
}

/// Before/after measurements of one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// The stage.
    pub pass: Pass,
    /// Macro-ops entering the stage.
    pub ops_in: usize,
    /// Macro-ops leaving the stage.
    pub ops_out: usize,
    /// Total lane-shift distance (Σ |pix| over stand-alone and fused
    /// shifts) entering the stage.
    pub shift_distance_in: u64,
    /// Total lane-shift distance leaving the stage.
    pub shift_distance_out: u64,
}

/// Per-pass attribution of one lowering, returned by
/// [`lower_with_report`] so cycle regressions are attributable to a
/// single stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerReport {
    /// The level lowered at.
    pub level: LowerLevel,
    /// One entry per executed pipeline stage, in execution order.
    pub passes: Vec<PassStats>,
    /// Machine instructions emitted.
    pub instrs: usize,
    /// Spill write-backs to scratch rows (SRAM writes).
    pub spill_writebacks: usize,
    /// Spills into extra Tmp registers ([`MachineInstr::SaveTmp`]).
    pub reg_saves: usize,
    /// Times the clobber rescue copied a live value out of a row about
    /// to be overwritten (zero on every production program).
    pub rescues: usize,
}

impl fmt::Display for LowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lower report ({}):", self.level)?;
        for p in &self.passes {
            writeln!(
                f,
                "  {:<14} ops {:>3} -> {:<3} shift-dist {:>3} -> {}",
                p.pass.to_string(),
                p.ops_in,
                p.ops_out,
                p.shift_distance_in,
                p.shift_distance_out
            )?;
        }
        writeln!(
            f,
            "  emit           {} instrs, {} spill wb, {} reg saves, {} rescues",
            self.instrs, self.spill_writebacks, self.reg_saves, self.rescues
        )
    }
}

/// Total lane-shift distance of a program: Σ |pix| over stand-alone
/// [`MacroOp::ShiftPix`] ops and fused [`MacroOp::Alu`] lane
/// pre-shifts.
fn shift_distance(prog: &PimProgram) -> u64 {
    prog.ops()
        .iter()
        .map(|op| match *op {
            MacroOp::ShiftPix { pix, .. } => pix.unsigned_abs() as u64,
            MacroOp::Alu { shift, .. } => shift.unsigned_abs() as u64,
            _ => 0,
        })
        .sum()
}

/// Lowers `prog` to machine instructions at `level`, spilling into
/// `scratch`. Runs the standard [`pass_pipeline`] for the level.
///
/// # Errors
///
/// [`LowerError::OutOfScratch`] when the scratch pool cannot hold the
/// live intermediates, [`LowerError::ScratchOverlap`] when the pool
/// collides with rows the program reads or stores to,
/// [`LowerError::RegisterDepth`] for a [`LowerLevel::MultiReg`] depth
/// outside `1..=`[`MAX_TMP_REGS`],
/// [`LowerError::UseBeforeDef`] / [`LowerError::StoreHazard`] for
/// malformed programs.
pub fn lower(
    prog: &PimProgram,
    level: LowerLevel,
    scratch: &ScratchRows,
) -> Result<LoweredProgram, LowerError> {
    Ok(lower_impl(prog, level, scratch, pass_pipeline(level))?.0)
}

/// [`lower`] plus the per-pass [`LowerReport`].
///
/// # Errors
///
/// Same conditions as [`lower`].
pub fn lower_with_report(
    prog: &PimProgram,
    level: LowerLevel,
    scratch: &ScratchRows,
) -> Result<(LoweredProgram, LowerReport), LowerError> {
    lower_impl(prog, level, scratch, pass_pipeline(level))
}

/// Lowers with an explicit pass list instead of the standard
/// [`pass_pipeline`] — the prefix-testing entry point: every prefix of
/// the pipeline must produce a program bit-identical to the scalar
/// reference. Passes run in the order given.
///
/// # Errors
///
/// Same conditions as [`lower`].
pub fn lower_passes(
    prog: &PimProgram,
    level: LowerLevel,
    scratch: &ScratchRows,
    passes: &[Pass],
) -> Result<LoweredProgram, LowerError> {
    Ok(lower_impl(prog, level, scratch, passes)?.0)
}

fn lower_impl(
    prog: &PimProgram,
    level: LowerLevel,
    scratch: &ScratchRows,
    passes: &[Pass],
) -> Result<(LoweredProgram, LowerReport), LowerError> {
    if let LowerLevel::MultiReg(n) = level {
        if n == 0 || n > MAX_TMP_REGS {
            return Err(LowerError::RegisterDepth {
                requested: n,
                max: MAX_TMP_REGS,
            });
        }
    }
    check_store_hazards(prog)?;
    check_scratch_overlap(prog, scratch)?;
    let mut processed = prog.clone();
    let mut pass_stats = Vec::with_capacity(passes.len());
    for &p in passes {
        let (ops_in, sd_in) = (processed.ops().len(), shift_distance(&processed));
        processed = match p {
            Pass::ExpandShifts => expand_shifts(&processed),
            Pass::FuseShifts => fuse_shifts(&processed),
            Pass::Schedule => schedule(&processed),
        };
        pass_stats.push(PassStats {
            pass: p,
            ops_in,
            ops_out: processed.ops().len(),
            shift_distance_in: sd_in,
            shift_distance_out: shift_distance(&processed),
        });
    }
    let reg_slots = match level {
        LowerLevel::MultiReg(n) => n.saturating_sub(1) as usize,
        _ => 0,
    };
    let nv = processed.vreg_count() as usize;
    let mut store_row = vec![None; nv];
    for op in processed.ops() {
        if let MacroOp::Store { src, row } = *op {
            let s = src.index() as usize;
            if store_row[s].is_none() {
                store_row[s] = Some(row);
            }
        }
    }
    let mut uses = vec![Vec::new(); nv];
    for (i, op) in processed.ops().iter().enumerate() {
        for s in op.sources() {
            if let Val::V(v) = s {
                uses[v.index() as usize].push(i);
            }
        }
    }
    let walker = Walker {
        naive: level == LowerLevel::Naive,
        name: prog.name().to_string(),
        uses,
        store_row,
        scratch: scratch.rows().iter().map(|&r| (r, None)).collect(),
        regs: vec![None; reg_slots],
        tmp: None,
        in_reg: vec![None; nv],
        in_row: vec![None; nv],
        home: vec![None; nv],
        stats: WalkStats::default(),
        out: Vec::new(),
    };
    let (ops, wstats) = walker.run(processed.ops())?;
    let report = LowerReport {
        level,
        passes: pass_stats,
        instrs: ops.len(),
        spill_writebacks: wstats.spills,
        reg_saves: wstats.reg_saves,
        rescues: wstats.rescues,
    };
    Ok((
        LoweredProgram {
            name: prog.name().to_string(),
            level,
            lane_class: LaneClass::of(&ops),
            ops,
            reduce_count: prog.reduce_count(),
        },
        report,
    ))
}

/// Rejects programs where a store's target row is read between the
/// stored value's definition and the store itself: eager levels write
/// results to their home row at the defining op, so such a read would
/// observe different contents per level.
fn check_store_hazards(prog: &PimProgram) -> Result<(), LowerError> {
    let ops = prog.ops();
    let mut def_at = vec![None; prog.vreg_count() as usize];
    for (i, op) in ops.iter().enumerate() {
        if let Some(d) = op.dst() {
            def_at[d.index() as usize] = Some(i);
        }
        if let MacroOp::Store { src, row } = *op {
            let Some(d) = def_at[src.index() as usize] else {
                return Err(LowerError::UseBeforeDef { op: i });
            };
            if ops[d + 1..i].iter().any(|o| o.reads_row(row)) {
                return Err(LowerError::StoreHazard { op: i, row });
            }
        }
    }
    Ok(())
}

/// Rejects scratch pools that overlap any row the program reads or
/// stores to — the [`ScratchRows`] contract; a spill into such a row
/// would silently corrupt program data at allocation time.
fn check_scratch_overlap(prog: &PimProgram, scratch: &ScratchRows) -> Result<(), LowerError> {
    let mut touched = Vec::new();
    for op in prog.ops() {
        for s in op.sources() {
            if let Val::Row(r) = s {
                touched.push(r);
            }
        }
        if let MacroOp::Store { row, .. } = *op {
            touched.push(row);
        }
    }
    for &row in scratch.rows() {
        if touched.contains(&row) {
            return Err(LowerError::ScratchOverlap { row });
        }
    }
    Ok(())
}

/// Naive-level pre-pass: fused ALU lane shifts become stand-alone
/// shift ops on a fresh register (each costing a shift cycle plus a
/// write-back once allocated).
fn expand_shifts(prog: &PimProgram) -> PimProgram {
    let mut ops = Vec::with_capacity(prog.ops().len());
    let mut next = prog.vreg_count();
    for op in prog.ops() {
        match *op {
            MacroOp::Alu {
                op: o,
                a,
                b,
                shift,
                dst,
            } if shift != 0 => {
                let t = VReg::from_raw(next);
                next += 1;
                ops.push(MacroOp::ShiftPix {
                    a: b,
                    pix: shift,
                    dst: t,
                });
                ops.push(MacroOp::Alu {
                    op: o,
                    a,
                    b: Val::V(t),
                    shift: 0,
                    dst,
                });
            }
            ref other => ops.push(other.clone()),
        }
    }
    prog.with_ops(ops, next)
}

fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Logic(_)
            | AluOp::Add
            | AluOp::SatAdd
            | AluOp::Avg
            | AluOp::AbsDiff
            | AluOp::Max
            | AluOp::Min
    )
}

/// Opt-level pass: a stand-alone lane shift whose single consumer is
/// an unshifted ALU op folds into that op's lane pre-shift (swapping
/// operands when the shifted value sits on the non-shiftable side of a
/// commutative op), saving the shift cycle.
fn fuse_shifts(prog: &PimProgram) -> PimProgram {
    let src_ops = prog.ops();
    let mut ops: Vec<Option<MacroOp>> = src_ops.iter().cloned().map(Some).collect();
    let mut uses = vec![Vec::new(); prog.vreg_count() as usize];
    for (i, op) in src_ops.iter().enumerate() {
        for s in op.sources() {
            if let Val::V(v) = s {
                uses[v.index() as usize].push(i);
            }
        }
    }
    for i in 0..ops.len() {
        let Some(MacroOp::ShiftPix { a, pix, dst }) = ops[i].clone() else {
            continue;
        };
        let u = &uses[dst.index() as usize];
        if u.len() != 1 {
            continue;
        }
        let j = u[0];
        let Some(MacroOp::Alu {
            op: aop,
            a: aa,
            b: bb,
            shift,
            dst: d2,
        }) = ops[j].clone()
        else {
            continue;
        };
        if shift != 0 {
            continue;
        }
        // The shift's source must be unchanged between the shift and
        // the consumer (vreg sources are SSA; row sources must not be
        // stored over in between).
        if let Val::Row(r) = a {
            let overwritten = ops[i + 1..j]
                .iter()
                .any(|o| matches!(o, Some(MacroOp::Store { row, .. }) if *row == r));
            if overwritten {
                continue;
            }
        }
        let fused = if bb == Val::V(dst) && aa != Val::V(dst) {
            Some(MacroOp::Alu {
                op: aop,
                a: aa,
                b: a,
                shift: pix,
                dst: d2,
            })
        } else if aa == Val::V(dst) && bb != Val::V(dst) && commutative(aop) {
            Some(MacroOp::Alu {
                op: aop,
                a: bb,
                b: a,
                shift: pix,
                dst: d2,
            })
        } else {
            None
        };
        if let Some(fop) = fused {
            ops[j] = Some(fop);
            ops[i] = None;
        }
    }
    let fused: Vec<MacroOp> = ops.into_iter().flatten().collect();
    prog.with_ops(fused, prog.vreg_count())
}

/// [`Pass::Schedule`]: cost-guided list scheduling. Macro-ops are
/// reordered — within SSA, row, reduce-order and lane-configuration
/// dependencies — so each value's producer sits as close as possible
/// before its consumer, letting the allocation walk read it from the
/// Tmp Reg instead of spilling it to a scratch row.
///
/// Priorities come from a DFS post-order over operand chains rooted at
/// the side-effecting ops: an op's operand subtrees are visited
/// most-remaining-uses-first, so the operand cheapest to keep live (a
/// single-use value) is computed last and rides the Tmp Reg into its
/// consumer. A Kahn walk then emits ready ops by minimum priority,
/// tie-broken by original index — fully deterministic.
fn schedule(prog: &PimProgram) -> PimProgram {
    let src = prog.ops();
    let nv = prog.vreg_count() as usize;
    let mut store_row = vec![None; nv];
    for op in src {
        if let MacroOp::Store { src: s, row } = *op {
            let x = s.index() as usize;
            if store_row[x].is_none() {
                store_row[x] = Some(row);
            }
        }
    }
    let mut use_count = vec![0usize; nv];
    for op in src {
        for s in op.sources() {
            if let Val::V(v) = s {
                use_count[v.index() as usize] += 1;
            }
        }
    }
    let mut out = Vec::with_capacity(src.len());
    let mut seg_start = 0;
    // SetLanes ops are barriers: every op's semantics depend on the
    // current lane configuration, so segments never cross one
    for i in 0..=src.len() {
        let barrier = i == src.len() || matches!(src[i], MacroOp::SetLanes { .. });
        if !barrier {
            continue;
        }
        schedule_segment(&src[seg_start..i], &store_row, &use_count, &mut out);
        if i < src.len() {
            out.push(src[i].clone());
        }
        seg_start = i + 1;
    }
    prog.with_ops(out, prog.vreg_count())
}

fn schedule_segment(
    seg: &[MacroOp],
    store_row: &[Option<usize>],
    use_count: &[usize],
    out: &mut Vec<MacroOp>,
) {
    let n = seg.len();
    if n <= 1 {
        out.extend(seg.iter().cloned());
        return;
    }
    let mut def_at: HashMap<u32, usize> = HashMap::new();
    for (j, op) in seg.iter().enumerate() {
        if let Some(d) = op.dst() {
            def_at.insert(d.index(), j);
        }
    }
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    fn add_edge(succ: &mut [Vec<usize>], indeg: &mut [usize], a: usize, b: usize) {
        if a != b && !succ[a].contains(&b) {
            succ[a].push(b);
            indeg[b] += 1;
        }
    }
    // SSA def -> use
    for (j, op) in seg.iter().enumerate() {
        for s in op.sources() {
            if let Val::V(v) = s {
                if let Some(&d) = def_at.get(&v.index()) {
                    add_edge(&mut succ, &mut indeg, d, j);
                }
            }
        }
    }
    // row RAW/WAR/WAW. Writers are stores — and defs whose destination
    // has a home row, because a naive-level walk writes the home row at
    // the defining op (conservative but required for the pass to be
    // sound under arbitrary pass lists, and nearly free at Opt where
    // intermediates have no home).
    let mut row_events: BTreeMap<usize, Vec<(usize, bool)>> = BTreeMap::new();
    for (j, op) in seg.iter().enumerate() {
        for s in op.sources() {
            if let Val::Row(r) = s {
                row_events.entry(r).or_default().push((j, false));
            }
        }
        let written = match *op {
            MacroOp::Store { row, .. } => Some(row),
            _ => op.dst().and_then(|d| store_row[d.index() as usize]),
        };
        if let Some(r) = written {
            row_events.entry(r).or_default().push((j, true));
        }
    }
    for events in row_events.values() {
        for (x, &(j1, w1)) in events.iter().enumerate() {
            for &(j2, w2) in &events[x + 1..] {
                if w1 || w2 {
                    add_edge(&mut succ, &mut indeg, j1, j2);
                }
            }
        }
    }
    // reduce results come back in program order
    let mut last_reduce: Option<usize> = None;
    for (j, op) in seg.iter().enumerate() {
        if matches!(op, MacroOp::Reduce { .. }) {
            if let Some(p) = last_reduce {
                add_edge(&mut succ, &mut indeg, p, j);
            }
            last_reduce = Some(j);
        }
    }
    // DFS post-order priorities over operand chains
    let children: Vec<Vec<usize>> = seg
        .iter()
        .map(|op| {
            let mut c: Vec<(usize, usize)> = op
                .sources()
                .iter()
                .filter_map(|s| match s {
                    Val::V(v) => def_at
                        .get(&v.index())
                        .map(|&d| (d, use_count[v.index() as usize])),
                    _ => None,
                })
                .collect();
            // stable sort: ties keep operand order (`a` first, `b` last)
            c.sort_by_key(|&(_, uses)| std::cmp::Reverse(uses));
            c.into_iter().map(|(d, _)| d).collect()
        })
        .collect();
    let mut prio = vec![usize::MAX; n];
    let mut counter = 0usize;
    let mut visited = vec![false; n];
    let mut roots: Vec<usize> = (0..n)
        .filter(|&j| matches!(seg[j], MacroOp::Store { .. } | MacroOp::Reduce { .. }))
        .collect();
    roots.extend(0..n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (node, cursor) = (top.0, top.1);
            if cursor < children[node].len() {
                top.1 += 1;
                let c = children[node][cursor];
                if !visited[c] {
                    visited[c] = true;
                    stack.push((c, 0));
                }
            } else {
                stack.pop();
                prio[node] = counter;
                counter += 1;
            }
        }
    }
    // Kahn list scheduling: emit the ready op with minimum priority
    let mut ready: Vec<usize> = (0..n).filter(|&j| indeg[j] == 0).collect();
    for _ in 0..n {
        let (pos, &best) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &j)| (prio[j], j))
            .expect("dependency graph is acyclic");
        ready.swap_remove(pos);
        out.push(seg[best].clone());
        for &s in &succ[best] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
}

/// Greedy forward allocation walk shared by all levels.
struct Walker {
    naive: bool,
    name: String,
    /// Use sites (op indices) per virtual register.
    uses: Vec<Vec<usize>>,
    /// First store target per virtual register (naive homes).
    store_row: Vec<Option<usize>>,
    /// Scratch pool: `(row, owner)`.
    scratch: Vec<(usize, Option<u32>)>,
    /// Extra-register slots (slot `k` is machine `Reg(k + 1)`).
    regs: Vec<Option<u32>>,
    /// Which register currently sits in the Tmp Reg.
    tmp: Option<u32>,
    in_reg: Vec<Option<u8>>,
    in_row: Vec<Option<usize>>,
    /// Naive home rows, assigned at the defining op.
    home: Vec<Option<usize>>,
    stats: WalkStats,
    out: Vec<LoweredOp>,
}

/// Spill/rescue counters accumulated by one allocation walk.
#[derive(Clone, Copy, Debug, Default)]
struct WalkStats {
    spills: usize,
    reg_saves: usize,
    rescues: usize,
}

impl Walker {
    fn run(mut self, ops: &[MacroOp]) -> Result<(Vec<LoweredOp>, WalkStats), LowerError> {
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MacroOp::SetLanes { width, sign } => {
                    self.emit(MachineInstr::SetLanes { width, sign }, i);
                }
                MacroOp::Store { src, row } => self.lower_store(i, src, row)?,
                MacroOp::Reduce { a } => self.lower_reduce(i, a)?,
                _ => self.lower_def(i, op)?,
            }
        }
        Ok((self.out, self.stats))
    }

    fn emit(&mut self, instr: MachineInstr, ir_idx: usize) {
        self.out.push(LoweredOp {
            instr,
            label: format!("{}[{ir_idx}]", self.name),
        });
    }

    fn live_from(&self, v: u32, i: usize) -> bool {
        self.uses[v as usize].iter().any(|&u| u >= i)
    }

    /// Resolves a value to a machine operand. Naive reads home rows
    /// exclusively; Opt prefers the Tmp Reg, then extra registers,
    /// then rows.
    fn resolve(&self, val: Val, i: usize) -> Result<Operand, LowerError> {
        match val {
            Val::Row(r) => Ok(Operand::Row(r)),
            Val::V(v) => {
                let x = v.index() as usize;
                if self.naive {
                    return self.home[x]
                        .map(Operand::Row)
                        .ok_or(LowerError::UseBeforeDef { op: i });
                }
                if self.tmp == Some(v.index()) {
                    Ok(Operand::Tmp)
                } else if let Some(idx) = self.in_reg[x] {
                    Ok(Operand::Reg(idx))
                } else if let Some(r) = self.in_row[x] {
                    Ok(Operand::Row(r))
                } else {
                    Err(LowerError::UseBeforeDef { op: i })
                }
            }
        }
    }

    /// First scratch row whose owner is dead (or unset) at op `i`.
    fn alloc_scratch(&mut self, i: usize, new_owner: u32) -> Result<usize, LowerError> {
        for k in 0..self.scratch.len() {
            let (row, owner) = self.scratch[k];
            let free = match owner {
                None => true,
                Some(o) => !self.live_from(o, i),
            };
            if free {
                if let Some(o) = owner {
                    if self.in_row[o as usize] == Some(row) {
                        self.in_row[o as usize] = None;
                    }
                    if self.home[o as usize] == Some(row) {
                        self.home[o as usize] = None;
                    }
                }
                self.scratch[k].1 = Some(new_owner);
                return Ok(row);
            }
        }
        Err(LowerError::OutOfScratch { op: i })
    }

    /// First extra register whose owner is dead at op `i` (MultiReg
    /// only — the slot list is empty at other levels).
    fn alloc_reg(&mut self, i: usize, new_owner: u32) -> Option<u8> {
        for k in 0..self.regs.len() {
            let free = match self.regs[k] {
                None => true,
                Some(o) => !self.live_from(o, i),
            };
            if free {
                if let Some(o) = self.regs[k] {
                    self.in_reg[o as usize] = None;
                }
                self.regs[k] = Some(new_owner);
                return Some((k + 1) as u8);
            }
        }
        None
    }

    /// Spills the Tmp Reg's current value before an op clobbers it, if
    /// the value is used at or after op `from` and has no other
    /// location. MultiReg prefers a free extra register (one register
    /// cycle, no SRAM write) over a scratch-row write-back.
    fn spill_tmp_from(&mut self, i: usize, from: usize) -> Result<(), LowerError> {
        let Some(v) = self.tmp else {
            return Ok(());
        };
        let x = v as usize;
        let needed = self.uses[x].iter().any(|&u| u >= from);
        if !needed || self.in_reg[x].is_some() || self.in_row[x].is_some() {
            return Ok(());
        }
        if let Some(idx) = self.alloc_reg(i, v) {
            self.emit(MachineInstr::SaveTmp { idx }, i);
            self.in_reg[x] = Some(idx);
            self.stats.reg_saves += 1;
        } else {
            let row = self.alloc_scratch(i, v)?;
            self.emit(MachineInstr::Writeback { row }, i);
            self.in_row[x] = Some(row);
            self.stats.spills += 1;
        }
        Ok(())
    }

    /// [`Walker::spill_tmp_from`] for the common case: the Tmp value
    /// only matters if used strictly after op `i`.
    fn spill_tmp(&mut self, i: usize) -> Result<(), LowerError> {
        self.spill_tmp_from(i, i + 1)
    }

    /// Drops a virtual register's claim on `row` (both the Opt location
    /// cache and the naive home).
    fn forget_row(&mut self, x: usize, row: usize) {
        if self.in_row[x] == Some(row) {
            self.in_row[x] = None;
        }
        if self.home[x] == Some(row) {
            self.home[x] = None;
        }
    }

    /// Relocates every virtual register other than `keep` whose cached
    /// location is `row` before an imminent [`MachineInstr::Writeback`]
    /// clobbers that row. Dead values and values with another location
    /// just forget the row; a live, row-only value is copied out
    /// through the Tmp Reg into a scratch row (spilling a still-needed
    /// Tmp occupant first), so storing to an already-cached row can
    /// never silently corrupt an earlier still-live result.
    fn rescue_row(&mut self, i: usize, row: usize, keep: u32) -> Result<(), LowerError> {
        for v in 0..self.in_row.len() as u32 {
            let x = v as usize;
            if v == keep || (self.in_row[x] != Some(row) && self.home[x] != Some(row)) {
                continue;
            }
            if !self.live_from(v, i + 1) {
                // dead after this op; keep the mapping only while the
                // current op still reads it (the clobbering write-back
                // lands after the op's operands are consumed)
                if !self.uses[x].contains(&i) {
                    self.forget_row(x, row);
                }
                continue;
            }
            if self.tmp == Some(v) || self.in_reg[x].is_some() {
                self.forget_row(x, row);
                continue;
            }
            // the row holds the value's only copy: route it through
            // the Tmp Reg (preserving a Tmp value still used at `i`)
            self.stats.rescues += 1;
            self.spill_tmp_from(i, i)?;
            self.emit(
                MachineInstr::Alu {
                    op: AluOp::Logic(LogicFunc::Or),
                    a: Operand::Row(row),
                    b: Operand::Row(row),
                    shift: Shift::None,
                },
                i,
            );
            self.forget_row(x, row);
            // on signed lanes the copy leaves the value's unsigned bit
            // pattern in the Tmp Reg: only a row write-back turns it
            // back into the value, so it goes to a scratch row (never
            // an extra register) and the Tmp holds no value to reuse
            self.tmp = None;
            let r2 = self.alloc_scratch(i, v)?;
            self.emit(MachineInstr::Writeback { row: r2 }, i);
            self.in_row[x] = Some(r2);
            self.stats.spills += 1;
            if self.naive {
                self.home[x] = Some(r2);
            }
        }
        Ok(())
    }

    fn build_instr(&self, op: &MacroOp, i: usize) -> Result<MachineInstr, LowerError> {
        Ok(match *op {
            MacroOp::Alu {
                op: o, a, b, shift, ..
            } => MachineInstr::Alu {
                op: o,
                a: self.resolve(a, i)?,
                b: self.resolve(b, i)?,
                shift: if shift == 0 {
                    Shift::None
                } else {
                    Shift::Pix(shift)
                },
            },
            MacroOp::ShiftPix { a, pix, .. } => MachineInstr::ShiftPix {
                a: self.resolve(a, i)?,
                pix,
            },
            MacroOp::ShrBits { a, k, .. } => MachineInstr::ShrBits {
                a: self.resolve(a, i)?,
                k,
            },
            MacroOp::ShlBits { a, k, .. } => MachineInstr::ShlBits {
                a: self.resolve(a, i)?,
                k,
            },
            MacroOp::Neg { a, .. } => MachineInstr::Neg {
                a: self.resolve(a, i)?,
            },
            MacroOp::SatNarrow { a, bits, .. } => MachineInstr::SatNarrow {
                a: self.resolve(a, i)?,
                bits,
            },
            MacroOp::Mul { a, b, signed, .. } => MachineInstr::Mul {
                a: self.resolve(a, i)?,
                b: self.resolve(b, i)?,
                signed,
            },
            MacroOp::DivFrac {
                a, b, frac, signed, ..
            } => MachineInstr::DivFrac {
                a: self.resolve(a, i)?,
                b: self.resolve(b, i)?,
                frac,
                signed,
            },
            MacroOp::SetLanes { .. } | MacroOp::Store { .. } | MacroOp::Reduce { .. } => {
                unreachable!("handled by the walk")
            }
        })
    }

    fn lower_def(&mut self, i: usize, op: &MacroOp) -> Result<(), LowerError> {
        let dst = op.dst().expect("def op has a destination");
        let d = dst.index() as usize;
        if self.naive {
            let home = match self.store_row[d] {
                Some(r) => r,
                None => self.alloc_scratch(i, dst.index())?,
            };
            // rescue uses the Tmp Reg, so it must precede the op that
            // leaves this def's result there
            self.rescue_row(i, home, dst.index())?;
            let instr = self.build_instr(op, i)?;
            self.emit(instr, i);
            self.emit(MachineInstr::Writeback { row: home }, i);
            self.home[d] = Some(home);
            self.in_row[d] = Some(home);
        } else {
            self.spill_tmp(i)?;
            let instr = self.build_instr(op, i)?;
            self.emit(instr, i);
            self.tmp = Some(dst.index());
        }
        Ok(())
    }

    fn lower_store(&mut self, i: usize, src: VReg, row: usize) -> Result<(), LowerError> {
        let s = src.index() as usize;
        if self.naive {
            // The defining op already wrote its home row; only a store
            // to a *different* row needs a copy.
            if self.home[s] == Some(row) {
                return Ok(());
            }
            self.rescue_row(i, row, src.index())?;
            let a = self.resolve(Val::V(src), i)?;
            self.emit(
                MachineInstr::Alu {
                    op: AluOp::Logic(LogicFunc::Or),
                    a,
                    b: a,
                    shift: Shift::None,
                },
                i,
            );
            self.emit(MachineInstr::Writeback { row }, i);
            return Ok(());
        }
        if self.tmp == Some(src.index()) {
            self.rescue_row(i, row, src.index())?;
            if self.tmp == Some(src.index()) {
                self.emit(MachineInstr::Writeback { row }, i);
                self.in_row[s] = Some(row);
                return Ok(());
            }
            // the rescue displaced src from the Tmp Reg (spilling it to
            // a register or scratch row first); re-materialize below
        } else if self.in_row[s] == Some(row) {
            return Ok(());
        } else {
            self.rescue_row(i, row, src.index())?;
        }
        self.spill_tmp(i)?;
        let a = self.resolve(Val::V(src), i)?;
        self.emit(
            MachineInstr::Alu {
                op: AluOp::Logic(LogicFunc::Or),
                a,
                b: a,
                shift: Shift::None,
            },
            i,
        );
        // on signed lanes the copy leaves the value's unsigned bit
        // pattern in the Tmp Reg, so the Tmp holds no value to reuse
        self.tmp = None;
        self.emit(MachineInstr::Writeback { row }, i);
        self.in_row[s] = Some(row);
        Ok(())
    }

    fn lower_reduce(&mut self, i: usize, a: Val) -> Result<(), LowerError> {
        let already_in_tmp = !self.naive && matches!(a, Val::V(v) if self.tmp == Some(v.index()));
        if already_in_tmp {
            // reduce_sum destroys the Tmp Reg; give the operand a
            // surviving location first when it has later uses
            self.spill_tmp(i)?;
        } else {
            if !self.naive {
                self.spill_tmp(i)?;
            }
            let x = self.resolve(a, i)?;
            self.emit(
                MachineInstr::Alu {
                    op: AluOp::Logic(LogicFunc::Or),
                    a: x,
                    b: x,
                    shift: Shift::None,
                },
                i,
            );
        }
        self.emit(MachineInstr::Reduce, i);
        // reduce_sum leaves the lane sum, not the operand, in Tmp
        self.tmp = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::machine::{PimMachine, PimMachineBuilder};

    fn smooth() -> PimProgram {
        let mut p = PimProgram::new("smooth");
        let d = p.avg(Val::Row(0), Val::Row(1));
        let e = p.avg_sh(d.into(), d.into(), 1);
        p.store(e, 2);
        p
    }

    fn scratch() -> ScratchRows {
        ScratchRows::contiguous(100, 8)
    }

    #[test]
    fn opt_chains_through_tmp() {
        let l = lower(&smooth(), LowerLevel::Opt, &scratch()).unwrap();
        let instrs: Vec<&MachineInstr> = l.ops().iter().map(|o| &o.instr).collect();
        assert_eq!(instrs.len(), 3);
        assert!(matches!(
            instrs[1],
            MachineInstr::Alu {
                op: AluOp::Avg,
                a: Operand::Tmp,
                b: Operand::Tmp,
                shift: Shift::Pix(1),
            }
        ));
        assert_eq!(*instrs[2], MachineInstr::Writeback { row: 2 });
    }

    #[test]
    fn naive_expands_shifts_and_writes_everything_back() {
        let l = lower(&smooth(), LowerLevel::Naive, &scratch()).unwrap();
        // avg, wb, shift_pix, wb, avg, wb
        assert_eq!(l.ops().len(), 6);
        assert!(matches!(l.ops()[2].instr, MachineInstr::ShiftPix { .. }));
        assert_eq!(l.ops()[5].instr, MachineInstr::Writeback { row: 2 });
        // no Tmp operands anywhere at the naive level
        for op in l.ops() {
            if let MachineInstr::Alu { a, b, .. } = op.instr {
                assert!(!matches!(a, Operand::Tmp) && !matches!(b, Operand::Tmp));
            }
        }
    }

    #[test]
    fn all_levels_compute_identical_rows() {
        let mut build = PimProgram::new("mix");
        let d = build.abs_diff_sh(Val::Row(0), Val::Row(1), 2);
        let e = build.max(Val::Row(0), Val::Row(1));
        let f = build.min_sh(d.into(), e.into(), 1);
        let g = build.shift_pix(f.into(), -1);
        let h = build.cmp_gt(Val::Row(1), g.into());
        build.store(h, 3);

        let mut rows = Vec::new();
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)] {
            let mut m = PimMachine::new(ArrayConfig::default());
            if let LowerLevel::MultiReg(n) = level {
                m.set_tmp_regs(n);
            }
            m.host_write_lanes(0, &[9, 3, 200, 17, 4, 250, 0, 77])
                .unwrap();
            m.host_write_lanes(1, &[5, 100, 2, 90, 30, 1, 60, 8])
                .unwrap();
            let l = lower(&build, level, &scratch()).unwrap();
            m.run_program(&l).unwrap();
            rows.push(m.host_read_lanes(3).unwrap()[..8].to_vec());
        }
        assert_eq!(rows[0], rows[1], "naive vs opt");
        assert_eq!(rows[1], rows[2], "opt vs multireg");
    }

    #[test]
    fn opt_is_cheaper_than_naive_and_multireg_writes_less() {
        let mut build = PimProgram::new("mix");
        let a = build.abs_diff_sh(Val::Row(0), Val::Row(1), 2);
        let b = build.abs_diff(Val::Row(0), Val::Row(1));
        let c = build.abs_diff_sh(Val::Row(1), Val::Row(0), -1);
        let d = build.avg(a.into(), b.into());
        let e = build.avg(d.into(), c.into());
        build.store(e, 3);

        let mut cycles = Vec::new();
        let mut writes = Vec::new();
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)] {
            let mut m = PimMachine::new(ArrayConfig::default());
            if let LowerLevel::MultiReg(n) = level {
                m.set_tmp_regs(n);
            }
            m.host_write_lanes(0, &[9, 3, 200, 17]).unwrap();
            m.host_write_lanes(1, &[5, 100, 2, 90]).unwrap();
            let l = lower(&build, level, &scratch()).unwrap();
            m.run_program(&l).unwrap();
            cycles.push(m.stats().cycles);
            writes.push(m.stats().sram_writes);
        }
        assert!(
            cycles[1] < cycles[0],
            "opt {} naive {}",
            cycles[1],
            cycles[0]
        );
        assert!(cycles[2] <= cycles[1], "multireg vs opt");
        assert!(writes[2] < writes[1], "multireg spills to registers");
    }

    #[test]
    fn adjacent_shift_fuses_into_consumer() {
        let mut build = PimProgram::new("f");
        let s = build.shift_pix(Val::Row(0), -1);
        let c = build.cmp_gt(Val::Row(1), s.into());
        build.store(c, 2);
        let l = lower(&build, LowerLevel::Opt, &scratch()).unwrap();
        // shift folded into cmp_gt's pre-shift: 2 instrs, not 3
        assert_eq!(l.ops().len(), 2);
        assert!(matches!(
            l.ops()[0].instr,
            MachineInstr::Alu {
                op: AluOp::CmpGt,
                shift: Shift::Pix(-1),
                ..
            }
        ));
    }

    #[test]
    fn commutative_fusion_swaps_operands() {
        let mut build = PimProgram::new("f");
        let s = build.shift_pix(Val::Row(0), 2);
        let c = build.and(s.into(), Val::Row(1));
        build.store(c, 2);
        let l = lower(&build, LowerLevel::Opt, &scratch()).unwrap();
        assert_eq!(l.ops().len(), 2);
        assert!(matches!(
            l.ops()[0].instr,
            MachineInstr::Alu {
                op: AluOp::Logic(LogicFunc::And),
                a: Operand::Row(1),
                b: Operand::Row(0),
                shift: Shift::Pix(2),
            }
        ));
    }

    #[test]
    fn fusion_blocked_by_intervening_store_to_source_row() {
        let mut build = PimProgram::new("f");
        let s = build.shift_pix(Val::Row(0), 1);
        let x = build.avg(Val::Row(1), Val::Row(2));
        build.store(x, 0); // overwrites the shift's source row
        let c = build.cmp_gt(Val::Row(1), s.into());
        build.store(c, 3);
        let l = lower(&build, LowerLevel::Opt, &scratch()).unwrap();
        assert!(
            l.ops()
                .iter()
                .any(|o| matches!(o.instr, MachineInstr::ShiftPix { .. })),
            "shift must stay stand-alone:\n{l}"
        );
    }

    #[test]
    fn out_of_scratch_is_reported() {
        let mut build = PimProgram::new("s");
        let a = build.avg(Val::Row(0), Val::Row(1));
        let b = build.avg(Val::Row(0), Val::Row(2));
        let c = build.avg(Val::Row(0), Val::Row(3));
        let d = build.avg(a.into(), b.into());
        let e = build.avg(d.into(), c.into());
        build.store(e, 5);
        let none = ScratchRows::new(Vec::new());
        assert!(matches!(
            lower(&build, LowerLevel::Opt, &none),
            Err(LowerError::OutOfScratch { .. })
        ));
    }

    #[test]
    fn store_hazard_is_rejected() {
        let mut build = PimProgram::new("h");
        let a = build.avg(Val::Row(0), Val::Row(1));
        let _b = build.avg(Val::Row(5), Val::Row(1)); // reads row 5 pre-store
        build.store(a, 5);
        assert_eq!(
            lower(&build, LowerLevel::Opt, &scratch()),
            Err(LowerError::StoreHazard { op: 2, row: 5 })
        );
    }

    #[test]
    fn store_over_cached_row_rescues_live_value() {
        // `a` is stored to row 5 and still live when `b` overwrites row
        // 5 (the intervening row-5 read keeps the first store alive);
        // `a`'s later use must not resolve to the clobbered row at any
        // level, so the walk rescues it first.
        let mut build = PimProgram::new("clobber");
        let a = build.add(Val::Row(0), Val::Row(1));
        build.store(a, 5);
        let x = build.add(Val::Row(5), Val::Row(1)); // keeps store a->5 alive
        build.store(x, 7);
        let b = build.max(Val::Row(0), Val::Row(1));
        build.store(b, 5);
        let d = build.add(a.into(), Val::Row(2));
        build.store(d, 6);

        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)] {
            let mut m = PimMachine::new(ArrayConfig::default());
            if let LowerLevel::MultiReg(n) = level {
                m.set_tmp_regs(n);
            }
            m.host_write_lanes(0, &[9, 3]).unwrap();
            m.host_write_lanes(1, &[5, 100]).unwrap();
            m.host_write_lanes(2, &[7, 7]).unwrap();
            let l = lower(&build, level, &scratch()).unwrap();
            m.run_program(&l).unwrap();
            assert_eq!(
                &m.host_read_lanes(5).unwrap()[..2],
                &[9, 100],
                "{level} row 5"
            );
            assert_eq!(
                &m.host_read_lanes(6).unwrap()[..2],
                &[21, 110],
                "{level} row 6"
            );
            assert_eq!(
                &m.host_read_lanes(7).unwrap()[..2],
                &[19, 203],
                "{level} row 7"
            );
        }
    }

    #[test]
    fn reduce_preserves_live_tmp_operand() {
        // REVIEW repro: the reduce operand sits in the Tmp Reg, which
        // reduce_sum destroys; a later use must still see the value
        // (previously failed with a misleading UseBeforeDef).
        let mut build = PimProgram::new("red_live");
        let a = build.add(Val::Row(0), Val::Row(1));
        build.reduce(a.into());
        build.store(a, 5);
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(2)] {
            let mut m = PimMachine::new(ArrayConfig::default());
            if let LowerLevel::MultiReg(n) = level {
                m.set_tmp_regs(n);
            }
            m.host_write_lanes(0, &[10, 20]).unwrap();
            m.host_write_lanes(1, &[1, 2]).unwrap();
            let l = lower(&build, level, &scratch()).unwrap();
            let sums = m.run_program(&l).unwrap();
            assert_eq!(sums, vec![33], "{level}");
            assert_eq!(&m.host_read_lanes(5).unwrap()[..2], &[11, 22], "{level}");
        }
    }

    #[test]
    fn scratch_overlap_is_rejected() {
        let mut build = PimProgram::new("o");
        let a = build.avg(Val::Row(0), Val::Row(1));
        build.store(a, 5);
        // overlap with a read row
        let read_overlap = ScratchRows::new(vec![100, 1]);
        assert_eq!(
            lower(&build, LowerLevel::Opt, &read_overlap),
            Err(LowerError::ScratchOverlap { row: 1 })
        );
        // overlap with a store target
        let store_overlap = ScratchRows::new(vec![5]);
        assert_eq!(
            lower(&build, LowerLevel::Naive, &store_overlap),
            Err(LowerError::ScratchOverlap { row: 5 })
        );
    }

    #[test]
    fn scratch_rows_are_recycled_after_last_use() {
        let mut build = PimProgram::new("r");
        // two sequential rounds each needing one spill
        for _ in 0..2 {
            let a = build.avg(Val::Row(0), Val::Row(1));
            let b = build.avg(Val::Row(0), Val::Row(2));
            let c = build.avg(a.into(), b.into());
            build.store(c, 5);
        }
        let one = ScratchRows::new(vec![100]);
        let l = lower(&build, LowerLevel::Opt, &one).unwrap();
        let spills = l
            .ops()
            .iter()
            .filter(|o| matches!(o.instr, MachineInstr::Writeback { row: 100 }))
            .count();
        assert_eq!(spills, 2, "one scratch row serves both rounds:\n{l}");
    }

    #[test]
    fn reduce_results_come_back_in_program_order() {
        let mut build = PimProgram::new("red");
        let a = build.add(Val::Row(0), Val::Row(1));
        build.reduce(a.into());
        let b = build.sub(Val::Row(0), Val::Row(1));
        build.reduce(b.into());
        for level in [LowerLevel::Naive, LowerLevel::Opt] {
            let mut m = PimMachine::new(ArrayConfig::default());
            m.host_write_lanes(0, &[10, 20, 30]).unwrap();
            m.host_write_lanes(1, &[1, 2, 3]).unwrap();
            let l = lower(&build, level, &scratch()).unwrap();
            assert_eq!(l.reduce_count(), 2);
            let sums = m.run_program(&l).unwrap();
            // unwritten lanes are zero-filled: 0 ± 0 contributes nothing
            assert_eq!(sums, vec![66, 54], "{level}");
        }
    }

    #[test]
    fn multireg_depth_out_of_range_is_rejected() {
        for n in [0u8, MAX_TMP_REGS + 1] {
            assert_eq!(
                lower(&smooth(), LowerLevel::MultiReg(n), &scratch()),
                Err(LowerError::RegisterDepth {
                    requested: n,
                    max: MAX_TMP_REGS
                }),
                "depth {n}"
            );
        }
        // the range bounds themselves are accepted
        for n in [1u8, MAX_TMP_REGS] {
            assert!(lower(&smooth(), LowerLevel::MultiReg(n), &scratch()).is_ok());
        }
    }

    /// An HPF-shaped diamond: four values live at once, whose greedy
    /// in-order walk spills all of them while a depth-first schedule
    /// computes each operand chain right before its consumer.
    fn diamond() -> PimProgram {
        let mut build = PimProgram::new("diamond");
        let d2 = build.abs_diff_sh(Val::Row(2), Val::Row(0), 1);
        let dv = build.abs_diff(Val::Row(0), Val::Row(2));
        let dh = build.abs_diff_sh(Val::Row(1), Val::Row(1), 1);
        let d1 = build.abs_diff_sh(Val::Row(0), Val::Row(2), 1);
        let e1 = build.avg(d1.into(), d2.into());
        let e2 = build.avg_sh(dh.into(), dv.into(), 1);
        let e3 = build.avg(e2.into(), e1.into());
        let out = build.shift_pix(e3.into(), 2);
        build.store(out, 3);
        build
    }

    #[test]
    fn scheduling_reduces_spills_below_greedy() {
        let greedy = [Pass::FuseShifts];
        let prog = diamond();
        let mut cycles = Vec::new();
        let mut rows = Vec::new();
        for passes in [&greedy[..], pass_pipeline(LowerLevel::Opt)] {
            let mut m = PimMachine::new(ArrayConfig::default());
            m.host_write_lanes(0, &[9, 3, 200, 17, 4]).unwrap();
            m.host_write_lanes(1, &[5, 100, 2, 90, 30]).unwrap();
            m.host_write_lanes(2, &[77, 1, 60, 8, 254]).unwrap();
            let l = lower_passes(&prog, LowerLevel::Opt, &scratch(), passes).unwrap();
            m.run_program(&l).unwrap();
            cycles.push(m.stats().cycles);
            rows.push(m.host_read_lanes(3).unwrap()[..5].to_vec());
        }
        assert_eq!(rows[0], rows[1], "schedule must preserve values");
        assert!(
            cycles[1] < cycles[0],
            "scheduled {} vs greedy {}",
            cycles[1],
            cycles[0]
        );
    }

    #[test]
    fn every_pipeline_prefix_preserves_values() {
        let prog = diamond();
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(3)] {
            let pipeline = pass_pipeline(level);
            let mut reference = None;
            for cut in 0..=pipeline.len() {
                let mut m = PimMachine::new(ArrayConfig::default());
                if let LowerLevel::MultiReg(n) = level {
                    m.set_tmp_regs(n);
                }
                m.host_write_lanes(0, &[9, 3, 200, 17, 4]).unwrap();
                m.host_write_lanes(1, &[5, 100, 2, 90, 30]).unwrap();
                m.host_write_lanes(2, &[77, 1, 60, 8, 254]).unwrap();
                let l = lower_passes(&prog, level, &scratch(), &pipeline[..cut]).unwrap();
                m.run_program(&l).unwrap();
                let got = m.host_read_lanes(3).unwrap()[..5].to_vec();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(want, &got, "{level} prefix {cut}"),
                }
            }
        }
    }

    #[test]
    fn report_attributes_every_pass() {
        // a fusible stand-alone shift, so fuse_shifts shows up as an
        // op-count drop in the report; the scheduler only reorders
        let mut build = PimProgram::new("r");
        let s = build.shift_pix(Val::Row(0), -1);
        let c = build.cmp_gt(Val::Row(1), s.into());
        build.store(c, 2);
        let d = build.add(Val::Row(0), Val::Row(1));
        build.store(d, 3);
        let (l, report) = lower_with_report(&build, LowerLevel::Opt, &scratch()).unwrap();
        assert_eq!(report.level, LowerLevel::Opt);
        let passes: Vec<Pass> = report.passes.iter().map(|p| p.pass).collect();
        assert_eq!(passes, pass_pipeline(LowerLevel::Opt));
        assert_eq!(report.instrs, l.ops().len());
        let stats_for = |p: Pass| report.passes.iter().find(|s| s.pass == p).unwrap().clone();
        let fuse = stats_for(Pass::FuseShifts);
        assert!(fuse.ops_out < fuse.ops_in, "{report}");
        assert!(fuse.shift_distance_out <= fuse.shift_distance_in);
        let sched = stats_for(Pass::Schedule);
        assert_eq!(sched.ops_out, sched.ops_in, "{report}");
        assert_eq!(sched.shift_distance_out, sched.shift_distance_in);
        let rendered = report.to_string();
        assert!(rendered.contains("schedule") && rendered.contains("spill wb"));
    }

    /// What keeps a program on `i64` lanes: each op appended to an
    /// otherwise narrow program (W8, Tmp written by a row op first; or
    /// signed W16, Tmp written by a row-by-row signed multiply first).
    #[test]
    fn lane_class_rules() {
        use MachineInstr as I;
        let (r0, tmp) = (Operand::Row(0), Operand::Tmp);
        let w8 = |sign| I::SetLanes {
            width: LaneWidth::W8,
            sign,
        };
        let load = I::Alu {
            op: AluOp::Logic(LogicFunc::Or),
            a: r0,
            b: r0,
            shift: Shift::None,
        };
        let class = |instrs: &[I]| {
            let ops: Vec<LoweredOp> = instrs
                .iter()
                .map(|instr| LoweredOp {
                    instr: instr.clone(),
                    label: String::new(),
                })
                .collect();
            LaneClass::of(&ops)
        };
        let narrow = [w8(Signedness::Unsigned), load.clone()];
        let with = |tail: I| {
            let mut v = narrow.to_vec();
            v.push(tail);
            class(&v)
        };
        assert_eq!(class(&narrow), LaneClass::I16);
        for admitted in [
            I::Alu {
                op: AluOp::AbsDiff,
                a: tmp,
                b: r0,
                shift: Shift::Pix(-2),
            },
            I::ShiftPix { a: tmp, pix: 3 },
            I::ShrBits { a: tmp, k: 15 },
            I::Neg { a: tmp },
            I::SatNarrow { a: tmp, bits: 8 },
            I::Writeback { row: 4 },
            w8(Signedness::Signed),
        ] {
            assert_eq!(with(admitted.clone()), LaneClass::I16, "{admitted}");
        }
        for wide in [
            I::Mul {
                a: tmp,
                b: r0,
                signed: false,
            },
            I::DivFrac {
                a: tmp,
                b: r0,
                frac: 4,
                signed: true,
            },
            I::Reduce,
            I::SaveTmp { idx: 1 },
            I::Alu {
                op: AluOp::Add,
                a: Operand::Reg(1),
                b: r0,
                shift: Shift::None,
            },
            I::ShlBits { a: tmp, k: 1 },
            I::ShrBits { a: tmp, k: 16 },
            I::SatNarrow { a: tmp, bits: 9 },
            I::SatNarrow { a: tmp, bits: 0 },
            I::SetLanes {
                width: LaneWidth::W16,
                sign: Signedness::Unsigned,
            },
        ] {
            assert_eq!(with(wide.clone()), LaneClass::I64, "{wide}");
        }
        // the program must open at W8 and write Tmp before reading it
        assert_eq!(class(&[load.clone()]), LaneClass::I64);
        assert_eq!(class(&[]), LaneClass::I64);
        for reads_first in [I::Writeback { row: 4 }, I::ShiftPix { a: tmp, pix: 1 }] {
            assert_eq!(
                class(&[w8(Signedness::Unsigned), reads_first.clone()]),
                LaneClass::I64,
                "{reads_first}"
            );
        }
        // an unsigned right shift may follow only unsigned ops
        let shr = I::ShrBits { a: tmp, k: 1 };
        let signed_then_unsigned = [
            w8(Signedness::Signed),
            load.clone(),
            w8(Signedness::Unsigned),
            shr.clone(),
        ];
        assert_eq!(class(&signed_then_unsigned), LaneClass::I64);
        assert_eq!(
            class(&[w8(Signedness::Signed), load.clone(), shr]),
            LaneClass::I16
        );

        // signed W16: a row-by-row signed product, shifted and reduced
        let r1 = Operand::Row(1);
        let w16 = |sign| I::SetLanes {
            width: LaneWidth::W16,
            sign,
        };
        let mul = |a, b, signed| I::Mul { a, b, signed };
        let product = [w16(Signedness::Signed), mul(r0, r1, true)];
        let with = |tail: I| {
            let mut v = product.to_vec();
            v.push(tail);
            class(&v)
        };
        assert_eq!(class(&product), LaneClass::I32);
        for admitted in [
            mul(r1, r1, true),
            I::ShrBits { a: tmp, k: 0 },
            I::ShrBits { a: tmp, k: 63 },
            I::Reduce,
            w16(Signedness::Signed),
        ] {
            assert_eq!(with(admitted.clone()), LaneClass::I32, "{admitted}");
        }
        for wide in [
            mul(r0, r1, false),
            mul(tmp, r1, true),
            mul(r0, tmp, true),
            mul(Operand::Reg(1), r1, true),
            I::DivFrac {
                a: r0,
                b: r1,
                frac: 4,
                signed: true,
            },
            I::ShlBits { a: tmp, k: 1 },
            I::ShrBits { a: r0, k: 1 },
            I::SaveTmp { idx: 1 },
            I::Writeback { row: 4 },
            load.clone(),
            w16(Signedness::Unsigned),
            I::SetLanes {
                width: LaneWidth::W32,
                sign: Signedness::Signed,
            },
            w8(Signedness::Signed),
        ] {
            assert_eq!(with(wide.clone()), LaneClass::I64, "{wide}");
        }
        // a W32 multiply, and a Tmp read before the first multiply
        let w32 = I::SetLanes {
            width: LaneWidth::W32,
            sign: Signedness::Signed,
        };
        assert_eq!(class(&[w32, mul(r0, r1, true)]), LaneClass::I64);
        for reads_first in [I::ShrBits { a: tmp, k: 1 }, I::Reduce] {
            assert_eq!(
                class(&[w16(Signedness::Signed), reads_first.clone()]),
                LaneClass::I64,
                "{reads_first}"
            );
        }
        // a W8 program is never i32: its products and sums stay i64
        for tail in [mul(r0, r1, true), I::Reduce] {
            assert_eq!(
                class(&[w8(Signedness::Signed), load.clone(), tail.clone()]),
                LaneClass::I64,
                "{tail}"
            );
        }
    }

    /// A zero-bit shift followed by a signed `max`: the shift must keep
    /// the signed lane value at every level, so `max(-1, 0)` is `0`
    /// and not the OR copy's unsigned bit pattern (`255`, stored back
    /// as `-1`).
    #[test]
    fn signed_zero_shift_keeps_its_sign_at_every_level() {
        let mut build = PimProgram::new("signed_shr0");
        build.set_lanes(LaneWidth::W8, Signedness::Signed);
        let s = build.shr_bits(Val::Row(0), 0);
        let m = build.max(s.into(), Val::Row(1));
        build.store(m, 2);
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(2)] {
            let l = lower(&build, level, &scratch()).unwrap();
            let mut pool = PimMachineBuilder::new(ArrayConfig::default()).build_pool(1);
            let rows = pool
                .run_phase("signed_shr0", |_, m| {
                    m.set_tmp_regs(2);
                    m.set_lanes(LaneWidth::W8, Signedness::Signed);
                    m.host_write_lanes(0, &[-1, 5, -7]).unwrap();
                    m.host_write_lanes(1, &[0, 0, 0]).unwrap();
                    m.run_program(&l).unwrap();
                    m.host_read_lanes(2).unwrap()[..3].to_vec()
                })
                .unwrap();
            assert_eq!(rows, vec![vec![0, 5, 0]], "{level}:\n{l}");
        }
    }

    /// A stored value that is no longer in the Tmp Reg is copied back
    /// through it with `Or x, x`, which on signed lanes leaves the
    /// unsigned bit pattern behind: a later signed `max` of that value
    /// must read the stored value, not the copy, so `max(-4, 0)` is `0`.
    #[test]
    fn store_copy_keeps_signed_values_at_every_level() {
        let mut build = PimProgram::new("store_copy");
        build.set_lanes(LaneWidth::W8, Signedness::Signed);
        let a = build.sub(Val::Row(0), Val::Row(1));
        build.store(a, 5);
        let b = build.max(Val::Row(0), Val::Row(1));
        build.store(b, 7);
        build.store(a, 8);
        let d = build.max(a.into(), Val::Row(2));
        build.store(d, 6);
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)] {
            let l = lower(&build, level, &scratch()).unwrap();
            let mut pool = PimMachineBuilder::new(ArrayConfig::default()).build_pool(1);
            let rows = pool
                .run_phase("store_copy", |_, m| {
                    m.set_tmp_regs(4);
                    m.set_lanes(LaneWidth::W8, Signedness::Signed);
                    m.host_write_lanes(0, &[1, 3]).unwrap();
                    m.host_write_lanes(1, &[5, 1]).unwrap();
                    m.host_write_lanes(2, &[0, 0]).unwrap();
                    m.run_program(&l).unwrap();
                    m.host_read_lanes(6).unwrap()[..2].to_vec()
                })
                .unwrap();
            assert_eq!(rows, vec![vec![0, 2]], "{level}:\n{l}");
        }
    }

    /// Storing `b` over the row that holds `a`'s only copy makes the
    /// clobber rescue move `a` out through the Tmp Reg with `Or r, r`.
    /// On signed lanes that copy is the unsigned bit pattern, so the
    /// rescue must land it in a scratch row, never in an extra
    /// register: a later signed `max(a, 0)` reads `0`, not `-4`.
    #[test]
    fn rescue_copy_keeps_signed_values_at_every_level() {
        let mut build = PimProgram::new("rescue_copy");
        build.set_lanes(LaneWidth::W8, Signedness::Signed);
        let a = build.sub(Val::Row(0), Val::Row(1));
        build.store(a, 5);
        let b = build.max(Val::Row(0), Val::Row(1));
        build.store(b, 5);
        let d = build.max(a.into(), Val::Row(2));
        build.store(d, 6);
        for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)] {
            let l = lower(&build, level, &scratch()).unwrap();
            let mut pool = PimMachineBuilder::new(ArrayConfig::default()).build_pool(1);
            let rows = pool
                .run_phase("rescue_copy", |_, m| {
                    m.set_tmp_regs(4);
                    m.set_lanes(LaneWidth::W8, Signedness::Signed);
                    m.host_write_lanes(0, &[1, 3]).unwrap();
                    m.host_write_lanes(1, &[5, 1]).unwrap();
                    m.host_write_lanes(2, &[0, 0]).unwrap();
                    m.run_program(&l).unwrap();
                    m.host_read_lanes(6).unwrap()[..2].to_vec()
                })
                .unwrap();
            assert_eq!(rows, vec![vec![0, 2]], "{level}:\n{l}");
        }
    }
}

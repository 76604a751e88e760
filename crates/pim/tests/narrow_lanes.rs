//! The narrow lane classes are an interpreter detail, not a model change.
//!
//! `run_program` runs a [`LaneClass::I16`] program on `i16` lanes (and
//! a [`LaneClass::I32`] one on `i32` lanes, see `mid_lanes.rs`). Each
//! test here runs the same lowered program twice: once through
//! `run_program`, and once replayed instruction by instruction through
//! `execute`, which always computes on `i64` lanes. Both machines must agree
//! on every row, the Tmp Reg and its width, `ExecStats` (op histogram
//! included), the armed op recorder's records, and with an armed fault
//! model, the fault counters and the per-row syndrome log.

mod common;

use common::{compare, Rng};
use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{
    hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program, scratch_pool,
};
use pimvo_kernels::pim_util::Regions;
use pimvo_pim::{
    lower, AluOp, ArrayConfig, LaneClass, LaneWidth, LogicFunc, LowerLevel, MachineInstr, Operand,
    PimMachine, PimMachineBuilder, PimProgram, ScratchRows, Signedness, VReg, Val,
};
use proptest::prelude::*;

/// Rows the random programs read.
const INPUTS: usize = 8;
/// First row the random programs store to (`INPUTS..STORE_END`).
const STORE_END: usize = 16;
/// Scratch rows handed to the lowering.
const SCRATCH: (usize, usize) = (32, 64);

/// A random straight-line 8-bit program over rows `0..INPUTS`, storing
/// into `INPUTS..STORE_END`: every ALU op (fused pre-shifts included),
/// lane and bit shifts, negation and narrowing saturation, with the
/// same row often feeding both operands. With `mixed_signs` it switches
/// signedness mid-program; otherwise it keeps the sign it opens with.
fn random_program(seed: u64, mixed_signs: bool) -> PimProgram {
    let mut rng = Rng(seed);
    let mut p = PimProgram::new("narrow");
    let sign_of = |bit: u64| {
        if bit == 0 {
            Signedness::Unsigned
        } else {
            Signedness::Signed
        }
    };
    p.set_lanes(LaneWidth::W8, sign_of(rng.below(2)));
    let mut live: Vec<VReg> = Vec::new();
    let n_ops = 4 + rng.below(28);
    for _ in 0..n_ops {
        if mixed_signs && rng.below(4) == 0 {
            p.set_lanes(LaneWidth::W8, sign_of(rng.below(2)));
        }
        let pick = |rng: &mut Rng, live: &[VReg]| -> Val {
            if live.is_empty() || rng.below(3) == 0 {
                Val::Row(rng.below(INPUTS as u64) as usize)
            } else {
                // recent values only, so liveness stays bounded
                let back = rng.below(live.len().min(4) as u64) as usize;
                Val::V(live[live.len() - 1 - back])
            }
        };
        let a = pick(&mut rng, &live);
        let b = if rng.below(4) == 0 {
            a
        } else {
            pick(&mut rng, &live)
        };
        let v = match rng.below(19) {
            0..=11 => {
                let op = match rng.below(13) {
                    0 => AluOp::Logic(LogicFunc::And),
                    1 => AluOp::Logic(LogicFunc::Nor),
                    2 => AluOp::Logic(LogicFunc::Xor),
                    3 => AluOp::Logic(LogicFunc::Or),
                    4 => AluOp::Add,
                    5 => AluOp::Sub,
                    6 => AluOp::SatAdd,
                    7 => AluOp::SatSub,
                    8 => AluOp::Avg,
                    9 => AluOp::AbsDiff,
                    10 => AluOp::Max,
                    11 => AluOp::Min,
                    _ => AluOp::CmpGt,
                };
                let pix = if rng.below(2) == 0 {
                    0
                } else {
                    rng.below(7) as i32 - 3
                };
                p.alu_sh(op, a, b, pix)
            }
            12 | 13 => p.shift_pix(a, rng.below(9) as i32 - 4),
            14 | 15 => p.shr_bits(a, rng.below(9) as u32),
            16 => p.neg(a),
            17 => p.sat_narrow(a, 1 + rng.below(8) as u32),
            _ => p.or(a, a),
        };
        live.push(v);
        if rng.below(3) == 0 {
            let row = INPUTS + rng.below((STORE_END - INPUTS) as u64) as usize;
            p.store(v, row);
        }
    }
    let last = *live.last().expect("at least one op");
    p.store(last, STORE_END - 1);
    p
}

/// Two identical machines over `rows` rows with the same random row
/// contents, their recorders armed, and a wide value (a signed 16-bit
/// product) left in the Tmp Reg by one executed instruction.
fn twin_machines(builder: &PimMachineBuilder, seed: u64, rows: usize) -> [PimMachine; 2] {
    let mut rng = Rng(seed ^ 0xA5A5);
    let contents: Vec<Vec<u8>> = (0..rows)
        .map(|_| (0..320).map(|_| rng.next() as u8).collect())
        .collect();
    [builder.build(), builder.build()].map(|mut m| {
        m.arm_op_recorder(0, 1 << 16);
        for (r, bytes) in contents.iter().enumerate() {
            m.host_write_bytes(r, bytes).expect("row in range");
        }
        m.set_lanes(LaneWidth::W16, Signedness::Signed);
        m.execute(&MachineInstr::Mul {
            a: Operand::Row(0),
            b: Operand::Row(1),
            signed: true,
        })
        .expect("prelude");
        m
    })
}

/// Lowers `p` at Naive and Opt and checks each lowered program (run
/// twice, so the second run finds its buffers warm) against replay.
/// Returns the lane classes seen.
fn check_levels(
    builder: &PimMachineBuilder,
    p: &PimProgram,
    seed: u64,
) -> Result<Vec<LaneClass>, String> {
    let scratch = ScratchRows::contiguous(SCRATCH.0, SCRATCH.1 - SCRATCH.0);
    let mut classes = Vec::new();
    for level in [LowerLevel::Naive, LowerLevel::Opt] {
        let prog = lower(p, level, &scratch).map_err(|e| format!("{level}: {e}"))?;
        classes.push(prog.lane_class());
        let [mut fast, mut reference] = twin_machines(builder, seed, SCRATCH.1);
        for _ in 0..2 {
            compare(&mut fast, &mut reference, &prog, SCRATCH.1)
                .map_err(|e| format!("{level}: {e}"))?;
        }
    }
    Ok(classes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-sign 8-bit programs are lane class `i16`, and running
    /// them on `i16` lanes matches the `i64` replay exactly.
    #[test]
    fn i16_programs_match_i64_replay(seed in any::<u64>()) {
        let p = random_program(seed, false);
        let builder = PimMachine::builder(ArrayConfig::qvga());
        let classes = check_levels(&builder, &p, seed);
        prop_assert!(classes.is_ok(), "{}", classes.unwrap_err());
        prop_assert!(classes.unwrap().iter().all(|&c| c == LaneClass::I16));
    }

    /// Programs that switch signedness mid-way match too, whichever
    /// class they fall into (an unsigned right shift after a signed op
    /// makes them `i64`).
    #[test]
    fn sign_switching_programs_match_i64_replay(seed in any::<u64>()) {
        let p = random_program(seed, true);
        let builder = PimMachine::builder(ArrayConfig::qvga());
        let classes = check_levels(&builder, &p, seed);
        prop_assert!(classes.is_ok(), "{}", classes.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With transient faults armed and ECC on, every operand read draws
    /// the same faults on `i16` lanes as on `i64` lanes: fault status
    /// and syndrome log match along with the values.
    #[test]
    fn i16_programs_match_i64_replay_under_faults(seed in any::<u64>()) {
        use pimvo_pim::{FaultModel, Protection};
        let p = random_program(seed, false);
        let builder = PimMachine::builder(ArrayConfig::qvga())
            .fault(FaultModel::transient(seed, 2e-3))
            .protection(Protection::Ecc);
        let classes = check_levels(&builder, &p, seed);
        prop_assert!(classes.is_ok(), "{}", classes.unwrap_err());
    }
}

/// An unsigned right shift of a negative value a signed op left in the
/// Tmp Reg reads bits above the low 16 on `i64` lanes, so such a
/// program stays `i64`; a program that never turns signed keeps `i16`.
#[test]
fn unsigned_shift_after_a_signed_op_stays_i64() {
    let scratch = ScratchRows::contiguous(SCRATCH.0, SCRATCH.1 - SCRATCH.0);
    let builder = PimMachine::builder(ArrayConfig::qvga());
    for (first, want) in [
        (Signedness::Signed, LaneClass::I64),
        (Signedness::Unsigned, LaneClass::I16),
    ] {
        let mut p = PimProgram::new("shr");
        p.set_lanes(LaneWidth::W8, first);
        let d = p.sub(Val::Row(0), Val::Row(1));
        p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        let s = p.shr_bits(d.into(), 3);
        p.store(s, INPUTS);
        let prog = lower(&p, LowerLevel::Opt, &scratch).expect("lowers");
        assert_eq!(prog.lane_class(), want, "{first:?} first");
        let [mut fast, mut reference] = twin_machines(&builder, 3, SCRATCH.1);
        compare(&mut fast, &mut reference, &prog, SCRATCH.1).unwrap();
    }
}

/// The real whole-frame programs: the four edge programs are lane
/// class `i16` and match replay; the pose Hessian is `i32` at every
/// level past Naive and matches replay; the other four pose programs
/// stay `i64`.
#[test]
fn edge_programs_are_i16_and_pose_programs_i64() {
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));
    let m = builder.build();
    let r = Regions::for_machine(&m, 240);
    let scratch = scratch_pool(&r);
    let edge = [
        lpf_pass1_program(&r, r.input, 240, 0, 240),
        lpf_pass2_program(&r, r.aux2, 240, None, 0, 240),
        hpf_program(&r, r.aux2, r.aux3, 240, None, 0, 240),
        nms_program(&r, r.aux3, r.out, 240, None, 0, 240),
    ];
    let rows = m.config().rows;
    let [mut fast, mut reference] = twin_machines(&builder, 7, rows);
    for p in &edge {
        for level in [LowerLevel::Naive, LowerLevel::Opt] {
            let prog = lower(p, level, &scratch).expect("edge program lowers");
            assert_eq!(prog.lane_class(), LaneClass::I16, "{}", prog.name());
            compare(&mut fast, &mut reference, &prog, rows).unwrap();
        }
    }
    let scratch = pose_scratch(POSE_BASE);
    for interp in [Interp::Bilinear, Interp::Nearest] {
        for p in pose_programs(POSE_BASE, 12, interp) {
            for level in [
                LowerLevel::Opt,
                LowerLevel::MultiReg(2),
                LowerLevel::MultiReg(4),
            ] {
                let prog = lower(&p, level, &scratch).expect("pose program lowers");
                let want = if prog.name() == "pose_hessian" {
                    LaneClass::I32
                } else {
                    LaneClass::I64
                };
                assert_eq!(prog.lane_class(), want, "{} at {level}", prog.name());
                if want == LaneClass::I32 {
                    compare(&mut fast, &mut reference, &prog, rows).unwrap();
                }
            }
        }
    }
}

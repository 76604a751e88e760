//! The Tmp Reg contract of `MachineInstr::Reduce`: a reduce leaves
//! the lane sum in lane 0 and the other lanes in a state no program may
//! read (they keep their pre-reduce values, not the partial sums of the
//! strided tree the hardware runs). The lowering treats the Tmp Reg as
//! destroyed by a reduce; this test walks every edge-detection and
//! pose-estimation program, lowered at every level, and fails on any
//! instruction that reads the Tmp Reg after a reduce before one writes
//! it anew.

use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{
    downsample_program, hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program,
    scratch_pool,
};
use pimvo_kernels::pim_util::Regions;
use pimvo_pim::{
    lower, ArrayConfig, LowerLevel, LoweredProgram, MachineInstr, Operand, PimMachine, PimProgram,
    ScratchRows,
};

const LEVELS: [LowerLevel; 4] = [
    LowerLevel::Naive,
    LowerLevel::Opt,
    LowerLevel::MultiReg(2),
    LowerLevel::MultiReg(4),
];

/// Whether `instr` reads the Tmp Reg: as an operand, or as the value it
/// writes back, saves, or reduces. Exhaustive, so a new instruction
/// must be classified here before this test compiles.
fn reads_tmp(instr: &MachineInstr) -> bool {
    let tmp = |a: Operand| a == Operand::Tmp;
    match *instr {
        MachineInstr::SetLanes { .. } => false,
        MachineInstr::Alu { a, b, .. }
        | MachineInstr::Mul { a, b, .. }
        | MachineInstr::DivFrac { a, b, .. } => tmp(a) || tmp(b),
        MachineInstr::ShiftPix { a, .. }
        | MachineInstr::ShrBits { a, .. }
        | MachineInstr::ShlBits { a, .. }
        | MachineInstr::Neg { a }
        | MachineInstr::SatNarrow { a, .. } => tmp(a),
        MachineInstr::Writeback { .. } | MachineInstr::SaveTmp { .. } | MachineInstr::Reduce => {
            true
        }
    }
}

/// Checks `prog` and returns how many reduces it holds. The Tmp Reg
/// counts as consumed at program entry too, so no program depends on
/// what an earlier one left there.
fn check(prog: &LoweredProgram) -> usize {
    let mut consumed = true;
    let mut reduces = 0;
    for (i, op) in prog.ops().iter().enumerate() {
        assert!(
            !(consumed && reads_tmp(&op.instr)),
            "{} at {}: op {i} ({}) reads the Tmp Reg after a reduce or at entry",
            prog.name(),
            prog.level(),
            op.label,
        );
        if op.instr == MachineInstr::Reduce {
            consumed = true;
            reduces += 1;
        } else if op.instr.writes_tmp() {
            consumed = false;
        }
    }
    reduces
}

/// Lowers `progs` at every level and checks each lowering; returns the
/// reduces seen.
fn check_all(progs: &[PimProgram], scratch: &ScratchRows) -> usize {
    let mut reduces = 0;
    for p in progs {
        for level in LEVELS {
            let lowered = lower(p, level, scratch)
                .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", p.name()));
            reduces += check(&lowered);
        }
    }
    reduces
}

#[test]
fn no_program_reads_the_tmp_reg_after_a_reduce() {
    // edge kernels: whole QVGA frames, one strip and two, with and
    // without a ghost-mask row, plus the downsampler
    let m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let h = 240;
    let r = Regions::for_machine(&m, h);
    // the row ghost_mask writes for an image narrower than the word line
    let mask = Some(r.th(8));
    let mut edge = vec![downsample_program(&r, 0, h / 2)];
    for (y0, y1) in [(0, i64::from(h)), (0, 120), (120, i64::from(h))] {
        edge.push(lpf_pass1_program(&r, r.input, h, y0, y1));
        for mask in [None, mask] {
            edge.push(lpf_pass2_program(&r, r.aux2, h, mask, y0, y1));
            edge.push(hpf_program(&r, r.aux2, r.aux3, h, mask, y0, y1));
            edge.push(nms_program(&r, r.aux3, r.out, h, mask, y0, y1));
        }
    }
    assert_eq!(
        check_all(&edge, &scratch_pool(&r)),
        0,
        "edge kernels reduce nothing"
    );

    // pose estimation: the five programs at both interpolations and a
    // few feature fractions
    let mut pose = Vec::new();
    for interp in [Interp::Bilinear, Interp::Nearest] {
        for ff in [10, 12, 14] {
            pose.extend(pose_programs(POSE_BASE, ff, interp));
        }
    }
    let reduces = check_all(&pose, &pose_scratch(POSE_BASE));
    // 28 Hessian reduces per lowering: the check is not vacuous
    assert_eq!(reduces, 28 * 6 * LEVELS.len());
}

//! The clobber rescue stays cold on production programs.
//!
//! The allocation walk rescues a live value whose only copy sits in a
//! row a store is about to overwrite. That path exists for correctness
//! on arbitrary programs (`store_over_cached_row_rescues_live_value`
//! tests it); no program the kernels or the pose pipeline build may
//! need it, so the optimized pipeline needs no layout planning. This
//! test lowers every edge strip program, the downsampler and the five
//! pose programs at `Opt` and `MultiReg(4)` and asserts the report
//! counts no rescue.

use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{
    downsample_program, hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program,
    scratch_pool,
};
use pimvo_kernels::pim_util::{partition_rows, Regions};
use pimvo_pim::{lower_with_report, ArrayConfig, LowerLevel, PimMachine, PimProgram, ScratchRows};

const LEVELS: [LowerLevel; 2] = [LowerLevel::Opt, LowerLevel::MultiReg(4)];

/// Lowers each program at both levels and asserts no rescue; returns
/// how many lowerings were checked.
fn assert_no_rescue(progs: &[PimProgram], scratch: &ScratchRows) -> usize {
    for p in progs {
        for level in LEVELS {
            let (_, report) = lower_with_report(p, level, scratch)
                .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", p.name()));
            assert_eq!(report.rescues, 0, "{} at {level}:\n{report}", p.name());
        }
    }
    progs.len() * LEVELS.len()
}

#[test]
fn edge_strip_programs_never_rescue() {
    let m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let h = 240;
    let r = Regions::for_machine(&m, h);
    // the row ghost_mask writes for an image narrower than the word line
    let mask = Some(r.th(8));
    let mut edge = vec![downsample_program(&r, 0, h / 2)];
    // strips of 240, 120, 60 and 30 rows: pools of 1, 2, 4 and 8 arrays
    for arrays in [1, 2, 4, 8] {
        for (y0, y1) in partition_rows(h, arrays) {
            edge.push(lpf_pass1_program(&r, r.input, h, y0, y1));
            for mask in [None, mask] {
                edge.push(lpf_pass2_program(&r, r.aux2, h, mask, y0, y1));
                edge.push(hpf_program(&r, r.aux2, r.aux3, h, mask, y0, y1));
                edge.push(nms_program(&r, r.aux3, r.out, h, mask, y0, y1));
            }
        }
    }
    assert_eq!(assert_no_rescue(&edge, &scratch_pool(&r)), 106 * 2);
}

#[test]
fn pose_programs_never_rescue() {
    let mut pose = Vec::new();
    for interp in [Interp::Bilinear, Interp::Nearest] {
        pose.extend(pose_programs(POSE_BASE, 12, interp));
    }
    assert_eq!(assert_no_rescue(&pose, &pose_scratch(POSE_BASE)), 10 * 2);
}

//! The edge-detection kernels as macro-op IR programs — **one**
//! definition per kernel. This module only builds programs;
//! [`crate::pim_pool::EdgeKernels`] lowers them and runs them on a
//! [`pimvo_pim::PimArrayPool`], one strip of rows per array.
//!
//! Each `*_program` builder emits the kernel's dataflow over virtual
//! registers for a strip of output rows; [`pimvo_pim::lower()`] then
//! schedules it at a chosen [`LowerLevel`]:
//!
//! * [`LowerLevel::Naive`] reproduces the paper's unoptimized mapping
//!   (stand-alone shifts, every intermediate written back to SRAM) —
//!   the Fig. 9-b comparison point;
//! * [`LowerLevel::Opt`] reproduces the paper's optimized mapping
//!   (fused shifts, Tmp-Reg chaining, minimal scratch spills);
//! * [`LowerLevel::MultiReg`] is the §5.4 scaling study: spills go to
//!   extra temporary registers instead of SRAM scratch rows.
//!
//! All levels produce output bit-identical to [`crate::scalar`]; only
//! the cycle/energy cost differs. Property tests in
//! `crates/kernels/tests/ir_roundtrip.rs` enforce this on random
//! images for every level and pool size.
//!
//! [`LowerLevel`]: pimvo_pim::LowerLevel
//! [`LowerLevel::Naive`]: pimvo_pim::LowerLevel::Naive
//! [`LowerLevel::Opt`]: pimvo_pim::LowerLevel::Opt
//! [`LowerLevel::MultiReg`]: pimvo_pim::LowerLevel::MultiReg

use crate::config::{NEIGHBOR_SHIFT, RECENTER_SHIFT};
use crate::pim_util::{row_or_zero, Regions};
use pimvo_pim::{LaneWidth, PimProgram, ScratchRows, Signedness, Val};

/// Scratch rows the lowering may spill into: `r.s(0) .. r.s(14)`.
/// Fifteen rows comfortably hold the worst-case live set of the naive
/// NMS expansion.
pub const SCRATCH_POOL: usize = 15;

/// Temporary registers the §5.4 multi-register lowering
/// ([`pimvo_pim::LowerLevel::MultiReg`]) uses: programs lowered at that
/// level need arrays built with at least this many (`tmp_regs` on the
/// pool's machine builder).
pub const REGS_REQUIRED: u8 = 4;

/// The scratch pool handed to [`pimvo_pim::lower()`] for every kernel
/// program.
pub fn scratch_pool(r: &Regions) -> ScratchRows {
    ScratchRows::new((0..SCRATCH_POOL).map(|i| r.s(i)).collect())
}

// ---------------------------------------------------------------------
// Program builders (one per kernel)
// ---------------------------------------------------------------------

/// LPF pass 1 (Fig. 2, anchored top-left) for output rows `y0..y1`:
/// `aux1[y] = avg(avg(src[y], src[y+1]) , << 1 pix)`. A shard needs one
/// halo input row below its strip.
pub fn lpf_pass1_program(r: &Regions, src: usize, h: u32, y0: i64, y1: i64) -> PimProgram {
    let mut p = PimProgram::new("lpf_pass1");
    p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    for y in y0..y1 {
        let a = Val::Row(row_or_zero(r, src, y, h));
        let b = Val::Row(row_or_zero(r, src, y + 1, h));
        let c = p.avg(a, b); // C = (A + B) / 2
        let e = p.avg_sh(c.into(), c.into(), 1); // E = (C + C<<1pix) / 2
        p.store(e, r.aux1 + y as usize);
    }
    p
}

/// LPF pass 2 (anchored bottom-right) for output rows `y0..y1`, reading
/// `aux1` rows `y - 1` and `y` — a shard needs one halo pass-1 row
/// above its strip.
pub fn lpf_pass2_program(
    r: &Regions,
    dst: usize,
    h: u32,
    mask: Option<usize>,
    y0: i64,
    y1: i64,
) -> PimProgram {
    let mut p = PimProgram::new("lpf_pass2");
    p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    for y in y0..y1 {
        let a = Val::Row(row_or_zero(r, r.aux1, y - 1, h));
        let b = Val::Row(row_or_zero(r, r.aux1, y, h));
        let c = p.avg(a, b);
        let mut e = p.avg_sh(c.into(), c.into(), RECENTER_SHIFT);
        if let Some(mk) = mask {
            e = p.and(e.into(), Val::Row(mk));
        }
        p.store(e, dst + y as usize);
    }
    p
}

/// HPF (Fig. 3): saturated SAD over the four opposing neighbour pairs,
/// for output rows `y0..y1`. Row `y` reads `src` rows `y - 1 ..= y + 1`
/// — a shard needs one halo row on each side.
#[allow(clippy::too_many_arguments)]
pub fn hpf_program(
    r: &Regions,
    src: usize,
    dst: usize,
    h: u32,
    mask: Option<usize>,
    y0: i64,
    y1: i64,
) -> PimProgram {
    let mut p = PimProgram::new("hpf");
    p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    for y in y0..y1 {
        let a = Val::Row(row_or_zero(r, src, y - 1, h)); // row above
        let b = Val::Row(row_or_zero(r, src, y, h)); // centre row
        let c = Val::Row(row_or_zero(r, src, y + 1, h)); // row below

        // anchored at x-1 (lane i corresponds to output pixel x = i+1)
        let d2 = p.abs_diff_sh(c, a, NEIGHBOR_SHIFT); // |c1 - a3|
        let dv = p.abs_diff(a, c); // |a2 - c2| (anchored at x)
        let dh = p.abs_diff_sh(b, b, NEIGHBOR_SHIFT); // |b1 - b3|
        let d1 = p.abs_diff_sh(a, c, NEIGHBOR_SHIFT); // |a1 - c3|
        let e1 = p.avg(d1.into(), d2.into()); // avg of the two diagonals
        let e2 = p.avg_sh(dh.into(), dv.into(), 1); // avg(horiz, vert re-anchored)
        let e3 = p.avg(e2.into(), e1.into()); // final SAD/4 response
        let mut out = p.shift_pix(e3.into(), RECENTER_SHIFT); // re-centre
        if let Some(mk) = mask {
            out = p.and(out.into(), Val::Row(mk));
        }
        p.store(out, dst + y as usize);
    }
    p
}

/// NMS (Fig. 4, simplified branch-free form): `edge = (b2 > th2) &&
/// (sat(b2 - th1) > min(4 directional maxima))`, for output rows
/// `y0..y1`. Threshold rows `r.th(0)` / `r.th(1)` must be broadcast by
/// the host beforehand. A shard needs one halo row on each side.
#[allow(clippy::too_many_arguments)]
pub fn nms_program(
    r: &Regions,
    src: usize,
    dst: usize,
    h: u32,
    mask: Option<usize>,
    y0: i64,
    y1: i64,
) -> PimProgram {
    let mut p = PimProgram::new("nms");
    p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    let th1 = Val::Row(r.th(0));
    let th2 = Val::Row(r.th(1));
    for y in y0..y1 {
        let a = Val::Row(row_or_zero(r, src, y - 1, h));
        let b = Val::Row(row_or_zero(r, src, y, h));
        let c = Val::Row(row_or_zero(r, src, y + 1, h));

        // directional maxima, anchored at x-1 except the vertical pair
        let g = p.max_sh(a, c, NEIGHBOR_SHIFT); // G = max(a1, c3)
        let hh = p.max(a, c); // H = max(a2, c2), anchored at x
        let i = p.max_sh(c, a, NEIGHBOR_SHIFT); // I = max(c1, a3)
        let j = p.max_sh(b, b, NEIGHBOR_SHIFT); // J = max(b1, b3)
        let k1 = p.min(j.into(), g.into()); // K = min(J, G)
        let k2 = p.min_sh(k1.into(), hh.into(), 1); // ... min with H re-anchored
        let k3 = p.min(k2.into(), i.into()); // ... min with I
        let mut k = p.shift_pix(k3.into(), RECENTER_SHIFT); // re-centre K
        if let Some(mk) = mask {
            k = p.and(k.into(), Val::Row(mk));
        }
        let l = p.sat_sub(b, th1); // L = sat(B - th1)
        let mm = p.cmp_gt(l.into(), k.into()); // M = L > K
        let n = p.cmp_gt(b, th2); // N = B > th2
        let e = p.and(n.into(), mm.into()); // edge = M && N
        p.store(e, dst + y as usize);
    }
    p
}

/// Downsample-by-2 compute for output rows `oy0..oy1`: one vertical
/// pair average and one fused shift-average per output row, leaving the
/// 2x2 block means at even lanes of `aux1 + oy` (the decimating repack
/// is a host-side read).
pub fn downsample_program(r: &Regions, oy0: u32, oy1: u32) -> PimProgram {
    let mut p = PimProgram::new("downsample");
    p.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    for oy in oy0..oy1 {
        let r0 = r.input + (2 * oy) as usize;
        let c = p.avg(Val::Row(r0), Val::Row(r0 + 1)); // vertical pair average
        let e = p.avg_sh(c.into(), c.into(), 1); // horizontal fused average
        p.store(e, r.aux1 + oy as usize);
    }
    p
}

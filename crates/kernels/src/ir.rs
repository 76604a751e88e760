//! The edge-detection kernels as macro-op IR programs — **one**
//! definition per kernel ([`crate::pim_pool`] is a thin sharding layer
//! over this module).
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
//! images for every level and both backends (single machine, sharded
//! pool).

use crate::config::{NEIGHBOR_SHIFT, RECENTER_SHIFT};
use crate::pim_util::{ghost_mask, load_image, read_image, row_or_zero, Regions};
use crate::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo_pim::{
    lower_with_passes, LaneWidth, LowerLevel, LoweredCache, LoweredProgram, Pass, PimMachine,
    PimProgram, ScratchRows, Signedness, Val,
};
use std::sync::Arc;

/// Scratch rows the lowering may spill into: `r.s(0) .. r.s(14)`.
/// Fifteen rows comfortably hold the worst-case live set of the naive
/// NMS expansion.
pub const SCRATCH_POOL: usize = 15;

/// Temporary registers the §5.4 multi-register lowering
/// ([`LowerLevel::MultiReg`]) uses — enable them with
/// [`PimMachine::set_tmp_regs`] before running a program lowered at
/// that level.
pub const REGS_REQUIRED: u8 = 4;

/// The scratch pool handed to [`pimvo_pim::lower()`] for every kernel
/// program.
pub fn scratch_pool(r: &Regions) -> ScratchRows {
    ScratchRows::new((0..SCRATCH_POOL).map(|i| r.s(i)).collect())
}

/// Asserts the machine satisfies `level`'s register requirement.
///
/// # Panics
///
/// Panics when `level` is [`LowerLevel::MultiReg`]`(n)` and the machine
/// has fewer than `n` Tmp registers (enable them with
/// [`PimMachine::set_tmp_regs`]).
pub fn check_level(m: &PimMachine, level: LowerLevel) {
    if let LowerLevel::MultiReg(n) = level {
        assert!(
            m.tmp_reg_count() >= n,
            "multi-register lowering needs {} Tmp registers, machine has {} \
             (call set_tmp_regs)",
            n,
            m.tmp_reg_count()
        );
    }
}

/// Lowers `prog` at `level` and runs it, panicking on malformed
/// programs (the builders below are hazard-free by construction).
/// Lowering memoizes through [`LoweredCache::global`], so repeated
/// frames re-lower nothing.
fn run(m: &mut PimMachine, prog: &PimProgram, level: LowerLevel, r: &Regions) {
    let lowered = LoweredCache::global()
        .get_or_lower(prog, level, &scratch_pool(r), m.config())
        .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", prog.name()));
    m.run_program(&lowered)
        .unwrap_or_else(|e| panic!("running {} at {level}: {e:?}", prog.name()));
}

/// Like [`run`], but lowering with an explicit pass list instead of
/// the level's full pipeline. Bypasses the cache: its key does not
/// cover the pass list, and partial lowerings must never be served to
/// regular callers.
fn run_with_passes(
    m: &mut PimMachine,
    prog: &PimProgram,
    level: LowerLevel,
    r: &Regions,
    passes: &[Pass],
) {
    let lowered = lower_with_passes(prog, level, &scratch_pool(r), passes)
        .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", prog.name()));
    m.run_program(&lowered)
        .unwrap_or_else(|e| panic!("running {} at {level}: {e:?}", prog.name()));
}

/// Dispatches to [`run`] (full pipeline, cached) or
/// [`run_with_passes`] (explicit pass list, uncached).
fn run_maybe(
    m: &mut PimMachine,
    prog: &PimProgram,
    level: LowerLevel,
    r: &Regions,
    passes: Option<&[Pass]>,
) {
    match passes {
        Some(ps) => run_with_passes(m, prog, level, r, ps),
        None => run(m, prog, level, r),
    }
}

/// Lowers `prog` at [`LowerLevel::Opt`] for pool submission, memoized
/// through `cache`.
pub(crate) fn lower_opt(
    prog: &PimProgram,
    r: &Regions,
    cache: &LoweredCache,
    config: &pimvo_pim::ArrayConfig,
) -> Arc<LoweredProgram> {
    cache
        .get_or_lower(prog, LowerLevel::Opt, &scratch_pool(r), config)
        .unwrap_or_else(|e| panic!("lowering {}: {e}", prog.name()))
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

// ---------------------------------------------------------------------
// Level-parameterized executors (single machine)
// ---------------------------------------------------------------------

/// Runs the full pipeline (LPF → HPF → NMS) at the given lowering
/// level.
///
/// # Panics
///
/// Panics if the machine has fewer than 6 banks of 256 rows, or fewer
/// Tmp registers than a [`LowerLevel::MultiReg`] level requires.
pub fn edge_detect(
    m: &mut PimMachine,
    img: &GrayImage,
    cfg: &EdgeConfig,
    level: LowerLevel,
) -> EdgeMaps {
    check_level(m, level);
    let r = Regions::for_machine(m, img.height());
    let w = load_image(m, r.input, img) as u32;
    let h = img.height();

    lpf_rows(m, &r, r.input, r.aux2, h, w as usize, level, None);
    let lpf = read_image(m, r.aux2, w, h);

    hpf_rows(m, &r, r.aux2, r.aux3, h, w as usize, level, None);
    let hpf = read_image(m, r.aux3, w, h);

    nms_rows(m, &r, r.aux3, r.out, h, w as usize, cfg, level, None);
    let mut mask = read_image(m, r.out, w, h);
    mask.clear_border(cfg.border);

    EdgeMaps { lpf, hpf, mask }
}

/// [`edge_detect`] with an explicit pass list in place of `level`'s
/// full [`pimvo_pim::pass_pipeline`]. Every prefix of the pipeline is
/// value-preserving — only cost may change — which
/// `crates/kernels/tests/pass_prefix_proptests.rs` pins against
/// [`crate::scalar`] on random images.
pub fn edge_detect_with_passes(
    m: &mut PimMachine,
    img: &GrayImage,
    cfg: &EdgeConfig,
    level: LowerLevel,
    passes: &[Pass],
) -> EdgeMaps {
    check_level(m, level);
    let r = Regions::for_machine(m, img.height());
    let w = load_image(m, r.input, img) as u32;
    let h = img.height();

    lpf_rows(m, &r, r.input, r.aux2, h, w as usize, level, Some(passes));
    let lpf = read_image(m, r.aux2, w, h);

    hpf_rows(m, &r, r.aux2, r.aux3, h, w as usize, level, Some(passes));
    let hpf = read_image(m, r.aux3, w, h);

    nms_rows(
        m,
        &r,
        r.aux3,
        r.out,
        h,
        w as usize,
        cfg,
        level,
        Some(passes),
    );
    let mut mask = read_image(m, r.out, w, h);
    mask.clear_border(cfg.border);

    EdgeMaps { lpf, hpf, mask }
}

/// Runs only the LPF at the given lowering level.
pub fn lpf(m: &mut PimMachine, img: &GrayImage, level: LowerLevel) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, img.height());
    let w = load_image(m, r.input, img) as u32;
    lpf_rows(
        m,
        &r,
        r.input,
        r.aux2,
        img.height(),
        w as usize,
        level,
        None,
    );
    read_image(m, r.aux2, w, img.height())
}

/// [`lpf`] with an explicit pass list in place of `level`'s full
/// pipeline (see [`edge_detect_with_passes`]).
pub fn lpf_with_passes(
    m: &mut PimMachine,
    img: &GrayImage,
    level: LowerLevel,
    passes: &[Pass],
) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, img.height());
    let w = load_image(m, r.input, img) as u32;
    lpf_rows(
        m,
        &r,
        r.input,
        r.aux2,
        img.height(),
        w as usize,
        level,
        Some(passes),
    );
    read_image(m, r.aux2, w, img.height())
}

/// Runs only the HPF on a low-pass map at the given lowering level.
pub fn hpf(m: &mut PimMachine, lpf_map: &GrayImage, level: LowerLevel) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, lpf_map.height());
    let w = load_image(m, r.aux2, lpf_map) as u32;
    hpf_rows(
        m,
        &r,
        r.aux2,
        r.aux3,
        lpf_map.height(),
        w as usize,
        level,
        None,
    );
    read_image(m, r.aux3, w, lpf_map.height())
}

/// [`hpf`] with an explicit pass list in place of `level`'s full
/// pipeline (see [`edge_detect_with_passes`]).
pub fn hpf_with_passes(
    m: &mut PimMachine,
    lpf_map: &GrayImage,
    level: LowerLevel,
    passes: &[Pass],
) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, lpf_map.height());
    let w = load_image(m, r.aux2, lpf_map) as u32;
    hpf_rows(
        m,
        &r,
        r.aux2,
        r.aux3,
        lpf_map.height(),
        w as usize,
        level,
        Some(passes),
    );
    read_image(m, r.aux3, w, lpf_map.height())
}

/// Runs only the NMS on a high-pass map at the given lowering level.
pub fn nms(
    m: &mut PimMachine,
    hpf_map: &GrayImage,
    cfg: &EdgeConfig,
    level: LowerLevel,
) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, hpf_map.height());
    let w = load_image(m, r.aux3, hpf_map) as u32;
    nms_rows(
        m,
        &r,
        r.aux3,
        r.out,
        hpf_map.height(),
        w as usize,
        cfg,
        level,
        None,
    );
    let mut mask = read_image(m, r.out, w, hpf_map.height());
    mask.clear_border(cfg.border);
    mask
}

/// [`nms`] with an explicit pass list in place of `level`'s full
/// pipeline (see [`edge_detect_with_passes`]).
pub fn nms_with_passes(
    m: &mut PimMachine,
    hpf_map: &GrayImage,
    cfg: &EdgeConfig,
    level: LowerLevel,
    passes: &[Pass],
) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, hpf_map.height());
    let w = load_image(m, r.aux3, hpf_map) as u32;
    nms_rows(
        m,
        &r,
        r.aux3,
        r.out,
        hpf_map.height(),
        w as usize,
        cfg,
        level,
        Some(passes),
    );
    let mut mask = read_image(m, r.out, w, hpf_map.height());
    mask.clear_border(cfg.border);
    mask
}

/// Downsamples by 2 at the given lowering level; the lane decimation is
/// a host-side repack. Output is bit-identical to
/// [`crate::scalar::downsample2x`].
pub fn downsample2x(m: &mut PimMachine, img: &GrayImage, level: LowerLevel) -> GrayImage {
    downsample2x_impl(m, img, level, None)
}

/// [`downsample2x`] with an explicit pass list in place of `level`'s
/// full pipeline (see [`edge_detect_with_passes`]).
pub fn downsample2x_with_passes(
    m: &mut PimMachine,
    img: &GrayImage,
    level: LowerLevel,
    passes: &[Pass],
) -> GrayImage {
    downsample2x_impl(m, img, level, Some(passes))
}

fn downsample2x_impl(
    m: &mut PimMachine,
    img: &GrayImage,
    level: LowerLevel,
    passes: Option<&[Pass]>,
) -> GrayImage {
    check_level(m, level);
    let r = Regions::for_machine(m, img.height());
    let _ = load_image(m, r.input, img);
    let (w, h) = (img.width() / 2, img.height() / 2);
    assert!(w > 0 && h > 0, "image too small to downsample");
    let prog = downsample_program(&r, 0, h);
    run_maybe(m, &prog, level, &r, passes);
    let mut out = GrayImage::new(w, h);
    for oy in 0..h {
        let lanes = m
            .host_read_lanes(r.aux1 + oy as usize)
            .expect("host I/O row in range");
        for ox in 0..w {
            out.set(ox, oy, lanes[(2 * ox) as usize] as u8);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn lpf_rows(
    m: &mut PimMachine,
    r: &Regions,
    src: usize,
    dst: usize,
    h: u32,
    w: usize,
    level: LowerLevel,
    passes: Option<&[Pass]>,
) {
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    m.host_broadcast(r.zero_row(), 0)
        .expect("host I/O row in range");
    let mask = ghost_mask(m, r, w);
    let p1 = lpf_pass1_program(r, src, h, 0, h as i64);
    run_maybe(m, &p1, level, r, passes);
    let p2 = lpf_pass2_program(r, dst, h, mask, 0, h as i64);
    run_maybe(m, &p2, level, r, passes);
}

#[allow(clippy::too_many_arguments)]
fn hpf_rows(
    m: &mut PimMachine,
    r: &Regions,
    src: usize,
    dst: usize,
    h: u32,
    w: usize,
    level: LowerLevel,
    passes: Option<&[Pass]>,
) {
    m.host_broadcast(r.zero_row(), 0)
        .expect("host I/O row in range");
    let mask = ghost_mask(m, r, w);
    let p = hpf_program(r, src, dst, h, mask, 0, h as i64);
    run_maybe(m, &p, level, r, passes);
}

#[allow(clippy::too_many_arguments)]
fn nms_rows(
    m: &mut PimMachine,
    r: &Regions,
    src: usize,
    dst: usize,
    h: u32,
    w: usize,
    cfg: &EdgeConfig,
    level: LowerLevel,
    passes: Option<&[Pass]>,
) {
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    m.host_broadcast(r.zero_row(), 0)
        .expect("host I/O row in range");
    m.host_broadcast(r.th(0), cfg.th1 as i64)
        .expect("host I/O row in range");
    m.host_broadcast(r.th(1), cfg.th2 as i64)
        .expect("host I/O row in range");
    let mask = ghost_mask(m, r, w);
    let p = nms_program(r, src, dst, h, mask, 0, h as i64);
    run_maybe(m, &p, level, r, passes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;
    use pimvo_pim::ArrayConfig;

    fn machine() -> PimMachine {
        PimMachine::new(ArrayConfig::qvga_banks(6))
    }

    fn test_image() -> GrayImage {
        GrayImage::from_fn(64, 48, |x, y| {
            ((x * 23 + y * 37).wrapping_mul(2654435761) >> 11) as u8
        })
    }

    fn levels() -> [LowerLevel; 3] {
        [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(4)]
    }

    fn machine_for(level: LowerLevel) -> PimMachine {
        let mut m = machine();
        if let LowerLevel::MultiReg(n) = level {
            m.set_tmp_regs(n);
        }
        m
    }

    #[test]
    fn every_level_matches_scalar() {
        let img = test_image();
        let cfg = EdgeConfig::default();
        let want = scalar::edge_detect(&img, &cfg);
        for level in levels() {
            let mut m = machine_for(level);
            let got = edge_detect(&mut m, &img, &cfg, level);
            assert_eq!(got.lpf, want.lpf, "{level} lpf");
            assert_eq!(got.hpf, want.hpf, "{level} hpf");
            assert_eq!(got.mask, want.mask, "{level} mask");
        }
    }

    #[test]
    fn level_cost_ordering_holds() {
        let img = test_image();
        let cfg = EdgeConfig::default();
        let mut cycles = Vec::new();
        let mut writes = Vec::new();
        for level in levels() {
            let mut m = machine_for(level);
            let _ = edge_detect(&mut m, &img, &cfg, level);
            cycles.push(m.stats().cycles);
            writes.push(m.stats().sram_writes);
        }
        assert!(
            cycles[0] > cycles[1],
            "naive {} should exceed opt {}",
            cycles[0],
            cycles[1]
        );
        assert!(
            cycles[2] <= cycles[1],
            "multireg {} should not exceed opt {}",
            cycles[2],
            cycles[1]
        );
        assert!(
            writes[2] < writes[1] / 2,
            "multireg writes {} vs opt {}",
            writes[2],
            writes[1]
        );
    }

    #[test]
    fn downsample_matches_scalar_at_every_level() {
        let img = test_image();
        let want = scalar::downsample2x(&img);
        for level in levels() {
            let mut m = machine_for(level);
            assert_eq!(downsample2x(&mut m, &img, level), want, "{level}");
        }
    }

    #[test]
    fn program_listing_is_stable() {
        let mut m = machine();
        let r = Regions::for_machine(&m, 4);
        let _ = &mut m;
        let p = lpf_pass1_program(&r, r.input, 4, 0, 1);
        let text = p.to_string();
        assert!(text.starts_with("program lpf_pass1:\n"), "{text}");
        assert!(text.contains("avg"), "{text}");
        assert!(text.contains("store"), "{text}");
    }

    #[test]
    #[should_panic(expected = "Tmp registers")]
    fn multireg_level_rejects_single_register_machine() {
        let mut m = machine();
        let _ = hpf(&mut m, &test_image(), LowerLevel::MultiReg(4));
    }
}

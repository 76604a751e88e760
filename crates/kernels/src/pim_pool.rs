//! Sharded edge-detection kernels on a [`PimArrayPool`]: each array
//! runs the [`crate::ir`] kernel programs — lowered at
//! [`pimvo_pim::LowerLevel::Opt`] — for a contiguous strip of image
//! rows, submitted through
//! [`PimArrayPool::submit_strips`] (one program per array, every array
//! running its own strip).
//!
//! # Sharding model
//!
//! Rows keep their **global** indices inside every array (an image row
//! `y` lives at `region_base + y` on whichever array owns it), so a
//! shard executes exactly the instruction sequence the single-array
//! kernel would for those rows. Neighbour data crosses strip borders in
//! two host-mediated ways:
//!
//! * **input halos** — rows adjacent to a strip are host-loaded along
//!   with the strip itself (host I/O, no compute cycles);
//! * **boundary exchanges** — when a phase consumes the *previous*
//!   phase's output (LPF pass 2 after pass 1, HPF after LPF, NMS after
//!   HPF), the host copies each strip-edge row from the array that
//!   computed it into the neighbour that reads it, between the two
//!   program-submission barriers.
//!
//! Both mechanisms touch only `host_io_rows`; the merged compute
//! statistics (cycles, SRAM traffic, op histogram) are **bit-identical**
//! to single-array execution, as are the produced maps — property tests
//! in `crates/kernels/tests/` enforce this. Wall cycles shrink by the
//! strip factor, paying one [`pimvo_pim::CostModel::pool_sync_cycles`]
//! per barrier.
//!
//! # Compile once, execute many
//!
//! The four strip program sets of a frame (LPF pass 1 and 2, HPF, NMS)
//! depend only on the pool length, the array geometry, the image size
//! and the ghost-mask row — never on the pixels. [`EdgeKernels`]
//! resolves them through the pool's [`pimvo_pim::LoweredCache`] once
//! per such key and holds the `Arc`s, so a warm frame builds, hashes
//! and looks up no program. The free entry points ([`edge_detect`],
//! [`lpf`], [`hpf`], [`nms`]) resolve per call.

use crate::ir::{
    downsample_program, hpf_program, lower_opt, lpf_pass1_program, lpf_pass2_program, nms_program,
    scratch_pool,
};
use crate::pim_util::{
    ghost_mask, ghost_mask_row, load_image_rows, partition_rows, prefetch_image_rows, Regions,
};
use crate::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo_pim::{
    lower_with_passes, ArrayConfig, LaneWidth, LowerLevel, LoweredProgram, Pass, PimArrayPool,
    PimProgram, Signedness,
};
use std::sync::Arc;

/// Lowers one strip program per pool array with a builder closure,
/// memoized through the pool's [`pimvo_pim::LoweredCache`] — across
/// frames (and across sessions sharing the cache handle) each distinct
/// strip program is lowered exactly once.
fn strip_programs(
    pool: &PimArrayPool,
    strips: &[(i64, i64)],
    r: &Regions,
    build: &dyn Fn(i64, i64) -> PimProgram,
) -> Vec<Arc<LoweredProgram>> {
    let cache = pool.lowered_cache();
    let config = pool.array(0).config();
    strips
        .iter()
        .map(|&(y0, y1)| lower_opt(&build(y0, y1), r, cache, config))
        .collect()
}

/// [`strip_programs`] with an explicit pass list. Uncached: the cache
/// key does not cover the pass list, and a partial lowering must never
/// be served to regular callers.
fn strip_programs_with_passes(
    strips: &[(i64, i64)],
    r: &Regions,
    passes: &[Pass],
    build: &dyn Fn(i64, i64) -> PimProgram,
) -> Vec<Arc<LoweredProgram>> {
    strips
        .iter()
        .map(|&(y0, y1)| {
            let prog = build(y0, y1);
            let lowered = lower_with_passes(&prog, LowerLevel::Opt, &scratch_pool(r), passes)
                .unwrap_or_else(|e| panic!("lowering {}: {e}", prog.name()));
            Arc::new(lowered)
        })
        .collect()
}

/// What the edge strip builders read: the strips (pool length and
/// image height), the array geometry, the image width and the
/// ghost-mask row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeKey {
    arrays: usize,
    config: ArrayConfig,
    width: u32,
    height: u32,
    mask: Option<usize>,
}

impl EdgeKey {
    /// The key of a `width` x `height` frame on `pool`.
    ///
    /// # Panics
    ///
    /// As [`Regions::for_machine`].
    fn of(pool: &PimArrayPool, width: u32, height: u32) -> EdgeKey {
        let config = pool.array(0).config();
        let r = Regions::for_machine(pool.array(0), height);
        EdgeKey {
            arrays: pool.len(),
            config: config.clone(),
            width,
            height,
            mask: ghost_mask_row(config, &r, width as usize),
        }
    }
}

/// The four Opt-lowered strip program sets of one key, one program per
/// pool array in each.
#[derive(Debug, Clone)]
struct EdgeSet {
    key: EdgeKey,
    lpf_pass1: Vec<Arc<LoweredProgram>>,
    lpf_pass2: Vec<Arc<LoweredProgram>>,
    hpf: Vec<Arc<LoweredProgram>>,
    nms: Vec<Arc<LoweredProgram>>,
}

impl EdgeSet {
    /// Builds the strip programs of `key` and lowers them through the
    /// pool's cache, or uncached through `passes` when given.
    fn resolve(pool: &PimArrayPool, key: EdgeKey, passes: Option<&[Pass]>) -> EdgeSet {
        let r = Regions::for_machine(pool.array(0), key.height);
        let strips = partition_rows(key.height, key.arrays);
        let (h, mask) = (key.height, key.mask);
        let lower = |build: &dyn Fn(i64, i64) -> PimProgram| match passes {
            Some(ps) => strip_programs_with_passes(&strips, &r, ps, build),
            None => strip_programs(pool, &strips, &r, build),
        };
        EdgeSet {
            lpf_pass1: lower(&|y0, y1| lpf_pass1_program(&r, r.input, h, y0, y1)),
            lpf_pass2: lower(&|y0, y1| lpf_pass2_program(&r, r.aux2, h, mask, y0, y1)),
            hpf: lower(&|y0, y1| hpf_program(&r, r.aux2, r.aux3, h, mask, y0, y1)),
            nms: lower(&|y0, y1| nms_program(&r, r.aux3, r.out, h, mask, y0, y1)),
            key,
        }
    }

    /// The cached set for a `width` x `height` frame on `pool`.
    fn for_frame(pool: &PimArrayPool, width: u32, height: u32) -> EdgeSet {
        Self::resolve(pool, EdgeKey::of(pool, width, height), None)
    }
}

/// Edge-detection kernels resolved once and held across frames, the
/// edge counterpart of the pose stage's held kernels.
///
/// Holds one resolved set of the four strip program sets per image
/// size (pyramid levels differ in size) and checks its key — pool length, array
/// geometry, image width and height, ghost-mask row — on every call: a
/// caller whose pool was swapped for another geometry or length (as a
/// serving fleet does per frame) gets its set re-resolved, never a
/// stale one. Resolution goes through the pool's
/// [`pimvo_pim::LoweredCache`], which stays the only lowering
/// authority; a warm call makes no cache lookup.
///
/// ```
/// use pimvo_kernels::pim_pool::{self, EdgeKernels};
/// use pimvo_kernels::{EdgeConfig, GrayImage};
/// use pimvo_pim::{ArrayConfig, PimMachineBuilder};
///
/// let mut pool = PimMachineBuilder::new(ArrayConfig::qvga_banks(6)).build_pool(2);
/// let img = GrayImage::from_fn(32, 16, |x, y| ((x * 8) ^ (y * 8)) as u8);
/// let cfg = EdgeConfig::default();
/// let mut kernels = EdgeKernels::new();
/// let held = kernels.edge_detect(&mut pool, &img, &cfg);
/// assert_eq!(held, pim_pool::edge_detect(&mut pool, &img, &cfg));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdgeKernels {
    sets: Vec<EdgeSet>,
}

impl EdgeKernels {
    /// An empty holder; sets are resolved on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set for a `width` x `height` frame on `pool`: the held one
    /// if its key still matches, else a fresh resolution replacing the
    /// held set of that size.
    fn resolve(&mut self, pool: &PimArrayPool, width: u32, height: u32) -> &EdgeSet {
        let key = EdgeKey::of(pool, width, height);
        let same_size = |s: &EdgeSet| (s.key.width, s.key.height) == (width, height);
        let i = match self.sets.iter().position(same_size) {
            Some(i) if self.sets[i].key == key => i,
            Some(i) => {
                self.sets[i] = EdgeSet::resolve(pool, key, None);
                i
            }
            None => {
                self.sets.push(EdgeSet::resolve(pool, key, None));
                self.sets.len() - 1
            }
        };
        &self.sets[i]
    }

    /// [`edge_detect`] with the held kernels.
    ///
    /// # Panics
    ///
    /// Panics if the pool's arrays have fewer than 6 banks of 256 rows.
    pub fn edge_detect(
        &mut self,
        pool: &mut PimArrayPool,
        img: &GrayImage,
        cfg: &EdgeConfig,
    ) -> EdgeMaps {
        let set = self.resolve(pool, img.width(), img.height());
        edge_detect_frame(pool, set, img, cfg, false, None)
    }

    /// [`lpf`] with the held kernels.
    ///
    /// # Panics
    ///
    /// As [`EdgeKernels::edge_detect`].
    pub fn lpf(&mut self, pool: &mut PimArrayPool, img: &GrayImage) -> GrayImage {
        let set = self.resolve(pool, img.width(), img.height());
        lpf_with(pool, set, img)
    }

    /// [`hpf`] with the held kernels.
    ///
    /// # Panics
    ///
    /// As [`EdgeKernels::edge_detect`].
    pub fn hpf(&mut self, pool: &mut PimArrayPool, lpf_map: &GrayImage) -> GrayImage {
        let set = self.resolve(pool, lpf_map.width(), lpf_map.height());
        hpf_with(pool, set, lpf_map)
    }
}

/// Runs the full optimized pipeline (LPF → HPF → NMS) sharded across
/// the pool's arrays; output is bit-identical to single-array
/// [`crate::ir::edge_detect`] at [`pimvo_pim::LowerLevel::Opt`].
/// Resolves the kernels on every call; [`EdgeKernels`] holds them.
///
/// # Panics
///
/// Panics if the pool's arrays have fewer than 6 banks of 256 rows.
pub fn edge_detect(pool: &mut PimArrayPool, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
    EdgeKernels::new().edge_detect(pool, img, cfg)
}

/// [`edge_detect`] with an explicit pass list in place of the full
/// [`pimvo_pim::LowerLevel::Opt`] pipeline. Every prefix of the
/// pipeline is value-preserving — only cost may change — which
/// `crates/kernels/tests/pass_prefix_proptests.rs` pins against
/// [`crate::scalar`] on both backends.
pub fn edge_detect_with_passes(
    pool: &mut PimArrayPool,
    img: &GrayImage,
    cfg: &EdgeConfig,
    passes: &[Pass],
) -> EdgeMaps {
    let key = EdgeKey::of(pool, img.width(), img.height());
    let set = EdgeSet::resolve(pool, key, Some(passes));
    edge_detect_frame(pool, &set, img, cfg, false, None)
}

/// Runs [`edge_detect`] over a sequence of equal-sized frames with the
/// next frame's input strips prefetched on the arrays' DMA channels:
/// the input bank is dead once LPF pass 1 has consumed it, so frame
/// `f + 1`'s strips stream in place while frame `f`'s remaining phases
/// (LPF pass 2, HPF, NMS) compute, and the frame-boundary
/// [`PimArrayPool::dma_settle`] only waits for whatever the compute
/// did not already hide. Outputs are bit-identical to calling
/// [`edge_detect`] once per frame; on a pool without DMA channels the
/// schedule degenerates to the synchronous one.
///
/// # Panics
///
/// Panics if the frames differ in size or the arrays have fewer than
/// 6 banks of 256 rows.
pub fn edge_detect_pipelined(
    pool: &mut PimArrayPool,
    frames: &[GrayImage],
    cfg: &EdgeConfig,
) -> Vec<EdgeMaps> {
    assert!(
        frames
            .windows(2)
            .all(|p| p[0].width() == p[1].width() && p[0].height() == p[1].height()),
        "pipelined frames must share one size"
    );
    let mut kernels = EdgeKernels::new();
    let mut out = Vec::with_capacity(frames.len());
    for (f, img) in frames.iter().enumerate() {
        if f > 0 {
            // the prefetch issued during the previous frame must have
            // landed before LPF pass 1 reads the input bank
            pool.dma_settle();
        }
        let set = kernels.resolve(pool, img.width(), img.height());
        out.push(edge_detect_frame(
            pool,
            set,
            img,
            cfg,
            f > 0,
            frames.get(f + 1),
        ));
    }
    pool.dma_settle();
    out
}

/// One edge-detection frame with the programs of `set`. With
/// `preloaded` the input strips are already resident (a prior frame
/// prefetched them); with `next` the following frame's strips are
/// prefetched right after LPF pass 1 frees the input bank.
fn edge_detect_frame(
    pool: &mut PimArrayPool,
    set: &EdgeSet,
    img: &GrayImage,
    cfg: &EdgeConfig,
    preloaded: bool,
    next: Option<&GrayImage>,
) -> EdgeMaps {
    let r = Regions::for_machine(pool.array(0), img.height());
    let h = img.height();
    let w = img.width() as usize;
    let strips = partition_rows(h, pool.len());

    // host setup per array: padding/threshold rows, ghost mask, input
    // strip + one halo row below (LPF pass 1 reads y and y + 1)
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        m.host_broadcast(r.zero_row(), 0)
            .expect("host I/O row in range");
        m.host_broadcast(r.th(0), cfg.th1 as i64)
            .expect("host I/O row in range");
        m.host_broadcast(r.th(1), cfg.th2 as i64)
            .expect("host I/O row in range");
        ghost_mask(m, &r, w);
        let lo = y0 as u32;
        let hi = (y1 as u32 + 1).min(h);
        if !preloaded && lo < hi {
            load_image_rows(m, r.input, img, lo, hi);
        }
    }

    pool.submit_strips("lpf_pass1", &set.lpf_pass1)
        .expect("lpf pass 1 programs run");
    if let Some(nf) = next {
        // input bank is dead from here on: stream the next frame's
        // strips behind the remaining three phases
        for (i, &(y0, y1)) in strips.iter().enumerate() {
            let lo = y0 as u32;
            let hi = (y1 as u32 + 1).min(h);
            if lo < hi {
                prefetch_image_rows(pool.array_mut(i), r.input, nf, lo, hi);
            }
        }
    }
    exchange_boundary_rows(pool, &strips, r.aux1, h, true, false);
    pool.submit_strips("lpf_pass2", &set.lpf_pass2)
        .expect("lpf pass 2 programs run");
    let lpf = collect_image(pool, &strips, r.aux2, img.width(), h);

    exchange_boundary_rows(pool, &strips, r.aux2, h, true, true);
    pool.submit_strips("hpf", &set.hpf)
        .expect("hpf programs run");
    let hpf = collect_image(pool, &strips, r.aux3, img.width(), h);

    exchange_boundary_rows(pool, &strips, r.aux3, h, true, true);
    pool.submit_strips("nms", &set.nms)
        .expect("nms programs run");
    let mut mask_img = collect_image(pool, &strips, r.out, img.width(), h);
    mask_img.clear_border(cfg.border);

    EdgeMaps {
        lpf,
        hpf,
        mask: mask_img,
    }
}

/// Sharded LPF; bit-identical to single-array [`crate::ir::lpf`] at
/// [`pimvo_pim::LowerLevel::Opt`].
pub fn lpf(pool: &mut PimArrayPool, img: &GrayImage) -> GrayImage {
    let set = EdgeSet::for_frame(pool, img.width(), img.height());
    lpf_with(pool, &set, img)
}

fn lpf_with(pool: &mut PimArrayPool, set: &EdgeSet, img: &GrayImage) -> GrayImage {
    let r = Regions::for_machine(pool.array(0), img.height());
    let h = img.height();
    let w = img.width() as usize;
    let strips = partition_rows(h, pool.len());
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        m.host_broadcast(r.zero_row(), 0)
            .expect("host I/O row in range");
        ghost_mask(m, &r, w);
        let lo = y0 as u32;
        let hi = (y1 as u32 + 1).min(h);
        if lo < hi {
            load_image_rows(m, r.input, img, lo, hi);
        }
    }
    pool.submit_strips("lpf_pass1", &set.lpf_pass1)
        .expect("lpf pass 1 programs run");
    exchange_boundary_rows(pool, &strips, r.aux1, h, true, false);
    pool.submit_strips("lpf_pass2", &set.lpf_pass2)
        .expect("lpf pass 2 programs run");
    collect_image(pool, &strips, r.aux2, img.width(), h)
}

/// Sharded HPF on a low-pass map; bit-identical to single-array
/// [`crate::ir::hpf`] at [`pimvo_pim::LowerLevel::Opt`].
pub fn hpf(pool: &mut PimArrayPool, lpf_map: &GrayImage) -> GrayImage {
    let set = EdgeSet::for_frame(pool, lpf_map.width(), lpf_map.height());
    hpf_with(pool, &set, lpf_map)
}

fn hpf_with(pool: &mut PimArrayPool, set: &EdgeSet, lpf_map: &GrayImage) -> GrayImage {
    let r = Regions::for_machine(pool.array(0), lpf_map.height());
    let h = lpf_map.height();
    let w = lpf_map.width() as usize;
    let strips = partition_rows(h, pool.len());
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        m.host_broadcast(r.zero_row(), 0)
            .expect("host I/O row in range");
        ghost_mask(m, &r, w);
        // strip plus one halo row on each side (3-row stencil)
        if y0 < y1 {
            let lo = (y0 - 1).max(0) as u32;
            let hi = (y1 as u32 + 1).min(h);
            load_image_rows(m, r.aux2, lpf_map, lo, hi);
        }
    }
    pool.submit_strips("hpf", &set.hpf)
        .expect("hpf programs run");
    collect_image(pool, &strips, r.aux3, lpf_map.width(), h)
}

/// Sharded NMS on a high-pass map; bit-identical to single-array
/// [`crate::ir::nms`] at [`pimvo_pim::LowerLevel::Opt`].
pub fn nms(pool: &mut PimArrayPool, hpf_map: &GrayImage, cfg: &EdgeConfig) -> GrayImage {
    let set = EdgeSet::for_frame(pool, hpf_map.width(), hpf_map.height());
    let r = Regions::for_machine(pool.array(0), hpf_map.height());
    let h = hpf_map.height();
    let w = hpf_map.width() as usize;
    let strips = partition_rows(h, pool.len());
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        m.host_broadcast(r.zero_row(), 0)
            .expect("host I/O row in range");
        m.host_broadcast(r.th(0), cfg.th1 as i64)
            .expect("host I/O row in range");
        m.host_broadcast(r.th(1), cfg.th2 as i64)
            .expect("host I/O row in range");
        ghost_mask(m, &r, w);
        if y0 < y1 {
            let lo = (y0 - 1).max(0) as u32;
            let hi = (y1 as u32 + 1).min(h);
            load_image_rows(m, r.aux3, hpf_map, lo, hi);
        }
    }
    pool.submit_strips("nms", &set.nms)
        .expect("nms programs run");
    let mut out = collect_image(pool, &strips, r.out, hpf_map.width(), h);
    out.clear_border(cfg.border);
    out
}

/// Sharded downsample-by-2; bit-identical to single-array
/// [`crate::ir::downsample2x`]. Output rows partition trivially — each
/// output row reads its own input row pair, so no halos or exchanges
/// are needed.
pub fn downsample2x(pool: &mut PimArrayPool, img: &GrayImage) -> GrayImage {
    let r = Regions::for_machine(pool.array(0), img.height());
    let (w, h) = (img.width() / 2, img.height() / 2);
    assert!(w > 0 && h > 0, "image too small to downsample");
    let strips = partition_rows(h, pool.len());
    for (i, &(oy0, oy1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        let lo = 2 * oy0 as u32;
        let hi = (2 * oy1 as u32).min(img.height());
        if lo < hi {
            load_image_rows(m, r.input, img, lo, hi);
        }
    }
    let pd = strip_programs(pool, &strips, &r, &|oy0, oy1| {
        downsample_program(&r, oy0 as u32, oy1 as u32)
    });
    pool.submit_strips("downsample", &pd)
        .expect("downsample programs run");
    let mut out = GrayImage::new(w, h);
    for (i, &(oy0, oy1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        for oy in oy0..oy1 {
            let lanes = m
                .host_read_lanes(r.aux1 + oy as usize)
                .expect("host I/O row in range");
            for ox in 0..w {
                out.set(ox, oy as u32, lanes[(2 * ox) as usize] as u8);
            }
        }
    }
    out
}

/// Copies strip-edge rows of the map at `base` between neighbouring
/// arrays: with `above`, each array receives row `y0 - 1` from its
/// predecessor; with `below`, row `y1` from its successor. Pure host
/// I/O — the transferred rows were computed exactly once, so compute
/// statistics stay conserved.
fn exchange_boundary_rows(
    pool: &mut PimArrayPool,
    strips: &[(i64, i64)],
    base: usize,
    h: u32,
    above: bool,
    below: bool,
) {
    for i in 0..strips.len() {
        let (y0, y1) = strips[i];
        if y0 >= y1 {
            continue; // empty strip
        }
        let mut wanted: Vec<i64> = Vec::new();
        if above && y0 > 0 {
            wanted.push(y0 - 1);
        }
        if below && (y1 as u32) < h {
            wanted.push(y1);
        }
        for y in wanted {
            // find the array whose strip produced row y
            let owner = strips
                .iter()
                .position(|&(a, b)| y >= a && y < b)
                .expect("boundary row inside some strip");
            if owner == i {
                continue;
            }
            let row = base + y as usize;
            let src = pool.array_mut(owner);
            src.set_lanes(LaneWidth::W8, Signedness::Unsigned);
            let lanes = src.host_read_lanes(row).expect("host I/O row in range");
            pool.array_mut(i)
                .host_write_lanes(row, &lanes)
                .expect("host I/O row in range");
        }
    }
}

/// Assembles the output map by host-reading each strip from the array
/// that computed it.
fn collect_image(
    pool: &mut PimArrayPool,
    strips: &[(i64, i64)],
    base: usize,
    width: u32,
    h: u32,
) -> GrayImage {
    let mut out = GrayImage::new(width, h);
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        for y in y0..y1 {
            let lanes = m
                .host_read_lanes(base + y as usize)
                .expect("host I/O row in range");
            for x in 0..width {
                out.set(x, y as u32, lanes[x as usize] as u8);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir;
    use pimvo_pim::{ArrayConfig, LowerLevel, PimMachine, PimMachineBuilder};

    fn pool(n: usize) -> PimArrayPool {
        PimMachineBuilder::new(ArrayConfig::qvga_banks(6)).build_pool(n)
    }

    fn test_image() -> GrayImage {
        GrayImage::from_fn(64, 48, |x, y| {
            ((x * 31 + y * 17).wrapping_mul(2654435761) >> 11) as u8
        })
    }

    #[test]
    fn pooled_edge_detect_matches_single_array() {
        let img = test_image();
        let cfg = EdgeConfig::default();
        let mut single = PimMachine::new(ArrayConfig::qvga_banks(6));
        let want = ir::edge_detect(&mut single, &img, &cfg, LowerLevel::Opt);
        for n in [1, 2, 3, 4, 8] {
            let mut p = pool(n);
            let got = edge_detect(&mut p, &img, &cfg);
            assert_eq!(got.lpf, want.lpf, "lpf mismatch at n={n}");
            assert_eq!(got.hpf, want.hpf, "hpf mismatch at n={n}");
            assert_eq!(got.mask, want.mask, "mask mismatch at n={n}");
        }
    }

    #[test]
    fn pooled_edge_detect_conserves_compute_ops() {
        let img = test_image();
        let cfg = EdgeConfig::default();
        let mut single = PimMachine::new(ArrayConfig::qvga_banks(6));
        let _ = ir::edge_detect(&mut single, &img, &cfg, LowerLevel::Opt);
        let want = single.stats().clone();
        for n in [2, 4] {
            let mut p = pool(n);
            let _ = edge_detect(&mut p, &img, &cfg);
            let got = p.merged_stats();
            assert_eq!(got.cycles, want.cycles, "cycles at n={n}");
            assert_eq!(got.acc_ops, want.acc_ops, "acc_ops at n={n}");
            assert_eq!(got.sram_reads, want.sram_reads, "reads at n={n}");
            assert_eq!(got.sram_writes, want.sram_writes, "writes at n={n}");
            assert_eq!(got.op_histogram, want.op_histogram, "histogram at n={n}");
        }
    }

    #[test]
    fn pooled_wall_cycles_shrink_monotonically() {
        let img = GrayImage::from_fn(64, 48, |x, y| (x * 3 + y * 5) as u8);
        let cfg = EdgeConfig::default();
        let mut walls = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let mut p = pool(n);
            let _ = edge_detect(&mut p, &img, &cfg);
            walls.push(p.wall_cycles());
        }
        for pair in walls.windows(2) {
            assert!(pair[1] < pair[0], "wall cycles not monotone: {walls:?}");
        }
    }

    fn test_frames(n: usize) -> Vec<GrayImage> {
        (0..n)
            .map(|f| {
                GrayImage::from_fn(64, 48, |x, y| {
                    ((x * 31 + y * 17 + f as u32 * 101).wrapping_mul(2654435761) >> 11) as u8
                })
            })
            .collect()
    }

    #[test]
    fn pipelined_edge_detect_matches_per_frame() {
        let frames = test_frames(3);
        let cfg = EdgeConfig::default();
        let mut single = PimMachine::new(ArrayConfig::qvga_banks(6));
        let want: Vec<_> = frames
            .iter()
            .map(|img| ir::edge_detect(&mut single, img, &cfg, LowerLevel::Opt))
            .collect();
        for n in [1, 2, 4] {
            let mut p = PimMachineBuilder::new(ArrayConfig::qvga_banks(6))
                .dma(pimvo_pim::DmaConfig::default())
                .build_pool(n);
            let got = edge_detect_pipelined(&mut p, &frames, &cfg);
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.lpf, w.lpf, "lpf mismatch at n={n} frame {f}");
                assert_eq!(g.hpf, w.hpf, "hpf mismatch at n={n} frame {f}");
                assert_eq!(g.mask, w.mask, "mask mismatch at n={n} frame {f}");
            }
        }
    }

    #[test]
    fn pipelined_overlap_hides_transfer_cycles() {
        let frames = test_frames(4);
        let cfg = EdgeConfig::default();

        // synchronous arm: no channels, every transfer serializes
        let mut sync = pool(2);
        for img in &frames {
            let _ = edge_detect(&mut sync, img, &cfg);
        }
        sync.dma_settle(); // absorb trailing host reads into the wall

        // overlap arm: channels on, next frame prefetched behind compute
        let mut dma = PimMachineBuilder::new(ArrayConfig::qvga_banks(6))
            .dma(pimvo_pim::DmaConfig::default())
            .build_pool(2);
        let _ = edge_detect_pipelined(&mut dma, &frames, &cfg);

        // identical compute work, strictly fewer wall cycles
        assert_eq!(dma.merged_stats().cycles, sync.merged_stats().cycles);
        assert!(
            dma.wall_cycles() < sync.wall_cycles(),
            "overlap did not pay: dma {} >= sync {}",
            dma.wall_cycles(),
            sync.wall_cycles()
        );
    }

    #[test]
    fn pooled_downsample_matches_single_array() {
        let img = test_image();
        let mut single = PimMachine::new(ArrayConfig::qvga_banks(6));
        let want = ir::downsample2x(&mut single, &img, LowerLevel::Opt);
        for n in [1, 2, 5] {
            let mut p = pool(n);
            assert_eq!(downsample2x(&mut p, &img), want, "n={n}");
        }
    }

    #[test]
    fn pool_larger_than_image_degrades_gracefully() {
        // 10 rows over 16 arrays: 6 empty strips
        let img = GrayImage::from_fn(32, 10, |x, y| (x ^ y) as u8);
        let mut single = PimMachine::new(ArrayConfig::qvga_banks(6));
        let want = ir::lpf(&mut single, &img, LowerLevel::Opt);
        let mut p = pool(16);
        assert_eq!(lpf(&mut p, &img), want);
    }
}

//! The edge-detection front end: [`EdgeKernels`] runs the [`crate::ir`]
//! kernel programs on a [`PimArrayPool`], each array computing a
//! contiguous strip of image rows, submitted through
//! [`PimArrayPool::submit_strips`] (one program per array, every array
//! running its own strip). It is the only way an edge kernel runs: one
//! machine is a pool of one, and the lowering level (plus an optional
//! explicit pass list) sits on the [`EdgeKernels`] value.
//!
//! # Sharding model
//!
//! Rows keep their **global** indices inside every array (an image row
//! `y` lives at `region_base + y` on whichever array owns it), so a
//! shard executes exactly the instruction sequence a pool of one would
//! for those rows. Neighbour data crosses strip borders in two
//! host-mediated ways:
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
//! to a pool of one at the same level, as are the produced maps —
//! property tests in `crates/kernels/tests/` enforce this. Wall cycles
//! shrink by the strip factor, paying one
//! [`pimvo_pim::CostModel::pool_sync_cycles`] per barrier.
//!
//! # Compile once, execute many
//!
//! The four strip program sets of a frame (LPF pass 1 and 2, HPF, NMS)
//! depend only on the pool length, the array geometry, the image size
//! and the ghost-mask row — never on the pixels. [`EdgeKernels`]
//! resolves them once per such key and holds the `Arc`s, so a warm
//! frame builds, hashes and looks up no program.

use crate::ir::{
    downsample_program, hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program,
    scratch_pool,
};
use crate::pim_util::{ghost_mask, ghost_mask_row, load_image_rows, partition_rows, Regions};
use crate::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo_pim::{
    lower_passes, ArrayConfig, LaneWidth, LowerLevel, LoweredProgram, Pass, PimArrayPool,
    PimProgram, Signedness,
};
use std::sync::Arc;

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

/// The four lowered strip program sets of one key, one program per
/// pool array in each, and the strips they cover.
#[derive(Debug, Clone)]
struct EdgeSet {
    key: EdgeKey,
    strips: Vec<(i64, i64)>,
    lpf_pass1: Vec<Arc<LoweredProgram>>,
    lpf_pass2: Vec<Arc<LoweredProgram>>,
    hpf: Vec<Arc<LoweredProgram>>,
    nms: Vec<Arc<LoweredProgram>>,
}

/// The array phases of the pipeline, in order; a phase's discriminant
/// indexes [`PhaseMaps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Lpf,
    Hpf,
    Nms,
}

/// The output map of each phase a run executed, indexed by [`Phase`].
type PhaseMaps = [Option<GrayImage>; 3];

impl Phase {
    /// The region the phase reads.
    fn src(self, r: &Regions) -> usize {
        match self {
            Phase::Lpf => r.input,
            Phase::Hpf => r.aux2,
            Phase::Nms => r.aux3,
        }
    }

    /// The region the phase writes.
    fn dst(self, r: &Regions) -> usize {
        match self {
            Phase::Lpf => r.aux2,
            Phase::Hpf => r.aux3,
            Phase::Nms => r.out,
        }
    }
}

/// Edge-detection kernels lowered at one level and held across frames,
/// the edge counterpart of the pose stage's held kernels.
///
/// The lowering spec — a [`LowerLevel`] plus an optional explicit pass
/// list — is fixed at construction. Without a pass list the programs
/// resolve through the pool's [`pimvo_pim::LoweredCache`], which stays
/// the only lowering authority; with one they are lowered uncached (the
/// cache key does not cover passes, and a partial lowering must never
/// be served to regular callers). [`LowerLevel::MultiReg`]`(n)` needs
/// arrays built with at least `n` Tmp registers
/// ([`pimvo_pim::PimMachineBuilder::tmp_regs`]).
///
/// Holds one resolved set of the four strip program sets per image
/// size (pyramid levels differ in size) and checks its key — pool
/// length, array geometry, image width and height, ghost-mask row — on
/// every call: a caller whose pool was swapped for another geometry or
/// length (as a serving fleet does per frame) gets its set
/// re-resolved, never a stale one. A warm call makes no cache lookup,
/// and its host row transfers go through one lane buffer held here, so
/// on a pool of one it allocates nothing but the maps it returns.
///
/// ```
/// use pimvo_kernels::pim_pool::EdgeKernels;
/// use pimvo_kernels::{scalar, EdgeConfig, GrayImage};
/// use pimvo_pim::{ArrayConfig, LowerLevel, PimMachineBuilder};
///
/// let builder = PimMachineBuilder::new(ArrayConfig::qvga_banks(6));
/// let img = GrayImage::from_fn(32, 16, |x, y| ((x * 8) ^ (y * 8)) as u8);
/// let cfg = EdgeConfig::default();
/// let maps = EdgeKernels::new().edge_detect(&mut builder.build_pool(2), &img, &cfg);
/// assert_eq!(maps, scalar::edge_detect(&img, &cfg));
/// // the naive mapping on one machine: same maps, more cycles
/// let mut one = builder.build_pool(1);
/// let naive = EdgeKernels::at(LowerLevel::Naive).edge_detect(&mut one, &img, &cfg);
/// assert_eq!(naive, maps);
/// ```
#[derive(Debug, Clone)]
pub struct EdgeKernels {
    level: LowerLevel,
    passes: Option<Vec<Pass>>,
    sets: Vec<EdgeSet>,
    /// Lane buffer of the host row reads, reused across calls.
    lanes: Vec<i64>,
}

impl Default for EdgeKernels {
    fn default() -> Self {
        Self::at(LowerLevel::Opt)
    }
}

impl EdgeKernels {
    /// Kernels at the paper's optimized mapping ([`LowerLevel::Opt`]);
    /// sets are resolved on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kernels lowered at `level` through its full
    /// [`pimvo_pim::pass_pipeline`].
    pub fn at(level: LowerLevel) -> Self {
        EdgeKernels {
            level,
            passes: None,
            sets: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// Kernels lowered at `level` with an explicit pass list in place
    /// of its full pipeline. Every prefix of the pipeline is
    /// value-preserving — only cost may change — which
    /// `crates/kernels/tests/pass_prefix_proptests.rs` pins against
    /// [`crate::scalar`].
    pub fn with_passes(level: LowerLevel, passes: &[Pass]) -> Self {
        EdgeKernels {
            passes: Some(passes.to_vec()),
            ..Self::at(level)
        }
    }

    /// Lowers one strip program per pool array with a builder closure,
    /// through the pool's cache or, given a pass list, uncached.
    ///
    /// # Panics
    ///
    /// Panics if a [`LowerLevel::MultiReg`] level asks for more Tmp
    /// registers than the pool's arrays have.
    fn lower(
        &self,
        pool: &PimArrayPool,
        r: &Regions,
        strips: &[(i64, i64)],
        build: &dyn Fn(i64, i64) -> PimProgram,
    ) -> Vec<Arc<LoweredProgram>> {
        let (level, config) = (self.level, pool.array(0).config());
        if let LowerLevel::MultiReg(n) = level {
            let regs = pool.array(0).tmp_reg_count();
            assert!(
                regs >= n,
                "multi-register lowering needs {n} Tmp registers, the arrays have {regs} \
                 (build them with tmp_regs)"
            );
        }
        let scratch = scratch_pool(r);
        strips
            .iter()
            .map(|&(y0, y1)| {
                let prog = build(y0, y1);
                match &self.passes {
                    None => pool
                        .lowered_cache()
                        .get_or_lower(&prog, level, &scratch, config),
                    Some(passes) => lower_passes(&prog, level, &scratch, passes).map(Arc::new),
                }
                .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", prog.name()))
            })
            .collect()
    }

    /// The index of the set for a `width` x `height` frame on `pool`:
    /// the held one if its key still matches, else a fresh resolution
    /// replacing the held set of that size.
    fn resolve(&mut self, pool: &PimArrayPool, width: u32, height: u32) -> usize {
        let key = EdgeKey::of(pool, width, height);
        let same_size = |s: &EdgeSet| (s.key.width, s.key.height) == (width, height);
        match self.sets.iter().position(same_size) {
            Some(i) if self.sets[i].key == key => i,
            Some(i) => {
                self.sets[i] = self.build_set(pool, key);
                i
            }
            None => {
                let set = self.build_set(pool, key);
                self.sets.push(set);
                self.sets.len() - 1
            }
        }
    }

    /// Builds and lowers the strip programs of `key`.
    fn build_set(&self, pool: &PimArrayPool, key: EdgeKey) -> EdgeSet {
        let r = Regions::for_machine(pool.array(0), key.height);
        let strips = partition_rows(key.height, key.arrays);
        let (h, mask) = (key.height, key.mask);
        let lower = |build: &dyn Fn(i64, i64) -> PimProgram| self.lower(pool, &r, &strips, build);
        EdgeSet {
            lpf_pass1: lower(&|y0, y1| lpf_pass1_program(&r, r.input, h, y0, y1)),
            lpf_pass2: lower(&|y0, y1| lpf_pass2_program(&r, r.aux2, h, mask, y0, y1)),
            hpf: lower(&|y0, y1| hpf_program(&r, r.aux2, r.aux3, h, mask, y0, y1)),
            nms: lower(&|y0, y1| nms_program(&r, r.aux3, r.out, h, mask, y0, y1)),
            key,
            strips,
        }
    }

    /// Runs `phases` of the pipeline on the held set for `src`'s size.
    fn run(
        &mut self,
        pool: &mut PimArrayPool,
        src: &GrayImage,
        phases: &[Phase],
        cfg: Option<&EdgeConfig>,
    ) -> PhaseMaps {
        let i = self.resolve(pool, src.width(), src.height());
        run_phases(pool, &self.sets[i], &mut self.lanes, src, phases, cfg)
    }

    /// Runs the single `phase` and returns its map.
    fn run_one(
        &mut self,
        pool: &mut PimArrayPool,
        src: &GrayImage,
        phase: Phase,
        cfg: Option<&EdgeConfig>,
    ) -> GrayImage {
        let mut maps = self.run(pool, src, &[phase], cfg);
        maps[phase as usize].take().expect("the phase ran")
    }

    /// Runs the full pipeline (LPF → HPF → NMS) sharded across the
    /// pool's arrays; the maps are bit-identical to
    /// [`crate::scalar::edge_detect`].
    ///
    /// # Panics
    ///
    /// Panics if the pool's arrays have fewer than 6 banks of 256 rows,
    /// or fewer Tmp registers than a [`LowerLevel::MultiReg`] level
    /// needs.
    pub fn edge_detect(
        &mut self,
        pool: &mut PimArrayPool,
        img: &GrayImage,
        cfg: &EdgeConfig,
    ) -> EdgeMaps {
        into_maps(self.run(pool, img, &PIPELINE, Some(cfg)))
    }

    /// Runs only the LPF.
    ///
    /// # Panics
    ///
    /// As [`EdgeKernels::edge_detect`].
    pub fn lpf(&mut self, pool: &mut PimArrayPool, img: &GrayImage) -> GrayImage {
        self.run_one(pool, img, Phase::Lpf, None)
    }

    /// Runs only the HPF on a low-pass map.
    ///
    /// # Panics
    ///
    /// As [`EdgeKernels::edge_detect`].
    pub fn hpf(&mut self, pool: &mut PimArrayPool, lpf_map: &GrayImage) -> GrayImage {
        self.run_one(pool, lpf_map, Phase::Hpf, None)
    }

    /// Runs only the NMS on a high-pass map.
    ///
    /// # Panics
    ///
    /// As [`EdgeKernels::edge_detect`].
    pub fn nms(
        &mut self,
        pool: &mut PimArrayPool,
        hpf_map: &GrayImage,
        cfg: &EdgeConfig,
    ) -> GrayImage {
        self.run_one(pool, hpf_map, Phase::Nms, Some(cfg))
    }

    /// Downsamples by 2; the lane decimation is a host-side repack.
    /// Output rows partition trivially — each reads its own input row
    /// pair, so no halos or exchanges are needed. Bit-identical to
    /// [`crate::scalar::downsample2x`]. The programs are resolved per
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than 2x2, or as
    /// [`EdgeKernels::edge_detect`].
    pub fn downsample2x(&mut self, pool: &mut PimArrayPool, img: &GrayImage) -> GrayImage {
        let r = Regions::for_machine(pool.array(0), img.height());
        let (w, h) = (img.width() / 2, img.height() / 2);
        assert!(w > 0 && h > 0, "image too small to downsample");
        let strips = partition_rows(h, pool.len());
        for (i, &(oy0, oy1)) in strips.iter().enumerate() {
            let lo = 2 * oy0 as u32;
            let hi = (2 * oy1 as u32).min(img.height());
            if lo < hi {
                load_image_rows(pool.array_mut(i), r.input, img, lo, hi);
            }
        }
        let programs = self.lower(pool, &r, &strips, &|oy0, oy1| {
            downsample_program(&r, oy0 as u32, oy1 as u32)
        });
        submit(pool, "downsample", &programs);
        let mut out = GrayImage::new(w, h);
        for (i, &(oy0, oy1)) in strips.iter().enumerate() {
            let m = pool.array_mut(i);
            m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
            for oy in oy0..oy1 {
                m.host_read_lanes_into(r.aux1 + oy as usize, &mut self.lanes)
                    .expect("host I/O row in range");
                let even = self.lanes.iter().step_by(2);
                for (px, &v) in out.row_mut(oy as u32).iter_mut().zip(even) {
                    *px = v as u8;
                }
            }
        }
        out
    }
}

/// Every phase, in pipeline order.
const PIPELINE: [Phase; 3] = [Phase::Lpf, Phase::Hpf, Phase::Nms];

/// The three maps of a full pipeline run.
fn into_maps(maps: PhaseMaps) -> EdgeMaps {
    let [lpf, hpf, mask] = maps.map(|m| m.expect("one map per phase"));
    EdgeMaps { lpf, hpf, mask }
}

/// Runs one strip program per array, panicking on a program error (the
/// builders are hazard-free by construction).
fn submit(pool: &mut PimArrayPool, label: &str, programs: &[Arc<LoweredProgram>]) {
    pool.submit_strips(label, programs)
        .unwrap_or_else(|e| panic!("{label} programs: {e:?}"));
}

/// Runs the consecutive `phases` with the programs of `set` on `src`,
/// the map the first phase reads (the camera image for LPF), and
/// returns each phase's output map. `cfg` carries the NMS thresholds
/// and border and must be given when `phases` includes NMS. `lanes` is
/// the lane buffer of every host row read.
fn run_phases(
    pool: &mut PimArrayPool,
    set: &EdgeSet,
    lanes: &mut Vec<i64>,
    src: &GrayImage,
    phases: &[Phase],
    cfg: Option<&EdgeConfig>,
) -> PhaseMaps {
    let r = Regions::for_machine(pool.array(0), src.height());
    let (w, h) = (src.width(), src.height());
    let strips = &set.strips[..];
    let first = phases[0];

    // host setup per array: padding/threshold rows, ghost mask, and the
    // first phase's input strip plus its halo rows (LPF pass 1 reads y
    // and y + 1, the 3-row stencils y - 1 ..= y + 1)
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        m.host_broadcast(r.zero_row(), 0)
            .expect("host I/O row in range");
        if let Some(cfg) = cfg {
            m.host_broadcast(r.th(0), cfg.th1 as i64)
                .expect("host I/O row in range");
            m.host_broadcast(r.th(1), cfg.th2 as i64)
                .expect("host I/O row in range");
        }
        ghost_mask(m, &r, w as usize);
        if y0 < y1 {
            let lo = if first == Phase::Lpf {
                y0
            } else {
                (y0 - 1).max(0)
            };
            load_image_rows(m, first.src(&r), src, lo as u32, (y1 as u32 + 1).min(h));
        }
    }

    let mut maps = PhaseMaps::default();
    for (k, &phase) in phases.iter().enumerate() {
        if k > 0 {
            exchange_boundary_rows(pool, strips, lanes, phase.src(&r), h, true, true);
        }
        match phase {
            Phase::Lpf => {
                submit(pool, "lpf_pass1", &set.lpf_pass1);
                exchange_boundary_rows(pool, strips, lanes, r.aux1, h, true, false);
                submit(pool, "lpf_pass2", &set.lpf_pass2);
            }
            Phase::Hpf => submit(pool, "hpf", &set.hpf),
            Phase::Nms => submit(pool, "nms", &set.nms),
        }
        let mut map = collect_image(pool, strips, lanes, phase.dst(&r), w, h);
        if phase == Phase::Nms {
            map.clear_border(cfg.expect("NMS needs its thresholds").border);
        }
        maps[phase as usize] = Some(map);
    }
    maps
}

/// Copies strip-edge rows of the map at `base` between neighbouring
/// arrays: with `above`, each array receives row `y0 - 1` from its
/// predecessor; with `below`, row `y1` from its successor. Pure host
/// I/O — the transferred rows were computed exactly once, so compute
/// statistics stay conserved.
fn exchange_boundary_rows(
    pool: &mut PimArrayPool,
    strips: &[(i64, i64)],
    lanes: &mut Vec<i64>,
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
        let up = (above && y0 > 0).then_some(y0 - 1);
        let down = (below && (y1 as u32) < h).then_some(y1);
        for y in up.into_iter().chain(down) {
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
            src.host_read_lanes_into(row, lanes)
                .expect("host I/O row in range");
            pool.array_mut(i)
                .host_write_lanes(row, lanes)
                .expect("host I/O row in range");
        }
    }
}

/// Assembles the output map by host-reading each strip from the array
/// that computed it, row by row through the `lanes` buffer.
fn collect_image(
    pool: &mut PimArrayPool,
    strips: &[(i64, i64)],
    lanes: &mut Vec<i64>,
    base: usize,
    width: u32,
    h: u32,
) -> GrayImage {
    let mut out = GrayImage::new(width, h);
    for (i, &(y0, y1)) in strips.iter().enumerate() {
        let m = pool.array_mut(i);
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
        for y in y0..y1 {
            m.host_read_lanes_into(base + y as usize, lanes)
                .expect("host I/O row in range");
            for (px, &v) in out.row_mut(y as u32).iter_mut().zip(lanes.iter()) {
                *px = v as u8;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{lpf_pass1_program, REGS_REQUIRED};
    use crate::scalar;
    use pimvo_pim::{ArrayConfig, DmaConfig, PimMachineBuilder};

    fn builder() -> PimMachineBuilder {
        PimMachineBuilder::new(ArrayConfig::qvga_banks(6))
    }

    fn pool(n: usize) -> PimArrayPool {
        builder().build_pool(n)
    }

    fn test_image() -> GrayImage {
        GrayImage::from_fn(64, 48, |x, y| {
            ((x * 31 + y * 17).wrapping_mul(2654435761) >> 11) as u8
        })
    }

    #[test]
    fn level_cost_ordering_holds() {
        let img = test_image();
        let cfg = EdgeConfig::default();
        let levels = [
            LowerLevel::Naive,
            LowerLevel::Opt,
            LowerLevel::MultiReg(REGS_REQUIRED),
        ];
        let (mut cycles, mut writes) = (Vec::new(), Vec::new());
        for level in levels {
            let mut p = match level {
                LowerLevel::MultiReg(n) => builder().tmp_regs(n),
                _ => builder(),
            }
            .build_pool(1);
            let _ = EdgeKernels::at(level).edge_detect(&mut p, &img, &cfg);
            cycles.push(p.merged_stats().cycles);
            writes.push(p.merged_stats().sram_writes);
        }
        assert!(cycles[0] > cycles[1], "naive {cycles:?}");
        assert!(cycles[2] <= cycles[1], "multireg {cycles:?}");
        assert!(writes[2] < writes[1] / 2, "multireg writes {writes:?}");
    }

    #[test]
    fn program_listing_is_stable() {
        let r = Regions::for_machine(pool(1).array(0), 4);
        let text = lpf_pass1_program(&r, r.input, 4, 0, 1).to_string();
        assert!(text.starts_with("program lpf_pass1:\n"), "{text}");
        assert!(text.contains("avg"), "{text}");
        assert!(text.contains("store"), "{text}");
    }

    #[test]
    #[should_panic(expected = "Tmp registers")]
    fn multireg_level_rejects_single_register_arrays() {
        let _ =
            EdgeKernels::at(LowerLevel::MultiReg(REGS_REQUIRED)).hpf(&mut pool(1), &test_image());
    }

    #[test]
    fn pooled_wall_cycles_shrink_monotonically() {
        let img = GrayImage::from_fn(64, 48, |x, y| (x * 3 + y * 5) as u8);
        let cfg = EdgeConfig::default();
        let mut walls = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let mut p = pool(n);
            let _ = EdgeKernels::new().edge_detect(&mut p, &img, &cfg);
            walls.push(p.wall_cycles());
        }
        for pair in walls.windows(2) {
            assert!(pair[1] < pair[0], "wall cycles not monotone: {walls:?}");
        }
    }

    #[test]
    fn edge_detect_on_dma_pools_matches_scalar() {
        let cfg = EdgeConfig::default();
        for n in [1, 2, 4] {
            let mut p = builder().dma(DmaConfig::default()).build_pool(n);
            let mut kernels = EdgeKernels::new();
            for f in 0..3u32 {
                let img = GrayImage::from_fn(64, 48, |x, y| {
                    ((x * 31 + y * 17 + f * 101).wrapping_mul(2654435761) >> 11) as u8
                });
                let got = kernels.edge_detect(&mut p, &img, &cfg);
                assert_eq!(got, scalar::edge_detect(&img, &cfg), "n={n} frame {f}");
            }
        }
    }

    #[test]
    fn pool_larger_than_image_degrades_gracefully() {
        // 10 rows over 16 arrays: 6 empty strips
        let img = GrayImage::from_fn(32, 10, |x, y| (x ^ y) as u8);
        let mut p = pool(16);
        assert_eq!(EdgeKernels::new().lpf(&mut p, &img), scalar::lpf(&img));
    }
}

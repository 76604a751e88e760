//! Tracker backends: the MCU baseline (float math, PicoVO-class cost
//! model) and the PIM accelerator (quantized math, cycle/energy-accurate
//! simulation).

use crate::feature::Feature;
use crate::hessian::{JacobianColumns, QNormalEquations};
use crate::jacobian::jacobian_q;
use crate::keyframe::Keyframe;
use crate::pim_exec::{self, BatchOptions, BatchRunner, BATCH};
use crate::quant::{Interp, QCamera, QFeature, QKeyframe, QPose};
use crate::warp::project_q;
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::pim_util::Regions;
use pimvo_kernels::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo_mcu::{CostCounter, FloatFeature};
use pimvo_pim::{ArrayConfig, EnergyBreakdown, ExecStats, PimArrayPool, PimError, PimMachine};
use pimvo_telemetry::Telemetry;
use pimvo_vomath::{NormalEquations, Pinhole, SE3};

/// Which backend drives the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// PicoVO-class baseline: `f64` math, MCU cost model.
    Float,
    /// Quantized pipeline on the simulated SRAM-PIM.
    Pim,
}

/// Cost summary a backend accumulates while tracking.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Cycles spent in edge detection.
    pub edge_cycles: u64,
    /// Cycles spent in pose-estimation linearizations.
    pub lm_cycles: u64,
    /// Number of linearizations performed.
    pub lm_iterations: u64,
    /// Frames processed.
    pub frames: u64,
    /// Total energy, mJ.
    pub energy_mj: f64,
    /// PIM execution statistics (PIM backend only).
    pub pim: Option<ExecStats>,
}

impl BackendStats {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.edge_cycles + self.lm_cycles
    }

    /// Energy decomposition by PIM component, if this is a PIM backend.
    pub fn pim_energy(&self, cost: &pimvo_pim::CostModel) -> Option<EnergyBreakdown> {
        self.pim.as_ref().map(|s| s.energy(cost))
    }
}

/// A tracker backend: edge detection plus one LM linearization.
pub trait TrackerBackend {
    /// Detects edges on the input frame, charging the backend's cost
    /// model.
    fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps;

    /// Edge detection with the NMS refinement pass skipped — the
    /// deadline supervisor's [`crate::DegradeRung::SkipNmsRefinement`]
    /// rung. The mask is the thresholded HPF response (`H > th2`, border
    /// cleared): a superset of the refined mask at LPF + HPF cost only.
    /// The default falls back to full detection, so backends without a
    /// cheap path stay correct.
    fn detect_edges_fast(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        self.detect_edges(img, cfg)
    }

    /// Downsamples an image by 2 (pyramid construction), charging the
    /// backend's cost model.
    fn downsample(&mut self, img: &GrayImage) -> GrayImage;

    /// Evaluates the normal equations of the warp residuals at `pose`
    /// (current-frame → keyframe).
    fn linearize(
        &mut self,
        features: &[Feature],
        keyframe: &Keyframe,
        cam: &Pinhole,
        pose: &SE3,
    ) -> NormalEquations;

    /// Cost statistics so far.
    fn stats(&self) -> BackendStats;

    /// Resets the cost statistics.
    fn reset_stats(&mut self);

    /// Fault/quarantine health report of the backing array pool, for
    /// backends that have one (`None` on the MCU baseline).
    fn pool_health(&self) -> Option<pimvo_pim::PoolHealth> {
        None
    }

    /// Exclusive access to the backing array pool for backends that
    /// have one (`None` on the MCU baseline). Checkpoint restore uses
    /// it to apply the snapshot's pool state
    /// ([`PimArrayPool::restore`]).
    fn pool_mut(&mut self) -> Option<&mut PimArrayPool> {
        None
    }

    /// Attaches a telemetry handle. Backends with an array pool forward
    /// it so pool phases record spans and recovery events; the default
    /// implementation (MCU baseline) ignores it.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Publishes backend health as telemetry gauges (pool health for
    /// PIM backends). Default: no-op.
    fn export_health_telemetry(&self) {}
}

/// Thresholded-HPF edge mask (`H > th2`, border cleared) — the skip-NMS
/// degraded mask both backends share.
fn threshold_hpf_mask(hpf: &GrayImage, cfg: &EdgeConfig) -> GrayImage {
    let data = hpf
        .pixels()
        .iter()
        .map(|&p| if p > cfg.th2 { 255 } else { 0 })
        .collect();
    let mut mask = GrayImage::from_raw(hpf.width(), hpf.height(), data);
    mask.clear_border(cfg.border);
    mask
}

/// The PIM backend's fast path: the quantized normal equations of the
/// warp residuals of `features` at `pose`, with the values the machine
/// execution of the pose programs produces (property-tested in
/// [`crate::pim_exec`]).
///
/// Each feature is warped from its Q4.12 form [`Feature::q`], its
/// residual and gradients are looked up in `kf` and its Jacobian row is
/// formed; the rows of each [`BATCH`]-feature chunk are staged in a
/// stack buffer in column layout and summed under a no-clamp proof,
/// which gives the result of [`QNormalEquations::accumulate`] on each
/// row in order.
pub fn linearize_q(
    features: &[Feature],
    pose: &QPose,
    kf: &QKeyframe,
    cam: &QCamera,
    interp: Interp,
) -> QNormalEquations {
    let mut eq = QNormalEquations::zero();
    let mut rows = JacobianColumns::new();
    for chunk in features.chunks(BATCH) {
        rows.clear();
        for f in chunk {
            let Some(w) = project_q(&f.q, pose, cam) else {
                continue;
            };
            let Some((r, gu, gv)) = kf.lookup_with(w.u_raw, w.v_raw, interp) else {
                continue;
            };
            // lossless narrowing: `jacobian_q` saturates to Q14.2's 16
            // bits, and the residual lies between the `i16` table
            // entries it interpolates
            let j = jacobian_q(w.qx, w.qy, w.iz_real, gu.into(), gv.into());
            rows.push(j.map(|v| v as i16), r as i16);
        }
        eq.accumulate_columns(&rows);
    }
    eq
}

/// The PicoVO-class baseline backend.
#[derive(Debug, Default)]
pub struct FloatBackend {
    counter: CostCounter,
    edge_cycles: u64,
    lm_cycles: u64,
    lm_iterations: u64,
    frames: u64,
}

impl FloatBackend {
    /// Creates the baseline backend with the Cortex-M7 cost table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrackerBackend for FloatBackend {
    fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let before = self.counter.cycles();
        let maps = pimvo_mcu::edge_detect_counted(img, cfg, &mut self.counter);
        self.edge_cycles += self.counter.cycles() - before;
        self.frames += 1;
        maps
    }

    fn detect_edges_fast(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let before = self.counter.cycles();
        let lpf_map = pimvo_kernels::scalar::lpf(img);
        let hpf_map = pimvo_kernels::scalar::hpf(&lpf_map);
        let mask = threshold_hpf_mask(&hpf_map, cfg);
        // the LPF and HPF charges mirror `pimvo_mcu::edge_detect_counted`;
        // NMS is replaced by a 1-load compare/select threshold pass
        let groups = ((img.width() as u64) / 4) * (img.height() as u64);
        for _pass in 0..2 {
            self.counter.load(3 * groups);
            self.counter.alu(2 * groups);
            self.counter.store(groups);
            self.counter.branch(groups / 4);
        }
        self.counter.load(6 * groups);
        self.counter.alu((4 * 2 + 3) * groups);
        self.counter.store(groups);
        self.counter.branch(groups / 4);
        self.counter.load(groups);
        self.counter.alu(2 * groups);
        self.counter.store(groups);
        self.counter.branch(groups / 4);
        self.counter.call(3 * img.height() as u64);
        self.edge_cycles += self.counter.cycles() - before;
        self.frames += 1;
        EdgeMaps {
            lpf: lpf_map,
            hpf: hpf_map,
            mask,
        }
    }

    fn downsample(&mut self, img: &GrayImage) -> GrayImage {
        // per 4-pixel SIMD group: 2 row loads, 2 averaging ops, 1 store
        let before = self.counter.cycles();
        let groups = (img.width() as u64 / 4) * (img.height() as u64 / 2);
        self.counter.load(2 * groups);
        self.counter.alu(2 * groups);
        self.counter.store(groups / 2);
        self.edge_cycles += self.counter.cycles() - before;
        pimvo_kernels::scalar::downsample2x(img)
    }

    fn linearize(
        &mut self,
        features: &[Feature],
        keyframe: &Keyframe,
        cam: &Pinhole,
        pose: &SE3,
    ) -> NormalEquations {
        let before = self.counter.cycles();
        let floats: Vec<FloatFeature> = features
            .iter()
            .map(|f| FloatFeature {
                a: f.a,
                b: f.b,
                c: f.c,
            })
            .collect();
        let eq =
            pimvo_mcu::linearize_counted(&floats, &keyframe.tables, cam, pose, &mut self.counter);
        self.lm_cycles += self.counter.cycles() - before;
        self.lm_iterations += 1;
        eq
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            edge_cycles: self.edge_cycles,
            lm_cycles: self.lm_cycles,
            lm_iterations: self.lm_iterations,
            frames: self.frames,
            energy_mj: self.counter.energy_mj(),
            pim: None,
        }
    }

    fn reset_stats(&mut self) {
        self.counter.reset();
        self.edge_cycles = 0;
        self.lm_cycles = 0;
        self.lm_iterations = 0;
        self.frames = 0;
    }
}

/// The PIM-accelerated backend.
///
/// Edge detection executes on the simulated array pool for real:
/// [`EdgeKernels`] shards image strips across the arrays and resolves
/// the strip programs once per pool geometry and image size. Pose
/// estimation evaluates the quantized pipeline with the fast scalar
/// path ([`linearize_q`], bit-identical to the machine execution —
/// property-tested in [`crate::pim_exec`]) and charges cycles/energy
/// at the runner's price for one batch ([`BatchRunner::batch_cost`],
/// at its mapping) times the batch count, which is exact because the
/// instruction sequence is data-independent. With a multi-array pool
/// the wall-clock charge per linearization drops to
/// `ceil(batches / arrays)` barrier sections of one batch cost plus the
/// inter-array sync overhead, while the summed energy stays that of all
/// batches.
pub struct PimBackend {
    runner: BatchRunner,
    /// Edge strip programs, resolved once per pool geometry and image
    /// size.
    edge_kernels: EdgeKernels,
    /// The runner's per-batch price, taken on the first fast-path
    /// linearization.
    batch_price: Option<ExecStats>,
    edge_cycles: u64,
    lm_cycles: u64,
    lm_iterations: u64,
    frames: u64,
    /// Fast-path stats: the per-batch price times each call's batch
    /// count.
    scaled: ExecStats,
}

impl PimBackend {
    /// Creates the PIM backend with a single 6-bank QVGA array.
    pub fn new() -> Self {
        Self::with_options(BatchOptions::default())
    }

    /// Creates the backend from full [`BatchOptions`]: the pool size
    /// (edge-detection strips and LM feature batches are sharded across
    /// its arrays), the residual interpolation, the mapping and whether
    /// LM batches run on the machine.
    ///
    /// # Panics
    ///
    /// Panics if `options.pool` is zero.
    pub fn with_options(options: BatchOptions) -> Self {
        Self::with_runner(BatchRunner::new(options))
    }

    /// Creates the backend with arrays stamped from an explicit machine
    /// builder — the way to attach a [`pimvo_pim::FaultModel`] /
    /// [`pimvo_pim::Protection`] configuration to every array.
    ///
    /// # Panics
    ///
    /// Panics if `options.pool` is zero, or if the builder's geometry
    /// lacks rows the backend works in ([`PimBackend::check_geometry`]):
    /// it fails here rather than on its first frame.
    pub fn from_builder(builder: &pimvo_pim::PimMachineBuilder, options: BatchOptions) -> Self {
        let runner = BatchRunner::from_builder(builder, options);
        if let Err(e) = Self::check_geometry(runner.pool().array(0).config()) {
            panic!("PimBackend::from_builder: array geometry too small: {e}");
        }
        Self::with_runner(runner)
    }

    fn with_runner(runner: BatchRunner) -> Self {
        PimBackend {
            runner,
            edge_kernels: EdgeKernels::new(),
            batch_price: None,
            edge_cycles: 0,
            lm_cycles: 0,
            lm_iterations: 0,
            frames: 0,
            scaled: ExecStats::new(),
        }
    }

    /// Checks that arrays of geometry `config` hold every row the
    /// backend works in: the six 256-row edge-detection banks and the
    /// pose stage's [`pim_exec::POSE_ROWS`] staging rows from
    /// [`pim_exec::POSE_BASE`].
    ///
    /// # Errors
    ///
    /// [`PimError::RowOutOfRange`] naming the last row of the edge
    /// banks or of the staging rows, whichever lies beyond the
    /// geometry first.
    pub fn check_geometry(config: &ArrayConfig) -> Result<(), PimError> {
        let edge_rows = 6 * Regions::BANK;
        if config.rows < edge_rows {
            return Err(PimError::RowOutOfRange {
                row: edge_rows - 1,
                rows: config.rows,
            });
        }
        pim_exec::check_pose_rows(config)
    }

    /// Access to the first underlying machine (stats inspection).
    pub fn machine(&self) -> &PimMachine {
        self.runner.pool().array(0)
    }

    /// Access to the underlying array pool.
    pub fn pool(&self) -> &PimArrayPool {
        self.runner.pool()
    }

    /// Exclusive access to the underlying array pool (fault status
    /// reset, scrub configuration, manual quarantine).
    pub fn pool_mut(&mut self) -> &mut PimArrayPool {
        self.runner.pool_mut()
    }
}

impl Default for PimBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl TrackerBackend for PimBackend {
    fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let before = self.runner.pool().wall_cycles();
        let maps = self
            .edge_kernels
            .edge_detect(self.runner.pool_mut(), img, cfg);
        self.edge_cycles += self.runner.pool().wall_cycles() - before;
        self.frames += 1;
        maps
    }

    fn detect_edges_fast(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let before = self.runner.pool().wall_cycles();
        let lpf_map = self.edge_kernels.lpf(self.runner.pool_mut(), img);
        let hpf_map = self.edge_kernels.hpf(self.runner.pool_mut(), &lpf_map);
        self.edge_cycles += self.runner.pool().wall_cycles() - before;
        self.frames += 1;
        // the threshold runs host-side (a byte compare is not a PIM op)
        // and is negligible next to the array phases; it charges nothing
        let mask = threshold_hpf_mask(&hpf_map, cfg);
        EdgeMaps {
            lpf: lpf_map,
            hpf: hpf_map,
            mask,
        }
    }

    fn downsample(&mut self, img: &GrayImage) -> GrayImage {
        let before = self.runner.pool().wall_cycles();
        let out = self.edge_kernels.downsample2x(self.runner.pool_mut(), img);
        self.edge_cycles += self.runner.pool().wall_cycles() - before;
        out
    }

    fn linearize(
        &mut self,
        features: &[Feature],
        keyframe: &Keyframe,
        cam: &Pinhole,
        pose: &SE3,
    ) -> NormalEquations {
        let qpose = QPose::quantize(pose);
        let qcam = QCamera::quantize(cam);
        let qkf = &keyframe.q_tables;

        if self.runner.options().on_machine {
            // real machine execution: faults (if any) corrupt the
            // normal equations, recovery runs at the pool layer
            let qfeats: Vec<QFeature> = features.iter().map(|f| f.q).collect();
            let wall_before = self.runner.pool().wall_cycles();
            match self.runner.submit(&qfeats, &qpose, qkf, cam) {
                Ok(outs) => {
                    let mut eq = QNormalEquations::zero();
                    for out in &outs {
                        pim_exec::fold_batch(&mut eq, out);
                    }
                    self.lm_cycles += self.runner.pool().wall_cycles() - wall_before;
                    self.lm_iterations += 1;
                    return eq.to_normal_equations();
                }
                Err(_) => {
                    // every array quarantined: degrade to the scalar
                    // path below so tracking can continue host-side
                    self.lm_cycles += self.runner.pool().wall_cycles() - wall_before;
                }
            }
        }

        let eq = linearize_q(features, &qpose, qkf, &qcam, self.runner.options().interp);

        // cost accounting: the runner's per-batch price x batch count.
        // Energy / op totals cover every batch; the wall-clock charge is
        // one batch cost per barrier section of `pool` parallel batches
        // (plus the inter-array sync when the pool is sharded).
        let price = self.batch_price.get_or_insert_with(|| {
            self.runner
                .batch_cost(&qpose, qkf, cam)
                .unwrap_or_else(|e| panic!("machine too small for pose rows: {e}"))
        });
        let batches = features.len().div_ceil(BATCH) as u64;
        let n = self.runner.pool().len() as u64;
        let sections = batches.div_ceil(n);
        let sync = if n > 1 {
            self.runner.pool().sync_cycles()
        } else {
            0
        };
        self.lm_cycles += sections * (price.cycles + sync);
        self.scaled.merge(&price.scaled(batches));
        self.lm_iterations += 1;

        eq.to_normal_equations()
    }

    fn stats(&self) -> BackendStats {
        let mut pim = self.runner.pool().merged_stats();
        pim.merge(&self.scaled);
        let energy = pim.energy(self.machine().cost_model());
        BackendStats {
            edge_cycles: self.edge_cycles,
            lm_cycles: self.lm_cycles,
            lm_iterations: self.lm_iterations,
            frames: self.frames,
            energy_mj: energy.total_mj(),
            pim: Some(pim),
        }
    }

    fn reset_stats(&mut self) {
        self.runner.pool_mut().reset_stats();
        self.scaled = ExecStats::new();
        self.edge_cycles = 0;
        self.lm_cycles = 0;
        self.lm_iterations = 0;
        self.frames = 0;
    }

    fn pool_health(&self) -> Option<pimvo_pim::PoolHealth> {
        Some(self.runner.pool().health())
    }

    fn pool_mut(&mut self) -> Option<&mut PimArrayPool> {
        Some(self.runner.pool_mut())
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.runner.pool_mut().set_telemetry(telemetry);
    }

    fn export_health_telemetry(&self) {
        self.runner.pool().export_health_telemetry();
    }
}

impl std::fmt::Debug for PimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimBackend")
            .field("arrays", &self.runner.pool().len())
            .field("edge_cycles", &self.edge_cycles)
            .field("lm_cycles", &self.lm_cycles)
            .field("priced", &self.batch_price.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim_exec::BatchMapping;
    use pimvo_kernels::DepthImage;
    use pimvo_vomath::SE3;

    fn synthetic_frame() -> (GrayImage, DepthImage) {
        let gray = GrayImage::from_fn(320, 240, |x, y| {
            ((x * 17 + y * 23).wrapping_mul(2654435761) >> 12) as u8
        });
        let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
        (gray, depth)
    }

    fn keyframe_from(maps: &EdgeMaps) -> Keyframe {
        Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &Pinhole::qvga())
    }

    #[test]
    fn float_backend_counts_cycles() {
        let (gray, depth) = synthetic_frame();
        let cam = Pinhole::qvga();
        let cfg = EdgeConfig::default();
        let mut be = FloatBackend::new();
        let maps = be.detect_edges(&gray, &cfg);
        let kf = keyframe_from(&maps);
        let feats = crate::feature::extract_features(&maps.mask, &depth, &cam, 4000, 0.3, 8.0);
        assert!(!feats.is_empty());
        let eq = be.linearize(&feats, &kf, &cam, &SE3::IDENTITY);
        assert!(eq.count > 0);
        let st = be.stats();
        assert!(st.edge_cycles > 500_000, "{}", st.edge_cycles);
        assert!(st.lm_cycles > 10_000);
        assert!(st.energy_mj > 0.0);
        assert!(st.pim.is_none());
    }

    #[test]
    fn pim_backend_counts_cycles_and_matches_float_roughly() {
        let (gray, depth) = synthetic_frame();
        let cam = Pinhole::qvga();
        let cfg = EdgeConfig::default();

        let mut fb = FloatBackend::new();
        let mut pb = PimBackend::new();
        let maps_f = fb.detect_edges(&gray, &cfg);
        let maps_p = pb.detect_edges(&gray, &cfg);
        assert_eq!(maps_f.mask, maps_p.mask, "edge maps must be identical");

        let kf = keyframe_from(&maps_f);
        let feats = crate::feature::extract_features(&maps_f.mask, &depth, &cam, 2000, 0.3, 8.0);
        let pose = SE3::exp(&[0.01, -0.005, 0.008, 0.002, -0.004, 0.001]);
        let eq_f = fb.linearize(&feats, &kf, &cam, &pose);
        let eq_p = pb.linearize(&feats, &kf, &cam, &pose);

        // the quantized normal equations approximate the float ones
        assert!(eq_p.count > eq_f.count / 2);
        let rel = (eq_p.cost - eq_f.cost).abs() / eq_f.cost.max(1e-9);
        assert!(
            rel < 0.35,
            "cost mismatch {rel}: {} vs {}",
            eq_p.cost,
            eq_f.cost
        );

        // PIM is much faster than the MCU on both stages
        let (sf, sp) = (fb.stats(), pb.stats());
        assert!(sf.edge_cycles > 20 * sp.edge_cycles, "edge speedup");
        assert!(sf.lm_cycles > 3 * sp.lm_cycles, "LM speedup");
        assert!(sp.pim.is_some());
    }

    #[test]
    fn pooled_backend_matches_single_array_and_is_faster() {
        let (gray, depth) = synthetic_frame();
        let cam = Pinhole::qvga();
        let cfg = EdgeConfig::default();

        let mut p1 = PimBackend::new();
        let mut p4 = PimBackend::with_options(BatchOptions {
            pool: 4,
            ..Default::default()
        });
        let maps1 = p1.detect_edges(&gray, &cfg);
        let maps4 = p4.detect_edges(&gray, &cfg);
        assert_eq!(maps1.mask, maps4.mask, "pooling must not change the maps");
        assert_eq!(maps1.lpf, maps4.lpf);
        assert_eq!(maps1.hpf, maps4.hpf);

        let kf = keyframe_from(&maps1);
        let feats = crate::feature::extract_features(&maps1.mask, &depth, &cam, 4000, 0.3, 8.0);
        let pose = SE3::exp(&[0.01, -0.005, 0.008, 0.002, -0.004, 0.001]);
        let eq1 = p1.linearize(&feats, &kf, &cam, &pose);
        let eq4 = p4.linearize(&feats, &kf, &cam, &pose);
        assert_eq!(eq1.count, eq4.count);
        assert_eq!(eq1.cost, eq4.cost);

        let (s1, s4) = (p1.stats(), p4.stats());
        assert!(
            s4.edge_cycles < s1.edge_cycles,
            "edge wall cycles must shrink: {} vs {}",
            s4.edge_cycles,
            s1.edge_cycles
        );
        assert!(
            s4.lm_cycles < s1.lm_cycles,
            "LM wall cycles must shrink: {} vs {}",
            s4.lm_cycles,
            s1.lm_cycles
        );
    }

    #[test]
    fn fast_edges_superset_of_refined_and_cheaper() {
        let (gray, _) = synthetic_frame();
        let cfg = EdgeConfig::default();

        let mut full_be = PimBackend::new();
        let mut fast_be = PimBackend::new();
        let full = full_be.detect_edges(&gray, &cfg);
        let fast = fast_be.detect_edges_fast(&gray, &cfg);
        // NMS only *removes* pixels from the thresholded-HPF response
        for (m, f) in full.mask.pixels().iter().zip(fast.mask.pixels()) {
            assert!(*m == 0 || *f == 255, "refined edge missing from fast mask");
        }
        assert!(
            fast_be.stats().edge_cycles < full_be.stats().edge_cycles,
            "{} vs {}",
            fast_be.stats().edge_cycles,
            full_be.stats().edge_cycles
        );

        let mut ffull = FloatBackend::new();
        let mut ffast = FloatBackend::new();
        let full_f = ffull.detect_edges(&gray, &cfg);
        let fast_f = ffast.detect_edges_fast(&gray, &cfg);
        // the float fast path produces the same mask as the PIM one
        assert_eq!(fast_f.mask, fast.mask);
        let _ = full_f;
        assert!(ffast.stats().edge_cycles < ffull.stats().edge_cycles);
    }

    /// Edge kernels are resolved once per pool geometry and image size:
    /// warm frames at two pyramid sizes make no cache lookup, a
    /// fleet-style swap to a 2-array pool re-resolves and matches the
    /// per-call entry point on that pool, and swapping back re-resolves
    /// the original geometry.
    #[test]
    fn edge_kernels_resolve_once_per_pool_geometry() {
        let (gray, _) = synthetic_frame();
        let half = pimvo_kernels::scalar::downsample2x(&gray);
        let cfg = EdgeConfig::default();
        let mut be = PimBackend::new();
        let cache = pimvo_pim::LoweredCache::new();
        be.pool_mut().set_lowered_cache(cache.clone());
        let lookups = || {
            let s = cache.stats();
            s.hits + s.misses
        };
        let full = be.detect_edges(&gray, &cfg);
        let small = be.detect_edges_fast(&half, &cfg);
        let cold = lookups();
        assert!(cold > 0);
        assert_eq!(be.detect_edges(&gray, &cfg), full);
        assert_eq!(be.detect_edges_fast(&half, &cfg), small);
        assert_eq!(be.detect_edges(&half, &cfg).lpf, small.lpf);
        assert_eq!(lookups(), cold, "warm frames make no cache lookup");

        let builder = PimMachine::builder(pimvo_pim::ArrayConfig::qvga_banks(6));
        let mut shared = builder.build_pool(2);
        shared.set_lowered_cache(cache.clone());
        std::mem::swap(be.pool_mut(), &mut shared);
        let swapped = be.detect_edges(&gray, &cfg);
        assert!(lookups() > cold, "a swapped pool re-resolves");
        let want = EdgeKernels::new().edge_detect(&mut builder.build_pool(2), &gray, &cfg);
        assert_eq!(swapped, want);

        std::mem::swap(be.pool_mut(), &mut shared);
        let swapped_back = lookups();
        assert_eq!(be.detect_edges(&gray, &cfg), full);
        assert!(lookups() > swapped_back, "swapping back re-resolves");
    }

    /// A geometry without the pose staging rows (or the edge banks)
    /// fails at construction, on the fast path and on the machine path
    /// alike, instead of panicking in the first linearization.
    #[test]
    fn from_builder_rejects_a_geometry_without_the_working_rows() {
        let small = PimMachine::builder(pimvo_pim::ArrayConfig::qvga_banks(1));
        for on_machine in [false, true] {
            let options = BatchOptions {
                on_machine,
                ..Default::default()
            };
            let built = std::panic::catch_unwind(|| PimBackend::from_builder(&small, options));
            let err = built.expect_err("construction must fail");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("array geometry too small"), "{msg}");
        }
        assert!(matches!(
            PimBackend::check_geometry(&pimvo_pim::ArrayConfig::qvga_banks(1)),
            Err(PimError::RowOutOfRange {
                row: 1535,
                rows: 256
            })
        ));
        assert!(PimBackend::check_geometry(&pimvo_pim::ArrayConfig::qvga_banks(6)).is_ok());
    }

    /// The fast path charges one batch at the price of one submitted
    /// batch at the runner's mapping, on the pool in the backend at the
    /// time, as `FleetScheduler::step` swaps it in: here a pool stamped
    /// with a non-default cost model and ECC protection. The naive
    /// charge lies above the optimized one.
    #[test]
    fn fast_path_charges_one_batch_at_its_mapping_on_the_swapped_in_pool() {
        let (gray, depth) = synthetic_frame();
        let cam = Pinhole::qvga();
        let maps = PimBackend::new().detect_edges(&gray, &EdgeConfig::default());
        let kf = keyframe_from(&maps);
        let feats = crate::feature::extract_features(&maps.mask, &depth, &cam, 4000, 0.3, 8.0);
        let feats = &feats[..BATCH];
        let qfeats: Vec<QFeature> = feats.iter().map(|f| f.q).collect();
        let pose = SE3::exp(&[0.01, -0.005, 0.008, 0.002, -0.004, 0.001]);
        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6))
            .cost(pimvo_pim::CostModel {
                ecc_check_cycles: 3,
                ..Default::default()
            })
            .protection(pimvo_pim::Protection::Ecc);
        let lm_cycles = |mapping| {
            let options = BatchOptions {
                mapping,
                ..Default::default()
            };
            let mut be = PimBackend::with_options(options);
            std::mem::swap(be.pool_mut(), &mut builder.build_pool(1));
            let _ = be.linearize(feats, &kf, &cam, &pose);

            let mut runner = BatchRunner::from_builder(&builder, options);
            let _ = runner
                .submit(&qfeats, &QPose::quantize(&pose), &kf.q_tables, &cam)
                .unwrap();
            let want = runner.pool().merged_stats();
            let got = be.stats();
            assert_eq!(got.lm_cycles, want.cycles, "{mapping:?}");
            assert_eq!(got.pim.as_ref(), Some(&want), "{mapping:?}");
            assert!(want.ecc_checks > 0);
            got.lm_cycles
        };
        assert!(lm_cycles(BatchMapping::Naive) > lm_cycles(BatchMapping::Opt));
    }

    #[test]
    fn pim_backend_lm_cost_scales_with_features() {
        let (gray, depth) = synthetic_frame();
        let cam = Pinhole::qvga();
        let cfg = EdgeConfig::default();
        let mut pb = PimBackend::new();
        let maps = pb.detect_edges(&gray, &cfg);
        let kf = keyframe_from(&maps);
        let feats = crate::feature::extract_features(&maps.mask, &depth, &cam, 4000, 0.3, 8.0);
        let n_all = feats.len();

        let c0 = pb.stats().lm_cycles;
        let _ = pb.linearize(&feats, &kf, &cam, &SE3::IDENTITY);
        let full = pb.stats().lm_cycles - c0;

        let half: Vec<Feature> = feats[..n_all / 2].to_vec();
        let c1 = pb.stats().lm_cycles;
        let _ = pb.linearize(&half, &kf, &cam, &SE3::IDENTITY);
        let half_cost = pb.stats().lm_cycles - c1;
        assert!(full > half_cost, "{full} vs {half_cost}");
        assert!(full < 2 * half_cost + full / 4);
    }
}

//! The EBVO tracker: edge detection → feature extraction → LM edge
//! alignment against the keyframe (Fig. 1 of the paper).

use crate::backend::{BackendKind, BackendStats, FloatBackend, PimBackend, TrackerBackend};
use crate::checkpoint::{self, Checkpoint, CheckpointError, KeyframeSnapshot, MapSnapshot};
use crate::config::TrackerConfig;
use crate::feature::{extract_features, Feature};
use crate::keyframe::Keyframe;
use crate::mapping::EdgeMap3d;
use crate::supervisor::{
    BudgetStatus, DeadlineSupervisor, DegradeRung, CAPPED_LM_ITERATIONS, FEATURE_DIVISOR,
};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_telemetry::container::{self, ContainerError};
use pimvo_telemetry::{EventKind, Severity, Telemetry, TimeDomain};
use pimvo_vomath::{LmOutcome, LmProblem, LmSolver, NormalEquations, Pinhole, SE3, SO3};
use std::path::Path;

/// Tracking quality state of the [`Tracker`] — the graceful-degradation
/// ladder:
///
/// ```text
///        good frame                 bad frame
///   Ok ───────────▶ Ok        Ok ────────────▶ Degraded
///   Degraded ──────▶ Ok       Degraded ───┬──▶ Degraded   (< N bad)
///   Lost ──────────▶ Ok                   └──▶ Lost       (≥ N bad,
///                                               re-seed at keyframe)
/// ```
///
/// A *bad* frame (diverged solve, no residual support, exploding cost —
/// see [`crate::RecoveryConfig`]) never overwrites the pose with solver
/// output: the tracker coasts on the constant-velocity / gyro motion
/// prior. After `max_bad_frames` consecutive bad frames the tracker is
/// Lost: the pose is re-seeded at the last keyframe, from which the
/// next well-supported alignment re-localizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingState {
    /// The last frame aligned with healthy support.
    #[default]
    Ok,
    /// Recent frames were rejected; pose is extrapolated from the
    /// motion prior.
    Degraded,
    /// Too many consecutive rejections; pose re-seeded at the last
    /// keyframe until alignment recovers.
    Lost,
}

/// Result of processing one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Frame index.
    pub index: usize,
    /// Estimated world-from-camera pose.
    pub pose_wc: SE3,
    /// Keyframe-relative pose (keyframe-from-camera).
    pub pose_kc: SE3,
    /// Whether this frame became a keyframe.
    pub is_keyframe: bool,
    /// Number of features extracted.
    pub features: usize,
    /// LM iterations run (0 on keyframe bootstrap).
    pub iterations: usize,
    /// Final mean squared residual (pixels²).
    pub mean_residual: f64,
    /// Tracking quality after this frame.
    pub state: TrackingState,
    /// Degradation-ladder rung the frame actually ran at (after any
    /// mid-frame escalation). [`DegradeRung::Full`] unless a budget or
    /// [`Tracker::set_shed_rung`] moved the ladder.
    pub rung: DegradeRung,
}

struct AlignmentProblem<'a> {
    backend: &'a mut dyn TrackerBackend,
    features: &'a [Feature],
    keyframe: &'a Keyframe,
    camera: &'a Pinhole,
}

impl LmProblem for AlignmentProblem<'_> {
    fn build(&mut self, pose: &SE3) -> NormalEquations {
        self.backend
            .linearize(self.features, self.keyframe, self.camera, pose)
    }
}

/// The EBVO tracker. Owns a backend (baseline MCU or PIM) and the
/// keyframe state.
pub struct Tracker {
    config: TrackerConfig,
    backend: Box<dyn TrackerBackend>,
    /// Per-pyramid-level keyframes (index 0 = full resolution).
    keyframes: Option<Vec<Keyframe>>,
    /// Per-level cameras (index 0 = full resolution).
    cameras: Vec<Pinhole>,
    /// World-from-camera pose of the latest frame.
    pose_wc: SE3,
    /// Keyframe-from-camera pose of the latest frame (the LM variable).
    pose_kc: SE3,
    frame_index: usize,
    /// Semi-dense world map (when `config.build_map`).
    map: Option<EdgeMap3d>,
    /// Tracking quality state (graceful degradation).
    state: TrackingState,
    /// Consecutive bad frames seen in the current Degraded stretch.
    bad_frames: usize,
    /// Inter-frame camera motion `T_c_prev <- c_curr` of the last good
    /// alignment (the constant-velocity prior).
    motion: SE3,
    /// World-from-camera pose of the previous frame (prior anchor).
    prev_pose_wc: SE3,
    /// Telemetry handle (off by default; see [`Tracker::set_telemetry`]).
    telemetry: Telemetry,
    /// Deadline supervisor: holds the per-frame cycle budget (none
    /// unless [`Tracker::set_frame_budget_cycles`] sets one) and the
    /// rung the next frame runs at.
    supervisor: DeadlineSupervisor,
}

/// A tracker's built keyframe pyramid, taken out of it by
/// [`Tracker::into_pyramid`] so that a later
/// [`Tracker::restore_reusing`] of the same session's checkpoint can
/// adopt the distance-transform and gradient tables instead of
/// rebuilding them. It is only ever a cache: the checkpoint stays the
/// source of truth, and a pyramid that does not match it byte for byte
/// is dropped and the tables are rebuilt.
#[derive(Debug)]
pub struct KeptPyramid {
    /// [`checkpoint::config_hash`] of the tracker that built the
    /// tables (the quantized gradients depend on the camera).
    config_hash: u64,
    levels: Vec<Keyframe>,
}

impl KeptPyramid {
    /// True if these tables are the ones `Keyframe::build` makes from
    /// `masks` under the configuration hashed to `config_hash`: same
    /// configuration, same level count, every level's mask equal byte
    /// for byte.
    fn matches(&self, config_hash: u64, masks: &[GrayImage]) -> bool {
        self.config_hash == config_hash
            && self.levels.len() == masks.len()
            && self
                .levels
                .iter()
                .zip(masks)
                .all(|(k, m)| k.edge_mask == *m)
    }
}

impl Tracker {
    /// Creates a tracker with the chosen backend.
    pub fn new(config: TrackerConfig, backend: BackendKind) -> Tracker {
        let backend: Box<dyn TrackerBackend> = match backend {
            BackendKind::Float => Box::new(FloatBackend::new()),
            BackendKind::Pim => Box::new(PimBackend::new()),
        };
        Self::with_backend(config, backend)
    }

    /// Creates a tracker around a pre-configured backend (ablations,
    /// custom cost models).
    pub fn with_backend(config: TrackerConfig, backend: Box<dyn TrackerBackend>) -> Tracker {
        assert!(
            (1..=4).contains(&config.pyramid_levels),
            "pyramid_levels must be 1..=4"
        );
        let mut cameras = vec![config.camera];
        for _ in 1..config.pyramid_levels {
            cameras.push(cameras.last().expect("nonempty").halved());
        }
        let map = config.build_map.then(|| EdgeMap3d::new(config.map_voxel_m));
        Tracker {
            config,
            backend,
            keyframes: None,
            cameras,
            pose_wc: SE3::IDENTITY,
            pose_kc: SE3::IDENTITY,
            frame_index: 0,
            map,
            state: TrackingState::Ok,
            bad_frames: 0,
            motion: SE3::IDENTITY,
            prev_pose_wc: SE3::IDENTITY,
            telemetry: Telemetry::off(),
            supervisor: DeadlineSupervisor::new(None),
        }
    }

    /// Attaches a telemetry handle to the tracker and its backend: each
    /// frame then records wall-time and PIM-cycle spans (frame → stage;
    /// the backend's pool adds pool-phase → shard underneath), per-frame
    /// counters/gauges (features, LM iterations, residual), and
    /// state-transition events on the graceful-degradation ladder. The
    /// default handle is off and costs one branch per frame.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.backend.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (off by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current tracking quality state.
    pub fn state(&self) -> TrackingState {
        self.state
    }

    /// Tracker configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Backend cost statistics.
    pub fn stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Fault/quarantine health of the backend's array pool (`None` on
    /// backends without one, e.g. the MCU baseline).
    pub fn pool_health(&self) -> Option<pimvo_pim::PoolHealth> {
        self.backend.pool_health()
    }

    /// Mutable access to the backend's array pool (`None` on backends
    /// without one). Lets a supervisor or chaos harness quarantine
    /// arrays and swap fault models between frames.
    pub fn pool_mut(&mut self) -> Option<&mut pimvo_pim::PimArrayPool> {
        self.backend.pool_mut()
    }

    /// Current full-resolution keyframe, if any.
    pub fn keyframe(&self) -> Option<&Keyframe> {
        self.keyframes.as_ref().map(|k| &k[0])
    }

    /// The semi-dense 3D edge map (when map building is enabled).
    pub fn map(&self) -> Option<&EdgeMap3d> {
        self.map.as_ref()
    }

    /// Sets the per-frame budget in backend cycles (see
    /// [`crate::supervisor`]); the default is none. A runtime QoS knob,
    /// not an estimator parameter, so checkpoints do not hash it.
    /// `None` removes the budget and returns the ladder to
    /// [`DegradeRung::Full`].
    pub fn set_frame_budget_cycles(&mut self, cycles: Option<u64>) {
        self.supervisor.set_budget_cycles(cycles);
    }

    /// Point-in-time deadline-supervisor status (rung, headroom, miss
    /// counters).
    pub fn budget_status(&self) -> BudgetStatus {
        self.supervisor.status()
    }

    /// Forces the degradation ladder to `rung` before the next frame —
    /// the load-shedding hook a fleet scheduler uses to degrade a
    /// session under pool contention (see
    /// [`DeadlineSupervisor::force_rung`]). Applies with or without a
    /// budget; without one the rung holds until set again. A bootstrap
    /// frame always runs at [`DegradeRung::Full`].
    pub fn set_shed_rung(&mut self, rung: DegradeRung) {
        self.supervisor.force_rung(rung);
    }

    /// Snapshots the complete tracker state for kill-and-restore.
    pub fn checkpoint(&self) -> Checkpoint {
        let b = self.supervisor.status();
        Checkpoint {
            config_hash: checkpoint::config_hash(&self.config),
            frame_index: self.frame_index,
            state: self.state,
            bad_frames: self.bad_frames,
            pose_wc: self.pose_wc,
            pose_kc: self.pose_kc,
            prev_pose_wc: self.prev_pose_wc,
            motion: self.motion,
            rung: b.rung,
            deadline_misses: b.deadline_misses,
            coasted_frames: b.coasted_frames,
            keyframes: self.keyframes.as_ref().map(|kfs| KeyframeSnapshot {
                frame_index: kfs[0].frame_index,
                pose_wk: kfs[0].pose_wk,
                masks: kfs.iter().map(|k| k.edge_mask.clone()).collect(),
            }),
            map: self.map.as_ref().map(|m| MapSnapshot {
                voxel_m: m.voxel_m(),
                points: m.points().to_vec(),
            }),
            pool: self.backend.pool_health().map(Into::into),
        }
    }

    /// Snapshots the tracker and writes it to `path` through
    /// [`container::write_atomic`]: a crash mid-write leaves either the
    /// previous snapshot or a stray `.tmp`, never a truncated file
    /// under the real name.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        container::write_atomic(path.as_ref(), &self.checkpoint().to_bytes())
            .map_err(ContainerError::Io)?;
        self.telemetry.event(
            EventKind::CheckpointWritten,
            &[("frame", self.frame_index.to_string())],
        );
        Ok(())
    }

    /// Consumes the tracker and returns its built keyframe pyramid (no
    /// copy), for [`Tracker::restore_reusing`] of a checkpoint taken
    /// just before. `None` before the first keyframe.
    pub fn into_pyramid(self) -> Option<KeptPyramid> {
        let config_hash = checkpoint::config_hash(&self.config);
        self.keyframes.map(|levels| KeptPyramid {
            config_hash,
            levels,
        })
    }

    /// Restores the tracker from a snapshot, resuming the sequence
    /// mid-stream: poses, keyframe tables (rebuilt deterministically
    /// from the stored edge masks), map, degradation rung and the
    /// pool's quarantine set all come back, so the restored run
    /// replays the uninterrupted run. The snapshot must have been taken
    /// under the same estimator configuration
    /// ([`CheckpointError::ConfigMismatch`] otherwise); on any error
    /// the tracker is left unchanged — fall back to re-initialization
    /// by simply continuing to feed frames.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
        self.restore_reusing(ckpt, None)
    }

    /// [`Tracker::restore`], handed the pyramid the snapshotted tracker
    /// built ([`Tracker::into_pyramid`]). The snapshot is validated
    /// exactly as by `restore`, and its frame index and poses are
    /// restored; the kept tables are adopted only when they were built
    /// under this configuration from the snapshot's edge masks, byte
    /// for byte. Otherwise they are dropped and the tables rebuilt, with
    /// no error: the outcome is identical either way, only cheaper.
    pub fn restore_reusing(
        &mut self,
        ckpt: &Checkpoint,
        kept: Option<KeptPyramid>,
    ) -> Result<(), CheckpointError> {
        match self.restore_inner(ckpt, kept) {
            Ok(()) => {
                self.telemetry.event(
                    EventKind::CheckpointRestored,
                    &[("frame", self.frame_index.to_string())],
                );
                Ok(())
            }
            Err(e) => {
                self.telemetry
                    .event(EventKind::CheckpointRejected, &[("reason", e.to_string())]);
                Err(e)
            }
        }
    }

    /// Reads a snapshot file and restores from it; rejection of a
    /// corrupt, truncated or mismatched file is a typed error and
    /// leaves the tracker unchanged.
    pub fn restore_from_file(&mut self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let ckpt = match Checkpoint::read_file(path) {
            Ok(c) => c,
            Err(e) => {
                self.telemetry
                    .event(EventKind::CheckpointRejected, &[("reason", e.to_string())]);
                return Err(e);
            }
        };
        self.restore(&ckpt)
    }

    fn restore_inner(
        &mut self,
        ckpt: &Checkpoint,
        kept: Option<KeptPyramid>,
    ) -> Result<(), CheckpointError> {
        let current = checkpoint::config_hash(&self.config);
        if ckpt.config_hash != current {
            return Err(CheckpointError::ConfigMismatch {
                snapshot: ckpt.config_hash,
                current,
            });
        }
        for p in [
            &ckpt.pose_wc,
            &ckpt.pose_kc,
            &ckpt.prev_pose_wc,
            &ckpt.motion,
        ] {
            if !checkpoint::pose_finite(p) {
                return Err(ContainerError::Malformed("non-finite pose").into());
            }
        }
        // validate and rebuild everything side-effect-free first, so a
        // rejected snapshot leaves the tracker untouched
        let keyframes = match &ckpt.keyframes {
            None => None,
            Some(kf) => {
                if !checkpoint::pose_finite(&kf.pose_wk) {
                    return Err(ContainerError::Malformed("non-finite pose").into());
                }
                if kf.masks.len() != self.cameras.len() {
                    return Err(ContainerError::Malformed("pyramid level count mismatch").into());
                }
                for (mask, cam) in kf.masks.iter().zip(&self.cameras) {
                    if mask.width() != cam.width || mask.height() != cam.height {
                        return Err(ContainerError::Malformed(
                            "mask dimensions do not match the camera",
                        )
                        .into());
                    }
                }
                Some(match kept.filter(|k| k.matches(current, &kf.masks)) {
                    Some(k) => k
                        .levels
                        .into_iter()
                        .map(|level| Keyframe {
                            frame_index: kf.frame_index,
                            pose_wk: kf.pose_wk,
                            ..level
                        })
                        .collect(),
                    None => build_keyframes(kf.frame_index, kf.pose_wk, &kf.masks, &self.cameras),
                })
            }
        };
        let map = if self.config.build_map {
            Some(match &ckpt.map {
                Some(m) => EdgeMap3d::from_points(m.voxel_m, m.points.clone())
                    .ok_or(ContainerError::Malformed("invalid voxel size"))?,
                // a snapshot without map state under a map-building
                // config restarts the map empty rather than failing
                None => EdgeMap3d::new(self.config.map_voxel_m),
            })
        } else {
            None
        };
        if let (Some(snap), Some(pool)) = (&ckpt.pool, self.backend.pool_mut()) {
            pool.restore(snap)
                .map_err(|_| ContainerError::Malformed("pool size mismatch"))?;
        }

        self.keyframes = keyframes;
        self.map = map;
        self.frame_index = ckpt.frame_index;
        self.state = ckpt.state;
        self.bad_frames = ckpt.bad_frames;
        self.pose_wc = ckpt.pose_wc;
        self.pose_kc = ckpt.pose_kc;
        self.prev_pose_wc = ckpt.prev_pose_wc;
        self.motion = ckpt.motion;
        self.supervisor
            .restore(ckpt.rung, ckpt.deadline_misses, ckpt.coasted_frames);
        Ok(())
    }

    /// Processes one RGB-D frame and returns the pose estimate.
    ///
    /// # Panics
    ///
    /// Panics if the image dimensions do not match the configured
    /// camera.
    pub fn process_frame(&mut self, gray: &GrayImage, depth: &DepthImage) -> FrameResult {
        self.process_frame_with_gyro(gray, depth, None)
    }

    /// [`Tracker::process_frame`] with an inertial rotation prediction —
    /// the first step toward the paper's future-work VIO: `gyro_delta`
    /// is the integrated body-frame rotation from the previous frame to
    /// this one (e.g. from [`integrate_gyro`] over the inter-frame
    /// window), used to warm-start the edge alignment. Translation still
    /// follows the constant-position model.
    ///
    /// [`integrate_gyro`]: https://docs.rs/pimvo-scene
    ///
    /// # Panics
    ///
    /// Panics if the image dimensions do not match the configured
    /// camera.
    pub fn process_frame_with_gyro(
        &mut self,
        gray: &GrayImage,
        depth: &DepthImage,
        gyro_delta: Option<SO3>,
    ) -> FrameResult {
        if !self.telemetry.is_enabled() {
            return self.process_inner(gray, depth, gyro_delta);
        }
        let prev_state = self.state;
        self.telemetry.set_frame(self.frame_index as u64);
        let cyc_start = self.backend.stats().total_cycles();
        let wall = self.telemetry.span("tracker", "frame");
        let result = self.process_inner(gray, depth, gyro_delta);
        drop(wall);
        let cyc_end = self.backend.stats().total_cycles();
        self.telemetry.record_span(
            TimeDomain::Cycles,
            "tracker",
            "frame",
            cyc_start,
            cyc_end - cyc_start,
            &[
                ("features", result.features.to_string()),
                ("iterations", result.iterations.to_string()),
                ("state", format!("{:?}", result.state)),
            ],
        );
        self.telemetry.counter_add("pimvo_frames_total", 1.0);
        if result.is_keyframe {
            self.telemetry.counter_add("pimvo_keyframes_total", 1.0);
        }
        self.telemetry
            .counter_add("pimvo_lm_iterations_total", result.iterations as f64);
        self.telemetry
            .gauge_set("pimvo_frame_features", result.features as f64);
        self.telemetry
            .gauge_set("pimvo_mean_residual", result.mean_residual);
        if result.state != prev_state {
            self.note_state_transition(prev_state, result.state, &result);
        }
        self.backend.export_health_telemetry();
        result
    }

    /// Records the state-transition counter and a severity-matched
    /// event when the graceful-degradation ladder moves.
    fn note_state_transition(&self, from: TrackingState, to: TrackingState, r: &FrameResult) {
        let name = |s: TrackingState| match s {
            TrackingState::Ok => "ok",
            TrackingState::Degraded => "degraded",
            TrackingState::Lost => "lost",
        };
        self.telemetry.counter_add_labeled(
            "pimvo_tracking_transitions_total",
            &[("from", name(from)), ("to", name(to))],
            1.0,
        );
        let severity = match to {
            TrackingState::Ok => Severity::Info,
            TrackingState::Degraded => Severity::Warn,
            TrackingState::Lost => Severity::Error,
        };
        self.telemetry.log(
            severity,
            "tracking state changed",
            &[
                ("from", name(from).to_string()),
                ("to", name(to).to_string()),
                ("mean_residual", format!("{}", r.mean_residual)),
                ("features", r.features.to_string()),
            ],
        );
    }

    /// Cycle-domain stage span helper: `start` is the backend's total
    /// cycle counter at stage entry.
    fn record_stage_cycles(&self, name: &str, start: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let end = self.backend.stats().total_cycles();
        if end > start {
            self.telemetry.record_span(
                TimeDomain::Cycles,
                "tracker",
                name,
                start,
                end - start,
                &[],
            );
        }
    }

    /// Backend cycle counter, read only when telemetry is on.
    fn stage_cycles_start(&self) -> u64 {
        if self.telemetry.is_enabled() {
            self.backend.stats().total_cycles()
        } else {
            0
        }
    }

    fn process_inner(
        &mut self,
        gray: &GrayImage,
        depth: &DepthImage,
        gyro_delta: Option<SO3>,
    ) -> FrameResult {
        // the bootstrap frame always runs at full quality: without a
        // keyframe there is nothing to coast on
        let rung = if self.keyframes.is_some() {
            self.supervisor.begin_frame()
        } else {
            DegradeRung::Full
        };
        // the frame's cycle spend is read only against a budget
        let cyc_start = self
            .supervisor
            .budget_cycles()
            .map(|_| self.backend.stats().total_cycles());
        let result = self.process_core(gray, depth, gyro_delta, rung, cyc_start);
        self.settle_transfers();
        let spent_cycles = cyc_start.map(|s| self.backend.stats().total_cycles().saturating_sub(s));
        self.supervisor
            .end_frame(result.rung, spent_cycles, result.index, &self.telemetry);
        result
    }

    /// Phase-boundary budget check: true once the frame that started at
    /// backend cycle `cyc_start` (read only under a budget) has spent
    /// more than the budget. Never true before the first keyframe — a
    /// bootstrap frame has nothing to coast on.
    fn over_budget(&self, cyc_start: Option<u64>) -> bool {
        match cyc_start {
            Some(s) if self.keyframes.is_some() => self
                .supervisor
                .over_cycle_budget(self.backend.stats().total_cycles().saturating_sub(s)),
            _ => false,
        }
    }

    /// Frame-end transfer settle: drains in-flight DMA descriptors and
    /// absorbs trailing host I/O (result reads after the frame's last
    /// barrier) into the pool wall clock, so per-frame timing is
    /// complete before the caller observes it. No-op on backends
    /// without an array pool.
    fn settle_transfers(&mut self) {
        if let Some(p) = self.backend.pool_mut() {
            p.dma_settle();
        }
    }

    /// Sheds the rest of the frame: the pose extrapolates on the motion
    /// prior and the alignment is skipped entirely. This is deliberate
    /// load shedding, not a tracking failure — the bad-frame counter is
    /// untouched; the state reports `Degraded` (or stays `Lost`).
    fn coast_frame(
        &mut self,
        index: usize,
        gyro_delta: Option<SO3>,
        features: usize,
        rung: DegradeRung,
    ) -> FrameResult {
        let pose_wk = self.keyframes.as_ref().expect("coast requires a keyframe")[0].pose_wk;
        let prior = match gyro_delta {
            Some(r) => SE3::new(r, self.motion.translation),
            None => self.motion,
        };
        self.pose_wc = self.prev_pose_wc.compose(&prior);
        self.pose_kc = pose_wk.inverse().compose(&self.pose_wc);
        self.prev_pose_wc = self.pose_wc;
        if self.state != TrackingState::Lost {
            self.state = TrackingState::Degraded;
        }
        FrameResult {
            index,
            pose_wc: self.pose_wc,
            pose_kc: self.pose_kc,
            is_keyframe: false,
            features,
            iterations: 0,
            mean_residual: 0.0,
            state: self.state,
            rung,
        }
    }

    fn process_core(
        &mut self,
        gray: &GrayImage,
        depth: &DepthImage,
        gyro_delta: Option<SO3>,
        rung: DegradeRung,
        cyc_start: Option<u64>,
    ) -> FrameResult {
        assert_eq!(gray.width(), self.config.camera.width, "width mismatch");
        assert_eq!(gray.height(), self.config.camera.height, "height mismatch");
        let index = self.frame_index;
        self.frame_index += 1;

        // scheduled coast: shed the whole frame before any work
        if rung == DegradeRung::Coast && self.keyframes.is_some() {
            return self.coast_frame(index, gyro_delta, 0, rung);
        }

        // build the image pyramid (level 0 = full resolution)
        let levels = self.config.pyramid_levels;
        let cyc = self.stage_cycles_start();
        let wall = self.telemetry.span("tracker", "pyramid");
        let mut grays = vec![gray.clone()];
        let mut depths = vec![depth.clone()];
        for l in 1..levels {
            grays.push(self.backend.downsample(&grays[l - 1]));
            depths.push(downsample_depth(&depths[l - 1]));
        }
        drop(wall);
        self.record_stage_cycles("pyramid", cyc);

        // phase boundary: once over budget, stop starting phases and
        // coast — bounding an overrun to the one phase already running
        if self.over_budget(cyc_start) {
            return self.coast_frame(index, gyro_delta, 0, DegradeRung::Coast);
        }

        // edge detection + feature extraction per level, shedding per
        // the frame's rung
        let skip_nms = rung >= DegradeRung::SkipNmsRefinement;
        let feature_budget = if rung >= DegradeRung::ReduceFeatures {
            self.config.max_features / FEATURE_DIVISOR
        } else {
            self.config.max_features
        };
        let cyc = self.stage_cycles_start();
        let wall = self.telemetry.span("tracker", "edges+features");
        let mut masks = Vec::with_capacity(levels);
        let mut features: Vec<Vec<crate::feature::Feature>> = Vec::with_capacity(levels);
        for l in 0..levels {
            let maps = if skip_nms {
                self.backend.detect_edges_fast(&grays[l], &self.config.edge)
            } else {
                self.backend.detect_edges(&grays[l], &self.config.edge)
            };
            let cap = feature_budget >> (2 * l);
            features.push(extract_features(
                &maps.mask,
                &depths[l],
                &self.cameras[l],
                cap.max(200),
                self.config.min_depth,
                self.config.max_depth,
            ));
            masks.push(maps.mask);
        }
        drop(wall);
        self.record_stage_cycles("edges+features", cyc);

        // phase boundary: edges + features done
        if self.over_budget(cyc_start) {
            let n = features[0].len();
            return self.coast_frame(index, gyro_delta, n, DegradeRung::Coast);
        }

        // bootstrap: first frame becomes the keyframe at the origin
        let Some(keyframes) = &self.keyframes else {
            self.keyframes = Some(build_keyframes(index, self.pose_wc, &masks, &self.cameras));
            if let Some(map) = &mut self.map {
                map.integrate_keyframe(&features[0], &self.pose_wc);
            }
            self.pose_kc = SE3::IDENTITY;
            self.prev_pose_wc = self.pose_wc;
            return FrameResult {
                index,
                pose_wc: self.pose_wc,
                pose_kc: SE3::IDENTITY,
                is_keyframe: true,
                features: features[0].len(),
                iterations: 0,
                mean_residual: 0.0,
                state: self.state,
                rung,
            };
        };

        // coarse-to-fine LM edge alignment, warm-started from the
        // previous frame's keyframe-relative pose, rotated by the
        // inertial prediction when one is supplied:
        // T_k<-c_new = T_k<-c_prev ∘ (R_gyro, 0)
        let mut pose = match gyro_delta {
            Some(r) => self.pose_kc.compose(&SE3::new(r, pimvo_vomath::Vec3::ZERO)),
            None => self.pose_kc,
        };
        let mut lm_cfg = self.config.lm;
        if rung >= DegradeRung::CapLmIterations {
            lm_cfg.max_iterations = lm_cfg.max_iterations.min(CAPPED_LM_ITERATIONS);
        }
        let cyc = self.stage_cycles_start();
        let wall = self.telemetry.span("tracker", "align");
        let mut outcome: Option<LmOutcome> = None;
        let mut total_iterations = 0usize;
        for l in (0..levels).rev() {
            let out: LmOutcome = {
                let mut problem = AlignmentProblem {
                    backend: self.backend.as_mut(),
                    features: &features[l],
                    keyframe: &keyframes[l],
                    camera: &self.cameras[l],
                };
                LmSolver::new(lm_cfg).solve(&mut problem, pose)
            };
            pose = out.pose;
            total_iterations += out.iterations;
            outcome = Some(out);
        }
        let outcome = outcome.expect("at least one pyramid level");
        drop(wall);
        self.record_stage_cycles("align", cyc);

        // ---- graceful degradation: accept or reject the solve ---------
        let overlap = if features[0].is_empty() {
            0.0
        } else {
            outcome.residual_count as f64 / features[0].len() as f64
        };
        let rec = self.config.recovery;
        let bad = outcome.diverged
            || outcome.residual_count == 0
            || overlap < rec.min_valid_fraction
            || !outcome.final_cost.is_finite()
            || outcome.final_cost > rec.max_mean_residual;

        if bad {
            // never trust a rejected solve: coast on the motion prior
            // (gyro rotation when available, constant velocity otherwise)
            self.bad_frames += 1;
            self.state = if self.bad_frames >= rec.max_bad_frames {
                TrackingState::Lost
            } else {
                TrackingState::Degraded
            };
            if self.state == TrackingState::Lost {
                // re-seed at the last keyframe: the next well-supported
                // alignment starts from a pose the keyframe tables can
                // actually explain
                self.pose_kc = SE3::IDENTITY;
                self.pose_wc = keyframes[0].pose_wk;
                self.motion = SE3::IDENTITY;
            } else {
                let prior = match gyro_delta {
                    Some(r) => SE3::new(r, self.motion.translation),
                    None => self.motion,
                };
                self.pose_wc = self.prev_pose_wc.compose(&prior);
                self.pose_kc = keyframes[0].pose_wk.inverse().compose(&self.pose_wc);
            }
            self.prev_pose_wc = self.pose_wc;
            return FrameResult {
                index,
                pose_wc: self.pose_wc,
                pose_kc: self.pose_kc,
                is_keyframe: false, // a rejected frame never seeds a keyframe
                features: features[0].len(),
                iterations: total_iterations,
                mean_residual: outcome.final_cost,
                state: self.state,
                rung,
            };
        }
        self.state = TrackingState::Ok;
        self.bad_frames = 0;

        self.pose_kc = pose;
        // pose_kc = T_keyframe<-camera, so T_world<-camera composes directly
        self.pose_wc = keyframes[0].pose_wk.compose(&self.pose_kc);
        // constant-velocity prior update: T_c_prev <- c_curr
        self.motion = self.prev_pose_wc.inverse().compose(&self.pose_wc);
        self.prev_pose_wc = self.pose_wc;

        // keyframe policy (evaluated at the finest level)
        let needs_new_kf = self.pose_kc.translation_norm() > self.config.keyframe.max_translation
            || self.pose_kc.rotation_angle() > self.config.keyframe.max_rotation
            || overlap < self.config.keyframe.min_overlap;
        if needs_new_kf {
            self.keyframes = Some(build_keyframes(index, self.pose_wc, &masks, &self.cameras));
            if let Some(map) = &mut self.map {
                map.integrate_keyframe(&features[0], &self.pose_wc);
            }
            self.pose_kc = SE3::IDENTITY;
        }

        FrameResult {
            index,
            pose_wc: self.pose_wc,
            pose_kc: self.pose_kc,
            is_keyframe: needs_new_kf,
            features: features[0].len(),
            iterations: total_iterations,
            mean_residual: outcome.final_cost,
            state: self.state,
            rung,
        }
    }
}

/// Builds per-level keyframes from the per-level edge masks.
fn build_keyframes(
    index: usize,
    pose_wk: SE3,
    masks: &[GrayImage],
    cameras: &[Pinhole],
) -> Vec<Keyframe> {
    masks
        .iter()
        .zip(cameras)
        .map(|(mask, cam)| Keyframe::build(index, pose_wk, mask.clone(), cam))
        .collect()
}

/// Depth pyramid step: each coarse pixel takes the first valid depth of
/// its 2x2 block (host-side bookkeeping; depth maps are not processed
/// in the array).
fn downsample_depth(depth: &DepthImage) -> DepthImage {
    let (w, h) = (depth.width() / 2, depth.height() / 2);
    DepthImage::from_fn(w, h, |x, y| {
        for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let d = depth.get(2 * x + dx, 2 * y + dy);
            if d.is_finite() && d > 0.0 {
                return d;
            }
        }
        0.0
    })
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracker")
            .field("frame_index", &self.frame_index)
            .field("has_keyframe", &self.keyframes.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyframe::tests::tables_digest;
    use pimvo_vomath::Vec3;

    fn textured_frame(shift: f64) -> (GrayImage, DepthImage) {
        // a textured wall at 2 m; shifting the texture horizontally by
        // `shift` pixels emulates a sideways camera translation of
        // shift * z / f meters
        let gray = GrayImage::from_fn(320, 240, |x, y| {
            let xs = x as f64 + shift;
            let v = ((xs * 0.55).sin()
                + (y as f64 * 0.41).sin()
                + (xs * 0.13).sin() * (y as f64 * 0.09).cos())
                * 50.0
                + 120.0;
            v.clamp(0.0, 255.0) as u8
        });
        let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
        (gray, depth)
    }

    #[test]
    fn first_frame_is_keyframe() {
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        let (g, d) = textured_frame(0.0);
        let r = t.process_frame(&g, &d);
        assert!(r.is_keyframe);
        assert_eq!(r.index, 0);
        assert!(r.features > 100, "features {}", r.features);
        assert!(t.keyframe().is_some());
    }

    #[test]
    fn static_camera_stays_at_identity() {
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        let (g, d) = textured_frame(0.0);
        t.process_frame(&g, &d);
        let r = t.process_frame(&g, &d);
        assert!(r.pose_wc.translation_norm() < 5e-3, "{:?}", r.pose_wc);
        assert!(r.pose_wc.rotation_angle() < 5e-3);
    }

    #[test]
    fn lateral_texture_shift_recovers_translation() {
        // texture shifted by 2 px at depth 2 m, f = 265 -> the camera
        // moved ~ -2 * 2/265 = -0.0151 m in x (texture shift left =
        // camera right... sign depends on convention; magnitude counts)
        let cfg = TrackerConfig::default();
        let mut t = Tracker::new(cfg, BackendKind::Float);
        let (g0, d0) = textured_frame(0.0);
        t.process_frame(&g0, &d0);
        let (g1, d1) = textured_frame(2.0);
        let r = t.process_frame(&g1, &d1);
        let tx = r.pose_wc.translation.x.abs();
        assert!(
            (0.007..0.030).contains(&tx),
            "expected ~0.015 m lateral motion, got {tx} ({:?})",
            r.pose_wc.translation
        );
        assert!(r.iterations >= 1);
    }

    #[test]
    fn blank_frames_degrade_then_lose_then_relocalize() {
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        let (g, d) = textured_frame(0.0);
        t.process_frame(&g, &d);
        assert_eq!(t.state(), TrackingState::Ok);

        // a burst of featureless frames: no residual support at all
        let blank_g = GrayImage::from_fn(320, 240, |_, _| 128);
        let max_bad = t.config().recovery.max_bad_frames;
        let mut last = None;
        for _ in 0..max_bad {
            last = Some(t.process_frame(&blank_g, &d));
        }
        let last = last.expect("ran at least one blank frame");
        assert_eq!(last.state, TrackingState::Lost);
        assert!(!last.is_keyframe, "garbage frames must not seed keyframes");
        // Lost re-seeds at the keyframe: identity here
        assert!(last.pose_kc.translation_norm() < 1e-12);

        // texture returns: the tracker re-localizes within a frame
        let r = t.process_frame(&g, &d);
        assert_eq!(r.state, TrackingState::Ok);
        assert!(r.pose_wc.translation_norm() < 5e-3, "{:?}", r.pose_wc);
    }

    #[test]
    fn degraded_frames_coast_on_motion_prior() {
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        let (g0, d) = textured_frame(0.0);
        t.process_frame(&g0, &d);
        // establish a constant lateral velocity of 1 px/frame
        let (g1, _) = textured_frame(1.0);
        t.process_frame(&g1, &d);
        let (g2, _) = textured_frame(2.0);
        let r2 = t.process_frame(&g2, &d);
        assert_eq!(r2.state, TrackingState::Ok);
        let v = r2.pose_wc.translation - t.prev_pose_wc.translation; // == 0, anchor updated
        let _ = v;

        // one blank frame: the pose must extrapolate, not jump to junk
        let blank_g = GrayImage::from_fn(320, 240, |_, _| 128);
        let r3 = t.process_frame(&blank_g, &d);
        assert_eq!(r3.state, TrackingState::Degraded);
        let step = (r3.pose_wc.translation - r2.pose_wc.translation).norm();
        let per_frame = 2.0 / 265.0; // ~2 px/frame at 2 m, f ≈ 265
        assert!(
            step < 3.0 * per_frame + 1e-3,
            "prior step {step} should stay near the recent velocity"
        );
    }

    #[test]
    fn pim_backend_tracks_like_float() {
        let (g0, d0) = textured_frame(0.0);
        let (g1, d1) = textured_frame(1.5);

        let mut tf = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        tf.process_frame(&g0, &d0);
        let rf = tf.process_frame(&g1, &d1);

        let mut tp = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
        tp.process_frame(&g0, &d0);
        let rp = tp.process_frame(&g1, &d1);

        // the single fronto-parallel wall makes x-translation /
        // y-rotation nearly degenerate, so the two backends may settle
        // at different points of the ambiguity valley; parity on
        // well-conditioned scenes is asserted by the integration tests
        let dt = (rf.pose_wc.translation - rp.pose_wc.translation).norm();
        assert!(dt < 0.05, "float vs pim translation differ by {dt}");
    }

    /// A tracker one keyframe and one tracked frame in: its checkpoint
    /// and the pyramid taken out of it, as an eviction leaves them.
    fn evicted() -> (Checkpoint, KeptPyramid) {
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        for shift in [0.0, 0.8] {
            let (g, d) = textured_frame(shift);
            t.process_frame(&g, &d);
        }
        let ckpt = t.checkpoint();
        (
            ckpt,
            t.into_pyramid().expect("the first frame is a keyframe"),
        )
    }

    /// Asserts that `t`'s keyframes carry the snapshot's frame index,
    /// pose and masks, and exactly the tables `Keyframe::build` makes
    /// from them.
    fn assert_tables_built_from(t: &Tracker, ckpt: &Checkpoint) {
        let snap = ckpt.keyframes.as_ref().expect("snapshot has a keyframe");
        let kfs = t.keyframes.as_ref().expect("restored keyframe");
        assert_eq!(kfs.len(), snap.masks.len());
        for ((k, mask), cam) in kfs.iter().zip(&snap.masks).zip(&t.cameras) {
            assert_eq!(k.frame_index, snap.frame_index);
            assert_eq!(k.pose_wk, snap.pose_wk);
            assert!(k.edge_mask == *mask, "mask comes from the snapshot");
            let built = Keyframe::build(snap.frame_index, snap.pose_wk, mask.clone(), cam);
            assert_eq!(tables_digest(k), tables_digest(&built));
        }
    }

    /// Overwrites one entry of every kept table, so tables that reach
    /// the tracker unrebuilt give themselves away.
    fn poison(kept: &mut KeptPyramid) {
        for k in &mut kept.levels {
            k.q_tables.dt[0] ^= 0x5a5a;
            k.tables.grad_x[0] += 1.0;
        }
    }

    #[test]
    fn restore_adopts_a_matching_kept_pyramid() {
        let (ckpt, mut kept) = evicted();
        // a kept level's own frame index and pose never survive: the
        // snapshot's are restored
        kept.levels[0].frame_index += 7;
        kept.levels[0].pose_wk = SE3::new(SO3::IDENTITY, Vec3::new(0.1, 0.0, 0.0));
        let tables: Vec<*const i16> = kept.levels.iter().map(|k| k.q_tables.dt.as_ptr()).collect();
        let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
        t.restore_reusing(&ckpt, Some(kept)).unwrap();
        let adopted: Vec<*const i16> = t
            .keyframes
            .as_ref()
            .unwrap()
            .iter()
            .map(|k| k.q_tables.dt.as_ptr())
            .collect();
        assert_eq!(adopted, tables, "the kept tables are moved in, not rebuilt");
        assert_tables_built_from(&t, &ckpt);
        assert_eq!(t.frame_index, ckpt.frame_index);
        assert_eq!(t.pose_wc, ckpt.pose_wc);
    }

    #[test]
    fn restore_rebuilds_a_kept_pyramid_that_does_not_match() {
        let (ckpt, _) = evicted();
        let mut flipped = evicted().1;
        let v = flipped.levels[0].edge_mask.get(100, 100);
        flipped.levels[0].edge_mask.set(100, 100, !v);
        let mut extra_level = evicted().1;
        extra_level.levels.push(extra_level.levels[0].clone());
        let mut other_config = evicted().1;
        other_config.config_hash ^= 1;
        for (case, mut kept) in [
            ("one mask byte differs", flipped),
            ("wrong level count", extra_level),
            ("other configuration", other_config),
        ] {
            poison(&mut kept);
            let mut t = Tracker::new(TrackerConfig::default(), BackendKind::Float);
            t.restore_reusing(&ckpt, Some(kept))
                .unwrap_or_else(|e| panic!("{case}: a mismatch is no error: {e}"));
            assert_tables_built_from(&t, &ckpt);
        }
    }
}

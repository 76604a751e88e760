//! Deterministic chaos-soak harness for the supervisor/recovery layer.
//!
//! [`run_chaos`] drives a [`Tracker`] over a procedurally generated
//! sequence while a seeded RNG interleaves the failure modes the
//! robustness PR is supposed to survive:
//!
//! * **kill-and-restore** — the tracker is dropped and a fresh one is
//!   restored from the last on-disk checkpoint;
//! * **checkpoint corruption** — a random bit of the snapshot file is
//!   flipped, so the next restore must fail with a typed
//!   [`pimvo_core::CheckpointError`] and fall back to re-initialization;
//! * **budget squeezes** — the per-frame cycle budget is slashed for a
//!   few frames, forcing the tracker down the degradation ladder;
//! * **quarantine storms** — a subset of PIM arrays is quarantined and
//!   later released (PIM backend only);
//! * **fault bursts** — a transient bit-upset model is attached to one
//!   array for a few frames.
//!
//! After every frame the harness checks the invariants shared with the
//! core test-suite: the pose stays finite, the
//! [`TrackingState`] transition is legal per
//! [`pimvo_core::transition_legal`], and backend cycle counters are
//! monotonic within a tracker incarnation.
//!
//! Everything — frames, event schedule, corruption offsets — derives
//! from [`ChaosConfig::seed`] through [`SplitMix64`], and the report
//! carries no wall-clock measurements, so the emitted
//! `BENCH_chaos_soak.json` is byte-identical for a fixed seed.
//!
//! [`run_fleet_chaos`] lifts the same discipline to the multi-tenant
//! serving layer: N sessions over one shared self-healing pool, driven
//! through a defect storm (stuck-at injection + quarantine), scrub /
//! spare-row-remap rehabilitation, circuit-breaker trips with half-open
//! probe recovery, a DMA transfer-fault storm (CRC-rejected payload
//! flips, stalled descriptors, channel quarantine with degradation to
//! the synchronous port), and a mid-soak hard kill replayed
//! bit-identically from a [`FleetScheduler::save_manifest`]
//! manifest (`BENCH_fleet_chaos.json`).

use std::fs;
use std::io;
use std::path::PathBuf;

use pimvo_core::checkpoint::pose_finite;
use pimvo_core::pim_exec::BatchOptions;
use pimvo_core::{
    transition_legal, BackendKind, CheckpointError, FrameResult, PimBackend, Tracker,
    TrackerConfig, TrackingState,
};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_pim::{
    ArrayConfig, DmaConfig, DmaFaultModel, FaultModel, PimMachine, PimMachineBuilder, SessionId,
};
use pimvo_serve::{BreakerConfig, BreakerState, FleetScheduler, FlightDump, SessionSpec};
use pimvo_telemetry::container::ContainerError;
use pimvo_vomath::Pinhole;

use crate::sink::BenchReport;

/// Sebastiano Vigna's SplitMix64 — a tiny, zero-dependency PRNG with a
/// 64-bit state. Used for every chaos decision so a seed fully
/// determines the run.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole future is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`; modulo bias is irrelevant at
    /// the event rates used here).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Parameters of a chaos-soak run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for every chaos decision and procedural frame.
    pub seed: u64,
    /// Number of frames to drive.
    pub frames: usize,
    /// Backend under test.
    pub backend: BackendKind,
    /// PIM arrays in the pool (PIM backend only).
    pub arrays: usize,
    /// Periodic checkpoint interval in frames (0 disables periodic
    /// snapshots, which also disables kill-and-restore).
    pub checkpoint_every: usize,
    /// Scratch directory for checkpoint files. Its path never enters
    /// the report, so it does not affect determinism.
    pub workdir: PathBuf,
}

impl ChaosConfig {
    /// A run with the default event mix.
    pub fn new(seed: u64, frames: usize, workdir: impl Into<PathBuf>) -> Self {
        ChaosConfig {
            seed,
            frames,
            backend: BackendKind::Pim,
            arrays: 4,
            checkpoint_every: 25,
            workdir: workdir.into(),
        }
    }
}

/// Outcome of a chaos-soak run: the deterministic report plus any
/// invariant violations (empty on a healthy run).
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Deterministic metrics; serialize with [`BenchReport::to_json`].
    pub report: BenchReport,
    /// Human-readable invariant violations, in frame order.
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// True when every per-frame invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The tracker configuration used by the soak: a quarter-QVGA camera
/// so a 500-frame PIM run stays cheap.
fn chaos_tracker_config() -> TrackerConfig {
    TrackerConfig {
        camera: Pinhole::qvga().halved(),
        max_features: 3000,
        ..TrackerConfig::default()
    }
}

/// Procedural textured-wall frame `i` of the chaos sequence: a fixed
/// multi-frequency texture at 2 m depth, translated laterally by a
/// smooth deterministic shift.
fn chaos_frame(cam: &Pinhole, i: usize) -> (GrayImage, DepthImage) {
    let shift = (i as f64 * 0.23).sin() * 2.5;
    let gray = GrayImage::from_fn(cam.width, cam.height, |x, y| {
        let xs = x as f64 + shift;
        let v = ((xs * 0.55).sin()
            + (y as f64 * 0.41).sin()
            + (xs * 0.13).sin() * (y as f64 * 0.09).cos())
            * 50.0
            + 120.0;
        v.clamp(0.0, 255.0) as u8
    });
    let depth = DepthImage::from_fn(cam.width, cam.height, |_, _| 2.0);
    (gray, depth)
}

/// Per-frame invariants shared with the core supervision tests: finite
/// pose and a legal [`TrackingState`] transition. Returns a
/// human-readable description per violated invariant.
fn check_frame(
    prev_state: TrackingState,
    result: &FrameResult,
    max_bad_frames: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    if !pose_finite(&result.pose_wc) {
        violations.push(format!("frame {}: non-finite pose_wc", result.index));
    }
    if !transition_legal(prev_state, result.state, max_bad_frames) {
        violations.push(format!(
            "frame {}: illegal transition {:?} -> {:?}",
            result.index, prev_state, result.state
        ));
    }
    violations
}

fn make_tracker(cfg: &ChaosConfig, tracker_cfg: &TrackerConfig) -> Tracker {
    match cfg.backend {
        BackendKind::Pim => Tracker::with_backend(
            tracker_cfg.clone(),
            Box::new(PimBackend::with_options(BatchOptions {
                pool: cfg.arrays,
                ..Default::default()
            })),
        ),
        _ => Tracker::new(tracker_cfg.clone(), cfg.backend),
    }
}

fn ckpt_io(e: CheckpointError) -> io::Error {
    match e {
        CheckpointError::Container(ContainerError::Io(e)) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// Flips one RNG-chosen bit of the file at `path`.
fn corrupt_file(path: &PathBuf, rng: &mut SplitMix64) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(());
    }
    let offset = rng.below(bytes.len() as u64) as usize;
    let bit = rng.below(8) as u8;
    bytes[offset] ^= 1 << bit;
    fs::write(path, bytes)
}

fn backend_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Float => "float",
        BackendKind::Pim => "pim",
    }
}

/// Drives the chaos soak described in the module docs. The only
/// fallible operations are checkpoint-file reads/writes in
/// `cfg.workdir`; every tracker-level failure (typed checkpoint
/// rejection, quarantine exhaustion, deadline overrun) is part of the
/// experiment and recorded rather than propagated.
pub fn run_chaos(cfg: &ChaosConfig) -> io::Result<ChaosOutcome> {
    fs::create_dir_all(&cfg.workdir)?;
    let tracker_cfg = chaos_tracker_config();
    let cam = tracker_cfg.camera;
    let max_bad = tracker_cfg.recovery.max_bad_frames;
    let ckpt_path = cfg.workdir.join(format!("chaos_{:016x}.ckpt", cfg.seed));

    let mut rng = SplitMix64::new(cfg.seed);
    let mut tracker = make_tracker(cfg, &tracker_cfg);

    let mut have_ckpt = false;
    let mut squeeze_left = 0usize;
    let mut storm_left = 0usize;
    let mut burst_left = 0usize;
    let mut burst_array = 0usize;

    let mut restores = 0u64;
    let mut reinits = 0u64;
    let mut corruptions = 0u64;
    let mut typed_rejections = 0u64;
    let mut squeezes = 0u64;
    let mut storms = 0u64;
    let mut bursts = 0u64;
    let mut ok_frames = 0u64;
    let mut degraded_frames = 0u64;
    let mut lost_frames = 0u64;
    let mut keyframes = 0u64;

    let mut prev_state = tracker.state();
    let mut prev_cycles = 0u64;
    let mut frame_cycles_ema = 0u64;
    let mut violations = Vec::new();

    for i in 0..cfg.frames {
        // Periodic snapshot — the restart point for later kills.
        if cfg.checkpoint_every > 0 && i > 0 && i % cfg.checkpoint_every == 0 {
            tracker.save_checkpoint(&ckpt_path).map_err(ckpt_io)?;
            have_ckpt = true;
        }

        // Snapshot corruption: flip a bit so the *next* restore must be
        // rejected with a typed error.
        if have_ckpt && rng.chance(1, 47) {
            corrupt_file(&ckpt_path, &mut rng)?;
            corruptions += 1;
        }

        // Kill-and-restore: drop the live tracker, bring up a fresh one
        // from disk. A rejected (corrupt) snapshot must never panic —
        // the harness falls back to re-initialization, exactly like a
        // supervisor would.
        if have_ckpt && rng.chance(1, 31) {
            let mut fresh = make_tracker(cfg, &tracker_cfg);
            match fresh.restore_from_file(&ckpt_path) {
                Ok(()) => restores += 1,
                Err(_typed) => {
                    typed_rejections += 1;
                    reinits += 1;
                    have_ckpt = false;
                }
            }
            tracker = fresh;
            prev_state = tracker.state();
            prev_cycles = 0;
        }

        // Budget squeeze: slash the per-frame cycle budget to a
        // fraction of the recently observed frame cost for a few
        // frames, then lift it again. Scaling to the observed cost
        // (rather than an absolute number) makes the squeeze bite on
        // both backends, whose per-frame cycle counts differ by orders
        // of magnitude.
        if squeeze_left == 0 && rng.chance(1, 23) {
            squeeze_left = 4 + rng.below(8) as usize;
            let typical = frame_cycles_ema.max(1);
            tracker.set_frame_budget_cycles(Some(typical / 4 + rng.below(typical)));
            squeezes += 1;
        } else if squeeze_left > 0 {
            squeeze_left -= 1;
            if squeeze_left == 0 {
                tracker.set_frame_budget_cycles(None);
            }
        }

        if let Some(pool) = tracker.pool_mut() {
            // Quarantine storm: sideline some arrays (always leaving at
            // least one healthy) and release them a few frames later.
            if storm_left == 0 && rng.chance(1, 29) {
                let n = pool.len();
                let k = 1 + rng.below(n.saturating_sub(1).max(1) as u64) as usize;
                for j in 0..k.min(n.saturating_sub(1)) {
                    let _ = pool.try_quarantine(j);
                }
                storm_left = 3 + rng.below(6) as usize;
                storms += 1;
            } else if storm_left > 0 {
                storm_left -= 1;
                if storm_left == 0 {
                    for j in 0..pool.len() {
                        let _ = pool.unquarantine(j);
                    }
                }
            }

            // Fault burst: attach a transient upset model to one array.
            if burst_left == 0 && rng.chance(1, 37) {
                burst_array = rng.below(pool.len() as u64) as usize;
                let seed = rng.next_u64();
                let model = FaultModel::transient(seed, 1e-7);
                pool.array_mut(burst_array).set_fault_model(model);
                burst_left = 2 + rng.below(5) as usize;
                bursts += 1;
            } else if burst_left > 0 {
                burst_left -= 1;
                if burst_left == 0 {
                    pool.array_mut(burst_array)
                        .set_fault_model(FaultModel::none());
                }
            }
        }

        let (gray, depth) = chaos_frame(&cam, i);
        let result = tracker.process_frame(&gray, &depth);

        violations.extend(check_frame(prev_state, &result, max_bad));
        let stats = tracker.stats();
        let cycles = stats.edge_cycles + stats.lm_cycles;
        if cycles < prev_cycles {
            violations.push(format!(
                "frame {}: cycle counter went backwards ({} -> {})",
                result.index, prev_cycles, cycles
            ));
        }
        let spent = cycles.saturating_sub(prev_cycles);
        if spent > 0 {
            frame_cycles_ema = if frame_cycles_ema == 0 {
                spent
            } else {
                (frame_cycles_ema * 7 + spent) / 8
            };
        }
        prev_cycles = cycles;
        prev_state = result.state;
        match result.state {
            TrackingState::Ok => ok_frames += 1,
            TrackingState::Degraded => degraded_frames += 1,
            TrackingState::Lost => lost_frames += 1,
        }
        if result.is_keyframe {
            keyframes += 1;
        }
    }

    let budget = tracker.budget_status();
    let stats = tracker.stats();
    let t = tracker.checkpoint().pose_wc.translation;
    let mut report = BenchReport::new("chaos_soak");
    report
        .note("seed", &format!("{:#018x}", cfg.seed))
        .note("backend", backend_name(cfg.backend))
        .metric("frames", cfg.frames as f64)
        .metric("checkpoint_every", cfg.checkpoint_every as f64)
        .metric("restores", restores as f64)
        .metric("reinit_fallbacks", reinits as f64)
        .metric("corruptions", corruptions as f64)
        .metric("typed_rejections", typed_rejections as f64)
        .metric("budget_squeezes", squeezes as f64)
        .metric("quarantine_storms", storms as f64)
        .metric("fault_bursts", bursts as f64)
        .metric("frames_ok", ok_frames as f64)
        .metric("frames_degraded", degraded_frames as f64)
        .metric("frames_lost", lost_frames as f64)
        .metric("keyframes", keyframes as f64)
        .metric("deadline_misses", budget.deadline_misses as f64)
        .metric("coasted_frames", budget.coasted_frames as f64)
        .metric("final_cycles", (stats.edge_cycles + stats.lm_cycles) as f64)
        .metric("final_energy_mj", stats.energy_mj)
        .metric("final_translation_norm", t.norm())
        .metric("invariant_violations", violations.len() as f64);

    let _ = fs::remove_file(&ckpt_path);
    Ok(ChaosOutcome { report, violations })
}

// ---------------------------------------------------------------------
// Fleet-level chaos: N sessions over one shared self-healing pool
// ---------------------------------------------------------------------

/// Parameters of a fleet chaos-soak run ([`run_fleet_chaos`]).
#[derive(Debug, Clone)]
pub struct FleetChaosConfig {
    /// Seed for every chaos decision.
    pub seed: u64,
    /// Frames per session; the soak serves `sessions * frames_per_session`.
    pub frames_per_session: usize,
    /// Tenant sessions sharing the pool.
    pub sessions: usize,
    /// PIM arrays in the shared pool.
    pub arrays: usize,
    /// Scratch directory for the fleet manifest. Never enters the
    /// report, so it does not affect determinism.
    pub workdir: PathBuf,
}

impl FleetChaosConfig {
    /// A run with the default fleet shape (4 sessions, 3 arrays).
    pub fn new(seed: u64, frames_per_session: usize, workdir: impl Into<PathBuf>) -> Self {
        FleetChaosConfig {
            seed,
            frames_per_session,
            sessions: 4,
            arrays: 3,
            workdir: workdir.into(),
        }
    }
}

/// Per-session procedural frame of the fleet soak: the chaos texture
/// with session-specific frequencies so tenants never share a scene.
fn fleet_frame(cam: &Pinhole, session: usize, k: usize) -> (GrayImage, DepthImage) {
    let speed = 0.5 + (session % 8) as f64 * 0.1;
    let shift = k as f64 * speed;
    let fx = 0.55 + session as f64 * 0.011;
    let gray = GrayImage::from_fn(cam.width, cam.height, |x, y| {
        let xs = x as f64 + shift;
        let y = y as f64;
        let v = ((xs * fx).sin() + (y * 0.41).sin() + (xs * 0.13).sin() * (y * 0.09).cos()) * 50.0
            + 120.0;
        v.clamp(0.0, 255.0) as u8
    });
    let depth = DepthImage::from_fn(cam.width, cam.height, |_, _| 2.0);
    (gray, depth)
}

/// Healthy per-frame cost of the fleet's tracker configuration on an
/// `arrays`-wide pool (second frame, keyframe bootstrap excluded) —
/// anchors the breaker session's deadline and backoff.
fn calibrate_fleet_frame_cycles(builder: &PimMachineBuilder, arrays: usize) -> u64 {
    let mut fleet = FleetScheduler::from_builder(builder, arrays);
    fleet.add_session(
        SessionId(1),
        SessionSpec::new(chaos_tracker_config()).max_queue(2),
    );
    let cam = chaos_tracker_config().camera;
    let mut last = 1;
    for k in 0..2 {
        let (g, d) = fleet_frame(&cam, 0, k);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let o = fleet.step().unwrap().expect("calibration frame queued");
        last = o.latency_cycles.max(1);
    }
    last
}

/// Drives one wave of the fleet: offers frame `k` to every session
/// (full queues shed — that is part of the experiment), then runs up to
/// `sessions` scheduler steps, recording outcomes and invariants.
/// During a `blackout` wave, session 1's camera feed goes dark
/// (featureless frames), driving its tracker through `Degraded` into
/// `Lost` — the failure signal its circuit breaker counts.
#[allow(clippy::too_many_arguments)]
fn fleet_wave(
    fleet: &mut FleetScheduler,
    cam: &Pinhole,
    sessions: usize,
    k: usize,
    blackout: bool,
    max_bad: usize,
    prev_states: &mut [TrackingState],
    poses: &mut Vec<(u32, pimvo_vomath::SE3)>,
    violations: &mut Vec<String>,
) {
    for s in 0..sessions {
        let (g, d) = fleet_frame(cam, s, k);
        let g = if blackout && s == 0 {
            GrayImage::from_fn(cam.width, cam.height, |_, _| 0)
        } else {
            g
        };
        let _ = fleet.submit_frame(SessionId(s as u32 + 1), g, d);
    }
    for _ in 0..sessions {
        let Some(o) = fleet.step().expect("scheduler step") else {
            break;
        };
        let s = o.session.0 as usize - 1;
        for v in check_frame(prev_states[s], &o.result, max_bad) {
            violations.push(format!("session {}: {v}", o.session.0));
        }
        prev_states[s] = o.result.state;
        poses.push((o.session.0, o.result.pose_wc));
    }
}

/// Drives the fleet chaos soak: `sessions` tenants over one shared
/// self-healing pool (DMA transfer channels armed on every array),
/// through five acts —
///
/// 1. **warm-up** — clean serving, all arrays healthy;
/// 2. **defect storm** — all but one array is quarantined, two of the
///    victims grow persistent stuck-at defects, a seeded transient
///    fault burst rides the surviving
///    array, and the breaker-armed session's camera feed blacks out:
///    its tracker degrades into `Lost`, the breaker counts the failed
///    frames, trips open, and the session is evicted mid-storm;
/// 3. **rehabilitation** — a scrub pass march-tests the quarantined
///    arrays, remaps defective rows onto spares, and re-admits them;
///    capacity must return to its pre-storm value, and — vision
///    restored — the tripped session must earn its slot back through a
///    half-open probe frame;
/// 4. **transfer storm** — a seeded [`DmaFaultModel`] floods every
///    channel with payload flips, stalled descriptors and dropped
///    completions; the CRC/timeout ladder retries, channels quarantine
///    and traffic degrades to the synchronous port with poses
///    unaffected; the operator lifts the model and rehabilitates the
///    channels;
/// 5. **kill-and-recover** — the fleet is checkpointed to a
///    [`FleetScheduler::save_manifest`] manifest and dropped; a
///    recovered fleet replays the remaining waves and must match the
///    uninterrupted run bit-for-bit (pose delta 0, equal clocks).
///
/// Everything derives from `cfg.seed`; the emitted
/// `BENCH_fleet_chaos.json` is byte-identical for a fixed seed.
pub fn run_fleet_chaos(cfg: &FleetChaosConfig) -> io::Result<ChaosOutcome> {
    fs::create_dir_all(&cfg.workdir)?;
    let tracker_cfg = chaos_tracker_config();
    let cam = tracker_cfg.camera;
    let max_bad = tracker_cfg.recovery.max_bad_frames;
    let n = cfg.sessions.max(1);
    // f/4 storm waves must cover the breaker's 3-failure trip threshold
    let f = cfg.frames_per_session.max(16);
    let storm_at = f / 4;
    let scrub_at = f / 2;
    let kill_at = 3 * f / 4;
    // transfer storm rides the second half of the post-scrub window, so
    // the pool is back to full array capacity when the channels fail
    let dma_storm_at = (scrub_at + kill_at) / 2;

    let mut rng = SplitMix64::new(cfg.seed);
    // every array gets a host↔array DMA channel: transfers overlap
    // compute all soak long, and act 4 faults that very data path
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6))
        .spare_rows(4)
        .dma(DmaConfig::default());
    let healthy_cycles = calibrate_fleet_frame_cycles(&builder, cfg.arrays);

    // session 1 carries the deadline and the circuit breaker; the rest
    // are background tenants. The deadline must absorb a full wave of
    // queue wait: a half-open probe is scheduled after every other
    // session's frame, so a per-frame deadline tighter than one wave
    // makes each probe "miss" on queue wait alone and the breaker can
    // never close again.
    let breaker = BreakerConfig {
        trip_threshold: 2,
        backoff_base: healthy_cycles,
    };
    let mut specs: Vec<(SessionId, SessionSpec)> = vec![(
        SessionId(1),
        SessionSpec::new(tracker_cfg.clone())
            .deadline_cycles(healthy_cycles * (n as u64 + 2))
            .max_queue(2)
            .breaker(breaker)
            // flight recorder on the failure-prone session: every trip
            // and deadline miss dumps the last 4 frames' op traces
            .flight_recorder(4),
    )];
    for s in 1..n {
        specs.push((
            SessionId(s as u32 + 1),
            SessionSpec::new(tracker_cfg.clone()).max_queue(2),
        ));
    }

    let mut fleet = FleetScheduler::from_builder(&builder, cfg.arrays);
    fleet.set_flight_dir(&cfg.workdir);
    for (id, spec) in &specs {
        fleet.add_session(*id, spec.clone());
    }

    let mut prev_states = vec![TrackingState::Ok; n];
    let mut poses: Vec<(u32, pimvo_vomath::SE3)> = Vec::new();
    let mut violations = Vec::new();

    // act 1: warm-up
    for k in 0..storm_at {
        fleet_wave(
            &mut fleet,
            &cam,
            n,
            k,
            false,
            max_bad,
            &mut prev_states,
            &mut poses,
            &mut violations,
        );
    }
    let pre_storm_available = fleet.pool().healthy_len();

    // act 2: defect storm — quarantine all but one array, two victims
    // with persistent stuck-at defects, plus a transient burst on the
    // survivor.
    let quarantined = cfg.arrays.saturating_sub(1).max(1).min(cfg.arrays - 1);
    for v in 0..quarantined {
        if v < 2 {
            let row = 1 + rng.below(40) as usize;
            let bit = rng.below(32) as usize;
            fleet
                .pool_mut()
                .array_mut(v)
                .inject_stuck_bit(row, bit, true);
        }
        fleet
            .pool_mut()
            .try_quarantine(v)
            .expect("storm victim index in range");
    }
    let survivor = quarantined; // the one array left standing
    let burst_seed = rng.next_u64();
    let burst_model = FaultModel::transient(burst_seed, 1e-8);
    fleet
        .pool_mut()
        .array_mut(survivor)
        .set_fault_model(burst_model);
    let storm_available = fleet.pool().healthy_len();

    for k in storm_at..scrub_at {
        fleet_wave(
            &mut fleet,
            &cam,
            n,
            k,
            true,
            max_bad,
            &mut prev_states,
            &mut poses,
            &mut violations,
        );
    }
    let trips_during_storm = fleet.stats(SessionId(1)).expect("session 1").breaker_trips;

    // act 3: rehabilitation — lift the burst, scrub the quarantined
    // arrays back in (remapping the stuck rows onto spares)
    fleet
        .pool_mut()
        .array_mut(survivor)
        .set_fault_model(FaultModel::none());
    let rehabbed = fleet.pool_mut().scrub_now();
    let post_scrub_available = fleet.pool().healthy_len();
    if post_scrub_available != pre_storm_available {
        violations.push(format!(
            "capacity not restored: {post_scrub_available} available after scrub, \
             {pre_storm_available} before the storm"
        ));
    }
    for k in scrub_at..dma_storm_at {
        fleet_wave(
            &mut fleet,
            &cam,
            n,
            k,
            false,
            max_bad,
            &mut prev_states,
            &mut poses,
            &mut violations,
        );
    }

    // act 4: transfer storm — flood every DMA channel with payload
    // flips, stalled descriptors and dropped completions. Rates are
    // high enough that the retry ladder exhausts and channels
    // quarantine, degrading traffic to the synchronous port; poses must
    // not care (the channel applies data eagerly, the CRC only gates
    // the *cost* ladder).
    let dma_before = fleet.pool_mut().dma_health();
    let dma_seed = rng.next_u64();
    let dma_model = DmaFaultModel::new(dma_seed, 0.40, 0.30, 0.05);
    fleet.pool_mut().set_dma_fault(dma_model);
    for k in dma_storm_at..kill_at {
        fleet_wave(
            &mut fleet,
            &cam,
            n,
            k,
            false,
            max_bad,
            &mut prev_states,
            &mut poses,
            &mut violations,
        );
    }
    // lift the burst and rehabilitate the channels (operator action),
    // so the checkpoint in act 5 sees a clean transfer path
    fleet.pool_mut().set_dma_fault(DmaFaultModel::none());
    fleet.pool_mut().dma_rehabilitate();
    let dma_storm = fleet.pool_mut().dma_health().since(&dma_before);
    if fleet.pool_mut().dma_health().quarantined {
        violations.push("dma channels still quarantined after rehabilitation".into());
    }
    if dma_storm.issued == 0 {
        violations.push("no dma descriptors were issued during the transfer storm".into());
    }
    if dma_storm.crc_errors == 0 {
        violations.push("transfer storm injected no CRC-detected flips".into());
    }
    if dma_storm.timeouts == 0 {
        violations.push("transfer storm produced no stall/drop timeouts".into());
    }
    if dma_storm.quarantines == 0 {
        violations.push("transfer storm never drove a channel into quarantine".into());
    }
    if dma_storm.sync_fallbacks == 0 {
        violations.push("quarantined channels never degraded to the synchronous port".into());
    }

    // act 5: kill-and-recover — drain, checkpoint, then run the tail
    // twice: uninterrupted, and replayed on a recovered fleet.
    for o in fleet.run_until_idle().expect("drain before kill") {
        let s = o.session.0 as usize - 1;
        prev_states[s] = o.result.state;
        poses.push((o.session.0, o.result.pose_wc));
    }
    let manifest = cfg.workdir.join(format!("fleet_{:016x}.ckpt", cfg.seed));
    fleet
        .save_manifest(&manifest)
        .map_err(|e| io::Error::other(e.to_string()))?;

    let run_tail = |fleet: &mut FleetScheduler| -> (Vec<(u32, pimvo_vomath::SE3)>, u64) {
        let mut tail: Vec<(u32, pimvo_vomath::SE3)> = Vec::new();
        for k in kill_at..f {
            for s in 0..n {
                let (g, d) = fleet_frame(&cam, s, k);
                let _ = fleet.submit_frame(SessionId(s as u32 + 1), g, d);
            }
            for o in fleet.run_until_idle().expect("tail wave") {
                tail.push((o.session.0, o.result.pose_wc));
            }
        }
        (tail, fleet.now_cycles())
    };

    let (tail_a, clock_a) = run_tail(&mut fleet);
    let mut recovered = FleetScheduler::recover(&manifest, &builder, cfg.arrays, &specs)
        .map_err(|e| io::Error::other(e.to_string()))?;
    recovered.set_flight_dir(&cfg.workdir);
    let (tail_b, clock_b) = run_tail(&mut recovered);

    let mut pose_delta_max = 0.0f64;
    if tail_a.len() != tail_b.len() {
        violations.push(format!(
            "recovery replay length mismatch: {} frames uninterrupted, {} recovered",
            tail_a.len(),
            tail_b.len()
        ));
    } else {
        for (i, ((sa, pa), (sb, pb))) in tail_a.iter().zip(&tail_b).enumerate() {
            if sa != sb {
                violations.push(format!(
                    "recovery replay order diverged at tail frame {i}: \
                     session {sa} vs {sb}"
                ));
                break;
            }
            let dt = (pa.translation - pb.translation).norm();
            pose_delta_max = pose_delta_max.max(dt);
            if pa != pb {
                violations.push(format!(
                    "recovered pose differs at tail frame {i} (session {sa}, \
                     |dt| = {dt:e})"
                ));
            }
        }
    }
    if clock_a != clock_b {
        violations.push(format!(
            "recovered virtual clock diverged: {clock_a} vs {clock_b}"
        ));
    }
    if pose_delta_max >= 1e-12 {
        violations.push(format!(
            "recovery pose delta {pose_delta_max:e} exceeds 1e-12"
        ));
    }

    // invariant roll-up for the breaker story
    let st1 = fleet.stats(SessionId(1)).expect("session 1").clone();
    if st1.breaker_trips == 0 {
        violations.push("breaker never tripped during the storm".into());
    }
    if !matches!(
        fleet.breaker_state(SessionId(1)),
        Some(BreakerState::Closed)
    ) {
        violations.push("tripped session did not recover to a closed breaker".into());
    }
    // flight recorder: the storm must have produced at least one dump,
    // every dump must decode cleanly, and each recorded frame's
    // dependency DAG must replay to exactly the pool cycles the
    // scheduler charged that frame (critical path == wall delta)
    if st1.flight_dumps.is_empty() {
        violations.push("no flight-recorder dump was written during the storm".into());
    }
    let mut flight_frames_checked = 0u64;
    for path in &st1.flight_dumps {
        match FlightDump::load(std::path::Path::new(path)) {
            Ok(dump) => {
                for fr in &dump.frames {
                    if fr.trace.dropped != 0 {
                        violations.push(format!(
                            "flight frame {} of {path} dropped {} op records",
                            fr.frame, fr.trace.dropped
                        ));
                    }
                    let prof = pimvo_telemetry::optrace::profile(&fr.trace);
                    for (k, row) in &prof.by_kind {
                        eprintln!(
                            "  kind {k:?}: n={} cyc={} crit={}",
                            row.count, row.cycles, row.crit_cycles
                        );
                    }
                    if prof.critical_path_cycles != fr.wall_delta {
                        violations.push(format!(
                            "flight frame {} of {path}: critical path {} cycles, \
                             frame ran {} wall cycles",
                            fr.frame, prof.critical_path_cycles, fr.wall_delta
                        ));
                    }
                    flight_frames_checked += 1;
                }
            }
            Err(e) => violations.push(format!("flight dump {path} failed to decode: {e}")),
        }
    }
    poses.extend(tail_a);
    for (_, p) in &poses {
        debug_assert!(p.translation.norm().is_finite());
    }

    let health = fleet.pool_mut().health();
    let dma_total = fleet.pool_mut().dma_health();
    let (mut completed, mut shed, mut misses, mut lost) = (0u64, 0u64, 0u64, 0u64);
    for id in fleet.session_ids() {
        let st = fleet.stats(id).expect("registered session");
        completed += st.completed;
        shed += st.shed;
        misses += st.deadline_misses;
        lost += st.lost_frames;
    }

    let mut report = BenchReport::new("fleet_chaos");
    report
        .note("seed", &format!("{:#018x}", cfg.seed))
        .note("backend", "pim")
        .note(
            "acts",
            "warm-up / defect storm + breaker trip / scrub + probe recovery / \
             dma transfer storm + channel quarantine / kill + manifest recovery",
        )
        .metric("sessions", n as f64)
        .metric("arrays", cfg.arrays as f64)
        .metric("frames_per_session", f as f64)
        .metric("frames_completed", completed as f64)
        .metric("frames_shed", shed as f64)
        .metric("deadline_misses", misses as f64)
        .metric("frames_lost", lost as f64)
        .metric("pre_storm_available", pre_storm_available as f64)
        .metric("storm_available", storm_available as f64)
        .metric("post_scrub_available", post_scrub_available as f64)
        .metric("arrays_rehabilitated", rehabbed as f64)
        .metric("rows_remapped", health.total_remapped_rows() as f64)
        .metric("scrub_passes", health.scrubs as f64)
        .metric("breaker_trips", st1.breaker_trips as f64)
        .metric("breaker_trips_during_storm", trips_during_storm as f64)
        .metric("breaker_probes", st1.breaker_probes as f64)
        .metric("session1_failures", st1.failures as f64)
        .metric("pool_detected_session1", st1.pool_detected as f64)
        .metric("dma_descriptors_issued", dma_total.issued as f64)
        .metric("dma_storm_crc_errors", dma_storm.crc_errors as f64)
        .metric("dma_storm_timeouts", dma_storm.timeouts as f64)
        .metric("dma_storm_retries", dma_storm.retries as f64)
        .metric("dma_storm_quarantines", dma_storm.quarantines as f64)
        .metric("dma_storm_sync_fallbacks", dma_storm.sync_fallbacks as f64)
        .metric("dma_faults_session1", st1.dma_faults as f64)
        .metric("dma_quarantines_session1", st1.dma_quarantines as f64)
        .metric("replayed_tail_frames", (f - kill_at) as f64 * n as f64)
        .metric("flight_dumps", st1.flight_dumps.len() as f64)
        .metric("flight_frames_checked", flight_frames_checked as f64)
        .metric("recovery_pose_delta_max", pose_delta_max)
        .metric("final_virtual_cycles", clock_a as f64)
        .metric("invariant_violations", violations.len() as f64);

    let _ = fs::remove_file(&manifest);
    Ok(ChaosOutcome { report, violations })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pimvo_chaos_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn chaos_soak_is_byte_identical_for_a_fixed_seed() {
        let mut cfg = ChaosConfig::new(3, 40, temp_dir("det_a"));
        cfg.backend = BackendKind::Float;
        cfg.checkpoint_every = 8;
        let a = run_chaos(&cfg).expect("run a");
        cfg.workdir = temp_dir("det_b");
        let b = run_chaos(&cfg).expect("run b");
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert!(a.report.metrics()["restores"] + a.report.metrics()["reinit_fallbacks"] > 0.0);
        for d in [&cfg.workdir, &temp_dir("det_a")] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn fleet_chaos_recovers_capacity_and_replays_bit_identically() {
        let mut cfg = FleetChaosConfig::new(7, 16, temp_dir("fleet_a"));
        cfg.sessions = 2;
        cfg.arrays = 3; // survivor = 1/3 capacity, safely past the 2x deadline
        let a = run_fleet_chaos(&cfg).expect("fleet run a");
        assert!(
            a.passed(),
            "violations: {:?}\nreport: {}",
            a.violations,
            a.report.to_json()
        );
        let m = a.report.metrics();
        assert_eq!(m["post_scrub_available"], m["pre_storm_available"]);
        assert!(m["breaker_trips"] >= 1.0);
        assert!(m["breaker_probes"] >= 1.0);
        assert_eq!(m["recovery_pose_delta_max"], 0.0);

        cfg.workdir = temp_dir("fleet_b");
        let b = run_fleet_chaos(&cfg).expect("fleet run b");
        assert_eq!(a.report.to_json(), b.report.to_json(), "byte-identical");
        for d in [&temp_dir("fleet_a"), &cfg.workdir.clone()] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut cfg = ChaosConfig::new(1, 30, temp_dir("seed_a"));
        cfg.backend = BackendKind::Float;
        cfg.checkpoint_every = 6;
        let a = run_chaos(&cfg).expect("run a");
        cfg.seed = 2;
        cfg.workdir = temp_dir("seed_b");
        let b = run_chaos(&cfg).expect("run b");
        assert!(a.passed() && b.passed());
        assert_ne!(a.report.to_json(), b.report.to_json());
        for d in [&temp_dir("seed_a"), &temp_dir("seed_b")] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

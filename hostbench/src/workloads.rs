//! The four workloads and the timed passes that drive them.
//!
//! All load comes from this one process in a closed loop: the next
//! frame is offered only after the previous one completed. A pass
//! builds the system under test and runs [`WARMUP`] frames (the timed
//! set-up: cold lowering, the LM calibration probe, the bootstrap
//! keyframe), then times frames until `--seconds` have passed, but never
//! fewer than one replay lap, whose fingerprint every run of a seed
//! reproduces exactly. Every host time is corrected to the host's
//! nominal speed ([`HostSpeed`]).

use crate::hostspeed::HostSpeed;
use crate::inputs::{PoseLog, Window};
use crate::report::median;
use crate::timed::{timed, SpanLog, Spans, TimedBackend};
use pimvo_core::pim_exec::BatchOptions;
use pimvo_core::{FloatBackend, PimBackend, Tracker, TrackerBackend, TrackerConfig, TrackingState};
use pimvo_pim::{ArrayConfig, DmaConfig, ExecStats, LoweredCache, PimMachine, SessionId};
use pimvo_scene::SequenceKind;
use pimvo_serve::{FleetScheduler, ServeError, SessionSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Frames (fleet: rounds) of the timed set-up.
pub const WARMUP: usize = 5;
/// An untraced pass sets up at least three times and for at least a
/// second; `setup_s` is the median.
const SETUPS: Setups = Setups {
    count: 3,
    seconds: 1.0,
};
/// Profiles of the fleet's sessions, one session each; the two `xyz`
/// sessions see independent sensor noise. (The fast `pan` profile is
/// left out: at 30 Hz without a pyramid it diverges on some noise
/// draws, and no seed may fail a run.)
const FLEET_PROFILES: [SequenceKind; 4] = [
    SequenceKind::Xyz,
    SequenceKind::Desk,
    SequenceKind::StrNtexFar,
    SequenceKind::Xyz,
];
/// Arrays in the fleet's shared pool (one pool thread per array).
const FLEET_ARRAYS: usize = 2;
/// Session deadline, in multiples of the session's solo frame cycles.
const DEADLINE_FACTOR: u64 = 4;
/// Op-trace frames each fleet session's flight recorder keeps.
const FLIGHT_FRAMES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Default PIM tracker: edge detection runs through the
    /// interpreter on pool strips; LM takes the calibrated scalar path.
    TrackPim,
    /// Same frames with every LM batch executed on the machine.
    TrackPimLmMachine,
    /// Same frames on the MCU float backend: no PIM layer runs.
    TrackMcu,
    /// Four sessions sharing a two-array pool with DMA and flight
    /// recorders armed, evicted to checkpoint bytes every second round.
    FleetChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrackPim,
        Workload::TrackPimLmMachine,
        Workload::TrackMcu,
        Workload::FleetChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrackPim => "track_pim",
            Workload::TrackPimLmMachine => "track_pim_lm_machine",
            Workload::TrackMcu => "track_mcu",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct frames rendered per stream. A run should time several
    /// laps of the window: on-machine LM frames are ten times slower
    /// and a fleet round is four frames, so their windows are shorter.
    fn window_len(self) -> usize {
        match self {
            Workload::TrackPim | Workload::TrackMcu => 31,
            Workload::TrackPimLmMachine => 21,
            Workload::FleetChurn => 8,
        }
    }
}

/// One run's settings.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Few frames, one set-up, short probes: a quick end-to-end check.
    pub smoke: bool,
}

/// How often a pass sets up: until both minimums are met.
#[derive(Clone, Copy)]
struct Setups {
    count: usize,
    seconds: f64,
}

impl Setups {
    fn more(self, done: &[f64]) -> bool {
        done.len() < self.count || done.iter().sum::<f64>() < self.seconds
    }
}

/// When a timed section ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After `seconds`, but not before `min` units.
    Time { seconds: f64, min: usize },
    /// After exactly this many units.
    Count(usize),
}

impl Stop {
    fn done(self, units: usize, start: Instant) -> bool {
        match self {
            Stop::Time { seconds, min } => units >= min && start.elapsed().as_secs_f64() >= seconds,
            Stop::Count(n) => units >= n,
        }
    }
}

/// What identical inputs must reproduce exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fingerprint {
    pub digest: u64,
    pub sim_cycles: u64,
    pub energy_mj: f64,
    pub ate_mm: f64,
}

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Outcome of one pass.
pub struct Pass {
    /// Host time of each timed unit: a frame, or a fleet round (its
    /// submissions, steps and eviction).
    pub unit_ms: Vec<f64>,
    /// Host time of each timed frame (fleet: of each step).
    pub frame_ms: Vec<f64>,
    /// Units per replay lap: units `n` and `n + lap` do the same work.
    pub lap: usize,
    /// Uncorrected wall time of the timed section.
    pub wall_s: f64,
    /// Mean host-speed correction of the timed units.
    pub speed_factor: f64,
    /// Simulated cycles of the timed section.
    pub sim_cycles: u64,
    pub setup_s: Vec<f64>,
    /// Over every frame of the pass.
    pub fingerprint: Fingerprint,
    /// Over warm-up plus the first lap.
    pub check: Fingerprint,
    /// Frames that ended `Lost` or missed their deadline.
    pub failed: u64,
    pub layers: Layers,
    pub spans: Option<Spans>,
}

/// Noise-filtered time of each position of a replay lap of `lap`
/// samples: the median, over the timed laps, of the times at that
/// position. Samples at one position do the same work in every lap,
/// while a shared host's speed drifts for seconds at a time with what
/// else runs on it; the per-position median keeps the work mix of a lap
/// and drops the slow stretches.
fn lap_profile(times: &[f64], lap: usize) -> Vec<f64> {
    (0..lap.min(times.len()))
        .map(|pos| {
            median(
                &times[pos..]
                    .iter()
                    .step_by(lap)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

impl Pass {
    pub fn frames(&self) -> usize {
        self.frame_ms.len()
    }

    fn frames_per_unit(&self) -> usize {
        self.frames() / self.unit_ms.len().max(1)
    }

    /// Frames per second over the units' lap profile.
    pub fn frames_per_s(&self) -> f64 {
        let profile = lap_profile(&self.unit_ms, self.lap);
        let frames = (profile.len() * self.frames_per_unit()) as f64;
        1e3 * frames / profile.iter().sum::<f64>()
    }

    /// Lap profile of the frame times, ms.
    pub fn frame_profile(&self) -> Vec<f64> {
        lap_profile(&self.frame_ms, self.lap * self.frames_per_unit())
    }

    fn put_frame_layers(&mut self, lm_iters: u64) {
        let n = self.frames() as f64;
        self.layers
            .insert("tracker.lm_iters".into(), lm_iters as f64 / n);
        self.layers.insert(
            "machine.sim_cycles_per_frame".into(),
            self.sim_cycles as f64 / n,
        );
    }
}

/// The rendered inputs of a workload, made once per run.
pub enum Inputs {
    Track(Window),
    Fleet {
        windows: Vec<Window>,
        /// Per-session deadline, cycles.
        deadlines: Vec<u64>,
    },
}

impl Inputs {
    /// Renders the workload's frames and, for the fleet, measures each
    /// session's solo frame cycles to set its deadline.
    pub fn new(w: Workload, s: &Settings) -> Result<Inputs, String> {
        let len = if s.smoke { 3 } else { w.window_len() };
        if w != Workload::FleetChurn {
            return Ok(Inputs::Track(Window::render(
                SequenceKind::Xyz,
                s.seed,
                0,
                len,
            )));
        }
        let windows: Vec<Window> = FLEET_PROFILES
            .iter()
            .enumerate()
            .map(|(i, &k)| Window::render(k, s.seed, i as u64, len))
            .collect();
        let deadlines = windows
            .iter()
            .map(|win| solo_cycles(win).map(|c| DEADLINE_FACTOR * c))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("solo calibration: {e}"))?;
        Ok(Inputs::Fleet { windows, deadlines })
    }

    /// One pass: its set-ups, then a timed section of `seconds` or, with
    /// `units`, of exactly that many frames (fleet: rounds).
    pub fn pass(
        &self,
        w: Workload,
        s: &Settings,
        speed: &mut HostSpeed,
        seconds: f64,
        units: Option<usize>,
        traced: bool,
    ) -> Result<Pass, String> {
        let lap = self.first_window().lap();
        let stop = match units {
            Some(n) => Stop::Count(n),
            None => Stop::Time { seconds, min: lap },
        };
        let setups = if s.smoke || traced {
            Setups {
                count: 1,
                seconds: 0.0,
            }
        } else {
            SETUPS
        };
        match self {
            Inputs::Track(win) => Ok(tracker_pass(w, win, speed, stop, setups, traced)),
            Inputs::Fleet { windows, deadlines } => {
                fleet_pass(windows, deadlines, speed, stop, setups, traced)
                    .map_err(|e| format!("fleet: {e}"))
            }
        }
    }

    /// The first stream's window (the probes' input).
    pub fn first_window(&self) -> &Window {
        match self {
            Inputs::Track(win) => win,
            Inputs::Fleet { windows, .. } => &windows[0],
        }
    }
}

// ---------------------------------------------------------------------
// Single-tracker workloads
// ---------------------------------------------------------------------

/// Builds the workload's tracker; with `spans`, its backend is wrapped
/// in a [`TimedBackend`].
pub fn build_tracker(w: Workload, spans: Option<&Spans>) -> Tracker {
    let backend: Box<dyn TrackerBackend> = match w {
        Workload::TrackMcu => Box::new(FloatBackend::new()),
        _ => {
            let mut b = PimBackend::with_options(BatchOptions {
                on_machine: w == Workload::TrackPimLmMachine,
                ..Default::default()
            });
            // a private memo table: every set-up pays the cold
            // lowering the first tracker of a process pays
            b.pool_mut().set_lowered_cache(LoweredCache::new());
            Box::new(b)
        }
    };
    let backend = match spans {
        Some(s) => Box::new(TimedBackend::new(backend, s.clone())),
        None => backend,
    };
    Tracker::with_backend(TrackerConfig::default(), backend)
}

fn fingerprint(tracker: &Tracker, log: &PoseLog) -> Fingerprint {
    let st = tracker.stats();
    Fingerprint {
        digest: log.digest(),
        sim_cycles: st.total_cycles(),
        energy_mj: st.energy_mj,
        ate_mm: log.ate_mm(),
    }
}

fn tracker_pass(
    w: Workload,
    win: &Window,
    speed: &mut HostSpeed,
    stop: Stop,
    setups: Setups,
    traced: bool,
) -> Pass {
    let spans = traced.then(SpanLog::shared);
    let mut setup_s = Vec::new();
    let mut built = None;
    while setups.more(&setup_s) {
        speed.probe();
        let start = Instant::now();
        let mut tracker = build_tracker(w, spans.as_ref());
        let mut log = PoseLog::new();
        for k in 0..WARMUP {
            let f = win.at(k);
            let r = tracker.process_frame(&f.gray, &f.depth);
            log.push(r.pose_wc, f.gt_wc);
        }
        setup_s.push(start.elapsed().as_secs_f64() * speed.factor());
        built = Some((tracker, log));
    }
    let (mut tracker, mut log) = built.expect("at least one set-up");
    if let Some(s) = &spans {
        s.borrow_mut().clear();
    }

    let before = tracker.stats();
    let cache_before = tracker
        .pool_mut()
        .map(|p| p.lowered_cache().stats())
        .unwrap_or_default();
    let (mut lm_iters, mut lost) = (0, 0);
    let mut frame_ms = Vec::new();
    let mut raw_ms = 0.0;
    let mut check = None;
    let start = Instant::now();
    while !stop.done(frame_ms.len(), start) {
        let f = win.at(WARMUP + frame_ms.len());
        speed.probe();
        let t = Instant::now();
        let r = tracker.process_frame(&f.gray, &f.depth);
        let end = Instant::now();
        if let Some(s) = &spans {
            s.borrow_mut().record("frame", t, end);
        }
        let ms = end.duration_since(t).as_secs_f64() * 1e3;
        raw_ms += ms;
        frame_ms.push(ms * speed.factor());
        log.push(r.pose_wc, f.gt_wc);
        lm_iters += r.iterations as u64;
        lost += u64::from(r.state == TrackingState::Lost);
        if frame_ms.len() == win.lap() {
            check = Some(fingerprint(&tracker, &log));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let after = tracker.stats();
    let fp = fingerprint(&tracker, &log);
    let mut pass = Pass {
        speed_factor: frame_ms.iter().sum::<f64>() / raw_ms,
        unit_ms: frame_ms.clone(),
        frame_ms,
        lap: win.lap(),
        wall_s,
        sim_cycles: after.total_cycles() - before.total_cycles(),
        setup_s,
        fingerprint: fp,
        check: check.unwrap_or(fp),
        failed: lost,
        layers: Layers::new(),
        spans: None,
    };
    let Some(spans) = spans else {
        return pass;
    };

    // per-layer values, from the spans and counters of the timed section;
    // span times are corrected by the section's mean factor
    pass.put_frame_layers(lm_iters);
    let n = pass.frames() as f64;
    let factor = pass.speed_factor;
    let ms_per_frame = |ns: u64| ns as f64 / 1e6 / n * factor;
    let log = spans.borrow();
    let (frame_ns, _) = log.total("frame");
    let mut backend_ns = 0;
    for call in [
        "detect_edges",
        "detect_edges_fast",
        "downsample",
        "linearize",
    ] {
        let (ns, calls) = log.total(call);
        backend_ns += ns;
        if calls == 0 {
            continue;
        }
        let l = &mut pass.layers;
        l.insert(format!("backend.{call}.ms"), ms_per_frame(ns));
        l.insert(format!("backend.{call}.share"), ns as f64 / frame_ns as f64);
        l.insert(format!("backend.{call}.calls"), calls as f64 / n);
    }
    pass.layers.insert(
        "tracker.self_ms".into(),
        ms_per_frame(frame_ns.saturating_sub(backend_ns)),
    );
    drop(log);
    if let (Some(a), Some(b)) = (&after.pim, &before.pim) {
        put_machine_layers(&mut pass.layers, &a.try_since(b).unwrap_or_default(), n);
    }
    if let Some(pool) = tracker.pool_mut() {
        let c = pool.lowered_cache().stats();
        pass.layers.insert(
            "cache.hits_per_frame".into(),
            (c.hits - cache_before.hits) as f64 / n,
        );
        pass.layers.insert("cache.misses".into(), c.misses as f64);
    }
    pass.spans = Some(spans);
    pass
}

fn put_machine_layers(layers: &mut Layers, d: &ExecStats, n: f64) {
    layers.insert(
        "machine.sram_reads_per_frame".into(),
        d.sram_reads as f64 / n,
    );
    layers.insert(
        "machine.sram_writes_per_frame".into(),
        d.sram_writes as f64 / n,
    );
    layers.insert(
        "machine.host_io_rows_per_frame".into(),
        d.host_io_rows as f64 / n,
    );
}

/// Replays warm-up plus `frames` timed frames on the calibrated fast
/// path and returns the pose digest (equal to the on-machine LM's when
/// both evaluate the same normal equations).
pub fn fast_path_digest(win: &Window, frames: usize) -> u64 {
    let mut tracker = build_tracker(Workload::TrackPim, None);
    let mut log = PoseLog::new();
    for k in 0..WARMUP + frames {
        let f = win.at(k);
        let r = tracker.process_frame(&f.gray, &f.depth);
        log.push(r.pose_wc, f.gt_wc);
    }
    log.digest()
}

// ---------------------------------------------------------------------
// Fleet workload
// ---------------------------------------------------------------------

fn new_fleet() -> FleetScheduler {
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6)).dma(DmaConfig::default());
    let mut fleet = FleetScheduler::from_builder(&builder, FLEET_ARRAYS);
    // a dump is written only on a deadline miss or quarantine
    fleet.set_flight_dir(".");
    fleet
}

/// Worst frame cycles of a session running alone on the fleet pool,
/// over the warm-up frames.
fn solo_cycles(win: &Window) -> Result<u64, ServeError> {
    let mut fleet = new_fleet();
    let id = SessionId(1);
    fleet.add_session(id, SessionSpec::new(TrackerConfig::default()));
    let mut worst = 0;
    for k in 0..WARMUP {
        let f = win.at(k);
        fleet.submit_frame(id, f.gray.clone(), f.depth.clone())?;
        while let Some(o) = fleet.step()? {
            worst = worst.max(o.latency_cycles);
        }
    }
    Ok(worst)
}

fn session_id(i: usize) -> SessionId {
    SessionId(i as u32 + 1)
}

/// Bookkeeping of a fleet pass's rounds.
#[derive(Default)]
struct Rounds {
    frame_ms: Vec<f64>,
    restores: u64,
    lm_iters: u64,
    missed: u64,
    failed: u64,
}

/// One round: a frame per session, steps until idle, and on odd rounds
/// eviction of every idle session. A submission the fleet refuses is a
/// [`ServeError`] and fails the run.
fn round(
    fleet: &mut FleetScheduler,
    windows: &[Window],
    r: usize,
    logs: &mut [PoseLog],
    acc: &mut Rounds,
    spans: Option<&Spans>,
) -> Result<(), ServeError> {
    for (i, win) in windows.iter().enumerate() {
        let f = win.at(r);
        let (gray, depth) = (f.gray.clone(), f.depth.clone());
        match spans {
            Some(s) => timed(s, "submit", || {
                fleet.submit_frame(session_id(i), gray, depth)
            })?,
            None => fleet.submit_frame(session_id(i), gray, depth)?,
        }
    }
    loop {
        let resident: Option<Vec<bool>> = spans.map(|_| {
            (0..windows.len())
                .map(|i| fleet.is_resident(session_id(i)))
                .collect()
        });
        let t = Instant::now();
        let Some(o) = fleet.step()? else { break };
        let end = Instant::now();
        acc.frame_ms.push(end.duration_since(t).as_secs_f64() * 1e3);
        let i = (o.session.0 - 1) as usize;
        if let (Some(s), Some(res)) = (spans, &resident) {
            let name = if res[i] {
                "step.resident"
            } else {
                "step.restore"
            };
            s.borrow_mut().record(name, t, end);
            acc.restores += u64::from(!res[i]);
        }
        logs[i].push(o.result.pose_wc, windows[i].at(r).gt_wc);
        acc.lm_iters += o.result.iterations as u64;
        acc.missed += u64::from(o.missed_deadline);
        acc.failed += u64::from(o.result.state == TrackingState::Lost || o.missed_deadline);
    }
    if r % 2 == 1 {
        match spans {
            Some(s) => timed(s, "evict", || fleet.evict_idle()),
            None => fleet.evict_idle(),
        };
    }
    Ok(())
}

fn fleet_fingerprint(fleet: &FleetScheduler, logs: &[PoseLog]) -> Fingerprint {
    let mut digest = PoseLog::new();
    for l in logs {
        digest.mix(l.digest());
    }
    let pool = fleet.pool();
    let energy = pool.merged_stats().energy(pool.array(0).cost_model());
    Fingerprint {
        digest: digest.digest(),
        sim_cycles: fleet.now_cycles(),
        energy_mj: energy.total_mj(),
        ate_mm: logs.iter().map(PoseLog::ate_mm).fold(0.0, f64::max),
    }
}

fn fleet_pass(
    windows: &[Window],
    deadlines: &[u64],
    speed: &mut HostSpeed,
    stop: Stop,
    setups: Setups,
    traced: bool,
) -> Result<Pass, ServeError> {
    let spans = traced.then(SpanLog::shared);
    let mut setup_s = Vec::new();
    let mut built = None;
    while setups.more(&setup_s) {
        speed.probe();
        let start = Instant::now();
        let mut fleet = new_fleet();
        for (i, &d) in deadlines.iter().enumerate() {
            let spec = SessionSpec::new(TrackerConfig::default())
                .deadline_cycles(d)
                .flight_recorder(FLIGHT_FRAMES);
            fleet.add_session(session_id(i), spec);
        }
        let mut logs = vec![PoseLog::new(); windows.len()];
        for r in 0..WARMUP {
            round(
                &mut fleet,
                windows,
                r,
                &mut logs,
                &mut Rounds::default(),
                None,
            )?;
        }
        setup_s.push(start.elapsed().as_secs_f64() * speed.factor());
        built = Some((fleet, logs));
    }
    let (mut fleet, mut logs) = built.expect("at least one set-up");

    let lap = windows[0].lap();
    let cycles_before = fleet.now_cycles();
    let stats_before = fleet.pool().merged_stats();
    let dma_before = fleet.pool().dma_health();
    let cache_before = fleet.lowered_stats();
    let mut acc = Rounds::default();
    let mut unit_ms = Vec::new();
    let mut raw_ms = 0.0;
    let mut check = None;
    let start = Instant::now();
    while !stop.done(unit_ms.len(), start) {
        speed.probe();
        let t = Instant::now();
        let r = WARMUP + unit_ms.len();
        let steps = acc.frame_ms.len();
        round(&mut fleet, windows, r, &mut logs, &mut acc, spans.as_ref())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let factor = speed.factor();
        raw_ms += ms;
        unit_ms.push(ms * factor);
        for step_ms in &mut acc.frame_ms[steps..] {
            *step_ms *= factor;
        }
        if unit_ms.len() == lap {
            check = Some(fleet_fingerprint(&fleet, &logs));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let fp = fleet_fingerprint(&fleet, &logs);
    let mut pass = Pass {
        speed_factor: unit_ms.iter().sum::<f64>() / raw_ms,
        unit_ms,
        frame_ms: std::mem::take(&mut acc.frame_ms),
        lap,
        wall_s,
        sim_cycles: fleet.now_cycles() - cycles_before,
        setup_s,
        fingerprint: fp,
        check: check.unwrap_or(fp),
        failed: acc.failed,
        layers: Layers::new(),
        spans: None,
    };
    let Some(spans) = spans else {
        return Ok(pass);
    };

    pass.put_frame_layers(acc.lm_iters);
    let n = pass.frames() as f64;
    let factor = pass.speed_factor;
    let log = spans.borrow();
    let mean_ms = |name: &str| {
        let (ns, calls) = log.total(name);
        ns as f64 / 1e6 / calls.max(1) as f64 * factor
    };
    let l = &mut pass.layers;
    l.insert("fleet.submit_us".into(), 1e3 * mean_ms("submit"));
    l.insert("fleet.evict_ms".into(), mean_ms("evict"));
    l.insert("fleet.step_ms.restore".into(), mean_ms("step.restore"));
    l.insert("fleet.step_ms.resident".into(), mean_ms("step.resident"));
    l.insert("fleet.restore_frac".into(), acc.restores as f64 / n);
    l.insert("fleet.deadline_misses".into(), acc.missed as f64);
    let dma = fleet.pool().dma_health().since(&dma_before);
    l.insert(
        "dma.stall_cycles_per_frame".into(),
        dma.stall_cycles as f64 / n,
    );
    l.insert("dma.retries_per_frame".into(), dma.retries as f64 / n);
    let stats = fleet.pool().merged_stats();
    put_machine_layers(l, &stats.try_since(&stats_before).unwrap_or_default(), n);
    let c = fleet.lowered_stats();
    l.insert(
        "cache.hits_per_frame".into(),
        (c.hits - cache_before.hits) as f64 / n,
    );
    l.insert("cache.misses".into(), c.misses as f64);
    drop(log);
    pass.spans = Some(spans);
    Ok(pass)
}

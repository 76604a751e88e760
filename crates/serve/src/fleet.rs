//! The fleet scheduler: N tracker sessions time-sharing one shared
//! [`PimArrayPool`], with admission control, EDF + fair-share
//! scheduling, degrade-ladder load shedding and checkpoint eviction.

use crate::flight::{DumpReason, FlightDump, FlightFrame, FlightRecorder};
use crate::session::{BreakerConfig, ServeError, SessionSpec, SessionStats, StepOutcome};
use pimvo_core::{
    BackendKind, Checkpoint, DegradeRung, KeptPyramid, PimBackend, Tracker, TrackingState,
};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_pim::{
    ArrayConfig, LoweredCache, LoweredCacheStats, PimArrayPool, PimMachine, PimMachineBuilder,
    PoolSnapshot, SessionId,
};
use pimvo_telemetry::container::{self, ContainerError, ContainerError::Malformed, Reader, Writer};
use pimvo_telemetry::{EventKind, Severity, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

/// Circuit-breaker state of one session
/// ([`crate::BreakerConfig`] on the spec arms it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally.
    Closed,
    /// Tripped: the session is not scheduled until the fleet's virtual
    /// clock reaches `until`.
    Open {
        /// Virtual cycle at which the open interval elapses.
        until: u64,
        /// The open interval that was applied (doubles per failed
        /// probe, up to [`crate::BreakerConfig::backoff_max`]).
        backoff: u64,
    },
    /// Backoff elapsed: the session's next frame runs as a single
    /// probe — success closes the breaker, failure re-trips it with a
    /// longer backoff.
    HalfOpen {
        /// The open interval the last trip applied.
        backoff: u64,
    },
}

/// Residency of a session's tracker state.
enum Residency {
    /// Never ran — no state beyond the spec.
    Cold,
    /// Tracker in memory (holds a one-array staging pool while not
    /// running; the shared fleet pool is swapped in per frame).
    Resident(Box<Tracker>),
    /// Serialized checkpoint — zero resident arrays. The bytes are the
    /// session's state; beside them the session keeps the host-side
    /// keyframe tables its tracker built (1.46 MB at QVGA with one
    /// pyramid level), which the restore adopts when they match the
    /// checkpoint's edge masks instead of rebuilding them. A session
    /// recovered from a manifest has none.
    Evicted {
        bytes: Vec<u8>,
        pyramid: Option<KeptPyramid>,
    },
}

/// One frame waiting in a session's admission queue.
struct QueuedFrame {
    gray: GrayImage,
    depth: DepthImage,
    /// Fleet virtual time (shared-pool `wall_cycles`) at submission.
    submitted_at: u64,
    /// `submitted_at + deadline_cycles`, for deadline sessions.
    deadline_at: Option<u64>,
}

struct Session {
    spec: SessionSpec,
    residency: Residency,
    queue: VecDeque<QueuedFrame>,
    stats: SessionStats,
    /// Ladder rung the fleet pins the session to (load shedding).
    shed_rung: DegradeRung,
    breaker: BreakerState,
    /// Completed-frame counter values at recent failures, pruned to
    /// the breaker's failure window.
    failure_marks: VecDeque<u64>,
    /// Last-N-frames op-trace ring; `Some` once the first frame of a
    /// session with [`SessionSpec::flight_recorder`] armed completes.
    flight: Option<FlightRecorder>,
}

/// Deterministic multi-tenant scheduler over one shared array pool.
///
/// See the crate docs for the serving model. All timing is *virtual*:
/// the shared pool's [`PimArrayPool::wall_cycles`] ledger is the fleet
/// clock, so latencies, deadlines and scheduling order are
/// reproducible bit-for-bit across runs and host machines.
pub struct FleetScheduler {
    /// The shared fleet pool. Swapped into the running session's
    /// backend for the duration of exactly one frame.
    shared: PimArrayPool,
    sessions: BTreeMap<SessionId, Session>,
    telemetry: Telemetry,
    /// Fleet-wide lowered-program memo table: shared by the pool and
    /// every tracker built for a session, so N sessions lower each
    /// distinct `(program, level, config)` triple exactly once.
    lowered: LoweredCache,
    /// Directory flight-recorder dumps are written to.
    flight_dir: PathBuf,
}

impl FleetScheduler {
    /// Creates a fleet over `arrays` six-bank QVGA arrays.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn new(arrays: usize) -> Self {
        Self::from_builder(&PimMachine::builder(ArrayConfig::qvga_banks(6)), arrays)
    }

    /// Creates a fleet whose shared arrays are stamped from an explicit
    /// machine builder (fault models, custom cost tables).
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero, or if the builder's geometry lacks
    /// rows a session's PIM backend works in
    /// ([`PimBackend::check_geometry`]): every frame runs on these
    /// arrays, so it fails here rather than on the first step.
    pub fn from_builder(builder: &PimMachineBuilder, arrays: usize) -> Self {
        let lowered = LoweredCache::new();
        let mut shared = builder.build_pool(arrays);
        if let Err(e) = PimBackend::check_geometry(shared.array(0).config()) {
            panic!("FleetScheduler::from_builder: array geometry too small: {e}");
        }
        shared.set_lowered_cache(lowered.clone());
        FleetScheduler {
            shared,
            sessions: BTreeMap::new(),
            telemetry: Telemetry::off(),
            lowered,
            flight_dir: std::env::temp_dir(),
        }
    }

    /// Replaces the fleet's lowered-program cache (a fresh private one
    /// is created by default). The shared pool and every tracker built
    /// *after* this call use the new handle; already-resident trackers
    /// keep the one they were built with.
    pub fn set_lowered_cache(&mut self, cache: LoweredCache) {
        self.shared.set_lowered_cache(cache.clone());
        self.lowered = cache;
    }

    /// Hit/miss/size counters of the fleet's lowered-program cache.
    /// `misses` counts distinct `(program, level, config)` triples
    /// lowered — it stays flat however many sessions join the fleet.
    #[must_use]
    pub fn lowered_stats(&self) -> LoweredCacheStats {
        self.lowered.stats()
    }

    /// Sets the directory flight-recorder dumps are written to
    /// (default: the system temp directory). The directory must exist.
    pub fn set_flight_dir(&mut self, dir: impl Into<PathBuf>) {
        self.flight_dir = dir.into();
    }

    /// Attaches a telemetry handle: pool phases on the shared pool,
    /// per-frame tracker spans and the `pimvo_serve_*` fleet counters.
    /// Attach before registering sessions — already-resident trackers
    /// keep the handle they were built with.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.shared.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Registers a session. Cold until its first frame runs: no
    /// tracker, no arrays, no checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub fn add_session(&mut self, id: SessionId, spec: SessionSpec) {
        let prev = self.sessions.insert(
            id,
            Session {
                spec,
                residency: Residency::Cold,
                queue: VecDeque::new(),
                stats: SessionStats::default(),
                shed_rung: DegradeRung::Full,
                breaker: BreakerState::Closed,
                failure_marks: VecDeque::new(),
                flight: None,
            },
        );
        assert!(prev.is_none(), "session {} already registered", id.0);
    }

    /// The fleet's virtual clock: the shared pool's wall-cycle ledger.
    pub fn now_cycles(&self) -> u64 {
        self.shared.wall_cycles()
    }

    /// Shared view of the fleet pool.
    pub fn pool(&self) -> &PimArrayPool {
        &self.shared
    }

    /// Exclusive access to the shared fleet pool — fault-injection
    /// harnesses and scrub/quarantine drivers reach the pool through
    /// here between frames.
    pub fn pool_mut(&mut self) -> &mut PimArrayPool {
        &mut self.shared
    }

    /// The session's circuit-breaker state ([`BreakerState::Closed`]
    /// for sessions without a breaker armed).
    pub fn breaker_state(&self, id: SessionId) -> Option<BreakerState> {
        self.sessions.get(&id).map(|s| s.breaker)
    }

    /// Registered session ids, in order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Serving statistics of a session.
    pub fn stats(&self, id: SessionId) -> Option<&SessionStats> {
        self.sessions.get(&id).map(|s| &s.stats)
    }

    /// Whether the session currently holds a resident tracker.
    pub fn is_resident(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id).map(|s| &s.residency),
            Some(Residency::Resident(_))
        )
    }

    /// Total backlogged frames across every session.
    pub fn backlog(&self) -> usize {
        self.sessions.values().map(|s| s.queue.len()).sum()
    }

    /// Offers a frame to the session's admission queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an unregistered id;
    /// [`ServeError::QueueFull`] when admission control sheds the
    /// frame (the shed is counted in the session's stats).
    pub fn submit_frame(
        &mut self,
        id: SessionId,
        gray: GrayImage,
        depth: DepthImage,
    ) -> Result<(), ServeError> {
        let now = self.shared.wall_cycles();
        let sess = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        sess.stats.submitted += 1;
        if sess.queue.len() >= sess.spec.max_queue {
            sess.stats.shed += 1;
            if self.telemetry.is_enabled() {
                self.telemetry.counter_add("pimvo_serve_shed_total", 1.0);
            }
            return Err(ServeError::QueueFull {
                session: id,
                capacity: sess.spec.max_queue,
            });
        }
        let deadline_at = sess.spec.deadline_cycles.map(|d| now + d);
        sess.queue.push_back(QueuedFrame {
            gray,
            depth,
            submitted_at: now,
            deadline_at,
        });
        Ok(())
    }

    /// Runs the next frame (earliest deadline first; least-served, then
    /// lowest session id on ties) to completion on the shared pool.
    /// Returns `Ok(None)` when every queue is empty.
    ///
    /// # Errors
    ///
    /// [`ServeError::Restore`] if the chosen session was evicted and
    /// its checkpoint fails to restore (the frame stays queued).
    pub fn step(&mut self) -> Result<Option<StepOutcome>, ServeError> {
        self.sweep_breakers();
        let Some(id) = self.pick_next() else {
            return Ok(None);
        };
        self.ensure_resident(id)?;

        // flight recorder: record this frame's op trace on the shared
        // pool iff the session armed one; otherwise keep the pool
        // disarmed so recording can never leak across sessions
        let flight_frames = self.sessions[&id].spec.flight_recorder;
        match flight_frames {
            Some(_) => {
                if !self.shared.op_recorders_armed() {
                    self.shared
                        .arm_op_recorders(pimvo_pim::DEFAULT_OP_RING_CAPACITY);
                }
                self.shared.set_op_session(id.0);
                // discard anything recorded before this frame started
                self.shared.discard_op_trace();
            }
            None => {
                if self.shared.op_recorders_armed() {
                    self.shared.disarm_op_recorders();
                }
            }
        }

        let start = self.shared.wall_cycles();
        let health_before = self.shared.health();
        let dma_before = self.shared.dma_health();
        let lower_before = self.lowered.stats();
        let sess = self.sessions.get_mut(&id).expect("picked session exists");
        let probing = matches!(sess.breaker, BreakerState::HalfOpen { .. });
        if probing {
            sess.stats.breaker_probes += 1;
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter_add("pimvo_serve_breaker_probes_total", 1.0);
            }
        }
        let frame = sess.queue.pop_front().expect("picked session has work");
        let Residency::Resident(tracker) = &mut sess.residency else {
            unreachable!("ensure_resident loaded the tracker");
        };

        // Pin the fleet's shed rung, then run the frame on the shared
        // pool: the tracker's one-array staging pool is parked in
        // `self.shared` for the duration.
        tracker.set_shed_rung(sess.shed_rung);
        let pool = tracker
            .pool_mut()
            .expect("serve sessions run the PIM backend");
        std::mem::swap(pool, &mut self.shared);
        let result = tracker.process_frame(&frame.gray, &frame.depth);
        let pool = tracker
            .pool_mut()
            .expect("serve sessions run the PIM backend");
        std::mem::swap(pool, &mut self.shared);
        // Frame-end settle: drain in-flight DMA and absorb trailing
        // host I/O (result reads issued after the frame's last
        // barrier) into the wall clock. Latency stays honest and a
        // checkpoint taken between frames owes nothing — without this
        // the uninterrupted and recovered clocks diverge by exactly
        // the pending transfer cycles.
        self.shared.dma_settle();
        let end = self.shared.wall_cycles();

        let latency = end - frame.submitted_at;
        let missed = frame.deadline_at.is_some_and(|d| end > d);
        sess.stats.completed += 1;
        sess.stats.latencies_cycles.push(latency);
        if missed {
            sess.stats.deadline_misses += 1;
        }
        if let Some(d) = sess.spec.deadline_cycles {
            let prev = sess.shed_rung;
            sess.shed_rung = prev.next(latency, d);
            if sess.shed_rung != prev && self.telemetry.is_enabled() {
                let session = id.0.to_string();
                self.telemetry.gauge_set_labeled(
                    "pimvo_serve_shed_rung",
                    &[("session", &session)],
                    sess.shed_rung.index() as f64,
                );
                self.telemetry.event(
                    EventKind::DegradeRungChanged,
                    &[
                        ("session", session),
                        ("from", prev.name().to_string()),
                        ("to", sess.shed_rung.name().to_string()),
                    ],
                );
            }
        }
        let lost = matches!(result.state, TrackingState::Lost);
        if lost {
            sess.stats.lost_frames += 1;
        }
        // fault/quarantine attribution: whatever the shared pool
        // detected or quarantined during this frame is this session's
        // footprint (scrub passes can shrink counters, hence saturating)
        let health_after = self.shared.health();
        sess.stats.pool_detected += health_after
            .total_detected()
            .saturating_sub(health_before.total_detected());
        let quarantine_delta = health_after
            .quarantined_count()
            .saturating_sub(health_before.quarantined_count())
            as u64;
        sess.stats.pool_quarantines += quarantine_delta;
        // transfer-path attribution: channel faults absorbed by the
        // retry ladder are telemetry; a channel *quarantine* means the
        // session's transfers degraded to the synchronous port, which
        // counts against the breaker window like a lost frame
        let dma_delta = self.shared.dma_health().since(&dma_before);
        sess.stats.dma_faults += dma_delta.faults();
        sess.stats.dma_retries += dma_delta.retries;
        sess.stats.dma_quarantines += dma_delta.quarantines;
        // lowering attribution: cache lookups issued while this
        // session's frame ran. First frames miss (and populate the
        // shared table); every later session's frames hit.
        let lower_after = self.lowered.stats();
        let lower_hit_delta = lower_after.hits.saturating_sub(lower_before.hits);
        let lower_miss_delta = lower_after.misses.saturating_sub(lower_before.misses);
        sess.stats.lower_hits += lower_hit_delta;
        sess.stats.lower_misses += lower_miss_delta;
        if self.telemetry.is_enabled() {
            if lower_hit_delta > 0 {
                self.telemetry
                    .counter_add("pimvo_serve_lower_hits_total", lower_hit_delta as f64);
            }
            if lower_miss_delta > 0 {
                self.telemetry
                    .counter_add("pimvo_serve_lower_misses_total", lower_miss_delta as f64);
            }
            self.telemetry
                .gauge_set("pimvo_serve_lower_cache_bytes", lower_after.bytes as f64);
        }
        let dma_quarantined = dma_delta.quarantines > 0;
        let tripped = Self::update_breaker(sess, probing, lost || missed || dma_quarantined, end);
        if let Some(cap) = flight_frames {
            if let Some(trace) = self.shared.drain_op_trace() {
                let ring = sess.flight.get_or_insert_with(|| FlightRecorder::new(cap));
                ring.push(FlightFrame {
                    frame: sess.stats.completed,
                    wall_delta: end - start,
                    trace,
                });
                let reason = if tripped {
                    Some(DumpReason::BreakerTrip)
                } else if missed {
                    Some(DumpReason::DeadlineMiss)
                } else if quarantine_delta > 0 {
                    Some(DumpReason::Quarantine)
                } else if dma_quarantined {
                    Some(DumpReason::DmaQuarantine)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    let dump = FlightDump {
                        session: id.0,
                        reason,
                        frames: ring.snapshot(),
                    };
                    let path = self.flight_dir.join(format!(
                        "pimvo_flight_s{}_f{}_{}.bin",
                        id.0,
                        sess.stats.completed,
                        reason.as_str()
                    ));
                    match dump.save(&path) {
                        Ok(()) => {
                            sess.stats.flight_dumps.push(path.display().to_string());
                            if self.telemetry.is_enabled() {
                                self.telemetry
                                    .counter_add("pimvo_serve_flight_dumps_total", 1.0);
                                self.telemetry.log(
                                    Severity::Warn,
                                    "flight recorder dumped",
                                    &[
                                        ("session", id.0.to_string()),
                                        ("reason", reason.as_str().to_string()),
                                        ("path", path.display().to_string()),
                                    ],
                                );
                            }
                        }
                        Err(e) => {
                            if self.telemetry.is_enabled() {
                                self.telemetry.log(
                                    Severity::Error,
                                    "flight recorder dump failed",
                                    &[("session", id.0.to_string()), ("error", e.to_string())],
                                );
                            }
                        }
                    }
                }
            }
        }
        let outcome = StepOutcome {
            session: id,
            result,
            latency_cycles: latency,
            queue_cycles: start - frame.submitted_at,
            missed_deadline: missed,
            shed_rung: sess.shed_rung,
        };
        if tripped {
            // isolate the poisoned session through the existing
            // checkpoint eviction path; its queue stays intact and the
            // head frame becomes the half-open probe after backoff
            let until = match self.sessions[&id].breaker {
                BreakerState::Open { until, .. } => until,
                _ => unreachable!("a tripped breaker is open"),
            };
            self.evict(id)?;
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter_add("pimvo_serve_breaker_trips_total", 1.0);
                self.telemetry.log(
                    Severity::Error,
                    "session circuit breaker tripped",
                    &[
                        ("session", id.0.to_string()),
                        ("reopen_at_cycle", until.to_string()),
                    ],
                );
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("pimvo_serve_frames_total", 1.0);
            if missed {
                self.telemetry
                    .counter_add("pimvo_serve_deadline_miss_total", 1.0);
            }
        }
        Ok(Some(outcome))
    }

    /// Applies one completed frame's verdict to the session's breaker.
    /// Returns whether the breaker tripped open on this frame.
    fn update_breaker(sess: &mut Session, probing: bool, failed: bool, now: u64) -> bool {
        let Some(cfg) = sess.spec.breaker else {
            return false;
        };
        if failed {
            sess.stats.failures += 1;
        }
        if probing {
            if failed {
                // failed probe: re-trip with exponential backoff
                let prev = match sess.breaker {
                    BreakerState::HalfOpen { backoff } => backoff,
                    _ => cfg.backoff_base,
                };
                let next = prev
                    .saturating_mul(BreakerConfig::BACKOFF_FACTOR)
                    .min(cfg.backoff_max());
                sess.breaker = BreakerState::Open {
                    until: now + next,
                    backoff: next,
                };
                sess.stats.breaker_trips += 1;
            } else {
                sess.breaker = BreakerState::Closed;
            }
            sess.failure_marks.clear();
            return failed;
        }
        if !failed {
            return false;
        }
        sess.failure_marks.push_back(sess.stats.completed);
        while sess
            .failure_marks
            .front()
            .is_some_and(|&m| sess.stats.completed - m >= BreakerConfig::FAILURE_WINDOW)
        {
            sess.failure_marks.pop_front();
        }
        if (sess.failure_marks.len() as u32) < cfg.trip_threshold {
            return false;
        }
        let backoff = cfg.backoff_base.min(cfg.backoff_max());
        sess.breaker = BreakerState::Open {
            until: now + backoff,
            backoff,
        };
        sess.stats.breaker_trips += 1;
        sess.failure_marks.clear();
        true
    }

    /// Advances breaker states against the virtual clock: elapsed open
    /// intervals become half-open probes. When *every* backlogged
    /// session is open — the shared pool would sit idle — the open
    /// session with the earliest reopen time probes early: backoff
    /// protects the pool from a noisy session, not the pool from work.
    fn sweep_breakers(&mut self) {
        let now = self.shared.wall_cycles();
        let mut any_ready = false;
        for s in self.sessions.values_mut() {
            if let BreakerState::Open { until, backoff } = s.breaker {
                if now >= until {
                    s.breaker = BreakerState::HalfOpen { backoff };
                }
            }
            if !s.queue.is_empty() && !matches!(s.breaker, BreakerState::Open { .. }) {
                any_ready = true;
            }
        }
        if any_ready {
            return;
        }
        let earliest = self
            .sessions
            .iter()
            .filter(|(_, s)| !s.queue.is_empty())
            .filter_map(|(id, s)| match s.breaker {
                BreakerState::Open { until, backoff } => Some((until, *id, backoff)),
                _ => None,
            })
            .min();
        if let Some((_, id, backoff)) = earliest {
            let s = self.sessions.get_mut(&id).expect("id from iteration");
            s.breaker = BreakerState::HalfOpen { backoff };
        }
    }

    /// Drains every queue, one frame at a time, in scheduling order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ServeError::Restore`] (frames already
    /// completed are returned by value inside the error-free case
    /// only; the scheduler state itself stays consistent).
    pub fn run_until_idle(&mut self) -> Result<Vec<StepOutcome>, ServeError> {
        let mut out = Vec::new();
        while let Some(o) = self.step()? {
            out.push(o);
        }
        Ok(out)
    }

    /// Evicts a resident session to checkpoint bytes: the tracker (and
    /// its staging array) is dropped, leaving zero resident arrays. The
    /// keyframe tables it built are moved out of it first and kept
    /// beside the bytes, so the restore can adopt them instead of
    /// rebuilding them ([`Tracker::restore_reusing`]). Returns `false`
    /// if the session was already cold or evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an unregistered id.
    pub fn evict(&mut self, id: SessionId) -> Result<bool, ServeError> {
        let sess = self
            .sessions
            .get_mut(&id)
            .ok_or(ServeError::UnknownSession(id))?;
        let residency = std::mem::replace(&mut sess.residency, Residency::Cold);
        let Residency::Resident(tracker) = residency else {
            sess.residency = residency;
            return Ok(false);
        };
        let bytes = tracker.checkpoint().to_bytes();
        sess.residency = Residency::Evicted {
            bytes,
            pyramid: tracker.into_pyramid(),
        };
        sess.stats.evictions += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("pimvo_serve_evictions_total", 1.0);
        }
        Ok(true)
    }

    /// Evicts every resident session whose queue is empty (the cold
    /// set). Returns how many were evicted.
    pub fn evict_idle(&mut self) -> usize {
        let idle: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.queue.is_empty() && matches!(s.residency, Residency::Resident(_)))
            .map(|(id, _)| *id)
            .collect();
        for id in &idle {
            let _ = self.evict(*id);
        }
        idle.len()
    }

    /// EDF with least-served fair-share: the backlogged session with
    /// the earliest head-frame deadline wins; `None` deadlines sort
    /// last (background). Ties: fewest completed frames, then lowest
    /// session id — a total, deterministic order.
    /// Sessions whose circuit breaker is open are not candidates.
    fn pick_next(&self) -> Option<SessionId> {
        self.sessions
            .iter()
            .filter(|(_, s)| !s.queue.is_empty())
            .filter(|(_, s)| !matches!(s.breaker, BreakerState::Open { .. }))
            .min_by_key(|(id, s)| {
                let deadline = s
                    .queue
                    .front()
                    .and_then(|f| f.deadline_at)
                    .unwrap_or(u64::MAX);
                (deadline, s.stats.completed, **id)
            })
            .map(|(id, _)| *id)
    }

    /// Loads the session's tracker: builds it cold, or restores it
    /// from its eviction checkpoint (adopting the kept keyframe tables
    /// when they match it).
    fn ensure_resident(&mut self, id: SessionId) -> Result<(), ServeError> {
        let telemetry = self.telemetry.clone();
        let lowered = self.lowered.clone();
        let sess = self.sessions.get_mut(&id).expect("caller checked id");
        match &mut sess.residency {
            Residency::Resident(_) => Ok(()),
            Residency::Cold => {
                sess.residency =
                    Residency::Resident(Box::new(build_tracker(&sess.spec, &telemetry, &lowered)));
                Ok(())
            }
            Residency::Evicted { bytes, pyramid } => {
                let ckpt = Checkpoint::from_bytes(bytes)?;
                let mut tracker = build_tracker(&sess.spec, &telemetry, &lowered);
                tracker.restore_reusing(&ckpt, pyramid.take())?;
                sess.residency = Residency::Resident(Box::new(tracker));
                sess.stats.restores += 1;
                if telemetry.is_enabled() {
                    telemetry.counter_add("pimvo_serve_restores_total", 1.0);
                }
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fleet manifest: crash-consistent recovery payload
// ---------------------------------------------------------------------

/// Fleet manifest magic: "PIMVOFLT" (fleet), distinct from the
/// per-session tracker checkpoint magic "PIMVOCKP".
const MANIFEST_MAGIC: &[u8; 8] = b"PIMVOFLT";
/// Manifest layout version; bumped on layout changes.
const MANIFEST_VERSION: u16 = 3;

impl FleetScheduler {
    /// Serializes the fleet's recoverable state into a sealed
    /// [`pimvo_telemetry::container`] frame: the virtual clock, the
    /// shared pool's [`PoolSnapshot`] (each array's state, probation
    /// included, and the recovery counters) and, per session, the
    /// scheduler bookkeeping (stats, shed rung, breaker state) plus a
    /// tracker checkpoint blob — taken in place for resident sessions,
    /// reused for evicted ones.
    ///
    /// In-flight queued frames are deliberately *not* serialized:
    /// a crash loses whatever had not completed, and the harness
    /// resubmits from the last committed frame (at-least-once
    /// submission). Remap tables and raw array contents are physical
    /// simulator state and rebuild from scratch, like a device reboot.
    fn manifest(&self) -> Vec<u8> {
        let mut w = Writer::new(MANIFEST_MAGIC, MANIFEST_VERSION);
        w.u64(self.shared.wall_cycles());
        self.shared.snapshot().encode(&mut w);
        w.u64(self.sessions.len() as u64);
        for (id, sess) in &self.sessions {
            w.u32(id.0);
            w.u8(sess.shed_rung.index() as u8);
            let (tag, until, backoff) = match sess.breaker {
                BreakerState::Closed => (0, 0, 0),
                BreakerState::Open { until, backoff } => (1, until, backoff),
                BreakerState::HalfOpen { backoff } => (2, 0, backoff),
            };
            w.u8(tag);
            w.u64(until);
            w.u64(backoff);
            w.u64(sess.failure_marks.len() as u64);
            for &m in &sess.failure_marks {
                w.u64(m);
            }
            let st = &sess.stats;
            for v in [
                st.submitted,
                st.completed,
                st.shed,
                st.deadline_misses,
                st.evictions,
                st.restores,
                st.lost_frames,
                st.failures,
                st.breaker_trips,
                st.breaker_probes,
                st.pool_detected,
                st.pool_quarantines,
            ] {
                w.u64(v);
            }
            w.u64(st.latencies_cycles.len() as u64);
            for &l in &st.latencies_cycles {
                w.u64(l);
            }
            let blob: Option<Vec<u8>> = match &sess.residency {
                Residency::Cold => None,
                Residency::Resident(tracker) => Some(tracker.checkpoint().to_bytes()),
                Residency::Evicted { bytes, .. } => Some(bytes.clone()),
            };
            match blob {
                None => {
                    w.u8(0);
                    w.u64(0);
                }
                Some(bytes) => {
                    w.u8(1);
                    w.u64(bytes.len() as u64);
                    w.bytes(&bytes);
                }
            }
        }
        w.seal()
    }

    /// Rebuilds a fleet from a manifest after a hard kill: a fresh
    /// pool is stamped from `builder`, the virtual clock and the pool
    /// snapshot are restored, and every session
    /// comes back with its stats/rung/breaker state and its checkpoint
    /// blob staged as [`Residency::Evicted`] — the next frame restores
    /// the tracker bit-exactly through the ordinary eviction path.
    ///
    /// `specs` must cover exactly the session ids in the manifest
    /// (configs are additionally verified against each blob's config
    /// hash when the session first runs).
    fn from_manifest(
        builder: &PimMachineBuilder,
        arrays: usize,
        specs: &[(SessionId, SessionSpec)],
        bytes: &[u8],
    ) -> Result<FleetScheduler, ContainerError> {
        let mut r = Reader::new(container::open(bytes, MANIFEST_MAGIC, MANIFEST_VERSION)?);
        let mut fleet = FleetScheduler::from_builder(builder, arrays);
        let wall = r.u64()?;
        fleet
            .shared
            .restore(&PoolSnapshot::decode(&mut r)?)
            .map_err(|_| Malformed("pool size mismatch"))?;
        fleet.shared.restore_wall_cycles(wall);

        let spec_map: BTreeMap<SessionId, SessionSpec> = specs.iter().cloned().collect();
        if spec_map.len() != specs.len() {
            return Err(Malformed("duplicate session spec"));
        }
        if r.u64()? != spec_map.len() as u64 {
            return Err(Malformed("session count mismatch"));
        }
        for _ in 0..spec_map.len() {
            let id = SessionId(r.u32()?);
            let spec = spec_map
                .get(&id)
                .ok_or(Malformed("manifest session missing a spec"))?
                .clone();
            let shed_rung = *DegradeRung::LADDER
                .get(r.u8()? as usize)
                .ok_or(Malformed("invalid degrade rung"))?;
            let tag = r.u8()?;
            let until = r.u64()?;
            let backoff = r.u64()?;
            let breaker = match tag {
                0 => BreakerState::Closed,
                1 => BreakerState::Open { until, backoff },
                2 => BreakerState::HalfOpen { backoff },
                _ => return Err(Malformed("unknown breaker state")),
            };
            let failure_marks = (0..r.count(8)?)
                .map(|_| r.u64())
                .collect::<Result<VecDeque<_>, _>>()?;
            let mut vals = [0u64; 12];
            for v in &mut vals {
                *v = r.u64()?;
            }
            let latencies_cycles = (0..r.count(8)?)
                .map(|_| r.u64())
                .collect::<Result<Vec<_>, _>>()?;
            let stats = SessionStats {
                submitted: vals[0],
                completed: vals[1],
                shed: vals[2],
                deadline_misses: vals[3],
                evictions: vals[4],
                restores: vals[5],
                lost_frames: vals[6],
                failures: vals[7],
                breaker_trips: vals[8],
                breaker_probes: vals[9],
                pool_detected: vals[10],
                pool_quarantines: vals[11],
                latencies_cycles,
                // dumps are incident artifacts, not recoverable state
                flight_dumps: Vec::new(),
                // DMA counters are incident telemetry too: channels
                // rebuild fresh on recovery, like array contents
                dma_faults: 0,
                dma_retries: 0,
                dma_quarantines: 0,
                // host-side cache accounting restarts with the fresh
                // process-local cache — replay stays bit-identical
                lower_hits: 0,
                lower_misses: 0,
            };
            let residency = match r.u8()? {
                0 => {
                    r.u64()?;
                    Residency::Cold
                }
                1 => {
                    let len = r.count(1)?;
                    Residency::Evicted {
                        bytes: r.take(len)?.to_vec(),
                        pyramid: None,
                    }
                }
                _ => return Err(Malformed("unknown residency tag")),
            };
            let prev = fleet.sessions.insert(
                id,
                Session {
                    spec,
                    residency,
                    queue: VecDeque::new(),
                    stats,
                    shed_rung,
                    breaker,
                    failure_marks,
                    flight: None,
                },
            );
            if prev.is_some() {
                return Err(Malformed("duplicate session in manifest"));
            }
        }
        r.finish()?;
        Ok(fleet)
    }

    /// Saves the fleet's manifest to `path` through
    /// [`container::write_atomic`], so a hard kill at any instant leaves
    /// either the previous manifest or the new one, never a torn file.
    ///
    /// The manifest covers the virtual clock, the pool snapshot,
    /// scheduler counters and per-session checkpoint blobs. In-flight
    /// queued frames are not saved — a crash loses uncommitted frames
    /// and the submitter replays them (at-least-once semantics).
    ///
    /// # Errors
    ///
    /// [`ContainerError::Io`] on any filesystem failure.
    pub fn save_manifest(&self, path: &Path) -> Result<(), ContainerError> {
        container::write_atomic(path, &self.manifest())?;
        Ok(())
    }

    /// Recovers a fleet from a manifest written by
    /// [`FleetScheduler::save_manifest`] after a simulated hard kill.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`]: I/O, framing damage (magic, version,
    /// length, CRC), or a manifest inconsistent with
    /// `builder`/`arrays`/`specs`.
    pub fn recover(
        path: &Path,
        builder: &PimMachineBuilder,
        arrays: usize,
        specs: &[(SessionId, SessionSpec)],
    ) -> Result<FleetScheduler, ContainerError> {
        Self::from_manifest(builder, arrays, specs, &std::fs::read(path)?)
    }
}

impl std::fmt::Debug for FleetScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetScheduler")
            .field("arrays", &self.shared.len())
            .field("sessions", &self.sessions.len())
            .field("backlog", &self.backlog())
            .field("now_cycles", &self.shared.wall_cycles())
            .finish()
    }
}

/// Builds a session tracker: PIM backend on a one-array staging pool
/// that shares the fleet's lowered-program memo table. The tracker has
/// no cycle budget of its own: the session deadline is measured on the
/// fleet clock, and the fleet's shed ladder is the session's one rung
/// controller ([`Tracker::set_shed_rung`] before every frame).
fn build_tracker(spec: &SessionSpec, telemetry: &Telemetry, lowered: &LoweredCache) -> Tracker {
    let mut tracker = Tracker::new(spec.config.clone(), BackendKind::Pim);
    tracker
        .pool_mut()
        .expect("the PIM backend has an array pool")
        .set_lowered_cache(lowered.clone());
    tracker.set_telemetry(telemetry.clone());
    tracker
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_core::TrackerConfig;

    fn textured_frame(shift: f64) -> (GrayImage, DepthImage) {
        let gray = GrayImage::from_fn(320, 240, |x, y| {
            let xs = x as f64 + shift;
            let y = y as f64;
            (((xs * 0.55).sin() + (y * 0.41).sin() + (xs * 0.13).sin() * (y * 0.09).cos()) * 50.0
                + 120.0) as u8
        });
        let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
        (gray, depth)
    }

    /// Every session frame runs on the shared arrays, so a geometry
    /// without the PIM backend's working rows fails at construction
    /// rather than in the first step.
    #[test]
    #[should_panic(expected = "array geometry too small")]
    fn from_builder_rejects_a_geometry_without_the_working_rows() {
        let _ = FleetScheduler::from_builder(&PimMachine::builder(ArrayConfig::qvga_banks(1)), 2);
    }

    #[test]
    fn cold_sessions_hold_no_tracker_until_first_step() {
        let mut fleet = FleetScheduler::new(2);
        fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        assert!(!fleet.is_resident(SessionId(1)));
        let (g, d) = textured_frame(0.0);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        assert!(
            !fleet.is_resident(SessionId(1)),
            "submission must not build"
        );
        let out = fleet.step().unwrap().expect("one frame queued");
        assert_eq!(out.session, SessionId(1));
        assert!(fleet.is_resident(SessionId(1)));
    }

    #[test]
    fn admission_control_sheds_past_queue_capacity() {
        let mut fleet = FleetScheduler::new(1);
        fleet.add_session(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default()).max_queue(2),
        );
        let (g, d) = textured_frame(0.0);
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        let err = fleet.submit_frame(SessionId(1), g, d).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { capacity: 2, .. }));
        let st = fleet.stats(SessionId(1)).unwrap();
        assert_eq!((st.submitted, st.shed), (3, 1));
        assert!((st.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edf_runs_deadline_sessions_before_background() {
        let mut fleet = FleetScheduler::new(1);
        fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        fleet.add_session(
            SessionId(2),
            SessionSpec::new(TrackerConfig::default()).deadline_cycles(u64::MAX / 2),
        );
        let (g, d) = textured_frame(0.0);
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        fleet.submit_frame(SessionId(2), g, d).unwrap();
        let first = fleet.step().unwrap().unwrap();
        assert_eq!(first.session, SessionId(2), "deadline session runs first");
        let second = fleet.step().unwrap().unwrap();
        assert_eq!(second.session, SessionId(1));
        assert!(fleet.step().unwrap().is_none());
    }

    #[test]
    fn fair_share_alternates_equal_background_sessions() {
        let mut fleet = FleetScheduler::new(1);
        for id in [1, 2] {
            fleet.add_session(SessionId(id), SessionSpec::new(TrackerConfig::default()));
        }
        let (g, d) = textured_frame(0.0);
        for _ in 0..2 {
            fleet
                .submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
            fleet
                .submit_frame(SessionId(2), g.clone(), d.clone())
                .unwrap();
        }
        let order: Vec<u32> = fleet
            .run_until_idle()
            .unwrap()
            .iter()
            .map(|o| o.session.0)
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2], "least-served alternation");
    }

    /// Every rung change is a `DegradeRungChanged` event and a
    /// per-session `pimvo_serve_shed_rung` gauge; with telemetry off
    /// nothing is recorded.
    #[test]
    fn missed_deadline_escalates_the_shed_ladder() {
        for telemetry in [Telemetry::off(), Telemetry::new()] {
            let mut fleet = FleetScheduler::new(1);
            fleet.set_telemetry(telemetry.clone());
            // 1-cycle deadline: every frame misses
            fleet.add_session(
                SessionId(1),
                SessionSpec::new(TrackerConfig::default()).deadline_cycles(1),
            );
            let (g, d) = textured_frame(0.0);
            fleet
                .submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
            let o1 = fleet.step().unwrap().unwrap();
            assert!(o1.missed_deadline);
            assert_eq!(o1.shed_rung, DegradeRung::CapLmIterations);
            fleet.submit_frame(SessionId(1), g, d).unwrap();
            let o2 = fleet.step().unwrap().unwrap();
            assert_eq!(o2.shed_rung, DegradeRung::ReduceFeatures);
            assert!((fleet.stats(SessionId(1)).unwrap().miss_rate() - 1.0).abs() < 1e-12);

            let snap = telemetry.snapshot();
            let changes: Vec<Vec<(String, String)>> = snap
                .logs
                .iter()
                .filter(|l| l.message == EventKind::DegradeRungChanged.as_str())
                .map(|l| l.fields.clone())
                .collect();
            if !telemetry.is_enabled() {
                assert!(snap.logs.is_empty() && snap.gauges.is_empty());
                continue;
            }
            let field = |k: &str, v: &str| (k.to_string(), v.to_string());
            assert_eq!(changes.len(), 2);
            for (change, (from, to)) in changes.iter().zip([
                ("full", "cap_lm_iterations"),
                ("cap_lm_iterations", "reduce_features"),
            ]) {
                assert!(change.contains(&field("session", "1")), "{change:?}");
                assert!(change.contains(&field("from", from)), "{change:?}");
                assert!(change.contains(&field("to", to)), "{change:?}");
            }
            assert_eq!(
                snap.gauges[r#"pimvo_serve_shed_rung{session="1"}"#],
                DegradeRung::ReduceFeatures.index() as f64
            );
        }
    }

    #[test]
    fn generous_deadline_relaxes_the_ladder_again() {
        let mut fleet = FleetScheduler::new(1);
        fleet.add_session(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default()).deadline_cycles(1),
        );
        let (g, d) = textured_frame(0.0);
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        let _ = fleet.step().unwrap().unwrap(); // escalate once
                                                // widen the deadline: next frame lands well under RELAX_FRACTION
        fleet
            .sessions
            .get_mut(&SessionId(1))
            .unwrap()
            .spec
            .deadline_cycles = Some(u64::MAX / 2);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let o = fleet.step().unwrap().unwrap();
        assert!(!o.missed_deadline);
        assert_eq!(o.shed_rung, DegradeRung::Full, "ladder relaxed back");
    }

    /// A session deadline is compared on the fleet clock only. The
    /// fast-path LM never advances the pool clock, so a tracked frame's
    /// backend spend lies far above a deadline of four solo frame
    /// latencies; a fleet that meets that deadline must count no miss
    /// anywhere, the trackers' own `pimvo_deadline_miss_total`
    /// included.
    #[test]
    fn a_met_deadline_is_no_miss_on_either_clock() {
        let frames: Vec<_> = (0..3).map(|k| textured_frame(k as f64 * 0.5)).collect();
        let mut solo = FleetScheduler::new(2);
        solo.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        let mut solo_latency = 0;
        for (g, d) in &frames {
            solo.submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
            solo_latency = solo_latency.max(solo.step().unwrap().unwrap().latency_cycles);
        }
        let deadline = 4 * solo_latency;
        let Residency::Resident(tracker) = &solo.sessions[&SessionId(1)].residency else {
            panic!("the session ran");
        };
        let spent_per_frame = tracker.stats().total_cycles() / frames.len() as u64;
        assert!(
            spent_per_frame > deadline,
            "backend spend {spent_per_frame} must exceed the deadline {deadline}"
        );

        let telemetry = Telemetry::new();
        let mut fleet = FleetScheduler::new(2);
        fleet.set_telemetry(telemetry.clone());
        for id in [1, 2] {
            fleet.add_session(
                SessionId(id),
                SessionSpec::new(TrackerConfig::default()).deadline_cycles(deadline),
            );
        }
        for (g, d) in &frames {
            for id in [1, 2] {
                fleet
                    .submit_frame(SessionId(id), g.clone(), d.clone())
                    .unwrap();
            }
            for o in fleet.run_until_idle().unwrap() {
                assert!(!o.missed_deadline);
                assert_eq!(o.result.rung, DegradeRung::Full);
            }
        }
        let counters = telemetry.snapshot().counters;
        assert_eq!(counters["pimvo_serve_frames_total"], 6.0);
        assert_eq!(counters.get("pimvo_deadline_miss_total"), None);
        for id in [1, 2] {
            assert_eq!(fleet.stats(SessionId(id)).unwrap().deadline_misses, 0);
        }
    }

    /// A session's checkpoint is taken while its tracker holds its
    /// one-array staging pool, never the shared one: whatever the shared
    /// arrays went through, an evicted blob's pool section reads one
    /// fresh array and zero counters.
    #[test]
    fn an_evicted_blob_holds_the_staging_pool_not_the_shared_one() {
        let mut fleet = FleetScheduler::new(3);
        fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        let (g, d) = textured_frame(0.0);
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        fleet.step().unwrap().unwrap();
        fleet.pool_mut().try_quarantine(0).unwrap();
        fleet.pool_mut().try_quarantine(2).unwrap();
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        fleet.step().unwrap().unwrap();
        assert_eq!(fleet.pool().healthy_len(), 1);

        assert!(fleet.evict(SessionId(1)).unwrap());
        let Residency::Evicted { bytes, .. } = &fleet.sessions[&SessionId(1)].residency else {
            panic!("the session was evicted");
        };
        let pool = Checkpoint::from_bytes(bytes)
            .unwrap()
            .pool
            .expect("a PIM session's checkpoint has a pool section");
        assert_eq!(
            pool,
            PoolSnapshot {
                states: vec![pimvo_pim::ArrayState::Active { scrubbed: false }],
                retries: 0,
                redispatches: 0,
                dirty_accepted: 0,
            }
        );
    }

    #[test]
    fn evict_idle_drops_resident_trackers() {
        let mut fleet = FleetScheduler::new(1);
        fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        let (g, d) = textured_frame(0.0);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let _ = fleet.step().unwrap().unwrap();
        assert!(fleet.is_resident(SessionId(1)));
        assert_eq!(fleet.evict_idle(), 1);
        assert!(!fleet.is_resident(SessionId(1)));
        assert_eq!(fleet.stats(SessionId(1)).unwrap().evictions, 1);
        // evicting again is a no-op
        assert!(!fleet.evict(SessionId(1)).unwrap());
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let mut fleet = FleetScheduler::new(1);
        let (g, d) = textured_frame(0.0);
        let err = fleet.submit_frame(SessionId(9), g, d).unwrap_err();
        assert!(matches!(err, ServeError::UnknownSession(SessionId(9))));
        assert!(matches!(
            fleet.evict(SessionId(9)),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn breaker_trips_evicts_and_recovers_through_probe() {
        let mut fleet = FleetScheduler::new(1);
        // 1-cycle deadline: every frame misses and counts as a failure
        fleet.add_session(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default())
                .deadline_cycles(1)
                .max_queue(4)
                .breaker(BreakerConfig {
                    trip_threshold: 2,
                    backoff_base: 1_000,
                }),
        );
        let (g, d) = textured_frame(0.0);
        for _ in 0..3 {
            fleet
                .submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
        }
        let _ = fleet.step().unwrap().unwrap(); // miss 1: below threshold
        assert_eq!(
            fleet.breaker_state(SessionId(1)),
            Some(BreakerState::Closed)
        );
        let _ = fleet.step().unwrap().unwrap(); // miss 2: trips
        let st = fleet.stats(SessionId(1)).unwrap();
        assert_eq!((st.breaker_trips, st.failures), (1, 2));
        assert_eq!(st.evictions, 1, "trip evicts via the checkpoint path");
        assert!(!fleet.is_resident(SessionId(1)));
        assert!(matches!(
            fleet.breaker_state(SessionId(1)),
            Some(BreakerState::Open { backoff: 1_000, .. })
        ));

        // only open sessions are backlogged: the sweep promotes the
        // earliest reopen to a half-open probe instead of idling
        let o = fleet.step().unwrap().expect("probe frame runs");
        assert!(o.missed_deadline);
        let st = fleet.stats(SessionId(1)).unwrap();
        assert_eq!(st.breaker_probes, 1);
        assert_eq!(st.breaker_trips, 2, "failed probe re-trips");
        assert_eq!(st.restores, 1, "probe restored the evicted tracker");
        // every further failed probe doubles the backoff up to the
        // 16x cap, where it stays (each probe runs at full quality: a
        // shed-down frame would do too little work to miss)
        for want in [2_000, 4_000, 8_000, 16_000, 16_000] {
            if want > 2_000 {
                fleet.sessions.get_mut(&SessionId(1)).unwrap().shed_rung = DegradeRung::Full;
                fleet
                    .submit_frame(SessionId(1), g.clone(), d.clone())
                    .unwrap();
                let o = fleet.step().unwrap().expect("probe frame runs");
                assert!(o.missed_deadline);
            }
            match fleet.breaker_state(SessionId(1)).unwrap() {
                BreakerState::Open { backoff, .. } => {
                    assert_eq!(backoff, want, "exponential backoff, capped");
                }
                other => panic!("expected re-tripped breaker, got {other:?}"),
            }
        }
        assert_eq!(fleet.stats(SessionId(1)).unwrap().breaker_probes, 5);

        // widen the deadline: the next probe succeeds and closes it
        fleet
            .sessions
            .get_mut(&SessionId(1))
            .unwrap()
            .spec
            .deadline_cycles = Some(u64::MAX / 2);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let o = fleet.step().unwrap().expect("second probe");
        assert!(!o.missed_deadline);
        assert_eq!(
            fleet.breaker_state(SessionId(1)),
            Some(BreakerState::Closed)
        );
        assert_eq!(fleet.stats(SessionId(1)).unwrap().breaker_probes, 6);
    }

    #[test]
    fn open_breaker_yields_the_pool_to_healthy_sessions() {
        let mut fleet = FleetScheduler::new(1);
        // session 1 trips on its first missed frame (threshold 1)
        fleet.add_session(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default())
                .deadline_cycles(1)
                .max_queue(4)
                .breaker(BreakerConfig {
                    trip_threshold: 1,
                    backoff_base: u64::MAX / 4,
                }),
        );
        fleet.add_session(SessionId(2), SessionSpec::new(TrackerConfig::default()));
        let (g, d) = textured_frame(0.0);
        for _ in 0..2 {
            fleet
                .submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
            fleet
                .submit_frame(SessionId(2), g.clone(), d.clone())
                .unwrap();
        }
        // EDF picks the deadline session first; it misses and trips
        let first = fleet.step().unwrap().unwrap();
        assert_eq!(first.session, SessionId(1));
        assert!(matches!(
            fleet.breaker_state(SessionId(1)),
            Some(BreakerState::Open { .. })
        ));
        // while open, the healthy session gets every slot despite the
        // open session holding the earliest deadline
        for _ in 0..2 {
            let o = fleet.step().unwrap().unwrap();
            assert_eq!(o.session, SessionId(2), "open session must not run");
        }
        // with only the open session backlogged, it probes early
        let o = fleet.step().unwrap().unwrap();
        assert_eq!(o.session, SessionId(1));
        assert_eq!(fleet.stats(SessionId(1)).unwrap().breaker_probes, 1);
    }

    #[test]
    fn sessions_without_breaker_never_trip() {
        let mut fleet = FleetScheduler::new(1);
        fleet.add_session(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default()).deadline_cycles(1),
        );
        let (g, d) = textured_frame(0.0);
        for _ in 0..3 {
            fleet
                .submit_frame(SessionId(1), g.clone(), d.clone())
                .unwrap();
            let _ = fleet.step().unwrap().unwrap();
        }
        let st = fleet.stats(SessionId(1)).unwrap();
        assert_eq!(st.deadline_misses, 3);
        assert_eq!((st.failures, st.breaker_trips), (0, 0));
        assert_eq!(
            fleet.breaker_state(SessionId(1)),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn manifest_recovery_replays_bit_identically() {
        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));
        let specs = vec![(
            SessionId(1),
            SessionSpec::new(TrackerConfig::default()).max_queue(4),
        )];
        let mk_fleet = || {
            let mut f = FleetScheduler::from_builder(&builder, 2);
            for (id, spec) in &specs {
                f.add_session(*id, spec.clone());
            }
            f
        };

        // run three frames, checkpoint, then hard-kill (drop) the fleet
        let mut fleet = mk_fleet();
        let (g0, d0) = textured_frame(0.0);
        let (g1, d1) = textured_frame(0.8);
        let (g2, d2) = textured_frame(1.6);
        fleet.submit_frame(SessionId(1), g0, d0).unwrap();
        fleet.submit_frame(SessionId(1), g1, d1).unwrap();
        let _ = fleet.run_until_idle().unwrap();
        let dir = std::env::temp_dir().join(format!("pimvo_fleet_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        fleet.save_manifest(&path).unwrap();
        let clock_at_save = fleet.now_cycles();

        // uninterrupted arm keeps going
        fleet
            .submit_frame(SessionId(1), g2.clone(), d2.clone())
            .unwrap();
        let want = fleet.run_until_idle().unwrap().remove(0);

        // recovered arm replays the same frame after the kill
        let mut recovered = FleetScheduler::recover(&path, &builder, 2, &specs).unwrap();
        assert_eq!(recovered.now_cycles(), clock_at_save, "clock restored");
        assert!(
            !recovered.is_resident(SessionId(1)),
            "session staged evicted"
        );
        assert_eq!(recovered.stats(SessionId(1)).unwrap().completed, 2);
        recovered.submit_frame(SessionId(1), g2, d2).unwrap();
        let got = recovered.run_until_idle().unwrap().remove(0);
        assert_eq!(
            got.result.pose_wc, want.result.pose_wc,
            "bit-identical pose"
        );
        assert_eq!(
            got.latency_cycles, want.latency_cycles,
            "identical virtual time"
        );
        assert_eq!(recovered.now_cycles(), fleet.now_cycles());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_rejects_corruption() {
        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));
        let specs = vec![(SessionId(1), SessionSpec::new(TrackerConfig::default()))];
        let mut fleet = FleetScheduler::from_builder(&builder, 1);
        fleet.add_session(specs[0].0, specs[0].1.clone());
        let dir = std::env::temp_dir().join(format!("pimvo_fleet_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        fleet.save_manifest(&path).unwrap();
        let recover = || FleetScheduler::recover(&path, &builder, 1, &specs);

        // flip one payload byte: CRC must catch it
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(recover(), Err(ContainerError::Crc)));

        // wrong magic (long enough to pass the length check)
        std::fs::write(&path, b"NOTAFLEETMANIFEST_____________").unwrap();
        assert!(matches!(recover(), Err(ContainerError::BadMagic)));

        // truncation
        std::fs::write(&path, b"PIMVO").unwrap();
        assert!(matches!(recover(), Err(ContainerError::Truncated)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_recorder_dumps_on_deadline_miss_and_replays() {
        let dma =
            PimMachine::builder(ArrayConfig::qvga_banks(6)).dma(pimvo_pim::DmaConfig::default());
        for (name, mut fleet) in [
            ("sync", FleetScheduler::new(2)),
            ("dma", FleetScheduler::from_builder(&dma, 2)),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("pimvo_flight_fleet_{name}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            fleet.set_flight_dir(&dir);
            // 1-cycle deadline: every frame misses, so every frame dumps
            fleet.add_session(
                SessionId(1),
                SessionSpec::new(TrackerConfig::default())
                    .deadline_cycles(1)
                    .max_queue(4)
                    .flight_recorder(2),
            );
            let (g, d) = textured_frame(0.0);
            for _ in 0..2 {
                fleet
                    .submit_frame(SessionId(1), g.clone(), d.clone())
                    .unwrap();
                let _ = fleet.step().unwrap().unwrap();
            }
            let st = fleet.stats(SessionId(1)).unwrap();
            assert_eq!(st.flight_dumps.len(), 2);
            let dump =
                FlightDump::load(std::path::Path::new(&st.flight_dumps[1])).expect("dump decodes");
            assert_eq!(dump.session, 1);
            assert_eq!(dump.reason, DumpReason::DeadlineMiss);
            assert_eq!(dump.frames.len(), 2, "ring holds both frames");
            for f in &dump.frames {
                assert!(!f.trace.is_empty());
                assert_eq!(f.trace.dropped, 0);
                // the dependency DAG reproduces the frame's wall clock: the
                // critical path through the barrier chain is exactly the
                // pool cycles the scheduler charged this frame
                let prof = pimvo_telemetry::optrace::profile(&f.trace);
                assert_eq!(prof.critical_path_cycles, f.wall_delta, "{name}");
                // every record of the frame, strip, batch and DMA lanes
                // alike, belongs to the session that ran it
                let sessions: Vec<u32> = prof.by_session.keys().copied().collect();
                assert_eq!(sessions, vec![1], "{name}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn discarding_the_pre_frame_trace_matches_draining_it() {
        // every frame dumps (1-cycle deadline); between steps the test
        // records host writes of its own, so each step starts with
        // records to scope away. `drain_first` drops them through a
        // full drain before the step (the step's own discard then finds
        // the rings empty): the dumps must not tell the two apart
        let run = |drain_first: bool| {
            let dma = PimMachine::builder(ArrayConfig::qvga_banks(6))
                .dma(pimvo_pim::DmaConfig::default());
            let mut fleet = FleetScheduler::from_builder(&dma, 2);
            let dir = std::env::temp_dir().join(format!(
                "pimvo_flight_discard_{drain_first}_{}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            fleet.set_flight_dir(&dir);
            for id in [SessionId(1), SessionId(2)] {
                fleet.add_session(
                    id,
                    SessionSpec::new(TrackerConfig::default())
                        .deadline_cycles(1)
                        .max_queue(4)
                        .flight_recorder(2),
                );
            }
            for round in 0..3 {
                let (g, d) = textured_frame(round as f64);
                for id in [SessionId(1), SessionId(2)] {
                    fleet.submit_frame(id, g.clone(), d.clone()).unwrap();
                }
                loop {
                    let pool = fleet.pool_mut();
                    // two labels, so a window that is not reset keeps
                    // one the next frame never uses
                    for (row, label) in [(round, "probe"), (round + 1, "upload")] {
                        if let Some(rec) = pool.array_mut(0).op_recorder_mut() {
                            rec.set_label(Some(label));
                        }
                        pool.array_mut(0)
                            .host_write_lanes(row, &[round as i64; 8])
                            .unwrap();
                    }
                    if drain_first {
                        let _ = pool.drain_op_trace();
                    }
                    if fleet.step().unwrap().is_none() {
                        break;
                    }
                }
            }
            let mut dumps = Vec::new();
            for id in [SessionId(1), SessionId(2)] {
                for path in &fleet.stats(id).unwrap().flight_dumps {
                    let path = std::path::Path::new(path);
                    let name = path.file_name().unwrap().to_owned();
                    dumps.push((name, std::fs::read(path).unwrap()));
                }
            }
            std::fs::remove_dir_all(&dir).ok();
            dumps
        };
        let discarded = run(false);
        assert_eq!(discarded.len(), 6, "every frame of both sessions dumps");
        assert!(discarded == run(true), "flight dumps differ byte for byte");
    }

    #[test]
    fn flight_recorder_does_not_perturb_virtual_time() {
        let run = |armed: bool| {
            let mut fleet = FleetScheduler::new(2);
            let spec = SessionSpec::new(TrackerConfig::default());
            let spec = if armed { spec.flight_recorder(4) } else { spec };
            fleet.add_session(SessionId(1), spec);
            let (g, d) = textured_frame(0.0);
            fleet.submit_frame(SessionId(1), g, d).unwrap();
            let o = fleet.step().unwrap().unwrap();
            (o.latency_cycles, o.result.pose_wc, fleet.now_cycles())
        };
        assert_eq!(run(false), run(true), "recording is invisible to timing");
    }

    #[test]
    fn latency_accounting_is_virtual_and_monotonic() {
        let mut fleet = FleetScheduler::new(2);
        fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
        let (g, d) = textured_frame(0.0);
        // two frames queued back to back: the second waits for the first
        fleet
            .submit_frame(SessionId(1), g.clone(), d.clone())
            .unwrap();
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let o1 = fleet.step().unwrap().unwrap();
        let o2 = fleet.step().unwrap().unwrap();
        assert_eq!(o1.queue_cycles, 0, "first frame starts immediately");
        assert!(o2.queue_cycles >= o1.latency_cycles - o1.queue_cycles);
        assert!(o2.latency_cycles > o1.latency_cycles);
        assert_eq!(fleet.now_cycles(), fleet.pool().wall_cycles());
        let p50 = fleet
            .stats(SessionId(1))
            .unwrap()
            .latency_percentile(50.0)
            .unwrap();
        assert!(p50 >= o1.latency_cycles.min(o2.latency_cycles));
    }
}

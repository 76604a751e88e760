//! Session specifications, per-session serving statistics and the
//! outcome record of one scheduler step.

use pimvo_core::{CheckpointError, DegradeRung, FrameResult, TrackerConfig};
use pimvo_pim::SessionId;

/// Everything the fleet needs to build and schedule one session.
///
/// The tracker itself is constructed lazily ([`pimvo_core::Tracker::new`])
/// with the PIM backend on a one-array staging pool; while the session
/// runs a frame, the scheduler swaps the shared fleet pool in.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Estimator configuration (hashed into checkpoints — every
    /// restore of this session must present the same configuration).
    pub config: TrackerConfig,
    /// Frame deadline in pool cycles, measured from submission
    /// (virtual time). `None` marks a background session: it is
    /// scheduled after every deadline session and never sheds.
    pub deadline_cycles: Option<u64>,
    /// Admission-queue capacity; a submission beyond it is shed.
    pub max_queue: usize,
    /// Per-session circuit breaker; `None` (the default) disables it
    /// and preserves pre-breaker scheduling exactly.
    pub breaker: Option<BreakerConfig>,
    /// Flight recorder: keep the op traces of the last N completed
    /// frames and dump them to disk on breaker trip, deadline miss or
    /// pool quarantine. `None` (the default) records nothing and
    /// leaves execution bit- and cycle-identical.
    pub flight_recorder: Option<usize>,
}

impl SessionSpec {
    /// A background session (no deadline) with a 4-frame queue.
    pub fn new(config: TrackerConfig) -> Self {
        SessionSpec {
            config,
            deadline_cycles: None,
            max_queue: 4,
            breaker: None,
            flight_recorder: None,
        }
    }

    /// Sets the per-frame deadline in pool cycles, measured on the
    /// fleet clock from submission to completion. The fleet's shed
    /// ladder is then the session's one rung controller: it escalates
    /// after a miss and relaxes after a comfortable frame
    /// ([`pimvo_core::DegradeRung::next`]), and pins the tracker's next
    /// frame to that rung. The tracker carries no cycle budget of its
    /// own, so it never compares the deadline with its backend cycles.
    pub fn deadline_cycles(mut self, cycles: u64) -> Self {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Sets the admission-queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_queue(mut self, n: usize) -> Self {
        assert!(n > 0, "a session needs a queue capacity of at least 1");
        self.max_queue = n;
        self
    }

    /// Arms the per-session circuit breaker.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Arms the per-session flight recorder: the fleet keeps the op
    /// traces of the session's last `frames` completed frames and
    /// dumps the ring on breaker trip, deadline miss or pool
    /// quarantine (see [`crate::FlightDump`]).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn flight_recorder(mut self, frames: usize) -> Self {
        assert!(frames > 0, "a flight recorder needs at least one frame");
        self.flight_recorder = Some(frames);
        self
    }
}

/// Circuit-breaker policy of one session: trips a session that keeps
/// failing (frames ending [`pimvo_core::TrackingState::Lost`] or past
/// their deadline), isolating it from the shared pool with exponential
/// backoff in the virtual-cycle domain, then lets it back in through a
/// half-open single-frame probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Failures inside the last [`Self::FAILURE_WINDOW`] completed
    /// frames that trip the breaker open.
    pub trip_threshold: u32,
    /// First open interval, in virtual (pool) cycles.
    pub backoff_base: u64,
}

impl BreakerConfig {
    /// Failures are counted over the session's last this many
    /// completed frames.
    pub const FAILURE_WINDOW: u64 = 8;
    /// Multiplier on the open interval per consecutive failed probe.
    pub const BACKOFF_FACTOR: u64 = 2;

    /// Upper bound on the open interval: 16 × `backoff_base`.
    pub fn backoff_max(&self) -> u64 {
        self.backoff_base.saturating_mul(16)
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_threshold: 3,
            backoff_base: 1_000_000,
        }
    }
}

/// Cumulative serving statistics of one session.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Frames offered to the queue (accepted + shed).
    pub submitted: u64,
    /// Frames run to completion.
    pub completed: u64,
    /// Frames rejected by admission control (queue full).
    pub shed: u64,
    /// Completed frames that finished past their deadline.
    pub deadline_misses: u64,
    /// Times the session was evicted to checkpoint bytes.
    pub evictions: u64,
    /// Times the session was restored from checkpoint bytes.
    pub restores: u64,
    /// Per-completed-frame latency in pool cycles (submission →
    /// completion, queue wait included).
    pub latencies_cycles: Vec<u64>,
    /// Completed frames that ended in [`pimvo_core::TrackingState::Lost`].
    pub lost_frames: u64,
    /// Breaker-counted failures (lost frames and deadline misses while
    /// a breaker is armed).
    pub failures: u64,
    /// Times the session's circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Half-open single-frame probes run.
    pub breaker_probes: u64,
    /// Pool fault-detection events observed while this session's
    /// frames ran on the shared pool.
    pub pool_detected: u64,
    /// Arrays the pool quarantined while this session's frames ran.
    pub pool_quarantines: u64,
    /// DMA transfer faults (CRC rejects + timeouts) the shared pool's
    /// channels absorbed while this session's frames ran. Incident
    /// telemetry like [`SessionStats::flight_dumps`] — not part of the
    /// crash-recovery manifest.
    pub dma_faults: u64,
    /// DMA delivery retries charged while this session's frames ran.
    pub dma_retries: u64,
    /// DMA channels quarantined (degraded to the synchronous port)
    /// while this session's frames ran.
    pub dma_quarantines: u64,
    /// Lowered-program cache hits charged while this session's frames
    /// ran on the fleet. Host-side accounting only — not part of the
    /// crash-recovery manifest (the cache is process-local and
    /// rebuilds on first use after recovery).
    pub lower_hits: u64,
    /// Lowered-program cache misses (actual lowerings) charged while
    /// this session's frames ran. Like [`SessionStats::lower_hits`],
    /// transient host-side accounting.
    pub lower_misses: u64,
    /// Paths of flight-recorder dumps written for this session, in the
    /// order they were written. Not part of the crash-recovery
    /// manifest: dumps are incident artifacts, rediscovered from disk.
    pub flight_dumps: Vec<String>,
}

impl SessionStats {
    /// Latency percentile over the completed frames (`p` in `0..=100`;
    /// nearest-rank). `None` before the first completion.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        if self.latencies_cycles.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_cycles.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Deadline-miss rate over completed frames (0 when none ran).
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / self.completed as f64
    }

    /// Shed rate over submitted frames (0 when none were offered).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.shed as f64 / self.submitted as f64
    }
}

/// The record one [`crate::FleetScheduler::step`] returns: which
/// session ran, what the tracker produced, and what it cost in fleet
/// virtual time.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Session the frame belonged to.
    pub session: SessionId,
    /// The tracker's frame result (pose, state, rung it ran at).
    pub result: FrameResult,
    /// Submission → completion, in pool cycles (queue wait included).
    pub latency_cycles: u64,
    /// Submission → start of execution, in pool cycles.
    pub queue_cycles: u64,
    /// Whether the frame finished past the session's deadline.
    pub missed_deadline: bool,
    /// Shed-ladder rung the session is pinned to for its *next* frame.
    pub shed_rung: DegradeRung,
}

/// Typed serving errors.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control rejected the frame: the session's queue is at
    /// capacity. The frame is counted as shed.
    QueueFull {
        /// The session whose queue was full.
        session: SessionId,
        /// Its configured capacity.
        capacity: usize,
    },
    /// The session id has not been registered.
    UnknownSession(SessionId),
    /// Restoring an evicted session from its checkpoint bytes failed.
    Restore(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { session, capacity } => write!(
                f,
                "session {} queue full (capacity {capacity}): frame shed",
                session.0
            ),
            ServeError::UnknownSession(s) => write!(f, "unknown session {}", s.0),
            ServeError::Restore(e) => write!(f, "session restore failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Restore(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Restore(e)
    }
}

#![warn(missing_docs)]

//! `pimvo-serve` — the multi-tenant serving layer: many independent
//! tracker sessions time-sharing **one** [`pimvo_pim::PimArrayPool`].
//!
//! The paper's PIM-SRAM tracker is a single-session device. This crate
//! is the "millions of users" step of the roadmap: a deterministic
//! fleet scheduler that multiplexes N [`pimvo_core::Tracker`] sessions
//! over a shared array pool. Each frame runs on that pool through the
//! same two pool entry points a solo tracker uses
//! ([`pimvo_pim::PimArrayPool::submit_strips`] and
//! [`pimvo_pim::PimArrayPool::run_phase`]).
//!
//! # Model
//!
//! * **Sessions** are registered with a [`SessionSpec`] (estimator
//!   configuration, optional frame deadline in pool cycles, bounded
//!   admission queue). Trackers are constructed
//!   ([`pimvo_core::Tracker::new`]) on first demand — a session that
//!   has never run holds no resident state at all.
//! * **Frames** are submitted to a session's bounded queue
//!   ([`FleetScheduler::submit_frame`]); a full queue *sheds* the frame
//!   (admission control) and returns [`ServeError::QueueFull`].
//! * **Scheduling** is earliest-deadline-first over the head frame of
//!   every backlogged session, with least-served fair-share and then
//!   the session id as tie-breaks. One [`FleetScheduler::step`] runs exactly
//!   one frame to completion on the shared pool; the pool's
//!   `wall_cycles` ledger is the fleet's virtual clock, so queue wait
//!   and frame latency are measured in cycles and are **deterministic**
//!   — independent of host thread timing.
//! * **Load shedding** reuses the [`pimvo_core::DegradeRung`] ladder
//!   and its one rule ([`pimvo_core::DegradeRung::next`]): a session
//!   that misses its deadline is escalated one rung (its next frame
//!   runs cheaper — capped LM iterations, reduced features, skipped
//!   NMS refinement, coast), and relaxed again once latency falls below
//!   [`pimvo_core::supervisor::RELAX_FRACTION`] of the deadline. The
//!   fleet's ladder is a session's only rung controller: it reaches the
//!   tracker through [`pimvo_core::Tracker::set_shed_rung`], and the
//!   tracker carries no cycle budget of its own, so the deadline is
//!   compared on the fleet clock only.
//! * **Eviction** serializes a cold session to its checkpoint bytes
//!   ([`FleetScheduler::evict`]) and drops the tracker, so the session
//!   holds zero resident arrays; the next submitted frame transparently
//!   restores it, replaying bit-exactly.
//! * **Fault containment** is per session: arming a [`BreakerConfig`]
//!   on the spec gives the session a circuit breaker — a session whose
//!   frames keep failing (tracking `Lost`, missed deadlines) trips
//!   open, is evicted through the checkpoint path, and sits out an
//!   exponentially growing backoff in the virtual-cycle domain before
//!   a half-open single-frame probe lets it earn its slot back
//!   ([`BreakerState`]). One poisoned session cannot monopolize the
//!   shared pool. [`SessionStats`] carries the fault/quarantine
//!   telemetry (lost frames, failures, trips, probes, pool fault
//!   events attributed per session).
//! * **Crash recovery** is fleet-wide: [`FleetScheduler::save_manifest`]
//!   writes an atomic, CRC-checked manifest of every session's
//!   checkpoint blob plus the pool health and scheduler counters;
//!   [`FleetScheduler::recover`] rebuilds the fleet from it and
//!   replays the remaining frames bit-identically after a hard kill.
//!
//! Determinism is load-bearing: every kernel and LM batch host-writes
//! the rows it reads, so interleaving sessions on a shared pool cannot
//! perturb any session's poses — the interleaved-vs-solo property test
//! in `tests/interleave_proptests.rs` enforces bit-identity.
//!
//! ```
//! use pimvo_core::TrackerConfig;
//! use pimvo_serve::{FleetScheduler, SessionSpec};
//! use pimvo_kernels::{DepthImage, GrayImage};
//! use pimvo_pim::SessionId;
//!
//! let mut fleet = FleetScheduler::new(2);
//! fleet.add_session(SessionId(1), SessionSpec::new(TrackerConfig::default()));
//! let gray = GrayImage::from_fn(320, 240, |x, y| ((x ^ y) & 0xFF) as u8);
//! let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
//! fleet.submit_frame(SessionId(1), gray, depth).unwrap();
//! let outcome = fleet.step().unwrap().expect("one frame queued");
//! assert!(outcome.result.is_keyframe); // first frame bootstraps
//! ```

mod fleet;
mod flight;
mod session;

pub use fleet::{BreakerState, FleetScheduler};
pub use flight::{DumpReason, FlightDump, FlightFrame, FLIGHT_MAGIC, FLIGHT_VERSION};
pub use session::{BreakerConfig, ServeError, SessionSpec, SessionStats, StepOutcome};

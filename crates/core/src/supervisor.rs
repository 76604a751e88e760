//! Deadline supervision: per-frame compute budgets and the graceful
//! degradation ladder.
//!
//! The paper's pitch is *real-time* EBVO under a hard latency envelope;
//! this module is the layer that enforces it. A per-frame budget in
//! PIM/backend cycles ([`crate::Tracker::set_frame_budget_cycles`])
//! bounds each frame; it reads only the backend's simulated cycle
//! counters, so supervision is fully deterministic. The tracker checks
//! the spend at its phase boundaries (pyramid → edge
//! detection + features → alignment) and, when the budget is at risk,
//! sheds work in the fixed [`DegradeRung`] order. The rung actually
//! used is recorded in every [`crate::FrameResult`] and exported as
//! telemetry gauges; overruns emit a typed
//! [`pimvo_telemetry::EventKind::DeadlineMiss`] event.
//!
//! Every frame takes the same path. Without a budget (the default) the
//! supervisor reads no cycle counter, never coasts a frame mid-way and
//! never moves the ladder: the rung holds wherever
//! [`crate::Tracker::set_shed_rung`] put it (`Full` unless a fleet
//! sheds load), and cycle and energy numbers equal those of a tracker
//! with an unreachable budget — asserted by the test-suite.

use crate::tracker::TrackingState;
use pimvo_telemetry::{EventKind, Telemetry};

/// One rung of the degradation ladder, in escalation order. Each rung
/// includes the shedding of every rung above it (e.g.
/// `SkipNmsRefinement` also caps LM iterations and the feature count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeRung {
    /// Full-quality processing; nothing shed.
    #[default]
    Full,
    /// LM iterations capped at [`CAPPED_LM_ITERATIONS`].
    CapLmIterations,
    /// Feature cap divided by [`FEATURE_DIVISOR`].
    ReduceFeatures,
    /// Edge detection skips the NMS refinement pass: the mask is the
    /// thresholded HPF response (LPF + HPF cycles only).
    SkipNmsRefinement,
    /// The frame is not aligned at all: the pose coasts on the motion
    /// prior (gyro rotation when available, constant velocity
    /// otherwise) and the tracker reports `Degraded`.
    Coast,
}

impl DegradeRung {
    /// All rungs, in escalation order.
    pub const LADDER: [DegradeRung; 5] = [
        DegradeRung::Full,
        DegradeRung::CapLmIterations,
        DegradeRung::ReduceFeatures,
        DegradeRung::SkipNmsRefinement,
        DegradeRung::Coast,
    ];

    /// Ladder position (0 = `Full` … 4 = `Coast`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Rung from a ladder position, clamping past the end.
    fn from_index(i: usize) -> DegradeRung {
        *Self::LADDER.get(i).unwrap_or(&DegradeRung::Coast)
    }

    /// One rung harsher (saturating at `Coast`).
    pub fn escalate(self) -> DegradeRung {
        Self::from_index(self.index() + 1)
    }

    /// One rung gentler (saturating at `Full`).
    pub fn relax(self) -> DegradeRung {
        Self::from_index(self.index().saturating_sub(1))
    }

    /// The ladder rule, from this rung after a frame that `spent` of
    /// its `budget`: one rung harsher on a miss (`spent > budget`), one
    /// rung gentler below [`RELAX_FRACTION`] of the budget (hysteresis,
    /// so the controller does not oscillate on the miss boundary),
    /// otherwise hold. The deadline supervisor applies it to backend
    /// cycles, a fleet to pool-cycle latency.
    pub fn next(self, spent: u64, budget: u64) -> DegradeRung {
        if spent > budget {
            self.escalate()
        } else if (spent as f64) < RELAX_FRACTION * (budget as f64) {
            self.relax()
        } else {
            self
        }
    }

    /// Stable lower-snake-case name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradeRung::Full => "full",
            DegradeRung::CapLmIterations => "cap_lm_iterations",
            DegradeRung::ReduceFeatures => "reduce_features",
            DegradeRung::SkipNmsRefinement => "skip_nms_refinement",
            DegradeRung::Coast => "coast",
        }
    }
}

/// A frame spending less than this fraction of its budget lets the
/// ladder relax one rung for the next frame ([`DegradeRung::next`]).
pub const RELAX_FRACTION: f64 = 0.5;

/// LM iteration cap at [`DegradeRung::CapLmIterations`] and below.
pub const CAPPED_LM_ITERATIONS: usize = 3;

/// Feature-cap divisor at [`DegradeRung::ReduceFeatures`] and below.
pub const FEATURE_DIVISOR: usize = 4;

/// Point-in-time budget status of a tracker, from
/// [`crate::Tracker::budget_status`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetStatus {
    /// Rung the *next* frame will start at.
    pub rung: DegradeRung,
    /// Rung the last completed frame ran at (after any mid-frame
    /// escalation).
    pub last_rung: DegradeRung,
    /// Backend cycles the last completed frame spent (0 without a
    /// budget: the supervisor then reads no cycle counter).
    pub last_frame_cycles: u64,
    /// Cycle headroom of the last frame: `budget - spent` (negative on
    /// an overrun; `None` without a cycle budget).
    pub headroom_cycles: Option<i64>,
    /// Deadline misses so far.
    pub deadline_misses: u64,
    /// Frames the supervisor coasted (rung `Coast`, whether scheduled
    /// or escalated mid-frame).
    pub coasted_frames: u64,
}

/// The deadline supervisor a [`crate::Tracker`] embeds: a deterministic
/// ladder controller plus miss accounting.
///
/// Per frame:
/// 1. [`DeadlineSupervisor::begin_frame`] returns the rung to run at
///    (chosen from the previous frame's outcome — deterministic,
///    feedback-controlled).
/// 2. The tracker calls [`DeadlineSupervisor::over_cycle_budget`] at
///    each phase boundary; once the spend crosses the budget the frame
///    escalates straight to [`DegradeRung::Coast`], so an overrun is
///    bounded by the cost of the one phase that was already running.
/// 3. [`DeadlineSupervisor::end_frame`] records the outcome, emits the
///    `DeadlineMiss` event / gauges, and moves the ladder by
///    [`DegradeRung::next`].
///
/// Without a budget steps 2 and 3 have nothing to compare: the frame
/// runs at the rung it was given and the ladder holds.
#[derive(Debug, Clone)]
pub struct DeadlineSupervisor {
    /// Backend cycles allowed per frame (`None` = no budget).
    budget_cycles: Option<u64>,
    rung: DegradeRung,
    last_rung: DegradeRung,
    last_frame_cycles: u64,
    deadline_misses: u64,
    coasted_frames: u64,
}

impl DeadlineSupervisor {
    /// Creates the supervisor from a per-frame cycle budget (`None`
    /// disables enforcement).
    pub fn new(budget_cycles: Option<u64>) -> Self {
        DeadlineSupervisor {
            budget_cycles,
            rung: DegradeRung::Full,
            last_rung: DegradeRung::Full,
            last_frame_cycles: 0,
            deadline_misses: 0,
            coasted_frames: 0,
        }
    }

    /// The per-frame cycle budget (`None` = no budget).
    pub fn budget_cycles(&self) -> Option<u64> {
        self.budget_cycles
    }

    /// Replaces the per-frame cycle budget at runtime (QoS knob; does
    /// not reset the ladder or the miss counters).
    pub fn set_budget_cycles(&mut self, budget_cycles: Option<u64>) {
        self.budget_cycles = budget_cycles;
        if budget_cycles.is_none() {
            self.rung = DegradeRung::Full;
        }
    }

    /// Rung the next frame starts at.
    pub fn begin_frame(&self) -> DegradeRung {
        self.rung
    }

    /// Phase-boundary check: true once `spent_cycles` has crossed the
    /// cycle budget, at which point the frame must stop starting phases
    /// and coast.
    pub fn over_cycle_budget(&self, spent_cycles: u64) -> bool {
        matches!(self.budget_cycles, Some(b) if spent_cycles > b)
    }

    /// Records a completed frame: `rung` is the rung the frame actually
    /// ran at (after mid-frame escalation), `spent_cycles` what it
    /// cost, read only under a budget (`None` without one). Under a
    /// budget this moves the ladder for the next frame, bumps the miss
    /// counters and emits the telemetry gauges and the typed
    /// `DeadlineMiss` event; without one the ladder holds. Returns true
    /// when the frame missed its deadline.
    pub fn end_frame(
        &mut self,
        rung: DegradeRung,
        spent_cycles: Option<u64>,
        frame_index: usize,
        telemetry: &Telemetry,
    ) -> bool {
        self.last_rung = rung;
        self.last_frame_cycles = spent_cycles.unwrap_or(0);
        if rung == DegradeRung::Coast {
            self.coasted_frames += 1;
        }
        let (Some(budget), Some(spent_cycles)) = (self.budget_cycles, spent_cycles) else {
            return false;
        };
        let miss = spent_cycles > budget;
        let prev = self.rung;
        self.rung = rung.next(spent_cycles, budget);
        if miss {
            self.deadline_misses += 1;
        }

        if telemetry.is_enabled() {
            telemetry.gauge_set(
                "pimvo_budget_headroom_cycles",
                budget as f64 - spent_cycles as f64,
            );
            telemetry.gauge_set("pimvo_degrade_rung", rung.index() as f64);
            if miss {
                telemetry.counter_add("pimvo_deadline_miss_total", 1.0);
                telemetry.event(
                    EventKind::DeadlineMiss,
                    &[
                        ("frame", frame_index.to_string()),
                        ("rung", rung.name().to_string()),
                        ("spent_cycles", spent_cycles.to_string()),
                        ("budget_cycles", budget.to_string()),
                    ],
                );
            }
            if self.rung != prev {
                telemetry.event(
                    EventKind::DegradeRungChanged,
                    &[
                        ("from", prev.name().to_string()),
                        ("to", self.rung.name().to_string()),
                    ],
                );
            }
        }
        miss
    }

    /// Point-in-time status for reports and the chaos harness.
    pub fn status(&self) -> BudgetStatus {
        BudgetStatus {
            rung: self.rung,
            last_rung: self.last_rung,
            last_frame_cycles: self.last_frame_cycles,
            headroom_cycles: self
                .budget_cycles
                .map(|b| b as i64 - self.last_frame_cycles as i64),
            deadline_misses: self.deadline_misses,
            coasted_frames: self.coasted_frames,
        }
    }

    /// Forces the ladder to `rung` before the next frame, with or
    /// without a budget. This is the external load-shedding hook: a
    /// fleet scheduler, whose sessions carry no budget, pins each
    /// session's next frame to the rung of its own ladder (see
    /// `pimvo-serve`). Miss counters are untouched; under a budget the
    /// controller adjusts from the forced rung as usual afterwards.
    pub fn force_rung(&mut self, rung: DegradeRung) {
        self.rung = rung;
    }

    /// Restores controller state from a checkpoint (the rung persists
    /// across a kill-and-restore; per-frame spend does not). Without a
    /// budget there is no controller to resume: the ladder starts at
    /// [`DegradeRung::Full`], as [`DeadlineSupervisor::set_budget_cycles`]
    /// leaves it.
    pub(crate) fn restore(&mut self, rung: DegradeRung, deadline_misses: u64, coasts: u64) {
        let rung = if self.budget_cycles.is_some() {
            rung
        } else {
            DegradeRung::Full
        };
        self.rung = rung;
        self.last_rung = rung;
        self.deadline_misses = deadline_misses;
        self.coasted_frames = coasts;
    }
}

/// Legality of a [`TrackingState`] transition under the tracker's
/// recovery state machine — the single table both the unit tests and
/// the chaos-soak invariant checker consult.
///
/// Structurally illegal, independent of configuration:
/// `Lost → Degraded` (once Lost, consecutive bad frames keep the
/// tracker Lost; only a good frame leaves, and it goes to `Ok`).
///
/// Config-dependent edge: `Ok → Lost` requires
/// `max_bad_frames <= 1` (a single bad frame exhausts the coast
/// window); with a longer window the tracker must pass through
/// `Degraded` first.
pub fn transition_legal(from: TrackingState, to: TrackingState, max_bad_frames: usize) -> bool {
    use TrackingState::{Degraded, Lost, Ok};
    // (from, to) pairs that are legal under every configuration.
    // Ok → Degraded is always reachable: even with a zero-length coast
    // window the deadline supervisor's Coast rung degrades a frame
    // without consuming the bad-frame budget.
    const ALWAYS_LEGAL: [(TrackingState, TrackingState); 7] = [
        (Ok, Ok),
        (Ok, Degraded),
        (Degraded, Ok),
        (Degraded, Degraded),
        (Degraded, Lost),
        (Lost, Ok),
        (Lost, Lost),
    ];
    ALWAYS_LEGAL.contains(&(from, to)) || ((from, to) == (Ok, Lost) && max_bad_frames <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_is_fixed() {
        let mut r = DegradeRung::Full;
        let seen: Vec<DegradeRung> = std::iter::from_fn(|| {
            let cur = r;
            r = r.escalate();
            Some(cur)
        })
        .take(5)
        .collect();
        assert_eq!(seen, DegradeRung::LADDER);
        assert_eq!(DegradeRung::Coast.escalate(), DegradeRung::Coast);
        assert_eq!(DegradeRung::Full.relax(), DegradeRung::Full);
        assert_eq!(DegradeRung::Coast.relax(), DegradeRung::SkipNmsRefinement);
    }

    #[test]
    fn controller_escalates_on_miss_and_relaxes_on_headroom() {
        let mut s = DeadlineSupervisor::new(Some(1000));
        let t = Telemetry::off();
        // miss -> one rung harsher
        assert!(s.end_frame(DegradeRung::Full, Some(1500), 0, &t));
        assert_eq!(s.begin_frame(), DegradeRung::CapLmIterations);
        // met but tight (above the relax fraction) -> hold
        assert!(!s.end_frame(DegradeRung::CapLmIterations, Some(900), 1, &t));
        assert_eq!(s.begin_frame(), DegradeRung::CapLmIterations);
        // comfortable -> one rung gentler
        assert!(!s.end_frame(DegradeRung::CapLmIterations, Some(300), 2, &t));
        assert_eq!(s.begin_frame(), DegradeRung::Full);
        assert_eq!(s.status().deadline_misses, 1);
    }

    #[test]
    fn no_budget_never_flags_and_holds_the_ladder() {
        let mut s = DeadlineSupervisor::new(None);
        let t = Telemetry::off();
        assert!(!s.over_cycle_budget(u64::MAX));
        s.force_rung(DegradeRung::ReduceFeatures);
        assert!(!s.end_frame(DegradeRung::ReduceFeatures, None, 0, &t));
        assert_eq!(s.begin_frame(), DegradeRung::ReduceFeatures);
        assert_eq!(s.status().deadline_misses, 0);
    }

    #[test]
    fn transition_table_matches_state_machine() {
        use TrackingState::{Degraded, Lost, Ok};
        let states = [Ok, Degraded, Lost];
        for max_bad in [0usize, 1, 3] {
            for &from in &states {
                for &to in &states {
                    let legal = transition_legal(from, to, max_bad);
                    let expected = match (from, to) {
                        (Lost, Degraded) => false,
                        (Ok, Lost) => max_bad <= 1,
                        _ => true,
                    };
                    assert_eq!(legal, expected, "{from:?}->{to:?} max_bad={max_bad}");
                }
            }
        }
    }
}

//! Pool membership and its persisted form: [`ArrayState`],
//! [`PoolSnapshot`] and the [`PoolHealth`] report.
//!
//! Every array of a [`crate::PimArrayPool`] is in exactly one
//! [`ArrayState`], and every change of it goes through one function,
//! `ArrayState::next`, whose match arms are the transition table
//! (DESIGN.md §14 draws it). A restore
//! ([`crate::PimArrayPool::restore`]) replaces the state with the
//! snapshot's, with one guard: a stale `Quarantined` does not undo a
//! scrub re-admission the live pool made since.

use crate::fault::FaultStatus;
use pimvo_telemetry::container::{ContainerError, Reader, Writer};

/// Clean resilient phases a re-admitted array must complete under
/// verify-on-read before regaining full membership. Any new detected
/// error during probation restarts the countdown.
pub const PROBATION_PHASES: u64 = 3;

/// One array's membership in its pool's dispatch set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayState {
    /// A full member. `scrubbed` marks an array whose membership came
    /// from a scrub re-admission since its last quarantine verdict: a
    /// restore of an older snapshot does not re-quarantine it.
    Active {
        /// Re-admitted by a scrub pass since the last quarantine.
        scrubbed: bool,
    },
    /// Excluded from resilient dispatch.
    Quarantined,
    /// Re-admitted by a scrub pass and serving under verify-on-read:
    /// `left` clean phases (`1..=PROBATION_PHASES`) remain before full
    /// membership.
    Probation {
        /// Clean phases still owed.
        left: u64,
    },
}

/// What happens to an array; [`ArrayState::next`] maps each to a new
/// state (see the module docs for the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArrayEvent {
    /// A defect verdict: a persistent fault, or a manual quarantine.
    Quarantine,
    /// A manual lift of a quarantine (an external repair).
    Lift,
    /// A scrub pass verified every row clean.
    Readmit,
    /// A resilient phase with no new detected error.
    CleanPhase,
    /// A resilient phase with a new detected error.
    DirtyPhase,
}

impl ArrayState {
    /// Whether resilient phases dispatch shards to the array (probation
    /// members serve too).
    pub(crate) fn dispatchable(self) -> bool {
        self != ArrayState::Quarantined
    }

    /// The one transition function: the state after `event`.
    #[must_use]
    pub(crate) fn next(self, event: ArrayEvent) -> ArrayState {
        use ArrayState::{Active, Probation, Quarantined};
        match (self, event) {
            (_, ArrayEvent::Quarantine) => Quarantined,
            (Quarantined, ArrayEvent::Lift) => Active { scrubbed: false },
            (Quarantined, ArrayEvent::Readmit) => Probation {
                left: PROBATION_PHASES,
            },
            (Probation { left: ..=1 }, ArrayEvent::CleanPhase) => Active { scrubbed: true },
            (Probation { left }, ArrayEvent::CleanPhase) => Probation { left: left - 1 },
            (Probation { .. }, ArrayEvent::DirtyPhase) => Probation {
                left: PROBATION_PHASES,
            },
            (s, _) => s,
        }
    }

    /// The state after restoring a snapshot whose state for this array
    /// is `snap`. A `Quarantined` snapshot state records a defect; when
    /// the live array has been re-admitted by a scrub since its last
    /// quarantine (`Probation`, or `Active { scrubbed: true }`), that
    /// defect is the one the scrub repaired, so the live state stays.
    /// Every other snapshot state is adopted as is.
    #[must_use]
    pub(crate) fn restored(self, snap: ArrayState) -> ArrayState {
        match (self, snap) {
            (
                ArrayState::Probation { .. } | ArrayState::Active { scrubbed: true },
                ArrayState::Quarantined,
            ) => self,
            _ => snap,
        }
    }

    /// Whether `from → to` is an edge of the transition table (holding
    /// a state is always legal): the reference the tests check every
    /// transition they observe against.
    #[cfg(test)]
    pub(crate) fn transition_legal(from: ArrayState, to: ArrayState) -> bool {
        use ArrayState::{Active, Probation, Quarantined};
        from == to
            || match (from, to) {
                (_, Quarantined) => true,
                (Quarantined, Active { scrubbed }) => !scrubbed,
                (Quarantined, Probation { left }) => left == PROBATION_PHASES,
                (Probation { left: 1 }, Active { scrubbed }) => scrubbed,
                (Probation { left: a }, Probation { left: b }) => {
                    (b + 1 == a && b > 0) || b == PROBATION_PHASES
                }
                _ => false,
            }
    }
}

/// The persisted part of a pool's health: each array's state and the
/// pool's recovery counters. Per-array fault counters, remap tables and
/// the wall clock describe the physical arrays and stay out.
/// [`crate::PimArrayPool::snapshot`] takes one and
/// [`crate::PimArrayPool::restore`] applies one; the tracker checkpoint
/// and the fleet manifest both carry it through [`PoolSnapshot::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Each array's state, in array order.
    pub states: Vec<ArrayState>,
    /// Shard retries performed.
    pub retries: u64,
    /// Shards re-dispatched after a quarantine.
    pub redispatches: u64,
    /// Shards accepted with detected-but-uncorrected errors.
    pub dirty_accepted: u64,
}

impl PoolSnapshot {
    /// Appends the snapshot to a container payload: the array count
    /// (u64), per array a state tag (u8: 0 active, 1 quarantined, 2
    /// probation) followed by the active state's scrubbed flag (u8) or
    /// the probation's phases left (u64), then the three counters
    /// (u64 each).
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.states.len() as u64);
        for &s in &self.states {
            match s {
                ArrayState::Active { scrubbed } => {
                    w.u8(0);
                    w.u8(scrubbed as u8);
                }
                ArrayState::Quarantined => w.u8(1),
                ArrayState::Probation { left } => {
                    w.u8(2);
                    w.u64(left);
                }
            }
        }
        w.u64(self.retries);
        w.u64(self.redispatches);
        w.u64(self.dirty_accepted);
    }

    /// Reads what [`PoolSnapshot::encode`] wrote.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Truncated`] on short input;
    /// [`ContainerError::Malformed`] for an unknown state tag, a
    /// scrubbed flag other than 0 or 1, or a probation with `left`
    /// outside `1..=PROBATION_PHASES` — states no pool can be in.
    pub fn decode(r: &mut Reader) -> Result<PoolSnapshot, ContainerError> {
        let n = r.count(1)?;
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(match r.u8()? {
                0 => ArrayState::Active {
                    scrubbed: r.bool()?,
                },
                1 => ArrayState::Quarantined,
                2 => match r.u64()? {
                    left @ 1..=PROBATION_PHASES => ArrayState::Probation { left },
                    _ => return Err(ContainerError::Malformed("probation phases out of range")),
                },
                _ => return Err(ContainerError::Malformed("invalid array state")),
            });
        }
        Ok(PoolSnapshot {
            states,
            retries: r.u64()?,
            redispatches: r.u64()?,
            dirty_accepted: r.u64()?,
        })
    }
}

/// Health report of a [`crate::PimArrayPool`]: per-array fault
/// counters and states, and the pool's recovery activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHealth {
    /// Per-array cumulative [`FaultStatus`] (injected / corrected /
    /// detected counters), in array order.
    pub arrays: Vec<FaultStatus>,
    /// Each array's state, in array order.
    pub states: Vec<ArrayState>,
    /// Shard retries performed (same-array and re-dispatch attempts
    /// beyond the first).
    pub retries: u64,
    /// Shards re-dispatched to a different array after a quarantine.
    pub redispatches: u64,
    /// Shards accepted with detected-but-uncorrected errors after
    /// retries were exhausted on a non-persistent (transient) failure.
    pub dirty_accepted: u64,
    /// Logical rows remapped to spares on each array, in array order.
    pub remapped_rows: Vec<u64>,
    /// Scrub passes run over the pool.
    pub scrubs: u64,
    /// Arrays re-admitted from quarantine by a scrub pass (cumulative;
    /// an array rehabilitated twice counts twice).
    pub rehabilitated: u64,
}

impl PoolHealth {
    /// Number of quarantined arrays.
    pub fn quarantined_count(&self) -> usize {
        self.states.iter().filter(|s| !s.dispatchable()).count()
    }

    /// Number of arrays still accepting work.
    pub(crate) fn healthy_count(&self) -> usize {
        self.states.len() - self.quarantined_count()
    }

    /// Total detected (uncorrected) error events across arrays.
    pub fn total_detected(&self) -> u64 {
        self.arrays.iter().map(|s| s.detected).sum()
    }

    /// Total ECC-corrected words across arrays.
    pub fn total_corrected(&self) -> u64 {
        self.arrays.iter().map(|s| s.corrected).sum()
    }

    /// Number of arrays currently in probation.
    pub(crate) fn probation_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, ArrayState::Probation { .. }))
            .count()
    }

    /// Total logical rows remapped to spares across arrays.
    pub fn total_remapped_rows(&self) -> u64 {
        self.remapped_rows.iter().sum()
    }
}

impl From<PoolHealth> for PoolSnapshot {
    /// The persisted part of a health report.
    fn from(h: PoolHealth) -> PoolSnapshot {
        PoolSnapshot {
            states: h.states,
            retries: h.retries,
            redispatches: h.redispatches,
            dirty_accepted: h.dirty_accepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS: [ArrayEvent; 5] = [
        ArrayEvent::Quarantine,
        ArrayEvent::Lift,
        ArrayEvent::Readmit,
        ArrayEvent::CleanPhase,
        ArrayEvent::DirtyPhase,
    ];

    /// Every state a pool can hold.
    fn all_states() -> Vec<ArrayState> {
        let mut v = vec![
            ArrayState::Active { scrubbed: false },
            ArrayState::Active { scrubbed: true },
            ArrayState::Quarantined,
        ];
        v.extend((1..=PROBATION_PHASES).map(|left| ArrayState::Probation { left }));
        v
    }

    /// The events reach exactly the table's edges, and never leave the
    /// set of states a pool can hold.
    #[test]
    fn the_events_take_exactly_the_tables_edges() {
        let states = all_states();
        for &from in &states {
            for e in EVENTS {
                assert!(states.contains(&from.next(e)), "{from:?} --{e:?}-->");
            }
            for &to in &states {
                let reached = from == to || EVENTS.iter().any(|&e| from.next(e) == to);
                assert_eq!(
                    ArrayState::transition_legal(from, to),
                    reached,
                    "{from:?} -> {to:?}"
                );
            }
        }
    }
}

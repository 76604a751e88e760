//! The single wall-time source behind a telemetry registry.
//!
//! Every wall-time field in every export flows through one [`Clock`]
//! owned by the registry; swapping it for a [`ManualClock`] makes the
//! otherwise non-deterministic parts of a trace byte-reproducible,
//! which is how the determinism tests compare full exports.

use std::fmt::Debug;
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Debug + Send {
    /// Nanoseconds since the clock's own epoch. Must be monotone
    /// non-decreasing across calls.
    fn now_ns(&mut self) -> u64;
}

/// The production clock: host monotonic time since construction.
#[derive(Debug)]
pub struct WallClock {
    base: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn start() -> Self {
        WallClock {
            base: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic test clock: advances by a fixed step per query, so a
/// run that performs the same sequence of recordings produces the same
/// timestamps — and therefore byte-identical exports.
#[derive(Debug, Clone)]
pub struct ManualClock {
    now: u64,
    step: u64,
}

impl ManualClock {
    /// A clock starting at zero that advances by `step_ns` per query.
    pub fn with_step(step_ns: u64) -> Self {
        ManualClock {
            now: 0,
            step: step_ns,
        }
    }

    /// Advances the clock by `ns` without producing a sample.
    pub fn advance(&mut self, ns: u64) {
        self.now = self.now.saturating_add(ns);
    }
}

impl Clock for ManualClock {
    fn now_ns(&mut self) -> u64 {
        let t = self.now;
        self.now = self.now.saturating_add(self.step);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let mut c = WallClock::start();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_steps_deterministically() {
        let mut c = ManualClock::with_step(10);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 10);
        c.advance(100);
        assert_eq!(c.now_ns(), 120);
    }
}

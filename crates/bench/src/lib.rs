#![warn(missing_docs)]

//! Shared harness code for the experiment binaries that regenerate
//! every table and figure of the paper, and for the Criterion
//! micro-benches.
//!
//! [`experiments::EXPERIMENTS`] lists every experiment `exp_all` runs
//! with the paper's targets; `exp_all` prints the same rows/series the
//! paper reports and `EXPERIMENTS.md` records the paper-vs-measured
//! comparison.

use pimvo_core::{BackendKind, Tracker, TrackerConfig};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_scene::{rpe_rmse, RpeResult, Sequence, SequenceKind, Trajectory};

/// Default frame count per sequence in the accuracy experiments
/// (3 seconds at 30 Hz — enough for several RPE windows while keeping
/// the cycle-accurate simulation affordable).
pub const DEFAULT_FRAMES: usize = 90;

/// Outcome of tracking one sequence with one backend.
pub struct SequenceRun {
    /// Sequence profile.
    pub kind: SequenceKind,
    /// Backend used.
    pub backend: BackendKind,
    /// Relative-pose-error RMSE (1 s windows).
    pub rpe: RpeResult,
    /// Estimated trajectory.
    pub estimate: Trajectory,
    /// Ground-truth trajectory.
    pub ground_truth: Trajectory,
    /// Backend cost statistics over the whole run.
    pub stats: pimvo_core::BackendStats,
    /// Keyframes promoted.
    pub keyframes: usize,
    /// Mean features per frame.
    pub mean_features: f64,
    /// Mean LM iterations per tracked frame.
    pub mean_iterations: f64,
}

/// Tracks a generated sequence with the chosen backend.
pub fn run_sequence(kind: SequenceKind, backend: BackendKind, frames: usize) -> SequenceRun {
    let seq = Sequence::generate(kind, frames);
    track_sequence(&seq, backend)
}

/// Tracks an already-generated sequence.
pub fn track_sequence(seq: &Sequence, backend: BackendKind) -> SequenceRun {
    let mut tracker = Tracker::new(TrackerConfig::default(), backend);
    let mut estimate = Trajectory::new();
    let mut keyframes = 0usize;
    let mut feats = 0usize;
    let mut iters = 0usize;
    let mut tracked = 0usize;
    for f in &seq.frames {
        let r = tracker.process_frame(&f.gray, &f.depth);
        estimate.push(f.time, r.pose_wc);
        keyframes += r.is_keyframe as usize;
        feats += r.features;
        if r.iterations > 0 {
            iters += r.iterations;
            tracked += 1;
        }
    }
    let rpe = rpe_rmse(&estimate, &seq.ground_truth, 1.0);
    SequenceRun {
        kind: seq.kind,
        backend,
        rpe,
        estimate,
        ground_truth: seq.ground_truth.clone(),
        stats: tracker.stats(),
        keyframes,
        mean_features: feats as f64 / seq.frames.len() as f64,
        mean_iterations: if tracked > 0 {
            iters as f64 / tracked as f64
        } else {
            0.0
        },
    }
}

/// The canonical evaluation frame: one rendered frame of the `xyz`
/// profile (rich texture, ~4-6 k edge features at the default
/// thresholds) — used by the per-kernel cycle experiments.
pub fn canonical_frame() -> (GrayImage, DepthImage) {
    let seq = Sequence::generate(SequenceKind::Xyz, 1);
    let f = &seq.frames[0];
    (f.gray.clone(), f.depth.clone())
}

/// Formats a cycle count with thousands separators for report tables.
pub fn fmt_cycles(c: u64) -> String {
    let s = c.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_cycles_groups_digits() {
        assert_eq!(fmt_cycles(1419120), "1,419,120");
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(1000), "1,000");
    }

    #[test]
    fn short_run_produces_stats() {
        let run = run_sequence(SequenceKind::Desk, BackendKind::Float, 5);
        assert_eq!(run.estimate.len(), 5);
        assert!(run.keyframes >= 1);
        assert!(run.mean_features > 100.0);
        assert!(run.stats.frames == 5);
    }
}

pub mod chaos;
pub mod experiments;
pub mod reports;
pub mod sink;

//! Fault-containment property tests: a 4-session
//! fleet under a seeded quarantine storm stays bit-identical to its
//! solo runs once the scrub pass re-admits (and, where needed, spare-
//! row-remaps) the arrays — and never drops a committed frame.

use pimvo_core::{BackendKind, Tracker, TrackerConfig};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_pim::{ArrayConfig, PimMachine, SessionId};
use pimvo_serve::{FleetScheduler, SessionSpec, StepOutcome};
use pimvo_vomath::SE3;
use proptest::prelude::*;

/// Per-session synthetic stream (same generator as the interleaving
/// tests): a sinusoid texture translating at a session-specific speed.
fn session_frame(session: usize, k: usize, speed: f64) -> (GrayImage, DepthImage) {
    let shift = k as f64 * speed;
    let fx = 0.55 + session as f64 * 0.013;
    let fy = 0.41 + session as f64 * 0.009;
    let gray = GrayImage::from_fn(320, 240, |x, y| {
        let xs = x as f64 + shift;
        let y = y as f64;
        (((xs * fx).sin() + (y * fy).sin() + (xs * 0.13).sin() * (y * 0.09).cos()) * 50.0 + 120.0)
            as u8
    });
    let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
    (gray, depth)
}

/// Reference: the session's frames run alone on a fault-free tracker.
fn solo_poses(session: usize, n_frames: usize, speed: f64) -> Vec<SE3> {
    let mut tracker = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
    (0..n_frames)
        .map(|k| {
            let (g, d) = session_frame(session, k, speed);
            tracker.process_frame(&g, &d).pose_wc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Mid-run, a seeded subset of the shared pool's arrays is
    /// quarantined (one of them additionally grows a persistent
    /// stuck-at defect), the fleet keeps serving on the survivors, and
    /// a scrub pass remaps the defective row onto a spare and re-admits
    /// every array. All four sessions' pose trajectories must stay
    /// bit-identical to their solo runs, and every submitted frame must
    /// complete — a quarantine storm may slow the fleet, never shrink
    /// its output.
    #[test]
    fn quarantine_storm_matches_solo_after_scrub(
        arrays in 3usize..5,
        storm_seed in 0u64..1000,
        speed_seed in 0u64..1000,
    ) {
        const N: usize = 4;
        const FRAMES: usize = 3;
        let speeds: Vec<f64> = (0..N)
            .map(|s| 0.4 + ((speed_seed as usize + s * 7) % 10) as f64 * 0.08)
            .collect();

        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6)).spare_rows(2);
        let mut fleet = FleetScheduler::from_builder(&builder, arrays);
        for s in 0..N {
            fleet.add_session(
                SessionId(s as u32 + 1),
                SessionSpec::new(TrackerConfig::default()).max_queue(FRAMES),
            );
        }
        for s in 0..N {
            for k in 0..FRAMES {
                let (g, d) = session_frame(s, k, speeds[s]);
                fleet.submit_frame(SessionId(s as u32 + 1), g, d).unwrap();
            }
        }

        let mut outcomes: Vec<StepOutcome> = Vec::new();
        for _ in 0..N {
            outcomes.push(fleet.step().unwrap().expect("backlog present"));
        }

        // the storm: quarantine a seeded subset (always leaving at
        // least one healthy array) and plant a stuck bit on the first
        // victim so re-admission requires a spare-row remap
        let q = 1 + storm_seed as usize % (arrays - 1);
        let start = storm_seed as usize % arrays;
        let storm: Vec<usize> = (0..q).map(|i| (start + i) % arrays).collect();
        let victim = storm[0];
        let row = 1 + (storm_seed as usize % 40);
        fleet
            .pool_mut()
            .array_mut(victim)
            .inject_stuck_bit(row, storm_seed as usize % 32, true);
        for &i in &storm {
            fleet.pool_mut().try_quarantine(i).unwrap();
        }
        prop_assert_eq!(fleet.pool().healthy_len(), arrays - q);

        // the fleet keeps serving on the surviving arrays
        for _ in 0..N {
            outcomes.push(fleet.step().unwrap().expect("backlog present"));
        }

        // scrub re-admits everything: clean arrays pass the march
        // patterns, the defective one gets its row remapped to a spare
        prop_assert_eq!(fleet.pool_mut().scrub_now(), q);
        prop_assert_eq!(fleet.pool().healthy_len(), arrays);
        let health = fleet.pool_mut().health();
        prop_assert_eq!(health.rehabilitated, q as u64);
        prop_assert_eq!(health.remapped_rows[victim], 1);

        outcomes.extend(fleet.run_until_idle().unwrap());

        for s in 0..N {
            let id = SessionId(s as u32 + 1);
            let got: Vec<SE3> = outcomes
                .iter()
                .filter(|o| o.session == id)
                .map(|o| o.result.pose_wc)
                .collect();
            let want = solo_poses(s, FRAMES, speeds[s]);
            let st = fleet.stats(id).unwrap();
            prop_assert_eq!(st.completed, FRAMES as u64, "session {} dropped frames", s);
            prop_assert_eq!(st.shed, 0, "session {} shed committed frames", s);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "session {} frame {} pose", s, k);
            }
        }
    }
}

//! Serving-determinism tests: interleaving N sessions over one shared
//! pool must produce poses bit-identical to each session running alone
//! on its own tracker, and eviction + restore of a cold session must
//! replay exactly.

use pimvo_core::{BackendKind, Tracker, TrackerConfig};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_pim::{ArrayConfig, PimMachine, SessionId};
use pimvo_serve::{FleetScheduler, SessionSpec, StepOutcome};
use pimvo_vomath::SE3;
use proptest::prelude::*;

/// Per-session synthetic stream: a sinusoid texture translating at a
/// session-specific speed, with session-specific spatial frequencies so
/// no two sessions see the same scene.
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

/// Reference: the session's frames run alone on a freshly built
/// tracker (the PIM backend on a one-array pool, as the fleet builds).
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

    /// 4 sessions, arbitrary submission/execution interleaving over a
    /// shared multi-array pool: every session's pose trajectory is
    /// bit-identical to its solo run.
    #[test]
    fn interleaved_sessions_match_solo(
        arrays in 2usize..5,
        speed_seed in 0u64..1000,
        schedule in prop::collection::vec(any::<u8>(), 20..40),
    ) {
        const N: usize = 4;
        const FRAMES: usize = 3;
        let speeds: Vec<f64> = (0..N)
            .map(|s| 0.4 + ((speed_seed as usize + s * 7) % 10) as f64 * 0.08)
            .collect();

        let mut fleet = FleetScheduler::new(arrays);
        for s in 0..N {
            fleet.add_session(
                SessionId(s as u32 + 1),
                SessionSpec::new(TrackerConfig::default()).max_queue(FRAMES),
            );
        }

        // interleave submissions and steps per the random schedule,
        // then drain whatever is left
        let mut next = vec![0usize; N];
        let mut outcomes: Vec<StepOutcome> = Vec::new();
        for ix in &schedule {
            let slot = *ix as usize % (2 * N);
            if slot < N {
                if next[slot] < FRAMES {
                    let (g, d) = session_frame(slot, next[slot], speeds[slot]);
                    fleet.submit_frame(SessionId(slot as u32 + 1), g, d).unwrap();
                    next[slot] += 1;
                }
            } else if let Some(o) = fleet.step().unwrap() {
                outcomes.push(o);
            }
        }
        for (s, n) in next.iter_mut().enumerate() {
            while *n < FRAMES {
                let (g, d) = session_frame(s, *n, speeds[s]);
                fleet.submit_frame(SessionId(s as u32 + 1), g, d).unwrap();
                *n += 1;
            }
        }
        outcomes.extend(fleet.run_until_idle().unwrap());

        for s in 0..N {
            let got: Vec<SE3> = outcomes
                .iter()
                .filter(|o| o.session == SessionId(s as u32 + 1))
                .map(|o| o.result.pose_wc)
                .collect();
            let want = solo_poses(s, FRAMES, speeds[s]);
            prop_assert_eq!(got.len(), FRAMES, "session {} frame count", s);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "session {} frame {} pose", s, k);
            }
        }

        // Fleet-wide lowering dedup: whatever the interleaving, every
        // distinct (program, level, config) triple was lowered exactly
        // once — misses mint entries one-for-one, and any re-lowering
        // of a resident triple would push misses past entries.
        let lw = fleet.lowered_stats();
        prop_assert_eq!(lw.misses, lw.entries, "one lowering per distinct triple");
        prop_assert!(lw.hits > 0, "later frames must reuse earlier lowerings");
        // per-session attribution adds up to the fleet totals
        let (mut hits, mut misses) = (0u64, 0u64);
        for s in 0..N {
            let st = fleet.stats(SessionId(s as u32 + 1)).unwrap();
            hits += st.lower_hits;
            misses += st.lower_misses;
        }
        prop_assert_eq!(hits, lw.hits);
        prop_assert_eq!(misses, lw.misses);
    }
}

/// The cache is keyed by content, not by fleet or session identity: a
/// second fleet sharing the handle and serving the same streams lowers
/// nothing at all — its workload's triples are already resident.
#[test]
fn shared_cache_makes_second_fleet_lower_nothing() {
    use pimvo_pim::LoweredCache;
    const N: usize = 4;
    const FRAMES: usize = 2;

    let cache = LoweredCache::new();
    let run = |cache: &LoweredCache| {
        let mut fleet = FleetScheduler::new(2);
        fleet.set_lowered_cache(cache.clone());
        for s in 0..N {
            fleet.add_session(
                SessionId(s as u32 + 1),
                SessionSpec::new(TrackerConfig::default()).max_queue(FRAMES),
            );
            for k in 0..FRAMES {
                let (g, d) = session_frame(s, k, 0.6);
                fleet.submit_frame(SessionId(s as u32 + 1), g, d).unwrap();
            }
        }
        fleet.run_until_idle().unwrap();
        fleet.lowered_stats()
    };

    let first = run(&cache);
    assert_eq!(first.misses, first.entries, "one lowering per triple");
    assert!(first.hits > 0, "sessions share each other's lowerings");

    let second = run(&cache);
    assert_eq!(
        second.misses, first.misses,
        "an identical fleet must re-lower nothing"
    );
    assert!(second.hits > first.hits, "the rerun is served from cache");
}

/// Eviction to checkpoint bytes and transparent restore replays the
/// session exactly. Three fleets serve the same frames: one evicts the
/// session mid-stream and restores it with the keyframe tables it kept,
/// one is recovered from a manifest saved at that point (a restore with
/// no kept tables), and one never evicts. Poses, per-frame latencies
/// and the fleet clock agree bit-for-bit, and the poses equal a solo
/// tracker's.
#[test]
fn evicted_session_replays_exactly() {
    const FRAMES: usize = 6;
    const EVICT_AT: usize = 3;
    let speed = 0.7;
    let id = SessionId(1);
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6));
    let specs = [(
        id,
        SessionSpec::new(TrackerConfig::default()).max_queue(FRAMES),
    )];
    let new_fleet = || {
        let mut fleet = FleetScheduler::from_builder(&builder, 2);
        fleet.add_session(id, specs[0].1.clone());
        fleet
    };
    let feed = |fleet: &mut FleetScheduler, frames: std::ops::Range<usize>| {
        for k in frames {
            let (g, d) = session_frame(0, k, speed);
            fleet.submit_frame(id, g, d).unwrap();
        }
        let out = fleet.run_until_idle().unwrap();
        out.into_iter()
            .map(|o| o.result.pose_wc)
            .collect::<Vec<_>>()
    };

    // the same two submission bursts in every fleet
    let mut whole = new_fleet();
    let mut want = feed(&mut whole, 0..EVICT_AT);
    want.extend(feed(&mut whole, EVICT_AT..FRAMES));

    let mut kept = new_fleet();
    let mut kept_poses = feed(&mut kept, 0..EVICT_AT);
    assert!(kept.evict(id).unwrap(), "session was resident");
    assert!(!kept.is_resident(id), "zero resident state");
    let dir = std::env::temp_dir().join(format!("pimvo_evict_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.ckpt");
    kept.save_manifest(&path).unwrap();
    let mut recovered = FleetScheduler::recover(&path, &builder, 2, &specs).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut recovered_poses = kept_poses.clone();
    kept_poses.extend(feed(&mut kept, EVICT_AT..FRAMES));
    recovered_poses.extend(feed(&mut recovered, EVICT_AT..FRAMES));

    let solo = solo_poses(0, FRAMES, speed);
    assert_eq!(want.len(), FRAMES);
    for (k, want) in want.iter().enumerate() {
        assert_eq!(*want, solo[k], "frame {k}: fleet pose equals solo");
        assert_eq!(kept_poses[k], *want, "frame {k}: kept-table restore");
        assert_eq!(recovered_poses[k], *want, "frame {k}: manifest recovery");
    }
    let latencies = |fleet: &FleetScheduler| fleet.stats(id).unwrap().latencies_cycles.clone();
    assert_eq!(latencies(&kept), latencies(&whole));
    assert_eq!(latencies(&recovered), latencies(&whole));
    assert_eq!(kept.now_cycles(), whole.now_cycles());
    assert_eq!(recovered.now_cycles(), whole.now_cycles());
    for fleet in [&kept, &recovered] {
        let st = fleet.stats(id).unwrap();
        assert_eq!((st.evictions, st.restores), (1, 1));
    }
}

//! Integration tests of the supervisor layer: deadline enforcement
//! (degradation ladder, overrun bounding, bit-identity when disabled)
//! and checkpoint/restore (kill-and-restore trajectory equality, typed
//! rejection of damaged snapshots, recovery-config edge cases).

use pimvo_core::{
    transition_legal, BackendKind, Checkpoint, CheckpointError, DegradeRung, Tracker,
    TrackerConfig, TrackingState,
};
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_vomath::Pinhole;

/// Half-resolution config so debug-mode tests stay fast.
fn small_config() -> TrackerConfig {
    TrackerConfig {
        camera: Pinhole::qvga().halved(),
        max_features: 3000,
        ..TrackerConfig::default()
    }
}

/// Textured wall at 2 m, shifted horizontally by `shift` pixels —
/// emulates lateral camera motion of `shift * z / f` meters.
fn frame(cam: &Pinhole, shift: f64) -> (GrayImage, DepthImage) {
    let gray = GrayImage::from_fn(cam.width, cam.height, |x, y| {
        let xs = x as f64 + shift;
        let v = ((xs * 0.55).sin()
            + (y as f64 * 0.41).sin()
            + (xs * 0.13).sin() * (y as f64 * 0.09).cos())
            * 50.0
            + 120.0;
        v.clamp(0.0, 255.0) as u8
    });
    let depth = DepthImage::from_fn(cam.width, cam.height, |_, _| 2.0);
    (gray, depth)
}

fn blank(cam: &Pinhole) -> (GrayImage, DepthImage) {
    (
        GrayImage::from_fn(cam.width, cam.height, |_, _| 128),
        DepthImage::from_fn(cam.width, cam.height, |_, _| 2.0),
    )
}

#[test]
fn kill_and_restore_replays_the_uninterrupted_run() {
    let cfg = small_config();
    let cam = cfg.camera;
    let frames: Vec<_> = (0..10).map(|i| frame(&cam, i as f64 * 0.8)).collect();

    // uninterrupted reference run
    let mut a = Tracker::new(cfg.clone(), BackendKind::Float);
    let mut ref_poses = Vec::new();
    let mut ckpt: Option<Checkpoint> = None;
    for (i, (g, d)) in frames.iter().enumerate() {
        let r = a.process_frame(g, d);
        ref_poses.push(r.pose_wc);
        if i == 5 {
            ckpt = Some(a.checkpoint());
        }
    }
    let ckpt = ckpt.expect("checkpoint at frame 5");

    // "killed" process: a fresh tracker restores the snapshot and
    // continues from frame 6
    let mut b = Tracker::new(cfg, BackendKind::Float);
    b.restore(&ckpt).expect("restore");
    for (i, (g, d)) in frames.iter().enumerate().skip(6) {
        let r = b.process_frame(g, d);
        assert_eq!(r.index, i, "frame numbering resumes");
        let err = (r.pose_wc.translation - ref_poses[i].translation).norm();
        assert!(err < 1e-12, "frame {i}: restored pose off by {err}");
    }
}

#[test]
fn pim_round_trip_restores_pool_quarantine() {
    let cfg = small_config();
    let cam = cfg.camera;
    let mut a = Tracker::new(cfg.clone(), BackendKind::Pim);
    let (g, d) = frame(&cam, 0.0);
    a.process_frame(&g, &d);
    let ckpt = a.checkpoint();
    assert!(ckpt.pool.is_some(), "PIM backend snapshots pool health");

    let bytes = ckpt.to_bytes();
    let back = Checkpoint::from_bytes(&bytes).expect("decode");
    assert_eq!(ckpt, back, "binary round trip is exact");

    let mut b = Tracker::new(cfg, BackendKind::Pim);
    b.restore(&back).expect("restore onto PIM backend");
    let (g1, d1) = frame(&cam, 1.0);
    let ra = a.process_frame(&g1, &d1);
    let rb = b.process_frame(&g1, &d1);
    let err = (ra.pose_wc.translation - rb.pose_wc.translation).norm();
    assert!(err < 1e-12, "restored PIM tracker diverged by {err}");
}

#[test]
fn damaged_snapshots_are_rejected_with_typed_errors() {
    let cfg = small_config();
    let cam = cfg.camera;
    let mut t = Tracker::new(cfg.clone(), BackendKind::Float);
    let (g, d) = frame(&cam, 0.0);
    t.process_frame(&g, &d);
    let pose_before = t.process_frame(&g, &d).pose_wc;
    let bytes = t.checkpoint().to_bytes();

    // config mismatch (framing damage is covered for every format in
    // crates/serve/tests/container_corruption.rs): a tracker with
    // different estimator settings refuses the snapshot and is left
    // unchanged
    let ckpt = Checkpoint::from_bytes(&bytes).expect("pristine decodes");
    let mut other_cfg = cfg;
    other_cfg.max_features = 1234;
    let mut other = Tracker::new(other_cfg, BackendKind::Float);
    assert!(matches!(
        other.restore(&ckpt),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
    // the rejecting tracker still works from scratch
    let r = other.process_frame(&g, &d);
    assert!(r.is_keyframe);

    // ... and the original tracker was never disturbed
    let r = t.process_frame(&g, &d);
    let drift = (r.pose_wc.translation - pose_before.translation).norm();
    assert!(drift < 5e-3, "tracker disturbed by rejected restores");
}

#[test]
fn squeezed_budget_descends_the_documented_ladder() {
    // measure the (structurally constant) edge-phase cost: the
    // bootstrap frame runs edge detection only
    let cam = small_config().camera;
    let mut probe = Tracker::new(small_config(), BackendKind::Float);
    let (g0, d0) = frame(&cam, 0.0);
    probe.process_frame(&g0, &d0);
    let edge_cost = probe.stats().total_cycles();

    // budget just above the edge phase: edges always fit (no mid-frame
    // trip), any alignment at all overruns — so every working rung
    // misses at end-of-frame and the controller walks the ladder one
    // rung per miss, exactly in the documented order
    let mut t = Tracker::new(small_config(), BackendKind::Float);
    t.set_frame_budget_cycles(Some(edge_cost + 1_000));
    let mut rungs = Vec::new();
    let mut states = vec![t.state()];
    for i in 0..8 {
        let (g, d) = frame(&cam, i as f64 * 0.5);
        let r = t.process_frame(&g, &d);
        rungs.push(r.rung);
        states.push(r.state);
    }
    // frame 0 bootstraps at Full (edges only: met, held); frames 1-4
    // escalate one rung per miss; a coasted frame spends nothing, so
    // the controller relaxes and duty-cycles Coast <-> SkipNms
    assert_eq!(
        rungs,
        [
            DegradeRung::Full,
            DegradeRung::Full,
            DegradeRung::CapLmIterations,
            DegradeRung::ReduceFeatures,
            DegradeRung::SkipNmsRefinement,
            DegradeRung::Coast,
            DegradeRung::SkipNmsRefinement,
            DegradeRung::Coast,
        ]
    );
    let status = t.budget_status();
    assert!(status.deadline_misses >= 4, "{status:?}");
    assert!(status.coasted_frames >= 2);
    // a scheduled coast starts no phases: zero cycles -> within budget
    assert_eq!(status.last_frame_cycles, 0, "coast must shed all compute");

    // every state transition along the way is legal per the shared table
    let max_bad = t.config().recovery.max_bad_frames;
    for w in states.windows(2) {
        assert!(
            transition_legal(w[0], w[1], max_bad),
            "illegal transition {:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    // coasting is deliberate shedding, not failure: with a healthy
    // scene the tracker reports Degraded, never Lost
    assert!(states.iter().all(|s| *s != TrackingState::Lost));
}

#[test]
fn overrun_is_bounded_to_one_phase() {
    // budget below the edge-detection cost: the frame detects the
    // overrun at the edges+features boundary and must not start the
    // alignment phase (iterations stays 0 once tracking is supervised)
    let cfg = small_config();
    let cam = cfg.camera;
    let mut t = Tracker::new(cfg, BackendKind::Float);
    t.set_frame_budget_cycles(Some(10_000));
    for i in 0..6 {
        let (g, d) = frame(&cam, i as f64 * 0.5);
        let r = t.process_frame(&g, &d);
        if i == 0 {
            continue; // bootstrap runs unsupervised
        }
        if t.budget_status().last_frame_cycles > 10_000 {
            assert_eq!(
                r.iterations, 0,
                "frame {i} overran at a phase boundary but still aligned"
            );
        }
    }
}

#[test]
fn generous_budget_is_bit_identical_to_disabled() {
    let cfg = small_config();
    let cam = cfg.camera;

    for kind in [BackendKind::Float, BackendKind::Pim] {
        let mut off = Tracker::new(cfg.clone(), kind);
        let mut on = Tracker::new(cfg.clone(), kind);
        on.set_frame_budget_cycles(Some(u64::MAX));
        for i in 0..4 {
            let (g, d) = frame(&cam, i as f64 * 0.7);
            let r_off = off.process_frame(&g, &d);
            let r_on = on.process_frame(&g, &d);
            assert_eq!(
                r_off.pose_wc.translation.x.to_bits(),
                r_on.pose_wc.translation.x.to_bits(),
                "{kind:?} frame {i}: pose must be bit-identical"
            );
            assert_eq!(r_off.iterations, r_on.iterations);
            assert_eq!(r_on.rung, DegradeRung::Full);
        }
        let (s_off, s_on) = (off.stats(), on.stats());
        assert_eq!(
            s_off.total_cycles(),
            s_on.total_cycles(),
            "{kind:?}: cycle counts must be bit-identical"
        );
        assert_eq!(
            s_off.energy_mj.to_bits(),
            s_on.energy_mj.to_bits(),
            "{kind:?}: energy must be bit-identical"
        );
    }
}

#[test]
fn shed_rung_applies_without_a_budget() {
    // a fleet session carries no budget: the rung it is pinned to must
    // still reach the frame, and the ladder must hold there
    let cfg = small_config();
    let cam = cfg.camera;
    for kind in [BackendKind::Float, BackendKind::Pim] {
        let mut t = Tracker::new(cfg.clone(), kind);
        let (g, d) = frame(&cam, 0.0);
        t.process_frame(&g, &d);
        t.set_shed_rung(DegradeRung::Coast);
        let cycles = t.stats().total_cycles();
        let (g, d) = frame(&cam, 0.8);
        let r = t.process_frame(&g, &d);
        assert_eq!(r.rung, DegradeRung::Coast, "{kind:?}");
        assert_eq!(r.iterations, 0, "{kind:?}: a coasted frame aligns nothing");
        assert_eq!(
            t.stats().total_cycles(),
            cycles,
            "{kind:?}: coast sheds all compute"
        );
        let status = t.budget_status();
        assert_eq!(
            status.rung,
            DegradeRung::Coast,
            "{kind:?}: no controller moves it"
        );
        assert_eq!((status.deadline_misses, status.coasted_frames), (0, 1));
    }
}

#[test]
fn zero_frame_coast_window_goes_straight_to_lost() {
    let mut cfg = small_config();
    cfg.recovery.max_bad_frames = 0;
    let cam = cfg.camera;
    let mut t = Tracker::new(cfg, BackendKind::Float);
    let (g, d) = frame(&cam, 0.0);
    t.process_frame(&g, &d);
    assert_eq!(t.state(), TrackingState::Ok);
    let (bg, bd) = blank(&cam);
    let r = t.process_frame(&bg, &bd);
    // the Ok -> Lost shortcut is exactly what the shared table allows
    // for max_bad_frames <= 1
    assert_eq!(r.state, TrackingState::Lost);
    assert!(transition_legal(TrackingState::Ok, r.state, 0));
    assert!(!transition_legal(TrackingState::Ok, TrackingState::Lost, 3));
}

#[test]
fn featureless_bootstrap_re_seeds_without_panicking() {
    // bootstrap on a blank frame builds an (empty) keyframe; subsequent
    // blank frames must walk Degraded -> Lost and re-seed against that
    // empty keyframe without panicking
    let cfg = small_config();
    let cam = cfg.camera;
    let max_bad = cfg.recovery.max_bad_frames;
    let mut t = Tracker::new(cfg, BackendKind::Float);
    let (bg, bd) = blank(&cam);
    let r0 = t.process_frame(&bg, &bd);
    assert!(r0.is_keyframe);
    let mut states = vec![t.state()];
    for _ in 0..max_bad + 2 {
        states.push(t.process_frame(&bg, &bd).state);
    }
    assert_eq!(*states.last().expect("ran frames"), TrackingState::Lost);
    for w in states.windows(2) {
        assert!(transition_legal(w[0], w[1], max_bad));
    }
    // texture returning re-localizes even from an empty-keyframe seed:
    // the first textured frame is rejected against the blank keyframe
    // (no residual support) but must not panic, and tracking continues
    let (g, d) = frame(&cam, 0.0);
    let _ = t.process_frame(&g, &d);
}

#[test]
fn checkpoint_file_round_trip_and_atomic_write() {
    let cfg = small_config();
    let cam = cfg.camera;
    let mut t = Tracker::new(cfg.clone(), BackendKind::Float);
    for i in 0..3 {
        let (g, d) = frame(&cam, i as f64);
        t.process_frame(&g, &d);
    }
    let dir = std::env::temp_dir().join("pimvo_supervision_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tracker.ckpt");
    t.save_checkpoint(&path).expect("save");
    assert!(!path.with_extension("ckpt.tmp").exists(), "temp cleaned up");

    let mut u = Tracker::new(cfg, BackendKind::Float);
    u.restore_from_file(&path).expect("restore from file");
    let (g, d) = frame(&cam, 3.0);
    let a = t.process_frame(&g, &d);
    let b = u.process_frame(&g, &d);
    assert_eq!(a.index, b.index);
    let err = (a.pose_wc.translation - b.pose_wc.translation).norm();
    assert!(err < 1e-12, "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

//! Integration tests of the fault-resilience layer: quarantine
//! transparency at the pool level, ECC cost visibility, and end-to-end
//! tracker recovery from an injected fault burst.

use pimvo_core::pim_exec::{BatchOptions, BatchOutput, BatchRunner, BATCH};
use pimvo_core::{Feature, Keyframe, QFeature, QKeyframe, QPose};
use pimvo_kernels::GrayImage;
use pimvo_pim::{ArrayConfig, PimMachine, Protection};
use pimvo_vomath::{Pinhole, SE3};
use proptest::prelude::*;

fn test_kf(cam: &Pinhole) -> QKeyframe {
    let (w, h) = (320u32, 240u32);
    let mut mask = vec![0u8; (w * h) as usize];
    for y in (8..h).step_by(16) {
        for x in (8..w).step_by(14) {
            mask[(y * w + x) as usize] = 255;
        }
    }
    Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), cam).q_tables
}

fn features(cam: &Pinhole, n: usize, seed: u64) -> Vec<QFeature> {
    (0..n)
        .map(|i| {
            let k = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E3779B97F4A7C15);
            let u = 10.0 + (k % 300) as f64;
            let v = 10.0 + ((k >> 16) % 220) as f64;
            let d = 0.8 + ((k >> 32) % 500) as f64 * 0.01;
            Feature::new(u, v, d, cam).q
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A pool that lost an array to quarantine still produces outputs
    /// bit-identical to a pristine single array: shards re-pack onto
    /// the healthy arrays, values never change.
    #[test]
    fn quarantined_pool_matches_single_machine(
        seed in any::<u64>(),
        n_feats in 1usize..220,
        n_arrays in 2usize..5,
        quarantine in 0usize..4,
        tx in -0.05f64..0.05,
        wz in -0.03f64..0.03,
    ) {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = features(&cam, n_feats, seed);
        let pose = QPose::quantize(&SE3::exp(&[tx, -0.01, 0.01, 0.0, 0.005, wz]));

        let mut runner = BatchRunner::new(BatchOptions {
            pool: n_arrays,
            ..Default::default()
        });
        runner.pool_mut().try_quarantine(quarantine % n_arrays).unwrap();
        let sharded = runner.submit(&feats, &pose, &kf, &cam).expect("healthy arrays remain");

        let mut one = BatchRunner::new(BatchOptions::default());
        let sequential: Vec<BatchOutput> = feats
            .chunks(BATCH)
            .flat_map(|c| one.submit(c, &pose, &kf, &cam).unwrap())
            .collect();

        prop_assert_eq!(&sharded, &sequential);
        // the quarantined array did no work
        let idle = runner.pool().array(quarantine % n_arrays).stats();
        prop_assert_eq!(idle.acc_ops, 0);
    }
}

/// Word protection charges its detect/correct overhead through the cost
/// model into `ExecStats` without perturbing any computed value.
#[test]
fn ecc_overhead_is_charged_but_values_unchanged() {
    let cam = Pinhole::qvga();
    let kf = test_kf(&cam);
    let feats = features(&cam, 100, 7);
    let pose = QPose::quantize(&SE3::exp(&[0.02, -0.01, 0.01, 0.0, 0.005, 0.01]));
    let opts = BatchOptions::default();

    let mut plain = BatchRunner::new(opts);
    let base = plain.submit(&feats, &pose, &kf, &cam).unwrap();
    let base_stats = plain.pool().merged_stats();

    for (p, corrects) in [(Protection::Parity, false), (Protection::Ecc, true)] {
        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6)).protection(p);
        let mut prot = BatchRunner::from_builder(&builder, opts);
        let out = prot.submit(&feats, &pose, &kf, &cam).unwrap();
        assert_eq!(out, base, "{p:?} must not change any value");
        let stats = prot.pool().merged_stats();
        if corrects {
            assert!(stats.ecc_checks > 0, "ECC checks must be counted");
            assert!(
                stats.cycles > base_stats.cycles,
                "ECC check latency must be charged"
            );
            let cost = pimvo_pim::CostModel::default();
            assert!(
                stats.energy(&cost).ecc_pj > 0.0,
                "ECC energy must be visible"
            );
        } else {
            assert!(stats.parity_checks > 0, "parity checks must be counted");
            // parity is combinational in the sense amps: zero extra cycles
            assert_eq!(stats.cycles, base_stats.cycles);
        }
        assert_eq!(stats.ecc_corrections, 0, "no faults, nothing to correct");
    }
}

/// End-to-end recovery: a burst of injected faults corrupts the
/// machine-executed normal equations badly enough to degrade tracking;
/// once the burst ends the tracker must return to `Ok` within the
/// recovery window.
mod injected {
    use pimvo_core::pim_exec::BatchOptions;
    use pimvo_core::{PimBackend, Tracker, TrackerBackend, TrackerConfig, TrackingState};
    use pimvo_kernels::{EdgeConfig, EdgeMaps, GrayImage};
    use pimvo_pim::{ArrayConfig, FaultModel, PimMachine, Protection};
    use pimvo_scene::{Sequence, SequenceKind};
    use pimvo_vomath::{NormalEquations, Pinhole, SE3};

    /// Delegating backend that switches every array's fault model off
    /// after a fixed number of frames — a bounded fault burst.
    struct BurstBackend {
        inner: PimBackend,
        frames: usize,
        burst_frames: usize,
    }

    impl TrackerBackend for BurstBackend {
        fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
            self.frames += 1;
            if self.frames == self.burst_frames + 1 {
                let pool = self.inner.pool_mut();
                for i in 0..pool.len() {
                    pool.array_mut(i).set_fault_model(FaultModel::none());
                }
            }
            self.inner.detect_edges(img, cfg)
        }
        fn downsample(&mut self, img: &GrayImage) -> GrayImage {
            self.inner.downsample(img)
        }
        fn linearize(
            &mut self,
            features: &[pimvo_core::Feature],
            keyframe: &pimvo_core::Keyframe,
            cam: &Pinhole,
            pose: &SE3,
        ) -> NormalEquations {
            self.inner.linearize(features, keyframe, cam, pose)
        }
        fn stats(&self) -> pimvo_core::BackendStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats()
        }
        fn pool_health(&self) -> Option<pimvo_pim::PoolHealth> {
            self.inner.pool_health()
        }
    }

    #[test]
    fn tracker_relocalizes_after_fault_burst() {
        // Unprotected arrays + a heavy upset rate: the burst corrupts
        // the on-machine normal equations catastrophically.
        let builder = PimMachine::builder(ArrayConfig::qvga_banks(6))
            .fault(FaultModel::transient(11, 2e-4))
            .protection(Protection::None);
        let options = BatchOptions {
            pool: 2,
            on_machine: true,
            ..Default::default()
        };
        let config = TrackerConfig {
            max_features: 400,
            ..TrackerConfig::default()
        };
        let burst_frames = 1 + config.recovery.max_bad_frames;
        let backend = BurstBackend {
            inner: PimBackend::from_builder(&builder, options),
            frames: 0,
            burst_frames,
        };
        let mut tracker = Tracker::with_backend(config, Box::new(backend));

        let recovery_window = 3;
        let seq = Sequence::generate(SequenceKind::Desk, burst_frames + recovery_window);
        let mut states = Vec::new();
        for f in &seq.frames {
            let r = tracker.process_frame(&f.gray, &f.depth);
            states.push(r.state);
        }
        // frame 0 bootstraps (always Ok); the burst must visibly
        // degrade at least one of the following frames
        assert!(
            states[1..burst_frames]
                .iter()
                .any(|s| *s != TrackingState::Ok),
            "fault burst should degrade tracking: {states:?}"
        );
        // and once the burst ends, the tracker returns to Ok
        assert_eq!(
            *states.last().expect("nonempty"),
            TrackingState::Ok,
            "tracker must re-localize after the burst: {states:?}"
        );
        assert_eq!(tracker.state(), TrackingState::Ok);
    }

    /// A depleted pool (every array quarantined) must not stop the
    /// tracker: `linearize` degrades to the host-side scalar path.
    #[test]
    fn tracking_survives_full_pool_quarantine() {
        let options = BatchOptions {
            pool: 2,
            on_machine: true,
            ..Default::default()
        };
        let mut backend = PimBackend::with_options(options);
        backend.pool_mut().try_quarantine(0).unwrap();
        backend.pool_mut().try_quarantine(1).unwrap();
        let config = TrackerConfig {
            max_features: 400,
            ..TrackerConfig::default()
        };
        let mut tracker = Tracker::with_backend(config, Box::new(backend));
        let seq = Sequence::generate(SequenceKind::Desk, 3);
        for f in &seq.frames {
            let r = tracker.process_frame(&f.gray, &f.depth);
            assert!(r.pose_wc.translation_norm().is_finite());
        }
        assert_eq!(tracker.state(), TrackingState::Ok);
    }
}

//! Shape tests for the paper's headline results: these encode, as
//! assertions, the qualitative claims every experiment must reproduce
//! (who wins, by roughly what factor). The exact numbers live in
//! `EXPERIMENTS.md`; these tests keep the shapes from regressing.

use pimvo::core::pim_exec::{BatchOptions, BatchRunner, BATCH};
use pimvo::core::{extract_features, BackendKind, Keyframe, Tracker, TrackerConfig};
use pimvo::kernels::pim_pool::EdgeKernels;
use pimvo::kernels::EdgeConfig;
use pimvo::mcu::{CostCounter, FloatFeature};
use pimvo::pim::{ArrayConfig, CostModel, PimMachine};
use pimvo::scene::{Sequence, SequenceKind};
use pimvo::vomath::{Pinhole, SE3};

fn canonical_frame() -> (pimvo::kernels::GrayImage, pimvo::kernels::DepthImage) {
    let seq = Sequence::generate(SequenceKind::Xyz, 1);
    let f = &seq.frames[0];
    (f.gray.clone(), f.depth.clone())
}

#[test]
fn edge_detection_speedup_shape() {
    // paper: 48x (PicoEdge vs PIM); ours is leaner on the PIM side, so
    // anything far above 10x with identical output preserves the claim
    let (gray, _) = canonical_frame();
    let cfg = EdgeConfig::default();

    let mut counter = CostCounter::new();
    let mcu_maps = pimvo::mcu::edge_detect_counted(&gray, &cfg, &mut counter);

    let mut m = PimMachine::builder(ArrayConfig::qvga_banks(6)).build_pool(1);
    let pim_maps = EdgeKernels::new().edge_detect(&mut m, &gray, &cfg);

    assert_eq!(mcu_maps.mask, pim_maps.mask, "outputs must be identical");
    let speedup = counter.cycles() as f64 / m.merged_stats().cycles as f64;
    assert!(speedup > 40.0, "edge speedup {speedup}");
}

#[test]
fn lm_speedup_and_overall_shape() {
    // paper: 9x LM, ~11x overall; our regime: LM 4-12x, overall 5-20x
    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();

    let mut counter = CostCounter::new();
    let maps = pimvo::mcu::edge_detect_counted(&gray, &cfg, &mut counter);
    let mcu_edge = counter.cycles();
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    assert!(features.len() > 2000, "features {}", features.len());
    let floats: Vec<FloatFeature> = features
        .iter()
        .map(|f| FloatFeature {
            a: f.a,
            b: f.b,
            c: f.c,
        })
        .collect();
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    counter.reset();
    let _ = pimvo::mcu::linearize_counted(&floats, &kf.tables, &cam, &SE3::IDENTITY, &mut counter);
    let mcu_lm = counter.cycles();

    // one array running both stages
    let mut runner = BatchRunner::new(BatchOptions::default());
    let _ = EdgeKernels::new().edge_detect(runner.pool_mut(), &gray, &cfg);
    let pim_edge = runner.pool().merged_stats().cycles;
    let qpose = pimvo::core::QPose::quantize(&SE3::IDENTITY);
    let price = runner.batch_cost(&qpose, &kf.q_tables, &cam).unwrap();
    let batches = features.len().div_ceil(BATCH) as u64;
    let pim_lm = price.cycles * batches;

    let lm_speedup = mcu_lm as f64 / pim_lm as f64;
    assert!((3.0..15.0).contains(&lm_speedup), "LM speedup {lm_speedup}");

    let overall = (mcu_edge + 8 * mcu_lm) as f64 / (pim_edge + 8 * pim_lm) as f64;
    assert!((5.0..20.0).contains(&overall), "overall speedup {overall}");

    // LM speedup must be smaller than the edge speedup (32-bit mul/div
    // throughput penalty, §5.3)
    let edge_speedup = mcu_edge as f64 / pim_edge as f64;
    assert!(edge_speedup > lm_speedup, "{edge_speedup} vs {lm_speedup}");
}

#[test]
fn energy_shape() {
    // paper: 10.3 mJ vs 0.495 mJ per frame (20.8x); SRAM dominates the
    // PIM budget (86 %); writes are a small slice after the Tmp-Reg
    // optimization
    let seq = Sequence::generate(SequenceKind::Xyz, 3);
    let mut tf = Tracker::new(TrackerConfig::default(), BackendKind::Float);
    let mut tp = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
    for f in &seq.frames {
        let _ = tf.process_frame(&f.gray, &f.depth);
        let _ = tp.process_frame(&f.gray, &f.depth);
    }
    let mcu_mj = tf.stats().energy_mj / 3.0;
    let pim_mj = tp.stats().energy_mj / 3.0;
    assert!((5.0..20.0).contains(&mcu_mj), "MCU {mcu_mj} mJ/frame");
    assert!((0.1..1.5).contains(&pim_mj), "PIM {pim_mj} mJ/frame");
    let ratio = mcu_mj / pim_mj;
    assert!((8.0..40.0).contains(&ratio), "energy ratio {ratio}");

    let pim = tp.stats().pim.expect("pim stats");
    let e = pim.energy(&CostModel::default());
    assert!(e.sram_share() > 0.75, "SRAM share {}", e.sram_share());
    let mem = pim.mem_accesses();
    assert!(
        mem.write_share() < 0.10,
        "write share {}",
        mem.write_share()
    );
}

#[test]
fn feature_count_in_paper_regime() {
    // paper: 3000-6000 tracked features at QVGA
    for kind in [SequenceKind::Xyz, SequenceKind::Desk] {
        let seq = Sequence::generate(kind, 1);
        let f = &seq.frames[0];
        let cfg = TrackerConfig::default();
        let maps = pimvo::kernels::scalar::edge_detect(&f.gray, &cfg.edge);
        let feats = extract_features(
            &maps.mask,
            &f.depth,
            &cfg.camera,
            cfg.max_features,
            cfg.min_depth,
            cfg.max_depth,
        );
        assert!(
            (1500..=6000).contains(&feats.len()),
            "{}: {} features",
            kind.name(),
            feats.len()
        );
    }
}

#[test]
fn lm_converges_within_ten_iterations() {
    // paper: the LM solver converges within 8.1 iterations on average
    let seq = Sequence::generate(SequenceKind::Desk, 8);
    let mut tracker = Tracker::new(TrackerConfig::default(), BackendKind::Float);
    let mut total_iters = 0usize;
    let mut tracked = 0usize;
    for f in &seq.frames {
        let r = tracker.process_frame(&f.gray, &f.depth);
        if r.iterations > 0 {
            total_iters += r.iterations;
            tracked += 1;
        }
    }
    assert!(tracked >= 5);
    let mean = total_iters as f64 / tracked as f64;
    assert!(mean <= 10.0, "mean LM iterations {mean}");
}

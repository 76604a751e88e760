//! Shape tests for the paper's headline results: these encode, as
//! assertions, the qualitative claims every experiment must reproduce
//! (who wins, by roughly what factor). The paper targets come from the
//! experiment table (`pimvo_bench::experiments`); the exact numbers live
//! in `EXPERIMENTS.md`. These tests keep the shapes from regressing.

use pimvo::core::{extract_features, BackendKind, Tracker, TrackerConfig};
use pimvo::kernels::pim_pool::EdgeKernels;
use pimvo::kernels::EdgeConfig;
use pimvo::mcu::CostCounter;
use pimvo::pim::{ArrayConfig, CostModel, PimMachine};
use pimvo::scene::{Sequence, SequenceKind};
use pimvo_bench::experiments::experiment;

fn canonical_frame() -> (pimvo::kernels::GrayImage, pimvo::kernels::DepthImage) {
    let seq = Sequence::generate(SequenceKind::Xyz, 1);
    let f = &seq.frames[0];
    (f.gray.clone(), f.depth.clone())
}

#[test]
fn edge_detection_speedup_shape() {
    // Fig. 9-a's edge speed-up (PicoEdge vs PIM); ours is leaner on the
    // PIM side, so anything far above 10x with identical output
    // preserves the claim
    let (gray, _) = canonical_frame();
    let cfg = EdgeConfig::default();

    let mut counter = CostCounter::new();
    let mcu_maps = pimvo::mcu::edge_detect_counted(&gray, &cfg, &mut counter);

    let mut m = PimMachine::builder(ArrayConfig::qvga_banks(6)).build_pool(1);
    let pim_maps = EdgeKernels::new().edge_detect(&mut m, &gray, &cfg);

    assert_eq!(mcu_maps.mask, pim_maps.mask, "outputs must be identical");
    let speedup = counter.cycles() as f64 / m.merged_stats().cycles as f64;
    let target = experiment("fig9a").paper[0];
    assert!(speedup > 40.0, "edge speedup {speedup} vs {target}");
}

#[test]
fn lm_speedup_and_overall_shape() {
    // Fig. 9-a's LM and overall speed-ups, as its experiment measures
    // them; our regime: LM 4-12x, overall 5-20x
    let fig9a = experiment("fig9a");
    let (_, report) = fig9a.measure(1);
    let (m, target) = (report.metrics(), fig9a.paper[0]);
    assert!(m["features"] > 2000.0, "features {}", m["features"]);
    let lm_speedup = m["lm_speedup"];
    assert!(
        (3.0..15.0).contains(&lm_speedup),
        "LM {lm_speedup} vs {target}"
    );
    let overall = m["overall_speedup"];
    assert!(
        (5.0..20.0).contains(&overall),
        "overall {overall} vs {target}"
    );

    // LM speedup must be smaller than the edge speedup (32-bit mul/div
    // throughput penalty, §5.3)
    let edge_speedup = m["edge_speedup"];
    assert!(edge_speedup > lm_speedup, "{edge_speedup} vs {lm_speedup}");
}

#[test]
fn energy_shape() {
    // §5.4's per-frame energies and their ratio; SRAM dominates the PIM
    // budget (Fig. 10-a); writes are a small slice after the Tmp-Reg
    // optimization (Fig. 10-b)
    let [mcu_p, pim_p, ratio_p]: [&str; 3] = experiment("energy").paper.try_into().unwrap();
    let seq = Sequence::generate(SequenceKind::Xyz, 3);
    let mut tf = Tracker::new(TrackerConfig::default(), BackendKind::Float);
    let mut tp = Tracker::new(TrackerConfig::default(), BackendKind::Pim);
    for f in &seq.frames {
        let _ = tf.process_frame(&f.gray, &f.depth);
        let _ = tp.process_frame(&f.gray, &f.depth);
    }
    let mcu_mj = tf.stats().energy_mj / 3.0;
    let pim_mj = tp.stats().energy_mj / 3.0;
    assert!((5.0..20.0).contains(&mcu_mj), "MCU {mcu_mj} vs {mcu_p}");
    assert!((0.1..1.5).contains(&pim_mj), "PIM {pim_mj} vs {pim_p}");
    let ratio = mcu_mj / pim_mj;
    assert!((8.0..40.0).contains(&ratio), "ratio {ratio} vs {ratio_p}");

    let pim = tp.stats().pim.expect("pim stats");
    let sram = pim.energy(&CostModel::default()).sram_share();
    assert!(
        sram > 0.75,
        "SRAM share {sram} vs {}",
        experiment("fig10a").paper[0]
    );
    let writes = pim.mem_accesses().write_share();
    assert!(
        writes < 0.10,
        "write share {writes} vs {}",
        experiment("fig10b").paper[0]
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

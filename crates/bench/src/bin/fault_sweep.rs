//! Fault-injection sweep: tracking accuracy (ATE) and energy overhead
//! versus transient bit-upset rate and SRAM word protection (none /
//! parity / SECDED ECC), plus a stuck-at defect run demonstrating
//! array quarantine + re-dispatch.
//!
//! Every configuration runs the pose-estimation batches *on the
//! machines* (`BatchOptions::on_machine`), so injected upsets really
//! corrupt the normal equations and recovery is exercised end to end.
//!
//! ```text
//! cargo run --release -p pimvo-bench --bin fault_sweep [frames]
//! ```

use pimvo_bench::sink::{command, BenchReport};
use pimvo_core::pim_exec::BatchOptions;
use pimvo_core::{PimBackend, Tracker, TrackerConfig, TrackingState};
use pimvo_pim::{ArrayConfig, CostModel, FaultModel, PimMachine, PoolHealth, Protection};
use pimvo_scene::{ate_rmse, Sequence, SequenceKind, Trajectory};

/// Arrays in the pool: at least 2 so a quarantined array has somewhere
/// to re-dispatch its shard.
const POOL: usize = 2;

/// Feature cap: the cycle-accurate on-machine LM path is ~10x the
/// calibrated fast path, so the sweep runs a lighter frame than the
/// accuracy experiments.
const MAX_FEATURES: usize = 1200;

struct RunReport {
    ate_m: f64,
    energy_mj: f64,
    ecc_pj: f64,
    parity_checks: u64,
    ecc_checks: u64,
    ecc_corrections: u64,
    state: TrackingState,
    health: PoolHealth,
}

fn config() -> TrackerConfig {
    TrackerConfig {
        max_features: MAX_FEATURES,
        ..TrackerConfig::default()
    }
}

fn track(seq: &Sequence, mut tracker: Tracker) -> RunReport {
    let mut estimate = Trajectory::new();
    for f in &seq.frames {
        let r = tracker.process_frame(&f.gray, &f.depth);
        estimate.push(f.time, r.pose_wc);
    }
    let stats = tracker.stats();
    let pim = stats.pim.clone().expect("PIM backend");
    let energy = stats
        .pim_energy(&CostModel::default())
        .expect("PIM backend");
    RunReport {
        ate_m: ate_rmse(&estimate, &seq.ground_truth),
        energy_mj: stats.energy_mj,
        ecc_pj: energy.ecc_pj,
        parity_checks: pim.parity_checks,
        ecc_checks: pim.ecc_checks,
        ecc_corrections: pim.ecc_corrections,
        state: tracker.state(),
        health: tracker.pool_health().expect("PIM backend"),
    }
}

fn protected_tracker(protection: Protection, rate: f64, seed: u64) -> Tracker {
    let model = if rate > 0.0 {
        FaultModel::transient(seed, rate)
    } else {
        FaultModel::none()
    };
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6))
        .fault(model)
        .protection(protection);
    let options = BatchOptions {
        pool: POOL,
        on_machine: true,
        ..Default::default()
    };
    let backend = PimBackend::from_builder(&builder, options);
    Tracker::with_backend(config(), Box::new(backend))
}

fn protection_name(p: Protection) -> &'static str {
    match p {
        Protection::None => "none",
        Protection::Parity => "parity",
        Protection::Ecc => "ecc",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let frames = args.first().and_then(|a| a.parse().ok()).unwrap_or(15);
    let seq = Sequence::generate(SequenceKind::Desk, frames);

    println!("# Fault sweep: transient upset rate x word protection");
    println!(
        "# {frames} Desk frames, {POOL}-array pool, {MAX_FEATURES} features, on-machine LM batches"
    );
    println!(
        "{:<10} {:>9} {:>10} {:>11} {:>9} {:>10} {:>9} {:>9} {:>6} {:>9}",
        "protect",
        "rate",
        "ate_m",
        "energy_mJ",
        "ecc_uJ",
        "escaped",
        "corrected",
        "detected",
        "dirty",
        "state"
    );

    let started = std::time::Instant::now();
    let mut report = BenchReport::new("fault_sweep");
    report
        .note(
            "config",
            &format!("{frames} Desk frames, {POOL}-array pool, on-machine LM"),
        )
        .note("command", &command("fault_sweep", &args));

    let mut baseline_mj = None;
    for protection in [Protection::None, Protection::Parity, Protection::Ecc] {
        for rate in [0.0, 1e-6, 1e-5] {
            let r = track(&seq, protected_tracker(protection, rate, 0xFA57_C0DE));
            let key = format!("{}_rate{:e}", protection_name(protection), rate);
            report
                .metric(&format!("{key}_ate_m"), r.ate_m)
                .metric(&format!("{key}_energy_mj"), r.energy_mj)
                .metric(&format!("{key}_ecc_uj"), r.ecc_pj / 1e6)
                .metric(
                    &format!("{key}_injected"),
                    r.health.arrays.iter().map(|a| a.injected).sum::<u64>() as f64,
                )
                .metric(
                    &format!("{key}_corrected"),
                    r.health.total_corrected() as f64,
                )
                .metric(&format!("{key}_detected"), r.health.total_detected() as f64)
                .metric(
                    &format!("{key}_dirty_accepted"),
                    r.health.dirty_accepted as f64,
                )
                .metric(
                    &format!("{key}_tracking_ok"),
                    if r.state == TrackingState::Lost {
                        0.0
                    } else {
                        1.0
                    },
                );
            if protection == Protection::None && rate == 0.0 {
                baseline_mj = Some(r.energy_mj);
            }
            let overhead = baseline_mj
                .map(|b| {
                    format!(
                        " ({:+.2}% energy vs clean)",
                        (r.energy_mj / b - 1.0) * 100.0
                    )
                })
                .unwrap_or_default();
            println!(
                "{:<10} {:>9.0e} {:>10.4} {:>11.4} {:>9.3} {:>10} {:>9} {:>9} {:>6} {:>9?}{overhead}",
                protection_name(protection),
                rate,
                r.ate_m,
                r.energy_mj,
                r.ecc_pj / 1e6,
                r.health.arrays.iter().map(|a| a.injected).sum::<u64>(),
                r.health.total_corrected(),
                r.health.total_detected(),
                r.health.dirty_accepted,
                r.state,
            );
            assert!(r.ate_m.is_finite(), "ATE must stay finite under faults");
            if protection == Protection::Ecc && rate > 0.0 {
                assert!(
                    r.ecc_checks > 0 && r.ecc_pj > 0.0,
                    "ECC overhead must be visible in ExecStats"
                );
            }
            if protection == Protection::Parity && rate > 0.0 {
                assert!(r.parity_checks > 0, "parity checks must be charged");
            }
            let _ = r.ecc_corrections;
        }
    }

    println!();
    println!("# Stuck-at defect: 4 stuck bits in one protected word of array 0's");
    println!("# LM scratch rows -> uncorrectable under ECC -> quarantine + re-dispatch");
    let builder = PimMachine::builder(ArrayConfig::qvga_banks(6))
        .fault(FaultModel::transient(0xFA57_C0DE, 1e-6))
        .protection(Protection::Ecc);
    let options = BatchOptions {
        pool: POOL,
        on_machine: true,
        ..Default::default()
    };
    let mut backend = PimBackend::from_builder(&builder, options);
    // Inject the defect before any frame is processed: four stuck bits
    // share one 32-bit protection word, so ECC cannot correct the row.
    let row = pimvo_core::pim_exec::POSE_BASE + 2;
    for bit in 64..68 {
        backend
            .pool_mut()
            .array_mut(0)
            .inject_stuck_bit(row, bit, true);
    }
    let mut tracker = Tracker::with_backend(config(), Box::new(backend));
    for f in &seq.frames {
        tracker.process_frame(&f.gray, &f.depth);
    }
    let health = tracker.pool_health().expect("PIM backend");
    println!(
        "quarantined {}/{POOL} arrays, retries {}, redispatches {}, detected {}, state {:?}",
        health.quarantined_count(),
        health.retries,
        health.redispatches,
        health.total_detected(),
        tracker.state(),
    );
    assert!(
        health.quarantined_count() >= 1 && health.retries > 0 && health.redispatches > 0,
        "stuck-at defect must drive quarantine + re-dispatch"
    );

    report
        .metric("stuckat_quarantined", health.quarantined_count() as f64)
        .metric("stuckat_retries", health.retries as f64)
        .metric("stuckat_redispatches", health.redispatches as f64)
        .metric("stuckat_detected", health.total_detected() as f64)
        .metric(
            "stuckat_tracking_ok",
            if tracker.state() == TrackingState::Lost {
                0.0
            } else {
                1.0
            },
        )
        .metric("wall_seconds", started.elapsed().as_secs_f64());
    match report.write_to(".") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", report.file_name()),
    }
}

//! Chaos-soak driver for the supervisor/recovery layer: seeded,
//! deterministic interleaving of kill-and-restore, checkpoint
//! corruption, budget squeezes, quarantine storms, and fault bursts,
//! with per-frame invariant checks (finite pose, legal
//! `TrackingState` transitions, monotonic cycle counters).
//!
//! Writes `BENCH_chaos_soak.json` — byte-identical for a fixed seed —
//! and exits non-zero if any invariant was violated.
//!
//! ```text
//! cargo run --release --bin chaos_soak -- \
//!     [--frames 500] [--seed 1] [--backend pim|float] \
//!     [--checkpoint-every 25] [--arrays 4] [--out .]
//! ```

use pimvo_bench::chaos::{run_chaos, ChaosConfig};
use pimvo_core::BackendKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut cfg = ChaosConfig::new(1, 500, std::env::temp_dir().join("pimvo_chaos_soak"));

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, what: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{what} needs an argument");
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--frames" => {
                cfg.frames = value(&mut i, "--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames expects a count");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                cfg.seed = value(&mut i, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an integer");
                    std::process::exit(2);
                });
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every =
                    value(&mut i, "--checkpoint-every")
                        .parse()
                        .unwrap_or_else(|_| {
                            eprintln!("--checkpoint-every expects a frame count");
                            std::process::exit(2);
                        });
            }
            "--arrays" => {
                cfg.arrays = value(&mut i, "--arrays").parse().unwrap_or_else(|_| {
                    eprintln!("--arrays expects a pool size");
                    std::process::exit(2);
                });
            }
            "--backend" => match value(&mut i, "--backend").as_str() {
                "pim" => cfg.backend = BackendKind::Pim,
                "float" => cfg.backend = BackendKind::Float,
                other => {
                    eprintln!("--backend expects pim or float, got {other}");
                    std::process::exit(2);
                }
            },
            "--out" => out_dir = value(&mut i, "--out"),
            a => {
                eprintln!("unrecognized argument: {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cfg.workdir = std::path::PathBuf::from(&out_dir).join("chaos_work");

    let outcome = run_chaos(&cfg).unwrap_or_else(|e| {
        eprintln!("chaos soak failed on checkpoint I/O: {e}");
        std::process::exit(1);
    });
    let _ = std::fs::remove_dir_all(&cfg.workdir);

    print!("{}", outcome.report.to_json());
    match outcome.report.write_to(&out_dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", outcome.report.file_name());
            std::process::exit(1);
        }
    }

    if !outcome.passed() {
        eprintln!("{} invariant violation(s):", outcome.violations.len());
        for v in &outcome.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "chaos soak passed: {} frames, {} restores, {} typed rejections, {} deadline misses",
        cfg.frames,
        outcome.report.metrics()["restores"],
        outcome.report.metrics()["typed_rejections"],
        outcome.report.metrics()["deadline_misses"],
    );
}

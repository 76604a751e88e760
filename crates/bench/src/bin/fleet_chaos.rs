//! Fleet-level chaos soak for the self-healing serving stack: N
//! sessions over one shared PIM pool driven through a defect storm
//! (stuck-at injection + quarantine + sensor blackout), scrub /
//! spare-row-remap rehabilitation, circuit-breaker trips with
//! half-open probe recovery, and a mid-soak hard kill replayed
//! bit-identically from the fleet checkpoint manifest.
//!
//! Writes `BENCH_fleet_chaos.json` — byte-identical for a fixed seed —
//! and exits non-zero if any invariant was violated (capacity not
//! restored after the storm, breaker stuck, recovery diverging).
//!
//! ```text
//! cargo run --release --bin fleet_chaos -- \
//!     [--frames 128] [--seed 1] [--sessions 4] [--arrays 3] [--out .]
//! ```
//!
//! `--frames` is per session: the default 128 x 4 sessions serves 512
//! frames plus the replayed recovery tail.

use pimvo_bench::chaos::{run_fleet_chaos, FleetChaosConfig};
use pimvo_bench::sink::command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut cfg = FleetChaosConfig::new(1, 128, std::env::temp_dir().join("pimvo_fleet_chaos"));

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, what: &str| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{what} needs an argument");
                std::process::exit(2);
            })
        };
        let parse = |s: String, what: &str| -> usize {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{what} expects a count");
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--frames" => cfg.frames_per_session = parse(value(&mut i, "--frames"), "--frames"),
            "--seed" => {
                cfg.seed = value(&mut i, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an integer");
                    std::process::exit(2);
                });
            }
            "--sessions" => cfg.sessions = parse(value(&mut i, "--sessions"), "--sessions"),
            "--arrays" => cfg.arrays = parse(value(&mut i, "--arrays"), "--arrays"),
            "--out" => out_dir = value(&mut i, "--out"),
            a => {
                eprintln!("unrecognized argument: {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cfg.workdir = std::path::PathBuf::from(&out_dir).join("fleet_chaos_work");

    let mut outcome = run_fleet_chaos(&cfg).unwrap_or_else(|e| {
        eprintln!("fleet chaos soak failed on manifest I/O: {e}");
        std::process::exit(1);
    });
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    outcome
        .report
        .note("command", &command("fleet_chaos", &args));

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
    let m = outcome.report.metrics();
    eprintln!(
        "fleet chaos passed: {} frames completed, capacity {} -> {} -> {}, \
         {} breaker trip(s), {} probe(s), recovery pose delta {:e}",
        m["frames_completed"],
        m["pre_storm_available"],
        m["storm_available"],
        m["post_scrub_available"],
        m["breaker_trips"],
        m["breaker_probes"],
        m["recovery_pose_delta_max"],
    );
}

//! Fleet-soak bench for the `pimvo-serve` multi-tenant scheduler:
//! sessions × arrays sweep reporting p50/p99 frame latency (pool
//! cycles, queue wait included), deadline-miss rate and admission-shed
//! rate. Everything runs in the pool's virtual cycle domain, so the
//! numbers are deterministic across hosts.
//!
//! ```text
//! cargo run --release -p pimvo-bench --bin fleet_soak -- \
//!     [--sessions 4] [--arrays 2] [--frames 13] [--out .]
//! ```
//!
//! Without `--sessions`/`--arrays` the full {1,4,16} × {2,4,8} sweep
//! runs and `BENCH_fleet.json` is written to `--out` (default `.`).
//! With both given, only that one cell runs (the CI smoke
//! configuration) and the report goes to `--out` as well.

use pimvo_bench::sink::{command, BenchReport};
use pimvo_core::TrackerConfig;
use pimvo_kernels::{DepthImage, GrayImage};
use pimvo_pim::SessionId;
use pimvo_serve::{FleetScheduler, SessionSpec};

/// Per-session translating sinusoid texture (session-specific
/// frequencies and speed so tenants never share a scene).
fn session_frame(session: usize, k: usize) -> (GrayImage, DepthImage) {
    let speed = 0.5 + (session % 8) as f64 * 0.1;
    let shift = k as f64 * speed;
    let fx = 0.55 + session as f64 * 0.011;
    let gray = GrayImage::from_fn(320, 240, |x, y| {
        let xs = x as f64 + shift;
        let y = y as f64;
        (((xs * fx).sin() + (y * 0.41).sin() + (xs * 0.13).sin() * (y * 0.09).cos()) * 50.0 + 120.0)
            as u8
    });
    let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
    (gray, depth)
}

/// Median solo frame cost on an `arrays`-wide pool (second frame, so
/// keyframe bootstrap is excluded) — the deadline calibration anchor.
fn calibrate_frame_cycles(arrays: usize) -> u64 {
    let mut fleet = FleetScheduler::new(arrays);
    fleet.add_session(
        SessionId(1),
        SessionSpec::new(TrackerConfig::default()).max_queue(2),
    );
    let mut last = 0;
    for k in 0..2 {
        let (g, d) = session_frame(0, k);
        fleet.submit_frame(SessionId(1), g, d).unwrap();
        let o = fleet.step().unwrap().expect("frame queued");
        last = o.latency_cycles;
    }
    last
}

struct CellResult {
    p50: u64,
    p99: u64,
    miss_rate: f64,
    shed_rate: f64,
    completed: u64,
    lower: pimvo_pim::LoweredCacheStats,
}

/// One sweep cell: `sessions` tenants with a deadline of 2x the solo
/// frame cost share an `arrays`-wide pool for `rounds` rounds. Each
/// round offers one frame per session but only drains 3/4 of them, so
/// backlog (and with it queue wait, misses and sheds) builds under
/// contention.
fn run_cell(sessions: usize, arrays: usize, rounds: usize) -> CellResult {
    let deadline = 2 * calibrate_frame_cycles(arrays).max(1);
    let mut fleet = FleetScheduler::new(arrays);
    for s in 0..sessions {
        fleet.add_session(
            SessionId(s as u32 + 1),
            SessionSpec::new(TrackerConfig::default())
                .deadline_cycles(deadline)
                .max_queue(3),
        );
    }
    let steps_per_round = (sessions * 3).div_ceil(4).max(1);
    for k in 0..rounds {
        for s in 0..sessions {
            let (g, d) = session_frame(s, k);
            // a full queue sheds the frame — that is the point
            let _ = fleet.submit_frame(SessionId(s as u32 + 1), g, d);
        }
        for _ in 0..steps_per_round {
            if fleet.step().unwrap().is_none() {
                break;
            }
        }
    }
    fleet.run_until_idle().unwrap();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut submitted, mut completed, mut shed, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for id in fleet.session_ids() {
        let st = fleet.stats(id).expect("registered session");
        latencies.extend(&st.latencies_cycles);
        submitted += st.submitted;
        completed += st.completed;
        shed += st.shed;
        misses += st.deadline_misses;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let rank = ((p / 100.0) * (latencies.len() as f64 - 1.0)).round() as usize;
        latencies[rank.min(latencies.len() - 1)]
    };
    CellResult {
        p50: pct(50.0),
        p99: pct(99.0),
        miss_rate: misses as f64 / completed.max(1) as f64,
        shed_rate: shed as f64 / submitted.max(1) as f64,
        completed,
        lower: fleet.lowered_stats(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut sessions: Option<usize> = None;
    let mut arrays: Option<usize> = None;
    let mut rounds = 12usize;

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
            "--sessions" => sessions = Some(parse(value(&mut i, "--sessions"), "--sessions")),
            "--arrays" => arrays = Some(parse(value(&mut i, "--arrays"), "--arrays")),
            "--frames" => rounds = parse(value(&mut i, "--frames"), "--frames"),
            "--out" => out_dir = value(&mut i, "--out"),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let sweep: Vec<(usize, usize)> = match (sessions, arrays) {
        (Some(s), Some(a)) => vec![(s, a)],
        (None, None) => [1usize, 4, 16]
            .iter()
            .flat_map(|&s| [2usize, 4, 8].iter().map(move |&a| (s, a)))
            .collect(),
        _ => {
            eprintln!("--sessions and --arrays must be given together");
            std::process::exit(2);
        }
    };

    let mut report = BenchReport::new("fleet");
    report.note(
        "units",
        "latency in pool cycles (virtual time, queue wait included)",
    );
    report.note(
        "policy",
        "EDF + least-served fair-share; deadline = 2x solo frame cost; queue cap 3; \
         3/4 drain per round",
    );
    report.note("frames_per_session", &rounds.to_string());
    report.note("command", &command("fleet_soak", &args));

    println!("sessions arrays    p50_cycles    p99_cycles  miss_rate  shed_rate  frames");
    for &(s, a) in &sweep {
        let cell = run_cell(s, a, rounds);
        println!(
            "{s:>8} {a:>6} {p50:>13} {p99:>13} {miss:>10.3} {shed:>10.3} {n:>7}",
            p50 = cell.p50,
            p99 = cell.p99,
            miss = cell.miss_rate,
            shed = cell.shed_rate,
            n = cell.completed
        );
        let key = |m: &str| format!("s{s}_a{a}_{m}");
        report.metric(&key("p50_cycles"), cell.p50 as f64);
        report.metric(&key("p99_cycles"), cell.p99 as f64);
        report.metric(&key("miss_rate"), cell.miss_rate);
        report.metric(&key("shed_rate"), cell.shed_rate);
        report.metric(&key("frames"), cell.completed as f64);
        // lowered-program cache: misses = distinct (program, level,
        // config) triples in the cell's workload, flat in `sessions`
        report.metric(&key("lower_hits"), cell.lower.hits as f64);
        report.metric(&key("lower_misses"), cell.lower.misses as f64);
        report.metric(&key("lower_entries"), cell.lower.entries as f64);
        report.metric(&key("lower_bytes"), cell.lower.bytes as f64);
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {out_dir}: {e}");
        std::process::exit(1);
    }
    match report.write_to(&out_dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            std::process::exit(1);
        }
    }
}

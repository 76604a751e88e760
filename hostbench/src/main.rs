//! Host-time benchmark of the pimvo simulator and serving stack.
//!
//! Each invocation runs one workload in its own process, so every
//! lowered-program cache starts cold:
//!
//! ```text
//! hostbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! hostbench --smoke
//! hostbench compare <dirA> <dirB>
//! ```
//!
//! It prints every metric as `name value unit`, then one JSON object
//! as its last line, and exits non-zero if a correctness check fails.
//! Everything is timed from outside, around calls to each layer's
//! public API. See `README.md` for the workloads and metrics.

mod compare;
mod hostspeed;
mod inputs;
mod probes;
mod report;
mod timed;
mod workloads;

use hostspeed::HostSpeed;
use report::{median, quantile, rss_mb, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{fast_path_digest, Inputs, Settings, Workload};

const USAGE: &str = "usage:
  hostbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>]
  hostbench --smoke
  hostbench compare <dirA> <dirB>
workloads: track_pim track_pim_lm_machine track_mcu fleet_churn";

/// Highest tolerated ATE over a run's check frames, mm.
const ATE_CEILING_MM: f64 = 60.0;

/// The metrics of an untraced run (`end_to_end` in BENCHMARK.json).
const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p75", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("host_mem_mb", "MB"),
];

/// The metrics of a traced run (`per_layer` in BENCHMARK.json). A
/// workload that lacks a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 44] = [
    ("backend.detect_edges.ms", "ms"),
    ("backend.detect_edges.share", "frac"),
    ("backend.linearize.ms", "ms"),
    ("backend.linearize.share", "frac"),
    ("backend.linearize.calls", "1/frame"),
    ("tracker.self_ms", "ms"),
    ("tracker.lm_iters", "1/frame"),
    ("machine.sim_cycles_per_frame", "cycles"),
    ("machine.sram_reads_per_frame", "count"),
    ("machine.sram_writes_per_frame", "count"),
    ("machine.host_io_rows_per_frame", "count"),
    ("machine.run_program.ns_per_op.lpf_pass1", "ns"),
    ("machine.run_program.ns_per_op.lpf_pass2", "ns"),
    ("machine.run_program.ns_per_op.hpf", "ns"),
    ("machine.run_program.ns_per_op.nms", "ns"),
    ("machine.run_program.ns_per_op.pose_warp", "ns"),
    ("machine.run_program.ns_per_op.pose_frac", "ns"),
    ("machine.run_program.ns_per_op.pose_residual", "ns"),
    ("machine.run_program.ns_per_op.pose_jacobian", "ns"),
    ("machine.run_program.ns_per_op.pose_hessian", "ns"),
    ("lower.cold_us.lpf_pass1", "us"),
    ("lower.cold_us.lpf_pass2", "us"),
    ("lower.cold_us.hpf", "us"),
    ("lower.cold_us.nms", "us"),
    ("lower.cold_us.pose_warp", "us"),
    ("lower.cold_us.pose_frac", "us"),
    ("lower.cold_us.pose_residual", "us"),
    ("lower.cold_us.pose_jacobian", "us"),
    ("lower.cold_us.pose_hessian", "us"),
    ("cache.hit_ns", "ns"),
    ("cache.hits_per_frame", "1/frame"),
    ("cache.misses", "count"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("fleet.submit_us", "us"),
    ("fleet.evict_ms", "ms"),
    ("fleet.step_ms.restore", "ms"),
    ("fleet.step_ms.resident", "ms"),
    ("fleet.restore_frac", "frac"),
    ("fleet.deadline_misses", "count"),
    ("dma.stall_cycles_per_frame", "cycles"),
    ("dma.retries_per_frame", "1/frame"),
    ("trace.overhead_frac", "frac"),
];

struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: None,
            seconds: 20.0,
            trace: false,
            out: None,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                cli.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    cli.workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => cli.seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    cli.seconds = value.parse().map_err(|_| bad())?;
                    if !(0.0..=3600.0).contains(&cli.seconds) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    cli.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => cli.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !cli.smoke && (cli.workload.is_none() || cli.seed.is_none()) {
            return Err("--workload and --seed are required".into());
        }
        Ok(cli)
    }
}

/// A finished run: its report and verdict.
struct Outcome {
    report: Report,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload: inputs, the untraced pass and, when tracing, a
/// traced pass over the same frames plus the layer probes.
fn run(w: Workload, s: &Settings, out: Option<&PathBuf>) -> Result<Outcome, String> {
    let start = Instant::now();
    let inputs = Inputs::new(w, s)?;
    let inputs_s = start.elapsed().as_secs_f64();
    let mut speed = HostSpeed::new();
    let (rss_inputs, _) = rss_mb();
    // a traced run splits its time between the untraced and the traced
    // pass, which replays exactly the untraced pass's frames
    let seconds = if s.trace { s.seconds / 2.0 } else { s.seconds };
    let plain = inputs.pass(w, s, &mut speed, seconds, None, false)?;
    let (_, rss_peak) = rss_mb();

    let mut o = Outcome {
        report: Report::default(),
        problems: Vec::new(),
        attempted: plain.frames() as u64,
        failed: plain.failed,
    };
    let r = &mut o.report;
    r.info("inputs_s", inputs_s, "s");
    r.info("frames", plain.frames() as f64, "count");
    r.info("timed_s", plain.wall_s, "s");
    r.info(
        "raw_frames_per_s",
        plain.frames() as f64 / plain.wall_s,
        "1/s",
    );
    r.info("host.speed_factor", plain.speed_factor, "x");
    if !s.trace {
        let profile = plain.frame_profile();
        let fps = plain.frames_per_s();
        r.metric("frames_per_s", fps, END_TO_END[0].1);
        r.metric("frame_ms_p50", quantile(&profile, 0.5), END_TO_END[1].1);
        r.metric("frame_ms_p75", quantile(&profile, 0.75), END_TO_END[2].1);
        r.metric(
            "sim_cycles_per_s",
            plain.sim_cycles as f64 / plain.frames() as f64 * fps,
            END_TO_END[3].1,
        );
        r.metric("setup_s", median(&plain.setup_s), END_TO_END[4].1);
        r.metric("host_mem_mb", rss_peak - rss_inputs, END_TO_END[5].1);
        r.info("setups", plain.setup_s.len() as f64, "count");
    }
    let fp = plain.fingerprint;
    r.info("ate_mm", fp.ate_mm, "mm");
    r.info(
        "frames_failed_frac",
        plain.failed as f64 / plain.frames().max(1) as f64,
        "frac",
    );
    r.text(
        "check.digest",
        format!("{:016x}", plain.check.digest),
        "hex",
    );
    r.info("check.sim_cycles", plain.check.sim_cycles as f64, "cycles");
    r.info("check.energy_mj", plain.check.energy_mj, "mJ");
    r.info("check.ate_mm", plain.check.ate_mm, "mm");
    // gated on the fixed check frames: over a time-bounded section, drift
    // (and with it the ATE) grows with the host's speed
    let ate = plain.check.ate_mm;
    if ate.is_nan() || ate > ATE_CEILING_MM {
        o.problems.push(format!(
            "ATE {ate:.1} mm over the check frames is above the {ATE_CEILING_MM} mm ceiling"
        ));
    }

    if s.trace {
        let units = Some(plain.unit_ms.len());
        let mut traced = inputs.pass(w, s, &mut speed, 0.0, units, true)?;
        o.attempted += traced.frames() as u64;
        o.failed += traced.failed;
        if traced.fingerprint != plain.fingerprint {
            o.problems.push(format!(
                "traced run diverged: {:?} vs untraced {:?}",
                traced.fingerprint, plain.fingerprint
            ));
        }
        let overhead = 1.0 - traced.frames_per_s() / plain.frames_per_s();
        let layers = &mut traced.layers;
        layers.insert("trace.overhead_frac".into(), overhead);
        probes::machine(layers, &mut speed, s.smoke)?;
        probes::checkpoint(layers, inputs.first_window(), &mut speed, s.smoke)?;
        for (name, unit) in PER_LAYER {
            let v = layers.remove(name).unwrap_or(0.0);
            o.report.metric(name, v, unit);
        }
        for (name, v) in std::mem::take(layers) {
            let unit = match name.rsplit('.').next() {
                Some("ms") => "ms",
                Some("share") => "frac",
                _ => "1/frame",
            };
            o.report.info(name, v, unit);
        }
        if let (Some(dir), Some(spans)) = (out, &traced.spans) {
            let path = dir.join(format!(
                "{}-seed{}-{}.trace.json",
                w.name(),
                s.seed,
                std::process::id()
            ));
            std::fs::write(&path, spans.borrow().chrome_json())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }

    if w == Workload::TrackPimLmMachine {
        let fast = fast_path_digest(inputs.first_window(), plain.frames());
        o.report
            .text("fast_path.digest", format!("{fast:016x}"), "hex");
        if fast != fp.digest {
            o.problems.push(format!(
                "on-machine LM poses {:016x} differ from the fast path's {fast:016x}",
                fp.digest
            ));
        }
    }
    Ok(o)
}

fn header(w: Workload, s: &Settings) -> String {
    format!(
        "# hostbench workload={} seed={} trace={} seconds={}",
        w.name(),
        s.seed,
        u8::from(s.trace),
        s.seconds
    )
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let w = cli.workload.expect("checked by Cli::parse");
    let s = Settings {
        seed: cli.seed.expect("checked by Cli::parse"),
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: false,
    };
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let o = run(w, &s, cli.out.as_ref())?;
    for p in &o.problems {
        eprintln!("check failed: {p}");
    }
    let correct = o.problems.is_empty();
    let text = format!(
        "{}\n{}{}\n",
        header(w, &s),
        o.report.lines(),
        o.report.json(correct, o.attempted.max(1), o.failed)
    );
    print!("{text}");
    if let Some(dir) = &cli.out {
        let path = dir.join(format!(
            "{}-seed{}-trace{}-{}.txt",
            w.name(),
            s.seed,
            u8::from(s.trace),
            std::process::id()
        ));
        std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(correct)
}

/// Every workload, traced, on few frames: exercises every check.
fn smoke() -> Result<bool, String> {
    let start = Instant::now();
    let mut ok = true;
    for w in Workload::ALL {
        let s = Settings {
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let o = run(w, &s, None)?;
        print!("{}\n{}", header(w, &s), o.report.lines());
        for p in &o.problems {
            eprintln!("{}: check failed: {p}", w.name());
        }
        ok &= o.problems.is_empty();
    }
    println!(
        "smoke {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        start.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.smoke { smoke() } else { run_one(&cli) };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

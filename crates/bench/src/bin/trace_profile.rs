//! Records dependency-tracked op traces of the paper's headline
//! workloads and profiles them through the critical-path profiler:
//!
//! * **Fig. 9-a** — the PIM side of the per-frame measurement (edge
//!   detection + one LM batch) on a single array. The raw trace is
//!   written as `trace_fig9a.bin` and the rendered attribution table as
//!   `profile_fig9a.txt` (the committed golden in `out/`).
//! * **Fig. 9-b** — the optimized LPF/HPF/NMS mapping, traced the same
//!   way (cycle totals only; the per-kernel split shows up in the
//!   fig9a table already).
//! * **Fleet soak** — a two-session [`pimvo_serve::FleetScheduler`]
//!   with a flight-recorder-armed session on a 1-cycle deadline, so
//!   every frame dumps; the last dump is loaded back from disk and its
//!   final frame profiled, asserting the critical path reproduces the
//!   frame's wall-cycle delta and that every record in the dump is
//!   attributed to the dumped session.
//!
//! Everything is measured in virtual (pool) cycles, so the outputs —
//! including `BENCH_profile.json` — are byte-identical across runs.
//!
//! ```text
//! cargo run --release -p pimvo-bench --bin trace_profile -- [--out .]
//! ```

use pimvo_bench::canonical_frame;
use pimvo_bench::sink::{command, BenchReport};
use pimvo_core::pim_exec::{BatchOptions, BatchRunner, BATCH};
use pimvo_core::{extract_features, Keyframe, QFeature, QPose, TrackerConfig};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::EdgeConfig;
use pimvo_pim::{ArrayConfig, CostModel, PimMachine, SessionId};
use pimvo_serve::{FleetScheduler, FlightDump, SessionSpec};
use pimvo_telemetry::optrace::{profile, EnergyWeights, OpTrace, Profile};
use pimvo_vomath::{Pinhole, SE3};
use std::path::{Path, PathBuf};

/// Ring capacity for the traced workloads: big enough that nothing is
/// shed (the profile asserts `dropped == 0`).
const RING: usize = 1 << 20;

fn energy_weights() -> EnergyWeights {
    let cm = CostModel::dac22_90nm();
    EnergyWeights {
        op_pj: cm.shifter_adder_pj + cm.tmp_reg_pj,
        sram_pj: cm.sram_read_pj,
    }
}

/// Traces the PIM side of Fig. 9-a: edge detection plus one LM batch.
fn trace_fig9a() -> OpTrace {
    let (gray, depth) = canonical_frame();
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();
    let mut runner = BatchRunner::new(BatchOptions::default());
    runner.pool_mut().array_mut(0).arm_op_recorder(0, RING);
    let maps = EdgeKernels::new().edge_detect(runner.pool_mut(), &gray, &cfg);
    let features = extract_features(&maps.mask, &depth, &cam, 6000, 0.3, 8.0);
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    let qpose = QPose::quantize(&SE3::IDENTITY);
    let qfeats: Vec<QFeature> = features.iter().map(QFeature::quantize).collect();
    runner
        .submit(
            &qfeats[..BATCH.min(qfeats.len())],
            &qpose,
            &kf.q_tables,
            &cam,
        )
        .expect("the QVGA array holds the pose staging rows");
    runner
        .pool_mut()
        .array_mut(0)
        .drain_op_trace()
        .expect("recorder is armed")
}

/// Traces the optimized Fig. 9-b edge pipeline (LPF → HPF → NMS).
fn trace_fig9b() -> OpTrace {
    let (gray, _) = canonical_frame();
    let cfg = EdgeConfig::default();
    let mut pool = PimMachine::builder(ArrayConfig::qvga_banks(6)).build_pool(1);
    pool.array_mut(0).arm_op_recorder(0, RING);
    let mut kernels = EdgeKernels::new();
    let lpf_map = kernels.lpf(&mut pool, &gray);
    let hpf_map = kernels.hpf(&mut pool, &lpf_map);
    let _ = kernels.nms(&mut pool, &hpf_map, &cfg);
    pool.array_mut(0)
        .drain_op_trace()
        .expect("recorder is armed")
}

/// Runs the small fleet soak: a flight-armed session on an impossible
/// deadline dumps every frame; returns the last dump loaded from disk.
fn fleet_soak(workdir: &Path) -> FlightDump {
    std::fs::create_dir_all(workdir).expect("create fleet workdir");
    let mut fleet = FleetScheduler::new(2);
    fleet.set_flight_dir(workdir);
    fleet.add_session(
        SessionId(1),
        SessionSpec::new(TrackerConfig::default())
            .deadline_cycles(1)
            .max_queue(4)
            .flight_recorder(2),
    );
    fleet.add_session(SessionId(2), SessionSpec::new(TrackerConfig::default()));
    let gray = pimvo_kernels::GrayImage::from_fn(320, 240, |x, y| {
        let (x, y) = (x as f64, y as f64);
        (((x * 0.55).sin() + (y * 0.41).sin() + (x * 0.13).sin() * (y * 0.09).cos()) * 50.0 + 120.0)
            as u8
    });
    let depth = pimvo_kernels::DepthImage::from_fn(320, 240, |_, _| 2.0);
    for _ in 0..3 {
        for id in [SessionId(1), SessionId(2)] {
            fleet
                .submit_frame(id, gray.clone(), depth.clone())
                .expect("queue has room");
            let _ = fleet.step().expect("no serve error").expect("frame ran");
        }
    }
    let stats = fleet.stats(SessionId(1)).expect("session 1 exists");
    let last = stats
        .flight_dumps
        .last()
        .expect("1-cycle deadline dumps every frame");
    FlightDump::load(Path::new(last)).expect("dump decodes")
}

fn add_metrics(report: &mut BenchReport, prefix: &str, p: &Profile) {
    report
        .metric(&format!("{prefix}_records"), p.records as f64)
        .metric(&format!("{prefix}_dropped"), p.dropped as f64)
        .metric(&format!("{prefix}_total_cycles"), p.total_cycles as f64)
        .metric(
            &format!("{prefix}_critical_path_cycles"),
            p.critical_path_cycles as f64,
        )
        .metric(
            &format!("{prefix}_critical_path_records"),
            p.critical_path_records as f64,
        );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs an argument");
                    std::process::exit(2);
                });
            }
            a => {
                eprintln!("unrecognized argument: {a}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let out = PathBuf::from(&out_dir);
    std::fs::create_dir_all(&out).expect("create output directory");
    let w = energy_weights();
    let mut report = BenchReport::new("profile");
    report
        .note("op_pj", &format!("{:.1}", w.op_pj))
        .note("sram_pj", &format!("{:.1}", w.sram_pj))
        .note("command", &command("trace_profile", &args));

    // Fig. 9-a: raw trace + rendered golden
    let t9a = trace_fig9a();
    let p9a = profile(&t9a);
    let table = p9a.render(&w);
    print!("{table}");
    std::fs::write(out.join("trace_fig9a.bin"), t9a.encode()).expect("write trace_fig9a.bin");
    std::fs::write(out.join("profile_fig9a.txt"), &table).expect("write profile_fig9a.txt");
    add_metrics(&mut report, "fig9a", &p9a);

    // Fig. 9-b: optimized edge pipeline, cycle totals only
    let p9b = profile(&trace_fig9b());
    add_metrics(&mut report, "fig9b", &p9b);
    eprintln!(
        "fig9b: {} records, {} total cycles, critical path {}",
        p9b.records, p9b.total_cycles, p9b.critical_path_cycles
    );

    // Fleet soak: profile the last frame of the last flight dump
    let workdir = out.join("trace_profile_work");
    let dump = fleet_soak(&workdir);
    let last = dump.frames.last().expect("dump holds frames");
    let pf = profile(&last.trace);
    if pf.critical_path_cycles != last.wall_delta || pf.dropped != 0 {
        eprintln!(
            "fleet flight frame diverged: critical path {} vs wall delta {} ({} dropped)",
            pf.critical_path_cycles, last.wall_delta, pf.dropped
        );
        std::process::exit(1);
    }
    let foreign = dump
        .frames
        .iter()
        .flat_map(|f| &f.trace.records)
        .filter(|r| r.session != dump.session)
        .count();
    if foreign != 0 {
        eprintln!(
            "fleet flight dump of session {} holds {foreign} records of other sessions",
            dump.session
        );
        std::process::exit(1);
    }
    report.metric("fleet_frames_in_dump", dump.frames.len() as f64);
    report.metric("fleet_wall_delta", last.wall_delta as f64);
    add_metrics(&mut report, "fleet", &pf);
    eprintln!(
        "fleet: last flight frame has {} records, critical path {} == wall delta",
        pf.records, pf.critical_path_cycles
    );
    let _ = std::fs::remove_dir_all(&workdir);

    match report.write_to(&out) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", report.file_name());
            std::process::exit(1);
        }
    }
    eprintln!(
        "wrote {} and {}",
        out.join("trace_fig9a.bin").display(),
        out.join("profile_fig9a.txt").display()
    );
}

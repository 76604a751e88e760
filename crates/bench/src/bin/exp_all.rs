//! Runs every experiment of the experiment table
//! (`pimvo_bench::experiments`; Fig. 8's file dump has its own binary)
//! and prints one consolidated report. Given `--out <dir>`, it also
//! writes machine-readable `BENCH_<experiment>.json` snapshots there,
//! each naming the command that regenerates it; without it, it writes
//! no file.
//!
//! ```text
//! cargo run --release --bin exp_all [frames] [--out <dir>]
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut frames = pimvo_bench::DEFAULT_FRAMES;
    let mut out_dir = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory argument");
                    std::process::exit(2);
                }));
            }
            a => {
                frames = a.parse().unwrap_or_else(|_| {
                    eprintln!("unrecognized argument: {a} (expected a frame count or --out <dir>)");
                    std::process::exit(2);
                });
            }
        }
        i += 1;
    }

    let (reports, text) = pimvo_bench::experiments::all_with_reports(frames);
    print!("{text}");

    let Some(out_dir) = out_dir else {
        return;
    };
    for report in &reports {
        match report.write_to(&out_dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", report.file_name()),
        }
    }
}

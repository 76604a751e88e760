//! `hostbench compare <dirA> <dirB>`: reads the run records two sets
//! of runs wrote with `--out` and, per workload and metric, prints each
//! set's median and quartile spread and whether the medians agree
//! within the metric's bound in `BENCHMARK.json` (read from the current
//! directory). Fingerprints of runs with the same workload and seed
//! must be identical across the sets. Exits non-zero on a disagreement.

use crate::report::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One run record: the header fields and every `name value unit` line.
struct Record {
    workload: String,
    seed: String,
    trace: bool,
    nums: BTreeMap<String, f64>,
    /// The `check.*` fingerprint.
    prints: BTreeMap<String, String>,
}

fn parse_record(text: &str) -> Option<Record> {
    let head = text.lines().next()?.strip_prefix("# hostbench ")?;
    let field = |key: &str| {
        head.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_string)
    };
    let mut rec = Record {
        workload: field("workload")?,
        seed: field("seed")?,
        trace: field("trace")? == "1",
        nums: BTreeMap::new(),
        prints: BTreeMap::new(),
    };
    for line in text.lines().skip(1) {
        let [name, value, _unit] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            continue;
        };
        if name.starts_with("check.") {
            rec.prints.insert(name.to_string(), value.to_string());
        } else if let Ok(v) = value.parse() {
            rec.nums.insert(name.to_string(), v);
        }
    }
    Some(rec)
}

fn read_set(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut records = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "txt") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.extend(parse_record(&text));
        }
    }
    Ok(records)
}

/// First and third quartile, Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method); `None` below two samples.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// `median (spread% n=k)` of one set's values.
fn summary(values: &[f64]) -> String {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => format!(
            "{m:>12.4} ({:>5.1}% n={})",
            100.0 * (q3 - q1) / m.abs(),
            values.len()
        ),
        _ => format!("{m:>12.4} (   -   n={})", values.len()),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: hostbench compare <dirA> <dirB>");
        return ExitCode::from(2);
    };
    match compare(Path::new(a), Path::new(b)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let bench =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // end-to-end metrics carry a bound, per-layer ones do not
    let (e2e, layers): (Vec<_>, Vec<_>) = metrics(&bench).into_iter().partition(|m| m.1.is_some());
    let sets = [read_set(a)?, read_set(b)?];
    let mut workloads: Vec<&str> = sets.iter().flatten().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut ok = true;
    println!(
        "{:<34} {:>28} {:>28} {:>8}",
        "metric", "A median (IQR)", "B median (IQR)", "B vs A"
    );
    for w in workloads {
        println!("== {w}");
        for (trace, metrics) in [(false, &e2e), (true, &layers)] {
            for (name, bound) in metrics {
                let values = |set: &[Record]| -> Vec<f64> {
                    set.iter()
                        .filter(|r| r.workload == w && r.trace == trace)
                        .filter_map(|r| r.nums.get(name).copied())
                        .collect()
                };
                let (va, vb) = (values(&sets[0]), values(&sets[1]));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (ma, mb) = (median(&va), median(&vb));
                let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
                let verdict = match bound {
                    Some(bound) if delta.abs() > *bound => {
                        ok = false;
                        format!("OUTSIDE ±{:.0}%", 100.0 * bound)
                    }
                    Some(bound) => format!("within ±{:.0}%", 100.0 * bound),
                    None => String::new(),
                };
                println!(
                    "{name:<34} {} {} {:>+7.1}% {verdict}",
                    summary(&va),
                    summary(&vb),
                    100.0 * delta
                );
            }
        }
        // fingerprints: runs of one workload and seed in both sets
        let (mut same, mut differ) = (0, 0);
        for ra in sets[0].iter().filter(|r| r.workload == w) {
            for rb in sets[1]
                .iter()
                .filter(|r| r.workload == w && r.seed == ra.seed)
            {
                if ra.prints == rb.prints {
                    same += 1;
                } else {
                    differ += 1;
                    println!("fingerprint differs for seed {}", ra.seed);
                }
            }
        }
        println!("fingerprints: {same} identical pairs, {differ} differing");
        ok &= differ == 0;
    }
    Ok(ok)
}

/// `(name, bound)` of every object in `BENCHMARK.json`, whose objects
/// hold no nested braces. Workloads come out without a bound, like
/// per-layer metrics; no record holds a value under their names.
fn metrics(bench: &str) -> Vec<(String, Option<f64>)> {
    bench
        .split('{')
        .filter_map(|obj| {
            let obj = obj.split('}').next()?;
            let name = field(obj, "name")?.trim_matches('"').to_string();
            Some((name, field(obj, "bound").and_then(|b| b.parse().ok())))
        })
        .collect()
}

/// The raw value of `"key": value` in one flat JSON object.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = obj.split(&format!("\"{key}\":")).nth(1)?;
    Some(rest.split(',').next()?.trim())
}

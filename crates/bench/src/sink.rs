//! Machine-readable bench reports: `BENCH_<experiment>.json`.
//!
//! Each experiment contributes one [`BenchReport`] — a flat map of
//! numeric metrics (cycles, energy, accuracy, wall time) plus string
//! annotations — and [`BenchReport::write_to`] serializes it to
//! `BENCH_*.json` files, one per experiment, so CI and notebooks can
//! diff runs without scraping the human-readable tables. Serialization
//! reuses the dependency-free JSON helpers of `pimvo-telemetry`;
//! metrics iterate from `BTreeMap`s, so files are deterministically
//! ordered.

use pimvo_telemetry::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One experiment's machine-readable result summary.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    meta: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Starts an empty report for experiment `name` (becomes the
    /// `BENCH_<name>.json` file name — keep it path-safe).
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            meta: BTreeMap::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a numeric metric.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.insert(key.to_string(), value);
        self
    }

    /// Adds a string annotation (units, paper reference, config).
    pub fn note(&mut self, key: &str, value: &str) -> &mut Self {
        self.meta.insert(key.to_string(), value.to_string());
        self
    }

    /// The collected metrics.
    pub fn metrics(&self) -> &BTreeMap<String, f64> {
        &self.metrics
    }

    /// File name this report serializes to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Writes the report to `<dir>/BENCH_<name>.json` and returns that
    /// path.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let path = dir.as_ref().join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json::escaped(&self.name));
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json::escaped(k), json::escaped(v));
        }
        if !self.meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json::escaped(k), json::number(*v));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// The command line that regenerates a BENCH file written by binary
/// `bin` of this crate when run with `args`, less any `--out <dir>`:
/// the destination does not change what is written.
pub fn command(bin: &str, args: &[String]) -> String {
    let mut cmd = format!("cargo run --release -p pimvo-bench --bin {bin}");
    let mut args = args.iter();
    let mut sep = " --";
    while let Some(arg) = args.next() {
        if arg == "--out" {
            args.next();
            continue;
        }
        cmd.push_str(sep);
        cmd.push(' ');
        cmd.push_str(arg);
        sep = "";
    }
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_deterministically() {
        let mut r = BenchReport::new("fig9a");
        r.metric("pim_edge_cycles", 29_556.0)
            .metric("edge_speedup", 47.5)
            .note("units", "cycles");
        let j = r.to_json();
        assert!(j.contains("\"experiment\": \"fig9a\""));
        assert!(j.contains("\"pim_edge_cycles\": 29556"));
        assert!(j.contains("\"edge_speedup\": 47.5"));
        assert!(j.contains("\"units\": \"cycles\""));
        assert_eq!(j, r.to_json());
        assert_eq!(r.file_name(), "BENCH_fig9a.json");
    }

    #[test]
    fn command_drops_the_destination() {
        let args = ["--frames", "16", "--out", "/tmp/x", "--arrays", "3"].map(String::from);
        let cmd = "cargo run --release -p pimvo-bench --bin";
        assert_eq!(
            command("a", &args),
            format!("{cmd} a -- --frames 16 --arrays 3")
        );
        assert_eq!(command("b", &args[2..4]), format!("{cmd} b"));
    }

    #[test]
    fn sink_writes_files() {
        let dir = std::env::temp_dir().join("pimvo_bench_sink_test");
        std::fs::create_dir_all(&dir).unwrap();

        let mut r = BenchReport::new("unit");
        r.metric("x", 1.0);
        let path = r.write_to(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 1"));
        std::fs::remove_file(path).unwrap();
    }
}

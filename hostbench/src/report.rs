//! Metric collection, order statistics and the output format.
//!
//! A run prints one `name value unit` line per metric, then, as its
//! last line, one JSON object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
//! holding the metrics of the run's mode (end-to-end untraced,
//! per-layer traced). Lines whose value is not a number (digests) are
//! fingerprints: identical inputs must reproduce them exactly.

use std::fmt::Write as _;

pub enum Value {
    Num(f64),
    Text(String),
}

pub struct Metric {
    pub name: String,
    pub value: Value,
    pub unit: &'static str,
    /// Part of the closing JSON object.
    pub json: bool,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A metric of the run's mode: printed and put in the JSON object.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), Value::Num(value), unit, true);
    }

    /// A printed-only number (sample counts, deterministic checks).
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), Value::Num(value), unit, false);
    }

    /// A printed-only fingerprint.
    pub fn text(&mut self, name: impl Into<String>, value: String, unit: &'static str) {
        self.push(name.into(), Value::Text(value), unit, false);
    }

    fn push(&mut self, name: String, value: Value, unit: &'static str, json: bool) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            json,
        });
    }

    /// The `name value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = match &m.value {
                Value::Num(v) => writeln!(out, "{} {} {}", m.name, v, m.unit),
                Value::Text(s) => writeln!(out, "{} {} {}", m.name, s, m.unit),
            };
        }
        out
    }

    /// The closing JSON object. Non-finite values cannot be written as
    /// JSON numbers; a run that produced one is not correct.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut finite = true;
        let mut body = Vec::new();
        for m in self.metrics.iter().filter(|m| m.json) {
            let Value::Num(v) = m.value else { continue };
            finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            body.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite,
            body.join(", ")
        )
    }
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `values` (numpy's
/// default definition); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Resident-set sizes from `/proc/self/status`, MiB: (current, peak).
/// Zero where the file does not exist.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#![warn(missing_docs)]

//! Dependency-free observability layer for the pimvo workspace.
//!
//! The paper's headline numbers (11× speed-up, ~20.8× energy, the
//! Fig. 10 breakdowns) are *measurements*; this crate gives every layer
//! of the reproduction a first-class way to surface its own — without
//! pulling a single external dependency into the vendored-offline
//! workspace.
//!
//! # Model
//!
//! A [`Telemetry`] value is a cheap, cloneable handle. It is either
//! **off** (the default, [`Telemetry::off`]) — every recording method is
//! a single branch on a `None`, nothing allocates, nothing locks — or
//! **on** ([`Telemetry::new`] / [`Telemetry::with_clock`]), in which
//! case records accumulate in a shared registry behind a mutex.
//! Instrumented code holds a handle unconditionally; the zero-cost-off
//! path is what lets the hooks live permanently in `PimMachine`,
//! `PimArrayPool` and the tracker without perturbing the paper's
//! cycle/energy numbers (a property the test-suite asserts).
//!
//! Two time domains coexist:
//!
//! * **wall time** — host nanoseconds from the registry's single
//!   [`Clock`] source. RAII [`SpanGuard`]s record these; tests inject a
//!   [`ManualClock`] so exported traces are byte-deterministic.
//! * **PIM cycles** — the simulator's own clock. Cycle-domain spans are
//!   recorded explicitly ([`Telemetry::record_span`]) from counter
//!   deltas (`ExecStats::cycles`, `PimArrayPool::wall_cycles`), after
//!   the fact, so the simulator's inner loops never touch the registry.
//!
//! # Exporters
//!
//! * [`Telemetry::perfetto_json`] — Chrome/Perfetto trace-event JSON.
//!   Wall-time tracks and PIM-cycle tracks render as two separate
//!   processes; spans nest by containment (frame → stage → pool phase →
//!   shard → macro-op).
//! * [`Telemetry::metrics_text`] — a Prometheus-style text snapshot of
//!   every counter and gauge, deterministically ordered.
//! * [`Telemetry::log_jsonl`] — the structured event log, one JSON
//!   object per line with timestamp, frame id and severity.

mod clock;
pub mod container;
/// Minimal hand-rolled JSON serialization helpers (the crate is
/// dependency-free); also used by `pimvo-bench` for its report files.
pub mod json;
mod metrics;
pub mod optrace;
mod perfetto;
mod record;

pub use clock::{Clock, ManualClock, WallClock};
pub use record::{EventKind, LogRecord, Severity, SpanRecord, TimeDomain};

use std::sync::{Arc, Mutex, MutexGuard};

/// The accumulated telemetry state behind an enabled handle.
#[derive(Debug)]
struct Registry {
    clock: Box<dyn Clock>,
    spans: Vec<SpanRecord>,
    logs: Vec<LogRecord>,
    counters: std::collections::BTreeMap<String, f64>,
    gauges: std::collections::BTreeMap<String, f64>,
    current_frame: Option<u64>,
}

impl Registry {
    fn new(clock: Box<dyn Clock>) -> Self {
        Registry {
            clock,
            spans: Vec::new(),
            logs: Vec::new(),
            counters: std::collections::BTreeMap::new(),
            gauges: std::collections::BTreeMap::new(),
            current_frame: None,
        }
    }
}

/// An immutable copy of everything a [`Telemetry`] registry recorded,
/// taken by [`Telemetry::snapshot`]. Exporters consume snapshots, so an
/// export never holds the registry lock while formatting.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Every recorded span, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Every structured log event, in recording order.
    pub logs: Vec<LogRecord>,
    /// Monotonic counters, keyed by full metric name (labels included).
    pub counters: std::collections::BTreeMap<String, f64>,
    /// Point-in-time gauges, keyed by full metric name.
    pub gauges: std::collections::BTreeMap<String, f64>,
}

/// A cheap, cloneable telemetry handle — either off (default; every
/// method is a no-op behind one branch) or backed by a shared registry.
///
/// ```
/// use pimvo_telemetry::{ManualClock, Telemetry};
///
/// let tele = Telemetry::with_clock(Box::new(ManualClock::with_step(1_000)));
/// {
///     let mut span = tele.span("tracker", "frame");
///     span.arg("features", "1234");
/// } // recorded on drop
/// assert_eq!(tele.snapshot().spans.len(), 1);
///
/// let off = Telemetry::off();
/// off.counter_add("ignored_total", 1.0); // no-op, no allocation
/// assert!(!off.is_enabled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Telemetry {
    /// The disabled handle: every recording method is a no-op.
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle using the host wall clock.
    pub fn new() -> Self {
        Self::with_clock(Box::new(WallClock::start()))
    }

    /// An enabled handle with an injected [`Clock`] — the one seam
    /// through which every wall-time field flows, so tests that install
    /// a [`ManualClock`] get byte-deterministic exports.
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Registry::new(clock)))),
        }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Sets the frame id attached to subsequently recorded spans and
    /// log events (until the next call).
    pub fn set_frame(&self, frame: u64) {
        if let Some(mut r) = self.lock() {
            r.current_frame = Some(frame);
        }
    }

    /// Opens a wall-time span on `track`; the span is recorded when the
    /// returned guard drops. On a disabled handle the guard is inert
    /// and the name is never materialized.
    pub fn span(&self, track: &str, name: &str) -> SpanGuard {
        let start = match self.lock() {
            Some(mut r) => r.clock.now_ns(),
            None => return SpanGuard::inert(),
        };
        SpanGuard {
            tele: self.clone(),
            track: track.to_string(),
            name: name.to_string(),
            start_ns: start,
            args: Vec::new(),
        }
    }

    /// Records a span with explicit start/duration — the cycle-domain
    /// path, fed from simulator counter deltas after a phase completes.
    pub fn record_span(
        &self,
        domain: TimeDomain,
        track: &str,
        name: &str,
        start: u64,
        dur: u64,
        args: &[(&str, String)],
    ) {
        if let Some(mut r) = self.lock() {
            let frame = r.current_frame;
            r.spans.push(SpanRecord {
                domain,
                track: track.to_string(),
                name: name.to_string(),
                start,
                dur,
                frame,
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Adds `v` to the monotonic counter `name` (created at zero).
    pub fn counter_add(&self, name: &str, v: f64) {
        if let Some(mut r) = self.lock() {
            *r.counters.entry(name.to_string()).or_insert(0.0) += v;
        }
    }

    /// Adds `v` to a labeled counter, e.g.
    /// `counter_add_labeled("transitions_total", &[("from", "ok"), ("to", "lost")], 1.0)`.
    pub fn counter_add_labeled(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if self.inner.is_none() {
            return;
        }
        self.counter_add(&metrics::labeled_key(name, labels), v);
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(mut r) = self.lock() {
            r.gauges.insert(name.to_string(), v);
        }
    }

    /// Sets a labeled gauge, e.g.
    /// `gauge_set_labeled("pimvo_serve_shed_rung", &[("session", "1")], 2.0)`.
    pub fn gauge_set_labeled(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        if self.inner.is_none() {
            return;
        }
        self.gauge_set(&metrics::labeled_key(name, labels), v);
    }

    /// Appends a structured event to the JSONL log. `fields` are
    /// key/value pairs serialized verbatim as JSON strings.
    pub fn log(&self, severity: Severity, message: &str, fields: &[(&str, String)]) {
        if let Some(mut r) = self.lock() {
            let ts_ns = r.clock.now_ns();
            let frame = r.current_frame;
            r.logs.push(LogRecord {
                ts_ns,
                severity,
                frame,
                message: message.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Records a typed supervision event: a structured log entry whose
    /// first field is the stable `kind` wire name, plus a bump of the
    /// `pimvo_events_total{kind=...}` counter. The severity comes from
    /// the kind, so every `DeadlineMiss` is a warning and every
    /// `CheckpointRejected` an error regardless of the call site.
    pub fn event(&self, kind: EventKind, fields: &[(&str, String)]) {
        if self.inner.is_none() {
            return;
        }
        self.counter_add_labeled("pimvo_events_total", &[("kind", kind.as_str())], 1.0);
        let mut all: Vec<(&str, String)> = Vec::with_capacity(fields.len() + 1);
        all.push(("kind", kind.as_str().to_string()));
        all.extend_from_slice(fields);
        self.log(kind.severity(), kind.as_str(), &all);
    }

    /// Copies out everything recorded so far. Returns an empty snapshot
    /// on a disabled handle.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match self.lock() {
            Some(r) => TelemetrySnapshot {
                spans: r.spans.clone(),
                logs: r.logs.clone(),
                counters: r.counters.clone(),
                gauges: r.gauges.clone(),
            },
            None => TelemetrySnapshot::default(),
        }
    }

    /// Exports the recorded spans and log events as Chrome/Perfetto
    /// trace-event JSON (load at `ui.perfetto.dev` or `chrome://tracing`).
    pub fn perfetto_json(&self) -> String {
        perfetto::export(&self.snapshot())
    }

    /// Exports counters and gauges as a Prometheus-style text snapshot.
    pub fn metrics_text(&self) -> String {
        metrics::export(&self.snapshot())
    }

    /// Exports the structured event log as JSON Lines.
    pub fn log_jsonl(&self) -> String {
        record::export_jsonl(&self.snapshot())
    }
}

/// RAII guard for a wall-time span: opened by [`Telemetry::span`],
/// recorded when dropped. Inert (field-empty, allocation-free) when the
/// handle is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    tele: Telemetry,
    track: String,
    name: String,
    start_ns: u64,
    args: Vec<(String, String)>,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            tele: Telemetry::off(),
            track: String::new(),
            name: String::new(),
            start_ns: 0,
            args: Vec::new(),
        }
    }

    /// Attaches a key/value argument shown in the trace viewer.
    pub fn arg(&mut self, key: &str, value: impl Into<String>) {
        if self.tele.is_enabled() {
            self.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut r) = self.tele.lock() {
            let end = r.clock.now_ns();
            let frame = r.current_frame;
            r.spans.push(SpanRecord {
                domain: TimeDomain::Wall,
                track: std::mem::take(&mut self.track),
                name: std::mem::take(&mut self.name),
                start: self.start_ns,
                dur: end.saturating_sub(self.start_ns),
                frame,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> Telemetry {
        Telemetry::with_clock(Box::new(ManualClock::with_step(500)))
    }

    #[test]
    fn off_handle_records_nothing() {
        let t = Telemetry::off();
        {
            let mut s = t.span("a", "b");
            s.arg("k", "v");
        }
        t.counter_add("c", 1.0);
        t.gauge_set("g", 2.0);
        t.log(Severity::Info, "hello", &[]);
        t.record_span(TimeDomain::Cycles, "x", "y", 0, 10, &[]);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.logs.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(t.perfetto_json().contains("traceEvents"));
    }

    #[test]
    fn wall_span_uses_injected_clock() {
        let t = manual();
        {
            let _s = t.span("tracker", "frame");
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.domain, TimeDomain::Wall);
        assert_eq!(s.start, 0);
        assert_eq!(s.dur, 500);
    }

    #[test]
    fn frame_id_attaches_to_spans_and_logs() {
        let t = manual();
        t.set_frame(7);
        t.record_span(TimeDomain::Cycles, "pool", "lpf", 10, 20, &[]);
        t.log(
            Severity::Warn,
            "degraded",
            &[("residual", "3.5".to_string())],
        );
        let snap = t.snapshot();
        assert_eq!(snap.spans[0].frame, Some(7));
        assert_eq!(snap.logs[0].frame, Some(7));
        assert_eq!(snap.logs[0].severity, Severity::Warn);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let t = manual();
        t.counter_add("frames_total", 1.0);
        t.counter_add("frames_total", 1.0);
        t.counter_add_labeled("transitions_total", &[("from", "ok"), ("to", "lost")], 1.0);
        t.gauge_set("residual", 0.25);
        t.gauge_set("residual", 0.5);
        let snap = t.snapshot();
        assert_eq!(snap.counters["frames_total"], 2.0);
        assert_eq!(
            snap.counters["transitions_total{from=\"ok\",to=\"lost\"}"],
            1.0
        );
        assert_eq!(snap.gauges["residual"], 0.5);
    }

    #[test]
    fn clones_share_one_registry() {
        let t = manual();
        let u = t.clone();
        u.counter_add("shared", 1.0);
        assert_eq!(t.snapshot().counters["shared"], 1.0);
    }
}

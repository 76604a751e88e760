//! Host-time spans recorded from outside the program, and a
//! [`TrackerBackend`] decorator that records one per backend call.
//!
//! The decorator forwards every trait method, including the defaulted
//! ones: one that fell back to the default `pool_mut` would hide the
//! array pool from the tracker, which then skips its frame-end DMA
//! settle and charges different cycles than the undecorated backend.

use pimvo_core::{BackendStats, Feature, Keyframe, TrackerBackend};
use pimvo_kernels::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo_pim::{PimArrayPool, PoolHealth};
use pimvo_telemetry::Telemetry;
use pimvo_vomath::{NormalEquations, Pinhole, SE3};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One timed call: what ran and when, in ns since the log's origin.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Shared handle: the tracker owns the decorated backend, the
/// benchmark keeps the log.
pub type Spans = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared() -> Spans {
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }))
    }

    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// Drops every span recorded so far (the set-up's).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Summed duration (ns) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
    }

    /// Chrome trace-event JSON (loads in Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Runs `f` and records it as a span named `name`.
pub fn timed<R>(spans: &Spans, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    spans.borrow_mut().record(name, start, Instant::now());
    r
}

pub struct TimedBackend {
    inner: Box<dyn TrackerBackend>,
    spans: Spans,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn TrackerBackend>, spans: Spans) -> Self {
        TimedBackend { inner, spans }
    }
}

impl TrackerBackend for TimedBackend {
    fn detect_edges(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let inner = &mut self.inner;
        timed(&self.spans, "detect_edges", || inner.detect_edges(img, cfg))
    }

    fn detect_edges_fast(&mut self, img: &GrayImage, cfg: &EdgeConfig) -> EdgeMaps {
        let inner = &mut self.inner;
        timed(&self.spans, "detect_edges_fast", || {
            inner.detect_edges_fast(img, cfg)
        })
    }

    fn downsample(&mut self, img: &GrayImage) -> GrayImage {
        let inner = &mut self.inner;
        timed(&self.spans, "downsample", || inner.downsample(img))
    }

    fn linearize(
        &mut self,
        features: &[Feature],
        keyframe: &Keyframe,
        cam: &Pinhole,
        pose: &SE3,
    ) -> NormalEquations {
        let inner = &mut self.inner;
        timed(&self.spans, "linearize", || {
            inner.linearize(features, keyframe, cam, pose)
        })
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn pool_health(&self) -> Option<PoolHealth> {
        self.inner.pool_health()
    }

    fn pool_mut(&mut self) -> Option<&mut PimArrayPool> {
        self.inner.pool_mut()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry);
    }

    fn export_health_telemetry(&self) {
        self.inner.export_health_telemetry();
    }
}

//! Per-session flight recorder: a ring of the last N frames' op
//! traces, dumped atomically when something goes wrong.
//!
//! Arming [`crate::SessionSpec::flight_recorder`] makes the fleet
//! record every frame the session runs on the shared pool as a
//! dependency-tracked op trace ([`pimvo_telemetry::optrace`]) and keep
//! the most recent `frames` of them. When the session's circuit
//! breaker trips, a frame misses its deadline, or the pool quarantines
//! an array during the frame, the ring is dumped to disk — like an
//! aircraft flight recorder, the file holds the *lead-up* to the
//! incident, not just the incident itself.
//!
//! A dump is one [`pimvo_telemetry::container`] frame with magic
//! `PIMVOFDR`, written through the container's atomic writer and
//! decoded with typed [`ContainerError`]s. The payload:
//!
//! ```text
//! session u32 | reason u8 | nframes u64
//!   | (frame u64, wall_delta u64, len u64, OpTrace)*
//! ```
//!
//! Each embedded [`OpTrace`] is itself a full container, so a dump
//! replays through the ordinary trace tooling: the critical path of a
//! frame's trace equals that frame's recorded `wall_delta` (asserted
//! by the chaos harness in `pimvo-bench`).

use pimvo_telemetry::container::{self, ContainerError, Reader, Writer};
use pimvo_telemetry::optrace::OpTrace;
use std::collections::VecDeque;
use std::path::Path;

/// Container magic: "PIMVOFDR" (flight data recorder), distinct from
/// the fleet manifest magic "PIMVOFLT" and the raw trace "PIMVOTRC".
pub const FLIGHT_MAGIC: &[u8; 8] = b"PIMVOFDR";
/// Dump container version; bumped on layout changes.
pub const FLIGHT_VERSION: u16 = 2;

/// Why a flight dump was written. The discriminant is the stable wire
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DumpReason {
    /// The session's circuit breaker tripped open on this frame.
    BreakerTrip = 0,
    /// The frame completed past the session's deadline.
    DeadlineMiss = 1,
    /// The shared pool quarantined at least one array during the frame.
    Quarantine = 2,
    /// An operator or tool requested the dump (no incident).
    Manual = 3,
    /// A host↔array DMA channel quarantined during the frame (the
    /// transfer retry ladder exhausted; traffic degraded to the
    /// synchronous port).
    DmaQuarantine = 4,
}

/// Every reason, in wire-tag order.
const DUMP_REASONS: [DumpReason; 5] = [
    DumpReason::BreakerTrip,
    DumpReason::DeadlineMiss,
    DumpReason::Quarantine,
    DumpReason::Manual,
    DumpReason::DmaQuarantine,
];

impl DumpReason {
    /// Human-readable reason, used in dump file names.
    pub fn as_str(self) -> &'static str {
        match self {
            DumpReason::BreakerTrip => "breaker",
            DumpReason::DeadlineMiss => "deadline",
            DumpReason::Quarantine => "quarantine",
            DumpReason::Manual => "manual",
            DumpReason::DmaQuarantine => "dma",
        }
    }
}

/// One frame's worth of flight data: which completed frame it was (the
/// session's 1-based completion count), how long it ran on the shared
/// pool, and the full op trace of that execution window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightFrame {
    /// The session's completed-frame count when this frame finished.
    pub frame: u64,
    /// Pool wall-cycles the frame consumed (execution, not queue wait).
    pub wall_delta: u64,
    /// Dependency-tracked op trace of the execution window.
    pub trace: OpTrace,
}

/// The in-memory ring holding a session's last N [`FlightFrame`]s.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    frames: VecDeque<FlightFrame>,
    capacity: usize,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> Self {
        FlightRecorder {
            frames: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&mut self, frame: FlightFrame) {
        if self.frames.len() >= self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    pub(crate) fn snapshot(&self) -> Vec<FlightFrame> {
        self.frames.iter().cloned().collect()
    }
}

/// A decoded (or to-be-written) flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Session the dump belongs to.
    pub session: u32,
    /// What triggered it.
    pub reason: DumpReason,
    /// The ring contents at the incident, oldest first; the last entry
    /// is the frame that triggered the dump.
    pub frames: Vec<FlightFrame>,
}

impl FlightDump {
    /// Serializes the dump into its container bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(FLIGHT_MAGIC, FLIGHT_VERSION);
        w.u32(self.session);
        w.u8(self.reason as u8);
        w.u64(self.frames.len() as u64);
        for f in &self.frames {
            w.u64(f.frame);
            w.u64(f.wall_delta);
            let trace = f.trace.encode();
            w.u64(trace.len() as u64);
            w.bytes(&trace);
        }
        w.seal()
    }

    /// Decodes a dump: the container checks, then the payload's
    /// structure and every embedded trace — typed errors, no panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, ContainerError> {
        let mut r = Reader::new(container::open(bytes, FLIGHT_MAGIC, FLIGHT_VERSION)?);
        let session = r.u32()?;
        let reason = *DUMP_REASONS
            .get(r.u8()? as usize)
            .ok_or(ContainerError::Malformed("unknown dump reason"))?;
        let nframes = r.count(24)?;
        let mut frames = Vec::with_capacity(nframes);
        for _ in 0..nframes {
            let frame = r.u64()?;
            let wall_delta = r.u64()?;
            let len = r.count(1)?;
            frames.push(FlightFrame {
                frame,
                wall_delta,
                trace: OpTrace::decode(r.take(len)?)?,
            });
        }
        r.finish()?;
        Ok(FlightDump {
            session,
            reason,
            frames,
        })
    }

    /// Writes the dump through [`container::write_atomic`], the same
    /// crash-safety contract as the fleet manifest store.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ContainerError> {
        container::write_atomic(path, &self.encode())?;
        Ok(())
    }

    /// Reads and decodes a dump file.
    ///
    /// # Errors
    ///
    /// Any [`ContainerError`]: I/O, corruption, or structural rejection.
    pub fn load(path: &Path) -> Result<Self, ContainerError> {
        Self::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimvo_telemetry::optrace::{OpKind, OpRecord, NO_LABEL, NO_ROW, NO_SESSION};

    fn tiny_trace(cycles: u64) -> OpTrace {
        let mut t = OpTrace::new();
        t.records.push(OpRecord {
            id: 1,
            deps: [0, 0, 0],
            start: 0,
            cycles,
            sram: 2,
            size: 40,
            rows: [0, NO_ROW],
            dst: NO_ROW,
            session: NO_SESSION,
            label: NO_LABEL,
            kind: OpKind::AddSub,
            array: 0,
        });
        t
    }

    #[test]
    fn ring_keeps_the_last_n_frames() {
        let mut r = FlightRecorder::new(2);
        for i in 1..=5u64 {
            r.push(FlightFrame {
                frame: i,
                wall_delta: i,
                trace: tiny_trace(i),
            });
        }
        let frames = r.snapshot();
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[0].frame, frames[1].frame), (4, 5));
    }
}

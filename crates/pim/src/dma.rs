//! Modeled host↔array DMA subsystem: typed, CRC'd transfer
//! descriptors on bounded per-array channels, with a seeded fault
//! model and a retry → exponential backoff → quarantine ladder that
//! degrades gracefully to the synchronous host port.
//!
//! # Model
//!
//! Without a channel installed, every host transfer is **synchronous**
//! (PIO): the machine charges [`crate::CostModel::transfer_cycles`]
//! straight to its timeline and the data moves before the call
//! returns — the pre-DMA behaviour, now costed honestly instead of
//! being free.
//!
//! With a channel ([`DmaConfig`] via
//! [`crate::PimMachine::set_dma`] / [`crate::PimArrayPool::set_dma`]),
//! a host write or read becomes a [`TransferDescriptor`] queued on the
//! channel engine: the descriptor carries a CRC over payload + header,
//! the channel clock advances by setup + per-beat + completion cycles
//! from the [`crate::CostModel`], and the issuing compute stream moves
//! on immediately. Compute only stalls when it actually needs the
//! data: [`crate::PimMachine::run_program`] waits for outstanding
//! *inbound* completions, and a settle point waits for everything.
//! Stalls are charged to [`crate::ExecStats::dma_stall_cycles`], so
//! overlap wins show up as end-to-end timeline reductions while the
//! compute budget stays identical to the paper's.
//!
//! Payload data is applied to the SRAM eagerly at issue (the channel
//! engine snapshots the burst buffer), so results are bit-identical
//! with the channel on, off, or faulting — the DMA layer is purely a
//! timing/robustness model, which is also what makes the fault ladder
//! safe: a corrupted or lost descriptor costs retries and backoff, it
//! never corrupts delivered data.
//!
//! # Fault ladder
//!
//! A seeded [`DmaFaultModel`] (inert by default) injects three failure
//! classes per delivery attempt:
//!
//! * **payload bit flips** — caught by the descriptor CRC at
//!   completion; the attempt cost is a full transfer;
//! * **stalled descriptors** — caught by a 512-cycle completion
//!   timeout;
//! * **dropped completions** — same detector: the payload landed but
//!   the completion never fired, so the host times out and retries.
//!
//! Every failed attempt costs its detection latency plus exponential
//! backoff (`32 << attempt` cycles). A descriptor that exhausts its 3
//! retries, or a run of 8 consecutive faulted descriptors,
//! **quarantines the channel**: all subsequent transfers fall back to
//! the synchronous port (infallible, costed, bit-identical) instead of
//! failing the frame or hanging the wave scheduler.

use crate::cost::CostModel;
use crate::optrace::OpRecorder;
use crate::stream::FaultStream;
use pimvo_telemetry::container::crc32;
use pimvo_telemetry::optrace::{OpKind, NO_ROW};
use std::collections::VecDeque;

/// What a [`TransferDescriptor`] moves. Inbound kinds map to
/// [`OpKind::DmaIn`] records, outbound to [`OpKind::DmaOut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferKind {
    /// Host → SRAM strip input (image rows, constants).
    #[default]
    StripIn,
    /// SRAM → host strip/result readout.
    StripOut,
}

impl TransferKind {
    /// Whether the transfer moves data into the array.
    pub fn is_inbound(self) -> bool {
        !matches!(self, TransferKind::StripOut)
    }
}

/// One typed transfer descriptor: header + CRC over payload + header.
/// The wire header is what the CRC covers alongside the payload; the
/// simulator keeps descriptors implicit (they live for one channel
/// `issue` call) but the checksum math is real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferDescriptor {
    /// Transfer kind.
    pub kind: TransferKind,
    /// Target / source SRAM row.
    pub row: u32,
    /// Payload bytes.
    pub bytes: u32,
    /// Channel-local descriptor sequence number.
    pub seq: u64,
    /// CRC-32 over payload + header.
    pub crc: u32,
}

impl TransferDescriptor {
    /// Builds a descriptor for `payload`, sealing the CRC.
    pub fn new(kind: TransferKind, row: u32, seq: u64, payload: &[u8]) -> Self {
        let mut d = TransferDescriptor {
            kind,
            row,
            bytes: payload.len() as u32,
            seq,
            crc: 0,
        };
        d.crc = d.payload_crc(payload);
        d
    }

    fn header_bytes(&self) -> [u8; 17] {
        let mut h = [0u8; 17];
        h[0] = match self.kind {
            TransferKind::StripIn => 0,
            TransferKind::StripOut => 1,
        };
        h[1..5].copy_from_slice(&self.row.to_le_bytes());
        h[5..9].copy_from_slice(&self.bytes.to_le_bytes());
        h[9..17].copy_from_slice(&self.seq.to_le_bytes());
        h
    }

    /// CRC-32 over `payload` followed by the header fields, the header
    /// fed to the payload's running CRC (no concatenated copy).
    pub fn payload_crc(&self, payload: &[u8]) -> u32 {
        crc32(crc32(0, payload), &self.header_bytes())
    }

    /// Whether `payload` matches the sealed CRC.
    pub fn verify(&self, payload: &[u8]) -> bool {
        self.payload_crc(payload) == self.crc
    }
}

/// Switches a machine's host↔array DMA channel on
/// ([`crate::PimMachineBuilder::dma`]). The channel models one small
/// on-die burst engine with fixed parameters: a 4-deep descriptor
/// queue, a 512-cycle completion timeout, 3 retries with a 32-cycle
/// exponential backoff, and quarantine after 8 consecutive faulted
/// descriptors. Built with `DmaConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmaConfig {
    _fixed: (),
}

/// Maximum descriptors in flight; issuing into a full queue stalls the
/// host until the oldest completes (backpressure).
const QUEUE_DEPTH: usize = 4;
/// Cycle-domain completion timeout, a few transfers long: a stalled
/// descriptor or a dropped completion is detected after this many
/// cycles.
const TIMEOUT_CYCLES: u64 = 512;
/// Delivery retries per descriptor before the channel gives up and
/// quarantines.
const MAX_RETRIES: u32 = 3;
/// Base backoff after a failed attempt; doubles per retry.
const BACKOFF_BASE_CYCLES: u64 = 32;
/// Consecutive faulted descriptors before the channel quarantines even
/// when individual retries keep succeeding.
const QUARANTINE_AFTER: u32 = 8;

/// Seeded transfer-fault model. [`DmaFaultModel::none`] is inert and
/// free, mirroring [`crate::FaultModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct DmaFaultModel {
    seed: u64,
    /// Probability a delivery attempt corrupts a payload bit.
    flip_rate: f64,
    /// Probability a delivery attempt stalls past the timeout.
    stall_rate: f64,
    /// Probability a delivered attempt's completion is dropped.
    drop_rate: f64,
}

impl DmaFaultModel {
    /// The inert model: no faults, no RNG draws, no overhead.
    pub fn none() -> Self {
        DmaFaultModel {
            seed: 0,
            flip_rate: 0.0,
            stall_rate: 0.0,
            drop_rate: 0.0,
        }
    }

    /// True when this model can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.flip_rate <= 0.0 && self.stall_rate <= 0.0 && self.drop_rate <= 0.0
    }

    /// A model injecting payload flips, stalls and dropped completions
    /// at the given per-attempt probabilities, deterministically
    /// derived from `seed`.
    pub fn new(seed: u64, flip_rate: f64, stall_rate: f64, drop_rate: f64) -> Self {
        for r in [flip_rate, stall_rate, drop_rate] {
            assert!((0.0..1.0).contains(&r), "rate must be in [0, 1)");
        }
        assert!(
            flip_rate + stall_rate + drop_rate < 1.0,
            "combined fault rate must stay below 1"
        );
        DmaFaultModel {
            seed,
            flip_rate,
            stall_rate,
            drop_rate,
        }
    }

    /// A flip-only model (CRC-detected payload corruption).
    pub fn flips(seed: u64, rate: f64) -> Self {
        DmaFaultModel::new(seed, rate, 0.0, 0.0)
    }
}

impl Default for DmaFaultModel {
    fn default() -> Self {
        DmaFaultModel::none()
    }
}

/// Outcome of one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    Ok,
    /// Payload bit `bit` flipped in flight; CRC catches it.
    Flip {
        bit: u64,
    },
    /// Descriptor stalled; the timeout catches it.
    Stall,
    /// Completion dropped; the timeout catches it.
    Drop,
}

#[derive(Debug, Clone)]
struct DmaFaultUnit {
    model: DmaFaultModel,
    rng: FaultStream,
}

impl DmaFaultUnit {
    fn new(model: DmaFaultModel) -> Self {
        DmaFaultUnit {
            rng: FaultStream::new(model.seed),
            model,
        }
    }

    /// Forks the stream with `salt` so pool member channels see
    /// independent fault patterns from one shared model.
    fn reseed(&mut self, salt: u64) {
        self.rng.reseed(salt);
    }

    /// One delivery-attempt draw: a single uniform sample partitioned
    /// across the three failure classes, so the stream is independent
    /// of which rates are zero.
    fn draw(&mut self, payload_bits: u64) -> Attempt {
        if self.model.is_none() {
            return Attempt::Ok;
        }
        let u = ((self.rng.next_u64() >> 11) as f64) / 9007199254740992.0;
        let m = &self.model;
        if u < m.flip_rate {
            let bit = if payload_bits == 0 {
                0
            } else {
                self.rng.next_u64() % payload_bits
            };
            Attempt::Flip { bit }
        } else if u < m.flip_rate + m.stall_rate {
            Attempt::Stall
        } else if u < m.flip_rate + m.stall_rate + m.drop_rate {
            Attempt::Drop
        } else {
            Attempt::Ok
        }
    }
}

/// Cumulative health counters of one channel. Monotone except
/// [`DmaHealth::quarantined`]; diff scoped windows with
/// [`DmaHealth::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaHealth {
    /// Descriptors issued to the channel engine.
    pub issued: u64,
    /// Delivery retries (one per failed attempt).
    pub retries: u64,
    /// Payload corruptions rejected by the descriptor CRC.
    pub crc_errors: u64,
    /// Attempts that hit the completion timeout (stall or drop).
    pub timeouts: u64,
    /// Transfers that bypassed the channel onto the synchronous port
    /// (quarantine fallback).
    pub sync_fallbacks: u64,
    /// Times the channel entered quarantine.
    pub quarantines: u64,
    /// Cycles the issuing machine stalled on this channel: queue
    /// backpressure plus explicit settle waits.
    pub stall_cycles: u64,
    /// Whether the channel is currently quarantined.
    pub quarantined: bool,
}

impl DmaHealth {
    /// Counter difference `self - earlier` (the `quarantined` flag is
    /// taken from `self`); saturating, for scoped windows across a
    /// rehabilitation.
    pub fn since(&self, earlier: &DmaHealth) -> DmaHealth {
        DmaHealth {
            issued: self.issued.saturating_sub(earlier.issued),
            retries: self.retries.saturating_sub(earlier.retries),
            crc_errors: self.crc_errors.saturating_sub(earlier.crc_errors),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            sync_fallbacks: self.sync_fallbacks.saturating_sub(earlier.sync_fallbacks),
            quarantines: self.quarantines.saturating_sub(earlier.quarantines),
            stall_cycles: self.stall_cycles.saturating_sub(earlier.stall_cycles),
            quarantined: self.quarantined,
        }
    }

    /// Adds another channel's counters (pool aggregation). A pool is
    /// "quarantined" here when *any* member channel is.
    pub fn merge(&mut self, other: &DmaHealth) {
        self.issued += other.issued;
        self.retries += other.retries;
        self.crc_errors += other.crc_errors;
        self.timeouts += other.timeouts;
        self.sync_fallbacks += other.sync_fallbacks;
        self.quarantines += other.quarantines;
        self.stall_cycles += other.stall_cycles;
        self.quarantined |= other.quarantined;
    }

    /// Faults observed (CRC rejects + timeouts) — the serving layer's
    /// backpressure signal.
    pub fn faults(&self) -> u64 {
        self.crc_errors + self.timeouts
    }
}

/// What [`DmaChannel::issue`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IssueOutcome {
    /// Host stall charged before the descriptor could enter the queue
    /// (backpressure on a full queue), in cycles.
    pub backpressure_stall: u64,
    /// `Some(record_id)` when the transfer went over the channel
    /// (0 when no recorder is armed); `None` when the channel
    /// quarantined and the caller must take the synchronous path.
    pub channel_record: Option<u64>,
}

/// One per-array DMA channel engine: a serial burst port with its own
/// cycle clock, a bounded in-flight queue, the fault unit, and an
/// optional op-trace lane.
///
/// All clocks live in the owning machine's *timeline* domain
/// (`compute + host I/O + stall cycles`); the channel pauses while its
/// array is parked at a pool barrier, a deliberately conservative
/// overlap model that keeps the pool's critical-path == wall-clock
/// invariant exact.
#[derive(Debug, Clone)]
pub(crate) struct DmaChannel {
    fault: DmaFaultUnit,
    /// Channel clock: when the engine finishes everything issued.
    busy_until: u64,
    /// Latest [`TransferKind::StripIn`] completion: what
    /// [`run_program`] stalls on. Outbound completions advance only
    /// [`DmaChannel::busy_until`] (drained at a settle point).
    ///
    /// [`run_program`]: crate::PimMachine::run_program
    in_done: u64,
    /// Completion times of in-flight descriptors (bounded queue).
    inflight: VecDeque<u64>,
    /// Descriptor sequence counter.
    seq: u64,
    /// Consecutive descriptors that needed at least one retry.
    consecutive_faulted: u32,
    health: DmaHealth,
    recorder: Option<OpRecorder>,
}

impl DmaChannel {
    pub(crate) fn new() -> Self {
        DmaChannel {
            fault: DmaFaultUnit::new(DmaFaultModel::none()),
            busy_until: 0,
            in_done: 0,
            inflight: VecDeque::new(),
            seq: 0,
            consecutive_faulted: 0,
            health: DmaHealth::default(),
            recorder: None,
        }
    }

    pub(crate) fn set_fault(&mut self, model: DmaFaultModel) {
        self.fault = DmaFaultUnit::new(model);
    }

    pub(crate) fn reseed(&mut self, salt: u64) {
        self.fault.reseed(salt);
    }

    pub(crate) fn health(&self) -> DmaHealth {
        self.health
    }

    pub(crate) fn is_quarantined(&self) -> bool {
        self.health.quarantined
    }

    /// Lifts a quarantine (rehabilitation after a scrub / operator
    /// action); the fault counters and RNG stream are untouched.
    pub(crate) fn rehabilitate(&mut self) {
        self.health.quarantined = false;
        self.consecutive_faulted = 0;
    }

    /// Counts a transfer that bypassed the channel onto the
    /// synchronous port.
    pub(crate) fn note_sync_fallback(&mut self) {
        self.health.sync_fallbacks += 1;
    }

    /// Cycle the compute stream must reach before inbound data is
    /// usable.
    pub(crate) fn in_done(&self) -> u64 {
        self.in_done
    }

    /// Cycle at which the channel engine is fully idle.
    pub(crate) fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Drops completion bookkeeping up to `now` (the owning machine
    /// advanced past it).
    pub(crate) fn observe(&mut self, now: u64) {
        while self.inflight.front().is_some_and(|&t| t <= now) {
            self.inflight.pop_front();
        }
    }

    /// Rebases the channel clocks to a fresh timeline epoch (the owning
    /// machine reset its statistics). Health, quarantine state, the
    /// descriptor sequence and the fault stream all persist.
    pub(crate) fn reset_clocks(&mut self) {
        self.busy_until = 0;
        self.in_done = 0;
        self.inflight.clear();
    }

    pub(crate) fn arm_recorder(&mut self, stream: u16, array: u16, capacity: usize) {
        self.recorder = Some(OpRecorder::with_stream(stream, array, capacity));
    }

    pub(crate) fn disarm_recorder(&mut self) {
        self.recorder = None;
    }

    pub(crate) fn recorder_mut(&mut self) -> Option<&mut OpRecorder> {
        self.recorder.as_mut()
    }

    /// Books machine stall cycles attributed to this channel
    /// (backpressure and settle waits) into the health counters.
    pub(crate) fn add_stall(&mut self, cycles: u64) {
        self.health.stall_cycles += cycles;
    }

    /// Issues one descriptor at machine-timeline `now`. `machine_tail`
    /// is the issuing stream's last record id (the cross-stream
    /// ordering edge). Resolves the whole retry ladder up front —
    /// deterministically, from the seeded fault stream — and returns
    /// what the *caller* must charge; the channel clock, queue, health
    /// and trace lane are updated here.
    pub(crate) fn issue(
        &mut self,
        now: u64,
        machine_tail: u64,
        kind: TransferKind,
        row: u32,
        payload: &[u8],
        cost: &CostModel,
    ) -> IssueOutcome {
        if self.health.quarantined {
            self.note_sync_fallback();
            return IssueOutcome {
                backpressure_stall: 0,
                channel_record: None,
            };
        }

        // backpressure: a full queue stalls the host until the oldest
        // in-flight descriptor completes
        self.observe(now);
        let mut stall = 0;
        while self.inflight.len() >= QUEUE_DEPTH {
            let head = self.inflight.pop_front().expect("non-empty");
            stall = stall.max(head.saturating_sub(now));
        }
        let now = now + stall;

        let desc = TransferDescriptor::new(kind, row, self.seq, payload);
        self.seq += 1;
        self.health.issued += 1;

        // resolve the retry ladder: each attempt draws one fault, a
        // failed attempt costs its detection latency plus exponential
        // backoff, and the descriptor either lands or exhausts its
        // retry budget
        let wire = cost.transfer_cycles(payload.len() as u64);
        let payload_bits = (payload.len() as u64) * 8;
        let mut engine_cycles = 0u64;
        let mut faulted = false;
        let mut delivered = false;
        for attempt in 0..=MAX_RETRIES {
            match self.fault.draw(payload_bits) {
                Attempt::Ok => {
                    engine_cycles += wire;
                    delivered = true;
                    break;
                }
                Attempt::Flip { bit } => {
                    // corrupt a copy in flight and let the CRC reject
                    // it — CRC-32 catches every short burst error, so
                    // a flipped payload can never be accepted
                    let mut dirty = payload.to_vec();
                    if !dirty.is_empty() {
                        dirty[(bit / 8) as usize] ^= 1 << (bit % 8);
                    }
                    debug_assert!(
                        dirty.is_empty() || !desc.verify(&dirty),
                        "CRC must reject a flipped payload"
                    );
                    self.health.crc_errors += 1;
                    engine_cycles += wire;
                }
                Attempt::Stall | Attempt::Drop => {
                    self.health.timeouts += 1;
                    engine_cycles += TIMEOUT_CYCLES;
                }
            }
            faulted = true;
            self.health.retries += 1;
            engine_cycles += BACKOFF_BASE_CYCLES << attempt;
        }

        if faulted {
            self.consecutive_faulted += 1;
        } else {
            self.consecutive_faulted = 0;
        }
        if !delivered || self.consecutive_faulted >= QUARANTINE_AFTER {
            // end of the ladder: quarantine the channel; this
            // descriptor (and everything after it) degrades to the
            // synchronous port
            self.health.quarantined = true;
            self.health.quarantines += 1;
            if !delivered {
                self.health.retries = self.health.retries.saturating_sub(1);
                self.note_sync_fallback();
                return IssueOutcome {
                    backpressure_stall: stall,
                    channel_record: None,
                };
            }
        }

        let start = self.busy_until.max(now);
        let done = start + engine_cycles;
        self.busy_until = done;
        // outbound reads are drained only at a settle point, never at
        // run_program entry — that window is the compute/transfer overlap
        if kind.is_inbound() {
            self.in_done = self.in_done.max(done);
        }
        self.inflight.push_back(done);

        let id = match &mut self.recorder {
            Some(rec) => {
                let op = if kind.is_inbound() {
                    OpKind::DmaIn
                } else {
                    OpKind::DmaOut
                };
                let serial = rec.tail();
                let (rows, dst) = if kind.is_inbound() {
                    ([NO_ROW, NO_ROW], row)
                } else {
                    ([row, NO_ROW], NO_ROW)
                };
                rec.record_explicit(
                    op,
                    [serial, machine_tail, 0],
                    start,
                    engine_cycles,
                    rows,
                    dst,
                    payload.len() as u32,
                )
            }
            None => 0,
        };
        IssueOutcome {
            backpressure_stall: stall,
            channel_record: Some(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn descriptor_crc_rejects_any_flip() {
        let payload = [0x5Au8; 64];
        let d = TransferDescriptor::new(TransferKind::StripIn, 7, 3, &payload);
        assert!(d.verify(&payload));
        for bit in [0usize, 17, 255, 511] {
            let mut dirty = payload;
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert!(!d.verify(&dirty), "flip at bit {bit} must be caught");
        }
        // header corruption (wrong row) is caught too
        let other = TransferDescriptor::new(TransferKind::StripIn, 8, 3, &payload);
        assert_ne!(d.crc, other.crc);
    }

    #[test]
    fn descriptor_crc_is_the_one_shot_crc_of_payload_then_header() {
        let payload: Vec<u8> = (0..96u8).map(|i| i.wrapping_mul(29)).collect();
        let d = TransferDescriptor::new(TransferKind::StripOut, 11, 9, &payload);
        let mut wire = payload.clone();
        wire.extend_from_slice(&d.header_bytes());
        assert_eq!(d.crc, crc32(0, &wire));
    }

    #[test]
    fn fault_free_channel_overlaps_and_counts() {
        let mut ch = DmaChannel::new();
        let c = cost();
        let payload = [0u8; 320];
        let o = ch.issue(0, 0, TransferKind::StripIn, 4, &payload, &c);
        assert_eq!(o.backpressure_stall, 0);
        assert!(o.channel_record.is_some());
        assert_eq!(ch.in_done(), c.transfer_cycles(320));
        assert_eq!(ch.health().issued, 1);
        assert_eq!(ch.health().retries, 0);
        // a second descriptor queues behind the first on the engine
        ch.issue(1, 0, TransferKind::StripIn, 5, &payload, &c);
        assert_eq!(ch.in_done(), 2 * c.transfer_cycles(320));
    }

    #[test]
    fn full_queue_backpressures() {
        let mut ch = DmaChannel::new();
        let c = cost();
        let payload = [0u8; 320];
        let w = c.transfer_cycles(320);
        for row in 0..QUEUE_DEPTH as u32 {
            let o = ch.issue(0, 0, TransferKind::StripIn, row, &payload, &c);
            assert_eq!(o.backpressure_stall, 0, "queue slot {row} is free");
        }
        let o = ch.issue(0, 0, TransferKind::StripIn, 9, &payload, &c);
        assert_eq!(o.backpressure_stall, w, "must wait for the oldest");
    }

    #[test]
    fn quarantined_channel_degrades_to_sync() {
        let mut ch = DmaChannel::new();
        ch.health.quarantined = true;
        let o = ch.issue(0, 0, TransferKind::StripIn, 0, &[0u8; 8], &cost());
        assert_eq!(o.channel_record, None);
        assert_eq!(ch.health().sync_fallbacks, 1);
        ch.rehabilitate();
        assert!(!ch.is_quarantined());
        let o = ch.issue(0, 0, TransferKind::StripIn, 0, &[0u8; 8], &cost());
        assert!(o.channel_record.is_some());
    }

    #[test]
    fn fault_stream_is_deterministic_and_reseed_forks() {
        let run = |salt: Option<u64>| {
            let mut ch = DmaChannel::new();
            ch.set_fault(DmaFaultModel::new(42, 0.2, 0.1, 0.05));
            if let Some(s) = salt {
                ch.reseed(s);
            }
            let c = cost();
            let mut now = 0;
            for i in 0..200 {
                let o = ch.issue(now, 0, TransferKind::StripIn, i % 32, &[1u8; 64], &c);
                now += o.backpressure_stall + 1;
            }
            (ch.health(), ch.busy_until())
        };
        assert_eq!(run(None), run(None));
        assert_ne!(run(None), run(Some(3)));
        let (h, _) = run(None);
        assert!(h.crc_errors > 0 && h.timeouts > 0, "rates must fire: {h:?}");
        // every failed attempt books one retry and one crc/timeout
        // counter; the one undeliverable descriptor per quarantine is
        // credited back
        assert!(h.retries + h.quarantines >= h.crc_errors + h.timeouts);
    }

    #[test]
    fn always_failing_channel_quarantines_within_its_ladder() {
        // stall rate ~1: every attempt times out; the first descriptor
        // exhausts MAX_RETRIES and the channel quarantines instead of
        // hanging
        let mut ch = DmaChannel::new();
        ch.set_fault(DmaFaultModel::new(1, 0.0, 0.99, 0.0));
        let o = ch.issue(0, 0, TransferKind::StripIn, 0, &[0u8; 320], &cost());
        assert_eq!(o.channel_record, None, "undeliverable → sync fallback");
        assert!(ch.is_quarantined());
        let h = ch.health();
        assert_eq!(h.quarantines, 1);
        assert_eq!(
            h.timeouts,
            1 + u64::from(MAX_RETRIES),
            "1 + MAX_RETRIES attempts, all timed out"
        );
        assert_eq!(h.sync_fallbacks, 1);
        // bounded detection: the whole ladder costs at most
        // (1 + retries) × timeout + total backoff
        assert!(ch.busy_until() == 0, "nothing ever entered the engine");
    }

    #[test]
    fn consecutive_faulted_descriptors_trip_quarantine() {
        // flip rate 0.5: half the descriptors need a retry and one in 16
        // exhausts its retries; a delivered descriptor quarantines the
        // channel exactly when it ends a run of QUARANTINE_AFTER faulted
        // ones. Each quarantine is lifted so the run starts over.
        let mut ch = DmaChannel::new();
        ch.set_fault(DmaFaultModel::new(9, 0.5, 0.0, 0.0));
        let c = cost();
        let (mut now, mut run, mut tripped) = (0, 0, 0);
        for i in 0..20_000 {
            let retries = ch.health().retries;
            let o = ch.issue(now, 0, TransferKind::StripIn, i % 64, &[2u8; 64], &c);
            now += o.backpressure_stall + 50;
            run = if ch.health().retries > retries {
                run + 1
            } else {
                0
            };
            if o.channel_record.is_some() {
                let due = run >= QUARANTINE_AFTER;
                assert_eq!(ch.is_quarantined(), due, "descriptor {i}, run {run}");
                tripped += u32::from(due);
            } else {
                assert!(ch.is_quarantined(), "undeliverable descriptor {i}");
            }
            if ch.is_quarantined() {
                ch.rehabilitate();
                run = 0;
            }
        }
        assert!(
            tripped > 0,
            "no run of {QUARANTINE_AFTER} faulted descriptors"
        );
        assert!(ch.health().crc_errors > 0);
    }
}

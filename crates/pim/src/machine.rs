use crate::config::{ArrayConfig, LaneWidth, Signedness};
use crate::cost::CostModel;
use crate::dma::{DmaChannel, DmaConfig, DmaFaultModel, DmaHealth, TransferKind};
use crate::fault::{FaultModel, FaultStatus, FaultUnit, Protection};
use crate::isa::{AluOp, LogicFunc, Operand, Shift};
use crate::lower::{LaneClass, LoweredOp, LoweredProgram, MachineInstr};
use crate::optrace::OpRecorder;
use crate::stats::ExecStats;
use pimvo_telemetry::optrace::{OpKind, OpTrace};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shr};

/// Error returned by the fallible API of [`PimMachine`] and
/// [`crate::PimArrayPool`].
///
/// Every macro-op that can address a bad row or an empty register
/// returns `Result<_, PimError>`, so runtime-reachable paths (host-fed
/// geometry, pool dispatch) propagate errors instead of crashing the
/// tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PimError {
    /// A row index exceeds the array geometry.
    RowOutOfRange {
        /// Offending row index.
        row: usize,
        /// Number of rows in the array.
        rows: usize,
    },
    /// More lane values were supplied than fit in a word line.
    TooManyLanes {
        /// Number of values supplied.
        got: usize,
        /// Lanes available at the current width.
        lanes: usize,
    },
    /// The Tmp Reg was consumed before any compute op wrote it.
    TmpEmpty,
    /// `Operand::Reg(0)` / `save_tmp(0)` — register 0 is the implicit
    /// result register, addressed as [`Operand::Tmp`].
    RegisterZero,
    /// An extra register index beyond the enabled count was addressed.
    RegisterNotEnabled {
        /// Offending register index.
        idx: u8,
        /// Registers currently enabled (including the implicit Tmp).
        enabled: u8,
    },
    /// An extra register was read before being written.
    RegisterEmpty {
        /// Offending register index.
        idx: u8,
    },
    /// Every array of a pool has been quarantined; no healthy array is
    /// left to dispatch a shard to.
    AllArraysQuarantined {
        /// Total arrays in the pool.
        arrays: usize,
    },
    /// An array index exceeds the pool size (a host-driven quarantine
    /// or lift addressed a non-existent array).
    ArrayOutOfRange {
        /// Offending array index.
        index: usize,
        /// Arrays in the pool.
        arrays: usize,
    },
    /// Per-array input (a pool snapshot or strip programs) describes a
    /// different number of arrays than the pool it is applied to.
    PoolSizeMismatch {
        /// Arrays described by the input.
        got: usize,
        /// Arrays in this pool.
        expected: usize,
    },
    /// A row remap was requested but every reserved spare row is
    /// already consumed — the array cannot be rehabilitated further.
    SpareRowsExhausted {
        /// Spare rows reserved at construction.
        spares: usize,
    },
    /// An instruction computes on unsigned 64-bit operands. The
    /// machine's `i64` lanes cannot order values of 2^63 and above, so
    /// it rejects the instruction before charging it.
    UnsignedW64,
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (array has {rows} rows)")
            }
            PimError::TooManyLanes { got, lanes } => {
                write!(
                    f,
                    "{got} lane values supplied but only {lanes} lanes available"
                )
            }
            PimError::TmpEmpty => {
                write!(f, "Tmp Reg used before being written")
            }
            PimError::RegisterZero => {
                write!(
                    f,
                    "register 0 is the implicit result register (Operand::Tmp)"
                )
            }
            PimError::RegisterNotEnabled { idx, enabled } => {
                write!(
                    f,
                    "register {idx} not enabled (call set_tmp_regs; {enabled} enabled)"
                )
            }
            PimError::RegisterEmpty { idx } => {
                write!(f, "register {idx} read before being written")
            }
            PimError::AllArraysQuarantined { arrays } => {
                write!(f, "all {arrays} pool arrays are quarantined")
            }
            PimError::ArrayOutOfRange { index, arrays } => {
                write!(f, "array {index} out of range (pool has {arrays} arrays)")
            }
            PimError::PoolSizeMismatch { got, expected } => {
                write!(
                    f,
                    "input describes {got} arrays but the pool has {expected}"
                )
            }
            PimError::SpareRowsExhausted { spares } => {
                write!(f, "all {spares} spare rows are already remapped")
            }
            PimError::UnsignedW64 => {
                write!(f, "unsigned compute on 64-bit operands is not supported")
            }
        }
    }
}

impl std::error::Error for PimError {}

/// The bit-parallel SRAM-PIM machine: array storage, Tmp Reg, lane
/// configuration and cycle/energy bookkeeping.
///
/// The machine computes only lowered instructions ([`MachineInstr`]):
/// whole programs through [`PimMachine::run_program`], one instruction
/// at a time through [`PimMachine::execute`]. Every compute instruction
/// places its result in the Tmp Reg; a [`MachineInstr::Writeback`]
/// persists it to an SRAM row (costing the extra cycle the paper's
/// timing model prescribes). Host-side methods (`host_*`, `gather`)
/// model the I/O port and are tracked separately from compute
/// statistics.
///
/// A bad row index, an empty register or unsigned 64-bit operands make
/// an instruction return [`PimError`] instead of panicking; the
/// instructions before the failure stay charged.
#[derive(Debug, Clone)]
pub struct PimMachine {
    config: ArrayConfig,
    cost: CostModel,
    /// Physical row storage, one contiguous zeroed buffer of
    /// `config.row_bytes()`-byte rows: `config.rows` logical rows
    /// followed by `spare_rows` reserved spares for defect remapping.
    cells: Vec<u8>,
    /// Spare physical rows reserved beyond the logical geometry.
    spare_rows: usize,
    /// Spares consumed by remaps so far.
    spares_used: usize,
    /// Logical → physical row remap table; empty (identity) until a
    /// persistent defect is remapped to a spare.
    remap: BTreeMap<usize, usize>,
    /// The Tmp Reg, the extra registers and the interpreter's lane
    /// buffers, once per lane element type (see [`Banks`]).
    banks: Banks,
    /// Logical bit width of the Tmp Reg contents (doubles after `mul`).
    tmp_bits: u32,
    width: LaneWidth,
    sign: Signedness,
    stats: ExecStats,
    /// Dependency-tracked op-record ring (flight-recorder producer).
    /// `None` (the default) keeps every hook to a single branch; see
    /// [`PimMachine::arm_op_recorder`].
    op_recorder: Option<Box<OpRecorder>>,
    fault: FaultUnit,
    /// Optional host↔array DMA channel engine; `None` (the default)
    /// keeps every host transfer on the synchronous port. See
    /// [`PimMachine::set_dma`] and [`crate::dma`].
    dma: Option<Box<DmaChannel>>,
}

/// Fluent constructor for [`PimMachine`], replacing the historical
/// `new` + post-hoc `set_lanes`/`set_tmp_regs` dance with one
/// declarative description of the array:
///
/// ```
/// use pimvo_pim::{ArrayConfig, LaneWidth, PimMachineBuilder, Signedness};
///
/// let m = PimMachineBuilder::new(ArrayConfig::qvga())
///     .lanes(LaneWidth::W16, Signedness::Signed)
///     .tmp_regs(2)
///     .build();
/// assert_eq!(m.tmp_reg_count(), 2);
/// ```
///
/// [`crate::PimArrayPool`] construction reuses the same builder, so a
/// pool's member arrays are guaranteed to be configured identically.
#[derive(Debug, Clone)]
pub struct PimMachineBuilder {
    config: ArrayConfig,
    cost: CostModel,
    width: LaneWidth,
    sign: Signedness,
    tmp_regs: u8,
    fault: FaultModel,
    protection: Protection,
    spare_rows: usize,
    dma: Option<DmaConfig>,
}

impl PimMachineBuilder {
    /// Starts a builder with the paper's defaults: 90 nm cost model,
    /// 8-bit unsigned lanes, one Tmp register.
    pub fn new(config: ArrayConfig) -> Self {
        PimMachineBuilder {
            config,
            cost: CostModel::default(),
            width: LaneWidth::W8,
            sign: Signedness::Unsigned,
            tmp_regs: 1,
            fault: FaultModel::none(),
            protection: Protection::None,
            spare_rows: 0,
            dma: None,
        }
    }

    /// Uses an explicit cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the initial lane width and signedness.
    pub fn lanes(mut self, width: LaneWidth, sign: Signedness) -> Self {
        self.width = width;
        self.sign = sign;
        self
    }

    /// Enables `n` temporary registers (1..=8; see
    /// [`PimMachine::set_tmp_regs`]).
    pub fn tmp_regs(mut self, n: u8) -> Self {
        assert!((1..=8).contains(&n), "1..=8 temporary registers");
        self.tmp_regs = n;
        self
    }

    /// Plugs in a [`FaultModel`]. The default is [`FaultModel::none`].
    /// Pool member arrays stamped from this builder fork the model's
    /// fault stream per array index (see [`PimMachine::reseed_faults`]).
    pub fn fault(mut self, model: FaultModel) -> Self {
        self.fault = model;
        self
    }

    /// Selects a word [`Protection`] mode (parity / ECC). Protected
    /// compute accesses charge check/correction overhead through the
    /// cost model; the default [`Protection::None`] is free.
    pub fn protection(mut self, p: Protection) -> Self {
        self.protection = p;
        self
    }

    /// Reserves `n` spare physical rows beyond the logical geometry for
    /// defect remapping (see [`PimMachine::remap_row`]). The default is
    /// zero: no spares, no remap table, the historical behaviour.
    pub fn spare_rows(mut self, n: usize) -> Self {
        self.spare_rows = n;
        self
    }

    /// Installs a host↔array DMA channel (see [`crate::dma`]). The
    /// default is no channel: synchronous host I/O, the historical
    /// behaviour.
    pub fn dma(mut self, cfg: DmaConfig) -> Self {
        self.dma = Some(cfg);
        self
    }

    /// Constructs the machine. The builder is reusable (`&self`), which
    /// is what lets a pool stamp out N identical arrays.
    pub fn build(&self) -> PimMachine {
        let row_bytes = self.config.row_bytes();
        let mut m = PimMachine {
            config: self.config.clone(),
            cost: self.cost.clone(),
            cells: vec![0u8; (self.config.rows + self.spare_rows) * row_bytes],
            spare_rows: self.spare_rows,
            spares_used: 0,
            remap: BTreeMap::new(),
            // a W8 row has the most lanes: one per byte
            banks: Banks::new(row_bytes),
            tmp_bits: 8,
            width: self.width,
            sign: self.sign,
            stats: ExecStats::new(),
            op_recorder: None,
            fault: FaultUnit::new(self.fault.clone(), self.protection),
            dma: None,
        };
        m.set_tmp_regs(self.tmp_regs);
        m.set_dma(self.dma);
        m
    }
}

impl PimMachine {
    /// Creates a machine with the default 90 nm cost model.
    pub fn new(config: ArrayConfig) -> Self {
        PimMachineBuilder::new(config).build()
    }

    /// Starts a [`PimMachineBuilder`] for this geometry.
    pub fn builder(config: ArrayConfig) -> PimMachineBuilder {
        PimMachineBuilder::new(config)
    }

    /// Array geometry.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The machine-local end-to-end clock: compute cycles plus host-I/O
    /// and DMA-stall cycles. [`ExecStats::cycles`] stays compute-only so
    /// the paper's per-kernel metrics are untouched; the timeline is
    /// what host transfers, DMA channels and the op-trace streams
    /// advance on, and what pool wall-clock accounting watermarks.
    pub fn timeline(&self) -> u64 {
        self.stats.cycles + self.stats.host_io_cycles + self.stats.dma_stall_cycles
    }

    /// Resets the statistics (array contents are preserved). Any DMA
    /// channel's clocks rebase to the new (zeroed) timeline epoch; its
    /// health counters, quarantine state and fault stream persist.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::new();
        if let Some(ch) = &mut self.dma {
            ch.reset_clocks();
        }
    }

    /// Retracts previously recorded statistics. Used when a traced
    /// stage is physically shared by multiple logical batches (e.g.
    /// two 80-feature half-batches packing one 160-lane word line pay
    /// the Hessian stage once): the shared fraction is credited back.
    pub fn retract_stats(&mut self, delta: &ExecStats) {
        self.stats.retract(delta);
    }

    // ------------------------------------------------------------------
    // Op-record ring (flight-recorder producer)
    // ------------------------------------------------------------------

    /// Arms the dependency-tracked op-record ring: subsequent macro-ops,
    /// host transfers and maintenance steps each emit one
    /// [`pimvo_telemetry::optrace::OpRecord`] into a bounded ring
    /// (`capacity` records, oldest dropped and counted). `stream` is
    /// the array index used to namespace record ids and stamped on each
    /// record. Row edges are tracked for the machine's logical rows
    /// ([`ArrayConfig::rows`]). Off by default; recording never changes
    /// simulated results, cycles or energy.
    pub fn arm_op_recorder(&mut self, stream: u16, capacity: usize) {
        self.op_recorder = Some(Box::new(OpRecorder::new(
            stream,
            capacity,
            self.config.rows,
        )));
    }

    /// Disarms the op-record ring, discarding buffered records.
    pub fn disarm_op_recorder(&mut self) {
        self.op_recorder = None;
    }

    /// The armed op recorder, if any.
    pub fn op_recorder(&self) -> Option<&OpRecorder> {
        self.op_recorder.as_deref()
    }

    /// Mutable access to the armed op recorder (session/label stamping
    /// and pool sync-point plumbing).
    pub fn op_recorder_mut(&mut self) -> Option<&mut OpRecorder> {
        self.op_recorder.as_deref_mut()
    }

    /// Hands off the buffered op records (the recorder stays armed;
    /// ids remain unique across drains). `None` when not armed.
    pub fn drain_op_trace(&mut self) -> Option<OpTrace> {
        self.op_recorder.as_deref_mut().map(OpRecorder::drain)
    }

    /// Emission hook shared by every cycle-charging site: one branch
    /// when unarmed. `start` is the pre-charge *compute* cycle counter,
    /// so the record's cycles are exactly the site's `ExecStats` delta;
    /// the stored start stamp is shifted into the timeline domain
    /// (compute + host I/O + stalls) so machine-stream records share a
    /// clock with the DMA lanes. Sites must not charge host-I/O or
    /// stall cycles between capturing `start` and calling this (host
    /// transfers have their own emission paths). Multi-step follow-ups
    /// fold in via [`PimMachine::extend_record`].
    #[inline]
    fn record_op(
        &mut self,
        kind: OpKind,
        reads: &[u32],
        writes: &[u32],
        start: u64,
        sram: u32,
        size: u32,
    ) {
        if let Some(rec) = &mut self.op_recorder {
            let cycles = self.stats.cycles - start;
            let io = self.stats.host_io_cycles + self.stats.dma_stall_cycles;
            rec.record(kind, reads, writes, start + io, cycles, sram, size);
        }
    }

    /// Merges externally modeled statistics into the machine's
    /// counters (e.g. the extra staging cost of a deliberately naive
    /// schedule, derived analytically from the op sequence).
    pub fn merge_extra_stats(&mut self, delta: &ExecStats) {
        self.stats.merge(delta);
    }

    // ------------------------------------------------------------------
    // Fault model & word protection
    // ------------------------------------------------------------------

    /// The word [`Protection`] mode in effect.
    pub fn protection(&self) -> Protection {
        self.fault.protection()
    }

    /// Switches the word protection mode (parity / ECC) at run time.
    pub fn set_protection(&mut self, p: Protection) {
        self.fault.set_protection(p);
    }

    /// The configured [`FaultModel`].
    pub fn fault_model(&self) -> &FaultModel {
        self.fault.model()
    }

    /// Replaces the fault model, restarting its deterministic stream.
    /// Counters ([`PimMachine::fault_status`]) are preserved.
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.fault.set_model(model);
    }

    /// Cumulative fault counters: flips observed by the datapath,
    /// ECC-corrected words, and detected-but-uncorrected words.
    pub fn fault_status(&self) -> FaultStatus {
        self.fault.status()
    }

    /// Clears the fault counters and the per-row syndrome log.
    pub fn reset_fault_status(&mut self) {
        self.fault.reset_status();
    }

    /// Detected (uncorrected) error events per row — the syndrome log a
    /// memory controller keeps. Repeated detections on one row are the
    /// pool's evidence of a persistent stuck-at defect (vs. a transient
    /// upset storm), and drive its quarantine decision.
    pub fn fault_row_log(&self) -> &BTreeMap<usize, u64> {
        self.fault.row_log()
    }

    /// Forks the transient-fault stream with `salt`, so pool member
    /// arrays stamped from one builder observe independent fault
    /// patterns. Deterministic: the same salt reproduces the same
    /// stream. A no-op for the inert default model.
    pub fn reseed_faults(&mut self, salt: u64) {
        self.fault.reseed(salt);
    }

    /// Injects a persistent stuck-at cell fault at (`row`, `bit`).
    pub fn inject_stuck_bit(&mut self, row: usize, bit: usize, value: bool) {
        self.fault.add_stuck_bit(row, bit, value);
    }

    // ------------------------------------------------------------------
    // Spare rows, remapping & scrub (self-healing maintenance port)
    // ------------------------------------------------------------------

    /// Spare physical rows reserved at construction
    /// ([`PimMachineBuilder::spare_rows`]).
    pub fn spare_rows(&self) -> usize {
        self.spare_rows
    }

    /// Spare rows not yet consumed by a remap.
    pub fn spares_available(&self) -> usize {
        self.spare_rows - self.spares_used
    }

    /// Number of logical rows currently remapped to spares.
    pub fn remapped_rows(&self) -> usize {
        self.remap.len()
    }

    /// Remaps logical `row` to the next free spare physical row,
    /// migrating the current raw cell contents (one read + one write
    /// cycle on the maintenance port). Faults are physical: stuck bits
    /// stay with the defective row, so the remapped logical row escapes
    /// them. Remapping an already-remapped row allocates a fresh spare
    /// and abandons the defective one. Returns the physical spare index.
    ///
    /// # Errors
    ///
    /// [`PimError::RowOutOfRange`] for a bad logical row,
    /// [`PimError::SpareRowsExhausted`] when every spare is consumed.
    pub fn remap_row(&mut self, row: usize) -> Result<usize, PimError> {
        self.check_row(row)?;
        if self.spares_used >= self.spare_rows {
            return Err(PimError::SpareRowsExhausted {
                spares: self.spare_rows,
            });
        }
        let spare = self.config.rows + self.spares_used;
        self.spares_used += 1;
        let old = self.row_span(self.phys_row(row));
        self.cells.copy_within(old, spare * self.config.row_bytes());
        self.remap.insert(row, spare);
        self.stats.cycles += 2;
        self.stats.sram_reads += 1;
        self.stats.sram_writes += 1;
        // maintenance-port work runs concurrently with foreground
        // phases and is never charged to the pool wall clock, so the
        // record carries zero DAG weight (true cost: ExecStats)
        let start = self.stats.cycles;
        let r = row as u32;
        self.record_op(OpKind::Remap, &[r], &[r], start, 2, 1);
        Ok(spare)
    }

    /// One scrub (march-test) step: writes `pattern` into every byte of
    /// logical `row` and reads it back through the *persistent* (DC)
    /// component of the fault model, reporting whether the readback
    /// matched. Transient upsets, protection and the syndrome log are
    /// deliberately untouched — a scrub pass never perturbs the
    /// deterministic transient fault stream. Destroys the row contents.
    /// Charged at [`CostModel::scrub_row_cycles`] /
    /// [`CostModel::scrub_row_pj`] via [`ExecStats::scrub_rows`].
    ///
    /// # Errors
    ///
    /// [`PimError::RowOutOfRange`] for a bad logical row.
    pub fn scrub_row(&mut self, row: usize, pattern: u8) -> Result<bool, PimError> {
        self.check_row(row)?;
        let phys = self.phys_row(row);
        let span = self.row_span(phys);
        self.cells[span.clone()].fill(pattern);
        let mut data = self.cells[span].to_vec();
        self.fault.apply_stuck_raw(phys, &mut data);
        self.stats.scrub_rows += 1;
        self.stats.cycles += self.cost.scrub_row_cycles;
        // like remap: concurrent maintenance, zero DAG weight so the
        // critical path keeps matching the pool wall clock
        let start = self.stats.cycles;
        self.record_op(OpKind::Scrub, &[], &[row as u32], start, 0, 1);
        Ok(data.iter().all(|&b| b == pattern))
    }

    /// Charges a verify-on-read patrol over `rows` rows: one
    /// ECC-strength syndrome re-check per row, the probation mode of
    /// the pool's rehabilitation pass
    /// ([`crate::PimArrayPool::scrub_now`]). Pure accounting — array
    /// contents are not touched.
    pub fn charge_verify_patrol(&mut self, rows: u64) {
        self.stats.ecc_checks += rows;
        let cycle_start = self.stats.cycles;
        self.stats.cycles += self.cost.ecc_check_cycles * rows;
        self.record_op(OpKind::Patrol, &[], &[], cycle_start, 0, rows as u32);
    }

    /// Configures lane width and signedness for subsequent operations
    /// (run-time carry control, Fig. 6-c). Free: the carry masks are set
    /// by the instruction word.
    pub fn set_lanes(&mut self, width: LaneWidth, sign: Signedness) {
        self.width = width;
        self.sign = sign;
    }

    /// Enables `n` temporary registers (the paper's §5.4 scaling knob;
    /// the baseline design has one). Register 0 is the implicit result
    /// register ([`Operand::Tmp`]); registers 1..n are addressed with
    /// [`Operand::Reg`] after being filled by [`MachineInstr::SaveTmp`].
    ///
    /// # Panics
    ///
    /// Panics for `n == 0` or `n > 8` (the datapath mux width bounds a
    /// realistic register count).
    pub fn set_tmp_regs(&mut self, n: u8) {
        assert!((1..=8).contains(&n), "1..=8 temporary registers");
        self.banks
            .wide
            .regs
            .resize((n - 1) as usize, (Vec::new(), 8));
    }

    /// Number of temporary registers (≥ 1).
    pub fn tmp_reg_count(&self) -> u8 {
        1 + self.banks.wide.regs.len() as u8
    }

    /// Current lane width.
    pub fn lane_width(&self) -> LaneWidth {
        self.width
    }

    /// Current signedness.
    pub fn signedness(&self) -> Signedness {
        self.sign
    }

    /// Number of lanes at the current width.
    pub fn lanes(&self) -> usize {
        self.config.lanes(self.width)
    }

    // ------------------------------------------------------------------
    // Host I/O (host↔array burst port; costed on the timeline, never on
    // the compute cycle/energy budget)
    // ------------------------------------------------------------------

    /// Routes one host transfer: over the DMA channel when one is
    /// installed and healthy, else the synchronous port. All transfer
    /// accounting (row/byte counters, stall or PIO cycles, op records)
    /// happens here. `payload` is the wire image of the moved bytes —
    /// the CRC a channel seals into its descriptor is computed over it;
    /// `size` keeps each op kind's historical record-size semantics
    /// (bytes for byte writes, lanes for lane writes/reads).
    fn host_transfer(&mut self, kind: TransferKind, row: u32, payload: &[u8], size: u32) {
        self.stats.host_io_rows += 1;
        self.stats.host_io_words += payload.len() as u64;
        // take() the channel so it can borrow the cost model while the
        // stats/recorder stay reachable
        if let Some(mut ch) = self.dma.take() {
            let now = self.timeline();
            let tail = self.op_recorder.as_deref().map_or(0, OpRecorder::tail);
            let out = ch.issue(now, tail, kind, row, payload, &self.cost);
            if out.backpressure_stall > 0 {
                self.stats.dma_stall_cycles += out.backpressure_stall;
                ch.add_stall(out.backpressure_stall);
                if let Some(rec) = &mut self.op_recorder {
                    // the stall serializes into the machine stream only
                    // (depping the channel record too would double-count
                    // the wait on the critical path)
                    rec.record(
                        OpKind::DmaStall,
                        &[],
                        &[],
                        now,
                        out.backpressure_stall,
                        0,
                        0,
                    );
                }
            }
            match out.channel_record {
                Some(id) => {
                    if kind.is_inbound() && id != 0 {
                        if let Some(rec) = &mut self.op_recorder {
                            // next compute read of this row picks up a
                            // cross-stream RAW edge onto the DmaIn record
                            rec.note_external_write(row, id);
                        }
                    }
                }
                // quarantined: graceful degradation to the synchronous
                // port (the channel already counted the fallback)
                None => self.host_transfer_sync(kind, row, payload.len() as u64, size),
            }
            self.dma = Some(ch);
        } else {
            self.host_transfer_sync(kind, row, payload.len() as u64, size);
        }
    }

    /// The synchronous (PIO) host port: blocks the timeline for the
    /// full modeled transfer. Same wires and same
    /// [`CostModel::transfer_cycles`] formula as the DMA channels —
    /// overlap, not a faster bus, is what a channel buys.
    fn host_transfer_sync(&mut self, kind: TransferKind, row: u32, bytes: u64, size: u32) {
        let start = self.timeline();
        let w = self.cost.transfer_cycles(bytes);
        self.stats.host_io_cycles += w;
        if let Some(rec) = &mut self.op_recorder {
            if kind.is_inbound() {
                rec.record(OpKind::HostWrite, &[], &[row], start, w, 0, size);
            } else {
                rec.record(OpKind::HostRead, &[row], &[], start, w, 0, size);
            }
        }
    }

    /// Writes raw bytes into a row through the host port.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::RowOutOfRange`] for a bad row index or
    /// [`PimError::TooManyLanes`] when `bytes` exceeds the row width.
    pub fn host_write_bytes(&mut self, row: usize, bytes: &[u8]) -> Result<(), PimError> {
        self.check_row(row)?;
        let rb = self.config.row_bytes();
        if bytes.len() > rb {
            return Err(PimError::TooManyLanes {
                got: bytes.len(),
                lanes: rb,
            });
        }
        let span = self.row_span(self.phys_row(row));
        let cells = &mut self.cells[span];
        cells[..bytes.len()].copy_from_slice(bytes);
        cells[bytes.len()..].fill(0);
        // data lands eagerly (above); the transfer model charges the
        // timing and seals the descriptor CRC over the wire image
        self.host_transfer(TransferKind::StripIn, row as u32, bytes, bytes.len() as u32);
        Ok(())
    }

    /// Writes lane values into a row at the current lane configuration.
    ///
    /// Values are wrapped to the lane width. Unfilled lanes become zero.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::RowOutOfRange`] for a bad row index or
    /// [`PimError::TooManyLanes`] when `values` exceeds the lane count —
    /// the same contract as [`PimMachine::host_write_bytes`].
    pub fn host_write_lanes(&mut self, row: usize, values: &[i64]) -> Result<(), PimError> {
        self.host_write_lanes_iter(row, values.iter().copied())
    }

    /// Writes lane values drawn from an iterator, exactly as
    /// [`PimMachine::host_write_lanes`] writes a slice of them: the
    /// values are encoded straight into the row's cells, so a caller
    /// converting pixels or feature fields on the fly stages nothing
    /// and allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`PimMachine::host_write_lanes`].
    pub fn host_write_lanes_iter<I>(&mut self, row: usize, values: I) -> Result<(), PimError>
    where
        I: IntoIterator<Item = i64>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let lanes = self.lanes();
        if values.len() > lanes {
            return Err(PimError::TooManyLanes {
                got: values.len(),
                lanes,
            });
        }
        self.host_write_encoded(row, values)
    }

    /// Fills every lane of a row with a constant (threshold rows etc.).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::RowOutOfRange`] for a bad row index.
    pub fn host_broadcast(&mut self, row: usize, value: i64) -> Result<(), PimError> {
        let lanes = self.lanes();
        self.host_write_encoded(row, std::iter::repeat_n(value, lanes))
    }

    /// Encodes lane values straight into a row's cells (unfilled lanes
    /// become zero) and transfers them, the row's own bytes serving as
    /// the wire image.
    fn host_write_encoded(
        &mut self,
        row: usize,
        values: impl Iterator<Item = i64>,
    ) -> Result<(), PimError> {
        self.check_row(row)?;
        let span = self.row_span(self.phys_row(row));
        // the cells are lent out for the transfer, which never reads them
        let mut cells = std::mem::take(&mut self.cells);
        let moved = encode_lanes(&mut cells[span.clone()], self.width, values);
        // the wire moves only the valid lanes; the zero tail is a row
        // clear strobe, not burst traffic
        let lanes = (moved / self.width.bytes()) as u32;
        self.host_transfer(
            TransferKind::StripIn,
            row as u32,
            &cells[span][..moved],
            lanes,
        );
        self.cells = cells;
        Ok(())
    }

    /// Reads a row's lane values at the current configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::RowOutOfRange`] for a bad row index.
    pub fn host_read_lanes(&mut self, row: usize) -> Result<Vec<i64>, PimError> {
        let mut vals = Vec::new();
        self.host_read_lanes_into(row, &mut vals)?;
        Ok(vals)
    }

    /// Reads a row's lane values into `out`, replacing its contents,
    /// with the same faults, transfer charge and records as
    /// [`PimMachine::host_read_lanes`]. Once `out` has room for a row's
    /// lanes, a read on an inert machine allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::RowOutOfRange`] for a bad row index; `out`
    /// is left untouched then.
    pub fn host_read_lanes_into(&mut self, row: usize, out: &mut Vec<i64>) -> Result<(), PimError> {
        self.check_row(row)?;
        let lanes = self.lanes() as u32;
        self.read_row(row, true, out);
        // the row's cells are the outbound descriptor's wire image (the
        // channel reads the burst buffer at issue; the host sees the
        // values now, the port pays for them on its own clock)
        let span = self.row_span(self.phys_row(row));
        let cells = std::mem::take(&mut self.cells);
        self.host_transfer(TransferKind::StripOut, row as u32, &cells[span], lanes);
        self.cells = cells;
        Ok(())
    }

    /// Inspects the Tmp Reg lane values (no cost: debugging/verification
    /// aid, the hardware result would be consumed via write-back).
    pub fn tmp_lanes(&self) -> &[i64] {
        &self.banks.wide.tmp
    }

    /// Logical bit width of the Tmp Reg contents.
    pub fn tmp_bits(&self) -> u32 {
        self.tmp_bits
    }

    // ------------------------------------------------------------------
    // DMA channel control (see `crate::dma` for the model)
    // ------------------------------------------------------------------

    /// Installs (or removes, with `None`) the host↔array DMA channel.
    /// Installing replaces any previous channel — clocks, health and
    /// fault stream start fresh. With no channel every host transfer is
    /// synchronous.
    pub fn set_dma(&mut self, cfg: Option<DmaConfig>) {
        self.dma = cfg.map(|_| Box::new(DmaChannel::new()));
    }

    /// Plugs a seeded [`DmaFaultModel`] into the installed channel.
    /// No effect without a channel (install with
    /// [`PimMachine::set_dma`] first).
    pub fn set_dma_fault(&mut self, model: DmaFaultModel) {
        if let Some(ch) = &mut self.dma {
            ch.set_fault(model);
        }
    }

    /// Forks the channel's fault stream with `salt` (pool members
    /// derive independent streams from one shared model).
    pub fn dma_reseed(&mut self, salt: u64) {
        if let Some(ch) = &mut self.dma {
            ch.reseed(salt);
        }
    }

    /// The installed channel's health counters, when one is installed.
    pub fn dma_health(&self) -> Option<DmaHealth> {
        self.dma.as_ref().map(|ch| ch.health())
    }

    /// Whether the installed channel is quarantined (all transfers
    /// degraded to the synchronous port). `false` without a channel.
    pub fn dma_quarantined(&self) -> bool {
        self.dma.as_ref().is_some_and(|ch| ch.is_quarantined())
    }

    /// Lifts a channel quarantine after operator/scrub action; no
    /// effect without a channel.
    pub fn dma_rehabilitate(&mut self) {
        if let Some(ch) = &mut self.dma {
            ch.rehabilitate();
        }
    }

    /// Arms a dedicated op-trace lane for the DMA channel: descriptor
    /// records land in stream `stream` stamped with `array` (use
    /// [`pimvo_telemetry::optrace::DMA_LANE_BASE`]` | index` so the
    /// profiler renders a `dma N` lane). No effect without a channel.
    pub fn arm_dma_recorder(&mut self, stream: u16, array: u16, capacity: usize) {
        if let Some(ch) = &mut self.dma {
            ch.arm_recorder(stream, array, capacity);
        }
    }

    /// Disarms the DMA channel's op-trace lane, discarding its buffered
    /// records. No effect without a channel.
    pub fn disarm_dma_recorder(&mut self) {
        if let Some(ch) = &mut self.dma {
            ch.disarm_recorder();
        }
    }

    /// Mutable access to the channel's op recorder (session stamping and
    /// draining by the owning [`crate::PimArrayPool`]).
    pub fn dma_recorder_mut(&mut self) -> Option<&mut OpRecorder> {
        self.dma.as_mut().and_then(|ch| ch.recorder_mut())
    }

    /// Stalls the compute stream to timeline `target`: charges
    /// [`ExecStats::dma_stall_cycles`] and emits a
    /// [`OpKind::DmaStall`] record serialized into the machine stream.
    fn dma_stall_until(&mut self, target: u64) {
        let now = self.timeline();
        if target > now {
            let stall = target - now;
            self.stats.dma_stall_cycles += stall;
            if let Some(ch) = &mut self.dma {
                ch.add_stall(stall);
            }
            if let Some(rec) = &mut self.op_recorder {
                rec.record(OpKind::DmaStall, &[], &[], now, stall, 0, 0);
            }
        }
        let now = self.timeline();
        if let Some(ch) = &mut self.dma {
            ch.observe(now);
        }
    }

    /// Waits for every outstanding *strip-in* descriptor (compute
    /// inputs); outbound reads keep flying. Called at
    /// [`PimMachine::run_program`] entry, so a program can never read a
    /// row whose inbound burst is still on the wire. Free without a
    /// channel or when inputs already landed.
    fn dma_sync_inbound(&mut self) {
        if let Some(ch) = &self.dma {
            let t = ch.in_done();
            self.dma_stall_until(t);
        }
    }

    /// Waits for the channel engine to go fully idle (strip-in *and*
    /// outbound descriptors): the frame/measurement boundary. Charged
    /// as stall cycles like any other wait.
    pub fn dma_settle(&mut self) {
        if let Some(ch) = &self.dma {
            let t = ch.busy_until();
            self.dma_stall_until(t);
        }
    }

    // ------------------------------------------------------------------
    // Compute: lowered instructions only
    // ------------------------------------------------------------------

    /// Executes a lowered macro-op program (see [`crate::ir`] and
    /// [`crate::lower()`]), charging the normal [`CostModel`]. Returns
    /// the [`MachineInstr::Reduce`] results in program order. An armed
    /// op recorder stamps every record of the run with the program
    /// name.
    ///
    /// A [`LaneClass::I64`] program is exactly a loop of
    /// [`PimMachine::execute`] over its instructions. A
    /// [`LaneClass::I16`] or [`LaneClass::I32`] program computes on
    /// `i16` or `i32` lanes; its final Tmp Reg is widened back on exit,
    /// so sums, values, statistics, records and the state later calls
    /// see are those of the `i64` loop.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PimError`] of an instruction (bad rows,
    /// empty registers, unsigned 64-bit operands). Instructions before
    /// the failure have already been charged.
    pub fn run_program(&mut self, prog: &LoweredProgram) -> Result<Vec<i64>, PimError> {
        let mut sums = Vec::with_capacity(prog.reduce_count());
        if let Some(rec) = &mut self.op_recorder {
            // kernel-level attribution: every record of this program
            // carries the program name
            rec.set_label(Some(prog.name()));
        }
        // compute may not outrun its inputs: wait for outstanding
        // strip-in DMA (outbound reads keep overlapping)
        self.dma_sync_inbound();
        let run = match prog.lane_class() {
            LaneClass::I64 => prog.ops().iter().try_for_each(|op| {
                sums.extend(self.execute(&op.instr)?);
                Ok(())
            }),
            LaneClass::I32 => self.run_narrow::<i32>(prog.ops(), &mut sums),
            LaneClass::I16 => self.run_narrow::<i16>(prog.ops(), &mut sums),
        };
        if let Some(rec) = &mut self.op_recorder {
            rec.set_label(None);
        }
        run.map(|()| sums)
    }

    /// Executes one lowered instruction on `i64` lanes, charged like any
    /// instruction of a program; returns the sum of a
    /// [`MachineInstr::Reduce`], `None` otherwise. The reference
    /// interpretation: an `i64` program is a loop of it, and the `i16`
    /// and `i32` lanes are checked against it.
    ///
    /// # Errors
    ///
    /// A bad row, an empty or bad register, or unsigned 64-bit operands
    /// ([`PimError`]); a failing instruction charges nothing.
    pub fn execute(&mut self, instr: &MachineInstr) -> Result<Option<i64>, PimError> {
        self.exec_instr::<i64>(instr)
    }

    /// Runs the ops of a [`LaneClass::I16`] or [`LaneClass::I32`]
    /// program on the bank of `L`, appending its reduce sums to `sums`,
    /// then widens its Tmp Reg into the `i64` bank if the run wrote it.
    /// Both classes guarantee the program writes the Tmp Reg before it
    /// reads it and names no extra register, so the narrow bank never
    /// needs a value an earlier call left. Every bank's buffers are
    /// pre-sized, so the hand-over does not allocate.
    fn run_narrow<L: Lane>(
        &mut self,
        ops: &[LoweredOp],
        sums: &mut Vec<i64>,
    ) -> Result<(), PimError> {
        let mut done = 0;
        let run = ops.iter().try_for_each(|op| {
            sums.extend(self.exec_instr::<L>(&op.instr)?);
            done += 1;
            Ok(())
        });
        if ops[..done].iter().any(|op| op.instr.writes_tmp()) {
            let mut wide = std::mem::take(&mut self.banks.wide.tmp);
            wide.clear();
            wide.extend(L::bank(&self.banks).tmp.iter().map(|&v| v.to_i64()));
            self.banks.wide.tmp = wide;
        }
        run
    }

    /// Dispatches one lowered instruction to its helper on the lane bank
    /// of `L`. The helpers stay out of line: folded into this dispatcher,
    /// pose-program ops measured 10-20 % slower on the host. `i16` and
    /// `i32` programs stay below 64-bit lanes, so only `i64` checks the
    /// width.
    fn exec_instr<L: Lane>(&mut self, instr: &MachineInstr) -> Result<Option<i64>, PimError> {
        if L::BITS == 64 && self.sign == Signedness::Unsigned {
            self.check_operand_width::<L>(instr)?;
        }
        match *instr {
            MachineInstr::SetLanes { width, sign } => self.set_lanes(width, sign),
            MachineInstr::Alu { op, a, b, shift } => self.alu_on::<L>(op, a, b, shift)?,
            MachineInstr::ShiftPix { a, pix } => self.shift_pix_on::<L>(a, pix)?,
            MachineInstr::ShrBits { a, k } => self.shr_bits_on::<L>(a, k)?,
            MachineInstr::Neg { a } => self.neg_on::<L>(a)?,
            MachineInstr::SatNarrow { a, bits } => self.sat_narrow_on::<L>(a, bits)?,
            MachineInstr::Writeback { row } => self.writeback_on::<L>(row)?,
            MachineInstr::Mul { a, b, signed } => self.mul::<L>(a, b, signed)?,
            MachineInstr::Reduce => return self.reduce_sum::<L>().map(Some),
            // the rest compute on i64 lanes only: LaneClass::of never
            // admits them into an i16 or i32 program
            MachineInstr::ShlBits { a, k } => self.shl_bits(a, k)?,
            MachineInstr::DivFrac { a, b, frac, signed } => self.div_frac(a, b, frac, signed)?,
            MachineInstr::SaveTmp { idx } => self.save_tmp(idx)?,
        }
        Ok(None)
    }

    /// [`MachineInstr::Alu`] on the lane bank of `L`.
    #[inline(never)]
    fn alu_on<L: Lane>(
        &mut self,
        op: AluOp,
        a: Operand,
        b: Operand,
        shift: Shift,
    ) -> Result<(), PimError> {
        let b_pix = shift.pix();
        let bits = self.op_bits::<L>(a, b);
        let sign = self.sign;
        match op {
            AluOp::Logic(f) => {
                let mask = L::from_i64(width_mask(bits) as i64);
                // one lane loop per function: none matches on it per lane
                macro_rules! logic {
                    ($f:expr) => {
                        self.binop(OpKind::Logic, a, b, b_pix, bits, move |x: L, y| {
                            $f.apply(x & mask, y & mask) & mask
                        })
                    };
                }
                match f {
                    LogicFunc::And => logic!(LogicFunc::And),
                    LogicFunc::Nor => logic!(LogicFunc::Nor),
                    LogicFunc::Xor => logic!(LogicFunc::Xor),
                    LogicFunc::Or => logic!(LogicFunc::Or),
                }?;
            }
            AluOp::Add => {
                self.binop(OpKind::AddSub, a, b, b_pix, bits, move |x: L, y| {
                    x.wrapping_add(y).wrap(bits, sign)
                })?;
            }
            AluOp::Sub => {
                self.binop(OpKind::AddSub, a, b, b_pix, bits, move |x: L, y| {
                    x.wrapping_sub(y).wrap(bits, sign)
                })?;
            }
            AluOp::SatAdd => {
                let (lo, hi) = sat_range(bits, sign);
                self.binop(OpKind::SatAddSub, a, b, b_pix, bits, move |x: L, y| {
                    x.saturating_add(y).max(lo).min(hi)
                })?;
            }
            AluOp::SatSub => {
                let (lo, hi) = sat_range(bits, sign);
                self.binop(OpKind::SatAddSub, a, b, b_pix, bits, move |x: L, y| {
                    x.saturating_sub(y).max(lo).min(hi)
                })?;
            }
            AluOp::Avg => {
                self.binop(OpKind::Avg, a, b, b_pix, bits, |x: L, y| x.avg(y))?;
            }
            AluOp::AbsDiff => {
                // Step 1: M = a - b (+ carry extension), SRAM-touching.
                // Steps 2-3: Tmp-resident single-cycle fixups (Fig. 7-a).
                let (_, hi) = sat_range(bits, sign);
                self.binop(OpKind::AbsDiff, a, b, b_pix, bits, move |x: L, y| {
                    x.abs_diff_at_most(y, hi)
                })?;
                self.charge_tmp_steps(2);
            }
            AluOp::Max => {
                // max(a, b) = sat(a - b) + b (Fig. 7-b)
                self.binop(OpKind::MinMax, a, b, b_pix, bits, |x: L, y| x.max(y))?;
                self.charge_tmp_steps(1);
            }
            AluOp::Min => {
                // min(a, b) = a - sat(a - b)
                self.binop(OpKind::MinMax, a, b, b_pix, bits, |x: L, y| x.min(y))?;
                self.charge_tmp_steps(1);
            }
            AluOp::CmpGt => {
                let mask = L::from_i64(width_mask(bits) as i64);
                self.binop(OpKind::Cmp, a, b, b_pix, bits, move |x: L, y| {
                    if x > y {
                        mask
                    } else {
                        L::default()
                    }
                })?;
            }
        }
        Ok(())
    }

    /// [`MachineInstr::ShiftPix`] on the lane bank of `L`.
    #[inline(never)]
    fn shift_pix_on<L: Lane>(&mut self, a: Operand, pix: i32) -> Result<(), PimError> {
        let bits = self.op_bits::<L>(a, a);
        self.unop(OpKind::Shift, a, bits, move |vals: &[L], out| {
            out.extend_from_slice(vals);
            shift_in_place(out, pix);
        })
    }

    /// [`MachineInstr::ShrBits`] on the lane bank of `L`; shifts by the
    /// whole lane or more are decided once per op.
    #[inline(never)]
    fn shr_bits_on<L: Lane>(&mut self, a: Operand, k: u32) -> Result<(), PimError> {
        let bits = self.op_bits::<L>(a, a);
        let sign = self.sign;
        let k_arith = k.min(L::BITS - 1);
        self.unop(OpKind::Shift, a, bits, move |vals: &[L], out| match sign {
            Signedness::Signed => out.extend(vals.iter().map(|&v| v >> k_arith)),
            Signedness::Unsigned if k >= L::BITS => out.resize(vals.len(), L::default()),
            Signedness::Unsigned => out.extend(vals.iter().map(|&v| v.shr_logical(k))),
        })
    }

    /// [`MachineInstr::ShlBits`] on `i64` lanes.
    #[inline(never)]
    fn shl_bits(&mut self, a: Operand, k: u32) -> Result<(), PimError> {
        let bits = self.op_bits::<i64>(a, a);
        let sign = self.sign;
        self.unop(OpKind::Shift, a, bits, move |vals: &[i64], out| {
            if k >= i64::BITS {
                out.resize(vals.len(), 0);
            } else {
                out.extend(vals.iter().map(|&v| wrap(v << k, bits, sign)));
            }
        })
    }

    /// [`MachineInstr::Mul`] on the lane bank of `L`.
    #[inline(never)]
    fn mul<L: Lane>(&mut self, a: Operand, b: Operand, signed: bool) -> Result<(), PimError> {
        let n = self.width.bits();
        if signed {
            // the low `L::BITS` bits of the product: exact for 2n <= 64
            // on i64, and for the i16 rows of an I32 program on i32
            self.binop(OpKind::Mul, a, b, 0, n, |x: L, y| x.wrapping_mul(y))?;
        } else {
            let mask = width_mask(n);
            self.binop(OpKind::Mul, a, b, 0, n, move |x: L, y: L| {
                L::from_i64(
                    (x.to_i64() as u64 & mask).wrapping_mul(y.to_i64() as u64 & mask) as i64,
                )
            })?;
        }
        self.tmp_bits = (2 * n).min(64);
        // n-1 further shift-accumulate steps + final correction
        self.charge_muldiv_steps(n as u64, a.touches_sram() || b.touches_sram());
        if signed {
            self.charge_tmp_steps(5);
        }
        Ok(())
    }

    /// [`MachineInstr::DivFrac`] on `i64` lanes.
    #[allow(clippy::manual_checked_ops)] // divide-by-zero yields the divider's all-ones pattern, not None
    #[inline(never)]
    fn div_frac(
        &mut self,
        a: Operand,
        b: Operand,
        frac: u32,
        signed: bool,
    ) -> Result<(), PimError> {
        let n = self.width.bits();
        let out_bits = (n + frac).min(64);
        if signed {
            let max = (width_mask(out_bits) >> 1) as i64;
            // dividends below this magnitude shift without overflowing i64
            let exact = if frac < 63 { 1u64 << (63 - frac) } else { 0 };
            self.binop(OpKind::Div, a, b, 0, out_bits, move |x: i64, y| {
                if y == 0 {
                    if x >= 0 {
                        max
                    } else {
                        -max - 1
                    }
                } else if x.unsigned_abs() < exact {
                    (x << frac) / y
                } else {
                    (((x as i128) << frac) / y as i128) as i64
                }
            })?;
        } else {
            let mask = width_mask(n);
            self.binop(OpKind::Div, a, b, 0, out_bits, move |x: i64, y: i64| {
                let (x, y) = ((x as u64 & mask) as u128, (y as u64 & mask) as u128);
                if y == 0 {
                    width_mask(n + frac) as i64
                } else {
                    ((x << frac) / y) as i64
                }
            })?;
        }
        self.tmp_bits = out_bits;
        self.charge_muldiv_steps((n + frac) as u64, a.touches_sram() || b.touches_sram());
        if signed {
            self.charge_tmp_steps(5);
        }
        Ok(())
    }

    /// [`MachineInstr::Neg`] on the lane bank of `L`.
    #[inline(never)]
    fn neg_on<L: Lane>(&mut self, a: Operand) -> Result<(), PimError> {
        let bits = self.op_bits::<L>(a, a);
        let sign = self.sign;
        self.unop(OpKind::AddSub, a, bits, move |vals: &[L], out| {
            out.extend(vals.iter().map(|&v| v.wrapping_neg().wrap(bits, sign)));
        })
    }

    /// [`MachineInstr::SatNarrow`] on the lane bank of `L`.
    #[inline(never)]
    fn sat_narrow_on<L: Lane>(&mut self, a: Operand, bits: u32) -> Result<(), PimError> {
        let (lo, hi) = sat_range(bits, Signedness::Signed);
        self.unop(OpKind::SatAddSub, a, bits, move |vals: &[L], out| {
            out.extend(vals.iter().map(|&v| v.max(lo).min(hi)));
        })
    }

    /// [`MachineInstr::Writeback`] from the lane bank of `L`.
    #[inline(never)]
    fn writeback_on<L: Lane>(&mut self, dst: usize) -> Result<(), PimError> {
        self.check_row(dst)?;
        let tmp = &L::bank(&self.banks).tmp;
        if tmp.is_empty() {
            return Err(PimError::TmpEmpty);
        }
        let lanes = self.lanes();
        let span = self.row_span(self.phys_row(dst));
        encode_lanes(&mut self.cells[span], self.width, tmp.iter().copied());
        let cycle_start = self.stats.cycles;
        self.stats.cycles += 1;
        self.stats.sram_writes += 1;
        self.stats.tmp_accesses += 1;
        self.stats.record_op(OpKind::WriteBack);
        self.record_op(
            OpKind::WriteBack,
            &[],
            &[dst as u32],
            cycle_start,
            1,
            lanes as u32,
        );
        // protected writes re-encode the check bits on the way in
        self.charge_protection(1);
        Ok(())
    }

    /// [`MachineInstr::SaveTmp`] from the `i64` bank.
    #[inline(never)]
    fn save_tmp(&mut self, idx: u8) -> Result<(), PimError> {
        if idx == 0 {
            return Err(PimError::RegisterZero);
        }
        let slot = (idx - 1) as usize;
        let wide = &mut self.banks.wide;
        if slot >= wide.regs.len() {
            return Err(PimError::RegisterNotEnabled {
                idx,
                enabled: self.tmp_reg_count(),
            });
        }
        if wide.tmp.is_empty() {
            return Err(PimError::TmpEmpty);
        }
        let (lanes, bits) = &mut wide.regs[slot];
        lanes.clone_from(&wide.tmp);
        *bits = self.tmp_bits;
        let cycle_start = self.stats.cycles;
        self.stats.cycles += 1;
        self.stats.acc_ops += 1;
        self.stats.tmp_accesses += 2;
        self.record_op(OpKind::Select, &[], &[], cycle_start, 0, 0);
        Ok(())
    }

    /// [`MachineInstr::Reduce`]: reduces the Tmp Reg lanes to their sum
    /// and returns it.
    ///
    /// *Charge.* The modelled array folds the lanes by a strided tree of
    /// `ceil(log2(lanes))` shift-accumulate steps, each single-cycle
    /// and Tmp-resident: that many cycles and shifter/adder operations,
    /// two Tmp accesses per step, one [`OpKind::Reduce`] histogram
    /// entry and one op record.
    ///
    /// *Value.* The simulator computes the tree's result in one
    /// wrapping pass instead: addition is associative modulo
    /// `2^tmp_bits`, so the lane-0 value of the tree equals the lane
    /// sum wrapped once at the Tmp width. A single lane needs no step
    /// and is returned as it stands.
    ///
    /// *Tmp contract.* A reduce consumes the Tmp Reg. Lane 0 holds the
    /// sum afterwards; every other lane keeps the value it held before
    /// the reduce, a defined and deterministic state that differs from
    /// the tree's partial sums. Nothing may read those lanes: the
    /// lowering treats the Tmp Reg as destroyed by a reduce (it spills
    /// a still-live operand first), and `crates/pim/tests/tmp_contract.rs`
    /// checks every edge and pose program at every level for a Tmp read
    /// between a reduce and the next Tmp write.
    #[inline(never)]
    fn reduce_sum<L: Lane>(&mut self) -> Result<i64, PimError> {
        let tmp = &mut L::bank_mut(&mut self.banks).tmp;
        if tmp.is_empty() {
            return Err(PimError::TmpEmpty);
        }
        let lanes = tmp.len();
        let steps = (usize::BITS - (lanes - 1).leading_zeros()) as u64;
        let sum = lane_sum(tmp, self.tmp_bits, self.sign);
        tmp[0] = sum;
        let cycle_start = self.stats.cycles;
        self.stats.cycles += steps;
        self.stats.acc_ops += steps;
        self.stats.tmp_accesses += 2 * steps;
        self.stats.record_op(OpKind::Reduce);
        self.record_op(OpKind::Reduce, &[], &[], cycle_start, 0, lanes as u32);
        Ok(sum.to_i64())
    }

    /// Gathers `addresses.len()` lane values at arbitrary
    /// (row, lane) addresses — the host lookup port of the
    /// distance-transform / gradient-map reads of the pose-estimation
    /// step. Random access cannot use the SIMD datapath, so each
    /// element costs one serialized read cycle and one SRAM activation.
    ///
    /// # Errors
    ///
    /// [`PimError::RowOutOfRange`] for a bad address row (checked
    /// before any cost is charged).
    pub fn gather(&mut self, addresses: &[(usize, usize)]) -> Result<Vec<i64>, PimError> {
        for &(row, _) in addresses {
            self.check_row(row)?;
        }
        let (width, sign, lanes) = (self.width, self.sign, self.lanes());
        let mut out = Vec::with_capacity(addresses.len());
        let mut sensed: Vec<i64> = Vec::new();
        for &(row, lane) in addresses {
            let v = if !self.fault.is_inert() {
                // an armed read draws the whole row's faults
                self.read_row(row, false, &mut sensed);
                sensed.get(lane).copied().unwrap_or(0)
            } else if lane < lanes {
                // an inert read senses nothing but the addressed lane
                let at = lane * width.bytes();
                let cells = &self.cells[self.row_span(self.phys_row(row))][at..at + width.bytes()];
                decode_lane(cells, width, sign)
            } else {
                0
            };
            out.push(v);
        }
        let n = addresses.len() as u64;
        let cycle_start = self.stats.cycles;
        self.stats.cycles += n;
        self.stats.sram_reads += n;
        self.stats.tmp_accesses += n;
        self.stats.record_op(OpKind::Gather);
        if self.op_recorder.is_some() {
            // first two addressed rows as representative read rows (the
            // serial chain orders the rest within the machine stream)
            let mut reads = [0u32; 2];
            let mut m = 0;
            for &(row, _) in addresses.iter().take(2) {
                reads[m] = row as u32;
                m += 1;
            }
            self.record_op(
                OpKind::Gather,
                &reads[..m],
                &[],
                cycle_start,
                n as u32,
                n as u32,
            );
        }
        self.charge_protection(n);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_row(&self, row: usize) -> Result<(), PimError> {
        if row >= self.config.rows {
            Err(PimError::RowOutOfRange {
                row,
                rows: self.config.rows,
            })
        } else {
            Ok(())
        }
    }

    /// Resolves a logical row to its physical storage row through the
    /// remap table. Identity (and branch-predictable) while the table
    /// is empty, so un-remapped machines pay nothing.
    #[inline]
    fn phys_row(&self, row: usize) -> usize {
        if self.remap.is_empty() {
            row
        } else {
            self.remap.get(&row).copied().unwrap_or(row)
        }
    }

    /// The byte range of physical row `phys` in the cell buffer.
    #[inline]
    fn row_span(&self, phys: usize) -> std::ops::Range<usize> {
        let rb = self.config.row_bytes();
        phys * rb..(phys + 1) * rb
    }

    /// Reads a row through the sense amplifiers into `out` (its lanes
    /// at the current configuration), applying the fault model and word
    /// protection when configured. The default (inert fault unit)
    /// decodes the cells in place — bit- and cycle-identical to a build
    /// without the fault layer. An armed read senses a copy, so
    /// transient upsets corrupt the sensed values only and cell contents
    /// stay intact; every armed read advances the fault stream by one
    /// row.
    fn read_row<L: Lane>(&mut self, row: usize, host: bool, out: &mut Vec<L>) {
        debug_assert!(row < self.config.rows, "read_row caller must check_row");
        // faults live with the *physical* cells: a logical row remapped
        // to a spare escapes the defective row's stuck bits
        let phys = self.phys_row(row);
        let cells = &self.cells[self.row_span(phys)];
        if self.fault.is_inert() {
            decode_lanes(cells, self.width, self.sign, out);
            return;
        }
        let mut data = cells.to_vec();
        self.fault.apply_to_read(phys, &mut data, host);
        decode_lanes(&data, self.width, self.sign, out);
    }

    /// Charges the word-protection overhead of `accesses` protected
    /// SRAM accesses on the compute path (check cycles/energy per
    /// access, plus any ECC corrections performed since the last
    /// charge), extending the current op record so cycle spans stay
    /// contiguous. Free under [`Protection::None`].
    fn charge_protection(&mut self, accesses: u64) {
        match self.fault.protection() {
            Protection::None => {}
            Protection::Parity => {
                self.stats.parity_checks += accesses;
                let c = self.cost.parity_check_cycles * accesses;
                self.stats.cycles += c;
                self.extend_record(c, 0);
            }
            Protection::Ecc => {
                self.stats.ecc_checks += accesses;
                let c = self.cost.ecc_check_cycles * accesses;
                self.stats.cycles += c;
                self.extend_record(c, 0);
            }
        }
        let corrections = self.fault.take_pending_corrections();
        if corrections > 0 {
            self.stats.ecc_corrections += corrections;
            let c = self.cost.ecc_correct_cycles * corrections;
            self.stats.cycles += c;
            self.extend_record(c, 0);
        }
    }

    /// Validates an operand and says where its lanes live for the
    /// current op, in the lane bank of `L`. A row is sensed into lane
    /// buffer `slot`; Tmp and extra registers are read in place.
    fn load_operand<L: Lane>(&mut self, op: Operand, slot: usize) -> Result<Src, PimError> {
        match op {
            Operand::Row(r) => {
                self.check_row(r)?;
                let mut buf = std::mem::take(&mut L::bank_mut(&mut self.banks).input[slot]);
                self.read_row(r, false, &mut buf);
                L::bank_mut(&mut self.banks).input[slot] = buf;
                Ok(Src::In(slot))
            }
            Operand::Tmp => {
                if L::bank(&self.banks).tmp.is_empty() {
                    return Err(PimError::TmpEmpty);
                }
                Ok(Src::Tmp)
            }
            Operand::Reg(i) => {
                if i == 0 {
                    return Err(PimError::RegisterZero);
                }
                let slot = (i - 1) as usize;
                let regs = &L::bank(&self.banks).regs;
                if slot >= regs.len() {
                    return Err(PimError::RegisterNotEnabled {
                        idx: i,
                        enabled: self.tmp_reg_count(),
                    });
                }
                if regs[slot].0.is_empty() {
                    return Err(PimError::RegisterEmpty { idx: i });
                }
                Ok(Src::Reg(slot))
            }
        }
    }

    /// Logical bit width of a register operand's contents.
    fn reg_bits<L: Lane>(&self, op: Operand) -> u32 {
        match op {
            Operand::Tmp => self.tmp_bits,
            Operand::Reg(i) => L::bank(&self.banks)
                .regs
                .get((i - 1) as usize)
                .map(|(_, b)| *b)
                .unwrap_or(self.width.bits()),
            Operand::Row(_) => self.width.bits(),
        }
    }

    /// Width of an operation's operands: lane width, except that Tmp may
    /// carry double-width contents after a multiplication.
    fn op_bits<L: Lane>(&self, a: Operand, b: Operand) -> u32 {
        let mut bits = self.width.bits();
        if a.is_reg() {
            bits = bits.max(self.reg_bits::<L>(a));
        }
        if b.is_reg() {
            bits = bits.max(self.reg_bits::<L>(b));
        }
        bits
    }

    /// On unsigned lanes, rejects an instruction that computes on 64-bit
    /// operands, from the operand width its op takes: `i64` lanes
    /// cannot order unsigned values of 2^63 and above.
    #[inline(never)]
    fn check_operand_width<L: Lane>(&self, instr: &MachineInstr) -> Result<(), PimError> {
        let bits = match *instr {
            MachineInstr::Alu { a, b, .. } => self.op_bits::<L>(a, b),
            MachineInstr::ShiftPix { a, .. }
            | MachineInstr::ShrBits { a, .. }
            | MachineInstr::ShlBits { a, .. }
            | MachineInstr::Neg { a }
            | MachineInstr::SatNarrow { a, .. } => self.op_bits::<L>(a, a),
            MachineInstr::Mul { .. } | MachineInstr::DivFrac { .. } => self.width.bits(),
            _ => 0,
        };
        if bits < 64 {
            Ok(())
        } else {
            Err(PimError::UnsignedW64)
        }
    }

    /// Executes one single-cycle binary micro step and leaves the result
    /// in the Tmp Reg.
    fn binop<L: Lane>(
        &mut self,
        kind: OpKind,
        a: Operand,
        b: Operand,
        b_pix: i32,
        out_bits: u32,
        f: impl Fn(L, L) -> L,
    ) -> Result<(), PimError> {
        let sa = self.load_operand::<L>(a, 0)?;
        // an inert machine senses a row read by both operands once (an
        // armed one reads it twice: each read draws its own faults)
        let mut sb = if a == b && a.touches_sram() && self.fault.is_inert() {
            sa
        } else {
            self.load_operand::<L>(b, 1)?
        };
        let bank = L::bank_mut(&mut self.banks);
        if b_pix != 0 {
            // the lane pre-shift is a slice copy within lane buffer 1
            if sb != Src::In(1) {
                let mut buf = std::mem::take(&mut bank.input[1]);
                buf.clear();
                buf.extend_from_slice(bank.lanes(sb));
                bank.input[1] = buf;
                sb = Src::In(1);
            }
            shift_in_place(&mut bank.input[1], b_pix);
        }
        let mut out = std::mem::take(&mut bank.out);
        out.clear();
        let (av, bv) = (bank.lanes(sa), bank.lanes(sb));
        out.extend(av.iter().zip(bv).map(|(&x, &y)| f(x, y)));
        let lanes = out.len();
        // the old Tmp buffer becomes the next op's output buffer
        bank.out = std::mem::replace(&mut bank.tmp, out);
        self.tmp_bits = out_bits;
        // cycle/energy accounting
        let cycle_start = self.stats.cycles;
        self.stats.cycles += 1;
        self.stats.acc_ops += 1;
        let sram = u64::from(a.touches_sram() || b.touches_sram());
        // dual word-line activation is a single array access
        self.stats.sram_reads += sram;
        let tmp_reads = a.is_reg() as u64 + b.is_reg() as u64;
        self.stats.tmp_accesses += tmp_reads + 1; // + result write
        self.stats.record_op(kind);
        if self.op_recorder.is_some() {
            let mut reads = [0u32; 2];
            let mut m = 0;
            for op in [a, b] {
                if let Operand::Row(r) = op {
                    reads[m] = r as u32;
                    m += 1;
                }
            }
            self.record_op(
                kind,
                &reads[..m],
                &[],
                cycle_start,
                sram as u32,
                lanes as u32,
            );
        }
        self.charge_protection(sram);
        Ok(())
    }

    /// Executes one single-cycle unary micro step.
    fn unop<L: Lane>(
        &mut self,
        kind: OpKind,
        a: Operand,
        out_bits: u32,
        f: impl Fn(&[L], &mut Vec<L>),
    ) -> Result<(), PimError> {
        let sa = self.load_operand::<L>(a, 0)?;
        let bank = L::bank_mut(&mut self.banks);
        let mut out = std::mem::take(&mut bank.out);
        out.clear();
        f(bank.lanes(sa), &mut out);
        let lanes = out.len() as u32;
        bank.out = std::mem::replace(&mut bank.tmp, out);
        self.tmp_bits = out_bits;
        let cycle_start = self.stats.cycles;
        self.stats.cycles += 1;
        self.stats.acc_ops += 1;
        let sram = u64::from(a.touches_sram());
        self.stats.sram_reads += sram;
        self.stats.tmp_accesses += a.is_reg() as u64 + 1;
        self.stats.record_op(kind);
        if self.op_recorder.is_some() {
            let mut reads = [0u32; 1];
            let mut m = 0;
            if let Operand::Row(r) = a {
                reads[m] = r as u32;
                m += 1;
            }
            self.record_op(kind, &reads[..m], &[], cycle_start, sram as u32, lanes);
        }
        self.charge_protection(sram);
        Ok(())
    }

    /// Charges extra Tmp-resident cycles of a multi-step macro op (the
    /// values were already computed by the first step's closure).
    fn charge_tmp_steps(&mut self, steps: u64) {
        self.stats.cycles += steps;
        self.stats.acc_ops += steps;
        self.stats.tmp_accesses += 2 * steps;
        self.extend_record(steps, 0);
    }

    /// Charges the shift-accumulate / subtract-restore steps of a
    /// multiplication or division. The partial result lives in the Tmp
    /// Reg, but the *row* operand (multiplicand / divisor) is re-read
    /// through the sense amplifiers on every step — the accumulator's
    /// input multiplexer only selects between the SA outputs and the
    /// Tmp Reg (Fig. 6-c), there is no operand latch.
    fn charge_muldiv_steps(&mut self, steps: u64, rereads_sram: bool) {
        self.stats.cycles += steps;
        self.stats.acc_ops += steps;
        self.stats.tmp_accesses += 2 * steps;
        let sram = if rereads_sram { steps } else { 0 };
        self.stats.sram_reads += sram;
        self.extend_record(steps, sram);
        // every re-read of the row operand passes the word checker too
        // (faults on re-reads themselves are not modeled: the product
        // was computed from the first sensed copy)
        self.charge_protection(sram);
    }

    /// Folds the extra cycles of a multi-step macro op into the armed
    /// op recorder's last record, so per-record cycles keep summing to
    /// the exact `ExecStats` delta.
    fn extend_record(&mut self, cycles: u64, sram_reads: u64) {
        if let Some(rec) = &mut self.op_recorder {
            rec.extend_last(cycles, sram_reads as u32);
        }
    }
}

/// Where an operand's lanes live during one macro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Sensed into interpreter lane buffer `lane_in[i]`.
    In(usize),
    /// The primary Tmp Reg.
    Tmp,
    /// Extra register `extra_regs[i]`.
    Reg(usize),
}

/// One lane element type's register file and interpreter buffers,
/// reused by every macro-op, so an inert machine allocates nothing per
/// op once they are sized.
#[derive(Debug, Clone)]
struct LaneBank<L> {
    /// The Tmp Reg.
    tmp: Vec<L>,
    /// Additional temporary registers (index 1..): `(lanes, bits)`.
    /// Empty in the paper's baseline single-register configuration,
    /// and always in the `i16` and `i32` banks: their programs name no
    /// register.
    regs: Vec<(Vec<L>, u32)>,
    /// The two decoded row operands.
    input: [Vec<L>; 2],
    /// The next Tmp contents, swapped with `tmp` when an op completes,
    /// so the old Tmp buffer is recycled.
    out: Vec<L>,
}

impl<L> LaneBank<L> {
    /// A bank whose lane buffers hold `lanes` lanes without growing.
    fn new(lanes: usize) -> Self {
        LaneBank {
            tmp: Vec::with_capacity(lanes),
            regs: Vec::new(),
            input: [Vec::with_capacity(lanes), Vec::with_capacity(lanes)],
            out: Vec::with_capacity(lanes),
        }
    }

    /// The lanes of a loaded operand.
    fn lanes(&self, src: Src) -> &[L] {
        match src {
            Src::In(slot) => &self.input[slot],
            Src::Tmp => &self.tmp,
            Src::Reg(slot) => &self.regs[slot].0,
        }
    }
}

/// The lane banks. `wide` serves [`PimMachine::execute`] and every
/// [`LaneClass::I64`] program, and holds the Tmp Reg between calls;
/// inside [`PimMachine::run_program`], `narrow` serves
/// [`LaneClass::I16`] programs and `mid` [`LaneClass::I32`] ones.
#[derive(Debug, Clone)]
struct Banks {
    wide: LaneBank<i64>,
    mid: LaneBank<i32>,
    narrow: LaneBank<i16>,
}

impl Banks {
    /// Banks whose buffers hold `lanes` lanes (the most any width has)
    /// without growing, so the hand-over between them never allocates.
    fn new(lanes: usize) -> Self {
        Banks {
            wide: LaneBank::new(lanes),
            mid: LaneBank::new(lanes),
            narrow: LaneBank::new(lanes),
        }
    }
}

/// Element type of a lane bank: the interpreter's per-op helpers are
/// written once, generic over it. Module-private, so sealed: `i64`
/// holds a lane of any width; `i16` holds every value a
/// [`LaneClass::I16`] program can produce and `i32` every value a
/// [`LaneClass::I32`] program can (see [`LaneClass::of`]), and on
/// those values each method returns what the `i64` one does. No
/// method overflows on any `i64` value.
trait Lane:
    Copy
    + Default
    + Ord
    + Shr<u32, Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// Bits of the element type.
    const BITS: u32;
    /// Truncating conversion.
    fn from_i64(v: i64) -> Self;
    /// Sign-extending conversion.
    fn to_i64(self) -> i64;
    /// Two's-complement sum.
    fn wrapping_add(self, y: Self) -> Self;
    /// Two's-complement difference.
    fn wrapping_sub(self, y: Self) -> Self;
    /// Two's-complement product.
    fn wrapping_mul(self, y: Self) -> Self;
    /// Two's-complement negation.
    fn wrapping_neg(self) -> Self;
    /// Sum clamped to the element type.
    fn saturating_add(self, y: Self) -> Self;
    /// Difference clamped to the element type.
    fn saturating_sub(self, y: Self) -> Self;
    /// The exact floor of `(self + y) / 2`.
    fn avg(self, y: Self) -> Self;
    /// `|self - y|`, clamped to `hi` (`hi >= 0`).
    fn abs_diff_at_most(self, y: Self, hi: Self) -> Self;
    /// Logical right shift of the lane's bit pattern (`k < BITS`).
    fn shr_logical(self, k: u32) -> Self;
    /// Wraps to a `bits`-wide word (two's-complement truncation).
    fn wrap(self, bits: u32, sign: Signedness) -> Self;
    /// This type's bank.
    fn bank(banks: &Banks) -> &LaneBank<Self>;
    /// This type's bank, mutably.
    fn bank_mut(banks: &mut Banks) -> &mut LaneBank<Self>;
}

/// The `Lane` methods that forward to the integer type's own.
macro_rules! lane_int_methods {
    ($t:ty) => {
        const BITS: u32 = <$t>::BITS;
        #[inline]
        fn wrapping_add(self, y: Self) -> Self {
            <$t>::wrapping_add(self, y)
        }
        #[inline]
        fn wrapping_sub(self, y: Self) -> Self {
            <$t>::wrapping_sub(self, y)
        }
        #[inline]
        fn wrapping_mul(self, y: Self) -> Self {
            <$t>::wrapping_mul(self, y)
        }
        #[inline]
        fn wrapping_neg(self) -> Self {
            <$t>::wrapping_neg(self)
        }
        #[inline]
        fn saturating_add(self, y: Self) -> Self {
            <$t>::saturating_add(self, y)
        }
        #[inline]
        fn saturating_sub(self, y: Self) -> Self {
            <$t>::saturating_sub(self, y)
        }
        #[inline]
        fn abs_diff_at_most(self, y: Self, hi: Self) -> Self {
            <$t>::abs_diff(self, y).min(hi as _) as $t
        }
    };
}

impl Lane for i64 {
    lane_int_methods!(i64);
    #[inline]
    fn from_i64(v: i64) -> Self {
        v
    }
    #[inline]
    fn to_i64(self) -> i64 {
        self
    }
    #[inline]
    fn avg(self, y: Self) -> Self {
        // halves first: a 64-bit lane has no headroom for the carry
        (self >> 1) + (y >> 1) + (self & y & 1)
    }
    #[inline]
    fn shr_logical(self, k: u32) -> Self {
        ((self as u64) >> k) as i64
    }
    #[inline]
    fn wrap(self, bits: u32, sign: Signedness) -> Self {
        wrap(self, bits, sign)
    }
    fn bank(banks: &Banks) -> &LaneBank<Self> {
        &banks.wide
    }
    fn bank_mut(banks: &mut Banks) -> &mut LaneBank<Self> {
        &mut banks.wide
    }
}

/// The `i64` formulas at 32 bits; exact for `bits <= 32` on values whose
/// `i64` result fits in an `i32`.
impl Lane for i32 {
    lane_int_methods!(i32);
    #[inline]
    fn from_i64(v: i64) -> Self {
        v as i32
    }
    #[inline]
    fn to_i64(self) -> i64 {
        i64::from(self)
    }
    #[inline]
    fn avg(self, y: Self) -> Self {
        (self >> 1) + (y >> 1) + (self & y & 1)
    }
    #[inline]
    fn shr_logical(self, k: u32) -> Self {
        ((self as u32) >> k) as i32
    }
    #[inline]
    fn wrap(self, bits: u32, sign: Signedness) -> Self {
        let sh = 32 - bits;
        match sign {
            Signedness::Signed => ((self as u32) << sh) as i32 >> sh,
            Signedness::Unsigned => ((self as u32) & (u32::MAX >> sh)) as i32,
        }
    }
    fn bank(banks: &Banks) -> &LaneBank<Self> {
        &banks.mid
    }
    fn bank_mut(banks: &mut Banks) -> &mut LaneBank<Self> {
        &mut banks.mid
    }
}

/// The `i64` formulas at 16 bits; exact for `bits <= 16` on values whose
/// `i64` result fits in an `i16`.
impl Lane for i16 {
    lane_int_methods!(i16);
    #[inline]
    fn from_i64(v: i64) -> Self {
        v as i16
    }
    #[inline]
    fn to_i64(self) -> i64 {
        i64::from(self)
    }
    #[inline]
    fn avg(self, y: Self) -> Self {
        // exact: I16-class values stay within +-511
        (self + y) >> 1
    }
    #[inline]
    fn shr_logical(self, k: u32) -> Self {
        ((self as u16) >> k) as i16
    }
    #[inline]
    fn wrap(self, bits: u32, sign: Signedness) -> Self {
        let sh = 16 - bits;
        match sign {
            Signedness::Signed => ((self as u16) << sh) as i16 >> sh,
            Signedness::Unsigned => ((self as u16) & (u16::MAX >> sh)) as i16,
        }
    }
    fn bank(banks: &Banks) -> &LaneBank<Self> {
        &banks.narrow
    }
    fn bank_mut(banks: &mut Banks) -> &mut LaneBank<Self> {
        &mut banks.narrow
    }
}

/// The `(min, max)` a `bits`-wide word saturates to, taken from the
/// `i64` clamp itself: saturating a lane is `v.max(min).min(max)`,
/// with the bounds computed once per op rather than once per lane.
fn sat_range<L: Lane>(bits: u32, sign: Signedness) -> (L, L) {
    let (lo, hi) = (clamp(i64::MIN, bits, sign), clamp(i64::MAX, bits, sign));
    (L::from_i64(lo), L::from_i64(hi))
}

/// Shifts lanes in place: positive `pix` moves lane `i + pix` into lane
/// `i`; zeros shift in at the border.
fn shift_in_place<L: Lane>(lanes: &mut [L], pix: i32) {
    let n = lanes.len();
    let p = (pix.unsigned_abs() as usize).min(n);
    if pix > 0 {
        lanes.copy_within(p.., 0);
        lanes[n - p..].fill(L::default());
    } else {
        lanes.copy_within(..n - p, p);
        lanes[..p].fill(L::default());
    }
}

/// Expands `$body` once per lane storage type: `$t` names the
/// little-endian cell type of a `$width` × `$sign` lane, so each lane
/// codec loop below is monomorphic (no per-lane width or sign match).
macro_rules! with_lane_type {
    ($width:expr, $sign:expr, $t:ident => $body:expr) => {
        match ($width, $sign) {
            (LaneWidth::W8, Signedness::Unsigned) => {
                type $t = u8;
                $body
            }
            (LaneWidth::W8, Signedness::Signed) => {
                type $t = i8;
                $body
            }
            (LaneWidth::W16, Signedness::Unsigned) => {
                type $t = u16;
                $body
            }
            (LaneWidth::W16, Signedness::Signed) => {
                type $t = i16;
                $body
            }
            (LaneWidth::W32, Signedness::Unsigned) => {
                type $t = u32;
                $body
            }
            (LaneWidth::W32, Signedness::Signed) => {
                type $t = i32;
                $body
            }
            // unsigned 64-bit lanes reinterpret the raw word as i64
            (LaneWidth::W64, _) => {
                type $t = i64;
                $body
            }
        }
    };
}

/// Decodes the cells of whole lanes into `out` (cleared first):
/// zero-extended for unsigned lanes, sign-extended for signed ones.
#[allow(clippy::unnecessary_cast)] // identity in the 64-bit arm only
fn decode_lanes<L: Lane>(cells: &[u8], width: LaneWidth, sign: Signedness, out: &mut Vec<L>) {
    out.clear();
    with_lane_type!(width, sign, T => out.extend(
        cells
            .chunks_exact(std::mem::size_of::<T>())
            .map(|c| L::from_i64(T::from_le_bytes(c.try_into().expect("lane-sized chunk")) as i64)),
    ));
}

/// Decodes one lane's cells (exactly `width.bytes()` of them).
#[allow(clippy::unnecessary_cast)] // identity in the 64-bit arm only
fn decode_lane(cells: &[u8], width: LaneWidth, sign: Signedness) -> i64 {
    with_lane_type!(width, sign, T => T::from_le_bytes(cells.try_into().expect("one lane")) as i64)
}

/// Encodes `values` into the leading lanes of a row's cells, wrapping
/// each to the lane width, and zeroes the lanes after the last value.
/// Returns the number of bytes the values cover.
fn encode_lanes<L: Lane>(
    cells: &mut [u8],
    width: LaneWidth,
    values: impl Iterator<Item = L>,
) -> usize {
    let mut n = 0;
    with_lane_type!(width, Signedness::Unsigned, T => {
        for (c, v) in cells.chunks_exact_mut(std::mem::size_of::<T>()).zip(values) {
            c.copy_from_slice(&(v.to_i64() as T).to_le_bytes());
            n += c.len();
        }
    });
    cells[n..].fill(0);
    n
}

#[inline]
fn width_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The value [`MachineInstr::Reduce`] leaves in lane 0: the wrapping
/// sum of `lanes` wrapped at `bits`, or the one lane as it stands. A
/// strided tree that wraps after every pairwise add gives the same
/// value, because wrapping is a ring homomorphism modulo `2^bits`.
fn lane_sum<L: Lane>(lanes: &[L], bits: u32, sign: Signedness) -> L {
    match lanes {
        [only] => *only,
        _ => lanes
            .iter()
            .fold(L::default(), |s, &v| s.wrapping_add(v))
            .wrap(bits, sign),
    }
}

/// Wraps `v` into a `bits`-wide word (`1..=64` bits): two's-complement
/// truncation, i.e. carry propagation cut at the word edge. An unsigned
/// 64-bit word keeps its bit pattern in the `i64`.
#[inline]
fn wrap(v: i64, bits: u32, sign: Signedness) -> i64 {
    let sh = 64 - bits;
    match sign {
        Signedness::Signed => ((v as u64) << sh) as i64 >> sh,
        Signedness::Unsigned => ((v as u64) & (u64::MAX >> sh)) as i64,
    }
}

/// Saturates `v` into a `bits`-wide word (`1..=64` bits). No `i64`
/// exceeds an unsigned 64-bit word's maximum, so there only negative
/// values move.
#[inline]
fn clamp(v: i64, bits: u32, sign: Signedness) -> i64 {
    match sign {
        Signedness::Signed => {
            let max = i64::MAX >> (64 - bits);
            v.clamp(!max, max)
        }
        Signedness::Unsigned => {
            let max = (u64::MAX >> (64 - bits)).min(i64::MAX as u64) as i64;
            v.clamp(0, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::isa::LogicFunc;
    use proptest::prelude::*;
    use MachineInstr::{DivFrac, Mul, Reduce, ShiftPix, Writeback};

    fn machine() -> PimMachine {
        PimMachine::new(ArrayConfig::qvga())
    }

    pub(super) fn alu(op: AluOp, a: Operand, b: Operand, shift: Shift) -> MachineInstr {
        MachineInstr::Alu { op, a, b, shift }
    }

    #[test]
    fn spare_rows_default_zero_and_remap_exhausts() {
        let mut m = machine();
        assert_eq!(m.spare_rows(), 0);
        assert_eq!(
            m.remap_row(3),
            Err(PimError::SpareRowsExhausted { spares: 0 })
        );

        let mut m = PimMachineBuilder::new(ArrayConfig::qvga())
            .spare_rows(2)
            .build();
        assert_eq!(m.spares_available(), 2);
        m.host_write_lanes(7, &[1, 2, 3]).unwrap();
        let spare = m.remap_row(7).unwrap();
        assert_eq!(spare, 256);
        // contents migrate with the remap
        assert_eq!(&m.host_read_lanes(7).unwrap()[..3], &[1, 2, 3]);
        assert_eq!(m.remapped_rows(), 1);
        m.remap_row(9).unwrap();
        assert_eq!(
            m.remap_row(11),
            Err(PimError::SpareRowsExhausted { spares: 2 })
        );
        assert_eq!(
            m.remap_row(999).unwrap_err(),
            PimError::RowOutOfRange {
                row: 999,
                rows: 256
            }
        );
    }

    /// The edges of the row buffer: full-row host round trips on
    /// logical row 0, the last logical row and, after two remaps, the
    /// last spare row stay in their own row.
    #[test]
    fn row_buffer_edges_round_trip() {
        let rows = ArrayConfig::qvga().rows;
        let last = rows - 1;
        let mut m = PimMachineBuilder::new(ArrayConfig::qvga())
            .spare_rows(2)
            .build();
        let lanes = m.lanes();
        let full =
            |seed: i64| -> Vec<i64> { (0..lanes as i64).map(|i| (i * 7 + seed) & 0xFF).collect() };
        let check = |m: &mut PimMachine, first: i64, end: i64| {
            assert_eq!(m.host_read_lanes(0).unwrap(), full(first));
            assert_eq!(m.host_read_lanes(last).unwrap(), full(end));
            for row in [1, last - 1] {
                assert_eq!(m.host_read_lanes(row).unwrap(), vec![0; lanes]);
            }
        };
        m.host_write_lanes(0, &full(1)).unwrap();
        m.host_write_lanes(last, &full(2)).unwrap();
        check(&mut m, 1, 2);
        assert_eq!(m.remap_row(0).unwrap(), rows);
        assert_eq!(m.remap_row(last).unwrap(), rows + 1, "the last spare");
        check(&mut m, 1, 2);
        m.host_write_lanes(last, &full(3)).unwrap();
        check(&mut m, 1, 3);
        let corners = m.gather(&[(last, lanes - 1), (0, 0)]).unwrap();
        assert_eq!(corners, [full(3)[lanes - 1], full(1)[0]]);
    }

    #[test]
    fn scrub_row_clean_without_defects_and_charges_cost() {
        let mut m = machine();
        let c0 = m.stats().cycles;
        assert!(m.scrub_row(5, 0x55).unwrap());
        assert!(m.scrub_row(5, 0xAA).unwrap());
        assert_eq!(m.stats().scrub_rows, 2);
        assert_eq!(m.stats().cycles - c0, 2 * m.cost_model().scrub_row_cycles);
        let e = m.stats().energy(m.cost_model());
        assert!(e.sram_pj >= 2.0 * m.cost_model().scrub_row_pj);
    }

    /// The one DMA transfer schedule: a program waits for the strips
    /// written before it, a host read overlaps the program after it,
    /// and a settle point charges exactly what the channel still owes.
    #[test]
    fn dma_schedule_waits_for_writes_and_overlaps_reads() {
        use crate::{lower, LowerLevel, PimProgram, ScratchRows, Val};
        let mut p = PimProgram::new("add");
        let sum = p.add(Val::Row(0), Val::Row(1));
        p.store(sum, 2);
        let prog = lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(8, 2)).unwrap();
        let mut m = PimMachineBuilder::new(ArrayConfig::qvga())
            .dma(DmaConfig::default())
            .build();
        let cost = m.cost_model().clone();
        let (write, read) = (
            cost.transfer_cycles(3),
            cost.transfer_cycles(m.config().row_bytes() as u64),
        );

        // two writes queue back to back on the channel; the program
        // stalls until the second lands (in_done), then computes
        m.host_write_lanes(0, &[10, 20, 30]).unwrap();
        m.host_write_lanes(1, &[1, 2, 3]).unwrap();
        assert_eq!(m.timeline(), 0, "a write charges nothing at issue");
        m.run_program(&prog).unwrap();
        assert_eq!(m.stats().dma_stall_cycles, 2 * write);
        assert_eq!(m.timeline(), 2 * write + m.stats().cycles);

        // a read is not waited for: the next program starts at once
        assert_eq!(&m.host_read_lanes(2).unwrap()[..3], &[11, 22, 33]);
        let busy_until = m.timeline() + read;
        m.run_program(&prog).unwrap();
        assert_eq!(
            m.stats().dma_stall_cycles,
            2 * write,
            "the read overlaps compute"
        );

        // the settle point charges the rest of the channel clock
        let now = m.timeline();
        assert!(now < busy_until, "the program hides only part of the read");
        m.dma_settle();
        assert_eq!(m.stats().dma_stall_cycles, 2 * write + (busy_until - now));
        assert_eq!(m.timeline(), busy_until);
        assert_eq!(
            m.stats().host_io_cycles,
            0,
            "every transfer rode the channel"
        );
    }

    #[test]
    fn remap_escapes_stuck_bit_and_scrub_detects_it() {
        let mut m = PimMachineBuilder::new(ArrayConfig::qvga())
            .spare_rows(4)
            .build();
        m.inject_stuck_bit(3, 0, true); // LSB of lane 0 stuck at 1
                                        // scrub sees the defect under the all-zeros pattern only when
                                        // the stored value differs from the stuck value
        assert!(!m.scrub_row(3, 0x00).unwrap());
        assert!(m.scrub_row(3, 0xFF).unwrap());
        m.host_write_lanes(3, &[0, 0]).unwrap();
        assert_eq!(
            m.host_read_lanes(3).unwrap()[0],
            1,
            "stuck bit visible pre-remap"
        );
        m.remap_row(3).unwrap();
        m.host_write_lanes(3, &[0, 0]).unwrap();
        assert_eq!(
            m.host_read_lanes(3).unwrap()[0],
            0,
            "spare row escapes the defect"
        );
        assert!(m.scrub_row(3, 0x00).unwrap(), "remapped row scrubs clean");
    }

    #[test]
    fn add_and_cycle_count() {
        let mut m = machine();
        m.host_write_lanes(0, &[1, 2, 250]).unwrap();
        m.host_write_lanes(1, &[10, 20, 30]).unwrap();
        m.execute(&alu(
            AluOp::Add,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..3], &[11, 22, 24]); // 280 wraps to 24
        assert_eq!(m.stats().cycles, 1);
        assert_eq!(m.stats().sram_reads, 1);
    }

    #[test]
    fn sat_add_clamps_unsigned() {
        let mut m = machine();
        m.host_write_lanes(0, &[250, 5]).unwrap();
        m.host_write_lanes(1, &[10, 10]).unwrap();
        m.execute(&alu(
            AluOp::SatAdd,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[255, 15]);
    }

    #[test]
    fn signed_lanes() {
        let mut m = machine();
        m.set_lanes(LaneWidth::W16, Signedness::Signed);
        m.host_write_lanes(0, &[-100, 30000]).unwrap();
        m.host_write_lanes(1, &[50, 10000]).unwrap();
        m.execute(&alu(
            AluOp::SatAdd,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[-50, 32767]);
        m.execute(&alu(
            AluOp::Sub,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[-150, 20000]);
    }

    #[test]
    fn avg_matches_paper_lpf_step() {
        let mut m = machine();
        m.host_write_lanes(0, &[10, 20, 30, 40]).unwrap();
        m.host_write_lanes(1, &[20, 40, 10, 0]).unwrap();
        m.execute(&alu(
            AluOp::Avg,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..4], &[15, 30, 20, 20]);
        // fused shifted average: (C[i] + C[i+1]) / 2
        m.execute(&Writeback { row: 2 }).unwrap();
        m.execute(&alu(
            AluOp::Avg,
            Operand::Row(2),
            Operand::Row(2),
            Shift::Pix(1),
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..3], &[22, 25, 20]);
    }

    #[test]
    fn abs_diff_and_multi_cycle_cost() {
        let mut m = machine();
        m.host_write_lanes(0, &[10, 200]).unwrap();
        m.host_write_lanes(1, &[30, 50]).unwrap();
        let before = m.stats().cycles;
        m.execute(&alu(
            AluOp::AbsDiff,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[20, 150]);
        assert_eq!(m.stats().cycles - before, 3);
    }

    #[test]
    fn min_max_two_cycles() {
        let mut m = machine();
        m.host_write_lanes(0, &[10, 200]).unwrap();
        m.host_write_lanes(1, &[30, 50]).unwrap();
        let c0 = m.stats().cycles;
        m.execute(&alu(
            AluOp::Max,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[30, 200]);
        assert_eq!(m.stats().cycles - c0, 2);
        m.execute(&alu(
            AluOp::Min,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[10, 50]);
    }

    #[test]
    fn mul_cost_is_n_plus_one_before_writeback() {
        let mut m = machine();
        m.host_write_lanes(0, &[13, 7]).unwrap();
        m.host_write_lanes(1, &[11, 9]).unwrap();
        let c0 = m.stats().cycles;
        m.execute(&Mul {
            a: Operand::Row(0),
            b: Operand::Row(1),
            signed: false,
        })
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[143, 63]);
        assert_eq!(m.stats().cycles - c0, 9); // 8-bit: n+1 = 9
        assert_eq!(m.tmp_bits(), 16);
        m.execute(&Writeback { row: 5 }).unwrap();
        assert_eq!(m.stats().cycles - c0, 10); // n+2 with write-back
    }

    #[test]
    fn mul_signed_values() {
        let mut m = machine();
        m.set_lanes(LaneWidth::W16, Signedness::Signed);
        m.host_write_lanes(0, &[-300, 250]).unwrap();
        m.host_write_lanes(1, &[40, -40]).unwrap();
        m.execute(&Mul {
            a: Operand::Row(0),
            b: Operand::Row(1),
            signed: true,
        })
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[-12000, -10000]);
        assert_eq!(m.tmp_bits(), 32);
    }

    #[test]
    fn div_matches_fig7d() {
        let mut m = machine();
        m.host_write_lanes(0, &[15, 143]).unwrap();
        m.host_write_lanes(1, &[6, 11]).unwrap();
        let c0 = m.stats().cycles;
        m.execute(&DivFrac {
            a: Operand::Row(0),
            b: Operand::Row(1),
            frac: 0,
            signed: false,
        })
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[2, 13]);
        assert_eq!(m.stats().cycles - c0, 9); // 8-bit: n+1 = 9
        assert_eq!(m.tmp_bits(), 8);
    }

    #[test]
    fn div_by_zero_saturates() {
        let mut m = machine();
        m.host_write_lanes(0, &[15]).unwrap();
        m.host_write_lanes(1, &[0]).unwrap();
        m.execute(&DivFrac {
            a: Operand::Row(0),
            b: Operand::Row(1),
            frac: 0,
            signed: false,
        })
        .unwrap();
        assert_eq!(m.tmp_lanes()[0], 255);
    }

    #[test]
    fn shift_pix_semantics() {
        let mut m = machine();
        m.host_write_lanes(0, &[1, 2, 3, 4]).unwrap();
        m.execute(&ShiftPix {
            a: Operand::Row(0),
            pix: 1,
        })
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..4], &[2, 3, 4, 5 - 5]);
        m.execute(&ShiftPix {
            a: Operand::Row(0),
            pix: -1,
        })
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..4], &[0, 1, 2, 3]);
    }

    /// The lane codec at every width × signedness: boundary values
    /// written by the host come back through Tmp loads, lane shifts
    /// (stand-alone and fused onto a Tmp operand), write-back and host
    /// reads exactly as a scalar model predicts.
    #[test]
    fn lane_codec_matrix() {
        use LaneWidth::{W16, W32, W64, W8};
        use Signedness::{Signed, Unsigned};
        // scalar model: the lane's stored bit pattern, and its value
        fn raw(v: i64, bits: u32) -> i64 {
            let sh = 64 - bits;
            ((v as u64) << sh >> sh) as i64
        }
        fn value(v: i64, bits: u32, sign: Signedness) -> i64 {
            let sh = 64 - bits;
            match sign {
                Unsigned => raw(v, bits),
                Signed => (v << sh) >> sh,
            }
        }
        fn shifted(v: &[i64], pix: i32) -> Vec<i64> {
            (0..v.len() as i64)
                .map(|i| usize::try_from(i + i64::from(pix)).map_or(0, |j| *v.get(j).unwrap_or(&0)))
                .collect()
        }
        let or = AluOp::Logic(LogicFunc::Or);
        for width in [W8, W16, W32, W64] {
            for sign in [Unsigned, Signed] {
                let mut m = machine();
                m.set_lanes(width, sign);
                let bits = width.bits();
                let lanes = m.lanes();
                let top = 1i64 << (bits - 1); // sign bit only (i64::MIN at 64)
                let (min, max) = match sign {
                    Unsigned => (0, raw(-1, bits)),
                    Signed => (top, !top),
                };
                let pattern = [0, 1, -1, min, max, top, 7];
                let vals: Vec<i64> = (0..lanes).map(|i| pattern[i % pattern.len()]).collect();
                let want: Vec<i64> = vals.iter().map(|&v| value(v, bits, sign)).collect();
                let want_raw: Vec<i64> = vals.iter().map(|&v| raw(v, bits)).collect();
                let ctx = format!("{width:?} {sign:?}");

                m.host_write_lanes(0, &vals).unwrap();
                assert_eq!(m.host_read_lanes(0).unwrap(), want, "{ctx} host round trip");
                m.host_broadcast(1, 0).unwrap();
                if width == W64 && sign == Unsigned {
                    // host I/O only: no compute on unsigned 64-bit lanes
                    let load = alu(or, Operand::Row(0), Operand::Row(0), Shift::None);
                    assert_eq!(m.execute(&load), Err(PimError::UnsignedW64), "{ctx}");
                    continue;
                }
                for pix in [1, -1, lanes as i32 - 1, 1 - lanes as i32] {
                    let ctx = format!("{ctx} pix {pix}");
                    // logic ops yield the stored bit pattern
                    m.execute(&alu(or, Operand::Row(0), Operand::Row(0), Shift::None))
                        .unwrap();
                    assert_eq!(m.tmp_lanes(), &want_raw[..], "{ctx} load");
                    m.execute(&ShiftPix {
                        a: Operand::Tmp,
                        pix,
                    })
                    .unwrap();
                    assert_eq!(m.tmp_lanes(), &shifted(&want_raw, pix)[..], "{ctx} shift");
                    m.execute(&Writeback { row: 2 }).unwrap();
                    assert_eq!(
                        m.host_read_lanes(2).unwrap(),
                        shifted(&want, pix),
                        "{ctx} write-back"
                    );
                    // fused pre-shift of a Tmp operand, OR'd with zeros
                    m.execute(&alu(or, Operand::Row(0), Operand::Row(0), Shift::None))
                        .unwrap();
                    m.execute(&alu(or, Operand::Row(1), Operand::Tmp, Shift::Pix(pix)))
                        .unwrap();
                    assert_eq!(m.tmp_lanes(), &shifted(&want_raw, pix)[..], "{ctx} fused");
                    // stand-alone shift of a row decodes the lane values
                    m.execute(&ShiftPix {
                        a: Operand::Row(0),
                        pix,
                    })
                    .unwrap();
                    assert_eq!(m.tmp_lanes(), &shifted(&want, pix)[..], "{ctx} row shift");
                }
            }
        }
    }

    /// The `i16` lane helpers return what the `i64` ones do on every
    /// value a `LaneClass::I16` program can produce (`|v| <= 511`), at
    /// every width and signedness those programs use.
    #[test]
    fn i16_lane_helpers_match_i64() {
        use Signedness::{Signed, Unsigned};
        for v in -511i64..=511 {
            let n = v as i16;
            for bits in 1..=8 {
                for sign in [Unsigned, Signed] {
                    let ctx = format!("v {v} bits {bits} {sign:?}");
                    assert_eq!(
                        n.wrap(bits, sign).to_i64(),
                        v.wrap(bits, sign),
                        "wrap {ctx}"
                    );
                    let (lo, hi) = sat_range::<i16>(bits, sign);
                    assert_eq!(
                        n.max(lo).min(hi).to_i64(),
                        clamp(v, bits, sign),
                        "sat {ctx}"
                    );
                }
            }
            for y in [-511i64, -3, 0, 7, 511] {
                let ctx = format!("{v} {y}");
                let (m, w) = (y as i16, y);
                assert_eq!(n.avg(m).to_i64(), w.avg(v), "avg {ctx}");
                assert_eq!(n.saturating_add(m).to_i64(), v + w, "sat add {ctx}");
                assert_eq!(n.saturating_sub(m).to_i64(), v - w, "sat sub {ctx}");
                assert_eq!(
                    n.abs_diff_at_most(m, 255).to_i64(),
                    (v - w).abs().min(255),
                    "abs diff {ctx}"
                );
            }
            for k in 0..16 {
                assert_eq!((n >> k).to_i64(), v >> k, "shr {v} {k}");
                if v >= 0 {
                    assert_eq!(
                        n.shr_logical(k).to_i64(),
                        v.shr_logical(k),
                        "shr_logical {v} {k}"
                    );
                }
            }
            let mask = 0xFF;
            for f in [
                LogicFunc::And,
                LogicFunc::Nor,
                LogicFunc::Xor,
                LogicFunc::Or,
            ] {
                let y = 255 - v;
                let wide = f.apply(v & mask, y & mask) & mask;
                let narrow = f.apply(n & mask as i16, y as i16 & mask as i16) & mask as i16;
                assert_eq!(narrow.to_i64(), wide, "{f:?} {v}");
            }
        }
    }

    /// `mul_signed` and `div_frac_signed` keep the `i128` results at
    /// the Tmp extremes: `i64::MIN`/`MAX` dividends and factors,
    /// negative dividends, and zero and ±1 divisors (a zero divisor
    /// saturates to the dividend's sign).
    #[test]
    fn signed_mul_and_frac_div_match_i128_at_extremes() {
        let xs = [
            i64::MIN,
            i64::MIN + 1,
            -(1 << 40) - 3,
            -7,
            -1,
            0,
            1,
            (1 << 40) + 5,
            i64::MAX - 1,
            i64::MAX,
        ];
        let ys = [0, 1, -1, 3, -7, 1 << 33, i64::MIN, i64::MAX];
        let pairs: Vec<(i64, i64)> = xs.iter().flat_map(|&x| ys.map(|y| (x, y))).collect();
        let or = AluOp::Logic(LogicFunc::Or);
        let mut m = machine();
        m.set_lanes(LaneWidth::W64, Signedness::Signed);
        for chunk in pairs.chunks(m.lanes()) {
            let (x, y): (Vec<i64>, Vec<i64>) = chunk.iter().copied().unzip();
            m.host_write_lanes(0, &x).unwrap();
            m.host_write_lanes(1, &y).unwrap();
            // the dividend/multiplicand comes from the Tmp Reg
            m.execute(&alu(or, Operand::Row(0), Operand::Row(0), Shift::None))
                .unwrap();
            m.execute(&Mul {
                a: Operand::Tmp,
                b: Operand::Row(1),
                signed: true,
            })
            .unwrap();
            for (i, &(x, y)) in chunk.iter().enumerate() {
                assert_eq!(
                    m.tmp_lanes()[i],
                    (x as i128 * y as i128) as i64,
                    "{x} * {y}"
                );
            }
            for frac in [0, 1, 4, 12, 31, 62, 63] {
                m.execute(&alu(or, Operand::Row(0), Operand::Row(0), Shift::None))
                    .unwrap();
                m.execute(&DivFrac {
                    a: Operand::Tmp,
                    b: Operand::Row(1),
                    frac: frac,
                    signed: true,
                })
                .unwrap();
                for (i, &(x, y)) in chunk.iter().enumerate() {
                    let want = match y {
                        0 if x >= 0 => i64::MAX,
                        0 => i64::MIN,
                        _ => (((x as i128) << frac) / y as i128) as i64,
                    };
                    assert_eq!(m.tmp_lanes()[i], want, "({x} << {frac}) / {y}");
                }
            }
        }
    }

    #[test]
    fn cmp_produces_mask() {
        let mut m = machine();
        m.host_write_lanes(0, &[10, 50]).unwrap();
        m.host_write_lanes(1, &[30, 20]).unwrap();
        m.execute(&alu(
            AluOp::CmpGt,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap();
        assert_eq!(&m.tmp_lanes()[..2], &[0, 255]);
    }

    #[test]
    fn tmp_chaining_avoids_sram_reads() {
        let mut m = machine();
        m.host_write_lanes(0, &[1, 2]).unwrap();
        m.execute(&alu(
            AluOp::Logic(LogicFunc::Or),
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        let r0 = m.stats().sram_reads;
        m.execute(&alu(AluOp::Add, Operand::Tmp, Operand::Tmp, Shift::None))
            .unwrap();
        assert_eq!(m.stats().sram_reads, r0); // register-resident
        assert_eq!(&m.tmp_lanes()[..2], &[2, 4]);
    }

    #[test]
    fn writeback_persists_and_costs() {
        let mut m = machine();
        m.host_write_lanes(0, &[7, 8]).unwrap();
        m.execute(&alu(
            AluOp::Logic(LogicFunc::Or),
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        m.execute(&Writeback { row: 3 }).unwrap();
        assert_eq!(m.stats().sram_writes, 1);
        assert_eq!(&m.host_read_lanes(3).unwrap()[..2], &[7, 8]);
    }

    #[test]
    fn reduce_sums_lanes() {
        let mut m = machine();
        m.set_lanes(LaneWidth::W32, Signedness::Signed);
        let vals: Vec<i64> = (1..=80).collect();
        m.host_write_lanes(0, &vals).unwrap();
        m.execute(&alu(
            AluOp::Logic(LogicFunc::Or),
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        let s = m.execute(&Reduce).unwrap().unwrap();
        assert_eq!(s, 80 * 81 / 2);
        // ceil(log2(80)) = 7 steps
        let red_cycles = 7;
        assert!(m.stats().cycles >= red_cycles);
    }

    /// The strided tree [`MachineInstr::Reduce`] ran before its
    /// one-pass rewrite, kept as the oracle: pairwise adds at doubling
    /// strides, each wrapped at the Tmp width, the sum ending in lane 0.
    /// The adds wrap at 64 bits, as the release build's did.
    fn tree_sum(lanes: &mut [i64], bits: u32, sign: Signedness) -> i64 {
        let n = lanes.len();
        let mut stride = 1usize;
        while stride < n {
            for i in (0..n).step_by(stride * 2) {
                let other = if i + stride < n { lanes[i + stride] } else { 0 };
                lanes[i] = wrap(lanes[i].wrapping_add(other), bits, sign);
            }
            stride *= 2;
        }
        lanes[0]
    }

    const WIDTHS: [LaneWidth; 4] = [
        LaneWidth::W8,
        LaneWidth::W16,
        LaneWidth::W32,
        LaneWidth::W64,
    ];
    const SIGNS: [Signedness; 2] = [Signedness::Signed, Signedness::Unsigned];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For every lane count 1..=320, every lane width and sign and a
        /// random Tmp width of at least the lane width: the one-pass sum
        /// equals the tree's lane 0. Lanes hold values at the Tmp width
        /// (what a machine leaves there), half of them drawn from the
        /// range's extremes so the sum wraps, plus raw 64-bit values
        /// for the one-lane case, which no step touches.
        #[test]
        fn one_pass_sum_equals_the_strided_tree(seed in any::<u64>()) {
            let mut s = seed | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for lanes in 1..=320usize {
                for width in WIDTHS {
                    for sign in SIGNS {
                        let bits = width.bits() + (next() % u64::from(65 - width.bits())) as u32;
                        // the extremes of the Tmp range: min and max
                        // are one apart modulo 2^bits
                        let top = 1i64 << (bits - 1);
                        let (lo, hi) = match sign {
                            Signedness::Signed => (wrap(top, bits, sign), wrap(top.wrapping_sub(1), bits, sign)),
                            Signedness::Unsigned => (0, wrap(-1, bits, sign)),
                        };
                        let mut vals: Vec<i64> = (0..lanes)
                            .map(|_| match next() % 4 {
                                0 => lo,
                                1 => hi,
                                _ => wrap(next() as i64, bits, sign),
                            })
                            .collect();
                        if lanes == 1 {
                            vals[0] = next() as i64;
                        }
                        let got = lane_sum(&vals, bits, sign);
                        let want = tree_sum(&mut vals, bits, sign);
                        prop_assert_eq!(got, want, "{} lanes, {:?} {:?}, tmp {} bits", lanes, width, sign, bits);
                    }
                }
            }
        }

        /// On a machine: for every lane width and sign, a Tmp Reg left
        /// by an add or a multiply over random rows reduces to the
        /// tree's lane 0, lane 0 then holds the sum and every other lane
        /// keeps its value, and the charge is `ceil(log2(lanes))` steps.
        #[test]
        fn reduce_sum_keeps_its_value_charge_and_tmp_contract(seed in any::<u64>(), lanes in 1..=320usize) {
            let mut s = seed | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for width in WIDTHS {
                for sign in SIGNS {
                    let cfg = ArrayConfig { rows: 4, row_bits: lanes * width.bits() as usize };
                    let mut m = PimMachine::new(cfg);
                    m.set_lanes(width, sign);
                    if width == LaneWidth::W64 && sign == Signedness::Unsigned {
                        continue; // no unsigned compute at 64 bits
                    }
                    for row in 0..2 {
                        let vals: Vec<i64> = (0..lanes).map(|_| next() as i64).collect();
                        m.host_write_lanes(row, &vals).unwrap();
                    }
                    let (r0, r1) = (Operand::Row(0), Operand::Row(1));
                    let instr = match (next() % 3, width) {
                        (0, _) | (_, LaneWidth::W64) => alu(AluOp::Add, r0, r1, Shift::None),
                        (1, _) => Mul { a: r0, b: r1, signed: false },
                        _ => Mul { a: r0, b: r1, signed: true },
                    };
                    m.execute(&instr).unwrap();
                    let before_tmp = m.tmp_lanes().to_vec();
                    let before = m.stats().clone();
                    let sum = m.execute(&Reduce).unwrap().unwrap();
                    let want = tree_sum(&mut before_tmp.clone(), m.tmp_bits(), sign);
                    prop_assert_eq!(sum, want, "{} lanes, {:?} {:?}", lanes, width, sign);
                    prop_assert_eq!(m.tmp_lanes()[0], sum);
                    prop_assert_eq!(&m.tmp_lanes()[1..], &before_tmp[1..]);
                    let d = m.stats().try_since(&before).unwrap();
                    let steps = u64::from(usize::BITS - (lanes - 1).leading_zeros());
                    prop_assert_eq!((d.cycles, d.acc_ops, d.tmp_accesses), (steps, steps, 2 * steps));
                    prop_assert_eq!(d.op_histogram.iter().collect::<Vec<_>>(), vec![(OpKind::Reduce, 1)]);
                }
            }
        }
    }

    #[test]
    fn gather_costs_one_cycle_per_element() {
        let mut m = machine();
        m.host_write_lanes(4, &[9, 8, 7]).unwrap();
        let c0 = m.stats().cycles;
        let vals = m.gather(&[(4, 0), (4, 2)]).unwrap();
        assert_eq!(vals, vec![9, 7]);
        assert_eq!(m.stats().cycles - c0, 2);
        assert_eq!(m.stats().sram_reads, 2);
        // one lane decoded at the current width and sign; a lane past
        // the word line reads zero but still costs its cycle
        m.set_lanes(LaneWidth::W16, Signedness::Signed);
        m.host_write_lanes(5, &[-2, 300]).unwrap();
        let vals = m.gather(&[(5, 1), (5, 0), (5, 160)]).unwrap();
        assert_eq!(vals, vec![300, -2, 0]);
        assert_eq!(m.stats().sram_reads, 5);
    }

    #[test]
    fn bad_row_is_an_error() {
        let mut m = machine();
        let err = m
            .execute(&alu(
                AluOp::Add,
                Operand::Row(9999),
                Operand::Tmp,
                Shift::None,
            ))
            .unwrap_err();
        assert_eq!(
            err,
            PimError::RowOutOfRange {
                row: 9999,
                rows: 256
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert_eq!(m.stats().cycles, 0, "nothing charged");
    }

    #[test]
    fn host_write_bytes_validates() {
        let mut m = machine();
        assert!(m.host_write_bytes(300, &[0]).is_err());
        assert!(m.host_write_bytes(0, &vec![0u8; 400]).is_err());
        assert!(m.host_write_bytes(0, &[1, 2, 3]).is_ok());
    }

    #[test]
    fn wrap_and_clamp() {
        use Signedness::{Signed, Unsigned};
        assert_eq!(wrap(128, 8, Signed), -128);
        assert_eq!(wrap(-129, 8, Signed), 127);
        assert_eq!(clamp(128, 8, Signed), 127);
        assert_eq!(clamp(-300, 8, Signed), -128);
        assert_eq!(wrap(256, 8, Unsigned), 0);
        assert_eq!(clamp(-5, 8, Unsigned), 0);
        assert_eq!(clamp(300, 8, Unsigned), 255);
    }

    #[test]
    fn clamps_are_exact_at_every_width() {
        let vals = [
            i64::MIN,
            i64::MIN + 1,
            -300,
            -1,
            0,
            1,
            300,
            i64::MAX - 1,
            i64::MAX,
        ];
        for bits in 1..=64u32 {
            let (lo, hi) = (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1);
            let umax = (1i128 << bits) - 1;
            for v in vals {
                let w = i128::from(v);
                assert_eq!(
                    i128::from(clamp(v, bits, Signedness::Signed)),
                    w.clamp(lo, hi),
                    "{v} s{bits}"
                );
                assert_eq!(
                    i128::from(clamp(v, bits, Signedness::Unsigned)),
                    w.clamp(0, umax),
                    "{v} u{bits}"
                );
            }
        }
    }

    proptest! {
        /// A signed wrap is idempotent and agrees with the clamp for
        /// in-range values.
        #[test]
        fn wrap_signed_idempotent(v in any::<i32>(), bits in 2u32..32) {
            let w = wrap(v as i64, bits, Signedness::Signed);
            prop_assert_eq!(wrap(w, bits, Signedness::Signed), w);
            if w == v as i64 {
                prop_assert_eq!(clamp(v as i64, bits, Signedness::Signed), v as i64);
            }
        }
    }
}

#[cfg(test)]
mod multireg_tests {
    use super::tests::alu;
    use super::*;
    use crate::config::ArrayConfig;
    use crate::isa::LogicFunc;
    use MachineInstr::{SaveTmp, Writeback};

    #[test]
    fn second_register_holds_values() {
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.set_tmp_regs(2);
        assert_eq!(m.tmp_reg_count(), 2);
        m.host_write_lanes(0, &[5, 9]).unwrap();
        m.host_write_lanes(1, &[2, 3]).unwrap();
        m.execute(&alu(
            AluOp::Add,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap(); // tmp = [7, 12]
        m.execute(&SaveTmp { idx: 1 }).unwrap();
        m.execute(&alu(
            AluOp::Sub,
            Operand::Row(0),
            Operand::Row(1),
            Shift::None,
        ))
        .unwrap(); // tmp = [3, 6]
        m.execute(&alu(AluOp::Add, Operand::Tmp, Operand::Reg(1), Shift::None))
            .unwrap(); // [10, 18]
        assert_eq!(&m.tmp_lanes()[..2], &[10, 18]);
    }

    #[test]
    fn save_tmp_costs_one_register_cycle_no_sram() {
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.set_tmp_regs(3);
        m.host_write_lanes(0, &[1]).unwrap();
        m.execute(&alu(
            AluOp::Logic(LogicFunc::Or),
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        let (c0, r0, w0) = (
            m.stats().cycles,
            m.stats().sram_reads,
            m.stats().sram_writes,
        );
        m.execute(&SaveTmp { idx: 2 }).unwrap();
        assert_eq!(m.stats().cycles - c0, 1);
        assert_eq!(m.stats().sram_reads, r0);
        assert_eq!(m.stats().sram_writes, w0);
    }

    #[test]
    fn register_elides_writeback_roundtrip() {
        // the point of the §5.4 extension: reg save+use is cheaper than
        // writeback + re-read
        let mut with_reg = PimMachine::new(ArrayConfig::qvga());
        with_reg.set_tmp_regs(2);
        with_reg.host_write_lanes(0, &[10, 20]).unwrap();
        with_reg.host_write_lanes(1, &[1, 2]).unwrap();
        with_reg
            .execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(1),
                Shift::None,
            ))
            .unwrap();
        with_reg.execute(&SaveTmp { idx: 1 }).unwrap();
        with_reg
            .execute(&alu(
                AluOp::Sub,
                Operand::Row(0),
                Operand::Row(1),
                Shift::None,
            ))
            .unwrap();
        with_reg
            .execute(&alu(AluOp::Add, Operand::Tmp, Operand::Reg(1), Shift::None))
            .unwrap();
        let a = with_reg.tmp_lanes()[..2].to_vec();

        let mut with_wb = PimMachine::new(ArrayConfig::qvga());
        with_wb.host_write_lanes(0, &[10, 20]).unwrap();
        with_wb.host_write_lanes(1, &[1, 2]).unwrap();
        with_wb
            .execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(1),
                Shift::None,
            ))
            .unwrap();
        with_wb.execute(&Writeback { row: 5 }).unwrap();
        with_wb
            .execute(&alu(
                AluOp::Sub,
                Operand::Row(0),
                Operand::Row(1),
                Shift::None,
            ))
            .unwrap();
        with_wb
            .execute(&alu(AluOp::Add, Operand::Tmp, Operand::Row(5), Shift::None))
            .unwrap();
        assert_eq!(a, with_wb.tmp_lanes()[..2]);

        let er = with_reg.stats().energy(&crate::CostModel::default());
        let ew = with_wb.stats().energy(&crate::CostModel::default());
        assert!(
            er.total_pj() < ew.total_pj(),
            "{} vs {}",
            er.total_pj(),
            ew.total_pj()
        );
        assert!(with_reg.stats().sram_writes < with_wb.stats().sram_writes);
    }

    #[test]
    fn unenabled_register_is_an_error() {
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.host_write_lanes(0, &[1]).unwrap();
        m.execute(&alu(
            AluOp::Logic(LogicFunc::Or),
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        let err = m.execute(&SaveTmp { idx: 1 }).unwrap_err();
        assert_eq!(err, PimError::RegisterNotEnabled { idx: 1, enabled: 1 });
        assert!(err.to_string().contains("not enabled"));
    }

    #[test]
    fn reading_empty_register_is_an_error() {
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.set_tmp_regs(2);
        m.host_write_lanes(0, &[1]).unwrap();
        let err = m
            .execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Reg(1),
                Shift::None,
            ))
            .unwrap_err();
        assert_eq!(err, PimError::RegisterEmpty { idx: 1 });
        assert!(err.to_string().contains("before being written"));
    }
}

//! Sharded multi-array execution: [`PimArrayPool`].
//!
//! The paper evaluates a single (320·8)×256-bit macro, but a deployed
//! PIM cache tiles many of them. The pool owns N independent
//! [`PimMachine`] arrays and runs *waves*: disjoint shards of a kernel,
//! one per array. The simulated arrays run a wave concurrently; the
//! host runs its shards one after another on the calling thread, in
//! array order. (A scoped worker thread per array took longer in wall
//! time than this loop on a two-array pool: at these shard sizes the
//! spawn and join cost more than the overlap saved.)
//!
//! Accounting stays deterministic and paper-faithful:
//!
//! * **Energy / op counts** are the per-array [`ExecStats`] merged by
//!   summation ([`PimArrayPool::merged_stats`]); the work performed is
//!   identical to single-array execution, it is only distributed.
//! * **Wall cycles** ([`PimArrayPool::wall_cycles`]) advance per phase
//!   by the *maximum* per-array cycle delta (the barrier waits for the
//!   slowest shard), plus [`CostModel::pool_sync_cycles`] per barrier
//!   when more than one array participates — so a pool of one is
//!   cycle-identical to a bare machine.
//!
//! Host scheduling can never perturb results: each closure owns its
//! array exclusively for the duration of its shard, and cycle deltas
//! are computed from per-array counters after the barrier, in array
//! order.
//!
//! # Two entry points
//!
//! Every frame runs as fixed array-wide kernel phases, and the pool has
//! one entry point per kind of phase. Both share one private wave core
//! (the in-order shard loop, the max + sync wall-clock charge and the
//! op-trace barrier):
//!
//! * [`PimArrayPool::submit_strips`] runs one lowered program per
//!   array, on *every* array, quarantined or not, with no retry. Strip
//!   kernels host-load their inputs into specific arrays before the
//!   submission, so a strip cannot move to another array.
//! * [`PimArrayPool::run_phase`] runs a self-contained closure per
//!   *healthy* array, with fault detection and recovery.
//!
//! # Fault resilience
//!
//! When arrays carry a [`crate::FaultModel`] with word
//! [`crate::Protection`], the pool is the recovery layer:
//! [`PimArrayPool::run_phase`] runs *self-contained* shard
//! closures, checks each array's detected-error counter after the
//! barrier, retries dirty shards on the same array (at most
//! `MAX_RETRIES` = 2 times), and — when the per-row syndrome log
//! says the failure is persistent (a stuck-at defect, not a transient
//! storm) — quarantines the array and re-dispatches the shard to a
//! healthy one. [`PimArrayPool::health`] reports the per-array fault
//! counters, each array's [`ArrayState`] and the retry/re-dispatch
//! totals.
//! Arrays can also be quarantined manually
//! ([`PimArrayPool::try_quarantine`]) e.g. from a manufacturing test;
//! dispatch then simply skips them.
//!
//! # Rehabilitation (scrub / remap / probation)
//!
//! Quarantine alone makes capacity monotonically shrink. The scrub
//! pass ([`PimArrayPool::scrub_now`], run by the host's maintenance
//! cadence) is the repair driver: it march-tests every row of each
//! quarantined array with test patterns ([`PimMachine::scrub_row`]),
//! remaps rows that fail to the array's spare-row region
//! ([`PimMachine::remap_row`]), and — when every row finally verifies
//! clean — clears the fault counters and re-admits the array through a
//! *probation* state: the array is dispatched again, but each resilient
//! phase charges it a verify-on-read patrol and any new detected error
//! restarts the probation countdown. After [`crate::PROBATION_PHASES`] = 3
//! clean phases the array regains full membership. Every membership
//! change goes through one transition function, whose table is in
//! [`crate::health`]. Scrubbing destroys the
//! array contents (re-admitted arrays come back zero-filled), which is
//! safe because resilient shards are self-contained. An array whose
//! defects outnumber its spares fails its scrub and stays quarantined.

use crate::cache::LoweredCache;
use crate::dma::{DmaConfig, DmaFaultModel, DmaHealth};
use crate::health::{ArrayEvent, ArrayState, PoolHealth, PoolSnapshot};
use crate::lower::LoweredProgram;
use crate::machine::{PimError, PimMachine, PimMachineBuilder};
use crate::optrace::OpRecorder;
use crate::stats::ExecStats;
use pimvo_telemetry::optrace::{OpTrace, DMA_LANE_BASE, POOL_STREAM};
use pimvo_telemetry::{Severity, Telemetry, TimeDomain};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a serving-layer session (tenant). The pool only uses it
/// as an attribution tag on op records ([`PimArrayPool::set_op_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

/// Bounded retries of a dirty shard on the *same* array before
/// [`PimArrayPool::run_phase`] considers stronger measures.
const MAX_RETRIES: u32 = 2;

/// Detected-error events on one row (within a single phase, including
/// its retries) at which a failure is classified as persistent — a
/// stuck-at defect — and the array is quarantined. Below the threshold
/// a still-dirty shard is accepted as degraded output (a transient
/// upset storm cannot be retried away).
const STUCK_ROW_THRESHOLD: u64 = 3;

/// March-test patterns of one scrub pass, in order: alternating bit
/// patterns catch stuck-at and simple coupling defects; the final
/// all-zeros pass doubles as the row clear a re-admitted array starts
/// from.
const SCRUB_PATTERNS: [u8; 3] = [0x55, 0xAA, 0x00];

/// A pool of N identical PIM arrays executing kernel shards as one
/// simulated parallel wave.
///
/// Construct through [`PimMachineBuilder::build_pool`] so every member
/// array shares one configuration:
///
/// ```
/// use pimvo_pim::{AluOp, ArrayConfig, MachineInstr, Operand, PimMachineBuilder, Shift};
///
/// let mut pool = PimMachineBuilder::new(ArrayConfig::qvga()).build_pool(2);
/// pool.array_mut(0).host_write_lanes(0, &[1, 2]).unwrap();
/// pool.array_mut(1).host_write_lanes(0, &[3, 4]).unwrap();
/// let (a, b, shift) = (Operand::Row(0), Operand::Row(0), Shift::None);
/// let double = MachineInstr::Alu { op: AluOp::Add, a, b, shift };
/// let sums: Vec<i64> = pool
///     .run_phase("sum", |_idx, m| {
///         m.execute(&double).unwrap();
///         m.tmp_lanes()[0]
///     })
///     .unwrap();
/// assert_eq!(sums, vec![2, 6]);
/// // both shards ran one compute cycle on top of their (equal) host
/// // strip-load transfer; the barrier charges one sync overhead
/// let io = pool.array(0).cost_model().transfer_cycles(2);
/// assert_eq!(pool.wall_cycles(), io + 1 + pool.sync_cycles());
/// ```
#[derive(Debug)]
pub struct PimArrayPool {
    arrays: Vec<PimMachine>,
    wall_cycles: u64,
    sync_cycles: u64,
    barriers: u64,
    /// Per-array timeline watermark: how much of each array's
    /// [`PimMachine::timeline`] the wall clock has already absorbed.
    /// Host I/O and DMA stalls between waves (strip loads through
    /// [`PimArrayPool::array_mut`]) are picked up at the array's next
    /// barrier; maintenance-port work (scrub) bumps the watermark
    /// without advancing the wall.
    seen: Vec<u64>,
    /// Each array's membership; changed only through
    /// [`ArrayState::next`] and [`ArrayState::restored`].
    states: Vec<ArrayState>,
    retries: u64,
    redispatches: u64,
    dirty_accepted: u64,
    scrubs: u64,
    rehabilitations: u64,
    telemetry: Telemetry,
    /// Pool-stream op recorder (barrier records); `Some` iff the
    /// per-array recorders are armed too.
    op_sync: Option<Box<OpRecorder>>,
    /// Ring capacity passed to [`PimArrayPool::arm_op_recorders`], kept
    /// so a DMA channel installed later gets an equally sized lane.
    op_capacity: usize,
    /// Memo table for lowered programs; defaults to a clone of the
    /// process-wide [`LoweredCache::global`] handle.
    lowered: LoweredCache,
    /// Every array index in order: the members of a strip phase.
    all: Vec<usize>,
    /// The last wave's per-member cycle deltas, in member order (a
    /// buffer reused across waves).
    deltas: Vec<u64>,
}

impl PimArrayPool {
    /// Builds a pool of `n` arrays stamped from one builder
    /// configuration. Prefer the [`PimMachineBuilder::build_pool`]
    /// spelling.
    ///
    /// # Panics
    ///
    /// Panics for `n == 0`.
    pub fn from_builder(builder: &PimMachineBuilder, n: usize) -> Self {
        assert!(n >= 1, "a pool needs at least one array");
        let mut arrays: Vec<PimMachine> = (0..n).map(|_| builder.build()).collect();
        // fork the fault stream per array: physically distinct macros do
        // not see identical upset sequences (a no-op for inert models)
        for (i, m) in arrays.iter_mut().enumerate() {
            m.reseed_faults(i as u64);
        }
        let sync_cycles = arrays[0].cost_model().pool_sync_cycles;
        PimArrayPool {
            states: vec![ArrayState::Active { scrubbed: false }; n],
            arrays,
            wall_cycles: 0,
            sync_cycles,
            barriers: 0,
            seen: vec![0; n],
            retries: 0,
            redispatches: 0,
            dirty_accepted: 0,
            scrubs: 0,
            rehabilitations: 0,
            telemetry: Telemetry::off(),
            op_sync: None,
            op_capacity: 0,
            lowered: LoweredCache::global().clone(),
            all: (0..n).collect(),
            deltas: Vec::with_capacity(n),
        }
    }

    /// Replaces the pool's lowered-program cache handle. Kernel entry
    /// points lower through this cache, so a fleet sharing one handle
    /// across its pools lowers each distinct program exactly once.
    pub fn set_lowered_cache(&mut self, cache: LoweredCache) {
        self.lowered = cache;
    }

    /// The pool's lowered-program cache handle.
    #[must_use]
    pub fn lowered_cache(&self) -> &LoweredCache {
        &self.lowered
    }

    /// Attaches a telemetry handle: labeled phases then record
    /// pool-phase and per-shard cycle-domain spans, and the resilient
    /// path records retry/quarantine/re-dispatch events. The default
    /// handle is off ([`Telemetry::off`]) and costs one branch per phase.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (off by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Arms an op-record ring of `capacity` records on every array plus
    /// a pool sync stream that records one barrier per wall-clock
    /// advance. Off by default; while disarmed every result, cycle and
    /// picojoule is identical to a build without the recorder.
    pub fn arm_op_recorders(&mut self, capacity: usize) {
        let n = self.arrays.len();
        for (i, m) in self.arrays.iter_mut().enumerate() {
            m.arm_op_recorder(i as u16, capacity);
        }
        // the sync stream takes namespace `n` (one past the arrays) so
        // its ids never collide with a machine stream's
        self.op_sync = Some(Box::new(OpRecorder::with_stream(
            n as u16,
            POOL_STREAM,
            capacity,
        )));
        self.op_capacity = capacity;
        self.arm_dma_lanes();
    }

    /// Arms one op-trace lane per installed DMA channel: stream
    /// namespace `n + 1 + i` (past the arrays and the sync stream),
    /// stamped `DMA_LANE_BASE | i` so the profiler renders a `dma i`
    /// lane. No-op for arrays without a channel.
    fn arm_dma_lanes(&mut self) {
        let n = self.arrays.len();
        for (i, m) in self.arrays.iter_mut().enumerate() {
            m.arm_dma_recorder(
                (n + 1 + i) as u16,
                DMA_LANE_BASE | i as u16,
                self.op_capacity,
            );
        }
    }

    /// Disarms the recorders armed by [`PimArrayPool::arm_op_recorders`],
    /// DMA lanes included, discarding any buffered records.
    pub fn disarm_op_recorders(&mut self) {
        for m in &mut self.arrays {
            m.disarm_op_recorder();
            m.disarm_dma_recorder();
        }
        self.op_sync = None;
    }

    /// Whether [`PimArrayPool::arm_op_recorders`] is in effect.
    pub fn op_recorders_armed(&self) -> bool {
        self.op_sync.is_some()
    }

    /// Stamps subsequent op records (all streams, DMA lanes included)
    /// with a serving-layer session id. A no-op while disarmed.
    pub fn set_op_session(&mut self, session: u32) {
        for m in &mut self.arrays {
            if let Some(r) = m.op_recorder_mut() {
                r.set_session(session);
            }
            if let Some(r) = m.dma_recorder_mut() {
                r.set_session(session);
            }
        }
        if let Some(sync) = &mut self.op_sync {
            sync.set_session(session);
        }
    }

    /// Drains every armed stream into one merged [`OpTrace`] (machine
    /// streams in array order, each followed by its DMA lane, then the
    /// pool sync stream). The trace is sized once and every stream's
    /// records are copied into it in one block. Returns `None` while
    /// disarmed. Recorders stay armed; ids remain unique across drains.
    pub fn drain_op_trace(&mut self) -> Option<OpTrace> {
        let sync = self.op_sync.as_deref_mut()?;
        let mut len = sync.len();
        for m in &mut self.arrays {
            len += m.op_recorder().map_or(0, OpRecorder::len);
            len += m.dma_recorder_mut().map_or(0, |r| r.len());
        }
        let mut trace = OpTrace::new();
        trace.records.reserve_exact(len);
        for m in &mut self.arrays {
            if let Some(r) = m.op_recorder_mut() {
                r.drain_into(&mut trace);
            }
            if let Some(r) = m.dma_recorder_mut() {
                r.drain_into(&mut trace);
            }
        }
        sync.drain_into(&mut trace);
        Some(trace)
    }

    /// Discards what every armed stream has buffered, leaving each
    /// recorder exactly as [`PimArrayPool::drain_op_trace`] would (ids,
    /// serial tails and row tables kept) without building the trace:
    /// the way to scope the next drain to what follows. A no-op while
    /// disarmed.
    pub fn discard_op_trace(&mut self) {
        let Some(sync) = self.op_sync.as_deref_mut() else {
            return;
        };
        for m in &mut self.arrays {
            if let Some(r) = m.op_recorder_mut() {
                r.clear();
            }
            if let Some(r) = m.dma_recorder_mut() {
                r.clear();
            }
        }
        sync.clear();
    }

    /// Records one sync point in the pool stream after a wall-clock
    /// advance: barrier records depending on the tails of the `changed`
    /// members' streams (chained two tails per record, with `cycles` —
    /// the sync overhead just charged to the wall — carried by the last
    /// record), then restarts every armed machine stream's serial chain
    /// from the final barrier id. This is how "wall cycles advance by
    /// the slowest member" enters the dependency DAG: the critical path
    /// through the barriers equals the pool wall clock.
    fn op_sync_point(&mut self, cycles: u64, changed: &[usize]) {
        let Some(sync) = &mut self.op_sync else {
            return;
        };
        let start = self.wall_cycles;
        let tails: Vec<u64> = changed
            .iter()
            .filter_map(|&i| self.arrays[i].op_recorder())
            .map(|r| r.tail())
            .filter(|&t| t != 0)
            .collect();
        let mut chain = sync.tail();
        let last = if tails.is_empty() {
            sync.record_barrier([chain, 0, 0], start, cycles, changed.len() as u32)
        } else {
            for (n, pair) in tails.chunks(2).enumerate() {
                let is_last = (n + 1) * 2 >= tails.len();
                chain = sync.record_barrier(
                    [chain, pair[0], pair.get(1).copied().unwrap_or(0)],
                    start,
                    if is_last { cycles } else { 0 },
                    changed.len() as u32,
                );
            }
            chain
        };
        for m in &mut self.arrays {
            if let Some(r) = m.op_recorder_mut() {
                r.set_pending_dep(last);
            }
        }
    }

    /// Number of arrays in the pool.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True for an (impossible) empty pool; present for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Shared view of array `i`.
    pub fn array(&self, i: usize) -> &PimMachine {
        &self.arrays[i]
    }

    /// Exclusive access to array `i` — host-side setup (image strip
    /// loads, halo rows, boundary exchanges) between phases goes through
    /// here. Transfers cost host-I/O (or DMA) timeline cycles, never
    /// compute cycles; the wall clock absorbs them at the array's next
    /// barrier via its timeline watermark.
    pub fn array_mut(&mut self, i: usize) -> &mut PimMachine {
        &mut self.arrays[i]
    }

    // ------------------------------------------------------------------
    // DMA channels (see `crate::dma`)
    // ------------------------------------------------------------------

    /// Installs (or removes, with `None`) one host↔array DMA channel
    /// per member array. When the op recorders are armed, each channel
    /// gets its own trace lane (`dma i`). Installing replaces existing
    /// channels: clocks, health and fault streams start fresh.
    pub fn set_dma(&mut self, cfg: Option<DmaConfig>) {
        for m in &mut self.arrays {
            m.set_dma(cfg);
        }
        if self.op_sync.is_some() {
            self.arm_dma_lanes();
        }
    }

    /// Plugs one seeded [`DmaFaultModel`] into every member channel,
    /// forking the fault stream per array index so physically distinct
    /// burst ports do not see identical fault sequences. No effect on
    /// arrays without a channel.
    pub fn set_dma_fault(&mut self, model: DmaFaultModel) {
        for (i, m) in self.arrays.iter_mut().enumerate() {
            m.set_dma_fault(model.clone());
            m.dma_reseed(i as u64);
        }
    }

    /// Member channels' health counters merged by summation
    /// (`quarantined` is true when *any* member channel is).
    pub fn dma_health(&self) -> DmaHealth {
        let mut h = DmaHealth::default();
        for m in &self.arrays {
            if let Some(mh) = m.dma_health() {
                h.merge(&mh);
            }
        }
        h
    }

    /// Lifts every member channel's quarantine (operator action after
    /// the underlying fault burst passed).
    pub fn dma_rehabilitate(&mut self) {
        for m in &mut self.arrays {
            m.dma_rehabilitate();
        }
    }

    /// Drains every member channel — strip-in *and* outbound
    /// descriptors — at a frame/measurement boundary. Per-array stall
    /// cycles are charged and the wall clock advances by the slowest
    /// member's wait; no extra sync overhead is charged (the settle
    /// rides the frame-end barrier the caller already pays). Free when
    /// no channel is installed or everything already landed.
    pub fn dma_settle(&mut self) {
        for m in &mut self.arrays {
            m.dma_settle();
        }
        let max_delta = (0..self.arrays.len())
            .map(|i| self.take_timeline(i))
            .max()
            .unwrap_or(0);
        if max_delta > 0 {
            self.wall_cycles += max_delta;
            let members = std::mem::take(&mut self.all);
            self.op_sync_point(0, &members);
            self.all = members;
        }
    }

    /// The per-barrier synchronisation overhead in cycles (from the
    /// cost model the pool was built with).
    pub fn sync_cycles(&self) -> u64 {
        self.sync_cycles
    }

    /// Number of multi-array barriers charged so far.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Wall-clock cycles so far: per phase, the slowest shard's cycle
    /// delta, plus one sync overhead per multi-array barrier.
    pub fn wall_cycles(&self) -> u64 {
        self.wall_cycles
    }

    /// Per-array statistics merged by summation: total energy, SRAM
    /// traffic and op counts of the distributed execution. The `cycles`
    /// field is the summed *compute* cycles (total work); use
    /// [`PimArrayPool::wall_cycles`] for elapsed time.
    pub fn merged_stats(&self) -> ExecStats {
        let mut merged = ExecStats::new();
        for m in &self.arrays {
            merged.merge(m.stats());
        }
        merged
    }

    /// Resets statistics and the wall-cycle clock on every array
    /// (array contents are preserved).
    pub fn reset_stats(&mut self) {
        for m in &mut self.arrays {
            m.reset_stats();
        }
        self.wall_cycles = 0;
        self.barriers = 0;
        self.seen.fill(0);
    }

    /// Advances array `i`'s timeline watermark and returns the
    /// not-yet-accounted delta: everything (compute, host I/O, DMA
    /// stalls) array `i` spent since its last barrier.
    fn take_timeline(&mut self, i: usize) -> u64 {
        let now = self.arrays[i].timeline();
        let delta = now - self.seen[i];
        self.seen[i] = now;
        delta
    }

    /// The wave core both entry points share: `f(slot, machine)` runs
    /// on `arrays[members[slot]]` (`members` ascending), one member
    /// after another on the calling thread, and `done(slot, result)`
    /// takes each result in `members` order. The members model arrays
    /// that run concurrently: the wave forms a barrier, so wall cycles
    /// advance by the slowest member's timeline delta, plus the sync
    /// overhead when more than one member participates, and the
    /// op-trace pool stream records the sync point. Leaves the
    /// per-member cycle deltas in `self.deltas`, in `members` order.
    /// A wave allocates nothing of its own.
    fn wave<R, F>(&mut self, members: &[usize], f: &F, mut done: impl FnMut(usize, R))
    where
        F: Fn(usize, &mut PimMachine) -> R,
    {
        for (slot, &i) in members.iter().enumerate() {
            done(slot, f(slot, &mut self.arrays[i]));
        }
        self.deltas.clear();
        for &i in members {
            let delta = self.take_timeline(i);
            self.deltas.push(delta);
        }
        let sync = if members.len() > 1 {
            self.barriers += 1;
            self.sync_cycles
        } else {
            0
        };
        self.wall_cycles += self.deltas.iter().copied().max().unwrap_or(0) + sync;
        self.op_sync_point(sync, members);
    }

    /// Runs one strip-sharded kernel phase: `programs[i]` (a lowered
    /// macro-op program, see [`crate::lower()`]) executes on array `i`.
    /// Every array runs its program, quarantined or not, and nothing is
    /// retried: the host already loaded each strip's inputs into its
    /// array, so a strip cannot move. Strip programs are image kernels
    /// that leave their results in rows, so the phase returns none; a
    /// program whose reduce sums the host needs runs through
    /// [`PimArrayPool::run_phase`]. The phase allocates nothing of its
    /// own.
    ///
    /// The phase is one barrier: wall cycles advance by the slowest
    /// array's delta, plus the sync overhead when the pool has more
    /// than one array. With telemetry attached
    /// ([`PimArrayPool::set_telemetry`]) it records one wall-time span
    /// and, in the cycle domain, a pool span plus one span per array.
    ///
    /// # Errors
    ///
    /// - [`PimError::PoolSizeMismatch`] when `programs.len()` differs
    ///   from the pool size; nothing runs.
    /// - The first [`PimError`] a program reports, in array order (the
    ///   programs that ran stay charged, like any partially executed
    ///   phase).
    pub fn submit_strips(
        &mut self,
        label: &str,
        programs: &[Arc<LoweredProgram>],
    ) -> Result<(), PimError> {
        if programs.len() != self.arrays.len() {
            return Err(PimError::PoolSizeMismatch {
                got: programs.len(),
                expected: self.arrays.len(),
            });
        }
        let _wall = self.telemetry.span("pool", label);
        let wall_start = self.wall_cycles;
        // lent out for the wave, which needs the pool mutably
        let members = std::mem::take(&mut self.all);
        let mut first_err = None;
        self.wave(
            &members,
            &|i, m: &mut PimMachine| m.run_program(&programs[i]).err(),
            |_, err| {
                if first_err.is_none() {
                    first_err = err;
                }
            },
        );
        self.record_phase_spans(label, wall_start, &members, &self.deltas);
        self.all = members;
        first_err.map_or(Ok(()), Err)
    }

    /// Records the cycle-domain spans of one completed phase: the pool
    /// span (`wall_start..wall_cycles`, including sync and any serial
    /// recovery) and one span per participating array, all starting at
    /// the barrier entry so the viewer shows the slowest shard gating
    /// the phase. Called after the barrier; a
    /// no-op without an attached telemetry handle.
    fn record_phase_spans(&self, label: &str, wall_start: u64, members: &[usize], deltas: &[u64]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.record_span(
            TimeDomain::Cycles,
            "pool",
            label,
            wall_start,
            self.wall_cycles - wall_start,
            &[("arrays", members.len().to_string())],
        );
        for (&i, &delta) in members.iter().zip(deltas) {
            if delta > 0 {
                self.telemetry.record_span(
                    TimeDomain::Cycles,
                    &format!("array {i}"),
                    label,
                    wall_start,
                    delta,
                    &[],
                );
            }
        }
    }

    /// Quarantines array `i`: [`PimArrayPool::run_phase`]
    /// stops dispatching shards to it (pinned strips of
    /// [`PimArrayPool::submit_strips`] still run there). Contents and
    /// statistics are kept; a probation or a scrub re-admission mark
    /// ends (this is a *new* defect verdict, not the old one
    /// resurfacing).
    ///
    /// # Errors
    ///
    /// [`PimError::ArrayOutOfRange`] for a bad array index, so
    /// host-driven callers (chaos harnesses) can recover instead of
    /// panicking.
    pub fn try_quarantine(&mut self, i: usize) -> Result<(), PimError> {
        self.apply(i, ArrayEvent::Quarantine)
    }

    /// Lifts the quarantine on array `i`, returning it to the dispatch
    /// set (a no-op on an array that is not quarantined). The scrub
    /// pass ([`PimArrayPool::scrub_now`]) is the repair driver; manual
    /// callers model an external repair action or a chaos harness
    /// ending a quarantine storm. Fault counters are kept.
    ///
    /// # Errors
    ///
    /// [`PimError::ArrayOutOfRange`] for a bad array index.
    pub fn unquarantine(&mut self, i: usize) -> Result<(), PimError> {
        self.apply(i, ArrayEvent::Lift)
    }

    /// Moves a host-addressed array `i` along the transition table.
    fn apply(&mut self, i: usize, event: ArrayEvent) -> Result<(), PimError> {
        let arrays = self.arrays.len();
        let s = self
            .states
            .get_mut(i)
            .ok_or(PimError::ArrayOutOfRange { index: i, arrays })?;
        *s = s.next(event);
        Ok(())
    }

    /// True if array `i` is quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_quarantined(&self, i: usize) -> bool {
        !self.states[i].dispatchable()
    }

    /// Array `i`'s membership state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> ArrayState {
        self.states[i]
    }

    /// The persisted part of the pool's health: each array's state and
    /// the recovery counters ([`PoolSnapshot`]).
    pub fn snapshot(&self) -> PoolSnapshot {
        self.health().into()
    }

    /// Applies a snapshot taken by [`PimArrayPool::snapshot`], possibly
    /// in another process: each array takes the snapshot's state, and
    /// the recovery counters are replaced. A stale quarantine does not
    /// undo a scrub re-admission made since the snapshot was taken; a
    /// quarantine that post-dates the re-admission ends that
    /// protection. Per-array fault counters, remap tables and the wall
    /// clock ([`PimArrayPool::restore_wall_cycles`]) are not part of
    /// it.
    ///
    /// # Errors
    ///
    /// [`PimError::PoolSizeMismatch`] if the snapshot describes another
    /// number of arrays; the pool is left unchanged.
    pub fn restore(&mut self, snap: &PoolSnapshot) -> Result<(), PimError> {
        if snap.states.len() != self.arrays.len() {
            return Err(PimError::PoolSizeMismatch {
                got: snap.states.len(),
                expected: self.arrays.len(),
            });
        }
        for (live, &s) in self.states.iter_mut().zip(&snap.states) {
            *live = live.restored(s);
        }
        self.retries = snap.retries;
        self.redispatches = snap.redispatches;
        self.dirty_accepted = snap.dirty_accepted;
        Ok(())
    }

    /// Indices of the arrays still accepting work, in array order.
    fn healthy_arrays(&self) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&i| self.states[i].dispatchable())
            .collect()
    }

    /// Number of arrays still accepting work, probation members
    /// included (they serve, with verify-on-read overhead).
    pub fn healthy_len(&self) -> usize {
        self.states.iter().filter(|s| s.dispatchable()).count()
    }

    /// Snapshot of the pool's fault/recovery state.
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            arrays: self.arrays.iter().map(|m| m.fault_status()).collect(),
            states: self.states.clone(),
            retries: self.retries,
            redispatches: self.redispatches,
            dirty_accepted: self.dirty_accepted,
            remapped_rows: self
                .arrays
                .iter()
                .map(|m| m.remapped_rows() as u64)
                .collect(),
            scrubs: self.scrubs,
            rehabilitated: self.rehabilitations,
        }
    }

    /// Runs one scrub pass now over every quarantined array: march-test
    /// each row with the scrub test patterns, remap rows that fail to
    /// spares, and re-admit arrays that end up fully clean into
    /// probation (fault counters and syndrome log reset, contents
    /// zeroed). Arrays whose defects exhaust the spare region stay
    /// quarantined. Returns the number of arrays re-admitted.
    pub fn scrub_now(&mut self) -> usize {
        if self.states.iter().all(|s| s.dispatchable()) {
            return 0;
        }
        self.scrubs += 1;
        let mut readmitted = 0;
        for i in 0..self.arrays.len() {
            if self.states[i].dispatchable() {
                continue;
            }
            let t0 = self.arrays[i].timeline();
            let clean = self.scrub_array(i);
            // maintenance-port work runs concurrently with foreground
            // phases: bump the watermark by exactly the scrub's own
            // timeline delta so it never reaches the wall clock (host
            // I/O pending from before the scrub stays chargeable)
            self.seen[i] += self.arrays[i].timeline() - t0;
            if clean {
                self.arrays[i].reset_fault_status();
                self.states[i] = self.states[i].next(ArrayEvent::Readmit);
                self.rehabilitations += 1;
                readmitted += 1;
                self.event_rehabilitated(i);
            } else {
                self.event_scrub_failed(i);
            }
        }
        readmitted
    }

    /// March-tests every logical row of array `i`, remapping failing
    /// rows to spares (re-testing the spare each time). True when the
    /// whole array verifies clean; false as soon as a defective row
    /// cannot be remapped (spares exhausted).
    fn scrub_array(&mut self, i: usize) -> bool {
        let rows = self.arrays[i].config().rows;
        for row in 0..rows {
            loop {
                let clean = SCRUB_PATTERNS.iter().all(|&p| {
                    self.arrays[i]
                        .scrub_row(row, p)
                        .expect("scrub row index in range")
                });
                if clean {
                    break;
                }
                if self.arrays[i].remap_row(row).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Runs one parallel phase over the *healthy* arrays with fault
    /// detection and recovery. `f(shard, machine)` receives the shard
    /// index `shard` (position among the healthy arrays, `0..healthy_len()`),
    /// and must be **self-contained**: it writes every input it reads, so
    /// re-running it — on the same or on a different array — reproduces
    /// the shard from scratch. Returns per-shard results in shard order.
    ///
    /// Recovery, per shard whose array reported newly *detected*
    /// (uncorrected) errors during the phase:
    ///
    /// 1. retry on the same array, up to `MAX_RETRIES` = 2 times,
    ///    accepting the first clean run;
    /// 2. if still dirty, consult the per-row syndrome log: a row with
    ///    ≥ `STUCK_ROW_THRESHOLD` = 3 detections within this
    ///    phase marks a persistent defect — the array is quarantined and
    ///    the shard re-dispatched to another healthy array (which gets
    ///    its own retry budget);
    /// 3. a still-dirty shard on a *non*-persistent (transient-storm)
    ///    array is accepted as degraded output and counted in
    ///    [`PoolHealth::dirty_accepted`] — retrying a memoryless upset
    ///    process forever has no expected benefit.
    ///
    /// Accounting is the barrier rule of [`PimArrayPool::submit_strips`]
    /// over the healthy arrays (max shard delta + sync when more than
    /// one array participates); retries and re-dispatches are serial and
    /// add their full cycle delta to the wall clock. With telemetry
    /// attached, the phase records the same spans as
    /// [`PimArrayPool::submit_strips`] (the cycle-domain pool span
    /// covers the serial recovery too), and recovery activity records
    /// warning/error events (shard retries, quarantines, re-dispatches,
    /// degraded accepts) and bumps the matching `pimvo_pool_*_total`
    /// counters.
    ///
    /// # Errors
    ///
    /// [`PimError::AllArraysQuarantined`] when no healthy array remains,
    /// on entry or after quarantines during recovery.
    pub fn run_phase<R, F>(&mut self, label: &str, f: F) -> Result<Vec<R>, PimError>
    where
        F: Fn(usize, &mut PimMachine) -> R,
    {
        let _wall = self.telemetry.span("pool", label);
        let wall_start = self.wall_cycles;
        let healthy = self.healthy_arrays();
        if healthy.is_empty() {
            return Err(PimError::AllArraysQuarantined {
                arrays: self.arrays.len(),
            });
        }
        let det_before: Vec<u64> = healthy
            .iter()
            .map(|&i| self.arrays[i].fault_status().detected)
            .collect();
        let log_before: Vec<BTreeMap<usize, u64>> = healthy
            .iter()
            .map(|&i| self.arrays[i].fault_row_log().clone())
            .collect();
        let mut results = Vec::with_capacity(healthy.len());
        self.wave(&healthy, &f, |_, r| results.push(r));

        // serial recovery pass, in shard order (deterministic)
        for shard in 0..healthy.len() {
            let i = healthy[shard];
            if self.arrays[i].fault_status().detected == det_before[shard] {
                continue;
            }
            let mut clean = false;
            for _ in 0..MAX_RETRIES {
                self.retries += 1;
                self.event_retry(label, shard, i);
                let (r, ok) = self.rerun_shard(&f, shard, i);
                results[shard] = r;
                if ok {
                    clean = true;
                    break;
                }
            }
            if clean {
                continue;
            }
            if !self.is_persistent(i, &log_before[shard]) {
                // transient storm: accept the last run as degraded output
                self.dirty_accepted += 1;
                self.event_dirty_accepted(label, shard, i);
                continue;
            }
            // persistent defect: quarantine and re-dispatch
            self.states[i] = self.states[i].next(ArrayEvent::Quarantine);
            self.event_quarantine(label, i);
            let mut placed = false;
            for j in 0..self.arrays.len() {
                if !self.states[j].dispatchable() {
                    continue;
                }
                self.redispatches += 1;
                self.event_redispatch(label, shard, i, j);
                let log_j = self.arrays[j].fault_row_log().clone();
                let mut ok = false;
                for attempt in 0..=MAX_RETRIES {
                    if attempt > 0 {
                        self.retries += 1;
                        self.event_retry(label, shard, j);
                    }
                    let (r, c) = self.rerun_shard(&f, shard, j);
                    results[shard] = r;
                    if c {
                        ok = true;
                        break;
                    }
                }
                if ok {
                    placed = true;
                    break;
                }
                if self.is_persistent(j, &log_j) {
                    self.states[j] = self.states[j].next(ArrayEvent::Quarantine);
                    self.event_quarantine(label, j);
                } else {
                    self.dirty_accepted += 1;
                    self.event_dirty_accepted(label, shard, j);
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Err(PimError::AllArraysQuarantined {
                    arrays: self.arrays.len(),
                });
            }
        }
        // probation bookkeeping, in shard order: each probation member
        // is charged a serial verify-on-read patrol over its rows; a
        // phase with any new detected error restarts the countdown, a
        // clean phase counts toward full membership
        for shard in 0..healthy.len() {
            let i = healthy[shard];
            if !matches!(self.states[i], ArrayState::Probation { .. }) {
                continue;
            }
            let rows = self.arrays[i].config().rows as u64;
            self.arrays[i].charge_verify_patrol(rows);
            self.wall_cycles += self.take_timeline(i);
            self.op_sync_point(0, &[i]);
            if self.arrays[i].fault_status().detected > det_before[shard] {
                self.states[i] = self.states[i].next(ArrayEvent::DirtyPhase);
                self.event_probation_reset(label, i);
            } else {
                self.states[i] = self.states[i].next(ArrayEvent::CleanPhase);
                if matches!(self.states[i], ArrayState::Active { .. }) {
                    self.event_probation_cleared(label, i);
                }
            }
        }
        // recovery and probation run shards outside any wave, so
        // `deltas` still holds the wave's own
        self.record_phase_spans(label, wall_start, &healthy, &self.deltas);
        Ok(results)
    }

    fn event_retry(&self, label: &str, shard: usize, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter_add("pimvo_pool_retries_total", 1.0);
        self.telemetry.log(
            Severity::Warn,
            "pool shard retry",
            &[
                ("phase", label.to_string()),
                ("shard", shard.to_string()),
                ("array", array.to_string()),
            ],
        );
    }

    fn event_quarantine(&self, label: &str, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_quarantines_total", 1.0);
        self.telemetry.log(
            Severity::Error,
            "pool array quarantined",
            &[("phase", label.to_string()), ("array", array.to_string())],
        );
    }

    fn event_redispatch(&self, label: &str, shard: usize, from: usize, to: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_redispatches_total", 1.0);
        self.telemetry.log(
            Severity::Warn,
            "pool shard re-dispatched",
            &[
                ("phase", label.to_string()),
                ("shard", shard.to_string()),
                ("from_array", from.to_string()),
                ("to_array", to.to_string()),
            ],
        );
    }

    fn event_dirty_accepted(&self, label: &str, shard: usize, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_dirty_accepted_total", 1.0);
        self.telemetry.log(
            Severity::Warn,
            "pool shard accepted with uncorrected errors",
            &[
                ("phase", label.to_string()),
                ("shard", shard.to_string()),
                ("array", array.to_string()),
            ],
        );
    }

    fn event_rehabilitated(&self, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_rehabilitated_total", 1.0);
        self.telemetry.log(
            Severity::Info,
            "pool array rehabilitated (scrub clean, entering probation)",
            &[
                ("array", array.to_string()),
                (
                    "remapped_rows",
                    self.arrays[array].remapped_rows().to_string(),
                ),
            ],
        );
    }

    fn event_scrub_failed(&self, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_scrub_failures_total", 1.0);
        self.telemetry.log(
            Severity::Warn,
            "pool array failed scrub (spares exhausted), stays quarantined",
            &[
                ("array", array.to_string()),
                ("spares", self.arrays[array].spares_available().to_string()),
            ],
        );
    }

    fn event_probation_reset(&self, label: &str, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_probation_resets_total", 1.0);
        self.telemetry.log(
            Severity::Warn,
            "probation array detected errors, countdown restarted",
            &[("phase", label.to_string()), ("array", array.to_string())],
        );
    }

    fn event_probation_cleared(&self, label: &str, array: usize) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry
            .counter_add("pimvo_pool_probation_cleared_total", 1.0);
        self.telemetry.log(
            Severity::Info,
            "probation array regained full membership",
            &[("phase", label.to_string()), ("array", array.to_string())],
        );
    }

    /// Publishes the pool's health and clock state as telemetry gauges
    /// (`pimvo_pool_*`): healthy/quarantined array counts, detected and
    /// corrected error totals, recovery activity and wall cycles. A
    /// no-op without an attached handle.
    pub fn export_health_telemetry(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let h = self.health();
        let t = &self.telemetry;
        t.gauge_set("pimvo_pool_arrays", self.arrays.len() as f64);
        t.gauge_set("pimvo_pool_healthy_arrays", h.healthy_count() as f64);
        t.gauge_set(
            "pimvo_pool_quarantined_arrays",
            h.quarantined_count() as f64,
        );
        t.gauge_set("pimvo_pool_faults_detected", h.total_detected() as f64);
        t.gauge_set("pimvo_pool_faults_corrected", h.total_corrected() as f64);
        t.gauge_set("pimvo_pool_retries", h.retries as f64);
        t.gauge_set("pimvo_pool_redispatches", h.redispatches as f64);
        t.gauge_set("pimvo_pool_dirty_accepted", h.dirty_accepted as f64);
        t.gauge_set("pimvo_pool_probation_arrays", h.probation_count() as f64);
        t.gauge_set("pimvo_pool_remapped_rows", h.total_remapped_rows() as f64);
        t.gauge_set("pimvo_pool_scrubs", h.scrubs as f64);
        t.gauge_set("pimvo_pool_rehabilitated", h.rehabilitated as f64);
        t.gauge_set("pimvo_pool_wall_cycles", self.wall_cycles as f64);
        t.gauge_set("pimvo_pool_barriers", self.barriers as f64);
    }

    /// Restores the wall-cycle clock from a fleet manifest during crash
    /// recovery, so the virtual time base resumes where the fleet left
    /// off. Outside recovery the clock only ever advances. The clock is
    /// not part of a [`PoolSnapshot`]: a tracker checkpoint does not
    /// carry it.
    pub fn restore_wall_cycles(&mut self, cycles: u64) {
        self.wall_cycles = cycles;
        // re-anchor the timeline watermarks: whatever the arrays have
        // already spent is covered by the restored wall value
        for i in 0..self.arrays.len() {
            self.seen[i] = self.arrays[i].timeline();
        }
    }

    /// Re-runs shard `shard` on array `i` serially, charging its full
    /// cycle delta to the wall clock. Returns the result and whether the
    /// run finished without newly detected errors.
    fn rerun_shard<R>(
        &mut self,
        f: &impl Fn(usize, &mut PimMachine) -> R,
        shard: usize,
        i: usize,
    ) -> (R, bool) {
        let det0 = self.arrays[i].fault_status().detected;
        let r = f(shard, &mut self.arrays[i]);
        self.wall_cycles += self.take_timeline(i);
        self.op_sync_point(0, &[i]);
        (r, self.arrays[i].fault_status().detected == det0)
    }

    /// True if some row of array `i` accumulated at least
    /// `STUCK_ROW_THRESHOLD` detections since `log_before`
    /// was snapshotted — the signature of a stuck-at defect rather than
    /// independent transient upsets.
    fn is_persistent(&self, i: usize, log_before: &BTreeMap<usize, u64>) -> bool {
        self.arrays[i].fault_row_log().iter().any(|(row, &count)| {
            let before = log_before.get(row).copied().unwrap_or(0);
            count.saturating_sub(before) >= STUCK_ROW_THRESHOLD
        })
    }
}

impl PimMachineBuilder {
    /// Builds a [`PimArrayPool`] of `n` arrays with this configuration.
    pub fn build_pool(&self, n: usize) -> PimArrayPool {
        PimArrayPool::from_builder(self, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::health::PROBATION_PHASES;
    use crate::ir::{PimProgram, Val};
    use crate::isa::{AluOp, LogicFunc, Operand, Shift};
    use crate::lower::{lower, LowerLevel, MachineInstr, ScratchRows};
    use MachineInstr::Writeback;

    fn alu(op: AluOp, a: Operand, b: Operand, shift: Shift) -> MachineInstr {
        MachineInstr::Alu { op, a, b, shift }
    }

    fn pool(n: usize) -> PimArrayPool {
        PimMachineBuilder::new(ArrayConfig::qvga()).build_pool(n)
    }

    /// A program copying row 0 (`or r0, r0`), doing `n_adds` chained
    /// adds of row 0 and reducing the final value; cost scales with
    /// `n_adds`.
    fn adds_program(n_adds: usize) -> Arc<LoweredProgram> {
        let mut p = PimProgram::new("adds");
        let mut v = p.or(Val::Row(0), Val::Row(0));
        for _ in 0..n_adds {
            v = p.add(v.into(), Val::Row(0));
        }
        p.reduce(v.into());
        Arc::new(lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(16, 4)).unwrap())
    }

    fn seed_rows(p: &mut PimArrayPool, lanes: &[i64]) {
        for i in 0..p.len() {
            p.array_mut(i).host_write_lanes(0, lanes).unwrap();
        }
    }

    #[test]
    fn op_trace_critical_path_matches_wall_clock() {
        let mut p = pool(3);
        p.arm_op_recorders(4096);
        for i in 0..3 {
            p.array_mut(i).host_write_lanes(0, &[1, 2, 3]).unwrap();
        }
        // two phases with skewed shard lengths: the critical path must
        // thread the slowest shard of each phase plus both barriers
        p.run_phase("phase", |i, m| {
            for _ in 0..=i {
                m.execute(&alu(
                    AluOp::Add,
                    Operand::Row(0),
                    Operand::Row(0),
                    Shift::None,
                ))
                .unwrap();
            }
        })
        .unwrap();
        p.run_phase("phase", |_, m| {
            m.execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
        })
        .unwrap();
        let trace = p.drain_op_trace().expect("armed pool drains a trace");
        assert_eq!(trace.dropped, 0);
        let prof = pimvo_telemetry::optrace::profile(&trace);
        assert_eq!(prof.critical_path_cycles, p.wall_cycles());
    }

    #[test]
    fn armed_op_recorders_do_not_perturb_results_or_accounting() {
        let run = |armed: bool| {
            let mut p = pool(2);
            if armed {
                p.arm_op_recorders(64);
            }
            for i in 0..2 {
                p.array_mut(i).host_write_lanes(0, &[5, 6]).unwrap();
            }
            let out = p
                .run_phase("phase", |_, m| {
                    m.execute(&alu(
                        AluOp::Add,
                        Operand::Row(0),
                        Operand::Row(0),
                        Shift::None,
                    ))
                    .unwrap();
                    m.tmp_lanes()[0]
                })
                .unwrap();
            (out, p.wall_cycles(), p.merged_stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn disarming_stops_every_stream_dma_lanes_included() {
        let mut p = pool(2);
        p.set_dma(Some(DmaConfig::default()));
        p.arm_op_recorders(64);
        p.disarm_op_recorders();
        for i in 0..2 {
            p.array_mut(i).host_write_lanes(0, &[5, 6]).unwrap();
            assert!(p.array(i).op_recorder().is_none());
            assert!(
                p.array_mut(i).dma_recorder_mut().is_none(),
                "array {i}'s DMA lane still records"
            );
        }
        assert!(p.drain_op_trace().is_none());
    }

    #[test]
    fn wall_cycles_are_max_plus_sync() {
        let mut p = pool(3);
        for i in 0..3 {
            p.array_mut(i).host_write_lanes(0, &[1, 2, 3]).unwrap();
        }
        // shard i performs i+1 single-cycle adds: deltas 1, 2, 3 — on
        // top of the (equal) host-transfer cost of the strip loads,
        // absorbed at this first barrier via the timeline watermarks
        let io = p.array(0).cost_model().transfer_cycles(3);
        p.run_phase("phase", |i, m| {
            for _ in 0..=i {
                m.execute(&alu(
                    AluOp::Add,
                    Operand::Row(0),
                    Operand::Row(0),
                    Shift::None,
                ))
                .unwrap();
            }
        })
        .unwrap();
        assert_eq!(p.wall_cycles(), io + 3 + p.sync_cycles());
        assert_eq!(p.barriers(), 1);
        // compute work is conserved: 1 + 2 + 3 summed cycles
        assert_eq!(p.merged_stats().cycles, 6);
    }

    #[test]
    fn single_array_pool_matches_bare_machine() {
        let mut p = pool(1);
        p.array_mut(0).host_write_lanes(0, &[5, 6]).unwrap();
        p.run_phase("phase", |_, m| {
            m.execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
            m.execute(&Writeback { row: 1 }).unwrap();
        })
        .unwrap();
        let mut m = PimMachine::new(ArrayConfig::qvga());
        m.host_write_lanes(0, &[5, 6]).unwrap();
        m.execute(&alu(
            AluOp::Add,
            Operand::Row(0),
            Operand::Row(0),
            Shift::None,
        ))
        .unwrap();
        m.execute(&Writeback { row: 1 }).unwrap();
        // no sync overhead, identical timeline (compute + host I/O)
        assert_eq!(p.wall_cycles(), m.timeline());
        assert_eq!(p.barriers(), 0);
        assert_eq!(p.merged_stats(), *m.stats());
    }

    #[test]
    fn phase_results_in_array_order() {
        let mut p = pool(4);
        let ids = p.run_phase("phase", |i, _| i).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_quarantine_rejects_out_of_range() {
        let mut p = pool(2);
        assert!(p.try_quarantine(1).is_ok());
        assert!(p.is_quarantined(1));
        match p.try_quarantine(5) {
            Err(PimError::ArrayOutOfRange {
                index: 5,
                arrays: 2,
            }) => {}
            other => panic!("expected ArrayOutOfRange, got {other:?}"),
        }
        p.unquarantine(1).unwrap();
        assert!(!p.is_quarantined(1));
        assert!(matches!(
            p.unquarantine(9),
            Err(PimError::ArrayOutOfRange { .. })
        ));
    }

    #[test]
    fn restore_round_trips_and_checks_size() {
        let mut p = pool(3);
        p.try_quarantine(2).unwrap();
        p.try_quarantine(1).unwrap();
        p.scrub_now();
        p.try_quarantine(2).unwrap();
        let mut snap = p.snapshot();
        snap.retries = 7;
        snap.redispatches = 2;
        snap.dirty_accepted = 1;

        let mut q = pool(3);
        q.restore(&snap).unwrap();
        assert!(q.is_quarantined(2));
        assert!(!q.is_quarantined(0));
        assert_eq!(
            q.state(1),
            ArrayState::Probation {
                left: PROBATION_PHASES
            }
        );
        assert_eq!(q.snapshot(), snap);

        let mut small = pool(2);
        small.try_quarantine(0).unwrap();
        let before = small.snapshot();
        assert!(matches!(
            small.restore(&snap),
            Err(PimError::PoolSizeMismatch {
                got: 3,
                expected: 2
            })
        ));
        // a rejected restore leaves the pool untouched
        assert_eq!(small.snapshot(), before);
    }

    #[test]
    fn reset_clears_wall_clock() {
        let mut p = pool(2);
        p.run_phase("phase", |_, m| {
            m.host_broadcast(0, 7).unwrap();
            m.execute(&alu(
                AluOp::Logic(LogicFunc::Or),
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
        })
        .unwrap();
        assert!(p.wall_cycles() > 0);
        p.reset_stats();
        assert_eq!(p.wall_cycles(), 0);
        assert_eq!(p.merged_stats().cycles, 0);
        // array contents survive the reset
        assert_eq!(p.array_mut(0).host_read_lanes(0).unwrap()[0], 7);
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn empty_pool_rejected() {
        pool(0);
    }

    /// Runs `phase` (labeled `lpf_pass1`, array 1 the slower shard) on
    /// a fresh two-array pool with telemetry attached and checks its
    /// spans: a cycle-domain pool span over the barrier, one span per
    /// array covering everything since its last barrier (the host strip
    /// load plus its compute), and a wall-domain pool span.
    fn assert_phase_spans(phase: impl FnOnce(&mut PimArrayPool)) {
        let tele = Telemetry::with_clock(Box::new(pimvo_telemetry::ManualClock::with_step(10)));
        let mut p = pool(2);
        p.set_telemetry(tele.clone());
        seed_rows(&mut p, &[1, 2]);
        phase(&mut p);
        let snap = tele.snapshot();
        let pool_span = snap
            .spans
            .iter()
            .find(|s| s.track == "pool" && s.domain == TimeDomain::Cycles)
            .expect("pool cycle span");
        assert_eq!(pool_span.name, "lpf_pass1");
        assert_eq!(pool_span.start, 0);
        let (d0, d1) = (p.array(0).timeline(), p.array(1).timeline());
        let io = p.array(0).cost_model().transfer_cycles(2);
        assert!(io < d0 && d0 < d1, "array 1 runs the longer shard");
        assert_eq!(pool_span.dur, d1 + p.sync_cycles());
        let a0 = snap.spans.iter().find(|s| s.track == "array 0").unwrap();
        let a1 = snap.spans.iter().find(|s| s.track == "array 1").unwrap();
        assert_eq!(a0.dur, d0);
        assert_eq!(a1.dur, d1);
        // a wall-domain span is recorded too (RAII guard)
        assert!(snap
            .spans
            .iter()
            .any(|s| s.track == "pool" && s.domain == TimeDomain::Wall && s.name == "lpf_pass1"));
    }

    #[test]
    fn labeled_phase_records_pool_and_shard_spans() {
        assert_phase_spans(|p| {
            p.run_phase("lpf_pass1", |i, m| {
                for _ in 0..=i {
                    m.execute(&alu(
                        AluOp::Add,
                        Operand::Row(0),
                        Operand::Row(0),
                        Shift::None,
                    ))
                    .unwrap();
                }
            })
            .unwrap();
        });
        let progs = [adds_program(1), adds_program(2)];
        assert_phase_spans(|p| {
            p.submit_strips("lpf_pass1", &progs).unwrap();
        });
    }

    #[test]
    fn telemetry_does_not_perturb_accounting() {
        let shard = |i: usize, m: &mut PimMachine| {
            m.host_write_lanes(0, &[i as i64 + 1, 2]).unwrap();
            m.execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
            m.execute(&Writeback { row: 1 }).unwrap();
            m.host_read_lanes(1).unwrap()[0]
        };
        let mut off = pool(3);
        let r_off = off.run_phase("s", shard).unwrap();
        let mut on = pool(3);
        on.set_telemetry(Telemetry::with_clock(Box::new(
            pimvo_telemetry::ManualClock::with_step(1),
        )));
        let r_on = on.run_phase("s", shard).unwrap();
        assert_eq!(r_off, r_on);
        assert_eq!(off.wall_cycles(), on.wall_cycles());
        assert_eq!(off.merged_stats(), on.merged_stats());
    }

    #[test]
    fn health_exports_as_gauges() {
        let tele = Telemetry::with_clock(Box::new(pimvo_telemetry::ManualClock::with_step(1)));
        let mut p = pool(3);
        p.set_telemetry(tele.clone());
        p.try_quarantine(1).unwrap();
        p.run_phase("s", |_, m| {
            m.host_broadcast(0, 1).unwrap();
            m.execute(&alu(
                AluOp::Logic(LogicFunc::Or),
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
        })
        .unwrap();
        p.export_health_telemetry();
        let text = tele.metrics_text();
        assert!(text.contains("pimvo_pool_arrays 3"));
        assert!(text.contains("pimvo_pool_healthy_arrays 2"));
        assert!(text.contains("pimvo_pool_quarantined_arrays 1"));
        assert!(text.contains("pimvo_pool_wall_cycles"));
    }

    #[test]
    fn inert_phase_matches_bare_machines_plus_one_barrier() {
        let shard = |i: usize, m: &mut PimMachine| {
            m.host_write_lanes(0, &[i as i64 + 1, 2]).unwrap();
            m.execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
            m.execute(&Writeback { row: 1 }).unwrap();
            m.host_read_lanes(1).unwrap()[0]
        };
        let mut p = pool(3);
        let got = p.run_phase("phase", shard).unwrap();
        let (mut want, mut stats, mut slowest) = (Vec::new(), ExecStats::new(), 0);
        for i in 0..3 {
            let mut m = PimMachine::new(ArrayConfig::qvga());
            want.push(shard(i, &mut m));
            stats.merge(m.stats());
            slowest = slowest.max(m.timeline());
        }
        assert_eq!(got, want);
        assert_eq!(p.wall_cycles(), slowest + p.sync_cycles());
        assert_eq!(p.barriers(), 1);
        assert_eq!(p.merged_stats(), stats);
        let h = p.health();
        assert_eq!(h.retries, 0);
        assert_eq!(h.redispatches, 0);
        assert_eq!(h.dirty_accepted, 0);
        assert_eq!(h.quarantined_count(), 0);
    }

    #[test]
    fn submit_strips_matches_run_phase_over_the_same_programs() {
        let progs: Vec<_> = (0..3).map(|i| adds_program(i + 1)).collect();
        let mut phase = pool(3);
        seed_rows(&mut phase, &[1, 2, 3]);
        let want = phase
            .run_phase("strips", |i, m| m.run_program(&progs[i]).unwrap())
            .unwrap();

        let mut p = pool(3);
        seed_rows(&mut p, &[1, 2, 3]);
        p.submit_strips("strips", &progs).unwrap();
        // each program's one reduce leaves its sum in Tmp lane 0
        let got: Vec<Vec<i64>> = (0..3).map(|i| vec![p.array(i).tmp_lanes()[0]]).collect();
        assert_eq!(got, want);
        assert_eq!(p.wall_cycles(), phase.wall_cycles());
        assert_eq!(p.barriers(), phase.barriers());
        assert_eq!(p.merged_stats(), phase.merged_stats());
    }

    #[test]
    fn submit_strips_runs_every_array_even_quarantined_ones() {
        // strip kernels host-load inputs into specific arrays, so a
        // quarantined array still runs its own strip, and no strip moves
        let mut p = pool(2);
        seed_rows(&mut p, &[1]);
        p.try_quarantine(0).unwrap();
        p.submit_strips("pinned", &[adds_program(1), adds_program(3)])
            .unwrap();
        let got: Vec<i64> = (0..2).map(|i| p.array(i).tmp_lanes()[0]).collect();
        assert_eq!(got, [2, 4]);
        assert!(p.array(0).stats().cycles > 0, "array 0 ran its strip");
        assert!(p.array(0).stats().cycles < p.array(1).stats().cycles);
        assert_eq!(p.barriers(), 1);
    }

    #[test]
    fn submit_strips_rejects_a_program_count_mismatch() {
        let mut p = pool(2);
        let progs: Vec<_> = (0..3).map(|_| adds_program(1)).collect();
        assert!(matches!(
            p.submit_strips("bad", &progs),
            Err(PimError::PoolSizeMismatch {
                got: 3,
                expected: 2
            })
        ));
        // nothing ran
        assert_eq!(p.wall_cycles(), 0);
        assert_eq!(p.barriers(), 0);
        assert_eq!(p.merged_stats().cycles, 0);
    }

    #[test]
    fn quarantined_arrays_are_skipped() {
        let mut p = pool(3);
        p.try_quarantine(1).unwrap();
        assert!(p.is_quarantined(1));
        assert_eq!(p.healthy_arrays(), vec![0, 2]);
        assert_eq!(p.healthy_len(), 2);
        // shard indices are dense over the healthy subset
        let ids = p.run_phase("phase", |shard, _| shard).unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(p.health().healthy_count(), 2);
    }

    #[test]
    fn single_healthy_array_charges_no_sync() {
        let mut p = pool(2);
        p.try_quarantine(0).unwrap();
        p.run_phase("phase", |_, m| {
            m.host_write_lanes(0, &[1]).unwrap();
            m.execute(&alu(
                AluOp::Add,
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
        })
        .unwrap();
        let io = p.array(0).cost_model().transfer_cycles(1);
        assert_eq!(p.wall_cycles(), io + 1);
        assert_eq!(p.barriers(), 0);
    }

    #[test]
    fn all_quarantined_is_an_error() {
        let mut p = pool(2);
        p.try_quarantine(0).unwrap();
        p.try_quarantine(1).unwrap();
        let err = p.run_phase("phase", |_, _| ()).unwrap_err();
        assert!(matches!(err, PimError::AllArraysQuarantined { arrays: 2 }));
        assert!(err.to_string().contains("quarantined"));
    }

    #[test]
    fn scrub_rehabilitates_clean_array_through_probation() {
        let mut p = pool(2);
        p.try_quarantine(0).unwrap();
        assert_eq!(p.healthy_len(), 1);

        let readmitted = p.scrub_now();
        assert_eq!(readmitted, 1);
        assert_eq!(p.healthy_len(), 2);
        assert_eq!(
            p.state(0),
            ArrayState::Probation {
                left: PROBATION_PHASES
            }
        );
        let h = p.health();
        assert_eq!(h.scrubs, 1);
        assert_eq!(h.rehabilitated, 1);
        assert_eq!(h.probation_count(), 1);
        assert_eq!(h.total_remapped_rows(), 0);
        // the march test charged every row × every pattern
        let rows = p.array(0).config().rows as u64;
        assert_eq!(
            p.merged_stats().scrub_rows,
            rows * SCRUB_PATTERNS.len() as u64
        );
        // maintenance-port work: charged to the array's stats (and
        // through them to energy), not to the wall clock
        assert!(p.array(0).stats().cycles > 0);
        assert_eq!(p.wall_cycles(), 0);

        // clean phases count the probation down to full membership,
        // each charging a verify-on-read patrol
        let ecc0 = p.merged_stats().ecc_checks;
        for _ in 0..PROBATION_PHASES {
            p.run_phase("phase", |_, m| {
                m.host_broadcast(0, 1).unwrap();
                m.execute(&alu(
                    AluOp::Logic(LogicFunc::Or),
                    Operand::Row(0),
                    Operand::Row(0),
                    Shift::None,
                ))
                .unwrap();
            })
            .unwrap();
        }
        assert_eq!(p.state(0), ArrayState::Active { scrubbed: true });
        assert_eq!(p.health().probation_count(), 0);
        assert_eq!(p.merged_stats().ecc_checks - ecc0, rows * 3);
    }

    #[test]
    fn scrub_with_nothing_quarantined_is_free() {
        let mut p = pool(2);
        assert_eq!(p.scrub_now(), 0);
        assert_eq!(p.health().scrubs, 0);
        assert_eq!(p.merged_stats().scrub_rows, 0);
    }

    /// Restoring a snapshot taken while an array was quarantined must
    /// not re-quarantine it after a scrub pass rehabilitated it, in
    /// probation or after it — but a *new* quarantine verdict clears
    /// the protection.
    #[test]
    fn restore_does_not_requarantine_rehabilitated_array() {
        let mut p = pool(2);
        p.try_quarantine(1).unwrap();
        let mut stale = p.snapshot();
        stale.retries = 4;

        assert_eq!(p.scrub_now(), 1);
        assert!(!p.is_quarantined(1));
        p.restore(&stale).unwrap();
        assert!(
            !p.is_quarantined(1),
            "stale snapshot must not undo a rehabilitation"
        );
        // counters still restore
        assert_eq!(p.health().retries, 4);
        for _ in 0..PROBATION_PHASES {
            p.run_phase("phase", |_, _| ()).unwrap();
        }
        p.restore(&stale).unwrap();
        assert_eq!(p.state(1), ArrayState::Active { scrubbed: true });

        // a fresh quarantine clears the rehabilitation mark: the stale
        // snapshot applies normally again afterwards
        p.try_quarantine(1).unwrap();
        p.unquarantine(1).unwrap();
        p.restore(&stale).unwrap();
        assert!(p.is_quarantined(1));
    }

    #[test]
    fn restore_wall_cycles_sets_the_clock() {
        let mut p = pool(2);
        p.restore_wall_cycles(777);
        assert_eq!(p.wall_cycles(), 777);
    }

    mod injected {
        use super::*;
        use crate::fault::{FaultModel, Protection};

        /// A stuck-at pair in one 32-bit word is uncorrectable under ECC:
        /// every read of the row detects it, so retries fail, the syndrome
        /// log marks the row persistent, and the pool quarantines the
        /// array and re-dispatches the shard to a clean one.
        #[test]
        fn stuck_word_quarantines_and_redispatches() {
            let builder = PimMachineBuilder::new(ArrayConfig::qvga())
                .fault(
                    FaultModel::none()
                        .with_stuck_bit(0, 0, true)
                        .with_stuck_bit(0, 1, true),
                )
                .protection(Protection::Ecc);
            let mut p = builder.build_pool(2);
            // array 1's copy of the model is equally stuck, so clear its
            // defect to model a single bad macro
            assert!(!p.array(0).fault_model().is_none());
            p.array_mut(1).set_fault_model(FaultModel::none());
            let out = p
                .run_phase("phase", |shard, m| {
                    // self-contained: write rows 0/1 (zeros, so the stuck
                    // bits differ from the stored data), then compute
                    m.host_write_lanes(0, &[0, 0]).unwrap();
                    m.host_write_lanes(1, &[3, 4]).unwrap();
                    m.execute(&alu(
                        AluOp::Add,
                        Operand::Row(0),
                        Operand::Row(1),
                        Shift::None,
                    ))
                    .unwrap();
                    m.execute(&Writeback { row: 2 }).unwrap();
                    (shard, m.host_read_lanes(2).unwrap()[0])
                })
                .unwrap();
            // shard 0 was re-dispatched to array 1 and computed cleanly
            assert_eq!(out, vec![(0, 3), (1, 3)]);
            let h = p.health();
            assert!(p.is_quarantined(0));
            assert!(!p.is_quarantined(1));
            assert!(h.retries > 0, "bounded retry must run before quarantine");
            assert_eq!(h.redispatches, 1);
            assert!(h.total_detected() > 0);
            // further phases keep running on the surviving array
            let again = p.run_phase("phase", |shard, _| shard).unwrap();
            assert_eq!(again, vec![0]);
        }

        /// The scrub pass finds a stuck row, remaps it to a spare, and
        /// restores full pool capacity; an array with more defective
        /// rows than spares fails its scrub and stays quarantined.
        #[test]
        fn scrub_remaps_stuck_rows_and_restores_capacity() {
            let builder = PimMachineBuilder::new(ArrayConfig::qvga()).spare_rows(2);
            let mut p = builder.build_pool(2);
            p.array_mut(0).inject_stuck_bit(3, 0, true);
            p.try_quarantine(0).unwrap();
            assert_eq!(p.healthy_len(), 1);

            assert_eq!(p.scrub_now(), 1);
            assert_eq!(p.healthy_len(), 2);
            let h = p.health();
            assert_eq!(h.remapped_rows, vec![1, 0]);
            assert_eq!(h.total_remapped_rows(), 1);
            // the repaired array reads the remapped row cleanly
            let lanes = p
                .run_phase("phase", |_, m| {
                    m.host_write_lanes(3, &[0, 0]).unwrap();
                    m.host_read_lanes(3).unwrap()[0]
                })
                .unwrap();
            assert_eq!(lanes, vec![0, 0], "stuck bit must be remapped away");

            // three stuck rows overwhelm the one remaining spare
            p.array_mut(0).inject_stuck_bit(7, 0, true);
            p.array_mut(0).inject_stuck_bit(9, 0, true);
            p.try_quarantine(0).unwrap();
            assert_eq!(p.scrub_now(), 0);
            assert!(p.is_quarantined(0));
            assert_eq!(p.healthy_len(), 1);
        }

        /// Runs a one-row read shard, so transient upsets can make a
        /// phase dirty.
        fn read_shard(_: usize, m: &mut PimMachine) {
            m.host_write_lanes(0, &[11, 22, 33, 44]).unwrap();
            m.execute(&alu(
                AluOp::Logic(LogicFunc::Or),
                Operand::Row(0),
                Operand::Row(0),
                Shift::None,
            ))
            .unwrap();
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

            /// A random history of quarantines, lifts, scrubs, clean and
            /// dirty phases (transient upsets under parity) and
            /// restores of earlier snapshots: every membership change
            /// an event makes is an edge of the transition table, and a
            /// restore gives exactly `ArrayState::restored`.
            #[test]
            fn random_histories_take_only_legal_transitions(
                seed in proptest::prelude::any::<u64>(),
                // op * 3 + array index
                ops in proptest::collection::vec(0usize..18, 1..40),
            ) {
                let builder = PimMachineBuilder::new(ArrayConfig::qvga())
                    .fault(FaultModel::transient(seed, 1e-4))
                    .protection(Protection::Parity);
                let mut p = builder.build_pool(3);
                let mut snaps = vec![p.snapshot()];
                for v in ops {
                    let (op, i) = (v / 3, v % 3);
                    let before: Vec<ArrayState> = (0..3).map(|a| p.state(a)).collect();
                    match op {
                        0 => p.try_quarantine(i).unwrap(),
                        1 => p.unquarantine(i).unwrap(),
                        2 => {
                            p.scrub_now();
                        }
                        3 | 4 => {
                            // an all-quarantined pool refuses the phase
                            let _ = p.run_phase("phase", read_shard);
                        }
                        _ => {
                            let snap = snaps[i % snaps.len()].clone();
                            p.restore(&snap).unwrap();
                            for a in 0..3 {
                                proptest::prop_assert_eq!(
                                    p.state(a),
                                    before[a].restored(snap.states[a])
                                );
                            }
                            continue;
                        }
                    }
                    for (a, &from) in before.iter().enumerate() {
                        let to = p.state(a);
                        proptest::prop_assert!(
                            ArrayState::transition_legal(from, to),
                            "array {} went {:?} -> {:?} on op {}", a, from, to, op
                        );
                    }
                    snaps.push(p.snapshot());
                }
            }
        }

        /// Arrays get forked fault streams: the same seed must not
        /// produce the same upset sequence on every pool member.
        #[test]
        fn pool_members_see_forked_fault_streams() {
            let builder = PimMachineBuilder::new(ArrayConfig::qvga())
                .fault(FaultModel::transient(7, 0.02))
                .protection(Protection::Parity);
            let mut p = builder.build_pool(2);
            // each array runs once, directly: no retry or quarantine
            // replaces the first run, so upsets are compared as injected
            let lanes: Vec<Vec<i64>> = (0..p.len())
                .map(|i| {
                    let m = p.array_mut(i);
                    m.host_write_lanes(0, &[11, 22, 33, 44]).unwrap();
                    m.execute(&alu(
                        AluOp::Logic(LogicFunc::Or),
                        Operand::Row(0),
                        Operand::Row(0),
                        Shift::None,
                    ))
                    .unwrap();
                    m.tmp_lanes()[..4].to_vec()
                })
                .collect();
            assert_ne!(
                lanes[0], lanes[1],
                "independent arrays must not replay identical upsets"
            );
        }
    }
}

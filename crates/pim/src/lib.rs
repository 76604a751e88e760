#![warn(missing_docs)]

//! Cycle- and energy-accurate simulator of the bit-parallel SRAM
//! processing-in-memory (PIM) architecture from the DAC'22 paper
//! *"Processing-in-SRAM Acceleration for Ultra-Low Power Visual 3D
//! Perception"*.
//!
//! # Architecture modeled
//!
//! * An SRAM array of `(320 * 8) x 256` bits: 256 word lines, each 2560
//!   bits wide (one QVGA image row of 8-bit pixels per word line).
//! * Two sense amplifiers per bitline column computing **AND** and
//!   **NOR** of two simultaneously activated rows; XOR/OR derived with
//!   one extra gate (Fig. 6-a of the paper).
//! * A bit-parallel accumulator + shifter sliced in 8-bit groups whose
//!   carry propagation is configurable at run time, yielding SIMD lanes
//!   of 8, 16, 32 or 64 bits (320/160/80/40 lanes per operation).
//! * A *carry extension* that produces per-lane overflow masks, used for
//!   saturation and comparison.
//! * A temporary register (**Tmp Reg**) holding one extended row; results
//!   land there and can feed the next operation without an SRAM
//!   write-back.
//!
//! # Simulation methodology
//!
//! Following the paper's own evaluation ("we assume that all basic
//! operations are single-cycle, and an extra write-back cycle is required
//! when the output resides in SRAM"), the simulator is:
//!
//! * **value-accurate at lane granularity** — every operation computes
//!   the exact lane values the hardware would produce (verified against
//!   the gate-level [`bitexact`] reference model by property tests);
//! * **cycle-accurate at operation granularity** — each macro operation
//!   expands into a deterministic sequence of single-cycle micro steps
//!   (multiplication and division cost `n + 2` cycles for `n`-bit
//!   operands including the SRAM read/write overhead, min/max two
//!   cycles, absolute difference three, …);
//! * **energy-accurate at component granularity** — every micro step is
//!   charged to the SRAM array, the shifter/adder, or the Tmp Reg using a
//!   configurable [`CostModel`] seeded with the paper's 90 nm numbers.
//!
//! Compute is a lowered IR program; host I/O stays outside it:
//!
//! ```
//! use pimvo_pim::{lower, ArrayConfig, LowerLevel, PimMachine, PimProgram, ScratchRows, Val};
//!
//! let mut pim = PimMachine::new(ArrayConfig::qvga());
//! pim.host_write_lanes(0, &[10, 20, 30]).unwrap();
//! pim.host_write_lanes(1, &[1, 2, 3]).unwrap();
//! let mut p = PimProgram::new("add");
//! let sum = p.add(Val::Row(0), Val::Row(1));
//! p.store(sum, 2);
//! let prog = lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(8, 2)).unwrap();
//! pim.run_program(&prog).unwrap();
//! assert_eq!(&pim.host_read_lanes(2).unwrap()[..3], &[11, 22, 33]);
//! assert_eq!(pim.stats().cycles, 2); // the add and its write-back
//! ```
//!
//! Multi-array deployments are modeled by [`PimArrayPool`]: N identical
//! arrays executing disjoint shards of a kernel in parallel, with merged
//! energy statistics and wall-cycles taken as the slowest shard plus a
//! configurable inter-array synchronisation overhead.
//!
//! # Kernel IR
//!
//! Kernels are written **once** as macro-op programs over virtual
//! registers ([`ir::PimProgram`]) and lowered to machine-op sequences
//! by the optimizing pass in [`lower()`] — Tmp-Reg allocation, adjacent
//! shift fusion and list scheduling at [`lower::LowerLevel::Opt`],
//! register-file spilling at `MultiReg`, or the paper's unoptimized
//! write-everything-back mapping at `Naive`. [`PimMachine::run_program`]
//! executes the result, charging the same [`CostModel`] and stamping
//! op records with the program name; [`PimMachine::execute`] runs one
//! [`MachineInstr`], the reference interpretation. The machine has no
//! other compute entry. A pool runs lowered programs through
//! [`PimArrayPool::submit_strips`], one program per array for
//! strip-sharded kernels; closures that do host I/O around several
//! programs (the pose batches) go through the fault-resilient
//! [`PimArrayPool::run_phase`].
//!
//! # Fault injection & resilience
//!
//! The [`fault`] module adds a deterministic, seeded [`FaultModel`]
//! (transient read upsets, stuck-at cells) and word [`Protection`]
//! (parity / SECDED ECC) whose detect/correct overhead is charged
//! through the [`CostModel`]. The pool layer reacts to detected errors
//! with bounded retry, shard re-dispatch and array quarantine
//! ([`PoolHealth`]); each array's membership is one [`ArrayState`],
//! persisted as a [`PoolSnapshot`]. All of it is inert by default: with
//! [`FaultModel::none`] and [`Protection::None`] every output, cycle
//! and picojoule is identical to a machine without the layer.
//!
//! # Host↔array data path (DMA)
//!
//! The [`dma`] module models the host↔SRAM bus the same way: typed
//! [`TransferDescriptor`]s (strip in, strip out) carry a CRC-32 over
//! payload + header, cost [`CostModel::transfer_cycles`] on the wire,
//! and ride per-array channel engines ([`PimMachineBuilder::dma`],
//! [`PimArrayPool::set_dma`]) with bounded queues. One schedule: a
//! program waits for the strips written before it, a host read
//! overlaps the compute that follows, and a settle point waits for
//! everything — the value domain never changes, only wall cycles.
//! A seeded [`DmaFaultModel`] injects payload flips
//! (caught by CRC), stalls and dropped completions (caught by a
//! cycle-domain timeout), driving a retry → exponential backoff →
//! channel-quarantine ladder; a quarantined channel degrades to the
//! synchronous port with bit-identical results. [`DmaHealth`] ledgers
//! the whole ladder per channel and merged per pool.

pub mod bitexact;
pub mod cache;
mod config;
mod cost;
pub mod dma;
pub mod fault;
pub mod health;
pub mod ir;
mod isa;
pub mod lower;
mod machine;
pub mod optrace;
mod pool;
mod stats;
mod stream;

pub use cache::{LoweredCache, LoweredCacheStats};
pub use config::{ArrayConfig, LaneWidth, Signedness};
pub use cost::{AreaReport, CostModel};
pub use dma::{DmaConfig, DmaFaultModel, DmaHealth, TransferDescriptor, TransferKind};
pub use fault::{FaultModel, FaultStatus, Protection, StuckBit};
pub use health::{ArrayState, PoolHealth, PoolSnapshot, PROBATION_PHASES};
pub use ir::{MacroOp, PimProgram, VReg, Val};
pub use isa::{AluOp, LogicFunc, Operand, Shift};
pub use lower::{
    lower, lower_passes, lower_with_report, pass_pipeline, LaneClass, LowerError, LowerLevel,
    LowerReport, LoweredOp, LoweredProgram, MachineInstr, Pass, PassStats, ScratchRows,
    MAX_TMP_REGS,
};
pub use machine::{PimError, PimMachine, PimMachineBuilder};
pub use optrace::{OpRecorder, DEFAULT_OP_RING_CAPACITY};
pub use pool::{PimArrayPool, SessionId};
pub use stats::{EnergyBreakdown, ExecStats, MemAccessBreakdown, OpHistogram};

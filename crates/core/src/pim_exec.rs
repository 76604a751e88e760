//! Machine-level execution of the pose-estimation pipeline.
//!
//! The tracker's [`crate::PimBackend`] evaluates the quantized warp /
//! Jacobian / Hessian pipeline with fast scalar integer code (exactly
//! the arithmetic defined in the `warp`, `jacobian` and `hessian`
//! modules). This module executes the *same* pipeline as an
//! instruction sequence on the [`PimMachine`]:
//!
//! * for **verification** — tests assert the machine-produced lane
//!   values equal the fast path bit-for-bit;
//! * for **pricing** — the instruction sequence is data-independent,
//!   so one batch run on a scratch array ([`BatchRunner::batch_cost`])
//!   yields the exact cycle and energy cost of every full batch; the
//!   backend's fast path multiplies that price by the batch count
//!   instead of re-simulating gigalanes of identical ops.
//!
//! # Schedule
//!
//! One batch covers up to 80 features (32-bit lanes of one word line).
//! The pipeline is written once as five macro-op programs
//! ([`pimvo_pim::PimProgram`]) — warp/projection/validity, fractional
//! weights, residual, Jacobian and Hessian — and lowered onto the
//! machine by [`pimvo_pim::lower()`] at the [`LowerLevel`] the
//! [`BatchMapping`] selects; host stages (lane writes, broadcasts,
//! gathers, readbacks) run between the programs. Warp, projection and
//! Jacobian run at `W32` (the paper: "the LM solver incurs a lot of
//! 32-bit mul/div operations, which has ... 4x less throughput than
//! the 8-bit image processing"). The Hessian/steepest-descent products
//! run at `W16` on the Q14.2 Jacobians, packing two 80-feature
//! half-batches per word line — the design reason the paper quantizes
//! `J` to 16 bits — so their traced cost is charged at half per
//! half-batch.
//!
//! Residual/gradient lookups are host-addressed gathers
//! ([`PimMachine::gather`]): one serialized read cycle per element, as
//! random access cannot use the SIMD datapath.
//!
//! # Compile once, execute many
//!
//! The five programs depend only on the staging rows, the feature
//! fraction, the interpolation mode, the mapping and the array
//! geometry — never on the features, pose or keyframe. A submission
//! therefore resolves them through the pool's [`LoweredCache`] once
//! (`PoseKernels`) and every batch of it runs the held lowered
//! programs: no batch builds, hashes or looks up a program.

use crate::hessian::{tri_idx, QNormalEquations};
use crate::quant::{
    Interp, QCamera, QFeature, QKeyframe, QPose, FEAT_FRAC, PIX_FRAC, POSE_FRAC, RATIO_FRAC,
};
use pimvo_pim::{
    ArrayConfig, ExecStats, LaneWidth, LowerLevel, LoweredCache, LoweredProgram, PimArrayPool,
    PimError, PimMachine, PimMachineBuilder, PimProgram, ScratchRows, Signedness, VReg, Val,
};
use pimvo_vomath::Pinhole;
use std::sync::Arc;

use Val::Row;

/// Features per machine batch (32-bit lanes per word line).
pub const BATCH: usize = 80;

/// Default scratch base row for the pose-estimation stage: in the
/// scratch bank, above the edge-detection regions.
pub const POSE_BASE: usize = 5 * 256 + 64;

/// Which machine mapping evaluates a batch.
///
/// The pipeline is written once as macro-op programs
/// ([`pimvo_pim::PimProgram`]); the mapping picks the
/// [`LowerLevel`] they are lowered at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMapping {
    /// The paper's optimized schedule ([`LowerLevel::Opt`]): Tmp-Reg
    /// chaining, the Fig. 5-d shared-subexpression pipeline and packed
    /// gathers.
    #[default]
    Opt,
    /// The naive mapping of Fig. 9-b's `LM*` group, which uses its
    /// cycles only. The per-feature outputs (warped coordinates, valid
    /// flags, Jacobians, residuals) equal [`BatchMapping::Opt`]'s. The
    /// Hessian-stage partials (`h_partial`, `b_partial`,
    /// `cost_partial`) do not: at [`LowerLevel::Naive`] each W16 Q28.4
    /// product is written back to a 16-bit SRAM lane before the reduce,
    /// so products that need more bits wrap. The naive schedule drops
    /// the paper's scheduling optimizations:
    ///
    /// * no Tmp-Reg chaining: the same macro-op programs are lowered at
    ///   [`LowerLevel::Naive`], so every intermediate is written back
    ///   to SRAM and re-read by the consumer;
    /// * no shared-subexpression pipeline (Fig. 5-d): the `s` term of
    ///   the Jacobian is charged as recomputed from scratch for J3, J4
    ///   and J5, and gathers as unpacked (see `charge_naive_extras`).
    Naive,
}

impl BatchMapping {
    /// The lowering level this mapping runs the pose programs at.
    fn level(self) -> LowerLevel {
        match self {
            BatchMapping::Opt => LowerLevel::Opt,
            BatchMapping::Naive => LowerLevel::Naive,
        }
    }
}

/// Options of a [`BatchRunner`]: mapping, residual interpolation and
/// pool size in one place.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Machine mapping (optimized or naive schedule).
    pub mapping: BatchMapping,
    /// Residual-interpolation mode of the keyframe lookup.
    pub interp: Interp,
    /// Number of PIM arrays batches are sharded across.
    pub pool: usize,
    /// When true, [`crate::TrackerBackend::linearize`] on the PIM
    /// backend executes every batch
    /// on the machines (through [`BatchRunner::submit`]) instead of
    /// the priced fast scalar path. Slower to simulate but required
    /// for fault-injection studies: injected upsets then actually
    /// corrupt the normal equations.
    pub on_machine: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            mapping: BatchMapping::Opt,
            interp: Interp::Bilinear,
            pool: 1,
            on_machine: false,
        }
    }
}

/// Unified submission front end for the pose-estimation pipeline.
///
/// The runner owns a [`PimArrayPool`] and executes whole feature sets:
/// [`BatchRunner::submit`] resolves the five lowered pose programs
/// once, splits the features into [`BATCH`]-sized chunks and shards
/// them across the pool's arrays in sections of `pool` batches, one
/// pool barrier per section. It is the only way a pose batch runs: one
/// machine is a runner with `pool: 1`, cycle-identical to a bare array.
///
/// ```
/// use pimvo_core::pim_exec::{BatchOptions, BatchRunner};
///
/// let runner = BatchRunner::new(BatchOptions { pool: 2, ..Default::default() });
/// assert_eq!(runner.pool().len(), 2);
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    pool: PimArrayPool,
    options: BatchOptions,
}

impl BatchRunner {
    /// Creates a runner over `options.pool` six-bank QVGA arrays.
    ///
    /// # Panics
    ///
    /// Panics if `options.pool` is zero.
    pub fn new(options: BatchOptions) -> Self {
        Self::from_builder(&PimMachine::builder(ArrayConfig::qvga_banks(6)), options)
    }

    /// Creates a runner whose arrays are stamped from an explicit
    /// builder configuration.
    ///
    /// # Panics
    ///
    /// Panics if `options.pool` is zero.
    pub fn from_builder(builder: &PimMachineBuilder, options: BatchOptions) -> Self {
        BatchRunner {
            pool: builder.build_pool(options.pool),
            options,
        }
    }

    /// The runner's options.
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// Shared view of the underlying array pool.
    pub fn pool(&self) -> &PimArrayPool {
        &self.pool
    }

    /// Exclusive access to the underlying array pool (edge kernels,
    /// stats reset, fleet pool swaps).
    pub fn pool_mut(&mut self) -> &mut PimArrayPool {
        &mut self.pool
    }

    /// Executes a whole feature set: chunks of [`BATCH`] features are
    /// sharded across the pool's arrays, one parallel phase per section
    /// of `pool.len()` batches. Returns the per-batch outputs in
    /// feature order — bit-identical to running the chunks sequentially
    /// on a single array.
    ///
    /// The five pose programs are resolved through the pool's
    /// [`LoweredCache`] once per submission, on the caller's thread,
    /// before any pool phase: one cache hit per program however many
    /// batches follow, and no shard touches the cache. A chunk whose
    /// first feature carries another fraction than the first chunk's
    /// (hand-built mixed input) gets programs resolved for its own
    /// fraction.
    ///
    /// The submission is fault-resilient: sections are sized to the
    /// pool's *healthy* array count and run through
    /// [`PimArrayPool::run_phase`], so a shard whose array
    /// reports detected errors is retried and — on a persistent defect —
    /// re-dispatched to another array (each `exec_batch` is
    /// self-contained: it host-writes every input it reads, making
    /// re-execution on any array safe). With inert fault models the
    /// outputs, cycles and energy are bit-identical to a build without
    /// the resilience layer.
    ///
    /// # Errors
    ///
    /// - [`PimError::RowOutOfRange`] if the arrays lack the staging rows
    ///   (the builder geometry leaves fewer than [`POSE_BASE`] +
    ///   [`POSE_ROWS`] rows); checked before any phase, so no array is
    ///   touched.
    /// - [`PimError::AllArraysQuarantined`] once no healthy array
    ///   remains.
    pub fn submit(
        &mut self,
        feats: &[QFeature],
        pose: &QPose,
        kf: &QKeyframe,
        cam: &Pinhole,
    ) -> Result<Vec<BatchOutput>, PimError> {
        let qcam = QCamera::quantize(cam);
        let mut kernels = vec![self.kernels(frac_of(feats))?];
        // each chunk paired with the index of its kernels in `kernels`
        let mut chunks = Vec::with_capacity(feats.len().div_ceil(BATCH));
        for chunk in feats.chunks(BATCH) {
            let ff = frac_of(chunk);
            let k = match kernels.iter().position(|k| k.ff == ff) {
                Some(k) => k,
                None => {
                    kernels.push(self.kernels(ff)?);
                    kernels.len() - 1
                }
            };
            chunks.push((chunk, k));
        }
        let mut outputs = Vec::with_capacity(chunks.len());
        let mut next = 0;
        while next < chunks.len() {
            // re-sized every section: recovery may quarantine arrays
            let n = self.pool.healthy_len();
            let section = &chunks[next..chunks.len().min(next + n.max(1))];
            let results = self.pool.run_phase("lm_batch", |shard, m| {
                section
                    .get(shard)
                    .map(|&(c, k)| exec_batch(m, &kernels[k], c, pose, kf, &qcam))
            })?;
            outputs.extend(results.into_iter().flatten());
            next += section.len();
        }
        Ok(outputs)
    }

    /// The pose programs for features at fraction `ff`, lowered through
    /// the pool's [`LoweredCache`] at the mapping's level for the
    /// arrays' geometry; [`PimError::RowOutOfRange`] without the
    /// staging rows. A program that fails to lower is a builder bug and
    /// panics.
    fn kernels(&self, ff: u32) -> Result<PoseKernels, PimError> {
        let config = self.pool.array(0).config();
        check_pose_rows(config)?;
        let rows = PoseRows::new(POSE_BASE);
        let BatchOptions {
            mapping, interp, ..
        } = self.options;
        let (level, scratch) = (mapping.level(), rows.lower_scratch());
        let cache: &LoweredCache = self.pool.lowered_cache();
        let lower = |prog: PimProgram| {
            cache
                .get_or_lower(&prog, level, &scratch, config)
                .unwrap_or_else(|e| panic!("lowering {} at {level}: {e}", prog.name()))
        };
        Ok(PoseKernels {
            rows,
            ff,
            interp,
            mapping,
            warp: lower(warp_program(&rows, ff)),
            frac: (interp == Interp::Bilinear).then(|| lower(frac_weights_program(&rows))),
            residual: lower(residual_program(&rows, interp)),
            jacobian: lower(jacobian_program(&rows)),
            hessian: lower(hessian_program(&rows)),
        })
    }

    /// The price of one full [`BATCH`]-feature batch: the statistics
    /// [`BatchRunner::submit`] adds for it. The pose op sequence is
    /// data-independent, so one dummy batch prices them all; it runs on
    /// a scratch array stamped from the pool's array 0 (geometry, cost
    /// model, word protection, Tmp-register count; no DMA channel, op
    /// recorder or fault model), so the pool is only read.
    ///
    /// # Errors
    ///
    /// [`PimError::RowOutOfRange`] if the arrays lack the staging rows,
    /// as for [`BatchRunner::submit`].
    pub fn batch_cost(
        &self,
        pose: &QPose,
        kf: &QKeyframe,
        cam: &Pinhole,
    ) -> Result<ExecStats, PimError> {
        let kernels = self.kernels(FEAT_FRAC)?;
        let a0 = self.pool.array(0);
        let mut scratch = PimMachine::builder(a0.config().clone())
            .cost(a0.cost_model().clone())
            .protection(a0.protection())
            .tmp_regs(a0.tmp_reg_count())
            .build();
        let feats = [QFeature {
            a: 100,
            b: -80,
            c: 2048,
            frac: FEAT_FRAC,
        }; BATCH];
        let qcam = QCamera::quantize(cam);
        let _ = exec_batch(&mut scratch, &kernels, &feats, pose, kf, &qcam);
        Ok(scratch.stats().clone())
    }
}

/// Row allocation for the pose-estimation stage (in the scratch bank,
/// above the edge-detection regions).
#[derive(Debug, Clone, Copy)]
struct PoseRows {
    base: usize,
}

impl PoseRows {
    const A: usize = 0; // feature a
    const B: usize = 1; // feature b
    const C: usize = 2; // feature c
    const ONE: usize = 3; // broadcast 1.0 in the feature format
    const POSE0: usize = 4; // r00..r22, t0..t2 broadcasts (12 rows)
    const CONST_F: usize = 16; // focal length, Q10.6
    const CONST_CX: usize = 17;
    const CONST_CY: usize = 18;
    const QX: usize = 22;
    const QY: usize = 23;
    const U: usize = 24;
    const V: usize = 25;
    const IZ: usize = 27;
    const GU: usize = 28;
    const GV: usize = 29;
    const RES: usize = 30;
    const J0: usize = 32; // J0..J5 -> rows 32..37
    const SCRATCH: usize = 38;
    const ZMASK: usize = 39;
    const LOWHALF: usize = 40;
    const WU: usize = 41;
    const WV: usize = 42;
    const D00: usize = 43;
    const D10: usize = 44;
    const D01: usize = 45;
    const D11: usize = 46;
    // Scratch pool the lowering pass spills into (rows 47..54; the
    // warp / X / Y / Z / S intermediates of the old hand schedule now
    // live in virtual registers and materialize here only on spill).
    const LOWER: usize = 47;
    const LOWER_LEN: usize = 8;

    fn new(base: usize) -> Self {
        PoseRows { base }
    }
    fn r(&self, off: usize) -> usize {
        self.base + off
    }

    /// Scratch rows handed to [`lower`] for register spills.
    fn lower_scratch(&self) -> ScratchRows {
        ScratchRows::contiguous(self.r(Self::LOWER), Self::LOWER_LEN)
    }
}

/// Rows the pose stage stages through, counted from its base row:
/// feature inputs, broadcasts, intermediates and the lowering's spill
/// pool.
pub const POSE_ROWS: usize = PoseRows::LOWER + PoseRows::LOWER_LEN;

/// Checks that arrays of geometry `config` hold the pose stage's
/// [`POSE_ROWS`] staging rows from [`POSE_BASE`] on.
///
/// # Errors
///
/// [`PimError::RowOutOfRange`] naming the last staging row when it
/// lies beyond the geometry.
pub(crate) fn check_pose_rows(config: &ArrayConfig) -> Result<(), PimError> {
    let last = POSE_BASE + POSE_ROWS - 1;
    if last >= config.rows {
        return Err(PimError::RowOutOfRange {
            row: last,
            rows: config.rows,
        });
    }
    Ok(())
}

/// The fraction a feature set is quantized at: its first feature's,
/// or the default Q4.12 of an empty set.
fn frac_of(feats: &[QFeature]) -> u32 {
    feats.first().map_or(FEAT_FRAC, |f| f.frac)
}

/// The five pose programs of [`pose_programs`], lowered for one array
/// geometry and held for every batch that runs them.
///
/// The programs are resolved through a [`LoweredCache`], so the cache
/// stays the single lowering authority (one miss per distinct program,
/// then hits); holding the `Arc`s spares each batch the program builds
/// and hashed lookups. Valid for batches whose features carry fraction
/// `ff`, on machines of the geometry they were resolved for.
#[derive(Debug, Clone)]
struct PoseKernels {
    rows: PoseRows,
    ff: u32,
    interp: Interp,
    mapping: BatchMapping,
    warp: Arc<LoweredProgram>,
    /// Fractional weights; bilinear interpolation only.
    frac: Option<Arc<LoweredProgram>>,
    residual: Arc<LoweredProgram>,
    jacobian: Arc<LoweredProgram>,
    hessian: Arc<LoweredProgram>,
}

/// Warp, projection and depth-validity program (Fig. 5-b):
/// `X/Y/Z = r0*a + r1*b + r2*1 + t*c`, the pinhole projection to
/// `(u, v)`, the inverse real depth `c/Z` and the combined Z-positive /
/// low-half lane mask. Stores `QX, QY, U, V, IZ, ZMASK`; everything
/// else stays in virtual registers.
fn warp_program(rows: &PoseRows, ff: u32) -> PimProgram {
    let mut p = PimProgram::new("pose_warp");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    let coord = |p: &mut PimProgram, r0: usize, r1: usize, r2: usize, t: usize| -> VReg {
        let m1 = p.mul_signed(Row(rows.r(PoseRows::POSE0 + r0)), Row(rows.r(PoseRows::A)));
        let m2 = p.mul_signed(Row(rows.r(PoseRows::POSE0 + r1)), Row(rows.r(PoseRows::B)));
        let s1 = p.add(m2.into(), m1.into());
        let m3 = p.mul_signed(
            Row(rows.r(PoseRows::POSE0 + r2)),
            Row(rows.r(PoseRows::ONE)),
        );
        let s2 = p.add(m3.into(), s1.into());
        // the homogeneous rotation column r*2 is pre-shifted by the
        // host to the warp accumulator format (a per-iteration
        // constant)
        let m4 = p.mul_signed(
            Row(rows.r(PoseRows::POSE0 + 9 + t)),
            Row(rows.r(PoseRows::C)),
        );
        p.add(m4.into(), s2.into())
    };
    let x = coord(&mut p, 0, 1, 2, 0);
    let y = coord(&mut p, 3, 4, 5, 1);
    let z = coord(&mut p, 6, 7, 8, 2);

    // projection
    let qx = p.div_frac_signed(x.into(), z.into(), RATIO_FRAC);
    p.store(qx, rows.r(PoseRows::QX));
    let qy = p.div_frac_signed(y.into(), z.into(), RATIO_FRAC);
    p.store(qy, rows.r(PoseRows::QY));
    let u1 = p.mul_signed(Row(rows.r(PoseRows::CONST_F)), qx.into());
    let u2 = p.shr_bits(u1.into(), RATIO_FRAC);
    let u = p.add(u2.into(), Row(rows.r(PoseRows::CONST_CX)));
    p.store(u, rows.r(PoseRows::U));
    let v1 = p.mul_signed(Row(rows.r(PoseRows::CONST_F)), qy.into());
    let v2 = p.shr_bits(v1.into(), RATIO_FRAC);
    let v = p.add(v2.into(), Row(rows.r(PoseRows::CONST_CY)));
    p.store(v, rows.r(PoseRows::V));

    // Z rescaled to Q4.12 and the inverse real depth c/Z (Q4.12)
    let z12 = p.shr_bits(z.into(), POSE_FRAC + ff - 12);
    let iz0 = p.div_frac_signed(Row(rows.r(PoseRows::C)), z12.into(), 12);
    let iz = match ff.cmp(&12) {
        std::cmp::Ordering::Greater => p.shr_bits(iz0.into(), ff - 12),
        std::cmp::Ordering::Less => p.shl_bits(iz0.into(), 12 - ff),
        std::cmp::Ordering::Equal => iz0,
    };
    p.store(iz, rows.r(PoseRows::IZ));

    // validity mask: Z12 > 0 (behind-camera and degenerate-depth lanes
    // are masked, branch-free), combined with a low-half constant so
    // the 32-bit-stored Q14.2 values reinterpret cleanly as 16-bit
    // lanes in the Hessian stage
    let zm0 = p.cmp_gt(z12.into(), Row(rows.r(PoseRows::SCRATCH)));
    let zm = p.and(zm0.into(), Row(rows.r(PoseRows::LOWHALF)));
    p.store(zm, rows.r(PoseRows::ZMASK));
    p
}

/// Bilinear fractional weights `wu, wv` (Q0.6): one AND with the 0x3F
/// constant the host broadcast into the scratch row.
fn frac_weights_program(rows: &PoseRows) -> PimProgram {
    let mut p = PimProgram::new("pose_frac");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    let wu = p.and(Row(rows.r(PoseRows::U)), Row(rows.r(PoseRows::SCRATCH)));
    p.store(wu, rows.r(PoseRows::WU));
    let wv = p.and(Row(rows.r(PoseRows::V)), Row(rows.r(PoseRows::SCRATCH)));
    p.store(wv, rows.r(PoseRows::WV));
    p
}

/// Residual program: bilinear interpolation of the gathered DT corners
/// (`dx0 = d00 + ((d10 - d00) * wu >> 6)`, likewise `dx1`, then the
/// vertical lerp), or in nearest mode, where the gathered value *is*
/// the residual, the residual row itself. Either way the Z/low-half
/// mask is folded in before the single store to the residual row.
fn residual_program(rows: &PoseRows, interp: Interp) -> PimProgram {
    let mut p = PimProgram::new("pose_residual");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    let r: Val = match interp {
        Interp::Bilinear => {
            let lerp = |p: &mut PimProgram, a: Val, b: Val, w: Val| -> VReg {
                let d = p.sub(b, a);
                let mq = p.mul_signed(d.into(), w);
                let s = p.shr_bits(mq.into(), PIX_FRAC);
                p.add(s.into(), a)
            };
            let dx0 = lerp(
                &mut p,
                Row(rows.r(PoseRows::D00)),
                Row(rows.r(PoseRows::D10)),
                Row(rows.r(PoseRows::WU)),
            );
            let dx1 = lerp(
                &mut p,
                Row(rows.r(PoseRows::D01)),
                Row(rows.r(PoseRows::D11)),
                Row(rows.r(PoseRows::WU)),
            );
            lerp(&mut p, dx0.into(), dx1.into(), Row(rows.r(PoseRows::WV))).into()
        }
        Interp::Nearest => Row(rows.r(PoseRows::RES)),
    };
    let rm = p.and(r, Row(rows.r(PoseRows::ZMASK)));
    p.store(rm, rows.r(PoseRows::RES));
    p
}

/// Jacobian program (the Fig. 5-d shared-subexpression pipeline): the
/// shared `s = (qx*gu + qy*gv) >> RATIO_FRAC` term feeds J2, J3 and
/// J4; each row is saturated to 16 bits, masked by the combined
/// Z/low-half mask and stored packed for the W16 Hessian stage.
fn jacobian_program(rows: &PoseRows) -> PimProgram {
    let mut p = PimProgram::new("pose_jacobian");
    p.set_lanes(LaneWidth::W32, Signedness::Signed);
    let qx = Row(rows.r(PoseRows::QX));
    let qy = Row(rows.r(PoseRows::QY));
    let gu = Row(rows.r(PoseRows::GU));
    let gv = Row(rows.r(PoseRows::GV));
    let iz = Row(rows.r(PoseRows::IZ));
    let zmask = Row(rows.r(PoseRows::ZMASK));

    // s = (qx*gu + qy*gv) >> RATIO_FRAC
    let t1 = p.mul_signed(qx, gu);
    let t2 = p.shr_bits(t1.into(), RATIO_FRAC);
    let t3 = p.mul_signed(qy, gv);
    let t4 = p.shr_bits(t3.into(), RATIO_FRAC);
    let s = p.add(t4.into(), t2.into());

    let mask_store = |p: &mut PimProgram, v: VReg, k: usize| {
        let n = p.sat_narrow(v.into(), 16);
        let m = p.and(n.into(), zmask);
        p.store(m, rows.r(PoseRows::J0) + k);
    };
    // J0 = (gu * iz) >> 12 ; J1 likewise ; J2 = -(s * iz) >> 12
    let j0 = p.mul_signed(gu, iz);
    let j0 = p.shr_bits(j0.into(), 12);
    mask_store(&mut p, j0, 0);
    let j1 = p.mul_signed(gv, iz);
    let j1 = p.shr_bits(j1.into(), 12);
    mask_store(&mut p, j1, 1);
    let j2 = p.mul_signed(s.into(), iz);
    let j2 = p.shr_bits(j2.into(), 12);
    let j2 = p.neg(j2.into());
    mask_store(&mut p, j2, 2);
    // J3 = -((qy*s >> 14) + gv)
    let j3 = p.mul_signed(qy, s.into());
    let j3 = p.shr_bits(j3.into(), RATIO_FRAC);
    let j3 = p.add(j3.into(), gv);
    let j3 = p.neg(j3.into());
    mask_store(&mut p, j3, 3);
    // J4 = (qx*s >> 14) + gu
    let j4 = p.mul_signed(qx, s.into());
    let j4 = p.shr_bits(j4.into(), RATIO_FRAC);
    let j4 = p.add(j4.into(), gu);
    mask_store(&mut p, j4, 4);
    // J5 = (qx*gv >> 14) - (qy*gu >> 14)
    let t5 = p.mul_signed(qx, gv);
    let t6 = p.shr_bits(t5.into(), RATIO_FRAC);
    let t7 = p.mul_signed(qy, gu);
    let t8 = p.shr_bits(t7.into(), RATIO_FRAC);
    let t9 = p.neg(t8.into());
    let j5 = p.add(t9.into(), t6.into());
    mask_store(&mut p, j5, 5);
    p
}

/// Hessian / steepest-descent / cost program at `W16` on the packed
/// Q14.2 Jacobians: 21 upper-triangle `J_i · J_k` products (Q28.4 →
/// Q29.3), six `J_i · r` products (Q26.6 → Q29.3) and the squared
/// residual (Q24.8), each folded by an in-array reduction. The 28
/// reduce results come back in exactly this order.
fn hessian_program(rows: &PoseRows) -> PimProgram {
    let mut p = PimProgram::new("pose_hessian");
    p.set_lanes(LaneWidth::W16, Signedness::Signed);
    let res = Row(rows.r(PoseRows::RES));
    for i in 0..6 {
        for k in i..6 {
            let v = p.mul_signed(Row(rows.r(PoseRows::J0) + i), Row(rows.r(PoseRows::J0) + k));
            let w = p.shr_bits(v.into(), 1); // Q28.4 -> Q29.3
            p.reduce(w.into());
        }
        let v = p.mul_signed(Row(rows.r(PoseRows::J0) + i), res);
        let w = p.shr_bits(v.into(), 3); // Q26.6 -> Q29.3
        p.reduce(w.into());
    }
    // cost partial: sum r^2 (Q24.8)
    let v = p.mul_signed(res, res);
    p.reduce(v.into());
    p
}

/// The five pose-estimation macro-op programs in submission order
/// (warp/projection, fractional weights, residual, Jacobian, Hessian),
/// built against staging rows from row `base` on for feature fraction
/// `ff`.
///
/// This is the introspection entry point behind `examples/dump_ir.rs`
/// and the tier-1 golden-program snapshots: the returned programs are
/// exactly what [`BatchRunner::submit`] lowers and executes, but
/// detached from any machine so they can be listed or lowered
/// standalone (pair with [`pose_scratch`]).
#[must_use]
pub fn pose_programs(base: usize, ff: u32, interp: Interp) -> Vec<PimProgram> {
    let rows = PoseRows::new(base);
    vec![
        warp_program(&rows, ff),
        frac_weights_program(&rows),
        residual_program(&rows, interp),
        jacobian_program(&rows),
        hessian_program(&rows),
    ]
}

/// The scratch-row pool the pose-program lowering spills into, for
/// staging rows from row `base` on — lowers [`pose_programs`] outside
/// [`BatchRunner::submit`].
#[must_use]
pub fn pose_scratch(base: usize) -> ScratchRows {
    PoseRows::new(base).lower_scratch()
}

/// Output of one machine batch: everything the host needs to fold the
/// batch into the normal equations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    /// Warped pixel columns, Q10.6 raw, one per feature lane.
    pub u_raw: Vec<i64>,
    /// Warped pixel rows, Q10.6 raw.
    pub v_raw: Vec<i64>,
    /// Jacobian rows (Q14.2 raw), per feature lane.
    pub jacobians: Vec<[i64; 6]>,
    /// Residuals (Q12.4 raw), zero for masked-out lanes.
    pub residuals: Vec<i64>,
    /// Valid-lane flags (in front of the camera and inside the map).
    pub valid: Vec<bool>,
    /// Hessian partial sums of this batch (Q29.3 raw, from the in-array
    /// reduction).
    pub h_partial: [i64; 21],
    /// Steepest-descent partial sums (Q29.3 raw).
    pub b_partial: [i64; 6],
    /// Squared-residual partial sum (Q24.8 raw).
    pub cost_partial: i64,
}

/// Single-batch core behind [`BatchRunner::submit`] and
/// [`BatchRunner::batch_cost`]: executes one chunk of ≤ [`BATCH`] features with
/// the pre-resolved `kernels` (their interpolation and mapping), on a
/// machine of the geometry they were resolved for.
///
/// # Panics
///
/// Panics if more than [`BATCH`] features are supplied.
fn exec_batch(
    m: &mut PimMachine,
    kernels: &PoseKernels,
    feats: &[QFeature],
    pose: &QPose,
    kf: &QKeyframe,
    cam: &QCamera,
) -> BatchOutput {
    assert!(feats.len() <= BATCH, "batch too large: {}", feats.len());
    debug_assert_eq!(
        frac_of(feats),
        kernels.ff,
        "kernels resolved for another fraction"
    );
    let PoseKernels {
        rows,
        ff,
        interp,
        mapping,
        ..
    } = *kernels;
    let run = |m: &mut PimMachine, prog: &LoweredProgram| {
        m.run_program(prog)
            .unwrap_or_else(|e| panic!("running {}: {e}", prog.name()))
    };
    let n = feats.len();

    // ---- host setup (I/O, not compute) --------------------------------
    m.set_lanes(LaneWidth::W32, Signedness::Signed);
    let write_field = |m: &mut PimMachine, row: usize, field: fn(&QFeature) -> i32| {
        m.host_write_lanes_iter(rows.r(row), feats.iter().map(|f| i64::from(field(f))))
            .expect("host I/O row in range");
    };
    write_field(m, PoseRows::A, |f| f.a);
    write_field(m, PoseRows::B, |f| f.b);
    write_field(m, PoseRows::C, |f| f.c);
    m.host_broadcast(rows.r(PoseRows::ONE), 1 << ff)
        .expect("host I/O row in range");
    for (k, &r) in pose.r.iter().enumerate() {
        m.host_broadcast(rows.r(PoseRows::POSE0 + k), r as i64)
            .expect("host I/O row in range");
    }
    // the homogeneous rotation column r*2 is pre-shifted by the host to
    // the warp accumulator format (a per-iteration constant)
    for (k, &t) in pose.t.iter().enumerate() {
        m.host_broadcast(rows.r(PoseRows::POSE0 + 9 + k), t as i64)
            .expect("host I/O row in range");
    }
    m.host_broadcast(rows.r(PoseRows::CONST_F), cam.f)
        .expect("host I/O row in range");
    m.host_broadcast(rows.r(PoseRows::CONST_CX), cam.cx)
        .expect("host I/O row in range");
    m.host_broadcast(rows.r(PoseRows::CONST_CY), cam.cy)
        .expect("host I/O row in range");

    // ---- warp / projection / validity mask (Fig. 5-b) ------------------
    m.host_broadcast(rows.r(PoseRows::SCRATCH), 0)
        .expect("host I/O row in range");
    m.host_broadcast(rows.r(PoseRows::LOWHALF), 0xFFFF)
        .expect("host I/O row in range");
    let _ = run(m, &kernels.warp);

    // ---- residual / gradient gather (host-addressed) -------------------
    if let Some(frac) = &kernels.frac {
        // fractional weights wu, wv (Q0.6): a single AND with 0x3F
        m.host_broadcast(rows.r(PoseRows::SCRATCH), (1 << PIX_FRAC) - 1)
            .expect("host I/O row in range");
        let _ = run(m, frac);
    }

    // every row read lands in one lane buffer, sized for W16 rows (the
    // widest lane count read here)
    let mut lanes = Vec::with_capacity(m.config().row_bytes() / 2);
    let read = |m: &mut PimMachine, row: usize, lanes: &mut Vec<i64>| {
        m.host_read_lanes_into(row, lanes)
            .expect("host I/O row in range");
    };
    read(m, rows.r(PoseRows::U), &mut lanes);
    let u_raw = lanes[..n].to_vec();
    read(m, rows.r(PoseRows::V), &mut lanes);
    let v_raw = lanes[..n].to_vec();
    read(m, rows.r(PoseRows::ZMASK), &mut lanes);
    let zmask = &lanes;
    let mut valid = vec![false; n];
    let [mut d00, mut d10, mut d01, mut d11, mut gu, mut gv] = [[0i64; BATCH]; 6];
    for i in 0..n {
        let in_front = zmask[i] != 0;
        match interp {
            Interp::Bilinear => {
                let x0 = u_raw[i] >> PIX_FRAC;
                let y0 = v_raw[i] >> PIX_FRAC;
                let wu = u_raw[i] & ((1 << PIX_FRAC) - 1);
                let wv = v_raw[i] & ((1 << PIX_FRAC) - 1);
                let in_map =
                    x0 >= 0 && y0 >= 0 && x0 + 1 < kf.width as i64 && y0 + 1 < kf.height as i64;
                valid[i] = in_front && in_map;
                if valid[i] {
                    let w = kf.width as usize;
                    let i00 = y0 as usize * w + x0 as usize;
                    d00[i] = kf.dt[i00] as i64;
                    d10[i] = kf.dt[i00 + 1] as i64;
                    d01[i] = kf.dt[i00 + w] as i64;
                    d11[i] = kf.dt[i00 + w + 1] as i64;
                    let xn = (x0 + i64::from(wu >= (1 << (PIX_FRAC - 1)))) as usize;
                    let yn = (y0 + i64::from(wv >= (1 << (PIX_FRAC - 1)))) as usize;
                    gu[i] = kf.gx[yn * w + xn] as i64;
                    gv[i] = kf.gy[yn * w + xn] as i64;
                }
            }
            Interp::Nearest => {
                let half = 1i64 << (PIX_FRAC - 1);
                let x = (u_raw[i] + half) >> PIX_FRAC;
                let y = (v_raw[i] + half) >> PIX_FRAC;
                let in_map = x >= 0 && y >= 0 && x < kf.width as i64 && y < kf.height as i64;
                valid[i] = in_front && in_map;
                if valid[i] {
                    let idx = y as usize * kf.width as usize + x as usize;
                    d00[i] = kf.dt[idx] as i64; // used directly as the residual
                    gu[i] = kf.gx[idx] as i64;
                    gv[i] = kf.gy[idx] as i64;
                }
            }
        }
    }
    // bilinear: three packed gathers per feature (two DT corner pairs +
    // interleaved gradients); nearest: two (DT + gradients)
    charge_gather(m, n, if interp == Interp::Bilinear { 3 } else { 2 });
    m.set_lanes(LaneWidth::W32, Signedness::Signed);
    let gathered = [
        (PoseRows::D00, &d00),
        (PoseRows::D10, &d10),
        (PoseRows::D01, &d01),
        (PoseRows::D11, &d11),
        (PoseRows::GU, &gu),
        (PoseRows::GV, &gv),
    ];
    for (row, values) in gathered {
        m.host_write_lanes(rows.r(row), &values[..n])
            .expect("host I/O row in range");
    }

    if interp == Interp::Nearest {
        // the gathered values are the residuals; place them in RES
        m.host_write_lanes(rows.r(PoseRows::RES), &d00[..n])
            .expect("host I/O row in range");
    }

    // residual: bilinear lerp pipeline (or the nearest staging copy),
    // with the validity mask folded in before the store — zeroed and
    // packed for the W16 hessian stage
    let _ = run(m, &kernels.residual);

    // ---- Jacobian (Fig. 5-d shared-subexpression pipeline) -------------
    // invalid lanes are masked branch-free: multiplying by the 0/-1 Z
    // mask would flip signs; instead each row is ANDed with it
    let _ = run(m, &kernels.jacobian);

    // read back jacobians and residuals (host view for verification /
    // fast-path checks). The combined mask packed each lane into 16-bit
    // form (high half cleared), so the sign-correct view is the W16
    // one: every second 16-bit lane holds a feature's entry.
    m.set_lanes(LaneWidth::W16, Signedness::Signed);
    let mut jacobians = vec![[0i64; 6]; n];
    #[allow(clippy::needless_range_loop)] // k indexes both a machine row and a column
    for k in 0..6 {
        read(m, rows.r(PoseRows::J0) + k, &mut lanes);
        for (i, jac) in jacobians.iter_mut().enumerate() {
            jac[k] = if valid[i] { lanes[2 * i] } else { 0 };
        }
    }
    read(m, rows.r(PoseRows::RES), &mut lanes);
    let residuals: Vec<i64> = (0..n)
        .map(|i| if valid[i] { lanes[2 * i] } else { 0 })
        .collect();
    m.set_lanes(LaneWidth::W32, Signedness::Signed);
    // the map-validity masking above covers Z; the gather stage already
    // zeroed the corner/gradient rows for out-of-map lanes, so J rows of
    // such lanes are zero because gu = gv = 0 there.

    // ---- Hessian / steepest descent at W16 on packed Q14.2 -------------
    // (charged at half cost: two 80-feature half-batches pack one
    // 160-lane word line; see the module docs)
    let before = m.stats().clone();
    let sums = run(m, &kernels.hessian);
    let mut h_partial = [0i64; 21];
    let mut b_partial = [0i64; 6];
    let mut it = sums.into_iter();
    for i in 0..6 {
        for k in i..6 {
            h_partial[tri_idx(i, k)] = it.next().expect("hessian reduce result");
        }
        b_partial[i] = it.next().expect("steepest-descent reduce result");
    }
    let cost_partial = it.next().expect("cost reduce result");
    // halve the hessian-stage charge: two 80-feature half-batches pack
    // one 160-lane word line, so each pays half of the traced stage.
    // try_since: counters restored from a checkpoint can sit below the
    // captured baseline; skip the retraction instead of panicking
    if let Some(hess) = m.stats().try_since(&before) {
        m.retract_stats(&hess.scaled_div(2));
    }

    if mapping == BatchMapping::Naive {
        charge_naive_extras(m, feats.len());
    }

    BatchOutput {
        u_raw,
        v_raw,
        jacobians,
        residuals,
        valid,
        h_partial,
        b_partial,
        cost_partial,
    }
}

/// Folds a batch output into a quantized normal-equation accumulator
/// using the in-array partial sums.
pub fn fold_batch(eq: &mut QNormalEquations, out: &BatchOutput) {
    let partial = QNormalEquations {
        h: out.h_partial,
        b: out.b_partial,
        cost: out.cost_partial,
        count: out.valid.iter().filter(|&&v| v).count(),
        hes_frac: eq.hes_frac,
        bits: eq.bits,
    };
    eq.merge(&partial);
}

/// Charges the serialized gather cost without touching array state
/// (the gathered tables are host-resident in this model).
fn charge_gather(m: &mut PimMachine, lanes: usize, tables: usize) {
    // issue a real gather against row 0 to keep the accounting inside
    // the machine's stats (values are discarded)
    let addrs = [(0usize, 0usize); 3 * BATCH];
    m.gather(&addrs[..lanes * tables]).expect("row 0 in range");
}

/// Charges the naive-schedule costs the [`LowerLevel::Naive`] lowering
/// cannot express (the SRAM round-trips of every intermediate *are*
/// real at that level — only program-level rewrites are modeled here,
/// and charging them changes no value):
///
///  * no shared-subexpression pipeline (Fig. 5-d): the s term is
///    recomputed for J3/J4/J5 (3 x (2 muls + shift + add) at W32)
///    and the inverse-depth division is recomputed for J2/J3
///    (2 extra 32-bit fractional divisions);
///  * no gather packing: the DT corners and gradients are fetched
///    with one serialized access per element (6/feature instead of
///    the packed 3/feature).
fn charge_naive_extras(m: &mut PimMachine, n_feats: usize) {
    let s_recompute = 3 * (2 * 38 + 2);
    let div_recompute = 2 * 50;
    let unpacked_gathers = 3 * n_feats as u64;
    let mut extra = ExecStats::new();
    extra.cycles = s_recompute + div_recompute + unpacked_gathers;
    extra.acc_ops = s_recompute + div_recompute;
    extra.tmp_accesses = extra.acc_ops + unpacked_gathers;
    m.merge_extra_stats(&extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;
    use crate::hessian::QNormalEquations;
    use crate::jacobian::jacobian_q;
    use crate::warp::project_q;
    use crate::Keyframe;
    use pimvo_kernels::GrayImage;
    use pimvo_pim::{ArrayConfig, DmaConfig};
    use pimvo_vomath::SE3;

    fn test_kf(cam: &Pinhole) -> QKeyframe {
        let (w, h) = (320u32, 240u32);
        let mut mask = vec![0u8; (w * h) as usize];
        // a grid of edge sites
        for y in (8..h).step_by(16) {
            for x in (8..w).step_by(14) {
                mask[(y * w + x) as usize] = 255;
            }
        }
        Keyframe::build(0, SE3::IDENTITY, GrayImage::from_raw(w, h, mask), cam).q_tables
    }

    fn test_features(cam: &Pinhole, n: usize) -> Vec<QFeature> {
        (0..n)
            .map(|i| {
                let u = 15.0 + (i % 30) as f64 * 9.7;
                let v = 12.0 + (i / 30) as f64 * 23.3;
                let d = 1.0 + (i % 11) as f64 * 0.45;
                Feature::new(u, v, d, cam).q
            })
            .collect()
    }

    /// Runs one batch on a single array with `mapping` and `interp`;
    /// returns its output and the array's statistics.
    fn one_batch(
        mapping: BatchMapping,
        interp: Interp,
        feats: &[QFeature],
        pose: &QPose,
        kf: &QKeyframe,
        cam: &Pinhole,
    ) -> (BatchOutput, ExecStats) {
        let mut runner = BatchRunner::new(BatchOptions {
            mapping,
            interp,
            ..Default::default()
        });
        let mut outs = runner.submit(feats, pose, kf, cam).unwrap();
        assert_eq!(outs.len(), 1, "one batch");
        (outs.remove(0), runner.pool().merged_stats())
    }

    /// [`one_batch`] with the optimized bilinear schedule.
    fn opt_batch(
        feats: &[QFeature],
        pose: &QPose,
        kf: &QKeyframe,
        cam: &Pinhole,
    ) -> (BatchOutput, ExecStats) {
        one_batch(BatchMapping::Opt, Interp::Bilinear, feats, pose, kf, cam)
    }

    #[test]
    fn machine_batch_matches_fast_path_exactly() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 80);
        let pose = QPose::quantize(&SE3::exp(&[0.03, -0.02, 0.04, 0.015, -0.01, 0.02]));

        let (out, _) = opt_batch(&feats, &pose, &kf, &cam);

        for (i, f) in feats.iter().enumerate() {
            let fast = project_q(f, &pose, &QCamera::quantize(&cam));
            match fast {
                Some(w) => {
                    assert_eq!(out.u_raw[i], w.u_raw, "lane {i} u");
                    assert_eq!(out.v_raw[i], w.v_raw, "lane {i} v");
                    if out.valid[i] {
                        let (r, gu, gv) = kf
                            .lookup_q(w.u_raw, w.v_raw)
                            .expect("valid lane must be in map");
                        assert_eq!(out.residuals[i], r, "lane {i} residual");
                        let jf = jacobian_q(w.qx, w.qy, w.iz_real, gu as i64, gv as i64);
                        assert_eq!(out.jacobians[i], jf, "lane {i} jacobian");
                    }
                }
                None => assert!(!out.valid[i], "lane {i} should be masked"),
            }
        }
    }

    #[test]
    fn batch_partials_equal_per_feature_sums() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 64);
        let pose = QPose::quantize(&SE3::exp(&[0.01, 0.02, -0.01, 0.0, 0.01, 0.0]));
        let (out, _) = opt_batch(&feats, &pose, &kf, &cam);

        // fold via in-array partials
        let mut eq_fold = QNormalEquations::zero();
        fold_batch(&mut eq_fold, &out);

        // accumulate per feature with the scalar path
        let mut eq_scalar = QNormalEquations::zero();
        for i in 0..feats.len() {
            eq_scalar.accumulate(&out.jacobians[i], out.residuals[i]);
        }
        // masked lanes contribute zero rows in both
        assert_eq!(eq_fold.h, eq_scalar.h);
        assert_eq!(eq_fold.b, eq_scalar.b);
        assert_eq!(eq_fold.cost, eq_scalar.cost);
        // counts: the scalar loop counted every feature, the fold only
        // valid lanes
        assert!(eq_fold.count <= eq_scalar.count);
    }

    /// The op sequence, and so the cost, is data-independent: the
    /// price (one dummy batch on a scratch array) equals what one full
    /// batch of real features adds to a fresh pool of one, for two
    /// feature sets and poses, at every mapping and interpolation. The
    /// bilinear prices are Fig. 9-b's per-batch LM cycles (the paper's
    /// ~58.9k cycles per 50-batch LM iteration puts a batch at ~1.2k),
    /// and nearest lookups are cheaper.
    #[test]
    fn batch_cost_is_data_independent() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, BATCH);
        let mirrored: Vec<QFeature> = feats.iter().map(|&f| QFeature { a: -f.a, ..f }).collect();
        let pose = QPose::quantize(&SE3::IDENTITY);
        let pose2 = QPose::quantize(&SE3::exp(&[0.05, 0.0, -0.03, 0.02, 0.0, 0.01]));
        for (mapping, fig9b) in [(BatchMapping::Opt, 1_902), (BatchMapping::Naive, 2_572)] {
            let price = |interp| {
                let options = BatchOptions {
                    mapping,
                    interp,
                    ..Default::default()
                };
                let price = BatchRunner::new(options)
                    .batch_cost(&pose, &kf, &cam)
                    .unwrap();
                for (f, p) in [(&feats, &pose), (&mirrored, &pose2)] {
                    let (_, submitted) = one_batch(mapping, interp, f, p, &kf, &cam);
                    assert_eq!(price, submitted, "{mapping:?} {interp:?}");
                }
                price.cycles
            };
            let bilinear = price(Interp::Bilinear);
            assert_eq!(bilinear, fig9b, "{mapping:?}");
            assert!(price(Interp::Nearest) < bilinear, "{mapping:?}");
        }
    }

    /// Pricing only reads the pool: with DMA channels and op recorders
    /// armed, a priced runner and an unpriced twin agree on merged
    /// statistics, wall clock, channel health and the drained op trace,
    /// then and after a further submission.
    #[test]
    fn pricing_leaves_an_armed_pool_untouched() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 2 * BATCH + 9);
        let pose = QPose::quantize(&SE3::exp(&[0.01, 0.0, 0.02, 0.0, 0.004, 0.0]));
        let armed = || {
            let mut runner = BatchRunner::new(BatchOptions {
                pool: 2,
                ..Default::default()
            });
            let pool = runner.pool_mut();
            pool.set_dma(Some(DmaConfig::default()));
            pool.arm_op_recorders(1 << 12);
            let _ = runner.submit(&feats, &pose, &kf, &cam).unwrap();
            runner.pool_mut().reset_stats();
            runner
        };
        let assert_same = |p: &mut PimArrayPool, t: &mut PimArrayPool| {
            assert_eq!(p.merged_stats(), t.merged_stats());
            assert_eq!(p.wall_cycles(), t.wall_cycles());
            assert_eq!(p.dma_health(), t.dma_health());
            let trace = p.drain_op_trace().unwrap();
            assert!(!trace.records.is_empty());
            assert_eq!(trace, t.drain_op_trace().unwrap());
        };
        let (mut priced, mut twin) = (armed(), armed());
        assert!(priced.batch_cost(&pose, &kf, &cam).unwrap().cycles > 0);
        assert_same(priced.pool_mut(), twin.pool_mut());
        let _ = priced.submit(&feats, &pose, &kf, &cam).unwrap();
        let _ = twin.submit(&feats, &pose, &kf, &cam).unwrap();
        assert_same(priced.pool_mut(), twin.pool_mut());
    }

    /// The op trace's one known gap against the pool clock: the Hessian
    /// stage is traced at full cost, then `exec_batch` retracts half of
    /// it from the statistics, so on one array with settled clocks each
    /// full batch puts the DAG critical path ahead of the wall delta by
    /// exactly the retracted cycles. A static Hessian cost would close
    /// the gap and make this an equality.
    #[test]
    fn op_trace_exceeds_the_wall_clock_by_the_retracted_hessian_half() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let pose = QPose::quantize(&SE3::IDENTITY);
        let mut runner = BatchRunner::new(BatchOptions::default());

        // the retraction, measured on a scratch array
        let kernels = runner.kernels(FEAT_FRAC).unwrap();
        let mut scratch = PimMachine::builder(runner.pool().array(0).config().clone()).build();
        scratch.set_lanes(LaneWidth::W32, Signedness::Signed);
        let _ = scratch.run_program(&kernels.hessian).unwrap();
        let half = scratch.stats().scaled_div(2);
        let retracted = half.cycles + half.host_io_cycles;
        assert!(retracted > 0);

        for batches in [1, 3] {
            let feats = test_features(&cam, batches * BATCH);
            let pool = runner.pool_mut();
            pool.arm_op_recorders(1 << 16);
            pool.dma_settle();
            let wall = pool.wall_cycles();
            let _ = runner.submit(&feats, &pose, &kf, &cam).unwrap();
            let pool = runner.pool_mut();
            pool.dma_settle();
            let wall_delta = pool.wall_cycles() - wall;
            let trace = pool.drain_op_trace().unwrap();
            assert_eq!(trace.dropped, 0);
            let critical = pimvo_telemetry::optrace::profile(&trace).critical_path_cycles;
            assert_eq!(
                critical - wall_delta,
                batches as u64 * retracted,
                "{batches} batches: critical path {critical}, wall delta {wall_delta}"
            );
        }
    }

    #[test]
    fn nearest_mode_matches_fast_path_exactly() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 80);
        let pose = QPose::quantize(&SE3::exp(&[0.02, -0.01, 0.03, 0.01, -0.005, 0.015]));
        let (out, _) = one_batch(BatchMapping::Opt, Interp::Nearest, &feats, &pose, &kf, &cam);
        for (i, f) in feats.iter().enumerate() {
            if let Some(w) = project_q(f, &pose, &QCamera::quantize(&cam)) {
                if out.valid[i] {
                    let (r, gu, gv) = kf
                        .lookup_with(w.u_raw, w.v_raw, Interp::Nearest)
                        .expect("valid lane in map");
                    assert_eq!(out.residuals[i], r, "lane {i} residual");
                    let jf = jacobian_q(w.qx, w.qy, w.iz_real, gu as i64, gv as i64);
                    assert_eq!(out.jacobians[i], jf, "lane {i} jacobian");
                }
            }
        }
    }

    #[test]
    fn sharded_submit_matches_sequential_batches() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 200);
        let pose = QPose::quantize(&SE3::exp(&[0.02, -0.01, 0.03, 0.005, -0.002, 0.01]));

        let mut runner = BatchRunner::new(BatchOptions {
            pool: 3,
            ..Default::default()
        });
        let sharded = runner.submit(&feats, &pose, &kf, &cam).unwrap();

        let mut one = BatchRunner::new(BatchOptions::default());
        let sequential: Vec<BatchOutput> = feats
            .chunks(BATCH)
            .flat_map(|c| one.submit(c, &pose, &kf, &cam).unwrap())
            .collect();

        assert_eq!(sharded, sequential, "sharding must not change values");
        // the distributed compute work equals the sequential work exactly
        let (merged, want) = (runner.pool().merged_stats(), one.pool().merged_stats());
        assert_eq!(merged.cycles, want.cycles);
        assert_eq!(merged.acc_ops, want.acc_ops);
        assert_eq!(merged.op_histogram, want.op_histogram);
    }

    #[test]
    fn sharded_wall_cycles_are_sections_times_batch_cost() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        // 4 full batches on 2 arrays -> 2 barrier sections
        let feats = test_features(&cam, 4 * BATCH);
        let pose = QPose::quantize(&SE3::IDENTITY);

        let mut runner = BatchRunner::new(BatchOptions {
            pool: 2,
            ..Default::default()
        });
        let _ = runner.submit(&feats, &pose, &kf, &cam).unwrap();

        // timeline = compute + host transfer cycles: the pool charges
        // strip I/O to the wall at each barrier
        let price = runner.batch_cost(&pose, &kf, &cam).unwrap();
        let per_batch = price.cycles + price.host_io_cycles;

        assert_eq!(
            runner.pool().wall_cycles(),
            2 * (per_batch + runner.pool().sync_cycles())
        );
        assert_eq!(runner.pool().barriers(), 2);
    }

    /// The naive mapping reproduces the per-feature outputs exactly,
    /// but not the Hessian-stage partials: its 16-bit write-backs wrap
    /// the Q28.4 products before the reduce.
    #[test]
    fn naive_mapping_matches_features_but_not_hessian_partials() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, BATCH);
        let pose = QPose::quantize(&SE3::exp(&[0.03, -0.02, 0.04, 0.015, -0.01, 0.02]));
        let (opt, _) = opt_batch(&feats, &pose, &kf, &cam);
        let (naive, _) = one_batch(
            BatchMapping::Naive,
            Interp::Bilinear,
            &feats,
            &pose,
            &kf,
            &cam,
        );
        assert_eq!(naive.u_raw, opt.u_raw);
        assert_eq!(naive.v_raw, opt.v_raw);
        assert_eq!(naive.valid, opt.valid);
        assert_eq!(naive.jacobians, opt.jacobians);
        assert_eq!(naive.residuals, opt.residuals);
        assert!(opt.valid.iter().any(|&v| v), "input must have valid lanes");
        assert_ne!(naive.h_partial, opt.h_partial);
        assert_ne!(naive.b_partial, opt.b_partial);
        assert_ne!(naive.cost_partial, opt.cost_partial);
        // the optimized partials are the exact per-feature sums
        let mut eq = QNormalEquations::zero();
        for (j, &r) in opt.jacobians.iter().zip(&opt.residuals) {
            eq.accumulate(j, r);
        }
        assert_eq!(
            (opt.h_partial, opt.b_partial, opt.cost_partial),
            (eq.h, eq.b, eq.cost)
        );
    }

    #[test]
    fn warm_submit_resolves_each_pose_program_once() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        // 4 batches: a per-batch lookup would add 4 hits per program
        let feats = test_features(&cam, 3 * BATCH + 17);
        let pose = QPose::quantize(&SE3::exp(&[0.01, 0.0, 0.02, 0.0, 0.004, 0.0]));
        for (interp, programs) in [(Interp::Bilinear, 5), (Interp::Nearest, 4)] {
            let mut runner = BatchRunner::new(BatchOptions {
                interp,
                pool: 2,
                ..Default::default()
            });
            runner.pool_mut().set_lowered_cache(LoweredCache::new());
            let _ = runner.submit(&feats, &pose, &kf, &cam).unwrap();
            let cold = runner.pool().lowered_cache().stats();
            assert_eq!((cold.misses, cold.hits), (programs, 0), "{interp:?} cold");
            let _ = runner.submit(&feats, &pose, &kf, &cam).unwrap();
            let warm = runner.pool().lowered_cache().stats();
            assert_eq!(
                (warm.misses, warm.hits),
                (programs, programs),
                "{interp:?}: one hit per program per submission"
            );
        }
    }

    #[test]
    fn submit_without_room_for_staging_rows_is_an_error() {
        let cam = Pinhole::qvga();
        let kf = test_kf(&cam);
        let feats = test_features(&cam, 2 * BATCH);
        let pose = QPose::quantize(&SE3::IDENTITY);
        let geometry = |rows| {
            PimMachine::builder(ArrayConfig {
                rows,
                ..ArrayConfig::qvga()
            })
        };
        // one row short of the staging rows
        let short = POSE_BASE + POSE_ROWS - 1;
        for pool in [1, 2] {
            let mut runner = BatchRunner::from_builder(
                &geometry(short),
                BatchOptions {
                    pool,
                    ..Default::default()
                },
            );
            let err = runner.submit(&feats, &pose, &kf, &cam).unwrap_err();
            assert!(
                matches!(err, PimError::RowOutOfRange { row, rows } if row == short && rows == short),
                "{err:?}"
            );
            // rejected before any phase: no array ran anything
            assert_eq!(runner.pool().merged_stats().cycles, 0);
            assert_eq!(runner.pool().barriers(), 0);
        }
        // the last staging row may be the array's last row
        let exact = POSE_BASE + POSE_ROWS;
        let mut runner = BatchRunner::from_builder(&geometry(exact), BatchOptions::default());
        assert!(runner.submit(&feats, &pose, &kf, &cam).is_ok());
    }
}

use crate::cost::CostModel;
use pimvo_telemetry::optrace::{OpKind, OP_KINDS};
use std::ops::Index;

/// Macro-op counts per [`OpKind`]: a fixed array indexed by kind, so
/// recording, cloning and combining histograms never touch the heap.
/// The machine counts its compute macro ops (`Logic` through
/// `Gather`); host transfers, maintenance and pool synchronisation
/// appear in the op trace only, so their counts stay 0.
///
/// A kind with count 0 is the same as an absent kind. There is no
/// separate "present" state: equality, [`OpHistogram::iter`] and every
/// combinator of [`ExecStats`] treat a zero count and a missing kind
/// alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OpHistogram([u64; OP_KINDS.len()]);

impl OpHistogram {
    /// The count of `kind` (0 when it never ran).
    pub fn get(&self, kind: OpKind) -> u64 {
        self.0[kind as usize]
    }

    /// The kinds with a non-zero count and their counts, in [`OpKind`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, u64)> + '_ {
        OP_KINDS
            .iter()
            .zip(&self.0)
            .filter(|(_, &n)| n > 0)
            .map(|(&k, &n)| (k, n))
    }

    /// The kind-wise `self - earlier`, or `None` if any count went
    /// backwards.
    fn checked_sub(&self, earlier: &Self) -> Option<Self> {
        let mut out = Self::default();
        for ((o, &a), &b) in out.0.iter_mut().zip(&self.0).zip(&earlier.0) {
            *o = a.checked_sub(b)?;
        }
        Some(out)
    }

    /// The kind-wise `f(self, other)`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    /// The kind-wise `f(count)`.
    fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        Self(self.0.map(f))
    }
}

impl Index<OpKind> for OpHistogram {
    type Output = u64;

    fn index(&self, kind: OpKind) -> &u64 {
        &self.0[kind as usize]
    }
}

/// Execution statistics accumulated by [`crate::PimMachine`].
///
/// Cycles follow the paper's timing model (single-cycle micro steps,
/// extra cycle per SRAM write-back); energy is accumulated per hardware
/// component at every micro step so that Fig. 10-a/b can be regenerated
/// from any workload trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Total clock cycles.
    pub cycles: u64,
    /// SRAM row activations during compute (reads through the SAs).
    pub sram_reads: u64,
    /// SRAM row write-backs.
    pub sram_writes: u64,
    /// Tmp Reg accesses (each compute step reading or writing it).
    pub tmp_accesses: u64,
    /// Shifter/adder activations (one per compute cycle).
    pub acc_ops: u64,
    /// Host I/O row transfers (loading images / reading results); kept
    /// separate because the paper excludes I/O from the per-frame energy.
    pub host_io_rows: u64,
    /// Modeled host↔array transfer cycles (synchronous PIO and the
    /// committed cost of DMA descriptors). Kept out of `cycles` so the
    /// compute budget stays comparable to the paper; the machine's
    /// timeline (and the pool wall clock) is `cycles + host_io_cycles +
    /// dma_stall_cycles`.
    pub host_io_cycles: u64,
    /// Lanes/bytes moved over the host port (transfer sizing).
    pub host_io_words: u64,
    /// Cycles the compute stream stalled waiting on DMA completions
    /// (queue backpressure, retries, backoff, timeout detection).
    pub dma_stall_cycles: u64,
    /// DMA descriptors retransmitted after a CRC reject or a dropped /
    /// timed-out completion.
    pub dma_retries: u64,
    /// DMA payload corruptions caught by the descriptor CRC.
    pub dma_crc_errors: u64,
    /// DMA descriptors that hit the cycle-domain completion timeout
    /// (stalled channel or dropped completion).
    pub dma_timeouts: u64,
    /// Per-word parity checks on protected compute accesses
    /// ([`crate::Protection::Parity`]); zero without protection.
    pub parity_checks: u64,
    /// Per-access ECC syndrome checks on protected compute accesses
    /// ([`crate::Protection::Ecc`]); zero without protection.
    pub ecc_checks: u64,
    /// ECC single-bit corrections performed on the compute path.
    pub ecc_corrections: u64,
    /// Scrub test-pattern row passes on the maintenance port (array
    /// rehabilitation after quarantine); zero outside scrub passes.
    pub scrub_rows: u64,
    /// Macro-op histogram.
    pub op_histogram: OpHistogram,
}

impl ExecStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a macro op in the histogram.
    pub(crate) fn record_op(&mut self, kind: OpKind) {
        self.op_histogram.0[kind as usize] += 1;
    }

    /// Difference `self - earlier`, for scoped measurements, with every
    /// subtraction checked: returns `None` if any counter (including
    /// the op histogram) went backwards instead of wrapping around —
    /// `earlier` came from a different measurement scope (e.g. a
    /// [`ExecStats::retract`] or a stats reset in between).
    pub fn try_since(&self, earlier: &ExecStats) -> Option<ExecStats> {
        Some(ExecStats {
            cycles: self.cycles.checked_sub(earlier.cycles)?,
            sram_reads: self.sram_reads.checked_sub(earlier.sram_reads)?,
            sram_writes: self.sram_writes.checked_sub(earlier.sram_writes)?,
            tmp_accesses: self.tmp_accesses.checked_sub(earlier.tmp_accesses)?,
            acc_ops: self.acc_ops.checked_sub(earlier.acc_ops)?,
            host_io_rows: self.host_io_rows.checked_sub(earlier.host_io_rows)?,
            host_io_cycles: self.host_io_cycles.checked_sub(earlier.host_io_cycles)?,
            host_io_words: self.host_io_words.checked_sub(earlier.host_io_words)?,
            dma_stall_cycles: self
                .dma_stall_cycles
                .checked_sub(earlier.dma_stall_cycles)?,
            dma_retries: self.dma_retries.checked_sub(earlier.dma_retries)?,
            dma_crc_errors: self.dma_crc_errors.checked_sub(earlier.dma_crc_errors)?,
            dma_timeouts: self.dma_timeouts.checked_sub(earlier.dma_timeouts)?,
            parity_checks: self.parity_checks.checked_sub(earlier.parity_checks)?,
            ecc_checks: self.ecc_checks.checked_sub(earlier.ecc_checks)?,
            ecc_corrections: self.ecc_corrections.checked_sub(earlier.ecc_corrections)?,
            scrub_rows: self.scrub_rows.checked_sub(earlier.scrub_rows)?,
            op_histogram: self.op_histogram.checked_sub(&earlier.op_histogram)?,
        })
    }

    /// Adds another stats block (for aggregating independent traces).
    pub fn merge(&mut self, other: &ExecStats) {
        self.cycles += other.cycles;
        self.sram_reads += other.sram_reads;
        self.sram_writes += other.sram_writes;
        self.tmp_accesses += other.tmp_accesses;
        self.acc_ops += other.acc_ops;
        self.host_io_rows += other.host_io_rows;
        self.host_io_cycles += other.host_io_cycles;
        self.host_io_words += other.host_io_words;
        self.dma_stall_cycles += other.dma_stall_cycles;
        self.dma_retries += other.dma_retries;
        self.dma_crc_errors += other.dma_crc_errors;
        self.dma_timeouts += other.dma_timeouts;
        self.parity_checks += other.parity_checks;
        self.ecc_checks += other.ecc_checks;
        self.ecc_corrections += other.ecc_corrections;
        self.scrub_rows += other.scrub_rows;
        self.op_histogram = self.op_histogram.zip(&other.op_histogram, |a, b| a + b);
    }

    /// Scales every counter by an integer factor (used to extrapolate a
    /// measured per-batch trace to a full feature set; valid because the
    /// PIM op sequences are data-independent).
    pub fn scaled(&self, factor: u64) -> ExecStats {
        ExecStats {
            cycles: self.cycles * factor,
            sram_reads: self.sram_reads * factor,
            sram_writes: self.sram_writes * factor,
            tmp_accesses: self.tmp_accesses * factor,
            acc_ops: self.acc_ops * factor,
            host_io_rows: self.host_io_rows * factor,
            host_io_cycles: self.host_io_cycles * factor,
            host_io_words: self.host_io_words * factor,
            dma_stall_cycles: self.dma_stall_cycles * factor,
            dma_retries: self.dma_retries * factor,
            dma_crc_errors: self.dma_crc_errors * factor,
            dma_timeouts: self.dma_timeouts * factor,
            parity_checks: self.parity_checks * factor,
            ecc_checks: self.ecc_checks * factor,
            ecc_corrections: self.ecc_corrections * factor,
            scrub_rows: self.scrub_rows * factor,
            op_histogram: self.op_histogram.map(|v| v * factor),
        }
    }

    /// Divides every counter by an integer factor (integer division;
    /// used to split a traced stage across logical batches that share
    /// it, e.g. two half-batches packed into one word line).
    pub fn scaled_div(&self, den: u64) -> ExecStats {
        assert!(den > 0, "division by zero");
        ExecStats {
            cycles: self.cycles / den,
            sram_reads: self.sram_reads / den,
            sram_writes: self.sram_writes / den,
            tmp_accesses: self.tmp_accesses / den,
            acc_ops: self.acc_ops / den,
            host_io_rows: self.host_io_rows / den,
            host_io_cycles: self.host_io_cycles / den,
            host_io_words: self.host_io_words / den,
            dma_stall_cycles: self.dma_stall_cycles / den,
            dma_retries: self.dma_retries / den,
            dma_crc_errors: self.dma_crc_errors / den,
            dma_timeouts: self.dma_timeouts / den,
            parity_checks: self.parity_checks / den,
            ecc_checks: self.ecc_checks / den,
            ecc_corrections: self.ecc_corrections / den,
            scrub_rows: self.scrub_rows / den,
            op_histogram: self.op_histogram.map(|v| v / den),
        }
    }

    /// Subtracts another stats block, saturating at zero (used to
    /// retract a shared-stage charge).
    pub fn retract(&mut self, other: &ExecStats) {
        self.cycles = self.cycles.saturating_sub(other.cycles);
        self.sram_reads = self.sram_reads.saturating_sub(other.sram_reads);
        self.sram_writes = self.sram_writes.saturating_sub(other.sram_writes);
        self.tmp_accesses = self.tmp_accesses.saturating_sub(other.tmp_accesses);
        self.acc_ops = self.acc_ops.saturating_sub(other.acc_ops);
        self.host_io_rows = self.host_io_rows.saturating_sub(other.host_io_rows);
        self.host_io_cycles = self.host_io_cycles.saturating_sub(other.host_io_cycles);
        self.host_io_words = self.host_io_words.saturating_sub(other.host_io_words);
        self.dma_stall_cycles = self.dma_stall_cycles.saturating_sub(other.dma_stall_cycles);
        self.dma_retries = self.dma_retries.saturating_sub(other.dma_retries);
        self.dma_crc_errors = self.dma_crc_errors.saturating_sub(other.dma_crc_errors);
        self.dma_timeouts = self.dma_timeouts.saturating_sub(other.dma_timeouts);
        self.parity_checks = self.parity_checks.saturating_sub(other.parity_checks);
        self.ecc_checks = self.ecc_checks.saturating_sub(other.ecc_checks);
        self.ecc_corrections = self.ecc_corrections.saturating_sub(other.ecc_corrections);
        self.scrub_rows = self.scrub_rows.saturating_sub(other.scrub_rows);
        self.op_histogram = self
            .op_histogram
            .zip(&other.op_histogram, u64::saturating_sub);
    }

    /// Energy decomposition per component (Fig. 10-a).
    pub fn energy(&self, cost: &CostModel) -> EnergyBreakdown {
        let sram = (self.sram_reads as f64) * cost.sram_read_pj
            + (self.sram_writes as f64) * cost.sram_write_pj
            + (self.scrub_rows as f64) * cost.scrub_row_pj;
        let shifter_adder = (self.acc_ops as f64) * cost.shifter_adder_pj;
        let tmp_reg = (self.tmp_accesses as f64) * cost.tmp_reg_pj;
        let ecc = (self.parity_checks as f64) * cost.parity_check_pj
            + (self.ecc_checks as f64) * cost.ecc_check_pj
            + (self.ecc_corrections as f64) * cost.ecc_correct_pj;
        EnergyBreakdown {
            sram_pj: sram,
            shifter_adder_pj: shifter_adder,
            tmp_reg_pj: tmp_reg,
            ecc_pj: ecc,
        }
    }

    /// Memory-access decomposition (Fig. 10-b).
    pub fn mem_accesses(&self) -> MemAccessBreakdown {
        MemAccessBreakdown {
            sram_reads: self.sram_reads,
            sram_writes: self.sram_writes,
            tmp_accesses: self.tmp_accesses,
        }
    }
}

/// Per-component energy (Fig. 10-a).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy consumed in the SRAM array, pJ.
    pub sram_pj: f64,
    /// Energy consumed in the shifter/adder datapath, pJ.
    pub shifter_adder_pj: f64,
    /// Energy consumed in the Tmp Reg, pJ.
    pub tmp_reg_pj: f64,
    /// Energy consumed by word protection (parity/ECC checks and
    /// corrections), pJ. Zero without [`crate::Protection`].
    pub ecc_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.sram_pj + self.shifter_adder_pj + self.tmp_reg_pj + self.ecc_pj
    }

    /// Total energy in mJ.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }

    /// Fraction of the total consumed by the SRAM array (paper: ≈86 %).
    pub fn sram_share(&self) -> f64 {
        let t = self.total_pj();
        if t == 0.0 {
            0.0
        } else {
            self.sram_pj / t
        }
    }
}

/// Memory-access decomposition (Fig. 10-b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemAccessBreakdown {
    /// SRAM row reads.
    pub sram_reads: u64,
    /// SRAM row writes (paper: ≈7 % of accesses after Tmp-Reg
    /// optimization).
    pub sram_writes: u64,
    /// Tmp Reg accesses.
    pub tmp_accesses: u64,
}

impl MemAccessBreakdown {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.sram_reads + self.sram_writes + self.tmp_accesses
    }

    /// Write share of all accesses.
    pub fn write_share(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.sram_writes as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Map = BTreeMap<OpKind, u64>;

    /// The `BTreeMap` histogram formulas [`ExecStats`] used before
    /// [`OpHistogram`], kept as the oracle of the array port.
    mod map_oracle {
        use super::Map;

        pub fn merge(a: &mut Map, b: &Map) {
            for (k, v) in b {
                *a.entry(*k).or_insert(0) += v;
            }
        }

        pub fn try_since(now: &Map, earlier: &Map) -> Option<Map> {
            let mut hist = Map::new();
            for (k, v) in earlier {
                let n = now.get(k).copied().unwrap_or(0);
                n.checked_sub(*v)?;
            }
            for (k, v) in now {
                let prev = earlier.get(k).copied().unwrap_or(0);
                let d = v.checked_sub(prev)?;
                if d > 0 {
                    hist.insert(*k, d);
                }
            }
            Some(hist)
        }

        pub fn scaled(m: &Map, factor: u64) -> Map {
            m.iter().map(|(k, v)| (*k, v * factor)).collect()
        }

        pub fn scaled_div(m: &Map, den: u64) -> Map {
            m.iter().map(|(k, v)| (*k, v / den)).collect()
        }

        pub fn retract(a: &mut Map, b: &Map) {
            for (k, v) in b {
                if let Some(mine) = a.get_mut(k) {
                    *mine = mine.saturating_sub(*v);
                }
            }
        }
    }

    /// `m` with its zero counts dropped: the form in which a zero count
    /// and an absent kind agree.
    fn normalized(m: &Map) -> Map {
        m.iter()
            .filter(|(_, &v)| v > 0)
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Statistics whose histogram holds `m`'s counts.
    fn stats_of(m: &Map) -> ExecStats {
        let mut s = ExecStats::new();
        for (&k, &v) in m {
            s.op_histogram.0[k as usize] = v;
        }
        s
    }

    fn map_of(s: &ExecStats) -> Map {
        s.op_histogram.iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `merge`, `try_since`, `scaled`, `scaled_div` and `retract`
        /// on the array histogram agree with the old map formulas, a
        /// zero count counting as absent. Each kind of either operand
        /// is absent, zero or a small count, so both directions of
        /// `try_since` (and its `None`) come up.
        #[test]
        fn histogram_ops_match_the_map_formulas(
            seed in any::<u64>(),
            factor in 0..5u64,
            den in 1..5u64,
        ) {
            let mut s = seed | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut draw = || -> Map {
                OP_KINDS
                    .iter()
                    .filter_map(|&c| match next() % 4 {
                        0 => None,
                        1 => Some((c, 0)),
                        r => Some((c, r + next() % 3)),
                    })
                    .collect()
            };
            let (a, b) = (draw(), draw());
            let (sa, sb) = (stats_of(&a), stats_of(&b));

            let mut want = a.clone();
            map_oracle::merge(&mut want, &b);
            let mut got = sa.clone();
            got.merge(&sb);
            prop_assert_eq!(map_of(&got), normalized(&want));

            for (now, earlier) in [(&a, &b), (&b, &a), (&want, &a)] {
                let got = stats_of(now).try_since(&stats_of(earlier)).map(|d| map_of(&d));
                prop_assert_eq!(got, map_oracle::try_since(now, earlier));
            }

            prop_assert_eq!(map_of(&sa.scaled(factor)), normalized(&map_oracle::scaled(&a, factor)));
            prop_assert_eq!(map_of(&sa.scaled_div(den)), normalized(&map_oracle::scaled_div(&a, den)));

            let mut want = a.clone();
            map_oracle::retract(&mut want, &b);
            let mut got = sa.clone();
            got.retract(&sb);
            prop_assert_eq!(map_of(&got), normalized(&want));
        }
    }

    #[test]
    fn histogram_indexes_by_kind_and_zero_is_absent() {
        for (i, &k) in OP_KINDS.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} sits at its discriminant");
        }
        let mut s = ExecStats::new();
        s.record_op(OpKind::Gather);
        s.record_op(OpKind::Gather);
        s.record_op(OpKind::Logic);
        assert_eq!(s.op_histogram[OpKind::Gather], 2);
        assert_eq!(s.op_histogram.get(OpKind::Mul), 0);
        let listed: Vec<_> = s.op_histogram.iter().collect();
        assert_eq!(listed, vec![(OpKind::Logic, 1), (OpKind::Gather, 2)]);
        // a kind scaled down to zero equals one that never ran
        let halved = s.scaled_div(4);
        assert_eq!(halved, ExecStats::new());
    }

    #[test]
    fn since_subtracts() {
        let mut a = ExecStats::new();
        a.cycles = 10;
        a.sram_reads = 4;
        a.record_op(OpKind::Mul);
        let mut b = a.clone();
        b.cycles = 25;
        b.sram_reads = 6;
        b.record_op(OpKind::Mul);
        b.record_op(OpKind::Div);
        let d = b.try_since(&a).unwrap();
        assert_eq!(d.cycles, 15);
        assert_eq!(d.sram_reads, 2);
        assert_eq!(d.op_histogram[OpKind::Mul], 1);
        assert_eq!(d.op_histogram[OpKind::Div], 1);
    }

    #[test]
    fn try_since_catches_underflow() {
        let mut a = ExecStats::new();
        a.cycles = 30;
        a.record_op(OpKind::Mul);
        let mut b = ExecStats::new();
        b.cycles = 10; // went backwards (e.g. reset in between)
        assert_eq!(b.try_since(&a), None);

        // histogram-only regression is caught too, even with equal cycles
        let mut c = ExecStats::new();
        c.cycles = 30;
        assert_eq!(c.try_since(&a), None);
        c.record_op(OpKind::Mul);
        assert_eq!(c.try_since(&a), Some(ExecStats::new()));
    }

    #[test]
    fn energy_breakdown_sums() {
        let mut s = ExecStats::new();
        s.sram_reads = 10;
        s.sram_writes = 2;
        s.acc_ops = 30;
        s.tmp_accesses = 40;
        let cost = CostModel::default();
        let e = s.energy(&cost);
        assert!(e.total_pj() > 0.0);
        assert!(e.sram_share() > 0.5);
        assert!(
            (e.total_pj() - (12.0 * 944.8 + 30.0 * cost.shifter_adder_pj + 40.0 * cost.tmp_reg_pj))
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn scaled_multiplies_everything() {
        let mut s = ExecStats::new();
        s.cycles = 7;
        s.tmp_accesses = 3;
        s.record_op(OpKind::Avg);
        let t = s.scaled(4);
        assert_eq!(t.cycles, 28);
        assert_eq!(t.tmp_accesses, 12);
        assert_eq!(t.op_histogram[OpKind::Avg], 4);
    }

    #[test]
    fn mem_access_write_share() {
        let m = MemAccessBreakdown {
            sram_reads: 80,
            sram_writes: 10,
            tmp_accesses: 60,
        };
        assert_eq!(m.total(), 150);
        assert!((m.write_share() - 10.0 / 150.0).abs() < 1e-12);
    }
}

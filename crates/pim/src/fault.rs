//! Deterministic fault injection and word-protection (parity / ECC)
//! for the PIM array.
//!
//! Low-voltage in-SRAM compute is exactly where transient read upsets
//! and stuck-at cells bite, so the simulator can optionally corrupt the
//! data it senses:
//!
//! * **Transient bit flips** — every bit that passes through the sense
//!   amplifiers during a row read flips with a configured probability.
//!   The stream of flips is fully deterministic for a given seed: the
//!   model draws geometric inter-fault gaps (in bits) from a seeded
//!   xorshift64* generator, so the hot path is a single counter
//!   decrement per row read and re-running a workload reproduces the
//!   exact same upsets.
//! * **Stuck-at bits** — persistent cell defects forced to a fixed
//!   value on every read of their row. A stuck bit whose forced value
//!   happens to match the stored data is invisible, exactly as on real
//!   silicon.
//!
//! Orthogonally, a [`Protection`] mode guards every 32-bit word of a
//! row:
//!
//! * [`Protection::Parity`] detects any odd number of flipped bits per
//!   word but corrects nothing — the corrupted value still propagates,
//!   the error is merely *visible* (to e.g. a
//!   [`crate::PimArrayPool`] retry policy).
//! * [`Protection::Ecc`] models a SECDED code: a single flipped bit per
//!   word is corrected (the flip is never observed by the datapath), two
//!   or more flips are detected but propagate corrupted.
//!
//! Detection/correction work is not free: the machine charges check and
//! correction cycles/energy through [`crate::CostModel`] on every
//! protected compute access, so fault tolerance shows up in
//! [`crate::ExecStats`].
//!
//! With the default [`FaultModel::none`] and [`Protection::None`] the
//! fast read path is untouched — outputs, cycles and energy are
//! bit-identical to a machine without the layer.

use crate::stream::FaultStream;
use std::collections::BTreeMap;

/// Bits per protection word: parity/ECC check granularity.
pub const PROTECTION_WORD_BITS: usize = 32;

/// Word-level protection mode of the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Protection {
    /// No protection: faults propagate silently, no overhead.
    #[default]
    None,
    /// Per-word parity: detects odd numbers of flipped bits, corrects
    /// nothing. Cheapest detection primitive.
    Parity,
    /// SECDED-style ECC per word: corrects single-bit errors, detects
    /// double-bit errors. The storage overhead of the check bits is not
    /// modelled; the time/energy overhead is (see [`crate::CostModel`]).
    Ecc,
}

/// A persistent stuck-at cell fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckBit {
    /// Row containing the defective cell.
    pub row: usize,
    /// Bit offset within the row (LSB-first within each byte).
    pub bit: usize,
    /// The value the cell is stuck at.
    pub value: bool,
}

/// Cumulative fault counters of one machine (host and compute reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatus {
    /// Bit flips actually observed by the datapath (transient upsets
    /// and visible stuck-at bits that protection did not correct).
    pub injected: u64,
    /// Words whose single-bit error was corrected by ECC.
    pub corrected: u64,
    /// Words with a *detected but uncorrected* error (parity mismatch
    /// or ECC double-bit): the corrupted value propagated, but the
    /// failure is visible to the host / pool scheduler.
    pub detected: u64,
}

impl FaultStatus {
    /// Difference `self - earlier` for scoped measurements.
    pub fn since(&self, earlier: &FaultStatus) -> FaultStatus {
        FaultStatus {
            injected: self.injected - earlier.injected,
            corrected: self.corrected - earlier.corrected,
            detected: self.detected - earlier.detected,
        }
    }
}

/// A deterministic, seeded fault model pluggable into
/// [`crate::PimMachineBuilder::fault`].
///
/// The default [`FaultModel::none`] injects nothing and adds no
/// overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    seed: u64,
    /// Probability of a transient flip per bit read.
    bit_read_rate: f64,
    stuck: Vec<StuckBit>,
}

impl FaultModel {
    /// The inert model: no faults, no overhead. This is the default of
    /// every machine.
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            bit_read_rate: 0.0,
            stuck: Vec::new(),
        }
    }

    /// True when this model can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.bit_read_rate <= 0.0 && self.stuck.is_empty()
    }

    /// A model injecting transient bit flips at `rate` per bit read,
    /// deterministically derived from `seed`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        FaultModel {
            seed,
            bit_read_rate: rate,
            stuck: Vec::new(),
        }
    }

    /// Adds a persistent stuck-at fault at (`row`, `bit`).
    pub fn with_stuck_bit(mut self, row: usize, bit: usize, value: bool) -> Self {
        self.stuck.push(StuckBit { row, bit, value });
        self
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// The per-machine fault state: model + RNG stream + protection mode +
/// counters. Lives inside [`crate::PimMachine`]; inert by default.
#[derive(Debug, Clone)]
pub(crate) struct FaultUnit {
    model: FaultModel,
    protection: Protection,
    rng: FaultStream,
    /// Bits of fault-free stream remaining before the next transient
    /// flip (geometric inter-arrival sampling).
    bits_to_next: u64,
    status: FaultStatus,
    /// Detected (uncorrected) error events per row — the "syndrome log"
    /// an ECC controller would keep. Repeated detections on one row are
    /// the pool's evidence of a persistent (stuck-at) defect.
    row_log: BTreeMap<usize, u64>,
    /// ECC corrections performed since the machine last charged their
    /// cycle/energy cost (drained by the compute accounting).
    pending_corrections: u64,
}

impl FaultUnit {
    pub(crate) fn new(model: FaultModel, protection: Protection) -> Self {
        let mut u = FaultUnit {
            rng: FaultStream::new(model.seed),
            model,
            protection,
            bits_to_next: 0,
            status: FaultStatus::default(),
            row_log: BTreeMap::new(),
            pending_corrections: 0,
        };
        u.bits_to_next = u.sample_gap();
        u
    }

    /// True when the read path can skip fault/protection handling
    /// entirely (the default): guarantees bit- and cycle-identical
    /// behaviour to a build without this module.
    pub(crate) fn is_inert(&self) -> bool {
        self.model.is_none() && self.protection == Protection::None
    }

    pub(crate) fn protection(&self) -> Protection {
        self.protection
    }

    pub(crate) fn set_protection(&mut self, p: Protection) {
        self.protection = p;
    }

    pub(crate) fn model(&self) -> &FaultModel {
        &self.model
    }

    pub(crate) fn set_model(&mut self, model: FaultModel) {
        let protection = self.protection;
        let status = self.status;
        let row_log = std::mem::take(&mut self.row_log);
        *self = FaultUnit::new(model, protection);
        self.status = status;
        self.row_log = row_log;
    }

    /// Forks the transient-fault stream with `salt` so pool member
    /// arrays stamped from one builder see independent fault patterns.
    pub(crate) fn reseed(&mut self, salt: u64) {
        self.rng.reseed(salt);
        self.bits_to_next = self.sample_gap();
    }

    pub(crate) fn status(&self) -> FaultStatus {
        self.status
    }

    pub(crate) fn reset_status(&mut self) {
        self.status = FaultStatus::default();
        self.row_log.clear();
    }

    pub(crate) fn row_log(&self) -> &BTreeMap<usize, u64> {
        &self.row_log
    }

    pub(crate) fn add_stuck_bit(&mut self, row: usize, bit: usize, value: bool) {
        self.model.stuck.push(StuckBit { row, bit, value });
    }

    /// Takes the corrections awaiting their compute-side charge.
    pub(crate) fn take_pending_corrections(&mut self) -> u64 {
        std::mem::take(&mut self.pending_corrections)
    }

    /// Applies only the *persistent* (stuck-at) component of the model
    /// to the raw readback `data` of physical `row` — the scrub
    /// test-pattern path. A DC march test is sensitive to cell defects
    /// but not to read upsets, so protection, the transient RNG stream,
    /// the counters and the syndrome log are all left untouched: a
    /// scrub pass never perturbs the deterministic transient stream.
    pub(crate) fn apply_stuck_raw(&self, row: usize, data: &mut [u8]) {
        for s in &self.model.stuck {
            if s.row == row && s.bit / 8 < data.len() {
                let cur = (data[s.bit / 8] >> (s.bit % 8)) & 1 == 1;
                if cur != s.value {
                    data[s.bit / 8] ^= 1 << (s.bit % 8);
                }
            }
        }
    }

    /// Samples a geometric fault-free gap (in bits) at the transient
    /// rate. `u64::MAX` when the rate is zero.
    fn sample_gap(&mut self) -> u64 {
        let p = self.model.bit_read_rate;
        if p <= 0.0 {
            return u64::MAX;
        }
        // u in (0, 1]; gap = floor(ln u / ln(1 - p))
        let u = ((self.rng.next_u64() >> 11) as f64 + 1.0) / 9007199254740992.0;
        let g = u.ln() / (-p).ln_1p();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Applies the fault model to one row read: mutates `data` (the
    /// sensed copy — cell contents are untouched by transient upsets)
    /// and updates counters. `host` reads skip the pending-correction
    /// queue (their protection overhead is outside the compute budget,
    /// matching the paper's exclusion of I/O energy).
    pub(crate) fn apply_to_read(&mut self, row: usize, data: &mut [u8], host: bool) {
        let nbits = (data.len() * 8) as u64;

        // transient flips in this row's bit window
        let mut flips: Vec<usize> = Vec::new();
        if self.model.bit_read_rate > 0.0 {
            while self.bits_to_next < nbits {
                flips.push(self.bits_to_next as usize);
                let gap = self.sample_gap();
                self.bits_to_next = self.bits_to_next.saturating_add(gap).saturating_add(1);
            }
            self.bits_to_next -= nbits;
        }

        // stuck-at cells on this row that differ from the stored value
        for s in &self.model.stuck {
            if s.row == row && s.bit / 8 < data.len() {
                let cur = (data[s.bit / 8] >> (s.bit % 8)) & 1 == 1;
                if cur != s.value {
                    flips.push(s.bit);
                }
            }
        }
        if flips.is_empty() {
            return;
        }

        // group by protection word and resolve per the protection mode
        let mut words: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for f in flips {
            words.entry(f / PROTECTION_WORD_BITS).or_default().push(f);
        }
        for (_, wf) in words {
            match self.protection {
                Protection::None => {
                    for f in &wf {
                        data[f / 8] ^= 1 << (f % 8);
                    }
                    self.status.injected += wf.len() as u64;
                }
                Protection::Parity => {
                    for f in &wf {
                        data[f / 8] ^= 1 << (f % 8);
                    }
                    self.status.injected += wf.len() as u64;
                    if wf.len() % 2 == 1 {
                        self.status.detected += 1;
                        *self.row_log.entry(row).or_insert(0) += 1;
                    }
                }
                Protection::Ecc => {
                    if wf.len() == 1 {
                        // single-bit error: corrected, never observed
                        self.status.corrected += 1;
                        if !host {
                            self.pending_corrections += 1;
                        }
                    } else {
                        // multi-bit: detected but uncorrectable
                        for f in &wf {
                            data[f / 8] ^= 1 << (f % 8);
                        }
                        self.status.injected += wf.len() as u64;
                        self.status.detected += 1;
                        *self.row_log.entry(row).or_insert(0) += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_is_inert() {
        let u = FaultUnit::new(FaultModel::none(), Protection::None);
        assert!(u.is_inert());
        assert!(FaultModel::none().is_none());
        assert_eq!(u.status(), FaultStatus::default());
    }

    #[test]
    fn protection_alone_is_not_inert() {
        let u = FaultUnit::new(FaultModel::none(), Protection::Ecc);
        assert!(!u.is_inert(), "ECC must charge overhead even fault-free");
    }

    #[test]
    fn transient_stream_is_deterministic() {
        let run = || {
            let mut u = FaultUnit::new(FaultModel::transient(42, 0.01), Protection::None);
            let mut data = vec![0u8; 64];
            for _ in 0..50 {
                u.apply_to_read(3, &mut data, false);
            }
            (data.clone(), u.status())
        };
        let (d1, s1) = run();
        let (d2, s2) = run();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(s1.injected > 0, "1% rate over 25600 bits must flip");
    }

    #[test]
    fn reseed_forks_the_stream() {
        let stream = |salt: Option<u64>| {
            let mut u = FaultUnit::new(FaultModel::transient(7, 0.02), Protection::None);
            if let Some(s) = salt {
                u.reseed(s);
            }
            let mut data = vec![0u8; 32];
            for _ in 0..40 {
                u.apply_to_read(0, &mut data, false);
            }
            data
        };
        assert_ne!(stream(None), stream(Some(1)));
        assert_eq!(stream(Some(1)), stream(Some(1)));
    }

    #[test]
    fn ecc_corrects_single_bit() {
        let mut u = FaultUnit::new(
            FaultModel::none().with_stuck_bit(5, 3, true),
            Protection::Ecc,
        );
        let mut data = vec![0u8; 8]; // stored 0, stuck-at-1 differs
        u.apply_to_read(5, &mut data, false);
        assert_eq!(data, vec![0u8; 8], "ECC must hide the stuck bit");
        let s = u.status();
        assert_eq!((s.injected, s.corrected, s.detected), (0, 1, 0));
        assert_eq!(u.take_pending_corrections(), 1);
        assert_eq!(u.take_pending_corrections(), 0);
    }

    #[test]
    fn ecc_detects_double_bit_and_logs_row() {
        // two stuck bits in the same 32-bit word: uncorrectable
        let mut u = FaultUnit::new(
            FaultModel::none()
                .with_stuck_bit(5, 3, true)
                .with_stuck_bit(5, 17, true),
            Protection::Ecc,
        );
        let mut data = vec![0u8; 8];
        u.apply_to_read(5, &mut data, false);
        assert_ne!(data, vec![0u8; 8], "double-bit error must propagate");
        let s = u.status();
        assert_eq!((s.injected, s.corrected, s.detected), (2, 0, 1));
        assert_eq!(u.row_log().get(&5), Some(&1));
    }

    #[test]
    fn parity_detects_but_does_not_correct() {
        let mut u = FaultUnit::new(
            FaultModel::none().with_stuck_bit(2, 0, true),
            Protection::Parity,
        );
        let mut data = vec![0u8; 4];
        u.apply_to_read(2, &mut data, false);
        assert_eq!(data[0], 1, "parity must let the flip through");
        let s = u.status();
        assert_eq!((s.injected, s.corrected, s.detected), (1, 0, 1));
    }

    #[test]
    fn invisible_stuck_bit_matches_stored_data() {
        let mut u = FaultUnit::new(
            FaultModel::none().with_stuck_bit(0, 0, true),
            Protection::Parity,
        );
        let mut data = vec![1u8; 1]; // bit 0 already 1: stuck-at-1 invisible
        u.apply_to_read(0, &mut data, false);
        assert_eq!(u.status(), FaultStatus::default());
    }
}

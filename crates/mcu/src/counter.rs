use std::collections::BTreeMap;

/// Instruction classes of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstrClass {
    /// Simple ALU (add/sub/shift/logic/compare/select).
    Alu,
    /// 32-bit multiply or multiply-accumulate.
    Mul,
    /// Integer divide.
    Div,
    /// Memory load (word or SIMD4 byte group).
    Load,
    /// Memory store.
    Store,
    /// Taken branch / loop overhead.
    Branch,
    /// Call/return overhead.
    Call,
}

impl InstrClass {
    /// All classes, for iteration.
    pub fn all() -> [InstrClass; 7] {
        use InstrClass::*;
        [Alu, Mul, Div, Load, Store, Branch, Call]
    }

    /// True for data-movement instructions (the profile of §1).
    pub fn is_memory(self) -> bool {
        matches!(self, InstrClass::Load | InstrClass::Store)
    }
}

/// Per-class cycle costs and the energy constant of the MCU model.
#[derive(Debug, Clone, PartialEq)]
pub struct McuCostTable {
    /// Cycles per ALU instruction.
    pub alu: u64,
    /// Cycles per multiply/MAC.
    pub mul: u64,
    /// Cycles per divide (SDIV/UDIV mid-range).
    pub div: u64,
    /// Cycles per load.
    pub load: u64,
    /// Cycles per store.
    pub store: u64,
    /// Cycles per taken branch.
    pub branch: u64,
    /// Cycles per call/return pair.
    pub call: u64,
    /// Energy per cycle in nJ. Calibrated so a PicoVO-class frame
    /// (≈6.8 M cycles) costs ≈10.3 mJ, matching both the paper's §5.4
    /// figure and the STM32F7 datasheet envelope (≈0.33 W @ 216 MHz).
    pub energy_nj_per_cycle: f64,
    /// Clock frequency, Hz.
    pub clock_hz: f64,
}

impl McuCostTable {
    /// Cortex-M7-class defaults.
    fn cortex_m7() -> Self {
        McuCostTable {
            alu: 1,
            mul: 1,
            div: 6,
            load: 2,
            store: 1,
            branch: 2,
            call: 4,
            energy_nj_per_cycle: 1.51,
            clock_hz: 216.0e6,
        }
    }

    /// Cycles for one instruction of a class.
    pub fn cycles(&self, class: InstrClass) -> u64 {
        match class {
            InstrClass::Alu => self.alu,
            InstrClass::Mul => self.mul,
            InstrClass::Div => self.div,
            InstrClass::Load => self.load,
            InstrClass::Store => self.store,
            InstrClass::Branch => self.branch,
            InstrClass::Call => self.call,
        }
    }
}

impl Default for McuCostTable {
    fn default() -> Self {
        Self::cortex_m7()
    }
}

/// Accumulates instruction counts and cycles for the MCU model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostCounter {
    table: McuCostTable,
    counts: BTreeMap<InstrClass, u64>,
    cycles: u64,
}

impl CostCounter {
    /// New counter with the default Cortex-M7 table.
    pub fn new() -> Self {
        Self::with_table(McuCostTable::default())
    }

    /// New counter with an explicit cost table.
    fn with_table(table: McuCostTable) -> Self {
        CostCounter {
            table,
            counts: BTreeMap::new(),
            cycles: 0,
        }
    }

    /// Charges `n` instructions of a class.
    #[inline]
    pub fn charge(&mut self, class: InstrClass, n: u64) {
        *self.counts.entry(class).or_insert(0) += n;
        self.cycles += n * self.table.cycles(class);
    }

    /// Shorthand charges.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.charge(InstrClass::Alu, n);
    }
    /// Charges multiplies.
    #[inline]
    pub fn mul(&mut self, n: u64) {
        self.charge(InstrClass::Mul, n);
    }
    /// Charges divides.
    #[inline]
    pub fn div(&mut self, n: u64) {
        self.charge(InstrClass::Div, n);
    }
    /// Charges loads.
    #[inline]
    pub fn load(&mut self, n: u64) {
        self.charge(InstrClass::Load, n);
    }
    /// Charges stores.
    #[inline]
    pub fn store(&mut self, n: u64) {
        self.charge(InstrClass::Store, n);
    }
    /// Charges branches.
    #[inline]
    pub fn branch(&mut self, n: u64) {
        self.charge(InstrClass::Branch, n);
    }
    /// Charges call/returns.
    #[inline]
    pub fn call(&mut self, n: u64) {
        self.charge(InstrClass::Call, n);
    }

    /// Total modeled cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instruction count of one class.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts.get(&class).copied().unwrap_or(0)
    }

    /// Total instruction count.
    pub fn total_instructions(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Modeled energy in mJ.
    pub fn energy_mj(&self) -> f64 {
        self.cycles as f64 * self.table.energy_nj_per_cycle * 1e-6
    }

    /// The cost table in use.
    pub fn table(&self) -> &McuCostTable {
        &self.table
    }

    /// Resets counters, keeping the table.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = CostCounter::new();
        c.alu(10);
        c.load(5);
        c.div(2);
        assert_eq!(c.count(InstrClass::Alu), 10);
        assert_eq!(c.cycles(), 10 + 5 * 2 + 2 * 6);
        assert_eq!(c.total_instructions(), 17);
    }

    #[test]
    fn energy_scales_with_cycles() {
        let mut c = CostCounter::new();
        c.alu(1_000_000);
        assert!((c.energy_mj() - 1.51).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_counts() {
        let mut c = CostCounter::new();
        c.mul(3);
        c.reset();
        assert_eq!(c.cycles(), 0);
        assert_eq!(c.total_instructions(), 0);
    }

    #[test]
    fn memory_classification() {
        assert!(InstrClass::Load.is_memory());
        assert!(InstrClass::Store.is_memory());
        assert!(!InstrClass::Mul.is_memory());
    }
}

//! What the lane-class tests share: a seeded generator and the
//! comparison of a `run_program` run against its `execute` replay.

use pimvo_pim::{
    AluOp, LaneWidth, LoweredProgram, MachineInstr, Operand, PimMachine, Shift, Signedness,
};

/// A small deterministic generator (SplitMix64).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Replays a lowered program instruction by instruction through
/// `execute`, labelling records the way `run_program` does.
pub fn replay(m: &mut PimMachine, prog: &LoweredProgram) -> Vec<i64> {
    if let Some(rec) = m.op_recorder_mut() {
        rec.set_label(Some(prog.name()));
    }
    let sums = prog
        .ops()
        .iter()
        .filter_map(|op| m.execute(&op.instr).expect("replayed op"))
        .collect();
    if let Some(rec) = m.op_recorder_mut() {
        rec.set_label(None);
    }
    sums
}

/// Runs `prog` through `run_program` on `fast` and by replay on
/// `reference`, then returns the first disagreement, if any. One more
/// instruction reading the Tmp Reg afterwards checks the state the run
/// hands on.
pub fn compare(
    fast: &mut PimMachine,
    reference: &mut PimMachine,
    prog: &LoweredProgram,
    rows: usize,
) -> Result<(), String> {
    let sums = fast.run_program(prog).map_err(|e| e.to_string())?;
    let want = replay(reference, prog);
    let ctx = format!("{} ({:?})", prog.name(), prog.lane_class());
    let check = |what: &str, same: bool| {
        if same {
            Ok(())
        } else {
            Err(format!("{ctx}: {what} differs"))
        }
    };
    check("reduce sums", sums == want)?;
    check("tmp lanes", fast.tmp_lanes() == reference.tmp_lanes())?;
    check("tmp bits", fast.tmp_bits() == reference.tmp_bits())?;
    check(
        "lane config",
        fast.lane_width() == reference.lane_width() && fast.signedness() == reference.signedness(),
    )?;
    let follow_up = MachineInstr::Alu {
        op: AluOp::Add,
        a: Operand::Tmp,
        b: Operand::Row(2),
        shift: Shift::Pix(1),
    };
    for m in [&mut *fast, &mut *reference] {
        m.execute(&follow_up).map_err(|e| e.to_string())?;
    }
    check(
        "follow-up instruction result",
        fast.tmp_lanes() == reference.tmp_lanes(),
    )?;
    check("stats", fast.stats() == reference.stats())?;
    check(
        "op records",
        fast.drain_op_trace() == reference.drain_op_trace(),
    )?;
    check(
        "fault status",
        fast.fault_status() == reference.fault_status(),
    )?;
    check(
        "fault row log",
        fast.fault_row_log() == reference.fault_row_log(),
    )?;
    for m in [&mut *fast, &mut *reference] {
        m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    }
    for r in 0..rows {
        let (a, b) = (fast.host_read_lanes(r), reference.host_read_lanes(r));
        check(&format!("row {r}"), a == b)?;
    }
    Ok(())
}

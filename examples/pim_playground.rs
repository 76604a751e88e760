//! Drive the bit-parallel SRAM-PIM machine directly: reproduces the
//! arithmetic walk-throughs of Fig. 7 of the paper (absolute
//! difference, branch-free min/max, shift-accumulate multiplication,
//! restoring division), disassembles the last instructions from the
//! op recorder, and shows the cycle/energy ledger the simulator keeps.
//!
//! ```sh
//! cargo run --release --example pim_playground
//! ```

use pimvo::pim::{
    AluOp, ArrayConfig, CostModel, LaneWidth, Operand, PimError, PimMachine, Shift, Signedness,
    DEFAULT_OP_RING_CAPACITY,
};
use Operand::{Row, Tmp};

fn main() -> Result<(), PimError> {
    let mut m = PimMachine::new(ArrayConfig::qvga());
    m.arm_op_recorder(0, DEFAULT_OP_RING_CAPACITY);
    println!(
        "array: {} rows x {} bits ({} lanes at 8-bit)",
        m.config().rows,
        m.config().row_bits,
        m.config().lanes(LaneWidth::W8)
    );
    println!();

    // Fig. 7-a: absolute difference |A - B|
    m.host_write_lanes(0, &[121, 12])?;
    m.host_write_lanes(1, &[106, 22])?;
    m.alu(AluOp::AbsDiff, Row(0), Row(1), Shift::None)?;
    println!("Fig.7-a |[121,12] - [106,22]| = {:?}", &m.tmp_lanes()[..2]);

    // Fig. 7-b: branch-free min/max
    m.alu(AluOp::Min, Row(0), Row(1), Shift::None)?;
    let min2 = m.tmp_lanes()[..2].to_vec();
    m.alu(AluOp::Max, Row(0), Row(1), Shift::None)?;
    println!("Fig.7-b min = {:?}, max = {:?}", min2, &m.tmp_lanes()[..2]);

    // Fig. 7-c: multiplication 13 x 11 = 143 (n+2 cycles at 8 bits)
    m.host_write_lanes(2, &[13])?;
    m.host_write_lanes(3, &[11])?;
    let c0 = m.stats().cycles;
    m.mul(Row(2), Row(3))?;
    m.writeback(4)?;
    println!(
        "Fig.7-c 13 x 11 = {} in {} cycles (paper: n+2 = 10)",
        m.host_read_lanes(4)?[0],
        m.stats().cycles - c0
    );

    // Fig. 7-d: division 15 / 6 = 2 rem 3
    m.host_write_lanes(2, &[15])?;
    m.host_write_lanes(3, &[6])?;
    m.div(Row(2), Row(3))?;
    let q = m.tmp_lanes()[0];
    m.rem(Row(2), Row(3))?;
    println!("Fig.7-d 15 / 6 = {} rem {}", q, m.tmp_lanes()[0]);
    println!();

    // a taste of the SIMD width: 320 pixel averages in one cycle
    m.set_lanes(LaneWidth::W8, Signedness::Unsigned);
    let a: Vec<i64> = (0..320).map(|i| (i % 251) as i64).collect();
    let b: Vec<i64> = (0..320).map(|i| ((i * 7) % 251) as i64).collect();
    m.host_write_lanes(10, &a)?;
    m.host_write_lanes(11, &b)?;
    // label the records of the box-filter step in the disassembly
    if let Some(rec) = m.op_recorder_mut() {
        rec.set_label(Some("box2x2"));
    }
    let c1 = m.stats().cycles;
    m.alu(AluOp::Avg, Row(10), Row(11), Shift::None)?;
    // fused shift-average (Fig. 2's LPF step)
    m.alu(AluOp::Avg, Tmp, Tmp, Shift::Pix(1))?;
    println!(
        "320-lane 2x2 box filter step: {} cycles for 640 pixel averages",
        m.stats().cycles - c1
    );
    println!();

    // instruction trace (disassembly-style)
    if let Some(trace) = m.drain_op_trace() {
        println!("last instructions:");
        let listing = trace.listing();
        let lines: Vec<&str> = listing.lines().collect();
        for line in &lines[lines.len().saturating_sub(5)..] {
            println!("  {line}");
        }
        println!();
    }

    // the ledger
    let s = m.stats();
    let e = s.energy(&CostModel::default());
    println!(
        "ledger: {} cycles, {} SRAM reads, {} writes, {} Tmp accesses",
        s.cycles, s.sram_reads, s.sram_writes, s.tmp_accesses
    );
    println!(
        "energy: {:.1} nJ (SRAM {:.0} %, datapath {:.0} %)",
        e.total_pj() / 1e3,
        100.0 * e.sram_share(),
        100.0 * (1.0 - e.sram_share())
    );
    Ok(())
}

//! Drive the bit-parallel SRAM-PIM machine with one-op programs:
//! reproduces the arithmetic walk-throughs of Fig. 7 of the paper
//! (absolute difference, branch-free min/max, shift-accumulate
//! multiplication, restoring division), checks each result, and shows
//! the lowered instructions, the op recorder's disassembly and the
//! cycle/energy ledger the simulator keeps. Exits non-zero if a Fig. 7
//! result drifts.
//!
//! ```sh
//! cargo run --release --example pim_playground
//! ```

use pimvo::pim::{
    lower, ArrayConfig, CostModel, LaneWidth, LowerLevel, PimError, PimMachine, PimProgram,
    ScratchRows, VReg, Val, DEFAULT_OP_RING_CAPACITY,
};
use Val::Row;

/// Row every program stores its result to.
const OUT: usize = 4;

/// Lowers the program `body` builds (its result stored to [`OUT`]),
/// runs it, and returns the first `n` result lanes with the cycles the
/// run took.
fn run(
    m: &mut PimMachine,
    name: &str,
    n: usize,
    body: impl FnOnce(&mut PimProgram) -> VReg,
) -> Result<(Vec<i64>, u64), PimError> {
    let mut p = PimProgram::new(name);
    let v = body(&mut p);
    p.store(v, OUT);
    let prog =
        lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(16, 4)).expect("one-op programs lower");
    let c0 = m.stats().cycles;
    m.run_program(&prog)?;
    let cycles = m.stats().cycles - c0;
    Ok((m.host_read_lanes(OUT)?[..n].to_vec(), cycles))
}

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
    let (diff, _) = run(&mut m, "abs_diff", 2, |p| p.abs_diff(Row(0), Row(1)))?;
    println!("Fig.7-a |[121,12] - [106,22]| = {diff:?}");
    assert_eq!(diff, [15, 10], "Fig. 7-a absolute difference");

    // Fig. 7-b: branch-free min/max
    let (min2, _) = run(&mut m, "min", 2, |p| p.min(Row(0), Row(1)))?;
    let (max2, _) = run(&mut m, "max", 2, |p| p.max(Row(0), Row(1)))?;
    println!("Fig.7-b min = {min2:?}, max = {max2:?}");
    assert_eq!(
        (min2, max2),
        (vec![106, 12], vec![121, 22]),
        "Fig. 7-b min/max"
    );

    // Fig. 7-c: multiplication 13 x 11 = 143 (n+2 cycles at 8 bits:
    // operand read, n shift-accumulate steps, write-back)
    m.host_write_lanes(2, &[13])?;
    m.host_write_lanes(3, &[11])?;
    let (prod, cycles) = run(&mut m, "mul", 1, |p| p.mul(Row(2), Row(3)))?;
    println!(
        "Fig.7-c 13 x 11 = {} in {cycles} cycles (paper: n+2 = 10)",
        prod[0]
    );
    assert_eq!((prod[0], cycles), (143, 10), "Fig. 7-c multiplication");

    // Fig. 7-d: restoring division 15 / 6 = 2
    m.host_write_lanes(2, &[15])?;
    m.host_write_lanes(3, &[6])?;
    let (quot, _) = run(&mut m, "div", 1, |p| p.div_frac(Row(2), Row(3), 0))?;
    println!("Fig.7-d 15 / 6 = {}", quot[0]);
    assert_eq!(quot[0], 2, "Fig. 7-d division");
    println!();

    // a taste of the SIMD width: 320 pixel averages in one cycle, then
    // the fused shift-average of Fig. 2's LPF step
    let a: Vec<i64> = (0..320).map(|i| (i % 251) as i64).collect();
    let b: Vec<i64> = (0..320).map(|i| ((i * 7) % 251) as i64).collect();
    m.host_write_lanes(10, &a)?;
    m.host_write_lanes(11, &b)?;
    let mut p = PimProgram::new("box2x2");
    let v = p.avg(Row(10), Row(11));
    let h = p.avg_sh(v.into(), v.into(), 1);
    p.store(h, OUT);
    let prog =
        lower(&p, LowerLevel::Opt, &ScratchRows::contiguous(16, 4)).expect("box filter lowers");
    print!("{prog}");
    let c1 = m.stats().cycles;
    m.run_program(&prog)?;
    println!(
        "320-lane 2x2 box filter step: {} cycles for 640 pixel averages and the write-back",
        m.stats().cycles - c1
    );
    println!();

    // instruction trace (disassembly-style, labelled by program)
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

//! The `i32` lane class is an interpreter detail, not a model change.
//!
//! `run_program` runs a [`LaneClass::I32`] program (signed 16-bit row
//! products, shifted right and reduced: the pose Hessian's shape) on
//! `i32` lanes. Each random program here also runs replayed instruction
//! by instruction through `execute` on `i64` lanes, and both machines
//! must agree on every row, the Tmp Reg, the reduce sums, `ExecStats`
//! (op histogram included), the op records and the fault status.
//!
//! The generator also draws the near misses the class must refuse (an
//! unsigned product, a product of the Tmp Reg), with operands at the
//! `i16` extremes, so admitting either into `i32` lanes fails the
//! comparison.

mod common;

use common::{compare, Rng};
use pimvo_pim::{
    lower, ArrayConfig, LaneClass, LaneWidth, LowerLevel, MachineInstr, Operand, PimMachine,
    PimMachineBuilder, PimProgram, ScratchRows, Signedness, Val,
};
use proptest::prelude::*;

/// Rows the random programs read.
const INPUTS: usize = 6;
/// Rows of the test array; the lowering's scratch rows sit past the
/// inputs.
const ROWS: usize = 16;

/// A random signed 16-bit program over rows `0..INPUTS`: one to six
/// products, each shifted right up to twice by `k` in `0..=63` and
/// reduced. With `near_misses` a product may be unsigned or take the
/// previous product (the Tmp Reg) as an operand. Returns the program
/// and whether it lowers to [`LaneClass::I32`] past Naive.
fn random_program(rng: &mut Rng, near_misses: bool) -> (PimProgram, bool) {
    let mut p = PimProgram::new("mid");
    p.set_lanes(LaneWidth::W16, Signedness::Signed);
    let mut admitted = true;
    let row = |rng: &mut Rng| Val::Row(rng.below(INPUTS as u64) as usize);
    for _ in 0..1 + rng.below(6) {
        let (a, b) = (row(rng), row(rng));
        let mut v = if near_misses && rng.below(4) == 0 {
            admitted = false;
            p.mul(a, b)
        } else {
            p.mul_signed(a, b)
        };
        if near_misses && rng.below(4) == 0 {
            admitted = false;
            let c = row(rng);
            v = if rng.below(2) == 0 {
                p.mul_signed(v.into(), c)
            } else {
                p.mul_signed(c, v.into())
            };
        }
        for _ in 0..rng.below(3) {
            v = p.shr_bits(v.into(), rng.below(64) as u32);
        }
        p.reduce(v.into());
    }
    (p, admitted)
}

/// Two identical `lanes`-wide machines (W16 lanes), their recorders
/// armed, the input rows filled with values drawn mostly from the
/// `i16` extremes, and a 64-bit product left in the Tmp Reg.
fn twin_machines(builder: &PimMachineBuilder, rng: &mut Rng) -> [PimMachine; 2] {
    let extremes = [i64::from(i16::MIN), i64::from(i16::MAX), -1, 0, 1];
    let machines = [builder.build(), builder.build()];
    let lanes = machines[0].config().lanes(LaneWidth::W16);
    let contents: Vec<Vec<i64>> = (0..INPUTS)
        .map(|_| {
            (0..lanes)
                .map(|_| match rng.below(8) {
                    n @ 0..=4 => extremes[n as usize],
                    _ => i64::from(rng.next() as i16),
                })
                .collect()
        })
        .collect();
    machines.map(|mut m| {
        m.arm_op_recorder(0, 1 << 16);
        m.set_lanes(LaneWidth::W16, Signedness::Signed);
        for (r, vals) in contents.iter().enumerate() {
            m.host_write_lanes(r, vals).expect("row in range");
        }
        m.set_lanes(LaneWidth::W32, Signedness::Signed);
        m.execute(&MachineInstr::Mul {
            a: Operand::Row(0),
            b: Operand::Row(1),
            signed: true,
        })
        .expect("prelude");
        m
    })
}

/// Lowers a random program at Naive, Opt and MultiReg(2), checks that
/// an admitted one is `i32` past Naive, and compares each lowered
/// program (run twice, so the second run finds its buffers warm)
/// against its replay on fresh twin machines.
fn check(builder: &PimMachineBuilder, seed: u64, near_misses: bool) -> Result<(), String> {
    let mut rng = Rng(seed);
    let (p, admitted) = random_program(&mut rng, near_misses);
    let scratch = ScratchRows::contiguous(INPUTS, ROWS - INPUTS);
    for level in [LowerLevel::Naive, LowerLevel::Opt, LowerLevel::MultiReg(2)] {
        let prog = lower(&p, level, &scratch).map_err(|e| format!("{level}: {e}"))?;
        if admitted && level != LowerLevel::Naive && prog.lane_class() != LaneClass::I32 {
            return Err(format!("{level}: not i32:\n{prog}"));
        }
        let [mut fast, mut reference] = twin_machines(builder, &mut rng);
        if let LowerLevel::MultiReg(n) = level {
            fast.set_tmp_regs(n);
            reference.set_tmp_regs(n);
        }
        for _ in 0..2 {
            compare(&mut fast, &mut reference, &prog, ROWS)
                .map_err(|e| format!("{level}: {e}:\n{prog}"))?;
        }
    }
    Ok(())
}

/// A builder for `lanes` W16 lanes.
fn builder(lanes: usize) -> PimMachineBuilder {
    PimMachine::builder(ArrayConfig {
        rows: ROWS,
        row_bits: lanes * 16,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Admitted programs run on `i32` lanes and match the `i64` replay
    /// exactly, from one lane (a reduce with no step) to 160.
    #[test]
    fn i32_programs_match_i64_replay(seed in any::<u64>(), lanes in 1..=160usize) {
        let r = check(&builder(lanes), seed, false);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Programs with unsigned or Tmp-operand products match too, in
    /// whatever class they fall into.
    #[test]
    fn near_miss_programs_match_i64_replay(seed in any::<u64>(), lanes in 1..=160usize) {
        let r = check(&builder(lanes), seed, true);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With transient faults armed and ECC on, every operand read draws
    /// the same faults on `i32` lanes as on `i64` lanes.
    #[test]
    fn i32_programs_match_i64_replay_under_faults(
        seed in any::<u64>(),
        lanes in 1..=160usize,
        near_misses in any::<bool>(),
    ) {
        use pimvo_pim::{FaultModel, Protection};
        let builder = builder(lanes)
            .fault(FaultModel::transient(seed, 2e-3))
            .protection(Protection::Ecc);
        let r = check(&builder, seed, near_misses);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

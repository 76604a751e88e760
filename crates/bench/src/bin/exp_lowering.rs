//! Extension experiment: lowering-pipeline stage sweep — per-kernel
//! cycles at `Opt` with shift fusion alone (greedy) and with the list
//! scheduler added. Outputs are asserted bit-identical across stages.

fn main() {
    let (_, report) = pimvo_bench::reports::lowering();
    print!("{report}");
}

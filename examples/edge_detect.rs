//! Edge detection on the PIM, end to end: renders a frame, runs the
//! optimized LPF → HPF → NMS mappings on the simulated array, prints an
//! ASCII rendering of the edge mask, and compares the cycle bill
//! against the naive mapping and the MCU baseline.
//!
//! ```sh
//! cargo run --release --example edge_detect
//! ```

use pimvo::kernels::pim_pool::EdgeKernels;
use pimvo::kernels::{EdgeConfig, EdgeMaps, GrayImage};
use pimvo::mcu::CostCounter;
use pimvo::pim::{ArrayConfig, LowerLevel, PimMachine};
use pimvo::scene::{Sequence, SequenceKind};

fn ascii_render(mask: &GrayImage, cols: u32, rows: u32) {
    let sx = mask.width() / cols;
    let sy = mask.height() / rows;
    for by in 0..rows {
        let mut line = String::new();
        for bx in 0..cols {
            let mut n = 0;
            for y in by * sy..(by + 1) * sy {
                for x in bx * sx..(bx + 1) * sx {
                    n += (mask.get(x, y) != 0) as u32;
                }
            }
            line.push(match n {
                0 => ' ',
                1..=2 => '.',
                3..=6 => '+',
                _ => '#',
            });
        }
        println!("{line}");
    }
}

/// Runs the full pipeline at `level` on one fresh QVGA array; returns
/// the maps and the compute cycles.
fn run(level: LowerLevel, gray: &GrayImage, cfg: &EdgeConfig) -> (EdgeMaps, u64) {
    let mut array = PimMachine::builder(ArrayConfig::qvga_banks(6)).build_pool(1);
    let maps = EdgeKernels::at(level).edge_detect(&mut array, gray, cfg);
    (maps, array.merged_stats().cycles)
}

fn main() {
    let seq = Sequence::generate(SequenceKind::Desk, 1);
    let gray = &seq.frames[0].gray;
    let cfg = EdgeConfig::default();

    // optimized PIM mapping
    let (maps, opt_cycles) = run(LowerLevel::Opt, gray, &cfg);

    println!("edge mask ({} edge pixels):", maps.edge_count());
    ascii_render(&maps.mask, 80, 30);

    // naive PIM mapping (identical output, more cycles)
    let (naive, naive_cycles) = run(LowerLevel::Naive, gray, &cfg);
    assert_eq!(naive.mask, maps.mask, "mappings must agree bit-for-bit");

    // MCU baseline
    let mut counter = CostCounter::new();
    let mcu = pimvo::mcu::edge_detect_counted(gray, &cfg, &mut counter);
    assert_eq!(mcu.mask, maps.mask);

    println!();
    println!("cycles: PIM optimized {:>10}", opt_cycles);
    println!(
        "        PIM naive     {:>10}  ({:.2}x)",
        naive_cycles,
        naive_cycles as f64 / opt_cycles as f64
    );
    println!(
        "        MCU baseline  {:>10}  ({:.0}x slower than PIM)",
        counter.cycles(),
        counter.cycles() as f64 / opt_cycles as f64
    );
}

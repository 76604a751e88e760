//! Level × pool-size property tests of the one edge-kernel front end.
//!
//! Every kernel is defined exactly once as a macro-op program in
//! `pimvo_kernels::ir` and runs only through
//! [`pimvo_kernels::pim_pool::EdgeKernels`]; one machine is a pool of
//! one. This suite pins the whole matrix on random images:
//!
//! * levels: `Naive`, `Opt`, `MultiReg(4)`;
//! * pools of 1 to 6 arrays;
//! * kernels: LPF, HPF, NMS, downsample and the full pipeline.
//!
//! Every run is **bit-identical** to the scalar reference — lowering
//! and sharding may only change cost, never values — and sharding
//! conserves the compute work: the merged statistics of any pool equal
//! the pool of one at the same level (only host I/O may differ), and
//! its wall clock never exceeds that work plus what the pool charged
//! for transfers and barriers.

use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::{ir, scalar, EdgeConfig, GrayImage};
use pimvo_pim::{ArrayConfig, LowerLevel, PimArrayPool, PimMachineBuilder};
use proptest::prelude::*;

fn random_image(seed: u64, w: u32, h: u32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let v = (x as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
            .wrapping_add(seed)
            .wrapping_mul(0xD6E8FEB86659FD93);
        (v >> 56) as u8
    })
}

const LEVELS: [LowerLevel; 3] = [
    LowerLevel::Naive,
    LowerLevel::Opt,
    LowerLevel::MultiReg(ir::REGS_REQUIRED),
];

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Lpf,
    Hpf,
    Nms,
    Downsample,
    EdgeDetect,
}

const KERNELS: [Kernel; 5] = [
    Kernel::Lpf,
    Kernel::Hpf,
    Kernel::Nms,
    Kernel::Downsample,
    Kernel::EdgeDetect,
];

/// The input `kernel` reads for camera image `img`: the camera image
/// itself, or the upstream kernel's map.
fn input(kernel: Kernel, img: &GrayImage) -> GrayImage {
    match kernel {
        Kernel::Hpf => scalar::lpf(img),
        Kernel::Nms => scalar::hpf(&scalar::lpf(img)),
        Kernel::Downsample => {
            GrayImage::from_fn(img.width() & !1, img.height() & !1, |x, y| img.get(x, y))
        }
        Kernel::Lpf | Kernel::EdgeDetect => img.clone(),
    }
}

/// The scalar reference output maps of `kernel` on `src`.
fn reference(kernel: Kernel, src: &GrayImage, cfg: &EdgeConfig) -> Vec<GrayImage> {
    match kernel {
        Kernel::Lpf => vec![scalar::lpf(src)],
        Kernel::Hpf => vec![scalar::hpf(src)],
        Kernel::Nms => {
            let mut mask = scalar::nms(src, cfg);
            mask.clear_border(cfg.border);
            vec![mask]
        }
        Kernel::Downsample => vec![scalar::downsample2x(src)],
        Kernel::EdgeDetect => {
            let maps = scalar::edge_detect(src, cfg);
            vec![maps.lpf, maps.hpf, maps.mask]
        }
    }
}

/// Runs `kernel` at `level` on a fresh pool of `arrays`; returns its
/// output maps and the pool.
fn run(
    kernel: Kernel,
    level: LowerLevel,
    arrays: usize,
    src: &GrayImage,
    cfg: &EdgeConfig,
) -> (Vec<GrayImage>, PimArrayPool) {
    // exactly the Tmp registers `level` may use, so a lowering that
    // exceeds its register budget fails loudly
    let mut b = PimMachineBuilder::new(ArrayConfig::qvga_banks(6));
    if let LowerLevel::MultiReg(n) = level {
        b = b.tmp_regs(n);
    }
    let mut pool = b.build_pool(arrays);
    let mut k = EdgeKernels::at(level);
    let maps = match kernel {
        Kernel::Lpf => vec![k.lpf(&mut pool, src)],
        Kernel::Hpf => vec![k.hpf(&mut pool, src)],
        Kernel::Nms => vec![k.nms(&mut pool, src, cfg)],
        Kernel::Downsample => vec![k.downsample2x(&mut pool, src)],
        Kernel::EdgeDetect => {
            let maps = k.edge_detect(&mut pool, src, cfg);
            vec![maps.lpf, maps.hpf, maps.mask]
        }
    };
    (maps, pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every kernel at every level on every pool size reproduces the
    /// scalar reference, and its merged compute statistics equal the
    /// pool of one at that level.
    #[test]
    fn every_kernel_level_and_pool_size_matches_scalar(
        seed in any::<u64>(),
        w in 12u32..72,
        h in 8u32..56,
        th1 in 0u8..40,
        th2 in 0u8..80,
    ) {
        let img = random_image(seed, w, h);
        let cfg = EdgeConfig::new(th1, th2);
        for kernel in KERNELS {
            let src = input(kernel, &img);
            let want = reference(kernel, &src, &cfg);
            for level in LEVELS {
                let (one, base) = run(kernel, level, 1, &src, &cfg);
                prop_assert_eq!(&one, &want, "{:?} at {} on 1 array", kernel, level);
                let base = base.merged_stats();
                for arrays in 2..=6 {
                    let (got, pool) = run(kernel, level, arrays, &src, &cfg);
                    let st = pool.merged_stats();
                    let at = format!("{kernel:?} at {level} on {arrays} arrays");
                    prop_assert_eq!(&got, &want, "{}", at);
                    prop_assert_eq!(st.cycles, base.cycles, "cycles, {}", at);
                    prop_assert_eq!(st.acc_ops, base.acc_ops, "acc_ops, {}", at);
                    prop_assert_eq!(st.sram_reads, base.sram_reads, "sram_reads, {}", at);
                    prop_assert_eq!(st.sram_writes, base.sram_writes, "sram_writes, {}", at);
                    prop_assert_eq!(st.tmp_accesses, base.tmp_accesses, "tmp_accesses, {}", at);
                    prop_assert_eq!(&st.op_histogram, &base.op_histogram, "histogram, {}", at);
                    // each barrier advances by the slowest member's compute
                    // + transfer delta, never by more than all of them
                    let budget = base.cycles
                        + st.host_io_cycles
                        + st.dma_stall_cycles
                        + pool.barriers() * pool.sync_cycles();
                    prop_assert!(pool.wall_cycles() <= budget, "wall over budget, {}", at);
                }
            }
        }
    }

    /// The full pipeline matches the scalar reference at every level,
    /// `MultiReg(2)` included, and the level cost ordering holds: naive
    /// is strictly the most expensive, and more Tmp registers never
    /// cost more cycles.
    #[test]
    fn level_cost_ordering_holds(seed in any::<u64>(), w in 12u32..64, h in 10u32..48) {
        let img = random_image(seed, w, h);
        let cfg = EdgeConfig::default();
        let levels = [
            LowerLevel::Naive,
            LowerLevel::Opt,
            LowerLevel::MultiReg(2),
            LowerLevel::MultiReg(4),
        ];
        let want = reference(Kernel::EdgeDetect, &img, &cfg);
        let mut cycles = Vec::new();
        for level in levels {
            let (got, pool) = run(Kernel::EdgeDetect, level, 1, &img, &cfg);
            prop_assert_eq!(&got, &want, "level {}", level);
            cycles.push(pool.merged_stats().cycles);
        }
        prop_assert!(cycles[0] > cycles[1], "naive {} vs opt {}", cycles[0], cycles[1]);
        prop_assert!(cycles[2] <= cycles[1], "multireg(2) {} vs opt {}", cycles[2], cycles[1]);
        prop_assert!(cycles[3] <= cycles[2], "multireg(4) {} vs multireg(2) {}", cycles[3], cycles[2]);
    }
}

//! Pass-pipeline prefix identity (satellite of the search-based
//! lowering refactor).
//!
//! The staged lowering pipeline ([`pimvo_pim::pass_pipeline`]) is only
//! allowed to change *cost*: every pass — and therefore every prefix
//! of the pass list, including the empty one — must produce machine
//! programs whose outputs are bit-identical to the scalar reference.
//! This suite pins that on random images across:
//!
//! * levels: `Naive`, `Opt`, `MultiReg(2)`, `MultiReg(4)`;
//! * kernels: LPF pass 1 + pass 2, HPF and NMS (through the full
//!   `edge_detect` which runs all four strip programs) and downsample;
//! * pools of 1 to 4 arrays, through the pass-list `EdgeKernels`.

use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::{scalar, EdgeConfig, GrayImage};
use pimvo_pim::{pass_pipeline, ArrayConfig, LowerLevel, PimArrayPool, PimMachineBuilder};
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

const LEVELS: [LowerLevel; 4] = [
    LowerLevel::Naive,
    LowerLevel::Opt,
    LowerLevel::MultiReg(2),
    LowerLevel::MultiReg(4),
];

/// A pool of `arrays` with exactly the Tmp registers `level` may use:
/// `n` for `MultiReg(n)`, the default single register otherwise, so a
/// lowering that exceeds its register budget fails loudly.
fn pool(arrays: usize, level: LowerLevel) -> PimArrayPool {
    let mut b = PimMachineBuilder::new(ArrayConfig::qvga_banks(6));
    if let LowerLevel::MultiReg(n) = level {
        b = b.tmp_regs(n);
    }
    b.build_pool(arrays)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// LPF, HPF and NMS (all four strip programs through
    /// `edge_detect`) match the scalar reference at every prefix of
    /// every level's pass pipeline.
    #[test]
    fn every_pass_prefix_matches_scalar(
        seed in any::<u64>(),
        w in 12u32..48,
        h in 10u32..32,
        arrays in 1usize..5,
    ) {
        let img = random_image(seed, w, h);
        let cfg = EdgeConfig::default();
        let want = scalar::edge_detect(&img, &cfg);
        for level in LEVELS {
            let pipeline = pass_pipeline(level);
            for cut in 0..=pipeline.len() {
                let mut kernels = EdgeKernels::with_passes(level, &pipeline[..cut]);
                let got = kernels.edge_detect(&mut pool(arrays, level), &img, &cfg);
                prop_assert_eq!(&got.lpf, &want.lpf, "lpf, level {} prefix {}", level, cut);
                prop_assert_eq!(&got.hpf, &want.hpf, "hpf, level {} prefix {}", level, cut);
                prop_assert_eq!(&got.mask, &want.mask, "nms, level {} prefix {}", level, cut);
            }
        }
    }

    /// Downsample matches the scalar reference at every prefix of
    /// every level's pass pipeline.
    #[test]
    fn downsample_matches_scalar_at_every_prefix(
        seed in any::<u64>(),
        w in 12u32..48,
        h in 10u32..32,
        arrays in 1usize..5,
    ) {
        let img = random_image(seed, w & !1, h & !1);
        let want = scalar::downsample2x(&img);
        for level in LEVELS {
            let pipeline = pass_pipeline(level);
            for cut in 0..=pipeline.len() {
                let mut kernels = EdgeKernels::with_passes(level, &pipeline[..cut]);
                let got = kernels.downsample2x(&mut pool(arrays, level), &img);
                prop_assert_eq!(&got, &want, "level {} prefix {}", level, cut);
            }
        }
    }
}

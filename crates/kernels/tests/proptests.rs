//! Property tests of the scalar reference: the NMS simplification is
//! exact and the LPF is shift-equivariant. The PIM mappings are pinned
//! against this reference in `ir_roundtrip.rs`.

use pimvo_kernels::{scalar, EdgeConfig, GrayImage};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The branch-free NMS is algebraically identical to the original
    /// compound-branch form for every threshold pair.
    #[test]
    fn nms_simplification_exact(
        seed in any::<u64>(),
        th1 in 0u8..40,
        th2 in 0u8..80,
    ) {
        let hmap = random_image(seed, 40, 32);
        let cfg = EdgeConfig::new(th1, th2);
        prop_assert_eq!(
            scalar::nms(&hmap, &cfg),
            scalar::nms_branchy(&hmap, &cfg)
        );
    }

    /// Kernel outputs are translation-consistent: shifting the input
    /// by whole pixels shifts the LPF output identically (away from
    /// borders).
    #[test]
    fn lpf_is_shift_equivariant(seed in any::<u64>(), dx in 1u32..4) {
        let base = random_image(seed, 48, 36);
        let shifted = GrayImage::from_fn(48, 36, |x, y| {
            if x >= dx { base.get(x - dx, y) } else { 0 }
        });
        let a = scalar::lpf(&base);
        let b = scalar::lpf(&shifted);
        for y in 2..34 {
            for x in (dx + 2)..46 {
                prop_assert_eq!(a.get(x - dx, y), b.get(x, y), "({}, {})", x, y);
            }
        }
    }
}

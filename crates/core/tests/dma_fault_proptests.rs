//! Transfer-fault transparency: seeded DMA faults
//! with retries enabled never reach the value domain. Kernel outputs
//! stay bit-identical across all four lowering levels, and tracker
//! pose trajectories stay bit-identical on both backends — the fault
//! ladder (CRC retry → backoff → quarantine → synchronous port) only
//! moves cycles, never bits.

use pimvo_core::{BackendKind, Tracker, TrackerConfig};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::{ir, DepthImage, EdgeConfig, GrayImage};
use pimvo_pim::{ArrayConfig, DmaConfig, DmaFaultModel, LowerLevel, PimArrayPool, PimMachine};
use proptest::prelude::*;

fn test_image(phase: u32) -> GrayImage {
    GrayImage::from_fn(64, 48, |x, y| {
        ((x * 31 + y * 17 + phase * 101).wrapping_mul(2654435761) >> 11) as u8
    })
}

/// One array with a DMA channel and enough Tmp registers for the
/// multi-register lowerings.
fn dma_machine() -> PimArrayPool {
    PimMachine::builder(ArrayConfig::qvga_banks(6))
        .dma(DmaConfig::default())
        .tmp_regs(ir::REGS_REQUIRED)
        .build_pool(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Edge detection under a seeded transfer-fault model matches the
    /// fault-free run bit for bit at every lowering level, and the
    /// channel health ledger confirms faults were actually injected
    /// and handled (not silently absent).
    #[test]
    fn dma_faults_invisible_across_lowering_levels(
        seed in any::<u64>(),
        phase in 0u32..1000,
        flip in 0.05f64..0.30,
        stall in 0.02f64..0.15,
    ) {
        let img = test_image(phase);
        let cfg = EdgeConfig::default();
        let levels = [
            LowerLevel::Naive,
            LowerLevel::Opt,
            LowerLevel::MultiReg(2),
            LowerLevel::MultiReg(ir::REGS_REQUIRED),
        ];
        for level in levels {
            let mut clean = dma_machine();
            let want = EdgeKernels::at(level).edge_detect(&mut clean, &img, &cfg);

            let mut faulted = dma_machine();
            faulted.set_dma_fault(DmaFaultModel::new(seed, flip, stall, 0.02));
            let got = EdgeKernels::at(level).edge_detect(&mut faulted, &img, &cfg);
            prop_assert_eq!(&got, &want, "level {} diverged under faults", level);

            let h = faulted.dma_health();
            prop_assert!(h.faults() > 0, "level {}: no fault was injected", level);
            prop_assert!(
                h.retries > 0 || h.sync_fallbacks > 0,
                "level {}: faults neither retried nor degraded", level
            );
        }
    }
}

/// A deterministic synthetic stream (sinusoid texture translating at
/// `speed` px/frame), same family as the serve fault tests.
fn frame(k: usize, speed: f64) -> (GrayImage, DepthImage) {
    let shift = k as f64 * speed;
    let gray = GrayImage::from_fn(320, 240, |x, y| {
        let xs = x as f64 + shift;
        let y = y as f64;
        (((xs * 0.55).sin() + (y * 0.41).sin() + (xs * 0.13).sin() * (y * 0.09).cos()) * 50.0
            + 120.0) as u8
    });
    let depth = DepthImage::from_fn(320, 240, |_, _| 2.0);
    (gray, depth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Tracker pose trajectories are bit-identical between a fault-free
    /// and a transfer-faulted run on both backends. (The float backend
    /// has no array pool, so no DMA channel to fault — it doubles as
    /// the control arm.)
    #[test]
    fn dma_faults_leave_poses_bit_identical_on_both_backends(
        seed in any::<u64>(),
        speed_sel in 0usize..10,
    ) {
        const FRAMES: usize = 3;
        let speed = 0.4 + speed_sel as f64 * 0.08;
        for kind in [BackendKind::Pim, BackendKind::Float] {
            let run = |fault: Option<DmaFaultModel>| {
                let mut t = Tracker::new(TrackerConfig::default(), kind);
                if let Some(pool) = t.pool_mut() {
                    pool.set_dma(Some(DmaConfig::default()));
                    if let Some(model) = fault {
                        pool.set_dma_fault(model);
                    }
                }
                (0..FRAMES)
                    .map(|k| {
                        let (g, d) = frame(k, speed);
                        t.process_frame(&g, &d).pose_wc
                    })
                    .collect::<Vec<_>>()
            };
            let want = run(None);
            let got = run(Some(DmaFaultModel::new(seed, 0.15, 0.08, 0.02)));
            prop_assert_eq!(&got, &want, "{:?} poses diverged under faults", kind);
        }
    }
}

//! The interpreter's allocation contract: once its lane buffers are
//! sized, an inert `PimMachine` runs a lowered program without touching
//! the heap. Edge programs allocate nothing; a pose program allocates
//! only the `sums` vector `run_program` returns. That holds across
//! lane-class transitions too: edge programs run on `i16` lanes, the
//! pose Hessian on `i32` lanes, the other pose programs on `i64` lanes,
//! and handing the Tmp Reg between them does not allocate.
//!
//! Host row I/O keeps the same contract: a host read into a sized
//! buffer and a host write from a slice or an iterator allocate
//! nothing, so a warm `EdgeKernels::edge_detect` on a pool of one or
//! two arrays allocates only the three maps it returns (a pool runs a
//! wave's shards inline, spawning no thread).
//!
//! A counting global allocator sees every allocation of this test
//! binary. Counting is per thread, so neither the other test of this
//! file nor the test harness's own threads show up in a test's counts.

use pimvo_core::pim_exec::{pose_programs, pose_scratch, POSE_BASE};
use pimvo_core::Interp;
use pimvo_kernels::ir::{
    hpf_program, lpf_pass1_program, lpf_pass2_program, nms_program, scratch_pool,
};
use pimvo_kernels::pim_pool::EdgeKernels;
use pimvo_kernels::pim_util::Regions;
use pimvo_kernels::{scalar, EdgeConfig, GrayImage};
use pimvo_pim::{
    lower, ArrayConfig, LaneClass, LaneWidth, LowerLevel, LoweredProgram, PimMachine,
    PimMachineBuilder, Signedness,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting this thread's
/// allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments; the counter is a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by this thread while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Frame height the edge programs are built for (QVGA).
const HEIGHT: u32 = 240;
/// Fraction bits of the quantized feature format.
const FEATURE_FRAC: u32 = 12;

/// The four edge-detection programs over a whole frame and the five
/// pose-estimation programs, lowered at `Opt` for `m`'s geometry.
fn programs(m: &PimMachine) -> (Vec<LoweredProgram>, Vec<LoweredProgram>) {
    let r = Regions::for_machine(m, HEIGHT);
    let (h, y1) = (HEIGHT, i64::from(HEIGHT));
    let scratch = scratch_pool(&r);
    let edge = [
        lpf_pass1_program(&r, r.input, h, 0, y1),
        lpf_pass2_program(&r, r.aux2, h, None, 0, y1),
        hpf_program(&r, r.aux2, r.aux3, h, None, 0, y1),
        nms_program(&r, r.aux3, r.out, h, None, 0, y1),
    ]
    .iter()
    .map(|p| lower(p, LowerLevel::Opt, &scratch).expect("edge program lowers"))
    .collect();
    let scratch = pose_scratch(POSE_BASE);
    let pose = pose_programs(POSE_BASE, FEATURE_FRAC, Interp::Bilinear)
        .iter()
        .map(|p| lower(p, LowerLevel::Opt, &scratch).expect("pose program lowers"))
        .collect();
    (edge, pose)
}

#[test]
fn warm_run_program_does_not_allocate() {
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let (edge, pose) = programs(&m);
    // warm-up: one run of each sizes the lane buffers and the op
    // histogram
    for prog in edge.iter().chain(&pose) {
        m.run_program(prog).expect("warm-up run");
    }
    for prog in &edge {
        let (n, sums) = allocations(|| m.run_program(prog).expect("edge run"));
        assert!(sums.is_empty());
        assert_eq!(n, 0, "{}: {n} heap allocations in a warm run", prog.name());
    }
    for prog in &pose {
        check_pose_run(&mut m, prog);
    }
    // narrow -> wide -> narrow: each edge program after each pose
    // program, so every i16 run starts from an i64 Tmp and hands its
    // own back
    for _ in 0..2 {
        for (i, prog) in pose.iter().enumerate() {
            check_pose_run(&mut m, prog);
            let edge_prog = &edge[i % edge.len()];
            let (n, _) = allocations(|| m.run_program(edge_prog).expect("edge run"));
            assert_eq!(
                n,
                0,
                "{} after {}: {n} heap allocations in a warm run",
                edge_prog.name(),
                prog.name()
            );
        }
    }
}

/// The Hessian runs on the `i32` bank, which a machine sizes when it is
/// built: on a pool of one, its first run and a warm run each allocate
/// exactly one block, the `sums` vector.
#[test]
fn warm_hessian_allocates_only_its_sums() {
    let mut pool = PimMachineBuilder::new(ArrayConfig::qvga_banks(6)).build_pool(1);
    let counts = pool
        .run_phase("hessian", |_, m| {
            let (_, pose) = programs(m);
            let hessian = pose
                .iter()
                .find(|p| p.name() == "pose_hessian")
                .expect("pose_hessian");
            assert_eq!(hessian.lane_class(), LaneClass::I32);
            [(); 2].map(|()| {
                let (n, sums) = allocations(|| m.run_program(hessian).expect("hessian run"));
                assert_eq!(sums.len(), hessian.reduce_count());
                n
            })
        })
        .expect("healthy pool");
    assert_eq!(counts, vec![[1, 1]], "first and warm Hessian runs");
}

/// Runs a pose program, which may allocate only its `sums` vector.
fn check_pose_run(m: &mut PimMachine, prog: &LoweredProgram) {
    let (n, sums) = allocations(|| m.run_program(prog).expect("pose run"));
    assert_eq!(sums.len(), prog.reduce_count());
    assert!(
        n <= 1,
        "{}: {n} heap allocations in a warm run (only `sums` may allocate)",
        prog.name()
    );
}

#[test]
fn warm_host_io_and_edge_detect_allocate_only_their_outputs() {
    let mut m = PimMachine::new(ArrayConfig::qvga_banks(6));
    let mut lanes = Vec::new();
    for width in [LaneWidth::W8, LaneWidth::W16, LaneWidth::W32] {
        m.set_lanes(width, Signedness::Signed);
        let row: Vec<i64> = (0..m.lanes() as i64).map(|v| v * 37 - 900).collect();
        // the first read sizes the buffer (the W8 row is the widest)
        m.host_read_lanes_into(0, &mut lanes).expect("row in range");
        let (n, ()) = allocations(|| {
            for r in 0..8 {
                m.host_write_lanes(r, &row).expect("row in range");
                m.host_read_lanes_into(r, &mut lanes).expect("row in range");
                m.host_write_lanes_iter(r + 8, lanes.iter().map(|v| v + 1))
                    .expect("row in range");
            }
        });
        assert_eq!(n, 0, "{width:?}: {n} heap allocations in warm host row I/O");
        assert_eq!(lanes.len(), m.lanes());
    }

    // a QVGA frame with texture at every scale, so every phase has
    // edges to keep and to suppress
    let img = GrayImage::from_fn(320, 240, |x, y| (((x * 7) ^ (y * 13)) + (x * y) / 40) as u8);
    let cfg = EdgeConfig::default();
    // a pool of two runs each wave's shards inline too: no wave spawns
    // a thread or allocates on its own
    for arrays in [1, 2] {
        let mut pool = PimMachineBuilder::new(ArrayConfig::qvga_banks(6)).build_pool(arrays);
        let mut kernels = EdgeKernels::new();
        // warm-up: resolves the strip programs and sizes the lane buffers
        kernels.edge_detect(&mut pool, &img, &cfg);
        let (n, maps) = allocations(|| kernels.edge_detect(&mut pool, &img, &cfg));
        assert_eq!(maps, scalar::edge_detect(&img, &cfg));
        assert_eq!(
            n, 3,
            "{arrays} arrays: a warm edge_detect made {n} heap allocations; \
             only its three maps may allocate"
        );
    }
}

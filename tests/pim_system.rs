//! System-level integration of the PIM array as a *general-purpose*
//! accelerator (the paper's §6 framing): visual odometry, CNN inference
//! and raw kernel work time-sharing one simulated array (a pool of
//! one), with one coherent cycle/energy ledger.

use pimvo::cnn::{render_shape, Shape, SmallNet};
use pimvo::core::pim_exec::{BatchOptions, BatchRunner, BATCH};
use pimvo::core::{extract_features, Keyframe, QFeature, QPose};
use pimvo::kernels::pim_pool::EdgeKernels;
use pimvo::kernels::{ir, EdgeConfig};
use pimvo::pim::{
    ArrayConfig, CostModel, LowerLevel, PimArrayPool, PimMachine, DEFAULT_OP_RING_CAPACITY,
};
use pimvo::scene::{Sequence, SequenceKind};
use pimvo::telemetry::optrace::OpKind;
use pimvo::vomath::{Pinhole, SE3};

#[test]
fn one_machine_runs_vo_and_cnn_workloads() {
    let mut runner = BatchRunner::new(BatchOptions::default());
    let cam = Pinhole::qvga();
    let cfg = EdgeConfig::default();
    let seq = Sequence::generate(SequenceKind::Desk, 1);
    let frame = &seq.frames[0];

    // 1. edge detection on the array
    let maps = EdgeKernels::new().edge_detect(runner.pool_mut(), &frame.gray, &cfg);
    assert!(maps.edge_count() > 1000);

    // 2. one pose-estimation batch on the same array (pose staging rows
    //    live above the edge regions)
    let features = extract_features(&maps.mask, &frame.depth, &cam, 2000, 0.3, 8.0);
    let kf = Keyframe::build(0, SE3::IDENTITY, maps.mask.clone(), &cam);
    let qpose = QPose::quantize(&SE3::IDENTITY);
    let qfeats: Vec<QFeature> = features.iter().map(QFeature::quantize).collect();
    let out = runner
        .submit(
            &qfeats[..BATCH.min(qfeats.len())],
            &qpose,
            &kf.q_tables,
            &cam,
        )
        .unwrap()
        .remove(0);
    assert!(out.valid.iter().filter(|&&v| v).count() > 40);

    // 3. CNN inference in a spare bank of the same array
    let mut net = SmallNet::untrained();
    let _ = net.train_head(15, 5, 8);
    let img = render_shape(Shape::Triangle, 7);
    let m = runner.pool_mut().array_mut(0);
    let pim_logits = net.forward_pim(m, 4 * 256, &img);
    assert_eq!(pim_logits, net.forward_scalar(&img), "CNN must stay exact");

    // 4. one coherent ledger over all three workloads
    let stats = m.stats();
    assert!(stats.cycles > 20_000);
    let energy = stats.energy(&CostModel::default());
    assert!(energy.sram_share() > 0.7);
    // the op mix spans image kernels, pose math and CNN layers
    for kind in [OpKind::Avg, OpKind::Mul, OpKind::Div, OpKind::Gather] {
        assert!(
            stats.op_histogram.get(kind) > 0,
            "missing {kind:?} in the combined workload"
        );
    }
}

/// One QVGA array with `regs` Tmp registers.
fn array(regs: u8) -> PimArrayPool {
    PimMachine::builder(ArrayConfig::qvga_banks(6))
        .tmp_regs(regs)
        .build_pool(1)
}

#[test]
fn multireg_and_single_reg_machines_agree_end_to_end() {
    let seq = Sequence::generate(SequenceKind::Xyz, 1);
    let cfg = EdgeConfig::default();

    let mut m1 = array(1);
    let single = EdgeKernels::new().edge_detect(&mut m1, &seq.frames[0].gray, &cfg);

    let mut m4 = array(ir::REGS_REQUIRED);
    let multi = EdgeKernels::at(LowerLevel::MultiReg(ir::REGS_REQUIRED)).edge_detect(
        &mut m4,
        &seq.frames[0].gray,
        &cfg,
    );

    assert_eq!(single.mask, multi.mask);
    let e1 = m1.merged_stats().energy(&CostModel::default());
    let e4 = m4.merged_stats().energy(&CostModel::default());
    assert!(
        e4.total_pj() < 0.7 * e1.total_pj(),
        "multireg energy {} vs {}",
        e4.total_pj(),
        e1.total_pj()
    );
}

/// Runs a full edge detection at `level` with the op recorder armed
/// and checks the recorded ledger against the machine's statistics:
/// the compute records (host transfers and DMA run on the I/O
/// timeline, not the compute ledger) sum to `ExecStats::cycles`, and
/// there is one write-back record per SRAM write. Returns the number
/// of compute records.
fn check_op_ledger(regs: u8, level: LowerLevel) -> usize {
    let seq = Sequence::generate(SequenceKind::Desk, 1);
    let mut pool = array(regs);
    pool.array_mut(0)
        .arm_op_recorder(0, DEFAULT_OP_RING_CAPACITY);
    let _ =
        EdgeKernels::at(level).edge_detect(&mut pool, &seq.frames[0].gray, &EdgeConfig::default());
    let m = pool.array_mut(0);
    let trace = m.drain_op_trace().expect("recorder armed");
    assert_eq!(trace.dropped, 0, "ring sized for a full frame");
    let io = [
        OpKind::HostWrite,
        OpKind::HostRead,
        OpKind::DmaIn,
        OpKind::DmaOut,
        OpKind::DmaStall,
    ];
    let compute: Vec<_> = trace
        .records
        .iter()
        .filter(|r| !io.contains(&r.kind))
        .collect();
    let traced_cycles: u64 = compute.iter().map(|r| r.cycles).sum();
    assert_eq!(traced_cycles, m.stats().cycles, "{level}");
    let writebacks = compute
        .iter()
        .filter(|r| r.kind == OpKind::WriteBack)
        .count() as u64;
    assert_eq!(writebacks, m.stats().sram_writes, "{level}");
    compute.len()
}

#[test]
fn trace_covers_a_full_edge_detection() {
    let ops = check_op_ledger(1, LowerLevel::Opt);
    assert!(ops > 3_000, "compute records {ops}");
}

#[test]
fn trace_ledger_agrees_on_the_multireg_pipeline_too() {
    check_op_ledger(ir::REGS_REQUIRED, LowerLevel::MultiReg(ir::REGS_REQUIRED));
}

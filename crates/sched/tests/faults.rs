//! Chaos acceptance for the fault-tolerant fabric: under every seeded
//! [`FaultPlan`] of the grid (each fault kind × device counts × both
//! pipeline modes) the construction must complete **bit-identical** to
//! the fault-free run, and its report must be its plan with the fault
//! plan's retries replayed — every transfer record, retries included, in
//! place. Plus the typed
//! timeout path, the panic-safety regression (fabric reusable after a
//! propagated job panic), deterministic replay, and exact retry
//! accounting at rate 1.0.

use h2_core::{plan_construct, SketchConfig, SketchStats};
use h2_dense::{gaussian_mat, LinOp};
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{PipelineMode, Precision, Transfer, TransferKind};
use h2_sched::{shard_construct, DeviceFabric, ExecReport, FabricError, FaultKind, FaultPlan};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xC4A0_5EED;

fn sym_problem(
    n: usize,
    leaf: usize,
    seed: u64,
) -> (
    Arc<ClusterTree>,
    Arc<Partition>,
    KernelMatrix<ExponentialKernel>,
) {
    let pts = h2_tree::uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.top_far_level(&tree).is_some(), "problem too small");
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    (tree, part, km)
}

fn cfg() -> SketchConfig {
    SketchConfig {
        initial_samples: 64,
        ..Default::default()
    }
}

/// [`cfg`] for the two-stream (unsymmetric) construction.
fn unsym_cfg() -> SketchConfig {
    SketchConfig {
        symmetric: false,
        ..cfg()
    }
}

fn fabric_for(devices: usize, mode: PipelineMode) -> Arc<DeviceFabric> {
    match mode {
        PipelineMode::Synchronous => DeviceFabric::new(devices),
        PipelineMode::Pipelined => DeviceFabric::pipelined(devices),
    }
}

/// The report is the run's `plan_construct` schedule with the fault plan's
/// retries replayed: every count, every transfer record and every charged
/// retry right after its parent.
fn assert_retries_replayed(
    report: &ExecReport,
    h2: &H2Matrix,
    cfg: &SketchConfig,
    stats: &SketchStats,
    faults: &FaultPlan,
    ctx: &str,
) {
    let plan = plan_construct(h2, cfg, stats, report.devices, report.mode, report.wire);
    if let Err(e) = report.check(&plan, Some(faults)) {
        panic!("{ctx}: {e}");
    }
}

/// The acceptance grid: every fault kind × D ∈ {1, 2, 4} × both modes, on
/// a one-pass strong partition and on a weak one whose adaptive rounds
/// issue their own fetches. One fault-free baseline per problem (results
/// are already pinned identical across device counts and modes by
/// `tests/pipeline.rs`) anchors bit-identity.
#[test]
fn chaos_grid_bit_identical_and_bytes_exact() {
    // Small, but still with an inner processed level that fetches
    // off-device `Ω_b` blocks, so every fault kind's branch below fires.
    let (tree, part, km) = sym_problem(600, 16, 107);
    let pts = h2_tree::uniform_cube(320, 88);
    let tree_w = Arc::new(ClusterTree::build(&pts, 16));
    let part_w = Arc::new(Partition::build(&tree_w, Admissibility::Weak));
    let km_w = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree_w.points.clone());
    let rounds = SketchConfig {
        initial_samples: 32,
        sample_block: 16,
        ..cfg()
    };
    for (tree, part, km, cfg) in [(tree, part, km, cfg()), (tree_w, part_w, km_w, rounds)] {
        let clean = DeviceFabric::new(1);
        let (h2_clean, stats_clean, _) =
            shard_construct(&clean, &km, &km, tree.clone(), part.clone(), &cfg);
        let adaptive = stats_clean.rounds > 0;
        assert_eq!(adaptive, cfg.sample_block == 16, "rounds drawn");
        let probe = gaussian_mat(tree.npoints(), 3, 108);
        let want = h2_clean.apply_mat(&probe);

        for kind in FaultKind::ALL {
            for devices in [1usize, 2, 4] {
                for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                    let plan = Arc::new(FaultPlan::chaos(SEED, kind));
                    let fabric = fabric_for(devices, mode);
                    fabric.set_fault_plan(Some(plan.clone()));
                    let (h2, stats, report) =
                        shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg);
                    let ctx = format!(
                        "adaptive={adaptive} kind={} D={devices} mode={mode:?}",
                        kind.name()
                    );
                    assert_eq!(
                        h2.apply_mat(&probe),
                        want,
                        "{ctx}: faulted construction must be bit-identical to fault-free"
                    );
                    assert_retries_replayed(&report, &h2, &cfg, &stats, &plan, &ctx);
                    assert_fault_branch(&fabric, &report, &stats, kind, devices, &ctx);
                }
            }
        }
    }
}

/// Each fault kind's branch fired: transfer faults charged retries, a
/// fail-stop resharded and was observed at a checkpoint, poison healed —
/// and recovery left no terminal error.
fn assert_fault_branch(
    fabric: &DeviceFabric,
    report: &ExecReport,
    stats: &SketchStats,
    kind: FaultKind,
    devices: usize,
    ctx: &str,
) {
    let counters = fabric.fault_counters();
    match kind {
        // Two devices split the weak partition's sibling pairs cleanly and
        // move nothing.
        FaultKind::TransferDrop | FaultKind::TransferCorrupt if report.total_comm_bytes() > 0 => {
            assert!(
                counters.retries > 0,
                "{ctx}: a 0.2 rate over real traffic must retry at least once"
            );
            assert!(
                report.transfers.iter().any(|&(_, _, retry)| retry),
                "{ctx}: the report must record the charged retries"
            );
        }
        FaultKind::DeviceFailStop if devices > 1 => {
            assert!(
                fabric.reshard_version() > 0,
                "{ctx}: the scheduled fail-stop must reshard"
            );
            assert!(
                stats.recoveries >= 1,
                "{ctx}: the level loop must observe the reshard at a checkpoint"
            );
            assert!(
                stats.checkpoints > 0,
                "{ctx}: sharded construction must seal per-level checkpoints"
            );
        }
        FaultKind::KernelPoison => {
            assert!(
                counters.recoveries > 0,
                "{ctx}: a 0.15 poison rate over the sample columns must heal at least once"
            );
        }
        _ => {}
    }
    assert!(
        fabric.take_fault_error().is_none(),
        "{ctx}: bounded recovery must leave no terminal error"
    );
}

/// The unsymmetric two-stream engine through the harshest transfer kind.
#[test]
fn chaos_unsym_drop_bit_identical() {
    let n = 700;
    let pts = h2_tree::uniform_cube(n, 109);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    let clean = DeviceFabric::new(1);
    let (h2c, _, _) = shard_construct(&clean, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
    let probe = gaussian_mat(n, 2, 110);
    let want = h2c.apply_mat(&probe);
    for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
        let plan = Arc::new(FaultPlan::chaos(SEED ^ 1, FaultKind::TransferDrop));
        let fabric = fabric_for(4, mode);
        fabric.set_fault_plan(Some(plan.clone()));
        let (h2, stats, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
        assert_eq!(h2.apply_mat(&probe), want, "mode={mode:?}");
        let ctx = format!("{mode:?}");
        assert_retries_replayed(&report, &h2, &cfg(), &stats, &plan, &ctx);
        assert_fault_branch(&fabric, &report, &stats, FaultKind::TransferDrop, 4, &ctx);
    }
}

/// Two runs under the same plan replay the identical fault sequence:
/// byte-for-byte equal traffic and equal event counters.
#[test]
fn fault_injection_replays_deterministically() {
    let (tree, part, km) = sym_problem(600, 16, 111);
    let run = || {
        let fabric = DeviceFabric::pipelined(2);
        fabric.set_fault_plan(Some(Arc::new(FaultPlan::chaos(
            SEED ^ 2,
            FaultKind::TransferCorrupt,
        ))));
        let (_, _, report) = shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
        (
            report.total_comm_bytes(),
            report.total_comm_messages(),
            fabric.fault_counters(),
        )
    };
    let (b1, m1, c1) = run();
    let (b2, m2, c2) = run();
    assert_eq!(b1, b2, "replayed byte totals must be identical");
    assert_eq!(m1, m2, "replayed message counts must be identical");
    assert_eq!(c1, c2, "replayed fault counters must be identical");
}

/// Exact retry arithmetic: at drop rate 1.0 with `max_retries = 2` every
/// transfer fails attempts 0 and 1 and succeeds on attempt 2, so the
/// queue carries exactly 3x the bytes and the retry counter 2 per
/// transfer — in both service paths (inline and prefetched).
#[test]
fn retry_accounting_is_exact_at_rate_one() {
    let t = Transfer {
        src: 0,
        dst: 1,
        bytes: 4096,
        kind: TransferKind::OmegaFetch,
        prec: Precision::F64,
    };
    for prefetched in [false, true] {
        let fabric = DeviceFabric::new(2);
        fabric.set_fault_plan(Some(Arc::new(
            FaultPlan::new(SEED ^ 3).with_drops(1.0).with_max_retries(2),
        )));
        if prefetched {
            let _ticket = fabric.prefetch_transfer(t);
        } else {
            fabric.record_transfer(t);
        }
        let report = fabric.report("retry accounting");
        assert_eq!(
            report.total_comm_bytes(),
            3 * t.bytes,
            "prefetched={prefetched}: original + 2 charged retries"
        );
        assert_eq!(report.total_comm_messages(), 3);
        let counters = fabric.fault_counters();
        assert_eq!(counters.retries, 2);
        assert_eq!(counters.faults, 2);
    }
}

/// A dependency that outlives the armed ticket deadline surfaces as a
/// typed [`FabricError::TransferTimeout`] at the barrier — and the
/// fabric stays fully usable afterwards.
#[test]
fn ticket_deadline_turns_hang_into_typed_error() {
    let fabric = DeviceFabric::pipelined(2);
    fabric.set_transfer_delay(Some(Arc::new(|_: &Transfer| Duration::from_millis(80))));
    fabric.set_ticket_deadline(Some(Duration::from_millis(5)));
    let t = Transfer {
        src: 0,
        dst: 1,
        bytes: 1 << 20,
        kind: TransferKind::OmegaFetch,
        prec: Precision::F64,
    };
    let ticket = fabric.prefetch_transfer(t);
    assert_ne!(ticket, 0);
    let ran = AtomicUsize::new(0);
    // SAFETY: the barrier in the catch_unwind below (and the reset after)
    // runs before `ran` leaves scope.
    unsafe {
        fabric.enqueue(1, &[ticket], {
            let ran = &ran;
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        });
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.flush()));
    assert!(err.is_err(), "the timeout must surface at the barrier");
    match fabric.take_fault_error() {
        Some(FabricError::TransferTimeout {
            ticket: stuck,
            waited_nanos,
        }) => {
            assert_eq!(stuck, ticket);
            assert!(
                waited_nanos >= 5_000_000,
                "must have waited the deadline out"
            );
        }
        other => panic!("expected TransferTimeout, got {other:?}"),
    }
    assert_eq!(
        ran.load(Ordering::SeqCst),
        1,
        "the dependent job proceeds after diagnosis (virtual transfer)"
    );
    // Reusable: a fresh accounting scope runs cleanly.
    fabric.set_transfer_delay(None);
    fabric.set_ticket_deadline(None);
    fabric.reset();
    let hits = AtomicUsize::new(0);
    fabric.run_jobs(
        (0..2)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as h2_runtime::ShardJob<'_>
            })
            .collect(),
    );
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    assert!(fabric.take_fault_error().is_none());
}

/// Panic-safety regression: a deliberately panicking kernel closure in a
/// pipelined chain scope propagates at the barrier, and the fabric —
/// every lock crossed by the unwinding host thread included — stays
/// usable: reset, rerun, report.
#[test]
fn panicking_job_leaves_fabric_reusable() {
    let fabric = DeviceFabric::pipelined(2);
    for round in 0..2 {
        fabric.chain_begin();
        // SAFETY: chain_end below barriers before any borrow ends.
        unsafe {
            fabric.enqueue(0, &[], Box::new(|| panic!("deliberate kernel panic")));
            fabric.enqueue(1, &[], Box::new(|| {}));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.chain_end()));
        assert!(
            caught.is_err(),
            "round {round}: the job panic must propagate"
        );
        // The poisoned-flag recovery is the regression under test: every
        // subsequent fabric operation must work as if the panic never
        // happened structurally.
        fabric.reset();
        let hits = AtomicUsize::new(0);
        fabric.run_jobs(
            (0..2)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    }) as h2_runtime::ShardJob<'_>
                })
                .collect(),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 2, "round {round}");
        let report = fabric.report("after panic");
        assert!(report.epochs.len() <= 2);
        fabric.reset();
    }
}

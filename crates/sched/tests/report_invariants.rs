//! `ExecReport` invariants: per device and epoch the accounted durations
//! exactly tile the epoch span (`busy + stall + overlapped + idle ==
//! span`), and `modeled_makespan` is exactly the sum over epochs of the
//! max-over-devices schedule-aware projection — in both fabric modes at
//! D ∈ {1, 2, 4}. Also pins the metrics-export reconciliation: the
//! observability counters equal the report accessors byte-for-byte and
//! launch-for-launch, and that the dense layer's pack/gemv counts belong to
//! the runtime that ran them.

use h2_core::{sketch_construct, SketchConfig, SketchStats};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_runtime::{DeviceModel, PipelineMode, Registry, Runtime};
use h2_sched::{shard_construct, DeviceFabric, ExecReport, LinkModel};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

/// The invariants hold at any size. N = 513 is the smallest whose partition
/// has an inner processed level that fetches at D = 4.
const N: usize = 513;

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
        adaptive: false,
        ..Default::default()
    }
}

fn run_construct(devices: usize, mode: PipelineMode) -> ExecReport {
    let (tree, part, km) = sym_problem(N, 16, 181);
    // A CPU-scale link so transfers take visible time: stall (sync) and
    // overlapped (pipelined) durations are exercised, not just zeros.
    let fabric = DeviceFabric::with_config(devices, mode, LinkModel::cpu_scale());
    let (_, _, report) = shard_construct(&fabric, &km, &km, tree, part, &cfg());
    report
}

/// Independent re-derivation of the projection formula, used to pin
/// `modeled_makespan` as exactly the sum of per-epoch schedule terms.
fn recompute_makespan(report: &ExecReport, model: &DeviceModel) -> f64 {
    report
        .epochs
        .iter()
        .map(|e| {
            let compute_max = e
                .per_device
                .iter()
                .map(|d| (d.flops + model.entry_cost * d.gen_entries) / model.flops_per_sec)
                .fold(0.0, f64::max);
            let comm = e.comm_bytes as f64 / model.link_bandwidth
                + e.comm_messages as f64 * model.link_latency;
            let launches_max = e.per_device.iter().map(|d| d.launches).max().unwrap_or(0);
            let launch = launches_max as f64 * model.launch_overhead;
            // Synchronous: the three terms serialize. Pipelined: job-level
            // dependency chaining overlaps them, so the epoch costs
            // whichever single term dominates.
            match report.mode {
                PipelineMode::Synchronous => compute_max + comm + launch,
                PipelineMode::Pipelined => compute_max.max(comm).max(launch),
            }
        })
        .sum()
}

#[test]
fn durations_exactly_tile_every_epoch_span() {
    for devices in DEVICE_COUNTS {
        for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
            let report = run_construct(devices, mode);
            assert!(!report.epochs.is_empty());
            for (i, e) in report.epochs.iter().enumerate() {
                assert_eq!(e.per_device.len(), devices);
                for (dev, d) in e.per_device.iter().enumerate() {
                    let tiled = d.busy + d.stall + d.overlapped + d.idle;
                    assert_eq!(
                        tiled, e.span,
                        "D={devices} {mode:?} epoch {i} ({}) dev {dev}: \
                         busy {:?} + stall {:?} + overlapped {:?} + idle {:?} != span {:?}",
                        e.label, d.busy, d.stall, d.overlapped, d.idle, e.span
                    );
                }
            }
            // The tiling implies the totals tile the summed spans too.
            let spans: std::time::Duration = report.epochs.iter().map(|e| e.span).sum();
            let busy: std::time::Duration = report.busy_per_device().iter().sum();
            let accounted =
                busy + report.stall_total() + report.overlapped_total() + report.idle_total();
            let spans_all_devices = spans * devices as u32;
            assert_eq!(accounted, spans_all_devices, "D={devices} {mode:?}");
        }
    }
}

#[test]
fn modeled_makespan_is_sum_of_per_epoch_projections() {
    let model = DeviceModel::default();
    for devices in DEVICE_COUNTS {
        for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
            let report = run_construct(devices, mode);
            let recomputed = recompute_makespan(&report, &model);
            let got = report.modeled_makespan(&model);
            assert_eq!(
                got, recomputed,
                "D={devices} {mode:?}: modeled_makespan diverged from the \
                 per-epoch schedule projection"
            );
            // And the per-epoch accessor decomposes it exactly.
            let summed: f64 = (0..report.epochs.len())
                .map(|i| report.epoch_makespan(i, &model))
                .sum();
            assert_eq!(got, summed, "D={devices} {mode:?}");
            // epoch_terms is the same decomposition one level down.
            for i in 0..report.epochs.len() {
                let (compute, comm, launch) = report.epoch_terms(i, &model);
                let combined = match mode {
                    PipelineMode::Synchronous => compute + comm + launch,
                    PipelineMode::Pipelined => compute.max(comm).max(launch),
                };
                assert_eq!(report.epoch_makespan(i, &model), combined);
            }
        }
    }
}

#[test]
fn exported_metrics_reconcile_with_report_totals() {
    let report = run_construct(4, PipelineMode::Pipelined);
    let registry = Registry::new();
    report.export_metrics(&registry);
    assert_eq!(
        registry.counter_value("fabric.comm_bytes"),
        Some(report.total_comm_bytes()),
        "byte-for-byte reconciliation"
    );
    assert_eq!(
        registry.counter_value("fabric.comm_messages"),
        Some(report.total_comm_messages() as u64)
    );
    assert_eq!(
        registry.counter_value("fabric.launches"),
        Some(report.total_launches() as u64),
        "launch-for-launch reconciliation"
    );
    assert_eq!(
        registry.counter_value("fabric.epochs"),
        Some(report.epochs.len() as u64)
    );
    // Per-kind byte counters partition the total.
    let snap = registry.snapshot();
    let kind_sum: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("fabric.bytes."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(kind_sum, report.total_comm_bytes());
    // Per-device time counters match the report's duration totals.
    let busy = report.busy_per_device();
    for dev in 0..report.devices {
        assert_eq!(
            registry.counter_value(&format!("fabric.dev{dev}.busy_ns")),
            Some(busy[dev].as_nanos() as u64)
        );
    }
    let stall_sum: u64 = (0..report.devices)
        .map(|d| {
            registry
                .counter_value(&format!("fabric.dev{d}.stall_ns"))
                .unwrap()
        })
        .sum();
    assert_eq!(stall_sum, report.stall_total().as_nanos() as u64);
}

/// Every construction reports exactly the dense-layer counts of a solo
/// sequential one: a second runtime alive at the same time, a concurrent
/// construction on another thread, the parallel backend (pool tasks) and
/// the fabric (device jobs) each count into the runtime the calls ran under.
#[test]
fn dense_counts_belong_to_their_runtime() {
    let (tree, part, km) = sym_problem(N, 16, 181);
    let counts = |stats: &SketchStats| {
        let launches = |name| {
            stats
                .launches
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, c)| *c)
        };
        (launches("gemmPack"), launches("gemv"), stats.pack_bytes)
    };
    let construct = |rt: &Runtime| {
        counts(&sketch_construct(&km, &km, tree.clone(), part.clone(), rt, &cfg()).1)
    };
    let solo = construct(&Runtime::sequential());
    assert!(solo.0 > 0 && solo.2 > 0, "the construction packs: {solo:?}");

    let (first, second) = (Runtime::sequential(), Runtime::sequential());
    assert_eq!(construct(&first), solo, "first of two live runtimes");
    assert_eq!(construct(&second), solo, "second of two live runtimes");

    std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| s.spawn(|| construct(&Runtime::sequential())))
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), solo, "concurrent construction");
        }
    });

    assert_eq!(construct(&Runtime::parallel()), solo, "parallel backend");

    for devices in [1, 3] {
        let fabric =
            DeviceFabric::with_config(devices, PipelineMode::Pipelined, LinkModel::cpu_scale());
        let (_, stats, _) = shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
        assert_eq!(counts(&stats), solo, "shard_construct at D={devices}");
    }
}

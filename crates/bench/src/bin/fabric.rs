//! Fabric pipeline ablation: synchronous (fork-join, exposed transfers)
//! vs. pipelined (ordered queues, prefetched transfers, double-buffered
//! arenas) execution of the *same* sharded construction and matvec, in
//! both symmetry regimes, for D ∈ {1, 2, 4, 8} — emitting
//! `BENCH_fabric.json`.
//!
//! Reported per (regime, D, mode):
//!
//! * **makespan** — the repo's measured-makespan currency: the executor's
//!   recorded counters projected through a [`DeviceModel`] honoring the
//!   run's schedule (serialized comm for synchronous, overlapped for
//!   pipelined; see `ExecReport::modeled_makespan`). Two models are
//!   reported, mirroring `ablation_multidevice`: **A100-class** (10 TF/s —
//!   at shard-able problem sizes the levels are latency-bound, so overlap
//!   buys little: the §IV.B "don't multi-GPU small problems" tradeoff) and
//!   **weak-compute** (0.5 TF/s, same links — the balanced regime where
//!   per-level compute and communication are comparable and overlap pays;
//!   the headline speedup is measured here);
//! * **wall** — wall-clock of the run on the CPU-scale virtual link
//!   ([`h2_sched::LinkModel::cpu_scale`]), where synchronous transfers are
//!   serviced inline and pipelined ones ride the copy engine;
//! * **busy / stall / overlap / idle** — the per-device breakdown summed
//!   over devices, attributing where the time went;
//! * **sim ratio** — pipelined measured makespan over the makespan of the
//!   [`h2_runtime::Schedule`] the run was planned as:
//!   [`h2_core::plan_construct`] for the construction and
//!   [`h2_sched::simulate_matvec`] for the matvec. Every run is its plan
//!   ([`h2_sched::ExecReport::check`], asserted here; `bytes ==` records
//!   it), so the ratio is 1 — re-checked by `bench_check`;
//! * **precision** — with `--precision f32` the fabric wire is demoted and
//!   block storage is norm-aware-demoted (`SketchConfig::storage`), so
//!   every transfer ships half the bytes while accumulation stays f64;
//!   `--precision both` runs f64 and f32 back to back and reports the
//!   byte ratio plus the comm-bound A100 D >= 4 makespan speedup.
//!
//! * **`--faults`** — the resilience sweep: for every `FaultKind` chaos
//!   preset at D = 4 in both modes, the faulted construction must stay
//!   **bit-identical** to the fault-free run and its report must be its
//!   plan with the fault plan's retries replayed
//!   ([`h2_sched::ExecReport::check`]);
//!   emitted as the
//!   `resilience` section of the envelope (validated by `bench_check`),
//!   and the `--trace` run then executes under a drop plan so the trace
//!   carries paired fault/retry instants for `trace_check`.
//!
//! Usage: `fabric [--n 12288] [--n-unsym 8192] [--samples 128]
//! [--leaf 32] [--precision f64|f32|both] [--out BENCH_fabric.json]
//! [--trace trace.json] [--smoke] [--faults]`
//!
//! `--trace <path>` additionally runs one dedicated pipelined D=4
//! construction with a live tracer attached and writes its merged Chrome
//! trace (device timelines + link rows + host spans — load at
//! <https://ui.perfetto.dev>), plus a `<path>.expect` sidecar holding the
//! run's exact cross-device byte total for the CI validator
//! (`trace_check`):
//!
//! ```sh
//! cargo run --release -p h2_bench --bin fabric -- --smoke --trace trace.json
//! cargo run --release -p h2_bench --bin trace_check -- \
//!     --trace trace.json --expect-bytes $(cat trace.json.expect)
//! ```

use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{EntryAccess, LinOp};
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::{direct_construct, DirectConfig};
use h2_obs::Json;
use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime};
use h2_sched::{
    export_chrome_trace_with_spans, plan_construct, plan_matvec, shard_construct,
    shard_matvec_with_report, DeviceFabric, ExecReport, FaultKind, FaultPlan, LinkModel,
};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

/// The two device models of `ablation_multidevice`: A100-class, and the
/// weak-compute variant whose compute:link balance makes overlap visible.
fn models() -> (DeviceModel, DeviceModel) {
    let a100 = DeviceModel::default();
    let weak = DeviceModel {
        flops_per_sec: 5.0e11,
        ..DeviceModel::default()
    };
    (a100, weak)
}

struct ModeRow {
    makespan_weak: f64,
    makespan_a100: f64,
    wall: f64,
    busy: f64,
    stall: f64,
    overlap: f64,
    idle: f64,
}

fn mode_row(report: &ExecReport) -> ModeRow {
    let (a100, weak) = models();
    ModeRow {
        makespan_weak: report.modeled_makespan(&weak),
        makespan_a100: report.modeled_makespan(&a100),
        wall: report.wall.as_secs_f64(),
        busy: report
            .busy_per_device()
            .into_iter()
            .map(|d| d.as_secs_f64())
            .sum(),
        stall: report.stall_total().as_secs_f64(),
        overlap: report.overlapped_total().as_secs_f64(),
        idle: report.idle_total().as_secs_f64(),
    }
}

struct BenchRow {
    regime: &'static str,
    phase: &'static str,
    prec: Precision,
    devices: usize,
    sync: ModeRow,
    pipe: ModeRow,
    /// Pipelined cross-device transfer total at the wire precision.
    comm_bytes: u64,
    sim_ratio: f64,
    bytes_equal: bool,
}

impl BenchRow {
    /// Headline speedup under the weak-compute (balanced) model.
    fn speedup(&self) -> f64 {
        if self.pipe.makespan_weak == 0.0 {
            1.0
        } else {
            self.sync.makespan_weak / self.pipe.makespan_weak
        }
    }

    fn speedup_a100(&self) -> f64 {
        if self.pipe.makespan_a100 == 0.0 {
            1.0
        } else {
            self.sync.makespan_a100 / self.pipe.makespan_a100
        }
    }
}

fn fabric_for(devices: usize, mode: PipelineMode, prec: Precision) -> Arc<DeviceFabric> {
    let fabric = DeviceFabric::with_config(devices, mode, LinkModel::cpu_scale());
    fabric.set_wire(prec);
    fabric
}

/// Dedicated traced run backing `--trace`: a pipelined D=4 symmetric
/// construction with non-adaptive sampling (checked against its plan), a
/// live tracer attached to the fabric, and
/// the merged Chrome trace written to `path`. A `<path>.expect` sidecar
/// holds the exact cross-device byte total so `trace_check` can validate
/// the trace against an independently recorded number.
fn write_trace(path: &str, smoke: bool, faults: bool) {
    let n = if smoke { 3000 } else { 4096 };
    let pts = h2_tree::uniform_cube(n, 0xFAB7);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    let sampler = direct_construct(
        &km,
        tree.clone(),
        part.clone(),
        &DirectConfig {
            tol: 1e-8,
            ..Default::default()
        },
    );
    let cfg = SketchConfig {
        initial_samples: 64,
        adaptive: false,
        ..Default::default()
    };
    let fabric = DeviceFabric::with_config(4, PipelineMode::Pipelined, LinkModel::cpu_scale());
    let plan = faults.then(|| Arc::new(FaultPlan::chaos(0xFA57_7ACE, FaultKind::TransferDrop)));
    if plan.is_some() {
        fabric.set_fault_plan(plan.clone());
    }
    let tracer = h2_obs::Tracer::new(1 << 20);
    fabric.set_tracer(Some(tracer.clone()));
    let (h2, stats, report) = shard_construct(&fabric, &sampler, &km, tree, part, &cfg);
    fabric.set_tracer(None);
    let schedule = plan_construct(&h2, &cfg, &stats, 4, report.mode, report.wire);
    if let Err(e) = report.check(&schedule, plan.as_deref()) {
        panic!("traced run must be its plan, fault-plan retries replayed: {e}");
    }
    assert!(
        plan.is_none() || fabric.fault_counters().retries > 0,
        "traced chaos run produced no retries to validate"
    );
    let events = tracer.drain();
    let trace = export_chrome_trace_with_spans(&report, &events);
    trace.write(path).expect("write chrome trace");
    std::fs::write(
        format!("{path}.expect"),
        report.total_comm_bytes().to_string(),
    )
    .expect("write expect sidecar");
    println!(
        "trace: wrote {path} ({} events, comm_bytes {}) and {path}.expect",
        trace.len(),
        report.total_comm_bytes()
    );
}

struct FaultRow {
    kind: &'static str,
    devices: usize,
    mode: &'static str,
    bytes_equal: bool,
    /// Faulted over fault-free modeled makespan (weak model), same mode:
    /// charged retry traffic can only lengthen the projection, so the
    /// ratio must sit at or above 1.0 (within float slack).
    makespan_ratio: f64,
    retries: u64,
    recoveries: u64,
}

/// The resilience sweep backing `--faults`: every chaos preset at D = 4
/// in both modes against a fault-free baseline of the same mode. The
/// headline claims are asserted here at generation time (bit-identity,
/// the run equal to its plan with the retries replayed) and re-checked
/// from the envelope by `bench_check`.
fn run_faults(smoke: bool) -> Vec<FaultRow> {
    let n = if smoke { 1400 } else { 3000 };
    let devices = 4;
    let pts = h2_tree::uniform_cube(n, 0xFA57);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    let sampler = direct_construct(
        &km,
        tree.clone(),
        part.clone(),
        &DirectConfig {
            tol: 1e-8,
            ..Default::default()
        },
    );
    let cfg = SketchConfig {
        initial_samples: 64,
        adaptive: false,
        ..Default::default()
    };
    let (_, weak) = models();
    let probe = h2_dense::gaussian_mat(n, 2, 0xFA58);
    let mut rows = Vec::new();
    println!("## Resilience (chaos sweep, D={devices}, N={n})\n");
    h2_bench::header(&[
        "kind",
        "mode",
        "bytes ==",
        "makespan ratio",
        "retries",
        "recoveries",
    ]);
    for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
        let mode_name = match mode {
            PipelineMode::Synchronous => "sync",
            PipelineMode::Pipelined => "pipelined",
        };
        let fabric = fabric_for(devices, mode, Precision::F64);
        let (h2c, _, base_rep) =
            shard_construct(&fabric, &sampler, &km, tree.clone(), part.clone(), &cfg);
        let base_makespan = base_rep.modeled_makespan(&weak);
        let want = h2c.apply_mat(&probe);
        for kind in FaultKind::ALL {
            let plan = Arc::new(FaultPlan::chaos(0xFA59, kind));
            let fabric = fabric_for(devices, mode, Precision::F64);
            fabric.set_fault_plan(Some(plan.clone()));
            let (h2, stats, report) =
                shard_construct(&fabric, &sampler, &km, tree.clone(), part.clone(), &cfg);
            assert_eq!(
                h2.apply_mat(&probe),
                want,
                "{} / {mode_name}: faulted construction must be bit-identical",
                kind.name()
            );
            let schedule = plan_construct(&h2, &cfg, &stats, devices, mode, report.wire);
            let exact = report.check(&schedule, Some(&plan));
            if let Err(e) = &exact {
                panic!(
                    "{} / {mode_name}: the run must be its plan: {e}",
                    kind.name()
                );
            }
            let counters = fabric.fault_counters();
            let row = FaultRow {
                kind: kind.name(),
                devices,
                mode: mode_name,
                bytes_equal: exact.is_ok(),
                makespan_ratio: if base_makespan > 0.0 {
                    report.modeled_makespan(&weak) / base_makespan
                } else {
                    1.0
                },
                retries: counters.retries,
                recoveries: counters.recoveries + stats.recoveries as u64,
            };
            h2_bench::row(&[
                row.kind.to_string(),
                row.mode.to_string(),
                row.bytes_equal.to_string(),
                format!("{:.3}", row.makespan_ratio),
                row.retries.to_string(),
                row.recoveries.to_string(),
            ]);
            rows.push(row);
        }
    }
    println!();
    rows
}

#[allow(clippy::too_many_arguments)]
fn run_regime(
    regime: &'static str,
    n: usize,
    leaf: usize,
    samples: usize,
    seed: u64,
    device_counts: &[usize],
    precisions: &[Precision],
    rows: &mut Vec<BenchRow>,
) {
    let (_, weak) = models();
    let pts = h2_tree::uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(
        part.top_far_level(&tree).is_some(),
        "{regime}: partition is all-dense at N={n}, leaf={leaf}"
    );
    let sym = regime == "sym";
    let km_sym = sym.then(|| KernelMatrix::new(ExponentialKernel::default(), tree.points.clone()));
    let km_unsym =
        (!sym).then(|| UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone()));

    // Fast sampler, the paper's black-box `Kblk`: an H2 matvec from a
    // tighter reference construction (the exact O(N²d) kernel product would
    // dominate the bench). Symmetric: the entry-based direct constructor.
    // Unsymmetric: one exact-sampled sketched construction up front, reused
    // as the sampler for every fabric run.
    let sampler: Box<dyn LinOp> = if let Some(km) = &km_sym {
        Box::new(direct_construct(
            km,
            tree.clone(),
            part.clone(),
            &DirectConfig {
                tol: 1e-8,
                ..Default::default()
            },
        ))
    } else {
        let km = km_unsym.as_ref().unwrap();
        let rt = Runtime::parallel();
        let ref_cfg = SketchConfig {
            tol: 1e-8,
            initial_samples: samples,
            symmetric: false,
            ..Default::default()
        };
        Box::new(sketch_construct(km, km, tree.clone(), part.clone(), &rt, &ref_cfg).0)
    };

    let gen: &dyn EntryAccess = match (&km_sym, &km_unsym) {
        (Some(km), _) => km,
        (_, Some(km)) => km,
        _ => unreachable!("one kernel matrix per regime"),
    };

    for &prec in precisions {
        let cfg = SketchConfig {
            initial_samples: samples,
            storage: prec,
            symmetric: sym,
            ..Default::default()
        };
        println!(
            "## Construction ({regime}, N={n}, d0={samples}, {})\n",
            prec.name()
        );
        h2_bench::header(&[
            "D",
            "sync weak (ms)",
            "pipe weak (ms)",
            "speedup",
            "speedup A100",
            "pipe stall (ms)",
            "pipe overlap (ms)",
            "sim ratio",
            "bytes ==",
        ]);
        let mut h2_for_matvec = None;
        for &devices in device_counts {
            let mut reports = Vec::new();
            let mut h2_last = None;
            let mut stats_last = None;
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                let fabric = fabric_for(devices, mode, prec);
                let (h2, stats, report) = shard_construct(
                    &fabric,
                    sampler.as_ref(),
                    gen,
                    tree.clone(),
                    part.clone(),
                    &cfg,
                );
                reports.push(report);
                h2_last = Some(h2);
                stats_last = Some(stats);
            }
            let (sync_rep, pipe_rep) = (&reports[0], &reports[1]);
            let h2 = h2_last.unwrap();
            let stats = stats_last.unwrap();
            let plan = plan_construct(&h2, &cfg, &stats, devices, pipe_rep.mode, prec);
            let exact = pipe_rep.check(&plan, None);
            if let Err(e) = &exact {
                panic!("{regime} D={devices}: the run must execute its plan: {e}");
            }
            let row = BenchRow {
                regime,
                phase: "construct",
                prec,
                devices,
                sync: mode_row(sync_rep),
                pipe: mode_row(pipe_rep),
                comm_bytes: pipe_rep.total_comm_bytes(),
                sim_ratio: pipe_rep.modeled_makespan(&weak) / plan.makespan(&weak),
                bytes_equal: exact.is_ok(),
            };
            h2_bench::row(&[
                devices.to_string(),
                format!("{:.3}", row.sync.makespan_weak * 1e3),
                format!("{:.3}", row.pipe.makespan_weak * 1e3),
                format!("{:.2}x", row.speedup()),
                format!("{:.2}x", row.speedup_a100()),
                format!("{:.3}", row.pipe.stall * 1e3),
                format!("{:.3}", row.pipe.overlap * 1e3),
                format!("{:.2}", row.sim_ratio),
                row.bytes_equal.to_string(),
            ]);
            rows.push(row);
            if devices == *device_counts.last().unwrap() {
                h2_for_matvec = Some(h2);
            }
        }
        println!();

        let h2 = h2_for_matvec.expect("at least one device count");
        let x = h2_dense::gaussian_mat(n, 16, seed ^ 0xBEEF);
        println!("## Matvec ({regime}, 16 columns, {})\n", prec.name());
        h2_bench::header(&[
            "D",
            "sync weak (ms)",
            "pipe weak (ms)",
            "speedup",
            "speedup A100",
            "pipe stall (ms)",
            "pipe overlap (ms)",
            "sim ratio",
            "bytes ==",
        ]);
        for &devices in device_counts {
            let mut reports = Vec::new();
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                let fabric = fabric_for(devices, mode, prec);
                let (_, report) = shard_matvec_with_report(&fabric, &h2, &x, false);
                reports.push(report);
            }
            let (sync_rep, pipe_rep) = (&reports[0], &reports[1]);
            let plan = plan_matvec(&h2, x.cols(), devices, pipe_rep.mode, prec, false);
            let exact = pipe_rep.check(&plan, None);
            if let Err(e) = &exact {
                panic!("{regime} D={devices}: the matvec must execute its plan: {e}");
            }
            let row = BenchRow {
                regime,
                phase: "matvec",
                prec,
                devices,
                sync: mode_row(sync_rep),
                pipe: mode_row(pipe_rep),
                comm_bytes: pipe_rep.total_comm_bytes(),
                sim_ratio: pipe_rep.modeled_makespan(&weak) / plan.makespan(&weak),
                bytes_equal: exact.is_ok(),
            };
            h2_bench::row(&[
                devices.to_string(),
                format!("{:.3}", row.sync.makespan_weak * 1e3),
                format!("{:.3}", row.pipe.makespan_weak * 1e3),
                format!("{:.2}x", row.speedup()),
                format!("{:.2}x", row.speedup_a100()),
                format!("{:.3}", row.pipe.stall * 1e3),
                format!("{:.3}", row.pipe.overlap * 1e3),
                format!("{:.2}", row.sim_ratio),
                row.bytes_equal.to_string(),
            ]);
            rows.push(row);
        }
        println!();
    }
}

fn main() {
    let args = h2_bench::Args::parse();
    // Full-run defaults sit in the balanced regime where per-level compute
    // and communication are comparable at D = 4 under the weak-compute
    // model — the regime overlap exists to win (bigger N drifts
    // compute-bound, smaller N latency-bound; both converge to 1.0x).
    let smoke = args.flag("smoke");
    let faults = args.flag("faults");
    let n: usize = args.get("n", if smoke { 3000 } else { 12288 });
    let n_unsym: usize = args.get("n-unsym", if smoke { 2200 } else { 8192 });
    let leaf: usize = args.get("leaf", if smoke { 16 } else { 32 });
    let samples: usize = args.get("samples", if smoke { 64 } else { 128 });
    let out_path: String = args.get("out", "BENCH_fabric.json".to_string());
    let prec_arg: String = args.get("precision", "f64".to_string());
    let precisions: Vec<Precision> = match prec_arg.as_str() {
        "both" => vec![Precision::F64, Precision::F32],
        s => vec![Precision::parse(s)
            .unwrap_or_else(|| panic!("--precision must be f64, f32, or both (got {s})"))],
    };
    let device_counts: &[usize] = &[1, 2, 4, 8];

    println!(
        "# Fabric pipeline ablation (virtual link: CPU-scale; models: \
         weak-compute 0.5 TF/s headline, A100-class 10 TF/s reference)\n"
    );
    let mut rows: Vec<BenchRow> = Vec::new();
    run_regime(
        "sym",
        n,
        leaf,
        samples,
        0xFAB1,
        device_counts,
        &precisions,
        &mut rows,
    );
    run_regime(
        "unsym",
        n_unsym,
        leaf,
        samples,
        0xFAB2,
        device_counts,
        &precisions,
        &mut rows,
    );
    let fault_rows = faults.then(|| run_faults(smoke));

    // Headline: the best pipelined-over-synchronous makespan at D >= 4.
    let headline = rows
        .iter()
        .filter(|r| r.devices >= 4)
        .map(|r| r.speedup())
        .fold(0.0f64, f64::max);
    println!(
        "Headline: best pipelined speedup at D >= 4 is {headline:.2}x \
         (acceptance floor 1.25x on the full run)."
    );

    // Mixed-precision headline: pair f64/f32 rows by (regime, phase, D) and
    // report the worst byte ratio (must be ~half: every wire formula is
    // linear in the element width) plus the best comm-bound win — the A100
    // model is the strong-compute regime where transfer time dominates the
    // pipelined makespan, so halving the bytes shows up directly.
    let mut byte_ratio_worst = 0.0f64;
    let mut comm_speedup = 0.0f64;
    if precisions.len() == 2 {
        for r64 in rows.iter().filter(|r| r.prec == Precision::F64) {
            let Some(r32) = rows.iter().find(|r| {
                r.prec == Precision::F32
                    && r.regime == r64.regime
                    && r.phase == r64.phase
                    && r.devices == r64.devices
            }) else {
                continue;
            };
            if r64.comm_bytes > 0 {
                byte_ratio_worst =
                    byte_ratio_worst.max(r32.comm_bytes as f64 / r64.comm_bytes as f64);
            }
            if r64.devices >= 4 && r32.pipe.makespan_a100 > 0.0 {
                comm_speedup = comm_speedup.max(r64.pipe.makespan_a100 / r32.pipe.makespan_a100);
            }
        }
        assert!(
            byte_ratio_worst <= 0.55,
            "f32 wire must cut fabric bytes to ~half (worst ratio {byte_ratio_worst:.3})"
        );
        println!(
            "Mixed precision: worst f32/f64 byte ratio {byte_ratio_worst:.3}; best f32 \
             pipelined makespan speedup on the A100 model at D >= 4 is {comm_speedup:.2}x."
        );
    }

    fn mode_json(m: &ModeRow) -> Json {
        Json::obj(vec![
            ("makespan_weak", Json::Num(m.makespan_weak)),
            ("makespan_a100", Json::Num(m.makespan_a100)),
            ("wall", Json::Num(m.wall)),
            ("busy", Json::Num(m.busy)),
            ("stall", Json::Num(m.stall)),
            ("overlap", Json::Num(m.overlap)),
            ("idle", Json::Num(m.idle)),
        ])
    }

    let (a100, weak) = models();
    let mut rep = h2_bench::BenchReport::new("fabric");
    rep.precisions(&precisions)
        .device_model("weak_compute_0.5TFs", &weak)
        .device_model("a100_10TFs", &a100);
    rep.section(
        "config",
        Json::obj(vec![
            ("n", Json::u64(n as u64)),
            ("n_unsym", Json::u64(n_unsym as u64)),
            ("leaf", Json::u64(leaf as u64)),
            ("samples", Json::u64(samples as u64)),
            ("smoke", Json::Bool(smoke)),
            ("faults", Json::Bool(faults)),
            ("link", Json::str("cpu_scale")),
            ("headline_model", Json::str("weak_compute_0.5TFs")),
            ("reference_model", Json::str("a100_10TFs")),
        ]),
    );
    rep.section("headline_speedup_at_4plus", Json::Num(headline));
    if precisions.len() == 2 {
        rep.section("f32_byte_ratio_worst", Json::Num(byte_ratio_worst));
        rep.section("f32_comm_speedup_a100_at_4plus", Json::Num(comm_speedup));
    }
    rep.section(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj(vec![
                        ("regime", Json::str(r.regime)),
                        ("phase", Json::str(r.phase)),
                        ("precision", Json::str(r.prec.name())),
                        ("devices", Json::u64(r.devices as u64)),
                        ("comm_bytes", Json::u64(r.comm_bytes)),
                        ("sync", mode_json(&r.sync)),
                        ("pipelined", mode_json(&r.pipe)),
                        ("speedup", Json::Num(r.speedup())),
                        ("speedup_a100", Json::Num(r.speedup_a100())),
                        ("sim_ratio", Json::Num(r.sim_ratio)),
                        ("bytes_equal", Json::Bool(r.bytes_equal)),
                    ])
                })
                .collect(),
        ),
    );
    if let Some(fault_rows) = &fault_rows {
        rep.section(
            "resilience",
            Json::Arr(
                fault_rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("kind", Json::str(r.kind)),
                            ("devices", Json::u64(r.devices as u64)),
                            ("mode", Json::str(r.mode)),
                            ("bytes_equal", Json::Bool(r.bytes_equal)),
                            ("makespan_ratio", Json::Num(r.makespan_ratio)),
                            ("retries", Json::u64(r.retries)),
                            ("recoveries", Json::u64(r.recoveries)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    rep.write(&out_path);

    if let Some(path) = args.get_opt("trace") {
        write_trace(&path, smoke, faults);
    }
}

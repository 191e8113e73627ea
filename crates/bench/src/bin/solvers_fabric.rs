//! Solver-stack benchmark: ULV factor + solve in both side layouts,
//! batched vs per-node elimination, ULV-preconditioned Krylov iteration
//! counts, and the fabric-sharded solve sweep at D ∈ {1, 2, 4} — emitting
//! `BENCH_solve.json`.
//!
//! Reported:
//!
//! * **factor/solve** — wall clock of the batched per-level elimination
//!   vs the retained per-node reference (same arithmetic, different
//!   schedule; on this container both run the same cores, so parity is
//!   the expected outcome and the *multi-device* claims below are made in
//!   modeled makespan, never wall clock), plus the residual on the
//!   compressed operator and the root-system size;
//! * **Krylov** — iteration counts of PCG (symmetric) and GMRES
//!   (unsymmetric, through the fabric-sharded [`FabricOp`] matvec) with
//!   and without the ULV sweep as preconditioner;
//! * **sharded sweep** — modeled-makespan curves of the fabric solve at
//!   D ∈ {1, 2, 4} under the weak-compute and A100-class device models,
//!   on both the synchronous and the pipelined schedule (bit-identical
//!   results asserted; the pipelined columns overlap launch overhead and
//!   communication behind compute via `h2_runtime::combine_terms`). Each
//!   arm executes the [`h2_sched::plan_ulv_solve`] schedule, so its
//!   transfer bytes are **asserted equal** to the plan's and the
//!   `sim_makespan_*` columns (the plan priced by `Schedule::makespan`)
//!   equal the measured makespans (the CI smoke run keeps this wired);
//! * **precision** — with `--precision f32` the construction stores
//!   norm-aware-demoted blocks (`SketchConfig::storage`) and the fabric
//!   wire ships every sweep transfer at half width; `--precision both`
//!   runs f64 and f32 back to back. The ULV factorization reads the f64
//!   working copies (exact round-trips of the stored blocks), so the
//!   residual column stays at machine precision either way. The **wire
//!   ratio** column compares each row's measured sweep bytes to the same
//!   factorization modeled at the f64 wire width (asserted ≤ 0.55 for f32
//!   rows) — f64-run-vs-f32-run byte comparisons would be apples to
//!   oranges, since demotion error perturbs the adaptively sketched
//!   operator and with it the retained ranks.
//!
//! Usage: `solvers_fabric [--n 4096] [--n-unsym 2048] [--leaf 32]
//! [--rhs 64] [--precision f64|f32|both] [--out BENCH_solve.json]
//! [--trace trace.json] [--smoke]`
//!
//! `--trace` attaches one tracer to every runtime and fabric in the run
//! (construction phases, ULV level spans, sweep job spans, Krylov
//! iteration instants) and writes a Chrome-trace JSON at exit.

use h2_bench::{BenchReport, TraceSink};
use h2_core::{sketch_construct, sketch_construct_unsym, SketchConfig};
use h2_dense::gaussian_mat;
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_obs::Json;
use h2_runtime::{DeviceModel, PipelineMode, Precision};
use h2_sched::{
    compare_solve_with_simulator, plan_ulv_solve, shard_ulv_solve_with_report, DeviceFabric,
    FabricOp, UlvFabricPrecond,
};
use h2_solve::{gmres_with, pcg_with, Identity, KrylovWorkspace, UlvFactor};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;
use std::time::Instant;

fn line_points(n: usize) -> Vec<[f64; 3]> {
    (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect()
}

fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += sigma;
            }
            // Keep demoted f32 storage coherent with the shifted working
            // copy (no-op for f64 blocks).
            h2.dense.resync_demoted(i);
        }
    }
}

fn models() -> (DeviceModel, DeviceModel) {
    let a100 = DeviceModel::default();
    let weak = DeviceModel {
        flops_per_sec: 5.0e11,
        ..DeviceModel::default()
    };
    (a100, weak)
}

struct FactorRow {
    regime: &'static str,
    prec: Precision,
    n: usize,
    batched_ms: f64,
    per_node_ms: f64,
    solve_ms: f64,
    residual: f64,
    root_size: usize,
    schedule_gap: f64,
}

struct KrylovRow {
    regime: &'static str,
    prec: Precision,
    method: &'static str,
    plain_iters: usize,
    precond_iters: usize,
    precond_residual: f64,
}

struct SweepRow {
    regime: &'static str,
    prec: Precision,
    devices: usize,
    makespan_weak: f64,
    makespan_a100: f64,
    sim_makespan_weak: f64,
    /// The same sweep on a pipelined fabric: launch overhead and
    /// communication overlap behind compute (`h2_runtime::combine_terms`),
    /// with the byte totals still asserted equal to the plan's.
    pipe_makespan_weak: f64,
    pipe_makespan_a100: f64,
    pipe_sim_makespan_weak: f64,
    comm_bytes: u64,
    /// Measured sweep bytes over the *same factorization* modeled at the
    /// f64 wire width — the wire-format ratio proper. (Cross-run f64-vs-f32
    /// byte comparisons are not meaningful here: demotion error perturbs
    /// the adaptively sketched operator, so the two runs factor slightly
    /// different matrices with different retained ranks.)
    wire_ratio: f64,
    bytes_equal: bool,
}

#[allow(clippy::too_many_arguments)]
fn run_regime(
    regime: &'static str,
    prec: Precision,
    n: usize,
    leaf: usize,
    rhs: usize,
    sink: &TraceSink,
    factor_rows: &mut Vec<FactorRow>,
    krylov_rows: &mut Vec<KrylovRow>,
    sweep_rows: &mut Vec<SweepRow>,
) {
    let pts = line_points(n);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let rt = sink.runtime();
    let sym = regime == "sym";
    let cfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        storage: prec,
        ..Default::default()
    };
    let mut h2 = if sym {
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg).0
    } else {
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
        sketch_construct_unsym(&km, &km, tree.clone(), part, &rt, &cfg).0
    };
    shift_diag(&mut h2, 3.0);

    // ---- factor: batched vs per-node elimination ----
    let t0 = Instant::now();
    let ulv = UlvFactor::new(&h2).expect("batched ULV");
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let reference = UlvFactor::new_per_node(&h2).expect("per-node ULV");
    let per_node_ms = t0.elapsed().as_secs_f64() * 1e3;

    let b = gaussian_mat(n, rhs, 0x50F7);
    let t0 = Instant::now();
    let x = ulv.solve(&b);
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut r = h2.apply_permuted_mat(&x);
    r.axpy(-1.0, &b);
    let residual = r.norm_fro() / b.norm_fro();
    assert!(residual < 1e-10, "{regime}: ULV residual {residual}");
    let xr = reference.solve(&b);
    let mut d = x.clone();
    d.axpy(-1.0, &xr);
    let schedule_gap = d.norm_fro() / xr.norm_fro().max(1e-300);
    assert!(
        schedule_gap <= 1e-13,
        "{regime}: batched vs per-node gap {schedule_gap}"
    );
    factor_rows.push(FactorRow {
        regime,
        prec,
        n,
        batched_ms,
        per_node_ms,
        solve_ms,
        residual,
        root_size: ulv.root_size(),
        schedule_gap,
    });

    // ---- Krylov: iteration counts with/without the ULV sweep ----
    let bvec: Vec<f64> = (0..n).map(|i| 1.0 + (0.013 * i as f64).sin()).collect();
    let sweep_fabric = DeviceFabric::new(2);
    sweep_fabric.set_wire(prec);
    sink.attach(&sweep_fabric);
    let minv = UlvFabricPrecond::new(&sweep_fabric, &ulv);
    let mut ws = KrylovWorkspace::new(n);
    ws.set_tracer(sink.tracer());
    let (method, plain, fast) = if sym {
        let plain = pcg_with(&h2, &Identity { n }, &bvec, 600, 1e-10, &mut ws);
        let fast = pcg_with(&h2, &minv, &bvec, 600, 1e-10, &mut ws);
        ("pcg", plain, fast)
    } else {
        // Matvecs through the fabric-sharded operator.
        let matvec_fabric = DeviceFabric::new(2);
        matvec_fabric.set_wire(prec);
        sink.attach(&matvec_fabric);
        let op = FabricOp::new(&matvec_fabric, &h2);
        let plain = gmres_with(&op, &Identity { n }, &bvec, 40, 600, 1e-10, &mut ws);
        let fast = gmres_with(&op, &minv, &bvec, 40, 600, 1e-10, &mut ws);
        ("gmres", plain, fast)
    };
    assert!(fast.converged, "{regime}: preconditioned {method} stalled");
    krylov_rows.push(KrylovRow {
        regime,
        prec,
        method,
        plain_iters: plain.iterations,
        precond_iters: fast.iterations,
        precond_residual: fast.relative_residual,
    });

    // ---- fabric-sharded sweep: modeled makespan at D ∈ {1, 2, 4} ----
    let (a100, weak) = models();
    for devices in [1usize, 2, 4] {
        let fabric = DeviceFabric::new(devices);
        fabric.set_wire(prec);
        sink.attach(&fabric);
        let (x_sync, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
        let cmp = compare_solve_with_simulator(&report, &ulv, rhs, &weak);
        assert!(
            cmp.bytes_match(),
            "{regime} D={devices}: sweep bytes {} vs plan {}",
            cmp.measured_bytes,
            cmp.predicted_bytes
        );

        // The same sweep, pipelined: identical arithmetic and identical
        // bytes, but launch gaps and transfers overlap behind compute in
        // the modeled makespan.
        let pipe_fabric = DeviceFabric::pipelined(devices);
        pipe_fabric.set_wire(prec);
        sink.attach(&pipe_fabric);
        let (x_pipe, pipe_report) = shard_ulv_solve_with_report(&pipe_fabric, &ulv, &b);
        let pipe_cmp = compare_solve_with_simulator(&pipe_report, &ulv, rhs, &weak);
        assert!(
            pipe_cmp.bytes_match(),
            "{regime} D={devices}: pipelined sweep bytes {} vs plan {}",
            pipe_cmp.measured_bytes,
            pipe_cmp.predicted_bytes
        );
        assert_eq!(
            x_sync.as_slice(),
            x_pipe.as_slice(),
            "{regime} D={devices}: pipelined sweep must be bit-identical"
        );

        let f64_bytes = plan_ulv_solve(
            &ulv,
            rhs,
            devices,
            PipelineMode::Synchronous,
            Precision::F64,
        )
        .total_comm_bytes();
        let measured = report.total_comm_bytes();
        sweep_rows.push(SweepRow {
            regime,
            prec,
            devices,
            makespan_weak: report.modeled_makespan(&weak),
            makespan_a100: report.modeled_makespan(&a100),
            sim_makespan_weak: cmp.predicted_makespan,
            pipe_makespan_weak: pipe_report.modeled_makespan(&weak),
            pipe_makespan_a100: pipe_report.modeled_makespan(&a100),
            pipe_sim_makespan_weak: pipe_cmp.predicted_makespan,
            comm_bytes: measured,
            wire_ratio: if f64_bytes > 0 {
                measured as f64 / f64_bytes as f64
            } else {
                1.0
            },
            bytes_equal: cmp.bytes_match() && pipe_cmp.bytes_match(),
        });
    }
}

fn main() {
    let args = h2_bench::Args::parse();
    let smoke = args.flag("smoke");
    let n: usize = args.get("n", if smoke { 1024 } else { 4096 });
    let n_unsym: usize = args.get("n-unsym", if smoke { 768 } else { 2048 });
    let leaf: usize = args.get("leaf", 32);
    // Wide right-hand-side blocks push the sweep toward the compute-bound
    // regime where sharding pays; narrow blocks stay latency-bound (the
    // §IV.B "don't multi-GPU small problems" tradeoff shows in the curve).
    let rhs: usize = args.get("rhs", if smoke { 8 } else { 64 });
    let out_path: String = args.get("out", "BENCH_solve.json".to_string());
    let prec_arg: String = args.get("precision", "f64".to_string());
    let precisions: Vec<Precision> = match prec_arg.as_str() {
        "both" => vec![Precision::F64, Precision::F32],
        s => vec![Precision::parse(s)
            .unwrap_or_else(|| panic!("--precision must be f64, f32, or both (got {s})"))],
    };

    println!(
        "# Solver stack: ULV (batched per-level elimination) + fabric-sharded sweeps\n\
         # (multi-device numbers are modeled makespan under the weak-compute /\n\
         # A100-class device models — this container is single-core, so wall\n\
         # clock is only reported for the schedule comparison on one machine)\n"
    );

    let sink = TraceSink::from_args(&args);
    let mut factor_rows = Vec::new();
    let mut krylov_rows = Vec::new();
    let mut sweep_rows = Vec::new();
    for &prec in &precisions {
        run_regime(
            "sym",
            prec,
            n,
            leaf,
            rhs,
            &sink,
            &mut factor_rows,
            &mut krylov_rows,
            &mut sweep_rows,
        );
        run_regime(
            "unsym",
            prec,
            n_unsym,
            leaf,
            rhs,
            &sink,
            &mut factor_rows,
            &mut krylov_rows,
            &mut sweep_rows,
        );
    }

    println!("## ULV factor + solve\n");
    h2_bench::header(&[
        "regime",
        "prec",
        "N",
        "batched factor (ms)",
        "per-node factor (ms)",
        "solve (ms)",
        "residual",
        "root",
        "schedule gap",
    ]);
    for r in &factor_rows {
        h2_bench::row(&[
            r.regime.to_string(),
            r.prec.name().to_string(),
            r.n.to_string(),
            format!("{:.1}", r.batched_ms),
            format!("{:.1}", r.per_node_ms),
            format!("{:.1}", r.solve_ms),
            format!("{:.2e}", r.residual),
            r.root_size.to_string(),
            format!("{:.1e}", r.schedule_gap),
        ]);
    }

    println!("\n## Preconditioned Krylov (ULV sweep as M⁻¹)\n");
    h2_bench::header(&[
        "regime",
        "prec",
        "method",
        "plain iters",
        "ULV-precond iters",
        "residual",
    ]);
    for r in &krylov_rows {
        h2_bench::row(&[
            r.regime.to_string(),
            r.prec.name().to_string(),
            r.method.to_string(),
            r.plain_iters.to_string(),
            r.precond_iters.to_string(),
            format!("{:.2e}", r.precond_residual),
        ]);
    }

    println!("\n## Fabric-sharded solve sweep (modeled makespan, bytes == plan)\n");
    h2_bench::header(&[
        "regime",
        "prec",
        "D",
        "sync weak (ms)",
        "pipe weak (ms)",
        "sim weak (ms)",
        "pipe sim (ms)",
        "comm (KiB)",
        "wire ratio",
        "bytes ==",
    ]);
    for r in &sweep_rows {
        h2_bench::row(&[
            r.regime.to_string(),
            r.prec.name().to_string(),
            r.devices.to_string(),
            format!("{:.3}", r.makespan_weak * 1e3),
            format!("{:.3}", r.pipe_makespan_weak * 1e3),
            format!("{:.3}", r.sim_makespan_weak * 1e3),
            format!("{:.3}", r.pipe_sim_makespan_weak * 1e3),
            format!("{:.1}", r.comm_bytes as f64 / 1024.0),
            format!("{:.3}", r.wire_ratio),
            r.bytes_equal.to_string(),
        ]);
    }

    // Mixed-precision headline: every f32 sweep row must ship at most ~half
    // the bytes its *own* factorization would ship at the f64 wire width
    // (all sweep wire formulas are linear in the element width, so the true
    // ratio is exactly 0.5 wherever there is any cross-device traffic).
    let f32_ratio_worst = sweep_rows
        .iter()
        .filter(|r| r.prec == Precision::F32 && r.comm_bytes > 0)
        .map(|r| r.wire_ratio)
        .fold(0.0f64, f64::max);
    if f32_ratio_worst > 0.0 {
        assert!(
            f32_ratio_worst <= 0.55,
            "f32 wire must cut sweep bytes to ~half (worst ratio {f32_ratio_worst:.3})"
        );
        println!(
            "\nMixed precision: worst f32 sweep wire ratio vs the f64-width model \
             is {f32_ratio_worst:.3}."
        );
    }

    let (a100, weak) = models();
    let mut rep = BenchReport::new("solvers_fabric");
    rep.precisions(&precisions)
        .device_model("weak_compute_0.5TFs", &weak)
        .device_model("a100_10TFs", &a100);
    rep.section(
        "config",
        Json::obj(vec![
            ("n", Json::u64(n as u64)),
            ("n_unsym", Json::u64(n_unsym as u64)),
            ("leaf", Json::u64(leaf as u64)),
            ("rhs", Json::u64(rhs as u64)),
            ("smoke", Json::Bool(smoke)),
        ]),
    );
    if f32_ratio_worst > 0.0 {
        rep.section("f32_sweep_wire_ratio_worst", Json::Num(f32_ratio_worst));
    }
    rep.section(
        "factor",
        Json::Arr(
            factor_rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("regime", Json::str(r.regime)),
                        ("precision", Json::str(r.prec.name())),
                        ("n", Json::u64(r.n as u64)),
                        ("batched_factor_ms", Json::Num(r.batched_ms)),
                        ("per_node_factor_ms", Json::Num(r.per_node_ms)),
                        ("solve_ms", Json::Num(r.solve_ms)),
                        ("residual", Json::Num(r.residual)),
                        ("root_size", Json::u64(r.root_size as u64)),
                        ("schedule_gap", Json::Num(r.schedule_gap)),
                    ])
                })
                .collect(),
        ),
    );
    rep.section(
        "krylov",
        Json::Arr(
            krylov_rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("regime", Json::str(r.regime)),
                        ("precision", Json::str(r.prec.name())),
                        ("method", Json::str(r.method)),
                        ("plain_iters", Json::u64(r.plain_iters as u64)),
                        ("precond_iters", Json::u64(r.precond_iters as u64)),
                        ("precond_residual", Json::Num(r.precond_residual)),
                    ])
                })
                .collect(),
        ),
    );
    rep.section(
        "sharded_sweep",
        Json::Arr(
            sweep_rows
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("regime", Json::str(r.regime)),
                        ("precision", Json::str(r.prec.name())),
                        ("devices", Json::u64(r.devices as u64)),
                        ("makespan_weak", Json::Num(r.makespan_weak)),
                        ("makespan_a100", Json::Num(r.makespan_a100)),
                        ("sim_makespan_weak", Json::Num(r.sim_makespan_weak)),
                        ("pipe_makespan_weak", Json::Num(r.pipe_makespan_weak)),
                        ("pipe_makespan_a100", Json::Num(r.pipe_makespan_a100)),
                        (
                            "pipe_sim_makespan_weak",
                            Json::Num(r.pipe_sim_makespan_weak),
                        ),
                        ("comm_bytes", Json::u64(r.comm_bytes)),
                        ("wire_ratio", Json::Num(r.wire_ratio)),
                        ("bytes_equal", Json::Bool(r.bytes_equal)),
                    ])
                })
                .collect(),
        ),
    );
    rep.write(&out_path);
    sink.finish();
}

//! Operator-service benchmark: multi-RHS amortization curves for the
//! fabric-sharded blocked ULV sweep, plus an end-to-end `h2_serve`
//! workload (cache + admission queue) — emitting `BENCH_serve.json`.
//!
//! Reported:
//!
//! * **amortization** — the blocked sweep at k ∈ {1, 2, 4, 8, 16, 32}
//!   RHS columns for D ∈ {1, 4} devices, synchronous and pipelined, under
//!   the A100-class and weak-compute device models. Every row asserts the
//!   trust invariant (measured fabric bytes exactly equal those of the
//!   [`h2_sched::plan_ulv_solve`] schedule executed at that k, whose
//!   `Schedule::makespan` is the `sim_makespan_*` column) and the
//!   blocked correctness claim (the k-column result is **bit-identical**
//!   to k sequential single-RHS sharded solves). The payoff column is the
//!   amortized per-RHS modeled makespan: the k = 1 sweep is dominated by
//!   per-level launch overhead and link latency that do not scale with k,
//!   so per-RHS cost collapses as k grows (see the `h2_serve` module docs
//!   for the `k / (f + k·(1 − f))` model).
//! * **headline** — `amortized_speedup_at_k32_d4`: serial cost of 32
//!   single-RHS solves over one 32-wide blocked solve on the D = 4
//!   A100-model synchronous row, asserted ≥ 4× in the binary (the same
//!   floor `bench_check --serve` re-checks from the outside).
//! * **serve_sim** — an [`h2_serve::ServeSim`] workload through the
//!   operator cache and admission queue: two operator keys, bursts that
//!   coalesce, a repeat that hits, and a byte budget sized to force
//!   eviction churn. Throughput and p50/p99 latency are **modeled
//!   makespan** under the A100 model — never wall clock, per the
//!   ROADMAP's single-core container rule.
//!
//! Usage: `serve [--n 2048] [--n-serve 512] [--leaf 32]
//! [--out BENCH_serve.json] [--trace serve_trace.json] [--smoke]`
//!
//! `--trace` runs one dedicated pipelined D = 4, k = 32 blocked solve
//! with a tracer attached, writes the Chrome trace, and drops a
//! `<path>.expect` sidecar with the run's exact cross-device byte total
//! for `trace_check`.

use h2_bench::BenchReport;
use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{gaussian_mat, Mat};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::H2Matrix;
use h2_obs::Json;
use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime};
use h2_sched::{
    export_chrome_trace_with_spans, plan_ulv_solve, shard_ulv_solve_with_report, DeviceFabric,
};
use h2_serve::{AdmissionPolicy, CachedOperator, OpKey, Request, ServeConfig, ServeSim};
use h2_solve::UlvFactor;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn line_points(n: usize, offset: f64) -> Vec<[f64; 3]> {
    (0..n)
        .map(|i| [offset + i as f64 / n as f64, 0.0, 0.0])
        .collect()
}

fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += sigma;
            }
        }
    }
}

/// The two device models shared across the fabric benches: A100-class
/// (latency-dominated sweeps — where blocking pays most) and weak-compute.
fn models() -> (DeviceModel, DeviceModel) {
    let a100 = DeviceModel::default();
    let weak = DeviceModel {
        flops_per_sec: 5.0e11,
        ..DeviceModel::default()
    };
    (a100, weak)
}

/// Build the cached operator pair for an `n`-point line at `offset` — the
/// miss path a deployment's backend constructor would run.
fn build_op(n: usize, leaf: usize, offset: f64) -> CachedOperator {
    let pts = line_points(n, offset);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
    shift_diag(&mut h2, 3.0);
    let ulv = UlvFactor::new(&h2).expect("ULV factorization");
    CachedOperator {
        h2: Arc::new(h2),
        ulv: Arc::new(ulv),
    }
}

struct AmortRow {
    devices: usize,
    k: usize,
    makespan_a100: f64,
    makespan_weak: f64,
    pipe_makespan_a100: f64,
    pipe_makespan_weak: f64,
    sim_makespan_a100: f64,
    pipe_sim_makespan_a100: f64,
    per_rhs_a100: f64,
    comm_bytes: u64,
    bytes_equal: bool,
}

/// Dedicated traced run: one pipelined D = 4, k = 32 blocked solve with a
/// live tracer, reconciled against its plan, exported as a Chrome
/// trace plus the `.expect` byte sidecar for `trace_check`.
fn write_trace(path: &str, ulv: &UlvFactor, n: usize) {
    let fabric = DeviceFabric::pipelined(4);
    let tracer = h2_obs::Tracer::new(1 << 20);
    fabric.set_tracer(Some(tracer.clone()));
    let b = gaussian_mat(n, 32, 0x7ACE);
    let (_, report) = shard_ulv_solve_with_report(&fabric, ulv, &b);
    fabric.set_tracer(None);
    let plan = plan_ulv_solve(ulv, 32, 4, report.mode, report.wire);
    if let Err(e) = report.check(&plan, None) {
        panic!("traced blocked solve must be its plan: {e}");
    }
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
        events.len(),
        report.total_comm_bytes()
    );
}

fn main() {
    let args = h2_bench::Args::parse();
    let smoke = args.flag("smoke");
    let n: usize = args.get("n", if smoke { 1024 } else { 2048 });
    let n_serve: usize = args.get("n-serve", if smoke { 256 } else { 512 });
    let leaf: usize = args.get("leaf", 32);
    let out_path: String = args.get("out", "BENCH_serve.json".to_string());
    let (a100, weak) = models();

    println!("# serve bench: n={n} n_serve={n_serve} leaf={leaf} smoke={smoke}\n");

    // ---- amortization: blocked sweep vs k sequential single-RHS solves ----
    let op = build_op(n, leaf, 0.0);
    let ulv = op.ulv.clone();
    let nn = ulv.n();
    let mut rows: Vec<AmortRow> = Vec::new();
    for devices in [1usize, 4] {
        for k in [1usize, 2, 4, 8, 16, 32] {
            let b = gaussian_mat(nn, k, 0xB10C ^ ((devices as u64) << 8) ^ k as u64);
            let fabric = DeviceFabric::new(devices);
            let (x_sync, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
            let pipe_fabric = DeviceFabric::pipelined(devices);
            let (x_pipe, pipe_report) = shard_ulv_solve_with_report(&pipe_fabric, &ulv, &b);
            let [plan, pipe_plan] =
                [&report, &pipe_report].map(|r| plan_ulv_solve(&ulv, k, devices, r.mode, r.wire));
            let exact = report
                .check(&plan, None)
                .and(pipe_report.check(&pipe_plan, None));
            if let Err(e) = &exact {
                panic!("D={devices} k={k}: blocked sweeps must be their plans: {e}");
            }
            assert_eq!(
                x_sync.as_slice(),
                x_pipe.as_slice(),
                "D={devices} k={k}: pipelined blocked sweep must be bit-identical"
            );

            // The blocked result must be bit-identical to k sequential
            // single-RHS sharded solves — the claim that lets a service
            // coalesce requests without changing any client's answer.
            for j in 0..k {
                let col: Mat = b.col_block(j, 1).to_mat();
                let single_fabric = DeviceFabric::new(devices);
                let (xj, _) = shard_ulv_solve_with_report(&single_fabric, &ulv, &col);
                assert_eq!(
                    xj.as_slice(),
                    x_sync.col_block(j, 1).to_mat().as_slice(),
                    "D={devices} k={k}: column {j} drifted from its single-RHS solve"
                );
            }

            rows.push(AmortRow {
                devices,
                k,
                makespan_a100: report.modeled_makespan(&a100),
                makespan_weak: report.modeled_makespan(&weak),
                pipe_makespan_a100: pipe_report.modeled_makespan(&a100),
                pipe_makespan_weak: pipe_report.modeled_makespan(&weak),
                sim_makespan_a100: plan.makespan(&a100),
                pipe_sim_makespan_a100: pipe_plan.makespan(&a100),
                per_rhs_a100: report.modeled_makespan(&a100) / k as f64,
                comm_bytes: report.total_comm_bytes(),
                bytes_equal: exact.is_ok(),
            });
        }
    }

    println!("## blocked-sweep amortization (modeled makespan, µs)\n");
    h2_bench::header(&[
        "D",
        "k",
        "sync a100",
        "pipe a100",
        "sim a100",
        "per-RHS a100",
        "sync weak",
        "comm KiB",
        "bytes==sim",
    ]);
    for r in &rows {
        h2_bench::row(&[
            r.devices.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.makespan_a100 * 1e6),
            format!("{:.2}", r.pipe_makespan_a100 * 1e6),
            format!("{:.2}", r.sim_makespan_a100 * 1e6),
            format!("{:.2}", r.per_rhs_a100 * 1e6),
            format!("{:.2}", r.makespan_weak * 1e6),
            format!("{:.1}", r.comm_bytes as f64 / 1024.0),
            r.bytes_equal.to_string(),
        ]);
    }

    // ---- headline: serial 32×(k=1) vs one blocked k=32, D=4, A100 ----
    let find = |d: usize, k: usize| {
        rows.iter()
            .find(|r| r.devices == d && r.k == k)
            .expect("row present")
    };
    let headline = find(4, 1).makespan_a100 * 32.0 / find(4, 32).makespan_a100;
    assert!(
        headline >= 4.0,
        "amortized speedup at k=32 D=4 is {headline:.2}x, below the 4x acceptance floor"
    );
    println!(
        "\nHeadline: one 32-wide blocked solve beats 32 serial single-RHS \
         solves by {headline:.1}x in modeled makespan (D=4, A100 model)."
    );

    // ---- serve_sim: cache + admission queue end to end ----
    // Two operator keys; a burst that coalesces, a repeat that hits, and a
    // byte budget holding one operator so the key alternation churns.
    let serve_ops = [build_op(n_serve, leaf, 0.0), build_op(n_serve, leaf, 10.0)];
    let keys = [
        OpKey::from_hash("exp1d", 0, 1e-9),
        OpKey::from_hash("exp1d", 1, 1e-9),
    ];
    let budget = serve_ops
        .iter()
        .map(|o| o.memory_bytes())
        .max()
        .expect("two ops")
        * 3
        / 2;
    let sn = serve_ops[0].ulv.n();
    let cfg = ServeConfig {
        devices: 4,
        mode: PipelineMode::Pipelined,
        model: a100,
        policy: AdmissionPolicy {
            max_batch: 8,
            max_wait: 1e-3,
        },
        cache_budget_bytes: budget,
    };
    let ops_for_build = serve_ops.clone();
    let mut sim = ServeSim::new(cfg, move |k: &OpKey| {
        ops_for_build[k.geometry as usize].clone()
    });
    let mut requests = Vec::new();
    let mut id = 0u64;
    let mut push = |reqs: &mut Vec<Request>, which: usize, arrival: f64, width: usize| {
        reqs.push(Request {
            id,
            key: keys[which].clone(),
            arrival,
            rhs: gaussian_mat(sn, width, 0x5E17 + id),
        });
        id += 1;
    };
    // Burst on key 0 (fills max_batch = 8 → coalesces, one miss)...
    for w in [2usize, 2, 2, 2] {
        push(&mut requests, 0, 0.0, w);
    }
    // ...a later repeat on key 0 (hit)...
    for w in [1usize, 1, 1, 1] {
        push(&mut requests, 0, 1.0, w);
    }
    // ...then alternate keys under a one-operator budget (miss + evict).
    push(&mut requests, 1, 2.0, 4);
    push(&mut requests, 0, 3.0, 4);
    let (responses, serve) = sim.run(requests);
    assert_eq!(serve.completed, 10);
    assert!(serve.bytes_equal, "serve batches must match their plans");
    assert!(
        serve.batches < serve.completed,
        "burst requests must coalesce ({} batches for {} requests)",
        serve.batches,
        serve.completed
    );
    assert!(serve.cache_hits >= 1, "repeat key must hit the cache");
    assert!(
        serve.cache_evictions >= 1,
        "one-operator budget must evict under key alternation"
    );
    assert_eq!(responses.len(), 10);

    println!("\n## serve_sim (two keys, coalescing + cache churn)\n");
    h2_bench::header(&[
        "requests",
        "batches",
        "mean width",
        "thr RHS/s",
        "p50 ms",
        "p99 ms",
        "hits",
        "misses",
        "evict",
        "bytes==sim",
    ]);
    h2_bench::row(&[
        serve.completed.to_string(),
        serve.batches.to_string(),
        format!("{:.2}", serve.mean_batch_width),
        format!("{:.1}", serve.throughput_rhs_per_sec),
        format!("{:.3}", serve.p50_latency * 1e3),
        format!("{:.3}", serve.p99_latency * 1e3),
        serve.cache_hits.to_string(),
        serve.cache_misses.to_string(),
        serve.cache_evictions.to_string(),
        serve.bytes_equal.to_string(),
    ]);

    // ---- envelope ----
    let mut rep = BenchReport::new("serve");
    rep.precisions(&[Precision::F64])
        .device_model("weak_compute_0.5TFs", &weak)
        .device_model("a100_10TFs", &a100);
    rep.section(
        "config",
        Json::obj(vec![
            ("n", Json::u64(n as u64)),
            ("n_serve", Json::u64(n_serve as u64)),
            ("leaf", Json::u64(leaf as u64)),
            ("smoke", Json::Bool(smoke)),
        ]),
    );
    rep.section(
        "amortization",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj(vec![
                        ("devices", Json::u64(r.devices as u64)),
                        ("k", Json::u64(r.k as u64)),
                        ("makespan_a100", Json::Num(r.makespan_a100)),
                        ("makespan_weak", Json::Num(r.makespan_weak)),
                        ("pipe_makespan_a100", Json::Num(r.pipe_makespan_a100)),
                        ("pipe_makespan_weak", Json::Num(r.pipe_makespan_weak)),
                        ("sim_makespan_a100", Json::Num(r.sim_makespan_a100)),
                        (
                            "pipe_sim_makespan_a100",
                            Json::Num(r.pipe_sim_makespan_a100),
                        ),
                        ("per_rhs_a100", Json::Num(r.per_rhs_a100)),
                        ("comm_bytes", Json::u64(r.comm_bytes)),
                        ("bytes_equal", Json::Bool(r.bytes_equal)),
                    ])
                })
                .collect(),
        ),
    );
    rep.section("amortized_speedup_at_k32_d4", Json::Num(headline));
    rep.section(
        "serve_sim",
        Json::obj(vec![
            ("completed", Json::u64(serve.completed as u64)),
            ("total_rhs", Json::u64(serve.total_rhs as u64)),
            ("batches", Json::u64(serve.batches as u64)),
            ("mean_batch_width", Json::Num(serve.mean_batch_width)),
            ("makespan", Json::Num(serve.makespan)),
            (
                "throughput_rhs_per_sec",
                Json::Num(serve.throughput_rhs_per_sec),
            ),
            ("p50_latency", Json::Num(serve.p50_latency)),
            ("p99_latency", Json::Num(serve.p99_latency)),
            ("cache_hits", Json::u64(serve.cache_hits as u64)),
            ("cache_misses", Json::u64(serve.cache_misses as u64)),
            ("cache_evictions", Json::u64(serve.cache_evictions as u64)),
            ("solve_bytes", Json::u64(serve.solve_bytes)),
            ("predicted_bytes", Json::u64(serve.predicted_bytes)),
            ("bytes_equal", Json::Bool(serve.bytes_equal)),
            ("factor_seconds", Json::Num(serve.factor_seconds)),
        ]),
    );
    rep.write(&out_path);

    if let Some(path) = args.get_opt("trace") {
        write_trace(&path, &ulv, nn);
    }
}

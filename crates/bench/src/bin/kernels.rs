//! Kernel-level performance baseline: the numbers every later perf PR is
//! judged against.
//!
//! Measures, and emits as `BENCH_kernels.json`:
//!
//! * single-matrix GEMM GFLOP/s for square sizes 32–1024 across all four
//!   transpose combinations, for both the packed blocked kernel (the
//!   `gemm` dispatch path) and the retained naive axpy/dot reference
//!   (`gemm_naive`) — the packed/naive ratio is the headline speedup and
//!   the small sizes document the crossover behavior;
//! * (printed only) blocked Householder QR and the wide block-reflector
//!   `Qᵀ` application at the two largest `hss2d` ULV node shapes, so the
//!   gap between the factorization kernels and the GEMM rows above them is
//!   visible;
//! * the batched sketch-apply (`gemm_at_x` over a skewed `VarBatch`, the
//!   upsweep workload `Ω^{l+1} = Uᵀ Ω^l`) on the parallel runtime;
//! * a full sketching construction plus matvecs wall clock (covariance
//!   kernel, the Fig. 5 configuration scaled down).
//!
//! Usage: `kernels [--sizes 32,64,...] [--n 4096] [--matvecs 32]
//! [--out BENCH_kernels.json] [--trace trace.json] [--smoke]`
//!
//! `--smoke` shrinks sizes and repetitions for CI. `--trace` writes a
//! Chrome-trace JSON of the construction's phase spans.

use h2_bench::{build_problem, reference_h2, App, Args, BenchReport, TraceSink};
use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{gaussian_mat, gemm, gemm_naive, par_gemm, qr_factor, qr_in_place, LinOp, Mat, Op};
use h2_obs::Json;
use h2_runtime::{gemm_at_x, Runtime, VarBatch};
use std::time::Instant;

/// Time `f` with enough repetitions to pass `min_secs` of wall clock,
/// returning seconds per repetition.
fn time_per_rep(min_secs: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up run (page in buffers, settle the feature dispatch).
    f();
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_secs {
            return dt / reps as f64;
        }
        let grow = (min_secs / dt.max(1e-9) * 1.25).ceil() as usize;
        reps = (reps * grow.max(2)).min(1 << 20);
    }
}

fn op_name(t: Op) -> &'static str {
    match t {
        Op::NoTrans => "N",
        Op::Trans => "T",
    }
}

struct GemmPoint {
    n: usize,
    ta: Op,
    tb: Op,
    naive_gflops: f64,
    packed_gflops: f64,
}

fn bench_gemm(sizes: &[usize], min_secs: f64) -> Vec<GemmPoint> {
    let mut out = Vec::new();
    for &n in sizes {
        for ta in [Op::NoTrans, Op::Trans] {
            for tb in [Op::NoTrans, Op::Trans] {
                let a = gaussian_mat(n, n, 1);
                let b = gaussian_mat(n, n, 2);
                let mut c = Mat::zeros(n, n);
                let flops = 2.0 * (n as f64).powi(3);
                let t_naive = time_per_rep(min_secs, || {
                    gemm_naive(ta, tb, 1.0, a.rf(), b.rf(), 0.0, c.rm());
                });
                let t_packed = time_per_rep(min_secs, || {
                    gemm(ta, tb, 1.0, a.rf(), b.rf(), 0.0, c.rm());
                });
                out.push(GemmPoint {
                    n,
                    ta,
                    tb,
                    naive_gflops: flops / t_naive / 1e9,
                    packed_gflops: flops / t_packed / 1e9,
                });
            }
        }
    }
    out
}

struct ParGemmPoint {
    n: usize,
    serial_gflops: f64,
    par_gflops: f64,
}

/// Threaded single-product GEMM: the shared-B row-band `par_gemm` against
/// the serial packed kernel at the same square sizes (NN orientation — the
/// other combos are normalized away by packing).
fn bench_par_gemm(sizes: &[usize], min_secs: f64) -> Vec<ParGemmPoint> {
    let mut out = Vec::new();
    for &n in sizes {
        let a = gaussian_mat(n, n, 5);
        let b = gaussian_mat(n, n, 6);
        let mut c = Mat::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        let t_serial = time_per_rep(min_secs, || {
            gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c.rm());
        });
        let t_par = time_per_rep(min_secs, || {
            par_gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c.rm());
        });
        out.push(ParGemmPoint {
            n,
            serial_gflops: flops / t_serial / 1e9,
            par_gflops: flops / t_par / 1e9,
        });
    }
    out
}

/// Blocked QR of an `m × k` reduced basis and `Qᵀ` applied to the `m × m`
/// diagonal block beside it (the ULV rotation), in GF/s of the exact
/// Householder flop counts `2k²(m − k/3)` and `4mk(m − k/2)`.
fn bench_householder(m: usize, k: usize, min_secs: f64) -> (f64, f64) {
    let (mf, kf) = (m as f64, k as f64);
    let a = gaussian_mat(m, k, 11);
    let mut w = a.clone();
    let t_qr = time_per_rep(min_secs, || {
        w.rm().copy_from(a.rf());
        std::hint::black_box(qr_in_place(&mut w.rm()));
    });
    let f = qr_factor(a);
    // Qᵀ is orthogonal, so repeated application keeps the block bounded.
    let mut c = gaussian_mat(m, m, 12);
    let t_apply = time_per_rep(min_secs, || f.apply_qt_block(&mut c.rm()));
    (
        2.0 * kf * kf * (mf - kf / 3.0) / t_qr / 1e9,
        4.0 * mf * kf * (mf - kf / 2.0) / t_apply / 1e9,
    )
}

/// The batched upsweep shape: many variable-size entries, sizes skewed the
/// way a construction level is (a few big blocks, a long tail of small
/// ones).
fn bench_batched_apply(rt: &Runtime, entries: usize, d: usize, min_secs: f64) -> (f64, f64) {
    let rows: Vec<usize> = (0..entries)
        .map(|i| {
            // Deterministic skew: sizes cycle 16..=256 with a heavy head.
            let base = 16 + (i * 37) % 113;
            if i % 29 == 0 {
                base + 160
            } else {
                base
            }
        })
        .collect();
    let bases: Vec<Mat> = rows
        .iter()
        .enumerate()
        .map(|(i, &m)| gaussian_mat(m, (m / 2).max(8), 100 + i as u64))
        .collect();
    let mut x = VarBatch::zeros_uniform_cols(rows.clone(), d);
    x.for_each_mut(|i, mut m| {
        let g = gaussian_mat(m.rows(), d, 500 + i as u64);
        m.copy_from(g.rf());
    });
    let flops: f64 = bases
        .iter()
        .map(|u| 2.0 * u.rows() as f64 * u.cols() as f64 * d as f64)
        .sum();
    let base_refs: Vec<&Mat> = bases.iter().collect();
    let secs = time_per_rep(min_secs, || {
        let out = gemm_at_x(rt, &base_refs, &x);
        std::hint::black_box(out.total_len());
    });
    (flops / secs / 1e9, secs)
}

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let default_sizes: &[usize] = if smoke {
        &[32, 64, 128, 256]
    } else {
        &[32, 48, 64, 96, 128, 256, 512, 1024]
    };
    let sizes = args.sizes("sizes", default_sizes);
    let min_secs: f64 = args.get("min-secs", if smoke { 0.02 } else { 0.25 });
    let n_construct: usize = args.get("n", if smoke { 1500 } else { 4096 });
    let matvecs: usize = args.get("matvecs", 32);
    let out_path: String = args.get("out", "BENCH_kernels.json".to_string());
    let sink = TraceSink::from_args(&args);

    println!("# Kernel baseline (sizes {sizes:?}, min_secs {min_secs})\n");

    // --- single-matrix GEMM ---
    let gemm_points = bench_gemm(&sizes, min_secs);
    h2_bench::header(&["n", "ta", "tb", "naive GF/s", "packed GF/s", "speedup"]);
    for p in &gemm_points {
        h2_bench::row(&[
            p.n.to_string(),
            op_name(p.ta).to_string(),
            op_name(p.tb).to_string(),
            format!("{:.2}", p.naive_gflops),
            format!("{:.2}", p.packed_gflops),
            format!("{:.2}x", p.packed_gflops / p.naive_gflops),
        ]);
    }

    // --- threaded single-product GEMM (shared-B row bands) ---
    let par_points = bench_par_gemm(&sizes, min_secs);
    println!("\n## par_gemm (shared packed-B panels, {} threads)\n", {
        rayon::current_num_threads()
    });
    h2_bench::header(&["n", "serial GF/s", "par GF/s", "speedup"]);
    for p in &par_points {
        h2_bench::row(&[
            p.n.to_string(),
            format!("{:.2}", p.serial_gflops),
            format!("{:.2}", p.par_gflops),
            format!("{:.2}x", p.par_gflops / p.serial_gflops),
        ]);
    }

    // --- Householder kernels at the hss2d ULV shapes (report only) ---
    println!("\n## Householder QR and wide Qᵀ apply (ULV node shapes)\n");
    h2_bench::header(&["m", "k", "qr GF/s", "apply_qt GF/s"]);
    for (m, k) in [(516, 288), (380, 258)] {
        let (qr_gflops, apply_gflops) = bench_householder(m, k, min_secs);
        h2_bench::row(&[
            m.to_string(),
            k.to_string(),
            format!("{qr_gflops:.2}"),
            format!("{apply_gflops:.2}"),
        ]);
    }

    // --- batched sketch apply ---
    let (batch_entries, batch_d) = if smoke { (128, 32) } else { (512, 64) };
    let batch_rt = sink.runtime();
    let (batched_gflops, batched_secs) =
        bench_batched_apply(&batch_rt, batch_entries, batch_d, min_secs);
    println!(
        "\nbatched sketch apply ({batch_entries} skewed entries, d={batch_d}): \
         {batched_gflops:.2} GF/s ({batched_secs:.4} s/apply)"
    );

    // --- full construct + matvec wall clock ---
    // Smoke sizes need a deeper tree (smaller leaves) to have a far field
    // worth sketching at all.
    let leaf = if n_construct < 3000 { 16 } else { 64 };
    let problem = build_problem(App::Covariance, n_construct, leaf, 0.7, 0xBE);
    let reference = reference_h2(&problem, 1e-8);
    let rt = sink.runtime();
    let cfg = SketchConfig {
        initial_samples: 128,
        ..Default::default()
    };
    let t0 = Instant::now();
    let (h2, stats) = sketch_construct(
        &reference,
        &problem.kernel,
        problem.tree.clone(),
        problem.partition.clone(),
        &rt,
        &cfg,
    );
    let construct_secs = t0.elapsed().as_secs_f64();
    let x = gaussian_mat(n_construct, 1, 7);
    let t0 = Instant::now();
    for _ in 0..matvecs {
        std::hint::black_box(h2.apply_mat(&x));
    }
    let matvec_secs = t0.elapsed().as_secs_f64() / matvecs.max(1) as f64;
    println!(
        "construct (N={n_construct}, samples={}): {construct_secs:.3} s; \
         matvec: {matvec_secs:.5} s",
        stats.total_samples
    );

    // --- unified JSON emission ---
    let mut rep = BenchReport::new("kernels");
    rep.section(
        "config",
        Json::obj(vec![
            (
                "sizes",
                Json::Arr(sizes.iter().map(|&s| Json::u64(s as u64)).collect()),
            ),
            ("min_secs", Json::Num(min_secs)),
            ("smoke", Json::Bool(smoke)),
        ]),
    );
    rep.section(
        "gemm",
        Json::Arr(
            gemm_points
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("n", Json::u64(p.n as u64)),
                        ("ta", Json::str(op_name(p.ta))),
                        ("tb", Json::str(op_name(p.tb))),
                        ("naive_gflops", Json::Num(p.naive_gflops)),
                        ("packed_gflops", Json::Num(p.packed_gflops)),
                        ("speedup", Json::Num(p.packed_gflops / p.naive_gflops)),
                    ])
                })
                .collect(),
        ),
    );
    rep.section(
        "par_gemm",
        Json::Arr(
            par_points
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("n", Json::u64(p.n as u64)),
                        ("serial_gflops", Json::Num(p.serial_gflops)),
                        ("par_gflops", Json::Num(p.par_gflops)),
                        ("speedup", Json::Num(p.par_gflops / p.serial_gflops)),
                    ])
                })
                .collect(),
        ),
    );
    rep.section(
        "batched_apply",
        Json::obj(vec![
            ("entries", Json::u64(batch_entries as u64)),
            ("d", Json::u64(batch_d as u64)),
            ("gflops", Json::Num(batched_gflops)),
            ("secs_per_apply", Json::Num(batched_secs)),
        ]),
    );
    rep.section(
        "construct_matvec",
        Json::obj(vec![
            ("n", Json::u64(n_construct as u64)),
            ("samples", Json::u64(stats.total_samples as u64)),
            ("construct_secs", Json::Num(construct_secs)),
            ("matvec_secs", Json::Num(matvec_secs)),
        ]),
    );
    rep.write(&out_path);
    sink.finish();
}

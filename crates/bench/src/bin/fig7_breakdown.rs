//! Fig. 7: breakdown of construction time by phase, CPU vs GPU-sim, for
//! varying problem sizes of the 3-D covariance matrix.
//!
//! Phases match the paper's categories: sampling (`Kblk`), BSR product,
//! entry generation, convergence test (batched QR), ID, upsweep, random
//! generation, the `‖K‖₂` estimate (single-vector sampler products,
//! which the paper folds into its set-up), and miscellaneous (marshaling +
//! workspace allocation).
//! A second table reports the kernel structure underneath the phases —
//! launch counts per batched kernel plus the blocked-GEMM packing passes
//! (`gemmPack` launches / staged MiB) and `gemv` calls of the dense layer.
//! A final table runs the smallest size on the 4-device fabric in both
//! schedules and prints the per-device time attribution the pipelined
//! executor measures: busy, idle, exposed stall, and overlapped transfer
//! time.
//!
//! Usage: `--sizes 8192,16384,32768 [--leaf 64] [--tol 1e-6]
//!         [--trace trace.json]`

use h2_bench::{build_problem, header, reference_h2, row, App, Args, TraceSink};
use h2_core::{sketch_construct, SketchConfig};
use h2_runtime::{Backend, DeviceModel, PipelineMode, Runtime};
use h2_sched::{shard_construct, DeviceFabric, LinkModel};

fn main() {
    let args = Args::parse();
    let sizes = args.sizes("sizes", &[4096, 8192, 16384]);
    let leaf: usize = args.get("leaf", 64);
    let tol: f64 = args.get("tol", 1e-6);
    let sink = TraceSink::from_args(&args);

    println!("# Fig. 7: construction-time phase breakdown (covariance, leaf={leaf}, tol={tol})\n");

    for (backend, label) in [(Backend::Sequential, "CPU"), (Backend::Parallel, "GPU-sim")] {
        println!("## {label}\n");
        let mut kernel_rows: Vec<(usize, h2_core::SketchStats)> = Vec::new();
        header(&[
            "N",
            "sampling %",
            "bsr_gemm %",
            "entry_gen %",
            "conv_test %",
            "id %",
            "upsweep %",
            "rand %",
            "norm_est %",
            "demote %",
            "misc %",
            "total (s)",
        ]);
        for &n in &sizes {
            let problem = build_problem(App::Covariance, n, leaf, 0.7, 0xF7);
            let reference = reference_h2(&problem, tol * 1e-2);
            let rt = Runtime::new(backend.clone());
            let cfg = SketchConfig {
                tol,
                initial_samples: 128,
                ..Default::default()
            };
            let (_, stats) = sketch_construct(
                &reference,
                &problem.kernel,
                problem.tree.clone(),
                problem.partition.clone(),
                &rt,
                &cfg,
            );
            let total = stats.phase_total();
            let pct = |name: &str| {
                let s: f64 = stats
                    .phase_seconds
                    .iter()
                    .filter(|(p, _)| *p == name)
                    .map(|(_, s)| *s)
                    .sum();
                format!("{:.1}", 100.0 * s / total.max(1e-12))
            };
            row(&[
                n.to_string(),
                pct("sampling"),
                pct("bsr_gemm"),
                pct("entry_gen"),
                pct("convergence_test"),
                pct("id"),
                pct("upsweep"),
                pct("rand"),
                pct("norm_est"),
                pct("demote"),
                pct("misc"),
                format!("{total:.3}"),
            ]);
            kernel_rows.push((n, stats));
        }
        // The launch structure underneath the phases: the batched kernels
        // of §IV.B plus the dense layer's packing and gemv activity.
        println!("\n### Kernel structure ({label})\n");
        header(&[
            "N",
            "batchedGemm",
            "batchedBSRGemm",
            "gemmPack",
            "pack MiB",
            "gemv",
            "total launches",
        ]);
        for (n, stats) in &kernel_rows {
            let count = |name: &str| {
                stats
                    .launches
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, c)| *c)
                    .unwrap_or(0)
            };
            row(&[
                n.to_string(),
                count("batchedGemm").to_string(),
                count("batchedBSRGemm").to_string(),
                count("gemmPack").to_string(),
                format!("{:.1}", h2_bench::mib(stats.pack_bytes as usize)),
                count("gemv").to_string(),
                stats.total_launches().to_string(),
            ]);
        }
        println!();
    }
    // ---- fabric schedule breakdown: where the makespan went ----
    // The smallest size on 4 virtual devices, synchronous vs pipelined,
    // over a CPU-scale virtual link so transfer time is visible: busy is
    // kernel execution, stall is exposed communication, overlap is the
    // transfer time hidden behind compute, idle is the rest of the epoch
    // windows (join latency + driver-side marshaling).
    let n0 = sizes[0];
    println!("## Device fabric schedule breakdown (N={n0}, D=4)\n");
    header(&[
        "mode",
        "modeled makespan (ms)",
        "busy max/dev (ms)",
        "idle (ms)",
        "stall (ms)",
        "overlap (ms)",
    ]);
    let problem = build_problem(App::Covariance, n0, leaf, 0.7, 0xF7);
    let reference = reference_h2(&problem, tol * 1e-2);
    let cfg = SketchConfig {
        tol,
        initial_samples: 128,
        ..Default::default()
    };
    let model = DeviceModel::default();
    for (mode, label) in [
        (PipelineMode::Synchronous, "synchronous"),
        (PipelineMode::Pipelined, "pipelined"),
    ] {
        let fabric = DeviceFabric::with_config(4, mode, LinkModel::cpu_scale());
        sink.attach(&fabric);
        let (_, _, report) = shard_construct(
            &fabric,
            &reference,
            &problem.kernel,
            problem.tree.clone(),
            problem.partition.clone(),
            &cfg,
        );
        let busy_max = report
            .busy_per_device()
            .into_iter()
            .map(|b| b.as_secs_f64())
            .fold(0.0, f64::max);
        row(&[
            label.to_string(),
            format!("{:.3}", report.modeled_makespan(&model) * 1e3),
            format!("{:.1}", busy_max * 1e3),
            format!("{:.1}", report.idle_total().as_secs_f64() * 1e3),
            format!("{:.1}", report.stall_total().as_secs_f64() * 1e3),
            format!("{:.1}", report.overlapped_total().as_secs_f64() * 1e3),
        ]);
    }
    println!();
    println!("(Paper observation to compare: BSR product + sampling dominate on both backends;\n entry generation 10-20%; ID 5-10%; convergence test relatively larger on the batched backend at small N.)");
    sink.finish();
}

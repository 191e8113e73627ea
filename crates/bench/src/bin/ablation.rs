//! Ablation study over the design choices documented on the fields of
//! `h2_core::SketchConfig`:
//!
//! * the **safety factor** on the absolute truncation threshold (our
//!   calibration knob for "measured error lands at or below ε", §III.B),
//! * the **per-level tolerance schedule** (the paper's "simple error
//!   compensation scheme" and its tightened variants),
//! * **adaptive vs fixed** sampling at several initial sample counts,
//! * the **convergence-test scaling** `√d` (via sample-block size sweeps).
//!
//! Usage: `cargo run --release -p h2-bench --bin ablation -- [--n 8192]
//! [--trace trace.json]`

use h2_bench::{build_problem, header, mib, reference_h2, row, App, Args, TraceSink};
use h2_core::{sketch_construct, SketchConfig, TolSchedule};
use h2_dense::relative_error_2;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 8192);
    let tol: f64 = args.get("tol", 1e-6);
    let sink = TraceSink::from_args(&args);
    let problem = build_problem(App::Covariance, n, 64, 0.7, 0xAB1A);
    let reference = reference_h2(&problem, tol * 1e-2);

    let run = |cfg: &SketchConfig| {
        let rt = sink.runtime();
        let t = Instant::now();
        let (h2, stats) = sketch_construct(
            &reference,
            &problem.kernel,
            problem.tree.clone(),
            problem.partition.clone(),
            &rt,
            cfg,
        );
        let secs = t.elapsed().as_secs_f64();
        let err = relative_error_2(&reference, &h2, 12, 0xAB1B);
        (secs, h2, stats, err)
    };

    println!("# Ablation (covariance, N={n}, tol={tol})\n");

    println!("## safety factor on the truncation threshold\n");
    header(&[
        "safety",
        "time (s)",
        "rank range",
        "memory (MiB)",
        "samples",
        "rel error",
        "err/tol",
    ]);
    for safety in [1.0, 1.0 / 3.0, 1.0 / 10.0, 1.0 / 30.0, 1.0 / 100.0] {
        let cfg = SketchConfig {
            tol,
            initial_samples: 128,
            safety,
            ..Default::default()
        };
        let (secs, h2, stats, err) = run(&cfg);
        let (lo, hi) = h2.rank_range();
        row(&[
            format!("{safety:.4}"),
            format!("{secs:.3}"),
            format!("{lo}-{hi}"),
            format!("{:.1}", mib(h2.memory_bytes())),
            stats.total_samples.to_string(),
            format!("{err:.2e}"),
            format!("{:.2}", err / tol),
        ]);
    }

    println!("\n## per-level tolerance schedule\n");
    header(&[
        "schedule",
        "time (s)",
        "rank range",
        "memory (MiB)",
        "rel error",
    ]);
    for (name, schedule) in [
        ("constant", TolSchedule::Constant),
        ("x0.7/level", TolSchedule::PerLevel { factor: 0.7 }),
        ("x0.5/level", TolSchedule::PerLevel { factor: 0.5 }),
    ] {
        let cfg = SketchConfig {
            tol,
            initial_samples: 128,
            schedule,
            ..Default::default()
        };
        let (secs, h2, _, err) = run(&cfg);
        let (lo, hi) = h2.rank_range();
        row(&[
            name.to_string(),
            format!("{secs:.3}"),
            format!("{lo}-{hi}"),
            format!("{:.1}", mib(h2.memory_bytes())),
            format!("{err:.2e}"),
        ]);
    }

    println!("\n## adaptive vs fixed sampling\n");
    header(&[
        "mode",
        "d0",
        "block",
        "time (s)",
        "samples",
        "rounds",
        "rel error",
    ]);
    for (mode, d0, block, adaptive) in [
        ("fixed", 256usize, 32usize, false),
        ("fixed", 128, 32, false),
        ("fixed", 64, 32, false),
        ("adaptive", 32, 32, true),
        ("adaptive", 32, 16, true),
        ("adaptive", 16, 16, true),
    ] {
        let cfg = SketchConfig {
            tol,
            initial_samples: d0,
            sample_block: block,
            adaptive,
            ..Default::default()
        };
        let (secs, _, stats, err) = run(&cfg);
        row(&[
            mode.to_string(),
            d0.to_string(),
            block.to_string(),
            format!("{secs:.3}"),
            stats.total_samples.to_string(),
            stats.rounds.to_string(),
            format!("{err:.2e}"),
        ]);
    }
    println!("\n(Observations to compare with the paper: the adaptive runs converge to the\n sample count the spectrum demands; over-tight safety factors inflate ranks for\n little error benefit; per-level tightening trades memory for upsweep error.)");
    sink.finish();
}

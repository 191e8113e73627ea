//! Run every paper experiment at reduced (container-friendly) sizes and
//! record the outputs under `results/`.
//!
//! This is the one-command reproduction driver:
//!
//! ```sh
//! cargo run --release -p h2-bench --bin run_all
//! ```
//!
//! Pass `--full` to use the per-binary default sizes instead of the quick
//! ones (slower; closer to the recorded EXPERIMENTS.md numbers). Pass
//! `--trace` to forward a per-experiment `--trace <dir>/<name>.trace.json`
//! to every child, collecting one Chrome trace per experiment.

use std::process::Command;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let trace = std::env::args().any(|a| a == "--trace");
    // Quick runs land in results/quick/ so they never clobber the recorded
    // full-size outputs that EXPERIMENTS.md cites.
    let dir = if full { "results" } else { "results/quick" };
    std::fs::create_dir_all(dir).expect("create results dir");

    // (binary, quick args, output file)
    let experiments: &[(&str, &[&str], &str)] = &[
        ("fig4_partition", &["--n", "8192"], "fig4_partition.out"),
        (
            "fig5_construction",
            &["--app", "cov", "--sizes", "2048,4096"],
            "fig5_cov.out",
        ),
        (
            "fig5_construction",
            &["--app", "ie", "--sizes", "2048,4096"],
            "fig5_ie.out",
        ),
        (
            "fig5_construction",
            &["--app", "update", "--sizes", "2048,4096"],
            "fig5_update.out",
        ),
        (
            "fig6a_memory",
            &["--sizes", "2048,4096,8192"],
            "fig6a_memory.out",
        ),
        ("fig6b_frontal", &[], "fig6b_frontal.out"),
        (
            "fig7_breakdown",
            &["--sizes", "2048,4096"],
            "fig7_breakdown.out",
        ),
        ("table2_adaptive", &["--n", "4096"], "table2_adaptive.out"),
        (
            "ablation_multidevice",
            &["--n", "8192"],
            "ablation_multidevice.out",
        ),
    ];

    let mut failures = 0usize;
    for (bin, quick_args, out) in experiments {
        let mut args: Vec<String> = if full {
            Vec::new()
        } else {
            quick_args.iter().map(|s| s.to_string()).collect()
        };
        if trace {
            // Key traces by the output-file stem, not the binary name, so
            // repeated invocations (fig5 per app) don't clobber each other.
            let stem = out.trim_end_matches(".out");
            args.push("--trace".to_string());
            args.push(format!("{dir}/{stem}.trace.json"));
        }
        eprintln!("== {bin} {} -> {dir}/{out}", args.join(" "));
        let t0 = std::time::Instant::now();
        let result = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .args(&args)
            .output();
        match result {
            Ok(o) if o.status.success() => {
                std::fs::write(format!("{dir}/{out}"), &o.stdout).expect("write output");
                eprintln!("   ok ({:.1}s)", t0.elapsed().as_secs_f64());
            }
            Ok(o) => {
                eprintln!(
                    "   FAILED (status {:?}):\n{}",
                    o.status.code(),
                    String::from_utf8_lossy(&o.stderr)
                );
                failures += 1;
            }
            Err(e) => {
                eprintln!("   FAILED to launch: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
    eprintln!("all experiments recorded under results/");
}

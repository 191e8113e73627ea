//! End-to-end benchmark of the h2sketch workspace, timed from outside the
//! library. See the README beside `Cargo.toml` for the protocol, the
//! workloads and what each metric means.

mod adapter;
mod compare;
mod env;
mod run;
mod stats;
mod trace;
mod workload;

use adapter::Json;
use run::{Metric, Options, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

const USAGE: &str = "\
usage: h2_e2e_bench --workload <cov3d|update3d|hss2d> --seed <u64>
                    (--seconds <1..600> | --smoke) [--trace <0|1>]
                    [--trace-out <file>] [--digits-floor <digits>]
       h2_e2e_bench compare --a <run outputs...> --b <run outputs...>
                    [--bench-json <BENCHMARK.json>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut digits_floor = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let window = v.parse::<f64>().ok().filter(|s| (1.0..=600.0).contains(s));
                seconds =
                    Some(window.ok_or_else(|| format!("--seconds must be in 1..600, got {v}"))?);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--digits-floor" => {
                let v = value()?;
                let floor = v.parse::<f64>().ok().filter(|f| f.is_finite());
                digits_floor = Some(floor.ok_or_else(|| format!("bad digits floor {v}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&name)
        .ok_or_else(|| format!("unknown workload {name}; known: {}", WORKLOADS.join(", ")))?;
    let spec = if smoke { spec.smoke() } else { spec };
    // Beside the executable: inside the build directory, which is ignored.
    let default_trace_out = || {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_default();
        dir.join(format!("trace-{name}.json"))
    };
    Ok(Options {
        spec,
        seed: seed.ok_or("--seed is required")?,
        // The window has one home, `run_seconds` in BENCHMARK.json; a smoke
        // run has none.
        seconds: match seconds {
            Some(s) => s,
            None if smoke => 0.0,
            None => return Err("--seconds is required (or --smoke)".into()),
        },
        trace,
        trace_out: trace_out.unwrap_or_else(default_trace_out),
        smoke,
        digits_floor: digits_floor.unwrap_or_else(|| spec.digits_floor()),
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

/// Who ran what, where: enough to tell two outputs apart later.
fn envelope(opts: &Options, pinned: &env::Pinned, threads: usize, report: &Report) -> Json {
    let sections = report
        .sections
        .iter()
        .map(|s| {
            let summary = Json::obj(vec![
                ("calls_per_cycle", Json::u64(s.calls_per_cycle as u64)),
                ("calls_per_sample", Json::u64(s.calls_per_sample as u64)),
                (
                    "samples_s",
                    Json::Arr(s.samples_s.iter().map(|&t| Json::Num(t)).collect()),
                ),
            ]);
            (s.name.to_string(), summary)
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(opts.spec.name)),
        ("seed", Json::u64(opts.seed)),
        ("git_rev", Json::str(env::git_rev())),
        ("nproc", Json::u64(pinned.allowed as u64)),
        ("cpu_model", Json::str(env::cpu_model())),
        ("pinned_cpu", Json::u64(pinned.cpu as u64)),
        ("threads", Json::u64(threads as u64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("traced", Json::Bool(opts.trace)),
        ("constants", Json::str(format!("{:?}", opts.spec))),
        ("window_s", Json::Num(report.window_s)),
        ("cycles", Json::u64(report.cycles as u64)),
        ("sections", Json::Obj(sections)),
    ])
}

fn bench(opts: &Options) -> ExitCode {
    // Before anything can start a thread pool: pools size themselves from
    // the affinity mask they find.
    let pinned = match env::pin_to_one_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |t| t.get());
    if threads != 1 {
        eprintln!(
            "pinned to CPU {} but {threads} threads are available",
            pinned.cpu
        );
        return ExitCode::from(2);
    }

    let report = match run::run(opts) {
        Ok(r) => r,
        Err(e) => {
            println!("RUN FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# {} seed {} | CPU {} of {}, 1 thread | window {:.1} s, {} cycles | noise {:.3}, probe {:.1}-{:.1} GF/s{}",
        opts.spec.name,
        opts.seed,
        pinned.cpu,
        pinned.allowed,
        report.window_s,
        report.cycles,
        report.noise_ratio,
        report.probe_gflops.0,
        report.probe_gflops.1,
        if report.disturbed { " | DISTURBED" } else { "" },
    );
    for (kind, metrics) in [
        ("end_to_end", &report.end_to_end),
        ("per_layer", &report.per_layer),
    ] {
        for m in metrics {
            println!("{kind} {} = {} {}", m.name, m.value, m.unit);
        }
    }
    if let Some(table) = &report.self_time_table {
        print!("{table}");
        println!("# Chrome trace: {}", opts.trace_out.display());
    }

    // A traced run reports the per-layer set, any other the end-to-end set.
    let reported = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut failed = report.failures.len() as u64;
    if let Some(m) = reported.iter().find(|m| !m.value.is_finite()) {
        println!("CHECK FAILED: metric {} is not a finite number", m.name);
        failed += 1;
    }

    let summary = Json::obj(vec![
        ("envelope", envelope(opts, &pinned, threads, &report)),
        ("end_to_end", metrics_json(&report.end_to_end)),
        ("per_layer", metrics_json(&report.per_layer)),
        (
            "failures",
            Json::Arr(report.failures.iter().map(Json::str).collect()),
        ),
        ("noise_ratio", Json::Num(report.noise_ratio)),
        ("probe_gflops_min", Json::Num(report.probe_gflops.0)),
        ("probe_gflops_max", Json::Num(report.probe_gflops.1)),
        ("disturbed", Json::Bool(report.disturbed)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ]);
    println!("{}", summary.dump());

    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::u64(report.attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", metrics_json(reported)),
    ]);
    println!("{}", result.dump());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    match parse(&args) {
        Ok(opts) => bench(&opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! Runs the benchmark binary in `--smoke` mode and holds its output against
//! `BENCHMARK.json`: the two must name the same metrics with the same
//! units, and the in-run checks must be able to fail a run.

use h2_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["cov3d", "update3d", "hss2d"];

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_h2_e2e_bench"))
}

fn benchmark_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json at the root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke(workload: &str, extra: &[&str]) -> Output {
    bench()
        .args(["--workload", workload, "--seed", "1", "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8(out.stdout.clone())
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn listed(json: &Json, list: &str) -> Vec<(String, String)> {
    json.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn keys(json: &Json) -> Vec<&str> {
    json.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The last line is the result; the one before it the full summary.
fn check_run_against(out: &Output, bench_json: &Json, list: &str, human_prefix: &str) {
    assert!(out.status.success(), "exit {:?}", out.status);
    let lines = stdout_lines(out);
    let result = Json::parse(lines.last().expect("a result line")).expect("result line parses");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);

    let want = listed(bench_json, list);
    let got = result.get("metrics").and_then(Json::as_object).unwrap();
    let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        got_names, want_names,
        "{list}: same metrics, same order, none extra"
    );
    for ((name, unit), (_, entry)) in want.iter().zip(got) {
        assert!(valid_name(name), "{name}");
        assert_eq!(keys(entry), ["value", "unit"], "{name}");
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        let printed = format!("{human_prefix} {name} = ");
        let times = lines.iter().filter(|l| l.starts_with(&printed)).count();
        assert_eq!(times, 1, "{name} printed by name exactly once");
    }

    let summary = &lines[lines.len() - 2];
    assert!(summary.starts_with("{\"envelope\":"), "{summary}");
    assert!(summary.ends_with("\"claim\":null}"), "{summary}");
    let envelope = Json::parse(summary).expect("summary parses");
    let envelope = envelope.get("envelope").unwrap();
    for key in [
        "git_rev",
        "nproc",
        "cpu_model",
        "pinned_cpu",
        "seed",
        "constants",
        "sections",
    ] {
        assert!(envelope.get(key).is_some(), "envelope records {key}");
    }
    assert_eq!(envelope.get("threads").and_then(Json::as_u64), Some(1));
}

#[test]
fn benchmark_json_meets_the_contract() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = json.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(end_to_end.len(), 12);
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    let mut setup_bound = None;
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert!(
            bound(m) > 0.0 && bound(m) <= 0.25,
            "the driver's contract refuses a bound over 0.25"
        );
        if m.get("name").and_then(Json::as_str) == Some("setup_s") {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
            setup_bound = Some(bound(m));
        }
    }
    let largest = end_to_end.iter().map(bound).fold(0.0, f64::max);
    assert_eq!(
        setup_bound,
        Some(largest),
        "setup_s carries the largest bound"
    );

    let per_layer = json.get("per_layer").and_then(Json::as_array).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    let mut names: Vec<String> = Vec::new();
    for (list, m) in end_to_end
        .iter()
        .map(|m| ("end_to_end", m))
        .chain(per_layer.iter().map(|m| ("per_layer", m)))
    {
        if list == "per_layer" {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
        let better = m.get("better").and_then(Json::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
        let name = m.get("name").and_then(Json::as_str).unwrap();
        assert!(valid_name(name), "{name}");
        assert!(!names.iter().any(|n| n == name), "{name} is listed twice");
        names.push(name.to_string());
    }
}

#[test]
fn smoke_runs_emit_exactly_the_listed_end_to_end_metrics() {
    let json = benchmark_json();
    for workload in WORKLOADS {
        let out = smoke(workload, &["--trace", "0"]);
        check_run_against(&out, &json, "end_to_end", "end_to_end");
    }
}

#[test]
fn traced_smoke_runs_emit_exactly_the_listed_per_layer_metrics() {
    let json = benchmark_json();
    for workload in WORKLOADS {
        let trace_path = scratch(&format!("trace-{workload}.json"));
        let out = smoke(
            workload,
            &["--trace", "1", "--trace-out", trace_path.to_str().unwrap()],
        );
        check_run_against(&out, &json, "per_layer", "per_layer");

        let trace = std::fs::read_to_string(&trace_path).expect("a Chrome trace was written");
        let trace = Json::parse(&trace).expect("the trace is loadable JSON");
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let named = |n: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(n))
        };
        assert!(named("cycle") && named("h2_core:sketch_construct") && named("h2_solve:pcg"));
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(Json::as_str) == Some("phase")),
            "the library's own spans are on the same timeline"
        );
    }
}

#[test]
fn a_wrong_digits_floor_fails_the_run() {
    // Twelve digits from a 1e-6 construction: the check must fire.
    let out = smoke("cov3d", &["--digits-floor", "12"]);
    assert!(!out.status.success(), "a failed check is a failed run");
    let lines = stdout_lines(&out);
    assert!(lines
        .iter()
        .any(|l| l.starts_with("CHECK FAILED: construct_digits")));
    let result = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "cov3d"],
        &["--workload", "cov3d", "--seed", "x"],
        &["--workload", "cov3d", "--seed", "1", "--trace", "2"],
        &["--workload", "cov3d", "--seed", "1", "--seconds", "0"],
        &["--workload", "cov3d", "--seed", "1", "--trace", "0"],
    ] {
        let out = bench().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result is printed");
    }
}

#[test]
fn compare_accepts_equal_sets_and_flags_a_shifted_one() {
    let out = smoke("hss2d", &[]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let same = scratch("compare-same.out");
    std::fs::write(&same, &text).unwrap();

    // The same run with every `construct_s` value half again as large.
    let lines: Vec<&str> = text.lines().collect();
    let mut result = Json::parse(lines.last().unwrap()).unwrap();
    let value = result.get("metrics").unwrap().get("construct_s").unwrap();
    let slower = value.get("value").and_then(Json::as_f64).unwrap() * 1.5;
    let needle = format!("\"construct_s\":{}", value.dump());
    let patched = format!("\"construct_s\":{{\"value\":{slower},\"unit\":\"s\"}}");
    result = Json::parse(&lines.last().unwrap().replace(&needle, &patched)).unwrap();
    let shifted = scratch("compare-shifted.out");
    let body = lines[..lines.len() - 1].join("\n");
    std::fs::write(&shifted, format!("{body}\n{}\n", result.dump())).unwrap();

    let compare = |b: &PathBuf| {
        bench()
            .arg("compare")
            .args(["--bench-json", benchmark_json_path().to_str().unwrap()])
            .args(["--a", same.to_str().unwrap(), "--b", b.to_str().unwrap()])
            .output()
            .unwrap()
    };
    let agree = compare(&same);
    assert!(
        agree.status.success(),
        "{}",
        String::from_utf8_lossy(&agree.stderr)
    );
    let table = String::from_utf8(agree.stdout).unwrap();
    assert!(table.contains("| hss2d | construct_s |") && !table.contains("DISAGREE"));

    let disagree = compare(&shifted);
    assert_eq!(disagree.status.code(), Some(1));
    let table = String::from_utf8(disagree.stdout).unwrap();
    assert!(
        table.contains("+50.00 %") && table.contains("DISAGREE"),
        "{table}"
    );
}

//! `compare`: do two sets of run outputs agree within the benchmark's own
//! bounds? Used on two sets of the same code for the repeatability
//! criterion, and on parent/change sets for before/after tables.
//!
//! Each input file is the standard output of one run. Per workload and
//! end-to-end metric the two medians are compared; the sets disagree when
//! the relative difference exceeds the metric's bound in either direction.
//! A pair whose medians agree while a set's own run-to-run spread (the
//! driver's: quartile distance over median) is wider than the bound is
//! *unresolved*, not in agreement: the sets could not have shown a change
//! of the bound's size. When both sets were run on the same seeds the
//! program is deterministic, so count metrics must then match exactly.

use crate::adapter::Json;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One run: its workload, its seed, and its metric values by name.
struct RunOutput {
    workload: String,
    seed: u64,
    values: BTreeMap<String, f64>,
}

fn read_run(path: &str) -> Result<RunOutput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line_with = |prefix: &str| {
        text.lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .ok_or_else(|| format!("{path}: no line starting with {prefix}"))
            .and_then(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
    };
    let summary = line_with("{\"envelope\"")?;
    let result = line_with("{\"correct\"")?;
    let envelope = summary.get("envelope");
    let workload = envelope
        .and_then(|e| e.get("workload"))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: envelope without a workload"))?;
    let seed = envelope
        .and_then(|e| e.get("seed"))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}: envelope without a seed"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: result without metrics"))?;
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunOutput {
        workload: workload.to_string(),
        seed,
        values,
    })
}

struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

const DISAGREE: &str = "DISAGREE";
const UNRESOLVED: &str = "unresolved";

/// `diff` is `b/a − 1` of the medians, `spread` the wider of the two sets'
/// own spreads. Counts of one seed (`exact`) must be equal.
fn verdict(exact: bool, diff: f64, spread: f64, bound: f64) -> &'static str {
    if exact {
        return if diff == 0.0 { "ok" } else { DISAGREE };
    }
    if diff.abs() > bound {
        DISAGREE
    } else if spread > bound {
        UNRESOLVED
    } else {
        "ok"
    }
}

pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)` unless a pair of medians disagrees beyond its bound.
fn compare(args: &[String]) -> Result<bool, String> {
    let mut sets: [Vec<RunOutput>; 2] = [Vec::new(), Vec::new()];
    let mut bench_json = "BENCHMARK.json".to_string();
    let mut into = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--a" => into = Some(0),
            "--b" => into = Some(1),
            "--bench-json" => bench_json = it.next().ok_or("--bench-json needs a path")?.clone(),
            path => sets[into.ok_or("name a set with --a or --b before the files")?]
                .push(read_run(path)?),
        }
    }
    if sets.iter().any(Vec::is_empty) {
        return Err("both --a and --b need at least one run output".into());
    }
    let bounds = read_bounds(&bench_json)?;

    let seeds = |set: &[RunOutput], workload: &str| {
        let mut s: Vec<u64> = set
            .iter()
            .filter(|r| r.workload == workload)
            .map(|r| r.seed)
            .collect();
        s.sort_unstable();
        s
    };
    let mut workloads: Vec<&str> = sets[0].iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    println!(
        "| workload | metric | median a | median b | b/a - 1 | spread a | spread b | bound | |\n|---|---|---|---|---|---|---|---|---|"
    );
    let mut agree = true;
    let mut unresolved = 0;
    for workload in workloads {
        let same_seeds = seeds(&sets[0], workload) == seeds(&sets[1], workload);
        for b in &bounds {
            let values = |set: &[RunOutput]| -> Vec<f64> {
                set.iter()
                    .filter(|r| r.workload == workload)
                    .filter_map(|r| r.values.get(&b.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&sets[0]), values(&sets[1]));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{}: missing from one set", b.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let diff = mb / ma - 1.0;
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let exact = b.unit == "count" && same_seeds;
            let verdict = verdict(exact, diff, sa.max(sb), b.bound);
            agree &= verdict != DISAGREE;
            unresolved += usize::from(verdict == UNRESOLVED);
            println!(
                "| {workload} | {} | {ma:.6} | {mb:.6} | {:+.2} % | {:.1} % | {:.1} % | {} | {verdict} |",
                b.name,
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.1} %", b.bound * 100.0)
                },
            );
        }
    }
    if unresolved > 0 {
        println!("{unresolved} pairs unresolved: a set's spread is wider than the bound");
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(false, 0.04, 0.03, 0.1), "ok");
        assert_eq!(verdict(false, -0.12, 0.03, 0.1), DISAGREE);
        // Medians agree, but runs of one set differ by more than the bound.
        assert_eq!(verdict(false, 0.04, 0.14, 0.1), UNRESOLVED);
        assert_eq!(verdict(true, 0.0, 0.0, 0.1), "ok");
        assert_eq!(
            verdict(true, 0.01, 0.0, 0.1),
            DISAGREE,
            "counts repeat exactly"
        );
    }
}

//! Observability acceptance tests: the Chrome-trace export of a pipelined
//! D=4 construction carries exactly [`ExecReport::total_comm_bytes`] in
//! its transfer events (equal to the plan's bytes) at both wire
//! precisions, per-track timestamps are monotone, the drift tables pair
//! every epoch with its plan epoch and their shares sum to the makespan
//! ratio, and live
//! tracer spans merge into the trace without double-counting transfers.

use h2_core::SketchConfig;
use h2_dense::gaussian_mat;
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::H2Matrix;
use h2_obs::Json;
use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime};
use h2_sched::{
    drift, export_chrome_trace, export_chrome_trace_with_spans, plan_construct, plan_ulv_solve,
    shard_construct, shard_matvec_with_report, shard_ulv_solve_with_report, simulate_matvec,
    DeviceFabric, Tracer,
};
use h2_solve::{pcg_with, KrylovWorkspace, UlvFactor};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn sym_problem(
    n: usize,
    leaf: usize,
    seed: u64,
) -> (
    Arc<ClusterTree>,
    Arc<Partition>,
    KernelMatrix<ExponentialKernel>,
) {
    let pts = h2_tree::uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.top_far_level(&tree).is_some(), "problem too small");
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    (tree, part, km)
}

fn cfg() -> SketchConfig {
    SketchConfig {
        initial_samples: 64,
        adaptive: false,
        ..Default::default()
    }
}

/// HSS-flavored problem for the solver arm (weak admissibility, 1-D line).
fn hss_matrix(n: usize, leaf: usize) -> H2Matrix {
    let pts: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let scfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let (mut h2, _) = h2_core::sketch_construct(&km, &km, tree, part, &rt, &scfg);
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += 2.0;
            }
        }
    }
    h2
}

/// Parse a trace and return its event array (panics on malformed JSON —
/// the well-formedness half of the check).
fn parse_events(trace: &h2_sched::ChromeTrace) -> Vec<Json> {
    let text = trace.to_json().dump();
    let json = Json::parse(&text).expect("trace JSON must be well-formed");
    json.get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array")
        .to_vec()
}

/// Sum the `bytes` payload over all transfer-category events.
fn transfer_bytes(events: &[Json]) -> u64 {
    events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("transfer"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|b| b.as_u64())
                .expect("transfer event must carry a bytes payload")
        })
        .sum()
}

/// Assert timestamps are monotone non-decreasing within every (pid, tid)
/// track, in array order (metadata events carry no `ts` and are skipped).
fn assert_monotone_tracks(events: &[Json]) {
    use std::collections::HashMap;
    let mut last: HashMap<(u64, u64), f64> = HashMap::new();
    for e in events {
        let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) else {
            continue;
        };
        if e.get("ph").and_then(|p| p.as_str()) == Some("M") {
            continue;
        }
        let pid = e.get("pid").and_then(|p| p.as_u64()).unwrap_or(0);
        let tid = e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        let prev = last.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "track (pid {pid}, tid {tid}): ts {ts} after {prev}"
        );
        *prev = ts;
    }
}

fn shares_sum(table: &h2_sched::DriftTable) -> f64 {
    table.shares().iter().sum()
}

/// The acceptance bar: a pipelined 4-device construction's exported
/// Chrome trace sums its transfer-event bytes to exactly the report total
/// and the plan's, at both wire precisions — and the drift table's shares
/// sum to the observed makespan ratio.
#[test]
fn chrome_trace_bytes_reconcile_exactly_at_both_wires() {
    let (tree, part, km) = sym_problem(1200, 16, 95);
    let model = DeviceModel::default();
    for wire in [Precision::F64, Precision::F32] {
        let fabric = DeviceFabric::with_config(4, PipelineMode::Pipelined, Default::default());
        fabric.set_wire(wire);
        let (h2, stats, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
        let plan = plan_construct(&h2, &cfg(), &stats, 4, PipelineMode::Pipelined, wire);
        if let Err(e) = report.check(&plan, None) {
            panic!("wire={wire}: {e}");
        }

        let trace = export_chrome_trace(&report);
        let events = parse_events(&trace);
        assert_monotone_tracks(&events);
        let summed = transfer_bytes(&events);
        assert!(summed > 0, "D=4 must move bytes");
        assert_eq!(
            summed,
            report.total_comm_bytes(),
            "wire={wire}: trace bytes vs report"
        );
        assert_eq!(
            summed,
            plan.total_comm_bytes(),
            "wire={wire}: trace bytes vs plan"
        );
        // One transfer event per recorded message.
        let n_transfers = events
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("transfer"))
            .count();
        assert_eq!(n_transfers, report.total_comm_messages());

        let table = drift(&report, &plan, &model);
        assert_eq!(
            table.measured_total(),
            report.modeled_makespan(&model),
            "wire={wire}: drift measured total must be the modeled makespan"
        );
        assert_eq!(
            table.predicted_total(),
            plan.makespan(&model),
            "wire={wire}: drift predicted total must be the planned makespan"
        );
        assert_eq!(table.ratio(), 1.0, "wire={wire}: the executor ran the plan");
        assert!(
            (shares_sum(&table) - 1.0).abs() <= 1e-12,
            "wire={wire}: per-epoch shares must sum to the makespan ratio"
        );
        // Every row pairs an epoch with its plan epoch, term by term.
        for row in &table.rows {
            assert!(!row.label.contains(" / "), "{}", row.label);
            for part in &row.parts {
                assert_eq!(
                    part.measured, part.predicted,
                    "{}: {}",
                    row.label, part.name
                );
            }
        }
        assert!(!table.render().is_empty());
    }
}

#[test]
fn matvec_drift_table_matches_simulator_comparison() {
    let (tree, part, km) = sym_problem(1200, 16, 96);
    let rt = Runtime::parallel();
    let (h2, _) = h2_core::sketch_construct(&km, &km, tree, part, &rt, &cfg());
    let x = gaussian_mat(h2.n(), 4, 97);
    let model = DeviceModel::default();
    for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
        let fabric = DeviceFabric::with_config(4, mode, Default::default());
        let (_, report) = shard_matvec_with_report(&fabric, &h2, &x, false);
        let sim = simulate_matvec(&h2, 4, 4, mode, report.wire, false);
        if let Err(e) = report.check(&sim, None) {
            panic!("{mode:?}: {e}");
        }
        let table = drift(&report, &sim, &model);
        assert_eq!(table.measured_total(), report.modeled_makespan(&model));
        assert_eq!(
            table.predicted_total(),
            sim.makespan(&model),
            "{mode:?}: per-epoch predictions must decompose the sim makespan"
        );
        assert_eq!(
            table.ratio(),
            1.0,
            "{mode:?}: executor and plan model the same schedule"
        );
        // Labels pair up row by row (same epoch order on both sides).
        assert_eq!(table.rows.len(), report.epochs.len().max(sim.epochs.len()));
        for (row, e) in table.rows.iter().zip(report.epochs.iter()) {
            assert!(
                row.label.starts_with(&e.label),
                "{mode:?}: row '{}' vs epoch '{}'",
                row.label,
                e.label
            );
        }
    }
}

#[test]
fn solve_drift_table_matches_simulator_comparison() {
    let h2 = hss_matrix(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let b = gaussian_mat(h2.n(), 2, 98);
    let model = DeviceModel::default();
    let fabric = DeviceFabric::with_config(4, PipelineMode::Pipelined, Default::default());
    let (_, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
    let plan = plan_ulv_solve(&ulv, 2, 4, PipelineMode::Pipelined, report.wire);
    report.check(&plan, None).unwrap();
    let table = drift(&report, &plan, &model);
    assert_eq!(table.measured_total(), report.modeled_makespan(&model));
    assert_eq!(table.predicted_total(), plan.makespan(&model));
    assert_eq!(table.ratio(), 1.0, "the executor ran the plan");
    assert!((shares_sum(&table) - 1.0).abs() <= 1e-12);
    // Labels pair up row by row: the same epochs in the same order.
    assert_eq!(table.rows.len(), report.epochs.len());
    assert_eq!(table.rows.len(), plan.epochs.len());
    for ((row, e), p) in table.rows.iter().zip(&report.epochs).zip(&plan.epochs) {
        assert_eq!(row.label, e.label);
        assert_eq!(row.label, p.label);
    }
    // The ranked view orders rows by modeled excess without panicking.
    assert_eq!(table.ranked().len(), table.rows.len());
}

/// End-to-end live tracing: one tracer attached to the fabric covers the
/// host-side phase/level spans (via `sharded_runtime`), device job spans,
/// and transfer instants; the merged export keeps link bytes
/// single-counted and stays monotone per track.
#[test]
fn live_spans_merge_without_double_counting_transfers() {
    let (tree, part, km) = sym_problem(1200, 16, 99);
    let fabric = DeviceFabric::with_config(2, PipelineMode::Pipelined, Default::default());
    let tracer = Tracer::new(1 << 16);
    fabric.set_tracer(Some(tracer.clone()));
    let (_, _, report) = shard_construct(&fabric, &km, &km, tree, part, &cfg());
    fabric.set_tracer(None);
    let events = tracer.drain();
    assert!(!events.is_empty(), "traced run must record events");
    for cat in ["phase", "construct", "job", "fabric", "transfer"] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "expected at least one '{cat}' event"
        );
    }
    // Construction level spans carry the level in the name.
    assert!(events
        .iter()
        .any(|e| e.cat == "construct" && e.name.starts_with("construct L")));
    // Tracer transfer instants agree with the report's queue one-for-one.
    let traced_transfers = events.iter().filter(|e| e.cat == "transfer").count();
    assert_eq!(traced_transfers, report.total_comm_messages());

    let trace = export_chrome_trace_with_spans(&report, &events);
    let merged = parse_events(&trace);
    assert_monotone_tracks(&merged);
    // The tracer's transfer instants are filtered out of the merge, so the
    // byte payloads appear exactly once (on the synthesized link rows).
    let n_transfer_events = merged
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("transfer"))
        .count();
    assert_eq!(n_transfer_events, report.total_comm_messages());
    assert_eq!(transfer_bytes(&merged), report.total_comm_bytes());
}

/// Krylov iterations emit per-iteration instants through the workspace
/// tracer, riding the same fabric-sharded operator stack.
#[test]
fn krylov_iterations_are_traced() {
    let h2 = hss_matrix(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let fabric = DeviceFabric::with_config(2, PipelineMode::Pipelined, Default::default());
    let op = h2_sched::FabricOp::new(&fabric, &h2);
    let pre = h2_sched::UlvFabricPrecond::new(&fabric, &ulv);
    let b = vec![1.0; h2.n()];
    let tracer = Tracer::new(1 << 14);
    let mut ws = KrylovWorkspace::new(h2.n());
    ws.set_tracer(Some(tracer.clone()));
    let res = pcg_with(&op, &pre, &b, 50, 1e-10, &mut ws);
    assert!(res.converged, "pcg must converge on the shifted HSS matrix");
    let events = tracer.drain();
    let spans = events
        .iter()
        .filter(|e| e.cat == "krylov" && e.name == "pcg")
        .count();
    assert_eq!(spans, 1, "one solve span");
    let iters = events
        .iter()
        .filter(|e| e.cat == "krylov" && e.name == "pcg iter")
        .count();
    assert_eq!(iters, res.iterations, "one instant per iteration");
}

/// The tiling + projection invariants hold for the trace-bearing run too
/// (guards against the exporter reading a report shape it doesn't expect).
#[test]
fn exported_epoch_row_durations_match_report_spans() {
    let (tree, part, km) = sym_problem(1200, 16, 100);
    let fabric = DeviceFabric::with_config(4, PipelineMode::Pipelined, Default::default());
    let (_, _, report) = shard_construct(&fabric, &km, &km, tree, part, &cfg());
    let events = parse_events(&export_chrome_trace(&report));
    let epoch_rows: Vec<&Json> = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("epoch")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        })
        .collect();
    assert_eq!(epoch_rows.len(), report.epochs.len());
    for (row, e) in epoch_rows.iter().zip(report.epochs.iter()) {
        assert_eq!(
            row.get("name").and_then(|n| n.as_str()),
            Some(e.label.as_str())
        );
        assert_eq!(
            row.get("args")
                .and_then(|a| a.get("comm_bytes"))
                .and_then(|b| b.as_u64()),
            Some(e.comm_bytes)
        );
    }
    // Summed epoch-row durations equal the summed report spans (µs).
    let total_us: f64 = epoch_rows
        .iter()
        .map(|r| r.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0))
        .sum();
    let want_us: f64 = report
        .epochs
        .iter()
        .map(|e| e.span.as_nanos() as f64 / 1000.0)
        .sum();
    assert!((total_us - want_us).abs() <= 1e-6 * want_us.max(1.0));
}

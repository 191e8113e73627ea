//! Observability exporters for sharded runs: Chrome-trace timelines built
//! from an [`ExecReport`]'s epoch records, and sim-drift attribution
//! tables pairing measured epochs with the closed-form simulators.
//!
//! ## Timeline export
//!
//! [`export_chrome_trace`] renders the per-device timeline the fabric
//! accounted: for every epoch, each device's busy / stall / overlapped /
//! idle slices (which tile the epoch span exactly — see
//! [`DeviceFabric::close_epoch`](crate::DeviceFabric::close_epoch)), each
//! issued transfer as an instant on a per-destination "link" row carrying
//! its byte/precision payload, arena-rotation marks, and one labeled slice
//! per epoch. Summing the `bytes` argument over the link rows recovers
//! [`ExecReport::total_comm_bytes`] exactly — the CI trace validator
//! asserts it. [`export_chrome_trace_with_spans`] additionally renders
//! live [`Tracer`](h2_obs::Tracer) events (phase spans, job spans, Krylov
//! iterations) on separate process rows, skipping the tracer's own
//! `transfer` instants so link bytes stay single-counted.
//!
//! Load the written file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.
//!
//! ## Drift attribution
//!
//! [`drift_construct`] / [`drift_matvec`] / [`drift_solve`] join the
//! measured per-epoch schedule projection
//! ([`ExecReport::epoch_makespan`]) against the per-level predictions of
//! `simulate_prec_mode` / [`plan_matvec`](crate::plan_matvec) /
//! `simulate_solve_prec_mode`, each evaluated under the report's own
//! pipeline mode. The rows cover *all* measured epochs and *all*
//! predicted levels, so the table's measured total is exactly
//! [`ExecReport::modeled_makespan`] and its predicted total exactly the
//! simulator makespan — which makes the per-row shares sum identically to
//! the makespan ratio the equivalence suite checks against its 2x/3x
//! bands. The table answers *which epoch* contributes the gap.

use crate::fabric::ExecReport;
use h2_obs::{ns_to_us, ChromeTrace, DriftPart, DriftRow, DriftTable, Event, Json};
use h2_runtime::{
    simulate_prec_mode, simulate_solve_prec_mode, DeviceModel, LevelSpec, Precision, Schedule,
    SolveSpec,
};

/// Process row for host-thread tracer spans.
pub const THREAD_PID: u64 = 0;
/// Process row for the synthesized per-device timeline.
pub const DEVICE_PID: u64 = 1;
/// Process row for per-destination transfer instants.
pub const LINK_PID: u64 = 2;
/// Process row for live device-track tracer spans (kept separate from the
/// synthesized timeline so the two clocks cannot be confused).
pub const SPAN_DEVICE_PID: u64 = 3;

fn prec_name(p: Precision) -> &'static str {
    match p {
        Precision::F64 => "f64",
        Precision::F32 => "f32",
    }
}

/// Render an [`ExecReport`] as a Chrome trace: one thread row per device
/// (busy/stall/overlapped/idle slices tiling each epoch span), one link
/// row per destination device (transfer instants with byte payloads), an
/// epoch row, arena-rotation marks and a cumulative comm-bytes counter.
///
/// Epochs are laid out sequentially from 0 using their recorded spans, so
/// the timeline is the epoch schedule the makespan projection sums — not
/// raw wall clock (the fabric records per-epoch durations, not per-event
/// timestamps; the live-span exporter carries those).
pub fn export_chrome_trace(report: &ExecReport) -> ChromeTrace {
    let mut tr = ChromeTrace::new();
    tr.process_name(DEVICE_PID, "fabric devices");
    tr.process_name(LINK_PID, "fabric links");
    for dev in 0..report.devices {
        tr.thread_name(DEVICE_PID, dev as u64, &format!("device {dev}"));
        tr.thread_name(LINK_PID, dev as u64, &format!("link -> dev{dev}"));
    }
    tr.thread_name(DEVICE_PID, report.devices as u64, "epochs");

    let mut cursor_ns: u64 = 0;
    let mut cumulative_bytes: u64 = 0;
    for (i, e) in report.epochs.iter().enumerate() {
        let span_ns = e.span.as_nanos() as u64;
        let t0 = ns_to_us(cursor_ns);
        let span_us = ns_to_us(span_ns);
        tr.complete(
            DEVICE_PID,
            report.devices as u64,
            "epoch",
            &e.label,
            t0,
            span_us,
            Json::obj(vec![
                ("comm_bytes", Json::u64(e.comm_bytes)),
                ("comm_messages", Json::u64(e.comm_messages as u64)),
            ]),
        );
        for (dev, d) in e.per_device.iter().enumerate() {
            let mut t = cursor_ns;
            let slices = [
                ("busy", "compute", d.busy),
                ("stall", "comm", d.stall),
                ("overlapped", "comm", d.overlapped),
                ("idle", "idle", d.idle),
            ];
            for (name, cat, dur) in slices {
                let ns = dur.as_nanos() as u64;
                if ns > 0 {
                    tr.complete(
                        DEVICE_PID,
                        dev as u64,
                        cat,
                        name,
                        ns_to_us(t),
                        ns_to_us(ns),
                        Json::obj(vec![("epoch", Json::str(e.label.clone()))]),
                    );
                }
                t += ns;
            }
            tr.instant(
                DEVICE_PID,
                dev as u64,
                "arena",
                "arena rotate",
                ns_to_us(cursor_ns + span_ns),
                Json::obj(vec![("peak_bytes", Json::u64(d.arena_peak as u64))]),
            );
        }
        // Spread the epoch's transfers over its span so per-track
        // timestamps stay monotone; the byte payloads are the accounting
        // truth, the placement is presentational.
        let epoch_transfers: Vec<_> = report
            .transfers
            .iter()
            .filter(|(ep, _, _)| *ep == i)
            .collect();
        let n = epoch_transfers.len();
        for (k, (_, t, retry)) in epoch_transfers.into_iter().enumerate() {
            let ts = t0 + span_us * (k as f64 + 1.0) / (n as f64 + 1.0);
            let mut args = vec![
                ("bytes", Json::u64(t.bytes)),
                ("src", Json::u64(t.src as u64)),
                ("prec", Json::str(prec_name(t.prec))),
            ];
            if *retry {
                // Charged re-transfer of a fault plan: `trace_check` pairs
                // these one-to-one with the detected-fault instants.
                args.push(("stage", Json::str("retry")));
            }
            tr.instant(
                LINK_PID,
                t.dst as u64,
                "transfer",
                t.kind.name(),
                ts,
                Json::obj(args),
            );
        }
        cumulative_bytes += e.comm_bytes;
        tr.counter(
            LINK_PID,
            "comm_bytes",
            t0 + span_us,
            vec![("bytes", cumulative_bytes as f64)],
        );
        cursor_ns += span_ns;
    }
    tr
}

/// [`export_chrome_trace`] plus live tracer events on their own process
/// rows: thread-track spans (`Runtime::phase`, construction levels, ULV
/// phases, Krylov iterations) under [`THREAD_PID`], device-track spans
/// (fabric job spans) under [`SPAN_DEVICE_PID`]. The tracer's `transfer`
/// instants are skipped — the synthesized link rows already carry every
/// transfer, and the CI validator sums bytes over exactly one
/// representation.
pub fn export_chrome_trace_with_spans(report: &ExecReport, events: &[Event]) -> ChromeTrace {
    let mut tr = export_chrome_trace(report);
    tr.process_name(THREAD_PID, "host threads");
    tr.process_name(SPAN_DEVICE_PID, "device spans (live)");
    let filtered: Vec<Event> = events
        .iter()
        .filter(|e| e.cat != "transfer")
        .cloned()
        .collect();
    tr.add_span_events(&filtered, THREAD_PID, SPAN_DEVICE_PID);
    tr
}

/// Pair each measured epoch with a predicted `(label, seconds)` level by
/// index; rows cover the longer of the two sides so the totals are exact.
fn paired_table(
    report: &ExecReport,
    model: &DeviceModel,
    predicted: Vec<(String, f64)>,
) -> DriftTable {
    let n = report.epochs.len().max(predicted.len());
    let rows = (0..n)
        .map(|i| {
            let (measured, label_m, parts) = if i < report.epochs.len() {
                let (compute, comm, launch) = report.epoch_terms(i, model);
                (
                    report.epoch_makespan(i, model),
                    Some(report.epochs[i].label.clone()),
                    vec![
                        DriftPart {
                            name: "compute",
                            measured: compute,
                            predicted: 0.0,
                        },
                        DriftPart {
                            name: "comm",
                            measured: comm,
                            predicted: 0.0,
                        },
                        DriftPart {
                            name: "launch",
                            measured: launch,
                            predicted: 0.0,
                        },
                    ],
                )
            } else {
                (0.0, None, Vec::new())
            };
            let (pred, label_p) = predicted
                .get(i)
                .map(|(l, v)| (*v, Some(l.clone())))
                .unwrap_or((0.0, None));
            let label = match (label_m, label_p) {
                (Some(m), Some(p)) if m == p => m,
                (Some(m), Some(p)) => format!("{m} / {p}"),
                (Some(m), None) => m,
                (None, Some(p)) => format!("{p} (unmeasured)"),
                (None, None) => format!("epoch {i}"),
            };
            DriftRow {
                label,
                measured,
                predicted: pred,
                parts,
            }
        })
        .collect();
    DriftTable { rows }
}

/// Drift table for a construction run: measured epochs (one per processed
/// level plus any tail) against `simulate_prec_mode` on the same level
/// specs, device count, wire precision *and* pipeline mode — the mode
/// decides how each level's three schedule terms combine
/// ([`h2_runtime::combine_terms`]). The measured total equals
/// [`ExecReport::modeled_makespan`] and the predicted total equals the
/// simulator's makespan (the sum of its sequential level makespans), so
/// [`DriftTable::ratio`] is exactly
/// [`crate::SimComparison::makespan_ratio`].
pub fn drift_construct(
    report: &ExecReport,
    specs: &[LevelSpec],
    d_samples: usize,
    model: &DeviceModel,
) -> DriftTable {
    let sim = simulate_prec_mode(
        specs,
        d_samples,
        report.devices,
        model,
        report.wire,
        report.mode,
    );
    let predicted = sim
        .levels
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("sim level {i}"), l.makespan))
        .collect();
    paired_table(report, model, predicted)
}

/// Drift table for a sharded matvec: measured epochs against the
/// [`Schedule`] the executor ran ([`plan_matvec`](crate::plan_matvec) for
/// the same mode/wire), epoch by epoch — same labels, same order, and the
/// predicted column is [`Schedule::epoch_makespan`], so it sums to
/// [`Schedule::makespan`] exactly.
pub fn drift_matvec(report: &ExecReport, plan: &Schedule, model: &DeviceModel) -> DriftTable {
    let predicted = (0..plan.epochs.len())
        .map(|i| (plan.epochs[i].label.clone(), plan.epoch_makespan(i, model)))
        .collect();
    paired_table(report, model, predicted)
}

/// Drift table for a sharded ULV solve sweep: measured epochs (forward
/// levels, root, backward levels, tail) against `simulate_solve_prec_mode`
/// on the factorization's own [`SolveSpec`], under the report's own
/// pipeline mode.
pub fn drift_solve(report: &ExecReport, spec: &SolveSpec, model: &DeviceModel) -> DriftTable {
    let sim = simulate_solve_prec_mode(spec, report.devices, model, report.wire, report.mode);
    let predicted = sim
        .levels
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("sim solve level {i}"), l.makespan))
        .collect();
    paired_table(report, model, predicted)
}

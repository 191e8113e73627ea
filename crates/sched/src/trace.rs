//! Observability exporters for sharded runs: Chrome-trace timelines built
//! from an [`ExecReport`]'s epoch records, and drift tables pairing measured
//! epochs with the epochs of the plan the run executed.
//!
//! ## Timeline export
//!
//! [`export_chrome_trace`] renders the per-device timeline the fabric
//! accounted: for every epoch, each device's busy / stall / overlapped /
//! idle slices (which tile the epoch span exactly — see
//! [`DeviceEpochStats`](crate::DeviceEpochStats)), each
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
//! [`drift`] joins a run's measured per-epoch projection
//! ([`ExecReport::epoch_terms`] / [`ExecReport::epoch_makespan`]) with the
//! per-epoch pricing of the [`Schedule`] it executed
//! ([`Schedule::epoch_terms`] / [`Schedule::epoch_makespan`]) — the
//! construction's [`h2_core::plan_construct`], the matvec's
//! [`plan_matvec`](crate::plan_matvec), the sweep's
//! [`plan_ulv_solve`](crate::plan_ulv_solve) — with the compute / comm /
//! launch terms of both sides per row. The rows cover *all* measured and
//! planned epochs, so the table's totals are exactly
//! [`ExecReport::modeled_makespan`] and [`Schedule::makespan`] and the
//! per-row shares sum to the makespan ratio — 1 for a run that executed its
//! plan, each row pairing an epoch with its plan epoch by label.

use crate::fabric::ExecReport;
use h2_obs::{ns_to_us, ChromeTrace, DriftPart, DriftRow, DriftTable, Event, Json};
use h2_runtime::{DeviceModel, Precision, Schedule};

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
                "arena release",
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

/// Drift table of a sharded run against the [`Schedule`] it executed
/// (planned for the run's width, device count, mode and wire): row `i` pairs
/// measured epoch `i` with plan epoch `i` — label, makespan and the
/// compute / comm / launch terms of each side. Rows cover the longer of the
/// two epoch lists, so [`DriftTable::measured_total`] is exactly
/// [`ExecReport::modeled_makespan`], [`DriftTable::predicted_total`] exactly
/// [`Schedule::makespan`], and [`DriftTable::ratio`] is their quotient —
/// exactly 1 for a run that is its plan ([`ExecReport::check`]).
pub fn drift(report: &ExecReport, plan: &Schedule, model: &DeviceModel) -> DriftTable {
    let terms = |(compute, comm, launch): (f64, f64, f64)| [compute, comm, launch];
    let n = report.epochs.len().max(plan.epochs.len());
    let rows = (0..n)
        .map(|i| {
            let measured = report.epochs.get(i).map(|e| {
                let t = terms(report.epoch_terms(i, model));
                (e.label.clone(), report.epoch_makespan(i, model), t)
            });
            let predicted = plan.epochs.get(i).map(|e| {
                let t = terms(plan.epoch_terms(i, model));
                (e.label.clone(), plan.epoch_makespan(i, model), t)
            });
            let label = match (&measured, &predicted) {
                (Some((m, ..)), Some((p, ..))) if m == p => m.clone(),
                (Some((m, ..)), Some((p, ..))) => format!("{m} / {p}"),
                (Some((m, ..)), None) => m.clone(),
                (None, Some((p, ..))) => format!("{p} (unmeasured)"),
                (None, None) => unreachable!("row {i} is within one of the lists"),
            };
            let (m_total, m_terms) = measured.map_or((0.0, [0.0; 3]), |(_, v, t)| (v, t));
            let (p_total, p_terms) = predicted.map_or((0.0, [0.0; 3]), |(_, v, t)| (v, t));
            let parts = ["compute", "comm", "launch"]
                .into_iter()
                .zip(m_terms.into_iter().zip(p_terms))
                .map(|(name, (measured, predicted))| DriftPart {
                    name,
                    measured,
                    predicted,
                })
                .collect();
            DriftRow {
                label,
                measured: m_total,
                predicted: p_total,
                parts,
            }
        })
        .collect();
    DriftTable { rows }
}

//! Chrome-trace validator for CI: checks that a trace written by the
//! `--trace` flag of the bench binaries is well-formed and internally
//! consistent, and (optionally) that its transfer bytes equal an
//! externally recorded total.
//!
//! Checks, in order:
//!
//! 1. the file parses as JSON with a `traceEvents` array, and every event
//!    is an object carrying `ph`, `pid`, `tid` and `name`;
//! 2. timestamps are monotone non-decreasing within every `(pid, tid)`
//!    track, in array order (metadata events carry no `ts` and are
//!    skipped);
//! 3. the `bytes` payloads summed over all `cat == "transfer"` events
//!    equal the final cumulative `comm_bytes` counter sample — two
//!    independently aggregated paths through the fabric's accounting
//!    (per-transfer queue records vs per-epoch byte totals);
//! 4. with `--expect-bytes N` (the `<path>.expect` sidecar written by
//!    `fabric --trace`), the transfer-byte sum must equal `N` exactly —
//!    the `ExecReport::total_comm_bytes` of the run that produced the
//!    trace, a run itself checked against its plan;
//! 5. fault/retry pairing: every retry-staged transfer instant
//!    (`args.stage == "retry"`) must pair one-to-one with a detected
//!    retryable-fault instant (`cat == "fault"` named `transfer-drop` or
//!    `transfer-corrupt`) — a chaos trace cannot show a retry that was
//!    never charged, nor a detected drop/corruption that was never
//!    re-shipped;
//! 6. the `comm_bytes` payloads of the `epoch close` instants sum to the
//!    same total as the per-transfer instants (a third independently
//!    aggregated path: per-epoch boundary totals).
//!
//! Usage: `trace_check --trace trace.json [--expect-bytes N]`
//!
//! Exits non-zero with a diagnostic on the first violation.

use h2_bench::Args;
use h2_obs::Json;
use std::collections::HashMap;

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args::parse();
    let Some(path) = args.get_opt("trace") else {
        fail("--trace <path> is required");
    };
    let expect_bytes: Option<u64> = args.get_opt("expect-bytes").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--expect-bytes must be a u64 (got {v})")))
    });

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let json =
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    let Some(events) = json.get("traceEvents").and_then(|e| e.as_array()) else {
        fail("missing traceEvents array");
    };

    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut transfer_bytes: u64 = 0;
    let mut transfer_events: usize = 0;
    let mut retry_transfers: usize = 0;
    let mut retryable_faults: usize = 0;
    let mut epoch_close_bytes: u64 = 0;
    let mut epoch_closes: usize = 0;
    let mut counter_bytes: Option<f64> = None;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or_else(|| fail(&format!("event {i}: missing ph")));
        if e.get("name").and_then(|n| n.as_str()).is_none() {
            fail(&format!("event {i}: missing name"));
        }
        let pid = e
            .get("pid")
            .and_then(|p| p.as_u64())
            .unwrap_or_else(|| fail(&format!("event {i}: missing pid")));
        let tid = e
            .get("tid")
            .and_then(|t| t.as_u64())
            .unwrap_or_else(|| fail(&format!("event {i}: missing tid")));
        if ph == "M" {
            continue; // metadata: no timestamp
        }
        let ts = e
            .get("ts")
            .and_then(|t| t.as_f64())
            .unwrap_or_else(|| fail(&format!("event {i} (ph {ph}): missing ts")));
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            fail(&format!(
                "event {i}: track (pid {pid}, tid {tid}) ts {ts} < previous {prev}"
            ));
        }
        *prev = ts;
        let cat = e.get("cat").and_then(|c| c.as_str());
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or_default();
        if cat == Some("transfer") {
            let bytes = e
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|b| b.as_u64())
                .unwrap_or_else(|| fail(&format!("transfer event {i}: missing bytes payload")));
            transfer_bytes += bytes;
            transfer_events += 1;
            if e.get("args")
                .and_then(|a| a.get("stage"))
                .and_then(|s| s.as_str())
                == Some("retry")
            {
                retry_transfers += 1;
            }
        }
        if cat == Some("fault") && (name == "transfer-drop" || name == "transfer-corrupt") {
            retryable_faults += 1;
        }
        if cat == Some("fabric") && name.starts_with("epoch close") {
            let bytes = e
                .get("args")
                .and_then(|a| a.get("comm_bytes"))
                .and_then(|b| b.as_u64())
                .unwrap_or_else(|| fail(&format!("epoch close event {i}: missing comm_bytes")));
            epoch_close_bytes += bytes;
            epoch_closes += 1;
        }
        if ph == "C" && e.get("name").and_then(|n| n.as_str()) == Some("comm_bytes") {
            counter_bytes = e
                .get("args")
                .and_then(|a| a.get("bytes"))
                .and_then(|b| b.as_f64());
        }
    }

    // The cumulative counter's final sample aggregates per-epoch byte
    // totals; the transfer instants aggregate the per-transfer queue. The
    // fabric accounts both under one lock, so they must agree exactly.
    if let Some(cb) = counter_bytes {
        if cb != transfer_bytes as f64 {
            fail(&format!(
                "final comm_bytes counter {cb} != summed transfer bytes {transfer_bytes}"
            ));
        }
    }
    if let Some(expect) = expect_bytes {
        if transfer_bytes != expect {
            fail(&format!(
                "summed transfer bytes {transfer_bytes} != expected {expect}"
            ));
        }
    }
    // Fault/retry pairing: the fabric emits one detected-fault instant
    // (transfer-drop / transfer-corrupt) per failed attempt and one
    // retry-staged re-transfer charging its bytes — the two event streams
    // must be in bijection.
    if retry_transfers != retryable_faults {
        fail(&format!(
            "{retry_transfers} retry-staged transfers != {retryable_faults} \
             detected drop/corrupt fault instants"
        ));
    }
    // Third aggregation path: per-epoch boundary totals.
    if epoch_closes > 0 && epoch_close_bytes != transfer_bytes {
        fail(&format!(
            "epoch close comm_bytes sum {epoch_close_bytes} != summed transfer \
             bytes {transfer_bytes}"
        ));
    }
    println!(
        "trace_check: OK: {path} — {} events, {transfer_events} transfers \
         ({retry_transfers} retries paired with {retryable_faults} faults), \
         {epoch_closes} epoch closes, {transfer_bytes} bytes{}",
        events.len(),
        match expect_bytes {
            Some(e) => format!(" (== expected {e})"),
            None => String::new(),
        }
    );
}

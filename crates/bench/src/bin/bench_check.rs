//! Bench-envelope validator for CI: re-checks the invariants the bench
//! binaries assert at generation time from the *outside*, against the
//! checked-in (or freshly regenerated) `BENCH_*.json` envelopes — so a
//! change that regresses the modeled-makespan story or breaks the
//! bytes-equal-simulator contract fails CI even if nobody re-reads the
//! numbers.
//!
//! Checks per envelope (each file is optional; pass the ones to check):
//!
//! * **all** — the file parses ([`h2_obs::Json::parse`]), carries the
//!   unified `meta.schema == 2` envelope, and names the expected bench;
//! * **`--fabric`** — every row reconciles with the cost model
//!   (`bytes_equal`, `sim_ratio` within the `--band` window), the
//!   pipelined schedule never loses to the synchronous one on the same
//!   counters, `headline_speedup_at_4plus` clears `--headline-floor`,
//!   (when present) the f32 wire ships at most ~half the bytes, and
//!   (when present, i.e. the bench ran with `--faults`) every
//!   `resilience` row is `bytes_equal` against the *extended* simulator
//!   with a finite faulted/clean makespan ratio at or above 1.0;
//! * **`--solve`** — ULV residuals stay below 1e-10 and the batched vs
//!   per-node schedule gap below 1e-13, ULV preconditioning never takes
//!   more iterations than the unpreconditioned solve, and every sweep row
//!   is `bytes_equal` with its measured makespans equal to the planned ones
//!   (`sim_makespan_weak`, `pipe_sim_makespan_weak`) up to float slack and
//!   its pipelined makespan no worse than synchronous;
//! * **`--kernels`** — the packed GEMM beats the naive kernel at every
//!   size ≥ `--gemm-floor-n` and all throughput numbers are positive;
//! * **`--serve`** — every blocked-sweep amortization row is
//!   `bytes_equal` with its measured makespans equal to the planned ones
//!   (`sim_makespan_a100`, `pipe_sim_makespan_a100`) up to float slack and
//!   pipelined never losing to synchronous, the
//!   amortized per-RHS makespan at k = 32 is strictly below k = 1 for
//!   every device count, `amortized_speedup_at_k32_d4` clears
//!   `--serve-floor`, and the serve_sim workload coalesced (batches <
//!   requests), hit the cache at least once, and matched the simulator's
//!   byte prediction on every batch.
//!
//! Usage: `bench_check [--fabric BENCH_fabric.json]
//! [--solve BENCH_solve.json] [--kernels BENCH_kernels.json]
//! [--serve BENCH_serve.json] [--headline-floor 1.25] [--band 2.0]
//! [--gemm-floor-n 256] [--serve-floor 4.0]`
//!
//! Exits non-zero with a diagnostic on the first violation.

use h2_bench::Args;
use h2_obs::Json;

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: FAIL: {msg}");
    std::process::exit(1);
}

/// Sync-vs-pipelined comparisons project *different runs'* counters
/// (identical flop/byte totals, launch counts may legitimately shrink
/// under chaining), so allow one part in 10^9 of float slack.
const REL_SLACK: f64 = 1.0 + 1e-9;

/// A sharded solve's measured makespan and its plan's are the same
/// schedule priced twice, so they must agree up to [`REL_SLACK`].
fn check_planned(ctx: &str, row: &Json, measured_key: &str, planned_key: &str) {
    let (measured, planned) = (num(row, measured_key, ctx), num(row, planned_key, ctx));
    if measured > planned * REL_SLACK || planned > measured * REL_SLACK {
        fail(&format!(
            "{ctx}: {measured_key} {measured:.9e} differs from {planned_key} {planned:.9e}"
        ));
    }
}

fn load(path: &str, bench: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let json =
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    let Some(meta) = json.get("meta") else {
        fail(&format!("{path}: missing meta envelope"));
    };
    if meta.get("schema").and_then(|s| s.as_u64()) != Some(2) {
        fail(&format!("{path}: meta.schema != 2"));
    }
    match meta.get("bench").and_then(|b| b.as_str()) {
        Some(b) if b == bench => {}
        other => fail(&format!("{path}: meta.bench {other:?}, expected {bench:?}")),
    }
    json
}

fn num(row: &Json, key: &str, ctx: &str) -> f64 {
    row.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&format!("{ctx}: missing numeric field {key}")))
}

fn uint(row: &Json, key: &str, ctx: &str) -> u64 {
    row.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| fail(&format!("{ctx}: missing integer field {key}")))
}

fn boolean(row: &Json, key: &str, ctx: &str) -> bool {
    row.get(key)
        .and_then(|v| v.as_bool())
        .unwrap_or_else(|| fail(&format!("{ctx}: missing boolean field {key}")))
}

fn rows<'a>(json: &'a Json, key: &str, path: &str) -> &'a [Json] {
    let r = json
        .get(key)
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: missing {key} array")));
    if r.is_empty() {
        fail(&format!("{path}: {key} array is empty"));
    }
    r
}

fn row_ctx(row: &Json, path: &str, section: &str, i: usize) -> String {
    let regime = row.get("regime").and_then(|r| r.as_str()).unwrap_or("?");
    let prec = row.get("precision").and_then(|p| p.as_str()).unwrap_or("?");
    let dev = row
        .get("devices")
        .and_then(|d| d.as_u64())
        .map(|d| format!(" D={d}"))
        .unwrap_or_default();
    format!("{path} {section}[{i}] ({regime}/{prec}{dev})")
}

fn check_fabric(path: &str, headline_floor: f64, band: f64) {
    let json = load(path, "fabric");
    for (i, row) in rows(&json, "rows", path).iter().enumerate() {
        let ctx = row_ctx(row, path, "rows", i);
        if !boolean(row, "bytes_equal", &ctx) {
            fail(&format!("{ctx}: executor bytes diverged from simulator"));
        }
        let ratio = num(row, "sim_ratio", &ctx);
        if !(1.0 / band..=band).contains(&ratio) {
            fail(&format!(
                "{ctx}: sim_ratio {ratio:.3} outside the {band:.1}x band"
            ));
        }
        let (sync, pipe) = (
            row.get("sync").unwrap_or_else(|| fail(&ctx)),
            row.get("pipelined").unwrap_or_else(|| fail(&ctx)),
        );
        for model in ["makespan_weak", "makespan_a100"] {
            let (s, p) = (num(sync, model, &ctx), num(pipe, model, &ctx));
            if p > s * REL_SLACK {
                fail(&format!(
                    "{ctx}: pipelined {model} {p:.6e} exceeds synchronous {s:.6e}"
                ));
            }
        }
    }
    let headline = json
        .get("headline_speedup_at_4plus")
        .and_then(|h| h.as_f64())
        .unwrap_or_else(|| fail(&format!("{path}: missing headline_speedup_at_4plus")));
    if headline < headline_floor {
        fail(&format!(
            "{path}: headline pipelined speedup at D>=4 is {headline:.3}x, \
             below the {headline_floor:.2}x floor"
        ));
    }
    if let Some(r) = json.get("f32_byte_ratio_worst").and_then(|r| r.as_f64()) {
        if r > 0.55 {
            fail(&format!("{path}: worst f32/f64 byte ratio {r:.3} > 0.55"));
        }
    }
    // Resilience section (present when the bench ran with --faults): every
    // chaos row must have reconciled with the extended simulator — charged
    // retry bytes included — and fault handling must never make the
    // modeled makespan *shorter* than the fault-free baseline (a ratio
    // below 1.0 would mean work or traffic silently vanished under
    // faults).
    let mut resilience_rows = 0;
    if let Some(res) = json.get("resilience").and_then(|r| r.as_array()) {
        if res.is_empty() {
            fail(&format!("{path}: resilience section is empty"));
        }
        for (i, row) in res.iter().enumerate() {
            let kind = row.get("kind").and_then(|k| k.as_str()).unwrap_or("?");
            let mode = row.get("mode").and_then(|m| m.as_str()).unwrap_or("?");
            let ctx = format!("{path} resilience[{i}] ({kind}/{mode})");
            if !boolean(row, "bytes_equal", &ctx) {
                fail(&format!(
                    "{ctx}: faulted bytes diverged from the extended simulator"
                ));
            }
            let ratio = num(row, "makespan_ratio", &ctx);
            if !ratio.is_finite() || ratio < 1.0 / REL_SLACK {
                fail(&format!(
                    "{ctx}: faulted/clean makespan ratio {ratio:.6} below 1.0"
                ));
            }
            uint(row, "retries", &ctx);
            resilience_rows = i + 1;
        }
    }
    println!(
        "bench_check: OK: {path} (headline {headline:.3}x, band {band:.1}x, \
         {resilience_rows} resilience rows)"
    );
}

fn check_solve(path: &str) {
    let json = load(path, "solvers_fabric");
    for (i, row) in rows(&json, "factor", path).iter().enumerate() {
        let ctx = row_ctx(row, path, "factor", i);
        let residual = num(row, "residual", &ctx);
        if residual > 1e-10 {
            fail(&format!("{ctx}: ULV residual {residual:.2e} > 1e-10"));
        }
        let gap = num(row, "schedule_gap", &ctx);
        if gap > 1e-13 {
            fail(&format!("{ctx}: batched vs per-node gap {gap:.2e} > 1e-13"));
        }
    }
    for (i, row) in rows(&json, "krylov", path).iter().enumerate() {
        let ctx = row_ctx(row, path, "krylov", i);
        let (plain, precond) = (
            uint(row, "plain_iters", &ctx),
            uint(row, "precond_iters", &ctx),
        );
        if precond > plain {
            fail(&format!(
                "{ctx}: ULV preconditioning regressed iterations ({precond} > {plain})"
            ));
        }
    }
    for (i, row) in rows(&json, "sharded_sweep", path).iter().enumerate() {
        let ctx = row_ctx(row, path, "sharded_sweep", i);
        if !boolean(row, "bytes_equal", &ctx) {
            fail(&format!("{ctx}: sweep bytes diverged from the plan"));
        }
        check_planned(&ctx, row, "makespan_weak", "sim_makespan_weak");
        check_planned(&ctx, row, "pipe_makespan_weak", "pipe_sim_makespan_weak");
        let (sync, pipe) = (
            num(row, "makespan_weak", &ctx),
            num(row, "pipe_makespan_weak", &ctx),
        );
        if pipe > sync * REL_SLACK {
            fail(&format!(
                "{ctx}: pipelined sweep makespan {pipe:.6e} exceeds synchronous {sync:.6e}"
            ));
        }
    }
    if let Some(r) = json
        .get("f32_sweep_wire_ratio_worst")
        .and_then(|r| r.as_f64())
    {
        if r > 0.55 {
            fail(&format!("{path}: worst f32 sweep wire ratio {r:.3} > 0.55"));
        }
    }
    println!("bench_check: OK: {path} (measured makespans == planned)");
}

fn check_serve(path: &str, serve_floor: f64) {
    let json = load(path, "serve");
    // Every amortization row must keep the trust invariant, the pipelined
    // schedule must never lose, and within each device count the amortized
    // per-RHS makespan at k = 32 must be strictly below k = 1 — the whole
    // point of coalescing requests into blocked sweeps.
    let mut per_rhs: Vec<(u64, u64, f64)> = Vec::new();
    for (i, row) in rows(&json, "amortization", path).iter().enumerate() {
        let d = row.get("devices").and_then(|d| d.as_u64()).unwrap_or(0);
        let k = row.get("k").and_then(|k| k.as_u64()).unwrap_or(0);
        let ctx = format!("{path} amortization[{i}] (D={d} k={k})");
        if !boolean(row, "bytes_equal", &ctx) {
            fail(&format!(
                "{ctx}: blocked sweep bytes diverged from the plan"
            ));
        }
        check_planned(&ctx, row, "makespan_a100", "sim_makespan_a100");
        check_planned(&ctx, row, "pipe_makespan_a100", "pipe_sim_makespan_a100");
        for model in ["makespan_a100", "makespan_weak"] {
            let (s, p) = (
                num(row, model, &ctx),
                num(row, &format!("pipe_{model}"), &ctx),
            );
            if p > s * REL_SLACK {
                fail(&format!(
                    "{ctx}: pipelined {model} {p:.6e} exceeds synchronous {s:.6e}"
                ));
            }
        }
        per_rhs.push((d, k, num(row, "per_rhs_a100", &ctx)));
    }
    for &(d, _, p1) in per_rhs.iter().filter(|&&(_, k, _)| k == 1) {
        let p32 = per_rhs
            .iter()
            .find(|&&(dd, k, _)| dd == d && k == 32)
            .map(|&(_, _, p)| p)
            .unwrap_or_else(|| fail(&format!("{path}: no k=32 amortization row for D={d}")));
        if p32 * REL_SLACK >= p1 {
            fail(&format!(
                "{path}: per-RHS makespan at k=32 ({p32:.6e}) is not strictly \
                 below k=1 ({p1:.6e}) for D={d}"
            ));
        }
    }
    let headline = json
        .get("amortized_speedup_at_k32_d4")
        .and_then(|h| h.as_f64())
        .unwrap_or_else(|| fail(&format!("{path}: missing amortized_speedup_at_k32_d4")));
    if headline < serve_floor {
        fail(&format!(
            "{path}: amortized speedup at k=32 D=4 is {headline:.3}x, \
             below the {serve_floor:.2}x floor"
        ));
    }
    let sim = json
        .get("serve_sim")
        .unwrap_or_else(|| fail(&format!("{path}: missing serve_sim section")));
    let ctx = format!("{path} serve_sim");
    if !boolean(sim, "bytes_equal", &ctx) {
        fail(&format!("{ctx}: served batches diverged from their plans"));
    }
    if uint(sim, "batches", &ctx) >= uint(sim, "completed", &ctx) {
        fail(&format!("{ctx}: no coalescing (batches >= requests)"));
    }
    if uint(sim, "cache_hits", &ctx) == 0 {
        fail(&format!("{ctx}: workload recorded no cache hit"));
    }
    if num(sim, "throughput_rhs_per_sec", &ctx) <= 0.0 {
        fail(&format!("{ctx}: non-positive modeled throughput"));
    }
    let (p50, p99) = (num(sim, "p50_latency", &ctx), num(sim, "p99_latency", &ctx));
    if p99 < p50 {
        fail(&format!("{ctx}: p99 latency {p99:.6e} below p50 {p50:.6e}"));
    }
    println!("bench_check: OK: {path} (amortized speedup {headline:.3}x, floor {serve_floor:.1}x)");
}

fn check_kernels(path: &str, gemm_floor_n: u64) {
    let json = load(path, "kernels");
    for (i, row) in rows(&json, "gemm", path).iter().enumerate() {
        let ctx = format!("{path} gemm[{i}]");
        let n = uint(row, "n", &ctx);
        let (naive, packed) = (
            num(row, "naive_gflops", &ctx),
            num(row, "packed_gflops", &ctx),
        );
        if naive <= 0.0 || packed <= 0.0 {
            fail(&format!("{ctx}: non-positive throughput"));
        }
        if n >= gemm_floor_n && packed < naive {
            fail(&format!(
                "{ctx}: packed GEMM ({packed:.2} GF/s) lost to naive ({naive:.2} GF/s) at n={n}"
            ));
        }
    }
    let batched = json
        .get("batched_apply")
        .unwrap_or_else(|| fail(&format!("{path}: missing batched_apply")));
    if num(batched, "gflops", path) <= 0.0 {
        fail(&format!("{path}: batched_apply throughput non-positive"));
    }
    let cm = json
        .get("construct_matvec")
        .unwrap_or_else(|| fail(&format!("{path}: missing construct_matvec")));
    for key in ["construct_secs", "matvec_secs"] {
        if num(cm, key, path) <= 0.0 {
            fail(&format!("{path}: construct_matvec.{key} non-positive"));
        }
    }
    println!("bench_check: OK: {path} (gemm floor at n>={gemm_floor_n})");
}

fn main() {
    let args = Args::parse();
    let headline_floor: f64 = args.get("headline-floor", 1.25);
    let band: f64 = args.get("band", 2.0);
    let gemm_floor_n: u64 = args.get("gemm-floor-n", 256);
    let serve_floor: f64 = args.get("serve-floor", 4.0);
    let mut checked = 0;
    if let Some(path) = args.get_opt("fabric") {
        check_fabric(&path, headline_floor, band);
        checked += 1;
    }
    if let Some(path) = args.get_opt("solve") {
        check_solve(&path);
        checked += 1;
    }
    if let Some(path) = args.get_opt("kernels") {
        check_kernels(&path, gemm_floor_n);
        checked += 1;
    }
    if let Some(path) = args.get_opt("serve") {
        check_serve(&path, serve_floor);
        checked += 1;
    }
    if checked == 0 {
        fail("nothing to check: pass --fabric, --solve, --kernels and/or --serve");
    }
    println!("bench_check: all {checked} envelope(s) OK");
}

//! One run of one workload: warm-up cycle, measured cycles, checks, and
//! the metrics that come out.
//!
//! A cycle visits the sections in a fixed order (set-up → construct →
//! matvec → matvec64 → factor → solve64 → pcg → probes), each through the
//! sampler, so every section is sampled across the whole window. All
//! end-to-end numbers come from untraced cycles; a traced run adds one
//! extra cycle under a tracer plus the one-shot diagnostics, and reports
//! the per-layer set.

use crate::adapter::{
    self, checksum, construct, pcg_solve, ConstructInfo, Dense, Factor, Operator, PcgOutcome,
    Problem, Trace, UlvShape,
};
use crate::stats::Sampler;
use crate::trace;
use crate::workload::{FactorKind, Spec, PCG_MAX_ITERS};
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Report the per-layer set from a traced run.
    pub trace: bool,
    pub trace_out: PathBuf,
    /// Two cycles, no window: exercises every path quickly.
    pub smoke: bool,
    pub digits_floor: f64,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct SectionSummary {
    pub name: &'static str,
    pub calls_per_cycle: usize,
    pub calls_per_sample: usize,
    /// Seconds per call, in the order they were taken.
    pub samples_s: Vec<f64>,
}

pub struct Report {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Probe max/min above 1.5: the machine changed speed under the run.
    pub disturbed: bool,
    pub noise_ratio: f64,
    pub probe_gflops: (f64, f64),
    pub cycles: usize,
    pub window_s: f64,
    /// Per section: calls per sample and the samples' spread.
    pub sections: Vec<SectionSummary>,
    pub self_time_table: Option<String>,
}

const PROBE_DIM: usize = 384;
/// Two arrays of this many doubles (64 MiB each): 16× the 4 MiB L2. The
/// host's 260 MiB L3 is shared and cannot be exceeded on this VM's memory
/// budget, so the figure is a ceiling for cache-missing sweeps, not DRAM.
const STREAM_LEN: usize = 8 << 20;
const EXACT_CHECK_ROWS: usize = 256;
const ULV_RESIDUAL_MAX: f64 = 1e-10;
const DISTURBED_RATIO: f64 = 1.5;
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Right-hand sides and probe operands, made once from the seed.
struct Inputs {
    x1: Dense,
    x64: Dense,
    probe_a: Dense,
    probe_b: Dense,
    /// Operands of the per-layer probes; `None` in an end-to-end run.
    layer: Option<LayerInputs>,
}

struct LayerInputs {
    leaf_a: Dense,
    leaf_b: Dense,
    omega: Dense,
    stream_src: Vec<f64>,
    stream_dst: Vec<f64>,
}

/// What must repeat bit for bit from cycle to cycle.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Fingerprint {
    memory_bits: u64,
    pcg_iters: usize,
    samples_total: usize,
    matvec_checksum: u64,
}

/// Values checked once per run, on the warm-up cycle's operator.
struct CheckValues {
    digits: f64,
    sampled_rows_error: f64,
    ulv_residual: Option<f64>,
}

struct CycleOut {
    problem: Problem,
    op: Operator,
    info: ConstructInfo,
    pcg: PcgOutcome,
    fingerprint: Fingerprint,
    checks: Option<CheckValues>,
}

/// Runs a section through the sampler, inside a bench-side span when the
/// cycle is traced.
struct Runner<'a> {
    sampler: &'a mut Sampler,
    trace: Option<&'a Trace>,
}

impl Runner<'_> {
    fn run<R>(&mut self, section: &'static str, f: impl FnMut() -> R) -> R {
        self.sample(section, true, f)
    }

    /// A machine-speed probe: one reading per cycle.
    fn probe(&mut self, section: &'static str, f: impl FnMut()) {
        self.sample(section, false, f)
    }

    fn sample<R>(&mut self, section: &'static str, split: bool, mut f: impl FnMut() -> R) -> R {
        match self.trace {
            None => self.sampler.run(section, split, f),
            Some(t) => self
                .sampler
                .run(section, split, || t.span(span_name(section), &mut f)),
        }
    }
}

/// Bench-side span of a section: `layer:call`.
fn span_name(section: &str) -> &'static str {
    match section {
        "setup" => "bench:setup",
        "construct" => "h2_core:sketch_construct",
        "matvec" => "h2_matrix:apply x1",
        "matvec64" => "h2_matrix:apply x64",
        "factor" => "h2_solve:factor",
        "solve64" => "h2_solve:solve x64",
        "solve1" => "h2_solve:solve x1",
        "pcg" => "h2_solve:pcg",
        "probe_gemm" => "h2_dense:gemm 384",
        "gemm_leaf" => "h2_dense:gemm leaf",
        "probe_stream" => "bench:stream",
        "kernel_entries" => "h2_kernels:block",
        "extract_entries" => "h2_matrix:extract block",
        "sampler_apply" => "h2_matrix:sampler apply",
        "bj_build" => "h2_solve:block-jacobi build",
        "bj_apply64" => "h2_solve:block-jacobi apply x64",
        _ => "bench:other",
    }
}

/// Evenly strided rows from a seeded offset: every part of the index range
/// (every region of the cluster tree) is sampled.
fn sampled_rows(n: usize, seed: u64) -> Vec<usize> {
    let count = EXACT_CHECK_ROWS.min(n);
    let offset = (seed % n as u64) as usize;
    (0..count).map(|i| (offset + i * n / count) % n).collect()
}

/// `‖K x − K̃ x‖₂ / ‖K x‖₂` over sampled rows of the exact operator, for a
/// positive `x` (so `K x` is not small against `‖K‖ ‖x‖`).
fn sampled_rows_error(problem: &Problem, op: &Operator, seed: u64) -> f64 {
    let n = problem.n();
    let mut x = adapter::zeros(n, 1);
    for j in 0..n {
        x[(j, 0)] = 1.0 + 0.5 * (j as f64).sin();
    }
    let rows = sampled_rows(n, seed);
    let exact = problem.target().exact_rows_times(&rows, &x);
    let mut y = adapter::zeros(n, 1);
    op.apply_into(&x, &mut y);
    let (mut err, mut norm) = (0.0, 0.0);
    for (k, &i) in rows.iter().enumerate() {
        err += (exact[k] - y[(i, 0)]).powi(2);
        norm += exact[k].powi(2);
    }
    (err / norm).sqrt()
}

/// One cycle. `previous` is dropped first, so at most one problem and one
/// constructed operator are alive while the next ones are built.
fn cycle(
    opts: &Options,
    inputs: &mut Inputs,
    run: &mut Runner<'_>,
    previous: Option<CycleOut>,
    with_checks: bool,
) -> Result<CycleOut, String> {
    drop(previous);
    let spec = &opts.spec;
    let trace = run.trace;

    let problem = run.run("setup", || {
        Problem::setup(spec, spec.geometry, opts.seed, trace)
    });
    run.sampler.record("tree_build", problem.tree_build_s);
    run.sampler.record("partition", problem.partition_s);
    run.sampler
        .record("direct_construct", problem.direct_construct_s);
    let n = problem.n();

    let target = problem.target();
    let (mut op, info) = run.run("construct", || {
        construct(&problem, &target, spec, opts.seed, trace)
    });

    let mut checks = with_checks.then(|| CheckValues {
        digits: target.digits(&op),
        sampled_rows_error: sampled_rows_error(&problem, &op, opts.seed),
        ulv_residual: None,
    });
    if spec.solve_shift != 0.0 {
        op.shift_diagonal(spec.solve_shift);
    }

    let mut y1 = adapter::zeros(n, 1);
    let mut y64 = adapter::zeros(n, 64);
    run.run("matvec", || op.apply_into(&inputs.x1, &mut y1));
    let matvec_checksum = checksum(&y1);
    run.run("matvec64", || op.apply_into(&inputs.x64, &mut y64));

    let factor = run.run("factor", || Factor::new(spec.factor, &op))?;
    run.run("solve64", || factor.solve_into(&inputs.x64, &mut y64));
    if let (Some(c), FactorKind::Ulv) = (checks.as_mut(), spec.factor) {
        let mut back = adapter::zeros(n, 64);
        op.apply_into(&y64, &mut back);
        c.ulv_residual = Some(adapter::relative_difference(&back, &inputs.x64));
    }

    let pcg_operator = if spec.pcg_on_reference {
        &problem.reference
    } else {
        &op
    };
    let pcg = run.run("pcg", || {
        pcg_solve(
            pcg_operator,
            &factor,
            &inputs.x1,
            PCG_MAX_ITERS,
            spec.pcg_rtol,
            trace,
        )
    });

    let mut probe_c = adapter::zeros(PROBE_DIM, PROBE_DIM);
    run.probe("probe_gemm", || {
        adapter::gemm_into(&inputs.probe_a, &inputs.probe_b, &mut probe_c)
    });

    if let Some(layer) = inputs.layer.as_mut() {
        let mut leaf_c = adapter::zeros(layer.leaf_a.rows(), layer.leaf_b.cols());
        run.run("gemm_leaf", || {
            adapter::gemm_into(&layer.leaf_a, &layer.leaf_b, &mut leaf_c)
        });
        run.run("probe_stream", || {
            for (d, s) in layer.stream_dst.iter_mut().zip(&layer.stream_src) {
                *d = 1.000_1 * s;
            }
            std::hint::black_box(&layer.stream_dst);
        });
        run.run("kernel_entries", || problem.kernel_entries_pass());
        run.run("extract_entries", || problem.extract_entries_pass());
        let mut y = adapter::zeros(n, layer.omega.cols());
        run.run("sampler_apply", || target.sample_into(&layer.omega, &mut y));
        run.run("solve1", || factor.solve_into(&inputs.x1, &mut y1));
        if spec.factor != FactorKind::BlockJacobi {
            // The 3-D workloads already time block-Jacobi as their factor.
            let bj = run.run("bj_build", || Factor::new(FactorKind::BlockJacobi, &op))?;
            run.run("bj_apply64", || bj.solve_into(&inputs.x64, &mut y64));
        }
    }

    let fingerprint = Fingerprint {
        memory_bits: op.memory_mib().to_bits(),
        pcg_iters: pcg.iterations,
        samples_total: info.samples_total,
        matvec_checksum,
    };
    drop(target);
    Ok(CycleOut {
        problem,
        op,
        info,
        pcg,
        fingerprint,
        checks,
    })
}

/// Outcome of the checks, counted as attempted operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = &opts.spec;
    let n = spec.geometry.n();
    let seed = opts.seed;

    let cold = Instant::now();
    drop(Problem::setup(spec, spec.geometry, seed, None));
    let setup_cold_s = cold.elapsed().as_secs_f64();

    let mut inputs = Inputs {
        x1: adapter::gaussian(n, 1, seed ^ 0xA1),
        x64: adapter::gaussian(n, 64, seed ^ 0xA2),
        probe_a: adapter::gaussian(PROBE_DIM, PROBE_DIM, 0xB1),
        probe_b: adapter::gaussian(PROBE_DIM, PROBE_DIM, 0xB2),
        layer: opts.trace.then(|| LayerInputs {
            leaf_a: adapter::gaussian(spec.leaf, spec.leaf, 0xB3),
            leaf_b: adapter::gaussian(spec.leaf, spec.initial_samples, 0xB4),
            omega: adapter::gaussian(n, spec.initial_samples, seed ^ 0xA3),
            stream_src: vec![1.0; if opts.smoke { 1 << 16 } else { STREAM_LEN }],
            stream_dst: vec![0.0; if opts.smoke { 1 << 16 } else { STREAM_LEN }],
        }),
    };

    // A traced run spends under half its time on cycles: the diagnostics
    // that follow need the rest, and none of its numbers is bounded.
    let (window_s, min_samples) = match (opts.smoke, opts.trace) {
        (true, _) => (0.0, 2),
        (false, true) => (0.4 * opts.seconds, 3),
        (false, false) => (opts.seconds, 8),
    };
    let mut sampler = Sampler::new(window_s, min_samples);
    let mut checks = Checks::default();

    // Warm-up cycle: sizes the batches, and its operator is the one the
    // accuracy checks look at.
    let mut runner = Runner {
        sampler: &mut sampler,
        trace: None,
    };
    let warm = cycle(opts, &mut inputs, &mut runner, None, true)?;
    let values = warm.checks.as_ref().expect("warm-up cycle computes checks");
    let digits = values.digits;
    checks.check(digits >= opts.digits_floor, || {
        format!(
            "construct_digits {digits:.3} below the floor {:.3}",
            opts.digits_floor
        )
    });
    let rows_error = values.sampled_rows_error;
    checks.check(rows_error <= 10.0 * spec.tol, || {
        format!("sampled exact rows differ by {rows_error:.3e}, over 10·tol")
    });
    let ulv_residual = values.ulv_residual;
    if let Some(r) = ulv_residual {
        checks.check(r <= ULV_RESIDUAL_MAX, || {
            format!("ULV 64-RHS residual {r:.3e} over {ULV_RESIDUAL_MAX:e}")
        });
    }
    let reference_print = warm.fingerprint;
    let mut deterministic = true;
    let mut all_converged = warm.pcg.converged;

    runner.sampler.open_window();
    let mut last = warm;
    let mut cycles = 0;
    // Statistics of the fastest construct seen.
    let mut best: Option<(f64, ConstructInfo)> = None;
    while runner.sampler.needs_another_cycle() {
        last = cycle(opts, &mut inputs, &mut runner, Some(last), false)?;
        cycles += 1;
        deterministic &= last.fingerprint == reference_print;
        all_converged &= last.pcg.converged;
        let took = *runner
            .sampler
            .get("construct")
            .samples
            .last()
            .expect("construct sampled this cycle");
        if best.as_ref().is_none_or(|(t, _)| took < *t) {
            best = Some((took, last.info.clone()));
        }
    }
    let measure_s = sampler.elapsed_s();
    checks.check(all_converged, || {
        format!("PCG did not converge to rtol {:e}", spec.pcg_rtol)
    });
    checks.check(deterministic, || {
        "memory, PCG iterations, samples or H2·x checksum changed between cycles".into()
    });

    let time = |name: &str| sampler.get(name).min();
    let (setup_s, construct_s) = (time("setup"), time("construct"));
    let (matvec_s, matvec64_s) = (time("matvec"), time("matvec64"));
    let (factor_s, solve64_s, pcg_s) = (time("factor"), time("solve64"), time("pcg"));
    let memory_mib = last.op.memory_mib();
    let pcg_iters = last.pcg.iterations as f64;
    let probe_flop = 2.0 * (PROBE_DIM as f64).powi(3);
    let probe = sampler.get("probe_gemm");
    let probe_gflops = (
        probe_flop / probe.max() * 1e-9,
        probe_flop / probe.min() * 1e-9,
    );
    let construct_series = sampler.get("construct");
    let noise_ratio = construct_series.median() / construct_series.min();

    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("construct_s", construct_s, "s"),
        metric("construct_digits", digits, "digits"),
        metric("h2_memory_mib", memory_mib, "MiB"),
        metric("matvec_s", matvec_s, "s"),
        metric("matvec64_s", matvec64_s, "s"),
        metric("factor_s", factor_s, "s"),
        metric("solve64_s", solve64_s, "s"),
        metric("pcg_s", pcg_s, "s"),
        metric("pcg_iters", pcg_iters, "count"),
        metric("time_to_solution_s", construct_s + factor_s + pcg_s, "s"),
        metric("peak_rss_mib", crate::env::peak_rss_mib(), "MiB"),
    ];

    let diagnostics = if opts.trace {
        Some(diagnose(opts, &mut inputs, &mut checks, last)?)
    } else {
        None
    };

    let sections: Vec<_> = sampler
        .sections()
        .map(|(name, s)| SectionSummary {
            name,
            calls_per_cycle: s.calls,
            calls_per_sample: s.per_sample,
            samples_s: s.samples.clone(),
        })
        .collect();
    // Every sampled batch is an attempted operation, and so is every check.
    let attempted = checks.attempted
        + sections
            .iter()
            .map(|s| s.samples_s.len() as u64)
            .sum::<u64>();

    let mut per_layer = Vec::new();
    let mut self_time_table = None;
    if let Some(d) = diagnostics {
        let (_, info) = best.as_ref().expect("at least one measured cycle");
        let phase_total: f64 = info.phase_seconds.iter().map(|(_, s)| s).sum();
        let layer = inputs
            .layer
            .as_ref()
            .expect("traced runs have layer inputs");
        let leaf_flop = 2.0 * (spec.leaf * spec.leaf * spec.initial_samples) as f64;
        let stream_bytes = 16.0 * layer.stream_src.len() as f64;
        let entries = d.probe_entries as f64;
        let ok = |b: bool| if b { 1.0 } else { 0.0 };
        let threads = std::thread::available_parallelism().map_or(0, |t| t.get());
        // ULV rows read zero on workloads whose operator has no ULV factor.
        let ulv = d.ulv.unwrap_or_default();
        let ulv_only = |v: f64| if d.ulv.is_some() { v } else { 0.0 };
        let (bj_build_s, bj_apply64_s) = if spec.factor == FactorKind::BlockJacobi {
            (factor_s, solve64_s)
        } else {
            (time("bj_build"), time("bj_apply64"))
        };
        let exponent = (d.construct_2n_s / construct_s).ln() / (d.doubled_n as f64 / n as f64).ln();

        per_layer = vec![
            metric("tree.build_s", time("tree_build"), "s"),
            metric("tree.partition_s", time("partition"), "s"),
            metric("tree.levels", d.tree_levels as f64, "count"),
            metric("tree.far_blocks", d.far_blocks as f64, "count"),
            metric("tree.near_blocks", d.near_blocks as f64, "count"),
            metric("tree.csp_near", d.csp_near as f64, "count"),
            metric(
                "kernels.entry_ns",
                time("kernel_entries") / entries * 1e9,
                "ns",
            ),
            metric("dense.gemm384_gflops", probe_gflops.1, "GF/s"),
            metric(
                "dense.gemm_leaf_gflops",
                leaf_flop / time("gemm_leaf") * 1e-9,
                "GF/s",
            ),
            metric(
                "dense.stream_gbs",
                stream_bytes / time("probe_stream") * 1e-9,
                "GB/s",
            ),
            metric("dense.probe_gflops_min", probe_gflops.0, "GF/s"),
            metric("dense.probe_gflops_max", probe_gflops.1, "GF/s"),
            metric("matrix.direct_construct_s", time("direct_construct"), "s"),
            metric("matrix.sampler_apply_s", time("sampler_apply"), "s"),
            metric(
                "matrix.entry_extract_ns",
                time("extract_entries") / entries * 1e9,
                "ns",
            ),
            metric("matrix.rank_min", d.rank_range.0 as f64, "count"),
            metric("matrix.rank_max", d.rank_range.1 as f64, "count"),
            metric("matrix.dense_mib", d.dense_mib, "MiB"),
            metric("matrix.lowrank_mib", d.lowrank_mib, "MiB"),
            metric(
                "matrix.matvec_gbs",
                memory_mib * 1.048_576e-3 / matvec_s,
                "GB/s",
            ),
            metric("matrix.matvec64_per_rhs_us", matvec64_s / 64.0 * 1e6, "us"),
            metric("runtime.phase.sampling_s", info.phase("sampling"), "s"),
            metric("runtime.phase.rand_s", info.phase("rand"), "s"),
            metric("runtime.phase.bsr_gemm_s", info.phase("bsr_gemm"), "s"),
            metric("runtime.phase.entry_gen_s", info.phase("entry_gen"), "s"),
            metric(
                "runtime.phase.convergence_test_s",
                info.phase("convergence_test"),
                "s",
            ),
            metric("runtime.phase.id_s", info.phase("id"), "s"),
            metric("runtime.phase.upsweep_s", info.phase("upsweep"), "s"),
            metric("runtime.phase.misc_s", info.phase("misc"), "s"),
            metric(
                "runtime.phase.attributed_frac",
                phase_total / info.elapsed_s,
                "frac",
            ),
            metric(
                "runtime.launches_total",
                info.launches_total as f64,
                "count",
            ),
            metric(
                "runtime.bsr_gemm_launches",
                info.bsr_gemm_launches as f64,
                "count",
            ),
            metric(
                "runtime.gemm_pack_calls",
                info.gemm_pack_calls as f64,
                "count",
            ),
            metric("runtime.pack_mib", info.pack_mib, "MiB"),
            metric("core.samples_total", info.samples_total as f64, "count"),
            metric("core.adaptive_rounds", info.adaptive_rounds as f64, "count"),
            metric("core.norm_estimate", info.norm_estimate, "norm"),
            metric("core.construct_med_s", construct_series.median(), "s"),
            metric("core.construct_max_s", construct_series.max(), "s"),
            metric("core.construct_2n_s", d.construct_2n_s, "s"),
            metric("core.construct_exponent", exponent, "exponent"),
            metric("solve.ulv_factor_s", ulv_only(factor_s), "s"),
            metric("solve.ulv_factor_pernode_s", d.ulv_per_node_s, "s"),
            metric(
                "solve.ulv_factor_gflops",
                ulv.flops / factor_s * 1e-9,
                "GF/s",
            ),
            metric("solve.ulv_memory_mib", ulv.memory_mib, "MiB"),
            metric("solve.ulv_root_size", ulv.root_size as f64, "count"),
            metric("solve.ulv_sweep1_s", ulv_only(time("solve1")), "s"),
            metric("solve.ulv_sweep64_s", ulv_only(solve64_s), "s"),
            metric(
                "solve.ulv_residual",
                ulv_residual.unwrap_or(0.0),
                "residual",
            ),
            metric("solve.bj_build_s", bj_build_s, "s"),
            metric("solve.bj_apply64_s", bj_apply64_s, "s"),
            metric("solve.pcg_residual", d.pcg_residual, "residual"),
            metric("solve.pcg_s_per_iter", pcg_s / pcg_iters, "s"),
            metric("sched.matvec_bytes_d2", d.sched_bytes as f64, "bytes"),
            metric("sched.matvec_modeled_s_d2", d.sched_modeled_s, "s"),
            metric("sched.bytes_equal_sim", ok(d.sched_equal), "bool"),
            metric("obs.trace_events", d.trace_events as f64, "count"),
            metric("obs.trace_dropped", d.trace_dropped as f64, "count"),
            metric(
                "obs.trace_overhead_frac",
                d.traced_construct_s / construct_s - 1.0,
                "frac",
            ),
            metric("obs.span_coverage_frac", d.span_coverage, "frac"),
            metric("bench.threads", threads as f64, "count"),
            metric("bench.cycles", cycles as f64, "count"),
            metric("bench.measure_s", measure_s, "s"),
            metric("bench.setup_cold_s", setup_cold_s, "s"),
            metric("bench.noise_ratio", noise_ratio, "ratio"),
            metric("bench.determinism_ok", ok(deterministic), "bool"),
            metric("bench.ops_attempted", attempted as f64, "count"),
            metric("bench.ops_failed", checks.failures.len() as f64, "count"),
        ];
        self_time_table = Some(d.self_time_table);
    }

    Ok(Report {
        end_to_end,
        per_layer,
        attempted,
        failures: checks.failures,
        disturbed: probe_gflops.1 / probe_gflops.0 > DISTURBED_RATIO,
        noise_ratio,
        probe_gflops,
        cycles,
        window_s,
        sections,
        self_time_table,
    })
}

/// What only a traced run measures.
struct Diagnostics {
    span_coverage: f64,
    traced_construct_s: f64,
    trace_events: usize,
    trace_dropped: u64,
    self_time_table: String,
    construct_2n_s: f64,
    doubled_n: usize,
    sched_bytes: u64,
    sched_modeled_s: f64,
    sched_equal: bool,
    ulv: Option<UlvShape>,
    ulv_per_node_s: f64,
    tree_levels: usize,
    far_blocks: usize,
    near_blocks: usize,
    csp_near: usize,
    probe_entries: usize,
    rank_range: (usize, usize),
    dense_mib: f64,
    lowrank_mib: f64,
    pcg_residual: f64,
}

/// One more cycle under a tracer, then the one-shot diagnostics. Nothing
/// measured here feeds an end-to-end metric.
fn diagnose(
    opts: &Options,
    inputs: &mut Inputs,
    checks: &mut Checks,
    last: CycleOut,
) -> Result<Diagnostics, String> {
    let spec = &opts.spec;
    let tracer = Trace::new();
    let mut traced = Sampler::new(0.0, 1);
    traced.open_window();
    let mut runner = Runner {
        sampler: &mut traced,
        trace: Some(&tracer),
    };
    let last = tracer.span("cycle", || {
        cycle(opts, inputs, &mut runner, Some(last), false)
    })?;
    let drained = tracer
        .finish(&opts.trace_out)
        .map_err(|e| format!("writing {}: {e}", opts.trace_out.display()))?;
    let span_coverage = trace::coverage_of(&drained.spans, "cycle");
    checks.check(span_coverage >= MIN_SPAN_COVERAGE, || {
        format!("bench spans cover {span_coverage:.3} of the traced cycle")
    });
    let self_time_table = trace::render(&trace::self_time_table(&drained.spans));

    // Tracing overhead: the traced cycle's construct and three more under a
    // throw-away tracer, best of four against the best untraced one. One
    // shot would measure the machine's mood, not the tracer.
    let mut traced_construct_s = traced.get("construct").min();
    let scratch_tracer = Trace::new();
    let target = last.problem.target();
    for _ in 0..3 {
        let t0 = Instant::now();
        drop(construct(
            &last.problem,
            &target,
            spec,
            opts.seed,
            Some(&scratch_tracer),
        ));
        traced_construct_s = traced_construct_s.min(t0.elapsed().as_secs_f64());
    }
    drop(target);

    let doubled = spec.geometry.doubled();
    let big = Problem::setup(spec, doubled, opts.seed, None);
    let t0 = Instant::now();
    let built = construct(&big, &big.target(), spec, opts.seed, None);
    let construct_2n_s = t0.elapsed().as_secs_f64();
    drop(built);
    drop(big);

    let (sched_bytes, sched_modeled_s, sched_equal) = last.op.sharded_matvec_bytes(&inputs.x1);
    checks.check(sched_equal, || {
        "sharded matvec bytes differ from the simulator".into()
    });

    let (ulv, ulv_per_node_s) = match spec.factor {
        FactorKind::BlockJacobi => (None, 0.0),
        FactorKind::Ulv => {
            let shape = Factor::new(FactorKind::Ulv, &last.op)?.ulv_shape();
            let t0 = Instant::now();
            drop(Factor::ulv_per_node(&last.op)?);
            (shape, t0.elapsed().as_secs_f64())
        }
    };

    let p = &last.problem;
    Ok(Diagnostics {
        span_coverage,
        traced_construct_s,
        trace_events: drained.events,
        trace_dropped: drained.dropped,
        self_time_table,
        construct_2n_s,
        doubled_n: doubled.n(),
        sched_bytes,
        sched_modeled_s,
        sched_equal,
        ulv,
        ulv_per_node_s,
        tree_levels: p.tree_levels(),
        far_blocks: p.far_blocks(),
        near_blocks: p.near_blocks(),
        csp_near: p.csp_near(),
        probe_entries: p.probe_entry_count(),
        rank_range: last.op.rank_range(),
        dense_mib: last.op.dense_mib(),
        lowrank_mib: last.op.lowrank_mib(),
        pcg_residual: last.pcg.relative_residual,
    })
}

//! Deterministic single-server event loop over the cache + queue.
//!
//! Time is modeled, never measured: batches are served with the *real*
//! fabric-sharded blocked sweep, but their duration is the execution
//! report's modeled makespan under the configured
//! [`h2_runtime::DeviceModel`], and a cache miss is charged the factor's
//! modeled (re)build time `factor_flops / flops_per_sec`. Every batch
//! checks the trust invariant: measured fabric transfer bytes equal those
//! of the `h2_sched::plan_ulv_solve` schedule the sweep executed at that
//! batch's RHS width.

use crate::cache::{CachedOperator, OpKey, OperatorCache};
use crate::queue::{AdmissionPolicy, AdmissionQueue, Batch, Request};
use h2_dense::Mat;
use h2_runtime::{DeviceModel, PipelineMode};
use h2_sched::{plan_ulv_solve, shard_ulv_solve_with_report, DeviceFabric};

/// Service configuration: device fabric shape, device model, admission
/// policy and cache budget.
pub struct ServeConfig {
    pub devices: usize,
    pub mode: PipelineMode,
    pub model: DeviceModel,
    pub policy: AdmissionPolicy,
    pub cache_budget_bytes: usize,
}

/// One served request: its solution columns and modeled latency.
pub struct Response {
    pub id: u64,
    pub x: Mat,
    pub latency: f64,
}

/// Aggregate service metrics over one workload (all times modeled).
#[derive(Clone, Debug)]
pub struct ServeReport {
    pub completed: usize,
    pub total_rhs: usize,
    pub batches: usize,
    pub mean_batch_width: f64,
    /// Modeled time from first arrival to last completion.
    pub makespan: f64,
    pub throughput_rhs_per_sec: f64,
    pub p50_latency: f64,
    pub p99_latency: f64,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub cache_evictions: usize,
    /// Summed measured fabric bytes across batches.
    pub solve_bytes: u64,
    /// Summed planned bytes (`h2_sched::plan_ulv_solve`) across batches.
    pub predicted_bytes: u64,
    /// Whether every batch executed its plan exactly
    /// ([`h2_sched::ExecReport::check`]).
    pub bytes_equal: bool,
    /// Modeled seconds spent (re)building factors on cache misses.
    pub factor_seconds: f64,
}

/// Single-server operator service simulation. `build` constructs the
/// operator pair for a key on a cache miss (the modeled *cost* of the miss
/// is taken from the built factor, not from the builder's wall clock).
pub struct ServeSim<'a> {
    cfg: ServeConfig,
    cache: OperatorCache,
    build: Box<dyn Fn(&OpKey) -> CachedOperator + 'a>,
}

/// Nearest-rank percentile of a latency sample (deterministic; `q` in
/// `[0, 1]`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl<'a> ServeSim<'a> {
    pub fn new(cfg: ServeConfig, build: impl Fn(&OpKey) -> CachedOperator + 'a) -> Self {
        let cache = OperatorCache::new(cfg.cache_budget_bytes);
        ServeSim {
            cfg,
            cache,
            build: Box::new(build),
        }
    }

    /// Cache statistics accessor (for post-run assertions).
    pub fn cache(&self) -> &OperatorCache {
        &self.cache
    }

    /// Run a workload to completion: admit every request, coalesce, serve
    /// each batch with the sharded blocked sweep, drain the queue at the
    /// end. Requests are admitted in arrival order; returns the per-request
    /// responses (in completion order) and the aggregate report.
    pub fn run(&mut self, mut requests: Vec<Request>) -> (Vec<Response>, ServeReport) {
        requests.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let total_rhs: usize = requests.iter().map(|r| r.width()).sum();
        let first_arrival = requests.first().map(|r| r.arrival).unwrap_or(0.0);

        let mut pending: std::collections::VecDeque<Request> = requests.into();
        let mut queue = AdmissionQueue::new(self.cfg.policy);
        let mut clock = first_arrival;
        let mut responses = Vec::new();
        let mut latencies = Vec::new();
        let mut batches = 0usize;
        let mut width_sum = 0usize;
        let mut solve_bytes = 0u64;
        let mut predicted_bytes = 0u64;
        let mut bytes_equal = true;
        let mut factor_seconds = 0.0;

        loop {
            // Admit every arrival that has happened by `clock`.
            while pending.front().map(|r| r.arrival <= clock) == Some(true) {
                queue.push(pending.pop_front().expect("checked front"));
            }
            if let Some(b) = queue.poll(clock) {
                batches += 1;
                width_sum += b.width();
                let done = self.serve_batch(&b, &mut clock, &mut factor_seconds);
                solve_bytes += done.measured_bytes;
                predicted_bytes += done.predicted_bytes;
                bytes_equal &= done.exact;
                for resp in done.responses {
                    latencies.push(resp.latency);
                    responses.push(resp);
                }
                continue;
            }
            // Nothing fires now: jump to the next event. Every arrival
            // at or before `clock` is admitted, and a deadline at `clock`
            // would have fired above, so the clock strictly advances.
            clock = match (pending.front().map(|r| r.arrival), queue.next_deadline()) {
                (Some(a), Some(d)) => a.min(d).max(clock),
                (Some(a), None) => a.max(clock),
                (None, Some(d)) => d.max(clock),
                (None, None) => break,
            };
        }

        latencies.sort_by(f64::total_cmp);
        let makespan = (clock - first_arrival).max(0.0);
        let report = ServeReport {
            completed: responses.len(),
            total_rhs,
            batches,
            mean_batch_width: if batches > 0 {
                width_sum as f64 / batches as f64
            } else {
                0.0
            },
            makespan,
            throughput_rhs_per_sec: if makespan > 0.0 {
                total_rhs as f64 / makespan
            } else {
                0.0
            },
            p50_latency: percentile(&latencies, 0.50),
            p99_latency: percentile(&latencies, 0.99),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            solve_bytes,
            predicted_bytes,
            bytes_equal,
            factor_seconds,
        };
        (responses, report)
    }

    fn serve_batch(&mut self, batch: &Batch, clock: &mut f64, factor_seconds: &mut f64) -> Served {
        // Operator lookup; a miss charges the modeled factorization time.
        let op = match self.cache.get(&batch.key) {
            Some(op) => op,
            None => {
                let op = (self.build)(&batch.key);
                let rebuild = op.ulv.factor_flops() / self.cfg.model.flops_per_sec;
                *clock += rebuild;
                *factor_seconds += rebuild;
                self.cache.insert(batch.key.clone(), op.clone());
                op
            }
        };

        // Gather the coalesced RHS block: one zero-copy column-group view
        // per request, written side by side.
        let n = op.ulv.n();
        let width = batch.width();
        let mut rhs = Mat::zeros(n, width);
        let mut c0 = 0;
        for req in &batch.requests {
            assert_eq!(req.rhs.rows(), n, "request rhs rows mismatch");
            rhs.col_block_mut(c0, req.width()).copy_from(req.rhs.rf());
            c0 += req.width();
        }

        // One blocked sharded sweep for the whole batch, checked against
        // its plan at this width.
        let fabric = match self.cfg.mode {
            PipelineMode::Pipelined => DeviceFabric::pipelined(self.cfg.devices),
            _ => DeviceFabric::new(self.cfg.devices),
        };
        let (x, report) = shard_ulv_solve_with_report(&fabric, &op.ulv, &rhs);
        let plan = plan_ulv_solve(&op.ulv, width, report.devices, report.mode, report.wire);
        let service = report.modeled_makespan(&self.cfg.model);
        *clock += service;

        // Scatter: each request's columns come back as one zero-copy view.
        let mut responses = Vec::with_capacity(batch.requests.len());
        let mut c0 = 0;
        for req in &batch.requests {
            responses.push(Response {
                id: req.id,
                x: x.col_block(c0, req.width()).to_mat(),
                latency: *clock - req.arrival,
            });
            c0 += req.width();
        }
        Served {
            measured_bytes: report.total_comm_bytes(),
            predicted_bytes: plan.total_comm_bytes(),
            exact: report.check(&plan, None).is_ok(),
            responses,
        }
    }
}

struct Served {
    measured_bytes: u64,
    predicted_bytes: u64,
    /// The sweep executed its plan ([`h2_sched::ExecReport::check`]).
    exact: bool,
    responses: Vec<Response>,
}

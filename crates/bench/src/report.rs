//! Unified benchmark-report serialization and the shared `--trace` sink.
//!
//! Every bench binary used to hand-roll its JSON with `format!` strings;
//! this module replaces those with one writer built on [`h2_obs::Json`],
//! so all `BENCH_*.json` files share a schema envelope:
//!
//! ```json
//! {
//!   "meta": {
//!     "schema": 2,
//!     "bench": "fabric",
//!     "git_rev": "abc123def456",
//!     "threads": 8,
//!     "timestamp_unix": 1754700000,
//!     "precisions": ["f64"],
//!     "device_models": { "a100_10TFs": { "flops_per_sec": 1e13, ... } }
//!   },
//!   "config": { ... },      // bench-specific knobs
//!   ...                      // bench-specific sections, insertion order
//! }
//! ```
//!
//! [`TraceSink`] is the matching observability hook: constructed from the
//! common `--trace <path>` flag, it hands out a shared
//! [`h2_obs::Tracer`] for runtimes and fabrics to emit into and
//! writes a Chrome-trace JSON (Perfetto-loadable) on
//! [`TraceSink::finish`].

use crate::Args;
use h2_obs::{ChromeTrace, Json, Tracer};
use h2_runtime::{DeviceModel, Precision, Runtime};
use h2_sched::DeviceFabric;
use std::sync::Arc;

/// Bumped whenever the shared envelope changes shape.
pub const SCHEMA_VERSION: u64 = 2;

/// Best-effort short git revision of the working tree ("unknown" outside a
/// repo or without git on PATH — benches must run anywhere).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn timestamp_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn model_json(m: &DeviceModel) -> Json {
    Json::obj(vec![
        ("flops_per_sec", Json::Num(m.flops_per_sec)),
        ("link_bandwidth", Json::Num(m.link_bandwidth)),
        ("link_latency", Json::Num(m.link_latency)),
        ("launch_overhead", Json::Num(m.launch_overhead)),
        ("entry_cost", Json::Num(m.entry_cost)),
    ])
}

/// One benchmark report: a shared meta envelope plus bench-specific
/// sections appended in insertion order.
pub struct BenchReport {
    bench: String,
    precisions: Vec<Precision>,
    models: Vec<(String, DeviceModel)>,
    sections: Vec<(String, Json)>,
}

impl BenchReport {
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            precisions: Vec::new(),
            models: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Record the wire/storage precisions this run exercised.
    pub fn precisions(&mut self, precs: &[Precision]) -> &mut Self {
        self.precisions = precs.to_vec();
        self
    }

    /// Record a named device model used for makespan projections.
    pub fn device_model(&mut self, name: &str, model: &DeviceModel) -> &mut Self {
        self.models.push((name.to_string(), *model));
        self
    }

    /// Append a top-level section (configs, row arrays, headline scalars).
    pub fn section(&mut self, key: &str, value: Json) -> &mut Self {
        self.sections.push((key.to_string(), value));
        self
    }

    pub fn to_json(&self) -> Json {
        let mut meta = vec![
            ("schema", Json::u64(SCHEMA_VERSION)),
            ("bench", Json::str(self.bench.clone())),
            ("git_rev", Json::str(git_rev())),
            ("threads", Json::u64(rayon::current_num_threads() as u64)),
            ("timestamp_unix", Json::u64(timestamp_unix())),
        ];
        if !self.precisions.is_empty() {
            meta.push((
                "precisions",
                Json::Arr(
                    self.precisions
                        .iter()
                        .map(|p| Json::str(p.name()))
                        .collect(),
                ),
            ));
        }
        if !self.models.is_empty() {
            meta.push((
                "device_models",
                Json::Obj(
                    self.models
                        .iter()
                        .map(|(k, m)| (k.clone(), model_json(m)))
                        .collect(),
                ),
            ));
        }
        let mut top = vec![("meta".to_string(), Json::obj(meta))];
        top.extend(self.sections.iter().cloned());
        Json::Obj(top)
    }

    /// Pretty-print to `path` and announce it on stdout.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.to_json().pretty()).expect("write benchmark json");
        println!("\nwrote {path}");
    }
}

/// The shared `--trace <path>` hook: one tracer that every runtime and
/// fabric in a bench can emit into, flushed to a Chrome-trace file at the
/// end of the run. Without the flag, every method is a no-op and the
/// traced code pays only a relaxed atomic load per hook site.
pub struct TraceSink {
    tracer: Option<Arc<Tracer>>,
    path: Option<String>,
}

impl TraceSink {
    /// Ring capacity: benches emit O(levels × devices) spans plus one
    /// instant per transfer; 1M events absorbs the largest default run.
    const CAPACITY: usize = 1 << 20;

    pub fn from_args(args: &Args) -> Self {
        let path = args.get_opt("trace");
        TraceSink {
            tracer: path.as_ref().map(|_| Tracer::new(Self::CAPACITY)),
            path,
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    /// A parallel runtime with the sink's tracer attached (plain
    /// `Runtime::parallel()` when tracing is off).
    pub fn runtime(&self) -> Runtime {
        match self.tracer() {
            Some(t) => Runtime::parallel().with_tracer(t),
            None => Runtime::parallel(),
        }
    }

    /// Attach the sink's tracer to a fabric (no-op when tracing is off).
    pub fn attach(&self, fabric: &DeviceFabric) {
        if let Some(t) = self.tracer() {
            fabric.set_tracer(Some(t));
        }
    }

    /// Drain the recorded spans into a span-only Chrome trace at the
    /// `--trace` path. Benches with a fabric report to render should use
    /// [`h2_sched::export_chrome_trace_with_spans`] instead and pass the
    /// drained events.
    pub fn finish(&self) {
        let (Some(tracer), Some(path)) = (&self.tracer, &self.path) else {
            return;
        };
        let events = tracer.drain();
        let mut tr = ChromeTrace::new();
        tr.process_name(0, "host threads");
        tr.process_name(1, "devices");
        tr.add_span_events(&events, 0, 1);
        tr.write(path).expect("write chrome trace");
        println!("wrote {path} ({} trace events)", tr.len());
    }

    /// The `--trace` path, for benches that write a richer merged trace
    /// themselves.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

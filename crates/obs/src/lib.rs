//! # h2-obs
//!
//! The unified observability layer: a span/event tracer, a metrics
//! registry, a Chrome trace-event exporter and a sim-drift attributor —
//! zero external dependencies, so every crate in the workspace can emit
//! without pulling anything into the offline build.
//!
//! The stack previously measured itself through four disconnected
//! surfaces: `h2_runtime::Profile` launch/phase counters, the fabric's
//! `EpochLog`, the dense layer's `h2_dense::gemm::stats` counters (counted
//! into the runtime each call runs under), and per-binary printing. This
//! crate is the one place they reconcile: the same accounting records
//! that back the simulator-equality tests render as a per-device
//! timeline, and the metric totals are **exact** (u64 sums),
//! so `metrics.counter("fabric.comm_bytes") == ExecReport::total_comm_bytes()`
//! is an equality, not an approximation.
//!
//! ## Span taxonomy
//!
//! Spans carry a `cat` (category) naming the layer that emitted them:
//!
//! | `cat` | emitted by | meaning |
//! |---|---|---|
//! | `phase` | `Runtime::phase` | one profiled runtime phase (Sketch, QR, ID, …) |
//! | `construct` | `h2_core::construct` | one level of Algorithm 1's bottom-up loop |
//! | `ulv` | `h2_solve::ulv` | one per-level batched factor phase (rotate/eliminate/pass-up) |
//! | `krylov` | `h2_solve::krylov` | one Krylov iteration (instant, with the residual) |
//! | `job` | fabric workers | one enqueued job on a device track (wait + run) |
//! | `fabric` | fabric control path | enqueue/flush/epoch-close instants |
//! | `transfer` | fabric transfer paths | one cross-device copy (bytes, kind, precision) |
//! | `arena` | fabric epoch boundary | per-epoch workspace release instants |
//!
//! Thread-track spans nest through a thread-local scope stack; the parent
//! span id is preserved in the export (`args.parent`).
//!
//! ## Loading a trace in Perfetto
//!
//! Write a trace with `--trace out.json` on any bench binary (or
//! `h2_sched::trace::export_chrome_trace`), open
//! <https://ui.perfetto.dev>, and drag the file in — `chrome://tracing`
//! accepts the same file. Process rows group the tracks: "fabric
//! devices" holds one row per virtual device (busy/stall/overlapped/idle
//! slices per epoch tile the epoch span exactly), "fabric links" holds
//! the per-destination transfer instants with `bytes`/`kind`/`prec`
//! arguments, and "host threads" holds the `Runtime::phase`-level spans.
//!
//! ## Drift attribution and the §IV.B cost model
//!
//! The simulator (`h2_runtime::multidev`) prices each construction level
//! with the paper's §IV.B terms: batched-kernel compute at the device
//! flop rate, cross-device traffic at link bandwidth + per-message
//! latency, and `active·(6 + Csp)` kernel launches at a fixed overhead.
//! The executor projects its *measured* per-epoch counters through the
//! same `DeviceModel`-priced formula. A
//! [`DriftTable`] pairs the two per epoch and decomposes the makespan
//! ratio: each row's `share = measured_e / predicted_total` sums exactly
//! to the observed ratio, and each row splits into the model's own
//! compute/comm/launch terms — so a 1.8x band reads as e.g. "0.6 of the
//! ratio is the leaf level's launch overhead", mapped one-to-one onto
//! the cost model's vocabulary.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chrome;
pub mod drift;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod span;

pub use chrome::{ns_to_us, ChromeTrace};
pub use drift::{DriftPart, DriftRow, DriftTable};
pub use json::Json;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, MetricsSnapshot, Registry};
pub use ring::Ring;
pub use span::{current_thread_track, ArgValue, Event, SpanGuard, Tracer, Track};

//! The device runtime: backend selection, the chunk runner and profiling.
//!
//! The paper runs one code base on both CPU and GPU (Thrust backends).
//! [`Runtime`] mirrors that: every batched kernel takes a `&Runtime` and
//! states its per-entry work once, as a body over a chunk of batch entries.
//! The chunk runner ([`Runtime::for_each_entry`], [`Runtime::map`]) is the
//! only code that reads the [`Backend`], and all it decides is which entries
//! form a chunk and where the chunk runs:
//!
//! * [`Backend::Sequential`] (the paper's "CPU" reference): one chunk of
//!   every entry, in index order, on the calling thread;
//! * [`Backend::Parallel`] (the "GPU" configuration, batch entries playing
//!   thread blocks): contiguous chunks of roughly equal estimated cost
//!   ([`cost_chunk_bounds`], ~4 per pool thread) on the work-stealing pool;
//! * [`Backend::Sharded`] (the §IV.B multi-GPU decomposition): one job per
//!   virtual device over its [`owner`] chunk — exactly the chunk the
//!   construction plan charges it and the chunk its fetch tickets are filed
//!   under (`batchedGen` deals its blocks round-robin, as the plan charges
//!   them).

use crate::batch::{cost_chunk_bounds, VarBatch};
use crate::multidev::owner;
use crate::profile::{Kernel, Phase, Profile};
use crate::shard::{ShardDispatch, ShardJob};
use h2_dense::{MatMut, MatRef};
use rayon::prelude::*;
use std::sync::Arc;

/// Execution backend for batched kernels.
#[derive(Clone)]
pub enum Backend {
    /// One thread, entries processed in order (the single-thread
    /// reference; the paper's OpenMP CPU baseline is `Parallel`).
    Sequential,
    /// Entries processed by the rayon pool (paper's GPU batched execution).
    Parallel,
    /// Entries sharded in contiguous owner chunks across the virtual
    /// devices of a [`ShardDispatch`] fabric (the §IV.B multi-GPU
    /// decomposition).
    Sharded(Arc<dyn ShardDispatch>),
}

/// Shared handle passed to every batched operation.
pub struct Runtime {
    backend: Backend,
    profile: Profile,
    tracer: Option<Arc<h2_obs::Tracer>>,
}

impl Runtime {
    pub fn new(backend: Backend) -> Self {
        Runtime {
            backend,
            profile: Profile::new(),
            tracer: None,
        }
    }

    pub fn sequential() -> Self {
        Runtime::new(Backend::Sequential)
    }

    pub fn parallel() -> Self {
        Runtime::new(Backend::Parallel)
    }

    /// A runtime executing every batched kernel sharded across the virtual
    /// devices of `dispatch` (implemented by `h2_sched::DeviceFabric`).
    pub fn sharded(dispatch: Arc<dyn ShardDispatch>) -> Self {
        Runtime::new(Backend::Sharded(dispatch))
    }

    /// Attach an observability tracer: [`Runtime::phase`] and the batched
    /// drivers (construction level loop, ULV per-level phases) emit scoped
    /// spans into it. `None` (the default) costs nothing on any hot path.
    pub fn set_tracer(&mut self, tracer: Arc<h2_obs::Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Builder form of [`Runtime::set_tracer`].
    pub fn with_tracer(mut self, tracer: Arc<h2_obs::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<h2_obs::Tracer>> {
        self.tracer.as_ref()
    }

    /// Open a scoped span when a tracer is attached (the name closure only
    /// runs then, so untraced runs pay nothing for the formatting).
    pub fn trace_span(
        &self,
        cat: &'static str,
        name: impl FnOnce() -> String,
    ) -> Option<h2_obs::SpanGuard<'_>> {
        self.tracer.as_ref().map(|t| t.span(cat, name()))
    }

    /// The device fabric of a sharded runtime (`None` otherwise).
    pub fn shard_dispatch(&self) -> Option<&Arc<dyn ShardDispatch>> {
        match &self.backend {
            Backend::Sharded(d) => Some(d),
            _ => None,
        }
    }

    /// Run `f` as one chain scope of a pipelined fabric: each kernel's
    /// closing flush inside it records a dependency boundary instead of
    /// blocking, so consecutive batched kernels run back-to-back per device,
    /// ordered by job-completion tickets, and one real barrier closes the
    /// scope before `chained` returns. Off the fabric it just runs `f`.
    ///
    /// Borrow rule: every buffer a chained job borrows is bound outside the
    /// closure, since a queued job may still read it when `f` returns.
    /// Host code inside may plan from shapes but never reads job-written
    /// data before `chained` returns.
    pub fn chained<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(d) = self.shard_dispatch() else {
            return f();
        };
        d.chain_begin();
        let r = f();
        d.chain_end();
        r
    }

    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Record a kernel launch (the unit the paper's §IV.B analysis counts).
    pub fn launch(&self, k: Kernel) {
        self.profile.record_launch(k);
    }

    pub fn launches(&self, k: Kernel, n: usize) {
        self.profile.record_launches(k, n);
    }

    /// Time a phase of the construction. Every dense-layer packing/gemv
    /// call inside `f` — on this thread or on the pool tasks and device
    /// jobs it submits — is counted into the runtime the call runs under,
    /// this one's profile, so the blocked-GEMM structure shows up in the
    /// launch accounting without the dense crate depending on this one.
    pub fn phase<R>(&self, p: Phase, f: impl FnOnce() -> R) -> R {
        let _span = self.tracer.as_ref().map(|t| t.span("phase", p.name()));
        h2_dense::gemm::stats::counting(&self.profile.dense, || self.profile.time(p, f))
    }

    /// The chunk runner: hand `body` the entries of `items` as chunks of
    /// `(index, item)` pairs in ascending index order, laid out by the
    /// backend (see the module docs). `cost(i, &items[i])` sizes the
    /// parallel chunks and is read nowhere else. A sharded run gives device
    /// `dev` one job over the entries `i` with `device_of(i, n, devices) ==
    /// dev`. With `deps = Some(tickets)` that job is gated on `tickets[dev]`
    /// and the call closes with [`ShardDispatch::flush`], so inside a chain
    /// scope the jobs may still be running when it returns (`body` lives on
    /// the heap for that reason, and whatever it borrows must outlive the
    /// scope). With `deps = None` every job has run on return.
    pub(crate) fn run_chunks<T, C, F>(
        &self,
        items: Vec<T>,
        device_of: fn(usize, usize, usize) -> usize,
        cost: C,
        deps: Option<&[Vec<u64>]>,
        body: F,
    ) where
        T: Send,
        C: Fn(usize, &T) -> f64,
        F: Fn(Vec<(usize, T)>) + Send + Sync,
    {
        let n = items.len();
        match &self.backend {
            Backend::Sequential => body(items.into_iter().enumerate().collect()),
            Backend::Parallel => {
                let parts = (rayon::current_num_threads() * 4).min(n);
                if parts < 2 {
                    return body(items.into_iter().enumerate().collect());
                }
                let bounds = cost_chunk_bounds(n, parts, |i| cost(i, &items[i]));
                let mut entries = items.into_iter().enumerate();
                let chunks: Vec<Vec<(usize, T)>> = bounds
                    .windows(2)
                    .map(|w| entries.by_ref().take(w[1] - w[0]).collect())
                    .filter(|c: &Vec<(usize, T)>| !c.is_empty())
                    .collect();
                chunks.into_par_iter().for_each(&body);
            }
            Backend::Sharded(disp) => {
                let devices = disp.devices();
                let mut chunks: Vec<Vec<(usize, T)>> = (0..devices).map(|_| Vec::new()).collect();
                for (i, t) in items.into_iter().enumerate() {
                    chunks[device_of(i, n, devices)].push((i, t));
                }
                let body = Arc::new(body);
                let jobs = chunks.into_iter().map(|chunk| {
                    let body = body.clone();
                    Box::new(move || body(chunk)) as ShardJob<'_>
                });
                let Some(deps) = deps else {
                    return disp.run(jobs.collect());
                };
                for (dev, job) in jobs.enumerate() {
                    let gate = deps.get(dev).map_or(&[][..], Vec::as_slice);
                    // SAFETY: barriered by the flush below — or, inside a
                    // chain scope, by `chain_end` — before the borrows
                    // captured by `body`/`items` end (a chain caller keeps
                    // them alive past `chain_end`).
                    unsafe { disp.enqueue(dev, gate, job) };
                }
                disp.flush();
            }
        }
    }

    /// Run `f(i, entry_i)` over every entry of `batch` on the backend, the
    /// per-entry form of the chunk runner that mutation kernels use.
    /// `flops_of(i)` is entry `i`'s modeled work; an entry's scalar
    /// footprint stands in where that is smaller (the bandwidth proxy of
    /// marshaling kernels, whose flop formula is zero). On a sharded
    /// backend device `dev`'s job waits for `deps[dev]` (transfer tickets
    /// issued ahead of the kernel, or none), and the call is chain-capable
    /// as described at [`Runtime::chained`].
    pub fn for_each_entry<F, C>(&self, batch: &mut VarBatch, deps: &[Vec<u64>], flops_of: C, f: F)
    where
        F: Fn(usize, MatMut<'_>) + Send + Sync,
        C: Fn(usize) -> f64,
    {
        let cost = |i: usize, m: &MatMut<'_>| flops_of(i).max((m.rows() * m.cols()) as f64);
        self.run_chunks(batch.split_mut(), owner, cost, Some(deps), move |chunk| {
            for (i, m) in chunk {
                f(i, m);
            }
        });
    }

    /// `f(i)` for every `i < n` on the backend, results in index order and
    /// on the host when the call returns (also inside a chain scope).
    /// `cost(i)` sizes the parallel chunks.
    pub fn map<R, C, F>(&self, n: usize, cost: C, f: F) -> Vec<R>
    where
        R: Send,
        C: Fn(usize) -> f64,
        F: Fn(usize) -> R + Send + Sync,
    {
        self.map_placed(n, owner, cost, f)
    }

    /// [`Runtime::map`] over the entries of `batch`, costed like
    /// [`Runtime::for_each_entry`].
    pub(crate) fn map_entries<R, C, F>(&self, batch: &VarBatch, flops_of: C, f: F) -> Vec<R>
    where
        R: Send,
        C: Fn(usize) -> f64,
        F: Fn(usize, MatRef<'_>) -> R + Send + Sync,
    {
        let cost = |i: usize| flops_of(i).max((batch.rows_of(i) * batch.cols_of(i)) as f64);
        self.map(batch.count(), cost, |i| f(i, batch.mat(i)))
    }

    /// [`Runtime::map`] with a sharded placement other than the owner
    /// chunks (`batchedGen`'s round-robin).
    pub(crate) fn map_placed<R, C, F>(
        &self,
        n: usize,
        device_of: fn(usize, usize, usize) -> usize,
        cost: C,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        C: Fn(usize) -> f64,
        F: Fn(usize) -> R + Send + Sync,
    {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let slots: Vec<&mut Option<R>> = out.iter_mut().collect();
        self.run_chunks(
            slots,
            device_of,
            |i, _| cost(i),
            None,
            |chunk| {
                for (i, slot) in chunk {
                    *slot = Some(f(i));
                }
            },
        );
        out.into_iter()
            .map(|r| r.expect("every chunk filled its slots"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn both_backends_cover_all_indices() {
        for rt in [Runtime::sequential(), Runtime::parallel()] {
            let hits = AtomicUsize::new(0);
            let mut b = VarBatch::zeros_uniform_cols((0..100).map(|i| i % 3).collect(), 2);
            rt.for_each_entry(
                &mut b,
                &[],
                |_| 0.0,
                |i, mut m| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    m.fill(i as f64);
                },
            );
            assert_eq!(hits.load(Ordering::Relaxed), 100);
            for i in (0..100).filter(|i| i % 3 > 0) {
                assert_eq!(b.mat(i).at(0, 1), i as f64);
            }
        }
    }

    #[test]
    fn map_preserves_order() {
        for rt in [Runtime::sequential(), Runtime::parallel()] {
            // Skewed costs cut the parallel range unevenly; order holds.
            let v = rt.map(50, |i| (i * i * i) as f64, |i| i * i);
            assert_eq!(v, (0..50).map(|i| i * i).collect::<Vec<_>>());
            assert!(rt.map(0, |_| 1.0, |i| i).is_empty());
        }
    }

    #[test]
    fn chained_off_the_fabric_returns_its_value_and_issues_nothing() {
        for rt in [Runtime::sequential(), Runtime::parallel()] {
            assert_eq!(rt.chained(|| 7), 7);
            let v = rt.chained(|| rt.map(20, |_| 1.0, |i| 2 * i));
            assert_eq!(v, (0..20).map(|i| 2 * i).collect::<Vec<_>>());
            // No dispatch to issue to, and the scope itself launches nothing.
            assert!(rt.shard_dispatch().is_none());
            assert_eq!(rt.profile().total_launches(), 0);
        }
    }

    #[test]
    fn launches_visible_via_profile() {
        let rt = Runtime::sequential();
        rt.launch(Kernel::Gemm);
        rt.launches(Kernel::BsrGemm, 4);
        assert_eq!(rt.profile().launches(Kernel::Gemm), 1);
        assert_eq!(rt.profile().launches(Kernel::BsrGemm), 4);
    }
}

//! The device runtime: backend selection plus profiling.
//!
//! The paper runs one code base on both CPU and GPU (Thrust backends).
//! [`Runtime`] mirrors that: every batched kernel takes a `&Runtime` and
//! executes its per-entry work either sequentially ([`Backend::Sequential`],
//! the paper's "CPU" configuration) or with work-stealing parallelism across
//! batch entries ([`Backend::Parallel`], the "GPU" configuration — batch
//! entries play the role of thread blocks).

use crate::multidev::ScheduleEpoch;
use crate::profile::{Kernel, Phase, Profile};
use crate::shard::{chunk_bounds, ShardDispatch, ShardJob};
use rayon::prelude::*;
use std::sync::Arc;

/// Execution backend for batched kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One thread, entries processed in order (paper's CPU baseline used
    /// OpenMP loops; use `Parallel` for that — `Sequential` is the
    /// single-thread reference).
    Sequential,
    /// Entries processed by the rayon pool (paper's GPU batched execution).
    Parallel,
    /// Entries sharded in contiguous chunks across the virtual devices of a
    /// [`ShardDispatch`] fabric (the §IV.B multi-GPU decomposition). Use
    /// [`Runtime::sharded`] — this backend needs a dispatcher.
    Sharded,
}

/// Shared handle passed to every batched operation.
pub struct Runtime {
    backend: Backend,
    profile: Profile,
    shard: Option<Arc<dyn ShardDispatch>>,
    tracer: Option<Arc<h2_obs::Tracer>>,
}

impl Runtime {
    pub fn new(backend: Backend) -> Self {
        assert!(
            backend != Backend::Sharded,
            "Backend::Sharded needs a device fabric; use Runtime::sharded"
        );
        Runtime {
            backend,
            profile: Profile::new(),
            shard: None,
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
        Runtime {
            backend: Backend::Sharded,
            profile: Profile::new(),
            shard: Some(dispatch),
            tracer: None,
        }
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

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn is_parallel(&self) -> bool {
        self.backend == Backend::Parallel
    }

    /// The device fabric of a sharded runtime (`None` otherwise).
    pub fn shard_dispatch(&self) -> Option<&Arc<dyn ShardDispatch>> {
        self.shard.as_ref()
    }

    /// Charge the fabric `epoch`'s planned counts and close it (no-op unless
    /// sharded). The construction level loop calls this once per processed
    /// level with that level's epoch of `h2_core::plan_construct`.
    pub fn shard_epoch(&self, epoch: &ScheduleEpoch) {
        if let Some(d) = &self.shard {
            d.epoch(epoch);
        }
    }

    /// Open a cross-kernel chain scope on the fabric (no-op unless sharded
    /// and pipelined): until [`Runtime::shard_chain_end`], each kernel's
    /// closing `flush` records a dependency boundary instead of blocking,
    /// so consecutive batched kernels run back-to-back per device, ordered
    /// by job-completion tickets across devices.
    pub fn shard_chain_begin(&self) {
        if let Some(d) = &self.shard {
            d.chain_begin();
        }
    }

    /// Close the chain scope and run the real barrier (no-op unless
    /// sharded). Every host-side read of job-produced data must sit after
    /// this point.
    pub fn shard_chain_end(&self) {
        if let Some(d) = &self.shard {
            d.chain_end();
        }
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

    /// Run an indexed loop on the chosen backend (generic batched "kernel
    /// body"; the caller records the launch).
    pub fn for_each_index<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        match self.backend {
            Backend::Sequential => (0..n).for_each(f),
            Backend::Parallel => (0..n).into_par_iter().for_each(f),
            Backend::Sharded => {
                let disp = self.shard.as_ref().expect("sharded runtime has a fabric");
                let bounds = chunk_bounds(n, disp.devices());
                let f = &f;
                let jobs: Vec<ShardJob<'_>> = (0..disp.devices())
                    .map(|dev| {
                        let (b, e) = (bounds[dev], bounds[dev + 1]);
                        Box::new(move || (b..e).for_each(f)) as ShardJob<'_>
                    })
                    .collect();
                disp.run(jobs);
            }
        }
    }

    /// Cost-aware indexed map: like [`Runtime::map_index`], but the
    /// parallel and sharded backends cut the index range into contiguous
    /// chunks of ~equal estimated `cost` ([`crate::batch::cost_chunk_bounds`])
    /// instead of equal count, so skewed per-entry work (top-level blocks
    /// vs. leaves) stops serializing behind the biggest chunk. Results come
    /// back in index order on every backend.
    pub fn map_index_costed<R, F, C>(&self, n: usize, cost: C, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync + Send,
        C: Fn(usize) -> f64,
    {
        match self.backend {
            Backend::Sequential => (0..n).map(f).collect(),
            Backend::Parallel => {
                let parts = (rayon::current_num_threads() * 4).min(n.max(1));
                let bounds = crate::batch::cost_chunk_bounds(n, parts, cost);
                let chunks: Vec<(usize, usize)> = (0..parts)
                    .map(|d| (bounds[d], bounds[d + 1]))
                    .filter(|&(b, e)| e > b)
                    .collect();
                let f = &f;
                chunks
                    .into_par_iter()
                    .map(|(b, e)| (b..e).map(f).collect::<Vec<R>>())
                    .collect::<Vec<Vec<R>>>()
                    .into_iter()
                    .flatten()
                    .collect()
            }
            Backend::Sharded => {
                let disp = self.shard.as_ref().expect("sharded runtime has a fabric");
                let bounds = crate::batch::cost_chunk_bounds(n, disp.devices(), cost);
                self.map_with_bounds(n, &bounds, f)
            }
        }
    }

    /// Sharded slot-filling map over explicit chunk bounds (shared by
    /// [`Runtime::map_index`] and [`Runtime::map_index_costed`]).
    fn map_with_bounds<R, F>(&self, n: usize, bounds: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync + Send,
    {
        let disp = self.shard.as_ref().expect("sharded runtime has a fabric");
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        {
            let f = &f;
            let mut jobs: Vec<ShardJob<'_>> = Vec::with_capacity(disp.devices());
            let mut rest: &mut [Option<R>] = &mut out;
            for dev in 0..disp.devices() {
                let len = bounds[dev + 1] - bounds[dev];
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                let start = bounds[dev];
                jobs.push(Box::new(move || {
                    for (k, slot) in head.iter_mut().enumerate() {
                        *slot = Some(f(start + k));
                    }
                }));
            }
            disp.run(jobs);
        }
        out.into_iter()
            .map(|o| o.expect("every chunk filled its slots"))
            .collect()
    }

    /// Indexed map on the chosen backend, preserving order.
    pub fn map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync + Send,
    {
        match self.backend {
            Backend::Sequential => (0..n).map(f).collect(),
            Backend::Parallel => (0..n).into_par_iter().map(f).collect(),
            Backend::Sharded => {
                let disp = self.shard.as_ref().expect("sharded runtime has a fabric");
                let bounds = chunk_bounds(n, disp.devices());
                self.map_with_bounds(n, &bounds, f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn both_backends_cover_all_indices() {
        for backend in [Backend::Sequential, Backend::Parallel] {
            let rt = Runtime::new(backend);
            let hits = AtomicUsize::new(0);
            rt.for_each_index(100, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn map_preserves_order() {
        let rt = Runtime::parallel();
        let v = rt.map_index(50, |i| i * i);
        assert_eq!(v[7], 49);
        assert_eq!(v.len(), 50);
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

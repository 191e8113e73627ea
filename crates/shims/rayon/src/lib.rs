//! Offline drop-in subset of the `rayon` parallel-iterator API.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of rayon it actually uses. Parallel
//! "iterators" here are eager: every adapter materializes its input and fans
//! the per-item work out as indexed tasks on a process-wide **work-stealing
//! deque pool** (see [`pool`]). Results are written into pre-assigned slots,
//! so `map`/`collect` ordering is deterministic and identical to the
//! sequential execution — only the schedule is dynamic. Semantics match
//! rayon for the patterns used in this repository (deterministic
//! order-preserving `map`+`collect`, side-effecting `for_each` over disjoint
//! targets, panic propagation to the caller).
//!
//! The pool replaces the previous eager scoped-thread fan-out (which split
//! items into one contiguous chunk per thread and then waited for the
//! slowest chunk): each worker owns a deque, tasks are dealt round-robin,
//! idle workers *steal half* of the busiest visible deque, and the
//! submitting thread participates in execution while it waits. Skewed
//! per-item costs (a few huge batch entries among thousands of small ones —
//! the typical H2 level workload) therefore no longer serialize behind the
//! largest chunk.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::thread;

/// Number of worker threads used for parallel execution (pool workers plus
/// the participating submitter). Cached: `available_parallelism` parses
/// cgroup limits on Linux, which is far too slow for hot-path callers that
/// consult the thread count before deciding whether to parallelize.
pub fn current_num_threads() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let n = thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            CACHED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParVec,
    };
}

pub mod iter {
    pub use crate::prelude::*;
}

/// One opaque value a submitting thread hands to the work it sends
/// elsewhere. Every [`pool::run_tasks`] task runs under the value that was
/// current on its submitter when the batch was submitted, and restores the
/// value of the thread that runs it afterwards — so a waiting submitter that
/// executes another batch's job lends that job the other submitter's value,
/// not its own. Crates above the shim give the value a type (the dense
/// layer keeps its counter sink here) and propagate it across their own
/// thread hand-offs with [`inherit::inheriting`].
pub mod inherit {
    use std::any::Any;
    use std::cell::RefCell;
    use std::sync::Arc;

    /// The inherited value.
    pub type Value = Arc<dyn Any + Send + Sync>;

    thread_local! {
        static CURRENT: RefCell<Option<Value>> = const { RefCell::new(None) };
    }

    /// Restores the previous value when dropped, including on unwind.
    struct Restore(Option<Value>);

    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.replace(self.0.take()));
        }
    }

    /// Run `f` with `value` current on this thread, then restore the
    /// previous value (also when `f` panics).
    pub fn scoped<R>(value: Option<Value>, f: impl FnOnce() -> R) -> R {
        let _restore = Restore(CURRENT.with(|c| c.replace(value)));
        f()
    }

    /// Call `f` with the current value if it is a `T`.
    pub fn with<T: Any, R>(f: impl FnOnce(Option<&T>) -> R) -> R {
        CURRENT.with(|c| f(c.borrow().as_deref().and_then(|v| v.downcast_ref())))
    }

    /// `job` bound to the value current here, to run on another thread.
    pub fn inheriting<'a, R>(
        job: impl FnOnce() -> R + Send + 'a,
    ) -> impl FnOnce() -> R + Send + 'a {
        let value = CURRENT.with(|c| c.borrow().clone());
        move || scoped(value, job)
    }
}

/// The work-stealing deque pool backing every parallel adapter.
pub mod pool {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};
    use std::thread;

    /// A type-erased unit of work. Jobs submitted through [`run_tasks`]
    /// borrow the submitter's stack; the lifetime is erased because the
    /// submitter blocks until its whole batch has completed (the same
    /// scoped-pool erasure `h2_sched::DeviceFabric` uses).
    type Job = Box<dyn FnOnce() + Send + 'static>;

    /// Completion state of one submitted batch.
    struct Batch {
        remaining: AtomicUsize,
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
        /// Parking spot for the submitter during the batch tail: the last
        /// job's decrement notifies, and a short timed wait doubles as the
        /// poll for newly stealable work from other batches.
        done_lock: Mutex<()>,
        done: Condvar,
    }

    struct Shared {
        /// One deque per worker thread. Owners pop from the front; thieves
        /// steal half from the back.
        deques: Vec<Mutex<VecDeque<Job>>>,
        /// Approximate count of queued (not yet started) jobs; workers only
        /// sleep when it reads zero.
        queued: AtomicUsize,
        /// Sleep/wake plumbing for idle workers.
        idle: Mutex<()>,
        wake: Condvar,
    }

    impl Shared {
        /// Pop from our own deque, or steal half of another worker's.
        /// `home` is `None` for the submitting thread (it owns no deque and
        /// only steals single jobs).
        fn next_job(&self, home: Option<usize>) -> Option<Job> {
            if let Some(w) = home {
                if let Some(job) = self.deques[w].lock().unwrap().pop_front() {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
            let n = self.deques.len();
            let start = home.map(|w| w + 1).unwrap_or(0);
            for off in 0..n {
                let v = (start + off) % n;
                if Some(v) == home {
                    continue;
                }
                let mut stolen = {
                    let mut victim = self.deques[v].lock().unwrap();
                    let len = victim.len();
                    if len == 0 {
                        continue;
                    }
                    // Steal the back half (at least one job), leaving the
                    // front for the owner — the deque discipline that keeps
                    // contention low and locality with the owner.
                    let take = if home.is_some() { len - len / 2 } else { 1 };
                    victim.split_off(len - take)
                };
                self.queued.fetch_sub(stolen.len(), Ordering::Relaxed);
                let job = stolen.pop_front().expect("stole at least one job");
                if let Some(w) = home.filter(|_| !stolen.is_empty()) {
                    self.queued.fetch_add(stolen.len(), Ordering::Relaxed);
                    self.deques[w].lock().unwrap().extend(stolen);
                    // The surplus is visible to other thieves again.
                    self.notify();
                }
                return Some(job);
            }
            None
        }

        /// Wake sleeping workers. Taking the idle lock orders the wakeup
        /// against a worker's `queued == 0` check, so no wakeup is lost
        /// (the timed wait is only a backstop).
        fn notify(&self) {
            let _guard = self.idle.lock().unwrap();
            self.wake.notify_all();
        }
    }

    fn worker_loop(shared: Arc<Shared>, w: usize) {
        loop {
            if let Some(job) = shared.next_job(Some(w)) {
                // Jobs are pre-wrapped in catch_unwind by run_tasks; a raw
                // panic here would kill the worker, so keep the invariant.
                job();
                continue;
            }
            let guard = shared.idle.lock().unwrap();
            if shared.queued.load(Ordering::Relaxed) == 0 {
                // Timed wait so a lost wakeup can never strand the pool.
                let _ = shared
                    .wake
                    .wait_timeout(guard, std::time::Duration::from_millis(50));
            }
        }
    }

    fn shared() -> &'static Arc<Shared> {
        static POOL: OnceLock<Arc<Shared>> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = super::current_num_threads().saturating_sub(1).max(1);
            let shared = Arc::new(Shared {
                deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                queued: AtomicUsize::new(0),
                idle: Mutex::new(()),
                wake: Condvar::new(),
            });
            for w in 0..workers {
                let s = shared.clone();
                thread::Builder::new()
                    .name(format!("h2-steal-{w}"))
                    .spawn(move || worker_loop(s, w))
                    .expect("spawn pool worker");
            }
            shared
        })
    }

    /// Execute `tasks` on the pool and block until all complete. The caller
    /// participates (executes queued jobs) while waiting, which both speeds
    /// up the tail and makes nested `run_tasks` calls from inside a task
    /// deadlock-free. Panics from any task are re-raised on the caller.
    /// Every task runs under the caller's [`crate::inherit`] value.
    pub fn run_tasks<'a>(tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        if tasks.is_empty() {
            return;
        }
        let shared = shared();
        let batch = Arc::new(Batch {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        let n = tasks.len();
        {
            let mut wrapped: Vec<Job> = Vec::with_capacity(n);
            for task in tasks {
                let b = batch.clone();
                let task = crate::inherit::inheriting(task);
                let job: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        *b.panic.lock().unwrap() = Some(payload);
                    }
                    // Decrement only after the task closure (and its
                    // borrows) has been consumed — the submitter's wait on
                    // `remaining` is what makes the lifetime erasure sound.
                    if b.remaining.fetch_sub(1, Ordering::Release) == 1 {
                        // Last job: wake the parked submitter. Taking the
                        // lock orders this against its remaining-check.
                        let _guard = b.done_lock.lock().unwrap();
                        b.done.notify_all();
                    }
                });
                // SAFETY: the submitter blocks below until `remaining`
                // reaches zero, i.e. until every job has run and dropped its
                // captured borrows, so no borrow outlives `'a`.
                let job: Job = unsafe { std::mem::transmute(job) };
                wrapped.push(job);
            }
            // Deal jobs round-robin across worker deques. The count is
            // raised *before* the pushes: a worker popping in between then
            // sees a transiently high count (harmless extra scan) instead
            // of underflowing it to usize::MAX and defeating the idle
            // sleep check.
            shared.queued.fetch_add(n, Ordering::Relaxed);
            let deques = shared.deques.len();
            for (i, job) in wrapped.into_iter().enumerate() {
                shared.deques[i % deques].lock().unwrap().push_back(job);
            }
            shared.notify();
        }
        // Participate until our batch is done. We may execute jobs of other
        // concurrent batches — their submitters are blocked alive, so their
        // borrows are valid too. With nothing to steal, park on the batch's
        // condvar instead of spinning; the short timeout doubles as the
        // poll for work that later lands in the deques.
        while batch.remaining.load(Ordering::Acquire) > 0 {
            if let Some(job) = shared.next_job(None) {
                job();
            } else {
                let guard = batch.done_lock.lock().unwrap();
                if batch.remaining.load(Ordering::Acquire) > 0 {
                    let _ = batch
                        .done
                        .wait_timeout(guard, std::time::Duration::from_millis(1));
                }
            }
        }
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// An eagerly-materialized "parallel iterator": a vector of items whose
/// adapters execute their closures as work-stealing pool tasks.
pub struct ParVec<T> {
    items: Vec<T>,
}

/// How many tasks to create per hardware thread: more tasks than workers is
/// what gives the stealing room to balance skewed per-item costs, while
/// keeping per-task overhead negligible for the fine-grained maps.
const TASKS_PER_THREAD: usize = 4;

/// Apply `f` to every item as pool tasks, preserving order.
fn run_chunks<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if threads <= 1 || n < 2 {
        return items.into_iter().map(f).collect();
    }
    let ntasks = (threads * TASKS_PER_THREAD).min(n);
    let chunk = n.div_ceil(ntasks);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let f = &f;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ntasks);
        let mut slots: &mut [Option<R>] = &mut out;
        let mut it = items.into_iter();
        loop {
            let c: Vec<T> = it.by_ref().take(chunk).collect();
            if c.is_empty() {
                break;
            }
            let (head, tail) = slots.split_at_mut(c.len());
            slots = tail;
            tasks.push(Box::new(move || {
                for (slot, item) in head.iter_mut().zip(c) {
                    *slot = Some(f(item));
                }
            }));
        }
        pool::run_tasks(tasks);
    }
    out.into_iter()
        .map(|o| o.expect("pool task filled its slots"))
        .collect()
}

impl<T: Send> ParVec<T> {
    pub fn map<R, F>(self, f: F) -> ParVec<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParVec {
            items: run_chunks(self.items, f),
        }
    }

    pub fn filter<F>(self, f: F) -> ParVec<T>
    where
        F: Fn(&T) -> bool + Sync,
    {
        let kept = run_chunks(self.items, |t| if f(&t) { Some(t) } else { None });
        ParVec {
            items: kept.into_iter().flatten().collect(),
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> ParVec<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync,
    {
        let kept = run_chunks(self.items, f);
        ParVec {
            items: kept.into_iter().flatten().collect(),
        }
    }

    pub fn flat_map<R, I, F>(self, f: F) -> ParVec<R>
    where
        R: Send,
        I: IntoIterator<Item = R> + Send,
        F: Fn(T) -> I + Sync,
    {
        let parts = run_chunks(self.items, |t| f(t).into_iter().collect::<Vec<R>>());
        ParVec {
            items: parts.into_iter().flatten().collect(),
        }
    }

    pub fn enumerate(self) -> ParVec<(usize, T)> {
        ParVec {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn zip<U: Send>(self, other: ParVec<U>) -> ParVec<(T, U)> {
        ParVec {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_chunks(self.items, f);
    }

    pub fn any<F>(self, f: F) -> bool
    where
        F: Fn(T) -> bool + Sync,
    {
        run_chunks(self.items, f).into_iter().any(|b| b)
    }

    pub fn all<F>(self, f: F) -> bool
    where
        F: Fn(T) -> bool + Sync,
    {
        run_chunks(self.items, f).into_iter().all(|b| b)
    }

    pub fn count(self) -> usize {
        self.items.len()
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    pub fn reduce<ID, F>(self, identity: ID, op: F) -> T
    where
        ID: Fn() -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn max_by<F>(self, cmp: F) -> Option<T>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().max_by(cmp)
    }

    pub fn min_by<F>(self, cmp: F) -> Option<T>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering,
    {
        self.items.into_iter().min_by(cmp)
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Owned conversion into a [`ParVec`], mirroring rayon's
/// `IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParVec<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParVec<I::Item> {
        ParVec {
            items: self.into_iter().collect(),
        }
    }
}

/// Borrowing conversion, mirroring rayon's `IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send;
    fn par_iter(&'data self) -> ParVec<Self::Item>;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoIterator,
    <&'data I as IntoIterator>::Item: Send,
{
    type Item = <&'data I as IntoIterator>::Item;
    fn par_iter(&'data self) -> ParVec<Self::Item> {
        ParVec {
            items: <&'data I as IntoIterator>::into_iter(self).collect(),
        }
    }
}

/// Mutably-borrowing conversion, mirroring rayon's
/// `IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: Send;
    fn par_iter_mut(&'data mut self) -> ParVec<Self::Item>;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoIterator,
    <&'data mut I as IntoIterator>::Item: Send,
{
    type Item = <&'data mut I as IntoIterator>::Item;
    fn par_iter_mut(&'data mut self) -> ParVec<Self::Item> {
        ParVec {
            items: <&'data mut I as IntoIterator>::into_iter(self).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[500], 1000);
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn filter_and_enumerate() {
        let v: Vec<(usize, i32)> = vec![1, -2, 3, -4, 5]
            .into_par_iter()
            .enumerate()
            .filter(|&(_, x)| x > 0)
            .collect();
        assert_eq!(v, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn for_each_disjoint_writes() {
        let mut out = vec![0usize; 64];
        out.par_iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = i * i);
        assert_eq!(out[7], 49);
    }

    #[test]
    fn any_and_zip() {
        let a = vec![1, 2, 3];
        let b = vec![30, 20, 10];
        let pairs: Vec<(i32, i32)> = a.par_iter().map(|&x| x).zip(b.into_par_iter()).collect();
        assert_eq!(pairs[2], (3, 10));
        assert!(pairs.par_iter().any(|&(x, _)| x == 2));
    }

    #[test]
    fn skewed_items_still_all_run() {
        // One item is 1000x heavier than the rest; with stealing the total
        // still completes and every item runs exactly once.
        let hits = AtomicUsize::new(0);
        (0..256usize).into_par_iter().for_each(|i| {
            let reps = if i == 0 { 100_000 } else { 100 };
            let mut acc = 0u64;
            for k in 0..reps {
                acc = acc.wrapping_add(k);
            }
            std::hint::black_box(acc);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let v: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| (0..32usize).into_par_iter().map(|j| i * j).sum::<usize>())
            .collect();
        assert_eq!(v[2], 2 * (31 * 32) / 2);
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 33 {
                    panic!("injected task fault");
                }
            });
        });
        assert!(result.is_err(), "a task panic must reach the submitter");
        // The pool must remain usable afterwards.
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v[99], 100);
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let total = Mutex::new(0usize);
        std::thread::scope(|s| {
            for t in 0..4 {
                let total = &total;
                s.spawn(move || {
                    let sum: usize = (0..500usize).into_par_iter().map(|i| i + t).sum();
                    *total.lock().unwrap() += sum;
                });
            }
        });
        let want: usize = (0..4).map(|t| (0..500).map(|i| i + t).sum::<usize>()).sum();
        assert_eq!(total.into_inner().unwrap(), want);
    }
}

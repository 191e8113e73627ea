//! The device fabric: N virtual devices, each a **persistent worker thread
//! with an ordered job queue**, a memory arena and a work/traffic account,
//! plus the explicit transfer queue with an asynchronous prefetch stage and
//! per-epoch accounting.
//!
//! Paper mapping:
//!
//! * one **virtual device** = one GPU of §IV.B — a dedicated worker thread
//!   (kernel stream) that executes the contiguous node chunk assigned to
//!   the device at every level, in queue order;
//! * the **arena** mirrors §IV.A's per-level single workspace allocation
//!   (prefix sum + one `cudaMalloc`): it is charged from the plan, once per
//!   epoch, with the epoch's live peak — which already holds the fetches
//!   issued a level early, so two live level workspaces show exactly when
//!   marshaling for level *l+1* overlaps level *l*'s compute;
//! * the **transfer queue** holds the only two communication patterns of
//!   §IV.B (`Ω_b` partner fetches in `batchedBSRGemm`, boundary sibling
//!   merges at line 24) plus the matvec's partial-sum reads. Every
//!   transfer goes through [`DeviceFabric::issue`], which holds the
//!   discipline: in [`PipelineMode::Pipelined`] it issues a *prefetch* on a
//!   virtual copy engine and returns the ticket compute jobs are gated on;
//!   in [`PipelineMode::Synchronous`] it services the copy inline
//!   (exposed);
//! * **job-level dependencies**: every queued job owns a completion ticket
//!   on the same board as transfer tickets, and a **chain scope**
//!   ([`DeviceFabric::chain_begin`] … [`DeviceFabric::chain_end`]) turns
//!   the per-kernel `flush` into a recorded boundary — the next kernel's
//!   jobs depend on the previous kernel's tickets on other devices instead
//!   of a global barrier, the CUDA-graph shape of back-to-back batched
//!   launches in §IV.B;
//! * an **epoch** is one processed level (or matvec / sweep phase), closed
//!   by the one charge-and-close step: the fabric is charged the planned
//!   [`ScheduleEpoch`]'s per-device flops, entries, launches and arena,
//!   then snapshots its counters, so the per-epoch stats line up one-to-one
//!   with the epochs of the [`h2_runtime::Schedule`] the operation was
//!   planned as; [`ExecReport::check`] compares them together with the
//!   transfers the kernels issued live.
//!
//! ## Issue-epoch accounting
//!
//! Transfers are tagged with the epoch that **issued** them, under a single
//! lock (epoch index and record push are one critical
//! section, so a concurrent `close_epoch` can never mis-attribute a
//! record). Under overlap this means a prefetch for level *l+1* issued
//! during level *l*'s compute is charged to epoch *l* — totals across
//! epochs are invariant, and the plans place such prefetches in the issuing
//! epoch too.
//! Measured *busy* time is snapshotted at close time, so a job still
//! draining when an overlapped phase group closes its epoch lands in the
//! following epoch; [`DeviceEpochStats`] therefore reports, per device:
//!
//! * `busy` — wall time executing jobs,
//! * `stall` — wall time a worker (or, synchronously, the issuing thread)
//!   waited on an unfinished transfer: the *exposed* communication,
//! * `overlapped` — in-flight prefetch time that did **not** expose as a
//!   stall: the communication hidden behind compute,
//! * `idle` — the rest of the epoch's wall span.

use h2_fault::{FabricError, FaultKind, FaultPlan, OccurrenceMap};
use h2_obs::{ArgValue, Tracer};
use h2_runtime::{
    chunk_bounds, DeviceModel, PipelineMode, Precision, Schedule, ScheduleEpoch, ShardDispatch,
    ShardJob, Transfer, TransferKind,
};
use h2_tree::ClusterTree;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant locking for every fabric mutex. A queued job that
/// panics is captured on its worker and re-raised at the next barrier on
/// the *host* thread — which can itself unwind through a lock guard (the
/// barrier's own panic, or a caller's `catch_unwind` scope). Every
/// critical section in this file leaves its data consistent at every exit
/// point, so a poisoned flag is noise: clearing it (instead of
/// `.unwrap()`-cascading a `PoisonError`) is what keeps the other device
/// workers live and the fabric reusable after a propagated job panic —
/// the regression tests in `tests/faults.rs` pin this down.
trait PoisonTolerant<T> {
    fn plock(&self) -> MutexGuard<'_, T>;
}

impl<T> PoisonTolerant<T> for Mutex<T> {
    fn plock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The virtual inter-device link the fabric emulates when servicing
/// transfers. The default link is free (zero service time), which keeps
/// unit-test runs instant; benches set a CPU-scale link so exposed vs.
/// hidden communication shows up in measured wall time.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Bytes per second (`f64::INFINITY` = free link).
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            bandwidth: f64::INFINITY,
            latency: 0.0,
        }
    }
}

impl LinkModel {
    /// A link whose compute:bandwidth ratio roughly matches
    /// [`DeviceModel`]'s A100-flavored defaults scaled to CPU worker
    /// throughput — transfers take visible but non-dominant wall time.
    pub fn cpu_scale() -> Self {
        LinkModel {
            bandwidth: 2.0e8,
            latency: 2.0e-5,
        }
    }

    /// Service time of one transfer on this link.
    pub fn service(&self, t: &Transfer) -> Duration {
        let secs = t.bytes as f64 / self.bandwidth + self.latency;
        if secs <= 0.0 || !secs.is_finite() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(secs)
        }
    }
}

/// Injected per-transfer extra delay (stress tests randomize prefetch
/// completion order through this hook).
pub type TransferDelay = Arc<dyn Fn(&Transfer) -> Duration + Send + Sync>;

/// Snapshot of one device's counters over one epoch. The four durations
/// tile the epoch span exactly: `busy + stall + overlapped + idle == span`.
#[derive(Clone, Debug, Default)]
pub struct DeviceEpochStats {
    /// Modeled batched-kernel flops (the `h2_runtime::multidev::cost`
    /// formulas), tagged by issuing epoch.
    pub flops: f64,
    /// `batchedGen` entry evaluations (flop-equivalents are
    /// `entry_cost × gen_entries`).
    pub gen_entries: f64,
    /// Kernel launches issued by this device.
    pub launches: usize,
    /// Measured wall-clock the worker spent executing jobs.
    pub busy: Duration,
    /// Exposed communication: wall-clock spent waiting on unfinished
    /// transfers (worker dep-stalls, or inline waits in synchronous mode).
    pub stall: Duration,
    /// Hidden communication: in-flight prefetch time that did not expose
    /// as a stall.
    pub overlapped: Duration,
    /// Wall-clock of the epoch window not spent busy or stalled.
    pub idle: Duration,
    /// Peak arena bytes held during the epoch, as charged from the plan.
    pub arena_peak: usize,
}

/// One closed accounting epoch (a construction level or matvec phase).
#[derive(Clone, Debug)]
pub struct Epoch {
    pub label: String,
    pub per_device: Vec<DeviceEpochStats>,
    /// Cross-device bytes issued during the epoch.
    pub comm_bytes: u64,
    /// Number of cross-device messages issued during the epoch.
    pub comm_messages: usize,
    /// Wall-clock span of the epoch window (close-to-close).
    pub span: Duration,
}

#[derive(Default)]
struct Account {
    flops: f64,
    gen_entries: f64,
    launches: usize,
    arena: usize,
    busy_nanos: u64,
    stall_nanos: u64,
}

/// One recorded transfer: the queue entry plus its issue epoch and modeled
/// flight time (service on the virtual link + any injected delay).
#[derive(Clone, Debug)]
struct TransferRecord {
    epoch: usize,
    t: Transfer,
    flight_nanos: u64,
    prefetched: bool,
    /// `true` for a charged re-transfer attempt injected by the fault
    /// plan: same bytes as the parent, but it must not advance occurrence
    /// counters (the parent's fingerprint owns those).
    retry: bool,
}

/// Epoch index, transfer records and the epoch wall-clock window — one
/// mutex, so issue-epoch tagging is race-free by construction.
struct EpochLog {
    epochs: Vec<Epoch>,
    records: Vec<TransferRecord>,
    window_start: Instant,
    run_start: Instant,
}

/// Ticket completion board, shared by prefetched transfers **and** queued
/// jobs: both allocate tickets from the same sequence, so a job's `deps`
/// list can mix transfer tickets with prior jobs' completion tickets.
/// `gen` invalidates tickets across `reset` so a straggling virtual copy
/// can never complete into a new run.
struct TicketState {
    gen: u64,
    done: Vec<bool>,
    inflight: usize,
}

struct TicketBoard {
    state: Mutex<TicketState>,
    cv: Condvar,
}

/// Per-worker completion progress (submitted counts live on the worker
/// handle; `done` is bumped by the worker thread and awaited by `flush`).
struct Progress {
    done: Mutex<u64>,
    cv: Condvar,
}

/// Pending virtual copies, ordered by completion deadline. One engine
/// thread services the whole queue — completion *order* still follows the
/// per-transfer deadlines (issue time + service + injected delay), so
/// delayed copies land out of issue order exactly as a real copy engine's
/// streams would.
struct CopyQueue {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64, u64)>>,
    shutdown: bool,
}

/// Aggregate fault/recovery event counts over the current accounting
/// scope (cleared by [`DeviceFabric::reset`] and when a new plan is
/// installed). `faults` counts injected fault instants of every kind;
/// `retries` counts charged re-transfer attempts; `recoveries` counts
/// completed recovery actions (device adoption, poisoned-column
/// re-sketches reported through [`ShardDispatch::note_recovery`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    pub faults: u64,
    pub retries: u64,
    pub recoveries: u64,
}

/// Mutable resilience state behind one mutex: the installed plan, the
/// per-fingerprint occurrence counters that make injection replayable,
/// the logical→physical queue routing (identity until a fail-stop), the
/// first typed error observed, and the event counters.
///
/// Lock-order contract: the fault mutex is **leaf-level** — it is never
/// acquired while the epoch log lock is held (`log → fault` would-be
/// edges are broken by dropping the log guard first), and no other fabric
/// lock is taken while it is held.
struct FaultState {
    plan: Option<Arc<FaultPlan>>,
    occ: OccurrenceMap,
    route: Vec<usize>,
    error: Option<FabricError>,
    counters: FaultCounters,
}

struct Shared {
    devices: usize,
    mode: PipelineMode,
    /// Wire precision (0 = f64, 1 = f32): the element width every
    /// cross-device block ships at. Configuration, not accounting — it
    /// survives [`DeviceFabric::reset`].
    wire: AtomicU8,
    link: LinkModel,
    delay: Mutex<Option<TransferDelay>>,
    accounts: Vec<Mutex<Account>>,
    log: Mutex<EpochLog>,
    tickets: TicketBoard,
    progress: Vec<Progress>,
    chain: Mutex<Option<ChainState>>,
    panicked: Mutex<Option<String>>,
    copy: Mutex<CopyQueue>,
    copy_cv: Condvar,
    /// Observability tracer; `traced` is the lock-free fast-path flag so
    /// the untraced hot paths pay one relaxed load, not a mutex.
    tracer: Mutex<Option<Arc<Tracer>>>,
    traced: AtomicBool,
    /// Resilience state; `faulty` is its lock-free fast-path flag (set
    /// while a plan is installed), mirroring the tracer's discipline so a
    /// fault-free run pays one relaxed load per transfer.
    fault: Mutex<FaultState>,
    faulty: AtomicBool,
    /// Monotone reshard-map version: bumped on every device-loss adoption
    /// so construction drivers can detect a topology change between level
    /// checkpoints without taking the fault lock.
    reshard: AtomicU64,
    /// Ticket-wait deadline in nanoseconds (0 = none). Read lock-free on
    /// the worker hot path; turns a silent dependency hang into a typed
    /// [`FabricError::TransferTimeout`] surfaced at the next barrier.
    deadline_nanos: AtomicU64,
}

impl Shared {
    /// Cloned tracer handle when tracing is on (one relaxed load when off).
    fn tracer(&self) -> Option<Arc<Tracer>> {
        if !self.traced.load(Ordering::Relaxed) {
            return None;
        }
        self.tracer.plock().clone()
    }

    /// Append a transfer record under the single log lock (issue-epoch
    /// tagging is atomic with the epoch index read).
    fn log_transfer(&self, t: Transfer, flight: Duration, prefetched: bool, retry: bool) {
        let mut log = self.log.plock();
        let epoch = log.epochs.len();
        log.records.push(TransferRecord {
            epoch,
            t,
            flight_nanos: flight.as_nanos() as u64,
            prefetched,
            retry,
        });
    }

    /// Draw this transfer's fault context: the installed plan plus the
    /// transfer's fingerprint and occurrence index (advanced atomically
    /// under the fault lock, which is released before any logging so the
    /// `log → fault` lock order is never reversed). One relaxed load when
    /// no plan is installed.
    fn begin_fault(&self, t: &Transfer) -> Option<(Arc<FaultPlan>, u64, u32)> {
        if !self.faulty.load(Ordering::Relaxed) {
            return None;
        }
        let mut fs = self.fault.plock();
        let plan = fs.plan.clone()?;
        if !plan.is_active() {
            return None;
        }
        let fp = t.fingerprint();
        let occ = fs.occ.next(fp);
        Some((plan, fp, occ))
    }

    /// Allocate a prefetch ticket; `complete` pre-marks it done.
    fn alloc_ticket(&self, complete: bool) -> u64 {
        let mut st = self.tickets.state.plock();
        st.done.push(complete);
        if !complete {
            st.inflight += 1;
        }
        st.done.len() as u64
    }

    /// Allocate a job-completion ticket, returning `(gen, ticket)` so the
    /// worker can complete it against the allocating run even if a `reset`
    /// races in between.
    fn alloc_job_ticket(&self) -> (u64, u64) {
        let mut st = self.tickets.state.plock();
        st.done.push(false);
        st.inflight += 1;
        (st.gen, st.done.len() as u64)
    }

    fn complete_ticket(&self, gen: u64, ticket: u64) {
        let mut st = self.tickets.state.plock();
        if st.gen == gen {
            st.done[ticket as usize - 1] = true;
            st.inflight -= 1;
            self.tickets.cv.notify_all();
        }
    }

    /// Block until every ticket in `deps` has completed; returns the wall
    /// time spent waiting (the exposed portion of the communication).
    ///
    /// When a ticket deadline is configured
    /// ([`DeviceFabric::set_ticket_deadline`]) a dependency that has not
    /// completed within it stops being a silent hang: the wait gives up,
    /// records a typed [`FabricError::TransferTimeout`] and arms the
    /// panic slot so the next barrier raises it on the host thread. The
    /// waiter itself *proceeds* (transfers are virtual, so running the
    /// dependent job is harmless) — giving up instead of panicking here
    /// keeps the worker thread alive to complete its ticket, which is
    /// what prevents the barrier from deadlocking on the very hang the
    /// deadline just diagnosed.
    fn wait_tickets(&self, deps: &[u64]) -> Duration {
        if deps.iter().all(|&d| d == 0) {
            return Duration::ZERO;
        }
        let t0 = Instant::now();
        let deadline = self.deadline_nanos.load(Ordering::Relaxed);
        let mut st = self.tickets.state.plock();
        let gen = st.gen;
        loop {
            if st.gen != gen
                || deps
                    .iter()
                    .all(|&d| d == 0 || st.done.get(d as usize - 1).copied().unwrap_or(true))
            {
                return t0.elapsed();
            }
            if deadline == 0 {
                st = self.tickets.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let budget = Duration::from_nanos(deadline);
            let waited = t0.elapsed();
            if waited >= budget {
                let stuck = deps
                    .iter()
                    .copied()
                    .find(|&d| d != 0 && !st.done.get(d as usize - 1).copied().unwrap_or(true))
                    .unwrap_or(0);
                drop(st);
                let err = FabricError::TransferTimeout {
                    ticket: stuck,
                    waited_nanos: waited.as_nanos() as u64,
                };
                let msg = err.to_string();
                self.fault.plock().error = Some(err);
                let mut p = self.panicked.plock();
                if p.is_none() {
                    *p = Some(msg);
                }
                return waited;
            }
            st = self
                .tickets
                .cv
                .wait_timeout(st, budget - waited)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Extra flight time the fault plan adds to one transfer: a possible
/// copy-engine delay spike, plus — per failed attempt — the detection
/// latency (a dropped attempt surfaces at the plan's detect timeout; a
/// corrupted one ships fully and is caught by the landing checksum, i.e.
/// after `base`) and the exponential backoff before the re-issue. The
/// re-issued attempts' own service times are carried by their retry
/// records, so summing record flight times reproduces the full timeline
/// without double counting.
fn fault_flight(plan: &FaultPlan, fp: u64, occ: u32, base: Duration) -> Duration {
    let mut extra = plan.delay_spike(fp, occ).unwrap_or(Duration::ZERO);
    for attempt in 0..plan.failed_attempts(fp, occ) {
        let detect = match plan.attempt_failure(fp, occ, attempt) {
            Some(FaultKind::TransferDrop) => plan.detect_timeout,
            _ => base,
        };
        extra += detect + plan.backoff(attempt);
    }
    extra
}

/// Sub-millisecond-accurate wait used to emulate link service time.
fn virtual_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= Duration::from_micros(200) {
        std::thread::sleep(d);
        return;
    }
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
        std::thread::yield_now();
    }
}

/// Open cross-kernel chain scope: per-device job tickets of the kernel
/// closed at the last chain boundary (`prev`) and of the kernel currently
/// enqueuing (`cur`). While a chain is open, `flush` records a boundary
/// instead of blocking, and every new job automatically depends on the
/// previous kernel's tickets **on other devices** — same-device ordering
/// is already guaranteed by the FIFO queue, so a device that finishes its
/// slice of kernel *k* starts kernel *k+1* while slower devices drain.
struct ChainState {
    prev: Vec<Vec<u64>>,
    cur: Vec<Vec<u64>>,
}

enum Cmd {
    Job {
        deps: Vec<u64>,
        /// Ticket generation + completion ticket of this job (completed by
        /// the worker right after the job body runs, before the progress
        /// counter bumps, so dependents can start as soon as possible).
        gen: u64,
        ticket: u64,
        run: Box<dyn FnOnce() + Send + 'static>,
    },
    Stop,
}

struct Worker {
    tx: Sender<Cmd>,
    submitted: AtomicU64,
    handle: Option<JoinHandle<()>>,
}

/// A fabric of `N` virtual devices. Create with [`DeviceFabric::new`]
/// (fork-join execution) or [`DeviceFabric::pipelined`] (ordered queues,
/// prefetched transfers), hand the `Arc` to
/// [`h2_runtime::Runtime::sharded`] (it implements [`ShardDispatch`]), run
/// work, then collect an [`ExecReport`].
pub struct DeviceFabric {
    shared: Arc<Shared>,
    workers: Vec<Worker>,
    copy_engine: Mutex<Option<JoinHandle<()>>>,
}

impl DeviceFabric {
    /// Spin up `devices` worker threads in synchronous (fork-join) mode.
    pub fn new(devices: usize) -> Arc<Self> {
        Self::with_config(devices, PipelineMode::Synchronous, LinkModel::default())
    }

    /// Spin up `devices` worker threads in pipelined mode.
    pub fn pipelined(devices: usize) -> Arc<Self> {
        Self::with_config(devices, PipelineMode::Pipelined, LinkModel::default())
    }

    /// Full-control constructor: execution mode plus the virtual link the
    /// transfer stage emulates.
    pub fn with_config(devices: usize, mode: PipelineMode, link: LinkModel) -> Arc<Self> {
        assert!(devices > 0, "at least one device");
        let now = Instant::now();
        let shared = Arc::new(Shared {
            devices,
            mode,
            wire: AtomicU8::new(0),
            link,
            delay: Mutex::new(None),
            accounts: (0..devices)
                .map(|_| Mutex::new(Account::default()))
                .collect(),
            log: Mutex::new(EpochLog {
                epochs: Vec::new(),
                records: Vec::new(),
                window_start: now,
                run_start: now,
            }),
            tickets: TicketBoard {
                state: Mutex::new(TicketState {
                    gen: 0,
                    done: Vec::new(),
                    inflight: 0,
                }),
                cv: Condvar::new(),
            },
            progress: (0..devices)
                .map(|_| Progress {
                    done: Mutex::new(0),
                    cv: Condvar::new(),
                })
                .collect(),
            chain: Mutex::new(None),
            panicked: Mutex::new(None),
            copy: Mutex::new(CopyQueue {
                heap: std::collections::BinaryHeap::new(),
                shutdown: false,
            }),
            copy_cv: Condvar::new(),
            tracer: Mutex::new(None),
            traced: AtomicBool::new(false),
            fault: Mutex::new(FaultState {
                plan: None,
                occ: OccurrenceMap::new(),
                route: (0..devices).collect(),
                error: None,
                counters: FaultCounters::default(),
            }),
            faulty: AtomicBool::new(false),
            reshard: AtomicU64::new(0),
            deadline_nanos: AtomicU64::new(0),
        });
        // The virtual copy engine: one thread servicing every prefetch by
        // completion deadline (no per-transfer thread spawns).
        let copy_engine = {
            let sh = shared.clone();
            std::thread::Builder::new()
                .name("h2-copy-engine".to_string())
                .spawn(move || loop {
                    let q = sh.copy.plock();
                    let head = q.heap.peek().copied();
                    match head {
                        None => {
                            if q.shutdown {
                                return;
                            }
                            drop(sh.copy_cv.wait(q).unwrap_or_else(|e| e.into_inner()));
                        }
                        Some(std::cmp::Reverse((deadline, gen, ticket))) => {
                            let now = Instant::now();
                            if deadline <= now {
                                let mut q = q;
                                q.heap.pop();
                                drop(q);
                                sh.complete_ticket(gen, ticket);
                            } else {
                                drop(
                                    sh.copy_cv
                                        .wait_timeout(q, deadline - now)
                                        .unwrap_or_else(|e| e.into_inner())
                                        .0,
                                );
                            }
                        }
                    }
                })
                .expect("spawn copy engine")
        };
        let workers = (0..devices)
            .map(|dev| {
                let (tx, rx) = channel::<Cmd>();
                let sh = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("h2-device-{dev}"))
                    .spawn(move || {
                        while let Ok(cmd) = rx.recv() {
                            match cmd {
                                Cmd::Job {
                                    deps,
                                    gen,
                                    ticket,
                                    run,
                                } => {
                                    let stall = sh.wait_tickets(&deps);
                                    let tracer = sh.tracer();
                                    let span = tracer.as_ref().map(|t| {
                                        let mut s =
                                            t.span_on_device("job", format!("dev{dev} job"), dev);
                                        s.arg("stall_ns", ArgValue::U64(stall.as_nanos() as u64));
                                        s.arg("deps", ArgValue::U64(deps.len() as u64));
                                        s
                                    });
                                    let t0 = Instant::now();
                                    let result =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                                    drop(span);
                                    let busy = t0.elapsed();
                                    {
                                        let mut a = sh.accounts[dev].plock();
                                        a.busy_nanos += busy.as_nanos() as u64;
                                        a.stall_nanos += stall.as_nanos() as u64;
                                    }
                                    if let Err(payload) = result {
                                        let why = payload
                                            .downcast_ref::<&str>()
                                            .copied()
                                            .or_else(|| {
                                                payload.downcast_ref::<String>().map(|s| s.as_str())
                                            })
                                            .unwrap_or("non-string payload");
                                        let mut p = sh.panicked.plock();
                                        if p.is_none() {
                                            *p = Some(format!("device {dev} job panicked: {why}"));
                                        }
                                    }
                                    // Complete even on panic so dependents
                                    // never deadlock; the panic surfaces at
                                    // the next real barrier.
                                    sh.complete_ticket(gen, ticket);
                                    let mut done = sh.progress[dev].done.plock();
                                    *done += 1;
                                    sh.progress[dev].cv.notify_all();
                                }
                                Cmd::Stop => break,
                            }
                        }
                    })
                    .expect("spawn device worker");
                Worker {
                    tx,
                    submitted: AtomicU64::new(0),
                    handle: Some(handle),
                }
            })
            .collect();
        Arc::new(DeviceFabric {
            shared,
            workers,
            copy_engine: Mutex::new(Some(copy_engine)),
        })
    }

    pub fn devices(&self) -> usize {
        self.shared.devices
    }

    pub fn mode(&self) -> PipelineMode {
        self.shared.mode
    }

    /// Set the wire precision: the element width every cross-device block
    /// ships at (and the width transfer-landing arena charges use). The
    /// sharded drivers read it through [`ShardDispatch::wire`] when sizing
    /// their transfer descriptors, and the plan cross-checks use the same
    /// width — so byte totals stay exactly equal at either setting.
    /// Configuration rather than accounting: preserved across
    /// [`DeviceFabric::reset`].
    pub fn set_wire(&self, prec: Precision) {
        let tag = match prec {
            Precision::F64 => 0,
            Precision::F32 => 1,
        };
        self.shared.wire.store(tag, Ordering::SeqCst);
    }

    /// Current wire precision (defaults to [`Precision::F64`]).
    pub fn wire(&self) -> Precision {
        if self.shared.wire.load(Ordering::SeqCst) == 1 {
            Precision::F32
        } else {
            Precision::F64
        }
    }

    /// Install (or clear) the injected per-transfer delay hook used by the
    /// prefetch-ordering stress tests.
    pub fn set_transfer_delay(&self, hook: Option<TransferDelay>) {
        *self.shared.delay.plock() = hook;
    }

    /// Install (or clear) a deterministic [`FaultPlan`]. Installing resets
    /// the occurrence counters, the reshard routing and the event
    /// counters, so two runs under the same plan and seed inject the
    /// identical fault sequence — the chaos tests' replayability contract.
    /// The plan itself is configuration and survives
    /// [`DeviceFabric::reset`] (counters and routing do not).
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let on = plan.as_ref().is_some_and(|p| p.is_active());
        self.shared.fault.plock().plan = plan;
        self.restart_faults();
        self.shared.faulty.store(on, Ordering::Relaxed);
    }

    /// Restart the accounting-scope fault state — occurrence counters,
    /// routing, first error, event counters and the reshard version — so
    /// the next run replays the identical fault sequence from occurrence
    /// zero.
    fn restart_faults(&self) {
        let mut fs = self.shared.fault.plock();
        fs.occ.clear();
        fs.route = (0..self.shared.devices).collect();
        fs.error = None;
        fs.counters = FaultCounters::default();
        drop(fs);
        self.shared.reshard.store(0, Ordering::SeqCst);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        if !self.shared.faulty.load(Ordering::Relaxed) {
            return None;
        }
        self.shared.fault.plock().plan.clone()
    }

    /// Arm (or disarm with `None`) the ticket-wait deadline: a dependency
    /// not completed within `d` surfaces as a typed
    /// [`FabricError::TransferTimeout`] at the next barrier instead of a
    /// silent hang. Configuration; survives [`DeviceFabric::reset`].
    pub fn set_ticket_deadline(&self, d: Option<Duration>) {
        let nanos = d.map(|d| (d.as_nanos() as u64).max(1)).unwrap_or(0);
        self.shared.deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Take the first typed fabric error observed since the last
    /// [`DeviceFabric::reset`] / plan install (clearing it).
    pub fn take_fault_error(&self) -> Option<FabricError> {
        self.shared.fault.plock().error.take()
    }

    /// Fault/retry/recovery event counts of the current accounting scope.
    pub fn fault_counters(&self) -> FaultCounters {
        self.shared.fault.plock().counters
    }

    /// Monotone reshard-map version: 0 until a device loss, bumped on
    /// every adoption. Construction drivers compare it across level
    /// checkpoints to detect that recovery replay is needed.
    pub fn reshard_version(&self) -> u64 {
        self.shared.reshard.load(Ordering::SeqCst)
    }

    /// Draw the next occurrence index for a non-transfer fault site (the
    /// kernel-poison sites in `h2_runtime::ops` key their injection and
    /// deterministic re-sketch off this counter).
    pub fn fault_occurrence(&self, site: u64) -> u32 {
        if !self.shared.faulty.load(Ordering::Relaxed) {
            return 0;
        }
        self.shared.fault.plock().occ.next(site)
    }

    /// Record one completed recovery action (poisoned-column re-sketch,
    /// checkpoint replay) and emit a trace instant for it.
    pub fn note_recovery(&self, site: &str) {
        self.shared.fault.plock().counters.recoveries += 1;
        if let Some(tracer) = self.shared.tracer() {
            tracer.instant("fault", format!("recovery: {site}"), Vec::new());
        }
    }

    /// Attach (or detach) an observability tracer. When attached, the
    /// fabric emits device-track job spans (with their ticket-stall time),
    /// per-transfer instants tagged with byte/precision payloads, flush
    /// spans on the issuing thread, and epoch-boundary / arena-release
    /// marks — all against the tracer's shared clock, so they interleave
    /// correctly with `Runtime::phase` spans in one Chrome trace. Untraced
    /// fabrics pay a single relaxed atomic load per hook site.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        let on = tracer.is_some();
        *self.shared.tracer.plock() = tracer;
        self.shared.traced.store(on, Ordering::Relaxed);
    }

    /// The tracer currently attached, if any. [`crate::sharded_runtime`]
    /// propagates it into the `Runtime` it builds so one `set_tracer` call
    /// covers both the fabric's device-side hooks and the host-side phase
    /// spans.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.shared.tracer()
    }

    /// Submit `job` to device `dev`'s ordered queue without blocking and
    /// return its **completion ticket** (same board as transfer tickets, so
    /// a later job's `deps` can mix both). The worker runs queue entries in
    /// FIFO order, waiting on the tickets in `deps` first (wait time is
    /// accounted as stall) and completing the job's own ticket right after
    /// the body runs. Inside a chain scope (see
    /// [`DeviceFabric::chain_begin`]) the previous kernel's tickets on
    /// *other* devices are added as dependencies automatically.
    ///
    /// # Safety
    ///
    /// Every borrow captured by `job` must outlive its execution on the
    /// worker thread: the caller must call [`DeviceFabric::flush`] (or,
    /// inside a chain scope, [`DeviceFabric::chain_end`]) before the
    /// borrowed data is dropped or mutably re-aliased. This is the standard
    /// scoped-threadpool lifetime erasure, with the scope-end moved to the
    /// explicit barrier.
    pub unsafe fn enqueue<'a>(&self, dev: usize, deps: &[u64], job: ShardJob<'a>) -> u64 {
        // The job runs under the submitter's inherited value (its dense
        // counter sink), like a pool task.
        let job: ShardJob<'a> = Box::new(h2_dense::gemm::stats::inheriting(job));
        // SAFETY: only the lifetime is erased — `ShardJob<'a>` and the
        // `'static` box have the same layout — and the caller's contract
        // (flush or `chain_end` before any captured borrow ends) keeps every
        // borrow alive until the worker has run the job.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
        let (gen, ticket) = self.shared.alloc_job_ticket();
        let mut all_deps = deps.to_vec();
        {
            let mut chain = self.shared.chain.plock();
            if let Some(ch) = chain.as_mut() {
                for (d, tickets) in ch.prev.iter().enumerate() {
                    if d != dev {
                        all_deps.extend_from_slice(tickets);
                    }
                }
                ch.cur[dev].push(ticket);
            }
        }
        // Device loss: `dev` stays the *logical* device (ownership,
        // accounting and transfer endpoints are unchanged, so byte totals
        // still match the plan); only the physical worker executing the
        // queue moves to the adopter.
        let phys = self.route_of(dev);
        self.workers[phys].submitted.fetch_add(1, Ordering::SeqCst);
        self.workers[phys]
            .tx
            .send(Cmd::Job {
                deps: all_deps,
                gen,
                ticket,
                run,
            })
            .expect("device worker alive");
        ticket
    }

    /// Physical worker currently executing logical device `dev`'s queue
    /// (identity until a fail-stop adoption; one relaxed load when no
    /// fault plan is installed).
    fn route_of(&self, dev: usize) -> usize {
        if !self.shared.faulty.load(Ordering::Relaxed) {
            return dev;
        }
        self.shared.fault.plock().route[dev]
    }

    /// Open a cross-kernel chain scope (pipelined fabrics only; a no-op in
    /// synchronous mode, where every kernel's fork-join barrier stays
    /// exposed). While the scope is open, [`DeviceFabric::flush`] records a
    /// **chain boundary** instead of blocking: the kernel that just
    /// finished enqueuing becomes the dependency set for the next kernel's
    /// jobs — cross-device ordering via completion tickets, same-device
    /// ordering via the FIFO queue. The host thread never blocks between
    /// kernels, so launch overhead hides behind the still-draining queues.
    /// Close with [`DeviceFabric::chain_end`], which performs the real
    /// barrier and discharges the `enqueue` borrow contract.
    pub fn chain_begin(&self) {
        if self.shared.mode != PipelineMode::Pipelined {
            return;
        }
        let d = self.shared.devices;
        *self.shared.chain.plock() = Some(ChainState {
            prev: vec![Vec::new(); d],
            cur: vec![Vec::new(); d],
        });
    }

    /// Close the chain scope opened by [`DeviceFabric::chain_begin`] and
    /// run the real barrier (safe to call with no chain open — then it is
    /// exactly [`DeviceFabric::flush`]).
    pub fn chain_end(&self) {
        *self.shared.chain.plock() = None;
        self.barrier();
    }

    /// Record a chain boundary if a chain scope is open; returns `false`
    /// (caller should run the real barrier) otherwise. Devices whose
    /// current-kernel ticket list is empty keep their previous tickets, so
    /// dependency transitivity survives kernels that skip a device.
    fn chain_boundary(&self) -> bool {
        let mut chain = self.shared.chain.plock();
        match chain.as_mut() {
            None => false,
            Some(ch) => {
                for dev in 0..self.shared.devices {
                    if !ch.cur[dev].is_empty() {
                        ch.prev[dev] = std::mem::take(&mut ch.cur[dev]);
                    }
                }
                if let Some(tracer) = self.shared.tracer() {
                    tracer.instant("fabric", "chain boundary", Vec::new());
                }
                true
            }
        }
    }

    /// Kernel-boundary synchronization point. Outside a chain scope this is
    /// the barrier: wait until every enqueued job has run, then propagate
    /// any worker panic. Inside a chain scope it records a **chain
    /// boundary** and returns immediately — the finished kernel's job
    /// tickets become automatic dependencies for the next kernel's enqueues
    /// on other devices, so the barrier cost leaves the critical path.
    /// Deliberately does **not** wait for in-flight virtual copies — a
    /// compute-stream sync must not serialize against the copy engine, or
    /// early-issued prefetches would lose their overlap; only
    /// [`DeviceFabric::report`] and [`DeviceFabric::reset`] drain those.
    pub fn flush(&self) {
        if self.chain_boundary() {
            return;
        }
        self.barrier();
    }

    /// The unconditional barrier behind [`DeviceFabric::flush`] /
    /// [`DeviceFabric::chain_end`].
    fn barrier(&self) {
        self.wait_idle();
        if let Some(msg) = self.shared.panicked.plock().take() {
            panic!("a device job panicked on its worker thread: {msg}");
        }
    }

    /// Wait until every enqueued job has run.
    fn wait_idle(&self) {
        let tracer = self.shared.tracer();
        let _span = tracer.as_ref().map(|t| t.span("fabric", "flush"));
        for (dev, w) in self.workers.iter().enumerate() {
            let target = w.submitted.load(Ordering::SeqCst);
            let mut done = self.shared.progress[dev].done.plock();
            while *done < target {
                done = self.shared.progress[dev]
                    .cv
                    .wait(done)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Wait for every in-flight virtual copy to land.
    fn drain_copies(&self) {
        let mut st = self.shared.tickets.state.plock();
        while st.inflight > 0 {
            st = self
                .shared
                .tickets
                .cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Execute `jobs[d]` on device `d`'s worker thread and block until all
    /// complete (the fork-join entry point; [`DeviceFabric::enqueue`] +
    /// [`DeviceFabric::flush`] is the pipelined one). Job wall time is
    /// credited to each device's busy counter.
    pub fn run_jobs<'a>(&self, jobs: Vec<ShardJob<'a>>) {
        assert!(jobs.len() <= self.shared.devices, "more jobs than devices");
        for (dev, job) in jobs.into_iter().enumerate() {
            // SAFETY: the barrier below blocks until every job has
            // completed, so all borrows strictly outlive their execution
            // (fork-join semantics even inside a chain scope).
            unsafe { self.enqueue(dev, &[], job) };
        }
        self.barrier();
    }

    /// Run `plan`, the one executor of the sharded matvec and ULV sweep. Per
    /// epoch: issue its transfers (each ticket filed under the epoch and
    /// device it gates), then per listed level enqueue `job(kernel, ids)` on
    /// every device with a non-empty [`chunk_bounds`] chunk `ids` of the
    /// level's node ids, gated on its tickets, and flush; charge and close
    /// the epoch ([`ShardDispatch::epoch`]). Consecutive epochs
    /// where `chained` holds share one chain scope
    /// ([`DeviceFabric::chain_begin`]). Every job has run on return.
    pub(crate) fn execute<F>(
        &self,
        plan: &Schedule,
        tree: &ClusterTree,
        chained: impl Fn(&ScheduleEpoch) -> bool,
        job: F,
    ) where
        F: Fn(&'static str, Range<usize>) + Sync,
    {
        let devices = self.shared.devices;
        assert_eq!(plan.devices, devices, "execute: plan for another width");
        let _settle = Settle(self);
        let job = &job;
        let mut tickets = vec![vec![Vec::new(); devices]; plan.epochs.len()];
        for (i, epoch) in plan.epochs.iter().enumerate() {
            for &(t, gates) in &epoch.transfers {
                let ticket = self.issue(t);
                if ticket != 0 {
                    tickets[gates][t.dst].push(ticket);
                }
            }
            let chain = chained(epoch);
            if chain && !(i > 0 && chained(&plan.epochs[i - 1])) {
                self.chain_begin();
            }
            for &l in &epoch.levels {
                let first = tree.level(l).start;
                let bounds = chunk_bounds(tree.level_len(l), devices);
                for (dev, gate) in tickets[i].iter().enumerate() {
                    let ids = first + bounds[dev]..first + bounds[dev + 1];
                    if ids.is_empty() {
                        continue;
                    }
                    // SAFETY: the job borrows `job` and `plan`, which
                    // outlive this call, and has run before it returns: at
                    // the flush below, at the scope's `chain_end`, or in
                    // `Settle::drop` if the host unwinds.
                    unsafe { self.enqueue(dev, gate, Box::new(move || job(epoch.kernel, ids))) };
                }
                self.flush();
            }
            if chain && !plan.epochs.get(i + 1).is_some_and(&chained) {
                self.chain_end();
            }
            self.charge_and_close(epoch);
        }
    }

    /// Issue a transfer as an asynchronous prefetch on the virtual copy
    /// engine and return its completion ticket.
    pub fn prefetch_transfer(&self, t: Transfer) -> u64 {
        let service = self.log_issued(t, true);
        let ticket = self.shared.alloc_ticket(service.is_zero());
        if !service.is_zero() {
            let gen = self.shared.tickets.state.plock().gen;
            let deadline = Instant::now() + service;
            self.shared
                .copy
                .plock()
                .heap
                .push(std::cmp::Reverse((deadline, gen, ticket)));
            self.shared.copy_cv.notify_all();
        }
        ticket
    }

    /// Record a cross-device transfer on the explicit queue and service it
    /// inline (synchronous semantics: the copy is exposed; the wait is
    /// charged to the destination device as stall).
    pub fn record_transfer(&self, t: Transfer) {
        let service = self.log_issued(t, false);
        if !service.is_zero() {
            virtual_wait(service);
            self.shared.accounts[t.dst].plock().stall_nanos += service.as_nanos() as u64;
        }
    }

    /// Log one issued transfer under the issuing epoch — with the fault
    /// plan's charged retries and the trace instants — and return its
    /// flight time: the link service time plus any injected delay, widened
    /// by the fault plan's detection and backoff latencies when the plan
    /// fails attempts of this transfer (a prefetch flies that long, an
    /// inline copy exposes it).
    fn log_issued(&self, t: Transfer, prefetched: bool) -> Duration {
        let base = self.service_time(&t);
        let fault = self.shared.begin_fault(&t);
        let extra = fault
            .as_ref()
            .map(|(plan, fp, occ)| fault_flight(plan, *fp, *occ, base))
            .unwrap_or(Duration::ZERO);
        let service = base + extra;
        self.shared.log_transfer(t, service, prefetched, false);
        let stage = if prefetched { "prefetch" } else { "inline" };
        self.trace_transfer(&t, stage, service, None);
        if let Some((plan, fp, occ)) = fault {
            self.charge_fault_retries(&t, base, prefetched, &plan, fp, occ);
        }
        service
    }

    /// Issue one transfer under the fabric's discipline and return the
    /// ticket its consuming job waits on: prefetched on a pipelined fabric,
    /// recorded and serviced inline on a synchronous one (ticket 0, already
    /// complete). The one transfer-issue call of the batched kernels and of
    /// the plan executor (`DeviceFabric::execute`).
    pub fn issue(&self, t: Transfer) -> u64 {
        match self.shared.mode {
            PipelineMode::Pipelined => self.prefetch_transfer(t),
            PipelineMode::Synchronous => {
                self.record_transfer(t);
                0
            }
        }
    }

    /// Charge the fault plan's consequences for one issued transfer: one
    /// extra [`TransferRecord`] per failed attempt (same bytes as the
    /// parent, logged right after it — the re-transfer traffic the
    /// accounts count and [`ExecReport::check`] replays), a fault instant per injected
    /// event, and the retry/fault counters. The landing checksum of the
    /// synthetic payload is exercised in debug builds: a corrupted
    /// attempt must be *detectable* and the final attempt must verify.
    fn charge_fault_retries(
        &self,
        t: &Transfer,
        base: Duration,
        prefetched: bool,
        plan: &FaultPlan,
        fp: u64,
        occ: u32,
    ) {
        if plan.delay_spike(fp, occ).is_some() {
            self.note_fault(FaultKind::DelaySpike, t, 0);
        }
        let failures = plan.failed_attempts(fp, occ);
        for attempt in 0..failures {
            let kind = plan
                .attempt_failure(fp, occ, attempt)
                .expect("attempt counted as failed");
            if kind == FaultKind::TransferCorrupt {
                debug_assert!(
                    !h2_fault::verify_landing(fp, true),
                    "corrupted landing must fail its checksum"
                );
            }
            self.shared.log_transfer(*t, base, prefetched, true);
            self.note_fault(kind, t, attempt);
            self.trace_transfer(t, "retry", base, Some(attempt + 1));
        }
        debug_assert!(
            h2_fault::verify_landing(fp, false),
            "clean landing must verify"
        );
        if failures > 0 {
            self.shared.fault.plock().counters.retries += failures as u64;
        }
    }

    /// Count one injected fault instant and emit it on the destination
    /// device's trace track.
    fn note_fault(&self, kind: FaultKind, t: &Transfer, attempt: u32) {
        self.shared.fault.plock().counters.faults += 1;
        if let Some(tracer) = self.shared.tracer() {
            tracer.instant_on_device(
                "fault",
                kind.name(),
                t.dst,
                vec![
                    ("bytes", ArgValue::U64(t.bytes)),
                    ("src", ArgValue::U64(t.src as u64)),
                    ("attempt", ArgValue::U64(attempt as u64)),
                ],
            );
        }
    }

    /// Emit one transfer instant on the destination device's track (no-op
    /// without a tracer). A charged re-transfer attempt is one too
    /// (category `transfer`, like every charged copy, so trace byte
    /// reconciliation keeps summing to the counter), distinguished by
    /// `stage: "retry"` and its `retry` number.
    fn trace_transfer(
        &self,
        t: &Transfer,
        stage: &'static str,
        flight: Duration,
        retry: Option<u32>,
    ) {
        if let Some(tracer) = self.shared.tracer() {
            let prec = match t.prec {
                Precision::F64 => "f64",
                Precision::F32 => "f32",
            };
            let mut args = vec![
                ("bytes", ArgValue::U64(t.bytes)),
                ("src", ArgValue::U64(t.src as u64)),
                ("prec", ArgValue::Str(prec)),
                ("stage", ArgValue::Str(stage)),
                ("flight_ns", ArgValue::U64(flight.as_nanos() as u64)),
            ];
            args.extend(retry.map(|r| ("retry", ArgValue::U64(r as u64))));
            tracer.instant_on_device("transfer", t.kind.name(), t.dst, args);
        }
    }

    fn service_time(&self, t: &Transfer) -> Duration {
        let base = self.shared.link.service(t);
        let extra = self
            .shared
            .delay
            .plock()
            .as_ref()
            .map(|h| h(t))
            .unwrap_or(Duration::ZERO);
        base + extra
    }

    /// Charge workspace bytes to a device arena for the open epoch (the
    /// resident Krylov shards of [`crate::FabricOp`]; everything else is
    /// charged from the plan).
    pub(crate) fn arena_charge(&self, dev: usize, bytes: usize) {
        self.shared.accounts[dev].plock().arena += bytes;
    }

    /// The one charge-and-close step of every sharded operation: charge each
    /// device `epoch`'s planned flops, generator entries, launches and
    /// arena, then close the epoch under its label.
    fn charge_and_close(&self, epoch: &ScheduleEpoch) {
        for (dev, account) in self.shared.accounts.iter().enumerate() {
            let mut a = account.plock();
            a.flops += epoch.flops[dev];
            a.gen_entries += epoch.entries[dev];
            a.launches += epoch.launches[dev];
            a.arena += epoch.arena[dev];
        }
        self.close_epoch(&epoch.label);
    }

    /// Close the current epoch: snapshot and reset per-device counters
    /// (releasing the epoch's arena) and aggregate the epoch's issued
    /// transfer traffic.
    ///
    /// The per-device stats **exactly tile** the epoch span:
    /// `busy + stall + overlapped + idle == span` on every device, with the
    /// span widened to the busiest device's `busy + stall` when a still-
    /// draining job from an overlapped phase group lands after the window
    /// elapsed. Hidden communication (`overlapped`) is the prefetch flight
    /// time that did not expose as a stall, clipped to the device's
    /// non-working remainder so the tiling is an identity, not a bound.
    fn close_epoch(&self, label: &str) {
        let mut log = self.shared.log.plock();
        let idx = log.epochs.len();
        let window = log.window_start.elapsed();
        log.window_start = Instant::now();
        let (mut bytes, mut msgs) = (0u64, 0usize);
        let mut flight = vec![0u64; self.shared.devices];
        for r in log.records.iter().filter(|r| r.epoch == idx) {
            bytes += r.t.bytes;
            msgs += 1;
            if r.prefetched {
                flight[r.t.dst] += r.flight_nanos;
            }
        }
        let taken: Vec<Account> = (0..self.shared.devices)
            .map(|dev| std::mem::take(&mut *self.shared.accounts[dev].plock()))
            .collect();
        let span = taken
            .iter()
            .map(|a| Duration::from_nanos(a.busy_nanos + a.stall_nanos))
            .max()
            .unwrap_or_default()
            .max(window);
        let per_device: Vec<DeviceEpochStats> = taken
            .into_iter()
            .enumerate()
            .map(|(dev, a)| {
                let busy = Duration::from_nanos(a.busy_nanos);
                let stall = Duration::from_nanos(a.stall_nanos);
                let rest = span - busy - stall;
                let overlapped =
                    Duration::from_nanos(flight[dev].saturating_sub(a.stall_nanos)).min(rest);
                DeviceEpochStats {
                    flops: a.flops,
                    gen_entries: a.gen_entries,
                    launches: a.launches,
                    busy,
                    stall,
                    overlapped,
                    idle: rest - overlapped,
                    arena_peak: a.arena,
                }
            })
            .collect();
        if let Some(tracer) = self.shared.tracer() {
            tracer.instant(
                "fabric",
                format!("epoch close: {label}"),
                vec![
                    ("epoch", ArgValue::U64(idx as u64)),
                    ("comm_bytes", ArgValue::U64(bytes)),
                    ("comm_messages", ArgValue::U64(msgs as u64)),
                ],
            );
            for (dev, d) in per_device.iter().enumerate() {
                tracer.instant_on_device(
                    "arena",
                    "arena release",
                    dev,
                    vec![("peak_bytes", ArgValue::U64(d.arena_peak as u64))],
                );
            }
        }
        log.epochs.push(Epoch {
            label: label.to_string(),
            per_device,
            comm_bytes: bytes,
            comm_messages: msgs,
            span,
        });
        // Lock order is log → fault, never the reverse: release the log
        // guard before the fail-stop check takes the fault lock.
        drop(log);
        self.maybe_fail_stop(idx);
    }

    /// Apply a scheduled device fail-stop once its epoch has closed: the
    /// lost device's queue routing moves to the lowest surviving device,
    /// which adopts the shard's jobs from the next enqueue on. Ownership,
    /// accounting and transfer endpoints stay *logical* — byte totals and
    /// plan comparisons are untouched; what changes is which
    /// physical worker drains the queue, which is the point of the
    /// recovery. Skipped on single-device fabrics (nothing to adopt).
    fn maybe_fail_stop(&self, closed_epoch: usize) {
        let devices = self.shared.devices;
        if devices <= 1 || !self.shared.faulty.load(Ordering::Relaxed) {
            return;
        }
        let adoption = {
            let mut fs = self.shared.fault.plock();
            let Some(stop) = fs.plan.as_ref().and_then(|p| p.fail_stop) else {
                return;
            };
            let dead = stop.device;
            if stop.epoch != closed_epoch || dead >= devices || fs.route[dead] != dead {
                return;
            }
            let adopter = (0..devices)
                .find(|&d| d != dead && fs.route[d] == d)
                .expect("at least one surviving device");
            fs.route[dead] = adopter;
            fs.counters.faults += 1;
            fs.counters.recoveries += 1;
            Some((dead, adopter))
        };
        if let Some((dead, adopter)) = adoption {
            self.shared.reshard.fetch_add(1, Ordering::SeqCst);
            if let Some(tracer) = self.shared.tracer() {
                tracer.instant_on_device(
                    "fault",
                    FaultKind::DeviceFailStop.name(),
                    dead,
                    vec![("epoch", ArgValue::U64(closed_epoch as u64))],
                );
                tracer.instant_on_device(
                    "fault",
                    "reshard-adopt",
                    adopter,
                    vec![("adopted", ArgValue::U64(dead as u64))],
                );
            }
        }
    }

    /// Whether any counter has accumulated since the last epoch boundary.
    fn has_open_work(&self) -> bool {
        {
            let log = self.shared.log.plock();
            let idx = log.epochs.len();
            if log.records.iter().any(|r| r.epoch == idx) {
                return true;
            }
        }
        (0..self.shared.devices).any(|dev| {
            let a = self.shared.accounts[dev].plock();
            a.flops > 0.0
                || a.gen_entries > 0.0
                || a.launches > 0
                || a.busy_nanos > 0
                || a.stall_nanos > 0
        })
    }

    /// Collect everything recorded so far into a report, closing a trailing
    /// epoch under `tail_label` if work is pending. Flushes first so no job
    /// or copy is still in flight.
    pub fn report(&self, tail_label: &str) -> ExecReport {
        *self.shared.chain.plock() = None;
        self.barrier();
        self.drain_copies();
        if self.has_open_work() {
            self.close_epoch(tail_label);
        }
        let log = self.shared.log.plock();
        let epochs = log.epochs.clone();
        let transfers = log
            .records
            .iter()
            .map(|r| (r.epoch, r.t, r.retry))
            .collect();
        let wall = log.run_start.elapsed();
        drop(log);
        let arena_peaks = (0..self.shared.devices)
            .map(|dev| {
                epochs
                    .iter()
                    .map(|e| e.per_device[dev].arena_peak)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        ExecReport {
            devices: self.shared.devices,
            mode: self.shared.mode,
            wire: self.wire(),
            epochs,
            transfers,
            arena_peaks,
            wall,
        }
    }

    /// Clear all accounting (reuse the fabric for another run). Flushes and
    /// invalidates outstanding prefetch tickets first.
    pub fn reset(&self) {
        *self.shared.chain.plock() = None;
        self.barrier();
        self.drain_copies();
        for dev in 0..self.shared.devices {
            *self.shared.accounts[dev].plock() = Account::default();
            self.workers[dev].submitted.store(0, Ordering::SeqCst);
            *self.shared.progress[dev].done.plock() = 0;
        }
        {
            let mut st = self.shared.tickets.state.plock();
            st.gen += 1;
            st.done.clear();
            st.inflight = 0;
        }
        // The fault plan and ticket deadline are configuration and survive,
        // like the wire precision.
        self.restart_faults();
        let mut log = self.shared.log.plock();
        log.epochs.clear();
        log.records.clear();
        log.window_start = Instant::now();
        log.run_start = log.window_start;
    }
}

/// Waits out every queued job when the host unwinds out of
/// [`DeviceFabric::execute`], so no job outlives the borrows it holds.
struct Settle<'f>(&'f DeviceFabric);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0.shared.chain.plock() = None;
            self.0.wait_idle();
        }
    }
}

impl Drop for DeviceFabric {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Cmd::Stop);
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
        self.shared.copy.plock().shutdown = true;
        self.shared.copy_cv.notify_all();
        if let Some(h) = self.copy_engine.plock().take() {
            let _ = h.join();
        }
    }
}

impl ShardDispatch for DeviceFabric {
    fn devices(&self) -> usize {
        DeviceFabric::devices(self)
    }

    fn run<'a>(&self, jobs: Vec<ShardJob<'a>>) {
        self.run_jobs(jobs)
    }

    fn epoch(&self, epoch: &ScheduleEpoch) {
        self.charge_and_close(epoch)
    }

    fn mode(&self) -> PipelineMode {
        DeviceFabric::mode(self)
    }

    fn wire(&self) -> Precision {
        DeviceFabric::wire(self)
    }

    fn issue(&self, t: Transfer) -> u64 {
        DeviceFabric::issue(self, t)
    }

    unsafe fn enqueue<'a>(&self, dev: usize, deps: &[u64], job: ShardJob<'a>) -> u64 {
        // SAFETY: forwarded contract — the caller flushes before borrows end.
        unsafe { DeviceFabric::enqueue(self, dev, deps, job) }
    }

    fn flush(&self) {
        DeviceFabric::flush(self)
    }

    fn chain_begin(&self) {
        DeviceFabric::chain_begin(self)
    }

    fn chain_end(&self) {
        DeviceFabric::chain_end(self)
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        DeviceFabric::fault_plan(self)
    }

    fn fault_occurrence(&self, site: u64) -> u32 {
        DeviceFabric::fault_occurrence(self, site)
    }

    fn reshard_version(&self) -> u64 {
        DeviceFabric::reshard_version(self)
    }

    fn note_recovery(&self, site: &str) {
        DeviceFabric::note_recovery(self, site)
    }
}

/// Everything a sharded run recorded: per-epoch per-device timing and
/// modeled work, the full transfer queue, arena peaks, mode and wall time.
/// The measured epochs are checked against the [`h2_runtime::Schedule`] the
/// run was planned as ([`ExecReport::check`], [`crate::drift`]).
#[derive(Clone, Debug)]
pub struct ExecReport {
    pub devices: usize,
    /// Execution discipline the run used (affects the makespan projection).
    pub mode: PipelineMode,
    /// Wire precision the run shipped blocks at (the width behind every
    /// transfer's `bytes`); the plan cross-checks re-use it.
    pub wire: Precision,
    pub epochs: Vec<Epoch>,
    /// `(issuing epoch index, transfer, is_retry)` in queue order; retry
    /// entries are the charged re-transfers of a fault plan (same bytes
    /// as their parent, flagged so exporters can label them).
    pub transfers: Vec<(usize, Transfer, bool)>,
    /// Per-device peak arena bytes over the whole run (the largest epoch
    /// peak).
    pub arena_peaks: Vec<usize>,
    /// Wall-clock of the whole accounting scope (reset to report).
    pub wall: Duration,
}

impl ExecReport {
    /// Modeled batched-kernel flops summed over devices and epochs
    /// (excluding `batchedGen` entries).
    pub fn total_flops(&self) -> f64 {
        self.epochs
            .iter()
            .flat_map(|e| e.per_device.iter())
            .map(|d| d.flops)
            .sum()
    }

    pub fn total_comm_bytes(&self) -> u64 {
        self.transfers.iter().map(|(_, t, _)| t.bytes).sum()
    }

    pub fn total_comm_messages(&self) -> usize {
        self.transfers.len()
    }

    pub fn total_launches(&self) -> usize {
        self.epochs
            .iter()
            .flat_map(|e| e.per_device.iter())
            .map(|d| d.launches)
            .sum()
    }

    /// Bytes moved for one transfer kind.
    pub fn bytes_of_kind(&self, kind: TransferKind) -> u64 {
        self.transfers
            .iter()
            .filter(|(_, t, _)| t.kind == kind)
            .map(|(_, t, _)| t.bytes)
            .sum()
    }

    /// Measured makespan under the epoch schedule: epochs are sequential,
    /// devices within an epoch run concurrently, so the makespan is the sum
    /// over epochs of the busiest device's busy + exposed-stall time.
    pub fn measured_makespan(&self) -> Duration {
        self.epochs
            .iter()
            .map(|e| {
                e.per_device
                    .iter()
                    .map(|d| d.busy + d.stall)
                    .max()
                    .unwrap_or_default()
            })
            .sum()
    }

    /// Total measured busy time per device across all epochs.
    pub fn busy_per_device(&self) -> Vec<Duration> {
        let mut out = vec![Duration::default(); self.devices];
        for e in &self.epochs {
            for (dev, d) in e.per_device.iter().enumerate() {
                out[dev] += d.busy;
            }
        }
        out
    }

    /// Total exposed transfer-wait time across devices and epochs.
    pub fn stall_total(&self) -> Duration {
        self.epochs
            .iter()
            .flat_map(|e| e.per_device.iter())
            .map(|d| d.stall)
            .sum()
    }

    /// Total hidden (overlapped) transfer flight time.
    pub fn overlapped_total(&self) -> Duration {
        self.epochs
            .iter()
            .flat_map(|e| e.per_device.iter())
            .map(|d| d.overlapped)
            .sum()
    }

    /// Total idle time across devices and epochs.
    pub fn idle_total(&self) -> Duration {
        self.epochs
            .iter()
            .flat_map(|e| e.per_device.iter())
            .map(|d| d.idle)
            .sum()
    }

    /// Project the *measured* counts through a [`DeviceModel`] the way
    /// `Schedule::makespan` projects a plan, honoring the run's execution
    /// discipline. Per epoch: the busiest device's modeled compute time,
    /// communication, and per-device launch overhead — with communication
    /// **serialized after compute** for a synchronous run (every copy was
    /// exposed) but **overlapped with compute** for a pipelined run
    /// (transfers were issued ahead on the copy engine, so only the excess
    /// over the epoch's compute can extend the critical path). Epochs are
    /// sequential.
    pub fn modeled_makespan(&self, model: &DeviceModel) -> f64 {
        (0..self.epochs.len())
            .map(|i| self.epoch_makespan(i, model))
            .sum()
    }

    /// The three schedule terms of epoch `i` under `model`:
    /// `(compute_max, comm, launch_overhead)` — the busiest device's modeled
    /// compute seconds, the epoch's link time, and the busiest device's
    /// launch overhead, priced by [`h2_runtime::epoch_terms`]. How they
    /// combine depends on the run's discipline;
    /// [`ExecReport::epoch_makespan`] applies it.
    pub fn epoch_terms(&self, i: usize, model: &DeviceModel) -> (f64, f64, f64) {
        let e = &self.epochs[i];
        let compute_max = e
            .per_device
            .iter()
            .map(|d| (d.flops + model.entry_cost * d.gen_entries) / model.flops_per_sec)
            .fold(0.0, f64::max);
        let launches_max = e.per_device.iter().map(|d| d.launches).max().unwrap_or(0);
        h2_runtime::epoch_terms(
            model,
            compute_max,
            e.comm_bytes,
            e.comm_messages,
            launches_max as f64,
        )
    }

    /// Modeled critical-path seconds of epoch `i`: compute, communication
    /// and launch overhead **serialized** for a synchronous run (every
    /// copy and every kernel-boundary barrier is exposed), but the **max**
    /// of the three for a pipelined one — transfers are issued ahead on the
    /// copy engine, and with job-level dependency chaining the host
    /// enqueues kernel *k+1* while kernel *k* still drains, so launch
    /// overhead also hides behind whichever of compute or communication
    /// dominates ([`h2_runtime::combine_terms`]).
    /// [`ExecReport::modeled_makespan`] is exactly the sum of this over all
    /// epochs — [`crate::drift`] relies on that identity to make per-epoch
    /// shares sum to the whole.
    pub fn epoch_makespan(&self, i: usize, model: &DeviceModel) -> f64 {
        h2_runtime::combine_terms(self.mode, self.epoch_terms(i, model))
    }

    /// Export the report's totals into an observability
    /// [`h2_obs::Registry`]: fabric byte/message/launch counters (total and
    /// per transfer kind) and per-device busy/stall/overlapped/idle
    /// nanosecond counters. The counter values are defined to equal the
    /// corresponding `ExecReport` accessors exactly — the reconciliation
    /// tests assert it.
    pub fn export_metrics(&self, registry: &h2_obs::Registry) {
        registry
            .counter("fabric.comm_bytes")
            .add(self.total_comm_bytes());
        registry
            .counter("fabric.comm_messages")
            .add(self.total_comm_messages() as u64);
        registry
            .counter("fabric.launches")
            .add(self.total_launches() as u64);
        registry
            .counter("fabric.epochs")
            .add(self.epochs.len() as u64);
        for kind in [
            TransferKind::OmegaFetch,
            TransferKind::ChildGather,
            TransferKind::PartialSum,
            TransferKind::VectorStage,
        ] {
            let bytes = self.bytes_of_kind(kind);
            if bytes > 0 {
                registry
                    .counter(&format!("fabric.bytes.{}", kind.name()))
                    .add(bytes);
            }
        }
        let busy = self.busy_per_device();
        for dev in 0..self.devices {
            let (mut stall, mut over, mut idle) = (0u64, 0u64, 0u64);
            for e in &self.epochs {
                let d = &e.per_device[dev];
                stall += d.stall.as_nanos() as u64;
                over += d.overlapped.as_nanos() as u64;
                idle += d.idle.as_nanos() as u64;
            }
            registry
                .counter(&format!("fabric.dev{dev}.busy_ns"))
                .add(busy[dev].as_nanos() as u64);
            registry
                .counter(&format!("fabric.dev{dev}.stall_ns"))
                .add(stall);
            registry
                .counter(&format!("fabric.dev{dev}.overlapped_ns"))
                .add(over);
            registry
                .counter(&format!("fabric.dev{dev}.idle_ns"))
                .add(idle);
        }
    }

    /// Whether this run executed `plan` exactly, under `faults` when the
    /// fabric had that fault plan installed; `Err` names the first
    /// mismatch. Compared: devices, mode, wire and epoch count; per epoch
    /// the label, bytes and messages, and every device's flops and
    /// generator entries (bit for bit), launches and arena peak; and the
    /// ordered transfer records — each planned transfer under the epoch
    /// that issues it, followed by the retries `faults` charges for it
    /// (occurrences drawn per fingerprint in issue order, as the fabric
    /// draws them). Equal counts price to equal seconds: a passing run's
    /// [`ExecReport::modeled_makespan`] is the plan's [`Schedule::makespan`].
    pub fn check(&self, plan: &Schedule, faults: Option<&FaultPlan>) -> Result<(), String> {
        let run = (self.devices, self.mode, self.wire, self.epochs.len());
        let planned = (plan.devices, plan.mode, plan.wire, plan.epochs.len());
        if run != planned {
            return Err(format!(
                "(devices, mode, wire, epochs) {run:?}, planned {planned:?}"
            ));
        }
        let mut occ = OccurrenceMap::new();
        let mut records = Vec::new();
        for (i, p) in plan.epochs.iter().enumerate() {
            for &(t, _) in &p.transfers {
                let fp = t.fingerprint();
                let retries = faults.map_or(0, |f| f.failed_attempts(fp, occ.next(fp)));
                records.extend((0..=retries).map(|k| (i, t, k > 0)));
            }
        }
        for (i, (m, p)) in self.epochs.iter().zip(&plan.epochs).enumerate() {
            let sent = records.iter().filter(|r| r.0 == i);
            let (bytes, messages) = sent.fold((0, 0), |(b, n), r| (b + r.1.bytes, n + 1));
            let (got, want) = (
                (&m.label, m.comm_bytes, m.comm_messages),
                (&p.label, bytes, messages),
            );
            if got != want {
                return Err(format!(
                    "epoch {i}: (label, bytes, messages) {got:?}, planned {want:?}"
                ));
            }
            for (dev, d) in m.per_device.iter().enumerate() {
                let got = (d.flops, d.gen_entries, d.launches, d.arena_peak);
                let want = (p.flops[dev], p.entries[dev], p.launches[dev], p.arena[dev]);
                let bits =
                    |(f, g, l, a): (f64, f64, usize, usize)| (f.to_bits(), g.to_bits(), l, a);
                if bits(got) != bits(want) {
                    return Err(format!(
                        "epoch {i} {:?} device {dev}: (flops, entries, launches, arena) {got:?}, \
                         planned {want:?}",
                        p.label
                    ));
                }
            }
        }
        let n = self.transfers.len().max(records.len());
        let first = (0..n).find(|&k| self.transfers.get(k) != records.get(k));
        first.map_or(Ok(()), |k| {
            let (got, want) = (self.transfers.get(k), records.get(k));
            Err(format!("transfer record {k}: {got:?}, planned {want:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Device `dev`'s open account, charged directly as a planned epoch
    /// would charge it.
    fn account(fabric: &DeviceFabric, dev: usize) -> MutexGuard<'_, Account> {
        fabric.shared.accounts[dev].plock()
    }

    #[test]
    fn jobs_run_on_distinct_worker_threads() {
        let fabric = DeviceFabric::new(3);
        let names = Mutex::new(Vec::new());
        let jobs: Vec<ShardJob<'_>> = (0..3)
            .map(|_| {
                Box::new(|| {
                    names
                        .lock()
                        .unwrap()
                        .push(std::thread::current().name().unwrap_or("?").to_string());
                }) as ShardJob<'_>
            })
            .collect();
        fabric.run_jobs(jobs);
        let mut got = names.into_inner().unwrap();
        got.sort();
        assert_eq!(got, vec!["h2-device-0", "h2-device-1", "h2-device-2"]);
    }

    #[test]
    fn run_blocks_until_all_jobs_complete() {
        let fabric = DeviceFabric::new(4);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<ShardJob<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as ShardJob<'_>
            })
            .collect();
        fabric.run_jobs(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panicking_job_propagates_instead_of_hanging() {
        let fabric = DeviceFabric::new(2);
        let jobs: Vec<ShardJob<'_>> = vec![
            Box::new(|| {}),
            Box::new(|| panic!("injected device fault")),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fabric.run_jobs(jobs);
        }));
        let payload = result.expect_err("the worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the fabric re-raises with a message");
        assert!(
            msg.contains("device 1 job panicked: injected device fault"),
            "the host panic must carry the job's own message: {msg}"
        );
    }

    #[test]
    fn queue_preserves_per_device_order() {
        let fabric = DeviceFabric::pipelined(2);
        let seq = Mutex::new(Vec::new());
        let seq_ref = &seq;
        for i in 0..8 {
            // SAFETY: flushed below before `seq` is read or dropped.
            unsafe {
                fabric.enqueue(
                    i % 2,
                    &[],
                    Box::new(move || seq_ref.plock().push(i)) as ShardJob<'_>,
                );
            }
        }
        fabric.flush();
        let got = seq.into_inner().unwrap();
        let dev0: Vec<usize> = got.iter().copied().filter(|i| i % 2 == 0).collect();
        let dev1: Vec<usize> = got.iter().copied().filter(|i| i % 2 == 1).collect();
        assert_eq!(dev0, vec![0, 2, 4, 6], "device 0 must run in FIFO order");
        assert_eq!(dev1, vec![1, 3, 5, 7], "device 1 must run in FIFO order");
    }

    #[test]
    fn prefetch_tickets_gate_dependent_jobs() {
        let fabric = DeviceFabric::pipelined(1);
        fabric.set_transfer_delay(Some(Arc::new(|_| Duration::from_millis(20))));
        let t = Transfer {
            src: 0,
            dst: 0,
            bytes: 64,
            kind: TransferKind::OmegaFetch,
            prec: Precision::F64,
        };
        let ticket = fabric.prefetch_transfer(t);
        assert_ne!(ticket, 0);
        let seen = AtomicUsize::new(0);
        let t0 = Instant::now();
        // SAFETY: flushed below.
        unsafe {
            fabric.enqueue(
                0,
                &[ticket],
                Box::new(|| {
                    seen.store(1, Ordering::SeqCst);
                }) as ShardJob<'_>,
            );
        }
        fabric.flush();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "the job must have waited for the delayed copy"
        );
        let rep = fabric.report("tail");
        assert!(
            rep.stall_total() >= Duration::from_millis(10),
            "the exposed wait must be accounted as stall"
        );
    }

    #[test]
    fn enqueue_returns_completion_tickets_that_gate_jobs() {
        let fabric = DeviceFabric::pipelined(2);
        let order = Mutex::new(Vec::new());
        let order_ref = &order;
        // SAFETY: chain_end/flush below runs before `order` is read.
        let t0 = unsafe {
            fabric.enqueue(
                0,
                &[],
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    order_ref.plock().push("producer");
                }) as ShardJob<'_>,
            )
        };
        assert_ne!(t0, 0);
        // SAFETY: flushed below.
        unsafe {
            fabric.enqueue(
                1,
                &[t0],
                Box::new(move || order_ref.plock().push("consumer")) as ShardJob<'_>,
            );
        }
        fabric.flush();
        assert_eq!(
            order.into_inner().unwrap(),
            vec!["producer", "consumer"],
            "the cross-device job must wait on the producer's ticket"
        );
    }

    #[test]
    fn chain_scope_orders_kernels_without_blocking_the_host() {
        let fabric = DeviceFabric::pipelined(2);
        let order = Mutex::new(Vec::new());
        let order_ref = &order;
        fabric.chain_begin();
        // Kernel A: slow job on device 0, fast on device 1.
        for (dev, ms, tag) in [(0usize, 25u64, "A0"), (1, 0, "A1")] {
            // SAFETY: chain_end below runs before `order` is read.
            unsafe {
                fabric.enqueue(
                    dev,
                    &[],
                    Box::new(move || {
                        std::thread::sleep(Duration::from_millis(ms));
                        order_ref.plock().push(tag);
                    }) as ShardJob<'_>,
                );
            }
        }
        let t_boundary = Instant::now();
        fabric.flush(); // chain boundary: must NOT block on A0
        let boundary_wait = t_boundary.elapsed();
        // Kernel B on device 1 must still wait for kernel A on device 0.
        // SAFETY: chain_end below.
        unsafe {
            fabric.enqueue(
                1,
                &[],
                Box::new(move || order_ref.plock().push("B1")) as ShardJob<'_>,
            );
        }
        fabric.chain_end();
        assert!(
            boundary_wait < Duration::from_millis(15),
            "the in-chain flush must not expose the slow device's drain"
        );
        let got = order.into_inner().unwrap();
        let pos = |t: &str| got.iter().position(|g| *g == t).unwrap();
        assert!(pos("A0") < pos("B1"), "B1 must wait on A0's ticket");
        assert!(pos("A1") < pos("B1"), "B1 follows A1 in device 1's FIFO");
    }

    #[test]
    fn chain_begin_is_a_noop_on_synchronous_fabrics() {
        let fabric = DeviceFabric::new(1);
        fabric.chain_begin();
        let hits = AtomicUsize::new(0);
        let hits_ref = &hits;
        // SAFETY: flushed below.
        unsafe {
            fabric.enqueue(
                0,
                &[],
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    hits_ref.fetch_add(1, Ordering::SeqCst);
                }) as ShardJob<'_>,
            );
        }
        fabric.flush(); // must be a real barrier: no chain is open
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        fabric.chain_end();
    }

    #[test]
    fn epochs_snapshot_and_reset_counters() {
        let fabric = DeviceFabric::new(2);
        account(&fabric, 0).flops += 100.0;
        account(&fabric, 1).gen_entries += 7.0;
        account(&fabric, 0).launches += 3;
        fabric.arena_charge(0, 64);
        fabric.record_transfer(Transfer {
            src: 0,
            dst: 1,
            bytes: 128,
            kind: TransferKind::OmegaFetch,
            prec: Precision::F64,
        });
        fabric.close_epoch("e0");
        account(&fabric, 0).flops += 1.0;
        let rep = fabric.report("tail");
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[0].per_device[0].flops, 100.0);
        assert_eq!(rep.epochs[0].per_device[1].gen_entries, 7.0);
        assert_eq!(rep.epochs[0].per_device[0].launches, 3);
        assert_eq!(rep.epochs[0].per_device[0].arena_peak, 64);
        assert_eq!(rep.epochs[0].comm_bytes, 128);
        assert_eq!(rep.epochs[0].comm_messages, 1);
        assert_eq!(rep.epochs[1].label, "tail");
        assert_eq!(rep.epochs[1].per_device[0].flops, 1.0);
        assert_eq!(rep.total_flops(), 101.0);
        assert_eq!(rep.total_comm_bytes(), 128);
        assert_eq!(rep.bytes_of_kind(TransferKind::OmegaFetch), 128);
        assert_eq!(rep.bytes_of_kind(TransferKind::ChildGather), 0);
    }

    #[test]
    fn planned_epochs_are_charged_and_closed_under_their_labels() {
        let fabric = DeviceFabric::new(2);
        let mut epochs = [
            ScheduleEpoch::blank("k", "e0", 2),
            ScheduleEpoch::blank("k", "e1", 2),
        ];
        epochs[0].flops = vec![3.0, 1.0];
        epochs[0].entries = vec![0.0, 5.0];
        epochs[0].launches = vec![2, 1];
        epochs[0].arena = vec![100, 40];
        epochs[1].arena = vec![60, 90];
        for e in &epochs {
            ShardDispatch::epoch(fabric.as_ref(), e);
        }
        let rep = fabric.report("tail");
        assert_eq!(rep.epochs.len(), 2, "nothing left open for a tail");
        for (m, p) in rep.epochs.iter().zip(&epochs) {
            assert_eq!(m.label, p.label);
            for (dev, d) in m.per_device.iter().enumerate() {
                let got = (d.flops, d.gen_entries, d.launches, d.arena_peak);
                assert_eq!(
                    got,
                    (p.flops[dev], p.entries[dev], p.launches[dev], p.arena[dev])
                );
            }
        }
        // Each epoch releases its workspace: the run's peak is the
        // largest epoch peak, not a running sum.
        assert_eq!(rep.arena_peaks, vec![100, 90]);
    }

    #[test]
    fn fetch_issued_ahead_is_recorded_once_and_gates_its_job() {
        use h2_runtime::{bsr_gemm, issue_bsr_fetches, BsrBlock, BsrPattern, Runtime, VarBatch};
        let fabric = DeviceFabric::pipelined(2);
        fabric.set_transfer_delay(Some(Arc::new(|_| Duration::from_millis(20))));
        let rt = Runtime::sharded(fabric.clone());
        // Two BSR rows, one per device, both reading partner 0: device 1
        // fetches it from device 0, device 0 reads its own.
        let pattern = BsrPattern::from_rows(&[vec![0], vec![0]]);
        let tickets = issue_bsr_fetches(fabric.as_ref(), &pattern, &[4, 4], 3);
        assert!(tickets[0].is_empty());
        assert_eq!(tickets[1].len(), 1);
        fabric.close_epoch("issue");

        let eye = h2_dense::Mat::eye(4);
        let blocks = vec![BsrBlock::plain(&eye); 2];
        let mut x = VarBatch::zeros_uniform_cols(vec![4, 4], 3);
        x.for_each_mut(|i, mut m| m.fill(1.0 + i as f64));
        let mut y = VarBatch::zeros_uniform_cols(vec![4, 4], 3);
        bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, 1.0, Some(tickets));
        assert_eq!(y.to_mat(1), x.to_mat(0));
        let rep = fabric.report("consume");

        // Recorded once, by the issue, in the issuing epoch.
        let bytes = 4 * 3 * 8;
        assert_eq!(rep.transfers.len(), 1);
        let (epoch, t, retry) = rep.transfers[0];
        assert_eq!(
            (epoch, t.src, t.dst, t.bytes, retry),
            (0, 0, 1, bytes, false)
        );
        // The consuming job on device 1 waited for the delayed copy.
        assert!(rep.epochs[1].per_device[1].stall >= Duration::from_millis(10));
        assert_eq!(rep.epochs[1].per_device[0].stall, Duration::ZERO);
    }

    #[test]
    fn execute_routes_each_ticket_to_the_epoch_and_device_it_gates() {
        const DELAY: Duration = Duration::from_millis(40);
        let fabric = DeviceFabric::pipelined(2);
        fabric.set_transfer_delay(Some(Arc::new(|_| DELAY)));
        let tree = ClusterTree::build(&h2_tree::uniform_cube(64, 1), 16);
        let (l, nl) = (tree.leaf_level(), tree.level_len(tree.leaf_level()));
        // Epoch 0 issues a copy to device 1 that only epoch 1 reads.
        let t = Transfer {
            src: 0,
            dst: 1,
            bytes: 256,
            kind: TransferKind::ChildGather,
            prec: Precision::F64,
        };
        let mut epochs = vec![
            ScheduleEpoch::blank("produce", "e0", 2),
            ScheduleEpoch::blank("consume", "e1", 2),
        ];
        epochs[0].transfers.push((t, 1));
        for e in &mut epochs {
            e.run_level(l, nl);
        }
        let plan = Schedule {
            devices: 2,
            mode: PipelineMode::Pipelined,
            wire: Precision::F64,
            epochs,
        };
        let on_dev1 = tree.level(l).start + chunk_bounds(nl, 2)[1];
        let started = Mutex::new(Vec::new());
        let t0 = Instant::now();
        fabric.execute(
            &plan,
            &tree,
            |_| false,
            |kernel, ids| {
                started.plock().push((kernel, ids.start, t0.elapsed()));
            },
        );
        let rep = fabric.report("tail");

        let started = started.into_inner().unwrap();
        assert_eq!(started.len(), 4, "one job per device and epoch");
        let (_, _, consumed) = started
            .iter()
            .find(|&&(k, lo, _)| k == "consume" && lo == on_dev1)
            .unwrap();
        assert!(*consumed >= DELAY, "the consumer starts after the landing");
        for (e, epoch) in rep.epochs.iter().enumerate() {
            for (dev, stats) in epoch.per_device.iter().enumerate() {
                if (e, dev) != (1, 1) {
                    assert_eq!(stats.stall, Duration::ZERO, "epoch {e} device {dev}");
                }
            }
        }
        assert!(rep.epochs[1].per_device[1].stall > Duration::ZERO);
        assert_eq!(
            rep.transfers,
            vec![(0, t, false)],
            "logged once, in epoch 0"
        );
        assert_eq!(rep.epochs[0].comm_bytes, 256);
        assert_eq!(rep.epochs[1].comm_bytes, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let fabric = DeviceFabric::new(2);
        account(&fabric, 0).flops += 5.0;
        fabric.close_epoch("x");
        fabric.reset();
        let rep = fabric.report("tail");
        assert!(rep.epochs.is_empty());
        assert_eq!(rep.total_flops(), 0.0);
    }

    #[test]
    fn modeled_makespan_tracks_busiest_device() {
        let fabric = DeviceFabric::new(2);
        account(&fabric, 0).flops += 2.0e10;
        account(&fabric, 1).flops += 1.0e10;
        fabric.close_epoch("lvl");
        let rep = fabric.report("tail");
        let model = DeviceModel {
            flops_per_sec: 1.0e10,
            link_bandwidth: 1.0e12,
            link_latency: 0.0,
            launch_overhead: 0.0,
            entry_cost: 20.0,
        };
        assert!((rep.modeled_makespan(&model) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_projection_overlaps_comm_with_compute() {
        let model = DeviceModel {
            flops_per_sec: 1.0e10,
            link_bandwidth: 1.0e9,
            link_latency: 0.0,
            launch_overhead: 0.0,
            entry_cost: 20.0,
        };
        let mk = |fabric: Arc<DeviceFabric>| {
            account(&fabric, 0).flops += 1.0e10; // 1 s of compute
            let t = Transfer {
                src: 1,
                dst: 0,
                bytes: 5e8 as u64, // 0.5 s on the modeled link
                kind: TransferKind::OmegaFetch,
                prec: Precision::F64,
            };
            fabric.issue(t);
            fabric.close_epoch("lvl");
            fabric.report("tail").modeled_makespan(&model)
        };
        let sync = mk(DeviceFabric::new(2));
        let pipe = mk(DeviceFabric::pipelined(2));
        assert!((sync - 1.5).abs() < 1e-12, "serialized: 1 s + 0.5 s");
        assert!((pipe - 1.0).abs() < 1e-12, "overlapped: max(1 s, 0.5 s)");
    }
}

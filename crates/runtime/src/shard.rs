//! Device-sharding plumbing: the dispatch interface the batched kernels use
//! when the runtime executes on a [`crate::Backend::Sharded`] backend, plus
//! the explicit cross-device [`Transfer`] records of §IV.B.
//!
//! The paper's multi-GPU extension divides each level's batches across
//! devices in contiguous node chunks (§IV.A level-contiguous storage makes
//! that the natural decomposition) and communicates only at two points: the
//! `batchedBSRGemm` fetch of off-device partner inputs `Ω_b`, and the
//! line-24 child stacking when a sibling pair straddles a chunk boundary.
//! This module defines:
//!
//! * [`ShardDispatch`] — the object-safe interface a device fabric
//!   implements (the real fabric of worker threads lives in the `h2_sched`
//!   crate; this crate only needs to *drive* it). The runtime's chunk
//!   runner queues each device's chunk of a batched kernel on it, and the
//!   kernels in [`crate::ops`] and [`crate::bsr`] issue their transfers
//!   through it, but nothing counts: each closed epoch is
//!   charged from the plan ([`ShardDispatch::epoch`]), so measured and
//!   planned counts have one source;
//! * [`Transfer`] — one explicit cross-device copy (what a real multi-GPU
//!   build would issue as a peer-to-peer `cudaMemcpyAsync`), and the two
//!   rules that decide them: [`FetchPlanner`] (the `Ω_b` fetches) and
//!   [`child_gathers`] (the line-24 merges), each written once and read by
//!   both the kernels and the planner;
//! * [`chunk_bounds`] — the contiguous chunk decomposition consistent with
//!   [`crate::multidev::owner`].
//!
//! ## Pipelined dispatch
//!
//! A fabric runs in one of two [`PipelineMode`]s, and the discipline lives
//! in the fabric, not in the kernels. Every batched kernel makes the same
//! three calls:
//!
//! * [`ShardDispatch::issue`] hands the fabric a transfer descriptor and
//!   returns a completion ticket. A pipelined fabric starts the copy on its
//!   virtual copy engine (a DMA stream) and returns a live ticket; a
//!   synchronous one services the copy inline (the transfer is *exposed*)
//!   and returns 0, the ticket that is already complete;
//! * [`ShardDispatch::enqueue`] submits a job to one device's ordered queue
//!   without blocking, gated on a set of tickets — the device stalls only
//!   if a copy has not landed by the time the job reaches the head of its
//!   queue;
//! * [`ShardDispatch::flush`] is the barrier, issued once per kernel call
//!   (or once per chain scope of kernels).
//!
//! On a pipelined fabric the construction's per-level fabric step
//! (`h2_core::multidev`) issues the next level's `Ω_b` fetches as soon as
//! the current level's IDs fix the block sizes
//! ([`crate::issue_bsr_fetches`]), keeps the returned tickets per stream,
//! and hands them to that level's `batchedBSRGemm`, so the copies
//! run behind the current level's `batchedGen`/upsweep compute. Every other
//! call issues its own fetches. Both go through the one [`FetchPlanner`]
//! the construction plan reads, so a descriptor is the same record whether
//! it was issued a level early or by the kernel itself.

use crate::multidev::{cost, owner, ScheduleEpoch};
use h2_dense::Precision;
use std::collections::HashSet;
use std::sync::Arc;

/// Execution discipline of a [`ShardDispatch`] fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Fork-join per batched kernel; transfers serviced inline (exposed).
    Synchronous,
    /// Ordered per-device queues with asynchronous prefetched transfers;
    /// barriers only at [`ShardDispatch::flush`] points.
    Pipelined,
}

/// Why a cross-device copy happened (the §IV.B communication taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// `batchedBSRGemm` fetching the input block `Ω_b` (or `Ψ_b` for the
    /// column stream) of an off-device partner.
    OmegaFetch,
    /// Line-24 child stacking across a chunk boundary (one sibling's
    /// samples/inputs gathered onto the parent's device).
    ChildGather,
    /// Matvec downsweep/reduction traffic: a device reading a parent's
    /// `ŷ` partial sum owned by another device.
    PartialSum,
    /// Krylov vector traffic: the scalar allreduce each global dot or norm
    /// of a solve with device-resident vector shards costs
    /// (`h2_sched::resident_reduce_hook`).
    VectorStage,
}

impl TransferKind {
    pub fn name(self) -> &'static str {
        match self {
            TransferKind::OmegaFetch => "omega-fetch",
            TransferKind::ChildGather => "child-gather",
            TransferKind::PartialSum => "partial-sum",
            TransferKind::VectorStage => "vector-stage",
        }
    }

    /// Stable small integer used in fault-site fingerprints.
    fn tag(self) -> u8 {
        match self {
            TransferKind::OmegaFetch => 0,
            TransferKind::ChildGather => 1,
            TransferKind::PartialSum => 2,
            TransferKind::VectorStage => 3,
        }
    }
}

/// One explicit cross-device copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Device the data is resident on.
    pub src: usize,
    /// Device that needs it.
    pub dst: usize,
    pub bytes: u64,
    pub kind: TransferKind,
    /// Element width the block is shipped at; `bytes` is already expressed
    /// at this width (the descriptor carries the precision so accounting
    /// and assertions can audit the wire format, not to rescale bytes).
    pub prec: Precision,
}

impl Transfer {
    /// Fault-site fingerprint of this descriptor: the identity the
    /// deterministic fault machinery keys its per-occurrence draws on
    /// ([`h2_fault::transfer_fingerprint`]). Interleaving-independent —
    /// two transfers with equal kind, endpoints, bytes, and wire precision
    /// share a fingerprint and are told apart by occurrence index, which
    /// is what lets a closed-form transfer census replay the executor's
    /// exact fault stream.
    pub fn fingerprint(&self) -> u64 {
        h2_fault::transfer_fingerprint(
            self.kind.tag(),
            self.src as u64,
            self.dst as u64,
            self.bytes,
            self.prec.bytes() as u8,
        )
    }
}

/// A unit of work bound for one virtual device's worker thread. Borrows are
/// allowed because [`ShardDispatch::run`] blocks until every job completes
/// (and every [`ShardDispatch::enqueue`] is flushed before its borrows end —
/// the `unsafe` contract of that method).
pub type ShardJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Deduplicated `(device, partner)` fetch planning for one `batchedBSRGemm`
/// call — the single source of the Ω/Ψ transfer descriptors, driven by
/// [`crate::issue_bsr_fetches`] and by `h2_core::plan_construct`. BSR rows
/// and their partners are one population of `n` blocks, owned in
/// contiguous chunks.
pub struct FetchPlanner {
    n: usize,
    devices: usize,
    wire: Precision,
    seen: HashSet<(usize, usize)>,
    plan: Vec<Transfer>,
}

impl FetchPlanner {
    pub fn new(n: usize, devices: usize, wire: Precision) -> Self {
        FetchPlanner {
            n,
            devices,
            wire,
            seen: HashSet::new(),
            plan: Vec::new(),
        }
    }

    /// Visit one `(row, partner)` block: records a fetch descriptor the
    /// first time an off-device partner is needed by a device.
    pub fn visit(&mut self, row: usize, partner: usize, partner_rows: usize, partner_cols: usize) {
        let dev = owner(row, self.n, self.devices);
        let dev_b = owner(partner, self.n, self.devices);
        if dev_b != dev && self.seen.insert((dev, partner)) {
            self.plan.push(Transfer {
                src: dev_b,
                dst: dev,
                bytes: cost::fetch_bytes_p(partner_rows, partner_cols, self.wire),
                kind: TransferKind::OmegaFetch,
                prec: self.wire,
            });
        }
    }

    /// The deduplicated fetch plan, in first-need order.
    pub fn into_plan(self) -> Vec<Transfer> {
        self.plan
    }
}

/// The line-24 boundary gathers of one child stacking — the single
/// statement of the merge rule, read by `stack_children` and by
/// `h2_core::plan_construct`. `children[p]` lists the child entries stacked
/// into parent `p`, and `child_rows[c]` is child `c`'s block height. Parents
/// and children are each owned in contiguous chunks of their own population;
/// every child owned by another device than its parent is copied to the
/// parent's device as one `rows × d` [`TransferKind::ChildGather`], in
/// parent-then-child order.
pub fn child_gathers(
    children: &[Vec<usize>],
    child_rows: &[usize],
    d: usize,
    devices: usize,
    wire: Precision,
) -> Vec<Transfer> {
    let (np, nc) = (children.len(), child_rows.len());
    let mut out = Vec::new();
    for (p, cs) in children.iter().enumerate() {
        let dp = owner(p, np, devices);
        for &c in cs {
            let dc = owner(c, nc, devices);
            if dc != dp {
                out.push(Transfer {
                    src: dc,
                    dst: dp,
                    bytes: cost::fetch_bytes_p(child_rows[c], d, wire),
                    kind: TransferKind::ChildGather,
                    prec: wire,
                });
            }
        }
    }
    out
}

/// The interface of a device fabric: N virtual devices, each with a worker
/// thread, a memory arena and a work/traffic account. The kernels run jobs
/// and issue transfers through it; the accounts are charged from the plan,
/// one [`ScheduleEpoch`] per closed epoch. Implemented by
/// `h2_sched::DeviceFabric`; consumed by the batched kernels.
pub trait ShardDispatch: Send + Sync {
    /// Number of virtual devices.
    fn devices(&self) -> usize;

    /// Execute `jobs[d]` on device `d`'s worker thread (at most
    /// [`ShardDispatch::devices`] jobs) and block until all complete.
    fn run<'a>(&self, jobs: Vec<ShardJob<'a>>);

    /// Charge `epoch`'s planned per-device flops, generator entries,
    /// launches and workspace, then close the fabric's current accounting
    /// epoch (one construction level) under `epoch.label`. The kernels
    /// count nothing: every sharded operation is charged from its plan.
    fn epoch(&self, epoch: &ScheduleEpoch);

    /// Wire precision every cross-device block ships at.
    fn wire(&self) -> Precision;

    /// The fabric's execution discipline.
    fn mode(&self) -> PipelineMode;

    /// Issue one transfer under the fabric's discipline and return the
    /// completion ticket for [`ShardDispatch::enqueue`] deps: a prefetch
    /// on the copy engine when pipelined, an inline (exposed) copy
    /// returning 0 — already complete — when synchronous.
    fn issue(&self, t: Transfer) -> u64;

    /// Submit `job` to device `dev`'s ordered queue without blocking, gated
    /// on the tickets in `deps` (transfer tickets and/or prior jobs'
    /// completion tickets — both live on one board). Returns the job's own
    /// completion ticket.
    ///
    /// # Safety
    ///
    /// The caller must call [`ShardDispatch::flush`] (or, inside a chain
    /// scope, [`ShardDispatch::chain_end`]) before any borrow captured by
    /// `job` ends — the fabric erases the job's lifetime to move it onto
    /// the worker thread. Every batched kernel upholds this by flushing
    /// before it returns (or before the borrowed buffers of an overlapped
    /// phase group go out of scope).
    unsafe fn enqueue<'a>(&self, dev: usize, deps: &[u64], job: ShardJob<'a>) -> u64;

    /// Kernel-boundary synchronization: a barrier that blocks until every
    /// enqueued job has completed (and propagates any worker panic) —
    /// except inside an open chain scope, where the fabric records a
    /// dependency boundary instead and returns immediately.
    fn flush(&self);

    /// Open a cross-kernel chain scope: until [`ShardDispatch::chain_end`],
    /// `flush` records kernel boundaries (the finished kernel's job tickets
    /// become automatic dependencies for the next kernel's jobs on other
    /// devices) instead of blocking the host. A no-op on synchronous
    /// fabrics, where every kernel stays fork-join.
    fn chain_begin(&self);

    /// Close the chain scope and run the real barrier, discharging the
    /// borrow contract of every `enqueue` issued inside the scope.
    fn chain_end(&self);

    // ---- resilience ----

    /// The active fault-injection plan, if the fabric is running a seeded
    /// chaos schedule ([`h2_fault::FaultPlan`]). Kernels consult this to
    /// inject/detect output poison at the producing site.
    fn fault_plan(&self) -> Option<Arc<h2_fault::FaultPlan>>;

    /// Advance and return the occurrence index of fault site `site`
    /// (a fingerprint from [`h2_fault::poison_site`] or
    /// [`Transfer::fingerprint`]) — the deterministic replay clock.
    fn fault_occurrence(&self, site: u64) -> u32;

    /// Version of the logical-to-physical reshard map. Bumps when a device
    /// fail-stop makes survivors adopt the lost shard's node ownership;
    /// the construction's per-level fabric step observes a change and
    /// replays only the in-flight level from its last sealed checkpoint.
    fn reshard_version(&self) -> u64;

    /// Record one bounded-recovery event at a named site (poison
    /// recompute, shard adoption) for the fabric's fault counters and
    /// trace stream.
    fn note_recovery(&self, site: &str);
}

/// Contiguous per-device chunk bounds for `n` items over `devices` devices:
/// device `d` owns items `bounds[d]..bounds[d + 1]`. Consistent with
/// [`crate::multidev::owner`]: `owner(i, n, devices) == d` exactly for `i`
/// in that range.
pub fn chunk_bounds(n: usize, devices: usize) -> Vec<usize> {
    let d = devices.max(1);
    if n == 0 {
        return vec![0; d + 1];
    }
    if d == 1 {
        return vec![0, n];
    }
    (0..=d).map(|dev| (dev * n).div_ceil(d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multidev::owner;

    #[test]
    fn chunk_bounds_agree_with_owner() {
        for &(n, d) in &[(10usize, 3usize), (7, 7), (2, 7), (0, 4), (16, 1), (5, 8)] {
            let b = chunk_bounds(n, d);
            assert_eq!(b.len(), d + 1);
            assert_eq!(b[0], 0);
            assert_eq!(b[d], n);
            for dev in 0..d {
                assert!(b[dev] <= b[dev + 1], "bounds must be monotone");
                for i in b[dev]..b[dev + 1] {
                    assert_eq!(owner(i, n, d), dev, "item {i} of {n} on {d} devices");
                }
            }
        }
    }

    #[test]
    fn chunk_bounds_balanced_within_one() {
        let b = chunk_bounds(10, 3);
        let sizes: Vec<usize> = (0..3).map(|d| b[d + 1] - b[d]).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }
}

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
//!   crate; this crate only needs to *drive* it). The batched kernels in
//!   [`crate::ops`] and [`crate::bsr`] shard their per-entry work through
//!   it and account modeled work/traffic with the *same formulas* as the
//!   [`crate::multidev`] simulator, which is what makes measured and
//!   simulated totals directly comparable;
//! * [`Transfer`] — one explicit cross-device copy (what a real multi-GPU
//!   build would issue as a peer-to-peer `cudaMemcpyAsync`);
//! * [`chunk_bounds`] — the contiguous chunk decomposition consistent with
//!   [`crate::multidev::owner`].
//!
//! ## Pipelined dispatch
//!
//! A dispatcher may run in one of two [`PipelineMode`]s. In
//! [`PipelineMode::Synchronous`] every batched kernel is fork-join:
//! [`ShardDispatch::run`] blocks until all per-device jobs complete, and
//! [`ShardDispatch::push_transfer`] services the copy inline (the transfer
//! is *exposed* on the critical path). In [`PipelineMode::Pipelined`] the
//! kernels instead use the ordered per-device queues directly:
//!
//! * [`ShardDispatch::prefetch`] issues a transfer descriptor *ahead* of the
//!   compute that consumes it and returns a ticket; the copy proceeds
//!   asynchronously (a virtual copy engine / DMA stream);
//! * [`ShardDispatch::enqueue`] submits a job to one device's ordered queue
//!   without blocking, gated on a set of prefetch tickets — the device
//!   stalls only if the copy has not landed by the time the job reaches the
//!   head of its queue;
//! * [`ShardDispatch::flush`] is the explicit barrier, issued once per
//!   kernel call (or once per overlapped phase group) instead of once per
//!   launch.
//!
//! The construction level loop additionally *hints* the next level's
//! `Ω_b`-fetch descriptors as soon as the current level's IDs fix the block
//! sizes ([`ShardDispatch::hint_prefetch`]); `batchedBSRGemm` claims the
//! hinted tickets with [`ShardDispatch::claim_or_fetch`], so the copies run
//! behind the current level's `batchedGen`/ID compute. Hints and claims are
//! keyed by [`FetchKey`] and deduplicated per `(device, partner)` by
//! [`FetchPlanner`] — the *same* planner both sides drive, which is what
//! keeps the recorded byte totals exactly equal to the
//! [`crate::multidev::simulate`] prediction whether or not a descriptor was
//! prefetched early.

use crate::multidev::{cost, owner};
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

/// Identity of one deduplicated partner fetch, shared between the
/// construction's early *hint* and `batchedBSRGemm`'s *claim*. Including the
/// byte count makes a stale hint (e.g. after an adaptive sampling round
/// changed the block width) miss instead of mis-matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FetchKey {
    /// Sketch stream the fetch serves (0 = row `Ω`, 1 = column `Ψ`).
    pub stream: u8,
    /// Destination device.
    pub dst: usize,
    /// Local index of the fetched partner in the level's column population.
    pub partner: usize,
    /// Size of the fetched block.
    pub bytes: u64,
}

/// Deduplicated `(device, partner)` fetch planning for one `batchedBSRGemm`
/// call — the single source of the Ω/Ψ transfer descriptors, driven
/// identically by the kernel itself and by the construction's early
/// prefetch hint, with the simulator's own owner mapping and byte formula.
pub struct FetchPlanner {
    stream: u8,
    n_rows: usize,
    n_partners: usize,
    devices: usize,
    wire: Precision,
    seen: HashSet<(usize, usize)>,
    plan: Vec<(FetchKey, Transfer)>,
}

impl FetchPlanner {
    pub fn new(
        stream: u8,
        n_rows: usize,
        n_partners: usize,
        devices: usize,
        wire: Precision,
    ) -> Self {
        FetchPlanner {
            stream,
            n_rows,
            n_partners,
            devices,
            wire,
            seen: HashSet::new(),
            plan: Vec::new(),
        }
    }

    /// Owner device of BSR row `row` (the simulator's contiguous chunks).
    pub fn owner_of_row(&self, row: usize) -> usize {
        owner(row, self.n_rows, self.devices)
    }

    /// Visit one `(row, partner)` block: records a fetch descriptor the
    /// first time an off-device partner is needed by a device.
    pub fn visit(&mut self, row: usize, partner: usize, partner_rows: usize, partner_cols: usize) {
        let dev = self.owner_of_row(row);
        let dev_b = owner(partner, self.n_partners.max(self.n_rows), self.devices);
        if dev_b != dev && self.seen.insert((dev, partner)) {
            let bytes = cost::fetch_bytes_p(partner_rows, partner_cols, self.wire);
            self.plan.push((
                FetchKey {
                    stream: self.stream,
                    dst: dev,
                    partner,
                    bytes,
                },
                Transfer {
                    src: dev_b,
                    dst: dev,
                    bytes,
                    kind: TransferKind::OmegaFetch,
                    prec: self.wire,
                },
            ));
        }
    }

    /// The deduplicated fetch plan, in first-need order.
    pub fn into_plan(self) -> Vec<(FetchKey, Transfer)> {
        self.plan
    }
}

/// The interface of a device fabric: N virtual devices, each with a worker
/// thread, a memory arena and a work/traffic account. Implemented by
/// `h2_sched::DeviceFabric`; consumed by the batched kernels.
pub trait ShardDispatch: Send + Sync {
    /// Number of virtual devices.
    fn devices(&self) -> usize;

    /// Execute `jobs[d]` on device `d`'s worker thread (at most
    /// [`ShardDispatch::devices`] jobs) and block until all complete.
    fn run<'a>(&self, jobs: Vec<ShardJob<'a>>);

    /// Enqueue an explicit cross-device transfer on the fabric's queue.
    fn push_transfer(&self, t: Transfer);

    /// Attribute `flops` of modeled batched-kernel work to device `dev`
    /// (the simulator's flop formulas, so totals are comparable).
    fn add_flops(&self, dev: usize, flops: f64);

    /// Attribute `entries` of `batchedGen` entry evaluations to device
    /// `dev` (converted to flop-equivalents by `DeviceModel::entry_cost`).
    fn add_gen_entries(&self, dev: usize, entries: f64);

    /// Record `n` kernel launches on device `dev`.
    fn add_launches(&self, dev: usize, n: usize);

    /// Charge `bytes` of workspace to device `dev`'s arena (freed at the
    /// next epoch boundary, mirroring the per-level single allocation).
    fn arena_alloc(&self, dev: usize, bytes: usize);

    /// Close the current accounting epoch (one construction level / matvec
    /// phase) under `label`, snapshotting per-device counters.
    fn epoch(&self, label: &str);

    /// Wire precision every cross-device block ships at (and the width the
    /// transfer-landing arena charges use). Defaults to the historical f64
    /// so fabrics that predate the precision tier keep their byte totals.
    fn wire(&self) -> Precision {
        Precision::F64
    }

    // ---- pipelined dispatch (defaults degrade to the synchronous path,
    // so a fork-join-only fabric keeps working unchanged) ----

    /// The fabric's execution discipline.
    fn mode(&self) -> PipelineMode {
        PipelineMode::Synchronous
    }

    /// Issue a transfer descriptor ahead of the compute consuming it and
    /// return a completion ticket for [`ShardDispatch::enqueue`] deps
    /// (0 = already complete). The synchronous default services it inline.
    fn prefetch(&self, t: Transfer) -> u64 {
        self.push_transfer(t);
        0
    }

    /// Submit `job` to device `dev`'s ordered queue without blocking, gated
    /// on the tickets in `deps` (prefetch tickets and/or prior jobs'
    /// completion tickets — both live on one board). Returns the job's own
    /// completion ticket (0 when the dispatcher ran it inline).
    ///
    /// # Safety
    ///
    /// The caller must call [`ShardDispatch::flush`] (or, inside a chain
    /// scope, [`ShardDispatch::chain_end`]) before any borrow captured by
    /// `job` ends — the fabric erases the job's lifetime to move it onto
    /// the worker thread. Every batched kernel upholds this by flushing
    /// before it returns (or before the borrowed buffers of an overlapped
    /// phase group go out of scope).
    ///
    /// The synchronous default runs the job inline on the calling thread,
    /// which trivially satisfies the contract.
    unsafe fn enqueue<'a>(&self, dev: usize, deps: &[u64], job: ShardJob<'a>) -> u64 {
        let _ = (dev, deps);
        job();
        0
    }

    /// Kernel-boundary synchronization: a barrier that blocks until every
    /// enqueued job has completed (and propagates any worker panic) —
    /// except inside an open chain scope, where a chaining fabric records a
    /// dependency boundary instead and returns immediately.
    fn flush(&self) {}

    /// Open a cross-kernel chain scope: until [`ShardDispatch::chain_end`],
    /// `flush` records kernel boundaries (the finished kernel's job tickets
    /// become automatic dependencies for the next kernel's jobs on other
    /// devices) instead of blocking the host. No-op by default and on
    /// synchronous fabrics, where every kernel stays fork-join.
    fn chain_begin(&self) {}

    /// Close the chain scope and run the real barrier, discharging the
    /// borrow contract of every `enqueue` issued inside the scope. The
    /// default is a plain flush.
    fn chain_end(&self) {
        self.flush();
    }

    /// Early prefetch hint: start the copy for `key` now (tagged to the
    /// issuing epoch, charged to the destination's *standby* arena bank) so
    /// a later [`ShardDispatch::claim_or_fetch`] with the same key finds it
    /// done. No-op by default.
    fn hint_prefetch(&self, key: FetchKey, t: Transfer) {
        let _ = (key, t);
    }

    /// Claim a previously hinted prefetch, or — on a miss — record the
    /// transfer and charge the destination arena as a fresh fetch. Returns
    /// the completion ticket (0 = complete).
    fn claim_or_fetch(&self, key: FetchKey, t: Transfer) -> u64 {
        let _ = key;
        self.push_transfer(t);
        self.arena_alloc(t.dst, t.bytes as usize);
        0
    }

    /// Drop all unclaimed hints of `stream`, removing their transfer
    /// records so a stale hint (adaptive round changed the sample width)
    /// can never double-count bytes. No-op by default.
    fn cancel_hints(&self, stream: u8) {
        let _ = stream;
    }

    // ---- resilience (defaults describe a fault-free, statically-routed
    // fabric, so existing dispatchers keep working unchanged) ----

    /// The active fault-injection plan, if the fabric is running a seeded
    /// chaos schedule ([`h2_fault::FaultPlan`]). Kernels consult this to
    /// inject/detect output poison at the producing site. Default: none.
    fn fault_plan(&self) -> Option<Arc<h2_fault::FaultPlan>> {
        None
    }

    /// Advance and return the occurrence index of fault site `site`
    /// (a fingerprint from [`h2_fault::poison_site`] or
    /// [`Transfer::fingerprint`]) — the deterministic replay clock.
    /// Default: always 0 (no occurrence tracking).
    fn fault_occurrence(&self, site: u64) -> u32 {
        let _ = site;
        0
    }

    /// Version of the logical-to-physical reshard map. Bumps when a device
    /// fail-stop makes survivors adopt the lost shard's node ownership;
    /// the construction level loop observes a change and replays only the
    /// in-flight level from its last sealed checkpoint. Default: 0
    /// (static map, never resharded).
    fn reshard_version(&self) -> u64 {
        0
    }

    /// Record one bounded-recovery event at a named site (poison
    /// recompute, shard adoption) for the fabric's fault counters and
    /// trace stream. No-op by default.
    fn note_recovery(&self, site: &str) {
        let _ = site;
    }
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

/// Shorthand used by the kernels: the dispatcher when the runtime is
/// sharded.
pub type SharedDispatch = Arc<dyn ShardDispatch>;

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

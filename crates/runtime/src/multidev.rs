//! Multi-device (multi-GPU) execution model: the device model, the shared
//! cost formulas, the [`Schedule`] value sharded operations are planned as,
//! and the one epoch-pricing rule.
//!
//! The paper's §IV.B sketches the multi-GPU extension of Algorithm 1: the
//! per-level batch count divides across devices, no batched operation needs
//! inter-device communication *except* `batchedBSRGemm` (which must fetch
//! the input vectors `Ω_b` of off-device column partners) and the child
//! stacking of line 24 (children resident on two devices gathered into one
//! parent).
//!
//! Every sharded operation — the construction, the matvec and the ULV
//! solve sweep — is **planned** once as a [`Schedule`]
//! (`h2_core::plan_construct`, `h2_sched::plan_matvec`,
//! `h2_sched::plan_ulv_solve`): per epoch the flops, generator entries,
//! launches and workspace of every device plus the explicit transfer list.
//! The fabric **executes** the operation, issuing the transfers live, and
//! is charged each epoch's counts from the plan; [`Schedule::makespan`]
//! **prices** the plan with the rule ([`epoch_terms`] + [`combine_terms`])
//! the executor's report is priced with, so a run's measured makespan
//! equals its planned one.
//!
//! Nodes of a level are assigned to devices in contiguous chunks — the
//! level-contiguous storage layout of §IV.A makes this the natural
//! decomposition, and it keeps siblings (merged at line 24) on the same
//! device except at chunk boundaries.

use crate::shard::{chunk_bounds, PipelineMode, Transfer};
use h2_dense::Precision;

/// Combine one epoch's `(compute, comm, launch)` terms — the output of
/// [`epoch_terms`] — under an execution discipline: serialized for a
/// synchronous schedule (every copy and kernel-boundary barrier is
/// exposed), the max of the three for a pipelined one (prefetched
/// transfers overlap compute, and job-level dependency chaining lets the
/// host enqueue kernel *k+1* while kernel *k* drains, hiding launch
/// overhead too).
#[inline]
pub fn combine_terms(mode: PipelineMode, (compute_max, comm, launch): (f64, f64, f64)) -> f64 {
    match mode {
        PipelineMode::Synchronous => compute_max + comm + launch,
        PipelineMode::Pipelined => compute_max.max(comm).max(launch),
    }
}

/// The one epoch-pricing rule: the `(compute, comm, launch)` seconds of an
/// epoch whose busiest device computes for `compute_max` seconds and issues
/// `launches` kernels while `comm_bytes` in `comm_messages` messages cross
/// the link. Every projection — [`Schedule::makespan`], `h2_sched`'s
/// `ExecReport` and its drift tables — prices an epoch here and composes
/// the terms with [`combine_terms`], so equal counts give bit-equal
/// seconds.
#[inline]
pub fn epoch_terms(
    model: &DeviceModel,
    compute_max: f64,
    comm_bytes: u64,
    comm_messages: usize,
    launches: f64,
) -> (f64, f64, f64) {
    (
        compute_max,
        comm_bytes as f64 / model.link_bandwidth + comm_messages as f64 * model.link_latency,
        launches * model.launch_overhead,
    )
}

/// The work/traffic formulas of the planners (`h2_core`, `h2_sched`), also
/// read by the kernels of [`crate::ops`] and [`crate::bsr`] to balance the
/// parallel backend's chunks. One definition per kernel.
pub mod cost {
    use h2_dense::Precision;

    /// Convergence-QR flops for an `m × d` sample block (lines 11/29).
    pub fn qr_flops(m: usize, d: usize) -> f64 {
        2.0 * m as f64 * d as f64 * d as f64
    }

    /// Batched row-ID flops for an `m × d` sample block (lines 16/34).
    pub fn id_flops(m: usize, d: usize) -> f64 {
        4.0 * m as f64 * d as f64 * m.min(d) as f64
    }

    /// Upsweep-GEMM flops: compress `m × d` inputs by an `m × k` basis
    /// (lines 18/36).
    pub fn upsweep_flops(m: usize, k: usize, d: usize) -> f64 {
        2.0 * m as f64 * k as f64 * d as f64
    }

    /// `batchedBSRGemm` flops for one `rows × partner_rows` block against a
    /// width-`d` sample batch (lines 9/26).
    pub fn bsr_flops(rows: usize, partner_rows: usize, d: usize) -> f64 {
        2.0 * rows as f64 * partner_rows as f64 * d as f64
    }

    /// `batchedGen` entry evaluations of an `r × c` block (flop-equivalents
    /// are `DeviceModel::entry_cost` per entry).
    pub fn gen_entries(r: usize, c: usize) -> f64 {
        (r * c) as f64
    }

    /// Bytes of one fetched `rows × d` block (an Ω/Ψ partner fetch, or one
    /// child block of a line-24 merge) at wire precision `prec` — the
    /// element width is the only thing the precision tier changes in the
    /// transfer model, so every byte formula is linear in it.
    pub fn fetch_bytes_p(rows: usize, d: usize, prec: Precision) -> u64 {
        (rows * d * prec.bytes()) as u64
    }

    // ---- solver-sweep formulas (batched ULV elimination and the
    // triangular solve sweeps; shared by the batched primitives in
    // `crate::solve_ops` and `h2_sched::plan_ulv_solve`) ----

    /// LU factorization flops of an `n × n` pivot block (`2n³/3`).
    pub fn lu_flops(n: usize) -> f64 {
        2.0 / 3.0 * (n as f64).powi(3)
    }

    /// Triangular-solve flops: one `n × n` triangle against `d` columns.
    pub fn trsm_flops(n: usize, d: usize) -> f64 {
        (n * n * d) as f64
    }

    /// LU solve flops (row pivots are free; two triangular solves).
    pub fn lu_solve_flops(n: usize, d: usize) -> f64 {
        2.0 * trsm_flops(n, d)
    }

    /// Flops of applying `t` Householder reflectors (length ≤ `m`) to an
    /// `m × d` block — the ULV rotation `Qᵀ B` / un-rotation `Q B`.
    pub fn qr_apply_flops(m: usize, t: usize, d: usize) -> f64 {
        4.0 * (m * t * d) as f64
    }

    /// Plain GEMM flops, `(m × k) · (k × n)`.
    pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
        2.0 * (m * k * n) as f64
    }
}

/// Hardware parameters of the modeled device fabric.
#[derive(Clone, Copy, Debug)]
pub struct DeviceModel {
    /// Sustained FLOP rate of one device (flops/s).
    pub flops_per_sec: f64,
    /// Inter-device link bandwidth (bytes/s).
    pub link_bandwidth: f64,
    /// Per-message link latency (s).
    pub link_latency: f64,
    /// Kernel launch overhead (s per launch).
    pub launch_overhead: f64,
    /// Cost of evaluating one matrix entry, in flop-equivalents
    /// (`batchedGen` per-entry work: a kernel evaluation).
    pub entry_cost: f64,
}

impl Default for DeviceModel {
    /// Loosely A100-flavored defaults: 10 TF/s sustained f64, 200 GB/s
    /// NVLink-class links, 5 µs latency, 5 µs launch overhead, 20 flops per
    /// kernel-entry evaluation.
    fn default() -> Self {
        DeviceModel {
            flops_per_sec: 1.0e13,
            link_bandwidth: 2.0e11,
            link_latency: 5.0e-6,
            launch_overhead: 5.0e-6,
            entry_cost: 20.0,
        }
    }
}

/// A sharded operation described once, as data: what each device computes,
/// evaluates, launches and allocates per epoch, and every cross-device copy.
/// The planner that emits it (`h2_core::plan_construct`,
/// `h2_sched::plan_matvec`, `h2_sched::plan_ulv_solve`) is the only place
/// owners, guards and [`cost`] formulas are evaluated for its operation; the
/// fabric *executes* the operation and [`Schedule::makespan`] *prices* the
/// plan, so measured and planned counts are equal by construction rather
/// than by a second walk.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub devices: usize,
    /// Execution discipline the epochs were laid out for (it decides both
    /// the epoch structure and how [`Schedule::makespan`] combines terms).
    pub mode: PipelineMode,
    /// Wire precision behind every transfer's `bytes` and the arena charges.
    pub wire: Precision,
    pub epochs: Vec<ScheduleEpoch>,
}

/// One accounting epoch of a [`Schedule`].
#[derive(Clone, Debug)]
pub struct ScheduleEpoch {
    pub label: String,
    /// The batched kernel the epoch's jobs run, by name.
    pub kernel: &'static str,
    /// Tree levels the kernel runs over, in per-device queue order: one
    /// launch per listed level on every device owning a non-empty chunk.
    /// Empty for a plan whose executor does not read it (the construction,
    /// whose epochs run a whole level of Algorithm 1 each).
    pub levels: Vec<usize>,
    /// Modeled flops per device.
    pub flops: Vec<f64>,
    /// `batchedGen` entry evaluations per device (priced at
    /// [`DeviceModel::entry_cost`] flop-equivalents each).
    pub entries: Vec<f64>,
    /// Kernel launches per device.
    pub launches: Vec<usize>,
    /// Workspace bytes per device (live peak over the epoch).
    pub arena: Vec<usize>,
    /// Transfers **issued** during this epoch, each with the index of the
    /// epoch whose jobs wait on it — its own, or a later one for a copy
    /// issued ahead. Traffic is accounted where it is issued.
    pub transfers: Vec<(Transfer, usize)>,
}

impl ScheduleEpoch {
    /// An epoch of `kernel` on `devices` devices with nothing charged yet.
    pub fn blank(kernel: &'static str, label: impl Into<String>, devices: usize) -> Self {
        ScheduleEpoch {
            label: label.into(),
            kernel,
            levels: Vec::new(),
            flops: vec![0.0; devices],
            entries: vec![0.0; devices],
            launches: vec![0; devices],
            arena: vec![0; devices],
            transfers: Vec::new(),
        }
    }

    /// Run the epoch's kernel over level `l` of `nodes` nodes: one batched
    /// launch on every device whose chunk of the level is non-empty.
    pub fn run_level(&mut self, l: usize, nodes: usize) {
        self.levels.push(l);
        self.launch(nodes);
    }

    /// One batched launch over `items` entries in contiguous chunks: a
    /// launch on every device whose chunk is non-empty.
    pub fn launch(&mut self, items: usize) {
        let bounds = chunk_bounds(items, self.launches.len());
        for (dev, launches) in self.launches.iter_mut().enumerate() {
            *launches += usize::from(bounds[dev + 1] > bounds[dev]);
        }
    }

    pub fn comm_bytes(&self) -> u64 {
        self.transfers.iter().map(|(t, _)| t.bytes).sum()
    }

    pub fn comm_messages(&self) -> usize {
        self.transfers.len()
    }
}

impl Schedule {
    pub fn total_comm_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.comm_bytes()).sum()
    }

    /// Modeled flops summed over devices and epochs (excluding generator
    /// entries).
    pub fn total_flops(&self) -> f64 {
        self.epochs.iter().flat_map(|e| e.flops.iter()).sum()
    }

    /// Total work in flop-equivalents at `entry_cost` flops per generated
    /// entry (the currency of [`Schedule::compute_total`]).
    pub fn flop_equiv(&self, entry_cost: f64) -> f64 {
        let entries: f64 = self.epochs.iter().flat_map(|e| e.entries.iter()).sum();
        self.total_flops() + entry_cost * entries
    }

    pub fn total_launches(&self) -> usize {
        self.epochs.iter().flat_map(|e| e.launches.iter()).sum()
    }

    /// Modeled compute seconds summed over devices: device-count invariant,
    /// since a plan only redistributes its work.
    pub fn compute_total(&self, model: &DeviceModel) -> f64 {
        self.flop_equiv(model.entry_cost) / model.flops_per_sec
    }

    /// Parallel efficiency against an ideal single device:
    /// `compute_total / (devices · makespan)`.
    pub fn efficiency(&self, model: &DeviceModel) -> f64 {
        let makespan = self.makespan(model);
        if makespan == 0.0 {
            return 1.0;
        }
        self.compute_total(model) / (self.devices as f64 * makespan)
    }

    /// The `(compute, comm, launch)` seconds of epoch `i`: the busiest
    /// device's flops plus priced entries, the epoch's link traffic and the
    /// busiest device's launches, priced by [`epoch_terms`] exactly as
    /// `ExecReport::epoch_terms` prices a measured epoch.
    pub fn epoch_terms(&self, i: usize, model: &DeviceModel) -> (f64, f64, f64) {
        let e = &self.epochs[i];
        let compute_max = e
            .flops
            .iter()
            .zip(&e.entries)
            .map(|(f, g)| (f + model.entry_cost * g) / model.flops_per_sec)
            .fold(0.0, f64::max);
        let launches_max = e.launches.iter().copied().max().unwrap_or(0);
        epoch_terms(
            model,
            compute_max,
            e.comm_bytes(),
            e.comm_messages(),
            launches_max as f64,
        )
    }

    /// Modeled critical-path seconds of epoch `i`: [`Schedule::epoch_terms`]
    /// combined under the schedule's mode.
    pub fn epoch_makespan(&self, i: usize, model: &DeviceModel) -> f64 {
        combine_terms(self.mode, self.epoch_terms(i, model))
    }

    /// Sum of the epoch makespans (epochs are sequential).
    pub fn makespan(&self, model: &DeviceModel) -> f64 {
        (0..self.epochs.len())
            .map(|i| self.epoch_makespan(i, model))
            .sum()
    }
}

/// Contiguous-chunk owner of local node `i` among `n` nodes on `d` devices.
#[inline]
pub fn owner(i: usize, n: usize, d: usize) -> usize {
    if n == 0 || d <= 1 {
        return 0;
    }
    (i * d / n).min(d - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{child_gathers, FetchPlanner, TransferKind};

    /// One level of a toy construction: the BSR population's block heights
    /// and adjacency, its stacking into the level's nodes (empty at the
    /// leaf, where the two populations coincide), the nodes' ranks and the
    /// level's `batchedGen` block shapes.
    struct ToyLevel {
        rows: Vec<usize>,
        adj: Vec<Vec<usize>>,
        children: Vec<Vec<usize>>,
        ranks: Vec<usize>,
        gen: Vec<(usize, usize)>,
    }

    /// A one-stream construction over `levels` (leaf first) at sample width
    /// `d`, laid out as a synchronous [`Schedule`] the way
    /// `h2_core::plan_construct` lays one out: per level the BSR subtraction
    /// with its Ω fetches ([`FetchPlanner`]), the line-24 stacking of samples
    /// and inputs ([`child_gathers`]), the convergence QR, row ID and (below
    /// the top) upsweep over the level's nodes, and `batchedGen` round-robin.
    fn toy_construct_schedule(levels: &[ToyLevel], d: usize, devices: usize) -> Schedule {
        let wire = Precision::F64;
        let mut epochs = Vec::new();
        for (i, lv) in levels.iter().enumerate() {
            let at = epochs.len();
            let mut e = ScheduleEpoch::blank("construct", format!("construct L{i}"), devices);
            let nr = lv.rows.len();
            let mut planner = FetchPlanner::new(nr, devices, wire);
            for (r, partners) in lv.adj.iter().enumerate() {
                for &b in partners {
                    e.flops[owner(r, nr, devices)] += cost::bsr_flops(lv.rows[r], lv.rows[b], d);
                    planner.visit(r, b, lv.rows[b], d);
                }
            }
            e.transfers
                .extend(planner.into_plan().into_iter().map(|t| (t, at)));
            for _ in 0..lv.adj.iter().map(Vec::len).max().unwrap_or(0) {
                e.launch(nr);
            }
            let stacked: Vec<usize> = if lv.children.is_empty() {
                lv.rows.clone()
            } else {
                // Samples, then inputs: one stacking kernel each.
                for _ in 0..2 {
                    let moved = child_gathers(&lv.children, &lv.rows, d, devices, wire);
                    e.transfers.extend(moved.into_iter().map(|t| (t, at)));
                    e.launch(lv.children.len());
                }
                lv.children
                    .iter()
                    .map(|cs| cs.iter().map(|&c| lv.rows[c]).sum())
                    .collect()
            };
            let n = stacked.len();
            let top = i + 1 == levels.len();
            for (j, &m) in stacked.iter().enumerate() {
                let k = if top { 0 } else { lv.ranks[j] };
                e.flops[owner(j, n, devices)] +=
                    cost::qr_flops(m, d) + cost::id_flops(m, d) + cost::upsweep_flops(m, k, d);
            }
            for _ in 0..if top { 2 } else { 4 } {
                e.launch(n);
            }
            for (j, &(r, c)) in lv.gen.iter().enumerate() {
                e.entries[j % devices] += cost::gen_entries(r, c);
            }
            for launches in e.launches.iter_mut().take(lv.gen.len()) {
                *launches += 1;
            }
            epochs.push(e);
        }
        Schedule {
            devices,
            mode: PipelineMode::Synchronous,
            wire,
            epochs,
        }
    }

    fn toy_levels() -> Vec<ToyLevel> {
        // Leaf level: 8 nodes of 64 rows, ring adjacency, rank 16; the BSR
        // and ID populations coincide.
        let n = 8;
        let leaf = ToyLevel {
            rows: vec![64; n],
            adj: (0..n)
                .map(|i| vec![i, (i + 1) % n, (i + n - 1) % n])
                .collect(),
            children: Vec::new(),
            ranks: vec![16; n],
            gen: vec![(64, 64); n],
        };
        // Inner level: BSR over the 8 children (rank 16 each), stacked in
        // sibling pairs into 4 nodes of 32 rows.
        let inner = ToyLevel {
            rows: vec![16; n],
            adj: (0..n).map(|i| vec![(i + 2) % n]).collect(),
            children: (0..n / 2).map(|p| vec![2 * p, 2 * p + 1]).collect(),
            ranks: vec![12; n / 2],
            gen: vec![(16, 16); n / 2],
        };
        vec![leaf, inner]
    }

    #[test]
    fn owner_is_contiguous_and_balanced() {
        let n = 10;
        let d = 3;
        let owners: Vec<usize> = (0..n).map(|i| owner(i, n, d)).collect();
        // Non-decreasing.
        assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        // All devices used.
        assert_eq!(owners.iter().cloned().max().unwrap(), d - 1);
        // Balanced within 1.
        let counts: Vec<usize> = (0..d)
            .map(|dev| owners.iter().filter(|&&o| o == dev).count())
            .collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn single_device_has_no_communication() {
        let s = toy_construct_schedule(&toy_levels(), 128, 1);
        assert_eq!(s.total_comm_bytes(), 0);
        assert!(s.makespan(&DeviceModel::default()) > 0.0);
    }

    #[test]
    fn multi_device_reduces_makespan_on_large_levels() {
        // A wide leaf level with enough work for parallelism to win.
        let n = 256;
        let level = ToyLevel {
            rows: vec![256; n],
            adj: (0..n).map(|i| vec![i]).collect(),
            children: Vec::new(),
            ranks: vec![32; n],
            gen: vec![(256, 256); n],
        };
        let m = DeviceModel::default();
        let levels = [level];
        let t1 = toy_construct_schedule(&levels, 256, 1).makespan(&m);
        let t4 = toy_construct_schedule(&levels, 256, 4).makespan(&m);
        assert!(t4 < t1 / 2.0, "4 devices {t4} vs 1 device {t1}");
    }

    #[test]
    fn communication_grows_with_devices() {
        let levels = toy_levels();
        let c2 = toy_construct_schedule(&levels, 128, 2).total_comm_bytes();
        let c8 = toy_construct_schedule(&levels, 128, 8).total_comm_bytes();
        assert!(c2 > 0, "cross-device partners must appear at D=2");
        assert!(c8 >= c2, "more devices cannot reduce traffic: {c2} -> {c8}");
    }

    #[test]
    fn compute_total_is_device_invariant() {
        let levels = toy_levels();
        let m = DeviceModel::default();
        let t1 = toy_construct_schedule(&levels, 64, 1).compute_total(&m);
        let t4 = toy_construct_schedule(&levels, 64, 4).compute_total(&m);
        assert!((t1 - t4).abs() < 1e-12 * t1.max(1e-30), "work is conserved");
    }

    #[test]
    fn efficiency_bounded_by_one() {
        let levels = toy_levels();
        let m = DeviceModel::default();
        for d in [1, 2, 4, 8] {
            let e = toy_construct_schedule(&levels, 64, d).efficiency(&m);
            assert!(e > 0.0 && e <= 1.0 + 1e-9, "efficiency {e} at D={d}");
        }
    }

    #[test]
    fn launches_scale_with_active_devices_not_nodes() {
        let n = 1024;
        let level = ToyLevel {
            rows: vec![64; n],
            adj: (0..n).map(|i| vec![i]).collect(),
            children: Vec::new(),
            ranks: vec![8; n],
            gen: Vec::new(),
        };
        let s = toy_construct_schedule(&[level], 64, 4);
        assert!(
            s.total_launches() < 64,
            "launches must not scale with node count"
        );
    }

    #[test]
    fn empty_levels_cost_nothing() {
        let s = toy_construct_schedule(&[], 64, 4);
        assert_eq!(s.makespan(&DeviceModel::default()), 0.0);
        assert_eq!(s.total_comm_bytes(), 0);
    }

    /// A ULV solve sweep over a toy tree, laid out as a [`Schedule`] the way
    /// `h2_sched::plan_ulv_solve` lays one out: 8 leaves of 64 rows retaining
    /// 16, merged pairwise into 4 nodes of 32 retaining 8, then 2 of 16
    /// retaining 4, root 8, 4 right-hand sides. Forward epochs run leaf
    /// first and gather split children's retained blocks in the parent's
    /// epoch; the root solves on device 0; backward epochs distribute the
    /// same blocks back down.
    fn toy_solve_schedule(devices: usize) -> Schedule {
        const NRHS: usize = 4;
        // Per level 1..=3: (nodes, reduced size m, retained k).
        let shape = [(2, 16, 4), (4, 32, 8), (8, 64, 16)];
        let leaf_level = shape.len();
        let wire = Precision::F64;
        let read = |src, dst, k, kind| Transfer {
            src,
            dst,
            bytes: cost::fetch_bytes_p(k, NRHS, wire),
            kind,
            prec: wire,
        };
        // Nodes of level `l` whose parent lives on another device:
        // `(child device, parent device, k)`.
        let crossings = |l: usize| -> Vec<(usize, usize, usize)> {
            let (n, _, k) = shape[l - 1];
            let np = if l == 1 { 1 } else { shape[l - 2].0 };
            (0..n)
                .map(|i| (owner(i, n, devices), owner(i / 2, np, devices), k))
                .filter(|&(c, p, _)| c != p)
                .collect()
        };
        let mut epochs = Vec::new();
        for l in (1..=leaf_level).rev() {
            let at = epochs.len();
            let (n, m, k) = shape[l - 1];
            let mut e = ScheduleEpoch::blank("fwd", format!("ulv forward L{l}"), devices);
            for i in 0..n {
                e.flops[owner(i, n, devices)] += cost::qr_apply_flops(m, m, NRHS)
                    + cost::lu_solve_flops(m - k, NRHS)
                    + cost::gemm_flops(k, m - k, NRHS);
            }
            if l < leaf_level {
                for (c, p, kc) in crossings(l + 1) {
                    e.transfers
                        .push((read(c, p, kc, TransferKind::ChildGather), at));
                }
            }
            e.run_level(l, n);
            epochs.push(e);
        }
        let at = epochs.len();
        let mut e = ScheduleEpoch::blank("root", "ulv root", devices);
        e.flops[0] += cost::lu_solve_flops(8, NRHS);
        for (c, p, kc) in crossings(1) {
            e.transfers
                .push((read(c, p, kc, TransferKind::ChildGather), at));
        }
        e.run_level(0, 1);
        epochs.push(e);
        for l in 1..=leaf_level {
            let at = epochs.len();
            let (n, m, k) = shape[l - 1];
            let mut e = ScheduleEpoch::blank("bwd", format!("ulv backward L{l}"), devices);
            for i in 0..n {
                e.flops[owner(i, n, devices)] += cost::gemm_flops(m - k, k, NRHS)
                    + cost::lu_solve_flops(m - k, NRHS)
                    + cost::qr_apply_flops(m, m, NRHS);
            }
            for (c, p, kc) in crossings(l) {
                e.transfers
                    .push((read(p, c, kc, TransferKind::PartialSum), at));
            }
            e.run_level(l, n);
            epochs.push(e);
        }
        Schedule {
            devices,
            mode: PipelineMode::Synchronous,
            wire,
            epochs,
        }
    }

    #[test]
    fn solve_sim_single_device_no_comm_and_work_conserved() {
        let m = DeviceModel::default();
        let s1 = toy_solve_schedule(1);
        assert_eq!(s1.total_comm_bytes(), 0);
        assert!(s1.makespan(&m) > 0.0);
        // Forward levels + root + backward levels.
        assert_eq!(s1.epochs.len(), 2 * 3 + 1);
        let s4 = toy_solve_schedule(4);
        assert!(
            (s1.total_flops() - s4.total_flops()).abs() < 1e-12 * s1.total_flops(),
            "solve work is conserved across device counts"
        );
        // One launch per device with a non-empty chunk of the level.
        let launches: Vec<usize> = s4.epochs.iter().map(|e| e.launches.iter().sum()).collect();
        assert_eq!(launches, [4, 4, 2, 1, 2, 4, 4]);
    }

    #[test]
    fn solve_sim_comm_grows_with_devices() {
        let c2 = toy_solve_schedule(2).total_comm_bytes();
        let c8 = toy_solve_schedule(8).total_comm_bytes();
        assert!(c2 > 0, "split sibling pairs must move retained blocks");
        assert!(c8 >= c2);
        // Forward and backward sweeps mirror each other's traffic; the root
        // epoch's gathers belong to the forward half.
        let s = toy_solve_schedule(4);
        let nf = 3;
        let fwd: u64 = s.epochs[..=nf].iter().map(|e| e.comm_bytes()).sum();
        let bwd: u64 = s.epochs[nf + 1..].iter().map(|e| e.comm_bytes()).sum();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn latency_dominates_tiny_levels() {
        // A level with 2 tiny nodes on 8 devices: makespan should be close
        // to pure overhead (launch + latency), not compute.
        let level = ToyLevel {
            rows: vec![4, 4],
            adj: vec![vec![1], vec![0]],
            children: vec![vec![0, 1]],
            ranks: vec![2],
            gen: vec![(4, 4)],
        };
        let m = DeviceModel::default();
        let s = toy_construct_schedule(&[level], 16, 8);
        let overhead = m.launch_overhead + m.link_latency;
        assert!(s.makespan(&m) >= overhead, "tiny levels are overhead-bound");
    }
}

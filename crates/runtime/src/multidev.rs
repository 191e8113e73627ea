//! Multi-device (multi-GPU) execution model: the device model, the shared
//! cost formulas, the [`Schedule`] value sharded operations are planned as,
//! the one epoch-pricing rule, and the closed-form construction simulator.
//!
//! The paper's §IV.B sketches the multi-GPU extension of Algorithm 1: the
//! per-level batch count divides across devices, no batched operation needs
//! inter-device communication *except* `batchedBSRGemm` (which must fetch
//! the input vectors `Ω_b` of off-device column partners) and the child
//! stacking of line 24 (children resident on two devices gathered into one
//! parent).
//!
//! * The matvec and the ULV solve sweep are planned as a [`Schedule`]
//!   (`h2_sched::plan_matvec` / `h2_sched::plan_ulv_solve`): per epoch the
//!   flops, launches and workspace of every device plus the explicit
//!   transfer list. The fabric executes that value and
//!   [`Schedule::makespan`] prices it.
//! * The construction is still modeled separately: given the level
//!   structure of a concrete construction (node sizes, BSR adjacency,
//!   ranks, sample count), [`simulate`] computes per-device compute costs,
//!   cross-device traffic, kernel-launch counts and a makespan estimate for
//!   any device count.
//!
//! Nodes of a level are assigned to devices in contiguous chunks — the
//! level-contiguous storage layout of §IV.A makes this the natural
//! decomposition, and it keeps siblings (merged at line 24) on the same
//! device except at chunk boundaries.

use crate::shard::{chunk_bounds, PipelineMode, Transfer, TransferKind};
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
/// the link. Every projection — [`Schedule::makespan`], the construction
/// simulator below, `h2_sched`'s `ExecReport` and its drift tables — prices
/// an epoch here and composes the terms with [`combine_terms`], so equal
/// counts give bit-equal seconds.
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

/// The work/traffic formulas shared by the closed-form simulator and the
/// sharded executor's accounting ([`crate::ops`], [`crate::bsr`],
/// `h2_sched`). One definition per kernel, so "measured totals equal
/// predicted totals" is structural rather than a comment-level promise.
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
    /// half of a sibling merge) at wire precision `prec` — the element
    /// width is the only thing the precision tier changes in the transfer
    /// model, so every byte formula is linear in it.
    pub fn fetch_bytes_p(rows: usize, d: usize, prec: Precision) -> u64 {
        (rows * d * prec.bytes()) as u64
    }

    /// Bytes of a line-24 boundary sibling merge: the moved child's samples
    /// *and* inputs — twice [`fetch_bytes_p`] (the executor records the two
    /// halves as separate `stack_children` transfers).
    pub fn merge_bytes_p(rows: usize, d: usize, prec: Precision) -> u64 {
        2 * fetch_bytes_p(rows, d, prec)
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
/// launches and allocates per epoch, and every cross-device copy. The
/// planner that emits it (`h2_sched::plan_matvec`, `h2_sched::plan_ulv_solve`)
/// is the only place owners, guards and [`cost`] formulas are evaluated for
/// its operation; the fabric *executes* the value and [`Schedule::makespan`]
/// *prices* it, so measured and predicted counts are equal by construction
/// rather than by a second walk.
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
    pub levels: Vec<usize>,
    /// Modeled flops per device.
    pub flops: Vec<f64>,
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
            launches: vec![0; devices],
            arena: vec![0; devices],
            transfers: Vec::new(),
        }
    }

    /// Run the epoch's kernel over level `l` of `nodes` nodes: one batched
    /// launch on every device whose chunk of the level is non-empty.
    pub fn run_level(&mut self, l: usize, nodes: usize) {
        self.levels.push(l);
        let bounds = chunk_bounds(nodes, self.launches.len());
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

    pub fn total_flops(&self) -> f64 {
        self.epochs.iter().flat_map(|e| e.flops.iter()).sum()
    }

    /// Modeled critical-path seconds of epoch `i`: the busiest device's
    /// compute, the epoch's link traffic and the busiest device's launches,
    /// priced by [`epoch_terms`] and combined under the schedule's mode.
    pub fn epoch_makespan(&self, i: usize, model: &DeviceModel) -> f64 {
        let e = &self.epochs[i];
        let compute_max = e
            .flops
            .iter()
            .map(|f| f / model.flops_per_sec)
            .fold(0.0, f64::max);
        let launches_max = e.launches.iter().copied().max().unwrap_or(0);
        combine_terms(
            self.mode,
            epoch_terms(
                model,
                compute_max,
                e.comm_bytes(),
                e.comm_messages(),
                launches_max as f64,
            ),
        )
    }

    /// Sum of the epoch makespans (epochs are sequential).
    pub fn makespan(&self, model: &DeviceModel) -> f64 {
        (0..self.epochs.len())
            .map(|i| self.epoch_makespan(i, model))
            .sum()
    }
}

/// Execution structure of one processed level of Algorithm 1, in the form
/// the simulator consumes (extracted from a constructed H2 matrix by
/// `h2_core::multidev::level_specs`).
///
/// Two node populations appear at inner levels: the **BSR population**
/// (the *children*, whose samples are subtracted against coupling blocks,
/// lines 26-28) and the **ID population** (the level's own nodes, whose
/// stacked samples are skeletonized, line 34). At the leaf level the two
/// coincide.
#[derive(Clone, Debug, Default)]
pub struct LevelSpec {
    /// BSR population: per row-node, rows of its local sample block
    /// (cluster size at the leaf level; node rank at inner levels).
    pub rows: Vec<usize>,
    /// BSR adjacency of the subtraction: per row-node, local indices of its
    /// column partners in the same population.
    pub adj: Vec<Vec<usize>>,
    /// Per column-partner node (same local indexing as `adj` targets): rows
    /// of its input-vector block `Ω_b`.
    pub col_rows: Vec<usize>,
    /// `batchedGen` blocks issued at this level: `(rows, cols)` dimensions.
    /// For an unsymmetric instance this holds every *ordered* pair (the two
    /// orientations are disjoint entry sets); both streams' generation work
    /// is therefore covered by this one list.
    pub gen_blocks: Vec<(usize, usize)>,
    /// ID population: per node processed at this level, rows of the stacked
    /// sample block fed to the QR convergence test and the row ID.
    pub id_rows: Vec<usize>,
    /// Post-ID rank per ID-population node.
    pub ranks: Vec<usize>,
    /// Pairs of BSR-population local indices merged into one ID-population
    /// node (line 24). Empty at the leaf level.
    pub merges: Vec<(usize, usize)>,
    /// Column-stream populations of the unsymmetric two-stream engine
    /// (`Z = Kᵀ Ψ`): `None` for the symmetric one-stream instance. The
    /// stream shares the level's `adj` and `merges` structure (the block
    /// partition is symmetric as a pattern) but carries its own sizes and
    /// ranks.
    pub col_stream: Option<StreamSpec>,
}

/// Per-side kernel populations of one additional sketch stream at a level
/// (the column stream of the unsymmetric engine). Structure (`adj`,
/// `merges`) is shared with the owning [`LevelSpec`].
#[derive(Clone, Debug, Default)]
pub struct StreamSpec {
    /// BSR population: per node, rows of its local `Z`/`Ψ` block.
    pub rows: Vec<usize>,
    /// ID population: rows of the stacked sample block per processed node.
    pub id_rows: Vec<usize>,
    /// Post-ID column rank per ID-population node.
    pub ranks: Vec<usize>,
}

/// Cost breakdown of one level at a given device count.
#[derive(Clone, Debug)]
pub struct LevelCost {
    /// Wall-clock estimate: max per-device compute + comm + launch overhead.
    pub makespan: f64,
    /// Total compute time summed over devices (s).
    pub compute_total: f64,
    /// Per-device compute seconds.
    pub compute_per_device: Vec<f64>,
    /// Cross-device traffic in bytes (Ω fetches + child gathers).
    pub comm_bytes: u64,
    /// Cross-device messages.
    pub comm_messages: usize,
    /// Kernel launches across all devices at this level.
    pub launches: usize,
}

/// Simulation result over all levels.
#[derive(Clone, Debug)]
pub struct SimReport {
    pub devices: usize,
    pub levels: Vec<LevelCost>,
    /// Sum of level makespans (levels are sequential in Algorithm 1).
    pub makespan: f64,
    pub total_comm_bytes: u64,
    pub total_launches: usize,
}

impl SimReport {
    /// Total compute time aggregated over devices and levels.
    pub fn compute_total(&self) -> f64 {
        self.levels.iter().map(|l| l.compute_total).sum()
    }

    /// Parallel efficiency relative to an ideal single device:
    /// `T_compute / (devices · makespan)`.
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 {
            return 1.0;
        }
        self.compute_total() / (self.devices as f64 * self.makespan)
    }
}

/// Per-stream cost accumulation for one level: the BSR subtraction with its
/// deduplicated off-device Ω fetches, the node-local QR/ID/upsweep chain
/// over the ID population (the upsweep GEMM is skipped at the topmost
/// level, which has no parent), and the line-24 boundary sibling merges.
#[allow(clippy::too_many_arguments)]
fn stream_cost(
    rows: &[usize],
    adj: &[Vec<usize>],
    col_rows: &[usize],
    id_rows: &[usize],
    ranks: &[usize],
    merges: &[(usize, usize)],
    d_samples: usize,
    devices: usize,
    model: &DeviceModel,
    is_top: bool,
    wire: Precision,
    compute: &mut [f64],
    comm_bytes: &mut u64,
    comm_messages: &mut usize,
) {
    let n = rows.len();

    // batchedBSRGemm: 2·m_s·m_b·d flops per block; fetch Ω_b when the
    // partner lives on another device (once per (device, partner)).
    let mut fetched: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for (i, partners) in adj.iter().enumerate() {
        let dev = owner(i, n, devices);
        for &b in partners {
            let mb = col_rows.get(b).copied().unwrap_or(0);
            compute[dev] += cost::bsr_flops(rows[i], mb, d_samples) / model.flops_per_sec;
            let dev_b = owner(b, col_rows.len().max(n), devices);
            if dev_b != dev && fetched.insert((dev, b)) {
                *comm_bytes += cost::fetch_bytes_p(mb, d_samples, wire);
                *comm_messages += 1;
            }
        }
    }

    // Convergence QR + row ID + upsweep GEMM (skipped at the top), all
    // node-local, over the ID population.
    let n_id = id_rows.len();
    for i in 0..n_id {
        let m = id_rows[i];
        let k = if is_top {
            0
        } else {
            ranks.get(i).copied().unwrap_or(0)
        };
        let dev = owner(i, n_id, devices);
        compute[dev] += (cost::qr_flops(m, d_samples)
            + cost::id_flops(m, d_samples)
            + cost::upsweep_flops(m, k, d_samples))
            / model.flops_per_sec;
    }

    // Line-24 gather: a merge whose children live on different devices
    // moves one child's samples + inputs (rows × d × 2 × 8B).
    for &(a, b) in merges {
        let (da, db) = (owner(a, n, devices), owner(b, n, devices));
        if da != db {
            let moved = rows.get(b).copied().unwrap_or(0);
            *comm_bytes += cost::merge_bytes_p(moved, d_samples, wire);
            *comm_messages += 1;
        }
    }
}

/// Executor-granularity enumeration of one stream's cross-device
/// transfers: the same dedup/owner/byte logic as [`stream_cost`], but
/// emitting one [`Transfer`] descriptor per copy the fabric actually
/// issues instead of accumulating totals. Line-24 merges emit **two**
/// descriptors (the straddling sibling's samples and its inputs are
/// stacked by separate `stack_children` calls), matching the executor's
/// record stream where the simulator folds both into one
/// `merge_bytes_p` message.
#[allow(clippy::too_many_arguments)]
fn stream_census(
    rows: &[usize],
    adj: &[Vec<usize>],
    col_rows: &[usize],
    merges: &[(usize, usize)],
    d_samples: usize,
    devices: usize,
    wire: Precision,
    out: &mut Vec<Transfer>,
) {
    let n = rows.len();
    let mut fetched: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for (i, partners) in adj.iter().enumerate() {
        let dev = owner(i, n, devices);
        for &b in partners {
            let mb = col_rows.get(b).copied().unwrap_or(0);
            let dev_b = owner(b, col_rows.len().max(n), devices);
            if dev_b != dev && fetched.insert((dev, b)) {
                out.push(Transfer {
                    src: dev_b,
                    dst: dev,
                    bytes: cost::fetch_bytes_p(mb, d_samples, wire),
                    kind: TransferKind::OmegaFetch,
                    prec: wire,
                });
            }
        }
    }
    for &(a, b) in merges {
        let (da, db) = (owner(a, n, devices), owner(b, n, devices));
        if da != db {
            let moved = rows.get(b).copied().unwrap_or(0);
            let t = Transfer {
                src: db,
                dst: da,
                bytes: cost::fetch_bytes_p(moved, d_samples, wire),
                kind: TransferKind::ChildGather,
                prec: wire,
            };
            out.push(t);
            out.push(t);
        }
    }
}

/// Closed-form enumeration of every cross-device [`Transfer`] a
/// non-adaptive construction issues — the extended simulator's input for
/// predicting *faulted* byte totals. The multiset returned here equals the
/// executor's transfer record multiset exactly (same owner mapping, same
/// dedup, same byte formulas as [`simulate_prec_mode`], whose totals the
/// equivalence tests pin to the executor), so replaying a seeded
/// [`h2_fault::FaultPlan`] over it — fingerprint plus occurrence index per
/// descriptor — reproduces the executor's exact retry stream, and
/// therefore its retry bytes, without running anything.
pub fn transfer_census(
    levels: &[LevelSpec],
    d_samples: usize,
    devices: usize,
    wire: Precision,
) -> Vec<Transfer> {
    let mut out = Vec::new();
    for spec in levels {
        stream_census(
            &spec.rows,
            &spec.adj,
            &spec.col_rows,
            &spec.merges,
            d_samples,
            devices,
            wire,
            &mut out,
        );
        if let Some(cs) = &spec.col_stream {
            stream_census(
                &cs.rows,
                &spec.adj,
                &spec.rows,
                &spec.merges,
                d_samples,
                devices,
                wire,
                &mut out,
            );
        }
    }
    out
}

/// Contiguous-chunk owner of local node `i` among `n` nodes on `d` devices.
#[inline]
pub fn owner(i: usize, n: usize, d: usize) -> usize {
    if n == 0 || d <= 1 {
        return 0;
    }
    (i * d / n).min(d - 1)
}

/// Simulate the construction's batched execution on `devices` devices.
///
/// `d_samples` is the sample block width (paper: 256 initial). The per-level
/// costs follow Algorithm 1's kernel sequence: `batchedGen`,
/// `batchedBSRGemm` (the only op with Ω traffic), convergence QR,
/// `batchedID`, and the upsweep GEMM, plus the line-24 child gather.
///
/// ```
/// use h2_runtime::{simulate, DeviceModel, LevelSpec};
/// let leaf = LevelSpec {
///     rows: vec![64; 8],
///     adj: (0..8).map(|i| vec![i]).collect(),
///     col_rows: vec![64; 8],
///     gen_blocks: vec![(64, 64); 8],
///     id_rows: vec![64; 8],
///     ranks: vec![16; 8],
///     merges: vec![],
///     ..Default::default()
/// };
/// let rep = simulate(&[leaf], 128, 1, &DeviceModel::default());
/// assert_eq!(rep.total_comm_bytes, 0); // one device never communicates
/// assert!(rep.makespan > 0.0);
/// ```
pub fn simulate(
    levels: &[LevelSpec],
    d_samples: usize,
    devices: usize,
    model: &DeviceModel,
) -> SimReport {
    simulate_prec(levels, d_samples, devices, model, Precision::F64)
}

/// [`simulate`] at an explicit wire precision: every transfer byte count
/// (`Ω`/`Ψ` fetches, line-24 merges) scales by the element width while the
/// flop and launch model is untouched — arithmetic always accumulates in
/// f64, only the shipped representation narrows.
pub fn simulate_prec(
    levels: &[LevelSpec],
    d_samples: usize,
    devices: usize,
    model: &DeviceModel,
    wire: Precision,
) -> SimReport {
    simulate_prec_mode(
        levels,
        d_samples,
        devices,
        model,
        wire,
        PipelineMode::Synchronous,
    )
}

/// [`simulate_prec`] under an explicit execution discipline: the per-level
/// byte/flop/launch populations are identical (the trust contract's
/// equality invariants are mode-independent); only how the three schedule
/// terms combine into the level makespan changes — see [`combine_terms`].
pub fn simulate_prec_mode(
    levels: &[LevelSpec],
    d_samples: usize,
    devices: usize,
    model: &DeviceModel,
    wire: Precision,
    mode: PipelineMode,
) -> SimReport {
    assert!(devices > 0, "at least one device");
    let mut out_levels = Vec::with_capacity(levels.len());
    let mut makespan = 0.0;
    let mut total_comm = 0u64;
    let mut total_launches = 0usize;

    for (lvl, spec) in levels.iter().enumerate() {
        // The topmost processed level has no parent to sweep into: the
        // construction skips the shrink/compress GEMM there, so the model
        // does too.
        let is_top = lvl + 1 == levels.len();
        let n = spec.rows.len();
        let mut compute = vec![0.0_f64; devices];
        let mut comm_bytes = 0u64;
        let mut comm_messages = 0usize;

        // batchedGen: entry evaluation, no communication (generator is
        // device-resident, §IV.A). Blocks are distributed like their row
        // nodes; approximate with round-robin over devices.
        for (i, &(r, c)) in spec.gen_blocks.iter().enumerate() {
            let dev = if devices > 1 { i % devices } else { 0 };
            compute[dev] += cost::gen_entries(r, c) * model.entry_cost / model.flops_per_sec;
        }

        // Row stream: BSR subtraction, QR/ID/upsweep, boundary merges.
        stream_cost(
            &spec.rows,
            &spec.adj,
            &spec.col_rows,
            &spec.id_rows,
            &spec.ranks,
            &spec.merges,
            d_samples,
            devices,
            model,
            is_top,
            wire,
            &mut compute,
            &mut comm_bytes,
            &mut comm_messages,
        );

        // Column stream (unsymmetric two-stream engine): same structure,
        // its own sizes/ranks, its own Ψ traffic. Its partner inputs `Ψ_b`
        // were compressed by the *row* basis (`Ψ ← Uᵀ Ψ`), so their row
        // counts are the row-side ranks (`spec.rows`).
        if let Some(cs) = &spec.col_stream {
            stream_cost(
                &cs.rows,
                &spec.adj,
                &spec.rows,
                &cs.id_rows,
                &cs.ranks,
                &spec.merges,
                d_samples,
                devices,
                model,
                is_top,
                wire,
                &mut compute,
                &mut comm_bytes,
                &mut comm_messages,
            );
        }

        // Launches: each device launches each of the ~6 per-level batched
        // kernels over its chunk, plus one BSR launch per Csp slot (§IV.A),
        // once per stream.
        let csp = spec.adj.iter().map(|a| a.len()).max().unwrap_or(0);
        let nstreams = 1 + spec.col_stream.is_some() as usize;
        let active = devices.min(n.max(1));
        let launches = active * (6 + csp) * nstreams;

        let level_makespan = combine_terms(
            mode,
            epoch_terms(
                model,
                compute.iter().cloned().fold(0.0, f64::max),
                comm_bytes,
                comm_messages,
                launches as f64 / active.max(1) as f64,
            ),
        );

        makespan += level_makespan;
        total_comm += comm_bytes;
        total_launches += launches;
        out_levels.push(LevelCost {
            makespan: level_makespan,
            compute_total: compute.iter().sum(),
            compute_per_device: compute,
            comm_bytes,
            comm_messages,
            launches,
        });
    }

    SimReport {
        devices,
        levels: out_levels,
        makespan,
        total_comm_bytes: total_comm,
        total_launches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_levels() -> Vec<LevelSpec> {
        // Leaf level: 8 nodes of 64 rows, ring adjacency, rank 16; the BSR
        // and ID populations coincide.
        let n = 8;
        let leaf = LevelSpec {
            rows: vec![64; n],
            adj: (0..n)
                .map(|i| vec![i, (i + 1) % n, (i + n - 1) % n])
                .collect(),
            col_rows: vec![64; n],
            gen_blocks: (0..n).map(|_| (64, 64)).collect(),
            id_rows: vec![64; n],
            ranks: vec![16; n],
            merges: vec![],
            ..Default::default()
        };
        // Inner level: BSR over the 8 children (rank 16 each), merged in
        // sibling pairs into 4 ID nodes of 32 stacked rows.
        let inner = LevelSpec {
            rows: vec![16; n],
            adj: (0..n).map(|i| vec![(i + 2) % n]).collect(),
            col_rows: vec![16; n],
            gen_blocks: (0..4).map(|_| (16, 16)).collect(),
            id_rows: vec![32; 4],
            ranks: vec![12; 4],
            merges: (0..n / 2).map(|p| (2 * p, 2 * p + 1)).collect(),
            ..Default::default()
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
        let rep = simulate(&toy_levels(), 128, 1, &DeviceModel::default());
        assert_eq!(rep.total_comm_bytes, 0);
        assert!(rep.makespan > 0.0);
    }

    #[test]
    fn multi_device_reduces_makespan_on_large_levels() {
        // A wide leaf level with enough work for parallelism to win.
        let n = 256;
        let level = LevelSpec {
            rows: vec![256; n],
            adj: (0..n).map(|i| vec![i]).collect(),
            col_rows: vec![256; n],
            gen_blocks: (0..n).map(|_| (256, 256)).collect(),
            id_rows: vec![256; n],
            ranks: vec![32; n],
            merges: vec![],
            ..Default::default()
        };
        let m = DeviceModel::default();
        let r1 = simulate(std::slice::from_ref(&level), 256, 1, &m);
        let r4 = simulate(&[level], 256, 4, &m);
        assert!(
            r4.makespan < r1.makespan / 2.0,
            "4 devices {} vs 1 device {}",
            r4.makespan,
            r1.makespan
        );
    }

    #[test]
    fn communication_grows_with_devices() {
        let levels = toy_levels();
        let m = DeviceModel::default();
        let c2 = simulate(&levels, 128, 2, &m).total_comm_bytes;
        let c8 = simulate(&levels, 128, 8, &m).total_comm_bytes;
        assert!(c2 > 0, "cross-device partners must appear at D=2");
        assert!(c8 >= c2, "more devices cannot reduce traffic: {c2} -> {c8}");
    }

    #[test]
    fn compute_total_is_device_invariant() {
        let levels = toy_levels();
        let m = DeviceModel::default();
        let t1 = simulate(&levels, 64, 1, &m).compute_total();
        let t4 = simulate(&levels, 64, 4, &m).compute_total();
        assert!((t1 - t4).abs() < 1e-12 * t1.max(1e-30), "work is conserved");
    }

    #[test]
    fn efficiency_bounded_by_one() {
        let levels = toy_levels();
        let m = DeviceModel::default();
        for d in [1, 2, 4, 8] {
            let e = simulate(&levels, 64, d, &m).efficiency();
            assert!(e > 0.0 && e <= 1.0 + 1e-9, "efficiency {e} at D={d}");
        }
    }

    #[test]
    fn launches_scale_with_active_devices_not_nodes() {
        let n = 1024;
        let level = LevelSpec {
            rows: vec![64; n],
            adj: (0..n).map(|i| vec![i]).collect(),
            col_rows: vec![64; n],
            gen_blocks: vec![],
            id_rows: vec![64; n],
            ranks: vec![8; n],
            merges: vec![],
            ..Default::default()
        };
        let rep = simulate(&[level], 64, 4, &DeviceModel::default());
        assert!(
            rep.total_launches < 64,
            "launches must not scale with node count"
        );
    }

    #[test]
    fn empty_levels_cost_nothing() {
        let rep = simulate(&[], 64, 4, &DeviceModel::default());
        assert_eq!(rep.makespan, 0.0);
        assert_eq!(rep.total_comm_bytes, 0);
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
        let level = LevelSpec {
            rows: vec![4, 4],
            adj: vec![vec![1], vec![0]],
            col_rows: vec![4, 4],
            gen_blocks: vec![(4, 4)],
            id_rows: vec![8],
            ranks: vec![2],
            merges: vec![(0, 1)],
            ..Default::default()
        };
        let m = DeviceModel::default();
        let rep = simulate(&[level], 16, 8, &m);
        let overhead = m.launch_overhead + m.link_latency;
        assert!(rep.makespan >= overhead, "tiny levels are overhead-bound");
    }
}

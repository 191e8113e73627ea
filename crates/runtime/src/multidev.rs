//! Multi-device (multi-GPU) execution model for the batched construction.
//!
//! The paper's §IV.B sketches the multi-GPU extension of Algorithm 1: the
//! per-level batch count divides across devices, no batched operation needs
//! inter-device communication *except* `batchedBSRGemm` (which must fetch
//! the input vectors `Ω_b` of off-device column partners) and the child
//! stacking of line 24 (children resident on two devices gathered into one
//! parent). This module turns those observations into a quantitative model:
//! given the level structure of a concrete construction (node sizes, BSR
//! adjacency, ranks, sample count), it computes per-device compute costs,
//! cross-device traffic, kernel-launch counts and a makespan estimate for
//! any device count.
//!
//! Nodes of a level are assigned to devices in contiguous chunks — the
//! level-contiguous storage layout of §IV.A makes this the natural
//! decomposition, and it keeps siblings (merged at line 24) on the same
//! device except at chunk boundaries.

use crate::shard::{PipelineMode, Transfer, TransferKind};
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
/// the link. Every projection — [`Schedule::makespan`], the construction and
/// solve simulators below, `h2_sched`'s `ExecReport` and its drift tables —
/// prices an epoch here and composes the terms with [`combine_terms`], so
/// equal counts give bit-equal seconds.
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
    // triangular solve sweeps; shared by `simulate_solve`, the batched
    // primitives in `crate::solve_ops`, and `h2_sched`'s sharded sweep) ----

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
/// planner that emits it (`h2_sched::plan_matvec`) is the only place owners,
/// guards and [`cost`] formulas are evaluated; the fabric *executes* the
/// value and [`Schedule::makespan`] *prices* it, so measured and predicted
/// counts are equal by construction rather than by a second walk.
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

/// One elimination level of a ULV solve sweep, in the form the solver
/// simulator consumes (extracted from a factorization by
/// `h2_solve::UlvFactor::solve_spec`). Nodes are listed in tree level
/// order, the same order the sharded executor chunks by
/// [`owner`]/[`crate::chunk_bounds`].
#[derive(Clone, Debug, Default)]
pub struct SolveLevel {
    /// Per node: reduced diagonal block size `m` (= retained + eliminated).
    pub m: Vec<usize>,
    /// Per node: retained (skeleton) size `k`; the forward sweep passes a
    /// `k × nrhs` block up, the backward sweep distributes one back down.
    pub k: Vec<usize>,
    /// Per node: row-side Householder reflector count (the forward-sweep
    /// rotation cost `Qᵀ b`).
    pub t_row: Vec<usize>,
    /// Per node: column-side reflector count (the backward-sweep
    /// un-rotation cost `P x̃`).
    pub t_col: Vec<usize>,
    /// Per parent at the level above, in *its* level order: the local
    /// indices of the two children whose retained blocks it stacks.
    pub merges: Vec<(usize, usize)>,
}

/// Level structure of a ULV triangular solve sweep (leaf level first, root
/// excluded), plus the dense root system and right-hand-side width.
#[derive(Clone, Debug, Default)]
pub struct SolveSpec {
    pub levels: Vec<SolveLevel>,
    pub root_size: usize,
    pub nrhs: usize,
}

/// Simulate the ULV solve sweep (forward eliminate, root solve, backward
/// substitute) on `devices` devices — the solver analogue of [`simulate`].
///
/// Per forward level, each node costs the rotation `Qᵀ b`
/// ([`cost::qr_apply_flops`]), the pivot-block solve
/// ([`cost::lu_solve_flops`] on the `m − k` eliminated rows) and the
/// retained-block update ([`cost::gemm_flops`]); the pass-up moves a
/// child's `k × nrhs` block to its parent's device when the contiguous
/// chunk decompositions of the two levels split the pair. The backward
/// levels mirror this with the partial-solution distribution in the
/// opposite direction; the root is one dense LU solve on device 0. The
/// sharded executor (`h2_sched::shard_ulv_solve`) records exactly these
/// transfers and flop formulas, so measured byte totals must equal this
/// model's — the solver extension of the construction/matvec equivalence.
pub fn simulate_solve(spec: &SolveSpec, devices: usize, model: &DeviceModel) -> SimReport {
    simulate_solve_prec(spec, devices, model, Precision::F64)
}

/// [`simulate_solve`] at an explicit wire precision: the pass-up /
/// distribution blocks ship at `wire` width, the flop model is unchanged.
pub fn simulate_solve_prec(
    spec: &SolveSpec,
    devices: usize,
    model: &DeviceModel,
    wire: Precision,
) -> SimReport {
    simulate_solve_prec_mode(spec, devices, model, wire, PipelineMode::Synchronous)
}

/// [`simulate_solve_prec`] under an explicit execution discipline — the
/// solver analogue of [`simulate_prec_mode`]: populations unchanged, level
/// term composition per [`combine_terms`].
pub fn simulate_solve_prec_mode(
    spec: &SolveSpec,
    devices: usize,
    model: &DeviceModel,
    wire: Precision,
    mode: PipelineMode,
) -> SimReport {
    assert!(devices > 0, "at least one device");
    let d = spec.nrhs;
    let mut out_levels: Vec<LevelCost> = Vec::new();
    let push_level = |compute: Vec<f64>,
                      comm_bytes: u64,
                      comm_messages: usize,
                      launches: usize,
                      out: &mut Vec<LevelCost>| {
        let active = compute.iter().filter(|&&c| c > 0.0).count().max(1);
        let makespan = combine_terms(
            mode,
            epoch_terms(
                model,
                compute.iter().cloned().fold(0.0, f64::max),
                comm_bytes,
                comm_messages,
                launches as f64 / active as f64,
            ),
        );
        out.push(LevelCost {
            makespan,
            compute_total: compute.iter().sum(),
            compute_per_device: compute,
            comm_bytes,
            comm_messages,
            launches,
        });
    };

    // Pass-up / distribution traffic of one level: a child whose owner
    // differs from its parent's moves its retained k × nrhs block.
    let level_comm = |li: usize| -> (u64, usize) {
        let lvl = &spec.levels[li];
        let nl = lvl.m.len();
        let np = lvl.merges.len();
        let (mut bytes, mut msgs) = (0u64, 0usize);
        for (j, &(a, b)) in lvl.merges.iter().enumerate() {
            let dev_p = owner(j, np, devices);
            for c in [a, b] {
                let kc = lvl.k.get(c).copied().unwrap_or(0);
                if kc > 0 && owner(c, nl, devices) != dev_p {
                    bytes += cost::fetch_bytes_p(kc, d, wire);
                    msgs += 1;
                }
            }
        }
        (bytes, msgs)
    };

    // ---- forward sweep, leaf level first ----
    for (li, lvl) in spec.levels.iter().enumerate() {
        let nl = lvl.m.len();
        let mut compute = vec![0.0_f64; devices];
        for i in 0..nl {
            let (m, k) = (lvl.m[i], lvl.k[i]);
            let e = m - k;
            compute[owner(i, nl, devices)] += (cost::qr_apply_flops(m, lvl.t_row[i], d)
                + cost::lu_solve_flops(e, d)
                + cost::gemm_flops(k, e, d))
                / model.flops_per_sec;
        }
        let (bytes, msgs) = level_comm(li);
        push_level(
            compute,
            bytes,
            msgs,
            devices.min(nl.max(1)),
            &mut out_levels,
        );
    }

    // ---- root solve on device 0 ----
    {
        let mut compute = vec![0.0_f64; devices];
        compute[0] = cost::lu_solve_flops(spec.root_size, d) / model.flops_per_sec;
        push_level(compute, 0, 0, 1, &mut out_levels);
    }

    // ---- backward sweep, root level first ----
    for (li, lvl) in spec.levels.iter().enumerate().rev() {
        let nl = lvl.m.len();
        let mut compute = vec![0.0_f64; devices];
        for i in 0..nl {
            let (m, k) = (lvl.m[i], lvl.k[i]);
            let e = m - k;
            compute[owner(i, nl, devices)] += (cost::gemm_flops(e, k, d)
                + cost::lu_solve_flops(e, d)
                + cost::qr_apply_flops(m, lvl.t_col[i], d))
                / model.flops_per_sec;
        }
        let (bytes, msgs) = level_comm(li);
        push_level(
            compute,
            bytes,
            msgs,
            devices.min(nl.max(1)),
            &mut out_levels,
        );
    }

    let makespan = out_levels.iter().map(|l| l.makespan).sum();
    let total_comm_bytes = out_levels.iter().map(|l| l.comm_bytes).sum();
    let total_launches = out_levels.iter().map(|l| l.launches).sum();
    SimReport {
        devices,
        levels: out_levels,
        makespan,
        total_comm_bytes,
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

    fn toy_solve_spec() -> SolveSpec {
        // 8 leaves of 64 rows retaining 16, merged pairwise into 4 nodes of
        // 32 retaining 8, merged into 2 of 16 retaining 4; root 8.
        SolveSpec {
            levels: vec![
                SolveLevel {
                    m: vec![16; 2],
                    k: vec![4; 2],
                    t_row: vec![16; 2],
                    t_col: vec![16; 2],
                    merges: vec![(0, 1)],
                },
                SolveLevel {
                    m: vec![32; 4],
                    k: vec![8; 4],
                    t_row: vec![32; 4],
                    t_col: vec![32; 4],
                    merges: vec![(0, 1), (2, 3)],
                },
                SolveLevel {
                    m: vec![64; 8],
                    k: vec![16; 8],
                    t_row: vec![64; 8],
                    t_col: vec![64; 8],
                    merges: vec![(0, 1), (2, 3), (4, 5), (6, 7)],
                },
            ]
            .into_iter()
            .rev()
            .collect(),
            root_size: 8,
            nrhs: 4,
        }
    }

    #[test]
    fn solve_sim_single_device_no_comm_and_work_conserved() {
        let spec = toy_solve_spec();
        let m = DeviceModel::default();
        let r1 = simulate_solve(&spec, 1, &m);
        assert_eq!(r1.total_comm_bytes, 0);
        assert!(r1.makespan > 0.0);
        // Forward levels + root + backward levels.
        assert_eq!(r1.levels.len(), 2 * spec.levels.len() + 1);
        let r4 = simulate_solve(&spec, 4, &m);
        assert!(
            (r1.compute_total() - r4.compute_total()).abs() < 1e-12 * r1.compute_total(),
            "solve work is conserved across device counts"
        );
    }

    #[test]
    fn solve_sim_comm_grows_with_devices() {
        let spec = toy_solve_spec();
        let m = DeviceModel::default();
        let c2 = simulate_solve(&spec, 2, &m).total_comm_bytes;
        let c8 = simulate_solve(&spec, 8, &m).total_comm_bytes;
        assert!(c2 > 0, "split sibling pairs must move retained blocks");
        assert!(c8 >= c2);
        // Forward and backward sweeps mirror each other's traffic.
        let r = simulate_solve(&spec, 4, &m);
        let nf = spec.levels.len();
        let fwd: u64 = r.levels[..nf].iter().map(|l| l.comm_bytes).sum();
        let bwd: u64 = r.levels[nf + 1..].iter().map(|l| l.comm_bytes).sum();
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

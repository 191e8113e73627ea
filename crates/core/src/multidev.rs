//! The sharded construction planned once, and the fabric's side of the
//! level loop. [`plan_construct`] lays the run of Algorithm 1 that built a
//! matrix out as the [`Schedule`] the device fabric executes and prices
//! (§IV.B: only `batchedBSRGemm`'s `Ω_b` fetches and the line-24 stacking
//! communicate). A sharded run is charged from the plan: the construction
//! engine's per-level fabric step, `FabricStep` here, calls
//! [`plan_construct`]'s per-level step at each level's close and the fabric
//! charges the epoch it returns. The same step issues a pipelined fabric's
//! next-level fetches and keeps the device-loss recovery ledger; off the
//! fabric it does nothing. The kernels of `h2_runtime` count nothing; they
//! issue their transfers live, from the rules the plan reads too — fetches
//! ([`FetchPlanner`]) and merges ([`child_gathers`]) over the level
//! structure the engine builds.

use crate::config::{SketchConfig, SketchStats};
use crate::construct::{
    bsr_pattern, input_bases, input_basis, level_structure, side_skel, sides, stored,
    LevelStructure, Side,
};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    child_gathers, chunk_bounds, issue_bsr_fetches, BsrPattern, FetchPlanner, PipelineMode,
    Precision, Runtime, Schedule, ScheduleEpoch, ShardDispatch, Transfer,
};

/// [`ScheduleEpoch::kernel`] of every construction epoch.
const CONSTRUCT: &str = "construct";

/// The sharded run of Algorithm 1 that produced `h2` under `cfg` as a
/// [`Schedule`]: kernel populations follow from the finished matrix, sample
/// widths from `cfg` and `stats.rounds_per_level` (a level past its end
/// takes no round).
///
/// One epoch per processed level, `construct L{l}`, leaf first. A level
/// entered at width `w` (the initial width plus `sample_block` per round
/// taken below it) runs, per stream and in the engine's order:
///
/// 1. at the leaves, after the near-field `batchedGen`: `batchedRand` and
///    the two leaf gathers at width `w`;
/// 2. the BSR subtraction with its `Ω_b` fetches, then above the leaves
///    the line-24 stacking of samples and inputs with its gathers;
/// 3. with `cfg.adaptive`, the convergence QR at each width the level
///    reaches; between two, one round: `batchedRand` and the leaf gathers
///    at width `sample_block`, every frozen level's BSR (own fetches),
///    stacking, shrink and upsweep GEMM leaf first, this level's BSR and
///    stacking, and the two `hcat` copies;
/// 4. at the final width: the row ID, on a pipelined fabric the next
///    level's `Ω_b` fetches (gating the next epoch, whose first pass then
///    issues none, and held in both epochs' workspace), the coupling
///    `batchedGen`, and below the top the shrink and upsweep GEMM.
///
/// Per device, each epoch carries the executor's flops (summed per kernel
/// over the contiguous chunk, in the engine's order), generator entries
/// (round-robin per call), launches (one per kernel on every device with a
/// non-empty chunk, the BSR product one per slot) and workspace peak (the
/// fetches issued ahead into it plus every output batch, generated block
/// and landed transfer). An all-dense partition processes no level: its
/// near-field `batchedGen` is the trailing `construct tail` epoch.
///
/// ```
/// use h2_core::{plan_construct, sketch_construct, SketchConfig};
/// use h2_kernels::{ExponentialKernel, KernelMatrix};
/// use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime};
/// use h2_tree::{Admissibility, ClusterTree, Partition};
/// use std::sync::Arc;
///
/// let pts = h2_tree::uniform_cube(800, 1);
/// let tree = Arc::new(ClusterTree::build(&pts, 16));
/// let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
/// let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
/// let cfg = SketchConfig { initial_samples: 48, ..Default::default() };
/// let (h2, stats) = sketch_construct(&km, &km, tree, part, &Runtime::sequential(), &cfg);
///
/// let plan = plan_construct(&h2, &cfg, &stats, 1, PipelineMode::Synchronous, Precision::F64);
/// assert_eq!(plan.total_comm_bytes(), 0); // one device never communicates
/// assert!(plan.makespan(&DeviceModel::default()) > 0.0);
/// ```
pub fn plan_construct(
    h2: &H2Matrix,
    cfg: &SketchConfig,
    stats: &SketchStats,
    devices: usize,
    mode: PipelineMode,
    wire: Precision,
) -> Schedule {
    let mut planner = ConstructPlanner::new(h2, cfg, devices, mode, wire);
    let levels = (planner.top..=h2.tree.leaf_level()).rev().enumerate();
    let mut epochs: Vec<ScheduleEpoch> = levels
        .map(|(at, l)| {
            let rounds = stats.rounds_per_level.get(at).copied().unwrap_or(0);
            planner.level(h2, l, rounds)
        })
        .collect();
    if epochs.is_empty() {
        epochs.push(planner.tail(h2));
    }
    Schedule {
        devices,
        mode,
        wire,
        epochs,
    }
}

/// The construction planner between levels: the frozen level shapes a
/// round sweeps through, the running sample width and the standby bytes the
/// last level's ahead-issued fetches carry into the next epoch.
/// [`plan_construct`] folds [`ConstructPlanner::level`] over the processed
/// levels; on a sharded run [`FabricStep::close_level`] calls the same step
/// at each level's close and hands the epoch to the fabric to charge.
pub(crate) struct ConstructPlanner {
    devices: usize,
    pipelined: bool,
    wire: Precision,
    sides: &'static [Side],
    /// The top processed level (one past the leaf level when none is).
    top: usize,
    sample_block: usize,
    adaptive: bool,
    leaves: Vec<usize>,
    levels: Vec<LevelShape>,
    w: usize,
    standby: Vec<usize>,
}

impl ConstructPlanner {
    /// The planner before the leaf level, for a run of `cfg` on `devices`
    /// devices building `h2`'s tree and partition.
    pub(crate) fn new(
        h2: &H2Matrix,
        cfg: &SketchConfig,
        devices: usize,
        mode: PipelineMode,
        wire: Precision,
    ) -> Self {
        let tree = &h2.tree;
        let leaf_level = tree.leaf_level();
        ConstructPlanner {
            devices,
            pipelined: mode == PipelineMode::Pipelined,
            wire,
            sides: sides(h2.is_symmetric()),
            top: h2.partition.top_far_level(tree).unwrap_or(leaf_level + 1),
            sample_block: cfg.sample_block,
            adaptive: cfg.adaptive,
            leaves: tree
                .level(leaf_level)
                .map(|id| tree.nodes[id].len())
                .collect(),
            levels: Vec::new(),
            w: cfg.initial_width(),
            standby: vec![0; devices],
        }
    }

    /// The epoch of processed level `l`, which took `rounds` adaptive
    /// rounds, given `h2` built through that level; the level then freezes.
    pub(crate) fn level(&mut self, h2: &H2Matrix, l: usize, rounds: usize) -> ScheduleEpoch {
        let (devices, wire, sb) = (self.devices, self.wire, self.sample_block);
        let at = self.levels.len();
        let lv = LevelShape::of(h2, self.sides, l);
        let mut e = ScheduleEpoch::blank(CONSTRUCT, format!("construct L{l}"), devices);
        e.arena = std::mem::replace(&mut self.standby, vec![0; devices]);
        if at == 0 {
            charge_gen(&mut e, near_blocks(h2));
            for _ in self.sides {
                draw(&mut e, &self.leaves, self.w);
            }
        }
        // On a pipelined fabric the level below issued these fetches.
        let fetch = !(self.pipelined && at > 0);
        for s in &lv.streams {
            advance(&mut e, at, &lv, s, self.w, fetch, wire);
        }

        for round in 0..=rounds {
            if self.adaptive {
                for s in &lv.streams {
                    kernel(&mut e, &s.ys, 0, 1, |j| cost::qr_flops(s.ys[j], self.w));
                }
            }
            if round == rounds {
                break;
            }
            // updateSamples: fresh columns swept up through the frozen
            // levels, advanced through this one, and appended.
            for (k, s) in lv.streams.iter().enumerate() {
                draw(&mut e, &self.leaves, sb);
                for frozen in &self.levels {
                    advance(&mut e, at, frozen, &frozen.streams[k], sb, true, wire);
                    upsweep(&mut e, &frozen.streams[k], sb);
                }
                advance(&mut e, at, &lv, s, sb, true, wire);
                kernel(&mut e, &s.ys, self.w + sb, 1, |_| 0.0);
                kernel(&mut e, &s.xs, self.w + sb, 1, |_| 0.0);
            }
            self.w += sb;
        }

        let w = self.w;
        for s in &lv.streams {
            kernel(&mut e, &s.ys, 0, 1, |j| cost::id_flops(s.ys[j], w));
        }
        if self.pipelined && l > self.top {
            // The next level's BSR rows are this level's nodes, its
            // partners' heights this level's compressed inputs.
            let tree = &h2.tree;
            let next: Vec<usize> = tree.level(l - 1).collect();
            let pattern = level_structure(tree, &h2.partition, &next, false).pattern;
            for s in &lv.streams {
                let ahead = fetches(&pattern, &s.compressed, w, devices, wire);
                for t in &ahead {
                    self.standby[t.dst] += t.bytes as usize;
                }
                land(&mut e, at + 1, ahead);
            }
        }
        // Coupling blocks B_{s,t} = K(Ĩ^r_s, Ĩ^c_t) (line 41).
        let (tree, col_skel) = (&h2.tree, h2.col_skel());
        let coupling = tree.level(l).flat_map(|s| {
            h2.partition.far_of[s]
                .iter()
                .filter(move |&&t| stored(h2, s, t))
                .map(move |&t| (h2.skel[s].len(), col_skel[t].len()))
        });
        charge_gen(&mut e, coupling);
        if l > self.top {
            for s in &lv.streams {
                upsweep(&mut e, s, w);
            }
        }
        self.levels.push(lv);
        e
    }

    /// The epoch of an all-dense partition, which processes no level: its
    /// near-field `batchedGen` is the trailing `construct tail` epoch.
    pub(crate) fn tail(&self, h2: &H2Matrix) -> ScheduleEpoch {
        let mut e = ScheduleEpoch::blank(CONSTRUCT, "construct tail", self.devices);
        charge_gen(&mut e, near_blocks(h2));
        e
    }
}

/// The fabric's side of the construction's level loop (§IV.B), a no-op off
/// the fabric. On a sharded runtime it charges each processed level's epoch
/// from a [`ConstructPlanner`], issues a pipelined fabric's next-level
/// fetches as soon as a level's IDs fix their sizes, and keeps the
/// device-loss recovery ledger.
pub(crate) struct FabricStep<'rt>(Option<Sharded<'rt>>);

struct Sharded<'rt> {
    disp: &'rt dyn ShardDispatch,
    planner: ConstructPlanner,
    /// One sealed checkpoint per closed level, leaf first.
    sealed: Vec<LevelCheckpoint>,
    reshard_seen: u64,
    /// Per stream, the tickets of the fetches issued ahead for the next
    /// level's first BSR product.
    ahead: Vec<Option<Vec<Vec<u64>>>>,
}

impl<'rt> FabricStep<'rt> {
    /// The step for a run of `cfg` on `rt` building `h2`'s tree and
    /// partition.
    pub(crate) fn new(rt: &'rt Runtime, h2: &H2Matrix, cfg: &SketchConfig) -> Self {
        FabricStep(rt.shard_dispatch().map(|d| Sharded {
            disp: d.as_ref(),
            planner: ConstructPlanner::new(h2, cfg, d.devices(), d.mode(), d.wire()),
            sealed: Vec::new(),
            reshard_seen: d.reshard_version(),
            ahead: Vec::new(),
        }))
    }

    /// The recovery boundary, as a level opens. A device fail-stop lands
    /// exactly at an epoch close, so a reshard observed here interrupted
    /// this in-flight level at worst: verify the sealed ledger, count the
    /// recovery and go on. Running the level on the re-routed fabric is the
    /// bounded replay; per-entry arithmetic is device-count-invariant, so
    /// the construction stays bit-identical to a fault-free run.
    pub(crate) fn open_level(&mut self, h2: &H2Matrix, stats: &mut SketchStats) {
        let Some(f) = &mut self.0 else { return };
        let v = f.disp.reshard_version();
        if v != f.reshard_seen {
            f.reshard_seen = v;
            for cp in &f.sealed {
                cp.verify(h2);
            }
            stats.recoveries += 1;
            f.disp.note_recovery("construct level replay");
        }
    }

    /// After level `l`'s IDs at sample width `width`, on a pipelined
    /// fabric: issue the `Ω_b`/`Ψ_b` fetches of the next level's BSR
    /// product, whose rows are this level's nodes (far-field adjacency) and
    /// whose partner heights are the opposite side's just-computed ranks.
    /// The copies then run behind the coupling `batchedGen` and upsweep.
    pub(crate) fn after_id(&mut self, l: usize, h2: &H2Matrix, node_ids: &[usize], width: usize) {
        let Some(f) = &mut self.0 else { return };
        if !f.planner.pipelined || l <= f.planner.top || width == 0 {
            return;
        }
        let pattern = bsr_pattern(&h2.tree, &h2.partition.far_of, node_ids);
        let fetch = |&side: &Side| {
            let x_rows: Vec<usize> = input_bases(h2, side, node_ids)
                .iter()
                .map(|b| b.cols())
                .collect();
            Some(issue_bsr_fetches(f.disp, &pattern, &x_rows, width))
        };
        f.ahead = f.planner.sides.iter().map(fetch).collect();
    }

    /// The tickets of the fetches issued ahead for stream `k`'s next BSR
    /// product (`None`: it issues its own).
    pub(crate) fn tickets(&mut self, k: usize) -> Option<Vec<Vec<u64>>> {
        self.0.as_mut()?.ahead.get_mut(k)?.take()
    }

    /// Close processed level `l` (nodes `node_ids`, `rounds` adaptive
    /// rounds): charge the fabric its epoch of [`plan_construct`], then seal
    /// its checkpoint. Sealing after the epoch boundary, where a scheduled
    /// fail-stop takes effect, keeps out of the ledger any level the loss
    /// could have interrupted.
    pub(crate) fn close_level(
        &mut self,
        h2: &H2Matrix,
        l: usize,
        rounds: usize,
        node_ids: &[usize],
        stats: &mut SketchStats,
    ) {
        let Some(f) = &mut self.0 else { return };
        f.disp.epoch(&f.planner.level(h2, l, rounds));
        f.sealed.push(LevelCheckpoint::seal(l, node_ids, h2));
        stats.checkpoints += 1;
    }

    /// Charge an all-dense partition's only epoch (see
    /// [`ConstructPlanner::tail`]).
    pub(crate) fn tail(&self, h2: &H2Matrix) {
        if let Some(f) = &self.0 {
            f.disp.epoch(&f.planner.tail(h2));
        }
    }
}

/// One sealed level: its node ids and the skeleton widths its bases
/// committed into the `H2Matrix`, row side then (unsymmetric only) column
/// side.
struct LevelCheckpoint {
    level: usize,
    node_ids: Vec<usize>,
    widths: Vec<usize>,
}

impl LevelCheckpoint {
    fn seal(level: usize, node_ids: &[usize], h2: &H2Matrix) -> Self {
        LevelCheckpoint {
            level,
            node_ids: node_ids.to_vec(),
            widths: Self::widths(node_ids, h2),
        }
    }

    fn widths(node_ids: &[usize], h2: &H2Matrix) -> Vec<usize> {
        let sides = sides(h2.is_symmetric()).iter();
        sides
            .flat_map(|&side| {
                node_ids
                    .iter()
                    .map(move |&id| side_skel(h2, side)[id].len())
            })
            .collect()
    }

    /// Assert the sealed level's committed state is still what it was at
    /// seal time (nothing a later topology change may have clobbered).
    fn verify(&self, h2: &H2Matrix) {
        assert_eq!(
            self.widths,
            Self::widths(&self.node_ids, h2),
            "construct checkpoint L{} violated after reshard",
            self.level
        );
    }
}

/// The near-field blocks' shapes, in the engine's `batchedGen` order.
fn near_blocks(h2: &H2Matrix) -> impl Iterator<Item = (usize, usize)> + '_ {
    let tree = &h2.tree;
    tree.level(tree.leaf_level()).flat_map(move |s| {
        h2.partition.near_of[s]
            .iter()
            .filter(move |&&t| stored(h2, s, t))
            .map(move |&t| (tree.nodes[s].len(), tree.nodes[t].len()))
    })
}

/// One processed level as the engine's kernels see it.
struct LevelShape {
    structure: LevelStructure,
    /// Per stream, in the engine's order.
    streams: Vec<StreamShape>,
}

/// One stream's batch heights at one level: samples (`y`) and inputs (`x`)
/// of the BSR population (the leaves, or the level's children after their
/// upsweep), the same stacked onto the level's nodes (line 24), and per
/// node the upsweep's outputs — skeleton size and compressed input height.
struct StreamShape {
    y_rows: Vec<usize>,
    x_rows: Vec<usize>,
    ys: Vec<usize>,
    xs: Vec<usize>,
    ranks: Vec<usize>,
    compressed: Vec<usize>,
}

impl LevelShape {
    fn of(h2: &H2Matrix, sides: &[Side], l: usize) -> Self {
        let tree = &h2.tree;
        let is_leaf = l == tree.leaf_level();
        let node_ids: Vec<usize> = tree.level(l).collect();
        let structure = level_structure(tree, &h2.partition, &node_ids, is_leaf);
        let streams = sides
            .iter()
            .map(|&side| {
                let (skel, basis) = (side_skel(h2, side), input_basis(h2, side));
                let (y_rows, x_rows): (Vec<usize>, Vec<usize>) = if is_leaf {
                    node_ids
                        .iter()
                        .map(|&id| (tree.nodes[id].len(), tree.nodes[id].len()))
                        .unzip()
                } else {
                    tree.level(l + 1)
                        .map(|id| (skel[id].len(), basis[id].cols()))
                        .unzip()
                };
                let stack = |rows: &[usize]| -> Vec<usize> {
                    if is_leaf {
                        return rows.to_vec();
                    }
                    let children = &structure.children_local;
                    children
                        .iter()
                        .map(|cs| cs.iter().map(|&c| rows[c]).sum())
                        .collect()
                };
                StreamShape {
                    ys: stack(&y_rows),
                    xs: stack(&x_rows),
                    y_rows,
                    x_rows,
                    ranks: node_ids.iter().map(|&id| skel[id].len()).collect(),
                    compressed: node_ids.iter().map(|&id| basis[id].cols()).collect(),
                }
            })
            .collect();
        LevelShape { structure, streams }
    }
}

/// One batched kernel over entries of heights `rows`, charged as the
/// sharded kernels charge it: on every device with a non-empty contiguous
/// chunk, `launches` launches, the chunk's `flops` summed in entry order,
/// and its `rows × cols` f64 output batch (`cols = 0`: none).
fn kernel(
    e: &mut ScheduleEpoch,
    rows: &[usize],
    cols: usize,
    launches: usize,
    flops: impl Fn(usize) -> f64,
) {
    let bounds = chunk_bounds(rows.len(), e.launches.len());
    for dev in 0..e.launches.len() {
        let (b, end) = (bounds[dev], bounds[dev + 1]);
        if end == b {
            continue;
        }
        e.arena[dev] += rows[b..end].iter().map(|r| r * cols * 8).sum::<usize>();
        e.flops[dev] += (b..end).map(&flops).sum::<f64>();
        e.launches[dev] += launches;
    }
}

/// `draw_global_samples` at width `d`: `batchedRand` over the columns, then
/// the leaf gathers of inputs and samples.
fn draw(e: &mut ScheduleEpoch, leaves: &[usize], d: usize) {
    e.launch(d);
    kernel(e, leaves, d, 1, |_| 0.0);
    kernel(e, leaves, d, 1, |_| 0.0);
}

/// `advance_level` for one stream at width `d`: the BSR subtraction over
/// `lv`'s pattern (issuing its `Ω_b` fetches when `fetch`), then above the
/// leaves the line-24 stacking of samples and inputs with their boundary
/// gathers, every transfer gating epoch `at`.
fn advance(
    e: &mut ScheduleEpoch,
    at: usize,
    lv: &LevelShape,
    s: &StreamShape,
    d: usize,
    fetch: bool,
    wire: Precision,
) {
    let devices = e.launches.len();
    let pattern = &lv.structure.pattern;
    if fetch {
        land(e, at, fetches(pattern, &s.x_rows, d, devices, wire));
    }
    kernel(e, &s.y_rows, 0, pattern.csp(), |r| {
        pattern.row_blocks(r).iter().fold(0.0, |fl, &c| {
            fl + cost::bsr_flops(s.y_rows[r], s.x_rows[c], d)
        })
    });
    let children = &lv.structure.children_local;
    if children.is_empty() {
        return;
    }
    for (rows, stacked) in [(&s.y_rows, &s.ys), (&s.x_rows, &s.xs)] {
        land(e, at, child_gathers(children, rows, d, devices, wire));
        kernel(e, stacked, d, 1, |_| 0.0);
    }
}

/// Issue `moved` in the epoch, gating epoch `gates`: each transfer lands in
/// its destination's arena.
fn land(e: &mut ScheduleEpoch, gates: usize, moved: Vec<Transfer>) {
    for t in moved {
        e.arena[t.dst] += t.bytes as usize;
        e.transfers.push((t, gates));
    }
}

/// The upsweep at width `d` (lines 17-18 / 35-36): shrink the samples to
/// the skeleton rows, compress the `xs`-row inputs by the opposite side's
/// basis.
fn upsweep(e: &mut ScheduleEpoch, s: &StreamShape, d: usize) {
    kernel(e, &s.ranks, d, 1, |_| 0.0);
    let flops = |j: usize| cost::upsweep_flops(s.xs[j], s.compressed[j], d);
    kernel(e, &s.compressed, d, 1, flops);
}

/// `issue_bsr_fetches`: the deduplicated `Ω_b` fetches of one BSR product
/// over `pattern` whose partner `c` is an `x_rows[c] × d` block.
fn fetches(
    pattern: &BsrPattern,
    x_rows: &[usize],
    d: usize,
    devices: usize,
    wire: Precision,
) -> Vec<Transfer> {
    let mut planner = FetchPlanner::new(pattern.nrows(), devices, wire);
    for r in 0..pattern.nrows() {
        for &c in pattern.row_blocks(r) {
            planner.visit(r, c, x_rows[c], d);
        }
    }
    planner.into_plan()
}

/// One `batchedGen` call over blocks of the given shapes: entries and
/// output bytes round-robin over the devices in block order, one launch on
/// every device that receives a block.
fn charge_gen(e: &mut ScheduleEpoch, blocks: impl Iterator<Item = (usize, usize)>) {
    let devices = e.entries.len();
    let mut count = 0;
    for (i, (r, c)) in blocks.enumerate() {
        e.entries[i % devices] += cost::gen_entries(r, c);
        e.arena[i % devices] += r * c * 8;
        count = i + 1;
    }
    for launches in e.launches.iter_mut().take(count) {
        *launches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch_construct;
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_runtime::{DeviceModel, ShardJob, TransferKind};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, OnceLock};

    fn built(n: usize, seed: u64) -> H2Matrix {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 48,
            ..Default::default()
        };
        sketch_construct(&km, &km, tree, part, &rt, &cfg).0
    }

    // Shared constructions, each built once per test binary: the plans
    // under test are pure functions of the finished matrix. N = 520 is the
    // smallest size whose partition has an inner processed level that
    // fetches at D = 3.
    fn sym() -> &'static H2Matrix {
        static H2: OnceLock<H2Matrix> = OnceLock::new();
        H2.get_or_init(|| built(520, 601))
    }

    fn unsym() -> &'static H2Matrix {
        static H2: OnceLock<H2Matrix> = OnceLock::new();
        H2.get_or_init(|| built_unsym(520, 610))
    }

    /// The row stream of `h2` alone: everything `plan_construct` reads,
    /// with the column side dropped.
    fn row_side_only(h2: &H2Matrix) -> H2Matrix {
        H2Matrix {
            basis: h2.basis.clone(),
            skel: h2.skel.clone(),
            ..H2Matrix::new_shell(h2.tree.clone(), h2.partition.clone(), true)
        }
    }

    /// A one-pass run at width `d` that converges without a round.
    fn one_pass(d: usize) -> SketchConfig {
        SketchConfig {
            initial_samples: d,
            ..Default::default()
        }
    }

    fn plan(h2: &H2Matrix, d: usize, devices: usize) -> Schedule {
        let stats = SketchStats::default();
        plan_construct(
            h2,
            &one_pass(d),
            &stats,
            devices,
            PipelineMode::Synchronous,
            Precision::F64,
        )
    }

    /// Leaf-epoch launches of a one-device plan: the near-field generator,
    /// per stream the initial sampling (rand + two gathers), `Csp` BSR
    /// slots, QR, ID, shrink and upsweep GEMM, then the coupling generator
    /// when the leaf level has far blocks.
    fn one_device_leaf_launches(h2: &H2Matrix, streams: usize) -> usize {
        let tree = &h2.tree;
        let part = &h2.partition;
        let leaves = tree.level(tree.leaf_level());
        let csp = leaves.clone().map(|s| part.near_of[s].len()).max().unwrap();
        let far = usize::from(leaves.clone().any(|s| !part.far_of[s].is_empty()));
        1 + streams * (3 + csp + 4) + far
    }

    #[test]
    fn specs_cover_processed_levels() {
        let h2 = sym();
        // Three devices: chunk boundaries then split some sibling pairs.
        let p = plan(h2, 48, 3);
        let top = h2.partition.top_far_level(&h2.tree).unwrap();
        let leaf = h2.tree.leaf_level();
        assert_eq!(p.epochs.len(), leaf - top + 1);
        // One epoch per processed level, leaf first.
        for (e, l) in p.epochs.iter().zip((top..=leaf).rev()) {
            assert_eq!(e.label, format!("construct L{l}"));
        }
        // The leaf epoch stacks nothing; the inner ones merge children.
        let gathers = |e: &ScheduleEpoch| {
            e.transfers
                .iter()
                .filter(|(t, _)| t.kind == TransferKind::ChildGather)
                .count()
        };
        assert_eq!(gathers(&p.epochs[0]), 0);
        assert!(p.epochs[1..].iter().any(|e| gathers(e) > 0));
    }

    #[test]
    fn adjacency_indices_in_range() {
        let h2 = sym();
        let stats = SketchStats::default();
        let plan = |mode| plan_construct(h2, &one_pass(48), &stats, 3, mode, Precision::F64);
        let sync = plan(PipelineMode::Synchronous);
        for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
            let p = plan(mode);
            for (i, e) in p.epochs.iter().enumerate() {
                for &(t, gates) in &e.transfers {
                    assert!(t.src < 3 && t.dst < 3 && t.src != t.dst, "{t:?}");
                    assert!(gates == i || gates == i + 1, "epoch {i} gates {gates}");
                    assert!(gates < p.epochs.len());
                }
                // A fetch issued a level early replaces the next level's
                // own: the issuing epoch's arena holds it on top of the
                // synchronous workspace.
                for dev in 0..3 {
                    let ahead: u64 = e
                        .transfers
                        .iter()
                        .filter(|(t, gates)| *gates == i + 1 && t.dst == dev)
                        .map(|(t, _)| t.bytes)
                        .sum();
                    assert_eq!(
                        e.arena[dev],
                        sync.epochs[i].arena[dev] + ahead as usize,
                        "{mode:?} epoch {i} device {dev}"
                    );
                }
            }
        }
    }

    #[test]
    fn id_rows_match_stacked_child_ranks() {
        // Symmetric: a straddling child moves its samples and its inputs,
        // both `rank × d` blocks, so each epoch's gathers come as two equal
        // halves sized by the children's ranks.
        let h2 = sym();
        let tree = &h2.tree;
        for e in &plan(h2, 48, 7).epochs[1..] {
            let l: usize = e.label["construct L".len()..].parse().unwrap();
            let gathers: Vec<_> = e
                .transfers
                .iter()
                .filter(|(t, _)| t.kind == TransferKind::ChildGather)
                .map(|(t, _)| *t)
                .collect();
            let (y, x) = gathers.split_at(gathers.len() / 2);
            assert_eq!(y, x);
            for t in y {
                assert!(tree
                    .level(l + 1)
                    .any(|c| t.bytes == (h2.rank(c) * 48 * 8) as u64));
            }
        }
    }

    #[test]
    fn all_dense_partition_has_no_specs() {
        // No processed level: the near-field generator is the whole run.
        let h2 = built(40, 604);
        let p = plan(&h2, 48, 2);
        assert_eq!(p.epochs.len(), 1);
        assert_eq!(p.epochs[0].label, "construct tail");
        let stored: usize = (0..h2.dense.len())
            .map(|i| h2.dense.block(i))
            .map(|b| b.rows() * b.cols())
            .sum();
        assert_eq!(p.epochs[0].entries.iter().sum::<f64>(), stored as f64);
        assert_eq!(p.total_comm_bytes(), 0);
    }

    fn built_unsym(n: usize, seed: u64) -> H2Matrix {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = h2_kernels::UnsymKernelMatrix::new(
            h2_kernels::ConvectionKernel::default(),
            tree.points.clone(),
        );
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 48,
            symmetric: false,
            ..Default::default()
        };
        crate::sketch_construct(&km, &km, tree, part, &rt, &cfg).0
    }

    #[test]
    fn symmetric_specs_have_no_col_stream() {
        let h2 = sym();
        let p = plan(h2, 48, 1);
        assert_eq!(p.epochs[0].launches[0], one_device_leaf_launches(h2, 1));
    }

    #[test]
    fn unsym_specs_carry_col_stream_populations() {
        let h2 = unsym();
        let p = plan(h2, 48, 1);
        assert!(!p.epochs.is_empty());
        assert_eq!(p.epochs[0].launches[0], one_device_leaf_launches(h2, 2));
        // Every inner epoch runs both streams' QR, ID and stacking kernels.
        let one_stream = plan(&row_side_only(h2), 48, 1);
        for (two, one) in p.epochs.iter().zip(&one_stream.epochs).skip(1) {
            assert!(two.launches[0] > one.launches[0], "{}", two.label);
        }
    }

    #[test]
    fn unsym_gen_blocks_enumerate_ordered_pairs() {
        let h2 = unsym();
        let tree = &h2.tree;
        let part = &h2.partition;
        let leaf = tree.leaf_level();
        // Exact expectation: the leaf epoch generates every *ordered* near
        // pair plus every ordered leaf-level far pair — the two-stream engine
        // generates K(I_s, I_t) and K(I_t, I_s) separately.
        let mut entries = 0usize;
        let (mut ordered, mut unordered) = (0usize, 0usize);
        for s in tree.level(leaf) {
            for &t in &part.near_of[s] {
                entries += tree.nodes[s].len() * tree.nodes[t].len();
            }
            for &t in &part.far_of[s] {
                entries += h2.rank(s) * h2.col_rank(t);
            }
            for &t in part.near_of[s].iter().chain(part.far_of[s].iter()) {
                ordered += 1;
                if s <= t {
                    unordered += 1;
                }
            }
        }
        let leaf_epoch = &plan(h2, 48, 3).epochs[0];
        assert_eq!(
            leaf_epoch.entries.iter().sum::<f64>(),
            entries as f64,
            "leaf generator entries must cover every ordered pair"
        );
        assert!(
            ordered > unordered,
            "test geometry must have off-diagonal pairs"
        );
    }

    #[test]
    fn unsym_simulation_costs_exceed_symmetric_shape() {
        // Two streams cost more than one on the same structure: drop the
        // column side of a real unsymmetric matrix and the planned work must
        // fall.
        let h2 = unsym();
        let m = DeviceModel::default();
        let full = plan(h2, 48, 2);
        let half = plan(&row_side_only(h2), 48, 2);
        assert!(
            full.compute_total(&m) > half.compute_total(&m),
            "col stream must add compute"
        );
        assert!(
            full.total_comm_bytes() >= half.total_comm_bytes(),
            "col stream cannot reduce traffic"
        );
    }

    #[test]
    fn simulated_speedup_in_compute_bound_regime() {
        // With a compute-bound device model (weak compute, fast links) the
        // level-parallel decomposition must scale.
        let h2 = sym();
        let m = DeviceModel {
            flops_per_sec: 1.0e10,
            link_bandwidth: 1.0e12,
            link_latency: 1.0e-7,
            launch_overhead: 1.0e-7,
            entry_cost: 20.0,
        };
        let t1 = plan(h2, 256, 1).makespan(&m);
        let t2 = plan(h2, 256, 2).makespan(&m);
        let t4 = plan(h2, 256, 4).makespan(&m);
        assert!(t2 < t1, "2 devices must beat 1: {t2} vs {t1}");
        assert!(t4 < t2, "4 devices must beat 2: {t4} vs {t2}");
    }

    #[test]
    fn small_problems_are_comm_bound_on_fast_devices() {
        // The flip side (and the reason the paper's evaluation is
        // single-GPU at these sizes): with A100-class compute, an N=520
        // problem gains nothing from a second device.
        let h2 = sym();
        let m = DeviceModel::default();
        let t1 = plan(h2, 256, 1).makespan(&m);
        let t2 = plan(h2, 256, 2).makespan(&m);
        assert!(
            t2 > 0.9 * t1,
            "tiny problems must not show fake multi-GPU wins"
        );
    }

    #[test]
    fn single_device_no_comm_for_real_problem() {
        let h2 = sym();
        assert_eq!(plan(h2, 256, 1).total_comm_bytes(), 0);
    }

    /// A fabric that runs no job and moves no byte: just enough
    /// `ShardDispatch` for the step's ledger, its reshard version bumped by
    /// hand.
    #[derive(Default)]
    struct LedgerOnly {
        reshard: AtomicU64,
        noted: AtomicUsize,
    }

    impl ShardDispatch for LedgerOnly {
        fn devices(&self) -> usize {
            2
        }
        fn run<'a>(&self, _: Vec<ShardJob<'a>>) {
            unreachable!("the ledger runs no job")
        }
        fn epoch(&self, _: &ScheduleEpoch) {}
        fn wire(&self) -> Precision {
            Precision::F64
        }
        fn mode(&self) -> PipelineMode {
            PipelineMode::Synchronous
        }
        fn issue(&self, _: Transfer) -> u64 {
            unreachable!("the ledger moves no byte")
        }
        unsafe fn enqueue<'a>(&self, _: usize, _: &[u64], _: ShardJob<'a>) -> u64 {
            unreachable!("the ledger runs no job")
        }
        fn flush(&self) {}
        fn chain_begin(&self) {}
        fn chain_end(&self) {}
        fn fault_plan(&self) -> Option<Arc<h2_fault::FaultPlan>> {
            None
        }
        fn fault_occurrence(&self, _: u64) -> u32 {
            0
        }
        fn reshard_version(&self) -> u64 {
            self.reshard.load(Ordering::SeqCst)
        }
        fn note_recovery(&self, _: &str) {
            self.noted.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn clobbered_sealed_level_violates_its_checkpoint() {
        let h2 = sym();
        let fabric = Arc::new(LedgerOnly::default());
        let rt = Runtime::sharded(fabric.clone());
        let mut step = FabricStep::new(&rt, h2, &one_pass(48));
        let mut stats = SketchStats::default();
        let leaf = h2.tree.leaf_level();
        let leaves: Vec<usize> = h2.tree.level(leaf).collect();
        step.close_level(h2, leaf, 0, &leaves, &mut stats);
        assert_eq!(stats.checkpoints, 1);

        // An intact ledger passes a reshard, counted once.
        fabric.reshard.fetch_add(1, Ordering::SeqCst);
        step.open_level(h2, &mut stats);
        step.open_level(h2, &mut stats);
        assert_eq!(
            (stats.recoveries, fabric.noted.load(Ordering::SeqCst)),
            (1, 1)
        );

        // A sealed skeleton width that changed behind the ledger fails it.
        let mut skel = h2.skel.clone();
        let id = *leaves.iter().find(|&&id| !skel[id].is_empty()).unwrap();
        skel[id].pop();
        let clobbered = H2Matrix {
            skel,
            ..H2Matrix::new_shell(h2.tree.clone(), h2.partition.clone(), true)
        };
        fabric.reshard.fetch_add(1, Ordering::SeqCst);
        let open = AssertUnwindSafe(|| step.open_level(&clobbered, &mut stats));
        let payload = std::panic::catch_unwind(open).expect_err("the ledger must catch it");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(
            msg.contains(&format!("construct checkpoint L{leaf} violated")),
            "{msg}"
        );
    }

    #[test]
    fn off_the_fabric_the_step_does_nothing() {
        let h2 = sym();
        let rt = Runtime::sequential();
        let mut step = FabricStep::new(&rt, h2, &one_pass(48));
        let mut stats = SketchStats::default();
        let top = h2.partition.top_far_level(&h2.tree).unwrap();
        let leaf = h2.tree.leaf_level();
        for l in (top..=leaf).rev() {
            let nodes: Vec<usize> = h2.tree.level(l).collect();
            step.open_level(h2, &mut stats);
            step.after_id(l, h2, &nodes, 48);
            assert!(step.tickets(0).is_none());
            step.close_level(h2, l, 0, &nodes, &mut stats);
        }
        step.tail(h2);
        assert_eq!((stats.checkpoints, stats.recoveries), (0, 0));
        assert_eq!(rt.profile().total_launches(), 0);
    }

    #[test]
    fn comm_appears_with_multiple_devices() {
        let h2 = sym();
        assert!(
            plan(h2, 256, 4).total_comm_bytes() > 0,
            "BSR Ω traffic must appear at D=4"
        );
    }
}

//! The sharded construction planned once: [`plan_construct`] lays a pass of
//! Algorithm 1 on `devices` devices out as the [`Schedule`] the device
//! fabric executes and prices.
//!
//! §IV.B of the paper splits each level's batches across devices; only
//! `batchedBSRGemm`'s `Ω_b` fetches and the line-24 child stacking
//! communicate. The sharded kernels of `h2_runtime` record what the plan
//! lists because both read the same rules — owners from
//! [`h2_runtime::owner`] / [`h2_runtime::chunk_bounds`], fetches from
//! [`FetchPlanner`], merges from [`child_gathers`], work from
//! [`h2_runtime::multidev::cost`] — over the level structure the engine
//! itself builds. A construction on the fabric therefore reports, epoch by
//! epoch, the plan's bytes, messages, transfer records, launches, flops and
//! entries, and its measured makespan equals [`Schedule::makespan`].

use crate::construct::{input_basis, level_structure, side_skel, Side};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    child_gathers, owner, FetchPlanner, PipelineMode, Precision, Schedule, ScheduleEpoch,
};

/// [`ScheduleEpoch::kernel`] of every construction epoch.
const CONSTRUCT: &str = "construct";

/// The sharded construction that produced `h2` as a [`Schedule`]: one pass
/// of Algorithm 1 at sample width `d` whose convergence test passes without
/// an extra sampling round, so every kernel population follows from the
/// finished matrix (cluster sizes, skeletons, bases and the partition).
///
/// One epoch per processed level, labelled `construct L{l}`, leaf first —
/// the epochs the engine closes. Each carries, per device, the executor's
/// flops (BSR subtraction, convergence QR, row ID, upsweep GEMM), its
/// `batchedGen` entries (round-robin within each generator call: the near
/// field in the leaf epoch, each level's coupling blocks in its own) and its
/// launches (every batched kernel launches once on each device with a
/// non-empty chunk, the BSR product once per slot). Transfers are listed in
/// the order the executor issues them: per stream (row, then column when
/// unsymmetric) the level's `Ω_b` fetches, then the line-24 gathers of the
/// stacked samples and of the stacked inputs. On a pipelined fabric the engine
/// issues an inner level's fetches during the level below, once its IDs fix
/// the block sizes, so they are accounted to the previous epoch and gate
/// their own.
///
/// Not planned: workspace (`arena`, the executor's double-banked
/// bookkeeping, which no makespan term reads). A run with
/// `SketchConfig::adaptive` off skips the convergence QR — its transfers are
/// still exactly the plan's, its flops and launches fall short by that
/// kernel — and a run that drew extra samples executes kernels one pass
/// does not describe. An all-dense partition processes no level: the plan
/// is empty.
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
/// let (h2, _) = sketch_construct(&km, &km, tree, part, &Runtime::sequential(), &cfg);
///
/// let plan = plan_construct(&h2, 48, 1, PipelineMode::Synchronous, Precision::F64);
/// assert_eq!(plan.total_comm_bytes(), 0); // one device never communicates
/// assert!(plan.makespan(&DeviceModel::default()) > 0.0);
/// ```
pub fn plan_construct(
    h2: &H2Matrix,
    d: usize,
    devices: usize,
    mode: PipelineMode,
    wire: Precision,
) -> Schedule {
    let tree = &h2.tree;
    let partition = &h2.partition;
    let symmetric = h2.is_symmetric();
    let pipelined = mode == PipelineMode::Pipelined;
    let leaf_level = tree.leaf_level();
    let sides: &[Side] = if symmetric {
        &[Side::Row]
    } else {
        &[Side::Row, Side::Col]
    };
    // Symmetric stores hold one block per unordered pair.
    let stored = |s: usize, t: usize| !symmetric || s <= t;
    let top = partition.top_far_level(tree).unwrap_or(leaf_level + 1);
    let mut epochs: Vec<ScheduleEpoch> = Vec::new();

    for l in (top..=leaf_level).rev() {
        let at = epochs.len();
        let is_leaf = l == leaf_level;
        let node_ids: Vec<usize> = tree.level(l).collect();
        let n = node_ids.len();
        let structure = level_structure(tree, partition, &node_ids, is_leaf);
        let pattern = &structure.pattern;
        let mut e = ScheduleEpoch::blank(CONSTRUCT, format!("construct L{l}"), devices);

        if is_leaf {
            // Dense near field (line 8), then per stream the initial
            // sampling: `batchedRand` over the d columns and the two leaf
            // gathers of samples and inputs.
            let near = node_ids.iter().flat_map(|&s| {
                partition.near_of[s]
                    .iter()
                    .filter(move |&&t| stored(s, t))
                    .map(move |&t| (tree.nodes[s].len(), tree.nodes[t].len()))
            });
            charge_gen(&mut e, near);
            for _ in sides {
                e.launch(d);
                e.launch(n);
                e.launch(n);
            }
        }

        // BSR subtraction (lines 9 / 26) and line-24 stacking, per stream.
        // The BSR population is the leaves, or this level's children, whose
        // samples were shrunk to the stream's own skeletons and whose inputs
        // were compressed by the opposite side's basis.
        let bsr_ids: Vec<usize> = if is_leaf {
            node_ids.clone()
        } else {
            tree.level(l + 1).collect()
        };
        let nr = bsr_ids.len();
        let mut id_rows: Vec<Vec<usize>> = Vec::with_capacity(sides.len());
        for &side in sides {
            let (y_rows, x_rows): (Vec<usize>, Vec<usize>) = if is_leaf {
                let sizes: Vec<usize> = bsr_ids.iter().map(|&id| tree.nodes[id].len()).collect();
                (sizes.clone(), sizes)
            } else {
                let (skel, basis) = (side_skel(h2, side), input_basis(h2, side));
                bsr_ids
                    .iter()
                    .map(|&id| (skel[id].len(), basis[id].cols()))
                    .unzip()
            };
            let mut planner = FetchPlanner::new(nr, nr, devices, wire);
            for (r, &rows) in y_rows.iter().enumerate() {
                let (b0, b1) = pattern.row_range(r);
                for p in b0..b1 {
                    let c = pattern.col_of(p);
                    e.flops[owner(r, nr, devices)] += cost::bsr_flops(rows, x_rows[c], d);
                    planner.visit(r, c, x_rows[c], d);
                }
            }
            let fetches = planner.into_plan().into_iter().map(|t| (t, at));
            if pipelined && !is_leaf {
                epochs[at - 1].transfers.extend(fetches);
            } else {
                e.transfers.extend(fetches);
            }
            for _ in 0..pattern.csp() {
                e.launch(nr);
            }
            if is_leaf {
                id_rows.push(y_rows);
                continue;
            }
            let children = &structure.children_local;
            for rows in [&y_rows, &x_rows] {
                let gathers = child_gathers(children, rows, d, devices, wire);
                e.transfers.extend(gathers.into_iter().map(|t| (t, at)));
                e.launch(n);
            }
            id_rows.push(
                children
                    .iter()
                    .map(|cs| cs.iter().map(|&c| y_rows[c]).sum())
                    .collect(),
            );
        }

        // Convergence QR (lines 11 / 29), then the batched row ID (lines
        // 16 / 34), over every stream's stacked samples.
        for flops in [cost::qr_flops, cost::id_flops] {
            for rows in &id_rows {
                for (j, &m) in rows.iter().enumerate() {
                    e.flops[owner(j, n, devices)] += flops(m, d);
                }
                e.launch(n);
            }
        }

        // Coupling blocks B_{s,t} = K(Ĩ^r_s, Ĩ^c_t) (line 41).
        let col_skel = h2.col_skel();
        let coupling = node_ids.iter().flat_map(|&s| {
            partition.far_of[s]
                .iter()
                .filter(move |&&t| stored(s, t))
                .map(move |&t| (h2.skel[s].len(), col_skel[t].len()))
        });
        charge_gen(&mut e, coupling);

        // Upsweep below the top (lines 17-18 / 35-36): shrink the samples,
        // compress the inputs by the opposite side's basis.
        if l > top {
            for &side in sides {
                e.launch(n);
                let basis = input_basis(h2, side);
                for (j, &id) in node_ids.iter().enumerate() {
                    let a = &basis[id];
                    e.flops[owner(j, n, devices)] += cost::upsweep_flops(a.rows(), a.cols(), d);
                }
                e.launch(n);
            }
        }
        epochs.push(e);
    }

    Schedule {
        devices,
        mode,
        wire,
        epochs,
    }
}

/// One `batchedGen` call over blocks of the given shapes: entries
/// round-robin over the devices in block order, one launch on every device
/// that receives a block.
fn charge_gen(e: &mut ScheduleEpoch, blocks: impl Iterator<Item = (usize, usize)>) {
    let devices = e.entries.len();
    let mut count = 0;
    for (i, (r, c)) in blocks.enumerate() {
        e.entries[i % devices] += cost::gen_entries(r, c);
        count = i + 1;
    }
    for launches in e.launches.iter_mut().take(count) {
        *launches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sketch_construct, SketchConfig};
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_runtime::{DeviceModel, Runtime, TransferKind};
    use h2_tree::{Admissibility, ClusterTree, Partition};
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
    // under test are pure functions of the finished matrix.
    fn sym_2000() -> &'static H2Matrix {
        static H2: OnceLock<H2Matrix> = OnceLock::new();
        H2.get_or_init(|| built(2000, 601))
    }

    fn sym_4000() -> &'static H2Matrix {
        static H2: OnceLock<H2Matrix> = OnceLock::new();
        H2.get_or_init(|| built(4000, 605))
    }

    fn unsym_2000() -> &'static H2Matrix {
        static H2: OnceLock<H2Matrix> = OnceLock::new();
        H2.get_or_init(|| built_unsym(2000, 610))
    }

    /// The row stream of `h2` alone: everything `plan_construct` reads,
    /// with the column side dropped.
    fn row_side_only(h2: &H2Matrix) -> H2Matrix {
        H2Matrix {
            basis: h2.basis.clone(),
            skel: h2.skel.clone(),
            basis_prec: h2.basis_prec.clone(),
            ..H2Matrix::new_shell(h2.tree.clone(), h2.partition.clone())
        }
    }

    fn plan(h2: &H2Matrix, d: usize, devices: usize) -> Schedule {
        plan_construct(h2, d, devices, PipelineMode::Synchronous, Precision::F64)
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
        let h2 = sym_2000();
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
        let h2 = sym_2000();
        for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
            let p = plan_construct(h2, 48, 3, mode, Precision::F64);
            for (i, e) in p.epochs.iter().enumerate() {
                for &(t, gates) in &e.transfers {
                    assert!(t.src < 3 && t.dst < 3 && t.src != t.dst, "{t:?}");
                    assert!(gates == i || gates == i + 1, "epoch {i} gates {gates}");
                    assert!(gates < p.epochs.len());
                }
            }
        }
    }

    #[test]
    fn id_rows_match_stacked_child_ranks() {
        // Symmetric: a straddling child moves its samples and its inputs,
        // both `rank × d` blocks, so each epoch's gathers come as two equal
        // halves sized by the children's ranks.
        let h2 = sym_2000();
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
        let h2 = built(40, 604);
        assert!(plan(&h2, 48, 2).epochs.is_empty());
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
            ..Default::default()
        };
        crate::sketch_construct_unsym(&km, &km, tree, part, &rt, &cfg).0
    }

    #[test]
    fn symmetric_specs_have_no_col_stream() {
        let h2 = sym_2000();
        let p = plan(h2, 48, 1);
        assert_eq!(p.epochs[0].launches[0], one_device_leaf_launches(h2, 1));
    }

    #[test]
    fn unsym_specs_carry_col_stream_populations() {
        let h2 = unsym_2000();
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
        let h2 = unsym_2000();
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
        let h2 = unsym_2000();
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
        let h2 = sym_4000();
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
        // single-GPU at these sizes): with A100-class compute, an N=4000
        // problem gains nothing from a second device.
        let h2 = sym_4000();
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
        let h2 = sym_2000();
        assert_eq!(plan(h2, 256, 1).total_comm_bytes(), 0);
    }

    #[test]
    fn comm_appears_with_multiple_devices() {
        let h2 = sym_2000();
        assert!(
            plan(h2, 256, 4).total_comm_bytes() > 0,
            "BSR Ω traffic must appear at D=4"
        );
    }
}

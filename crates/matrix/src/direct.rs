//! Direct (entry-evaluation) H2 construction via proxy-column row IDs.
//!
//! The paper's experiments feed Algorithm 1 with a *fast black-box sampler*;
//! for the covariance/IE kernels they use the H2 matvec of a matrix already
//! constructed by H2Opus's entry-based constructor. This module is our
//! equivalent substrate: a bottom-up skeletonization where each cluster's
//! row basis is computed from an ID of `K(I_τ, proxy)` with proxy columns
//! drawn from the cluster's far field (the ASKIT/H2Pack-style construction).
//! It requires only the [`EntryAccess`] input — no sketching operator — and
//! bootstraps the reference operators used in benchmarks; it also serves as
//! an independent cross-check of the sketching constructor in tests.

use crate::format::H2Matrix;
use h2_dense::cpqr::{row_id, Truncation};
use h2_dense::{EntryAccess, Mat};
use h2_tree::{ClusterTree, Partition};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::sync::Arc;

/// Configuration of the direct constructor.
#[derive(Clone, Copy, Debug)]
pub struct DirectConfig {
    /// Per-block relative ID tolerance.
    pub tol: f64,
    /// Number of proxy columns sampled from the far field per node.
    pub n_proxy: usize,
    /// Hard cap on per-node rank.
    pub max_rank: usize,
    /// RNG seed for proxy selection.
    pub seed: u64,
}

impl Default for DirectConfig {
    fn default() -> Self {
        DirectConfig {
            tol: 1e-9,
            n_proxy: 160,
            max_rank: 256,
            seed: 0x5EED,
        }
    }
}

/// Construct an H2 matrix from entry evaluations only.
pub fn direct_construct(
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    cfg: &DirectConfig,
) -> H2Matrix {
    let mut h2 = H2Matrix::new_shell(tree.clone(), partition.clone(), true);
    let leaf_level = tree.leaf_level();
    let top = partition.top_far_level(&tree).unwrap_or(leaf_level);

    // Bottom-up skeletonization, level by level.
    for l in (top..=leaf_level).rev() {
        let ids: Vec<usize> = tree.level(l).collect();
        let results: Vec<(usize, Mat, Vec<usize>)> = ids
            .par_iter()
            .map(|&id| {
                // Candidate rows: all leaf indices (at the leaf level) or the
                // children's skeletons (inner levels — nested basis).
                let rows: Vec<usize> = if l == leaf_level {
                    let (b, e) = tree.range(id);
                    (b..e).collect()
                } else {
                    let (c1, c2) = tree.nodes[id].children.unwrap();
                    h2.skel[c1]
                        .iter()
                        .chain(h2.skel[c2].iter())
                        .copied()
                        .collect()
                };
                let far = partition.far_field_ranges(&tree, id);
                let far_total: usize = far.iter().map(|&(b, e)| e - b).sum();
                if far_total == 0 || rows.is_empty() {
                    // No admissible interaction anywhere above: empty basis.
                    return (id, Mat::zeros(rows.len(), 0), Vec::new());
                }
                let mut rng = SmallRng::seed_from_u64(
                    cfg.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                let proxies = sample_from_ranges(&far, cfg.n_proxy.min(far_total), &mut rng);
                let sample = gen.block_mat(&rows, &proxies);
                let mut id_res = row_id(&sample, Truncation::Relative(cfg.tol));
                if id_res.rank() > cfg.max_rank {
                    id_res = row_id(&sample, Truncation::Rank(cfg.max_rank));
                }
                let skel: Vec<usize> = id_res.skel.iter().map(|&r| rows[r]).collect();
                (id, id_res.u, skel)
            })
            .collect();
        for (id, u, skel) in results {
            h2.basis[id] = u;
            h2.skel[id] = skel;
        }
    }

    fill_blocks(gen, &tree, &partition, &mut h2);
    h2
}

/// Evaluate all coupling and dense blocks of a skeletonized shell
/// (shared with tests that build bases another way).
pub fn fill_blocks(
    gen: &dyn EntryAccess,
    tree: &ClusterTree,
    partition: &Partition,
    h2: &mut H2Matrix,
) {
    // Coupling blocks at the skeleton indices, one per unordered pair.
    let mut far_pairs: Vec<(usize, usize)> = Vec::new();
    for (s, list) in partition.far_of.iter().enumerate() {
        for &t in list.iter().filter(|&&t| s <= t) {
            far_pairs.push((s, t));
        }
    }
    let far_blocks: Vec<Mat> = far_pairs
        .par_iter()
        .map(|&(s, t)| gen.block_mat(&h2.skel[s], &h2.skel[t]))
        .collect();
    for ((s, t), b) in far_pairs.into_iter().zip(far_blocks) {
        h2.coupling.insert(s, t, b);
    }

    // Dense leaf blocks.
    let mut near_pairs: Vec<(usize, usize)> = Vec::new();
    for (s, list) in partition.near_of.iter().enumerate() {
        for &t in list.iter().filter(|&&t| s <= t) {
            near_pairs.push((s, t));
        }
    }
    let near_blocks: Vec<Mat> = near_pairs
        .par_iter()
        .map(|&(s, t)| {
            let (sb, se) = tree.range(s);
            let (tb, te) = tree.range(t);
            let rows: Vec<usize> = (sb..se).collect();
            let cols: Vec<usize> = (tb..te).collect();
            gen.block_mat(&rows, &cols)
        })
        .collect();
    for ((s, t), b) in near_pairs.into_iter().zip(near_blocks) {
        h2.dense.insert(s, t, b);
    }
}

/// Sample `k` distinct indices (sorted) from a union of disjoint intervals.
fn sample_from_ranges(ranges: &[(usize, usize)], k: usize, rng: &mut SmallRng) -> Vec<usize> {
    let total: usize = ranges.iter().map(|&(b, e)| e - b).sum();
    if k >= total {
        let mut all = Vec::with_capacity(total);
        for &(b, e) in ranges {
            all.extend(b..e);
        }
        return all;
    }
    // Draw with replacement into a set until k distinct samples.
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        let mut r = rng.random_range(0..total);
        for &(b, e) in ranges {
            let w = e - b;
            if r < w {
                picked.insert(b + r);
                break;
            }
            r -= w;
        }
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_from_ranges_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ranges = [(0usize, 5usize), (10, 12), (20, 30)];
        let s = sample_from_ranges(&ranges, 8, &mut rng);
        assert_eq!(s.len(), 8);
        for &i in &s {
            assert!(
                ranges.iter().any(|&(b, e)| i >= b && i < e),
                "index {i} outside ranges"
            );
        }
        // sorted + distinct
        for w in s.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn sample_all_when_k_exceeds_total() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = sample_from_ranges(&[(3, 6), (8, 9)], 100, &mut rng);
        assert_eq!(s, vec![3, 4, 5, 8]);
    }
}

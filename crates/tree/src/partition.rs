//! Admissibility and the dual-tree block partition (matrix tree).
//!
//! A dual traversal of the cluster tree with the paper's general
//! admissibility condition (eq. (1)),
//! `adm(s,t) = 1  iff  (D(s) + D(t)) / 2 <= η · Dist(s,t)`,
//! produces the matrix tree of Fig. 2: admissible leaves (coupling blocks
//! `B_{s,t}`) at every level and inadmissible leaves (dense blocks
//! `D_{s,t}`) at the leaf level. The per-row block counts are bounded by the
//! sparsity constant `Csp`, which also bounds the number of `batchedBSRGemm`
//! launches (§IV.A).

use crate::cluster::ClusterTree;
use crate::geometry::BBox;

/// Block admissibility rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Admissibility {
    /// General (strong-capable) admissibility with parameter `η`
    /// (paper eq. (1)): η ≤ 0.5 is "strong", η ≥ 1 behaves weakly.
    Strong { eta: f64 },
    /// Weak admissibility: any pair of distinct same-level clusters is
    /// admissible (the HODLR/HSS pattern; used for the Fig. 6(b) baselines).
    Weak,
}

impl Admissibility {
    /// Evaluate the rule for a cluster pair. The diagonal pair is never
    /// admissible (it contains the self-interaction; for degenerate
    /// zero-diameter geometry the inequality `0 ≤ η·0` would otherwise
    /// admit it).
    pub fn admissible(&self, s: usize, t: usize, bs: &BBox, bt: &BBox) -> bool {
        if s == t {
            return false;
        }
        match *self {
            Admissibility::Strong { eta } => {
                let d = 0.5 * (bs.diameter() + bt.diameter());
                let dist = bs.distance(bt);
                // Strictly positive separation required: coincident
                // zero-diameter clusters (degenerate point clouds) must stay
                // in the near field where entries are evaluated exactly.
                dist > 0.0 && d <= eta * dist
            }
            Admissibility::Weak => true,
        }
    }
}

/// The block partition produced by the dual-tree traversal.
pub struct Partition {
    /// Rule used to build the partition.
    pub rule: Admissibility,
    /// `far_of[τ]` = F_τ: node ids forming admissible (coupling) blocks with
    /// node `τ`, at `τ`'s level. Indexed by global node id.
    pub far_of: Vec<Vec<usize>>,
    /// `near_of[τ]` = N_τ: leaf node ids forming inadmissible (dense) blocks
    /// with leaf `τ` (includes `τ` itself). Empty for non-leaf nodes.
    pub near_of: Vec<Vec<usize>>,
    /// `inadm_of[τ]`: same-level node ids whose pair with `τ` was tested
    /// inadmissible during the traversal (refined further, or dense at the
    /// leaf level). The complement of their index ranges is `τ`'s far field —
    /// used for proxy-column selection in the direct constructor.
    pub inadm_of: Vec<Vec<usize>>,
    /// Number of tree levels (copied from the cluster tree).
    pub nlevels: usize,
}

impl Partition {
    /// Dual-tree traversal from the root pair.
    pub fn build(tree: &ClusterTree, rule: Admissibility) -> Self {
        let nnodes = tree.nodes.len();
        let mut far_of = vec![Vec::new(); nnodes];
        let mut near_of = vec![Vec::new(); nnodes];
        let mut inadm_of = vec![Vec::new(); nnodes];
        let leaf_level = tree.leaf_level();

        // Explicit stack to avoid deep recursion.
        let mut stack = vec![(0usize, 0usize)];
        while let Some((s, t)) = stack.pop() {
            let bs = &tree.nodes[s].bbox;
            let bt = &tree.nodes[t].bbox;
            if rule.admissible(s, t, bs, bt) {
                far_of[s].push(t);
            } else {
                inadm_of[s].push(t);
                if tree.level_of(s) == leaf_level {
                    near_of[s].push(t);
                } else {
                    let (s1, s2) = tree.nodes[s].children.expect("non-leaf must have children");
                    let (t1, t2) = tree.nodes[t].children.expect("non-leaf must have children");
                    for sc in [s1, s2] {
                        for tc in [t1, t2] {
                            stack.push((sc, tc));
                        }
                    }
                }
            }
        }
        for l in &mut far_of {
            l.sort_unstable();
        }
        for l in &mut near_of {
            l.sort_unstable();
        }
        for l in &mut inadm_of {
            l.sort_unstable();
        }
        Partition {
            rule,
            far_of,
            near_of,
            inadm_of,
            nlevels: tree.nlevels(),
        }
    }

    /// Sparsity constant of level `l`: the maximum number of admissible
    /// blocks in a block row of that level.
    pub fn csp_far(&self, tree: &ClusterTree, l: usize) -> usize {
        tree.level(l)
            .map(|id| self.far_of[id].len())
            .max()
            .unwrap_or(0)
    }

    /// Sparsity constant of the leaf-level dense (inadmissible) part.
    pub fn csp_near(&self, tree: &ClusterTree) -> usize {
        tree.level(tree.leaf_level())
            .map(|id| self.near_of[id].len())
            .max()
            .unwrap_or(0)
    }

    /// Total number of admissible (coupling) blocks at level `l`.
    pub fn far_count(&self, tree: &ClusterTree, l: usize) -> usize {
        tree.level(l).map(|id| self.far_of[id].len()).sum()
    }

    /// Total number of dense leaf blocks.
    pub fn near_count(&self, tree: &ClusterTree) -> usize {
        tree.level(tree.leaf_level())
            .map(|id| self.near_of[id].len())
            .sum()
    }

    /// Highest (smallest-index) level that owns admissible blocks; levels
    /// above it need no skeletonization. Returns `None` when the partition
    /// is entirely dense (tiny problems).
    pub fn top_far_level(&self, tree: &ClusterTree) -> Option<usize> {
        (0..tree.nlevels()).find(|&l| self.far_count(tree, l) > 0)
    }

    /// Whether the union of dense and admissible blocks tiles the `N x N`
    /// index space exactly once (partition completeness).
    pub fn is_complete(&self, tree: &ClusterTree) -> bool {
        let n = tree.npoints();
        let mut covered = 0usize;
        for (s, list) in self.far_of.iter().enumerate() {
            let ls = tree.nodes[s].len();
            for &t in list {
                covered += ls * tree.nodes[t].len();
            }
        }
        for (s, list) in self.near_of.iter().enumerate() {
            let ls = tree.nodes[s].len();
            for &t in list {
                covered += ls * tree.nodes[t].len();
            }
        }
        covered == n * n
    }

    /// Whether every block list is symmetric (`t ∈ F_s ⇔ s ∈ F_t`), which
    /// the symmetric-matrix construction relies on.
    pub fn is_symmetric(&self) -> bool {
        for (s, list) in self.far_of.iter().enumerate() {
            for &t in list {
                if self.far_of[t].binary_search(&s).is_err() {
                    return false;
                }
            }
        }
        for (s, list) in self.near_of.iter().enumerate() {
            for &t in list {
                if self.near_of[t].binary_search(&s).is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Structural checks of the block lists against `tree`: one list per
    /// node, every partner a node of the same level (`near_of` at the leaf
    /// level only), every list **strictly ascending**, and both relations
    /// symmetric (`t ∈ near_of[s] ⇔ s ∈ near_of[t]`, likewise `far_of`).
    ///
    /// [`Partition::build`] guarantees all of it; a partition read from
    /// outside must be checked. The sorted, symmetric lists are what the
    /// one-pass H2 product (`h2_matrix::matvec`) rests its accumulation
    /// order on, and what lets a symmetric block store keep one block per
    /// unordered pair.
    pub fn validate(&self, tree: &ClusterTree) -> Result<(), String> {
        let nnodes = tree.nodes.len();
        if self.nlevels != tree.nlevels() {
            return Err(format!(
                "partition has {} levels, tree has {}",
                self.nlevels,
                tree.nlevels()
            ));
        }
        let leaf_level = tree.leaf_level();
        for (name, lists) in [("far_of", &self.far_of), ("near_of", &self.near_of)] {
            if lists.len() != nnodes {
                return Err(format!("{name}: {} lists, {nnodes} nodes", lists.len()));
            }
            for (s, list) in lists.iter().enumerate() {
                let level = tree.level_of(s);
                if name == "near_of" && level != leaf_level && !list.is_empty() {
                    return Err(format!("near_of[{s}]: dense blocks above the leaf level"));
                }
                if !list.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("{name}[{s}] is not strictly ascending"));
                }
                for &t in list {
                    if t >= nnodes || tree.level_of(t) != level {
                        return Err(format!(
                            "{name}[{s}]: partner {t} is not a node of its level"
                        ));
                    }
                    if lists[t].binary_search(&s).is_err() {
                        return Err(format!("{name}: {t} in list {s} but {s} not in list {t}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The far field of node `τ` as a set of disjoint index intervals: the
    /// complement of the ranges of `τ`'s same-level inadmissible partners.
    /// These are exactly the columns covered by admissible blocks of `τ` or
    /// of its ancestors (proxy-sampling domain for the direct constructor).
    pub fn far_field_ranges(&self, tree: &ClusterTree, node: usize) -> Vec<(usize, usize)> {
        let n = tree.npoints();
        let mut blocked: Vec<(usize, usize)> =
            self.inadm_of[node].iter().map(|&t| tree.range(t)).collect();
        blocked.sort_unstable();
        let mut out = Vec::new();
        let mut cursor = 0usize;
        for (b, e) in blocked {
            if b > cursor {
                out.push((cursor, b));
            }
            cursor = cursor.max(e);
        }
        if cursor < n {
            out.push((cursor, n));
        }
        out
    }

    /// Per-level partition statistics (the data behind Fig. 4).
    pub fn level_stats(&self, tree: &ClusterTree) -> Vec<LevelStats> {
        (0..tree.nlevels())
            .map(|l| {
                let nodes = tree.level_len(l);
                let far = self.far_count(tree, l);
                let csp = self.csp_far(tree, l);
                let (near, csp_near) = if l == tree.leaf_level() {
                    (self.near_count(tree), self.csp_near(tree))
                } else {
                    (0, 0)
                };
                LevelStats {
                    level: l,
                    nodes,
                    far_blocks: far,
                    csp_far: csp,
                    near_blocks: near,
                    csp_near,
                }
            })
            .collect()
    }
}

/// Per-level block statistics (Fig. 4 reproduction data).
#[derive(Clone, Debug)]
pub struct LevelStats {
    pub level: usize,
    pub nodes: usize,
    pub far_blocks: usize,
    pub csp_far: usize,
    pub near_blocks: usize,
    pub csp_near: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::uniform_cube;

    fn tree(n: usize, leaf: usize, seed: u64) -> ClusterTree {
        ClusterTree::build(&uniform_cube(n, seed), leaf)
    }

    #[test]
    fn partition_is_complete_and_symmetric_strong() {
        for eta in [0.5, 0.7, 1.0] {
            let t = tree(500, 16, 11);
            let p = Partition::build(&t, Admissibility::Strong { eta });
            assert!(p.is_complete(&t), "eta={eta}");
            assert!(p.is_symmetric(), "eta={eta}");
        }
    }

    #[test]
    fn partition_is_complete_weak() {
        let t = tree(300, 8, 12);
        let p = Partition::build(&t, Admissibility::Weak);
        assert!(p.is_complete(&t));
        assert!(p.is_symmetric());
        // Weak admissibility: every level-1+ node has exactly its sibling.
        for l in 1..t.nlevels() {
            for id in t.level(l) {
                assert_eq!(p.far_of[id].len(), 1, "HODLR pattern: one block per row");
            }
        }
        // Dense leaves: only the diagonal.
        for id in t.level(t.leaf_level()) {
            assert_eq!(p.near_of[id], vec![id]);
        }
    }

    #[test]
    fn diagonal_is_never_admissible() {
        let t = tree(400, 16, 13);
        let p = Partition::build(&t, Admissibility::Strong { eta: 0.7 });
        for (s, list) in p.far_of.iter().enumerate() {
            assert!(!list.contains(&s));
        }
        // Every leaf keeps itself in its near list.
        for id in t.level(t.leaf_level()) {
            assert!(p.near_of[id].contains(&id));
        }
    }

    #[test]
    fn smaller_eta_refines_partition() {
        // Paper §II.A / Fig. 4: smaller η ⇒ more refined partitioning of the
        // off-diagonal blocks ⇒ larger sparsity constants and near field.
        let t = tree(4000, 32, 14);
        let p_small = Partition::build(&t, Admissibility::Strong { eta: 0.5 });
        let p_large = Partition::build(&t, Admissibility::Strong { eta: 1.0 });
        assert!(
            p_small.near_count(&t) > p_large.near_count(&t),
            "smaller eta must enlarge the near field ({} vs {})",
            p_small.near_count(&t),
            p_large.near_count(&t)
        );
        assert!(p_small.csp_near(&t) >= p_large.csp_near(&t));
        let blocks = |p: &Partition| {
            p.near_count(&t) + (0..t.nlevels()).map(|l| p.far_count(&t, l)).sum::<usize>()
        };
        assert!(
            blocks(&p_small) > blocks(&p_large),
            "refinement adds blocks in total"
        );
    }

    #[test]
    fn csp_growth_saturates_with_n() {
        // Csp is pre-asymptotically large in 3D (η=0.7 saturates near
        // (2*ceil(sqrt(3)/0.7)+1)^3 ≈ 343) but must grow much slower than N:
        // that is the H2 linear-memory argument. 4x the points should cost
        // well under 4x the sparsity constant.
        let csp_at = |n: usize| {
            let t = tree(n, 64, 15);
            let p = Partition::build(&t, Admissibility::Strong { eta: 0.7 });
            (0..t.nlevels())
                .map(|l| p.csp_far(&t, l))
                .chain([p.csp_near(&t)])
                .max()
                .unwrap()
        };
        let c1 = csp_at(8000);
        let c2 = csp_at(32000);
        assert!(c2 <= 3 * c1, "Csp {c1} -> {c2} grew superlinearly");
        assert!(c2 <= 400, "Csp {c2} beyond the geometric saturation bound");
    }

    #[test]
    fn tiny_problem_all_dense() {
        let t = tree(10, 16, 16);
        let p = Partition::build(&t, Admissibility::Strong { eta: 0.5 });
        assert_eq!(p.near_of[0], vec![0]);
        assert!(p.top_far_level(&t).is_none());
        assert!(p.is_complete(&t));
    }

    #[test]
    fn far_field_complements_inadmissible_region() {
        let t = tree(800, 16, 18);
        let p = Partition::build(&t, Admissibility::Strong { eta: 0.7 });
        for l in 0..t.nlevels() {
            for id in t.level(l) {
                let far = p.far_field_ranges(&t, id);
                let far_len: usize = far.iter().map(|&(b, e)| e - b).sum();
                let inadm_len: usize = p.inadm_of[id].iter().map(|&b| t.nodes[b].len()).sum();
                assert_eq!(far_len + inadm_len, 800, "node {id}");
                // far field must exactly equal the union of F ranges of self
                // and ancestors
                let mut anc_far_len = 0;
                let mut a = Some(id);
                while let Some(x) = a {
                    anc_far_len += p.far_of[x].iter().map(|&b| t.nodes[b].len()).sum::<usize>();
                    a = t.nodes[x].parent;
                }
                assert_eq!(far_len, anc_far_len, "node {id}");
            }
        }
    }

    #[test]
    fn validate_pins_sorted_symmetric_lists() {
        let t = tree(700, 16, 19);
        for rule in [Admissibility::Strong { eta: 0.7 }, Admissibility::Weak] {
            let p = Partition::build(&t, rule);
            p.validate(&t).unwrap();
            for list in p.near_of.iter().chain(&p.far_of) {
                assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
        let good = || Partition::build(&t, Admissibility::Strong { eta: 0.7 });
        let leaf = t.level(t.leaf_level()).start;
        // Unsorted list.
        let mut p = good();
        assert!(p.near_of[leaf].len() >= 2);
        p.near_of[leaf].reverse();
        assert!(p.validate(&t).unwrap_err().contains("ascending"));
        // Duplicate partner (ascending, not strictly).
        let mut p = good();
        let dup = p.near_of[leaf][0];
        p.near_of[leaf].insert(0, dup);
        assert!(p.validate(&t).unwrap_err().contains("ascending"));
        // One-sided pair.
        let mut p = good();
        let s = (0..t.nodes.len())
            .find(|&s| !p.far_of[s].is_empty())
            .unwrap();
        p.far_of[s].pop();
        assert!(p.validate(&t).unwrap_err().contains("not in list"));
        // Partner off the level / out of range.
        let mut p = good();
        p.far_of[s].push(t.nodes.len());
        assert!(p.validate(&t).unwrap_err().contains("not a node"));
        let mut p = good();
        p.near_of[0].push(0);
        assert!(p.validate(&t).unwrap_err().contains("above the leaf level"));
    }

    #[test]
    fn level_stats_consistent() {
        let t = tree(600, 16, 17);
        let p = Partition::build(&t, Admissibility::Strong { eta: 0.7 });
        let stats = p.level_stats(&t);
        assert_eq!(stats.len(), t.nlevels());
        for s in &stats {
            assert_eq!(s.nodes, t.level_len(s.level));
            assert!(s.csp_far <= s.far_blocks.max(1));
        }
    }
}

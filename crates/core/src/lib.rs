//! # h2-core
//!
//! The paper's primary contribution: **linear-complexity bottom-up
//! sketching-based construction of strongly-admissible H2 matrices with
//! adaptive sampling** (Algorithm 1), executed entirely as batched kernels
//! on the [`h2_runtime`] device model.
//!
//! The construction is a single **stream-generic engine**
//! ([`construct`]): a sketch stream pairs a basis side with its sample
//! batches, and the level-by-level loop drives one stream (`Y = K Ω`,
//! symmetric `V = U`) or two (`Y = K Ω` and `Z = Kᵀ Ψ`, independent row
//! and column bases) through the same subtraction, convergence-test,
//! `updateSamples`, row-ID and upsweep kernels. [`sketch_construct`] is
//! its one entry point, and [`SketchConfig::symmetric`] picks the number
//! of streams; the symmetric instance reproduces the pre-unification
//! kernel sequence bitwise.
//!
//! The construction consumes the two black-box inputs of the paper — a
//! sketching operator `Y = Kblk(Ω)` ([`h2_dense::LinOp`], with
//! `apply_transpose` feeding the column stream) and an entry evaluator
//! ([`h2_dense::EntryAccess`]) — plus a cluster tree and block partition
//! from [`h2_tree`], and produces an [`h2_matrix::H2Matrix`] (column side
//! stored iff unsymmetric) together with [`SketchStats`] (sample counts,
//! adaptation rounds, phase timings and kernel-launch counts).

pub mod config;
pub mod construct;
pub mod multidev;
pub mod threshold;

pub use config::{SketchConfig, SketchStats};
pub use construct::{sketch_construct, Side};
pub use multidev::plan_construct;

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{relative_error_2, DenseOp, EntryAccess, Mat};
    use h2_kernels::{ExponentialKernel, HelmholtzKernel, KernelMatrix};
    use h2_matrix::LowRankUpdate;
    use h2_runtime::{Backend, Kernel, Runtime};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    fn cov_problem(
        n: usize,
        leaf: usize,
        eta: f64,
        seed: u64,
    ) -> (
        Arc<ClusterTree>,
        Arc<Partition>,
        KernelMatrix<ExponentialKernel>,
    ) {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, leaf));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta }));
        // Guard against trivially-dense partitions: every test below is
        // meant to exercise the actual sketching path.
        assert!(
            part.top_far_level(&tree).is_some(),
            "test problem too small for eta={eta}: no admissible blocks"
        );
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        (tree, part, km)
    }

    /// Both regimes take the one input check: the sampler must be square,
    /// of the tree's size.
    fn construct_rectangular(symmetric: bool) {
        let (tree, part, km) = cov_problem(300, 16, 0.7, 140);
        let wide = DenseOp::new(Mat::zeros(tree.npoints(), tree.npoints() + 1));
        let cfg = SketchConfig {
            symmetric,
            ..Default::default()
        };
        let _ = sketch_construct(&wide, &km, tree, part, &Runtime::sequential(), &cfg);
    }

    #[test]
    #[should_panic(expected = "only square matrices are supported")]
    fn rectangular_sampler_is_rejected_symmetric() {
        construct_rectangular(true);
    }

    #[test]
    #[should_panic(expected = "only square matrices are supported")]
    fn rectangular_sampler_is_rejected_unsymmetric() {
        construct_rectangular(false);
    }

    /// Full pipeline against a dense reference: error must respect the
    /// tolerance (up to a safety factor for the ID error propagation).
    #[test]
    fn covariance_construction_meets_tolerance() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 100);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        assert!(stats.total_samples >= 64);
        assert!(!stats.sample_cap_hit, "default caps must not bind here");
        assert_eq!(stats.rank_cap_hits, 0, "default caps must not bind here");
        let dense = Mat::from_fn(1500, 1500, |i, j| km.entry(i, j));
        let rec = h2.to_dense();
        let mut d = rec;
        d.axpy(-1.0, &dense);
        let rel = d.norm_fro() / dense.norm_fro();
        assert!(rel < 1e-5, "construction error {rel} vs tol 1e-6");
    }

    #[test]
    fn helmholtz_construction_meets_tolerance() {
        let pts = h2_tree::uniform_cube(1500, 101);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(HelmholtzKernel::paper(1500), tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 96,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let e = relative_error_2(&km, &h2, 20, 102);
        assert!(e < 1e-5, "rel err {e}");
    }

    /// The adaptive variant starting from a deliberately tiny sample count
    /// must grow its sample set and still meet the tolerance.
    #[test]
    fn adaptive_grows_samples_from_small_start() {
        let (tree, part, km) = cov_problem(3000, 32, 0.7, 103);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 8,
            sample_block: 8,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert!(stats.rounds > 0, "must adapt from 8 samples");
        assert!(stats.total_samples > 8);
        let e = relative_error_2(&km, &h2, 20, 104);
        assert!(
            e < 1e-5,
            "rel err {e} after {} samples",
            stats.total_samples
        );
    }

    /// Fixed-sample construction (adaptive off) with ample samples.
    #[test]
    fn fixed_sample_construction() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 105);
        let rt = Runtime::sequential();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 96,
            adaptive: false,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert_eq!(stats.total_samples, 96);
        assert_eq!(stats.rounds, 0);
        let e = relative_error_2(&km, &h2, 20, 106);
        assert!(e < 1e-5, "rel err {e}");
    }

    /// The f32 storage tier is tolerance-safe: under the norm-aware rule a
    /// block only narrows when its rounding error fits inside the
    /// construction's absolute threshold, so the measured error stays in
    /// the same band as pure-f64 storage at every tolerance — and at a
    /// loose tolerance the rule actually fires (coupling blocks and the
    /// dense near field are stored f32; bases stay f64).
    #[test]
    fn f32_storage_stays_within_tolerance() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 120);
        let rt = Runtime::parallel();
        for (tol, must_demote) in [(1e-4, true), (1e-6, false)] {
            let cfg = SketchConfig {
                tol,
                initial_samples: 64,
                storage: h2_runtime::Precision::F32,
                ..Default::default()
            };
            let (h2, _) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg);
            h2.validate().unwrap();
            let e = relative_error_2(&km, &h2, 20, 121);
            assert!(e < 10.0 * tol, "rel err {e} vs tol {tol} with f32 storage");
            if must_demote {
                assert!(
                    h2.coupling.demoted_count() > 0,
                    "loose tolerance must demote coupling blocks"
                );
                assert!(
                    h2.dense.demoted_count() > 0,
                    "loose tolerance must demote dense blocks"
                );
                let (_, f32b) = h2.coupling.bytes_by_precision();
                assert!(f32b > 0, "f32 bytes must show up in the accounting");
            }
        }
    }

    /// Under `storage = F32`, `memory_bytes` is the bytes the operator
    /// holds: every basis at f64 (bases are never demoted), every skeleton
    /// index, and every block of both stores at its stored width.
    #[test]
    fn f32_storage_memory_is_the_bytes_held() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 120);
        let cfg = SketchConfig {
            tol: 1e-4,
            initial_samples: 64,
            storage: h2_runtime::Precision::F32,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree, part, &Runtime::parallel(), &cfg);
        assert!(h2.coupling.demoted_count() > 0 && h2.dense.demoted_count() > 0);
        let bases: usize = h2.basis.iter().map(|b| size_of_val(b.as_slice())).sum();
        let skels: usize = h2.skel.iter().map(|s| size_of_val(s.as_slice())).sum();
        let held = |store: &h2_matrix::BlockStore| -> usize {
            (0..store.len())
                .map(|i| store.block(i).memory_bytes())
                .sum()
        };
        assert_eq!(
            h2.memory_bytes(),
            bases + skels + held(&h2.coupling) + held(&h2.dense)
        );
    }

    /// The default construction stores the near field once: every
    /// off-diagonal dense block that passes the norm-aware rule is held in
    /// f32 as its only copy (its values are the demoted generated block),
    /// no diagonal block demotes, `memory_bytes` is the bytes actually
    /// held, and the sequential and parallel constructions store the same
    /// blocks at the same widths, bit for bit.
    #[test]
    fn default_construction_stores_the_off_diagonal_near_field_in_f32() {
        use h2_dense::{Mat32, Precision, StoredMat};
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 122);
        let cfg = SketchConfig {
            initial_samples: 64,
            ..Default::default()
        };
        assert_eq!(cfg.storage, Precision::F64, "no knob asks for it");
        let build = |backend| {
            let rt = Runtime::new(backend);
            sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg)
        };
        let (h2, stats) = build(Backend::Sequential);
        h2.validate().unwrap();
        let eps_abs = threshold::Threshold::new(cfg.tol, stats.norm_estimate).abs();
        let eps32 = 0.5 * f32::EPSILON as f64;
        let (mut demoted, mut held) = (0, 0);
        for (i, &(s, t)) in h2.dense.pairs.iter().enumerate() {
            let rows: Vec<usize> = (tree.range(s).0..tree.range(s).1).collect();
            let cols: Vec<usize> = (tree.range(t).0..tree.range(t).1).collect();
            let generated = km.block_mat(&rows, &cols);
            let (m32, norm) = Mat32::demote_measured(&generated);
            match h2.dense.block(i) {
                StoredMat::F32(b) => {
                    assert_ne!(s, t, "diagonal block ({s},{s}) demoted");
                    assert!(eps32 * norm <= eps_abs, "({s},{t}) fails the rule");
                    assert_eq!(b, &m32, "({s},{t}) is not the demoted block");
                    assert_eq!(h2.dense.blocks[i].memory_bytes(), 0, "f64 copy kept");
                    demoted += 1;
                }
                StoredMat::F64(b) => {
                    assert!(
                        s == t || eps32 * norm > eps_abs,
                        "({s},{t}) passes the rule"
                    );
                    assert_eq!(b, &generated);
                }
            }
            held += h2.dense.block(i).memory_bytes();
        }
        assert!(demoted > 0 && demoted == h2.dense.demoted_count());
        assert_eq!(h2.dense.memory_bytes(), held);
        assert_eq!(h2.coupling.demoted_count(), 0, "couplings follow `storage`");

        let (par, _) = build(Backend::Parallel);
        assert_eq!(par.memory_bytes(), h2.memory_bytes());
        for store in [(&h2.dense, &par.dense), (&h2.coupling, &par.coupling)] {
            assert_eq!(store.0.pairs, store.1.pairs);
            for i in 0..store.0.len() {
                let (a, b) = (store.0.block(i), store.1.block(i));
                assert_eq!(a.precision(), b.precision());
                let bits = |m: StoredMat<'_>| {
                    let m = m.to_mat();
                    m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(a), bits(b), "block {i} differs across backends");
            }
        }
    }

    /// Sequential and parallel backends are numerically identical.
    #[test]
    fn backends_agree_exactly() {
        let (tree, part, km) = cov_problem(1200, 16, 0.7, 107);
        let cfg = SketchConfig {
            initial_samples: 48,
            ..Default::default()
        };
        let (a, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::new(Backend::Sequential),
            &cfg,
        );
        let (b, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part,
            &Runtime::new(Backend::Parallel),
            &cfg,
        );
        let da = a.to_dense();
        let db = b.to_dense();
        let mut d = da;
        d.axpy(-1.0, &db);
        assert!(d.norm_max() < 1e-12, "backend divergence {}", d.norm_max());
    }

    /// §IV.B: the whole construction issues O(levels) kernel launches, not
    /// O(N) — the headline GPU design property.
    #[test]
    fn launch_count_scales_with_levels_not_nodes() {
        let (tree, part, km) = cov_problem(2000, 16, 0.7, 108);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 64,
            ..Default::default()
        };
        let (_, stats) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg);
        let levels = tree.nlevels();
        let max_csp = (0..levels)
            .map(|l| part.csp_far(&tree, l))
            .chain([part.csp_near(&tree)])
            .max()
            .unwrap();
        let budget = levels * (20 + 2 * max_csp) * (1 + stats.rounds);
        assert!(
            stats.total_launches() <= budget,
            "{} launches exceeds O(L·Csp) budget {budget}",
            stats.total_launches()
        );
        // and in particular far fewer than the number of tree nodes
        assert!(stats.total_launches() < tree.nodes.len() * 4);
    }

    /// Same seed ⇒ identical result (bitwise).
    #[test]
    fn deterministic_by_seed() {
        let (tree, part, km) = cov_problem(1000, 16, 0.7, 109);
        let cfg = SketchConfig {
            initial_samples: 48,
            ..Default::default()
        };
        let (a, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::parallel(),
            &cfg,
        );
        let (b, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::parallel(),
            &cfg,
        );
        let mut d = a.to_dense();
        d.axpy(-1.0, &b.to_dense());
        assert_eq!(
            d.norm_max(),
            0.0,
            "same-seed construction must be bitwise identical"
        );
    }

    /// Weak admissibility partition turns Algorithm 1 into the HSS
    /// construction it generalizes (Martinsson 2011).
    #[test]
    fn weak_admissibility_hss_construction() {
        let pts = h2_tree::uniform_cube(400, 110);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        // Smooth kernel so weak-admissible blocks are low rank.
        let km = KernelMatrix::new(ExponentialKernel { l: 3.0 }, tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-8,
            initial_samples: 64,
            max_rank: 200,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 20, 111);
        assert!(e < 1e-6, "HSS-mode rel err {e}");
    }

    /// The paper's third application: recompress an H2 matrix plus a rank-32
    /// low-rank product into a fresh H2 matrix, with the sampler being the
    /// fast H2 matvec and entry evaluation coming from the compressed
    /// representation.
    #[test]
    fn lowrank_update_recompression() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 112);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-7,
            initial_samples: 80,
            ..Default::default()
        };
        let (base, _) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg);

        let p = h2_dense::gaussian_mat(1500, 8, 113);
        let mut pscaled = p.clone();
        pscaled.scale(0.05); // keep the update comparable to K's scale
        let updated = LowRankUpdate::symmetric(&base, pscaled.clone());

        let rt2 = Runtime::parallel();
        let (recompressed, stats) =
            sketch_construct(&updated, &updated, tree.clone(), part, &rt2, &cfg);
        assert!(stats.total_samples >= 80);

        // Reference: dense kernel + update, vs recompressed.
        let mut want = Mat::from_fn(1500, 1500, |i, j| km.entry(i, j));
        let ppt = h2_dense::matmul(
            h2_dense::Op::NoTrans,
            h2_dense::Op::Trans,
            pscaled.rf(),
            pscaled.rf(),
        );
        want.axpy(1.0, &ppt);
        let got = recompressed.to_dense();
        let mut d = got;
        d.axpy(-1.0, &want);
        let rel = d.norm_fro() / want.norm_fro();
        // Two compressions stack their errors; stay within an order of
        // magnitude of the base tolerance.
        assert!(rel < 1e-5, "update recompression error {rel}");
    }

    /// Sketching from a *dense* operator (frontal-matrix style input where
    /// the sampler is a plain matrix product).
    #[test]
    fn dense_operator_input() {
        let (tree, part, km) = cov_problem(1024, 16, 0.7, 114);
        let dense = Mat::from_fn(1024, 1024, |i, j| km.entry(i, j));
        let op = DenseOp::new(dense.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 64,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&op, &op, tree.clone(), part, &rt, &cfg);
        let mut d = h2.to_dense();
        d.axpy(-1.0, &dense);
        let rel = d.norm_fro() / dense.norm_fro();
        assert!(rel < 1e-5, "dense-input rel err {rel}");
    }

    /// Tiny problems degrade to a single dense block.
    #[test]
    fn tiny_problem_all_dense() {
        let pts = h2_tree::uniform_cube(20, 115);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let rt = Runtime::sequential();
        let (h2, stats) =
            sketch_construct(&km, &km, tree.clone(), part, &rt, &SketchConfig::default());
        assert_eq!(
            stats.total_samples, 0,
            "no sketching needed for a dense-only partition"
        );
        let dense = Mat::from_fn(20, 20, |i, j| km.entry(i, j));
        let mut d = h2.to_dense();
        d.axpy(-1.0, &dense);
        assert_eq!(d.norm_max(), 0.0, "dense-only representation is exact");
        assert_eq!(rt.profile().launches(Kernel::Id), 0);
    }

    /// Tighter tolerance must give a more accurate representation.
    #[test]
    fn tolerance_monotonicity() {
        let (tree, part, km) = cov_problem(1500, 16, 0.7, 116);
        let err_at = |tol: f64| {
            let rt = Runtime::parallel();
            let cfg = SketchConfig {
                tol,
                initial_samples: 48,
                sample_block: 16,
                ..Default::default()
            };
            let (h2, _) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg);
            relative_error_2(&km, &h2, 20, 117)
        };
        let e_loose = err_at(1e-3);
        let e_tight = err_at(1e-8);
        assert!(e_tight < e_loose, "tight {e_tight} vs loose {e_loose}");
        assert!(e_tight < 1e-6);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use h2_dense::relative_error_2;
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_runtime::Runtime;
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    fn problem(
        n: usize,
        seed: u64,
    ) -> (
        Arc<ClusterTree>,
        Arc<Partition>,
        KernelMatrix<ExponentialKernel>,
    ) {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        assert!(part.top_far_level(&tree).is_some());
        let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
        (tree, part, km)
    }

    /// The max_samples cap is respected exactly and the construction still
    /// terminates with a usable (if less accurate) matrix.
    #[test]
    fn sample_budget_is_hard_cap() {
        let (tree, part, km) = problem(2000, 401);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-12, // unreachable: forces the adaptive loop to the cap
            initial_samples: 8,
            sample_block: 8,
            // Below the 32 stacked rows of the level above the leaves, so
            // the loop cannot end by sampling a node's full row space.
            max_samples: 24,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert!(
            stats.total_samples <= 24,
            "budget violated: {}",
            stats.total_samples
        );
        assert!(
            stats.sample_cap_hit,
            "the exhausted budget must be reported"
        );
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 15, 402);
        assert!(
            e < 0.5,
            "even budget-capped construction stays sane, err {e}"
        );
    }

    /// max_rank truncates node ranks without breaking structure.
    #[test]
    fn rank_cap_is_enforced() {
        let (tree, part, km) = problem(1500, 403);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-10,
            initial_samples: 96,
            max_rank: 6,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        let (_, hi) = h2.rank_range();
        assert!(hi <= 6, "rank cap violated: {hi}");
        assert!(stats.rank_cap_hits > 0, "the truncation must be reported");
    }

    /// Adaptive rounds can trigger at inner levels, not just the leaves:
    /// the updateSamples upsweep machinery is exercised when upper levels
    /// carry more rank than the initial samples cover.
    #[test]
    fn inner_level_adaptation_happens() {
        let (tree, part, km) = problem(3000, 404);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-8,
            initial_samples: 12,
            sample_block: 8,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert!(stats.rounds > 0);
        assert_eq!(
            stats.rounds_per_level.iter().sum::<usize>(),
            stats.rounds,
            "per-level accounting must add up"
        );
        let e = relative_error_2(&km, &h2, 15, 405);
        assert!(
            e < 1e-6,
            "err {e} after adaptation at levels {:?}",
            stats.rounds_per_level
        );
    }

    /// The norm estimate feeding the relative threshold (§III.B) matches a
    /// long power iteration to the construction tolerance, within fewer
    /// sampler products than its cap.
    #[test]
    fn norm_estimate_reported() {
        let (tree, part, km) = problem(1200, 406);
        let rt = Runtime::sequential();
        let cfg = SketchConfig {
            initial_samples: 48,
            ..Default::default()
        };
        let (_, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let exact = h2_dense::estimate_norm_2(&km, 60, 407);
        let rel = (stats.norm_estimate / exact - 1.0).abs();
        assert!(
            rel <= 10.0 * cfg.tol,
            "estimate {} vs {exact}",
            stats.norm_estimate
        );
        let cap = threshold::NORM_PRODUCTS;
        assert!(
            stats.norm_products > 0 && stats.norm_products < cap,
            "{} products",
            stats.norm_products
        );
    }

    /// Phase timings cover the construction: the recorded phases account
    /// for the bulk of the wall-clock elapsed time.
    #[test]
    fn phase_accounting_covers_runtime() {
        let (tree, part, km) = problem(2000, 408);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 64,
            ..Default::default()
        };
        let (_, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let covered = stats.phase_total();
        let wall = stats.elapsed.as_secs_f64();
        assert!(
            covered > 0.6 * wall,
            "phases cover {covered:.3}s of {wall:.3}s"
        );
        assert!(stats.total_launches() > 0);
    }
}

#[cfg(test)]
mod unsym_tests {
    use super::*;
    use h2_dense::{gaussian_mat, relative_error_2, EntryAccess, LinOp, Mat};
    use h2_kernels::{
        ConvectionKernel, ExponentialKernel, KernelMatrix, ScaledKernelMatrix, UnsymKernelMatrix,
    };
    use h2_matrix::H2MatrixUnsym;
    use h2_runtime::{Backend, Runtime};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    /// `Kᵀ x`, allocated.
    fn transpose_product(op: &dyn LinOp, x: &Mat) -> Mat {
        let mut y = Mat::zeros(op.ncols(), x.cols());
        op.apply_transpose(x.rf(), y.rm());
        y
    }

    fn convection_problem(
        n: usize,
        seed: u64,
    ) -> (
        Arc<ClusterTree>,
        Arc<Partition>,
        UnsymKernelMatrix<ConvectionKernel>,
    ) {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        assert!(part.top_far_level(&tree).is_some(), "problem too small");
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
        (tree, part, km)
    }

    #[test]
    fn convection_construction_meets_tolerance() {
        let (tree, part, km) = convection_problem(1200, 501);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            symmetric: false,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        assert!(
            !h2.is_symmetric(),
            "unsym construction stores the column side"
        );
        assert!(stats.total_samples >= 64);
        let dense = Mat::from_fn(1200, 1200, |i, j| km.entry(i, j));
        let mut d = h2.to_dense();
        d.axpy(-1.0, &dense);
        let rel = d.norm_fro() / dense.norm_fro();
        assert!(rel < 1e-5, "unsym construction error {rel}");
    }

    /// Satellite acceptance test: `‖Aᵀx − apply_transpose(x)‖` on a
    /// convection-style kernel — the compressed transpose product matches
    /// the exact dense transpose product to the construction tolerance.
    #[test]
    fn transpose_apply_matches_dense() {
        let (tree, part, km) = convection_problem(1000, 502);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-7,
            initial_samples: 80,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let dense = Mat::from_fn(1000, 1000, |i, j| km.entry(i, j));
        let x = gaussian_mat(1000, 3, 503);
        let got = transpose_product(&h2, &x);
        let want = h2_dense::matmul(
            h2_dense::Op::Trans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut d = got;
        d.axpy(-1.0, &want);
        let rel = d.norm_fro() / want.norm_fro();
        assert!(rel < 1e-5, "Kᵀx error {rel}");
    }

    /// Satellite acceptance: `orthogonalize` on the unsymmetric layout —
    /// per-side QR with the coupled `B ← R_s B R_tᵀ` rescaling must leave
    /// both products unchanged and orthonormalize both basis trees.
    #[test]
    fn orthogonalize_unsym_preserves_both_products() {
        let (tree, part, km) = convection_problem(1100, 515);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-7,
            initial_samples: 80,
            symmetric: false,
            ..Default::default()
        };
        let (mut h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert!(!h2.is_symmetric());
        assert!(
            h2.basis_orthogonality_error() > 1e-8,
            "interpolative bases start non-orthonormal"
        );
        let x = gaussian_mat(1100, 3, 516);
        let fwd_before = h2.apply_mat(&x);
        let adj_before = transpose_product(&h2, &x);

        let processed = h2.orthogonalize();
        assert!(processed > 0, "both sides processed");
        assert!(
            h2.basis_orthogonality_error() < 1e-12,
            "both sides orthonormal, err {}",
            h2.basis_orthogonality_error()
        );
        h2.validate().unwrap();

        let fwd_after = h2.apply_mat(&x);
        let adj_after = transpose_product(&h2, &x);
        let mut df = fwd_after;
        df.axpy(-1.0, &fwd_before);
        let mut da = adj_after;
        da.axpy(-1.0, &adj_before);
        let scale = fwd_before.norm_max().max(adj_before.norm_max()).max(1.0);
        assert!(
            df.norm_max() < 1e-10 * scale,
            "K x changed by {}",
            df.norm_max()
        );
        assert!(
            da.norm_max() < 1e-10 * scale,
            "Kᵀ x changed by {}",
            da.norm_max()
        );
    }

    #[test]
    fn forward_and_transpose_are_consistent() {
        // x̂ᵀ(K y) == (Kᵀ x̂)ᵀ y must hold exactly for the *representation*
        // (same blocks read in both passes), independent of compression error.
        let (tree, part, km) = convection_problem(900, 504);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-5,
            initial_samples: 48,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let x = gaussian_mat(900, 2, 505);
        let y = gaussian_mat(900, 2, 506);
        let ky = h2.apply_mat(&y);
        let ktx = transpose_product(&h2, &x);
        let a = h2_dense::matmul(h2_dense::Op::Trans, h2_dense::Op::NoTrans, x.rf(), ky.rf());
        let b = h2_dense::matmul(h2_dense::Op::Trans, h2_dense::Op::NoTrans, ktx.rf(), y.rf());
        let mut d = a;
        d.axpy(-1.0, &b);
        assert!(
            d.norm_max() < 1e-9,
            "adjoint identity violated by {}",
            d.norm_max()
        );
    }

    #[test]
    fn scaled_symmetric_kernel_construction() {
        let pts = h2_tree::uniform_cube(1000, 507);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let inner = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let dr: Vec<f64> = (0..1000)
            .map(|i| 1.0 + 0.3 * ((i * 7) % 11) as f64 / 11.0)
            .collect();
        let dc: Vec<f64> = (0..1000)
            .map(|i| 0.5 + 0.2 * ((i * 13) % 17) as f64 / 17.0)
            .collect();
        let km = ScaledKernelMatrix::new(inner, dr, dc);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 20, 508);
        assert!(e < 1e-5, "scaled kernel rel err {e}");
    }

    #[test]
    fn symmetric_input_through_unsym_path() {
        // A symmetric kernel through the two-stream path: both bases exist,
        // the result approximates the kernel, and K ≈ Kᵀ in the output.
        let pts = h2_tree::uniform_cube(800, 509);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let e = relative_error_2(&km, &h2, 20, 510);
        assert!(e < 1e-5, "rel err {e}");
        let d = h2.to_dense();
        let mut asym = d.transpose();
        asym.axpy(-1.0, &d);
        // the representation itself need not be exactly symmetric, but the
        // asymmetry is bounded by the compression error
        assert!(asym.norm_fro() / d.norm_fro() < 1e-5);
    }

    #[test]
    fn adaptive_grows_samples_unsym() {
        let (tree, part, km) = convection_problem(2000, 511);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 8,
            sample_block: 8,
            symmetric: false,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        assert!(stats.rounds > 0, "must adapt from 8 samples");
        assert!(stats.total_samples > 8);
        let e = relative_error_2(&km, &h2, 15, 512);
        assert!(
            e < 1e-5,
            "rel err {e} after {} samples",
            stats.total_samples
        );
    }

    #[test]
    fn deterministic_by_seed_unsym() {
        let (tree, part, km) = convection_problem(800, 513);
        let cfg = SketchConfig {
            initial_samples: 48,
            symmetric: false,
            ..Default::default()
        };
        let (a, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::parallel(),
            &cfg,
        );
        let (b, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::new(Backend::Sequential),
            &cfg,
        );
        let mut d = a.to_dense();
        d.axpy(-1.0, &b.to_dense());
        assert_eq!(
            d.norm_max(),
            0.0,
            "seeded construction must be backend-invariant"
        );
    }

    #[test]
    fn entry_extraction_matches_to_dense() {
        let (tree, part, km) = convection_problem(700, 514);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-7,
            initial_samples: 64,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        let dense = h2.to_dense();
        let rows: Vec<usize> = (0..700).step_by(31).collect();
        let cols: Vec<usize> = (0..700).step_by(47).collect();
        let blk = h2.extract_block(&rows, &cols);
        for (r, &i) in rows.iter().enumerate() {
            for (c, &j) in cols.iter().enumerate() {
                assert!(
                    (blk[(r, c)] - dense[(i, j)]).abs() < 1e-12,
                    "extraction mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn tiny_problem_all_dense_unsym() {
        let pts = h2_tree::uniform_cube(20, 515);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
        let rt = Runtime::sequential();
        let (h2, stats) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part,
            &rt,
            &SketchConfig {
                symmetric: false,
                ..SketchConfig::default()
            },
        );
        assert_eq!(stats.total_samples, 0);
        let dense = Mat::from_fn(20, 20, |i, j| km.entry(i, j));
        let mut d = h2.to_dense();
        d.axpy(-1.0, &dense);
        assert_eq!(d.norm_max(), 0.0, "dense-only representation is exact");
    }

    /// A sampler that "forgot" to override `apply_transpose` (the `LinOp`
    /// default silently computes `K x`) must be rejected by the engine's
    /// adjoint-identity probe instead of corrupting the column bases.
    #[test]
    #[should_panic(expected = "adjoint identity")]
    fn unsym_engine_rejects_missing_transpose_override() {
        use h2_dense::{LinOp, MatMut, MatRef};
        struct ForgotTranspose<'a>(&'a UnsymKernelMatrix<ConvectionKernel>);
        impl LinOp for ForgotTranspose<'_> {
            fn nrows(&self) -> usize {
                self.0.nrows()
            }
            fn ncols(&self) -> usize {
                self.0.ncols()
            }
            fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
                self.0.apply(x, y);
            }
            // no apply_transpose override: inherits the symmetric default
        }
        let (tree, part, km) = convection_problem(400, 517);
        let rt = Runtime::sequential();
        let cfg = SketchConfig {
            initial_samples: 16,
            symmetric: false,
            ..Default::default()
        };
        let wrong = ForgotTranspose(&km);
        let _ = sketch_construct(&wrong, &km, tree, part, &rt, &cfg);
    }

    /// The unsym IO roundtrip through the unified reader preserves the
    /// matrix bitwise (both magics go through `H2Matrix::read_from`).
    #[test]
    fn unsym_alias_io_roundtrip() {
        let (tree, part, km) = convection_problem(600, 516);
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            initial_samples: 48,
            symmetric: false,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
        let back = H2MatrixUnsym::from_bytes(&h2.to_bytes()).unwrap();
        assert!(!back.is_symmetric());
        // The demoted near field comes back demoted.
        assert!(back.dense.demoted_count() > 0);
        assert_eq!(back.dense.demoted_count(), h2.dense.demoted_count());
        assert_eq!(back.memory_bytes(), h2.memory_bytes());
        let mut d = h2.to_dense();
        d.axpy(-1.0, &back.to_dense());
        assert_eq!(d.norm_max(), 0.0);
    }
}

#[cfg(test)]
mod engine_equivalence_tests {
    use super::*;
    use h2_dense::{gaussian_mat, EntryAccess, LinOp, Mat};
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_runtime::Runtime;
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    /// Satellite acceptance test: the unified engine on a symmetric kernel
    /// reproduces the seed symmetric path — `to_dense` error against a
    /// dense reference stays within ε, and the output is the degenerate
    /// one-stream representation (no stored column side, unordered stores).
    #[test]
    fn symmetric_engine_matches_dense_reference_within_tolerance() {
        let n = 1500;
        let pts = h2_tree::uniform_cube(n, 601);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        assert!(part.top_far_level(&tree).is_some());
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            ..Default::default()
        };
        let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        assert!(
            h2.is_symmetric(),
            "symmetric construction must not store a column side"
        );
        assert!(stats.total_samples >= 64);
        let dense = Mat::from_fn(n, n, |i, j| km.entry(i, j));
        let mut d = h2.to_dense();
        d.axpy(-1.0, &dense);
        let rel = d.norm_fro() / dense.norm_fro();
        assert!(
            rel < 1e-5,
            "unified engine symmetric error {rel} vs tol 1e-6"
        );
    }

    /// The symmetric instance and the two-stream instance agree on a
    /// symmetric operator up to the construction tolerance (they sketch
    /// with different random streams, so agreement is approximate), and
    /// the symmetric one's transpose product is bitwise its forward
    /// product.
    #[test]
    fn one_stream_is_degenerate_two_stream() {
        let n = 900;
        let pts = h2_tree::uniform_cube(n, 602);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let cfg = SketchConfig {
            tol: 1e-7,
            initial_samples: 64,
            ..Default::default()
        };
        let (sym, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part.clone(),
            &Runtime::parallel(),
            &cfg,
        );
        let (uns, _) = sketch_construct(
            &km,
            &km,
            tree.clone(),
            part,
            &Runtime::parallel(),
            &SketchConfig {
                symmetric: false,
                ..cfg
            },
        );
        let ds = sym.to_dense();
        let mut d = uns.to_dense();
        d.axpy(-1.0, &ds);
        let rel = d.norm_fro() / ds.norm_fro();
        assert!(rel < 1e-5, "one-stream vs two-stream divergence {rel}");

        // Symmetric representation: Kᵀx == Kx exactly (same blocks, same
        // sides read through the aliased column side).
        let x = gaussian_mat(n, 3, 603);
        let fwd = sym.apply_mat(&x);
        let mut tr = Mat::zeros(n, 3);
        sym.apply_transpose(x.rf(), tr.rm());
        tr.axpy(-1.0, &fwd);
        assert_eq!(
            tr.norm_max(),
            0.0,
            "symmetric transpose product must alias forward"
        );
    }
}

//! Property tests for the `batchedBSRGemm` kernel: equivalence with a dense
//! block-matrix product over random patterns, block orientations, storage
//! widths (every second block is stored f32) and both backends, plus
//! conflict-freedom of the slot decomposition.

use h2_dense::{demote_roundtrip, gaussian_mat, gemm, Mat32, Op, StoredMat};
use h2_runtime::{bsr_gemm, BsrBlock, BsrPattern, Runtime, VarBatch};
use proptest::prelude::*;

/// Random level structure: row sizes, column sizes, adjacency, orientation.
#[derive(Debug, Clone)]
struct Case {
    row_sizes: Vec<usize>,
    col_sizes: Vec<usize>,
    adj: Vec<Vec<usize>>,
    transposed: Vec<Vec<bool>>,
    d: usize,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (2usize..6, 2usize..6, 1usize..5, 0u64..10_000).prop_flat_map(|(nr, nc, d, seed)| {
        let row_sizes = proptest::collection::vec(1usize..7, nr..=nr);
        let col_sizes = proptest::collection::vec(1usize..7, nc..=nc);
        let adj = proptest::collection::vec(proptest::collection::vec(0usize..nc, 0..nc), nr..=nr);
        (row_sizes, col_sizes, adj).prop_flat_map(move |(rs, cs, mut adj)| {
            // Dedup partners within a row (BSR positions are unique).
            for a in adj.iter_mut() {
                a.sort_unstable();
                a.dedup();
            }
            let flips: Vec<usize> = adj.iter().map(|a| a.len()).collect();
            let total: usize = flips.iter().sum();
            proptest::collection::vec(proptest::bool::ANY, total..=total).prop_map(move |bits| {
                let mut transposed = Vec::new();
                let mut it = bits.into_iter();
                for a in &adj {
                    transposed.push(a.iter().map(|_| it.next().unwrap()).collect());
                }
                Case {
                    row_sizes: rs.clone(),
                    col_sizes: cs.clone(),
                    adj: adj.clone(),
                    transposed,
                    d,
                    seed,
                }
            })
        })
    })
}

fn run_case(case: &Case, rt: &Runtime) -> (VarBatch, VarBatch) {
    let pattern = BsrPattern::from_rows(&case.adj);
    assert!(pattern.validate());

    // Blocks: op(block) must map X_col (col_size x d) into Y_row.
    let mut mats = Vec::new();
    let mut rng_seed = case.seed;
    for (r, partners) in case.adj.iter().enumerate() {
        for (pi, &c) in partners.iter().enumerate() {
            rng_seed = rng_seed.wrapping_add(1);
            let (m, n) = (case.row_sizes[r], case.col_sizes[c]);
            let stored = if case.transposed[r][pi] {
                gaussian_mat(n, m, rng_seed)
            } else {
                gaussian_mat(m, n, rng_seed)
            };
            // Every second block is stored f32; the reference multiplies
            // its promoted values.
            mats.push(match mats.len() % 2 {
                0 => stored,
                _ => demote_roundtrip(&stored),
            });
        }
    }
    let mats32: Vec<Mat32> = mats.iter().map(|m| Mat32::demote(m.rf())).collect();
    let mut blocks = Vec::new();
    let mut k = 0;
    for (r, partners) in case.adj.iter().enumerate() {
        for (pi, _) in partners.iter().enumerate() {
            blocks.push(BsrBlock {
                mat: match k % 2 {
                    0 => StoredMat::F64(&mats[k]),
                    _ => StoredMat::F32(&mats32[k]),
                },
                transposed: case.transposed[r][pi],
            });
            k += 1;
        }
    }

    // Inputs and outputs.
    let mut x = VarBatch::zeros_uniform_cols(case.col_sizes.clone(), case.d);
    for i in 0..x.count() {
        let g = gaussian_mat(case.col_sizes[i], case.d, case.seed ^ (i as u64 + 99));
        x.set(i, g.rf());
    }
    let mut y = VarBatch::zeros_uniform_cols(case.row_sizes.clone(), case.d);
    for i in 0..y.count() {
        let g = gaussian_mat(case.row_sizes[i], case.d, case.seed ^ (i as u64 + 777));
        y.set(i, g.rf());
    }
    let y0 = y.clone_like();

    bsr_gemm(rt, &pattern, &blocks, &x, &mut y, -1.0, None);

    // Dense reference.
    let mut want = y0;
    let mut k = 0;
    for (r, partners) in case.adj.iter().enumerate() {
        for (pi, &c) in partners.iter().enumerate() {
            let op = if case.transposed[r][pi] {
                Op::Trans
            } else {
                Op::NoTrans
            };
            let mut m = want.to_mat(r);
            gemm(op, Op::NoTrans, -1.0, mats[k].rf(), x.mat(c), 1.0, m.rm());
            want.set(r, m.rf());
            k += 1;
        }
    }
    (y, want)
}

/// VarBatch lacks Clone; local helper for the reference copy.
trait CloneLike {
    fn clone_like(&self) -> VarBatch;
}

impl CloneLike for VarBatch {
    fn clone_like(&self) -> VarBatch {
        let rows: Vec<usize> = (0..self.count()).map(|i| self.rows_of(i)).collect();
        let cols: Vec<usize> = (0..self.count()).map(|i| self.cols_of(i)).collect();
        let mut out = VarBatch::zeros(rows, cols);
        for i in 0..self.count() {
            out.set(i, self.mat(i));
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// bsr_gemm == dense block product, on both backends, for any pattern
    /// and any mix of stored orientations.
    #[test]
    fn bsr_matches_dense_reference(case in case_strategy()) {
        for (rt, backend) in [(Runtime::sequential(), "sequential"), (Runtime::parallel(), "parallel")] {
            let (got, want) = run_case(&case, &rt);
            for i in 0..got.count() {
                let g = got.to_mat(i);
                let w = want.to_mat(i);
                let mut d = g;
                d.axpy(-1.0, &w);
                prop_assert!(d.norm_max() < 1e-11,
                    "row {i} mismatch {} on {backend}", d.norm_max());
            }
        }
    }

    /// The slot decomposition launches at most Csp kernels and touches each
    /// block exactly once.
    #[test]
    fn slot_decomposition_is_csp_bounded(case in case_strategy()) {
        let pattern = BsrPattern::from_rows(&case.adj);
        let csp = case.adj.iter().map(|a| a.len()).max().unwrap_or(0);
        prop_assert_eq!(pattern.csp(), csp);
        let rt = Runtime::sequential();
        let before = rt.profile().launches(h2_runtime::Kernel::BsrGemm);
        let (_, _) = run_case(&case, &rt);
        let after = rt.profile().launches(h2_runtime::Kernel::BsrGemm);
        prop_assert_eq!(after - before, csp, "one launch per slot");
    }
}

/// Alpha scaling: bsr_gemm with alpha and -alpha cancel.
#[test]
fn alpha_linearity() {
    let adj = vec![vec![0, 1], vec![1]];
    let pattern = BsrPattern::from_rows(&adj);
    let b0 = gaussian_mat(3, 2, 1);
    let b1 = gaussian_mat(3, 4, 2);
    let b2 = gaussian_mat(2, 4, 3);
    let blocks = vec![
        BsrBlock::plain(&b0),
        BsrBlock::plain(&b1),
        BsrBlock::plain(&b2),
    ];
    let mut x = VarBatch::zeros_uniform_cols(vec![2, 4], 3);
    x.set(0, gaussian_mat(2, 3, 4).rf());
    x.set(1, gaussian_mat(4, 3, 5).rf());
    let mut y = VarBatch::zeros_uniform_cols(vec![3, 2], 3);
    let rt = Runtime::sequential();
    bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, 2.5, None);
    bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, -2.5, None);
    for i in 0..2 {
        assert!(y.to_mat(i).norm_max() < 1e-12);
    }
}

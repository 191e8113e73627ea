//! The in-process H2 product visits every *stored* block once
//! (`h2_matrix::matvec`, "One traversal of the stored blocks"). These tests
//! hold it, bit for bit, to a row-by-row reference — every output row
//! accumulated over its own adjacency list — across the storage layouts,
//! precisions and shapes the traversal branches on, and check that the
//! row-chunk count leaves the bits alone.

use h2_dense::{
    gaussian_mat, gemm, gemm_mixed, LinOp, Mat, MatMut, MatRef, Op, Precision, StoredMat,
};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::{
    direct_construct, ApplyPhases, BlockOp, BlockStore, DirectConfig, H2Matrix, StoreLayout,
};
use h2_tree::{grid_plane, uniform_cube, Admissibility, ClusterTree, Partition, Point};
use std::sync::Arc;

/// `Kᵀ x`, allocated.
fn transpose_product(op: &dyn LinOp, x: &Mat) -> Mat {
    let mut y = Mat::zeros(op.ncols(), x.cols());
    op.apply_transpose(x.rf(), y.rm());
    y
}

const WIDTHS: [usize; 3] = [1, 3, 64];
const CHUNKS: [usize; 3] = [1, 2, 5];

/// `acc += op(block) · input`, through the GEMM the product's storage
/// precision selects.
fn accumulate(blk: BlockOp<'_>, input: MatRef<'_>, acc: MatMut<'_>) {
    let op = if blk.transposed {
        Op::Trans
    } else {
        Op::NoTrans
    };
    match blk.mat {
        StoredMat::F32(b32) => gemm_mixed(op, Op::NoTrans, 1.0, b32, input, 1.0, acc),
        StoredMat::F64(b) => gemm(op, Op::NoTrans, 1.0, b.rf(), input, 1.0, acc),
    }
}

/// Row `s` of one field, owned by its row: `acc += Σ_{t ∈ adj[s]}
/// op(block(s, t)) · input(t)` in list order, skipping rank-0 rows and
/// inputs.
fn row<'x>(
    store: &BlockStore,
    adj: &[usize],
    transpose: bool,
    s: usize,
    input: impl Fn(usize) -> MatRef<'x>,
    acc: &mut Mat,
) {
    for &t in adj {
        if acc.rows() == 0 || input(t).rows() == 0 {
            continue;
        }
        let blk = store.lookup_op(s, t, transpose).expect("stored block");
        accumulate(blk, input(t), acc.rm());
    }
}

/// The three-pass product, row by row: every output row accumulates over
/// its own `far_of` / `near_of` list.
fn reference(h2: &H2Matrix, x: &Mat, transpose: bool) -> Mat {
    let ph: ApplyPhases<'_> = h2.apply_phases(transpose);
    let tree = &h2.tree;
    let (nnodes, d) = (tree.nodes.len(), x.cols());
    let mut xhat = vec![Mat::zeros(0, 0); nnodes];
    for id in (0..nnodes).rev() {
        if let Some(m) = ph.upsweep_node(id, x.rf(), &xhat) {
            xhat[id] = m;
        }
    }
    let mut yhat: Vec<Mat> = (0..nnodes).map(|s| ph.coupling_acc(s, d)).collect();
    for (s, acc) in yhat.iter_mut().enumerate() {
        let far = &h2.partition.far_of[s];
        row(&h2.coupling, far, transpose, s, |t| xhat[t].rf(), acc);
    }
    for child in 1..nnodes {
        if let Some(m) = ph.downsweep_child(child, &yhat, d) {
            if yhat[child].rows() == 0 {
                yhat[child] = m;
            } else {
                yhat[child].axpy(1.0, &m);
            }
        }
    }
    let mut y = Mat::zeros(h2.n(), d);
    for s in tree.level(tree.leaf_level()) {
        let mut acc = ph.expand_leaf(s, &yhat, d);
        let rows_of = |t: usize| {
            let (b, e) = tree.range(t);
            x.view(b, 0, e - b, d)
        };
        let near = &h2.partition.near_of[s];
        row(&h2.dense, near, transpose, s, rows_of, &mut acc);
        y.view_mut(tree.range(s).0, 0, acc.rows(), d)
            .copy_from(acc.rf());
    }
    y
}

fn assert_same_bits(got: &Mat, want: &Mat, what: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: entry {i}: {g:e} vs {w:e}"
        );
    }
}

/// `K x` and `Kᵀ x` against the reference: through the public entry points
/// (one chunk per worker thread) and at every chunk count of [`CHUNKS`],
/// plus one beyond the number of rows.
fn check(h2: &H2Matrix, name: &str) {
    h2.validate().unwrap();
    let n = h2.n();
    for (w, &d) in WIDTHS.iter().enumerate() {
        let x = gaussian_mat(n, d, 900 + w as u64);
        for transpose in [false, true] {
            let want = reference(h2, &x, transpose);
            assert!(want.norm_fro() > 0.0 && want.norm_fro().is_finite());
            let what = format!("{name}, d = {d}, transpose = {transpose}");
            let got = if transpose {
                transpose_product(h2, &x)
            } else {
                h2.apply_mat(&x)
            };
            assert_same_bits(&got, &want, &what);
            for nchunks in CHUNKS.into_iter().chain([10 * h2.tree.nodes.len()]) {
                // Stale output must not leak into the result.
                let mut y = Mat::from_fn(n, d, |_, _| f64::NAN);
                h2.apply_chunked(x.rf(), y.rm(), transpose, nchunks);
                assert_same_bits(&y, &want, &format!("{what}, {nchunks} chunks"));
            }
        }
    }
}

fn build(points: &[Point], leaf: usize, rule: Admissibility, cfg: &DirectConfig) -> H2Matrix {
    let tree = Arc::new(ClusterTree::build(points, leaf));
    let part = Arc::new(Partition::build(&tree, rule));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    direct_construct(&km, tree, part, cfg)
}

fn strong_3d() -> H2Matrix {
    build(
        &uniform_cube(1500, 41),
        16,
        Admissibility::Strong { eta: 0.7 },
        &DirectConfig::default(),
    )
}

/// An unsymmetric operator on the tree and partition of `sym`: an
/// independent column side of *different* ranks and ordered block stores, all
/// entries random — the product's accuracy is not under test, its bits are.
fn unsymmetric_like(sym: &H2Matrix) -> H2Matrix {
    let tree = &sym.tree;
    let mut h2 = H2Matrix::new_shell(sym.tree.clone(), sym.partition.clone(), false);
    let leaf_level = tree.leaf_level();
    let col_rank = |id: usize| match sym.rank(id) {
        k if k >= 2 => k - 1,
        k => k,
    };
    let mut seed = 7000;
    let mut random = |rows: usize, cols: usize| {
        seed += 1;
        gaussian_mat(rows, cols, seed)
    };
    let col = h2.col.as_mut().unwrap();
    for id in 0..tree.nodes.len() {
        h2.basis[id] = sym.basis[id].clone();
        h2.skel[id] = sym.skel[id].clone();
        let kc = col_rank(id);
        if kc == 0 {
            continue;
        }
        let rows = if tree.level_of(id) == leaf_level {
            tree.nodes[id].len()
        } else {
            let (c1, c2) = tree.nodes[id].children.unwrap();
            col_rank(c1) + col_rank(c2)
        };
        col.basis[id] = random(rows, kc);
        col.skel[id] = sym.skel[id][..kc].to_vec();
    }
    for (s, list) in sym.partition.far_of.iter().enumerate() {
        for &t in list {
            h2.coupling.insert(s, t, random(sym.rank(s), col_rank(t)));
        }
    }
    for (s, list) in sym.partition.near_of.iter().enumerate() {
        for &t in list {
            let block = random(tree.nodes[s].len(), tree.nodes[t].len());
            h2.dense.insert(s, t, block);
        }
    }
    h2
}

#[test]
fn strong_3d_symmetric() {
    let h2 = strong_3d();
    assert_eq!(h2.dense.layout(), StoreLayout::Symmetric);
    let leaves = h2.tree.level(h2.tree.leaf_level());
    assert!(
        leaves.clone().any(|s| h2.partition.near_of[s].len() > 1)
            && h2.partition.top_far_level(&h2.tree).is_some(),
        "the geometry must pair both dense and coupling blocks"
    );
    check(&h2, "strong 3-D");
}

#[test]
fn weak_2d_hss() {
    let cfg = DirectConfig {
        n_proxy: 200,
        max_rank: 128,
        ..Default::default()
    };
    let h2 = build(&grid_plane(24, 24), 16, Admissibility::Weak, &cfg);
    check(&h2, "weak 2-D");
}

#[test]
fn unsymmetric_ordered_store() {
    let h2 = unsymmetric_like(&strong_3d());
    assert!(!h2.is_symmetric());
    assert_eq!(h2.coupling.layout(), StoreLayout::Ordered);
    assert!((0..h2.tree.nodes.len()).any(|id| h2.col_rank(id) != h2.row_rank(id)));
    // K and Kᵀ are different operators here: `check` covers both.
    let x = gaussian_mat(h2.n(), 1, 5);
    assert_ne!(
        h2.apply_mat(&x).as_slice(),
        transpose_product(&h2, &x).as_slice()
    );
    check(&h2, "unsymmetric");
}

#[test]
fn f32_demoted_storage() {
    let sym = strong_3d();
    for (mut h2, name) in [
        (unsymmetric_like(&sym), "demoted unsymmetric"),
        (sym, "demoted symmetric"),
    ] {
        // The norm-aware rule at the median block norm demotes about half
        // of each store (and no diagonal block): both GEMM paths run
        // inside one product.
        let eps32 = 0.5 * f32::EPSILON as f64;
        for store in [&mut h2.coupling, &mut h2.dense] {
            let mut norms: Vec<f64> = store.blocks.iter().map(Mat::norm_fro).collect();
            norms.sort_by(f64::total_cmp);
            store.demote_pending(eps32 * norms[norms.len() / 2]);
            let demoted = store.demoted_count();
            assert!(0 < demoted && demoted < store.len());
            for i in 0..store.len() {
                let (s, t) = store.pairs[i];
                if store.precision_of(i) == Precision::F32 {
                    assert_ne!(s, t, "diagonal block ({s},{s}) demoted");
                    assert_eq!(store.blocks[i].memory_bytes(), 0, "f64 copy kept");
                }
            }
        }
        check(&h2, name);
    }
}

/// Strip node `id` of its basis, as a construction whose far-field samples
/// all fall below the threshold leaves it: rank 0, its rows gone from the
/// parent's transfer, its coupling blocks zero-dimensional.
fn strip_basis(h2: &mut H2Matrix, id: usize) {
    let k = h2.rank(id);
    let tree = h2.tree.clone();
    if let Some(parent) = tree.nodes[id].parent.filter(|&p| h2.rank(p) > 0) {
        let (c1, _) = tree.nodes[parent].children.unwrap();
        let off = if id == c1 { 0 } else { h2.rank(c1) };
        let old = &h2.basis[parent];
        let keep: Vec<usize> = (0..old.rows())
            .filter(|r| !(off..off + k).contains(r))
            .collect();
        h2.basis[parent] = old.select_rows(&keep);
    }
    h2.basis[id] = Mat::zeros(h2.basis[id].rows(), 0);
    h2.skel[id].clear();
    for i in 0..h2.coupling.len() {
        let (s, t) = h2.coupling.pairs[i];
        if s == id || t == id {
            h2.coupling.blocks[i] = Mat::zeros(h2.rank(s), h2.rank(t));
        }
    }
}

#[test]
fn rank_zero_nodes() {
    let mut h2 = strong_3d();
    assert!(h2.is_symmetric());
    let tree = h2.tree.clone();
    let has_far = |id: usize| !h2.partition.far_of[id].is_empty();
    // A leaf and both leaves of another parent, each under a based parent,
    // and an inner node — all with admissible partners.
    let based_parent = |id: usize| tree.nodes[id].parent.is_some_and(|p| h2.rank(p) > 0);
    let leaves: Vec<usize> = tree
        .level(tree.leaf_level())
        .filter(|&id| has_far(id) && based_parent(id))
        .collect();
    let lone = leaves[0];
    let (a, b) = leaves
        .iter()
        .filter_map(|&id| tree.nodes[tree.nodes[id].parent.unwrap()].children)
        .find(|&(a, b)| a != lone && b != lone && has_far(a) && has_far(b))
        .expect("a sibling pair of leaves with far fields");
    let inner = (0..tree.level(tree.leaf_level()).start)
        .rev()
        .find(|&id| has_far(id) && tree.nodes[id].children != Some((a, b)))
        .expect("an inner node with a far field");
    for id in [lone, a, b, inner] {
        strip_basis(&mut h2, id);
        assert_eq!(h2.rank(id), 0);
    }
    check(&h2, "rank 0");
}

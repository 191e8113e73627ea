//! Fig. 6(b): memory of compressed Poisson frontal matrices — H2
//! (Algorithm 1, strong admissibility) vs the weak-admissibility formats
//! HSS and HODLR. (HODBF is not reproduced; see the `h2_baselines` crate docs.)
//!
//! Fronts: exact multifrontal Schur complements for small grids
//! (`--exact-grids 12,16,24`, front size = n²) and the Green's-function
//! surrogate for paper-scale separators (`--surrogate 50,70` → 2500, 4900).
//! The paper's axis 2500…62500 corresponds to n = 50…250.
//!
//! Usage: `--exact-grids 12,16,24 --surrogate 50,70 [--tol 1e-6] [--leaf 64]
//!         [--trace trace.json]`

use h2_baselines::{hodlr_compress, hss_construct};
use h2_bench::{header, mib, permuted_dense_op, row, Args, TraceSink};
use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{DenseOp, EntryAccess, LinOp};
use h2_frontal::{green_surrogate_front, poisson_top_front};
use h2_kernels::{KernelMatrix, LaplaceKernel};
use h2_tree::{Admissibility, ClusterTree, Partition, Point};
use std::sync::Arc;

enum FrontOp {
    Dense(DenseOp),
    Kernel(KernelMatrix<LaplaceKernel>),
}

impl LinOp for FrontOp {
    fn nrows(&self) -> usize {
        match self {
            FrontOp::Dense(o) => o.nrows(),
            FrontOp::Kernel(k) => k.nrows(),
        }
    }

    fn ncols(&self) -> usize {
        self.nrows()
    }

    fn apply(&self, x: h2_dense::MatRef<'_>, y: h2_dense::MatMut<'_>) {
        match self {
            FrontOp::Dense(o) => o.apply(x, y),
            FrontOp::Kernel(k) => k.apply(x, y),
        }
    }
}

impl EntryAccess for FrontOp {
    fn entry(&self, i: usize, j: usize) -> f64 {
        match self {
            FrontOp::Dense(o) => o.entry(i, j),
            FrontOp::Kernel(k) => k.entry(i, j),
        }
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut h2_dense::MatMut<'_>) {
        match self {
            FrontOp::Dense(o) => o.block(rows, cols, out),
            FrontOp::Kernel(k) => k.block(rows, cols, out),
        }
    }
}

fn compress_and_report(
    sink: &TraceSink,
    name: &str,
    op: &FrontOp,
    pts: &[Point],
    leaf: usize,
    tol: f64,
) {
    let size = op.nrows();
    let tree = Arc::new(ClusterTree::build(pts, leaf));
    let rt = sink.runtime();
    let cfg = SketchConfig {
        tol,
        initial_samples: 128,
        max_rank: 1024,
        max_samples: 4096,
        ..Default::default()
    };

    // H2, strong admissibility (ours).
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let (h2, h2_stats) = sketch_construct(op, op, tree.clone(), part, &rt, &cfg);

    // HSS = Algorithm 1 on the weak partition.
    let rt2 = sink.runtime();
    let (hss, hss_stats) = hss_construct(op, op, tree.clone(), &rt2, &cfg);

    // HODLR direct compression.
    let hodlr = hodlr_compress(op, tree.clone(), tol);

    let dense_bytes = size * size * 8;
    row(&[
        size.to_string(),
        name.to_string(),
        format!("{:.1}", mib(h2.memory_bytes())),
        format!("{:.1}", mib(hss.memory_bytes())),
        format!("{:.1}", mib(hodlr.memory_bytes())),
        format!("{:.1}", mib(dense_bytes)),
        format!("{}/{}", h2_stats.total_samples, hss_stats.total_samples),
        format!("{:?}/{:?}", h2.rank_range(), hss.rank_range()),
    ]);
}

fn main() {
    let args = Args::parse();
    let exact_grids = args.sizes("exact-grids", &[12, 16, 24]);
    let surrogate = args.sizes("surrogate", &[50]);
    let tol: f64 = args.get("tol", 1e-6);
    let leaf: usize = args.get("leaf", 64);
    let sink = TraceSink::from_args(&args);

    println!("# Fig. 6(b): frontal-matrix memory, H2 vs HSS vs HODLR (tol={tol}, leaf={leaf})\n");
    println!("front sizes are n^2 for an n^3 Poisson grid; paper axis 2500..62500 = n 50..250\n");
    header(&[
        "front size",
        "source",
        "H2 (MiB)",
        "HSS (MiB)",
        "HODLR (MiB)",
        "dense (MiB)",
        "samples H2/HSS",
        "rank ranges H2/HSS",
    ]);

    for &g in &exact_grids {
        let (front, raw_pts) = poisson_top_front(g, 64);
        let tree_probe = ClusterTree::build(&raw_pts, leaf);
        let op = FrontOp::Dense(permuted_dense_op(&front, &tree_probe));
        // points must be permuted identically to the operator
        compress_and_report(
            &sink,
            &format!("exact {g}^3 grid"),
            &op,
            &raw_pts,
            leaf,
            tol,
        );
    }

    for &k in &surrogate {
        let (km, pts) = green_surrogate_front(k);
        // Rebind the kernel operator onto tree-ordered points.
        let tree = ClusterTree::build(&pts, leaf);
        let op = FrontOp::Kernel(KernelMatrix::new(km.kernel, tree.points.clone()));
        compress_and_report(
            &sink,
            &format!("surrogate {k}x{k} plane"),
            &op,
            &pts,
            leaf,
            tol,
        );
    }

    println!("\n(The weak-admissibility formats' memory grows superlinearly on plane-separator fronts\n while H2 stays close to linear — the Fig. 6(b) separation. HODBF omitted, see the h2_baselines crate docs.)");
    sink.finish();
}

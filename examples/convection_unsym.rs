//! Unsymmetric H2 construction: a convection-diffusion volume operator.
//!
//! The paper constructs symmetric matrices and notes the extension to
//! unsymmetric ones is straightforward (§II.A). This example exercises that
//! extension end to end: a drift term makes the kernel unsymmetric, the
//! same `sketch_construct` call with `SketchConfig::symmetric` set to
//! `false` runs the two-stream construction, which builds independent row
//! (`U`) and column (`V`) nested bases, and both `K x` and `Kᵀ x` products
//! of the result (`LinOp::apply` / `LinOp::apply_transpose`) are verified
//! against the exact operator.
//!
//! ```sh
//! cargo run --release --example convection_unsym
//! ```

use h2sketch::dense::{estimate_norm_2, gaussian_mat, DiffOp, LinOp, Mat};
use h2sketch::kernels::{ConvectionKernel, UnsymKernelMatrix};
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn main() {
    // The exact O(N²d) kernel product serves as the sketching operator here
    // (the frontal-matrix situation, where the sampler is a dense product);
    // keep N moderate so the example runs in seconds.
    let n = 4096;
    let points = uniform_cube(n, 42);
    let tree = Arc::new(ClusterTree::build(&points, 64));
    let partition = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));

    // Convection-diffusion kernel: exp(-r/l)·(1 + v·(x-y)). The drift v
    // breaks symmetry; smoothness keeps the far field low rank.
    let kernel = ConvectionKernel {
        l: 0.2,
        v: [0.4, -0.25, 0.1],
    };
    let km = UnsymKernelMatrix::new(kernel, tree.points.clone());

    // Both black-box inputs come from the kernel matrix itself here; with
    // `symmetric: false` the sampler must provide K·Ω *and* Kᵀ·Ψ (the
    // second sketch stream drives the column basis).
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        sample_block: 32,
        symmetric: false,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let (h2, stats) = sketch_construct(&km, &km, tree.clone(), partition, &rt, &cfg);
    let dt = t0.elapsed();
    h2.validate().expect("structural validation");

    let (rank_lo, rank_hi) = h2.rank_range();
    println!("construction: {:.3}s", dt.as_secs_f64());
    println!(
        "samples per stream: {} (adaptation rounds: {})",
        stats.total_samples, stats.rounds
    );
    println!("rank range (row+col bases): {rank_lo}-{rank_hi}");
    println!("memory: {:.1} MB", h2.memory_bytes() as f64 / 1e6);

    // Verify K x against the exact kernel product.
    let err_fwd = {
        let diff = DiffOp { a: &km, b: &h2 };
        estimate_norm_2(&diff, 12, 1) / estimate_norm_2(&km, 12, 2)
    };
    println!("relative error ‖K - K_H2‖₂/‖K‖₂ ≈ {err_fwd:.3e}");

    // Verify Kᵀ x: the transpose product reads the same representation
    // through the swapped basis trees.
    let x = gaussian_mat(n, 4, 3);
    let mut want = Mat::zeros(n, 4);
    km.apply_transpose(x.rf(), want.rm());
    let mut d = Mat::zeros(n, 4);
    h2.apply_transpose(x.rf(), d.rm());
    d.axpy(-1.0, &want);
    let rel_t = d.norm_fro() / want.norm_fro();
    println!("transpose product relative error ≈ {rel_t:.3e}");

    assert!(
        err_fwd < 1e-4 && rel_t < 1e-4,
        "construction failed its accuracy target"
    );
    println!("OK");
}

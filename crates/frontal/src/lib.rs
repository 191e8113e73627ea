//! # h2-frontal
//!
//! Sparse multifrontal substrate for the paper's frontal-matrix experiment
//! (§V.A, third application; Fig. 6(b)):
//!
//! * 7-point 3-D Poisson assembly on regular grids ([`sparse`]),
//! * geometric nested dissection with plane separators and a real
//!   multifrontal Cholesky with extend-add ([`multifrontal`]) — exact top
//!   fronts for small grids,
//! * a Green's-function surrogate for paper-scale separator sizes
//!   (substitution documented in the [`surrogate`] module docs).

pub mod multifrontal;
pub mod sparse;
pub mod surrogate;

pub use multifrontal::{
    multifrontal_cholesky, nested_dissection, poisson_top_front, MultifrontalResult, NdNode, NdTree,
};
pub use sparse::{poisson3d, CsrMatrix, Grid3};
pub use surrogate::green_surrogate_front;

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{relative_error_2, DenseOp};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    /// End-to-end: extract an exact Poisson front and compress it with the
    /// sketching construction (the Fig. 6(b) pipeline at test scale).
    #[test]
    fn poisson_front_compresses_with_sketching() {
        let (front, pts) = poisson_top_front(12, 32); // 144-point separator
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        // permute the front into tree order
        let n = front.rows();
        let permuted = h2_dense::Mat::from_fn(n, n, |i, j| front[(tree.perm[i], tree.perm[j])]);
        let op = DenseOp::new(permuted);
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 1.0 }));
        let rt = h2_runtime_shim::runtime();
        let cfg = h2_core::SketchConfig {
            tol: 1e-8,
            initial_samples: 64,
            ..Default::default()
        };
        let (h2, _) = h2_core::sketch_construct(&op, &op, tree.clone(), part, &rt, &cfg);
        let e = relative_error_2(&op, &h2, 20, 140);
        assert!(e < 1e-6, "front compression rel err {e}");
    }

    mod h2_runtime_shim {
        pub fn runtime() -> h2_runtime::Runtime {
            h2_runtime::Runtime::parallel()
        }
    }
}

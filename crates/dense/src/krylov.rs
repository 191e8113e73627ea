//! Stochastic estimators on abstract [`LinOp`]s.
//!
//! Compressed H2 operators are built to be *used* (paper §I motivation).
//! The Krylov solvers live in `h2_solve`; what remains here is the
//! Hutchinson trace estimate.

use crate::mat::Mat;
use crate::op::LinOp;

/// Hutchinson stochastic trace estimator `tr(A) ≈ mean(zᵀ A z)` with
/// Rademacher probes — the "trace estimation in Bayesian optimization" use
/// case from the paper's introduction.
pub fn hutchinson_trace(a: &dyn LinOp, probes: usize, seed: u64) -> f64 {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let n = a.nrows();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = 0.0;
    let mut z = Mat::zeros(n, 1);
    let mut az = Mat::zeros(n, 1);
    for _ in 0..probes.max(1) {
        for i in 0..n {
            z[(i, 0)] = if rng.random::<bool>() { 1.0 } else { -1.0 };
        }
        a.apply(z.rf(), az.rm());
        let mut dot = 0.0;
        for i in 0..n {
            dot += z[(i, 0)] * az[(i, 0)];
        }
        acc += dot;
    }
    acc / probes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::op::DenseOp;
    use crate::rand::gaussian_mat;

    fn spd_op(n: usize, seed: u64) -> DenseOp {
        let g = gaussian_mat(n, n, seed);
        let mut a = matmul(Op::NoTrans, Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        DenseOp::new(a)
    }

    #[test]
    fn hutchinson_estimates_trace() {
        let n = 60;
        let op = spd_op(n, 6);
        let exact: f64 = (0..n).map(|i| op.a[(i, i)]).sum();
        let est = hutchinson_trace(&op, 400, 7);
        assert!(
            (est - exact).abs() < 0.1 * exact,
            "est {est} vs exact {exact}"
        );
    }
}

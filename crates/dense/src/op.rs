//! Abstract linear operators and spectral-norm estimation.
//!
//! [`LinOp`] is the "black-box sketching operator" interface of the paper:
//! anything that can compute `Y = K Ω` for a block of vectors. [`EntryAccess`]
//! is the companion "entry evaluation function" used by `batchedGen`.
//! Kernel matrices, H2 matrices, dense matrices, low-rank updates and frontal
//! matrices all implement both, so every experiment plugs into the same
//! construction code.

use crate::gemm::{par_gemm, Op};
use crate::mat::{Mat, MatMut, MatRef};
use crate::rand::gaussian_mat;

/// A linear operator supporting block application (`Y = A X`).
///
/// Implementations must be `Sync`: the batched runtime applies operators from
/// worker threads.
pub trait LinOp: Sync {
    fn nrows(&self) -> usize;
    fn ncols(&self) -> usize;

    /// `y = A x` for a block of vectors (`x: ncols x d`, `y: nrows x d`).
    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>);

    /// `y = A^T x`. Defaults to `apply` — correct for the symmetric operators
    /// the paper works with; non-symmetric implementations **must override**
    /// (the unsymmetric construction's column stream samples through this
    /// method, and guards the adjoint identity `xᵀ(Ay) = (Aᵀx)ᵀy` at
    /// startup to catch a forgotten override).
    fn apply_transpose(&self, x: MatRef<'_>, y: MatMut<'_>) {
        self.apply(x, y);
    }

    /// Convenience: allocate and return `A X`.
    fn apply_mat(&self, x: &Mat) -> Mat {
        let mut y = Mat::zeros(self.nrows(), x.cols());
        self.apply(x.rf(), y.rm());
        y
    }
}

/// Entry-level access to a matrix: the paper's second required input.
pub trait EntryAccess: Sync {
    fn entry(&self, i: usize, j: usize) -> f64;

    /// Evaluate the sub-block `A(rows, cols)` into `out`.
    ///
    /// The default loops over [`EntryAccess::entry`]; implementations with
    /// cheaper bulk evaluation (kernel matrices) override this.
    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        assert_eq!(out.rows(), rows.len());
        assert_eq!(out.cols(), cols.len());
        for (jj, &j) in cols.iter().enumerate() {
            let col = out.col_mut(jj);
            for (ii, &i) in rows.iter().enumerate() {
                col[ii] = self.entry(i, j);
            }
        }
    }

    /// Allocate and return the sub-block `A(rows, cols)`.
    fn block_mat(&self, rows: &[usize], cols: &[usize]) -> Mat {
        let mut m = Mat::zeros(rows.len(), cols.len());
        self.block(rows, cols, &mut m.rm());
        m
    }
}

/// A dense matrix as a [`LinOp`] + [`EntryAccess`] (tests, frontal matrices,
/// small reference problems).
pub struct DenseOp {
    pub a: Mat,
}

impl DenseOp {
    pub fn new(a: Mat) -> Self {
        DenseOp { a }
    }
}

impl LinOp for DenseOp {
    fn nrows(&self) -> usize {
        self.a.rows()
    }

    fn ncols(&self) -> usize {
        self.a.cols()
    }

    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
        par_gemm(Op::NoTrans, Op::NoTrans, 1.0, self.a.rf(), x, 0.0, y);
    }

    fn apply_transpose(&self, x: MatRef<'_>, y: MatMut<'_>) {
        par_gemm(Op::Trans, Op::NoTrans, 1.0, self.a.rf(), x, 0.0, y);
    }
}

impl EntryAccess for DenseOp {
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.a[(i, j)]
    }
}

/// The difference `A - B` of two operators (for error estimation).
pub struct DiffOp<'a> {
    pub a: &'a dyn LinOp,
    pub b: &'a dyn LinOp,
}

impl LinOp for DiffOp<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        self.a.apply(x, y.rb_mut());
        let mut yb = Mat::zeros(self.b.nrows(), x.cols());
        self.b.apply(x, yb.rm());
        y.axpy(-1.0, yb.rf());
    }

    fn apply_transpose(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        self.a.apply_transpose(x, y.rb_mut());
        let mut yb = Mat::zeros(self.b.ncols(), x.cols());
        self.b.apply_transpose(x, yb.rm());
        y.axpy(-1.0, yb.rf());
    }
}

/// Estimate `‖A‖₂` by power iteration on `A^T A` (the paper's §V.A "a few
/// iterations of the power method").
pub fn estimate_norm_2(a: &dyn LinOp, iters: usize, seed: u64) -> f64 {
    let n = a.ncols();
    if n == 0 || a.nrows() == 0 {
        return 0.0;
    }
    let mut v = gaussian_mat(n, 1, seed);
    normalize(&mut v);
    let mut sigma = 0.0_f64;
    let mut w = Mat::zeros(a.nrows(), 1);
    for _ in 0..iters.max(1) {
        a.apply(v.rf(), w.rm());
        let wn = w.norm_fro();
        if wn == 0.0 {
            return 0.0;
        }
        // With v unit-norm, ||A v|| is the current singular-value estimate;
        // it increases monotonically toward sigma_max as v converges.
        sigma = sigma.max(wn);
        a.apply_transpose(w.rf(), v.rm());
        normalize(&mut v);
    }
    // Final refinement with the converged direction.
    a.apply(v.rf(), w.rm());
    sigma.max(w.norm_fro())
}

/// Relative spectral-norm error `‖A - B‖₂ / ‖A‖₂` estimated by power
/// iteration, exactly as the paper measures construction accuracy.
pub fn relative_error_2(a: &dyn LinOp, b: &dyn LinOp, iters: usize, seed: u64) -> f64 {
    let diff = DiffOp { a, b };
    let na = estimate_norm_2(a, iters, seed);
    if na == 0.0 {
        return 0.0;
    }
    estimate_norm_2(&diff, iters, seed.wrapping_add(17)) / na
}

/// Seed of the Gaussian start [`norm_2_gkl`] falls back to when the given
/// start is zero or not finite.
const GKL_FALLBACK_SEED: u64 = 0x5A5A_5A5A;

/// Estimate `‖A‖₂` by Golub–Kahan–Lanczos bidiagonalisation from the
/// output-space vector `start` (`a.nrows() x 1`). Returns the estimate and
/// the number of products with `A` or `Aᵀ` it used.
///
/// The products alternate, `Aᵀ` first: `αₖvₖ = Aᵀuₖ`, `βₖ₊₁uₖ₊₁ = Avₖ`,
/// each new vector fully reorthogonalised against the kept ones of its
/// side. After every product the estimate is `σ_max` of the growing
/// lower-bidiagonal projection `UᵀAV` (`α` on the diagonal, `β` below),
/// a lower bound on `‖A‖₂` that never decreases. It stops after
/// `max_products`, at a breakdown (the Krylov space is invariant), or
/// once a product moves the estimate by at most `rtol` relative.
///
/// Symmetric and unsymmetric operators take the same path. A zero or
/// non-finite start is replaced by a Gaussian one; the zero operator
/// gives 0.
pub fn norm_2_gkl(a: &dyn LinOp, start: &Mat, max_products: usize, rtol: f64) -> (f64, usize) {
    let (m, n) = (a.nrows(), a.ncols());
    assert_eq!(start.rows(), m, "norm_2_gkl: start must have nrows entries");
    assert_eq!(start.cols(), 1, "norm_2_gkl: start must be one column");
    if m == 0 || n == 0 || max_products == 0 {
        return (0.0, 0);
    }
    let start_norm = start.norm_fro();
    let mut u = if start_norm.is_finite() && start_norm > 0.0 {
        start.clone()
    } else {
        gaussian_mat(m, 1, GKL_FALLBACK_SEED)
    };
    normalize(&mut u);
    let mut us = vec![u];
    let mut vs: Vec<Mat> = Vec::new();
    // Lower bidiagonal: `alphas[k]` at (k, k), `betas[k]` at (k + 1, k).
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut estimate = 0.0_f64;
    let mut products = 0;
    while products < max_products {
        let transpose = alphas.len() == betas.len();
        let (mut w, basis, entries) = if transpose {
            let mut w = Mat::zeros(n, 1);
            a.apply_transpose(us.last().unwrap().rf(), w.rm());
            (w, &mut vs, &mut alphas)
        } else {
            let mut w = Mat::zeros(m, 1);
            a.apply(vs.last().unwrap().rf(), w.rm());
            (w, &mut us, &mut betas)
        };
        products += 1;
        // Two Gram–Schmidt passes keep the basis orthonormal to rounding.
        for _ in 0..2 {
            for q in basis.iter() {
                let c: f64 = q
                    .as_slice()
                    .iter()
                    .zip(w.as_slice())
                    .map(|(x, y)| x * y)
                    .sum();
                w.axpy(-c, q);
            }
        }
        let norm = w.norm_fro();
        entries.push(norm);
        let previous = estimate;
        estimate = estimate.max(bidiagonal_sigma_max(&alphas, &betas));
        if norm == 0.0 || !norm.is_finite() {
            break;
        }
        w.scale(1.0 / norm);
        basis.push(w);
        if products > 1 && estimate - previous <= rtol * estimate {
            break;
        }
    }
    (estimate, products)
}

/// `σ_max` of the lower-bidiagonal matrix with `alphas` on the diagonal
/// and `betas` below it (`betas.len()` is `alphas.len()` or one less).
fn bidiagonal_sigma_max(alphas: &[f64], betas: &[f64]) -> f64 {
    let mut b = Mat::zeros(betas.len() + 1, alphas.len());
    for (k, &alpha) in alphas.iter().enumerate() {
        b[(k, k)] = alpha;
    }
    for (k, &beta) in betas.iter().enumerate() {
        b[(k + 1, k)] = beta;
    }
    crate::svd::spectral_norm(&b)
}

fn normalize(v: &mut Mat) {
    let n = v.norm_fro();
    if n > 0.0 {
        v.scale(1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::spectral_norm;

    #[test]
    fn dense_op_applies() {
        let a = gaussian_mat(6, 4, 51);
        let x = gaussian_mat(4, 2, 52);
        let op = DenseOp::new(a.clone());
        let y = op.apply_mat(&x);
        let want = crate::gemm::matmul(Op::NoTrans, Op::NoTrans, a.rf(), x.rf());
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-13);
    }

    #[test]
    fn entry_block_default_impl() {
        let a = gaussian_mat(5, 5, 53);
        let op = DenseOp::new(a.clone());
        let b = op.block_mat(&[4, 0], &[1, 3, 2]);
        assert_eq!(b[(0, 0)], a[(4, 1)]);
        assert_eq!(b[(1, 2)], a[(0, 2)]);
    }

    #[test]
    fn norm_estimate_close_to_svd() {
        let a = gaussian_mat(30, 30, 54);
        let exact = spectral_norm(&a);
        let est = estimate_norm_2(&DenseOp::new(a), 30, 55);
        assert!(
            (est - exact).abs() < 0.05 * exact,
            "est {est} exact {exact}"
        );
    }

    /// Operators with known singular values `decay^i`, `σ_max = 1`: the
    /// unsymmetric `U S Vᵀ` (rectangular) and the symmetric `Q S Qᵀ`.
    fn known_sigma_ops(decay: f64, seed: u64) -> [DenseOp; 2] {
        let (m, n, k) = (120, 90, 40);
        let unsym = crate::rand::random_low_rank(m, n, k, decay, seed);
        let mut qs = crate::qr::orthonormalize(gaussian_mat(m, k, seed + 1));
        let q = qs.clone();
        for j in 0..k {
            qs.col_mut(j)
                .iter_mut()
                .for_each(|x| *x *= decay.powi(j as i32));
        }
        let sym = crate::gemm::matmul(Op::NoTrans, Op::Trans, qs.rf(), q.rf());
        [DenseOp::new(unsym), DenseOp::new(sym)]
    }

    #[test]
    fn gkl_estimate_converges_below_the_cap() {
        let (rtol, cap) = (1e-6, 61);
        for decay in [0.5, 0.95] {
            for (kind, op) in known_sigma_ops(decay, 60).iter().enumerate() {
                let start = gaussian_mat(op.nrows(), 1, 71);
                let (est, products) = norm_2_gkl(op, &start, cap, rtol);
                assert!(
                    (est - 1.0).abs() <= 10.0 * rtol,
                    "decay {decay} op {kind}: est {est}"
                );
                assert!(
                    products < cap,
                    "decay {decay} op {kind}: {products} products"
                );
                // The estimate after each product (a smaller cap replays the
                // same prefix) never falls and never exceeds σ_max.
                let mut last = 0.0;
                for p in 1..=products {
                    let (e, used) = norm_2_gkl(op, &start, p, 0.0);
                    assert!(used <= p);
                    assert!(e >= last, "decay {decay} op {kind}: {e} < {last} at {p}");
                    assert!(e <= 1.0 + 1e-12, "decay {decay} op {kind}: {e} at {p}");
                    last = e;
                }
            }
        }
    }

    #[test]
    fn gkl_zero_operator_and_degenerate_starts() {
        let zero = DenseOp::new(Mat::zeros(30, 20));
        let start = gaussian_mat(30, 1, 62);
        assert_eq!(norm_2_gkl(&zero, &start, 21, 1e-6).0, 0.0);

        let [op, _] = known_sigma_ops(0.7, 63);
        let m = op.nrows();
        let gaussian = gaussian_mat(m, 1, GKL_FALLBACK_SEED);
        let want = norm_2_gkl(&op, &gaussian, 21, 1e-8);
        assert!((want.0 - 1.0).abs() < 1e-7, "gaussian start: {}", want.0);
        let mut nan = gaussian_mat(m, 1, 64);
        nan[(3, 0)] = f64::NAN;
        for bad in [Mat::zeros(m, 1), nan] {
            assert_eq!(norm_2_gkl(&op, &bad, 21, 1e-8), want);
        }
    }

    #[test]
    fn relative_error_detects_perturbation() {
        let a = gaussian_mat(25, 25, 56);
        let mut b = a.clone();
        b[(3, 7)] += 0.5;
        let ra = DenseOp::new(a);
        let rb = DenseOp::new(b);
        let e = relative_error_2(&ra, &rb, 30, 57);
        assert!(e > 1e-3 && e < 1.0, "e={e}");
        let e0 = relative_error_2(&ra, &ra, 10, 58);
        assert!(e0 < 1e-12);
    }
}

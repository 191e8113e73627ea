//! Adaptive cross approximation (ACA) with partial pivoting.
//!
//! The entry-evaluation construction route of the codes the paper cites in
//! §I (HLIBpro, hmglib): approximate a block `A ≈ U Vᵀ` by greedily
//! selecting cross rows/columns of the *residual*, evaluating only
//! `O((m + n) k)` entries instead of all `m·n`. Used by the
//! `h2_baselines::aca_compress` H-matrix constructor and as an independent
//! low-rank compression primitive.

use crate::mat::Mat;

/// Result of an ACA compression `A ≈ U Vᵀ`.
pub struct AcaResult {
    /// Left factor (`m × k`).
    pub u: Mat,
    /// Right factor (`n × k`), so the approximation is `U Vᵀ`.
    pub v: Mat,
    /// Number of entries of `A` that were evaluated.
    pub entries_evaluated: usize,
    /// Whether the tolerance was met before hitting `max_rank`.
    pub converged: bool,
}

impl AcaResult {
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Materialize the approximation (tests / small blocks).
    pub fn to_mat(&self) -> Mat {
        crate::gemm::matmul(
            crate::gemm::Op::NoTrans,
            crate::gemm::Op::Trans,
            self.u.rf(),
            self.v.rf(),
        )
    }
}

/// Partial-pivot ACA of an `m × n` block given an entry oracle.
///
/// Stops when `‖u_k‖·‖v_k‖ ≤ tol · ‖A_k‖_F` (with `‖A_k‖_F` the running
/// estimate of the approximation norm) or when `max_rank` crosses have been
/// taken. Exact low-rank matrices terminate early with a zero residual
/// pivot.
///
/// Pivots are the largest `|x|` in [`f64::total_cmp`] order, where a NaN
/// ranks above every number: a NaN entry of the block is taken as a pivot
/// and shows up as NaN in `U` / `V` instead of a panic.
///
/// ```
/// use h2_dense::aca;
/// // A rank-1 block: ACA recovers it from one cross, plus at most one
/// // roundoff-level cleanup cross.
/// let res = aca(20, 30, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0), 1e-12, 10);
/// assert!(res.rank() <= 2);
/// assert!(res.converged);
/// assert!(res.entries_evaluated < 20 * 30, "far fewer entries than the full block");
/// ```
pub fn aca(
    m: usize,
    n: usize,
    f: impl Fn(usize, usize) -> f64,
    tol: f64,
    max_rank: usize,
) -> AcaResult {
    let kmax = max_rank.min(m.min(n));
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut used_rows = vec![false; m];
    let mut entries = 0usize;
    // Running ‖A_k‖_F² estimate.
    let mut norm2 = 0.0_f64;
    let mut converged = false;

    if m == 0 || n == 0 {
        return AcaResult {
            u: Mat::zeros(m, 0),
            v: Mat::zeros(n, 0),
            entries_evaluated: 0,
            converged: true,
        };
    }

    // Next pivot row: start at the middle (heuristic: interior rows carry
    // more signal for smooth kernels), then the max-|u| entry of the last
    // cross, falling back to the first unused row.
    let mut next_row = m / 2;

    while us.len() < kmax {
        // Residual row: v = A(i*, :) - Σ u_l[i*] v_l
        let mut i_star = next_row;
        let mut v_row = vec![0.0; n];
        let mut found = false;
        for _attempt in 0..m {
            if used_rows[i_star] {
                i_star = (i_star + 1) % m;
                continue;
            }
            for (j, vv) in v_row.iter_mut().enumerate() {
                *vv = f(i_star, j);
            }
            entries += n;
            for (ul, vl) in us.iter().zip(&vs) {
                let c = ul[i_star];
                if c != 0.0 {
                    for j in 0..n {
                        v_row[j] -= c * vl[j];
                    }
                }
            }
            if v_row.iter().any(|&x| x != 0.0) {
                found = true;
                break;
            }
            // Residual row exactly zero: retire it and try the next.
            used_rows[i_star] = true;
            i_star = (i_star + 1) % m;
        }
        if !found {
            converged = true; // residual is exactly zero on all rows
            break;
        }
        used_rows[i_star] = true;

        // Pivot column: max |residual row|.
        let (j_star, &delta) = v_row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap();

        // Residual column scaled by the pivot:
        // u = (A(:, j*) - Σ v_l[j*] u_l) / delta
        let mut u_col = vec![0.0; m];
        for (i, uu) in u_col.iter_mut().enumerate() {
            *uu = f(i, j_star);
        }
        entries += m;
        for (ul, vl) in us.iter().zip(&vs) {
            let c = vl[j_star];
            if c != 0.0 {
                for i in 0..m {
                    u_col[i] -= c * ul[i];
                }
            }
        }
        for uu in u_col.iter_mut() {
            *uu /= delta;
        }

        // Norm update: ‖A_k‖² = ‖A_{k-1}‖² + 2 Σ (u_lᵀu)(v_lᵀv) + ‖u‖²‖v‖².
        let u_nrm2: f64 = u_col.iter().map(|x| x * x).sum();
        let v_nrm2: f64 = v_row.iter().map(|x| x * x).sum();
        let mut cross = 0.0;
        for (ul, vl) in us.iter().zip(&vs) {
            let uu: f64 = ul.iter().zip(&u_col).map(|(a, b)| a * b).sum();
            let vv: f64 = vl.iter().zip(&v_row).map(|(a, b)| a * b).sum();
            cross += uu * vv;
        }
        norm2 += 2.0 * cross + u_nrm2 * v_nrm2;

        // Next pivot row: the largest new-cross entry outside used rows.
        next_row = u_col
            .iter()
            .enumerate()
            .filter(|(i, _)| !used_rows[*i])
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, _)| i)
            .unwrap_or(0);

        us.push(u_col);
        vs.push(v_row);

        if (u_nrm2 * v_nrm2).sqrt() <= tol * norm2.max(f64::MIN_POSITIVE).sqrt() {
            converged = true;
            break;
        }
    }

    // Exhausting min(m, n) crosses reproduces the block exactly.
    if us.len() >= m.min(n) {
        converged = true;
    }

    let k = us.len();
    let mut u = Mat::zeros(m, k);
    let mut v = Mat::zeros(n, k);
    for (c, (uc, vc)) in us.iter().zip(&vs).enumerate() {
        u.col_mut(c).copy_from_slice(uc);
        v.col_mut(c).copy_from_slice(vc);
    }
    AcaResult {
        u,
        v,
        entries_evaluated: entries,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::gaussian_mat;

    #[test]
    fn nan_in_the_pivot_row_returns_nan_factors() {
        // The first residual row is row m / 2 = 4: its NaN is the first
        // pivot search's maximum.
        let res = aca(
            8,
            8,
            |i, j| {
                if (i, j) == (4, 2) {
                    f64::NAN
                } else {
                    1.0 / (1 + i + j) as f64
                }
            },
            1e-10,
            8,
        );
        assert!(res.u.as_slice().iter().any(|x| x.is_nan()));
    }

    #[test]
    fn nan_in_the_pivot_column_returns_nan_factors() {
        // Rank one, so row 4's largest entry picks column 7; its NaN in row
        // 0 reaches the next-row search through the residual column.
        let f = |i: usize, j: usize| {
            if (i, j) == (0, 7) {
                f64::NAN
            } else {
                ((i + 1) * (j + 1)) as f64
            }
        };
        let res = aca(8, 8, f, 1e-10, 8);
        assert!(res.u.as_slice().iter().any(|x| x.is_nan()));
    }

    #[test]
    fn exact_low_rank_recovered() {
        let a = gaussian_mat(30, 4, 41);
        let b = gaussian_mat(25, 4, 42);
        let prod = crate::gemm::matmul(
            crate::gemm::Op::NoTrans,
            crate::gemm::Op::Trans,
            a.rf(),
            b.rf(),
        );
        let res = aca(30, 25, |i, j| prod[(i, j)], 1e-12, 30);
        assert!(
            res.rank() <= 5,
            "rank-4 matrix recovered at rank {}",
            res.rank()
        );
        let mut d = res.to_mat();
        d.axpy(-1.0, &prod);
        assert!(d.norm_fro() / prod.norm_fro() < 1e-10);
        assert!(res.converged);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let res = aca(10, 12, |_, _| 0.0, 1e-10, 10);
        assert_eq!(res.rank(), 0);
        assert!(res.converged);
    }

    #[test]
    fn rank_cap_respected() {
        let a = gaussian_mat(20, 20, 43); // full rank
        let res = aca(20, 20, |i, j| a[(i, j)], 1e-15, 5);
        assert_eq!(res.rank(), 5);
        assert!(!res.converged, "full-rank matrix cannot converge at rank 5");
    }

    #[test]
    fn smooth_kernel_block_compresses_with_few_entries() {
        // Separated 1-D clusters under 1/(1+|x-y|): numerically low rank.
        let m = 200;
        let n = 180;
        let xi: Vec<f64> = (0..m).map(|i| i as f64 / m as f64).collect();
        let yj: Vec<f64> = (0..n).map(|j| 5.0 + j as f64 / n as f64).collect();
        let f = |i: usize, j: usize| 1.0 / (1.0 + (xi[i] - yj[j]).abs());
        let res = aca(m, n, f, 1e-9, 50);
        assert!(res.converged);
        assert!(res.rank() < 20, "smooth block rank {}", res.rank());
        assert!(
            res.entries_evaluated < m * n / 4,
            "ACA evaluated {} of {} entries",
            res.entries_evaluated,
            m * n
        );
        let full = Mat::from_fn(m, n, f);
        let mut d = res.to_mat();
        d.axpy(-1.0, &full);
        assert!(d.norm_fro() / full.norm_fro() < 1e-7);
    }

    #[test]
    fn empty_dims_are_fine() {
        let res = aca(0, 5, |_, _| 1.0, 1e-10, 3);
        assert_eq!(res.rank(), 0);
        let res = aca(5, 0, |_, _| 1.0, 1e-10, 3);
        assert_eq!(res.rank(), 0);
    }

    #[test]
    fn duplicate_rows_terminate() {
        // Rank-1 matrix with identical rows: second pivot row has zero
        // residual; ACA must retire rows and stop, not loop.
        let res = aca(15, 10, |_, j| (j + 1) as f64, 1e-12, 10);
        assert_eq!(res.rank(), 1);
        assert!(res.converged);
    }
}

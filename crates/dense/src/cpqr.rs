//! Column-pivoted QR (LAPACK `geqp3`-style pivoting over the level-2 panel
//! kernel of [`crate::qr`]) and the interpolative decomposition (ID) built
//! on it.
//!
//! The row ID is the heart of the paper's skeletonization step
//! (Algorithm 1, lines 16/34): given local samples `Y_loc`, compute
//! `Y_loc ≈ U · Y_loc(J, :)` where `J` are the selected (skeleton) rows and
//! `U` is the interpolation matrix with `U(J,:) = I`. It is obtained from a
//! column-pivoted QR of `Y_loc^T`: the pivot columns are the skeleton rows
//! and `T = R1^{-1} R2` is the interpolation coefficient block (eq. (3) of
//! the paper).
//!
//! The factorization is unblocked — greedy pivoting needs every trailing
//! column norm after every step — but it **stops at the rank it keeps**:
//! the ID hands its [`Truncation`] rule to the factorization, which ends at
//! the first pivot the rule rejects. After `k` steps rows `0..k` of R are
//! final and no later step touches them, so `skel`, `T` and `U` have the
//! bits a full factorization truncated afterwards would give.

use crate::mat::{Mat, MatMut};
use crate::qr::{apply_reflector, house_gen};
use crate::tri::{solve_triangular_left, Diag, Triangle};

/// Result of a column-pivoted QR: packed factor, `tau`, and pivot order
/// (`jpvt[k]` = original index of the k-th pivoted column).
pub struct Cpqr {
    pub a: Mat,
    pub tau: Vec<f64>,
    pub jpvt: Vec<usize>,
}

/// Factor `a` with column pivoting. Returns the packed factor, pivots, and
/// the diagonal magnitudes of R (non-increasing, used for rank decisions).
pub fn cpqr_factor(a: Mat) -> (Cpqr, Vec<usize>, Vec<f64>) {
    let (f, rdiag) = cpqr_truncated(a, Truncation::Rank(usize::MAX));
    let pv = f.jpvt.clone();
    (f, pv, rdiag)
}

/// Column-pivoted QR that stops at the first step `rule` rejects. `tau` and
/// the returned `|diag(R)|` have one entry per completed step `k`; rows
/// `0..k` of the packed factor are the final rows of R and `jpvt[..k]` the
/// pivots. What lies below row `k` in columns `k..` is the unfactored
/// residual (its pivot column already swapped into place and scaled).
fn cpqr_truncated(mut a: Mat, rule: Truncation) -> (Cpqr, Vec<f64>) {
    let m = a.rows();
    let n = a.cols();
    let kmax = m.min(n);
    let mut tau = Vec::new();
    let mut rdiag = Vec::new();
    let mut jpvt: Vec<usize> = (0..n).collect();

    // Column norms, updated by downdating with periodic recomputation
    // (the classical geqp3 safeguard against cancellation).
    let mut norms: Vec<f64> = (0..n).map(|j| norm2(a.col(j))).collect();
    let mut norms_ref = norms.clone();

    let steps = match rule {
        Truncation::Rank(r) => kmax.min(r),
        _ => kmax,
    };
    let data = a.as_mut_slice();
    for k in 0..steps {
        // Pivot: swap the column with the largest residual norm into place.
        let (piv, _) = norms
            .iter()
            .enumerate()
            .skip(k)
            .fold(
                (k, -1.0),
                |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) },
            );
        if piv != k {
            let (lo, hi) = data.split_at_mut(piv * m);
            lo[k * m..(k + 1) * m].swap_with_slice(&mut hi[..m]);
            jpvt.swap(k, piv);
            norms.swap(k, piv);
            norms_ref.swap(k, piv);
        }

        // Householder reflector for column k, rows k..m.
        let (head, trail) = data.split_at_mut((k + 1) * m);
        let vk = &mut head[k * m + k..];
        let (t, beta) = house_gen(vk);
        let d = beta.abs();
        if !rule.keeps(k, d, rdiag.first().copied().unwrap_or(d)) {
            break;
        }
        tau.push(t);
        rdiag.push(d);

        // Apply to trailing columns and downdate their norms.
        if t != 0.0 {
            let mut c = MatMut::from_parts(m, trail.len() / m, m, &mut *trail);
            apply_reflector(&vk[1..], t, k, &mut c);
        }
        vk[0] = beta;

        for (cj, j) in trail.chunks_exact(m).zip(k + 1..) {
            if norms[j] != 0.0 {
                let temp = (cj[k] / norms[j]).abs();
                let temp = (1.0 - temp * temp).max(0.0);
                let temp2 = norms[j] / norms_ref[j];
                if temp * temp2 * temp2 <= 1e-14 {
                    // Downdate lost accuracy: recompute from scratch.
                    norms[j] = norm2(&cj[k + 1..]);
                    norms_ref[j] = norms[j];
                } else {
                    norms[j] *= temp.sqrt();
                }
            }
        }
    }

    (Cpqr { a, tau, jpvt }, rdiag)
}

fn norm2(v: &[f64]) -> f64 {
    let mut s = 0.0;
    for x in v {
        s += x * x;
    }
    s.sqrt()
}

/// Truncation rule for rank selection from the CPQR diagonal.
#[derive(Clone, Copy, Debug)]
pub enum Truncation {
    /// Keep `|R_kk| > tol` (absolute threshold).
    Absolute(f64),
    /// Keep `|R_kk| > tol * |R_00|` (relative threshold).
    Relative(f64),
    /// Fixed rank (clamped to `min(m, n)`).
    Rank(usize),
}

impl Truncation {
    /// Whether step `k` with pivot magnitude `d = |R_kk|` is kept, given
    /// `r0 = |R_00|`. The one predicate behind [`select_rank`] and the
    /// factorization's early stop.
    fn keeps(self, k: usize, d: f64, r0: f64) -> bool {
        match self {
            Truncation::Absolute(tol) => d > tol,
            Truncation::Relative(tol) => d > tol * r0,
            Truncation::Rank(r) => k < r,
        }
    }
}

/// Select the numerical rank from the non-increasing `|diag(R)|` sequence:
/// the number of leading entries the rule keeps.
pub fn select_rank(rdiag: &[f64], rule: Truncation) -> usize {
    let r0 = rdiag.first().copied().unwrap_or(0.0);
    rdiag
        .iter()
        .enumerate()
        .take_while(|&(k, &d)| rule.keeps(k, d, r0))
        .count()
}

/// A column interpolative decomposition `A ≈ A(:, skel) * interp` where
/// `interp = [I T] P^T` (so `interp(:, skel) = I`).
pub struct ColId {
    /// Selected (skeleton) column indices, in pivot order.
    pub skel: Vec<usize>,
    /// Interpolation coefficients `T` (`k x (n-k)`), mapping skeleton to the
    /// redundant columns in pivot order.
    pub t: Mat,
    /// Full pivot order (first `k` entries are `skel`; the order of the
    /// rest is where the factorization stopped, and pairs with the columns
    /// of `t`).
    pub jpvt: Vec<usize>,
}

impl ColId {
    pub fn rank(&self) -> usize {
        self.skel.len()
    }

    /// Dense interpolation matrix `X` (`k x n`) with `A ≈ A(:,skel) X`,
    /// `X(:, skel) = I`.
    pub fn interp_matrix(&self, n: usize) -> Mat {
        let k = self.rank();
        let mut x = Mat::zeros(k, n);
        for (p, &col) in self.jpvt.iter().enumerate() {
            if p < k {
                x[(p, col)] = 1.0;
            } else {
                for i in 0..k {
                    x[(i, col)] = self.t[(i, p - k)];
                }
            }
        }
        x
    }
}

/// Compute a column ID of `a` with the given truncation rule.
///
/// A numerically zero input yields rank 0 (empty skeleton) — the case of a
/// cluster whose entire far field vanishes.
pub fn col_id(a: Mat, rule: Truncation) -> ColId {
    let n = a.cols();
    let (f, _) = cpqr_truncated(a, rule);
    let k = f.tau.len();
    // T = R1^{-1} R2 with R1 = R[0..k, 0..k], R2 = R[0..k, k..n].
    let mut r2 = Mat::from_fn(
        k,
        n - k,
        |i, j| if i <= (j + k) { f.a[(i, j + k)] } else { 0.0 },
    );
    let r1 = Mat::from_fn(k, k, |i, j| if j >= i { f.a[(i, j)] } else { 0.0 });
    if k > 0 && n > k {
        solve_triangular_left(Triangle::Upper, Diag::NonUnit, r1.rf(), &mut r2.rm());
    }
    ColId {
        skel: f.jpvt[..k].to_vec(),
        t: r2,
        jpvt: f.jpvt,
    }
}

/// A row interpolative decomposition `A ≈ U * A(skel, :)` with `U(skel,:) = I`.
pub struct RowId {
    /// Selected (skeleton) row indices, in pivot order.
    pub skel: Vec<usize>,
    /// Interpolation matrix `U` (`m x k`), rows permuted back to the original
    /// order of `A`.
    pub u: Mat,
}

impl RowId {
    pub fn rank(&self) -> usize {
        self.skel.len()
    }
}

/// Compute a row ID of `a` (via a column ID of `a^T`).
///
/// This is the `batchedID` building block of Algorithm 1: for leaf nodes `U`
/// is the cluster basis `U_τ`; for inner nodes the two row blocks of `U` are
/// the transfer matrices `E_{ν1}, E_{ν2}`.
pub fn row_id(a: &Mat, rule: Truncation) -> RowId {
    let m = a.rows();
    let cid = col_id(a.transpose(), rule);
    let k = cid.rank();
    // U = P [I; T^T]: row jpvt[p] of U is e_p for p < k, else T(:, p-k)^T.
    let mut u = Mat::zeros(m, k);
    for (p, &row) in cid.jpvt.iter().enumerate() {
        if p < k {
            u[(row, p)] = 1.0;
        } else {
            for i in 0..k {
                u[(row, i)] = cid.t[(i, p - k)];
            }
        }
    }
    RowId { skel: cid.skel, u }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::rand::{gaussian_mat, random_low_rank};

    /// The seed's element-indexed full factorization, kept as the bitwise
    /// reference of the slice-based loop and of the early stop.
    fn cpqr_factor_ref(mut a: Mat) -> (Mat, Vec<f64>, Vec<usize>, Vec<f64>) {
        let m = a.rows();
        let n = a.cols();
        let kmax = m.min(n);
        let mut tau = vec![0.0; kmax];
        let mut jpvt: Vec<usize> = (0..n).collect();
        let mut norms: Vec<f64> = (0..n).map(|j| norm2(a.col(j))).collect();
        let mut norms_ref = norms.clone();
        for k in 0..kmax {
            let (piv, _) = norms
                .iter()
                .enumerate()
                .skip(k)
                .fold(
                    (k, -1.0),
                    |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) },
                );
            if piv != k {
                for r in 0..m {
                    let t = a[(r, k)];
                    a[(r, k)] = a[(r, piv)];
                    a[(r, piv)] = t;
                }
                jpvt.swap(k, piv);
                norms.swap(k, piv);
                norms_ref.swap(k, piv);
            }
            let alpha = a[(k, k)];
            let mut xnorm2 = 0.0;
            for i in (k + 1)..m {
                xnorm2 += a[(i, k)] * a[(i, k)];
            }
            let (t, beta) = if xnorm2 == 0.0 {
                (0.0, alpha)
            } else {
                let norm = (alpha * alpha + xnorm2).sqrt();
                let beta = if alpha >= 0.0 { -norm } else { norm };
                let scale = 1.0 / (alpha - beta);
                for i in (k + 1)..m {
                    a[(i, k)] *= scale;
                }
                ((beta - alpha) / beta, beta)
            };
            tau[k] = t;
            if t != 0.0 {
                for j in (k + 1)..n {
                    let mut s = a[(k, j)];
                    for i in (k + 1)..m {
                        s += a[(i, k)] * a[(i, j)];
                    }
                    s *= t;
                    a[(k, j)] -= s;
                    for i in (k + 1)..m {
                        let vik = a[(i, k)];
                        a[(i, j)] -= s * vik;
                    }
                }
            }
            a[(k, k)] = beta;
            for j in (k + 1)..n {
                if norms[j] != 0.0 {
                    let temp = (a[(k, j)] / norms[j]).abs();
                    let temp = (1.0 - temp * temp).max(0.0);
                    let temp2 = norms[j] / norms_ref[j];
                    if temp * temp2 * temp2 <= 1e-14 {
                        let mut s = 0.0;
                        for i in (k + 1)..m {
                            s += a[(i, j)] * a[(i, j)];
                        }
                        norms[j] = s.sqrt();
                        norms_ref[j] = norms[j];
                    } else {
                        norms[j] *= temp.sqrt();
                    }
                }
            }
        }
        let rdiag = (0..kmax).map(|i| a[(i, i)].abs()).collect();
        (a, tau, jpvt, rdiag)
    }

    /// The seed's ID: full factorization, then `select_rank`, then
    /// `T = R1⁻¹ R2`. Returns `(skel, U)` of the row ID of `a`.
    fn row_id_ref(a: &Mat, rule: Truncation) -> (Vec<usize>, Mat) {
        let (fa, _, jpvt, rdiag) = cpqr_factor_ref(a.transpose());
        let n = a.rows();
        let k = select_rank(&rdiag, rule);
        let mut r2 = Mat::from_fn(k, n - k, |i, j| fa[(i, j + k)]);
        let r1 = Mat::from_fn(k, k, |i, j| if j >= i { fa[(i, j)] } else { 0.0 });
        if k > 0 && n > k {
            solve_triangular_left(Triangle::Upper, Diag::NonUnit, r1.rf(), &mut r2.rm());
        }
        let mut u = Mat::zeros(n, k);
        for (p, &row) in jpvt.iter().enumerate() {
            for i in 0..k {
                u[(row, i)] = if p >= k {
                    r2[(i, p - k)]
                } else if i == p {
                    1.0
                } else {
                    0.0
                };
            }
        }
        (jpvt[..k].to_vec(), u)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Tall, wide, square and rank-deficient inputs (the last with an
    /// exactly-zero and a duplicated column).
    fn cpqr_cases() -> Vec<Mat> {
        let mut cases: Vec<Mat> = [(128, 64), (64, 128), (40, 40), (7, 1), (1, 9)]
            .iter()
            .map(|&(m, n)| gaussian_mat(m, n, (m * 37 + n) as u64))
            .collect();
        cases.push(random_low_rank(60, 90, 7, 0.5, 27));
        cases.push(random_low_rank(90, 60, 12, 0.7, 28));
        let mut a = gaussian_mat(30, 20, 29);
        a.col_mut(4).fill(0.0);
        let c1 = a.col(1).to_vec();
        a.col_mut(9).copy_from_slice(&c1);
        cases.push(a);
        cases
    }

    #[test]
    fn slice_loop_is_bitwise_the_seed_loop() {
        for a in cpqr_cases() {
            let (m, n) = (a.rows(), a.cols());
            let (wa, wtau, wpvt, wrd) = cpqr_factor_ref(a.clone());
            let (f, jpvt, rdiag) = cpqr_factor(a);
            assert_eq!(bits(f.a.as_slice()), bits(wa.as_slice()), "a {m}x{n}");
            assert_eq!(bits(&f.tau), bits(&wtau), "tau {m}x{n}");
            assert_eq!(jpvt, wpvt, "jpvt {m}x{n}");
            assert_eq!(bits(&rdiag), bits(&wrd), "rdiag {m}x{n}");
        }
    }

    #[test]
    fn early_stop_keeps_the_id_bits() {
        for a in cpqr_cases() {
            let scale = a.norm_max();
            for rule in [
                Truncation::Absolute(1e-9 * scale),
                Truncation::Absolute(0.3 * scale),
                Truncation::Absolute(1e9 * scale),
                Truncation::Relative(1e-10),
                Truncation::Relative(0.5),
                Truncation::Rank(0),
                Truncation::Rank(5),
                Truncation::Rank(1000),
            ] {
                let (skel, u) = row_id_ref(&a, rule);
                let id = row_id(&a, rule);
                let what = format!("{}x{} {rule:?}", a.rows(), a.cols());
                assert_eq!(id.skel, skel, "skel {what}");
                assert_eq!(bits(id.u.as_slice()), bits(u.as_slice()), "U {what}");
            }
        }
    }

    /// The seed's back-substitution `R1⁻¹ R2`, one column at a time.
    fn upper_solve_ref(r1: &Mat, r2: &mut Mat) {
        let k = r1.rows();
        for j in 0..r2.cols() {
            for i in (0..k).rev() {
                let mut s = r2[(i, j)];
                for l in (i + 1)..k {
                    s -= r1[(i, l)] * r2[(l, j)];
                }
                r2[(i, j)] = s / r1[(i, i)];
            }
        }
    }

    #[test]
    fn column_groups_are_bitwise_the_column_loop() {
        // The trailing update runs four columns per pass: across these
        // widths the trailing-column count n − k − 1 meets every residue
        // mod 4 at the same step k.
        let mut cases: Vec<Mat> = (8..12).map(|n| gaussian_mat(13, n, n as u64)).collect();
        // Rows 3.. exactly zero: every step from 3 on has tau = 0.
        let mut z = gaussian_mat(9, 11, 31);
        for j in 0..11 {
            z.col_mut(j)[3..].fill(0.0);
        }
        cases.push(z);
        for a in cases {
            let (m, n) = (a.rows(), a.cols());
            let (wa, wtau, wpvt, wrd) = cpqr_factor_ref(a.clone());
            let (f, jpvt, _) = cpqr_factor(a.clone());
            assert_eq!(bits(f.a.as_slice()), bits(wa.as_slice()), "a {m}x{n}");
            assert_eq!((bits(&f.tau), jpvt), (bits(&wtau), wpvt.clone()), "{m}x{n}");
            if m == 9 {
                assert!(f.tau[3..].iter().all(|&t| t == 0.0), "tau = 0 steps");
            }
            for rule in [Truncation::Relative(1e-12), Truncation::Rank(5)] {
                let k = select_rank(&wrd, rule);
                let r1 = Mat::from_fn(k, k, |i, j| if j >= i { wa[(i, j)] } else { 0.0 });
                let mut t = Mat::from_fn(k, n - k, |i, j| wa[(i, j + k)]);
                upper_solve_ref(&r1, &mut t);
                let id = col_id(a.clone(), rule);
                assert_eq!(id.skel, wpvt[..k], "skel {m}x{n} {rule:?}");
                // The early stop leaves the redundant columns unpivoted:
                // match them by original index.
                for (p, col) in wpvt.iter().enumerate().skip(k) {
                    let q = id.jpvt.iter().position(|c| c == col).unwrap();
                    let (got, want) = (id.t.col(q - k), t.col(p - k));
                    assert_eq!(bits(got), bits(want), "T {m}x{n} {rule:?} col {col}");
                }
            }
        }
    }

    #[test]
    fn cpqr_reconstructs_with_pivots() {
        let a = gaussian_mat(8, 6, 21);
        let (f, jpvt, _) = cpqr_factor(a.clone());
        // Rebuild Q from the packed factor by applying reflectors to I.
        let qf = crate::qr::QrFactor {
            a: f.a.clone(),
            tau: f.tau.clone(),
        };
        let q = qf.q_thin();
        let r = qf.r();
        let qr = matmul(Op::NoTrans, Op::NoTrans, q.rf(), r.rf());
        // qr should equal A(:, jpvt).
        let ap = a.select_cols(&jpvt);
        let mut d = qr;
        d.axpy(-1.0, &ap);
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn rdiag_nonincreasing() {
        let a = gaussian_mat(30, 20, 22);
        let (_, _, rd) = cpqr_factor(a);
        for w in rd.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "rdiag must be (nearly) non-increasing");
        }
    }

    #[test]
    fn col_id_reconstructs_low_rank() {
        let a = random_low_rank(20, 30, 6, 0.4, 23);
        let id = col_id(a.clone(), Truncation::Relative(1e-12));
        assert!(id.rank() >= 6 && id.rank() <= 10, "rank {}", id.rank());
        let x = id.interp_matrix(30);
        let askel = a.select_cols(&id.skel);
        let rec = matmul(Op::NoTrans, Op::NoTrans, askel.rf(), x.rf());
        let mut d = rec;
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-9 * a.norm_max());
    }

    #[test]
    fn row_id_reconstructs_and_has_identity_on_skeleton() {
        let a = random_low_rank(25, 14, 5, 0.3, 24);
        let id = row_id(&a, Truncation::Relative(1e-12));
        let k = id.rank();
        // U(skel, :) == I.
        for (p, &row) in id.skel.iter().enumerate() {
            for c in 0..k {
                let want = if c == p { 1.0 } else { 0.0 };
                assert!((id.u[(row, c)] - want).abs() < 1e-14);
            }
        }
        let askel = a.select_rows(&id.skel);
        let rec = matmul(Op::NoTrans, Op::NoTrans, id.u.rf(), askel.rf());
        let mut d = rec;
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-9 * a.norm_max());
    }

    #[test]
    fn absolute_truncation_bounds_error() {
        let a = random_low_rank(40, 40, 20, 0.5, 25);
        let tol = 1e-4;
        let id = row_id(&a, Truncation::Absolute(tol));
        let askel = a.select_rows(&id.skel);
        let rec = matmul(Op::NoTrans, Op::NoTrans, id.u.rf(), askel.rf());
        let mut d = rec;
        d.axpy(-1.0, &a);
        // ID error is bounded by a modest polynomial factor times the
        // discarded R diagonal.
        assert!(d.norm_fro() < 100.0 * tol, "err {}", d.norm_fro());
    }

    #[test]
    fn fixed_rank_truncation() {
        let a = gaussian_mat(12, 12, 26);
        let id = row_id(&a, Truncation::Rank(4));
        assert_eq!(id.rank(), 4);
    }

    #[test]
    fn select_rank_rules() {
        let rd = [10.0, 5.0, 1.0, 1e-8];
        assert_eq!(select_rank(&rd, Truncation::Absolute(1e-6)), 3);
        assert_eq!(select_rank(&rd, Truncation::Relative(1e-3)), 3);
        assert_eq!(select_rank(&rd, Truncation::Relative(0.2)), 2);
        assert_eq!(select_rank(&rd, Truncation::Rank(10)), 4);
    }
}

//! Householder QR factorization: blocked compact-WY (LAPACK `geqrt`-style)
//! over an unblocked panel kernel.
//!
//! The factor is stored compactly: R in the upper triangle, the Householder
//! vectors below the diagonal with implicit unit leading entry, and the
//! scalar factors `tau` separately. This is the work-horse of the adaptive
//! convergence test (Algorithm 1, lines 11/29 — "QR of Y_loc, inspect
//! min |R_ii|"), of sample orthonormalization and of the ULV rotations.
//!
//! # Two levels
//!
//! * **Panel kernel** (`house_gen` + `house_apply`, one reflector at a
//!   time, applied to the columns on its right four at a time).
//!   [`qr_in_place`] is this kernel alone when `min(m, n) ≤ NB`.
//! * **Block reflector.** Above that, `NB` columns at a time are factored
//!   by the panel kernel, the panel's reflectors are aggregated into
//!   `Q_p = I − V T Vᵀ` (`V` unit lower trapezoidal, `T` upper triangular,
//!   the compact-WY form) and the trailing columns are updated as
//!   `C ← C − V (Tᵀ (Vᵀ C))` through three [`gemm`] calls.
//!   [`QrFactor::apply_qt_block`] / [`QrFactor::apply_q_block`] (and
//!   [`QrFactor::q_thin`]) apply `Q` to a block the same way. `T` is
//!   rebuilt from the stored reflectors per application (one `NB`-wide
//!   `VᵀV` product per panel, `NB / 2n` of the application's flops for an
//!   `n`-column block) rather than kept: a factor outlives its block
//!   applications — the ULV keeps every node's for the solve sweeps — and
//!   stored `T` panels would add `NB / m` to its resident size.
//!
//! # Which apply to call
//!
//! The block form is the fast one for *wide* blocks (the ULV rotation
//! `D̃ = Qᵀ D P`, forming `Q`). Its GEMMs choose their kernel from the full
//! shape of the block, so column `j` of the result may depend in the last
//! bits on how many columns ride along. The level-2
//! [`QrFactor::apply_q`] / [`QrFactor::apply_qt`] run on strips: up to 32
//! columns are interleaved so that row `i` of the strip holds their
//! entries `i` (`crate::strip`), and every reflector is swept over the
//! strip with one vector lane per column. Each lane's operation sequence
//! (`s = c₀`, `s += vᵢ·xᵢ` in `i` order, `s *= τ`, `c₀ −= s`, `xᵢ −= s·vᵢ`)
//! is the one its column has alone, a single column runs the one-lane
//! instance in place, and nothing is fused into a multiply-add. So
//! **column `j` of their result is bit-identical at every right-hand-side
//! width**, which is the contract the blocked ULV solve sweep (`UlvSweep`,
//! `shard_ulv_solve_into`) pins its blocked == sequential identity on. They
//! are the right-hand-side kernel; the block form is the factorization kernel —
//! the same split as [`gemm`] / [`gemm_rhs`](crate::gemm::gemm_rhs). The
//! factorizations' own one-reflector trailing updates (the panel kernel,
//! CPQR) keep the four-column groups of `house_apply`.

use crate::gemm::{gemm, Op};
use crate::mat::{Mat, MatMut, MatRef};
use crate::strip::{for_strips, StripKernel};

/// Panel width of the blocked factorization and of the block reflectors.
pub const NB: usize = 32;

/// Compact Householder QR factor of an `m x n` matrix.
pub struct QrFactor {
    /// Packed factor: R upper, Householder vectors lower.
    pub a: Mat,
    /// Householder scalars, length `min(m, n)`.
    pub tau: Vec<f64>,
}

/// Factor `a` in place (consumes and returns the packed factor).
pub fn qr_factor(mut a: Mat) -> QrFactor {
    let tau = qr_in_place(&mut a.rm());
    QrFactor { a, tau }
}

/// In-place Householder QR on a view; returns `tau`.
pub fn qr_in_place(a: &mut MatMut<'_>) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let kmax = m.min(n);
    let mut tau = vec![0.0; kmax];
    if kmax <= NB {
        // One panel: the level-2 kernel sweeps every column itself.
        qr_panel(a, &mut tau);
        return tau;
    }
    let mut work = BlockWork::new(m, n - NB);
    for k0 in (0..kmax).step_by(NB) {
        let jb = NB.min(kmax - k0);
        let sub = a.rb_mut().into_view(k0, k0, m - k0, n - k0);
        let (mut panel, mut trail) = sub.split_cols(jb);
        qr_panel(&mut panel, &mut tau[k0..k0 + jb]);
        work.apply(panel.rb(), &tau[k0..k0 + jb], Op::Trans, &mut trail);
    }
    tau
}

/// Unblocked Householder QR of `tau.len()` columns of `a`, each reflector
/// applied to every column to its right.
fn qr_panel(a: &mut MatMut<'_>, tau: &mut [f64]) {
    for k in 0..tau.len() {
        let (mut head, mut trail) = a.rb_mut().split_cols(k + 1);
        let vk = &mut head.col_mut(k)[k..];
        let (t, beta) = house_gen(vk);
        tau[k] = t;
        if t != 0.0 {
            apply_reflector(&vk[1..], t, k, &mut trail);
        }
        vk[0] = beta;
    }
}

/// Apply the reflector `(v_tail, tau)` acting on rows `k..` to every column
/// of `c`, four columns per pass (the factorizations' trailing update).
pub(crate) fn apply_reflector(v_tail: &[f64], tau: f64, k: usize, c: &mut MatMut<'_>) {
    c.for_column_groups(
        |g| house_apply(v_tail, tau, k, g),
        |g| house_apply(v_tail, tau, k, g),
    );
}

/// Generate the Householder reflector annihilating `x[1..]`: overwrites
/// `x[1..]` with the reflector's tail (unit leading entry implicit), leaves
/// `x[0]` to the caller, and returns `(tau, beta)` where `beta` is the
/// resulting diagonal value of R.
pub(crate) fn house_gen(x: &mut [f64]) -> (f64, f64) {
    let (alpha, tail) = x.split_first_mut().expect("house_gen: empty column");
    let alpha = *alpha;
    let mut xnorm2 = 0.0;
    for v in tail.iter() {
        xnorm2 += v * v;
    }
    if xnorm2 == 0.0 {
        return (0.0, alpha);
    }
    let norm = (alpha * alpha + xnorm2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in tail.iter_mut() {
        *v *= scale;
    }
    (tau, beta)
}

/// `c ← (I − tau v vᵀ) c` for `v = [1; v_tail]` on each of the `G` columns
/// `c[g][r0..]` (each `v_tail.len() + 1` long). Per column the sequence is
/// fixed — `s = c₀; s += vᵢ·xᵢ` in `i` order, `s *= tau`, `c₀ −= s`,
/// `xᵢ −= s·vᵢ` — so its bits do not depend on `G`; the group shares each
/// `vᵢ` load and runs `G` independent add chains.
#[inline(always)]
pub(crate) fn house_apply<const G: usize>(v_tail: &[f64], tau: f64, r0: usize, c: [&mut [f64]; G]) {
    let n = v_tail.len();
    let c = c.map(|col| &mut col[r0..r0 + n + 1]);
    let mut s: [f64; G] = std::array::from_fn(|g| c[g][0]);
    for (i, &v) in v_tail.iter().enumerate() {
        for g in 0..G {
            s[g] += v * c[g][i + 1];
        }
    }
    for (g, col) in c.into_iter().enumerate() {
        let s = s[g] * tau;
        let (c0, ct) = col.split_first_mut().expect("house_apply: empty column");
        *c0 -= s;
        for (v, x) in v_tail.iter().zip(ct.iter_mut()) {
            *x -= s * v;
        }
    }
}

/// A factor's `Q` (or `Qᵀ`, when `transpose`) as a strip kernel.
struct Reflect<'a> {
    f: &'a QrFactor,
    transpose: bool,
}

impl StripKernel for Reflect<'_> {
    #[inline(always)]
    fn run<const L: usize>(&self, x: &mut [[f64; L]]) {
        reflect_strip(self.f, self.transpose, x);
    }
}

/// Apply every stored reflector of `f` to the `L`-column strip `x` (row
/// `i` holds the columns' entries `i`): forward for `Qᵀ`, in reverse for
/// `Q`, skipping the `tau = 0` identities. Per lane the sequence of a
/// reflector is `house_apply`'s — `s = c₀; s += vᵢ·xᵢ` in `i` order,
/// `s *= tau`, `c₀ −= s`, `xᵢ −= s·vᵢ` — so its bits do not depend on `L`.
#[inline(always)]
fn reflect_strip<const L: usize>(f: &QrFactor, transpose: bool, x: &mut [[f64; L]]) {
    let k = f.tau.len();
    for step in 0..k {
        let r = if transpose { step } else { k - 1 - step };
        let tau = f.tau[r];
        if tau == 0.0 {
            continue;
        }
        let v_tail = &f.a.col(r)[r + 1..];
        let (c0, xs) = x[r..].split_first_mut().expect("reflector row");
        let mut s = *c0;
        for (&v, xi) in v_tail.iter().zip(xs.iter()) {
            for g in 0..L {
                s[g] += v * xi[g];
            }
        }
        for g in 0..L {
            s[g] *= tau;
            c0[g] -= s[g];
        }
        for (&v, xi) in v_tail.iter().zip(xs.iter_mut()) {
            // The rows of this loop are independent, and LLVM's loop
            // vectorizer would run eight of them per vector through gathers
            // and scatters. An opaque `v` keeps the loop scalar over rows,
            // so the row's lanes fill the vectors instead (half the time on
            // AVX-512). One lane keeps the vectorized row loop.
            let v = if L > 1 { std::hint::black_box(v) } else { v };
            for g in 0..L {
                xi[g] -= s[g] * v;
            }
        }
    }
}

/// Scratch of a block-reflector application: the panel's explicit `V`,
/// `G = VᵀV`, the compact-WY factor `T` and the two `NB x n` products.
struct BlockWork {
    v: Mat,
    g: Mat,
    t: Mat,
    w: Mat,
    tw: Mat,
}

impl BlockWork {
    /// Room for panels of up to `m` rows applied to up to `n` columns.
    fn new(m: usize, n: usize) -> Self {
        BlockWork {
            v: Mat::zeros(m, NB),
            g: Mat::zeros(NB, NB),
            t: Mat::zeros(NB, NB),
            w: Mat::zeros(NB, n),
            tw: Mat::zeros(NB, n),
        }
    }

    /// `C ← (I − V op(T) Vᵀ) C` for the reflectors stored in `panel`
    /// (packed: tails below the diagonal) with scalars `tau`: `op = Trans`
    /// applies the panel's `Qᵀ`, `NoTrans` its `Q`.
    fn apply(&mut self, panel: MatRef<'_>, tau: &[f64], op: Op, c: &mut MatMut<'_>) {
        let (mp, jb, n) = (panel.rows(), tau.len(), c.cols());
        if n == 0 {
            return;
        }
        // Explicit V: unit diagonal, zeros above it, the stored tails below.
        let mut v = self.v.view_mut(0, 0, mp, jb);
        for j in 0..jb {
            let dst = v.col_mut(j);
            dst[..j].fill(0.0);
            dst[j] = 1.0;
            dst[j + 1..].copy_from_slice(&panel.col(j)[j + 1..]);
        }
        let v = v.rb();
        // H_0 ⋯ H_{jb-1} = I − V T Vᵀ with T upper triangular, built column
        // by column from G = VᵀV: T[..i, i] = −tau_i · T[..i, ..i] · G[..i, i],
        // T[i, i] = tau_i (a tau_i = 0 column is zero: H_i is the identity).
        let mut g = self.g.view_mut(0, 0, jb, jb);
        gemm(Op::Trans, Op::NoTrans, 1.0, v, v, 0.0, g.rb_mut());
        let mut t = self.t.view_mut(0, 0, jb, jb);
        t.fill(0.0);
        for i in 0..jb {
            for r in 0..i {
                let mut s = 0.0;
                for l in r..i {
                    s += t.at(r, l) * g.at(l, i);
                }
                *t.at_mut(r, i) = -tau[i] * s;
            }
            *t.at_mut(i, i) = tau[i];
        }
        let (mut w, mut tw) = (self.w.view_mut(0, 0, jb, n), self.tw.view_mut(0, 0, jb, n));
        gemm(Op::Trans, Op::NoTrans, 1.0, v, c.rb(), 0.0, w.rb_mut());
        gemm(op, Op::NoTrans, 1.0, t.rb(), w.rb(), 0.0, tw.rb_mut());
        gemm(Op::NoTrans, Op::NoTrans, -1.0, v, tw.rb(), 1.0, c.rb_mut());
    }
}

impl QrFactor {
    pub fn rows(&self) -> usize {
        self.a.rows()
    }

    pub fn cols(&self) -> usize {
        self.a.cols()
    }

    /// Absolute values of the diagonal of R (the adaptive convergence
    /// statistic of Algorithm 1).
    pub fn r_diag_abs(&self) -> Vec<f64> {
        (0..self.tau.len()).map(|i| self.a[(i, i)].abs()).collect()
    }

    /// Smallest `|R_ii|`; `None` for an empty factor.
    ///
    /// A NaN on the diagonal (a poisoned input) makes the result `+∞`: such
    /// a factor says nothing about rank, and a caller that reads
    /// `min > threshold` as "not yet converged" (`baselines::peel`) must
    /// keep sampling rather than accept it.
    pub fn min_r_diag_abs(&self) -> Option<f64> {
        let d = self.r_diag_abs();
        if d.iter().any(|x| x.is_nan()) {
            return Some(f64::INFINITY);
        }
        d.into_iter().min_by(f64::total_cmp)
    }

    /// The upper-triangular factor R (`min(m,n) x n`).
    pub fn r(&self) -> Mat {
        let k = self.tau.len();
        Mat::from_fn(
            k,
            self.a.cols(),
            |i, j| if j >= i { self.a[(i, j)] } else { 0.0 },
        )
    }

    /// The thin orthonormal factor Q (`m x min(m,n)`), formed through the
    /// block reflectors.
    pub fn q_thin(&self) -> Mat {
        let m = self.a.rows();
        let k = self.tau.len();
        let mut q = Mat::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = 1.0;
        }
        self.apply_q_block(&mut q.rm());
        q
    }

    /// `c <- Q c`, one reflector at a time in reverse order. Column `j` of
    /// the result does not depend on the other columns of `c` (see the
    /// module docs).
    pub fn apply_q(&self, c: &mut MatMut<'_>) {
        assert_eq!(c.rows(), self.a.rows(), "apply_q: row mismatch");
        for_strips(
            c,
            &Reflect {
                f: self,
                transpose: false,
            },
        );
    }

    /// `c <- Q^T c`, one reflector at a time in forward order; the same
    /// column-independence as [`Self::apply_q`].
    pub fn apply_qt(&self, c: &mut MatMut<'_>) {
        assert_eq!(c.rows(), self.a.rows(), "apply_qt: row mismatch");
        for_strips(
            c,
            &Reflect {
                f: self,
                transpose: true,
            },
        );
    }

    /// `c <- Q c` through the block reflectors (panels in reverse order):
    /// the level-3 form for wide `c`.
    pub fn apply_q_block(&self, c: &mut MatMut<'_>) {
        self.apply_block(Op::NoTrans, c);
    }

    /// `c <- Q^T c` through the block reflectors (panels in forward order):
    /// the level-3 form for wide `c`.
    pub fn apply_qt_block(&self, c: &mut MatMut<'_>) {
        self.apply_block(Op::Trans, c);
    }

    fn apply_block(&self, op: Op, c: &mut MatMut<'_>) {
        let m = self.a.rows();
        assert_eq!(c.rows(), m, "apply_block: row mismatch");
        let (k, n) = (self.tau.len(), c.cols());
        let mut work = BlockWork::new(m, n);
        let mut one = |k0: usize| {
            let jb = NB.min(k - k0);
            let panel = self.a.view(k0, k0, m - k0, jb);
            let mut rows = c.rb_mut().into_view(k0, 0, m - k0, n);
            work.apply(panel, &self.tau[k0..k0 + jb], op, &mut rows);
        };
        let panels = (0..k).step_by(NB);
        match op {
            Op::Trans => panels.for_each(&mut one),
            Op::NoTrans => panels.rev().for_each(&mut one),
        }
    }
}

/// Orthonormalize the columns of `a` (thin Q of its QR factorization).
pub fn orthonormalize(a: Mat) -> Mat {
    qr_factor(a).q_thin()
}

/// Compute only `|diag(R)|` of the QR of a view, without keeping the factor.
/// This is the exact statistic the batched convergence test needs.
pub fn r_diag_abs_of(a: MatRef<'_>, work: &mut Mat) -> Vec<f64> {
    if work.rows() != a.rows() || work.cols() != a.cols() {
        *work = Mat::zeros(a.rows(), a.cols());
    }
    work.rm().copy_from(a);
    let tau = qr_in_place(&mut work.rm());
    (0..tau.len()).map(|i| work[(i, i)].abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::rand::gaussian_mat;

    /// The seed's element-indexed loop, kept as the bitwise reference of
    /// the slice-based panel kernel.
    fn qr_in_place_ref(a: &mut MatMut<'_>) -> Vec<f64> {
        let m = a.rows();
        let n = a.cols();
        let kmax = m.min(n);
        let mut tau = vec![0.0; kmax];
        for k in 0..kmax {
            let alpha = a.at(k, k);
            let mut xnorm2 = 0.0;
            for i in (k + 1)..m {
                let v = a.at(i, k);
                xnorm2 += v * v;
            }
            let (t, beta) = if xnorm2 == 0.0 {
                (0.0, alpha)
            } else {
                let norm = (alpha * alpha + xnorm2).sqrt();
                let beta = if alpha >= 0.0 { -norm } else { norm };
                let scale = 1.0 / (alpha - beta);
                for i in (k + 1)..m {
                    *a.at_mut(i, k) *= scale;
                }
                ((beta - alpha) / beta, beta)
            };
            tau[k] = t;
            if t != 0.0 {
                for j in (k + 1)..n {
                    let mut s = a.at(k, j);
                    for i in (k + 1)..m {
                        s += a.at(i, k) * a.at(i, j);
                    }
                    s *= t;
                    *a.at_mut(k, j) -= s;
                    for i in (k + 1)..m {
                        let vik = a.at(i, k);
                        *a.at_mut(i, j) -= s * vik;
                    }
                }
            }
            *a.at_mut(k, k) = beta;
        }
        tau
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn panel_kernel_is_bitwise_the_seed_loop() {
        let mut shapes = vec![(12, 1), (1, 1), (40, 17), (17, 40), (32, 32), (128, 64)];
        shapes.extend([(70, 70), (50, 90)]);
        for (m, n) in shapes {
            let mut a = gaussian_mat(m, n, (m * 131 + n) as u64);
            if m > 3 && n > 6 {
                // A duplicate and an exactly-zero column: tau = 0 steps.
                let c0 = a.col(0).to_vec();
                a.col_mut(3).copy_from_slice(&c0);
                a.col_mut(5).fill(0.0);
            }
            let mut want = a.clone();
            let tau_want = qr_in_place_ref(&mut want.rm());
            let mut got = a.clone();
            let mut tau = vec![0.0; m.min(n)];
            qr_panel(&mut got.rm(), &mut tau);
            assert_eq!(bits(&tau), bits(&tau_want), "tau {m}x{n}");
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "a {m}x{n}");
            if m.min(n) <= NB {
                let mut via = a.clone();
                let tau_via = qr_in_place(&mut via.rm());
                assert_eq!(bits(&tau_via), bits(&tau_want), "entry tau {m}x{n}");
                assert_eq!(bits(via.as_slice()), bits(want.as_slice()));
            }
        }
    }

    #[test]
    fn every_tier_reflects_columnwise_as_the_column_kernel() {
        // Column 7 is zero: its reflector is a tau = 0 identity.
        let mut a = gaussian_mat(90, 70, 19);
        a.col_mut(7).fill(0.0);
        let f = qr_factor(a);
        assert_eq!(f.tau[7], 0.0);
        let c0 = gaussian_mat(90, 67, 20);
        for tier in crate::strip::host_tiers() {
            for d in [1, 2, 31, 32, 33, 64, 67] {
                for transpose in [false, true] {
                    let mut want = c0.view(0, 0, 90, d).to_mat();
                    for j in 0..d {
                        let col = want.col_mut(j);
                        let mut one = |r: usize| {
                            if f.tau[r] != 0.0 {
                                house_apply(&f.a.col(r)[r + 1..], f.tau[r], r, [&mut *col]);
                            }
                        };
                        if transpose {
                            (0..70).for_each(&mut one);
                        } else {
                            (0..70).rev().for_each(&mut one);
                        }
                    }
                    let mut got = c0.view(0, 0, 90, d).to_mat();
                    let kernel = Reflect { f: &f, transpose };
                    crate::strip::for_strips_on(tier, &mut got.rm(), &kernel);
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "{tier:?} width {d} transpose {transpose}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_rdiag_matches_panel_kernel() {
        for (m, n) in [
            (200, 33),
            (64, 64),
            (90, 65),
            (97, 97),
            (80, 130),
            (300, 130),
        ] {
            let a = gaussian_mat(m, n, (m * 7 + n) as u64);
            let mut p = a.clone();
            let mut tau = vec![0.0; m.min(n)];
            qr_panel(&mut p.rm(), &mut tau);
            let f = qr_factor(a);
            for i in 0..tau.len() {
                let (want, got) = (p[(i, i)].abs(), f.a[(i, i)].abs());
                assert!(
                    (want - got).abs() <= 1e-13 * want.max(1e-300),
                    "{m}x{n} |R_{i}{i}|: {got} vs {want}"
                );
            }
        }
    }

    fn reconstruct_err(a: &Mat) -> f64 {
        let f = qr_factor(a.clone());
        let q = f.q_thin();
        let r = f.r();
        let qr = matmul(Op::NoTrans, Op::NoTrans, q.rf(), r.rf());
        let mut d = qr;
        d.axpy(-1.0, a);
        d.norm_max() / a.norm_max().max(1.0)
    }

    #[test]
    fn reconstructs_tall_square_wide() {
        for (m, n) in [(10, 4), (6, 6), (4, 9), (1, 1), (12, 1)] {
            let a = gaussian_mat(m, n, (m * 100 + n) as u64);
            assert!(reconstruct_err(&a) < 1e-13, "QR failed for {m}x{n}");
        }
    }

    #[test]
    fn q_is_orthonormal() {
        let a = gaussian_mat(20, 7, 11);
        let q = qr_factor(a).q_thin();
        let qtq = matmul(Op::Trans, Op::NoTrans, q.rf(), q.rf());
        let mut d = qtq;
        d.axpy(-1.0, &Mat::eye(7));
        assert!(d.norm_max() < 1e-13);
    }

    #[test]
    fn qt_q_roundtrip() {
        let a = gaussian_mat(9, 5, 12);
        let f = qr_factor(a);
        let c0 = gaussian_mat(9, 3, 13);
        let mut c = c0.clone();
        f.apply_qt(&mut c.rm());
        f.apply_q(&mut c.rm());
        let mut d = c;
        d.axpy(-1.0, &c0);
        assert!(d.norm_max() < 1e-13);
    }

    #[test]
    fn rank_deficiency_shows_in_r_diag() {
        // Rank-3 matrix: |R_44| must collapse.
        let a = crate::rand::random_low_rank(12, 8, 3, 0.9, 5);
        let f = qr_factor(a);
        let d = f.r_diag_abs();
        assert!(d[3] < 1e-10 * d[0].max(1e-300));
    }

    #[test]
    fn min_r_diag_matches_helper() {
        let a = gaussian_mat(16, 6, 17);
        let f = qr_factor(a.clone());
        let mut work = Mat::zeros(0, 0);
        let d = r_diag_abs_of(a.rf(), &mut work);
        let want = f.min_r_diag_abs().unwrap();
        let got = d.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((want - got).abs() < 1e-14);
    }

    #[test]
    fn zero_matrix_qr() {
        let a = Mat::zeros(5, 3);
        let f = qr_factor(a);
        assert_eq!(f.min_r_diag_abs().unwrap(), 0.0);
    }

    #[test]
    fn nan_diagonal_reads_as_unconverged() {
        let mut a = gaussian_mat(12, 6, 18);
        a[(7, 4)] = f64::NAN;
        let f = qr_factor(a);
        assert!(f.r_diag_abs()[4].is_nan());
        let min = f.min_r_diag_abs().unwrap();
        assert_eq!(min, f64::INFINITY);
        // The convergence reading of `baselines::peel`: not converged.
        assert!(min > 1e-8);
    }
}

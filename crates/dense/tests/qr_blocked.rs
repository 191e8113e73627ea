//! The blocked (compact-WY) Householder path: shapes that straddle one and
//! several `NB = 32` panels, which the small-matrix QR tests never reach.

use h2_dense::{gaussian_mat, matmul, qr_factor, random_low_rank, Mat, Op, QrFactor};

/// Column counts around one, two, three and four panels.
const COLS: [usize; 5] = [33, 64, 65, 97, 130];

/// Tall, square and wide shapes for every column count.
fn shapes() -> Vec<(usize, usize)> {
    COLS.iter()
        .flat_map(|&n| [(2 * n + 7, n), (n, n), (n - 20, n)])
        .collect()
}

fn max_abs_diff(a: &Mat, b: &Mat) -> f64 {
    let mut d = a.clone();
    d.axpy(-1.0, b);
    d.norm_max()
}

/// `‖QR − A‖` and `‖QᵀQ − I‖` (max norm, relative to `‖A‖`).
fn check_factor(a: &Mat, what: &str) -> QrFactor {
    let f = qr_factor(a.clone());
    let (q, r) = (f.q_thin(), f.r());
    let k = a.rows().min(a.cols());
    assert_eq!((q.rows(), q.cols()), (a.rows(), k), "{what}: Q shape");
    let qr = matmul(Op::NoTrans, Op::NoTrans, q.rf(), r.rf());
    let scale = a.norm_max().max(1.0);
    assert!(max_abs_diff(&qr, a) < 1e-13 * scale, "{what}: QR != A");
    let qtq = matmul(Op::Trans, Op::NoTrans, q.rf(), q.rf());
    assert!(
        max_abs_diff(&qtq, &Mat::eye(k)) < 1e-13,
        "{what}: Q not orthonormal"
    );
    f
}

#[test]
fn blocked_qr_reconstructs_across_panel_boundaries() {
    for (m, n) in shapes() {
        let a = gaussian_mat(m, n, (m * 1000 + n) as u64);
        check_factor(&a, &format!("{m}x{n}"));
    }
}

#[test]
fn blocked_qr_of_rank_deficient_input() {
    // Rank 40 in 97 columns: the reflectors of the last two panels act on a
    // numerically zero residual.
    let a = random_low_rank(150, 97, 40, 0.9, 7);
    let f = check_factor(&a, "rank-40 150x97");
    let d = f.r_diag_abs();
    assert!(d[40..].iter().all(|&x| x < 1e-10 * d[0]));
}

#[test]
fn zero_column_inside_a_panel() {
    // A column that is exactly zero from its diagonal down gives `tau = 0`
    // in the middle of a panel's `T`: that reflector must be the identity in
    // the block form too.
    for (m, n, z) in [(120, 70, 40), (90, 90, 10), (64, 130, 33)] {
        let mut a = gaussian_mat(m, n, (m + n + z) as u64);
        a.col_mut(z).fill(0.0);
        let f = check_factor(&a, &format!("{m}x{n} zero col {z}"));
        assert_eq!(f.tau[z], 0.0, "{m}x{n}: tau of the zero column");
    }
    let f = check_factor(&Mat::zeros(70, 40), "all-zero 70x40");
    assert!(f.tau.iter().all(|&t| t == 0.0));
}

#[test]
fn block_apply_matches_level2_apply() {
    for (m, n) in shapes() {
        let f = qr_factor(gaussian_mat(m, n, (m * 31 + n) as u64));
        for d in [1, 5, m] {
            let c0 = gaussian_mat(m, d, (m + n + d) as u64);
            let scale = c0.norm_max();
            for transpose in [true, false] {
                let (mut blocked, mut level2) = (c0.clone(), c0.clone());
                if transpose {
                    f.apply_qt_block(&mut blocked.rm());
                    f.apply_qt(&mut level2.rm());
                } else {
                    f.apply_q_block(&mut blocked.rm());
                    f.apply_q(&mut level2.rm());
                }
                assert!(
                    max_abs_diff(&blocked, &level2) < 1e-13 * scale,
                    "{m}x{n}, {d} columns, transpose {transpose}"
                );
            }
        }
    }
}

#[test]
fn q_thin_is_the_block_form_of_q() {
    for (m, n) in [(200, 97), (65, 65), (45, 65)] {
        let f = qr_factor(gaussian_mat(m, n, (m * 3 + n) as u64));
        let k = m.min(n);
        let mut want = Mat::zeros(m, k);
        for i in 0..k {
            want[(i, i)] = 1.0;
        }
        f.apply_q(&mut want.rm());
        assert!(max_abs_diff(&f.q_thin(), &want) < 1e-13, "{m}x{n}");
    }
}

/// Widths around the 32-column strips of the level-2 kernel: single
/// columns (run in place), partial strips, exact strips and strips plus a
/// partial one.
const WIDTHS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 67];

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Q c` (or `Qᵀ c`) for one column, one reflector at a time: `s = c₀`,
/// `s += vᵢ·xᵢ` in `i` order, `s *= τ`, `c₀ −= s`, `xᵢ −= s·vᵢ`, with the
/// `τ = 0` identities skipped.
fn apply_ref(f: &QrFactor, c: &mut [f64], transpose: bool) {
    let k = f.tau.len();
    let order: Vec<usize> = if transpose {
        (0..k).collect()
    } else {
        (0..k).rev().collect()
    };
    for r in order {
        let tau = f.tau[r];
        if tau == 0.0 {
            continue;
        }
        let v = &f.a.col(r)[r + 1..];
        let mut s = c[r];
        for (i, vi) in v.iter().enumerate() {
            s += vi * c[r + 1 + i];
        }
        s *= tau;
        c[r] -= s;
        for (i, vi) in v.iter().enumerate() {
            c[r + 1 + i] -= s * vi;
        }
    }
}

#[test]
fn level2_apply_is_column_invariant() {
    // The contract that keeps the solve sweep on the level-2 kernel: column
    // j of a wide application equals the single-column application, bit for
    // bit, at every width — whether the column rides in a full strip or a
    // partial one — and each single column equals the
    // reference loop. Column 10 is zero, so its reflector has tau = 0: an
    // identity the reference skips.
    let mut a = gaussian_mat(150, 97, 41);
    a.col_mut(10).fill(0.0);
    let f = qr_factor(a);
    assert_eq!(f.tau[10], 0.0, "tau of the zero column");
    let c0 = gaussian_mat(150, 67, 42);
    let apply = |c: &mut h2_dense::MatMut<'_>, transpose: bool| {
        if transpose {
            f.apply_qt(c);
        } else {
            f.apply_q(c);
        }
    };
    for transpose in [true, false] {
        let singles: Vec<Mat> = (0..67)
            .map(|j| {
                let mut one = c0.view(0, j, 150, 1).to_mat();
                apply(&mut one.rm(), transpose);
                let mut want = c0.col(j).to_vec();
                apply_ref(&f, &mut want, transpose);
                assert!(same_bits(one.col(0), &want), "column {j} vs reference");
                one
            })
            .collect();
        for d in WIDTHS {
            let mut wide = c0.view(0, 0, 150, d).to_mat();
            apply(&mut wide.rm(), transpose);
            for j in 0..d {
                let same = same_bits(singles[j].col(0), wide.col(j));
                assert!(same, "width {d}, column {j}, transpose {transpose}");
            }
        }
        // A sub-view with ld > rows, a full strip and a partial one wide:
        // the columns of a taller block.
        let mut tall = Mat::zeros(157, 45);
        tall.view_mut(3, 2, 150, 41)
            .copy_from(c0.view(0, 0, 150, 41));
        apply(&mut tall.view_mut(3, 2, 150, 41), transpose);
        for j in 0..41 {
            let col = &tall.col(j + 2)[3..153];
            assert!(same_bits(singles[j].col(0), col), "sub-view column {j}");
        }
        let outside = (0..45).all(|j| {
            let c = tall.col(j);
            let inside = (2..43).contains(&j);
            c[..3].iter().chain(&c[153..]).all(|&x| x == 0.0)
                && (inside || c.iter().all(|&x| x == 0.0))
        });
        assert!(outside, "entries outside the sub-view changed");
    }
}

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

#[test]
fn level2_apply_is_column_invariant() {
    // The contract that keeps the solve sweep on the level-2 kernel: column
    // j of a wide application equals the single-column application, bit for
    // bit, at every width.
    let f = qr_factor(gaussian_mat(150, 97, 41));
    let c0 = gaussian_mat(150, 64, 42);
    for transpose in [true, false] {
        let mut wide = c0.clone();
        if transpose {
            f.apply_qt(&mut wide.rm());
        } else {
            f.apply_q(&mut wide.rm());
        }
        for j in 0..64 {
            let mut one = c0.view(0, j, 150, 1).to_mat();
            if transpose {
                f.apply_qt(&mut one.rm());
            } else {
                f.apply_q(&mut one.rm());
            }
            let same = one
                .col(0)
                .iter()
                .zip(wide.col(j))
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "column {j}, transpose {transpose}");
        }
    }
}

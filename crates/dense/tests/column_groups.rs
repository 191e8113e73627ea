//! The triangular, LU and Cholesky solves run their right-hand sides in
//! strips of 32 interleaved columns. Each column must come out bit for bit
//! as the column-at-a-time loops below compute it, at every width: a single
//! column (run in place), partial strips, full strips, strips plus a
//! partial one, and inside a sub-view with `ld > rows`.

use h2_dense::{
    cholesky_in_place, cholesky_solve, gaussian_mat, lu_factor, matmul, solve_triangular_left,
    solve_triangular_left_transposed, Diag, Mat, MatMut, Op, Triangle,
};

const WIDTHS: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64, 67];

/// `T X = B`, one column and one row at a time.
fn left_ref(tri: Triangle, diag: Diag, t: &Mat, b: &mut MatMut<'_>) {
    let n = t.rows();
    for j in 0..b.cols() {
        let rows: Vec<usize> = match tri {
            Triangle::Upper => (0..n).rev().collect(),
            Triangle::Lower => (0..n).collect(),
        };
        for i in rows {
            let mut s = b.at(i, j);
            let solved = match tri {
                Triangle::Upper => i + 1..n,
                Triangle::Lower => 0..i,
            };
            for l in solved {
                s -= t[(i, l)] * b.at(l, j);
            }
            if diag == Diag::NonUnit {
                s /= t[(i, i)];
            }
            *b.at_mut(i, j) = s;
        }
    }
}

/// `Tᵀ X = B`, one column and one row at a time.
fn left_transposed_ref(tri: Triangle, diag: Diag, t: &Mat, b: &mut MatMut<'_>) {
    let n = t.rows();
    for j in 0..b.cols() {
        let rows: Vec<usize> = match tri {
            Triangle::Upper => (0..n).collect(),
            Triangle::Lower => (0..n).rev().collect(),
        };
        for i in rows {
            let mut s = b.at(i, j);
            let solved = match tri {
                Triangle::Upper => 0..i,
                Triangle::Lower => i + 1..n,
            };
            for l in solved {
                s -= t[(l, i)] * b.at(l, j);
            }
            if diag == Diag::NonUnit {
                s /= t[(i, i)];
            }
            *b.at_mut(i, j) = s;
        }
    }
}

/// A well-conditioned matrix with both triangles filled (the solves read
/// only the one they are told to).
fn coefficients(n: usize, seed: u64) -> Mat {
    let g = gaussian_mat(n, n, seed);
    Mat::from_fn(n, n, |i, j| {
        if i == j {
            2.5 + g[(i, j)].abs()
        } else {
            0.3 * g[(i, j)]
        }
    })
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Run `solve` on the first `d` columns of `b0`, as a whole matrix and
/// inside a sub-view of a taller, wider block; both must equal `reference`.
fn check(
    what: &str,
    b0: &Mat,
    solve: impl Fn(&mut MatMut<'_>),
    reference: impl Fn(&mut MatMut<'_>),
) {
    let n = b0.rows();
    for d in WIDTHS {
        let mut want = b0.view(0, 0, n, d).to_mat();
        reference(&mut want.rm());
        let mut got = want.clone();
        got.rm().copy_from(b0.view(0, 0, n, d));
        solve(&mut got.rm());
        assert_eq!(bits(&got), bits(&want), "{what}: width {d}");

        let mut outer = Mat::zeros(n + 5, d + 3);
        outer.view_mut(2, 1, n, d).copy_from(b0.view(0, 0, n, d));
        solve(&mut outer.view_mut(2, 1, n, d));
        let sub = outer.view(2, 1, n, d).to_mat();
        assert_eq!(bits(&sub), bits(&want), "{what}: sub-view width {d}");
        let untouched = (0..d + 3).all(|j| {
            (0..n + 5).all(|i| {
                let inside = (2..n + 2).contains(&i) && (1..d + 1).contains(&j);
                inside || outer[(i, j)] == 0.0
            })
        });
        assert!(untouched, "{what}: width {d} wrote outside its sub-view");
    }
}

#[test]
fn triangular_solves_are_columnwise_the_reference_loops() {
    let n = 37;
    let t = coefficients(n, 3);
    let b0 = gaussian_mat(n, 67, 4);
    for tri in [Triangle::Lower, Triangle::Upper] {
        for diag in [Diag::NonUnit, Diag::Unit] {
            check(
                &format!("left {tri:?} {diag:?}"),
                &b0,
                |b| solve_triangular_left(tri, diag, t.rf(), b),
                |b| left_ref(tri, diag, &t, b),
            );
            check(
                &format!("left transposed {tri:?} {diag:?}"),
                &b0,
                |b| solve_triangular_left_transposed(tri, diag, t.rf(), b),
                |b| left_transposed_ref(tri, diag, &t, b),
            );
        }
    }
}

#[test]
fn lu_solve_is_columnwise_the_reference_loops() {
    for n in [1, 6, 41] {
        // Off-diagonal entries large enough that partial pivoting swaps rows.
        let a = gaussian_mat(n, n, 5 + n as u64);
        let lu = lu_factor(a).expect("nonsingular");
        let b0 = gaussian_mat(n, 67, 6);
        let reference = |b: &mut MatMut<'_>| {
            for k in 0..n {
                let p = lu.piv[k];
                for j in 0..b.cols() {
                    let t = b.at(k, j);
                    *b.at_mut(k, j) = b.at(p, j);
                    *b.at_mut(p, j) = t;
                }
            }
            left_ref(Triangle::Lower, Diag::Unit, &lu.a, b);
            left_ref(Triangle::Upper, Diag::NonUnit, &lu.a, b);
        };
        check(
            &format!("LU n = {n}"),
            &b0,
            |b| lu.solve_in_place(b),
            reference,
        );
        assert!(n < 6 || lu.piv.iter().enumerate().any(|(k, &p)| p != k));
    }
}

#[test]
fn cholesky_solve_is_columnwise_the_reference_loops() {
    for n in [1, 6, 41] {
        let g = gaussian_mat(n, n, 7 + n as u64);
        let mut a = matmul(Op::NoTrans, Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        cholesky_in_place(&mut a.rm()).expect("positive definite");
        let b0 = gaussian_mat(n, 67, 8);
        check(
            &format!("Cholesky n = {n}"),
            &b0,
            |b| cholesky_solve(a.rf(), b),
            |b| {
                left_ref(Triangle::Lower, Diag::NonUnit, &a, b);
                left_transposed_ref(Triangle::Lower, Diag::NonUnit, &a, b);
            },
        );
    }
}

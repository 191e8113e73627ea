//! Preconditioners assembled from H2 representations.

use h2_dense::{lu_factor, EntryAccess, LuFactor, Mat, MatMut, MatRef};
use h2_matrix::H2Matrix;
use h2_tree::ClusterTree;
use rayon::prelude::*;

/// Application of an (approximate) inverse `z = M⁻¹ r`.
pub trait Preconditioner: Sync {
    fn n(&self) -> usize;

    /// Apply `M⁻¹` to a block of vectors, writing into a caller-owned
    /// buffer of the same shape — the per-iteration entry point of the
    /// Krylov methods, so a preconditioner that can solve in place
    /// (identity, diagonal and block scalings) pays no allocation per
    /// application.
    fn apply_inv_into(&self, r: MatRef<'_>, z: MatMut<'_>);
}

/// No preconditioning (`M = I`).
pub struct Identity {
    pub n: usize,
}

impl Preconditioner for Identity {
    fn n(&self) -> usize {
        self.n
    }

    fn apply_inv_into(&self, r: MatRef<'_>, mut z: MatMut<'_>) {
        z.copy_from(r);
    }
}

/// Point-Jacobi: `M = diag(A)`.
pub struct DiagJacobi {
    inv_diag: Vec<f64>,
}

impl DiagJacobi {
    /// Build from entry access; zero diagonal entries are left unscaled.
    pub fn new(gen: &dyn EntryAccess, n: usize) -> Self {
        let inv_diag = (0..n)
            .map(|i| {
                let d = gen.entry(i, i);
                if d != 0.0 {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        DiagJacobi { inv_diag }
    }
}

impl Preconditioner for DiagJacobi {
    fn n(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply_inv_into(&self, r: MatRef<'_>, mut z: MatMut<'_>) {
        for j in 0..r.cols() {
            let src = r.col(j);
            let dst = z.col_mut(j);
            for i in 0..src.len() {
                dst[i] = src[i] * self.inv_diag[i];
            }
        }
    }
}

/// Block-Jacobi from the leaf diagonal blocks of the cluster tree:
/// `M = blockdiag(K(I_τ, I_τ))` over leaves `τ`, each block LU-factored.
///
/// For an H2 matrix these are exactly the stored near-field diagonal
/// blocks, so assembly costs nothing beyond the factorizations.
pub struct BlockJacobi {
    ranges: Vec<(usize, usize)>,
    factors: Vec<LuFactor>,
    n: usize,
}

/// Blocks must be nonsingular; returns the offending leaf range otherwise.
#[derive(Debug)]
pub struct SingularBlock(pub (usize, usize));

impl BlockJacobi {
    /// Assemble from the stored diagonal blocks of an H2 matrix.
    pub fn from_h2(h2: &H2Matrix) -> Result<Self, SingularBlock> {
        let tree = &h2.tree;
        let leaves: Vec<usize> = tree.level(tree.leaf_level()).collect();
        let blocks: Vec<Mat> = leaves
            .iter()
            .map(|&s| h2.dense.diagonal(s).expect("diagonal block").clone())
            .collect();
        let ranges: Vec<(usize, usize)> = leaves.iter().map(|&s| tree.range(s)).collect();
        Self::from_blocks(ranges, blocks, tree.npoints())
    }

    /// Assemble by evaluating diagonal blocks from entry access.
    pub fn from_entry(gen: &dyn EntryAccess, tree: &ClusterTree) -> Result<Self, SingularBlock> {
        let leaves: Vec<usize> = tree.level(tree.leaf_level()).collect();
        let ranges: Vec<(usize, usize)> = leaves.iter().map(|&s| tree.range(s)).collect();
        let blocks: Vec<Mat> = ranges
            .par_iter()
            .map(|&(b, e)| {
                let idx: Vec<usize> = (b..e).collect();
                gen.block_mat(&idx, &idx)
            })
            .collect();
        Self::from_blocks(ranges, blocks, tree.npoints())
    }

    fn from_blocks(
        ranges: Vec<(usize, usize)>,
        blocks: Vec<Mat>,
        n: usize,
    ) -> Result<Self, SingularBlock> {
        let factors: Vec<Result<LuFactor, SingularBlock>> = blocks
            .into_par_iter()
            .zip(ranges.par_iter())
            .map(|(blk, &rng)| lu_factor(blk).ok_or(SingularBlock(rng)))
            .collect();
        let mut out = Vec::with_capacity(factors.len());
        for f in factors {
            out.push(f?);
        }
        Ok(BlockJacobi {
            ranges,
            factors: out,
            n,
        })
    }
}

impl Preconditioner for BlockJacobi {
    fn n(&self) -> usize {
        self.n
    }

    /// With one worker the input is copied once and each leaf block solves
    /// in place (allocation-free); with a pool the disjoint leaf solves run
    /// in parallel, each into its own piece — per-iteration wall clock
    /// beats the small per-piece allocations there.
    fn apply_inv_into(&self, r: MatRef<'_>, mut z: MatMut<'_>) {
        assert_eq!(r.rows(), self.n);
        let d = r.cols();
        if rayon::current_num_threads() <= 1 {
            z.copy_from(r);
            for (&(b, e), f) in self.ranges.iter().zip(self.factors.iter()) {
                f.solve_in_place(&mut z.rb_mut().into_view(b, 0, e - b, d));
            }
            return;
        }
        let pieces: Vec<(usize, Mat)> = self
            .ranges
            .par_iter()
            .zip(self.factors.par_iter())
            .map(|(&(b, e), f)| {
                let rb = r.view(b, 0, e - b, d).to_mat();
                (b, f.solve(&rb))
            })
            .collect();
        for (b, piece) in pieces {
            z.rb_mut()
                .into_view(b, 0, piece.rows(), d)
                .copy_from(piece.rf());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::DenseOp;

    /// `M⁻¹ r` into a fresh buffer.
    fn apply(m: &dyn Preconditioner, r: &Mat) -> Mat {
        let mut z = Mat::zeros(r.rows(), r.cols());
        m.apply_inv_into(r.rf(), z.rm());
        z
    }

    #[test]
    fn identity_is_identity() {
        let r = Mat::from_fn(5, 2, |i, j| (i + 10 * j) as f64);
        let m = Identity { n: 5 };
        assert_eq!(apply(&m, &r), r);
    }

    #[test]
    fn diag_jacobi_scales_by_inverse_diagonal() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 2.0]]);
        let op = DenseOp::new(a);
        let m = DiagJacobi::new(&op, 2);
        let r = Mat::from_rows(&[&[8.0], &[4.0]]);
        let z = apply(&m, &r);
        assert_eq!(z[(0, 0)], 2.0);
        assert_eq!(z[(1, 0)], 2.0);
    }

    #[test]
    fn diag_jacobi_skips_zero_diagonal() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 2.0]]);
        let op = DenseOp::new(a);
        let m = DiagJacobi::new(&op, 2);
        let r = Mat::from_rows(&[&[3.0], &[4.0]]);
        let z = apply(&m, &r);
        assert_eq!(z[(0, 0)], 3.0, "zero diagonal left unscaled");
        assert_eq!(z[(1, 0)], 2.0);
    }

    #[test]
    fn block_jacobi_exact_on_block_diagonal_matrix() {
        use h2_tree::ClusterTree;
        // Points on a line so the KD tree gives predictable leaves.
        let pts: Vec<[f64; 3]> = (0..64).map(|i| [i as f64, 0.0, 0.0]).collect();
        let tree = ClusterTree::build(&pts, 16);
        // A block-diagonal matrix matching the leaf structure exactly.
        let mut a = Mat::zeros(64, 64);
        for s in tree.level(tree.leaf_level()) {
            let (b, e) = tree.range(s);
            for i in b..e {
                for j in b..e {
                    a[(i, j)] = if i == j { 4.0 } else { 0.5 };
                }
            }
        }
        let op = DenseOp::new(a.clone());
        let m = BlockJacobi::from_entry(&op, &tree).unwrap();
        let b = h2_dense::gaussian_mat(64, 2, 7);
        let z = apply(&m, &b);
        // M = A here, so A z = b.
        let az = h2_dense::matmul(h2_dense::Op::NoTrans, h2_dense::Op::NoTrans, a.rf(), z.rf());
        let mut d = az;
        d.axpy(-1.0, &b);
        assert!(
            d.norm_max() < 1e-12,
            "block-Jacobi must invert its own blocks"
        );
    }

    #[test]
    fn block_jacobi_reports_singular_block() {
        use h2_tree::ClusterTree;
        let pts: Vec<[f64; 3]> = (0..32).map(|i| [i as f64, 0.0, 0.0]).collect();
        let tree = ClusterTree::build(&pts, 16);
        let op = DenseOp::new(Mat::zeros(32, 32));
        assert!(BlockJacobi::from_entry(&op, &tree).is_err());
    }
}

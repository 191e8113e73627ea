//! Green's-function surrogate fronts for large separator sizes.
//!
//! The exact multifrontal extraction is quadratic-plus in the grid size, so
//! the paper-scale fronts (up to 62500 = 250² separator points) are
//! expensive to materialize exactly. The Schur complement of the 3-D
//! Laplacian onto a plane separator is, up to discretization, a
//! boundary-integral operator whose kernel behaves like the free-space
//! Green's function `1/(4π r)` near the plane; its hierarchical rank
//! structure — the only thing Fig. 6(b) measures — is the same. The
//! surrogate evaluates exactly that kernel on the separator grid points;
//! this module doc is the record of that substitution.

use h2_kernels::{KernelMatrix, LaplaceKernel};
use h2_tree::{grid_plane, Point};

/// Surrogate top front for a `k x k` plane separator: the Laplace kernel on
/// the separator's grid points with an `1/(2π h)` self-term.
pub fn green_surrogate_front(k: usize) -> (KernelMatrix<LaplaceKernel>, Vec<Point>) {
    let pts = grid_plane(k, k);
    let h = 1.0 / k as f64;
    let kernel = LaplaceKernel::with_mesh_width(h);
    (KernelMatrix::new(kernel, pts.clone()), pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::EntryAccess;

    #[test]
    fn surrogate_has_separator_size() {
        let (km, pts) = green_surrogate_front(10);
        assert_eq!(km.n(), 100);
        assert_eq!(pts.len(), 100);
    }

    #[test]
    fn surrogate_is_spd_small() {
        let (km, _) = green_surrogate_front(6);
        let mut dense = h2_dense::Mat::from_fn(36, 36, |i, j| km.entry(i, j));
        assert!(h2_dense::cholesky_in_place(&mut dense.rm()).is_ok());
    }

    /// The surrogate matches the real front's qualitative rank structure:
    /// *well-separated* sub-blocks compress strongly (the strong-admissible
    /// structure H2 exploits), while merely disjoint adjacent halves do not
    /// (which is exactly why weak-admissibility formats blow up on
    /// separator fronts — the Fig. 6(b) story).
    #[test]
    fn surrogate_separated_blocks_low_rank_adjacent_not() {
        let k = 12;
        let (km, _) = green_surrogate_front(k);
        // First and last grid rows of the plane: distance ≈ 1, diam ≈ 1.
        let first_row: Vec<usize> = (0..k).collect();
        let last_row: Vec<usize> = ((k * (k - 1))..k * k).collect();
        let far = km.block_mat(&first_row, &last_row);
        let s_far = h2_dense::svd(&far);
        let rank_far = s_far
            .s
            .iter()
            .take_while(|&&v| v > 1e-8 * s_far.s[0])
            .count();
        assert!(
            rank_far <= 10,
            "separated rows must be very low rank, got {rank_far}"
        );

        // Adjacent halves share a long interface: high rank.
        let n = km.n();
        let lo: Vec<usize> = (0..n / 2).collect();
        let hi: Vec<usize> = (n / 2..n).collect();
        let near = km.block_mat(&lo, &hi);
        let s_near = h2_dense::svd(&near);
        let rank_near = s_near
            .s
            .iter()
            .take_while(|&&v| v > 1e-8 * s_near.s[0])
            .count();
        assert!(
            rank_near > 3 * rank_far,
            "adjacent halves should resist compression"
        );
    }
}

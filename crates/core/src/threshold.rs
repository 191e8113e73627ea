//! The one truncation rule of Algorithm 1 (the `ε` and `ε_l` of lines
//! 11/16 and 29/34): every adaptive convergence test and every row ID
//! truncates at `SAFETY·ε·‖K‖₂·√max(d, 1)` at sample width `d`, with `‖K‖₂`
//! estimated from at most [`NORM_PRODUCTS`] sampler products. Both
//! [`crate::sketch_construct`] and the top-down peeling baseline
//! (`h2_baselines::topdown_peel`) read it here, so the comparator cannot
//! drift from the engine it is compared against.

use h2_dense::{norm_2_gkl, LinOp, Mat};

/// Safety factor on the absolute threshold (`ε_eff = SAFETY·ε·‖K‖₂`).
/// Truncation at exactly `ε·‖K‖₂` accumulates per-level and per-block
/// errors to a multiple of ε; this conservative factor keeps the measured
/// error at or below the requested tolerance, matching the paper's reported
/// errors (Table II shows measured errors 2–25× *below* ε).
pub const SAFETY: f64 = 1.0 / 30.0;

/// Cap on the sampler products (`K x` or `Kᵀ x`) of the `‖K‖₂` estimate:
/// the cost of ten power iterations on `KᵀK` plus the start.
pub const NORM_PRODUCTS: usize = 21;

/// `‖K‖₂` of `sampler` by Golub–Kahan–Lanczos from `start`, within
/// [`NORM_PRODUCTS`] products; it stops earlier, once a product moves the
/// estimate by at most `tol` relative. Returns the estimate and the
/// products used.
pub fn estimate_norm(sampler: &dyn LinOp, start: &Mat, tol: f64) -> (f64, usize) {
    norm_2_gkl(sampler, start, NORM_PRODUCTS, tol)
}

/// The absolute truncation threshold of one construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Threshold(f64);

impl Threshold {
    /// `SAFETY·tol·‖K‖₂`, the norm floored at `f64::MIN_POSITIVE` so a zero
    /// operator still truncates to rank 0.
    pub fn new(tol: f64, norm_estimate: f64) -> Self {
        Threshold(SAFETY * tol * norm_estimate.max(f64::MIN_POSITIVE))
    }

    /// The width-free threshold `SAFETY·tol·‖K‖₂`, which the norm-aware
    /// storage demotion of finished blocks reads.
    pub fn abs(self) -> f64 {
        self.0
    }

    /// The threshold at sample width `width`: [`Threshold::abs`] scaled by
    /// `√max(width, 1)`, as `‖AΩ‖_F ≈ √d·‖A‖_F` for `d` Gaussian columns.
    /// The convergence test and the row ID of a level read the same value.
    pub fn at_width(self, width: usize) -> f64 {
        self.0 * (width.max(1) as f64).sqrt()
    }
}

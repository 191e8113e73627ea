//! # h2-kernels
//!
//! Kernel functions and kernel matrices — the paper's three test problems
//! plus a few extras:
//!
//! * exponential covariance `K(x,y) = exp(-|x-y| / l)` (paper eq. (8),
//!   Gaussian spatial process, correlation length `l = 0.2`),
//! * Helmholtz volume IE `K(x,y) = cos(k |x-y|) / |x-y|` (paper eq. (9),
//!   `k = 3`), with a configurable diagonal self-term,
//! * Gaussian and Matérn-3/2 covariance kernels,
//! * the 3-D Laplace (free-space Green's function) kernel used by the
//!   frontal-matrix surrogate,
//! * unsymmetric operators feeding the two-stream construction:
//!   [`ConvectionKernel`] (diffusion plus directional drift,
//!   `K(x,y) = exp(-r/l)·(1 + v·(x-y))` — the structure of a
//!   convection-diffusion volume operator) behind [`UnsymKernelMatrix`],
//!   and [`ScaledKernelMatrix`] (`D_r K D_c`, the structure produced by row
//!   equilibration or non-Galerkin discretizations).
//!
//! [`KernelMatrix`] binds a kernel to a point cloud in *tree order* and
//! implements both black-box inputs of Algorithm 1 ([`LinOp`] for sketching
//! and [`EntryAccess`] for `batchedGen`); the unsymmetric matrices
//! additionally implement `apply_transpose`, the `Kᵀ·Ψ` sampler of the
//! column sketch stream. Every `apply` here is the exact O(N² d) product —
//! used as ground truth in tests and to bootstrap reference operators;
//! large-scale sampling goes through the O(N) H2 matvec in `h2-matrix`.
//! The product evaluates each 128-row tile of `K` once through `block` and
//! multiplies it into all `d` columns with one `gemm`.
//!
//! ## `batchedGen`: a block of entries in SIMD lanes
//!
//! [`KernelMatrix::block`](EntryAccess::block) gathers up to 256 row points
//! into structure-of-arrays `x`/`y`/`z` scratch on the stack, then fills
//! each output column with one branch-free loop:
//! `r = √(dx² + dy² + dz²)` and `v = if r == 0 { diag } else { eval_r(r) }`.
//! The loop compiles inside `#[target_feature]` wrappers picked by
//! [`h2_dense::simd_tier`], so each vector lane evaluates one entry.
//!
//! Every exponential of this crate's kernels is the one [`exp`]: Cody–Waite
//! reduction, a degree-13 polynomial and a `2^k` scale built from bits. It
//! uses only IEEE `+ − × ÷` and integer bit operations, with no FMA, so a
//! vector lane and a scalar call give the same bits, and it agrees with
//! `f64::exp` within 1 ulp wherever the result is normal. A kernel needs to
//! implement only [`Kernel::eval_r`] and [`Kernel::diag`] to get the vector
//! path: `block` is generic over the kernel and inlines its `eval_r`.
//! `block` and [`entry`](EntryAccess::entry) evaluate the same formula, so
//! they agree bitwise on every SIMD tier. A kernel whose `eval_r` calls
//! libm (Helmholtz's `cos`) runs the same loop in scalar lanes.
//! [`UnsymKernelMatrix`]'s `block` runs the same loop over an inlined
//! [`Kernel2::eval2`].

use h2_dense::{gemm, simd_tier, EntryAccess, LinOp, Mat, MatMut, MatRef, Op, SimdTier};
use h2_tree::{dist, Point};
use rayon::prelude::*;

/// `round(x · log₂e)` lands in the low mantissa bits of `x · log₂e + SHIFT`.
const SHIFT: f64 = 6755399441055744.0; // 1.5 · 2^52
/// `ln 2` split in two: the high part has 32 significant bits, so `k · LN2_HI`
/// is exact for every `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Inputs are clamped to `[EXP_LO, EXP_HI]`, where the result is already
/// `+0.0` and `+∞`.
const EXP_LO: f64 = -746.0;
const EXP_HI: f64 = 710.0;
/// Taylor coefficients `1/2!, …, 1/13!` of `(eʳ − 1 − r) / r²`.
const EXP_POLY: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
];

/// `eˣ`, branch-free, from IEEE `+ − ×` and integer bit operations only.
///
/// `x = k·ln 2 + r` with `k = round(x / ln 2)` and `|r| ≤ ln 2 / 2`
/// (Cody–Waite: `k · ln 2` is subtracted in two parts), `eʳ` is a degree-13
/// Taylor polynomial in Horner form, and `2^k` is applied as two factors
/// built from exponent bits, so a subnormal result is rounded once. There is
/// no FMA and no `mul_add`: every vector lane gives the scalar call's bits.
///
/// Within 1 ulp of `f64::exp` wherever the result is normal
/// (`−708.39 ≤ x ≤ 709.78`); `+0.0` for `x ≤ −745.2` and `−∞`, `+∞` above
/// `709.79`, NaN for NaN.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Comparisons keep a NaN (both are false), where `max`/`min` would not.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let t = x * std::f64::consts::LOG2_E + SHIFT;
    let kf = t - SHIFT;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let mut p = EXP_POLY[11];
    for &c in EXP_POLY[..11].iter().rev() {
        p = p * r + c;
    }
    let er = 1.0 + (r + r * r * p);
    // k ∈ [−1076, 1024]: each half lies in the normal exponent range.
    let k = (t.to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64);
    let k1 = k >> 1;
    let pow2 = |e: i64| f64::from_bits((e.wrapping_add(1023) as u64) << 52);
    er * pow2(k1) * pow2(k - k1)
}

/// A symmetric, translation-invariant kernel function.
pub trait Kernel: Sync + Send {
    /// Evaluate the kernel at distance `r > 0`. Implementations are
    /// `#[inline(always)]`, so that [`KernelMatrix::block`](EntryAccess::block)
    /// evaluates them in SIMD lanes; a value at `r = 0` is computed there and
    /// discarded, so it may be infinite.
    fn eval_r(&self, r: f64) -> f64;

    /// Value on the diagonal (and for coincident points).
    fn diag(&self) -> f64;

    /// Evaluate for a point pair.
    fn eval(&self, x: &Point, y: &Point) -> f64 {
        let r = dist(x, y);
        if r == 0.0 {
            self.diag()
        } else {
            self.eval_r(r)
        }
    }
}

/// Exponential covariance kernel `exp(-r / l)` (paper eq. (8)).
#[derive(Clone, Copy, Debug)]
pub struct ExponentialKernel {
    /// Correlation length (paper uses 0.2).
    pub l: f64,
}

impl Default for ExponentialKernel {
    fn default() -> Self {
        ExponentialKernel { l: 0.2 }
    }
}

impl Kernel for ExponentialKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        exp(-r / self.l)
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// Helmholtz volume IE kernel `cos(k r) / r` (paper eq. (9)).
///
/// The paper leaves the `x = y` self-term to the discretization; we expose it
/// as `diag`. The `paper(n)` constructor uses an `n^{1/3}`-scaled self-term
/// mimicking a volume quadrature self-interaction (≈ 2/h for mesh width h),
/// which keeps the operator well conditioned.
#[derive(Clone, Copy, Debug)]
pub struct HelmholtzKernel {
    /// Wavenumber (paper fixes k = 3).
    pub k: f64,
    /// Diagonal self-term.
    pub diag: f64,
}

impl HelmholtzKernel {
    /// Paper configuration for an `n`-point unit-cube volume grid.
    pub fn paper(n: usize) -> Self {
        HelmholtzKernel {
            k: 3.0,
            diag: 2.0 * (n as f64).cbrt(),
        }
    }
}

impl Kernel for HelmholtzKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        (self.k * r).cos() / r
    }

    fn diag(&self) -> f64 {
        self.diag
    }
}

/// Gaussian (squared-exponential) covariance kernel `exp(-r² / (2 l²))`.
#[derive(Clone, Copy, Debug)]
pub struct GaussianKernel {
    pub l: f64,
}

impl Kernel for GaussianKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        exp(-0.5 * (r / self.l) * (r / self.l))
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// Matérn-3/2 covariance kernel `(1 + √3 r/l) exp(-√3 r/l)`.
#[derive(Clone, Copy, Debug)]
pub struct Matern32Kernel {
    pub l: f64,
}

impl Kernel for Matern32Kernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        let s = 3f64.sqrt() * r / self.l;
        (1.0 + s) * exp(-s)
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// Matérn-5/2 covariance kernel `(1 + √5 r/l + 5r²/(3l²)) exp(-√5 r/l)` —
/// the twice-differentiable member of the Matérn family, the default in
/// much of the Gaussian-process literature.
#[derive(Clone, Copy, Debug)]
pub struct Matern52Kernel {
    pub l: f64,
}

impl Kernel for Matern52Kernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        let s = 5f64.sqrt() * r / self.l;
        (1.0 + s + s * s / 3.0) * exp(-s)
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// Inverse multiquadric kernel `1 / √(1 + (r/l)²)` — an RBF-interpolation
/// staple with algebraic (not exponential) decay; strictly positive
/// definite on distinct points.
#[derive(Clone, Copy, Debug)]
pub struct InverseMultiquadricKernel {
    pub l: f64,
}

impl Kernel for InverseMultiquadricKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        let s = r / self.l;
        1.0 / (1.0 + s * s).sqrt()
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// Cauchy (rational-quadratic limit) kernel `1 / (1 + (r/l)²)` — heavy
/// polynomial tails, long-range correlations.
#[derive(Clone, Copy, Debug)]
pub struct CauchyKernel {
    pub l: f64,
}

impl Kernel for CauchyKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        let s = r / self.l;
        1.0 / (1.0 + s * s)
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// 3-D Laplace single-layer kernel `1 / (4π r)` with a diagonal self-term —
/// the Green's-function surrogate for Poisson frontal matrices.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceKernel {
    pub diag: f64,
}

impl LaplaceKernel {
    /// Self-term `≈ 1/(2π h)` for mesh width `h` (keeps the surrogate SPD-ish).
    pub fn with_mesh_width(h: f64) -> Self {
        LaplaceKernel {
            diag: 1.0 / (2.0 * std::f64::consts::PI * h),
        }
    }
}

impl Kernel for LaplaceKernel {
    #[inline(always)]
    fn eval_r(&self, r: f64) -> f64 {
        1.0 / (4.0 * std::f64::consts::PI * r)
    }

    fn diag(&self) -> f64 {
        self.diag
    }
}

/// A kernel matrix over a point cloud in tree (permuted) order.
///
/// Index `i` refers to `points[i]`; callers pass points already permuted by
/// the cluster tree so that matrix indices match cluster index ranges.
pub struct KernelMatrix<K: Kernel> {
    pub kernel: K,
    pub points: Vec<Point>,
}

impl<K: Kernel> KernelMatrix<K> {
    pub fn new(kernel: K, points: Vec<Point>) -> Self {
        KernelMatrix { kernel, points }
    }

    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// [`EntryAccess::block`] compiled for `tier`, which must be one this
    /// host supports (the tests run every such tier).
    fn block_on(&self, tier: SimdTier, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        let (kernel, diag) = (&self.kernel, self.kernel.diag());
        fill_on(tier, &self.points, rows, cols, out, &|a, b| {
            entry_of(kernel, diag, a, b)
        });
    }
}

/// The one entry formula of [`KernelMatrix`]: `entry` and every lane of
/// `block` evaluate it.
#[inline(always)]
fn entry_of<K: Kernel>(kernel: &K, diag: f64, a: &Point, b: &Point) -> f64 {
    let r = dist(a, b);
    if r == 0.0 {
        diag
    } else {
        kernel.eval_r(r)
    }
}

/// The one entry formula of [`UnsymKernelMatrix`], as [`entry_of`].
#[inline(always)]
fn entry2_of<K: Kernel2>(kernel: &K, diag: f64, a: &Point, b: &Point) -> f64 {
    if dist(a, b) == 0.0 {
        diag
    } else {
        kernel.eval2(a, b)
    }
}

/// Row points a block gathers into its SoA stack tile at once.
const ROW_TILE: usize = 256;

/// `out[ii, jj] = entry(points[rows[ii]], points[cols[jj]])`, compiled for
/// `tier`, which must be one this host supports.
fn fill_on<F: Fn(&Point, &Point) -> f64>(
    tier: SimdTier,
    points: &[Point],
    rows: &[usize],
    cols: &[usize],
    out: &mut MatMut<'_>,
    entry: &F,
) {
    assert!(tier <= simd_tier(), "block tier {tier:?} beyond the host's");
    assert_eq!(out.rows(), rows.len());
    assert_eq!(out.cols(), cols.len());
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: the assert above checked that the host supports `tier`,
        // and the Avx512 tier is detected with AVX-512F.
        SimdTier::Avx512 => return unsafe { fill_avx512(points, rows, cols, out, entry) },
        // SAFETY: as above; the Avx2Fma tier is detected with AVX2.
        SimdTier::Avx2Fma => return unsafe { fill_avx2(points, rows, cols, out, entry) },
        SimdTier::Baseline => {}
    }
    fill(points, rows, cols, out, entry);
}

/// [`fill_on`]'s body: each tile of up to [`ROW_TILE`] row points is
/// gathered into `x`/`y`/`z` arrays once, then every column is one
/// branch-free loop over the tile. Inlined into the SIMD-tier wrappers.
#[inline(always)]
fn fill<F: Fn(&Point, &Point) -> f64>(
    points: &[Point],
    rows: &[usize],
    cols: &[usize],
    out: &mut MatMut<'_>,
    entry: &F,
) {
    let mut soa = [[0.0; ROW_TILE]; 3];
    for (t, tile) in rows.chunks(ROW_TILE).enumerate() {
        let (i0, m) = (t * ROW_TILE, tile.len());
        for (ii, &i) in tile.iter().enumerate() {
            for c in 0..3 {
                soa[c][ii] = points[i][c];
            }
        }
        let [xs, ys, zs] = &soa;
        let (xs, ys, zs) = (&xs[..m], &ys[..m], &zs[..m]);
        for (jj, &j) in cols.iter().enumerate() {
            let b = points[j];
            let col = &mut out.col_mut(jj)[i0..i0 + m];
            for (((v, &x), &y), &z) in col.iter_mut().zip(xs).zip(ys).zip(zs) {
                *v = entry(&[x, y, z], &b);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_avx512<F: Fn(&Point, &Point) -> f64>(
    points: &[Point],
    rows: &[usize],
    cols: &[usize],
    out: &mut MatMut<'_>,
    entry: &F,
) {
    fill(points, rows, cols, out, entry);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2<F: Fn(&Point, &Point) -> f64>(
    points: &[Point],
    rows: &[usize],
    cols: &[usize],
    out: &mut MatMut<'_>,
    entry: &F,
) {
    fill(points, rows, cols, out, entry);
}

impl<K: Kernel> EntryAccess for KernelMatrix<K> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        entry_of(
            &self.kernel,
            self.kernel.diag(),
            &self.points[i],
            &self.points[j],
        )
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        self.block_on(simd_tier(), rows, cols, out);
    }
}

/// Rows of `op(A)` one task of [`tiled_apply`] evaluates at once.
const APPLY_TILE: usize = 128;

/// `y = op(A) x` for an `n × n` operator `A`: each [`APPLY_TILE`]-row tile
/// of `op(A)` is evaluated once through `A.block` (as `A(rows, :)`, or as
/// `A(:, rows)` when transposed) and multiplied into all `d` columns of `x`
/// with one `gemm`. Tiles run in parallel.
fn tiled_apply(a: &impl EntryAccess, n: usize, ta: Op, x: MatRef<'_>, mut y: MatMut<'_>) {
    let d = x.cols();
    assert_eq!(x.rows(), n);
    assert_eq!((y.rows(), y.cols()), (n, d));
    let all: Vec<usize> = (0..n).collect();
    let tiles: Vec<Mat> = all
        .chunks(APPLY_TILE)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|rows| {
            let (r, c) = match ta {
                Op::NoTrans => (rows, &all[..]),
                Op::Trans => (&all[..], rows),
            };
            let mut tile = Mat::zeros(r.len(), c.len());
            a.block(r, c, &mut tile.rm());
            let mut yt = Mat::zeros(rows.len(), d);
            gemm(ta, Op::NoTrans, 1.0, tile.rf(), x, 0.0, yt.rm());
            yt
        })
        .collect();
    for (t, yt) in tiles.iter().enumerate() {
        y.rb_mut()
            .into_view(t * APPLY_TILE, 0, yt.rows(), d)
            .copy_from(yt.rf());
    }
}

impl<K: Kernel> LinOp for KernelMatrix<K> {
    fn nrows(&self) -> usize {
        self.n()
    }

    fn ncols(&self) -> usize {
        self.n()
    }

    /// Exact dense product, computed on the fly one row tile of `K` at a
    /// time (never forms the N × N matrix). O(N² d) — ground truth for
    /// tests and reference-operator bootstrap.
    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
        tiled_apply(self, self.n(), Op::NoTrans, x, y);
    }
}

/// A general (possibly unsymmetric) kernel function of two points.
pub trait Kernel2: Sync + Send {
    /// Evaluate `K(x, y)` for distinct points.
    fn eval2(&self, x: &Point, y: &Point) -> f64;

    /// Value for coincident points.
    fn diag(&self) -> f64;
}

/// Exponential diffusion with a directional drift:
/// `K(x, y) = exp(-|x-y|/l) · (1 + v · (x - y))`.
///
/// The drift term is antisymmetric in `(x, y)`, so `K(x,y) ≠ K(y,x)` while
/// the function stays smooth away from the diagonal — admissible blocks keep
/// the low numerical rank the construction relies on.
#[derive(Clone, Copy, Debug)]
pub struct ConvectionKernel {
    /// Correlation length of the diffusive part.
    pub l: f64,
    /// Drift velocity.
    pub v: [f64; 3],
}

impl Default for ConvectionKernel {
    fn default() -> Self {
        ConvectionKernel {
            l: 0.2,
            v: [0.4, -0.25, 0.1],
        }
    }
}

impl Kernel2 for ConvectionKernel {
    #[inline(always)]
    fn eval2(&self, x: &Point, y: &Point) -> f64 {
        let r = dist(x, y);
        let drift: f64 = (0..3).map(|c| self.v[c] * (x[c] - y[c])).sum();
        exp(-r / self.l) * (1.0 + drift)
    }

    fn diag(&self) -> f64 {
        1.0
    }
}

/// A kernel matrix for a general two-point kernel, in tree-permuted order.
pub struct UnsymKernelMatrix<K: Kernel2> {
    pub kernel: K,
    pub points: Vec<Point>,
}

impl<K: Kernel2> UnsymKernelMatrix<K> {
    pub fn new(kernel: K, points: Vec<Point>) -> Self {
        UnsymKernelMatrix { kernel, points }
    }

    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// [`EntryAccess::block`] compiled for `tier`, as for [`KernelMatrix`].
    fn block_on(&self, tier: SimdTier, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        let (kernel, diag) = (&self.kernel, self.kernel.diag());
        fill_on(tier, &self.points, rows, cols, out, &|a, b| {
            entry2_of(kernel, diag, a, b)
        });
    }
}

impl<K: Kernel2> EntryAccess for UnsymKernelMatrix<K> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        entry2_of(
            &self.kernel,
            self.kernel.diag(),
            &self.points[i],
            &self.points[j],
        )
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        self.block_on(simd_tier(), rows, cols, out);
    }
}

impl<K: Kernel2> LinOp for UnsymKernelMatrix<K> {
    fn nrows(&self) -> usize {
        self.n()
    }

    fn ncols(&self) -> usize {
        self.n()
    }

    /// Exact dense product, O(N² d), one row tile of `K` at a time:
    /// ground truth for tests.
    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
        tiled_apply(self, self.n(), Op::NoTrans, x, y);
    }

    /// `Kᵀ x`, each row tile of `Kᵀ` evaluated as a column tile of `K`.
    fn apply_transpose(&self, x: MatRef<'_>, y: MatMut<'_>) {
        tiled_apply(self, self.n(), Op::Trans, x, y);
    }
}

/// Two-sided diagonal scaling `D_r K D_c` of a symmetric kernel matrix.
pub struct ScaledKernelMatrix<K: Kernel> {
    pub inner: KernelMatrix<K>,
    /// Row scaling `D_r` (length N).
    pub row_scale: Vec<f64>,
    /// Column scaling `D_c` (length N).
    pub col_scale: Vec<f64>,
}

impl<K: Kernel> ScaledKernelMatrix<K> {
    pub fn new(inner: KernelMatrix<K>, row_scale: Vec<f64>, col_scale: Vec<f64>) -> Self {
        assert_eq!(inner.n(), row_scale.len());
        assert_eq!(inner.n(), col_scale.len());
        ScaledKernelMatrix {
            inner,
            row_scale,
            col_scale,
        }
    }

    pub fn n(&self) -> usize {
        self.inner.n()
    }
}

impl<K: Kernel> EntryAccess for ScaledKernelMatrix<K> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.row_scale[i] * self.inner.entry(i, j) * self.col_scale[j]
    }
}

impl<K: Kernel> LinOp for ScaledKernelMatrix<K> {
    fn nrows(&self) -> usize {
        self.n()
    }

    fn ncols(&self) -> usize {
        self.n()
    }

    fn apply(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        // y = D_r K D_c x
        let n = self.n();
        let d = x.cols();
        let mut xs = x.to_mat();
        for j in 0..d {
            let col = xs.col_mut(j);
            for i in 0..n {
                col[i] *= self.col_scale[i];
            }
        }
        self.inner.apply(xs.rf(), y.rb_mut());
        for j in 0..d {
            let col = y.col_mut(j);
            for i in 0..n {
                col[i] *= self.row_scale[i];
            }
        }
    }

    fn apply_transpose(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        // (D_r K D_c)^T = D_c K D_r (K symmetric)
        let n = self.n();
        let d = x.cols();
        let mut xs = x.to_mat();
        for j in 0..d {
            let col = xs.col_mut(j);
            for i in 0..n {
                col[i] *= self.row_scale[i];
            }
        }
        self.inner.apply(xs.rf(), y.rb_mut());
        for j in 0..d {
            let col = y.col_mut(j);
            for i in 0..n {
                col[i] *= self.col_scale[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{gaussian_mat, Mat};
    use h2_tree::uniform_cube;

    #[test]
    fn kernels_match_formulas() {
        let e = ExponentialKernel { l: 0.2 };
        assert!((e.eval_r(0.2) - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(e.diag(), 1.0);

        let h = HelmholtzKernel { k: 3.0, diag: 5.0 };
        assert!((h.eval_r(0.5) - (1.5f64).cos() / 0.5).abs() < 1e-15);
        assert_eq!(h.diag(), 5.0);

        let g = GaussianKernel { l: 1.0 };
        assert!((g.eval_r(1.0) - (-0.5f64).exp()).abs() < 1e-15);

        let m = Matern32Kernel { l: 1.0 };
        let s = 3f64.sqrt();
        assert!((m.eval_r(1.0) - (1.0 + s) * (-s).exp()).abs() < 1e-15);

        let m5 = Matern52Kernel { l: 1.0 };
        let s5 = 5f64.sqrt();
        assert!((m5.eval_r(1.0) - (1.0 + s5 + 5.0 / 3.0) * (-s5).exp()).abs() < 1e-15);

        let imq = InverseMultiquadricKernel { l: 2.0 };
        assert!((imq.eval_r(2.0) - 1.0 / 2f64.sqrt()).abs() < 1e-15);

        let c = CauchyKernel { l: 1.0 };
        assert!((c.eval_r(3.0) - 0.1).abs() < 1e-15);

        let lp = LaplaceKernel { diag: 1.0 };
        assert!((lp.eval_r(2.0) - 1.0 / (8.0 * std::f64::consts::PI)).abs() < 1e-15);
    }

    #[test]
    fn matern_family_ordering() {
        // At a fixed distance, smoother Matérn members stay closer to 1
        // (faster small-r Taylor agreement): exp (ν=1/2) < 3/2 < 5/2 < Gauss.
        let r = 0.3;
        let e = ExponentialKernel { l: 1.0 }.eval_r(r);
        let m3 = Matern32Kernel { l: 1.0 }.eval_r(r);
        let m5 = Matern52Kernel { l: 1.0 }.eval_r(r);
        assert!(
            e < m3 && m3 < m5,
            "Matérn smoothness ordering violated: {e} {m3} {m5}"
        );
    }

    #[test]
    fn new_kernels_are_spd_on_small_clouds() {
        let pts = uniform_cube(50, 67);
        for k in [
            &KernelMatrix::new(Matern52Kernel { l: 0.5 }, pts.clone()) as &dyn EntryAccess,
            &KernelMatrix::new(InverseMultiquadricKernel { l: 0.5 }, pts.clone()),
            &KernelMatrix::new(CauchyKernel { l: 0.5 }, pts.clone()),
        ] {
            let mut dense = Mat::from_fn(50, 50, |i, j| k.entry(i, j));
            assert!(
                h2_dense::cholesky_in_place(&mut dense.rm()).is_ok(),
                "kernel matrix must be SPD on distinct points"
            );
        }
    }

    #[test]
    fn kernel_matrix_symmetric() {
        let pts = uniform_cube(50, 61);
        let km = KernelMatrix::new(ExponentialKernel::default(), pts);
        for i in (0..50).step_by(7) {
            for j in (0..50).step_by(11) {
                assert_eq!(km.entry(i, j), km.entry(j, i));
            }
        }
        assert_eq!(km.entry(3, 3), 1.0);
    }

    #[test]
    fn block_matches_entries() {
        let pts = uniform_cube(40, 62);
        let km = KernelMatrix::new(HelmholtzKernel::paper(40), pts);
        let rows = [3, 17, 0];
        let cols = [5, 3, 39, 1];
        let b = km.block_mat(&rows, &cols);
        for (ii, &i) in rows.iter().enumerate() {
            for (jj, &j) in cols.iter().enumerate() {
                assert_eq!(b[(ii, jj)], km.entry(i, j));
            }
        }
    }

    #[test]
    fn apply_matches_dense() {
        // 300 rows: two full row tiles of the product and a partial one.
        let pts = uniform_cube(300, 63);
        let km = KernelMatrix::new(ExponentialKernel::default(), pts);
        let dense = Mat::from_fn(300, 300, |i, j| km.entry(i, j));
        let x = gaussian_mat(300, 3, 64);
        let y = km.apply_mat(&x);
        let want = h2_dense::matmul(
            h2_dense::Op::NoTrans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);
    }

    #[test]
    fn covariance_matrix_is_spd_small() {
        // Exponential covariance on distinct points is strictly PD.
        let pts = uniform_cube(60, 65);
        let km = KernelMatrix::new(ExponentialKernel::default(), pts);
        let mut dense = Mat::from_fn(60, 60, |i, j| km.entry(i, j));
        assert!(h2_dense::cholesky_in_place(&mut dense.rm()).is_ok());
    }

    #[test]
    fn kernel_decay_ordering() {
        // At the paper's correlation length, distant interactions are tiny —
        // the low-rank structure the whole method exploits.
        let e = ExponentialKernel { l: 0.2 };
        assert!(e.eval_r(1.0) < 0.01);
        assert!(e.eval_r(0.05) > 0.75);
    }

    #[test]
    fn helmholtz_far_blocks_are_low_rank() {
        // Two well-separated clusters: the interaction block must compress.
        let mut pts = uniform_cube(64, 66);
        for p in pts.iter_mut().take(32) {
            // cluster A: compact box [0, 0.2]^3
            for c in p.iter_mut() {
                *c *= 0.2;
            }
        }
        for p in pts.iter_mut().skip(32) {
            // cluster B: compact box [0.8, 1.0]^3 (distance ≈ 1, diam ≈ 0.35)
            for c in p.iter_mut() {
                *c = 0.8 + 0.2 * *c;
            }
        }
        let km = KernelMatrix::new(HelmholtzKernel::paper(64), pts);
        let rows: Vec<usize> = (0..32).collect();
        let cols: Vec<usize> = (32..64).collect();
        let b = km.block_mat(&rows, &cols);
        let f = h2_dense::svd(&b);
        let rel_rank = f.s.iter().take_while(|&&s| s > 1e-6 * f.s[0]).count();
        assert!(
            rel_rank <= 20,
            "separated 32x32 block should be numerically low rank, got rank {rel_rank}"
        );
    }
}

#[cfg(test)]
mod unsym_tests {
    use super::*;

    use h2_dense::{gaussian_mat, Mat};
    use h2_tree::uniform_cube;

    #[test]
    fn convection_kernel_is_unsymmetric() {
        let k = ConvectionKernel::default();
        let x = [0.1, 0.2, 0.3];
        let y = [0.7, 0.1, 0.5];
        let a = k.eval2(&x, &y);
        let b = k.eval2(&y, &x);
        assert!(
            (a - b).abs() > 1e-3,
            "drift must break symmetry: {a} vs {b}"
        );
    }

    #[test]
    fn unsym_apply_matches_dense() {
        let pts = uniform_cube(260, 201);
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), pts);
        let dense = Mat::from_fn(260, 260, |i, j| km.entry(i, j));
        let x = gaussian_mat(260, 3, 202);
        let y = km.apply_mat(&x);
        let want = h2_dense::matmul(
            h2_dense::Op::NoTrans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);
    }

    #[test]
    fn unsym_apply_transpose_matches_dense() {
        let pts = uniform_cube(200, 203);
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), pts);
        let dense = Mat::from_fn(200, 200, |i, j| km.entry(i, j));
        let x = gaussian_mat(200, 2, 204);
        let mut y = Mat::zeros(200, 2);
        km.apply_transpose(x.rf(), y.rm());
        let want = h2_dense::matmul(
            h2_dense::Op::Trans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);
    }

    #[test]
    fn scaled_kernel_entries_and_apply_agree() {
        let pts = uniform_cube(60, 205);
        let inner = KernelMatrix::new(ExponentialKernel::default(), pts);
        let dr: Vec<f64> = (0..60).map(|i| 1.0 + 0.01 * i as f64).collect();
        let dc: Vec<f64> = (0..60).map(|i| 2.0 - 0.02 * i as f64).collect();
        let sk = ScaledKernelMatrix::new(inner, dr, dc);
        let dense = Mat::from_fn(60, 60, |i, j| sk.entry(i, j));
        let x = gaussian_mat(60, 2, 206);
        let y = sk.apply_mat(&x);
        let want = h2_dense::matmul(
            h2_dense::Op::NoTrans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);

        // transpose path
        let mut yt = Mat::zeros(60, 2);
        sk.apply_transpose(x.rf(), yt.rm());
        let want_t = h2_dense::matmul(
            h2_dense::Op::Trans,
            h2_dense::Op::NoTrans,
            dense.rf(),
            x.rf(),
        );
        let mut dt = yt;
        dt.axpy(-1.0, &want_t);
        assert!(dt.norm_max() < 1e-11);
    }

    #[test]
    fn convection_far_blocks_low_rank() {
        // Separated clusters: the unsymmetric far block must still compress.
        let mut pts = uniform_cube(64, 207);
        for p in pts.iter_mut().take(32) {
            for c in p.iter_mut() {
                *c *= 0.2;
            }
        }
        for p in pts.iter_mut().skip(32) {
            for c in p.iter_mut() {
                *c = 0.8 + 0.2 * *c;
            }
        }
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), pts);
        let rows: Vec<usize> = (0..32).collect();
        let cols: Vec<usize> = (32..64).collect();
        let b = km.block_mat(&rows, &cols);
        let f = h2_dense::svd(&b);
        let rel_rank = f.s.iter().take_while(|&&s| s > 1e-8 * f.s[0]).count();
        assert!(rel_rank <= 24, "unsym far block rank {rel_rank}");
    }
}

#[cfg(test)]
mod simd_tests {
    use super::*;
    use h2_dense::Mat;
    use h2_tree::uniform_cube;

    /// Distance in units in the last place between two non-negative doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// Every tier this host supports, lowest first.
    fn host_tiers() -> Vec<SimdTier> {
        [SimdTier::Baseline, SimdTier::Avx2Fma, SimdTier::Avx512]
            .into_iter()
            .filter(|&t| t <= simd_tier())
            .collect()
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_on_the_normal_range() {
        let (lo, hi) = (-708.39, 709.78);
        let n = 2_000_000;
        let sweep = (0..=n).map(|i| lo + (hi - lo) * (i as f64 / n as f64));
        // Around 0 the reduction is the identity (k = 0) and the results
        // straddle the binade boundary at 1.
        let near_zero = (0..=200_000).map(|i| -1.0 + 2.0 * (i as f64 / 200_000.0));
        let exact = [0.0, -0.0, 1e-300, -1e-300, f64::MIN_POSITIVE, 0.5, -0.5];
        for x in sweep.chain(near_zero).chain(exact) {
            let (got, want) = (exp(x), x.exp());
            assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, libm {want:e}");
        }
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn exp_underflows_to_zero_and_rounds_subnormals() {
        for x in [
            -745.2,
            -745.5,
            -746.0,
            -800.0,
            -1e300,
            f64::MIN,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "exp({x:e})");
        }
        // Between the normal range and the underflow the result is a
        // correctly scaled subnormal (2^k applied in two steps), not a clamp.
        let (lo, hi) = (-745.0, -708.4);
        let n = 400_000;
        for x in (0..=n).map(|i| lo + (hi - lo) * (i as f64 / n as f64)) {
            let (got, want) = (exp(x), x.exp());
            assert!(want > 0.0 && want < f64::MIN_POSITIVE * 1.01);
            assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, libm {want:e}");
        }
    }

    #[test]
    fn exp_overflows_and_keeps_nan() {
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
        for x in [709.8, 710.0, 1e10, f64::MAX, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "exp({x:e})");
        }
        assert!(exp(709.78).is_finite());
    }

    /// A kernel outside this crate implements only the two required
    /// methods, here with a nugget on the diagonal.
    struct Nugget(ExponentialKernel);

    impl Kernel for Nugget {
        fn eval_r(&self, r: f64) -> f64 {
            self.0.eval_r(r)
        }

        fn diag(&self) -> f64 {
            self.0.diag() + 1e-3
        }
    }

    /// 300 points in which point 7 coincides with point 3.
    fn cloud() -> Vec<Point> {
        let mut pts = uniform_cube(300, 71);
        pts[7] = pts[3];
        pts
    }

    /// `block_on` on every host tier equals `entry`, bit for bit, with
    /// repeated indices and two coincident distinct points (which read
    /// `diag`), across a full and a partial row tile.
    fn assert_block_is_entry_on_every_tier(
        what: &str,
        m: &dyn EntryAccess,
        block_on: impl Fn(SimdTier, &[usize], &[usize], &mut MatMut<'_>),
        diag: f64,
    ) {
        let mut rows: Vec<usize> = (0..300).rev().collect();
        rows.extend([3, 7, 3, 0, 299]);
        let cols = [3, 7, 3, 250, 0, 0, 120, 299, 7];
        for tier in host_tiers() {
            let mut out = Mat::zeros(rows.len(), cols.len());
            out.as_mut_slice().fill(f64::NAN);
            block_on(tier, &rows, &cols, &mut out.rm());
            for (ii, &i) in rows.iter().enumerate() {
                for (jj, &j) in cols.iter().enumerate() {
                    let (got, want) = (out[(ii, jj)], m.entry(i, j));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{what} {tier:?} ({i}, {j}): {got:e} vs {want:e}"
                    );
                }
            }
        }
        assert_eq!(m.entry(3, 7), diag, "{what}");
        assert_eq!(m.entry(7, 3), diag, "{what}");
        assert_ne!(m.entry(3, 4), diag, "{what}");
    }

    fn check<K: Kernel>(kernel: K, what: &str) {
        let km = KernelMatrix::new(kernel, cloud());
        let block_on = |t, r: &[usize], c: &[usize], o: &mut MatMut<'_>| km.block_on(t, r, c, o);
        assert_block_is_entry_on_every_tier(what, &km, block_on, km.kernel.diag());
    }

    #[test]
    fn block_is_entry_on_every_tier_for_every_kernel() {
        check(ExponentialKernel::default(), "exponential");
        check(HelmholtzKernel::paper(300), "helmholtz");
        check(GaussianKernel { l: 0.3 }, "gaussian");
        check(Matern32Kernel { l: 0.2 }, "matern32");
        check(Matern52Kernel { l: 0.2 }, "matern52");
        check(InverseMultiquadricKernel { l: 0.5 }, "imq");
        check(CauchyKernel { l: 0.5 }, "cauchy");
        check(LaplaceKernel::with_mesh_width(0.1), "laplace");
        let um = UnsymKernelMatrix::new(ConvectionKernel::default(), cloud());
        let block_on = |t, r: &[usize], c: &[usize], o: &mut MatMut<'_>| um.block_on(t, r, c, o);
        assert_block_is_entry_on_every_tier("convection", &um, block_on, um.kernel.diag());
    }

    #[test]
    fn a_kernel_with_only_eval_r_and_diag_gets_the_same_bits() {
        check(Nugget(ExponentialKernel::default()), "nugget");
        let km = KernelMatrix::new(Nugget(ExponentialKernel::default()), uniform_cube(20, 72));
        assert_eq!(km.entry(5, 5), 1.0 + 1e-3);
        assert_eq!(
            km.entry(2, 9).to_bits(),
            ExponentialKernel::default()
                .eval(&km.points[2], &km.points[9])
                .to_bits()
        );
    }
}

//! Storage/wire precision tier: f32 block storage with f64 accumulation.
//!
//! The paper's fixed-precision compression direction (Boukaram–Turkiyyah–
//! Keyes, "Hierarchical Matrix Operations on GPUs") stores the small dense
//! blocks of a hierarchical matrix in reduced precision while keeping all
//! arithmetic in f64. This module supplies the substrate:
//!
//! * [`Precision`] — the storage/wire width selector (`F64`/`F32`) that the
//!   cost model, the transfer descriptors and the block stores all key on;
//! * [`Mat32`] — an owning column-major f32 matrix, produced by the
//!   **demote** conversion kernel ([`Mat32::demote`]) and consumed by the
//!   **promote** kernel ([`Mat32::promote`]);
//! * [`StoredMat`] — a stored block borrowed at its width, f64 or f32,
//!   multiplied through [`gemm_mixed`] when it is f32
//!   (the f32 matrix of a demoted block is its only copy);
//! * [`demote_roundtrip`] — `promote(demote(A))`, the f64 values a demoted
//!   basis keeps. Arithmetic on them is bitwise identical to the mixed
//!   GEMM on the f32 matrix, whichever of its kernels runs.
//!
//! Error model: demotion rounds every entry to the nearest f32, so
//! `‖A − promote(demote(A))‖_F ≤ ε₃₂ ‖A‖_F` with `ε₃₂ = f32::EPSILON / 2`
//! per entry (plus underflow at the f32 subnormal floor, irrelevant at the
//! block norms the demotion rule admits). Block stores use exactly this
//! bound for their norm-aware demotion decision.

use crate::gemm::{gemm, gemm_mixed, simd_tier, Op, SimdTier};
use crate::mat::{Mat, MatMut, MatRef};

/// Element width of stored blocks and wire transfers.
///
/// `F64` is the historical default everywhere; `F32` halves the modeled
/// bytes of every block shipped over the device fabric and of every block
/// the norm-aware demotion rule admits into f32 storage. Arithmetic is
/// always f64 — precision only governs storage and transfer width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    #[default]
    F64,
    F32,
}

impl Precision {
    /// Bytes per element at this width.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }

    /// Canonical lowercase name (`"f64"` / `"f32"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }

    /// Parse a `--precision` flag value.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An owning, column-major, `f32` matrix — the storage form of a demoted
/// block. Mirrors [`Mat`]'s layout so the promote kernel and the f32 pack
/// kernels address it identically.
#[derive(Clone, PartialEq)]
pub struct Mat32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat32 {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wrap column-major `data` (`rows * cols` entries).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Mat32 {
        assert_eq!(data.len(), rows * cols, "Mat32::from_vec: length mismatch");
        Mat32 { rows, cols, data }
    }

    /// Entry `(i, j)`, promoted (exact).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] as f64
    }

    /// Column-major storage slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Column `j` as a contiguous slice (the pack kernels' access path).
    pub fn col(&self, j: usize) -> &[f32] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Heap bytes of the storage (4 per element).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Demote conversion kernel: round every entry of `a` to the nearest
    /// f32 (the `batchedDemote` a GPU implementation would run once per
    /// level as blocks finalize).
    pub fn demote(a: MatRef<'_>) -> Mat32 {
        let (rows, cols) = (a.rows(), a.cols());
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(a.at(i, j) as f32);
            }
        }
        Mat32 { rows, cols, data }
    }

    /// Demote `a` and measure it in the same pass over its entries: the
    /// f32 copy and `‖a‖_F` of the f64 entries — the two inputs of the
    /// norm-aware storage rule. The squares are summed in eight interleaved
    /// partial sums (lane `q` takes the entries `q mod 8`, then the lanes
    /// are added in order), a fixed order independent of the host; the pass
    /// runs on this host's SIMD tier.
    pub fn demote_measured(a: &Mat) -> (Mat32, f64) {
        demote_measured_on(simd_tier(), a)
    }

    /// Promote conversion kernel: widen back to f64 (exact — every f32 is
    /// representable).
    pub fn promote(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }
}

/// A stored block borrowed at the width it is stored in: an f64 matrix, or
/// the f32 matrix that is a demoted block's only copy. Readers that need
/// f64 values promote on the fly ([`StoredMat::at`], [`StoredMat::to_mat`])
/// or multiply through [`StoredMat::gemm`], which reads the f32 copy
/// directly ([`gemm_mixed`]).
#[derive(Clone, Copy, Debug)]
pub enum StoredMat<'a> {
    F64(&'a Mat),
    F32(&'a Mat32),
}

impl StoredMat<'_> {
    pub fn rows(self) -> usize {
        match self {
            StoredMat::F64(m) => m.rows(),
            StoredMat::F32(m) => m.rows(),
        }
    }

    pub fn cols(self) -> usize {
        match self {
            StoredMat::F64(m) => m.cols(),
            StoredMat::F32(m) => m.cols(),
        }
    }

    /// The storage width.
    pub fn precision(self) -> Precision {
        match self {
            StoredMat::F64(_) => Precision::F64,
            StoredMat::F32(_) => Precision::F32,
        }
    }

    /// Entry `(i, j)` as f64 (exact for an f32 block).
    pub fn at(self, i: usize, j: usize) -> f64 {
        match self {
            StoredMat::F64(m) => m[(i, j)],
            StoredMat::F32(m) => m.at(i, j),
        }
    }

    /// An owned f64 copy (an f32 block promoted, exactly).
    pub fn to_mat(self) -> Mat {
        match self {
            StoredMat::F64(m) => m.clone(),
            StoredMat::F32(m) => m.promote(),
        }
    }

    /// Heap bytes of the stored entries.
    pub fn memory_bytes(self) -> usize {
        match self {
            StoredMat::F64(m) => m.memory_bytes(),
            StoredMat::F32(m) => m.memory_bytes(),
        }
    }

    /// `C = alpha * op(self) * op(B) + beta * C` at the stored width:
    /// [`gemm()`](crate::gemm()) on an f64 block, [`gemm_mixed`]
    /// on an f32 one — bitwise what `gemm` computes on the promoted copy.
    pub fn gemm(self, ta: Op, tb: Op, alpha: f64, b: MatRef<'_>, beta: f64, c: MatMut<'_>) {
        match self {
            StoredMat::F64(m) => gemm(ta, tb, alpha, m.rf(), b, beta, c),
            StoredMat::F32(m) => gemm_mixed(ta, tb, alpha, m, b, beta, c),
        }
    }

    /// Allocate and return `op(self) * op(B)` ([`StoredMat::gemm`]'s
    /// [`matmul`](crate::matmul)).
    pub fn matmul(self, ta: Op, tb: Op, b: MatRef<'_>) -> Mat {
        let rows = match ta {
            Op::NoTrans => self.rows(),
            Op::Trans => self.cols(),
        };
        let mut c = Mat::zeros(rows, tb.cols_of(b));
        self.gemm(ta, tb, 1.0, b, 0.0, c.rm());
        c
    }
}

/// [`Mat32::demote_measured`] compiled for `tier`, which must be one this
/// host supports.
fn demote_measured_on(tier: SimdTier, a: &Mat) -> (Mat32, f64) {
    assert!(
        tier <= simd_tier(),
        "demote tier {tier:?} beyond the host's"
    );
    let src = a.as_slice();
    let mut data = vec![0.0f32; src.len()];
    let sq = match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above checked that the host supports `tier`,
        // and the Avx512 tier is detected with AVX-512F.
        SimdTier::Avx512 => unsafe { demote_squares_avx512(src, &mut data) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; the Avx2Fma tier is detected with AVX2.
        SimdTier::Avx2Fma => unsafe { demote_squares_avx2(src, &mut data) },
        _ => demote_squares(src, &mut data),
    };
    let m32 = Mat32 {
        rows: a.rows(),
        cols: a.cols(),
        data,
    };
    (m32, sq.sqrt())
}

/// `dst[i] = src[i] as f32`, returning `Σ src[i]²` summed in eight
/// interleaved lanes. Inlined into the SIMD-tier wrappers.
#[inline(always)]
fn demote_squares(src: &[f64], dst: &mut [f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let (chunks, rest) = src.as_chunks::<8>();
    let (dchunks, drest) = dst.as_chunks_mut::<8>();
    for (c, d) in chunks.iter().zip(dchunks.iter_mut()) {
        for q in 0..8 {
            lanes[q] += c[q] * c[q];
            d[q] = c[q] as f32;
        }
    }
    for (q, (&v, d)) in rest.iter().zip(drest.iter_mut()).enumerate() {
        lanes[q] += v * v;
        *d = v as f32;
    }
    lanes.iter().fold(0.0, |acc, &l| acc + l)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn demote_squares_avx512(src: &[f64], dst: &mut [f32]) -> f64 {
    demote_squares(src, dst)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn demote_squares_avx2(src: &[f64], dst: &mut [f32]) -> f64 {
    demote_squares(src, dst)
}

impl std::fmt::Debug for Mat32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mat32({}x{})", self.rows, self.cols)
    }
}

/// The f64 values of a demoted matrix: `promote(demote(a))`. Every value
/// is exactly f32-representable, so f64 arithmetic on them is bitwise
/// identical to promoting the f32 matrix on the fly (the mixed GEMM).
pub fn demote_roundtrip(a: &Mat) -> Mat {
    Mat32::demote(a.rf()).promote()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::gaussian_mat;

    #[test]
    fn precision_bytes_and_parse() {
        assert_eq!(Precision::F64.bytes(), 8);
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse("fp16"), None);
        assert_eq!(Precision::default(), Precision::F64);
        assert_eq!(Precision::F32.to_string(), "f32");
    }

    #[test]
    fn roundtrip_error_within_f32_eps() {
        let a = gaussian_mat(23, 17, 42);
        let r = demote_roundtrip(&a);
        let eps = 0.5 * f32::EPSILON as f64;
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                let (x, y) = (a[(i, j)], r[(i, j)]);
                assert!(
                    (x - y).abs() <= eps * x.abs() + f32::MIN_POSITIVE as f64,
                    "entry ({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_idempotent() {
        // The working copy is exactly f32-representable: demoting it again
        // changes nothing (the bitwise-equality contract of the mixed path).
        let a = gaussian_mat(9, 11, 7);
        let once = demote_roundtrip(&a);
        let twice = demote_roundtrip(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn demote_measured_is_demote_and_norm_on_every_tier() {
        for (m, n) in [(8, 6), (64, 64), (3, 5), (0, 4), (7, 1)] {
            let a = gaussian_mat(m, n, 21);
            let (want, norm) = demote_measured_on(SimdTier::Baseline, &a);
            assert_eq!(want, Mat32::demote(a.rf()));
            assert!((norm - a.norm_fro()).abs() <= 1e-14 * a.norm_fro());
            for tier in crate::strip::host_tiers() {
                let (got, got_norm) = demote_measured_on(tier, &a);
                assert_eq!(got, want, "{tier:?}");
                assert_eq!(got_norm.to_bits(), norm.to_bits(), "{tier:?}");
            }
        }
    }

    #[test]
    fn demote_promote_shapes_and_memory() {
        let a = gaussian_mat(6, 4, 3);
        let m32 = Mat32::demote(a.rf());
        assert_eq!((m32.rows(), m32.cols()), (6, 4));
        assert_eq!(m32.memory_bytes(), 6 * 4 * 4);
        assert_eq!(m32.promote().memory_bytes(), 6 * 4 * 8);
        assert_eq!(m32.at(2, 3), a[(2, 3)] as f32 as f64);
    }
}

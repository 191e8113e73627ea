//! Right-hand sides in strips: the multi-column kernels (the level-2
//! `Q` / `Qᵀ` application and the left triangular, LU and Cholesky solves)
//! run across columns, one vector lane per column.
//!
//! [`for_strips`] copies each run of [`S`] consecutive columns into an
//! interleaved, 64-byte aligned scratch in which row `i` holds those
//! columns' `S` entries `i`, runs the kernel on it and copies the result
//! back. The last partial strip runs the narrowest of the 4-, 8-, 16- and
//! 32-lane instances it fits; it is zero-padded and its spare lanes are
//! thrown away. A single column runs the one-lane instance in place, with
//! no copy.
//!
//! A kernel ([`StripKernel`]) is written once, generic over the lane count
//! `L`, and gives every lane the operation sequence its column has alone —
//! no lane reads another, and nothing is fused (no `mul_add`, no FMA
//! intrinsics; Rust never contracts a multiply and an add on its own). So
//! column `j` of a `d`-wide result is bit-identical at every width and on
//! every SIMD tier. The strips, copies included, run inside a
//! `#[target_feature]` wrapper picked by [`simd_tier`]: on AVX-512 an
//! `S = 32` row is four zmm vectors, and the kernel's per-lane chains
//! become four vector chains that stream the rows.

use crate::gemm::{simd_tier, SimdTier};
use crate::mat::MatMut;

/// Right-hand-side columns per strip (the lane count of the wide instance).
pub(crate) const S: usize = 32;

/// A right-hand-side kernel over the rows of an `L`-column strip: row `i`
/// holds the `L` columns' entries `i`. Each lane must run the operation
/// sequence its column has alone, so the lane count never shows in the bits.
pub(crate) trait StripKernel {
    /// Run on one strip; implementations are `#[inline(always)]` so the
    /// body compiles inside the SIMD-tier wrapper that calls it.
    fn run<const L: usize>(&self, x: &mut [[f64; L]]);
}

/// Run `kernel` over every column of `b` on this host's SIMD tier.
pub(crate) fn for_strips(b: &mut MatMut<'_>, kernel: &impl StripKernel) {
    for_strips_on(simd_tier(), b, kernel);
}

/// [`for_strips`] with the wide instance compiled for `tier`, which must be
/// one this host supports (the tests run every such tier).
pub(crate) fn for_strips_on(tier: SimdTier, b: &mut MatMut<'_>, kernel: &impl StripKernel) {
    assert!(tier <= simd_tier(), "strip tier {tier:?} beyond the host's");
    let (m, n) = (b.rows(), b.cols());
    if n == 1 {
        kernel.run::<1>(b.col_mut(0).as_chunks_mut().0);
        return;
    }
    if n == 0 || m == 0 {
        return;
    }
    // Rows start on 64-byte boundaries, so no vector access of a row
    // splits a cache line (that costs the AVX-512 kernels up to half). The
    // scratch is as wide as the widest instance `strips` will run.
    let len = m * match n {
        0..=4 => 4,
        5..=8 => 8,
        9..=16 => 16,
        _ => S,
    };
    let mut buf = vec![0.0; len + 7];
    let off = buf.as_ptr().align_offset(64).min(7);
    let buf = &mut buf[off..off + len];
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: the assert above checked that the host supports `tier`,
        // and the Avx512 tier is detected with AVX-512F.
        SimdTier::Avx512 => return unsafe { strips_avx512(kernel, b, buf) },
        // SAFETY: as above; the Avx2Fma tier is detected with AVX2.
        SimdTier::Avx2Fma => return unsafe { strips_avx2(kernel, b, buf) },
        SimdTier::Baseline => {}
    }
    strips(kernel, b, buf);
}

/// Every strip of `b`, in the scratch `buf`: full strips run the
/// `S`-lane instance; a last partial strip of `w` columns runs the 4-, 8-
/// or 16-lane instance when `w` fits, so a narrow block does not pay for
/// 32 lanes. Inlined into the SIMD-tier wrappers, so the copies compile for
/// the tier too.
#[inline(always)]
fn strips(kernel: &impl StripKernel, b: &mut MatMut<'_>, buf: &mut [f64]) {
    let n = b.cols();
    for j0 in (0..n).step_by(S) {
        match S.min(n - j0) {
            w @ 0..=4 => strip::<4>(kernel, b, j0, w, buf),
            w @ 5..=8 => strip::<8>(kernel, b, j0, w, buf),
            w @ 9..=16 => strip::<16>(kernel, b, j0, w, buf),
            w => strip::<S>(kernel, b, j0, w, buf),
        }
    }
}

/// Columns `j0..j0 + w` of `b` (`w ≤ L`) through the `L`-lane instance:
/// copy them into the lanes of `buf` viewed as `L`-wide rows, zero the
/// spare lanes, run, copy back.
#[inline(always)]
fn strip<const L: usize>(
    kernel: &impl StripKernel,
    b: &mut MatMut<'_>,
    j0: usize,
    w: usize,
    buf: &mut [f64],
) {
    let x: &mut [[f64; L]] = buf[..b.rows() * L].as_chunks_mut().0;
    if w < L {
        x.iter_mut().for_each(|row| row[w..].fill(0.0));
    }
    for lane in 0..w {
        for (row, &v) in x.iter_mut().zip(b.col(j0 + lane)) {
            row[lane] = v;
        }
    }
    kernel.run::<L>(x);
    for lane in 0..w {
        for (row, v) in x.iter().zip(b.col_mut(j0 + lane)) {
            *v = row[lane];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn strips_avx512(kernel: &impl StripKernel, b: &mut MatMut<'_>, buf: &mut [f64]) {
    strips(kernel, b, buf);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn strips_avx2(kernel: &impl StripKernel, b: &mut MatMut<'_>, buf: &mut [f64]) {
    strips(kernel, b, buf);
}

/// Every tier this host supports, lowest first (for the tests).
#[cfg(test)]
pub(crate) fn host_tiers() -> Vec<SimdTier> {
    [SimdTier::Baseline, SimdTier::Avx2Fma, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd_tier())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    /// Adds `1 + 2·row` to every lane and records the widths it ran at.
    struct Count(std::cell::RefCell<Vec<usize>>);

    impl StripKernel for Count {
        #[inline(always)]
        fn run<const L: usize>(&self, x: &mut [[f64; L]]) {
            self.0.borrow_mut().push(L);
            for (i, row) in x.iter_mut().enumerate() {
                row.iter_mut().for_each(|v| *v += 1.0 + 2.0 * i as f64);
            }
        }
    }

    #[test]
    fn strips_cover_every_column_once() {
        // A sub-view with ld > rows whose last column ends short of a stride.
        for n in [0, 1, 2, 4, 5, 8, 9, 16, 17, 31, 32, 33, 64, 67] {
            for tier in host_tiers() {
                let mut m = Mat::zeros(5, n + 2);
                let mut v = m.view_mut(1, 1, 3, n);
                let k = Count(Default::default());
                for_strips_on(tier, &mut v, &k);
                let mut want = vec![S; n / S];
                match n % S {
                    0 => {}
                    _ if n == 1 => want.push(1),
                    1..=4 => want.push(4),
                    5..=8 => want.push(8),
                    9..=16 => want.push(16),
                    _ => want.push(S),
                }
                assert_eq!(k.0.into_inner(), want, "n = {n}");
                for j in 0..n + 2 {
                    for i in 0..5 {
                        let inside = (1..4).contains(&i) && (1..=n).contains(&j);
                        let want = if inside { 2.0 * i as f64 - 1.0 } else { 0.0 };
                        assert_eq!(m[(i, j)], want, "n = {n}, ({i}, {j})");
                    }
                }
            }
        }
    }
}

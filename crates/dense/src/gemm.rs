//! General matrix-matrix multiplication for column-major views.
//!
//! `gemm` computes `C = alpha * op(A) * op(B) + beta * C` with the four
//! transpose combinations. Two kernels back it:
//!
//! * **Packed blocked kernel** (BLIS-style, the default above the small-
//!   matrix crossover). The macro loops tile the product `NC → KC → MC`
//!   (columns of C, the inner dimension, rows of C); within an
//!   `MC × KC × NC` block, `op(A)` is packed into `MR`-row micro-panels and
//!   `op(B)` into `NR`-column micro-panels, which normalizes all four
//!   transpose combinations into one contiguous layout — the inner kernel
//!   never sees a stride or a transpose again. The register-tiled `MR × NR`
//!   microkernel walks the shared `KC` dimension over both packed panels
//!   (pure FMA chains, no per-element zero-check branch), accumulates in
//!   registers, and fuses `alpha` into the single write-out pass (`beta` is
//!   applied once up front, so the macro loops only ever accumulate).
//!   Runtime CPU detection routes the microkernel through one of three
//!   compilation tiers without changing build flags: AVX-512F (a widened
//!   `MR512 × NR` register tile), AVX2+FMA (the `MR × NR` tile), or the
//!   portable baseline. Per-`(i,j)` accumulation order along `k` is the
//!   same in every tier, so tier selection never changes results bitwise.
//!
//! * **Naive axpy/dot kernel** ([`gemm_naive`], retained verbatim). The
//!   innermost loop walks a contiguous column, which is optimal for the
//!   tiny blocks that dominate deep tree levels, where packing would cost
//!   more than it saves. [`gemm`] falls back to it below the crossover, so
//!   small-block performance is unchanged by construction; it is also the
//!   reference implementation the property tests compare against.
//!
//! # Blocking parameters
//!
//! | param | value | constraint |
//! |---|---|---|
//! | `MR × NR` | 8 × 4 | AVX2/baseline tile: 32 accumulators = 8 AVX2 vectors |
//! | `MR512 × NR` | 16 × 4 | AVX-512F tile: 64 accumulators = 8 zmm vectors |
//! | `MC` | 128 | `MC × KC` packed A block ≈ 256 KiB (L2-resident) |
//! | `KC` | 256 | `KC × NR` B micro-panel ≈ 8 KiB (L1-resident) |
//! | `NC` | 512 | `KC × NC` packed B block ≈ 1 MiB (LLC-resident) |
//!
//! The row tile is chosen **per call** by [`dispatched_mr`]: the AVX-512
//! tier packs `MR512`-row panels when `op(A)` has at least `MR512` rows and
//! falls back to the `MR` tile below that, so mid-size blocks
//! (`MR ≤ m < MR512`) keep taking the packed path instead of silently
//! dropping to [`gemm_naive`] — the crossover guard consults the same
//! per-call tile, never a compile-time constant.
//!
//! # Packing layout
//!
//! `pack_a` stores `op(A)[ic.., pc..]` as `ceil(mc/MR)` panels; panel `q`
//! holds rows `q*MR..q*MR+MR` in k-major order (`buf[q*MR*kc + p*MR + i]`),
//! zero-padded to a full `MR` rows so the microkernel needs no row bound.
//! `pack_b` mirrors this with `NR`-column panels
//! (`buf[q*NR*kc + p*NR + j]`). Packing traffic is counted in
//! [`stats`] and surfaced through `h2_runtime`'s profile.
//!
//! # Small-matrix crossover
//!
//! Measured with `h2_bench --bin kernels` on the CI container: the packed
//! kernel is ahead of the axpy form for every square size probed down to
//! n = 8 (1.0–1.4x there, 2–3x by n = 24, 3–40x at n = 512), so the
//! crossover is expressed as *dimension* guards rather than a flop volume:
//! [`gemm`] dispatches to the packed path when `m ≥ dispatched_mr(m)`
//! (the per-call row tile — effectively `m ≥ MR` on every tier), `k ≥ 8`,
//! `n ≥ NR` and the product volume is at least 8³. Below any of those, a
//! tile would be mostly padding and the axpy form is kept — so
//! sub-crossover performance is unchanged by construction.
//!
//! Batch-level parallelism lives in `h2-runtime`; [`par_gemm`] parallelizes
//! the *same* packed kernel for the few genuinely large single products
//! (dense samplers, frontal Schur updates): tall C splits into `MC`-row
//! bands that **share each packed `KC × NC` B panel** (packed once, read by
//! every worker — no per-worker repacking), short-and-wide C falls back to
//! disjoint column panels where the redundant A packing is cheap.

use crate::mat::{Mat, MatMut, MatRef};
use crate::prec::Mat32;
use rayon::prelude::*;

/// Transpose selector, mirroring the BLAS `trans` argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    NoTrans,
    Trans,
}

impl Op {
    /// Rows of `op(A)` given the storage shape of `A`.
    pub fn rows_of(self, a: MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.rows(),
            Op::Trans => a.cols(),
        }
    }

    /// Columns of `op(A)` given the storage shape of `A`.
    pub fn cols_of(self, a: MatRef<'_>) -> usize {
        match self {
            Op::NoTrans => a.cols(),
            Op::Trans => a.rows(),
        }
    }
}

/// Microkernel row tile of the AVX2/baseline tiers (accumulator rows).
pub const MR: usize = 8;
/// Widened microkernel row tile of the AVX-512F tier.
pub const MR512: usize = 16;
/// Microkernel column tile (accumulator columns, all tiers).
pub const NR: usize = 4;
/// Rows of C per packed-A block.
const MC: usize = 128;
/// Shared inner dimension per packed block pair.
const KC: usize = 256;
/// Columns of C per packed-B block.
const NC: usize = 512;

/// Counters for the dense-kernel activity the batched runtime cannot see
/// from the outside: packed-GEMM invocations, bytes staged through the
/// packing buffers, and `gemv` calls.
///
/// Each call is counted into the runtime the call runs under: a caller
/// installs a [`stats::DenseCounters`] sink with [`stats::counting`] for
/// the duration of a closure (`h2_runtime::Runtime::phase` installs its
/// profile's), and every dense call inside it — on this thread, or on the
/// pool tasks and device jobs it submits, which inherit the sink through
/// [`rayon::inherit`] — adds to that sink. With no sink installed, nothing
/// is counted.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// One owner's dense-layer counters.
    #[derive(Debug, Default)]
    pub struct DenseCounters {
        pack_calls: AtomicU64,
        pack_bytes: AtomicU64,
        gemv_calls: AtomicU64,
    }

    impl DenseCounters {
        /// Packed-kernel invocations (each packs at least one block pair).
        pub fn pack_calls(&self) -> u64 {
            self.pack_calls.load(Ordering::Relaxed)
        }

        /// Bytes written into packing buffers (A and B panels).
        pub fn pack_bytes(&self) -> u64 {
            self.pack_bytes.load(Ordering::Relaxed)
        }

        /// `gemv` invocations.
        pub fn gemv_calls(&self) -> u64 {
            self.gemv_calls.load(Ordering::Relaxed)
        }

        /// Zero every counter.
        pub fn reset(&self) {
            self.pack_calls.store(0, Ordering::Relaxed);
            self.pack_bytes.store(0, Ordering::Relaxed);
            self.gemv_calls.store(0, Ordering::Relaxed);
        }
    }

    /// Run `f` with `sink` as this thread's current sink, restoring the
    /// previous one afterwards (also when `f` panics).
    pub fn counting<R>(sink: &Arc<DenseCounters>, f: impl FnOnce() -> R) -> R {
        rayon::inherit::scoped(Some(sink.clone()), f)
    }

    /// `job` bound to this thread's current sink, for a thread hand-off
    /// the pool does not see (the device fabric's job queues).
    pub use rayon::inherit::inheriting;

    fn add(f: impl FnOnce(&DenseCounters)) {
        rayon::inherit::with::<DenseCounters, _>(|sink| sink.map(f));
    }

    pub(super) fn add_pack(calls: u64, bytes: u64) {
        add(|c| {
            c.pack_calls.fetch_add(calls, Ordering::Relaxed);
            c.pack_bytes.fetch_add(bytes, Ordering::Relaxed);
        });
    }

    pub(super) fn add_gemv() {
        add(|c| {
            c.gemv_calls.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// The SIMD compilation tier the microkernel dispatcher selected for this
/// host, detected once per process. Tiers are ordered: a host supports
/// every tier up to the one detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable baseline (the compiler's default codegen, SSE2 on x86-64).
    Baseline,
    /// AVX2 + FMA: the `MR × NR` register tile.
    Avx2Fma,
    /// AVX-512F: the widened `MR512 × NR` register tile.
    Avx512,
}

/// Runtime-detected microkernel tier (cached after the first call).
pub fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static TIER: AtomicU8 = AtomicU8::new(0);
        let state = TIER.load(Ordering::Relaxed);
        let code = if state == 0 {
            let c = if std::is_x86_feature_detected!("avx512f") {
                3
            } else if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            {
                2
            } else {
                1
            };
            TIER.store(c, Ordering::Relaxed);
            c
        } else {
            state
        };
        match code {
            3 => SimdTier::Avx512,
            2 => SimdTier::Avx2Fma,
            _ => SimdTier::Baseline,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdTier::Baseline
}

/// The row tile the packed path will use for an `m`-row `op(A)`: the
/// AVX-512 tier's `MR512` when the host has it *and* the operand fills at
/// least one widened panel row-wise, else `MR`. Mid-size operands
/// (`MR ≤ m < MR512`) deliberately keep the narrow tile — a 16-row panel
/// would be half padding there, and more importantly the crossover guard
/// below must not push them to the naive kernel on AVX-512 hosts.
#[inline]
pub fn dispatched_mr(m: usize) -> usize {
    if simd_tier() == SimdTier::Avx512 && m >= MR512 {
        MR512
    } else {
        MR
    }
}

/// The measured crossover: use the packed kernel only when the flop volume
/// amortizes the packing pass (see the module doc). The row guard compares
/// against the *per-call* tile of [`dispatched_mr`] — which by construction
/// never exceeds `m` once `m ≥ MR` — so the AVX-512 tier widening the
/// preferred tile to `MR512` cannot demote `MR ≤ m < MR512` blocks to the
/// naive kernel.
#[inline]
fn use_packed(m: usize, n: usize, k: usize) -> bool {
    m >= dispatched_mr(m) && k >= 8 && n >= NR && m.saturating_mul(n).saturating_mul(k) >= 512
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes are checked: `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
pub fn gemm(
    ta: Op,
    tb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, n, k) = check_and_scale(ta, tb, a, b, beta, &mut c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_packed(m, n, k) {
        packed_accumulate(ta, tb, alpha, a, b, c);
    } else {
        naive_accumulate(ta, tb, alpha, a, b, c);
    }
}

/// The RHS-width-invariant crossover: the same row/depth guards as
/// [`use_packed`], with the volume term evaluated at the `NR`-column
/// saturation point instead of the true `n` — a function of `(m, k)` only.
#[inline]
fn use_packed_rhs(m: usize, k: usize) -> bool {
    m >= dispatched_mr(m) && k >= 8 && m.saturating_mul(NR).saturating_mul(k) >= 512
}

/// `C = alpha * op(A) * op(B) + beta * C` with a kernel choice that is a
/// function of `op(A)`'s shape **only** — never of the RHS width `n`.
///
/// Both kernels accumulate each column of C independently with a fixed
/// order along `k`: the naive axpy form walks `l` in order per column, and
/// the packed path splits `k` into the same `KC` panels and runs the same
/// per-`(i, j)` FMA chain into a private accumulator lane no matter how
/// many columns share the call (padding lanes of a partial `NR` panel are
/// separate accumulators that never touch real columns). With the
/// dispatch decided by `use_packed_rhs(m, k)` alone, **column `j` of
/// the result is bitwise identical for every RHS width it rides in**: the
/// `n = 32` call produces in `C[:, j]` exactly what the `n = 1` call on
/// `B[:, j]` produces. [`gemm`] deliberately does *not* have this property
/// (its crossover reads `n`, so a single column can take the twice-rounding
/// naive kernel while a block takes the once-rounding FMA microkernel).
///
/// This is the GEMM analogue of `blocked_dot`'s fixed reduction tree, and
/// the contract the blocked multi-RHS solve sweep pins its
/// blocked-vs-sequential bit-identity on. The price is that single-column
/// calls above the crossover pay the packed path's padded microkernel
/// lanes; use it on the sweep-critical products where the invariance is the
/// point, and plain [`gemm`] everywhere else.
pub fn gemm_rhs(
    ta: Op,
    tb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, n, k) = check_and_scale(ta, tb, a, b, beta, &mut c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_packed_rhs(m, k) {
        packed_accumulate(ta, tb, alpha, a, b, c);
    } else {
        naive_accumulate(ta, tb, alpha, a, b, c);
    }
}

/// The retained axpy/dot-form reference kernel (the pre-blocking `gemm`).
/// Identical semantics to [`gemm`]; used below the small-matrix crossover
/// and as the ground truth in property tests and kernel benchmarks.
pub fn gemm_naive(
    ta: Op,
    tb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, n, k) = check_and_scale(ta, tb, a, b, beta, &mut c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    naive_accumulate(ta, tb, alpha, a, b, c);
}

/// Shared entry: shape checks plus the single up-front `beta` application
/// (everything downstream purely accumulates).
fn check_and_scale(
    ta: Op,
    tb: Op,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
) -> (usize, usize, usize) {
    let m = ta.rows_of(a);
    let k = ta.cols_of(a);
    let k2 = tb.rows_of(b);
    let n = tb.cols_of(b);
    assert_eq!(k, k2, "gemm: inner dimension mismatch ({k} vs {k2})");
    assert_eq!(c.rows(), m, "gemm: C row mismatch");
    assert_eq!(c.cols(), n, "gemm: C col mismatch");
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill(0.0);
        } else {
            c.scale(beta);
        }
    }
    (m, n, k)
}

/// The pre-blocking kernels: innermost loop walks a contiguous column
/// (axpy / dot form), which auto-vectorizes well for tiny blocks.
fn naive_accumulate(ta: Op, tb: Op, alpha: f64, a: MatRef<'_>, b: MatRef<'_>, mut c: MatMut<'_>) {
    let m = ta.rows_of(a);
    let k = ta.cols_of(a);
    let n = tb.cols_of(b);
    match (ta, tb) {
        (Op::NoTrans, Op::NoTrans) => {
            // C[:,j] += alpha * B[l,j] * A[:,l]  (axpy over contiguous columns)
            for j in 0..n {
                let bj = b.col(j);
                let cj = c.col_mut(j);
                for l in 0..k {
                    let s = alpha * bj[l];
                    if s != 0.0 {
                        let al = a.col(l);
                        for i in 0..m {
                            cj[i] += s * al[i];
                        }
                    }
                }
            }
        }
        (Op::Trans, Op::NoTrans) => {
            // C[i,j] += alpha * dot(A[:,i], B[:,j])
            for j in 0..n {
                let bj = b.col(j);
                for i in 0..m {
                    let ai = a.col(i);
                    let mut s = 0.0;
                    for l in 0..k {
                        s += ai[l] * bj[l];
                    }
                    *c.at_mut(i, j) += alpha * s;
                }
            }
        }
        (Op::NoTrans, Op::Trans) => {
            // C[:,j] += alpha * B[j,l] * A[:,l]
            for j in 0..n {
                let cj = c.col_mut(j);
                for l in 0..k {
                    let s = alpha * b.at(j, l);
                    if s != 0.0 {
                        let al = a.col(l);
                        for i in 0..m {
                            cj[i] += s * al[i];
                        }
                    }
                }
            }
        }
        (Op::Trans, Op::Trans) => {
            // C[i,j] += alpha * sum_l A[l,i] * B[j,l]
            for j in 0..n {
                for i in 0..m {
                    let ai = a.col(i);
                    let mut s = 0.0;
                    for l in 0..k {
                        s += ai[l] * b.at(j, l);
                    }
                    *c.at_mut(i, j) += alpha * s;
                }
            }
        }
    }
}

/// Size `buf` to `len` without the full zero-fill of `resize` on reuse:
/// growth zero-initializes (first call), shrinking truncates. Callers
/// overwrite every non-padding lane and explicitly zero the padding, so
/// stale values from a previous block can never leak into a panel.
fn ensure_pack_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    } else {
        buf.truncate(len);
    }
}

/// Pack `op(A)[ic..ic+mc, pc..pc+kc]` into `mrt`-row micro-panels
/// (`buf[q*mrt*kc + p*mrt + i]`), zero-padding the last panel to `mrt`
/// rows. `mrt` is the dispatched row tile (`MR` or `MR512`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ta: Op,
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mrt: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(mrt);
    ensure_pack_len(buf, panels * mrt * kc);
    // Zero only the padding lanes: rows mc..panels*mrt of the last panel.
    let tail = mc % mrt;
    if tail != 0 {
        let base = (panels - 1) * mrt * kc;
        for p in 0..kc {
            buf[base + p * mrt + tail..base + p * mrt + mrt].fill(0.0);
        }
    }
    match ta {
        Op::NoTrans => {
            // Source columns are contiguous: walk column p, scatter to panels.
            for p in 0..kc {
                let col = a.col(pc + p);
                for q in 0..panels {
                    let i0 = q * mrt;
                    let cnt = mrt.min(mc - i0);
                    buf[q * mrt * kc + p * mrt..][..cnt]
                        .copy_from_slice(&col[ic + i0..ic + i0 + cnt]);
                }
            }
        }
        Op::Trans => {
            // op(A) row i is the contiguous source column ic + i.
            for q in 0..panels {
                let i0 = q * mrt;
                let cnt = mrt.min(mc - i0);
                for i in 0..cnt {
                    let col = a.col(ic + i0 + i);
                    let base = q * mrt * kc + i;
                    for p in 0..kc {
                        buf[base + p * mrt] = col[pc + p];
                    }
                }
            }
        }
    }
}

/// Pack `op(A)` micro-panels from an **f32-stored** matrix, promoting each
/// element at pack time — the promote-on-pack conversion point of the
/// mixed-precision path. Produces bitwise the same f64 panel as [`pack_a`]
/// on `a.promote()` (promotion is exact), so the microkernel downstream is
/// untouched and the mixed product equals the all-f64 product on the
/// promoted copy exactly. Inlined into the SIMD-tier wrappers, where the
/// conversions vectorize at the tier's width.
#[inline(always)]
fn pack_a32(
    ta: Op,
    a: &Mat32,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mrt: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(mrt);
    ensure_pack_len(buf, panels * mrt * kc);
    let tail = mc % mrt;
    if tail != 0 {
        let base = (panels - 1) * mrt * kc;
        for p in 0..kc {
            buf[base + p * mrt + tail..base + p * mrt + mrt].fill(0.0);
        }
    }
    match ta {
        Op::NoTrans => {
            for p in 0..kc {
                let col = a.col(pc + p);
                for q in 0..panels {
                    let i0 = q * mrt;
                    let cnt = mrt.min(mc - i0);
                    let dst = &mut buf[q * mrt * kc + p * mrt..][..cnt];
                    for (d, &v) in dst.iter_mut().zip(&col[ic + i0..ic + i0 + cnt]) {
                        *d = v as f64;
                    }
                }
            }
        }
        Op::Trans => {
            for q in 0..panels {
                let i0 = q * mrt;
                let cnt = mrt.min(mc - i0);
                for i in 0..cnt {
                    let col = &a.col(ic + i0 + i)[pc..pc + kc];
                    let base = q * mrt * kc + i;
                    for (p, &v) in col.iter().enumerate() {
                        buf[base + p * mrt] = v as f64;
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn pack_a32_avx512(
    ta: Op,
    a: &Mat32,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mrt: usize,
    buf: &mut Vec<f64>,
) {
    pack_a32(ta, a, ic, pc, mc, kc, mrt, buf);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pack_a32_avx2(
    ta: Op,
    a: &Mat32,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mrt: usize,
    buf: &mut Vec<f64>,
) {
    pack_a32(ta, a, ic, pc, mc, kc, mrt, buf);
}

/// Pack `op(B)[pc..pc+kc, jc..jc+nc]` into `NR`-column micro-panels
/// (`buf[q*NR*kc + p*NR + j]`), zero-padding the last panel to `NR` columns.
fn pack_b(tb: Op, b: MatRef<'_>, pc: usize, jc: usize, kc: usize, nc: usize, buf: &mut Vec<f64>) {
    let panels = nc.div_ceil(NR);
    ensure_pack_len(buf, panels * NR * kc);
    // Zero only the padding lanes: columns nc..panels*NR of the last panel.
    let tail = nc % NR;
    if tail != 0 {
        let base = (panels - 1) * NR * kc;
        for p in 0..kc {
            buf[base + p * NR + tail..base + p * NR + NR].fill(0.0);
        }
    }
    match tb {
        Op::NoTrans => {
            // op(B) column j is the contiguous source column jc + j.
            for q in 0..panels {
                let j0 = q * NR;
                let cnt = NR.min(nc - j0);
                for j in 0..cnt {
                    let col = b.col(jc + j0 + j);
                    let base = q * NR * kc + j;
                    for p in 0..kc {
                        buf[base + p * NR] = col[pc + p];
                    }
                }
            }
        }
        Op::Trans => {
            // Source columns are contiguous over j: walk column pc + p.
            for p in 0..kc {
                let col = b.col(pc + p);
                for q in 0..panels {
                    let j0 = q * NR;
                    let cnt = NR.min(nc - j0);
                    let base = q * NR * kc + p * NR;
                    buf[base..base + cnt].copy_from_slice(&col[jc + j0..jc + j0 + cnt]);
                }
            }
        }
    }
}

/// Register-tiled inner product of one packed A panel against one packed B
/// panel over the shared `kc` dimension. Branch-free FMA chains; the padded
/// panels make every lane valid.
#[inline(always)]
fn micro_accumulate(ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0f64; MR]; NR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let av: &[f64; MR] = av.try_into().unwrap();
        let bv: &[f64; NR] = bv.try_into().unwrap();
        for j in 0..NR {
            let s = bv[j];
            for i in 0..MR {
                acc[j][i] += av[i] * s;
            }
        }
    }
    acc
}

/// The same microkernel compiled with AVX2+FMA codegen, selected at runtime
/// so the default (SSE2 baseline) build still uses the host's vector units.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn micro_accumulate_fma(ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    micro_accumulate(ap, bp)
}

/// The widened `MR512 × NR` inner product over `MR512`-row packed panels.
/// Same per-`(i,j)` accumulation order along `k` as the narrow tile, so
/// tile width never changes results bitwise.
#[inline(always)]
fn micro_accumulate_16(ap: &[f64], bp: &[f64]) -> [[f64; MR512]; NR] {
    let mut acc = [[0.0f64; MR512]; NR];
    for (av, bv) in ap.chunks_exact(MR512).zip(bp.chunks_exact(NR)) {
        let av: &[f64; MR512] = av.try_into().unwrap();
        let bv: &[f64; NR] = bv.try_into().unwrap();
        for j in 0..NR {
            let s = bv[j];
            for i in 0..MR512 {
                acc[j][i] += av[i] * s;
            }
        }
    }
    acc
}

/// The widened microkernel compiled with AVX-512F codegen: each of the NR
/// accumulator rows is two zmm vectors (8 zmm total), `av` two zmm loads,
/// `bv[j]` a broadcast — pure vfmadd chains on the packed panels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn micro_accumulate_avx512(ap: &[f64], bp: &[f64]) -> [[f64; MR512]; NR] {
    micro_accumulate_16(ap, bp)
}

/// Run the microkernel for the dispatched row tile `mrt`, accumulating into
/// the caller's max-width tile (only `acc[j][..mrt]` is written/meaningful).
/// `mrt == MR512` is only ever dispatched on an AVX-512 host (see
/// [`dispatched_mr`]); the portable 16-wide body is kept as a safety net.
#[inline(always)]
fn run_micro(mrt: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; MR512]; NR]) {
    if mrt == MR512 {
        #[cfg(target_arch = "x86_64")]
        if simd_tier() == SimdTier::Avx512 {
            // SAFETY: `micro_accumulate_avx512` only needs the CPU to
            // support AVX-512F, which the runtime tier check above confirmed.
            *acc = unsafe { micro_accumulate_avx512(ap, bp) };
            return;
        }
        *acc = micro_accumulate_16(ap, bp);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd_tier() != SimdTier::Baseline {
        // AVX-512 hosts also take this arm for narrow (m < MR512) calls:
        // the AVX2 tile is the better fit there and zmm warm-up is avoided.
        // SAFETY: `micro_accumulate_fma` only needs AVX2 and FMA: the
        // Avx2Fma tier is detected with both, and the Avx512 tier with
        // AVX-512F, which implies them.
        let t = unsafe { micro_accumulate_fma(ap, bp) };
        for j in 0..NR {
            acc[j][..MR].copy_from_slice(&t[j]);
        }
        return;
    }
    let t = micro_accumulate(ap, bp);
    for j in 0..NR {
        acc[j][..MR].copy_from_slice(&t[j]);
    }
}

/// The blocked-packed macro loops over one C target (serial). `beta` has
/// already been applied; this purely accumulates `alpha * op(A) op(B)`.
fn packed_accumulate(ta: Op, tb: Op, alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    let m = ta.rows_of(a);
    let k = ta.cols_of(a);
    let mrt = dispatched_mr(m);
    packed_macro_loops(mrt, tb, alpha, m, k, b, c, |ic, pc, mc, kc, buf| {
        pack_a(ta, a, ic, pc, mc, kc, mrt, buf)
    });
}

/// The macro-loop body shared by the all-f64 and mixed-precision packed
/// kernels: only the pack-A stage differs (where the f32 → f64 promotion
/// happens), so everything downstream of packing is literally the same code.
#[allow(clippy::too_many_arguments)]
fn packed_macro_loops<PA>(
    mrt: usize,
    tb: Op,
    alpha: f64,
    m: usize,
    k: usize,
    b: MatRef<'_>,
    mut c: MatMut<'_>,
    pack_a_block: PA,
) where
    PA: Fn(usize, usize, usize, usize, &mut Vec<f64>),
{
    let n = tb.cols_of(b);
    let mut apack: Vec<f64> = Vec::new();
    let mut bpack: Vec<f64> = Vec::new();
    let mut packed_bytes = 0u64;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(tb, b, pc, jc, kc, nc, &mut bpack);
            packed_bytes += (bpack.len() * 8) as u64;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a_block(ic, pc, mc, kc, &mut apack);
                packed_bytes += (apack.len() * 8) as u64;
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * NR * kc..][..NR * kc];
                    for ir in (0..mc).step_by(mrt) {
                        let mr = mrt.min(mc - ir);
                        let ap = &apack[(ir / mrt) * mrt * kc..][..mrt * kc];
                        let mut acc = [[0.0f64; MR512]; NR];
                        run_micro(mrt, ap, bp, &mut acc);
                        // Single write-out pass with alpha fused; only the
                        // valid mr x nr corner of the padded tile lands.
                        for j in 0..nr {
                            let col = c.col_mut(jc + jr + j);
                            let dst = &mut col[ic + ir..ic + ir + mr];
                            let accj = &acc[j];
                            for (d, &v) in dst.iter_mut().zip(accj.iter()) {
                                *d += alpha * v;
                            }
                        }
                    }
                }
            }
        }
    }
    stats::add_pack(1, packed_bytes);
}

/// Mixed-precision GEMM: `C = alpha * op(A₃₂) * op(B) + beta * C` with the
/// `A` operand **stored in f32** and all arithmetic accumulating in f64.
///
/// It is the product of a block whose f32 storage is its only copy, so no
/// f64 copy of `A` is ever made. Above the crossover it packs the f32
/// operand straight into the f64 micro-panels (`pack_a32` — promotion
/// happens at the packing stage, and the register-tiled microkernel is
/// byte-for-byte the all-f64 one). Below it, the naive axpy/dot kernel runs
/// on the f32 operand and promotes each element in a register, with the
/// operations of [`gemm`]'s naive kernel in the same order; its transposed
/// dots run eight output entries at once, one lane each, every lane the
/// serial chain its entry has alone. Either way the result is **bitwise
/// identical** to [`gemm`] on `a.promote()`, on every SIMD tier: nothing
/// is fused (no `mul_add`, no FMA), and the tier only picks the codegen.
pub fn gemm_mixed(ta: Op, tb: Op, alpha: f64, a: &Mat32, b: MatRef<'_>, beta: f64, c: MatMut<'_>) {
    gemm_mixed_on(simd_tier(), ta, tb, alpha, a, b, beta, c);
}

/// [`gemm_mixed`] with its sub-crossover kernel and its f32 packing
/// compiled for `tier`, which must be one this host supports.
fn gemm_mixed_on(
    tier: SimdTier,
    ta: Op,
    tb: Op,
    alpha: f64,
    a: &Mat32,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    assert!(
        tier <= simd_tier(),
        "gemm_mixed tier {tier:?} beyond the host's"
    );
    let (m, k) = match ta {
        Op::NoTrans => (a.rows(), a.cols()),
        Op::Trans => (a.cols(), a.rows()),
    };
    let k2 = tb.rows_of(b);
    let n = tb.cols_of(b);
    assert_eq!(k, k2, "gemm_mixed: inner dimension mismatch ({k} vs {k2})");
    assert_eq!(c.rows(), m, "gemm_mixed: C row mismatch");
    assert_eq!(c.cols(), n, "gemm_mixed: C col mismatch");
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill(0.0);
        } else {
            c.scale(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if use_packed(m, n, k) {
        let mrt = dispatched_mr(m);
        packed_macro_loops(mrt, tb, alpha, m, k, b, c, |ic, pc, mc, kc, buf| {
            #[cfg(target_arch = "x86_64")]
            match tier {
                SimdTier::Avx512 => {
                    // SAFETY: the assert above checked that the host
                    // supports `tier`, and the Avx512 tier is detected with
                    // AVX-512F.
                    return unsafe { pack_a32_avx512(ta, a, ic, pc, mc, kc, mrt, buf) };
                }
                SimdTier::Avx2Fma => {
                    // SAFETY: as above; the Avx2Fma tier is detected with
                    // AVX2.
                    return unsafe { pack_a32_avx2(ta, a, ic, pc, mc, kc, mrt, buf) };
                }
                SimdTier::Baseline => {}
            }
            pack_a32(ta, a, ic, pc, mc, kc, mrt, buf);
        });
        return;
    }
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: as for the packing above.
        SimdTier::Avx512 => return unsafe { naive32_avx512(ta, tb, alpha, a, b, c) },
        // SAFETY: as for the packing above.
        SimdTier::Avx2Fma => return unsafe { naive32_avx2(ta, tb, alpha, a, b, c) },
        SimdTier::Baseline => {}
    }
    naive_accumulate32(ta, tb, alpha, a, b, c);
}

/// Output entries per lane group of the transposed mixed dots.
const DOT_LANES: usize = 8;

/// [`naive_accumulate`] on an f32-stored `A`, each element promoted in a
/// register: the same operations in the same order, so the bits are those
/// of the naive kernel on `a.promote()`. The transposed forms run
/// [`DOT_LANES`] output entries `i` at once; lane `q` is entry `i + q`'s
/// own serial chain over `l`, so the grouping never shows in the bits.
/// Inlined into the SIMD-tier wrappers.
#[inline(always)]
fn naive_accumulate32(ta: Op, tb: Op, alpha: f64, a: &Mat32, b: MatRef<'_>, mut c: MatMut<'_>) {
    let n = tb.cols_of(b);
    let b_at = |l: usize, j: usize| match tb {
        Op::NoTrans => b.at(l, j),
        Op::Trans => b.at(j, l),
    };
    match ta {
        Op::NoTrans => {
            // C[:,j] += alpha * op(B)[l,j] * A[:,l]
            let k = a.cols();
            for j in 0..n {
                let cj = c.col_mut(j);
                for l in 0..k {
                    let s = alpha * b_at(l, j);
                    if s != 0.0 {
                        for (ci, &al) in cj.iter_mut().zip(a.col(l)) {
                            *ci += s * al as f64;
                        }
                    }
                }
            }
        }
        Op::Trans => {
            // C[i,j] += alpha * dot(A[:,i], op(B)[:,j])
            for j in 0..n {
                let cj = c.col_mut(j);
                match tb {
                    Op::NoTrans => {
                        let bj = &b.col(j)[..a.rows()];
                        dots32(alpha, a, |l| bj[l], cj);
                    }
                    Op::Trans => dots32(alpha, a, |l| b.at(j, l), cj),
                }
            }
        }
    }
}

/// `c[i] += alpha * dot(A[:,i], b)` for every column `i` of an f32-stored
/// `A` (`b` given by entry): [`DOT_LANES`] entries at once, lane `q` the
/// serial chain of entry `i + q` alone.
#[inline(always)]
fn dots32(alpha: f64, a: &Mat32, b: impl Fn(usize) -> f64, c: &mut [f64]) {
    let (k, m) = (a.rows(), a.cols());
    let whole = m - m % DOT_LANES;
    let kt = k - k % DOT_LANES;
    for i0 in (0..whole).step_by(DOT_LANES) {
        let cols: [&[f32]; DOT_LANES] = std::array::from_fn(|q| a.col(i0 + q));
        let mut s = [0.0f64; DOT_LANES];
        // `8 × 8` tiles: row `q` holds entries `l0..l0 + 8` of column
        // `i0 + q`; copied transposed, row `p` is step `l0 + p` of every
        // lane, one vector operation across them.
        for l0 in (0..kt).step_by(DOT_LANES) {
            let tile: [&[f32; DOT_LANES]; DOT_LANES] =
                std::array::from_fn(|q| cols[q][l0..l0 + DOT_LANES].try_into().unwrap());
            let mut t = [[0.0f64; DOT_LANES]; DOT_LANES];
            for (q, row) in tile.iter().enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    t[p][q] = v as f64;
                }
            }
            for (p, tp) in t.iter().enumerate() {
                let bl = b(l0 + p);
                for q in 0..DOT_LANES {
                    s[q] += tp[q] * bl;
                }
            }
        }
        for l in kt..k {
            let bl = b(l);
            for q in 0..DOT_LANES {
                s[q] += cols[q][l] as f64 * bl;
            }
        }
        for (ci, &sq) in c[i0..i0 + DOT_LANES].iter_mut().zip(&s) {
            *ci += alpha * sq;
        }
    }
    for i in whole..m {
        let mut s = 0.0;
        for (l, &ai) in a.col(i).iter().enumerate() {
            s += ai as f64 * b(l);
        }
        c[i] += alpha * s;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn naive32_avx512(ta: Op, tb: Op, alpha: f64, a: &Mat32, b: MatRef<'_>, c: MatMut<'_>) {
    naive_accumulate32(ta, tb, alpha, a, b, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn naive32_avx2(ta: Op, tb: Op, alpha: f64, a: &Mat32, b: MatRef<'_>, c: MatMut<'_>) {
    naive_accumulate32(ta, tb, alpha, a, b, c);
}

/// Convenience: allocate and return `op(A) * op(B)`.
pub fn matmul(ta: Op, tb: Op, a: MatRef<'_>, b: MatRef<'_>) -> Mat {
    let mut c = Mat::zeros(ta.rows_of(a), tb.cols_of(b));
    gemm(ta, tb, 1.0, a, b, 0.0, c.rm());
    c
}

/// Parallel GEMM for large products (`C = alpha op(A) op(B) + beta C`).
///
/// Two decompositions of the same packed kernel, chosen by the shape of C:
///
/// * **Tall C (`m ≥ 2·MC`): row bands sharing packed B.** Each `KC × NC`
///   panel of `op(B)` is packed **once** and every pool task's macro loop
///   reads it; a task owns one `MC`-row band of C and packs only its own
///   `op(A)` block. Nothing is packed twice per `jc` sweep — this removes
///   the per-worker repacking of the previous column-split scheme, where
///   every task re-packed the *entire* `op(A)` (threads × m × k staged
///   bytes).
/// * **Short-and-wide C: disjoint `NR`-aligned column panels.** Each task
///   runs the full serial kernel on its panel against the matching columns
///   of `op(B)`. B panels are disjoint by construction and the redundant
///   per-task A packing is cheap exactly when `m` is small.
///
/// Used by dense samplers and the frontal Schur updates where a single
/// product is the whole workload.
pub fn par_gemm(
    ta: Op,
    tb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    let n = c.cols();
    let m = c.rows();
    let k = ta.cols_of(a);
    let work = m.saturating_mul(n).saturating_mul(k);
    // Size guard first: the thread-count query hits the (cached) cgroup
    // probe, and small products must stay exactly as cheap as `gemm`.
    if work < 1 << 18 {
        gemm(ta, tb, alpha, a, b, beta, c);
        return;
    }
    let threads = rayon::current_num_threads().max(1);
    if threads == 1 {
        gemm(ta, tb, alpha, a, b, beta, c);
        return;
    }
    // Shared-B row bands only make sense on the packed kernel; large
    // sub-crossover shapes (e.g. skinny-k rank updates) keep the parallel
    // column split, whose panel tasks run the naive kernel concurrently.
    if m >= 2 * MC && use_packed(m, n, k) {
        par_gemm_shared_b(ta, tb, alpha, a, b, beta, c);
        return;
    }
    if n < 2 * NR {
        gemm(ta, tb, alpha, a, b, beta, c);
        return;
    }
    // NR-aligned column panels, at most NC wide, ~4 per thread so the
    // work-stealing pool can balance panels of unequal cost.
    let chunk = n
        .div_ceil(threads * 4)
        .div_ceil(NR)
        .saturating_mul(NR)
        .clamp(NR, NC);

    // Partition C into disjoint column views, pairing each with the
    // matching columns of op(B).
    let mut tasks: Vec<(usize, MatMut<'_>)> = Vec::new();
    let mut rest = c;
    let mut j0 = 0;
    while j0 < n {
        let w = chunk.min(n - j0);
        let (head, tail) = rest.split_cols(w);
        tasks.push((j0, head));
        rest = tail;
        j0 += w;
    }
    tasks.into_par_iter().for_each(|(j0, cj)| {
        let w = cj.cols();
        let bj = match tb {
            Op::NoTrans => b.view(0, j0, b.rows(), w),
            Op::Trans => b.view(j0, 0, w, b.cols()),
        };
        gemm(ta, tb, alpha, a, bj, beta, cj);
    });
}

/// Base pointer of C handed to the row-band tasks; bands write provably
/// disjoint row ranges of every column, which column-major slices cannot
/// express as disjoint subslices.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: the pointer targets C, which `par_gemm_shared_b` borrows mutably
// for the whole parallel loop, and every task writes only its own `MC`-row
// band (disjoint row ranges), so moving it to a task never aliases an
// element.
unsafe impl Send for SendPtr {}
// SAFETY: shared between tasks for the same reason: no two tasks touch the
// same element, and nothing reads C through another path meanwhile.
unsafe impl Sync for SendPtr {}

/// The shared-B parallel macro loop: `jc`/`pc` sweeps are serial, each
/// `KC × NC` B panel is packed once, and the `MC`-row bands of C run on the
/// pool — each band packing only its own A block and accumulating straight
/// into its rows of C.
fn par_gemm_shared_b(
    ta: Op,
    tb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, n, k) = check_and_scale(ta, tb, a, b, beta, &mut c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let (cptr, ld) = c.raw_parts_mut();
    let cptr = SendPtr(cptr);
    let nbands = m.div_ceil(MC);
    let mrt = dispatched_mr(m);
    let mut bpack: Vec<f64> = Vec::new();
    let mut packed_bytes = 0u64;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(tb, b, pc, jc, kc, nc, &mut bpack);
            packed_bytes += (bpack.len() * 8) as u64;
            let bref: &[f64] = &bpack;
            (0..nbands)
                .collect::<Vec<usize>>()
                .into_par_iter()
                .for_each(|band| {
                    // Bind the wrapper so the closure captures `SendPtr`
                    // (Send + Sync), not the raw pointer field.
                    let cp = cptr;
                    let ic = band * MC;
                    let mc = MC.min(m - ic);
                    let mut apack: Vec<f64> = Vec::new();
                    pack_a(ta, a, ic, pc, mc, kc, mrt, &mut apack);
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let bp = &bref[(jr / NR) * NR * kc..][..NR * kc];
                        for ir in (0..mc).step_by(mrt) {
                            let mr = mrt.min(mc - ir);
                            let ap = &apack[(ir / mrt) * mrt * kc..][..mrt * kc];
                            let mut acc = [[0.0f64; MR512]; NR];
                            run_micro(mrt, ap, bp, &mut acc);
                            for j in 0..nr {
                                // SAFETY: `jc + jr + j < n` and `ic + ir < m`,
                                // so the offset stays inside C's storage
                                // (entry `(i, j)` at `i + j * ld`).
                                let col = unsafe { cp.0.add((jc + jr + j) * ld + ic + ir) };
                                let accj = &acc[j];
                                for (i, &v) in accj.iter().take(mr).enumerate() {
                                    // SAFETY: row `ic + ir + i < m` of a live
                                    // column of C; this band owns rows
                                    // `ic..ic + mc` of every column and visits
                                    // its tiles serially, so no other task
                                    // writes this element.
                                    unsafe { *col.add(i) += alpha * v };
                                }
                            }
                        }
                    }
                });
            // A bands are packed exactly once per (jc, pc) block across all
            // tasks — count their staging traffic analytically.
            packed_bytes += (0..nbands)
                .map(|band| {
                    let mc = MC.min(m - band * MC);
                    (mc.div_ceil(mrt) * mrt * kc * 8) as u64
                })
                .sum::<u64>();
        }
    }
    stats::add_pack(1, packed_bytes);
}

/// Matrix-vector product `y = alpha * op(A) * x + beta * y`.
pub fn gemv(ta: Op, alpha: f64, a: MatRef<'_>, x: &[f64], beta: f64, y: &mut [f64]) {
    let m = ta.rows_of(a);
    let k = ta.cols_of(a);
    assert_eq!(x.len(), k, "gemv: x length mismatch");
    assert_eq!(y.len(), m, "gemv: y length mismatch");
    stats::add_gemv();
    if beta != 1.0 {
        if beta == 0.0 {
            y.fill(0.0);
        } else {
            for v in y.iter_mut() {
                *v *= beta;
            }
        }
    }
    match ta {
        Op::NoTrans => {
            for l in 0..k {
                let s = alpha * x[l];
                if s != 0.0 {
                    for (yi, ai) in y.iter_mut().zip(a.col(l)) {
                        *yi += s * ai;
                    }
                }
            }
        }
        Op::Trans => {
            for (i, yi) in y.iter_mut().enumerate() {
                let ai = a.col(i);
                let mut s = 0.0;
                for l in 0..k {
                    s += ai[l] * x[l];
                }
                *yi += alpha * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::gaussian_mat;
    use std::sync::Arc;

    fn naive(ta: Op, tb: Op, a: &Mat, b: &Mat) -> Mat {
        let ar = ta.rows_of(a.rf());
        let ak = ta.cols_of(a.rf());
        let bn = tb.cols_of(b.rf());
        let get_a = |i: usize, l: usize| match ta {
            Op::NoTrans => a[(i, l)],
            Op::Trans => a[(l, i)],
        };
        let get_b = |l: usize, j: usize| match tb {
            Op::NoTrans => b[(l, j)],
            Op::Trans => b[(j, l)],
        };
        Mat::from_fn(ar, bn, |i, j| {
            (0..ak).map(|l| get_a(i, l) * get_b(l, j)).sum()
        })
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        for (m, k, n) in [(3, 4, 5), (1, 7, 2), (6, 1, 3), (5, 5, 5)] {
            for ta in [Op::NoTrans, Op::Trans] {
                for tb in [Op::NoTrans, Op::Trans] {
                    let a = match ta {
                        Op::NoTrans => gaussian_mat(m, k, 1),
                        Op::Trans => gaussian_mat(k, m, 1),
                    };
                    let b = match tb {
                        Op::NoTrans => gaussian_mat(k, n, 2),
                        Op::Trans => gaussian_mat(n, k, 2),
                    };
                    let c = matmul(ta, tb, a.rf(), b.rf());
                    let want = naive(ta, tb, &a, &b);
                    let mut diff = c.clone();
                    diff.axpy(-1.0, &want);
                    assert!(diff.norm_max() < 1e-12, "mismatch for {ta:?},{tb:?}");
                }
            }
        }
    }

    #[test]
    fn packed_path_matches_naive_reference() {
        // Sizes chosen above the crossover with non-multiple-of-tile edges.
        for (m, k, n) in [(61, 67, 59), (128, 64, 37), (40, 300, 40)] {
            for ta in [Op::NoTrans, Op::Trans] {
                for tb in [Op::NoTrans, Op::Trans] {
                    let a = match ta {
                        Op::NoTrans => gaussian_mat(m, k, 11),
                        Op::Trans => gaussian_mat(k, m, 11),
                    };
                    let b = match tb {
                        Op::NoTrans => gaussian_mat(k, n, 12),
                        Op::Trans => gaussian_mat(n, k, 12),
                    };
                    let mut c1 = gaussian_mat(m, n, 13);
                    let mut c2 = c1.clone();
                    gemm(ta, tb, 1.5, a.rf(), b.rf(), -0.5, c1.rm());
                    gemm_naive(ta, tb, 1.5, a.rf(), b.rf(), -0.5, c2.rm());
                    let mut diff = c1;
                    diff.axpy(-1.0, &c2);
                    let scale = c2.norm_max().max(1.0);
                    assert!(
                        diff.norm_max() / scale < 1e-13,
                        "packed mismatch for {ta:?},{tb:?} ({m},{k},{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatched_mr_is_consistent_with_tier() {
        // The per-call tile never exceeds m once m >= MR, so the crossover
        // guard cannot demote mid-size blocks on any tier.
        for m in [8, 9, 12, 15, 16, 17, 31, 64] {
            let mrt = dispatched_mr(m);
            assert!(mrt == MR || mrt == MR512);
            assert!(m >= mrt, "tile {mrt} exceeds m={m}");
            if mrt == MR512 {
                assert_eq!(simd_tier(), SimdTier::Avx512);
                assert!(m >= MR512);
            }
        }
        // Below a full narrow panel the naive kernel keeps the call.
        assert!(!use_packed(MR - 1, 64, 64));
        // The satellite-1 regression: every m in [MR, MR512) must stay on
        // the packed path even when the host dispatches the wide tile for
        // larger operands.
        for m in MR..MR512 {
            assert!(use_packed(m, 64, 64), "m={m} fell off the packed path");
        }
    }

    #[test]
    fn wide_tile_boundary_shapes_match_naive() {
        // Shapes straddling the MR512 panel boundary (and the mc tails the
        // widened packing pads) — on an AVX-512 host these run the 16-row
        // microkernel, elsewhere the narrow tile; both must equal the
        // reference bitwise-agnostically.
        for (m, k, n) in [(16, 32, 8), (17, 64, 12), (15, 64, 12), (48, 33, 20)] {
            for ta in [Op::NoTrans, Op::Trans] {
                for tb in [Op::NoTrans, Op::Trans] {
                    let a = match ta {
                        Op::NoTrans => gaussian_mat(m, k, 61),
                        Op::Trans => gaussian_mat(k, m, 61),
                    };
                    let b = match tb {
                        Op::NoTrans => gaussian_mat(k, n, 62),
                        Op::Trans => gaussian_mat(n, k, 62),
                    };
                    let mut c1 = gaussian_mat(m, n, 63);
                    let mut c2 = c1.clone();
                    gemm(ta, tb, 1.25, a.rf(), b.rf(), -0.75, c1.rm());
                    gemm_naive(ta, tb, 1.25, a.rf(), b.rf(), -0.75, c2.rm());
                    let mut diff = c1;
                    diff.axpy(-1.0, &c2);
                    let scale = c2.norm_max().max(1.0);
                    assert!(
                        diff.norm_max() / scale < 1e-13,
                        "tile-boundary mismatch for {ta:?},{tb:?} ({m},{k},{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_rhs_per_column_bitwise_invariant_in_width() {
        // The blocked-solve contract: column j of C must be bitwise
        // identical whether computed alone (n = 1) or inside any wider
        // RHS panel — including widths on both sides of NR and the
        // `use_packed` volume crossover that `gemm_rhs` deliberately
        // ignores.
        for (m, k) in [(32, 16), (17, 64), (8, 8), (5, 4), (48, 33)] {
            for ta in [Op::NoTrans, Op::Trans] {
                let a = match ta {
                    Op::NoTrans => gaussian_mat(m, k, 41),
                    Op::Trans => gaussian_mat(k, m, 41),
                };
                let b = gaussian_mat(k, 32, 42);
                let c0 = gaussian_mat(m, 32, 43);
                let mut wide = c0.clone();
                gemm_rhs(ta, Op::NoTrans, 1.5, a.rf(), b.rf(), -0.5, wide.rm());
                for n in [1usize, 3, 8] {
                    for c0col in [0usize, 32 - n] {
                        let mut narrow = c0.col_block(c0col, n).to_mat();
                        gemm_rhs(
                            ta,
                            Op::NoTrans,
                            1.5,
                            a.rf(),
                            b.col_block(c0col, n),
                            -0.5,
                            narrow.rm(),
                        );
                        assert_eq!(
                            narrow.as_slice(),
                            wide.col_block(c0col, n).to_mat().as_slice(),
                            "gemm_rhs column drifted with width ({m},{k}) n={n} at {c0col}"
                        );
                    }
                }
                // And the dispatch must still agree numerically with the
                // reference kernel.
                let mut check = c0.clone();
                gemm_naive(ta, Op::NoTrans, 1.5, a.rf(), b.rf(), -0.5, check.rm());
                let mut diff = wide.clone();
                diff.axpy(-1.0, &check);
                let scale = check.norm_max().max(1.0);
                assert!(
                    diff.norm_max() / scale < 1e-13,
                    "gemm_rhs vs naive ({m},{k})"
                );
            }
        }
    }

    /// `(pack calls, pack bytes, gemv calls)` of a sink.
    fn counts(c: &stats::DenseCounters) -> (u64, u64, u64) {
        (c.pack_calls(), c.pack_bytes(), c.gemv_calls())
    }

    #[test]
    fn packed_path_records_pack_traffic() {
        let (m, k, n) = (96, 96, 96);
        let a = gaussian_mat(m, k, 21);
        let b = gaussian_mat(k, n, 22);
        let sink = Arc::new(stats::DenseCounters::default());
        stats::counting(&sink, || matmul(Op::NoTrans, Op::NoTrans, a.rf(), b.rf()));
        // One block pair (m ≤ MC, k ≤ KC, n ≤ NC): A packs into
        // ceil(m/mr) row panels, B into ceil(n/NR) column panels, both kc deep.
        let mr = dispatched_mr(m);
        let bytes = 8 * (m.div_ceil(mr) * mr * k + n.div_ceil(NR) * NR * k) as u64;
        assert_eq!(counts(&sink), (1, bytes, 0));
    }

    #[test]
    fn gemv_records_one_call() {
        let a = gaussian_mat(7, 5, 23);
        let mut y = vec![0.0; 7];
        let sink = Arc::new(stats::DenseCounters::default());
        stats::counting(&sink, || {
            gemv(Op::NoTrans, 1.0, a.rf(), &[1.0; 5], 0.0, &mut y)
        });
        assert_eq!(counts(&sink), (0, 0, 1));
    }

    #[test]
    fn nested_sink_restores_the_outer_one() {
        let a = gaussian_mat(4, 4, 24);
        let mut y = vec![0.0; 4];
        let mut call = || gemv(Op::NoTrans, 1.0, a.rf(), &[1.0; 4], 0.0, &mut y);
        let (outer, inner) = (
            Arc::new(stats::DenseCounters::default()),
            Arc::new(stats::DenseCounters::default()),
        );
        stats::counting(&outer, || {
            call();
            stats::counting(&inner, &mut call);
            call();
        });
        assert_eq!((outer.gemv_calls(), inner.gemv_calls()), (2, 1));
    }

    #[test]
    fn panic_inside_a_sink_restores_the_previous_one() {
        let a = gaussian_mat(4, 4, 25);
        let mut y = vec![0.0; 4];
        let (outer, inner) = (
            Arc::new(stats::DenseCounters::default()),
            Arc::new(stats::DenseCounters::default()),
        );
        stats::counting(&outer, || {
            let unwound = std::panic::catch_unwind(|| {
                stats::counting(&inner, || panic!("injected fault inside the scope"))
            });
            assert!(unwound.is_err());
            gemv(Op::NoTrans, 1.0, a.rf(), &[1.0; 4], 0.0, &mut y);
        });
        assert_eq!((outer.gemv_calls(), inner.gemv_calls()), (1, 0));
    }

    #[test]
    fn nothing_is_counted_without_a_sink() {
        let a = gaussian_mat(96, 96, 26);
        let sink = Arc::new(stats::DenseCounters::default());
        stats::counting(&sink, || {});
        let _ = matmul(Op::NoTrans, Op::NoTrans, a.rf(), a.rf());
        let mut y = vec![0.0; 96];
        gemv(Op::NoTrans, 1.0, a.rf(), &[1.0; 96], 0.0, &mut y);
        rayon::inherit::with::<stats::DenseCounters, _>(|c| assert!(c.is_none()));
        assert_eq!(counts(&sink), (0, 0, 0));
    }

    /// Two submitters, each under its own sink, run GEMM batches on the
    /// shared pool at once. A waiting submitter executes queued jobs of the
    /// other batch too; each job still counts into its own submitter's sink.
    #[test]
    fn pool_tasks_count_into_their_submitters_sink() {
        use std::sync::{Barrier, Mutex};
        use std::thread::{self, ThreadId};
        let a = gaussian_mat(32, 32, 27);
        let jobs = 8;
        let barrier = Barrier::new(2);
        for _round in 0..200 {
            let sinks: [Arc<stats::DenseCounters>; 2] = Default::default();
            // (batch, thread that ran the job) of every job.
            let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::default();
            let submitters: Vec<ThreadId> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|t| {
                        let (a, sink, barrier, ran) = (&a, &sinks[t], &barrier, &ran);
                        s.spawn(move || {
                            stats::counting(sink, || {
                                let tasks = (0..jobs)
                                    .map(|_| {
                                        Box::new(move || {
                                            ran.lock().unwrap().push((t, thread::current().id()));
                                            let _ = matmul(Op::NoTrans, Op::Trans, a.rf(), a.rf());
                                        })
                                            as Box<dyn FnOnce() + Send + '_>
                                    })
                                    .collect();
                                barrier.wait();
                                rayon::pool::run_tasks(tasks);
                            })
                        })
                    })
                    .collect();
                handles.iter().map(|h| h.thread().id()).collect()
            });
            for sink in &sinks {
                assert_eq!(sink.pack_calls(), jobs as u64);
            }
            let ran = ran.into_inner().unwrap();
            if ran.iter().any(|&(t, id)| id == submitters[1 - t]) {
                return;
            }
        }
        panic!("no submitter ran a job of the other batch in 200 rounds");
    }

    #[test]
    fn gemm_mixed_bitwise_equals_gemm_on_promoted_copy() {
        // The mixed path must equal the all-f64 kernel on the promoted copy
        // exactly, not merely to roundoff — the contract a block store
        // relies on when the f32 copy is the only one — on every SIMD tier
        // the host has. The sub-crossover widths take the in-register
        // kernel (every lane-group remainder of m), the last three shapes
        // the packed one. op(B) holds a zero column and a zero entry, so
        // the axpy form's zero skip is exercised.
        let dims = [1, 7, 8, 9, 31, 32, 33, 64, 67];
        let small = dims.iter().flat_map(|&m| {
            dims.iter()
                .flat_map(move |&k| (1..=3).map(move |n| (m, k, n)))
        });
        let packed = [(61, 67, 59), (128, 64, 16), (16, 64, 64)];
        let shapes: Vec<(usize, usize, usize)> = small.chain(packed).collect();
        for tier in crate::strip::host_tiers() {
            for &(m, k, n) in &shapes {
                for ta in [Op::NoTrans, Op::Trans] {
                    for tb in [Op::NoTrans, Op::Trans] {
                        let a = match ta {
                            Op::NoTrans => gaussian_mat(m, k, 17),
                            Op::Trans => gaussian_mat(k, m, 17),
                        };
                        let mut opb = gaussian_mat(k, n, 18);
                        opb[(k / 2, 0)] = 0.0;
                        if n > 1 {
                            opb.col_mut(n - 1).fill(0.0);
                        }
                        let b = match tb {
                            Op::NoTrans => opb,
                            Op::Trans => opb.transpose(),
                        };
                        let a32 = Mat32::demote(a.rf());
                        let awork = a32.promote();
                        for alpha in [1.0, 1.5] {
                            let mut c1 = gaussian_mat(m, n, 19);
                            let mut c2 = c1.clone();
                            gemm_mixed_on(tier, ta, tb, alpha, &a32, b.rf(), -0.5, c1.rm());
                            gemm(ta, tb, alpha, awork.rf(), b.rf(), -0.5, c2.rm());
                            assert_eq!(
                                c1, c2,
                                "{tier:?}: mixed path diverged for {ta:?},{tb:?} at \
                                 (m, k, n) = ({m}, {k}, {n}), alpha = {alpha}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_mixed_error_within_f32_eps_bound() {
        // vs the f64 reference on the *original* A: per entry the demotion
        // perturbs each of the k products by at most eps32 relative, so
        // |C_mixed - C_f64| <= eps32 * sum_l |A_il B_lj| <= eps32 * k * max.
        let (m, k, n) = (48, 96, 32);
        let a = gaussian_mat(m, k, 27);
        let b = gaussian_mat(k, n, 28);
        let a32 = Mat32::demote(a.rf());
        let mut c1 = Mat::zeros(m, n);
        let mut c2 = Mat::zeros(m, n);
        gemm_mixed(Op::NoTrans, Op::NoTrans, 1.0, &a32, b.rf(), 0.0, c1.rm());
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c2.rm());
        let amax = a.norm_max();
        let bmax = b.norm_max();
        let bound = f32::EPSILON as f64 * k as f64 * amax * bmax;
        let mut diff = c1;
        diff.axpy(-1.0, &c2);
        assert!(
            diff.norm_max() <= bound,
            "mixed error {} exceeds eps32*k bound {}",
            diff.norm_max(),
            bound
        );
        assert!(diff.norm_max() > 0.0, "demotion must actually perturb");
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = gaussian_mat(4, 3, 3);
        let b = gaussian_mat(3, 2, 4);
        let mut c = gaussian_mat(4, 2, 5);
        let c0 = c.clone();
        gemm(Op::NoTrans, Op::NoTrans, 2.0, a.rf(), b.rf(), 0.5, c.rm());
        let mut want = matmul(Op::NoTrans, Op::NoTrans, a.rf(), b.rf());
        want.scale(2.0);
        want.axpy(0.5, &c0);
        let mut diff = c;
        diff.axpy(-1.0, &want);
        assert!(diff.norm_max() < 1e-12);
    }

    #[test]
    fn gemm_on_views() {
        let a = gaussian_mat(8, 8, 6);
        let b = gaussian_mat(8, 8, 7);
        let mut c = Mat::zeros(3, 4);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a.view(2, 1, 3, 5),
            b.view(3, 2, 5, 4),
            0.0,
            c.rm(),
        );
        let asub = a.view(2, 1, 3, 5).to_mat();
        let bsub = b.view(3, 2, 5, 4).to_mat();
        let want = matmul(Op::NoTrans, Op::NoTrans, asub.rf(), bsub.rf());
        let mut diff = c;
        diff.axpy(-1.0, &want);
        assert!(diff.norm_max() < 1e-12);
    }

    #[test]
    fn packed_gemm_on_strided_views() {
        // Views of a larger parent exercise ld > rows through the packing.
        let a = gaussian_mat(200, 200, 31);
        let b = gaussian_mat(200, 200, 32);
        let (m, k, n) = (120, 100, 90);
        let av = a.view(7, 3, m, k);
        let bv = b.view(11, 5, k, n);
        let mut c1 = Mat::zeros(m, n);
        let mut c2 = Mat::zeros(m, n);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, av, bv, 0.0, c1.rm());
        gemm_naive(Op::NoTrans, Op::NoTrans, 1.0, av, bv, 0.0, c2.rm());
        let mut diff = c1;
        diff.axpy(-1.0, &c2);
        assert!(diff.norm_max() < 1e-12 * c2.norm_max().max(1.0));
    }

    #[test]
    fn par_gemm_matches_gemm() {
        let a = gaussian_mat(64, 96, 8);
        let b = gaussian_mat(96, 200, 9);
        let mut c1 = Mat::zeros(64, 200);
        let mut c2 = Mat::zeros(64, 200);
        gemm(Op::NoTrans, Op::NoTrans, 1.5, a.rf(), b.rf(), 0.0, c1.rm());
        par_gemm(Op::NoTrans, Op::NoTrans, 1.5, a.rf(), b.rf(), 0.0, c2.rm());
        let mut diff = c1;
        diff.axpy(-1.0, &c2);
        assert!(diff.norm_max() < 1e-12);
    }

    #[test]
    fn par_gemm_shared_b_matches_gemm_all_combos() {
        // m >= 2*MC routes through the shared-B row-band path; edge sizes
        // exercise partial bands/tiles, alpha/beta the fused write-out.
        let (m, k, n) = (2 * super::MC + 37, 83, 57);
        for ta in [Op::NoTrans, Op::Trans] {
            for tb in [Op::NoTrans, Op::Trans] {
                let a = match ta {
                    Op::NoTrans => gaussian_mat(m, k, 41),
                    Op::Trans => gaussian_mat(k, m, 41),
                };
                let b = match tb {
                    Op::NoTrans => gaussian_mat(k, n, 42),
                    Op::Trans => gaussian_mat(n, k, 42),
                };
                let mut c1 = gaussian_mat(m, n, 43);
                let mut c2 = c1.clone();
                gemm(ta, tb, 1.5, a.rf(), b.rf(), -0.5, c1.rm());
                par_gemm(ta, tb, 1.5, a.rf(), b.rf(), -0.5, c2.rm());
                let mut diff = c1;
                diff.axpy(-1.0, &c2);
                let scale = c2.norm_max().max(1.0);
                assert!(
                    diff.norm_max() / scale < 1e-13,
                    "shared-B mismatch for {ta:?},{tb:?}"
                );
            }
        }
    }

    #[test]
    fn par_gemm_shared_b_on_strided_views() {
        // Sub-views force ld > rows through the row-band raw-pointer writes.
        let parent_a = gaussian_mat(400, 200, 51);
        let parent_b = gaussian_mat(200, 100, 52);
        let mut parent_c = gaussian_mat(400, 100, 53);
        let (m, k, n) = (300, 150, 64);
        let av = parent_a.view(9, 11, m, k);
        let bv = parent_b.view(3, 5, k, n);
        let mut c2 = parent_c.view(7, 13, m, n).to_mat();
        par_gemm(
            Op::NoTrans,
            Op::NoTrans,
            2.0,
            av,
            bv,
            1.0,
            parent_c.view_mut(7, 13, m, n),
        );
        gemm(Op::NoTrans, Op::NoTrans, 2.0, av, bv, 1.0, c2.rm());
        let got = parent_c.view(7, 13, m, n).to_mat();
        let mut diff = got;
        diff.axpy(-1.0, &c2);
        assert!(diff.norm_max() < 1e-12 * c2.norm_max().max(1.0));
    }

    #[test]
    fn gemv_matches_gemm() {
        let a = gaussian_mat(5, 4, 10);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let mut y = vec![1.0; 5];
        gemv(Op::NoTrans, 2.0, a.rf(), &x, 3.0, &mut y);
        let xm = Mat::from_vec(4, 1, x);
        let mut want = Mat::from_vec(5, 1, vec![1.0; 5]);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            2.0,
            a.rf(),
            xm.rf(),
            3.0,
            want.rm(),
        );
        for i in 0..5 {
            assert!((y[i] - want[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Mat::zeros(0, 3);
        let b = Mat::zeros(3, 2);
        let mut c = Mat::zeros(0, 2);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c.rm());
        let a2 = Mat::zeros(2, 0);
        let b2 = Mat::zeros(0, 3);
        let mut c2 = Mat::from_fn(2, 3, |_, _| 7.0);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            a2.rf(),
            b2.rf(),
            0.0,
            c2.rm(),
        );
        assert_eq!(c2.norm_max(), 0.0, "k=0 with beta=0 must clear C");
    }
}

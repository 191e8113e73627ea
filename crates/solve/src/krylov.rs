//! Preconditioned Krylov methods on abstract operators.
//!
//! All methods take the operator as an [`h2_dense::LinOp`] — a compressed H2
//! matrix, a kernel matrix, a fabric-sharded operator, or any other black
//! box — and a [`Preconditioner`]. Residual histories are returned so
//! convergence behaviour (e.g. preconditioner quality) can be asserted in
//! tests and reported by the benchmark harness.
//!
//! Every method threads a [`KrylovWorkspace`] through its iteration: the
//! `*_with` variants reuse a caller-owned workspace across solves (no
//! per-iteration vector allocation — operator and preconditioner
//! applications write into preallocated buffers through zero-copy
//! [`h2_dense::MatRef`] views), and the plain entry points allocate one
//! workspace per call. The GMRES Krylov basis lives in the workspace as one
//! `n × (restart+1)` block, so a fabric-backed operator
//! (`h2_sched::FabricOp`) shards each basis-vector product over its
//! devices — the ROADMAP's per-device Krylov decomposition.

use crate::precond::Preconditioner;
use h2_dense::{LinOp, Mat, MatMut, MatRef};
use h2_runtime::{ArgValue, Tracer};
use std::sync::Arc;

/// Observer invoked once per global reduction (each dot product or norm a
/// Krylov method computes). `h2_sched` wires this to a device fabric so
/// that, when the iteration vectors are device-resident, every reduction
/// charges its `8·(D−1)`-byte scalar allreduce — the only per-iteration
/// traffic that leaves the devices in that mode.
pub type ReduceHook = Arc<dyn Fn() + Send + Sync>;

/// Result of a preconditioned iterative solve.
#[derive(Clone, Debug)]
pub struct IterResult {
    pub x: Vec<f64>,
    pub iterations: usize,
    /// True relative residual `‖b - A x‖₂ / ‖b‖₂` at exit.
    pub relative_residual: f64,
    pub converged: bool,
    /// Per-iteration (estimated) relative residuals.
    pub history: Vec<f64>,
}

/// Preallocated iteration state shared by all four iterative methods
/// (PCG, GMRES, BiCGStab, CGS). Reusing one workspace across solves —
/// e.g. across the right-hand sides of a multi-solve, or across outer
/// Newton steps — eliminates the per-iteration `Vec` churn the methods
/// previously paid for every operator and preconditioner application.
pub struct KrylovWorkspace {
    n: usize,
    /// General-purpose n-vectors (apply targets, directions, residuals).
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    w: Vec<f64>,
    /// GMRES Krylov basis, one `n × (restart+1)` block.
    basis: Mat,
    /// GMRES Hessenberg, `(restart+1) × restart`.
    hess: Mat,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    /// Observability tracer: when attached, every method wraps its solve in
    /// a `krylov` span and marks each iteration with an instant carrying
    /// the running residual estimate.
    tracer: Option<Arc<Tracer>>,
    /// Global-reduction observer (see [`ReduceHook`]); survives resizes.
    reduce_hook: Option<ReduceHook>,
}

impl KrylovWorkspace {
    pub fn new(n: usize) -> Self {
        KrylovWorkspace {
            n,
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            q: vec![0.0; n],
            s: vec![0.0; n],
            t: vec![0.0; n],
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
            basis: Mat::zeros(0, 0),
            hess: Mat::zeros(0, 0),
            cs: Vec::new(),
            sn: Vec::new(),
            g: Vec::new(),
            tracer: None,
            reduce_hook: None,
        }
    }

    /// Problem size the workspace is sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Attach (or detach) an observability tracer; survives workspace
    /// resizes.
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// Builder form of [`KrylovWorkspace::set_tracer`].
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach (or detach) a global-reduction observer: every dot product
    /// and norm the methods compute invokes it exactly once. Survives
    /// workspace resizes.
    pub fn set_reduce_hook(&mut self, hook: Option<ReduceHook>) {
        self.reduce_hook = hook;
    }

    fn ensure(&mut self, n: usize) {
        if self.n != n {
            let tracer = self.tracer.take();
            let hook = self.reduce_hook.take();
            *self = KrylovWorkspace::new(n);
            self.tracer = tracer;
            self.reduce_hook = hook;
        }
    }

    /// One per-iteration instant (no-op without a tracer).
    fn trace_iter(tracer: &Option<Arc<Tracer>>, method: &'static str, iter: usize, resid: f64) {
        if let Some(t) = tracer {
            t.instant(
                "krylov",
                method,
                vec![
                    ("iter", ArgValue::U64(iter as u64)),
                    ("resid", ArgValue::F64(resid)),
                ],
            );
        }
    }

    /// Size the GMRES blocks for a restart length (no-op once sized).
    fn ensure_gmres(&mut self, restart: usize) {
        if self.basis.rows() != self.n || self.basis.cols() < restart + 1 {
            self.basis = Mat::zeros(self.n, restart + 1);
            self.hess = Mat::zeros(restart + 1, restart);
        }
        self.cs.resize(restart, 0.0);
        self.sn.resize(restart, 0.0);
        self.g.resize(restart + 1, 0.0);
    }
}

/// `out = A v` without allocating: both sides are viewed as `n × 1` blocks.
fn apply_op_into(a: &dyn LinOp, v: &[f64], out: &mut [f64]) {
    let (n, m) = (v.len(), out.len());
    a.apply(
        MatRef::from_parts(n, 1, n.max(1), v),
        MatMut::from_parts(m, 1, m.max(1), out),
    );
}

/// `out = M⁻¹ v` through the preconditioner's into-buffer application.
fn apply_prec_into(m: &dyn Preconditioner, v: &[f64], out: &mut [f64]) {
    let n = v.len();
    m.apply_inv_into(
        MatRef::from_parts(n, 1, n.max(1), v),
        MatMut::from_parts(out.len(), 1, out.len().max(1), out),
    );
}

/// Reduction block length of [`blocked_dot`] / [`blocked_norm`]. Fixed —
/// never derived from thread or device counts — so the summation tree is a
/// property of the problem size alone.
const REDUCE_BLOCK: usize = 256;

/// Blocked, fixed-order dot product: partial sums accumulate within
/// consecutive `REDUCE_BLOCK`-length blocks, and the block partials
/// combine left to right. Because the grouping is independent of how a
/// device fabric shards the vectors, a per-device partial reduction that
/// respects the block boundaries followed by an in-order combine reproduces
/// this value bit-for-bit — the contract `h2_sched`'s device-resident
/// Krylov vectors rely on for their `8·(D−1)`-byte scalar allreduces.
pub fn blocked_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut i = 0;
    while i < a.len() {
        let e = (i + REDUCE_BLOCK).min(a.len());
        let mut part = 0.0;
        for k in i..e {
            part += a[k] * b[k];
        }
        total += part;
        i = e;
    }
    total
}

/// Blocked Euclidean norm — `sqrt` of [`blocked_dot`] of a vector with
/// itself, sharing its reproducibility contract.
pub fn blocked_norm(a: &[f64]) -> f64 {
    blocked_dot(a, a).sqrt()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    blocked_dot(a, b)
}

fn norm(a: &[f64]) -> f64 {
    blocked_norm(a)
}

/// Pass a reduction result through the workspace's observer: `h2_sched`
/// wires this to the fabric so each global dot/norm charges its scalar
/// allreduce when the Krylov vectors are device-resident.
fn counted(hook: &Option<ReduceHook>, v: f64) -> f64 {
    if let Some(h) = hook {
        h();
    }
    v
}

/// True relative residual, computed into the workspace's scratch.
fn true_residual(
    a: &dyn LinOp,
    x: &[f64],
    b: &[f64],
    scratch: &mut [f64],
    hook: &Option<ReduceHook>,
) -> f64 {
    apply_op_into(a, x, scratch);
    for i in 0..b.len() {
        scratch[i] = b[i] - scratch[i];
    }
    counted(hook, norm(scratch)) / counted(hook, norm(b)).max(f64::MIN_POSITIVE)
}

/// Preconditioned conjugate gradients for SPD `A` and SPD `M`.
///
/// ```
/// use h2_dense::{DenseOp, Mat};
/// use h2_solve::{pcg, Identity};
/// // A 2x2 SPD system.
/// let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let op = DenseOp::new(a);
/// let res = pcg(&op, &Identity { n: 2 }, &[1.0, 2.0], 50, 1e-12);
/// assert!(res.converged);
/// assert!((4.0 * res.x[0] + res.x[1] - 1.0).abs() < 1e-10);
/// ```
pub fn pcg(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
) -> IterResult {
    pcg_with(a, m, b, max_iters, rtol, &mut KrylovWorkspace::new(b.len()))
}

/// [`pcg`] reusing a caller-owned workspace.
pub fn pcg_with(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
    ws: &mut KrylovWorkspace,
) -> IterResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "pcg: dimension mismatch");
    assert_eq!(m.n(), n, "pcg: preconditioner dimension mismatch");
    ws.ensure(n);
    let tracer = ws.tracer.clone();
    let hook = ws.reduce_hook.clone();
    let _solve_span = tracer.as_ref().map(|t| t.span("krylov", "pcg"));
    let b_norm = counted(&hook, norm(b)).max(f64::MIN_POSITIVE);

    let mut x = vec![0.0; n];
    let KrylovWorkspace { r, z, p, q: ap, .. } = ws;
    r.copy_from_slice(b);
    apply_prec_into(m, r, z);
    p.copy_from_slice(z);
    let mut rz = counted(&hook, dot(r, z));
    let mut history = Vec::new();
    let mut iterations = 0;

    for _ in 0..max_iters {
        let rn = counted(&hook, norm(r)) / b_norm;
        history.push(rn);
        if rn <= rtol {
            break;
        }
        iterations += 1;
        KrylovWorkspace::trace_iter(&tracer, "pcg iter", iterations, rn);
        apply_op_into(a, p, ap);
        let denom = counted(&hook, dot(p, ap));
        if denom <= 0.0 {
            break; // not SPD (numerically): bail with best effort
        }
        let alpha = rz / denom;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        apply_prec_into(m, r, z);
        let rz_new = counted(&hook, dot(r, z));
        let beta = rz_new / rz;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        rz = rz_new;
    }

    let relative_residual = true_residual(a, &x, b, ap, &hook);
    IterResult {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= 10.0 * rtol,
        history,
    }
}

/// Result of a blocked iterative solve: the solution block plus per-column
/// iteration counts, residuals, convergence flags and histories — one entry
/// per right-hand side, exactly what [`pcg`] would have reported for that
/// column alone.
#[derive(Clone, Debug)]
pub struct BlockIterResult {
    pub x: Mat,
    pub iterations: Vec<usize>,
    pub relative_residual: Vec<f64>,
    pub converged: Vec<bool>,
    pub history: Vec<Vec<f64>>,
}

/// Preallocated `n × k` iteration blocks for [`block_pcg_with`]. The blocked
/// counterpart of [`KrylovWorkspace`]: one workspace amortizes the four
/// direction/residual blocks across solves, and the tracer / reduce-hook
/// attachments survive resizes exactly as in the vector workspace.
pub struct BlockKrylovWorkspace {
    n: usize,
    k: usize,
    r: Mat,
    z: Mat,
    p: Mat,
    ap: Mat,
    scratch: Vec<f64>,
    tracer: Option<Arc<Tracer>>,
    reduce_hook: Option<ReduceHook>,
}

impl BlockKrylovWorkspace {
    pub fn new(n: usize, k: usize) -> Self {
        BlockKrylovWorkspace {
            n,
            k,
            r: Mat::zeros(n, k),
            z: Mat::zeros(n, k),
            p: Mat::zeros(n, k),
            ap: Mat::zeros(n, k),
            scratch: vec![0.0; n],
            tracer: None,
            reduce_hook: None,
        }
    }

    /// Problem size the workspace is sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Block width the workspace is sized for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Attach (or detach) an observability tracer; survives resizes.
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// Attach (or detach) a global-reduction observer; survives resizes.
    pub fn set_reduce_hook(&mut self, hook: Option<ReduceHook>) {
        self.reduce_hook = hook;
    }

    fn ensure(&mut self, n: usize, k: usize) {
        if self.n != n || self.k != k {
            let tracer = self.tracer.take();
            let hook = self.reduce_hook.take();
            *self = BlockKrylovWorkspace::new(n, k);
            self.tracer = tracer;
            self.reduce_hook = hook;
        }
    }
}

/// Blocked preconditioned conjugate gradients: `k` independent PCG
/// recurrences advanced in lockstep, sharing one blocked operator
/// application `AP = A P` and one blocked preconditioner application
/// `Z = M⁻¹ R` per iteration — GEMM-shaped work instead of `k` sequential
/// GEMV-shaped passes.
///
/// Every scalar of the recurrence (`α`, `β`, `ρ`, the residual norms) is
/// per-column, computed by the same fixed-order [`blocked_dot`] over the
/// same contiguous column slice the single-RHS method would use, and a
/// column that converges (or breaks down) freezes: its `x`/`r`/`p` stop
/// updating while the remaining columns iterate on. Consequently, when the
/// operator and preconditioner apply each column independently of its
/// neighbours — the `gemm_rhs` dispatch contract, satisfied by
/// `UlvFactor`'s solve path — column `j` of the blocked solve is
/// **bit-identical** to `pcg(a, m, b.col(j), …)`.
pub fn block_pcg(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &Mat,
    max_iters: usize,
    rtol: f64,
) -> BlockIterResult {
    block_pcg_with(
        a,
        m,
        b,
        max_iters,
        rtol,
        &mut BlockKrylovWorkspace::new(b.rows(), b.cols()),
    )
}

/// [`block_pcg`] reusing a caller-owned workspace.
pub fn block_pcg_with(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &Mat,
    max_iters: usize,
    rtol: f64,
    ws: &mut BlockKrylovWorkspace,
) -> BlockIterResult {
    let (n, k) = (b.rows(), b.cols());
    assert_eq!(a.nrows(), n, "block_pcg: dimension mismatch");
    assert_eq!(m.n(), n, "block_pcg: preconditioner dimension mismatch");
    ws.ensure(n, k);
    let tracer = ws.tracer.clone();
    let hook = ws.reduce_hook.clone();
    let _solve_span = tracer.as_ref().map(|t| t.span("krylov", "block_pcg"));
    let b_norms: Vec<f64> = (0..k)
        .map(|j| counted(&hook, norm(b.col(j))).max(f64::MIN_POSITIVE))
        .collect();

    let mut x = Mat::zeros(n, k);
    let BlockKrylovWorkspace {
        r,
        z,
        p,
        ap,
        scratch,
        ..
    } = ws;
    r.rm().copy_from(b.rf());
    m.apply_inv_into(r.rf(), z.rm());
    p.rm().copy_from(z.rf());
    let mut rz: Vec<f64> = (0..k)
        .map(|j| counted(&hook, dot(r.col(j), z.col(j))))
        .collect();
    let mut history: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut iterations = vec![0usize; k];
    let mut active = vec![true; k];
    let mut rounds = 0;

    for _ in 0..max_iters {
        // Residual check per column; converged columns freeze here, exactly
        // where the single-RHS loop would break.
        let mut worst = 0.0_f64;
        for j in 0..k {
            if !active[j] {
                continue;
            }
            let rn = counted(&hook, norm(r.col(j))) / b_norms[j];
            history[j].push(rn);
            if rn <= rtol {
                active[j] = false;
            } else {
                worst = worst.max(rn);
            }
        }
        if !active.iter().any(|&v| v) {
            break;
        }
        rounds += 1;
        for j in 0..k {
            if active[j] {
                iterations[j] += 1;
            }
        }
        KrylovWorkspace::trace_iter(&tracer, "block_pcg iter", rounds, worst);
        // One blocked application covers every column; frozen columns carry
        // stale directions whose products are simply ignored.
        a.apply(p.rf(), ap.rm());
        for j in 0..k {
            if !active[j] {
                continue;
            }
            let denom = counted(&hook, dot(p.col(j), ap.col(j)));
            if denom <= 0.0 {
                active[j] = false; // not SPD (numerically): freeze best effort
                continue;
            }
            let alpha = rz[j] / denom;
            {
                let xc = x.col_mut(j);
                let pc = p.col(j);
                for i in 0..n {
                    xc[i] += alpha * pc[i];
                }
            }
            let rc = r.col_mut(j);
            let apc = ap.col(j);
            for i in 0..n {
                rc[i] -= alpha * apc[i];
            }
        }
        m.apply_inv_into(r.rf(), z.rm());
        for j in 0..k {
            if !active[j] {
                continue;
            }
            let rz_new = counted(&hook, dot(r.col(j), z.col(j)));
            let beta = rz_new / rz[j];
            let pc = p.col_mut(j);
            let zc = z.col(j);
            for i in 0..n {
                pc[i] = zc[i] + beta * pc[i];
            }
            rz[j] = rz_new;
        }
    }

    let mut relative_residual = vec![0.0; k];
    let mut converged = vec![false; k];
    for j in 0..k {
        relative_residual[j] = true_residual(a, x.col(j), b.col(j), scratch, &hook);
        converged[j] = relative_residual[j] <= 10.0 * rtol;
    }
    BlockIterResult {
        x,
        iterations,
        relative_residual,
        converged,
        history,
    }
}

/// Restarted GMRES(m) with *right* preconditioning: solves `A M⁻¹ u = b`,
/// `x = M⁻¹ u`, so the preconditioner need not be symmetric.
pub fn gmres(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    restart: usize,
    max_iters: usize,
    rtol: f64,
) -> IterResult {
    gmres_with(
        a,
        m,
        b,
        restart,
        max_iters,
        rtol,
        &mut KrylovWorkspace::new(b.len()),
    )
}

/// [`gmres`] reusing a caller-owned workspace (the Krylov basis block is
/// allocated once and persists across restarts and calls).
pub fn gmres_with(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    restart: usize,
    max_iters: usize,
    rtol: f64,
    ws: &mut KrylovWorkspace,
) -> IterResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "gmres: dimension mismatch");
    let restart = restart.max(1);
    ws.ensure(n);
    ws.ensure_gmres(restart);
    let tracer = ws.tracer.clone();
    let hook = ws.reduce_hook.clone();
    let _solve_span = tracer.as_ref().map(|t| t.span("krylov", "gmres"));
    let b_norm = counted(&hook, norm(b)).max(f64::MIN_POSITIVE);

    let mut x = vec![0.0; n];
    let mut history = Vec::new();
    let mut iterations = 0;
    let KrylovWorkspace {
        r,
        w,
        z: mz,
        u,
        basis,
        hess,
        cs,
        sn,
        g,
        ..
    } = ws;

    'outer: while iterations < max_iters {
        // r = b - A x
        apply_op_into(a, &x, r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        let beta = counted(&hook, norm(r));
        history.push(beta / b_norm);
        if beta / b_norm <= rtol {
            break;
        }

        // Arnoldi on A M⁻¹, basis columns in the workspace block.
        {
            let v0 = basis.col_mut(0);
            for i in 0..n {
                v0[i] = r[i] / beta;
            }
        }
        g.iter_mut().for_each(|v| *v = 0.0);
        g[0] = beta;

        let mut k_used = 0;
        let mut n_cols = 1;
        for k in 0..restart {
            if iterations >= max_iters {
                break;
            }
            iterations += 1;
            KrylovWorkspace::trace_iter(
                &tracer,
                "gmres iter",
                iterations,
                history.last().copied().unwrap_or(1.0),
            );
            apply_prec_into(m, basis.col(k), mz);
            apply_op_into(a, mz, w);
            // Modified Gram-Schmidt against the stored basis.
            for i in 0..n_cols {
                let vi = basis.col(i);
                let hik = counted(&hook, dot(w, vi));
                hess[(i, k)] = hik;
                for j in 0..n {
                    w[j] -= hik * vi[j];
                }
            }
            let wn = counted(&hook, norm(w));
            hess[(k + 1, k)] = wn;

            // Apply existing Givens rotations to the new column.
            for i in 0..k {
                let t = cs[i] * hess[(i, k)] + sn[i] * hess[(i + 1, k)];
                hess[(i + 1, k)] = -sn[i] * hess[(i, k)] + cs[i] * hess[(i + 1, k)];
                hess[(i, k)] = t;
            }
            // New rotation to annihilate hess[k+1][k].
            let (c, s) = givens(hess[(k, k)], hess[(k + 1, k)]);
            cs[k] = c;
            sn[k] = s;
            hess[(k, k)] = c * hess[(k, k)] + s * hess[(k + 1, k)];
            hess[(k + 1, k)] = 0.0;
            let t = c * g[k];
            g[k + 1] = -s * g[k];
            g[k] = t;
            k_used = k + 1;

            let res_est = g[k + 1].abs() / b_norm;
            history.push(res_est);
            if wn == 0.0 || res_est <= rtol {
                break;
            }
            let vk = basis.col_mut(k + 1);
            for i in 0..n {
                vk[i] = w[i] / wn;
            }
            n_cols = k + 2;
            if n_cols == restart + 1 {
                break;
            }
        }

        if k_used == 0 {
            break 'outer; // stagnation: no Krylov direction produced
        }

        // Solve the k_used x k_used triangular system H y = g.
        let mut y = vec![0.0; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in (i + 1)..k_used {
                s -= hess[(i, j)] * y[j];
            }
            y[i] = s / hess[(i, i)];
        }
        // x += M⁻¹ (V y)
        u.iter_mut().for_each(|v| *v = 0.0);
        for (j, &yj) in y.iter().enumerate() {
            let vj = basis.col(j);
            for i in 0..n {
                u[i] += yj * vj[i];
            }
        }
        apply_prec_into(m, u, mz);
        for i in 0..n {
            x[i] += mz[i];
        }
    }

    let relative_residual = true_residual(a, &x, b, r, &hook);
    IterResult {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= 10.0 * rtol,
        history,
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() > b.abs() {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c.copysign(a.signum() * c.abs()), c * t)
    } else {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    }
}

/// BiCGStab with right preconditioning — unsymmetric systems where GMRES
/// restarts stall or memory for the Krylov basis is a concern.
pub fn bicgstab(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
) -> IterResult {
    bicgstab_with(a, m, b, max_iters, rtol, &mut KrylovWorkspace::new(b.len()))
}

/// [`bicgstab`] reusing a caller-owned workspace.
pub fn bicgstab_with(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
    ws: &mut KrylovWorkspace,
) -> IterResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "bicgstab: dimension mismatch");
    ws.ensure(n);
    let tracer = ws.tracer.clone();
    let hook = ws.reduce_hook.clone();
    let _solve_span = tracer.as_ref().map(|t| t.span("krylov", "bicgstab"));
    let b_norm = counted(&hook, norm(b)).max(f64::MIN_POSITIVE);

    let mut x = vec![0.0; n];
    let KrylovWorkspace {
        r,
        z: r0,
        v,
        p,
        q: phat,
        s,
        u: shat,
        t,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0.copy_from_slice(b);
    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    v.iter_mut().for_each(|x| *x = 0.0);
    p.iter_mut().for_each(|x| *x = 0.0);
    let mut history = Vec::new();
    let mut iterations = 0;

    for _ in 0..max_iters {
        let rn = counted(&hook, norm(r)) / b_norm;
        history.push(rn);
        if rn <= rtol {
            break;
        }
        iterations += 1;
        KrylovWorkspace::trace_iter(&tracer, "bicgstab iter", iterations, rn);
        let rho_new = counted(&hook, dot(r0, r));
        if rho_new == 0.0 {
            break; // breakdown
        }
        let beta = (rho_new / rho) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        apply_prec_into(m, p, phat);
        apply_op_into(a, phat, v);
        let r0v = counted(&hook, dot(r0, v));
        if r0v == 0.0 {
            break;
        }
        alpha = rho_new / r0v;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        if counted(&hook, norm(s)) / b_norm <= rtol {
            for i in 0..n {
                x[i] += alpha * phat[i];
            }
            r.copy_from_slice(s);
            continue;
        }
        apply_prec_into(m, s, shat);
        apply_op_into(a, shat, t);
        let tt = counted(&hook, dot(t, t));
        if tt == 0.0 {
            break;
        }
        omega = counted(&hook, dot(t, s)) / tt;
        for i in 0..n {
            x[i] += alpha * phat[i] + omega * shat[i];
            r[i] = s[i] - omega * t[i];
        }
        if omega == 0.0 {
            break;
        }
        rho = rho_new;
    }

    let relative_residual = true_residual(a, &x, b, t, &hook);
    IterResult {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= 10.0 * rtol,
        history,
    }
}

/// CGS (conjugate gradient squared) with right preconditioning — the
/// transpose-free BiCG square, two operator applications per iteration
/// with no `Aᵀ` and no Krylov basis storage.
pub fn cgs(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
) -> IterResult {
    cgs_with(a, m, b, max_iters, rtol, &mut KrylovWorkspace::new(b.len()))
}

/// [`cgs`] reusing a caller-owned workspace.
pub fn cgs_with(
    a: &dyn LinOp,
    m: &dyn Preconditioner,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
    ws: &mut KrylovWorkspace,
) -> IterResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "cgs: dimension mismatch");
    ws.ensure(n);
    let tracer = ws.tracer.clone();
    let hook = ws.reduce_hook.clone();
    let _solve_span = tracer.as_ref().map(|t| t.span("krylov", "cgs"));
    let b_norm = counted(&hook, norm(b)).max(f64::MIN_POSITIVE);

    let mut x = vec![0.0; n];
    let KrylovWorkspace {
        r,
        z: r0,
        p,
        q,
        u,
        v,
        s: hat,
        t: av,
        w: uq,
        ..
    } = ws;
    r.copy_from_slice(b);
    r0.copy_from_slice(b);
    p.iter_mut().for_each(|x| *x = 0.0);
    q.iter_mut().for_each(|x| *x = 0.0);
    let mut rho = 1.0_f64;
    let mut history = Vec::new();
    let mut iterations = 0;

    for it in 0..max_iters {
        let rn = counted(&hook, norm(r)) / b_norm;
        history.push(rn);
        if rn <= rtol {
            break;
        }
        iterations += 1;
        KrylovWorkspace::trace_iter(&tracer, "cgs iter", iterations, rn);
        let rho_new = counted(&hook, dot(r0, r));
        if rho_new == 0.0 {
            break; // breakdown
        }
        let beta = if it == 0 { 0.0 } else { rho_new / rho };
        for i in 0..n {
            u[i] = r[i] + beta * q[i];
            p[i] = u[i] + beta * (q[i] + beta * p[i]);
        }
        apply_prec_into(m, p, hat);
        apply_op_into(a, hat, v);
        let sigma = counted(&hook, dot(r0, v));
        if sigma == 0.0 {
            break;
        }
        let alpha = rho_new / sigma;
        for i in 0..n {
            q[i] = u[i] - alpha * v[i];
            uq[i] = u[i] + q[i];
        }
        apply_prec_into(m, uq, hat);
        apply_op_into(a, hat, av);
        for i in 0..n {
            x[i] += alpha * hat[i];
            r[i] -= alpha * av[i];
        }
        rho = rho_new;
    }

    let relative_residual = true_residual(a, &x, b, av, &hook);
    IterResult {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= 10.0 * rtol,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockJacobi, DiagJacobi, Identity};
    use h2_dense::{gaussian_mat, DenseOp, Mat};

    fn spd_problem(n: usize, seed: u64) -> (DenseOp, Vec<f64>) {
        // A = G Gᵀ + n·I is SPD and well conditioned.
        let g = gaussian_mat(n, n, seed);
        let mut a = h2_dense::matmul(h2_dense::Op::NoTrans, h2_dense::Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        (DenseOp::new(a), b)
    }

    fn unsym_problem(n: usize, seed: u64) -> (DenseOp, Vec<f64>) {
        // Diagonally dominant unsymmetric matrix.
        let g = gaussian_mat(n, n, seed);
        let mut a = g;
        for i in 0..n {
            a[(i, i)] += 3.0 * (n as f64).sqrt();
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).cos()).collect();
        (DenseOp::new(a), b)
    }

    #[test]
    fn pcg_converges_on_spd() {
        let (op, b) = spd_problem(80, 11);
        let res = pcg(&op, &Identity { n: 80 }, &b, 200, 1e-10);
        assert!(res.converged, "residual {}", res.relative_residual);
        assert!(res.relative_residual < 1e-9);
    }

    #[test]
    fn pcg_history_is_recorded_and_decreases() {
        let (op, b) = spd_problem(60, 12);
        let res = pcg(&op, &Identity { n: 60 }, &b, 200, 1e-10);
        assert!(res.history.len() >= 2);
        assert!(res.history.last().unwrap() < &res.history[0]);
    }

    #[test]
    fn jacobi_preconditioning_helps_on_scaled_system() {
        // Badly row/column-scaled SPD matrix: diag precond should cut the
        // iteration count substantially.
        let n = 120;
        let g = gaussian_mat(n, n, 13);
        let mut a = h2_dense::matmul(h2_dense::Op::NoTrans, h2_dense::Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        // Scale rows and columns by wildly varying weights.
        for i in 0..n {
            let w = 10f64.powi((i % 7) as i32 - 3);
            for j in 0..n {
                a[(i, j)] *= w;
                a[(j, i)] *= w;
            }
        }
        let op = DenseOp::new(a.clone());
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let plain = pcg(&op, &Identity { n }, &b, 3000, 1e-8);
        let jac = pcg(&op, &DiagJacobi::new(&op, n), &b, 3000, 1e-8);
        assert!(jac.converged);
        assert!(
            jac.iterations * 2 < plain.iterations.max(1),
            "jacobi {} vs plain {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn gmres_converges_on_unsymmetric() {
        let (op, b) = unsym_problem(90, 14);
        let res = gmres(&op, &Identity { n: 90 }, &b, 30, 400, 1e-10);
        assert!(res.converged, "residual {}", res.relative_residual);
    }

    #[test]
    fn gmres_with_restart_shorter_than_problem() {
        let (op, b) = unsym_problem(100, 15);
        let res = gmres(&op, &Identity { n: 100 }, &b, 10, 2000, 1e-8);
        assert!(
            res.converged,
            "restarted GMRES residual {}",
            res.relative_residual
        );
    }

    #[test]
    fn bicgstab_converges_on_unsymmetric() {
        let (op, b) = unsym_problem(90, 16);
        let res = bicgstab(&op, &Identity { n: 90 }, &b, 400, 1e-10);
        assert!(res.converged, "residual {}", res.relative_residual);
    }

    #[test]
    fn cgs_converges_on_unsymmetric() {
        let (op, b) = unsym_problem(90, 19);
        let res = cgs(&op, &Identity { n: 90 }, &b, 400, 1e-10);
        assert!(res.converged, "residual {}", res.relative_residual);
        // And agrees with GMRES on the solution.
        let g = gmres(&op, &Identity { n: 90 }, &b, 45, 400, 1e-12);
        let mut d = 0.0_f64;
        for i in 0..90 {
            d = d.max((g.x[i] - res.x[i]).abs());
        }
        assert!(d < 1e-7, "cgs and gmres disagree by {d}");
    }

    #[test]
    fn solvers_agree_on_the_solution() {
        let (op, b) = unsym_problem(64, 17);
        let g = gmres(&op, &Identity { n: 64 }, &b, 32, 400, 1e-12);
        let s = bicgstab(&op, &Identity { n: 64 }, &b, 400, 1e-12);
        let mut d = 0.0_f64;
        for i in 0..64 {
            d = d.max((g.x[i] - s.x[i]).abs());
        }
        assert!(d < 1e-8, "gmres and bicgstab disagree by {d}");
    }

    #[test]
    fn workspace_reuse_is_identical_to_fresh() {
        // One workspace threaded through all four methods, twice each:
        // results must be bitwise identical to fresh-workspace runs.
        let (op, b) = unsym_problem(70, 18);
        let (spd, bs) = spd_problem(70, 18);
        let mut ws = KrylovWorkspace::new(70);
        for _ in 0..2 {
            let a1 = pcg_with(&spd, &Identity { n: 70 }, &bs, 200, 1e-10, &mut ws);
            let a2 = pcg(&spd, &Identity { n: 70 }, &bs, 200, 1e-10);
            assert_eq!(a1.x, a2.x);
            let g1 = gmres_with(&op, &Identity { n: 70 }, &b, 20, 300, 1e-10, &mut ws);
            let g2 = gmres(&op, &Identity { n: 70 }, &b, 20, 300, 1e-10);
            assert_eq!(g1.x, g2.x);
            let s1 = bicgstab_with(&op, &Identity { n: 70 }, &b, 300, 1e-10, &mut ws);
            let s2 = bicgstab(&op, &Identity { n: 70 }, &b, 300, 1e-10);
            assert_eq!(s1.x, s2.x);
            let c1 = cgs_with(&op, &Identity { n: 70 }, &b, 300, 1e-10, &mut ws);
            let c2 = cgs(&op, &Identity { n: 70 }, &b, 300, 1e-10);
            assert_eq!(c1.x, c2.x);
        }
    }

    #[test]
    fn workspace_resizes_across_problem_sizes() {
        let mut ws = KrylovWorkspace::new(10);
        let (op, b) = spd_problem(40, 20);
        let res = pcg_with(&op, &Identity { n: 40 }, &b, 200, 1e-10, &mut ws);
        assert!(res.converged);
        assert_eq!(ws.n(), 40);
    }

    #[test]
    fn block_jacobi_beats_identity_on_block_structured_spd() {
        use h2_tree::ClusterTree;
        let n = 128;
        let pts: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
        let tree = ClusterTree::build(&pts, 16);
        // SPD with strong diagonal blocks, weak off-diagonal coupling.
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let near = (i / 16) == (j / 16);
                let base = (-((i as f64 - j as f64) / 4.0).powi(2)).exp();
                a[(i, j)] = if near { base } else { 0.01 * base };
            }
            a[(i, i)] += 2.0;
        }
        let op = DenseOp::new(a);
        let b: Vec<f64> = (0..n).map(|i| (0.05 * i as f64).sin()).collect();
        let plain = pcg(&op, &Identity { n }, &b, 500, 1e-10);
        let bj = BlockJacobi::from_entry(&op, &tree).unwrap();
        let prec = pcg(&op, &bj, &b, 500, 1e-10);
        assert!(prec.converged);
        assert!(
            prec.iterations < plain.iterations,
            "block-jacobi {} vs plain {}",
            prec.iterations,
            plain.iterations
        );
    }

    /// A dense operator whose kernel choice ignores the RHS width
    /// (`gemm_rhs`), so each column's product is bitwise independent of its
    /// neighbours — the operator contract `block_pcg`'s bit-identity claim
    /// rests on. (`DenseOp` uses `par_gemm`, whose dispatch reads the
    /// column count.)
    struct ColInvariantOp {
        a: Mat,
    }

    impl h2_dense::LinOp for ColInvariantOp {
        fn nrows(&self) -> usize {
            self.a.rows()
        }

        fn ncols(&self) -> usize {
            self.a.cols()
        }

        fn apply(&self, x: h2_dense::MatRef<'_>, y: h2_dense::MatMut<'_>) {
            h2_dense::gemm_rhs(
                h2_dense::Op::NoTrans,
                h2_dense::Op::NoTrans,
                1.0,
                self.a.rf(),
                x,
                0.0,
                y,
            );
        }
    }

    fn spd_mat(n: usize, seed: u64) -> Mat {
        let g = gaussian_mat(n, n, seed);
        let mut a = h2_dense::matmul(h2_dense::Op::NoTrans, h2_dense::Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn block_pcg_bit_identical_to_sequential_pcg() {
        let n = 96;
        let a = spd_mat(n, 23);
        let op = ColInvariantOp { a: a.clone() };
        // Columns with wildly different scales so convergence rounds differ
        // per column — exercising the freeze path.
        let mut b = gaussian_mat(n, 8, 24);
        for j in 0..8 {
            let s = 10f64.powi(j as i32 - 4);
            for v in b.col_mut(j) {
                *v *= s;
            }
        }
        for m in [
            &Identity { n } as &dyn crate::Preconditioner,
            &DiagJacobi::new(&DenseOp::new(a.clone()), n),
        ] {
            let blocked = block_pcg(&op, m, &b, 200, 1e-10);
            for j in 0..8 {
                let single = pcg(&op, m, b.col(j), 200, 1e-10);
                assert_eq!(
                    blocked.x.col(j),
                    single.x.as_slice(),
                    "column {j} drifted from its single-RHS solve"
                );
                assert_eq!(blocked.iterations[j], single.iterations);
                assert_eq!(blocked.history[j], single.history);
                assert_eq!(blocked.relative_residual[j], single.relative_residual);
                assert_eq!(blocked.converged[j], single.converged);
            }
        }
    }

    #[test]
    fn block_pcg_workspace_reuse_is_identical_to_fresh() {
        let n = 64;
        let op = ColInvariantOp { a: spd_mat(n, 29) };
        let b = gaussian_mat(n, 5, 30);
        let mut ws = BlockKrylovWorkspace::new(n, 5);
        for _ in 0..2 {
            let r1 = block_pcg_with(&op, &Identity { n }, &b, 200, 1e-10, &mut ws);
            let r2 = block_pcg(&op, &Identity { n }, &b, 200, 1e-10);
            assert_eq!(r1.x, r2.x);
        }
        // Resize across widths.
        let b2 = gaussian_mat(n, 3, 31);
        let r1 = block_pcg_with(&op, &Identity { n }, &b2, 200, 1e-10, &mut ws);
        assert_eq!(ws.k(), 3);
        assert!(r1.converged.iter().all(|&c| c));
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (op, _) = spd_problem(20, 18);
        let b = vec![0.0; 20];
        let res = pcg(&op, &Identity { n: 20 }, &b, 50, 1e-10);
        assert!(res.x.iter().all(|&v| v == 0.0));
        let res = gmres(&op, &Identity { n: 20 }, &b, 10, 50, 1e-10);
        assert!(res.x.iter().all(|&v| v == 0.0));
        let res = cgs(&op, &Identity { n: 20 }, &b, 50, 1e-10);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }
}

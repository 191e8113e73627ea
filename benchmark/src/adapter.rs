//! Every call into the library goes through this file. The rest of the
//! benchmark sees only the types defined here, so a later change to a
//! library signature has one place to follow. The library functions used
//! are listed in the README.
//!
//! Nothing here measures time except where a section has sub-steps the
//! harness wants separately (`Problem::setup`), and nothing here decides
//! what a workload is: that is `workload::Spec`.

use crate::workload::{Admissibility, FactorKind, Geometry, KernelSpec, Spec};
use h2_core::{sketch_construct, SketchConfig, SketchStats};
use h2_dense::{gaussian_mat, gemm, relative_error_2, EntryAccess, LinOp, Op};
use h2_kernels::{ExponentialKernel, Kernel, KernelMatrix, Matern32Kernel};
use h2_matrix::{direct_construct, DirectConfig, H2Matrix, LowRankUpdate};
use h2_obs::{ChromeTrace, Tracer};

/// JSON value, writer and parser of the observability layer.
pub use h2_obs::Json;
use h2_runtime::{DeviceModel, Runtime};
use h2_sched::{shard_matvec_with_report, simulate_matvec, DeviceFabric};
use h2_solve::{pcg_with, BlockJacobi, KrylovWorkspace, Preconditioner, UlvFactor};
use h2_tree::{grid_plane, uniform_cube, ClusterTree, Partition};
use std::sync::Arc;
use std::time::Instant;

/// Dense column-major matrix; opaque outside this file.
pub use h2_dense::Mat as Dense;

const MIB: f64 = (1u64 << 20) as f64;

pub fn gaussian(rows: usize, cols: usize, seed: u64) -> Dense {
    gaussian_mat(rows, cols, seed)
}

pub fn zeros(rows: usize, cols: usize) -> Dense {
    Dense::zeros(rows, cols)
}

/// FNV-1a over the bit patterns: equal iff the matrices are bit-identical.
pub fn checksum(m: &Dense) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in m.as_slice() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `‖a − b‖_F / ‖b‖_F`.
pub fn relative_difference(a: &Dense, b: &Dense) -> f64 {
    let mut d = a.clone();
    d.axpy(-1.0, b);
    d.norm_fro() / b.norm_fro()
}

/// A kernel with a nugget on its diagonal: `K + σ I` as one operator, so
/// the reference, the entries and the constructed form all agree on it.
struct WithNugget<K> {
    inner: K,
    nugget: f64,
}

impl<K: Kernel> Kernel for WithNugget<K> {
    fn eval_r(&self, r: f64) -> f64 {
        self.inner.eval_r(r)
    }

    fn diag(&self) -> f64 {
        self.inner.diag() + self.nugget
    }
}

fn partition(tree: &ClusterTree, adm: Admissibility) -> Partition {
    let rule = match adm {
        Admissibility::Strong { eta } => h2_tree::Admissibility::Strong { eta },
        Admissibility::Weak => h2_tree::Admissibility::Weak,
    };
    Partition::build(tree, rule)
}

/// What set-up produces: geometry, partitions, the entry generator and the
/// reference operator that plays the black-box sampler.
pub struct Problem {
    tree: Arc<ClusterTree>,
    /// Partition of the operator to construct.
    part: Arc<Partition>,
    kernel: Box<dyn EntryAccess>,
    /// `direct_construct` of the kernel on strong admissibility.
    pub reference: Operator,
    /// The low-rank factor `P` of the update workload.
    update: Option<Dense>,
    pub tree_build_s: f64,
    pub partition_s: f64,
    pub direct_construct_s: f64,
}

impl Problem {
    /// Points → cluster tree → partitions → reference operator.
    /// The three sub-steps are timed (and, in a traced cycle, spanned)
    /// separately: they belong to different layers.
    pub fn setup(spec: &Spec, geometry: Geometry, seed: u64, trace: Option<&Trace>) -> Problem {
        fn step<R>(trace: Option<&Trace>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
            let t0 = Instant::now();
            let out = match trace {
                Some(t) => t.span(name, f),
                None => f(),
            };
            (out, t0.elapsed().as_secs_f64())
        }
        let points = match geometry {
            Geometry::Cube { n } => uniform_cube(n, seed),
            Geometry::Grid { k } => grid_plane(k, k),
        };
        let (tree, tree_build_s) = step(trace, "h2_tree:build", || {
            Arc::new(ClusterTree::build(&points, spec.leaf))
        });

        let reference_adm = spec.reference_admissibility();
        let ((ref_part, part), partition_s) = step(trace, "h2_tree:partition", || {
            let ref_part = Arc::new(partition(&tree, reference_adm));
            let part = if spec.admissibility == reference_adm {
                ref_part.clone()
            } else {
                Arc::new(partition(&tree, spec.admissibility))
            };
            (ref_part, part)
        });

        let pts = tree.points.clone();
        let nugget = spec.kernel_nugget;
        let kernel: Box<dyn EntryAccess> = match spec.kernel {
            KernelSpec::Exponential { l } => {
                let inner = ExponentialKernel { l };
                Box::new(KernelMatrix::new(WithNugget { inner, nugget }, pts))
            }
            KernelSpec::Matern32 { l } => {
                let inner = Matern32Kernel { l };
                Box::new(KernelMatrix::new(WithNugget { inner, nugget }, pts))
            }
        };

        let cfg = DirectConfig {
            tol: spec.reference_tol,
            ..Default::default()
        };
        let (reference, direct_construct_s) = step(trace, "h2_matrix:direct_construct", || {
            direct_construct(kernel.as_ref(), tree.clone(), ref_part, &cfg)
        });

        let update = spec.update_rank.map(|r| {
            let n = geometry.n();
            let mut p = gaussian_mat(n, r, seed ^ 0x5EED_0001);
            p.scale(0.1 / (n as f64).sqrt());
            p
        });
        Problem {
            tree,
            part,
            kernel,
            reference: Operator(reference),
            update,
            tree_build_s,
            partition_s,
            direct_construct_s,
        }
    }

    pub fn n(&self) -> usize {
        self.tree.npoints()
    }

    pub fn tree_levels(&self) -> usize {
        self.tree.nlevels()
    }

    pub fn far_blocks(&self) -> usize {
        (0..self.tree.nlevels())
            .map(|l| self.part.far_count(&self.tree, l))
            .sum()
    }

    pub fn near_blocks(&self) -> usize {
        self.part.near_count(&self.tree)
    }

    pub fn csp_near(&self) -> usize {
        self.part.csp_near(&self.tree)
    }

    /// The operator that gets sketched: the black-box product and the
    /// entry generator that belong together.
    pub fn target(&self) -> Target<'_> {
        match &self.update {
            None => Target::Kernel {
                sampler: &self.reference.0,
                entries: self.kernel.as_ref(),
            },
            Some(p) => Target::Updated(LowRankUpdate::symmetric(&self.reference.0, p.clone())),
        }
    }

    /// Index sets of the blocks (leaf, next leaf) for the entry probes.
    fn leaf_pairs(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let leaves: Vec<usize> = self.tree.level(self.tree.leaf_level()).collect();
        leaves
            .windows(2)
            .map(|w| {
                let (rb, re) = self.tree.range(w[0]);
                let (cb, ce) = self.tree.range(w[1]);
                ((rb..re).collect(), (cb..ce).collect())
            })
            .collect()
    }

    /// Entries one probe pass generates.
    pub fn probe_entry_count(&self) -> usize {
        self.leaf_pairs()
            .iter()
            .map(|(rows, cols)| rows.len() * cols.len())
            .sum()
    }

    /// Evaluate every (leaf, next leaf) block through the kernel's
    /// `EntryAccess::block`.
    pub fn kernel_entries_pass(&self) {
        entries_pass(self.kernel.as_ref(), &self.leaf_pairs())
    }

    /// The same blocks extracted from the compressed reference operator.
    pub fn extract_entries_pass(&self) {
        entries_pass(&self.reference.0, &self.leaf_pairs())
    }
}

fn entries_pass(gen: &dyn EntryAccess, pairs: &[(Vec<usize>, Vec<usize>)]) {
    for (rows, cols) in pairs {
        std::hint::black_box(gen.block_mat(rows, cols));
    }
}

pub enum Target<'a> {
    Kernel {
        sampler: &'a H2Matrix,
        entries: &'a dyn EntryAccess,
    },
    Updated(LowRankUpdate<'a>),
}

impl Target<'_> {
    fn sampler(&self) -> &dyn LinOp {
        match self {
            Target::Kernel { sampler, .. } => *sampler,
            Target::Updated(u) => u,
        }
    }

    fn entries(&self) -> &dyn EntryAccess {
        match self {
            Target::Kernel { entries, .. } => *entries,
            Target::Updated(u) => u,
        }
    }

    /// One black-box product `Y = K·Ω`.
    pub fn sample_into(&self, omega: &Dense, y: &mut Dense) {
        self.sampler().apply(omega.rf(), y.rm());
    }

    /// `−log10(‖K − K̃‖₂ / ‖K‖₂)` by 15 power iterations with fixed seeds,
    /// against the black-box product that was sketched.
    pub fn digits(&self, constructed: &Operator) -> f64 {
        -relative_error_2(self.sampler(), &constructed.0, 15, 0xD1617).log10()
    }

    /// `rows` of the exact operator applied to `x`, from entries alone.
    pub fn exact_rows_times(&self, rows: &[usize], x: &Dense) -> Vec<f64> {
        let n = x.rows();
        let cols: Vec<usize> = (0..n).collect();
        // A strip at a time keeps the scratch block small.
        let mut out = Vec::with_capacity(rows.len());
        for strip in rows.chunks(32) {
            let block = self.entries().block_mat(strip, &cols);
            for i in 0..strip.len() {
                out.push((0..n).map(|j| block[(i, j)] * x[(j, 0)]).sum());
            }
        }
        out
    }
}

/// What one construction reports about itself.
#[derive(Clone, Debug)]
pub struct ConstructInfo {
    pub samples_total: usize,
    pub adaptive_rounds: usize,
    pub norm_estimate: f64,
    /// Seconds per construction phase, by the library's phase names.
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// Seconds the library measured for the whole call.
    pub elapsed_s: f64,
    pub launches_total: usize,
    pub bsr_gemm_launches: usize,
    pub gemm_pack_calls: usize,
    pub pack_mib: f64,
}

impl ConstructInfo {
    fn from_stats(stats: &SketchStats) -> Self {
        let count = |name: &str| {
            stats
                .launches
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, c)| *c)
        };
        ConstructInfo {
            samples_total: stats.total_samples,
            adaptive_rounds: stats.rounds,
            norm_estimate: stats.norm_estimate,
            phase_seconds: stats.phase_seconds.clone(),
            elapsed_s: stats.elapsed.as_secs_f64(),
            launches_total: stats.total_launches(),
            bsr_gemm_launches: count("batchedBSRGemm"),
            gemm_pack_calls: count("gemmPack"),
            pack_mib: stats.pack_bytes as f64 / MIB,
        }
    }

    pub fn phase(&self, name: &str) -> f64 {
        self.phase_seconds
            .iter()
            .filter(|(p, _)| *p == name)
            .map(|(_, s)| *s)
            .sum()
    }
}

/// One `sketch_construct` call on a fresh single-thread runtime (the
/// runtime's profile accumulates across calls otherwise).
pub fn construct(
    problem: &Problem,
    target: &Target<'_>,
    spec: &Spec,
    seed: u64,
    tracer: Option<&Trace>,
) -> (Operator, ConstructInfo) {
    let cfg = SketchConfig {
        tol: spec.tol,
        initial_samples: spec.initial_samples,
        sample_block: spec.sample_block,
        max_rank: spec.max_rank,
        seed,
        ..Default::default()
    };
    let mut rt = Runtime::sequential();
    if let Some(t) = tracer {
        rt.set_tracer(t.0.clone());
    }
    let (h2, stats) = sketch_construct(
        target.sampler(),
        target.entries(),
        problem.tree.clone(),
        problem.part.clone(),
        &rt,
        &cfg,
    );
    (Operator(h2), ConstructInfo::from_stats(&stats))
}

/// An H2 operator: the constructed one, or the reference.
pub struct Operator(H2Matrix);

impl Operator {
    pub fn memory_mib(&self) -> f64 {
        self.0.memory_bytes() as f64 / MIB
    }

    pub fn dense_mib(&self) -> f64 {
        self.0.memory_breakdown().dense as f64 / MIB
    }

    pub fn lowrank_mib(&self) -> f64 {
        let m = self.0.memory_breakdown();
        (m.basis + m.coupling) as f64 / MIB
    }

    pub fn rank_range(&self) -> (usize, usize) {
        self.0.rank_range()
    }

    pub fn apply_into(&self, x: &Dense, y: &mut Dense) {
        self.0.apply(x.rf(), y.rm());
    }

    /// Add `shift` to the diagonal, in the stored diagonal leaf blocks.
    pub fn shift_diagonal(&mut self, shift: f64) {
        let dense = &mut self.0.dense;
        for (i, &(s, t)) in dense.pairs.iter().enumerate() {
            if s == t {
                let block = &mut dense.blocks[i];
                for j in 0..block.rows() {
                    block[(j, j)] += shift;
                }
            }
        }
    }

    /// Two-device sharded matvec against its closed-form simulator:
    /// `(measured bytes, modeled seconds, bytes equal the simulator's)`.
    pub fn sharded_matvec_bytes(&self, x: &Dense) -> (u64, f64, bool) {
        let fabric = DeviceFabric::new(2);
        let (_, report) = shard_matvec_with_report(&fabric, &self.0, x, false);
        let sim = simulate_matvec(&self.0, x.cols(), 2, report.mode, report.wire, false);
        let bytes = report.total_comm_bytes();
        (
            bytes,
            report.modeled_makespan(&DeviceModel::default()),
            bytes == sim.total_comm_bytes(),
        )
    }
}

/// The workload's factorization: what `factor_s` builds and `solve64_s`
/// applies.
pub enum Factor {
    BlockJacobi(BlockJacobi),
    Ulv(UlvFactor),
}

impl Factor {
    pub fn new(kind: FactorKind, op: &Operator) -> Result<Factor, String> {
        match kind {
            FactorKind::BlockJacobi => BlockJacobi::from_h2(&op.0)
                .map(Factor::BlockJacobi)
                .map_err(|e| format!("block-Jacobi: singular diagonal block {:?}", e.0)),
            FactorKind::Ulv => UlvFactor::new(&op.0)
                .map(Factor::Ulv)
                .map_err(|e| format!("ULV: {e:?}")),
        }
    }

    /// The per-node reference schedule of the ULV factorization.
    pub fn ulv_per_node(op: &Operator) -> Result<Factor, String> {
        UlvFactor::new_per_node(&op.0)
            .map(Factor::Ulv)
            .map_err(|e| format!("ULV per node: {e:?}"))
    }

    fn preconditioner(&self) -> &dyn Preconditioner {
        match self {
            Factor::BlockJacobi(bj) => bj,
            Factor::Ulv(ulv) => ulv,
        }
    }

    /// Apply the inverse to a block of right-hand sides.
    pub fn solve_into(&self, b: &Dense, x: &mut Dense) {
        match self {
            Factor::BlockJacobi(bj) => bj.apply_inv_into(b.rf(), x.rm()),
            Factor::Ulv(ulv) => *x = ulv.solve(b),
        }
    }

    /// Size of a ULV factor; `None` for block-Jacobi.
    pub fn ulv_shape(&self) -> Option<UlvShape> {
        match self {
            Factor::BlockJacobi(_) => None,
            Factor::Ulv(ulv) => Some(UlvShape {
                memory_mib: ulv.memory_bytes() as f64 / MIB,
                flops: ulv.factor_flops(),
                root_size: ulv.root_size(),
            }),
        }
    }
}

#[derive(Clone, Copy, Default)]
pub struct UlvShape {
    pub memory_mib: f64,
    /// Modeled flops of building the factor.
    pub flops: f64,
    pub root_size: usize,
}

pub struct PcgOutcome {
    pub iterations: usize,
    pub relative_residual: f64,
    pub converged: bool,
}

/// Preconditioned CG on `a` with the factor as preconditioner.
pub fn pcg_solve(
    a: &Operator,
    m: &Factor,
    b: &Dense,
    max_iters: usize,
    rtol: f64,
    tracer: Option<&Trace>,
) -> PcgOutcome {
    let mut ws = KrylovWorkspace::new(b.rows());
    if let Some(t) = tracer {
        ws.set_tracer(Some(t.0.clone()));
    }
    let r = pcg_with(&a.0, m.preconditioner(), b.col(0), max_iters, rtol, &mut ws);
    PcgOutcome {
        iterations: r.iterations,
        relative_residual: r.relative_residual,
        converged: r.converged,
    }
}

/// One packed GEMM `C = A·B` through the dense layer.
pub fn gemm_into(a: &Dense, b: &Dense, c: &mut Dense) {
    gemm(Op::NoTrans, Op::NoTrans, 1.0, a.rf(), b.rf(), 0.0, c.rm());
}

/// A recorded span: library spans and the benchmark's own share one
/// timeline and one parent chain.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub cat: &'static str,
    pub name: String,
    pub dur_ns: u64,
}

/// The tracer of the traced cycle. Bench-side spans (category `bench`) are
/// opened around adapter calls; the library's own spans nest under them
/// through the tracer's per-thread scope stack.
pub struct Trace(Arc<Tracer>);

impl Trace {
    pub fn new() -> Trace {
        Trace(Tracer::new(1 << 18))
    }

    /// Run `f` inside a bench-side span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.0.span("bench", name);
        f()
    }

    /// Drain the events and write them as a Chrome trace.
    pub fn finish(self, path: &std::path::Path) -> std::io::Result<Drained> {
        let events = self.0.drain();
        let count = events.len();
        let mut chrome = ChromeTrace::new();
        chrome.process_name(1, "h2_e2e_bench");
        chrome.add_span_events(&events, 1, 2);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        chrome.write(path)?;
        let spans = events
            .into_iter()
            .filter_map(|e| {
                e.dur_ns.map(|dur_ns| SpanRecord {
                    id: e.id,
                    parent: e.parent,
                    cat: e.cat,
                    name: e.name,
                    dur_ns,
                })
            })
            .collect();
        Ok(Drained {
            spans,
            events: count,
            dropped: self.0.dropped(),
        })
    }
}

/// What the traced cycle left behind.
pub struct Drained {
    pub spans: Vec<SpanRecord>,
    /// Events written to the Chrome trace, instants included.
    pub events: usize,
    /// Events the tracer's ring had no room for.
    pub dropped: u64,
}

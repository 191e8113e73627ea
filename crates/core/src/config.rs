//! Configuration and statistics for the sketching construction.

use h2_runtime::{Kernel, Phase, Profile};
use std::time::Duration;

/// Configuration of Algorithm 1.
///
/// `tol` is the one truncation input: every convergence test and row ID
/// truncates at the shared rule of [`crate::threshold`],
/// `SAFETY·tol·‖K‖₂·√max(d, 1)` at sample width `d`, which no field
/// rescales.
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Relative compression tolerance ε (paper: 1e-6).
    pub tol: f64,
    /// Initial number of sample vectors (paper: 256).
    pub initial_samples: usize,
    /// Sample block size `d` added per adaptation round (paper: 32 or the
    /// leaf size — Table II).
    pub sample_block: usize,
    /// Enable the adaptive while-loops (lines 11/29). With `false`, the
    /// fixed-sample variant of §III.A runs with `initial_samples` vectors.
    pub adaptive: bool,
    /// Hard cap on total samples.
    pub max_samples: usize,
    /// Hard cap on per-node rank.
    pub max_rank: usize,
    /// RNG seed (all sketching randomness derives from it).
    pub seed: u64,
    /// Storage precision requested for finished coupling blocks. With
    /// [`h2_runtime::Precision::F32`] the construction demotes each level's
    /// coupling blocks as the level completes, under the norm-aware rule
    /// of `h2_matrix::BlockStore::demote_pending`: a block narrows, as its
    /// only copy, when `(ε₃₂/2)·‖B‖_F` stays below the absolute tolerance.
    /// Bases stay f64 either way. The dense near field does not read this
    /// knob: every off-diagonal dense block that passes the same rule is
    /// stored in f32 in every configuration, and diagonal blocks always
    /// stay f64 (block-Jacobi and the ULV factor them, and shifts mutate
    /// them in place). Arithmetic is f64 either way.
    ///
    /// Coupling demotion stays opt-in because the per-block rule does not
    /// bound its effect: a coupling block's rounding error reaches the
    /// operator multiplied by the row and column bases around it, whose
    /// norms the rule ignores. Demoting coupling blocks by default cost
    /// `hss2d` 0.13 digits of accuracy in a measured run, while it saved
    /// 10–23 % of the stored operator on the strong-admissibility
    /// workloads.
    pub storage: h2_runtime::Precision,
    /// Whether the operator is symmetric (paper §II.A). `true` runs the
    /// one-stream instance: `V = U`, one sample stream `Y = K Ω`, block
    /// stores keyed by unordered pair. `false` runs two streams, `Y = K Ω`
    /// and `Z = Kᵀ Ψ`, with independent row and column bases and block
    /// stores keyed by ordered pair; the sampler must then implement
    /// `LinOp::apply_transpose`.
    pub symmetric: bool,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            sample_block: 32,
            adaptive: true,
            max_samples: 2048,
            max_rank: 512,
            seed: 0xC0FFEE,
            storage: h2_runtime::Precision::F64,
            symmetric: true,
        }
    }
}

impl SketchConfig {
    /// Width of the initial sample batch (line 1): `initial_samples`
    /// within the `max_samples` cap, at least one column. The engine draws
    /// it and the planner starts from it.
    pub(crate) fn initial_width(&self) -> usize {
        self.initial_samples.min(self.max_samples).max(1)
    }
}

/// Outcome statistics of one construction (the data behind Fig. 5 labels,
/// Fig. 7 and Table II).
#[derive(Clone, Debug, Default)]
pub struct SketchStats {
    /// Total random vectors consumed by sketching (initial + adaptive).
    pub total_samples: usize,
    /// Adaptive rounds taken (extra `Kblk` invocations).
    pub rounds: usize,
    /// Adaptive rounds per level (leaf first).
    pub rounds_per_level: Vec<usize>,
    /// The adaptive loop stopped at `max_samples` with nodes still failing
    /// the convergence test: the operator may miss the tolerance.
    pub sample_cap_hit: bool,
    /// Node IDs re-truncated to `max_rank` (per stream): each one dropped
    /// rank the tolerance asked for.
    pub rank_cap_hits: usize,
    /// Estimated `‖K‖₂` backing the relative threshold.
    pub norm_estimate: f64,
    /// Sampler products (`K x` or `Kᵀ x`) the `‖K‖₂` estimate used, at most
    /// [`crate::threshold::NORM_PRODUCTS`].
    pub norm_products: usize,
    /// Wall-clock construction time.
    pub elapsed: Duration,
    /// Per-phase timing snapshot (Fig. 7).
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// Batched-kernel launch counts (§IV.B analysis). The dense layer's
    /// per-call counters (`gemv`, `gemmPack`) ride along in the summary but
    /// are excluded from [`SketchStats::total_launches`] — they count CPU
    /// kernel invocations, not batched device launches.
    pub launches: Vec<(&'static str, usize)>,
    /// Bytes staged through the blocked-GEMM packing buffers.
    pub pack_bytes: u64,
    /// Per-level construction checkpoints sealed (one per processed level
    /// on a sharded backend; 0 off-fabric). The checkpoint ledger is what
    /// bounds device-loss recovery to replaying the in-flight level.
    pub checkpoints: usize,
    /// Recovery actions the construction observed: reshard-map version
    /// changes absorbed at level checkpoints (device loss mid-construction
    /// resumes from the last sealed level, not from scratch).
    pub recoveries: usize,
}

impl SketchStats {
    /// Capture phase timings and launch counts from a runtime profile.
    pub fn capture_profile(&mut self, profile: &Profile) {
        self.phase_seconds = Phase::ALL
            .iter()
            .map(|&p| (p.name(), profile.phase_time(p).as_secs_f64()))
            .collect();
        self.launches = profile.launch_summary();
        self.pack_bytes = profile.pack_bytes();
    }

    /// Total phase-attributed seconds.
    pub fn phase_total(&self) -> f64 {
        self.phase_seconds.iter().map(|(_, s)| s).sum()
    }

    /// Total batched device launches (the O(L·Csp) budget of §IV.B). The
    /// dense layer's per-call counters are excluded via
    /// [`Kernel::device_launch`] — the same predicate
    /// `Profile::total_launches` uses, so the two totals cannot drift.
    pub fn total_launches(&self) -> usize {
        self.launches
            .iter()
            .filter(|(name, _)| {
                Kernel::ALL
                    .iter()
                    .any(|k| k.device_launch() && k.name() == *name)
            })
            .map(|(_, n)| n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = SketchConfig::default();
        assert!(c.adaptive);
        assert!(c.initial_samples <= c.max_samples);
    }
}

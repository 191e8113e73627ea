//! Kernel-launch accounting and per-phase timing.
//!
//! The paper's performance story rests on two measurements we reproduce
//! exactly: the number of kernel launches (their batched design needs only
//! O(log N) of them — §IV.B) and the breakdown of construction time into
//! phases (Fig. 7: sampling, BSR product, entry generation, convergence
//! test, ID, and miscellaneous/marshaling).

use h2_dense::gemm::stats::StatsClaim;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The batched kernels of the implementation (comments in Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `batchedRand`: fill random blocks.
    Rand,
    /// `batchedGen`: batched entry generation (dense `D` and coupling `B`).
    Gen,
    /// `batchedBSRGemm`: block-sparse-row product (one launch per slot).
    BsrGemm,
    /// `batchedGemm`: plain variable-size batched GEMM.
    Gemm,
    /// Batched Householder QR (convergence test).
    Qr,
    /// `batchedID`: batched transpose + column-pivoted QR interpolative
    /// decomposition.
    Id,
    /// Batched transpose.
    Transpose,
    /// `batchedShrink`: skeleton-row gather.
    Shrink,
    /// Marshaling gathers/scatters (Thrust in the paper).
    Marshal,
    /// Parallel prefix sum for workspace sizing.
    PrefixSum,
    /// Dense matrix-vector products (solver inner products, samplers).
    Gemv,
    /// Blocked-GEMM packing passes (A/B panel staging of the microkernel;
    /// the byte traffic is tracked separately via
    /// [`Profile::pack_bytes`]).
    Pack,
    /// Batched LU factorization (ULV pivot blocks, `batchedGETRF`).
    Lu,
    /// Batched triangular solve (`batchedTRSM`; an LU solve records two).
    Trsm,
}

pub const KERNEL_COUNT: usize = 14;

impl Kernel {
    pub const ALL: [Kernel; KERNEL_COUNT] = [
        Kernel::Rand,
        Kernel::Gen,
        Kernel::BsrGemm,
        Kernel::Gemm,
        Kernel::Qr,
        Kernel::Id,
        Kernel::Transpose,
        Kernel::Shrink,
        Kernel::Marshal,
        Kernel::PrefixSum,
        Kernel::Gemv,
        Kernel::Pack,
        Kernel::Lu,
        Kernel::Trsm,
    ];

    fn index(self) -> usize {
        match self {
            Kernel::Rand => 0,
            Kernel::Gen => 1,
            Kernel::BsrGemm => 2,
            Kernel::Gemm => 3,
            Kernel::Qr => 4,
            Kernel::Id => 5,
            Kernel::Transpose => 6,
            Kernel::Shrink => 7,
            Kernel::Marshal => 8,
            Kernel::PrefixSum => 9,
            Kernel::Gemv => 10,
            Kernel::Pack => 11,
            Kernel::Lu => 12,
            Kernel::Trsm => 13,
        }
    }

    /// Whether this kernel is a batched *device launch* (the unit of the
    /// §IV.B O(L·Csp) analysis). [`Kernel::Gemv`] and [`Kernel::Pack`]
    /// count individual dense-layer calls instead — useful for the Fig. 7
    /// structure, meaningless against the launch budget.
    pub fn device_launch(self) -> bool {
        !matches!(self, Kernel::Gemv | Kernel::Pack)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Rand => "batchedRand",
            Kernel::Gen => "batchedGen",
            Kernel::BsrGemm => "batchedBSRGemm",
            Kernel::Gemm => "batchedGemm",
            Kernel::Qr => "batchedQR",
            Kernel::Id => "batchedID",
            Kernel::Transpose => "batchedTranspose",
            Kernel::Shrink => "batchedShrink",
            Kernel::Marshal => "marshal",
            Kernel::PrefixSum => "prefixSum",
            Kernel::Gemv => "gemv",
            Kernel::Pack => "gemmPack",
            Kernel::Lu => "batchedGETRF",
            Kernel::Trsm => "batchedTRSM",
        }
    }
}

/// Construction phases matching the Fig. 7 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Black-box sampling `Y = K Ω` (time spent in `Kblk`).
    Sampling,
    /// Random block generation.
    Rand,
    /// BSR products subtracting dense/coupling contributions.
    BsrGemm,
    /// Dense and coupling entry generation.
    EntryGen,
    /// Convergence test (batched QR + diagonal inspection).
    ConvergenceTest,
    /// Interpolative decompositions.
    Id,
    /// Sample/ Ω upsweep (shrink + GEMM).
    Upsweep,
    /// Power iteration for the `‖K‖₂` estimate behind the relative
    /// threshold (§III.B): `2·iters + 1` single-vector sampler products.
    NormEst,
    /// Marshaling, workspace allocation, bookkeeping.
    Misc,
}

pub const PHASE_COUNT: usize = 9;

impl Phase {
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Sampling,
        Phase::Rand,
        Phase::BsrGemm,
        Phase::EntryGen,
        Phase::ConvergenceTest,
        Phase::Id,
        Phase::Upsweep,
        Phase::NormEst,
        Phase::Misc,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Sampling => 0,
            Phase::Rand => 1,
            Phase::BsrGemm => 2,
            Phase::EntryGen => 3,
            Phase::ConvergenceTest => 4,
            Phase::Id => 5,
            Phase::Upsweep => 6,
            Phase::NormEst => 7,
            Phase::Misc => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Sampling => "sampling",
            Phase::Rand => "rand",
            Phase::BsrGemm => "bsr_gemm",
            Phase::EntryGen => "entry_gen",
            Phase::ConvergenceTest => "convergence_test",
            Phase::Id => "id",
            Phase::Upsweep => "upsweep",
            Phase::NormEst => "norm_est",
            Phase::Misc => "misc",
        }
    }
}

/// Thread-safe accumulator for launches, phase times and packing traffic.
#[derive(Default)]
pub struct Profile {
    launches: [AtomicUsize; KERNEL_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    /// Bytes staged through the blocked-GEMM packing buffers (the
    /// [`Kernel::Pack`] traffic; launches count invocations, this counts
    /// the moved data).
    pack_bytes: AtomicU64,
    /// Exclusive handle on the process-wide dense counters
    /// ([`h2_dense::gemm::stats`]). Held by at most one profile in the
    /// process: acquiring it discards pre-existing counts, and only the
    /// holder's [`Profile::drain_dense_stats`] resets the counters — so
    /// two concurrent profiles can never steal each other's pack/gemv
    /// counts (the non-holder simply records none).
    dense_claim: Mutex<Option<StatsClaim>>,
}

impl Profile {
    pub fn new() -> Self {
        let p = Self::default();
        // Claim the process-wide dense counters if no other live profile
        // holds them; claiming discards whatever accumulated before this
        // profile existed (e.g. a dense reference build ahead of the
        // profiled construction), so the first drain only sees work
        // performed during this profile's lifetime.
        p.try_claim_dense_stats();
        p
    }

    /// Try to acquire the exclusive dense-counter handle (a later retry
    /// for a profile constructed while another held it). Returns whether
    /// this profile now holds the claim.
    pub fn try_claim_dense_stats(&self) -> bool {
        let mut guard = self.dense_claim.lock().unwrap();
        if guard.is_none() {
            *guard = h2_dense::gemm::stats::claim();
        }
        guard.is_some()
    }

    /// Whether this profile holds the exclusive dense-counter handle (and
    /// therefore attributes pack/gemv counts).
    pub fn has_dense_claim(&self) -> bool {
        self.dense_claim.lock().unwrap().is_some()
    }

    /// Credit `bytes` of blocked-GEMM packing traffic.
    pub fn record_pack_bytes(&self, bytes: u64) {
        self.pack_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total bytes staged through packing buffers.
    pub fn pack_bytes(&self) -> u64 {
        self.pack_bytes.load(Ordering::Relaxed)
    }

    /// Drain the process-wide dense-kernel counters
    /// ([`h2_dense::gemm::stats`]) into this profile: packed-GEMM
    /// invocations become [`Kernel::Pack`] launches, `gemv` calls become
    /// [`Kernel::Gemv`] launches, and the staged bytes accumulate in
    /// [`Profile::pack_bytes`]. Called at every phase boundary by
    /// `Runtime::phase`, so the Fig. 7 breakdown sees the blocked kernel
    /// structure without the dense crate knowing about profiles.
    ///
    /// Draining requires the exclusive [`StatsClaim`]; a profile that
    /// failed to claim (another profile was live first) records nothing
    /// here instead of stealing the holder's counts.
    pub fn drain_dense_stats(&self) {
        let guard = self.dense_claim.lock().unwrap();
        let Some(claim) = guard.as_ref() else {
            return;
        };
        let s = claim.take();
        if s.pack_calls > 0 {
            self.launches[Kernel::Pack.index()].fetch_add(s.pack_calls as usize, Ordering::Relaxed);
        }
        if s.gemv_calls > 0 {
            self.launches[Kernel::Gemv.index()].fetch_add(s.gemv_calls as usize, Ordering::Relaxed);
        }
        if s.pack_bytes > 0 {
            self.record_pack_bytes(s.pack_bytes);
        }
    }

    pub fn record_launch(&self, k: Kernel) {
        self.launches[k.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_launches(&self, k: Kernel, n: usize) {
        self.launches[k.index()].fetch_add(n, Ordering::Relaxed);
    }

    pub fn launches(&self, k: Kernel) -> usize {
        self.launches[k.index()].load(Ordering::Relaxed)
    }

    /// Total *batched device* launches — the §IV.B O(L·Csp) currency.
    /// [`Kernel::Gemv`] and [`Kernel::Pack`] are per-call counters of the
    /// dense layer (one per CPU kernel invocation, so O(batch entries), not
    /// O(levels)) and are deliberately excluded.
    pub fn total_launches(&self) -> usize {
        Kernel::ALL
            .iter()
            .filter(|k| k.device_launch())
            .map(|&k| self.launches(k))
            .sum()
    }

    pub fn add_phase(&self, p: Phase, d: Duration) {
        self.phase_nanos[p.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn phase_time(&self, p: Phase) -> Duration {
        Duration::from_nanos(self.phase_nanos[p.index()].load(Ordering::Relaxed))
    }

    pub fn total_phase_time(&self) -> Duration {
        Phase::ALL.iter().map(|&p| self.phase_time(p)).sum()
    }

    /// Time a closure, attributing the elapsed wall time to `p`.
    pub fn time<R>(&self, p: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add_phase(p, t0.elapsed());
        r
    }

    pub fn reset(&self) {
        for a in &self.launches {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.phase_nanos {
            a.store(0, Ordering::Relaxed);
        }
        self.pack_bytes.store(0, Ordering::Relaxed);
        // Pending dense-layer counts belong to the discarded measurements
        // (only the claim holder may reset the process-wide counters).
        if let Some(claim) = self.dense_claim.lock().unwrap().as_ref() {
            let _ = claim.take();
        }
    }

    /// Per-phase percentages of the total (Fig. 7 rows).
    pub fn phase_percentages(&self) -> Vec<(Phase, f64)> {
        let total = self.total_phase_time().as_secs_f64();
        Phase::ALL
            .iter()
            .map(|&p| {
                let t = self.phase_time(p).as_secs_f64();
                (p, if total > 0.0 { 100.0 * t / total } else { 0.0 })
            })
            .collect()
    }

    /// Summary of launch counts keyed by kernel name.
    pub fn launch_summary(&self) -> Vec<(&'static str, usize)> {
        Kernel::ALL
            .iter()
            .map(|&k| (k.name(), self.launches(k)))
            .collect()
    }

    /// Export every profile counter into a metrics registry under the
    /// `profile.` namespace: `profile.launches.<kernel>` counters (plus
    /// the `profile.launches.total` device-launch budget),
    /// `profile.phase_ns.<phase>` counters, and `profile.pack_bytes`.
    /// Counters are exact u64 sums, so
    /// `registry.counter_value("profile.pack_bytes") == profile.pack_bytes()`
    /// is an equality the observability tests assert.
    pub fn export_metrics(&self, registry: &h2_obs::Registry) {
        for &k in Kernel::ALL.iter() {
            let n = self.launches(k);
            if n > 0 {
                registry
                    .counter(&format!("profile.launches.{}", k.name()))
                    .add(n as u64);
            }
        }
        registry
            .counter("profile.launches.total")
            .add(self.total_launches() as u64);
        for &p in Phase::ALL.iter() {
            let ns = self.phase_time(p).as_nanos() as u64;
            if ns > 0 {
                registry
                    .counter(&format!("profile.phase_ns.{}", p.name()))
                    .add(ns);
            }
        }
        registry
            .counter("profile.pack_bytes")
            .add(self.pack_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launches_accumulate() {
        let p = Profile::new();
        p.record_launch(Kernel::Gemm);
        p.record_launches(Kernel::Gemm, 2);
        p.record_launch(Kernel::Qr);
        assert_eq!(p.launches(Kernel::Gemm), 3);
        assert_eq!(p.launches(Kernel::Qr), 1);
        assert_eq!(p.total_launches(), 4);
    }

    #[test]
    fn phase_timer_accumulates() {
        let p = Profile::new();
        p.time(Phase::Id, || std::thread::sleep(Duration::from_millis(5)));
        p.time(Phase::Id, || std::thread::sleep(Duration::from_millis(5)));
        assert!(p.phase_time(Phase::Id) >= Duration::from_millis(9));
        assert_eq!(p.phase_time(Phase::Sampling), Duration::ZERO);
    }

    #[test]
    fn percentages_sum_to_100() {
        let p = Profile::new();
        p.add_phase(Phase::Sampling, Duration::from_millis(30));
        p.add_phase(Phase::Id, Duration::from_millis(70));
        let total: f64 = p.phase_percentages().iter().map(|(_, v)| v).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let p = Profile::new();
        p.record_launch(Kernel::Rand);
        p.add_phase(Phase::Misc, Duration::from_millis(1));
        p.reset();
        assert_eq!(p.total_launches(), 0);
        assert_eq!(p.total_phase_time(), Duration::ZERO);
    }
}

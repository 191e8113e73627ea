//! # h2-fault
//!
//! Deterministic fault injection and bounded recovery for the virtual
//! device fabric (`h2_sched::DeviceFabric`) and the construction level
//! loop (`h2_core::construct`).
//!
//! A fault-free fabric assumes a perfect machine: every `Transfer` is
//! serviced, every prefetch ticket completes, every device survives the
//! run, and every kernel output is finite. This crate is the resilience
//! layer that drops those assumptions *without giving up the trust
//! invariant* — measured bytes (now including retry traffic) stay exactly
//! equal to the plan's bytes plus the replayed retries, and faulted runs
//! stay bit-identical to fault-free ones.
//!
//! ## Fault taxonomy
//!
//! A [`FaultPlan`] can inject five kinds of fault, each at a named site in
//! the executor:
//!
//! | kind | site | detection | recovery |
//! |---|---|---|---|
//! | [`FaultKind::TransferDrop`] | copy engine / inline transfer service | ticket deadline ([`FabricError::TransferTimeout`] when no plan bounds the retry) | re-issue the transfer after exponential backoff; bytes re-charged |
//! | [`FaultKind::TransferCorrupt`] | arena landing | per-transfer checksum ([`checksum`] over the payload) | re-issue after backoff; bytes re-charged |
//! | [`FaultKind::DelaySpike`] | copy engine service time | none needed (slow, not wrong) | absorbed by the flight-time account |
//! | [`FaultKind::DeviceFailStop`] | epoch close `k` | worker stops accepting work | surviving devices adopt the lost shard's nodes via the reshard map (`ShardDispatch::reshard_version`); sealed level checkpoints bound the rework |
//! | [`FaultKind::KernelPoison`] | `rand_mat` / `batchedGen` output | finite scan at the producing kernel | deterministic recompute of the poisoned columns/blocks |
//!
//! ## Determinism contract
//!
//! Every fault decision is a **pure function** of three values: the plan's
//! single `u64` seed, a *site fingerprint* (for transfers,
//! [`transfer_fingerprint`] over the transfer's `(kind, src, dst, bytes,
//! wire-precision)` descriptor), and the fingerprint's *occurrence index*
//! (how many transfers with that exact fingerprint were issued before this
//! one, tracked by an [`OccurrenceMap`]). Nothing depends on wall-clock
//! time, thread interleaving, or issue order across distinct fingerprints.
//! Because the fabric issues a deterministic *multiset* of transfers for a
//! given schedule (pinned by the equivalence tests), the multiset of
//! `(fingerprint, occurrence)` pairs — and therefore the multiset of
//! injected faults and charged retries — is identical between the
//! synchronous and pipelined executors *and* reproducible from the
//! transfer list of the run's plan (`h2_core::plan_construct`, replayed by
//! `h2_sched::ExecReport::check`, which expects each charged retry right
//! after its parent transfer). That is what lets the plan predict a
//! faulted run's transfer records exactly.
//!
//! ## Recovery invariants
//!
//! 1. **Bounded**: an attempt sequence for one transfer fails at most
//!    [`FaultPlan::max_retries`] times — the final attempt always succeeds
//!    — so recovery cost per site is bounded and enumerable in advance.
//! 2. **Charged**: every failed attempt re-ships the transfer's bytes and
//!    pays detection latency (deadline or checksum) plus exponential
//!    backoff; all of it lands in the same epoch accounts as first-try
//!    traffic, so `ExecReport::total_comm_bytes` needs no special cases.
//! 3. **Bit-identical**: recovery never changes *values*. Poisoned kernel
//!    outputs are recomputed from the same per-column/per-block seeds;
//!    a resharded run executes the same job closures over the same host
//!    data on a different worker thread; retried transfers move descriptor
//!    bytes, not numerics. A chaos sweep therefore reproduces the
//!    fault-free result exactly (`sched/tests/faults.rs`).

use std::fmt;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Seed mixing
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: the diffusion primitive behind every fault
/// decision. Good avalanche, no state — ideal for counter-based
/// (site, occurrence)-keyed draws, the CPU analogue of cuRAND's
/// counter-based generators already used by `rand_mat`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine two words into one well-mixed word (order-sensitive).
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// Map a mixed word onto `[0, 1)` with 53 bits of precision.
fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fingerprint of a transfer descriptor: the fault site identity for
/// everything the copy engine services. Two transfers with the same kind,
/// endpoints, byte count, and wire precision share a fingerprint and are
/// distinguished by their occurrence index.
pub fn transfer_fingerprint(kind: u8, src: u64, dst: u64, bytes: u64, prec_bytes: u8) -> u64 {
    let mut h = splitmix64(0xFA17_5EED ^ kind as u64);
    h = mix(h, src);
    h = mix(h, dst);
    h = mix(h, bytes);
    mix(h, prec_bytes as u64)
}

/// Fingerprint of a kernel-output poison site (`salt` names the kernel,
/// `a`/`b` the entry coordinates — e.g. column index, block index).
pub fn poison_site(salt: u64, a: u64, b: u64) -> u64 {
    mix(mix(splitmix64(0x0150_0150 ^ salt), a), b)
}

// ---------------------------------------------------------------------------
// Fault kinds and plans
// ---------------------------------------------------------------------------

/// The injectable fault taxonomy (see the module docs for the site /
/// detection / recovery triple of each kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A transfer attempt is silently lost; detected at its ticket deadline.
    TransferDrop,
    /// A transfer attempt lands with a flipped payload bit; detected by the
    /// checksum verified at arena landing.
    TransferCorrupt,
    /// The copy engine services an attempt pathologically slowly.
    DelaySpike,
    /// A device stops accepting work after epoch `k` closes.
    DeviceFailStop,
    /// A kernel writes NaN/Inf into part of its output.
    KernelPoison,
}

impl FaultKind {
    /// Stable lowercase name used in traces and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransferDrop => "transfer-drop",
            FaultKind::TransferCorrupt => "transfer-corrupt",
            FaultKind::DelaySpike => "delay-spike",
            FaultKind::DeviceFailStop => "device-fail-stop",
            FaultKind::KernelPoison => "kernel-poison",
        }
    }

    /// All kinds, in taxonomy order — the chaos sweep iterates this.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::TransferDrop,
        FaultKind::TransferCorrupt,
        FaultKind::DelaySpike,
        FaultKind::DeviceFailStop,
        FaultKind::KernelPoison,
    ];
}

/// A scheduled device fail-stop: logical `device` stops accepting work
/// once epoch index `epoch` closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailStop {
    /// Logical device index that dies.
    pub device: usize,
    /// Epoch index after whose close the device is lost.
    pub epoch: usize,
}

/// A deterministic seeded fault-injection plan.
///
/// All rates are per-attempt probabilities evaluated by pure seeded draws
/// (see the module-level determinism contract); durations parameterize the
/// *modeled* latency cost of detection and backoff, charged to the same
/// virtual-time accounts as ordinary transfer flight.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The single seed every decision derives from.
    pub seed: u64,
    /// Per-attempt probability that a transfer is silently dropped.
    pub drop_rate: f64,
    /// Per-attempt probability that a transfer lands corrupted.
    pub corrupt_rate: f64,
    /// Per-transfer probability of a copy-engine delay spike.
    pub spike_rate: f64,
    /// Duration of one delay spike.
    pub spike: Duration,
    /// Scheduled device loss, if any.
    pub fail_stop: Option<FailStop>,
    /// Per-site probability that a kernel output is poisoned.
    pub poison_rate: f64,
    /// Maximum failed attempts per transfer; attempt `max_retries` always
    /// succeeds, bounding recovery.
    pub max_retries: u32,
    /// Base of the exponential backoff: retry `a` waits `base * 2^a`.
    pub backoff_base: Duration,
    /// Modeled deadline after which a dropped attempt is detected.
    pub detect_timeout: Duration,
}

const SALT_DROP: u64 = 0xD80D_D80D;
const SALT_CORRUPT: u64 = 0xC0DE_C0DE;
const SALT_SPIKE: u64 = 0x5B1C_E5B1;
const SALT_POISON: u64 = 0xBAD0_F00D;

impl FaultPlan {
    /// A quiescent plan (all rates zero) with sane recovery parameters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::from_micros(300),
            fail_stop: None,
            poison_rate: 0.0,
            max_retries: 4,
            backoff_base: Duration::from_micros(20),
            detect_timeout: Duration::from_micros(100),
        }
    }

    /// Set the per-attempt transfer-drop rate.
    pub fn with_drops(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Set the per-attempt transfer-corruption rate.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Set the per-transfer delay-spike rate.
    pub fn with_spikes(mut self, rate: f64) -> Self {
        self.spike_rate = rate;
        self
    }

    /// Schedule a device fail-stop after epoch `epoch` closes.
    pub fn with_fail_stop(mut self, device: usize, epoch: usize) -> Self {
        self.fail_stop = Some(FailStop { device, epoch });
        self
    }

    /// Set the kernel-output poison rate.
    pub fn with_poison(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }

    /// Set the retry bound.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// The canonical single-kind chaos plan used by the sweep grid: one
    /// fault kind at a rate high enough to fire on small problems, all
    /// other kinds quiet.
    pub fn chaos(seed: u64, kind: FaultKind) -> Self {
        let p = Self::new(seed);
        match kind {
            FaultKind::TransferDrop => p.with_drops(0.2),
            FaultKind::TransferCorrupt => p.with_corruption(0.2),
            FaultKind::DelaySpike => p.with_spikes(0.3),
            FaultKind::DeviceFailStop => p.with_fail_stop(1, 0),
            FaultKind::KernelPoison => p.with_poison(0.15),
        }
    }

    /// Whether any fault kind can fire under this plan.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.spike_rate > 0.0
            || self.fail_stop.is_some()
            || self.poison_rate > 0.0
    }

    fn unit(&self, salt: u64, fp: u64, occ: u32, attempt: u32) -> f64 {
        let h = mix(
            self.seed ^ salt,
            mix(fp, ((occ as u64) << 32) | attempt as u64),
        );
        to_unit(h)
    }

    /// Does attempt `attempt` (0 = the original issue) of occurrence `occ`
    /// of transfer site `fp` fail, and how? Attempt `max_retries` always
    /// succeeds — the bounded-recovery guarantee.
    pub fn attempt_failure(&self, fp: u64, occ: u32, attempt: u32) -> Option<FaultKind> {
        if attempt >= self.max_retries {
            return None;
        }
        if self.drop_rate > 0.0 && self.unit(SALT_DROP, fp, occ, attempt) < self.drop_rate {
            return Some(FaultKind::TransferDrop);
        }
        if self.corrupt_rate > 0.0 && self.unit(SALT_CORRUPT, fp, occ, attempt) < self.corrupt_rate
        {
            return Some(FaultKind::TransferCorrupt);
        }
        None
    }

    /// Number of failed attempts (= retries charged) for `(fp, occ)`.
    pub fn failed_attempts(&self, fp: u64, occ: u32) -> u32 {
        let mut a = 0;
        while self.attempt_failure(fp, occ, a).is_some() {
            a += 1;
        }
        a
    }

    /// Extra bytes the retries of `(fp, occ)` re-ship for a transfer of
    /// `bytes` — what the plan replay charges for that occurrence.
    pub fn retry_bytes(&self, fp: u64, occ: u32, bytes: u64) -> u64 {
        self.failed_attempts(fp, occ) as u64 * bytes
    }

    /// Copy-engine delay spike for `(fp, occ)`, if one fires.
    pub fn delay_spike(&self, fp: u64, occ: u32) -> Option<Duration> {
        (self.spike_rate > 0.0 && self.unit(SALT_SPIKE, fp, occ, 0) < self.spike_rate)
            .then_some(self.spike)
    }

    /// Exponential backoff before retrying after failed attempt `attempt`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_base * 2u32.saturating_pow(attempt.min(16))
    }

    /// Does occurrence `occ` of kernel-output site `site` get poisoned?
    pub fn poison_hit(&self, site: u64, occ: u32) -> bool {
        self.poison_rate > 0.0 && self.unit(SALT_POISON, site, occ, 0) < self.poison_rate
    }
}

// ---------------------------------------------------------------------------
// Occurrence tracking
// ---------------------------------------------------------------------------

/// Per-fingerprint occurrence counters — the replay clock of the
/// determinism contract. The executor and the plan replay each walk their
/// transfer multiset through one of these; identical multisets give
/// identical `(fingerprint, occurrence)` streams.
#[derive(Debug, Default)]
pub struct OccurrenceMap {
    counts: std::collections::HashMap<u64, u32>,
}

impl OccurrenceMap {
    /// Fresh map with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the occurrence index for the next event at `fp` and advance.
    pub fn next(&mut self, fp: u64) -> u32 {
        let c = self.counts.entry(fp).or_insert(0);
        let occ = *c;
        *c += 1;
        occ
    }

    /// Reset all counters.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// Fletcher-style 64-bit checksum over a byte payload — the per-transfer
/// integrity check verified at arena landing.
pub fn checksum(data: &[u8]) -> u64 {
    let (mut a, mut b) = (1u64, 0u64);
    for chunk in data.chunks(4) {
        let mut w = 0u64;
        for (i, &byte) in chunk.iter().enumerate() {
            w |= (byte as u64) << (8 * i);
        }
        a = (a + w) % 0xFFFF_FFFB;
        b = (b + a) % 0xFFFF_FFFB;
    }
    (b << 32) | a
}

/// The fabric moves descriptors, not payloads, so corruption detection is
/// exercised on a synthetic 64-byte payload derived from the transfer
/// fingerprint — deterministic, and enough to prove the checksum catches
/// every injected bit flip.
pub fn synthetic_payload(fp: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut h = fp;
    for word in out.chunks_mut(8) {
        h = splitmix64(h);
        word.copy_from_slice(&h.to_le_bytes());
    }
    out
}

/// Flip one payload bit chosen deterministically from `fp`.
pub fn corrupt_bit(buf: &mut [u8], fp: u64) {
    if buf.is_empty() {
        return;
    }
    let bit = (splitmix64(fp ^ 0xF11B) as usize) % (buf.len() * 8);
    buf[bit / 8] ^= 1 << (bit % 8);
}

/// Emulate one arena landing of transfer site `fp`: rebuild the payload,
/// optionally corrupt it, and return whether the checksum verifies.
pub fn verify_landing(fp: u64, corrupted: bool) -> bool {
    let good = synthetic_payload(fp);
    let want = checksum(&good);
    if !corrupted {
        return checksum(&good) == want;
    }
    let mut bad = good;
    corrupt_bit(&mut bad, fp);
    checksum(&bad) == want
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed fabric failure surfaced when detection fires but recovery is not
/// possible (no plan to bound retries, or a genuinely hung ticket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// A ticket missed its deadline — a silent hang turned into a type.
    TransferTimeout {
        /// The incomplete ticket.
        ticket: u64,
        /// How long the waiter had been blocked, in nanoseconds.
        waited_nanos: u64,
    },
    /// A device fail-stopped and its shard was adopted by survivors.
    DeviceLost {
        /// The lost logical device.
        device: usize,
        /// The epoch index after which it was lost.
        epoch: usize,
    },
    /// A queued job panicked on its worker thread.
    JobPanic {
        /// The logical device whose job panicked.
        device: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::TransferTimeout {
                ticket,
                waited_nanos,
            } => write!(
                f,
                "transfer timeout: ticket {ticket} incomplete after {waited_nanos} ns"
            ),
            FabricError::DeviceLost { device, epoch } => {
                write!(f, "device {device} lost after epoch {epoch}")
            }
            FabricError::JobPanic { device } => write!(f, "job panicked on device {device}"),
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seeded() {
        let p = FaultPlan::new(42).with_drops(0.3).with_corruption(0.1);
        let fp = transfer_fingerprint(0, 1, 2, 4096, 8);
        for occ in 0..16 {
            assert_eq!(p.failed_attempts(fp, occ), p.failed_attempts(fp, occ));
        }
        let q = FaultPlan::new(43).with_drops(0.3).with_corruption(0.1);
        let differs = (0..64).any(|occ| p.failed_attempts(fp, occ) != q.failed_attempts(fp, occ));
        assert!(differs, "different seeds must give different fault streams");
    }

    #[test]
    fn retries_are_bounded() {
        // Even at rate 1.0 the attempt sequence succeeds at max_retries.
        let p = FaultPlan::new(7).with_drops(1.0).with_max_retries(3);
        let fp = transfer_fingerprint(1, 0, 3, 128, 4);
        for occ in 0..8 {
            assert_eq!(p.failed_attempts(fp, occ), 3);
            assert_eq!(p.attempt_failure(fp, occ, 3), None);
        }
        assert_eq!(p.retry_bytes(fp, 0, 100), 300);
    }

    #[test]
    fn rates_land_in_expected_band() {
        let p = FaultPlan::new(11).with_drops(0.25);
        let mut hits = 0;
        for i in 0..4000u64 {
            let fp = transfer_fingerprint(0, i % 4, (i + 1) % 4, 1000 + i, 8);
            if p.attempt_failure(fp, 0, 0).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / 4000.0;
        assert!((0.2..0.3).contains(&rate), "empirical drop rate {rate}");
    }

    #[test]
    fn checksum_catches_every_injected_flip() {
        for i in 0..256u64 {
            let fp = splitmix64(i);
            assert!(verify_landing(fp, false), "clean landing must verify");
            assert!(!verify_landing(fp, true), "corrupt landing must not");
        }
    }

    #[test]
    fn occurrence_map_advances_and_clears() {
        let mut m = OccurrenceMap::new();
        assert_eq!(m.next(5), 0);
        assert_eq!(m.next(5), 1);
        assert_eq!(m.next(5), 2);
        assert_eq!(m.next(9), 0);
        m.clear();
        assert_eq!(m.next(5), 0);
    }

    #[test]
    fn backoff_is_exponential() {
        let p = FaultPlan::new(0);
        assert_eq!(p.backoff(1), 2 * p.backoff(0));
        assert_eq!(p.backoff(3), 8 * p.backoff(0));
    }

    #[test]
    fn chaos_presets_activate_exactly_one_kind() {
        for kind in FaultKind::ALL {
            let p = FaultPlan::chaos(1, kind);
            assert!(p.is_active(), "{} preset inactive", kind.name());
        }
        assert!(!FaultPlan::new(1).is_active());
    }
}

//! Offline drop-in subset of the `rand` 0.9 API.
//!
//! No network access to crates.io is available in this build environment,
//! so the workspace vendors the tiny slice of `rand` it uses: a seedable
//! small RNG (`SmallRng`, here SplitMix64 — statistically solid for test
//! and sketching purposes, 64-bit state, trivially seedable), `random::<T>()`
//! for `f64`/`bool`/integers and `random_range` over integer ranges.
//! Determinism per seed is the property the workspace relies on.

pub mod rngs {
    /// A small, fast, seedable RNG (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        pub(crate) state: u64,
    }
}

use rngs::SmallRng;

/// Seeding interface (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    /// The state *is* the seed, and every draw advances it by the fixed
    /// SplitMix64 stride `0x9E37_79B9_7F4A_7C15`. Two seeds that differ by
    /// `k` strides therefore give the same stream shifted by `k` draws.
    /// Callers deriving many streams from one base seed (one per column,
    /// say) must hash the pair rather than add or XOR a multiple of the
    /// stride: for small seeds an XOR acts like an addition.
    fn seed_from_u64(seed: u64) -> Self {
        SmallRng { state: seed }
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Values samplable from uniform bits (subset of rand's standard
/// distribution).
pub trait Standard: Sized {
    fn from_bits(bits: u64) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn from_bits(bits: u64) -> f64 {
        // 53 uniform mantissa bits -> [0, 1).
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn from_bits(bits: u64) -> f32 {
        (bits >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn from_bits(bits: u64) -> bool {
        bits >> 63 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl Standard for u32 {
    #[inline]
    fn from_bits(bits: u64) -> u32 {
        (bits >> 32) as u32
    }
}

impl Standard for usize {
    #[inline]
    fn from_bits(bits: u64) -> usize {
        bits as usize
    }
}

/// Ranges usable with [`Rng::random_range`].
pub trait SampleRange {
    type Output;
    fn sample_from(self, next: &mut dyn FnMut() -> u64) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from(self, next: &mut dyn FnMut() -> u64) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let span = (self.end - self.start) as u64;
                self.start + (next() % span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, next: &mut dyn FnMut() -> u64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty random_range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width range: any value.
                    return lo.wrapping_add(next() as $t);
                }
                lo + (next() % span) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, u16, u8);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from(self, next: &mut dyn FnMut() -> u64) -> f64 {
        self.start + f64::from_bits_uniform(next()) * (self.end - self.start)
    }
}

trait F64Uniform {
    fn from_bits_uniform(bits: u64) -> f64;
}

impl F64Uniform for f64 {
    #[inline]
    fn from_bits_uniform(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Random-value interface (subset of `rand::Rng`).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_bits(self.next_u64())
    }

    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        let mut next = || self.next_u64();
        range.sample_from(&mut next)
    }
}

impl Rng for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_sampling_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.random_range(5usize..17);
            assert!((5..17).contains(&v));
        }
    }
}

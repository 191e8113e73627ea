//! The round-robin sampler and its estimators.
//!
//! A run executes *cycles*; every cycle runs every section once, in a fixed
//! order, so each section's samples are spread over the whole measurement
//! window instead of being bunched at one moment. Every call is one sample
//! and the reported time of a section is the **minimum** over its samples:
//! on this container the machine's speed wanders between levels with dwell
//! times of seconds to tens of seconds (a packed GEMM loop drifts
//! 42 → 31 GF/s), so a median follows whichever level the window happened
//! to spend more time in, while the minimum only needs one undisturbed
//! sample. `min_survives_speed_drift_median_does_not` pins that reasoning
//! in a test.

use std::time::{Duration, Instant};

/// A section shorter than `SINGLE_CALL_S` is called several times a cycle,
/// the number fixed once at warm-up, to fill about this long.
pub const BATCH_TARGET_S: f64 = 0.1;
/// A section whose call takes this long runs once a cycle. A shorter one
/// runs at least twice: its first call of a cycle finds its data cold (the
/// sections before it used the cache) and costs up to half again as much,
/// so a section that got one call in one run and two in the next would
/// report a cold time here and a warm time there. No section of the three
/// workloads is within a quarter of this mark.
pub const SINGLE_CALL_S: f64 = 0.25;

/// Calls per cycle for a section whose single call took `single_call_s` at
/// warm-up.
pub fn batch_calls(single_call_s: f64) -> usize {
    if single_call_s >= SINGLE_CALL_S {
        return 1;
    }
    let calls = (BATCH_TARGET_S / single_call_s.max(1e-9)).round();
    (calls as usize).clamp(2, 1_000_000)
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the driver holds against a metric's bound. Quartiles as
/// Python's `statistics.quantiles(xs, n=4)` gives them (positions
/// `(n + 1) / 4` and `3 (n + 1) / 4`, interpolated); under four values,
/// the range over the median.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 4 {
        return (max(&v) - min(&v)) / median(&v);
    }
    let quartile = |k: usize| {
        let at = (k * (n + 1)) as f64 / 4.0;
        let below = (at.floor() as usize).clamp(1, n - 1);
        v[below - 1] + (at - below as f64) * (v[below] - v[below - 1])
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Samples of one section, in seconds per call.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Calls per cycle, fixed at warm-up.
    pub calls: usize,
    /// Calls per sample: 1, or all of a cycle's calls for a probe.
    pub per_sample: usize,
    pub samples: Vec<f64>,
}

impl Series {
    pub fn min(&self) -> f64 {
        min(&self.samples)
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    pub fn max(&self) -> f64 {
        max(&self.samples)
    }
}

/// Runs sections in the order the caller's cycle visits them and decides
/// when the run has measured enough.
pub struct Sampler {
    window: Duration,
    min_samples: usize,
    /// `None` during the warm-up cycle, which sizes batches and records
    /// nothing.
    started: Option<Instant>,
    series: Vec<(&'static str, Series)>,
}

impl Sampler {
    pub fn new(window_s: f64, min_samples: usize) -> Self {
        Sampler {
            window: Duration::from_secs_f64(window_s),
            min_samples,
            started: None,
            series: Vec::new(),
        }
    }

    fn slot(&mut self, name: &'static str) -> &mut Series {
        let at = match self.series.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.series.push((name, Series::default()));
                self.series.len() - 1
            }
        };
        &mut self.series[at].1
    }

    /// Run one section and return the result of its last call. During
    /// warm-up the single call is timed only to size the batch; afterwards
    /// every call is timed on its own and is one sample, so a disturbance
    /// spoils one call, not the batch. The previous call's result is
    /// dropped before the clock starts: no sample includes freeing it, and
    /// two results are never alive together. With `split` false the cycle's
    /// calls make one sample, their mean: for a probe whose reading should
    /// describe the cycle.
    pub fn run<R>(&mut self, name: &'static str, split: bool, mut f: impl FnMut() -> R) -> R {
        if self.started.is_none() {
            let t0 = Instant::now();
            let out = f();
            let single = t0.elapsed().as_secs_f64();
            let slot = self.slot(name);
            slot.calls = batch_calls(single);
            slot.per_sample = if split { 1 } else { slot.calls };
            return out;
        }
        let calls = self.slot(name).calls.max(1);
        let mut out = None;
        let mut total = 0.0;
        for _ in 0..calls {
            drop(out.take());
            let t0 = Instant::now();
            out = Some(f());
            let took = t0.elapsed().as_secs_f64();
            if split {
                self.slot(name).samples.push(took);
            }
            total += took;
        }
        if !split {
            self.slot(name).samples.push(total / calls as f64);
        }
        out.expect("a section makes at least one call")
    }

    /// Record a time the caller measured inside a section (a sub-step of
    /// set-up, say). Ignored during warm-up, like every other sample.
    pub fn record(&mut self, name: &'static str, seconds: f64) {
        if self.started.is_some() {
            let s = self.slot(name);
            (s.calls, s.per_sample) = (1, 1);
            s.samples.push(seconds);
        }
    }

    /// End the warm-up cycle and open the measurement window.
    pub fn open_window(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Another cycle is needed until the window has elapsed *and* every
    /// section has its minimum number of samples.
    pub fn needs_another_cycle(&self) -> bool {
        let Some(t0) = self.started else { return true };
        t0.elapsed() < self.window
            || self
                .series
                .iter()
                .any(|(_, s)| s.samples.len() < self.min_samples)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    pub fn get(&self, name: &str) -> &Series {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("section {name} was never run"))
    }

    pub fn sections(&self) -> impl Iterator<Item = (&'static str, &Series)> {
        self.series.iter().map(|(n, s)| (*n, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimators() {
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 10.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartile_spread_matches_the_drivers_definition() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert!((quartile_spread(&[8.0, 1.0, 4.0, 2.0]) - 5.75 / 3.0).abs() < 1e-12);
        // One slow run in ten moves no quartile; two move the third.
        let mut runs = [1.0; 10];
        runs[9] = 1.3;
        assert_eq!(quartile_spread(&runs), 0.0);
        runs[8] = 1.3;
        assert!((quartile_spread(&runs) - 0.075).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0, 3.0, 1.0]), 1.0, "range over median");
    }

    #[test]
    fn long_calls_run_once_and_short_ones_at_least_twice() {
        for t in [0.25, 0.4, 3.0] {
            assert_eq!(batch_calls(t), 1, "{t}");
        }
        // Up to the mark, however the warm-up call happened to read: two
        // calls, so one of them is warm.
        for t in [0.05, 0.07, 0.1, 0.13, 0.24] {
            assert_eq!(batch_calls(t), 2, "{t}");
        }
        assert_eq!(batch_calls(0.02), 5);
        for t in [1e-6, 3e-4, 0.011, 0.0399] {
            let filled = batch_calls(t) as f64 * t;
            assert!((filled - BATCH_TARGET_S).abs() <= 0.5 * t + 1e-12, "{t}");
        }
        assert_eq!(batch_calls(0.0), 1_000_000);
    }

    #[test]
    fn sampler_sizes_batches_at_warm_up_and_samples_round_robin() {
        let mut s = Sampler::new(0.0, 3);
        let (mut fast_calls, mut probe_calls) = (0, 0);
        let short = || std::thread::sleep(Duration::from_millis(2));
        s.run("fast", true, || {
            fast_calls += 1;
            short()
        });
        s.run("probe", false, || {
            probe_calls += 1;
            short()
        });
        s.run("slow", true, || {
            std::thread::sleep(Duration::from_millis(260))
        });
        s.record("inner", 1.0);
        assert_eq!(fast_calls, 1, "warm-up runs each section once");
        let per_cycle = s.get("fast").calls;
        assert!(per_cycle > 1, "{per_cycle}");
        assert_eq!(s.get("fast").per_sample, 1);
        assert_eq!(s.get("probe").per_sample, s.get("probe").calls);
        assert_eq!((s.get("slow").calls, s.get("slow").per_sample), (1, 1));
        assert!(s.get("fast").samples.is_empty(), "warm-up records nothing");
        assert!(s.needs_another_cycle());

        s.open_window();
        let mut cycles = 0;
        while s.needs_another_cycle() {
            s.run("fast", true, || fast_calls += 1);
            s.run("probe", false, || probe_calls += 1);
            s.run("slow", true, || {
                std::thread::sleep(Duration::from_millis(1))
            });
            s.record("inner", 0.5);
            cycles += 1;
        }
        assert_eq!(cycles, 3, "zero window: the sample floor decides");
        assert_eq!(fast_calls, 1 + 3 * per_cycle);
        assert_eq!(
            s.get("fast").samples.len(),
            3 * per_cycle,
            "a sample a call"
        );
        assert_eq!(probe_calls, 1 + 3 * s.get("probe").calls);
        assert_eq!(s.get("probe").samples.len(), 3, "one sample per cycle");
        let order: Vec<_> = s.sections().map(|(n, _)| n).collect();
        assert_eq!(order, ["fast", "probe", "slow", "inner"]);
        assert_eq!(s.get("inner").samples, [0.5, 0.5, 0.5]);
    }

    /// A sample is the call alone: the previous call's result is freed
    /// before the clock starts, and is gone before the next one exists.
    #[test]
    fn the_previous_result_is_dropped_outside_the_timed_call() {
        use std::cell::Cell;
        struct SlowToFree<'a>(&'a Cell<usize>);
        impl Drop for SlowToFree<'_> {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(60));
                self.0.set(self.0.get() - 1);
            }
        }
        let alive = Cell::new(0);
        let make = || {
            assert_eq!(alive.get(), 0, "two results alive at once");
            alive.set(alive.get() + 1);
            std::thread::sleep(Duration::from_millis(20));
            SlowToFree(&alive)
        };
        let mut s = Sampler::new(0.0, 1);
        drop(s.run("make", true, make));
        let calls = s.get("make").calls;
        assert!(calls >= 2, "{calls}");
        s.open_window();
        drop(s.run("make", true, make));
        let samples = &s.get("make").samples;
        assert_eq!(samples.len(), calls);
        assert!(
            max(samples) < 0.06,
            "a sample timed a 60 ms drop: {samples:?}"
        );
    }

    /// The machine this benchmark was written on switches between two
    /// speeds (42 and 31 GF/s on a packed GEMM) and stays 10–20 s in each.
    /// Replay that over six 40 s windows of round-robin cycles: the window
    /// minimum of a section repeats within 8 %, the window median does not.
    #[test]
    fn min_survives_speed_drift_median_does_not() {
        // splitmix64: deterministic dwell times and per-sample jitter.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };

        // Speed trace: (switch time, GF/s), alternating, 10–20 s dwell.
        let mut trace = Vec::new();
        let (mut t, mut fast) = (0.0, true);
        while t < 300.0 {
            trace.push((t, if fast { 42.0 } else { 31.0 }));
            t += 10.0 + 10.0 * unit();
            fast = !fast;
        }
        // Seconds a section of `gflop` work takes when started at `start`.
        let run = |start: f64, gflop: f64| {
            let (mut now, mut left) = (start, gflop);
            loop {
                let i = trace.iter().rposition(|&(at, _)| at <= now).unwrap();
                let speed = trace[i].1;
                let until = trace.get(i + 1).map_or(f64::INFINITY, |&(at, _)| at);
                if left / speed <= until - now {
                    return now + left / speed - start;
                }
                left -= (until - now) * speed;
                now = until;
            }
        };

        // One cycle: a construct-like section and a matvec-like batch.
        let sections = [("construct", 34.0), ("matvec64", 8.4)];
        let mut clock = 0.0;
        let mut window_min = vec![Vec::new(); sections.len()];
        let mut window_med = vec![Vec::new(); sections.len()];
        for _ in 0..6 {
            let opened = clock;
            let mut samples = vec![Vec::new(); sections.len()];
            while clock - opened < 40.0 || samples[0].len() < 8 {
                for (k, &(_, gflop)) in sections.iter().enumerate() {
                    // Disturbances only ever add time: up to +3 %.
                    let took = run(clock, gflop) * (1.0 + 0.03 * unit());
                    samples[k].push(took);
                    clock += took;
                }
            }
            for k in 0..sections.len() {
                window_min[k].push(min(&samples[k]));
                window_med[k].push(median(&samples[k]));
            }
        }
        for (k, (name, _)) in sections.iter().enumerate() {
            let spread = |xs: &[f64]| max(xs) / min(xs) - 1.0;
            assert!(
                spread(&window_min[k]) <= 0.08,
                "{name}: window minima spread {:.3}",
                spread(&window_min[k])
            );
            assert!(
                spread(&window_med[k]) > 0.08,
                "{name}: window medians spread only {:.3}",
                spread(&window_med[k])
            );
        }
    }
}

//! The process's surroundings: CPU pinning, machine identity for the
//! envelope, and peak resident memory.

use std::process::Command;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

pub struct Pinned {
    /// CPUs the process was allowed on before pinning (`nproc`).
    pub allowed: usize,
    /// The one CPU it runs on now.
    pub cpu: usize,
}

/// Pin the calling process to the highest-numbered CPU it is allowed on
/// (CPU 0 takes most of a VM's interrupts). Must run before any thread
/// pool exists: threads spawned later inherit the mask, and
/// `available_parallelism` then reports 1, which sizes every pool to the
/// submitter alone.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the kernel fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let allowed = mask.iter().map(|w| w.count_ones() as usize).sum();
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes that the kernel only
    // reads; the CPU named in it was in the mask the kernel just returned.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(Pinned { allowed, cpu })
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Short revision of the checkout, or `unknown` outside a git repository.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

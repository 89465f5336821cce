//! What the host tells us about this process: CPU time, page faults, peak
//! resident set, and the fingerprint every result set is stamped with.
//! All of it is read from `/proc`, since `pm-bench` code forbids `unsafe`
//! and the sandbox has no libc binding to call `getrusage` through.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// Cumulative CPU accounting of the calling (main) thread's process.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSample {
    /// On-CPU nanoseconds of the main thread (`/proc/self/schedstat`):
    /// exact, but not split into user and system.
    pub on_cpu_ns: u64,
    /// User-mode clock ticks (`/proc/self/stat` field 14): tick-sampled.
    pub utime_ticks: u64,
    /// Kernel-mode clock ticks (field 15): tick-sampled.
    pub stime_ticks: u64,
    /// Minor page faults (field 10).
    pub minflt: u64,
}

impl CpuSample {
    /// Read the counters now.
    pub fn now() -> CpuSample {
        let mut s = CpuSample::default();
        if let Ok(text) = fs::read_to_string("/proc/self/schedstat") {
            s.on_cpu_ns = text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok())
                .unwrap_or(0);
        }
        if let Ok(text) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: field 3 (state) is the first one.
            if let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let field = |n: usize| f.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0);
                s.minflt = field(10);
                s.utime_ticks = field(14);
                s.stime_ticks = field(15);
            }
        }
        s
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    /// Add another interval's counters.
    pub fn add(&mut self, other: &CpuSample) {
        self.on_cpu_ns += other.on_cpu_ns;
        self.utime_ticks += other.utime_ticks;
        self.stime_ticks += other.stime_ticks;
        self.minflt += other.minflt;
    }

    /// CPU nanoseconds: the exact scheduler total when the kernel exposes
    /// it, the tick total otherwise.
    pub fn cpu_ns(&self) -> f64 {
        if self.on_cpu_ns > 0 {
            self.on_cpu_ns as f64
        } else {
            (self.utime_ticks + self.stime_ticks) as f64 / TICKS_PER_SEC * 1e9
        }
    }

    /// Share of the CPU time spent in user mode, from the tick split
    /// (1 when no tick was charged at all).
    pub fn user_frac(&self) -> f64 {
        let total = self.utime_ticks + self.stime_ticks;
        if total == 0 {
            1.0
        } else {
            self.utime_ticks as f64 / total as f64
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a result set was measured. Stamped into every file `e2e all`
/// writes so two sets are only ever compared knowingly.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_backend: &'static str,
    pub kernel: String,
    pub git_rev: String,
}

impl Fingerprint {
    /// Gather the fingerprint. The git revision comes from `.git/HEAD` of
    /// the working directory when there is one (the driver's checkout is
    /// not a repository; it reads "unknown" there).
    pub fn gather() -> Fingerprint {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            simd_backend: pm_simd::backend_name(),
            kernel,
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                // A packed ref: "<sha> <refname>" lines.
                fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
            }),
        None => Some(head.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sample_advances_under_work() {
        let a = CpuSample::now();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let d = CpuSample::now().since(&a);
        assert!(d.cpu_ns() > 0.0, "no CPU time observed: {d:?}");
        assert!((0.0..=1.0).contains(&d.user_frac()));
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}

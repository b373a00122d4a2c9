//! The host fingerprint printed with every result, and small `/proc`
//! readers.

use serde::Serialize;
use std::fs;
use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The `rustflags` line of `.cargo/config.toml`, as written.
    pub rustflags: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
    /// Worker-thread budget of the run.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Host {
    /// Fingerprints the host, reading files relative to `root` (the
    /// checkout the benchmark runs from).
    pub fn detect(root: &Path, threads: usize, seed: u64) -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustflags = fs::read_to_string(root.join(".cargo/config.toml"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.trim_start().starts_with("rustflags"))
                    .and_then(|l| l.split_once('='))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "none".into());
        Host {
            nproc: nproc(),
            cpu_model,
            rustflags,
            git_rev: git_rev(root).unwrap_or_else(|| "unknown (not a git checkout)".into()),
            threads,
            seed,
        }
    }
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// CPU seconds this process has used so far, across all its threads
/// (including threads that have exited). Unlike wall time it does not
/// grow while a virtual machine's CPUs are stolen by its neighbours.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time is unavailable here; every CPU-time metric reads 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    0.0
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 without procfs.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has stolen from this machine, per
/// CPU, since boot: the `steal` column of the `cpu` line of `/proc/stat`
/// over the number of `cpuN` lines (0 without procfs). Its resolution is
/// one clock tick (10 ms at the usual `USER_HZ` of 100) per CPU.
pub fn steal_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ / cpus.max(1) as f64)
}

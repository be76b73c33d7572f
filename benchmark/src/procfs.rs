//! Process accounting read from `/proc`: CPU time, resident memory, core
//! count. Linux only, like the repository's CI.

use std::fs;

/// CPU nanoseconds one scheduler entity has run: the first field of its
/// `schedstat`. `None` on kernels built without scheduler statistics.
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// user+sys of a whole process from `/proc/<pid>/stat`, in nanoseconds at
/// the kernel's 100 Hz tick — the coarse fallback for [`process_cpu_ns`].
fn stat_cpu_ns(pid: u32) -> u64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0 };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

/// CPU time (user+sys, ns) consumed so far by every live thread of `pid`.
pub fn process_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    let mut total = 0u64;
    let mut seen = false;
    for t in tasks.flatten() {
        if let Some(ns) = schedstat_ns(&format!("{}/schedstat", t.path().display())) {
            total += ns;
            seen = true;
        }
    }
    if seen {
        total
    } else {
        stat_cpu_ns(pid)
    }
}

/// CPU time (ns) of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// One `Vm*` line of `/proc/<pid>/status`, in KiB (`VmHWM` = peak
/// resident set, `VmRSS` = current).
pub fn vm_kb(pid: u32, key: &str) -> u64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current one,
/// so each repetition reads a peak of its own. Where the kernel refuses,
/// the peak stays the process's and later repetitions read the largest so
/// far.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last [`reset_peak_rss`], KiB.
pub fn peak_rss_kb() -> u64 {
    vm_kb(std::process::id(), "VmHWM")
}

/// Cores the scheduler may run this process on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

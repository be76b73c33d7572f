//! CPU placement of the load side and the system under test.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the process was started on, ascending: read on first use (do so
/// before the first [`pin`]) and remembered.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(current)
}

fn current() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024).filter(|c| set[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restricts the calling thread (and every thread it spawns from now on)
/// to `cpus`. Returns false when the kernel refused.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|c| **c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer that outlives the
    // call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The load side's CPU and the program's: the first two the process may
/// run on (the same one when it has only one). `None` when the kernel
/// would not say.
fn sides() -> Option<(usize, usize)> {
    let cpus = allowed();
    let load = *cpus.first()?;
    Some((load, *cpus.get(1).unwrap_or(&load)))
}

/// Puts the calling thread — the generator, and with it every thread it
/// starts outside [`on_program_cpu`], such as the client reader — on the
/// load side's CPU. Returns `(load CPU, program CPU)`, or `None` when
/// nothing was pinned.
///
/// Unpinned, which of the busy threads share a core is re-drawn by the
/// scheduler every repetition and moves saturated throughput by a factor
/// of two. With the load side on one CPU and the program on the other the
/// two never compete for a core, as they would not on separate machines,
/// and runs repeat within a few percent.
pub fn pin_load_side() -> Option<(usize, usize)> {
    let (load, program) = sides()?;
    pin(&[load]).then_some((load, program))
}

/// Runs `start` — which starts the program under test: its server threads
/// or its worker processes — with the calling thread on the program's
/// CPU, which whatever it spawns inherits, then returns the thread to the
/// load side's.
pub fn on_program_cpu<T>(start: impl FnOnce() -> T) -> T {
    let Some((load, program)) = sides() else { return start() };
    pin(&[program]);
    let started = start();
    pin(&[load]);
    started
}

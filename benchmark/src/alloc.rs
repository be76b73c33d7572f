//! A counting global allocator: heap allocations made by the calling
//! thread, for `engine.allocs_per_pkt`.
//!
//! The count is thread-local, so the program's own threads pay one
//! uncontended increment per allocation and never share a cache line
//! over it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting `alloc` and `realloc` calls.
pub struct Counting;

fn bump() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and never allocates (a const-initialised `Cell<u64>` has no lazy
// initialiser and no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the calling thread has made so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` and `M_MMAP_THRESHOLD`.
const M_ARENA_MAX: i32 = -8;
const M_MMAP_THRESHOLD: i32 = -3;

/// Makes the C allocator's memory use repeat from run to run. Call before
/// any thread starts.
///
/// * One arena. By default glibc gives each new thread its own (up to 8
///   per core) and keeps freed memory inside it, so a process's peak
///   resident set depends on which threads happened to share arenas —
///   ±25 % from run to run on the workloads that allocate least.
/// * A fixed 1 MiB `mmap` threshold. By default the threshold rises to the
///   size of the largest block freed so far, after which a growing record
///   log lives on the heap, where each doubling holds the old and the new
///   block at once unless it happens to sit at the top — a few MiB of peak
///   that come and go with thread timing. Mapped blocks grow in place
///   (`mremap`) and go back to the system when freed, so one repetition's
///   memory never counts towards the next one's peak.
pub fn steady_memory() {
    // SAFETY: `mallopt` only stores integer tunables; it takes no pointers
    // and is safe to call at any time.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
    }
}

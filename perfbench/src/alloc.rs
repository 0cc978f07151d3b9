//! A counting global allocator.
//!
//! Counting is off until [`set_counting`] turns it on (the traced phase),
//! so untraced runs pay one relaxed load per allocation. While on, every
//! allocation bumps a process-wide total (`allocs_per_call`) and a
//! per-thread count, whose deltas across a span give that span's
//! allocations on its own thread (`stub.allocs_per_call`,
//! `transport.allocs_per_call`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting side effect touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this wrapper
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on all threads so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread so far.
pub fn thread() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}

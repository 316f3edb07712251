//! A counting allocator: the benchmark binary installs it as its
//! `#[global_allocator]` so the traced run can report allocations per
//! span. Counters are thread-local (a span is bracketed on the thread that
//! runs it) and only advance while armed, which the untraced runs never do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // ordering: Relaxed — a statistic switch; it publishes no data.
    if ARMED.load(Ordering::Relaxed) {
        // `try_with`: a thread past its TLS teardown simply stops counting.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Starts (or stops) counting on every thread.
pub fn arm(on: bool) {
    // ordering: Relaxed — see `count`.
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) this thread made while armed.
/// Stays 0 in a binary that did not install [`Counting`].
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

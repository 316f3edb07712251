//! The one counting allocator. It declares no `#[global_allocator]`, so no
//! binary picks it up by linking `pc_bench`: a user installs its own
//! `static ALLOC: Counting = Counting::new();` and reads it around the
//! work, on an otherwise idle process (the counts are process-wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards every call to `System` and counts live bytes, their peak, the
/// allocations made (a `realloc` is one) and the bytes they asked for.
#[derive(Default)]
pub struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocations: AtomicUsize,
    allocated: AtomicUsize,
}

#[expect(
    clippy::disallowed_methods,
    reason = "ordering: Relaxed throughout — the counters are statistics, read once the work they measure has returned (its workers joined); they publish no other data"
)]
impl Counting {
    pub const fn new() -> Self {
        Counting {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocations: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// The highest `live` since the last [`Counting::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Restarts the peak from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }

    /// Allocations made since the process started.
    pub fn allocations(&self) -> usize {
        self.allocations.load(Relaxed)
    }

    /// Bytes those allocations asked for.
    pub fn allocated(&self) -> usize {
        self.allocated.load(Relaxed)
    }

    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
        self.allocations.fetch_add(1, Relaxed);
        self.allocated.fetch_add(bytes, Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// beside it are plain statistics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.shrank(layout.size());
        self.grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

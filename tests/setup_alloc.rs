//! Building a world costs what the world costs: `pc_sim::build_server` and
//! `build_cluster` at the benchmark's `nojoin_*` world (NE-like, 123 593
//! objects, seed 2005, 4 KB pages) must peak within 10 % of the bytes the
//! finished world keeps resident, in fewer than 20 000 allocations. The
//! hash-map thinning grid this replaced peaked at 1.80 × in 135 130.
//!
//! A binary of its own: the counting allocator is process-wide, so the one
//! test here runs both builds back to back on an otherwise idle process.

use procache::server::ServerHandle;
use procache::sim::{build_cluster, build_server, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
// ordering: Relaxed throughout — the counters are statistics, read once the
// build they measure has returned (its workers joined); they publish no
// other data.
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// beside it are plain statistics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        Counting::grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `build` and returns `(live-byte peak above the starting level,
/// allocations made, what it built)`.
fn measured<T>(build: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    ALLOCATIONS.store(0, Relaxed);
    let built = build();
    (
        PEAK.load(Relaxed) - before,
        ALLOCATIONS.load(Relaxed),
        built,
    )
}

fn assert_at_footprint(what: &str, peak: usize, allocations: usize, resident: usize) {
    eprintln!("{what}: peak {peak} B live, {resident} B resident, {allocations} allocations");
    assert!(
        peak as f64 <= 1.10 * resident as f64,
        "{what}: set-up peaked at {peak} live bytes, {:.2} x the {resident} the world keeps",
        peak as f64 / resident as f64
    );
    assert!(
        allocations < 20_000,
        "{what}: {allocations} allocations to build {resident} resident bytes"
    );
}

#[test]
fn building_a_world_peaks_at_its_resident_footprint() {
    // What distinguishes the `nojoin_*` workloads from this configuration
    // (query mix, mobility, cache share) is session state, not the world.
    let cfg = SimConfig::paper();

    let (peak, allocations, server) = measured(|| build_server(&cfg));
    let resident = server.snapshot().heap_bytes();
    assert_at_footprint("build_server", peak, allocations, resident);
    drop(server);

    let (peak, allocations, cluster) = measured(|| build_cluster(&cfg, 4));
    let resident = cluster.core().pin().heap_bytes();
    assert_at_footprint("build_cluster(4)", peak, allocations, resident);
}

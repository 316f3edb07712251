//! Building a world costs what the world costs, and so does keeping it
//! under churn: `pc_sim::build_server` and `build_cluster` at the
//! benchmark's `nojoin_*` world (NE-like, 123 593 objects, seed 2005, 4 KB
//! pages) must peak within 10 % of the bytes the finished world keeps
//! resident, in fewer than 20 000 allocations (the hash-map thinning grid
//! this replaced peaked at 1.80 × in 135 130), and a steady stream of
//! four-update publishes must neither grow the world past what it was
//! before publishes wrote into the allocations earlier ones retired nor
//! allocate more per publish than a bound well under what they cost then.
//!
//! A binary of its own: the counting allocator is process-wide, so the one
//! test here runs both deployments back to back on an otherwise idle
//! process.

use procache::server::ServerHandle;
use procache::sim::{build_cluster, build_server, generate_update, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
// ordering: Relaxed throughout — the counters are statistics, read once the
// work they measure has returned (its workers joined); they publish no
// other data.
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED.fetch_add(bytes, Relaxed);
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

/// Publishes 100 warm-up batches of four updates (`generate_update`
/// seeded with 7, over the ids assigned so far — the benchmark writer's
/// shape), then 1 000 more, and holds the world's resident bytes to
/// `max_heap` and the bytes one of the 1 000 allocates to `max_per_publish`.
fn assert_steady_churn(
    what: &str,
    handle: &dyn ServerHandle,
    max_heap: usize,
    max_per_publish: usize,
) {
    const WARM_UP: usize = 100;
    const BATCHES: usize = 1_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut publish = || {
        let ids = handle.core().pin().store().len() as u32;
        let batch: Vec<_> = (0..4).map(|_| generate_update(&mut rng, ids)).collect();
        handle.apply_updates(&batch);
    };
    (0..WARM_UP).for_each(|_| publish());
    let (bytes, allocations) = (ALLOCATED.load(Relaxed), ALLOCATIONS.load(Relaxed));
    (0..BATCHES).for_each(|_| publish());
    let per_publish = (ALLOCATED.load(Relaxed) - bytes) / BATCHES;
    let allocations = (ALLOCATIONS.load(Relaxed) - allocations) / BATCHES;
    let heap = handle.core().pin().heap_bytes();
    eprintln!(
        "{what} after {} publishes: {heap} B resident; {per_publish} B in {allocations} \
         allocations per publish",
        WARM_UP + BATCHES
    );
    assert!(
        heap <= max_heap,
        "{what}: churned world holds {heap} B, more than the {max_heap} it held before \
         publishes recycled what they retired"
    );
    assert!(
        per_publish <= max_per_publish,
        "{what}: a four-update publish allocates {per_publish} B (bound {max_per_publish})"
    );
}

#[test]
fn building_a_world_peaks_at_its_resident_footprint() {
    // What distinguishes the `nojoin_*` workloads from this configuration
    // (query mix, mobility, cache share) is session state, not the world.
    let cfg = SimConfig::paper();

    // Bounds: the heap bytes read at the same point before publishes
    // recycled what they retired; the per-publish bytes were 297 178 (one
    // shard) and 322 712 (four shards) then.
    let (peak, allocations, server) = measured(|| build_server(&cfg));
    let resident = server.snapshot().heap_bytes();
    assert_at_footprint("build_server", peak, allocations, resident);
    assert_steady_churn("build_server", &server, 16_079_096, 160_000);
    drop(server);

    let (peak, allocations, cluster) = measured(|| build_cluster(&cfg, 4));
    let resident = cluster.core().pin().heap_bytes();
    assert_at_footprint("build_cluster(4)", peak, allocations, resident);
    assert_steady_churn("build_cluster(4)", &cluster, 16_075_204, 190_000);
}

//! Building a world costs what the world costs, and so does keeping it
//! under churn: `pc_sim::build_server` and `build_cluster` at the
//! benchmark's `nojoin_*` world (NE-like, 123 593 objects, seed 2005, 4 KB
//! pages) must peak within 4 % of the bytes the finished world keeps
//! resident, in fewer than 20 000 allocations (the hash-map thinning grid
//! this replaced peaked at 1.80 × in 135 130), and a steady stream of
//! four-update publishes must neither grow the world nor allocate per
//! publish more than 3 % past what the current layout measures.
//!
//! What a build keeps beside the world is small whichever shard builds
//! overlap: a shard's id list and its STR positions are 4 B per owned
//! object, and the STR sort pairs are either one slab's or die before the
//! first node is allocated. Both deployments read 1.01 × on a 2-core host
//! (at most 1.016 × with four workers); with 16 B sort records per object
//! they read up to 1.10 ×, the bound before.
//!
//! A binary of its own: the counting allocator is process-wide, so the one
//! test here runs both deployments back to back on an otherwise idle
//! process.

use pc_bench::alloc::Counting;
use procache::server::ServerHandle;
use procache::sim::{build_cluster, build_server, generate_update, SimConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Runs `build` and returns `(live-byte peak above the starting level,
/// allocations made, what it built)`.
fn measured<T>(build: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = ALLOC.live();
    ALLOC.reset_peak();
    let allocations = ALLOC.allocations();
    let built = build();
    (
        ALLOC.peak() - before,
        ALLOC.allocations() - allocations,
        built,
    )
}

fn assert_at_footprint(what: &str, peak: usize, allocations: usize, resident: usize) {
    eprintln!("{what}: peak {peak} B live, {resident} B resident, {allocations} allocations");
    assert!(
        peak as f64 <= 1.04 * resident as f64,
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
    let (bytes, allocations) = (ALLOC.allocated(), ALLOC.allocations());
    (0..BATCHES).for_each(|_| publish());
    let per_publish = (ALLOC.allocated() - bytes) / BATCHES;
    let allocations = (ALLOC.allocations() - allocations) / BATCHES;
    let heap = handle.core().pin().heap_bytes();
    eprintln!(
        "{what} after {} publishes: {heap} B resident; {per_publish} B in {allocations} \
         allocations per publish",
        WARM_UP + BATCHES
    );
    assert!(
        heap <= max_heap,
        "{what}: churned world holds {heap} B (bound {max_heap})"
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

    // Bounds: the figures measured with each node carrying its BPT
    // (7 403 996 / 7 457 728 B resident, 116 662 / 149 307 B per publish
    // for one / four shards; both repeat exactly) plus under 3 %. The
    // resident bounds stay those of the layout before, a BPT store beside
    // the node slab (7 416 188 / 7 469 744 resident, 128 906 / 159 260
    // per publish). Keeping each point's max corner again reads
    // 12 966 872 / 13 052 740 resident and fails them.
    let (peak, allocations, server) = measured(|| build_server(&cfg));
    let resident = server.core().pin().heap_bytes();
    assert_at_footprint("build_server", peak, allocations, resident);
    assert_steady_churn("build_server", &server, 7_600_000, 120_000);
    drop(server);

    let (peak, allocations, cluster) = measured(|| build_cluster(&cfg, 4));
    let resident = cluster.core().pin().heap_bytes();
    assert_at_footprint("build_cluster(4)", peak, allocations, resident);
    assert_steady_churn("build_cluster(4)", &cluster, 7_650_000, 153_000);
}

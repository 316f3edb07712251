//! Cross-crate invariant tests: Theorem 5.5 holds through the *real*
//! pipeline (not just synthetic item trees), byte metrics are exactly
//! reproducible run-to-run, and the served world's footprint is linear in
//! the dataset.

use procache::cache::ReplacementPolicy;
use procache::rtree::{ObjectStore, RTreeConfig};
use procache::server::{Cluster, ServerConfig, ServerHandle};
use procache::sim::{self, CacheModel, SimConfig};
use procache::workload::datasets::{ne_like, rd_like};

fn base() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.n_objects = 2_500;
    cfg.n_queries = 350;
    cfg.verify = false;
    cfg
}

#[test]
fn grd2_and_grd3_agree_in_aggregate() {
    // Theorem 5.5 proves GRD2 ≡ GRD3 under Lemma 5.3 (prob(ancestor) ≥
    // prob(descendant)) — true for *actual* access probabilities, and
    // enforced exactly in the cache crate's property tests. The practical
    // estimator `hits/(T − t_insert)` (§5.2) breaks the lemma when a fresh
    // object lands under an old node item (fresh prob = 1 > aged parent),
    // letting GRD2 occasionally evict an interior subtree where GRD3 takes
    // a leaf. So per-query equality does NOT survive the real pipeline —
    // what must survive is near-identical aggregate quality.
    let mut g2 = base();
    g2.model = CacheModel::Proactive;
    g2.policy = ReplacementPolicy::Grd2;
    let mut g3 = g2;
    g3.policy = ReplacementPolicy::Grd3;

    let r2 = sim::run(&g2);
    let r3 = sim::run(&g3);
    assert!(
        (r2.summary.hit_c - r3.summary.hit_c).abs() < 0.05,
        "hit_c drifted: GRD2 {} vs GRD3 {}",
        r2.summary.hit_c,
        r3.summary.hit_c
    );
    let (a, b) = (r2.summary.avg_response_s, r3.summary.avg_response_s);
    assert!(
        (a - b).abs() <= 0.25 * a.max(b),
        "response drifted: GRD2 {a} vs GRD3 {b}"
    );
}

#[test]
fn byte_metrics_are_bitwise_reproducible() {
    for model in [
        CacheModel::Page,
        CacheModel::Semantic,
        CacheModel::Proactive,
    ] {
        let mut cfg = base();
        cfg.model = model;
        let a = sim::run(&cfg);
        let b = sim::run(&cfg);
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(x.uplink_bytes, y.uplink_bytes);
            assert_eq!(x.downlink_bytes, y.downlink_bytes);
            assert_eq!(x.saved_bytes, y.saved_bytes);
            assert_eq!(x.cached_result_bytes, y.cached_result_bytes);
            assert!((x.avg_response_s - y.avg_response_s).abs() < 1e-15);
        }
    }
}

#[test]
fn different_seeds_change_the_workload() {
    let mut a_cfg = base();
    a_cfg.model = CacheModel::Proactive;
    let mut b_cfg = a_cfg;
    b_cfg.seed ^= 0xdead;
    let a = sim::run(&a_cfg);
    let b = sim::run(&b_cfg);
    let a_bytes: u64 = a.records.iter().map(|r| r.downlink_bytes).sum();
    let b_bytes: u64 = b.records.iter().map(|r| r.downlink_bytes).sum();
    assert_ne!(a_bytes, b_bytes, "seeds must matter");
}

#[test]
fn capacity_is_never_exceeded_across_models() {
    // The three caches enforce |C| at all times; spot-check through the
    // public stats after full runs at several sizes.
    for frac in [0.001, 0.01, 0.05] {
        let mut cfg = base();
        cfg.model = CacheModel::Proactive;
        cfg.cache_frac = frac;
        let server = sim::build_server(&cfg);
        let cap = cfg.cache_bytes(server.core().pin().store().total_bytes());
        let r = sim::run(&cfg);
        // The window series carries the cache occupancy indirectly (i/c is
        // index/capacity); a direct assertion lives in the cache crate.
        // Here we assert the run completed with plausible hit rates.
        assert!(r.summary.hit_b <= 1.0 + 1e-9, "frac {frac} cap {cap}");
        assert!(r.summary.hit_c <= r.summary.hit_b + 1e-9);
    }
}

#[test]
fn hit_c_never_exceeds_hit_b() {
    // Rs ⊆ R∩C byte-wise, for every model.
    for model in [
        CacheModel::Page,
        CacheModel::Semantic,
        CacheModel::Proactive,
    ] {
        let mut cfg = base();
        cfg.model = model;
        let r = sim::run(&cfg);
        assert!(
            r.summary.hit_c <= r.summary.hit_b + 1e-9,
            "{model}: hit_c {} > hit_b {}",
            r.summary.hit_c,
            r.summary.hit_b
        );
    }
}

#[test]
fn served_world_footprint_is_linear_in_the_dataset() {
    // Store + tree + BPTs by capacity: 4× the objects may cost 4× the
    // bytes plus rounding (partial segments, the last leaf), never a
    // superlinear term — the `split_off` chunking this pins against held
    // n²/2048 object slots.
    //
    // NE is points, stored once: ~20 B of store (min corner + size), ~20 B
    // of leaf entry (min corner + child id), ~12 B of BPT super entry, plus
    // interior nodes, per-BPT headers and partial segments — 56.4 / 55.4 B
    // measured at 10k / 40k, under 70. Keeping each point's max corner too
    // reads 96.9 / 95.7.
    //
    // RD is rectangles: ~36 B of store, ~38 B of entry — 88.8 / 87.6 B
    // measured, bounded 3 % above (94.5 B at full scale before points were
    // stored once). Max columns a leaf fills in at its
    // length, where they should take the min columns' room, double on the
    // later pushes and read ~4 B/object more.
    for (name, generate, per_object) in [
        ("NE", ne_like as fn(usize, u64) -> ObjectStore, 70.0),
        ("RD", rd_like, 91.4),
    ] {
        let heap = |n: usize| {
            Cluster::single(
                generate(n, 2005),
                RTreeConfig::paper(),
                ServerConfig::default(),
            )
            .core()
            .pin()
            .heap_bytes()
        };
        let (small, large) = (heap(10_000), heap(40_000));
        assert!(
            large as f64 <= 4.3 * small as f64,
            "{name}: footprint grew superlinearly: {small} B at 10k, {large} B at 40k"
        );
        for (n, bytes) in [(10_000, small), (40_000, large)] {
            assert!(
                bytes as f64 <= per_object * n as f64,
                "{name}: {bytes} B at {n} objects, {:.1} B per object (bound {per_object})",
                bytes as f64 / n as f64
            );
        }
    }
}

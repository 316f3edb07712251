//! SEM correctness: trimmed answers must equal direct answers, local
//! coverage must grow, kNN validity reuse must be sound, and the model must
//! exhibit exactly the cross-type weakness the paper attacks.

use super::*;
use pc_rtree::{naive, ObjectStore, RTreeConfig, SpatialObject};
use pc_server::{Cluster, ServerConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn server(n: usize, seed: u64) -> Cluster {
    let mut rng = SmallRng::seed_from_u64(seed);
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| SpatialObject {
            id: ObjectId(i as u32),
            mbr: Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            )),
            size_bytes: rng.random_range(500..2000),
        })
        .collect();
    Cluster::single(
        ObjectStore::new(objects),
        RTreeConfig::small(),
        ServerConfig::default(),
    )
}

#[test]
fn range_answers_match_naive_under_trimming() {
    let server = server(300, 1);
    let mut sem = SemanticCache::new(1 << 22);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut pos = Point::new(0.5, 0.5);
    for round in 0..60 {
        pos = Point::new(
            (pos.x + rng.random_range(-0.05..0.05)).clamp(0.0, 1.0),
            (pos.y + rng.random_range(-0.05..0.05)).clamp(0.0, 1.0),
        );
        let w = Rect::centered_square(pos, rng.random_range(0.05..0.25));
        let a = sem.query(&server, 0, &QuerySpec::Range { window: w }, pos, 0.0);
        sem.validate().unwrap();
        let mut got = a.objects.clone();
        got.sort_unstable();
        assert_eq!(
            got,
            naive::range_naive(server.core().pin().store(), &w),
            "round {round}"
        );
    }
}

#[test]
fn fully_covered_repeat_is_local() {
    let server = server(200, 2);
    let mut sem = SemanticCache::new(1 << 22);
    let pos = Point::new(0.4, 0.6);
    let w = Rect::centered_square(pos, 0.2);
    let spec = QuerySpec::Range { window: w };
    let first = sem.query(&server, 0, &spec, pos, 0.0);
    assert!(first.ledger.contacted_server);
    let second = sem.query(&server, 0, &spec, pos, 0.0);
    assert!(!second.ledger.contacted_server, "repeat must be local");
    assert_eq!(second.ledger.transmitted_bytes(), 0);
    assert_eq!(first.objects.len(), second.objects.len());
    assert!(second.ledger.saved_bytes > 0 || second.objects.is_empty());
}

#[test]
fn overlapping_window_transmits_only_the_remainder() {
    let server = server(400, 3);
    let mut sem = SemanticCache::new(1 << 22);
    let pos = Point::new(0.5, 0.5);
    let w1 = Rect::from_coords(0.3, 0.3, 0.6, 0.6);
    let a1 = sem.query(&server, 0, &QuerySpec::Range { window: w1 }, pos, 0.0);
    // Slide the window right: the overlap is cached, only the strip is new.
    let w2 = Rect::from_coords(0.4, 0.3, 0.7, 0.6);
    let a2 = sem.query(&server, 0, &QuerySpec::Range { window: w2 }, pos, 0.0);
    assert!(a2.ledger.saved_bytes > 0, "overlap must be served locally");
    assert!(
        a2.ledger.transmitted_bytes() < a1.ledger.transmitted_bytes(),
        "the remainder strip is smaller than the full window"
    );
    let mut got = a2.objects.clone();
    got.sort_unstable();
    assert_eq!(got, naive::range_naive(server.core().pin().store(), &w2));
}

#[test]
fn knn_matches_naive_and_valid_repeats_are_local() {
    let server = server(300, 4);
    let mut sem = SemanticCache::new(1 << 22);
    let pos = Point::new(0.5, 0.5);
    let spec = QuerySpec::Knn { center: pos, k: 5 };
    let first = sem.query(&server, 0, &spec, pos, 0.0);
    assert!(first.ledger.contacted_server);
    let want = naive::knn_naive(server.core().pin().store(), &pos, 5);
    assert_eq!(first.objects.len(), 5);
    for (got, (_, wd)) in first.objects.iter().zip(&want) {
        let d = server.core().pin().store().get(*got).mbr.min_dist(&pos);
        assert!((d - wd).abs() < 1e-12);
    }
    // Same point, same k: trivially valid (shift = 0).
    let again = sem.query(&server, 0, &spec, pos, 0.0);
    assert!(!again.ledger.contacted_server, "validity circle must hold");
    // A k' < k at a nearby point may also be answerable.
    let near = Point::new(pos.x + 1e-4, pos.y);
    let a3 = sem.query(
        &server,
        0,
        &QuerySpec::Knn { center: near, k: 3 },
        near,
        0.0,
    );
    let want3 = naive::knn_naive(server.core().pin().store(), &near, 3);
    for (got, (_, wd)) in a3.objects.iter().zip(&want3) {
        let d = server.core().pin().store().get(*got).mbr.min_dist(&near);
        assert!((d - wd).abs() < 1e-12, "validity reuse returned wrong kNN");
    }
}

#[test]
fn knn_reuse_is_sound_under_random_displacements() {
    // Whenever SEM answers a kNN locally, the answer must equal the naive
    // ground truth — the validity check may be conservative, never wrong.
    let server = server(400, 5);
    let mut sem = SemanticCache::new(1 << 24);
    let mut rng = SmallRng::seed_from_u64(6);
    let mut local_hits = 0;
    for _ in 0..200 {
        let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let k = rng.random_range(1..6u32);
        let a = sem.query(&server, 0, &QuerySpec::Knn { center: p, k }, p, 0.0);
        let want = naive::knn_naive(server.core().pin().store(), &p, k as usize);
        assert_eq!(a.objects.len(), want.len());
        for (got, (_, wd)) in a.objects.iter().zip(&want) {
            let d = server.core().pin().store().get(*got).mbr.min_dist(&p);
            assert!((d - wd).abs() < 1e-12);
        }
        if !a.ledger.contacted_server {
            local_hits += 1;
        }
    }
    assert!(local_hits > 0, "validity reuse never fired");
}

#[test]
fn range_cache_cannot_answer_knn() {
    // The cross-type weakness (Example 1.2): after a big range query, a kNN
    // at the same spot still pays the full round trip and retransmission.
    let server = server(300, 7);
    let mut sem = SemanticCache::new(1 << 24);
    let pos = Point::new(0.5, 0.5);
    sem.query(
        &server,
        0,
        &QuerySpec::Range {
            window: Rect::centered_square(pos, 0.4),
        },
        pos,
        0.0,
    );
    let a = sem.query(&server, 0, &QuerySpec::Knn { center: pos, k: 3 }, pos, 0.0);
    assert!(a.ledger.contacted_server);
    assert_eq!(a.ledger.saved_bytes, 0, "SEM must not share across types");
    assert_eq!(a.ledger.transmitted.len(), 3, "all k retransmitted");
}

#[test]
fn join_passes_through_and_is_never_cached() {
    let server = server(200, 8);
    let mut sem = SemanticCache::new(1 << 24);
    let spec = QuerySpec::Join { dist: 0.03 };
    let a1 = sem.query(&server, 0, &spec, Point::ORIGIN, 0.0);
    let a2 = sem.query(&server, 0, &spec, Point::ORIGIN, 0.0);
    assert_eq!(a1.pairs, a2.pairs);
    assert_eq!(
        a1.ledger.transmitted_bytes(),
        a2.ledger.transmitted_bytes(),
        "joins are retransmitted in full every time"
    );
    let mut want = naive::join_naive(server.core().pin().store(), 0.03);
    want.sort_unstable();
    let mut got = a1.pairs.clone();
    got.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn far_replacement_keeps_nearby_regions() {
    let server = server(400, 9);
    // Tight cache: a handful of regions at most.
    let mut sem = SemanticCache::new(40_000);
    let here = Point::new(0.1, 0.1);
    // Query far away first, then repeatedly near `here`.
    let far = Point::new(0.9, 0.9);
    sem.query(
        &server,
        0,
        &QuerySpec::Range {
            window: Rect::centered_square(far, 0.15),
        },
        far,
        0.0,
    );
    for i in 0..6 {
        let c = Point::new(0.1 + i as f64 * 0.02, 0.1);
        sem.query(
            &server,
            0,
            &QuerySpec::Range {
                window: Rect::centered_square(c, 0.12),
            },
            here,
            0.0,
        );
        sem.validate().unwrap();
    }
    // The far region should have been the FAR victim: a repeat near `here`
    // is cheaper than a repeat near `far`.
    let near_repeat = sem.query(
        &server,
        0,
        &QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.1, 0.1), 0.1),
        },
        here,
        0.0,
    );
    let far_repeat = sem.query(
        &server,
        0,
        &QuerySpec::Range {
            window: Rect::centered_square(far, 0.1),
        },
        here,
        0.0,
    );
    assert!(
        near_repeat.ledger.transmitted_bytes() <= far_repeat.ledger.transmitted_bytes(),
        "FAR should have kept the nearby knowledge"
    );
}

#[test]
fn fragmentation_fallback_coalesces() {
    // Many scattered cached rectangles force > MAX_FRAGMENTS pieces; the
    // fallback submits the whole window and coalesces. Correctness must
    // survive either path.
    let server = server(500, 10);
    let mut sem = SemanticCache::new(1 << 24);
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..40 {
        let p = Point::new(rng.random_range(0.2..0.8), rng.random_range(0.2..0.8));
        sem.query(
            &server,
            0,
            &QuerySpec::Range {
                window: Rect::centered_square(p, 0.06),
            },
            p,
            0.0,
        );
    }
    let w = Rect::from_coords(0.15, 0.15, 0.85, 0.85);
    let a = sem.query(
        &server,
        0,
        &QuerySpec::Range { window: w },
        Point::new(0.5, 0.5),
        0.0,
    );
    sem.validate().unwrap();
    let mut got = a.objects.clone();
    got.sort_unstable();
    assert_eq!(got, naive::range_naive(server.core().pin().store(), &w));
}

//! End-to-end client⇄server pipeline tests: the proactive pipeline must
//! produce exactly the direct answer under warm caches, evictions and all
//! three query types — and must demonstrate the paper's headline claims
//! (local completion on repeats, cross-query-type reuse).

use super::*;
use pc_cache::Catalog;
use pc_geom::{Point, Rect};
use pc_rtree::engine::{execute, AccessLog, NodeTrace};
use pc_rtree::naive;
use pc_rtree::proto::{QuerySpec, Request};
use pc_rtree::{ObjectId, ObjectStore, RTreeConfig, SpatialObject};
use pc_server::{Cluster, FormPolicy, ServerConfig, ServerHandle, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn make_server(n: usize, seed: u64, form: FormPolicy) -> Cluster {
    let mut rng = SmallRng::seed_from_u64(seed);
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| SpatialObject {
            id: ObjectId(i as u32),
            mbr: Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            )),
            size_bytes: rng.random_range(200..3000),
        })
        .collect();
    Cluster::single(
        ObjectStore::new(objects),
        RTreeConfig::small(),
        ServerConfig {
            form,
            ..Default::default()
        },
    )
}

fn make_client(server: &Cluster, capacity: u64) -> Client {
    let root = server.bootstrap_root().0;
    Client::new(capacity, ReplacementPolicy::Grd3, Catalog { root })
}

/// Runs one query through the full pipeline, checks it against the direct
/// answer, and returns (saved objects, total results).
fn pipeline_query(
    client: &mut Client,
    server: &Cluster,
    spec: &QuerySpec,
    pos: Point,
) -> (usize, usize) {
    client.begin_query();
    let local = client.run_local(spec);
    let reply =
        (local.remainder.clone()).map(|rq| server.call(0, Request::Remainder(rq)).into_remainder());
    if let Some(r) = &reply {
        client.absorb(r, pos);
    }
    let answer = client.assemble(&local, reply.as_ref());
    client.cache().validate().expect("cache invariant broken");

    // Ground truth comparison.
    let direct = server.core().pin().direct(spec);
    match spec {
        QuerySpec::Join { .. } => {
            let mut got = answer.pairs.clone();
            got.sort_unstable();
            let mut want = direct.pairs.clone();
            want.sort_unstable();
            assert_eq!(got, want, "join pipeline diverged");
        }
        QuerySpec::Knn { center, k } => {
            assert_eq!(answer.objects.len(), direct.results.len().min(*k as usize));
            // Compare distance multisets (ties may swap ids).
            let d = |id: ObjectId| server.core().pin().store().get(id).mbr.min_dist(center);
            let mut got: Vec<f64> = answer.objects.iter().map(|&o| d(o)).collect();
            got.sort_by(f64::total_cmp);
            let mut want: Vec<f64> = direct.results.iter().map(|&o| d(o)).collect();
            want.sort_by(f64::total_cmp);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "knn pipeline diverged");
            }
        }
        QuerySpec::Range { .. } => {
            let mut got = answer.objects.clone();
            got.sort_unstable();
            let mut want = direct.results;
            want.sort_unstable();
            assert_eq!(got, want, "range pipeline diverged");
        }
    }
    (local.saved.len(), answer.objects.len())
}

#[test]
fn random_walk_all_query_types_match_direct() {
    for form in [FormPolicy::Full, FormPolicy::Compact, FormPolicy::Adaptive] {
        let server = make_server(400, 77, form);
        // Small cache: forces constant eviction churn.
        let mut client = make_client(&server, 60_000);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut pos = Point::new(0.5, 0.5);
        for round in 0..120 {
            // Random walk with locality.
            pos = Point::new(
                (pos.x + rng.random_range(-0.05..0.05)).clamp(0.0, 1.0),
                (pos.y + rng.random_range(-0.05..0.05)).clamp(0.0, 1.0),
            );
            let spec = match round % 3 {
                0 => QuerySpec::Range {
                    window: Rect::centered_square(pos, rng.random_range(0.02..0.15)),
                },
                1 => QuerySpec::Knn {
                    center: pos,
                    k: rng.random_range(1..6),
                },
                _ => QuerySpec::Join {
                    dist: rng.random_range(0.0..0.02),
                },
            };
            pipeline_query(&mut client, &server, &spec, pos);
        }
    }
}

#[test]
fn repeated_query_completes_locally() {
    let server = make_server(300, 5, FormPolicy::Adaptive);
    let mut client = make_client(&server, 1 << 22);
    let spec = QuerySpec::Range {
        window: Rect::centered_square(Point::new(0.4, 0.4), 0.2),
    };
    let pos = Point::new(0.4, 0.4);
    client.begin_query();
    let first = client.run_local(&spec);
    assert!(!first.complete(), "cold cache must miss");
    let rq = first.remainder.clone().unwrap();
    let reply = server.call(0, Request::Remainder(rq)).into_remainder();
    client.absorb(&reply, pos);

    client.begin_query();
    let second = client.run_local(&spec);
    assert!(
        second.complete(),
        "identical repeat with a big cache must answer locally (Example 1.1)"
    );
    let mut got = second.saved.clone();
    got.sort_unstable();
    assert_eq!(
        got,
        naive::range_naive(
            server.core().pin().store(),
            &match spec {
                QuerySpec::Range { window } => window,
                _ => unreachable!(),
            }
        )
    );
}

#[test]
fn range_then_knn_reuses_cached_objects_across_types() {
    // The paper's Example 1.2/1.3: semantic caching cannot serve a kNN from
    // a cached range result; proactive caching can, because the cached
    // index supports the objects for *any* query type.
    let server = make_server(400, 6, FormPolicy::Full);
    let mut client = make_client(&server, 1 << 22);
    let center = Point::new(0.5, 0.5);
    let pos = center;

    // A generous range query warms the cache around the client.
    let range = QuerySpec::Range {
        window: Rect::centered_square(center, 0.4),
    };
    pipeline_query(&mut client, &server, &range, pos);

    // Now a kNN at the same spot: some neighbors must be saved objects.
    client.begin_query();
    let knn = QuerySpec::Knn { center, k: 3 };
    let local = client.run_local(&knn);
    assert!(
        !local.saved.is_empty(),
        "proactive caching must reuse range results for kNN"
    );
}

#[test]
fn join_after_warmup_reuses_index() {
    let server = make_server(200, 7, FormPolicy::Full);
    let mut client = make_client(&server, 1 << 24);
    let pos = Point::new(0.5, 0.5);
    let join = QuerySpec::Join { dist: 0.02 };
    // First join: cold; everything from the server.
    let (saved0, total0) = pipeline_query(&mut client, &server, &join, pos);
    assert_eq!(saved0, 0);
    // Second identical join: the whole index + objects are cached.
    let (saved1, total1) = pipeline_query(&mut client, &server, &join, pos);
    assert_eq!(total0, total1);
    assert_eq!(saved1, total1, "warm join must be fully local");
}

#[test]
fn uplink_stays_small_relative_to_downlink() {
    // §6.1 footnote: |Qr| is generally 1–2 orders of magnitude smaller
    // than |Rr|.
    let server = make_server(500, 8, FormPolicy::Adaptive);
    let mut client = make_client(&server, 1 << 22);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut up_total = 0u64;
    let mut down_total = 0u64;
    for _ in 0..30 {
        let pos = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let spec = QuerySpec::Range {
            window: Rect::centered_square(pos, 0.15),
        };
        client.begin_query();
        let local = client.run_local(&spec);
        if let Some(rq) = local.remainder {
            up_total += rq.uplink_bytes();
            let reply = server.call(0, Request::Remainder(rq)).into_remainder();
            down_total += reply.downlink_bytes();
            client.absorb(&reply, pos);
        }
    }
    assert!(up_total > 0 && down_total > 0);
    assert!(
        up_total * 5 < down_total,
        "uplink {up_total} should be far below downlink {down_total}"
    );
}

#[test]
fn eviction_churn_never_corrupts_answers() {
    // Tiny cache: almost every reply evicts most of the previous state.
    let server = make_server(300, 9, FormPolicy::Adaptive);
    let mut client = make_client(&server, 15_000);
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..60 {
        let pos = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let spec = if rng.random_bool(0.5) {
            QuerySpec::Range {
                window: Rect::centered_square(pos, 0.1),
            }
        } else {
            QuerySpec::Knn {
                center: pos,
                k: rng.random_range(1..5),
            }
        };
        pipeline_query(&mut client, &server, &spec, pos);
        assert!(client.cache().used_bytes() <= client.cache().capacity());
    }
}

/// The client's node trace sees of a query exactly what the server's cell
/// log sees of its nodes: the same nodes in the same first-access order
/// (the order `run_local` touches cache items in) and the same confirmed
/// objects, over caches that miss in every way eviction churn leaves them.
/// The trace is reused across queries, as the client reuses its own; the
/// log is fresh per query, as the server's is per contact.
#[test]
fn node_trace_matches_the_access_log_over_partial_caches() {
    let server = make_server(400, 21, FormPolicy::Adaptive);
    let mut client = make_client(&server, 40_000);
    let mut rng = SmallRng::seed_from_u64(23);
    let mut trace = NodeTrace::default();
    let mut pos = Point::new(0.5, 0.5);
    let mut partial = [0; 3];
    for round in 0..150 {
        pos = Point::new(
            (pos.x + rng.random_range(-0.08..0.08)).clamp(0.0, 1.0),
            (pos.y + rng.random_range(-0.08..0.08)).clamp(0.0, 1.0),
        );
        let spec = match round % 3 {
            0 => QuerySpec::Range {
                window: Rect::centered_square(pos, rng.random_range(0.02..0.2)),
            },
            1 => QuerySpec::Knn {
                center: pos,
                k: rng.random_range(1..8),
            },
            _ => QuerySpec::Join {
                dist: rng.random_range(0.0..0.02),
            },
        };
        let mut log = AccessLog::default();
        trace.clear();
        let logged = execute(client.cache(), &spec, &mut log);
        let traced = execute(client.cache(), &spec, &mut trace);
        assert_eq!(traced, logged, "{spec:?}");
        assert!(trace.nodes().eq(log.nodes()), "{spec:?}: node order");
        if logged.remainder.is_some() && logged.expansions > 0 {
            partial[round % 3] += 1;
        }
        pipeline_query(&mut client, &server, &spec, pos);
    }
    assert!(
        partial.iter().all(|&n| n >= 10),
        "too few partial caches per kind: {partial:?}"
    );
}

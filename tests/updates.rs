//! Integration tests for the §7 extension: server updates + epoch-stamped
//! cache invalidation. The contract: any answer produced *at a server
//! contact* reflects the current dataset exactly; local-only answers may be
//! stale between contacts (documented bounded staleness).

use procache::cache::{Catalog, ReplacementPolicy};
use procache::geom::{Point, Rect};
use procache::rtree::naive;
use procache::rtree::proto::QuerySpec;
use procache::rtree::{ObjectId, RTreeConfig};
use procache::server::{Cluster, ServerConfig, Update};
use procache::sim::{ModelRunner, ProactiveRunner};
use procache::workload::datasets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn setup(n: usize, seed: u64) -> (Cluster, ProactiveRunner) {
    let store = datasets::ne_like(n, seed);
    let server = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
    let client = ProactiveRunner::new(
        1 << 22,
        ReplacementPolicy::Grd3,
        Catalog::from_tree(server.snapshot().shard(0).tree()),
    )
    .versioned(true);
    (server, client)
}

#[test]
fn contact_answers_track_updates_exactly() {
    let (server, mut client) = setup(800, 1);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut next_update = 0usize;
    for round in 0..80 {
        // Every few queries the server mutates: move, delete or insert.
        if round % 4 == 3 {
            let update = match next_update % 3 {
                0 => Update::Move {
                    id: ObjectId(rng.random_range(0..700)),
                    to: Rect::from_point(Point::new(
                        rng.random_range(0.0..1.0),
                        rng.random_range(0.0..1.0),
                    )),
                },
                1 => Update::Delete(ObjectId(rng.random_range(0..700))),
                _ => Update::Insert {
                    mbr: Rect::from_point(Point::new(
                        rng.random_range(0.0..1.0),
                        rng.random_range(0.0..1.0),
                    )),
                    size_bytes: 500,
                },
            };
            next_update += 1;
            server.apply_updates(&[update]);
        }
        let pos = Point::new(rng.random_range(0.1..0.9), rng.random_range(0.1..0.9));
        let spec = QuerySpec::Range {
            window: Rect::centered_square(pos, rng.random_range(0.05..0.2)),
        };
        let out = client.run_query(&server, &spec, pos, 0.0);
        client.client().cache().validate().unwrap();
        // Queries that contacted the server must match the *current* truth.
        if out.ledger.contacted_server {
            let QuerySpec::Range { window } = &spec else {
                unreachable!()
            };
            let mut got = out.objects.clone();
            got.sort_unstable();
            got.dedup();
            // Tombstoned objects stay in the store (dense ids) but the
            // naive oracle skips them via the liveness bitset.
            let want = naive::range_naive(server.snapshot().store(), window);
            assert_eq!(got, want, "round {round}");
        }
    }
}

#[test]
fn stale_resume_costs_one_extra_round_trip() {
    let (server, mut client) = setup(600, 3);
    let pos = Point::new(0.31, 0.36);
    let spec = QuerySpec::Range {
        window: Rect::centered_square(pos, 0.25),
    };
    // Warm up.
    let first = client.run_query(&server, &spec, pos, 0.0);
    assert_eq!(first.ledger.contacts, 1);

    // Update a node the warm cache definitely holds (delete an object in
    // the warmed window), then query a *wider* window so the client's
    // remainder references cached-but-stale structure.
    let victim = naive::range_naive(server.snapshot().store(), &Rect::centered_square(pos, 0.2))[0];
    server.apply_updates(&[Update::Delete(victim)]);

    let wider = QuerySpec::Range {
        window: Rect::centered_square(pos, 0.5),
    };
    let out = client.run_query(&server, &wider, pos, 0.0);
    assert!(
        out.ledger.contacts <= 2,
        "stale retry must converge immediately"
    );
    assert!(out.invalidated_items > 0, "stale items must be dropped");
    // Final answer is correct w.r.t. current state.
    let mut got = out.objects.clone();
    got.sort_unstable();
    let QuerySpec::Range { window } = wider else {
        unreachable!()
    };
    let mut want = naive::range_naive(server.snapshot().store(), &window);
    want.retain(|id| *id != victim);
    assert_eq!(got, want);
    assert!(!out.objects.contains(&victim), "deleted object served");
}

#[test]
fn up_to_date_client_pays_no_invalidation_overhead() {
    let (server, mut client) = setup(500, 4);
    let pos = Point::new(0.5, 0.5);
    for i in 0..10 {
        let spec = QuerySpec::Knn {
            center: Point::new(0.5 + i as f64 * 0.01, 0.5),
            k: 3,
        };
        let out = client.run_query(&server, &spec, pos, 0.0);
        assert_eq!(out.invalidated_items, 0);
        assert!(out.ledger.contacts <= 1);
    }
}

#[test]
fn repeated_update_query_cycles_stay_consistent() {
    // Tight loop of update → query on the same area: every contact answer
    // must track the moving object.
    let (server, mut client) = setup(400, 5);
    let id = ObjectId(0);
    for step in 0..15 {
        let x = 0.1 + step as f64 * 0.05;
        server.apply_updates(&[Update::Move {
            id,
            to: Rect::from_point(Point::new(x, 0.5)),
        }]);
        let spec = QuerySpec::Knn {
            center: Point::new(x, 0.5),
            k: 1,
        };
        let out = client.run_query(&server, &spec, Point::new(x, 0.5), 0.0);
        assert_eq!(
            out.objects.first(),
            Some(&id),
            "step {step}: the moved object must be its own nearest neighbor"
        );
        client.client().cache().validate().unwrap();
    }
}

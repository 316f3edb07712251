//! Edge cases and failure injection across the stack: degenerate caches,
//! empty datasets, out-of-space queries, k beyond the dataset, and
//! pathological capacities must all degrade gracefully, never corrupt
//! state, and never produce wrong answers.

use procache::baselines::{PageCache, SemanticCache};
use procache::cache::{Catalog, ReplacementPolicy};
use procache::client::Client;
use procache::geom::{Point, Rect};
use procache::rtree::proto::{QuerySpec, Request};
use procache::rtree::{ObjectStore, RTreeConfig};
use procache::server::{Cluster, ServerConfig, ServerHandle, Transport};
use procache::workload::datasets;

fn server_with(n: usize) -> Cluster {
    Cluster::single(
        datasets::ne_like(n, 9),
        RTreeConfig::small(),
        ServerConfig::default(),
    )
}

/// A GRD3 client of `capacity` bytes, bootstrapped from `server`.
fn grd3_client(server: &Cluster, capacity: u64) -> Client {
    let root = server.bootstrap_root().0;
    Client::new(capacity, ReplacementPolicy::Grd3, Catalog { root })
}

fn run_pipeline(client: &mut Client, server: &Cluster, spec: &QuerySpec) -> usize {
    client.begin_query();
    let local = client.run_local(spec);
    let reply =
        (local.remainder.clone()).map(|rq| server.call(0, Request::Remainder(rq)).into_remainder());
    if let Some(r) = &reply {
        client.absorb(r, Point::new(0.5, 0.5));
    }
    client.cache().validate().unwrap();
    client.assemble(&local, reply.as_ref()).objects.len()
}

#[test]
fn empty_dataset_serves_empty_answers() {
    let server = Cluster::single(
        ObjectStore::new(vec![]),
        RTreeConfig::small(),
        ServerConfig::default(),
    );
    let mut client = grd3_client(&server, 10_000);
    for spec in [
        QuerySpec::Range { window: Rect::UNIT },
        QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 3,
        },
        QuerySpec::Join { dist: 0.1 },
    ] {
        assert_eq!(run_pipeline(&mut client, &server, &spec), 0);
    }
}

#[test]
fn k_zero_and_k_beyond_dataset() {
    let server = server_with(30);
    let mut client = grd3_client(&server, 1 << 20);
    let center = Point::new(0.5, 0.5);
    assert_eq!(
        run_pipeline(&mut client, &server, &QuerySpec::Knn { center, k: 0 }),
        0
    );
    assert_eq!(
        run_pipeline(&mut client, &server, &QuerySpec::Knn { center, k: 500 }),
        30,
        "k beyond the dataset returns everything"
    );
}

#[test]
fn window_outside_the_data_space() {
    let server = server_with(100);
    let mut client = grd3_client(&server, 1 << 20);
    let spec = QuerySpec::Range {
        window: Rect::from_coords(2.0, 2.0, 3.0, 3.0),
    };
    assert_eq!(run_pipeline(&mut client, &server, &spec), 0);
    // Nothing qualifies at the root: no remainder is even needed.
    client.begin_query();
    let local = client.run_local(&spec);
    assert!(local.complete(), "non-qualifying root needs no server");
}

#[test]
fn tiny_cache_still_answers_correctly() {
    // A cache too small for even one object: every query effectively
    // uncached, but answers stay correct and the cache stays valid.
    let server = server_with(200);
    let mut client = grd3_client(&server, 64); // bytes!
    for i in 0..10 {
        let spec = QuerySpec::Knn {
            center: Point::new(0.3 + i as f64 * 0.02, 0.4),
            k: 2,
        };
        assert_eq!(run_pipeline(&mut client, &server, &spec), 2);
        assert!(client.cache().used_bytes() <= 64);
    }
}

#[test]
fn zero_capacity_baselines_never_cache() {
    let server = server_with(150);
    let mut pag = PageCache::new(0);
    let mut sem = SemanticCache::new(0);
    let pos = Point::new(0.4, 0.4);
    for _ in 0..5 {
        let spec = QuerySpec::Range {
            window: Rect::centered_square(pos, 0.2),
        };
        let a = pag.query(&server, 0, &spec, 0.0);
        let b = sem.query(&server, 0, &spec, pos, 0.0);
        assert_eq!(a.objects.len(), b.objects.len());
        assert_eq!(pag.used_bytes(), 0);
        assert_eq!(sem.used_bytes(), 0);
        sem.validate().unwrap();
    }
}

#[test]
fn repeated_identical_queries_converge_to_fully_local() {
    let server = server_with(400);
    let mut client = grd3_client(&server, 1 << 22);
    let spec = QuerySpec::Range {
        window: Rect::centered_square(Point::new(0.31, 0.36), 0.2),
    };
    run_pipeline(&mut client, &server, &spec);
    for _ in 0..5 {
        client.begin_query();
        let local = client.run_local(&spec);
        assert!(local.complete(), "steady state must be fully local");
    }
}

#[test]
fn degenerate_all_coincident_objects() {
    // Every object at the same point: splits and BPTs face zero-area
    // everything; queries must still be exact.
    let objects: Vec<procache::rtree::SpatialObject> = (0..50)
        .map(|i| procache::rtree::SpatialObject {
            id: procache::rtree::ObjectId(i),
            mbr: Rect::from_point(Point::new(0.5, 0.5)),
            size_bytes: 100,
        })
        .collect();
    let server = Cluster::single(
        ObjectStore::new(objects),
        RTreeConfig::small(),
        ServerConfig::default(),
    );
    let mut client = grd3_client(&server, 1 << 20);
    assert_eq!(
        run_pipeline(
            &mut client,
            &server,
            &QuerySpec::Knn {
                center: Point::new(0.1, 0.1),
                k: 7
            }
        ),
        7
    );
    assert_eq!(
        run_pipeline(
            &mut client,
            &server,
            &QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.5, 0.5), 0.01)
            }
        ),
        50
    );
    // Self-join at distance 0: all pairs coincide.
    client.begin_query();
    let local = client.run_local(&QuerySpec::Join { dist: 0.0 });
    let reply =
        (local.remainder.clone()).map(|rq| server.call(0, Request::Remainder(rq)).into_remainder());
    let a = client.assemble(&local, reply.as_ref());
    assert_eq!(a.pairs.len(), 50 * 49 / 2);
}

#[test]
fn single_object_dataset() {
    let objects = vec![procache::rtree::SpatialObject {
        id: procache::rtree::ObjectId(0),
        mbr: Rect::from_point(Point::new(0.7, 0.2)),
        size_bytes: 5000,
    }];
    let server = Cluster::single(
        ObjectStore::new(objects),
        RTreeConfig::small(),
        ServerConfig::default(),
    );
    let mut client = grd3_client(&server, 1 << 20);
    assert_eq!(
        run_pipeline(
            &mut client,
            &server,
            &QuerySpec::Knn {
                center: Point::ORIGIN,
                k: 3
            }
        ),
        1
    );
    assert_eq!(
        run_pipeline(&mut client, &server, &QuerySpec::Join { dist: 1.0 }),
        0,
        "self-join of a single object has no pairs"
    );
}

/// A remainder frame `decode_request` accepts may name nodes, objects and
/// super-root codes the index never had; the serving thread skips them
/// (an unchecked slab index would panic it) and keeps serving.
#[test]
fn hostile_remainder_heaps_are_skipped_not_indexed() {
    use procache::rtree::bpt::Code;
    use procache::rtree::proto::{CellRef, HeapEntry, RemainderQuery, Request, Response, Side};
    use procache::rtree::{NodeId, ObjectId};
    use procache::server::{Cluster, ClusterConfig, ServerHandle, SUPER_ROOT};
    use procache::wire;

    let store = datasets::ne_like(2_000, 9);
    let server = Cluster::single(store.clone(), RTreeConfig::small(), ServerConfig::default());
    let cluster = Cluster::new(store, RTreeConfig::small(), ClusterConfig::new(4));
    let handles: [(&str, &dyn ServerHandle); 2] =
        [("server", &server), ("4-shard cluster", &cluster)];

    // What the socket loop does with the bytes of a frame.
    let over_the_wire = |req: &Request| {
        let bytes = wire::encode_request(7, 1, req);
        let frame = wire::read_frame(&mut &bytes[..], 1 << 20).expect("well-formed frame");
        wire::decode_request(frame.header.tag, &frame.body).expect("the codec accepts it")
    };
    let deep = (0..20).fold(Code::ROOT, |code, _| code.child(true));
    let cell = |node, code| Side::Cell {
        cell: CellRef { node, code },
        mbr: Rect::UNIT,
    };
    let hostile = [
        ("node id past the slab", cell(NodeId(4_000_000), Code::ROOT)),
        ("code no BPT has", cell(NodeId(0), deep)),
        ("super-root code no layout has", cell(SUPER_ROOT, deep)),
        (
            "object id the store never assigned",
            Side::Obj {
                id: ObjectId(3_000_000_000),
                mbr: Rect::UNIT,
                cached: false,
            },
        ),
        (
            "inverted rectangle (covers no tile)",
            Side::Obj {
                id: ObjectId(0),
                mbr: Rect {
                    min: Point::new(0.9, 0.9),
                    max: Point::new(0.1, 0.1),
                },
                cached: true,
            },
        ),
    ];
    let specs = [
        QuerySpec::Range { window: Rect::UNIT },
        QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 5,
        },
        QuerySpec::Join { dist: 0.001 },
    ];

    for (name, handle) in handles {
        // A well-behaved cold client, before and after the hostile traffic.
        let (root, _) = handle.bootstrap_root().0.expect("non-empty world");
        let root = cell(root, Code::ROOT);
        let honest = |spec: &QuerySpec, extra: Option<Side>| {
            let entry = |side| {
                if spec.is_join() {
                    HeapEntry::Pair(side, root)
                } else {
                    HeapEntry::Single(side)
                }
            };
            let sides = [Some(root), extra].into_iter().flatten();
            RemainderQuery {
                spec: *spec,
                already_found: 0,
                heap: sides.map(|side| (0.0, entry(side))).collect(),
            }
        };
        let clean: Vec<Response> = specs
            .iter()
            .map(|spec| handle.call(7, over_the_wire(&Request::Remainder(honest(spec, None)))))
            .collect();

        for (what, side) in hostile {
            for spec in &specs {
                let query = honest(spec, Some(side));
                for req in [
                    Request::Remainder(query.clone()),
                    Request::RemainderVersioned { query, epoch: 0 },
                ] {
                    let reply = handle.call(7, over_the_wire(&req));
                    assert!(
                        matches!(reply, Response::Remainder(_) | Response::Versioned(_)),
                        "{name}: {what}: {reply:?}"
                    );
                }
            }
        }
        // A query kind mismatch is malformed too: pairs in a range heap,
        // singles in a join heap.
        let mut swapped = honest(&specs[0], None);
        swapped.heap.push((0.0, HeapEntry::Pair(root, root)));
        handle.call(7, over_the_wire(&Request::Remainder(swapped)));
        let mut swapped = honest(&specs[2], None);
        swapped.heap.push((0.0, HeapEntry::Single(root)));
        handle.call(7, over_the_wire(&Request::Remainder(swapped)));

        let after: Vec<Response> = specs
            .iter()
            .map(|spec| handle.call(7, over_the_wire(&Request::Remainder(honest(spec, None)))))
            .collect();
        assert_eq!(
            after, clean,
            "{name}: honest callers must be served as before"
        );
    }
}

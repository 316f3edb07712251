//! Workspace-level end-to-end tests through the `procache` facade: the
//! proactive pipeline must return exactly the direct answer on every
//! dataset flavor, form policy and replacement policy, under eviction
//! churn — the §3.2/§3.3 contract.

use procache::cache::{Catalog, ReplacementPolicy};
use procache::client::Client;
use procache::geom::{Point, Rect};
use procache::rtree::naive;
use procache::rtree::proto::{QuerySpec, Request};
use procache::rtree::{ObjectId, RTreeConfig};
use procache::server::{Cluster, FormPolicy, ServerConfig, ServerHandle, Transport};
use procache::workload::datasets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn pipeline(
    client: &mut Client,
    server: &Cluster,
    spec: &QuerySpec,
    pos: Point,
) -> (Vec<ObjectId>, Vec<(ObjectId, ObjectId)>) {
    client.begin_query();
    let local = client.run_local(spec);
    let reply =
        (local.remainder.clone()).map(|rq| server.call(0, Request::Remainder(rq)).into_remainder());
    if let Some(r) = &reply {
        client.absorb(r, pos);
    }
    let a = client.assemble(&local, reply.as_ref());
    let mut objs = a.objects;
    objs.sort_unstable();
    (objs, a.pairs)
}

fn check_dataset(kind: &str, server: &Cluster, seed: u64) {
    for form in [FormPolicy::Full, FormPolicy::Compact, FormPolicy::Adaptive] {
        // Rebuild the server with this form (same dataset/seed).
        let store = procache::rtree::ObjectStore::new(server.core().pin().store().iter().collect());
        let server = Cluster::single(
            store,
            RTreeConfig::small(),
            ServerConfig {
                form,
                ..Default::default()
            },
        );
        for policy in [ReplacementPolicy::Grd3, ReplacementPolicy::Lru] {
            let root = server.bootstrap_root().0;
            let mut client = Client::new(40_000, policy, Catalog { root });
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pos = Point::new(0.4, 0.4);
            for round in 0..40 {
                pos = Point::new(
                    (pos.x + rng.random_range(-0.06..0.06)).clamp(0.0, 1.0),
                    (pos.y + rng.random_range(-0.06..0.06)).clamp(0.0, 1.0),
                );
                let spec = match round % 3 {
                    0 => QuerySpec::Range {
                        window: Rect::centered_square(pos, rng.random_range(0.02..0.12)),
                    },
                    1 => QuerySpec::Knn {
                        center: pos,
                        k: rng.random_range(1..7),
                    },
                    _ => QuerySpec::Join {
                        dist: rng.random_range(0.001..0.01),
                    },
                };
                let (objs, pairs) = pipeline(&mut client, &server, &spec, pos);
                client
                    .cache()
                    .validate()
                    .unwrap_or_else(|e| panic!("{kind}/{form:?}/{policy}: cache corrupt: {e}"));
                match &spec {
                    QuerySpec::Range { window } => {
                        assert_eq!(
                            objs,
                            naive::range_naive(server.core().pin().store(), window),
                            "{kind}/{form:?}/{policy} round {round}"
                        );
                    }
                    QuerySpec::Knn { center, k } => {
                        let want =
                            naive::knn_naive(server.core().pin().store(), center, *k as usize);
                        assert_eq!(objs.len(), want.len());
                        let mut got_d: Vec<f64> = objs
                            .iter()
                            .map(|id| server.core().pin().store().get(*id).mbr.min_dist(center))
                            .collect();
                        got_d.sort_by(f64::total_cmp);
                        for (g, (_, w)) in got_d.iter().zip(&want) {
                            assert!(
                                (g - w).abs() < 1e-12,
                                "{kind}/{form:?}/{policy} round {round}"
                            );
                        }
                    }
                    QuerySpec::Join { dist } => {
                        let mut got = pairs.clone();
                        got.sort_unstable();
                        assert_eq!(
                            got,
                            naive::join_naive(server.core().pin().store(), *dist),
                            "{kind}/{form:?}/{policy} round {round}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ne_like_dataset_pipeline_is_exact() {
    let store = datasets::ne_like(600, 1);
    let server = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
    check_dataset("ne", &server, 100);
}

#[test]
fn rd_like_dataset_pipeline_is_exact() {
    let store = datasets::rd_like(600, 2);
    let server = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
    check_dataset("rd", &server, 200);
}

#[test]
fn uniform_dataset_pipeline_is_exact() {
    let store = datasets::uniform(600, 3);
    let server = Cluster::single(store, RTreeConfig::small(), ServerConfig::default());
    check_dataset("uniform", &server, 300);
}

#[test]
fn paper_fanout_tree_pipeline_is_exact() {
    // Same contract under the 4 KB-page fan-out (102 entries/node): the
    // BPTs are deep and compact forms actually coarsen.
    let store = datasets::ne_like(5_000, 4);
    let server = Cluster::single(store, RTreeConfig::paper(), ServerConfig::default());
    let root = server.bootstrap_root().0;
    let mut client = Client::new(300_000, ReplacementPolicy::Grd3, Catalog { root });
    let mut rng = SmallRng::seed_from_u64(5);
    for round in 0..30 {
        let pos = Point::new(rng.random_range(0.2..0.8), rng.random_range(0.2..0.8));
        let spec = if round % 2 == 0 {
            QuerySpec::Range {
                window: Rect::centered_square(pos, 0.05),
            }
        } else {
            QuerySpec::Knn { center: pos, k: 5 }
        };
        let (objs, _) = pipeline(&mut client, &server, &spec, pos);
        if let QuerySpec::Range { window } = &spec {
            assert_eq!(
                objs,
                naive::range_naive(server.core().pin().store(), window),
                "round {round}"
            );
        }
        client.cache().validate().unwrap();
    }
}

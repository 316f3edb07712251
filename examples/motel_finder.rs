//! The paper's motivating scenario (Examples 1.1–1.3): Joey drives along
//! the highway looking for a motel. He first issues a range query around
//! his position, then — unsatisfied — a 3-nearest-neighbor query.
//!
//! Semantic caching cannot trim a kNN query against a cached *range*
//! result, so it retransmits motels Joey already has. Proactive caching
//! cached the supporting R-tree index along with the motels, so the kNN is
//! answered mostly (or fully) from the cache. This example runs both
//! models side by side on the same queries.
//!
//! ```sh
//! cargo run --example motel_finder
//! ```

use procache::baselines::SemanticCache;
use procache::cache::{Catalog, ReplacementPolicy};
use procache::client::Client;
use procache::geom::{Point, Rect};
use procache::rtree::proto::QuerySpec;
use procache::rtree::RTreeConfig;
use procache::server::{Cluster, ServerConfig};
use procache::workload::datasets;

fn main() {
    // Motels along the road network.
    let store = datasets::rd_like(30_000, 7);
    let server = Cluster::single(store, RTreeConfig::paper(), ServerConfig::default());
    let joey = Point::new(0.42, 0.58);

    // --- Proactive caching client -------------------------------------
    let mut pro = Client::new(
        2 << 20,
        ReplacementPolicy::Grd3,
        Catalog::from_tree(server.snapshot().shard(0).tree()),
    );
    // --- Semantic caching client --------------------------------------
    let mut sem = SemanticCache::new(2 << 20);

    // Q0: "motels in the neighborhood" — a range query.
    let q0 = QuerySpec::Range {
        window: Rect::centered_square(joey, 0.03),
    };

    pro.begin_query();
    let local = pro.run_local(&q0);
    let reply = local
        .remainder
        .as_ref()
        .map(|rq| server.process_remainder(0, rq));
    if let Some(r) = &reply {
        pro.absorb(r, joey);
    }
    let pro_q0 = pro.assemble(&local, reply.as_ref());

    let sem_q0 = sem.query(&server, 0, &q0, joey, 0.0);
    println!(
        "Q0 (range): {} motels found — both models pay the cold miss",
        pro_q0.objects.len()
    );
    assert_eq!(pro_q0.objects.len(), sem_q0.objects.len());

    // Q2: none of them looked good — "3 nearest motels" (Example 1.2).
    let q2 = QuerySpec::Knn { center: joey, k: 3 };

    pro.begin_query();
    let pro_local = pro.run_local(&q2);
    let pro_transmitted = match &pro_local.remainder {
        Some(rq) => {
            let reply = server.process_remainder(0, rq);
            let n = reply.objects.len();
            pro.absorb(&reply, joey);
            n
        }
        None => 0,
    };

    let sem_q2 = sem.query(&server, 0, &q2, joey, 0.0);
    let sem_transmitted = sem_q2.ledger.transmitted.len();

    println!("\nQ2 (3NN) — the cross-query-type moment:");
    println!(
        "  proactive: {} neighbors from cache, {} transmitted",
        pro_local.saved.len(),
        pro_transmitted
    );
    println!(
        "  semantic:  {} neighbors from cache, {} transmitted",
        sem_q2.locally_served.len(),
        sem_transmitted
    );
    println!(
        "\nsemantic caching retransmitted {} motel(s) Joey already had — the \
         paper's Example 1.2 penalty;",
        sem_q2.cached_results.len() - sem_q2.locally_served.len()
    );
    println!("proactive caching reused them via the cached R-tree index (Example 1.3).");

    assert!(
        pro_local.saved.len() >= sem_q2.locally_served.len(),
        "proactive must reuse at least as much as semantic"
    );
}

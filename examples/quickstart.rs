//! Quickstart: build a spatial dataset, stand up the server, and run
//! queries through a proactive-caching client.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use procache::cache::{Catalog, ReplacementPolicy};
use procache::client::Client;
use procache::geom::{Point, Rect};
use procache::net::{Channel, Ledger};
use procache::rtree::proto::{QuerySpec, Request};
use procache::rtree::RTreeConfig;
use procache::server::{Cluster, ServerConfig, ServerHandle, Transport};
use procache::workload::datasets;

fn main() {
    // 1. A dataset: 20,000 clustered points with Zipf-sized payloads
    //    (a scaled-down stand-in for the paper's NE postal zones).
    let store = datasets::ne_like(20_000, 42);
    println!(
        "dataset: {} objects, {:.1} MB of payload",
        store.len(),
        store.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    // 2. The server bulk-loads an R*-tree and builds the per-node binary
    //    partition trees offline (§4.2).
    let server = Cluster::single(store, RTreeConfig::paper(), ServerConfig::default());
    let world = server.core().pin();
    let tree = world.shard(0);
    println!(
        "index: {} nodes, height {}, BPT overhead {:.2}x",
        tree.stats().node_count,
        tree.height(),
        tree.bpt_aux_bytes() as f64 / tree.stats().index_bytes as f64
    );

    // 3. A mobile client with a 1 MB proactive cache under GRD3; the
    //    server hands out where its index starts.
    let root = server.bootstrap_root().0;
    let mut client = Client::new(1 << 20, ReplacementPolicy::Grd3, Catalog { root });
    let here = Point::new(0.31, 0.36); // downtown in the first cluster
    let channel = Channel::paper();

    // 4. Issue the same range query twice: the first run misses cold and
    //    pays the wireless round trip; the second answers mostly from
    //    cache and only fetches the few objects replacement evicted.
    //    What the cache cannot answer travels to the server as one
    //    `Request::Remainder` envelope through `Transport::call` — the one
    //    way a client reaches the server (Fig. 3).
    let window = Rect::centered_square(here, 0.05);
    let spec = QuerySpec::Range { window };
    for round in 1..=2 {
        client.begin_query();
        let local = client.run_local(&spec);
        let mut ledger = Ledger {
            saved_bytes: local
                .saved
                .iter()
                .map(|&id| world.store().get(id).size_bytes as u64)
                .sum(),
            ..Default::default()
        };
        let reply = local.remainder.clone().map(|rq| {
            ledger.contacted_server = true;
            ledger.uplink_bytes = rq.uplink_bytes();
            let reply = server.call(0, Request::Remainder(rq)).into_remainder();
            ledger.transmitted = reply.objects.iter().map(|o| o.size_bytes).collect();
            ledger.extra_downlink_bytes = reply.index_bytes();
            client.absorb(&reply, here);
            reply
        });
        let answer = client.assemble(&local, reply.as_ref());
        let resp = ledger.response(&channel);
        println!(
            "round {round}: {} results, {} saved locally, uplink {} B, \
             downlink {} B, response {:.3} s",
            answer.objects.len(),
            local.saved.len(),
            ledger.uplink_bytes,
            ledger.downlink_bytes(),
            resp.avg_response_s
        );
    }

    // 5. The cached index is query-type agnostic: a kNN right away reuses
    //    the objects fetched by the range query (the paper's Example 1.3).
    client.begin_query();
    let knn = QuerySpec::Knn { center: here, k: 3 };
    let local = client.run_local(&knn);
    println!(
        "kNN after range: {} of 3 neighbors answered from cache without \
         contacting the server",
        local.saved.len()
    );
}

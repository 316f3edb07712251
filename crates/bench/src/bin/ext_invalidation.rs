//! Extension experiment (paper §7 future work): the cost of server updates
//! under the epoch-stamped invalidation protocol.
//!
//! A proactive client runs a local mixed workload while the server applies
//! update batches at increasing rates. Measured per rate: extra round
//! trips caused by stale refusals, items dropped by invalidation, the
//! cache hit rate, and the average response time. Expectation: cache
//! effectiveness decays gracefully with the update rate — invalidation
//! costs grow linearly, and correctness at contacts is never traded away.

use pc_bench::{fmt_pct, fmt_s, HarnessOpts, Table};
use pc_cache::{Catalog, ReplacementPolicy};
use pc_geom::{Point, Rect};
use pc_mobility::{MobileClient, MobilityModel};
use pc_net::Channel;
use pc_rtree::ObjectId;
use pc_server::{Server, ServerConfig, Update};
use pc_sim::{ModelRunner, ProactiveRunner};
use pc_workload::{QueryGenerator, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Updates applied per 100 queries.
const UPDATE_RATES: [u32; 5] = [0, 5, 20, 50, 100];

fn main() {
    let opts = HarnessOpts::from_args();
    let n_objects = opts.objects.unwrap_or(15_000);
    let n_queries = opts.queries.unwrap_or(1_500);
    println!("=== Extension: server updates & cache invalidation (§7) ===");
    println!(
        "objects={n_objects} queries={n_queries} seed={}\n",
        opts.seed
    );

    let mut t = Table::new(vec![
        "upd/100q",
        "stale retries",
        "items dropped",
        "hit_c",
        "resp",
        "contact rate",
    ]);

    for rate in UPDATE_RATES {
        let store = pc_workload::datasets::ne_like(n_objects, opts.seed);
        let total_bytes = store.total_bytes();
        let server = Server::new(
            store,
            pc_rtree::RTreeConfig::paper(),
            ServerConfig::default(),
        );
        let mut client = ProactiveRunner::new(
            total_bytes / 100, // |C| = 1 %
            ReplacementPolicy::Grd3,
            Catalog::from_tree(server.snapshot().shard(0).tree()),
        )
        .with_client(1)
        .versioned(true)
        .at_epoch(server.snapshot().epoch());
        let mut mobile = MobileClient::new(
            MobilityModel::Dir,
            pc_mobility::MobilityConfig::paper(),
            opts.seed ^ 0xEE,
        );
        let mut workload = WorkloadConfig::paper();
        workload.area_wnd = 1e-6 * 123_593.0 / n_objects as f64;
        let mut qgen = QueryGenerator::new(workload, opts.seed ^ 0xFF);
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xAB);
        let channel = Channel::paper();

        let mut retries = 0u64;
        let mut dropped = 0u64;
        let mut saved = 0u64;
        let mut results = 0u64;
        let mut resp_sum = 0.0;
        let mut resp_n = 0u64;
        let mut contacts = 0u64;

        for q in 0..n_queries {
            // Poisson-ish update arrivals at `rate` per 100 queries.
            if rate > 0 && rng.random_range(0..100) < rate.min(100) {
                let n_live = server.snapshot().store().len() as u32;
                let update = match rng.random_range(0..3) {
                    0 => Update::Move {
                        id: ObjectId(rng.random_range(0..n_live.min(n_objects as u32))),
                        to: Rect::from_point(Point::new(
                            rng.random_range(0.0..1.0),
                            rng.random_range(0.0..1.0),
                        )),
                    },
                    1 => Update::Insert {
                        mbr: Rect::from_point(Point::new(
                            rng.random_range(0.0..1.0),
                            rng.random_range(0.0..1.0),
                        )),
                        size_bytes: 10_000,
                    },
                    _ => {
                        Update::Delete(ObjectId(rng.random_range(0..n_live.min(n_objects as u32))))
                    }
                };
                server.apply_updates(&[update]);
            }

            mobile.advance(qgen.think_time());
            let pos = mobile.position();
            let spec = qgen.next_query(pos);
            let out = client.run_query(&server, &spec, pos, 0.008);
            let _ = q;
            retries += out.ledger.contacts.saturating_sub(1) as u64;
            dropped += out.invalidated_items as u64;
            saved += out.ledger.saved_bytes;
            results += out.ledger.result_bytes();
            let r = out.ledger.response(&channel);
            if r.result_bytes > 0 {
                resp_sum += r.avg_response_s;
                resp_n += 1;
            }
            contacts += out.ledger.contacted_server as u64;
            mobile.advance(r.completion_s);
        }

        t.row(vec![
            format!("{rate}"),
            format!("{retries}"),
            format!("{dropped}"),
            fmt_pct(if results > 0 {
                saved as f64 / results as f64
            } else {
                0.0
            }),
            fmt_s(if resp_n > 0 {
                resp_sum / resp_n as f64
            } else {
                0.0
            }),
            fmt_pct(contacts as f64 / n_queries as f64),
        ]);
    }
    t.print();
    println!("\nexpectation: hit_c decays and stale retries grow with the update");
    println!("rate; answers at contacts stay exact throughout (asserted in tests).");
}

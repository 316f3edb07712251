//! Stage ③ holds the supporting index once, and stage ② holds its log
//! and its reply together for one node at a time. A client's first
//! self-join runs on an empty cache, so its one contact ships the whole
//! tree. The server cuts each node's shipment and frees that node's
//! logged cells at once, so its call peaks about one node's run above the
//! reply it returns — not the whole log above it. The client drains that
//! reply into its cache shipment by shipment, each dropped as soon as it
//! is merged, into node views that keep no spare slots. So the contact's
//! live-byte peak stands above what the client keeps by about one
//! shipment — not by the reply's whole index, as when the reply outlives
//! the absorption — and the cache keeps a bounded number of bytes per
//! shipped cell.
//!
//! A binary of its own: the counting allocator is process-wide, so the one
//! test here runs alone in its process.

use pc_bench::alloc::Counting;
use procache::cache::{Catalog, ReplacementPolicy};
use procache::client::Client;
use procache::geom::Point;
use procache::rtree::proto::{CellRecord, QuerySpec, Request};
use procache::rtree::RTreeConfig;
use procache::server::{Cluster, ServerConfig, ServerHandle, Transport};
use procache::workload::datasets;

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// How far the contact's live peak may stand above the live bytes after
/// it: the shipments not yet merged, less the views merged so far, plus
/// the cache maps' growth. Measured: 34.3 kB, with `object_parents`
/// reserved before the drain (14.7 kB with 48-byte view slots, whose
/// views outgrew the shipments they replaced, so the peak came last).
/// Keeping the reply whole through the absorption stood 1.23 MB above:
/// its 0.97 MB of cell records and the views' spare slots.
const PEAK_SLACK_BYTES: usize = 64 << 10;

/// How far the server's call may peak above the reply it returns: one
/// node's logged cells and shipment, the engine's buffers. Measured:
/// 25.3 kB. An `assemble` that held the whole access log until the reply
/// was cut stood 720 kB above.
const SERVER_SLACK_BYTES: usize = 64 << 10;

/// What the client may keep per shipped cell. Measured: 64.8 B (1.61 B
/// per charged byte) with 12-byte view slots and shipped cells in one
/// column that keeps a point's corner once; 80.3 B when it kept both,
/// 111.7 B with 48-byte slots that held their cells, 136.6 B with
/// power-of-two node-view capacities.
const KEPT_BYTES_PER_CELL: usize = 70;

#[test]
fn a_cold_join_contact_holds_the_index_once() {
    let store = datasets::ne_like(20_000, 2005);
    let capacity = store.total_bytes() / 100;
    let server = Cluster::single(store, RTreeConfig::paper(), ServerConfig::default());
    let root = server.bootstrap_root().0;
    let mut client = Client::new(capacity, ReplacementPolicy::Grd3, Catalog { root });
    let join = QuerySpec::Join { dist: 5e-5 };

    let before = ALLOC.live();
    ALLOC.reset_peak();
    client.begin_query();
    let Some(rq) = client.run_local(&join).remainder else {
        panic!("an empty cache answered a self-join");
    };
    let called = ALLOC.live();
    let mut reply = server.call(0, Request::Remainder(rq)).into_remainder();
    let replied = ALLOC.live();
    // The peak so far is the call's: the client's local run held less.
    let server_excess = ALLOC.peak() - replied;
    let shipments = reply.index.len();
    let cells: usize = reply.index.iter().map(|s| s.cells.len()).sum();
    let index_heap = cells * std::mem::size_of::<CellRecord>();
    let model_bytes = reply.index_bytes();
    let outcome = client.absorb_drain(&mut reply, Point::ORIGIN);
    assert!(reply.index.is_empty(), "the drain left shipments behind");
    drop(reply);
    let after = ALLOC.live();
    let peak = ALLOC.peak();

    let kept = after - before;
    let excess = peak - after;
    eprintln!(
        "cold join: {shipments} shipments, {cells} cells, {model_bytes} model bytes \
         ({index_heap} B of cell records); the client keeps {kept} B ({:.1} per cell, \
         {:.2} per charged byte); the contact peaked {excess} B above that; the server's \
         call peaked {server_excess} B above its {} B reply",
        kept as f64 / cells as f64,
        kept as f64 / client.cache().used_bytes() as f64,
        replied - called,
    );
    assert_eq!(
        outcome.evicted_items, 0,
        "the index must fit to be measured"
    );
    assert_eq!(client.cache().stats().index_bytes, model_bytes);
    assert!(
        excess <= PEAK_SLACK_BYTES,
        "the contact peaked {excess} B above what the client keeps"
    );
    assert!(
        server_excess <= SERVER_SLACK_BYTES,
        "the server's call peaked {server_excess} B above the reply it returned"
    );
    assert!(
        kept <= KEPT_BYTES_PER_CELL * cells,
        "the client keeps {kept} B for {cells} shipped cells"
    );
}

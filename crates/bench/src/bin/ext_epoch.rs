//! Epoch-cost extension experiment: what does publishing one update epoch
//! cost now that snapshots are structurally shared?
//!
//! A deep clone of the world (tree, BPTs, object store, update log) per
//! batch would cost O(dataset) time and fresh memory per epoch. The node
//! slab and the object store are each a `pc_rtree::Chunked` copy-on-write
//! column, with every node (its BPT inside it) behind its own `Arc`, so a
//! publish copies only what the batch touches: the root-to-leaf spines of
//! edited nodes, the store segments mutated objects live in, and the
//! column segments those slots sit in — and rebuilds the dirtied nodes'
//! BPTs.
//!
//! Two sweeps make that measurable:
//!
//! * **fixed batch, growing dataset** — publish latency and copied bytes
//!   should stay ~flat (per-update work is O(depth), and depth grows
//!   logarithmically);
//! * **fixed dataset, growing batch** — both should grow ~linearly with
//!   the batch.
//!
//! Per row: mean publish wall time and the share of it that is rebuilding
//! the dirtied nodes' BPTs (`RTree::rebuild_node_bpts` over them, timed
//! again on a clone of the new epoch's tree — with no spares lent, so each
//! node it rebuilds is first copied into a fresh allocation where the
//! publish reused retired ones), copied node slots / node segments /
//! dirtied nodes (each with its BPT rebuilt) / store segments per publish
//! (the columns' sharing diagnostics against the previous pin: `Arc`
//! pointer equality), two byte figures per publish — `copied`, modelled:
//! copied nodes × `PAGE_BYTES` plus the rebuilt BPTs' heap plus every
//! copied segment at `CHUNK_LEN` entries;
//! `alloc`, measured: the bytes `apply_updates` asks the
//! allocator for, counted by this binary's `#[global_allocator]`, which
//! copies written into retired allocations do not — beside the resident
//! heap bytes of the whole epoch (`Snapshot::heap_bytes`), and the update
//! log's retained record count (`log`: change records, node → epoch, which
//! is all a log holds; bounded by pruning).
//!
//! A publish's dirty set is read back as
//! `new_world.update_log().changed_since(old_world.epoch())`: the
//! deployment's log stamps nodes with the epoch of the batch that changed
//! them, so the records above the previous world's epoch are exactly the
//! ones this batch wrote — none when it never touched the shard.
//!
//! `--json OUT` writes the rows as machine-readable JSON.

use pc_bench::alloc::Counting;
use pc_bench::{fmt_bytes, json, HarnessOpts, Table};
use pc_geom::Point;
use pc_rtree::proto::PAGE_BYTES;
use pc_rtree::{Chunked, CHUNK_LEN};
use pc_server::{Cluster, ServerConfig, ServerHandle};
use pc_sim::generate_update;
use pc_workload::datasets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Update batches applied (and averaged over) per row.
const ROUNDS: usize = 24;

/// Updates per batch in the growing-dataset sweep.
const FIXED_BATCH: usize = 2;

/// One row of measurements: `ROUNDS` batches of `batch` updates against a
/// server of `n_objects`, averaging publish latency and sharing diagnostics.
struct Row {
    objects: usize,
    batch: usize,
    nodes: usize,
    publish_us: f64,
    /// Mean wall time of rebuilding one publish's dirtied BPTs.
    rebuild_us: f64,
    copied_nodes: f64,
    copied_node_chunks: f64,
    rebuilt_bpts: f64,
    copied_chunks: f64,
    /// Modelled bytes of the copies one publish makes.
    copied_bytes: f64,
    /// Measured bytes one `apply_updates` allocates.
    alloc_bytes: f64,
    /// `Snapshot::heap_bytes` of the final epoch: what one world keeps
    /// resident, the figure both byte columns are small against.
    heap_bytes: usize,
    log_records: usize,
}

/// Segments of `new` that are not `old`'s: the ones a publish copied.
fn copied_segments<E>(new: &Chunked<E>, old: &Chunked<E>) -> usize {
    new.chunk_count() - new.shared_chunks(old)
}

fn measure(n_objects: usize, batch: usize, seed: u64) -> Row {
    let server = Cluster::single(
        datasets::ne_like(n_objects, seed),
        pc_rtree::RTreeConfig::paper(),
        ServerConfig::default(),
    );
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE60C);
    let mut publish_s = 0.0;
    let mut rebuild_s = 0.0;
    let mut copied_nodes = 0usize;
    let mut copied_node_chunks = 0usize;
    let mut rebuilt_bpts = 0usize;
    let mut copied_chunks = 0usize;
    let mut copied_bytes = 0u64;
    let mut alloc_bytes = 0usize;
    for _ in 0..ROUNDS {
        let old_world = server.core().pin();
        let n_live = old_world.store().len() as u32;
        let updates: Vec<_> = (0..batch)
            .map(|_| generate_update(&mut rng, n_live))
            .collect();
        let allocated = ALLOC.allocated();
        let t = Instant::now();
        server.apply_updates(&updates);
        publish_s += t.elapsed().as_secs_f64();
        alloc_bytes += ALLOC.allocated() - allocated;
        let new_world = server.core().pin();
        let (old, new) = (old_world.shard(0), new_world.shard(0));

        let (old_nodes, new_nodes) = (old.slots(), new.slots());
        let copied = new_nodes.len() - new_nodes.shared_slots(old_nodes);
        copied_nodes += copied;
        let node_chunks = copied_segments(new_nodes, old_nodes);
        copied_node_chunks += node_chunks;
        // The store's columns: corners and sizes.
        let (new_store, old_store) = (new_world.store(), old_world.store());
        let (mins, sizes, maxes) = (
            copied_segments(new_store.mins(), old_store.mins()),
            copied_segments(new_store.sizes(), old_store.sizes()),
            copied_segments(new_store.maxes(), old_store.maxes()),
        );
        let chunks = mins + sizes + maxes;
        let store_bytes = (mins + maxes) * size_of::<Point>() + sizes * size_of::<u32>();
        copied_chunks += chunks;
        // The BPT-rebuild share of the publish: the nodes this epoch
        // logged as changed are the ones it dirtied, and rebuilding their
        // BPTs is the work the batch's edits did.
        let dirty = new_world.update_log().changed_since(old_world.epoch());
        rebuilt_bpts += dirty.len();
        let mut tree = new.clone();
        let t = Instant::now();
        tree.rebuild_node_bpts(&dirty);
        rebuild_s += t.elapsed().as_secs_f64();

        // Modelled bytes of one publish's copies: copied index pages, the
        // rebuilt BPTs' own columns (the dirtied nodes' slots, and only
        // those, are rebuilt), copied store segments and the copied chunk
        // spines (one `Arc` pointer per slot), every segment `CHUNK_LEN`.
        let rebuilt_bytes: usize = dirty
            .iter()
            .map(|&id| new.node(id).bpt().heap_bytes())
            .sum();
        copied_bytes += copied as u64 * PAGE_BYTES
            + rebuilt_bytes as u64
            + ((store_bytes + node_chunks * 8) * CHUNK_LEN) as u64;
    }
    let snap = server.core().pin();
    let rounds = ROUNDS as f64;
    Row {
        objects: n_objects,
        batch,
        nodes: snap.shard(0).slab_len(),
        publish_us: publish_s * 1e6 / rounds,
        rebuild_us: rebuild_s * 1e6 / rounds,
        copied_nodes: copied_nodes as f64 / rounds,
        copied_node_chunks: copied_node_chunks as f64 / rounds,
        rebuilt_bpts: rebuilt_bpts as f64 / rounds,
        copied_chunks: copied_chunks as f64 / rounds,
        copied_bytes: copied_bytes as f64 / rounds,
        alloc_bytes: alloc_bytes as f64 / rounds,
        heap_bytes: snap.heap_bytes(),
        log_records: snap.update_log().retained_records(),
    }
}

fn render(rows: &[Row], sweep: &str) -> (Table, Vec<String>) {
    let mut t = Table::new(vec![
        "objects", "batch", "nodes", "publish", "rebuild", "share", "copied n", "n-chunk", "bpts",
        "chunks", "copied", "alloc", "heap", "log",
    ]);
    let mut json_rows = Vec::new();
    for r in rows {
        t.row(vec![
            r.objects.to_string(),
            r.batch.to_string(),
            r.nodes.to_string(),
            format!("{:.0}us", r.publish_us),
            format!("{:.0}us", r.rebuild_us),
            format!("{:.0}%", 100.0 * r.rebuild_us / r.publish_us),
            format!("{:.1}", r.copied_nodes),
            format!("{:.1}", r.copied_node_chunks),
            format!("{:.1}", r.rebuilt_bpts),
            format!("{:.1}", r.copied_chunks),
            fmt_bytes(r.copied_bytes),
            fmt_bytes(r.alloc_bytes),
            fmt_bytes(r.heap_bytes as f64),
            r.log_records.to_string(),
        ]);
        json_rows.push(
            json::Obj::new()
                .str("sweep", sweep)
                .num("objects", r.objects)
                .num("batch", r.batch)
                .num("nodes", r.nodes)
                .num("publish_us", r.publish_us)
                .num("rebuild_us", r.rebuild_us)
                .num("copied_nodes", r.copied_nodes)
                .num("copied_node_chunks", r.copied_node_chunks)
                .num("rebuilt_bpts", r.rebuilt_bpts)
                .num("copied_chunks", r.copied_chunks)
                .num("copied_bytes", r.copied_bytes)
                .num("alloc_bytes", r.alloc_bytes)
                .num("heap_bytes", r.heap_bytes)
                .num("log_records", r.log_records)
                .render(),
        );
    }
    (t, json_rows)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let max_objects = opts.objects.unwrap_or(40_000);
    println!("=== ext: epoch publish cost (structurally-shared snapshots) ===");
    println!("rounds={ROUNDS} seed={}\n", opts.seed);

    // Sweep 1: fixed batch, growing dataset — publish cost must not grow
    // with the dataset (that was the deep-clone regime).
    let mut sizes = vec![max_objects];
    while *sizes.last().unwrap() > 6_000 {
        sizes.push(sizes.last().unwrap() / 2);
    }
    sizes.reverse();
    println!("fixed batch = {FIXED_BATCH} updates, growing dataset:");
    let dataset_rows: Vec<Row> = sizes
        .iter()
        .map(|&n| measure(n, FIXED_BATCH, opts.seed))
        .collect();
    let (t, mut json_rows) = render(&dataset_rows, "dataset");
    t.print();

    // Sweep 2: fixed dataset, growing batch — cost should scale with the
    // batch instead.
    println!("\nfixed dataset = {max_objects} objects, growing batch:");
    let batch_rows: Vec<Row> = [1usize, 4, 16, 64]
        .iter()
        .map(|&b| measure(max_objects, b, opts.seed))
        .collect();
    let (t, batch_json) = render(&batch_rows, "batch");
    t.print();
    json_rows.extend(batch_json);

    let first = &dataset_rows[0];
    let last = dataset_rows.last().unwrap();
    let growth = last.copied_bytes / first.copied_bytes.max(1.0);
    let data_growth = last.objects as f64 / first.objects as f64;
    println!(
        "\n{}x dataset -> {:.2}x copied bytes per publish (deep cloning would be ~{}x); \
         publish latency {:.0}us -> {:.0}us",
        data_growth, growth, data_growth, first.publish_us, last.publish_us
    );

    if let Some(path) = &opts.json {
        let doc = json::Obj::new()
            .str("bench", "ext_epoch")
            .num("seed", opts.seed)
            .num("rounds", ROUNDS)
            .num("fixed_batch", FIXED_BATCH)
            .num("max_objects", max_objects)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}

//! Epoch-cost extension experiment: what does publishing one update epoch
//! cost now that snapshots are structurally shared?
//!
//! Before this change, `apply_updates` deep-cloned the whole world (tree,
//! BPTs, object store, update log) per batch — O(dataset) time and fresh
//! memory per epoch. With `Arc`-per-node copy-on-write slots, `Arc`-per-BPT
//! stores and chunked store segments, a publish copies only what the batch
//! touches: the root-to-leaf spines of edited nodes, the dirtied nodes'
//! BPTs, and the store segments mutated objects live in.
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
//! the dirtied nodes' BPTs (the same `BptStore::rebuild_nodes` call, timed
//! again on a clone of the previous epoch's store — with no spares lent, so
//! every BPT it rebuilds is a fresh allocation where the publish reused
//! retired ones), copied node slots / rebuilt BPTs / copied store segments
//! per publish (diagnosed by `Arc` pointer equality against the previous
//! pin), two byte figures per publish — `copied`, modelled: copied nodes ×
//! `PAGE_BYTES` plus the rebuilt BPTs' heap plus copied store segments and
//! chunk spines; `alloc`, measured: the bytes `apply_updates` asks the
//! allocator for, counted by this binary's `#[global_allocator]`, which
//! copies written into retired allocations do not — beside the resident
//! heap bytes of the whole epoch (`Snapshot::heap_bytes`), and the update
//! log's retained record count (`log`: change records, node → epoch, which
//! is all a log holds; bounded by pruning).
//!
//! A publish's dirty set is read back as
//! `new.update_log().changed_since(old.epoch())`: a shard's epoch is the
//! deployment epoch of the last batch that touched it and its log stamps
//! nodes with deployment epochs, so the records above the previous shard's
//! epoch are exactly the ones this batch wrote — none when the batch never
//! touched the shard.
//!
//! `--json OUT` writes the rows as `BENCH_epoch.json` for the CI artifact
//! trail.

use pc_bench::{fmt_bytes, json, HarnessOpts, Table};
use pc_rtree::proto::PAGE_BYTES;
use pc_rtree::SpatialObject;
use pc_server::{Server, ServerConfig};
use pc_sim::generate_update;
use pc_workload::datasets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
// ordering: Relaxed — a statistic, read on the one thread that allocates
// while a publish is measured; it publishes no other data.
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Bytes handed out by the allocator since the process started.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter beside
// it is a plain statistic and never touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Update batches applied (and averaged over) per row.
const ROUNDS: usize = 24;

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
    copied_bpt_chunks: f64,
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

fn measure(n_objects: usize, batch: usize, seed: u64) -> Row {
    let server = Server::new(
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
    let mut copied_bpt_chunks = 0usize;
    let mut copied_chunks = 0usize;
    let mut copied_bytes = 0u64;
    let mut alloc_bytes = 0usize;
    for _ in 0..ROUNDS {
        let old_world = server.core().pin();
        let n_live = old_world.store().len() as u32;
        let updates: Vec<_> = (0..batch)
            .map(|_| generate_update(&mut rng, n_live))
            .collect();
        let allocated = ALLOCATED.load(Relaxed);
        let t = Instant::now();
        server.apply_updates(&updates);
        publish_s += t.elapsed().as_secs_f64();
        alloc_bytes += ALLOCATED.load(Relaxed) - allocated;
        let new_world = server.core().pin();
        let (old, new) = (old_world.shard(0), new_world.shard(0));

        let copied = new.tree().slab_len() - new.tree().shared_node_slots(old.tree());
        copied_nodes += copied;
        let node_chunks = new.tree().node_chunk_count() - new.tree().shared_node_chunks(old.tree());
        copied_node_chunks += node_chunks;
        let rebuilt = new.bpts().node_count() - new.bpts().shared_bpts(old.bpts());
        rebuilt_bpts += rebuilt;
        let bpt_chunks = new.bpts().chunk_count() - new.bpts().shared_chunks(old.bpts());
        copied_bpt_chunks += bpt_chunks;
        let (old_store, new_store) = (old_world.store(), new_world.store());
        let chunks = new_store.chunk_count() - new_store.shared_chunks(old_store);
        copied_chunks += chunks;
        // The BPT-rebuild share of the publish: the nodes this epoch
        // logged as changed are the ones it dirtied, and rebuilding them
        // over the previous epoch's BPT store is the work `Shard::next` did.
        let dirty = new.update_log().changed_since(old.epoch());
        let mut bpts = old.bpts().clone();
        let t = Instant::now();
        bpts.rebuild_nodes(new.tree(), &dirty);
        rebuild_s += t.elapsed().as_secs_f64();

        // Modelled bytes of one publish's copies: copied index pages, the
        // rebuilt BPTs' own columns (the dirtied nodes' slots, and only
        // those, are rebuilt), copied store segments and the copied chunk
        // spines (one `Arc` pointer per slot).
        let rebuilt_bytes: usize = dirty
            .iter()
            .map(|&id| new.bpts().get(id).heap_bytes())
            .sum();
        copied_bytes += copied as u64 * PAGE_BYTES
            + rebuilt_bytes as u64
            + (chunks * pc_rtree::STORE_CHUNK_LEN * std::mem::size_of::<SpatialObject>()) as u64
            + (node_chunks as u64 * pc_rtree::NODE_CHUNK_LEN as u64
                + bpt_chunks as u64 * pc_rtree::bpt::BPT_CHUNK_LEN as u64)
                * 8;
    }
    let snap = server.snapshot();
    let rounds = ROUNDS as f64;
    Row {
        objects: n_objects,
        batch,
        nodes: snap.shard(0).tree().slab_len(),
        publish_us: publish_s * 1e6 / rounds,
        rebuild_us: rebuild_s * 1e6 / rounds,
        copied_nodes: copied_nodes as f64 / rounds,
        copied_node_chunks: copied_node_chunks as f64 / rounds,
        rebuilt_bpts: rebuilt_bpts as f64 / rounds,
        copied_bpt_chunks: copied_bpt_chunks as f64 / rounds,
        copied_chunks: copied_chunks as f64 / rounds,
        copied_bytes: copied_bytes as f64 / rounds,
        alloc_bytes: alloc_bytes as f64 / rounds,
        heap_bytes: snap.heap_bytes(),
        log_records: snap.shard(0).update_log().retained_records(),
    }
}

fn render(rows: &[Row], sweep: &str) -> (Table, Vec<String>) {
    let mut t = Table::new(vec![
        "objects", "batch", "nodes", "publish", "rebuild", "share", "copied n", "n-chunk", "bpts",
        "b-chunk", "chunks", "copied", "alloc", "heap", "log",
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
            format!("{:.1}", r.copied_bpt_chunks),
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
                .num("copied_bpt_chunks", r.copied_bpt_chunks)
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
    let batch = opts.update_batch.max(2);
    println!("=== ext: epoch publish cost (structurally-shared snapshots) ===");
    println!("rounds={ROUNDS} seed={}\n", opts.seed);

    // Sweep 1: fixed batch, growing dataset — publish cost must not grow
    // with the dataset (that was the deep-clone regime).
    let mut sizes = vec![max_objects];
    while *sizes.last().unwrap() > 6_000 {
        sizes.push(sizes.last().unwrap() / 2);
    }
    sizes.reverse();
    println!("fixed batch = {batch} updates, growing dataset:");
    let dataset_rows: Vec<Row> = sizes
        .iter()
        .map(|&n| measure(n, batch, opts.seed))
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
            .num("fixed_batch", batch)
            .num("max_objects", max_objects)
            .raw("rows", &json::array(&json_rows))
            .render();
        std::fs::write(path, doc + "\n").expect("write --json output");
        println!("wrote {path}");
    }
}

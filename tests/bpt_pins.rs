//! Golden pins for the binary-partition-tree layer: BPT shapes decide which
//! cells a reply ships and in what order, and both are on the wire, so a
//! storage or split-kernel change must reproduce them bit for bit.
//!
//! The digests were recorded at the last commit of the cell-arena BPT
//! (`BptCell` arena + index-sort `rstar_split`, PR 17) over the NE-like
//! worlds the benchmark serves, and must never move without a deliberate,
//! benchmark-coordinated re-baseline: FNV-1a over every cell of every
//! node's BPT (node, height, code, MBR bits, entry index) and over
//! `build_shipments` output for a fixed query set in three forms.

use procache::geom::{Point, Rect};
use procache::rtree::bpt::{BptCellKind, BptStore, Code};
use procache::rtree::engine::{execute, AccessLog};
use procache::rtree::proto::{CellKind, QuerySpec};
use procache::rtree::view::FullView;
use procache::rtree::{NodeId, RTree, RTreeConfig};
use procache::server::{build_shipments, Cluster, FormMode, ServerConfig, Update};
use procache::sim::generate_update;
use procache::workload::datasets::ne_like;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rect(&mut self, r: &Rect) {
        for c in [r.min.x, r.min.y, r.max.x, r.max.y] {
            self.u64(c.to_bits());
        }
    }

    fn code(&mut self, c: Code) {
        let (bits, len) = c.raw();
        self.u64(bits as u64);
        self.u64(len as u64);
    }
}

/// Every cell of every node's BPT, left-before-right pre-order.
fn store_digest(tree: &RTree, bpts: &BptStore) -> u64 {
    let mut h = Fnv::new();
    assert_eq!(bpts.node_count(), tree.slab_len());
    for i in 0..bpts.node_count() {
        let id = NodeId(i as u32);
        let (bpt, node) = (bpts.get(id), tree.node(id));
        h.u64(i as u64);
        h.u64(bpt.height() as u64);
        let mut stack = vec![Code::ROOT];
        while let Some(code) = stack.pop() {
            let Some(cell) = bpt.find(code, node) else {
                assert!(code.is_root() && bpt.is_empty());
                continue;
            };
            h.code(code);
            h.rect(&cell.mbr);
            match cell.kind {
                BptCellKind::Internal => {
                    h.u64(u64::MAX);
                    stack.push(code.child(true));
                    stack.push(code.child(false));
                }
                BptCellKind::Leaf { entry_idx } => h.u64(entry_idx as u64),
            }
        }
    }
    h.0
}

fn queries(n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let center = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            if i % 2 == 0 {
                QuerySpec::Range {
                    window: Rect::centered_square(center, rng.random_range(0.001..0.05)),
                }
            } else {
                QuerySpec::Knn {
                    center,
                    k: rng.random_range(1..20u32),
                }
            }
        })
        .collect()
}

/// Every shipment of 300 fixed range/kNN queries, in emission order.
fn shipment_digest(tree: &RTree, bpts: &BptStore, mode: FormMode) -> u64 {
    let mut h = Fnv::new();
    let view = FullView::new(tree, bpts);
    for spec in queries(300, 19) {
        let mut log = AccessLog::default();
        let _ = execute(&view, &spec, &mut log);
        for s in build_shipments(&log, tree, bpts, mode) {
            h.u64(s.node.0 as u64);
            h.u64(s.level as u64);
            h.u64(s.parent.map_or(u64::MAX, |p| p.0 as u64));
            h.u64(s.cells.len() as u64);
            for c in &s.cells {
                h.code(c.code);
                h.rect(&c.mbr);
                match c.kind {
                    CellKind::Super => h.u64(0),
                    CellKind::Node(n) => {
                        h.u64(1);
                        h.u64(n.0 as u64)
                    }
                    CellKind::Object(o) => {
                        h.u64(2);
                        h.u64(o.0 as u64)
                    }
                }
            }
        }
    }
    h.0
}

/// `(objects, store digest, [Full, DLevel(0), DLevel(2)] shipment digests)`.
const PINS: [(usize, u64, [u64; 3]); 2] = [
    (
        20_000,
        0x873b_a707_c810_ad15,
        [
            0x9ffb_5c38_91b6_87f4,
            0xf3ef_8010_88cd_8268,
            0x5e4c_49fb_d242_5182,
        ],
    ),
    (
        123_593,
        0x520a_058c_6ab9_17c4,
        [
            0x7249_1dfb_b978_4679,
            0xad33_4fa8_79ab_7084,
            0x30e1_7e19_dccf_3e9a,
        ],
    ),
];

#[test]
fn bpt_store_and_shipments_match_the_cell_arena_pins() {
    for (n, want_store, want_forms) in PINS {
        let store = ne_like(n, 2005);
        let tree = RTree::bulk_load(RTreeConfig::paper(), store.iter());
        let bpts = BptStore::build(&tree);
        assert_eq!(
            store_digest(&tree, &bpts),
            want_store,
            "BPT store digest moved at {n} objects"
        );
        let modes = [FormMode::Full, FormMode::DLevel(0), FormMode::DLevel(2)];
        for (mode, want) in modes.into_iter().zip(want_forms) {
            assert_eq!(
                shipment_digest(&tree, &bpts, mode),
                want,
                "{mode:?} shipments moved at {n} objects"
            );
        }
    }
}

#[test]
fn publish_rebuilds_exactly_the_dirtied_bpts() {
    // After every batch each slot equals a from-scratch build of its node
    // (no node the batch changed kept a stale BPT), and every slot the
    // batch left alone is still the previous pin's allocation (`get` hands
    // out the `Arc`'s pointee, so address equality is `Arc::ptr_eq`).
    let server = Cluster::single(
        ne_like(20_000, 7),
        RTreeConfig::paper(),
        ServerConfig::default(),
    );
    let mut rng = SmallRng::seed_from_u64(0xB97);
    let (mut rebuilt, mut kept) = (0usize, 0usize);
    for _ in 0..40 {
        let old = server.snapshot();
        let n_live = old.store().len() as u32;
        let batch: Vec<Update> = (0..4).map(|_| generate_update(&mut rng, n_live)).collect();
        server.apply_updates(&batch);
        let new = server.snapshot();
        assert!(!Arc::ptr_eq(&old, &new));
        // The nodes this epoch logged as changed are the ones it dirtied.
        let touched = new.update_log().changed_since(old.epoch());
        let epoch = new.epoch();
        let (old, new) = (old.shard(0), new.shard(0));
        assert_eq!(new.bpts().node_count(), new.tree().slab_len());
        let fresh = BptStore::build(new.tree());
        let mut shared = 0;
        for i in 0..new.bpts().node_count() {
            let id = NodeId(i as u32);
            let now = new.bpts().get(id);
            assert_eq!(now, fresh.get(id), "{id} at epoch {epoch}");
            let kept_pin = i < old.bpts().node_count() && std::ptr::eq(now, old.bpts().get(id));
            assert_eq!(
                kept_pin,
                touched.binary_search(&id).is_err(),
                "{id}: a slot is rebuilt iff the batch touched its node"
            );
            shared += kept_pin as usize;
        }
        assert_eq!(shared, new.bpts().shared_bpts(old.bpts()));
        kept += shared;
        rebuilt += new.bpts().node_count() - shared;
    }
    assert!(rebuilt > 0, "40 batches must dirty something");
    assert!(
        kept > 20 * rebuilt,
        "a publish rebuilds a handful of slots: {rebuilt} rebuilt vs {kept} kept"
    );
}

//! The proactive cache (§3.2, §5): stores result **objects** and the
//! supporting **index** (BPT cell antichains per R-tree node) as a single
//! item population with the §5.2 metadata, enforces the byte capacity, and
//! implements the replacement policies of §5/§6.3: GRD2, GRD3 (the paper's
//! contribution), LRU, MRU and FAR.
//!
//! Items form the hierarchy of the constrained knapsack problem: a node
//! item's children are its cached child-node items and cached result
//! objects. All policies evict *hierarchy leaves* (items with no cached
//! children), which by Lemma 5.4 is exactly what the optimal greedy GRD2
//! does anyway, and keeps the "evict an item ⇒ evict its descendants"
//! constraint trivially satisfied — an evicted object or childless node
//! never strands descendants.
//!
//! The cache is also the client's view of the index: it implements
//! `pc_rtree::engine::IndexView`, its traversals starting at the root its
//! [`Catalog`] names, so stage ① runs the engine over the cache itself.

// The cache ingests decoded wire replies, so library code here answers
// malformed input by skipping it, and each deliberate panic carries an
// `#[expect]` saying why it is safe. Tests panic to fail.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod cache;
mod item;
mod node_view;
mod policy;
mod view;

pub use cache::{CacheStats, InsertOutcome, ProactiveCache};
pub use item::{Item, ItemData, ItemKey, ItemMeta};
pub use node_view::CachedNodeView;
pub use policy::ReplacementPolicy;
pub use view::Catalog;

#[cfg(test)]
mod proptests;

//! The §7 update workload: [`ChurnConfig`] + [`generate_update`] describe
//! the paper-§6-style update stream the fleet's update-driver thread
//! injects while sessions run. The client half of the invalidation
//! protocol (epoch stamps, stale retry, full refresh) is
//! [`ProactiveRunner`](crate::ProactiveRunner)'s one contact loop, switched
//! on with `versioned(true)`.

use pc_geom::{Point, Rect};
use pc_rtree::ObjectId;
use pc_server::Update;
use rand::rngs::SmallRng;
use rand::Rng;

/// Server-update workload injected under a running fleet (paper §6-style
/// mix of moves, inserts and deletes; cf. the `ext_invalidation`
/// experiment's single-client rates).
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Updates applied per 100 completed queries, fleet-wide. 0 disables
    /// churn entirely (no driver thread, plain protocol) so a 0-rate
    /// fleet stays bit-identical to an update-free one.
    pub rate_per_100: u32,
    /// Updates per applied batch — one epoch bump per batch.
    pub batch: usize,
    /// Seed of the update stream (decorrelated from the query seed).
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            rate_per_100: 0,
            batch: 1,
            seed: 0x5EED_CAFE,
        }
    }
}

/// One update of the churn mix: half moves (mobile objects relocating),
/// a quarter inserts, a quarter deletes — net cardinality stays roughly
/// flat while the index keeps restructuring. `n_live` is the current
/// store size (dense ids; deletes of already-tombstoned ids are no-ops
/// the server ignores).
pub fn generate_update(rng: &mut SmallRng, n_live: u32) -> Update {
    let roll = rng.random_range(0..4u32);
    let random_point = |rng: &mut SmallRng| {
        Rect::from_point(Point::new(
            rng.random_range(0.0..1.0),
            rng.random_range(0.0..1.0),
        ))
    };
    match roll {
        0 | 1 => Update::Move {
            id: ObjectId(rng.random_range(0..n_live)),
            to: random_point(rng),
        },
        2 => Update::Insert {
            mbr: random_point(rng),
            size_bytes: 10_000,
        },
        _ => Update::Delete(ObjectId(rng.random_range(0..n_live))),
    }
}

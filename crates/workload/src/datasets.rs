//! Synthetic datasets substituting the paper's real ones (rtreeportal.org
//! is long gone). The experiments depend on a dataset's cardinality, its
//! clustering skew, the shape of its objects and how few pairs lie within
//! the join distance — not on its coordinates — and those are what the
//! generators reproduce:
//!
//! * [`ne_like`] ↔ **NE** (123,593 postal zones of New York, Philadelphia
//!   and Boston): three metro-area gaussian mixtures with sub-clusters,
//!   stored as point (degenerate) MBRs.
//! * [`rd_like`] ↔ **RD** (594,103 railroad/road segments of North
//!   America): thin elongated rectangles laid along a jittered
//!   grid-plus-diagonal network.
//! * [`uniform`] — the uninteresting control used by tests.
//!
//! All coordinates are normalized to the unit square (§6.1) and all object
//! sizes follow the Table 6.1 Zipf distribution with a 10 KB mean.

use crate::dist::{gaussian, ZipfSizes};
use pc_geom::{Point, Rect};
use pc_rtree::{ObjectId, ObjectStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which synthetic dataset to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// NE substitute (clustered points).
    Ne,
    /// RD substitute (road-like segments).
    Rd,
    /// Uniform control.
    Uniform,
}

impl DatasetKind {
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Ne => "NE-like",
            DatasetKind::Rd => "RD-like",
            DatasetKind::Uniform => "uniform",
        }
    }

    /// The paper's cardinality for this dataset (uniform defaults to NE's).
    pub fn paper_cardinality(&self) -> usize {
        match self {
            DatasetKind::Ne | DatasetKind::Uniform => 123_593,
            DatasetKind::Rd => 594_103,
        }
    }

    pub fn generate(&self, n: usize, seed: u64) -> ObjectStore {
        match self {
            DatasetKind::Ne => ne_like(n, seed),
            DatasetKind::Rd => rd_like(n, seed),
            DatasetKind::Uniform => uniform(n, seed),
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.0, 1.0)
}

/// Minimum spacing between NE-like centroids. Real postal-zone centroids
/// never coincide — adjacent zones sit hundreds of meters apart, i.e.
/// ~1e-4 of the normalized space. This *inhibition* is what makes the
/// paper's 5e-5 distance join nearly result-free (a pure index/CPU
/// stressor); a plain gaussian mixture would pile points arbitrarily close
/// and turn every join into a megabyte-scale download, wrecking every
/// byte-metric shape.
const NE_MIN_SPACING: f64 = 1.5e-4;

/// The grid for min-distance (hard-core) thinning: a cell is one minimum
/// spacing wide, so whatever is too close to a point lies in the 3 × 3
/// cells around it. One open-addressed, linearly probed table, allocated
/// once from the number of points to come; a slot holds the id of a placed
/// object, whose point is read back from the store being filled. A cell
/// may hold several points (forced accepts pile up in saturated cluster
/// cores): they are the slots of its probe run whose point keys to it.
struct SpacingGrid {
    cell: f64,
    /// [`Self::EMPTY`] or an object id. A power of two, at least twice the
    /// points to come, so every probe run ends at an empty slot.
    slots: Vec<u32>,
}

impl SpacingGrid {
    const EMPTY: u32 = u32::MAX;

    fn new(cell: f64, points: usize) -> Self {
        SpacingGrid {
            cell,
            slots: vec![Self::EMPTY; (2 * points).max(2).next_power_of_two()],
        }
    }

    fn key(&self, p: &Point) -> (i32, i32) {
        ((p.x / self.cell) as i32, (p.y / self.cell) as i32)
    }

    /// Where cell `key`'s probe run starts: Fibonacci hashing of the two
    /// cell coordinates side by side, top bits of the product.
    fn home(&self, key: (i32, i32)) -> usize {
        let packed = (key.0 as u32 as u64) << 32 | key.1 as u32 as u64;
        let bits = self.slots.len().trailing_zeros();
        (packed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits)) as usize
    }

    /// Whether an object of `placed` lies closer than `dist` to `p`.
    fn too_close(&self, p: &Point, dist: f64, placed: &ObjectStore) -> bool {
        let (kx, ky) = self.key(p);
        let mask = self.slots.len() - 1;
        for dx in -1..=1 {
            for dy in -1..=1 {
                let cell = (kx + dx, ky + dy);
                let mut slot = self.home(cell);
                while self.slots[slot] != Self::EMPTY {
                    let q = *placed.mins().get(self.slots[slot] as usize);
                    if q.dist(p) < dist && self.key(&q) == cell {
                        return true;
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
        false
    }

    /// Records object `id`, placed at `p`.
    fn insert(&mut self, p: &Point, id: ObjectId) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(self.key(p));
        while self.slots[slot] != Self::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = id.0;
    }
}

/// NE substitute: `n` postal-zone centroids drawn from three metro-area
/// mixtures (weights 0.5/0.3/0.2), each with 8–14 gaussian sub-clusters,
/// thinned to a hard-core minimum spacing (`NE_MIN_SPACING`).
pub fn ne_like(n: usize, seed: u64) -> ObjectStore {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4e45);
    let sizes = ZipfSizes::paper();

    // Metro centers roughly along a diagonal corridor (NYC/Philly/Boston
    // sit on a line; the exact placement is irrelevant, the skew is not).
    let metros = [
        (Point::new(0.30, 0.35), 0.5),
        (Point::new(0.55, 0.55), 0.3),
        (Point::new(0.75, 0.80), 0.2),
    ];
    let mut subcenters: Vec<(Point, f64)> = Vec::new();
    for (center, weight) in metros {
        let k = rng.random_range(8..=14);
        for _ in 0..k {
            let c = Point::new(
                clamp01(gaussian(&mut rng, center.x, 0.07)),
                clamp01(gaussian(&mut rng, center.y, 0.07)),
            );
            subcenters.push((c, weight / k as f64));
        }
    }
    let total_w: f64 = subcenters.iter().map(|(_, w)| w).sum();

    let mut grid = SpacingGrid::new(NE_MIN_SPACING, n);
    let mut store = ObjectStore::default();
    for _ in 0..n {
        let mut p = Point::new(0.5, 0.5);
        for attempt in 0..64 {
            // Pick a sub-cluster by weight; widen the spread on retries
            // so saturated cluster cores spill outward instead of
            // looping forever.
            let mut u: f64 = rng.random_range(0.0..total_w);
            let mut chosen = subcenters[0].0;
            for (c, w) in &subcenters {
                if u < *w {
                    chosen = *c;
                    break;
                }
                u -= w;
            }
            let sigma = 0.012 * (1.0 + attempt as f64 * 0.25);
            p = Point::new(
                clamp01(gaussian(&mut rng, chosen.x, sigma)),
                clamp01(gaussian(&mut rng, chosen.y, sigma)),
            );
            if !grid.too_close(&p, NE_MIN_SPACING, &store) {
                break;
            }
        }
        // After 64 failed placements the last draw stands, too close or not.
        let id = store.push(Rect::from_point(p), sizes.sample(&mut rng));
        grid.insert(&p, id);
    }
    store
}

/// RD substitute: `n` thin road segments along a jittered grid of streets
/// plus a few diagonal highways.
pub fn rd_like(n: usize, seed: u64) -> ObjectStore {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5244);
    let sizes = ZipfSizes::paper();

    // Street network: horizontal and vertical lines at jittered offsets,
    // plus diagonal highways.
    #[derive(Clone, Copy)]
    enum Road {
        H(f64),          // y = const
        V(f64),          // x = const
        Diag(f64, bool), // y = ±x + offset
    }
    let mut roads = Vec::new();
    let streets = 40;
    for i in 0..streets {
        let at = (i as f64 + rng.random_range(0.1..0.9)) / streets as f64;
        roads.push(Road::H(at));
        let at = (i as f64 + rng.random_range(0.1..0.9)) / streets as f64;
        roads.push(Road::V(at));
    }
    for _ in 0..6 {
        roads.push(Road::Diag(
            rng.random_range(-0.5..0.5),
            rng.random_bool(0.5),
        ));
    }

    // Segments sit at regular slots along their road with a small jitter,
    // mirroring how real road segments tile a carriageway end to end
    // (random placement would Poisson-clump segments into heaps of
    // sub-5e-5 join pairs that real road data does not have; crossings
    // between different roads still contribute a few genuine pairs).
    let per_road = (n / roads.len()).max(1);
    let mut store = ObjectStore::default();
    for i in 0..n {
        let road = roads[i % roads.len()];
        let slot = (i / roads.len()) % per_road;
        let spacing = 1.0 / per_road as f64;
        let along: f64 = (slot as f64 + rng.random_range(0.1..0.9)) * spacing;
        let len: f64 = rng.random_range(0.002f64..0.010).min(spacing * 0.8);
        let width: f64 = rng.random_range(0.0001..0.0005);
        let mbr = match road {
            Road::H(y) => {
                let y = clamp01(y + gaussian(&mut rng, 0.0, 0.001));
                Rect::from_coords(
                    clamp01(along),
                    clamp01(y - width / 2.0),
                    clamp01(along + len),
                    clamp01(y + width / 2.0),
                )
            }
            Road::V(x) => {
                let x = clamp01(x + gaussian(&mut rng, 0.0, 0.001));
                Rect::from_coords(
                    clamp01(x - width / 2.0),
                    clamp01(along),
                    clamp01(x + width / 2.0),
                    clamp01(along + len),
                )
            }
            Road::Diag(off, up) => {
                let x = along;
                let y = if up { x + off } else { 1.0 - x + off };
                Rect::from_coords(
                    clamp01(x),
                    clamp01(y),
                    clamp01(x + len / 1.4),
                    clamp01(y + len / 1.4),
                )
            }
        };
        store.push(mbr, sizes.sample(&mut rng));
    }
    store
}

/// Uniform control dataset: point objects spread evenly.
pub fn uniform(n: usize, seed: u64) -> ObjectStore {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x554e);
    let sizes = ZipfSizes::paper();
    let mut store = ObjectStore::default();
    for _ in 0..n {
        let at = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        store.push(Rect::from_point(at), sizes.sample(&mut rng));
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(store: &ObjectStore) -> f64 {
        // Mean squared distance from the centroid — a crude dispersion
        // measure that separates clustered from uniform data.
        let n = store.len() as f64;
        let cx = store.iter().map(|o| o.mbr.center().x).sum::<f64>() / n;
        let cy = store.iter().map(|o| o.mbr.center().y).sum::<f64>() / n;
        store
            .iter()
            .map(|o| {
                let c = o.mbr.center();
                (c.x - cx).powi(2) + (c.y - cy).powi(2)
            })
            .sum::<f64>()
            / n
    }

    #[test]
    fn cardinalities_and_bounds() {
        for kind in [DatasetKind::Ne, DatasetKind::Rd, DatasetKind::Uniform] {
            let store = kind.generate(2000, 9);
            assert_eq!(store.len(), 2000, "{kind}");
            for o in store.iter() {
                assert!(Rect::UNIT.contains_rect(&o.mbr), "{kind}: {:?}", o.mbr);
            }
        }
    }

    #[test]
    fn sizes_average_near_ten_kb() {
        let store = ne_like(20_000, 1);
        let mean = store.total_bytes() as f64 / store.len() as f64;
        assert!((mean - 10_240.0).abs() < 500.0, "mean {mean}");
    }

    #[test]
    fn ne_is_clustered_relative_to_uniform() {
        let ne = ne_like(5000, 2);
        let un = uniform(5000, 2);
        assert!(
            spread(&ne) < spread(&un) * 0.8,
            "NE-like should be visibly clustered: {} vs {}",
            spread(&ne),
            spread(&un)
        );
    }

    #[test]
    fn rd_objects_are_thin() {
        let rd = rd_like(3000, 3);
        let thin = rd
            .iter()
            .filter(|o| {
                let w = o.mbr.width();
                let h = o.mbr.height();
                w.min(h) <= 0.001
            })
            .count();
        // Grid segments are thin; diagonals are small squares. Most must be
        // thin.
        assert!(thin * 10 >= rd.len() * 8, "{thin}/{}", rd.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ne_like(500, 7);
        let b = ne_like(500, 7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        let c = ne_like(500, 8);
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }

    /// FNV-1a over every object in id order: the bits of the four MBR
    /// coordinates, `size_bytes`, `id`.
    fn digest(store: &ObjectStore) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for o in store.iter() {
            for c in [o.mbr.min.x, o.mbr.min.y, o.mbr.max.x, o.mbr.max.y] {
                eat(c.to_bits());
            }
            eat(o.size_bytes as u64);
            eat(o.id.0 as u64);
        }
        h
    }

    #[test]
    fn datasets_match_their_recorded_digests() {
        // Recorded at 738a6eb (debug and release), before the generators
        // were rewritten: every figure, BPT pin and benchmark model metric
        // is taken over these exact worlds. The NE digests cover the
        // forced accepts after 64 failed placements.
        let got = [
            digest(&ne_like(123_593, 2005)),
            digest(&ne_like(20_000, 2005)),
            digest(&rd_like(50_000, 2005)),
            digest(&uniform(20_000, 2005)),
        ];
        let want = [
            0x2405_396c_cb29_3960u64,
            0xa0e0_d446_519c_bf6a,
            0x57da_00d9_9a96_25fd,
            0xf09e_d1bf_89f6_d387,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn paper_cardinalities_match_the_paper() {
        assert_eq!(DatasetKind::Ne.paper_cardinality(), 123_593);
        assert_eq!(DatasetKind::Rd.paper_cardinality(), 594_103);
    }
}

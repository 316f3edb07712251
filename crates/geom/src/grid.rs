//! A fixed `g × g` tile grid over the unit square — the spatial
//! partitioning substrate for the sharded cluster: tiles map to shards,
//! objects live on every shard whose tiles their MBR covers, and query
//! windows decompose into the tile ranges they intersect.
//!
//! Tiles are half-open along interior boundaries and closed at the top
//! edge of the space, so every point of `[0,1]²` belongs to exactly one
//! tile while rectangles *crossing* a boundary cover the tiles on both
//! sides (the straddler-replication rule the router's dedup relies on).
//! This makes ownership sound: any point shared by an object MBR and a
//! query window lives in a tile that both of their covers contain.

use crate::{Coord, Point, Rect};

/// A `g × g` uniform grid of tiles over `[0,1] × [0,1]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    g: u32,
}

impl TileGrid {
    /// A grid with `g` tiles per axis (`g ≥ 1`).
    pub fn new(g: u32) -> Self {
        assert!(g >= 1, "a tile grid needs at least one tile per axis");
        TileGrid { g }
    }

    /// Total tile count (`g²`).
    pub fn tiles(&self) -> u32 {
        self.g * self.g
    }

    /// Side length of one tile.
    pub fn tile_size(&self) -> Coord {
        1.0 / self.g as Coord
    }

    /// The closed rectangle of tile `(tx, ty)`.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> Rect {
        debug_assert!(tx < self.g && ty < self.g);
        let s = self.tile_size();
        Rect::from_coords(
            tx as Coord * s,
            ty as Coord * s,
            (tx + 1) as Coord * s,
            (ty + 1) as Coord * s,
        )
    }

    /// Row-major index of tile `(tx, ty)`.
    pub fn index(&self, tx: u32, ty: u32) -> u32 {
        debug_assert!(tx < self.g && ty < self.g);
        ty * self.g + tx
    }

    /// The tile containing `p`, clamped into the grid (points at or beyond
    /// the top/right edge land in the last tile, so every point of the
    /// plane owns exactly one tile).
    pub fn tile_of_point(&self, p: &Point) -> (u32, u32) {
        (self.axis_tile(p.x), self.axis_tile(p.y))
    }

    fn axis_tile(&self, c: Coord) -> u32 {
        // Clamp, then truncate: for a non-negative value the cast *is* the
        // floor (and it saturates), without the libm call `floor` costs
        // on every routed object.
        ((c * self.g as Coord).max(0.0) as u32).min(self.g - 1)
    }

    /// Iterates the tiles `r` covers (intersects with positive or zero
    /// extent), in row-major order. A rectangle lying exactly on an
    /// interior boundary covers the tiles on both sides.
    pub fn cover(&self, r: &Rect) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (x0, y0) = self.tile_of_point(&r.min);
        let (x1, y1) = self.tile_of_point(&r.max);
        (y0..=y1).flat_map(move |ty| (x0..=x1).map(move |tx| (tx, ty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_map_to_their_tile() {
        let g = TileGrid::new(4);
        assert_eq!(g.tiles(), 16);
        assert_eq!(g.tile_of_point(&Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.tile_of_point(&Point::new(0.26, 0.74)), (1, 2));
        // Top/right edges clamp into the last tile.
        assert_eq!(g.tile_of_point(&Point::new(1.0, 1.0)), (3, 3));
        assert_eq!(g.tile_of_point(&Point::new(1.7, -0.2)), (3, 0));
    }

    #[test]
    fn tile_rects_tile_the_unit_square() {
        let g = TileGrid::new(3);
        let mut area = 0.0;
        for ty in 0..3 {
            for tx in 0..3 {
                area += g.tile_rect(tx, ty).area();
            }
        }
        assert!((area - 1.0).abs() < 1e-12);
        assert_eq!(g.tile_rect(0, 0).max, g.tile_rect(1, 1).min);
    }

    #[test]
    fn cover_is_the_intersecting_tile_block() {
        let g = TileGrid::new(4);
        let r = Rect::from_coords(0.3, 0.3, 0.6, 0.4);
        let got: Vec<(u32, u32)> = g.cover(&r).collect();
        assert_eq!(got, vec![(1, 1), (2, 1)]);
        // Each covered tile really intersects, and the others don't.
        for ty in 0..4 {
            for tx in 0..4 {
                assert_eq!(
                    g.tile_rect(tx, ty).intersects(&r),
                    got.contains(&(tx, ty)),
                    "tile ({tx},{ty})"
                );
            }
        }
    }

    #[test]
    fn boundary_rects_cover_both_sides() {
        // A rect crossing the 2×2 center corner covers all 4 tiles; a
        // degenerate point rect exactly on the boundary owns just the
        // high-side tile (half-open interior boundaries).
        let g = TileGrid::new(2);
        let crossing = Rect::centered_square(Point::new(0.5, 0.5), 0.04);
        let got: Vec<(u32, u32)> = g.cover(&crossing).collect();
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        let on_boundary = Rect::from_point(Point::new(0.5, 0.5));
        assert_eq!(g.cover(&on_boundary).collect::<Vec<_>>(), vec![(1, 1)]);
    }

    #[test]
    fn single_tile_grid_owns_everything() {
        let g = TileGrid::new(1);
        assert_eq!(g.tiles(), 1);
        assert_eq!(g.cover(&Rect::UNIT).count(), 1);
        assert_eq!(g.tile_of_point(&Point::new(0.99, 0.01)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_grid_is_rejected() {
        TileGrid::new(0);
    }
}

//! SEM: semantic caching (§2, §6.1). Range queries are trimmed against
//! cached range regions (Ren & Dunham \[15\]) and the remainder pieces are
//! fetched and cached as new regions under FAR replacement; kNN queries are
//! reused through the validity-circle scheme of Zheng & Lee \[20\]; join
//! queries pass straight through.
//!
//! By construction the cache helps "subsequent queries of the same type
//! only" — a cached range region never answers a kNN and vice versa —
//! which is precisely the weakness proactive caching removes (Example 1.2).

use crate::BaselineAnswer;
use pc_geom::{Point, Rect};
use pc_net::Ledger;
use pc_rtree::proto::{QuerySpec, Request, OBJECT_HEADER_BYTES, PAIR_BYTES, QUERY_DESC_BYTES};
use pc_rtree::ObjectId;
use pc_server::{ClientId, ServerHandle};
use std::collections::{HashMap, HashSet};

/// Above this many remainder fragments the client coalesces: it submits
/// the whole window and replaces the overlapping regions (the paper notes
/// semantic caching "entails complicated cache management … whether to
/// coalesce these two queries or to trim either of them"; this is the
/// standard bounded-fragmentation compromise).
pub const MAX_FRAGMENTS: usize = 16;

/// Wire/storage cost of one semantic description.
const REGION_DESC_BYTES: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq)]
struct CachedObj {
    id: ObjectId,
    mbr: Rect,
    size: u32,
}

#[derive(Clone, Debug)]
enum Region {
    /// A rectangle the client has complete knowledge of.
    Range { rect: Rect, objects: Vec<CachedObj> },
    /// A kNN result: complete knowledge of the disc around `center` with
    /// `radius` = distance of the k-th neighbor.
    Knn {
        center: Point,
        radius: f64,
        objects: Vec<CachedObj>, // sorted by distance from `center`
    },
}

impl Region {
    fn bytes(&self) -> u64 {
        let objs = match self {
            Region::Range { objects, .. } | Region::Knn { objects, .. } => objects,
        };
        REGION_DESC_BYTES
            + objs
                .iter()
                .map(|o| OBJECT_HEADER_BYTES + o.size as u64)
                .sum::<u64>()
    }

    fn center(&self) -> Point {
        match self {
            Region::Range { rect, .. } => rect.center(),
            Region::Knn { center, .. } => *center,
        }
    }
}

/// The semantic cache: a set of regions with FAR replacement.
#[derive(Clone, Debug)]
pub struct SemanticCache {
    capacity: u64,
    used: u64,
    regions: Vec<Region>,
    /// Reference counts so `contains_object` is O(1) (an object can sit in
    /// several regions when it straddles their borders).
    resident: HashMap<ObjectId, u32>,
}

impl SemanticCache {
    pub fn new(capacity: u64) -> Self {
        SemanticCache {
            capacity,
            used: 0,
            regions: Vec::new(),
            resident: HashMap::new(),
        }
    }

    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn contains_object(&self, id: ObjectId) -> bool {
        self.resident.contains_key(&id)
    }

    /// Runs one query through the SEM protocol; `pos` is the client's
    /// current position (FAR victims are picked against it).
    pub fn query(
        &mut self,
        server: &dyn ServerHandle,
        client: ClientId,
        spec: &QuerySpec,
        pos: Point,
        server_time_s: f64,
    ) -> BaselineAnswer {
        match *spec {
            QuerySpec::Range { window } => {
                self.query_range(server, client, window, pos, server_time_s)
            }
            QuerySpec::Knn { center, k } => {
                self.query_knn(server, client, center, k, pos, server_time_s)
            }
            QuerySpec::Join { dist } => self.query_join(server, client, dist, server_time_s),
        }
    }

    // ------------------------------------------------------------------
    // Range: trim against cached regions, fetch the remainder pieces
    // ------------------------------------------------------------------

    fn query_range(
        &mut self,
        server: &dyn ServerHandle,
        client: ClientId,
        window: Rect,
        pos: Point,
        server_time_s: f64,
    ) -> BaselineAnswer {
        // Local hits from overlapping *range* regions.
        let mut answer_ids: HashSet<ObjectId> = HashSet::new();
        let mut answer: Vec<ObjectId> = Vec::new();
        let mut saved_bytes = 0u64;
        for r in &self.regions {
            if let Region::Range { rect, objects } = r {
                if !rect.intersects(&window) {
                    continue;
                }
                for o in objects {
                    if o.mbr.intersects(&window) && answer_ids.insert(o.id) {
                        answer.push(o.id);
                        saved_bytes += o.size as u64;
                    }
                }
            }
        }

        // Remainder = window minus the union of cached range rectangles.
        let mut pieces = vec![window];
        for r in &self.regions {
            if let Region::Range { rect, .. } = r {
                let mut next = Vec::with_capacity(pieces.len() + 3);
                for p in &pieces {
                    p.subtract(rect, &mut next);
                }
                pieces = next;
                if pieces.is_empty() {
                    break;
                }
            }
        }

        let locally_served = answer.clone();
        let mut cached_results = answer.clone();

        let mut ledger = Ledger {
            saved_bytes,
            server_time_s,
            ..Default::default()
        };

        if pieces.is_empty() {
            // Fully covered: answered without contacting the server.
            return BaselineAnswer {
                ledger,
                objects: answer.clone(),
                pairs: Vec::new(),
                cached_results,
                locally_served: answer,
            };
        }

        let coalesce = pieces.len() > MAX_FRAGMENTS;
        if coalesce {
            pieces = vec![window];
        }

        ledger.contacted_server = true;
        ledger.contacts = pieces.len() as u32;
        ledger.uplink_bytes = QUERY_DESC_BYTES + pieces.len() as u64 * REGION_DESC_BYTES;

        // Fetch each piece; collect the new regions to insert.
        let snap = server.core().pin();
        let store = snap.store();
        let mut new_regions: Vec<Region> = Vec::with_capacity(pieces.len());
        for piece in &pieces {
            let outcome = server
                .call(client, Request::Direct(QuerySpec::Range { window: *piece }))
                .into_direct();
            let mut objs = Vec::with_capacity(outcome.results.len());
            for &id in &outcome.results {
                let so = store.get(id);
                objs.push(CachedObj {
                    id,
                    mbr: so.mbr,
                    size: so.size_bytes,
                });
                if answer_ids.insert(id) {
                    answer.push(id);
                    ledger.transmitted.push(so.size_bytes);
                    ledger.transmitted_header_bytes += OBJECT_HEADER_BYTES;
                    // A result SEM retransmits despite holding the payload
                    // (e.g. cached under a kNN region): a false miss.
                    if self.resident.contains_key(&id) {
                        cached_results.push(id);
                    }
                } else {
                    // Already served locally (or by an earlier piece): the
                    // server cannot know and sends it anyway — wasted
                    // bandwidth, not result bytes.
                    ledger.extra_downlink_bytes += OBJECT_HEADER_BYTES + so.size_bytes as u64;
                }
            }
            new_regions.push(Region::Range {
                rect: *piece,
                objects: objs,
            });
        }

        if coalesce {
            // Replace every range region overlapping the window.
            self.retain_regions(|r| match r {
                Region::Range { rect, .. } => !rect.intersects(&window),
                Region::Knn { .. } => true,
            });
        }
        for r in new_regions {
            self.insert_region(r, pos);
        }

        BaselineAnswer {
            ledger,
            objects: answer,
            pairs: Vec::new(),
            cached_results,
            locally_served,
        }
    }

    // ------------------------------------------------------------------
    // kNN: validity-circle reuse (Zheng & Lee)
    // ------------------------------------------------------------------

    fn query_knn(
        &mut self,
        server: &dyn ServerHandle,
        client: ClientId,
        center: Point,
        k: u32,
        pos: Point,
        server_time_s: f64,
    ) -> BaselineAnswer {
        let k = k as usize;
        // Try every cached kNN region: the k nearest cached objects to the
        // new point are globally correct iff their k-th distance fits
        // inside the region's validity circle shifted by the displacement.
        for r in &self.regions {
            let Region::Knn {
                center: c,
                radius,
                objects,
            } = r
            else {
                continue;
            };
            if objects.len() < k {
                continue;
            }
            let shift = c.dist(&center);
            let mut by_dist: Vec<(f64, &CachedObj)> = objects
                .iter()
                .map(|o| (o.mbr.min_dist(&center), o))
                .collect();
            by_dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.id.cmp(&b.1.id)));
            let dk = by_dist[k - 1].0;
            if dk + shift <= *radius {
                // Valid: answer fully from the cache.
                let answer: Vec<ObjectId> = by_dist[..k].iter().map(|(_, o)| o.id).collect();
                let saved_bytes = by_dist[..k].iter().map(|(_, o)| o.size as u64).sum();
                return BaselineAnswer {
                    ledger: Ledger {
                        saved_bytes,
                        ..Default::default()
                    },
                    objects: answer.clone(),
                    pairs: Vec::new(),
                    cached_results: answer.clone(),
                    locally_served: answer,
                };
            }
        }

        // Miss: the complete query goes to the server and every result is
        // retransmitted, cached or not (Example 1.2's penalty).
        let outcome = server
            .call(
                client,
                Request::Direct(QuerySpec::Knn {
                    center,
                    k: k as u32,
                }),
            )
            .into_direct();
        let mut ledger = Ledger {
            uplink_bytes: QUERY_DESC_BYTES,
            contacted_server: true,
            contacts: 1,
            server_time_s,
            ..Default::default()
        };
        let mut objs = Vec::with_capacity(outcome.results.len());
        let mut answer = Vec::with_capacity(outcome.results.len());
        let mut cached_results = Vec::new();
        let mut radius = 0.0f64;
        let snap = server.core().pin();
        let store = snap.store();
        for &id in &outcome.results {
            let so = store.get(id);
            ledger.transmitted.push(so.size_bytes);
            ledger.transmitted_header_bytes += OBJECT_HEADER_BYTES;
            answer.push(id);
            // Example 1.2's penalty: cached results are retransmitted in
            // full because kNN cannot be trimmed from other query types.
            if self.resident.contains_key(&id) {
                cached_results.push(id);
            }
            radius = radius.max(so.mbr.min_dist(&center));
            objs.push(CachedObj {
                id,
                mbr: so.mbr,
                size: so.size_bytes,
            });
        }
        if !objs.is_empty() {
            self.insert_region(
                Region::Knn {
                    center,
                    radius,
                    objects: objs,
                },
                pos,
            );
        }
        BaselineAnswer {
            ledger,
            objects: answer,
            pairs: Vec::new(),
            cached_results,
            locally_served: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Join: pass-through (§6.1)
    // ------------------------------------------------------------------

    fn query_join(
        &mut self,
        server: &dyn ServerHandle,
        client: ClientId,
        dist: f64,
        server_time_s: f64,
    ) -> BaselineAnswer {
        let outcome = server
            .call(client, Request::Direct(QuerySpec::Join { dist }))
            .into_direct();
        let mut ledger = Ledger {
            uplink_bytes: QUERY_DESC_BYTES,
            contacted_server: true,
            contacts: 1,
            server_time_s,
            ..Default::default()
        };
        let mut answer = Vec::with_capacity(outcome.results.len());
        let mut cached_results = Vec::new();
        let snap = server.core().pin();
        let store = snap.store();
        for &id in &outcome.results {
            let so = store.get(id);
            ledger.transmitted.push(so.size_bytes);
            ledger.transmitted_header_bytes += OBJECT_HEADER_BYTES;
            answer.push(id);
            if self.resident.contains_key(&id) {
                cached_results.push(id);
            }
        }
        ledger.extra_downlink_bytes += outcome.pairs.len() as u64 * PAIR_BYTES;
        BaselineAnswer {
            ledger,
            objects: answer,
            pairs: outcome.pairs,
            cached_results,
            locally_served: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Region bookkeeping + FAR replacement
    // ------------------------------------------------------------------

    fn insert_region(&mut self, region: Region, pos: Point) {
        let bytes = region.bytes();
        if bytes > self.capacity {
            return; // a region that can never fit is not cached
        }
        self.add_region(region);
        // FAR: evict the region farthest from the current position.
        while self.used > self.capacity {
            let victim = self
                .regions
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.center()
                        .dist(&pos)
                        .total_cmp(&b.center().dist(&pos))
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
                .expect("over capacity implies non-empty");
            self.drop_region(victim);
        }
    }

    fn add_region(&mut self, region: Region) {
        self.used += region.bytes();
        let objs = match &region {
            Region::Range { objects, .. } | Region::Knn { objects, .. } => objects.clone(),
        };
        for o in objs {
            *self.resident.entry(o.id).or_insert(0) += 1;
        }
        self.regions.push(region);
    }

    fn drop_region(&mut self, idx: usize) {
        let region = self.regions.swap_remove(idx);
        self.used -= region.bytes();
        let objs = match &region {
            Region::Range { objects, .. } | Region::Knn { objects, .. } => objects,
        };
        for o in objs {
            match self.resident.get_mut(&o.id) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.resident.remove(&o.id);
                }
            }
        }
    }

    fn retain_regions(&mut self, mut keep: impl FnMut(&Region) -> bool) {
        let mut i = 0;
        while i < self.regions.len() {
            if keep(&self.regions[i]) {
                i += 1;
            } else {
                self.drop_region(i);
            }
        }
    }

    /// Validation for tests: byte accounting and refcounts must agree with
    /// the region list.
    pub fn validate(&self) -> Result<(), String> {
        let sum: u64 = self.regions.iter().map(|r| r.bytes()).sum();
        if sum != self.used {
            return Err(format!("used {} != region sum {sum}", self.used));
        }
        if self.used > self.capacity {
            return Err("over capacity".into());
        }
        let mut counts: HashMap<ObjectId, u32> = HashMap::new();
        for r in &self.regions {
            let objs = match r {
                Region::Range { objects, .. } | Region::Knn { objects, .. } => objects,
            };
            for o in objs {
                *counts.entry(o.id).or_insert(0) += 1;
            }
        }
        if counts != self.resident {
            return Err("refcount drift".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;

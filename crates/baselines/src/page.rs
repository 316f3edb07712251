//! PAG: the page/object caching model (§2, §6.2). "Since no query
//! information is stored, page caching can only support equi-select queries
//! on the objects' keys" — so every spatial query goes to the server with
//! the full cached-id manifest, and the reward is the smallest downlink.

use crate::{call_direct, BaselineAnswer};
use pc_net::Ledger;
use pc_rtree::proto::{
    QuerySpec, Request, CONFIRM_BYTES, OBJECT_HEADER_BYTES, OBJECT_ID_BYTES, PAIR_BYTES,
};
use pc_rtree::ObjectId;
use pc_server::{ClientId, ServerHandle};
use std::collections::HashMap;

/// An LRU object cache addressed by id.
#[derive(Clone, Debug)]
pub struct PageCache {
    capacity: u64,
    used: u64,
    /// id → (payload bytes, last access tick)
    items: HashMap<ObjectId, (u32, u64)>,
    clock: u64,
}

impl PageCache {
    pub fn new(capacity: u64) -> Self {
        PageCache {
            capacity,
            used: 0,
            items: HashMap::new(),
            clock: 0,
        }
    }

    pub fn contains_object(&self, id: ObjectId) -> bool {
        self.items.contains_key(&id)
    }

    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Runs one query through the PAG protocol, shipped as a
    /// [`Request::Direct`] envelope over the handle's transport.
    ///
    /// Uplink: query descriptor + the ids of *all* cached objects.
    /// Downlink: confirmations for cached results, payloads for the rest.
    pub fn query(
        &mut self,
        server: &dyn ServerHandle,
        client: ClientId,
        spec: &QuerySpec,
        server_time_s: f64,
    ) -> BaselineAnswer {
        self.clock += 1;
        let req = Request::Direct(*spec);
        let uplink_bytes = req.wire_bytes() + self.items.len() as u64 * OBJECT_ID_BYTES;

        let (outcome, server_cpu_s) = call_direct(server, client, *spec);
        let objects = outcome.results;

        let mut ledger = Ledger {
            uplink_bytes,
            contacted_server: true,
            contacts: 1,
            server_time_s,
            ..Default::default()
        };
        let mut cached_results = Vec::new();
        let snap = server.core().pin();
        let store = snap.store();
        for &id in &objects {
            let size = store.get(id).size_bytes;
            if let Some(entry) = self.items.get_mut(&id) {
                entry.1 = self.clock;
                ledger.confirmed_bytes += size as u64;
                ledger.confirm_wire_bytes += CONFIRM_BYTES;
                cached_results.push(id);
            } else {
                ledger.transmitted.push(size);
                ledger.transmitted_header_bytes += OBJECT_HEADER_BYTES;
                self.insert(id, size);
            }
        }
        ledger.extra_downlink_bytes += outcome.pairs.len() as u64 * PAIR_BYTES;

        BaselineAnswer {
            ledger,
            objects,
            pairs: outcome.pairs,
            cached_results,
            // PAG stores no query semantics: nothing is ever served before
            // the server confirms (hit_c = 0, fmr = 1).
            locally_served: Vec::new(),
            server_cpu_s,
        }
    }

    fn insert(&mut self, id: ObjectId, size: u32) {
        if size as u64 > self.capacity {
            return; // would never fit
        }
        self.items.insert(id, (size, self.clock));
        self.used += size as u64;
        while self.used > self.capacity {
            let victim = self
                .items
                .iter()
                .min_by_key(|(k, (_, t))| (*t, k.0))
                .map(|(k, _)| *k)
                .expect("over capacity implies non-empty");
            let (sz, _) = self.items.remove(&victim).unwrap();
            self.used -= sz as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_geom::{Point, Rect};
    use pc_rtree::{naive, ObjectStore, RTreeConfig, SpatialObject};
    use pc_server::{Cluster, ServerConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn server(n: usize, seed: u64) -> Cluster {
        let mut rng = SmallRng::seed_from_u64(seed);
        let objects: Vec<SpatialObject> = (0..n)
            .map(|i| SpatialObject {
                id: ObjectId(i as u32),
                mbr: Rect::from_point(Point::new(
                    rng.random_range(0.0..1.0),
                    rng.random_range(0.0..1.0),
                )),
                size_bytes: rng.random_range(500..2000),
            })
            .collect();
        Cluster::single(
            ObjectStore::new(objects),
            RTreeConfig::small(),
            ServerConfig::default(),
        )
    }

    #[test]
    fn results_match_direct_and_cache_fills() {
        let server = server(200, 1);
        let mut pag = PageCache::new(1 << 20);
        let w = Rect::centered_square(Point::new(0.5, 0.5), 0.4);
        let spec = QuerySpec::Range { window: w };
        let a = pag.query(&server, 0, &spec, 0.0);
        let mut got = a.objects.clone();
        got.sort_unstable();
        assert_eq!(got, naive::range_naive(server.core().pin().store(), &w));
        assert_eq!(a.ledger.saved_bytes, 0, "PAG never answers locally");
        assert!(a.ledger.transmitted_bytes() > 0);
        assert!(!pag.is_empty());
    }

    #[test]
    fn repeat_query_confirms_instead_of_retransmitting() {
        let server = server(200, 2);
        let mut pag = PageCache::new(1 << 22);
        let spec = QuerySpec::Range {
            window: Rect::centered_square(Point::new(0.4, 0.4), 0.3),
        };
        let first = pag.query(&server, 0, &spec, 0.0);
        let second = pag.query(&server, 0, &spec, 0.0);
        assert_eq!(second.ledger.transmitted_bytes(), 0, "all cached now");
        assert_eq!(
            second.ledger.confirmed_bytes,
            first.ledger.transmitted_bytes()
        );
        // But the response still needs the round trip: hit_c stays zero.
        assert!(second.ledger.contacted_server);
    }

    #[test]
    fn uplink_grows_with_cache_population() {
        let server = server(300, 3);
        let mut pag = PageCache::new(1 << 22);
        let q1 = pag.query(
            &server,
            0,
            &QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.3, 0.3), 0.3),
            },
            0.0,
        );
        let q2 = pag.query(
            &server,
            0,
            &QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.7, 0.7), 0.3),
            },
            0.0,
        );
        assert!(
            q2.ledger.uplink_bytes > q1.ledger.uplink_bytes,
            "manifest grows with |C| (the Fig. 8 effect)"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let server = server(300, 4);
        let mut pag = PageCache::new(20_000);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..30 {
            let p = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            pag.query(&server, 0, &QuerySpec::Knn { center: p, k: 4 }, 0.0);
            assert!(pag.used_bytes() <= pag.capacity());
        }
    }

    #[test]
    fn join_objects_are_cached_too() {
        let server = server(150, 5);
        let mut pag = PageCache::new(1 << 22);
        let spec = QuerySpec::Join { dist: 0.05 };
        let first = pag.query(&server, 0, &spec, 0.0);
        if first.objects.is_empty() {
            return; // no pairs at this threshold for this seed
        }
        let second = pag.query(&server, 0, &spec, 0.0);
        assert_eq!(second.ledger.transmitted_bytes(), 0);
        assert_eq!(first.pairs, second.pairs);
    }
}

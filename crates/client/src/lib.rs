//! The mobile client of Fig. 3: runs stage ① (the generic engine over the
//! proactive cache, which is its own index view), constructs remainder
//! queries, and absorbs server replies into the cache (stage ③),
//! maintaining the §5.2 hit statistics along the way.

// The client ingests decoded wire replies, so nothing a peer sends may
// panic library code here, and each deliberate panic carries an
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

use pc_cache::{Catalog, InsertOutcome, ItemKey, ProactiveCache, ReplacementPolicy};
use pc_geom::Point;
use pc_rtree::engine::{execute_with, EngineScratch, NodeTrace};
use pc_rtree::proto::{QuerySpec, RemainderQuery, ServerReply};
use pc_rtree::ObjectId;

/// Result of stage ① on the client.
#[derive(Clone, Debug)]
pub struct LocalOutcome {
    /// The saved objects `Rs` — results confirmed purely from the cache.
    pub saved: Vec<ObjectId>,
    /// Join pairs confirmed locally.
    pub saved_pairs: Vec<(ObjectId, ObjectId)>,
    /// The remainder query, if the cache could not finish.
    pub remainder: Option<RemainderQuery>,
    /// Client-side cell expansions (CPU accounting, Fig. 9).
    pub expansions: u64,
}

impl LocalOutcome {
    /// Whether the query completed without contacting the server.
    pub fn complete(&self) -> bool {
        self.remainder.is_none()
    }
}

/// The assembled answer `R = Rs ∪ Rr` the user receives.
#[derive(Clone, Debug, Default)]
pub struct QueryAnswer {
    /// All result objects: saved first (zero response time), then
    /// confirmed / transmitted ones in server-reply order.
    pub objects: Vec<ObjectId>,
    /// All join result pairs.
    pub pairs: Vec<(ObjectId, ObjectId)>,
}

/// The client-side query processor plus its proactive cache.
#[derive(Clone, Debug)]
pub struct Client {
    cache: ProactiveCache,
    /// Query sequence id — the paper's `T` (§5.2).
    seq: u64,
    /// Reused engine buffers: one allocation set per client, not per query.
    scratch: EngineScratch,
    /// The nodes a `run_local` read: with its results, all its hit
    /// statistics read. The cell-level trace is the server's.
    trace: NodeTrace,
}

impl Client {
    pub fn new(capacity: u64, policy: ReplacementPolicy, catalog: Catalog) -> Self {
        Client {
            cache: ProactiveCache::new(capacity, policy, catalog),
            seq: 0,
            scratch: EngineScratch::default(),
            trace: NodeTrace::default(),
        }
    }

    pub fn cache(&self) -> &ProactiveCache {
        &self.cache
    }

    pub fn cache_mut(&mut self) -> &mut ProactiveCache {
        &mut self.cache
    }

    /// Current query sequence id.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Starts a new query: bumps the sequence id used for hit statistics.
    pub fn begin_query(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Full refresh (§7 extension): drops the entire cache and adopts a
    /// freshly synced catalog — the client's response to a
    /// `VersionedReply::FullRefresh` refusal, after which stage ① restarts
    /// cold. The query sequence id survives (hit statistics keep their
    /// clock). Returns `(items, bytes)` dropped.
    pub fn full_refresh(&mut self, catalog: Catalog) -> (usize, u64) {
        self.cache.full_refresh(catalog)
    }

    /// Stage ①: evaluates `spec` over the cache. All items the traversal
    /// used are marked as hit by this query.
    pub fn run_local(&mut self, spec: &QuerySpec) -> LocalOutcome {
        self.trace.clear();
        let outcome = execute_with(&self.cache, spec, &mut self.trace, &mut self.scratch);
        // Hit accounting: every node whose cells the traversal consulted,
        // plus every object confirmed as a saved result.
        let now = self.seq;
        for node in self.trace.nodes() {
            self.cache.touch(ItemKey::Node(node), now);
        }
        for &(id, _) in &outcome.results {
            self.cache.touch(ItemKey::Object(id), now);
        }
        LocalOutcome {
            saved: outcome.results.iter().map(|(id, _)| *id).collect(),
            saved_pairs: outcome.result_pairs,
            remainder: outcome.remainder,
            expansions: outcome.expansions,
        }
    }

    /// Stage ③: inserts `Rr` and `Ir` into the cache, evicting per policy.
    /// `pos` is the client's current position (used by FAR). Each new
    /// object goes under a leaf that lists it: one the reply ships, else
    /// one the last [`run_local`](Self::run_local) read — a server reaches
    /// an object only through a leaf it ships or one the client's run
    /// expanded. The reply stays whole, so the client holds its index
    /// twice until the caller drops it; the benchmark package's traced
    /// driver and tests read the reply this way. A client that is done
    /// with the index calls [`absorb_drain`](Self::absorb_drain).
    pub fn absorb(&mut self, reply: &ServerReply, pos: Point) -> InsertOutcome {
        self.cache.absorb(reply, self.trace.nodes(), self.seq, pos)
    }

    /// [`absorb`](Self::absorb), taking the reply's `index` (left empty)
    /// and dropping each shipment once it is merged; `confirmed`, `objects`
    /// and `pairs` stay for [`assemble`](Self::assemble).
    pub fn absorb_drain(&mut self, reply: &mut ServerReply, pos: Point) -> InsertOutcome {
        self.cache
            .absorb_drain(reply, self.trace.nodes(), self.seq, pos)
    }

    /// Assembles the user-visible answer from the local outcome and the
    /// (optional) server reply.
    pub fn assemble(&self, local: &LocalOutcome, reply: Option<&ServerReply>) -> QueryAnswer {
        let mut objects = local.saved.clone();
        let mut pairs = local.saved_pairs.clone();
        if let Some(r) = reply {
            objects.extend(r.confirmed.iter().copied());
            objects.extend(r.objects.iter().map(|o| o.id));
            pairs.extend(r.pairs.iter().copied());
        }
        // Join pairs can mention an object on both sides across stages;
        // the object list stays deduplicated in first-seen order.
        let mut seen = std::collections::HashSet::with_capacity(objects.len());
        objects.retain(|o| seen.insert(*o));
        pairs.sort_unstable();
        pairs.dedup();
        QueryAnswer { objects, pairs }
    }
}

#[cfg(test)]
mod tests;

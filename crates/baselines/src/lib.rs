//! The two baseline caching models of the paper's evaluation (§6):
//!
//! * **PAG** ([`PageCache`]) — classic page/object caching: the client
//!   caches result objects by id under LRU, ships its whole id manifest on
//!   every query ("PAG always has the highest uplink bytes since it needs
//!   to submit the identifiers of all cached objects"), and the server
//!   skips payloads for cached results. No query semantics ⇒ nothing can be
//!   answered before the server responds (`hit_c = 0`, fmr = 1).
//!
//! * **SEM** ([`SemanticCache`]) — semantic caching per Dar et al. \[7\] /
//!   Ren & Dunham \[15\] for range queries (query trimming against cached
//!   regions, FAR replacement) and Zheng & Lee \[20\] for kNN queries
//!   (validity-circle reuse). Join queries pass through untouched ("no
//!   semantic caching techniques are available for join queries").
//!
//! Both models answer through the same [`pc_net::Ledger`] byte accounting
//! as the proactive client, so every §6 metric is comparable.

mod page;
mod semantic;

pub use page::PageCache;
pub use semantic::{SemanticCache, MAX_FRAGMENTS};

use pc_net::Ledger;
use pc_rtree::proto::{DirectReply, QuerySpec, Request};
use pc_rtree::ObjectId;
use pc_server::{ClientId, ServerHandle};
use std::time::Instant;

/// A baseline's answer to one query: the byte ledger plus the user-visible
/// results.
#[derive(Clone, Debug, Default)]
pub struct BaselineAnswer {
    pub ledger: Ledger,
    pub objects: Vec<ObjectId>,
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Result objects whose payload was cached when the query was issued —
    /// the `R ∩ C` of §4.1, from which the simulator derives the byte hit
    /// rate and the false-miss rate.
    pub cached_results: Vec<ObjectId>,
    /// Result objects answered locally before any server contact (`Rs`).
    pub locally_served: Vec<ObjectId>,
    /// Wall-clock seconds spent inside `Transport::call`: the server's
    /// share of the query's CPU.
    pub server_cpu_s: f64,
}

/// One [`Request::Direct`] for `spec` over the handle's transport: the
/// server's answer and the wall-clock seconds the call took.
fn call_direct(server: &dyn ServerHandle, client: ClientId, spec: QuerySpec) -> (DirectReply, f64) {
    let t = Instant::now();
    let reply = server.call(client, Request::Direct(spec)).into_direct();
    (reply, t.elapsed().as_secs_f64())
}

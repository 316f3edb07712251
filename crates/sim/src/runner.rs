//! Model adapters: one uniform interface over PAG, SEM and the proactive
//! client so the simulation loop is model-agnostic. Runners never touch a
//! concrete `Cluster` — every byte that crosses the client/server boundary
//! travels as a `Request`/`Response` envelope through the
//! [`ServerHandle`]'s transport, so swapping the in-process path for a
//! cluster or a real network is invisible to them.

use crate::config::{CacheModel, SimConfig};
use pc_baselines::{BaselineAnswer, PageCache, SemanticCache};
use pc_cache::Catalog;
use pc_client::Client;
use pc_geom::Point;
use pc_net::Ledger;
use pc_rtree::proto::{
    QuerySpec, Request, VersionedReply, CONFIRM_BYTES, EPOCH_BYTES, FULL_REFRESH_BYTES,
    INVALIDATION_BYTES, OBJECT_HEADER_BYTES, PAIR_BYTES,
};
use pc_rtree::{NodeId, ObjectId};
use pc_server::{ClientId, ServerHandle, SUPER_ROOT};
use std::time::Instant;

/// What one query produced, regardless of model.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    pub ledger: Ledger,
    pub objects: Vec<ObjectId>,
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// `R ∩ C`: result objects cached at issue time.
    pub cached_results: Vec<ObjectId>,
    /// `Rs`: result objects served locally before any contact.
    pub locally_served: Vec<ObjectId>,
    /// Wall-clock seconds spent inside server calls (subtracted from the
    /// measured total to get client CPU).
    pub server_cpu_s: f64,
    pub client_expansions: u64,
    /// Extra round trips after stale refusals (versioned protocol only).
    pub stale_retries: u32,
    /// Full-refresh refusals suffered (the client fell below the server's
    /// pruned invalidation horizon and dropped its whole cache).
    pub full_refreshes: u32,
    /// Invalidation-list + epoch-stamp downlink bytes (versioned protocol
    /// only; also charged into the ledger's extra downlink).
    pub invalidation_bytes: u64,
    /// Cache items dropped by invalidation lists and full refreshes.
    pub invalidated_items: usize,
}

/// A caching model under simulation. `Send` so a fleet can drive one
/// runner per client session across worker threads.
pub trait ModelRunner: Send {
    fn run_query(
        &mut self,
        server: &dyn ServerHandle,
        spec: &QuerySpec,
        pos: Point,
        server_time_s: f64,
    ) -> RunOutput;

    /// Index bytes the cache holds, for the i/c series. PAG keeps none,
    /// and SEM's region descriptors are negligible, matching the paper's
    /// "Ir = Qr" remark: both keep this default.
    fn index_bytes(&self) -> u64 {
        0
    }
}

/// Builds the runner for one client of a configuration.
pub(crate) fn make_runner(
    cfg: &SimConfig,
    server: &dyn ServerHandle,
    capacity: u64,
    client: ClientId,
) -> Box<dyn ModelRunner> {
    match cfg.model {
        CacheModel::Page => Box::new(PageRunner {
            cache: PageCache::new(capacity),
            client,
        }),
        CacheModel::Semantic => Box::new(SemanticRunner {
            cache: SemanticCache::new(capacity),
            client,
        }),
        CacheModel::Proactive => {
            // Catalog and starting epoch come from one bootstrap read: the
            // client begins life synced to the world its catalog describes,
            // so its first contact is not spuriously refused as stale. For
            // a cluster the catalog points at the synthetic super-root.
            let (root, epoch) = server.bootstrap_root();
            Box::new(
                ProactiveRunner::new(capacity, cfg.policy, Catalog { root })
                    .with_client(client)
                    .versioned(cfg.versioned)
                    .at_epoch(epoch),
            )
        }
    }
}

// ---------------------------------------------------------------------
// PAG
// ---------------------------------------------------------------------

struct PageRunner {
    cache: PageCache,
    client: ClientId,
}

impl ModelRunner for PageRunner {
    fn run_query(
        &mut self,
        server: &dyn ServerHandle,
        spec: &QuerySpec,
        _pos: Point,
        server_time_s: f64,
    ) -> RunOutput {
        baseline_output(self.cache.query(server, self.client, spec, server_time_s))
    }
}

// ---------------------------------------------------------------------
// SEM
// ---------------------------------------------------------------------

struct SemanticRunner {
    cache: SemanticCache,
    client: ClientId,
}

impl ModelRunner for SemanticRunner {
    fn run_query(
        &mut self,
        server: &dyn ServerHandle,
        spec: &QuerySpec,
        pos: Point,
        server_time_s: f64,
    ) -> RunOutput {
        baseline_output(
            self.cache
                .query(server, self.client, spec, pos, server_time_s),
        )
    }
}

/// A baseline's answer as a run's output; the server CPU is what its
/// `Transport::call`s measured.
fn baseline_output(a: BaselineAnswer) -> RunOutput {
    RunOutput {
        ledger: a.ledger,
        objects: a.objects,
        pairs: a.pairs,
        cached_results: a.cached_results,
        locally_served: a.locally_served,
        server_cpu_s: a.server_cpu_s,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Proactive (FPRO / CPRO / APRO)
// ---------------------------------------------------------------------

/// The proactive pipeline wrapped as a runner; public because examples and
/// benches drive it directly.
pub struct ProactiveRunner {
    client: Client,
    /// The id this runner identifies as in remainder queries and fmr
    /// reports — it selects the server-side adaptive state (§4.3).
    client_id: ClientId,
    /// Speak the §7 versioned protocol: epoch-stamped contacts, cache
    /// invalidation + stage-① re-run + resubmit on `Stale`.
    versioned: bool,
    /// Last epoch this client synced to (versioned protocol only).
    pub(crate) epoch: u64,
}

impl ProactiveRunner {
    pub fn new(capacity: u64, policy: pc_cache::ReplacementPolicy, catalog: Catalog) -> Self {
        ProactiveRunner {
            client: Client::new(capacity, policy, catalog),
            client_id: 0,
            versioned: false,
            epoch: 0,
        }
    }

    /// Identifies this runner as `id` towards the server.
    pub fn with_client(mut self, id: ClientId) -> Self {
        self.client_id = id;
        self
    }

    /// Switches the §7 versioned-remainder protocol on or off.
    pub fn versioned(mut self, on: bool) -> Self {
        self.versioned = on;
        self
    }

    /// Declares the epoch this client's catalog/cache state was built
    /// from — its first versioned contact carries this stamp instead of
    /// claiming the (possibly long-gone) epoch 0.
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    pub fn client(&self) -> &Client {
        &self.client
    }

    pub fn client_id(&self) -> ClientId {
        self.client_id
    }

    /// Drops the cached views of `nodes`; returns the items dropped.
    fn invalidate(&mut self, nodes: &[NodeId]) -> usize {
        let cache = self.client.cache_mut();
        nodes
            .iter()
            .map(|&n| {
                // The virtual super-root is routing metadata: drop only
                // its own view. Its shard subtrees are versioned per shard
                // (each arrives with its own invalidation entries), and a
                // deep drop here would tear out views the in-flight
                // remainder heap still references.
                if n == SUPER_ROOT {
                    cache.invalidate_node_shallow(n).0
                } else {
                    cache.invalidate_node(n).0
                }
            })
            .sum()
    }
}

impl ModelRunner for ProactiveRunner {
    /// Fig. 3's one client↔server exchange: stage ① local run, stage ②
    /// remainder contact, stage ③ absorb. Under the §7 versioned protocol
    /// each contact's uplink carries the epoch stamp, each reply's
    /// invalidation list + epoch stamp land in the extra downlink, and a
    /// refused contact (stale or below the pruned horizon) cleans the
    /// cache and restarts stage ①, repeating the full uplink + server
    /// time. A plain reply is a fresh one with nothing to invalidate and
    /// no stamp.
    #[expect(
        clippy::panic,
        reason = "deliberate loud livelock cap: 64 straight stale retries means the workload config is broken (driver outpaces every query) and silently returning a partial result would corrupt the measurement"
    )]
    fn run_query(
        &mut self,
        server: &dyn ServerHandle,
        spec: &QuerySpec,
        pos: Point,
        server_time_s: f64,
    ) -> RunOutput {
        self.client.begin_query();
        let mut out = RunOutput::default();
        // A stale refusal advances the client to the refusing epoch, so
        // each retry needs a *new* epoch to land mid-query to repeat; the
        // churn driver's pacing makes long runs vanishingly unlikely, and
        // the cap turns a livelock into a loud failure.
        for _attempt in 0..64 {
            // Re-pinned every attempt: after a refusal the next contact is
            // answered by a newer epoch, so byte sizing must read a store
            // at least as new as the reply — never the pre-query pin.
            let snap = server.core().pin();
            let store = snap.store();
            let local = self.client.run_local(spec);
            out.ledger.saved_bytes = local
                .saved
                .iter()
                .map(|&id| store.get(id).size_bytes as u64)
                .sum();
            out.client_expansions = local.expansions;
            let Some(rq) = &local.remainder else {
                let answer = self.client.assemble(&local, None);
                out.objects = answer.objects;
                out.pairs = answer.pairs;
                out.cached_results = local.saved.clone();
                out.locally_served = local.saved;
                return out;
            };
            let req = if self.versioned {
                Request::RemainderVersioned {
                    query: rq.clone(),
                    epoch: self.epoch,
                }
            } else {
                Request::Remainder(rq.clone())
            };
            out.ledger.contacted_server = true;
            out.ledger.contacts += 1;
            out.ledger.uplink_bytes += req.wire_bytes();
            out.ledger.server_time_s += server_time_s;
            let t = Instant::now();
            let resp = server.call(self.client_id, req);
            out.server_cpu_s += t.elapsed().as_secs_f64();
            // `stamp` is the epoch stamp every versioned reply carries.
            let (resp, stamp) = if self.versioned {
                (resp.into_versioned(), EPOCH_BYTES)
            } else {
                let fresh = VersionedReply::Fresh {
                    reply: resp.into_remainder(),
                    invalidate: Vec::new(),
                    epoch: self.epoch,
                };
                (fresh, 0)
            };
            match resp {
                VersionedReply::Fresh {
                    mut reply,
                    invalidate,
                    epoch,
                } => {
                    let inv = invalidate.len() as u64 * INVALIDATION_BYTES + stamp;
                    out.invalidation_bytes += inv;
                    out.invalidated_items += self.invalidate(&invalidate);
                    self.epoch = epoch;
                    out.ledger.confirmed_bytes = reply
                        .confirmed
                        .iter()
                        .map(|&id| store.get(id).size_bytes as u64)
                        .sum();
                    out.ledger.confirm_wire_bytes = reply.confirmed.len() as u64 * CONFIRM_BYTES;
                    out.ledger.transmitted = reply.objects.iter().map(|o| o.size_bytes).collect();
                    out.ledger.transmitted_header_bytes =
                        reply.objects.len() as u64 * OBJECT_HEADER_BYTES;
                    out.ledger.extra_downlink_bytes +=
                        reply.index_bytes() + reply.pairs.len() as u64 * PAIR_BYTES + inv;
                    out.cached_results = local.saved.clone();
                    out.cached_results.extend(reply.confirmed.iter().copied());
                    self.client.absorb_drain(&mut reply, pos);
                    let answer = self.client.assemble(&local, Some(&reply));
                    out.objects = answer.objects;
                    out.pairs = answer.pairs;
                    out.locally_served = local.saved;
                    return out;
                }
                VersionedReply::Stale { invalidate, epoch } => {
                    out.stale_retries += 1;
                    let inv = invalidate.len() as u64 * INVALIDATION_BYTES + EPOCH_BYTES;
                    out.invalidation_bytes += inv;
                    out.ledger.extra_downlink_bytes += inv;
                    out.invalidated_items += self.invalidate(&invalidate);
                    self.epoch = epoch;
                    // Loop: re-run stage ① against the cleaned cache.
                }
                VersionedReply::FullRefresh { .. } => {
                    // The server pruned invalidation history below our
                    // epoch: no per-node list exists. Drop the whole cache,
                    // re-sync the catalog from a fresh pin (out-of-band
                    // metadata, like the bootstrap catalog) and restart
                    // stage ① cold. The refusal's fixed wire cost is
                    // charged; re-warming shows up on later queries.
                    out.full_refreshes += 1;
                    out.invalidation_bytes += FULL_REFRESH_BYTES;
                    out.ledger.extra_downlink_bytes += FULL_REFRESH_BYTES;
                    let (root, epoch) = server.bootstrap_root();
                    out.invalidated_items += self.client.full_refresh(Catalog { root }).0;
                    self.epoch = epoch;
                }
            }
        }
        panic!(
            "client {}: stale retries did not converge in 64 attempts — \
             the update driver is outpacing every query",
            self.client_id
        );
    }

    fn index_bytes(&self) -> u64 {
        self.client.cache().stats().index_bytes
    }
}

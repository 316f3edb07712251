//! The traced driver: `pc_sim::ClientSession::step` and
//! `ProactiveRunner::run_query{,_versioned}` replayed over the public
//! `pc_client::Client` API with a span around each call into a layer.
//! `tests/equivalence.rs` pins it to the untraced session: same seed, same
//! per-query bytes, result counts and contact flags.
//!
//! The plain and the versioned protocol share one loop here: a plain
//! contact is a versioned one that carries no epoch stamp and can only
//! come back fresh with nothing to invalidate.

use crate::alloc::thread_allocs;
use crate::probe::Probe;
use crate::spans::{self_times, Layer, QuerySpans, Span, NO_PARENT};
use crate::stats::clamp_ns;
use pc_cache::Catalog;
use pc_client::Client;
use pc_geom::Point;
use pc_mobility::MobileClient;
use pc_net::Ledger;
use pc_rtree::proto::{
    QuerySpec, Request, Response, VersionedReply, CONFIRM_BYTES, EPOCH_BYTES, FULL_REFRESH_BYTES,
    INVALIDATION_BYTES, OBJECT_HEADER_BYTES, PAIR_BYTES,
};
use pc_rtree::ObjectId;
use pc_server::{ClientId, ServerHandle, SUPER_ROOT};
use pc_sim::{client_seed, QueryKind, QueryRecord, SimConfig};
use pc_workload::QueryGenerator;
use std::time::Instant;

/// One query in this many keeps its raw spans for the dump.
const SPAN_SAMPLE: u64 = 64;

/// Everything one client thread's traced sessions add up to. Merged across
/// clients after the run; nothing here is shared while timing.
#[derive(Default)]
pub struct TraceFold {
    /// Self time per [`Layer`], summed over all queries.
    pub self_ns: [u64; Layer::COUNT],
    /// Σ query spans — the denominator of every `_share`.
    pub query_ns: u64,
    pub queries: u64,
    /// Raw spans of the sampled queries.
    pub kept: Vec<Span>,
    pub run_local_ns: Vec<u32>,
    pub absorb_ns: Vec<u32>,
    /// Remainder contacts only; fmr reports and disconnects are calls too
    /// but would drag the contact percentiles towards zero.
    pub call_ns: Vec<u32>,
    pub dispatch_ns: Vec<u32>,
    /// `transport.call` minus its `server.dispatch`, per contact.
    pub overhead_ns: Vec<u32>,
    /// The first contact of each session (opens the connection).
    pub connect_ns: Vec<u32>,
    /// Dispatch time of the periodic fmr reports.
    pub report_ns: Vec<u32>,
    pub allocs_run_local: u64,
    pub allocs_absorb: u64,
    pub allocs_call: u64,
    pub contacts: u64,
    pub evicted_items: u64,
    pub inserted_bytes: u64,
    pub invalidated_items: u64,
    /// Dispatches that produced a reply body, and what those bodies held.
    pub replies: u64,
    pub expansions: u64,
    pub objects: u64,
    pub confirmed: u64,
    pub index_bytes: u64,
    pub cells: u64,
    /// Wall of the first `reference_queries` queries of this client's
    /// last session, against which the untraced reference is compared.
    pub reference_wall_ns: u64,
}

impl TraceFold {
    fn fold_query(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            self.self_ns[span.layer as usize] += own;
        }
        self.query_ns += spans[0].duration_ns();
        if self.queries.is_multiple_of(SPAN_SAMPLE) {
            self.kept.extend_from_slice(spans);
        }
        self.queries += 1;
    }

    pub fn merge(&mut self, other: TraceFold) {
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
        self.query_ns += other.query_ns;
        self.queries += other.queries;
        self.kept.extend(other.kept);
        self.run_local_ns.extend(other.run_local_ns);
        self.absorb_ns.extend(other.absorb_ns);
        self.call_ns.extend(other.call_ns);
        self.dispatch_ns.extend(other.dispatch_ns);
        self.overhead_ns.extend(other.overhead_ns);
        self.connect_ns.extend(other.connect_ns);
        self.report_ns.extend(other.report_ns);
        self.allocs_run_local += other.allocs_run_local;
        self.allocs_absorb += other.allocs_absorb;
        self.allocs_call += other.allocs_call;
        self.contacts += other.contacts;
        self.evicted_items += other.evicted_items;
        self.inserted_bytes += other.inserted_bytes;
        self.invalidated_items += other.invalidated_items;
        self.replies += other.replies;
        self.expansions += other.expansions;
        self.objects += other.objects;
        self.confirmed += other.confirmed;
        self.index_bytes += other.index_bytes;
        self.cells += other.cells;
        self.reference_wall_ns += other.reference_wall_ns;
    }
}

/// What one query produced (the fields of `pc_sim::RunOutput` the step
/// needs).
struct Outcome {
    ledger: Ledger,
    objects: Vec<ObjectId>,
    cached_results: Vec<ObjectId>,
    locally_served: Vec<ObjectId>,
    server_cpu_s: f64,
    client_expansions: u64,
    stale_retries: u32,
    full_refreshes: u32,
    invalidation_bytes: u64,
}

/// A proactive client session with spans. Field for field the state of
/// `pc_sim::ClientSession` plus its `ProactiveRunner`.
pub struct TracedSession<'a> {
    id: ClientId,
    cfg: SimConfig,
    client: Client,
    epoch: u64,
    mobile: MobileClient,
    qgen: QueryGenerator,
    fm_win: u64,
    cached_win: u64,
    issued: usize,
    contacted_once: bool,
    started: Instant,
    probe: &'a Probe,
    spans: QuerySpans,
    pub records: Vec<QueryRecord>,
}

impl<'a> TracedSession<'a> {
    pub fn new(
        cfg: &SimConfig,
        server: &dyn ServerHandle,
        id: ClientId,
        probe: &'a Probe,
        origin: Instant,
    ) -> Self {
        let capacity = cfg.cache_bytes(server.core().pin().store().total_bytes());
        let seed = client_seed(cfg.seed, id);
        let (root, epoch) = server.bootstrap_root();
        TracedSession {
            id,
            cfg: *cfg,
            client: Client::new(capacity, cfg.policy, Catalog { root }),
            epoch,
            mobile: MobileClient::new(cfg.mobility, cfg.mobility_cfg, seed ^ 0x4d4f42),
            qgen: QueryGenerator::new(cfg.workload, seed ^ 0x514f),
            fm_win: 0,
            cached_win: 0,
            issued: 0,
            contacted_once: false,
            started: Instant::now(),
            probe,
            spans: QuerySpans::new(origin),
            records: Vec::with_capacity(cfg.n_queries),
        }
    }

    pub fn is_done(&self) -> bool {
        self.issued >= self.cfg.n_queries
    }

    /// `index bytes / capacity` of the cache as it stands.
    pub fn index_to_cache_ratio(&self) -> f64 {
        self.client.cache().stats().index_to_cache_ratio()
    }

    /// One `transport.call` span with the probe's dispatch as its child.
    /// Returns the response and `(call ns, dispatch ns)`.
    fn call(
        &mut self,
        server: &dyn ServerHandle,
        req: Request,
        parent: u32,
        fold: &mut TraceFold,
    ) -> (Response, u64, u64) {
        let allocs = thread_allocs();
        let span = self.spans.open(Layer::Call, parent);
        let resp = server.call(self.id, req);
        self.spans.close(span);
        fold.allocs_call += thread_allocs() - allocs;
        let call_ns = self.spans.spans()[span as usize].duration_ns();
        let mut dispatch_ns = 0;
        if let Some(note) = self.probe.take(self.id) {
            self.spans
                .push(Layer::Dispatch, span, note.start_ns, note.end_ns);
            dispatch_ns = note.end_ns.saturating_sub(note.start_ns);
            if note.reply {
                fold.replies += 1;
                fold.expansions += note.expansions;
                fold.objects += note.objects;
                fold.confirmed += note.confirmed;
                fold.index_bytes += note.index_bytes;
                fold.cells += note.cells;
            }
        }
        (resp, call_ns, dispatch_ns)
    }

    fn invalidate(&mut self, nodes: &[pc_rtree::NodeId], fold: &mut TraceFold) {
        for &n in nodes {
            // The virtual super-root is routing metadata: only its own
            // view goes (see `ProactiveRunner::run_query_versioned`).
            let (items, _) = if n == SUPER_ROOT {
                self.client.cache_mut().invalidate_node_shallow(n)
            } else {
                self.client.cache_mut().invalidate_node(n)
            };
            fold.invalidated_items += items as u64;
        }
    }

    fn run_query(
        &mut self,
        server: &dyn ServerHandle,
        spec: &QuerySpec,
        pos: Point,
        root: u32,
        fold: &mut TraceFold,
    ) -> Outcome {
        self.client.begin_query();
        let mut out = Outcome {
            ledger: Ledger::default(),
            objects: Vec::new(),
            cached_results: Vec::new(),
            locally_served: Vec::new(),
            server_cpu_s: 0.0,
            client_expansions: 0,
            stale_retries: 0,
            full_refreshes: 0,
            invalidation_bytes: 0,
        };
        for _attempt in 0..64 {
            let snap = server.core().pin();
            let store = snap.store();

            let allocs = thread_allocs();
            let span = self.spans.open(Layer::RunLocal, root);
            let local = self.client.run_local(spec);
            self.spans.close(span);
            fold.allocs_run_local += thread_allocs() - allocs;
            fold.run_local_ns.push(clamp_ns(
                self.spans.spans()[span as usize].duration_ns() as u128
            ));

            out.ledger.saved_bytes = local
                .saved
                .iter()
                .map(|&id| store.get(id).size_bytes as u64)
                .sum();
            out.client_expansions = local.expansions;
            let Some(rq) = &local.remainder else {
                let span = self.spans.open(Layer::Assemble, root);
                let answer = self.client.assemble(&local, None);
                self.spans.close(span);
                out.objects = answer.objects;
                out.cached_results = local.saved.clone();
                out.locally_served = local.saved;
                return out;
            };
            let req = if self.cfg.versioned {
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
            out.ledger.server_time_s += self.cfg.server_time_s;
            let (resp, call_ns, dispatch_ns) = self.call(server, req, root, fold);
            out.server_cpu_s += call_ns as f64 / 1e9;
            fold.contacts += 1;
            fold.call_ns.push(clamp_ns(call_ns as u128));
            fold.dispatch_ns.push(clamp_ns(dispatch_ns as u128));
            fold.overhead_ns
                .push(clamp_ns(call_ns.saturating_sub(dispatch_ns) as u128));
            if !self.contacted_once {
                self.contacted_once = true;
                fold.connect_ns.push(clamp_ns(call_ns as u128));
            }
            // `stamp` is the epoch stamp every versioned reply carries.
            let (reply, invalidate, stamp) = match resp {
                Response::Remainder(reply) => (reply, Vec::new(), 0),
                Response::Versioned(VersionedReply::Fresh {
                    reply,
                    invalidate,
                    epoch,
                }) => {
                    self.epoch = epoch;
                    (reply, invalidate, EPOCH_BYTES)
                }
                Response::Versioned(VersionedReply::Stale { invalidate, epoch }) => {
                    out.stale_retries += 1;
                    let inv = invalidate.len() as u64 * INVALIDATION_BYTES + EPOCH_BYTES;
                    out.invalidation_bytes += inv;
                    out.ledger.extra_downlink_bytes += inv;
                    self.invalidate(&invalidate, fold);
                    self.epoch = epoch;
                    continue;
                }
                Response::Versioned(VersionedReply::FullRefresh { .. }) => {
                    out.full_refreshes += 1;
                    out.invalidation_bytes += FULL_REFRESH_BYTES;
                    out.ledger.extra_downlink_bytes += FULL_REFRESH_BYTES;
                    let (root, epoch) = server.bootstrap_root();
                    self.client.full_refresh(Catalog { root });
                    self.epoch = epoch;
                    continue;
                }
                other => panic!(
                    "client {}: a remainder was answered with {other:?}",
                    self.id
                ),
            };
            let inv = invalidate.len() as u64 * INVALIDATION_BYTES + stamp;
            out.invalidation_bytes += inv;
            self.invalidate(&invalidate, fold);
            out.ledger.confirmed_bytes = reply
                .confirmed
                .iter()
                .map(|&id| store.get(id).size_bytes as u64)
                .sum();
            out.ledger.confirm_wire_bytes = reply.confirmed.len() as u64 * CONFIRM_BYTES;
            out.ledger.transmitted = reply.objects.iter().map(|o| o.size_bytes).collect();
            out.ledger.transmitted_header_bytes = reply.objects.len() as u64 * OBJECT_HEADER_BYTES;
            out.ledger.extra_downlink_bytes +=
                reply.index_bytes() + reply.pairs.len() as u64 * PAIR_BYTES + inv;
            out.cached_results = local.saved.clone();
            out.cached_results.extend(reply.confirmed.iter().copied());

            let allocs = thread_allocs();
            let span = self.spans.open(Layer::Absorb, root);
            let inserted = self.client.absorb(&reply, pos);
            self.spans.close(span);
            fold.allocs_absorb += thread_allocs() - allocs;
            fold.absorb_ns.push(clamp_ns(
                self.spans.spans()[span as usize].duration_ns() as u128
            ));
            fold.evicted_items += inserted.evicted_items as u64;
            fold.inserted_bytes += inserted.inserted_bytes;

            let span = self.spans.open(Layer::Assemble, root);
            let answer = self.client.assemble(&local, Some(&reply));
            self.spans.close(span);
            out.objects = answer.objects;
            out.locally_served = local.saved;
            return out;
        }
        panic!(
            "client {}: stale retries did not converge in 64 attempts",
            self.id
        );
    }

    /// One think-move-query-absorb cycle; `false` once the budget is spent.
    /// `reference_queries` is where the untraced reference slice will end.
    pub fn step(
        &mut self,
        server: &dyn ServerHandle,
        reference_queries: usize,
        fold: &mut TraceFold,
    ) -> bool {
        if self.is_done() {
            return false;
        }
        // Unique per query as long as a session stays under a million.
        self.spans
            .begin(self.id.wrapping_mul(1_000_000) + self.issued as u32);
        let root = self.spans.open(Layer::Query, NO_PARENT);

        let span = self.spans.open(Layer::Gen, root);
        let think = self.qgen.think_time();
        self.mobile.advance(think);
        let pos = self.mobile.position();
        let spec = self.qgen.next_query(pos);
        self.spans.close(span);

        let wall = Instant::now();
        let mut out = self.run_query(server, &spec, pos, root, fold);
        let total_cpu = wall.elapsed().as_secs_f64();

        let span = self.spans.open(Layer::NetResponse, root);
        let resp = out.ledger.response(&self.cfg.channel);
        self.spans.close(span);
        self.mobile.advance(resp.completion_s);

        let cached = out.cached_results.len() as u64;
        let served = out.locally_served.len() as u64;
        self.fm_win += cached - served;
        self.cached_win += cached;
        self.issued += 1;

        if self.cfg.fmr_report_period > 0 && self.issued.is_multiple_of(self.cfg.fmr_report_period)
        {
            let fmr = if self.cached_win > 0 {
                self.fm_win as f64 / self.cached_win as f64
            } else {
                0.0
            };
            let req = Request::ReportFmr { fmr };
            out.ledger.uplink_bytes += req.wire_bytes();
            let (reply, _, dispatch_ns) = self.call(server, req, root, fold);
            fold.report_ns.push(clamp_ns(dispatch_ns as u128));
            out.ledger.extra_downlink_bytes += reply.wire_bytes();
            let _new_d = reply.into_new_d();
            self.fm_win = 0;
            self.cached_win = 0;
        }

        // The session computes the cache statistics every query for its
        // i/c series; the replay pays the same cost so shares stay honest.
        let _stats = self.client.cache().stats();
        let snap = server.core().pin();
        let store = snap.store();
        self.records.push(QueryRecord {
            kind: QueryKind::of(&spec),
            uplink_bytes: out.ledger.uplink_bytes,
            downlink_bytes: out.ledger.downlink_bytes(),
            saved_bytes: out.ledger.saved_bytes,
            confirmed_bytes: out.ledger.confirmed_bytes,
            transmitted_bytes: out.ledger.transmitted_bytes(),
            result_bytes: out.ledger.result_bytes(),
            cached_result_bytes: out
                .cached_results
                .iter()
                .map(|&id| store.get(id).size_bytes as u64)
                .sum(),
            avg_response_s: resp.avg_response_s,
            completion_s: resp.completion_s,
            result_count: out.objects.len() as u32,
            cached_results: cached as u32,
            false_misses: (cached - served) as u32,
            contacted: out.ledger.contacted_server,
            stale_retries: out.stale_retries,
            full_refreshes: out.full_refreshes,
            invalidation_bytes: out.invalidation_bytes,
            client_cpu_s: (total_cpu - out.server_cpu_s).max(0.0),
            server_cpu_s: out.server_cpu_s,
            client_expansions: out.client_expansions,
        });
        self.spans.close(root);
        fold.fold_query(self.spans.spans());
        if self.issued == reference_queries {
            fold.reference_wall_ns += self.started.elapsed().as_nanos() as u64;
        }
        !self.is_done()
    }

    /// Disconnects (`Forget`), charging its bytes to the last record like
    /// `ClientSession::run_counted` does.
    pub fn disconnect(&mut self, server: &dyn ServerHandle) {
        let req = Request::Forget;
        let uplink = req.wire_bytes();
        let reply = server.call(self.id, req);
        // Outside any query: the note would otherwise sit in the slot.
        let _ = self.probe.take(self.id);
        if let Some(last) = self.records.last_mut() {
            last.uplink_bytes += uplink;
            last.downlink_bytes += reply.wire_bytes();
        }
        let _ = reply.into_forgotten();
    }
}

//! One mobile client's simulation session: mobility, query generation,
//! the caching model under test and a rolling fmr window, all seeded from
//! a per-client derivation of the experiment seed. Client 0's streams are
//! bit-identical to the historical single-client runner, so the sequential
//! entry points ([`crate::run`] / [`crate::run_with_server`]) are thin
//! wrappers over a one-session fleet.
//!
//! Sessions reach the server only through a [`ServerHandle`]'s transport:
//! queries, §4.3 fmr reports and the final disconnect all travel as
//! `Request`/`Response` envelopes, and their wire bytes — including the
//! report's uplink cost and the returned resolution byte `D` — land in the
//! byte ledger like any other traffic.

use crate::config::{CacheModel, SimConfig};
use crate::metrics::{QueryKind, QueryRecord, SimResult};
use crate::runner::{self, ModelRunner, RunOutput};
use pc_mobility::MobileClient;
use pc_rtree::proto::Request;
use pc_server::{ClientId, ServerHandle};
use pc_workload::{DriftingK, QueryGenerator};
use std::time::Instant;

/// Derives the RNG seed for one client of a fleet. Client 0 maps to the
/// experiment seed itself (the historical single-client streams); higher
/// ids decorrelate via a golden-ratio multiply.
pub fn client_seed(seed: u64, client: ClientId) -> u64 {
    seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A single client's end-to-end simulation state, stepped one query at a
/// time against a shared server handle.
pub struct ClientSession {
    id: ClientId,
    cfg: SimConfig,
    capacity: u64,
    runner: Box<dyn ModelRunner>,
    mobile: MobileClient,
    qgen: QueryGenerator,
    drifting: Option<DriftingK>,
    result: SimResult,
    /// Rolling fmr counters for the periodic §4.3 report.
    fm_win: u64,
    cached_win: u64,
    issued: usize,
    elapsed_s: f64,
}

impl ClientSession {
    pub fn new(cfg: &SimConfig, server: &dyn ServerHandle, id: ClientId) -> Self {
        let capacity = cfg.cache_bytes(server.core().pin().store().total_bytes());
        let seed = client_seed(cfg.seed, id);
        let mut result = SimResult::new(cfg.window);
        // One record per query: sized once, not doubled up to it.
        result.records.reserve_exact(cfg.n_queries);
        ClientSession {
            id,
            cfg: *cfg,
            capacity,
            runner: runner::make_runner(cfg, server, capacity, id),
            mobile: MobileClient::new(cfg.mobility, cfg.mobility_cfg, seed ^ 0x4d4f42),
            qgen: QueryGenerator::new(cfg.workload, seed ^ 0x514f),
            drifting: cfg
                .drifting_k
                .map(|(hi, lo)| DriftingK::new(cfg.n_queries, hi, lo, seed ^ 0x4446)),
            result,
            fm_win: 0,
            cached_win: 0,
            issued: 0,
            elapsed_s: 0.0,
        }
    }

    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Queries issued so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    pub fn is_done(&self) -> bool {
        self.issued >= self.cfg.n_queries
    }

    /// Runs one think-move-query-absorb cycle; returns `false` once the
    /// session has issued its full query budget.
    pub fn step(&mut self, server: &dyn ServerHandle) -> bool {
        if self.is_done() {
            return false;
        }
        let think = self.qgen.think_time();
        self.mobile.advance(think);
        self.elapsed_s += think;
        let pos = self.mobile.position();
        let spec = match &mut self.drifting {
            Some(d) => d.next_query(pos),
            None => self.qgen.next_query(pos),
        };

        let wall = Instant::now();
        let mut out = self
            .runner
            .run_query(server, &spec, pos, self.cfg.server_time_s);
        let total_cpu = wall.elapsed().as_secs_f64();
        let client_cpu = (total_cpu - out.server_cpu_s).max(0.0);

        if self.cfg.verify {
            verify_against_direct(server, &spec, &out);
        }

        let resp = out.ledger.response(&self.cfg.channel);
        // The client keeps moving while the reply streams in.
        self.mobile.advance(resp.completion_s);
        self.elapsed_s += resp.completion_s;

        let cached = out.cached_results.len() as u64;
        let served = out.locally_served.len() as u64;
        debug_assert!(served <= cached, "Rs must be within R ∩ C");
        self.fm_win += cached - served;
        self.cached_win += cached;
        self.issued += 1;

        // Periodic fmr report drives the adaptive controller (§4.3). It
        // rides *after* this query's reply, so it never delays the results
        // — but the report and the returned resolution byte `D` are real
        // traffic and are charged to this query's ledger.
        if self.cfg.model == CacheModel::Proactive
            && self.cfg.fmr_report_period > 0
            && self.issued.is_multiple_of(self.cfg.fmr_report_period)
        {
            let fmr = if self.cached_win > 0 {
                self.fm_win as f64 / self.cached_win as f64
            } else {
                0.0
            };
            let req = Request::ReportFmr { fmr };
            out.ledger.uplink_bytes += req.wire_bytes();
            let reply = server.call(self.id, req);
            out.ledger.extra_downlink_bytes += reply.wire_bytes();
            let _new_d = reply.into_new_d();
            self.fm_win = 0;
            self.cached_win = 0;
        }

        let (used, index_bytes) = self.runner.cache_stats();
        let snap = server.core().pin();
        let store = snap.store();
        self.result.push(
            QueryRecord {
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
                client_cpu_s: client_cpu,
                server_cpu_s: out.server_cpu_s,
                client_expansions: out.client_expansions,
            },
            used,
            index_bytes,
            self.capacity,
        );
        !self.is_done()
    }

    /// Closes the session and returns its finished result.
    pub fn finish(mut self) -> SimResult {
        self.result.sim_elapsed_s = self.elapsed_s;
        self.result.finish();
        self.result
    }

    /// Runs the session to completion, then disconnects: a `Forget`
    /// request releases this client's adaptive state on the server, so a
    /// long-lived server under session churn drains instead of
    /// accumulating dead entries. The disconnect's wire bytes are charged
    /// to the final query's record (it is the session's last traffic).
    pub fn run(self, server: &dyn ServerHandle) -> SimResult {
        self.run_counted(server, &std::sync::atomic::AtomicU64::new(0))
    }

    /// [`run`](Self::run), bumping `issued` after every completed query —
    /// the progress feed the fleet's update driver paces its churn
    /// against. The counter changes nothing about the stream itself.
    pub fn run_counted(
        mut self,
        server: &dyn ServerHandle,
        issued: &std::sync::atomic::AtomicU64,
    ) -> SimResult {
        loop {
            let before = self.issued;
            let more = self.step(server);
            if self.issued > before {
                // ordering: Release pairs with the update driver's Acquire
                // load of `issued` — the driver paces churn against counts
                // whose queries have fully completed.
                issued.fetch_add(1, std::sync::atomic::Ordering::Release);
            }
            if !more {
                break;
            }
        }
        let req = Request::Forget;
        let uplink = req.wire_bytes();
        let reply = server.call(self.id, req);
        if let Some(last) = self.result.records.last_mut() {
            last.uplink_bytes += uplink;
            last.downlink_bytes += reply.wire_bytes();
        }
        let _ = reply.into_forgotten();
        self.finish()
    }
}

/// Debug-mode oracle: the model's answer must equal the direct answer
/// (fetched through the same transport, as `Request::Direct`).
fn verify_against_direct(
    server: &dyn ServerHandle,
    spec: &pc_rtree::proto::QuerySpec,
    out: &RunOutput,
) {
    let direct = server.call(0, Request::Direct(*spec)).into_direct();
    let snap = server.core().pin();
    let store = snap.store();
    match spec {
        pc_rtree::proto::QuerySpec::Join { .. } => {
            let mut got = out.pairs.clone();
            got.sort_unstable();
            let mut want = direct.pairs.clone();
            want.sort_unstable();
            assert_eq!(got, want, "join answer diverged from direct");
        }
        pc_rtree::proto::QuerySpec::Knn { center, .. } => {
            assert_eq!(out.objects.len(), direct.results.len());
            let d = |id: pc_rtree::ObjectId| store.get(id).mbr.min_dist(center);
            let mut got: Vec<f64> = out.objects.iter().map(|&o| d(o)).collect();
            got.sort_by(f64::total_cmp);
            let mut want: Vec<f64> = direct.results.iter().map(|&o| d(o)).collect();
            want.sort_by(f64::total_cmp);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "knn answer diverged from direct");
            }
        }
        pc_rtree::proto::QuerySpec::Range { .. } => {
            let mut got = out.objects.clone();
            got.sort_unstable();
            let mut want = direct.results.clone();
            want.sort_unstable();
            assert_eq!(got, want, "range answer diverged from direct");
        }
    }
}

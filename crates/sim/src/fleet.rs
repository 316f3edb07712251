//! The multi-client fleet driver: N [`ClientSession`]s against one shared
//! [`ServerHandle`] — a bare `&Server`, a cluster, or a TCP transport —
//! spread over scoped worker threads. Sessions are
//! seeded per client id and never share mutable state (the server's read
//! path is `&self`, its adaptive table is per-client), so a concurrent
//! fleet run produces exactly the per-client metrics of the same sessions
//! run sequentially — only wall-clock CPU timings differ.
//!
//! With [`Fleet::churn`], an **update driver** thread runs alongside the
//! workers, injecting paper-§6-style update batches through the epoch-swap
//! `&self` [`apply_updates`](pc_server::ServerHandle::apply_updates) path
//! while sessions keep querying. Churn makes sessions speak the §7
//! versioned protocol (resubmit on `Stale`, invalidation bytes charged to
//! their ledgers); per-query outcomes then depend on update/query
//! interleaving, so a churned run is *not* deterministic — but every
//! contact answer is exact for its epoch, and the per-client ledgers
//! still merge order-insensitively. The driver paces itself against the
//! fleet's completed-query count, so the configured rate holds regardless
//! of host speed.

use crate::config::SimConfig;
use crate::metrics::SimResult;
use crate::session::ClientSession;
use crate::updates::{generate_update, ChurnConfig};
use pc_server::{ClientId, ServerHandle, Update};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Builder/driver for a fleet of concurrent client sessions.
#[derive(Clone, Copy, Debug)]
pub struct Fleet {
    cfg: SimConfig,
    clients: u32,
    threads: usize,
    churn: Option<ChurnConfig>,
}

/// What a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// One finished result per client, indexed by client id.
    pub per_client: Vec<SimResult>,
    /// All clients folded together ([`SimResult::merge`] in id order).
    pub merged: SimResult,
    /// Wall-clock seconds for the whole fleet run.
    pub wall_s: f64,
    /// Updates the churn driver applied (0 without churn).
    pub updates_applied: u64,
    /// Server epoch when the run finished (0 without churn).
    pub final_epoch: u64,
    /// Update-log records (changed nodes) retained when the run
    /// finished — the low-water pruning keeps this bounded under
    /// sustained churn (0 without churn).
    pub log_records: usize,
}

impl FleetResult {
    fn collect(mut per_client: Vec<(ClientId, SimResult)>, wall_s: f64) -> Self {
        per_client.sort_by_key(|(id, _)| *id);
        let per_client: Vec<SimResult> = per_client.into_iter().map(|(_, r)| r).collect();
        let mut merged = SimResult::default();
        for r in &per_client {
            merged.merge(r);
        }
        FleetResult {
            per_client,
            merged,
            wall_s,
            updates_applied: 0,
            final_epoch: 0,
            log_records: 0,
        }
    }

    pub fn total_queries(&self) -> usize {
        self.merged.summary.queries
    }

    /// Aggregate server throughput against the wall clock (hardware view).
    pub fn wall_qps(&self) -> f64 {
        self.total_queries() as f64 / self.wall_s.max(1e-9)
    }

    /// Aggregate throughput in *simulated* time: total queries over the
    /// longest client stream's span. Client streams run in parallel in the
    /// simulated world, so this is the offered load one server absorbs —
    /// it grows with fleet size regardless of host core count.
    pub fn sim_qps(&self) -> f64 {
        self.total_queries() as f64 / self.merged.sim_elapsed_s.max(1e-9)
    }
}

impl Fleet {
    pub fn new(cfg: SimConfig) -> Self {
        Fleet {
            cfg,
            clients: 1,
            threads: 0,
            churn: None,
        }
    }

    /// Number of client sessions (ids `0..n`).
    pub fn clients(mut self, n: u32) -> Self {
        assert!(n > 0, "a fleet needs at least one client");
        self.clients = n;
        self
    }

    /// Worker-thread cap; 0 (the default) uses the host parallelism.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Injects a server-update workload while the fleet runs. A positive
    /// rate switches sessions to the §7 versioned protocol (they must
    /// handle `Stale` refusals); rate 0 is a no-op, keeping the run
    /// bit-identical to an update-free fleet.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        if churn.rate_per_100 > 0 {
            assert!(churn.batch > 0, "churn batches must be non-empty");
            self.cfg.versioned = true;
            self.churn = Some(churn);
        }
        self
    }

    fn effective_threads(&self) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.max(1).min(self.clients as usize)
    }

    /// Runs the fleet concurrently on scoped threads: client ids are dealt
    /// round-robin to workers, each worker drives its sessions to
    /// completion against the shared server handle, while the optional
    /// update driver churns the server at the configured rate.
    pub fn run(&self, server: &dyn ServerHandle) -> FleetResult {
        let start = Instant::now();
        let workers = self.effective_threads();
        let cfg = self.cfg;
        let clients = self.clients;
        let issued = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let (results, churn_out) = std::thread::scope(|scope| {
            let driver = self.churn.map(|churn| {
                let issued = &issued;
                let stop = &stop;
                scope.spawn(move || drive_updates(server, churn, issued, stop))
            });
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let issued = &issued;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut id = w as u32;
                        while id < clients {
                            out.push((
                                id,
                                ClientSession::new(&cfg, server, id).run_counted(server, issued),
                            ));
                            id += workers as u32;
                        }
                        out
                    })
                })
                .collect();
            // Join workers before inspecting their results: the stop flag
            // must be raised (and the driver joined) even when a worker
            // panicked, or the scope would hang forever on the driver
            // thread instead of propagating the panic.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            // ordering: Release pairs with the driver loop's Acquire load —
            // a driver that sees `stop` also sees every worker's final
            // issued-count contribution, so the drained quota is exact.
            stop.store(true, Ordering::Release);
            // pc-check: allow(no-unwrap, "deliberate panic propagation out of a scoped-thread join: all peers are already joined, so re-raising the worker/driver panic on the benchmark thread strands nothing")
            let churn_out = driver.map(|d| d.join().expect("update driver panicked"));
            let results: Vec<_> = joined
                .into_iter()
                // pc-check: allow(no-unwrap, "deliberate panic propagation out of a scoped-thread join: all peers are already joined, so re-raising the worker/driver panic on the benchmark thread strands nothing")
                .flat_map(|r| r.expect("fleet worker panicked"))
                .collect();
            (results, churn_out)
        });
        let mut out = FleetResult::collect(results, start.elapsed().as_secs_f64());
        if let Some((applied, epoch)) = churn_out {
            out.updates_applied = applied;
            out.final_epoch = epoch;
            out.log_records = server.log_records();
        }
        out
    }

    /// Runs the same sessions one after another on the calling thread —
    /// the reference for the concurrency-determinism tests. Churn is not
    /// injected here (the reference stream is update-free by definition).
    pub fn run_sequential(&self, server: &dyn ServerHandle) -> FleetResult {
        let start = Instant::now();
        let results = (0..self.clients)
            .map(|id| (id, ClientSession::new(&self.cfg, server, id).run(server)))
            .collect();
        FleetResult::collect(results, start.elapsed().as_secs_f64())
    }
}

/// The update-driver loop: applies `churn.rate_per_100` updates per 100
/// completed fleet queries, in batches of `churn.batch` (one epoch bump
/// each), until the workers finish — then drains the remaining quota so
/// the applied count is a deterministic function of the total query count.
/// The update *stream* is seeded and deterministic; only its interleaving
/// with queries is scheduling-dependent (which is the point: callers
/// measure the protocol under real races).
fn drive_updates(
    server: &dyn ServerHandle,
    churn: ChurnConfig,
    issued: &AtomicU64,
    stop: &AtomicBool,
) -> (u64, u64) {
    let core = server.core();
    let mut rng = SmallRng::seed_from_u64(churn.seed);
    let mut applied = 0u64;
    let mut epoch = server.bootstrap_root().1;
    loop {
        // ordering: Acquire pairs with the Release store in `run` after all
        // workers joined — seeing `stop` implies seeing the final issued
        // count, read (also Acquire) on the next line, so the drain below
        // settles the exact quota before the loop exits.
        let finished = stop.load(Ordering::Acquire);
        // ordering: Acquire pairs with each session's Release fetch_add —
        // counted queries have fully completed before churn is paced on them.
        let target = issued.load(Ordering::Acquire) * churn.rate_per_100 as u64 / 100;
        while applied < target {
            let n = churn.batch.min((target - applied) as usize);
            let n_live = core.pin().store().len() as u32;
            let batch: Vec<Update> = (0..n).map(|_| generate_update(&mut rng, n_live)).collect();
            // Every publish also prunes update-log history below the
            // fleet low-water mark, keeping the invalidation log bounded.
            epoch = server.apply_updates(&batch);
            applied += n as u64;
        }
        if finished {
            return (applied, epoch);
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

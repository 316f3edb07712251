//! Fleet concurrency/determinism integration tests: the multi-client
//! refactor must not change what any single client computes.
//!
//! (a) a 1-client `Fleet` reproduces the sequential `run_with_server`
//!     path exactly (deterministic metrics; CPU wall-clock excluded);
//! (b) an N-client concurrent run's per-client results equal the same N
//!     sessions run sequentially;
//! (c) completed sessions disconnect (`Forget`), so the server's adaptive
//!     table drains back to empty after every run;
//! (d) a fleet with a 0-rate churn config is bit-identical to the plain
//!     fleet (no driver, no versioned envelopes), while a churned fleet
//!     completes with the §7 protocol's stale-retry and invalidation
//!     bytes in its ledgers, which stay merge-order-insensitive.

use procache::server::ServerHandle;
use procache::sim::{self, CacheModel, ChurnConfig, Fleet, SimConfig, SimResult, Summary};

fn fleet_cfg(model: CacheModel) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.model = model;
    cfg.n_objects = 3_000;
    cfg.n_queries = 200;
    cfg.window = 50;
    cfg.fmr_report_period = 25;
    cfg.verify = false;
    cfg
}

/// The deterministic (non-wall-clock) slice of a summary.
fn deterministic_parts(s: &Summary) -> (usize, [u64; 9], [f64; 6]) {
    (
        s.queries,
        [
            s.totals.uplink_bytes,
            s.totals.downlink_bytes,
            s.totals.result_bytes,
            s.totals.saved_bytes,
            s.totals.cached_results,
            s.totals.false_misses,
            s.totals.contacts,
            s.totals.stale_retries,
            s.totals.invalidation_bytes,
        ],
        [
            s.avg_uplink_bytes,
            s.avg_downlink_bytes,
            s.avg_response_s,
            s.hit_c,
            s.hit_b,
            s.fmr,
        ],
    )
}

fn assert_same_stream(a: &SimResult, b: &SimResult, who: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{who}: record count");
    for (i, (x, y)) in a.records.iter().zip(&b.records).enumerate() {
        assert_eq!(x.kind, y.kind, "{who}: kind @{i}");
        assert_eq!(x.uplink_bytes, y.uplink_bytes, "{who}: uplink @{i}");
        assert_eq!(x.downlink_bytes, y.downlink_bytes, "{who}: downlink @{i}");
        assert_eq!(x.saved_bytes, y.saved_bytes, "{who}: saved @{i}");
        assert_eq!(x.result_bytes, y.result_bytes, "{who}: result @{i}");
        assert_eq!(x.false_misses, y.false_misses, "{who}: false misses @{i}");
        assert_eq!(x.contacted, y.contacted, "{who}: contacted @{i}");
        assert_eq!(x.avg_response_s, y.avg_response_s, "{who}: response @{i}");
    }
    assert_eq!(
        deterministic_parts(&a.summary),
        deterministic_parts(&b.summary),
        "{who}: summary"
    );
    assert_eq!(a.sim_elapsed_s, b.sim_elapsed_s, "{who}: simulated span");
}

#[test]
fn one_client_fleet_reproduces_the_sequential_runner() {
    for model in [
        CacheModel::Page,
        CacheModel::Semantic,
        CacheModel::Proactive,
    ] {
        let cfg = fleet_cfg(model);
        let server = sim::build_server(&cfg);
        let sequential = sim::run_with_server(&cfg, &server);

        // Fresh server: the sequential run above fed the adaptive state.
        let server = sim::build_server(&cfg);
        let fleet = Fleet::new(cfg).clients(1).run(&server);
        assert_eq!(fleet.per_client.len(), 1);
        assert_same_stream(
            &sequential,
            &fleet.per_client[0],
            &format!("{model} client"),
        );
        assert_same_stream(&sequential, &fleet.merged, &format!("{model} merged"));
        assert_eq!(
            server.adaptive().tracked_clients(),
            0,
            "{model}: finished session must have disconnected"
        );
    }
}

#[test]
fn concurrent_fleet_matches_sequential_sessions() {
    let cfg = fleet_cfg(CacheModel::Proactive);
    let clients = 3;

    let server = sim::build_server(&cfg);
    let concurrent = Fleet::new(cfg).clients(clients).threads(4).run(&server);

    let server = sim::build_server(&cfg);
    let sequential = Fleet::new(cfg).clients(clients).run_sequential(&server);

    assert_eq!(concurrent.per_client.len(), clients as usize);
    for (c, (a, b)) in concurrent
        .per_client
        .iter()
        .zip(&sequential.per_client)
        .enumerate()
    {
        assert_same_stream(a, b, &format!("client {c}"));
    }
    assert_eq!(
        deterministic_parts(&concurrent.merged.summary),
        deterministic_parts(&sequential.merged.summary),
        "merged summaries"
    );
    assert_eq!(
        server.adaptive().tracked_clients(),
        0,
        "every finished session must have sent Forget"
    );
}

#[test]
fn zero_rate_churn_fleet_is_bit_identical_to_plain_fleet() {
    // `--update-rate 0` must change *nothing*: no driver thread, plain
    // (unversioned) protocol, byte-identical streams — the PR 3 fleet.
    let cfg = fleet_cfg(CacheModel::Proactive);
    let clients = 2;

    let server = sim::build_server(&cfg);
    let plain = Fleet::new(cfg).clients(clients).run(&server);

    let server = sim::build_server(&cfg);
    let zero_rate = Fleet::new(cfg)
        .clients(clients)
        .churn(ChurnConfig {
            rate_per_100: 0,
            ..Default::default()
        })
        .run(&server);

    assert_eq!(zero_rate.updates_applied, 0);
    assert_eq!(zero_rate.final_epoch, 0);
    for (c, (a, b)) in zero_rate
        .per_client
        .iter()
        .zip(&plain.per_client)
        .enumerate()
    {
        assert_same_stream(a, b, &format!("0-rate churn client {c}"));
    }
    assert_same_stream(&zero_rate.merged, &plain.merged, "0-rate churn merged");
}

#[test]
fn churn_fleet_completes_with_stale_retry_bytes_in_ledger() {
    // A fleet with updates racing its queries completes, the driver
    // applies its full quota, and the §7 protocol's costs land in the
    // ledgers. Whether a particular run suffers stale refusals depends on
    // scheduling, so retry a few times — with 2 updates per query on
    // three clients, a refusal-free run is vanishingly rare.
    let mut cfg = fleet_cfg(CacheModel::Proactive);
    cfg.n_queries = 120;
    let clients = 3;
    let mut saw_retries = false;
    for attempt in 0..5 {
        let server = sim::build_server(&cfg);
        let out = Fleet::new(cfg)
            .clients(clients)
            .threads(4)
            .churn(ChurnConfig {
                rate_per_100: 200,
                batch: 2,
                seed: 0xC0FFEE + attempt,
            })
            .run(&server);

        // Completion under churn: every session finished its budget and
        // disconnected; the driver drained its full update quota.
        assert_eq!(out.total_queries(), clients as usize * cfg.n_queries);
        assert_eq!(server.adaptive().tracked_clients(), 0);
        assert_eq!(
            out.updates_applied,
            out.total_queries() as u64 * 2,
            "driver quota is a deterministic function of the query count"
        );
        assert!(out.final_epoch > 0);
        // The deployment epoch counts batches, however many netted to
        // nothing (a move or delete of a dead id does); the log holds no
        // change from beyond it.
        assert_eq!(server.bootstrap_root().1, out.final_epoch);
        let snap = server.core().pin();
        assert_eq!(snap.epoch(), out.final_epoch);
        assert!(snap.update_log().changed_since(out.final_epoch).is_empty());

        // Per-client ledgers merge order-insensitively: the integer byte
        // and count sums are exact in any fold order (the wall-clock f64
        // accumulators may differ in the last ulp, which is why the
        // determinism pins exclude them).
        let ledger = |t: &procache::sim::SummaryTotals| {
            [
                t.uplink_bytes,
                t.downlink_bytes,
                t.result_bytes,
                t.saved_bytes,
                t.cached_result_bytes,
                t.cached_results,
                t.false_misses,
                t.contacts,
                t.stale_retries,
                t.full_refreshes,
                t.invalidation_bytes,
                t.client_expansions,
                t.response_queries,
            ]
        };
        let mut fwd = SimResult::default();
        for r in &out.per_client {
            fwd.merge(r);
        }
        let mut rev = SimResult::default();
        for r in out.per_client.iter().rev() {
            rev.merge(r);
        }
        assert_eq!(fwd.summary.queries, rev.summary.queries);
        assert_eq!(
            ledger(&fwd.summary.totals),
            ledger(&rev.summary.totals),
            "merge order changed the combined ledger"
        );

        let t = &out.merged.summary.totals;
        if t.stale_retries > 0 {
            assert!(
                t.invalidation_bytes > 0,
                "a stale refusal always carries an invalidation list"
            );
            saw_retries = true;
            break;
        }
    }
    assert!(
        saw_retries,
        "no stale refusal in 5 churned runs — the update driver never \
         raced a contact, which should be practically impossible"
    );
}

#[test]
fn fleet_clients_see_distinct_workloads() {
    // Different per-client seeds: the streams must not be clones of each
    // other (byte-identical streams would mean seed derivation is broken).
    let cfg = fleet_cfg(CacheModel::Proactive);
    let server = sim::build_server(&cfg);
    let out = Fleet::new(cfg).clients(2).run(&server);
    let a = &out.per_client[0];
    let b = &out.per_client[1];
    assert_ne!(
        a.records
            .iter()
            .map(|r| (r.uplink_bytes, r.downlink_bytes))
            .collect::<Vec<_>>(),
        b.records
            .iter()
            .map(|r| (r.uplink_bytes, r.downlink_bytes))
            .collect::<Vec<_>>(),
        "two clients replayed identical streams"
    );
}

//! Wire-transport equivalence integration tests: putting real TCP frames
//! between the fleet and the server must change *nothing* a client
//! computes — the codec and socket layer are a pure transport swap.
//!
//! (a) an N-client concurrent fleet over TCP loopback is bit-identical,
//!     client by client, to the same fleet over the in-process
//!     `Transport` on the same seeds;
//! (b) across the whole fleet run, measured frame bytes reconcile with
//!     the `wire_bytes()` model: `measured == modeled + itemized framing
//!     overhead` in both directions, and the server served exactly the
//!     frames the clients counted;
//! (c) a churned fleet speaking the §7 versioned protocol over the wire
//!     completes its full budget, drains the adaptive table, and still
//!     reconciles byte-for-byte.

use std::sync::Arc;

use procache::server::{Server, ServerHandle, TcpTransport, WireServer, WireServerConfig};
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

/// Runs `clients` sessions over a fresh wire server + transport and
/// returns the fleet result plus both sides' counters (after a full
/// drain, so the server numbers are final).
fn run_over_wire(
    cfg: SimConfig,
    clients: u32,
    churn: Option<ChurnConfig>,
) -> (
    procache::sim::FleetResult,
    procache::server::WireTransportStats,
    procache::server::WireServerStats,
    Arc<Server>,
) {
    let server = Arc::new(sim::build_server(&cfg));
    let handle: Arc<dyn ServerHandle> = Arc::clone(&server) as Arc<dyn ServerHandle>;
    let mut ws = WireServer::spawn(handle, WireServerConfig::default()).expect("bind wire server");
    let transport = TcpTransport::connect(ws.addr(), Arc::clone(&server) as Arc<dyn ServerHandle>);
    let mut fleet = Fleet::new(cfg).clients(clients).threads(4);
    if let Some(c) = churn {
        fleet = fleet.churn(c);
    }
    let out = fleet.run(&transport);
    let tstats = transport.stats();
    drop(transport);
    ws.shutdown();
    let sstats = ws.stats();
    (out, tstats, sstats, server)
}

/// Dual-sided stats reconciliation: with the transport disconnected and
/// the server drained (both stat snapshots taken after every thread
/// joined), the two ends of the single socket must agree byte-for-byte
/// and frame-for-frame in both directions. Any counter drift — a path
/// that counts on one side but not the other, or a counter read with
/// torn batching — shows up here as an exact-inequality failure.
fn assert_stats_reconcile(
    tstats: &procache::server::WireTransportStats,
    sstats: &procache::server::WireServerStats,
) {
    assert!(
        tstats.reconciles(),
        "client measured != modeled + overhead: {tstats:?}"
    );
    assert_eq!(
        tstats.tx_bytes, sstats.rx_frame_bytes,
        "every byte the clients sent was read by the server"
    );
    assert_eq!(
        tstats.rx_bytes, sstats.tx_frame_bytes,
        "every byte the server wrote was read by the clients"
    );
    assert_eq!(
        sstats.requests_served, tstats.tx_frames,
        "server answered exactly the frames the clients sent"
    );
    assert_eq!(
        sstats.requests_served, tstats.rx_frames,
        "every answer came back to a client"
    );
    assert_eq!(sstats.frames_rejected, 0);
    assert_eq!(sstats.requests_aborted, 0);
}

#[test]
fn wire_fleet_is_bit_identical_to_in_process_fleet() {
    let cfg = fleet_cfg(CacheModel::Proactive);
    let clients = 3;

    let in_proc_server = sim::build_server(&cfg);
    let in_proc = Fleet::new(cfg)
        .clients(clients)
        .threads(4)
        .run(&in_proc_server);

    let (wired, tstats, sstats, server) = run_over_wire(cfg, clients, None);

    assert_eq!(wired.per_client.len(), clients as usize);
    for (c, (a, b)) in wired.per_client.iter().zip(&in_proc.per_client).enumerate() {
        assert_same_stream(a, b, &format!("wire client {c}"));
    }
    assert_eq!(
        deterministic_parts(&wired.merged.summary),
        deterministic_parts(&in_proc.merged.summary),
        "merged summaries"
    );

    // (b) whole-fleet measured-bytes cross-check, both sides of the wire.
    assert!(tstats.tx_frames > 0, "requests crossed the socket");
    assert_stats_reconcile(&tstats, &sstats);
    assert_eq!(server.tracked_clients(), 0, "Forget crossed the wire too");
}

#[test]
fn churned_wire_fleet_completes_and_reconciles() {
    let mut cfg = fleet_cfg(CacheModel::Proactive);
    cfg.n_queries = 120;
    let clients = 3;
    let churn = ChurnConfig {
        rate_per_100: 200,
        batch: 2,
        seed: 0xC0FFEE,
    };
    let (out, tstats, sstats, server) = run_over_wire(cfg, clients, Some(churn));

    assert_eq!(out.total_queries(), clients as usize * cfg.n_queries);
    assert_eq!(
        out.updates_applied,
        out.total_queries() as u64 * 2,
        "driver quota is a deterministic function of the query count"
    );
    assert!(out.final_epoch > 0);
    assert_eq!(server.tracked_clients(), 0);

    // Versioned envelopes (Stale refusals, epoch stamps, full refreshes)
    // travel the same frames and must reconcile just as exactly.
    assert_stats_reconcile(&tstats, &sstats);
}

//! The traced driver replays the library's session loop from outside; this
//! pins the replay to the original. On a small world, a traced session and
//! an untraced `pc_sim::ClientSession` with the same seed must agree on
//! every query's bytes, result counts and contact flag — in-process, with
//! the versioned protocol, against the cluster, and over the wire.

use pc_benchmark::driver::session_id;
use pc_benchmark::rig::{Rig, World};
use pc_benchmark::spans::Layer;
use pc_benchmark::traced::{TraceFold, TracedSession};
use pc_benchmark::workloads::{Backend, Scenario, Workload};
use pc_rtree::proto::Request;
use pc_sim::{ClientSession, QueryRecord, SimConfig};
use std::time::Instant;

const QUERIES: usize = 400;

fn workload(backend: Backend) -> Workload {
    Workload {
        name: "test",
        why: "",
        scenario: Scenario::PaperMix,
        backend,
        churn: false,
        clients: 2,
        queries_per_second: 0.0,
        session_len: None,
        verify_quick: 0,
        verify_full: 0,
    }
}

fn config(versioned: bool) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.n_queries = QUERIES;
    cfg.verify = false;
    cfg.versioned = versioned;
    // Several adaptive reports inside the run.
    cfg.fmr_report_period = 25;
    cfg
}

/// The library's own session, stepped to the end and disconnected the way
/// `ClientSession::run_counted` does it.
fn untraced(w: &Workload, cfg: &SimConfig, client: u32) -> Vec<QueryRecord> {
    let world = World::build(w, cfg);
    let rig = Rig::over(w, &world, None);
    let handle = rig.handle();
    let id = session_id(w, client, 3);
    let mut session = ClientSession::new(cfg, handle, id);
    while session.step(handle) {}
    let req = Request::Forget;
    let uplink = req.wire_bytes();
    let reply = handle.call(id, req);
    let mut result = session.finish();
    let last = result.records.last_mut().unwrap();
    last.uplink_bytes += uplink;
    last.downlink_bytes += reply.wire_bytes();
    result.records
}

fn traced(w: &Workload, cfg: &SimConfig, client: u32) -> (Vec<QueryRecord>, TraceFold) {
    let origin = Instant::now();
    let world = World::build(w, cfg);
    let rig = Rig::over(w, &world, Some(origin));
    let handle = rig.handle();
    let probe = rig.probe.as_ref().unwrap();
    let mut fold = TraceFold::default();
    let mut session = TracedSession::new(cfg, handle, session_id(w, client, 3), probe, origin);
    while session.step(handle, 0, &mut fold) {}
    session.disconnect(handle);
    (session.records, fold)
}

fn assert_equivalent(backend: Backend, versioned: bool) {
    let w = workload(backend);
    let cfg = config(versioned);
    for client in 0..w.clients {
        let want = untraced(&w, &cfg, client);
        let (got, fold) = traced(&w, &cfg, client);
        assert_eq!(want.len(), QUERIES);
        assert_eq!(got.len(), QUERIES);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            // Everything but the three wall-clock fields.
            let timeless = |r: &QueryRecord| QueryRecord {
                client_cpu_s: 0.0,
                server_cpu_s: 0.0,
                ..*r
            };
            assert_eq!(
                timeless(g),
                timeless(w),
                "query {i} of client {client} diverged ({backend:?}, versioned={versioned})"
            );
        }
        let contacts = want.iter().filter(|r| r.contacted).count() as u64;
        assert!(
            contacts > 20,
            "the run must exercise contacts, saw {contacts}"
        );
        assert!(want.iter().any(|r| !r.contacted));
        assert_eq!(fold.queries, QUERIES as u64);
        // Every contact went through the probe: one call span and one
        // dispatch note each (stale retries would add more, none here).
        assert_eq!(fold.contacts, contacts);
        assert_eq!(fold.replies, contacts);
        assert_eq!(fold.call_ns.len() as u64, contacts);
        assert_eq!(fold.absorb_ns.len() as u64, contacts);
        assert_eq!(
            fold.report_ns.len(),
            QUERIES / cfg.fmr_report_period,
            "one dispatch per fmr report"
        );
        // Self times of each query tree add up to its root span.
        assert_eq!(fold.self_ns.iter().sum::<u64>(), fold.query_ns);
        assert!(fold.self_ns[Layer::RunLocal as usize] > 0);
        assert!(fold.self_ns[Layer::Dispatch as usize] > 0);
    }
}

#[test]
fn traced_session_matches_client_session_in_process() {
    assert_equivalent(Backend::InProcess, false);
}

#[test]
fn traced_session_matches_client_session_with_the_versioned_protocol() {
    assert_equivalent(Backend::InProcess, true);
}

#[test]
fn traced_session_matches_client_session_against_the_cluster() {
    assert_equivalent(Backend::Cluster(4), true);
}

#[test]
fn traced_session_matches_client_session_over_the_wire() {
    assert_equivalent(Backend::Wire, false);
}

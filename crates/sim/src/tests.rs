//! Simulator integration tests: every model must stay correct under the
//! full loop (verify mode cross-checks each answer against the direct
//! query), and the headline relations of §6.2 must emerge on small runs
//! with fixed seeds.

use super::*;
use crate::config::CacheModel;
use pc_server::FormPolicy;

fn small(model: CacheModel) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.model = model;
    cfg
}

#[test]
fn all_models_run_verified() {
    for model in [
        CacheModel::Page,
        CacheModel::Semantic,
        CacheModel::Proactive,
    ] {
        let cfg = small(model);
        let r = run(&cfg);
        assert_eq!(r.records.len(), cfg.n_queries, "{model}");
        assert!(r.summary.avg_downlink_bytes > 0.0, "{model}");
    }
}

#[test]
fn all_proactive_forms_run_verified() {
    for form in [FormPolicy::Full, FormPolicy::Compact, FormPolicy::Adaptive] {
        let mut cfg = small(CacheModel::Proactive);
        cfg.form = form;
        let r = run(&cfg);
        assert_eq!(r.records.len(), cfg.n_queries, "{}", form.name());
        assert!(
            r.summary.hit_c > 0.0,
            "{} should serve something",
            form.name()
        );
    }
}

#[test]
fn page_cache_has_zero_hit_rate_and_full_fmr() {
    let r = run(&small(CacheModel::Page));
    assert_eq!(r.summary.hit_c, 0.0, "PAG never answers locally");
    assert!(
        r.summary.hit_b > 0.0,
        "but its cache does hold result bytes"
    );
    assert!(
        (r.summary.fmr - 1.0).abs() < 1e-12,
        "every cached result is a false miss for PAG (fmr {})",
        r.summary.fmr
    );
    assert!((r.summary.contact_rate - 1.0).abs() < 1e-12);
}

#[test]
fn proactive_beats_semantic_on_hit_rate_and_response() {
    // The Fig. 6 headline on a small run: APRO's hit_c well above SEM's,
    // response time below, with a mixed workload including joins.
    let apro = run(&small(CacheModel::Proactive));
    let sem = run(&small(CacheModel::Semantic));
    let pag = run(&small(CacheModel::Page));
    assert!(
        apro.summary.hit_c > sem.summary.hit_c,
        "APRO hit_c {} vs SEM {}",
        apro.summary.hit_c,
        sem.summary.hit_c
    );
    assert!(
        apro.summary.avg_response_s < sem.summary.avg_response_s,
        "APRO resp {} vs SEM {}",
        apro.summary.avg_response_s,
        sem.summary.avg_response_s
    );
    assert!(
        apro.summary.avg_response_s < pag.summary.avg_response_s,
        "APRO resp {} vs PAG {}",
        apro.summary.avg_response_s,
        pag.summary.avg_response_s
    );
    // PAG ships its whole manifest every time: more uplink than SEM's
    // bare descriptors. (PAG > APRO emerges only at paper-scale cache
    // populations — the fig6 harness checks it there.)
    assert!(pag.summary.avg_uplink_bytes > sem.summary.avg_uplink_bytes);
    // SEM re-downloads joins and cross-type results: highest downlink.
    assert!(sem.summary.avg_downlink_bytes > pag.summary.avg_downlink_bytes);
    assert!(sem.summary.avg_downlink_bytes > apro.summary.avg_downlink_bytes);
}

#[test]
fn runs_are_deterministic_in_byte_metrics() {
    let cfg = small(CacheModel::Proactive);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(x.uplink_bytes, y.uplink_bytes);
        assert_eq!(x.downlink_bytes, y.downlink_bytes);
        assert_eq!(x.saved_bytes, y.saved_bytes);
        assert_eq!(x.result_bytes, y.result_bytes);
    }
}

#[test]
fn windows_cover_the_run() {
    let mut cfg = small(CacheModel::Proactive);
    cfg.window = 50;
    let r = run(&cfg);
    assert_eq!(r.windows.len(), cfg.n_queries / 50);
    assert_eq!(r.windows.last().unwrap().query_end, cfg.n_queries);
    // i/c must be populated for the proactive model.
    assert!(r.windows.iter().any(|w| w.index_to_cache > 0.0));
}

#[test]
fn drifting_k_mode_runs_knn_only() {
    let mut cfg = small(CacheModel::Proactive);
    cfg.drifting_k = Some((8, 1));
    cfg.n_queries = 200;
    let r = run(&cfg);
    assert!(r.records.iter().all(|rec| rec.kind == QueryKind::Knn));
}

#[test]
fn adaptive_form_reacts_to_fmr_reports() {
    let mut cfg = small(CacheModel::Proactive);
    cfg.form = FormPolicy::Adaptive;
    cfg.fmr_report_period = 20;
    cfg.drifting_k = Some((8, 1));
    cfg.n_queries = 300;
    let server = build_server(&cfg);
    let _ = run_with_server(&cfg, &server);
    // After a drifting-k run with periodic reports the controller has a
    // recorded state for client 0 (d may or may not have moved, but the
    // baseline must exist).
    assert!(server.adaptive().d(0) <= 16);
}

#[test]
fn each_fleet_client_drives_its_own_adaptive_state() {
    // Three clients with periodic fmr reports: mid-run, each session keeps
    // its own adaptive state (none hardwired to client 0); on completion
    // every session disconnects with a `Forget` request, so the server's
    // table drains back to empty.
    let mut cfg = small(CacheModel::Proactive);
    cfg.form = FormPolicy::Adaptive;
    cfg.fmr_report_period = 20;
    cfg.n_queries = 60;
    cfg.verify = false;
    let server = build_server(&cfg);

    // Step three sessions by hand past one report period: state exists.
    let mut sessions: Vec<ClientSession> = (0..3u32)
        .map(|c| ClientSession::new(&cfg, &server, c))
        .collect();
    for s in &mut sessions {
        for _ in 0..cfg.fmr_report_period {
            s.step(&server);
        }
    }
    assert_eq!(
        server.adaptive().tracked_clients(),
        3,
        "one §4.3 state per client"
    );
    drop(sessions);
    for c in 0..3u32 {
        assert!(server.adaptive().forget_client(c));
    }

    // A full fleet run self-cleans: sessions forget themselves on finish.
    let fleet = Fleet::new(cfg).clients(3).threads(2);
    let out = fleet.run(&server);
    assert_eq!(out.per_client.len(), 3);
    assert_eq!(out.total_queries(), 180);
    assert_eq!(
        server.adaptive().tracked_clients(),
        0,
        "completed sessions released their adaptive state"
    );
    for c in 0..3u32 {
        assert!(
            !server.adaptive().forget_client(c),
            "client {c} already forgotten"
        );
    }
}

#[test]
fn sessions_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<ClientSession>();
    assert_send::<Fleet>();
    assert_send::<FleetResult>();
}

#[test]
fn client_seeds_decorrelate_but_preserve_client_zero() {
    assert_eq!(client_seed(2005, 0), 2005, "client 0 keeps the run seed");
    let seeds: std::collections::HashSet<u64> = (0..100u32).map(|c| client_seed(2005, c)).collect();
    assert_eq!(seeds.len(), 100, "per-client seeds are distinct");
}

#[test]
fn by_kind_breakdown_sums_to_total() {
    let r = run(&small(CacheModel::Proactive));
    let total = r.summary.queries;
    let sum = r.by_kind(QueryKind::Range).queries
        + r.by_kind(QueryKind::Knn).queries
        + r.by_kind(QueryKind::Join).queries;
    assert_eq!(total, sum);
}

#[test]
fn smaller_cache_cannot_beat_bigger_cache_by_much() {
    // Monotonicity sanity: 0.1% cache must not outperform 5% on hit_c.
    let mut small_c = small(CacheModel::Proactive);
    small_c.cache_frac = 0.001;
    let mut big_c = small(CacheModel::Proactive);
    big_c.cache_frac = 0.05;
    let rs = run(&small_c);
    let rb = run(&big_c);
    assert!(
        rb.summary.hit_c >= rs.summary.hit_c * 0.8,
        "5% cache hit_c {} vs 0.1% {}",
        rb.summary.hit_c,
        rs.summary.hit_c
    );
}

// ---------------------------------------------------------------------
// Churn-path client regressions (§7 versioned protocol)
// ---------------------------------------------------------------------

mod churn_clients {
    use crate::runner::{ModelRunner, ProactiveRunner};
    use pc_cache::{Catalog, ReplacementPolicy};
    use pc_geom::{Point, Rect};
    use pc_rtree::proto::{QuerySpec, Request, Response};
    use pc_rtree::{naive, NodeId, ObjectId, RTreeConfig};
    use pc_server::{ClientId, Cluster, ServerConfig, ServerCore, ServerHandle, Transport, Update};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample_server(n: usize, seed: u64, cfg: ServerConfig) -> Cluster {
        Cluster::single(
            pc_workload::datasets::ne_like(n, seed),
            RTreeConfig::small(),
            cfg,
        )
    }

    fn warm_client(server: &Cluster, id: ClientId) -> ProactiveRunner {
        ProactiveRunner::new(
            1 << 22,
            ReplacementPolicy::Grd3,
            Catalog::from_tree(server.snapshot().shard(0).tree()),
        )
        .with_client(id)
        .versioned(true)
        .at_epoch(server.snapshot().epoch())
    }

    fn range_at(pos: Point, half: f64) -> (QuerySpec, Rect) {
        let window = Rect::centered_square(pos, half);
        (QuerySpec::Range { window }, window)
    }

    #[test]
    fn versioned_runner_sends_its_own_id() {
        // Regression: the versioned client used to hardcode client 0,
        // corrupting per-client adaptive state and epoch attribution the
        // moment two clients shared a server.
        let server = sample_server(500, 11, ServerConfig::default());
        let mut a = warm_client(&server, 7);
        let mut b = warm_client(&server, 9);
        let pos = Point::new(0.31, 0.36);
        let (spec, _) = range_at(pos, 0.2);
        let out = a.run_query(&server, &spec, pos, 0.0);
        assert!(out.ledger.contacted_server);
        b.run_query(&server, &spec, pos, 0.0);
        let last_epoch = |c: ClientId| server.adaptive().state(c).last_epoch;
        assert_eq!(last_epoch(7), Some(0), "a's contact is a's");
        assert_eq!(last_epoch(9), Some(0), "b's contact is b's");
        assert_eq!(
            last_epoch(0),
            None,
            "nothing may be attributed to a hardcoded client 0"
        );
    }

    /// A handle that injects one update batch *before forwarding* each of
    /// the first `races` versioned remainders — the worst-case interleaving
    /// where every retry is answered by a yet-newer epoch.
    struct RacingHandle<'a> {
        server: &'a Cluster,
        races: AtomicU32,
    }

    impl Transport for RacingHandle<'_> {
        fn call(&self, client: ClientId, req: Request) -> Response {
            if matches!(req, Request::RemainderVersioned { .. }) {
                // ordering: SeqCst — test counter; ordering immaterial,
                // strongest-for-free beats justifying anything weaker.
                let raced = self
                    .races
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1));
                if let Ok(left) = raced {
                    // A new destination per race: a move to where the
                    // object already is nets to nothing and changes no node.
                    self.server.apply_updates(&[Update::Move {
                        id: ObjectId(0),
                        to: Rect::from_point(Point::new(0.97, 0.03 + 0.001 * left as f64)),
                    }]);
                }
            }
            self.server.call(client, req)
        }
    }

    impl ServerHandle for RacingHandle<'_> {
        fn core(&self) -> &ServerCore {
            self.server.core()
        }

        fn apply_updates(&self, updates: &[Update]) -> u64 {
            self.server.apply_updates(updates)
        }

        fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64) {
            self.server.bootstrap_root()
        }

        fn log_records(&self) -> usize {
            self.server.log_records()
        }
    }

    #[test]
    fn versioned_runner_survives_repeated_mid_query_epoch_races() {
        // Regression for the 4-attempt retry cap: ten consecutive races
        // force ten stale refusals on one query. The client must keep
        // re-running stage ① (sizing each attempt off a fresh pin) and
        // converge with the exact current answer — the old cap panicked
        // at attempt 4.
        let races = 10;
        let server = sample_server(600, 3, ServerConfig::default());
        let handle = RacingHandle {
            server: &server,
            races: AtomicU32::new(races),
        };
        let mut client = warm_client(&server, 4);
        let pos = Point::new(0.31, 0.36);
        let (spec, window) = range_at(pos, 0.25);
        let out = client.run_query(&handle, &spec, pos, 0.0);
        assert_eq!(
            (out.ledger.contacts, out.stale_retries),
            (races + 1, races),
            "every race costs exactly one refused round trip"
        );
        assert_eq!(out.full_refreshes, 0, "full history: no refresh needed");
        assert_eq!(client.epoch, races as u64);
        client.client().cache().validate().unwrap();
        let mut got = out.objects.clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(
            got,
            naive::range_naive(server.snapshot().store(), &window),
            "the converged answer must be exact for the final epoch"
        );
    }

    #[test]
    fn versioned_runner_recovers_from_a_full_refresh() {
        // A client whose epoch fell below the server's pruned invalidation
        // horizon gets a FullRefresh refusal: it must drop its whole
        // cache, re-sync the catalog, and still answer exactly.
        let server = sample_server(
            700,
            5,
            ServerConfig {
                max_update_history: 2,
                ..ServerConfig::default()
            },
        );
        let mut client = warm_client(&server, 3);
        let pos = Point::new(0.31, 0.36);
        let (spec, _) = range_at(pos, 0.25);
        let first = client.run_query(&server, &spec, pos, 0.0);
        assert!(first.ledger.contacted_server);
        assert!(
            !client.client().cache().is_empty(),
            "the warm-up query must have cached something"
        );

        // Six epochs of churn: history is capped at 2, so epoch 0 is far
        // below the low-water mark (4).
        for i in 0..6u32 {
            server.apply_updates(&[Update::Move {
                id: ObjectId(i),
                to: Rect::from_point(Point::new(0.9, 0.05 + 0.01 * i as f64)),
            }]);
        }
        assert_eq!(server.snapshot().update_log().low_water(), 4);

        // A wider window than the warmed one: stage ① cannot finish
        // locally, so the client must contact — and be refused.
        let (spec, window) = range_at(pos, 0.5);
        let out = client.run_query(&server, &spec, pos, 0.0);
        assert_eq!(out.full_refreshes, 1, "one refusal, one refresh");
        assert_eq!(out.ledger.contacts, 2, "refresh + resubmit");
        assert!(out.invalidation_bytes > 0, "the refusal is charged");
        assert!(
            out.invalidated_items > 0,
            "the refresh must have dropped the warm cache"
        );
        assert_eq!(client.epoch, 6, "re-synced to the current epoch");
        client.client().cache().validate().unwrap();
        let mut got = out.objects.clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, naive::range_naive(server.snapshot().store(), &window));
    }

    #[test]
    fn epoch_stamp_costs_exactly_its_bytes_on_a_static_world() {
        // ROADMAP "(a)": what the plain envelope saves. On a world that
        // never churns, the same seeded tour run plain and stamped must
        // answer identically, never retry, and differ in the ledger by
        // exactly one epoch stamp each way per contact.
        use pc_rtree::proto::EPOCH_BYTES;
        let cfg = crate::SimConfig::small();
        let server = crate::build_server(&cfg);
        let capacity = cfg.cache_bytes(server.snapshot().store().total_bytes());
        let runner = |versioned: bool| {
            ProactiveRunner::new(
                capacity,
                cfg.policy,
                Catalog::from_tree(server.snapshot().shard(0).tree()),
            )
            .with_client(versioned as ClientId)
            .versioned(versioned)
        };
        let (mut plain, mut stamped) = (runner(false), runner(true));
        let mut mobile = pc_mobility::MobileClient::new(cfg.mobility, cfg.mobility_cfg, 7);
        let mut qgen = pc_workload::QueryGenerator::new(cfg.workload, 8);
        let (mut contacts, mut uplink, mut downlink) = (0u64, 0u64, 0u64);
        for _ in 0..cfg.n_queries {
            mobile.advance(qgen.think_time());
            let pos = mobile.position();
            let spec = qgen.next_query(pos);
            let a = plain.run_query(&server, &spec, pos, cfg.server_time_s);
            let b = stamped.run_query(&server, &spec, pos, cfg.server_time_s);
            assert_eq!(
                (&a.objects, &a.pairs, &a.cached_results, &a.locally_served),
                (&b.objects, &b.pairs, &b.cached_results, &b.locally_served)
            );
            assert_eq!(
                (b.stale_retries, b.full_refreshes, b.invalidated_items),
                (0, 0, 0)
            );
            let stamp = EPOCH_BYTES * a.ledger.contacts as u64;
            assert_eq!(b.invalidation_bytes, stamp);
            let mut want = a.ledger.clone();
            want.uplink_bytes += stamp;
            want.extra_downlink_bytes += stamp;
            assert_eq!(b.ledger, want, "the stamp is the whole difference");
            contacts += a.ledger.contacts as u64;
            uplink += a.ledger.uplink_bytes;
            downlink += a.ledger.downlink_bytes();
        }
        assert!(contacts > 0, "the tour must reach the server");
        let stamps = EPOCH_BYTES * contacts;
        println!(
            "stamp cost: {contacts} contacts / {} queries, +{stamps} B each way = \
             +{:.2}% uplink ({uplink} B), +{:.4}% downlink ({downlink} B)",
            cfg.n_queries,
            100.0 * stamps as f64 / uplink as f64,
            100.0 * stamps as f64 / downlink as f64,
        );
    }
}

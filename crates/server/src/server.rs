//! The server: the policy types every deployment shares ([`ServerConfig`],
//! [`FormPolicy`], the `(policy, d)` → form mapping) and [`Server`], the
//! single-node deployment — a thin constructor over a one-shard
//! [`Cluster`], which owns the serve path, the version gate and the update
//! path. The whole surface — `process_remainder`, `report_fmr`, `direct`,
//! *and* `apply_updates` — takes `&self`, and `Server` is `Send + Sync`,
//! so one server instance behind an `Arc` (or scoped-thread borrows)
//! serves a concurrent fleet of clients while the object set churns.

use crate::adaptive::AdaptiveController;
use crate::cluster::{Cluster, ClusterConfig, Snapshot};
use crate::core::ServerCore;
use crate::forms::FormMode;
use crate::transport::{ServerHandle, Transport};
use crate::updates::Update;
use pc_geom::Rect;
use pc_rtree::engine::Outcome;
use pc_rtree::proto::{QuerySpec, RemainderQuery, Request, Response, ServerReply, VersionedReply};
use pc_rtree::{NodeId, ObjectStore, RTreeConfig};
use std::sync::Arc;

/// Identifier the server uses to keep per-client adaptive state.
pub type ClientId = u32;

/// Which proactive-caching variant the server implements (§6.4): full form
/// (FPRO), normal compact form (CPRO) or adaptive d⁺-level (APRO).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormPolicy {
    Full,
    Compact,
    Adaptive,
}

impl FormPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            FormPolicy::Full => "FPRO",
            FormPolicy::Compact => "CPRO",
            FormPolicy::Adaptive => "APRO",
        }
    }
}

/// Server-side configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    pub form: FormPolicy,
    /// Adaptive sensitivity `s` (Table 6.1: 20 %).
    pub sensitivity: f64,
    /// Initial d⁺-level for adaptive clients.
    pub initial_d: u8,
    /// Upper clamp for d (a BPT of a 4 KB page is ~11 deep).
    pub max_d: u8,
    /// Cap on tracked per-client adaptive states; the least-recently
    /// reporting client is evicted past this, so a long-lived server under
    /// churning client ids keeps a bounded table. Approximate: enforced
    /// per controller shard, so the real bound is within ±16 of this value
    /// (and never below 16, one state per shard).
    pub max_tracked_clients: usize,
    /// Hard cap on retained update-log history, in epochs. Regardless of
    /// client tracking, `apply_updates` prunes change records older than
    /// this many epochs, so the invalidation log stays bounded even with
    /// no connected clients; a client stamped below the pruned horizon is
    /// refused with a full refresh. The fleet low-water mark (minimum
    /// last-synced epoch over live clients) prunes *earlier* whenever the
    /// whole fleet is caught up.
    pub max_update_history: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            form: FormPolicy::Adaptive,
            sensitivity: 0.2,
            initial_d: 1,
            max_d: 16,
            max_tracked_clients: 1 << 16,
            max_update_history: 1024,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that would silently misbehave instead of
    /// erroring: an adaptive table capped at zero clients evicts every
    /// state the moment it is written, and a zero-epoch history window
    /// full-refreshes every versioned contact. Called through
    /// [`ClusterConfig::validate`] by every constructor, which panic with
    /// the returned message.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_tracked_clients == 0 {
            return Err(
                "ServerConfig::max_tracked_clients must be ≥ 1: a zero-capacity adaptive \
                 table would evict every client state on write"
                    .to_string(),
            );
        }
        if self.max_update_history == 0 {
            return Err(
                "ServerConfig::max_update_history must be ≥ 1: with zero retained epochs \
                 every versioned contact would be refused with a full refresh"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// A fresh per-client table under this configuration — one per
    /// deployment, whatever its shard count.
    pub(crate) fn adaptive_table(&self) -> AdaptiveController {
        AdaptiveController::new(self.sensitivity, self.initial_d, self.max_d)
            .with_max_clients(self.max_tracked_clients)
    }
}

/// The form `Ir` is built in for `client` under `policy`: the one
/// `(FormPolicy, d)` → [`FormMode`] mapping. Only the adaptive policy
/// reads the client's `d`.
pub(crate) fn form_mode(
    policy: FormPolicy,
    adaptive: &AdaptiveController,
    client: ClientId,
) -> FormMode {
    match policy {
        FormPolicy::Full => FormMode::Full,
        FormPolicy::Compact => FormMode::COMPACT,
        FormPolicy::Adaptive => FormMode::DLevel(adaptive.d(client)),
    }
}

/// The mobile application server of Fig. 3: a [`Cluster`] of one shard
/// owning the whole unit square. Every method forwards — one serve path,
/// one version gate and one update path serve every deployment size.
#[derive(Debug)]
pub struct Server {
    cluster: Cluster,
}

impl Server {
    /// Bulk loads the index over `store` and prepares the BPTs offline.
    /// Panics on an invalid configuration ([`ServerConfig::validate`]).
    pub fn new(store: ObjectStore, tree_cfg: RTreeConfig, cfg: ServerConfig) -> Self {
        let cfg = ClusterConfig {
            shards: 1,
            grid: 1,
            server: cfg,
        };
        Server {
            cluster: Cluster::new(store, tree_cfg, cfg),
        }
    }

    /// The deployment's snapshot cell + writer lock.
    pub fn core(&self) -> &ServerCore {
        self.cluster.core()
    }

    /// Pins the current [`Snapshot`] (dataset, plus R*-tree, BPTs and
    /// update log as `shard(0)`, at one epoch). The pin stays valid and
    /// self-consistent across concurrent
    /// [`apply_updates`](Server::apply_updates) calls, and its `epoch()`
    /// is the one the latest `apply_updates` returned.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.core().pin()
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cluster.config().server
    }

    /// Evaluates a query directly (no caching) on the current snapshot —
    /// ground truth for the simulator's metrics and the backend for the
    /// PAG/SEM baselines.
    pub fn direct(&self, spec: &QuerySpec) -> Outcome {
        self.snapshot().shard(0).direct(spec)
    }

    /// Stage ② of Fig. 3: resumes `Qr` from its heap, assembles `Rr`
    /// (splitting confirmed-cached results from transmitted ones) and the
    /// supporting index `Ir` in this server's form for this client.
    pub fn process_remainder(&self, client: ClientId, rq: &RemainderQuery) -> ServerReply {
        self.cluster.process_remainder(client, rq)
    }

    /// The version-aware stage ② of the §7 invalidation protocol
    /// ([`Cluster::process_remainder_versioned`]).
    pub fn process_remainder_versioned(
        &self,
        client: ClientId,
        rq: &RemainderQuery,
        client_epoch: u64,
    ) -> VersionedReply {
        self.cluster
            .process_remainder_versioned(client, rq, client_epoch)
    }

    /// Applies one batch of updates atomically while queries keep running
    /// ([`Cluster::apply_updates`]); returns the new epoch.
    pub fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.cluster.apply_updates(updates)
    }

    /// The epoch `client` last synced to over the versioned protocol, if
    /// it is tracked (`None` for unknown or plain-protocol clients).
    pub fn client_last_epoch(&self, client: ClientId) -> Option<u64> {
        self.cluster.adaptive().state(client).last_epoch
    }

    /// The fleet low-water mark: the minimum last-synced epoch over all
    /// tracked versioned clients (`None` with no versioned clients).
    pub fn epoch_low_water(&self) -> Option<u64> {
        self.cluster.adaptive().epoch_low_water()
    }

    /// Receives a client's periodic fmr report (§4.3); returns the new d.
    pub fn report_fmr(&self, client: ClientId, fmr: f64) -> u8 {
        self.cluster.adaptive().report(client, fmr)
    }

    /// Current d⁺-level the server would use for this client.
    pub fn client_d(&self, client: ClientId) -> u8 {
        self.cluster.adaptive().d(client)
    }

    /// Drops a client's adaptive state (e.g. on disconnect); returns
    /// whether anything was tracked.
    pub fn forget_client(&self, client: ClientId) -> bool {
        self.cluster.adaptive().forget_client(client)
    }

    /// Number of clients with recorded adaptive state.
    pub fn tracked_clients(&self) -> usize {
        self.cluster.tracked_clients()
    }

    /// Auxiliary BPT bytes (§6.4's "4.2 MB for NE" statistic).
    pub fn bpt_bytes(&self) -> u64 {
        self.snapshot().shard(0).bpt_bytes()
    }
}

/// The in-process fast path: a `Server` is itself a transport, answering
/// envelopes on the caller's thread with no queueing.
impl Transport for Server {
    fn call(&self, client: ClientId, req: Request) -> Response {
        self.cluster.call(client, req)
    }
}

impl ServerHandle for Server {
    fn core(&self) -> &ServerCore {
        Server::core(self)
    }

    fn apply_updates(&self, updates: &[Update]) -> u64 {
        self.cluster.apply_updates(updates)
    }

    fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64) {
        self.cluster.bootstrap_root()
    }

    fn log_records(&self) -> usize {
        self.cluster.log_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{cold_remainder, sample_server, sample_store};
    use pc_geom::Point;
    use pc_rtree::naive;
    use pc_rtree::ObjectId;
    use std::sync::Arc;

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(ServerConfig::default().validate().is_ok());
        let err = ServerConfig {
            max_tracked_clients: 0,
            ..ServerConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("max_tracked_clients"), "{err}");
        let err = ServerConfig {
            max_update_history: 0,
            ..ServerConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("max_update_history"), "{err}");
    }

    #[test]
    #[should_panic(expected = "max_update_history")]
    fn construction_rejects_invalid_configs() {
        let cfg = ServerConfig {
            max_update_history: 0,
            ..ServerConfig::default()
        };
        let _ = Server::new(sample_store(10, 1), RTreeConfig::small(), cfg);
    }

    #[test]
    fn server_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Server>();
        assert_send_sync::<Arc<Server>>();
    }

    #[test]
    fn shared_server_serves_concurrent_clients() {
        // The whole read path — remainder resumption + fmr reports — runs
        // from plain `&Server` on several threads at once, and each client
        // keeps its own adaptive trajectory.
        let server = Arc::new(sample_server(300, 10, FormPolicy::Adaptive));
        let handles: Vec<_> = (0..4u32)
            .map(|client| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let w = Rect::centered_square(Point::new(0.5, 0.5), 0.2);
                    let rq = cold_remainder(&*server, QuerySpec::Range { window: w });
                    let reply = server.process_remainder(client, &rq);
                    // Client `client` reports a rising fmr `client` times.
                    for step in 0..client {
                        server.report_fmr(client, 0.1 * (step + 1) as f64 + 0.01);
                    }
                    reply.objects.len()
                })
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "same query, same answer"
        );
        // 0 reports → initial d; k≥2 reports → d rose k−1 times.
        let d0 = ServerConfig::default().initial_d;
        assert_eq!(server.client_d(0), d0);
        assert_eq!(server.client_d(2), d0 + 1);
        assert_eq!(server.client_d(3), d0 + 2);
    }

    #[test]
    fn cold_remainder_range_returns_ground_truth() {
        let server = sample_server(300, 1, FormPolicy::Adaptive);
        let w = Rect::centered_square(Point::new(0.4, 0.6), 0.3);
        let rq = cold_remainder(&server, QuerySpec::Range { window: w });
        let reply = server.process_remainder(7, &rq);
        let mut got: Vec<ObjectId> = reply.objects.iter().map(|o| o.id).collect();
        got.sort_unstable();
        assert_eq!(got, naive::range_naive(server.snapshot().store(), &w));
        assert!(reply.confirmed.is_empty(), "cold cache has nothing cached");
        assert!(!reply.index.is_empty(), "Ir must accompany Rr");
        assert!(reply.downlink_bytes() > 0);
    }

    #[test]
    fn knn_reply_objects_arrive_in_distance_order() {
        let server = sample_server(300, 2, FormPolicy::Compact);
        let p = Point::new(0.5, 0.5);
        let rq = cold_remainder(&server, QuerySpec::Knn { center: p, k: 8 });
        let reply = server.process_remainder(1, &rq);
        assert_eq!(reply.objects.len(), 8);
        let d: Vec<f64> = reply.objects.iter().map(|o| o.mbr.min_dist(&p)).collect();
        for w in d.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn join_reply_matches_naive() {
        let server = sample_server(120, 3, FormPolicy::Adaptive);
        let dist = 0.03;
        let rq = cold_remainder(&server, QuerySpec::Join { dist });
        let reply = server.process_remainder(1, &rq);
        let mut pairs = reply.pairs.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, naive::join_naive(server.snapshot().store(), dist));
        // All pair members must be transmitted exactly once.
        let mut ids: Vec<ObjectId> = reply.objects.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        let mut expect: Vec<ObjectId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(ids, expect);
    }

    #[test]
    fn form_policy_sizes_are_ordered() {
        // Same remainder, three form policies: compact ≤ adaptive(d) ≤ full
        // in index bytes.
        let spec = QuerySpec::Knn {
            center: Point::new(0.25, 0.75),
            k: 3,
        };
        let full = sample_server(400, 4, FormPolicy::Full);
        let compact = sample_server(400, 4, FormPolicy::Compact);
        let adaptive = sample_server(400, 4, FormPolicy::Adaptive);
        let b_full = full
            .process_remainder(1, &cold_remainder(&full, spec))
            .index_bytes();
        let b_compact = compact
            .process_remainder(1, &cold_remainder(&compact, spec))
            .index_bytes();
        let b_adaptive = adaptive
            .process_remainder(1, &cold_remainder(&adaptive, spec))
            .index_bytes();
        assert!(b_compact <= b_adaptive, "{b_compact} > {b_adaptive}");
        assert!(b_adaptive <= b_full, "{b_adaptive} > {b_full}");
        assert!(b_compact < b_full, "compact must actually save bytes");
    }

    #[test]
    fn adaptive_d_feedback_changes_future_forms() {
        let server = sample_server(400, 5, FormPolicy::Adaptive);
        let spec = QuerySpec::Knn {
            center: Point::new(0.5, 0.5),
            k: 2,
        };
        let before = server
            .process_remainder(9, &cold_remainder(&server, spec))
            .index_bytes();
        // Report a strongly rising fmr twice: d goes up by 2.
        server.report_fmr(9, 0.1);
        server.report_fmr(9, 0.5);
        server.report_fmr(9, 0.9);
        assert!(server.client_d(9) > ServerConfig::default().initial_d);
        let after = server
            .process_remainder(9, &cold_remainder(&server, spec))
            .index_bytes();
        assert!(after >= before, "higher d must not shrink the form");
    }

    #[test]
    fn forgotten_client_restarts_from_initial_d() {
        let server = sample_server(200, 7, FormPolicy::Adaptive);
        server.report_fmr(3, 0.1);
        server.report_fmr(3, 0.5);
        assert!(server.client_d(3) > ServerConfig::default().initial_d);
        assert_eq!(server.tracked_clients(), 1);
        assert!(server.forget_client(3));
        assert_eq!(server.client_d(3), ServerConfig::default().initial_d);
        assert_eq!(server.tracked_clients(), 0);
    }

    /// Every reply a one-shard deployment puts on the client channel, one
    /// FNV digest each: cold range / kNN / join remainders and
    /// `Request::Direct` for each kind, a three-update batch with the
    /// `Stale` / `Fresh` / `Fresh` contacts around it, a second batch that
    /// prunes epoch 0 below a `max_update_history: 1` horizon
    /// (`FullRefresh`, then `Stale` one epoch up) and a warm `Fresh` over
    /// an inner node — whose invalidation list is empty by construction:
    /// with one shard there is no quiet shard for a change to ride along
    /// from. Recorded at the last commit where `Server` had a serve path
    /// of its own (`Snapshot::answer_remainder`, `transport::dispatch`,
    /// `ServerCore::apply_updates_bounded`), debug and release.
    #[test]
    fn one_shard_deployment_matches_recorded_pins() {
        use crate::test_util::Fnv;
        use crate::transport::Transport;
        use crate::updates::Update;
        use pc_rtree::proto::{CellRef, HeapEntry, RemainderQuery, Request, Side, VersionedReply};
        use pc_rtree::{ChildRef, ObjectStore, RTreeConfig, SpatialObject};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(29);
        let objects: Vec<SpatialObject> = (0..600)
            .map(|i| SpatialObject {
                id: ObjectId(i),
                mbr: Rect::centered_square(
                    Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                    rng.random_range(0.0..0.03),
                ),
                size_bytes: rng.random_range(100..2000),
            })
            .collect();
        let server = Server::new(
            ObjectStore::new(objects),
            RTreeConfig::small(),
            ServerConfig {
                max_update_history: 1,
                ..ServerConfig::default()
            },
        );
        let specs = [
            QuerySpec::Range {
                window: Rect::centered_square(Point::new(0.5, 0.5), 0.3),
            },
            QuerySpec::Knn {
                center: Point::new(0.49, 0.52),
                k: 12,
            },
            QuerySpec::Join { dist: 0.004 },
        ];
        let digest = |feed: &dyn Fn(&mut Fnv)| {
            let mut h = Fnv::new();
            feed(&mut h);
            h.0
        };
        let mut pins: Vec<u64> = Vec::new();
        let cold_and_direct = |pins: &mut Vec<u64>| {
            for spec in specs {
                let reply = server.process_remainder(1, &cold_remainder(&server, spec));
                pins.push(digest(&|h| h.reply(&reply)));
            }
            for spec in specs {
                let reply = server.call(1, Request::Direct(spec)).into_direct();
                pins.push(digest(&|h| h.direct(&reply)));
            }
        };
        let contact = |pins: &mut Vec<u64>, rq: &RemainderQuery, stamp: u64| {
            let reply = server.process_remainder_versioned(2, rq, stamp);
            pins.push(digest(&|h| h.versioned(&reply)));
            reply
        };

        cold_and_direct(&mut pins);
        let epoch = server.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.5, 0.5), 0.02),
                size_bytes: 700,
            },
            Update::Move {
                id: ObjectId(17),
                to: Rect::centered_square(Point::new(0.9, 0.1), 0.01),
            },
            Update::Delete(ObjectId(40)),
        ]);
        assert_eq!(epoch, 1);
        // A client synced at epoch 0 is refused, then answered.
        let stale = contact(&mut pins, &cold_remainder(&server, specs[0]), 0);
        assert!(matches!(stale, VersionedReply::Stale { epoch: 1, .. }));
        for spec in [specs[0], specs[1]] {
            let fresh = contact(&mut pins, &cold_remainder(&server, spec), 1);
            assert!(matches!(fresh, VersionedReply::Fresh { epoch: 1, .. }));
        }
        // The second publish prunes epoch 0: full refresh below the
        // horizon, plain staleness at it.
        let epoch = server.apply_updates(&[
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.2, 0.8), 0.005),
                size_bytes: 300,
            },
            Update::Insert {
                mbr: Rect::centered_square(Point::new(0.15, 0.85), 0.01),
                size_bytes: 900,
            },
        ]);
        assert_eq!(epoch, 2);
        let refresh = contact(&mut pins, &cold_remainder(&server, specs[1]), 0);
        assert_eq!(refresh, VersionedReply::FullRefresh { epoch: 2 });
        let stale = contact(&mut pins, &cold_remainder(&server, specs[1]), 1);
        assert!(matches!(stale, VersionedReply::Stale { epoch: 2, .. }));
        // A warm heap: one inner node under the root, at the current epoch.
        let snap = server.snapshot();
        let tree = snap.shard(0).tree();
        let inner = tree
            .node(tree.root())
            .children()
            .iter()
            .find_map(|c| match *c {
                ChildRef::Node(n) => Some(n),
                ChildRef::Object(_) => None,
            })
            .expect("600 objects make a tree taller than one node");
        let mbr = tree.node(inner).mbr().unwrap();
        let warm = RemainderQuery {
            spec: QuerySpec::Range { window: mbr },
            already_found: 0,
            heap: vec![(
                0.0,
                HeapEntry::Single(Side::Cell {
                    cell: CellRef::node_root(inner),
                    mbr,
                }),
            )],
        };
        let fresh = contact(&mut pins, &warm, 2);
        assert!(
            matches!(&fresh, VersionedReply::Fresh { invalidate, epoch: 2, .. } if invalidate.is_empty())
        );
        cold_and_direct(&mut pins);

        const RECORDED: [u64; 18] = [
            0x3a92_e418_f8ee_841d,
            0x5943_7bfa_c7d4_6d1b,
            0x01d0_dc14_7fb1_e01e,
            0x18df_6d69_2dc0_332e,
            0x2f6c_5cfc_163f_efc3,
            0x398d_eea3_205d_79ae,
            0xf7b1_10fc_00a0_3653,
            0xb4e6_c60f_e87f_05c9,
            0x055b_4687_d299_25c5,
            0x912c_043c_6531_6385,
            0x6967_8fd4_2141_dbd2,
            0x265c_49e9_f992_0123,
            0x72c2_1ab9_117d_5777,
            0xa5de_f17b_d555_49a1,
            0xd151_2a6f_192e_972b,
            0x9992_7e19_beeb_9bb2,
            0x1a4f_6f03_4258_4aeb,
            0xf7ed_c281_40f2_34af,
        ];
        assert_eq!(pins, RECORDED, "reply digests {:#018x?}", pins);
    }

    #[test]
    fn bpt_bytes_within_twice_index_size() {
        // §4.2: "the additional space required to store the binary
        // partition trees … is no more than two times that of the R-tree
        // index itself."
        let server = sample_server(500, 6, FormPolicy::Adaptive);
        let aux = server.bpt_bytes();
        let index = server.snapshot().shard(0).tree().stats().index_bytes;
        assert!(aux > 0);
        assert!(aux <= 2 * index, "aux {aux} vs index {index}");
    }
}

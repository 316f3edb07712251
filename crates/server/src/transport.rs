//! The client ↔ server boundary as a first-class API: a [`Transport`]
//! carries typed [`Request`]/[`Response`] envelopes between a client (by
//! id) and *some* server — in-process ([`crate::Server`],
//! [`crate::Cluster`]) or remote ([`crate::TcpTransport`]) — and a
//! [`ServerHandle`] is a transport that also exposes the deployment's
//! [`ServerCore`] — the cell its one published [`crate::Snapshot`] is
//! pinned from (dataset + index metadata that both ends of the paper's
//! Fig. 3 know out of band: the client's catalog is bootstrapped from it,
//! and the simulator reads ground-truth object sizes from it).
//!
//! The split matters: *control and query traffic* (remainder queries, fmr
//! reports, disconnects) must go through [`Transport::call`] so every byte
//! can be accounted on the 384 Kbps channel, while *shared metadata reads*
//! go through [`ServerHandle::core`] and cost nothing — exactly the
//! distinction the byte ledger draws.

use crate::server::ClientId;
use crate::updates::Update;
use crate::ServerCore;
use pc_geom::Rect;
use pc_rtree::proto::{Request, Response};
use pc_rtree::NodeId;

/// A synchronous request/reply channel to a server. `Send + Sync` so one
/// transport instance can serve a whole fleet of concurrent clients.
pub trait Transport: Send + Sync {
    /// Submits one request on behalf of `client` and blocks for the reply.
    /// Implementations must answer with the response variant matching the
    /// request variant (see [`Response`]'s accessors).
    fn call(&self, client: ClientId, req: Request) -> Response;
}

/// A [`Transport`] that also exposes the deployment's cell — what
/// simulation drivers hold instead of a concrete `&Server`.
pub trait ServerHandle: Transport {
    /// The deployment's cell: `core().pin()` is the whole world at one
    /// epoch — the store, every shard (metadata reads, not traffic).
    fn core(&self) -> &ServerCore;

    /// Applies one update batch through this handle (the churn driver's
    /// entry point): one epoch bump for the whole deployment, update-log
    /// history pruned below the fleet low-water mark. Returns the new
    /// epoch.
    fn apply_updates(&self, updates: &[Update]) -> u64;

    /// The out-of-band catalog bootstrap: `(root node, root MBR)` of the
    /// index a cold client should navigate (`None` for an empty world)
    /// plus the deployment epoch that root was pinned at. A multi-shard
    /// cluster hands out its synthetic super-root so clients navigate the
    /// merged view instead of one shard's slice.
    fn bootstrap_root(&self) -> (Option<(NodeId, Rect)>, u64);

    /// Retained update-log records (changed nodes) across the whole
    /// deployment, summed over shards. The bounded-log diagnostic
    /// fleet runs report.
    fn log_records(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FormPolicy, Server, ServerConfig};
    use crate::test_util::{cold_remainder, sample_server, sample_store};
    use pc_geom::{Point, Rect};
    use pc_rtree::proto::{QuerySpec, VersionedReply};
    use pc_rtree::{ObjectId, RTreeConfig};
    use proptest::prelude::*;

    #[test]
    fn handles_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Transport>();
        assert_send_sync::<dyn ServerHandle>();
        // `&Server` coerces to a handle at call sites.
        let server = sample_server(50, 1, FormPolicy::Adaptive);
        let handle: &dyn ServerHandle = &server;
        assert_eq!(handle.core().pin().store().len(), 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Each `Request` variant dispatched through `&Server` as a
        /// transport must be outcome-identical to the corresponding bare
        /// `Server` method — including every arm of the §7 version gate
        /// (`Fresh`, `Stale`
        /// behind a just-applied update, `FullRefresh` below a pruned
        /// horizon).
        #[test]
        fn in_process_dispatch_equals_direct_methods(
            seed in 0u64..1000,
            client in 0u32..8,
            which in 0u8..3,
            cx in 0.1f64..0.9, cy in 0.1f64..0.9,
            k in 1u32..6,
            fmr_a in 0.0f64..1.0, fmr_b in 0.0f64..1.0,
        ) {
            let spec = match which {
                0 => QuerySpec::Range {
                    window: Rect::centered_square(Point::new(cx, cy), 0.2),
                },
                1 => QuerySpec::Knn { center: Point::new(cx, cy), k },
                _ => QuerySpec::Join { dist: 0.02 },
            };

            // Two identical servers (one epoch of history, so the second
            // publish prunes epoch 0): one driven through bare methods, one
            // as a transport.
            let build = || {
                Server::new(
                    sample_store(150, seed),
                    RTreeConfig::small(),
                    ServerConfig { max_update_history: 1, ..ServerConfig::default() },
                )
            };
            let (via_methods, via_transport) = (build(), build());
            let t: &dyn Transport = &via_transport;
            // The same versioned contact both ways.
            let gate = |rq: &pc_rtree::proto::RemainderQuery, epoch: u64| {
                let req = Request::RemainderVersioned { query: rq.clone(), epoch };
                let a = t.call(client, req).into_versioned();
                let m = via_methods.process_remainder_versioned(client, rq, epoch);
                (a, m)
            };

            // Remainder.
            let rq = cold_remainder(&via_methods, spec);
            let m = via_methods.process_remainder(client, &rq);
            let a = t.call(client, Request::Remainder(rq.clone())).into_remainder();
            prop_assert_eq!(&a, &m);

            // Versioned remainder (epoch 0 == current: always fresh).
            let (a, m) = gate(&rq, 0);
            prop_assert!(matches!(m, VersionedReply::Fresh { .. }), "{:?}", m);
            prop_assert_eq!(&a, &m);

            // Direct.
            let a = t.call(client, Request::Direct(spec)).into_direct();
            let b = via_methods.direct(&spec);
            let b_ids: Vec<ObjectId> = b.results.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(a.results, b_ids);
            prop_assert_eq!(a.pairs, b.result_pairs);
            prop_assert_eq!(a.expansions, b.expansions);

            // Fmr reports move the same adaptive trajectory.
            let a1 = t.call(client, Request::ReportFmr { fmr: fmr_a }).into_new_d();
            let b1 = via_methods.report_fmr(client, fmr_a);
            prop_assert_eq!(a1, b1);
            let a2 = t.call(client, Request::ReportFmr { fmr: fmr_b }).into_new_d();
            let b2 = via_methods.report_fmr(client, fmr_b);
            prop_assert_eq!(a2, b2);

            // Forget drops exactly what the method drops.
            prop_assert_eq!(
                t.call(client, Request::Forget).into_forgotten(),
                via_methods.forget_client(client)
            );
            prop_assert_eq!(
                via_transport.tracked_clients(),
                via_methods.tracked_clients()
            );

            // A client epoch behind a just-applied update: stale.
            let publish = |i: u32| {
                let batch = [Update::Move {
                    id: ObjectId(i),
                    to: Rect::from_point(Point::new(cx, cy)),
                }];
                for server in [&via_methods, &via_transport] {
                    server.apply_updates(&batch);
                }
            };
            publish(0);
            let (a, m) = gate(&rq, 0);
            prop_assert!(matches!(m, VersionedReply::Stale { .. }), "{:?}", m);
            prop_assert_eq!(&a, &m);

            // A second publish prunes epoch 0 below the horizon: full
            // refresh; a client at epoch 1 is merely stale.
            publish(1);
            let (a, m) = gate(&rq, 0);
            prop_assert_eq!(&m, &VersionedReply::FullRefresh { epoch: 2 });
            prop_assert_eq!(&a, &m);
            let (a, m) = gate(&rq, 1);
            prop_assert!(matches!(m, VersionedReply::Stale { .. }), "{:?}", m);
            prop_assert_eq!(&a, &m);
        }
    }
}

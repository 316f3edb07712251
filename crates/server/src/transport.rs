//! The client ↔ server boundary as a first-class API: a [`Transport`]
//! carries typed [`Request`]/[`Response`] envelopes between a client (by
//! id) and *some* server — in-process ([`crate::Cluster`]) or remote
//! ([`crate::TcpTransport`]) — and a
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

use crate::config::ClientId;
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
/// simulation drivers hold instead of a concrete `&Cluster`.
pub trait ServerHandle: Transport {
    /// The deployment's cell: `core().pin()` is the whole world at one
    /// epoch — the store, every shard, the update log (metadata reads, not
    /// traffic).
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

    /// Retained records (changed nodes) of the deployment's one update
    /// log. The bounded-log diagnostic fleet runs report.
    fn log_records(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FormPolicy;
    use crate::test_util::sample_server;

    #[test]
    fn handles_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Transport>();
        assert_send_sync::<dyn ServerHandle>();
        // `&Cluster` coerces to a handle at call sites.
        let server = sample_server(50, 1, FormPolicy::Adaptive);
        let handle: &dyn ServerHandle = &server;
        assert_eq!(handle.core().pin().store().len(), 50);
    }
}

//! Peer-to-peer cache collaboration — the paper's second §7 future-work
//! item: "extend proactive caching so that the cached index is shared not
//! only among various types of queries on the same client, but also among
//! various clients in the neighborhood … particularly useful in a mobile
//! ad-hoc network, where the bandwidth of local connections is much
//! broader and cheaper than that of remote connections."
//!
//! Protocol: a querying client runs stage ① on its own cache; if a
//! remainder is left, it hands the remainder — the same `{Q, H}` execution
//! state it would send the server — to nearby peers over the broadband
//! local channel. Each peer **resumes the remainder over its own cache
//! view** (the same engine, still non-authoritative), confirms what its
//! cached index supports, ships payloads the origin lacks plus the
//! *frontier antichains* of the index nodes it used, and returns a smaller
//! remainder. Whatever survives the peer chain goes to the server as
//! usual. Every peer contribution is absorbed exactly like a server reply,
//! so all cache invariants carry over unchanged.
//!
//! Flag discipline: heap `cached` flags always mean "the **origin** holds
//! this payload". A peer temporarily ORs in its own holdings so its engine
//! run can confirm from peer-cached payloads, transfers those payloads to
//! the origin, and restores origin-semantics on the outgoing remainder.
//! Blocked-at-peer objects conservatively lose the peer's knowledge.

use pc_cache::{CacheView, Catalog, ItemData, ItemKey, ProactiveCache};
use pc_net::Channel;
use pc_rtree::engine::{resume, AccessLog};
use pc_rtree::proto::{
    HeapEntry, NodeShipment, RemainderQuery, ServerReply, Side, CONFIRM_BYTES, OBJECT_HEADER_BYTES,
};
use pc_rtree::{NodeId, ObjectId};
use std::collections::{HashMap, HashSet};

/// What one peer contributed to a query.
#[derive(Clone, Debug)]
pub struct PeerContribution {
    /// Shaped exactly like a server reply: confirmations for origin-held
    /// results, payload transfers, join pairs, and index shipments (the
    /// peer's frontier antichains).
    pub reply: ServerReply,
    /// The shrunken remainder (origin flag semantics), if any.
    pub remainder: Option<RemainderQuery>,
}

/// Default local (peer-to-peer) channel: 802.11-class broadband, as the
/// paper's MANET remark assumes — an order of magnitude above 3G.
pub fn local_channel() -> Channel {
    Channel {
        bandwidth_bps: 11_000_000,
        setup_s: 0.0,
    }
}

/// Serves a neighbor's remainder from this peer's cache.
pub fn peer_serve(
    cache: &ProactiveCache,
    catalog: Catalog,
    rq: &RemainderQuery,
) -> PeerContribution {
    // Which results the *origin* already holds, per the incoming flags.
    let mut origin_holds: HashMap<ObjectId, bool> = HashMap::new();
    let mut collect = |s: &Side| {
        if let Side::Obj { id, cached, .. } = s {
            origin_holds.insert(*id, *cached);
        }
    };
    for (_, e) in &rq.heap {
        match e {
            HeapEntry::Single(s) => collect(s),
            HeapEntry::Pair(a, b) => {
                collect(a);
                collect(b);
            }
        }
    }

    // OR our own holdings into the flags so the engine can confirm from
    // peer-cached payloads.
    let boosted = RemainderQuery {
        spec: rq.spec,
        already_found: rq.already_found,
        heap: rq
            .heap
            .iter()
            .map(|(k, e)| (*k, boost_entry(e, cache)))
            .collect(),
    };

    let mut log = AccessLog::default();
    let outcome = {
        let view = CacheView::new(cache, catalog);
        resume(&view, &boosted, &mut log)
    };

    // Split confirmations: origin-held results need no bytes; the rest we
    // transfer from our own object items (we confirmed them, so we hold
    // them — or the origin does).
    let mut confirmed = Vec::new();
    let mut objects = Vec::new();
    let mut transferred: HashSet<ObjectId> = HashSet::new();
    for &(id, _) in &outcome.results {
        if origin_holds.get(&id).copied().unwrap_or(false) {
            confirmed.push(id);
        } else if let Some(item) = cache.get(ItemKey::Object(id)) {
            let ItemData::Object(so) = &item.data else {
                // pc-check: allow(no-unwrap, "cache key-space invariant: ItemKey::Object entries always hold ItemData::Object (enforced at every insert site); single-threaded sim, no waiters to strand")
                unreachable!("object key holds object data")
            };
            objects.push(*so);
            transferred.insert(id);
        } else {
            // Confirmed purely from origin-held payload we mis-flagged?
            // Cannot happen: confirmation requires cached=true, which is
            // origin_holds ∨ peer_holds.
            // pc-check: allow(no-unwrap, "engine invariant spelled out above: cached=true implies one of the two sides holds the object; single-threaded sim, no waiters to strand")
            unreachable!("confirmed object held by neither side")
        }
    }

    // Index shipments: the frontier antichain of every node our engine
    // expanded (a covering antichain, mergeable like any server form).
    let mut index: Vec<NodeShipment> = log
        .shipped_nodes()
        .into_iter()
        .filter_map(|n| ship_from_cache(cache, n))
        .collect();
    index.sort_by_key(|s| std::cmp::Reverse(s.level));

    // Outgoing remainder: restore origin flag semantics (transferred
    // payloads are origin-held now; peer-only knowledge is dropped).
    let remainder = outcome.remainder.map(|mut rem| {
        for (_, e) in &mut rem.heap {
            restore_entry(e, &origin_holds, &transferred);
        }
        rem
    });

    PeerContribution {
        reply: ServerReply {
            confirmed,
            objects,
            pairs: outcome.result_pairs,
            index,
            expansions: outcome.expansions,
        },
        remainder,
    }
}

fn boost_entry(e: &HeapEntry, cache: &ProactiveCache) -> HeapEntry {
    let boost = |s: &Side| match *s {
        Side::Obj { id, mbr, cached } => Side::Obj {
            id,
            mbr,
            cached: cached || cache.contains_object(id),
        },
        c => c,
    };
    match e {
        HeapEntry::Single(s) => HeapEntry::Single(boost(s)),
        HeapEntry::Pair(a, b) => HeapEntry::Pair(boost(a), boost(b)),
    }
}

fn restore_entry(
    e: &mut HeapEntry,
    origin_holds: &HashMap<ObjectId, bool>,
    transferred: &HashSet<ObjectId>,
) {
    let restore = |s: &mut Side| {
        if let Side::Obj { id, cached, .. } = s {
            *cached = origin_holds.get(id).copied().unwrap_or(false) || transferred.contains(id);
        }
    };
    match e {
        HeapEntry::Single(s) => restore(s),
        HeapEntry::Pair(a, b) => {
            restore(a);
            restore(b);
        }
    }
}

/// Builds a shipment from a cached node's current frontier.
fn ship_from_cache(cache: &ProactiveCache, node: NodeId) -> Option<NodeShipment> {
    let item = cache.get(ItemKey::Node(node))?;
    let ItemData::Node(view) = &item.data else {
        // pc-check: allow(no-unwrap, "cache key-space invariant: ItemKey::Node entries always hold ItemData::Node (enforced at every insert site); single-threaded sim, no waiters to strand")
        unreachable!("node key holds node data")
    };
    let parent = match item.meta.parent {
        Some(ItemKey::Node(p)) => Some(p),
        _ => None,
    };
    Some(NodeShipment {
        node,
        level: view.level(),
        parent,
        cells: view.frontier_records(),
    })
}

/// Everything one collaborative query produced.
#[derive(Clone, Debug, Default)]
pub struct CollabOutcome {
    pub objects: Vec<ObjectId>,
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Results served from the origin's own cache.
    pub self_served: usize,
    /// Results confirmed or transferred by peers.
    pub peer_served: usize,
    pub peers_asked: u32,
    pub server_contacted: bool,
    pub local_bytes: u64,
    pub remote_bytes: u64,
    /// Byte-weighted average response time across the peer and server
    /// phases (the §4.1 metric generalized to the two-channel timeline).
    pub avg_response_s: f64,
}

/// Runs one query for `clients[origin]`, consulting peers within `radius`
/// (nearest first, at most `max_peers`) before falling back to the server
/// (through its transport, like any remainder).
#[allow(clippy::too_many_arguments)]
pub fn query_with_peers(
    clients: &mut [pc_client::Client],
    positions: &[pc_geom::Point],
    origin: usize,
    radius: f64,
    max_peers: usize,
    server: &dyn pc_server::ServerHandle,
    spec: &pc_rtree::proto::QuerySpec,
    channels: (&Channel, &Channel), // (local, remote)
    server_time_s: f64,
) -> CollabOutcome {
    let (local_ch, remote_ch) = channels;
    let pos = positions[origin];
    let catalog = clients[origin].catalog();

    clients[origin].begin_query();
    let local = clients[origin].run_local(spec);

    let mut out = CollabOutcome {
        self_served: local.saved.len(),
        ..Default::default()
    };
    let mut objects = local.saved.clone();
    let mut pairs = local.saved_pairs.clone();
    let mut seen: HashSet<ObjectId> = objects.iter().copied().collect();

    // Byte-weighted response bookkeeping: saved bytes answer at t = 0.
    let snap = server.core().pin();
    let obj_bytes = |id: ObjectId| snap.store().get(id).size_bytes as u64;
    let mut weighted = 0.0;
    let mut total_result_bytes: u64 = objects.iter().map(|&o| obj_bytes(o)).sum();
    let mut t = 0.0;
    // Confirmations and payloads answer as a reply streams in over `ch`
    // from time `t`; returns when its last byte lands.
    let mut stream_in = |ch: &Channel, reply: &ServerReply, mut t: f64| {
        t += ch.transfer_s(reply.confirmed.len() as u64 * CONFIRM_BYTES);
        for id in &reply.confirmed {
            let b = obj_bytes(*id);
            weighted += b as f64 * t;
            total_result_bytes += b;
            if seen.insert(*id) {
                objects.push(*id);
            }
        }
        for o in &reply.objects {
            t += ch.transfer_s(o.size_bytes as u64 + OBJECT_HEADER_BYTES);
            weighted += o.size_bytes as f64 * t;
            total_result_bytes += o.size_bytes as u64;
            if seen.insert(o.id) {
                objects.push(o.id);
            }
        }
        t
    };

    let mut rem = local.remainder;

    // Nearest peers first.
    let mut order: Vec<usize> = (0..clients.len())
        .filter(|&i| i != origin && positions[i].dist(&pos) <= radius)
        .collect();
    order.sort_by(|&a, &b| {
        positions[a]
            .dist(&pos)
            .total_cmp(&positions[b].dist(&pos))
            .then(a.cmp(&b))
    });
    order.truncate(max_peers);

    for p in order {
        let Some(rq) = &rem else { break };
        out.peers_asked += 1;
        let contribution = peer_serve(clients[p].cache(), catalog, rq);
        let up = rq.uplink_bytes();
        let down = contribution.reply.downlink_bytes();
        out.local_bytes += up + down;
        t += local_ch.transfer_s(up);
        let reply = &contribution.reply;
        t = stream_in(local_ch, reply, t);
        out.peer_served += reply.confirmed.len() + reply.objects.len();
        pairs.extend(reply.pairs.iter().copied());
        clients[origin].absorb(reply, pos);
        rem = contribution.remainder;
    }

    if let Some(rq) = &rem {
        out.server_contacted = true;
        let reply = server
            .call(
                origin as u32,
                pc_rtree::proto::Request::Remainder(rq.clone()),
            )
            .into_remainder();
        out.remote_bytes += rq.uplink_bytes() + reply.downlink_bytes();
        t += remote_ch.transfer_s(rq.uplink_bytes()) + server_time_s;
        stream_in(remote_ch, &reply, t);
        pairs.extend(reply.pairs.iter().copied());
        clients[origin].absorb(&reply, pos);
    }

    pairs.sort_unstable();
    pairs.dedup();
    out.objects = objects;
    out.pairs = pairs;
    out.avg_response_s = if total_result_bytes > 0 {
        weighted / total_result_bytes as f64
    } else {
        0.0
    };
    out
}

#[cfg(test)]
mod tests;

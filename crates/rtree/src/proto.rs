//! Client ↔ server wire protocol and byte accounting.
//!
//! Every metric in the paper's evaluation (uplink/downlink bytes, response
//! time, hit rates) is a function of the bytes these message types occupy
//! on the 384 Kbps channel, so the accounting rules live here, next to the
//! types, and are used consistently by the proactive client, the server and
//! both baselines.
//!
//! Sizes use fixed per-record costs (an MBR is four 8-byte coordinates, a
//! pointer/id is 8 bytes, …). The absolute constants only scale the
//! results; all comparisons in the paper are *relative* across caching
//! models that share these rules.
//!
//! These sizes are not just a model: the `pc_wire` crate encodes every
//! envelope into real length-prefixed frames whose body length equals
//! `wire_bytes()` exactly (framing overhead itemized separately), and the
//! TCP loopback transport (`pc_server::wire`) cross-checks measured frame
//! bytes against these constants on every run. Changing a constant here
//! without the matching codec change fails the reconciliation pins.

use crate::bpt::Code;
use crate::{NodeId, ObjectId, SpatialObject};
use pc_geom::{Point, Rect};

/// Disk page size of the R*-tree (§6.1: "a page capacity of 4 KB").
pub const PAGE_BYTES: u64 = 4096;
/// One `(MBR, pointer)` entry: 4 × 8-byte coordinates + 8-byte pointer.
pub const ENTRY_BYTES: u64 = 40;
/// Per-node page header (level, count, parent).
pub const NODE_HEADER_BYTES: u64 = 16;
/// Per-object transmission header: id + payload length + MBR.
pub const OBJECT_HEADER_BYTES: u64 = 40;
/// A query descriptor (type tag + window/center/threshold + k).
pub const QUERY_DESC_BYTES: u64 = 64;
/// One serialized heap entry of a remainder query: cell/object reference +
/// MBR + priority key + flags.
pub const HEAP_ENTRY_BYTES: u64 = 48;
/// A serialized heap *pair* (join): two sides + key.
pub const HEAP_PAIR_BYTES: u64 = 88;
/// Server confirmation that a client-cached object is a result (id only).
pub const CONFIRM_BYTES: u64 = 8;
/// One join result pair (two ids).
pub const PAIR_BYTES: u64 = 8;
/// One object id in a page-cache uplink manifest.
pub const OBJECT_ID_BYTES: u64 = 4;
/// Header of a per-node index shipment (node id, level, parent, count).
pub const SHIPMENT_HEADER_BYTES: u64 = 16;
/// A §4.3 false-miss-rate report on the uplink: the rate (8 bytes) plus the
/// reporting-window tag.
pub const FMR_REPORT_BYTES: u64 = 12;
/// The server's answer to an fmr report: the resolution byte `D` (§4.3).
pub const FMR_REPLY_BYTES: u64 = 1;
/// A client's disconnect/forget notice (type tag only).
pub const FORGET_BYTES: u64 = 4;
/// The server's one-byte acknowledgement of a forget notice.
pub const FORGET_ACK_BYTES: u64 = 1;
/// An epoch stamp on a version-aware remainder (§7 invalidation protocol).
pub const EPOCH_BYTES: u64 = 8;
/// One invalidated node id piggybacked on a versioned reply.
pub const INVALIDATION_BYTES: u64 = 8;
/// A full-refresh refusal: type tag plus the current epoch stamp. Sent when
/// the client's epoch fell below the server's pruned invalidation horizon,
/// so no per-node list can be enumerated honestly.
pub const FULL_REFRESH_BYTES: u64 = 4 + EPOCH_BYTES;
/// Header of a per-shard epoch vector (shard count; the entries are
/// [`EPOCH_BYTES`] each) — a term of the modelled backplane cost
/// ([`shard_sub_reply_bytes`]) that the parked backplane codec will
/// settle, not server state: the deployment keeps one scalar epoch.
pub const EPOCH_VECTOR_HEADER_BYTES: u64 = 4;
/// Header of one router → shard sub-query (shard id + type tag); the
/// remainder payload is sized like any uplink remainder.
pub const SHARD_SUB_HEADER_BYTES: u64 = 8;

/// A spatial query, the three types of §6.1 ("randomly selected from range,
/// kNN, and join").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySpec {
    /// Window query centered on the client ("the window of a range query is
    /// centered at client's current position").
    Range { window: Rect },
    /// k-nearest-neighbor query from `center`.
    Knn { center: Point, k: u32 },
    /// Distance self-join: all object pairs closer than `dist`.
    Join { dist: f64 },
}

impl QuerySpec {
    /// Priority-queue key for an MBR under this query (mindist for kNN,
    /// order-irrelevant zero for range; join keys pairs, see
    /// [`pair_key`]).
    #[inline]
    pub fn key_for(&self, mbr: &Rect) -> f64 {
        match self {
            QuerySpec::Range { .. } => 0.0,
            QuerySpec::Knn { center, .. } => mbr.min_dist(center),
            QuerySpec::Join { .. } => 0.0,
        }
    }

    /// Whether an MBR can contribute results to this (non-join) query.
    #[inline]
    pub fn qualifies(&self, mbr: &Rect) -> bool {
        match self {
            QuerySpec::Range { window } => window.intersects(mbr),
            QuerySpec::Knn { .. } => true,
            QuerySpec::Join { .. } => true,
        }
    }

    pub fn is_join(&self) -> bool {
        matches!(self, QuerySpec::Join { .. })
    }
}

/// Priority key for a candidate pair of a distance join.
#[inline]
pub fn pair_key(a: &Rect, b: &Rect) -> f64 {
    a.min_dist_rect(b)
}

/// Reference to a BPT cell: the paper's `(n, code)` super-entry id. The
/// root cell `(n, ε)` denotes the whole node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellRef {
    pub node: NodeId,
    pub code: Code,
}

impl CellRef {
    pub fn node_root(node: NodeId) -> CellRef {
        CellRef {
            node,
            code: Code::ROOT,
        }
    }
}

impl std::fmt::Display for CellRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.node, self.code)
    }
}

/// One side of a traversal frontier: a cell (node subset) or an object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Side {
    Cell {
        cell: CellRef,
        mbr: Rect,
    },
    Obj {
        id: ObjectId,
        mbr: Rect,
        /// Whether the *client* holds the object's payload. Set by the
        /// client view during expansion and preserved across the wire so
        /// the server can skip retransmission (a paper Example 3.1
        /// "confirmed without download" case).
        cached: bool,
    },
}

impl Side {
    #[inline]
    pub fn mbr(&self) -> Rect {
        match self {
            Side::Cell { mbr, .. } | Side::Obj { mbr, .. } => *mbr,
        }
    }

    #[inline]
    pub fn is_obj(&self) -> bool {
        matches!(self, Side::Obj { .. })
    }

    /// A cell side with its node id passed through `f` (a cluster moves
    /// ids between shard-local and global space); an object side as it is.
    pub fn map_node(self, f: impl FnOnce(NodeId) -> NodeId) -> Side {
        match self {
            Side::Cell { cell, mbr } => Side::Cell {
                cell: CellRef {
                    node: f(cell.node),
                    code: cell.code,
                },
                mbr,
            },
            object => object,
        }
    }
}

/// A serialized heap entry of a remainder query: the paper ships the whole
/// execution state `H`, so entries are either single frontier items
/// (range/kNN) or frontier pairs (join).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HeapEntry {
    Single(Side),
    Pair(Side, Side),
}

impl HeapEntry {
    /// Bytes this entry occupies on the uplink.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            HeapEntry::Single(_) => HEAP_ENTRY_BYTES,
            HeapEntry::Pair(..) => HEAP_PAIR_BYTES,
        }
    }

    /// Whether the entry is a leaf entry in the paper's sense (an object,
    /// or an object pair).
    pub fn is_leaf(&self) -> bool {
        match self {
            HeapEntry::Single(s) => s.is_obj(),
            HeapEntry::Pair(a, b) => a.is_obj() && b.is_obj(),
        }
    }
}

/// The remainder query `Qr = {Q, H}` (§3.3): the original query plus the
/// priority-queue state at the point the client ran out of local index.
#[derive(Clone, Debug, PartialEq)]
pub struct RemainderQuery {
    pub spec: QuerySpec,
    /// Results already confirmed locally (the paper's `m`); for kNN the
    /// server answers a `(k - m)`-NN over `heap`.
    pub already_found: u32,
    /// `(priority key, entry)` pairs, in no particular order (the server
    /// re-heapifies).
    pub heap: Vec<(f64, HeapEntry)>,
}

impl RemainderQuery {
    /// Uplink cost of submitting this remainder.
    pub fn uplink_bytes(&self) -> u64 {
        QUERY_DESC_BYTES + self.heap.iter().map(|(_, e)| e.wire_bytes()).sum::<u64>()
    }
}

/// What a shipped cell record points at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellKind {
    /// A super entry — expandable only by asking the server again.
    Super,
    /// A full entry pointing at a child node.
    Node(NodeId),
    /// A full leaf entry pointing at an object.
    Object(ObjectId),
}

/// One cell of a node shipment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRecord {
    pub code: Code,
    pub mbr: Rect,
    pub kind: CellKind,
}

/// The supporting-index shipment for one R-tree node: a covering antichain
/// of its BPT (a full form, normal compact form, or d⁺-level compact form —
/// the engine cannot tell and does not care).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeShipment {
    pub node: NodeId,
    pub level: u16,
    /// R-tree parent, shipped so the client cache can maintain the item
    /// hierarchy of §5.2 (metadata (5)).
    pub parent: Option<NodeId>,
    pub cells: Vec<CellRecord>,
}

impl NodeShipment {
    pub fn wire_bytes(&self) -> u64 {
        SHIPMENT_HEADER_BYTES + self.cells.len() as u64 * ENTRY_BYTES
    }
}

/// The server's reply to a remainder query: result objects `Rr` plus the
/// supporting index `Ir` (§3.2), with byte-free confirmations for results
/// the client already caches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerReply {
    /// Result objects the client holds already — ids only, no payload.
    pub confirmed: Vec<ObjectId>,
    /// Result objects with payload transmission.
    pub objects: Vec<SpatialObject>,
    /// Join result pairs discovered at the server.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Supporting index `Ir`.
    pub index: Vec<NodeShipment>,
    /// Server-side cell expansions (CPU accounting for Fig. 9 / §6.4).
    pub expansions: u64,
}

impl ServerReply {
    /// Payload bytes of transmitted result objects.
    pub fn object_bytes(&self) -> u64 {
        self.objects
            .iter()
            .map(|o| OBJECT_HEADER_BYTES + o.size_bytes as u64)
            .sum()
    }

    /// Bytes of the supporting index.
    pub fn index_bytes(&self) -> u64 {
        self.index.iter().map(|s| s.wire_bytes()).sum()
    }

    /// Total downlink bytes.
    pub fn downlink_bytes(&self) -> u64 {
        self.confirmed.len() as u64 * CONFIRM_BYTES
            + self.object_bytes()
            + self.pairs.len() as u64 * PAIR_BYTES
            + self.index_bytes()
    }
}

/// A direct (uncached) query's answer: result ids plus join pairs. The
/// payload-vs-confirmation split is *not* decided here — clients that ship
/// an id manifest (PAG) negotiate transmission from their own cache state —
/// so the wire size of this reply is the id/pair lists alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DirectReply {
    /// Result object ids, in confirmation (pop) order.
    pub results: Vec<ObjectId>,
    /// Join result pairs, canonical (`small id, large id`) order.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    /// Server-side cell expansions (CPU accounting).
    pub expansions: u64,
}

impl DirectReply {
    /// Downlink bytes of the id/pair lists.
    pub fn wire_bytes(&self) -> u64 {
        self.results.len() as u64 * OBJECT_ID_BYTES + self.pairs.len() as u64 * PAIR_BYTES
    }
}

/// Reply of the version-aware remainder protocol (§7 invalidation
/// extension): every contact piggybacks the changed-node list and the
/// current epoch; a behind-epoch resume is refused outright.
#[derive(Clone, Debug, PartialEq)]
pub enum VersionedReply {
    /// The resume is valid; `invalidate` lists nodes changed since the
    /// client's epoch (piggybacked; the client drops its stale copies).
    Fresh {
        reply: ServerReply,
        invalidate: Vec<NodeId>,
        epoch: u64,
    },
    /// The remainder referenced changed nodes: the client must invalidate
    /// and re-run stage ① against its cleaned cache.
    Stale { invalidate: Vec<NodeId>, epoch: u64 },
    /// The client's epoch fell below the server's pruned invalidation
    /// horizon (the update log forgets history below the fleet's low-water
    /// mark): no per-node invalidation list can be enumerated honestly, so
    /// the client must drop its *entire* cache, re-sync its catalog and
    /// resubmit. The refusal itself is a fixed-size message
    /// ([`FULL_REFRESH_BYTES`]); the cost of re-warming the cache is paid
    /// — and accounted — on the queries that follow.
    FullRefresh { epoch: u64 },
}

impl VersionedReply {
    /// Downlink bytes: the inner reply (when fresh) plus the invalidation
    /// list and the epoch stamp; a full-refresh refusal is fixed-size.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            VersionedReply::Fresh {
                reply, invalidate, ..
            } => {
                reply.downlink_bytes() + invalidate.len() as u64 * INVALIDATION_BYTES + EPOCH_BYTES
            }
            VersionedReply::Stale { invalidate, .. } => {
                invalidate.len() as u64 * INVALIDATION_BYTES + EPOCH_BYTES
            }
            VersionedReply::FullRefresh { .. } => FULL_REFRESH_BYTES,
        }
    }
}

// ---------------------------------------------------------------------
// Cluster backplane sizes
// ---------------------------------------------------------------------

/// Backplane bytes of one router → shard leg of a scattered remainder:
/// the routing header plus the sub-query (the part of the client's
/// frontier this shard owns, re-addressed into its local node-id space),
/// sized exactly like a client uplink remainder.
pub fn shard_sub_request_bytes(query: &RemainderQuery) -> u64 {
    SHARD_SUB_HEADER_BYTES + query.uplink_bytes()
}

/// Backplane bytes of one shard → router leg of a gathered remainder: the
/// routing header, an epoch vector of a `shards`-shard cluster and the
/// partial reply at its client-downlink size — before the router
/// deduplicates boundary straddlers. The vector term is modelled cost the
/// parked backplane codec will settle (the in-process router pins one
/// snapshot at one scalar epoch and holds no such vector); its bytes are
/// part of the pinned `ClusterStats`, so they stay.
pub fn shard_sub_reply_bytes(shards: usize, reply: &ServerReply) -> u64 {
    SHARD_SUB_HEADER_BYTES
        + EPOCH_VECTOR_HEADER_BYTES
        + shards as u64 * EPOCH_BYTES
        + reply.downlink_bytes()
}

// ---------------------------------------------------------------------
// Request/reply envelopes
// ---------------------------------------------------------------------

/// Everything a client can ask the server over the 384 Kbps channel — the
/// typed uplink surface behind the `Transport` seam (`pc_server`). Each
/// variant sizes itself with the same per-record constants as the payload
/// types it wraps, so the byte ledger can account control traffic (fmr
/// reports, disconnects) exactly like query traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Stage ② of Fig. 3: resume a remainder query `Qr = {Q, H}`.
    Remainder(RemainderQuery),
    /// A remainder stamped with the client's last-synced epoch (§7).
    RemainderVersioned { query: RemainderQuery, epoch: u64 },
    /// Evaluate a query from scratch (no client-side index): the PAG/SEM
    /// protocols and the simulator's ground-truth oracle.
    Direct(QuerySpec),
    /// The periodic §4.3 false-miss-rate report.
    ReportFmr { fmr: f64 },
    /// Drop this client's adaptive state (disconnect).
    Forget,
}

impl Request {
    /// Uplink bytes this request occupies.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Request::Remainder(rq) => rq.uplink_bytes(),
            Request::RemainderVersioned { query, .. } => query.uplink_bytes() + EPOCH_BYTES,
            Request::Direct(_) => QUERY_DESC_BYTES,
            Request::ReportFmr { .. } => FMR_REPORT_BYTES,
            Request::Forget => FORGET_BYTES,
        }
    }

    /// Short label for traces and panic messages.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Remainder(_) => "remainder",
            Request::RemainderVersioned { .. } => "remainder-versioned",
            Request::Direct(_) => "direct",
            Request::ReportFmr { .. } => "report-fmr",
            Request::Forget => "forget",
        }
    }
}

/// The server's answer to a [`Request`] — one variant per request variant,
/// in the same order. A transport returning a mismatched variant is a
/// protocol violation (the `into_*` accessors panic on it).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Remainder`].
    Remainder(ServerReply),
    /// Answer to [`Request::RemainderVersioned`].
    Versioned(VersionedReply),
    /// Answer to [`Request::Direct`].
    Direct(DirectReply),
    /// Answer to [`Request::ReportFmr`]: the resolution byte `D` (the new
    /// d⁺-level the server will use for this client).
    NewD(u8),
    /// Answer to [`Request::Forget`]: whether state was tracked.
    Forgotten(bool),
}

impl Response {
    /// Downlink bytes this response occupies.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Response::Remainder(reply) => reply.downlink_bytes(),
            Response::Versioned(v) => v.wire_bytes(),
            Response::Direct(d) => d.wire_bytes(),
            Response::NewD(_) => FMR_REPLY_BYTES,
            Response::Forgotten(_) => FORGET_ACK_BYTES,
        }
    }

    fn violation(&self, want: &'static str) -> ! {
        let got = match self {
            Response::Remainder(_) => "remainder",
            Response::Versioned(_) => "remainder-versioned",
            Response::Direct(_) => "direct",
            Response::NewD(_) => "report-fmr",
            Response::Forgotten(_) => "forget",
        };
        panic!("transport protocol violation: expected a {want} response, got {got}")
    }

    pub fn into_remainder(self) -> ServerReply {
        match self {
            Response::Remainder(reply) => reply,
            other => other.violation("remainder"),
        }
    }

    pub fn into_versioned(self) -> VersionedReply {
        match self {
            Response::Versioned(v) => v,
            other => other.violation("remainder-versioned"),
        }
    }

    pub fn into_direct(self) -> DirectReply {
        match self {
            Response::Direct(d) => d,
            other => other.violation("direct"),
        }
    }

    pub fn into_new_d(self) -> u8 {
        match self {
            Response::NewD(d) => d,
            other => other.violation("report-fmr"),
        }
    }

    pub fn into_forgotten(self) -> bool {
        match self {
            Response::Forgotten(b) => b,
            other => other.violation("forget"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_keys() {
        let knn = QuerySpec::Knn {
            center: Point::new(0.0, 0.0),
            k: 3,
        };
        let r = Rect::from_coords(3.0, 4.0, 5.0, 6.0);
        assert_eq!(knn.key_for(&r), 5.0);
        let range = QuerySpec::Range {
            window: Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        };
        assert_eq!(range.key_for(&r), 0.0);
    }

    #[test]
    fn range_qualification_uses_window() {
        let range = QuerySpec::Range {
            window: Rect::from_coords(0.0, 0.0, 0.5, 0.5),
        };
        assert!(range.qualifies(&Rect::from_coords(0.4, 0.4, 0.6, 0.6)));
        assert!(!range.qualifies(&Rect::from_coords(0.6, 0.6, 0.7, 0.7)));
        let knn = QuerySpec::Knn {
            center: Point::ORIGIN,
            k: 1,
        };
        assert!(knn.qualifies(&Rect::from_coords(0.9, 0.9, 1.0, 1.0)));
    }

    #[test]
    fn remainder_uplink_bytes_sum_entries() {
        let side = Side::Cell {
            cell: CellRef::node_root(NodeId(1)),
            mbr: Rect::UNIT,
        };
        let rq = RemainderQuery {
            spec: QuerySpec::Join { dist: 0.1 },
            already_found: 0,
            heap: vec![
                (0.0, HeapEntry::Single(side)),
                (0.1, HeapEntry::Pair(side, side)),
            ],
        };
        assert_eq!(
            rq.uplink_bytes(),
            QUERY_DESC_BYTES + HEAP_ENTRY_BYTES + HEAP_PAIR_BYTES
        );
    }

    #[test]
    fn cluster_backplane_byte_accounting() {
        let side = Side::Cell {
            cell: CellRef::node_root(NodeId(1)),
            mbr: Rect::UNIT,
        };
        let query = RemainderQuery {
            spec: QuerySpec::Range { window: Rect::UNIT },
            already_found: 2,
            heap: vec![(0.0, HeapEntry::Single(side))],
        };
        assert_eq!(
            shard_sub_request_bytes(&query),
            SHARD_SUB_HEADER_BYTES + QUERY_DESC_BYTES + HEAP_ENTRY_BYTES
        );
        let reply = ServerReply {
            confirmed: vec![ObjectId(1)],
            ..ServerReply::default()
        };
        assert_eq!(
            shard_sub_reply_bytes(3, &reply),
            SHARD_SUB_HEADER_BYTES
                + EPOCH_VECTOR_HEADER_BYTES
                + 3 * EPOCH_BYTES
                + reply.downlink_bytes()
        );
    }

    #[test]
    fn heap_entry_leaf_detection() {
        let cell = Side::Cell {
            cell: CellRef::node_root(NodeId(0)),
            mbr: Rect::UNIT,
        };
        let obj = Side::Obj {
            id: ObjectId(4),
            mbr: Rect::UNIT,
            cached: false,
        };
        assert!(!HeapEntry::Single(cell).is_leaf());
        assert!(HeapEntry::Single(obj).is_leaf());
        assert!(HeapEntry::Pair(obj, obj).is_leaf());
        assert!(!HeapEntry::Pair(obj, cell).is_leaf());
    }

    #[test]
    fn reply_byte_accounting() {
        let reply = ServerReply {
            confirmed: vec![ObjectId(1), ObjectId(2)],
            objects: vec![SpatialObject {
                id: ObjectId(3),
                mbr: Rect::UNIT,
                size_bytes: 1000,
            }],
            pairs: vec![(ObjectId(1), ObjectId(3))],
            index: vec![NodeShipment {
                node: NodeId(0),
                level: 1,
                parent: None,
                cells: vec![
                    CellRecord {
                        code: Code::ROOT,
                        mbr: Rect::UNIT,
                        kind: CellKind::Super,
                    };
                    3
                ],
            }],
            expansions: 7,
        };
        assert_eq!(reply.object_bytes(), OBJECT_HEADER_BYTES + 1000);
        assert_eq!(reply.index_bytes(), SHIPMENT_HEADER_BYTES + 3 * ENTRY_BYTES);
        assert_eq!(
            reply.downlink_bytes(),
            2 * CONFIRM_BYTES
                + (OBJECT_HEADER_BYTES + 1000)
                + PAIR_BYTES
                + (SHIPMENT_HEADER_BYTES + 3 * ENTRY_BYTES)
        );
    }

    fn sample_remainder() -> RemainderQuery {
        let side = Side::Cell {
            cell: CellRef::node_root(NodeId(1)),
            mbr: Rect::UNIT,
        };
        RemainderQuery {
            spec: QuerySpec::Join { dist: 0.1 },
            already_found: 0,
            heap: vec![
                (0.0, HeapEntry::Single(side)),
                (0.1, HeapEntry::Pair(side, side)),
            ],
        }
    }

    #[test]
    fn request_envelopes_size_like_their_payloads() {
        let rq = sample_remainder();
        assert_eq!(
            Request::Remainder(rq.clone()).wire_bytes(),
            rq.uplink_bytes()
        );
        assert_eq!(
            Request::RemainderVersioned {
                query: rq.clone(),
                epoch: 3
            }
            .wire_bytes(),
            rq.uplink_bytes() + EPOCH_BYTES
        );
        assert_eq!(
            Request::Direct(QuerySpec::Join { dist: 0.1 }).wire_bytes(),
            QUERY_DESC_BYTES
        );
        assert_eq!(
            Request::ReportFmr { fmr: 0.5 }.wire_bytes(),
            FMR_REPORT_BYTES
        );
        assert_eq!(Request::Forget.wire_bytes(), FORGET_BYTES);
    }

    #[test]
    fn response_envelopes_size_like_their_payloads() {
        let reply = ServerReply {
            confirmed: vec![ObjectId(1)],
            objects: vec![SpatialObject {
                id: ObjectId(2),
                mbr: Rect::UNIT,
                size_bytes: 500,
            }],
            ..Default::default()
        };
        assert_eq!(
            Response::Remainder(reply.clone()).wire_bytes(),
            reply.downlink_bytes()
        );
        let fresh = VersionedReply::Fresh {
            reply: reply.clone(),
            invalidate: vec![NodeId(4), NodeId(5)],
            epoch: 9,
        };
        assert_eq!(
            Response::Versioned(fresh).wire_bytes(),
            reply.downlink_bytes() + 2 * INVALIDATION_BYTES + EPOCH_BYTES
        );
        let stale = VersionedReply::Stale {
            invalidate: vec![NodeId(4)],
            epoch: 9,
        };
        assert_eq!(
            Response::Versioned(stale).wire_bytes(),
            INVALIDATION_BYTES + EPOCH_BYTES
        );
        let refresh = VersionedReply::FullRefresh { epoch: 9 };
        assert_eq!(
            Response::Versioned(refresh).wire_bytes(),
            FULL_REFRESH_BYTES,
            "full-refresh refusals are fixed-size"
        );
        let direct = DirectReply {
            results: vec![ObjectId(1), ObjectId(2), ObjectId(3)],
            pairs: vec![(ObjectId(1), ObjectId(2))],
            expansions: 0,
        };
        assert_eq!(
            Response::Direct(direct).wire_bytes(),
            3 * OBJECT_ID_BYTES + PAIR_BYTES
        );
        assert_eq!(Response::NewD(3).wire_bytes(), FMR_REPLY_BYTES);
        assert_eq!(Response::Forgotten(true).wire_bytes(), FORGET_ACK_BYTES);
    }

    #[test]
    fn response_accessors_unwrap_matching_variants() {
        assert_eq!(Response::NewD(5).into_new_d(), 5);
        assert!(Response::Forgotten(true).into_forgotten());
        assert_eq!(
            Response::Direct(DirectReply::default()).into_direct(),
            DirectReply::default()
        );
        assert_eq!(
            Response::Remainder(ServerReply::default()).into_remainder(),
            ServerReply::default()
        );
    }

    #[test]
    #[should_panic(expected = "transport protocol violation")]
    fn mismatched_response_variant_panics() {
        Response::NewD(1).into_remainder();
    }
}

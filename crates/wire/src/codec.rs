//! Body encode/decode for every protocol envelope.
//!
//! Layouts are chosen so each envelope's encoded body equals its
//! `wire_bytes()` model plus a fixed, itemized overhead (section headers
//! and variant discriminants) — see [`request_overhead`] /
//! [`response_overhead`] and the crate docs for the exact identity.
//!
//! All counts declared in section headers are validated against the bytes
//! actually remaining *before* any allocation, so a hostile frame cannot
//! drive an unbounded `Vec::with_capacity`.

use crate::frame::{FrameHeader, FRAME_HEADER_BYTES};
use crate::{tag, WireError};
use pc_geom::{Point, Rect};
use pc_rtree::bpt::Code;
use pc_rtree::proto::{
    self, CellKind, CellRecord, CellRef, DirectReply, HeapEntry, NodeShipment, QuerySpec,
    RemainderQuery, Request, Response, ServerReply, Side, VersionedReply, FMR_REPORT_BYTES,
    FORGET_BYTES, QUERY_DESC_BYTES,
};
use pc_rtree::{NodeId, ObjectId, SpatialObject};

/// Section header of an encoded [`ServerReply`] (counts + expansions).
pub const RESPONSE_REPLY_HEADER_BYTES: u64 = 24;
/// Section header of an encoded [`DirectReply`].
pub const RESPONSE_DIRECT_HEADER_BYTES: u64 = 16;
/// Body bytes a `Fresh` versioned reply adds beyond its `wire_bytes()`
/// model (variant byte + invalidation count + the reply section header).
pub const VERSIONED_FRESH_OVERHEAD_BYTES: u64 = 1 + 4 + RESPONSE_REPLY_HEADER_BYTES;
/// Body bytes a `Stale` versioned reply adds beyond its model (variant
/// byte + invalidation count).
pub const VERSIONED_STALE_OVERHEAD_BYTES: u64 = 1 + 4;
/// Body bytes a `FullRefresh` refusal adds beyond its model (variant byte;
/// the model's 4-byte type tag doubles as the reserved word).
const VERSIONED_REFRESH_OVERHEAD_BYTES: u64 = 1;

/// Serialized size of a [`QuerySpec`]: kind byte + 32-byte payload.
const SPEC_BYTES: usize = 33;
/// Serialized size of one heap [`Side`]: packed flags + referent + MBR.
const SIDE_BYTES: usize = 40;

// The `encoded == wire_bytes() + overhead` identity the size proptests pin
// holds only while the codec's records pack to the byte model's constants
// in `pc_rtree::proto`; moving either side fails the build.
const _: () = assert!(FRAME_HEADER_BYTES == 16); // the frame layout in the crate docs
const _: () = assert!(SIDE_BYTES as u64 == proto::ENTRY_BYTES); // a shipment cell
const _: () = assert!(SIDE_BYTES as u64 == proto::OBJECT_HEADER_BYTES); // an object side
const _: () = assert!(proto::HEAP_ENTRY_BYTES == proto::CONFIRM_BYTES + SIDE_BYTES as u64);
const _: () = assert!(proto::HEAP_PAIR_BYTES == proto::CONFIRM_BYTES + 2 * SIDE_BYTES as u64);
const _: () = assert!(SPEC_BYTES as u64 <= QUERY_DESC_BYTES);
const _: () = assert!(VERSIONED_FRESH_OVERHEAD_BYTES == 1 + 4 + RESPONSE_REPLY_HEADER_BYTES);

// Packed-word bit layout shared by heap sides and shipment cells: the BPT
// code's bits live in [0, 23), its length in [23, 28) — the balanced BPT
// split bounds real depths near 11, far below the 23-bit ceiling the
// encoder asserts — and the high bits carry per-use flags.
const CODE_BITS_MASK: u32 = (1 << 23) - 1;
const CODE_LEN_SHIFT: u32 = 23;
const CODE_LEN_MASK: u32 = 0x1F;
const SIDE_IS_OBJ: u32 = 1 << 28;
const SIDE_CACHED: u32 = 1 << 29;
const SIDE_HAS_PARTNER: u32 = 1 << 30;
const CELL_KIND_SHIFT: u32 = 28;
const CELL_KIND_MASK: u32 = 0x3;

fn pack_code(code: Code) -> u32 {
    let (bits, len) = code.raw();
    assert!(
        len as u32 <= CODE_LEN_SHIFT && bits <= CODE_BITS_MASK,
        "BPT code depth {len} exceeds the wire format's 23-bit budget"
    );
    bits | ((len as u32) << CODE_LEN_SHIFT)
}

fn unpack_code(packed: u32) -> Result<Code, WireError> {
    let bits = packed & CODE_BITS_MASK;
    let len = ((packed >> CODE_LEN_SHIFT) & CODE_LEN_MASK) as u8;
    Code::from_raw(bits, len).ok_or(WireError::UnknownTag {
        context: "bpt code",
        tag: len,
    })
}

// ---------------------------------------------------------------------
// Writer / reader primitives
// ---------------------------------------------------------------------

/// Builds one frame in place: the header's 16 bytes are reserved up
/// front and patched by [`Writer::finish`] once the body length is known,
/// so a frame is one buffer, written once.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: vec![0; FRAME_HEADER_BYTES as usize],
        }
    }

    fn finish(mut self, tag: u8, seq: u32, client: u32) -> Vec<u8> {
        let body_len = self.buf.len() - FRAME_HEADER_BYTES as usize;
        assert!(
            body_len <= u32::MAX as usize,
            "frame body exceeds u32 length prefix"
        );
        let header = FrameHeader {
            tag,
            flags: 0,
            seq,
            client,
            body_len: body_len as u32,
        };
        self.buf[..FRAME_HEADER_BYTES as usize].copy_from_slice(&header.to_bytes());
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn pad(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn rect(&mut self, r: &Rect) {
        self.point(r.min);
        self.point(r.max);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                context,
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let s = self.take(2, context)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let s = self.take(4, context)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let s = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn point(&mut self, context: &'static str) -> Result<Point, WireError> {
        Ok(Point::new(self.f64(context)?, self.f64(context)?))
    }

    fn rect(&mut self, context: &'static str) -> Result<Rect, WireError> {
        let min = self.point(context)?;
        let max = self.point(context)?;
        // Construct directly: decode must reproduce the encoded value
        // bit-exactly, never re-normalize corners.
        Ok(Rect { min, max })
    }

    /// Validates that `count` elements of at least `min_elem` bytes each can
    /// still be present — the pre-allocation guard for hostile counts.
    fn expect_count(
        &self,
        count: u32,
        min_elem: usize,
        context: &'static str,
    ) -> Result<usize, WireError> {
        let need = (count as usize).saturating_mul(min_elem);
        if self.remaining() < need {
            return Err(WireError::Truncated {
                context,
                needed: need,
                got: self.remaining(),
            });
        }
        Ok(count as usize)
    }

    /// Decoding must consume the body exactly; trailing garbage is as
    /// malformed as a short body.
    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Truncated {
                context: "frame end (trailing bytes)",
                needed: self.pos,
                got: self.buf.len(),
            });
        }
        Ok(())
    }

    fn object_id(&mut self, context: &'static str) -> Result<ObjectId, WireError> {
        // Confirmations/invalidations travel as 8-byte records (the model's
        // CONFIRM/INVALIDATION_BYTES); ids are 32-bit, the high word must
        // be clear.
        let v = self.u64(context)?;
        u32::try_from(v)
            .map(ObjectId)
            .map_err(|_| WireError::UnknownTag { context, tag: 0xFF })
    }
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

fn put_spec(w: &mut Writer, spec: &QuerySpec) {
    match spec {
        QuerySpec::Range { window } => {
            w.u8(0);
            w.rect(window);
        }
        QuerySpec::Knn { center, k } => {
            w.u8(1);
            w.point(*center);
            w.u32(*k);
            w.pad(12);
        }
        QuerySpec::Join { dist } => {
            w.u8(2);
            w.f64(*dist);
            w.pad(24);
        }
    }
}

fn put_side(w: &mut Writer, side: &Side, has_partner: bool) {
    let partner = if has_partner { SIDE_HAS_PARTNER } else { 0 };
    match side {
        Side::Cell { cell, mbr } => {
            w.u32(pack_code(cell.code) | partner);
            w.u32(cell.node.0);
            w.rect(mbr);
        }
        Side::Obj { id, mbr, cached } => {
            let cached = if *cached { SIDE_CACHED } else { 0 };
            w.u32(SIDE_IS_OBJ | cached | partner);
            w.u32(id.0);
            w.rect(mbr);
        }
    }
}

fn put_remainder(w: &mut Writer, rq: &RemainderQuery) {
    put_spec(w, &rq.spec);
    w.u32(rq.already_found);
    w.u32(rq.heap.len() as u32);
    w.pad(QUERY_DESC_BYTES as usize - SPEC_BYTES - 8);
    for (key, entry) in &rq.heap {
        w.f64(*key);
        match entry {
            HeapEntry::Single(side) => put_side(w, side, false),
            HeapEntry::Pair(a, b) => {
                put_side(w, a, true);
                put_side(w, b, false);
            }
        }
    }
}

fn put_server_reply(w: &mut Writer, reply: &ServerReply) {
    w.u32(reply.confirmed.len() as u32);
    w.u32(reply.objects.len() as u32);
    w.u32(reply.pairs.len() as u32);
    w.u32(reply.index.len() as u32);
    w.u64(reply.expansions);
    for id in &reply.confirmed {
        w.u64(id.0 as u64);
    }
    for obj in &reply.objects {
        w.u32(obj.id.0);
        w.u32(obj.size_bytes);
        w.rect(&obj.mbr);
        // The payload itself: `size_bytes` of simulated object data, so the
        // measured downlink carries exactly the bytes the model charges.
        w.pad(obj.size_bytes as usize);
    }
    for (a, b) in &reply.pairs {
        w.u32(a.0);
        w.u32(b.0);
    }
    for ship in &reply.index {
        w.u32(ship.node.0);
        w.u16(ship.level);
        w.u8(ship.parent.is_some() as u8);
        w.u32(ship.parent.map_or(0, |p| p.0));
        w.u32(ship.cells.len() as u32);
        w.u8(0);
        for cell in &ship.cells {
            let (kind, child) = match cell.kind {
                CellKind::Super => (0u32, 0u32),
                CellKind::Node(n) => (1, n.0),
                CellKind::Object(o) => (2, o.0),
            };
            w.u32(pack_code(cell.code) | (kind << CELL_KIND_SHIFT));
            w.u32(child);
            w.rect(&cell.mbr);
        }
    }
}

/// Encodes one request as a complete frame (header + body). The frame's
/// total length is `req.wire_bytes() + request_overhead(req)` — pinned by
/// this crate's proptests.
pub fn encode_request(client: u32, seq: u32, req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    let tag = match req {
        Request::Remainder(rq) => {
            put_remainder(&mut w, rq);
            tag::REQ_REMAINDER
        }
        Request::RemainderVersioned { query, epoch } => {
            w.u64(*epoch);
            put_remainder(&mut w, query);
            tag::REQ_REMAINDER_VERSIONED
        }
        Request::Direct(spec) => {
            put_spec(&mut w, spec);
            w.pad(QUERY_DESC_BYTES as usize - SPEC_BYTES);
            tag::REQ_DIRECT
        }
        Request::ReportFmr { fmr } => {
            w.f64(*fmr);
            w.pad(FMR_REPORT_BYTES as usize - 8);
            tag::REQ_REPORT_FMR
        }
        Request::Forget => {
            w.pad(FORGET_BYTES as usize);
            tag::REQ_FORGET
        }
    };
    w.finish(tag, seq, client)
}

/// Encodes one response as a complete frame, echoing the request's `seq`.
/// Total length is `resp.wire_bytes() + response_overhead(resp)`.
pub fn encode_response(client: u32, seq: u32, resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    let tag = match resp {
        Response::Remainder(reply) => {
            put_server_reply(&mut w, reply);
            tag::RESP_REMAINDER
        }
        Response::Versioned(v) => {
            match v {
                VersionedReply::Fresh {
                    reply,
                    invalidate,
                    epoch,
                } => {
                    w.u8(0);
                    w.u64(*epoch);
                    w.u32(invalidate.len() as u32);
                    put_server_reply(&mut w, reply);
                    for n in invalidate {
                        w.u64(n.0 as u64);
                    }
                }
                VersionedReply::Stale { invalidate, epoch } => {
                    w.u8(1);
                    w.u64(*epoch);
                    w.u32(invalidate.len() as u32);
                    for n in invalidate {
                        w.u64(n.0 as u64);
                    }
                }
                VersionedReply::FullRefresh { epoch } => {
                    w.u8(2);
                    w.u32(0);
                    w.u64(*epoch);
                }
            }
            tag::RESP_VERSIONED
        }
        Response::Direct(d) => {
            w.u32(d.results.len() as u32);
            w.u32(d.pairs.len() as u32);
            w.u64(d.expansions);
            for id in &d.results {
                w.u32(id.0);
            }
            for (a, b) in &d.pairs {
                w.u32(a.0);
                w.u32(b.0);
            }
            tag::RESP_DIRECT
        }
        Response::NewD(d) => {
            w.u8(*d);
            tag::RESP_NEW_D
        }
        Response::Forgotten(b) => {
            w.u8(*b as u8);
            tag::RESP_FORGOTTEN
        }
    };
    w.finish(tag, seq, client)
}

/// Framing bytes an encoded request adds beyond its `wire_bytes()` model:
/// requests serialize into exactly their modeled size, so the overhead is
/// the frame header alone.
pub fn request_overhead(_req: &Request) -> u64 {
    FRAME_HEADER_BYTES
}

/// Framing + section-header bytes an encoded response adds beyond its
/// `wire_bytes()` model.
pub fn response_overhead(resp: &Response) -> u64 {
    FRAME_HEADER_BYTES
        + match resp {
            Response::Remainder(_) => RESPONSE_REPLY_HEADER_BYTES,
            Response::Versioned(VersionedReply::Fresh { .. }) => VERSIONED_FRESH_OVERHEAD_BYTES,
            Response::Versioned(VersionedReply::Stale { .. }) => VERSIONED_STALE_OVERHEAD_BYTES,
            Response::Versioned(VersionedReply::FullRefresh { .. }) => {
                VERSIONED_REFRESH_OVERHEAD_BYTES
            }
            Response::Direct(_) => RESPONSE_DIRECT_HEADER_BYTES,
            Response::NewD(_) | Response::Forgotten(_) => 0,
        }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

fn get_spec(rd: &mut Reader<'_>) -> Result<QuerySpec, WireError> {
    let kind = rd.u8("query spec")?;
    let spec = match kind {
        0 => QuerySpec::Range {
            window: rd.rect("range window")?,
        },
        1 => {
            let center = rd.point("knn center")?;
            let k = rd.u32("knn k")?;
            rd.take(12, "knn padding")?;
            QuerySpec::Knn { center, k }
        }
        2 => {
            let dist = rd.f64("join distance")?;
            rd.take(24, "join padding")?;
            QuerySpec::Join { dist }
        }
        t => {
            return Err(WireError::UnknownTag {
                context: "query spec",
                tag: t,
            })
        }
    };
    // The engine is handed only a spec it can answer: finite coordinates,
    // a finite non-negative join distance, at least one neighbour.
    let finite = |p: Point| p.x.is_finite() && p.y.is_finite();
    let out_of_range = match spec {
        QuerySpec::Range { window } if !(finite(window.min) && finite(window.max)) => {
            "range window"
        }
        QuerySpec::Knn { center, .. } if !finite(center) => "knn center",
        QuerySpec::Knn { k: 0, .. } => "knn k",
        QuerySpec::Join { dist } if !(dist.is_finite() && dist >= 0.0) => "join distance",
        _ => return Ok(spec),
    };
    Err(WireError::OutOfRange {
        context: out_of_range,
    })
}

/// Returns the side plus its `has_partner` flag.
fn get_side(rd: &mut Reader<'_>) -> Result<(Side, bool), WireError> {
    let packed = rd.u32("heap side")?;
    let referent = rd.u32("heap side referent")?;
    let mbr = rd.rect("heap side mbr")?;
    let has_partner = packed & SIDE_HAS_PARTNER != 0;
    let side = if packed & SIDE_IS_OBJ != 0 {
        Side::Obj {
            id: ObjectId(referent),
            mbr,
            cached: packed & SIDE_CACHED != 0,
        }
    } else {
        Side::Cell {
            cell: CellRef {
                node: NodeId(referent),
                code: unpack_code(packed)?,
            },
            mbr,
        }
    };
    Ok((side, has_partner))
}

fn get_remainder(rd: &mut Reader<'_>) -> Result<RemainderQuery, WireError> {
    let spec = get_spec(rd)?;
    let already_found = rd.u32("remainder found-count")?;
    let heap_len = rd.u32("remainder heap length")?;
    rd.take(
        QUERY_DESC_BYTES as usize - SPEC_BYTES - 8,
        "remainder padding",
    )?;
    // A heap entry is at least one keyed single side.
    let n = rd.expect_count(heap_len, 8 + SIDE_BYTES, "remainder heap")?;
    let mut heap = Vec::with_capacity(n);
    for _ in 0..n {
        let key = rd.f64("heap key")?;
        let (first, has_partner) = get_side(rd)?;
        let entry = if has_partner {
            let (second, _) = get_side(rd)?;
            HeapEntry::Pair(first, second)
        } else {
            HeapEntry::Single(first)
        };
        heap.push((key, entry));
    }
    Ok(RemainderQuery {
        spec,
        already_found,
        heap,
    })
}

fn get_server_reply(rd: &mut Reader<'_>) -> Result<ServerReply, WireError> {
    let n_confirmed = rd.u32("reply confirmed count")?;
    let n_objects = rd.u32("reply object count")?;
    let n_pairs = rd.u32("reply pair count")?;
    let n_index = rd.u32("reply shipment count")?;
    let expansions = rd.u64("reply expansions")?;

    let n = rd.expect_count(n_confirmed, 8, "reply confirmations")?;
    let mut confirmed = Vec::with_capacity(n);
    for _ in 0..n {
        confirmed.push(rd.object_id("confirmed id")?);
    }

    let n = rd.expect_count(n_objects, 40, "reply objects")?;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let id = ObjectId(rd.u32("object id")?);
        let size_bytes = rd.u32("object size")?;
        let mbr = rd.rect("object mbr")?;
        rd.take(size_bytes as usize, "object payload")?;
        objects.push(SpatialObject {
            id,
            mbr,
            size_bytes,
        });
    }

    let n = rd.expect_count(n_pairs, 8, "reply pairs")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((ObjectId(rd.u32("pair a")?), ObjectId(rd.u32("pair b")?)));
    }

    let n = rd.expect_count(n_index, 16, "reply shipments")?;
    let mut index = Vec::with_capacity(n);
    for _ in 0..n {
        let node = NodeId(rd.u32("shipment node")?);
        let level = rd.u16("shipment level")?;
        let parent_flag = rd.u8("shipment parent flag")?;
        let parent_id = rd.u32("shipment parent")?;
        let n_cells = rd.u32("shipment cell count")?;
        rd.u8("shipment reserved")?;
        let parent = (parent_flag != 0).then_some(NodeId(parent_id));
        let c = rd.expect_count(n_cells, SIDE_BYTES, "shipment cells")?;
        let mut cells = Vec::with_capacity(c);
        for _ in 0..c {
            let packed = rd.u32("cell flags")?;
            let child = rd.u32("cell child")?;
            let mbr = rd.rect("cell mbr")?;
            let kind = match (packed >> CELL_KIND_SHIFT) & CELL_KIND_MASK {
                0 => CellKind::Super,
                1 => CellKind::Node(NodeId(child)),
                2 => CellKind::Object(ObjectId(child)),
                k => {
                    return Err(WireError::UnknownTag {
                        context: "cell kind",
                        tag: k as u8,
                    })
                }
            };
            cells.push(CellRecord {
                code: unpack_code(packed)?,
                mbr,
                kind,
            });
        }
        index.push(NodeShipment {
            node,
            level,
            parent,
            cells,
        });
    }

    Ok(ServerReply {
        confirmed,
        objects,
        pairs,
        index,
        expansions,
    })
}

/// Decodes a request body. Total: every malformed input maps to a
/// [`WireError`]; no panic, no unbounded allocation.
pub fn decode_request(t: u8, body: &[u8]) -> Result<Request, WireError> {
    let mut rd = Reader::new(body);
    let req = match t {
        tag::REQ_REMAINDER => Request::Remainder(get_remainder(&mut rd)?),
        tag::REQ_REMAINDER_VERSIONED => {
            let epoch = rd.u64("request epoch")?;
            Request::RemainderVersioned {
                query: get_remainder(&mut rd)?,
                epoch,
            }
        }
        tag::REQ_DIRECT => {
            let spec = get_spec(&mut rd)?;
            rd.take(QUERY_DESC_BYTES as usize - SPEC_BYTES, "direct padding")?;
            Request::Direct(spec)
        }
        tag::REQ_REPORT_FMR => {
            let fmr = rd.f64("fmr value")?;
            rd.take(FMR_REPORT_BYTES as usize - 8, "fmr padding")?;
            Request::ReportFmr { fmr }
        }
        tag::REQ_FORGET => {
            rd.take(FORGET_BYTES as usize, "forget body")?;
            Request::Forget
        }
        t => {
            return Err(WireError::UnknownTag {
                context: "request frame",
                tag: t,
            })
        }
    };
    rd.finish()?;
    Ok(req)
}

/// Decodes a response body. Total, like [`decode_request`].
pub fn decode_response(t: u8, body: &[u8]) -> Result<Response, WireError> {
    let mut rd = Reader::new(body);
    let resp = match t {
        tag::RESP_REMAINDER => Response::Remainder(get_server_reply(&mut rd)?),
        tag::RESP_VERSIONED => {
            let variant = rd.u8("versioned variant")?;
            let v = match variant {
                0 => {
                    let epoch = rd.u64("versioned epoch")?;
                    let n = rd.u32("invalidation count")?;
                    let reply = get_server_reply(&mut rd)?;
                    let n = rd.expect_count(n, 8, "invalidation list")?;
                    let mut invalidate = Vec::with_capacity(n);
                    for _ in 0..n {
                        invalidate.push(NodeId(rd.object_id("invalidated node")?.0));
                    }
                    VersionedReply::Fresh {
                        reply,
                        invalidate,
                        epoch,
                    }
                }
                1 => {
                    let epoch = rd.u64("versioned epoch")?;
                    let n = rd.u32("invalidation count")?;
                    let n = rd.expect_count(n, 8, "invalidation list")?;
                    let mut invalidate = Vec::with_capacity(n);
                    for _ in 0..n {
                        invalidate.push(NodeId(rd.object_id("invalidated node")?.0));
                    }
                    VersionedReply::Stale { invalidate, epoch }
                }
                2 => {
                    rd.u32("refresh reserved")?;
                    VersionedReply::FullRefresh {
                        epoch: rd.u64("refresh epoch")?,
                    }
                }
                t => {
                    return Err(WireError::UnknownTag {
                        context: "versioned reply",
                        tag: t,
                    })
                }
            };
            Response::Versioned(v)
        }
        tag::RESP_DIRECT => {
            let n_results = rd.u32("direct result count")?;
            let n_pairs = rd.u32("direct pair count")?;
            let expansions = rd.u64("direct expansions")?;
            let n = rd.expect_count(n_results, 4, "direct results")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(ObjectId(rd.u32("direct result id")?));
            }
            let n = rd.expect_count(n_pairs, 8, "direct pairs")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((ObjectId(rd.u32("pair a")?), ObjectId(rd.u32("pair b")?)));
            }
            Response::Direct(DirectReply {
                results,
                pairs,
                expansions,
            })
        }
        tag::RESP_NEW_D => Response::NewD(rd.u8("resolution byte")?),
        tag::RESP_FORGOTTEN => Response::Forgotten(rd.u8("forgotten flag")? != 0),
        t => {
            return Err(WireError::UnknownTag {
                context: "response frame",
                tag: t,
            })
        }
    };
    rd.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    // -----------------------------------------------------------------
    // Seed-driven random envelope builders (exercise every variant)
    // -----------------------------------------------------------------

    fn arb_rect(rng: &mut SmallRng) -> Rect {
        let x0: f64 = rng.random_range(0.0..0.9);
        let y0: f64 = rng.random_range(0.0..0.9);
        Rect::from_coords(x0, y0, x0 + rng.random_range(0.0..0.1), y0 + 0.05)
    }

    fn arb_spec(rng: &mut SmallRng) -> QuerySpec {
        match rng.random_range(0u8..3) {
            0 => QuerySpec::Range {
                window: arb_rect(rng),
            },
            1 => QuerySpec::Knn {
                center: Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                k: rng.random_range(1u32..20),
            },
            _ => QuerySpec::Join {
                dist: rng.random_range(0.001..0.2),
            },
        }
    }

    fn arb_code(rng: &mut SmallRng) -> Code {
        let depth = rng.random_range(0u8..12);
        let mut code = Code::ROOT;
        for _ in 0..depth {
            code = code.child(rng.random_bool(0.5));
        }
        code
    }

    fn arb_side(rng: &mut SmallRng) -> Side {
        if rng.random_bool(0.5) {
            Side::Cell {
                cell: CellRef {
                    node: NodeId(rng.random_range(0u32..1000)),
                    code: arb_code(rng),
                },
                mbr: arb_rect(rng),
            }
        } else {
            Side::Obj {
                id: ObjectId(rng.random_range(0u32..100_000)),
                mbr: arb_rect(rng),
                cached: rng.random_bool(0.5),
            }
        }
    }

    fn arb_remainder(rng: &mut SmallRng) -> RemainderQuery {
        let n = rng.random_range(0usize..8);
        let heap = (0..n)
            .map(|_| {
                let key: f64 = rng.random_range(0.0..2.0);
                let entry = if rng.random_bool(0.3) {
                    HeapEntry::Pair(arb_side(rng), arb_side(rng))
                } else {
                    HeapEntry::Single(arb_side(rng))
                };
                (key, entry)
            })
            .collect();
        RemainderQuery {
            spec: arb_spec(rng),
            already_found: rng.random_range(0u32..50),
            heap,
        }
    }

    fn arb_server_reply(rng: &mut SmallRng) -> ServerReply {
        let objects = (0..rng.random_range(0usize..5))
            .map(|_| SpatialObject {
                id: ObjectId(rng.random_range(0u32..100_000)),
                mbr: arb_rect(rng),
                size_bytes: rng.random_range(0u32..4096),
            })
            .collect();
        let index = (0..rng.random_range(0usize..4))
            .map(|_| NodeShipment {
                node: NodeId(rng.random_range(0u32..1000)),
                level: rng.random_range(0u16..8),
                parent: rng
                    .random_bool(0.5)
                    .then(|| NodeId(rng.random_range(0u32..1000))),
                cells: (0..rng.random_range(0usize..6))
                    .map(|_| CellRecord {
                        code: arb_code(rng),
                        mbr: arb_rect(rng),
                        kind: match rng.random_range(0u8..3) {
                            0 => CellKind::Super,
                            1 => CellKind::Node(NodeId(rng.random_range(0u32..1000))),
                            _ => CellKind::Object(ObjectId(rng.random_range(0u32..100_000))),
                        },
                    })
                    .collect(),
            })
            .collect();
        ServerReply {
            confirmed: (0..rng.random_range(0usize..5))
                .map(|_| ObjectId(rng.random_range(0u32..100_000)))
                .collect(),
            objects,
            pairs: (0..rng.random_range(0usize..5))
                .map(|_| {
                    (
                        ObjectId(rng.random_range(0u32..1000)),
                        ObjectId(rng.random_range(0u32..1000)),
                    )
                })
                .collect(),
            index,
            expansions: rng.random_range(0u64..10_000),
        }
    }

    fn arb_request(rng: &mut SmallRng) -> Request {
        match rng.random_range(0u8..5) {
            0 => Request::Remainder(arb_remainder(rng)),
            1 => Request::RemainderVersioned {
                query: arb_remainder(rng),
                epoch: rng.random_range(0u64..1 << 40),
            },
            2 => Request::Direct(arb_spec(rng)),
            3 => Request::ReportFmr {
                fmr: rng.random_range(0.0..1.0),
            },
            _ => Request::Forget,
        }
    }

    fn arb_response(rng: &mut SmallRng) -> Response {
        let nodes = |rng: &mut SmallRng| -> Vec<NodeId> {
            (0..rng.random_range(0usize..6))
                .map(|_| NodeId(rng.random_range(0u32..1000)))
                .collect()
        };
        match rng.random_range(0u8..7) {
            0 => Response::Remainder(arb_server_reply(rng)),
            1 => Response::Versioned(VersionedReply::Fresh {
                reply: arb_server_reply(rng),
                invalidate: nodes(rng),
                epoch: rng.random_range(0u64..1 << 40),
            }),
            2 => Response::Versioned(VersionedReply::Stale {
                invalidate: nodes(rng),
                epoch: rng.random_range(0u64..1 << 40),
            }),
            3 => Response::Versioned(VersionedReply::FullRefresh {
                epoch: rng.random_range(0u64..1 << 40),
            }),
            4 => Response::Direct(DirectReply {
                results: (0..rng.random_range(0usize..10))
                    .map(|_| ObjectId(rng.random_range(0u32..100_000)))
                    .collect(),
                pairs: (0..rng.random_range(0usize..5))
                    .map(|_| {
                        (
                            ObjectId(rng.random_range(0u32..1000)),
                            ObjectId(rng.random_range(0u32..1000)),
                        )
                    })
                    .collect(),
                expansions: rng.random_range(0u64..10_000),
            }),
            5 => Response::NewD(rng.random_range(0u8..8)),
            _ => Response::Forgotten(rng.random_bool(0.5)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `decode(encode(x)) == x` for every request variant, and the
        /// encoded length matches the byte model plus itemized framing.
        #[test]
        fn request_round_trip_and_size_identity(seed in 0u64..1 << 48, client in 0u32..64, seq in 0u32..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let req = arb_request(&mut rng);
            let frame = encode_request(client, seq, &req);
            // Encoded length must equal the wire_bytes() model plus framing.
            prop_assert_eq!(frame.len() as u64, req.wire_bytes() + request_overhead(&req));
            let parsed = read_frame(&mut frame.as_slice(), u32::MAX as u64).unwrap();
            prop_assert_eq!(parsed.header.client, client);
            prop_assert_eq!(parsed.header.seq, seq);
            prop_assert!(tag::is_request(parsed.header.tag));
            let back = decode_request(parsed.header.tag, &parsed.body).unwrap();
            prop_assert_eq!(back, req);
        }

        /// Same identity for every response variant (including object
        /// payload padding: decoded objects keep their modeled sizes).
        #[test]
        fn response_round_trip_and_size_identity(seed in 0u64..1 << 48, client in 0u32..64, seq in 0u32..1000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let resp = arb_response(&mut rng);
            let frame = encode_response(client, seq, &resp);
            // Encoded length must equal the wire_bytes() model plus framing.
            prop_assert_eq!(frame.len() as u64, resp.wire_bytes() + response_overhead(&resp));
            let parsed = read_frame(&mut frame.as_slice(), u32::MAX as u64).unwrap();
            prop_assert!(tag::is_response(parsed.header.tag));
            let back = decode_response(parsed.header.tag, &parsed.body).unwrap();
            prop_assert_eq!(back, resp);
        }

        /// Truncating a valid frame at any point yields a typed error from
        /// the frame reader — never a panic, never a bogus success.
        #[test]
        fn truncated_prefixes_error_cleanly(seed in 0u64..1 << 48, frac in 0.0f64..1.0) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let frame = if seed % 2 == 0 {
                encode_request(7, 3, &arb_request(&mut rng))
            } else {
                encode_response(7, 3, &arb_response(&mut rng))
            };
            let cut = ((frame.len() as f64) * frac) as usize;
            if cut < frame.len() {
                let r = read_frame(&mut &frame[..cut], u32::MAX as u64);
                prop_assert!(r.is_err(), "prefix of {cut}/{} decoded", frame.len());
            }
        }

        /// Arbitrary bytes fed to the body decoders either decode or land
        /// in a typed `WireError` — totality under fuzz.
        #[test]
        fn arbitrary_bodies_never_panic(seed in 0u64..1 << 48, len in 0usize..300, t in 0u8..32) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let body: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
            let _ = decode_request(t, &body);
            let _ = decode_response(t, &body);
        }

        /// Flipping one byte of a valid frame body must never panic the
        /// decoder (it may still decode — flags/padding are lenient — but
        /// it must stay total).
        #[test]
        fn bit_flips_never_panic(seed in 0u64..1 << 48, at_frac in 0.0f64..1.0, delta in 1u8..=255) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let req = arb_request(&mut rng);
            let frame = encode_request(1, 1, &req);
            let mut body = frame[FRAME_HEADER_BYTES as usize..].to_vec();
            if !body.is_empty() {
                let at = ((body.len() as f64) * at_frac) as usize % body.len();
                body[at] = body[at].wrapping_add(delta);
                let tag = frame[2];
                let _ = decode_request(tag, &body);
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_request(1, 1, &Request::Forget);
        frame.push(0);
        let body = &frame[FRAME_HEADER_BYTES as usize..];
        assert!(matches!(
            decode_request(tag::REQ_FORGET, body),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_tags_are_typed() {
        assert_eq!(
            decode_request(0, &[]),
            Err(WireError::UnknownTag {
                context: "request frame",
                tag: 0
            })
        );
        assert_eq!(
            decode_response(99, &[]),
            Err(WireError::UnknownTag {
                context: "response frame",
                tag: 99
            })
        );
    }

    /// `spec` sent as a direct query, decoded on the server side.
    fn decode_direct(spec: QuerySpec) -> Result<Request, WireError> {
        let frame = encode_request(1, 1, &Request::Direct(spec));
        decode_request(tag::REQ_DIRECT, &frame[FRAME_HEADER_BYTES as usize..])
    }

    fn out_of_range(context: &'static str) -> Result<Request, WireError> {
        Err(WireError::OutOfRange { context })
    }

    #[test]
    fn a_non_finite_window_corner_is_out_of_range() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let corners = [(bad, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, bad)];
            for (x0, y0, x1, y1) in corners {
                // A literal: `Rect::new` would order the corners, and
                // `f64::min` drops a NaN.
                let window = Rect {
                    min: Point::new(x0, y0),
                    max: Point::new(x1, y1),
                };
                let spec = QuerySpec::Range { window };
                assert_eq!(decode_direct(spec), out_of_range("range window"));
            }
        }
        let window = Rect::from_coords(0.1, 0.2, 0.3, 0.4);
        let spec = QuerySpec::Range { window };
        assert_eq!(decode_direct(spec), Ok(Request::Direct(spec)));
    }

    #[test]
    fn a_non_finite_knn_centre_is_out_of_range() {
        for center in [Point::new(f64::NAN, 0.5), Point::new(0.5, f64::INFINITY)] {
            let spec = QuerySpec::Knn { center, k: 3 };
            assert_eq!(decode_direct(spec), out_of_range("knn center"));
        }
    }

    #[test]
    fn a_nan_negative_or_infinite_join_distance_is_out_of_range() {
        for dist in [f64::NAN, -1e-9, f64::INFINITY] {
            let spec = QuerySpec::Join { dist };
            assert_eq!(decode_direct(spec), out_of_range("join distance"));
        }
        let spec = QuerySpec::Join { dist: 0.0 };
        assert_eq!(decode_direct(spec), Ok(Request::Direct(spec)));
    }

    #[test]
    fn a_knn_asking_for_no_neighbours_is_out_of_range() {
        let center = Point::new(0.5, 0.5);
        let spec = QuerySpec::Knn { center, k: 0 };
        assert_eq!(decode_direct(spec), out_of_range("knn k"));
        let spec = QuerySpec::Knn { center, k: 1 };
        assert_eq!(decode_direct(spec), Ok(Request::Direct(spec)));
    }

    #[test]
    fn hostile_counts_cannot_drive_allocation() {
        // A remainder declaring u32::MAX heap entries with an empty tail
        // must fail the pre-allocation count check, not try to reserve.
        let rq = RemainderQuery {
            spec: QuerySpec::Join { dist: 0.1 },
            already_found: 0,
            heap: Vec::new(),
        };
        let frame = encode_request(1, 1, &Request::Remainder(rq));
        let mut body = frame[FRAME_HEADER_BYTES as usize..].to_vec();
        body[SPEC_BYTES + 4..SPEC_BYTES + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(tag::REQ_REMAINDER, &body),
            Err(WireError::Truncated {
                context: "remainder heap",
                ..
            })
        ));
    }

    #[test]
    fn full_refresh_and_invalidation_lists_round_trip() {
        // The §7 refusal and a Fresh reply carrying invalidations — the
        // variants the versioned churn path depends on.
        for resp in [
            Response::Versioned(VersionedReply::FullRefresh { epoch: 77 }),
            Response::Versioned(VersionedReply::Stale {
                invalidate: vec![NodeId(1), NodeId(9)],
                epoch: 12,
            }),
            Response::Versioned(VersionedReply::Fresh {
                reply: ServerReply::default(),
                invalidate: vec![NodeId(4)],
                epoch: 3,
            }),
        ] {
            let frame = encode_response(0, 0, &resp);
            let parsed = read_frame(&mut frame.as_slice(), 1 << 20).unwrap();
            assert_eq!(decode_response(parsed.header.tag, &parsed.body), Ok(resp));
        }
    }
}

//! The serialized wire protocol: every `Request`/`Response` envelope of
//! `pc_rtree::proto` encodes into one length-prefixed binary frame with a
//! versioned header, and decodes back — totally, with a typed [`WireError`]
//! for malformed input, never a panic.
//!
//! # Relationship to the `wire_bytes()` byte model
//!
//! The paper's evaluation is denominated in modeled bytes
//! (`proto::wire_bytes()` and the per-record constants next to the message
//! types). This crate *realizes* those sizes: each envelope's encoded
//! payload occupies exactly `wire_bytes()` bytes on the wire, with framing
//! and section headers itemized separately by [`request_overhead`] /
//! [`response_overhead`]. The invariant, pinned by proptests here and
//! cross-checked live by the TCP transport's measured counters:
//!
//! ```text
//! encode_request(c, s, req).len()  == req.wire_bytes()  + request_overhead(req)
//! encode_response(c, s, resp).len() == resp.wire_bytes() + response_overhead(resp)
//! ```
//!
//! so the paper-model ledger and the measured ledger stay comparable — the
//! difference is pure framing, never drift in the modeled payload sizes.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//!      0     1  magic      (0xAC)
//!      1     1  version    (1)
//!      2     1  tag        (request 1..=5, response 17..=21)
//!      3     1  flags      (0, reserved)
//!      4     4  seq        (LE; response echoes its request's seq)
//!      8     4  client     (LE ClientId)
//!     12     4  body_len   (LE; payload bytes following the header)
//!     16     …  body       (tag-specific, see `codec`)
//! ```
//!
//! Multi-byte integers are little-endian; `f64` travels as its IEEE-754
//! bit pattern (`to_bits`), so every finite value round-trips bit-exactly.
//!
//! An encoder builds its frame in one buffer: the 16 header bytes are
//! reserved first and `body_len` is patched in once the body is written.
//! [`read_frame`] is the only frame reader — both ends of the socket
//! transport (`pc_server::wire`) read through it.
//!
//! # Not encoded: the cluster backplane
//!
//! Only the client ↔ server envelopes have a codec. The router ↔ shard
//! legs of a cluster contact are function calls, not messages: there is no
//! type for them, and `ClusterStats` charges them by the two sizing
//! formulas `pc_rtree::proto::{shard_sub_request_bytes,
//! shard_sub_reply_bytes}`. A backplane codec re-opens with the parked
//! networked-shard work.

// A panic on a serving thread strands every waiter parked on its locks and
// condvars, so library code here returns typed errors and each deliberate
// panic carries an `#[expect]` saying why it is safe. Tests panic to fail.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod codec;
mod frame;

pub use codec::{
    decode_request, decode_response, encode_request, encode_response, request_overhead,
    response_overhead, RESPONSE_DIRECT_HEADER_BYTES, RESPONSE_REPLY_HEADER_BYTES,
    VERSIONED_FRESH_OVERHEAD_BYTES, VERSIONED_STALE_OVERHEAD_BYTES,
};
pub use frame::{read_frame, Frame, FrameHeader, FRAME_HEADER_BYTES, FRAME_MAGIC, WIRE_VERSION};

/// Frame tags, one per request/response envelope variant.
pub mod tag {
    pub const REQ_REMAINDER: u8 = 1;
    pub const REQ_REMAINDER_VERSIONED: u8 = 2;
    pub const REQ_DIRECT: u8 = 3;
    pub const REQ_REPORT_FMR: u8 = 4;
    pub const REQ_FORGET: u8 = 5;

    pub const RESP_REMAINDER: u8 = 17;
    pub const RESP_VERSIONED: u8 = 18;
    pub const RESP_DIRECT: u8 = 19;
    pub const RESP_NEW_D: u8 = 20;
    pub const RESP_FORGOTTEN: u8 = 21;

    const REQUESTS: [u8; 5] = [
        REQ_REMAINDER,
        REQ_REMAINDER_VERSIONED,
        REQ_DIRECT,
        REQ_REPORT_FMR,
        REQ_FORGET,
    ];
    const RESPONSES: [u8; 5] = [
        RESP_REMAINDER,
        RESP_VERSIONED,
        RESP_DIRECT,
        RESP_NEW_D,
        RESP_FORGOTTEN,
    ];

    /// Asserts that `tags` lie in `lo..=hi`, never collide and fill
    /// `first..=last` without a gap, so a range test over `first..=last`
    /// accepts exactly `tags`.
    const fn check(tags: &[u8], lo: u8, hi: u8, first: u8, last: u8) {
        assert!(
            lo <= first && first <= last && last <= hi,
            "tag range escapes its block"
        );
        let mut i = 0;
        while i < tags.len() {
            assert!(first <= tags[i] && tags[i] <= last, "tag outside its range");
            let mut j = i + 1;
            while j < tags.len() {
                assert!(tags[i] != tags[j], "two tags collide");
                j += 1;
            }
            i += 1;
        }
        assert!(
            (last - first) as usize + 1 == tags.len(),
            "the tags leave a gap"
        );
    }

    // Requests and responses keep to disjoint blocks, so no tag names both.
    const _: () = check(&REQUESTS, 1, 15, REQ_REMAINDER, REQ_FORGET);
    const _: () = check(&RESPONSES, 16, 31, RESP_REMAINDER, RESP_FORGOTTEN);

    /// Whether `t` names a request envelope.
    pub fn is_request(t: u8) -> bool {
        (REQ_REMAINDER..=REQ_FORGET).contains(&t)
    }

    /// Whether `t` names a response envelope.
    pub fn is_response(t: u8) -> bool {
        (RESP_REMAINDER..=RESP_FORGOTTEN).contains(&t)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn predicates_match_the_tag_tables_on_every_byte() {
            for t in 0..=u8::MAX {
                assert_eq!(is_request(t), REQUESTS.contains(&t), "tag {t}");
                assert_eq!(is_response(t), RESPONSES.contains(&t), "tag {t}");
                assert!(!(is_request(t) && is_response(t)), "tag {t}");
            }
        }
    }
}

/// Everything that can go wrong reading or decoding a frame. Decoding is
/// total: malformed input always lands in one of these variants, never a
/// panic or an unbounded allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Closed,
    /// The input ended mid-structure: `context` names what was being read.
    Truncated {
        context: &'static str,
        needed: usize,
        got: usize,
    },
    /// The frame's declared body length exceeds the receiver's limit.
    Oversized { len: u64, max: u64 },
    /// An enum discriminant (frame tag, query kind, cell kind, reply
    /// variant, BPT code) was out of range for `context`.
    UnknownTag { context: &'static str, tag: u8 },
    /// A value decoded whole but outside what `context` admits: a
    /// non-finite coordinate, a NaN, negative or infinite join distance,
    /// a kNN `k` of 0.
    OutOfRange { context: &'static str },
    /// The first header byte was not [`FRAME_MAGIC`].
    BadMagic { got: u8 },
    /// The protocol version byte did not match [`WIRE_VERSION`].
    BadVersion { got: u8 },
    /// The underlying stream failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated {
                context,
                needed,
                got,
            } => write!(f, "truncated {context}: needed {needed} bytes, got {got}"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: body {len} bytes exceeds limit {max}")
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag}")
            }
            WireError::OutOfRange { context } => write!(f, "out-of-range {context}"),
            WireError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {got:#04x} (expected {FRAME_MAGIC:#04x})"
                )
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (expected {WIRE_VERSION})"
                )
            }
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e.kind())
        }
    }
}

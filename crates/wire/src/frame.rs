//! Frame header parsing and blocking frame reads.

use crate::WireError;
use std::io::Read;

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xAC;
/// Protocol version carried in byte 1 of every frame.
pub const WIRE_VERSION: u8 = 1;
/// Fixed size of the frame header preceding every body.
pub const FRAME_HEADER_BYTES: u64 = 16;

/// The parsed 16-byte frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    pub tag: u8,
    pub flags: u8,
    pub seq: u32,
    pub client: u32,
    pub body_len: u32,
}

impl FrameHeader {
    /// Validates magic + version and unpacks the fixed fields.
    pub fn parse(buf: [u8; FRAME_HEADER_BYTES as usize]) -> Result<FrameHeader, WireError> {
        if buf[0] != FRAME_MAGIC {
            return Err(WireError::BadMagic { got: buf[0] });
        }
        if buf[1] != WIRE_VERSION {
            return Err(WireError::BadVersion { got: buf[1] });
        }
        Ok(FrameHeader {
            tag: buf[2],
            flags: buf[3],
            seq: u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]),
            client: u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]),
            body_len: u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]),
        })
    }

    /// Serializes the header (the inverse of [`FrameHeader::parse`]).
    pub fn to_bytes(self) -> [u8; FRAME_HEADER_BYTES as usize] {
        let mut buf = [0u8; FRAME_HEADER_BYTES as usize];
        buf[0] = FRAME_MAGIC;
        buf[1] = WIRE_VERSION;
        buf[2] = self.tag;
        buf[3] = self.flags;
        buf[4..8].copy_from_slice(&self.seq.to_le_bytes());
        buf[8..12].copy_from_slice(&self.client.to_le_bytes());
        buf[12..16].copy_from_slice(&self.body_len.to_le_bytes());
        buf
    }
}

/// One frame off the stream: the parsed header plus the raw body (decode it
/// with [`crate::decode_request`] / [`crate::decode_response`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub header: FrameHeader,
    pub body: Vec<u8>,
}

/// Reads exactly `buf.len()` bytes; an EOF short of that is
/// [`WireError::Truncated`] in `context`.
fn fill(r: &mut impl Read, buf: &mut [u8], context: &'static str) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    context,
                    needed: buf.len(),
                    got: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Blocking read of one complete frame. A clean EOF *before the first
/// header byte* is a normal disconnect ([`WireError::Closed`]); an EOF
/// anywhere later is [`WireError::Truncated`]. A declared body length above
/// `max_body` is rejected *before* allocation ([`WireError::Oversized`]).
pub fn read_frame(r: &mut impl Read, max_body: u64) -> Result<Frame, WireError> {
    let mut hdr = [0u8; FRAME_HEADER_BYTES as usize];
    fill(r, &mut hdr, "frame header").map_err(|e| match e {
        WireError::Truncated { got: 0, .. } => WireError::Closed,
        e => e,
    })?;
    let header = FrameHeader::parse(hdr)?;
    if header.body_len as u64 > max_body {
        return Err(WireError::Oversized {
            len: header.body_len as u64,
            max: max_body,
        });
    }
    let mut body = vec![0u8; header.body_len as usize];
    fill(r, &mut body, "frame body")?;
    Ok(Frame { header, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = FrameHeader {
            tag: 3,
            flags: 0,
            seq: 0xDEAD_BEEF,
            client: 42,
            body_len: 64,
        };
        assert_eq!(FrameHeader::parse(h.to_bytes()), Ok(h));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut buf = FrameHeader {
            tag: 1,
            flags: 0,
            seq: 0,
            client: 0,
            body_len: 0,
        }
        .to_bytes();
        buf[0] = 0x00;
        assert_eq!(FrameHeader::parse(buf), Err(WireError::BadMagic { got: 0 }));
        buf[0] = FRAME_MAGIC;
        buf[1] = 9;
        assert_eq!(
            FrameHeader::parse(buf),
            Err(WireError::BadVersion { got: 9 })
        );
    }

    #[test]
    fn eof_positions_distinguish_closed_from_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }, 1024), Err(WireError::Closed));

        let partial = &FrameHeader {
            tag: 1,
            flags: 0,
            seq: 0,
            client: 0,
            body_len: 0,
        }
        .to_bytes()[..7];
        assert!(matches!(
            read_frame(&mut { partial }, 1024),
            Err(WireError::Truncated {
                context: "frame header",
                ..
            })
        ));

        let mut with_missing_body = FrameHeader {
            tag: 1,
            flags: 0,
            seq: 0,
            client: 0,
            body_len: 10,
        }
        .to_bytes()
        .to_vec();
        with_missing_body.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut with_missing_body.as_slice(), 1024),
            Err(WireError::Truncated {
                context: "frame body",
                needed: 10,
                got: 4,
            })
        ));
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let huge = FrameHeader {
            tag: 1,
            flags: 0,
            seq: 0,
            client: 0,
            body_len: u32::MAX,
        }
        .to_bytes();
        assert_eq!(
            read_frame(&mut huge.as_slice(), 1 << 20),
            Err(WireError::Oversized {
                len: u32::MAX as u64,
                max: 1 << 20,
            })
        );
    }
}

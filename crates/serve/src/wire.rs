//! Framing and primitive codecs of the wire protocol.
//!
//! The actual implementation lives in [`dgs_net::wire`] — it moved
//! down a layer so the cross-process `SocketExecutor` site frames and
//! the serving protocol share one set of codecs (and one set of
//! bounds checks). This module keeps the serving layer's historical
//! API: the same functions and [`Reader`], with every decode failure
//! surfaced as a typed [`ServeError`].
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! [u32 LE payload length] [u8 frame type] [payload bytes]
//! ```
//!
//! The length covers the payload only (not itself, not the type
//! byte) and is bounded by [`MAX_FRAME`] — a corrupt length is
//! refused *before* any allocation.

use crate::error::ServeError;
use dgs_net::wire::{self, FrameError};
use std::io::{self, Read, Write};

pub use dgs_net::wire::{
    put_bytes, put_f64, put_str, put_u16, put_u8, put_varint, FrameBuffer, MAX_FRAME,
};

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ServeError::Io(e),
            FrameError::Corrupt { message } => ServeError::Corrupt { message },
            FrameError::TooLarge { len, max } => ServeError::FrameTooLarge { len, max },
        }
    }
}

/// Writes one frame; see [`dgs_net::wire::write_frame`].
pub fn write_frame<W: Write>(w: &mut W, ty: u8, payload: &[u8]) -> io::Result<()> {
    wire::write_frame(w, ty, payload)
}

/// Reads one frame; `Ok(None)` on clean EOF **before** the first
/// length byte (the peer closed between frames). EOF anywhere else is
/// a truncation error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    wire::read_frame(r).map_err(ServeError::from)
}

/// A **resumable** blocking frame reader: a [`FrameBuffer`] fed from
/// an [`io::Read`]. Unlike the one-shot [`read_frame`], a read that
/// stops mid-frame — a `SO_RCVTIMEO` timeout between the length
/// prefix and the payload, say — returns the io error but *keeps the
/// partial frame buffered*; the next call resumes exactly where the
/// stream stopped instead of desyncing on the payload bytes.
#[derive(Default)]
pub struct FrameReader {
    buf: FrameBuffer,
}

impl FrameReader {
    /// A reader with no buffered bytes.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads until one complete frame is available; `Ok(None)` on a
    /// clean EOF at a frame boundary. `WouldBlock`/`TimedOut` surface
    /// as [`ServeError::Io`] with all partial state preserved — call
    /// again to resume.
    #[allow(clippy::type_complexity)]
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
        loop {
            if let Some(f) = self.buf.next_frame()? {
                return Ok(Some(f));
            }
            let mut chunk = [0u8; 16 * 1024];
            match r.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.buffered() == 0 {
                        return Ok(None);
                    }
                    return Err(ServeError::corrupt("peer closed mid-frame"));
                }
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }

    /// Complete frames already buffered but not yet returned can make
    /// this nonzero even between requests; mid-frame bytes always do.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }
}

/// Builds one complete wire frame — `[u32 LE len][u8 type]` followed
/// by a varint request id (`None` only on handshake-phase frames) and
/// the payload — into `buf`, which is cleared first. Encoding straight into a
/// caller-owned (pooled) buffer is what keeps the server's response
/// path allocation-free in steady state.
pub fn encode_frame_into<F: FnOnce(&mut Vec<u8>) -> u8>(
    buf: &mut Vec<u8>,
    request_id: Option<u64>,
    encode: F,
) -> Result<(), ServeError> {
    buf.clear();
    buf.extend_from_slice(&[0, 0, 0, 0, 0]);
    if let Some(id) = request_id {
        put_varint(buf, id);
    }
    let ty = encode(buf);
    let len = buf.len() - 5;
    if len > MAX_FRAME as usize {
        return Err(ServeError::FrameTooLarge {
            len: len as u64,
            max: u64::from(MAX_FRAME),
        });
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[4] = ty;
    Ok(())
}

/// The request id of frames the server originates outside any one
/// request (drain notices, subscription pushes); client ids start
/// at 1.
pub const CONN_LEVEL_ID: u64 = 0;

/// Splits the varint request-id prefix off a frame payload,
/// returning `(id, rest-of-payload)`.
pub fn split_request_id(payload: &[u8]) -> Result<(u64, &[u8]), ServeError> {
    let mut r = wire::Reader::new(payload);
    let id = r.varint("request id").map_err(ServeError::from)?;
    let rest = &payload[payload.len() - r.remaining()..];
    Ok((id, rest))
}

/// A bounds-checked cursor over one received payload; every accessor
/// returns a typed [`ServeError`] on truncation.
pub struct Reader<'a> {
    inner: wire::Reader<'a>,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            inner: wire::Reader::new(buf),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        self.inner.u8(what).map_err(ServeError::from)
    }

    /// Fixed u16, little-endian.
    pub fn u16(&mut self, what: &str) -> Result<u16, ServeError> {
        self.inner.u16(what).map_err(ServeError::from)
    }

    /// IEEE-754 `f64`, little-endian bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        self.inner.f64(what).map_err(ServeError::from)
    }

    /// LEB128 varint.
    pub fn varint(&mut self, what: &str) -> Result<u64, ServeError> {
        self.inner.varint(what).map_err(ServeError::from)
    }

    /// A varint that must fit a `usize` count bounded by what the
    /// payload could possibly hold (one byte per element minimum) —
    /// the guard that keeps corrupt counts from driving allocations.
    pub fn count(&mut self, what: &str) -> Result<usize, ServeError> {
        self.inner.count(what).map_err(ServeError::from)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], ServeError> {
        self.inner.bytes(what).map_err(ServeError::from)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str_(&mut self, what: &str) -> Result<String, ServeError> {
        self.inner.str_(what).map_err(ServeError::from)
    }

    /// Asserts the payload was fully consumed (trailing bytes are a
    /// protocol violation, they would hide framing bugs).
    pub fn finish(self, what: &str) -> Result<(), ServeError> {
        self.inner.finish(what).map_err(ServeError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x42, b"hello").unwrap();
        let mut r = &buf[..];
        let (ty, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(ty, 0x42);
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_refused_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(0x01);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, ServeError::FrameTooLarge { .. }));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, 0x07, b"abcdef").unwrap();
        for len in 1..full.len() {
            let err = read_frame(&mut &full[..len]).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { .. }),
                "prefix {len}: {err:?}"
            );
        }
    }

    #[test]
    fn varint_roundtrip_and_overflow() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            r.finish("v").unwrap();
        }
        // 10 continuation bytes with a large final byte overflow u64.
        let bad = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(Reader::new(&bad).varint("v").is_err());
    }

    #[test]
    fn reader_guards_counts_and_trailing_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000); // count far beyond the payload
        assert!(Reader::new(&buf).count("items").is_err());

        let mut buf = Vec::new();
        put_str(&mut buf, "ok");
        buf.push(0xaa);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str_("s").unwrap(), "ok");
        assert!(r.finish("s").is_err());
    }
}

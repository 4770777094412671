//! Framing and primitive codecs of the wire protocol.
//!
//! The actual implementation lives in [`dgs_net::wire`] — it moved
//! down a layer so the cross-process `SocketExecutor` site frames and
//! the serving protocol share one set of codecs (and one set of
//! bounds checks). This module re-exports them, maps a
//! [`FrameError`] to the serving layer's typed [`ServeError`] (so a
//! [`Reader`] call followed by `?` decodes into one), and adds the
//! request-id framing on top.
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
use std::io::{self, Read};

pub use dgs_net::wire::{put_varint, write_frame, FrameBuffer, Reader, MAX_FRAME};

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ServeError::Io(e),
            FrameError::Corrupt { message } => ServeError::Corrupt { message },
            FrameError::TooLarge { len, max } => ServeError::FrameTooLarge { len, max },
        }
    }
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
    let mut r = Reader::new(payload);
    let id = r.varint("request id")?;
    let rest = &payload[payload.len() - r.remaining()..];
    Ok((id, rest))
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
}

//! The site frames and their payload codecs (`docs/PROTOCOL.md`, "Site
//! frames"): the frame-type bytes, the handshake, and one field list
//! over [`crate::wire`] per payload. A protocol's own messages ride
//! inside `SITE_MSG`/`SITE_OUT` encoded by their [`SocketMsg`] codec.

use crate::message::{Endpoint, MsgClass, WireSize};
use crate::wire::{FrameError, Reader, Wire};

/// Handshake, both directions: magic `DGSP` + `u16` version.
pub const FT_WORKER_HELLO: u8 = 0x50;
/// Session bootstrap blob (coordinator → worker).
pub const FT_WORKER_LOAD: u8 = 0x51;
/// Generic acknowledgement (worker → coordinator).
pub const FT_WORKER_OK: u8 = 0x52;
/// Generic failure: a reason string (worker → coordinator).
pub const FT_WORKER_ERR: u8 = 0x53;
/// Per-run site bootstrap: run id + the hosted sites' specs.
pub const FT_SITE_HELLO: u8 = 0x54;
/// One protocol message delivered to a hosted site.
pub const FT_SITE_MSG: u8 = 0x55;
/// One finished handler's outbox: charged ops + buffered sends.
pub const FT_SITE_OUT: u8 = 0x56;
/// A hosted site failed (decode error or handler panic).
pub const FT_SITE_ERR: u8 = 0x57;
/// End of run: the worker drops the run's site state.
pub const FT_SITE_DONE: u8 = 0x58;
/// The worker process should exit cleanly.
pub const FT_WORKER_SHUTDOWN: u8 = 0x59;

/// Magic of the site-frame handshake.
pub const SOCKET_MAGIC: &[u8; 4] = b"DGSP";
/// Protocol version of the site frames.
pub const SOCKET_VERSION: u16 = 1;

/// The announce line a worker prints once its listener is bound; the
/// spawn-local bootstrap parses the address after this marker.
pub const ANNOUNCE_MARKER: &str = "listening on ";

/// A protocol message that can cross a process boundary. Every [`Wire`]
/// message is one, encoded by its codec; a protocol that stays
/// in-process implements this by hand and refuses in `encode`, which
/// [`super::SocketCluster::run`] surfaces as [`crate::ExecError::Unsupported`].
pub trait SocketMsg: WireSize + Clone + Send + 'static {
    /// Appends the encoded message to `buf`.
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String>;
    /// Decodes one message.
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

impl<T: Wire + WireSize + Clone + Send + 'static> SocketMsg for T {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        self.put(buf);
        Ok(())
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        T::get(r)
    }
}

/// Decodes one message that must fill `payload` exactly: the one
/// decode of the worker and of the coordinator alike.
pub(super) fn decode_msg<M: SocketMsg>(payload: &[u8]) -> Result<M, FrameError> {
    Reader::exact(payload, "message", M::decode)
}

/// One buffered send of a finished handler, already encoded.
pub struct RawSend {
    /// Destination endpoint.
    pub to: Endpoint,
    /// Shipment accounting class.
    pub class: MsgClass,
    /// The message's **logical** wire size ([`WireSize`]) — what the
    /// metrics record, independent of the physical frame encoding.
    pub wire_bytes: usize,
    /// The encoded message payload.
    pub payload: Vec<u8>,
}

/// A finished handler's outbox in encoded form.
pub struct RawOutbox {
    /// Charged local operations.
    pub ops: u64,
    /// Buffered sends.
    pub sends: Vec<RawSend>,
}

/// `SITE_HELLO`: one run's site bootstrap — the hosted sites and their
/// specs.
pub(super) struct SiteHello {
    pub(super) run: u64,
    pub(super) num_sites: usize,
    pub(super) hosted: Vec<(u32, Vec<u8>)>,
}

/// `SITE_MSG`: one encoded message for a hosted site.
pub(super) struct SiteMsg {
    pub(super) run: u64,
    pub(super) site: u32,
    pub(super) from: Endpoint,
    pub(super) class: MsgClass,
    pub(super) msg: Vec<u8>,
}

/// `SITE_OUT`: a finished handler's outbox.
pub(super) struct SiteOut {
    pub(super) run: u64,
    pub(super) site: u32,
    pub(super) out: RawOutbox,
}

/// `SITE_ERR`: a hosted site failed.
pub(super) struct SiteErr {
    pub(super) run: u64,
    pub(super) site: u32,
    pub(super) reason: String,
}

crate::wire_struct!(SiteHello {
    run,
    num_sites,
    hosted
});
crate::wire_struct!(SiteMsg {
    run,
    site,
    from,
    class,
    msg
});
crate::wire_struct!(SiteOut { run, site, out });
crate::wire_struct!(SiteErr { run, site, reason });
crate::wire_struct!(RawOutbox { ops, sends });
crate::wire_struct!(RawSend {
    to,
    class,
    wire_bytes,
    payload
});
crate::wire_enum!(MsgClass {
    0 => Data,
    1 => Control,
    2 => Result,
});

/// One varint: 0 is the coordinator, `i + 1` site `i`.
impl Wire for Endpoint {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Endpoint::Coordinator => 0,
            Endpoint::Site(i) => u64::from(*i) + 1,
        }
        .put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match u64::get(r)? {
            0 => Endpoint::Coordinator,
            v => Endpoint::Site(
                u32::try_from(v - 1)
                    .map_err(|_| FrameError::corrupt(format!("endpoint {v} exceeds u32")))?,
            ),
        })
    }
}

/// The handshake, both directions: the magic, then a version.
pub(super) type Handshake = (Vec<u8>, u16);

/// The reason of a `WORKER_ERR` frame.
pub(super) fn worker_err_reason(payload: &[u8]) -> String {
    Reader::exact(payload, "WORKER_ERR", String::get).unwrap_or_else(|_| "unreadable reason".into())
}

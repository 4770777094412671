//! Framing and primitive codecs shared by every socket protocol in
//! the workspace: the serving layer (`dgs-serve`) and the
//! cross-process [`crate::socket`] executor's site frames.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! [u32 LE payload length] [u8 frame type] [payload bytes]
//! ```
//!
//! The length covers the payload only (not itself, not the type
//! byte) and is bounded by [`MAX_FRAME`] — a corrupt length is
//! refused *before* any allocation. Payloads are built from a handful
//! of primitives: fixed-width little-endian integers, LEB128 varints,
//! length-prefixed byte strings and UTF-8 strings. [`Reader`] is a
//! bounds-checked cursor over a received payload whose every accessor
//! returns a typed error on truncation — decoding never panics.
//!
//! Every layout is stated once, over the one field codec [`Wire`]: each
//! field type has one impl here, a struct is its fields in wire order
//! ([`wire_struct!`](crate::wire_struct)), and a tag-byte enum is a
//! table of tag ↔ variant ↔ fields ([`wire_enum!`](crate::wire_enum)).
//! The serving protocol (`dgs-serve`'s `proto`), the dGPM-family
//! messages (`dgs-core`'s `remote`) and the site frames
//! ([`crate::socket`]) are all written that way.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard upper bound on a frame payload (64 MiB). Large graphs ship in
/// one bootstrap/`SESSION_CREATE` frame, so this is sized for tens of
/// millions of varint-packed edges while still refusing nonsense
/// lengths cheaply.
pub const MAX_FRAME: u32 = 64 << 20;

/// Why a frame could not be read or a payload could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket failure (includes the peer hanging up
    /// mid-frame).
    Io(io::Error),
    /// The peer's bytes violate the framing: truncation, a payload
    /// that does not decode, or trailing garbage.
    Corrupt {
        /// What was wrong.
        message: String,
    },
    /// A frame length over [`MAX_FRAME`], refused before allocation.
    TooLarge {
        /// The claimed payload length.
        len: u64,
        /// The limit it exceeded.
        max: u64,
    },
}

impl FrameError {
    /// A corruption error with the given description.
    pub fn corrupt(message: impl Into<String>) -> Self {
        FrameError::Corrupt {
            message: message.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Corrupt { message } => write!(f, "corrupt frame: {message}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame. A payload over [`MAX_FRAME`] is refused before
/// any byte hits the socket — silently sending it would make the
/// receiver kill the connection (and a > 4 GiB payload would wrap
/// the `u32` length and desync the stream).
pub fn write_frame<W: Write>(w: &mut W, ty: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME}-byte limit",
                payload.len()
            ),
        ));
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len)?;
    w.write_all(&[ty])?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF **before** the first
/// length byte (the peer closed between frames). EOF anywhere else is
/// a truncation error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::corrupt("truncated frame length")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len: u64::from(len),
            max: u64::from(MAX_FRAME),
        });
    }
    let mut ty = [0u8; 1];
    r.read_exact(&mut ty)
        .map_err(|_| FrameError::corrupt("truncated frame type"))?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|_| FrameError::corrupt("truncated frame payload"))?;
    Ok(Some((ty[0], payload)))
}

/// An incremental frame decoder: bytes go in as they arrive off a
/// nonblocking socket (or between blocking-read timeouts), complete
/// frames come out. Partial frames — a length prefix without its
/// payload, half a payload — stay buffered across calls, so a read
/// that stops mid-frame can resume exactly where it left off instead
/// of desyncing the stream. This is the framing primitive behind both
/// the readiness-loop server (partial reads are routine there) and
/// the resumable blocking reader in `dgs-serve`.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames (a nonzero value
    /// after EOF means the peer died mid-frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drops the consumed prefix once it dominates the buffer, so the
    /// allocation stays proportional to the unparsed tail.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes
    /// are needed. A length over [`MAX_FRAME`] is refused before any
    /// allocation, exactly like [`read_frame`].
    #[allow(clippy::type_complexity)]
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge {
                len: u64::from(len),
                max: u64::from(MAX_FRAME),
            });
        }
        let total = 4 + 1 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let ty = avail[4];
        let payload = avail[5..total].to_vec();
        self.pos += total;
        self.compact();
        Ok(Some((ty, payload)))
    }
}

// ---- payload building -------------------------------------------------

/// Appends a LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, v: u64) {
    // Most values on the wire (request ids, counts, row gaps) are one
    // byte.
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        put_varint_multi(buf, v);
    }
}

fn put_varint_multi(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a varint length followed by the raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Appends a varint length followed by UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

// ---- payload reading --------------------------------------------------

/// A bounds-checked cursor over one received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::corrupt(format!(
                "truncated payload: wanted {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    /// Fixed u16, little-endian.
    pub fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// IEEE-754 `f64`, little-endian bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, FrameError> {
        let b = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// The unread bytes, lent to `scan`, which returns how many of them
    /// it consumed beside its result; the cursor moves past those. The
    /// primitive for a decoder that checks a run of bytes in place
    /// instead of making one checked call per byte.
    ///
    /// # Panics
    /// If `scan` claims more bytes than it was lent.
    pub fn scan<T>(&mut self, scan: impl FnOnce(&'a [u8]) -> (usize, T)) -> T {
        let rest = &self.buf[self.pos..];
        let (used, out) = scan(rest);
        assert!(used <= rest.len(), "scan consumed past the payload");
        self.pos += used;
        out
    }

    /// LEB128 varint.
    #[inline]
    pub fn varint(&mut self, what: &str) -> Result<u64, FrameError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.varint_multi(what),
        }
    }

    fn varint_multi(&mut self, what: &str) -> Result<u64, FrameError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift == 63 && byte > 1 {
                return Err(FrameError::corrupt(format!("varint overflow in {what}")));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(FrameError::corrupt(format!("varint too long in {what}")));
            }
        }
    }

    /// A varint that must fit a `usize` count bounded by what the
    /// payload could possibly hold (one byte per element minimum) —
    /// the guard that keeps corrupt counts from driving allocations.
    pub fn count(&mut self, what: &str) -> Result<usize, FrameError> {
        let v = self.varint(what)?;
        if v > self.remaining() as u64 {
            return Err(FrameError::corrupt(format!(
                "{what} of {v} exceeds the {} bytes left in the frame",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], FrameError> {
        let len = self.count(what)?;
        self.take(len, what)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str_(&mut self, what: &str) -> Result<String, FrameError> {
        let b = self.bytes(what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FrameError::corrupt(format!("{what} is not UTF-8")))
    }

    /// Asserts the payload was fully consumed (trailing bytes are a
    /// protocol violation, they would hide framing bugs).
    pub fn finish(self, what: &str) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::corrupt(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Decodes all of `payload` with `decode` and [`finish`]es: the one
    /// way a whole payload is decoded, so no decoder can forget the
    /// trailing-bytes check.
    ///
    /// [`finish`]: Reader::finish
    pub fn exact<T>(
        payload: &'a [u8],
        what: &str,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, FrameError>,
    ) -> Result<T, FrameError> {
        let mut r = Reader::new(payload);
        let v = decode(&mut r)?;
        r.finish(what)?;
        Ok(v)
    }
}

/// The encoding of `v`, as a payload of its own.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut payload = Vec::new();
    v.put(&mut payload);
    payload
}

// ---- the field codec ---------------------------------------------------

/// A type's encoding on the wire: `put` appends it, `get` reads it
/// back. Every field type is encoded by exactly one impl, and decoding
/// is total — truncation or an out-of-range value is
/// [`FrameError::Corrupt`], never a panic.
pub trait Wire: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// One byte.
impl Wire for u8 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.u8("u8")
    }
}

/// Fixed two bytes, little-endian.
impl Wire for u16 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.u16("u16")
    }
}

/// A varint; one past `u32::MAX` is corrupt, not truncated.
impl Wire for u32 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let v = r.varint("u32")?;
        u32::try_from(v).map_err(|_| FrameError::corrupt(format!("varint {v} exceeds u32")))
    }
}

/// A varint.
impl Wire for u64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.varint("u64")
    }
}

/// A varint, range-checked like `u32`.
impl Wire for usize {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self as u64);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let v = r.varint("usize")?;
        usize::try_from(v).map_err(|_| FrameError::corrupt(format!("varint {v} exceeds usize")))
    }
}

/// One byte, 0 or 1; any nonzero byte reads as `true`.
impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(r.u8("bool")? != 0)
    }
}

/// The IEEE-754 bits, little-endian.
impl Wire for f64 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.f64("f64")
    }
}

/// A varint length, then UTF-8 bytes.
impl Wire for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.str_("string")
    }
}

/// A [`Reader::count`]-guarded varint length, then the items — so no
/// corrupt length drives an allocation past the payload.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for v in self {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = r.count("list length")?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A flag byte (0 none, 1 some), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8("option flag")? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            other => Err(FrameError::corrupt(format!("unknown option flag {other}"))),
        }
    }
}

/// A tag byte (1 ok, 0 error), then the value.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                buf.push(1);
                v.put(buf);
            }
            Err(e) => {
                buf.push(0);
                e.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match r.u8("result tag")? {
            1 => Ok(Ok(T::get(r)?)),
            0 => Ok(Err(E::get(r)?)),
            other => Err(FrameError::corrupt(format!("unknown result tag {other}"))),
        }
    }
}

/// The two fields in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Implements [`Wire`] for a struct as its fields in wire order:
///
/// ```ignore
/// wire_struct!(SessionInfo { name, nodes, edges, sites, generation });
/// wire_struct!(MatchLists(lists));
/// ```
///
/// The field types come from the struct's definition, so each field is
/// named once here and typed once there. A field written
/// `rows as (put_fn, get_fn)` is encoded by `put_fn(buf, &rows)` and
/// decoded by `get_fn(r)` instead of its type's [`Wire`] impl: the
/// override for a foreign type (a `DGSB` pattern blob) or for a layout
/// of its own (the gap-coded match rows).
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident
        $( ( $($tf:ident $(as ($tp:path, $tg:path))?),* $(,)? ) )?
        $( { $($sf:ident $(as ($sp:path, $sg:path))?),* $(,)? } )?
    ) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                let $ty $( ( $($tf),* ) )? $( { $($sf),* } )? = self;
                $( $( $crate::__wire_put!(buf, $tf $(, $tp)?); )* )?
                $( $( $crate::__wire_put!(buf, $sf $(, $sp)?); )* )?
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::FrameError> {
                Ok($ty
                    $( ( $($crate::__wire_get!(r $(, $tg)?)),* ) )?
                    $( { $($sf: $crate::__wire_get!(r $(, $sg)?)),* } )?)
            }
        }
    };
}

/// Implements [`Wire`] for an enum as a tag byte followed by the
/// variant's fields, from one table of `tag => Variant fields` rows:
///
/// ```ignore
/// wire_enum!(DgpmsMsg {
///     0 => Batch(vars),
///     1 => StartRound(rank),
///     2 => MoreWork,
/// });
/// ```
///
/// Fields are written as in [`wire_struct!`](crate::wire_struct),
/// overrides included. A row may name its tag (`PING = 0x10 => Ping`):
/// the name becomes a `pub const` at the call site and an entry of the
/// enum's `NAMED_TAGS`, which is how a frame table states each
/// frame-type byte and name once. The enum also gets
/// `put_variant` (append the fields, return the tag) and `get_variant`
/// (read the fields of a given tag), for a tag that travels outside
/// the payload — a frame's type byte.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $( $( $(#[$cm:meta])* $cn:ident = )? $tag:literal => $var:ident
            $( ( $($tf:ident $(as ($tp:path, $tg:path))?),* $(,)? ) )?
            $( { $($sf:ident $(as ($sp:path, $sg:path))?),* $(,)? } )?
        ),* $(,)?
    }) => {
        $( $( $(#[$cm])* pub const $cn: u8 = $tag; )? )*

        impl $ty {
            /// `(tag, name)` of every named row, in table order.
            #[allow(dead_code)]
            pub(crate) const NAMED_TAGS: &'static [(u8, &'static str)] =
                &[$( $( ($tag, stringify!($cn)), )? )*];

            /// Appends the fields of `self`'s variant and returns its tag.
            // `buf` is unused when no variant has fields.
            #[allow(unused_variables, clippy::ptr_arg)]
            pub(crate) fn put_variant(&self, buf: &mut ::std::vec::Vec<u8>) -> u8 {
                match self {
                    $( $ty::$var $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                        $( $( $crate::__wire_put!(buf, $tf $(, $tp)?); )* )?
                        $( $( $crate::__wire_put!(buf, $sf $(, $sp)?); )* )?
                        $tag
                    } )*
                }
            }

            /// Reads the fields of the variant `tag` names.
            // `r` is unused when no variant has fields.
            #[allow(unused_variables)]
            pub(crate) fn get_variant(
                tag: u8,
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::FrameError> {
                Ok(match tag {
                    $( $tag => $ty::$var
                        $( ( $($crate::__wire_get!(r $(, $tg)?)),* ) )?
                        $( { $($sf: $crate::__wire_get!(r $(, $sg)?)),* } )?, )*
                    other => {
                        return Err($crate::wire::FrameError::corrupt(format!(
                            concat!("unknown ", stringify!($ty), " tag {:#04x}"),
                            other
                        )));
                    }
                })
            }
        }

        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut ::std::vec::Vec<u8>) {
                let at = buf.len();
                buf.push(0);
                let tag = self.put_variant(buf);
                buf[at] = tag;
            }
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::FrameError> {
                let tag = r.u8(stringify!($ty))?;
                Self::get_variant(tag, r)
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($buf:ident, $v:ident) => {
        $crate::wire::Wire::put($v, $buf)
    };
    ($buf:ident, $v:ident, $put:path) => {
        $put($buf, $v)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($r:ident) => {
        $crate::wire::Wire::get($r)?
    };
    ($r:ident, $get:path) => {{
        let v: ::core::result::Result<_, $crate::wire::FrameError> = $get($r);
        v?
    }};
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
        assert!(matches!(err, FrameError::TooLarge { .. }));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, 0x07, b"abcdef").unwrap();
        for len in 1..full.len() {
            let err = read_frame(&mut &full[..len]).unwrap_err();
            assert!(
                matches!(err, FrameError::Corrupt { .. }),
                "prefix {len}: {err:?}"
            );
        }
    }

    #[test]
    fn frame_buffer_resumes_across_arbitrary_splits() {
        let mut full = Vec::new();
        write_frame(&mut full, 0x11, b"first").unwrap();
        write_frame(&mut full, 0x22, b"second payload").unwrap();
        // Feed the byte stream one byte at a time: every partial state
        // must hold the frame until it completes.
        for chunk in [1usize, 2, 3, 7] {
            let mut fb = FrameBuffer::new();
            let mut frames = Vec::new();
            for piece in full.chunks(chunk) {
                fb.extend(piece);
                while let Some(f) = fb.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(
                frames,
                vec![
                    (0x11, b"first".to_vec()),
                    (0x22, b"second payload".to_vec())
                ],
                "chunk size {chunk}"
            );
            assert_eq!(fb.buffered(), 0);
        }
    }

    #[test]
    fn frame_buffer_refuses_oversized_lengths() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn frame_buffer_reports_mid_frame_bytes() {
        let mut full = Vec::new();
        write_frame(&mut full, 0x07, b"abcdef").unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&full[..6]); // length + type + one payload byte
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.buffered(), 6);
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
        // The one-byte fast path ends at 0x7f; 0x80 takes two bytes.
        for (v, bytes) in [(0x7fu64, &[0x7f][..]), (0x80, &[0x80, 0x01])] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf, bytes, "encoding of {v:#x}");
        }
        // A two-byte varint cut after its first byte is a truncation.
        let mut r = Reader::new(&[0x80]);
        assert!(matches!(r.varint("v"), Err(FrameError::Corrupt { .. })));
        assert!(matches!(
            Reader::new(&[]).varint("v"),
            Err(FrameError::Corrupt { .. })
        ));
        // 10 continuation bytes with a large final byte overflow u64.
        let bad = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(Reader::new(&bad).varint("v").is_err());
    }

    #[test]
    fn scan_lends_the_unread_bytes_and_advances() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        assert_eq!(r.u8("head").unwrap(), 1);
        let sum = r.scan(|rest| {
            assert_eq!(rest, [2, 3, 4]);
            (2, rest[0] + rest[1])
        });
        assert_eq!(sum, 5);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u8("tail").unwrap(), 4);
        r.finish("scan").unwrap();
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

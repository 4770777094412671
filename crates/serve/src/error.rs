//! Typed errors of the serving layer.
//!
//! Everything that can go wrong on the wire — truncation, corruption,
//! a version the peer does not speak, an oversized frame, a
//! server-signalled failure — is a [`ServeError`] variant. Decoders
//! never panic on malformed bytes.

use dgs_core::DgsError;
use std::fmt;
use std::io;

/// Error codes carried by `ERROR` frames. The numeric values are part
/// of the wire protocol (see `docs/PROTOCOL.md`) and must never be
/// reused for a different meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The pattern itself is malformed ([`DgsError::InvalidPattern`]).
    InvalidPattern = 1,
    /// The requested engine's precondition does not hold
    /// ([`DgsError::Unsupported`]).
    Unsupported = 2,
    /// The distributed run failed ([`DgsError::ExecutorFailed`]).
    ExecutorFailed = 3,
    /// A graph delta is malformed ([`DgsError::InvalidDelta`]).
    InvalidDelta = 4,
    /// The server could not decode the request frame.
    Malformed = 5,
    /// Admission control: the server is at its connection limit.
    Busy = 6,
    /// The server is shutting down and no longer serves requests.
    ShuttingDown = 7,
    /// Any other server-side failure.
    Internal = 8,
    /// The request named (or the connection is routed to) a session
    /// the server does not host.
    NoSuchSession = 9,
    /// `UNSUBSCRIBE` named a subscription this connection does not
    /// hold (never registered, already torn down, or another
    /// connection's).
    NoSuchSubscription = 10,
}

impl ErrorCode {
    /// The wire representation.
    pub fn to_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire error code; unknown values map to
    /// [`ErrorCode::Internal`] so old clients survive new servers.
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::InvalidPattern,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::ExecutorFailed,
            4 => ErrorCode::InvalidDelta,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::Busy,
            7 => ErrorCode::ShuttingDown,
            9 => ErrorCode::NoSuchSession,
            10 => ErrorCode::NoSuchSubscription,
            _ => ErrorCode::Internal,
        }
    }

    /// The code a [`DgsError`] maps to on the wire.
    pub fn of_dgs(e: &DgsError) -> ErrorCode {
        match e {
            DgsError::InvalidPattern { .. } => ErrorCode::InvalidPattern,
            DgsError::Unsupported { .. } => ErrorCode::Unsupported,
            DgsError::ExecutorFailed { .. } => ErrorCode::ExecutorFailed,
            DgsError::InvalidDelta { .. } => ErrorCode::InvalidDelta,
            // A failed site is an executor-level failure on the wire;
            // the reason string names the site.
            DgsError::SiteFailed { .. } => ErrorCode::ExecutorFailed,
        }
    }
}

/// Why a serving-layer operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying socket failure (includes the peer hanging up
    /// mid-frame).
    Io(io::Error),
    /// The peer's bytes violate the protocol: bad magic, a frame type
    /// this side does not know, a payload that does not decode, or
    /// trailing garbage.
    Corrupt {
        /// What was wrong.
        message: String,
    },
    /// The peer does not speak the protocol version we do.
    UnsupportedVersion {
        /// The version we speak.
        ours: u8,
        /// The version the peer offered.
        theirs: u8,
    },
    /// A frame declared a length above the negotiated maximum —
    /// refused before allocating.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The maximum this side accepts.
        max: u64,
    },
    /// The server answered with an `ERROR` frame.
    Remote {
        /// The typed error code.
        code: ErrorCode,
        /// The server's human-readable description.
        message: String,
    },
}

impl ServeError {
    pub(crate) fn corrupt(message: impl Into<String>) -> ServeError {
        ServeError::Corrupt {
            message: message.into(),
        }
    }

    /// True when the server rejected the connection for capacity
    /// (admission-control backpressure) — the retryable case.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ServeError::Remote {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Corrupt { message } => write!(f, "protocol violation: {message}"),
            ServeError::UnsupportedVersion { ours, theirs } => write!(
                f,
                "version mismatch: peer offered v{theirs}, we speak v{ours}"
            ),
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::InvalidPattern,
            ErrorCode::Unsupported,
            ErrorCode::ExecutorFailed,
            ErrorCode::InvalidDelta,
            ErrorCode::Malformed,
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::NoSuchSession,
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), code);
        }
        // Unknown codes degrade to Internal instead of failing.
        assert_eq!(ErrorCode::from_u16(9999), ErrorCode::Internal);
    }

    #[test]
    fn dgs_error_mapping() {
        let e = DgsError::InvalidPattern {
            reason: "empty".into(),
        };
        assert_eq!(ErrorCode::of_dgs(&e), ErrorCode::InvalidPattern);
    }

    #[test]
    fn busy_is_retryable() {
        let e = ServeError::Remote {
            code: ErrorCode::Busy,
            message: "at capacity".into(),
        };
        assert!(e.is_busy());
        assert!(!ServeError::corrupt("x").is_busy());
    }
}

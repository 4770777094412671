//! Typed errors for the query path.
//!
//! Every precondition a query can fail is a [`DgsError`], never an
//! `assert!`/`panic!`/`unwrap`, so a serving layer can keep a session
//! alive across bad queries and report the precondition that failed
//! instead of dying.

use std::fmt;

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgsError {
    /// The pattern itself is malformed (e.g. has no nodes).
    InvalidPattern {
        /// What is wrong with it.
        reason: String,
    },
    /// The requested engine's structural precondition does not hold
    /// for this graph/pattern pair (Theorem 3 / Corollary 4 scope).
    Unsupported {
        /// Display name of the requested engine.
        algorithm: &'static str,
        /// The precondition that failed.
        reason: String,
    },
    /// The distributed run finished without assembling an answer —
    /// a protocol bug or a faulted executor, never the caller's fault.
    ExecutorFailed {
        /// Display name of the engine that ran.
        algorithm: &'static str,
        /// What was missing.
        reason: String,
    },
    /// A graph delta is malformed: an endpoint outside the loaded
    /// graph, or the same edge listed for both insertion and deletion.
    InvalidDelta {
        /// What is wrong with it.
        reason: String,
    },
    /// A specific site failed mid-run: its handler panicked (threaded
    /// executor) or its worker process died / reported a failure
    /// (socket executor). The session stays alive; re-running the
    /// query against a healthy cluster is safe.
    SiteFailed {
        /// The failed site (0-based).
        site: u32,
        /// What happened.
        reason: String,
    },
}

impl DgsError {
    /// Maps an executor-level failure into the query-path error type,
    /// attributing it to the engine that was running.
    pub(crate) fn from_exec(algorithm: &'static str, e: dgs_net::ExecError) -> DgsError {
        match e {
            dgs_net::ExecError::SiteFailed { site, reason } => {
                DgsError::SiteFailed { site, reason }
            }
            dgs_net::ExecError::Unsupported { detail } => DgsError::Unsupported {
                algorithm,
                reason: detail,
            },
            other => DgsError::ExecutorFailed {
                algorithm,
                reason: other.to_string(),
            },
        }
    }
}

impl fmt::Display for DgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgsError::InvalidPattern { reason } => {
                write!(f, "invalid pattern: {reason}")
            }
            DgsError::Unsupported { algorithm, reason } => {
                write!(f, "{algorithm} is not applicable: {reason}")
            }
            DgsError::ExecutorFailed { algorithm, reason } => {
                write!(f, "{algorithm} run failed: {reason}")
            }
            DgsError::InvalidDelta { reason } => {
                write!(f, "invalid graph delta: {reason}")
            }
            DgsError::SiteFailed { site, reason } => {
                write!(f, "site S{} failed: {reason}", site + 1)
            }
        }
    }
}

impl std::error::Error for DgsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = DgsError::Unsupported {
            algorithm: "dGPMt",
            reason: "the data graph is not a rooted tree".into(),
        };
        assert_eq!(
            e.to_string(),
            "dGPMt is not applicable: the data graph is not a rooted tree"
        );
        let e = DgsError::InvalidPattern {
            reason: "pattern has no nodes".into(),
        };
        assert!(e.to_string().contains("no nodes"));
    }
}

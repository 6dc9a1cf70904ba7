//! Protocol-level error type.

use ajx_erasure::CodeError;
use ajx_storage::StripeId;
use ajx_transport::RpcError;
use core::fmt;

/// Errors surfaced by the client protocol (`READ`, `WRITE`, recovery, GC).
///
/// In the paper's failure model these cases are either transient (another
/// client is recovering) or outside the tolerated bounds (more than `t_d`
/// storage or `t_p` client failures); the reproduction reports them
/// explicitly instead of looping forever, so tests and experiments stay
/// bounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A transport failure that auto-remap was not allowed to repair.
    Rpc(RpcError),
    /// An erasure-code failure (malformed blocks); indicates caller misuse.
    Code(CodeError),
    /// Recovery could not assemble `k + slack` consistent blocks — the
    /// failure bounds of §4 were exceeded and data may be lost.
    Unrecoverable {
        /// The stripe that could not be recovered.
        stripe: StripeId,
        /// Diagnostic detail.
        reason: String,
    },
    /// The operation did not finish within the configured retry budget
    /// (e.g. recovery lock contention never cleared because the holder is
    /// alive but slow).
    RetriesExhausted {
        /// What was being attempted.
        what: &'static str,
        /// How many attempts were made.
        attempts: u32,
    },
    /// The value passed to `WRITE` does not match the configured block size.
    BadBlockSize {
        /// Configured block size.
        expected: usize,
        /// Supplied value length.
        got: usize,
    },
    /// A storage node answered with the wrong reply variant. A malformed
    /// reply is a node-side fault, not a client invariant — it must surface
    /// as an error, never crash the client thread.
    UnexpectedReply {
        /// The reply variant the protocol step required.
        expected: &'static str,
        /// Compact rendering of what actually arrived.
        got: String,
    },
}

impl ProtocolError {
    /// Builds an [`ProtocolError::UnexpectedReply`], truncating the reply's
    /// debug rendering so block payloads don't explode the message.
    pub fn unexpected(expected: &'static str, got: &impl fmt::Debug) -> Self {
        let mut rendered = format!("{got:?}");
        if rendered.len() > 96 {
            let cut = (0..=96).rev().find(|&i| rendered.is_char_boundary(i)).unwrap_or(0);
            rendered.truncate(cut);
            rendered.push('…');
        }
        ProtocolError::UnexpectedReply {
            expected,
            got: rendered,
        }
    }

    /// What went wrong when `res` is not the `expected` reply: its own
    /// error, or [`ProtocolError::unexpected`] for a reply of another kind.
    pub(crate) fn not<R: fmt::Debug>(expected: &'static str, res: Result<R, Self>) -> Self {
        res.map_or_else(|e| e, |r| Self::unexpected(expected, &r))
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Rpc(e) => write!(f, "rpc failure: {e}"),
            ProtocolError::Code(e) => write!(f, "erasure-code failure: {e}"),
            ProtocolError::Unrecoverable { stripe, reason } => {
                write!(f, "{stripe} is unrecoverable: {reason}")
            }
            ProtocolError::RetriesExhausted { what, attempts } => {
                write!(f, "{what} did not complete after {attempts} attempts")
            }
            ProtocolError::BadBlockSize { expected, got } => {
                write!(f, "value has {got} bytes but the block size is {expected}")
            }
            ProtocolError::UnexpectedReply { expected, got } => {
                write!(f, "storage node answered {got} where {expected} was required")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Rpc(e) => Some(e),
            ProtocolError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RpcError> for ProtocolError {
    fn from(e: RpcError) -> Self {
        ProtocolError::Rpc(e)
    }
}

impl From<CodeError> for ProtocolError {
    fn from(e: CodeError) -> Self {
        ProtocolError::Code(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::NodeId;

    #[test]
    fn display_and_source_work() {
        let e = ProtocolError::from(RpcError::NodeDown(NodeId(1)));
        assert!(e.to_string().contains("s1"));
        assert!(std::error::Error::source(&e).is_some());

        let e = ProtocolError::Unrecoverable {
            stripe: StripeId(3),
            reason: "too many failures".into(),
        };
        assert!(e.to_string().contains("stripe3"));
        assert!(std::error::Error::source(&e).is_none());

        let e = ProtocolError::BadBlockSize { expected: 1024, got: 7 };
        assert!(e.to_string().contains("1024"));
    }

    #[test]
    fn unexpected_reply_truncates_huge_payloads() {
        let huge = vec![0xABu8; 4096];
        let e = ProtocolError::unexpected("Reply::Probe", &huge);
        let ProtocolError::UnexpectedReply { expected, got } = &e else {
            panic!("wrong variant");
        };
        assert_eq!(*expected, "Reply::Probe");
        assert!(got.len() < 120, "got {} chars", got.len());
        assert!(e.to_string().contains("Reply::Probe"));
    }
}

use std::error::Error;
use std::fmt;

/// Errors produced by the network layer: transports, protocol frames,
/// and the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A read ran past the end of the encoded payload.
    UnexpectedEnd {
        /// Bits requested by the failing read.
        requested: u32,
        /// Bits remaining in the stream.
        remaining: usize,
    },
    /// An encoded message carried an unknown tag byte.
    UnknownMessageTag {
        /// The offending tag.
        tag: u8,
    },
    /// A field failed validation while decoding.
    MalformedMessage {
        /// Explanation.
        reason: &'static str,
    },
    /// A source index was out of range for the network.
    UnknownSource {
        /// The offending index.
        source: usize,
        /// Number of sources in the network.
        sources: usize,
    },
    /// Invalid precision parameter (significand bits out of range).
    InvalidPrecision {
        /// The offending bit count.
        s: u32,
    },
    /// A socket or framing operation failed.
    Transport {
        /// Which operation failed.
        context: &'static str,
        /// Underlying failure, stringified.
        detail: String,
    },
    /// The bytes that crossed a socket differ from the locally computed
    /// encoding — the two sides of a replicated run diverged.
    Divergence {
        /// The source whose traffic diverged.
        source: usize,
        /// Which direction ("uplink", "downlink", or "digest").
        direction: &'static str,
    },
    /// A TCP handshake carried inconsistent parameters.
    Handshake {
        /// Explanation.
        reason: String,
    },
    /// A protocol peer answered with the wrong command/response type.
    ProtocolViolation {
        /// Which exchange was in flight.
        context: &'static str,
        /// The frame type the receiver expected.
        expected: &'static str,
        /// What actually arrived.
        got: String,
    },
    /// The remote end of a protocol run reported a failure or was told
    /// to abort.
    RemoteAbort {
        /// The failure as reported by (or sent to) the peer.
        reason: String,
    },
    /// A transport layer's write-ahead journal failed: an append, flush
    /// or sync, a corrupt record, or a replay that diverged from the
    /// records. Never a source's loss: the run ends.
    Journal {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnexpectedEnd {
                requested,
                remaining,
            } => write!(
                f,
                "unexpected end of payload: requested {requested} bits, {remaining} remain"
            ),
            NetError::UnknownMessageTag { tag } => write!(f, "unknown message tag {tag}"),
            NetError::MalformedMessage { reason } => write!(f, "malformed message: {reason}"),
            NetError::UnknownSource { source, sources } => {
                write!(f, "source {source} out of range (network has {sources})")
            }
            NetError::InvalidPrecision { s } => {
                write!(f, "invalid precision: {s} significand bits")
            }
            NetError::Transport { context, detail } => {
                write!(f, "transport failure during {context}: {detail}")
            }
            NetError::Divergence { source, direction } => write!(
                f,
                "transport divergence on source {source} ({direction}): \
                 socket bytes differ from the locally computed encoding"
            ),
            NetError::Handshake { reason } => write!(f, "handshake rejected: {reason}"),
            NetError::ProtocolViolation {
                context,
                expected,
                got,
            } => write!(
                f,
                "protocol violation during {context}: expected {expected}, got {got}"
            ),
            NetError::RemoteAbort { reason } => {
                write!(f, "remote end aborted the run: {reason}")
            }
            NetError::Journal { reason } => write!(f, "journal failure: {reason}"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NetError::UnexpectedEnd {
            requested: 8,
            remaining: 3
        }
        .to_string()
        .contains("8 bits"));
        assert!(NetError::UnknownMessageTag { tag: 9 }
            .to_string()
            .contains('9'));
        assert!(NetError::MalformedMessage { reason: "x" }
            .to_string()
            .contains('x'));
        assert!(NetError::UnknownSource {
            source: 5,
            sources: 2
        }
        .to_string()
        .contains('5'));
        assert!(NetError::InvalidPrecision { s: 60 }
            .to_string()
            .contains("60"));
        assert!(NetError::Transport {
            context: "frame header",
            detail: "eof".into()
        }
        .to_string()
        .contains("frame header"));
        assert!(NetError::Divergence {
            source: 3,
            direction: "uplink"
        }
        .to_string()
        .contains("source 3"));
        assert!(NetError::Handshake { reason: "v".into() }
            .to_string()
            .contains('v'));
    }

    #[test]
    fn send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<NetError>();
    }
}

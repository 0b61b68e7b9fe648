use std::error::Error;
use std::fmt;

/// Errors produced by the end-to-end pipelines.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A linear-algebra primitive failed.
    Linalg(ekm_linalg::LinalgError),
    /// A clustering primitive failed.
    Clustering(ekm_clustering::ClusteringError),
    /// Coreset construction failed.
    Coreset(ekm_coreset::CoresetError),
    /// The network layer failed (transport, protocol and wire-format
    /// errors surface here).
    Net(ekm_net::NetError),
    /// Quantization configuration failed.
    Quant(ekm_quant::QuantError),
    /// A pipeline received an invalid configuration.
    InvalidConfig {
        /// Explanation.
        reason: &'static str,
    },
    /// A protocol received an unexpected message.
    Protocol {
        /// Explanation.
        reason: &'static str,
    },
    /// A stage list contained an unknown stage token.
    InvalidStageName {
        /// The offending token.
        token: String,
    },
    /// The command-round journal failed, which ends the run: an
    /// unreadable, corrupt or foreign file, a configuration mismatch, a
    /// failed append, flush or sync, a replay that diverged from the
    /// driver's deterministic command sequence, or live executors that
    /// do not match the records. Failures met through the transport
    /// arrive as [`ekm_net::NetError::Journal`] and convert to this.
    Journal {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Clustering(e) => write!(f, "clustering failure: {e}"),
            CoreError::Coreset(e) => write!(f, "coreset failure: {e}"),
            CoreError::Net(e) => write!(f, "network failure: {e}"),
            CoreError::Quant(e) => write!(f, "quantization failure: {e}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            CoreError::InvalidStageName { token } => write!(
                f,
                "unknown stage '{token}' (valid stages: {})",
                crate::stage::Stage::vocabulary()
            ),
            CoreError::Journal { reason } => write!(f, "journal failure: {reason}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::Clustering(e) => Some(e),
            CoreError::Coreset(e) => Some(e),
            CoreError::Net(e) => Some(e),
            CoreError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ekm_linalg::LinalgError> for CoreError {
    fn from(e: ekm_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<ekm_clustering::ClusteringError> for CoreError {
    fn from(e: ekm_clustering::ClusteringError) -> Self {
        CoreError::Clustering(e)
    }
}

impl From<ekm_coreset::CoresetError> for CoreError {
    fn from(e: ekm_coreset::CoresetError) -> Self {
        CoreError::Coreset(e)
    }
}

impl From<ekm_net::NetError> for CoreError {
    fn from(e: ekm_net::NetError) -> Self {
        match e {
            ekm_net::NetError::Journal { reason } => CoreError::Journal { reason },
            e => CoreError::Net(e),
        }
    }
}

impl From<ekm_quant::QuantError> for CoreError {
    fn from(e: ekm_quant::QuantError) -> Self {
        CoreError::Quant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: CoreError = ekm_linalg::LinalgError::EmptyMatrix { op: "x" }.into();
        assert!(e.to_string().contains("linear algebra"));
        assert!(Error::source(&e).is_some());
        let e: CoreError = ekm_clustering::ClusteringError::EmptyInput.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = ekm_net::NetError::UnknownMessageTag { tag: 0 }.into();
        assert!(Error::source(&e).is_some());
        let e = CoreError::InvalidConfig { reason: "bad" };
        assert!(e.to_string().contains("bad"));
        assert!(Error::source(&e).is_none());
        let e = CoreError::Protocol { reason: "odd" };
        assert!(e.to_string().contains("odd"));
    }

    #[test]
    fn send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}

use std::fmt;

/// Errors produced by the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The server or batching window was misconfigured.
    InvalidConfig(String),
    /// The request stream violated the serving contract (e.g. arrivals out
    /// of order, non-finite timestamps).
    InvalidRequest(String),
    /// Propagated inference error from a worker's batched forward pass.
    Nn(ie_nn::NnError),
    /// A worker thread was lost (panicked or disconnected); the message
    /// names the worker so the operator can correlate logs.
    WorkerLost(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request stream: {msg}"),
            ServeError::Nn(e) => write!(f, "inference error: {e}"),
            ServeError::WorkerLost(msg) => write!(f, "serve worker lost: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ie_nn::NnError> for ServeError {
    fn from(e: ie_nn::NnError) -> Self {
        // A worker panic surfacing through the shared evaluation plumbing is
        // a lost worker, not a shape problem — keep the distinction.
        match e {
            ie_nn::NnError::WorkerPanic { .. } => ServeError::WorkerLost(e.to_string()),
            other => ServeError::Nn(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_panics_map_to_worker_lost() {
        let errs: Vec<ServeError> = vec![
            ServeError::InvalidConfig("zero window".into()),
            ServeError::InvalidRequest("arrivals not sorted".into()),
            ie_nn::NnError::InvalidExit { requested: 3, available: 3 }.into(),
            ServeError::WorkerLost("worker 2".into()),
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        let panic: ServeError = ie_nn::NnError::WorkerPanic {
            worker: 1,
            shard_start: 0,
            shard_len: 4,
            message: "boom".into(),
        }
        .into();
        assert!(matches!(panic, ServeError::WorkerLost(ref msg) if msg.contains("worker 1")));
    }
}

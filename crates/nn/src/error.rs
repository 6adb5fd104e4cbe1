use ie_tensor::TensorError;
use std::fmt;

/// Errors produced by network construction, inference and training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A layer received an input whose shape does not match its expectation.
    InputShapeMismatch {
        /// Name of the layer reporting the problem.
        layer: String,
        /// Shape the layer expected.
        expected: Vec<usize>,
        /// Shape the layer received.
        actual: Vec<usize>,
    },
    /// An exit index outside `0..num_exits` was requested.
    InvalidExit {
        /// The requested exit index.
        requested: usize,
        /// The number of exits the network actually has.
        available: usize,
    },
    /// An incremental step (from one exit on to a deeper one) was asked to
    /// move to an exit that is not strictly deeper than where it starts.
    NonMonotonicExit {
        /// The exit already reached.
        current: usize,
        /// The exit requested next.
        requested: usize,
    },
    /// A class label outside the number of classes was supplied.
    InvalidLabel {
        /// The offending label.
        label: usize,
        /// The number of classes.
        classes: usize,
    },
    /// The architecture specification is inconsistent (e.g. an exit attached
    /// to a non-existent trunk layer).
    InvalidSpec(String),
    /// A pruned-channel list names a channel the layer does not have, names
    /// one twice, or would remove every channel.
    InvalidPruning(String),
    /// A worker thread of the shard loop ([`crate::train::run_sharded`])
    /// panicked: an evaluator's, the trainer's or the fleet simulator's.
    /// Instead of aborting the whole process on join, the panic is surfaced
    /// as an error naming the worker and its shard so long-running callers
    /// (the serving loop) can degrade gracefully.
    WorkerPanic {
        /// Index of the panicking worker (= shard index).
        worker: usize,
        /// First item (sample or device) index of the worker's shard.
        shard_start: usize,
        /// Number of items in the worker's shard.
        shard_len: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InputShapeMismatch { layer, expected, actual } => write!(
                f,
                "layer {layer} expected input shape {expected:?}, received {actual:?}"
            ),
            NnError::InvalidExit { requested, available } => {
                write!(f, "exit {requested} requested but network has {available} exits")
            }
            NnError::NonMonotonicExit { current, requested } => write!(
                f,
                "incremental inference must move to a deeper exit: currently at {current}, requested {requested}"
            ),
            NnError::InvalidLabel { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::InvalidSpec(msg) => write!(f, "invalid architecture spec: {msg}"),
            NnError::InvalidPruning(msg) => write!(f, "invalid pruned channels: {msg}"),
            NnError::WorkerPanic { worker, shard_start, shard_len, message } => write!(
                f,
                "shard worker {worker} panicked on items \
                 {shard_start}..{} ({shard_len} items): {message}",
                shard_start + shard_len
            ),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs: Vec<NnError> = vec![
            NnError::Tensor(TensorError::EmptyTensor),
            NnError::InputShapeMismatch {
                layer: "conv1".into(),
                expected: vec![3, 32, 32],
                actual: vec![1, 28, 28],
            },
            NnError::InvalidExit { requested: 5, available: 3 },
            NnError::NonMonotonicExit { current: 2, requested: 1 },
            NnError::InvalidLabel { label: 12, classes: 10 },
            NnError::InvalidSpec("exit after missing layer".into()),
            NnError::InvalidPruning("channel 9 of 4".into()),
            NnError::WorkerPanic {
                worker: 1,
                shard_start: 30,
                shard_len: 30,
                message: "boom".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn tensor_errors_convert() {
        let e: NnError = TensorError::EmptyTensor.into();
        assert!(matches!(e, NnError::Tensor(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}

//! Typed failures for parallel regions and executor construction.

use std::fmt;

/// Why a parallel region (or an algorithm built from regions) stopped
/// early. See DESIGN.md, "Failure model".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A chunk body panicked. The panic was caught at the chunk boundary,
    /// the pool survived, and the first payload observed is reported.
    Panicked {
        /// Chunk index (`0..p`) whose body panicked first.
        worker: usize,
        /// Stringified panic payload (`&str`/`String` payloads verbatim,
        /// anything else as a placeholder).
        payload: String,
    },
    /// A [`CancelToken`](crate::CancelToken) was triggered.
    Cancelled,
    /// A [`Deadline`](crate::Deadline) expired.
    DeadlineExceeded,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParError::Panicked { worker, payload } => {
                write!(f, "worker {worker} panicked: {payload}")
            }
            ParError::Cancelled => write!(f, "parallel region cancelled"),
            ParError::DeadlineExceeded => write!(f, "parallel region deadline exceeded"),
        }
    }
}

impl std::error::Error for ParError {}

/// Why an [`Executor`](crate::Executor) could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `workers == 0` was requested.
    ZeroWorkers,
    /// The underlying thread pool could not be created.
    Pool(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroWorkers => write!(f, "worker count must be positive"),
            BuildError::Pool(msg) => write!(f, "failed to build thread pool: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Extracts a human-readable string from a caught panic payload.
pub(crate) fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let p = ParError::Panicked {
            worker: 3,
            payload: "boom".into(),
        };
        assert_eq!(p.to_string(), "worker 3 panicked: boom");
        assert_eq!(ParError::Cancelled.to_string(), "parallel region cancelled");
        assert_eq!(
            ParError::DeadlineExceeded.to_string(),
            "parallel region deadline exceeded"
        );
        assert_eq!(
            BuildError::ZeroWorkers.to_string(),
            "worker count must be positive"
        );
        assert!(BuildError::Pool("no threads".into())
            .to_string()
            .contains("failed to build thread pool"));
    }
}

//! Error types for the ESTIMA prediction pipeline.

use std::fmt;

/// Errors produced by the ESTIMA prediction pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimaError {
    /// Not enough measurements to run the regression step.
    InsufficientMeasurements {
        /// Measurements the pipeline needs (training points + checkpoints).
        required: usize,
        /// Measurements actually provided.
        available: usize,
    },
    /// The measurement set contains no stall categories at all.
    NoStallCategories,
    /// A measurement contained a non-finite or negative value.
    InvalidMeasurement {
        /// Core count of the offending measurement.
        cores: u32,
        /// What was wrong with it.
        detail: String,
    },
    /// Every candidate kernel was rejected for a category (all fits diverged
    /// or produced unrealistic extrapolations).
    NoViableFit {
        /// The category no kernel could fit (rendered `source:name`).
        category: String,
    },
    /// The target machine has fewer cores than the largest measurement.
    TargetSmallerThanMeasurements {
        /// Requested target core count.
        target: u32,
        /// Largest measured core count.
        measured: u32,
    },
    /// The linear-algebra layer failed (singular system, non-finite values).
    Numerical(String),
    /// Configuration was internally inconsistent (e.g. empty kernel set).
    InvalidConfig(String),
    /// A series name was rejected by [`crate::store::SeriesId`] validation
    /// (empty, too long, or containing characters outside `[A-Za-z0-9_.-]`).
    InvalidSeriesId {
        /// What was wrong with the name.
        detail: String,
    },
    /// A store operation referenced a series that does not exist.
    SeriesNotFound {
        /// The missing series id.
        series: String,
    },
    /// An ingest would contradict what the store already holds for the
    /// series (e.g. a different measurement-machine clock frequency).
    SeriesConflict {
        /// The conflicting series id.
        series: String,
        /// What the ingest disagreed about.
        detail: String,
    },
    /// An ingest was rejected because it would exceed the tenant's
    /// series-count or point-count quota. Retryable: TTL eviction or
    /// explicit deletes free capacity.
    QuotaExceeded {
        /// The tenant whose quota was hit (the series-id prefix before the
        /// first `.`).
        tenant: String,
        /// Which quota was exceeded and by how much.
        detail: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The persistence layer (write-ahead log or snapshot) failed; the
    /// in-memory mutation was not applied.
    StorageFailure {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for EstimaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimaError::InsufficientMeasurements {
                required,
                available,
            } => write!(
                f,
                "insufficient measurements: need at least {required}, got {available}"
            ),
            EstimaError::NoStallCategories => {
                write!(f, "measurement set contains no stall categories")
            }
            EstimaError::InvalidMeasurement { cores, detail } => {
                write!(f, "invalid measurement at {cores} cores: {detail}")
            }
            EstimaError::NoViableFit { category } => write!(
                f,
                "no extrapolation kernel produced a realistic fit for `{category}`"
            ),
            EstimaError::TargetSmallerThanMeasurements { target, measured } => write!(
                f,
                "target core count {target} is smaller than largest measured core count {measured}"
            ),
            EstimaError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            EstimaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EstimaError::InvalidSeriesId { detail } => {
                write!(f, "invalid series id: {detail}")
            }
            EstimaError::SeriesNotFound { series } => {
                write!(f, "series `{series}` does not exist")
            }
            EstimaError::SeriesConflict { series, detail } => {
                write!(f, "series `{series}` conflict: {detail}")
            }
            EstimaError::QuotaExceeded {
                tenant,
                detail,
                retry_after_ms,
            } => write!(
                f,
                "tenant `{tenant}` quota exceeded: {detail} (retry after {retry_after_ms} ms)"
            ),
            EstimaError::StorageFailure { detail } => {
                write!(f, "storage failure: {detail}")
            }
        }
    }
}

impl std::error::Error for EstimaError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EstimaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_insufficient() {
        let e = EstimaError::InsufficientMeasurements {
            required: 5,
            available: 2,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('2'));
    }

    #[test]
    fn display_all_variants_nonempty() {
        let variants = vec![
            EstimaError::InsufficientMeasurements {
                required: 1,
                available: 0,
            },
            EstimaError::NoStallCategories,
            EstimaError::InvalidMeasurement {
                cores: 4,
                detail: "NaN".into(),
            },
            EstimaError::NoViableFit {
                category: "ls_full".into(),
            },
            EstimaError::TargetSmallerThanMeasurements {
                target: 4,
                measured: 12,
            },
            EstimaError::Numerical("singular".into()),
            EstimaError::InvalidConfig("no kernels".into()),
            EstimaError::InvalidSeriesId {
                detail: "empty".into(),
            },
            EstimaError::SeriesNotFound {
                series: "app".into(),
            },
            EstimaError::SeriesConflict {
                series: "app".into(),
                detail: "frequency".into(),
            },
            EstimaError::QuotaExceeded {
                tenant: "acme".into(),
                detail: "series quota".into(),
                retry_after_ms: 1000,
            },
            EstimaError::StorageFailure {
                detail: "torn tail".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&EstimaError::NoStallCategories);
    }
}

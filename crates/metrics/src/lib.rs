#![warn(missing_docs)]

//! Evaluation metrics and ensemble score combination for the SUOD
//! reproduction.
//!
//! Every table in the paper reports ROC-AUC and P@N (precision at the true
//! number of outliers); the balanced-scheduling module is validated by
//! Spearman's rank correlation between predicted and true model costs; and
//! the full-system evaluation (Table 4) combines base-model scores with the
//! average / maximum-of-average schemes of Aggarwal & Sathe.
//!
//! # Example
//!
//! ```
//! use suod_metrics::{roc_auc, precision_at_n};
//!
//! # fn main() -> Result<(), suod_metrics::Error> {
//! let labels = [0, 0, 1, 1];
//! let scores = [0.1, 0.4, 0.35, 0.8];
//! let auc = roc_auc(&labels, &scores)?;
//! assert!((auc - 0.75).abs() < 1e-12);
//! let p = precision_at_n(&labels, &scores, None)?;
//! assert!((p - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod combination;
pub mod correlation;
pub mod precision;
pub mod roc;

pub use combination::{aom, average, maximization, moa, Combiner};
pub use correlation::{kendall_tau, pearson, spearman};
pub use precision::{precision_at_n, precision_recall_at_k};
pub use roc::roc_auc;

use std::fmt;

/// Errors produced when metric inputs are malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Label and score vectors have different lengths.
    LengthMismatch {
        /// Length of the label vector.
        labels: usize,
        /// Length of the score vector.
        scores: usize,
    },
    /// The metric is undefined for the given input (e.g. single-class ROC).
    Undefined(&'static str),
    /// Inputs were empty where data is required.
    Empty(&'static str),
    /// Scores contained NaN or infinite values where a total order (or a
    /// meaningful standardization) is required.
    NonFinite(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LengthMismatch { labels, scores } => write!(
                f,
                "labels ({labels}) and scores ({scores}) must have equal length"
            ),
            Error::Undefined(what) => write!(f, "metric undefined: {what}"),
            Error::Empty(what) => write!(f, "{what} received empty input"),
            Error::NonFinite(what) => {
                write!(f, "{what} received non-finite (NaN/inf) scores")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

pub(crate) fn check_lengths(labels: usize, scores: usize) -> Result<()> {
    if labels != scores {
        return Err(Error::LengthMismatch { labels, scores });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_describe_the_input() {
        for (err, message) in [
            (
                Error::LengthMismatch {
                    labels: 4,
                    scores: 3,
                },
                "labels (4) and scores (3) must have equal length",
            ),
            (
                Error::Undefined("roc_auc with one class"),
                "metric undefined: roc_auc with one class",
            ),
            (Error::Empty("roc_auc"), "roc_auc received empty input"),
            (
                Error::NonFinite("aom"),
                "aom received non-finite (NaN/inf) scores",
            ),
        ] {
            assert_eq!(err.to_string(), message);
        }
        assert_eq!(check_lengths(2, 2), Ok(()));
        assert_eq!(
            check_lengths(2, 5),
            Err(Error::LengthMismatch {
                labels: 2,
                scores: 5
            })
        );
    }
}

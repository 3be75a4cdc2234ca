#![warn(missing_docs)]

//! Dataset infrastructure for the SUOD reproduction.
//!
//! The paper evaluates on ODDS/DAMI benchmark datasets (Appendix A,
//! Table A.1) plus a proprietary IQVIA claims dataset. Neither source is
//! available offline, so this crate provides **seeded synthetic analogs**:
//!
//! * [`synthetic`] — the generator core: Gaussian cluster inliers with
//!   global/local outliers and optional pure-noise dimensions.
//! * [`registry`] — named analogs matching every Table A.1 dataset's
//!   size `n`, dimensionality `d`, and outlier fraction.
//! * [`claims`] — a synthetic pharmacy-claims generator matching the
//!   published IQVIA statistics (123,720 x 35, 15.38 % fraud).
//! * [`split`] — deterministic stratified train/test splitting (the paper
//!   uses 60/40 splits for PSA and full-system experiments).
//! * [`csv`] — minimal numeric-CSV loader for user-supplied datasets.
//!
//! See `DESIGN.md` §4 for why these substitutions preserve the behaviours
//! the paper's experiments measure.
//!
//! # Example
//!
//! ```
//! use suod_datasets::registry;
//!
//! let ds = registry::load_scaled("cardio", 42, 0.25).unwrap();
//! assert_eq!(ds.x.ncols(), 21);
//! assert!(ds.n_outliers() > 0);
//! ```

pub mod claims;
pub mod csv;
pub mod registry;
pub mod split;
pub mod synthetic;

pub use registry::{load, load_scaled, names as registry_names, DatasetInfo};
pub use split::{train_test_split, TrainTestSplit};
pub use synthetic::{Dataset, OutlierKind, SyntheticConfig};

use std::fmt;

/// Errors produced by dataset generation and splitting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value was outside its valid domain.
    InvalidConfig(String),
    /// The requested registry dataset does not exist.
    UnknownDataset(String),
    /// Propagated matrix-construction failure.
    Linalg(suod_linalg::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid dataset config: {msg}"),
            Error::UnknownDataset(name) => write!(f, "unknown dataset `{name}`"),
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<suod_linalg::Error> for Error {
    fn from(e: suod_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn errors_name_the_dataset_and_keep_their_source() {
        let err = Error::UnknownDataset("nope".into());
        assert_eq!(err.to_string(), "unknown dataset `nope`");
        assert!(err.source().is_none());
        assert_eq!(
            Error::InvalidConfig("scale".into()).to_string(),
            "invalid dataset config: scale"
        );
        let cause = suod_linalg::Error::BadDimensions {
            expected: 6,
            actual: 5,
        };
        let err = Error::from(cause.clone());
        assert_eq!(err, Error::Linalg(cause.clone()));
        assert_eq!(err.to_string(), format!("linear algebra error: {cause}"));
        assert_eq!(err.source().unwrap().to_string(), cause.to_string());
    }
}

#![allow(clippy::needless_range_loop)] // indexed loops mirror the papers' pseudocode in numeric kernels
#![warn(missing_docs)]
//! Supervised regressors for the SUOD reproduction.
//!
//! Two of SUOD's three modules are built on supervised regression:
//!
//! * **Pseudo-Supervised Approximation** (paper §3.4) replaces a costly
//!   unsupervised detector's `decision_function` with a fast regressor
//!   trained on the detector's own training-set scores. The paper uses a
//!   random forest regressor ([`RandomForestRegressor`]) and recommends
//!   tree ensembles for scalability and interpretability.
//! * **Balanced Parallel Scheduling** (paper §3.5) forecasts model cost
//!   with a random forest regressor over dataset meta-features.
//!
//! [`DecisionTreeRegressor`] is the CART building block. The forest and
//! the tree carry their own snapshot codecs (`snapshot_write` and
//! `snapshot_read`); the pool snapshot frames a PSA forest's record.
//!
//! # Example
//!
//! ```
//! use suod_linalg::Matrix;
//! use suod_supervised::{Regressor, RandomForestRegressor};
//!
//! # fn main() -> Result<(), suod_supervised::Error> {
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
//! let y = [0.0, 1.0, 2.0, 3.0];
//! let mut rf = RandomForestRegressor::new(20, 42);
//! rf.fit(&x, &y)?;
//! let pred = rf.predict(&x)?;
//! assert!((pred[3] - 3.0).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod forest;
pub mod presorted;
pub mod tree;

#[cfg(test)]
mod tie_heavy;

pub use forest::RandomForestRegressor;
pub use presorted::PresortedSpace;
pub use tree::{DecisionTreeRegressor, TreeParams};

use std::fmt;
use suod_linalg::Matrix;

/// Errors produced by supervised model training and prediction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// `fit` inputs had inconsistent shapes.
    ShapeMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of targets.
        targets: usize,
    },
    /// `predict` was called before `fit`.
    NotFitted(&'static str),
    /// A hyperparameter was outside its valid domain.
    InvalidParameter(String),
    /// Training data was empty.
    EmptyInput(&'static str),
    /// Training data (`"features"` or `"targets"`) held a NaN or an
    /// infinity.
    NonFiniteInput(&'static str),
    /// Propagated linear-algebra failure.
    Linalg(suod_linalg::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { rows, targets } => write!(
                f,
                "feature rows ({rows}) and targets ({targets}) must match"
            ),
            Error::NotFitted(model) => write!(f, "{model} must be fitted before prediction"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::EmptyInput(what) => write!(f, "{what} received empty training data"),
            Error::NonFiniteInput(what) => write!(f, "training {what} contain NaN or infinity"),
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

/// A trainable regression model mapping feature rows to scalar targets.
///
/// Regressors are [`Send`] and [`Sync`] so the scheduler can move them
/// across worker threads.
pub trait Regressor: Send + Sync {
    /// Fits the model to `(x, y)` pairs.
    ///
    /// # Errors
    ///
    /// Implementations return [`Error::ShapeMismatch`] when `x.nrows() !=
    /// y.len()`, [`Error::EmptyInput`] when `x` has no rows, and
    /// [`Error::NonFiniteInput`] when `x` or `y` holds a NaN or an
    /// infinity.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()>;

    /// Predicts targets for each row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and
    /// [`Error::InvalidParameter`] when `x` is not as wide as the
    /// training rows.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>>;
}

/// Checks that `y` holds one finite target per training row.
pub(crate) fn check_targets(rows: usize, y: &[f64]) -> Result<()> {
    if rows != y.len() {
        return Err(Error::ShapeMismatch {
            rows,
            targets: y.len(),
        });
    }
    check_finite(y, "targets")
}

pub(crate) fn check_finite(values: &[f64], what: &'static str) -> Result<()> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(Error::NonFiniteInput(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_regressor_rejects_non_finite_training_data() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.5], vec![2.0, 0.0]]).unwrap();
        let y = [0.0, 1.0, 2.0];
        let mut tree = DecisionTreeRegressor::default();
        let mut forest = RandomForestRegressor::new(3, 0);
        let regressors: [(&str, &mut dyn Regressor); 2] =
            [("tree", &mut tree), ("forest", &mut forest)];
        for (name, regressor) in regressors {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut bad_x = x.clone();
                bad_x.set(1, 1, bad);
                assert_eq!(
                    regressor.fit(&bad_x, &y).unwrap_err(),
                    Error::NonFiniteInput("features"),
                    "{name}"
                );
            }
            assert_eq!(
                regressor.fit(&x, &[0.0, f64::NAN, 2.0]).unwrap_err(),
                Error::NonFiniteInput("targets"),
                "{name}"
            );
            regressor.fit(&x, &y).unwrap();
        }
    }

    #[test]
    fn errors_say_what_went_wrong() {
        use std::error::Error as _;
        let cases = [
            (
                Error::ShapeMismatch {
                    rows: 3,
                    targets: 2,
                },
                "feature rows (3) and targets (2) must match",
            ),
            (
                Error::NotFitted("Model"),
                "Model must be fitted before prediction",
            ),
            (
                Error::InvalidParameter("depth".into()),
                "invalid parameter: depth",
            ),
            (Error::EmptyInput("fit"), "fit received empty training data"),
            (
                Error::NonFiniteInput("targets"),
                "training targets contain NaN or infinity",
            ),
        ];
        for (err, message) in cases {
            assert_eq!(err.to_string(), message);
            assert!(err.source().is_none());
        }
        let linalg = suod_linalg::Error::Empty("gemm");
        let err = Error::from(linalg.clone());
        assert_eq!(err, Error::Linalg(linalg.clone()));
        assert_eq!(err.to_string(), format!("linear algebra error: {linalg}"));
        assert_eq!(err.source().unwrap().to_string(), linalg.to_string());
    }
}

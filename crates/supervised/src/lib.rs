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
//! [`DecisionTreeRegressor`] is the CART building block; [`Ridge`] and
//! [`KnnRegressor`] are additional approximators used in the ablation
//! studies.
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
pub mod knn_regressor;
pub mod presorted;
pub mod ridge;
pub mod tree;

#[cfg(test)]
mod tie_heavy;

pub use forest::RandomForestRegressor;
pub use knn_regressor::KnnRegressor;
pub use presorted::PresortedSpace;
pub use ridge::Ridge;
pub use tree::{DecisionTreeRegressor, TreeParams};

use std::fmt;
use suod_linalg::{Matrix, SnapshotReader, SnapshotWriter};

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
/// All regressors in this crate are [`Send`] so the scheduler can move
/// them across worker threads.
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
    /// [`Error::ShapeMismatch`]-like failures on dimension mismatch.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// Short human-readable model name for logs and reports.
    fn name(&self) -> &'static str;

    /// Per-feature importances normalized to sum to 1, when the model can
    /// provide them (tree ensembles do; linear/instance models return
    /// `None`). This surfaces the interpretability benefit the paper
    /// highlights for pseudo-supervised approximation (§3.4, Remark 1).
    fn feature_importances(&self) -> Option<Vec<f64>> {
        None
    }

    /// Appends the regressor's full state (parameters + fitted model) to
    /// a `suod-pool` snapshot body.
    ///
    /// Implementations write every field in a fixed order so that
    /// save → load → save is byte-identical; the matching reader is the
    /// type's `snapshot_read` associated function, dispatched by
    /// [`read_regressor`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the regressor does not
    /// support snapshots.
    fn snapshot_write(&self, w: &mut SnapshotWriter) -> Result<()> {
        let _ = w;
        Err(Error::InvalidParameter(format!(
            "{} does not support snapshots",
            self.name()
        )))
    }
}

/// Writes `model` as a dispatchable snapshot record: name string followed
/// by a length-prefixed state body (mirror of the detectors-crate record).
///
/// # Errors
///
/// Propagates the regressor's [`Regressor::snapshot_write`] failure.
pub fn write_regressor(model: &dyn Regressor, w: &mut SnapshotWriter) -> Result<()> {
    w.write_str(model.name());
    let mut body = SnapshotWriter::new();
    model.snapshot_write(&mut body)?;
    w.write_bytes(body.as_bytes());
    Ok(())
}

/// Reads a regressor record written by [`write_regressor`], dispatching
/// on the stored name.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for unknown names, truncated
/// state, or trailing bytes left by a mismatched reader.
pub fn read_regressor(r: &mut SnapshotReader<'_>) -> Result<Box<dyn Regressor>> {
    let name = r.read_str()?;
    let body = r.read_bytes()?;
    // Nested, not new: a kNN regressor's index record is read under the
    // file's format version.
    let mut br = r.nested(body);
    let model: Box<dyn Regressor> = match name.as_str() {
        "random_forest" => Box::new(RandomForestRegressor::snapshot_read(&mut br)?),
        "decision_tree" => Box::new(DecisionTreeRegressor::snapshot_read(&mut br)?),
        "ridge" => Box::new(Ridge::snapshot_read(&mut br)?),
        "knn_regressor" => Box::new(KnnRegressor::snapshot_read(&mut br)?),
        other => {
            return Err(Error::InvalidParameter(format!(
                "snapshot: unknown regressor name {other:?}"
            )))
        }
    };
    if !br.is_exhausted() {
        return Err(Error::InvalidParameter(format!(
            "snapshot: regressor {name:?} left {} trailing bytes",
            br.remaining()
        )));
    }
    Ok(model)
}

pub(crate) fn check_fit_inputs(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.nrows() == 0 {
        return Err(Error::EmptyInput("Regressor::fit"));
    }
    check_finite(x.as_slice(), "features")?;
    check_targets(x.nrows(), y)
}

/// The target half of [`check_fit_inputs`], for `rows` training rows.
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
        let regressors: Vec<Box<dyn Regressor>> = vec![
            Box::new(DecisionTreeRegressor::default()),
            Box::new(RandomForestRegressor::new(3, 0)),
            Box::new(Ridge::new(1e-3).unwrap()),
            Box::new(KnnRegressor::new(1).unwrap()),
        ];
        for mut regressor in regressors {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut bad_x = x.clone();
                bad_x.set(1, 1, bad);
                assert_eq!(
                    regressor.fit(&bad_x, &y).unwrap_err(),
                    Error::NonFiniteInput("features"),
                    "{}",
                    regressor.name()
                );
            }
            assert_eq!(
                regressor.fit(&x, &[0.0, f64::NAN, 2.0]).unwrap_err(),
                Error::NonFiniteInput("targets"),
                "{}",
                regressor.name()
            );
            regressor.fit(&x, &y).unwrap();
        }
    }
}

#![allow(clippy::needless_range_loop)] // indexed loops mirror the papers' pseudocode in numeric kernels
#![warn(missing_docs)]
//! Data-level projection module for the SUOD reproduction (paper §3.3).
//!
//! SUOD's first acceleration lever is dimensionality reduction: each base
//! detector trains in its own random low-dimensional subspace produced by
//! a Johnson–Lindenstrauss transform, which approximately preserves the
//! pairwise Euclidean distances proximity-based detectors depend on while
//! injecting per-model diversity. Table 1 of the paper compares the four
//! JL constructions against PCA and random feature selection; all seven
//! settings live here behind the [`Projector`] trait.
//!
//! # Example
//!
//! ```
//! use suod_linalg::Matrix;
//! use suod_projection::{JlProjector, JlVariant, Projector};
//!
//! # fn main() -> Result<(), suod_projection::Error> {
//! let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
//! let mut proj = JlProjector::new(JlVariant::Basic, 2, 42)?;
//! proj.fit(&x)?;
//! let z = proj.transform(&x)?;
//! assert_eq!(z.shape(), (2, 2));
//! # Ok(())
//! # }
//! ```

pub mod jl;
pub mod pca;
pub mod random_select;

pub use jl::{JlProjector, JlVariant};
pub use pca::PcaProjector;
pub use random_select::RandomSelectProjector;

use std::fmt;
use suod_linalg::{Matrix, SnapshotReader, SnapshotWriter};

/// Errors produced by projector fitting and application.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A parameter was outside its valid domain.
    InvalidParameter(String),
    /// `transform` called before `fit`.
    NotFitted(&'static str),
    /// Input width differs from the fitted dimensionality.
    DimensionMismatch {
        /// Expected number of columns.
        expected: usize,
        /// Actual number of columns.
        actual: usize,
    },
    /// Propagated linear-algebra failure.
    Linalg(suod_linalg::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::NotFitted(what) => write!(f, "{what} must be fitted before transform"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected} columns, got {actual}")
            }
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

/// A fitted dimensionality-reduction transform.
///
/// The projector is fitted on training data and **retained** so the same
/// transform applies to test data at prediction time (Algorithm 1 of the
/// paper keeps `W` per model).
pub trait Projector: Send + Sync {
    /// Learns the transform from training data (a no-op for data-independent
    /// JL projections beyond recording the input width).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the target dimension
    /// exceeds the input dimension, plus method-specific failures.
    fn fit(&mut self, x: &Matrix) -> Result<()>;

    /// Applies the learned transform.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and
    /// [`Error::DimensionMismatch`] on width mismatch.
    fn transform(&self, x: &Matrix) -> Result<Matrix>;

    /// Output dimensionality after `fit`.
    fn output_dim(&self) -> usize;

    /// Short method name (e.g. `"circulant"`).
    fn name(&self) -> &'static str;

    /// Appends the projector's full state (parameters + fitted transform)
    /// to a `suod-pool` snapshot body.
    ///
    /// Implementations write every field in a fixed order so that
    /// save → load → save is byte-identical; the matching reader is the
    /// type's `snapshot_read` associated function, dispatched by
    /// [`read_projector`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the projector does not
    /// support snapshots.
    fn snapshot_write(&self, w: &mut SnapshotWriter) -> Result<()> {
        let _ = w;
        Err(Error::InvalidParameter(format!(
            "{} does not support snapshots",
            self.name()
        )))
    }
}

/// Writes `proj` as a dispatchable snapshot record: name string followed
/// by a length-prefixed state body (mirror of the detectors-crate record).
///
/// # Errors
///
/// Propagates the projector's [`Projector::snapshot_write`] failure.
pub fn write_projector(proj: &dyn Projector, w: &mut SnapshotWriter) -> Result<()> {
    w.write_str(proj.name());
    let mut body = SnapshotWriter::new();
    proj.snapshot_write(&mut body)?;
    w.write_bytes(body.as_bytes());
    Ok(())
}

/// Reads a projector record written by [`write_projector`], dispatching
/// on the stored name (JL projectors are named by their variant).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for unknown names, truncated
/// state, or trailing bytes left by a mismatched reader.
pub fn read_projector(r: &mut SnapshotReader<'_>) -> Result<Box<dyn Projector>> {
    let name = r.read_str()?;
    let body = r.read_bytes()?;
    let mut br = SnapshotReader::new(body);
    let proj: Box<dyn Projector> = match name.as_str() {
        "original" => Box::new(IdentityProjector::snapshot_read(&mut br)?),
        "basic" | "discrete" | "circulant" | "toeplitz" => {
            Box::new(JlProjector::snapshot_read(&mut br)?)
        }
        "pca" => Box::new(PcaProjector::snapshot_read(&mut br)?),
        "rs" => Box::new(RandomSelectProjector::snapshot_read(&mut br)?),
        other => {
            return Err(Error::InvalidParameter(format!(
                "snapshot: unknown projector name {other:?}"
            )))
        }
    };
    if !br.is_exhausted() {
        return Err(Error::InvalidParameter(format!(
            "snapshot: projector {name:?} left {} trailing bytes",
            br.remaining()
        )));
    }
    Ok(proj)
}

/// Identity projector: the paper's `original` baseline (no projection).
#[derive(Debug, Clone, Default)]
pub struct IdentityProjector {
    dim: usize,
    fitted: bool,
}

impl IdentityProjector {
    /// Creates an identity projector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Projector for IdentityProjector {
    fn fit(&mut self, x: &Matrix) -> Result<()> {
        self.dim = x.ncols();
        self.fitted = true;
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if !self.fitted {
            return Err(Error::NotFitted("IdentityProjector"));
        }
        if x.ncols() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: x.ncols(),
            });
        }
        Ok(x.clone())
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &'static str {
        "original"
    }

    fn snapshot_write(&self, w: &mut SnapshotWriter) -> Result<()> {
        w.write_usize(self.dim);
        w.write_bool(self.fitted);
        Ok(())
    }
}

impl IdentityProjector {
    /// Reads a projector written by [`Projector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(r: &mut SnapshotReader<'_>) -> Result<Self> {
        Ok(Self {
            dim: r.read_usize()?,
            fitted: r.read_bool()?,
        })
    }
}

pub(crate) fn check_target_dim(k: usize, d: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::InvalidParameter(
            "target dimension must be >= 1".into(),
        ));
    }
    if k > d {
        return Err(Error::InvalidParameter(format!(
            "target dimension {k} exceeds input dimension {d}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut p = IdentityProjector::new();
        p.fit(&x).unwrap();
        assert_eq!(p.transform(&x).unwrap(), x);
        assert_eq!(p.output_dim(), 2);
        assert_eq!(p.name(), "original");
    }

    #[test]
    fn identity_checks_state_and_dims() {
        let p = IdentityProjector::new();
        assert!(p.transform(&Matrix::zeros(1, 2)).is_err());
        let mut p = IdentityProjector::new();
        p.fit(&Matrix::zeros(2, 3)).unwrap();
        assert!(p.transform(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn target_dim_validation() {
        assert!(check_target_dim(0, 5).is_err());
        assert!(check_target_dim(6, 5).is_err());
        assert!(check_target_dim(5, 5).is_ok());
    }

    fn record(proj: &dyn Projector) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_projector(proj, &mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn every_projector_round_trips_through_its_record() {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 7 + j * 3) % 11) as f64 - 4.0)
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut projectors: Vec<Box<dyn Projector>> = vec![
            Box::new(IdentityProjector::new()),
            Box::new(PcaProjector::new(2).unwrap()),
            Box::new(RandomSelectProjector::new(3, 4).unwrap()),
        ];
        for variant in [
            JlVariant::Basic,
            JlVariant::Discrete,
            JlVariant::Circulant,
            JlVariant::Toeplitz,
        ] {
            projectors.push(Box::new(JlProjector::new(variant, 3, 7).unwrap()));
        }
        for mut proj in projectors {
            proj.fit(&x).unwrap();
            let bytes = record(proj.as_ref());
            let mut r = SnapshotReader::new(&bytes);
            let loaded = read_projector(&mut r).unwrap();
            assert!(r.is_exhausted(), "{}", proj.name());
            assert_eq!(loaded.name(), proj.name());
            assert_eq!(loaded.output_dim(), proj.output_dim());
            assert_eq!(
                loaded.transform(&x).unwrap(),
                proj.transform(&x).unwrap(),
                "{}",
                proj.name()
            );
            assert_eq!(record(loaded.as_ref()), bytes, "{}", proj.name());
        }
    }

    fn read_error(bytes: &[u8]) -> String {
        match read_projector(&mut SnapshotReader::new(bytes)) {
            Err(Error::InvalidParameter(msg)) => msg,
            Err(other) => panic!("expected InvalidParameter, got {other:?}"),
            Ok(proj) => panic!("loaded a {} projector", proj.name()),
        }
    }

    #[test]
    fn unknown_projector_name_is_a_typed_error() {
        let mut w = SnapshotWriter::new();
        w.write_str("umap");
        w.write_bytes(&[]);
        assert_eq!(
            read_error(w.as_bytes()),
            "snapshot: unknown projector name \"umap\""
        );
    }

    #[test]
    fn trailing_bytes_in_a_projector_record_are_rejected() {
        let mut body = SnapshotWriter::new();
        body.write_usize(2);
        body.write_bool(true);
        body.write_u8(9);
        let mut w = SnapshotWriter::new();
        w.write_str("original");
        w.write_bytes(body.as_bytes());
        assert_eq!(
            read_error(w.as_bytes()),
            "snapshot: projector \"original\" left 1 trailing bytes"
        );
    }

    #[test]
    fn errors_keep_their_source() {
        use std::error::Error as _;
        let err = Error::DimensionMismatch {
            expected: 4,
            actual: 3,
        };
        assert_eq!(err.to_string(), "expected 4 columns, got 3");
        assert!(err.source().is_none());
        assert_eq!(
            Error::NotFitted("PcaProjector").to_string(),
            "PcaProjector must be fitted before transform"
        );
        let cause = suod_linalg::Error::NoConvergence("eigh");
        let err = Error::from(cause.clone());
        assert_eq!(err.to_string(), format!("linear algebra error: {cause}"));
        assert_eq!(err.source().unwrap().to_string(), cause.to_string());
    }
}

#![warn(missing_docs)]

//! # SUOD: Scalable Unsupervised Outlier Detection (Rust reproduction)
//!
//! A from-scratch Rust implementation of **SUOD — Accelerating Large-Scale
//! Unsupervised Heterogeneous Outlier Detection** (MLSys 2021): a
//! three-module acceleration system for training and predicting with large
//! pools of heterogeneous unsupervised outlier detectors.
//!
//! The three independent, composable modules (paper §3):
//!
//! 1. **Random Projection** (data level, §3.3) — each base detector trains
//!    in its own Johnson–Lindenstrauss subspace, cutting dimensionality
//!    while preserving pairwise distances and injecting ensemble
//!    diversity. Subspace-based families (Isolation Forest, HBOS) are
//!    exempted, as the paper advises.
//! 2. **Pseudo-Supervised Approximation** (model level, §3.4) — after
//!    fitting, each *costly* detector's decision boundary is distilled
//!    into a fast supervised regressor (random forest by default) trained
//!    on the detector's own training scores, which then serves
//!    predictions on new samples.
//! 3. **Balanced Parallel Scheduling** (execution level, §3.5) — a cost
//!    model forecasts per-detector cost and tasks are assigned to workers
//!    by balanced discounted-rank sums instead of naive contiguous
//!    chunking.
//!
//! # Quickstart
//!
//! The API mirrors the paper's scikit-learn-style demo (initialize with a
//! pool of base estimators and module flags, then `fit` /
//! `decision_function` / `predict`):
//!
//! ```
//! use suod::prelude::*;
//!
//! # fn main() -> Result<(), suod::Error> {
//! let ds = suod_datasets::registry::load_scaled("cardio", 42, 0.1).unwrap();
//!
//! let base_estimators = vec![
//!     ModelSpec::Lof { n_neighbors: 10, metric: Metric::Euclidean },
//!     ModelSpec::Knn { n_neighbors: 10, method: KnnMethod::Largest },
//!     ModelSpec::Hbos { n_bins: 10, tolerance: 0.3 },
//!     ModelSpec::IForest { n_estimators: 30, max_features: 1.0 },
//! ];
//! let mut clf = Suod::builder()
//!     .base_estimators(base_estimators)
//!     .with_projection(true)
//!     .with_approximation(true)
//!     .with_bps(true)
//!     .n_workers(2)
//!     .seed(7)
//!     .build()?;
//!
//! clf.fit(&ds.x)?;
//! let scores = clf.decision_function(&ds.x)?;   // n x m score matrix
//! let combined = clf.combined_scores(&ds.x)?;   // averaged ensemble score
//! let labels = clf.predict(&ds.x)?;             // thresholded 0/1 labels
//! assert_eq!(scores.nrows(), ds.n_samples());
//! assert_eq!(combined.len(), labels.len());
//! # Ok(())
//! # }
//! ```

pub mod diagnostics;
pub mod grid;
pub mod health;
pub mod lscp;
pub mod pseudo;
pub mod snapshot;
pub mod spec;
pub mod streaming;
pub mod suod;
pub mod xgbod;

pub use crate::snapshot::{OLDEST_SNAPSHOT_VERSION, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
pub use crate::suod::{Suod, SuodBuilder};
pub use diagnostics::{
    CpuFeatures, FitDiagnostics, ModelDiagnostics, PredictFailure, PredictReport,
};
pub use grid::{full_grid, random_pool};
pub use health::{ModelHealth, ModelReport, ModelStatus};
pub use lscp::{lscp_scores, LscpConfig, LscpVariant};
pub use pseudo::ApproxSpec;
pub use spec::ModelSpec;
pub use streaming::StreamingSuod;
pub use xgbod::Xgbod;

/// The observability layer, re-exported so downstream code can attach
/// observers and export traces without a separate dependency on
/// `suod-observe`.
pub use suod_observe as observe;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::diagnostics::{
        CpuFeatures, FitDiagnostics, ModelDiagnostics, PredictFailure, PredictReport,
    };
    pub use crate::health::{ModelHealth, ModelReport, ModelStatus};
    pub use crate::pseudo::ApproxSpec;
    pub use crate::spec::ModelSpec;
    pub use crate::suod::{Suod, SuodBuilder};
    pub use suod_detectors::ChaosMode;
    pub use suod_detectors::{Kernel, KnnMethod};
    pub use suod_linalg::DistanceMetric as Metric;
    pub use suod_linalg::Matrix;
    pub use suod_linalg::{DistanceBackend, HnswParams, KernelConfig, NeighborBackend, SimdLane};
    pub use suod_observe::{NoopObserver, Observer, RecordingObserver};
    pub use suod_projection::JlVariant;
}

use std::fmt;

/// Errors produced by the SUOD estimator.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Configuration was invalid (empty pool, bad fractions, ...).
    InvalidConfig(String),
    /// `decision_function`/`predict` called before `fit`.
    NotFitted,
    /// A base detector failed.
    Detector(suod_detectors::Error),
    /// A projector failed.
    Projection(suod_projection::Error),
    /// An approximation regressor failed.
    Approximation(suod_supervised::Error),
    /// The scheduler failed.
    Scheduler(suod_scheduler::Error),
    /// A matrix operation failed.
    Linalg(suod_linalg::Error),
    /// Score combination failed.
    Metrics(suod_metrics::Error),
    /// Too few models survived fit for the ensemble to be trusted: fewer
    /// than `ceil(min_healthy_fraction * pool size)` models escaped
    /// quarantine. The fitted state is discarded; the per-model health
    /// report remains available via `Suod::diagnostics`.
    PoolDegraded {
        /// Models that fitted successfully.
        healthy: usize,
        /// Configured pool size.
        total: usize,
        /// Minimum survivors required by `min_healthy_fraction`.
        required: usize,
        /// The first quarantined model's failure cause.
        cause: suod_detectors::Error,
    },
    /// A snapshot's stored integrity signature does not match the
    /// signature recomputed over its payload: the bytes were truncated
    /// or modified after `save`. Loading never panics on corrupt input.
    SnapshotCorrupt {
        /// Signature stored in the snapshot header.
        expected: String,
        /// Signature recomputed over the payload actually read.
        actual: String,
    },
    /// The bytes are not a `suod-pool` snapshot this build understands
    /// (wrong magic, or a format version newer than
    /// [`SNAPSHOT_VERSION`]).
    SnapshotFormat(String),
    /// Reading or writing the snapshot file failed at the OS level.
    SnapshotIo(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid SUOD configuration: {msg}"),
            Error::NotFitted => write!(f, "SUOD must be fitted before prediction"),
            Error::Detector(e) => write!(f, "detector error: {e}"),
            Error::Projection(e) => write!(f, "projection error: {e}"),
            Error::Approximation(e) => write!(f, "approximation error: {e}"),
            Error::Scheduler(e) => write!(f, "scheduler error: {e}"),
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::Metrics(e) => write!(f, "metrics error: {e}"),
            Error::PoolDegraded {
                healthy,
                total,
                required,
                cause,
            } => write!(
                f,
                "ensemble degraded below min_healthy_fraction: {healthy}/{total} models \
                 healthy, {required} required (first failure: {cause})"
            ),
            Error::SnapshotCorrupt { expected, actual } => write!(
                f,
                "snapshot integrity check failed: header signature {expected}, \
                 payload hashes to {actual}"
            ),
            Error::SnapshotFormat(msg) => write!(f, "unsupported snapshot format: {msg}"),
            Error::SnapshotIo(msg) => write!(f, "snapshot I/O error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Detector(e) => Some(e),
            Error::Projection(e) => Some(e),
            Error::Approximation(e) => Some(e),
            Error::Scheduler(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Metrics(e) => Some(e),
            Error::PoolDegraded { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<suod_detectors::Error> for Error {
    fn from(e: suod_detectors::Error) -> Self {
        Error::Detector(e)
    }
}
impl From<suod_projection::Error> for Error {
    fn from(e: suod_projection::Error) -> Self {
        Error::Projection(e)
    }
}
impl From<suod_supervised::Error> for Error {
    fn from(e: suod_supervised::Error) -> Self {
        Error::Approximation(e)
    }
}
impl From<suod_scheduler::Error> for Error {
    fn from(e: suod_scheduler::Error) -> Self {
        Error::Scheduler(e)
    }
}
impl From<suod_linalg::Error> for Error {
    fn from(e: suod_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}
impl From<suod_metrics::Error> for Error {
    fn from(e: suod_metrics::Error) -> Self {
        Error::Metrics(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#![allow(clippy::needless_range_loop)] // indexed loops mirror the papers' pseudocode in numeric kernels
#![warn(missing_docs)]
//! Unsupervised outlier-detector zoo for the SUOD reproduction.
//!
//! The paper's experiments draw heterogeneous model pools from eight
//! algorithm families (Table B.1): ABOD, CBLOF, Feature Bagging, HBOS,
//! Isolation Forest, kNN, LOF, and OCSVM, plus the average-kNN and LoOP
//! variants referenced in §4.2 and §1. Rust has no PyOD equivalent, so
//! this crate reimplements each detector from its original paper:
//!
//! | Module | Algorithm | Reference |
//! |---|---|---|
//! | [`knn`] | k-nearest-neighbour distance (largest/mean/median) | Ramaswamy et al. 2000 |
//! | [`lof`] | Local Outlier Factor | Breunig et al. 2000 |
//! | [`abod`] | (Fast) Angle-Based Outlier Detection | Kriegel et al. 2008 |
//! | [`hbos`] | Histogram-Based Outlier Score | Goldstein & Dengel 2012 |
//! | [`iforest`] | Isolation Forest | Liu et al. 2008 |
//! | [`cblof`] | Clustering-Based LOF (+ [`kmeans`] substrate) | He et al. 2003 |
//! | [`ocsvm`] | One-Class SVM via SMO | Schölkopf et al. 2001 |
//! | [`feature_bagging`] | Feature Bagging meta-ensemble | Lazarevic & Kumar 2005 |
//! | [`loop_detector`] | Local Outlier Probabilities | Kriegel et al. 2009 |
//!
//! # Conventions
//!
//! All detectors implement [`Detector`]: `fit` learns from an unlabeled
//! training matrix and returns the scores of the training rows themselves
//! — the "pseudo ground truth" that SUOD's model-approximation module
//! trains regressors on — and `decision_function` scores new rows with
//! **larger = more outlying** (the PyOD convention; detectors whose native
//! score is inverted, like ABOD, negate internally). A fitted detector
//! keeps what scoring needs and not the training scores: their one owner
//! is the caller (in a pool, the ensemble, which standardizes against
//! them, sets its threshold from them and distills from them).
//!
//! # Example
//!
//! ```
//! use suod_detectors::{Detector, KnnDetector, KnnMethod};
//! use suod_linalg::Matrix;
//!
//! # fn main() -> Result<(), suod_detectors::Error> {
//! let train = Matrix::from_rows(&[
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1], vec![9.0, 9.0],
//! ]).unwrap();
//! let mut det = KnnDetector::new(2, KnnMethod::Largest)?;
//! let scores = det.fit(&train)?;
//! // The far point is the most outlying.
//! assert!(scores[3] > scores[0]);
//! # Ok(())
//! # }
//! ```

pub mod abod;
pub mod cblof;
pub mod chaos;
pub mod cof;
pub mod feature_bagging;
pub mod hbos;
pub mod iforest;
pub mod kmeans;
pub mod knn;
pub mod loda;
pub mod lof;
pub mod loop_detector;
pub mod ocsvm;
pub mod pca_detector;

#[cfg(test)]
#[path = "../../supervised/src/tie_heavy.rs"]
mod tie_heavy;

pub use abod::AbodDetector;
pub use cblof::CblofDetector;
pub use chaos::{ChaosConfig, ChaosDetector, ChaosMode};
pub use cof::CofDetector;
pub use feature_bagging::FeatureBagging;
pub use hbos::HbosDetector;
pub use iforest::IsolationForest;
pub use kmeans::KMeans;
pub use knn::{KnnDetector, KnnMethod};
pub use loda::LodaDetector;
pub use lof::LofDetector;
pub use loop_detector::LoopDetector;
pub use ocsvm::{Kernel, OcsvmDetector};
pub use pca_detector::PcaDetector;

use std::fmt;
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{
    DataFingerprint, DistanceMetric, KernelConfig, KnnIndex, Matrix, NeighborCache, SelfNeighbors,
    SnapshotReader, SnapshotWriter,
};

/// Errors produced by detector training and scoring.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// `decision_function` called before `fit`.
    NotFitted(&'static str),
    /// A hyperparameter was outside its valid domain.
    InvalidParameter(String),
    /// Training data was empty or too small for the configuration.
    InsufficientData {
        /// What the detector needed.
        needed: String,
        /// How many samples were provided.
        got: usize,
    },
    /// Query dimensionality differs from the fitted dimensionality.
    DimensionMismatch {
        /// Dimensionality seen at fit time.
        expected: usize,
        /// Dimensionality of the query.
        actual: usize,
    },
    /// Propagated linear-algebra failure.
    Linalg(suod_linalg::Error),
    /// Input contained NaN or infinite values. The payload names the
    /// boundary that rejected the data (e.g. `"fit"`).
    NonFiniteInput(&'static str),
    /// The training data was numerically degenerate for this algorithm
    /// (singular covariance, zero variance, non-finite scores, ...).
    DegenerateData(String),
    /// An iterative solver failed to converge to a finite solution.
    NonConvergence(String),
    /// The model panicked during fit and was caught at a task fault
    /// boundary. The payload is the panic message.
    Panicked(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFitted(model) => write!(f, "{model} must be fitted before scoring"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::InsufficientData { needed, got } => {
                write!(
                    f,
                    "insufficient training data: needed {needed}, got {got} samples"
                )
            }
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected}-dimensional rows, got {actual}")
            }
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::NonFiniteInput(boundary) => {
                write!(f, "non-finite (NaN/inf) values in input at {boundary}")
            }
            Error::DegenerateData(msg) => write!(f, "numerically degenerate data: {msg}"),
            Error::NonConvergence(msg) => write!(f, "solver failed to converge: {msg}"),
            Error::Panicked(msg) => write!(f, "model panicked during fit: {msg}"),
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

/// Shared resources a pool orchestrator hands to `fit_with_context`.
///
/// Proximity detectors (kNN, LOF, LoOP, COF, ABOD) all start their fit
/// with the same expensive step: build a [`KnnIndex`] over the training
/// matrix, then run a leave-one-out neighbour sweep. A `FitContext`
/// carries the [`NeighborCache`] that step goes through, so detectors
/// sharing a training matrix and a cache share one index build and one
/// sweep (served as exact sorted-prefix views), plus the thread budget of
/// a build. The cache also carries the kernel tuning and the observer a
/// build reports to.
///
/// A standalone fit is a pool of one: the default context
/// (`FitContext::default()`, what a bare [`Detector::fit`] uses) is a
/// private single-threaded cache under the default [`KernelConfig`] and
/// the no-op observer.
#[derive(Debug, Clone)]
pub struct FitContext {
    cache: Arc<NeighborCache>,
    fingerprint: Option<DataFingerprint>,
    n_threads: usize,
}

impl Default for FitContext {
    fn default() -> Self {
        let cache = NeighborCache::with_config(KernelConfig::default(), suod_observe::noop());
        Self::new(Arc::new(cache), None, 1)
    }
}

impl FitContext {
    /// A context whose neighbour queries go through `cache`, with builds
    /// sized to `n_threads` threads (clamped to at least 1).
    ///
    /// `fingerprint` is the precomputed identity of the training matrix
    /// this context will be used with; passing `None` makes the detector
    /// compute it on first use (one extra `O(n d)` pass).
    pub fn new(
        cache: Arc<NeighborCache>,
        fingerprint: Option<DataFingerprint>,
        n_threads: usize,
    ) -> Self {
        Self {
            cache,
            fingerprint,
            n_threads,
        }
    }

    /// Thread budget for neighbour sweeps (at least 1).
    pub fn n_threads(&self) -> usize {
        self.n_threads.max(1)
    }

    /// Index + leave-one-out neighbour lists at `k` for the rows of `x`,
    /// served from (or built into) the cache's
    /// [`NeighborGraph`](suod_linalg::NeighborGraph) for `(x, metric)` —
    /// bit-identical neighbour slices for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates index-construction failures (empty training matrix).
    pub fn self_neighbors(
        &self,
        x: &Matrix,
        metric: DistanceMetric,
        k: usize,
    ) -> suod_linalg::Result<(Arc<KnnIndex>, SelfNeighbors)> {
        let fp = self.fingerprint.unwrap_or_else(|| DataFingerprint::of(x));
        let graph = self
            .cache
            .get_or_build_keyed(fp, x, metric, k, self.n_threads())?;
        Ok((Arc::clone(graph.index()), SelfNeighbors { graph, k }))
    }
}

/// An unsupervised outlier detector.
///
/// Implementations are [`Send`] so SUOD's scheduler can move them across
/// worker threads. Scores follow the PyOD convention: **larger = more
/// outlying**.
pub trait Detector: Send + Sync {
    /// Learns the detector from unlabeled training rows and returns their
    /// outlyingness scores, one per row of `x` — PyOD's `decision_scores_`,
    /// handed to the caller instead of kept as an attribute. For
    /// neighbourhood methods this is the leave-one-out score (a point is
    /// not its own neighbour).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientData`] when `x` is too small for the
    /// configuration, plus detector-specific parameter failures.
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>>;

    /// [`fit`](Self::fit) with pool-shared resources.
    ///
    /// Proximity detectors use `ctx` to draw their leave-one-out
    /// neighbour lists from its [`NeighborCache`], built with
    /// `ctx.n_threads()` threads; the default implementation ignores the
    /// context, so non-proximity detectors behave exactly as before.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`fit`](Self::fit).
    fn fit_with_context(&mut self, x: &Matrix, ctx: &FitContext) -> Result<Vec<f64>> {
        let _ = ctx;
        self.fit(x)
    }

    /// Outlyingness scores for each row of `x` (larger = more outlying).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit` and
    /// [`Error::DimensionMismatch`] when `x` has the wrong width.
    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// The neighbour query this detector's
    /// [`decision_function`](Self::decision_function) starts with: the
    /// index it asks and the `k` it asks for. `None` (the default) for
    /// detectors that do not score from one `k`-nearest-neighbour list per
    /// row, and before `fit`.
    ///
    /// The five proximity detectors are written as
    /// `decision_function(x) = score_from_neighbors(x, index.query_batch(x, k))`,
    /// so a pool whose members share an index can run the query once, at
    /// the largest `k`, and hand every member its prefix (see
    /// [`KnnIndex::prefix_exact`]).
    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        None
    }

    /// Scores the rows of `x` from their neighbour lists: `neighbors[i]`
    /// is what the [`neighbor_query`](Self::neighbor_query) index returns
    /// for row `i` at that `k`, ascending by (distance, index).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] from detectors without a
    /// [`neighbor_query`](Self::neighbor_query) (the default), or when
    /// `neighbors` does not hold one list per row; otherwise the same
    /// failures as [`decision_function`](Self::decision_function).
    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let _ = (x, neighbors);
        Err(Error::InvalidParameter(format!(
            "{} does not score from neighbour lists",
            self.name()
        )))
    }

    /// Short algorithm name for logs and reports (e.g. `"lof"`).
    fn name(&self) -> &'static str;

    /// `true` once `fit` has succeeded.
    fn is_fitted(&self) -> bool;

    /// Appends the detector's full state (parameters + fitted model) to a
    /// `suod-pool` snapshot body.
    ///
    /// Implementations write every field in a fixed order so that
    /// save → load → save is byte-identical; the matching reader is the
    /// type's `snapshot_read` associated function, dispatched by
    /// [`read_detector`]. The default implementation rejects the call so
    /// a newly added detector cannot silently persist nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when the detector does not
    /// support snapshots.
    fn snapshot_write(&self, w: &mut SnapshotWriter) -> Result<()> {
        let _ = w;
        Err(Error::InvalidParameter(format!(
            "{} does not support snapshots",
            self.name()
        )))
    }
}

/// Writes `det` as a dispatchable snapshot record: name string followed by
/// a length-prefixed state body.
///
/// The length prefix lets [`read_detector`] validate that a detector's
/// reader consumed exactly the bytes its writer produced, catching codec
/// drift as a typed error instead of silent misalignment.
///
/// # Errors
///
/// Propagates the detector's [`Detector::snapshot_write`] failure.
pub fn write_detector(det: &dyn Detector, w: &mut SnapshotWriter) -> Result<()> {
    w.write_str(det.name());
    let mut body = SnapshotWriter::new();
    det.snapshot_write(&mut body)?;
    w.write_bytes(body.as_bytes());
    Ok(())
}

/// Reads a detector record written by [`write_detector`], dispatching on
/// the stored name.
///
/// `n_threads` sizes the neighbour-index builds a load still makes (the
/// HNSW graphs of a `suod-pool/1` file); built indexes are bit-identical
/// for every thread count, so the value only affects load latency.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for unknown detector names,
/// truncated state, or trailing bytes left by a mismatched reader.
pub fn read_detector(r: &mut SnapshotReader<'_>, n_threads: usize) -> Result<Box<dyn Detector>> {
    let name = r.read_str()?;
    let body = r.read_bytes()?;
    // Nested, not new: index records of different detectors (and of a
    // chaos wrapper's inner detector) collapse into one shared `Arc`.
    let mut br = r.nested(body);
    let det: Box<dyn Detector> = match name.as_str() {
        "knn" | "aknn" => Box::new(KnnDetector::snapshot_read(&mut br, n_threads)?),
        "lof" => Box::new(LofDetector::snapshot_read(&mut br, n_threads)?),
        "abod" => Box::new(AbodDetector::snapshot_read(&mut br, n_threads)?),
        "cof" => Box::new(CofDetector::snapshot_read(&mut br, n_threads)?),
        "loop" => Box::new(LoopDetector::snapshot_read(&mut br, n_threads)?),
        "hbos" => Box::new(HbosDetector::snapshot_read(&mut br, n_threads)?),
        "iforest" => Box::new(IsolationForest::snapshot_read(&mut br, n_threads)?),
        "cblof" => Box::new(CblofDetector::snapshot_read(&mut br, n_threads)?),
        "ocsvm" => Box::new(OcsvmDetector::snapshot_read(&mut br, n_threads)?),
        "loda" => Box::new(LodaDetector::snapshot_read(&mut br, n_threads)?),
        "pca" => Box::new(PcaDetector::snapshot_read(&mut br, n_threads)?),
        "feature_bagging" => Box::new(FeatureBagging::snapshot_read(&mut br, n_threads)?),
        "chaos" => Box::new(ChaosDetector::snapshot_read(&mut br, n_threads)?),
        other => {
            return Err(Error::InvalidParameter(format!(
                "snapshot: unknown detector name {other:?}"
            )))
        }
    };
    if !br.is_exhausted() {
        return Err(Error::InvalidParameter(format!(
            "snapshot: detector {name:?} left {} trailing bytes",
            br.remaining()
        )));
    }
    Ok(det)
}

/// Reads past the training scores a `suod-pool/1` or `/2` detector record
/// ends its fitted state with. A `/3` record holds none: `fit` returns
/// them, and the pool stores them once, beside the model.
pub(crate) fn skip_training_scores(r: &mut SnapshotReader<'_>) -> Result<()> {
    if r.version() < 3 {
        r.read_f64s()?;
    }
    Ok(())
}

pub(crate) fn write_opt_index(index: Option<&KnnIndex>, w: &mut SnapshotWriter) {
    match index {
        Some(ix) => {
            w.write_bool(true);
            ix.snapshot_write(w);
        }
        None => w.write_bool(false),
    }
}

pub(crate) fn read_opt_index(
    r: &mut SnapshotReader<'_>,
    n_threads: usize,
) -> Result<Option<Arc<KnnIndex>>> {
    Ok(if r.read_bool()? {
        Some(KnnIndex::snapshot_read_shared(r, n_threads)?)
    } else {
        None
    })
}

/// Static strings that appear inside [`Error::NotFitted`],
/// [`Error::NonFiniteInput`], and the `&'static str` payloads of
/// [`suod_linalg::Error`]. Snapshot decoding restores these without
/// allocation; strings written by a newer build fall back to a one-time
/// leak (bounded by snapshot content, and loads are rare).
const KNOWN_STATIC_STRS: &[&str] = &[
    "AbodDetector",
    "CblofDetector",
    "CofDetector",
    "FeatureBagging",
    "HbosDetector",
    "IsolationForest",
    "KnnDetector",
    "LodaDetector",
    "LofDetector",
    "LoopDetector",
    "OcsvmDetector",
    "PcaDetector",
    "abod fit",
    "decision_function",
    "fit",
    "serve",
];

fn intern_static(s: String) -> &'static str {
    for &known in KNOWN_STATIC_STRS {
        if known == s {
            return known;
        }
    }
    Box::leak(s.into_boxed_str())
}

/// Writes an [`enum@Error`] value (e.g. a quarantine cause) to a snapshot.
///
/// The encoding is canonical: decoding with [`read_error`] and re-encoding
/// produces identical bytes, which the pool-level byte-identity contract
/// relies on.
pub fn write_error(err: &Error, w: &mut SnapshotWriter) {
    match err {
        Error::NotFitted(what) => {
            w.write_u8(0);
            w.write_str(what);
        }
        Error::InvalidParameter(msg) => {
            w.write_u8(1);
            w.write_str(msg);
        }
        Error::InsufficientData { needed, got } => {
            w.write_u8(2);
            w.write_str(needed);
            w.write_usize(*got);
        }
        Error::DimensionMismatch { expected, actual } => {
            w.write_u8(3);
            w.write_usize(*expected);
            w.write_usize(*actual);
        }
        Error::Linalg(inner) => {
            w.write_u8(4);
            write_linalg_error(inner, w);
        }
        Error::NonFiniteInput(boundary) => {
            w.write_u8(5);
            w.write_str(boundary);
        }
        Error::DegenerateData(msg) => {
            w.write_u8(6);
            w.write_str(msg);
        }
        Error::NonConvergence(msg) => {
            w.write_u8(7);
            w.write_str(msg);
        }
        Error::Panicked(msg) => {
            w.write_u8(8);
            w.write_str(msg);
        }
    }
}

/// Reads an [`enum@Error`] value written by [`write_error`].
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on unknown variant tags or
/// truncated payloads.
pub fn read_error(r: &mut SnapshotReader<'_>) -> Result<Error> {
    Ok(match r.read_u8()? {
        0 => Error::NotFitted(intern_static(r.read_str()?)),
        1 => Error::InvalidParameter(r.read_str()?),
        2 => Error::InsufficientData {
            needed: r.read_str()?,
            got: r.read_usize()?,
        },
        3 => Error::DimensionMismatch {
            expected: r.read_usize()?,
            actual: r.read_usize()?,
        },
        4 => Error::Linalg(read_linalg_error(r)?),
        5 => Error::NonFiniteInput(intern_static(r.read_str()?)),
        6 => Error::DegenerateData(r.read_str()?),
        7 => Error::NonConvergence(r.read_str()?),
        8 => Error::Panicked(r.read_str()?),
        other => {
            return Err(Error::InvalidParameter(format!(
                "snapshot: unknown error tag {other}"
            )))
        }
    })
}

fn write_linalg_error(err: &suod_linalg::Error, w: &mut SnapshotWriter) {
    match err {
        suod_linalg::Error::ShapeMismatch { op, lhs, rhs } => {
            w.write_u8(0);
            w.write_str(op);
            w.write_usize(lhs.0);
            w.write_usize(lhs.1);
            w.write_usize(rhs.0);
            w.write_usize(rhs.1);
        }
        suod_linalg::Error::BadDimensions { expected, actual } => {
            w.write_u8(1);
            w.write_usize(*expected);
            w.write_usize(*actual);
        }
        suod_linalg::Error::Empty(op) => {
            w.write_u8(2);
            w.write_str(op);
        }
        suod_linalg::Error::NoConvergence(what) => {
            w.write_u8(3);
            w.write_str(what);
        }
        suod_linalg::Error::InvalidParameter(msg) => {
            w.write_u8(4);
            w.write_str(msg);
        }
        // `suod_linalg::Error` is #[non_exhaustive]; a variant added later
        // must also extend this codec, so fail loudly in debug builds.
        #[allow(unreachable_patterns)]
        other => unreachable!("unhandled linalg error variant {other:?}"),
    }
}

fn read_linalg_error(r: &mut SnapshotReader<'_>) -> Result<suod_linalg::Error> {
    Ok(match r.read_u8()? {
        0 => suod_linalg::Error::ShapeMismatch {
            op: intern_static(r.read_str()?),
            lhs: (r.read_usize()?, r.read_usize()?),
            rhs: (r.read_usize()?, r.read_usize()?),
        },
        1 => suod_linalg::Error::BadDimensions {
            expected: r.read_usize()?,
            actual: r.read_usize()?,
        },
        2 => suod_linalg::Error::Empty(intern_static(r.read_str()?)),
        3 => suod_linalg::Error::NoConvergence(intern_static(r.read_str()?)),
        4 => suod_linalg::Error::InvalidParameter(r.read_str()?),
        other => {
            return Err(Error::InvalidParameter(format!(
                "snapshot: unknown linalg error tag {other}"
            )))
        }
    })
}

/// Converts scores to binary labels by thresholding at the
/// `(1 - contamination)` quantile: the top `contamination` fraction of
/// scores become outliers (label 1).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `contamination` is outside
/// `(0, 0.5]` or `scores` is empty.
pub fn labels_from_scores(scores: &[f64], contamination: f64) -> Result<Vec<i32>> {
    if scores.is_empty() {
        return Err(Error::InvalidParameter(
            "labels_from_scores received no scores".into(),
        ));
    }
    if !(contamination > 0.0 && contamination <= 0.5) {
        return Err(Error::InvalidParameter(format!(
            "contamination must be in (0, 0.5], got {contamination}"
        )));
    }
    let n_out = ((scores.len() as f64) * contamination).round() as usize;
    let n_out = n_out.clamp(1, scores.len());
    let threshold = suod_linalg::rank::kth_largest(scores, n_out)
        .expect("n_out is within bounds by construction");
    Ok(scores.iter().map(|&s| i32::from(s >= threshold)).collect())
}

/// Rejects matrices containing NaN or infinite entries.
///
/// Fragile algorithms (ABOD variance accumulation, OCSVM's SMO loop, PCA
/// eigendecomposition) turn a single NaN cell into a silently garbage
/// model; the orchestrator calls this at the `fit`/`decision_function`
/// boundaries so the failure surfaces as a typed error instead.
///
/// # Errors
///
/// Returns [`Error::NonFiniteInput`] carrying `boundary` when any entry
/// is NaN or infinite.
pub fn validate_finite(x: &Matrix, boundary: &'static str) -> Result<()> {
    if x.as_slice().iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(Error::NonFiniteInput(boundary))
    }
}

/// A fit's training scores, or [`Error::DegenerateData`] when one is not
/// finite: the fit's arithmetic overflowed (squared distances of rows near
/// `1e200` pass `f64::MAX`), so its scores rank nothing. The message is
/// the one a pool gives a model whose fit returned such scores.
pub(crate) fn finite_training_scores(scores: Vec<f64>) -> Result<Vec<f64>> {
    if scores.iter().all(|v| v.is_finite()) {
        Ok(scores)
    } else {
        Err(Error::DegenerateData(
            "model produced non-finite training scores".into(),
        ))
    }
}

/// 200 rows of three columns whose values reach `±1e200`, so squared
/// distances between them overflow.
#[cfg(test)]
pub(crate) fn overflowing_rows() -> Matrix {
    let cells = (0..200 * 3)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) * 2e198)
        .collect();
    Matrix::from_vec(200, 3, cells).expect("200 x 3")
}

/// The standalone form of a proximity detector's `decision_function`:
/// its own [`Detector::neighbor_query`], then
/// [`Detector::score_from_neighbors`] on the answer.
pub(crate) fn query_then_score(
    det: &dyn Detector,
    not_fitted: &'static str,
    x: &Matrix,
) -> Result<Vec<f64>> {
    let (index, k) = det.neighbor_query().ok_or(Error::NotFitted(not_fitted))?;
    check_dims(index.train_data().ncols(), x)?;
    // Batched neighbour lookup hits the tiled brute-force fast path on
    // blocked/gemm indexes; results equal per-row queries exactly.
    let batch = index.query_batch(x, k)?;
    let lists: Vec<&[Neighbor]> = batch.iter().map(Vec::as_slice).collect();
    det.score_from_neighbors(x, &lists)
}

/// Rows of the fitted width and one neighbour list per row, or a typed
/// error.
pub(crate) fn check_scoring_input(
    index: &KnnIndex,
    x: &Matrix,
    neighbors: &[&[Neighbor]],
) -> Result<()> {
    check_dims(index.train_data().ncols(), x)?;
    if neighbors.len() != x.nrows() {
        return Err(Error::InvalidParameter(format!(
            "{} neighbour lists for {} rows",
            neighbors.len(),
            x.nrows()
        )));
    }
    Ok(())
}

pub(crate) fn check_dims(expected: usize, x: &Matrix) -> Result<()> {
    if x.ncols() != expected {
        return Err(Error::DimensionMismatch {
            expected,
            actual: x.ncols(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_threshold_top_fraction() {
        let scores = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.45, 0.5];
        let labels = labels_from_scores(&scores, 0.2).unwrap();
        assert_eq!(labels.iter().sum::<i32>(), 2);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[3], 1);
    }

    #[test]
    fn labels_validate_inputs() {
        assert!(labels_from_scores(&[], 0.1).is_err());
        assert!(labels_from_scores(&[1.0], 0.0).is_err());
        assert!(labels_from_scores(&[1.0], 0.9).is_err());
    }

    #[test]
    fn labels_at_least_one_outlier() {
        let labels = labels_from_scores(&[1.0, 2.0, 3.0], 0.01).unwrap();
        assert_eq!(labels.iter().sum::<i32>(), 1);
        assert_eq!(labels[2], 1);
    }

    /// A pool of one reporting to `observer`.
    fn observed_context(observer: Arc<dyn suod_observe::Observer>) -> FitContext {
        let cache = NeighborCache::with_config(KernelConfig::default(), observer);
        FitContext::new(Arc::new(cache), None, 1)
    }

    #[test]
    fn standalone_fit_emits_cache_telemetry() {
        use suod_observe::{Counter, RecordingObserver, Stage};
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![0.2, 0.1],
            vec![9.0, 9.0],
        ])
        .unwrap();
        let rec = Arc::new(RecordingObserver::new());
        let ctx = observed_context(rec.clone());
        let mut det = KnnDetector::new(2, KnnMethod::Largest).unwrap();
        det.fit_with_context(&x, &ctx).unwrap();
        let trace = rec.trace();
        // A standalone proximity fit is a pool of one: its private build
        // is one miss, no hits, one build span.
        assert_eq!(trace.counter(Counter::CacheMiss), 1);
        assert_eq!(trace.counter(Counter::CacheHit), 0);
        assert_eq!(trace.spans_of(Stage::NeighborBuild).count(), 1);
    }

    #[test]
    fn prefix_of_a_wider_query_scores_like_the_detectors_own_query() {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64 * 0.3, (i / 6) as f64 * 0.3, (i % 4) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let q = Matrix::from_rows(&[
            vec![0.1, 0.2, 1.0],
            vec![5.0, 5.0, 5.0],
            vec![0.3, 0.3, 0.0],
        ])
        .unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(KnnDetector::new(4, KnnMethod::Median).unwrap()),
            Box::new(LofDetector::new(5).unwrap()),
            Box::new(LoopDetector::new(6).unwrap()),
            Box::new(CofDetector::new(3).unwrap()),
            Box::new(AbodDetector::new(5).unwrap()),
            Box::new(ChaosDetector::from_mode(
                Box::new(KnnDetector::new(40, KnnMethod::Mean).unwrap()),
                ChaosMode::Passthrough,
                0,
            )),
        ];
        for mut det in detectors {
            assert!(det.neighbor_query().is_none(), "{}: unfitted", det.name());
            det.fit(&x).unwrap();
            let (index, k) = det.neighbor_query().expect("proximity detector");
            assert!(
                k <= index.len(),
                "{}: k is clamped to the index",
                det.name()
            );
            let wide = index.query_batch(&q, k + 7).unwrap();
            let prefixes: Vec<&[Neighbor]> = wide.iter().map(|nn| &nn[..k.min(nn.len())]).collect();
            let pooled = det.score_from_neighbors(&q, &prefixes).unwrap();
            let own = det.decision_function(&q).unwrap();
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pooled), bits(&own), "{}", det.name());
            // One list per row, rows of the fitted width.
            assert!(det.score_from_neighbors(&q, &prefixes[..2]).is_err());
            assert!(det
                .score_from_neighbors(&Matrix::zeros(3, 2), &prefixes)
                .is_err());
        }
        // Everything else keeps the defaults: no query, no list scoring.
        let mut hbos = HbosDetector::new(5, 0.3).unwrap();
        hbos.fit(&x).unwrap();
        assert!(hbos.neighbor_query().is_none());
        assert!(hbos.score_from_neighbors(&q, &[]).is_err());
    }

    #[test]
    fn standalone_fit_scores_unchanged_by_observer() {
        use suod_observe::RecordingObserver;
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![0.2, 0.1],
            vec![9.0, 9.0],
        ])
        .unwrap();
        let mut plain = LofDetector::new(2).unwrap();
        let plain_scores = plain.fit(&x).unwrap();
        let mut observed = LofDetector::new(2).unwrap();
        let rec = Arc::new(RecordingObserver::new());
        let observed_scores = observed
            .fit_with_context(&x, &observed_context(rec))
            .unwrap();
        assert_eq!(plain_scores, observed_scores);
    }

    fn snapshot_message<T>(result: Result<T>) -> String {
        match result {
            Err(Error::InvalidParameter(msg)) => msg,
            Err(other) => panic!("expected a typed snapshot error, got {other:?}"),
            Ok(_) => panic!("expected a typed snapshot error, got a value"),
        }
    }

    #[test]
    fn unknown_detector_name_is_a_typed_error() {
        let mut w = SnapshotWriter::new();
        w.write_str("dbscan");
        w.write_bytes(&[]);
        let msg = snapshot_message(read_detector(&mut SnapshotReader::new(w.as_bytes()), 1));
        assert_eq!(msg, "snapshot: unknown detector name \"dbscan\"");
    }

    #[test]
    fn unknown_error_tags_are_typed_errors() {
        let msg = snapshot_message(read_error(&mut SnapshotReader::new(&[9])));
        assert_eq!(msg, "snapshot: unknown error tag 9");
        let msg = snapshot_message(read_error(&mut SnapshotReader::new(&[4, 5])));
        assert_eq!(msg, "snapshot: unknown linalg error tag 5");
        assert!(read_error(&mut SnapshotReader::new(&[])).is_err());
    }

    #[test]
    fn validate_finite_names_its_boundary() {
        let mut x = Matrix::zeros(3, 2);
        assert!(validate_finite(&x, "fit").is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            x.set(2, 1, bad);
            assert_eq!(
                validate_finite(&x, "decision_function").unwrap_err(),
                Error::NonFiniteInput("decision_function")
            );
        }
    }

    #[test]
    fn only_finite_training_scores_pass() {
        assert_eq!(
            finite_training_scores(vec![0.0, -1.5, 3.0]).unwrap(),
            vec![0.0, -1.5, 3.0]
        );
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                finite_training_scores(vec![1.0, bad]).unwrap_err(),
                Error::DegenerateData("model produced non-finite training scores".into())
            );
        }
    }
}

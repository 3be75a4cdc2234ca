#![warn(missing_docs)]

//! Execution-level scheduling for the SUOD reproduction (paper §3.5).
//!
//! Heterogeneous detector pools have wildly varying per-model costs: a
//! kNN on 50k samples costs orders of magnitude more than an HBOS. The
//! generic scheduler in joblib/scikit-learn splits a model list into `t`
//! contiguous chunks, so a chunk of kNNs becomes the straggler that gates
//! the whole fit. SUOD's Balanced Parallel Scheduling (BPS) forecasts
//! each model's cost, converts costs to **discounted ranks** (ranks
//! transfer across hardware; the discount `1 + alpha * rank / m` stops
//! high ranks from dominating the sum), and assigns models to workers so
//! the per-worker rank sums are nearly equal (Eq. 2 of the paper).
//!
//! # Modules
//!
//! * [`meta`] — dataset meta-features feeding the cost predictor.
//! * [`cost`] — cost models: a closed-form [`cost::AnalyticCostModel`] and
//!   a trainable [`cost::ForestCostPredictor`] (random forest over
//!   meta-features, validated by Spearman rank correlation as in §3.5).
//! * [`assignment`] — generic / shuffled / BPS schedulers.
//! * [`work_stealing`] — the one real executor: the calling thread as
//!   worker 0 plus persistent pooled threads, whose per-worker deques are
//!   seeded from the BPS placement; idle workers steal from the tail of
//!   the most-loaded peer. Its one run mode,
//!   [`WorkStealingExecutor::run`], catches each task's panic — and any
//!   panic of the observer calls made for that task — as that task's
//!   [`work_stealing::TaskFailure`] instead of aborting the batch, and
//!   emits an [`work_stealing::ExecutionReport`] (per-task wall time,
//!   per-worker busy time, steal count, failure/retry/straggler
//!   telemetry).
//! * [`simulate`] — a discrete-event executor computing exact worker
//!   makespans from per-model costs. Used to reproduce the paper's
//!   multi-worker timing tables on hosts with fewer physical cores (see
//!   DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use suod_scheduler::assignment::{bps_schedule, generic_schedule};
//! use suod_scheduler::simulate::simulate_makespan;
//!
//! // Four expensive models followed by four cheap ones.
//! let costs = [8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0];
//! let generic = generic_schedule(costs.len(), 2).unwrap();
//! let bps = bps_schedule(&costs, 2, 1.0).unwrap();
//! let g = simulate_makespan(&costs, &generic).unwrap();
//! let b = simulate_makespan(&costs, &bps).unwrap();
//! assert!(b.makespan < g.makespan);
//! ```

pub mod assignment;
pub mod cost;
pub mod meta;
pub mod simulate;
pub mod work_stealing;

pub use assignment::{bps_schedule, generic_schedule, shuffled_schedule, Assignment};
pub use cost::{
    predict_batch_forecast, predict_chunk_costs, shared_query_costs, AnalyticCostModel, CostModel,
    DistillForest, ForestCostPredictor, TaskDescriptor,
};
pub use meta::DatasetMeta;
pub use simulate::{simulate_makespan, SimulationResult};
pub use work_stealing::{current_worker, ExecutionReport, TaskFailure, WorkStealingExecutor};

use std::fmt;

/// The algorithm families the cost models know about.
///
/// Mirrors the paper's statement that the cost predictor "only covers the
/// major methods in PyOD. For unseen models, they are classified as
/// `unknown` to be assigned with the max cost to prevent over-optimistic
/// scheduling."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AlgorithmFamily {
    /// k-nearest-neighbour distance detectors (incl. average kNN).
    Knn,
    /// Local Outlier Factor.
    Lof,
    /// Angle-Based Outlier Detection (fast variant).
    Abod,
    /// Histogram-Based Outlier Score.
    Hbos,
    /// Isolation Forest.
    IForest,
    /// Clustering-Based LOF.
    Cblof,
    /// One-Class SVM.
    Ocsvm,
    /// Feature Bagging over LOF.
    FeatureBagging,
    /// Local Outlier Probabilities.
    Loop,
    /// PCA-based anomaly detection (minor-component reconstruction).
    Pca,
    /// LODA: sparse random projections + 1-D histograms.
    Loda,
    /// Anything the predictor was not trained on: gets the maximum cost.
    Unknown,
}

impl AlgorithmFamily {
    /// All known (non-`Unknown`) families.
    pub fn known() -> [AlgorithmFamily; 11] {
        [
            AlgorithmFamily::Knn,
            AlgorithmFamily::Lof,
            AlgorithmFamily::Abod,
            AlgorithmFamily::Hbos,
            AlgorithmFamily::IForest,
            AlgorithmFamily::Cblof,
            AlgorithmFamily::Ocsvm,
            AlgorithmFamily::FeatureBagging,
            AlgorithmFamily::Loop,
            AlgorithmFamily::Pca,
            AlgorithmFamily::Loda,
        ]
    }

    /// Stable index used for one-hot embeddings (Unknown maps to 11).
    pub fn index(&self) -> usize {
        match self {
            AlgorithmFamily::Knn => 0,
            AlgorithmFamily::Lof => 1,
            AlgorithmFamily::Abod => 2,
            AlgorithmFamily::Hbos => 3,
            AlgorithmFamily::IForest => 4,
            AlgorithmFamily::Cblof => 5,
            AlgorithmFamily::Ocsvm => 6,
            AlgorithmFamily::FeatureBagging => 7,
            AlgorithmFamily::Loop => 8,
            AlgorithmFamily::Pca => 9,
            AlgorithmFamily::Loda => 10,
            AlgorithmFamily::Unknown => 11,
        }
    }
}

impl fmt::Display for AlgorithmFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AlgorithmFamily::Knn => "knn",
            AlgorithmFamily::Lof => "lof",
            AlgorithmFamily::Abod => "abod",
            AlgorithmFamily::Hbos => "hbos",
            AlgorithmFamily::IForest => "iforest",
            AlgorithmFamily::Cblof => "cblof",
            AlgorithmFamily::Ocsvm => "ocsvm",
            AlgorithmFamily::FeatureBagging => "feature_bagging",
            AlgorithmFamily::Loop => "loop",
            AlgorithmFamily::Pca => "pca",
            AlgorithmFamily::Loda => "loda",
            AlgorithmFamily::Unknown => "unknown",
        };
        f.write_str(name)
    }
}

/// Errors produced by scheduling and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A parameter was outside its valid domain.
    InvalidParameter(String),
    /// The cost predictor was asked to predict before training.
    NotFitted(&'static str),
    /// An assignment referenced task indices that do not exist.
    BadAssignment(String),
    /// Propagated regression failure from the learned cost model.
    Supervised(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::NotFitted(what) => write!(f, "{what} must be trained before prediction"),
            Error::BadAssignment(msg) => write!(f, "bad assignment: {msg}"),
            Error::Supervised(msg) => write!(f, "cost regressor error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<suod_supervised::Error> for Error {
    fn from(e: suod_supervised::Error) -> Self {
        Error::Supervised(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

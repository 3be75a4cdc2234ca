#![warn(missing_docs)]

//! Fault-tolerant online scoring for fitted SUOD ensembles.
//!
//! The estimator crates answer the paper's batch questions — fit a
//! heterogeneous pool fast, predict a big matrix fast. This crate turns
//! a fitted [`Suod`](suod::Suod) into a long-running **scoring
//! service** that keeps answering under the faults a batch run never
//! meets: overload, stale requests, and models that start failing after
//! deployment.
//!
//! # Architecture
//!
//! ```text
//!  submit() ──> [bounded queue] ──> BatchAssemble ──> masked predict ──> Combine ──> tickets
//!              (Busy when full)    (deadline shed)   (fault-isolated      (survivor
//!                                                     model x chunk)       only)
//! ```
//!
//! * **Bounded admission** — [`ScoreService::submit`] enqueues into a
//!   fixed-capacity queue and rejects with [`SubmitError::Busy`] when
//!   full. Backpressure is explicit; memory never grows unboundedly.
//! * **Work-conserving micro-batching** — each
//!   [`ScoreService::process_once`] call takes the FIFO prefix of the
//!   queue into one matrix that rides the estimator's existing
//!   (model x row-chunk) parallel predict path, whose work-stealing
//!   executor balances the batch's tasks over the workers. The background
//!   dispatcher is *wait until the queue is non-empty → `process_once`*:
//!   idle, it serves a lone request at once; busy, everything that
//!   arrives while a batch executes coalesces into the next. No timer is
//!   involved ([`ServeConfig::batch_window`] is zero unless someone asks
//!   for an extra delay). Batch size is capped by rows
//!   ([`ServeConfig::max_batch_rows`]).
//! * **Deadline shedding** — requests carry a deadline budget; those
//!   already expired at assembly are dropped *before* any compute is
//!   spent ([`ScoreOutcome::Shed`]).
//! * **Predict-time quarantine** — per-model faults (panics, typed
//!   errors, non-finite columns, timeout breaches) feed
//!   consecutive-failure streaks; a model exceeding
//!   [`ServeConfig::predict_failure_budget`] is masked out of subsequent
//!   batches. Responses combine **survivors only**, subject to the
//!   `min_healthy_fraction` floor semantics the estimator enforces at
//!   fit time — taken per batch over the currently-active models, so
//!   quarantine lets the service recover instead of failing forever.
//!
//! # Determinism contract
//!
//! Scores are bit-identical to a sequential pass at any worker count:
//! the batch's (model x row-chunk) split is fixed, failed models
//! contribute NaN columns that survivor combination skips, and chaos
//! faults (see `suod_detectors::ChaosDetector`) are pure functions of
//! the model seed. `process_once` is the one unit of dispatch — the
//! background thread adds no decision of its own, only the moment it
//! calls it — so on a [`ManualClock`] batch composition and the shed set
//! are pure functions of the submitted trace too, which is exactly what
//! the chaos serve suite asserts across 1/2/8 workers.
//!
//! # Example
//!
//! ```
//! use suod::prelude::*;
//! use suod_serve::{ScoreService, ServeConfig, ScoreOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = suod_linalg::Matrix::from_rows(
//!     &(0..40).map(|i| vec![(i % 7) as f64, (i % 5) as f64]).collect::<Vec<_>>(),
//! )?;
//! let mut clf = Suod::builder()
//!     .base_estimators(vec![
//!         ModelSpec::Hbos { n_bins: 8, tolerance: 0.3 },
//!         ModelSpec::IForest { n_estimators: 10, max_features: 1.0 },
//!     ])
//!     .seed(7)
//!     .build()?;
//! clf.fit(&x)?;
//!
//! let service = ScoreService::new(clf, ServeConfig::default())?;
//! let ticket = service.submit(x.clone()).expect("queue has room");
//! service.process_once();
//! match ticket.wait() {
//!     ScoreOutcome::Scored(batch) => assert_eq!(batch.combined.len(), 40),
//!     other => panic!("expected scores, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

pub mod clock;
pub mod lanes;
pub mod net;
pub mod report;
pub mod service;
pub mod wire;

pub use clock::{Clock, ManualClock, SystemClock};
pub use lanes::{AdmissionLanes, LaneConfig, QuotaGuard};
pub use net::{serve_front, FrontConfig, FrontReport, WireClient};
pub use report::ServeReport;
pub use service::{
    ModelFault, ReloadReport, ScoreOutcome, ScoreService, ScoredBatch, ServeConfig, SubmitError,
    Ticket,
};
pub use wire::{BusyReason, Lane, WireError, WireRequest, WireResponse, WIRE_FORMAT};

use std::fmt;

/// Errors produced when building a scoring service.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A service knob was outside its valid domain.
    Config(String),
    /// The underlying estimator rejected the setup (typically: not
    /// fitted yet).
    Core(suod::Error),
    /// A hot reload was rejected (e.g. the replacement pool scores a
    /// different feature width than the one being served). The current
    /// pool keeps serving.
    Reload(String),
    /// The network front end's listener failed beyond what its retry
    /// budget tolerates (see `FrontConfig::max_accept_failures`).
    Front(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "invalid serve configuration: {msg}"),
            Error::Core(e) => write!(f, "estimator error: {e}"),
            Error::Reload(msg) => write!(f, "hot reload rejected: {msg}"),
            Error::Front(msg) => write!(f, "front end failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<suod::Error> for Error {
    fn from(e: suod::Error) -> Self {
        Error::Core(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn errors_name_the_layer_that_failed() {
        for (err, message) in [
            (
                Error::Config("queue 0".into()),
                "invalid serve configuration: queue 0",
            ),
            (
                Error::Reload("width 3".into()),
                "hot reload rejected: width 3",
            ),
            (Error::Front("accept".into()), "front end failed: accept"),
        ] {
            assert_eq!(err.to_string(), message);
            assert!(err.source().is_none());
        }
        let core = suod::Error::InvalidConfig("workers must be at least 1".into());
        let message = format!("estimator error: {core}");
        let err = Error::from(core);
        assert!(matches!(err, Error::Core(_)));
        assert_eq!(err.to_string(), message);
        assert!(err.source().is_some());
    }
}

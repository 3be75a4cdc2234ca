//! The SUOD estimator: builder, fit, and prediction paths.
//!
//! Mirrors Algorithm 1 of the paper as **one** fit pipeline (`fit.rs`);
//! `fit` runs it cold, `warm_refit` runs it with the unchanged models of
//! the previous fit carried over:
//!
//! 1. **RP** — per model, if projection is enabled and the family is
//!    projection-friendly, draw an independent JL matrix and project the
//!    training data (`psi_i`); otherwise use the original space.
//! 2. **BPS** — forecast per-model cost with the configured cost model
//!    (detector fit plus, for a costly model, its PSA distillation),
//!    schedule the fit tasks onto `t` workers (BPS or generic), and run
//!    them fault-isolated on the work-stealing executor.
//! 3. **PSA** — every costly model's task ends by training a supervised
//!    regressor on `(psi_i, training scores of M_i)`; the regressor
//!    serves that model's predictions from then on.
//!
//! `decision_function` (`predict.rs`) projects the query with each
//! model's retained `W`, routes costly models through their
//! approximators, and returns the `n x m` score matrix;
//! `combined_scores`/`predict` collapse it with the average combiner and
//! the contamination threshold learned at fit time.

mod builder;
mod fit;
mod predict;
mod state;

pub use builder::SuodBuilder;
pub(crate) use state::{FittedModel, FittedState, Scorer, WarmContext};

use crate::diagnostics::FitDiagnostics;
use crate::{Error, Result};
use std::sync::Arc;
use std::time::Duration;
use suod_scheduler::{bps_schedule, generic_schedule, Assignment, WorkStealingExecutor};

/// The SUOD estimator (see the [crate docs](crate) for the full story).
pub struct Suod {
    pub(crate) config: SuodBuilder,
    pub(crate) state: Option<Arc<FittedState>>,
    /// Persistent work-stealing pool created at fit time and reused by
    /// every subsequent predict call — threads are spawned once per
    /// estimator, not once per call.
    pub(crate) executor: Option<Arc<WorkStealingExecutor>>,
    /// Unified diagnostics from the most recent fit — execution
    /// telemetry, per-model health, and module decisions — including
    /// fits that failed with [`Error::PoolDegraded`].
    pub(crate) diagnostics: Option<FitDiagnostics>,
    /// Warm-start context (neighbour cache + data fingerprint) for
    /// [`Suod::warm_refit`].
    pub(crate) warm: Option<WarmContext>,
}

impl std::fmt::Debug for Suod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suod")
            .field("config", &self.config)
            .field("fitted", &self.state.is_some())
            .finish()
    }
}

impl Suod {
    /// Starts a builder.
    pub fn builder() -> SuodBuilder {
        SuodBuilder::default()
    }

    /// Number of base estimators in the pool.
    pub fn n_models(&self) -> usize {
        self.config.base_estimators.len()
    }

    /// `true` once [`fit`](Self::fit) has succeeded.
    pub fn is_fitted(&self) -> bool {
        self.state.is_some()
    }

    /// Derives a per-model seed from the master seed (splitmix64 step).
    fn model_seed(&self, i: usize) -> u64 {
        let mut z = self
            .config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn state(&self) -> Result<&Arc<FittedState>> {
        self.state.as_ref().ok_or(Error::NotFitted)
    }

    /// Returns the persistent pool, creating it on first use (or when the
    /// configured worker count changed since it was built).
    fn executor_for_run(&mut self) -> Result<Arc<WorkStealingExecutor>> {
        match &self.executor {
            Some(e) if e.n_workers() == self.config.n_workers => Ok(Arc::clone(e)),
            _ => {
                let e = Arc::new(WorkStealingExecutor::new(self.config.n_workers)?);
                self.executor = Some(Arc::clone(&e));
                Ok(e)
            }
        }
    }

    /// Places tasks with the given cost `forecast` onto the workers: BPS
    /// over the forecast, or generic contiguous chunks when BPS is off or
    /// there is one worker. Fit and prediction schedule alike (§3.5).
    fn schedule(&self, forecast: &[f64]) -> Result<Assignment> {
        let t = self.config.n_workers;
        if t > 1 && self.config.bps_enabled {
            Ok(bps_schedule(forecast, t, self.config.bps_alpha)?)
        } else {
            Ok(generic_schedule(forecast.len(), t)?)
        }
    }

    /// Fewest healthy models a pool of `total` may be left with: the
    /// `min_healthy_fraction` floor fit and prediction both enforce.
    fn required_healthy(&self, total: usize) -> usize {
        (((self.config.min_healthy_fraction * total as f64) - 1e-9).ceil() as usize).max(1)
    }

    /// Unified diagnostics from the most recent [`fit`](Self::fit):
    /// execution telemetry ([`FitDiagnostics::execution`]), per-model
    /// health ([`FitDiagnostics::health`]), and per-model rows joining
    /// fit time with the projection/approximation decisions
    /// ([`FitDiagnostics::models`]). Available even when `fit` failed
    /// with [`Error::PoolDegraded`]; `None` before the first fit reaches
    /// the execution stage.
    pub fn diagnostics(&self) -> Option<&FitDiagnostics> {
        self.diagnostics.as_ref()
    }
}

/// Positions whose measured time exceeds `factor` times their
/// forecast-implied share of the total (and is non-trivial in absolute
/// terms) — the straggler rule of fit tasks and predict models alike.
/// Wall-clock-dependent by nature, so deliberately excluded from
/// determinism guarantees.
fn stragglers(forecast: &[f64], measured: &[Duration], factor: f64) -> Vec<usize> {
    let total_pred: f64 = forecast.iter().sum();
    let total_measured: f64 = measured.iter().map(Duration::as_secs_f64).sum();
    if forecast.len() != measured.len() || total_pred <= 0.0 || total_measured <= 0.0 {
        return Vec::new();
    }
    (0..measured.len())
        .filter(|&i| {
            let expected = forecast[i] / total_pred * total_measured;
            let measured = measured[i].as_secs_f64();
            measured > factor * expected && measured > 0.05
        })
        .collect()
}

/// Fixtures shared by the submodules' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::spec::ModelSpec;
    use suod_detectors::KnnMethod;
    use suod_linalg::{DistanceMetric, Matrix};

    pub(crate) fn small_pool() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 5,
                metric: DistanceMetric::Euclidean,
            },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
            ModelSpec::IForest {
                n_estimators: 20,
                max_features: 0.8,
            },
        ]
    }

    pub(crate) fn data() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    (i % 10) as f64 * 0.2,
                    (i / 10) as f64 * 0.2,
                    ((i * 3) % 7) as f64 * 0.1,
                    ((i * 5) % 11) as f64 * 0.1,
                ]
            })
            .collect();
        rows.push(vec![8.0, 8.0, 8.0, 8.0]);
        rows.push(vec![-8.0, 9.0, -8.0, 9.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    pub(crate) fn fitted(builder: SuodBuilder) -> Suod {
        let mut clf = builder
            .base_estimators(small_pool())
            .seed(3)
            .build()
            .unwrap();
        clf.fit(&data()).unwrap();
        clf
    }
}

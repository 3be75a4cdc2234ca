//! [`SuodBuilder`]: the pool recipe and per-module flags.

use super::Suod;
use crate::pseudo::ApproxSpec;
use crate::spec::ModelSpec;
use crate::{Error, Result};
use std::sync::Arc;
use suod_linalg::{KernelConfig, NeighborCache};
use suod_observe::Observer;
use suod_projection::JlVariant;
use suod_scheduler::{AnalyticCostModel, CostModel};

/// Builder for [`Suod`]. Mirrors the paper's API demo: a pool of base
/// estimators plus per-module flags.
#[derive(Clone)]
pub struct SuodBuilder {
    pub(crate) base_estimators: Vec<ModelSpec>,
    pub(crate) rp_enabled: bool,
    pub(crate) rp_variant: JlVariant,
    pub(crate) rp_target_fraction: f64,
    pub(crate) rp_min_dim: usize,
    pub(crate) approx_enabled: bool,
    pub(crate) approx_spec: ApproxSpec,
    pub(crate) bps_enabled: bool,
    pub(crate) n_workers: usize,
    pub(crate) bps_alpha: f64,
    pub(crate) cost_model: Arc<dyn CostModel>,
    pub(crate) contamination: f64,
    pub(crate) seed: u64,
    pub(crate) kernel: KernelConfig,
    pub(crate) min_healthy_fraction: f64,
    pub(crate) max_model_retries: usize,
    pub(crate) straggler_factor: f64,
    pub(crate) observer: Arc<dyn Observer>,
}

impl Default for SuodBuilder {
    fn default() -> Self {
        Self {
            base_estimators: Vec::new(),
            rp_enabled: true,
            rp_variant: JlVariant::Circulant,
            rp_target_fraction: 2.0 / 3.0,
            rp_min_dim: 3,
            approx_enabled: true,
            approx_spec: ApproxSpec::default(),
            bps_enabled: true,
            n_workers: 1,
            bps_alpha: 1.0,
            cost_model: Arc::new(AnalyticCostModel::new()),
            contamination: 0.1,
            seed: 0,
            kernel: KernelConfig::default(),
            min_healthy_fraction: 1.0,
            max_model_retries: 1,
            straggler_factor: 4.0,
            observer: suod_observe::noop(),
        }
    }
}

impl SuodBuilder {
    /// An empty neighbour cache under this recipe's kernel config,
    /// reporting to its observer.
    pub(crate) fn fresh_cache(&self) -> Arc<NeighborCache> {
        Arc::new(NeighborCache::with_config(
            self.kernel,
            Arc::clone(&self.observer),
        ))
    }

    /// Sets the heterogeneous pool of base estimators.
    pub fn base_estimators(mut self, specs: Vec<ModelSpec>) -> Self {
        self.base_estimators = specs;
        self
    }

    /// Enables/disables the random-projection module (`rp_flag_global`).
    pub fn with_projection(mut self, enabled: bool) -> Self {
        self.rp_enabled = enabled;
        self
    }

    /// Chooses the JL construction (default: `circulant`, the paper's
    /// recommended variant alongside `toeplitz`).
    pub fn projection_variant(mut self, variant: JlVariant) -> Self {
        self.rp_variant = variant;
        self
    }

    /// Sets the target dimension as a fraction of the input dimension
    /// (default 2/3, as in the paper's Table 1 setup).
    pub fn projection_fraction(mut self, fraction: f64) -> Self {
        self.rp_target_fraction = fraction;
        self
    }

    /// Minimum input dimensionality for projection to engage (the JL
    /// bound is vacuous for tiny `d`; default 3).
    pub fn projection_min_dim(mut self, min_dim: usize) -> Self {
        self.rp_min_dim = min_dim;
        self
    }

    /// Enables/disables pseudo-supervised approximation
    /// (`approx_flag_global`).
    pub fn with_approximation(mut self, enabled: bool) -> Self {
        self.approx_enabled = enabled;
        self
    }

    /// Chooses the approximation regressor (default: random forest).
    pub fn approximator(mut self, spec: ApproxSpec) -> Self {
        self.approx_spec = spec;
        self
    }

    /// Enables/disables balanced parallel scheduling (`bps_flag`). When
    /// disabled, multi-worker runs use generic contiguous chunking.
    pub fn with_bps(mut self, enabled: bool) -> Self {
        self.bps_enabled = enabled;
        self
    }

    /// Number of workers `t` (default 1 = sequential).
    pub fn n_workers(mut self, t: usize) -> Self {
        self.n_workers = t;
        self
    }

    /// Rank-discount strength `alpha` for BPS (default 1).
    pub fn bps_alpha(mut self, alpha: f64) -> Self {
        self.bps_alpha = alpha;
        self
    }

    /// Replaces the cost model used by BPS (default: analytic).
    pub fn cost_model(mut self, model: Arc<dyn CostModel>) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets the whole numeric-kernel configuration at once: distance
    /// backend, neighbour backend (including HNSW parameters such as
    /// `ef_search`), and the KD-tree crossover threshold. This is
    /// the single entry point for every kernel knob — build the
    /// [`KernelConfig`] with its own with-style setters:
    ///
    /// ```
    /// use suod::prelude::*;
    ///
    /// let clf = Suod::builder()
    ///     .base_estimators(vec![ModelSpec::Hbos { n_bins: 8, tolerance: 0.3 }])
    ///     .kernel(
    ///         KernelConfig::default()
    ///             .with_backend(DistanceBackend::Gemm)
    ///             .with_neighbor(NeighborBackend::Hnsw(
    ///                 HnswParams::default().with_ef_search(64),
    ///             )),
    ///     )
    ///     .build()
    ///     .unwrap();
    /// # let _ = clf;
    /// ```
    pub fn kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Minimum fraction of the pool that must fit successfully — after
    /// retries — for [`Suod::fit`] to succeed (default 1.0: any permanent
    /// model failure fails the fit, the strictest behaviour). Lowering it
    /// lets the ensemble degrade gracefully: failed models are
    /// quarantined and the survivors carry combination and prediction.
    pub fn min_healthy_fraction(mut self, fraction: f64) -> Self {
        self.min_healthy_fraction = fraction;
        self
    }

    /// Extra fit attempts granted to a failed model before it is
    /// quarantined (default 1). Each retry re-salts the model's seed, so
    /// transient seed-dependent failures can recover; the outcome is
    /// deterministic for a given master seed regardless of worker count.
    pub fn max_model_retries(mut self, retries: usize) -> Self {
        self.max_model_retries = retries;
        self
    }

    /// Multiple of the forecast-implied expected fit time beyond which a
    /// model is flagged as a straggler in the health report (default 4).
    /// Stragglers are never quarantined — slow is not wrong — the flag
    /// feeds the cost-model validation loop.
    pub fn straggler_factor(mut self, factor: f64) -> Self {
        self.straggler_factor = factor;
        self
    }

    /// Attaches an [`Observer`] that receives spans and counters from
    /// every pipeline stage — projection, neighbour-graph builds,
    /// per-model fits and retries, BPS planning, executor task lifecycle,
    /// PSA distillation, thresholding, and prediction chunks (default:
    /// no-op). Pass an `Arc<suod_observe::RecordingObserver>` (coerced to
    /// `Arc<dyn Observer>`) to capture a deterministic trace exportable
    /// to JSON or Chrome `trace_event` format. Observation never changes
    /// computed values: scores are bit-identical with any observer.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Expected outlier fraction used by [`Suod::predict`]'s threshold
    /// (default 0.1).
    pub fn contamination(mut self, c: f64) -> Self {
        self.contamination = c;
        self
    }

    /// Master RNG seed; per-model seeds are derived from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration and produces an unfitted [`Suod`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty pool, a projection
    /// fraction outside `(0, 1]`, `n_workers == 0`, a negative BPS alpha,
    /// or contamination outside `(0, 0.5]`.
    pub fn build(self) -> Result<Suod> {
        if self.base_estimators.is_empty() {
            return Err(Error::InvalidConfig(
                "base_estimators must not be empty".into(),
            ));
        }
        if !(self.rp_target_fraction > 0.0 && self.rp_target_fraction <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "projection fraction must be in (0, 1], got {}",
                self.rp_target_fraction
            )));
        }
        if self.n_workers == 0 {
            return Err(Error::InvalidConfig("n_workers must be >= 1".into()));
        }
        if self.bps_alpha.is_nan() || self.bps_alpha < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "bps_alpha must be >= 0, got {}",
                self.bps_alpha
            )));
        }
        if !(self.contamination > 0.0 && self.contamination <= 0.5) {
            return Err(Error::InvalidConfig(format!(
                "contamination must be in (0, 0.5], got {}",
                self.contamination
            )));
        }
        if !(self.min_healthy_fraction > 0.0 && self.min_healthy_fraction <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "min_healthy_fraction must be in (0, 1], got {}",
                self.min_healthy_fraction
            )));
        }
        if !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "straggler_factor must be finite and >= 1, got {}",
                self.straggler_factor
            )));
        }
        Ok(Suod {
            config: self,
            state: None,
            executor: None,
            diagnostics: None,
            warm: None,
        })
    }
}

impl std::fmt::Debug for SuodBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuodBuilder")
            .field("n_models", &self.base_estimators.len())
            .field("rp_enabled", &self.rp_enabled)
            .field("approx_enabled", &self.approx_enabled)
            .field("bps_enabled", &self.bps_enabled)
            .field("n_workers", &self.n_workers)
            .field("contamination", &self.contamination)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suod::testing::small_pool;

    #[test]
    fn builder_validation() {
        assert!(Suod::builder().build().is_err()); // empty pool
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .projection_fraction(0.0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .n_workers(0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .contamination(0.9)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .bps_alpha(-1.0)
            .build()
            .is_err());
    }

    #[test]
    fn fault_tolerance_builder_validation() {
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .min_healthy_fraction(0.0)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .min_healthy_fraction(1.5)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .straggler_factor(0.5)
            .build()
            .is_err());
        assert!(Suod::builder()
            .base_estimators(small_pool())
            .straggler_factor(f64::NAN)
            .build()
            .is_err());
    }
}

//! Unified diagnostics for fits and predictions.
//!
//! Telemetry used to be scattered across six ad-hoc `Suod` accessors
//! (`fit_report`, `model_health`, `fit_times`, `approximated`,
//! `projected`, `decision_function_timed`). [`FitDiagnostics`] collapses
//! them into one view derived from a single fit's event stream: the
//! executor's [`ExecutionReport`], the pool's [`ModelHealth`], and one
//! [`ModelDiagnostics`] row per configured model, plus the
//! [`CpuFeatures`] record of which hardware kernel path produced the
//! fit. [`PredictReport`] is the prediction-side counterpart returned by
//! `Suod::decision_function_observed`.
//!
//! (The old accessors briefly survived as `#[deprecated]` delegates;
//! they are gone now — every caller reads this type directly.)

use crate::health::{ModelHealth, ModelStatus};
use std::time::Duration;
use suod_linalg::{NeighborBackend, SimdLane};
use suod_scheduler::ExecutionReport;

/// The hardware kernel path a fit's distance kernels ran on — recorded
/// so bench JSON and traces say what produced their numbers.
///
/// The lane is host-dependent (runtime CPU detection, overridable via
/// `SUOD_SIMD_LANE` or [`suod_linalg::set_simd_lane_override`]). The lane
/// never changes any score bit, so this record is purely provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// Micro-kernel lane the kernels selected at fit time.
    pub simd_lane: SimdLane,
    /// Whether the host CPU supports the AVX2+FMA lane at all.
    pub avx2_supported: bool,
    /// Neighbour index backend the proximity detectors were configured
    /// with (exact, or the approximate HNSW graph with its recall knob).
    pub neighbor: NeighborBackend,
}

impl CpuFeatures {
    /// Captures the current host's lane selection alongside the
    /// configured neighbour backend.
    pub fn detect(neighbor: NeighborBackend) -> Self {
        Self {
            simd_lane: SimdLane::detect(),
            avx2_supported: SimdLane::supported() == SimdLane::Avx2,
            neighbor,
        }
    }
}

impl std::fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lane={} (avx2 {}), neighbors={}",
            self.simd_lane,
            if self.avx2_supported {
                "supported"
            } else {
                "unsupported"
            },
            self.neighbor,
        )
    }
}

/// Everything one `Suod::fit` learned about itself.
///
/// Produced by every fit that reaches the execution stage — including
/// fits that ultimately fail with
/// [`Error::PoolDegraded`](crate::Error::PoolDegraded) — and retrievable
/// via `Suod::diagnostics`. The three sections are views over one event
/// stream: [`execution`](Self::execution) aggregates executor telemetry,
/// [`health`](Self::health) aggregates per-model fault handling, and
/// [`models`](Self::models) joins both with the module decisions
/// (projection, approximation) per pool member.
#[derive(Debug, Clone)]
pub struct FitDiagnostics {
    execution: ExecutionReport,
    health: ModelHealth,
    models: Vec<ModelDiagnostics>,
    cpu_features: CpuFeatures,
    ann_fallbacks: u64,
}

/// Diagnostics for one configured pool member, joined across the
/// execution report, the health report, and the module decisions.
#[derive(Debug, Clone)]
pub struct ModelDiagnostics {
    /// Index in the configured pool (stable across quarantines).
    pub index: usize,
    /// Short algorithm name (e.g. `"lof"`).
    pub name: &'static str,
    /// Whether the model survived the fit.
    pub status: ModelStatus,
    /// Total fit attempts consumed (1 = succeeded first try).
    pub attempts: usize,
    /// Whether the model ran far past its BPS forecast
    /// (wall-clock-dependent; excluded from determinism guarantees).
    pub straggler: bool,
    /// Measured fit duration of the successful attempt; `None` for
    /// quarantined models.
    pub fit_time: Option<Duration>,
    /// Whether the model was fitted in a JL-projected subspace.
    pub projected: bool,
    /// Whether the model's predictions are served by a PSA approximator.
    pub approximated: bool,
}

impl FitDiagnostics {
    /// Assembles the view (one `ModelDiagnostics` per configured model,
    /// in pool-index order).
    pub(crate) fn new(
        execution: ExecutionReport,
        health: ModelHealth,
        models: Vec<ModelDiagnostics>,
        cpu_features: CpuFeatures,
        ann_fallbacks: u64,
    ) -> Self {
        Self {
            execution,
            health,
            models,
            cpu_features,
            ann_fallbacks,
        }
    }

    /// The hardware kernel path (SIMD lane, neighbour backend) the fit
    /// ran on.
    pub fn cpu_features(&self) -> CpuFeatures {
        self.cpu_features
    }

    /// Neighbour-graph builds that requested the approximate HNSW
    /// backend but routed to the exact path instead (input below the
    /// backend's `min_rows`, or a non-Euclidean metric) — the exactness
    /// fallback counter, summed over the fit's shared-cache builds.
    /// Always 0 on the exact backend.
    pub fn ann_fallbacks(&self) -> u64 {
        self.ann_fallbacks
    }

    /// Execution telemetry from the fit: per-task wall times, per-worker
    /// busy times, steals, cache hit/miss/build-time counters, failures
    /// and retries. The per-task times are the *measured* cost vector to
    /// correlate against the scheduler's forecasts (e.g. with
    /// `suod_metrics::spearman`).
    pub fn execution(&self) -> &ExecutionReport {
        &self.execution
    }

    /// Per-model health: which models survived, which were quarantined
    /// and why, attempts consumed, straggler flags.
    pub fn health(&self) -> &ModelHealth {
        &self.health
    }

    /// Per-model diagnostics rows, indexed like the configured pool.
    pub fn models(&self) -> &[ModelDiagnostics] {
        &self.models
    }

    /// Mutable rows, for the orchestrator to back-fill decisions made
    /// after the diagnostics were first recorded (PSA approximation).
    pub(crate) fn models_mut(&mut self) -> &mut [ModelDiagnostics] {
        &mut self.models
    }

    /// The diagnostics row of pool member `i`, if it exists.
    pub fn model(&self, i: usize) -> Option<&ModelDiagnostics> {
        self.models.get(i)
    }

    /// Measured fit durations of the **surviving** models, in pool-index
    /// order — the true cost vector used by the scheduling benchmarks.
    pub fn fit_times(&self) -> Vec<Duration> {
        self.models.iter().filter_map(|m| m.fit_time).collect()
    }

    /// Which surviving models were fitted in a projected subspace, in
    /// pool-index order.
    pub fn projected(&self) -> Vec<bool> {
        self.survivors().map(|m| m.projected).collect()
    }

    /// Which surviving models ended up with a PSA approximator, in
    /// pool-index order.
    pub fn approximated(&self) -> Vec<bool> {
        self.survivors().map(|m| m.approximated).collect()
    }

    fn survivors(&self) -> impl Iterator<Item = &ModelDiagnostics> {
        self.models
            .iter()
            .filter(|m| m.status == ModelStatus::Healthy)
    }
}

impl std::fmt::Display for FitDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fit: {} models, {} healthy, wall {:.3}s, utilization {:.2}, {} steals, \
             cache {}h/{}m, {} failures, {} retries",
            self.models.len(),
            self.health.healthy(),
            self.execution.wall_time.as_secs_f64(),
            self.execution.utilization(),
            self.execution.steals,
            self.execution.cache_hits,
            self.execution.cache_misses,
            self.execution.failures,
            self.execution.retries,
        )?;
        if self.ann_fallbacks > 0 {
            writeln!(
                f,
                "kernels: {} ({} ann fallbacks to exact)",
                self.cpu_features, self.ann_fallbacks
            )?;
        } else {
            writeln!(f, "kernels: {}", self.cpu_features)?;
        }
        for m in &self.models {
            write!(
                f,
                "  [{}] {} {} (attempts {}{}{}{})",
                m.index,
                m.name,
                m.status,
                m.attempts,
                if m.projected { ", projected" } else { "" },
                if m.approximated { ", approximated" } else { "" },
                if m.straggler { ", straggler" } else { "" },
            )?;
            match m.fit_time {
                Some(t) => writeln!(f, " {:.4}s", t.as_secs_f64())?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
}

/// One model's predict-time failure, recorded instead of failing the
/// whole scoring call: the model's column in the score matrix is NaN
/// (the quarantined-column convention the combiners skip) and the cause
/// lands here. The prediction-side analog of
/// [`ModelReport`](crate::ModelReport).
#[derive(Debug, Clone)]
pub struct PredictFailure {
    /// Original configured-pool index of the failed model (stable across
    /// fit-time quarantines, matching [`ModelReport`](crate::ModelReport)
    /// indices).
    pub index: usize,
    /// Short algorithm name (e.g. `"chaos"`).
    pub name: &'static str,
    /// Why scoring failed: a caught panic
    /// ([`Panicked`](suod_detectors::Error::Panicked)), a typed detector
    /// error, or non-finite query scores
    /// ([`DegenerateData`](suod_detectors::Error::DegenerateData)).
    pub cause: suod_detectors::Error,
}

/// Telemetry from one fault-isolated prediction pass
/// (`Suod::decision_function_observed` / `decision_function_masked`).
#[derive(Debug, Clone)]
pub struct PredictReport {
    /// Measured scoring duration of each surviving model, indexed by
    /// surviving-ensemble position (the order of
    /// [`surviving_models`](crate::Suod::surviving_models), the same
    /// index space as `skipped` — NOT configured-pool indices;
    /// approximated models answer through their regressors): over the
    /// row chunks, the model's own scoring time plus an equal share of
    /// what its prediction unit spent on the stage its members share
    /// (row slab, projection, the one neighbour query). The times of a
    /// unit's members therefore sum to the unit's executor task times,
    /// and a model scoring alone gets its whole task time. Zero for
    /// models the caller masked out.
    pub model_times: Vec<Duration>,
    /// End-to-end wall time of the prediction pass.
    pub wall_time: Duration,
    /// Number of query rows scored.
    pub n_rows: usize,
    /// Executor telemetry for the predict-phase task batch: per-task wall
    /// times (one task per prediction unit and row chunk, unit-major),
    /// steals, and the fault-isolation `failures` counter — panics caught
    /// at a task's boundary or at a unit member's own. Prediction forecasts
    /// no costs, so `stragglers` is always empty here.
    pub execution: ExecutionReport,
    /// Models whose scoring failed this call (panic, typed error, or
    /// non-finite scores). Their columns in the returned matrix are NaN.
    pub failures: Vec<PredictFailure>,
    /// Positions (in the surviving ensemble) the caller masked out —
    /// e.g. models quarantined at serve time. Their columns are NaN and
    /// no work was scheduled for them.
    pub skipped: Vec<usize>,
}

impl PredictReport {
    /// Number of models that produced usable (finite) score columns.
    pub fn healthy_models(&self) -> usize {
        self.model_times
            .len()
            .saturating_sub(self.failures.len() + self.skipped.len())
    }

    /// `true` when every scheduled model scored successfully.
    pub fn fully_healthy(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for PredictReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "predict: {} rows, {} models ({} healthy, {} failed, {} skipped), wall {:.4}s, \
             {} task failures, {} steals",
            self.n_rows,
            self.model_times.len(),
            self.healthy_models(),
            self.failures.len(),
            self.skipped.len(),
            self.wall_time.as_secs_f64(),
            self.execution.failures,
            self.execution.steals,
        )?;
        for fail in &self.failures {
            writeln!(f, "  [{}] {} failed: {}", fail.index, fail.name, fail.cause)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::ModelReport;

    fn sample() -> FitDiagnostics {
        let health = ModelHealth::new(vec![
            ModelReport {
                index: 0,
                name: "knn",
                status: ModelStatus::Healthy,
                cause: None,
                attempts: 1,
                straggler: false,
            },
            ModelReport {
                index: 1,
                name: "chaos",
                status: ModelStatus::Quarantined,
                cause: Some(suod_detectors::Error::Panicked("boom".into())),
                attempts: 2,
                straggler: false,
            },
            ModelReport {
                index: 2,
                name: "hbos",
                status: ModelStatus::Healthy,
                cause: None,
                attempts: 1,
                straggler: true,
            },
        ]);
        let models = vec![
            ModelDiagnostics {
                index: 0,
                name: "knn",
                status: ModelStatus::Healthy,
                attempts: 1,
                straggler: false,
                fit_time: Some(Duration::from_millis(10)),
                projected: true,
                approximated: true,
            },
            ModelDiagnostics {
                index: 1,
                name: "chaos",
                status: ModelStatus::Quarantined,
                attempts: 2,
                straggler: false,
                fit_time: None,
                projected: false,
                approximated: false,
            },
            ModelDiagnostics {
                index: 2,
                name: "hbos",
                status: ModelStatus::Healthy,
                attempts: 1,
                straggler: true,
                fit_time: Some(Duration::from_millis(3)),
                projected: false,
                approximated: false,
            },
        ];
        FitDiagnostics::new(
            ExecutionReport::default(),
            health,
            models,
            CpuFeatures::detect(NeighborBackend::Exact),
            0,
        )
    }

    #[test]
    fn survivor_views_skip_quarantined_models() {
        let d = sample();
        assert_eq!(
            d.fit_times(),
            vec![Duration::from_millis(10), Duration::from_millis(3)]
        );
        assert_eq!(d.projected(), vec![true, false]);
        assert_eq!(d.approximated(), vec![true, false]);
        assert_eq!(d.health().healthy(), 2);
        assert_eq!(d.models().len(), 3);
        assert_eq!(d.model(1).unwrap().attempts, 2);
        assert!(d.model(3).is_none());
    }

    #[test]
    fn cpu_features_display_names_lane_support_and_neighbors() {
        let scalar = CpuFeatures {
            simd_lane: SimdLane::Scalar,
            avx2_supported: false,
            neighbor: NeighborBackend::Exact,
        };
        assert_eq!(
            scalar.to_string(),
            "lane=scalar (avx2 unsupported), neighbors=exact"
        );
        let avx2 = CpuFeatures {
            simd_lane: SimdLane::Avx2,
            avx2_supported: true,
            neighbor: NeighborBackend::Hnsw(suod_linalg::HnswParams::default().with_ef_search(77)),
        };
        assert_eq!(
            avx2.to_string(),
            "lane=avx2 (avx2 supported), neighbors=hnsw(ef_search=77)"
        );
    }

    #[test]
    fn display_summarizes_pool() {
        let text = sample().to_string();
        assert!(text.contains("3 models, 2 healthy"));
        assert!(text.contains("kernels: lane="));
        assert!(text.contains("neighbors=exact"));
        assert!(text.contains("quarantined"));
        assert!(text.contains("projected"));
        assert!(text.contains("straggler"));
    }
}

//! Deterministic fault injection for chaos testing detector pools.
//!
//! Production zoos treat detector failure as routine: a model may panic,
//! emit NaN scores, or silently take 50x its forecast cost. Exercising
//! the orchestrator's quarantine / retry / straggler paths in tests
//! requires failures that are **injected on purpose and reproducible**
//! bit-for-bit — a flaky test of the fault-tolerance layer would defeat
//! its own point.
//!
//! [`ChaosDetector`] wraps any inner [`Detector`] and injects failures
//! according to a [`ChaosConfig`] of per-channel rates. Every injection
//! decision is a pure function of `(seed, channel)` via splitmix64 — no
//! global state, no clocks — so the same seed always produces the same
//! failure pattern regardless of thread count or execution order.
//!
//! The high-level [`ChaosMode`] enum covers the common test shapes
//! (always panic, panic-on-even-seed for retry tests, NaN scores, slow
//! fit, plus the predict-time panic/slow/NaN variants the serving layer's
//! quarantine machinery is tested against) and maps onto rate configs via
//! [`ChaosDetector::from_mode`].

use crate::{Detector, FitContext, Result};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{KnnIndex, Matrix};

/// splitmix64 finalizer: uncorrelated 64-bit stream from seed + channel.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// High-level fault shapes for tests; see [`ChaosDetector::from_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaosMode {
    /// Inject nothing: behaves exactly like the wrapped detector. The
    /// control arm of chaos experiments.
    Passthrough,
    /// Panic unconditionally during `fit`.
    PanicOnFit,
    /// Panic during `fit` iff the seed is even. Retrying with an
    /// odd-salted seed then succeeds deterministically — the shape the
    /// bounded-retry path needs.
    FlakyPanic,
    /// Fit succeeds but every score (training and query) is NaN.
    NanScores,
    /// Sleep the given number of milliseconds before fitting — a
    /// deterministic straggler.
    SlowFit(u64),
    /// Fit succeeds with clean training scores, but every
    /// `decision_function` call panics — the serve-time fault the
    /// predict-phase quarantine machinery must score around.
    PanicOnPredict,
    /// Fit succeeds with clean training scores, but every
    /// `decision_function` call sleeps the given number of milliseconds
    /// first — a deterministic predict-time straggler for the serving
    /// layer's timeout watchdog.
    SlowPredict(u64),
    /// Fit succeeds with clean training scores, but every
    /// `decision_function` call returns all-NaN query scores. Unlike
    /// [`ChaosMode::NanScores`] the model survives fit-time quarantine
    /// and only degrades at predict time.
    NanOnPredict,
}

/// Per-channel injection rates, each decided by a seeded hash.
///
/// Rates are probabilities in `[0, 1]`: `0.0` never triggers, `1.0`
/// always does, and anything between triggers for that fraction of seeds
/// (deterministically per seed — re-running with the same seed gives the
/// same decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability of panicking during `fit`.
    pub panic_rate: f64,
    /// Probability that all emitted scores are NaN.
    pub nan_score_rate: f64,
    /// Probability of sleeping [`slow_millis`](Self::slow_millis) before
    /// fitting.
    pub slow_rate: f64,
    /// Sleep duration for triggered slowdowns, in milliseconds.
    pub slow_millis: u64,
    /// Probability of panicking during `decision_function` (fit stays
    /// clean).
    pub predict_panic_rate: f64,
    /// Probability that `decision_function` scores are NaN while
    /// training scores stay clean.
    pub predict_nan_rate: f64,
    /// Probability of sleeping [`slow_millis`](Self::slow_millis) at the
    /// start of every `decision_function` call.
    pub predict_slow_rate: f64,
    /// Seed all injection decisions derive from.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            panic_rate: 0.0,
            nan_score_rate: 0.0,
            slow_rate: 0.0,
            slow_millis: 0,
            predict_panic_rate: 0.0,
            predict_nan_rate: 0.0,
            predict_slow_rate: 0.0,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// Whether the channel with the given salt triggers under `rate`.
    fn triggers(&self, salt: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(self.seed ^ salt);
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }
}

const PANIC_SALT: u64 = 0xC0A5_7A11_0001;
const NAN_SALT: u64 = 0xC0A5_7A11_0002;
const SLOW_SALT: u64 = 0xC0A5_7A11_0003;
const PREDICT_PANIC_SALT: u64 = 0xC0A5_7A11_0004;
const PREDICT_NAN_SALT: u64 = 0xC0A5_7A11_0005;
const PREDICT_SLOW_SALT: u64 = 0xC0A5_7A11_0006;

/// Wraps a detector and injects deterministic, seeded failures.
///
/// See the [module docs](self). All injection decisions are resolved
/// from the config at construction time, so a `ChaosDetector` is as
/// deterministic as its inner detector.
pub struct ChaosDetector {
    inner: Box<dyn Detector>,
    panic_on_fit: bool,
    nan_scores: bool,
    slow_millis: u64,
    panic_on_predict: bool,
    nan_on_predict: bool,
    predict_slow_millis: u64,
    seed: u64,
}

impl std::fmt::Debug for ChaosDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosDetector")
            .field("inner", &self.inner.name())
            .field("panic_on_fit", &self.panic_on_fit)
            .field("nan_scores", &self.nan_scores)
            .field("slow_millis", &self.slow_millis)
            .field("panic_on_predict", &self.panic_on_predict)
            .field("nan_on_predict", &self.nan_on_predict)
            .field("predict_slow_millis", &self.predict_slow_millis)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ChaosDetector {
    /// Wraps `inner`, resolving each injection channel from `config`.
    pub fn new(inner: Box<dyn Detector>, config: ChaosConfig) -> Self {
        let panic_on_fit = config.triggers(PANIC_SALT, config.panic_rate);
        let nan_scores = config.triggers(NAN_SALT, config.nan_score_rate);
        let slow_millis = if config.triggers(SLOW_SALT, config.slow_rate) {
            config.slow_millis
        } else {
            0
        };
        let panic_on_predict = config.triggers(PREDICT_PANIC_SALT, config.predict_panic_rate);
        let nan_on_predict = config.triggers(PREDICT_NAN_SALT, config.predict_nan_rate);
        let predict_slow_millis = if config.triggers(PREDICT_SLOW_SALT, config.predict_slow_rate) {
            config.slow_millis
        } else {
            0
        };
        ChaosDetector {
            inner,
            panic_on_fit,
            nan_scores,
            slow_millis,
            panic_on_predict,
            nan_on_predict,
            predict_slow_millis,
            seed: config.seed,
        }
    }

    /// Wraps `inner` with one of the high-level [`ChaosMode`] shapes.
    ///
    /// `seed` only matters for [`ChaosMode::FlakyPanic`] (panics iff the
    /// seed is even) but is always recorded for panic messages.
    pub fn from_mode(inner: Box<dyn Detector>, mode: ChaosMode, seed: u64) -> Self {
        let config = match mode {
            ChaosMode::Passthrough => ChaosConfig {
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::PanicOnFit => ChaosConfig {
                panic_rate: 1.0,
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::FlakyPanic => ChaosConfig {
                panic_rate: if seed.is_multiple_of(2) { 1.0 } else { 0.0 },
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::NanScores => ChaosConfig {
                nan_score_rate: 1.0,
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::SlowFit(millis) => ChaosConfig {
                slow_rate: 1.0,
                slow_millis: millis,
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::PanicOnPredict => ChaosConfig {
                predict_panic_rate: 1.0,
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::SlowPredict(millis) => ChaosConfig {
                predict_slow_rate: 1.0,
                slow_millis: millis,
                seed,
                ..ChaosConfig::default()
            },
            ChaosMode::NanOnPredict => ChaosConfig {
                predict_nan_rate: 1.0,
                seed,
                ..ChaosConfig::default()
            },
        };
        ChaosDetector::new(inner, config)
    }

    /// `true` when the panic channel is armed for this instance.
    pub fn will_panic(&self) -> bool {
        self.panic_on_fit
    }

    /// `true` when the NaN-score channel is armed for this instance.
    pub fn will_emit_nan(&self) -> bool {
        self.nan_scores
    }

    /// `true` when the predict-time panic channel is armed.
    pub fn will_panic_on_predict(&self) -> bool {
        self.panic_on_predict
    }

    /// `true` when query scores (but not training scores) will be NaN.
    pub fn will_emit_nan_on_predict(&self) -> bool {
        self.nan_on_predict
    }

    fn inject_pre_fit(&self) {
        if self.slow_millis > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.slow_millis));
        }
        if self.panic_on_fit {
            panic!("chaos: injected fit panic (seed {})", self.seed);
        }
    }

    fn inject_pre_predict(&self) {
        if self.predict_slow_millis > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.predict_slow_millis));
        }
        if self.panic_on_predict {
            panic!("chaos: injected predict panic (seed {})", self.seed);
        }
    }

    fn poison(&self, scores: Vec<f64>) -> Vec<f64> {
        if self.nan_scores {
            vec![f64::NAN; scores.len()]
        } else {
            scores
        }
    }

    fn poison_predict(&self, scores: Vec<f64>) -> Vec<f64> {
        if self.nan_on_predict {
            vec![f64::NAN; scores.len()]
        } else {
            self.poison(scores)
        }
    }
}

impl Detector for ChaosDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        self.inject_pre_fit();
        self.inner.fit(x).map(|s| self.poison(s))
    }

    fn fit_with_context(&mut self, x: &Matrix, ctx: &FitContext) -> Result<Vec<f64>> {
        self.inject_pre_fit();
        self.inner.fit_with_context(x, ctx).map(|s| self.poison(s))
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.inject_pre_predict();
        self.inner
            .decision_function(x)
            .map(|s| self.poison_predict(s))
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        self.inner.neighbor_query()
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        self.inject_pre_predict();
        self.inner
            .score_from_neighbors(x, neighbors)
            .map(|s| self.poison_predict(s))
    }

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        // Injection decisions are resolved at construction, so the
        // serialized form is the *resolved* plan plus the wrapped
        // detector — a reloaded chaos model misbehaves identically.
        w.write_bool(self.panic_on_fit);
        w.write_bool(self.nan_scores);
        w.write_u64(self.slow_millis);
        w.write_bool(self.panic_on_predict);
        w.write_bool(self.nan_on_predict);
        w.write_u64(self.predict_slow_millis);
        w.write_u64(self.seed);
        crate::write_detector(self.inner.as_ref(), w)
    }
}

impl ChaosDetector {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`suod_linalg::Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Self> {
        let panic_on_fit = r.read_bool()?;
        let nan_scores = r.read_bool()?;
        let slow_millis = r.read_u64()?;
        let panic_on_predict = r.read_bool()?;
        let nan_on_predict = r.read_bool()?;
        let predict_slow_millis = r.read_u64()?;
        let seed = r.read_u64()?;
        let inner = crate::read_detector(r, n_threads)?;
        Ok(Self {
            inner,
            panic_on_fit,
            nan_scores,
            slow_millis,
            panic_on_predict,
            nan_on_predict,
            predict_slow_millis,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error as DetError, HbosDetector};

    fn data() -> Matrix {
        Matrix::from_rows(
            &(0..24)
                .map(|i| vec![i as f64 * 0.25, (i % 5) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn inner() -> Box<dyn Detector> {
        Box::new(HbosDetector::new(5, 0.5).unwrap())
    }

    #[test]
    fn passthrough_matches_inner() {
        let x = data();
        let mut plain = HbosDetector::new(5, 0.5).unwrap();
        let plain_scores = plain.fit(&x).unwrap();
        let mut wrapped = ChaosDetector::from_mode(inner(), ChaosMode::Passthrough, 7);
        let wrapped_scores = wrapped.fit(&x).unwrap();
        assert_eq!(plain_scores, wrapped_scores);
        assert_eq!(wrapped.name(), "chaos");
        assert!(wrapped.is_fitted());
    }

    #[test]
    #[should_panic(expected = "chaos: injected fit panic")]
    fn panic_mode_panics_on_fit() {
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::PanicOnFit, 1);
        let _ = det.fit(&data());
    }

    #[test]
    fn flaky_panics_iff_seed_even() {
        assert!(ChaosDetector::from_mode(inner(), ChaosMode::FlakyPanic, 4).will_panic());
        assert!(!ChaosDetector::from_mode(inner(), ChaosMode::FlakyPanic, 5).will_panic());
    }

    #[test]
    fn nan_mode_poisons_all_scores() {
        let x = data();
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::NanScores, 3);
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_nan()));
        assert!(det
            .decision_function(&x)
            .unwrap()
            .iter()
            .all(|v| v.is_nan()));
    }

    #[test]
    fn slow_mode_delays_fit() {
        let x = data();
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::SlowFit(30), 3);
        let start = std::time::Instant::now();
        det.fit(&x).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
    }

    #[test]
    fn rate_decisions_are_deterministic_per_seed() {
        let decide = |seed| {
            let config = ChaosConfig {
                panic_rate: 0.5,
                seed,
                ..ChaosConfig::default()
            };
            ChaosDetector::new(inner(), config).will_panic()
        };
        let first: Vec<bool> = (0..64).map(decide).collect();
        let second: Vec<bool> = (0..64).map(decide).collect();
        assert_eq!(first, second);
        // A 0.5 rate over 64 seeds should trigger at least once each way.
        assert!(first.iter().any(|&b| b));
        assert!(first.iter().any(|&b| !b));
    }

    #[test]
    fn predict_panic_mode_fits_cleanly_then_panics_on_predict() {
        let x = data();
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::PanicOnPredict, 9);
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
        assert!(det.will_panic_on_predict());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = det.decision_function(&x);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn predict_nan_mode_keeps_training_scores_clean() {
        let x = data();
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::NanOnPredict, 9);
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
        assert!(det
            .decision_function(&x)
            .unwrap()
            .iter()
            .all(|v| v.is_nan()));
    }

    #[test]
    fn predict_slow_mode_delays_scoring_not_fit() {
        let x = data();
        let mut det = ChaosDetector::from_mode(inner(), ChaosMode::SlowPredict(30), 9);
        let fit_start = std::time::Instant::now();
        det.fit(&x).unwrap();
        assert!(fit_start.elapsed() < std::time::Duration::from_millis(25));
        let start = std::time::Instant::now();
        det.decision_function(&x).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
    }

    #[test]
    fn unfitted_wrapper_propagates_not_fitted() {
        let det = ChaosDetector::from_mode(inner(), ChaosMode::Passthrough, 0);
        assert!(!det.is_fitted());
        assert!(matches!(
            det.decision_function(&data()),
            Err(DetError::NotFitted(_))
        ));
    }
}

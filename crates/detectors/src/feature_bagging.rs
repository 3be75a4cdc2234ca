//! Feature Bagging meta-ensemble (Lazarevic & Kumar 2005).
//!
//! Trains `n_estimators` base detectors (LOF, as in the original paper and
//! PyOD's default), each on a random feature subset of size between
//! `d/2` and `d`, and combines their standardized scores by averaging.
//! Feature Bagging is itself one of the "costly" families SUOD
//! approximates (it multiplies LOF's cost by the ensemble size).

use crate::lof::LofDetector;
use crate::{Detector, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::stats::zscore_in_place;
use suod_linalg::Matrix;

/// Feature Bagging detector over LOF base estimators.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, FeatureBagging};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..30)
///     .map(|i| vec![(i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1, 0.0])
///     .collect();
/// rows.push(vec![5.0, 5.0, 5.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = FeatureBagging::new(10, 5, 42)?;
/// let s = det.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FeatureBagging {
    n_estimators: usize,
    base_k: usize,
    seed: u64,
    members: Vec<(Vec<usize>, LofDetector)>,
}

impl FeatureBagging {
    /// Creates a feature-bagging ensemble of `n_estimators` LOF detectors
    /// with `base_k` neighbours each.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when either count is zero.
    pub fn new(n_estimators: usize, base_k: usize, seed: u64) -> Result<Self> {
        if n_estimators == 0 {
            return Err(Error::InvalidParameter("n_estimators must be >= 1".into()));
        }
        if base_k == 0 {
            return Err(Error::InvalidParameter("base_k must be >= 1".into()));
        }
        Ok(Self {
            n_estimators,
            base_k,
            seed,
            members: Vec::new(),
        })
    }

    /// Ensemble size.
    pub fn n_estimators(&self) -> usize {
        self.n_estimators
    }

    fn combine(score_columns: Vec<Vec<f64>>) -> Vec<f64> {
        let n = score_columns[0].len();
        let mut acc = vec![0.0; n];
        let m = score_columns.len() as f64;
        for mut col in score_columns {
            zscore_in_place(&mut col);
            for (a, v) in acc.iter_mut().zip(col) {
                *a += v / m;
            }
        }
        acc
    }
}

impl Detector for FeatureBagging {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        let n = x.nrows();
        let d = x.ncols();
        if n < 3 {
            return Err(Error::InsufficientData {
                needed: "at least 3 samples".into(),
                got: n,
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut members = Vec::with_capacity(self.n_estimators);
        let mut columns = Vec::with_capacity(self.n_estimators);
        for _ in 0..self.n_estimators {
            // Subset size uniform in [ceil(d/2), d] (the original paper's rule).
            let lo = d.div_ceil(2).max(1);
            let size = rng.random_range(lo..=d);
            let mut pool: Vec<usize> = (0..d).collect();
            for i in 0..size {
                let j = rng.random_range(i..d);
                pool.swap(i, j);
            }
            pool.truncate(size);
            pool.sort_unstable();

            let sub = x.select_cols(&pool);
            let mut base = LofDetector::new(self.base_k)?;
            columns.push(base.fit(&sub)?);
            members.push((pool, base));
        }
        self.members = members;
        Ok(Self::combine(columns))
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.members.is_empty() {
            return Err(Error::NotFitted("FeatureBagging"));
        }
        let d = self
            .members
            .iter()
            .flat_map(|(f, _)| f.iter().copied())
            .max()
            .expect("non-empty members")
            + 1;
        // The true fitted dimensionality is at least the max used index;
        // enforce exact width via the widest member when all features used.
        check_dims_at_least(d, x)?;
        let columns: Result<Vec<Vec<f64>>> = self
            .members
            .iter()
            .map(|(features, base)| base.decision_function(&x.select_cols(features)))
            .collect();
        Ok(Self::combine(columns?))
    }

    fn name(&self) -> &'static str {
        "feature_bagging"
    }

    fn is_fitted(&self) -> bool {
        !self.members.is_empty()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.n_estimators);
        w.write_usize(self.base_k);
        w.write_u64(self.seed);
        w.write_usize(self.members.len());
        for (features, base) in &self.members {
            w.write_usizes(features);
            base.snapshot_write(w)?;
        }
        Ok(())
    }
}

impl FeatureBagging {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Self> {
        let n_estimators = r.read_usize()?;
        let base_k = r.read_usize()?;
        let seed = r.read_u64()?;
        let count = r.read_usize()?;
        let mut members = Vec::new();
        for _ in 0..count {
            let features = r.read_usizes()?;
            let base = LofDetector::snapshot_read(r, n_threads)?;
            members.push((features, base));
        }
        crate::skip_training_scores(r)?;
        Ok(Self {
            n_estimators,
            base_k,
            seed,
            members,
        })
    }
}

fn check_dims_at_least(min_cols: usize, x: &Matrix) -> Result<()> {
    if x.ncols() < min_cols {
        return Err(Error::DimensionMismatch {
            expected: min_cols,
            actual: x.ncols(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..36)
            .map(|i| vec![(i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1, 1.0])
            .collect();
        rows.push(vec![4.0, 4.0, -3.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn detects_outlier() {
        let mut det = FeatureBagging::new(8, 5, 0).unwrap();
        let s = det.fit(&grid_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 36);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = grid_with_outlier();
        let mut a = FeatureBagging::new(5, 4, 3).unwrap();
        let mut b = FeatureBagging::new(5, 4, 3).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
        let mut c = FeatureBagging::new(5, 4, 4).unwrap();
        let sc = c.fit(&x).unwrap();
        assert_ne!(sa, sc);
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut det = FeatureBagging::new(6, 5, 1).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.25, 0.25, 1.0], vec![10.0, -10.0, 10.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > s[0]);
    }

    #[test]
    fn members_use_distinct_subsets() {
        let mut det = FeatureBagging::new(12, 4, 2).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let distinct: std::collections::HashSet<Vec<usize>> =
            det.members.iter().map(|(f, _)| f.clone()).collect();
        assert!(distinct.len() > 1, "all members saw identical features");
        // Every subset has at least ceil(d/2) = 2 features.
        assert!(det.members.iter().all(|(f, _)| f.len() >= 2));
    }

    #[test]
    fn validates_inputs() {
        assert!(FeatureBagging::new(0, 5, 0).is_err());
        assert!(FeatureBagging::new(5, 0, 0).is_err());
        let mut det = FeatureBagging::new(3, 2, 0).unwrap();
        assert!(det.fit(&Matrix::zeros(2, 3)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
        det.fit(&grid_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn single_feature_dataset_works() {
        let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 5) as f64]).collect();
        rows.push(vec![50.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = FeatureBagging::new(4, 3, 0).unwrap();
        let s = det.fit(&x).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 20);
    }
}

//! Histogram-Based Outlier Score (Goldstein & Dengel 2012).
//!
//! HBOS assumes feature independence: each feature gets an equal-width
//! histogram whose normalized heights act as a density estimate, and a
//! sample's score is the sum over features of `log(1 / density)`. It is
//! one of the two "cheap" families the paper deliberately does **not**
//! approximate or project (§3.3/§3.4) — it serves as the fast baseline in
//! the heterogeneous pool.
//!
//! The histograms live in one [`Binned`] operator, shared with LODA: each
//! feature is a view of one weight of 1.0, which reads the value exactly,
//! and each bin's `log(1 / density)` is a table entry built at fit and at
//! snapshot load.
//!
//! The `tolerance` hyperparameter (Table B.1) controls how far outside the
//! training range a test value may fall while still borrowing the edge
//! bin's density; beyond `tolerance * range` the density decays toward the
//! minimum, mirroring PyOD's handling ([`Edge::Band`]). That decay is the
//! one `ln` taken at score time.

use crate::{check_dims, Detector, Error, Result};
use suod_linalg::{Binned, Edge, Matrix, Rule};

/// The least density a bin scores with, so an empty bin scores finite.
const FLOOR: f64 = 1e-6;

/// HBOS's binning: a bin's density is its count over the fullest bin's,
/// its score `ln(1 / density)`, and the tolerance band at the edges.
fn rule(tolerance: f64) -> Rule {
    Rule {
        mass: |count, peak, _| {
            let peak = peak as f64;
            if peak > 0.0 {
                count as f64 / peak
            } else {
                0.0
            }
        },
        score: |density| (1.0 / density.max(FLOOR)).ln(),
        edge: Edge::Band { tolerance },
        dense: false,
    }
}

/// HBOS detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, HbosDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 10) as f64]).collect();
/// let mut x_rows = rows.clone();
/// x_rows.push(vec![100.0]);
/// let x = Matrix::from_rows(&x_rows).unwrap();
/// let mut det = HbosDetector::new(10, 0.5)?;
/// let s = det.fit(&x)?;
/// assert!(s[50] >= *s[..50].iter().max_by(|a, b| a.total_cmp(b)).unwrap());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HbosDetector {
    n_bins: usize,
    tolerance: f64,
    /// One view per feature; none before `fit`.
    histograms: Binned,
}

impl HbosDetector {
    /// Creates an HBOS detector with `n_bins` histogram bins per feature
    /// and the out-of-range `tolerance` (Table B.1 uses 0.1–0.5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `n_bins == 0` or
    /// `tolerance` is not in `[0, 1]`.
    pub fn new(n_bins: usize, tolerance: f64) -> Result<Self> {
        if n_bins == 0 {
            return Err(Error::InvalidParameter("n_bins must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&tolerance) {
            return Err(Error::InvalidParameter(format!(
                "tolerance must be in [0, 1], got {tolerance}"
            )));
        }
        Ok(Self {
            n_bins,
            tolerance,
            histograms: Binned::new(0, rule(tolerance)),
        })
    }

    /// Number of bins per feature.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }
}

/// Where a row's per-feature scores are added onto: `Iterator::sum`'s
/// start, as the scores were once summed.
const SUM_START: f64 = -0.0;

impl Detector for HbosDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        if x.nrows() < 2 {
            return Err(Error::InsufficientData {
                needed: "at least 2 samples".into(),
                got: x.nrows(),
            });
        }
        let mut histograms = Binned::new(x.ncols(), rule(self.tolerance));
        let mut train_scores = vec![SUM_START; x.nrows()];
        let views: Vec<Vec<(usize, f64)>> = (0..x.ncols()).map(|c| vec![(c, 1.0)]).collect();
        histograms.fit_views(x, &views, self.n_bins, &mut train_scores)?;
        self.histograms = histograms;
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.is_fitted() {
            return Err(Error::NotFitted("HbosDetector"));
        }
        check_dims(self.histograms.n_features(), x)?;
        Ok(self.histograms.row_sums(x, SUM_START)?)
    }

    fn name(&self) -> &'static str {
        "hbos"
    }

    fn is_fitted(&self) -> bool {
        self.histograms.n_views() > 0
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.n_bins);
        w.write_f64(self.tolerance);
        w.write_usize(self.histograms.n_views());
        for v in 0..self.histograms.n_views() {
            let (min, max) = self.histograms.grid(v);
            w.write_f64(min);
            w.write_f64(max);
            w.write_f64s(self.histograms.masses(v));
        }
        Ok(())
    }
}

impl HbosDetector {
    /// Reads a detector written by [`Detector::snapshot_write`], building
    /// its score tables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state,
    /// a histogram without bins included.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let n_bins = r.read_usize()?;
        let tolerance = r.read_f64()?;
        let n_hist = r.read_usize()?;
        let mut histograms = Binned::new(n_hist, rule(tolerance));
        for c in 0..n_hist {
            let (min, max) = (r.read_f64()?, r.read_f64()?);
            histograms.push_view(&[(c, 1.0)], min, max, &r.read_f64s()?)?;
        }
        crate::skip_training_scores(r)?;
        Ok(Self {
            n_bins,
            tolerance,
            histograms,
        })
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tie_heavy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use suod_linalg::{SnapshotReader, SnapshotWriter};

    fn uniform_with_rare_value() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64, 0.0]).collect();
        rows.push(vec![4.0, 50.0]); // rare in feature 1
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn rare_value_scores_highest() {
        let mut det = HbosDetector::new(10, 0.2).unwrap();
        let s = det.fit(&uniform_with_rare_value()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 100);
    }

    #[test]
    fn out_of_range_query_scores_high() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 6) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = HbosDetector::new(6, 0.1).unwrap();
        det.fit(&x).unwrap();
        let q = Matrix::from_rows(&[vec![2.0], vec![1000.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > s[0] + 1.0, "{s:?}");
    }

    #[test]
    fn tolerance_softens_near_range_queries() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 6) as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut tight = HbosDetector::new(6, 0.0).unwrap();
        let mut loose = HbosDetector::new(6, 0.5).unwrap();
        tight.fit(&x).unwrap();
        loose.fit(&x).unwrap();
        // Slightly beyond max (5.0 + 0.5 within loose tolerance band 2.5).
        let q = Matrix::from_rows(&[vec![5.5]]).unwrap();
        let st = tight.decision_function(&q).unwrap()[0];
        let sl = loose.decision_function(&q).unwrap()[0];
        assert!(st > sl, "tight {st} should exceed loose {sl}");
    }

    #[test]
    fn constant_feature_is_harmless() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 7.0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = HbosDetector::new(5, 0.1).unwrap();
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn validates_inputs() {
        assert!(HbosDetector::new(0, 0.1).is_err());
        assert!(HbosDetector::new(5, -0.1).is_err());
        assert!(HbosDetector::new(5, 1.5).is_err());
        let mut det = HbosDetector::new(5, 0.1).unwrap();
        assert!(det.fit(&Matrix::zeros(1, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&uniform_with_rare_value()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn scores_deterministic() {
        let x = uniform_with_rare_value();
        let mut a = HbosDetector::new(8, 0.3).unwrap();
        let mut b = HbosDetector::new(8, 0.3).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    /// Values that stress one feature's histogram: its ends and their
    /// neighbours, every bin edge, each side of the tolerance band, the
    /// extremes, subnormals, signed zeros, NaN and the infinities.
    fn probes(h: &oracle::FeatureHistogram, tolerance: f64) -> Vec<f64> {
        let (lo, hi, bins) = (h.min, h.max, h.densities.len() as f64);
        let range = (hi - lo).max(1e-12);
        let band = tolerance * range;
        let mut v = vec![lo.next_down(), lo.next_up(), hi.next_down(), hi.next_up()];
        v.extend((0..=h.densities.len()).map(|k| lo + k as f64 * range / bins));
        for edge in [lo - band, hi + band, lo - 2.0 * band, hi + 2.0 * band] {
            v.extend([edge.next_down(), edge, edge.next_up()]);
        }
        v.extend([1e308, -1e308, 5e-324, -5e-324, 1e-310, -0.0, 0.0]);
        v.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        v
    }

    /// `count` rows, each cell one of its feature's probes.
    fn probe_rows(
        expected: &oracle::OracleHbos,
        tolerance: f64,
        count: usize,
        seed: u64,
    ) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<f64>> = expected
            .histograms
            .iter()
            .map(|h| probes(h, tolerance))
            .collect();
        let mut q = Matrix::zeros(count, columns.len());
        for r in 0..count {
            for (c, values) in columns.iter().enumerate() {
                q.set(r, c, values[rng.random_range(0..values.len())]);
            }
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The binned operator is the per-feature histograms: fed one
        /// oracle histogram, it scores every probe value with the bits of
        /// `ln(1 / density)`; fitted as a detector, it writes the oracle's
        /// snapshot bytes and scores training rows and probe rows, before
        /// and after a reload, with the oracle's bits.
        #[test]
        fn binned_histograms_score_the_oracle(
            (n, d, seed) in (2usize..300, 1usize..6, 0u64..u64::MAX),
            (bins_at, tolerance_at) in (0usize..4, 0usize..3),
        ) {
            let n_bins = [1, 2, 7, 50][bins_at];
            let tolerance = [0.0, 0.3, 1.0][tolerance_at];
            let (x, _) = tie_heavy::tie_heavy_problem(n, d, seed);
            let expected = oracle::fit(n_bins, tolerance, &x);

            for h in &expected.histograms {
                let mut op = Binned::new(1, rule(tolerance));
                op.push_view(&[(0, 1.0)], h.min, h.max, &h.densities).unwrap();
                let values = probes(h, tolerance);
                let want: Vec<f64> = values
                    .iter()
                    .map(|&v| (1.0 / h.density(v, tolerance)).ln())
                    .collect();
                let column = Matrix::from_vec(values.len(), 1, values).unwrap();
                prop_assert_eq!(bits(&op.row_sums(&column, SUM_START).unwrap()), bits(&want));
            }

            let mut det = HbosDetector::new(n_bins, tolerance).unwrap();
            let scores = det.fit(&x).unwrap();
            let mut w = SnapshotWriter::new();
            det.snapshot_write(&mut w).unwrap();
            prop_assert_eq!(w.as_bytes(), expected.snapshot_bytes().as_slice());
            prop_assert_eq!(bits(&scores), bits(&expected.train_scores));
            let loaded = HbosDetector::snapshot_read(&mut SnapshotReader::new(w.as_bytes()), 1)
                .unwrap();
            for (k, &count) in tie_heavy::QUERY_COUNTS.iter().enumerate() {
                let q = probe_rows(&expected, tolerance, count, seed ^ k as u64);
                let want = bits(&expected.score_rows(&q));
                prop_assert_eq!(&bits(&det.decision_function(&q).unwrap()), &want);
                prop_assert_eq!(&bits(&loaded.decision_function(&q).unwrap()), &want);
            }
        }
    }

    #[test]
    fn a_histogram_without_bins_is_a_typed_snapshot_error() {
        let mut w = SnapshotWriter::new();
        w.write_usize(5); // n_bins
        w.write_f64(0.1); // tolerance
        w.write_usize(1); // histograms
        w.write_f64(0.0);
        w.write_f64(1.0);
        w.write_f64s(&[]);
        let err =
            HbosDetector::snapshot_read(&mut SnapshotReader::new(w.as_bytes()), 1).unwrap_err();
        assert!(err.to_string().contains("snapshot: "), "{err}");
    }
}

//! Clustering-Based Local Outlier Factor (He et al. 2003).
//!
//! The training data is clustered (k-means here, as in PyOD); clusters are
//! split into *large* and *small* by the `alpha`/`beta` rule: walking
//! clusters in decreasing size order, the boundary falls where the
//! cumulative share reaches `alpha` of all points or the size ratio
//! between consecutive clusters exceeds `beta`. A sample in a large
//! cluster scores its distance to that cluster's center; a sample in a
//! small cluster scores its distance to the **nearest large** cluster's
//! center — small clusters are treated as candidate outlier groups.

use crate::kmeans::KMeans;
use crate::{check_dims, finite_training_scores, Detector, Error, Result};
use suod_linalg::Matrix;

/// CBLOF detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{CblofDetector, Detector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 6) as f64 * 0.1, 0.0]).collect();
/// rows.push(vec![50.0, 50.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = CblofDetector::new(3, 7)?;
/// let s = det.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CblofDetector {
    n_clusters: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
    kmeans: Option<KMeans>,
    large_clusters: Vec<usize>,
}

impl CblofDetector {
    /// Creates a CBLOF detector with `n_clusters` k-means clusters and the
    /// canonical `alpha = 0.9`, `beta = 5`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `n_clusters == 0`.
    pub fn new(n_clusters: usize, seed: u64) -> Result<Self> {
        if n_clusters == 0 {
            return Err(Error::InvalidParameter("n_clusters must be >= 1".into()));
        }
        Ok(Self {
            n_clusters,
            alpha: 0.9,
            beta: 5.0,
            seed,
            kmeans: None,
            large_clusters: Vec::new(),
        })
    }

    /// Overrides the large-cluster share threshold `alpha` (default 0.9).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when outside `(0, 1)`.
    pub fn with_alpha(mut self, alpha: f64) -> Result<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        self.alpha = alpha;
        Ok(self)
    }

    /// Overrides the size-ratio threshold `beta` (default 5).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `beta <= 1`.
    pub fn with_beta(mut self, beta: f64) -> Result<Self> {
        if beta <= 1.0 {
            return Err(Error::InvalidParameter(format!(
                "beta must be > 1, got {beta}"
            )));
        }
        self.beta = beta;
        Ok(self)
    }

    /// Number of clusters requested.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Indices of the clusters classified as large (after `fit`).
    pub fn large_clusters(&self) -> &[usize] {
        &self.large_clusters
    }

    /// Partitions cluster indices into large clusters per the alpha/beta
    /// rule; guarantees at least the biggest cluster is large.
    fn find_large_clusters(sizes: &[usize], n: usize, alpha: f64, beta: f64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]));
        let mut large = Vec::new();
        let mut covered = 0usize;
        for (pos, &c) in order.iter().enumerate() {
            if pos > 0 {
                let prev = sizes[order[pos - 1]] as f64;
                let curr = sizes[c] as f64;
                let ratio_break = curr > 0.0 && prev / curr.max(1e-12) >= beta;
                let share_break = covered as f64 >= alpha * n as f64;
                if ratio_break || share_break {
                    break;
                }
            }
            large.push(c);
            covered += sizes[c];
        }
        if large.is_empty() {
            large.push(order[0]);
        }
        large
    }

    fn score_row(km: &KMeans, large_clusters: &[usize], row: &[f64], cluster: usize) -> f64 {
        if large_clusters.contains(&cluster) {
            km.distance_to_center(row, cluster)
        } else {
            large_clusters
                .iter()
                .map(|&c| km.distance_to_center(row, c))
                .fold(f64::INFINITY, f64::min)
        }
    }
}

impl Detector for CblofDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        if x.nrows() < self.n_clusters.max(2) {
            return Err(Error::InsufficientData {
                needed: format!("at least {} samples", self.n_clusters.max(2)),
                got: x.nrows(),
            });
        }
        let km = KMeans::fit(x, self.n_clusters, self.seed, 100)?;
        let large_clusters =
            Self::find_large_clusters(km.sizes(), x.nrows(), self.alpha, self.beta);
        let scores = finite_training_scores(
            (0..x.nrows())
                .map(|i| Self::score_row(&km, &large_clusters, x.row(i), km.assignments()[i]))
                .collect(),
        )?;
        self.large_clusters = large_clusters;
        self.kmeans = Some(km);
        Ok(scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        let km = self
            .kmeans
            .as_ref()
            .ok_or(Error::NotFitted("CblofDetector"))?;
        check_dims(km.centers().ncols(), x)?;
        Ok(x.rows_iter()
            .map(|row| Self::score_row(km, &self.large_clusters, row, km.assign(row)))
            .collect())
    }

    fn name(&self) -> &'static str {
        "cblof"
    }

    fn is_fitted(&self) -> bool {
        self.kmeans.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.n_clusters);
        w.write_f64(self.alpha);
        w.write_f64(self.beta);
        w.write_u64(self.seed);
        match &self.kmeans {
            Some(km) => {
                w.write_bool(true);
                km.snapshot_write(w);
            }
            None => w.write_bool(false),
        }
        w.write_usizes(&self.large_clusters);
        Ok(())
    }
}

impl CblofDetector {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let n_clusters = r.read_usize()?;
        let alpha = r.read_f64()?;
        let beta = r.read_f64()?;
        let seed = r.read_u64()?;
        let kmeans = if r.read_bool()? {
            Some(KMeans::snapshot_read(r)?)
        } else {
            None
        };
        let large_clusters = r.read_usizes()?;
        crate::skip_training_scores(r)?;
        Ok(Self {
            n_clusters,
            alpha,
            beta,
            seed,
            kmeans,
            large_clusters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_rows_are_degenerate() {
        let mut det = CblofDetector::new(4, 3).unwrap();
        let err = det.fit(&crate::overflowing_rows()).unwrap_err();
        assert!(matches!(err, Error::DegenerateData(_)), "{err:?}");
        assert!(!det.is_fitted());
    }

    fn blob_with_outlier_group() -> Matrix {
        let mut rows = Vec::new();
        // One big cluster of 40.
        for i in 0..40 {
            rows.push(vec![(i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1]);
        }
        // A tiny far-away group of 3 (candidate outliers).
        for i in 0..3 {
            rows.push(vec![20.0 + i as f64 * 0.1, 20.0]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn small_cluster_members_score_high() {
        let mut det = CblofDetector::new(2, 0).unwrap();
        let s = det.fit(&blob_with_outlier_group()).unwrap();
        let top3: Vec<usize> = suod_linalg::rank::argsort_desc(&s)[..3].to_vec();
        for i in 40..43 {
            assert!(top3.contains(&i), "index {i} missing from top3 {top3:?}");
        }
    }

    #[test]
    fn large_cluster_classification() {
        // Sizes 40 and 3 with beta=5: ratio 40/3 > 5 -> only the big one
        // is large.
        let large = CblofDetector::find_large_clusters(&[40, 3], 43, 0.9, 5.0);
        assert_eq!(large, vec![0]);
        // Balanced clusters: both large (ratio 1 < 5, share below alpha).
        let large = CblofDetector::find_large_clusters(&[20, 20], 40, 0.9, 5.0);
        assert_eq!(large.len(), 2);
    }

    #[test]
    fn alpha_share_rule() {
        // First cluster alone covers 95% >= alpha=0.9 -> stop after it.
        let large = CblofDetector::find_large_clusters(&[95, 3, 2], 100, 0.9, 100.0);
        assert_eq!(large, vec![0]);
    }

    #[test]
    fn at_least_one_large_cluster() {
        let large = CblofDetector::find_large_clusters(&[1, 1], 2, 0.001, 1.001);
        assert!(!large.is_empty());
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut det = CblofDetector::new(2, 0).unwrap();
        det.fit(&blob_with_outlier_group()).unwrap();
        let q = Matrix::from_rows(&[vec![0.3, 0.2], vec![100.0, 100.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > 10.0 * s[0].max(0.1));
    }

    #[test]
    fn validates_inputs() {
        assert!(CblofDetector::new(0, 0).is_err());
        assert!(CblofDetector::new(3, 0).unwrap().with_alpha(1.5).is_err());
        assert!(CblofDetector::new(3, 0).unwrap().with_beta(0.5).is_err());
        let mut det = CblofDetector::new(5, 0).unwrap();
        assert!(det.fit(&Matrix::zeros(3, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&blob_with_outlier_group()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = blob_with_outlier_group();
        let mut a = CblofDetector::new(3, 5).unwrap();
        let mut b = CblofDetector::new(3, 5).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
    }
}

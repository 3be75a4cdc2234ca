//! Local Outlier Factor (Breunig et al. 2000).
//!
//! LOF compares a point's local reachability density to that of its
//! neighbours: scores near 1 mean "as dense as the neighbourhood", larger
//! scores mean locally sparse, i.e. outlying. The paper's grid varies
//! `n_neighbors` and the distance metric.
//!
//! Training scores use the classic leave-one-out construction; scoring new
//! points reuses the training set's k-distances and local reachability
//! densities, mirroring scikit-learn's `novelty=True` mode.

use crate::{check_scoring_input, query_then_score, Detector, Error, FitContext, Result};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// Local Outlier Factor detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, LofDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.1], vec![0.2], vec![0.3], vec![5.0],
/// ]).unwrap();
/// let mut lof = LofDetector::new(2)?;
/// let s = lof.fit(&x)?;
/// assert!(s[4] > s[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LofDetector {
    k: usize,
    metric: DistanceMetric,
    index: Option<Arc<KnnIndex>>,
    /// k-distance of each training point (leave-one-out).
    k_distances: Vec<f64>,
    /// Local reachability density of each training point.
    lrd: Vec<f64>,
}

impl LofDetector {
    /// Creates an LOF detector with `k` neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter("n_neighbors must be >= 1".into()));
        }
        Ok(Self {
            k,
            metric: DistanceMetric::Euclidean,
            index: None,
            k_distances: Vec::new(),
            lrd: Vec::new(),
        })
    }

    /// Replaces the distance metric (default Euclidean).
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Detector for LofDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        self.fit_with_context(x, &FitContext::default())
    }

    fn fit_with_context(&mut self, x: &Matrix, ctx: &FitContext) -> Result<Vec<f64>> {
        let n = x.nrows();
        if n < 3 {
            return Err(Error::InsufficientData {
                needed: "at least 3 samples".into(),
                got: n,
            });
        }
        let k = self.k.min(n - 1);

        // Leave-one-out neighbour lists: a prefix view of the pool-shared
        // neighbour graph when `ctx` carries a cache, a direct
        // `self_query_batch` sweep otherwise.
        let (index, neighbors) = ctx.self_neighbors(x, self.metric, k)?;

        // k-distance of each point = distance to its k-th neighbour.
        let k_distances: Vec<f64> = neighbors
            .iter()
            .map(|nn| nn.last().map_or(0.0, |l| l.distance))
            .collect();

        // Local reachability density.
        let lrd: Vec<f64> = neighbors
            .iter()
            .map(|nn| {
                let reach_sum: f64 = nn
                    .iter()
                    .map(|nb| nb.distance.max(k_distances[nb.index]))
                    .sum();
                if reach_sum <= 1e-300 {
                    // Duplicated points: infinite density, cap it.
                    1e12
                } else {
                    nn.len() as f64 / reach_sum
                }
            })
            .collect();

        // LOF score: mean neighbour lrd over own lrd.
        let train_scores: Vec<f64> = (0..n)
            .map(|i| {
                let nn = neighbors.get(i);
                let mean_nb_lrd: f64 =
                    nn.iter().map(|nb| lrd[nb.index]).sum::<f64>() / nn.len().max(1) as f64;
                mean_nb_lrd / lrd[i].max(1e-300)
            })
            .collect();

        self.k_distances = k_distances;
        self.lrd = lrd;
        self.index = Some(index);
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        query_then_score(self, "LofDetector", x)
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        self.index.as_ref().map(|ix| (ix, self.k.min(ix.len())))
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let index = self.index.as_ref().ok_or(Error::NotFitted("LofDetector"))?;
        check_scoring_input(index, x, neighbors)?;
        let mut scores = Vec::with_capacity(x.nrows());
        for nn in neighbors {
            let reach_sum: f64 = nn
                .iter()
                .map(|nb| nb.distance.max(self.k_distances[nb.index]))
                .sum();
            let lrd_q = if reach_sum <= 1e-300 {
                1e12
            } else {
                nn.len() as f64 / reach_sum
            };
            let mean_nb_lrd: f64 =
                nn.iter().map(|nb| self.lrd[nb.index]).sum::<f64>() / nn.len().max(1) as f64;
            scores.push(mean_nb_lrd / lrd_q.max(1e-300));
        }
        Ok(scores)
    }

    fn name(&self) -> &'static str {
        "lof"
    }

    fn is_fitted(&self) -> bool {
        self.index.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        w.write_metric(self.metric);
        crate::write_opt_index(self.index.as_deref(), w);
        w.write_f64s(&self.k_distances);
        w.write_f64s(&self.lrd);
        Ok(())
    }
}

impl LofDetector {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Self> {
        let det = Self {
            k: r.read_usize()?,
            metric: r.read_metric()?,
            index: crate::read_opt_index(r, n_threads)?,
            k_distances: r.read_f64s()?,
            lrd: r.read_f64s()?,
        };
        crate::skip_training_scores(r)?;
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cluster_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![5.0, 5.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn outlier_has_max_lof() {
        let mut det = LofDetector::new(5).unwrap();
        let s = det.fit(&dense_cluster_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 20);
        assert!(s[20] > 2.0, "outlier LOF {}", s[20]);
    }

    #[test]
    fn inlier_scores_near_one() {
        // Uniform grid: every interior point has LOF ~ 1.
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = LofDetector::new(4).unwrap();
        let s = det.fit(&x).unwrap();
        // Central point (index 12) is surrounded symmetrically.
        assert!((s[12] - 1.0).abs() < 0.2, "central LOF {}", s[12]);
    }

    #[test]
    fn new_point_scoring_consistent() {
        let x = dense_cluster_with_outlier();
        let mut det = LofDetector::new(5).unwrap();
        det.fit(&x).unwrap();
        let q = Matrix::from_rows(&[vec![0.2, 0.1], vec![10.0, 10.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > 3.0 * s[0], "far query not flagged: {s:?}");
        assert!(s[0] < 1.6, "in-cluster query too outlying: {}", s[0]);
    }

    #[test]
    fn duplicates_do_not_blow_up() {
        let rows = vec![vec![1.0, 1.0]; 6];
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = LofDetector::new(3).unwrap();
        let s = det.fit(&x).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn validates_inputs() {
        assert!(LofDetector::new(0).is_err());
        let mut det = LofDetector::new(2).unwrap();
        assert!(det.fit(&Matrix::zeros(2, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&dense_cluster_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn metric_variants_run() {
        let x = dense_cluster_with_outlier();
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Minkowski(3.0),
        ] {
            let mut det = LofDetector::new(4).unwrap().with_metric(metric);
            let s = det.fit(&x).unwrap();
            assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 20);
        }
    }
}

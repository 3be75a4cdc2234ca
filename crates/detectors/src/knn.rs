//! k-nearest-neighbour outlier detection (Ramaswamy et al. 2000).
//!
//! A point's outlyingness is a statistic of its distances to its `k`
//! nearest training neighbours. The paper's model grid (Table B.1) varies
//! `n_neighbors` and the aggregation `method` in
//! `{largest, mean, median}`; "average kNN" (akNN, §4.2) is exactly
//! `method = mean`.

use crate::{
    check_scoring_input, finite_training_scores, query_then_score, Detector, Error, FitContext,
    Result,
};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// How the k neighbour distances collapse into one score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnMethod {
    /// Distance to the k-th neighbour (the classic kNN score).
    #[default]
    Largest,
    /// Mean of the k distances (average kNN / akNN).
    Mean,
    /// Median of the k distances.
    Median,
}

impl KnnMethod {
    /// Parses the PyOD-style method name (`largest`/`mean`/`median`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "largest" => Ok(KnnMethod::Largest),
            "mean" => Ok(KnnMethod::Mean),
            "median" => Ok(KnnMethod::Median),
            other => Err(Error::InvalidParameter(format!(
                "unknown kNN method `{other}`"
            ))),
        }
    }

    fn aggregate(&self, sorted_distances: &[f64]) -> f64 {
        if sorted_distances.is_empty() {
            return 0.0;
        }
        match self {
            KnnMethod::Largest => *sorted_distances.last().expect("non-empty"),
            KnnMethod::Mean => sorted_distances.iter().sum::<f64>() / sorted_distances.len() as f64,
            KnnMethod::Median => {
                let m = sorted_distances.len() / 2;
                if sorted_distances.len() % 2 == 1 {
                    sorted_distances[m]
                } else {
                    0.5 * (sorted_distances[m - 1] + sorted_distances[m])
                }
            }
        }
    }
}

/// kNN outlier detector.
#[derive(Debug, Clone)]
pub struct KnnDetector {
    k: usize,
    method: KnnMethod,
    metric: DistanceMetric,
    index: Option<Arc<KnnIndex>>,
}

impl KnnDetector {
    /// Creates a detector with `k` neighbours and the given aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize, method: KnnMethod) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter("n_neighbors must be >= 1".into()));
        }
        Ok(Self {
            k,
            method,
            metric: DistanceMetric::Euclidean,
            index: None,
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

    /// Aggregation method.
    pub fn method(&self) -> KnnMethod {
        self.method
    }

    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Self> {
        let k = r.read_usize()?;
        let method = match r.read_u8()? {
            0 => KnnMethod::Largest,
            1 => KnnMethod::Mean,
            2 => KnnMethod::Median,
            other => {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: unknown knn method tag {other}"
                )))
            }
        };
        let metric = r.read_metric()?;
        let index = crate::read_opt_index(r, n_threads)?;
        crate::skip_training_scores(r)?;
        Ok(Self {
            k,
            method,
            metric,
            index,
        })
    }
}

impl Detector for KnnDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        self.fit_with_context(x, &FitContext::default())
    }

    fn fit_with_context(&mut self, x: &Matrix, ctx: &FitContext) -> Result<Vec<f64>> {
        if x.nrows() < 2 {
            return Err(Error::InsufficientData {
                needed: "at least 2 samples".into(),
                got: x.nrows(),
            });
        }
        // Leave-one-out training scores (a point is not its own
        // neighbour); served as a prefix of the pool-shared neighbour
        // graph when `ctx` carries a cache, swept directly otherwise.
        let (index, neighbors) = ctx.self_neighbors(x, self.metric, self.k)?;
        let train_scores = finite_training_scores(
            neighbors
                .iter()
                .map(|nn| {
                    let d: Vec<f64> = nn.iter().map(|n| n.distance).collect();
                    self.method.aggregate(&d)
                })
                .collect(),
        )?;
        self.index = Some(index);
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        query_then_score(self, "KnnDetector", x)
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        // The index clamps `k` to its size; clamping here keeps pooled
        // prefixes and the standalone query the same length.
        self.index.as_ref().map(|ix| (ix, self.k.min(ix.len())))
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let index = self.index.as_ref().ok_or(Error::NotFitted("KnnDetector"))?;
        check_scoring_input(index, x, neighbors)?;
        Ok(neighbors
            .iter()
            .map(|nn| {
                let d: Vec<f64> = nn.iter().map(|n| n.distance).collect();
                self.method.aggregate(&d)
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        match self.method {
            KnnMethod::Mean => "aknn",
            _ => "knn",
        }
    }

    fn is_fitted(&self) -> bool {
        self.index.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        w.write_u8(match self.method {
            KnnMethod::Largest => 0,
            KnnMethod::Mean => 1,
            KnnMethod::Median => 2,
        });
        w.write_metric(self.metric);
        crate::write_opt_index(self.index.as_deref(), w);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_rows_are_degenerate() {
        for method in [KnnMethod::Largest, KnnMethod::Mean, KnnMethod::Median] {
            let mut det = KnnDetector::new(5, method).unwrap();
            let err = det.fit(&crate::overflowing_rows()).unwrap_err();
            assert!(matches!(err, Error::DegenerateData(_)), "{err:?}");
            assert!(!det.is_fitted());
        }
    }

    fn cluster_with_outlier() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.1],
            vec![0.2, 0.0],
            vec![0.0, 0.2],
            vec![0.1, 0.0],
            vec![8.0, 8.0],
        ])
        .unwrap()
    }

    #[test]
    fn outlier_scores_highest() {
        for method in [KnnMethod::Largest, KnnMethod::Mean, KnnMethod::Median] {
            let mut det = KnnDetector::new(3, method).unwrap();
            let s = det.fit(&cluster_with_outlier()).unwrap();
            let max_idx = suod_linalg::rank::argsort_desc(&s)[0];
            assert_eq!(max_idx, 5, "method {method:?}");
        }
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut det = KnnDetector::new(2, KnnMethod::Largest).unwrap();
        det.fit(&cluster_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.05, 0.05], vec![20.0, 20.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > 10.0 * s[0]);
    }

    #[test]
    fn aggregation_methods_differ() {
        let d = [1.0, 2.0, 10.0];
        assert_eq!(KnnMethod::Largest.aggregate(&d), 10.0);
        assert!((KnnMethod::Mean.aggregate(&d) - 13.0 / 3.0).abs() < 1e-12);
        assert_eq!(KnnMethod::Median.aggregate(&d), 2.0);
        // Even-length median.
        assert_eq!(KnnMethod::Median.aggregate(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn parse_method_names() {
        assert_eq!(KnnMethod::parse("largest").unwrap(), KnnMethod::Largest);
        assert_eq!(KnnMethod::parse("mean").unwrap(), KnnMethod::Mean);
        assert_eq!(KnnMethod::parse("median").unwrap(), KnnMethod::Median);
        assert!(KnnMethod::parse("max").is_err());
    }

    #[test]
    fn k_clamps_to_train_size() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut det = KnnDetector::new(50, KnnMethod::Mean).unwrap();
        assert_eq!(det.fit(&x).unwrap().len(), 3);
    }

    #[test]
    fn validates_inputs() {
        assert!(KnnDetector::new(0, KnnMethod::Largest).is_err());
        let mut det = KnnDetector::new(1, KnnMethod::Largest).unwrap();
        assert!(det.fit(&Matrix::zeros(1, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&cluster_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn metric_changes_scores() {
        let x = cluster_with_outlier();
        let mut e = KnnDetector::new(2, KnnMethod::Largest).unwrap();
        let mut m = KnnDetector::new(2, KnnMethod::Largest)
            .unwrap()
            .with_metric(DistanceMetric::Manhattan);
        assert_ne!(e.fit(&x).unwrap(), m.fit(&x).unwrap());
    }

    #[test]
    fn name_reflects_variant() {
        assert_eq!(KnnDetector::new(3, KnnMethod::Mean).unwrap().name(), "aknn");
        assert_eq!(
            KnnDetector::new(3, KnnMethod::Largest).unwrap().name(),
            "knn"
        );
    }
}

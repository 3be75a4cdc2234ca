//! Angle-Based Outlier Detection (Kriegel et al. 2008), fast variant.
//!
//! For each point, consider the vectors to its `k` nearest neighbours.
//! Inliers deep inside the data see neighbours in all directions, so the
//! weighted cosine spectrum over neighbour pairs has high variance;
//! outliers see all other points within a narrow cone, so the variance is
//! small. The angle-based outlier factor (ABOF) is the variance over
//! neighbour pairs `(j, l)` of `<d_j, d_l> / (|d_j|^2 |d_l|^2)` — the
//! 1/(|d_j||d_l|) weighting makes far pairs count less, which is what
//! keeps ABOD meaningful in high dimensions.
//!
//! Scores are negated (`-ABOF`) so that larger = more outlying, matching
//! the PyOD convention used across this workspace.

use crate::{
    check_scoring_input, finite_training_scores, query_then_score, validate_finite, Detector,
    Error, FitContext, Result,
};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// Fast ABOD detector (ABOF over the k-nearest-neighbour cone).
#[derive(Debug, Clone)]
pub struct AbodDetector {
    k: usize,
    index: Option<Arc<KnnIndex>>,
}

impl AbodDetector {
    /// Creates a fast-ABOD detector evaluating angles over `k` neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k < 2` (at least one
    /// neighbour pair is required).
    pub fn new(k: usize) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidParameter(
                "ABOD needs n_neighbors >= 2".into(),
            ));
        }
        Ok(Self { k, index: None })
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// ABOF of `point` against the given neighbour rows; `None` when fewer
    /// than two usable neighbours exist (duplicates are skipped).
    ///
    /// All `O(k²)` inner products come from one packed-gram contraction
    /// over the difference matrix `D` (`d_j = neighbor_j − point`):
    /// `G = D·Dᵀ` supplies both the squared norms (diagonal) and the
    /// pair dots. The micro-kernel accumulates every element over
    /// ascending feature index in a single register — the same reduction
    /// order as the scalar `dot`/`norm_sq` it replaces — so ABOF values
    /// are bitwise identical to the historical per-pair loops.
    fn abof(point: &[f64], neighbors: &Matrix) -> Option<f64> {
        let m = neighbors.nrows();
        let mut diffs = Matrix::zeros(m, neighbors.ncols());
        for j in 0..m {
            let row = diffs.row_mut(j);
            for (t, (&a, &b)) in neighbors.row(j).iter().zip(point).enumerate() {
                row[t] = a - b;
            }
        }
        let g = suod_linalg::gram(&diffs, &diffs, 1, None).expect("diff gram shapes agree");
        let mut values: Vec<f64> = Vec::new();
        for j in 0..m {
            let nj = g.get(j, j);
            if nj <= 1e-300 {
                continue;
            }
            for l in (j + 1)..m {
                let nl = g.get(l, l);
                if nl <= 1e-300 {
                    continue;
                }
                values.push(g.get(j, l) / (nj * nl));
            }
        }
        if values.len() < 2 {
            return None;
        }
        Some(suod_linalg::stats::variance(&values))
    }

    fn score_one(index: &KnnIndex, point: &[f64], nn: &[Neighbor]) -> f64 {
        let idx: Vec<usize> = nn.iter().map(|n| n.index).collect();
        let neighbors = index.train_data().select_rows(&idx);
        match Self::abof(point, &neighbors) {
            // Low ABOF variance = outlier; negate for our convention.
            Some(v) => -v,
            // Degenerate neighbourhoods (all duplicates) are maximally
            // concentrated: treat as highly outlying.
            None => 0.0,
        }
    }
}

impl Detector for AbodDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        self.fit_with_context(x, &FitContext::default())
    }

    fn fit_with_context(&mut self, x: &Matrix, ctx: &FitContext) -> Result<Vec<f64>> {
        if x.nrows() < 3 {
            return Err(Error::InsufficientData {
                needed: "at least 3 samples".into(),
                got: x.nrows(),
            });
        }
        // A single NaN cell silently poisons the cosine-variance
        // accumulation (every neighbourhood containing the row goes NaN);
        // reject typed instead.
        validate_finite(x, "abod fit")?;
        // Leave-one-out lists come batched: pool-shared prefix views when
        // `ctx` carries a cache, a direct `self_query_batch` sweep
        // otherwise.
        let k = self.k.min(x.nrows() - 1);
        let (index, neighbors) = ctx.self_neighbors(x, DistanceMetric::Euclidean, k)?;
        let train_scores = finite_training_scores(
            neighbors
                .iter()
                .enumerate()
                .map(|(i, nn)| Self::score_one(&index, x.row(i), nn))
                .collect(),
        )?;
        self.index = Some(index);
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        query_then_score(self, "AbodDetector", x)
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        self.index.as_ref().map(|ix| (ix, self.k.min(ix.len())))
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let index = self
            .index
            .as_ref()
            .ok_or(Error::NotFitted("AbodDetector"))?;
        check_scoring_input(index, x, neighbors)?;
        Ok(neighbors
            .iter()
            .enumerate()
            .map(|(i, nn)| Self::score_one(index, x.row(i), nn))
            .collect())
    }

    fn name(&self) -> &'static str {
        "abod"
    }

    fn is_fitted(&self) -> bool {
        self.index.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        crate::write_opt_index(self.index.as_deref(), w);
        Ok(())
    }
}

impl AbodDetector {
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
            index: crate::read_opt_index(r, n_threads)?,
        };
        crate::skip_training_scores(r)?;
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_rows_are_degenerate() {
        let mut det = AbodDetector::new(5).unwrap();
        let err = det.fit(&crate::overflowing_rows()).unwrap_err();
        assert!(matches!(err, Error::DegenerateData(_)), "{err:?}");
        assert!(!det.is_fitted());
    }

    fn ring_with_outlier() -> Matrix {
        // Points on a circle (inliers see wide angles) plus a far outlier.
        let mut rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let t = i as f64 * std::f64::consts::TAU / 12.0;
                vec![t.cos(), t.sin()]
            })
            .collect();
        rows.push(vec![15.0, 0.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn outlier_scores_highest() {
        let mut det = AbodDetector::new(6).unwrap();
        let s = det.fit(&ring_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 12);
    }

    #[test]
    fn uniform_scaling_preserves_ranking() {
        // ABOF scales as 1/s^8 under data scaling by s — a per-dataset
        // monotone transform, so the outlier ranking must be unchanged.
        let x = ring_with_outlier();
        let scaled = x.map(|v| v * 3.0);
        let mut a = AbodDetector::new(6).unwrap();
        let mut b = AbodDetector::new(6).unwrap();
        let ra = suod_linalg::rank::argsort_desc(&a.fit(&x).unwrap());
        let rb = suod_linalg::rank::argsort_desc(&b.fit(&scaled).unwrap());
        assert_eq!(ra[0], rb[0]);
        assert_eq!(ra[0], 12);
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut det = AbodDetector::new(6).unwrap();
        det.fit(&ring_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.0, 0.0], vec![40.0, 0.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > s[0], "far query should outscore centre: {s:?}");
    }

    #[test]
    fn duplicates_handled() {
        let mut rows = vec![vec![0.0, 0.0]; 4];
        rows.push(vec![1.0, 1.0]);
        rows.push(vec![2.0, 0.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = AbodDetector::new(3).unwrap();
        assert!(det.fit(&x).unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nan_input_rejected_typed() {
        let mut rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 1.0]).collect();
        rows[3][1] = f64::NAN;
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = AbodDetector::new(3).unwrap();
        assert!(matches!(det.fit(&x), Err(Error::NonFiniteInput(_))));
        assert!(!det.is_fitted());
    }

    #[test]
    fn validates_inputs() {
        assert!(AbodDetector::new(1).is_err());
        let mut det = AbodDetector::new(3).unwrap();
        assert!(det.fit(&Matrix::zeros(2, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&ring_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 7)).is_err());
    }

    #[test]
    fn scores_are_nonpositive() {
        // -variance is always <= 0.
        let mut det = AbodDetector::new(5).unwrap();
        let s = det.fit(&ring_with_outlier()).unwrap();
        assert!(s.iter().all(|&v| v <= 0.0));
    }
}

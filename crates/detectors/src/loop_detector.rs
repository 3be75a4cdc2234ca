//! Local Outlier Probabilities — LoOP (Kriegel et al. 2009).
//!
//! LoOP turns LOF-style density ratios into calibrated probabilities in
//! `[0, 1)`: the probabilistic set distance of a point is compared against
//! its neighbours' and passed through a Gaussian-error normalization. The
//! paper cites LoOP as a representative costly proximity-based model
//! (§1), so it joins the zoo and the costly-algorithm pool `M_c`.

use crate::{check_scoring_input, query_then_score, Detector, Error, FitContext, Result};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// Significance multiplier for the probabilistic set distance
/// (the paper's `lambda`; 3 is the conventional choice).
const LAMBDA: f64 = 3.0;

/// LoOP detector; scores are outlier probabilities in `[0, 1)`.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, LoopDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..25)
///     .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
///     .collect();
/// rows.push(vec![7.0, 7.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = LoopDetector::new(5)?;
/// let s = det.fit(&x)?;
/// assert!(s[25] > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LoopDetector {
    k: usize,
    index: Option<Arc<KnnIndex>>,
    /// Probabilistic set distance per training point.
    pdist: Vec<f64>,
    /// Normalization constant `nPLOF`.
    nplof: f64,
}

impl LoopDetector {
    /// Creates a LoOP detector with `k` neighbours.
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
            index: None,
            pdist: Vec::new(),
            nplof: 0.0,
        })
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    fn pdist_of(neighbors: &[Neighbor]) -> f64 {
        if neighbors.is_empty() {
            return 0.0;
        }
        let mean_sq: f64 = neighbors
            .iter()
            .map(|n| n.distance * n.distance)
            .sum::<f64>()
            / neighbors.len() as f64;
        LAMBDA * mean_sq.sqrt()
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26), max absolute
/// error 1.5e-7 — sufficient for probability calibration.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

impl Detector for LoopDetector {
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

        // Leave-one-out neighbour lists: pool-shared prefix views when
        // `ctx` carries a cache, direct sweep otherwise.
        let (index, neighbors) = ctx.self_neighbors(x, DistanceMetric::Euclidean, k)?;
        let pdist: Vec<f64> = neighbors.iter().map(Self::pdist_of).collect();

        // PLOF: own pdist over the mean of neighbours' pdists, minus 1.
        let plof: Vec<f64> = (0..n)
            .map(|i| {
                let nn = neighbors.get(i);
                let mean_nb: f64 =
                    nn.iter().map(|nb| pdist[nb.index]).sum::<f64>() / nn.len().max(1) as f64;
                if mean_nb <= 1e-300 {
                    0.0
                } else {
                    pdist[i] / mean_nb - 1.0
                }
            })
            .collect();

        // nPLOF = lambda * sqrt(E[PLOF^2]).
        let mean_sq: f64 = plof.iter().map(|p| p * p).sum::<f64>() / n as f64;
        let nplof = (LAMBDA * mean_sq.sqrt()).max(1e-12);

        let train_scores = plof
            .iter()
            .map(|&p| erf(p / (nplof * std::f64::consts::SQRT_2)).max(0.0))
            .collect();
        self.pdist = pdist;
        self.nplof = nplof;
        self.index = Some(index);
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        query_then_score(self, "LoopDetector", x)
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        self.index.as_ref().map(|ix| (ix, self.k.min(ix.len())))
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let index = self
            .index
            .as_ref()
            .ok_or(Error::NotFitted("LoopDetector"))?;
        check_scoring_input(index, x, neighbors)?;
        let mut scores = Vec::with_capacity(x.nrows());
        for nn in neighbors {
            let pd_q = Self::pdist_of(nn);
            let mean_nb: f64 =
                nn.iter().map(|nb| self.pdist[nb.index]).sum::<f64>() / nn.len().max(1) as f64;
            let plof = if mean_nb <= 1e-300 {
                0.0
            } else {
                pd_q / mean_nb - 1.0
            };
            scores.push(erf(plof / (self.nplof * std::f64::consts::SQRT_2)).max(0.0));
        }
        Ok(scores)
    }

    fn name(&self) -> &'static str {
        "loop"
    }

    fn is_fitted(&self) -> bool {
        self.index.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        crate::write_opt_index(self.index.as_deref(), w);
        w.write_f64s(&self.pdist);
        w.write_f64(self.nplof);
        Ok(())
    }
}

impl LoopDetector {
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
            pdist: r.read_f64s()?,
            nplof: r.read_f64()?,
        };
        crate::skip_training_scores(r)?;
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![7.0, 7.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn scores_are_probabilities() {
        let mut det = LoopDetector::new(5).unwrap();
        let s = det.fit(&grid_with_outlier()).unwrap();
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn outlier_probability_near_one() {
        let mut det = LoopDetector::new(5).unwrap();
        let s = det.fit(&grid_with_outlier()).unwrap();
        assert!(s[25] > 0.9, "outlier LoOP {}", s[25]);
        // Grid points should be far less suspicious.
        assert!(s[..25].iter().all(|&v| v < s[25]));
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn new_point_scoring() {
        let mut det = LoopDetector::new(5).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.2, 0.2], vec![30.0, 30.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        // nPLOF is calibrated on the training set (which contains its own
        // big outlier), so the far query's probability is dampened; the
        // ordering and a clear margin are the meaningful invariants.
        assert!(s[1] > 0.3, "far query LoOP {}", s[1]);
        assert!(s[1] > 2.0 * s[0].max(0.05), "{s:?}");
        assert!(s[0] < 0.5);
    }

    #[test]
    fn uniform_data_low_probabilities() {
        let rows: Vec<Vec<f64>> = (0..36)
            .map(|i| vec![(i % 6) as f64, (i / 6) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = LoopDetector::new(4).unwrap();
        let s = det.fit(&x).unwrap();
        let mean = suod_linalg::stats::mean(&s);
        assert!(mean < 0.35, "mean LoOP on uniform grid {mean}");
    }

    #[test]
    fn validates_inputs() {
        assert!(LoopDetector::new(0).is_err());
        let mut det = LoopDetector::new(3).unwrap();
        assert!(det.fit(&Matrix::zeros(2, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&grid_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn duplicates_handled() {
        let rows = vec![vec![0.0, 0.0]; 8];
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = LoopDetector::new(3).unwrap();
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
    }
}

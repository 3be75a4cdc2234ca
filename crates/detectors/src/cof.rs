//! Connectivity-based Outlier Factor — COF (Tang et al., PAKDD 2002).
//!
//! LOF struggles when outliers deviate from *patterns* (e.g. points off a
//! line) rather than from density. COF replaces LOF's reachability
//! density with the **average chaining distance**: the cost of greedily
//! linking a point's neighbourhood one nearest point at a time (the
//! set-based nearest path), with earlier links weighted more heavily.
//! A point whose neighbourhood chains much more expensively than its
//! neighbours' do is connectivity-isolated:
//!
//! ```text
//! COF(p) = ac_dist(p) / mean_{o in N_k(p)} ac_dist(o)
//! ```

use crate::{
    check_scoring_input, finite_training_scores, query_then_score, Detector, Error, FitContext,
    Result,
};
use std::sync::Arc;
use suod_linalg::distance::Neighbor;
use suod_linalg::{DistanceMetric, KnnIndex, Matrix};

/// COF detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{CofDetector, Detector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// // Points on a line; one point dangles off the pattern.
/// let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
/// rows.push(vec![5.0, 3.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut cof = CofDetector::new(5)?;
/// let s = cof.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CofDetector {
    k: usize,
    index: Option<Arc<KnnIndex>>,
    /// Average chaining distance of each training point.
    ac_dist: Vec<f64>,
}

impl CofDetector {
    /// Creates a COF detector with `k` neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k < 2` (the chain needs
    /// at least two links).
    pub fn new(k: usize) -> Result<Self> {
        if k < 2 {
            return Err(Error::InvalidParameter("n_neighbors must be >= 2".into()));
        }
        Ok(Self {
            k,
            index: None,
            ac_dist: Vec::new(),
        })
    }

    /// Neighbourhood size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Average chaining distance of `point` over the rows `neighbors`
    /// (the set-based nearest path cost with linearly decaying weights).
    fn average_chaining_distance(metric: DistanceMetric, point: &[f64], neighbors: &Matrix) -> f64 {
        let k = neighbors.nrows();
        if k == 0 {
            return 0.0;
        }
        // Greedy SBN path: start from {point}, repeatedly attach the
        // remaining neighbour closest to the current set.
        let mut in_set: Vec<&[f64]> = vec![point];
        let mut remaining: Vec<usize> = (0..k).collect();
        // min_dist[j] = distance of remaining neighbour j to the set.
        let mut min_dist: Vec<f64> = (0..k)
            .map(|j| metric.distance(point, neighbors.row(j)))
            .collect();

        let denom = (k * (k + 1)) as f64;
        let mut acc = 0.0;
        for step in 1..=k {
            // Pick the closest remaining neighbour.
            let (pos, &j) = remaining
                .iter()
                .enumerate()
                .min_by(|&(_, &a), &(_, &b)| {
                    min_dist[a]
                        .partial_cmp(&min_dist[b])
                        .expect("finite distances")
                })
                .expect("remaining non-empty");
            let edge = min_dist[j];
            // Weight 2(k+1-step) / (k(k+1)): early links dominate.
            acc += (2.0 * (k + 1 - step) as f64 / denom) * edge;

            let new_row = neighbors.row(j);
            in_set.push(new_row);
            remaining.swap_remove(pos);
            for &r in &remaining {
                let d = metric.distance(new_row, neighbors.row(r));
                if d < min_dist[r] {
                    min_dist[r] = d;
                }
            }
        }
        acc
    }

    fn score_query(&self, index: &KnnIndex, q: &[f64], nn: &[Neighbor]) -> f64 {
        let ids: Vec<usize> = nn.iter().map(|n| n.index).collect();
        let neighbors = index.train_data().select_rows(&ids);
        let ac_q = Self::average_chaining_distance(index.metric(), q, &neighbors);
        let mean_nb: f64 =
            ids.iter().map(|&i| self.ac_dist[i]).sum::<f64>() / ids.len().max(1) as f64;
        if mean_nb <= 1e-300 {
            if ac_q <= 1e-300 {
                1.0
            } else {
                1e12
            }
        } else {
            ac_q / mean_nb
        }
    }
}

impl Detector for CofDetector {
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

        // Leave-one-out neighbour lists (pool-shared prefix views or a
        // direct sweep) and chaining distances.
        let (index, neighbors) = ctx.self_neighbors(x, DistanceMetric::Euclidean, k)?;
        let neighbor_ids: Vec<Vec<usize>> = neighbors
            .iter()
            .map(|nn| nn.iter().map(|nb| nb.index).collect())
            .collect();
        let ac_dist: Vec<f64> = (0..n)
            .map(|i| {
                let neighbors = x.select_rows(&neighbor_ids[i]);
                Self::average_chaining_distance(DistanceMetric::Euclidean, x.row(i), &neighbors)
            })
            .collect();

        let train_scores = (0..n)
            .map(|i| {
                let mean_nb: f64 = neighbor_ids[i].iter().map(|&j| ac_dist[j]).sum::<f64>()
                    / neighbor_ids[i].len().max(1) as f64;
                if mean_nb <= 1e-300 {
                    if ac_dist[i] <= 1e-300 {
                        1.0
                    } else {
                        1e12
                    }
                } else {
                    ac_dist[i] / mean_nb
                }
            })
            .collect();
        let train_scores = finite_training_scores(train_scores)?;
        self.ac_dist = ac_dist;
        self.index = Some(index);
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        query_then_score(self, "CofDetector", x)
    }

    fn neighbor_query(&self) -> Option<(&Arc<KnnIndex>, usize)> {
        self.index.as_ref().map(|ix| (ix, self.k.min(ix.len())))
    }

    fn score_from_neighbors(&self, x: &Matrix, neighbors: &[&[Neighbor]]) -> Result<Vec<f64>> {
        let index = self.index.as_ref().ok_or(Error::NotFitted("CofDetector"))?;
        check_scoring_input(index, x, neighbors)?;
        Ok(neighbors
            .iter()
            .enumerate()
            .map(|(i, nn)| self.score_query(index, x.row(i), nn))
            .collect())
    }

    fn name(&self) -> &'static str {
        "cof"
    }

    fn is_fitted(&self) -> bool {
        self.index.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.k);
        crate::write_opt_index(self.index.as_deref(), w);
        w.write_f64s(&self.ac_dist);
        Ok(())
    }
}

impl CofDetector {
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
            ac_dist: r.read_f64s()?,
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
        let mut det = CofDetector::new(5).unwrap();
        let err = det.fit(&crate::overflowing_rows()).unwrap_err();
        assert!(matches!(err, Error::DegenerateData(_)), "{err:?}");
        assert!(!det.is_fitted());
    }

    /// Points along a line with one pattern-breaking point above it —
    /// the scenario COF was designed for (density alone barely separates
    /// it).
    fn line_with_deviant() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.4, 0.0]).collect();
        rows.push(vec![6.0, 2.5]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn flags_pattern_deviation() {
        let mut cof = CofDetector::new(5).unwrap();
        let s = cof.fit(&line_with_deviant()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 30);
        assert!(s[30] > 1.2, "deviant COF {}", s[30]);
    }

    #[test]
    fn line_points_score_near_one() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.4, 0.0]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut cof = CofDetector::new(5).unwrap();
        let s = cof.fit(&x).unwrap();
        // Interior points chain exactly like their neighbours.
        assert!((s[15] - 1.0).abs() < 0.2, "interior COF {}", s[15]);
    }

    #[test]
    fn chaining_distance_manual_case() {
        // point at 0; neighbors at 1 and 2 on a line. SBN path: attach 1
        // (edge 1), then 2 (edge 1 from point 1). k=2:
        // ac = 2(2)/(2*3)*1 + 2(1)/(2*3)*1 = 2/3 + 1/3 = 1.
        let neighbors = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let ac =
            CofDetector::average_chaining_distance(DistanceMetric::Euclidean, &[0.0], &neighbors);
        assert!((ac - 1.0).abs() < 1e-12, "{ac}");
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut cof = CofDetector::new(5).unwrap();
        cof.fit(&line_with_deviant()).unwrap();
        let q = Matrix::from_rows(&[vec![5.0, 0.0], vec![5.0, 4.0]]).unwrap();
        let s = cof.decision_function(&q).unwrap();
        assert!(s[1] > s[0], "{s:?}");
    }

    #[test]
    fn duplicates_handled() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 8]).unwrap();
        let mut cof = CofDetector::new(3).unwrap();
        let cof_scores = cof.fit(&x).unwrap();
        assert!(cof_scores.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn validates_inputs() {
        assert!(CofDetector::new(1).is_err());
        let mut cof = CofDetector::new(3).unwrap();
        assert!(cof.fit(&Matrix::zeros(2, 2)).is_err());
        assert!(cof.decision_function(&Matrix::zeros(1, 2)).is_err());
        cof.fit(&line_with_deviant()).unwrap();
        assert!(cof.decision_function(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn deterministic() {
        let x = line_with_deviant();
        let mut a = CofDetector::new(4).unwrap();
        let mut b = CofDetector::new(4).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
    }
}

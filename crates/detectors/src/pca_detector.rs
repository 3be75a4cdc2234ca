//! PCA-based anomaly detection (Shyu et al. 2003).
//!
//! Outliers violate the correlation structure of the data: projecting a
//! sample onto the covariance eigenvectors and normalizing each
//! coordinate by its eigenvalue yields large values exactly when the
//! sample deviates along directions where the data barely varies. The
//! score is the eigenvalue-weighted squared distance over the **minor**
//! components (those after the first `variance_retained` share of
//! variance), the "principal component classifier" the paper cites in its
//! related work (§2.2) and PyOD ships as `PCA`.

use crate::{check_dims, Detector, Error, Result};
use suod_linalg::{symmetric_eigen, Matrix};

/// PCA anomaly detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, PcaDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// // Data lies on the line y = x; the outlier breaks the correlation.
/// let mut rows: Vec<Vec<f64>> = (0..30).map(|i| {
///     let t = i as f64 * 0.1;
///     vec![t, t + 0.01 * ((i % 3) as f64 - 1.0)]
/// }).collect();
/// rows.push(vec![1.5, -1.5]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = PcaDetector::new(0.7)?;
/// let s = det.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PcaDetector {
    variance_retained: f64,
    means: Vec<f64>,
    /// Minor-component eigenvectors as matrix columns (`d x m`).
    minor_components: Option<Matrix>,
    /// Matching eigenvalues (floored away from zero).
    minor_values: Vec<f64>,
}

impl PcaDetector {
    /// Creates a detector that treats the eigenvectors after the first
    /// `variance_retained` share of total variance as the minor (scoring)
    /// subspace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `variance_retained` is not
    /// in `(0, 1)`.
    pub fn new(variance_retained: f64) -> Result<Self> {
        if !(variance_retained > 0.0 && variance_retained < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "variance_retained must be in (0, 1), got {variance_retained}"
            )));
        }
        Ok(Self {
            variance_retained,
            means: Vec::new(),
            minor_components: None,
            minor_values: Vec::new(),
        })
    }

    /// Share of variance assigned to the major (ignored) subspace.
    pub fn variance_retained(&self) -> f64 {
        self.variance_retained
    }

    /// Number of minor components used for scoring (after `fit`).
    pub fn n_minor_components(&self) -> usize {
        self.minor_values.len()
    }

    /// Scores every row of `x`, each centred into one reused buffer.
    fn score_rows(&self, x: &Matrix) -> Vec<f64> {
        let comp = self.minor_components.as_ref().expect("called after fit");
        let mut centered = vec![0.0; self.means.len()];
        x.rows_iter()
            .map(|row| {
                center_into(&mut centered, row, &self.means);
                let mut score = 0.0;
                for (j, &lambda) in self.minor_values.iter().enumerate() {
                    let mut proj = 0.0;
                    for (i, &c) in centered.iter().enumerate() {
                        proj += c * comp.get(i, j);
                    }
                    score += proj * proj / lambda;
                }
                score
            })
            .collect()
    }
}

/// `out[i] = row[i] - means[i]`.
fn center_into(out: &mut [f64], row: &[f64], means: &[f64]) {
    for ((o, &v), &m) in out.iter_mut().zip(row).zip(means) {
        *o = v - m;
    }
}

impl Detector for PcaDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        let (n, d) = x.shape();
        if n < 3 {
            return Err(Error::InsufficientData {
                needed: "at least 3 samples".into(),
                got: n,
            });
        }
        self.means = suod_linalg::stats::column_means(x);

        // Covariance.
        let mut cov = Matrix::zeros(d, d);
        let mut centered = vec![0.0; d];
        for row in x.rows_iter() {
            center_into(&mut centered, row, &self.means);
            for (i, &xi) in centered.iter().enumerate() {
                for (c, &xj) in cov.row_mut(i)[i..].iter_mut().zip(&centered[i..]) {
                    *c += xi * xj;
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                let v = cov.get(i, j) / (n - 1) as f64;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        // Extreme-magnitude inputs overflow the covariance accumulation;
        // the eigensolver would then iterate on inf/NaN forever or return
        // garbage directions, so reject the singular matrix up front.
        if cov.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(Error::DegenerateData(
                "covariance matrix has non-finite entries (input overflow?)".into(),
            ));
        }
        let eig = symmetric_eigen(&cov)?;
        if eig.values.iter().any(|v| !v.is_finite()) {
            return Err(Error::DegenerateData(
                "covariance eigendecomposition produced non-finite eigenvalues".into(),
            ));
        }

        // Split major/minor by cumulative explained variance.
        let total: f64 = eig.values.iter().map(|v| v.max(0.0)).sum();
        let mut cutoff = d;
        if total > 0.0 {
            let mut cum = 0.0;
            for (i, &v) in eig.values.iter().enumerate() {
                cum += v.max(0.0);
                if cum / total >= self.variance_retained {
                    cutoff = i + 1;
                    break;
                }
            }
        }
        // At least one minor component; all-but-first at most.
        let cutoff = cutoff.min(d - 1).max(1.min(d - 1));
        let minor: Vec<usize> = (cutoff..d).collect();
        self.minor_components = Some(eig.vectors.select_cols(&minor));
        // Floor eigenvalues: near-null directions would otherwise divide
        // by ~0 and let noise dominate.
        let floor = (total / d as f64) * 1e-6 + 1e-12;
        self.minor_values = minor.iter().map(|&i| eig.values[i].max(floor)).collect();
        Ok(self.score_rows(x))
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.minor_components.is_none() {
            return Err(Error::NotFitted("PcaDetector"));
        }
        check_dims(self.means.len(), x)?;
        Ok(self.score_rows(x))
    }

    fn name(&self) -> &'static str {
        "pca"
    }

    fn is_fitted(&self) -> bool {
        self.minor_components.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_f64(self.variance_retained);
        w.write_f64s(&self.means);
        match &self.minor_components {
            Some(mc) => {
                w.write_bool(true);
                w.write_matrix(mc);
            }
            None => w.write_bool(false),
        }
        w.write_f64s(&self.minor_values);
        Ok(())
    }
}

impl PcaDetector {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let variance_retained = r.read_f64()?;
        let means = r.read_f64s()?;
        let minor_components = if r.read_bool()? {
            Some(r.read_matrix()?)
        } else {
            None
        };
        let minor_values = r.read_f64s()?;
        crate::skip_training_scores(r)?;
        Ok(Self {
            variance_retained,
            means,
            minor_components,
            minor_values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Correlated 2-D cloud plus one correlation-breaking outlier.
    fn correlated_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = (i as f64 - 20.0) * 0.2;
                vec![t, 2.0 * t + 0.05 * ((i % 5) as f64 - 2.0)]
            })
            .collect();
        rows.push(vec![2.0, -4.0]); // far off the y = 2x line
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn flags_correlation_breaker() {
        let mut det = PcaDetector::new(0.9).unwrap();
        let s = det.fit(&correlated_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 40);
        assert!(det.n_minor_components() >= 1);
    }

    #[test]
    fn on_line_queries_score_low() {
        let mut det = PcaDetector::new(0.9).unwrap();
        det.fit(&correlated_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, -2.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > 10.0 * s[0], "{s:?}");
    }

    #[test]
    fn validates_inputs() {
        assert!(PcaDetector::new(0.0).is_err());
        assert!(PcaDetector::new(1.0).is_err());
        let mut det = PcaDetector::new(0.5).unwrap();
        assert!(det.fit(&Matrix::zeros(2, 3)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&correlated_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn deterministic() {
        let x = correlated_with_outlier();
        let mut a = PcaDetector::new(0.8).unwrap();
        let mut b = PcaDetector::new(0.8).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn scores_nonnegative_and_finite() {
        let mut det = PcaDetector::new(0.5).unwrap();
        let scores = det.fit(&correlated_with_outlier()).unwrap();
        assert!(scores.iter().all(|&v| v.is_finite() && v >= 0.0));
    }

    #[test]
    fn overflowing_covariance_reports_degenerate_data() {
        // Entries near f64::MAX overflow the covariance accumulation to
        // inf; fit must fail typed rather than hand inf to the
        // eigensolver.
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![1e200 * (i as f64 - 2.0), -1e200 * i as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = PcaDetector::new(0.5).unwrap();
        assert!(matches!(det.fit(&x), Err(Error::DegenerateData(_))));
        assert!(!det.is_fitted());
    }

    #[test]
    fn constant_data_handled() {
        let x = Matrix::filled(10, 3, 2.0);
        let mut det = PcaDetector::new(0.5).unwrap();
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
    }
}

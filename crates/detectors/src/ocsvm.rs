//! One-Class Support Vector Machine (Schölkopf et al. 2001).
//!
//! Solves the dual problem
//!
//! ```text
//! min_a  1/2 a' Q a    s.t.  0 <= a_i <= 1/(nu * n),  sum a_i = 1
//! ```
//!
//! with a Sequential Minimal Optimization (SMO) loop using maximal-
//! violating-pair working-set selection, the same scheme as libsvm.
//! Kernel columns are computed on demand (no `n x n` kernel matrix), so
//! memory stays `O(n)` at the cost of `O(n d)` work per SMO iteration —
//! OCSVM is one of the "costly" families SUOD approximates away at
//! prediction time, and this implementation honestly reproduces that cost
//! profile.
//!
//! The decision function is `f(x) = sum_i a_i k(x_i, x) - rho`; training
//! points with `f < 0` are the fraction `nu` of margin violations.
//! Outlyingness scores are `-f(x)` (larger = more outlying).

use crate::{check_dims, Detector, Error, Result};
use suod_linalg::{matrix::dot, Matrix};

/// Kernel functions for [`OcsvmDetector`], matching the paper's grid
/// (`linear`, `poly`, `rbf`, `sigmoid`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(x, y) = <x, y>`.
    Linear,
    /// `k(x, y) = (gamma <x, y> + coef0)^degree`.
    Poly {
        /// Kernel coefficient.
        gamma: f64,
        /// Independent term.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
    /// `k(x, y) = exp(-gamma |x - y|^2)`.
    Rbf {
        /// Kernel coefficient.
        gamma: f64,
    },
    /// `k(x, y) = tanh(gamma <x, y> + coef0)`.
    Sigmoid {
        /// Kernel coefficient.
        gamma: f64,
        /// Independent term.
        coef0: f64,
    },
}

impl Kernel {
    /// Parses a PyOD-style kernel name with the default parameters used in
    /// the paper's grid (`gamma = 1/d` is substituted at fit time when the
    /// stored gamma is 0).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "linear" => Ok(Kernel::Linear),
            "poly" => Ok(Kernel::Poly {
                gamma: 0.0,
                coef0: 1.0,
                degree: 3,
            }),
            "rbf" => Ok(Kernel::Rbf { gamma: 0.0 }),
            "sigmoid" => Ok(Kernel::Sigmoid {
                gamma: 0.0,
                coef0: 0.0,
            }),
            other => Err(Error::InvalidParameter(format!("unknown kernel `{other}`"))),
        }
    }

    /// Resolves `gamma = 0` placeholders to `1/d`.
    #[allow(clippy::redundant_guards)] // f64 literal patterns are deprecated
    fn resolved(self, d: usize) -> Self {
        let auto = 1.0 / d.max(1) as f64;
        match self {
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } if gamma == 0.0 => Kernel::Poly {
                gamma: auto,
                coef0,
                degree,
            },
            Kernel::Rbf { gamma } if gamma == 0.0 => Kernel::Rbf { gamma: auto },
            Kernel::Sigmoid { gamma, coef0 } if gamma == 0.0 => {
                Kernel::Sigmoid { gamma: auto, coef0 }
            }
            other => other,
        }
    }

    /// Evaluates the kernel on two rows.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(a, b) + coef0).powi(degree as i32),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
            Kernel::Sigmoid { gamma, coef0 } => (gamma * dot(a, b) + coef0).tanh(),
        }
    }
}

/// One-class SVM detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, Kernel, OcsvmDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![(i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1])
///     .collect();
/// rows.push(vec![9.0, 9.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = OcsvmDetector::new(0.1, Kernel::Rbf { gamma: 0.0 })?;
/// let s = det.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OcsvmDetector {
    nu: f64,
    kernel: Kernel,
    max_iter: usize,
    tol: f64,
    // Fitted state.
    support_vectors: Option<Matrix>,
    alphas: Vec<f64>,
    rho: f64,
}

impl OcsvmDetector {
    /// Creates an OCSVM with margin parameter `nu` (the asymptotic
    /// fraction of training points treated as outliers) and the given
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `nu` is outside `(0, 1)`.
    pub fn new(nu: f64, kernel: Kernel) -> Result<Self> {
        if !(nu > 0.0 && nu < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "nu must be in (0, 1), got {nu}"
            )));
        }
        Ok(Self {
            nu,
            kernel,
            max_iter: 20_000,
            tol: 1e-4,
            support_vectors: None,
            alphas: Vec::new(),
            rho: 0.0,
        })
    }

    /// Overrides the SMO iteration cap (default 20,000).
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// The margin parameter.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// The kernel (with `gamma` still unresolved if constructed with 0).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The offset `rho` of the fitted decision function.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn rho(&self) -> Result<f64> {
        if self.support_vectors.is_none() {
            return Err(Error::NotFitted("OcsvmDetector"));
        }
        Ok(self.rho)
    }

    /// Kernel column `Q[., i]` against all training rows.
    fn kernel_column(kernel: &Kernel, x: &Matrix, i: usize) -> Vec<f64> {
        let xi = x.row(i);
        (0..x.nrows()).map(|j| kernel.eval(x.row(j), xi)).collect()
    }

    /// Decision value `sum_j a_j k(x_j, q) - rho` for a query row.
    fn decision_value(&self, q: &[f64]) -> f64 {
        let sv = self.support_vectors.as_ref().expect("fitted");
        let kernel = self.kernel.resolved(sv.ncols());
        let mut acc = 0.0;
        for (j, &a) in self.alphas.iter().enumerate() {
            if a > 0.0 {
                acc += a * kernel.eval(sv.row(j), q);
            }
        }
        acc - self.rho
    }
}

impl Detector for OcsvmDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        let n = x.nrows();
        if n < 2 {
            return Err(Error::InsufficientData {
                needed: "at least 2 samples".into(),
                got: n,
            });
        }
        let kernel = self.kernel.resolved(x.ncols());
        let c = 1.0 / (self.nu * n as f64);

        // libsvm-style feasible start: the first floor(nu*n) points get
        // alpha = C, one fractional remainder, rest zero.
        let n_full = (self.nu * n as f64).floor() as usize;
        let mut alpha = vec![0.0; n];
        for a in alpha.iter_mut().take(n_full.min(n)) {
            *a = c;
        }
        if n_full < n {
            alpha[n_full] = 1.0 - n_full as f64 * c;
        }

        // Gradient g = Q alpha, built from the nonzero alphas.
        let mut g = vec![0.0; n];
        for (i, &a) in alpha.iter().enumerate() {
            if a > 0.0 {
                let col = Self::kernel_column(&kernel, x, i);
                for (gj, &q) in g.iter_mut().zip(&col) {
                    *gj += a * q;
                }
            }
        }
        let diag: Vec<f64> = (0..n).map(|i| kernel.eval(x.row(i), x.row(i))).collect();

        // SMO with maximal-violating-pair selection.
        for _iter in 0..self.max_iter {
            // i: can increase (alpha_i < C), smallest gradient.
            // j: can decrease (alpha_j > 0), largest gradient.
            let mut i_best: Option<usize> = None;
            let mut j_best: Option<usize> = None;
            for t in 0..n {
                if alpha[t] < c - 1e-15 && i_best.is_none_or(|b| g[t] < g[b]) {
                    i_best = Some(t);
                }
                if alpha[t] > 1e-15 && j_best.is_none_or(|b| g[t] > g[b]) {
                    j_best = Some(t);
                }
            }
            let (Some(i), Some(j)) = (i_best, j_best) else {
                break;
            };
            if g[j] - g[i] < self.tol {
                break; // KKT satisfied.
            }

            let col_i = Self::kernel_column(&kernel, x, i);
            let col_j = Self::kernel_column(&kernel, x, j);
            // Curvature; guarded for non-PSD kernels (sigmoid).
            let eta = (diag[i] + diag[j] - 2.0 * col_i[j]).max(1e-12);
            let mut t_step = (g[j] - g[i]) / eta;
            t_step = t_step.min(c - alpha[i]).min(alpha[j]);
            if t_step <= 0.0 {
                break;
            }
            alpha[i] += t_step;
            alpha[j] -= t_step;
            for k in 0..n {
                g[k] += t_step * (col_i[k] - col_j[k]);
            }
        }

        // rho: mean gradient over free support vectors, else midpoint of
        // the KKT interval.
        let free: Vec<f64> = (0..n)
            .filter(|&t| alpha[t] > 1e-12 && alpha[t] < c - 1e-12)
            .map(|t| g[t])
            .collect();
        self.rho = if !free.is_empty() {
            suod_linalg::stats::mean(&free)
        } else {
            let ub = (0..n)
                .filter(|&t| alpha[t] <= 1e-12)
                .map(|t| g[t])
                .fold(f64::INFINITY, f64::min);
            let lb = (0..n)
                .filter(|&t| alpha[t] >= c - 1e-12)
                .map(|t| g[t])
                .fold(f64::NEG_INFINITY, f64::max);
            match (lb.is_finite(), ub.is_finite()) {
                (true, true) => 0.5 * (lb + ub),
                (true, false) => lb,
                (false, true) => ub,
                (false, false) => 0.0,
            }
        };

        // A non-PSD kernel on extreme inputs can blow the gradient up to
        // inf/NaN without tripping the KKT break: surface that as a typed
        // non-convergence instead of publishing a garbage model.
        if !self.rho.is_finite() || g.iter().any(|v| !v.is_finite()) {
            return Err(Error::NonConvergence(
                "SMO produced non-finite gradient/offset (kernel overflow?)".into(),
            ));
        }

        // Training scores: f(x_i) = g_i - rho; outlyingness = rho - g_i.
        let train_scores = g.iter().map(|&gi| self.rho - gi).collect();
        self.alphas = alpha;
        self.support_vectors = Some(x.clone());
        Ok(train_scores)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        let sv = self
            .support_vectors
            .as_ref()
            .ok_or(Error::NotFitted("OcsvmDetector"))?;
        check_dims(sv.ncols(), x)?;
        Ok(x.rows_iter().map(|row| -self.decision_value(row)).collect())
    }

    fn name(&self) -> &'static str {
        "ocsvm"
    }

    fn is_fitted(&self) -> bool {
        self.support_vectors.is_some()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_f64(self.nu);
        match self.kernel {
            Kernel::Linear => w.write_u8(0),
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => {
                w.write_u8(1);
                w.write_f64(gamma);
                w.write_f64(coef0);
                w.write_u64(u64::from(degree));
            }
            Kernel::Rbf { gamma } => {
                w.write_u8(2);
                w.write_f64(gamma);
            }
            Kernel::Sigmoid { gamma, coef0 } => {
                w.write_u8(3);
                w.write_f64(gamma);
                w.write_f64(coef0);
            }
        }
        w.write_usize(self.max_iter);
        w.write_f64(self.tol);
        match &self.support_vectors {
            Some(sv) => {
                w.write_bool(true);
                w.write_matrix(sv);
            }
            None => w.write_bool(false),
        }
        w.write_f64s(&self.alphas);
        w.write_f64(self.rho);
        Ok(())
    }
}

impl OcsvmDetector {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let nu = r.read_f64()?;
        let kernel = match r.read_u8()? {
            0 => Kernel::Linear,
            1 => Kernel::Poly {
                gamma: r.read_f64()?,
                coef0: r.read_f64()?,
                degree: u32::try_from(r.read_u64()?).map_err(|_| {
                    Error::InvalidParameter("snapshot: poly degree overflows u32".into())
                })?,
            },
            2 => Kernel::Rbf {
                gamma: r.read_f64()?,
            },
            3 => Kernel::Sigmoid {
                gamma: r.read_f64()?,
                coef0: r.read_f64()?,
            },
            other => {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: unknown ocsvm kernel tag {other}"
                )))
            }
        };
        let max_iter = r.read_usize()?;
        let tol = r.read_f64()?;
        let support_vectors = if r.read_bool()? {
            Some(r.read_matrix()?)
        } else {
            None
        };
        let (alphas, rho) = (r.read_f64s()?, r.read_f64()?);
        crate::skip_training_scores(r)?;
        Ok(Self {
            nu,
            kernel,
            max_iter,
            tol,
            support_vectors,
            alphas,
            rho,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1])
            .collect();
        rows.push(vec![9.0, 9.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn rbf_flags_far_point() {
        let mut det = OcsvmDetector::new(0.1, Kernel::Rbf { gamma: 0.0 }).unwrap();
        let s = det.fit(&blob_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 40);
    }

    #[test]
    fn decision_function_orders_queries() {
        let mut det = OcsvmDetector::new(0.2, Kernel::Rbf { gamma: 0.5 }).unwrap();
        det.fit(&blob_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.35, 0.2], vec![15.0, -3.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > s[0]);
    }

    #[test]
    fn alpha_constraints_hold() {
        let x = blob_with_outlier();
        let n = x.nrows();
        let nu = 0.3;
        let mut det = OcsvmDetector::new(nu, Kernel::Rbf { gamma: 1.0 }).unwrap();
        det.fit(&x).unwrap();
        let c = 1.0 / (nu * n as f64);
        let sum: f64 = det.alphas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum(alpha) = {sum}");
        assert!(det
            .alphas
            .iter()
            .all(|&a| (-1e-12..=c + 1e-12).contains(&a)));
    }

    #[test]
    fn nu_controls_margin_violations() {
        // Roughly a nu-fraction of training points should have f < 0
        // (score > 0), per the nu-property.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..100 {
            rows.push(vec![((i % 10) as f64) * 0.3, ((i / 10) as f64) * 0.3]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let nu = 0.3;
        let mut det = OcsvmDetector::new(nu, Kernel::Rbf { gamma: 1.0 }).unwrap();
        let s = det.fit(&x).unwrap();
        let frac = s.iter().filter(|&&v| v > 1e-9).count() as f64 / s.len() as f64;
        assert!(
            (frac - nu).abs() < 0.2,
            "violation fraction {frac} too far from nu={nu}"
        );
    }

    #[test]
    fn all_kernels_run() {
        let x = blob_with_outlier();
        for name in ["linear", "poly", "rbf", "sigmoid"] {
            let kernel = Kernel::parse(name).unwrap();
            let mut det = OcsvmDetector::new(0.2, kernel).unwrap();
            let s = det.fit(&x).unwrap();
            assert!(s.iter().all(|v| v.is_finite()), "kernel {name}");
            let q = det.decision_function(&x).unwrap();
            assert_eq!(q.len(), x.nrows(), "kernel {name}");
        }
    }

    #[test]
    fn kernel_eval_reference_values() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert_eq!(Kernel::Linear.eval(&a, &b), 0.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&a, &b) - (-1.0f64).exp()).abs() < 1e-12);
        let poly = Kernel::Poly {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        assert_eq!(poly.eval(&a, &a), 4.0);
        let sig = Kernel::Sigmoid {
            gamma: 1.0,
            coef0: 0.0,
        };
        assert!((sig.eval(&a, &a) - 1f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn training_scores_match_decision_function() {
        // For a converged solve, fit's scores ~ -f(x_i) recomputed.
        let x = blob_with_outlier();
        let mut det = OcsvmDetector::new(0.2, Kernel::Rbf { gamma: 1.0 }).unwrap();
        let from_fit = det.fit(&x).unwrap();
        let recomputed = det.decision_function(&x).unwrap();
        for (a, b) in from_fit.iter().zip(&recomputed) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn overflowing_kernel_reports_non_convergence() {
        // Poly kernel on astronomically scaled data overflows to inf in
        // the very first gradient build; the fit must surface a typed
        // NonConvergence instead of a silently garbage model.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![1e200 * (i + 1) as f64, -1e200])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let kernel = Kernel::Poly {
            gamma: 1.0,
            coef0: 0.0,
            degree: 3,
        };
        let mut det = OcsvmDetector::new(0.5, kernel).unwrap().with_max_iter(50);
        assert!(matches!(det.fit(&x), Err(Error::NonConvergence(_))));
        assert!(!det.is_fitted());
    }

    #[test]
    fn validates_inputs() {
        assert!(OcsvmDetector::new(0.0, Kernel::Linear).is_err());
        assert!(OcsvmDetector::new(1.0, Kernel::Linear).is_err());
        assert!(Kernel::parse("laplacian").is_err());
        let mut det = OcsvmDetector::new(0.5, Kernel::Linear).unwrap();
        assert!(det.fit(&Matrix::zeros(1, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&blob_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 3)).is_err());
    }
}

//! Johnson–Lindenstrauss random projections (paper §3.3).
//!
//! The transform is `f(x) = (1/sqrt(k)) x W^T` with `W` a `k x d` random
//! matrix. Four constructions from the paper:
//!
//! * [`JlVariant::Basic`] — i.i.d. standard Gaussian entries;
//! * [`JlVariant::Discrete`] — i.i.d. Rademacher (±1) entries;
//! * [`JlVariant::Circulant`] — the first row is Gaussian, each subsequent
//!   row is a cyclic right-shift of the previous one;
//! * [`JlVariant::Toeplitz`] — the first row and first column are
//!   Gaussian, and each diagonal is constant.
//!
//! Structured variants (circulant/toeplitz) draw only `O(d)` random values
//! instead of `O(kd)` — the source of their speed advantage — and the
//! paper finds they also lead the accuracy comparison (Table 1).

use crate::{check_target_dim, Error, Projector, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::Matrix;

/// Draws one standard normal value (Box–Muller; local copy to keep this
/// crate independent of the dataset crate).
fn randn(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Which JL matrix construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JlVariant {
    /// I.i.d. standard Gaussian entries.
    #[default]
    Basic,
    /// I.i.d. Rademacher (±1) entries.
    Discrete,
    /// Cyclic shifts of one Gaussian row.
    Circulant,
    /// Constant diagonals from one Gaussian row + column.
    Toeplitz,
}

impl JlVariant {
    /// Parses the paper's method names (`basic`/`discrete`/`circulant`/
    /// `toeplitz`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "basic" => Ok(JlVariant::Basic),
            "discrete" => Ok(JlVariant::Discrete),
            "circulant" => Ok(JlVariant::Circulant),
            "toeplitz" => Ok(JlVariant::Toeplitz),
            other => Err(Error::InvalidParameter(format!(
                "unknown JL variant `{other}`"
            ))),
        }
    }

    /// All four variants, in the paper's order.
    pub fn all() -> [JlVariant; 4] {
        [
            JlVariant::Basic,
            JlVariant::Discrete,
            JlVariant::Circulant,
            JlVariant::Toeplitz,
        ]
    }

    /// Builds the `k x d` transformation matrix.
    fn build_matrix(&self, k: usize, d: usize, rng: &mut StdRng) -> Matrix {
        match self {
            JlVariant::Basic => {
                let data: Vec<f64> = (0..k * d).map(|_| randn(rng)).collect();
                Matrix::from_vec(k, d, data).expect("sized buffer")
            }
            JlVariant::Discrete => {
                let data: Vec<f64> = (0..k * d)
                    .map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 })
                    .collect();
                Matrix::from_vec(k, d, data).expect("sized buffer")
            }
            JlVariant::Circulant => {
                let first: Vec<f64> = (0..d).map(|_| randn(rng)).collect();
                let mut m = Matrix::zeros(k, d);
                for r in 0..k {
                    for c in 0..d {
                        // Row r is the first row cyclically shifted right r times.
                        m.set(r, c, first[(c + d - (r % d)) % d]);
                    }
                }
                m
            }
            JlVariant::Toeplitz => {
                let first_row: Vec<f64> = (0..d).map(|_| randn(rng)).collect();
                let first_col: Vec<f64> = (0..k).map(|_| randn(rng)).collect();
                let mut m = Matrix::zeros(k, d);
                for r in 0..k {
                    for c in 0..d {
                        // Constant along each diagonal (r - c).
                        let v = if c >= r {
                            first_row[c - r]
                        } else {
                            first_col[r - c]
                        };
                        m.set(r, c, v);
                    }
                }
                m
            }
        }
    }
}

/// A seeded JL projector.
#[derive(Debug, Clone, PartialEq)]
pub struct JlProjector {
    variant: JlVariant,
    k: usize,
    seed: u64,
    /// `k x d` transformation matrix, built at fit time.
    w: Option<Matrix>,
}

impl JlProjector {
    /// Creates a JL projector to `k` output dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0`.
    pub fn new(variant: JlVariant, k: usize, seed: u64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter(
                "target dimension must be >= 1".into(),
            ));
        }
        Ok(Self {
            variant,
            k,
            seed,
            w: None,
        })
    }

    /// The construction variant.
    pub fn variant(&self) -> JlVariant {
        self.variant
    }

    /// The fitted transformation matrix (`k x d`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn matrix(&self) -> Result<&Matrix> {
        self.w.as_ref().ok_or(Error::NotFitted("JlProjector"))
    }
}

impl Projector for JlProjector {
    fn fit(&mut self, x: &Matrix) -> Result<()> {
        let d = x.ncols();
        check_target_dim(self.k, d)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.w = Some(self.variant.build_matrix(self.k, d, &mut rng));
        Ok(())
    }

    fn transform(&self, x: &Matrix) -> Result<Matrix> {
        let w = self.w.as_ref().ok_or(Error::NotFitted("JlProjector"))?;
        if x.ncols() != w.ncols() {
            return Err(Error::DimensionMismatch {
                expected: w.ncols(),
                actual: x.ncols(),
            });
        }
        // f(x) = (1/sqrt(k)) x W^T
        let mut z = x.matmul(&w.transpose())?;
        z.scale_in_place(1.0 / (self.k as f64).sqrt());
        Ok(z)
    }

    fn output_dim(&self) -> usize {
        self.k
    }

    fn name(&self) -> &'static str {
        match self.variant {
            JlVariant::Basic => "basic",
            JlVariant::Discrete => "discrete",
            JlVariant::Circulant => "circulant",
            JlVariant::Toeplitz => "toeplitz",
        }
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_u8(match self.variant {
            JlVariant::Basic => 0,
            JlVariant::Discrete => 1,
            JlVariant::Circulant => 2,
            JlVariant::Toeplitz => 3,
        });
        w.write_usize(self.k);
        w.write_u64(self.seed);
        match &self.w {
            Some(m) => {
                w.write_bool(true);
                w.write_matrix(m);
            }
            None => w.write_bool(false),
        }
        Ok(())
    }
}

impl JlProjector {
    /// Reads a projector written by [`Projector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        let variant = match r.read_u8()? {
            0 => JlVariant::Basic,
            1 => JlVariant::Discrete,
            2 => JlVariant::Circulant,
            3 => JlVariant::Toeplitz,
            other => {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: unknown JL variant tag {other}"
                )))
            }
        };
        let k = r.read_usize()?;
        let seed = r.read_u64()?;
        let w = if r.read_bool()? {
            Some(r.read_matrix()?)
        } else {
            None
        };
        Ok(Self {
            variant,
            k,
            seed,
            w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_linalg::{pairwise_distances_with, DistanceMetric, KernelConfig};

    fn euclidean_distances(m: &Matrix) -> Matrix {
        let config = KernelConfig::default();
        pairwise_distances_with(m, m, DistanceMetric::Euclidean, config, 1, None).unwrap()
    }

    fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| randn(&mut rng)).collect();
        Matrix::from_vec(n, d, data).unwrap()
    }

    #[test]
    fn output_shape_is_n_by_k() {
        let x = random_data(10, 20, 0);
        for variant in JlVariant::all() {
            let mut p = JlProjector::new(variant, 5, 1).unwrap();
            p.fit(&x).unwrap();
            assert_eq!(p.transform(&x).unwrap().shape(), (10, 5));
        }
    }

    #[test]
    fn distances_roughly_preserved() {
        // With k close to d, pairwise distances survive within a loose
        // factor — the JL property the detectors rely on.
        let x = random_data(20, 60, 3);
        let orig = euclidean_distances(&x);
        for variant in JlVariant::all() {
            let mut p = JlProjector::new(variant, 40, 7).unwrap();
            p.fit(&x).unwrap();
            let z = p.transform(&x).unwrap();
            let proj = euclidean_distances(&z);
            let mut ratios = Vec::new();
            for i in 0..20 {
                for j in (i + 1)..20 {
                    ratios.push(proj.get(i, j) / orig.get(i, j));
                }
            }
            let mean = suod_linalg::stats::mean(&ratios);
            assert!(
                (mean - 1.0).abs() < 0.3,
                "{variant:?}: mean distance ratio {mean}"
            );
        }
    }

    #[test]
    fn circulant_rows_are_shifts() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = JlVariant::Circulant.build_matrix(4, 6, &mut rng);
        for r in 1..4 {
            for c in 0..6 {
                assert_eq!(m.get(r, c), m.get(r - 1, (c + 6 - 1) % 6));
            }
        }
    }

    #[test]
    fn toeplitz_diagonals_constant() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = JlVariant::Toeplitz.build_matrix(4, 6, &mut rng);
        for r in 1..4 {
            for c in 1..6 {
                assert_eq!(m.get(r, c), m.get(r - 1, c - 1));
            }
        }
    }

    #[test]
    fn discrete_entries_are_rademacher() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = JlVariant::Discrete.build_matrix(5, 7, &mut rng);
        assert!(m.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn seeds_control_randomness() {
        let x = random_data(5, 10, 0);
        let mut a = JlProjector::new(JlVariant::Basic, 4, 11).unwrap();
        let mut b = JlProjector::new(JlVariant::Basic, 4, 11).unwrap();
        let mut c = JlProjector::new(JlVariant::Basic, 4, 12).unwrap();
        a.fit(&x).unwrap();
        b.fit(&x).unwrap();
        c.fit(&x).unwrap();
        assert_eq!(a.transform(&x).unwrap(), b.transform(&x).unwrap());
        assert_ne!(a.transform(&x).unwrap(), c.transform(&x).unwrap());
    }

    #[test]
    fn same_matrix_applies_to_test_data() {
        let x = random_data(8, 10, 1);
        let q = random_data(3, 10, 2);
        let mut p = JlProjector::new(JlVariant::Toeplitz, 6, 0).unwrap();
        p.fit(&x).unwrap();
        let w = p.matrix().unwrap().clone();
        let z = p.transform(&q).unwrap();
        // Manual application of the same matrix must agree.
        let mut expected = q.matmul(&w.transpose()).unwrap();
        expected.scale_in_place(1.0 / 6f64.sqrt());
        assert_eq!(z, expected);
    }

    #[test]
    fn parse_variant_names() {
        assert_eq!(JlVariant::parse("basic").unwrap(), JlVariant::Basic);
        assert_eq!(JlVariant::parse("toeplitz").unwrap(), JlVariant::Toeplitz);
        assert!(JlVariant::parse("gaussian").is_err());
    }

    #[test]
    fn validates_inputs() {
        assert!(JlProjector::new(JlVariant::Basic, 0, 0).is_err());
        let mut p = JlProjector::new(JlVariant::Basic, 20, 0).unwrap();
        assert!(p.fit(&random_data(5, 10, 0)).is_err()); // k > d
        let p2 = JlProjector::new(JlVariant::Basic, 2, 0).unwrap();
        assert!(p2.transform(&random_data(5, 10, 0)).is_err()); // not fitted
        let mut p3 = JlProjector::new(JlVariant::Basic, 2, 0).unwrap();
        p3.fit(&random_data(5, 10, 0)).unwrap();
        assert!(p3.transform(&random_data(5, 9, 0)).is_err());
    }
}

//! Random forest regressor (Breiman 2001).
//!
//! The approximator the paper recommends for pseudo-supervised
//! approximation (§3.4 Remark 1: "supervised ensemble-based tree models
//! are recommended ... outstanding scalability, robustness to overfitting,
//! and interpretability") and the model class behind the BPS cost
//! predictor. Bootstrap-sampled CART trees with per-split feature
//! subsampling; predictions are the mean over trees.
//!
//! Training presorts the matrix once ([`PresortedSpace`]) and grows every
//! tree over it: a bootstrap sample is a list of row ids, not a copy of
//! the rows, and split search sorts integer keys. What is computed — RNG
//! draws, visiting order, floating-point operation order — is unchanged,
//! so a forest is the same forest bit for bit; `tree::oracle` keeps the
//! copying builder for the tests to hold it to that.

use crate::tree::{DecisionTreeRegressor, TreeParams};
use crate::{check_targets, Error, PresortedSpace, Regressor, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::Matrix;

/// Random forest regressor.
///
/// [`fit`](Regressor::fit) presorts its matrix and calls
/// [`fit_presorted`](Self::fit_presorted); callers that train several
/// forests on one matrix presort it themselves and share the result.
/// [`predict`](Regressor::predict) walks every tree per row straight
/// into the output, allocating nothing per tree.
///
/// # Example
///
/// ```
/// use suod_linalg::Matrix;
/// use suod_supervised::{RandomForestRegressor, Regressor};
///
/// # fn main() -> Result<(), suod_supervised::Error> {
/// let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
/// let x = Matrix::from_rows(&rows).unwrap();
/// let y: Vec<f64> = (0..50).map(|i| (i as f64) * 2.0).collect();
/// let mut rf = RandomForestRegressor::new(30, 7);
/// rf.fit(&x, &y)?;
/// let p = rf.predict(&Matrix::from_rows(&[vec![25.0]]).unwrap())?;
/// assert!((p[0] - 50.0).abs() < 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    n_estimators: usize,
    tree_params: TreeParams,
    /// Fraction of features tried per split, in `(0, 1]`; `None` = sqrt(d).
    max_features_fraction: Option<f64>,
    bootstrap: bool,
    seed: u64,
    trees: Vec<DecisionTreeRegressor>,
    n_features: usize,
}

impl RandomForestRegressor {
    /// Creates a forest with `n_estimators` trees and default CART
    /// parameters (depth 12, sqrt-features per split, bootstrap on).
    pub fn new(n_estimators: usize, seed: u64) -> Self {
        Self {
            n_estimators: n_estimators.max(1),
            tree_params: TreeParams::default(),
            max_features_fraction: None,
            bootstrap: true,
            seed,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Sets the maximum tree depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.tree_params.max_depth = depth;
        self
    }

    /// Sets the minimum samples per leaf.
    pub fn with_min_samples_leaf(mut self, m: usize) -> Self {
        self.tree_params.min_samples_leaf = m.max(1);
        self
    }

    /// Sets the fraction of features examined per split.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when outside `(0, 1]`.
    pub fn with_max_features_fraction(mut self, f: f64) -> Result<Self> {
        if !(f > 0.0 && f <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "max_features_fraction must be in (0, 1], got {f}"
            )));
        }
        self.max_features_fraction = Some(f);
        Ok(self)
    }

    /// Disables bootstrap sampling (each tree sees all rows).
    pub fn without_bootstrap(mut self) -> Self {
        self.bootstrap = false;
        self
    }

    /// Number of trees.
    pub fn n_estimators(&self) -> usize {
        self.n_estimators
    }

    /// Mean impurity-decrease feature importances across trees,
    /// normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(Error::NotFitted("RandomForestRegressor"));
        }
        let mut acc = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.feature_importances()?) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        Ok(acc)
    }

    /// Fits the forest on a matrix that is already presorted — what
    /// [`Regressor::fit`] does after presorting its argument. Forests
    /// trained on one matrix (PSA approximators of models that share a
    /// feature space) share the [`PresortedSpace`] and pay for it once.
    ///
    /// A tree's bootstrap sample is a list of row ids drawn from the
    /// forest's RNG, never a copy of the rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `y` is not one target per
    /// row of `space` and [`Error::NonFiniteInput`] for a NaN or
    /// infinite target.
    pub fn fit_presorted(&mut self, space: &PresortedSpace, y: &[f64]) -> Result<()> {
        check_targets(space.n_rows(), y)?;
        let n = space.n_rows();
        let d = space.n_features();
        self.n_features = d;
        let max_features = match self.max_features_fraction {
            Some(f) => ((d as f64 * f).ceil() as usize).clamp(1, d.max(1)),
            None => ((d as f64).sqrt().ceil() as usize).clamp(1, d.max(1)),
        };
        let params = TreeParams {
            max_features: Some(max_features),
            ..self.tree_params
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        self.trees = Vec::with_capacity(self.n_estimators);
        let mut rows: Vec<u32> = Vec::with_capacity(n);
        for t in 0..self.n_estimators {
            let tree_seed = rng.random::<u64>() ^ t as u64;
            rows.clear();
            if self.bootstrap {
                rows.extend((0..n).map(|_| rng.random_range(0..n) as u32));
            } else {
                rows.extend(0..n as u32);
            }
            let mut tree = DecisionTreeRegressor::new(params, tree_seed);
            tree.grow(space, y, &mut rows);
            self.trees.push(tree);
        }
        Ok(())
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        self.fit_presorted(&PresortedSpace::new(x)?, y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.trees.is_empty() {
            return Err(Error::NotFitted("RandomForestRegressor"));
        }
        // Row walks straight into the accumulator, in ascending tree
        // order: the sums a per-tree prediction vector would give.
        let mut acc = vec![0.0; x.nrows()];
        for tree in &self.trees {
            tree.check_predict_input(x)?;
            for (a, row) in acc.iter_mut().zip(x.rows_iter()) {
                *a += tree.predict_row(row);
            }
        }
        let k = self.trees.len() as f64;
        for a in &mut acc {
            *a /= k;
        }
        Ok(acc)
    }

    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        RandomForestRegressor::feature_importances(self).ok()
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.n_estimators);
        crate::tree::write_tree_params(&self.tree_params, w);
        match self.max_features_fraction {
            Some(f) => {
                w.write_bool(true);
                w.write_f64(f);
            }
            None => w.write_bool(false),
        }
        w.write_bool(self.bootstrap);
        w.write_u64(self.seed);
        w.write_usize(self.trees.len());
        for tree in &self.trees {
            tree.snapshot_write(w)?;
        }
        w.write_usize(self.n_features);
        Ok(())
    }
}

impl RandomForestRegressor {
    /// Reads a forest written by [`Regressor::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        let n_estimators = r.read_usize()?;
        let tree_params = crate::tree::read_tree_params(r)?;
        let max_features_fraction = if r.read_bool()? {
            Some(r.read_f64()?)
        } else {
            None
        };
        let bootstrap = r.read_bool()?;
        let seed = r.read_u64()?;
        let count = r.read_usize()?;
        let mut trees = Vec::new();
        for _ in 0..count {
            trees.push(DecisionTreeRegressor::snapshot_read(r)?);
        }
        Ok(Self {
            n_estimators,
            tree_params,
            max_features_fraction,
            bootstrap,
            seed,
            trees,
            n_features: r.read_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::oracle;
    use proptest::prelude::*;
    use suod_datasets_testutil::*;

    /// Tiny shared helpers (kept local; no extra dev-dependency).
    mod suod_datasets_testutil {
        use super::Matrix;

        pub fn linear_data(n: usize) -> (Matrix, Vec<f64>) {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i % 5) as f64]).collect();
            let y: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 + 1.0).collect();
            (Matrix::from_rows(&rows).unwrap(), y)
        }
    }

    #[test]
    fn learns_linear_trend() {
        let (x, y) = linear_data(80);
        let mut rf = RandomForestRegressor::new(25, 3);
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        // In-sample R^2 should be high.
        let mean = suod_linalg::stats::mean(&y);
        let ss_res: f64 = pred.iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum();
        let ss_tot: f64 = y.iter().map(|t| (t - mean) * (t - mean)).sum();
        assert!(1.0 - ss_res / ss_tot > 0.95);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = linear_data(40);
        let mut a = RandomForestRegressor::new(10, 5);
        let mut b = RandomForestRegressor::new(10, 5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
        let mut c = RandomForestRegressor::new(10, 6);
        c.fit(&x, &y).unwrap();
        assert_ne!(a.predict(&x).unwrap(), c.predict(&x).unwrap());
    }

    #[test]
    fn importances_favor_signal_feature() {
        let (x, y) = linear_data(60);
        let mut rf = RandomForestRegressor::new(20, 1);
        rf.fit(&x, &y).unwrap();
        let imp = rf.feature_importances().unwrap();
        assert!(imp[0] > imp[1]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn not_fitted_error() {
        let rf = RandomForestRegressor::new(5, 0);
        assert!(matches!(
            rf.predict(&Matrix::zeros(1, 2)).unwrap_err(),
            Error::NotFitted(_)
        ));
        assert!(rf.feature_importances().is_err());
    }

    #[test]
    fn invalid_fraction_rejected() {
        assert!(RandomForestRegressor::new(5, 0)
            .with_max_features_fraction(0.0)
            .is_err());
        assert!(RandomForestRegressor::new(5, 0)
            .with_max_features_fraction(1.5)
            .is_err());
    }

    #[test]
    fn without_bootstrap_fits_training_data_closely() {
        let (x, y) = linear_data(30);
        let mut rf = RandomForestRegressor::new(8, 2).without_bootstrap();
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 3.0, "{p} vs {t}");
        }
    }

    /// A matrix and targets built to tie: per column continuous, a small
    /// lattice that holds both zeros, or constant; then a share of the
    /// rows overwritten with copies of other rows.
    fn tie_heavy_problem(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lattice = [-1.0, -0.0, 0.0, 0.5, 2.0];
        let mut x = Matrix::zeros(n, d);
        for c in 0..d {
            let kind = rng.random_range(0..4usize);
            let constant = lattice[rng.random_range(0..lattice.len())];
            for r in 0..n {
                let v = match kind {
                    0 | 1 => lattice[rng.random_range(0..lattice.len())],
                    2 => rng.random::<f64>() * 8.0 - 4.0,
                    _ => constant,
                };
                x.set(r, c, v);
            }
        }
        let mut y: Vec<f64> = (0..n)
            .map(|_| match seed % 3 {
                0 => rng.random::<f64>() * 10.0 - 5.0,
                _ => lattice[rng.random_range(0..lattice.len())],
            })
            .collect();
        for r in 0..n {
            if rng.random_bool(0.3) {
                let from = rng.random_range(0..n);
                let row = x.row(from).to_vec();
                x.row_mut(r).copy_from_slice(&row);
                if rng.random_bool(0.5) {
                    y[r] = y[from];
                }
            }
        }
        (x, y)
    }

    fn snapshot_bytes(tree: &DecisionTreeRegressor) -> Vec<u8> {
        let mut w = suod_linalg::SnapshotWriter::new();
        tree.snapshot_write(&mut w).unwrap();
        w.as_bytes().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The presorted builder grows the trees the builder before it
        /// grew — nodes, thresholds, importances — on data where nearly
        /// every comparison is a tie.
        #[test]
        fn presorted_builder_grows_the_oracle_trees(
            (n, d, seed) in (1usize..200, 1usize..12, 0u64..u64::MAX),
            (max_depth, min_samples_leaf, min_samples_split) in (0usize..=12, 1usize..=5, 2usize..=6),
            (bootstrap, feature_draw) in (proptest::bool::ANY, 0usize..12),
        ) {
            let (x, y) = tie_heavy_problem(n, d, seed);
            let max_features = 1 + feature_draw % d;

            let params = TreeParams {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (feature_draw < 11).then_some(max_features),
            };
            let mut tree = DecisionTreeRegressor::new(params, seed);
            tree.fit(&x, &y).unwrap();
            let expected = oracle::fit_tree(params, seed, &x, &y);
            prop_assert_eq!(snapshot_bytes(&tree), snapshot_bytes(&expected));

            let mut forest = RandomForestRegressor::new(4, seed)
                .with_max_depth(max_depth)
                .with_min_samples_leaf(min_samples_leaf)
                .with_max_features_fraction(max_features as f64 / d as f64)
                .unwrap();
            forest.bootstrap = bootstrap;
            forest.fit(&x, &y).unwrap();
            let params = forest.trees[0].params();
            let expected = oracle::fit_forest_trees(4, params, bootstrap, seed, &x, &y);
            prop_assert_eq!(forest.trees.len(), expected.len());
            for (grown, expected) in forest.trees.iter().zip(&expected) {
                prop_assert_eq!(snapshot_bytes(grown), snapshot_bytes(expected));
            }
        }
    }

    #[test]
    fn single_tree_forest_works() {
        let (x, y) = linear_data(20);
        let mut rf = RandomForestRegressor::new(1, 0);
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.predict(&x).unwrap().len(), 20);
    }
}

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
//!
//! Every tree lives in one [`Forest`] arena and prediction is one
//! [`Forest::leaf_sums`] walk over it, divided by the tree count.

use crate::tree::{self, TreeMeta, TreeParams};
use crate::{check_targets, Error, PresortedSpace, Regressor, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::{Forest, Matrix, SnapshotReader, SnapshotWriter};

/// Random forest regressor.
///
/// [`fit`](Regressor::fit) presorts its matrix and calls
/// [`fit_presorted`](Self::fit_presorted); callers that train several
/// forests on one matrix presort it themselves and share the result.
/// [`predict`](Regressor::predict) checks the input once and walks every
/// tree of the one arena.
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
    /// Per tree, what its record holds besides its nodes.
    members: Vec<TreeMeta>,
    /// Every tree's nodes.
    forest: Forest,
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
            members: Vec::new(),
            forest: Forest::default(),
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
        if self.members.is_empty() {
            return Err(Error::NotFitted("RandomForestRegressor"));
        }
        let n_features = self.forest.n_features();
        let mut acc = vec![0.0; n_features];
        for member in &self.members {
            let importances = tree::normalized_importances(&member.importances, n_features);
            for (a, v) in acc.iter_mut().zip(importances) {
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
        let max_features = match self.max_features_fraction {
            Some(f) => ((d as f64 * f).ceil() as usize).clamp(1, d.max(1)),
            None => ((d as f64).sqrt().ceil() as usize).clamp(1, d.max(1)),
        };
        let params = TreeParams {
            max_features: Some(max_features),
            ..self.tree_params
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut members = Vec::with_capacity(self.n_estimators);
        let mut forest = Forest::new(d);
        let mut rows: Vec<u32> = Vec::with_capacity(n);
        for t in 0..self.n_estimators {
            let tree_seed = rng.random::<u64>() ^ t as u64;
            rows.clear();
            if self.bootstrap {
                rows.extend((0..n).map(|_| rng.random_range(0..n) as u32));
            } else {
                rows.extend(0..n as u32);
            }
            let (nodes, importances) = tree::grow(params, tree_seed, space, y, &mut rows);
            tree::push_tree(&mut forest, &nodes)?;
            members.push(TreeMeta {
                params,
                seed: tree_seed,
                importances,
            });
        }
        self.members = members;
        self.forest = forest;
        Ok(())
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        self.fit_presorted(&PresortedSpace::new(x)?, y)
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.members.is_empty() {
            return Err(Error::NotFitted("RandomForestRegressor"));
        }
        tree::check_width(self.forest.n_features(), x)?;
        let k = self.members.len() as f64;
        let mut sums = self.forest.leaf_sums(x)?;
        for s in &mut sums {
            // The walk sums onto -0.0; the per-tree loop this replaced
            // summed onto +0.0. `+ 0.0` maps the one sum where that
            // differs (every leaf -0.0) to its bits and leaves all others.
            *s = (*s + 0.0) / k;
        }
        Ok(sums)
    }
}

impl RandomForestRegressor {
    /// Appends the forest's full state (parameters and every tree) to a
    /// snapshot body, each field in a fixed order, so that save → load →
    /// save is byte-identical. [`snapshot_read`](Self::snapshot_read)
    /// reads it back.
    pub fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.n_estimators);
        tree::write_tree_params(&self.tree_params, w);
        match self.max_features_fraction {
            Some(f) => {
                w.write_bool(true);
                w.write_f64(f);
            }
            None => w.write_bool(false),
        }
        w.write_bool(self.bootstrap);
        w.write_u64(self.seed);
        w.write_usize(self.members.len());
        for (t, member) in self.members.iter().enumerate() {
            tree::write_tree_record(w, member, &self.forest, Some(t));
        }
        w.write_usize(self.forest.n_features());
    }

    /// Reads a forest written by [`snapshot_write`](Self::snapshot_write).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] (possibly wrapped in
    /// [`Error::Linalg`]) on truncated or malformed state — a tree that is
    /// unfitted, not a tree in preorder, or over another width than the
    /// forest's — before any walk.
    pub fn snapshot_read(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let n_estimators = r.read_usize()?;
        let tree_params = tree::read_tree_params(r)?;
        let max_features_fraction = if r.read_bool()? {
            Some(r.read_f64()?)
        } else {
            None
        };
        let bootstrap = r.read_bool()?;
        let seed = r.read_u64()?;
        let count = r.read_usize()?;
        let mut records = Vec::new();
        for _ in 0..count {
            records.push(tree::read_tree_record(r)?);
        }
        // The forest's width follows the trees, so they are checked after.
        let mut forest = Forest::new(r.read_usize()?);
        let mut members = Vec::with_capacity(records.len());
        for (t, record) in records.into_iter().enumerate() {
            if !record.fitted || record.n_features != forest.n_features() {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: forest tree {t} (fitted: {}) is over {} features, the forest over {}",
                    record.fitted,
                    record.n_features,
                    forest.n_features()
                )));
            }
            tree::push_tree(&mut forest, &record.nodes)?;
            members.push(record.meta);
        }
        Ok(Self {
            n_estimators,
            tree_params,
            max_features_fraction,
            bootstrap,
            seed,
            members,
            forest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tie_heavy;
    use crate::tree::{oracle, DecisionTreeRegressor};
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    fn tree_bytes(tree: &DecisionTreeRegressor) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        tree.snapshot_write(&mut w);
        w.into_bytes()
    }

    /// Tree `t`'s record, as a lone tree's `snapshot_write` writes it.
    fn member_bytes(forest: &RandomForestRegressor, t: usize) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        tree::write_tree_record(&mut w, &forest.members[t], &forest.forest, Some(t));
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The presorted builder grows the trees the builder before it
        /// grew — nodes, thresholds, importances — on data where nearly
        /// every comparison is a tie, and the arena walk predicts what the
        /// enum-node walk predicted on them, bit for bit: for rows that
        /// hold NaN and infinities, at every row count around a block
        /// boundary, and after a snapshot reload.
        #[test]
        fn presorted_builder_grows_the_oracle_trees(
            (n, d, seed) in (1usize..200, 1usize..12, 0u64..u64::MAX),
            (max_depth, min_samples_leaf, min_samples_split) in (0usize..=12, 1usize..=5, 2usize..=6),
            (bootstrap, feature_draw, n_trees) in (proptest::bool::ANY, 0usize..12, 1usize..=6),
        ) {
            let (x, y) = tie_heavy::tie_heavy_problem(n, d, seed);
            let max_features = 1 + feature_draw % d;

            let params = TreeParams {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (feature_draw < 11).then_some(max_features),
            };
            let mut tree = DecisionTreeRegressor::new(params, seed);
            tree.fit(&x, &y).unwrap();
            let expected_tree = oracle::fit_tree(params, seed, &x, &y);
            prop_assert_eq!(tree_bytes(&tree), expected_tree.snapshot_bytes());

            let mut forest = RandomForestRegressor::new(n_trees, seed)
                .with_max_depth(max_depth)
                .with_min_samples_leaf(min_samples_leaf)
                .with_max_features_fraction(max_features as f64 / d as f64)
                .unwrap();
            forest.bootstrap = bootstrap;
            forest.fit(&x, &y).unwrap();
            let params = forest.members[0].params;
            let expected = oracle::fit_forest_trees(n_trees, params, bootstrap, seed, &x, &y);
            prop_assert_eq!(forest.members.len(), expected.len());
            for (t, expected) in expected.iter().enumerate() {
                prop_assert_eq!(member_bytes(&forest, t), expected.snapshot_bytes());
            }

            let mut w = SnapshotWriter::new();
            forest.snapshot_write(&mut w);
            let loaded = RandomForestRegressor::snapshot_read(&mut SnapshotReader::new(w.as_bytes()))
                .unwrap();
            let loaded_tree = DecisionTreeRegressor::snapshot_read(
                &mut SnapshotReader::new(&tree_bytes(&tree)),
            )
            .unwrap();
            for (k, &count) in tie_heavy::QUERY_COUNTS.iter().enumerate() {
                let q = tie_heavy::hostile_queries(&x, count, seed ^ k as u64);
                let want = bits(&expected_tree.predict(&q));
                prop_assert_eq!(&bits(&tree.predict(&q).unwrap()), &want);
                prop_assert_eq!(&bits(&loaded_tree.predict(&q).unwrap()), &want);
                let want = bits(&oracle::forest_predict(&expected, &q));
                prop_assert_eq!(&bits(&forest.predict(&q).unwrap()), &want);
                prop_assert_eq!(&bits(&loaded.predict(&q).unwrap()), &want);
            }
        }
    }

    /// A node record: `(tag, feature, threshold or leaf value, left,
    /// right)`.
    type Record = (u8, usize, f64, usize, usize);
    const LEAF: Record = (0, 0, 1.0, 0, 0);

    /// A split that sends the all-zero rows [`load_and_predict`] predicts
    /// left (`goes_left`) or right.
    fn split(feature: usize, goes_left: bool, left: usize, right: usize) -> Record {
        (1, feature, if goes_left { 0.5 } else { -0.5 }, left, right)
    }

    /// A fitted tree's record over `n_features` columns.
    fn write_crafted_tree(w: &mut SnapshotWriter, nodes: &[Record], n_features: usize) {
        tree::write_tree_params(&TreeParams::default(), w);
        w.write_u64(0);
        w.write_usize(nodes.len());
        for &(tag, feature, value, left, right) in nodes {
            w.write_u8(tag);
            if tag == 1 {
                w.write_usize(feature);
            }
            w.write_f64(value);
            if tag == 1 {
                w.write_usize(left);
                w.write_usize(right);
            }
        }
        w.write_usize(n_features);
        w.write_f64s(&vec![0.0; n_features]);
        w.write_bool(true);
    }

    /// A two-column `random_forest` record holding the given trees.
    fn crafted_forest(trees: &[(&[Record], usize)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_usize(trees.len());
        tree::write_tree_params(&TreeParams::default(), &mut w);
        w.write_bool(false); // max_features_fraction
        w.write_bool(true); // bootstrap
        w.write_u64(0); // seed
        w.write_usize(trees.len());
        for &(nodes, n_features) in trees {
            write_crafted_tree(&mut w, nodes, n_features);
        }
        w.write_usize(2);
        w.into_bytes()
    }

    /// Loads a `decision_tree` (a one-tree record) or a `random_forest`
    /// and predicts two all-zero rows on another thread; whatever comes
    /// back within the deadline. A hang or a panic is a failure.
    fn load_and_predict(name: &'static str, body: Vec<u8>) -> Result<Vec<f64>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let r = &mut SnapshotReader::new(&body);
            let rows = Matrix::zeros(2, 2);
            let predicted = match name {
                "decision_tree" => {
                    DecisionTreeRegressor::snapshot_read(r).and_then(|tree| tree.predict(&rows))
                }
                _ => RandomForestRegressor::snapshot_read(r).and_then(|rf| rf.predict(&rows)),
            };
            let _ = tx.send(predicted);
        });
        // A hung walk cannot be joined; it is left behind when this fails.
        let predicted = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("load + predict neither hangs nor panics");
        worker.join().expect("the predicting thread finished");
        predicted
    }

    /// Both the lone tree and a forest holding it reject `nodes`.
    fn assert_rejected(nodes: &[Record]) {
        let mut lone = SnapshotWriter::new();
        write_crafted_tree(&mut lone, nodes, 2);
        let good: &[Record] = &[LEAF];
        for (name, body) in [
            ("decision_tree", lone.into_bytes()),
            ("random_forest", crafted_forest(&[(good, 2), (nodes, 2)])),
        ] {
            match load_and_predict(name, body) {
                Err(Error::InvalidParameter(msg))
                | Err(Error::Linalg(suod_linalg::Error::InvalidParameter(msg))) => {
                    assert!(msg.starts_with("snapshot: "), "{name}: {msg}");
                }
                other => panic!("{name}: expected a typed snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn well_formed_crafted_records_load_and_predict() {
        let nodes: &[Record] = &[split(1, false, 1, 2), LEAF, LEAF];
        let mut lone = SnapshotWriter::new();
        write_crafted_tree(&mut lone, nodes, 2);
        assert_eq!(
            load_and_predict("decision_tree", lone.into_bytes()).unwrap(),
            vec![1.0, 1.0]
        );
        let forest = crafted_forest(&[(nodes, 2), (nodes, 2)]);
        assert_eq!(
            load_and_predict("random_forest", forest).unwrap(),
            vec![1.0, 1.0]
        );
    }

    #[test]
    fn crafted_self_loop_is_a_typed_error() {
        assert_rejected(&[split(0, true, 0, 2), LEAF, LEAF]);
    }

    #[test]
    fn crafted_back_edge_is_a_typed_error() {
        assert_rejected(&[split(0, true, 1, 3), split(0, false, 2, 0), LEAF, LEAF]);
    }

    #[test]
    fn crafted_child_out_of_range_is_a_typed_error() {
        assert_rejected(&[split(0, false, 1, 9), LEAF, LEAF]);
    }

    #[test]
    fn crafted_feature_out_of_range_is_a_typed_error() {
        assert_rejected(&[split(2, false, 1, 2), LEAF, LEAF]);
    }

    #[test]
    fn crafted_empty_fitted_tree_is_a_typed_error() {
        assert_rejected(&[]);
    }

    #[test]
    fn crafted_forest_with_disagreeing_widths_is_a_typed_error() {
        let wide: &[Record] = &[split(2, false, 1, 2), LEAF, LEAF];
        let bytes = crafted_forest(&[(&[LEAF], 2), (wide, 3)]);
        match load_and_predict("random_forest", bytes) {
            Err(Error::InvalidParameter(msg)) => assert!(msg.starts_with("snapshot: "), "{msg}"),
            other => panic!("expected a typed snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn negative_zero_leaves_keep_their_bits() {
        // A tree's leaf is its mean, -0.0 included; a forest's mean of
        // -0.0 leaves was +0.0 and stays +0.0.
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = [-0.0, -0.0];
        let q = Matrix::from_rows(&[vec![0.0], vec![f64::NAN]]).unwrap();
        let mut tree = DecisionTreeRegressor::default();
        tree.fit(&x, &y).unwrap();
        assert_eq!(bits(&tree.predict(&q).unwrap()), bits(&[-0.0, -0.0]));
        let mut forest = RandomForestRegressor::new(3, 0);
        forest.fit(&x, &y).unwrap();
        assert_eq!(bits(&forest.predict(&q).unwrap()), bits(&[0.0, 0.0]));
    }

    #[test]
    fn single_tree_forest_works() {
        let (x, y) = linear_data(20);
        let mut rf = RandomForestRegressor::new(1, 0);
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.predict(&x).unwrap().len(), 20);
    }

    fn forest_bytes(forest: &RandomForestRegressor) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        forest.snapshot_write(&mut w);
        w.into_bytes()
    }

    fn fitted_forest() -> RandomForestRegressor {
        let (x, y) = linear_data(30);
        let mut rf = RandomForestRegressor::new(4, 9)
            .with_max_depth(4)
            .with_max_features_fraction(0.5)
            .unwrap();
        rf.fit(&x, &y).unwrap();
        rf
    }

    #[test]
    fn snapshot_resaves_byte_identical_and_predicts_the_same_bits() {
        let rf = fitted_forest();
        let bytes = forest_bytes(&rf);
        let mut r = SnapshotReader::new(&bytes);
        let loaded = RandomForestRegressor::snapshot_read(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(forest_bytes(&loaded), bytes);
        assert_eq!(loaded.n_estimators(), 4);
        let (x, _) = linear_data(45);
        assert_eq!(
            bits(&loaded.predict(&x).unwrap()),
            bits(&rf.predict(&x).unwrap())
        );
        assert_eq!(
            loaded.feature_importances().unwrap(),
            rf.feature_importances().unwrap()
        );
    }

    #[test]
    fn unfitted_forest_round_trips_unfitted() {
        let rf = RandomForestRegressor::new(7, 3).without_bootstrap();
        let bytes = forest_bytes(&rf);
        let loaded =
            RandomForestRegressor::snapshot_read(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(loaded.n_estimators(), 7);
        assert!(matches!(
            loaded.predict(&Matrix::zeros(1, 2)).unwrap_err(),
            Error::NotFitted(_)
        ));
        assert_eq!(forest_bytes(&loaded), bytes);
    }

    #[test]
    fn every_truncated_forest_snapshot_is_an_error() {
        let bytes = forest_bytes(&fitted_forest());
        for len in 0..bytes.len() {
            assert!(
                RandomForestRegressor::snapshot_read(&mut SnapshotReader::new(&bytes[..len]))
                    .is_err(),
                "a {len}-byte prefix of {} loaded",
                bytes.len()
            );
        }
    }

    #[test]
    fn unfitted_member_record_is_a_typed_error() {
        let mut w = SnapshotWriter::new();
        w.write_usize(1);
        tree::write_tree_params(&TreeParams::default(), &mut w);
        w.write_bool(false); // max_features_fraction
        w.write_bool(true); // bootstrap
        w.write_u64(0); // seed
        w.write_usize(1);
        let meta = TreeMeta {
            params: TreeParams::default(),
            seed: 0,
            importances: vec![0.0; 2],
        };
        tree::write_tree_record(&mut w, &meta, &Forest::new(2), None);
        w.write_usize(2);
        match RandomForestRegressor::snapshot_read(&mut SnapshotReader::new(w.as_bytes())) {
            Err(Error::InvalidParameter(msg)) => {
                assert!(
                    msg.starts_with("snapshot: forest tree 0 (fitted: false)"),
                    "{msg}"
                )
            }
            other => panic!("expected a typed snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn zero_trees_are_clamped_to_one() {
        let rf = RandomForestRegressor::new(0, 0);
        assert_eq!(rf.n_estimators(), 1);
        let (x, y) = linear_data(10);
        let mut rf = rf;
        rf.fit(&x, &y).unwrap();
        assert_eq!(rf.members.len(), 1);
    }

    #[test]
    fn zero_min_samples_leaf_means_one() {
        let (x, y) = linear_data(25);
        let mut zero = RandomForestRegressor::new(3, 1).with_min_samples_leaf(0);
        let mut one = RandomForestRegressor::new(3, 1).with_min_samples_leaf(1);
        zero.fit(&x, &y).unwrap();
        one.fit(&x, &y).unwrap();
        assert_eq!(forest_bytes(&zero), forest_bytes(&one));
    }

    #[test]
    fn feature_fraction_bounds() {
        for bad in [f64::NAN, -0.5, f64::INFINITY] {
            assert!(matches!(
                RandomForestRegressor::new(2, 0)
                    .with_max_features_fraction(bad)
                    .unwrap_err(),
                Error::InvalidParameter(_)
            ));
        }
        // The upper bound is inclusive: every feature at every split.
        assert!(RandomForestRegressor::new(2, 0)
            .with_max_features_fraction(1.0)
            .is_ok());
    }

    #[test]
    fn a_failed_fit_keeps_the_previous_forest() {
        let mut rf = fitted_forest();
        let before = forest_bytes(&rf);
        let space = PresortedSpace::new(&linear_data(30).0).unwrap();
        assert_eq!(
            rf.fit_presorted(&space, &[1.0; 29]).unwrap_err(),
            Error::ShapeMismatch {
                rows: 30,
                targets: 29
            }
        );
        let mut y = vec![1.0; 30];
        y[4] = f64::NAN;
        assert_eq!(
            rf.fit_presorted(&space, &y).unwrap_err(),
            Error::NonFiniteInput("targets")
        );
        assert_eq!(forest_bytes(&rf), before);
    }

    #[test]
    fn no_rows_predict_no_scores() {
        let rf = fitted_forest();
        assert_eq!(rf.predict(&Matrix::zeros(0, 2)).unwrap(), Vec::<f64>::new());
        assert!(matches!(
            rf.predict(&Matrix::zeros(0, 3)).unwrap_err(),
            Error::InvalidParameter(_)
        ));
    }
}

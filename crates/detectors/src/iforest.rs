//! Isolation Forest (Liu et al. 2008).
//!
//! Random axis-aligned splits isolate outliers in few steps; the anomaly
//! score is `2^(-E[h(x)] / c(psi))` where `h` is the path length over the
//! ensemble and `c(psi)` the expected path length of an unsuccessful BST
//! search over the subsample size. Isolation Forest is the second "cheap"
//! family (with HBOS) that SUOD neither projects nor approximates.
//!
//! Table B.1 varies `n_estimators` and `max_features` (the fraction of
//! features each tree sees), both supported here.
//!
//! The trees live in one [`Forest`] arena, each split on the global
//! column its tree's feature subset names, each leaf holding its path
//! length `depth + c(size)`: the value a walk that counted the depth
//! would return there. Scoring, the training-score pass in `fit`
//! included, is one [`Forest::leaf_sums`] walk and the `2^(-mean / c)`
//! epilogue.

use crate::{check_dims, Detector, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::forest::{read_split_record, write_split_record};
use suod_linalg::{FlatNode, Forest, Matrix};

/// Expected path length of an unsuccessful BST search over `n` points —
/// the `c(n)` normalizer from the Isolation Forest paper.
pub fn average_path_length(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0,
        2 => 1.0,
        _ => {
            const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
            let nf = n as f64;
            // 2 H(n-1) - 2 (n-1)/n with H(k) ~ ln(k) + gamma.
            2.0 * ((nf - 1.0).ln() + EULER_MASCHERONI) - 2.0 * (nf - 1.0) / nf
        }
    }
}

/// What the trees' snapshot records hold and the arena resolves away.
/// Only `snapshot_write` reads it.
#[derive(Debug, Clone, Default)]
struct TreeRecords {
    /// Per tree, the global columns its splits index into.
    subsets: Vec<Vec<usize>>,
    /// Per arena node: a leaf's training-sample count, or a split's index
    /// into its tree's subset.
    ids: Vec<usize>,
}

impl TreeRecords {
    /// Pushes one tree into `forest`. `tree` is its nodes in preorder,
    /// splits naming their feature by position in `subset`; `ids` holds
    /// what each node's record holds (see [`TreeRecords::ids`]). Splits
    /// are resolved to global columns and leaves get their path lengths.
    fn push(
        &mut self,
        forest: &mut Forest,
        mut tree: Vec<FlatNode>,
        ids: Vec<usize>,
        subset: Vec<usize>,
    ) -> Result<()> {
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::InvalidParameter(
                "snapshot: itree feature subset repeats a feature".into(),
            ));
        }
        if sorted.last().is_some_and(|&f| f >= forest.n_features()) {
            return Err(Error::InvalidParameter(format!(
                "snapshot: itree feature subset names a feature of {}",
                forest.n_features()
            )));
        }
        for node in tree.iter_mut().filter(|node| !node.is_leaf()) {
            let Some(&global) = subset.get(node.feature()) else {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: itree split on subset entry {} of {}",
                    node.feature(),
                    subset.len()
                )));
            };
            *node = FlatNode::split(global, node.value(), node.right());
        }
        forest.push_tree(&tree, |i, depth| depth as f64 + average_path_length(ids[i]))?;
        self.ids.extend(ids);
        self.subsets.push(subset);
        Ok(())
    }
}

/// Isolation Forest detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, IsolationForest};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..64).map(|i| {
///     vec![(i % 8) as f64 * 0.1, (i / 8) as f64 * 0.1]
/// }).collect();
/// rows.push(vec![10.0, 10.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut forest = IsolationForest::new(50, 7)?;
/// let s = forest.fit(&x)?;
/// let top = suod_linalg::rank::argsort_desc(&s)[0];
/// assert_eq!(top, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IsolationForest {
    n_estimators: usize,
    max_samples: usize,
    max_features_fraction: f64,
    seed: u64,
    forest: Forest,
    records: TreeRecords,
    subsample_size: usize,
}

impl IsolationForest {
    /// Creates a forest with `n_estimators` trees, the canonical subsample
    /// size of 256, and all features per tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `n_estimators == 0`.
    pub fn new(n_estimators: usize, seed: u64) -> Result<Self> {
        if n_estimators == 0 {
            return Err(Error::InvalidParameter("n_estimators must be >= 1".into()));
        }
        Ok(Self {
            n_estimators,
            max_samples: 256,
            max_features_fraction: 1.0,
            seed,
            forest: Forest::default(),
            records: TreeRecords::default(),
            subsample_size: 0,
        })
    }

    /// Sets the per-tree subsample size (default 256).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `m < 2`.
    pub fn with_max_samples(mut self, m: usize) -> Result<Self> {
        if m < 2 {
            return Err(Error::InvalidParameter("max_samples must be >= 2".into()));
        }
        self.max_samples = m;
        Ok(self)
    }

    /// Sets the fraction of features each tree may split on (Table B.1's
    /// `max_features`, 0.1–0.9).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when outside `(0, 1]`.
    pub fn with_max_features_fraction(mut self, f: f64) -> Result<Self> {
        if !(f > 0.0 && f <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "max_features must be in (0, 1], got {f}"
            )));
        }
        self.max_features_fraction = f;
        Ok(self)
    }

    /// Number of trees.
    pub fn n_estimators(&self) -> usize {
        self.n_estimators
    }

    /// Grows the subtree over `rows` into `tree` (preorder) and `ids`
    /// (each node's record id), returning its root's index. Splits name
    /// their feature by position in `features`.
    #[allow(clippy::too_many_arguments)]
    fn build_node(
        x: &Matrix,
        rows: &mut [usize],
        features: &[usize],
        depth: usize,
        height_limit: usize,
        rng: &mut StdRng,
        tree: &mut Vec<FlatNode>,
        ids: &mut Vec<usize>,
    ) -> usize {
        let idx = tree.len();
        if depth >= height_limit || rows.len() <= 1 {
            tree.push(FlatNode::leaf(0.0));
            ids.push(rows.len());
            return idx;
        }
        // Pick a feature with spread; give up after a few attempts (all
        // remaining rows identical on sampled features).
        let mut chosen: Option<(usize, f64, f64)> = None;
        for _ in 0..features.len().max(4) {
            let fi = rng.random_range(0..features.len());
            let f = features[fi];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in rows.iter() {
                let v = x.get(r, f);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                chosen = Some((fi, lo, hi));
                break;
            }
        }
        let Some((fi, lo, hi)) = chosen else {
            tree.push(FlatNode::leaf(0.0));
            ids.push(rows.len());
            return idx;
        };
        let threshold = rng.random_range(lo..hi);
        let f_global = features[fi];
        // Partition rows in place.
        let mut lt = 0;
        for i in 0..rows.len() {
            if x.get(rows[i], f_global) <= threshold {
                rows.swap(lt, i);
                lt += 1;
            }
        }
        // Reserve the split's slot; its left child is the next node.
        tree.push(FlatNode::leaf(0.0));
        ids.push(fi);
        let (left_rows, right_rows) = rows.split_at_mut(lt);
        Self::build_node(
            x,
            left_rows,
            features,
            depth + 1,
            height_limit,
            rng,
            tree,
            ids,
        );
        let right = Self::build_node(
            x,
            right_rows,
            features,
            depth + 1,
            height_limit,
            rng,
            tree,
            ids,
        );
        tree[idx] = FlatNode::split(fi, threshold, right);
        idx
    }

    fn score_rows(&self, x: &Matrix) -> Result<Vec<f64>> {
        let c = average_path_length(self.subsample_size).max(1e-12);
        let n_trees = self.forest.n_trees() as f64;
        let mut scores = self.forest.leaf_sums(x)?;
        for s in &mut scores {
            let mean_path = *s / n_trees;
            *s = 2f64.powf(-mean_path / c);
        }
        Ok(scores)
    }
}

impl Detector for IsolationForest {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        let n = x.nrows();
        if n < 2 {
            return Err(Error::InsufficientData {
                needed: "at least 2 samples".into(),
                got: n,
            });
        }
        let d = x.ncols();
        let psi = self.max_samples.min(n);
        let height_limit = (psi as f64).log2().ceil() as usize;
        let n_tree_features = ((d as f64 * self.max_features_fraction).ceil() as usize).clamp(1, d);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut forest = Forest::new(d);
        let mut records = TreeRecords::default();
        for _ in 0..self.n_estimators {
            // Sample psi distinct rows (partial Fisher–Yates).
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..psi {
                let j = rng.random_range(i..n);
                pool.swap(i, j);
            }
            pool.truncate(psi);
            // Sample the feature subset for this tree.
            let mut fpool: Vec<usize> = (0..d).collect();
            for i in 0..n_tree_features {
                let j = rng.random_range(i..d);
                fpool.swap(i, j);
            }
            fpool.truncate(n_tree_features);
            let (mut tree, mut ids) = (Vec::new(), Vec::new());
            Self::build_node(
                x,
                &mut pool,
                &fpool,
                0,
                height_limit,
                &mut rng,
                &mut tree,
                &mut ids,
            );
            records.push(&mut forest, tree, ids, fpool)?;
        }
        self.forest = forest;
        self.records = records;
        self.subsample_size = psi;
        self.score_rows(x)
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.is_fitted() {
            return Err(Error::NotFitted("IsolationForest"));
        }
        check_dims(self.forest.n_features(), x)?;
        self.score_rows(x)
    }

    fn name(&self) -> &'static str {
        "iforest"
    }

    fn is_fitted(&self) -> bool {
        self.forest.n_trees() > 0
    }

    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        w.write_usize(self.n_estimators);
        w.write_usize(self.max_samples);
        w.write_f64(self.max_features_fraction);
        w.write_u64(self.seed);
        w.write_usize(self.forest.n_trees());
        for t in 0..self.forest.n_trees() {
            let span = self.forest.tree_span(t);
            w.write_usize(span.len());
            for i in span.clone() {
                let node = self.forest.node(i);
                let id = self.records.ids[i];
                if node.is_leaf() {
                    w.write_u8(0);
                    w.write_usize(id);
                } else {
                    w.write_u8(1);
                    let (at, right) = (i - span.start, node.right() - span.start);
                    write_split_record(w, id, node.value(), at, right);
                }
            }
            w.write_usizes(&self.records.subsets[t]);
        }
        w.write_usize(self.forest.n_features());
        w.write_usize(self.subsample_size);
        Ok(())
    }
}

impl IsolationForest {
    /// Reads a detector written by [`Detector::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] (possibly wrapped in
    /// [`Error::Linalg`]) on truncated or malformed state — a tree that
    /// is not its nodes in preorder, a split outside its tree's feature
    /// subset, a subset naming a feature twice or one the forest does not
    /// have — before any tree is walked.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let n_estimators = r.read_usize()?;
        let max_samples = r.read_usize()?;
        let max_features_fraction = r.read_f64()?;
        let seed = r.read_u64()?;
        let n_trees = r.read_usize()?;
        // The forest's width follows the trees, so they are checked after.
        let mut read = Vec::new();
        for _ in 0..n_trees {
            let n_nodes = r.read_usize()?;
            let (mut tree, mut ids) = (Vec::new(), Vec::new());
            for at in 0..n_nodes {
                match r.read_u8()? {
                    0 => {
                        tree.push(FlatNode::leaf(0.0));
                        ids.push(r.read_usize()?);
                    }
                    1 => {
                        let (feature, threshold, right) = read_split_record(r, at)?;
                        tree.push(FlatNode::split(feature, threshold, right));
                        ids.push(feature);
                    }
                    other => {
                        return Err(Error::InvalidParameter(format!(
                            "snapshot: unknown itree node tag {other}"
                        )))
                    }
                }
            }
            read.push((tree, ids, r.read_usizes()?));
        }
        let mut forest = Forest::new(r.read_usize()?);
        let mut records = TreeRecords::default();
        for (tree, ids, subset) in read {
            records.push(&mut forest, tree, ids, subset)?;
        }
        let subsample_size = r.read_usize()?;
        crate::skip_training_scores(r)?;
        Ok(Self {
            n_estimators,
            max_samples,
            max_features_fraction,
            seed,
            forest,
            records,
            subsample_size,
        })
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tie_heavy;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;
    use suod_linalg::{SnapshotReader, SnapshotWriter};

    fn grid_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1])
            .collect();
        rows.push(vec![20.0, 20.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn outlier_isolated_fastest() {
        let mut f = IsolationForest::new(100, 3).unwrap();
        let s = f.fit(&grid_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 100);
        // Scores are anomaly scores in (0, 1).
        assert!(s.iter().all(|&v| v > 0.0 && v < 1.0));
        assert!(s[100] > 0.6, "outlier score {}", s[100]);
    }

    #[test]
    fn average_path_length_reference_values() {
        assert_eq!(average_path_length(0), 0.0);
        assert_eq!(average_path_length(1), 0.0);
        assert_eq!(average_path_length(2), 1.0);
        // c(256) ~ 10.24 (Liu et al. report c(256) approximately 10.24).
        assert!((average_path_length(256) - 10.24).abs() < 0.05);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = grid_with_outlier();
        let mut a = IsolationForest::new(20, 9).unwrap();
        let mut b = IsolationForest::new(20, 9).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
        let mut c = IsolationForest::new(20, 10).unwrap();
        let sc = c.fit(&x).unwrap();
        assert_ne!(sa, sc);
    }

    #[test]
    fn decision_function_on_new_points() {
        let mut f = IsolationForest::new(100, 1).unwrap();
        f.fit(&grid_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.5, 0.5], vec![50.0, -50.0]]).unwrap();
        let s = f.decision_function(&q).unwrap();
        assert!(s[1] > s[0]);
    }

    #[test]
    fn max_features_subset_still_detects() {
        let mut f = IsolationForest::new(100, 2)
            .unwrap()
            .with_max_features_fraction(0.5)
            .unwrap();
        let s = f.fit(&grid_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 100);
    }

    #[test]
    fn small_max_samples_works() {
        let mut f = IsolationForest::new(50, 4)
            .unwrap()
            .with_max_samples(16)
            .unwrap();
        let s = f.fit(&grid_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 100);
    }

    #[test]
    fn constant_data_gives_uniform_scores() {
        let x = Matrix::filled(20, 3, 1.0);
        let mut f = IsolationForest::new(10, 0).unwrap();
        let s = f.fit(&x).unwrap();
        let first = s[0];
        assert!(s.iter().all(|&v| (v - first).abs() < 1e-9));
    }

    #[test]
    fn validates_inputs() {
        assert!(IsolationForest::new(0, 0).is_err());
        assert!(IsolationForest::new(5, 0)
            .unwrap()
            .with_max_samples(1)
            .is_err());
        assert!(IsolationForest::new(5, 0)
            .unwrap()
            .with_max_features_fraction(0.0)
            .is_err());
        let mut f = IsolationForest::new(5, 0).unwrap();
        assert!(f.fit(&Matrix::zeros(1, 2)).is_err());
        assert!(f.decision_function(&Matrix::zeros(1, 2)).is_err());
        f.fit(&grid_with_outlier()).unwrap();
        assert!(f.decision_function(&Matrix::zeros(1, 9)).is_err());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The arena forest is the forest the enum-node builder grew —
        /// the same snapshot bytes — and scores every row, training rows
        /// included, with the old walk's bits: rows that hold NaN and
        /// infinities, at every row count around a block boundary, and
        /// after a snapshot reload.
        #[test]
        fn flat_forest_scores_the_oracle_walk(
            (n, d, seed) in (2usize..300, 1usize..8, 0u64..u64::MAX),
            (n_estimators, max_samples, fraction) in (1usize..60, 2usize..300, 0.0f64..1.0),
        ) {
            let (x, _) = tie_heavy::tie_heavy_problem(n, d, seed);
            let fraction = 1.0 - fraction; // (0, 1]
            let mut forest = IsolationForest::new(n_estimators, seed)
                .unwrap()
                .with_max_samples(max_samples)
                .unwrap()
                .with_max_features_fraction(fraction)
                .unwrap();
            let forest_scores = forest.fit(&x).unwrap();
            let expected = oracle::fit(n_estimators, max_samples, fraction, seed, &x);

            let mut w = SnapshotWriter::new();
            forest.snapshot_write(&mut w).unwrap();
            prop_assert_eq!(w.as_bytes(), expected.snapshot_bytes().as_slice());
            prop_assert_eq!(bits(&forest_scores), bits(&expected.train_scores));

            let loaded = IsolationForest::snapshot_read(&mut SnapshotReader::new(w.as_bytes()), 1)
                .unwrap();
            for (k, &count) in tie_heavy::QUERY_COUNTS.iter().enumerate() {
                let q = tie_heavy::hostile_queries(&x, count, seed ^ k as u64);
                let want = bits(&expected.score_rows(&q));
                prop_assert_eq!(&bits(&forest.decision_function(&q).unwrap()), &want);
                prop_assert_eq!(&bits(&loaded.decision_function(&q).unwrap()), &want);
            }
        }
    }

    /// A node record: `(tag, a, threshold, left, right)`, `a` a leaf's
    /// size or a split's subset index.
    type Record = (u8, usize, f64, usize, usize);
    const LEAF: Record = (0, 3, 0.0, 0, 0);

    /// A split that sends the all-zero rows [`load_and_score`] scores
    /// left (`goes_left`) or right.
    fn split(feature: usize, goes_left: bool, left: usize, right: usize) -> Record {
        (1, feature, if goes_left { 0.5 } else { -0.5 }, left, right)
    }

    /// A one-tree record of a 2-feature forest with the given nodes and
    /// feature subset.
    fn crafted_forest(nodes: &[Record], subset: &[usize]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_usize(1); // n_estimators
        w.write_usize(256); // max_samples
        w.write_f64(1.0); // max_features_fraction
        w.write_u64(0); // seed
        w.write_usize(1); // trees
        w.write_usize(nodes.len());
        for &(tag, a, threshold, left, right) in nodes {
            w.write_u8(tag);
            w.write_usize(a);
            if tag == 1 {
                w.write_f64(threshold);
                w.write_usize(left);
                w.write_usize(right);
            }
        }
        w.write_usizes(subset);
        w.write_usize(2); // n_features
        w.write_usize(4); // subsample_size
        w.into_bytes()
    }

    /// Loads `bytes` and scores two rows on another thread; whatever
    /// comes back within the deadline. A hang or a panic is a failure.
    fn load_and_score(bytes: Vec<u8>) -> Result<Vec<f64>> {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let scored = IsolationForest::snapshot_read(&mut SnapshotReader::new(&bytes), 1)
                .and_then(|f| f.decision_function(&Matrix::zeros(2, 2)));
            let _ = tx.send(scored);
        });
        // A hung walk cannot be joined; it is left behind when this fails.
        let scored = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("load + score neither hangs nor panics");
        worker.join().expect("the scoring thread finished");
        scored
    }

    fn assert_rejected(nodes: &[Record], subset: &[usize]) {
        match load_and_score(crafted_forest(nodes, subset)) {
            Err(Error::InvalidParameter(msg))
            | Err(Error::Linalg(suod_linalg::Error::InvalidParameter(msg))) => {
                assert!(msg.starts_with("snapshot: "), "{msg}");
            }
            other => panic!("expected a typed snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn a_well_formed_crafted_record_loads_and_scores() {
        let good = crafted_forest(&[split(0, false, 1, 2), LEAF, LEAF], &[0, 1]);
        assert_eq!(load_and_score(good).unwrap().len(), 2);
    }

    #[test]
    fn crafted_self_loop_is_a_typed_error() {
        assert_rejected(&[split(0, true, 0, 2), LEAF, LEAF], &[0, 1]);
    }

    #[test]
    fn crafted_back_edge_is_a_typed_error() {
        assert_rejected(
            &[split(0, true, 1, 3), split(0, false, 2, 0), LEAF, LEAF],
            &[0, 1],
        );
    }

    #[test]
    fn crafted_child_out_of_range_is_a_typed_error() {
        assert_rejected(&[split(0, false, 1, 7), LEAF, LEAF], &[0, 1]);
    }

    #[test]
    fn crafted_feature_out_of_range_is_a_typed_error() {
        // Outside the tree's subset, and a subset entry outside the forest.
        assert_rejected(&[split(2, false, 1, 2), LEAF, LEAF], &[0, 1]);
        assert_rejected(&[split(1, false, 1, 2), LEAF, LEAF], &[0, 5]);
    }

    #[test]
    fn crafted_duplicate_subset_entry_is_a_typed_error() {
        assert_rejected(&[split(0, false, 1, 2), LEAF, LEAF], &[1, 1]);
    }

    #[test]
    fn crafted_empty_tree_is_a_typed_error() {
        assert_rejected(&[], &[0, 1]);
    }
}

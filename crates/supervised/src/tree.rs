//! CART regression tree.
//!
//! Splits minimize the weighted sum of child variances (equivalently,
//! maximize variance reduction). The tree supports per-split feature
//! subsampling (`max_features`) so [`crate::RandomForestRegressor`]
//! can decorrelate its members, and records impurity
//! decrease per feature to expose the feature importances the paper
//! highlights as PSA's interpretability benefit (§3.4, Remark 1).
//!
//! There is one split search, over a [`PresortedSpace`]: a node orders
//! its rows for a candidate feature by sorting `u64` keys, `dense rank
//! << 32 | position in the current order`. The keys are unique, so the
//! (unstable) sort has one possible result — rows by value, equal values
//! in the order they were in — which is what a stable comparison sort
//! through the matrix gives, ties included.
//!
//! A grown tree is a one-tree [`Forest`]: its nodes in preorder, each
//! leaf holding its mean, walked by [`Forest::leaf_sums`] — the arena and
//! walk [`crate::RandomForestRegressor`] keeps all its trees in.

use crate::{check_targets, Error, PresortedSpace, Regressor, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::forest::{read_split_record, write_split_record};
use suod_linalg::{FlatNode, Forest, Matrix, SnapshotReader, SnapshotWriter};

/// Hyperparameters for [`DecisionTreeRegressor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth; the root is depth 0.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child for a split to be valid.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        }
    }
}

/// What a tree's snapshot record holds besides its nodes and width.
#[derive(Debug, Clone)]
pub(crate) struct TreeMeta {
    pub(crate) params: TreeParams,
    pub(crate) seed: u64,
    /// Impurity decrease per feature, not normalized.
    pub(crate) importances: Vec<f64>,
}

/// CART regression tree with variance-reduction splits.
///
/// # Example
///
/// ```
/// use suod_linalg::Matrix;
/// use suod_supervised::{DecisionTreeRegressor, Regressor};
///
/// # fn main() -> Result<(), suod_supervised::Error> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
/// let y = [0.0, 0.0, 5.0, 5.0];
/// let mut tree = DecisionTreeRegressor::default();
/// tree.fit(&x, &y)?;
/// assert_eq!(tree.predict(&x)?, vec![0.0, 0.0, 5.0, 5.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    meta: TreeMeta,
    /// The fitted tree, a forest of one; no trees before `fit`.
    forest: Forest,
}

impl Default for DecisionTreeRegressor {
    fn default() -> Self {
        Self::new(TreeParams::default(), 0)
    }
}

impl DecisionTreeRegressor {
    /// Creates an unfitted tree with the given hyperparameters and RNG
    /// seed (the seed only matters when `max_features` subsamples).
    pub fn new(params: TreeParams, seed: u64) -> Self {
        Self {
            meta: TreeMeta {
                params,
                seed,
                importances: Vec::new(),
            },
            forest: Forest::default(),
        }
    }

    /// The hyperparameters this tree was constructed with.
    pub fn params(&self) -> TreeParams {
        self.meta.params
    }

    /// Per-feature impurity-decrease importances, normalized to sum to 1
    /// (all zeros when the tree is a single leaf).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`.
    pub fn feature_importances(&self) -> Result<Vec<f64>> {
        if self.forest.n_trees() == 0 {
            return Err(Error::NotFitted("DecisionTreeRegressor"));
        }
        Ok(normalized_importances(
            &self.meta.importances,
            self.forest.n_features(),
        ))
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.forest.n_nodes()
    }
}

/// `importances` scaled to sum to 1, or `n_features` zeros when nothing
/// was gained.
pub(crate) fn normalized_importances(importances: &[f64], n_features: usize) -> Vec<f64> {
    let total: f64 = importances.iter().sum();
    if total <= 0.0 {
        return vec![0.0; n_features];
    }
    importances.iter().map(|&v| v / total).collect()
}

/// The width check [`Regressor::predict`] makes before a walk.
pub(crate) fn check_width(n_features: usize, x: &Matrix) -> Result<()> {
    if x.ncols() != n_features {
        return Err(Error::InvalidParameter(format!(
            "expected {n_features} features, got {}",
            x.ncols()
        )));
    }
    Ok(())
}

/// Grows one tree on the sample `rows` — row ids into `space`, one per
/// draw, so a bootstrap names a row as often as it drew it — reading
/// targets from `y` by row id. `rows` is reordered in place. Returns the
/// tree's nodes in preorder (for [`push_tree`]) and its raw importances.
pub(crate) fn grow(
    params: TreeParams,
    seed: u64,
    space: &PresortedSpace,
    y: &[f64],
    rows: &mut [u32],
) -> (Vec<FlatNode>, Vec<f64>) {
    let mut grower = Grower {
        space,
        y,
        params,
        rng: StdRng::seed_from_u64(seed),
        nodes: Vec::new(),
        importances: vec![0.0; space.n_features()],
        features: Vec::new(),
        order: Vec::new(),
        sorted: Vec::new(),
        keys: Vec::new(),
        targets: Vec::new(),
    };
    grower.build(rows, 0);
    (grower.nodes, grower.importances)
}

/// Appends a regression tree — nodes in preorder, each leaf holding its
/// mean — to `forest`.
pub(crate) fn push_tree(forest: &mut Forest, nodes: &[FlatNode]) -> Result<()> {
    Ok(forest.push_tree(nodes, |i, _| nodes[i].value())?)
}

/// Low 32 bits of a sort key: the row's position in the order the sort
/// started from.
const POSITION_MASK: u64 = u32::MAX as u64;

/// One tree under construction: depth-first CART over a
/// [`PresortedSpace`], plus the scratch `best_split` reuses at every node.
struct Grower<'a> {
    space: &'a PresortedSpace,
    y: &'a [f64],
    params: TreeParams,
    rng: StdRng,
    /// The tree so far, in preorder.
    nodes: Vec<FlatNode>,
    importances: Vec<f64>,
    /// Candidate features of the current node.
    features: Vec<usize>,
    /// The node's rows in the order the previous candidate left them.
    order: Vec<u32>,
    sorted: Vec<u32>,
    /// `dense rank << 32 | position in order`, one per row of the node.
    keys: Vec<u64>,
    /// Targets in `order`.
    targets: Vec<f64>,
}

impl Grower<'_> {
    fn build(&mut self, rows: &mut [u32], depth: usize) -> usize {
        let node_mean = mean_of(self.y, rows);
        let node_sse = sse_of(self.y, rows, node_mean);
        let is_leaf = depth >= self.params.max_depth
            || rows.len() < self.params.min_samples_split
            || node_sse <= 1e-12;

        if !is_leaf {
            if let Some((feature, threshold, gain)) = self.best_split(rows, node_sse) {
                self.importances[feature] += gain;
                let mid = partition(self.space.values(feature), rows, threshold);
                // Reserve this node's slot; its left child is the next node.
                let node_idx = self.nodes.len();
                self.nodes.push(FlatNode::leaf(node_mean));
                let (left_rows, right_rows) = rows.split_at_mut(mid);
                self.build(left_rows, depth + 1);
                let right = self.build(right_rows, depth + 1);
                self.nodes[node_idx] = FlatNode::split(feature, threshold, right);
                return node_idx;
            }
        }
        let node_idx = self.nodes.len();
        self.nodes.push(FlatNode::leaf(node_mean));
        node_idx
    }

    /// Draws the node's candidate features into `self.features`: all of
    /// them, or `max_features` by partial Fisher–Yates.
    fn sample_features(&mut self) {
        let d = self.space.n_features();
        self.features.clear();
        self.features.extend(0..d);
        if let Some(k) = self.params.max_features.filter(|&k| k < d) {
            for i in 0..k {
                let j = self.rng.random_range(i..d);
                self.features.swap(i, j);
            }
            self.features.truncate(k);
        }
    }

    /// Finds the split maximizing SSE reduction; `None` when no valid
    /// split improves on the parent. Candidates are tried in drawn order,
    /// each starting from the row order the one before it produced (the
    /// module docs say why the unstable sort keeps that order among ties).
    fn best_split(&mut self, rows: &[u32], parent_sse: f64) -> Option<(usize, f64, f64)> {
        self.sample_features();
        let mut best: Option<(usize, f64, f64)> = None;
        let len = rows.len();
        let n = len as f64;
        let min_leaf = self.params.min_samples_leaf.max(1);

        self.order.clear();
        self.order.extend_from_slice(rows);
        for &f in &self.features {
            let ranks = self.space.ranks(f);
            self.keys.clear();
            self.keys.extend(
                self.order
                    .iter()
                    .enumerate()
                    .map(|(pos, &row)| u64::from(ranks[row as usize]) << 32 | pos as u64),
            );
            self.keys.sort_unstable();
            self.sorted.clear();
            self.sorted.extend(
                self.keys
                    .iter()
                    .map(|key| self.order[(key & POSITION_MASK) as usize]),
            );
            std::mem::swap(&mut self.order, &mut self.sorted);
            self.targets.clear();
            self.targets
                .extend(self.order.iter().map(|&row| self.y[row as usize]));

            // Prefix sums over sorted targets for O(1) SSE at each cut.
            let mut sum_left = 0.0;
            let mut sumsq_left = 0.0;
            let total_sum: f64 = self.targets.iter().sum();
            let total_sumsq: f64 = self.targets.iter().map(|&t| t * t).sum();

            for (pos, &t) in self.targets.iter().enumerate() {
                sum_left += t;
                sumsq_left += t * t;
                let n_left = pos + 1;
                let n_right = len - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                if self.keys[pos + 1] >> 32 <= self.keys[pos] >> 32 {
                    // No threshold separates equal values.
                    continue;
                }
                let sse_left = sumsq_left - sum_left * sum_left / n_left as f64;
                let sum_right = total_sum - sum_left;
                let sumsq_right = total_sumsq - sumsq_left;
                let sse_right = sumsq_right - sum_right * sum_right / n_right as f64;
                let gain = parent_sse - sse_left - sse_right;
                if gain > 1e-12 * n && best.is_none_or(|(_, _, bg)| gain > bg) {
                    let values = self.space.values(f);
                    let v = values[self.order[pos] as usize];
                    let v_next = values[self.order[pos + 1] as usize];
                    best = Some((f, 0.5 * (v + v_next), gain));
                }
            }
        }
        best
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        let space = PresortedSpace::new(x)?;
        check_targets(space.n_rows(), y)?;
        let mut rows: Vec<u32> = (0..space.n_rows() as u32).collect();
        let (nodes, importances) = grow(self.meta.params, self.meta.seed, &space, y, &mut rows);
        let mut forest = Forest::new(space.n_features());
        push_tree(&mut forest, &nodes)?;
        self.forest = forest;
        self.meta.importances = importances;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        if self.forest.n_trees() == 0 {
            return Err(Error::NotFitted("DecisionTreeRegressor"));
        }
        check_width(self.forest.n_features(), x)?;
        // A one-tree sum is the leaf itself, bit for bit.
        Ok(self.forest.leaf_sums(x)?)
    }

    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn feature_importances(&self) -> Option<Vec<f64>> {
        DecisionTreeRegressor::feature_importances(self).ok()
    }

    fn snapshot_write(&self, w: &mut SnapshotWriter) -> Result<()> {
        let tree = (self.forest.n_trees() > 0).then_some(0);
        write_tree_record(w, &self.meta, &self.forest, tree);
        Ok(())
    }
}

impl DecisionTreeRegressor {
    /// Reads a tree written by [`Regressor::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] (possibly wrapped in
    /// [`Error::Linalg`]) on truncated or malformed state — a fitted tree
    /// without nodes, an unfitted one with some, or nodes that are not a
    /// tree in preorder over the record's width — before any walk.
    pub fn snapshot_read(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let record = read_tree_record(r)?;
        if record.fitted == record.nodes.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "snapshot: tree (fitted: {}) has {} nodes",
                record.fitted,
                record.nodes.len()
            )));
        }
        let mut forest = Forest::new(record.n_features);
        if record.fitted {
            push_tree(&mut forest, &record.nodes)?;
        }
        Ok(Self {
            meta: record.meta,
            forest,
        })
    }
}

/// A tree's snapshot record, read; its nodes are checked when pushed.
pub(crate) struct TreeRecord {
    pub(crate) meta: TreeMeta,
    pub(crate) nodes: Vec<FlatNode>,
    pub(crate) n_features: usize,
    pub(crate) fitted: bool,
}

/// Writes a tree's record: `meta`'s parameters and seed, the nodes of
/// tree `tree` of `forest`, the forest's width, `meta`'s importances, and
/// whether the tree is fitted — `None` writes an unfitted tree.
pub(crate) fn write_tree_record(
    w: &mut SnapshotWriter,
    meta: &TreeMeta,
    forest: &Forest,
    tree: Option<usize>,
) {
    write_tree_params(&meta.params, w);
    w.write_u64(meta.seed);
    let span = tree.map_or(0..0, |t| forest.tree_span(t));
    w.write_usize(span.len());
    for i in span.clone() {
        let node = forest.node(i);
        if node.is_leaf() {
            w.write_u8(0);
            w.write_f64(node.value());
        } else {
            w.write_u8(1);
            let (at, right) = (i - span.start, node.right() - span.start);
            write_split_record(w, node.feature(), node.value(), at, right);
        }
    }
    w.write_usize(forest.n_features());
    w.write_f64s(&meta.importances);
    w.write_bool(tree.is_some());
}

/// Reads a record [`write_tree_record`] wrote.
pub(crate) fn read_tree_record(r: &mut SnapshotReader<'_>) -> Result<TreeRecord> {
    let params = read_tree_params(r)?;
    let seed = r.read_u64()?;
    let n_nodes = r.read_usize()?;
    let mut nodes = Vec::new();
    for at in 0..n_nodes {
        nodes.push(match r.read_u8()? {
            0 => FlatNode::leaf(r.read_f64()?),
            1 => {
                let (feature, threshold, right) = read_split_record(r, at)?;
                FlatNode::split(feature, threshold, right)
            }
            other => {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: unknown tree node tag {other}"
                )))
            }
        });
    }
    let n_features = r.read_usize()?;
    Ok(TreeRecord {
        meta: TreeMeta {
            params,
            seed,
            importances: r.read_f64s()?,
        },
        nodes,
        n_features,
        fitted: r.read_bool()?,
    })
}

pub(crate) fn write_tree_params(params: &TreeParams, w: &mut SnapshotWriter) {
    w.write_usize(params.max_depth);
    w.write_usize(params.min_samples_split);
    w.write_usize(params.min_samples_leaf);
    match params.max_features {
        Some(m) => {
            w.write_bool(true);
            w.write_usize(m);
        }
        None => w.write_bool(false),
    }
}

pub(crate) fn read_tree_params(r: &mut SnapshotReader<'_>) -> Result<TreeParams> {
    Ok(TreeParams {
        max_depth: r.read_usize()?,
        min_samples_split: r.read_usize()?,
        min_samples_leaf: r.read_usize()?,
        max_features: if r.read_bool()? {
            Some(r.read_usize()?)
        } else {
            None
        },
    })
}

fn mean_of(y: &[f64], rows: &[u32]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|&i| y[i as usize]).sum::<f64>() / rows.len() as f64
}

fn sse_of(y: &[f64], rows: &[u32], mean: f64) -> f64 {
    rows.iter()
        .map(|&i| (y[i as usize] - mean) * (y[i as usize] - mean))
        .sum()
}

/// Partitions `rows` in place so those whose feature value (`values`, by
/// row id) is `<= threshold` come first; returns the boundary position.
fn partition(values: &[f64], rows: &mut [u32], threshold: f64) -> usize {
    let mut lt = 0;
    for i in 0..rows.len() {
        if values[rows[i] as usize] <= threshold {
            rows.swap(lt, i);
            lt += 1;
        }
    }
    lt
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![10.0],
            vec![11.0],
            vec![12.0],
        ])
        .unwrap();
        let y = vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        (x, y)
    }

    #[test]
    fn fits_step_function_exactly() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&x).unwrap(), y);
        // Unseen points route to the right leaf.
        let q = Matrix::from_rows(&[vec![-5.0], vec![100.0]]).unwrap();
        assert_eq!(t.predict(&q).unwrap(), vec![1.0, 5.0]);
    }

    #[test]
    fn depth_zero_is_global_mean() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                max_depth: 0,
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y).unwrap();
        let p = t.predict(&x).unwrap();
        assert!(p.iter().all(|&v| (v - 3.0).abs() < 1e-12));
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                min_samples_leaf: 4,
                ..Default::default()
            },
            0,
        );
        t.fit(&x, &y).unwrap();
        // 6 points cannot split into two leaves of >= 4: stays a stump.
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn picks_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines y.
        let x = Matrix::from_rows(&[
            vec![0.0, 3.1],
            vec![1.0, -2.0],
            vec![10.0, 3.0],
            vec![11.0, -2.5],
        ])
        .unwrap();
        let y = vec![0.0, 0.0, 9.0, 9.0];
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        let imp = t.feature_importances().unwrap();
        assert!(imp[0] > 0.9, "importances: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn not_fitted_errors() {
        let t = DecisionTreeRegressor::default();
        assert!(matches!(
            t.predict(&Matrix::zeros(1, 1)).unwrap_err(),
            Error::NotFitted(_)
        ));
        assert!(t.feature_importances().is_err());
    }

    #[test]
    fn shape_errors() {
        let mut t = DecisionTreeRegressor::default();
        assert!(t.fit(&Matrix::zeros(2, 1), &[1.0]).is_err());
        assert!(t.fit(&Matrix::zeros(0, 1), &[]).is_err());
        let (x, y) = step_data();
        t.fit(&x, &y).unwrap();
        assert!(t.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn constant_target_single_leaf() {
        let (x, _) = step_data();
        let y = vec![2.5; 6];
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!(t.predict(&x).unwrap().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn duplicate_feature_values_never_split_apart() {
        // Both rows have x=1 but different y; no threshold can separate.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 10.0];
        let mut t = DecisionTreeRegressor::default();
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&x).unwrap(), vec![5.0, 5.0]);
    }

    #[test]
    fn max_features_subsampling_still_learns() {
        // With max_features=1 of 2, repeated splits still find signal.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 13) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let mut t = DecisionTreeRegressor::new(
            TreeParams {
                max_features: Some(1),
                ..Default::default()
            },
            7,
        );
        t.fit(&x, &y).unwrap();
        let pred = t.predict(&x).unwrap();
        let correct = pred
            .iter()
            .zip(&y)
            .filter(|(p, t)| (*p - **t).abs() < 0.5)
            .count();
        assert!(correct >= 35, "only {correct}/40 correct");
    }
}

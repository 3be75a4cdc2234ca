//! Test oracle: the CART trees, tree walk and forest bootstrap this crate
//! shipped before the presorted builder and the flat forest arena, kept
//! as they were. The builder reads features through the row-major
//! matrix, orders a node's rows with a stable `sort_by` that carries one
//! candidate feature's order into the next, and materialises every
//! bootstrap sample as a matrix copy; trees are `enum` nodes walked one
//! row × one tree at a time. The generated properties in `forest.rs` hold
//! the shipped builder to these trees byte for byte and the shipped walk
//! to these predictions bit for bit.

use super::{write_tree_params, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::{Matrix, SnapshotWriter};

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A `DecisionTreeRegressor` as the enum-node build fitted it.
#[derive(Debug, Clone)]
pub(crate) struct OracleTree {
    params: TreeParams,
    seed: u64,
    nodes: Vec<Node>,
    n_features: usize,
    importances: Vec<f64>,
}

impl OracleTree {
    /// The old walk.
    pub(crate) fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match self.nodes[idx] {
                Node::Leaf { value } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// The old `Regressor::predict` of a tree.
    pub(crate) fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows_iter().map(|row| self.predict_row(row)).collect()
    }

    /// The old `snapshot_write` of a fitted tree.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_tree_params(&self.params, &mut w);
        w.write_u64(self.seed);
        w.write_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { value } => {
                    w.write_u8(0);
                    w.write_f64(*value);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    w.write_u8(1);
                    w.write_usize(*feature);
                    w.write_f64(*threshold);
                    w.write_usize(*left);
                    w.write_usize(*right);
                }
            }
        }
        w.write_usize(self.n_features);
        w.write_f64s(&self.importances);
        w.write_bool(true);
        w.into_bytes()
    }
}

/// The old `RandomForestRegressor::predict`: row walks into an
/// accumulator that starts at `+0.0`, in ascending tree order, then the
/// mean.
pub(crate) fn forest_predict(trees: &[OracleTree], x: &Matrix) -> Vec<f64> {
    let mut acc = vec![0.0; x.nrows()];
    for tree in trees {
        for (a, row) in acc.iter_mut().zip(x.rows_iter()) {
            *a += tree.predict_row(row);
        }
    }
    let k = trees.len() as f64;
    for a in &mut acc {
        *a /= k;
    }
    acc
}

/// The tree `DecisionTreeRegressor::new(params, seed).fit(x, y)` grew
/// before the presorted builder.
pub(crate) fn fit_tree(params: TreeParams, seed: u64, x: &Matrix, y: &[f64]) -> OracleTree {
    let mut tree = OracleTree {
        params,
        seed,
        nodes: Vec::new(),
        n_features: x.ncols(),
        importances: vec![0.0; x.ncols()],
    };
    let mut indices: Vec<usize> = (0..x.nrows()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    build(&mut tree, x, y, &mut indices, 0, &mut rng);
    tree
}

/// The trees `RandomForestRegressor::fit` grew before the presorted
/// builder, for a forest of `n_estimators` trees with per-tree
/// parameters `params` (its `max_features` already resolved).
pub(crate) fn fit_forest_trees(
    n_estimators: usize,
    params: TreeParams,
    bootstrap: bool,
    seed: u64,
    x: &Matrix,
    y: &[f64],
) -> Vec<OracleTree> {
    let n = x.nrows();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees = Vec::with_capacity(n_estimators);
    for t in 0..n_estimators {
        let tree_seed = rng.random::<u64>() ^ t as u64;
        let (bx, by) = if bootstrap {
            let idx: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            let bx = x.select_rows(&idx);
            let by: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
            (bx, by)
        } else {
            (x.clone(), y.to_vec())
        };
        trees.push(fit_tree(params, tree_seed, &bx, &by));
    }
    trees
}

fn build(
    tree: &mut OracleTree,
    x: &Matrix,
    y: &[f64],
    indices: &mut [usize],
    depth: usize,
    rng: &mut StdRng,
) -> usize {
    let node_mean = mean_of(y, indices);
    let node_sse = sse_of(y, indices, node_mean);
    let is_leaf = depth >= tree.params.max_depth
        || indices.len() < tree.params.min_samples_split
        || node_sse <= 1e-12;

    if !is_leaf {
        if let Some((feature, threshold, gain)) = best_split(tree, x, y, indices, node_sse, rng) {
            tree.importances[feature] += gain;
            let mid = partition(x, indices, feature, threshold);
            // Reserve this node's slot before recursing.
            let node_idx = tree.nodes.len();
            tree.nodes.push(Node::Leaf { value: node_mean });
            let (left_idx, right_idx) = {
                let (li, ri) = indices.split_at_mut(mid);
                let l = build(tree, x, y, li, depth + 1, rng);
                let r = build(tree, x, y, ri, depth + 1, rng);
                (l, r)
            };
            tree.nodes[node_idx] = Node::Split {
                feature,
                threshold,
                left: left_idx,
                right: right_idx,
            };
            return node_idx;
        }
    }
    let node_idx = tree.nodes.len();
    tree.nodes.push(Node::Leaf { value: node_mean });
    node_idx
}

/// Finds the split maximizing SSE reduction; `None` when no valid
/// split improves on the parent.
fn best_split(
    tree: &OracleTree,
    x: &Matrix,
    y: &[f64],
    indices: &[usize],
    parent_sse: f64,
    rng: &mut StdRng,
) -> Option<(usize, f64, f64)> {
    let d = x.ncols();
    let features: Vec<usize> = match tree.params.max_features {
        Some(k) if k < d => sample_features(d, k, rng),
        _ => (0..d).collect(),
    };

    let mut best: Option<(usize, f64, f64)> = None;
    let n = indices.len() as f64;
    let min_leaf = tree.params.min_samples_leaf.max(1);

    let mut order: Vec<usize> = indices.to_vec();
    for &f in &features {
        order.sort_by(|&a, &b| {
            x.get(a, f)
                .partial_cmp(&x.get(b, f))
                .expect("finite features")
        });
        // Prefix sums over sorted targets for O(1) SSE at each cut.
        let mut sum_left = 0.0;
        let mut sumsq_left = 0.0;
        let total_sum: f64 = order.iter().map(|&i| y[i]).sum();
        let total_sumsq: f64 = order.iter().map(|&i| y[i] * y[i]).sum();

        for (pos, &i) in order.iter().enumerate() {
            sum_left += y[i];
            sumsq_left += y[i] * y[i];
            let n_left = pos + 1;
            let n_right = order.len() - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let v = x.get(i, f);
            let v_next = x.get(order[pos + 1], f);
            if v_next <= v {
                // No threshold separates equal values.
                continue;
            }
            let sse_left = sumsq_left - sum_left * sum_left / n_left as f64;
            let sum_right = total_sum - sum_left;
            let sumsq_right = total_sumsq - sumsq_left;
            let sse_right = sumsq_right - sum_right * sum_right / n_right as f64;
            let gain = parent_sse - sse_left - sse_right;
            if gain > 1e-12 * n && best.is_none_or(|(_, _, bg)| gain > bg) {
                best = Some((f, 0.5 * (v + v_next), gain));
            }
        }
    }
    best
}

fn mean_of(y: &[f64], indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64
}

fn sse_of(y: &[f64], indices: &[usize], mean: f64) -> f64 {
    indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum()
}

/// Partitions `indices` in place so rows with `x[., feature] <= threshold`
/// come first; returns the boundary position.
fn partition(x: &Matrix, indices: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut lt = 0;
    for i in 0..indices.len() {
        if x.get(indices[i], feature) <= threshold {
            indices.swap(lt, i);
            lt += 1;
        }
    }
    lt
}

/// Samples `k` distinct feature indices from `0..d` (partial Fisher–Yates).
fn sample_features(d: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..d).collect();
    for i in 0..k {
        let j = rng.random_range(i..d);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

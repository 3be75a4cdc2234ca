//! Test oracle: the isolation trees this crate shipped before the flat
//! forest arena, kept as they were — `enum` nodes, a per-tree feature
//! subset read through `row[features[feature]]`, a walk that counts its
//! depth and calls `average_path_length` at the leaf, one row × one tree
//! at a time — with their snapshot writer, less the training scores
//! `fit` now returns instead. The generated property in `iforest.rs`
//! holds the shipped forest to these bytes and these scores.

use super::average_path_length;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::{Matrix, SnapshotWriter};

#[derive(Debug, Clone)]
enum ITreeNode {
    Leaf {
        /// Number of training samples that reached this leaf.
        size: usize,
    },
    Split {
        /// Index into the tree's feature subset.
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct ITree {
    nodes: Vec<ITreeNode>,
    /// Global feature indices this tree operates on.
    features: Vec<usize>,
}

impl ITree {
    fn path_length(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        let mut depth = 0.0;
        loop {
            match &self.nodes[idx] {
                ITreeNode::Leaf { size } => {
                    return depth + average_path_length(*size);
                }
                ITreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    depth += 1.0;
                    let v = row[self.features[*feature]];
                    idx = if v <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// An `IsolationForest` as the enum-node build fitted it.
pub(crate) struct OracleForest {
    n_estimators: usize,
    max_samples: usize,
    max_features_fraction: f64,
    seed: u64,
    trees: Vec<ITree>,
    n_features: usize,
    subsample_size: usize,
    pub(crate) train_scores: Vec<f64>,
}

/// What `IsolationForest::new(n_estimators, seed)` with these settings
/// fitted on `x` before the flat arena.
pub(crate) fn fit(
    n_estimators: usize,
    max_samples: usize,
    max_features_fraction: f64,
    seed: u64,
    x: &Matrix,
) -> OracleForest {
    let n = x.nrows();
    let d = x.ncols();
    let psi = max_samples.min(n);
    let height_limit = (psi as f64).log2().ceil() as usize;
    let n_tree_features = ((d as f64 * max_features_fraction).ceil() as usize).clamp(1, d);

    let mut rng = StdRng::seed_from_u64(seed);
    let trees = (0..n_estimators)
        .map(|_| {
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..psi {
                let j = rng.random_range(i..n);
                pool.swap(i, j);
            }
            pool.truncate(psi);
            let mut fpool: Vec<usize> = (0..d).collect();
            for i in 0..n_tree_features {
                let j = rng.random_range(i..d);
                fpool.swap(i, j);
            }
            fpool.truncate(n_tree_features);
            let mut nodes = Vec::new();
            build_node(x, &mut pool, &fpool, 0, height_limit, &mut rng, &mut nodes);
            ITree {
                nodes,
                features: fpool,
            }
        })
        .collect();
    let mut forest = OracleForest {
        n_estimators,
        max_samples,
        max_features_fraction,
        seed,
        trees,
        n_features: d,
        subsample_size: psi,
        train_scores: Vec::new(),
    };
    forest.train_scores = forest.score_rows(x);
    forest
}

fn build_node(
    x: &Matrix,
    rows: &mut [usize],
    features: &[usize],
    depth: usize,
    height_limit: usize,
    rng: &mut StdRng,
    nodes: &mut Vec<ITreeNode>,
) -> usize {
    if depth >= height_limit || rows.len() <= 1 {
        let idx = nodes.len();
        nodes.push(ITreeNode::Leaf { size: rows.len() });
        return idx;
    }
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
        let idx = nodes.len();
        nodes.push(ITreeNode::Leaf { size: rows.len() });
        return idx;
    };
    let threshold = rng.random_range(lo..hi);
    let f_global = features[fi];
    let mut lt = 0;
    for i in 0..rows.len() {
        if x.get(rows[i], f_global) <= threshold {
            rows.swap(lt, i);
            lt += 1;
        }
    }
    let node_idx = nodes.len();
    nodes.push(ITreeNode::Leaf { size: 0 }); // placeholder
    let (left_rows, right_rows) = rows.split_at_mut(lt);
    let left = build_node(x, left_rows, features, depth + 1, height_limit, rng, nodes);
    let right = build_node(x, right_rows, features, depth + 1, height_limit, rng, nodes);
    nodes[node_idx] = ITreeNode::Split {
        feature: fi,
        threshold,
        left,
        right,
    };
    node_idx
}

impl OracleForest {
    /// The old scoring loop: per row, the trees' path lengths summed with
    /// `Iterator::sum`, averaged, then `2^(-mean / c)`.
    pub(crate) fn score_rows(&self, x: &Matrix) -> Vec<f64> {
        let c = average_path_length(self.subsample_size).max(1e-12);
        x.rows_iter()
            .map(|row| {
                let mean_path: f64 = self.trees.iter().map(|t| t.path_length(row)).sum::<f64>()
                    / self.trees.len() as f64;
                2f64.powf(-mean_path / c)
            })
            .collect()
    }

    /// The old `snapshot_write`.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_usize(self.n_estimators);
        w.write_usize(self.max_samples);
        w.write_f64(self.max_features_fraction);
        w.write_u64(self.seed);
        w.write_usize(self.trees.len());
        for tree in &self.trees {
            w.write_usize(tree.nodes.len());
            for node in &tree.nodes {
                match node {
                    ITreeNode::Leaf { size } => {
                        w.write_u8(0);
                        w.write_usize(*size);
                    }
                    ITreeNode::Split {
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
            w.write_usizes(&tree.features);
        }
        w.write_usize(self.n_features);
        w.write_usize(self.subsample_size);
        w.into_bytes()
    }
}

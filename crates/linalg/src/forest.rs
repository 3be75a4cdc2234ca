//! Tree ensembles as one operator: a flat node arena and one walk.
//!
//! Every tree of an ensemble — the Isolation Forest's isolation trees,
//! a random forest's CART trees, a lone decision tree — lives in one
//! [`Forest`]: an arena of 16-byte [`FlatNode`]s, each tree in preorder
//! from its root offset. Preorder puts a split's left child right after
//! it, so a node names only its right child. A split's feature is the
//! global column it tests (an Isolation Forest's per-tree feature subset
//! is resolved when the tree is pushed), and a leaf holds whatever its
//! owner sums: an isolation tree's path length, a regression tree's mean.
//!
//! [`Forest::leaf_sums`] is the one walk: per row, each tree's leaf added
//! in ascending tree order — the order the loops it replaces added them
//! in, so the sums keep their bits. A row goes left when
//! `v <= threshold` and right otherwise, so a NaN goes right. The child
//! is chosen with a select, not a branch: which way a row goes is as
//! good as random to a branch predictor, and a mispredicted branch per
//! level costs more than the rest of the step. Walking row blocks
//! tree-major (so one tree's nodes stay in L1 across the block) measured
//! no faster than this loop at 64, 128 or 256 rows, so the walk is the
//! plain loop.
//!
//! [`Forest::push_tree`] accepts a tree only if it is its nodes in
//! preorder: every child after its parent, the right child exactly where
//! the left subtree ends, every feature inside the forest's width, no
//! node outside the tree. A walk then only ever moves to a larger index,
//! so it ends in at most a tree's node count steps, and every node has
//! one depth. Snapshot loaders build their arenas through it, so a
//! crafted record is a typed error before any walk, never a hang or a
//! panic.

use crate::{Error, Matrix, Result, SnapshotReader, SnapshotWriter};
use std::ops::Range;

/// One node of a [`Forest`]: 16 bytes, a split or a leaf.
///
/// A split sends a row whose `feature` value is `<= value` to the next
/// node (its left child) and anything else — a NaN included — to
/// `right`. A leaf has `right == 0`, which no split can have: a right
/// child comes after its parent and its parent's left child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    value: f64,
    feature: u32,
    right: u32,
}

impl FlatNode {
    /// A leaf holding `value`.
    pub fn leaf(value: f64) -> Self {
        Self {
            value,
            feature: 0,
            right: 0,
        }
    }

    /// A split on `feature` at `threshold` whose right child is node
    /// `right`. An index that does not fit in `u32` saturates, which
    /// [`Forest::push_tree`] then rejects.
    pub fn split(feature: usize, threshold: f64, right: usize) -> Self {
        Self {
            value: threshold,
            feature: u32::try_from(feature).unwrap_or(u32::MAX),
            right: u32::try_from(right).unwrap_or(u32::MAX),
        }
    }

    /// `true` for a leaf.
    pub fn is_leaf(&self) -> bool {
        self.right == 0
    }

    /// A split's threshold, or a leaf's value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The column a split tests (0 for a leaf).
    pub fn feature(&self) -> usize {
        self.feature as usize
    }

    /// A split's right child (0 for a leaf).
    pub fn right(&self) -> usize {
        self.right as usize
    }
}

fn invalid(what: String) -> Error {
    Error::InvalidParameter(format!("snapshot: {what}"))
}

/// Every tree of an ensemble in one arena of [`FlatNode`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Forest {
    nodes: Vec<FlatNode>,
    /// Arena index of each tree's root, ascending; tree `t` runs to the
    /// next root (the last one to the end of the arena).
    roots: Vec<u32>,
    n_features: usize,
}

impl Forest {
    /// An empty forest over rows of `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        Self {
            n_features,
            ..Self::default()
        }
    }

    /// Width of the rows the forest walks.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// The arena: every tree's nodes, tree after tree. A split's `right`
    /// is an arena index.
    pub fn nodes(&self) -> &[FlatNode] {
        &self.nodes
    }

    /// Arena range of tree `t`.
    ///
    /// # Panics
    ///
    /// When `t >= self.n_trees()`.
    pub fn tree_span(&self, t: usize) -> Range<usize> {
        let start = self.roots[t] as usize;
        let end = self
            .roots
            .get(t + 1)
            .map_or(self.nodes.len(), |&r| r as usize);
        start..end
    }

    /// Appends one tree, given as its nodes in preorder with `right`
    /// indices local to the tree. A leaf's arena value is
    /// `leaf_value(i, depth)` for the leaf at tree index `i` with `depth`
    /// ancestors; a split keeps its threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`], leaving the forest as it was,
    /// when the tree is empty, is not in preorder (a child before its
    /// parent or outside the tree, a right child anywhere but where the
    /// left subtree ends, nodes past the last leaf), tests a feature
    /// outside the forest's width, or would grow the arena past `u32`
    /// indices.
    pub fn push_tree(
        &mut self,
        tree: &[FlatNode],
        mut leaf_value: impl FnMut(usize, usize) -> f64,
    ) -> Result<()> {
        let (root, n) = (self.nodes.len(), tree.len());
        if n == 0 {
            return Err(invalid("tree has no nodes".into()));
        }
        if root + n > u32::MAX as usize {
            return Err(invalid(format!(
                "forest of {} nodes exceeds u32 node indices",
                root + n
            )));
        }
        let mut nodes = Vec::with_capacity(n);
        // Splits whose right child is still to come, innermost last, with
        // that child's depth; `depth` is the depth of node `i`.
        let mut open: Vec<(usize, usize)> = Vec::new();
        let mut depth = 0;
        for (i, node) in tree.iter().enumerate() {
            if node.is_leaf() {
                nodes.push(FlatNode::leaf(leaf_value(i, depth)));
                match open.pop() {
                    Some((right, right_depth)) if right == i + 1 => depth = right_depth,
                    Some((right, _)) => {
                        return Err(invalid(format!(
                            "tree is not in preorder: node {} follows leaf {i}, but the \
                             open split's right child is {right}",
                            i + 1
                        )))
                    }
                    None if i + 1 == n => {}
                    None => {
                        return Err(invalid(format!(
                            "tree has {} nodes after its last leaf {i}",
                            n - i - 1
                        )))
                    }
                }
            } else {
                let (feature, right) = (node.feature(), node.right());
                if feature >= self.n_features {
                    return Err(invalid(format!(
                        "split {i} tests feature {feature} of {}",
                        self.n_features
                    )));
                }
                if right <= i + 1 || right >= n {
                    return Err(invalid(format!(
                        "split {i} has right child {right} in a tree of {n} nodes"
                    )));
                }
                nodes.push(FlatNode::split(feature, node.value, root + right));
                open.push((right, depth + 1));
                depth += 1;
            }
        }
        self.nodes.extend(nodes);
        self.roots.push(root as u32);
        Ok(())
    }

    /// For each row of `x`, the sum of the leaves it reaches, one per
    /// tree, added in ascending tree order onto `-0.0` — the sum
    /// `Iterator::sum` gives, and for a one-tree forest that tree's leaf,
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `x` is not
    /// [`n_features`](Self::n_features) wide.
    pub fn leaf_sums(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.ncols() != self.n_features {
            return Err(Error::ShapeMismatch {
                op: "forest walk",
                lhs: x.shape(),
                rhs: (self.nodes.len(), self.n_features),
            });
        }
        Ok((0..x.nrows())
            .map(|r| {
                let row = x.row(r);
                self.roots
                    .iter()
                    .fold(-0.0, |sum, &root| sum + self.walk(root as usize, row))
            })
            .collect())
    }

    /// The leaf `row` reaches from `root`.
    #[inline]
    fn walk(&self, root: usize, row: &[f64]) -> f64 {
        let mut i = root;
        loop {
            let node = self.nodes[i];
            if node.is_leaf() {
                return node.value;
            }
            // A NaN compares false, so it goes right.
            i = std::hint::select_unpredictable(
                row[node.feature as usize] <= node.value,
                i + 1,
                node.right as usize,
            );
        }
    }
}

/// Writes a split's node record, after its tag: `(feature, threshold,
/// left, right)`, children local to the tree, the left child the next
/// node. `at` is the split's own tree index.
pub fn write_split_record(
    w: &mut SnapshotWriter,
    feature: usize,
    threshold: f64,
    at: usize,
    right: usize,
) {
    w.write_usize(feature);
    w.write_f64(threshold);
    w.write_usize(at + 1);
    w.write_usize(right);
}

/// Reads the split record [`write_split_record`] writes for tree index
/// `at`, as `(feature, threshold, right)`.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] on truncation, or when the left
/// child is not node `at + 1` — the one child index a [`Forest`] does
/// not store.
pub fn read_split_record(r: &mut SnapshotReader<'_>, at: usize) -> Result<(usize, f64, usize)> {
    let feature = r.read_usize()?;
    let threshold = r.read_f64()?;
    let left = r.read_usize()?;
    let right = r.read_usize()?;
    if left != at + 1 {
        return Err(invalid(format!(
            "split {at} has left child {left}; preorder puts it at {}",
            at + 1
        )));
    }
    Ok((feature, threshold, right))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x0 <= 0.5 ? (x1 <= 2 ? 1 : 2) : 3`, in preorder.
    fn small_tree() -> Vec<FlatNode> {
        vec![
            FlatNode::split(0, 0.5, 4),
            FlatNode::split(1, 2.0, 3),
            FlatNode::leaf(1.0),
            FlatNode::leaf(2.0),
            FlatNode::leaf(3.0),
        ]
    }

    fn keep(tree: &[FlatNode]) -> impl FnMut(usize, usize) -> f64 + '_ {
        |i, _| tree[i].value()
    }

    #[test]
    fn nodes_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<FlatNode>(), 16);
    }

    #[test]
    fn walks_preorder_trees_and_sums_in_tree_order() {
        let tree = small_tree();
        let mut forest = Forest::new(2);
        forest.push_tree(&tree, keep(&tree)).unwrap();
        forest
            .push_tree(&[FlatNode::leaf(10.0)], |_, _| 10.0)
            .unwrap();
        forest.push_tree(&tree, keep(&tree)).unwrap();
        assert_eq!(forest.n_trees(), 3);
        assert_eq!(forest.tree_span(1), 5..6);
        assert_eq!(forest.tree_span(2), 6..11);
        // Right children are rebased into the arena.
        assert_eq!(forest.nodes()[6].right(), 10);
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 5.0],
            vec![1.0, 0.0],
            vec![f64::NAN, 0.0],
            vec![0.5, f64::NAN],
            vec![f64::NEG_INFINITY, f64::INFINITY],
        ])
        .unwrap();
        assert_eq!(
            forest.leaf_sums(&x).unwrap(),
            vec![12.0, 14.0, 16.0, 16.0, 14.0, 14.0]
        );
        assert!(forest.leaf_sums(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn one_sum_per_row() {
        let tree = small_tree();
        let mut forest = Forest::new(2);
        forest.push_tree(&tree, keep(&tree)).unwrap();
        for n in [0, 1, 2, 257] {
            let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 2) as f64, 0.0]).collect();
            let x = Matrix::from_vec(n, 2, rows.concat()).unwrap();
            let sums = forest.leaf_sums(&x).unwrap();
            assert_eq!(sums.len(), n);
            for (i, s) in sums.iter().enumerate() {
                assert_eq!(*s, if i % 2 == 0 { 1.0 } else { 3.0 });
            }
        }
    }

    #[test]
    fn a_lone_tree_returns_its_leaf_bits() {
        let mut forest = Forest::new(1);
        forest
            .push_tree(&[FlatNode::leaf(-0.0)], |_, _| -0.0)
            .unwrap();
        let sums = forest.leaf_sums(&Matrix::zeros(2, 1)).unwrap();
        assert!(sums.iter().all(|s| s.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn leaf_values_see_their_depths() {
        let tree = small_tree();
        let mut forest = Forest::new(2);
        forest.push_tree(&tree, |_, depth| depth as f64).unwrap();
        let leaves: Vec<f64> = forest
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(FlatNode::value)
            .collect();
        assert_eq!(leaves, vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn malformed_trees_are_rejected_and_leave_the_forest_unchanged() {
        let leaf = FlatNode::leaf(0.0);
        let cases: Vec<(&str, Vec<FlatNode>)> = vec![
            ("empty", vec![]),
            ("self loop", vec![FlatNode::split(0, 0.0, 0), leaf, leaf]),
            (
                "right is left",
                vec![FlatNode::split(0, 0.0, 1), leaf, leaf],
            ),
            ("out of range", vec![FlatNode::split(0, 0.0, 3), leaf, leaf]),
            ("feature", vec![FlatNode::split(2, 0.0, 2), leaf, leaf]),
            (
                "saturated",
                vec![FlatNode::split(usize::MAX, 0.0, 2), leaf, leaf],
            ),
            ("trailing", vec![leaf, leaf]),
            ("ends in split", vec![FlatNode::split(0, 0.0, 2), leaf]),
            (
                "right inside left subtree",
                vec![
                    FlatNode::split(0, 0.0, 3),
                    FlatNode::split(1, 0.0, 4),
                    leaf,
                    leaf,
                    leaf,
                ],
            ),
        ];
        let good = small_tree();
        for (name, tree) in cases {
            let mut forest = Forest::new(2);
            forest.push_tree(&good, keep(&good)).unwrap();
            let before = forest.clone();
            let err = forest.push_tree(&tree, |_, _| 0.0).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidParameter(m) if m.starts_with("snapshot: ")),
                "{name}: {err:?}"
            );
            assert_eq!(forest, before, "{name}");
        }
    }

    #[test]
    fn split_records_round_trip_and_pin_the_left_child() {
        let mut w = SnapshotWriter::new();
        write_split_record(&mut w, 3, 0.25, 4, 9);
        let bytes = w.into_bytes();
        let got = read_split_record(&mut SnapshotReader::new(&bytes), 4).unwrap();
        assert_eq!(got, (3, 0.25, 9));
        assert!(read_split_record(&mut SnapshotReader::new(&bytes), 5).is_err());
        assert!(read_split_record(&mut SnapshotReader::new(&bytes[..20]), 4).is_err());
    }
}

//! Tree ensembles as one operator: a flat node arena and one walk.
//!
//! Every tree of an ensemble — the Isolation Forest's isolation trees,
//! a random forest's CART trees, a lone decision tree — lives in one
//! [`Forest`]: an arena of 16-byte nodes, each tree in preorder from its
//! root offset. Preorder puts a split's left child right after
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
//! level costs more than the rest of the step.
//!
//! The walk has no data-dependent exit either. A leaf *absorbs*: the
//! arena stores it as a step whose threshold is NaN and whose right child
//! is itself, so a row on a leaf stays there, and its value lives in a
//! parallel array. Every walk of a tree takes exactly the tree's depth in
//! steps, which [`Forest::push_tree`] records. So a block of eight rows
//! walks each tree in lockstep, eight independent selects per step and
//! no branch on where any row is. A per-row walk that stops at its leaf
//! mispredicts that stop about once per tree; walking blocks while
//! keeping the stop measured no faster than the plain loop, and the
//! lockstep walk measured 2.1–3.8x faster (an Isolation Forest of 40
//! trees, 256-row batches, on a shared 2-core host).
//!
//! [`Forest::push_tree`] accepts a tree only if it is its nodes in
//! preorder: every child after its parent, the right child exactly where
//! the left subtree ends, every feature inside the forest's width, no
//! node outside the tree. A walk then only ever moves to a larger index
//! until it rests on a leaf, every node has one depth, and a tree's depth
//! is less than its node count. Snapshot loaders build their arenas
//! through it, so a crafted record is a typed error before any walk,
//! never a hang or a panic.

use crate::{Error, Matrix, Result, SnapshotReader, SnapshotWriter};
use std::ops::Range;

/// One node of a tree as it is built and persisted: 16 bytes, a split or
/// a leaf. [`Forest`] stores it in its own walk layout and gives it back
/// through [`Forest::node`].
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

/// A node as the walk sees it. A split sends a row whose `feature` value
/// is `<= threshold` to the next node and anything else to `next`. A leaf
/// has a NaN threshold and is its own `next`, so every row it holds stays
/// there: it absorbs.
#[derive(Debug, Clone, Copy)]
struct Step {
    threshold: f64,
    feature: u32,
    next: u32,
}

/// Rows walked through the trees together.
const BLOCK: usize = 8;

/// Every tree of an ensemble in one arena.
///
/// Two forests are equal when they would persist the same: their widths,
/// roots and every node, values compared by bits.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    steps: Vec<Step>,
    /// Per arena node, a leaf's value; unused at a split.
    leaves: Vec<f64>,
    /// Arena index of each tree's root, ascending; tree `t` runs to the
    /// next root (the last one to the end of the arena).
    roots: Vec<u32>,
    /// Per tree, its deepest leaf's depth: the steps every walk of it
    /// takes.
    depths: Vec<u32>,
    n_features: usize,
}

impl PartialEq for Forest {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: FlatNode, b: FlatNode| {
            (a.value.to_bits(), a.feature, a.right) == (b.value.to_bits(), b.feature, b.right)
        };
        self.n_features == other.n_features
            && self.roots == other.roots
            && self.steps.len() == other.steps.len()
            && (0..self.steps.len()).all(|i| same(self.node(i), other.node(i)))
    }
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

    /// Number of nodes in the arena, every tree's.
    pub fn n_nodes(&self) -> usize {
        self.steps.len()
    }

    /// Arena node `i`. A split's `right` is an arena index.
    ///
    /// # Panics
    ///
    /// When `i >= self.n_nodes()`.
    pub fn node(&self, i: usize) -> FlatNode {
        let step = self.steps[i];
        if step.next as usize == i {
            FlatNode::leaf(self.leaves[i])
        } else {
            FlatNode {
                value: step.threshold,
                feature: step.feature,
                right: step.next,
            }
        }
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
            .map_or(self.steps.len(), |&r| r as usize);
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
        let (root, n) = (self.steps.len(), tree.len());
        if n == 0 {
            return Err(invalid("tree has no nodes".into()));
        }
        if root + n > u32::MAX as usize {
            return Err(invalid(format!(
                "forest of {} nodes exceeds u32 node indices",
                root + n
            )));
        }
        match self.append(tree, &mut leaf_value) {
            Ok(deepest) => {
                self.roots.push(root as u32);
                // A tree of `n` nodes is at most `n - 1` deep, which fits:
                // `n` does.
                self.depths.push(deepest as u32);
                Ok(())
            }
            Err(e) => {
                self.steps.truncate(root);
                self.leaves.truncate(root);
                Err(e)
            }
        }
    }

    /// Appends `tree`'s nodes to the arena as [`Forest::push_tree`]
    /// checks them, returning the tree's depth. On an error the caller
    /// takes back what was appended.
    fn append(
        &mut self,
        tree: &[FlatNode],
        leaf_value: &mut impl FnMut(usize, usize) -> f64,
    ) -> Result<usize> {
        let (root, n) = (self.steps.len(), tree.len());
        self.steps.reserve(n);
        self.leaves.reserve(n);
        // Splits whose right child is still to come, innermost last, with
        // that child's depth; `depth` is the depth of node `i`.
        let mut open: Vec<(usize, usize)> = Vec::new();
        let (mut depth, mut deepest) = (0, 0);
        for (i, node) in tree.iter().enumerate() {
            if node.is_leaf() {
                self.steps.push(Step {
                    threshold: f64::NAN,
                    feature: 0,
                    next: (root + i) as u32,
                });
                self.leaves.push(leaf_value(i, depth));
                deepest = deepest.max(depth);
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
                self.steps.push(Step {
                    threshold: node.value,
                    feature: node.feature,
                    next: (root + right) as u32,
                });
                self.leaves.push(0.0);
                open.push((right, depth + 1));
                depth += 1;
            }
        }
        Ok(deepest)
    }

    /// For each row of `x`, the sum of the leaves it reaches, one per
    /// tree, added in ascending tree order onto `-0.0` — the sum
    /// `Iterator::sum` gives, and for a one-tree forest that tree's leaf,
    /// bit for bit.
    ///
    /// Rows walk in blocks of eight, each tree in lockstep: a walk takes
    /// exactly its tree's depth in steps, since a row that reaches a leaf
    /// early stays there, so no step waits on whether a row has arrived.
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
                rhs: (self.steps.len(), self.n_features),
            });
        }
        let mut sums = vec![-0.0; x.nrows()];
        for (block, out) in sums.chunks_mut(BLOCK).enumerate() {
            let start = block * BLOCK;
            // A tail block walks only its real rows. Each block size is
            // its own instance: one walk over a runtime row count measured
            // 10–50 % slower on full blocks.
            match out.len() {
                8 => self.walk_block::<8>(x, start, out),
                7 => self.walk_block::<7>(x, start, out),
                6 => self.walk_block::<6>(x, start, out),
                5 => self.walk_block::<5>(x, start, out),
                4 => self.walk_block::<4>(x, start, out),
                3 => self.walk_block::<3>(x, start, out),
                2 => self.walk_block::<2>(x, start, out),
                _ => self.walk_block::<1>(x, start, out),
            }
        }
        Ok(sums)
    }

    /// Adds to `sums` the leaves rows `start..start + B` of `x` reach,
    /// tree by tree.
    ///
    /// The step reads skip their bounds checks, which cost a fifth of the
    /// walk. The checks that prove every index run before any walk:
    /// - [`Forest::push_tree`] rejects a split whose right child is not
    ///   after its left child and inside its tree, so from a split both
    ///   `at + 1` and `next` stay inside the tree;
    /// - a leaf's `next` is itself, and its NaN threshold never takes
    ///   `at + 1`;
    /// - [`Forest::push_tree`] rejects a split on a feature at or past
    ///   `n_features`, and [`Forest::leaf_sums`] rejects rows of any other
    ///   width. A leaf reads feature 0, and leaves are only stepped in a
    ///   tree of depth 1 or more, whose root split makes `n_features` at
    ///   least 1.
    ///
    /// The arena's fields are private and only `push_tree` grows them.
    #[inline]
    fn walk_block<const B: usize>(&self, x: &Matrix, start: usize, sums: &mut [f64]) {
        let rows: [&[f64]; B] = std::array::from_fn(|r| x.row(start + r));
        let mut acc = [-0.0; B];
        for (&root, &depth) in self.roots.iter().zip(&self.depths) {
            let mut at = [root as usize; B];
            for _ in 0..depth {
                for (at, row) in at.iter_mut().zip(&rows) {
                    debug_assert!(*at < self.steps.len());
                    // SAFETY: `at` starts at a root and moves to `at + 1` or
                    // `next`, which `push_tree`'s child checks keep in the
                    // arena (see above).
                    let step = unsafe { *self.steps.get_unchecked(*at) };
                    debug_assert!((step.feature as usize) < row.len());
                    // SAFETY: `push_tree`'s feature check and `leaf_sums`'s
                    // width check keep every step's feature inside the row
                    // (see above).
                    let value = unsafe { *row.get_unchecked(step.feature as usize) };
                    // A NaN compares false, so it goes right, and a leaf's
                    // NaN threshold keeps every row on the leaf.
                    *at = std::hint::select_unpredictable(
                        value <= step.threshold,
                        *at + 1,
                        step.next as usize,
                    );
                }
            }
            for (sum, &at) in acc.iter_mut().zip(&at) {
                *sum += self.leaves[at];
            }
        }
        sums.copy_from_slice(&acc);
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The walk before leaves absorbed: per row and tree, step until the
    /// node is a leaf, reading the arena through [`Forest::node`]; the
    /// leaves added in ascending tree order onto `-0.0`.
    fn per_row_walk(forest: &Forest, x: &Matrix) -> Vec<f64> {
        (0..x.nrows())
            .map(|r| {
                let row = x.row(r);
                (0..forest.n_trees()).fold(-0.0, |sum, t| {
                    let mut i = forest.tree_span(t).start;
                    loop {
                        let node = forest.node(i);
                        if node.is_leaf() {
                            break sum + node.value();
                        }
                        i = if row[node.feature()] <= node.value() {
                            i + 1
                        } else {
                            node.right()
                        };
                    }
                })
            })
            .collect()
    }

    /// Values thresholds and rows draw from: ties, signed zeros, NaN and
    /// the infinities among them.
    const VALUES: [f64; 9] = [
        -1.0,
        -0.0,
        0.0,
        0.5,
        1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        2.5,
    ];

    fn draw(rng: &mut StdRng) -> f64 {
        if rng.random_range(0..3) == 0 {
            rng.random::<f64>() * 4.0 - 2.0
        } else {
            VALUES[rng.random_range(0..VALUES.len())]
        }
    }

    /// A random tree in preorder, `depth` deep: its first leaf is at
    /// `depth`, every other leaf at most there.
    fn random_tree(rng: &mut StdRng, depth: usize, width: usize) -> Vec<FlatNode> {
        fn grow(
            rng: &mut StdRng,
            nodes: &mut Vec<FlatNode>,
            left: usize,
            spine: bool,
            width: usize,
        ) {
            if left == 0 || (!spine && rng.random_range(0..20) < 9) {
                // Mostly inexact values, so a changed summation order
                // changes the sum's bits.
                let value = match rng.random_range(0..8) {
                    0 => draw(rng),
                    1 => -0.0,
                    _ => rng.random::<f64>() * 10.0 - 5.0,
                };
                nodes.push(FlatNode::leaf(value));
                return;
            }
            let at = nodes.len();
            nodes.push(FlatNode::leaf(0.0));
            grow(rng, nodes, left - 1, spine, width);
            let right = nodes.len();
            grow(rng, nodes, left - 1, false, width);
            nodes[at] = FlatNode::split(rng.random_range(0..width), draw(rng), right);
        }
        let mut nodes = Vec::new();
        grow(rng, &mut nodes, depth, true, width);
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The lockstep walk sums each row's leaves with the per-row walk's
        /// bits: trees of depth 0 (a lone leaf) to 14, NaN thresholds and
        /// NaN rows, and every block tail from 0 to 3 blocks and one row.
        #[test]
        fn lockstep_walk_is_the_per_row_walk(
            (seed, deepest, n_trees) in (0u64..u64::MAX, 0usize..15, 1usize..7),
            (n_rows, width) in (0usize..(3 * BLOCK + 2), 1usize..5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut forest = Forest::new(width);
            for t in 0..n_trees {
                let depth = if t == 0 { deepest } else { rng.random_range(0..=deepest) };
                let tree = random_tree(&mut rng, depth, width);
                forest.push_tree(&tree, |i, _| tree[i].value()).unwrap();
                prop_assert_eq!(forest.depths[t] as usize, depth);
            }
            let cells = (0..n_rows * width).map(|_| draw(&mut rng)).collect();
            let x = Matrix::from_vec(n_rows, width, cells).unwrap();
            // Leaves of both infinities sum to NaN, whose sign and payload
            // Rust leaves unspecified: any NaN matches any NaN.
            let bits = |v: Vec<f64>| {
                v.into_iter()
                    .map(|s| if s.is_nan() { f64::NAN } else { s }.to_bits())
                    .collect::<Vec<_>>()
            };
            let want = bits(per_row_walk(&forest, &x));
            prop_assert_eq!(bits(forest.leaf_sums(&x).unwrap()), want.clone());
            // Each row alone, as a one-row block.
            for (r, &want) in want.iter().enumerate() {
                let row = Matrix::from_vec(1, width, x.row(r).to_vec()).unwrap();
                prop_assert_eq!(bits(forest.leaf_sums(&row).unwrap()), vec![want]);
            }
        }
    }

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
        assert_eq!(forest.node(6).right(), 10);
        assert_eq!(forest.n_nodes(), 11);
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
        let leaves: Vec<f64> = (0..forest.n_nodes())
            .map(|i| forest.node(i))
            .filter(FlatNode::is_leaf)
            .map(|n| n.value())
            .collect();
        assert_eq!(leaves, vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn leaves_absorb_and_nan_thresholds_send_rows_right() {
        // A split at NaN sends every row right; the leaves read back as
        // leaves, the split as the split it was pushed as.
        let tree = vec![
            FlatNode::split(0, f64::NAN, 2),
            FlatNode::leaf(1.0),
            FlatNode::leaf(2.0),
        ];
        let mut forest = Forest::new(1);
        forest.push_tree(&tree, keep(&tree)).unwrap();
        let x = Matrix::from_rows(&[vec![0.0], vec![f64::NAN], vec![-1e300]]).unwrap();
        assert_eq!(forest.leaf_sums(&x).unwrap(), vec![2.0; 3]);
        assert_eq!(forest.depths, vec![1]);
        assert!(forest.node(0).value().is_nan() && forest.node(0).right() == 2);
        assert!(forest.node(1).is_leaf() && forest.node(2).is_leaf());
        assert_eq!(forest.node(2).value(), 2.0);
        // A forest equals its clone, though its leaves' NaN markers do not
        // equal themselves; a changed leaf value's bits tell two apart.
        assert_eq!(forest, forest.clone());
        let mut other = Forest::new(1);
        other
            .push_tree(&tree, |i, _| if i == 2 { -0.0 } else { 1.0 })
            .unwrap();
        let mut zero = Forest::new(1);
        zero.push_tree(&tree, |i, _| if i == 2 { 0.0 } else { 1.0 })
            .unwrap();
        assert_ne!(other, zero);
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

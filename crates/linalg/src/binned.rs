//! Binned densities as one operator: sparse one-dimensional views, an
//! equal-width grid per view, and a per-bin score table.
//!
//! HBOS and LODA compute the same thing. Per row, for each view — one
//! feature for HBOS, a sparse random projection for LODA — they find a bin
//! on an equal-width grid and add that bin's score. [`Binned`] holds every
//! view of one detector and scores rows with one kernel, [`Binned::row_sums`].
//!
//! # Layout
//!
//! A view is a sparse weight row in CSR form: its features (strictly
//! ascending) and weights are a range of two flat arrays. An HBOS feature
//! is one weight of 1.0, which the projection reads exactly. Each view has
//! a grid `(lo, hi, bins)` spanning its training projections, and a range
//! of two more flat arrays: the per-bin mass (the density HBOS writes, the
//! probability LODA writes) and the per-bin score, which [`Rule::score`]
//! makes from the mass when the view is pushed — at fit and at snapshot
//! load, never while scoring.
//!
//! # Blocks
//!
//! Fit and scoring both work through blocks, so the matrix is read fewer
//! times and a view's weights and grid serve many values at once.
//! [`Binned::fit_views`] fits a detector's views two at a time:
//! one row-major pass projects the block, then each view takes its grid,
//! bins each projection once, counts the bins and scores the training rows
//! from the bins it kept. Its scratch is those projections, two `f64`
//! per row. [`Binned::row_sums`] scores eight rows at a time, view by
//! view, one sum per row. Neither block changes which values meet in
//! which order, so neither changes a bit.
//!
//! # Edges
//!
//! A value in `[lo, hi]` scores its bin's table entry. Outside, the
//! operator's [`Edge`] decides. [`Edge::Floor`] (LODA) scores as an empty
//! bin. [`Edge::Band`] (HBOS) gives the nearer edge bin's score within
//! `tolerance * range` of the grid, and beyond that band the edge bin's
//! mass decayed by `band / overshoot`, scored with [`Rule::score`] — the
//! one score computed while scoring.
//!
//! # Bits
//!
//! Scores, and so stored snapshots, keep the bits HBOS and LODA had as
//! per-value loops (`suod-detectors` keeps those loops as test oracles):
//! - A table entry is the score a loop computed per value, from the same
//!   mass.
//! - A value's bin is `((z - lo) / range * bins) as usize`, capped at the
//!   last bin, as written there: a division, no reciprocal.
//! - A projection is the products of a view's weights, in ascending feature
//!   order, added onto `-0.0`, as `Iterator::sum` adds: a one-weight view
//!   of 1.0 is the value itself, sign of zero included. Under
//!   [`Rule::dense`] it is the dense dot product without its zero weights.
//!   Each zero weight there adds `±0.0` to a finite row, which can only
//!   change the sign of a zero sum. `+0.0` and `-0.0` fall in one bin, so
//!   scoring skips them; the grid ends keep that sign, so fit restores it.
//! - A row's sum adds the views in order onto the caller's initial value.

use crate::{stats, Error, Matrix, Result};
use std::ops::Range;

/// Views [`Binned::fit_views`] projects in one pass over the training
/// rows. Their projections are held until binned, so fit's scratch is this
/// many `f64` per row: eight views per pass raised a 100 000-row pool's
/// peak memory by 13–18 %, two by about 3 %.
const FIT_BLOCK: usize = 2;

/// Rows [`Binned::row_sums`] scores through each view together.
const ROW_BLOCK: usize = 8;

/// How a view scores a value outside its grid `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edge {
    /// The score of an empty bin, [`Rule::score`] of `0.0`, for a value
    /// below `lo` or above `hi`. A NaN — the value or a grid end — is
    /// neither, so the value takes a bin: bin 0, where the saturating cast
    /// puts it.
    Floor,
    /// Within `tolerance * range` of the grid, the nearer edge bin's score.
    /// Beyond that band, [`Rule::score`] of the edge bin's mass times
    /// `band / overshoot`, each floored at `1e-12`. A NaN is beyond the
    /// upper edge, with the floored overshoot.
    Band {
        /// Width of the band, as a share of the grid's range.
        tolerance: f64,
    },
}

/// What a bin's mass and score are, and how edges score.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Mass of a bin that holds `count` of the `n` training values when
    /// the fullest bin holds `peak`.
    pub mass: fn(count: usize, peak: usize, n: usize) -> f64,
    /// Score of a bin of mass `m`: its table entry.
    pub score: fn(m: f64) -> f64,
    /// Scoring outside the grid.
    pub edge: Edge,
    /// Projections are dense dot products over every feature, an undrawn
    /// one weighing `+0.0`, so a zero projection is `-0.0` only when every
    /// product is — for a finite row, when each undrawn value's sign is
    /// negative. Fit restores that sign before taking the grid's ends;
    /// scoring needs only the drawn weights.
    pub dense: bool,
}

/// An equal-width grid over `[lo, hi]`.
#[derive(Debug, Clone)]
struct Grid {
    lo: f64,
    hi: f64,
    /// `(hi - lo).max(1e-12)`.
    range: f64,
    /// The bin count, as the bin expression multiplies by it.
    bins: f64,
    /// Index of the last bin.
    last: usize,
}

impl Grid {
    fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        Self {
            lo,
            hi,
            range: (hi - lo).max(1e-12),
            bins: n_bins as f64,
            last: n_bins - 1,
        }
    }

    /// The bin of `z`, capped at the last bin. Stored scores depend on this
    /// exact rounding: a division by the range, never a reciprocal.
    #[inline]
    fn bin(&self, z: f64) -> usize {
        ((((z - self.lo) / self.range) * self.bins) as usize).min(self.last)
    }
}

/// One view: its grid, and where its weights and bins sit.
#[derive(Debug, Clone)]
struct View {
    grid: Grid,
    /// `tolerance * range` under [`Edge::Band`]; unused otherwise.
    band: f64,
    /// Offset of bin 0 in the mass and score arrays.
    first: usize,
    /// Range of the view in the weight arrays.
    weights: Range<usize>,
}

/// Every view of one binned-density detector, with the kernel that scores
/// rows through them.
#[derive(Debug, Clone)]
pub struct Binned {
    n_features: usize,
    rule: Rule,
    views: Vec<View>,
    features: Vec<usize>,
    weights: Vec<f64>,
    masses: Vec<f64>,
    scores: Vec<f64>,
    /// [`Rule::score`] of `0.0`: what [`Edge::Floor`] scores.
    empty: f64,
}

fn invalid(what: String) -> Error {
    Error::InvalidParameter(format!("snapshot: {what}"))
}

impl Binned {
    /// An operator with no views over rows of `n_features` columns.
    pub fn new(n_features: usize, rule: Rule) -> Self {
        Self {
            n_features,
            rule,
            views: Vec::new(),
            features: Vec::new(),
            weights: Vec::new(),
            masses: Vec::new(),
            scores: Vec::new(),
            empty: (rule.score)(0.0),
        }
    }

    /// Width of the rows the operator scores.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of views.
    pub fn n_views(&self) -> usize {
        self.views.len()
    }

    /// View `v`'s features and weights.
    ///
    /// # Panics
    ///
    /// When `v >= self.n_views()`, as for every per-view accessor.
    pub fn weights(&self, v: usize) -> (&[usize], &[f64]) {
        let span = self.views[v].weights.clone();
        (&self.features[span.clone()], &self.weights[span])
    }

    /// View `v`'s grid ends `(lo, hi)`.
    pub fn grid(&self, v: usize) -> (f64, f64) {
        let grid = &self.views[v].grid;
        (grid.lo, grid.hi)
    }

    /// View `v`'s per-bin masses.
    pub fn masses(&self, v: usize) -> &[f64] {
        let view = &self.views[v];
        &self.masses[view.first..=view.first + view.grid.last]
    }

    /// Appends a view with weights `weights` (`(feature, weight)`, features
    /// strictly ascending), grid `[lo, hi]` and one bin per entry of
    /// `masses`, and builds its score table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`], leaving the operator as it was,
    /// when `masses` is empty or a feature is out of range or out of order.
    pub fn push_view(
        &mut self,
        weights: &[(usize, f64)],
        lo: f64,
        hi: f64,
        masses: &[f64],
    ) -> Result<()> {
        self.check_view(weights, masses.len())?;
        let grid = Grid::new(lo, hi, masses.len());
        let band = match self.rule.edge {
            Edge::Band { tolerance } => tolerance * grid.range,
            Edge::Floor => 0.0,
        };
        let start = self.features.len();
        self.features.extend(weights.iter().map(|&(f, _)| f));
        self.weights.extend(weights.iter().map(|&(_, w)| w));
        self.views.push(View {
            grid,
            band,
            first: self.masses.len(),
            weights: start..self.features.len(),
        });
        self.masses.extend_from_slice(masses);
        self.scores
            .extend(masses.iter().map(|&m| (self.rule.score)(m)));
        Ok(())
    }

    /// Fits one view per entry of `views` to the training rows `x`, in
    /// order, each with `n_bins` bins, and adds each view's score of every
    /// training row to `sums`, view after view.
    ///
    /// Views are fitted two at a time. One row-major pass
    /// projects every row through the block's views (restoring a zero's
    /// dense sign under [`Rule::dense`]). Per view, the grid spans the
    /// projections' extremes (`stats::min`/`max`, which skip NaN); each
    /// projection is binned once, and its bin is counted and kept; the
    /// view is pushed with each bin's [`Rule::mass`], and the training
    /// rows score from their kept bins. A projection off the grid — in
    /// training only a NaN — scores through the edge.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`], leaving the operator as it was,
    /// when `n_bins` is zero or a view's feature is out of range or out of
    /// order, and [`Error::ShapeMismatch`] when `x` is not
    /// [`n_features`](Self::n_features) wide or `sums` is not one per row.
    pub fn fit_views(
        &mut self,
        x: &Matrix,
        views: &[Vec<(usize, f64)>],
        n_bins: usize,
        sums: &mut [f64],
    ) -> Result<()> {
        self.check_width(x)?;
        if sums.len() != x.nrows() {
            return Err(Error::ShapeMismatch {
                op: "binned fit",
                lhs: x.shape(),
                rhs: (sums.len(), 1),
            });
        }
        for weights in views {
            self.check_view(weights, n_bins)?;
        }
        let n = x.nrows();
        // Each view's projections, then each projection's slot: its bin as
        // an f64, or NaN where it scores through the edge.
        let mut slots = vec![0.0; n * FIT_BLOCK.min(views.len())];
        let mut counts = vec![0usize; n_bins];
        for block in views.chunks(FIT_BLOCK) {
            let slots = &mut slots[..n * block.len()];
            for (r, row) in x.rows_iter().enumerate() {
                for (v, weights) in block.iter().enumerate() {
                    slots[v * n + r] = self.training_projection(row, weights);
                }
            }
            for (v, weights) in block.iter().enumerate() {
                let slots = &mut slots[v * n..(v + 1) * n];
                let grid = Grid::new(stats::min(slots), stats::max(slots), n_bins);
                counts.fill(0);
                for slot in slots.iter_mut() {
                    let bin = grid.bin(*slot);
                    counts[bin] += 1;
                    *slot = if self.on_grid(&grid, *slot) {
                        bin as f64
                    } else {
                        // The grid spans every projection but NaN.
                        debug_assert!(slot.is_nan());
                        f64::NAN
                    };
                }
                let peak = counts.iter().copied().max().unwrap_or(0);
                let masses: Vec<f64> = counts
                    .iter()
                    .map(|&c| (self.rule.mass)(c, peak, n))
                    .collect();
                self.push_view(weights, grid.lo, grid.hi, &masses)?;
                let view = self.views.last().expect("just pushed");
                let table = &self.scores[view.first..=view.first + view.grid.last];
                for (sum, &slot) in sums.iter_mut().zip(slots.iter()) {
                    // Off the grid in training is a NaN projection, which
                    // the edge scores whatever its payload.
                    *sum += if slot.is_nan() {
                        self.off_grid(view, f64::NAN)
                    } else {
                        table[slot as usize]
                    };
                }
            }
        }
        Ok(())
    }

    /// `row` projected through `weights` as [`Binned::fit_views`] needs
    /// it: the sparse dot, its zero's sign restored to the dense dot's
    /// under [`Rule::dense`].
    #[inline]
    fn training_projection(&self, row: &[f64], weights: &[(usize, f64)]) -> f64 {
        let z = weights.iter().fold(-0.0, |sum, &(f, w)| sum + row[f] * w);
        if self.rule.dense && z == 0.0 && z.is_sign_negative() && undrawn_positive(row, weights) {
            0.0
        } else {
            z
        }
    }

    /// For each row of `x`, `init` plus the score of every view, added in
    /// view order: the one scoring kernel. Rows score in blocks of
    /// eight, view by view, each onto its own sum, so a view's
    /// weights and grid serve the whole block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when `x` is not
    /// [`n_features`](Self::n_features) wide.
    pub fn row_sums(&self, x: &Matrix, init: f64) -> Result<Vec<f64>> {
        self.check_width(x)?;
        let mut sums = vec![init; x.nrows()];
        for (block, out) in sums.chunks_mut(ROW_BLOCK).enumerate() {
            let start = block * ROW_BLOCK;
            for view in &self.views {
                let span = view.weights.clone();
                let (features, weights) = (&self.features[span.clone()], &self.weights[span]);
                for (r, sum) in out.iter_mut().enumerate() {
                    *sum += self.score(view, dot(x.row(start + r), features, weights));
                }
            }
        }
        Ok(sums)
    }

    /// The score `view` gives the value `z`.
    #[inline]
    fn score(&self, view: &View, z: f64) -> f64 {
        if self.on_grid(&view.grid, z) {
            self.scores[view.first + view.grid.bin(z)]
        } else {
            self.off_grid(view, z)
        }
    }

    /// Whether `z` scores its bin's table entry rather than through the
    /// edge.
    #[inline]
    fn on_grid(&self, grid: &Grid, z: f64) -> bool {
        match self.rule.edge {
            Edge::Floor => !(z < grid.lo || z > grid.hi),
            Edge::Band { .. } => z >= grid.lo && z <= grid.hi,
        }
    }

    /// The score of `z` off `view`'s grid.
    fn off_grid(&self, view: &View, z: f64) -> f64 {
        let grid = &view.grid;
        match self.rule.edge {
            Edge::Floor => self.empty,
            Edge::Band { .. } => {
                let (edge, overshoot) = if z < grid.lo {
                    (view.first, grid.lo - z)
                } else {
                    (view.first + grid.last, z - grid.hi)
                };
                if view.band > 0.0 && overshoot <= view.band {
                    return self.scores[edge];
                }
                let decay = view.band.max(1e-12) / overshoot.max(1e-12);
                (self.rule.score)(self.masses[edge] * decay)
            }
        }
    }

    fn check_view(&self, weights: &[(usize, f64)], n_bins: usize) -> Result<()> {
        if n_bins == 0 {
            return Err(invalid("binned view has no bins".into()));
        }
        let mut prev = None;
        for &(f, _) in weights {
            if f >= self.n_features || prev.is_some_and(|p| p >= f) {
                return Err(invalid(format!(
                    "binned view weights feature {f} after {prev:?} of {}",
                    self.n_features
                )));
            }
            prev = Some(f);
        }
        Ok(())
    }

    fn check_width(&self, x: &Matrix) -> Result<()> {
        if x.ncols() != self.n_features {
            return Err(Error::ShapeMismatch {
                op: "binned scoring",
                lhs: x.shape(),
                rhs: (self.views.len(), self.n_features),
            });
        }
        Ok(())
    }
}

/// `row` projected through a view's weights: the products in ascending
/// feature order, added onto `-0.0`, the identity `Iterator::sum` starts
/// from.
#[inline]
fn dot(row: &[f64], features: &[usize], weights: &[f64]) -> f64 {
    features
        .iter()
        .zip(weights)
        .fold(-0.0, |sum, (&f, &w)| sum + row[f] * w)
}

/// Whether a feature `weights` does not draw holds a value of positive
/// sign, whose product with an undrawn `+0.0` weight is `+0.0`: then a
/// dense dot product that sums to zero is `+0.0`.
fn undrawn_positive(row: &[f64], weights: &[(usize, f64)]) -> bool {
    row.iter().enumerate().any(|(f, v)| {
        v.is_sign_positive() && weights.binary_search_by_key(&f, |&(g, _)| g).is_err()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Binned {
        /// The fit before views were fitted in blocks: one view, one
        /// strided pass projecting every row, each projection binned to
        /// count it and binned again to score it.
        fn fit_view(
            &mut self,
            x: &Matrix,
            weights: &[(usize, f64)],
            n_bins: usize,
            sums: &mut [f64],
        ) -> Result<()> {
            self.check_width(x)?;
            if sums.len() != x.nrows() {
                return Err(Error::ShapeMismatch {
                    op: "binned fit",
                    lhs: x.shape(),
                    rhs: (sums.len(), 1),
                });
            }
            self.check_view(weights, n_bins)?;
            let (features, w): (Vec<usize>, Vec<f64>) = weights.iter().copied().unzip();
            let z: Vec<f64> = x
                .rows_iter()
                .map(|row| match dot(row, &features, &w) {
                    z if self.rule.dense && z == 0.0 && z.is_sign_negative() => {
                        if undrawn_positive(row, weights) {
                            0.0
                        } else {
                            z
                        }
                    }
                    z => z,
                })
                .collect();
            let grid = Grid::new(stats::min(&z), stats::max(&z), n_bins);
            let mut counts = vec![0usize; n_bins];
            for &v in &z {
                counts[grid.bin(v)] += 1;
            }
            let peak = counts.iter().copied().max().unwrap_or(0);
            let masses: Vec<f64> = counts
                .iter()
                .map(|&c| (self.rule.mass)(c, peak, x.nrows()))
                .collect();
            self.push_view(weights, grid.lo, grid.hi, &masses)?;
            let view = self.views.last().expect("just pushed");
            for (sum, &v) in sums.iter_mut().zip(&z) {
                *sum += self.score(view, v);
            }
            Ok(())
        }
    }

    /// Each value's bits, any NaN as one: Rust leaves a NaN result's sign
    /// and payload unspecified.
    fn bits(values: &[f64]) -> Vec<u64> {
        values
            .iter()
            .map(|&v| if v.is_nan() { f64::NAN } else { v }.to_bits())
            .collect()
    }

    /// Everything a fitted operator holds, values by their bits.
    fn state(op: &Binned) -> Vec<Vec<u64>> {
        let grids = (0..op.n_views())
            .flat_map(|v| [op.grid(v).0, op.grid(v).1])
            .collect::<Vec<_>>();
        vec![
            op.features.iter().map(|&f| f as u64).collect(),
            bits(&op.weights),
            bits(&op.masses),
            bits(&op.scores),
            bits(&grids),
        ]
    }

    /// A column of one kind: tie-heavy values with both zeros, all NaN,
    /// all `+0.0`, all `-0.0`, or spread values.
    fn random_column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        const TIES: [f64; 6] = [-0.0, 0.0, 1.0, -1.0, 0.25, 3.0];
        let kind = rng.random_range(0..5);
        (0..n)
            .map(|_| match kind {
                0 => TIES[rng.random_range(0..TIES.len())],
                1 => f64::NAN,
                2 => 0.0,
                3 => -0.0,
                _ => rng.random::<f64>() * 20.0 - 10.0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Views fitted in blocks are the views fitted one by one: the same
        /// grids, masses and tables, and the same training sums, bit for
        /// bit, under both rules, over columns of ties and signed zeros
        /// (so the dense sign of a zero projection is restored) and
        /// all-NaN columns, at every block tail.
        #[test]
        fn blocked_fit_is_the_per_view_fit(
            (seed, n, d) in (0u64..u64::MAX, 0usize..40, 1usize..6),
            (n_views, bins_at, rule_at) in (0usize..6, 0usize..4, 0usize..5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_bins = [1, 2, 7, 50][bins_at];
            let rule = match rule_at {
                0 => floor_rule(),
                1 => Rule { dense: false, ..floor_rule() },
                2 => band_rule(0.0),
                3 => band_rule(0.3),
                _ => Rule { dense: true, ..band_rule(1.0) },
            };
            let columns: Vec<Vec<f64>> = (0..d).map(|_| random_column(&mut rng, n)).collect();
            let cells = (0..n).flat_map(|r| columns.iter().map(move |c| c[r])).collect();
            let x = Matrix::from_vec(n, d, cells).unwrap();
            const WEIGHTS: [f64; 5] = [-1.0, -2.0, 0.5, 1.0, -0.0];
            let mut views: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_views];
            for view in &mut views {
                for f in 0..d {
                    if rng.random_range(0..2) == 0 {
                        view.push((f, WEIGHTS[rng.random_range(0..WEIGHTS.len())]));
                    }
                }
            }

            let mut want = Binned::new(d, rule);
            let mut want_sums = vec![-0.0; n];
            for weights in &views {
                want.fit_view(&x, weights, n_bins, &mut want_sums).unwrap();
            }
            let mut got = Binned::new(d, rule);
            let mut got_sums = vec![-0.0; n];
            got.fit_views(&x, &views, n_bins, &mut got_sums).unwrap();
            prop_assert_eq!(state(&got), state(&want));
            prop_assert_eq!(bits(&got_sums), bits(&want_sums));
        }

        /// Blocked scoring is per-row scoring: every row's sum has the
        /// bits it has alone, at every block tail.
        #[test]
        fn blocked_rows_score_as_single_rows(
            (seed, n, d) in (0u64..u64::MAX, 0usize..(3 * ROW_BLOCK + 2), 1usize..5),
            rule_at in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rule = [floor_rule(), band_rule(0.0), band_rule(0.3)][rule_at];
            let mut op = Binned::new(d, rule);
            for _ in 0..4 {
                let weights: Vec<(usize, f64)> =
                    (0..d).map(|f| (f, rng.random::<f64>() - 0.5)).collect();
                let masses: Vec<f64> = (0..5).map(|_| rng.random::<f64>()).collect();
                op.push_view(&weights, -1.0, 1.0, &masses).unwrap();
            }
            let cells = (0..n * d)
                .map(|_| match rng.random_range(0..6) {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    _ => rng.random::<f64>() * 6.0 - 3.0,
                })
                .collect();
            let x = Matrix::from_vec(n, d, cells).unwrap();
            let sums = op.row_sums(&x, -0.0).unwrap();
            for (r, sum) in sums.iter().enumerate() {
                let row = Matrix::from_vec(1, d, x.row(r).to_vec()).unwrap();
                prop_assert_eq!(op.row_sums(&row, -0.0).unwrap()[0].to_bits(), sum.to_bits());
            }
        }
    }

    const HBOS_FLOOR: f64 = 1e-6;
    const LODA_FLOOR: f64 = 1e-9;

    fn band_rule(tolerance: f64) -> Rule {
        Rule {
            mass: |c, peak, _| c as f64 / peak as f64,
            score: |d| (1.0 / d.max(HBOS_FLOOR)).ln(),
            edge: Edge::Band { tolerance },
            dense: false,
        }
    }

    fn floor_rule() -> Rule {
        Rule {
            mass: |c, _, n| c as f64 / n as f64,
            score: |p| -(p.max(LODA_FLOOR)).ln(),
            edge: Edge::Floor,
            dense: true,
        }
    }

    fn column(values: &[f64]) -> Matrix {
        Matrix::from_vec(values.len(), 1, values.to_vec()).unwrap()
    }

    #[test]
    fn fit_counts_bins_and_scores_training_rows_from_the_table() {
        // Grid [0, 4], 4 bins of width 1: counts 1, 1, 0, 2 (4.0 is capped
        // into the last bin).
        let x = column(&[0.0, 1.5, 3.5, 4.0]);
        let mut op = Binned::new(1, floor_rule());
        let mut sums = vec![0.0; 4];
        op.fit_views(&x, &[vec![(0, 1.0)]], 4, &mut sums).unwrap();
        assert_eq!(op.grid(0), (0.0, 4.0));
        assert_eq!(op.masses(0), &[0.25, 0.25, 0.0, 0.5]);
        let quarter = -(0.25f64.ln());
        let half = -(0.5f64.ln());
        assert_eq!(sums, vec![quarter, quarter, half, half]);
        assert_eq!(op.row_sums(&x, 0.0).unwrap(), sums);
    }

    #[test]
    fn floor_edge_scores_outside_and_sends_nan_to_bin_zero() {
        let mut op = Binned::new(1, floor_rule());
        op.push_view(&[(0, 1.0)], 0.0, 2.0, &[0.5, 0.5]).unwrap();
        let q = column(&[-1.0, 3.0, f64::NAN, f64::INFINITY, 0.0, 2.0]);
        let s = op.row_sums(&q, 0.0).unwrap();
        let floor = -(LODA_FLOOR.ln());
        let half = -(0.5f64.ln());
        assert_eq!(s, vec![floor, floor, half, floor, half, half]);
    }

    #[test]
    fn floor_edge_over_a_nan_grid_scores_bin_zero() {
        // Every training projection NaN: lo = hi = NaN, all in bin 0.
        let mut op = Binned::new(1, floor_rule());
        let mut sums = vec![0.0; 3];
        op.fit_views(&column(&[f64::NAN; 3]), &[vec![(0, 1.0)]], 2, &mut sums)
            .unwrap();
        assert!(op.grid(0).0.is_nan() && op.grid(0).1.is_nan());
        let bin0 = -(1.0f64.ln());
        let q = column(&[-1e308, 0.0, 7.0, f64::INFINITY, f64::NAN]);
        assert_eq!(op.row_sums(&q, 0.0).unwrap(), vec![bin0; 5]);
    }

    #[test]
    fn band_edge_borrows_then_decays() {
        // Grid [0, 10], band 0.5 * 10 = 5.
        let mut op = Binned::new(1, band_rule(0.5));
        op.push_view(&[(0, 1.0)], 0.0, 10.0, &[0.25, 1.0]).unwrap();
        let q = column(&[-5.0, 15.0, 20.0, f64::NAN, f64::NEG_INFINITY]);
        let s = op.row_sums(&q, -0.0).unwrap();
        let score = |d: f64| (1.0 / d.max(HBOS_FLOOR)).ln();
        assert_eq!(s[0], score(0.25));
        assert_eq!(s[1], score(1.0));
        assert_eq!(s[2], score(1.0 * (5.0 / 10.0)));
        // NaN: beyond the upper edge with the floored overshoot.
        assert_eq!(s[3], score(1.0 * (5.0 / 1e-12)));
        assert_eq!(s[4], score(0.25 * (5.0 / f64::INFINITY)));
    }

    #[test]
    fn sparse_views_sum_in_view_order_onto_init() {
        let mut op = Binned::new(3, floor_rule());
        op.push_view(&[(0, 2.0), (2, -1.0)], -4.0, 4.0, &[0.1, 0.2, 0.3, 0.4])
            .unwrap();
        op.push_view(&[(1, 0.5)], 0.0, 1.0, &[1.0]).unwrap();
        assert_eq!(op.weights(0), (&[0, 2][..], &[2.0, -1.0][..]));
        let x = Matrix::from_rows(&[vec![1.0, 1.0, 1.0], vec![-2.0, 9.0, 0.0]]).unwrap();
        let s = op.row_sums(&x, 0.0).unwrap();
        // Row 0: z = 1 (bin 2), z = 0.5 (bin 0). Row 1: z = -4 (bin 0),
        // z = 4.5 (outside).
        let score = |p: f64| -(p.max(LODA_FLOOR)).ln();
        assert_eq!(s[0], 0.0 + score(0.3) + score(1.0));
        assert_eq!(s[1], 0.0 + score(0.1) + -(LODA_FLOOR.ln()));
    }

    #[test]
    fn a_one_weight_view_reads_the_value_with_its_sign() {
        // A column whose least value is -0.0 keeps it as the grid's end,
        // even beside a positive column.
        let x = Matrix::from_rows(&[vec![-0.0, 5.0], vec![0.0, 5.0], vec![1.0, 5.0]]).unwrap();
        let mut op = Binned::new(2, band_rule(0.0));
        op.fit_views(&x, &[vec![(0, 1.0)]], 2, &mut [0.0; 3])
            .unwrap();
        assert_eq!(op.grid(0).0.to_bits(), (-0.0f64).to_bits());
        let values = [-0.0, 0.0, 0.5, 1.0, f64::NAN, 5e-324];
        for (&v, &z) in values.iter().zip(&values) {
            assert_eq!(dot(&[v], &[0], &[1.0]).to_bits(), z.to_bits());
        }
    }

    #[test]
    fn dense_projections_keep_the_dense_sign_of_zero() {
        // Columns 0 and 1 are +0.0 and drawn with negative weights, so
        // every drawn product is -0.0. Undrawn column 2 decides the sign:
        // 0.5 * +0.0 = +0.0 makes the dense sum +0.0; -0.5 keeps it -0.0.
        let weights = [(0, -1.0), (1, -2.0)];
        for (third, dense, want) in [(0.5, true, 0.0f64), (-0.5, true, -0.0), (0.5, false, -0.0)] {
            let x = Matrix::from_rows(&vec![vec![0.0, 0.0, third]; 4]).unwrap();
            let rule = Rule {
                dense,
                ..floor_rule()
            };
            let mut op = Binned::new(3, rule);
            op.fit_views(&x, &[weights.to_vec()], 3, &mut [0.0; 4])
                .unwrap();
            let (lo, hi) = op.grid(0);
            assert_eq!(
                (lo.to_bits(), hi.to_bits()),
                (want.to_bits(), want.to_bits())
            );
        }
    }

    #[test]
    fn malformed_views_are_rejected_and_leave_the_operator_unchanged() {
        let mut op = Binned::new(2, floor_rule());
        op.push_view(&[(0, 1.0)], 0.0, 1.0, &[1.0]).unwrap();
        for (weights, masses) in [
            (vec![(0, 1.0)], vec![]),
            (vec![(2, 1.0)], vec![1.0]),
            (vec![(1, 1.0), (0, 1.0)], vec![1.0]),
            (vec![(1, 1.0), (1, 1.0)], vec![1.0]),
        ] {
            let err = op.push_view(&weights, 0.0, 1.0, &masses).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidParameter(m) if m.starts_with("snapshot: ")),
                "{weights:?}: {err:?}"
            );
            assert_eq!(op.n_views(), 1);
            assert_eq!(op.features, vec![0]);
            assert_eq!(op.masses, vec![1.0]);
        }
        assert!(op.row_sums(&Matrix::zeros(1, 3), 0.0).is_err());
        let x = Matrix::zeros(2, 2);
        assert!(op
            .fit_views(&x, &[vec![(0, 1.0)]], 0, &mut [0.0; 2])
            .is_err());
        assert!(op
            .fit_views(&x, &[vec![(0, 1.0)]], 1, &mut [0.0; 3])
            .is_err());
        // A bad view anywhere fits none of them.
        let views = [vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]];
        assert!(op.fit_views(&x, &views, 1, &mut [0.0; 2]).is_err());
        assert_eq!(op.n_views(), 1);
    }
}

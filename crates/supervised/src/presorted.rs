//! A training matrix prepared once for CART split search.
//!
//! Growing a tree orders a node's rows by one feature after another.
//! Doing that through the row-major matrix costs a strided load and a
//! float comparison per sort step; a [`PresortedSpace`] pays one sort
//! per feature up front and hands the builder integers instead. Every
//! tree of every forest trained on the same matrix shares it.

use crate::{check_finite, Error, Result};
use suod_linalg::Matrix;

/// Column-major feature values plus per-feature **dense ranks** of a
/// training matrix.
///
/// Within a feature, equal values carry equal ranks and a larger value a
/// larger rank, with equality as `f64::partial_cmp` sees it (`-0.0` and
/// `0.0` tie). Ordering rows by rank therefore orders them exactly as
/// comparing the values would, ties included.
///
/// # Example
///
/// ```
/// use suod_linalg::Matrix;
/// use suod_supervised::{PresortedSpace, RandomForestRegressor, Regressor};
///
/// # fn main() -> Result<(), suod_supervised::Error> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
/// let y = [0.0, 1.0, 2.0, 3.0];
/// let space = PresortedSpace::new(&x)?;
/// let (mut a, mut b) = (RandomForestRegressor::new(5, 1), RandomForestRegressor::new(5, 1));
/// a.fit_presorted(&space, &y)?;
/// b.fit(&x, &y)?;
/// assert_eq!(a.predict(&x)?, b.predict(&x)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PresortedSpace {
    n_rows: usize,
    n_features: usize,
    /// `values[f * n_rows + row]`.
    values: Vec<f64>,
    /// `ranks[f * n_rows + row]`.
    ranks: Vec<u32>,
}

impl PresortedSpace {
    /// Copies `x` column-major and ranks every feature.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when `x` has no rows,
    /// [`Error::NonFiniteInput`] when it holds a NaN or an infinity, and
    /// [`Error::InvalidParameter`] beyond `u32::MAX` rows (row ids and
    /// ranks are 32-bit).
    pub fn new(x: &Matrix) -> Result<Self> {
        let (n, d) = x.shape();
        if n == 0 {
            return Err(Error::EmptyInput("Regressor::fit"));
        }
        if u32::try_from(n).is_err() {
            return Err(Error::InvalidParameter(format!(
                "tree training supports at most {} rows, got {n}",
                u32::MAX
            )));
        }
        check_finite(x.as_slice(), "features")?;
        let mut values = vec![0.0; n * d];
        let mut ranks = vec![0u32; n * d];
        // Sorting contiguous (value, row) pairs, not row ids through the
        // matrix: the presort has to stay small beside a shallow forest.
        let mut pairs: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..d {
            let column = f * n..(f + 1) * n;
            pairs.clear();
            pairs.extend((0..n).map(|row| (x.get(row, f), row as u32)));
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let (values, ranks) = (&mut values[column.clone()], &mut ranks[column]);
            let mut rank = 0u32;
            let mut previous = pairs[0].0;
            for &(value, row) in &pairs {
                // `!=`, not the sort's total order: -0.0 and 0.0 are one
                // value to the split search.
                if value != previous {
                    rank += 1;
                    previous = value;
                }
                values[row as usize] = value;
                ranks[row as usize] = rank;
            }
        }
        Ok(Self {
            n_rows: n,
            n_features: d,
            values,
            ranks,
        })
    }

    /// Number of training rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature `f` of every row, by row id.
    pub(crate) fn values(&self, f: usize) -> &[f64] {
        &self.values[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Dense rank of every row's feature `f`, by row id.
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..(f + 1) * self.n_rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_dense_and_tie_signed_zeros() {
        let x = Matrix::from_rows(&[
            vec![0.0, 5.0],
            vec![-1.5, 5.0],
            vec![-0.0, 5.0],
            vec![7.0, 5.0],
            vec![-1.5, 5.0],
        ])
        .unwrap();
        let space = PresortedSpace::new(&x).unwrap();
        assert_eq!((space.n_rows(), space.n_features()), (5, 2));
        assert_eq!(space.ranks(0), [1, 0, 1, 2, 0]);
        assert_eq!(space.ranks(1), [0; 5]);
        assert_eq!(space.values(0), x.col(0));
        assert!(space.values(0)[2].is_sign_negative());
    }

    #[test]
    fn rejects_empty_and_non_finite_matrices() {
        assert!(matches!(
            PresortedSpace::new(&Matrix::zeros(0, 3)).unwrap_err(),
            Error::EmptyInput(_)
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = Matrix::zeros(4, 2);
            x.set(2, 1, bad);
            assert_eq!(
                PresortedSpace::new(&x).unwrap_err(),
                Error::NonFiniteInput("features")
            );
        }
    }
}

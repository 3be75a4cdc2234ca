//! Correlation coefficients.
//!
//! The paper validates the BPS cost predictor by Spearman's rank
//! correlation between predicted and true model-cost ranks (§3.5,
//! r_s > 0.9 across folds). Pearson and Kendall are included for the
//! cost-predictor cross-validation harness.

use crate::{check_lengths, Error, Result};
use suod_linalg::rank::average_ranks;
use suod_linalg::stats::{mean, std_dev};

/// Pearson product-moment correlation.
///
/// # Errors
///
/// * [`Error::LengthMismatch`] when the vectors differ in length.
/// * [`Error::Empty`] for inputs shorter than 2.
/// * [`Error::Undefined`] when either vector is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    check_lengths(x.len(), y.len())?;
    if x.len() < 2 {
        return Err(Error::Empty("pearson"));
    }
    let (mx, my) = (mean(x), mean(y));
    let (sx, sy) = (std_dev(x), std_dev(y));
    if sx < 1e-12 || sy < 1e-12 {
        return Err(Error::Undefined("pearson of a constant vector"));
    }
    let n = x.len() as f64;
    let cov = x
        .iter()
        .zip(y)
        .map(|(&a, &b)| (a - mx) * (b - my))
        .sum::<f64>()
        / n;
    Ok(cov / (sx * sy))
}

/// Spearman's rank correlation coefficient (handles ties via average
/// ranks, i.e. the Pearson correlation of the rank vectors).
///
/// # Errors
///
/// Propagates the conditions of [`pearson`] applied to ranks.
///
/// # Example
///
/// ```
/// // A perfectly monotone (but non-linear) relationship.
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [1.0, 8.0, 27.0, 64.0];
/// assert!((suod_metrics::spearman(&x, &y)? - 1.0).abs() < 1e-12);
/// # Ok::<(), suod_metrics::Error>(())
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Result<f64> {
    check_lengths(x.len(), y.len())?;
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    pearson(&rx, &ry)
}

/// Kendall's tau-a rank correlation (concordant minus discordant pairs over
/// all pairs). Ties count as neither concordant nor discordant.
///
/// # Errors
///
/// * [`Error::LengthMismatch`] when the vectors differ in length.
/// * [`Error::Empty`] for inputs shorter than 2.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Result<f64> {
    check_lengths(x.len(), y.len())?;
    let n = x.len();
    if n < 2 {
        return Err(Error::Empty("kendall_tau"));
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            let s = dx * dy;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    Ok((concordant - discordant) as f64 / pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_undefined() {
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 8.0, 27.0, 64.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_reversed() {
        let x = [1.0, 2.0, 3.0];
        let y = [9.0, 5.0, 1.0];
        assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_with_ties_reference() {
        // scipy.stats.spearmanr([1,2,2,3],[1,2,3,4]).statistic ~= 0.9486832980505138
        let r = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((r - 0.948_683_298_050_513_8).abs() < 1e-9);
    }

    #[test]
    fn kendall_simple() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(kendall_tau(&x, &x).unwrap(), 1.0);
        let rev = [3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&x, &rev).unwrap(), -1.0);
    }

    #[test]
    fn kendall_partial() {
        // scipy.stats.kendalltau([1,2,3,4],[1,3,2,4]) == 2/3 (no ties).
        let t = kendall_tau(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]).unwrap();
        assert!((t - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn too_short_errors() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(kendall_tau(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mismatch = Error::LengthMismatch {
            labels: 3,
            scores: 2,
        };
        let (x, y) = ([1.0, 2.0, 3.0], [1.0, 2.0]);
        assert_eq!(pearson(&x, &y).unwrap_err(), mismatch);
        assert_eq!(spearman(&x, &y).unwrap_err(), mismatch);
        assert_eq!(kendall_tau(&x, &y).unwrap_err(), mismatch);
    }

    #[test]
    fn kendall_ties_count_as_neither() {
        // Pairs: (0,1) tied in x, (0,2) and (1,2) concordant: 2 of 3.
        let t = kendall_tau(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap();
        assert!((t - 2.0 / 3.0).abs() < 1e-12);
        // Every pair tied: 0, not undefined.
        assert_eq!(kendall_tau(&[5.0; 4], &[1.0, 2.0, 3.0, 4.0]).unwrap(), 0.0);
    }

    #[test]
    fn spearman_of_a_constant_is_undefined() {
        assert!(matches!(
            spearman(&[2.0; 5], &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap_err(),
            Error::Undefined(_)
        ));
        assert!(matches!(
            spearman(&[1.0], &[1.0]).unwrap_err(),
            Error::Empty(_)
        ));
    }
}

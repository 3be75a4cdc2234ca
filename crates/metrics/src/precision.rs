//! P@N (precision at rank N) and related top-k diagnostics.

use crate::{check_lengths, Error, Result};
use suod_linalg::rank::top_k_indices;

/// P@N: the precision at rank `n`.
///
/// The paper (Appendix A) evaluates P@N with `n` set to the actual number
/// of outliers in the dataset, which is the default here (`n = None`).
/// Pass `Some(k)` to evaluate precision among the top-`k` scored samples
/// instead.
///
/// # Errors
///
/// * [`Error::LengthMismatch`] when the vectors differ in length.
/// * [`Error::Empty`] on empty input.
/// * [`Error::Undefined`] when there are no outliers and `n` is `None`,
///   or when `Some(0)` is passed.
/// * [`Error::NonFinite`] when any score is NaN or infinite — a NaN score
///   would make the top-k selection order-dependent garbage.
///
/// # Example
///
/// ```
/// // 2 outliers; the top-2 scores hit one of them.
/// let p = suod_metrics::precision_at_n(&[0, 0, 1, 1], &[0.9, 0.1, 0.8, 0.2], None)?;
/// assert_eq!(p, 0.5);
/// # Ok::<(), suod_metrics::Error>(())
/// ```
pub fn precision_at_n(labels: &[i32], scores: &[f64], n: Option<usize>) -> Result<f64> {
    check_lengths(labels.len(), scores.len())?;
    if labels.is_empty() {
        return Err(Error::Empty("precision_at_n"));
    }
    if scores.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFinite("precision_at_n"));
    }
    let n_outliers = labels.iter().filter(|&&l| l != 0).count();
    let k = match n {
        Some(0) => return Err(Error::Undefined("precision_at_n with n = 0")),
        Some(k) => k.min(labels.len()),
        None if n_outliers == 0 => {
            return Err(Error::Undefined("precision_at_n with zero outliers"))
        }
        None => n_outliers,
    };
    let top = top_k_indices(scores, k);
    let hits = top.iter().filter(|&&i| labels[i] != 0).count();
    Ok(hits as f64 / k as f64)
}

/// The precision and recall among the top-`k` scored samples, returned as
/// `(precision, recall)`.
///
/// # Errors
///
/// Same conditions as [`precision_at_n`]; additionally undefined when the
/// dataset has no outliers (recall denominator).
pub fn precision_recall_at_k(labels: &[i32], scores: &[f64], k: usize) -> Result<(f64, f64)> {
    check_lengths(labels.len(), scores.len())?;
    if labels.is_empty() {
        return Err(Error::Empty("precision_recall_at_k"));
    }
    if k == 0 {
        return Err(Error::Undefined("precision_recall_at_k with k = 0"));
    }
    if scores.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFinite("precision_recall_at_k"));
    }
    let n_outliers = labels.iter().filter(|&&l| l != 0).count();
    if n_outliers == 0 {
        return Err(Error::Undefined("precision_recall_at_k with zero outliers"));
    }
    let k = k.min(labels.len());
    let top = top_k_indices(scores, k);
    let hits = top.iter().filter(|&&i| labels[i] != 0).count();
    Ok((hits as f64 / k as f64, hits as f64 / n_outliers as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking() {
        let p = precision_at_n(&[1, 1, 0, 0], &[0.9, 0.8, 0.2, 0.1], None).unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn worst_ranking() {
        let p = precision_at_n(&[1, 1, 0, 0], &[0.1, 0.2, 0.8, 0.9], None).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn partial_hit() {
        let p = precision_at_n(&[0, 0, 1, 1], &[0.9, 0.1, 0.8, 0.2], None).unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn explicit_k() {
        let p = precision_at_n(&[1, 0, 0, 0], &[0.9, 0.8, 0.1, 0.0], Some(2)).unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn k_clamped_to_len() {
        let p = precision_at_n(&[1, 0], &[0.9, 0.1], Some(10)).unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn no_outliers_undefined() {
        assert!(precision_at_n(&[0, 0], &[0.1, 0.2], None).is_err());
    }

    #[test]
    fn zero_k_undefined() {
        assert!(precision_at_n(&[1, 0], &[0.9, 0.1], Some(0)).is_err());
    }

    #[test]
    fn non_finite_scores_rejected() {
        assert!(matches!(
            precision_at_n(&[1, 0], &[f64::NAN, 0.1], None).unwrap_err(),
            Error::NonFinite(_)
        ));
        assert!(precision_recall_at_k(&[1, 0], &[0.9, f64::NEG_INFINITY], 1).is_err());
    }

    #[test]
    fn precision_recall_pair() {
        // 2 outliers; top-1 hits one.
        let (p, r) = precision_recall_at_k(&[1, 1, 0], &[0.9, 0.1, 0.5], 1).unwrap();
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.5);
    }

    #[test]
    fn precision_recall_full_k() {
        let (p, r) = precision_recall_at_k(&[1, 1, 0], &[0.9, 0.1, 0.5], 3).unwrap();
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r, 1.0);
    }
}

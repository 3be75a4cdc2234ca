//! Estimators: every timed metric is a median over equal chunks of work,
//! so a burst from a neighbour on the shared host moves a minority of the
//! chunks and not the metric.

/// Median of `values` (mean of the two middle values for an even count).
/// NaN for an empty slice, so a phase that never ran cannot pass for 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of
/// `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples`, reported only when at least
/// `min_beyond` samples lie beyond it — a tail estimated from fewer is
/// the value of a handful of requests, not a percentile.
pub fn percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), p) < min_beyond {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// Median over chunks of the per-chunk percentile `p`. Chunks too small
/// to support the percentile are skipped; `None` when none supports it.
pub fn chunked_percentile(chunks: &[Vec<f64>], p: f64, min_beyond: usize) -> Option<f64> {
    let per_chunk: Vec<f64> = chunks
        .iter()
        .filter_map(|c| percentile(c, p, min_beyond))
        .collect();
    (!per_chunk.is_empty()).then(|| median(&per_chunk))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), which is what the
/// benchmark's acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn chunked_median_ignores_a_minority_burst() {
        // Nine chunks, two of them hit by a burst three times slower: the
        // mean moves by 44 %, the median not at all.
        let mut chunks = vec![1.0; 9];
        chunks[3] = 3.0;
        chunks[4] = 3.0;
        assert_eq!(median(&chunks), 1.0);
    }

    #[test]
    fn percentile_needs_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; ten lie beyond it.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(percentile(&v, 0.90, 10), Some(90.0));
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(percentile(&v, 0.99, 10), None);
        // 300 samples support p90 with 30 beyond, the open-loop chunk size.
        assert_eq!(samples_beyond(300, 0.90), 30);
        assert_eq!(percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn chunked_percentile_is_median_of_chunk_percentiles() {
        let chunk = |top: f64| -> Vec<f64> { (0..20).map(|i| top * f64::from(i + 1)).collect() };
        let chunks = vec![chunk(1.0), chunk(10.0), chunk(2.0)];
        // p50 of each chunk is its 10th value: 10, 100, 20 -> median 20.
        assert_eq!(chunked_percentile(&chunks, 0.5, 10), Some(20.0));
        // No chunk of 20 has 10 samples beyond its p90.
        assert_eq!(chunked_percentile(&chunks, 0.9, 10), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartile_spread(&v), Some(5.5 / 5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

//! Test oracle: the per-feature histograms this crate shipped before the
//! binned operator, kept as they were — a column copied out per feature,
//! a density looked up per value with its tolerance band, and `ln` taken
//! per (row, feature) at score time — with their snapshot writer, less
//! the training scores `fit` now returns instead. The generated
//! properties in `hbos.rs` hold the shipped detector to these bytes and
//! these scores.

use suod_linalg::{Matrix, SnapshotWriter};

#[derive(Debug, Clone)]
pub(crate) struct FeatureHistogram {
    pub(crate) min: f64,
    pub(crate) max: f64,
    /// Normalized bin densities; max height is 1.
    pub(crate) densities: Vec<f64>,
}

impl FeatureHistogram {
    fn build(values: &[f64], n_bins: usize) -> Self {
        let min = suod_linalg::stats::min(values);
        let max = suod_linalg::stats::max(values);
        let mut counts = vec![0usize; n_bins];
        let range = (max - min).max(1e-12);
        for &v in values {
            let bin = (((v - min) / range) * n_bins as f64) as usize;
            counts[bin.min(n_bins - 1)] += 1;
        }
        let peak = *counts.iter().max().expect("n_bins >= 1") as f64;
        let densities = counts
            .iter()
            .map(|&c| if peak > 0.0 { c as f64 / peak } else { 0.0 })
            .collect();
        Self {
            min,
            max,
            densities,
        }
    }

    /// Density for a query value, honouring the tolerance band outside the
    /// training range.
    pub(crate) fn density(&self, v: f64, tolerance: f64) -> f64 {
        const FLOOR: f64 = 1e-6;
        let n_bins = self.densities.len();
        let range = (self.max - self.min).max(1e-12);
        if v >= self.min && v <= self.max {
            let bin = (((v - self.min) / range) * n_bins as f64) as usize;
            return self.densities[bin.min(n_bins - 1)].max(FLOOR);
        }
        // Outside the range: borrow the edge bin within the tolerance band,
        // then decay with distance.
        let (edge_density, overshoot) = if v < self.min {
            (self.densities[0], self.min - v)
        } else {
            (self.densities[n_bins - 1], v - self.max)
        };
        let band = tolerance * range;
        if band > 0.0 && overshoot <= band {
            return edge_density.max(FLOOR);
        }
        let decay = band.max(1e-12) / overshoot.max(1e-12);
        (edge_density * decay).max(FLOOR)
    }
}

/// An `HbosDetector` as the per-feature histograms fitted it.
pub(crate) struct OracleHbos {
    n_bins: usize,
    tolerance: f64,
    pub(crate) histograms: Vec<FeatureHistogram>,
    pub(crate) train_scores: Vec<f64>,
}

/// What `HbosDetector::new(n_bins, tolerance)` fitted on `x` before the
/// binned operator.
pub(crate) fn fit(n_bins: usize, tolerance: f64, x: &Matrix) -> OracleHbos {
    let mut hbos = OracleHbos {
        n_bins,
        tolerance,
        histograms: (0..x.ncols())
            .map(|c| FeatureHistogram::build(&x.col(c), n_bins))
            .collect(),
        train_scores: Vec::new(),
    };
    hbos.train_scores = hbos.score_rows(x);
    hbos
}

impl OracleHbos {
    fn score_row(&self, row: &[f64]) -> f64 {
        row.iter()
            .zip(&self.histograms)
            .map(|(&v, h)| (1.0 / h.density(v, self.tolerance)).ln())
            .sum()
    }

    pub(crate) fn score_rows(&self, x: &Matrix) -> Vec<f64> {
        x.rows_iter().map(|row| self.score_row(row)).collect()
    }

    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_usize(self.n_bins);
        w.write_f64(self.tolerance);
        w.write_usize(self.histograms.len());
        for h in &self.histograms {
            w.write_f64(h.min);
            w.write_f64(h.max);
            w.write_f64s(&h.densities);
        }
        w.into_bytes()
    }
}

//! Test oracle: the LODA members this crate shipped before the binned
//! operator, kept as they were — a dense `d`-length direction per member,
//! dotted in full with every row (twice in fit), and `ln` taken per (row,
//! member) at score time — with their snapshot writer, less the training
//! scores `fit` now returns instead. The generated properties in
//! `loda.rs` hold the shipped detector to these bytes and these scores.

use super::randn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::{Matrix, SnapshotWriter};

#[derive(Debug, Clone)]
pub(crate) struct LodaMember {
    /// Sparse projection vector (dense storage, mostly zeros).
    pub(crate) direction: Vec<f64>,
    /// Histogram over the projected training values.
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    /// Probability mass per bin (sums to 1 over occupied bins).
    pub(crate) probs: Vec<f64>,
}

impl LodaMember {
    fn project(&self, row: &[f64]) -> f64 {
        suod_linalg::matrix::dot(row, &self.direction)
    }

    /// Density estimate for a projected value; a tiny floor keeps the log
    /// finite for never-seen regions.
    pub(crate) fn density(&self, z: f64) -> f64 {
        const FLOOR: f64 = 1e-9;
        let n_bins = self.probs.len();
        let range = (self.hi - self.lo).max(1e-12);
        if z < self.lo || z > self.hi {
            return FLOOR;
        }
        let bin = (((z - self.lo) / range) * n_bins as f64) as usize;
        self.probs[bin.min(n_bins - 1)].max(FLOOR)
    }
}

/// A `LodaDetector` as the dense members fitted it.
pub(crate) struct OracleLoda {
    n_members: usize,
    n_bins: usize,
    seed: u64,
    pub(crate) members: Vec<LodaMember>,
    n_features: usize,
    pub(crate) train_scores: Vec<f64>,
}

/// What `LodaDetector::new(n_members, n_bins, seed)` fitted on `x` before
/// the binned operator.
pub(crate) fn fit(n_members: usize, n_bins: usize, seed: u64, x: &Matrix) -> OracleLoda {
    let (n, d) = x.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let nnz = ((d as f64).sqrt().ceil() as usize).clamp(1, d);

    let members = (0..n_members)
        .map(|_| {
            // Sparse direction: sqrt(d) nonzero Gaussian entries.
            let mut direction = vec![0.0; d];
            let mut pool: Vec<usize> = (0..d).collect();
            for i in 0..nnz {
                let j = rng.random_range(i..d);
                pool.swap(i, j);
            }
            for &f in &pool[..nnz] {
                direction[f] = randn(&mut rng);
            }

            let projected: Vec<f64> = x
                .rows_iter()
                .map(|row| suod_linalg::matrix::dot(row, &direction))
                .collect();
            let lo = suod_linalg::stats::min(&projected);
            let hi = suod_linalg::stats::max(&projected);
            let range = (hi - lo).max(1e-12);
            let mut counts = vec![0usize; n_bins];
            for &z in &projected {
                let bin = (((z - lo) / range) * n_bins as f64) as usize;
                counts[bin.min(n_bins - 1)] += 1;
            }
            let probs = counts.iter().map(|&c| c as f64 / n as f64).collect();
            LodaMember {
                direction,
                lo,
                hi,
                probs,
            }
        })
        .collect();
    let mut loda = OracleLoda {
        n_members,
        n_bins,
        seed,
        members,
        n_features: d,
        train_scores: Vec::new(),
    };
    loda.train_scores = loda.score_rows(x);
    loda
}

impl OracleLoda {
    fn score_row(&self, row: &[f64]) -> f64 {
        let mut acc = 0.0;
        for member in &self.members {
            acc += -member.density(member.project(row)).ln();
        }
        acc / self.members.len() as f64
    }

    pub(crate) fn score_rows(&self, x: &Matrix) -> Vec<f64> {
        x.rows_iter().map(|row| self.score_row(row)).collect()
    }

    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_usize(self.n_members);
        w.write_usize(self.n_bins);
        w.write_u64(self.seed);
        w.write_usize(self.members.len());
        for m in &self.members {
            w.write_f64s(&m.direction);
            w.write_f64(m.lo);
            w.write_f64(m.hi);
            w.write_f64s(&m.probs);
        }
        w.write_usize(self.n_features);
        w.into_bytes()
    }
}

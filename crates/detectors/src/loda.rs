//! LODA: Lightweight On-line Detector of Anomalies (Pevný, Machine
//! Learning 2016).
//!
//! An ensemble of one-dimensional histograms over sparse random
//! projections: each member projects the data onto a random direction
//! (only `sqrt(d)` non-zero Gaussian entries) and estimates a histogram
//! density there; a sample's score is the mean negative log density
//! across members. LODA is thematically the closest cousin to SUOD's
//! data-level module — it *is* random projection plus a cheap density
//! model — and rounds the zoo out to the eleven algorithm families the
//! paper's cost predictor covers.
//!
//! The members live in one [`Binned`] operator, shared with HBOS: a
//! member is a view holding only its drawn weights, and each bin's
//! negative log probability is a table entry built at fit and at
//! snapshot load. Outside a member's training range the density is a
//! floor ([`Edge::Floor`]).
//!
//! # Non-finite input
//!
//! A pool rejects NaN and infinities before any detector sees them. A
//! standalone `LodaDetector` does not check, and defines:
//! - a member reads only the features it drew, so a non-finite value in
//!   any other feature leaves that member's score as it is;
//! - a member whose projection is ±inf scores the floor;
//! - a member whose projection is NaN (a NaN it reads, or `inf - inf`)
//!   scores its bin 0;
//! - a member whose training projections were all NaN has a NaN grid, and
//!   scores every projection its bin 0.
//!
//! A member's grid ends are those of the dense dot product with its
//! direction, as stored: where every training projection is zero, the
//! sign of that zero comes from the features the member did not draw
//! ([`Rule::dense`]). The scores do not depend on it.

use crate::{check_dims, Detector, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::{Binned, Edge, Matrix, Rule};

/// Draws one standard-normal value (Box–Muller).
fn randn(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The least probability a bin scores with; a tiny floor keeps the log
/// finite for never-seen regions.
const FLOOR: f64 = 1e-9;

/// LODA's binning: a bin's mass is its share of the training rows, its
/// score `-ln(mass)`, and everything outside the grid scores as an empty
/// bin, the floor. A member's projection is the dense dot product with
/// its direction, as stored.
fn rule() -> Rule {
    Rule {
        mass: |count, _, n| count as f64 / n as f64,
        score: |p| -(p.max(FLOOR)).ln(),
        edge: Edge::Floor,
        dense: true,
    }
}

/// LODA detector.
///
/// # Example
///
/// ```
/// use suod_detectors::{Detector, LodaDetector};
/// use suod_linalg::Matrix;
///
/// # fn main() -> Result<(), suod_detectors::Error> {
/// let mut rows: Vec<Vec<f64>> = (0..60)
///     .map(|i| vec![(i % 6) as f64 * 0.2, (i / 6) as f64 * 0.2])
///     .collect();
/// rows.push(vec![9.0, -9.0]);
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut det = LodaDetector::new(50, 10, 7)?;
/// let s = det.fit(&x)?;
/// assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 60);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LodaDetector {
    n_members: usize,
    n_bins: usize,
    seed: u64,
    /// One view per member; none before `fit`.
    members: Binned,
}

impl LodaDetector {
    /// Creates a LODA ensemble of `n_members` random projections with
    /// `n_bins` histogram bins each.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when either count is zero.
    pub fn new(n_members: usize, n_bins: usize, seed: u64) -> Result<Self> {
        if n_members == 0 {
            return Err(Error::InvalidParameter("n_members must be >= 1".into()));
        }
        if n_bins == 0 {
            return Err(Error::InvalidParameter("n_bins must be >= 1".into()));
        }
        Ok(Self {
            n_members,
            n_bins,
            seed,
            members: Binned::new(0, rule()),
        })
    }

    /// Ensemble size.
    pub fn n_members(&self) -> usize {
        self.n_members
    }

    /// Turns per-row sums over the members into their mean.
    fn mean(&self, mut sums: Vec<f64>) -> Vec<f64> {
        let members = self.members.n_views() as f64;
        for s in &mut sums {
            *s /= members;
        }
        sums
    }
}

impl Detector for LodaDetector {
    fn fit(&mut self, x: &Matrix) -> Result<Vec<f64>> {
        let (n, d) = x.shape();
        if n < 2 {
            return Err(Error::InsufficientData {
                needed: "at least 2 samples".into(),
                got: n,
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let nnz = ((d as f64).sqrt().ceil() as usize).clamp(1, d);
        let mut members = Binned::new(d, rule());
        // Sparse directions: sqrt(d) Gaussian weights on drawn features,
        // kept in ascending feature order. Fitting draws nothing, so all
        // are drawn first.
        let directions: Vec<Vec<(usize, f64)>> = (0..self.n_members)
            .map(|_| {
                let mut pool: Vec<usize> = (0..d).collect();
                for i in 0..nnz {
                    let j = rng.random_range(i..d);
                    pool.swap(i, j);
                }
                let mut weights: Vec<(usize, f64)> =
                    pool[..nnz].iter().map(|&f| (f, randn(&mut rng))).collect();
                weights.sort_unstable_by_key(|&(f, _)| f);
                weights
            })
            .collect();
        let mut sums = vec![0.0; n];
        members.fit_views(x, &directions, self.n_bins, &mut sums)?;
        self.members = members;
        Ok(self.mean(sums))
    }

    fn decision_function(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.is_fitted() {
            return Err(Error::NotFitted("LodaDetector"));
        }
        check_dims(self.members.n_features(), x)?;
        Ok(self.mean(self.members.row_sums(x, 0.0)?))
    }

    fn name(&self) -> &'static str {
        "loda"
    }

    fn is_fitted(&self) -> bool {
        self.members.n_views() > 0
    }

    /// Writes each member's direction dense, as the format has it: its
    /// drawn weights, zeros elsewhere.
    fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) -> Result<()> {
        let d = self.members.n_features();
        w.write_usize(self.n_members);
        w.write_usize(self.n_bins);
        w.write_u64(self.seed);
        w.write_usize(self.members.n_views());
        for v in 0..self.members.n_views() {
            let mut direction = vec![0.0; d];
            let (features, weights) = self.members.weights(v);
            for (&f, &weight) in features.iter().zip(weights) {
                direction[f] = weight;
            }
            let (lo, hi) = self.members.grid(v);
            w.write_f64s(&direction);
            w.write_f64(lo);
            w.write_f64(hi);
            w.write_f64s(self.members.masses(v));
        }
        w.write_usize(d);
        Ok(())
    }
}

impl LodaDetector {
    /// Reads a detector written by [`Detector::snapshot_write`], building
    /// its score tables. A member keeps every weight whose bits are not
    /// `+0.0`'s, so a drawn `-0.0` is written back as it was read.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncated or malformed state:
    /// a member without bins, or a direction not as wide as the rows.
    pub fn snapshot_read(
        r: &mut suod_linalg::SnapshotReader<'_>,
        _n_threads: usize,
    ) -> Result<Self> {
        let n_members = r.read_usize()?;
        let n_bins = r.read_usize()?;
        let seed = r.read_u64()?;
        let count = r.read_usize()?;
        let mut records = Vec::new();
        for _ in 0..count {
            records.push((r.read_f64s()?, r.read_f64()?, r.read_f64()?, r.read_f64s()?));
        }
        let d = r.read_usize()?;
        let mut members = Binned::new(d, rule());
        for (direction, lo, hi, probs) in records {
            if direction.len() != d {
                return Err(Error::InvalidParameter(format!(
                    "snapshot: LODA direction of {} weights for {d} features",
                    direction.len()
                )));
            }
            let weights: Vec<(usize, f64)> = direction
                .into_iter()
                .enumerate()
                .filter(|&(_, w)| w.to_bits() != 0)
                .collect();
            members.push_view(&weights, lo, hi, &probs)?;
        }
        crate::skip_training_scores(r)?;
        Ok(Self {
            n_members,
            n_bins,
            seed,
            members,
        })
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tie_heavy;
    use proptest::prelude::*;
    use suod_linalg::{SnapshotReader, SnapshotWriter};

    fn grid_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2, 1.0])
            .collect();
        rows.push(vec![10.0, -10.0, -5.0]);
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn detects_far_outlier() {
        let mut det = LodaDetector::new(60, 12, 3).unwrap();
        let s = det.fit(&grid_with_outlier()).unwrap();
        assert_eq!(suod_linalg::rank::argsort_desc(&s)[0], 64);
    }

    #[test]
    fn out_of_range_query_scores_high() {
        let mut det = LodaDetector::new(40, 10, 1).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let q = Matrix::from_rows(&[vec![0.5, 0.5, 1.0], vec![100.0, 100.0, 100.0]]).unwrap();
        let s = det.decision_function(&q).unwrap();
        assert!(s[1] > s[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let x = grid_with_outlier();
        let mut a = LodaDetector::new(20, 10, 5).unwrap();
        let mut b = LodaDetector::new(20, 10, 5).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        assert_eq!(sa, sb);
        let mut c = LodaDetector::new(20, 10, 6).unwrap();
        let sc = c.fit(&x).unwrap();
        assert_ne!(sa, sc);
    }

    #[test]
    fn more_members_stabilize_scores() {
        // With many members, two disjoint seeds should produce highly
        // rank-correlated scores (the ensemble average concentrates).
        let x = grid_with_outlier();
        let mut a = LodaDetector::new(200, 10, 1).unwrap();
        let mut b = LodaDetector::new(200, 10, 2).unwrap();
        let sa = a.fit(&x).unwrap();
        let sb = b.fit(&x).unwrap();
        let ra = suod_linalg::rank::average_ranks(&sa);
        let rb = suod_linalg::rank::average_ranks(&sb);
        let ma = suod_linalg::stats::mean(&ra);
        let cov: f64 = ra
            .iter()
            .zip(&rb)
            .map(|(&x1, &y1)| (x1 - ma) * (y1 - ma))
            .sum();
        let var: f64 = ra.iter().map(|&x1| (x1 - ma) * (x1 - ma)).sum();
        assert!(cov / var > 0.5, "rank correlation {}", cov / var);
    }

    #[test]
    fn validates_inputs() {
        assert!(LodaDetector::new(0, 10, 0).is_err());
        assert!(LodaDetector::new(10, 0, 0).is_err());
        let mut det = LodaDetector::new(10, 10, 0).unwrap();
        assert!(det.fit(&Matrix::zeros(1, 2)).is_err());
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
        det.fit(&grid_with_outlier()).unwrap();
        assert!(det.decision_function(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn scores_finite_on_constant_data() {
        let x = Matrix::filled(20, 4, 3.0);
        let mut det = LodaDetector::new(10, 5, 0).unwrap();
        let scores = det.fit(&x).unwrap();
        assert!(scores.iter().all(|v| v.is_finite()));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    /// Projections that stress one member's grid: its ends and their
    /// neighbours, every bin edge, the extremes, subnormals, signed
    /// zeros, NaN and the infinities.
    fn probes(m: &oracle::LodaMember) -> Vec<f64> {
        let (lo, hi, bins) = (m.lo, m.hi, m.probs.len() as f64);
        let range = (hi - lo).max(1e-12);
        let mut v = vec![lo.next_down(), lo.next_up(), hi.next_down(), hi.next_up()];
        v.extend((0..=m.probs.len()).map(|k| lo + k as f64 * range / bins));
        v.extend([1e308, -1e308, 5e-324, -5e-324, 1e-310, -0.0, 0.0]);
        v.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        v
    }

    /// `count` finite rows as wide as `x`: mostly copies of its cells,
    /// some ±1e308 (whose projections overflow), subnormals and signed
    /// zeros. Non-finite cells are left out: there the sparse member
    /// differs from the dense one by design (see the module docs).
    fn finite_probe_rows(x: &Matrix, count: usize, seed: u64) -> Matrix {
        let specials = [1e308, -1e308, 5e-324, -5e-324, 1e-310, -0.0, 0.0];
        let mut q = tie_heavy::hostile_queries(x, count, seed);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            if !v.is_finite() || i % 7 == 3 {
                *v = specials[(i / 7 + seed as usize) % specials.len()];
            }
        }
        q
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The binned operator is the dense members: fed one oracle
        /// member's histogram, it scores every probe projection with the
        /// bits of `-ln(density)`; fitted as a detector with the same
        /// seed, it writes the oracle's snapshot bytes (directions dense)
        /// and scores training rows and probe rows, before and after a
        /// reload, with the oracle's bits.
        #[test]
        fn binned_members_score_the_oracle(
            (n, d, seed) in (2usize..300, 1usize..12, 0u64..u64::MAX),
            (n_members, bins_at) in (1usize..30, 0usize..4),
        ) {
            let n_bins = [1, 2, 7, 50][bins_at];
            let (x, _) = tie_heavy::tie_heavy_problem(n, d, seed);
            let expected = oracle::fit(n_members, n_bins, seed, &x);

            for m in &expected.members {
                let mut op = Binned::new(1, rule());
                op.push_view(&[(0, 1.0)], m.lo, m.hi, &m.probs).unwrap();
                let values = probes(m);
                let want: Vec<f64> = values.iter().map(|&z| -m.density(z).ln()).collect();
                let column = Matrix::from_vec(values.len(), 1, values).unwrap();
                prop_assert_eq!(bits(&op.row_sums(&column, -0.0).unwrap()), bits(&want));
            }

            let mut det = LodaDetector::new(n_members, n_bins, seed).unwrap();
            let scores = det.fit(&x).unwrap();
            let mut w = SnapshotWriter::new();
            det.snapshot_write(&mut w).unwrap();
            prop_assert_eq!(w.as_bytes(), expected.snapshot_bytes().as_slice());
            prop_assert_eq!(bits(&scores), bits(&expected.train_scores));
            let loaded = LodaDetector::snapshot_read(&mut SnapshotReader::new(w.as_bytes()), 1)
                .unwrap();
            for (k, &count) in tie_heavy::QUERY_COUNTS.iter().enumerate() {
                let q = finite_probe_rows(&x, count, seed ^ k as u64);
                let want = bits(&expected.score_rows(&q));
                prop_assert_eq!(&bits(&det.decision_function(&q).unwrap()), &want);
                prop_assert_eq!(&bits(&loaded.decision_function(&q).unwrap()), &want);
            }
        }
    }

    /// A member reads only the features it drew: a non-finite value
    /// anywhere else leaves its score as it is. Where it drew the feature,
    /// ±inf projects outside the grid and scores the floor.
    #[test]
    fn non_finite_features_outside_a_members_support_are_ignored() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| (0..16).map(|c| ((i * 7 + c * 3) % 11) as f64).collect())
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut det = LodaDetector::new(1, 10, 3).unwrap();
        det.fit(&x).unwrap();
        let drawn = det.members.weights(0).0.to_vec();
        assert_eq!(drawn.len(), 4); // ceil(sqrt(16))
        let base = det.decision_function(&x).unwrap()[0];
        let floor = -(FLOOR.ln());
        for f in 0..16 {
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut row = rows[0].clone();
                row[f] = special;
                let q = Matrix::from_rows(&[row]).unwrap();
                let s = det.decision_function(&q).unwrap()[0];
                if !drawn.contains(&f) {
                    assert_eq!(s.to_bits(), base.to_bits(), "feature {f} = {special}");
                } else if special.is_infinite() {
                    assert_eq!(s.to_bits(), floor.to_bits(), "feature {f} = {special}");
                }
            }
        }
    }

    /// Columns 0 and 1 are +0.0 and column 2 is a
    /// constant. A member drawing features 0 and 1 with negative weights
    /// projects every row to -0.0 sparsely. The dense dot adds column 2's
    /// product with +0.0, which is +0.0 for a positive constant, so the
    /// stored grid ends are +0.0; for a negative constant they stay -0.0.
    #[test]
    fn zero_projections_store_the_dense_sign() {
        for third in [0.5, -0.5] {
            let x = Matrix::from_rows(&vec![vec![0.0, 0.0, third]; 6]).unwrap();
            let expected = oracle::fit(64, 3, 11, &x);
            let mut det = LodaDetector::new(64, 3, 11).unwrap();
            det.fit(&x).unwrap();
            let hits = (0..det.members.n_views())
                .filter(|&v| {
                    let (features, weights) = det.members.weights(v);
                    features == [0, 1] && weights.iter().all(|w| *w < 0.0)
                })
                .inspect(|&v| {
                    let (lo, hi) = det.members.grid(v);
                    let want = if third > 0.0 { 0.0f64 } else { -0.0 };
                    assert_eq!(
                        (lo.to_bits(), hi.to_bits()),
                        (want.to_bits(), want.to_bits())
                    );
                })
                .count();
            assert!(
                hits > 0,
                "no member drew features 0 and 1 with negative weights"
            );
            let mut w = SnapshotWriter::new();
            det.snapshot_write(&mut w).unwrap();
            assert_eq!(w.as_bytes(), expected.snapshot_bytes().as_slice());
        }
    }

    /// Training projections that are all NaN leave a NaN grid: no value
    /// is below or above it, so every projection scores bin 0, as the
    /// dense members did.
    #[test]
    fn a_member_over_nan_projections_scores_bin_zero() {
        let x = Matrix::from_rows(&vec![vec![f64::NAN]; 5]).unwrap();
        let expected = oracle::fit(3, 4, 2, &x);
        let mut det = LodaDetector::new(3, 4, 2).unwrap();
        det.fit(&x).unwrap();
        let q: Vec<f64> = probes(&expected.members[0]);
        let q = Matrix::from_vec(q.len(), 1, q).unwrap();
        assert_eq!(
            bits(&det.decision_function(&q).unwrap()),
            bits(&expected.score_rows(&q))
        );
        let bin0 = -(1.0f64.ln());
        assert!(det
            .decision_function(&q)
            .unwrap()
            .iter()
            .all(|s| *s == bin0));
    }

    #[test]
    fn a_drawn_negative_zero_weight_round_trips() {
        let mut det = LodaDetector::new(2, 4, 0).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let mut w = SnapshotWriter::new();
        det.snapshot_write(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        // Member 0's direction starts after three header fields, the
        // member count and its length: overwrite its weights with -0.0.
        let at = 5 * 8;
        for i in 0..3 {
            bytes[at + 8 * i..at + 8 * i + 8].copy_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        }
        let loaded = LodaDetector::snapshot_read(&mut SnapshotReader::new(&bytes), 1).unwrap();
        assert_eq!(loaded.members.weights(0).0, &[0, 1, 2]);
        let mut again = SnapshotWriter::new();
        loaded.snapshot_write(&mut again).unwrap();
        assert_eq!(again.as_bytes(), &bytes[..]);
    }

    #[test]
    fn a_direction_of_the_wrong_width_is_a_typed_snapshot_error() {
        let mut det = LodaDetector::new(2, 4, 0).unwrap();
        det.fit(&grid_with_outlier()).unwrap();
        let mut w = SnapshotWriter::new();
        det.snapshot_write(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        // The stored feature count is the record's last field.
        let at = bytes.len() - 8;
        bytes[at..at + 8].copy_from_slice(&4u64.to_le_bytes());
        let err = LodaDetector::snapshot_read(&mut SnapshotReader::new(&bytes), 1).unwrap_err();
        assert!(err.to_string().contains("snapshot: "), "{err}");
    }
}

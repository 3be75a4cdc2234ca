//! Model specifications: algorithm + hyperparameters.
//!
//! A [`ModelSpec`] is the unit of heterogeneity in SUOD — the paper refers
//! to "the combination of an algorithm and its corresponding
//! hyperparameters as a model". Specs are cheap, copyable descriptions;
//! [`ModelSpec::build`] instantiates the actual detector. The spec also
//! carries the SUOD policy knowledge about its family:
//!
//! * [`ModelSpec::is_costly`] — membership in the costly pool `M_c`
//!   (§3.4): proximity/kernel methods are approximated at prediction
//!   time, cheap subspace methods (HBOS, iForest) are not;
//! * [`ModelSpec::projection_friendly`] — whether random projection is
//!   sensible (§3.3 warns it can hurt subspace methods);
//! * [`ModelSpec::family`]/[`ModelSpec::knob`] — the embedding the BPS
//!   cost predictor consumes (§3.5).

use suod_detectors::{
    AbodDetector, CblofDetector, ChaosDetector, ChaosMode, CofDetector, Detector, FeatureBagging,
    HbosDetector, IsolationForest, Kernel, KnnDetector, KnnMethod, LodaDetector, LofDetector,
    LoopDetector, OcsvmDetector, PcaDetector,
};
use suod_linalg::DistanceMetric;
use suod_scheduler::{AlgorithmFamily, TaskDescriptor};

use crate::Result;

/// An algorithm family plus hyperparameters (one heterogeneous pool
/// member). Mirrors the paper's Table B.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// kNN distance detector (Ramaswamy et al. 2000).
    Knn {
        /// Neighbourhood size.
        n_neighbors: usize,
        /// Distance aggregation (`Mean` = average kNN).
        method: KnnMethod,
    },
    /// Local Outlier Factor (Breunig et al. 2000).
    Lof {
        /// Neighbourhood size.
        n_neighbors: usize,
        /// Distance metric.
        metric: DistanceMetric,
    },
    /// Fast Angle-Based Outlier Detection (Kriegel et al. 2008).
    Abod {
        /// Neighbourhood size for the angle cone.
        n_neighbors: usize,
    },
    /// Histogram-Based Outlier Score (Goldstein & Dengel 2012).
    Hbos {
        /// Bins per feature histogram.
        n_bins: usize,
        /// Out-of-range tolerance in `[0, 1]`.
        tolerance: f64,
    },
    /// Isolation Forest (Liu et al. 2008).
    IForest {
        /// Number of isolation trees.
        n_estimators: usize,
        /// Fraction of features per tree, in `(0, 1]`.
        max_features: f64,
    },
    /// Clustering-Based LOF (He et al. 2003).
    Cblof {
        /// Number of k-means clusters.
        n_clusters: usize,
    },
    /// One-Class SVM (Schölkopf et al. 2001).
    Ocsvm {
        /// Margin parameter in `(0, 1)`.
        nu: f64,
        /// Kernel function.
        kernel: Kernel,
    },
    /// Feature Bagging over LOF (Lazarevic & Kumar 2005).
    FeatureBagging {
        /// Number of bagged LOF members.
        n_estimators: usize,
    },
    /// Local Outlier Probabilities (Kriegel et al. 2009).
    Loop {
        /// Neighbourhood size.
        n_neighbors: usize,
    },
    /// PCA-based anomaly detection (Shyu et al. 2003).
    Pca {
        /// Share of variance assigned to the ignored major subspace.
        variance_retained: f64,
    },
    /// LODA: sparse random projections + 1-D histograms (Pevny 2016).
    Loda {
        /// Ensemble size (number of random projections).
        n_members: usize,
        /// Histogram bins per member.
        n_bins: usize,
    },
    /// Connectivity-based Outlier Factor (Tang et al. 2002).
    Cof {
        /// Neighbourhood size.
        n_neighbors: usize,
    },
    /// Fault-injection wrapper around a kNN detector, for chaos-testing
    /// the quarantine/retry machinery (see [`suod_detectors::chaos`]).
    Chaos {
        /// What to inject; [`ChaosMode::Passthrough`] behaves exactly
        /// like the wrapped kNN.
        mode: ChaosMode,
        /// Neighbourhood size of the wrapped kNN detector.
        n_neighbors: usize,
    },
}

impl ModelSpec {
    /// Instantiates the detector. Randomized families receive `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the detector's hyperparameter validation.
    pub fn build(&self, seed: u64) -> Result<Box<dyn Detector>> {
        Ok(match *self {
            ModelSpec::Knn {
                n_neighbors,
                method,
            } => Box::new(KnnDetector::new(n_neighbors, method)?),
            ModelSpec::Lof {
                n_neighbors,
                metric,
            } => Box::new(LofDetector::new(n_neighbors)?.with_metric(metric)),
            ModelSpec::Abod { n_neighbors } => Box::new(AbodDetector::new(n_neighbors)?),
            ModelSpec::Hbos { n_bins, tolerance } => {
                Box::new(HbosDetector::new(n_bins, tolerance)?)
            }
            ModelSpec::IForest {
                n_estimators,
                max_features,
            } => Box::new(
                IsolationForest::new(n_estimators, seed)?
                    .with_max_features_fraction(max_features)?,
            ),
            ModelSpec::Cblof { n_clusters } => Box::new(CblofDetector::new(n_clusters, seed)?),
            ModelSpec::Ocsvm { nu, kernel } => Box::new(OcsvmDetector::new(nu, kernel)?),
            ModelSpec::FeatureBagging { n_estimators } => {
                Box::new(FeatureBagging::new(n_estimators, 10, seed)?)
            }
            ModelSpec::Loop { n_neighbors } => Box::new(LoopDetector::new(n_neighbors)?),
            ModelSpec::Pca { variance_retained } => Box::new(PcaDetector::new(variance_retained)?),
            ModelSpec::Loda { n_members, n_bins } => {
                Box::new(LodaDetector::new(n_members, n_bins, seed)?)
            }
            ModelSpec::Cof { n_neighbors } => Box::new(CofDetector::new(n_neighbors)?),
            ModelSpec::Chaos { mode, n_neighbors } => Box::new(ChaosDetector::from_mode(
                Box::new(KnnDetector::new(n_neighbors, KnnMethod::Largest)?),
                mode,
                seed,
            )),
        })
    }

    /// The scheduler family this spec belongs to.
    pub fn family(&self) -> AlgorithmFamily {
        match self {
            ModelSpec::Knn { .. } => AlgorithmFamily::Knn,
            ModelSpec::Lof { .. } => AlgorithmFamily::Lof,
            ModelSpec::Abod { .. } => AlgorithmFamily::Abod,
            ModelSpec::Hbos { .. } => AlgorithmFamily::Hbos,
            ModelSpec::IForest { .. } => AlgorithmFamily::IForest,
            ModelSpec::Cblof { .. } => AlgorithmFamily::Cblof,
            ModelSpec::Ocsvm { .. } => AlgorithmFamily::Ocsvm,
            ModelSpec::FeatureBagging { .. } => AlgorithmFamily::FeatureBagging,
            ModelSpec::Loop { .. } => AlgorithmFamily::Loop,
            ModelSpec::Pca { .. } => AlgorithmFamily::Pca,
            ModelSpec::Loda { .. } => AlgorithmFamily::Loda,
            // COF shares LOF's asymptotic cost profile (kNN queries +
            // per-neighbourhood work); the cost model treats it as Lof
            // with a chaining-overhead weight.
            ModelSpec::Cof { .. } => AlgorithmFamily::Lof,
            // The wrapped detector is a kNN; injected faults don't change
            // the forecastable cost profile.
            ModelSpec::Chaos { .. } => AlgorithmFamily::Knn,
        }
    }

    /// The family-specific complexity knob for the cost predictor.
    pub fn knob(&self) -> f64 {
        match *self {
            ModelSpec::Knn { n_neighbors, .. }
            | ModelSpec::Lof { n_neighbors, .. }
            | ModelSpec::Abod { n_neighbors }
            | ModelSpec::Loop { n_neighbors } => n_neighbors as f64,
            ModelSpec::Hbos { n_bins, .. } => n_bins as f64,
            ModelSpec::IForest { n_estimators, .. }
            | ModelSpec::FeatureBagging { n_estimators } => n_estimators as f64,
            ModelSpec::Cblof { n_clusters } => n_clusters as f64,
            // SMO warm-start dominates OCSVM and costs O(nu n^2 d).
            ModelSpec::Ocsvm { nu, .. } => 10.0 * nu,
            ModelSpec::Pca { .. } => 1.0,
            ModelSpec::Loda { n_members, .. } => n_members as f64,
            ModelSpec::Cof { n_neighbors } | ModelSpec::Chaos { n_neighbors, .. } => {
                n_neighbors as f64
            }
        }
    }

    /// The scheduler task descriptor (family + knob + intra-family cost
    /// weight). Weights are calibrated against this repository's
    /// implementations: Minkowski distances cost several Euclidean
    /// evaluations (`powf` per element), and OCSVM kernels differ in
    /// per-evaluation cost.
    pub fn task_descriptor(&self) -> TaskDescriptor {
        let weight = match self {
            ModelSpec::Lof {
                metric: DistanceMetric::Minkowski(_),
                ..
            } => 7.0,
            ModelSpec::Ocsvm { kernel, .. } => match kernel {
                suod_detectors::Kernel::Linear => 0.7,
                suod_detectors::Kernel::Rbf { .. } => 1.0,
                suod_detectors::Kernel::Poly { .. } => 1.7,
                suod_detectors::Kernel::Sigmoid { .. } => 2.5,
            },
            // The SBN chaining adds O(k^2) per-point work over LOF.
            ModelSpec::Cof { .. } => 2.0,
            _ => 1.0,
        };
        TaskDescriptor::new(self.family(), self.knob()).with_weight(weight)
    }

    /// The leave-one-out neighbourhood this spec's fit consumes, as
    /// `(metric, k)`, or `None` for non-proximity families.
    ///
    /// This is what `Suod::fit` pre-registers with the shared
    /// [`NeighborCache`](suod_linalg::NeighborCache) (pass 1 of the
    /// two-pass plan): every proximity model on the same feature space
    /// contributes its `k`, the cache builds once at the pooled maximum,
    /// and each fit then reads an exact prefix. The metric must match the
    /// one the detector's `fit_with_context` actually queries with —
    /// kNN/LOF carry a configurable metric, ABOD/LoOP/COF are
    /// Euclidean-only by construction.
    pub fn neighbor_requirement(&self) -> Option<(DistanceMetric, usize)> {
        match *self {
            // KnnDetector queries at raw `k` (the index clamps
            // internally); the cache applies the same `min(k, n - 1)`
            // clamp, so registering raw k is exact.
            ModelSpec::Knn { n_neighbors, .. } => Some((DistanceMetric::Euclidean, n_neighbors)),
            ModelSpec::Lof {
                n_neighbors,
                metric,
            } => Some((metric, n_neighbors)),
            ModelSpec::Abod { n_neighbors }
            | ModelSpec::Loop { n_neighbors }
            | ModelSpec::Cof { n_neighbors }
            | ModelSpec::Chaos { n_neighbors, .. } => {
                Some((DistanceMetric::Euclidean, n_neighbors))
            }
            _ => None,
        }
    }

    /// Whether this spec belongs to the costly pool `M_c` that PSA
    /// replaces at prediction time (§3.4): everything except the cheap
    /// subspace methods HBOS and Isolation Forest. Chaos wrappers are
    /// never approximated — a regressor distilled over injected faults
    /// would mask the very behaviour the wrapper exists to exercise.
    pub fn is_costly(&self) -> bool {
        !matches!(
            self,
            ModelSpec::Hbos { .. }
                | ModelSpec::IForest { .. }
                | ModelSpec::Pca { .. }
                | ModelSpec::Loda { .. }
                | ModelSpec::Chaos { .. }
        )
    }

    /// Whether random projection is applied to this spec when the RP
    /// module is on. §3.3: "projection may be less useful or even
    /// detrimental for subspace methods like Isolation Forest and HBOS."
    /// Chaos wrappers also stay in the original space so injected faults
    /// are observed raw.
    pub fn projection_friendly(&self) -> bool {
        !matches!(
            self,
            ModelSpec::Hbos { .. }
                | ModelSpec::IForest { .. }
                | ModelSpec::Pca { .. }
                | ModelSpec::Loda { .. }
                | ModelSpec::Chaos { .. }
        )
    }

    /// Short algorithm name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::Knn {
                method: KnnMethod::Mean,
                ..
            } => "aknn",
            ModelSpec::Knn { .. } => "knn",
            ModelSpec::Lof { .. } => "lof",
            ModelSpec::Abod { .. } => "abod",
            ModelSpec::Hbos { .. } => "hbos",
            ModelSpec::IForest { .. } => "iforest",
            ModelSpec::Cblof { .. } => "cblof",
            ModelSpec::Ocsvm { .. } => "ocsvm",
            ModelSpec::FeatureBagging { .. } => "feature_bagging",
            ModelSpec::Loop { .. } => "loop",
            ModelSpec::Pca { .. } => "pca",
            ModelSpec::Loda { .. } => "loda",
            ModelSpec::Cof { .. } => "cof",
            ModelSpec::Chaos { .. } => "chaos",
        }
    }

    /// Appends the spec to a `suod-pool` snapshot body as a fixed tag
    /// (enum-declaration order) followed by the variant's fields.
    pub fn snapshot_write(&self, w: &mut suod_linalg::SnapshotWriter) {
        match *self {
            ModelSpec::Knn {
                n_neighbors,
                method,
            } => {
                w.write_u64(0);
                w.write_usize(n_neighbors);
                write_knn_method(method, w);
            }
            ModelSpec::Lof {
                n_neighbors,
                metric,
            } => {
                w.write_u64(1);
                w.write_usize(n_neighbors);
                w.write_metric(metric);
            }
            ModelSpec::Abod { n_neighbors } => {
                w.write_u64(2);
                w.write_usize(n_neighbors);
            }
            ModelSpec::Hbos { n_bins, tolerance } => {
                w.write_u64(3);
                w.write_usize(n_bins);
                w.write_f64(tolerance);
            }
            ModelSpec::IForest {
                n_estimators,
                max_features,
            } => {
                w.write_u64(4);
                w.write_usize(n_estimators);
                w.write_f64(max_features);
            }
            ModelSpec::Cblof { n_clusters } => {
                w.write_u64(5);
                w.write_usize(n_clusters);
            }
            ModelSpec::Ocsvm { nu, kernel } => {
                w.write_u64(6);
                w.write_f64(nu);
                write_kernel(kernel, w);
            }
            ModelSpec::FeatureBagging { n_estimators } => {
                w.write_u64(7);
                w.write_usize(n_estimators);
            }
            ModelSpec::Loop { n_neighbors } => {
                w.write_u64(8);
                w.write_usize(n_neighbors);
            }
            ModelSpec::Pca { variance_retained } => {
                w.write_u64(9);
                w.write_f64(variance_retained);
            }
            ModelSpec::Loda { n_members, n_bins } => {
                w.write_u64(10);
                w.write_usize(n_members);
                w.write_usize(n_bins);
            }
            ModelSpec::Cof { n_neighbors } => {
                w.write_u64(11);
                w.write_usize(n_neighbors);
            }
            ModelSpec::Chaos { mode, n_neighbors } => {
                w.write_u64(12);
                write_chaos_mode(mode, w);
                w.write_usize(n_neighbors);
            }
        }
    }

    /// Reads a spec written by [`ModelSpec::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Linalg`](crate::Error::Linalg) on truncated input
    /// or an unknown variant tag.
    pub fn snapshot_read(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Self> {
        Ok(match r.read_u64()? {
            0 => ModelSpec::Knn {
                n_neighbors: r.read_usize()?,
                method: read_knn_method(r)?,
            },
            1 => ModelSpec::Lof {
                n_neighbors: r.read_usize()?,
                metric: r.read_metric()?,
            },
            2 => ModelSpec::Abod {
                n_neighbors: r.read_usize()?,
            },
            3 => ModelSpec::Hbos {
                n_bins: r.read_usize()?,
                tolerance: r.read_f64()?,
            },
            4 => ModelSpec::IForest {
                n_estimators: r.read_usize()?,
                max_features: r.read_f64()?,
            },
            5 => ModelSpec::Cblof {
                n_clusters: r.read_usize()?,
            },
            6 => ModelSpec::Ocsvm {
                nu: r.read_f64()?,
                kernel: read_kernel(r)?,
            },
            7 => ModelSpec::FeatureBagging {
                n_estimators: r.read_usize()?,
            },
            8 => ModelSpec::Loop {
                n_neighbors: r.read_usize()?,
            },
            9 => ModelSpec::Pca {
                variance_retained: r.read_f64()?,
            },
            10 => ModelSpec::Loda {
                n_members: r.read_usize()?,
                n_bins: r.read_usize()?,
            },
            11 => ModelSpec::Cof {
                n_neighbors: r.read_usize()?,
            },
            12 => ModelSpec::Chaos {
                mode: read_chaos_mode(r)?,
                n_neighbors: r.read_usize()?,
            },
            other => return Err(spec_corrupt(format!("unknown ModelSpec tag {other}"))),
        })
    }
}

fn spec_corrupt(what: String) -> crate::Error {
    crate::Error::Linalg(suod_linalg::Error::InvalidParameter(format!(
        "snapshot: {what}"
    )))
}

fn write_knn_method(m: KnnMethod, w: &mut suod_linalg::SnapshotWriter) {
    w.write_u64(match m {
        KnnMethod::Largest => 0,
        KnnMethod::Mean => 1,
        KnnMethod::Median => 2,
    });
}

fn read_knn_method(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<KnnMethod> {
    Ok(match r.read_u64()? {
        0 => KnnMethod::Largest,
        1 => KnnMethod::Mean,
        2 => KnnMethod::Median,
        other => return Err(spec_corrupt(format!("unknown KnnMethod tag {other}"))),
    })
}

fn write_kernel(k: Kernel, w: &mut suod_linalg::SnapshotWriter) {
    match k {
        Kernel::Linear => w.write_u64(0),
        Kernel::Poly {
            gamma,
            coef0,
            degree,
        } => {
            w.write_u64(1);
            w.write_f64(gamma);
            w.write_f64(coef0);
            w.write_u64(u64::from(degree));
        }
        Kernel::Rbf { gamma } => {
            w.write_u64(2);
            w.write_f64(gamma);
        }
        Kernel::Sigmoid { gamma, coef0 } => {
            w.write_u64(3);
            w.write_f64(gamma);
            w.write_f64(coef0);
        }
    }
}

fn read_kernel(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<Kernel> {
    Ok(match r.read_u64()? {
        0 => Kernel::Linear,
        1 => Kernel::Poly {
            gamma: r.read_f64()?,
            coef0: r.read_f64()?,
            degree: u32::try_from(r.read_u64()?)
                .map_err(|_| spec_corrupt("Poly degree exceeds u32".into()))?,
        },
        2 => Kernel::Rbf {
            gamma: r.read_f64()?,
        },
        3 => Kernel::Sigmoid {
            gamma: r.read_f64()?,
            coef0: r.read_f64()?,
        },
        other => return Err(spec_corrupt(format!("unknown Kernel tag {other}"))),
    })
}

fn write_chaos_mode(m: ChaosMode, w: &mut suod_linalg::SnapshotWriter) {
    match m {
        ChaosMode::Passthrough => w.write_u64(0),
        ChaosMode::PanicOnFit => w.write_u64(1),
        ChaosMode::FlakyPanic => w.write_u64(2),
        ChaosMode::NanScores => w.write_u64(3),
        ChaosMode::SlowFit(ms) => {
            w.write_u64(4);
            w.write_u64(ms);
        }
        ChaosMode::PanicOnPredict => w.write_u64(5),
        ChaosMode::SlowPredict(ms) => {
            w.write_u64(6);
            w.write_u64(ms);
        }
        ChaosMode::NanOnPredict => w.write_u64(7),
        // ChaosMode is #[non_exhaustive]; new variants must get a tag
        // here before they can appear in snapshots.
        other => unreachable!("ChaosMode variant {other:?} has no snapshot tag"),
    }
}

fn read_chaos_mode(r: &mut suod_linalg::SnapshotReader<'_>) -> Result<ChaosMode> {
    Ok(match r.read_u64()? {
        0 => ChaosMode::Passthrough,
        1 => ChaosMode::PanicOnFit,
        2 => ChaosMode::FlakyPanic,
        3 => ChaosMode::NanScores,
        4 => ChaosMode::SlowFit(r.read_u64()?),
        5 => ChaosMode::PanicOnPredict,
        6 => ChaosMode::SlowPredict(r.read_u64()?),
        7 => ChaosMode::NanOnPredict,
        other => return Err(spec_corrupt(format!("unknown ChaosMode tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_linalg::Matrix;

    fn sample_specs() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Knn {
                n_neighbors: 3,
                method: KnnMethod::Largest,
            },
            ModelSpec::Knn {
                n_neighbors: 3,
                method: KnnMethod::Mean,
            },
            ModelSpec::Lof {
                n_neighbors: 4,
                metric: DistanceMetric::Euclidean,
            },
            ModelSpec::Abod { n_neighbors: 4 },
            ModelSpec::Hbos {
                n_bins: 5,
                tolerance: 0.2,
            },
            ModelSpec::IForest {
                n_estimators: 10,
                max_features: 0.8,
            },
            ModelSpec::Cblof { n_clusters: 2 },
            ModelSpec::Ocsvm {
                nu: 0.3,
                kernel: Kernel::Rbf { gamma: 0.0 },
            },
            ModelSpec::FeatureBagging { n_estimators: 3 },
            ModelSpec::Loop { n_neighbors: 4 },
            ModelSpec::Pca {
                variance_retained: 0.8,
            },
            ModelSpec::Loda {
                n_members: 20,
                n_bins: 8,
            },
            ModelSpec::Cof { n_neighbors: 4 },
        ]
    }

    #[test]
    fn every_spec_builds_and_fits() {
        let mut rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64 * 0.3, (i / 6) as f64 * 0.3])
            .collect();
        rows.push(vec![9.0, 9.0]);
        let x = Matrix::from_rows(&rows).unwrap();
        for spec in sample_specs() {
            let mut det = spec.build(1).unwrap();
            let s = det.fit(&x).unwrap();
            assert!(det.is_fitted(), "{}", spec.name());
            assert_eq!(s.len(), 31, "{}", spec.name());
        }
    }

    #[test]
    fn costly_pool_matches_paper() {
        for spec in sample_specs() {
            let expected = !matches!(
                spec,
                ModelSpec::Hbos { .. }
                    | ModelSpec::IForest { .. }
                    | ModelSpec::Pca { .. }
                    | ModelSpec::Loda { .. }
            );
            assert_eq!(spec.is_costly(), expected, "{}", spec.name());
            assert_eq!(spec.projection_friendly(), expected, "{}", spec.name());
        }
    }

    #[test]
    fn family_and_knob_mapping() {
        let spec = ModelSpec::Abod { n_neighbors: 25 };
        assert_eq!(spec.family(), AlgorithmFamily::Abod);
        assert_eq!(spec.knob(), 25.0);
        let td = spec.task_descriptor();
        assert_eq!(td.family, AlgorithmFamily::Abod);
        assert_eq!(td.knob, 25.0);
        // OCSVM knob grows with nu (the SMO warm start is O(nu n^2 d)).
        let low_nu = ModelSpec::Ocsvm {
            nu: 0.1,
            kernel: Kernel::Linear,
        };
        let high_nu = ModelSpec::Ocsvm {
            nu: 0.9,
            kernel: Kernel::Linear,
        };
        assert!(high_nu.knob() > low_nu.knob());
        // Minkowski LOF carries a metric cost weight.
        let mink = ModelSpec::Lof {
            n_neighbors: 10,
            metric: DistanceMetric::Minkowski(3.0),
        };
        assert!(mink.task_descriptor().weight > 1.0);
        let sig = ModelSpec::Ocsvm {
            nu: 0.5,
            kernel: Kernel::Sigmoid {
                gamma: 0.0,
                coef0: 0.0,
            },
        };
        assert!(sig.task_descriptor().weight > 1.0);
    }

    #[test]
    fn invalid_hyperparameters_propagate() {
        assert!(ModelSpec::Knn {
            n_neighbors: 0,
            method: KnnMethod::Largest
        }
        .build(0)
        .is_err());
        assert!(ModelSpec::IForest {
            n_estimators: 10,
            max_features: 2.0
        }
        .build(0)
        .is_err());
        assert!(ModelSpec::Ocsvm {
            nu: 0.0,
            kernel: Kernel::Linear
        }
        .build(0)
        .is_err());
    }

    #[test]
    fn aknn_named_distinctly() {
        assert_eq!(
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Mean
            }
            .name(),
            "aknn"
        );
    }
}

//! Round-trip tests for per-detector `suod-pool` state serialization:
//! save → load → save must be byte-identical and reloaded detectors must
//! score bitwise-equal to the originals.

use suod_detectors::{
    read_detector, read_error, write_detector, write_error, AbodDetector, CblofDetector,
    ChaosConfig, ChaosDetector, CofDetector, Detector, Error, FeatureBagging, HbosDetector,
    IsolationForest, Kernel, KnnDetector, KnnMethod, LodaDetector, LofDetector, LoopDetector,
    OcsvmDetector, PcaDetector,
};
use suod_linalg::{DistanceMetric, Matrix, SnapshotReader, SnapshotWriter};

fn train_data() -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let a = (i % 8) as f64 * 0.31;
            let b = (i / 8) as f64 * 0.17;
            vec![a, b, (a - b).sin(), 0.05 * a * b]
        })
        .collect();
    rows.push(vec![6.0, -5.5, 4.0, 3.0]);
    rows.push(vec![-4.0, 6.5, -3.0, 2.0]);
    Matrix::from_rows(&rows).unwrap()
}

fn query_data() -> Matrix {
    Matrix::from_rows(&[
        vec![0.1, 0.2, 0.3, 0.0],
        vec![5.0, -5.0, 3.5, 2.5],
        vec![1.0, 1.0, 0.0, 0.1],
    ])
    .unwrap()
}

fn fitted_pool() -> Vec<Box<dyn Detector>> {
    let x = train_data();
    let mut pool: Vec<Box<dyn Detector>> = vec![
        Box::new(KnnDetector::new(5, KnnMethod::Largest).unwrap()),
        Box::new(
            KnnDetector::new(4, KnnMethod::Mean)
                .unwrap()
                .with_metric(DistanceMetric::Manhattan),
        ),
        Box::new(KnnDetector::new(3, KnnMethod::Median).unwrap()),
        Box::new(LofDetector::new(6).unwrap()),
        Box::new(AbodDetector::new(5).unwrap()),
        Box::new(CofDetector::new(5).unwrap()),
        Box::new(LoopDetector::new(5).unwrap()),
        Box::new(HbosDetector::new(8, 0.5).unwrap()),
        Box::new(IsolationForest::new(12, 7).unwrap()),
        Box::new(CblofDetector::new(3, 42).unwrap()),
        Box::new(OcsvmDetector::new(0.2, Kernel::Rbf { gamma: 0.5 }).unwrap()),
        Box::new(LodaDetector::new(10, 12, 3).unwrap()),
        Box::new(PcaDetector::new(0.8).unwrap()),
        Box::new(FeatureBagging::new(4, 5, 9).unwrap()),
        Box::new(ChaosDetector::new(
            Box::new(KnnDetector::new(5, KnnMethod::Largest).unwrap()),
            ChaosConfig::default(),
        )),
    ];
    for det in &mut pool {
        det.fit(&x).unwrap();
    }
    pool
}

#[test]
fn every_detector_round_trips_bitwise() {
    let q = query_data();
    for det in fitted_pool() {
        let mut w = SnapshotWriter::new();
        write_detector(det.as_ref(), &mut w).unwrap();
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        let loaded = read_detector(&mut r, 2).unwrap();
        assert!(r.is_exhausted(), "{}: trailing bytes", det.name());
        assert_eq!(loaded.name(), det.name());
        assert!(loaded.is_fitted(), "{}: lost fitted state", det.name());

        // save(load(save(d))) is byte-identical.
        let mut w2 = SnapshotWriter::new();
        write_detector(loaded.as_ref(), &mut w2).unwrap();
        assert_eq!(w2.as_bytes(), &bytes[..], "{}: bytes drifted", det.name());

        // Scores are bitwise equal.
        let (a, b) = (det.decision_function(&q), loaded.decision_function(&q));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{}: score drift", det.name());
                }
            }
            (Err(_), Err(_)) => {} // chaos predict-time injection: both fail alike
            (a, b) => panic!("{}: outcome mismatch {a:?} vs {b:?}", det.name()),
        }
    }
}

#[test]
fn load_is_thread_count_invariant() {
    let q = query_data();
    for det in fitted_pool() {
        let mut w = SnapshotWriter::new();
        write_detector(det.as_ref(), &mut w).unwrap();
        let bytes = w.into_bytes();
        let one = read_detector(&mut SnapshotReader::new(&bytes), 1).unwrap();
        let eight = read_detector(&mut SnapshotReader::new(&bytes), 8).unwrap();
        if let (Ok(a), Ok(b)) = (one.decision_function(&q), eight.decision_function(&q)) {
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}: thread drift", det.name());
            }
        }
    }
}

#[test]
fn unfitted_detector_round_trips() {
    let det = KnnDetector::new(5, KnnMethod::Largest).unwrap();
    let mut w = SnapshotWriter::new();
    write_detector(&det, &mut w).unwrap();
    let loaded = read_detector(&mut SnapshotReader::new(w.as_bytes()), 1).unwrap();
    assert!(!loaded.is_fitted());
}

#[test]
fn unknown_name_and_truncation_are_typed_errors() {
    let mut w = SnapshotWriter::new();
    w.write_str("not_a_detector");
    w.write_bytes(&[]);
    assert!(read_detector(&mut SnapshotReader::new(w.as_bytes()), 1).is_err());

    let mut w = SnapshotWriter::new();
    let det = {
        let mut d = HbosDetector::new(8, 0.5).unwrap();
        d.fit(&train_data()).unwrap();
        d
    };
    write_detector(&det, &mut w).unwrap();
    let bytes = w.into_bytes();
    let truncated = &bytes[..bytes.len() - 3];
    assert!(read_detector(&mut SnapshotReader::new(truncated), 1).is_err());
}

#[test]
fn error_codec_is_canonical() {
    let causes = vec![
        Error::NotFitted("LofDetector"),
        Error::InvalidParameter("bad k".into()),
        Error::InsufficientData {
            needed: "at least 3 samples".into(),
            got: 1,
        },
        Error::DimensionMismatch {
            expected: 4,
            actual: 2,
        },
        Error::Linalg(suod_linalg::Error::Empty("matmul")),
        Error::NonFiniteInput("abod fit"),
        Error::DegenerateData("all rows identical".into()),
        Error::NonConvergence("smo".into()),
        Error::Panicked("boom".into()),
    ];
    for cause in causes {
        let mut w = SnapshotWriter::new();
        write_error(&cause, &mut w);
        let bytes = w.into_bytes();
        let got = read_error(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(got, cause);
        let mut w2 = SnapshotWriter::new();
        write_error(&got, &mut w2);
        assert_eq!(w2.as_bytes(), &bytes[..]);
    }
}

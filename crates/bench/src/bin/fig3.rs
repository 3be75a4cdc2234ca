//! Figure 3 reproduction: decision surfaces of unsupervised detectors and
//! their pseudo-supervised approximators.
//!
//! Recreates the paper's 200-point 2-D toy dataset (160 uniform inliers,
//! 40 Gaussian outliers), fits the six detectors of Fig. 3 (ABOD, CBLOF,
//! Feature Bagging, kNN, average kNN, LOF) plus a random-forest
//! approximator for each, evaluates both on a 60x60 grid, and writes the
//! score surfaces as CSV (the figure's raw data). Also prints the
//! training-point error counts shown in the figure's subtitles.

use suod::prelude::*;
use suod_bench::CsvSink;
use suod_datasets::synthetic::fig3_points;
use suod_detectors::labels_from_scores;
use suod_supervised::{RandomForestRegressor, Regressor};

fn models() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("abod", ModelSpec::Abod { n_neighbors: 10 }),
        ("cblof", ModelSpec::Cblof { n_clusters: 3 }),
        (
            "feature_bagging",
            ModelSpec::FeatureBagging { n_estimators: 10 },
        ),
        (
            "knn",
            ModelSpec::Knn {
                n_neighbors: 10,
                method: KnnMethod::Largest,
            },
        ),
        (
            "aknn",
            ModelSpec::Knn {
                n_neighbors: 10,
                method: KnnMethod::Mean,
            },
        ),
        (
            "lof",
            ModelSpec::Lof {
                n_neighbors: 10,
                metric: Metric::Euclidean,
            },
        ),
    ]
}

/// 60x60 evaluation grid over the data's bounding box.
fn grid(lo: f64, hi: f64) -> Matrix {
    const STEPS: usize = 60;
    let mut rows = Vec::with_capacity(STEPS * STEPS);
    for i in 0..STEPS {
        for j in 0..STEPS {
            let x = lo + (hi - lo) * i as f64 / (STEPS - 1) as f64;
            let y = lo + (hi - lo) * j as f64 / (STEPS - 1) as f64;
            rows.push(vec![x, y]);
        }
    }
    Matrix::from_rows(&rows).expect("fixed-size rows")
}

fn errors(labels_true: &[i32], scores: &[f64], contamination: f64) -> usize {
    let predicted = labels_from_scores(scores, contamination).expect("valid scores");
    labels_true
        .iter()
        .zip(&predicted)
        .filter(|(t, p)| t != p)
        .count()
}

fn main() {
    let ds = fig3_points(42);
    let contamination = ds.contamination();
    let mesh = grid(-15.0, 15.0);
    let mut surface_csv = CsvSink::create("fig3_surfaces", "model,kind,x,y,score");
    let mut summary_csv = CsvSink::create("fig3_errors", "model,orig_errors,appr_errors");

    println!("Figure 3: decision surfaces, detector vs RF approximator (200 points, 40 outliers)");
    println!(
        "{:<16} {:>12} {:>12}",
        "model", "orig errors", "appr errors"
    );

    for (name, spec) in models() {
        let mut det = spec.build(7).expect("valid spec");
        let train_scores = det.fit(&ds.x).expect("fit on toy data");

        // Distill into the paper's approximator: a random forest regressor.
        let mut rf = RandomForestRegressor::new(100, 7).with_max_depth(10);
        rf.fit(&ds.x, &train_scores).expect("approximator fit");
        let appr_train = rf.predict(&ds.x).expect("predict train");

        let orig_err = errors(&ds.y, &train_scores, contamination);
        let appr_err = errors(&ds.y, &appr_train, contamination);
        println!("{name:<16} {orig_err:>12} {appr_err:>12}");
        summary_csv.row(&format!("{name},{orig_err},{appr_err}"));

        // Surfaces over the mesh.
        let orig_surface = det.decision_function(&mesh).expect("score mesh");
        let appr_surface = rf.predict(&mesh).expect("score mesh");
        for (row, (&o, &a)) in mesh.rows_iter().zip(orig_surface.iter().zip(&appr_surface)) {
            surface_csv.row(&format!("{name},orig,{},{},{o:.6}", row[0], row[1]));
            surface_csv.row(&format!("{name},appr,{},{},{a:.6}", row[0], row[1]));
        }
    }
    println!(
        "\nwrote {} and {}",
        surface_csv.path().display(),
        summary_csv.path().display()
    );
    println!("(expected shape: approximators show equal or fewer errors for the");
    println!(" proximity models; ABOD's coarse surface approximates worst.)");
}

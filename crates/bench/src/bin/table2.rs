//! Table 2 + Table C.1 reproduction: prediction quality of unsupervised
//! models (Orig) vs their pseudo-supervised approximators (Appr).
//!
//! Six costly algorithms × ten datasets, 60/40 train/validation split,
//! metrics averaged over independent trials. Table 2 reports ROC, Table
//! C.1 reports P@N; this binary emits both.
//!
//! Flags: `--quick`, `--paper-scale`.

use suod::prelude::*;
use suod_bench::{mean, CsvSink, Scale};
use suod_datasets::{registry, train_test_split};
use suod_metrics::{precision_at_n, roc_auc};
use suod_supervised::{RandomForestRegressor, Regressor};

const DATASETS: &[&str] = &[
    "annthyroid",
    "breastw",
    "cardio",
    "http",
    "mnist",
    "pendigits",
    "pima",
    "satellite",
    "satimage-2",
    "thyroid",
];

fn algorithms() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("abod", ModelSpec::Abod { n_neighbors: 10 }),
        ("cblof", ModelSpec::Cblof { n_clusters: 8 }),
        ("fb", ModelSpec::FeatureBagging { n_estimators: 10 }),
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

fn main() {
    let scale = Scale::from_args();
    // http is half a million rows in the paper; scale it harder.
    let base_scale = scale.pick(0.03, 0.15, 1.0);
    let n_trials = scale.pick(1usize, 3, 10);
    let mut csv = CsvSink::create(
        "table2",
        "algorithm,dataset,orig_roc,appr_roc,orig_pan,appr_pan",
    );

    println!("Table 2 / C.1: Orig vs Appr prediction quality ({n_trials} trials, 60/40 split)");
    for (alg_name, spec) in algorithms() {
        println!("\n== {alg_name} ==");
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>9}",
            "dataset", "ROC orig", "ROC appr", "P@N orig", "P@N appr"
        );
        for ds_name in DATASETS {
            let extra: f64 = if *ds_name == "http" { 0.02 } else { 1.0 };
            let ds = match registry::load_scaled(ds_name, 11, (base_scale * extra).min(1.0)) {
                Ok(ds) => ds,
                Err(e) => {
                    eprintln!("skipping {ds_name}: {e}");
                    continue;
                }
            };
            let mut roc_o = Vec::new();
            let mut roc_a = Vec::new();
            let mut pan_o = Vec::new();
            let mut pan_a = Vec::new();
            for trial in 0..n_trials {
                let seed = 31 * trial as u64 + 5;
                let split = train_test_split(&ds, 0.4, seed).expect("valid split");

                let mut det = spec.build(seed).expect("valid spec");
                let Ok(truth) = det.fit(&split.x_train) else {
                    continue;
                };
                let orig_scores = det
                    .decision_function(&split.x_test)
                    .expect("scoring fitted detector");

                let mut rf = RandomForestRegressor::new(50, seed).with_max_depth(12);
                rf.fit(&split.x_train, &truth).expect("approximator fit");
                let appr_scores = rf.predict(&split.x_test).expect("approximator predict");

                if let (Ok(ro), Ok(ra)) = (
                    roc_auc(&split.y_test, &orig_scores),
                    roc_auc(&split.y_test, &appr_scores),
                ) {
                    roc_o.push(ro);
                    roc_a.push(ra);
                }
                if let (Ok(po), Ok(pa)) = (
                    precision_at_n(&split.y_test, &orig_scores, None),
                    precision_at_n(&split.y_test, &appr_scores, None),
                ) {
                    pan_o.push(po);
                    pan_a.push(pa);
                }
            }
            let (ro, ra, po, pa) = (mean(&roc_o), mean(&roc_a), mean(&pan_o), mean(&pan_a));
            println!("{ds_name:<12} {ro:>9.3} {ra:>9.3} {po:>9.3} {pa:>9.3}");
            csv.row(&format!(
                "{alg_name},{ds_name},{ro:.4},{ra:.4},{po:.4},{pa:.4}"
            ));
        }
    }
    println!("\nwrote {}", csv.path().display());
    println!("(expected shape: Appr within a few points of Orig, often above it");
    println!(" for kNN/akNN/LOF; ABOD is the family that may lose ground.)");
}

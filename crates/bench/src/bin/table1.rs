//! Table 1 reproduction: comparison of projection methods.
//!
//! For each (detector, dataset) pair the paper reports fit time, ROC and
//! P@N under seven projection settings: `original`, `PCA`, `RS`, and the
//! four JL variants, with target dimension `k = (2/3) d`. The paper uses
//! the full dataset for training and evaluates training-set scores.
//!
//! Flags: `--quick` (smoke test), `--paper-scale` (full dataset sizes).

use suod::prelude::*;
use suod_bench::{mean, CsvSink, Scale};
use suod_datasets::registry;
use suod_metrics::{precision_at_n, roc_auc};
use suod_projection::{
    IdentityProjector, JlProjector, PcaProjector, Projector, RandomSelectProjector,
};

const DATASETS: &[&str] = &["mnist", "satellite", "satimage-2", "cardio"];
const METHODS: &[&str] = &[
    "original",
    "pca",
    "rs",
    "basic",
    "discrete",
    "circulant",
    "toeplitz",
];

fn detector_for(name: &str, seed: u64) -> ModelSpec {
    let _ = seed;
    match name {
        "abod" => ModelSpec::Abod { n_neighbors: 10 },
        "lof" => ModelSpec::Lof {
            n_neighbors: 20,
            metric: Metric::Euclidean,
        },
        "knn" => ModelSpec::Knn {
            n_neighbors: 20,
            method: KnnMethod::Largest,
        },
        other => unreachable!("unknown detector {other}"),
    }
}

fn projector_for(method: &str, k: usize, seed: u64) -> Box<dyn Projector> {
    match method {
        "original" => Box::new(IdentityProjector::new()),
        "pca" => Box::new(PcaProjector::new(k).expect("k >= 1")),
        "rs" => Box::new(RandomSelectProjector::new(k, seed).expect("k >= 1")),
        jl => Box::new(
            JlProjector::new(JlVariant::parse(jl).expect("static table"), k, seed).expect("k >= 1"),
        ),
    }
}

fn main() {
    let scale = Scale::from_args();
    let data_scale = scale.pick(0.05, 0.25, 1.0);
    let n_trials = scale.pick(1usize, 3, 10);
    let mut csv = CsvSink::create("table1", "detector,dataset,method,time_s,roc,p_at_n");

    println!("Table 1: projection method comparison (k = 2/3 d, {n_trials} trials, data scale {data_scale})");
    for det_name in ["abod", "lof", "knn"] {
        for ds_name in DATASETS {
            let ds = registry::load_scaled(ds_name, 42, data_scale).expect("registry dataset");
            let d = ds.n_features();
            let k = ((2 * d) / 3).max(1);
            println!(
                "\n== {det_name} on {ds_name} (n={}, d={d}, k={k}) ==",
                ds.n_samples()
            );
            println!(
                "{:<10} {:>9} {:>7} {:>7}",
                "method", "time(s)", "ROC", "P@N"
            );

            for method in METHODS {
                let mut times = Vec::new();
                let mut rocs = Vec::new();
                let mut pans = Vec::new();
                for trial in 0..n_trials {
                    let seed = 1000 * trial as u64 + 7;
                    let mut proj = projector_for(method, k, seed);
                    proj.fit(&ds.x).expect("projector fit");
                    let z = proj.transform(&ds.x).expect("projector transform");

                    let spec = detector_for(det_name, seed);
                    let mut det = spec.build(seed).expect("valid spec");
                    let start = std::time::Instant::now();
                    let scores = det.fit(&z).expect("detector fit");
                    times.push(start.elapsed().as_secs_f64());
                    rocs.push(roc_auc(&ds.y, &scores).expect("both classes present"));
                    pans.push(precision_at_n(&ds.y, &scores, None).expect("has outliers"));
                }
                let (t, r, p) = (mean(&times), mean(&rocs), mean(&pans));
                println!("{method:<10} {t:>9.3} {r:>7.3} {p:>7.3}");
                csv.row(&format!(
                    "{det_name},{ds_name},{method},{t:.6},{r:.4},{p:.4}"
                ));
            }
        }
    }
    println!("\nwrote {}", csv.path().display());
}

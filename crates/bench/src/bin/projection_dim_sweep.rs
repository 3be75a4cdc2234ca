//! Design-choice ablation: the random-projection target dimension.
//!
//! The paper fixes `k = (2/3) d` for Table 1 and warns that the JL bound
//! stops holding when `k` is pushed too low. This sweep fits a costly
//! detector (kNN) under JL-circulant projections at several `k/d`
//! fractions and reports fit time and ROC, locating the accuracy/time
//! knee.
//!
//! Flags: `--quick`, `--paper-scale`.

use std::time::Instant;
use suod::prelude::*;
use suod_bench::{mean, CsvSink, Scale};
use suod_datasets::registry;
use suod_metrics::roc_auc;
use suod_projection::{JlProjector, Projector};

const FRACTIONS: &[f64] = &[0.17, 0.33, 0.5, 0.67, 0.83, 1.0];

fn main() {
    let scale = Scale::from_args();
    let data_scale = scale.pick(0.05, 0.25, 1.0);
    let n_trials = scale.pick(1usize, 3, 10);
    let mut csv = CsvSink::create("projection_dim_sweep", "dataset,fraction,k,time_s,roc");

    println!("Projection target-dimension sweep (JL circulant, kNN detector, {n_trials} trials)");
    for ds_name in ["mnist", "musk"] {
        let ds = registry::load_scaled(ds_name, 29, data_scale).expect("registry dataset");
        let d = ds.n_features();
        println!("\n== {ds_name} (n = {}, d = {d}) ==", ds.n_samples());
        println!("{:<9} {:>4} {:>9} {:>7}", "k/d", "k", "time(s)", "ROC");
        for &fraction in FRACTIONS {
            let k = ((d as f64 * fraction).round() as usize).clamp(1, d);
            let mut times = Vec::new();
            let mut rocs = Vec::new();
            for trial in 0..n_trials {
                let seed = 100 * trial as u64 + 3;
                let z = if k == d {
                    ds.x.clone()
                } else {
                    let mut proj = JlProjector::new(JlVariant::Circulant, k, seed).expect("k >= 1");
                    proj.fit(&ds.x).expect("projector fit");
                    proj.transform(&ds.x).expect("projector transform")
                };
                let mut det = ModelSpec::Knn {
                    n_neighbors: 15,
                    method: KnnMethod::Largest,
                }
                .build(seed)
                .expect("valid spec");
                let start = Instant::now();
                let scores = det.fit(&z).expect("detector fit");
                times.push(start.elapsed().as_secs_f64());
                rocs.push(roc_auc(&ds.y, &scores).expect("both classes"));
            }
            let (t, r) = (mean(&times), mean(&rocs));
            println!("{fraction:<9.2} {k:>4} {t:>9.3} {r:>7.3}");
            csv.row(&format!("{ds_name},{fraction},{k},{t:.6},{r:.4}"));
        }
    }
    println!("\nwrote {}", csv.path().display());
    println!("(fit time scales ~linearly with k; accuracy should hold down to");
    println!(" moderate k and fall off when the JL distortion grows.)");
}

//! Integration tests for the scheduling path: measured costs from real
//! detector fits feeding the BPS pipeline, reproducing the paper's §3.5
//! claims at test scale.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use suod::prelude::*;
use suod_datasets::registry;
use suod_metrics::spearman;
use suod_observe::{NoopObserver, Observer};
use suod_scheduler::{
    bps_schedule, generic_schedule, simulate_makespan, AnalyticCostModel, CostModel, DatasetMeta,
    TaskDescriptor,
};
use suod_serve::{ScoreOutcome, ScoreService, ServeConfig};

/// A deliberately grouped pool: heavy proximity models first, cheap
/// histogram/forest models last — the paper's motivating worst case for
/// generic chunked scheduling.
fn grouped_pool() -> Vec<ModelSpec> {
    let mut pool = Vec::new();
    for k in [5usize, 10, 15, 20] {
        pool.push(ModelSpec::Knn {
            n_neighbors: k,
            method: KnnMethod::Largest,
        });
    }
    for k in [5usize, 10, 15, 20] {
        pool.push(ModelSpec::Lof {
            n_neighbors: k,
            metric: Metric::Euclidean,
        });
    }
    for b in [5usize, 10, 15, 20] {
        pool.push(ModelSpec::Hbos {
            n_bins: b,
            tolerance: 0.3,
        });
    }
    for t in [10usize, 15, 20, 25] {
        pool.push(ModelSpec::IForest {
            n_estimators: t,
            max_features: 0.8,
        });
    }
    pool
}

#[test]
fn analytic_costs_rank_correlate_with_measured_times() {
    let ds = registry::load_scaled("cardio", 3, 0.35).unwrap();
    let pool = grouped_pool();

    // Measure true sequential fit times.
    let mut measured = Vec::with_capacity(pool.len());
    for (i, spec) in pool.iter().enumerate() {
        let mut det = spec.build(i as u64).unwrap();
        let start = Instant::now();
        det.fit(&ds.x).unwrap();
        measured.push(start.elapsed().as_secs_f64().max(1e-9));
    }

    let meta = DatasetMeta::extract(&ds.x);
    let model = AnalyticCostModel::new();
    let tasks: Vec<_> = pool.iter().map(|s| s.task_descriptor()).collect();
    let predicted = model.predict_costs(&tasks, &meta);

    let rho = spearman(&measured, &predicted).unwrap();
    assert!(
        rho > 0.5,
        "analytic cost rank correlation too low: {rho} (measured {measured:?})"
    );
}

#[test]
fn bps_reduces_simulated_makespan_on_grouped_pool() {
    let ds = registry::load_scaled("cardio", 5, 0.35).unwrap();
    let pool = grouped_pool();

    let mut measured = Vec::with_capacity(pool.len());
    for (i, spec) in pool.iter().enumerate() {
        let mut det = spec.build(i as u64).unwrap();
        let start = Instant::now();
        det.fit(&ds.x).unwrap();
        measured.push(start.elapsed().as_secs_f64().max(1e-9));
    }

    let meta = DatasetMeta::extract(&ds.x);
    let tasks: Vec<_> = pool.iter().map(|s| s.task_descriptor()).collect();
    let predicted = AnalyticCostModel::new().predict_costs(&tasks, &meta);

    for t in [2usize, 4] {
        let generic =
            simulate_makespan(&measured, &generic_schedule(pool.len(), t).unwrap()).unwrap();
        let bps = simulate_makespan(&measured, &bps_schedule(&predicted, t, 1.0).unwrap()).unwrap();
        assert!(
            bps.makespan <= generic.makespan * 1.05,
            "t={t}: BPS {} vs generic {}",
            bps.makespan,
            generic.makespan
        );
        // On this grouped pool generic should be clearly imbalanced.
        assert!(generic.efficiency() < 0.999, "t={t}");
    }
}

#[test]
fn suod_simulation_api_reports_improvement() {
    let ds = registry::load_scaled("pendigits", 2, 0.1).unwrap();
    let mut clf = Suod::builder()
        .base_estimators(grouped_pool())
        .with_projection(false)
        .with_approximation(false)
        .seed(1)
        .build()
        .unwrap();
    clf.fit(&ds.x).unwrap();
    let (generic, bps) = clf.simulate_fit_schedules(4).unwrap();
    // BPS must never be drastically worse, and is typically better on the
    // grouped ordering.
    assert!(bps.makespan <= generic.makespan * 1.25);
    assert!(bps.speedup() >= 1.0);
}

/// The analytic cost model, counting every forecast asked of it.
struct CountingCostModel {
    calls: Arc<AtomicUsize>,
}

impl CostModel for CountingCostModel {
    fn predict_cost(&self, task: &TaskDescriptor, meta: &DatasetMeta) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        AnalyticCostModel::new().predict_cost(task, meta)
    }
}

/// The cost model forecasts fit tasks only: once a pool is fitted, no
/// scoring path (plain, observed, masked, combined, a serving batch, a
/// snapshot save) asks it for a cost. A loaded pool carries the default
/// model, so the round trip checks that it scores the same bits.
#[test]
fn only_fit_consults_the_cost_model() {
    let ds = registry::load_scaled("cardio", 3, 0.2).unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let mut clf = Suod::builder()
        .base_estimators(vec![
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
            ModelSpec::Lof {
                n_neighbors: 10,
                metric: Metric::Euclidean,
            },
            ModelSpec::Hbos {
                n_bins: 10,
                tolerance: 0.3,
            },
            ModelSpec::IForest {
                n_estimators: 10,
                max_features: 0.8,
            },
        ])
        .with_projection(false)
        .with_approximation(false)
        .cost_model(Arc::new(CountingCostModel {
            calls: Arc::clone(&calls),
        }))
        .n_workers(2)
        .seed(4)
        .build()
        .unwrap();
    clf.fit(&ds.x).unwrap();
    let fitted = calls.load(Ordering::Relaxed);
    assert!(fitted > 0, "fit forecasts its tasks");

    let x = ds.x.select_rows(&(0..300).collect::<Vec<_>>());
    let noop: Arc<dyn Observer> = Arc::new(NoopObserver);
    let plain = clf.decision_function(&x).unwrap();
    let (observed, _) = clf.decision_function_observed(&x, &noop).unwrap();
    assert_eq!(plain.as_slice(), observed.as_slice());
    clf.decision_function_masked(&x, &[true, false, true, true], &noop)
        .unwrap();
    let combined = clf.combined_scores(&x).unwrap();
    let bytes = clf.save_to_bytes().unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), fitted);

    let service = ScoreService::new(clf, ServeConfig::default()).unwrap();
    let ticket = service.submit(x.select_rows(&[0, 1])).unwrap();
    assert_eq!(service.process_once(), 1);
    let ScoreOutcome::Scored(batch) = ticket.wait() else {
        panic!("a healthy pool scores the batch");
    };
    assert_eq!(batch.combined, combined[..2]);
    assert_eq!(calls.load(Ordering::Relaxed), fitted);

    let loaded = Suod::load_from_bytes(&bytes).unwrap();
    let reloaded: Vec<u64> = loaded
        .combined_scores(&x)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let original: Vec<u64> = combined.iter().map(|v| v.to_bits()).collect();
    assert_eq!(reloaded, original);
    assert_eq!(calls.load(Ordering::Relaxed), fitted);
}

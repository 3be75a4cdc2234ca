//! Serving: a fault-tolerant online scoring service over a fitted pool.
//!
//! Fits a small heterogeneous ensemble that includes one deliberately
//! chaotic model (clean at fit, panics at predict), starts the scoring
//! service, pushes concurrent score requests at it, and prints the
//! degradation diagnostics: the chaotic model faults, burns through its
//! failure budget, gets quarantined, and every request still gets
//! survivor-only scores.
//!
//! Run with:
//! ```sh
//! cargo run --release -p suod-serve --example serve
//! ```

use std::sync::Arc;
use std::time::Duration;
use suod::prelude::*;
use suod_datasets::{registry, train_test_split};
use suod_serve::{ScoreOutcome, ScoreService, ServeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = registry::load("cardio", 42)?;
    let split = train_test_split(&ds, 0.4, 42)?;
    println!(
        "dataset: {} ({} train / {} test rows, {} features)",
        ds.name,
        split.x_train.nrows(),
        split.x_test.nrows(),
        ds.n_features(),
    );

    // A heterogeneous pool with one saboteur: ChaosMode::PanicOnPredict
    // fits cleanly, then panics on every decision_function call.
    let base_estimators = vec![
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Largest,
        },
        ModelSpec::Lof {
            n_neighbors: 20,
            metric: Metric::Euclidean,
        },
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
        ModelSpec::IForest {
            n_estimators: 30,
            max_features: 1.0,
        },
        ModelSpec::Chaos {
            mode: ChaosMode::PanicOnPredict,
            n_neighbors: 5,
        },
    ];
    let mut clf = Suod::builder()
        .base_estimators(base_estimators)
        .n_workers(2)
        .seed(7)
        .build()?;
    clf.fit(&split.x_train)?;
    println!("fitted {} models", clf.surviving_models()?.len());

    // The saboteur's panics are caught at the task boundary; silence the
    // default hook so they don't drown the service output.
    std::panic::set_hook(Box::new(|_| {}));

    // Small batches so the saboteur faults repeatedly: it burns through
    // its 2-fault budget and is quarantined; serving continues as long
    // as 3 of the 5 models stay healthy.
    let config = ServeConfig {
        queue_capacity: 32,
        max_batch_rows: 32,
        predict_failure_budget: 2,
        min_healthy_fraction: 0.6,
        ..ServeConfig::default()
    };
    let mut service = ScoreService::new(clf, config)?;
    service.spawn_dispatcher();
    let service = Arc::new(service);

    // Concurrent clients: each scores a slice of the test split.
    let rows_per_request = 16usize;
    let n_requests = (split.x_test.nrows() / rows_per_request).min(12);
    let mut clients = Vec::new();
    for r in 0..n_requests {
        let service = Arc::clone(&service);
        let rows: Vec<Vec<f64>> = (r * rows_per_request..(r + 1) * rows_per_request)
            .map(|i| split.x_test.row(i).to_vec())
            .collect();
        clients.push(std::thread::spawn(move || {
            let query = suod_linalg::Matrix::from_rows(&rows).expect("rectangular request");
            let ticket = loop {
                match service.submit(query.clone()) {
                    Ok(t) => break t,
                    Err(suod_serve::SubmitError::Busy { .. }) => {
                        // Backpressure: the queue is full — back off.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
            (r, ticket.wait())
        }));
    }

    let mut scored = 0usize;
    for client in clients {
        let (r, outcome) = client.join().expect("client thread");
        match outcome {
            ScoreOutcome::Scored(batch) => {
                scored += 1;
                if !batch.faults.is_empty() {
                    println!(
                        "request {r:2}: scored degraded ({}/{} models healthy): {}",
                        batch.healthy_models,
                        batch.total_models,
                        batch
                            .faults
                            .iter()
                            .map(|fault| {
                                format!(
                                    "{}#{}{}",
                                    fault.name,
                                    fault.pool_index,
                                    if fault.quarantined {
                                        " [quarantined]"
                                    } else {
                                        ""
                                    }
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                } else {
                    println!(
                        "request {r:2}: scored clean, top score {:.3}",
                        batch
                            .combined
                            .iter()
                            .cloned()
                            .fold(f64::NEG_INFINITY, f64::max)
                    );
                }
            }
            other => println!("request {r:2}: {other:?}"),
        }
    }

    println!("\n--- service report ---");
    println!("{}", service.report());
    println!("active models after chaos: {:?}", service.active_models());
    assert_eq!(scored, n_requests, "every request must be answered");
    Ok(())
}

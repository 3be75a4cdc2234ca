//! Chaos-at-predict and serving-layer system tests.
//!
//! The serving determinism contract: survivor scores are bit-identical
//! at any worker count, even while injected predict-time faults (panics,
//! stragglers, NaN columns) are quarantining models mid-stream; the shed
//! set under deadline pressure is a pure function of the arrival trace
//! on a manual clock; and no injected model fault ever fails a whole
//! request batch. All chaos injections are pure functions of the model
//! seed (see `suod_detectors::chaos`), so every assertion is exact.

use proptest::prelude::*;
use std::sync::Arc;
use suod::prelude::*;
use suod_serve::{ManualClock, ScoreOutcome, ScoreService, ServeConfig, SubmitError};

/// 90 x 5 synthetic grid with two planted outliers.
fn data() -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..88)
        .map(|i| {
            vec![
                (i % 10) as f64 * 0.2,
                (i / 10) as f64 * 0.2,
                ((i * 3) % 7) as f64 * 0.1,
                ((i * 5) % 11) as f64 * 0.1,
                ((i * 7) % 13) as f64 * 0.1,
            ]
        })
        .collect();
    rows.push(vec![9.0; 5]);
    rows.push(vec![-9.0, 9.0, -9.0, 9.0, -9.0]);
    Matrix::from_rows(&rows).unwrap()
}

/// `rows` query rows starting at global row `start`, disjoint from the
/// training grid.
fn request(start: usize, rows: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (start..start + rows)
        .map(|i| {
            let k = i as f64;
            vec![
                (k * 0.17) % 2.0,
                (k * 0.29) % 2.0,
                (k * 0.41) % 0.7,
                (k * 0.53) % 1.1,
                (k * 0.61) % 1.3,
            ]
        })
        .collect();
    Matrix::from_rows(&rows).unwrap()
}

/// `n` consecutive four-row requests.
fn queries(n: usize) -> Vec<Matrix> {
    (0..n).map(|r| request(r * 4, 4)).collect()
}

/// Eight healthy models across five families, chaos members appended at
/// the end so the healthy prefix keeps identical derived seeds.
fn healthy_pool() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn {
            n_neighbors: 5,
            method: KnnMethod::Largest,
        },
        ModelSpec::Knn {
            n_neighbors: 10,
            method: KnnMethod::Mean,
        },
        ModelSpec::Lof {
            n_neighbors: 8,
            metric: Metric::Euclidean,
        },
        ModelSpec::Hbos {
            n_bins: 10,
            tolerance: 0.3,
        },
        ModelSpec::Hbos {
            n_bins: 20,
            tolerance: 0.5,
        },
        ModelSpec::IForest {
            n_estimators: 20,
            max_features: 0.8,
        },
        ModelSpec::Loda {
            n_members: 20,
            n_bins: 10,
        },
        ModelSpec::Pca {
            variance_retained: 0.9,
        },
    ]
}

fn chaotic_pool() -> Vec<ModelSpec> {
    let mut pool = healthy_pool();
    pool.push(ModelSpec::Chaos {
        mode: ChaosMode::PanicOnPredict,
        n_neighbors: 5,
    });
    pool.push(ModelSpec::Chaos {
        mode: ChaosMode::NanOnPredict,
        n_neighbors: 5,
    });
    pool
}

fn fit(pool: Vec<ModelSpec>, n_workers: usize) -> Suod {
    let mut clf = Suod::builder()
        .base_estimators(pool)
        .min_healthy_fraction(0.5)
        .n_workers(n_workers)
        .seed(41)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    clf
}

/// Serves a fixed request trace through a manual-clock service and
/// returns each request's terminal outcome plus the final report.
fn serve_trace(
    clf: Suod,
    config: ServeConfig,
) -> (Vec<ScoreOutcome>, suod_serve::ServeReport, Vec<bool>) {
    let clock = Arc::new(ManualClock::new());
    let service =
        ScoreService::with_parts(clf, config, clock.clone(), suod_observe::noop()).unwrap();
    let mut tickets = Vec::new();
    for query in queries(6) {
        tickets.push(service.submit(query).unwrap());
        clock.advance(1);
        service.process_once();
    }
    let outcomes: Vec<ScoreOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
    (outcomes, service.report(), service.active_models())
}

fn combined_bits(outcome: &ScoreOutcome) -> Vec<u64> {
    match outcome {
        ScoreOutcome::Scored(batch) => batch.combined.iter().map(|v| v.to_bits()).collect(),
        other => panic!("expected Scored, got {other:?}"),
    }
}

#[test]
fn survivor_scores_bit_identical_across_worker_counts_under_predict_chaos() {
    // One panicking + one NaN-scoring model injected at predict time.
    // Every batch must still be answered, with survivor scores
    // bit-identical across 1/2/8 workers.
    let config = ServeConfig {
        predict_failure_budget: 3,
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let reference = serve_trace(fit(chaotic_pool(), 1), config.clone());
    for workers in [2usize, 8] {
        let run = serve_trace(fit(chaotic_pool(), workers), config.clone());
        for (a, b) in reference.0.iter().zip(&run.0) {
            assert_eq!(combined_bits(a), combined_bits(b));
        }
        // Quarantine decisions are part of the contract too.
        assert_eq!(reference.2, run.2);
        assert_eq!(reference.1.quarantined, run.1.quarantined);
        assert_eq!(reference.1.predict_faults, run.1.predict_faults);
    }
    // The chaos members (positions 8 and 9) burned through their budget
    // of 3 and left the mask; the healthy prefix stayed active.
    assert_eq!(reference.2[..8], [true; 8]);
    assert_eq!(&reference.2[8..], [false, false]);
    assert_eq!(reference.1.quarantined, 2);
}

#[test]
fn chaotic_survivor_scores_match_chaos_free_pool() {
    // Once the saboteurs are quarantined, served scores must equal those
    // of a pool that never contained them (the healthy prefix keeps its
    // seeds because chaos members sit at the end).
    let config = ServeConfig {
        predict_failure_budget: 1,
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let chaotic = serve_trace(fit(chaotic_pool(), 2), config.clone());
    let clean = serve_trace(fit(healthy_pool(), 2), config);
    // Batch 0 carries the chaos faults; from batch 1 on the masks have
    // converged and scores must match the clean pool bit for bit.
    for i in 1..6 {
        assert_eq!(combined_bits(&chaotic.0[i]), combined_bits(&clean.0[i]));
    }
    assert_eq!(chaotic.1.quarantined, 2);
    assert_eq!(clean.1.quarantined, 0);
}

#[test]
fn no_injected_fault_ever_fails_a_request_batch() {
    let config = ServeConfig {
        predict_failure_budget: 100, // never quarantine: fault every batch
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let (outcomes, report, _) = serve_trace(fit(chaotic_pool(), 2), config);
    for outcome in &outcomes {
        match outcome {
            ScoreOutcome::Scored(batch) => {
                assert!(batch.combined.iter().all(|v| v.is_finite()));
                assert_eq!(batch.healthy_models, 8);
                assert_eq!(batch.total_models, 10);
                assert!(!batch.faults.is_empty());
            }
            other => panic!("injected fault failed a batch: {other:?}"),
        }
    }
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.requests_scored, 6);
    // Two faulting models x six batches.
    assert_eq!(report.predict_faults, 12);
}

#[test]
fn quarantine_respects_failure_budget_exactly() {
    let config = ServeConfig {
        predict_failure_budget: 2,
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let clock = Arc::new(ManualClock::new());
    let service = ScoreService::with_parts(
        fit(chaotic_pool(), 2),
        config,
        clock.clone(),
        suod_observe::noop(),
    )
    .unwrap();
    let queries = queries(3);
    // Batch 1: both saboteurs fault (streak 1), still active.
    let t = service.submit(queries[0].clone()).unwrap();
    service.process_once();
    assert!(matches!(t.wait(), ScoreOutcome::Scored(_)));
    assert_eq!(service.active_models()[8..], [true, true]);
    // Batch 2: streak 2 == budget — quarantined, flagged on the fault.
    let t = service.submit(queries[1].clone()).unwrap();
    service.process_once();
    match t.wait() {
        ScoreOutcome::Scored(batch) => {
            assert!(batch.faults.iter().all(|f| f.quarantined));
        }
        other => panic!("expected Scored, got {other:?}"),
    }
    assert_eq!(service.active_models()[8..], [false, false]);
    // Batch 3: masked out — no work scheduled, no faults reported.
    let t = service.submit(queries[2].clone()).unwrap();
    service.process_once();
    match t.wait() {
        ScoreOutcome::Scored(batch) => {
            assert!(batch.faults.is_empty());
            assert_eq!(batch.healthy_models, 8);
        }
        other => panic!("expected Scored, got {other:?}"),
    }
    assert_eq!(service.report().quarantined, 2);
}

#[test]
fn deadline_shed_set_is_deterministic_for_fixed_trace() {
    // A fixed arrival trace on a manual clock: requests 0 and 2 are
    // admitted with tight budgets and aged past them before their batch
    // assembles; 1 and 3 stay fresh. The shed set must be exactly
    // {0, 2} on every run and every worker count.
    let run = |workers: usize| -> Vec<bool> {
        let clock = Arc::new(ManualClock::new());
        let service = ScoreService::with_parts(
            fit(healthy_pool(), workers),
            ServeConfig::default(),
            clock.clone(),
            suod_observe::noop(),
        )
        .unwrap();
        let q = queries(4);
        let t0 = service.submit_with_deadline(q[0].clone(), Some(5)).unwrap();
        let t1 = service
            .submit_with_deadline(q[1].clone(), Some(500))
            .unwrap();
        clock.advance(10); // t0 now expired
        let t2 = service.submit_with_deadline(q[2].clone(), Some(3)).unwrap();
        let t3 = service.submit_with_deadline(q[3].clone(), None).unwrap();
        clock.advance(20); // t2 now expired too
        assert_eq!(service.process_once(), 4);
        [t0, t1, t2, t3]
            .into_iter()
            .map(|t| matches!(t.wait(), ScoreOutcome::Shed { .. }))
            .collect()
    };
    let reference = run(1);
    assert_eq!(reference, vec![true, false, true, false]);
    for workers in [2usize, 8] {
        assert_eq!(run(workers), reference);
    }
}

#[test]
fn backpressure_bounds_the_queue_under_flood() {
    let config = ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let service = ScoreService::new(fit(healthy_pool(), 2), config).unwrap();
    let q = queries(1).pop().unwrap();
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..20 {
        match service.submit(q.clone()) {
            Ok(ticket) => admitted.push(ticket),
            Err(SubmitError::Busy { capacity }) => {
                assert_eq!(capacity, 4);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(admitted.len(), 4);
    assert_eq!(rejected, 16);
    // Every admitted request is eventually answered; nothing is lost.
    while service.process_once() > 0 {}
    for ticket in admitted {
        assert!(matches!(ticket.wait(), ScoreOutcome::Scored(_)));
    }
    let report = service.report();
    assert_eq!(report.admitted, 4);
    assert_eq!(report.rejected, 16);
    assert_eq!(report.requests_scored, 4);
}

#[test]
fn serving_floor_fails_batches_not_the_service() {
    // Floor demands all 10 models healthy, but two always fault: every
    // batch fails cleanly, the service survives, and relaxing to a pool
    // below the floor never poisons subsequent admissions.
    let config = ServeConfig {
        predict_failure_budget: 100,
        min_healthy_fraction: 1.0,
        ..ServeConfig::default()
    };
    let (outcomes, report, _) = serve_trace(fit(chaotic_pool(), 2), config);
    for outcome in &outcomes {
        match outcome {
            ScoreOutcome::Failed(msg) => assert!(msg.contains("degraded")),
            other => panic!("expected Failed below the floor, got {other:?}"),
        }
    }
    assert_eq!(report.requests_failed, 6);
    assert_eq!(report.requests_scored, 0);
}

#[test]
fn quarantine_recovers_service_at_strict_default_floor() {
    // The default min_healthy_fraction of 1.0 is taken over the models
    // active for each batch, not the full served ensemble: a faulty
    // model fails at most `predict_failure_budget` batches before it
    // leaves the denominator and the service recovers.
    let config = ServeConfig {
        predict_failure_budget: 2,
        ..ServeConfig::default() // min_healthy_fraction: 1.0
    };
    let (outcomes, report, active) = serve_trace(fit(chaotic_pool(), 2), config);
    // Batches 0 and 1 carry faults from still-active saboteurs; with
    // every active model required, they fail cleanly.
    for outcome in &outcomes[..2] {
        assert!(
            matches!(outcome, ScoreOutcome::Failed(msg) if msg.contains("degraded")),
            "expected Failed below the floor, got {outcome:?}"
        );
    }
    // From batch 2 on the saboteurs are quarantined out of the
    // denominator and every batch scores again.
    for outcome in &outcomes[2..] {
        match outcome {
            ScoreOutcome::Scored(batch) => {
                assert_eq!(batch.healthy_models, 8);
                assert!(batch.faults.is_empty());
            }
            other => panic!("service did not recover after quarantine: {other:?}"),
        }
    }
    assert_eq!(&active[8..], [false, false]);
    assert_eq!(report.requests_failed, 2);
    assert_eq!(report.requests_scored, 4);
    assert_eq!(report.quarantined, 2);
}

#[test]
fn core_predict_chaos_is_bit_identical_across_worker_counts() {
    // The serving contract rests on the estimator's own guarantee:
    // decision_function with injected predict faults produces the same
    // matrix (NaN columns included) at any worker count.
    let q = {
        let all = queries(6);
        let mut rows = Vec::new();
        for m in &all {
            for r in 0..m.nrows() {
                rows.push(m.row(r).to_vec());
            }
        }
        Matrix::from_rows(&rows).unwrap()
    };
    let score = |workers: usize| -> Vec<u64> {
        fit(chaotic_pool(), workers)
            .decision_function(&q)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let reference = score(1);
    // NaN columns are present (the saboteurs) but deterministic.
    assert!(reference.iter().any(|&b| f64::from_bits(b).is_nan()));
    assert_eq!(score(2), reference);
    assert_eq!(score(8), reference);
}

/// One step of a generated arrival trace.
#[derive(Debug, Clone, Copy)]
enum Step {
    Submit {
        rows: usize,
        deadline_ms: Option<u64>,
    },
    Advance(u64),
    Process,
}

fn step() -> impl Strategy<Value = Step> {
    (0usize..8, 1usize..11, 0u64..6, proptest::bool::ANY).prop_map(
        |(kind, rows, ms, has_deadline)| match kind {
            0..=4 => Step::Submit {
                rows,
                deadline_ms: has_deadline.then_some(ms),
            },
            5 => Step::Advance(ms),
            _ => Step::Process,
        },
    )
}

/// An admitted request as the model of the queue remembers it.
struct Queued {
    ticket: suod_serve::Ticket,
    query: Matrix,
    enqueued_ms: u64,
    deadline_at_ms: Option<u64>,
}

/// Replays `steps` on a manual clock beside a model of the admission
/// queue and checks the dispatch rule, which the background dispatcher
/// only repeats: each `process_once` retires exactly the FIFO prefix
/// under `max_batch_rows` (at least one request), sheds the expired
/// members of that prefix, and scores the rest bit-equal to the offline
/// oracle. Every ticket resolves exactly once and the counters balance.
fn replay_and_check(steps: Vec<Step>) {
    const CAPACITY: usize = 6;
    const MAX_BATCH_ROWS: usize = 16;
    let pool = || healthy_pool()[2..6].to_vec();
    let oracle = fit(pool(), 1);
    let clock = Arc::new(ManualClock::new());
    let service = ScoreService::with_parts(
        fit(pool(), 2),
        ServeConfig {
            queue_capacity: CAPACITY,
            max_batch_rows: MAX_BATCH_ROWS,
            ..ServeConfig::default()
        },
        clock.clone(),
        suod_observe::noop(),
    )
    .unwrap();

    let mut now = 0u64;
    let mut queue: std::collections::VecDeque<Queued> = Default::default();
    let mut next_row = 0usize;
    let (mut admitted, mut rejected, mut shed, mut scored) = (0u64, 0u64, 0u64, 0u64);
    let mut batches = 0u64;
    // The trace, then `Process` until the model queue is empty.
    let mut steps = steps.into_iter();
    while let Some(step) = steps
        .next()
        .or((!queue.is_empty()).then_some(Step::Process))
    {
        match step {
            Step::Submit { rows, deadline_ms } => {
                let query = request(next_row, rows);
                next_row += rows;
                match service.submit_with_deadline(query.clone(), deadline_ms) {
                    Ok(ticket) => {
                        assert!(queue.len() < CAPACITY);
                        admitted += 1;
                        queue.push_back(Queued {
                            ticket,
                            query,
                            enqueued_ms: now,
                            deadline_at_ms: deadline_ms.map(|d| now + d),
                        });
                    }
                    Err(SubmitError::Busy { capacity }) => {
                        assert_eq!((capacity, queue.len()), (CAPACITY, CAPACITY));
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            Step::Advance(ms) => {
                clock.advance(ms);
                now += ms;
            }
            Step::Process => {
                let (mut take, mut rows) = (0usize, 0usize);
                for queued in &queue {
                    if take > 0 && rows + queued.query.nrows() > MAX_BATCH_ROWS {
                        break;
                    }
                    rows += queued.query.nrows();
                    take += 1;
                }
                assert_eq!(service.process_once(), take);
                let batch: Vec<Queued> = queue.drain(..take).collect();
                for behind in &queue {
                    assert!(behind.ticket.try_take().is_none(), "served out of order");
                }
                let mut any_scored = false;
                for queued in batch {
                    let outcome = queued.ticket.try_take().expect("resolved by its batch");
                    assert!(queued.ticket.try_take().is_none(), "resolved twice");
                    let expired = matches!(queued.deadline_at_ms, Some(at) if at < now);
                    let waited = now - queued.enqueued_ms;
                    match &outcome {
                        ScoreOutcome::Shed { waited_ms, .. } => {
                            assert!(expired);
                            assert_eq!(*waited_ms, waited);
                            shed += 1;
                        }
                        ScoreOutcome::Scored(batch) => {
                            assert!(!expired);
                            assert_eq!(batch.latency_ms, waited);
                            let offline = oracle.combined_scores(&queued.query).unwrap();
                            let offline: Vec<u64> = offline.iter().map(|s| s.to_bits()).collect();
                            assert_eq!(combined_bits(&outcome), offline);
                            scored += 1;
                            any_scored = true;
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
                batches += u64::from(any_scored);
            }
        }
    }

    let report = service.report();
    assert_eq!(
        (report.admitted, report.rejected, report.shed),
        (admitted, rejected, shed)
    );
    assert_eq!((report.requests_scored, report.batches), (scored, batches));
    assert_eq!(report.requests_failed, 0);
    assert_eq!(
        report.admitted,
        report.requests_scored + report.shed + report.requests_failed
    );
    // A millisecond clock reads the same latency in either unit.
    assert_eq!(report.p50_latency_us, report.p50_latency_ms * 1000);
    assert_eq!(report.max_latency_us, report.max_latency_ms * 1000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_traces_resolve_every_ticket_once_in_fifo_prefix_batches(
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        replay_and_check(steps);
    }
}

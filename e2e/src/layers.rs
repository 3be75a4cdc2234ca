//! The traced run's per-layer metrics. Layers are the crates. Each probe
//! calls a layer's public function on the workload's own matrices inside a
//! bench-side span; where the program already exposes a public report or
//! counter, the probe reads that. Nothing is added inside the program.
//! A metric whose layer the workload does not use reads 0.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::TcpListener;
use std::time::Instant;

use suod::prelude::*;
use suod_linalg::{pairwise_distances_with, KernelStats, KnnIndex};
use suod_observe::{Stage, Trace};
use suod_projection::{JlProjector, Projector};
use suod_scheduler::{bps_schedule, AnalyticCostModel, CostModel, DatasetMeta};
use suod_serve::wire::{read_request, read_response, write_request, write_response};
use suod_serve::{
    serve_front, AdmissionLanes, FrontConfig, FrontReport, Lane, LaneConfig, ScoreOutcome,
    ScoreService, ServeReport, WireRequest, WireResponse,
};
use suod_supervised::{RandomForestRegressor, Regressor};

use crate::estimate::{chunked_percentile, median, percentile};
use crate::loadgen::{closed_conn, Conn};
use crate::run::{err, serve_config, EpochOut, Fixture, Samples};
use crate::spans::Spans;
use crate::workloads::{Workload, DATA_SEED, N_WORKERS};

pub type Metrics = BTreeMap<String, f64>;

/// Detector families across the four pools, as `ModelSpec::name` spells
/// them; `BENCHMARK.json` lists a fit and a predict metric for each.
pub const FAMILIES: [&str; 11] = [
    "knn",
    "lof",
    "abod",
    "loop",
    "cof",
    "hbos",
    "iforest",
    "cblof",
    "feature_bagging",
    "pca",
    "loda",
];

/// Serving stages whose span totals the traced run reports.
const SERVE_STAGES: [(Stage, &str); 5] = [
    (Stage::WireRequest, "WireRequest"),
    (Stage::RequestEnqueue, "RequestEnqueue"),
    (Stage::BatchAssemble, "BatchAssemble"),
    (Stage::PredictChunk, "PredictChunk"),
    (Stage::Combine, "Combine"),
];

/// What the traced run hands to the probes.
pub struct Traced<'a> {
    pub w: &'a Workload,
    /// Samples of the epoch run with the no-op observer.
    pub untraced: &'a Samples,
    /// Samples of the epochs run with a recording observer.
    pub traced: &'a Samples,
    /// The last epoch: its fixture feeds the probes.
    pub last: &'a EpochOut,
    pub serve_reports: &'a [ServeReport],
    pub front_reports: &'a [FrontReport],
    /// What the program reported to the recording observers.
    pub program: &'a [Trace],
}

/// Runs `f` inside a bench-side span and returns its result and seconds.
fn timed<T>(spans: &mut Spans, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = spans.begin(name);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    spans.end(span);
    (out, secs)
}

/// Mean nanoseconds of `f` over `reps` calls inside one span.
fn mean_ns(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    let ((), secs) = timed(spans, name, || (0..reps).for_each(|_| f()));
    secs * 1e9 / reps as f64
}

pub fn layer_metrics(t: &Traced, spans: &mut Spans) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let probes = spans.begin("layer_probes");
    let fx = &t.last.fixture;
    linalg(t, fx, spans, &mut m)?;
    projection(t, fx, spans, &mut m)?;
    scheduler(t, fx, spans, &mut m)?;
    detectors_supervised_metrics_core(t, fx, spans, &mut m)?;
    serve(t, fx, spans, &mut m)?;
    m.insert("datasets.generate_s".into(), fx.generate_s);

    // Tracing overhead: the recording epochs against the no-op epoch of
    // this same run. End-to-end numbers always come from the untraced run.
    let (fit_plain, fit_traced) = (median(&t.untraced.fit_s), median(&t.traced.fit_s));
    m.insert(
        "observe.fit_overhead_pct".into(),
        100.0 * (fit_traced / fit_plain - 1.0),
    );
    let (srv_plain, srv_traced) = (
        median(&t.untraced.serve_rows_per_s),
        median(&t.traced.serve_rows_per_s),
    );
    m.insert(
        "observe.serve_overhead_pct".into(),
        100.0 * (1.0 - srv_traced / srv_plain),
    );
    spans.end(probes);
    Ok(m)
}

fn linalg(t: &Traced, fx: &Fixture, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    if let Some(exec) = t.last.fit_diagnostics.as_ref().map(|d| d.execution()) {
        m.insert("linalg.cache_hits".into(), exec.cache_hits as f64);
        m.insert("linalg.cache_misses".into(), exec.cache_misses as f64);
        m.insert(
            "linalg.cache_build_s".into(),
            exec.cache_build_time.as_secs_f64(),
        );
    }
    let Some(k_max) =
        t.w.specs()
            .iter()
            .filter_map(|s| s.neighbor_requirement())
            .map(|(_, k)| k)
            .max()
    else {
        return Ok(()); // no neighbour model: the layer does no work here
    };
    let kernel = t.w.kernel();
    let metric = Metric::Euclidean;
    let (n, d) = fx.train.shape();

    let block = fx
        .held
        .select_rows(&(0..1024.min(fx.held.nrows())).collect::<Vec<_>>());
    let stats = KernelStats::new();
    let (dist, secs) = timed(spans, "linalg.pairwise", || {
        pairwise_distances_with(&block, &fx.train, metric, kernel, N_WORKERS, Some(&stats))
    });
    dist.map_err(err("pairwise"))?;
    m.insert("linalg.pairwise_s".into(), secs);
    // Computed, not measured: 2 q n d floating-point operations.
    m.insert(
        "linalg.pairwise_gflops".into(),
        2.0 * (block.nrows() * n * d) as f64 / secs / 1e9,
    );

    let (index, secs) = timed(spans, "linalg.index_build", || {
        KnnIndex::build_with_threads(&fx.train, metric, kernel, N_WORKERS)
    });
    let index = index.map_err(err("index build"))?;
    m.insert("linalg.index_build_s".into(), secs);
    let (_, secs) = timed(spans, "linalg.self_query", || {
        index.self_query_batch(k_max, N_WORKERS)
    });
    m.insert("linalg.self_query_s".into(), secs);
    let (hits, secs) = timed(spans, "linalg.query_batch_parallel", || {
        index.query_batch_parallel(&fx.held, k_max, N_WORKERS)
    });
    hits.map_err(err("query"))?;
    m.insert(
        "linalg.query_rows_per_s".into(),
        fx.held.nrows() as f64 / secs,
    );
    let request = fx.requests.query(0);
    let ns = mean_ns(spans, "linalg.query_small", 50, || {
        std::hint::black_box(index.query_batch(request, k_max)).ok();
    });
    m.insert("linalg.query_small_us".into(), ns / 1e3);

    // Counters of exactly the fixed work above: they repeat run to run.
    let c = index.kernel_counters();
    let p = stats.snapshot();
    m.insert(
        "linalg.simd_kernel_calls".into(),
        (c.simd_invocations + p.simd_invocations) as f64,
    );
    m.insert(
        "linalg.scalar_kernel_calls".into(),
        (c.scalar_invocations + p.scalar_invocations) as f64,
    );
    m.insert(
        "linalg.gemm_tiles".into(),
        (c.gemm_tiles + p.gemm_tiles) as f64,
    );
    m.insert(
        "linalg.kernel_fallbacks".into(),
        (c.fallback_hits + p.fallback_hits) as f64,
    );
    m.insert("linalg.ann_queries".into(), c.ann_queries as f64);
    m.insert("linalg.ann_fallbacks".into(), c.ann_fallback_hits as f64);

    // Recall of the workload's neighbour backend against exact neighbours.
    let probe = fx
        .held
        .select_rows(&(0..500.min(fx.held.nrows())).collect::<Vec<_>>());
    let exact = KnnIndex::build_with(&fx.train, metric, KernelConfig::default())
        .map_err(err("exact index"))?;
    let (recall, _) = timed(spans, "linalg.ann_recall", || -> Result<f64, String> {
        let got = index.query_batch(&probe, 10).map_err(err("ann query"))?;
        let want = exact.query_batch(&probe, 10).map_err(err("exact query"))?;
        let found: usize = got
            .iter()
            .zip(&want)
            .map(|(g, w)| {
                w.iter()
                    .filter(|x| g.iter().any(|y| y.index == x.index))
                    .count()
            })
            .sum();
        Ok(found as f64 / want.iter().map(Vec::len).sum::<usize>() as f64)
    });
    m.insert("linalg.ann_recall_at_10".into(), recall?);
    Ok(())
}

fn projection(t: &Traced, fx: &Fixture, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let projected = t
        .last
        .fit_diagnostics
        .as_ref()
        .map_or(0, |d| d.projected().iter().filter(|&&p| p).count());
    m.insert("projection.models_projected".into(), projected as f64);
    if projected == 0 {
        return Ok(());
    }
    // The shape `Suod::fit` projects to: two thirds of the features.
    let k = (fx.train.ncols() as f64 * 2.0 / 3.0).ceil() as usize;
    let mut jl = JlProjector::new(JlVariant::Circulant, k, DATA_SEED).map_err(err("projector"))?;
    let projector: &mut dyn Projector = &mut jl;
    let (out, secs) = timed(spans, "projection.fit_transform", || {
        projector
            .fit(&fx.train)
            .and_then(|()| projector.transform(&fx.train))
    });
    out.map_err(err("fit_transform"))?;
    m.insert("projection.fit_transform_s".into(), secs);
    let (out, secs) = timed(spans, "projection.transform", || {
        projector.transform(&fx.held)
    });
    out.map_err(err("transform"))?;
    m.insert(
        "projection.transform_rows_per_s".into(),
        fx.held.nrows() as f64 / secs,
    );
    Ok(())
}

fn scheduler(t: &Traced, fx: &Fixture, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    let Some(exec) = t.last.fit_diagnostics.as_ref().map(|d| d.execution()) else {
        return Ok(());
    };
    let tasks: Vec<_> = t.w.specs().iter().map(ModelSpec::task_descriptor).collect();
    let forecast = AnalyticCostModel::new().predict_costs(&tasks, &DatasetMeta::extract(&fx.train));
    let ns = mean_ns(spans, "scheduler.bps_schedule", 200, || {
        std::hint::black_box(bps_schedule(&forecast, N_WORKERS, 1.0)).ok();
    });
    m.insert("scheduler.bps_plan_us".into(), ns / 1e3);
    let measured = exec.task_seconds();
    if measured.len() == forecast.len() {
        let plan = bps_schedule(&forecast, N_WORKERS, 1.0).map_err(err("bps"))?;
        m.insert(
            "scheduler.imbalance".into(),
            plan.imbalance(&measured).map_err(err("imbalance"))?,
        );
        // Undefined (an error) when one side is constant; reported as 0.
        m.insert(
            "scheduler.forecast_rank_corr".into(),
            suod_metrics::spearman(&forecast, &measured).unwrap_or(0.0),
        );
    }
    m.insert("scheduler.utilization".into(), exec.utilization());
    m.insert("scheduler.steals".into(), exec.steals as f64);
    m.insert(
        "scheduler.worker_busy_s".into(),
        exec.worker_busy.iter().map(|d| d.as_secs_f64()).sum(),
    );
    m.insert("scheduler.stragglers".into(), exec.stragglers.len() as f64);
    Ok(())
}

fn detectors_supervised_metrics_core(
    t: &Traced,
    fx: &Fixture,
    spans: &mut Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    if let Some(diag) = &t.last.fit_diagnostics {
        for row in diag.models() {
            *m.entry(format!("detectors.fit_s.{}", row.name))
                .or_default() += row.fit_time.map_or(0.0, |d| d.as_secs_f64());
        }
        m.insert(
            "supervised.approx_models".into(),
            diag.approximated().iter().filter(|&&a| a).count() as f64,
        );
    }
    let noop = suod_observe::noop();
    let (scored, _) = timed(spans, "core.decision_function_observed", || {
        fx.pool.decision_function_observed(&fx.held, &noop)
    });
    let (scores, report) = scored.map_err(err("decision_function"))?;
    let names = fx
        .pool
        .surviving_models()
        .map_err(err("surviving_models"))?;
    for ((_, name), time) in names.iter().zip(&report.model_times) {
        *m.entry(format!("detectors.predict_s.{name}")).or_default() += time.as_secs_f64();
    }
    m.insert(
        "core.decision_function_s".into(),
        report.wall_time.as_secs_f64(),
    );
    m.insert(
        "core.model_time_sum_s".into(),
        report.model_times.iter().map(|d| d.as_secs_f64()).sum(),
    );

    let ns = mean_ns(spans, "metrics.combine_score_matrix", 20, || {
        std::hint::black_box(fx.pool.combine_score_matrix(&scores)).ok();
    });
    m.insert("metrics.combine_us".into(), ns / 1e3);

    // PSA: distillation time as the program's own spans saw it, and a
    // forest of the workload's PSA shape through the `Regressor` trait.
    let distill: f64 = t
        .program
        .iter()
        .map(|trace| trace.total_time_of(Stage::PsaDistill).as_secs_f64())
        .sum();
    let fits = t.traced.ops.get("fit").map_or(1, |o| o.attempted.max(1)) + t.program.len() as u64;
    m.insert("supervised.psa_distill_s".into(), distill / fits as f64);
    if m.get("supervised.approx_models").is_some_and(|&a| a > 0.0) {
        let targets = fx
            .pool
            .training_combined_scores()
            .map_err(err("training scores"))?;
        let mut forest = RandomForestRegressor::new(10, DATA_SEED).with_max_depth(8);
        let regressor: &mut dyn Regressor = &mut forest;
        regressor
            .fit(&fx.train, &targets)
            .map_err(err("forest fit"))?;
        let (out, secs) = timed(spans, "supervised.forest_predict", || {
            regressor.predict(&fx.held)
        });
        out.map_err(err("forest predict"))?;
        m.insert(
            "supervised.forest_predict_rows_per_s".into(),
            fx.held.nrows() as f64 / secs,
        );
    }

    let (bytes, secs) = timed(spans, "core.save_to_bytes", || fx.pool.save_to_bytes());
    let bytes = bytes.map_err(err("save"))?;
    m.insert("core.snapshot_save_s".into(), secs);
    m.insert("core.snapshot_bytes".into(), bytes.len() as f64);
    let (loaded, secs) = timed(spans, "core.load_from_bytes", || {
        Suod::load_from_bytes(&bytes)
    });
    loaded.map_err(err("load"))?;
    m.insert("core.snapshot_load_s".into(), secs);
    // CPU seconds beside the wall-clock metrics: wall up with CPU flat is
    // the host, not the code.
    m.insert("core.fit_cpu_s".into(), median(&t.traced.fit_cpu_s));
    m.insert(
        "core.score_cpu_us_per_row".into(),
        median(&t.traced.score_cpu_us_per_row),
    );
    Ok(())
}

fn serve(t: &Traced, fx: &Fixture, spans: &mut Spans, m: &mut Metrics) -> Result<(), String> {
    // Codec on in-memory buffers, with the workload's first request shape.
    let request = WireRequest {
        id: 7,
        lane: Lane::Normal,
        deadline_ms: None,
        rows: fx.requests.query(0).clone(),
    };
    let response = WireResponse::Ok {
        id: 7,
        scores: fx
            .requests
            .expected(0)
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect(),
        healthy_models: 1,
        total_models: 1,
        latency_ms: 1,
    };
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    let reps = 2000;
    let ns = mean_ns(spans, "serve.wire.write_request", reps, || {
        req_bytes.clear();
        write_request(&mut req_bytes, &request).expect("write to memory");
    });
    m.insert("serve.wire_encode_request_ns".into(), ns);
    let ns = mean_ns(spans, "serve.wire.read_request", reps, || {
        std::hint::black_box(read_request(&mut Cursor::new(&req_bytes))).ok();
    });
    m.insert("serve.wire_decode_request_ns".into(), ns);
    let ns = mean_ns(spans, "serve.wire.write_response", reps, || {
        resp_bytes.clear();
        write_response(&mut resp_bytes, &response).expect("write to memory");
    });
    m.insert("serve.wire_encode_response_ns".into(), ns);
    let ns = mean_ns(spans, "serve.wire.read_response", reps, || {
        std::hint::black_box(read_response(&mut Cursor::new(&resp_bytes))).ok();
    });
    m.insert("serve.wire_decode_response_ns".into(), ns);

    let lanes = AdmissionLanes::new(LaneConfig::default()).map_err(err("lanes"))?;
    let ns = mean_ns(spans, "serve.lanes.admit", 20_000, || {
        std::hint::black_box(lanes.admit("127.0.0.1", Lane::Normal, 0, 256)).ok();
    });
    m.insert("serve.lanes_admit_ns".into(), ns);

    // One request outstanding: in process, then through a socket. The
    // difference is what `net` + `wire` + loopback add to a request.
    let served = Suod::load_from_bytes(&fx.snapshot).map_err(err("load"))?;
    let mut service = ScoreService::new(served, serve_config()).map_err(err("service"))?;
    service.spawn_dispatcher();
    let one_at_a_time = 200;
    let span = spans.begin("serve.inproc");
    let mut inproc_us = Vec::with_capacity(one_at_a_time);
    for i in 0..one_at_a_time {
        let query = fx.requests.query(i % fx.requests.len()).clone();
        let start = Instant::now();
        let outcome = service.submit(query).map_err(err("submit"))?.wait();
        inproc_us.push(start.elapsed().as_secs_f64() * 1e6);
        if !matches!(outcome, ScoreOutcome::Scored(_)) {
            return Err("in-process request was not scored".into());
        }
    }
    spans.end(span);
    let inproc_p50 = median(&inproc_us);
    m.insert("serve.inproc_p50_us".into(), inproc_p50);

    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
    let addr = listener.local_addr().map_err(err("addr"))?.to_string();
    let front_config = FrontConfig {
        worker_threads: N_WORKERS,
        max_conns: 1,
        ..FrontConfig::default()
    };
    let noop = suod_observe::noop();
    let span = spans.begin("serve.socket_one_in_flight");
    let socket = std::thread::scope(|s| {
        let server = s.spawn(|| serve_front(&listener, &service, &front_config, &noop));
        let result = Conn::connect(&addr)
            .map(|mut conn| closed_conn(&mut conn, &fx.requests, 0, one_at_a_time, 1));
        if result.is_err() {
            // Let the front end reach its connection count and return.
            let _ = std::net::TcpStream::connect(&addr);
        }
        server
            .join()
            .expect("front end thread")
            .map_err(err("front end"))?;
        result.map_err(err("connect"))
    })?;
    spans.end(span);
    service.shutdown();
    if socket.tally.failed > 0 {
        return Err(format!(
            "{} socket probe requests failed",
            socket.tally.failed
        ));
    }
    m.insert(
        "serve.front_overhead_us".into(),
        median(&socket.lat_us) - inproc_p50,
    );

    // Service and front-end ledgers, summed over the epochs.
    let sum = |f: fn(&ServeReport) -> u64| t.serve_reports.iter().map(f).sum::<u64>() as f64;
    let batches = sum(|r| r.batches);
    m.insert("serve.batches".into(), batches);
    m.insert(
        "serve.batch_rows_mean".into(),
        sum(|r| r.rows_scored) / batches,
    );
    m.insert("serve.admitted".into(), sum(|r| r.admitted));
    m.insert("serve.rejected".into(), sum(|r| r.rejected));
    m.insert("serve.shed".into(), sum(|r| r.shed));
    m.insert("serve.requests_failed".into(), sum(|r| r.requests_failed));
    let sum = |f: fn(&FrontReport) -> u64| t.front_reports.iter().map(f).sum::<u64>() as f64;
    m.insert("serve.busy_queue".into(), sum(|r| r.busy_queue));
    m.insert("serve.busy_quota".into(), sum(|r| r.busy_quota));
    m.insert("serve.busy_lane".into(), sum(|r| r.busy_lane));
    m.insert("serve.responses_error".into(), sum(|r| r.responses_error));

    let all_lo: Vec<f64> = t.traced.lo_chunks.concat();
    let all_hi: Vec<f64> = t.traced.hi_chunks.concat();
    let lo_p50 = chunked_percentile(&t.traced.lo_chunks, 0.5, 10).unwrap_or(f64::NAN);
    m.insert(
        "serve.batch_window_share".into(),
        serve_config().batch_window.as_secs_f64() * 1e6 / lo_p50,
    );
    m.insert(
        "serve.cpu_us_per_req".into(),
        median(&t.traced.serve_cpu_us_per_req),
    );
    m.insert(
        "serve.lat_lo_p90_us".into(),
        percentile(&all_lo, 0.90, 10).unwrap_or(0.0),
    );
    m.insert(
        "serve.lat_hi_p99_us".into(),
        percentile(&all_hi, 0.99, 10).unwrap_or(0.0),
    );
    m.insert(
        "serve.gen_late_p90_us".into(),
        percentile(&t.traced.late_us, 0.90, 10).unwrap_or(0.0),
    );

    // Where the served requests' time went, by the program's own spans.
    // A request's `WireRequest` span covers its stay in the server, so what
    // the clients saw beyond it (codec, sockets, loopback, generator wait)
    // is unattributed; the other stages are totals inside that stay.
    let stage_s = |stage: Stage| -> f64 {
        t.program
            .iter()
            .map(|p| p.total_time_of(stage).as_secs_f64())
            .sum()
    };
    for (stage, name) in SERVE_STAGES {
        m.insert(format!("serve.stage.{name}_s"), stage_s(stage));
    }
    let client_s = t.traced.client_latency_total_s;
    m.insert(
        "serve.unattributed_share".into(),
        (client_s - stage_s(Stage::WireRequest)) / client_s,
    );
    Ok(())
}

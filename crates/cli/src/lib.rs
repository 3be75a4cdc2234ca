#![warn(missing_docs)]

//! Command-line interface for the SUOD reproduction.
//!
//! The binary (`suod-cli`) wraps the `suod` library around the fitted-pool
//! lifecycle: **fit** a heterogeneous ensemble once and persist it as a
//! `suod-pool` snapshot, **score** datasets with it (locally or against
//! a server), and **serve** it online with hot reload. Argument parsing
//! is hand-rolled (no CLI dependency) and lives in [`flags`] so it is
//! unit-testable; `main.rs` is a thin shell.
//!
//! ```text
//! suod-cli fit --dataset cardio --snapshot pool.suod [--models 20] [--workers 2]
//! suod-cli detect --dataset cardio [--scale 0.25] [--models 20]
//!                 [--no-rp] [--no-psa] [--no-bps] [--workers 2]
//!                 [--contamination 0.1] [--seed 42] [--output scores.csv]
//! suod-cli detect --csv data.csv [--label-column 3] ...
//! suod-cli trace --dataset cardio [--format json|chrome] [--output trace.json] ...
//! suod-cli serve --dataset cardio [--chaos panic] [--listen 127.0.0.1:7878] ...
//! suod-cli serve --snapshot pool.suod --listen 127.0.0.1:7878
//! suod-cli score --connect 127.0.0.1:7878 --csv data.csv
//! suod-cli score --snapshot pool.suod --csv data.csv
//! suod-cli list-datasets
//! suod-cli help
//! ```

pub mod flags;

pub use flags::{
    parse_args, usage, Command, DetectArgs, FitArgs, ScoreArgs, ServeArgs, TraceArgs, TraceFormat,
};

use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::Arc;
use suod::prelude::*;
use suod_datasets::csv::{load_csv, CsvOptions};
use suod_datasets::{registry, Dataset};
use suod_metrics::{precision_at_n, roc_auc};
use suod_serve::{
    serve_front, FrontConfig, Lane, LaneConfig, ScoreOutcome, ScoreService, ServeConfig,
    SubmitError, WireClient, WireResponse,
};

/// Runs a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a human-readable message on any pipeline failure.
pub fn run(command: Command) -> Result<String, String> {
    match command {
        Command::Help => Ok(usage()),
        Command::ListDatasets => {
            let mut out = String::new();
            writeln!(
                out,
                "{:<12} {:>8} {:>5} {:>9} {:>10}",
                "name", "n", "d", "outliers", "% outlier"
            )
            .expect("string write");
            for info in registry::TABLE_A1 {
                writeln!(
                    out,
                    "{:<12} {:>8} {:>5} {:>9} {:>10.2}",
                    info.name,
                    info.n_samples,
                    info.n_features,
                    info.n_outliers,
                    100.0 * info.contamination()
                )
                .expect("string write");
            }
            Ok(out)
        }
        Command::Fit(args) => fit(&args),
        Command::Detect(args) => detect(&args),
        Command::Trace(args) => trace(&args),
        Command::Serve(args) => serve(&args),
        Command::Score(args) => score(&args),
    }
}

fn load_dataset(args: &DetectArgs) -> Result<(Dataset, bool), String> {
    if let Some(name) = &args.dataset {
        let ds = registry::load_scaled(name, args.seed, args.scale)
            .map_err(|e| format!("cannot load dataset `{name}`: {e}"))?;
        Ok((ds, true))
    } else {
        let path = args.csv.as_ref().expect("validated in parse_args");
        let ds = load_csv(
            path,
            CsvOptions {
                has_header: None,
                label_column: args.label_column,
            },
        )
        .map_err(|e| format!("cannot load CSV: {e}"))?;
        let labeled = args.label_column.is_some();
        Ok((ds, labeled))
    }
}

fn clamp_pool(pool: Vec<ModelSpec>, n: usize) -> Vec<ModelSpec> {
    let cap = (n / 3).max(2);
    pool.into_iter()
        .map(|spec| match spec {
            ModelSpec::Abod { n_neighbors } => ModelSpec::Abod {
                n_neighbors: n_neighbors.clamp(2, cap),
            },
            ModelSpec::Knn {
                n_neighbors,
                method,
            } => ModelSpec::Knn {
                n_neighbors: n_neighbors.min(cap),
                method,
            },
            ModelSpec::Lof {
                n_neighbors,
                metric,
            } => ModelSpec::Lof {
                n_neighbors: n_neighbors.clamp(2, cap),
                metric,
            },
            ModelSpec::Cblof { n_clusters } => ModelSpec::Cblof {
                n_clusters: n_clusters.min(n / 4).max(1),
            },
            other => other,
        })
        .collect()
}

/// Builds (but does not fit) the estimator every pipeline subcommand
/// shares, translating the flag set into the builder's current API.
fn build_estimator(
    args: &DetectArgs,
    n_samples: usize,
    observer: Option<Arc<RecordingObserver>>,
) -> Result<Suod, String> {
    let pool = clamp_pool(suod::random_pool(args.models, args.seed), n_samples);
    let mut builder = Suod::builder()
        .base_estimators(pool)
        .with_projection(args.rp)
        .with_approximation(args.psa)
        .with_bps(args.bps)
        .n_workers(args.workers.max(1))
        .contamination(args.contamination)
        .seed(args.seed)
        .kernel(args.kernel_config());
    if let Some(recorder) = observer {
        builder = builder.observer(recorder);
    }
    builder
        .build()
        .map_err(|e| format!("invalid configuration: {e}"))
}

fn fit(args: &FitArgs) -> Result<String, String> {
    let (ds, _) = load_dataset(&args.detect)?;
    let mut clf = build_estimator(&args.detect, ds.n_samples(), None)?;

    let fit_start = std::time::Instant::now();
    clf.fit(&ds.x).map_err(|e| format!("fit failed: {e}"))?;
    let fit_secs = fit_start.elapsed().as_secs_f64();
    clf.save(&args.snapshot)
        .map_err(|e| format!("cannot write snapshot: {e}"))?;
    let bytes = std::fs::metadata(&args.snapshot)
        .map(|m| m.len())
        .unwrap_or(0);

    let mut out = String::new();
    writeln!(
        out,
        "dataset: {} ({} samples x {} features)",
        ds.name,
        ds.n_samples(),
        ds.n_features()
    )
    .expect("string write");
    writeln!(
        out,
        "pool: {} models | rp={} psa={} bps={} workers={}",
        args.detect.models, args.detect.rp, args.detect.psa, args.detect.bps, args.detect.workers
    )
    .expect("string write");
    writeln!(out, "fit time: {fit_secs:.3}s").expect("string write");
    writeln!(
        out,
        "snapshot written to {} ({bytes} bytes, {})",
        args.snapshot,
        suod::SNAPSHOT_FORMAT
    )
    .expect("string write");
    Ok(out)
}

fn detect(args: &DetectArgs) -> Result<String, String> {
    let (ds, labeled) = load_dataset(args)?;
    let mut clf = build_estimator(args, ds.n_samples(), None)?;

    let fit_start = std::time::Instant::now();
    clf.fit(&ds.x).map_err(|e| format!("fit failed: {e}"))?;
    let fit_secs = fit_start.elapsed().as_secs_f64();

    let scores = clf
        .combined_scores(&ds.x)
        .map_err(|e| format!("scoring failed: {e}"))?;
    let labels = clf
        .predict(&ds.x)
        .map_err(|e| format!("predict failed: {e}"))?;

    let mut out = String::new();
    writeln!(
        out,
        "dataset: {} ({} samples x {} features)",
        ds.name,
        ds.n_samples(),
        ds.n_features()
    )
    .expect("string write");
    writeln!(
        out,
        "pool: {} models | rp={} psa={} bps={} workers={}",
        args.models, args.rp, args.psa, args.bps, args.workers
    )
    .expect("string write");
    writeln!(
        out,
        "kernels: backend={} {}",
        args.backend.name(),
        clf.diagnostics()
            .map(|d| d.cpu_features().to_string())
            .unwrap_or_else(|| "unavailable".into()),
    )
    .expect("string write");
    writeln!(out, "snapshot format: {}", suod::SNAPSHOT_FORMAT).expect("string write");
    writeln!(out, "fit time: {fit_secs:.3}s").expect("string write");
    writeln!(
        out,
        "flagged: {}/{} samples",
        labels.iter().sum::<i32>(),
        labels.len()
    )
    .expect("string write");
    if labeled && ds.n_outliers() > 0 && ds.n_outliers() < ds.n_samples() {
        let auc = roc_auc(&ds.y, &scores).map_err(|e| e.to_string())?;
        let pan = precision_at_n(&ds.y, &scores, None).map_err(|e| e.to_string())?;
        writeln!(out, "ROC-AUC: {auc:.4}").expect("string write");
        writeln!(out, "P@N:     {pan:.4}").expect("string write");
    }

    if let Some(path) = &args.output {
        let mut csv = String::from("index,score,label\n");
        for (i, (s, l)) in scores.iter().zip(&labels).enumerate() {
            writeln!(csv, "{i},{s:.6},{l}").expect("string write");
        }
        std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "scores written to {path}").expect("string write");
    }
    Ok(out)
}

fn trace(args: &TraceArgs) -> Result<String, String> {
    let (ds, _) = load_dataset(&args.detect)?;
    let recorder = Arc::new(RecordingObserver::new());
    let mut clf = build_estimator(&args.detect, ds.n_samples(), Some(recorder.clone()))?;
    clf.fit(&ds.x).map_err(|e| format!("fit failed: {e}"))?;
    clf.decision_function(&ds.x)
        .map_err(|e| format!("scoring failed: {e}"))?;

    let trace = recorder.trace();
    let body = match args.format {
        TraceFormat::Json => {
            let json = suod::observe::export::to_json(&trace);
            // Validate the export against the schema before it leaves the
            // process: a trace we cannot re-parse is a bug, not output.
            suod::observe::export::from_json(&json)
                .map_err(|e| format!("exported trace failed schema validation: {e}"))?;
            json
        }
        TraceFormat::Chrome => suod::observe::export::to_chrome_trace(&trace),
    };

    let mut out = String::new();
    writeln!(
        out,
        "trace: {} spans, {} stages with latency histograms, {:.3}s wall",
        trace.spans().len(),
        trace.histograms().len(),
        trace.wall_us() as f64 / 1e6
    )
    .expect("string write");
    for (counter, value) in trace.counters() {
        if value > 0 {
            writeln!(out, "  {} = {value}", counter.name()).expect("string write");
        }
    }
    match &args.detect.output {
        Some(path) => {
            std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "trace written to {path}").expect("string write");
        }
        None => out.push_str(&body),
    }
    Ok(out)
}

fn serve(args: &ServeArgs) -> Result<String, String> {
    // The pool comes from a snapshot (pre-fitted elsewhere) or a fresh
    // fit on the data source; the replay demo additionally needs the
    // data source for its query rows.
    let ds = if args.detect.dataset.is_some() || args.detect.csv.is_some() {
        Some(load_dataset(&args.detect)?.0)
    } else {
        None
    };
    let clf = match &args.snapshot {
        Some(path) => Suod::load(path).map_err(|e| format!("cannot load snapshot {path}: {e}"))?,
        None => {
            let ds = ds.as_ref().expect("validated in parse_args");
            let mut pool = clamp_pool(
                suod::random_pool(args.detect.models, args.detect.seed),
                ds.n_samples(),
            );
            if let Some(mode) = args.chaos {
                pool.push(ModelSpec::Chaos {
                    mode,
                    n_neighbors: 5,
                });
            }
            let mut clf = Suod::builder()
                .base_estimators(pool)
                .with_projection(args.detect.rp)
                .with_approximation(args.detect.psa)
                .with_bps(args.detect.bps)
                .n_workers(args.detect.workers.max(1))
                .min_healthy_fraction(args.min_healthy)
                .seed(args.detect.seed)
                .build()
                .map_err(|e| format!("invalid configuration: {e}"))?;
            clf.fit(&ds.x).map_err(|e| format!("fit failed: {e}"))?;
            clf
        }
    };

    let config = ServeConfig {
        queue_capacity: args.queue,
        max_batch_rows: args.batch_rows,
        batch_window: std::time::Duration::from_millis(args.window_ms),
        default_deadline_ms: args.deadline_ms,
        predict_failure_budget: args.failure_budget,
        min_healthy_fraction: args.min_healthy,
        ..ServeConfig::default()
    };
    let mut service =
        ScoreService::new(clf, config).map_err(|e| format!("invalid serve config: {e}"))?;
    service.spawn_dispatcher();

    if let Some(addr) = &args.listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        println!(
            "serving {} on {bound} ({} = stop)",
            suod_serve::WIRE_FORMAT,
            match args.max_conns {
                0 => "ctrl-c".to_string(),
                n => format!("{n} connections"),
            }
        );
        let front = FrontConfig {
            worker_threads: args.front_workers,
            idle_timeout: std::time::Duration::from_millis(args.idle_timeout_ms),
            max_pipeline: args.max_pipeline,
            lanes: LaneConfig {
                per_client_inflight: args.client_quota,
                normal_lane_headroom: args.lane_headroom,
            },
            max_conns: args.max_conns,
            ..FrontConfig::default()
        };
        let report = serve_front(&listener, &service, &front, &suod::observe::noop())
            .map_err(|e| e.to_string())?;
        let mut out = report.to_string();
        out.push('\n');
        write!(out, "{}", service.report()).expect("string write");
        return Ok(out);
    }

    // Replay demo: concurrent clients score slices of the dataset's own
    // rows through the full admission/batching/quarantine path.
    let ds = ds.ok_or("replay demo needs --dataset or --csv (or use --listen)")?;
    let service = Arc::new(service);
    let n_rows = ds.x.nrows();
    let mut clients = Vec::new();
    for r in 0..args.requests {
        let service = Arc::clone(&service);
        let rows: Vec<Vec<f64>> = (0..args.rows_per_request)
            .map(|i| ds.x.row((r * args.rows_per_request + i) % n_rows).to_vec())
            .collect();
        clients.push(std::thread::spawn(move || {
            let query = suod_linalg::Matrix::from_rows(&rows).expect("rectangular request");
            let ticket = loop {
                match service.submit(query.clone()) {
                    Ok(t) => break t,
                    Err(SubmitError::Busy { .. }) => {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    }
                    Err(e) => return (r, Err(format!("submit failed: {e}"))),
                }
            };
            (r, Ok(ticket.wait()))
        }));
    }

    let mut out = String::new();
    let mut outcomes: Vec<(usize, Result<ScoreOutcome, String>)> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    outcomes.sort_by_key(|(r, _)| *r);
    for (r, outcome) in outcomes {
        match outcome {
            Ok(ScoreOutcome::Scored(batch)) if batch.faults.is_empty() => {
                writeln!(
                    out,
                    "request {r:2}: scored clean ({} rows, {}ms)",
                    batch.combined.len(),
                    batch.latency_ms
                )
                .expect("string write");
            }
            Ok(ScoreOutcome::Scored(batch)) => {
                let faults: Vec<String> = batch
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
                    .collect();
                writeln!(
                    out,
                    "request {r:2}: scored degraded ({}/{} models healthy): {}",
                    batch.healthy_models,
                    batch.total_models,
                    faults.join(", ")
                )
                .expect("string write");
            }
            Ok(other) => writeln!(out, "request {r:2}: {other:?}").expect("string write"),
            Err(msg) => writeln!(out, "request {r:2}: {msg}").expect("string write"),
        }
    }
    writeln!(out, "{}", service.report()).expect("string write");
    Ok(out)
}

/// Scores `rows` against a `serve --listen` server over `suod-wire/1`
/// and returns the combined scores. Thin wrapper over the
/// [`WireClient`] in `suod_serve::net` — the protocol itself lives there.
///
/// # Errors
///
/// Returns a message on connection failure, a `busy` / `shed` / `error`
/// response, or a malformed reply.
pub fn score_rows(addr: &str, rows: &[Vec<f64>]) -> Result<Vec<f64>, String> {
    let query =
        suod_linalg::Matrix::from_rows(rows).map_err(|e| format!("rows are not a matrix: {e}"))?;
    let mut client =
        WireClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match client
        .score(&query, Lane::Normal, None)
        .map_err(|e| e.to_string())?
    {
        WireResponse::Ok { scores, .. } => Ok(scores),
        WireResponse::Busy { reason, .. } => {
            Err(format!("server refused request: busy ({})", reason.name()))
        }
        WireResponse::Shed {
            waited_ms,
            deadline_ms,
            ..
        } => Err(format!(
            "server refused request: shed waited_ms={waited_ms} deadline_ms={deadline_ms}"
        )),
        WireResponse::Error { message, .. } => Err(format!("server refused request: {message}")),
    }
}

fn score(args: &ScoreArgs) -> Result<String, String> {
    if let Some(snapshot) = &args.snapshot {
        return score_offline(args, snapshot);
    }
    let connect = args.connect.as_ref().expect("validated in parse_args");
    let csv = args.csv.as_ref().expect("validated in parse_args");
    let ds = load_csv(
        csv,
        CsvOptions {
            has_header: None,
            label_column: args.label_column,
        },
    )
    .map_err(|e| format!("cannot load CSV: {e}"))?;
    let rows: Vec<Vec<f64>> = (0..ds.x.nrows()).map(|r| ds.x.row(r).to_vec()).collect();
    let scores = score_rows(connect, &rows)?;

    let mut csv_out = String::from("index,score\n");
    for (i, s) in scores.iter().enumerate() {
        writeln!(csv_out, "{i},{s:.6}").expect("string write");
    }
    let mut out = format!("scored {} rows via {connect}\n", scores.len());
    match &args.output {
        Some(path) => {
            std::fs::write(path, csv_out).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "scores written to {path}").expect("string write");
        }
        None => out.push_str(&csv_out),
    }
    Ok(out)
}

/// `score --snapshot`: load a fitted pool and score rows in-process —
/// the fit/score lifecycle split without a server in between.
fn score_offline(args: &ScoreArgs, snapshot: &str) -> Result<String, String> {
    let clf = Suod::load(snapshot).map_err(|e| format!("cannot load snapshot {snapshot}: {e}"))?;
    let source = DetectArgs {
        dataset: args.dataset.clone(),
        csv: args.csv.clone(),
        label_column: args.label_column,
        scale: args.scale,
        seed: args.seed,
        ..DetectArgs::default()
    };
    let (ds, labeled) = load_dataset(&source)?;
    let scores = clf
        .combined_scores(&ds.x)
        .map_err(|e| format!("scoring failed: {e}"))?;

    let mut out = format!(
        "scored {} rows with snapshot {snapshot} ({} models)\n",
        scores.len(),
        clf.diagnostics()
            .map(|d| d.models().len())
            .unwrap_or_default(),
    );
    if labeled && ds.n_outliers() > 0 && ds.n_outliers() < ds.n_samples() {
        let auc = roc_auc(&ds.y, &scores).map_err(|e| e.to_string())?;
        writeln!(out, "ROC-AUC: {auc:.4}").expect("string write");
    }
    let mut csv_out = String::from("index,score\n");
    for (i, s) in scores.iter().enumerate() {
        writeln!(csv_out, "{i},{s:.6}").expect("string write");
    }
    match &args.output {
        Some(path) => {
            std::fs::write(path, csv_out).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(out, "scores written to {path}").expect("string write");
        }
        None => out.push_str(&csv_out),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_help_and_list() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&argv("list-datasets")).unwrap(),
            Command::ListDatasets
        );
    }

    #[test]
    fn parses_detect_flags() {
        let cmd = parse_args(&argv(
            "detect --dataset cardio --scale 0.1 --models 8 --no-rp --workers 3 --seed 7",
        ))
        .unwrap();
        let Command::Detect(d) = cmd else {
            panic!("expected detect")
        };
        assert_eq!(d.dataset.as_deref(), Some("cardio"));
        assert_eq!(d.scale, 0.1);
        assert_eq!(d.models, 8);
        assert!(!d.rp);
        assert!(d.psa && d.bps);
        assert_eq!(d.workers, 3);
        assert_eq!(d.seed, 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("detect")).is_err()); // no source
        assert!(parse_args(&argv("detect --dataset a --csv b.csv")).is_err());
        assert!(parse_args(&argv("detect --dataset a --bogus")).is_err());
        assert!(parse_args(&argv("detect --dataset a --models x")).is_err());
        assert!(parse_args(&argv("detect --dataset a --models")).is_err());
        assert!(parse_args(&argv("detect --dataset a --backend simd")).is_err());
        assert!(parse_args(&argv("detect --dataset a --neighbor-backend kdtree")).is_err());
        assert!(parse_args(&argv("detect --dataset a --ef-search fast")).is_err());
        // --snapshot belongs to fit/serve/score, not detect.
        assert!(parse_args(&argv("detect --dataset a --snapshot p.suod")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_fit_flags() {
        let cmd = parse_args(&argv(
            "fit --dataset cardio --snapshot pool.suod --models 6 --workers 2 --seed 9",
        ))
        .unwrap();
        let Command::Fit(f) = cmd else {
            panic!("expected fit")
        };
        assert_eq!(f.detect.dataset.as_deref(), Some("cardio"));
        assert_eq!(f.snapshot, "pool.suod");
        assert_eq!(f.detect.models, 6);
        assert_eq!(f.detect.seed, 9);

        assert!(parse_args(&argv("fit --dataset cardio")).is_err()); // no snapshot
        assert!(parse_args(&argv("fit --snapshot pool.suod")).is_err()); // no source
        assert!(parse_args(&argv("fit --dataset a --format json")).is_err());
    }

    #[test]
    fn parses_kernel_flags() {
        let cmd = parse_args(&argv("detect --dataset cardio --backend gemm")).unwrap();
        let Command::Detect(d) = cmd else {
            panic!("expected detect")
        };
        assert_eq!(d.backend, DistanceBackend::Gemm);

        // Defaults: the exact blocked pipeline.
        let Command::Detect(d) = parse_args(&argv("detect --dataset cardio")).unwrap() else {
            panic!("expected detect")
        };
        assert_eq!(d.backend, DistanceBackend::Blocked);
        assert_eq!(d.neighbor, NeighborBackend::Exact);
        assert_eq!(d.ef_search, None);
    }

    #[test]
    fn retired_precision_and_wire_flags_are_unknown() {
        // A script still passing a retired flag must fail loudly, not run
        // with a silently different kernel or protocol.
        for line in [
            "detect --dataset cardio --precision mixed",
            "fit --dataset cardio --snapshot pool.suod --precision f64",
            "score --connect 127.0.0.1:7878 --csv q.csv --wire text",
        ] {
            let flag = line.split_whitespace().rev().nth(1).unwrap();
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(
                err.contains(&format!("unknown flag `{flag}`")),
                "{line}: {err}"
            );
        }
        assert!(!usage().contains("--precision"));
        assert!(!usage().contains("--wire"));
    }

    #[test]
    fn parses_neighbor_flags() {
        let cmd = parse_args(&argv(
            "detect --dataset cardio --neighbor-backend hnsw --ef-search 128",
        ))
        .unwrap();
        let Command::Detect(d) = cmd else {
            panic!("expected detect")
        };
        assert!(d.neighbor.is_approximate());
        assert_eq!(d.ef_search, Some(128));
        // The folded kernel config carries the override.
        match d.kernel_config().neighbor {
            NeighborBackend::Hnsw(params) => assert_eq!(params.ef_search, 128),
            other => panic!("expected hnsw, got {other:?}"),
        }
    }

    #[test]
    fn detect_reports_cpu_features() {
        let cmd = parse_args(&argv(
            "detect --dataset pima --scale 0.2 --models 4 --seed 3 --backend gemm",
        ))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("kernels: backend=gemm lane="), "{out}");
        assert!(out.contains("neighbors=exact"), "{out}");
        let format = format!("snapshot format: {}", suod::SNAPSHOT_FORMAT);
        assert!(out.contains(&format), "{out}");
    }

    #[test]
    fn detect_reports_hnsw_backend() {
        // Registry analogs are far below DEFAULT_HNSW_MIN_ROWS at this
        // scale, so the run exercises the exactness fallback while the
        // kernels line still reports the configured hnsw backend.
        let cmd = parse_args(&argv(
            "detect --dataset pima --scale 0.2 --models 4 --seed 3 \
             --neighbor-backend hnsw --ef-search 32",
        ))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("neighbors=hnsw(ef_search=32)"), "{out}");
    }

    #[test]
    fn list_datasets_prints_registry() {
        let out = run(Command::ListDatasets).unwrap();
        assert!(out.contains("cardio"));
        assert!(out.contains("shuttle"));
        assert_eq!(out.lines().count(), 1 + registry::TABLE_A1.len());
    }

    #[test]
    fn detect_on_registry_analog() {
        let cmd = parse_args(&argv(
            "detect --dataset pima --scale 0.2 --models 5 --workers 1 --seed 3",
        ))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("ROC-AUC"), "{out}");
        assert!(out.contains("flagged"));
    }

    #[test]
    fn detect_on_csv_roundtrip() {
        let dir = std::env::temp_dir().join("suod_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let mut body = String::from("a,b,label\n");
        for i in 0..40 {
            body.push_str(&format!("{}.0,{}.5,0\n", i % 7, (i * 3) % 5));
        }
        body.push_str("50.0,50.0,1\n");
        std::fs::write(&input, body).unwrap();
        let output = dir.join("out.csv");

        let cmd = parse_args(&argv(&format!(
            "detect --csv {} --label-column 2 --models 4 --seed 1 --output {}",
            input.display(),
            output.display()
        )))
        .unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("ROC-AUC"), "{report}");
        let written = std::fs::read_to_string(&output).unwrap();
        assert!(written.starts_with("index,score,label\n"));
        assert_eq!(written.lines().count(), 1 + 41);
    }

    #[test]
    fn detect_errors_are_messages_not_panics() {
        let cmd = parse_args(&argv("detect --dataset not-a-dataset")).unwrap();
        assert!(run(cmd).is_err());
        let cmd = parse_args(&argv("detect --csv /nonexistent/nope.csv")).unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn parses_trace_flags() {
        let cmd = parse_args(&argv(
            "trace --dataset pima --scale 0.2 --models 4 --format chrome --workers 2",
        ))
        .unwrap();
        let Command::Trace(t) = cmd else {
            panic!("expected trace")
        };
        assert_eq!(t.detect.dataset.as_deref(), Some("pima"));
        assert_eq!(t.detect.models, 4);
        assert_eq!(t.format, TraceFormat::Chrome);

        // Default format is the stable JSON schema.
        let Command::Trace(t) = parse_args(&argv("trace --dataset pima")).unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(t.format, TraceFormat::Json);

        assert!(parse_args(&argv("trace")).is_err()); // no source
        assert!(parse_args(&argv("trace --dataset pima --format xml")).is_err());
        // --format belongs to trace only.
        assert!(parse_args(&argv("detect --dataset pima --format json")).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse_args(&argv(
            "serve --dataset cardio --scale 0.2 --models 6 --workers 2 --queue 8 \
             --batch-rows 64 --window-ms 5 --deadline-ms 100 --failure-budget 2 \
             --min-healthy 0.6 --chaos panic --requests 4 --rows-per-request 8",
        ))
        .unwrap();
        let Command::Serve(s) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(s.detect.dataset.as_deref(), Some("cardio"));
        assert_eq!(s.detect.workers, 2);
        assert_eq!(s.queue, 8);
        assert_eq!(s.batch_rows, 64);
        assert_eq!(s.window_ms, 5);
        assert_eq!(s.deadline_ms, Some(100));
        assert_eq!(s.failure_budget, 2);
        assert_eq!(s.min_healthy, 0.6);
        assert_eq!(s.chaos, Some(ChaosMode::PanicOnPredict));
        assert_eq!(s.requests, 4);
        assert_eq!(s.rows_per_request, 8);
        assert_eq!(s.listen, None);
        assert_eq!(s.snapshot, None);

        // Chaos mode spellings.
        let parse = |raw: &str| {
            parse_args(&argv(&format!("serve --dataset a --chaos {raw}"))).map(|cmd| match cmd {
                Command::Serve(s) => s.chaos,
                _ => panic!("expected serve"),
            })
        };
        assert_eq!(parse("nan").unwrap(), Some(ChaosMode::NanOnPredict));
        assert_eq!(parse("slow").unwrap(), Some(ChaosMode::SlowPredict(25)));
        assert_eq!(parse("slow:9").unwrap(), Some(ChaosMode::SlowPredict(9)));
        assert!(parse("explode").is_err());

        assert!(parse_args(&argv("serve")).is_err()); // no source
        assert!(parse_args(&argv("serve --dataset a --csv b.csv")).is_err());
        assert!(parse_args(&argv("serve --dataset a --format json")).is_err());

        // Snapshot mode: standalone only with --listen; composes with a
        // data source for the replay demo.
        assert!(parse_args(&argv("serve --snapshot p.suod")).is_err());
        let Command::Serve(s) =
            parse_args(&argv("serve --snapshot p.suod --listen 127.0.0.1:0")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(s.snapshot.as_deref(), Some("p.suod"));
        let Command::Serve(s) =
            parse_args(&argv("serve --snapshot p.suod --dataset cardio")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(s.snapshot.as_deref(), Some("p.suod"));
        assert_eq!(s.detect.dataset.as_deref(), Some("cardio"));
    }

    #[test]
    fn parses_score_flags() {
        let cmd = parse_args(&argv(
            "score --connect 127.0.0.1:7878 --csv q.csv --label-column 2",
        ))
        .unwrap();
        let Command::Score(s) = cmd else {
            panic!("expected score")
        };
        assert_eq!(s.connect.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(s.csv.as_deref(), Some("q.csv"));
        assert_eq!(s.label_column, Some(2));
        assert_eq!(s.output, None);

        // Offline mode spellings.
        let Command::Score(s) = parse_args(&argv(
            "score --snapshot pool.suod --dataset cardio --scale 0.1 --seed 7",
        ))
        .unwrap() else {
            panic!("expected score")
        };
        assert_eq!(s.snapshot.as_deref(), Some("pool.suod"));
        assert_eq!(s.dataset.as_deref(), Some("cardio"));
        assert_eq!(s.scale, 0.1);
        assert_eq!(s.seed, 7);

        assert!(parse_args(&argv("score --csv q.csv")).is_err()); // no addr/snapshot
        assert!(parse_args(&argv("score --connect 127.0.0.1:1")).is_err()); // no csv
        assert!(parse_args(&argv("score --snapshot p.suod")).is_err()); // no rows
        assert!(parse_args(&argv("score --connect a --snapshot p --csv q.csv")).is_err());
        assert!(parse_args(&argv("score --connect a --csv b --dataset c")).is_err());
        assert!(parse_args(&argv("score --snapshot p --csv b --dataset c")).is_err());
        assert!(parse_args(&argv("score --connect a --csv b --models 3")).is_err());
    }

    #[test]
    fn fit_then_score_snapshot_roundtrip() {
        let dir = std::env::temp_dir().join("suod_cli_fit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("pool.suod");

        let cmd = parse_args(&argv(&format!(
            "fit --dataset pima --scale 0.2 --models 4 --seed 3 --snapshot {}",
            snapshot.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("snapshot written to"), "{out}");
        assert!(out.contains(suod::SNAPSHOT_FORMAT), "{out}");
        assert!(snapshot.exists());

        // Offline scoring with the saved pool on the same rows reports
        // metrics and emits one score per row.
        let output = dir.join("scores.csv");
        let cmd = parse_args(&argv(&format!(
            "score --snapshot {} --dataset pima --scale 0.2 --seed 3 --output {}",
            snapshot.display(),
            output.display()
        )))
        .unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("scored"), "{report}");
        assert!(report.contains("ROC-AUC"), "{report}");
        let written = std::fs::read_to_string(&output).unwrap();
        assert!(written.starts_with("index,score\n"));

        // A corrupt snapshot is a typed message, not a panic.
        let garbled = dir.join("garbled.suod");
        let mut bytes = std::fs::read(&snapshot).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&garbled, bytes).unwrap();
        let cmd = parse_args(&argv(&format!(
            "score --snapshot {} --dataset pima --scale 0.2",
            garbled.display()
        )))
        .unwrap();
        let err = run(cmd).unwrap_err();
        assert!(err.contains("cannot load snapshot"), "{err}");
    }

    #[test]
    fn serve_replay_demo_answers_every_request() {
        // NanOnPredict keeps stderr quiet (no panic hook noise) while
        // still exercising the degradation path end to end.
        let cmd = parse_args(&argv(
            "serve --dataset pima --scale 0.2 --models 4 --seed 3 --workers 2 \
             --requests 3 --rows-per-request 8 --batch-rows 8 --chaos nan \
             --failure-budget 2 --min-healthy 0.5",
        ))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("request  0: scored"), "{out}");
        assert!(out.contains("request  2: scored"), "{out}");
        assert!(out.contains("serve: 3 admitted"), "{out}");
        assert!(out.contains("chaos#4"), "{out}");
        assert!(!out.contains("Failed"), "{out}");
    }

    #[test]
    fn serve_replay_demo_from_snapshot() {
        let dir = std::env::temp_dir().join("suod_cli_serve_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("pool.suod");
        let cmd = parse_args(&argv(&format!(
            "fit --dataset pima --scale 0.2 --models 4 --seed 3 --snapshot {}",
            snapshot.display()
        )))
        .unwrap();
        run(cmd).unwrap();

        // The saved pool serves the replay demo without refitting.
        let cmd = parse_args(&argv(&format!(
            "serve --snapshot {} --dataset pima --scale 0.2 --seed 3 \
             --requests 2 --rows-per-request 4",
            snapshot.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("request  0: scored clean"), "{out}");
        assert!(out.contains("request  1: scored clean"), "{out}");
        assert!(out.contains("serve: 2 admitted"), "{out}");
    }

    #[test]
    fn serve_listen_and_score_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join("suod_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();

        // A small healthy service bound to an ephemeral loopback port.
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 8) as f64, (i % 5) as f64 * 0.5, (i % 3) as f64])
            .collect();
        rows.push(vec![40.0, 40.0, 40.0]);
        let x = suod_linalg::Matrix::from_rows(&rows).unwrap();
        let mut clf = Suod::builder()
            .base_estimators(vec![
                ModelSpec::Hbos {
                    n_bins: 8,
                    tolerance: 0.3,
                },
                ModelSpec::IForest {
                    n_estimators: 10,
                    max_features: 1.0,
                },
            ])
            .n_workers(1)
            .seed(5)
            .build()
            .unwrap();
        clf.fit(&x).unwrap();
        let mut service = ScoreService::new(clf, ServeConfig::default()).unwrap();
        service.spawn_dispatcher();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let front = FrontConfig {
                worker_threads: 2,
                max_conns: 2,
                ..FrontConfig::default()
            };
            let report = serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap();
            (report, service.report())
        });

        // Connection 1: binary keep-alive client round trip.
        let queries = vec![vec![1.0, 0.5, 2.0], vec![39.0, 41.0, 38.0]];
        let scores = score_rows(&addr, &queries).unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert!(scores[1] > scores[0], "planted outlier must score higher");

        // Connection 2: the score subcommand end to end, via CSV.
        let input = dir.join("queries.csv");
        std::fs::write(&input, "a,b,c\n0.0,0.5,1.0\n38.0,40.0,39.0\n").unwrap();
        let output = dir.join("scores.csv");
        let cmd = parse_args(&argv(&format!(
            "score --connect {addr} --csv {} --output {}",
            input.display(),
            output.display()
        )))
        .unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("scored 2 rows"), "{report}");
        let written = std::fs::read_to_string(&output).unwrap();
        assert!(written.starts_with("index,score\n"));
        assert_eq!(written.lines().count(), 3);

        let (front_report, report) = server.join().unwrap();
        assert_eq!(front_report.conns_accepted, 2);
        assert_eq!(front_report.wire_requests, 2);
        assert_eq!(front_report.responses_ok, 2);
        assert_eq!(front_report.responses_error, 0);
        assert_eq!(report.requests_scored, 2);
        assert_eq!(report.admitted, 2);
    }

    #[test]
    fn trace_exports_schema_valid_json() {
        let dir = std::env::temp_dir().join("suod_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let output = dir.join("trace.json");
        let cmd = parse_args(&argv(&format!(
            "trace --dataset pima --scale 0.2 --models 5 --workers 2 --seed 3 --output {}",
            output.display()
        )))
        .unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("spans"), "{report}");
        assert!(report.contains("trace written to"), "{report}");

        let written = std::fs::read_to_string(&output).unwrap();
        let trace = suod::observe::export::from_json(&written).expect("schema-valid trace");
        assert!(trace.spans_of(suod::observe::Stage::Fit).count() >= 1);
        assert!(trace.spans_of(suod::observe::Stage::ModelFit).count() >= 5);
        assert!(trace.spans_of(suod::observe::Stage::Predict).count() >= 1);
    }

    #[test]
    fn trace_chrome_format_streams_to_stdout() {
        let cmd = parse_args(&argv(
            "trace --dataset pima --scale 0.2 --models 3 --workers 1 --seed 5 --format chrome",
        ))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("\"traceEvents\""), "{out}");
        assert!(out.contains("\"ph\": \"X\""), "{out}");
    }
}

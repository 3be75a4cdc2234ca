//! `e2e`: the repo's end-to-end benchmark. One command runs one workload
//! through fit -> offline score -> snapshot cold start -> closed-loop
//! serving -> fixed-rate serving against the public APIs of `suod`,
//! `suod-serve` and the layer crates, checks every output against an
//! offline oracle, and prints every metric by name with its unit. The last
//! line of standard output is the result as one JSON object. See README.md.

mod aa;
mod estimate;
mod layers;
mod loadgen;
mod provenance;
mod run;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use suod::prelude::*;
use suod_observe::json::write_escaped;

use estimate::{chunked_percentile, median};
use layers::{layer_metrics, Metrics, Traced, FAMILIES};
use run::{run_epoch, EpochOut, Samples, EPOCHS};
use spans::Spans;
use workloads::{Workload, CLOSED_CONNS, CLOSED_WINDOW, DATA_SEED, HI_CHUNK, NAMES, ROUNDS};

/// `run_seconds` of `BENCHMARK.json`: about how long the rounds of one run
/// take on the host the benchmark was defined on. `--seconds` scales the
/// number of rounds from it and from nothing else; the clock decides
/// nothing.
const RUN_SECONDS: f64 = 26.0;
const DEFAULT_SEED: u64 = 17;
/// Program spans written to the Chrome trace, so the file stays loadable.
const TRACE_PROGRAM_SPANS: usize = 50_000;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("score_rows_per_s", "rows/s"),
    ("roc_auc", "auc"),
    ("cold_start_s", "s"),
    ("serve_rows_per_s", "rows/s"),
    ("lat_lo_p50_us", "us"),
    ("lat_hi_p50_us", "us"),
    ("lat_hi_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-family detector times.
const LAYER: [(&str, &str); 68] = [
    ("linalg.pairwise_s", "s"),
    ("linalg.pairwise_gflops", "gflop/s"),
    ("linalg.index_build_s", "s"),
    ("linalg.self_query_s", "s"),
    ("linalg.query_rows_per_s", "rows/s"),
    ("linalg.query_small_us", "us"),
    ("linalg.cache_hits", "count"),
    ("linalg.cache_misses", "count"),
    ("linalg.cache_build_s", "s"),
    ("linalg.simd_kernel_calls", "count"),
    ("linalg.scalar_kernel_calls", "count"),
    ("linalg.gemm_tiles", "count"),
    ("linalg.kernel_fallbacks", "count"),
    ("linalg.ann_queries", "count"),
    ("linalg.ann_fallbacks", "count"),
    ("linalg.ann_recall_at_10", "ratio"),
    ("projection.fit_transform_s", "s"),
    ("projection.transform_rows_per_s", "rows/s"),
    ("projection.models_projected", "count"),
    ("scheduler.bps_plan_us", "us"),
    ("scheduler.imbalance", "ratio"),
    ("scheduler.utilization", "ratio"),
    ("scheduler.steals", "count"),
    ("scheduler.worker_busy_s", "s"),
    ("scheduler.stragglers", "count"),
    ("scheduler.forecast_rank_corr", "ratio"),
    ("supervised.psa_distill_s", "s"),
    ("supervised.approx_models", "count"),
    ("supervised.forest_predict_rows_per_s", "rows/s"),
    ("metrics.combine_us", "us"),
    ("core.decision_function_s", "s"),
    ("core.model_time_sum_s", "s"),
    ("core.snapshot_save_s", "s"),
    ("core.snapshot_load_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("core.fit_cpu_s", "s"),
    ("core.score_cpu_us_per_row", "us"),
    ("serve.wire_encode_request_ns", "ns"),
    ("serve.wire_decode_request_ns", "ns"),
    ("serve.wire_encode_response_ns", "ns"),
    ("serve.wire_decode_response_ns", "ns"),
    ("serve.lanes_admit_ns", "ns"),
    ("serve.inproc_p50_us", "us"),
    ("serve.front_overhead_us", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.batches", "count"),
    ("serve.batch_window_share", "ratio"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.requests_failed", "count"),
    ("serve.busy_queue", "count"),
    ("serve.busy_quota", "count"),
    ("serve.busy_lane", "count"),
    ("serve.responses_error", "count"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.lat_lo_p90_us", "us"),
    ("serve.lat_hi_p99_us", "us"),
    ("serve.gen_late_p90_us", "us"),
    ("serve.stage.WireRequest_s", "s"),
    ("serve.stage.RequestEnqueue_s", "s"),
    ("serve.stage.BatchAssemble_s", "s"),
    ("serve.stage.PredictChunk_s", "s"),
    ("serve.stage.Combine_s", "s"),
    ("serve.unattributed_share", "ratio"),
    ("observe.fit_overhead_pct", "%"),
    ("observe.serve_overhead_pct", "%"),
    ("datasets.generate_s", "s"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for phase in ["fit_s", "predict_s"] {
        all.extend(
            FAMILIES
                .iter()
                .map(|f| (format!("detectors.{phase}.{f}"), "s")),
        );
    }
    all
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

const USAGE: &str = "usage: e2e --workload <fit-hetero|score-proximity|serve-small|ann-mixed> \
[--seed <u64>] [--seconds <s>] [--trace [0|1]] [--quick]\n       \
e2e --aa <k> [--workload <name>] [--seed <u64>] [--seconds <s>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, it.next())?),
            "--seed" => {
                args.seed = value(flag, it.next())?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(flag, it.next())?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            // `--trace 1` / `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--aa" => {
                args.aa = Some(
                    value(flag, it.next())?
                        .parse()
                        .ok()
                        .filter(|k| *k >= 2)
                        .ok_or("--aa needs a run count of at least 2")?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Rounds per set-up: `ROUNDS` at `RUN_SECONDS`, in proportion otherwise,
/// and one under `--quick`.
fn rounds_per_epoch(args: &Args) -> usize {
    if args.quick {
        return 1;
    }
    ((ROUNDS as f64 * args.seconds / RUN_SECONDS).round() as usize).max(1)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.aa {
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => NAMES.to_vec(),
        };
        return aa::run(k, &names, args.seed, args.seconds);
    }
    let Some(w) = args.workload.as_deref().and_then(Workload::by_name) else {
        eprintln!("error: --workload must be one of {NAMES:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    match run_workload(&w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload and prints the result; `Ok(false)` when it ran but an
/// output was wrong.
fn run_workload(w: &Workload, args: &Args) -> Result<bool, String> {
    let load_start = provenance::loadavg();
    let run_start = std::time::Instant::now();
    let mut spans = Spans::new(w.name, args.trace);
    let rounds = rounds_per_epoch(args);

    // In a traced run the first epoch keeps the no-op observer, so the
    // overhead of recording is measured inside the one run.
    let (mut plain, mut recorded) = (Samples::default(), Samples::default());
    let (mut serve_reports, mut front_reports, mut program) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(EpochOut, u64)> = None;
    for epoch in 0..EPOCHS {
        // Drop the previous epoch's pools first, so that peak memory is one
        // epoch's and not the sum.
        drop(last.take());
        let recorder = (args.trace && epoch > 0).then(|| Arc::new(RecordingObserver::new()));
        let observer: Arc<dyn Observer> = match &recorder {
            Some(r) => Arc::clone(r) as Arc<dyn Observer>,
            None => suod_observe::noop(),
        };
        let offset_us = spans.now_us();
        let mut out = run_epoch(w, args.seed, rounds, &observer, &mut spans)?;
        let samples = std::mem::take(&mut out.samples);
        match recorder {
            Some(r) => {
                recorded.append(samples);
                program.push(r.trace());
            }
            None => plain.append(samples),
        }
        serve_reports.push(out.serve.clone());
        front_reports.push(out.front.clone());
        last = Some((out, offset_us));
    }
    let (last, program_offset_us) = last.expect("at least one epoch ran");

    let mut tally = plain.totals();
    tally.add(recorded.totals());
    let mut correct = tally.failed == 0;
    // Deterministic given the seed: every epoch must reproduce it exactly.
    let aucs: Vec<f64> = plain
        .roc_auc
        .iter()
        .chain(&recorded.roc_auc)
        .copied()
        .collect();
    if aucs.iter().any(|a| a.to_bits() != aucs[0].to_bits()) {
        eprintln!("FAIL: roc_auc did not repeat across set-ups: {aucs:?}");
        correct = false;
    }

    let (metrics, units): (Metrics, Vec<(String, &str)>) = if args.trace {
        let traced = Traced {
            w,
            untraced: &plain,
            traced: &recorded,
            last: &last,
            serve_reports: &serve_reports,
            front_reports: &front_reports,
            program: &program,
        };
        let mut m = layer_metrics(&traced, &mut spans)?;
        let units = per_layer();
        // A layer the workload does not use reads 0.
        for (name, _) in &units {
            m.entry(name.clone()).or_insert(0.0);
        }
        let path = write_trace(w, &spans, program.last().map(|t| (t, program_offset_us)))?;
        println!("chrome trace: {}", path.display());
        (m, units)
    } else {
        let mut m = Metrics::new();
        let pct = |chunks: &[Vec<f64>], p, beyond| {
            chunked_percentile(chunks, p, beyond).unwrap_or(f64::NAN)
        };
        m.insert("setup_s".into(), median(&plain.setup_s));
        m.insert("fit_s".into(), median(&plain.fit_s));
        m.insert("score_rows_per_s".into(), median(&plain.score_rows_per_s));
        m.insert("roc_auc".into(), aucs[0]);
        m.insert("cold_start_s".into(), median(&plain.cold_start_s));
        m.insert("serve_rows_per_s".into(), median(&plain.serve_rows_per_s));
        m.insert("lat_lo_p50_us".into(), pct(&plain.lo_chunks, 0.5, 10));
        m.insert("lat_hi_p50_us".into(), pct(&plain.hi_chunks, 0.5, 10));
        m.insert("lat_hi_p90_us".into(), pct(&plain.hi_chunks, 0.9, 30));
        m.insert(
            "peak_rss_mb".into(),
            plain.rss_first_round_mb.unwrap_or(f64::NAN),
        );
        let units = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (m, units)
    };

    // Provenance, then every metric by name with its unit.
    let load_end = provenance::loadavg();
    let disturbed = load_start.is_some_and(|l| l > provenance::DISTURBED_LOAD);
    println!(
        "provenance: workload={} seed={} data_seed={DATA_SEED} seconds={} trace={} quick={} \
         comparable={} git_rev={} nproc={} simd_lane={} rustc=\"{}\" loadavg_start={:?} \
         loadavg_end={:?}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        rounds == ROUNDS,
        provenance::git_rev(),
        provenance::nproc(),
        SimdLane::detect(),
        provenance::rustc_version(),
        load_start,
        load_end,
        if disturbed { " DISTURBED" } else { "" },
    );
    println!(
        "work: wall_s={:.1} rounds_s={:.1} epochs={EPOCHS} rounds={} n_train={} n_holdout={} d={} models={} \
         request_rows={:?} fit_reps={} score_passes={} cold_reps={} \
         closed={CLOSED_CONNS}conns x {} req x window {CLOSED_WINDOW} \
         open_lo={} req @ {}/s open_hi={HI_CHUNK} req @ {}/s",
        run_start.elapsed().as_secs_f64(),
        plain.measured_s + recorded.measured_s,
        plain.rounds + recorded.rounds,
        w.n_train,
        w.n_holdout,
        w.n_features,
        w.specs().len(),
        w.request_rows,
        w.fit_reps,
        w.score_passes,
        w.cold_reps,
        w.closed_requests,
        w.lo_chunk,
        w.rate_lo,
        w.rate_hi,
    );
    for samples in [&plain, &recorded] {
        for (phase, t) in &samples.ops {
            println!(
                "ops: {phase} attempted={} failed={} seconds={:.2}",
                t.attempted,
                t.failed,
                samples.phase_s.get(phase).copied().unwrap_or(0.0)
            );
        }
    }
    // The chunk values behind each median, so a disturbed run can be told
    // from a changed program.
    for (name, chunks) in [
        ("setup_s", &plain.setup_s),
        ("fit_s", &plain.fit_s),
        ("score_rows_per_s", &plain.score_rows_per_s),
        ("cold_start_s", &plain.cold_start_s),
        ("serve_rows_per_s", &plain.serve_rows_per_s),
    ] {
        let values: Vec<String> = chunks.iter().map(|v| format!("{v:.4}")).collect();
        println!("chunks: {name} [{}]", values.join(", "));
    }
    let mut json = String::new();
    for (name, unit) in &units {
        let mut value = metrics[name.as_str()];
        println!("{name} {value} {unit}");
        if !value.is_finite() {
            eprintln!("FAIL: {name} has no value");
            correct = false;
            value = 0.0;
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        write_escaped(&mut json, name);
        let _ = write!(json, ": {{\"value\": {value}, \"unit\": ");
        write_escaped(&mut json, unit);
        json.push('}');
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    Ok(correct)
}

/// Writes the Chrome trace beside the build (`<target>/e2e/`), which is
/// inside the checkout and untracked.
fn write_trace(
    w: &Workload,
    spans: &Spans,
    program: Option<(&suod_observe::Trace, u64)>,
) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?
        .join("e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name));
    let json = spans.to_chrome_trace(program, TRACE_PROGRAM_SPANS);
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_observe::json::{parse, Value};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "--workload ann-mixed --seed 5 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("ann-mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (5, 12.0, true));
        let a = parse_args(&argv("--workload x --trace 0 --seed 9")).unwrap();
        assert_eq!((a.trace, a.seed), (false, 9));
        // A bare `--trace` turns tracing on.
        let a = parse_args(&argv("--trace --quick --workload x")).unwrap();
        assert!(a.trace && a.quick);
        assert_eq!(a.seconds, RUN_SECONDS);
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--aa 1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The round count follows from `--seconds` alone, never from the clock.
    #[test]
    fn rounds_are_a_function_of_the_arguments() {
        let rounds = |s: &str| rounds_per_epoch(&parse_args(&argv(s)).unwrap());
        assert_eq!(rounds(""), ROUNDS);
        assert_eq!(rounds("--seconds 13"), ROUNDS / 2);
        assert_eq!(rounds("--seconds 52"), 2 * ROUNDS);
        assert_eq!(rounds("--seconds 1"), 1);
        assert_eq!(rounds("--quick"), 1);
    }

    /// The names and units this binary prints are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(declared("end_to_end"), own(e2e));
        assert_eq!(declared("per_layer"), own(per_layer()));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS as u64)
        );
    }
}

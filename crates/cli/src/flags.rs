//! Shared flag definitions and parsing for every subcommand.
//!
//! `fit`, `detect`, `trace`, and `serve` all configure the same
//! pipeline, so they share one flag set ([`DetectArgs`]) and one
//! parser; each subcommand layers its own knobs on top. Parsing is
//! hand-rolled (no CLI dependency) and pure — it never
//! touches the filesystem — which keeps every accepted and rejected
//! spelling unit-testable.

use suod::prelude::*;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Fit an ensemble and write a `suod-pool` snapshot.
    Fit(FitArgs),
    /// Fit an ensemble and emit per-sample scores.
    Detect(DetectArgs),
    /// Run an instrumented fit + predict and export the trace.
    Trace(TraceArgs),
    /// Run the fault-tolerant online scoring service (fresh fit or a
    /// `--snapshot`).
    Serve(ServeArgs),
    /// Score rows against a running `serve --listen` server, or locally
    /// against a `--snapshot`.
    Score(ScoreArgs),
    /// Print the registry's dataset table.
    ListDatasets,
    /// Print usage.
    Help,
}

/// Arguments for [`Command::Fit`]: the shared pipeline flags plus the
/// snapshot destination.
#[derive(Debug, Clone, PartialEq)]
pub struct FitArgs {
    /// Pipeline configuration (shared `detect` flags).
    pub detect: DetectArgs,
    /// Where the fitted-pool snapshot is written.
    pub snapshot: String,
}

/// Arguments for [`Command::Serve`]: the pipeline configuration plus the
/// serving knobs. Without `--listen` the command runs a self-contained
/// replay demo — concurrent clients score slices of the dataset's own
/// rows — and prints the per-request outcomes and the service report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Pipeline configuration (shared `detect` flags).
    pub detect: DetectArgs,
    /// Serve a fitted pool loaded from this snapshot instead of fitting
    /// one from the data source.
    pub snapshot: Option<String>,
    /// Admission queue capacity (`Busy` past this).
    pub queue: usize,
    /// Micro-batch row cap.
    pub batch_rows: usize,
    /// Extra delay before each batch in milliseconds; dispatch is
    /// work-conserving, so 0 (the default) serves a lone request at once.
    pub window_ms: u64,
    /// Default per-request deadline budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Consecutive predict faults before a model is quarantined.
    pub failure_budget: u32,
    /// Serving floor: minimum healthy fraction of the ensemble.
    pub min_healthy: f64,
    /// Optional saboteur appended to the pool (chaos demo).
    pub chaos: Option<ChaosMode>,
    /// Replay demo: number of concurrent client requests.
    pub requests: usize,
    /// Replay demo: rows per request.
    pub rows_per_request: usize,
    /// TCP address to listen on instead of running the replay demo.
    pub listen: Option<String>,
    /// Listen mode: exit after this many connections (0 = run forever).
    pub max_conns: usize,
    /// Listen mode: connection-worker threads on the front end.
    pub front_workers: usize,
    /// Listen mode: idle timeout in milliseconds before a silent
    /// connection is closed.
    pub idle_timeout_ms: u64,
    /// Listen mode: most pipelined frames one connection may have in
    /// flight at once.
    pub max_pipeline: usize,
    /// Listen mode: per-client in-flight request quota (0 = unlimited).
    pub client_quota: usize,
    /// Listen mode: fraction of the queue the normal lane may fill
    /// before `busy(lane)`; high-lane traffic uses the rest.
    pub lane_headroom: f64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            detect: DetectArgs::default(),
            snapshot: None,
            queue: 64,
            batch_rows: 256,
            window_ms: 0,
            deadline_ms: None,
            failure_budget: 3,
            min_healthy: 0.5,
            chaos: None,
            requests: 8,
            rows_per_request: 16,
            listen: None,
            max_conns: 0,
            front_workers: 4,
            idle_timeout_ms: 30_000,
            max_pipeline: 32,
            client_quota: 0,
            lane_headroom: 1.0,
        }
    }
}

/// Arguments for [`Command::Score`]: either the client side of
/// `serve --listen` (`--connect`) or offline scoring against a local
/// snapshot (`--snapshot`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreArgs {
    /// Server address, e.g. `127.0.0.1:7878` (remote mode).
    pub connect: Option<String>,
    /// Fitted-pool snapshot to score with locally (offline mode).
    pub snapshot: Option<String>,
    /// CSV of feature rows to score.
    pub csv: Option<String>,
    /// Registry dataset to score (offline mode only).
    pub dataset: Option<String>,
    /// Registry subsampling factor (offline mode only).
    pub scale: f64,
    /// Registry subsampling seed (offline mode only) — pass the seed
    /// the pool was fitted with so `--scale` picks the same rows.
    pub seed: u64,
    /// Label column to strip from the CSV (enables metrics offline).
    pub label_column: Option<usize>,
    /// Optional output CSV path for the returned scores.
    pub output: Option<String>,
}

/// Export format for [`Command::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The stable `suod-trace/1` JSON schema.
    Json,
    /// Chrome `trace_event` format (load in `chrome://tracing` / Perfetto).
    Chrome,
}

/// Arguments for [`Command::Trace`]: the same pipeline configuration as
/// `detect`, plus an export format. `--output` names the trace file
/// instead of a score CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Pipeline configuration (same flags as `detect`).
    pub detect: DetectArgs,
    /// Trace export format.
    pub format: TraceFormat,
}

/// Arguments for [`Command::Detect`] — the pipeline flag set shared by
/// `fit`, `detect`, `trace`, and `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectArgs {
    /// Registry dataset name (mutually exclusive with `csv`).
    pub dataset: Option<String>,
    /// CSV path (mutually exclusive with `dataset`).
    pub csv: Option<String>,
    /// Label column within the CSV.
    pub label_column: Option<usize>,
    /// Registry subsampling factor.
    pub scale: f64,
    /// Number of random Table B.1 models in the pool.
    pub models: usize,
    /// Module flags.
    pub rp: bool,
    /// Pseudo-supervised approximation flag.
    pub psa: bool,
    /// Balanced scheduling flag.
    pub bps: bool,
    /// Worker count.
    pub workers: usize,
    /// Contamination for the label threshold.
    pub contamination: f64,
    /// Master seed.
    pub seed: u64,
    /// Optional output CSV path for scores.
    pub output: Option<String>,
    /// Brute-force distance backend (naive | blocked | gemm).
    pub backend: DistanceBackend,
    /// Neighbour index backend (exact | hnsw).
    pub neighbor: NeighborBackend,
    /// HNSW search beam width (recall knob); `None` keeps the default.
    pub ef_search: Option<usize>,
}

impl Default for DetectArgs {
    fn default() -> Self {
        Self {
            dataset: None,
            csv: None,
            label_column: None,
            scale: 0.25,
            models: 12,
            rp: true,
            psa: true,
            bps: true,
            workers: 1,
            contamination: 0.1,
            seed: 42,
            output: None,
            backend: KernelConfig::default().backend,
            neighbor: NeighborBackend::default(),
            ef_search: None,
        }
    }
}

impl DetectArgs {
    /// Folds the three kernel flags into the estimator's single
    /// [`KernelConfig`] knob: backend and neighbour backend with the
    /// `--ef-search` override applied.
    pub fn kernel_config(&self) -> KernelConfig {
        let mut neighbor = self.neighbor;
        if let (Some(ef), NeighborBackend::Hnsw(params)) = (self.ef_search, neighbor) {
            neighbor = NeighborBackend::Hnsw(params.with_ef_search(ef));
        }
        KernelConfig::default()
            .with_backend(self.backend)
            .with_neighbor(neighbor)
    }
}

/// Which subcommand the shared pipeline parser is serving; gates the
/// per-subcommand extras (`--format`, `--snapshot`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PipelineMode {
    Detect,
    Trace,
    Fit,
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// unparsable numbers, or conflicting inputs.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list-datasets" => Ok(Command::ListDatasets),
        "fit" => {
            let (detect, _, snapshot) = parse_pipeline_flags(&mut it, "fit", PipelineMode::Fit)?;
            Ok(Command::Fit(FitArgs {
                detect,
                snapshot: snapshot.ok_or("fit needs --snapshot <path>")?,
            }))
        }
        "detect" => {
            let (d, _, _) = parse_pipeline_flags(&mut it, "detect", PipelineMode::Detect)?;
            Ok(Command::Detect(d))
        }
        "trace" => {
            let (detect, format, _) = parse_pipeline_flags(&mut it, "trace", PipelineMode::Trace)?;
            Ok(Command::Trace(TraceArgs {
                detect,
                format: format.unwrap_or(TraceFormat::Json),
            }))
        }
        "serve" => parse_serve_flags(&mut it).map(Command::Serve),
        "score" => parse_score_flags(&mut it).map(Command::Score),
        other => Err(format!("unknown command `{other}` (see `suod-cli help`)")),
    }
}

fn parse_chaos(raw: &str) -> Result<ChaosMode, String> {
    match raw {
        "panic" => Ok(ChaosMode::PanicOnPredict),
        "nan" => Ok(ChaosMode::NanOnPredict),
        "slow" => Ok(ChaosMode::SlowPredict(25)),
        other => other
            .strip_prefix("slow:")
            .and_then(|ms| ms.parse().ok())
            .map(ChaosMode::SlowPredict)
            .ok_or_else(|| format!("unknown chaos mode `{other}` (panic|nan|slow[:ms])")),
    }
}

fn parse_serve_flags(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ServeArgs, String> {
    let mut s = ServeArgs::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--dataset" => s.detect.dataset = Some(value("--dataset")?),
            "--csv" => s.detect.csv = Some(value("--csv")?),
            "--snapshot" => s.snapshot = Some(value("--snapshot")?),
            "--label-column" => {
                s.detect.label_column = Some(parse_num(&value("--label-column")?, flag)?)
            }
            "--scale" => s.detect.scale = parse_num(&value("--scale")?, flag)?,
            "--models" => s.detect.models = parse_num(&value("--models")?, flag)?,
            "--workers" => s.detect.workers = parse_num(&value("--workers")?, flag)?,
            "--seed" => s.detect.seed = parse_num(&value("--seed")?, flag)?,
            "--no-rp" => s.detect.rp = false,
            "--no-psa" => s.detect.psa = false,
            "--no-bps" => s.detect.bps = false,
            "--queue" => s.queue = parse_num(&value("--queue")?, flag)?,
            "--batch-rows" => s.batch_rows = parse_num(&value("--batch-rows")?, flag)?,
            "--window-ms" => s.window_ms = parse_num(&value("--window-ms")?, flag)?,
            "--deadline-ms" => s.deadline_ms = Some(parse_num(&value("--deadline-ms")?, flag)?),
            "--failure-budget" => s.failure_budget = parse_num(&value("--failure-budget")?, flag)?,
            "--min-healthy" => s.min_healthy = parse_num(&value("--min-healthy")?, flag)?,
            "--chaos" => s.chaos = Some(parse_chaos(&value("--chaos")?)?),
            "--requests" => s.requests = parse_num(&value("--requests")?, flag)?,
            "--rows-per-request" => {
                s.rows_per_request = parse_num(&value("--rows-per-request")?, flag)?
            }
            "--listen" => s.listen = Some(value("--listen")?),
            "--max-conns" => s.max_conns = parse_num(&value("--max-conns")?, flag)?,
            "--front-workers" => s.front_workers = parse_num(&value("--front-workers")?, flag)?,
            "--idle-timeout-ms" => {
                s.idle_timeout_ms = parse_num(&value("--idle-timeout-ms")?, flag)?
            }
            "--max-pipeline" => s.max_pipeline = parse_num(&value("--max-pipeline")?, flag)?,
            "--client-quota" => s.client_quota = parse_num(&value("--client-quota")?, flag)?,
            "--lane-headroom" => s.lane_headroom = parse_num(&value("--lane-headroom")?, flag)?,
            other => return Err(format!("unknown flag `{other}` (see `suod-cli help`)")),
        }
    }
    match (&s.detect.dataset, &s.detect.csv, &s.snapshot) {
        (None, None, None) => {
            Err("serve needs --dataset <name>, --csv <path>, or --snapshot <path>".into())
        }
        (Some(_), Some(_), _) => Err("--dataset and --csv are mutually exclusive".into()),
        // The replay demo scores the dataset's own rows, so a snapshot
        // without a data source only works in listen mode.
        (None, None, Some(_)) if s.listen.is_none() => {
            Err("serve --snapshot without a data source needs --listen \
                 (the replay demo scores dataset rows)"
                .into())
        }
        _ => Ok(s),
    }
}

fn parse_score_flags(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
) -> Result<ScoreArgs, String> {
    let mut s = ScoreArgs {
        connect: None,
        snapshot: None,
        csv: None,
        dataset: None,
        scale: 0.25,
        seed: 42,
        label_column: None,
        output: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--connect" => s.connect = Some(value("--connect")?),
            "--snapshot" => s.snapshot = Some(value("--snapshot")?),
            "--csv" => s.csv = Some(value("--csv")?),
            "--dataset" => s.dataset = Some(value("--dataset")?),
            "--scale" => s.scale = parse_num(&value("--scale")?, flag)?,
            "--seed" => s.seed = parse_num(&value("--seed")?, flag)?,
            "--label-column" => s.label_column = Some(parse_num(&value("--label-column")?, flag)?),
            "--output" => s.output = Some(value("--output")?),
            other => return Err(format!("unknown flag `{other}` (see `suod-cli help`)")),
        }
    }
    match (&s.connect, &s.snapshot) {
        (None, None) => return Err("score needs --connect <addr> or --snapshot <path>".into()),
        (Some(_), Some(_)) => return Err("--connect and --snapshot are mutually exclusive".into()),
        (Some(_), None) => {
            if s.csv.is_none() {
                return Err("score --connect needs --csv <path>".into());
            }
            if s.dataset.is_some() {
                return Err("--dataset only works with --snapshot (offline mode)".into());
            }
        }
        (None, Some(_)) => match (&s.dataset, &s.csv) {
            (None, None) => {
                return Err("score --snapshot needs --csv <path> or --dataset <name>".into())
            }
            (Some(_), Some(_)) => return Err("--dataset and --csv are mutually exclusive".into()),
            _ => {}
        },
    }
    Ok(s)
}

/// Parses the shared pipeline flag set. `--format` is only accepted in
/// [`PipelineMode::Trace`]; `--snapshot` only in [`PipelineMode::Fit`].
fn parse_pipeline_flags(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    sub: &str,
    mode: PipelineMode,
) -> Result<(DetectArgs, Option<TraceFormat>, Option<String>), String> {
    let mut d = DetectArgs::default();
    let mut format = None;
    let mut snapshot = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--dataset" => d.dataset = Some(value("--dataset")?),
            "--csv" => d.csv = Some(value("--csv")?),
            "--label-column" => d.label_column = Some(parse_num(&value("--label-column")?, flag)?),
            "--scale" => d.scale = parse_num(&value("--scale")?, flag)?,
            "--models" => d.models = parse_num(&value("--models")?, flag)?,
            "--workers" => d.workers = parse_num(&value("--workers")?, flag)?,
            "--contamination" => d.contamination = parse_num(&value("--contamination")?, flag)?,
            "--seed" => d.seed = parse_num(&value("--seed")?, flag)?,
            "--output" => d.output = Some(value("--output")?),
            "--backend" => {
                d.backend =
                    DistanceBackend::parse(&value("--backend")?).map_err(|e| e.to_string())?
            }
            "--neighbor-backend" => {
                d.neighbor = NeighborBackend::parse(&value("--neighbor-backend")?)
                    .map_err(|e| e.to_string())?
            }
            "--ef-search" => d.ef_search = Some(parse_num(&value("--ef-search")?, flag)?),
            "--no-rp" => d.rp = false,
            "--no-psa" => d.psa = false,
            "--no-bps" => d.bps = false,
            "--format" if mode == PipelineMode::Trace => {
                format = Some(match value("--format")?.as_str() {
                    "json" => TraceFormat::Json,
                    "chrome" => TraceFormat::Chrome,
                    other => return Err(format!("unknown trace format `{other}` (json|chrome)")),
                })
            }
            "--snapshot" if mode == PipelineMode::Fit => snapshot = Some(value("--snapshot")?),
            other => return Err(format!("unknown flag `{other}` (see `suod-cli help`)")),
        }
    }
    match (&d.dataset, &d.csv) {
        (None, None) => Err(format!("{sub} needs --dataset <name> or --csv <path>")),
        (Some(_), Some(_)) => Err("--dataset and --csv are mutually exclusive".into()),
        _ => Ok((d, format, snapshot)),
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("cannot parse `{raw}` for {flag}"))
}

/// Usage text.
pub fn usage() -> String {
    let format = suod::SNAPSHOT_FORMAT;
    format!(
        "suod-cli — scalable unsupervised heterogeneous outlier detection

USAGE:
  suod-cli fit --dataset <name> --snapshot <path>   fit a pool, write a snapshot
  suod-cli detect --dataset <name> [options]   score a registry analog
  suod-cli detect --csv <path> [options]       score a local CSV file
  suod-cli trace --dataset <name> [options]    export an instrumented run's trace
  suod-cli serve --dataset <name> [options]    run the online scoring service
  suod-cli serve --snapshot <path> --listen <addr>   serve a saved pool
  suod-cli score --connect <addr> --csv <path> score rows against a server
  suod-cli score --snapshot <path> --csv <path>  score rows with a saved pool
  suod-cli list-datasets                       show the benchmark registry
  suod-cli help                                this text

Snapshots use the {format} format: versioned, integrity-checked, and
bitwise score-stable across save/load at any worker count.

FIT / DETECT / TRACE OPTIONS:
  --label-column <i>    CSV column holding 0/1 labels (enables ROC/P@N)
  --scale <f>           registry subsample factor in (0, 1]   [0.25]
  --models <m>          random Table B.1 pool size            [12]
  --workers <t>         worker threads                        [1]
  --contamination <c>   expected outlier fraction             [0.1]
  --seed <s>            RNG seed                              [42]
  --output <path>       detect: score CSV; trace: trace file
  --backend <b>         distance backend: naive|blocked|gemm  [blocked]
  --neighbor-backend <b>  kNN index: exact|hnsw               [exact]
                        hnsw = seeded approximate graph (recall
                        >= 0.95 at defaults; small n and
                        non-Euclidean metrics fall back to exact)
  --ef-search <ef>      HNSW search beam width (recall knob)  [64]
  --no-rp | --no-psa | --no-bps   disable a SUOD module

FIT OPTIONS:
  --snapshot <path>     where the fitted-pool snapshot is written

TRACE OPTIONS:
  --format <json|chrome>  export format                       [json]
                          json   = stable suod-trace/1 schema
                          chrome = chrome://tracing / Perfetto

SERVE OPTIONS (plus the shared detect flags above):
  --snapshot <path>     serve this saved pool instead of fitting
  --queue <n>           admission queue capacity              [64]
  --batch-rows <n>      micro-batch row cap                   [256]
  --window-ms <ms>      extra delay before each batch; 0 =
                        serve at once, coalesce while busy    [0]
  --deadline-ms <ms>    default per-request deadline          [none]
  --failure-budget <n>  predict faults before quarantine      [3]
  --min-healthy <f>     serving floor (healthy fraction)      [0.5]
  --chaos <mode>        append a saboteur: panic|nan|slow[:ms]
  --requests <n>        replay demo: concurrent requests      [8]
  --rows-per-request <n>  replay demo: rows per request       [16]
  --listen <addr>       serve over TCP instead of the replay demo
  --max-conns <n>       listen: exit after n connections (0 = forever)
  --front-workers <n>   listen: connection-worker threads        [4]
  --idle-timeout-ms <ms>  listen: close silent connections after  [30000]
  --max-pipeline <n>    listen: in-flight frames per connection  [32]
  --client-quota <n>    listen: per-client in-flight cap (0 = off)
  --lane-headroom <f>   listen: queue fraction open to the normal
                        lane; the rest is high-lane slack        [1.0]

The listener speaks suod-wire/1 (binary, keep-alive, exact f64 bits);
a connection that opens with anything else gets an in-band error.

SCORE OPTIONS:
  --connect <addr>      server address (serve --listen)
  --snapshot <path>     score locally with this saved pool
  --csv <path>          feature rows to score
  --dataset <name>      registry rows to score (--snapshot mode)
  --scale <f>           registry subsample factor             [0.25]
  --seed <s>            subsample seed — match the fit seed    [42]
  --label-column <i>    label column (metrics in --snapshot mode)
  --output <path>       write index,score CSV instead of printing
"
    )
}

//! One run of one workload: three epochs, each a full set-up followed by a
//! fixed number of rounds of the five phases (fit, offline score, cold
//! start, closed-loop serving, open-loop serving at two rates). Every round
//! contributes one chunk of fixed work to every timed metric, so each
//! metric's chunks are spread over the whole run and its median survives a
//! burst of several seconds on the shared host.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use suod::prelude::*;
use suod_observe::Observer;
use suod_serve::{
    serve_front, FrontConfig, FrontReport, ScoreService, ServeConfig, ServeReport, SystemClock,
};

use crate::loadgen::{closed_chunk, open_chunk, Conn, RequestSet, Tally};
use crate::provenance::{cpu_seconds, peak_rss_mb};
use crate::spans::Spans;
use crate::workloads::{Workload, CLOSED_CONNS, CLOSED_WINDOW, HI_CHUNK, N_REQUESTS, N_WORKERS};

/// Set-ups per run; `setup_s` is their median.
pub const EPOCHS: usize = 3;

type Res<T> = Result<T, String>;

/// Prefixes an error with what was being done.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Everything a workload's phases need, made from the seed alone.
pub struct Fixture {
    pub train: Matrix,
    pub held: Matrix,
    /// The fitted pool every output is checked against.
    pub pool: Suod,
    /// Offline `combined_scores` bits of `held`.
    pub held_bits: Vec<u64>,
    pub roc_auc: f64,
    pub requests: RequestSet,
    pub snapshot: Vec<u8>,
    pub one_row: Matrix,
    pub one_row_bits: Vec<u64>,
    pub generate_s: f64,
}

impl Fixture {
    pub fn build(w: &Workload, seed: u64, observer: &Arc<dyn Observer>) -> Res<Fixture> {
        let t = Instant::now();
        let ds = suod_datasets::synthetic::generate(&w.data_config()).map_err(err("generate"))?;
        let generate_s = t.elapsed().as_secs_f64();
        let train = ds.x.select_rows(&(0..w.n_train).collect::<Vec<_>>());
        let held =
            ds.x.select_rows(&(w.n_train..ds.x.nrows()).collect::<Vec<_>>());
        let labels = ds.y[w.n_train..].to_vec();

        // The untimed warm-up fit, which also yields the oracle pool.
        let mut pool = w
            .builder()
            .observer(Arc::clone(observer))
            .build()
            .map_err(err("build pool"))?;
        pool.fit(&train).map_err(err("warm-up fit"))?;
        let held_scores = pool.combined_scores(&held).map_err(err("oracle score"))?;
        let roc_auc = suod_metrics::roc_auc(&labels, &held_scores).map_err(err("roc_auc"))?;

        let mut queries = Vec::with_capacity(N_REQUESTS);
        let mut expected = Vec::with_capacity(N_REQUESTS);
        for (start, rows) in w.request_plan(seed) {
            let query = held.select_rows(&(start..start + rows).collect::<Vec<_>>());
            expected.push(bits(
                &pool
                    .combined_scores(&query)
                    .map_err(err("oracle request"))?,
            ));
            queries.push(query);
        }
        let one_row = held.select_rows(&[0]);
        let one_row_bits = bits(&pool.combined_scores(&one_row).map_err(err("oracle row"))?);
        let snapshot = pool.save_to_bytes().map_err(err("snapshot encode"))?;
        Ok(Fixture {
            train,
            held_bits: bits(&held_scores),
            held,
            pool,
            roc_auc,
            requests: RequestSet::new(queries, expected),
            snapshot,
            one_row,
            one_row_bits,
            generate_s,
        })
    }
}

/// The samples one epoch produced; a run concatenates its epochs'.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub fit_s: Vec<f64>,
    pub fit_cpu_s: Vec<f64>,
    pub score_rows_per_s: Vec<f64>,
    pub score_cpu_us_per_row: Vec<f64>,
    pub cold_start_s: Vec<f64>,
    pub serve_rows_per_s: Vec<f64>,
    pub serve_cpu_us_per_req: Vec<f64>,
    /// Per chunk, latency from due time of every answered request, µs.
    pub lo_chunks: Vec<Vec<f64>>,
    pub hi_chunks: Vec<Vec<f64>>,
    /// Generator lateness of every open-loop request sent, µs.
    pub late_us: Vec<f64>,
    /// Client-observed latency summed over every served request, s.
    pub client_latency_total_s: f64,
    pub roc_auc: Vec<f64>,
    /// Operations attempted and failed, per phase.
    pub ops: BTreeMap<&'static str, Tally>,
    pub rounds: usize,
    /// Seconds spent in rounds.
    pub measured_s: f64,
    /// Seconds spent in each phase, checks included.
    pub phase_s: BTreeMap<&'static str, f64>,
    /// `VmHWM` after the first round, MB: one set-up and one chunk of every
    /// phase. The peak at exit is not used: over twelve refits beside a live
    /// service it swung by a third between runs of the same work.
    pub rss_first_round_mb: Option<f64>,
}

impl Samples {
    pub fn append(&mut self, other: Samples) {
        self.setup_s.extend(other.setup_s);
        self.fit_s.extend(other.fit_s);
        self.fit_cpu_s.extend(other.fit_cpu_s);
        self.score_rows_per_s.extend(other.score_rows_per_s);
        self.score_cpu_us_per_row.extend(other.score_cpu_us_per_row);
        self.cold_start_s.extend(other.cold_start_s);
        self.serve_rows_per_s.extend(other.serve_rows_per_s);
        self.serve_cpu_us_per_req.extend(other.serve_cpu_us_per_req);
        self.lo_chunks.extend(other.lo_chunks);
        self.hi_chunks.extend(other.hi_chunks);
        self.late_us.extend(other.late_us);
        self.client_latency_total_s += other.client_latency_total_s;
        self.roc_auc.extend(other.roc_auc);
        for (phase, tally) in other.ops {
            self.ops.entry(phase).or_default().add(tally);
        }
        self.rounds += other.rounds;
        self.measured_s += other.measured_s;
        for (phase, secs) in other.phase_s {
            *self.phase_s.entry(phase).or_default() += secs;
        }
        self.rss_first_round_mb = self.rss_first_round_mb.or(other.rss_first_round_mb);
    }

    fn phase_done(&mut self, phase: &'static str, started: Instant) {
        *self.phase_s.entry(phase).or_default() += started.elapsed().as_secs_f64();
    }

    fn op(&mut self, phase: &'static str, ok: bool) {
        let t = self.ops.entry(phase).or_default();
        t.attempted += 1;
        t.failed += u64::from(!ok);
    }

    pub fn totals(&self) -> Tally {
        let mut total = Tally::default();
        for t in self.ops.values() {
            total.add(*t);
        }
        total
    }
}

/// What an epoch leaves behind besides samples.
pub struct EpochOut {
    pub samples: Samples,
    pub fixture: Fixture,
    pub serve: ServeReport,
    pub front: FrontReport,
    /// Diagnostics of the last timed fit.
    pub fit_diagnostics: Option<FitDiagnostics>,
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        ..ServeConfig::default()
    }
}

/// One epoch: set everything up, then run `rounds` rounds.
pub fn run_epoch(
    w: &Workload,
    seed: u64,
    rounds: usize,
    observer: &Arc<dyn Observer>,
    spans: &mut Spans,
) -> Res<EpochOut> {
    let mut samples = Samples::default();
    let epoch_span = spans.begin("epoch");
    let setup_span = spans.begin("setup");
    let setup_start = Instant::now();
    let fixture = Fixture::build(w, seed, observer)?;
    // The pool the service owns is the snapshot reloaded, so every wire
    // response also checks the snapshot round trip.
    let served = Suod::load_from_bytes(&fixture.snapshot).map_err(err("load served pool"))?;
    let mut refit = w
        .builder()
        .observer(Arc::clone(observer))
        .build()
        .map_err(err("build refit pool"))?;
    let mut service = ScoreService::with_parts(
        served,
        serve_config(),
        Arc::new(SystemClock::new()),
        Arc::clone(observer),
    )
    .map_err(err("start service"))?;
    service.spawn_dispatcher();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind loopback"))?;
    let addr = listener
        .local_addr()
        .map_err(err("local addr"))?
        .to_string();
    let front_config = FrontConfig {
        worker_threads: N_WORKERS,
        // The front end returns once this many connections have come and
        // gone: the two this epoch keeps open throughout.
        max_conns: CLOSED_CONNS,
        ..FrontConfig::default()
    };

    let front = std::thread::scope(|s| -> Res<FrontReport> {
        let server = s.spawn(|| serve_front(&listener, &service, &front_config, observer));
        let conns: Result<Vec<Conn>, _> = (0..CLOSED_CONNS).map(|_| Conn::connect(&addr)).collect();
        if conns.is_err() {
            // The front end returns only after its connection count: give
            // it the connections, or the scope would wait on it for ever.
            for _ in 0..CLOSED_CONNS {
                let _ = std::net::TcpStream::connect(&addr);
            }
        }
        let mut conns = conns.map_err(err("connect"))?;
        // Untimed warm-up of both connections and the serving path.
        let warm = closed_chunk(
            &mut conns,
            &fixture.requests,
            0,
            2 * CLOSED_WINDOW,
            CLOSED_WINDOW,
        );
        samples.ops.entry("setup").or_default().add(warm.tally);
        samples.client_latency_total_s += warm.lat_us.iter().sum::<f64>() / 1e6;
        samples.setup_s.push(setup_start.elapsed().as_secs_f64());
        samples.roc_auc.push(fixture.roc_auc);
        spans.end(setup_span);

        let rounds_start = Instant::now();
        for _ in 0..rounds {
            round(w, &fixture, &mut refit, &mut conns, &mut samples, spans);
            if samples.rounds == 1 {
                samples.rss_first_round_mb = peak_rss_mb();
            }
        }
        samples.measured_s = rounds_start.elapsed().as_secs_f64();
        drop(conns);
        server
            .join()
            .map_err(|_| "front end panicked".to_string())?
            .map_err(err("front end"))
    })?;
    let serve = service.report();
    service.shutdown();
    spans.end(epoch_span);
    Ok(EpochOut {
        samples,
        serve,
        front,
        fit_diagnostics: refit.diagnostics().cloned(),
        fixture,
    })
}

/// One chunk of every phase.
fn round(
    w: &Workload,
    fx: &Fixture,
    refit: &mut Suod,
    conns: &mut [Conn],
    samples: &mut Samples,
    spans: &mut Spans,
) {
    let round_span = spans.begin("round");
    let first = samples.rounds * 7;

    // fit: `Suod::fit` on the training matrix, checked by scoring one row.
    let (span, started) = (spans.begin("fit"), Instant::now());
    let (mut wall, cpu0) = (Duration::ZERO, cpu_seconds());
    for _ in 0..w.fit_reps {
        let t = Instant::now();
        let fitted = refit.fit(&fx.train).is_ok();
        wall += t.elapsed();
        let same = fitted
            && refit
                .combined_scores(&fx.one_row)
                .is_ok_and(|s| bits(&s) == fx.one_row_bits);
        samples.op("fit", same);
    }
    samples
        .fit_cpu_s
        .push((cpu_seconds() - cpu0) / w.fit_reps as f64);
    samples.fit_s.push(wall.as_secs_f64() / w.fit_reps as f64);
    samples.phase_done("fit", started);
    spans.end(span);

    // offline score: `combined_scores` on the held-out matrix.
    let (span, started) = (spans.begin("score"), Instant::now());
    let (mut wall, cpu0) = (Duration::ZERO, cpu_seconds());
    for _ in 0..w.score_passes {
        let t = Instant::now();
        let scores = fx.pool.combined_scores(&fx.held);
        wall += t.elapsed();
        samples.op("score", scores.is_ok_and(|s| bits(&s) == fx.held_bits));
    }
    let rows = (w.score_passes * fx.held.nrows()) as f64;
    samples
        .score_cpu_us_per_row
        .push((cpu_seconds() - cpu0) * 1e6 / rows);
    samples.score_rows_per_s.push(rows / wall.as_secs_f64());
    samples.phase_done("score", started);
    spans.end(span);

    // cold start: snapshot bytes to the first score.
    let (span, started) = (spans.begin("cold_start"), Instant::now());
    let mut wall = Duration::ZERO;
    for _ in 0..w.cold_reps {
        let t = Instant::now();
        let first_score =
            Suod::load_from_bytes(&fx.snapshot).and_then(|pool| pool.combined_scores(&fx.one_row));
        wall += t.elapsed();
        samples.op(
            "cold_start",
            first_score.is_ok_and(|s| bits(&s) == fx.one_row_bits),
        );
    }
    samples
        .cold_start_s
        .push(wall.as_secs_f64() / w.cold_reps as f64);
    samples.phase_done("cold_start", started);
    spans.end(span);

    // closed loop: both connections, a window of frames in flight each.
    let (span, started) = (spans.begin("serve_closed"), Instant::now());
    let cpu0 = cpu_seconds();
    let chunk = closed_chunk(conns, &fx.requests, first, w.closed_requests, CLOSED_WINDOW);
    samples
        .serve_cpu_us_per_req
        .push((cpu_seconds() - cpu0) * 1e6 / chunk.tally.attempted as f64);
    samples.serve_rows_per_s.push(chunk.rows_per_s);
    samples.client_latency_total_s += chunk.lat_us.iter().sum::<f64>() / 1e6;
    samples
        .ops
        .entry("serve_closed")
        .or_default()
        .add(chunk.tally);
    samples.phase_done("serve_closed", started);
    spans.end(span);

    // open loop at the two fixed rates, on the first connection.
    for (phase, n, rate) in [
        ("serve_open_lo", w.lo_chunk, w.rate_lo),
        ("serve_open_hi", HI_CHUNK, w.rate_hi),
    ] {
        let (span, started) = (spans.begin(phase), Instant::now());
        let chunk = open_chunk(&mut conns[0], &fx.requests, first, n, rate);
        samples.client_latency_total_s += chunk.lat_us.iter().sum::<f64>() / 1e6;
        samples.late_us.extend(chunk.late_us);
        samples.ops.entry(phase).or_default().add(chunk.tally);
        if phase == "serve_open_lo" {
            samples.lo_chunks.push(chunk.lat_us);
        } else {
            samples.hi_chunks.push(chunk.lat_us);
        }
        samples.phase_done(phase, started);
        spans.end(span);
    }
    samples.rounds += 1;
    spans.end(round_span);
}

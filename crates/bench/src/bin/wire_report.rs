//! Network front-end report: request throughput for the `suod-wire/1`
//! binary keep-alive protocol.
//!
//! Sweeps (client connections x front worker threads) against a live
//! [`serve_front`] listener on loopback: each cell fits the same seeded
//! pool, starts a `ScoreService` plus front end, and fires an open-loop
//! generator at it — clients pipeline a bounded window of frames per
//! keep-alive socket without waiting for individual replies. `busy`
//! responses are *measured*, never retried, and every
//! `ok` response is compared bit-for-bit against offline
//! [`Suod::combined_scores`], so each cell doubles as an end-to-end
//! determinism check. Results go to `BENCH_wire.json` with the git
//! revision and core count in the header.
//!
//! Flags: `--quick`/`--paper` scale the trace; `--smoke` runs the CI
//! gates and exits non-zero unless (1) no request in any gate cell goes
//! unanswered (zero dropped frames), (2) every scored response is
//! bit-identical to offline scoring at 1, 2, and 4 front workers.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::time::{Duration, Instant};
use suod::prelude::*;
use suod_bench::Scale;
use suod_datasets::registry;
use suod_linalg::SimdLane;
use suod_serve::{
    serve_front, FrontConfig, FrontReport, Lane, ScoreService, ServeConfig, WireClient,
    WireResponse,
};

/// Frames a binary client keeps in flight per keep-alive socket. Below
/// the front end's `max_pipeline` default so nothing parks in the
/// socket buffer.
const CLIENT_WINDOW: usize = 8;

/// Rows per request — small, so the sweep measures wire and dispatch
/// overhead rather than kernel time.
const ROWS_PER_REQUEST: usize = 8;

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Same six-model heterogeneous pool as `serve_report`, fitted with a
/// fixed seed and worker count so every cell serves an identical model
/// and the offline reference bits transfer across cells.
fn fit(x: &Matrix) -> Suod {
    let mut clf = Suod::builder()
        .base_estimators(vec![
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
            ModelSpec::Knn {
                n_neighbors: 5,
                method: KnnMethod::Largest,
            },
        ])
        .min_healthy_fraction(0.5)
        .n_workers(2)
        .seed(17)
        .build()
        .expect("valid configuration");
    clf.fit(x).expect("fit succeeds");
    clf
}

#[derive(Debug, Default, Clone, Copy)]
struct ClientStats {
    ok: u64,
    busy: u64,
    shed: u64,
    error: u64,
    /// Requests that never got a response (connect failure, server
    /// hang-up, torn frame). The smoke gate requires zero.
    dropped: u64,
    /// `ok` responses whose score bits differ from offline scoring.
    bit_mismatch: u64,
}

impl ClientStats {
    fn merge(&mut self, other: ClientStats) {
        self.ok += other.ok;
        self.busy += other.busy;
        self.shed += other.shed;
        self.error += other.error;
        self.dropped += other.dropped;
        self.bit_mismatch += other.bit_mismatch;
    }
}

/// Reads one pipelined response and tallies it. Returns `false` when
/// the stream is dead (caller counts the rest of the window dropped).
fn drain_one(
    client: &mut WireClient,
    inflight: &mut VecDeque<(u64, usize)>,
    ref_bits: &[Vec<u64>],
    stats: &mut ClientStats,
) -> bool {
    let response = match client.read_response() {
        Ok(Some(response)) => response,
        Ok(None) | Err(_) => return false,
    };
    let Some((id, qi)) = inflight.pop_front() else {
        return false;
    };
    if response.id() != id {
        stats.error += 1;
        return false;
    }
    match response {
        WireResponse::Ok { scores, .. } => {
            let bits: Vec<u64> = scores.iter().map(|v| v.to_bits()).collect();
            if bits == ref_bits[qi] {
                stats.ok += 1;
            } else {
                stats.bit_mismatch += 1;
            }
        }
        WireResponse::Busy { .. } => stats.busy += 1,
        WireResponse::Shed { .. } => stats.shed += 1,
        WireResponse::Error { .. } => stats.error += 1,
    }
    true
}

/// One keep-alive socket, `n_requests` frames, bounded-window open
/// loop: submit without waiting until [`CLIENT_WINDOW`] are in flight,
/// then trade one response per new frame.
fn binary_client(
    addr: &str,
    queries: &[Matrix],
    ref_bits: &[Vec<u64>],
    n_requests: usize,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let Ok(mut client) = WireClient::connect(addr) else {
        stats.dropped = n_requests as u64;
        return stats;
    };
    let mut inflight: VecDeque<(u64, usize)> = VecDeque::new();
    let mut issued = 0usize;
    for i in 0..n_requests {
        let qi = i % queries.len();
        match client.submit(&queries[qi], Lane::Normal, None) {
            Ok(id) => {
                issued += 1;
                inflight.push_back((id, qi));
            }
            Err(_) => break,
        }
        if inflight.len() >= CLIENT_WINDOW
            && !drain_one(&mut client, &mut inflight, ref_bits, &mut stats)
        {
            break;
        }
    }
    while !inflight.is_empty() {
        if !drain_one(&mut client, &mut inflight, ref_bits, &mut stats) {
            break;
        }
    }
    stats.dropped += (n_requests - issued + inflight.len()) as u64;
    stats
}

struct Cell {
    wall_s: f64,
    req_per_s: f64,
    rows_per_s: f64,
    stats: ClientStats,
    front: FrontReport,
}

/// The shared per-run workload: training matrix, the query set, and the
/// offline reference bits every response is checked against.
struct Workload<'a> {
    x: &'a Matrix,
    queries: &'a [Matrix],
    ref_bits: &'a [Vec<u64>],
}

/// Fits a pool, serves it behind a front end with `workers` connection
/// workers, and drives it with `conns` parallel keep-alive clients
/// issuing `reqs_per_conn` requests each.
fn run_cell(w: &Workload, conns: usize, workers: usize, reqs_per_conn: usize) -> Cell {
    let config = ServeConfig {
        queue_capacity: 256,
        batch_window: Duration::from_millis(1),
        min_healthy_fraction: 0.5,
        ..ServeConfig::default()
    };
    let mut service = ScoreService::new(fit(w.x), config).expect("valid serve config");
    service.spawn_dispatcher();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    // Each client keeps one socket alive for the whole cell; the front
    // end exits once the last expected connection closes.
    let front_config = FrontConfig {
        worker_threads: workers,
        max_conns: conns,
        ..FrontConfig::default()
    };
    let observer = suod_observe::noop();

    let (stats, wall_s, front) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_front(&listener, &service, &front_config, &observer));
        let start = Instant::now();
        let clients: Vec<_> = (0..conns)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || binary_client(&addr, w.queries, w.ref_bits, reqs_per_conn))
            })
            .collect();
        let mut stats = ClientStats::default();
        for client in clients {
            stats.merge(client.join().expect("client thread"));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let front = server
            .join()
            .expect("server thread")
            .expect("front end survives the cell");
        (stats, wall_s, front)
    });

    Cell {
        wall_s,
        req_per_s: stats.ok as f64 / wall_s,
        rows_per_s: (stats.ok as usize * ROWS_PER_REQUEST) as f64 / wall_s,
        stats,
        front,
    }
}

/// Gate helper: a cell must answer everything it was offered, exactly.
fn gate_cell_clean(label: &str, cell: &Cell) -> bool {
    let mut ok = true;
    if cell.stats.dropped > 0 {
        eprintln!("FAIL: {label}: {} requests dropped", cell.stats.dropped);
        ok = false;
    }
    if cell.stats.bit_mismatch > 0 {
        eprintln!(
            "FAIL: {label}: {} responses differ from offline scoring",
            cell.stats.bit_mismatch
        );
        ok = false;
    }
    if cell.stats.error > 0 {
        eprintln!("FAIL: {label}: {} error responses", cell.stats.error);
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let avx2 = SimdLane::supported() == SimdLane::Avx2;
    let rev = git_rev();

    let ds = registry::load_scaled("cardio", 17, 0.25).expect("registry analog");
    let n_queries = 12usize;
    let n_rows = ds.x.nrows();
    let queries: Vec<Matrix> = (0..n_queries)
        .map(|q| {
            let rows: Vec<Vec<f64>> = (0..ROWS_PER_REQUEST)
                .map(|i| ds.x.row((q * ROWS_PER_REQUEST + i) % n_rows).to_vec())
                .collect();
            Matrix::from_rows(&rows).expect("rectangular request")
        })
        .collect();
    // Offline reference: the bit pattern every wire response must
    // reproduce. Fitting is seeded, so a fresh fit inside each cell
    // serves this exact model.
    let reference = fit(&ds.x);
    let ref_bits: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            reference
                .combined_scores(q)
                .expect("offline scoring succeeds")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let reqs_per_conn = scale.pick(8usize, 24, 48);
    let workload = Workload {
        x: &ds.x,
        queries: &queries,
        ref_bits: &ref_bits,
    };

    if args.iter().any(|a| a == "--smoke") {
        println!(
            "wire smoke: {reqs_per_conn} requests/conn x {ROWS_PER_REQUEST} rows \
             (cores: {host_cores})"
        );
        let mut pass = true;
        // Gates 1+2: keep-alive clients at 1, 2, and 4 front workers
        // must have every frame answered with offline-exact bits.
        for workers in [1usize, 2, 4] {
            let cell = run_cell(&workload, 4, workers, reqs_per_conn);
            println!(
                "binary conns 4 workers {workers}: {:.3}s wall, {:.0} req/s, \
                 ok {} busy {} dropped {}",
                cell.wall_s, cell.req_per_s, cell.stats.ok, cell.stats.busy, cell.stats.dropped
            );
            pass &= gate_cell_clean(&format!("binary workers={workers}"), &cell);
        }
        if !pass {
            std::process::exit(1);
        }
        println!("OK");
        return;
    }

    println!(
        "Wire report (rev {rev}, host cores: {host_cores}, avx2+fma: {avx2}, \
         {reqs_per_conn} requests/conn x {ROWS_PER_REQUEST} rows, open loop, \
         pipeline window {CLIENT_WINDOW})"
    );
    let conn_counts = [1usize, 4, 8];
    let worker_counts = [1usize, 2, 4];
    let mut cells: Vec<String> = Vec::new();
    for &conns in &conn_counts {
        for &workers in &worker_counts {
            let cell = run_cell(&workload, conns, workers, reqs_per_conn);
            assert_eq!(
                cell.stats.bit_mismatch, 0,
                "conns {conns} workers {workers}: wire scores differ from offline"
            );
            println!(
                "binary conns {conns} workers {workers}  {:.3}s wall  {:>7.0} req/s  \
                 {:>8.0} rows/s  ok {}  busy {}  dropped {}",
                cell.wall_s,
                cell.req_per_s,
                cell.rows_per_s,
                cell.stats.ok,
                cell.stats.busy,
                cell.stats.dropped
            );
            cells.push(format!(
                "\"binary_conns{conns}_workers{workers}\": {{\
                 \"wall_s\": {:.6}, \"req_per_s\": {:.1}, \"rows_per_s\": {:.1}, \
                 \"ok\": {}, \"busy\": {}, \"shed\": {}, \"error\": {}, \
                 \"dropped\": {}, \"bit_mismatch\": {}, \
                 \"conns_accepted\": {}, \"wire_requests\": {}}}",
                cell.wall_s,
                cell.req_per_s,
                cell.rows_per_s,
                cell.stats.ok,
                cell.stats.busy,
                cell.stats.shed,
                cell.stats.error,
                cell.stats.dropped,
                cell.stats.bit_mismatch,
                cell.front.conns_accepted,
                cell.front.wire_requests,
            ));
        }
    }

    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"avx2_fma_supported\": {avx2},\n  \"lane_detected\": \"{}\",\n  \
         \"scale\": \"{scale:?}\",\n  \"dataset\": \"cardio(x0.25)\",\n  \
         \"wire_format\": \"suod-wire/1\",\n  \
         \"rows_per_request\": {ROWS_PER_REQUEST},\n  \
         \"requests_per_conn\": {reqs_per_conn},\n  \
         \"pipeline_window\": {CLIENT_WINDOW},\n  \
         \"cells\": {{\n    {}\n  }}\n}}\n",
        SimdLane::detect(),
        cells.join(",\n    "),
    );
    std::fs::write("BENCH_wire.json", &json).expect("write BENCH_wire.json");
    println!("wrote BENCH_wire.json");
}

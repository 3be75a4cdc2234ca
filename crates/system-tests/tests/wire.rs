//! Network front-end system tests: the `suod-wire/1` binary protocol
//! over real loopback sockets.
//!
//! The contract under test: many parallel keep-alive clients receive
//! scores **bitwise identical** to offline `combined_scores`, through a
//! busy flood and a mid-stream hot reload; pipelined admission
//! decisions (per-client quotas, priority lanes) are deterministic
//! in-order functions of the frame sequence; an idle client is closed
//! without stalling anyone else; and a malformed frame is answered in
//! band and never takes a worker down.

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use suod::prelude::*;
use suod_serve::wire::{read_response, write_request, WireRequest};
use suod_serve::{
    serve_front, BusyReason, FrontConfig, Lane, LaneConfig, ScoreService, ServeConfig, WireClient,
    WireResponse,
};

/// 90 x 5 synthetic grid with two planted outliers (the serve-suite
/// training set).
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

/// Query matrices disjoint from the training grid, 4 rows each.
fn queries(n: usize) -> Vec<Matrix> {
    (0..n)
        .map(|r| {
            let rows: Vec<Vec<f64>> = (0..4)
                .map(|i| {
                    let k = (r * 4 + i) as f64;
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
        })
        .collect()
}

fn healthy_pool() -> Vec<ModelSpec> {
    vec![
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
    ]
}

fn fit(seed: u64, n_workers: usize) -> Suod {
    let mut clf = Suod::builder()
        .base_estimators(healthy_pool())
        .min_healthy_fraction(0.5)
        .n_workers(n_workers)
        .seed(seed)
        .build()
        .unwrap();
    clf.fit(&data()).unwrap();
    clf
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Scores with retry-on-busy (the flood keeps the queue small, so any
/// client may bounce; a bounce must never change the eventual bits).
fn score_with_retry(client: &mut WireClient, query: &Matrix) -> (Vec<f64>, usize) {
    let mut busy = 0usize;
    for _ in 0..10_000 {
        match client.score(query, Lane::Normal, None).unwrap() {
            WireResponse::Ok { scores, .. } => return (scores, busy),
            WireResponse::Busy { .. } => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    panic!("server stayed busy for 10s");
}

/// The flagship: N parallel keep-alive clients, scores bitwise equal to
/// offline `combined_scores`, interleaved with a pipelined busy flood
/// and a mid-stream `ScoreService::reload` to a different pool.
#[test]
fn parallel_keepalive_clients_are_bit_identical_through_flood_and_reload() {
    const CLIENTS: usize = 6;
    const PER_PHASE: usize = 3;
    const FLOOD: usize = 8;

    let all_queries = Arc::new(queries(CLIENTS * PER_PHASE + 1));
    let flood_query = all_queries.last().unwrap().clone();

    // Offline references for both pool generations, computed before the
    // pools move into the service.
    let gen0 = fit(41, 2);
    let gen1 = fit(43, 1);
    let offline0: Vec<Vec<u64>> = all_queries
        .iter()
        .map(|q| bits(&gen0.combined_scores(q).unwrap()))
        .collect();
    let offline1: Vec<Vec<u64>> = all_queries
        .iter()
        .map(|q| bits(&gen1.combined_scores(q).unwrap()))
        .collect();
    let offline0 = Arc::new(offline0);
    let offline1 = Arc::new(offline1);

    // A deliberately small queue so the flood produces real `busy`
    // backpressure at the wire.
    let mut service = ScoreService::new(
        gen0,
        ServeConfig {
            queue_capacity: 4,
            batch_window: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    service.spawn_dispatcher();
    let service = Arc::new(service);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let front = FrontConfig {
                // One worker per keep-alive client: every connection in
                // this test stays open across the reload fence, so a
                // smaller pool would park the excess clients in the
                // hand-off queue until the idle timeout reclaims a
                // worker.
                worker_threads: CLIENTS,
                max_conns: CLIENTS,
                ..FrontConfig::default()
            };
            serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
        })
    };

    // Two rendezvous: all clients finish phase 1, then the reload
    // happens, then phase 2 starts — so each response's generation is
    // known exactly.
    let reload_fence = Arc::new(Barrier::new(CLIENTS + 1));
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        let all_queries = Arc::clone(&all_queries);
        let offline0 = Arc::clone(&offline0);
        let offline1 = Arc::clone(&offline1);
        let reload_fence = Arc::clone(&reload_fence);
        let flood_query = flood_query.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = WireClient::connect(&addr).unwrap();
            let mut busy_seen = 0usize;

            // Phase 1 (generation 0), over one keep-alive socket.
            for r in 0..PER_PHASE {
                let q = c * PER_PHASE + r;
                let (scores, busy) = score_with_retry(&mut client, &all_queries[q]);
                busy_seen += busy;
                assert_eq!(bits(&scores), offline0[q], "client {c} request {r} (gen 0)");
            }

            // Client 0 doubles as the flood: a pipelined burst far past
            // the queue capacity. Ok responses must still be exact; the
            // rest bounce as busy — never an error, never a drop.
            if c == 0 {
                let mut ids = Vec::new();
                for _ in 0..FLOOD {
                    ids.push(client.submit(&flood_query, Lane::Normal, None).unwrap());
                }
                for id in ids {
                    let response = client.read_response().unwrap().expect("flood response");
                    assert_eq!(response.id(), id, "responses arrive in request order");
                    match response {
                        WireResponse::Ok { scores, .. } => {
                            assert_eq!(
                                bits(&scores),
                                offline0[CLIENTS * PER_PHASE],
                                "flood scores stay exact under pressure"
                            );
                        }
                        WireResponse::Busy { .. } => busy_seen += 1,
                        other => panic!("flood got {other:?}"),
                    }
                }
            }

            reload_fence.wait(); // phase 1 + flood complete
            reload_fence.wait(); // reload done

            // Phase 2 (generation 1), same socket, same queries.
            for r in 0..PER_PHASE {
                let q = c * PER_PHASE + r;
                let (scores, busy) = score_with_retry(&mut client, &all_queries[q]);
                busy_seen += busy;
                assert_eq!(bits(&scores), offline1[q], "client {c} request {r} (gen 1)");
            }
            busy_seen
        }));
    }

    reload_fence.wait();
    let reloaded = service.reload(gen1).unwrap();
    assert_eq!(reloaded.epoch, 1);
    reload_fence.wait();

    let busy_seen: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let front = server.join().unwrap();
    assert_eq!(front.conns_accepted, CLIENTS as u64);
    // Every frame got exactly one response: nothing dropped, nothing
    // double-answered.
    let responses = front.responses_ok + front.busy_queue + front.busy_quota + front.busy_lane;
    assert_eq!(front.wire_requests, responses);
    assert_eq!(front.responses_error, 0);
    // With quotas and lanes disabled, every busy the clients saw came
    // from the service queue, and vice versa.
    assert_eq!(front.busy_queue, busy_seen as u64);
    assert_eq!(front.busy_quota + front.busy_lane, 0);
}

/// Per-client quota: a client that pipelines K frames in one write gets
/// frame 1 admitted and frames 2..K bounced `busy(quota)` — decided
/// before any response is written, so the outcome sequence is exact.
#[test]
fn pipelined_quota_rejections_are_deterministic_and_in_order() {
    let service = ScoreService::new(fit(41, 1), ServeConfig::default()).unwrap();
    // No dispatcher: the queue drains only when this test says so, so
    // the first request's quota slot is provably held while frames 2..3
    // are admitted.
    let service = Arc::new(service);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let front = FrontConfig {
                worker_threads: 1,
                max_conns: 1,
                lanes: LaneConfig {
                    per_client_inflight: 1,
                    normal_lane_headroom: 1.0,
                },
                ..FrontConfig::default()
            };
            serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
        })
    };

    // Three frames in ONE write, so the worker drains them as a single
    // pipelined batch.
    let query = queries(1).remove(0);
    let mut burst = Vec::new();
    for id in 1..=3u64 {
        write_request(
            &mut burst,
            &WireRequest {
                id,
                lane: Lane::Normal,
                deadline_ms: None,
                rows: query.clone(),
            },
        )
        .unwrap();
    }
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    use std::io::Write as _;
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&burst).unwrap();
    writer.flush().unwrap();

    // Drain the one admitted request so its response can be written.
    let mut retired = 0usize;
    while retired == 0 {
        retired = service.process_once();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(retired, 1, "only frame 1 made it past the quota");

    let mut reader = std::io::BufReader::new(stream);
    let first = read_response(&mut reader).unwrap().unwrap();
    assert!(
        matches!(&first, WireResponse::Ok { id: 1, .. }),
        "frame 1 scores: {first:?}"
    );
    for expected_id in 2..=3u64 {
        let response = read_response(&mut reader).unwrap().unwrap();
        match response {
            WireResponse::Busy { id, reason, .. } => {
                assert_eq!(id, expected_id);
                assert_eq!(reason, BusyReason::Quota);
            }
            other => panic!("frame {expected_id} expected busy(quota), got {other:?}"),
        }
    }
    drop(reader);

    let front = server.join().unwrap();
    assert_eq!(front.wire_requests, 3);
    assert_eq!(front.responses_ok, 1);
    assert_eq!(front.busy_quota, 2);
}

/// Priority lanes: once the normal lane's headroom is spent, normal
/// frames bounce `busy(lane)` while a high-lane frame in the same
/// pipelined batch still admits.
#[test]
fn high_lane_admits_past_the_normal_lane_headroom() {
    let service = ScoreService::new(
        fit(41, 1),
        ServeConfig {
            queue_capacity: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let service = Arc::new(service);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let front = FrontConfig {
                worker_threads: 1,
                max_conns: 1,
                lanes: LaneConfig {
                    per_client_inflight: 0,
                    // Queue capacity 4 → normal lane stops at depth 2.
                    normal_lane_headroom: 0.5,
                },
                ..FrontConfig::default()
            };
            serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
        })
    };

    let query = queries(1).remove(0);
    let mut burst = Vec::new();
    for (id, lane) in [
        (1, Lane::Normal), // depth 0 → admitted
        (2, Lane::Normal), // depth 1 → admitted
        (3, Lane::Normal), // depth 2 = threshold → busy(lane)
        (4, Lane::High),   // high lane ignores the headroom → admitted
    ] {
        write_request(
            &mut burst,
            &WireRequest {
                id,
                lane,
                deadline_ms: None,
                rows: query.clone(),
            },
        )
        .unwrap();
    }
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    use std::io::Write as _;
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(&burst).unwrap();
    writer.flush().unwrap();

    let mut retired = 0usize;
    while retired < 3 {
        let n = service.process_once();
        if n == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        retired += n;
    }

    let mut reader = std::io::BufReader::new(stream);
    let expect: [(u64, bool); 4] = [(1, true), (2, true), (3, false), (4, true)];
    for (id, ok) in expect {
        let response = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(response.id(), id);
        match (ok, response) {
            (true, WireResponse::Ok { .. }) => {}
            (false, WireResponse::Busy { reason, .. }) => {
                assert_eq!(reason, BusyReason::Lane)
            }
            (_, other) => panic!("frame {id}: unexpected {other:?}"),
        }
    }
    drop(reader);

    let front = server.join().unwrap();
    assert_eq!(front.responses_ok, 3);
    assert_eq!(front.busy_lane, 1);
}

/// A client that connects and sends nothing is closed at the idle
/// timeout; a concurrent client keeps scoring the whole time.
#[test]
fn idle_client_is_closed_without_stalling_others() {
    let mut service = ScoreService::new(fit(41, 1), ServeConfig::default()).unwrap();
    service.spawn_dispatcher();
    let service = Arc::new(service);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let front = FrontConfig {
                worker_threads: 2,
                max_conns: 2,
                idle_timeout: Duration::from_millis(150),
                ..FrontConfig::default()
            };
            serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
        })
    };

    // The silent client arrives first and would have pinned the old
    // single-threaded listener forever.
    let idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    let query = queries(1).remove(0);
    let offline = bits(&fit(41, 1).combined_scores(&query).unwrap());
    let mut client = WireClient::connect(&addr).unwrap();
    for _ in 0..3 {
        match client.score(&query, Lane::Normal, None).unwrap() {
            WireResponse::Ok { scores, .. } => assert_eq!(bits(&scores), offline),
            other => panic!("unexpected {other:?}"),
        }
    }
    drop(client);

    // The server hangs up on the idle socket: read returns EOF well
    // before our own 5s guard.
    use std::io::Read as _;
    let mut buf = [0u8; 1];
    let n = (&idle).read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection should be closed by the server");

    let front = server.join().unwrap();
    assert_eq!(front.conns_idle_closed, 1);
    assert_eq!(front.responses_ok, 3);
}

/// A malformed binary frame — or a connection that opens with anything
/// but a frame, such as a CSV line — is answered with an in-band error
/// frame and a close, never reaches the service, and the next connection
/// is served normally.
#[test]
fn malformed_frame_is_answered_in_band_and_never_kills_the_server() {
    let mut service = ScoreService::new(fit(41, 1), ServeConfig::default()).unwrap();
    service.spawn_dispatcher();
    let service = Arc::new(service);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let front = FrontConfig {
                worker_threads: 1,
                max_conns: 3,
                ..FrontConfig::default()
            };
            serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
        })
    };

    // A CSV line is not a frame: it is refused at the magic, in band,
    // and never admitted into the service queue.
    use std::io::Write as _;
    let admitted_before = service.report().admitted;
    let mut csv = TcpStream::connect(&addr).unwrap();
    // Shorter than a frame header: refused at the magic, not left
    // waiting for the header's remaining bytes.
    csv.write_all(b"0.5,1,2,3,4\n\n").unwrap();
    csv.flush().unwrap();
    let mut reader = std::io::BufReader::new(csv.try_clone().unwrap());
    match read_response(&mut reader).unwrap().unwrap() {
        WireResponse::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("magic"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(service.report().admitted, admitted_before);

    // Valid magic, unsupported version: enters the binary path, then
    // fails framing.
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(b"SWIR\x63\x01AAAAAAAA\x00\x00\x00\x00")
        .unwrap();
    bad.flush().unwrap();
    let mut reader = std::io::BufReader::new(bad.try_clone().unwrap());
    let response = read_response(&mut reader).unwrap().unwrap();
    match response {
        WireResponse::Error { id, message } => {
            assert_eq!(id, 0, "framing faults cannot trust any request id");
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The worker survived; a healthy client is served next.
    let query = queries(1).remove(0);
    let offline = bits(&fit(41, 1).combined_scores(&query).unwrap());
    let mut client = WireClient::connect(&addr).unwrap();
    match client.score(&query, Lane::Normal, None).unwrap() {
        WireResponse::Ok { scores, .. } => assert_eq!(bits(&scores), offline),
        other => panic!("unexpected {other:?}"),
    }
    drop(client);

    let front = server.join().unwrap();
    assert_eq!(front.responses_error, 2);
    assert_eq!(front.responses_ok, 1);
    assert_eq!(front.wire_requests, 1);
    assert_eq!(service.report().admitted, admitted_before + 1);
}

/// The binary protocol is bit-transparent end to end across worker
/// counts: 1 and 4 front workers produce identical response bytes for
/// the same request set (the cross-worker identity the CI gate holds).
#[test]
fn scores_are_bit_identical_across_front_worker_counts() {
    let query = queries(1).remove(0);
    let offline = bits(&fit(41, 2).combined_scores(&query).unwrap());

    for worker_threads in [1, 4] {
        let mut service = ScoreService::new(fit(41, 2), ServeConfig::default()).unwrap();
        service.spawn_dispatcher();
        let service = Arc::new(service);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let front = FrontConfig {
                    worker_threads,
                    max_conns: 3,
                    ..FrontConfig::default()
                };
                serve_front(&listener, &service, &front, &suod::observe::noop()).unwrap()
            })
        };
        let mut handles = Vec::new();
        for _ in 0..3 {
            let addr = addr.clone();
            let query = query.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = WireClient::connect(&addr).unwrap();
                match client.score(&query, Lane::Normal, None).unwrap() {
                    WireResponse::Ok { scores, .. } => bits(&scores),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        for handle in handles {
            assert_eq!(
                handle.join().unwrap(),
                offline,
                "front with {worker_threads} workers must stay bit-exact"
            );
        }
        server.join().unwrap();
    }
}

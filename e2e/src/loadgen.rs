//! Load generators over `suod-wire/1`: a closed loop (a window of frames in
//! flight per keep-alive connection) and an open loop (one connection, a
//! paced sender and a reader, send times on an absolute schedule and
//! latency counted from the due time). Every response is checked against
//! the offline oracle; anything but `Ok` with bit-equal scores fails.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use suod_linalg::Matrix;
use suod_serve::wire::{read_response, write_request};
use suod_serve::{Lane, WireRequest, WireResponse};

/// How long a client waits for one response before declaring the stream
/// dead; far above any latency the workloads produce.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The request matrices a workload cycles through, each with the bits
/// offline `combined_scores` gives for it.
pub struct RequestSet {
    frames: Vec<WireRequest>,
    expected: Vec<Vec<u64>>,
}

impl RequestSet {
    pub fn new(queries: Vec<Matrix>, expected: Vec<Vec<u64>>) -> Self {
        assert_eq!(queries.len(), expected.len());
        let frames = queries
            .into_iter()
            .map(|rows| WireRequest {
                id: 0,
                lane: Lane::Normal,
                deadline_ms: None,
                rows,
            })
            .collect();
        RequestSet { frames, expected }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn query(&self, qi: usize) -> &Matrix {
        &self.frames[qi].rows
    }

    pub fn expected(&self, qi: usize) -> &[u64] {
        &self.expected[qi]
    }

    fn frame(&self, qi: usize, id: u64) -> WireRequest {
        let mut frame = self.frames[qi].clone();
        frame.id = id;
        frame
    }
}

/// Requests sent and requests that did not come back exactly right.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What reading one response gave.
#[derive(Debug, PartialEq, Eq)]
pub enum Answer {
    /// `Ok` frame, right id, scores bit-equal to the oracle.
    Exact,
    /// A well-formed frame for this request that is not that: busy, shed,
    /// error, or scores that differ. The stream stays usable.
    Wrong,
    /// Clean EOF, I/O error, malformed frame or a foreign id: nothing more
    /// can be matched on this stream.
    Dead,
}

/// Reads the next response frame, which must answer request `id` with
/// exactly the `expected` score bits.
pub fn read_checked<R: Read>(reader: &mut R, id: u64, expected: &[u64]) -> Answer {
    match read_response(reader) {
        Ok(Some(response)) if response.id() != id => Answer::Dead,
        Ok(Some(WireResponse::Ok { scores, .. })) => {
            if scores.len() == expected.len()
                && scores.iter().zip(expected).all(|(s, &e)| s.to_bits() == e)
            {
                Answer::Exact
            } else {
                Answer::Wrong
            }
        }
        Ok(Some(_)) => Answer::Wrong,
        Ok(None) | Err(_) => Answer::Dead,
    }
}

/// One keep-alive client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
        })
    }
}

/// One connection's share of a closed-loop chunk.
pub struct ConnResult {
    pub tally: Tally,
    /// Rows in exactly-answered requests.
    pub rows: usize,
    /// Send-to-receive latency of every exactly-answered request, µs.
    pub lat_us: Vec<f64>,
}

/// Sends `n` requests (queries `first`, `first + 1`, … cyclically) keeping
/// at most `window` in flight, and checks every response.
pub fn closed_conn(
    conn: &mut Conn,
    set: &RequestSet,
    first: usize,
    n: usize,
    window: usize,
) -> ConnResult {
    let mut out = ConnResult {
        tally: Tally {
            attempted: n as u64,
            failed: 0,
        },
        rows: 0,
        lat_us: Vec::with_capacity(n),
    };
    let mut answered = 0usize;
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(window);
    let mut drain_one =
        |conn: &mut Conn, inflight: &mut VecDeque<(u64, usize, Instant)>, out: &mut ConnResult| {
            let (id, qi, sent) = inflight.pop_front().expect("drain with a frame in flight");
            let answer = read_checked(&mut conn.reader, id, set.expected(qi));
            match answer {
                Answer::Exact => {
                    out.rows += set.query(qi).nrows();
                    out.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    answered += 1;
                }
                Answer::Wrong => {
                    out.tally.failed += 1;
                    answered += 1;
                }
                Answer::Dead => {}
            }
            answer != Answer::Dead
        };
    'send: for i in 0..n {
        let qi = (first + i) % set.len();
        let id = conn.next_id;
        conn.next_id += 1;
        if write_request(&mut conn.writer, &set.frame(qi, id)).is_err() {
            break;
        }
        inflight.push_back((id, qi, Instant::now()));
        while inflight.len() >= window {
            if !drain_one(conn, &mut inflight, &mut out) {
                break 'send;
            }
        }
    }
    while !inflight.is_empty() && drain_one(conn, &mut inflight, &mut out) {}
    // Whatever was never answered (unsent, or in flight on a dead stream).
    out.tally.failed += (n - answered) as u64;
    out
}

/// One closed-loop chunk over all `conns` at once, one thread each.
pub struct ClosedChunk {
    pub tally: Tally,
    pub rows_per_s: f64,
    pub lat_us: Vec<f64>,
}

pub fn closed_chunk(
    conns: &mut [Conn],
    set: &RequestSet,
    first: usize,
    per_conn: usize,
    window: usize,
) -> ClosedChunk {
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || closed_conn(conn, set, first + c * per_conn, per_conn, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut chunk = ClosedChunk {
        tally: Tally::default(),
        rows_per_s: 0.0,
        lat_us: Vec::new(),
    };
    let mut rows = 0usize;
    for r in results {
        chunk.tally.add(r.tally);
        rows += r.rows;
        chunk.lat_us.extend(r.lat_us);
    }
    chunk.rows_per_s = rows as f64 / wall_s;
    chunk
}

/// Absolute send schedule: request `i` is due at `start + i / rate`
/// whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }

    /// Microseconds from the due time of request `i` to `at`; 0 when early.
    pub fn us_past_due(&self, i: usize, at: Instant) -> f64 {
        at.saturating_duration_since(self.due(i)).as_secs_f64() * 1e6
    }
}

/// Runs `send(i)` for `i` in `0..n` at the schedule's due times, sleeping
/// (never spinning) until each is due and never re-basing the schedule on
/// a late send. Returns how late the generator was ready for each request
/// it sent, in µs; stops at the first send error.
pub fn pace(
    schedule: &Schedule,
    n: usize,
    mut send: impl FnMut(usize) -> io::Result<()>,
) -> Vec<f64> {
    let mut late_us = Vec::with_capacity(n);
    for i in 0..n {
        let wait = schedule.due(i).saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let ready = Instant::now();
        if send(i).is_err() {
            break;
        }
        late_us.push(schedule.us_past_due(i, ready));
    }
    late_us
}

/// One open-loop chunk.
pub struct OpenChunk {
    pub tally: Tally,
    /// Due-time-to-receive latency of every exactly-answered request, µs.
    pub lat_us: Vec<f64>,
    /// Generator lateness per request sent, µs.
    pub late_us: Vec<f64>,
}

/// Sends `n` requests on `conn` at `rate_per_s` from a sender thread while
/// this thread reads and checks the responses.
pub fn open_chunk(
    conn: &mut Conn,
    set: &RequestSet,
    first: usize,
    n: usize,
    rate_per_s: f64,
) -> OpenChunk {
    let Conn {
        writer,
        reader,
        next_id,
    } = conn;
    let base_id = *next_id;
    *next_id += n as u64;
    // A short lead so request 0 is not late by the thread spawn.
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(2), rate_per_s);
    let mut lat_us = Vec::with_capacity(n);
    let mut tally = Tally {
        attempted: n as u64,
        failed: 0,
    };
    let mut answered = 0usize;
    let late_us = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let late = pace(&schedule, n, |i| {
                let qi = (first + i) % set.len();
                write_request(writer, &set.frame(qi, base_id + i as u64))
            });
            if late.len() < n {
                // Unblock the reader: nothing more will be sent.
                let _ = writer.shutdown(Shutdown::Both);
            }
            late
        });
        for i in 0..n {
            let qi = (first + i) % set.len();
            match read_checked(reader, base_id + i as u64, set.expected(qi)) {
                Answer::Exact => lat_us.push(schedule.us_past_due(i, Instant::now())),
                Answer::Wrong => tally.failed += 1,
                Answer::Dead => break,
            }
            answered += 1;
        }
        sender.join().expect("open-loop sender thread")
    });
    tally.failed += (n - answered) as u64;
    OpenChunk {
        tally,
        lat_us,
        late_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suod_serve::wire::write_response;
    use suod_serve::BusyReason;

    fn ok_frame(id: u64, scores: &[f64]) -> WireResponse {
        WireResponse::Ok {
            id,
            scores: scores.to_vec(),
            healthy_models: 1,
            total_models: 1,
            latency_ms: 0,
        }
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn frame_reader_accepts_only_bit_equal_ok_frames() {
        let mut wire = Vec::new();
        write_response(&mut wire, &ok_frame(1, &[0.5, -1.25])).unwrap();
        write_response(&mut wire, &ok_frame(2, &[0.5, -1.25])).unwrap();
        write_response(&mut wire, &ok_frame(3, &[0.5])).unwrap();
        write_response(
            &mut wire,
            &WireResponse::Busy {
                id: 4,
                capacity: 8,
                reason: BusyReason::Queue,
            },
        )
        .unwrap();
        write_response(&mut wire, &ok_frame(99, &[0.5])).unwrap();
        let mut r = io::Cursor::new(wire);
        let want = bits(&[0.5, -1.25]);
        assert_eq!(read_checked(&mut r, 1, &want), Answer::Exact);
        // One ulp off is a failure, not a rounding difference.
        let off = vec![want[0] + 1, want[1]];
        assert_eq!(read_checked(&mut r, 2, &off), Answer::Wrong);
        assert_eq!(read_checked(&mut r, 3, &want), Answer::Wrong); // length
        assert_eq!(read_checked(&mut r, 4, &want), Answer::Wrong); // busy
        assert_eq!(read_checked(&mut r, 5, &bits(&[0.5])), Answer::Dead); // foreign id
        assert_eq!(read_checked(&mut r, 6, &want), Answer::Dead); // clean EOF
    }

    #[test]
    fn frame_reader_survives_garbage_and_truncation() {
        let mut garbage = io::Cursor::new(b"not a frame at all, really".to_vec());
        assert_eq!(read_checked(&mut garbage, 1, &[]), Answer::Dead);
        let mut wire = Vec::new();
        write_response(&mut wire, &ok_frame(1, &[1.0, 2.0, 3.0])).unwrap();
        wire.truncate(wire.len() - 5);
        assert_eq!(
            read_checked(&mut io::Cursor::new(wire), 1, &bits(&[1.0, 2.0, 3.0])),
            Answer::Dead
        );
    }

    #[test]
    fn schedule_is_absolute() {
        let start = Instant::now();
        let s = Schedule::new(start, 250.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(100), start + Duration::from_millis(400));
        // Latency is counted from the due time, and is 0 (not negative)
        // for an answer that somehow beats it.
        assert_eq!(
            s.us_past_due(100, start + Duration::from_millis(403)),
            3000.0
        );
        assert_eq!(s.us_past_due(100, start), 0.0);
    }

    #[test]
    fn generator_accounts_lateness_and_keeps_the_schedule() {
        // 20 requests at 1 kHz; the send of request 5 stalls for 6 ms.
        let schedule = Schedule::new(Instant::now() + Duration::from_millis(1), 1000.0);
        let mut sent_at = Vec::new();
        let late = pace(&schedule, 20, |i| {
            sent_at.push(Instant::now());
            if i == 5 {
                std::thread::sleep(Duration::from_millis(6));
            }
            Ok(())
        });
        assert_eq!(late.len(), 20);
        // Nothing is sent before it is due.
        for (i, at) in sent_at.iter().enumerate() {
            assert!(*at >= schedule.due(i), "request {i} sent early");
        }
        // The stall makes request 6 at least 5 ms late (due 1 ms after
        // request 5, ready 6 ms after it) and the lateness is reported …
        assert!(late[6] >= 4900.0, "lateness {} not accounted", late[6]);
        // … and the backlog is sent without waiting, so the schedule is
        // caught up rather than shifted: the whole run is not 6 ms longer.
        let total = sent_at[19].duration_since(schedule.start);
        assert!(total >= Duration::from_millis(19));
        assert!(
            sent_at[7].duration_since(sent_at[6]) < Duration::from_millis(1),
            "backlog must be sent back to back"
        );
    }

    #[test]
    fn generator_stops_at_the_first_send_error() {
        let schedule = Schedule::new(Instant::now(), 10_000.0);
        let late = pace(&schedule, 10, |i| {
            if i == 3 {
                Err(io::Error::other("peer went away"))
            } else {
                Ok(())
            }
        });
        assert_eq!(late.len(), 3);
    }
}

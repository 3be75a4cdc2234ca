//! The `suod-wire/1` binary wire protocol.
//!
//! The serving front end's framed request/response format — hand-rolled
//! and dependency-free in the style of the `suod-pool` snapshot
//! format. Scores cross the wire as raw little-endian `f64` bits, so a
//! client reads back **exactly** the bytes `decision_function` produced:
//! no float formatting, no parsing, no round-trip loss. Frames are
//! length-prefixed and carry a client-chosen request id, so many
//! requests can pipeline over one keep-alive connection and each
//! response names the request it answers.
//!
//! # Frame layout
//!
//! ```text
//! 4 bytes   magic b"SWIR"
//! u8        version (1)
//! u8        frame type
//! u64 LE    request id (echoed verbatim in the response)
//! u32 LE    body length in bytes
//! [body]
//! ```
//!
//! Request body (`FRAME_REQUEST`):
//!
//! ```text
//! u8        lane (0 = normal, 1 = high priority)
//! u8        deadline flag (0 = none, 1 = present)
//! u64 LE    deadline budget in ms (only when the flag is 1)
//! u32 LE    n_rows · u32 LE n_cols
//! n_rows x n_cols f64 LE   row-major feature payload
//! ```
//!
//! Response bodies:
//!
//! * `FRAME_OK` — `u32 n_scores · n_scores x f64 LE · u32 healthy ·
//!   u32 total · u64 latency_ms`
//! * `FRAME_BUSY` — `u32 capacity · u8 reason (0 = queue, 1 = quota,
//!   2 = lane)`
//! * `FRAME_SHED` — `u64 waited_ms · u64 deadline_ms`
//! * `FRAME_ERROR` — `u32 msg_len · UTF-8 bytes`
//!
//! Every multi-byte integer is little-endian. Decoding is strict: a bad
//! magic, unknown version, unknown frame type, truncated body, or
//! trailing body bytes is a typed [`WireError::Malformed`], never a
//! panic — and never trusted enough to keep reading the stream.

use std::io::{self, Read, Write};
use suod_linalg::Matrix;

/// Leading magic bytes of every `suod-wire` frame.
pub const WIRE_MAGIC: &[u8; 4] = b"SWIR";

/// Protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Human-readable protocol name (magic + version), printed by the CLI.
pub const WIRE_FORMAT: &str = "suod-wire/1";

/// Upper bound on a frame body — a sanity guard so a corrupt or hostile
/// length prefix can never ask the server for an absurd allocation.
/// 1 GiB comfortably fits any realistic score batch (a 1024-row x
/// 16k-feature request is 128 MiB).
pub const MAX_FRAME_BODY: u32 = 1 << 30;

/// Most body bytes [`read_frame`] reserves before they arrive; a larger
/// body grows its buffer as it is received.
const BODY_PREALLOC: usize = 64 * 1024;

/// Frame type tags. Requests use the low range, responses the high bit.
pub const FRAME_REQUEST: u8 = 0x01;
/// Response: scored.
pub const FRAME_OK: u8 = 0x81;
/// Response: turned away at admission (queue, quota, or lane).
pub const FRAME_BUSY: u8 = 0x82;
/// Response: shed at batch assembly after the deadline expired.
pub const FRAME_SHED: u8 = 0x83;
/// Response: request-level failure, answered in-band.
pub const FRAME_ERROR: u8 = 0x84;

/// Admission lane a request rides in. The high lane keeps being
/// admitted after queue occupancy crosses the normal lane's headroom —
/// the two-lane overload policy (see `suod_serve::lanes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Best-effort traffic: turned away first under overload.
    #[default]
    Normal,
    /// Priority traffic: admitted up to the queue's full capacity.
    High,
}

impl Lane {
    fn tag(self) -> u8 {
        match self {
            Lane::Normal => 0,
            Lane::High => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Lane::Normal),
            1 => Ok(Lane::High),
            other => Err(WireError::Malformed(format!("unknown lane tag {other}"))),
        }
    }

    /// Stable CLI/debug spelling.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Normal => "normal",
            Lane::High => "high",
        }
    }
}

/// Why a wire request was answered `busy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The service's bounded admission queue was full.
    Queue,
    /// The client identity was already at its in-flight quota.
    Quota,
    /// A normal-lane request arrived past the lane headroom.
    Lane,
}

impl BusyReason {
    fn tag(self) -> u8 {
        match self {
            BusyReason::Queue => 0,
            BusyReason::Quota => 1,
            BusyReason::Lane => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(BusyReason::Queue),
            1 => Ok(BusyReason::Quota),
            2 => Ok(BusyReason::Lane),
            other => Err(WireError::Malformed(format!(
                "unknown busy reason tag {other}"
            ))),
        }
    }

    /// Stable debug spelling.
    pub fn name(self) -> &'static str {
        match self {
            BusyReason::Queue => "queue",
            BusyReason::Quota => "quota",
            BusyReason::Lane => "lane",
        }
    }
}

/// One framed score request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen id echoed verbatim in the response frame.
    pub id: u64,
    /// Admission lane.
    pub lane: Lane,
    /// Optional per-request deadline budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Feature rows to score.
    pub rows: Matrix,
}

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Scores plus the batch-health summary.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Combined ensemble score per submitted row (exact bits).
        scores: Vec<f64>,
        /// Models that produced usable columns for the carrying batch.
        healthy_models: u32,
        /// Models in the served ensemble.
        total_models: u32,
        /// Admission-to-response latency in service-clock ms.
        latency_ms: u64,
    },
    /// Turned away at admission; retry later.
    Busy {
        /// Echoed request id.
        id: u64,
        /// The admission-queue capacity in force.
        capacity: u32,
        /// Which admission gate said no.
        reason: BusyReason,
    },
    /// Shed at batch assembly because the deadline had already passed.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Milliseconds the request waited before being dropped.
        waited_ms: u64,
        /// The deadline budget it was admitted with.
        deadline_ms: u64,
    },
    /// Request-level failure, answered in-band (the connection stays
    /// usable unless the error was a framing fault).
    Error {
        /// Echoed request id.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
}

impl WireResponse {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            WireResponse::Ok { id, .. }
            | WireResponse::Busy { id, .. }
            | WireResponse::Shed { id, .. }
            | WireResponse::Error { id, .. } => *id,
        }
    }
}

/// Errors surfaced by the wire codec.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes read/write timeouts).
    Io(io::Error),
    /// The bytes violated the `suod-wire/1` framing. The stream can no
    /// longer be trusted and should be closed.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(msg) => write!(f, "malformed {WIRE_FORMAT} frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// `true` when the error is a read timeout — the signal the server's
    /// keep-alive loop uses to tell an idle client from a dead one.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

// ---------------------------------------------------------------------
// Little-endian body builders/readers. The body is assembled in memory
// and written with one `write_all`, so a frame is never interleaved
// with another thread's bytes and short writes cannot tear it.
// ---------------------------------------------------------------------

struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn new() -> Self {
        BodyWriter { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError::Malformed(format!(
                    "body truncated: wanted {n} bytes at offset {}, body is {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing body bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn write_frame<W: Write>(w: &mut W, frame_type: u8, id: u64, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + 1 + 1 + 8 + 4 + body.len());
    frame.extend_from_slice(WIRE_MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(frame_type);
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Reads one frame header + body. `Ok(None)` is a clean EOF *before any
/// header byte* — the peer closed its keep-alive connection between
/// requests. EOF mid-frame is [`WireError::Malformed`].
fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, u64, Vec<u8>)>, WireError> {
    let mut header = [0u8; 4 + 1 + 1 + 8 + 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Malformed(format!(
                    "eof after {filled} header bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
        // Refuse a wrong magic as soon as its four bytes are in: a peer
        // speaking another protocol (a CSV line, say) is answered without
        // having to send a full header's worth of bytes first.
        if filled >= 4 && &header[..4] != WIRE_MAGIC {
            return Err(WireError::Malformed(format!(
                "bad magic {:02x?} (expected {WIRE_MAGIC:02x?})",
                &header[..4]
            )));
        }
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported version {} (this build speaks {WIRE_VERSION})",
            header[4]
        )));
    }
    let frame_type = header[5];
    let id = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let body_len = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    if body_len > MAX_FRAME_BODY {
        return Err(WireError::Malformed(format!(
            "body length {body_len} exceeds the {MAX_FRAME_BODY}-byte cap"
        )));
    }
    // The header is a claim, not a payment: the buffer grows with the
    // bytes that actually arrive, so a peer that declares a large body and
    // then stops sending costs at most `BODY_PREALLOC` up front.
    let mut body = Vec::with_capacity((body_len as usize).min(BODY_PREALLOC));
    r.take(u64::from(body_len))
        .read_to_end(&mut body)
        .map_err(WireError::Io)?;
    if body.len() < body_len as usize {
        return Err(WireError::Malformed("eof inside frame body".to_string()));
    }
    Ok(Some((frame_type, id, body)))
}

/// Encodes and writes one request frame.
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_request<W: Write>(w: &mut W, request: &WireRequest) -> io::Result<()> {
    let mut body = BodyWriter::new();
    body.u8(request.lane.tag());
    match request.deadline_ms {
        None => body.u8(0),
        Some(ms) => {
            body.u8(1);
            body.u64(ms);
        }
    }
    body.u32(request.rows.nrows() as u32);
    body.u32(request.rows.ncols() as u32);
    body.f64s(request.rows.as_slice());
    write_frame(w, FRAME_REQUEST, request.id, &body.buf)
}

/// Reads one request frame. `Ok(None)` on clean EOF between frames.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure (including read timeouts — see
/// [`WireError::is_timeout`]); [`WireError::Malformed`] when the bytes
/// violate the framing, after which the stream should be closed.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<WireRequest>, WireError> {
    let Some((frame_type, id, body)) = read_frame(r)? else {
        return Ok(None);
    };
    if frame_type != FRAME_REQUEST {
        return Err(WireError::Malformed(format!(
            "expected a request frame, got type {frame_type:#04x}"
        )));
    }
    let mut body = BodyReader::new(&body);
    let lane = Lane::from_tag(body.u8()?)?;
    let deadline_ms = match body.u8()? {
        0 => None,
        1 => Some(body.u64()?),
        other => {
            return Err(WireError::Malformed(format!(
                "unknown deadline flag {other}"
            )))
        }
    };
    let n_rows = body.u32()? as usize;
    let n_cols = body.u32()? as usize;
    let expected = n_rows
        .checked_mul(n_cols)
        .filter(|&cells| cells * 8 <= MAX_FRAME_BODY as usize)
        .ok_or_else(|| {
            WireError::Malformed(format!("implausible payload shape {n_rows} x {n_cols}"))
        })?;
    let data = body.f64s(expected)?;
    body.finish()?;
    let rows = Matrix::from_vec(n_rows, n_cols, data)
        .map_err(|e| WireError::Malformed(format!("payload is not a matrix: {e}")))?;
    Ok(Some(WireRequest {
        id,
        lane,
        deadline_ms,
        rows,
    }))
}

/// Encodes and writes one response frame.
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_response<W: Write>(w: &mut W, response: &WireResponse) -> io::Result<()> {
    let mut body = BodyWriter::new();
    match response {
        WireResponse::Ok {
            id,
            scores,
            healthy_models,
            total_models,
            latency_ms,
        } => {
            body.u32(scores.len() as u32);
            body.f64s(scores);
            body.u32(*healthy_models);
            body.u32(*total_models);
            body.u64(*latency_ms);
            write_frame(w, FRAME_OK, *id, &body.buf)
        }
        WireResponse::Busy {
            id,
            capacity,
            reason,
        } => {
            body.u32(*capacity);
            body.u8(reason.tag());
            write_frame(w, FRAME_BUSY, *id, &body.buf)
        }
        WireResponse::Shed {
            id,
            waited_ms,
            deadline_ms,
        } => {
            body.u64(*waited_ms);
            body.u64(*deadline_ms);
            write_frame(w, FRAME_SHED, *id, &body.buf)
        }
        WireResponse::Error { id, message } => {
            let bytes = message.as_bytes();
            body.u32(bytes.len() as u32);
            body.buf.extend_from_slice(bytes);
            write_frame(w, FRAME_ERROR, *id, &body.buf)
        }
    }
}

/// Reads one response frame. `Ok(None)` on clean EOF between frames.
///
/// # Errors
///
/// Same conditions as [`read_request`].
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<WireResponse>, WireError> {
    let Some((frame_type, id, body)) = read_frame(r)? else {
        return Ok(None);
    };
    let mut body = BodyReader::new(&body);
    let response = match frame_type {
        FRAME_OK => {
            let n = body.u32()? as usize;
            if n * 8 > MAX_FRAME_BODY as usize {
                return Err(WireError::Malformed(format!("implausible score count {n}")));
            }
            let scores = body.f64s(n)?;
            let healthy_models = body.u32()?;
            let total_models = body.u32()?;
            let latency_ms = body.u64()?;
            WireResponse::Ok {
                id,
                scores,
                healthy_models,
                total_models,
                latency_ms,
            }
        }
        FRAME_BUSY => {
            let capacity = body.u32()?;
            let reason = BusyReason::from_tag(body.u8()?)?;
            WireResponse::Busy {
                id,
                capacity,
                reason,
            }
        }
        FRAME_SHED => {
            let waited_ms = body.u64()?;
            let deadline_ms = body.u64()?;
            WireResponse::Shed {
                id,
                waited_ms,
                deadline_ms,
            }
        }
        FRAME_ERROR => {
            let len = body.u32()? as usize;
            let bytes = body.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| WireError::Malformed("error message is not UTF-8".to_string()))?;
            WireResponse::Error { id, message }
        }
        other => {
            return Err(WireError::Malformed(format!(
                "expected a response frame, got type {other:#04x}"
            )))
        }
    };
    body.finish()?;
    Ok(Some(response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, d: usize) -> Matrix {
        let data: Vec<f64> = (0..n * d)
            .map(|i| (i as f64 * 0.37 - 3.0) * 1e-3 + (i % 7) as f64)
            .collect();
        Matrix::from_vec(n, d, data).unwrap()
    }

    #[test]
    fn request_round_trips_exact_bits() {
        for (lane, deadline) in [
            (Lane::Normal, None),
            (Lane::High, Some(250)),
            (Lane::Normal, Some(0)),
        ] {
            let request = WireRequest {
                id: 0xdead_beef_cafe_f00d,
                lane,
                deadline_ms: deadline,
                rows: rows(5, 3),
            };
            let mut buf = Vec::new();
            write_request(&mut buf, &request).unwrap();
            let decoded = read_request(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(decoded, request);
            // The payload crossed as raw bits, not formatted text.
            assert_eq!(
                decoded
                    .rows
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                request
                    .rows
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            WireResponse::Ok {
                id: 7,
                scores: vec![1.5, -0.25, f64::MIN_POSITIVE, 1e300],
                healthy_models: 5,
                total_models: 6,
                latency_ms: 12,
            },
            WireResponse::Busy {
                id: 8,
                capacity: 64,
                reason: BusyReason::Quota,
            },
            WireResponse::Shed {
                id: 9,
                waited_ms: 120,
                deadline_ms: 100,
            },
            WireResponse::Error {
                id: 10,
                message: "expected 3 features, got 5".into(),
            },
        ];
        let mut buf = Vec::new();
        for case in &cases {
            write_response(&mut buf, case).unwrap();
        }
        let mut cursor = buf.as_slice();
        for case in &cases {
            let decoded = read_response(&mut cursor).unwrap().unwrap();
            assert_eq!(&decoded, case);
            assert_eq!(decoded.id(), case.id());
        }
        // Clean EOF after the last frame.
        assert!(read_response(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_decode_in_order() {
        let mut buf = Vec::new();
        for id in 0..5u64 {
            write_request(
                &mut buf,
                &WireRequest {
                    id,
                    lane: Lane::Normal,
                    deadline_ms: None,
                    rows: rows(2, 2),
                },
            )
            .unwrap();
        }
        let mut cursor = buf.as_slice();
        for id in 0..5u64 {
            assert_eq!(read_request(&mut cursor).unwrap().unwrap().id, id);
        }
        assert!(read_request(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Bad magic.
        let err = read_request(&mut &b"NOPE\x01\x01aaaaaaaa\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");

        // Unknown version.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &WireRequest {
                id: 1,
                lane: Lane::Normal,
                deadline_ms: None,
                rows: rows(1, 1),
            },
        )
        .unwrap();
        let mut skewed = buf.clone();
        skewed[4] = 99;
        assert!(matches!(
            read_request(&mut skewed.as_slice()).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Truncated body: eof inside the frame is malformed, not clean.
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            read_request(&mut &truncated[..]).unwrap_err(),
            WireError::Malformed(_)
        ));

        // Trailing garbage inside a declared body.
        let mut padded = buf.clone();
        let body_len_at = 14;
        let old = u32::from_le_bytes(padded[body_len_at..body_len_at + 4].try_into().unwrap());
        padded[body_len_at..body_len_at + 4].copy_from_slice(&(old + 2).to_le_bytes());
        padded.extend_from_slice(&[0, 0]);
        assert!(matches!(
            read_request(&mut padded.as_slice()).unwrap_err(),
            WireError::Malformed(_)
        ));

        // A response frame on the request channel is rejected.
        let mut resp = Vec::new();
        write_response(
            &mut resp,
            &WireResponse::Busy {
                id: 1,
                capacity: 4,
                reason: BusyReason::Queue,
            },
        )
        .unwrap();
        assert!(matches!(
            read_request(&mut resp.as_slice()).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    /// Yields its bytes one per `read` call and panics if asked for more:
    /// proves how far the decoder reads before it answers.
    struct Trickle<'a> {
        bytes: &'a [u8],
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (first, rest) = self
                .bytes
                .split_first()
                .expect("decoder read past the bytes it needed");
            buf[0] = *first;
            self.bytes = rest;
            Ok(1)
        }
    }

    #[test]
    fn wrong_magic_is_refused_once_its_four_bytes_are_in() {
        // A short CSV line is answered at its fourth byte; a live socket
        // would otherwise block here waiting for the rest of a header.
        let err = read_request(&mut Trickle { bytes: b"0.5," }).unwrap_err();
        let WireError::Malformed(msg) = err else {
            panic!("expected Malformed, got {err}");
        };
        assert!(msg.contains("bad magic"), "{msg}");
        // A right magic keeps reading.
        let mut frame = Vec::new();
        write_request(
            &mut frame,
            &WireRequest {
                id: 3,
                lane: Lane::Normal,
                deadline_ms: None,
                rows: rows(1, 2),
            },
        )
        .unwrap();
        let decoded = read_request(&mut Trickle { bytes: &frame })
            .unwrap()
            .unwrap();
        assert_eq!(decoded.id, 3);
    }

    #[test]
    fn eof_inside_a_header_is_malformed_not_clean() {
        assert!(read_request(&mut &b""[..]).unwrap().is_none());
        for partial in [&b"SW"[..], b"SWIR", b"SWIR\x01\x01\x00", b"ab"] {
            let err = read_request(&mut &partial[..]).unwrap_err();
            let WireError::Malformed(msg) = err else {
                panic!("{partial:?}: expected Malformed, got {err}");
            };
            assert!(
                msg.contains(&format!("eof after {} header bytes", partial.len())),
                "{partial:?}: {msg}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut frame = Vec::new();
        frame.extend_from_slice(WIRE_MAGIC);
        frame.push(WIRE_VERSION);
        frame.push(FRAME_REQUEST);
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_request(&mut frame.as_slice()).unwrap_err(),
            WireError::Malformed(_)
        ));
    }
}

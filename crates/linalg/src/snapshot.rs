//! Byte-level codec for the `suod-pool` snapshot format (`suod-pool/4`;
//! `suod-pool/1` to `/3` still read).
//!
//! Hand-rolled (serde-free) little-endian encoding, in the same spirit as
//! the `suod-trace/1` JSON schema in `suod-observe`: every field is
//! written explicitly, in a fixed order, with no reflection — so the byte
//! stream is a *contract*, not an implementation detail. Higher layers
//! (detectors, regressors, projectors, the `Suod` orchestrator) compose
//! [`SnapshotWriter`]/[`SnapshotReader`] into the full pool snapshot.
//!
//! # Encoding rules
//!
//! * Integers are `u64` little-endian (lengths, counts, indices), except
//!   HNSW graph arrays, which are length-prefixed `u32` little-endian
//!   ([`SnapshotWriter::write_u32s`]), the width the graph stores them in.
//! * `f64` values are written as their IEEE-754 **bit pattern** in
//!   little-endian order — round-tripping is bit-exact, including NaN
//!   payloads and signed zeros. This is what makes the pool-level
//!   contract (`load(save(pool))` scores bitwise-equal) possible.
//! * Strings are length-prefixed UTF-8.
//! * `Option<T>` is a `u8` tag (0 = None, 1 = Some) followed by the value.
//! * Matrices are `(nrows, ncols, row-major f64 bits)`.
//!
//! Decoding is defensive: every read validates remaining length and
//! returns a typed [`Error::InvalidParameter`] with a `snapshot:` prefix
//! instead of panicking, so a truncated or corrupt snapshot surfaces as a
//! recoverable error at the `Suod::load` boundary. A vector is decoded
//! one way: its byte length (checked for overflow) is taken from the
//! bytes that remain, before anything is allocated for it, and converted
//! with `chunks_exact`.
//!
//! # Versions
//!
//! A [`SnapshotReader`] carries the format version of the file it reads
//! (the top-level loader sets it once; [`SnapshotReader::nested`]
//! readers inherit it). Version 2 added the built HNSW graph to each
//! neighbour-index record; a version-1 index record carries none and its
//! graph is rebuilt at load. Version 3 stores every fitted value once:
//! detector records lose the training scores the pool already holds, and
//! the precision byte of a [`KernelConfig`] record is gone. Version 4
//! changes only the signature over the payload, not a byte of it, so no
//! record reader tells version 4 from version 3.
//!
//! That byte is a remnant of a mixed f32-storage mode. Version 1 and 2
//! records carry it, always `0` (f64) when this build's predecessors
//! wrote it; a `1` (the retired mixed mode) is refused, since loading such
//! a pool as f64 would change its scores without a word.

use crate::hnsw::{HnswParams, NeighborBackend};
use crate::{DistanceBackend, DistanceMetric, Error, KernelConfig, KnnIndex, Matrix, Result};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The `suod-pool` format version this build writes, and the newest it
/// reads.
pub const SNAPSHOT_VERSION: u64 = 4;

/// The oldest `suod-pool` format version this build reads.
pub const OLDEST_SNAPSHOT_VERSION: u64 = 1;

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` little-endian.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes a bool as one byte (0/1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice (bit patterns).
    pub fn write_f64s(&mut self, v: &[f64]) {
        self.write_usize(v.len());
        for &x in v {
            self.write_f64(x);
        }
    }

    /// Writes a length-prefixed `u32` slice (each value little-endian).
    pub fn write_u32s(&mut self, v: &[u32]) {
        self.write_usize(v.len());
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn write_usizes(&mut self, v: &[usize]) {
        self.write_usize(v.len());
        for &x in v {
            self.write_usize(x);
        }
    }

    /// Writes an optional `u64` (presence tag + value).
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
            None => self.write_u8(0),
        }
    }

    /// Writes a matrix as `(nrows, ncols, row-major bits)`.
    pub fn write_matrix(&mut self, m: &Matrix) {
        self.write_usize(m.nrows());
        self.write_usize(m.ncols());
        for &x in m.as_slice() {
            self.write_f64(x);
        }
    }

    /// Writes a distance metric (tag + Minkowski exponent bits).
    pub fn write_metric(&mut self, metric: DistanceMetric) {
        match metric {
            DistanceMetric::Euclidean => self.write_u8(0),
            DistanceMetric::Manhattan => self.write_u8(1),
            DistanceMetric::Minkowski(p) => {
                self.write_u8(2);
                self.write_f64(p);
            }
        }
    }

    /// Writes a full [`KernelConfig`] including the neighbour backend.
    pub fn write_kernel_config(&mut self, config: &KernelConfig) {
        self.write_u8(match config.backend {
            DistanceBackend::Naive => 0,
            DistanceBackend::Blocked => 1,
            DistanceBackend::Gemm => 2,
        });
        self.write_usize(config.kdtree_crossover_dim);
        self.write_usize(config.kdtree_min_rows);
        match config.neighbor {
            NeighborBackend::Exact => self.write_u8(0),
            NeighborBackend::Hnsw(p) => {
                self.write_u8(1);
                self.write_usize(p.m);
                self.write_usize(p.ef_construction);
                self.write_usize(p.ef_search);
                self.write_u64(p.seed);
                self.write_usize(p.min_rows);
            }
        }
    }
}

/// An `f64` from its 8 little-endian bytes.
fn f64_le(b: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

pub(crate) fn corrupt(what: &str) -> Error {
    Error::InvalidParameter(format!("snapshot: {what}"))
}

/// Why a kernel config with precision tag `1` does not load.
const RETIRED_MIXED_PRECISION: &str = "kernel config uses the retired mixed-precision \
     (f32 storage) mode; this build computes f64 distances only and will not score the \
     pool with different distances than it was fitted with";

/// Neighbour indexes decoded so far during one snapshot load, shared by
/// a reader and the readers nested from it.
pub(crate) type DecodedIndexes = Rc<RefCell<Vec<Arc<KnnIndex>>>>;

/// Cursor over snapshot bytes; every read is bounds-checked.
#[derive(Debug, Clone)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Format version of the file being read (see the module docs).
    version: u64,
    /// What [`KnnIndex::snapshot_read_shared`] has decoded through this
    /// reader's family, so equal index records collapse into one `Arc`.
    indexes: DecodedIndexes,
}

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `buf`, reading the current
    /// format ([`SNAPSHOT_VERSION`]).
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_version(buf, SNAPSHOT_VERSION)
    }

    /// A reader positioned at the start of `buf`, reading records as
    /// format `version` wrote them. The caller checks that `version` is
    /// one this build reads.
    pub fn with_version(buf: &'a [u8], version: u64) -> Self {
        Self {
            buf,
            pos: 0,
            version,
            indexes: DecodedIndexes::default(),
        }
    }

    /// The format version this reader decodes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A reader over `buf` — a length-prefixed record taken from this
    /// reader — that shares this reader's format version and
    /// decoded-index table, so index records in different nested records
    /// still collapse.
    pub fn nested(&self, buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            version: self.version,
            indexes: Rc::clone(&self.indexes),
        }
    }

    pub(crate) fn decoded_indexes(&self) -> DecodedIndexes {
        Rc::clone(&self.indexes)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(&format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn read_usize(&mut self) -> Result<usize> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| corrupt("length overflows usize"))
    }

    /// Reads a bool byte (rejecting anything but 0/1).
    pub fn read_bool(&mut self) -> Result<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(&format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.read_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String> {
        let b = self.read_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    /// The bytes of `n` little-endian words of `width` bytes, taken whole
    /// before anything is allocated for them.
    fn take_words(&mut self, n: usize, width: usize, what: &str) -> Result<&'a [u8]> {
        let len = n
            .checked_mul(width)
            .ok_or_else(|| corrupt(&format!("{what} length overflows")))?;
        self.take(len)
    }

    /// Reads a length-prefixed `f64` vector (see [`Self::read_u32s`]).
    pub fn read_f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.read_usize()?;
        let bytes = self.take_words(n, 8, "f64 vector")?;
        Ok(bytes.chunks_exact(8).map(f64_le).collect())
    }

    /// Reads a length-prefixed `u32` vector. The claimed length is
    /// checked against the remaining bytes before anything is allocated.
    pub fn read_u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.read_usize()?;
        let bytes = self.take_words(n, 4, "u32 vector")?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads a length-prefixed `usize` vector (see [`Self::read_u32s`]).
    pub fn read_usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.read_usize()?;
        let bytes = self.take_words(n, 8, "usize vector")?;
        bytes
            .chunks_exact(8)
            .map(|b| {
                let v = u64::from_le_bytes(b.try_into().expect("8 bytes"));
                usize::try_from(v).map_err(|_| corrupt("length overflows usize"))
            })
            .collect()
    }

    /// Reads an optional `u64`.
    pub fn read_opt_u64(&mut self) -> Result<Option<u64>> {
        match self.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.read_u64()?)),
            other => Err(corrupt(&format!("invalid option tag {other}"))),
        }
    }

    /// Reads a matrix written by [`SnapshotWriter::write_matrix`].
    pub fn read_matrix(&mut self) -> Result<Matrix> {
        let rows = self.read_usize()?;
        let cols = self.read_usize()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("matrix shape overflows"))?;
        let bytes = self.take_words(n, 8, "matrix")?;
        Matrix::from_vec(rows, cols, bytes.chunks_exact(8).map(f64_le).collect())
    }

    /// Reads a distance metric.
    pub fn read_metric(&mut self) -> Result<DistanceMetric> {
        match self.read_u8()? {
            0 => Ok(DistanceMetric::Euclidean),
            1 => Ok(DistanceMetric::Manhattan),
            2 => Ok(DistanceMetric::Minkowski(self.read_f64()?)),
            other => Err(corrupt(&format!("unknown metric tag {other}"))),
        }
    }

    /// Reads a [`KernelConfig`]; a version 1 or 2 record's precision
    /// byte is checked and dropped (see the module docs).
    pub fn read_kernel_config(&mut self) -> Result<KernelConfig> {
        let backend = match self.read_u8()? {
            0 => DistanceBackend::Naive,
            1 => DistanceBackend::Blocked,
            2 => DistanceBackend::Gemm,
            other => return Err(corrupt(&format!("unknown backend tag {other}"))),
        };
        if self.version < 3 {
            match self.read_u8()? {
                0 => {}
                1 => return Err(corrupt(RETIRED_MIXED_PRECISION)),
                other => return Err(corrupt(&format!("unknown precision tag {other}"))),
            }
        }
        let kdtree_crossover_dim = self.read_usize()?;
        let kdtree_min_rows = self.read_usize()?;
        let neighbor = match self.read_u8()? {
            0 => NeighborBackend::Exact,
            1 => NeighborBackend::Hnsw(HnswParams {
                m: self.read_usize()?,
                ef_construction: self.read_usize()?,
                ef_search: self.read_usize()?,
                seed: self.read_u64()?,
                min_rows: self.read_usize()?,
            }),
            other => return Err(corrupt(&format!("unknown neighbor tag {other}"))),
        };
        Ok(KernelConfig {
            backend,
            kdtree_crossover_dim,
            kdtree_min_rows,
            neighbor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapshotWriter::new();
        w.write_u8(7);
        w.write_u64(u64::MAX);
        w.write_usize(42);
        w.write_bool(true);
        w.write_f64(-0.0);
        w.write_f64(f64::NAN);
        w.write_str("suod-pool/1");
        w.write_f64s(&[1.5, f64::INFINITY]);
        w.write_usizes(&[3, 0, 9]);
        w.write_u32s(&[u32::MAX, 0, 7]);
        w.write_opt_u64(None);
        w.write_opt_u64(Some(11));
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_usize().unwrap(), 42);
        assert!(r.read_bool().unwrap());
        let z = r.read_f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64().unwrap().is_nan());
        assert_eq!(r.read_str().unwrap(), "suod-pool/1");
        assert_eq!(r.read_f64s().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.read_usizes().unwrap(), vec![3, 0, 9]);
        assert_eq!(r.read_u32s().unwrap(), vec![u32::MAX, 0, 7]);
        assert_eq!(r.read_opt_u64().unwrap(), None);
        assert_eq!(r.read_opt_u64().unwrap(), Some(11));
        assert!(r.is_exhausted());
    }

    #[test]
    fn matrix_round_trip_is_bit_exact() {
        let m = Matrix::from_rows(&[vec![0.1, -0.0], vec![f64::MIN_POSITIVE, 3.5e300]]).unwrap();
        let mut w = SnapshotWriter::new();
        w.write_matrix(&m);
        let bytes = w.into_bytes();
        let got = SnapshotReader::new(&bytes).read_matrix().unwrap();
        assert_eq!(got.shape(), m.shape());
        for (a, b) in got.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn metric_and_kernel_config_round_trip() {
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Minkowski(2.5),
        ] {
            let mut w = SnapshotWriter::new();
            w.write_metric(metric);
            let got = SnapshotReader::new(w.as_bytes()).read_metric().unwrap();
            assert_eq!(got, metric);
        }
        let configs = [
            KernelConfig::default(),
            KernelConfig {
                backend: DistanceBackend::Gemm,
                kdtree_crossover_dim: 7,
                kdtree_min_rows: 10,
                neighbor: NeighborBackend::Hnsw(HnswParams::default().with_ef_search(99)),
            },
        ];
        for config in configs {
            let mut w = SnapshotWriter::new();
            w.write_kernel_config(&config);
            let got = SnapshotReader::new(w.as_bytes())
                .read_kernel_config()
                .unwrap();
            assert_eq!(got, config);
        }
    }

    /// `config` as a version 1 or 2 record: the version 3 record with
    /// the precision byte (f64) back after the backend tag.
    fn v2_kernel_config(config: &KernelConfig) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_kernel_config(config);
        let mut bytes = w.into_bytes();
        bytes.insert(1, 0);
        bytes
    }

    #[test]
    fn retired_precision_tag_is_refused_not_read_as_f64() {
        let config = KernelConfig::default().with_backend(DistanceBackend::Gemm);
        let mut bytes = v2_kernel_config(&config);
        let read = SnapshotReader::with_version(&bytes, 2).read_kernel_config();
        assert_eq!(read.unwrap(), config, "a version 2 record reads as f64");
        // Byte 0 is the backend tag, byte 1 the precision tag.
        bytes[1] = 1;
        let err = SnapshotReader::with_version(&bytes, 2)
            .read_kernel_config()
            .unwrap_err();
        let Error::InvalidParameter(msg) = err else {
            panic!("expected InvalidParameter, got {err:?}");
        };
        assert!(msg.starts_with("snapshot: "), "{msg}");
        assert!(msg.contains("retired mixed-precision"), "{msg}");
    }

    #[test]
    fn retired_precision_tag_is_refused_at_every_format_version() {
        // Mixed-precision records could only come from older files; the
        // refusal must not depend on which format version reads them.
        for neighbor in [
            NeighborBackend::Exact,
            NeighborBackend::Hnsw(HnswParams::default()),
        ] {
            let config = KernelConfig::default().with_neighbor(neighbor);
            let mut bytes = v2_kernel_config(&config);
            bytes[1] = 1;
            for version in OLDEST_SNAPSHOT_VERSION..3 {
                let err = SnapshotReader::with_version(&bytes, version)
                    .read_kernel_config()
                    .unwrap_err();
                assert!(
                    err.to_string().contains("retired mixed-precision"),
                    "v{version}: {err}"
                );
            }
            // Version 3 dropped the byte: its record is the version 2
            // record without it, and reads back as written.
            let mut w = SnapshotWriter::new();
            w.write_kernel_config(&config);
            let v3 = w.into_bytes();
            let v2 = v2_kernel_config(&config);
            assert_eq!((v3[0], &v3[1..]), (v2[0], &v2[2..]));
            let read = SnapshotReader::with_version(&v3, 3).read_kernel_config();
            assert_eq!(read.unwrap(), config);
        }
    }

    #[test]
    fn unknown_precision_tags_are_corrupt_not_retired() {
        let clean = v2_kernel_config(&KernelConfig::default());
        for tag in [2u8, 7, 255] {
            let mut bytes = clean.clone();
            bytes[1] = tag;
            let err = SnapshotReader::with_version(&bytes, 2)
                .read_kernel_config()
                .unwrap_err();
            let Error::InvalidParameter(msg) = err else {
                panic!("tag {tag}: expected InvalidParameter, got {err:?}");
            };
            assert!(
                msg.contains(&format!("unknown precision tag {tag}")),
                "{msg}"
            );
            assert!(!msg.contains("retired"), "{msg}");
        }
    }

    #[test]
    fn kernel_config_record_layout_is_pinned() {
        // backend u8 | crossover u64 | min rows u64 |
        // neighbour u8 [| m, ef_c, ef_s, seed, min_rows].
        let config = KernelConfig {
            backend: DistanceBackend::Gemm,
            kdtree_crossover_dim: 7,
            kdtree_min_rows: 10,
            neighbor: NeighborBackend::Exact,
        };
        let mut w = SnapshotWriter::new();
        w.write_kernel_config(&config);
        let mut want = vec![2u8];
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&10u64.to_le_bytes());
        want.push(0);
        assert_eq!(w.as_bytes(), want.as_slice());

        let params = HnswParams::default();
        let mut w = SnapshotWriter::new();
        w.write_kernel_config(&config.with_neighbor(NeighborBackend::Hnsw(params)));
        want.pop();
        want.push(1);
        for v in [
            params.m as u64,
            params.ef_construction as u64,
            params.ef_search as u64,
            params.seed,
            params.min_rows as u64,
        ] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(w.as_bytes(), want.as_slice());
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut w = SnapshotWriter::new();
        w.write_u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(r.read_u64().is_err());
        // A huge claimed length must not allocate or panic.
        let mut w = SnapshotWriter::new();
        w.write_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.read_f64s().is_err());
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.read_bytes().is_err());
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.read_u32s().is_err());
        // A length that fits but exceeds the remaining bytes.
        let mut w = SnapshotWriter::new();
        w.write_u32s(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..bytes.len() - 1]);
        assert!(r.read_u32s().is_err());
    }

    #[test]
    fn vector_lengths_that_overflow_or_overrun_are_typed_errors() {
        let mut w = SnapshotWriter::new();
        w.write_f64s(&[1.0, 2.0]);
        let good = w.into_bytes();
        // 2^61 words of 8 bytes overflow a usize byte length; 3 words
        // overrun the 16 bytes that remain.
        for claimed in [1u64 << 61, u64::MAX / 4, 3] {
            let mut bytes = good.clone();
            bytes[..8].copy_from_slice(&claimed.to_le_bytes());
            for err in [
                SnapshotReader::new(&bytes).read_f64s().unwrap_err(),
                SnapshotReader::new(&bytes).read_usizes().unwrap_err(),
            ] {
                let Error::InvalidParameter(msg) = err else {
                    panic!("claimed {claimed}: expected InvalidParameter, got {err:?}");
                };
                assert!(msg.starts_with("snapshot: "), "{msg}");
            }
        }
        let mut r = SnapshotReader::new(&good);
        assert_eq!(
            r.read_usizes().unwrap(),
            vec![1.0f64.to_bits() as usize, 2.0f64.to_bits() as usize]
        );
        assert!(r.is_exhausted());
    }

    #[test]
    fn nested_readers_inherit_the_version() {
        let bytes = [0u8; 4];
        let outer = SnapshotReader::with_version(&bytes, 1);
        assert_eq!(outer.version(), 1);
        assert_eq!(outer.nested(&bytes[1..]).version(), 1);
        assert_eq!(SnapshotReader::new(&bytes).version(), SNAPSHOT_VERSION);
    }

    #[test]
    fn invalid_tags_rejected() {
        let bytes = [9u8];
        assert!(SnapshotReader::new(&bytes).read_bool().is_err());
        assert!(SnapshotReader::new(&bytes).read_metric().is_err());
        assert!(SnapshotReader::new(&bytes).read_kernel_config().is_err());
    }
}

//! Packed, register-blocked GEMM micro-kernels and kernel configuration.
//!
//! TOD (Zhao et al., 2021) shows that outlier-detection primitives go
//! fast when they are reformulated as batched tensor contractions; on a
//! CPU that means one thing — keep the working set in registers and the
//! nearest cache level, and express everything as a GEMM. This module is
//! the compute core behind the [`distance`](crate::distance) backends:
//!
//! * [`matmul_packed`] / [`gram`] — a cache-aware matrix product built
//!   from an `MR x NR` (4x8) register-blocked inner kernel over
//!   contiguous **packed panels**: `MR`-row interleaved panels of `A` and
//!   `NR`-wide interleaved panels of `B` (columns for `matmul_packed`,
//!   rows for [`gram`], which computes `A · Bᵀ`).
//! * [`DistanceBackend`] — selects how pairwise distances are evaluated
//!   (`naive` | `blocked` | `gemm`); threaded from `SuodBuilder` through
//!   the `NeighborCache` a `FitContext` carries into every proximity
//!   detector.
//! * [`KernelConfig`] — backend plus the KD-tree-vs-brute-force
//!   crossover tuning consumed by
//!   [`KnnIndex::build_with`](crate::distance::KnnIndex::build_with).
//! * [`SimdLane`] — which micro-kernel implementation runs: the explicit
//!   AVX2 lane (runtime feature detection) or the always-available scalar
//!   lane. Selected once per kernel invocation and recorded in
//!   [`KernelStats`] so traces show which hardware path produced a run.
//! * [`KernelStats`] — packed-panel / GEMM-tile / fallback / lane
//!   counters the observability layer exports so traces attribute time
//!   to the kernels.
//!
//! # Determinism
//!
//! Every output element `c[i][j]` is accumulated in its **own** register
//! over the reduction index `k` in strictly ascending order, exactly the
//! order the scalar reference [`dot`](crate::matrix::dot) uses. Panel
//! packing and tile shapes change *which* elements a thread computes,
//! never the reduction order of any one element, so results are
//! **bit-identical across thread counts and tile boundaries** — the
//! invariant the determinism system tests pin down.
//!
//! The SIMD lanes preserve the same contract *across lanes*: the AVX2
//! lane uses separate multiply and add instructions (never FMA — fusing
//! would skip the intermediate rounding the scalar lane performs) with
//! the identical ascending-`k` order per element, so the SIMD and scalar
//! lanes are **bitwise identical** and lane selection is invisible in the
//! output.

use crate::hnsw::NeighborBackend;
use crate::{Error, Matrix, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Micro-kernel height: rows of `A` per packed panel.
pub const MR: usize = 4;
/// Micro-kernel width: columns of the output per packed `B` panel.
///
/// 8 rather than 4 so the AVX2 lane carries `MR * NR / 4 = 8`
/// independent 4-wide accumulator chains — enough to cover the
/// `vaddpd` latency x throughput product (4 cycles x 2 ports) and keep
/// both FP ports busy. Tile shape never changes any output bit: each
/// output element is still its own strictly-ascending-`k` reduction.
pub const NR: usize = 8;

/// `A` panels per cache block (`64 * MR = 256` output rows): bounds the
/// output window a `B` block sweeps before moving on, keeping writes
/// inside a few hundred pages instead of striding the whole matrix.
const GRAM_A_BLOCK_PANELS: usize = 64;
/// `B` panels per cache block (`128 * NR = 1024` packed rows, i.e.
/// `1024 * d * 8` bytes): stays L2-resident while an `A` block streams
/// through it, so large-`n` products read each `B` panel from cache
/// `GRAM_A_BLOCK_PANELS` times instead of from memory every time.
const GRAM_B_BLOCK_PANELS: usize = 128;

/// Default KD-tree-vs-brute-force crossover dimensionality.
///
/// A KD-tree prunes well only while the dimensionality is small; beyond
/// the crossover the blocked/GEMM brute-force sweep wins. The historical
/// hardcoded constant was 15; the `kernel_report` crossover sweep
/// (single-threaded, 10k train / 1k queries, see `BENCH_kernels.json`)
/// shows the tree winning decisively through d = 6 and the tiled brute
/// path overtaking it by d = 8, so the tuned default is 6. Override via
/// [`KernelConfig::with_kdtree_crossover_dim`].
pub const DEFAULT_KDTREE_CROSSOVER_DIM: usize = 6;

/// Minimum row count for the KD-tree backend to engage (tree build and
/// traversal overhead dominate below this).
pub const DEFAULT_KDTREE_MIN_ROWS: usize = 128;

/// How pairwise distances and brute-force neighbour sweeps are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceBackend {
    /// Scalar per-pair loops, one query row against the full training
    /// matrix at a time. The reference implementation every other
    /// backend is validated against.
    Naive,
    /// The same per-pair arithmetic as `Naive` — identical formula,
    /// identical reduction order, **bit-identical results** — but tiled
    /// over pair blocks so a panel of `B` rows stays resident in cache
    /// while a block of `A` rows streams through it. The default.
    #[default]
    Blocked,
    /// Euclidean distances via the norm trick
    /// `d²(x, y) = ‖x‖² + ‖y‖² − 2·x·y` over a packed-panel GEMM, with
    /// the squared distance clamped at zero before the square root.
    /// Fastest, but *not* bit-identical to `Naive` (see
    /// [`DistanceBackend::is_bit_identical_to_naive`]); non-Euclidean
    /// metrics fall back to `Blocked` (recorded as a fallback hit).
    Gemm,
}

impl DistanceBackend {
    /// Stable config/CLI name (`naive` | `blocked` | `gemm`).
    pub fn name(self) -> &'static str {
        match self {
            DistanceBackend::Naive => "naive",
            DistanceBackend::Blocked => "blocked",
            DistanceBackend::Gemm => "gemm",
        }
    }

    /// Parses a stable name back into a backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "naive" => Ok(DistanceBackend::Naive),
            "blocked" => Ok(DistanceBackend::Blocked),
            "gemm" => Ok(DistanceBackend::Gemm),
            other => Err(Error::InvalidParameter(format!(
                "unknown distance backend `{other}` (expected naive|blocked|gemm)"
            ))),
        }
    }

    /// `true` when the backend produces the same bits as `Naive` for
    /// every metric. `Blocked` reorders only *which* pairs are evaluated
    /// when, never the arithmetic of a pair, so it qualifies; `Gemm`
    /// algebraically rearranges `Σ(xᵢ−yᵢ)²` into `‖x‖²+‖y‖²−2x·y` and
    /// does not.
    pub fn is_bit_identical_to_naive(self) -> bool {
        !matches!(self, DistanceBackend::Gemm)
    }
}

impl std::fmt::Display for DistanceBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which micro-kernel implementation executes a GEMM invocation.
///
/// The lane is selected **once per kernel invocation** (a [`gram`],
/// [`matmul_packed`], pairwise-distance, or batched-kNN call), never per
/// tile, via [`SimdLane::detect`]: a programmatic override
/// ([`set_simd_lane_override`], used by benches and CI) wins, then the
/// `SUOD_SIMD_LANE` environment variable (`scalar` | `avx2`), then
/// runtime CPU feature detection. Requesting `avx2` on a host without
/// AVX2+FMA silently degrades to `Scalar` — the scalar lane is the
/// always-available fallback, and the two lanes are bitwise identical
/// anyway (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLane {
    /// Portable scalar micro-kernel (the pre-SIMD reference). Always
    /// available; what the compiler auto-vectorizes it to depends on the
    /// build target, but its arithmetic order is fixed.
    Scalar,
    /// Explicit AVX2 micro-kernel (`std::arch` intrinsics, 4 × f64 per
    /// vector). Selected only on hosts with AVX2 and FMA (the `avx2+fma`
    /// flag the bench reports print); the kernel itself never fuses.
    Avx2,
}

/// Programmatic lane override: 0 = none, 1 = scalar, 2 = avx2.
static SIMD_LANE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent [`SimdLane::detect`] to the given lane
/// (`None` clears the override and returns to env/CPU detection).
///
/// Intended for benchmarks and CI lane-matrix jobs; an `Avx2` request on
/// a host without AVX2+FMA still degrades to `Scalar` at detection time,
/// so forcing can never make a kernel execute unsupported instructions.
pub fn set_simd_lane_override(lane: Option<SimdLane>) {
    let code = match lane {
        None => 0,
        Some(SimdLane::Scalar) => 1,
        Some(SimdLane::Avx2) => 2,
    };
    SIMD_LANE_OVERRIDE.store(code, Ordering::Relaxed);
}

/// `SUOD_SIMD_LANE` parsed once (unknown values are ignored).
fn env_lane() -> Option<SimdLane> {
    static ENV: OnceLock<Option<SimdLane>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SUOD_SIMD_LANE")
            .ok()
            .and_then(|v| SimdLane::parse(&v).ok())
    })
}

impl SimdLane {
    /// Stable config/CLI name (`scalar` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLane::Scalar => "scalar",
            SimdLane::Avx2 => "avx2",
        }
    }

    /// Parses a stable name back into a lane.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "scalar" => Ok(SimdLane::Scalar),
            "avx2" => Ok(SimdLane::Avx2),
            other => Err(Error::InvalidParameter(format!(
                "unknown SIMD lane `{other}` (expected scalar|avx2)"
            ))),
        }
    }

    /// Best lane the current CPU supports (ignores overrides).
    pub fn supported() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdLane::Avx2;
            }
        }
        SimdLane::Scalar
    }

    /// The lane kernels will run on right now: programmatic override,
    /// then `SUOD_SIMD_LANE`, then [`SimdLane::supported`] — with any
    /// unsupported request degraded to `Scalar`.
    pub fn detect() -> Self {
        let requested = match SIMD_LANE_OVERRIDE.load(Ordering::Relaxed) {
            1 => Some(SimdLane::Scalar),
            2 => Some(SimdLane::Avx2),
            _ => env_lane(),
        };
        match requested {
            Some(SimdLane::Scalar) => SimdLane::Scalar,
            Some(SimdLane::Avx2) => Self::supported(),
            None => Self::supported(),
        }
    }
}

impl std::fmt::Display for SimdLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel tuning threaded from the estimator config down to every
/// [`KnnIndex`](crate::distance::KnnIndex) and pairwise-distance call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Distance/GEMM backend for brute-force paths.
    pub backend: DistanceBackend,
    /// Maximum dimensionality at which the KD-tree backend engages
    /// (replaces the old hardcoded `d <= 15`); see
    /// [`DEFAULT_KDTREE_CROSSOVER_DIM`] for how the default was derived.
    pub kdtree_crossover_dim: usize,
    /// Minimum row count for the KD-tree backend to engage.
    pub kdtree_min_rows: usize,
    /// Which neighbour index answers kNN queries: the exact backends
    /// (default) or the approximate seeded HNSW graph. Euclidean indexes
    /// with at least [`HnswParams::min_rows`](crate::hnsw::HnswParams)
    /// rows honour [`NeighborBackend::Hnsw`]; everything else falls back
    /// to the exact path with an
    /// [`ann_fallback_hits`](KernelCounters::ann_fallback_hits) count.
    pub neighbor: NeighborBackend,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            backend: DistanceBackend::default(),
            kdtree_crossover_dim: DEFAULT_KDTREE_CROSSOVER_DIM,
            kdtree_min_rows: DEFAULT_KDTREE_MIN_ROWS,
            neighbor: NeighborBackend::Exact,
        }
    }
}

impl KernelConfig {
    /// Returns the config with the distance/GEMM backend replaced.
    pub fn with_backend(mut self, backend: DistanceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns the config with the KD-tree crossover dimensionality
    /// replaced (0 forces brute force everywhere).
    pub fn with_kdtree_crossover_dim(mut self, dims: usize) -> Self {
        self.kdtree_crossover_dim = dims;
        self
    }

    /// Returns the config with the KD-tree minimum row count replaced.
    pub fn with_kdtree_min_rows(mut self, rows: usize) -> Self {
        self.kdtree_min_rows = rows;
        self
    }

    /// Returns the config with the neighbour backend replaced.
    pub fn with_neighbor(mut self, neighbor: NeighborBackend) -> Self {
        self.neighbor = neighbor;
        self
    }

    /// `true` when an index over `rows x dims` data should use the
    /// KD-tree backend under this config.
    pub fn uses_kdtree(&self, rows: usize, dims: usize) -> bool {
        dims <= self.kdtree_crossover_dim && rows >= self.kdtree_min_rows
    }
}

/// Monotonic kernel-work counters (thread-safe, shared by reference).
///
/// The shape-derived counts (`packed_panels`, `gemm_tiles`,
/// `fallback_hits`) are **deterministic**: they are derived from matrix
/// shapes and the fixed panel/tile geometry, so a given sequence of kernel
/// calls produces
/// the same counts at every thread count. The lane counts
/// (`simd_invocations` / `scalar_invocations`) record which micro-kernel
/// lane [`SimdLane::detect`] picked and are therefore **host-dependent**
/// — still worker-count-independent on a given host, but excluded from
/// cross-host determinism signatures. The observability layer snapshots
/// all of them around neighbour-graph builds.
#[derive(Debug, Default)]
pub struct KernelStats {
    packed_panels: AtomicU64,
    gemm_tiles: AtomicU64,
    fallback_hits: AtomicU64,
    simd_invocations: AtomicU64,
    scalar_invocations: AtomicU64,
    ann_queries: AtomicU64,
    ann_fallback_hits: AtomicU64,
}

impl KernelStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> KernelCounters {
        KernelCounters {
            packed_panels: self.packed_panels.load(Ordering::Relaxed),
            gemm_tiles: self.gemm_tiles.load(Ordering::Relaxed),
            fallback_hits: self.fallback_hits.load(Ordering::Relaxed),
            simd_invocations: self.simd_invocations.load(Ordering::Relaxed),
            scalar_invocations: self.scalar_invocations.load(Ordering::Relaxed),
            ann_queries: self.ann_queries.load(Ordering::Relaxed),
            ann_fallback_hits: self.ann_fallback_hits.load(Ordering::Relaxed),
        }
    }

    /// Records one GEMM invocation over an `a_rows x b_rows` output:
    /// `ceil(a_rows/MR) + ceil(b_rows/NR)` logical packed panels,
    /// `ceil(a_rows/MR) * ceil(b_rows/NR)` micro-kernel tiles, and the
    /// lane the invocation ran on.
    pub(crate) fn record_gemm(&self, a_rows: usize, b_rows: usize, lane: SimdLane) {
        let ap = a_rows.div_ceil(MR) as u64;
        let bp = b_rows.div_ceil(NR) as u64;
        self.packed_panels.fetch_add(ap + bp, Ordering::Relaxed);
        self.gemm_tiles.fetch_add(ap * bp, Ordering::Relaxed);
        match lane {
            SimdLane::Avx2 => self.simd_invocations.fetch_add(1, Ordering::Relaxed),
            SimdLane::Scalar => self.scalar_invocations.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records one request the selected backend could not serve (e.g. a
    /// non-Euclidean metric under [`DistanceBackend::Gemm`]).
    pub(crate) fn record_fallback(&self) {
        self.fallback_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` queries answered by the approximate HNSW graph
    /// (request-derived, so the count is thread-count-independent).
    pub(crate) fn record_ann_query(&self, n: u64) {
        self.ann_queries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one index build that requested [`NeighborBackend::Hnsw`]
    /// but had to take the exact path (small n or a non-Euclidean
    /// metric) — the ANN analogue of [`record_fallback`](Self::record_fallback).
    pub(crate) fn record_ann_fallback(&self) {
        self.ann_fallback_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Immutable snapshot of [`KernelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Contiguous `MR`/`NR` panels packed (logical: derived from shapes).
    pub packed_panels: u64,
    /// Micro-kernel tile invocations.
    pub gemm_tiles: u64,
    /// Requests the selected backend had to hand to a slower path.
    pub fallback_hits: u64,
    /// Kernel invocations that ran on the explicit AVX2 lane
    /// (host-dependent; see [`KernelStats`]).
    pub simd_invocations: u64,
    /// Kernel invocations that ran on the scalar fallback lane
    /// (host-dependent; see [`KernelStats`]).
    pub scalar_invocations: u64,
    /// Queries answered by the approximate HNSW graph (request-derived,
    /// deterministic).
    pub ann_queries: u64,
    /// Index builds that requested [`NeighborBackend::Hnsw`] but routed
    /// to the exact path (small n or non-Euclidean metric) — the
    /// exactness-fallback counter (deterministic).
    pub ann_fallback_hits: u64,
}

impl KernelCounters {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            packed_panels: self.packed_panels.saturating_sub(earlier.packed_panels),
            gemm_tiles: self.gemm_tiles.saturating_sub(earlier.gemm_tiles),
            fallback_hits: self.fallback_hits.saturating_sub(earlier.fallback_hits),
            simd_invocations: self
                .simd_invocations
                .saturating_sub(earlier.simd_invocations),
            scalar_invocations: self
                .scalar_invocations
                .saturating_sub(earlier.scalar_invocations),
            ann_queries: self.ann_queries.saturating_sub(earlier.ann_queries),
            ann_fallback_hits: self
                .ann_fallback_hits
                .saturating_sub(earlier.ann_fallback_hits),
        }
    }
}

/// Rows of a matrix packed into `width`-wide interleaved panels.
///
/// Panel `p` holds source rows `p*width .. p*width+width` laid out as
/// `panel[k*width + r]` — the micro-kernel streams it with unit stride.
/// Short trailing panels are zero-padded, so every panel has the same
/// byte length and the kernel never branches on edges along the packed
/// axis.
pub(crate) struct PackedPanels {
    data: Vec<f64>,
    n_rows: usize,
    d: usize,
    width: usize,
}

impl PackedPanels {
    /// Number of packed entities (rows or columns).
    pub(crate) fn len(&self) -> usize {
        self.n_rows
    }

    fn panel(&self, p: usize) -> &[f64] {
        let stride = self.d * self.width;
        &self.data[p * stride..(p + 1) * stride]
    }

    /// Packs every row of `m` (used for [`gram`]: `B`'s rows are `Bᵀ`'s
    /// columns).
    pub(crate) fn from_rows(m: &Matrix) -> Self {
        Self::from_row_range(m, 0..m.nrows(), NR)
    }

    /// Packs the rows in `range` into `width`-wide panels.
    pub(crate) fn from_row_range(m: &Matrix, range: Range<usize>, width: usize) -> Self {
        let n_rows = range.len();
        let d = m.ncols();
        let n_panels = n_rows.div_ceil(width.max(1)).max(usize::from(n_rows > 0));
        let mut data = vec![0.0; n_panels * d * width];
        for (local, src) in range.enumerate() {
            let panel = local / width;
            let lane = local % width;
            let row = m.row(src);
            let base = panel * d * width;
            for (k, &v) in row.iter().enumerate() {
                data[base + k * width + lane] = v;
            }
        }
        Self {
            data,
            n_rows,
            d,
            width,
        }
    }

    /// Packs the *columns* of `m` (used for [`matmul_packed`], where the
    /// reduction runs down `B`'s rows).
    pub(crate) fn from_cols(m: &Matrix) -> Self {
        let n_rows = m.ncols(); // packed axis = B's columns
        let d = m.nrows(); // reduction axis = B's rows
        let width = NR;
        let n_panels = n_rows.div_ceil(width).max(usize::from(n_rows > 0));
        let mut data = vec![0.0; n_panels * d * width];
        for k in 0..d {
            let row = m.row(k);
            for (c, &v) in row.iter().enumerate() {
                let panel = c / width;
                let lane = c % width;
                data[panel * d * width + k * width + lane] = v;
            }
        }
        Self {
            data,
            n_rows,
            d,
            width,
        }
    }
}

/// The 4x8 register-blocked inner kernel: `acc[i][j] += Σ_k a[k][i] *
/// b[k][j]` with `k` strictly ascending and one accumulator per output
/// element (the determinism contract). `chunks_exact` hands the
/// optimiser fixed-size lanes — no bounds checks in the hot loop — and
/// iterates the chunks (one per `k`) in ascending order.
#[inline]
fn microkernel(apanel: &[f64], bpanel: &[f64], acc: &mut [f64; MR * NR]) {
    for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i * NR + j] += ai * b[j];
            }
        }
    }
}

/// Explicit AVX2 micro-kernels (`x86_64` only; callers dispatch through
/// [`SimdLane`], which never selects these on hosts without AVX2+FMA).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX2 lane of the f64 micro-kernel. Two `__m256d` accumulators
    /// per `A` row (the 4x8 tile = 8 independent add chains, covering
    /// the `vaddpd` latency x throughput product), reduction index `k`
    /// strictly ascending, and — deliberately — separate `mul` and
    /// `add` instructions rather than FMA: each output element sees
    /// exactly the per-`k` round-to-nearest sequence the scalar lane
    /// performs, so the two lanes are bitwise identical.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 (guaranteed when
    /// [`super::SimdLane::detect`] returned `Avx2`), and that
    /// `bpanel.len() >= (apanel.len() / MR) * NR`: the loop reads
    /// `apanel[k * MR..k * MR + MR]` and `bpanel[k * NR..k * NR + NR]` for
    /// every `k < apanel.len() / MR` through unchecked pointer offsets.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn microkernel_f64(apanel: &[f64], bpanel: &[f64], acc: &mut [f64; MR * NR]) {
        debug_assert_eq!(MR, 4);
        debug_assert_eq!(NR, 8);
        let mut acc0l = _mm256_loadu_pd(acc.as_ptr());
        let mut acc0h = _mm256_loadu_pd(acc.as_ptr().add(4));
        let mut acc1l = _mm256_loadu_pd(acc.as_ptr().add(NR));
        let mut acc1h = _mm256_loadu_pd(acc.as_ptr().add(NR + 4));
        let mut acc2l = _mm256_loadu_pd(acc.as_ptr().add(2 * NR));
        let mut acc2h = _mm256_loadu_pd(acc.as_ptr().add(2 * NR + 4));
        let mut acc3l = _mm256_loadu_pd(acc.as_ptr().add(3 * NR));
        let mut acc3h = _mm256_loadu_pd(acc.as_ptr().add(3 * NR + 4));
        debug_assert_eq!(apanel.len() % MR, 0);
        let depth = apanel.len() / MR;
        debug_assert_eq!(bpanel.len(), depth * NR);
        for k in 0..depth {
            let bl = _mm256_loadu_pd(bpanel.as_ptr().add(k * NR));
            let bh = _mm256_loadu_pd(bpanel.as_ptr().add(k * NR + 4));
            let a = apanel.as_ptr().add(k * MR);
            let a0 = _mm256_set1_pd(*a);
            acc0l = _mm256_add_pd(acc0l, _mm256_mul_pd(a0, bl));
            acc0h = _mm256_add_pd(acc0h, _mm256_mul_pd(a0, bh));
            let a1 = _mm256_set1_pd(*a.add(1));
            acc1l = _mm256_add_pd(acc1l, _mm256_mul_pd(a1, bl));
            acc1h = _mm256_add_pd(acc1h, _mm256_mul_pd(a1, bh));
            let a2 = _mm256_set1_pd(*a.add(2));
            acc2l = _mm256_add_pd(acc2l, _mm256_mul_pd(a2, bl));
            acc2h = _mm256_add_pd(acc2h, _mm256_mul_pd(a2, bh));
            let a3 = _mm256_set1_pd(*a.add(3));
            acc3l = _mm256_add_pd(acc3l, _mm256_mul_pd(a3, bl));
            acc3h = _mm256_add_pd(acc3h, _mm256_mul_pd(a3, bh));
        }
        _mm256_storeu_pd(acc.as_mut_ptr(), acc0l);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), acc0h);
        _mm256_storeu_pd(acc.as_mut_ptr().add(NR), acc1l);
        _mm256_storeu_pd(acc.as_mut_ptr().add(NR + 4), acc1h);
        _mm256_storeu_pd(acc.as_mut_ptr().add(2 * NR), acc2l);
        _mm256_storeu_pd(acc.as_mut_ptr().add(2 * NR + 4), acc2h);
        _mm256_storeu_pd(acc.as_mut_ptr().add(3 * NR), acc3l);
        _mm256_storeu_pd(acc.as_mut_ptr().add(3 * NR + 4), acc3h);
    }
}

/// Euclidean distance from cached squared norms and a Gram entry:
/// `sqrt(max(0, ‖a‖² + ‖b‖² − 2·a·b))`. The clamp keeps near-duplicate
/// rows (where cancellation can drive the algebraic identity slightly
/// negative) from producing NaN. Every gemm-backend path — batched,
/// single-query, and the fused tile epilogue below — combines its terms
/// through this one function, in this argument order, so the backend is
/// self-consistent to the bit.
#[inline]
pub(crate) fn dist_from_gram(na: f64, nb: f64, g: f64) -> f64 {
    (na + nb - 2.0 * g).max(0.0).sqrt()
}

/// Cache-blocked panel sweep: runs `kernel` over every
/// `(A panel, B panel)` tile and writes
/// `finish(absolute_a_row, packed_index, gram_value)` into `out`. The
/// block loops change only *when* a tile is computed (B blocks stay
/// L2-resident across an A block), never the per-element reduction —
/// results are bitwise independent of the blocking. Generic over the
/// micro-kernel lane.
#[inline]
fn gram_blocks(
    apanels: &PackedPanels,
    packed: &PackedPanels,
    a_start: usize,
    kernel: impl Fn(&[f64], &[f64], &mut [f64; MR * NR]),
    out: &mut [f64],
    mut finish: impl FnMut(usize, usize, f64) -> f64,
) {
    let a_rows = apanels.len();
    let n_out = packed.len();
    let n_ap = a_rows.div_ceil(MR);
    let n_bp = n_out.div_ceil(NR);
    for ab in (0..n_ap).step_by(GRAM_A_BLOCK_PANELS) {
        let ab_hi = (ab + GRAM_A_BLOCK_PANELS).min(n_ap);
        for bb in (0..n_bp).step_by(GRAM_B_BLOCK_PANELS) {
            let bb_hi = (bb + GRAM_B_BLOCK_PANELS).min(n_bp);
            for ap in ab..ab_hi {
                let i_hi = (ap * MR + MR).min(a_rows);
                let apanel = apanels.panel(ap);
                for bp in bb..bb_hi {
                    let j_hi = (bp * NR + NR).min(n_out);
                    let mut acc = [0.0f64; MR * NR];
                    kernel(apanel, packed.panel(bp), &mut acc);
                    for i in ap * MR..i_hi {
                        let li = i - ap * MR;
                        let row = &mut out[i * n_out..(i + 1) * n_out];
                        for j in bp * NR..j_hi {
                            row[j] = finish(a_start + i, j, acc[li * NR + (j - bp * NR)]);
                        }
                    }
                }
            }
        }
    }
}

/// Panel sweep on the selected lane. Lane dispatch happens once per call
/// (one branch), not per tile; either lane produces identical bits, so
/// the choice only affects speed.
#[inline]
fn gram_rows_apply(
    a: &Matrix,
    a_range: Range<usize>,
    packed: &PackedPanels,
    lane: SimdLane,
    out: &mut [f64],
    finish: impl FnMut(usize, usize, f64) -> f64,
) {
    // The AVX2 kernel's reads are in bounds only for B panels NR wide
    // over A's own depth (see its SAFETY comment below): checked once per
    // call, not per tile.
    assert!(packed.width == NR && packed.d == a.ncols());
    debug_assert_eq!(out.len(), a_range.len() * packed.len());
    if a_range.is_empty() || packed.len() == 0 {
        return;
    }
    let apanels = PackedPanels::from_row_range(a, a_range.clone(), MR);
    match lane {
        #[cfg(target_arch = "x86_64")]
        SimdLane::Avx2 => gram_blocks(
            &apanels,
            packed,
            a_range.start,
            // SAFETY: `Avx2` is only selected when runtime detection
            // confirmed AVX2 support. Panel lengths: `apanels` was packed
            // just above from `a` at width MR, so every A panel holds
            // exactly `d * MR` values (`d = a.ncols()`; a short last panel
            // is zero-padded to full width) and the kernel's depth is `d`.
            // `packed` is NR wide over `packed.d == d` (asserted above), so
            // every B panel holds exactly `d * NR` values. The kernel thus
            // reads `k * MR + 3 < d * MR` and `k * NR + 7 < d * NR` for
            // every `k < d`.
            |ap, bp, acc| unsafe { x86::microkernel_f64(ap, bp, acc) },
            out,
            finish,
        ),
        #[cfg(not(target_arch = "x86_64"))]
        SimdLane::Avx2 => gram_blocks(&apanels, packed, a_range.start, microkernel, out, finish),
        SimdLane::Scalar => gram_blocks(&apanels, packed, a_range.start, microkernel, out, finish),
    }
}

/// Computes `out[r][c] = a_row(a_range.start + r) · packed[c]` for every
/// packed entity `c`, writing into the row-major `out` slice
/// (`a_range.len() * packed.len()` elements).
pub(crate) fn gram_rows_into(
    a: &Matrix,
    a_range: Range<usize>,
    packed: &PackedPanels,
    lane: SimdLane,
    out: &mut [f64],
) {
    gram_rows_apply(a, a_range, packed, lane, out, |_, _, g| g);
}

/// [`gram_rows_into`] with the norm-trick epilogue fused into the tile
/// write-back: `out[r][c] = dist_from_gram(na[row], nb[c], gram)`. The
/// distance matrix is produced in one pass — no intermediate Gram
/// allocation, no second read-modify-write sweep over the (potentially
/// multi-gigabyte) output. `na` is indexed by absolute `a` row, `nb` by
/// packed index.
pub(crate) fn gram_rows_dist_into(
    a: &Matrix,
    a_range: Range<usize>,
    packed: &PackedPanels,
    lane: SimdLane,
    na: &[f64],
    nb: &[f64],
    out: &mut [f64],
) {
    gram_rows_apply(a, a_range, packed, lane, out, |i, j, g| {
        dist_from_gram(na[i], nb[j], g)
    });
}

/// Gram-style product `A · Bᵀ` (`a.nrows() x b.nrows()`) over packed
/// panels — the contraction behind the norm-trick distance path. Both
/// operands are row-major, so packing reads are unit-stride.
///
/// Bit-identical across `n_threads` (see the [module docs](self)).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] when column counts differ.
pub fn gram(
    a: &Matrix,
    b: &Matrix,
    n_threads: usize,
    stats: Option<&KernelStats>,
) -> Result<Matrix> {
    if a.ncols() != b.ncols() {
        return Err(Error::ShapeMismatch {
            op: "gram",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let lane = SimdLane::detect();
    if let Some(s) = stats {
        s.record_gemm(a.nrows(), b.nrows(), lane);
    }
    let packed = PackedPanels::from_rows(b);
    let mut out = Matrix::zeros(a.nrows(), b.nrows());
    let cols = b.nrows();
    crate::parallel::par_row_blocks(out.as_mut_slice(), cols.max(1), n_threads, |rows, block| {
        gram_rows_into(a, rows, &packed, lane, block);
    });
    Ok(out)
}

/// Packed blocked matrix product `A · B`: `B`'s columns are packed into
/// `NR`-wide panels once, then each thread's row block runs the 4x8
/// micro-kernel over its `MR`-row panels of `A`.
///
/// Bit-identical across `n_threads`; matches [`Matrix::matmul`] within
/// floating-point reassociation noise (the per-element reduction order is
/// the same ascending `k`, but `matmul` skips exact-zero `a` terms).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] when `a.ncols() != b.nrows()`.
pub fn matmul_packed(
    a: &Matrix,
    b: &Matrix,
    n_threads: usize,
    stats: Option<&KernelStats>,
) -> Result<Matrix> {
    if a.ncols() != b.nrows() {
        return Err(Error::ShapeMismatch {
            op: "matmul_packed",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let lane = SimdLane::detect();
    if let Some(s) = stats {
        s.record_gemm(a.nrows(), b.ncols(), lane);
    }
    let packed = PackedPanels::from_cols(b);
    let mut out = Matrix::zeros(a.nrows(), b.ncols());
    let cols = b.ncols();
    crate::parallel::par_row_blocks(out.as_mut_slice(), cols.max(1), n_threads, |rows, block| {
        gram_rows_into(a, rows, &packed, lane, block);
    });
    Ok(out)
}

/// Squared Euclidean norm of every row (the cached `‖x‖²` terms of the
/// norm trick).
pub fn row_sq_norms(m: &Matrix) -> Vec<f64> {
    m.rows_iter().map(crate::matrix::norm_sq).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            let tol = 1e-9 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [
            DistanceBackend::Naive,
            DistanceBackend::Blocked,
            DistanceBackend::Gemm,
        ] {
            assert_eq!(DistanceBackend::parse(b.name()).unwrap(), b);
        }
        assert!(DistanceBackend::parse("cuda").is_err());
    }

    #[test]
    fn config_crossover_governs_tree_choice() {
        let cfg = KernelConfig {
            kdtree_crossover_dim: 6,
            kdtree_min_rows: 10,
            ..KernelConfig::default()
        };
        assert!(cfg.uses_kdtree(100, 6));
        assert!(!cfg.uses_kdtree(100, 7));
        assert!(!cfg.uses_kdtree(9, 3));
    }

    #[test]
    fn matmul_packed_matches_naive() {
        // Shapes straddling panel boundaries: exact multiples of 4,
        // off-by-one, tiny, and degenerate-thin.
        for (m, k, n) in [
            (8, 8, 8),
            (7, 5, 9),
            (33, 70, 21),
            (1, 200, 1),
            (4, 1, 5),
            (13, 16, 4),
        ] {
            let a = random_matrix(m, k, (m * 100 + n) as u64);
            let b = random_matrix(k, n, (k * 7 + 3) as u64);
            let want = a.matmul(&b).unwrap();
            for threads in [1usize, 2, 4] {
                let got = matmul_packed(&a, &b, threads, None).unwrap();
                assert_close(&got, &want, &format!("({m},{k},{n}) t={threads}"));
            }
        }
    }

    #[test]
    fn matmul_packed_bit_identical_across_threads() {
        let a = random_matrix(37, 19, 1);
        let b = random_matrix(19, 23, 2);
        let base = matmul_packed(&a, &b, 1, None).unwrap();
        for threads in [2usize, 3, 8] {
            let par = matmul_packed(&a, &b, threads, None).unwrap();
            assert_eq!(par.as_slice(), base.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn gram_matches_matmul_transpose() {
        let a = random_matrix(11, 6, 5);
        let b = random_matrix(14, 6, 9);
        let want = a.matmul(&b.transpose()).unwrap();
        for threads in [1usize, 2, 4] {
            let got = gram(&a, &b, threads, None).unwrap();
            assert_close(&got, &want, &format!("gram t={threads}"));
        }
    }

    #[test]
    fn gram_diagonal_equals_scalar_dot_bitwise() {
        // One accumulator per element, ascending k: the packed kernel's
        // dot products carry the same bits as the scalar reference.
        let a = random_matrix(9, 13, 3);
        let g = gram(&a, &a, 1, None).unwrap();
        for i in 0..a.nrows() {
            assert_eq!(g.get(i, i), crate::matrix::norm_sq(a.row(i)));
            for j in 0..a.nrows() {
                assert_eq!(g.get(i, j), crate::matrix::dot(a.row(i), a.row(j)));
            }
        }
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(gram(&a, &b, 1, None).is_err());
        assert!(matmul_packed(&a, &b, 1, None).is_err());
        assert!(matmul_packed(&a, &Matrix::zeros(3, 4), 1, None).is_ok());
    }

    #[test]
    fn zero_width_inputs() {
        let a = Matrix::zeros(3, 0);
        let g = gram(&a, &a, 1, None).unwrap();
        assert_eq!(g.shape(), (3, 3));
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stats_count_deterministically() {
        let a = random_matrix(10, 5, 1);
        let b = random_matrix(7, 5, 2);
        let s1 = KernelStats::new();
        gram(&a, &b, 1, Some(&s1)).unwrap();
        let s4 = KernelStats::new();
        gram(&a, &b, 4, Some(&s4)).unwrap();
        // Shape-derived counters are identical at any thread count. The
        // lane counters are host-dependent (and another test toggles the
        // process-wide lane override concurrently), so only their sum —
        // one invocation per call — is asserted.
        for c in [s1.snapshot(), s4.snapshot()] {
            // ceil(10/4)=3 a-panels + ceil(7/8)=1 b-panel; 3*1 tiles.
            assert_eq!(c.packed_panels, 4);
            assert_eq!(c.gemm_tiles, 3);
            assert_eq!(c.fallback_hits, 0);
            assert_eq!(c.simd_invocations + c.scalar_invocations, 1);
        }
    }

    #[test]
    fn counters_since_computes_delta() {
        let s = KernelStats::new();
        let before = s.snapshot();
        s.record_gemm(8, 8, SimdLane::Avx2);
        s.record_fallback();
        let delta = s.snapshot().since(&before);
        // ceil(8/4)=2 a-panels + ceil(8/8)=1 b-panel; 2*1 tiles.
        assert_eq!(delta.packed_panels, 3);
        assert_eq!(delta.gemm_tiles, 2);
        assert_eq!(delta.fallback_hits, 1);
        assert_eq!(delta.simd_invocations, 1);
        assert_eq!(delta.scalar_invocations, 0);
    }

    #[test]
    fn lane_names_round_trip() {
        for lane in [SimdLane::Scalar, SimdLane::Avx2] {
            assert_eq!(SimdLane::parse(lane.name()).unwrap(), lane);
        }
        assert!(SimdLane::parse("neon").is_err());
    }

    #[test]
    fn lane_override_degrades_unsupported_requests() {
        // Whatever the host supports, forcing `scalar` must stick, and
        // forcing `avx2` must never exceed what the CPU offers.
        set_simd_lane_override(Some(SimdLane::Scalar));
        assert_eq!(SimdLane::detect(), SimdLane::Scalar);
        set_simd_lane_override(Some(SimdLane::Avx2));
        assert_eq!(SimdLane::detect(), SimdLane::supported());
        set_simd_lane_override(None);
        // With the override cleared, `SUOD_SIMD_LANE` comes next.
        let expected = match env_lane() {
            Some(SimdLane::Scalar) => SimdLane::Scalar,
            _ => SimdLane::supported(),
        };
        assert_eq!(SimdLane::detect(), expected);
    }

    /// Adversarial inputs for the lane-equivalence test: denormals,
    /// extreme ±1e±6 scaling, exactly colinear rows, and duplicate rows —
    /// the inputs where reassociation or rounding differences would
    /// surface first.
    fn adversarial_matrices() -> Vec<(Matrix, Matrix)> {
        let mut cases = Vec::new();
        // Denormals and tiny magnitudes mixed with ordinary values.
        let tiny = Matrix::from_rows(&[
            vec![1e-308, 5e-324, -1e-310, 2.0],
            vec![1e-320, -5e-324, 1.0, -3.0],
            vec![0.0, 1e-300, -1e-305, 0.5],
            vec![4.9e-324, 0.0, 1e-290, -0.25],
            vec![-1e-315, 2e-312, 3e-318, 1.5],
        ])
        .unwrap();
        cases.push((tiny.clone(), tiny));
        // Extreme scaling: rows spanning ±1e±6.
        let mut scaled = random_matrix(13, 7, 42);
        for (idx, v) in scaled.as_mut_slice().iter_mut().enumerate() {
            let scale = match idx % 4 {
                0 => 1e6,
                1 => -1e6,
                2 => 1e-6,
                _ => -1e-6,
            };
            *v *= scale;
        }
        let scaled_b = random_matrix(9, 7, 43);
        cases.push((scaled, scaled_b));
        // Colinear and duplicate rows (norm-trick cancellation).
        let base = vec![0.3, -1.7, 2.2, 0.0, 5.5];
        let double: Vec<f64> = base.iter().map(|v| v * 2.0).collect();
        let neg: Vec<f64> = base.iter().map(|v| -v).collect();
        let colinear = Matrix::from_rows(&[
            base.clone(),
            base.clone(),
            double,
            neg,
            base.clone(),
            vec![1e-6, 1e6, -1e-6, -1e6, 0.0],
        ])
        .unwrap();
        cases.push((colinear.clone(), colinear));
        cases
    }

    #[test]
    fn simd_lane_matches_scalar_bitwise_in_f64_mode() {
        if SimdLane::supported() != SimdLane::Avx2 {
            eprintln!("skipping: host has no AVX2+FMA");
            return;
        }
        let mut cases = adversarial_matrices();
        cases.push((random_matrix(37, 19, 7), random_matrix(23, 19, 8)));
        for (a, b) in &cases {
            if a.ncols() != b.ncols() {
                continue;
            }
            let packed = PackedPanels::from_rows(b);
            let mut scalar = vec![0.0; a.nrows() * b.nrows()];
            let mut simd = vec![0.0; a.nrows() * b.nrows()];
            gram_rows_into(a, 0..a.nrows(), &packed, SimdLane::Scalar, &mut scalar);
            gram_rows_into(a, 0..a.nrows(), &packed, SimdLane::Avx2, &mut simd);
            assert_eq!(scalar, simd, "f64 lanes diverged");
            // And against the scalar reference dot, element by element.
            for i in 0..a.nrows() {
                for j in 0..b.nrows() {
                    assert_eq!(
                        simd[i * b.nrows() + j],
                        crate::matrix::dot(a.row(i), b.row(j)),
                        "simd gram != scalar dot at ({i},{j})"
                    );
                }
            }
        }
    }

    /// The lanes this host can run.
    fn host_lanes() -> Vec<SimdLane> {
        let mut lanes = vec![SimdLane::Scalar];
        if SimdLane::supported() == SimdLane::Avx2 {
            lanes.push(SimdLane::Avx2);
        }
        lanes
    }

    #[test]
    fn fused_distance_epilogue_matches_gram_then_norm_trick() {
        let mut cases = adversarial_matrices();
        cases.push((random_matrix(29, 11, 17), random_matrix(NR * 2 + 3, 11, 18)));
        for (a, b) in &cases {
            let packed = PackedPanels::from_rows(b);
            let (na, nb) = (row_sq_norms(a), row_sq_norms(b));
            for lane in host_lanes() {
                let mut g = vec![0.0; a.nrows() * b.nrows()];
                gram_rows_into(a, 0..a.nrows(), &packed, lane, &mut g);
                let mut fused = vec![0.0; a.nrows() * b.nrows()];
                gram_rows_dist_into(a, 0..a.nrows(), &packed, lane, &na, &nb, &mut fused);
                for (k, (&d, &gk)) in fused.iter().zip(&g).enumerate() {
                    let (i, j) = (k / b.nrows(), k % b.nrows());
                    assert_eq!(
                        d.to_bits(),
                        dist_from_gram(na[i], nb[j], gk).to_bits(),
                        "{lane} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_is_exactly_zero_on_every_lane() {
        // A row's Gram diagonal is its cached norm bit for bit, so
        // `n + n - 2n` cancels to exactly zero — duplicates, colinear
        // rows, denormals and ±1e6 scaling included.
        let mut cases: Vec<Matrix> = adversarial_matrices().into_iter().map(|(a, _)| a).collect();
        cases.push(random_matrix(MR * 3 + 1, 9, 19));
        for a in &cases {
            let packed = PackedPanels::from_rows(a);
            let n = row_sq_norms(a);
            for lane in host_lanes() {
                let mut d = vec![f64::NAN; a.nrows() * a.nrows()];
                gram_rows_dist_into(a, 0..a.nrows(), &packed, lane, &n, &n, &mut d);
                for i in 0..a.nrows() {
                    assert_eq!(d[i * a.nrows() + i].to_bits(), 0, "{lane} row {i}");
                }
                assert!(d.iter().all(|v| *v >= 0.0), "{lane}");
            }
        }
    }

    #[test]
    fn dist_from_gram_clamps_cancellation_to_zero() {
        // 1 + 1 - 2(1 + eps) is slightly negative: clamped, never NaN.
        assert_eq!(dist_from_gram(1.0, 1.0, 1.0 + f64::EPSILON).to_bits(), 0);
        // (0,0)-(3,4): 0 + 25 - 0.
        assert_eq!(dist_from_gram(0.0, 25.0, 0.0), 5.0);
        // (1,0)-(0,1): 1 + 1 - 0.
        assert_eq!(dist_from_gram(1.0, 1.0, 0.0), 2f64.sqrt());
    }

    #[test]
    fn gram_bit_identical_across_cache_block_edges() {
        // Enough rows on both sides to cross the A- and B-block panel
        // counts, with ragged trailing panels: the block loops reorder
        // tiles, never a per-element reduction.
        let a = random_matrix(GRAM_A_BLOCK_PANELS * MR + MR + 1, 3, 20);
        let b = random_matrix(GRAM_B_BLOCK_PANELS * NR + 5, 3, 21);
        let base = gram(&a, &b, 1, None).unwrap();
        for i in 0..a.nrows() {
            for j in 0..b.nrows() {
                assert_eq!(
                    base.get(i, j).to_bits(),
                    crate::matrix::dot(a.row(i), b.row(j)).to_bits(),
                    "({i},{j})"
                );
            }
        }
        let par = gram(&a, &b, 3, None).unwrap();
        assert_eq!(par.as_slice(), base.as_slice());
    }
}

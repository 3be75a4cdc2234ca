//! Distance metrics and brute-force k-nearest-neighbour search.
//!
//! Every proximity-based detector in the zoo (kNN, average-kNN, LOF, LoOP,
//! ABOD's fast variant) needs "distances from query points to training
//! points" plus "the k smallest of them". [`KnnIndex`] centralizes that so
//! the detectors share one carefully tested implementation. The paper's LOF
//! grid varies the metric (`manhattan`, `euclidean`, `minkowski`), which
//! [`DistanceMetric`] models.
//!
//! # Backends
//!
//! Brute-force evaluation is pluggable via [`DistanceBackend`]:
//!
//! * `naive` — one query row against the full training matrix at a time;
//!   the reference implementation.
//! * `blocked` (default) — **bit-identical** to `naive` for every metric.
//!   Euclidean sweeps run the exact packed-panel kernel
//!   ([`crate::gemm`]: a 4x8 register block, one `−`, `×`, `+` per term,
//!   `k` ascending, no FMA — the per-pair sequence of
//!   [`DistanceMetric::distance`]) on the scalar or AVX2 lane, except
//!   queries too short to repay packing the train side, which run the
//!   per-pair loop; the other metrics run the per-pair loop tiled over
//!   column blocks.
//! * `gemm` — Euclidean distances through the packed-panel GEMM in
//!   [`crate::gemm`] via the norm trick `d² = ‖x‖² + ‖y‖² − 2·x·y`
//!   (clamped at zero); fastest, numerically equal within ~1e-9 on squared
//!   distances but *not* bitwise equal to `naive`. Non-Euclidean metrics
//!   fall back to `blocked` and record a fallback hit. The micro-kernel
//!   lane (scalar or AVX2) is picked per invocation by
//!   [`SimdLane::detect`](crate::gemm::SimdLane::detect) — invisible in
//!   the output, visible in the counters.
//!
//! [`pairwise_distances_with`] is the one public entry point for full
//! distance matrices; [`KnnIndex`] serves the neighbour queries.

use crate::gemm::{
    dist_from_gram, DistanceBackend, KernelConfig, KernelCounters, KernelStats, PackedPanels,
    SimdLane, NR,
};
use crate::hnsw::{DistCtx, HnswGraph, NeighborBackend};
use crate::snapshot::corrupt;
use crate::{Error, Matrix, Result};
use std::sync::Arc;

/// Distance metric between feature vectors.
///
/// Matches the LOF hyperparameter grid in the paper's Table B.1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DistanceMetric {
    /// L2 distance.
    #[default]
    Euclidean,
    /// L1 distance.
    Manhattan,
    /// Lp distance with the given exponent `p >= 1`.
    Minkowski(f64),
}

impl DistanceMetric {
    /// Distance between two equally long vectors.
    ///
    /// # Panics
    ///
    /// Debug-asserts equal lengths.
    #[inline]
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match *self {
            DistanceMetric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            DistanceMetric::Manhattan => a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum(),
            DistanceMetric::Minkowski(p) => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| (x - y).abs().powf(p))
                .sum::<f64>()
                .powf(1.0 / p),
        }
    }

    /// Parses the PyOD-style metric name used in the paper's model grid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "euclidean" => Ok(DistanceMetric::Euclidean),
            "manhattan" => Ok(DistanceMetric::Manhattan),
            "minkowski" => Ok(DistanceMetric::Minkowski(3.0)),
            other => Err(Error::InvalidParameter(format!(
                "unknown distance metric `{other}`"
            ))),
        }
    }
}

/// Rows of `b` per cache tile in the blocked backend: at the widths the
/// paper evaluates (d ≤ a few hundred) a 256-row tile is L1/L2-resident,
/// so a block of `a` rows streams over a hot tile instead of re-reading
/// all of `b` from L3/DRAM per query row.
const BLOCKED_J_TILE: usize = 256;

/// Rows of `a` per cache tile in the blocked backend: bounds the output
/// window a `b` tile sweeps before advancing, so writes stay inside a
/// band of rows (TLB-friendly at 10k+ row matrices) while the `b` tile
/// is reused from L1 across the whole band.
const BLOCKED_I_TILE: usize = 64;

/// Query rows per micro-tile in the batched brute-force kNN fast path.
const KNN_Q_TILE: usize = 32;

/// Training rows per tile in the batched brute-force kNN fast path.
const KNN_T_TILE: usize = 512;

/// Fewest query rows for which the exact Euclidean sweeps pack the train
/// side. Below it, packing the whole train matrix costs more than the
/// packed kernel saves (1600 x 24 at k = 40, AVX2: a 2-row query takes
/// ~49 us per pair, ~57 us packed), so those rows take the per-pair loop,
/// which gives the same bits.
const EXACT_PACK_MIN_ROWS: usize = 3;

/// Full pairwise distance matrix between the rows of `a` and the rows of
/// `b`, through the [`DistanceBackend`] in `config`.
///
/// `naive` and `blocked` produce bitwise-equal matrices for every metric;
/// `gemm` applies the norm trick for [`DistanceMetric::Euclidean`] and
/// falls back to `blocked` otherwise (recording a fallback hit on
/// `stats`). Every backend is bit-identical across `n_threads`. The
/// other [`KernelConfig`] fields tune [`KnnIndex`] and do not apply here.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] when column counts differ.
pub fn pairwise_distances_with(
    a: &Matrix,
    b: &Matrix,
    metric: DistanceMetric,
    config: KernelConfig,
    n_threads: usize,
    stats: Option<&KernelStats>,
) -> Result<Matrix> {
    if a.ncols() != b.ncols() {
        return Err(Error::ShapeMismatch {
            op: "pairwise_distances",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    match config.backend {
        DistanceBackend::Naive => Ok(naive_pairwise(a, b, metric, n_threads)),
        DistanceBackend::Blocked => Ok(blocked_pairwise(a, b, metric, n_threads)),
        DistanceBackend::Gemm if metric == DistanceMetric::Euclidean => {
            Ok(gemm_pairwise(a, b, n_threads, stats))
        }
        DistanceBackend::Gemm => {
            if let Some(s) = stats {
                s.record_fallback();
            }
            Ok(blocked_pairwise(a, b, metric, n_threads))
        }
    }
}

fn naive_pairwise(a: &Matrix, b: &Matrix, metric: DistanceMetric, n_threads: usize) -> Matrix {
    let mut out = Matrix::zeros(a.nrows(), b.nrows());
    let cols = b.nrows();
    crate::parallel::par_row_blocks(out.as_mut_slice(), cols, n_threads, |rows, block| {
        for (offset, out_row) in block.chunks_mut(cols).enumerate() {
            let ra = a.row(rows.start + offset);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = metric.distance(ra, b.row(j));
            }
        }
    });
    out
}

fn blocked_pairwise(a: &Matrix, b: &Matrix, metric: DistanceMetric, n_threads: usize) -> Matrix {
    let mut out = Matrix::zeros(a.nrows(), b.nrows());
    let cols = b.nrows();
    if metric == DistanceMetric::Euclidean && a.nrows() >= EXACT_PACK_MIN_ROWS {
        // The exact packed-panel kernel: per element the naive
        // `metric.distance` sequence, so bit-identical, and cache blocked
        // by the panel sweep itself.
        let lane = SimdLane::detect();
        let packed = PackedPanels::from_rows(b);
        crate::parallel::par_row_blocks(out.as_mut_slice(), cols, n_threads, |rows, block| {
            crate::gemm::euclidean_rows_into(a, rows, &packed, lane, block);
        });
        return out;
    }
    crate::parallel::par_row_blocks(out.as_mut_slice(), cols, n_threads, |rows, block| {
        // i-tile x j-tile: the j-tile of `b` rows stays in L1 while a
        // bounded band of `a` rows consumes it, and output writes stay
        // inside that band instead of striding the whole matrix per
        // tile. Per element the arithmetic is exactly the naive
        // `metric.distance` call — bit-identical.
        let block_rows = rows.len();
        for i0 in (0..block_rows).step_by(BLOCKED_I_TILE) {
            let i1 = (i0 + BLOCKED_I_TILE).min(block_rows);
            for j0 in (0..cols).step_by(BLOCKED_J_TILE) {
                let j1 = (j0 + BLOCKED_J_TILE).min(cols);
                for offset in i0..i1 {
                    let ra = a.row(rows.start + offset);
                    let out_row = &mut block[offset * cols..(offset + 1) * cols];
                    for (j, o) in out_row[j0..j1].iter_mut().enumerate() {
                        *o = metric.distance(ra, b.row(j0 + j));
                    }
                }
            }
        }
    });
    out
}

fn gemm_pairwise(a: &Matrix, b: &Matrix, n_threads: usize, stats: Option<&KernelStats>) -> Matrix {
    let lane = SimdLane::detect();
    if let Some(s) = stats {
        s.record_gemm(a.nrows(), b.nrows(), lane);
    }
    let mut out = Matrix::zeros(a.nrows(), b.nrows());
    let cols = b.nrows();
    // The norm-trick epilogue is fused into the GEMM tile write-back:
    // distances stream out in a single pass instead of materialising the
    // Gram matrix and re-walking it (which triples memory traffic on
    // large inputs).
    let na = crate::gemm::row_sq_norms(a);
    let nb = crate::gemm::row_sq_norms(b);
    let packed = PackedPanels::from_rows(b);
    crate::parallel::par_row_blocks(out.as_mut_slice(), cols.max(1), n_threads, |rows, block| {
        crate::gemm::gram_rows_dist_into(a, rows, &packed, lane, &na, &nb, block);
    });
    out
}

/// A neighbour returned by [`KnnIndex`] queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the training matrix.
    pub index: usize,
    /// Distance from the query to that training row.
    pub distance: f64,
}

/// k-nearest-neighbour index over a training matrix.
///
/// Two exact backends — brute force (`O(n d)` per query, the complexity
/// the paper quotes for proximity-based models) and a
/// [`KdTree`](crate::kdtree::KdTree) used automatically for
/// low-dimensional data, where branch-and-bound wins decisively — plus
/// an opt-in approximate backend, the seeded deterministic
/// [`HnswGraph`] selected via
/// [`NeighborBackend::Hnsw`] in the [`KernelConfig`]. The exact
/// backends return identical results; HNSW trades a documented recall
/// target for `O(n log n)` construction and engages only on Euclidean
/// indexes with at least
/// [`HnswParams::min_rows`](crate::hnsw::HnswParams) rows (everything
/// else routes to the exact path and records an
/// [`ann_fallback_hits`](KernelCounters::ann_fallback_hits) count).
///
/// The brute-force sweep is evaluated through the [`DistanceBackend`]
/// in the index's [`KernelConfig`]; the KD-tree crossover
/// (`d ≤ kdtree_crossover_dim`, `n ≥ kdtree_min_rows`) is configurable
/// there too. None of the backends caps the number of indexed or
/// queried rows — the batched sweeps stream tiles through bounded
/// per-query heaps, so memory stays `O(n d + q k)` at any size.
///
/// # Example
///
/// ```
/// use suod_linalg::{DistanceMetric, KnnIndex, Matrix};
///
/// # fn main() -> Result<(), suod_linalg::Error> {
/// let train = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]])?;
/// let index = KnnIndex::build(&train, DistanceMetric::Euclidean)?;
/// let nn = index.query(&[0.2], 2);
/// assert_eq!(nn[0].index, 0);
/// assert_eq!(nn[1].index, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KnnIndex {
    train: Matrix,
    metric: DistanceMetric,
    tree: Option<crate::kdtree::KdTree>,
    /// The approximate graph, when [`NeighborBackend::Hnsw`] is
    /// configured and the index is eligible (Euclidean, large enough).
    hnsw: Option<HnswGraph>,
    config: KernelConfig,
    /// Cached `‖row‖²` for the norm-trick paths; populated on the
    /// brute-force Euclidean gemm configuration and whenever the HNSW
    /// backend engages (its distance evaluations use the same trick).
    train_sq_norms: Option<Vec<f64>>,
    stats: Arc<KernelStats>,
}

impl KnnIndex {
    /// Builds an index over the rows of `train` with the default
    /// [`KernelConfig`], choosing the KD-tree backend automatically for
    /// low-dimensional data.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `train` has no rows.
    pub fn build(train: &Matrix, metric: DistanceMetric) -> Result<Self> {
        Self::build_with(train, metric, KernelConfig::default())
    }

    /// Builds an index with explicit kernel tuning: the distance backend
    /// for brute-force sweeps and the KD-tree crossover thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `train` has no rows.
    pub fn build_with(
        train: &Matrix,
        metric: DistanceMetric,
        config: KernelConfig,
    ) -> Result<Self> {
        Self::build_inner(
            train.clone(),
            metric,
            config,
            GraphSource::Build(1),
            true,
            "KnnIndex::build",
        )
    }

    /// [`build_with`](Self::build_with) with an explicit worker budget
    /// for index construction. Only the HNSW backend has parallel
    /// construction work (its frozen-graph candidate searches); the
    /// resulting index is **bit-identical for every `n_threads`**.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `train` has no rows.
    pub fn build_with_threads(
        train: &Matrix,
        metric: DistanceMetric,
        config: KernelConfig,
        n_threads: usize,
    ) -> Result<Self> {
        Self::build_inner(
            train.clone(),
            metric,
            config,
            GraphSource::Build(n_threads),
            true,
            "KnnIndex::build",
        )
    }

    /// Serializes the index for a `suod-pool` snapshot: the training
    /// slab, metric and [`KernelConfig`], then a graph tag. When the
    /// index engages HNSW the tag is 1 and the built graph follows as
    /// per-level CSR, so [`snapshot_read`](Self::snapshot_read) loads it
    /// instead of rebuilding it; otherwise the tag is 0. A KD-tree is not
    /// stored: it is rebuilt at load (construction is input-ordered, so
    /// query results stay bit-identical).
    pub fn snapshot_write(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.write_matrix(&self.train);
        w.write_metric(self.metric);
        w.write_kernel_config(&self.config);
        match &self.hnsw {
            Some(graph) => {
                w.write_u8(1);
                graph.snapshot_write(w);
            }
            None => w.write_u8(0),
        }
    }

    /// Reconstructs an index written by [`snapshot_write`](Self::snapshot_write).
    /// A `suod-pool/2` or later record brings its HNSW graph, checked
    /// before use; a `suod-pool/1` record carries none, and the graph is rebuilt with
    /// `n_threads` workers (bit-identical for every thread count). Any
    /// KD-tree is rebuilt either way.
    ///
    /// # Errors
    ///
    /// Returns a `snapshot:`-prefixed [`Error::InvalidParameter`] on a
    /// truncated or corrupt payload, on a graph that breaks the rules
    /// [`HnswGraph`] loads under, and on a graph present on an index that
    /// does not engage HNSW or missing on one that does; propagates build
    /// failures.
    pub fn snapshot_read(
        r: &mut crate::snapshot::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Self> {
        let (train, metric, config, graph) = Self::snapshot_read_parts(r, n_threads)?;
        // The decoded slab moves into the index: no second copy.
        Self::build_inner(train, metric, config, graph, true, "KnnIndex::build")
    }

    /// Decodes an index record as its format version wrote it:
    /// `suod-pool/1` records carry no graph (it is rebuilt), later
    /// records carry one exactly when the index engages HNSW.
    fn snapshot_read_parts(
        r: &mut crate::snapshot::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<(Matrix, DistanceMetric, KernelConfig, GraphSource)> {
        let (train, metric, config) = (r.read_matrix()?, r.read_metric()?, r.read_kernel_config()?);
        if r.version() < 2 {
            return Ok((train, metric, config, GraphSource::Build(n_threads)));
        }
        let engaged = hnsw_engages(&config, metric, train.nrows(), true);
        let graph = match (r.read_u8()?, engaged) {
            (0, None) => None,
            (1, Some(params)) => Some(HnswGraph::snapshot_read(r, train.nrows(), params)?),
            (0, Some(_)) => {
                return Err(corrupt("an index that engages HNSW carries no graph"));
            }
            (1, None) => {
                return Err(corrupt(
                    "an index that does not engage HNSW carries a graph",
                ));
            }
            (tag, _) => return Err(corrupt(&format!("unknown graph tag {tag}"))),
        };
        Ok((train, metric, config, GraphSource::Stored(graph)))
    }

    /// [`snapshot_read`](Self::snapshot_read) for indexes held behind an
    /// `Arc`: a record whose training rows, metric and [`KernelConfig`]
    /// equal (bit for bit) those of an index this reader — or a reader it
    /// was [nested](crate::snapshot::SnapshotReader::nested) from — has
    /// already decoded returns that index instead of building a second
    /// one. A pool whose proximity detectors shared one index at fit
    /// therefore shares one again after a reload, and its tree is rebuilt
    /// (or its `suod-pool/1` graph rebuilt) once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`snapshot_read`](Self::snapshot_read), and a
    /// `suod-pool/2` or later record whose graph differs from the one an equal
    /// earlier record carried.
    pub fn snapshot_read_shared(
        r: &mut crate::snapshot::SnapshotReader<'_>,
        n_threads: usize,
    ) -> Result<Arc<Self>> {
        let (train, metric, config, graph) = Self::snapshot_read_parts(r, n_threads)?;
        let seen = r.decoded_indexes();
        if let Some(hit) = seen
            .borrow()
            .iter()
            .find(|ix| ix.metric == metric && ix.config == config && same_bits(&ix.train, &train))
        {
            if let GraphSource::Stored(graph) = &graph {
                if hit.hnsw != *graph {
                    return Err(corrupt(
                        "two records of one neighbour index carry different graphs",
                    ));
                }
            }
            return Ok(Arc::clone(hit));
        }
        let index = Arc::new(Self::build_inner(
            train,
            metric,
            config,
            graph,
            true,
            "KnnIndex::build",
        )?);
        seen.borrow_mut().push(Arc::clone(&index));
        Ok(index)
    }

    /// Builds an index that always scans linearly (used by tests to check
    /// backend equivalence, and available when the access pattern defeats
    /// tree pruning).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] when `train` has no rows.
    pub fn build_brute_force(train: &Matrix, metric: DistanceMetric) -> Result<Self> {
        Self::build_inner(
            train.clone(),
            metric,
            KernelConfig::default(),
            GraphSource::Build(1),
            false,
            "KnnIndex::build_brute_force",
        )
    }

    fn build_inner(
        train: Matrix,
        metric: DistanceMetric,
        config: KernelConfig,
        graph: GraphSource,
        allow_acceleration: bool,
        op: &'static str,
    ) -> Result<Self> {
        if train.nrows() == 0 {
            return Err(Error::Empty(op));
        }
        let stats = Arc::new(KernelStats::new());
        // The ANN backend takes precedence over the KD-tree when it is
        // eligible; otherwise it falls back to the exact decision chain
        // and records the exactness fallback.
        let hnsw_params = hnsw_engages(&config, metric, train.nrows(), allow_acceleration);
        if config.neighbor.is_approximate() && hnsw_params.is_none() {
            stats.record_ann_fallback();
        }
        let tree = if hnsw_params.is_none()
            && allow_acceleration
            && config.uses_kdtree(train.nrows(), train.ncols())
        {
            Some(crate::kdtree::KdTree::build(&train, metric)?)
        } else {
            None
        };
        let gemm_brute =
            hnsw_params.is_none() && tree.is_none() && config.backend == DistanceBackend::Gemm;
        if gemm_brute && metric != DistanceMetric::Euclidean {
            // The gemm backend only accelerates Euclidean; every sweep on
            // this index will take the blocked path instead.
            stats.record_fallback();
        }
        // The HNSW graph shares the cached norms for its norm-trick
        // distance evaluations.
        let train_sq_norms = ((gemm_brute && metric == DistanceMetric::Euclidean)
            || hnsw_params.is_some())
        .then(|| crate::gemm::row_sq_norms(&train));
        let hnsw = match graph {
            // `snapshot_read_parts` checked that a stored graph is
            // present exactly when `hnsw_params` is.
            GraphSource::Stored(graph) => graph,
            GraphSource::Build(n_threads) => hnsw_params.map(|p| {
                HnswGraph::build(
                    &train,
                    train_sq_norms.as_deref().expect("norms cached for hnsw"),
                    p,
                    n_threads,
                )
            }),
        };
        Ok(Self {
            train,
            metric,
            tree,
            hnsw,
            config,
            train_sq_norms,
            stats,
        })
    }

    /// `true` when queries go through the KD-tree backend.
    pub fn uses_kdtree(&self) -> bool {
        self.tree.is_some()
    }

    /// `true` when queries go through the approximate HNSW graph.
    pub fn uses_hnsw(&self) -> bool {
        self.hnsw.is_some()
    }

    /// The HNSW graph, when the approximate backend engaged.
    pub fn hnsw(&self) -> Option<&HnswGraph> {
        self.hnsw.as_ref()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.train.nrows()
    }

    /// `true` when the index holds no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.train.nrows() == 0
    }

    /// The indexed training matrix.
    pub fn train_data(&self) -> &Matrix {
        &self.train
    }

    /// The metric this index was built with.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The kernel tuning this index was built with.
    pub fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    /// `true` when the first `min(k_a, k_b)` entries of a query at the
    /// larger of the two `k` are, bit for bit, the answer to a query at
    /// the smaller — the condition under which models asking this index
    /// for different `k` can share one query.
    ///
    /// The exact backends always qualify: they return the `k` smallest
    /// neighbours under the total order (distance, index), so any answer
    /// is a prefix of every longer one. The HNSW beam search returns the
    /// head of its `max(k, ef_search)` best candidates, so two `k`
    /// qualify exactly when they search with the same beam width.
    pub fn prefix_exact(&self, k_a: usize, k_b: usize) -> bool {
        match &self.hnsw {
            Some(h) => {
                let beam = |k: usize| h.params().ef_search.max(k.min(self.len()));
                beam(k_a) == beam(k_b)
            }
            None => true,
        }
    }

    /// `true` when `other` answers every query exactly as this index
    /// does: same metric, [`KernelConfig`] and backend choice over
    /// bitwise-equal training rows (trees and graphs are deterministic
    /// functions of those).
    pub fn same_answers(&self, other: &KnnIndex) -> bool {
        self.metric == other.metric
            && self.config == other.config
            && self.tree.is_some() == other.tree.is_some()
            && self.hnsw.is_some() == other.hnsw.is_some()
            && same_bits(&self.train, &other.train)
    }

    /// Snapshot of the kernel-work counters accumulated by this index
    /// (and its clones — the counters are shared).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.stats.snapshot()
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending distance.
    ///
    /// `k` is clamped to the index size. Ties are broken by training index.
    ///
    /// # Panics
    ///
    /// Panics when `query.len()` differs from the training dimensionality.
    pub fn query(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.train.ncols(),
            "query dimensionality must match the index"
        );
        if let Some(h) = &self.hnsw {
            // Approximate path: beam search over the HNSW graph with the
            // same norm-trick distances as the gemm tiles. `ef_search`
            // floors at k so the beam can always hold a full answer.
            self.stats.record_ann_query(1);
            let norms = self
                .train_sq_norms
                .as_deref()
                .expect("hnsw caches row norms at build");
            let ctx = DistCtx::new(&self.train, norms);
            return h.search(&ctx, query, k.min(self.train.nrows()), h.params().ef_search);
        }
        if let Some(tree) = &self.tree {
            return tree.query(query, k);
        }
        // Single-query gemm path: same `dist_from_gram` combination, and
        // the scalar `dot` carries the same bits as the packed micro-kernel
        // (one accumulator, ascending k) — so per-row queries agree
        // bitwise with the batched gemm tiles on either lane.
        if let Some(norms) = &self.train_sq_norms {
            let nq = crate::matrix::norm_sq(query);
            let all: Vec<Neighbor> = (0..self.train.nrows())
                .map(|i| Neighbor {
                    index: i,
                    distance: dist_from_gram(
                        nq,
                        norms[i],
                        crate::matrix::dot(query, self.train.row(i)),
                    ),
                })
                .collect();
            return select_smallest(all, k);
        }
        let all: Vec<Neighbor> = (0..self.train.nrows())
            .map(|i| Neighbor {
                index: i,
                distance: self.metric.distance(query, self.train.row(i)),
            })
            .collect();
        select_smallest(all, k)
    }

    /// Like [`query`](Self::query) but excludes the training row
    /// `exclude` — used for leave-one-out queries on the training set
    /// itself (LOF, LoOP, kNN training scores).
    pub fn query_excluding(&self, query: &[f64], k: usize, exclude: usize) -> Vec<Neighbor> {
        let mut nn = self.query(query, (k + 1).min(self.train.nrows()));
        nn.retain(|n| n.index != exclude);
        nn.truncate(k);
        nn
    }

    /// k-nearest neighbours for every row of `queries`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when dimensionality differs.
    pub fn query_batch(&self, queries: &Matrix, k: usize) -> Result<Vec<Vec<Neighbor>>> {
        self.query_batch_parallel(queries, k, 1)
    }

    /// [`query_batch`](Self::query_batch) with the queries chunked
    /// across `n_threads` scoped threads (both backends). Results are
    /// bit-identical to the sequential batch for every `n_threads`, and
    /// equal to per-row [`query`](Self::query) calls.
    ///
    /// On the brute-force blocked/gemm backends this runs the batched
    /// fast path: distances are produced tile by tile (exact packed
    /// Euclidean tiles or scalar per-pair tiles for `blocked`, packed GEMM
    /// tiles plus the norm trick for `gemm`) and each query keeps its k
    /// best in a bounded max-heap — the full `queries x train` distance
    /// matrix is never materialized.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when dimensionality differs.
    pub fn query_batch_parallel(
        &self,
        queries: &Matrix,
        k: usize,
        n_threads: usize,
    ) -> Result<Vec<Vec<Neighbor>>> {
        if queries.ncols() != self.train.ncols() {
            return Err(Error::ShapeMismatch {
                op: "KnnIndex::query_batch",
                lhs: queries.shape(),
                rhs: self.train.shape(),
            });
        }
        if self.hnsw.is_some()
            || self.tree.is_some()
            || self.config.backend == DistanceBackend::Naive
        {
            // Per-row queries chunked across threads; graph searches are
            // pure reads, so chunking cannot change any result.
            return Ok(crate::parallel::par_chunk_map(
                queries.nrows(),
                n_threads,
                |range| range.map(|i| self.query(queries.row(i), k)).collect(),
            ));
        }
        Ok(self.brute_batch_topk(queries, k, n_threads, false))
    }

    /// Leave-one-out k-nearest neighbours for every training row —
    /// `self_query_batch(k, t)[i]` equals `query_excluding(row(i), k, i)`
    /// bit-for-bit. This is the hot loop of every proximity detector's
    /// `fit` (LOF, kNN, LoOP, COF, ABOD).
    ///
    /// The brute-force blocked and gemm backends stream distance tiles
    /// (exact Euclidean or norm-trick GEMM tiles over every pair, scalar
    /// per-pair tiles for the other metrics) through per-row bounded
    /// heaps: no `n x n` matrix at any size, so a fit's peak memory does
    /// not depend on how many sweeps ran before it. The scalar tiles call
    /// the metric once per pair of rows inside a thread's chunk (see
    /// `brute_batch_topk`). The KD-tree and HNSW backends and the naive
    /// reference backend answer row by row. Both are chunked across
    /// `n_threads` and thread-count invariant.
    pub fn self_query_batch(&self, k: usize, n_threads: usize) -> Vec<Vec<Neighbor>> {
        let n = self.train.nrows();
        if self.hnsw.is_none()
            && self.tree.is_none()
            && self.config.backend != DistanceBackend::Naive
        {
            return self.brute_batch_topk(&self.train, k, n_threads, true);
        }
        crate::parallel::par_chunk_map(n, n_threads, |range| {
            range
                .map(|i| self.query_excluding(self.train.row(i), k, i))
                .collect()
        })
    }

    /// The batched brute-force kNN fast path: stream `train` tiles
    /// (packed GEMM tiles on the gemm configuration, exact packed
    /// Euclidean tiles on the exact one, scalar per-pair tiles for the
    /// other metrics and for a thread's chunk of fewer than
    /// `EXACT_PACK_MIN_ROWS` exact Euclidean rows) through a bounded max-heap per query, each
    /// candidate farther than its heap's worst skipped before any heap
    /// work.
    ///
    /// Deterministic across `n_threads` and tile boundaries: every
    /// distance is computed by a per-element code path independent of the
    /// tiling, and the heap keeps the k smallest under the total order
    /// (distance, index) — a unique set, so push order is irrelevant.
    /// With `exclude_self` — `queries` is the training matrix itself —
    /// the heap holds `k+1` candidates and the querying row is dropped
    /// afterwards, the exact [`query_excluding`](Self::query_excluding)
    /// protocol. The packed tiles compute every pair; the scalar tiles
    /// (Manhattan, Minkowski) evaluate a pair whose two rows
    /// both fall in one thread's chunk once, at (lower row, higher row),
    /// and push the distance into both rows' heaps: every metric is
    /// bitwise symmetric (`(x - y)²` and `|x - y|` do not see the sign),
    /// so the heaps receive the same candidates as from the full sweep
    /// for half the metric calls at one thread, and still no `n x n`
    /// matrix.
    fn brute_batch_topk(
        &self,
        queries: &Matrix,
        k: usize,
        n_threads: usize,
        exclude_self: bool,
    ) -> Vec<Vec<Neighbor>> {
        let n = self.train.nrows();
        let k_eff = if exclude_self {
            (k + 1).min(n)
        } else {
            k.min(n)
        };
        // The norm-trick GEMM path: train norms cached at build, query
        // norms taken once per call, indexed by absolute query row.
        let gemm = self
            .train_sq_norms
            .as_deref()
            .map(|nb| (crate::gemm::row_sq_norms(queries), nb));
        let euclidean = self.metric == DistanceMetric::Euclidean;
        let lane = SimdLane::detect();
        if gemm.is_some() {
            // Logical work of one queries x train gemm; derived from
            // shapes so the counters match at every thread count (the
            // lane tag is host-dependent, the rest is not).
            self.stats.record_gemm(queries.nrows(), n, lane);
        }
        let train = &self.train;
        let metric = self.metric;
        crate::parallel::par_chunk_map(queries.nrows(), n_threads, |range| {
            let mut heaps: Vec<TopK> = range.clone().map(|_| TopK::new(k_eff)).collect();
            // Euclidean chunks run packed tiles: the norm-trick GEMM when
            // the norms are cached, the exact kernel otherwise. A chunk
            // too short to repay packing the train matrix stays on the
            // per-pair loop, which gives the exact kernel's bits.
            let tiled = euclidean && (gemm.is_some() || range.len() >= EXACT_PACK_MIN_ROWS);
            let mut scratch = if tiled {
                vec![0.0; range.len().min(KNN_Q_TILE) * n.min(KNN_T_TILE)]
            } else {
                Vec::new()
            };
            for t0 in (0..n).step_by(KNN_T_TILE) {
                let t1 = (t0 + KNN_T_TILE).min(n);
                // Pack the train tile once per thread: O(n d) per sweep,
                // noise next to the O(nq n d) contraction once the chunk
                // holds a few rows.
                let packed = tiled.then(|| PackedPanels::from_row_range(train, t0..t1, NR));
                for q0 in (range.start..range.end).step_by(KNN_Q_TILE) {
                    let q1 = (q0 + KNN_Q_TILE).min(range.end);
                    if let Some(packed) = &packed {
                        let width = t1 - t0;
                        let tile = &mut scratch[..(q1 - q0) * width];
                        match &gemm {
                            Some((qnorms, norms)) => crate::gemm::gram_rows_dist_into(
                                queries,
                                q0..q1,
                                packed,
                                lane,
                                qnorms,
                                &norms[t0..t1],
                                tile,
                            ),
                            None => crate::gemm::euclidean_rows_into(
                                queries,
                                q0..q1,
                                packed,
                                lane,
                                tile,
                            ),
                        }
                        for (qi, row) in (q0..q1).zip(tile.chunks_exact(width)) {
                            heaps[qi - range.start].offer_all(t0, row.iter().copied());
                        }
                    } else if exclude_self {
                        // Row j's heap lives in this chunk when `range`
                        // holds j: the pair is then evaluated from its
                        // lower row only and pushed into both heaps. Its
                        // own loop, so the query loop below — predict's
                        // inner loop — carries none of these tests.
                        for qi in q0..q1 {
                            let rq = queries.row(qi);
                            for j in t0..t1 {
                                let shared = range.contains(&j);
                                if shared && j < qi {
                                    continue;
                                }
                                let distance = metric.distance(rq, train.row(j));
                                heaps[qi - range.start].push(Neighbor { index: j, distance });
                                if shared && j > qi {
                                    heaps[j - range.start].push(Neighbor {
                                        index: qi,
                                        distance,
                                    });
                                }
                            }
                        }
                    } else {
                        for qi in q0..q1 {
                            let rq = queries.row(qi);
                            heaps[qi - range.start]
                                .offer_all(t0, (t0..t1).map(|j| metric.distance(rq, train.row(j))));
                        }
                    }
                }
            }
            heaps
                .into_iter()
                .enumerate()
                .map(|(offset, heap)| {
                    let mut nn = heap.into_sorted();
                    if exclude_self {
                        nn.retain(|nb| nb.index != range.start + offset);
                        nn.truncate(k);
                    }
                    nn
                })
                .collect()
        })
    }
}

/// Where an index's HNSW graph comes from.
enum GraphSource {
    /// Build it with this many workers: at fit, and for `suod-pool/1`
    /// records, which carry no graph.
    Build(usize),
    /// Decoded from a `suod-pool/2` or later record: present exactly when the
    /// index engages HNSW.
    Stored(Option<HnswGraph>),
}

/// The HNSW params an index over `n_rows` rows uses, or `None` when it
/// answers exactly: the backend is not configured, acceleration is off,
/// the metric is not Euclidean, or the index is below `min_rows`.
fn hnsw_engages(
    config: &KernelConfig,
    metric: DistanceMetric,
    n_rows: usize,
    allow_acceleration: bool,
) -> Option<crate::hnsw::HnswParams> {
    match config.neighbor {
        NeighborBackend::Hnsw(p)
            if allow_acceleration
                && metric == DistanceMetric::Euclidean
                && n_rows >= p.min_rows =>
        {
            Some(p)
        }
        _ => None,
    }
}

/// Shape and every `f64` bit pattern equal (`==` on floats would call
/// `0.0` and `-0.0` the same data).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bounded max-heap over the total order (distance, index): keeps the
/// `k` smallest neighbours seen. Because the order is total, the k-smallest
/// set is unique and [`TopK::into_sorted`] matches [`select_smallest`]
/// exactly, independent of push order.
struct TopK {
    heap: Vec<Neighbor>,
    k: usize,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            heap: Vec::with_capacity(k),
            k,
        }
    }

    /// The distance a candidate must not exceed to enter: the root's once
    /// the heap is full, `+inf` before.
    #[inline]
    fn worst(&self) -> f64 {
        match self.heap.first() {
            Some(root) if self.heap.len() == self.k => root.distance,
            _ if self.k == 0 => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        }
    }

    /// Pushes `distances[j]` as neighbour `first + j` for every `j`,
    /// skipping before any heap work each candidate farther than the
    /// current worst: it cannot enter whatever its index, so the kept set
    /// is exactly the one [`push`](Self::push) alone would keep.
    #[inline]
    fn offer_all(&mut self, first: usize, distances: impl IntoIterator<Item = f64>) {
        let mut worst = self.worst();
        for (j, distance) in distances.into_iter().enumerate() {
            if distance > worst {
                continue;
            }
            self.push(Neighbor {
                index: first + j,
                distance,
            });
            worst = self.worst();
        }
    }

    #[inline]
    fn push(&mut self, n: Neighbor) {
        if self.heap.len() < self.k {
            self.heap.push(n);
            self.sift_up(self.heap.len() - 1);
        } else if self.k > 0 && cmp_neighbor(&n, &self.heap[0]) == std::cmp::Ordering::Less {
            self.heap[0] = n;
            self.sift_down();
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp_neighbor(&self.heap[i], &self.heap[parent]) == std::cmp::Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self) {
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let mut largest = left;
            let right = left + 1;
            if right < len
                && cmp_neighbor(&self.heap[right], &self.heap[left]) == std::cmp::Ordering::Greater
            {
                largest = right;
            }
            if cmp_neighbor(&self.heap[largest], &self.heap[i]) == std::cmp::Ordering::Greater {
                self.heap.swap(i, largest);
                i = largest;
            } else {
                break;
            }
        }
    }

    fn into_sorted(mut self) -> Vec<Neighbor> {
        self.heap.sort_by(cmp_neighbor);
        self.heap
    }
}

/// Keeps the `k` smallest neighbours sorted ascending (distance, then
/// index): partial selection then sort of the head, `O(n + k log k)`.
fn select_smallest(mut all: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    let k = k.min(all.len());
    if all.is_empty() {
        return all;
    }
    let pivot = k.saturating_sub(1);
    all.select_nth_unstable_by(pivot, cmp_neighbor);
    all.truncate(k);
    all.sort_by(cmp_neighbor);
    all
}

fn cmp_neighbor(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .expect("distances are finite")
        .then(a.index.cmp(&b.index))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points() -> Matrix {
        Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]]).unwrap()
    }

    #[test]
    fn metric_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(DistanceMetric::Euclidean.distance(&a, &b), 5.0);
        assert_eq!(DistanceMetric::Manhattan.distance(&a, &b), 7.0);
        let mink = DistanceMetric::Minkowski(2.0).distance(&a, &b);
        assert!((mink - 5.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_p1_equals_manhattan() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 4.0, 2.5];
        let m1 = DistanceMetric::Minkowski(1.0).distance(&a, &b);
        let man = DistanceMetric::Manhattan.distance(&a, &b);
        assert!((m1 - man).abs() < 1e-12);
    }

    #[test]
    fn parse_names() {
        assert_eq!(
            DistanceMetric::parse("euclidean").unwrap(),
            DistanceMetric::Euclidean
        );
        assert_eq!(
            DistanceMetric::parse("manhattan").unwrap(),
            DistanceMetric::Manhattan
        );
        assert!(matches!(
            DistanceMetric::parse("minkowski").unwrap(),
            DistanceMetric::Minkowski(_)
        ));
        assert!(DistanceMetric::parse("cosine").is_err());
    }

    #[test]
    fn pairwise_shapes_and_values() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let d = pairwise(
            &a,
            &b,
            DistanceMetric::Euclidean,
            DistanceBackend::Blocked,
            1,
        );
        assert_eq!(d.shape(), (2, 1));
        assert!((d.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((d.get(1, 0) - 1.0).abs() < 1e-12);
        // One width check guards every backend.
        for backend in [DistanceBackend::Naive, DistanceBackend::Gemm] {
            let config = KernelConfig::default().with_backend(backend);
            let wide = Matrix::zeros(1, 3);
            let err =
                pairwise_distances_with(&a, &wide, DistanceMetric::Euclidean, config, 1, None);
            assert!(matches!(err, Err(Error::ShapeMismatch { .. })), "{backend}");
        }
    }

    #[test]
    fn knn_query_sorted() {
        let idx = KnnIndex::build(&line_points(), DistanceMetric::Euclidean).unwrap();
        let nn = idx.query(&[1.4], 3);
        assert_eq!(
            nn.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![1, 2, 0]
        );
        assert!(nn[0].distance <= nn[1].distance && nn[1].distance <= nn[2].distance);
    }

    #[test]
    fn knn_k_clamped() {
        let idx = KnnIndex::build(&line_points(), DistanceMetric::Euclidean).unwrap();
        assert_eq!(idx.query(&[0.0], 99).len(), 4);
    }

    #[test]
    fn knn_excluding_self() {
        let idx = KnnIndex::build(&line_points(), DistanceMetric::Euclidean).unwrap();
        let nn = idx.query_excluding(&[1.0], 2, 1);
        assert!(nn.iter().all(|n| n.index != 1));
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].index, 0); // tie with 2, broken by index
    }

    #[test]
    fn knn_build_empty_errors() {
        let empty = Matrix::zeros(0, 3);
        assert!(KnnIndex::build(&empty, DistanceMetric::Euclidean).is_err());
    }

    #[test]
    fn batch_matches_single() {
        let idx = KnnIndex::build(&line_points(), DistanceMetric::Euclidean).unwrap();
        let q = Matrix::from_rows(&[vec![0.1], vec![9.0]]).unwrap();
        let batch = idx.query_batch(&q, 2).unwrap();
        assert_eq!(batch[0], idx.query(&[0.1], 2));
        assert_eq!(batch[1], idx.query(&[9.0], 2));
    }

    /// Deterministic pseudo-random matrix for bit-identity tests.
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    const ALL_METRICS: [DistanceMetric; 3] = [
        DistanceMetric::Euclidean,
        DistanceMetric::Manhattan,
        DistanceMetric::Minkowski(3.0),
    ];

    /// [`pairwise_distances_with`] on `backend` with no counters.
    fn pairwise(
        a: &Matrix,
        b: &Matrix,
        metric: DistanceMetric,
        backend: DistanceBackend,
        threads: usize,
    ) -> Matrix {
        let config = KernelConfig::default().with_backend(backend);
        pairwise_distances_with(a, b, metric, config, threads, None).unwrap()
    }

    #[test]
    fn pairwise_parallel_bit_identical() {
        let a = random_matrix(37, 5, 7);
        let b = random_matrix(23, 5, 11);
        for metric in ALL_METRICS {
            let base = pairwise(&a, &b, metric, DistanceBackend::Blocked, 1);
            for threads in [2usize, 4, 8] {
                let par = pairwise(&a, &b, metric, DistanceBackend::Blocked, threads);
                assert_eq!(par.as_slice(), base.as_slice(), "threads={threads}");
            }
        }
    }

    #[test]
    fn blocked_backend_bit_identical_to_naive() {
        // Shapes straddling the j-tile width so edge tiles are exercised.
        let a = random_matrix(67, 9, 21);
        let b = random_matrix(BLOCKED_J_TILE + 37, 9, 22);
        for metric in ALL_METRICS {
            let naive = pairwise(&a, &b, metric, DistanceBackend::Naive, 1);
            for threads in [1usize, 3] {
                let blocked = pairwise(&a, &b, metric, DistanceBackend::Blocked, threads);
                assert_eq!(
                    blocked.as_slice(),
                    naive.as_slice(),
                    "{metric:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn gemm_backend_close_to_naive_and_deterministic() {
        let a = random_matrix(41, 7, 31);
        let b = random_matrix(29, 7, 32);
        let euclid = DistanceMetric::Euclidean;
        let naive = pairwise(&a, &b, euclid, DistanceBackend::Naive, 1);
        let base = pairwise(&a, &b, euclid, DistanceBackend::Gemm, 1);
        for (g, n) in base.as_slice().iter().zip(naive.as_slice()) {
            assert!((g - n).abs() <= 1e-9 * (1.0 + n.abs()), "{g} vs {n}");
        }
        for threads in [2usize, 5] {
            let par = pairwise(&a, &b, euclid, DistanceBackend::Gemm, threads);
            assert_eq!(par.as_slice(), base.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn gemm_backend_non_euclidean_falls_back() {
        let a = random_matrix(12, 4, 3);
        let stats = KernelStats::new();
        let gemm_cfg = KernelConfig::default().with_backend(DistanceBackend::Gemm);
        let gemm =
            pairwise_distances_with(&a, &a, DistanceMetric::Manhattan, gemm_cfg, 1, Some(&stats))
                .unwrap();
        let naive = pairwise(&a, &a, DistanceMetric::Manhattan, DistanceBackend::Naive, 1);
        assert_eq!(gemm.as_slice(), naive.as_slice());
        assert_eq!(stats.snapshot().fallback_hits, 1);
        assert_eq!(stats.snapshot().gemm_tiles, 0);
    }

    #[test]
    fn gemm_self_distances_symmetric_with_zero_diagonal() {
        // Gram and norm sums are symmetric term by term, and a row's Gram
        // diagonal is its cached norm bit for bit, so `a` against itself
        // comes out exactly symmetric with an exactly zero diagonal.
        let a = random_matrix(19, 6, 13);
        let d = pairwise(&a, &a, DistanceMetric::Euclidean, DistanceBackend::Gemm, 1);
        for i in 0..a.nrows() {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..a.nrows() {
                assert_eq!(d.get(i, j).to_bits(), d.get(j, i).to_bits());
                assert!(d.get(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn exact_self_distances_symmetric_with_zero_diagonal() {
        // Every metric is symmetric term by term (`|x - y| == |y - x|`), so
        // the exact backends need no mirror pass: `a` against itself is
        // already bitwise symmetric, at any thread count.
        let a = random_matrix(31, 4, 3);
        for metric in ALL_METRICS {
            for backend in [DistanceBackend::Naive, DistanceBackend::Blocked] {
                for threads in [1usize, 3] {
                    let d = pairwise(&a, &a, metric, backend, threads);
                    for i in 0..a.nrows() {
                        assert_eq!(d.get(i, i).to_bits(), 0, "{metric:?} {backend} diag {i}");
                        for j in 0..i {
                            assert_eq!(
                                d.get(i, j).to_bits(),
                                d.get(j, i).to_bits(),
                                "{metric:?} {backend} threads={threads} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_pairwise_counts_shape_derived_tiles_and_one_lane() {
        let a = random_matrix(10, 5, 61);
        let b = random_matrix(7, 5, 62);
        let config = KernelConfig::default().with_backend(DistanceBackend::Gemm);
        for threads in [1usize, 4] {
            let stats = KernelStats::new();
            pairwise_distances_with(
                &a,
                &b,
                DistanceMetric::Euclidean,
                config,
                threads,
                Some(&stats),
            )
            .unwrap();
            let c = stats.snapshot();
            // ceil(10/4)=3 a-panels + ceil(7/8)=1 b-panel; 3*1 tiles.
            assert_eq!(c.packed_panels, 4, "threads={threads}");
            assert_eq!(c.gemm_tiles, 3, "threads={threads}");
            assert_eq!(c.fallback_hits, 0, "threads={threads}");
            assert_eq!(c.simd_invocations + c.scalar_invocations, 1);
        }
        // The exact backends never touch the GEMM counters.
        for backend in [DistanceBackend::Naive, DistanceBackend::Blocked] {
            let stats = KernelStats::new();
            let config = KernelConfig::default().with_backend(backend);
            pairwise_distances_with(&a, &b, DistanceMetric::Euclidean, config, 2, Some(&stats))
                .unwrap();
            assert_eq!(stats.snapshot(), KernelCounters::default(), "{backend}");
        }
    }

    #[test]
    fn gemm_backend_falls_back_bitwise_for_every_non_euclidean_metric() {
        // Minkowski(2) is the Euclidean distance on paper, but it is not
        // the Euclidean metric tag: it must take the exact path, so its
        // bits match the naive loop, not the norm trick.
        let a = random_matrix(17, 5, 63);
        let b = random_matrix(BLOCKED_J_TILE + 3, 5, 64);
        let config = KernelConfig::default().with_backend(DistanceBackend::Gemm);
        for metric in [
            DistanceMetric::Manhattan,
            DistanceMetric::Minkowski(3.0),
            DistanceMetric::Minkowski(2.0),
        ] {
            let naive = pairwise(&a, &b, metric, DistanceBackend::Naive, 1);
            for threads in [1usize, 3] {
                let stats = KernelStats::new();
                let got =
                    pairwise_distances_with(&a, &b, metric, config, threads, Some(&stats)).unwrap();
                assert_eq!(got.as_slice(), naive.as_slice(), "{metric:?} t={threads}");
                let c = stats.snapshot();
                assert_eq!(c.fallback_hits, 1, "{metric:?}");
                assert_eq!(c.gemm_tiles + c.packed_panels, 0, "{metric:?}");
            }
        }
    }

    #[test]
    fn empty_operands_give_empty_matrices_on_every_backend() {
        let some = random_matrix(5, 3, 65);
        let none = Matrix::zeros(0, 3);
        for backend in [
            DistanceBackend::Naive,
            DistanceBackend::Blocked,
            DistanceBackend::Gemm,
        ] {
            for threads in [1usize, 4] {
                let d = pairwise(&none, &some, DistanceMetric::Euclidean, backend, threads);
                assert_eq!(d.shape(), (0, 5), "{backend}");
                let d = pairwise(&some, &none, DistanceMetric::Euclidean, backend, threads);
                assert_eq!(d.shape(), (5, 0), "{backend}");
                let d = pairwise(&none, &none, DistanceMetric::Euclidean, backend, threads);
                assert_eq!(d.shape(), (0, 0), "{backend}");
            }
        }
    }

    #[test]
    fn surplus_threads_change_no_bits() {
        // More threads than rows: the row split clamps, never splits a
        // row or reorders a reduction.
        let a = random_matrix(3, 6, 66);
        let b = random_matrix(NR + 1, 6, 67);
        for backend in [
            DistanceBackend::Naive,
            DistanceBackend::Blocked,
            DistanceBackend::Gemm,
        ] {
            let base = pairwise(&a, &b, DistanceMetric::Euclidean, backend, 1);
            let wide = pairwise(&a, &b, DistanceMetric::Euclidean, backend, 64);
            assert_eq!(wide.as_slice(), base.as_slice(), "{backend}");
        }
    }

    #[test]
    fn brute_index_distances_equal_the_entry_point_bitwise() {
        // The index and the one pairwise entry point are two views of
        // one kernel per backend: each neighbour's distance carries the
        // same bits as the matching pairwise cell.
        let train = random_matrix(KNN_T_TILE + 5, 5, 68);
        let queries = random_matrix(KNN_Q_TILE + 3, 5, 69);
        for backend in [DistanceBackend::Blocked, DistanceBackend::Gemm] {
            let config = KernelConfig {
                kdtree_crossover_dim: 0, // force brute
                ..KernelConfig::default().with_backend(backend)
            };
            let idx = KnnIndex::build_with(&train, DistanceMetric::Euclidean, config).unwrap();
            let d = pairwise_distances_with(
                &queries,
                &train,
                DistanceMetric::Euclidean,
                config,
                1,
                None,
            )
            .unwrap();
            let batch = idx.query_batch(&queries, 9).unwrap();
            for (i, nn) in batch.iter().enumerate() {
                assert_eq!(nn.len(), 9);
                for n in nn {
                    assert_eq!(
                        n.distance.to_bits(),
                        d.get(i, n.index).to_bits(),
                        "{backend} query {i} neighbour {}",
                        n.index
                    );
                }
            }
        }
    }

    #[test]
    fn query_batch_parallel_bit_identical() {
        let train = random_matrix(60, 6, 1);
        let queries = random_matrix(33, 6, 2);
        for idx in [
            KnnIndex::build(&train, DistanceMetric::Euclidean).unwrap(),
            KnnIndex::build_brute_force(&train, DistanceMetric::Euclidean).unwrap(),
        ] {
            let base = idx.query_batch(&queries, 5).unwrap();
            for threads in [2usize, 4, 8] {
                let par = idx.query_batch_parallel(&queries, 5, threads).unwrap();
                assert_eq!(par, base, "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_fast_path_matches_per_row_queries() {
        // Cross the KNN_T_TILE boundary so multiple tiles feed the heaps.
        let train = random_matrix(KNN_T_TILE + 77, 6, 40);
        let queries = random_matrix(KNN_Q_TILE + 11, 6, 41);
        for backend in [DistanceBackend::Blocked, DistanceBackend::Gemm] {
            let cfg = KernelConfig {
                kdtree_crossover_dim: 0, // force brute
                ..KernelConfig::default().with_backend(backend)
            };
            let idx = KnnIndex::build_with(&train, DistanceMetric::Euclidean, cfg).unwrap();
            assert!(!idx.uses_kdtree());
            let batch = idx.query_batch(&queries, 7).unwrap();
            for (i, nn) in batch.iter().enumerate() {
                assert_eq!(nn, &idx.query(queries.row(i), 7), "{backend:?} row {i}");
            }
            for threads in [2usize, 4] {
                let par = idx.query_batch_parallel(&queries, 7, threads).unwrap();
                assert_eq!(par, batch, "{backend:?} threads={threads}");
            }
        }
    }

    #[test]
    fn gemm_index_records_counters() {
        let train = random_matrix(50, 6, 50);
        let cfg = KernelConfig {
            kdtree_crossover_dim: 0,
            ..KernelConfig::default().with_backend(DistanceBackend::Gemm)
        };
        let idx = KnnIndex::build_with(&train, DistanceMetric::Euclidean, cfg).unwrap();
        idx.self_query_batch(3, 1);
        let c = idx.kernel_counters();
        assert!(c.gemm_tiles > 0);
        assert!(c.packed_panels > 0);
        assert_eq!(c.fallback_hits, 0);
    }

    #[test]
    fn gemm_index_non_euclidean_counts_fallback() {
        let train = random_matrix(30, 6, 51);
        let cfg = KernelConfig {
            kdtree_crossover_dim: 0,
            ..KernelConfig::default().with_backend(DistanceBackend::Gemm)
        };
        let idx = KnnIndex::build_with(&train, DistanceMetric::Manhattan, cfg).unwrap();
        let c = idx.kernel_counters();
        assert_eq!(c.fallback_hits, 1);
        // The sweeps still agree exactly with the naive reference.
        let naive = KnnIndex::build_brute_force(&train, DistanceMetric::Manhattan).unwrap();
        assert_eq!(idx.self_query_batch(4, 1), naive.self_query_batch(4, 1));
    }

    #[test]
    fn self_query_batch_matches_query_excluding() {
        // Brute backend (tile-streamed sweep) and KD-tree backend.
        let wide = random_matrix(50, 20, 9); // > crossover dim -> brute
        let narrow = random_matrix(150, 3, 10); // KD-tree eligible
        for train in [&wide, &narrow] {
            let idx = KnnIndex::build(train, DistanceMetric::Euclidean).unwrap();
            let expected: Vec<Vec<Neighbor>> = (0..train.nrows())
                .map(|i| idx.query_excluding(train.row(i), 4, i))
                .collect();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    idx.self_query_batch(4, threads),
                    expected,
                    "threads={threads}"
                );
            }
        }
        // The default blocked sweep at the edges: one row, two rows, one
        // row past a query-tile boundary, several train tiles; k of one,
        // wider than a query tile, and at least the whole set.
        for n in [1usize, 2, 257, 1600] {
            let train = random_matrix(n, 8, 90 + n as u64);
            let idx = KnnIndex::build(&train, DistanceMetric::Euclidean).unwrap();
            assert!(!idx.uses_kdtree());
            assert_eq!(idx.kernel_config().backend, DistanceBackend::Blocked);
            for k in [1usize, 40, n + 3] {
                let expected: Vec<Vec<Neighbor>> = (0..n)
                    .map(|i| idx.query_excluding(train.row(i), k, i))
                    .collect();
                // One chunk (every pair evaluated once) and two (pairs
                // across the chunks evaluated from both sides).
                for threads in [1usize, 2] {
                    assert_eq!(
                        idx.self_query_batch(k, threads),
                        expected,
                        "n={n} k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn self_query_batch_gemm_matches_query_excluding() {
        let train = random_matrix(90, 8, 12);
        let cfg = KernelConfig {
            kdtree_crossover_dim: 0,
            ..KernelConfig::default().with_backend(DistanceBackend::Gemm)
        };
        let idx = KnnIndex::build_with(&train, DistanceMetric::Euclidean, cfg).unwrap();
        let expected: Vec<Vec<Neighbor>> = (0..train.nrows())
            .map(|i| idx.query_excluding(train.row(i), 5, i))
            .collect();
        for threads in [1usize, 3] {
            assert_eq!(
                idx.self_query_batch(5, threads),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn self_query_batch_respects_metric() {
        let train = random_matrix(40, 18, 5);
        let idx = KnnIndex::build_brute_force(&train, DistanceMetric::Manhattan).unwrap();
        let expected: Vec<Vec<Neighbor>> = (0..train.nrows())
            .map(|i| idx.query_excluding(train.row(i), 3, i))
            .collect();
        assert_eq!(idx.self_query_batch(3, 2), expected);
    }

    #[test]
    fn crossover_config_controls_tree_choice() {
        let train = random_matrix(200, 10, 60);
        let on = KnnIndex::build_with(
            &train,
            DistanceMetric::Euclidean,
            KernelConfig {
                kdtree_crossover_dim: 10,
                ..KernelConfig::default()
            },
        )
        .unwrap();
        assert!(on.uses_kdtree());
        let off = KnnIndex::build_with(
            &train,
            DistanceMetric::Euclidean,
            KernelConfig {
                kdtree_crossover_dim: 9,
                ..KernelConfig::default()
            },
        )
        .unwrap();
        assert!(!off.uses_kdtree());
        // Both backends return the same neighbours.
        assert_eq!(on.self_query_batch(4, 1), off.self_query_batch(4, 1));
    }

    #[test]
    fn topk_matches_select_smallest() {
        let train = random_matrix(300, 3, 70);
        let all: Vec<Neighbor> = (0..train.nrows())
            .map(|i| Neighbor {
                index: i,
                distance: train.get(i, 0).abs(),
            })
            .collect();
        for k in [0usize, 1, 7, 299, 300, 400] {
            let mut heap = TopK::new(k.min(all.len()));
            for &n in &all {
                heap.push(n);
            }
            assert_eq!(heap.into_sorted(), select_smallest(all.clone(), k), "k={k}");
        }
    }

    #[test]
    fn prefix_exact_holds_where_it_says_so() {
        use crate::HnswParams;
        let train = random_matrix(400, 6, 71);
        let queries = random_matrix(25, 6, 72);
        let hnsw = KernelConfig::default().with_neighbor(NeighborBackend::Hnsw(HnswParams {
            ef_search: 12,
            min_rows: 1,
            ..HnswParams::default()
        }));
        let configs = [
            KernelConfig::default(),
            KernelConfig::default().with_backend(DistanceBackend::Naive),
            KernelConfig::default().with_backend(DistanceBackend::Gemm),
            KernelConfig::default().with_kdtree_crossover_dim(16),
            hnsw,
        ];
        for config in configs {
            let index = KnnIndex::build_with(&train, DistanceMetric::Euclidean, config).unwrap();
            for (small, large) in [(3usize, 12usize), (5, 40), (12, 13), (30, 30), (7, 900)] {
                let exact = index.prefix_exact(small, large);
                assert_eq!(exact, index.prefix_exact(large, small));
                // Exact backends always; HNSW while both search with the
                // same beam (k <= ef_search = 12, or equal k).
                assert_eq!(exact, !index.uses_hnsw() || large <= 12 || small == large);
                if exact {
                    let wide = index.query_batch(&queries, large).unwrap();
                    let narrow = index.query_batch(&queries, small).unwrap();
                    for (w, n) in wide.iter().zip(&narrow) {
                        assert_eq!(&w[..n.len()], &n[..], "{config:?} {small} in {large}");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_index_records_decode_to_one_shared_index() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};
        let train = random_matrix(60, 4, 73);
        let euclid = KnnIndex::build(&train, DistanceMetric::Euclidean).unwrap();
        let manhattan = KnnIndex::build(&train, DistanceMetric::Manhattan).unwrap();
        let mut other_rows = train.clone();
        other_rows.set(59, 3, -0.0);
        let other = KnnIndex::build(&other_rows, DistanceMetric::Euclidean).unwrap();
        assert!(euclid.same_answers(&euclid.clone()));
        assert!(!euclid.same_answers(&manhattan));
        assert!(!euclid.same_answers(&other));

        let mut inner = SnapshotWriter::new();
        euclid.snapshot_write(&mut inner);
        let mut w = SnapshotWriter::new();
        euclid.snapshot_write(&mut w);
        manhattan.snapshot_write(&mut w);
        other.snapshot_write(&mut w);
        w.write_bytes(inner.as_bytes());
        euclid.snapshot_write(&mut w);

        let mut r = SnapshotReader::new(w.as_bytes());
        let first = KnnIndex::snapshot_read_shared(&mut r, 1).unwrap();
        let second = KnnIndex::snapshot_read_shared(&mut r, 1).unwrap();
        let third = KnnIndex::snapshot_read_shared(&mut r, 1).unwrap();
        let body = r.read_bytes().unwrap();
        let nested = KnnIndex::snapshot_read_shared(&mut r.nested(body), 1).unwrap();
        let last = KnnIndex::snapshot_read_shared(&mut r, 1).unwrap();
        assert!(r.is_exhausted());
        assert!(!Arc::ptr_eq(&first, &second), "another metric");
        assert!(!Arc::ptr_eq(&first, &third), "other rows");
        assert!(
            Arc::ptr_eq(&first, &nested),
            "a nested record collapses too"
        );
        assert!(Arc::ptr_eq(&first, &last));
        // An unrelated reader starts from nothing.
        let fresh = KnnIndex::snapshot_read_shared(&mut SnapshotReader::new(w.as_bytes()), 1);
        assert!(!Arc::ptr_eq(&first, &fresh.unwrap()));
        assert!(first.same_answers(&euclid));
    }
}

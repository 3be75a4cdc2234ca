//! Shared neighbor-graph cache for proximity detectors.
//!
//! SUOD's heterogeneous pools are dominated by proximity detectors (kNN,
//! LOF, LoOP, COF, ABOD) whose fit cost is one [`KnnIndex`] build plus one
//! leave-one-out k-nearest-neighbour sweep — and a naive pool redoes both
//! from scratch for every model trained on the same matrix. Following the
//! operator-decomposition observation of TOD (Zhao et al., 2021), this
//! module factors that work out: a [`NeighborCache`] is a concurrent,
//! fingerprint-keyed store that builds each index **exactly once** per
//! `(data, metric)` pair, runs one [`KnnIndex::self_query_batch`] at the
//! **maximum k requested across the pool**, and serves sorted-prefix
//! slices to every detector that asks for a smaller k.
//!
//! Prefix serving is exact, not approximate: neighbour lists are totally
//! ordered by `(distance, index)`, so the first `k` entries of a list
//! computed at `k_max >= k` are bit-identical to a direct
//! `self_query_batch(k, t)` (see the property tests in
//! `tests/properties.rs`). A pool of `m` proximity models over `g`
//! distinct feature spaces therefore pays `O(g · n log n)` index/query
//! work instead of `O(m · n log n)`.
//!
//! # Example
//!
//! ```
//! use suod_linalg::{DataFingerprint, DistanceMetric, KernelConfig, Matrix, NeighborCache};
//!
//! # fn main() -> Result<(), suod_linalg::Error> {
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![9.0]])?;
//! let fp = DataFingerprint::of(&x);
//! let cache = NeighborCache::with_config(KernelConfig::default(), suod_observe::noop());
//! // First call builds the index and the k=3 neighbour lists...
//! let g3 = cache.get_or_build_keyed(fp, &x, DistanceMetric::Euclidean, 3, 1)?;
//! // ...later, smaller-k requests are served as prefix views.
//! let g2 = cache.get_or_build_keyed(fp, &x, DistanceMetric::Euclidean, 2, 1)?;
//! assert_eq!(g3.prefix(0, 2), g2.prefix(0, 2));
//! assert_eq!(cache.stats().builds, 1);
//! assert_eq!(cache.stats().hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::distance::{DistanceMetric, KnnIndex, Neighbor};
use crate::gemm::{KernelConfig, KernelCounters};
use crate::{Matrix, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use suod_observe::{Counter, Observer, SpanAttrs, Stage};

/// Content identity of a training matrix: shape plus two independent
/// 64-bit hashes over the raw `f64` bits (order-sensitive). Two matrices
/// with equal fingerprints are treated as the same cache key, so the
/// probability of a spurious collision must be negligible — with 128
/// independent hash bits it is ~2^-128 per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataFingerprint {
    rows: usize,
    cols: usize,
    hash_a: u64,
    hash_b: u64,
}

impl DataFingerprint {
    /// Fingerprints the contents of `x` (one `O(n d)` pass).
    pub fn of(x: &Matrix) -> Self {
        let mut a = 0x51_7c_c1_b7_27_22_0a_95u64; // FNV-ish offset basis
        let mut b = 0x9e_37_79_b9_7f_4a_7c_15u64;
        for &v in x.as_slice() {
            let bits = v.to_bits();
            a = splitmix64(a ^ bits);
            b = splitmix64(b.wrapping_add(bits).rotate_left(17));
        }
        Self {
            rows: x.nrows(),
            cols: x.ncols(),
            hash_a: a,
            hash_b: b,
        }
    }

    /// Number of rows of the fingerprinted matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends the fingerprint to a `suod-pool` snapshot body.
    pub fn snapshot_write(&self, w: &mut crate::SnapshotWriter) {
        w.write_usize(self.rows);
        w.write_usize(self.cols);
        w.write_u64(self.hash_a);
        w.write_u64(self.hash_b);
    }

    /// Reads a fingerprint written by [`DataFingerprint::snapshot_write`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`](crate::Error::InvalidParameter)
    /// on truncated input.
    pub fn snapshot_read(r: &mut crate::SnapshotReader<'_>) -> Result<Self> {
        Ok(Self {
            rows: r.read_usize()?,
            cols: r.read_usize()?,
            hash_a: r.read_u64()?,
            hash_b: r.read_u64()?,
        })
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One built cache entry: the index over a training matrix plus its
/// leave-one-out neighbour lists computed at `k_built`.
///
/// Lists are sorted ascending by `(distance, index)`;
/// [`prefix`](NeighborGraph::prefix) serves any `k <= k_built` as a slice
/// with zero re-sorting or copying.
#[derive(Debug)]
pub struct NeighborGraph {
    index: Arc<KnnIndex>,
    k_built: usize,
    /// `lists[i]` = leave-one-out neighbours of training row `i`, length
    /// `min(k_built, n - 1)`.
    lists: Vec<Vec<Neighbor>>,
}

impl NeighborGraph {
    /// Builds a graph: one index build under `config` plus one parallel
    /// leave-one-out sweep at `k`, reported to `observer` as separate
    /// spans: [`Stage::NeighborBuild`] wraps the index construction (where
    /// an approximate backend pays its graph build) and
    /// [`Stage::NeighborQuery`] wraps the leave-one-out sweep (where it
    /// earns the speedup) — so recall/speed tradeoffs are visible per
    /// phase in traces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`](crate::Error::Empty) when `x` has no rows.
    pub fn build_observed(
        x: &Matrix,
        metric: DistanceMetric,
        k: usize,
        n_threads: usize,
        config: KernelConfig,
        observer: &dyn Observer,
    ) -> Result<Self> {
        let span = observer.span_begin(Stage::NeighborBuild, SpanAttrs::none());
        let index = KnnIndex::build_with_threads(x, metric, config, n_threads.max(1));
        observer.span_end(span);
        let index = Arc::new(index?);
        let span = observer.span_begin(Stage::NeighborQuery, SpanAttrs::none());
        let lists = index.self_query_batch(k, n_threads.max(1));
        observer.span_end(span);
        Ok(Self {
            index,
            k_built: k,
            lists,
        })
    }

    /// The shared index over the training matrix.
    pub fn index(&self) -> &Arc<KnnIndex> {
        &self.index
    }

    /// The k this graph's lists were computed at.
    pub fn k_built(&self) -> usize {
        self.k_built
    }

    /// Number of training rows.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// `true` when the graph covers no rows (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The first `k` leave-one-out neighbours of row `i` — bit-identical
    /// to `self_query_batch(k, t)[i]` for every `k <= k_built`.
    pub fn prefix(&self, i: usize, k: usize) -> &[Neighbor] {
        let l = &self.lists[i];
        &l[..k.min(l.len())]
    }
}

/// Leave-one-out neighbour lists handed to a detector: a prefix view at
/// `k` into a [`NeighborGraph`] built at `k_max >= k`, slice for slice
/// what a direct `self_query_batch(k, t)` returns.
#[derive(Debug, Clone)]
pub struct SelfNeighbors {
    /// The graph the lists are prefixes of.
    pub graph: Arc<NeighborGraph>,
    /// The prefix length the detector asked for.
    pub k: usize,
}

impl SelfNeighbors {
    /// Number of training rows covered.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` when no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbour slice of training row `i`.
    pub fn get(&self, i: usize) -> &[Neighbor] {
        self.graph.prefix(i, self.k)
    }

    /// Iterates the per-row neighbour slices in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[Neighbor]> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Counters describing one cache's lifetime (see [`NeighborCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborCacheStats {
    /// Requests served from an already-built graph (prefix slices).
    pub hits: u64,
    /// Requests that found no usable graph and had to build one.
    pub misses: u64,
    /// Graphs built (`misses` counts rebuilds at a larger k too, so
    /// `builds == misses`; kept separate for forward compatibility).
    pub builds: u64,
    /// Total wall time spent building indexes and neighbour lists.
    pub build_time: Duration,
    /// Builds that requested the approximate neighbor backend but routed
    /// to the exact path instead (small n or non-Euclidean metric) — the
    /// exactness-fallback counter, summed over this cache's builds.
    pub ann_fallbacks: u64,
}

/// Per-key cache slot. The inner mutex serializes builders of the same
/// entry (the second requester blocks until the first finishes, then hits)
/// while leaving distinct keys free to build in parallel.
#[derive(Debug, Default)]
struct Slot {
    /// Largest k any pool member pre-registered for this key; builds are
    /// widened to it so one sweep serves the whole group.
    registered_k: usize,
    graph: Option<Arc<NeighborGraph>>,
}

/// One mutex-guarded slot per `(data, metric)` identity.
type SlotMap = HashMap<(DataFingerprint, MetricKey), Arc<Mutex<Slot>>>;

/// A concurrent, fingerprint-keyed store of [`NeighborGraph`]s.
///
/// Keys are `(DataFingerprint, DistanceMetric)`; see the
/// [module docs](self) for the sharing model. All methods take `&self`
/// and are safe to call from many executor workers at once.
pub struct NeighborCache {
    slots: Mutex<SlotMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    build_nanos: AtomicU64,
    ann_fallbacks: AtomicU64,
    /// Instrumentation sink: hits/misses emit [`Counter`] events and each
    /// graph build is wrapped in a [`Stage::NeighborBuild`] span. The
    /// internal atomic counters always run regardless, so
    /// [`stats`](Self::stats) stays authoritative with the no-op observer.
    observer: Arc<dyn Observer>,
    /// Kernel tuning applied to every graph this cache builds.
    kernel: KernelConfig,
}

impl std::fmt::Debug for NeighborCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborCache")
            .field("entries", &self.n_entries())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// `DistanceMetric` is not `Eq`/`Hash` (it carries an `f64` exponent);
/// keying by the bit pattern keeps distinct Minkowski exponents distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MetricKey {
    Euclidean,
    Manhattan,
    Minkowski(u64),
}

impl From<DistanceMetric> for MetricKey {
    fn from(m: DistanceMetric) -> Self {
        match m {
            DistanceMetric::Euclidean => MetricKey::Euclidean,
            DistanceMetric::Manhattan => MetricKey::Manhattan,
            DistanceMetric::Minkowski(p) => MetricKey::Minkowski(p.to_bits()),
        }
    }
}

impl NeighborCache {
    /// Creates an empty cache: every graph it builds uses `config`'s
    /// distance backend, neighbour backend and KD-tree crossover. Every
    /// hit/miss emits [`Counter::CacheHit`]/[`Counter::CacheMiss`] to
    /// `observer`, every build its [`Stage::NeighborBuild`] and
    /// [`Stage::NeighborQuery`] spans, and the kernel work of each build
    /// [`Counter::PackedPanel`]/[`Counter::GemmTile`]/
    /// [`Counter::KernelFallback`] events.
    pub fn with_config(config: KernelConfig, observer: Arc<dyn Observer>) -> Self {
        Self {
            slots: Mutex::new(SlotMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
            ann_fallbacks: AtomicU64::new(0),
            observer,
            kernel: config,
        }
    }

    fn slot(&self, fp: DataFingerprint, metric: DistanceMetric) -> Arc<Mutex<Slot>> {
        Arc::clone(
            self.slots
                .lock()
                .expect("cache map lock poisoned")
                .entry((fp, metric.into()))
                .or_default(),
        )
    }

    /// Pre-registers a pool member's neighbourhood request so the first
    /// build for this `(data, metric)` key is widened to the maximum k
    /// across all registrations (one sweep serves the whole group).
    ///
    /// `k` is clamped to `rows - 1` (leave-one-out lists can never be
    /// longer). Call once per pool member during planning (pass 1);
    /// [`get_or_build_keyed`](Self::get_or_build_keyed) calls during
    /// fitting (pass 2) then share one build.
    pub fn register(&self, fp: DataFingerprint, metric: DistanceMetric, k: usize) {
        let k = k.min(fp.rows().saturating_sub(1));
        let slot = self.slot(fp, metric);
        let mut slot = slot.lock().expect("cache slot lock poisoned");
        slot.registered_k = slot.registered_k.max(k);
    }

    /// The graph for `(x, metric)`, built on first use at
    /// `max(k, registered k_max)` and served as-is (a hit) whenever the
    /// existing graph already covers `k`. A request for a larger `k` than
    /// built rebuilds the lists (a miss) at the new maximum. The matrix
    /// contents are trusted to match `fp` (a caller without a precomputed
    /// key passes [`DataFingerprint::of`]`(x)`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`](crate::Error::Empty) when `x` has no rows.
    pub fn get_or_build_keyed(
        &self,
        fp: DataFingerprint,
        x: &Matrix,
        metric: DistanceMetric,
        k: usize,
        n_threads: usize,
    ) -> Result<Arc<NeighborGraph>> {
        let k = k.min(x.nrows().saturating_sub(1));
        let slot = self.slot(fp, metric);
        let mut slot = slot.lock().expect("cache slot lock poisoned");
        if let Some(graph) = &slot.graph {
            if graph.k_built() >= k {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.observer.counter(Counter::CacheHit, 1);
                return Ok(Arc::clone(graph));
            }
        }
        // Miss: build (or widen) at the largest k anyone asked for. The
        // slot lock is held during the build on purpose — concurrent
        // requesters of the same key must wait for this graph rather than
        // duplicate the dominant O(n^2 d) sweep.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.observer.counter(Counter::CacheMiss, 1);
        let k_build = k
            .max(slot.registered_k)
            .max(slot.graph.as_ref().map_or(0, |g| g.k_built()));
        let start = Instant::now();
        let built = NeighborGraph::build_observed(
            x,
            metric,
            k_build,
            n_threads,
            self.kernel,
            self.observer.as_ref(),
        );
        self.build_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let graph = Arc::new(built?);
        // The index is fresh, so its counter snapshot is exactly this
        // build's kernel work (shape-derived, thread-count-independent).
        let counters = graph.index().kernel_counters();
        self.ann_fallbacks
            .fetch_add(counters.ann_fallback_hits, Ordering::Relaxed);
        emit_kernel_counters(self.observer.as_ref(), counters);
        slot.graph = Some(Arc::clone(&graph));
        Ok(graph)
    }

    /// Number of distinct `(data, metric)` keys seen so far.
    pub fn n_entries(&self) -> usize {
        self.slots.lock().expect("cache map lock poisoned").len()
    }

    /// Lifetime counters: hits, misses, builds, and total build time.
    pub fn stats(&self) -> NeighborCacheStats {
        let misses = self.misses.load(Ordering::Relaxed);
        NeighborCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses,
            builds: misses,
            build_time: Duration::from_nanos(self.build_nanos.load(Ordering::Relaxed)),
            ann_fallbacks: self.ann_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// Reports a [`KernelCounters`] snapshot to an observer as
/// [`Counter::PackedPanel`]/[`Counter::GemmTile`]/[`Counter::KernelFallback`]
/// events, plus the lane tags
/// ([`Counter::SimdKernel`]/[`Counter::ScalarKernel`]); zero counts are
/// skipped.
fn emit_kernel_counters(observer: &dyn Observer, counters: KernelCounters) {
    if counters.packed_panels > 0 {
        observer.counter(Counter::PackedPanel, counters.packed_panels);
    }
    if counters.gemm_tiles > 0 {
        observer.counter(Counter::GemmTile, counters.gemm_tiles);
    }
    if counters.fallback_hits > 0 {
        observer.counter(Counter::KernelFallback, counters.fallback_hits);
    }
    if counters.simd_invocations > 0 {
        observer.counter(Counter::SimdKernel, counters.simd_invocations);
    }
    if counters.scalar_invocations > 0 {
        observer.counter(Counter::ScalarKernel, counters.scalar_invocations);
    }
    if counters.ann_queries > 0 {
        observer.counter(Counter::AnnQuery, counters.ann_queries);
    }
    if counters.ann_fallback_hits > 0 {
        observer.counter(Counter::AnnFallback, counters.ann_fallback_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_cache() -> NeighborCache {
        NeighborCache::with_config(KernelConfig::default(), suod_observe::noop())
    }

    /// A lookup keyed by `x`'s own fingerprint.
    fn get_or_build(
        cache: &NeighborCache,
        x: &Matrix,
        metric: DistanceMetric,
        k: usize,
    ) -> Result<Arc<NeighborGraph>> {
        cache.get_or_build_keyed(DataFingerprint::of(x), x, metric, k, 1)
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = splitmix64(s);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    #[test]
    fn fingerprint_distinguishes_contents_and_shape() {
        let a = random_matrix(20, 4, 1);
        let b = random_matrix(20, 4, 2);
        assert_eq!(DataFingerprint::of(&a), DataFingerprint::of(&a.clone()));
        assert_ne!(DataFingerprint::of(&a), DataFingerprint::of(&b));
        // Same data, different shape.
        let flat = Matrix::from_vec(4, 20, a.as_slice().to_vec()).unwrap();
        assert_ne!(DataFingerprint::of(&a), DataFingerprint::of(&flat));
        // One-ULP change flips the fingerprint.
        let mut c = a.clone();
        c.set(3, 1, c.get(3, 1) + 1e-13);
        assert_ne!(DataFingerprint::of(&a), DataFingerprint::of(&c));
    }

    #[test]
    fn build_once_serve_prefixes() {
        let x = random_matrix(60, 5, 3);
        let cache = new_cache();
        let g8 = get_or_build(&cache, &x, DistanceMetric::Euclidean, 8).unwrap();
        for k in 1..=8usize {
            let g = get_or_build(&cache, &x, DistanceMetric::Euclidean, k).unwrap();
            assert!(
                Arc::ptr_eq(&g, &g8),
                "k={k} should be served by the k=8 graph"
            );
            let direct = g.index().self_query_batch(k, 1);
            for (i, row) in direct.iter().enumerate() {
                assert_eq!(g.prefix(i, k), &row[..], "k={k} row={i}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.hits, 8);
        assert!(stats.build_time > Duration::ZERO);
    }

    #[test]
    fn registration_widens_first_build() {
        let x = random_matrix(40, 3, 5);
        let fp = DataFingerprint::of(&x);
        let cache = new_cache();
        cache.register(fp, DistanceMetric::Euclidean, 3);
        cache.register(fp, DistanceMetric::Euclidean, 9);
        cache.register(fp, DistanceMetric::Euclidean, 5);
        // The k=3 request triggers the build, widened to the pooled max 9.
        let g = cache
            .get_or_build_keyed(fp, &x, DistanceMetric::Euclidean, 3, 1)
            .unwrap();
        assert_eq!(g.k_built(), 9);
        let g9 = cache
            .get_or_build_keyed(fp, &x, DistanceMetric::Euclidean, 9, 1)
            .unwrap();
        assert!(Arc::ptr_eq(&g, &g9));
        assert_eq!(cache.stats().builds, 1);
    }

    #[test]
    fn larger_k_than_built_rebuilds() {
        let x = random_matrix(30, 4, 7);
        let cache = new_cache();
        let g3 = get_or_build(&cache, &x, DistanceMetric::Euclidean, 3).unwrap();
        let g6 = get_or_build(&cache, &x, DistanceMetric::Euclidean, 6).unwrap();
        assert!(!Arc::ptr_eq(&g3, &g6));
        assert_eq!(g6.k_built(), 6);
        assert_eq!(cache.stats().misses, 2);
        // The old graph's prefixes still agree with the new one's.
        for i in 0..x.nrows() {
            assert_eq!(g3.prefix(i, 3), g6.prefix(i, 3));
        }
    }

    #[test]
    fn metric_keys_are_distinct() {
        let x = random_matrix(25, 4, 11);
        let cache = new_cache();
        get_or_build(&cache, &x, DistanceMetric::Euclidean, 4).unwrap();
        get_or_build(&cache, &x, DistanceMetric::Manhattan, 4).unwrap();
        get_or_build(&cache, &x, DistanceMetric::Minkowski(3.0), 4).unwrap();
        get_or_build(&cache, &x, DistanceMetric::Minkowski(4.0), 4).unwrap();
        assert_eq!(cache.n_entries(), 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn k_clamped_to_leave_one_out_size() {
        let x = random_matrix(6, 2, 13);
        let cache = new_cache();
        let g = get_or_build(&cache, &x, DistanceMetric::Euclidean, 50).unwrap();
        assert_eq!(g.k_built(), 5);
        assert!(g.prefix(0, 50).len() == 5);
        // A second oversized request is a hit, not a rebuild.
        get_or_build(&cache, &x, DistanceMetric::Euclidean, 20).unwrap();
        assert_eq!(cache.stats().builds, 1);
    }

    #[test]
    fn self_neighbors_view_equals_a_direct_sweep() {
        let x = random_matrix(40, 4, 17);
        let graph = NeighborGraph::build_observed(
            &x,
            DistanceMetric::Euclidean,
            9,
            2,
            KernelConfig::default(),
            suod_observe::noop().as_ref(),
        )
        .unwrap();
        let direct = graph.index().self_query_batch(4, 1);
        let view = SelfNeighbors {
            graph: Arc::new(graph),
            k: 4,
        };
        assert_eq!(view.len(), direct.len());
        for (a, b) in view.iter().zip(&direct) {
            assert_eq!(a, &b[..]);
        }
    }

    #[test]
    fn concurrent_requesters_share_one_build() {
        let x = Arc::new(random_matrix(200, 4, 19));
        let cache = Arc::new(new_cache());
        let graphs: Vec<Arc<NeighborGraph>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    let x = Arc::clone(&x);
                    scope.spawn(move || {
                        get_or_build(&cache, &x, DistanceMetric::Euclidean, 2 + (t % 3)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // k requests were 2..=4; without pre-registration each strictly
        // larger k can force one widening rebuild (2 -> 3 -> 4), so at
        // most 3 builds ever happen — never 8.
        assert!(cache.stats().builds <= 3, "{:?}", cache.stats());
        for g in &graphs {
            assert!(g.k_built() >= 2);
        }
    }

    #[test]
    fn observer_counters_match_stats() {
        use suod_observe::RecordingObserver;
        let rec = Arc::new(RecordingObserver::new());
        let cache = NeighborCache::with_config(KernelConfig::default(), rec.clone());
        let x = random_matrix(30, 3, 23);
        get_or_build(&cache, &x, DistanceMetric::Euclidean, 5).unwrap();
        get_or_build(&cache, &x, DistanceMetric::Euclidean, 3).unwrap();
        get_or_build(&cache, &x, DistanceMetric::Manhattan, 4).unwrap();
        let stats = cache.stats();
        let trace = rec.trace();
        assert_eq!(trace.counter(Counter::CacheHit), stats.hits);
        assert_eq!(trace.counter(Counter::CacheMiss), stats.misses);
        assert_eq!(
            trace.spans_of(Stage::NeighborBuild).count() as u64,
            stats.builds
        );
        // Build spans carry real durations.
        assert!(trace
            .spans_of(Stage::NeighborBuild)
            .all(|s| s.dur_us <= stats.build_time.as_micros() as u64 + 1000));
    }

    #[test]
    fn gemm_cache_emits_kernel_counters() {
        use crate::gemm::DistanceBackend;
        use suod_observe::RecordingObserver;
        let rec = Arc::new(RecordingObserver::new());
        let cfg = KernelConfig {
            kdtree_crossover_dim: 0, // force the brute-force gemm sweep
            ..KernelConfig::default().with_backend(DistanceBackend::Gemm)
        };
        let cache = NeighborCache::with_config(cfg, rec.clone());
        let x = random_matrix(50, 6, 29);
        get_or_build(&cache, &x, DistanceMetric::Euclidean, 5).unwrap();
        let trace = rec.trace();
        assert!(trace.counter(Counter::GemmTile) > 0);
        assert!(trace.counter(Counter::PackedPanel) > 0);
        assert_eq!(trace.counter(Counter::KernelFallback), 0);
    }

    #[test]
    fn empty_matrix_rejected() {
        let cache = new_cache();
        assert!(get_or_build(&cache, &Matrix::zeros(0, 3), DistanceMetric::Euclidean, 3).is_err());
    }
}

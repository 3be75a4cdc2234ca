//! Seeded, deterministic HNSW approximate-neighbour graph.
//!
//! The exact neighbour sweep behind every proximity detector costs
//! `O(n^2 d)` — GEMM tiles and KD-trees lower the constant, but the
//! quadratic term is the last structural cliff between this codebase and
//! the million-row pools the SUOD paper targets. This module adds the
//! standard alternative: a Hierarchical Navigable Small World graph
//! (Malkov & Yashunin, 2018) built in `O(n log n)` distance evaluations
//! and queried in `O(log n)`, selected per index via
//! [`NeighborBackend::Hnsw`] in the
//! [`KernelConfig`](crate::gemm::KernelConfig) and served through the
//! same [`KnnIndex`](crate::distance::KnnIndex) /
//! [`NeighborCache`](crate::neighbor_cache::NeighborCache) seam as the
//! exact backends — detectors never see the difference.
//!
//! # Determinism contract
//!
//! Unlike typical HNSW implementations (lock-based concurrent inserts,
//! arrival-order-dependent graphs), this one produces a **bit-identical
//! graph and bit-identical query results at every thread count** for a
//! fixed [`HnswParams::seed`]:
//!
//! * **Seeded level assignment.** Node `i`'s level is
//!   `floor(-ln(u_i) / ln(M))` with `u_i` drawn from
//!   `splitmix64(seed, i)` — a pure function of `(seed, i)`, independent
//!   of insertion timing.
//! * **Batched frozen-graph construction.** Insertion proceeds in
//!   batches; each batch's candidate searches read only the graph as it
//!   stood *before* the batch, so they are pure functions that can run
//!   on any number of threads, and edges are then applied sequentially
//!   in ascending node order.
//! * **Total-order tie-breaking.** Every candidate ordering (search
//!   heaps, selection heuristic, pruning) uses the total order
//!   `(distance, index)` — the same order the exact backends use — so
//!   equal distances never leave room for nondeterminism.
//!
//! # Kernel reuse
//!
//! Distance evaluations go through the norm trick
//! (`d^2 = ‖x‖^2 + ‖y‖^2 - 2x·y`) over cached row norms with the same
//! `dot` kernel as the single-query GEMM path in
//! [`KnnIndex::query`](crate::distance::KnnIndex::query).
//!
//! # Exactness fallback
//!
//! HNSW only answers Euclidean queries and only pays off past a few
//! thousand rows. An index configured with [`NeighborBackend::Hnsw`]
//! whose data is non-Euclidean or smaller than [`HnswParams::min_rows`]
//! routes to the exact path and records one
//! [`ann_fallback_hits`](crate::gemm::KernelCounters::ann_fallback_hits)
//! — mirroring how the gemm backend falls back on non-Euclidean metrics.

use crate::distance::Neighbor;
use crate::matrix::Matrix;
use crate::snapshot::{corrupt, SnapshotReader, SnapshotWriter};
use crate::{Error, Result};
use std::collections::BinaryHeap;

/// Default max degree `M` (level > 0; level 0 allows `2M`).
pub const DEFAULT_HNSW_M: usize = 12;
/// Default construction beam width (`efConstruction`).
pub const DEFAULT_EF_CONSTRUCTION: usize = 48;
/// Default query beam width (`efSearch`) — the recall knob. Sized so
/// recall@10 stays ≥ 0.95 on the clustered/uniform/duplicate-heavy
/// distributions the property suite sweeps (see DESIGN.md §2.9 for the
/// measured recall/speed curve).
pub const DEFAULT_EF_SEARCH: usize = 48;
/// Default minimum row count for HNSW to engage; below this the exact
/// sweep is already fast and the graph overhead is pure loss.
pub const DEFAULT_HNSW_MIN_ROWS: usize = 2048;
/// Hard cap on assigned levels (hit with probability ~`M^-24` ≈ never;
/// bounds the greedy descent).
const MAX_LEVEL: usize = 24;

/// Tuning for the [`NeighborBackend::Hnsw`] graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HnswParams {
    /// Max links per node on levels > 0 (level 0 allows `2m`).
    pub m: usize,
    /// Beam width while inserting (`efConstruction`).
    pub ef_construction: usize,
    /// Beam width while querying (`efSearch`) — the recall knob.
    /// Queries use `max(ef_search, k)`.
    pub ef_search: usize,
    /// Seed for the level assignment (the only randomness in the graph).
    pub seed: u64,
    /// Minimum row count for HNSW to engage; smaller indexes route to
    /// the exact path with an `ann_fallback_hits` count.
    pub min_rows: usize,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: DEFAULT_HNSW_M,
            ef_construction: DEFAULT_EF_CONSTRUCTION,
            ef_search: DEFAULT_EF_SEARCH,
            seed: 0x500D_BEE5,
            min_rows: DEFAULT_HNSW_MIN_ROWS,
        }
    }
}

impl HnswParams {
    /// Params with a non-default query beam width.
    pub fn with_ef_search(mut self, ef: usize) -> Self {
        self.ef_search = ef.max(1);
        self
    }
}

/// Which neighbour index answers kNN queries: the exact backends
/// (brute-force sweeps through the configured
/// [`DistanceBackend`](crate::gemm::DistanceBackend), or the KD-tree on
/// low-dimensional data) or the approximate [`HnswGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NeighborBackend {
    /// Exact k-nearest neighbours (the default; bit-identical to naive).
    #[default]
    Exact,
    /// Approximate neighbours from a seeded deterministic HNSW graph.
    /// Euclidean only; small or non-Euclidean indexes fall back to
    /// [`Exact`](Self::Exact) with a counter.
    Hnsw(HnswParams),
}

impl NeighborBackend {
    /// Stable name (`exact` | `hnsw`) for CLI flags and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            NeighborBackend::Exact => "exact",
            NeighborBackend::Hnsw(_) => "hnsw",
        }
    }

    /// Parses [`name`](Self::name) output; `hnsw` selects default
    /// [`HnswParams`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "exact" => Ok(NeighborBackend::Exact),
            "hnsw" => Ok(NeighborBackend::Hnsw(HnswParams::default())),
            other => Err(Error::InvalidParameter(format!(
                "unknown neighbor backend `{other}` (expected exact|hnsw)"
            ))),
        }
    }

    /// `true` when queries may return approximate neighbours.
    pub fn is_approximate(self) -> bool {
        matches!(self, NeighborBackend::Hnsw(_))
    }
}

impl std::fmt::Display for NeighborBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NeighborBackend::Exact => f.write_str("exact"),
            NeighborBackend::Hnsw(p) => write!(f, "hnsw(ef_search={})", p.ef_search),
        }
    }
}

/// splitmix64 step — the same generator the workspace uses for
/// fingerprints and model seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `(0, 1]` from `(seed, i)` — pure, so node `i`'s level
/// never depends on insertion timing.
fn unit_open(seed: u64, i: u64) -> f64 {
    let bits = splitmix64(seed ^ splitmix64(i));
    1.0 - (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A candidate in the search/selection heaps, ordered by the total order
/// `(distance, index)` — the same order [`Neighbor`] lists use.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f64,
    idx: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .expect("distances are finite")
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Borrowed distance context: the training matrix plus its cached row
/// norms, evaluated through the norm trick with the scalar dot kernel
/// (the exact same code path as single-query GEMM lookups).
pub(crate) struct DistCtx<'a> {
    train: &'a Matrix,
    norms: &'a [f64],
}

impl<'a> DistCtx<'a> {
    pub(crate) fn new(train: &'a Matrix, norms: &'a [f64]) -> Self {
        Self { train, norms }
    }

    /// Distance between training rows `i` and `j`.
    #[inline]
    fn dist(&self, i: u32, j: u32) -> f64 {
        let g = crate::matrix::dot(self.train.row(i as usize), self.train.row(j as usize));
        crate::gemm::dist_from_gram(self.norms[i as usize], self.norms[j as usize], g)
    }

    /// Distance from an external query (with precomputed squared norm
    /// `nq`) to training row `j`.
    #[inline]
    fn dist_q(&self, q: &[f64], nq: f64, j: u32) -> f64 {
        let g = crate::matrix::dot(q, self.train.row(j as usize));
        crate::gemm::dist_from_gram(nq, self.norms[j as usize], g)
    }
}

thread_local! {
    /// Per-thread query scratch shared across graphs (see
    /// [`Scratch::ensure`]).
    static SEARCH_SCRATCH: std::cell::RefCell<Scratch> =
        std::cell::RefCell::new(Scratch::new(0));
}

/// Reusable per-thread search scratch: a visited epoch-array (no
/// clearing between searches) and the two beam heaps.
struct Scratch {
    visited: Vec<u32>,
    epoch: u32,
    cand: BinaryHeap<std::cmp::Reverse<Cand>>,
    found: BinaryHeap<Cand>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            visited: vec![0; n],
            epoch: 0,
            cand: BinaryHeap::new(),
            found: BinaryHeap::new(),
        }
    }

    /// Grows the visited array to cover `n` nodes. Stale entries from
    /// other graphs are harmless: they belong to past epochs.
    fn ensure(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
    }

    fn begin(&mut self) {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.cand.clear();
        self.found.clear();
    }

    #[inline]
    fn visit(&mut self, i: u32) -> bool {
        let seen = self.visited[i as usize] == self.epoch;
        self.visited[i as usize] = self.epoch;
        !seen
    }
}

/// The params a graph over `n` nodes is built and loaded under (`m`
/// floors at 2), and every node's seeded level: node `i` sits at
/// `floor(-ln(u_i) / ln(m))`, capped at `MAX_LEVEL`.
fn seeded(params: HnswParams, n: usize) -> (HnswParams, Vec<usize>) {
    let m = params.m.max(2);
    let ml = 1.0 / (m as f64).ln();
    let levels = (0..n)
        .map(|i| ((-unit_open(params.seed, i as u64).ln() * ml) as usize).min(MAX_LEVEL))
        .collect();
    (HnswParams { m, ..params }, levels)
}

/// Read access to adjacency lists, shared by construction (nested,
/// growable lists) and queries (the finished graph's CSR levels), so
/// both walk the graph through the same greedy descent and beam search.
trait Adjacency {
    /// Level-`level` neighbour list of `node`.
    fn neighbors(&self, node: u32, level: usize) -> &[u32];

    /// Greedy closest-neighbour descent at one level (ef = 1).
    fn greedy_step(
        &self,
        ctx: &DistCtx<'_>,
        q: &[f64],
        nq: f64,
        mut ep: Cand,
        level: usize,
    ) -> Cand {
        loop {
            let mut improved = false;
            for &nb in self.neighbors(ep.idx, level) {
                let c = Cand {
                    dist: ctx.dist_q(q, nq, nb),
                    idx: nb,
                };
                if c < ep {
                    ep = c;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search at one level: returns the `ef` best candidates found,
    /// sorted ascending under `(distance, index)`.
    #[allow(clippy::too_many_arguments)] // hot path: kept flat, no query struct
    fn search_layer(
        &self,
        ctx: &DistCtx<'_>,
        q: &[f64],
        nq: f64,
        ep: Cand,
        level: usize,
        ef: usize,
        scratch: &mut Scratch,
    ) -> Vec<Cand> {
        scratch.begin();
        scratch.visit(ep.idx);
        scratch.cand.push(std::cmp::Reverse(ep));
        scratch.found.push(ep);
        while let Some(std::cmp::Reverse(c)) = scratch.cand.pop() {
            let worst = *scratch.found.peek().expect("found is non-empty");
            if scratch.found.len() >= ef && worst < c {
                break;
            }
            for &nb in self.neighbors(c.idx, level) {
                if !scratch.visit(nb) {
                    continue;
                }
                let cn = Cand {
                    dist: ctx.dist_q(q, nq, nb),
                    idx: nb,
                };
                let worst = *scratch.found.peek().expect("found is non-empty");
                if scratch.found.len() < ef || cn < worst {
                    scratch.cand.push(std::cmp::Reverse(cn));
                    scratch.found.push(cn);
                    if scratch.found.len() > ef {
                        scratch.found.pop();
                    }
                }
            }
        }
        let mut out: Vec<Cand> = scratch.found.iter().copied().collect();
        out.sort_unstable();
        out
    }
}

/// One level of the graph in CSR form: node `i`'s neighbours are
/// `ids[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CsrLevel {
    /// `n + 1` offsets into [`ids`](Self::ids), starting at 0.
    start: Vec<u32>,
    ids: Vec<u32>,
}

/// The seeded deterministic HNSW graph over a training matrix.
///
/// Holds adjacency only — the matrix and its norms stay in the owning
/// [`KnnIndex`](crate::distance::KnnIndex) and are borrowed per call via
/// the internal `DistCtx`. Every level is stored as CSR (offsets plus
/// neighbour ids), the form queries read and snapshots persist. See the
/// [module docs](self) for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct HnswGraph {
    params: HnswParams,
    /// `levels[l]` is the adjacency at level `l`, for `l` in
    /// `0..=max_level`. A node whose seeded level is below `l` has an
    /// empty range there.
    levels: Vec<CsrLevel>,
    /// Entry node: highest level, ties to the lowest index.
    entry: u32,
}

impl Adjacency for HnswGraph {
    #[inline]
    fn neighbors(&self, node: u32, level: usize) -> &[u32] {
        let csr = &self.levels[level];
        let start = csr.start[node as usize] as usize;
        let end = csr.start[node as usize + 1] as usize;
        &csr.ids[start..end]
    }
}

/// Build-time graph: per-node, per-level neighbour lists that grow and
/// get pruned while nodes are inserted, flattened into an [`HnswGraph`]
/// once construction ends.
struct GraphBuilder {
    params: HnswParams,
    /// `links[node][level]` = neighbour indices at that level; a node
    /// participates in levels `0..links[node].len()`.
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
}

impl Adjacency for GraphBuilder {
    #[inline]
    fn neighbors(&self, node: u32, level: usize) -> &[u32] {
        &self.links[node as usize][level]
    }
}

impl GraphBuilder {
    /// Frozen-graph candidate search for inserting node `p` at level
    /// `lp`: greedy descent from the entry to `lp + 1`, then an
    /// `ef_construction` beam per level `min(lp, max_level)..=0`.
    /// Returns candidates per level, index 0 = level 0.
    fn insert_candidates(
        &self,
        ctx: &DistCtx<'_>,
        p: u32,
        lp: usize,
        scratch: &mut Scratch,
    ) -> Vec<Vec<Cand>> {
        let q = ctx.train.row(p as usize);
        let nq = ctx.norms[p as usize];
        let mut ep = Cand {
            dist: ctx.dist_q(q, nq, self.entry),
            idx: self.entry,
        };
        for l in ((lp + 1)..=self.max_level).rev() {
            ep = self.greedy_step(ctx, q, nq, ep, l);
        }
        let top = lp.min(self.max_level);
        let mut per_level = vec![Vec::new(); top + 1];
        for l in (0..=top).rev() {
            let found = self.search_layer(ctx, q, nq, ep, l, self.params.ef_construction, scratch);
            ep = found[0];
            per_level[l] = found;
        }
        per_level
    }

    /// Sequentially applies node `p`'s edges from its frozen-search
    /// candidates: heuristic neighbour selection, bidirectional links,
    /// degree-capped pruning, entry-point maintenance.
    fn apply(&mut self, ctx: &DistCtx<'_>, p: u32, lp: usize, cands: Vec<Vec<Cand>>) {
        let m = self.params.m;
        for (l, level_cands) in cands.into_iter().enumerate() {
            if level_cands.is_empty() {
                continue;
            }
            let m_max = if l == 0 { 2 * m } else { m };
            let sel = select_heuristic(ctx, level_cands, m);
            for s in &sel {
                let back = &mut self.links[s.idx as usize][l];
                back.push(p);
                // Re-selecting on every overflow costs O(m_max^2)
                // distance evaluations per back-link — the dominant
                // build cost. Let the list run to 2x its cap and prune
                // back down to the cap, amortizing the heuristic over
                // m_max insertions (the final consolidation pass in
                // `build` restores the cap everywhere).
                if back.len() > 2 * m_max {
                    self.reselect(ctx, s.idx, l, m_max);
                }
            }
            self.links[p as usize][l] = sel.into_iter().map(|c| c.idx).collect();
        }
        if lp > self.max_level {
            // Strictly-greater keeps the lowest index on level ties.
            self.max_level = lp;
            self.entry = p;
        }
    }

    /// Re-selects `holder`'s links at `level` down to `cap` under the
    /// neighbour heuristic, seen from the holder.
    fn reselect(&mut self, ctx: &DistCtx<'_>, holder: u32, level: usize, cap: usize) {
        let mut own: Vec<Cand> = self.links[holder as usize][level]
            .iter()
            .map(|&t| Cand {
                dist: ctx.dist(holder, t),
                idx: t,
            })
            .collect();
        own.sort_unstable();
        self.links[holder as usize][level] = select_heuristic(ctx, own, cap)
            .iter()
            .map(|c| c.idx)
            .collect();
    }

    /// Flattens the nested lists into per-level CSR, releasing each list
    /// as it is copied.
    fn finish(mut self) -> HnswGraph {
        let n = self.links.len();
        let levels = (0..=self.max_level)
            .map(|l| {
                let mut start = Vec::with_capacity(n + 1);
                start.push(0u32);
                let mut ids = Vec::new();
                for node in &mut self.links {
                    if let Some(list) = node.get_mut(l) {
                        ids.extend_from_slice(&std::mem::take(list));
                    }
                    start.push(ids.len() as u32);
                }
                CsrLevel { start, ids }
            })
            .collect();
        HnswGraph {
            params: self.params,
            levels,
            entry: self.entry,
        }
    }
}

impl HnswGraph {
    /// Builds the graph over the rows of `train` (Euclidean metric,
    /// `norms[i] = ‖row_i‖²`).
    ///
    /// Batched frozen-graph construction: each batch's candidate
    /// searches run read-only against the pre-batch graph (chunked over
    /// `n_threads`, thread-count-invariant), then edges are applied
    /// sequentially in ascending node order. Batch sizes grow with the
    /// graph (half the inserted prefix, capped) so early batches see a
    /// dense enough graph to search.
    pub(crate) fn build(
        train: &Matrix,
        norms: &[f64],
        params: HnswParams,
        n_threads: usize,
    ) -> Self {
        let n = train.nrows();
        assert!(n > 0, "HnswGraph::build requires rows");
        let ctx = DistCtx::new(train, norms);
        let (params, levels) = seeded(params, n);
        let mut graph = GraphBuilder {
            params,
            links: levels.iter().map(|&l| vec![Vec::new(); l + 1]).collect(),
            entry: 0,
            max_level: levels[0],
        };

        const MAX_BATCH: usize = 4096;
        let mut cur = 1usize; // node 0 is the initial (edgeless) graph
        let mut scratch_pool: Vec<Scratch> = Vec::new();
        while cur < n {
            let batch = (cur / 2).clamp(1, MAX_BATCH).min(n - cur);
            let end = cur + batch;
            // Parallel phase: frozen-graph searches, pure per point.
            let threads = n_threads.max(1).min(batch);
            while scratch_pool.len() < threads {
                scratch_pool.push(Scratch::new(n));
            }
            let found: Vec<Vec<Vec<Cand>>> = if threads <= 1 {
                let scratch = &mut scratch_pool[0];
                (cur..end)
                    .map(|p| graph.insert_candidates(&ctx, p as u32, levels[p], scratch))
                    .collect()
            } else {
                let graph_ref = &graph;
                let ctx_ref = &ctx;
                let levels_ref = &levels;
                let ranges = crate::parallel::split_ranges(batch, threads);
                let mut out: Vec<Vec<Vec<Vec<Cand>>>> = Vec::with_capacity(threads);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = ranges
                        .into_iter()
                        .zip(scratch_pool.iter_mut())
                        .map(|(range, scratch)| {
                            scope.spawn(move || {
                                range
                                    .map(|off| {
                                        let p = cur + off;
                                        graph_ref.insert_candidates(
                                            ctx_ref,
                                            p as u32,
                                            levels_ref[p],
                                            scratch,
                                        )
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        out.push(h.join().expect("hnsw search worker panicked"));
                    }
                });
                out.into_iter().flatten().collect()
            };
            // Sequential phase: apply edges in ascending node order.
            for (off, cands) in found.into_iter().enumerate() {
                graph.apply(&ctx, (cur + off) as u32, levels[cur + off], cands);
            }
            cur = end;
        }
        // Consolidation: restore the degree caps that the amortized
        // prune slack let adjacency lists exceed, in ascending node
        // order (deterministic), then flatten every level to CSR.
        for node in 0..n as u32 {
            for l in 0..graph.links[node as usize].len() {
                let m_max = if l == 0 {
                    2 * graph.params.m
                } else {
                    graph.params.m
                };
                if graph.links[node as usize][l].len() > m_max {
                    graph.reselect(&ctx, node, l, m_max);
                }
            }
        }
        graph.finish()
    }

    /// Appends the CSR levels to a `suod-pool` index record: the level
    /// count, then each level's offsets and neighbour ids as
    /// length-prefixed `u32` arrays. Node levels and the entry point are
    /// not written: they are functions of `(params.seed, i)`.
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.levels.len());
        for level in &self.levels {
            w.write_u32s(&level.start);
            w.write_u32s(&level.ids);
        }
    }

    /// Reads levels written by [`snapshot_write`](Self::snapshot_write)
    /// for an index over `n` rows configured with `params`, and checks
    /// them before any search can walk them: the level count is the
    /// seeded one; every offsets array has `n + 1` entries, starts at 0,
    /// never decreases and ends at its ids length; every degree is within
    /// its cap (`2m` at level 0, `m` above); a node below level `l` has no
    /// links there; and every id names a node that exists at `l`.
    ///
    /// # Errors
    ///
    /// Returns a `snapshot:`-prefixed [`Error::InvalidParameter`] for a
    /// truncated section or any violated rule.
    pub(crate) fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        n: usize,
        params: HnswParams,
    ) -> Result<Self> {
        let (params, node_levels) = seeded(params, n);
        let max_level = node_levels.iter().copied().max().unwrap_or(0);
        let entry = node_levels
            .iter()
            .position(|&l| l == max_level)
            .unwrap_or(0);
        let n_levels = r.read_usize()?;
        if n_levels != max_level + 1 {
            return Err(corrupt(&format!(
                "hnsw graph has {n_levels} levels, the seeded graph has {}",
                max_level + 1
            )));
        }
        let mut levels = Vec::with_capacity(n_levels);
        for l in 0..n_levels {
            let start = r.read_u32s()?;
            let ids = r.read_u32s()?;
            let cap = if l == 0 { 2 * params.m } else { params.m };
            if start.len() != n + 1 || start[0] != 0 || start[n] as usize != ids.len() {
                return Err(corrupt(&format!(
                    "hnsw level {l}: offsets do not span its {} ids over {n} nodes",
                    ids.len()
                )));
            }
            for (node, w) in start.windows(2).enumerate() {
                let degree = w[1].checked_sub(w[0]).ok_or_else(|| {
                    corrupt(&format!("hnsw level {l}: offsets decrease at node {node}"))
                })? as usize;
                if degree > cap || (degree > 0 && node_levels[node] < l) {
                    return Err(corrupt(&format!(
                        "hnsw level {l}: node {node} has {degree} links (cap {cap}, node level {})",
                        node_levels[node]
                    )));
                }
            }
            if let Some(&bad) = ids
                .iter()
                .find(|&&id| node_levels.get(id as usize).is_none_or(|&nl| nl < l))
            {
                return Err(corrupt(&format!(
                    "hnsw level {l}: link to node {bad}, which is not on this level"
                )));
            }
            levels.push(CsrLevel { start, ids });
        }
        Ok(Self {
            params,
            levels,
            entry: entry as u32,
        })
    }

    /// The `k` approximate nearest training rows to `query`, searched
    /// with beam width `max(ef, k)`; ascending `(distance, index)`.
    pub(crate) fn search(
        &self,
        ctx: &DistCtx<'_>,
        query: &[f64],
        k: usize,
        ef: usize,
    ) -> Vec<Neighbor> {
        let nq = crate::matrix::norm_sq(query);
        let mut ep = Cand {
            dist: ctx.dist_q(query, nq, self.entry),
            idx: self.entry,
        };
        for l in (1..=self.max_level()).rev() {
            ep = self.greedy_step(ctx, query, nq, ep, l);
        }
        // Reuse one scratch per thread: a fresh visited array per query
        // would mean zeroing `n` words per row of a self-sweep.
        let mut found = SEARCH_SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            scratch.ensure(self.len());
            self.search_layer(ctx, query, nq, ep, 0, ef.max(k).max(1), &mut scratch)
        });
        found.truncate(k);
        found
            .into_iter()
            .map(|c| Neighbor {
                index: c.idx as usize,
                distance: c.dist,
            })
            .collect()
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.levels[0].start.len() - 1
    }

    /// `true` when no points are indexed (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The params the graph was built with.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// Highest level of the graph (the entry node's level).
    pub fn max_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Entry node of every search: the lowest index on the highest level.
    pub fn entry(&self) -> usize {
        self.entry as usize
    }

    /// Total directed edges at level 0 (diagnostics).
    pub fn base_degree_sum(&self) -> usize {
        self.levels[0].ids.len()
    }
}

/// The HNSW neighbour-selection heuristic (Malkov & Yashunin Alg. 4):
/// scan candidates ascending, keep one when it is closer to the query
/// than to every already-kept candidate (diversity), then fill any
/// remaining slots with the skipped candidates in order. Deterministic:
/// input is sorted under the total order and ties never reorder.
fn select_heuristic(ctx: &DistCtx<'_>, sorted: Vec<Cand>, m: usize) -> Vec<Cand> {
    if sorted.len() <= m {
        return sorted;
    }
    let mut kept: Vec<Cand> = Vec::with_capacity(m);
    let mut skipped: Vec<Cand> = Vec::new();
    for c in sorted {
        if kept.len() >= m {
            break;
        }
        let diverse = kept.iter().all(|s| ctx.dist(c.idx, s.idx) > c.dist);
        if diverse {
            kept.push(c);
        } else {
            skipped.push(c);
        }
    }
    for c in skipped {
        if kept.len() >= m {
            break;
        }
        kept.push(c);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::row_sq_norms;

    fn blobs(n: usize, d: usize, seed: u64) -> Matrix {
        // Three Gaussian-ish blobs from splitmix64 draws (Box–Muller-free:
        // sums of uniforms are plenty for graph tests).
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let center = (i % 3) as f64 * 8.0;
            for j in 0..d {
                let u: f64 = (0..4)
                    .map(|r| unit_open(seed, (i * d + j + r * n * d) as u64))
                    .sum::<f64>()
                    / 4.0;
                data.push(center + (u - 0.5) * 2.0);
            }
        }
        Matrix::from_vec(n, d, data).unwrap()
    }

    fn build(x: &Matrix, params: HnswParams, threads: usize) -> HnswGraph {
        let norms = row_sq_norms(x);
        HnswGraph::build(x, &norms, params, threads)
    }

    #[test]
    fn levels_are_seeded_and_pure() {
        let seed = 42;
        let a: Vec<usize> = (0..1000)
            .map(|i| ((-unit_open(seed, i as u64).ln() * (1.0 / 16f64.ln())) as usize).min(24))
            .collect();
        let b: Vec<usize> = (0..1000)
            .map(|i| ((-unit_open(seed, i as u64).ln() * (1.0 / 16f64.ln())) as usize).min(24))
            .collect();
        assert_eq!(a, b);
        // Geometric-ish: most nodes at level 0, some above.
        assert!(a.iter().filter(|&&l| l == 0).count() > 900);
        assert!(a.iter().any(|&l| l > 0));
    }

    #[test]
    fn graph_identical_across_build_thread_counts() {
        let x = blobs(600, 8, 7);
        let params = HnswParams {
            min_rows: 1,
            ..HnswParams::default()
        };
        let g1 = build(&x, params, 1);
        let g2 = build(&x, params, 2);
        let g8 = build(&x, params, 8);
        assert_eq!(g1, g2);
        assert_eq!(g1, g8);
        assert!(
            g1.max_level() > 0,
            "the test graph should have upper levels"
        );
    }

    #[test]
    fn search_finds_true_neighbors_on_blobs() {
        let x = blobs(800, 8, 3);
        let norms = row_sq_norms(&x);
        let params = HnswParams {
            min_rows: 1,
            ..HnswParams::default()
        };
        let g = build(&x, params, 1);
        let ctx = DistCtx::new(&x, &norms);
        let k = 10;
        let mut matched = 0usize;
        let mut total = 0usize;
        for i in (0..800).step_by(13) {
            let approx = g.search(&ctx, x.row(i), k, params.ef_search);
            // Exact reference by linear scan under the same total order.
            let mut all: Vec<Neighbor> = (0..x.nrows())
                .map(|j| Neighbor {
                    index: j,
                    distance: ctx.dist(i as u32, j as u32),
                })
                .collect();
            all.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .unwrap()
                    .then(a.index.cmp(&b.index))
            });
            let exact: std::collections::HashSet<usize> =
                all[..k].iter().map(|n| n.index).collect();
            matched += approx.iter().filter(|n| exact.contains(&n.index)).count();
            total += k;
        }
        let recall = matched as f64 / total as f64;
        assert!(recall >= 0.95, "recall {recall}");
    }

    #[test]
    fn degrees_respect_caps() {
        let x = blobs(500, 4, 11);
        let params = HnswParams {
            m: 8,
            min_rows: 1,
            ..HnswParams::default()
        };
        let g = build(&x, params, 1);
        for l in 0..=g.max_level() {
            let cap = if l == 0 { 16 } else { 8 };
            for node in 0..g.len() as u32 {
                let degree = g.neighbors(node, l).len();
                assert!(degree <= cap, "level {l} degree {degree}");
            }
        }
    }

    #[test]
    fn snapshot_round_trip_recomputes_levels_and_entry() {
        let x = blobs(700, 5, 13);
        let params = HnswParams {
            m: 6,
            min_rows: 1,
            ..HnswParams::default()
        };
        let g = build(&x, params, 2);
        let mut w = SnapshotWriter::new();
        g.snapshot_write(&mut w);
        let mut r = SnapshotReader::new(w.as_bytes());
        let loaded = HnswGraph::snapshot_read(&mut r, x.nrows(), params).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(loaded, g);
        assert_eq!(loaded.entry(), g.entry());
        // The same bytes under another seed name other node levels.
        let reseeded = HnswParams { seed: 1, ..params };
        let mut r = SnapshotReader::new(w.as_bytes());
        assert!(HnswGraph::snapshot_read(&mut r, x.nrows(), reseeded).is_err());
    }

    #[test]
    fn backend_parse_round_trips() {
        assert_eq!(
            NeighborBackend::parse("exact").unwrap(),
            NeighborBackend::Exact
        );
        assert!(matches!(
            NeighborBackend::parse("hnsw").unwrap(),
            NeighborBackend::Hnsw(_)
        ));
        assert!(NeighborBackend::parse("annoy").is_err());
        assert_eq!(NeighborBackend::Exact.name(), "exact");
        assert_eq!(NeighborBackend::Hnsw(HnswParams::default()).name(), "hnsw");
        assert!(!NeighborBackend::Exact.is_approximate());
        assert!(NeighborBackend::Hnsw(HnswParams::default()).is_approximate());
    }
}

//! Distance-kernel backend report: naive vs blocked vs GEMM, scalar vs
//! SIMD.
//!
//! Sweeps the pairwise-distance kernels over `(n, d)` in
//! `{2k, 20k} x {8, 32, 128}` for every [`DistanceBackend`] — timing the
//! GEMM backend once per [`SimdLane`] (forced via
//! [`set_simd_lane_override`]) — through [`pairwise_distances_with`],
//! times the
//! batched brute-force kNN fast path, and sweeps the KD-tree-vs-brute
//! crossover dimension that justifies
//! [`suod_linalg::DEFAULT_KDTREE_CROSSOVER_DIM`]. Results go to
//! `BENCH_kernels.json` in the working directory so the perf trajectory
//! is tracked across PRs; the report header records the git revision,
//! the detected lane, and whether the host supports AVX2+FMA, so every
//! number in the file says what produced it.
//!
//! Every timing is the minimum of [`REPS`] runs (minimum, not mean — the
//! quantity of interest is achievable speed, not scheduler noise). All
//! timings are single-thread: backend wins here are algorithmic
//! (packing, cache tiling, the norm trick, vector width), not
//! parallelism.
//!
//! Flags: `--quick` shrinks problem sizes for smoke runs; `--smoke`
//! times only the 20k x 32 pairwise cell and a 2k-train / 200-query
//! batched kNN cell, and exits non-zero unless the blocked backend beats
//! naive on both AND (when the host supports AVX2+FMA) the AVX2 gemm
//! lane beats the forced-scalar gemm lane (the CI regression gates for
//! the tiled and vectorized kernels).

use std::fmt::Write as _;
use std::time::Instant;
use suod_bench::Scale;
use suod_linalg::{
    pairwise_distances_with, set_simd_lane_override, DistanceBackend, DistanceMetric, KernelConfig,
    KnnIndex, Matrix, SimdLane, DEFAULT_KDTREE_CROSSOVER_DIM,
};

const REPS: usize = 3;

fn min_time(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.random_range(-2.0..2.0))
            .collect(),
    )
    .expect("shape consistent")
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout — provenance for the committed report.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Times `f` with the process-wide lane override forced to `lane`,
/// restoring automatic detection afterwards. On hosts without AVX2+FMA
/// an `Avx2` request degrades to scalar (mirroring `SimdLane::detect`),
/// so the numbers are honest on every machine.
fn time_with_lane(lane: SimdLane, f: impl FnMut()) -> f64 {
    set_simd_lane_override(Some(lane));
    let t = min_time(f);
    set_simd_lane_override(None);
    t
}

/// One pairwise cell's timings across backends and lanes.
struct PairwiseCell {
    naive_s: f64,
    blocked_s: f64,
    gemm_scalar_s: f64,
    gemm_simd_s: f64,
}

impl PairwiseCell {
    fn measure(n: usize, d: usize) -> Self {
        let a = random_matrix(n, d, n as u64 ^ d as u64);
        let run = |backend| {
            let config = KernelConfig::default().with_backend(backend);
            let _ = pairwise_distances_with(&a, &a, DistanceMetric::Euclidean, config, 1, None)
                .expect("shapes agree");
        };
        let gemm = |lane| time_with_lane(lane, || run(DistanceBackend::Gemm));
        Self {
            naive_s: min_time(|| run(DistanceBackend::Naive)),
            blocked_s: min_time(|| run(DistanceBackend::Blocked)),
            gemm_scalar_s: gemm(SimdLane::Scalar),
            gemm_simd_s: gemm(SimdLane::Avx2),
        }
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"naive_s\": {:.6}, \"blocked_s\": {:.6}, \"gemm_scalar_s\": {:.6}, \
             \"gemm_simd_s\": {:.6}, \"blocked_speedup\": {:.4}, \
             \"gemm_speedup\": {:.4}, \"simd_speedup\": {:.4}}}",
            self.naive_s,
            self.blocked_s,
            self.gemm_scalar_s,
            self.gemm_simd_s,
            self.naive_s / self.blocked_s,
            self.naive_s / self.gemm_simd_s,
            self.gemm_scalar_s / self.gemm_simd_s,
        );
        s
    }
}

/// Single-thread batched brute-force kNN time (`n` train rows, `q`
/// queries, width `d`, `k` neighbours) per backend.
fn knn_timer(n: usize, q: usize, d: usize, k: usize) -> impl Fn(DistanceBackend) -> f64 {
    let train = random_matrix(n, d, 21);
    let queries = random_matrix(q, d, 22);
    move |backend| {
        let index = KnnIndex::build_with(&train, DistanceMetric::Euclidean, brute_config(backend))
            .expect("non-empty");
        min_time(|| {
            let _ = index
                .query_batch_parallel(&queries, k, 1)
                .expect("shapes agree");
        })
    }
}

fn brute_config(backend: DistanceBackend) -> KernelConfig {
    KernelConfig {
        backend,
        kdtree_crossover_dim: 0,
        ..KernelConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let avx2 = SimdLane::supported() == SimdLane::Avx2;
    let rev = git_rev();

    if args.iter().any(|a| a == "--smoke") {
        // CI gates on the acceptance cell (20k x 32): the tiled blocked
        // kernel must beat the naive scan, and on AVX2 hosts the vector
        // lane must beat the forced-scalar lane.
        let (n, d) = (20_000, 32);
        println!("kernel smoke: pairwise {n}x{d} (avx2 supported: {avx2})");
        let cell = PairwiseCell::measure(n, d);
        println!(
            "naive {:.3}s  blocked {:.3}s ({:.2}x)  gemm scalar {:.3}s  gemm simd {:.3}s \
             ({:.2}x over scalar)",
            cell.naive_s,
            cell.blocked_s,
            cell.naive_s / cell.blocked_s,
            cell.gemm_scalar_s,
            cell.gemm_simd_s,
            cell.gemm_scalar_s / cell.gemm_simd_s,
        );
        if cell.blocked_s >= cell.naive_s {
            eprintln!("FAIL: blocked backend no faster than naive");
            std::process::exit(1);
        }
        if avx2 && cell.gemm_simd_s >= cell.gemm_scalar_s {
            eprintln!("FAIL: AVX2 gemm lane no faster than forced-scalar gemm");
            std::process::exit(1);
        }
        let knn_time = knn_timer(2_000, 200, 32, 10);
        let (knn_naive, knn_blocked) = (
            knn_time(DistanceBackend::Naive),
            knn_time(DistanceBackend::Blocked),
        );
        println!(
            "knn_batch 2000tr/200q d32 k10  naive {knn_naive:.4}s  blocked {knn_blocked:.4}s \
             ({:.2}x)",
            knn_naive / knn_blocked
        );
        if knn_blocked >= knn_naive {
            eprintln!("FAIL: blocked batched kNN no faster than naive");
            std::process::exit(1);
        }
        println!("OK");
        return;
    }

    println!(
        "Distance-kernel backend report (rev {rev}, host cores: {host_cores}, \
         avx2+fma: {avx2}, single-thread timings)"
    );

    // --- Pairwise sweep. ---------------------------------------------------
    let sizes: &[usize] = &scale.pick(vec![500, 2_000], vec![2_000, 20_000], vec![2_000, 20_000]);
    let dims: &[usize] = &[8, 32, 128];
    let mut pairwise_rows: Vec<String> = Vec::new();
    for &n in sizes {
        for &d in dims {
            let cell = PairwiseCell::measure(n, d);
            println!(
                "pairwise {n:>6}x{d:<4} naive {:>8.3}s  blocked {:>8.3}s ({:>4.2}x)  \
                 gemm[scalar] {:>8.3}s  gemm[simd] {:>8.3}s ({:>4.2}x lane)",
                cell.naive_s,
                cell.blocked_s,
                cell.naive_s / cell.blocked_s,
                cell.gemm_scalar_s,
                cell.gemm_simd_s,
                cell.gemm_scalar_s / cell.gemm_simd_s,
            );
            pairwise_rows.push(format!("\"n{n}_d{d}\": {}", cell.json()));
        }
    }

    // --- Batched brute-force kNN fast path. --------------------------------
    let (knn_n, knn_q, knn_d, knn_k) = scale.pick(
        (2_000, 200, 32, 10),
        (20_000, 2_000, 32, 10),
        (20_000, 2_000, 32, 10),
    );
    let knn_time = knn_timer(knn_n, knn_q, knn_d, knn_k);
    let knn_naive = knn_time(DistanceBackend::Naive);
    let knn_blocked = knn_time(DistanceBackend::Blocked);
    let knn_gemm = knn_time(DistanceBackend::Gemm);
    println!(
        "knn_batch {knn_n}tr/{knn_q}q d{knn_d} k{knn_k}  naive {knn_naive:>8.3}s  \
         blocked {knn_blocked:>8.3}s ({:>4.2}x)  gemm {knn_gemm:>8.3}s ({:>4.2}x)",
        knn_naive / knn_blocked,
        knn_naive / knn_gemm,
    );

    // --- KD-tree crossover sweep. ------------------------------------------
    // Tree build + query vs brute-force blocked batch, per dimension: the
    // crossover default is the largest d where the tree still wins.
    let (cx_n, cx_q, cx_k) = scale.pick((2_000, 200, 10), (10_000, 1_000, 10), (10_000, 1_000, 10));
    let mut crossover_rows: Vec<String> = Vec::new();
    let mut derived_crossover = 0usize;
    for &d in &[4usize, 6, 8, 10, 12, 14, 16] {
        let train = random_matrix(cx_n, d, 31 + d as u64);
        let queries = random_matrix(cx_q, d, 32 + d as u64);
        let tree_cfg = KernelConfig {
            kdtree_crossover_dim: usize::MAX,
            ..KernelConfig::default()
        };
        let tree =
            KnnIndex::build_with(&train, DistanceMetric::Euclidean, tree_cfg).expect("non-empty");
        assert!(tree.uses_kdtree(), "crossover sweep needs a real tree");
        let brute = KnnIndex::build_with(
            &train,
            DistanceMetric::Euclidean,
            brute_config(DistanceBackend::Blocked),
        )
        .expect("non-empty");
        let tree_s = min_time(|| {
            let _ = tree
                .query_batch_parallel(&queries, cx_k, 1)
                .expect("shapes");
        });
        let brute_s = min_time(|| {
            let _ = brute
                .query_batch_parallel(&queries, cx_k, 1)
                .expect("shapes");
        });
        if tree_s < brute_s {
            derived_crossover = d;
        }
        println!(
            "crossover d={d:<3} tree {tree_s:>8.4}s  brute(blocked) {brute_s:>8.4}s  \
             tree_wins={}",
            tree_s < brute_s
        );
        crossover_rows.push(format!(
            "\"{d}\": {{\"tree_s\": {tree_s:.6}, \"brute_s\": {brute_s:.6}}}"
        ));
    }
    println!(
        "crossover: largest tree-winning d = {derived_crossover} \
         (shipped default: {DEFAULT_KDTREE_CROSSOVER_DIM})"
    );

    // --- Report. -----------------------------------------------------------
    let json = format!(
        "{{\n  \"git_rev\": \"{rev}\",\n  \"host_cores\": {host_cores},\n  \
         \"avx2_fma_supported\": {avx2},\n  \"lane_detected\": \"{}\",\n  \
         \"scale\": \"{scale:?}\",\n  \
         \"n_threads\": 1,\n  \"pairwise\": {{\n    {}\n  }},\n  \
         \"knn_batch_n{knn_n}_q{knn_q}_d{knn_d}_k{knn_k}\": {{\"naive_s\": {knn_naive:.6}, \
         \"blocked_s\": {knn_blocked:.6}, \"gemm_s\": {knn_gemm:.6}}},\n  \
         \"kdtree_crossover_n{cx_n}_q{cx_q}_k{cx_k}\": {{\n    {}\n  }},\n  \
         \"crossover_derived\": {derived_crossover},\n  \
         \"crossover_default\": {DEFAULT_KDTREE_CROSSOVER_DIM}\n}}\n",
        SimdLane::detect(),
        pairwise_rows.join(",\n    "),
        crossover_rows.join(",\n    "),
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}

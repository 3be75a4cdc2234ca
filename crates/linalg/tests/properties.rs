//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use suod_linalg::rank::{argsort, average_ranks, ordinal_ranks};
use suod_linalg::stats::{zscore_in_place, Standardizer};
use suod_linalg::{
    pairwise_distances_with, set_simd_lane_override, symmetric_eigen, DistanceBackend,
    DistanceMetric, KernelConfig, KnnIndex, Matrix, SimdLane,
};

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized"))
    })
}

/// A compatible `(m x k, k x n)` multiplication pair.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-100.0f64..100.0, m * k),
            proptest::collection::vec(-100.0f64..100.0, k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).expect("sized"),
                    Matrix::from_vec(k, n, b).expect("sized"),
                )
            })
    })
}

/// The exact Euclidean kernel behind the default `Blocked` backend
/// returns, bit for bit, what `DistanceMetric::Euclidean.distance`
/// returns for the same pair, and its neighbour lists are the per-row
/// `query` / `query_excluding` answers. Generated over query counts 1–9
/// (every `MR` = 4 tail), train counts across `NR` = 8 tails and the
/// 512-row train-tile boundary, widths 0–33, and values drawn from a pool
/// with ±0.0, subnormals, duplicates, ties and |x| ≈ 1e160 (whose squares
/// overflow to +inf). Runs on whichever lane is detected; CI runs it under
/// both.
#[test]
fn exact_euclidean_kernel_matches_the_per_pair_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let euclid = DistanceMetric::Euclidean;
    let pool = [
        0.0, -0.0, 5e-324, -2.2e-308, 1.0, -1.0, 0.5, 3.0, 1e160, -1e160,
    ];
    let mut rng = StdRng::seed_from_u64(48);
    let draw = |rows: usize, cols: usize, rng: &mut StdRng| {
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0..4) {
                0 => pool[rng.random_range(0..pool.len())],
                _ => rng.random_range(-2.0..2.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data).expect("sized")
    };
    let brute = KernelConfig::default().with_kdtree_crossover_dim(0);
    for d in 0..=33usize {
        let trains: &[usize] = if d % 11 == 3 {
            &[1, 7, 9, 17, 515]
        } else {
            &[1, 7, 9, 17]
        };
        for &n in trains {
            let mut train = draw(n, d, &mut rng);
            if n > 2 && d > 0 {
                // A duplicate row: exact ties broken by index.
                let dup = train.row(0).to_vec();
                for (k, v) in dup.into_iter().enumerate() {
                    train.set(n - 1, k, v);
                }
            }
            let index = KnnIndex::build_with(&train, euclid, brute).expect("non-empty");
            assert_eq!(index.kernel_config().backend, DistanceBackend::Blocked);
            for q in 1..=9usize {
                let queries = draw(q, d, &mut rng);
                let k = 1 + (q * 7 + d) % (n + 2);
                let batch = index.query_batch(&queries, k).expect("widths agree");
                for (i, nn) in batch.iter().enumerate() {
                    assert_eq!(
                        nn,
                        &index.query(queries.row(i), k),
                        "d={d} n={n} q={q} row {i}"
                    );
                    for nb in nn {
                        let want = euclid.distance(queries.row(i), train.row(nb.index));
                        assert_eq!(nb.distance.to_bits(), want.to_bits(), "d={d} n={n} q={q}");
                    }
                }
                // Three threads split 1..=9 rows into chunks of one to
                // three: 1-row chunks (per-pair loop) sit beside packed ones.
                let split = index
                    .query_batch_parallel(&queries, k, 3)
                    .expect("widths agree");
                assert_eq!(split, batch, "threads d={d} n={n} q={q}");
                let naive = pairwise(&queries, &train, euclid, DistanceBackend::Naive, 1);
                let blocked = pairwise(&queries, &train, euclid, DistanceBackend::Blocked, 2);
                assert_eq!(bits(&blocked), bits(&naive), "pairwise d={d} n={n} q={q}");
            }
            let k = 1 + d % n.max(1);
            let expected: Vec<_> = (0..n)
                .map(|i| index.query_excluding(train.row(i), k, i))
                .collect();
            for threads in [1usize, 2] {
                assert_eq!(
                    index.self_query_batch(k, threads),
                    expected,
                    "self d={d} n={n}"
                );
            }
        }
    }
}

/// Sorted neighbour index set of one result row.
/// [`pairwise_distances_with`] on `backend` at `threads`, no counters.
fn pairwise(
    a: &Matrix,
    b: &Matrix,
    metric: DistanceMetric,
    backend: DistanceBackend,
    threads: usize,
) -> Matrix {
    let config = KernelConfig::default().with_backend(backend);
    pairwise_distances_with(a, b, metric, config, threads, None).expect("widths agree")
}

/// Every f64 bit pattern of a matrix.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// GEMM distances carry the same bits at 1, 2 and 8 threads and on
/// either micro-kernel lane, over shapes that end mid-panel (`MR` = 4
/// rows, `NR` = 8 columns) and mid-cache-block (256 `a` rows, 1024 `b`
/// rows). The lane is forced process-wide, so this is an ordinary test
/// rather than a property (nothing else in this binary forces a lane).
#[test]
fn gemm_distances_bit_identical_across_threads_tiles_and_lanes() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let mut random = |rows: usize, cols: usize| {
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-2.0..2.0))
            .collect();
        Matrix::from_vec(rows, cols, data).expect("sized")
    };
    let euclid = DistanceMetric::Euclidean;
    for (na, nb, d) in [(1, 1, 1), (5, 9, 3), (33, 17, 7), (261, 1029, 5)] {
        let (a, b) = (random(na, d), random(nb, d));
        set_simd_lane_override(Some(SimdLane::Scalar));
        let reference = bits(&pairwise(&a, &b, euclid, DistanceBackend::Gemm, 1));
        for lane in [SimdLane::Scalar, SimdLane::Avx2] {
            set_simd_lane_override(Some(lane));
            for threads in [1usize, 2, 8] {
                let got = pairwise(&a, &b, euclid, DistanceBackend::Gemm, threads);
                assert_eq!(
                    bits(&got),
                    reference,
                    "{na}x{nb}x{d} lane={lane} threads={threads}"
                );
            }
        }
        set_simd_lane_override(None);
    }
}

fn index_set(nn: &[suod_linalg::distance::Neighbor]) -> Vec<usize> {
    let mut ids: Vec<usize> = nn.iter().map(|n| n.index).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop(m in small_matrix(8)) {
        let i = Matrix::identity(m.ncols());
        let p = m.matmul(&i).unwrap();
        for (a, b) in p.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_transpose_identity(m in small_matrix(6)) {
        // (A B)^T == B^T A^T
        let b = m.transpose();
        let left = m.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&m.transpose()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn distances_symmetric_nonneg(m in small_matrix(6)) {
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan, DistanceMetric::Minkowski(3.0)] {
            let d = pairwise(&m, &m, metric, DistanceBackend::Blocked, 1);
            for i in 0..m.nrows() {
                prop_assert!(d.get(i, i).abs() < 1e-9);
                for j in 0..m.nrows() {
                    prop_assert!(d.get(i, j) >= 0.0);
                    prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_euclidean(
        a in proptest::collection::vec(-50.0f64..50.0, 4),
        b in proptest::collection::vec(-50.0f64..50.0, 4),
        c in proptest::collection::vec(-50.0f64..50.0, 4),
    ) {
        let m = DistanceMetric::Euclidean;
        prop_assert!(m.distance(&a, &c) <= m.distance(&a, &b) + m.distance(&b, &c) + 1e-9);
    }

    #[test]
    fn eigen_reconstructs_gram(m in small_matrix(5)) {
        // X^T X is symmetric PSD; eigendecomposition must reconstruct it.
        let g = m.transpose().matmul(&m).unwrap();
        let e = symmetric_eigen(&g).unwrap();
        let n = g.nrows();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n { d.set(i, i, e.values[i]); }
        let rec = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        let scale = 1.0 + g.as_slice().iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for (x, y) in rec.as_slice().iter().zip(g.as_slice()) {
            prop_assert!((x - y).abs() / scale < 1e-6, "{x} vs {y}");
        }
        // Eigenvalues of a PSD matrix are non-negative (up to round-off).
        for &v in &e.values {
            prop_assert!(v > -1e-6 * scale);
        }
    }

    #[test]
    fn argsort_sorts(xs in proptest::collection::vec(-1e6f64..1e6, 0..64)) {
        let order = argsort(&xs);
        for w in order.windows(2) {
            prop_assert!(xs[w[0]] <= xs[w[1]]);
        }
        // A permutation: every index appears once.
        let mut seen = vec![false; xs.len()];
        for &i in &order { seen[i] = true; }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn ranks_are_permutation(xs in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
        let mut r = ordinal_ranks(&xs);
        r.sort_unstable();
        let expect: Vec<usize> = (1..=xs.len()).collect();
        prop_assert_eq!(r, expect);
    }

    #[test]
    fn average_ranks_sum_invariant(xs in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
        // Sum of ranks is n(n+1)/2 regardless of ties.
        let n = xs.len() as f64;
        let s: f64 = average_ranks(&xs).iter().sum();
        prop_assert!((s - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn zscore_idempotent_stats(mut xs in proptest::collection::vec(-1e3f64..1e3, 3..64)) {
        zscore_in_place(&mut xs);
        let m = suod_linalg::stats::mean(&xs);
        let s = suod_linalg::stats::std_dev(&xs);
        prop_assert!(m.abs() < 1e-9);
        prop_assert!(s < 1e-12 || (s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kdtree_equals_brute_force(
        n in 130usize..400,
        d in 1usize..6,
        seed in 0u64..1000,
        k in 1usize..12,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-50.0..50.0)).collect();
        let pts = Matrix::from_vec(n, d, data).unwrap();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let auto = suod_linalg::KnnIndex::build(&pts, metric).unwrap();
            prop_assert!(auto.uses_kdtree());
            let brute = suod_linalg::KnnIndex::build_brute_force(&pts, metric).unwrap();
            let q: Vec<f64> = (0..d).map(|_| rng.random_range(-60.0..60.0)).collect();
            prop_assert_eq!(auto.query(&q, k), brute.query(&q, k));
        }
    }

    #[test]
    fn self_query_prefix_is_exact(
        n in 2usize..200,
        d in 1usize..6,
        seed in 0u64..1000,
        k_max in 1usize..16,
    ) {
        // The NeighborCache serves k < k_max as a prefix slice of the
        // k_max sweep. That is only sound if the first k entries of
        // self_query_batch(k_max, t) are bit-identical to a direct
        // self_query_batch(k, t) — for every k <= k_max, every thread
        // count, and both index backends (n crosses the KD-tree and the
        // symmetric-matrix thresholds within this range).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // Duplicate rows with positive probability to exercise ties.
        let data: Vec<f64> = (0..n * d)
            .map(|_| (rng.random_range(-8.0f64..8.0)).round())
            .collect();
        let pts = Matrix::from_vec(n, d, data).unwrap();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let index = suod_linalg::KnnIndex::build(&pts, metric).unwrap();
            let full = index.self_query_batch(k_max, 1);
            for t in [1usize, 2, 8] {
                for k in 1..=k_max {
                    let direct = index.self_query_batch(k, t);
                    for i in 0..n {
                        let prefix = &full[i][..k.min(full[i].len())];
                        prop_assert_eq!(
                            prefix, &direct[i][..],
                            "metric {:?} k={} t={} row={}", metric, k, t, i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cache_serves_bit_identical_lists(
        n in 2usize..150,
        d in 1usize..5,
        seed in 0u64..1000,
        k in 1usize..12,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-50.0f64..50.0)).collect();
        let pts = Matrix::from_vec(n, d, data).unwrap();
        let cache = suod_linalg::NeighborCache::with_config(
            suod_linalg::KernelConfig::default(),
            suod_observe::noop(),
        );
        let fp = suod_linalg::DataFingerprint::of(&pts);
        // Warm the cache at a larger k, then request smaller ones.
        let metric = DistanceMetric::Euclidean;
        cache.get_or_build_keyed(fp, &pts, metric, k + 3, 2).unwrap();
        let graph = cache.get_or_build_keyed(fp, &pts, metric, k, 1).unwrap();
        let index = suod_linalg::KnnIndex::build(&pts, metric).unwrap();
        let direct = index.self_query_batch(k, 1);
        for (i, row) in direct.iter().enumerate() {
            prop_assert_eq!(graph.prefix(i, k), &row[..]);
        }
        prop_assert_eq!(cache.stats().builds, 1);
    }

    #[test]
    fn packed_matmul_matches_naive((a, b) in matmul_pair(9)) {
        // The packed 4x4 micro-kernel reassociates nothing within an
        // output element (single accumulator, ascending k), so it stays
        // within tight relative tolerance of the skip-zero naive loop —
        // and is bit-identical across thread counts.
        let naive = a.matmul(&b).unwrap();
        let t1 = suod_linalg::matmul_packed(&a, &b, 1, None).unwrap();
        for t in [2usize, 5] {
            let tn = suod_linalg::matmul_packed(&a, &b, t, None).unwrap();
            prop_assert_eq!(tn.as_slice(), t1.as_slice());
        }
        for (x, y) in t1.as_slice().iter().zip(naive.as_slice()) {
            let scale = 1.0 + x.abs().max(y.abs());
            prop_assert!((x - y).abs() <= 1e-9 * scale, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_distances_bit_identical_to_naive(m in small_matrix(8)) {
        for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
            let naive = pairwise(&m, &m, metric, DistanceBackend::Naive, 1);
            for t in [1usize, 3] {
                let blocked = pairwise(&m, &m, metric, DistanceBackend::Blocked, t);
                prop_assert_eq!(blocked.as_slice(), naive.as_slice());
            }
        }
    }

    #[test]
    fn gemm_distances_match_naive(m in small_matrix(8)) {
        // Compare squared distances: the norm trick's error is relative
        // to the norms (`||x||^2 + ||y||^2`), not to the distance itself,
        // which for near-duplicate rows can be arbitrarily smaller.
        let naive = pairwise(&m, &m, DistanceMetric::Euclidean, DistanceBackend::Naive, 1);
        let norms: Vec<f64> = (0..m.nrows())
            .map(|i| m.row(i).iter().map(|v| v * v).sum())
            .collect();
        let g1 = pairwise(&m, &m, DistanceMetric::Euclidean, DistanceBackend::Gemm, 1);
        for t in [2usize, 5] {
            let gt = pairwise(&m, &m, DistanceMetric::Euclidean, DistanceBackend::Gemm, t);
            prop_assert_eq!(gt.as_slice(), g1.as_slice());
        }
        for i in 0..m.nrows() {
            for j in 0..m.nrows() {
                let (dn, dg) = (naive.get(i, j), g1.get(i, j));
                prop_assert!(dg >= 0.0);
                let tol = 1e-9 * (1.0 + norms[i] + norms[j]);
                prop_assert!(
                    (dg * dg - dn * dn).abs() <= tol,
                    "({i},{j}): gemm {dg} vs naive {dn}"
                );
            }
        }
    }

    #[test]
    fn gemm_distances_survive_adversarial_structure(
        n in 2usize..10,
        d in 1usize..6,
        seed in 0u64..500,
        scale_idx in 0usize..3,
    ) {
        let scale = [1.0f64, 1e6, 1e-6][scale_idx];
        // Colinear rows (worst case for the norm trick's cancellation:
        // d^2 = (|a|-|b|)^2 while na+nb is huge), exact duplicates, and
        // extreme magnitudes.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dir: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0f64..1.0)).collect();
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| dir.iter().map(|v| v * i as f64 * scale).collect())
            .collect();
        rows.push(rows[0].clone());
        rows.push(rows[n / 2].clone());
        let m = Matrix::from_rows(&rows).unwrap();
        let naive = pairwise(&m, &m, DistanceMetric::Euclidean, DistanceBackend::Naive, 1);
        let gemm = pairwise(&m, &m, DistanceMetric::Euclidean, DistanceBackend::Gemm, 1);
        let norms: Vec<f64> = (0..m.nrows())
            .map(|i| m.row(i).iter().map(|v| v * v).sum())
            .collect();
        for i in 0..m.nrows() {
            for j in 0..m.nrows() {
                let (dn, dg) = (naive.get(i, j), gemm.get(i, j));
                prop_assert!(dg >= 0.0, "clamp must keep distances nonnegative");
                let tol = 1e-9 * (1.0 + norms[i] + norms[j]);
                prop_assert!(
                    (dg * dg - dn * dn).abs() <= tol,
                    "({i},{j}): gemm {dg} vs naive {dn}"
                );
            }
        }
    }

    #[test]
    fn knn_fast_path_matches_naive_index_sets(
        n in 20usize..120,
        d in 1usize..7,
        seed in 0u64..500,
        k in 1usize..10,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-50.0f64..50.0)).collect();
        let pts = Matrix::from_vec(n, d, data).unwrap();
        let qdata: Vec<f64> = (0..7 * d).map(|_| rng.random_range(-60.0f64..60.0)).collect();
        let queries = Matrix::from_vec(7, d, qdata).unwrap();
        // Force brute force so the tiled batch kernels are what's tested.
        let brute = |backend| KernelConfig {
            backend,
            kdtree_crossover_dim: 0,
            ..KernelConfig::default()
        };
        let naive = KnnIndex::build_with(
            &pts, DistanceMetric::Euclidean, brute(DistanceBackend::Naive)).unwrap();
        let reference: Vec<Vec<suod_linalg::distance::Neighbor>> =
            (0..queries.nrows()).map(|i| naive.query(queries.row(i), k)).collect();
        for backend in [DistanceBackend::Blocked, DistanceBackend::Gemm] {
            let index = KnnIndex::build_with(
                &pts, DistanceMetric::Euclidean, brute(backend)).unwrap();
            for t in [1usize, 3] {
                let batch = index.query_batch_parallel(&queries, k, t).unwrap();
                for (row, (got, want)) in batch.iter().zip(&reference).enumerate() {
                    if backend.is_bit_identical_to_naive() {
                        prop_assert_eq!(got, want, "row {} t {}", row, t);
                    } else {
                        // Gemm may perturb last-bit distances; the index
                        // *set* must still match exactly on generic data.
                        prop_assert_eq!(
                            index_set(got), index_set(want), "row {} t {}", row, t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn standardizer_train_has_unit_stats(m in small_matrix(8)) {
        prop_assume!(m.nrows() >= 2);
        let sc = Standardizer::fit(&m).unwrap();
        let t = sc.transform(&m).unwrap();
        for c in 0..t.ncols() {
            let col = t.col(c);
            prop_assert!(suod_linalg::stats::mean(&col).abs() < 1e-8);
        }
    }
}

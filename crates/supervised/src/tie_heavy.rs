//! Generated test data for the tree-ensemble and histogram oracles:
//! matrices built to tie, and query rows built to stress a walk. Compiled
//! only into test builds; `suod-detectors` includes this file too, by path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suod_linalg::Matrix;

/// Query row counts: none, one, and counts on both sides of the 128- and
/// 256-row boundaries a blocked or chunked walk would have.
pub(crate) const QUERY_COUNTS: [usize; 6] = [0, 1, 127, 128, 129, 257];

/// A matrix and targets built to tie: per column continuous, a small
/// lattice that holds both zeros, or constant; then a share of the
/// rows overwritten with copies of other rows.
pub(crate) fn tie_heavy_problem(n: usize, d: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lattice = [-1.0, -0.0, 0.0, 0.5, 2.0];
    let mut x = Matrix::zeros(n, d);
    for c in 0..d {
        let kind = rng.random_range(0..4usize);
        let constant = lattice[rng.random_range(0..lattice.len())];
        for r in 0..n {
            let v = match kind {
                0 | 1 => lattice[rng.random_range(0..lattice.len())],
                2 => rng.random::<f64>() * 8.0 - 4.0,
                _ => constant,
            };
            x.set(r, c, v);
        }
    }
    let mut y: Vec<f64> = (0..n)
        .map(|_| match seed % 3 {
            0 => rng.random::<f64>() * 10.0 - 5.0,
            _ => lattice[rng.random_range(0..lattice.len())],
        })
        .collect();
    for r in 0..n {
        if rng.random_bool(0.3) {
            let from = rng.random_range(0..n);
            let row = x.row(from).to_vec();
            x.row_mut(r).copy_from_slice(&row);
            if rng.random_bool(0.5) {
                y[r] = y[from];
            }
        }
    }
    (x, y)
}

/// `count` rows as wide as `x`: mostly copies of its cells (so they hit
/// thresholds exactly), some fresh values, and some NaN, ±inf and ±0.0.
pub(crate) fn hostile_queries(x: &Matrix, count: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
    let mut q = Matrix::zeros(count, x.ncols());
    for r in 0..count {
        let from = rng.random_range(0..x.nrows());
        for c in 0..x.ncols() {
            let v = match rng.random_range(0..8usize) {
                0 => specials[rng.random_range(0..specials.len())],
                1 => rng.random::<f64>() * 10.0 - 5.0,
                _ => x.get(from, c),
            };
            q.set(r, c, v);
        }
    }
    q
}

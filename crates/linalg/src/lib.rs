#![warn(missing_docs)]

//! Dense linear algebra and statistics substrate for the SUOD reproduction.
//!
//! Every higher-level crate in this workspace (detectors, projectors,
//! supervised regressors, the scheduler's meta-feature extractor) operates
//! on the [`Matrix`] type defined here. The crate is intentionally
//! self-contained: no BLAS/LAPACK bindings, just portable, well-tested
//! `f64` routines sized for the datasets the paper evaluates on
//! (up to ~half a million rows, a few hundred columns).
//!
//! # Modules
//!
//! * [`matrix`] — row-major dense matrix with shape-checked operations.
//! * [`eigen`] — cyclic Jacobi eigensolver for symmetric matrices (used by
//!   the PCA projection baseline).
//! * [`distance`] — distance metrics and k-nearest-neighbour search
//!   (brute force + automatic KD-tree backend) shared by kNN/LOF/ABOD/LoOP.
//! * [`gemm`] — packed, register-blocked GEMM micro-kernels with an
//!   explicit AVX2 lane ([`SimdLane`], runtime-detected, scalar
//!   fallback), the [`DistanceBackend`] selector (naive | blocked |
//!   gemm) behind the brute-force distance paths, the configurable
//!   KD-tree crossover
//!   ([`KernelConfig`]), and the kernel-work counters ([`KernelStats`]).
//! * [`kdtree`] — exact KD-tree used by [`distance::KnnIndex`] on
//!   low-dimensional data.
//! * [`stats`] — column statistics, standardization, and descriptive
//!   statistics used for meta-features.
//! * [`rank`] — argsort, average-tie ranking and top-k selection used by
//!   the metrics crate and the BPS scheduler.
//! * [`parallel`] — scoped-thread row-block helpers behind the
//!   data-parallel kernels ([`pairwise_distances_with`],
//!   [`Matrix::matmul_blocked`], [`KnnIndex::query_batch_parallel`]).
//!   Every kernel takes an explicit thread count and produces
//!   bit-identical results for every value of it.
//! * [`neighbor_cache`] — fingerprint-keyed [`NeighborCache`] that builds
//!   each [`KnnIndex`] once, sweeps leave-one-out neighbours once at the
//!   pooled maximum k, and serves exact sorted-prefix views to every
//!   proximity detector sharing the same training matrix.
//! * [`hnsw`] — seeded, deterministic approximate neighbor graph
//!   ([`HnswGraph`]) selected through [`NeighborBackend::Hnsw`]; turns the
//!   exact O(n²) self-sweep into an O(n·log n) build plus beam searches,
//!   with an exactness fallback for small n and non-Euclidean metrics.
//! * [`forest`] — the flat node arena ([`Forest`]) every tree ensemble
//!   stores its trees in, and the one walk that scores them.
//! * [`binned`] — the binned-density operator ([`Binned`]) HBOS and LODA
//!   store their histograms in: sparse one-dimensional views, an
//!   equal-width grid and a per-bin score table each, and one kernel.
//!
//! # Example
//!
//! ```
//! use suod_linalg::Matrix;
//!
//! # fn main() -> Result<(), suod_linalg::Error> {
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let xt = x.transpose();
//! let g = x.matmul(&xt)?; // Gram matrix
//! assert_eq!(g.get(0, 0), 5.0);
//! # Ok(())
//! # }
//! ```

pub mod binned;
pub mod distance;
pub mod eigen;
pub mod forest;
pub mod gemm;
pub mod hnsw;
pub mod kdtree;
pub mod matrix;
pub mod neighbor_cache;
pub mod parallel;
pub mod rank;
pub mod snapshot;
pub mod stats;

pub use binned::{Binned, Edge, Rule};
pub use distance::{pairwise_distances_with, DistanceMetric, KnnIndex, Neighbor};
pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use forest::{FlatNode, Forest};
pub use gemm::{
    gram, matmul_packed, row_sq_norms, set_simd_lane_override, DistanceBackend, KernelConfig,
    KernelCounters, KernelStats, SimdLane, DEFAULT_KDTREE_CROSSOVER_DIM, DEFAULT_KDTREE_MIN_ROWS,
};
pub use hnsw::{
    HnswGraph, HnswParams, NeighborBackend, DEFAULT_EF_CONSTRUCTION, DEFAULT_EF_SEARCH,
    DEFAULT_HNSW_M, DEFAULT_HNSW_MIN_ROWS,
};
pub use matrix::Matrix;
pub use neighbor_cache::{
    DataFingerprint, NeighborCache, NeighborCacheStats, NeighborGraph, SelfNeighbors,
};
pub use snapshot::{SnapshotReader, SnapshotWriter};

use std::fmt;

/// Errors produced by shape-checked linear algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A constructor received data whose length does not match `rows * cols`.
    BadDimensions {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
    /// An operation required a non-empty matrix but got zero rows or columns.
    Empty(&'static str),
    /// An iterative routine failed to converge.
    NoConvergence(&'static str),
    /// A parameter was outside its valid domain.
    InvalidParameter(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::BadDimensions { expected, actual } => write!(
                f,
                "data length {actual} does not match requested shape ({expected} elements)"
            ),
            Error::Empty(op) => write!(f, "{op} requires a non-empty matrix"),
            Error::NoConvergence(what) => write!(f, "{what} failed to converge"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_describe_shapes_and_parameters() {
        for (err, message) in [
            (
                Error::ShapeMismatch {
                    op: "matmul",
                    lhs: (2, 3),
                    rhs: (4, 5),
                },
                "shape mismatch in matmul: left is 2x3, right is 4x5",
            ),
            (
                Error::BadDimensions {
                    expected: 6,
                    actual: 5,
                },
                "data length 5 does not match requested shape (6 elements)",
            ),
            (Error::Empty("mean"), "mean requires a non-empty matrix"),
            (Error::NoConvergence("svd"), "svd failed to converge"),
            (
                Error::InvalidParameter("k = 0".into()),
                "invalid parameter: k = 0",
            ),
        ] {
            assert_eq!(err.to_string(), message);
        }
    }
}

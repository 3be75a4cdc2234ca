#![warn(missing_docs)]

//! Offline shim for the subset of the `rand` 0.9 API this workspace uses.
//!
//! The build container has no access to a crates registry, so the
//! workspace vendors a minimal, dependency-free implementation of the
//! pieces it actually calls: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::random`], and [`Rng::random_range`]. The generator is
//! xoshiro256++ seeded through splitmix64 — high-quality, fast, and fully
//! deterministic per seed, which is all the reproduction requires (no
//! cryptographic claims, and no stream compatibility with upstream
//! `rand`).

/// Random number generator engines.
pub mod rngs {
    /// A deterministic 64-bit generator (xoshiro256++).
    ///
    /// API-compatible stand-in for `rand::rngs::StdRng` at the call sites
    /// used in this workspace. Streams differ from upstream `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }
}

/// Types producible by [`Rng::random`].
pub trait Standard: Sized {
    /// Draws one value from the generator.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next() & 1 == 1
    }
}

/// Range arguments accepted by [`Rng::random_range`].
pub trait SampleRange {
    /// The value type the range produces.
    type Output;
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample_from(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32, i8);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        let u = f64::sample(rng);
        start + u * (end - start)
    }
}

/// Value-drawing methods, mirroring the `rand::Rng` trait surface used in
/// this workspace.
pub trait Rng {
    /// Draws a value of type `T` (uniform over the type's natural domain;
    /// `f64` is uniform in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T;

    /// Draws a value uniformly from `range`.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output;

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    #[inline]
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.random::<u64>()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random::<u64>()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.random::<u64>()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let u = rng.random_range(3usize..10);
            assert!((3..10).contains(&u));
            let i = rng.random_range(-5i32..=5);
            assert!((-5..=5).contains(&i));
            let f = rng.random_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn random_bool_follows_p() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!((0..1000).all(|_| !rng.random_bool(0.0)));
        assert!((0..1000).all(|_| rng.random_bool(1.0)));
        let hits = (0..20_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((hits as f64 / 20_000.0 - 0.3).abs() < 0.02, "{hits}");
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_integer_range_panics() {
        StdRng::seed_from_u64(5).random_range(5usize..5);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_float_range_panics() {
        StdRng::seed_from_u64(6).random_range(1.0f64..1.0);
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<i8> = (0..4000)
            .map(|_| rng.random_range(i8::MIN..=i8::MAX))
            .collect();
        assert!(draws.contains(&i8::MIN) && draws.contains(&i8::MAX));
        let draws: Vec<u32> = (0..200).map(|_| rng.random_range(2u32..=3)).collect();
        assert!(draws.contains(&2) && draws.contains(&3));
        // Spans as wide as the type neither overflow nor panic.
        let _ = rng.random_range(0u64..=u64::MAX);
        let _ = rng.random_range(i64::MIN..=i64::MAX);
        assert_eq!(rng.random_range(2.5f64..=2.5), 2.5);
    }

    #[test]
    fn a_clone_continues_the_same_stream() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = rng.random::<u64>();
        let mut copy = rng.clone();
        let a: Vec<u64> = (0..8).map(|_| rng.random()).collect();
        let b: Vec<u64> = (0..8).map(|_| copy.random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_draws_take_their_bits_from_one_word() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            let word = rng.clone().random::<u64>();
            assert_eq!(rng.clone().random::<u32>(), (word >> 32) as u32);
            assert_eq!(rng.clone().random::<bool>(), word & 1 == 1);
            assert_eq!(
                rng.clone().random::<f64>(),
                (word >> 11) as f64 / (1u64 << 53) as f64
            );
            let _ = rng.random::<u64>();
        }
    }
}

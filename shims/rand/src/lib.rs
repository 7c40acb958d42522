//! Offline shim for the `rand` crate: the core RNG traits plus the range,
//! bool, Bernoulli and slice-sampling helpers this workspace uses.
//! Deterministic, but not bit-compatible with crates.io `rand`. See
//! `shims/README.md`.

/// Source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Range types a value can be uniformly sampled from.
pub trait SampleRange<T> {
    /// Draws one uniform sample. Panics on an empty range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Every integer type here is at most 64 bits wide, so a bound converts to
// a `u64` offset losslessly (two's complement for the signed types) and
// an exclusive range's span always fits in a `u64`. Only the whole
// inclusive `u64` or `i64` range spans 2^64, and there the draw itself is
// the offset.
macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let lo = self.start as i128 as u64;
                let span = (self.end as i128 as u64).wrapping_sub(lo);
                lo.wrapping_add(rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let lo = lo as i128 as u64;
                let w = rng.next_u64();
                let v = match (hi as i128 as u64).wrapping_sub(lo).checked_add(1) {
                    Some(span) => w % span,
                    None => w,
                };
                lo.wrapping_add(v) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// One sample of `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Probability distributions (the subset of the real crate's module this
/// workspace uses).
pub mod distributions {
    use super::Rng;

    /// Types that produce values of `T` from a random source.
    pub trait Distribution<T> {
        /// One value, drawn from `rng`.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// A Bernoulli trial: `true` with probability `p`.
    ///
    /// [`Rng::gen_bool`] compares `(w >> 11) / 2^53` with `p` for a draw
    /// `w`. The quotient is exact, so that is `w >> 11 < p * 2^53`, and
    /// for an integer left side `w >> 11 < ceil(p * 2^53)`. `p * 2^53` is
    /// exact too (a power-of-two scaling of a value in `[0, 1]`), so
    /// [`Bernoulli::new`] computes the ceiling once and a trial is one
    /// integer comparison with the same outcome as `gen_bool(p)` on every
    /// draw.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Bernoulli {
        /// `ceil(p * 2^53)`: a trial succeeds when `w >> 11` is below it.
        threshold: u64,
    }

    /// Why [`Bernoulli::new`] refused a probability.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum BernoulliError {
        /// `p` is NaN or outside `[0, 1]`.
        InvalidProbability,
    }

    impl std::fmt::Display for BernoulliError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("probability outside [0, 1]")
        }
    }

    impl Bernoulli {
        /// The trial with success probability `p`.
        pub fn new(p: f64) -> Result<Bernoulli, BernoulliError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(BernoulliError::InvalidProbability);
            }
            let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
            Ok(Bernoulli { threshold })
        }
    }

    impl Distribution<bool> for Bernoulli {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u64() >> 11) < self.threshold
        }
    }
}

/// Random sampling from slices.
pub mod seq {
    use super::{Rng, RngCore};

    /// Slice sampling helpers (subset of the real crate's trait).
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// One uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct elements, uniformly without replacement (fewer
        /// if the slice is shorter). Order is randomized.
        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;

        /// Shuffles the slice in place (Fisher-Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            let amount = amount.min(self.len());
            let mut idx: Vec<usize> = (0..self.len()).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(amount);
            idx.into_iter()
                .map(|i| &self[i])
                .collect::<Vec<&T>>()
                .into_iter()
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(42);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    /// Returns the same word on every draw.
    struct Fixed(u64);
    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// `gen_bool`'s comparison, and so its outcome, on the draw `w`.
    fn float_trial(w: u64, p: f64) -> bool {
        Fixed(w).gen_bool(p)
    }

    /// Probabilities at the edges of the 53-bit grid and the traffic
    /// rates, then random ones: half on the grid, half with arbitrary
    /// mantissas and exponents (many far below 2^-53).
    fn probabilities() -> Vec<f64> {
        let mut ps = vec![
            0.0,
            5e-324,
            2f64.powi(-53),
            0.002,
            0.02,
            0.05,
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
        ];
        let mut rng = Counter(3);
        while ps.len() < 9 + 10_000 {
            let w = rng.next_u64();
            let p = if ps.len() % 2 == 0 {
                (w >> 11) as f64 / (1u64 << 53) as f64
            } else {
                f64::from_bits(w >> 2)
            };
            if p <= 1.0 {
                ps.push(p);
            }
        }
        ps
    }

    #[test]
    fn bernoulli_trials_match_gen_bool() {
        for p in probabilities() {
            let d = distributions::Bernoulli::new(p).unwrap();
            // Trial for trial on one stream...
            let (mut a, mut b) = (Counter(p.to_bits()), Counter(p.to_bits()));
            for _ in 0..64 {
                assert_eq!(a.sample(d), b.gen_bool(p), "p = {p:e}");
            }
            // ...and on the draws either side of the threshold, where a
            // rounding slip would show.
            let t = (p * (1u64 << 53) as f64).ceil() as u64;
            for x in [t.saturating_sub(1), t, t + 1, 0, (1 << 53) - 1] {
                for low in [0, 0x7ff] {
                    let w = (x.min((1 << 53) - 1) << 11) | low;
                    assert_eq!(
                        Fixed(w).sample(d),
                        float_trial(w, p),
                        "p = {p:e}, w = {w:#x}"
                    );
                }
            }
        }
        for bad in [-0.0001, 1.0001, f64::NAN, f64::INFINITY] {
            assert_eq!(
                distributions::Bernoulli::new(bad),
                Err(distributions::BernoulliError::InvalidProbability)
            );
        }
    }

    /// The reduction `gen_range` made before it took a 64-bit remainder:
    /// the draw modulo the span in 128 bits. `hi` is inclusive.
    fn wide_range(w: u64, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo) as u128 + 1;
        lo + ((w as u128) % span) as i128
    }

    #[test]
    fn narrow_remainder_matches_the_wide_one() {
        let mut words = vec![0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        let mut rng = Counter(5);
        words.extend((0..2000).map(|_| rng.next_u64()));
        let max = u64::MAX;
        for &w in &words {
            let u = |lo: u64, hi: u64| wide_range(w, lo.into(), hi.into());
            assert_eq!(Fixed(w).gen_range(0..=max) as i128, u(0, max));
            assert_eq!(Fixed(w).gen_range(0..max) as i128, u(0, max - 1));
            assert_eq!(Fixed(w).gen_range(1..=max) as i128, u(1, max));
            assert_eq!(Fixed(w).gen_range(0..=max - 1) as i128, u(0, max - 1));
            assert_eq!(Fixed(w).gen_range(3..max - 1) as i128, u(3, max - 2));
            assert_eq!(Fixed(w).gen_range(max / 2..=max) as i128, u(max / 2, max));
            assert_eq!(Fixed(w).gen_range(max - 1..=max) as i128, u(max - 1, max));
            let i = |lo: i64, hi: i64| wide_range(w, lo.into(), hi.into());
            let (imin, imax) = (i64::MIN, i64::MAX);
            assert_eq!(Fixed(w).gen_range(imin..=imax) as i128, i(imin, imax));
            assert_eq!(Fixed(w).gen_range(imin..imax) as i128, i(imin, imax - 1));
            assert_eq!(
                Fixed(w).gen_range(imin + 1..=imax) as i128,
                i(imin + 1, imax)
            );
            assert_eq!(Fixed(w).gen_range(-1..=imax) as i128, i(-1, imax));
            assert_eq!(Fixed(w).gen_range(-5i64..=5) as i128, i(-5, 5));
            assert_eq!(
                Fixed(w).gen_range(isize::MIN..=isize::MAX) as i128,
                i(imin, imax)
            );
            assert_eq!(
                Fixed(w).gen_range(-100i8..100) as i128,
                wide_range(w, -100, 99)
            );
            assert_eq!(
                Fixed(w).gen_range(i8::MIN..=i8::MAX) as i128,
                wide_range(w, -128, 127)
            );
            assert_eq!(Fixed(w).gen_range(0..12usize) as i128, u(0, 11));
            assert_eq!(
                Fixed(w).gen_range(0..=u32::MAX) as i128,
                u(0, u32::MAX.into())
            );
        }
    }

    #[test]
    fn choose_multiple_distinct() {
        let mut rng = Counter(9);
        let xs: Vec<u32> = (0..50).collect();
        let picked: Vec<u32> = xs.choose_multiple(&mut rng, 10).copied().collect();
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }
}

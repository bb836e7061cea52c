//! RNG traits and sampling helpers.
//!
//! Mirrors the subset of the `rand` 0.8 API the workspace uses so the
//! migration off crates.io stayed mechanical: [`RngCore`] is the
//! object-safe word source, [`Rng`] adds the generic sampling methods via a
//! blanket impl, [`SeedableRng`] provides `seed_from_u64`, and
//! [`SliceRandom`] provides Fisher–Yates `shuffle`/`choose`. The [`dist`]
//! module holds the distributions DP noise generation needs.

/// Low-level word source. Object-safe; implemented by the ChaCha RNGs and
/// by `&mut R` so generators can be passed down call chains.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Build from a full 256-bit seed.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Expand a `u64` into a full seed via SplitMix64 (the standard
    /// seed-expansion PRF; consecutive integer seeds give uncorrelated
    /// streams, which the per-run `seed + i` pattern in the Monte-Carlo
    /// code relies on).
    fn seed_from_u64(state: u64) -> Self {
        let mut s = state;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

/// Types samplable uniformly from the generator's "natural" range:
/// `[0, 1)` for floats, the full domain for integers.
pub trait UniformSample: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform bits -> [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl UniformSample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl UniformSample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl UniformSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

/// Uniform `u64` in `[0, span)` via Lemire's widening-multiply method with
/// rejection (exactly uniform, no modulo bias).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Ranges [`Rng::gen_range`] accepts (half-open and inclusive, integer and
/// float).
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_range_impl!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_impl {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = <$t as UniformSample>::sample(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$t as UniformSample>::sample(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

float_range_impl!(f32, f64);

/// High-level sampling methods, available on every [`RngCore`] through a
/// blanket impl.
pub trait Rng: RngCore {
    /// Uniform sample from the type's natural range (`[0, 1)` for floats).
    #[inline]
    fn gen<T: UniformSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from `range` (`lo..hi` or `lo..=hi`).
    #[inline]
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p}");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Random slice operations (Fisher–Yates shuffle, uniform choice).
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// In-place uniform shuffle.
    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    /// Uniformly chosen element (`None` on an empty slice).
    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_below(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_below(rng, self.len() as u64) as usize])
        }
    }
}

/// The one Gaussian and the one `Exp(1)` sampler: DP noise
/// (`privim_dp::mechanisms`) and the lognormal generator draw from here.
pub mod dist {
    use super::{RngCore, UniformSample};

    /// One standard normal draw via Box–Muller.
    pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u1 = f64::sample(rng);
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = f64::sample(rng);
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    /// `Exp(1)` draw via inverse CDF.
    pub fn exponential<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        let u = f64::sample(rng);
        -(1.0 - u).max(f64::MIN_POSITIVE).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::ChaCha8Rng;

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let a = rng.gen_range(3usize..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(-2.5f64..=2.5);
            assert!((-2.5..=2.5).contains(&c));
        }
    }

    #[test]
    fn gen_range_hits_every_bucket() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Chi-squared uniformity of `gen_range` over 16 buckets at n = 100k.
    /// df = 15; the 99.9% quantile is 37.7 — a seeded run far above that
    /// means the integer sampler is biased.
    #[test]
    fn gen_range_chi_squared_uniformity() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        const BUCKETS: usize = 16;
        const N: usize = 100_000;
        let mut counts = [0u64; BUCKETS];
        for _ in 0..N {
            counts[rng.gen_range(0usize..BUCKETS)] += 1;
        }
        let expected = N as f64 / BUCKETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 37.7, "chi-squared {chi2} over 99.9% bound");
    }

    /// Gaussian sampler moments at n = 100k: SE(mean) ≈ 0.0032,
    /// SE(var) ≈ 0.0045 — the 5σ tolerances below fail only on a broken
    /// sampler, not on an unlucky seed.
    #[test]
    fn gaussian_mean_and_variance_within_tolerance() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        const N: usize = 100_000;
        let xs: Vec<f64> = (0..N).map(|_| dist::standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.016, "mean {mean}");
        assert!((var - 1.0).abs() < 0.023, "var {var}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn exponential_has_unit_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let n = 100_000;
        let mean = (0..n).map(|_| dist::exponential(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_positions_are_roughly_uniform() {
        // element 0's final position averaged over many shuffles ~ (n-1)/2
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let n = 10usize;
        let trials = 20_000;
        let mut total = 0usize;
        for _ in 0..trials {
            let mut v: Vec<usize> = (0..n).collect();
            v.shuffle(&mut rng);
            total += v.iter().position(|&x| x == 0).unwrap();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 4.5).abs() < 0.1, "mean position {mean}");
    }

    #[test]
    fn choose_covers_all_and_handles_empty() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let v = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = v.choose(&mut rng).unwrap();
            seen[x / 10 - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn rng_works_through_mut_references() {
        fn take(rng: &mut impl Rng) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let a = take(&mut rng);
        let b = take(&mut &mut rng);
        assert_ne!(a, b);
    }
}

//! A small deterministic pseudo-random number generator for the document
//! generators.
//!
//! The synthetic-corpus code ([`crate::generate`]) only needs seeded,
//! reproducible draws — not cryptographic quality — so this avoids an
//! external `rand` dependency: the workspace builds offline. The core is
//! splitmix64 (Steele, Lea & Flood, OOPSLA 2014), which passes BigCrush
//! and is the usual choice for seeding/light-duty generation.

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Besides driving [`Rng`], it is the hash behind
/// [`NodeSet::memo_key`](crate::nodeset::NodeSet::memo_key) — the key
/// the batched query evaluator's axis-result memo table uses. Deterministic across platforms and processes.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 generator with the draw methods the generators use.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a 64-bit seed. Equal seeds yield equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// A uniform draw from a range (`lo..hi` or `lo..=hi`).
    ///
    /// Empty `lo..hi` ranges panic, matching `rand`'s contract; the modulo
    /// bias is negligible for the small ranges the generators use.
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        // 53 high bits give a uniform float in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// Range types [`Rng::random_range`] accepts.
pub trait SampleRange {
    /// The drawn value's type.
    type Output;
    /// Draw a value uniformly from `self`.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.next_u64() as usize) % (self.end - self.start)
    }
}

impl SampleRange for std::ops::RangeInclusive<usize> {
    type Output = usize;
    fn sample(self, rng: &mut Rng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + (rng.next_u64() as usize) % (hi - lo + 1)
    }
}

impl SampleRange for std::ops::Range<u32> {
    type Output = u32;
    fn sample(self, rng: &mut Rng) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (rng.next_u64() % u64::from(self.end - self.start)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.random_range(3usize..10);
            assert!((3..10).contains(&x));
            let y = rng.random_range(0usize..=4);
            assert!(y <= 4);
            let z = rng.random_range(0u32..200);
            assert!(z < 200);
        }
    }

    #[test]
    fn random_bool_respects_extremes() {
        let mut rng = Rng::seed_from_u64(1);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        // A fair coin lands on both sides in 200 flips.
        let heads = (0..200).filter(|_| rng.random_bool(0.5)).count();
        assert!(heads > 0 && heads < 200);
    }
}

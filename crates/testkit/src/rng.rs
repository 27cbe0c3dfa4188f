//! Deterministic pseudo-random number generation.
//!
//! Two tiny, well-studied generators:
//!
//! * [`SplitMix64`] — a one-u64-of-state mixer, used to expand a seed
//!   word into independent streams (and to seed [`Xoshiro256pp`]);
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman/Vigna), the workhorse
//!   generator behind every random draw in the test suites.
//!
//! Both are fully specified here so simulation results and property
//! tests are bit-reproducible on every platform, forever — no external
//! crate whose algorithm or default seeding could drift under us.

/// SplitMix64: Steele/Lea/Flood's 64-bit mixer. One addition plus two
/// xor-shift-multiply rounds per output; passes BigCrush when used as
/// a stream. Primarily a *seeder* here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0: 256 bits of state, period 2^256 − 1, passes all
/// known statistical batteries. Seeded through SplitMix64 so that any
/// u64 — including 0 — yields a well-mixed non-degenerate state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// The generator every test-suite draw goes through.
pub type Rng = Xoshiro256pp;

impl Xoshiro256pp {
    /// Seed via a SplitMix64 expansion of `seed` (the construction the
    /// xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. Uses Lemire's multiply-shift reduction
    /// with rejection, so the distribution is exactly uniform.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Rejection threshold: multiples of `bound` fitting in 2^64.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        if span == 0 {
            // Whole i64 domain.
            return self.next_u64() as i64;
        }
        (lo as i128 + self.below(span) as i128) as i64
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return self.next_u64();
        }
        lo + self.below(span)
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 random mantissa bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_f64() * (hi - lo)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniformly chosen reference into `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567 (published reference stream).
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Xoshiro256pp::seed_from_u64(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
        assert_eq!(v.len(), v.iter().collect::<std::collections::HashSet<_>>().len());
    }

    #[test]
    fn below_is_in_range_and_hits_all_residues() {
        let mut r = Rng::seed_from_u64(7);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(99);
        for _ in 0..200 {
            let x = r.range_i64(-12, -1);
            assert!((-12..=-1).contains(&x));
            let y = r.range_f64(-4.0, 4.0);
            assert!((-4.0..4.0).contains(&y));
            let z = r.range_usize(3, 3);
            assert_eq!(z, 3);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements left in place is astronomically unlikely");
    }
}

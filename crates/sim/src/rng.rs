//! Deterministic random number generation.
//!
//! A from-scratch xoshiro256** generator seeded via SplitMix64. The
//! implementation is self-contained so simulation results are bit-stable
//! regardless of external crate versions — important because
//! `crates/bench/repro.out` and nymbench's deterministic columns record
//! exact numbers.

/// SplitMix64 step, used for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// xoshiro256** pseudo-random generator.
///
/// # Examples
///
/// ```
/// use nymix_sim::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// Experiments fork one RNG per nym so that adding a nym does not
    /// perturb the random streams of existing nyms.
    pub fn fork(&mut self, label: u64) -> Rng {
        let a = self.next_u64();
        Rng::seed_from(a ^ label.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Snapshot of the generator's internal state (for suspending
    /// components that must resume with an identical stream).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Rng::state`] snapshot.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    // lint:allow(test-only-pub): store/tests/lzss_golden.rs draws its pinned corpus with it
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Debiased multiply-shift (Lemire).
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    // lint:allow(test-only-pub): store/tests/lzss_golden.rs draws its pinned corpus with it
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64 requires lo <= hi");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_independent_of_later_draws() {
        // Forking nym k's RNG must not change nym (k-1)'s stream.
        let mut root1 = Rng::seed_from(99);
        let mut child_a1 = root1.fork(0);
        let seq1: Vec<u64> = (0..10).map(|_| child_a1.next_u64()).collect();

        let mut root2 = Rng::seed_from(99);
        let mut child_a2 = root2.fork(0);
        let _child_b = root2.fork(1);
        let seq2: Vec<u64> = (0..10).map(|_| child_a2.next_u64()).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng::seed_from(3);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
        assert_eq!(r.range_u64(5, 5), 5);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = Rng::seed_from(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Rng::seed_from(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from(10);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}

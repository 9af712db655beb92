//! The benchmark's own random source. Every input — object placement, the
//! query stream, Poisson gaps — is drawn from a splitmix64 seeded by
//! `--seed`, so the program under test receives only generated inputs and
//! the same seed always replays the same run. Deliberately independent of
//! the repository's `rand` shim: a change there must not shift a workload.

/// Sebastiano Vigna's splitmix64.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`tag`), derived from the run
    /// seed: the query stream stays the same whether or not the object
    /// sampler drew one more value.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One exponential gap of a Poisson process with `rate` events/s, in
    /// seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Scheduled send offsets (ns from the window start) of a Poisson arrival
/// process at `rate` per second, covering `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut SplitMix64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp_gap(rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exp_gap(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed, tag| {
            let mut r = SplitMix64::stream(seed, tag);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(2008, 1), take(2008, 1));
        assert_ne!(take(2008, 1), take(2009, 1));
        assert_ne!(take(2008, 1), take(2008, 2));
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_sorted_and_near_rate() {
        let a = poisson_schedule(2000.0, 5.0, &mut SplitMix64::stream(2008, 3));
        let b = poisson_schedule(2000.0, 5.0, &mut SplitMix64::stream(2008, 3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 5_000_000_000);
        // 10 000 expected arrivals, standard deviation 100.
        assert!((9_500..=10_500).contains(&a.len()), "{} arrivals", a.len());
        let c = poisson_schedule(2000.0, 5.0, &mut SplitMix64::stream(2009, 3));
        assert_ne!(a, c);
    }
}

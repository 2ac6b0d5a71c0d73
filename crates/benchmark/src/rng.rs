//! The harness's own seeded generator, so request streams and arrival
//! schedules are a function of `--seed` and nothing else.

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)`: the streams of one run
    /// (arrivals, request ids, each client) must not repeat each other.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean: the gap between Poisson arrivals.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_equal_seeds_only() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(8, 1), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::new(1, 0);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let e = r.exponential(2.0);
            assert!(e >= 0.0 && e.is_finite());
            sum += e;
        }
        assert!((sum / 10_000.0 - 2.0).abs() < 0.1);
    }
}

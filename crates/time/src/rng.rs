//! Deterministic random-number utilities for the simulator.
//!
//! Every stochastic element of the model (clock jitter, PLL lock times,
//! workload generation) draws from a [`SimRng`] seeded from the experiment
//! configuration, so that any run is exactly reproducible.
//!
//! The generator is a self-contained xoshiro256++ — clonable (clocks and
//! controllers need `Clone`), fast, and stable across toolchain upgrades,
//! which keeps recorded experiment results reproducible.

/// A seeded random source with the distributions the simulator needs.
///
/// Provides uniform, Bernoulli, and Gaussian (Marsaglia polar) sampling.
///
/// # Example
///
/// ```
/// use mcd_time::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    cached_gaussian: Option<f64>,
}

/// The complete state of a [`SimRng`]: its four state words plus the bits
/// of a cached second Gaussian, if any. Equal keys generate equal streams.
pub(crate) type StreamKey = ([u64; 4], Option<u64>);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
            cached_gaussian: None,
        }
    }

    /// The generator's complete state, as a registry key.
    pub(crate) fn stream_key(&self) -> StreamKey {
        (self.state, self.cached_gaussian.map(f64::to_bits))
    }

    /// Derives an independent stream for a named sub-component.
    ///
    /// Mixing the label into a fresh draw keeps component streams
    /// decorrelated even though they descend from one experiment seed.
    pub fn derive(&self, label: u64) -> SimRng {
        let mut probe = self.clone();
        let mut s = probe
            .next_u64()
            .wrapping_add(label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SimRng::seed_from_u64(splitmix64(&mut s))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire-style rejection-free-enough multiply-shift; bias is
        // negligible for the ranges the simulator uses (< 2^53).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal variate (mean 0, σ 1), Marsaglia polar method.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(v) = self.cached_gaussian.take() {
            return v;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.cached_gaussian = Some(v * m);
                return u * m;
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Geometric-ish draw: number of failures before a success with
    /// probability `p`, capped at `cap`. Used for dependence distances.
    pub fn geometric_capped(&mut self, p: f64, cap: u64) -> u64 {
        let p = p.clamp(1e-9, 1.0);
        let mut n = 0;
        while n < cap && !self.chance(p) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = SimRng::seed_from_u64(8);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_produces_distinct_streams() {
        let root = SimRng::seed_from_u64(1);
        let mut x = root.derive(1);
        let mut y = root.derive(2);
        let same = (0..32).filter(|_| x.next_u64() == y.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::seed_from_u64(12);
        let n = 50_000;
        let mean = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SimRng::seed_from_u64(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = SimRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn geometric_capped_is_capped() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..200 {
            assert!(r.geometric_capped(0.01, 5) <= 5);
        }
    }
}

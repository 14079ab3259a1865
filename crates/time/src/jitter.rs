//! Cycle-to-cycle clock jitter.
//!
//! The paper models each domain clock's jitter as a normal distribution with
//! zero mean and a 110 ps standard deviation — 100 ps from the external PLL
//! (a survey of available ICs) plus 10 ps from the internal PLL, assuming a
//! 1 GHz on-chip clock generated from a common external 100 MHz source.

use serde::{Deserialize, Serialize};

use crate::tape::NormalSource;

/// Parameters of the per-cycle jitter distribution.
///
/// # Example
///
/// ```
/// use mcd_time::JitterModel;
///
/// let paper = JitterModel::paper();
/// assert_eq!(paper.std_dev_femtos(), 110_000.0);
/// assert!(JitterModel::disabled().std_dev_femtos() == 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterModel {
    /// Standard deviation of the external PLL jitter, in femtoseconds.
    external_fs: f64,
    /// Standard deviation of the internal PLL jitter, in femtoseconds.
    internal_fs: f64,
}

impl JitterModel {
    /// The paper's model: 100 ps external + 10 ps internal.
    pub fn paper() -> Self {
        JitterModel {
            external_fs: 100_000.0,
            internal_fs: 10_000.0,
        }
    }

    /// No jitter — useful for deterministic unit tests and ablations.
    pub fn disabled() -> Self {
        JitterModel {
            external_fs: 0.0,
            internal_fs: 0.0,
        }
    }

    /// A custom model from explicit standard deviations (in femtoseconds).
    ///
    /// # Panics
    ///
    /// Panics if either deviation is negative or non-finite.
    pub fn new(external_fs: f64, internal_fs: f64) -> Self {
        assert!(
            external_fs.is_finite() && external_fs >= 0.0,
            "invalid external jitter: {external_fs}"
        );
        assert!(
            internal_fs.is_finite() && internal_fs >= 0.0,
            "invalid internal jitter: {internal_fs}"
        );
        JitterModel {
            external_fs,
            internal_fs,
        }
    }

    /// Combined standard deviation in femtoseconds.
    ///
    /// The paper simply sums the two contributions (110 ps total), so we do
    /// the same rather than combining in quadrature.
    pub fn std_dev_femtos(&self) -> f64 {
        self.external_fs + self.internal_fs
    }

    /// Whether jitter is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.std_dev_femtos() > 0.0
    }

    /// Samples one cycle's jitter in femtoseconds (signed).
    ///
    /// Samples are clamped to ±3σ, and the caller additionally bounds them to
    /// less than half the current period so edges stay strictly ordered.
    pub fn sample<R: NormalSource + ?Sized>(&self, rng: &mut R) -> f64 {
        let sd = self.std_dev_femtos();
        if sd == 0.0 {
            return 0.0;
        }
        rng.normal(0.0, sd).clamp(-3.0 * sd, 3.0 * sd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn paper_model_is_110ps() {
        assert_eq!(JitterModel::paper().std_dev_femtos(), 110_000.0);
        assert!(JitterModel::paper().is_enabled());
    }

    #[test]
    fn disabled_model_samples_zero() {
        let mut rng = SimRng::seed_from_u64(1);
        let j = JitterModel::disabled();
        for _ in 0..10 {
            assert_eq!(j.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn samples_are_clamped_to_three_sigma() {
        let mut rng = SimRng::seed_from_u64(2);
        let j = JitterModel::paper();
        let sd = j.std_dev_femtos();
        for _ in 0..10_000 {
            let s = j.sample(&mut rng);
            assert!(s.abs() <= 3.0 * sd + 1e-9);
        }
    }

    #[test]
    fn sample_std_dev_matches_model() {
        let mut rng = SimRng::seed_from_u64(3);
        let j = JitterModel::paper();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| j.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        assert!((sd - 110_000.0).abs() / 110_000.0 < 0.05, "sd {sd}");
    }

    #[test]
    #[should_panic(expected = "invalid external jitter")]
    fn negative_jitter_rejected() {
        let _ = JitterModel::new(-1.0, 0.0);
    }
}

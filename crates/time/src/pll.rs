//! Phase-locked-loop re-lock model.
//!
//! Under the Transmeta scaling model, every frequency change requires the
//! domain PLL to re-lock; until it does, the domain is idle. The paper models
//! the lock time as normally distributed with a 15 µs mean and a 10–20 µs
//! range.

use serde::{Deserialize, Serialize};

use crate::femtos::Femtos;
use crate::tape::NormalSource;

/// A normally distributed, range-clamped PLL lock-time model.
///
/// # Example
///
/// ```
/// use mcd_time::{PllModel, SimRng};
///
/// let pll = PllModel::paper();
/// let mut rng = SimRng::seed_from_u64(1);
/// let t = pll.sample_lock_time(&mut rng);
/// assert!(t >= pll.min() && t <= pll.max());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PllModel {
    mean: Femtos,
    min: Femtos,
    max: Femtos,
}

impl PllModel {
    /// The paper's model: mean 15 µs, range 10–20 µs.
    pub fn paper() -> Self {
        PllModel {
            mean: Femtos::from_micros(15),
            min: Femtos::from_micros(10),
            max: Femtos::from_micros(20),
        }
    }

    /// A custom lock-time model.
    ///
    /// # Panics
    ///
    /// Panics unless `min ≤ mean ≤ max`.
    pub fn new(mean: Femtos, min: Femtos, max: Femtos) -> Self {
        assert!(min <= mean && mean <= max, "need min <= mean <= max");
        PllModel { mean, min, max }
    }

    /// Mean lock time.
    pub fn mean(&self) -> Femtos {
        self.mean
    }

    /// Minimum lock time.
    pub fn min(&self) -> Femtos {
        self.min
    }

    /// Maximum lock time.
    pub fn max(&self) -> Femtos {
        self.max
    }

    /// Draws one lock duration.
    ///
    /// The distribution is normal with σ chosen so that ±3σ covers the
    /// min–max range, then clamped to that range (matching the paper's
    /// "mean time of 15 µs and a range of 10–20 µs").
    pub fn sample_lock_time<R: NormalSource + ?Sized>(&self, rng: &mut R) -> Femtos {
        let half_range = (self.max.as_femtos() - self.min.as_femtos()) as f64 / 2.0;
        let sd = half_range / 3.0;
        let t = rng.normal(self.mean.as_femtos() as f64, sd);
        let clamped = t.clamp(self.min.as_femtos() as f64, self.max.as_femtos() as f64);
        Femtos::from_femtos(clamped.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn paper_parameters() {
        let p = PllModel::paper();
        assert_eq!(p.mean(), Femtos::from_micros(15));
        assert_eq!(p.min(), Femtos::from_micros(10));
        assert_eq!(p.max(), Femtos::from_micros(20));
    }

    #[test]
    fn samples_stay_in_range_with_plausible_mean() {
        let p = PllModel::paper();
        let mut rng = SimRng::seed_from_u64(17);
        let n = 5_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = p.sample_lock_time(&mut rng);
            assert!(t >= p.min() && t <= p.max());
            sum += t.as_micros_f64();
        }
        let mean = sum / n as f64;
        assert!((mean - 15.0).abs() < 0.3, "mean {mean} us");
    }

    #[test]
    #[should_panic(expected = "need min <= mean <= max")]
    fn inverted_range_rejected() {
        let _ = PllModel::new(
            Femtos::from_micros(5),
            Femtos::from_micros(10),
            Femtos::from_micros(20),
        );
    }
}

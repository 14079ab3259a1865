//! Dynamic voltage and frequency scaling transition engines.
//!
//! Two industrial models, both from the paper:
//!
//! * **XScale**: the supply ramps in 320 small steps across the full voltage
//!   range, 0.1718 µs per step (≈ 55 µs full traversal). Frequency tracks
//!   voltage continuously and the domain *executes through* the change —
//!   there is no idle penalty.
//! * **Transmeta (LongRun)**: the supply ramps in 32 coarse steps, 20 µs per
//!   step (640 µs full traversal). Every frequency change requires the
//!   domain PLL to re-lock (normal, mean 15 µs, 10–20 µs range) during which
//!   the domain is completely idle.
//!
//! For both models, when scaling *down* the frequency may change immediately
//! (the old voltage over-supports the new frequency), while when scaling
//! *up* the voltage must arrive first.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::femtos::Femtos;
use crate::freq::{Frequency, Voltage};
use crate::pll::PllModel;
use crate::tape::NormalSource;
use crate::vf::{FrequencyGrid, OperatingPoint, VfTable};

/// Which DVFS transition model a domain uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DvfsModel {
    /// XScale-like: fine-grained ramp, executes through changes.
    XScale,
    /// Transmeta LongRun-like: coarse ramp, PLL re-lock idles the domain.
    Transmeta,
}

impl DvfsModel {
    /// Number of voltage steps across the full operating range.
    pub fn voltage_steps(&self) -> usize {
        match self {
            DvfsModel::XScale => 320,
            DvfsModel::Transmeta => 32,
        }
    }

    /// Wall-clock time per voltage step.
    pub fn step_time(&self) -> Femtos {
        match self {
            // 0.1718 µs.
            DvfsModel::XScale => Femtos::from_femtos(171_800_000),
            DvfsModel::Transmeta => Femtos::from_micros(20),
        }
    }

    /// Number of frequency points the off-line tool may choose from.
    pub fn frequency_points(&self) -> usize {
        match self {
            DvfsModel::XScale => 320,
            DvfsModel::Transmeta => 32,
        }
    }

    /// The target-selection grid for this model over `table`.
    pub fn grid(&self, table: VfTable) -> FrequencyGrid {
        FrequencyGrid::new(table, self.frequency_points())
    }

    /// Time to traverse the entire voltage range (55 µs XScale / 640 µs
    /// Transmeta in the paper).
    pub fn full_range_traversal(&self) -> Femtos {
        self.step_time() * self.voltage_steps() as u64
    }

    /// The voltage moved per step over `table`'s range.
    pub fn volts_per_step(&self, table: &VfTable) -> f64 {
        (table.v_max().as_volts() - table.v_min().as_volts()) / self.voltage_steps() as f64
    }

    /// Number of discrete steps needed to move the supply from `from` to `to`.
    pub fn steps_between(&self, table: &VfTable, from: Voltage, to: Voltage) -> usize {
        let dv = (to.as_volts() - from.as_volts()).abs();
        let per = self.volts_per_step(table);
        (dv / per).ceil() as usize
    }

    /// Estimated ramp duration between two frequencies (voltage slew only,
    /// excluding any PLL re-lock).
    pub fn ramp_time(&self, table: &VfTable, from: Frequency, to: Frequency) -> Femtos {
        let steps = self.steps_between(table, table.voltage_for(from), table.voltage_for(to));
        self.step_time() * steps as u64
    }

    /// Mean idle time a frequency change imposes (zero for XScale).
    pub fn relock_idle_mean(&self, pll: &PllModel) -> Femtos {
        match self {
            DvfsModel::XScale => Femtos::ZERO,
            DvfsModel::Transmeta => pll.mean(),
        }
    }

    /// Estimated total latency from issuing a request to running at the
    /// target frequency (mean-case), used by the off-line clustering phase to
    /// decide whether a reconfiguration fits in an interval.
    pub fn transition_latency_mean(
        &self,
        table: &VfTable,
        pll: &PllModel,
        from: Frequency,
        to: Frequency,
    ) -> Femtos {
        match self {
            DvfsModel::XScale => self.ramp_time(table, from, to),
            DvfsModel::Transmeta => {
                if to > from {
                    // Ramp up first, then re-lock.
                    self.ramp_time(table, from, to) + pll.mean()
                } else {
                    // Re-lock first (frequency drops immediately after),
                    // voltage trails behind with no performance effect.
                    pll.mean()
                }
            }
        }
    }
}

/// One scheduled micro-step of an in-flight transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VfSegment {
    /// When this step takes effect.
    pub at: Femtos,
    /// Operating point from `at` onwards.
    pub point: OperatingPoint,
    /// If set, the domain is idle (no clock edges) from `at` until this time.
    pub idle_until: Option<Femtos>,
}

/// Summary of a requested transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionPlan {
    /// When the request was issued.
    pub requested_at: Femtos,
    /// When the domain is running at the target frequency and voltage.
    pub settled_at: Femtos,
    /// Total idle time imposed (PLL re-lock; zero for XScale).
    pub idle: Femtos,
    /// Number of voltage micro-steps in the plan.
    pub steps: usize,
}

/// Per-domain voltage/frequency controller.
///
/// Owns the operating point of one clock domain and turns frequency requests
/// into timed micro-step plans according to the configured [`DvfsModel`].
/// The domain clock polls [`VoltageController::advance_to`] at each edge to
/// pick up steps that have come due.
///
/// # Example
///
/// ```
/// use mcd_time::{DvfsModel, Femtos, Frequency, PllModel, SimRng, VfTable, VoltageController};
///
/// let mut ctl = VoltageController::new(DvfsModel::XScale, VfTable::paper(), PllModel::paper(), Frequency::GHZ);
/// let mut rng = SimRng::seed_from_u64(1);
/// let plan = ctl.request(Femtos::ZERO, Frequency::from_mhz(500), &mut rng);
/// assert_eq!(plan.idle, Femtos::ZERO); // XScale executes through
/// assert!(plan.settled_at > Femtos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct VoltageController {
    model: DvfsModel,
    table: VfTable,
    pll: PllModel,
    current: OperatingPoint,
    plan: VecDeque<VfSegment>,
    total_idle: Femtos,
    transitions: u64,
}

impl VoltageController {
    /// Creates a controller starting at `initial` frequency (voltage from the
    /// table).
    pub fn new(model: DvfsModel, table: VfTable, pll: PllModel, initial: Frequency) -> Self {
        VoltageController {
            model,
            table,
            pll,
            current: table.point_for(initial),
            plan: VecDeque::new(),
            total_idle: Femtos::ZERO,
            transitions: 0,
        }
    }

    /// The transition model in use.
    pub fn model(&self) -> DvfsModel {
        self.model
    }

    /// The operating region.
    pub fn table(&self) -> &VfTable {
        &self.table
    }

    /// Current operating point (as of the last `advance_to`).
    pub fn current(&self) -> OperatingPoint {
        self.current
    }

    /// Whether a transition is still in flight.
    pub fn in_transition(&self) -> bool {
        !self.plan.is_empty()
    }

    /// Total idle time imposed by re-locks so far.
    pub fn total_idle(&self) -> Femtos {
        self.total_idle
    }

    /// Number of `request` calls that produced a non-empty plan.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Applies all plan steps due at or before `now`. Returns the end of any
    /// idle window that extends beyond `now` (the clock must not produce
    /// edges before it).
    pub fn advance_to(&mut self, now: Femtos) -> Option<Femtos> {
        let mut idle_beyond = None;
        while let Some(step) = self.plan.front() {
            if step.at > now {
                break;
            }
            let step = self.plan.pop_front().expect("front exists");
            self.current = step.point;
            if let Some(until) = step.idle_until {
                self.total_idle += until.saturating_sub(step.at);
                if until > now {
                    idle_beyond = Some(until);
                }
            }
        }
        idle_beyond
    }

    /// Requests a transition to `target`, starting at `now`.
    ///
    /// Any in-flight plan is first advanced to `now`; its remaining steps are
    /// discarded and the new plan starts from the instantaneous operating
    /// point. Requests for the current frequency produce an empty plan.
    pub fn request<R: NormalSource + ?Sized>(
        &mut self,
        now: Femtos,
        target: Frequency,
        rng: &mut R,
    ) -> TransitionPlan {
        self.advance_to(now);
        self.plan.clear();
        let from = self.current;
        let to = self.table.point_for(target);
        if to.frequency == from.frequency {
            return TransitionPlan {
                requested_at: now,
                settled_at: now,
                idle: Femtos::ZERO,
                steps: 0,
            };
        }
        self.transitions += 1;
        match self.model {
            DvfsModel::XScale => self.plan_xscale(now, from, to),
            DvfsModel::Transmeta => self.plan_transmeta(now, from, to, rng),
        }
    }

    fn plan_xscale(
        &mut self,
        now: Femtos,
        from: OperatingPoint,
        to: OperatingPoint,
    ) -> TransitionPlan {
        let steps = self
            .model
            .steps_between(&self.table, from.voltage, to.voltage)
            .max(1);
        let step_time = self.model.step_time();
        let f0 = from.frequency.as_hz() as f64;
        let f1 = to.frequency.as_hz() as f64;
        let v0 = from.voltage.as_volts();
        let v1 = to.voltage.as_volts();
        for k in 1..=steps {
            let t = k as f64 / steps as f64;
            let point = OperatingPoint {
                frequency: Frequency::from_hz((f0 + (f1 - f0) * t).round() as u64),
                voltage: Voltage::from_volts(v0 + (v1 - v0) * t),
            };
            self.plan.push_back(VfSegment {
                at: now + step_time * k as u64,
                point,
                idle_until: None,
            });
        }
        TransitionPlan {
            requested_at: now,
            settled_at: now + step_time * steps as u64,
            idle: Femtos::ZERO,
            steps,
        }
    }

    fn plan_transmeta<R: NormalSource + ?Sized>(
        &mut self,
        now: Femtos,
        from: OperatingPoint,
        to: OperatingPoint,
        rng: &mut R,
    ) -> TransitionPlan {
        let step_time = self.model.step_time();
        let steps = self
            .model
            .steps_between(&self.table, from.voltage, to.voltage);
        let lock = self.pll.sample_lock_time(rng);
        if to.frequency < from.frequency {
            // Down: re-lock immediately (idle), run at the lower frequency,
            // then trail the voltage down with no performance effect.
            self.plan.push_back(VfSegment {
                at: now,
                point: OperatingPoint {
                    frequency: to.frequency,
                    voltage: from.voltage,
                },
                idle_until: Some(now + lock),
            });
            let ramp_start = now + lock;
            let v0 = from.voltage.as_volts();
            let v1 = to.voltage.as_volts();
            for k in 1..=steps {
                let t = k as f64 / steps.max(1) as f64;
                self.plan.push_back(VfSegment {
                    at: ramp_start + step_time * k as u64,
                    point: OperatingPoint {
                        frequency: to.frequency,
                        voltage: Voltage::from_volts(v0 + (v1 - v0) * t),
                    },
                    idle_until: None,
                });
            }
            TransitionPlan {
                requested_at: now,
                settled_at: ramp_start + step_time * steps as u64,
                idle: lock,
                steps: steps + 1,
            }
        } else {
            // Up: raise the voltage first (still executing at the old
            // frequency), then re-lock to the new frequency.
            let v0 = from.voltage.as_volts();
            let v1 = to.voltage.as_volts();
            for k in 1..=steps {
                let t = k as f64 / steps.max(1) as f64;
                self.plan.push_back(VfSegment {
                    at: now + step_time * k as u64,
                    point: OperatingPoint {
                        frequency: from.frequency,
                        voltage: Voltage::from_volts(v0 + (v1 - v0) * t),
                    },
                    idle_until: None,
                });
            }
            let ramp_end = now + step_time * steps as u64;
            self.plan.push_back(VfSegment {
                at: ramp_end,
                point: to,
                idle_until: Some(ramp_end + lock),
            });
            TransitionPlan {
                requested_at: now,
                settled_at: ramp_end + lock,
                idle: lock,
                steps: steps + 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn ctl(model: DvfsModel) -> VoltageController {
        VoltageController::new(model, VfTable::paper(), PllModel::paper(), Frequency::GHZ)
    }

    #[test]
    fn paper_full_range_traversal_times() {
        // 320 × 0.1718 µs ≈ 55 µs; 32 × 20 µs = 640 µs.
        let xs = DvfsModel::XScale.full_range_traversal();
        assert!((xs.as_micros_f64() - 54.976).abs() < 0.01, "{xs}");
        let tm = DvfsModel::Transmeta.full_range_traversal();
        assert_eq!(tm, Femtos::from_micros(640));
    }

    #[test]
    fn xscale_executes_through_with_no_idle() {
        let mut c = ctl(DvfsModel::XScale);
        let mut rng = SimRng::seed_from_u64(1);
        let plan = c.request(Femtos::ZERO, Frequency::MIN_SCALED, &mut rng);
        assert_eq!(plan.idle, Femtos::ZERO);
        assert_eq!(plan.steps, 320); // full range
        assert!((plan.settled_at.as_micros_f64() - 54.976).abs() < 0.01);
    }

    #[test]
    fn xscale_frequency_slews_gradually() {
        let mut c = ctl(DvfsModel::XScale);
        let mut rng = SimRng::seed_from_u64(1);
        let plan = c.request(Femtos::ZERO, Frequency::from_mhz(500), &mut rng);
        // Halfway through the ramp the frequency should be ~750 MHz.
        let mid = Femtos::from_femtos(plan.settled_at.as_femtos() / 2);
        c.advance_to(mid);
        let f = c.current().frequency.as_mhz_f64();
        assert!((f - 750.0).abs() < 30.0, "mid-ramp frequency {f} MHz");
        c.advance_to(plan.settled_at);
        assert_eq!(c.current().frequency, Frequency::from_mhz(500));
        assert!(!c.in_transition());
    }

    #[test]
    fn transmeta_down_is_immediate_frequency_after_relock() {
        let mut c = ctl(DvfsModel::Transmeta);
        let mut rng = SimRng::seed_from_u64(2);
        let plan = c.request(Femtos::ZERO, Frequency::from_mhz(500), &mut rng);
        assert!(plan.idle >= Femtos::from_micros(10) && plan.idle <= Femtos::from_micros(20));
        // Immediately after the re-lock the frequency is already 500 MHz but
        // the voltage is still high.
        let idle_end = c.advance_to(Femtos::ZERO);
        assert_eq!(idle_end, Some(plan.idle));
        assert_eq!(c.current().frequency, Frequency::from_mhz(500));
        assert!((c.current().voltage.as_volts() - 1.2).abs() < 1e-9);
        // After the full plan the voltage has trailed down.
        c.advance_to(plan.settled_at);
        let expect = VfTable::paper().voltage_for(Frequency::from_mhz(500));
        assert!((c.current().voltage.as_volts() - expect.as_volts()).abs() < 1e-6);
    }

    #[test]
    fn transmeta_up_raises_voltage_before_frequency() {
        let mut c = ctl(DvfsModel::Transmeta);
        let mut rng = SimRng::seed_from_u64(3);
        c.request(Femtos::ZERO, Frequency::from_mhz(500), &mut rng);
        let settle = c.request(Femtos::from_millis(2), Frequency::GHZ, &mut rng);
        // Mid-ramp: frequency still 500 MHz, voltage rising.
        let mid = Femtos::from_millis(2) + Femtos::from_micros(100);
        c.advance_to(mid);
        assert_eq!(c.current().frequency, Frequency::from_mhz(500));
        assert!(c.current().voltage.as_volts() > 0.9);
        c.advance_to(settle.settled_at);
        assert_eq!(c.current().frequency, Frequency::GHZ);
    }

    #[test]
    fn request_same_frequency_is_noop() {
        let mut c = ctl(DvfsModel::XScale);
        let mut rng = SimRng::seed_from_u64(4);
        let plan = c.request(Femtos::ZERO, Frequency::GHZ, &mut rng);
        assert_eq!(plan.steps, 0);
        assert_eq!(plan.settled_at, Femtos::ZERO);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn new_request_supersedes_in_flight_plan() {
        let mut c = ctl(DvfsModel::XScale);
        let mut rng = SimRng::seed_from_u64(5);
        c.request(Femtos::ZERO, Frequency::MIN_SCALED, &mut rng);
        // Re-target halfway through; the plan restarts from the mid point.
        let mid = Femtos::from_micros(27);
        let plan = c.request(mid, Frequency::GHZ, &mut rng);
        assert!(plan.settled_at > mid);
        c.advance_to(plan.settled_at);
        assert_eq!(c.current().frequency, Frequency::GHZ);
        assert!((c.current().voltage.as_volts() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn transition_latency_mean_estimates() {
        let table = VfTable::paper();
        let pll = PllModel::paper();
        // Transmeta down: only the re-lock matters.
        let down = DvfsModel::Transmeta.transition_latency_mean(
            &table,
            &pll,
            Frequency::GHZ,
            Frequency::MIN_SCALED,
        );
        assert_eq!(down, Femtos::from_micros(15));
        // Transmeta up: full ramp + re-lock.
        let up = DvfsModel::Transmeta.transition_latency_mean(
            &table,
            &pll,
            Frequency::MIN_SCALED,
            Frequency::GHZ,
        );
        assert_eq!(up, Femtos::from_micros(640 + 15));
    }
}

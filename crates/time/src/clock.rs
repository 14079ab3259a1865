//! Per-domain clock edge generation.
//!
//! Each clock domain owns a [`DomainClock`] that produces a strictly
//! increasing stream of rising-edge times. Edges advance by the current
//! period plus a per-cycle jitter sample, exactly as §3.1 of the paper
//! describes ("the domain cycle time is added to the starting time, and the
//! jitter for that cycle … is added to this sum"). Clock phases are
//! randomized at start-up.
//!
//! A clock may optionally be driven by a [`VoltageController`]; pending DVFS
//! micro-steps are applied as their times come due, and PLL re-lock windows
//! suppress edges entirely (the domain is idle).
//!
//! After the phase draw, every random number a clock consumes is a standard
//! normal (jitter and PLL lock times), read from the process-wide tape of
//! its generator state ([`tape`](crate::tape)) unless the clock was
//! switched to a private generator with [`DomainClock::use_private_stream`].

use crate::dvfs::VoltageController;
use crate::femtos::Femtos;
use crate::freq::{Frequency, Voltage};
use crate::jitter::JitterModel;
use crate::rng::SimRng;
use crate::tape::NormalStream;
use crate::vf::VfTable;

/// A single rising clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockEvent {
    /// Absolute time of the edge.
    pub time: Femtos,
    /// Zero-based index of this edge since the clock started.
    pub cycle: u64,
}

/// A jittery, optionally DVFS-scaled clock for one domain.
///
/// # Example
///
/// ```
/// use mcd_time::{DomainClock, Frequency, JitterModel};
///
/// let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 42);
/// let e1 = clk.next_edge();
/// let e2 = clk.next_edge();
/// assert_eq!((e2 - e1).as_femtos(), 1_000_000);
/// assert_eq!(clk.cycles(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DomainClock {
    jitter: JitterModel,
    normals: NormalStream,
    controller: Option<VoltageController>,
    frequency: Frequency,
    voltage: Voltage,
    last_edge: Femtos,
    cycles: u64,
    v2_cycle_sum: f64,
    idle_total: Femtos,
    /// The most recent PLL re-lock window, kept until an observer takes it
    /// (see [`DomainClock::take_relock`]). Purely observational: never read
    /// by the edge generator itself.
    last_relock: Option<(Femtos, Femtos)>,
    // Derived from `frequency`, cached so the per-edge path avoids a divide;
    // refreshed on every frequency assignment (same operands, so the cached
    // values are bit-identical to recomputing them each edge).
    period_f: f64,
    max_jitter: f64,
}

impl DomainClock {
    /// Creates a fixed-frequency clock at nominal voltage (1.2 V).
    ///
    /// The first edge lands at a random phase within the first period, per
    /// the paper's randomized clock start times.
    pub fn new(frequency: Frequency, jitter: JitterModel, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let phase = rng.below(frequency.period().as_femtos().max(1));
        let period_f = frequency.period_femtos_f64();
        DomainClock {
            jitter,
            normals: NormalStream::shared(rng),
            controller: None,
            frequency,
            voltage: Voltage::NOMINAL,
            last_edge: Femtos::from_femtos(phase),
            cycles: 0,
            v2_cycle_sum: 0.0,
            idle_total: Femtos::ZERO,
            last_relock: None,
            period_f,
            max_jitter: period_f * 0.45,
        }
    }

    /// Creates a DVFS-capable clock driven by `controller`.
    pub fn with_controller(controller: VoltageController, jitter: JitterModel, seed: u64) -> Self {
        let point = controller.current();
        let mut clk = DomainClock::new(point.frequency, jitter, seed);
        clk.voltage = point.voltage;
        clk.controller = Some(controller);
        clk
    }

    /// Creates a clock whose voltage is looked up from `table` (fixed
    /// frequency, no controller).
    pub fn fixed_point(
        frequency: Frequency,
        table: &VfTable,
        jitter: JitterModel,
        seed: u64,
    ) -> Self {
        let mut clk = DomainClock::new(frequency, jitter, seed);
        clk.voltage = table.voltage_for(frequency);
        clk
    }

    /// Current clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Current supply voltage.
    pub fn voltage(&self) -> Voltage {
        self.voltage
    }

    /// Current period.
    pub fn period(&self) -> Femtos {
        self.frequency.period()
    }

    /// Time of the most recently produced edge.
    pub fn last_edge(&self) -> Femtos {
        self.last_edge
    }

    /// Number of edges produced so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Σ over produced edges of the instantaneous `V²` (volts²·cycles);
    /// multiplied by an effective clock-tree capacitance this is the
    /// clock-distribution energy of the domain.
    pub fn v2_cycle_sum(&self) -> f64 {
        self.v2_cycle_sum
    }

    /// Total time this clock spent idle in PLL re-lock windows.
    pub fn idle_total(&self) -> Femtos {
        self.idle_total
    }

    /// Takes the `(start, end)` of the most recent PLL re-lock window, if
    /// one occurred since the last call. Trace observers poll this after
    /// each edge; when nobody polls, the slot is simply overwritten by the
    /// next re-lock.
    pub fn take_relock(&mut self) -> Option<(Femtos, Femtos)> {
        self.last_relock.take()
    }

    /// Computes this clock's remaining random draws with a private
    /// generator instead of reading them from the process-wide tape. The
    /// draws themselves are unchanged; the reference interpreter uses this
    /// so it stays an independent oracle for the tape.
    pub fn use_private_stream(&mut self) {
        self.normals.detach();
    }

    /// The DVFS controller, if this clock is scalable.
    pub fn controller(&self) -> Option<&VoltageController> {
        self.controller.as_ref()
    }

    /// Requests a frequency change effective from time `now`.
    ///
    /// Returns `false` (and does nothing) for fixed-frequency clocks.
    pub fn request_frequency(&mut self, now: Femtos, target: Frequency) -> bool {
        // Split borrows: pull the controller out while planning.
        let Some(mut ctl) = self.controller.take() else {
            return false;
        };
        ctl.request(now, target, &mut self.normals);
        self.controller = Some(ctl);
        true
    }

    /// Produces the next rising edge, applying any due DVFS steps and
    /// skipping PLL re-lock idle windows.
    pub fn next_edge(&mut self) -> Femtos {
        // Apply controller steps that came due at or before the last edge.
        // (Borrowed in place: this runs once per simulated clock edge, so it
        // must not shuffle the controller through an `Option` round-trip.)
        if let Some(ctl) = self.controller.as_mut() {
            if let Some(idle_until) = ctl.advance_to(self.last_edge) {
                self.idle_total += idle_until - self.last_edge;
                self.last_relock = Some((self.last_edge, idle_until));
                self.last_edge = idle_until;
                ctl.advance_to(self.last_edge);
            }
            let point = ctl.current();
            if point.frequency != self.frequency {
                self.frequency = point.frequency;
                self.period_f = point.frequency.period_femtos_f64();
                self.max_jitter = self.period_f * 0.45;
            }
            self.voltage = point.voltage;
        }
        let j = self
            .jitter
            .sample(&mut self.normals)
            .clamp(-self.max_jitter, self.max_jitter);
        let advance = (self.period_f + j).max(1.0).round() as u64;
        self.last_edge += Femtos::from_femtos(advance);
        self.cycles += 1;
        let v = self.voltage.as_volts();
        self.v2_cycle_sum += v * v;
        self.last_edge
    }

    /// Produces the next edge together with its cycle index.
    pub fn next_event(&mut self) -> ClockEvent {
        let time = self.next_edge();
        ClockEvent {
            time,
            cycle: self.cycles - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsModel;
    use crate::pll::PllModel;

    #[test]
    fn edges_are_strictly_increasing() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 7);
        let mut prev = Femtos::ZERO;
        for _ in 0..10_000 {
            let e = clk.next_edge();
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn jitterless_clock_is_periodic() {
        let mut clk = DomainClock::new(Frequency::from_mhz(500), JitterModel::disabled(), 1);
        let e1 = clk.next_edge();
        for i in 2..100u64 {
            let e = clk.next_edge();
            assert_eq!((e - e1).as_femtos(), (i - 1) * 2_000_000);
        }
    }

    #[test]
    fn mean_period_matches_frequency_under_jitter() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::paper(), 99);
        let first = clk.next_edge();
        let n = 100_000u64;
        let mut last = first;
        for _ in 0..n {
            last = clk.next_edge();
        }
        let mean_period = (last - first).as_femtos() as f64 / n as f64;
        assert!(
            (mean_period - 1_000_000.0).abs() < 2_000.0,
            "mean {mean_period}"
        );
    }

    #[test]
    fn phase_randomization_differs_by_seed() {
        let mut a = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 1);
        let mut b = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 2);
        assert_ne!(a.next_edge(), b.next_edge());
    }

    #[test]
    fn v2_sum_tracks_voltage() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 3);
        for _ in 0..10 {
            clk.next_edge();
        }
        assert!((clk.v2_cycle_sum() - 10.0 * 1.2 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn dvfs_clock_slows_down_after_request() {
        let ctl = VoltageController::new(
            DvfsModel::XScale,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::disabled(), 5);
        let start = clk.next_edge();
        clk.request_frequency(start, Frequency::MIN_SCALED);
        // Run well past the ~55 µs ramp.
        let mut e = start;
        while e < start + Femtos::from_micros(100) {
            e = clk.next_edge();
        }
        assert_eq!(clk.frequency(), Frequency::MIN_SCALED);
        assert!((clk.voltage().as_volts() - 0.65).abs() < 1e-6);
        let e2 = clk.next_edge();
        assert_eq!((e2 - e).as_femtos(), 4_000_000); // 250 MHz period
    }

    #[test]
    fn transmeta_relock_stalls_edges() {
        let ctl = VoltageController::new(
            DvfsModel::Transmeta,
            VfTable::paper(),
            PllModel::paper(),
            Frequency::GHZ,
        );
        let mut clk = DomainClock::with_controller(ctl, JitterModel::disabled(), 6);
        let start = clk.next_edge();
        clk.request_frequency(start, Frequency::from_mhz(500));
        let next = clk.next_edge();
        // The very next edge is delayed by the 10–20 µs re-lock.
        assert!(next - start >= Femtos::from_micros(10));
        assert!(next - start <= Femtos::from_micros(21));
        assert!(clk.idle_total() >= Femtos::from_micros(10));
        assert_eq!(clk.frequency(), Frequency::from_mhz(500));
    }

    #[test]
    fn tape_backed_and_private_clocks_are_identical_under_transmeta_requests() {
        // Interleaves jitter draws with PLL lock-time draws, which share the
        // clock's one normal stream; the private clock detaches before its
        // first draw, the other only after part of the run.
        let clock = || {
            let ctl = VoltageController::new(
                DvfsModel::Transmeta,
                VfTable::paper(),
                PllModel::paper(),
                Frequency::GHZ,
            );
            DomainClock::with_controller(ctl, JitterModel::paper(), 0x5eed_c10c)
        };
        let mut taped = clock();
        let mut private = clock();
        private.use_private_stream();
        let targets = [500, 250, 1000, 750, 300, 900];
        for step in 0..6_000usize {
            if step == 4_000 {
                taped.use_private_stream();
            }
            if step % 997 == 0 {
                let target = Frequency::from_mhz(targets[step / 997 % targets.len()]);
                let now = taped.last_edge();
                assert_eq!(
                    taped.request_frequency(now, target),
                    private.request_frequency(now, target)
                );
            }
            assert_eq!(taped.next_edge(), private.next_edge(), "edge {step}");
            assert_eq!(taped.voltage(), private.voltage());
            assert_eq!(taped.idle_total(), private.idle_total());
            assert_eq!(taped.take_relock(), private.take_relock());
        }
        assert!(
            taped.idle_total() > Femtos::ZERO,
            "requests re-locked the PLL"
        );
        assert_eq!(
            taped.v2_cycle_sum().to_bits(),
            private.v2_cycle_sum().to_bits()
        );
    }

    #[test]
    fn fixed_clock_ignores_requests() {
        let mut clk = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 9);
        assert!(!clk.request_frequency(Femtos::ZERO, Frequency::from_mhz(500)));
        clk.next_edge();
        assert_eq!(clk.frequency(), Frequency::GHZ);
    }
}

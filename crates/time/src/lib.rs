//! Clocking substrate for a Multiple Clock Domain (MCD) processor.
//!
//! This crate models everything the HPCA 2002 MCD paper needs below the
//! microarchitecture:
//!
//! * absolute simulation time in femtoseconds ([`Femtos`]),
//! * frequencies and voltages with the paper's linear voltage/frequency
//!   operating region ([`Frequency`], [`Voltage`], [`VfTable`]),
//! * per-domain clocks with normally-distributed cycle-to-cycle jitter
//!   ([`DomainClock`], [`JitterModel`]),
//! * the inter-domain synchronization calculus (a signal produced at a source
//!   clock edge becomes visible at the first destination edge at least
//!   `T_s` later, [`sync`]),
//! * dynamic voltage and frequency scaling transition engines for the
//!   XScale-like and Transmeta-like models ([`dvfs`]), including PLL re-lock
//!   idle windows ([`pll`]).
//!
//! # Example
//!
//! ```
//! use mcd_time::{DomainClock, Frequency, JitterModel, VfTable};
//!
//! let table = VfTable::paper();
//! let mut clock = DomainClock::new(Frequency::GHZ, JitterModel::disabled(), 0);
//! let first = clock.next_edge();
//! let second = clock.next_edge();
//! assert_eq!((second - first).as_femtos(), 1_000_000); // 1 ns at 1 GHz
//! assert!((table.voltage_for(Frequency::GHZ).as_volts() - 1.2).abs() < 1e-9);
//! ```

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod clock;
pub mod dvfs;
pub mod femtos;
pub mod freq;
pub mod jitter;
pub mod pll;
pub mod rng;
pub mod sync;
pub mod tape;
pub mod vf;

pub use clock::{ClockEvent, DomainClock};
pub use dvfs::{DvfsModel, TransitionPlan, VfSegment, VoltageController};
pub use femtos::Femtos;
pub use freq::{Frequency, Voltage};
pub use jitter::JitterModel;
pub use pll::PllModel;
pub use rng::SimRng;
pub use sync::{sync_headroom_entries, sync_latency, sync_visible_at, SyncParams, SyncWindowCache};
pub use tape::NormalSource;
pub use vf::{FrequencyGrid, OperatingPoint, VfTable};

//! `ie-energy` — the energy-harvesting substrate.
//!
//! The paper powers a TI MSP432 from a solar harvesting profile. This crate
//! models that environment:
//!
//! * [`PowerTrace`] — harvested power as a function of time, with a synthetic
//!   solar (diurnal + cloud noise) generator, constant and kinetic-burst
//!   profiles, and piecewise traces loaded from samples or CSV text,
//! * [`EnergyStorage`] — the capacitor that buffers harvested energy, with
//!   charging losses and a hard capacity,
//! * [`EventGenerator`] — the random "interesting event" arrivals that trigger
//!   inferences (the paper distributes 500 events over the trace),
//! * [`HarvestSimulator`] — glues trace and storage together and exposes the
//!   *charging-efficiency* observable the runtime RL state uses,
//! * [`fork_seed`] / [`fork_rng`] — hierarchical path-based RNG stream
//!   derivation, the reproducibility backbone of the fleet simulator.
//!
//! Units: time in **seconds**, power in **milliwatts**, energy in
//! **millijoules** (so `power × time = energy` without conversion factors).
//!
//! # Example
//!
//! ```
//! use ie_energy::{EnergyStorage, HarvestSimulator, SolarTrace};
//!
//! let trace = SolarTrace::builder().seed(7).build();
//! let storage = EnergyStorage::new(20.0, 0.8);
//! let mut sim = HarvestSimulator::new(Box::new(trace), storage);
//! sim.advance_to(12.0 * 3_600.0); // harvest until midday
//! assert!(sim.storage().level_mj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod events;
mod seed;
mod simulator;
mod storage;
pub mod test_support;
mod trace;

pub use error::EnergyError;
pub use events::{Event, EventDistribution, EventGenerator};
pub use seed::{fork_rng, fork_seed};
pub use simulator::HarvestSimulator;
pub use storage::EnergyStorage;
pub use trace::{
    wrap_time, ConstantTrace, KineticBurstTrace, PiecewiseTrace, PowerTrace, SolarTrace,
    SolarTraceBuilder, StochasticArrivalTrace,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EnergyError>;

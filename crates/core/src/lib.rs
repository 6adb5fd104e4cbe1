//! `ie-core` — the domain model of the paper: event-triggered intermittent
//! inference with a nonuniformly compressed multi-exit network.
//!
//! The crate ties the substrates together:
//!
//! * [`DeployedModel`] — a compressed multi-exit network as it exists on the
//!   MCU: per-exit FLOPs, energy, latency and accuracy plus incremental
//!   continuation costs,
//! * [`ExitPolicy`] — the decision interface the runtime implements (choose an
//!   exit for an event, decide whether to run an incremental inference, learn
//!   from the outcome); simple built-in policies (greedy, fixed, reserve
//!   margin) live in [`policies`],
//! * [`EventLoopSimulator`] — replays an event sequence against a power trace
//!   and a policy and produces a [`SimulationReport`],
//! * [`FleetSimulator`] — thousands-to-millions of heterogeneous virtual
//!   devices advanced in parallel under one master seed, with byte-identical
//!   aggregates at any worker count ([`fleet`]); each device runs the same
//!   replay loop and inference step as [`EventLoopSimulator`],
//! * [`metrics`] — the IEpmJ figure of merit and the per-run statistics every
//!   experiment in the paper reports,
//! * [`ExperimentConfig`] — the Section V-A experimental setup (solar trace,
//!   500 events, MSP432 cost model, 16 KB / 1.15 M-FLOP targets) shared by the
//!   benches, examples and tests.
//!
//! # Example
//!
//! ```
//! use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig};
//! use ie_core::policies::GreedyAffordablePolicy;
//!
//! let config = ExperimentConfig::paper_default();
//! let model = DeployedModel::uncompressed_reference(&config)?;
//! let mut policy = GreedyAffordablePolicy::new();
//! let report = EventLoopSimulator::new(&config).run(&model, &mut policy)?;
//! assert_eq!(report.total_events, config.num_events);
//! # Ok::<(), ie_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deployed;
mod error;
pub mod fleet;
pub mod metrics;
pub mod policies;
mod policy;
mod replay;
mod simulator;

pub use config::{ExperimentConfig, FaultConfig, ReplayInputs, MAX_DURATION_S, MAX_EVENTS};
pub use deployed::DeployedModel;
pub use error::CoreError;
pub use fleet::{FleetAccumulator, FleetConfig, FleetReport, FleetSimulator};
pub use metrics::{EventOutcome, EventRecord, RecoveryStats, SimulationReport};
pub use policy::{ContinueContext, EventContext, EventFeedback, ExitChoice, ExitPolicy};
pub use simulator::EventLoopSimulator;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

use crate::{CoreError, Result};
use ie_energy::{
    EnergyStorage, Event, EventDistribution, EventGenerator, HarvestSimulator, PowerTrace,
    SolarTrace,
};
use ie_mcu::{CostModel, FaultInjector, FaultPlan, McuDevice};
use ie_nn::spec::{lenet_multi_exit, MultiExitArchitecture};

/// The longest trace or device window a config may ask for: 366 days, in
/// seconds. [`ExperimentConfig::validate`] and
/// [`crate::FleetConfig::validate`] reject a longer duration, because the
/// trace builders allocate one sample per minute or second of it and the
/// harvest integral steps through every second.
pub const MAX_DURATION_S: f64 = 366.0 * 24.0 * 3600.0;

/// The most events a config may ask for: 2^20, over 2,000 times the paper's
/// 500. [`ExperimentConfig::validate`] rejects a larger `num_events` and
/// [`crate::FleetConfig::validate`] a larger `events_per_device`, because
/// the event generator and the simulator's report allocate per event up
/// front.
pub const MAX_EVENTS: usize = 1 << 20;

/// The full experimental setup of Section V-A of the paper, with every knob
/// the benches, examples and ablations need.
///
/// The defaults reproduce the paper's environment: the multi-exit LeNet
/// backbone, a TI MSP432-class device at 1.5 mJ/MFLOP, a day-long solar
/// harvesting trace scaled so 500 uniformly distributed events compete for a
/// few hundred millijoules of harvested energy, and the 1.15 M-FLOP / 16 KB
/// compression targets.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The multi-exit backbone architecture.
    pub architecture: MultiExitArchitecture,
    /// The target MCU.
    pub device: McuDevice,
    /// Number of interesting events distributed over the trace.
    pub num_events: usize,
    /// How event arrival times are distributed.
    pub event_distribution: EventDistribution,
    /// Seed of the event generator.
    pub event_seed: u64,
    /// Seed of the synthetic solar trace.
    pub trace_seed: u64,
    /// Peak (midday, clear-sky) harvested power in milliwatts.
    pub solar_peak_power_mw: f64,
    /// Trace duration in seconds.
    pub trace_duration_s: f64,
    /// Capacity of the energy buffer in millijoules.
    pub storage_capacity_mj: f64,
    /// Charging efficiency of the energy buffer, in `(0, 1]`.
    pub charge_efficiency: f64,
    /// Energy already stored when the experiment starts, in millijoules.
    pub initial_energy_mj: f64,
    /// Compression target for the whole network's FLOPs (`F_target`).
    pub flops_target: u64,
    /// Compression target for the weight storage in bytes (`S_target`).
    pub size_target_bytes: u64,
    /// Normalised-confidence threshold below which an incremental inference is
    /// considered.
    pub confidence_threshold: f64,
    /// Whether incremental inference is enabled at all (ablation knob).
    pub incremental_enabled: bool,
    /// Seed for the event-loop simulator's stochastic correctness draws.
    pub simulation_seed: u64,
    /// Optional power-cut fault injection; `None` (the default) reproduces
    /// the paper's fault-free environment bit-for-bit. Every simulator of
    /// the config builds the same `ie_mcu::FaultPlan::Random` from it
    /// ([`Self::fault_injector`]).
    pub fault: Option<FaultConfig>,
}

/// Deterministic power-cut fault injection for the deployed-system paths.
///
/// Every simulator of an [`ExperimentConfig`] turns this into one
/// `ie_mcu::FaultPlan::Random` ([`ExperimentConfig::fault_injector`]), whose
/// cuts strike before or partway through a task and inside checkpoint
/// writes. [`crate::EventLoopSimulator`] consults it once per inference and
/// once per checkpoint commit, as a fault-exposed fleet device consults its
/// own plan; the task-level baseline runner consults it at every task and
/// checkpoint commit of its task graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed of the fault schedule (harnesses may override it from the
    /// `IE_FAULT_SEED` env knob, see `ie_mcu::fault_seed_from_env`).
    pub seed: u64,
    /// Probability that a power cut strikes any given crash opportunity,
    /// in `[0, 1]`.
    pub cut_probability: f64,
    /// Hard bound on injected cuts over the whole run, so every schedule
    /// terminates.
    pub max_cuts: u64,
}

/// What every replay of an [`ExperimentConfig`] reads and none changes,
/// built together by [`ExperimentConfig::replay_inputs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayInputs {
    /// The solar power trace ([`ExperimentConfig::build_trace`]).
    pub trace: SolarTrace,
    /// The event arrivals ([`ExperimentConfig::build_events`]).
    pub events: Vec<Event>,
    /// Energy the trace offers over its whole duration, in millijoules: the
    /// `E_total` denominator of the IEpmJ metric.
    pub total_harvestable_mj: f64,
}

impl ExperimentConfig {
    /// The paper's default setup.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            architecture: lenet_multi_exit(),
            device: McuDevice::msp432(),
            num_events: 500,
            event_distribution: EventDistribution::Uniform,
            event_seed: 2020,
            trace_seed: 17,
            solar_peak_power_mw: 0.012,
            trace_duration_s: 24.0 * 3600.0,
            storage_capacity_mj: 25.0,
            charge_efficiency: 0.8,
            initial_energy_mj: 1.0,
            flops_target: 1_150_000,
            size_target_bytes: 16 * 1024,
            confidence_threshold: 0.55,
            incremental_enabled: true,
            simulation_seed: 7,
            fault: None,
        }
    }

    /// A smaller, faster configuration for unit tests: fewer events over a
    /// shorter trace with a generous energy budget.
    pub fn small_test() -> Self {
        ExperimentConfig {
            num_events: 60,
            solar_peak_power_mw: 0.05,
            storage_capacity_mj: 4.0,
            initial_energy_mj: 2.0,
            ..Self::paper_default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for nonsensical values (no events,
    /// non-positive durations or capacities, thresholds outside `[0, 1]`), for
    /// a trace duration, capacity, initial energy, peak power or cluster
    /// centre or spread that is not finite, for a trace duration above
    /// [`MAX_DURATION_S`] and for more than [`MAX_EVENTS`] events.
    pub fn validate(&self) -> Result<()> {
        if self.num_events == 0 {
            return Err(CoreError::InvalidConfig("num_events must be non-zero".into()));
        }
        if self.num_events > MAX_EVENTS {
            return Err(CoreError::InvalidConfig(format!(
                "num_events must be at most {MAX_EVENTS}, got {}",
                self.num_events
            )));
        }
        // Only a clustered distribution has parameters; the others check 0.0.
        let (center, spread) = match self.event_distribution {
            EventDistribution::Clustered { center_fraction, spread_fraction } => {
                (center_fraction, spread_fraction)
            }
            EventDistribution::Uniform | EventDistribution::Poisson => (0.0, 0.0),
        };
        for (name, value) in [
            ("trace duration", self.trace_duration_s),
            ("storage capacity", self.storage_capacity_mj),
            ("initial energy", self.initial_energy_mj),
            ("solar peak power", self.solar_peak_power_mw),
            ("event_distribution center_fraction", center),
            ("event_distribution spread_fraction", spread),
        ] {
            if !value.is_finite() {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be finite, got {value}"
                )));
            }
        }
        if self.trace_duration_s <= 0.0 {
            return Err(CoreError::InvalidConfig("trace duration must be positive".into()));
        }
        if self.trace_duration_s > MAX_DURATION_S {
            return Err(CoreError::InvalidConfig(format!(
                "trace_duration_s must be at most {MAX_DURATION_S} s (366 days), got {}",
                self.trace_duration_s
            )));
        }
        if self.storage_capacity_mj <= 0.0 {
            return Err(CoreError::InvalidConfig("storage capacity must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.confidence_threshold) {
            return Err(CoreError::InvalidConfig("confidence threshold must be in [0, 1]".into()));
        }
        if !(0.0..=1.0).contains(&self.charge_efficiency) || self.charge_efficiency == 0.0 {
            return Err(CoreError::InvalidConfig("charge efficiency must be in (0, 1]".into()));
        }
        if let Some(fault) = &self.fault {
            if !(0.0..=1.0).contains(&fault.cut_probability) {
                return Err(CoreError::InvalidConfig(
                    "fault cut probability must be in [0, 1]".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builds the solar power trace.
    pub fn build_trace(&self) -> SolarTrace {
        SolarTrace::builder()
            .seed(self.trace_seed)
            .peak_power_mw(self.solar_peak_power_mw)
            .duration_s(self.trace_duration_s)
            .build()
    }

    /// Generates the event arrival sequence.
    pub fn build_events(&self) -> Vec<Event> {
        EventGenerator::new(self.event_distribution, self.event_seed)
            .generate(self.num_events, self.trace_duration_s)
    }

    /// Builds the energy storage in its initial state.
    pub fn build_storage(&self) -> EnergyStorage {
        EnergyStorage::new(self.storage_capacity_mj, self.charge_efficiency)
            .with_initial_level(self.initial_energy_mj)
    }

    /// Builds a harvesting simulator over `trace` and a fresh storage.
    pub fn build_harvest_simulator(&self, trace: SolarTrace) -> HarvestSimulator {
        HarvestSimulator::new(Box::new(trace), self.build_storage())
    }

    /// Builds what every replay of the config reads and none changes: the
    /// solar trace, the event arrivals and `E_total`, the trace's energy
    /// over its whole duration. Call it after [`Self::validate`] passes.
    pub fn replay_inputs(&self) -> ReplayInputs {
        let trace = self.build_trace();
        let total_harvestable_mj = trace.energy_mj(0.0, self.trace_duration_s);
        ReplayInputs { trace, events: self.build_events(), total_harvestable_mj }
    }

    /// Builds the power-cut injector of [`Self::fault`] in its initial
    /// state: a `FaultPlan::Random` of its seed, cut probability and cut
    /// budget, or an injector that never cuts.
    pub fn fault_injector(&self) -> FaultInjector {
        self.fault
            .map(|f| FaultPlan::random(f.seed, f.cut_probability, f.max_cuts).injector())
            .unwrap_or_else(FaultInjector::none)
    }

    /// The cost model of the configured device.
    pub fn cost_model(&self) -> CostModel {
        CostModel::for_device(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_headline_constants() {
        let c = ExperimentConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.num_events, 500);
        assert_eq!(c.flops_target, 1_150_000);
        assert_eq!(c.size_target_bytes, 16 * 1024);
        assert_eq!(c.architecture.num_exits(), 3);
        assert!((c.device.energy_per_mflop_mj() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut c = ExperimentConfig::paper_default();
        c.num_events = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::paper_default();
        c.trace_duration_s = -1.0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::paper_default();
        c.confidence_threshold = 1.5;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::paper_default();
        c.charge_efficiency = 0.0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::paper_default();
        c.fault = Some(FaultConfig { seed: 1, cut_probability: 1.5, max_cuts: 4 });
        assert!(c.validate().is_err());
        c.fault = Some(FaultConfig { seed: 1, cut_probability: 0.1, max_cuts: 64 });
        c.validate().unwrap();
    }

    /// Asserts that `config` fails `validate()` and that the simulator
    /// rejects it up front instead of panicking, hanging or returning a
    /// meaningless run.
    fn assert_rejected(config: ExperimentConfig) {
        assert!(matches!(config.validate(), Err(CoreError::InvalidConfig(_))));
        let model =
            crate::DeployedModel::uncompressed_reference(&ExperimentConfig::small_test()).unwrap();
        let mut policy = crate::policies::GreedyAffordablePolicy::new();
        let run = crate::EventLoopSimulator::new(&config).run(&model, &mut policy);
        assert!(matches!(run, Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    fn nan_storage_capacity_is_rejected() {
        assert_rejected(ExperimentConfig {
            storage_capacity_mj: f64::NAN,
            ..ExperimentConfig::small_test()
        });
    }

    #[test]
    fn nan_trace_duration_is_rejected() {
        assert_rejected(ExperimentConfig {
            trace_duration_s: f64::NAN,
            ..ExperimentConfig::small_test()
        });
    }

    #[test]
    fn infinite_trace_duration_is_rejected() {
        assert_rejected(ExperimentConfig {
            trace_duration_s: f64::INFINITY,
            ..ExperimentConfig::small_test()
        });
    }

    #[test]
    fn trace_durations_above_the_bound_are_rejected() {
        let with_duration =
            |d| ExperimentConfig { trace_duration_s: d, ..ExperimentConfig::small_test() };
        with_duration(MAX_DURATION_S).validate().unwrap();
        for duration in [MAX_DURATION_S.next_up(), 1e13, 1e300, f64::MAX] {
            let message = with_duration(duration).validate().unwrap_err().to_string();
            assert!(message.contains("trace_duration_s") && message.contains("31622400"));
            assert_rejected(with_duration(duration));
        }
    }

    #[test]
    fn event_counts_above_the_bound_are_rejected() {
        let with_events = |n| ExperimentConfig { num_events: n, ..ExperimentConfig::small_test() };
        with_events(MAX_EVENTS).validate().unwrap();
        for n in [MAX_EVENTS + 1, 1 << 40, usize::MAX] {
            let message = with_events(n).validate().unwrap_err().to_string();
            assert!(message.contains("num_events") && message.contains("1048576"));
            assert_rejected(with_events(n));
        }
    }

    #[test]
    fn nan_initial_energy_is_rejected() {
        assert_rejected(ExperimentConfig {
            initial_energy_mj: f64::NAN,
            ..ExperimentConfig::small_test()
        });
    }

    #[test]
    fn nan_solar_peak_power_is_rejected() {
        assert_rejected(ExperimentConfig {
            solar_peak_power_mw: f64::NAN,
            ..ExperimentConfig::small_test()
        });
    }

    #[test]
    fn nan_cluster_center_is_rejected() {
        let event_distribution =
            EventDistribution::Clustered { center_fraction: f64::NAN, spread_fraction: 0.1 };
        let config = ExperimentConfig { event_distribution, ..ExperimentConfig::small_test() };
        assert!(config.validate().unwrap_err().to_string().contains("center_fraction"));
        assert_rejected(config);
    }

    #[test]
    fn infinite_cluster_spread_is_rejected() {
        let event_distribution =
            EventDistribution::Clustered { center_fraction: 0.5, spread_fraction: f64::INFINITY };
        let config = ExperimentConfig { event_distribution, ..ExperimentConfig::small_test() };
        assert!(config.validate().unwrap_err().to_string().contains("spread_fraction"));
        assert_rejected(config);
    }

    #[test]
    fn builders_are_deterministic() {
        let c = ExperimentConfig::paper_default();
        assert_eq!(c.build_events(), c.build_events());
        assert_eq!(c.build_trace().samples(), c.build_trace().samples());
        assert_eq!(c.build_events().len(), 500);
        let inputs = c.replay_inputs();
        assert_eq!(inputs, c.replay_inputs());
        assert_eq!((inputs.trace, inputs.events), (c.build_trace(), c.build_events()));
    }

    #[test]
    fn harvested_budget_is_scarce_relative_to_the_workload() {
        // The whole point of the paper: the harvested energy cannot power 500
        // full-network inferences. Full exit-3 inference ≈ 2.3 mJ; 500 of them
        // would need >1 J while the trace offers a few hundred mJ.
        let c = ExperimentConfig::paper_default();
        let total = c.replay_inputs().total_harvestable_mj;
        let full_inference_mj = c.cost_model().inference_energy_mj(c.architecture.exit_flops()[2]);
        assert!(total > 50.0, "trace offers a usable budget: {total} mJ");
        assert!(
            total < 0.8 * full_inference_mj * c.num_events as f64,
            "energy must be scarce: {total} mJ for {} events needing {full_inference_mj} mJ each",
            c.num_events
        );
    }

    #[test]
    fn small_test_config_is_valid() {
        ExperimentConfig::small_test().validate().unwrap();
        assert!(ExperimentConfig::small_test().num_events < 100);
    }
}

use crate::metrics::{RecoveryStats, SimulationReport};
use crate::replay::Device;
use crate::{CoreError, DeployedModel, ExitPolicy, ExperimentConfig, ReplayInputs, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Replays the configured event sequence over the configured power trace,
/// letting an [`ExitPolicy`] decide how each event is handled, and produces a
/// [`SimulationReport`].
///
/// Correctness of each processed event is sampled from the deployed model's
/// per-exit accuracy (the analytic counterpart of running the real compressed
/// network on a labelled input — see `DESIGN.md`); the result's confidence is
/// sampled so that wrong answers tend to look less confident, which is what
/// makes entropy-triggered incremental inference useful. The replay loop and
/// the inference step are the ones [`crate::FleetSimulator`] runs per device.
///
/// The first run that passes validation builds the trace, the events and
/// `E_total` ([`ExperimentConfig::replay_inputs`]); every run replays a copy
/// of them, so a simulator reused across models and policies builds them
/// once.
#[derive(Debug, Clone)]
pub struct EventLoopSimulator {
    config: ExperimentConfig,
    inputs: OnceLock<ReplayInputs>,
}

impl EventLoopSimulator {
    /// Creates a simulator for the given experiment configuration.
    pub fn new(config: &ExperimentConfig) -> Self {
        EventLoopSimulator { config: config.clone(), inputs: OnceLock::new() }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the simulation, handling every event at its arrival instant.
    ///
    /// Equivalent to [`Self::run_batched`] with a wake window of one event
    /// (and implemented as exactly that, so the two paths cannot drift).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration or
    /// a malformed model ([`DeployedModel::validate`]), and
    /// [`CoreError::UnknownExit`] when the policy requests a non-existent exit.
    pub fn run(
        &self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
    ) -> Result<SimulationReport> {
        self.run_batched(model, policy, 1)
    }

    /// Runs the simulation with events batched per wake window: the device
    /// sleeps while up to `window` events accumulate (harvesting energy the
    /// whole time), then wakes once and drains the pending batch in arrival
    /// order. This is the intermittent-serving analogue of batched inference
    /// — a wake-up is amortized over a whole window, and energy that arrives
    /// while events queue is available to the entire batch, so energy-bound
    /// traces typically miss fewer events at the cost of queueing latency
    /// (each record's `latency_s` includes the time the event waited for its
    /// window to close).
    ///
    /// A window of 1 reproduces [`Self::run`] exactly: every event is drained
    /// at its own arrival time with zero wait.
    ///
    /// A window of 0 is meaningless (a batch that can never hold an event)
    /// and is rejected up front rather than silently treated as 1 — the same
    /// contract the serving layer's `WindowConfig` enforces for its
    /// `max_batch`, so a zero window can never loop forever or drop events
    /// in either batching path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration, a
    /// malformed model ([`DeployedModel::validate`]) or a zero window, and
    /// [`CoreError::UnknownExit`] when the policy requests a non-existent
    /// exit.
    pub fn run_batched(
        &self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
        window: usize,
    ) -> Result<SimulationReport> {
        model.validate()?;
        if window == 0 {
            return Err(CoreError::InvalidConfig("wake window must be at least one event".into()));
        }
        let c = &self.config;
        c.validate()?;
        let inputs = self.inputs.get_or_init(|| c.replay_inputs());
        let device = Device {
            harvest: c.build_harvest_simulator(inputs.trace.clone()),
            events: inputs.events.clone(),
            rng: StdRng::seed_from_u64(c.simulation_seed),
            faults: c.fault_injector(),
            continuation_threshold: c.incremental_enabled.then_some(c.confidence_threshold),
        };
        let mut records = Vec::with_capacity(c.num_events);
        let mut recovery = RecoveryStats::default();
        device.replay(model, policy, window, |record, cut| {
            records.push(record);
            recovery.absorb(&cut);
        })?;
        Ok(SimulationReport::from_records(records, model.num_exits(), inputs.total_harvestable_mj)
            .with_recovery(recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EventOutcome;
    use crate::policies::{FixedExitPolicy, GreedyAffordablePolicy, ReserveMarginPolicy};
    use crate::{ContinueContext, EventContext, EventFeedback, ExitChoice};

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_test()
    }

    /// A fault schedule whose seed mixes in `IE_FAULT_SEED`, so each seed of
    /// the CI fault job replays a different schedule family.
    fn faults(seed: u64, cut_probability: f64, max_cuts: u64) -> Option<crate::FaultConfig> {
        let seed = seed ^ ie_mcu::fault_seed_from_env().unwrap_or(0);
        Some(crate::FaultConfig { seed, cut_probability, max_cuts })
    }

    #[test]
    fn every_event_is_accounted_for() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let mut policy = GreedyAffordablePolicy::new();
        let report = EventLoopSimulator::new(&c).run(&model, &mut policy).unwrap();
        assert_eq!(report.total_events, c.num_events);
        assert_eq!(report.processed_events + report.missed_events, report.total_events);
        assert_eq!(report.exit_counts.iter().sum::<usize>(), report.processed_events);
        assert!(report.correct_events <= report.processed_events);
        assert!(report.total_harvested_mj > 0.0);
        assert!(report.total_consumed_mj <= report.total_harvested_mj + c.initial_energy_mj + 1e-6);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let a =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let b =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_deep_exit_misses_more_events_than_greedy() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let greedy =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let fixed_deep =
            EventLoopSimulator::new(&c).run(&model, &mut FixedExitPolicy::new(2)).unwrap();
        assert!(
            fixed_deep.missed_events >= greedy.missed_events,
            "always demanding the deepest exit can only miss more events ({} vs {})",
            fixed_deep.missed_events,
            greedy.missed_events
        );
        assert!(greedy.processed_events > 0);
    }

    #[test]
    fn disabling_incremental_inference_removes_continuations() {
        let mut c = config();
        c.incremental_enabled = false;
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let report =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(report.incremental_count, 0);
        c.incremental_enabled = true;
        let with_inc =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        // Greedy continues whenever affordable, so with the threshold at its
        // default some continuations should occur.
        assert!(with_inc.incremental_count >= report.incremental_count);
    }

    #[test]
    fn a_wake_window_of_one_reproduces_the_unbatched_run() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let plain =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let windowed = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut GreedyAffordablePolicy::new(), 1)
            .unwrap();
        assert_eq!(plain, windowed);
    }

    #[test]
    fn batched_windows_account_for_every_event_and_stay_deterministic() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        for window in [2usize, 5, c.num_events] {
            let a = EventLoopSimulator::new(&c)
                .run_batched(&model, &mut GreedyAffordablePolicy::new(), window)
                .unwrap();
            let b = EventLoopSimulator::new(&c)
                .run_batched(&model, &mut GreedyAffordablePolicy::new(), window)
                .unwrap();
            assert_eq!(a, b, "window {window} must be deterministic");
            assert_eq!(a.total_events, c.num_events);
            assert_eq!(a.processed_events + a.missed_events, a.total_events);
            assert_eq!(a.exit_counts.iter().sum::<usize>(), a.processed_events);
            assert!(
                a.total_consumed_mj <= a.total_harvested_mj + c.initial_energy_mj + 1e-6,
                "window {window} cannot consume more than the budget"
            );
        }
    }

    #[test]
    fn queued_events_pay_their_wait_in_latency() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        // One wake for the whole trace: every processed event except the last
        // waited for the window to close.
        let report = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut FixedExitPolicy::new(0), c.num_events)
            .unwrap();
        assert!(report.processed_events > 0, "the drained batch must process something");
        let inference_latency = model.exit_latency_s(0);
        let waited = report
            .records
            .iter()
            .filter(|r| matches!(r.outcome, EventOutcome::Processed { .. }))
            .filter(|r| r.latency_s > inference_latency + 1e-12)
            .count();
        assert!(waited > 0, "queued events must include their wait in latency_s");
    }

    #[test]
    fn a_zero_wake_window_is_rejected() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let err = EventLoopSimulator::new(&c)
            .run_batched(&model, &mut GreedyAffordablePolicy::new(), 0)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn fault_injection_is_deterministic_and_accounted() {
        let mut c = config();
        c.fault = faults(11, 0.5, 40);
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let a =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let b =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert_eq!(a, b, "faulted runs must be deterministic per seed");
        assert!(a.recovery.recovered_boots > 0, "p=0.5 over 60 events must cut something");
        assert!(a.recovery.recovered_boots <= 40);
        assert!(a.recovery.wasted_reexecution_mj >= 0.0);
        assert_eq!(a.total_events, c.num_events);
        assert_eq!(a.processed_events + a.missed_events, a.total_events);
        assert!(a.total_consumed_mj <= a.total_harvested_mj + c.initial_energy_mj + 1e-6);
    }

    #[test]
    fn faulted_runs_count_torn_checkpoint_commits() {
        // A cut inside the checkpoint commit after an inference tears the
        // write and costs a boot, as in the fleet.
        let c = ExperimentConfig { fault: faults(11, 0.5, 40), ..config() };
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let a =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        assert!(a.recovery.torn_writes > 0, "p=0.5 over every commit must tear one");
        assert!(a.recovery.recovered_boots >= a.recovery.torn_writes);
        assert!(a.recovery.recovered_boots <= 40);
        assert!(a.recovery.wasted_reexecution_mj >= 0.0);
        assert_eq!(a.total_events, c.num_events);
        assert_eq!(a.processed_events + a.missed_events, a.total_events);
        assert!(a.total_consumed_mj <= a.total_harvested_mj + c.initial_energy_mj + 1e-6);
    }

    #[test]
    fn fault_injection_never_perturbs_the_fault_free_stream() {
        // The cut RNG is separate from the correctness RNG, so a zero-cut
        // fault config must reproduce the fault-free run bit-for-bit.
        let c = config();
        let mut zero_cut = config();
        zero_cut.fault = faults(3, 0.0, 64);
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let free =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let zero = EventLoopSimulator::new(&zero_cut)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .unwrap();
        assert_eq!(free, zero);
        assert_eq!(free.recovery, crate::RecoveryStats::default());
    }

    #[test]
    fn injected_cuts_cost_energy_or_events() {
        let c = config();
        let mut faulty = config();
        faulty.fault = faults(5, 0.8, 200);
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let free =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let hit = EventLoopSimulator::new(&faulty)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .unwrap();
        assert!(hit.recovery.recovered_boots > 0);
        // Re-execution burns budget: the faulted run can only do worse or
        // equal on correct events, and its waste shows up somewhere — fewer
        // correct events or more energy consumed.
        assert!(
            hit.correct_events <= free.correct_events
                || hit.total_consumed_mj > free.total_consumed_mj
        );
    }

    #[test]
    fn unknown_exit_choice_is_an_error() {
        struct Bogus;
        impl ExitPolicy for Bogus {
            fn choose_exit(&mut self, _ctx: &EventContext) -> ExitChoice {
                ExitChoice::Exit(99)
            }
        }
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let err = EventLoopSimulator::new(&c).run(&model, &mut Bogus).unwrap_err();
        assert!(matches!(err, CoreError::UnknownExit { requested: 99, .. }));
    }

    #[test]
    fn reserve_policy_shifts_selection_towards_cheap_exits() {
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let greedy =
            EventLoopSimulator::new(&c).run(&model, &mut GreedyAffordablePolicy::new()).unwrap();
        let reserved =
            EventLoopSimulator::new(&c).run(&model, &mut ReserveMarginPolicy::new(0.6)).unwrap();
        // The reserve policy must use exit 0 at least as often as greedy does.
        assert!(reserved.exit_counts[0] >= greedy.exit_counts[0]);
    }

    /// Forwards every decision to `P`, but asks for a fresh charging
    /// efficiency before each event, as a policy that reads it would.
    struct Eager<P>(P);

    impl<P: ExitPolicy> ExitPolicy for Eager<P> {
        fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
            self.0.choose_exit(ctx)
        }

        fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
            self.0.choose_continue(ctx)
        }

        fn observe_outcome(&mut self, feedback: &EventFeedback) {
            self.0.observe_outcome(feedback)
        }

        fn name(&self) -> &str {
            self.0.name()
        }

        fn reads_charging_efficiency(&self) -> bool {
            true
        }
    }

    /// Runs `policy` with and without [`Eager`], with and without faults,
    /// unbatched and in wake windows of 5: every pair of reports is equal.
    fn assert_skipping_the_efficiency_changes_nothing<P: ExitPolicy + Clone>(policy: P) {
        assert!(!policy.reads_charging_efficiency());
        let faulted = ExperimentConfig { fault: faults(9, 0.3, 64), ..config() };
        for c in [config(), faulted] {
            let model = DeployedModel::uncompressed_reference(&c).unwrap();
            let sim = EventLoopSimulator::new(&c);
            let lazy = sim.run(&model, &mut policy.clone()).unwrap();
            assert_eq!(lazy, sim.run(&model, &mut Eager(policy.clone())).unwrap());
            let lazy = sim.run_batched(&model, &mut policy.clone(), 5).unwrap();
            assert_eq!(lazy, sim.run_batched(&model, &mut Eager(policy.clone()), 5).unwrap());
        }
    }

    #[test]
    fn policies_that_ignore_the_efficiency_run_the_same_without_it() {
        assert_skipping_the_efficiency_changes_nothing(GreedyAffordablePolicy::new());
        for exit in 0..3 {
            assert_skipping_the_efficiency_changes_nothing(FixedExitPolicy::new(exit));
        }
        assert_skipping_the_efficiency_changes_nothing(ReserveMarginPolicy::new(0.3));
    }

    #[test]
    fn a_policy_that_reads_the_efficiency_gets_the_eager_bits() {
        /// Skips every event, so the harvester sits at each arrival time,
        /// and records the efficiency it was shown.
        struct Recorder(Vec<f64>);
        impl ExitPolicy for Recorder {
            fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
                self.0.push(ctx.charging_efficiency);
                ExitChoice::Skip
            }
        }
        let c = config();
        let model = DeployedModel::uncompressed_reference(&c).unwrap();
        let mut recorder = Recorder(Vec::new());
        EventLoopSimulator::new(&c).run(&model, &mut recorder).unwrap();
        let mut harvest = c.build_harvest_simulator(c.build_trace());
        let want: Vec<u64> = c
            .build_events()
            .iter()
            .map(|event| {
                harvest.advance_to(event.time_s);
                harvest.charging_efficiency().to_bits()
            })
            .collect();
        let got: Vec<u64> = recorder.0.iter().map(|e| e.to_bits()).collect();
        assert_eq!(got, want);
        assert!(recorder.0.iter().any(|&e| e > 0.0), "daytime events see a positive value");
    }

    #[test]
    fn a_reused_simulator_reports_what_a_fresh_one_does() {
        // The first run builds the trace, the events and E_total, and every
        // run replays copies of them: whatever ran before, a reused
        // simulator's report is a fresh simulator's, bit for bit.
        let faulted =
            ExperimentConfig { fault: faults(5, 0.3, 20), ..ExperimentConfig::paper_default() };
        for c in [config(), faulted] {
            let halved: ie_compress::CompressionPolicy = c
                .architecture
                .compressible_layers()
                .iter()
                .map(|_| ie_compress::LayerPolicy::new(0.5, 4, 8).unwrap())
                .collect();
            let models = [
                DeployedModel::uncompressed_reference(&c).unwrap(),
                DeployedModel::from_policy(&c, &halved).unwrap(),
            ];
            let policies: [fn() -> Box<dyn ExitPolicy>; 4] = [
                || Box::new(GreedyAffordablePolicy::new()),
                || Box::new(FixedExitPolicy::new(2)),
                || Box::new(ReserveMarginPolicy::new(0.3)),
                || Box::new(Eager(GreedyAffordablePolicy::new())),
            ];
            let reused = EventLoopSimulator::new(&c);
            for round in 0..2 {
                for (m, model) in models.iter().enumerate() {
                    for (p, policy) in policies.iter().enumerate() {
                        for window in [1, 5] {
                            let got = reused.run_batched(model, policy().as_mut(), window);
                            let fresh = EventLoopSimulator::new(&c);
                            let want = fresh.run_batched(model, policy().as_mut(), window);
                            assert_eq!(
                                format!("{:?}", got.unwrap()),
                                format!("{:?}", want.unwrap()),
                                "round {round}, model {m}, policy {p}, window {window}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = config();
        c.num_events = 0;
        let model = DeployedModel::uncompressed_reference(&config()).unwrap();
        assert!(EventLoopSimulator::new(&c)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .is_err());
    }
}

use crate::metrics::{EventOutcome, EventRecord, RecoveryStats, SimulationReport};
use crate::{
    ContinueContext, CoreError, DeployedModel, EventContext, EventFeedback, ExitChoice, ExitPolicy,
    ExperimentConfig, Result,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Volatile state of the analytic fault injector: its own RNG stream (so
/// enabling faults never perturbs the correctness/confidence draws), the cut
/// budget, and the recovery statistics accumulated so far.
struct FaultState {
    rng: StdRng,
    cut_probability: f64,
    max_cuts: u64,
    cuts: u64,
    stats: RecoveryStats,
}

impl FaultState {
    /// Draws whether a power cut strikes the current inference and, if so, at
    /// which fraction of its progress.
    fn draw_cut(&mut self) -> Option<f64> {
        if self.cuts >= self.max_cuts || !self.rng.gen_bool(self.cut_probability) {
            return None;
        }
        self.cuts += 1;
        Some(self.rng.gen::<f64>())
    }
}

/// Replays the configured event sequence over the configured power trace,
/// letting an [`ExitPolicy`] decide how each event is handled, and produces a
/// [`SimulationReport`].
///
/// Correctness of each processed event is sampled from the deployed model's
/// per-exit accuracy (the analytic counterpart of running the real compressed
/// network on a labelled input — see `DESIGN.md`); the result's confidence is
/// sampled so that wrong answers tend to look less confident, which is what
/// makes entropy-triggered incremental inference useful.
#[derive(Debug, Clone)]
pub struct EventLoopSimulator {
    config: ExperimentConfig,
}

impl EventLoopSimulator {
    /// Creates a simulator for the given experiment configuration.
    pub fn new(config: &ExperimentConfig) -> Self {
        EventLoopSimulator { config: config.clone() }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Samples a normalised confidence for a result that is `correct` or not:
    /// correct results are usually confident, wrong results usually are not.
    fn sample_confidence(rng: &mut StdRng, correct: bool) -> f64 {
        if correct {
            0.55 + 0.45 * rng.gen::<f64>()
        } else {
            0.75 * rng.gen::<f64>()
        }
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
        self.config.validate()?;
        let mut rng = StdRng::seed_from_u64(self.config.simulation_seed);
        let mut faults = self.config.fault.map(|f| FaultState {
            rng: StdRng::seed_from_u64(f.seed),
            cut_probability: f.cut_probability,
            max_cuts: f.max_cuts,
            cuts: 0,
            stats: RecoveryStats::default(),
        });
        let mut sim = self.config.build_harvest_simulator();
        let events = self.config.build_events();
        let num_exits = model.num_exits();
        let exit_energy = model.exit_energies_mj();
        let mut records = Vec::with_capacity(events.len());

        // The per-exit cost/accuracy tables are fixed for the whole run, so
        // the context is built once and only its scalar fields change per
        // event — the event loop itself performs no per-event allocations.
        let mut ctx = EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: 0.0,
            capacity_mj: sim.storage().capacity_mj(),
            charging_efficiency: 0.0,
            exit_energy_mj: exit_energy.clone(),
            exit_accuracy: model.exit_accuracies(),
        };

        for batch in events.chunks(window) {
            // One wake-up per window: harvest up to the latest arrival before
            // any queued event is considered.
            let wake_time = batch.last().expect("chunks are non-empty").time_s;
            sim.advance_to(wake_time);
            for event in batch {
                ctx.event_id = event.id;
                ctx.time_s = event.time_s;
                ctx.available_energy_mj = sim.storage().level_mj();
                ctx.capacity_mj = sim.storage().capacity_mj();
                // The efficiency window is the costliest integral per event,
                // so a policy that never reads it keeps the 0.0 above.
                // `charging_efficiency` takes `&self`: skipping it changes no
                // later state.
                if policy.reads_charging_efficiency() {
                    ctx.charging_efficiency = sim.charging_efficiency();
                }
                let choice = policy.choose_exit(&ctx);

                let (record, feedback) = match choice {
                    ExitChoice::Skip => self.miss(event.id, event.time_s, None, 0.0),
                    ExitChoice::Exit(exit) => {
                        if exit >= num_exits {
                            return Err(CoreError::UnknownExit {
                                requested: exit,
                                available: num_exits,
                            });
                        }
                        if !sim.storage().can_supply(exit_energy[exit]) {
                            self.miss(event.id, event.time_s, Some(exit), 0.0)
                        } else {
                            self.process(
                                event.id,
                                event.time_s,
                                wake_time - event.time_s,
                                exit,
                                model,
                                policy,
                                &mut sim,
                                &mut rng,
                                &mut faults,
                            )?
                        }
                    }
                };
                policy.observe_outcome(&feedback);
                records.push(record);
            }
        }

        let total_harvested = self.config.total_harvestable_mj();
        let recovery = faults.map(|f| f.stats).unwrap_or_default();
        Ok(SimulationReport::from_records(records, num_exits, total_harvested)
            .with_recovery(recovery))
    }

    fn miss(
        &self,
        event_id: usize,
        time_s: f64,
        chosen: Option<usize>,
        energy_mj: f64,
    ) -> (EventRecord, EventFeedback) {
        (
            EventRecord {
                event_id,
                time_s,
                outcome: EventOutcome::Missed,
                latency_s: 0.0,
                energy_mj,
                flops: 0,
            },
            EventFeedback {
                event_id,
                chosen_exit: chosen,
                final_exit: None,
                expected_accuracy: 0.0,
                correct: false,
                energy_spent_mj: energy_mj,
                missed: true,
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        event_id: usize,
        time_s: f64,
        wait_s: f64,
        exit: usize,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
        sim: &mut ie_energy::HarvestSimulator,
        rng: &mut StdRng,
        faults: &mut Option<FaultState>,
    ) -> Result<(EventRecord, EventFeedback)> {
        let mut final_exit = exit;
        let mut energy = model.exit_energy_mj(exit);
        // Queueing delay (zero outside batched runs) counts towards the
        // event's end-to-end latency but does not occupy the device — the
        // harvester already advanced to the wake time, so only the inference
        // itself advances the trace further.
        let inference_latency = model.exit_latency_s(exit);
        let mut latency = wait_s + inference_latency;
        let mut flops = model.exit_flops(exit);

        // Injected power cut: the analytic path models whole-inference
        // retries (per-task recovery lives in `ie_mcu`'s executor) — the
        // partial work is lost, the device reboots, and the inference
        // restarts from scratch if the remaining charge still affords it.
        if let Some(fs) = faults.as_mut() {
            if let Some(fraction) = fs.draw_cut() {
                let partial = fraction * model.exit_energy_mj(exit);
                sim.consume(partial)?;
                sim.advance_by(fraction * inference_latency);
                fs.stats.recovered_boots += 1;
                fs.stats.wasted_reexecution_mj += partial;
                if !sim.storage().can_supply(model.exit_energy_mj(exit)) {
                    // The retry is unaffordable: the event is missed, with
                    // the destroyed partial work on its energy ledger.
                    return Ok(self.miss(event_id, time_s, Some(exit), partial));
                }
                energy += partial;
                latency += fraction * inference_latency;
            }
        }
        sim.consume(model.exit_energy_mj(exit))?;
        sim.advance_by(inference_latency);
        let mut correct = rng.gen::<f64>() < model.exit_accuracy(exit);
        let mut incremental = false;
        let confidence = Self::sample_confidence(rng, correct);

        // Incremental inference: only if enabled, a deeper exit exists and the
        // confidence fell below the configured threshold.
        if self.config.incremental_enabled
            && confidence < self.config.confidence_threshold
            && exit + 1 < model.num_exits()
        {
            let next_exit = exit + 1;
            let inc_energy = model.incremental_energy_mj(exit, next_exit)?;
            let cc = ContinueContext {
                event_id,
                current_exit: exit,
                next_exit,
                confidence,
                available_energy_mj: sim.storage().level_mj(),
                capacity_mj: sim.storage().capacity_mj(),
                incremental_energy_mj: inc_energy,
            };
            if policy.choose_continue(&cc) && sim.storage().can_supply(inc_energy) {
                sim.consume(inc_energy)?;
                let inc_latency = model.incremental_latency_s(exit, next_exit)?;
                sim.advance_by(inc_latency);
                energy += inc_energy;
                latency += inc_latency;
                flops += model.incremental_flops(exit, next_exit)?;
                final_exit = next_exit;
                incremental = true;
                // Conditional refinement: inputs the shallow exit already got
                // right stay right; inputs it got wrong are *hard*, so the
                // deeper exit only fixes the fraction that makes its
                // unconditional accuracy come out at `exit_accuracy(next)`.
                if !correct {
                    let a_shallow = model.exit_accuracy(exit);
                    let a_deep = model.exit_accuracy(next_exit);
                    let fix_probability =
                        ((a_deep - a_shallow) / (1.0 - a_shallow).max(1e-9)).clamp(0.0, 1.0);
                    correct = rng.gen::<f64>() < fix_probability;
                }
            }
        }

        Ok((
            EventRecord {
                event_id,
                time_s,
                outcome: EventOutcome::Processed { exit: final_exit, correct, incremental },
                latency_s: latency,
                energy_mj: energy,
                flops,
            },
            EventFeedback {
                event_id,
                chosen_exit: Some(exit),
                final_exit: Some(final_exit),
                expected_accuracy: model.exit_accuracy(final_exit),
                correct,
                energy_spent_mj: energy,
                missed: false,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FixedExitPolicy, GreedyAffordablePolicy, ReserveMarginPolicy};

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_test()
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
        c.fault = Some(crate::FaultConfig { seed: 11, cut_probability: 0.5, max_cuts: 40 });
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
    fn fault_injection_never_perturbs_the_fault_free_stream() {
        // The cut RNG is separate from the correctness RNG, so a zero-cut
        // fault config must reproduce the fault-free run bit-for-bit.
        let c = config();
        let mut zero_cut = config();
        zero_cut.fault = Some(crate::FaultConfig { seed: 3, cut_probability: 0.0, max_cuts: 64 });
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
        faulty.fault = Some(crate::FaultConfig { seed: 5, cut_probability: 0.8, max_cuts: 200 });
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
        let faulted = ExperimentConfig {
            fault: Some(crate::FaultConfig { seed: 9, cut_probability: 0.3, max_cuts: 64 }),
            ..config()
        };
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
        let mut harvest = c.build_harvest_simulator();
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
    fn invalid_config_is_rejected() {
        let mut c = config();
        c.num_events = 0;
        let model = DeployedModel::uncompressed_reference(&config()).unwrap();
        assert!(EventLoopSimulator::new(&c)
            .run(&model, &mut GreedyAffordablePolicy::new())
            .is_err());
    }
}

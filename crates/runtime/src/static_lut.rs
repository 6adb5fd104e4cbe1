use crate::StateDiscretizer;
use ie_core::{ContinueContext, DeployedModel, EventContext, ExitChoice, ExitPolicy};

/// The static lookup-table policy built during the compression phase:
/// for every discretised energy level the LUT stores the deepest exit whose
/// from-scratch energy cost fits that level. At runtime the table is only
/// read, never updated — this is the baseline the Q-learning adaptation is
/// compared against in Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticLutPolicy {
    discretizer: StateDiscretizer,
    /// Entry per energy bin: `Some(exit)` or `None` when even the cheapest
    /// exit does not fit the bin's representative energy level.
    table: Vec<Option<usize>>,
    capacity_mj: f64,
}

impl StaticLutPolicy {
    /// Builds the LUT for a deployed model and storage capacity.
    pub fn build(model: &DeployedModel, capacity_mj: f64, discretizer: StateDiscretizer) -> Self {
        StaticLutPolicy::from_costs(&model.exit_energies_mj(), capacity_mj, discretizer)
    }

    /// Builds the LUT directly from a per-exit cost table and a capacity in
    /// the same unit. The paper's deployment uses energy costs (mJ); the
    /// serving loop reuses the identical structure over latency costs
    /// (seconds) for budget-based admission control
    /// (see [`crate::LatencyAdmission`]).
    pub fn from_costs(exit_cost: &[f64], capacity: f64, discretizer: StateDiscretizer) -> Self {
        let table = (0..discretizer.energy_bins())
            .map(|bin| {
                let budget = discretizer.energy_bin_midpoint(bin) * capacity;
                exit_cost
                    .iter()
                    .enumerate()
                    .filter(|(_, &cost)| cost <= budget)
                    .map(|(i, _)| i)
                    .next_back()
            })
            .collect();
        StaticLutPolicy { discretizer, table, capacity_mj: capacity }
    }

    /// The lookup table (index = energy bin).
    pub fn table(&self) -> &[Option<usize>] {
        &self.table
    }

    /// The exit the LUT prescribes for a stored-energy fraction.
    pub fn lookup(&self, energy_fraction: f64) -> Option<usize> {
        let bin = ((energy_fraction.clamp(0.0, 1.0) * self.discretizer.energy_bins() as f64)
            as usize)
            .min(self.discretizer.energy_bins() - 1);
        self.table[bin]
    }
}

impl ExitPolicy for StaticLutPolicy {
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
        match self.lookup(ctx.energy_fraction()) {
            // The LUT was built from bin mid-points; the actual stored energy
            // may be slightly below the prescribed exit's cost, in which case
            // the simulator would miss the event. Fall back to the deepest
            // affordable exit at or below the prescription.
            Some(exit) => {
                let affordable = (0..=exit).rev().find(|&e| ctx.affordable(e));
                match affordable {
                    Some(e) => ExitChoice::Exit(e),
                    None => ExitChoice::Skip,
                }
            }
            None => {
                if ctx.affordable(0) {
                    ExitChoice::Exit(0)
                } else {
                    ExitChoice::Skip
                }
            }
        }
    }

    fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
        // Static rule: continue whenever the continuation is affordable.
        ctx.affordable()
    }

    fn name(&self) -> &str {
        "static-lut"
    }

    fn reads_charging_efficiency(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ie_core::{EventFeedback, EventLoopSimulator, ExperimentConfig, FaultConfig};
    use proptest::prelude::*;

    fn model() -> (ExperimentConfig, DeployedModel) {
        let config = ExperimentConfig::small_test();
        let model = DeployedModel::uncompressed_reference(&config).unwrap();
        (config, model)
    }

    #[test]
    fn lut_is_monotone_in_energy() {
        let (config, model) = model();
        let lut = StaticLutPolicy::build(
            &model,
            config.storage_capacity_mj,
            StateDiscretizer::paper_default(),
        );
        let entries = lut.table();
        let mut last = -1isize;
        for e in entries {
            let v = e.map(|x| x as isize).unwrap_or(-1);
            assert!(v >= last, "deeper exits require more energy: {entries:?}");
            last = v;
        }
        // The fullest bin affords the deepest exit for this capacity.
        assert_eq!(entries.last().copied().flatten(), Some(model.num_exits() - 1));
    }

    #[test]
    fn lookup_matches_bins_and_policy_respects_affordability() {
        let (config, model) = model();
        let mut lut = StaticLutPolicy::build(
            &model,
            config.storage_capacity_mj,
            StateDiscretizer::paper_default(),
        );
        let ctx = EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: config.storage_capacity_mj,
            capacity_mj: config.storage_capacity_mj,
            charging_efficiency: 0.5,
            exit_energy_mj: model.exit_energies_mj(),
            exit_accuracy: model.exit_accuracies(),
        };
        assert_eq!(lut.choose_exit(&ctx), ExitChoice::Exit(model.num_exits() - 1));
        let broke = EventContext { available_energy_mj: 0.0, ..ctx };
        assert_eq!(lut.choose_exit(&broke), ExitChoice::Skip);
        assert_eq!(lut.name(), "static-lut");
    }

    #[test]
    fn continuation_follows_affordability() {
        let (config, model) = model();
        let mut lut = StaticLutPolicy::build(
            &model,
            config.storage_capacity_mj,
            StateDiscretizer::paper_default(),
        );
        let cc = ContinueContext {
            event_id: 0,
            current_exit: 0,
            next_exit: 1,
            confidence: 0.1,
            available_energy_mj: 3.0,
            capacity_mj: 4.0,
            incremental_energy_mj: 1.0,
        };
        assert!(lut.choose_continue(&cc));
        let broke = ContinueContext { available_energy_mj: 0.5, ..cc };
        assert!(!lut.choose_continue(&broke));
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

    #[test]
    fn the_lut_runs_the_same_without_the_efficiency() {
        let (config, model) = model();
        let lut = StaticLutPolicy::build(
            &model,
            config.storage_capacity_mj,
            StateDiscretizer::paper_default(),
        );
        assert!(!lut.reads_charging_efficiency());
        let faulted = ExperimentConfig {
            fault: Some(FaultConfig { seed: 9, cut_probability: 0.3, max_cuts: 64 }),
            ..config.clone()
        };
        for c in [config, faulted] {
            let sim = EventLoopSimulator::new(&c);
            let lazy = sim.run(&model, &mut lut.clone()).unwrap();
            assert_eq!(lazy, sim.run(&model, &mut Eager(lut.clone())).unwrap());
            let lazy = sim.run_batched(&model, &mut lut.clone(), 5).unwrap();
            assert_eq!(lazy, sim.run_batched(&model, &mut Eager(lut.clone()), 5).unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The LUT decides the same whatever `charging_efficiency` holds.
        #[test]
        fn lut_decisions_ignore_the_charging_efficiency(
            fraction in -0.5f64..1.5,
            (confidence, incremental) in (0.0f64..1.0, 0.0f64..3.0),
            efficiency_bits in any::<u64>(),
            uniform in -2.0f64..2.0,
        ) {
            let (config, model) = model();
            let capacity = config.storage_capacity_mj;
            let lut = StaticLutPolicy::build(&model, capacity, StateDiscretizer::paper_default());
            let ctx = EventContext {
                event_id: 3,
                time_s: 100.0,
                available_energy_mj: fraction * capacity,
                capacity_mj: capacity,
                charging_efficiency: 0.0,
                exit_energy_mj: model.exit_energies_mj(),
                exit_accuracy: model.exit_accuracies(),
            };
            let cc = ContinueContext {
                event_id: 3,
                current_exit: 0,
                next_exit: 1,
                confidence,
                available_energy_mj: fraction * capacity,
                capacity_mj: capacity,
                incremental_energy_mj: incremental,
            };
            let decide = |efficiency: f64| {
                let mut p = lut.clone();
                let choice =
                    p.choose_exit(&EventContext { charging_efficiency: efficiency, ..ctx.clone() });
                (choice, p.choose_continue(&cc))
            };
            let want = decide(0.0);
            for efficiency in [0.5, 1.0, -1.0, f64::NAN, f64::from_bits(efficiency_bits), uniform] {
                prop_assert_eq!(decide(efficiency), want);
            }
        }
    }
}

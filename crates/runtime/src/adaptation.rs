//! The repeated learning episodes behind Fig. 7.

use crate::{
    QLearningConfig, QLearningExitPolicy, Result, RuntimeError, StateDiscretizer, StaticLutPolicy,
};
use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig, SimulationReport};

/// Configuration of the runtime-adaptation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationConfig {
    /// Number of learning episodes (each episode replays the full event
    /// sequence over the power trace; the paper uses ~16).
    pub episodes: usize,
    /// Q-learning hyper-parameters.
    pub qlearning: QLearningConfig,
    /// State discretisation shared by the Q-tables and the static LUT.
    pub discretizer: StateDiscretizer,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            episodes: 16,
            qlearning: QLearningConfig::default(),
            discretizer: StateDiscretizer::paper_default(),
        }
    }
}

/// Everything the runtime-adaptation experiment produces.
#[derive(Debug, Clone)]
pub struct AdaptationOutcome {
    /// Average accuracy over all events after each Q-learning episode
    /// (the Fig. 7(a) learning curve).
    pub learning_curve: Vec<f64>,
    /// Average accuracy of the static LUT (constant across episodes; plotted
    /// as the flat line in Fig. 7(a)).
    pub static_accuracy: f64,
    /// Full report of the final Q-learning episode (Fig. 7(b) left bars).
    pub final_report: SimulationReport,
    /// Full report of the static LUT run (Fig. 7(b) right bars).
    pub static_report: SimulationReport,
    /// The trained policy (tables can be inspected or reused).
    pub policy: QLearningExitPolicy,
}

impl AdaptationOutcome {
    /// Improvement of the final Q-learning episode over the static LUT, in
    /// absolute accuracy (fraction of all events).
    pub fn improvement_over_static(&self) -> f64 {
        self.learning_curve.last().copied().unwrap_or(0.0) - self.static_accuracy
    }
}

/// Runs the paper's runtime adaptation: a persistent Q-learning policy
/// repeatedly replays the event sequence, improving its exit selection, and is
/// compared against the static LUT baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeAdaptation {
    config: AdaptationConfig,
}

impl RuntimeAdaptation {
    /// Creates the experiment driver.
    pub fn new(config: AdaptationConfig) -> Self {
        RuntimeAdaptation { config }
    }

    /// Runs the adaptation experiment for a deployed model under the given
    /// environment.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoEpisodes`] for a zero-episode configuration
    /// and propagates simulation errors.
    pub fn run(&self, env: &ExperimentConfig, model: &DeployedModel) -> Result<AdaptationOutcome> {
        if self.config.episodes == 0 {
            return Err(RuntimeError::NoEpisodes);
        }
        let simulator = EventLoopSimulator::new(env);

        // Static LUT baseline (no learning, deterministic).
        let mut static_policy =
            StaticLutPolicy::build(model, env.storage_capacity_mj, self.config.discretizer);
        let static_report = simulator.run(model, &mut static_policy)?;
        let static_accuracy = static_report.accuracy_all_events();

        // Q-learning adaptation: the policy persists across episodes.
        let mut policy = QLearningExitPolicy::new(
            model.num_exits(),
            self.config.discretizer,
            self.config.qlearning.clone(),
        );
        let mut learning_curve = Vec::with_capacity(self.config.episodes);
        let mut final_report = None;
        for _ in 0..self.config.episodes {
            let report = simulator.run(model, &mut policy)?;
            policy.end_episode();
            learning_curve.push(report.accuracy_all_events());
            final_report = Some(report);
        }
        let final_report = final_report.expect("at least one episode ran");

        Ok(AdaptationOutcome {
            learning_curve,
            static_accuracy,
            final_report,
            static_report,
            policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ExperimentConfig, DeployedModel) {
        let config = ExperimentConfig::small_test();
        let model = DeployedModel::uncompressed_reference(&config).unwrap();
        (config, model)
    }

    #[test]
    fn adaptation_produces_a_curve_per_episode() {
        let (config, model) = setup();
        let adaptation =
            RuntimeAdaptation::new(AdaptationConfig { episodes: 4, ..AdaptationConfig::default() });
        let outcome = adaptation.run(&config, &model).unwrap();
        assert_eq!(outcome.learning_curve.len(), 4);
        assert!(outcome.learning_curve.iter().all(|a| (0.0..=1.0).contains(a)));
        assert!((0.0..=1.0).contains(&outcome.static_accuracy));
        assert_eq!(outcome.final_report.total_events, config.num_events);
        assert_eq!(outcome.static_report.total_events, config.num_events);
        assert_eq!(outcome.final_report.exit_counts.len(), model.num_exits());
        // The improvement metric is just the difference of the two numbers.
        let expected = outcome.learning_curve.last().unwrap() - outcome.static_accuracy;
        assert!((outcome.improvement_over_static() - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_episodes_is_rejected() {
        let (config, model) = setup();
        let adaptation =
            RuntimeAdaptation::new(AdaptationConfig { episodes: 0, ..AdaptationConfig::default() });
        assert!(matches!(adaptation.run(&config, &model), Err(RuntimeError::NoEpisodes)));
    }

    #[test]
    fn learning_does_not_collapse_performance() {
        // Over a handful of episodes the Q-learning policy must remain in the
        // same ballpark as the static LUT (it should eventually beat it; the
        // full-scale comparison lives in the benchmark harness).
        let (config, model) = setup();
        let adaptation =
            RuntimeAdaptation::new(AdaptationConfig { episodes: 6, ..AdaptationConfig::default() });
        let outcome = adaptation.run(&config, &model).unwrap();
        let last = *outcome.learning_curve.last().unwrap();
        assert!(
            last >= outcome.static_accuracy - 0.15,
            "q-learning {last} vs static {}",
            outcome.static_accuracy
        );
    }

    #[test]
    fn trained_policy_has_visited_many_states() {
        let (config, model) = setup();
        let adaptation =
            RuntimeAdaptation::new(AdaptationConfig { episodes: 3, ..AdaptationConfig::default() });
        let outcome = adaptation.run(&config, &model).unwrap();
        assert_eq!(outcome.policy.events_seen(), 3 * config.num_events as u64);
        assert!(outcome.policy.exit_table().updates() > 0);
    }
}

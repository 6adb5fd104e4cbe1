use crate::Result;
use ie_compress::{CalibratedAccuracyModel, CompressionPolicy, PolicyEvaluator};
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig};
use ie_nn::spec::CompressibleLayer;

/// How the accuracy part of the reward is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardMode {
    /// The paper's exit-guided, power-trace-aware reward:
    /// `R_acc = Σ p_i · Acc_i` with the exit-selection percentages `p_i`
    /// measured by simulating the event sequence under the candidate policy
    /// (missed events contribute zero).
    ExitGuided,
    /// Conventional compression reward that only looks at the final exit's
    /// accuracy (the ablation the paper argues against).
    FinalExitOnly,
}

/// Everything the search learns about one candidate policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// The evaluated (snapped) policy.
    pub policy: CompressionPolicy,
    /// Per-exit FLOPs, accuracy and the size/FLOPs totals.
    pub profile: ie_compress::CompressedProfile,
    /// Fraction of events whose final result came from each exit.
    pub exit_fractions: Vec<f64>,
    /// Fraction of events missed.
    pub missed_fraction: f64,
    /// The accuracy part of the reward (`R_acc`).
    pub accuracy_reward: f64,
    /// Reward seen by the pruning agent (Eq. 11).
    pub prune_reward: f64,
    /// Reward seen by the quantization agent (Eq. 12).
    pub quant_reward: f64,
    /// Whether both the FLOPs and the size constraint are met.
    pub feasible: bool,
    /// IEpmJ of the candidate under the greedy static exit selection.
    pub ie_pmj: f64,
}

/// The compression-search environment: evaluates candidate policies under the
/// EH power trace and event distribution and produces the exit-guided rewards.
#[derive(Debug)]
pub struct CompressionEnv {
    /// The replay every evaluation runs, which builds its inputs once.
    simulator: EventLoopSimulator,
    evaluator: PolicyEvaluator,
    layers: Vec<CompressibleLayer>,
    reward_mode: RewardMode,
    lambda_prune: f64,
    lambda_quant: f64,
}

impl CompressionEnv {
    /// Creates an environment for the configured experiment using the
    /// calibrated accuracy model.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid.
    pub fn new(config: &ExperimentConfig, reward_mode: RewardMode) -> Result<Self> {
        config.validate()?;
        let evaluator = PolicyEvaluator::new(
            &config.architecture,
            CalibratedAccuracyModel::for_paper_backbone(),
        );
        let layers = config.architecture.compressible_layers();
        Ok(CompressionEnv {
            simulator: EventLoopSimulator::new(config),
            evaluator,
            layers,
            reward_mode,
            lambda_prune: 1.0,
            lambda_quant: 1.0,
        })
    }

    /// Overrides the reward scaling factors λ1 (pruning) and λ2 (quantization).
    pub fn with_reward_scales(mut self, lambda_prune: f64, lambda_quant: f64) -> Self {
        self.lambda_prune = lambda_prune;
        self.lambda_quant = lambda_quant;
        self
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        self.simulator.config()
    }

    /// The compressible layers in canonical order.
    pub fn layers(&self) -> &[CompressibleLayer] {
        &self.layers
    }

    /// Number of compressible layers (episode length).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.config().architecture.num_exits()
    }

    /// The reward mode in use.
    pub fn reward_mode(&self) -> RewardMode {
        self.reward_mode
    }

    /// Evaluates a candidate policy: cost/accuracy profile, power-trace exit
    /// selection statistics and the two agents' rewards.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and simulation errors.
    pub fn evaluate(&self, policy: &CompressionPolicy) -> Result<PolicyOutcome> {
        let snapped = policy.snapped();
        // Whole-policy scoring goes through the batched evaluator: estimators
        // that run a real calibration set shard it across worker threads (one
        // `BatchPlan` per worker, pooled across candidates), and analytic
        // estimators such as this environment's calibrated model fall back
        // to the plain path. Results are identical either way.
        let profile = self.evaluator.evaluate_batched(&snapped)?;
        let config = self.config();
        let model = DeployedModel::new(profile.clone(), config.cost_model());
        let mut selection_policy = GreedyAffordablePolicy::new();
        let report = self.simulator.run(&model, &mut selection_policy)?;
        let exit_fractions = report.exit_fractions();
        let missed_fraction = report.missed_fraction();

        let accuracy_reward = match self.reward_mode {
            RewardMode::ExitGuided => profile.expected_accuracy(&exit_fractions),
            RewardMode::FinalExitOnly => {
                *profile.exit_accuracy.last().expect("profiles always have at least one exit")
            }
        };

        let flops_ok = profile.total_flops <= config.flops_target;
        let size_ok = profile.model_size_bytes <= config.size_target_bytes;
        let prune_reward =
            if flops_ok { self.lambda_prune * accuracy_reward } else { -self.lambda_prune };
        let quant_reward =
            if size_ok { self.lambda_quant * accuracy_reward } else { -self.lambda_quant };

        Ok(PolicyOutcome {
            policy: snapped,
            profile,
            exit_fractions,
            missed_fraction,
            accuracy_reward,
            prune_reward,
            quant_reward,
            feasible: flops_ok && size_ok,
            ie_pmj: report.ie_pmj(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ie_compress::LayerPolicy;

    fn env() -> CompressionEnv {
        CompressionEnv::new(&ExperimentConfig::small_test(), RewardMode::ExitGuided).unwrap()
    }

    fn aggressive_policy(env: &CompressionEnv) -> CompressionPolicy {
        env.layers()
            .iter()
            .map(|l| {
                if l.is_conv {
                    if l.first_exit() == 0 {
                        LayerPolicy::new(0.5, 8, 8).unwrap()
                    } else {
                        LayerPolicy::new(0.25, 4, 8).unwrap()
                    }
                } else if l.weight_params > 20_000 {
                    LayerPolicy::new(0.35, 1, 8).unwrap()
                } else {
                    LayerPolicy::new(0.5, 2, 8).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn full_precision_violates_both_constraints() {
        let env = env();
        let outcome = env.evaluate(&CompressionPolicy::full_precision(env.num_layers())).unwrap();
        assert!(!outcome.feasible);
        assert_eq!(outcome.prune_reward, -1.0);
        assert_eq!(outcome.quant_reward, -1.0);
        assert!(outcome.accuracy_reward > 0.0, "accuracy reward itself is still positive");
    }

    #[test]
    fn a_compressed_policy_is_feasible_and_rewarded() {
        let env = env();
        let outcome = env.evaluate(&aggressive_policy(&env)).unwrap();
        assert!(outcome.feasible, "profile: {:?}", outcome.profile.model_size_bytes);
        assert!(outcome.prune_reward > 0.0 && outcome.quant_reward > 0.0);
        assert!(outcome.accuracy_reward > 0.3);
        assert!(outcome.ie_pmj > 0.0);
        let total: f64 = outcome.exit_fractions.iter().sum::<f64>() + outcome.missed_fraction;
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to one: {total}");
    }

    #[test]
    fn exit_guided_reward_differs_from_final_exit_reward() {
        let config = ExperimentConfig::small_test();
        let exit_guided = CompressionEnv::new(&config, RewardMode::ExitGuided).unwrap();
        let final_only = CompressionEnv::new(&config, RewardMode::FinalExitOnly).unwrap();
        let policy = aggressive_policy(&exit_guided);
        let a = exit_guided.evaluate(&policy).unwrap();
        let b = final_only.evaluate(&policy).unwrap();
        // The final-exit reward ignores missed events and early exits, so it is
        // at least as large as the exit-guided reward.
        assert!(b.accuracy_reward >= a.accuracy_reward);
        assert_eq!(exit_guided.reward_mode(), RewardMode::ExitGuided);
    }

    #[test]
    fn evaluating_twice_gives_equal_outcomes() {
        // The first evaluation builds the replay's trace, events and E_total;
        // later ones reuse them, whichever policy ran in between.
        let reused = env();
        let aggressive = aggressive_policy(&reused);
        let full = CompressionPolicy::full_precision(reused.num_layers());
        let first = format!("{:?}", reused.evaluate(&aggressive).unwrap());
        let between = format!("{:?}", reused.evaluate(&full).unwrap());
        assert_eq!(format!("{:?}", reused.evaluate(&aggressive).unwrap()), first);
        assert_eq!(format!("{:?}", reused.evaluate(&full).unwrap()), between);
        assert_eq!(format!("{:?}", env().evaluate(&full).unwrap()), between);
    }

    #[test]
    fn reward_scales_are_applied() {
        let env = CompressionEnv::new(&ExperimentConfig::small_test(), RewardMode::ExitGuided)
            .unwrap()
            .with_reward_scales(2.0, 0.5);
        let outcome = env.evaluate(&CompressionPolicy::full_precision(env.num_layers())).unwrap();
        assert_eq!(outcome.prune_reward, -2.0);
        assert_eq!(outcome.quant_reward, -0.5);
    }
}

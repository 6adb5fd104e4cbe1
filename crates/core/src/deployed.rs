use crate::{CoreError, ExperimentConfig, Result};
use ie_compress::{CalibratedAccuracyModel, CompressedProfile, CompressionPolicy, PolicyEvaluator};
use ie_mcu::{CostModel, McuDevice};

/// A multi-exit network as it exists on the MCU after compression: its
/// per-exit FLOPs, accuracy, energy and latency, and the cost of incremental
/// continuation between exits.
///
/// # Example
///
/// ```
/// use ie_core::{DeployedModel, ExperimentConfig};
///
/// let config = ExperimentConfig::paper_default();
/// let model = DeployedModel::uncompressed_reference(&config)?;
/// assert_eq!(model.num_exits(), 3);
/// assert!(model.exit_energy_mj(0) < model.exit_energy_mj(2));
/// # Ok::<(), ie_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedModel {
    profile: CompressedProfile,
    cost: CostModel,
}

impl DeployedModel {
    /// Wraps an already-evaluated compression profile with a device cost model.
    /// Any profile is accepted; the simulators reject a malformed one
    /// ([`Self::validate`]) before they index its per-exit tables.
    pub fn new(profile: CompressedProfile, cost: CostModel) -> Self {
        DeployedModel { profile, cost }
    }

    /// Checks that the profile describes a usable model: at least one exit,
    /// and one `exit_flops`, `branch_flops` and `exit_accuracy` entry per
    /// exit. A profile's fields are public, so [`Self::new`] cannot rule a
    /// malformed one out; `EventLoopSimulator::run_batched` and
    /// `FleetSimulator::simulate_device_into` call this first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the three lengths.
    pub fn validate(&self) -> Result<()> {
        let p = &self.profile;
        let exits = p.exit_flops.len();
        if exits == 0 || p.branch_flops.len() != exits || p.exit_accuracy.len() != exits {
            return Err(CoreError::InvalidConfig(format!(
                "deployed model needs at least one exit and equal-length per-exit tables; \
                 got {exits} exit_flops, {} branch_flops, {} exit_accuracy",
                p.branch_flops.len(),
                p.exit_accuracy.len()
            )));
        }
        Ok(())
    }

    /// The uncompressed (full-precision) backbone on the configured device,
    /// using the calibrated accuracy model. This is the starting point of the
    /// compression search and the reference for Fig. 6's "before compression"
    /// bars.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn uncompressed_reference(config: &ExperimentConfig) -> Result<Self> {
        let evaluator = PolicyEvaluator::new(
            &config.architecture,
            CalibratedAccuracyModel::for_paper_backbone(),
        );
        let policy = CompressionPolicy::full_precision(evaluator.layers().len());
        let profile = evaluator.evaluate(&policy)?;
        Ok(DeployedModel { profile, cost: config.cost_model() })
    }

    /// Deploys a compression policy onto the configured device using the
    /// calibrated accuracy model.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (e.g. policy length mismatch).
    pub fn from_policy(config: &ExperimentConfig, policy: &CompressionPolicy) -> Result<Self> {
        let evaluator = PolicyEvaluator::new(
            &config.architecture,
            CalibratedAccuracyModel::for_paper_backbone(),
        );
        let profile = evaluator.evaluate(policy)?;
        Ok(DeployedModel { profile, cost: config.cost_model() })
    }

    /// The underlying compression profile.
    pub fn profile(&self) -> &CompressedProfile {
        &self.profile
    }

    /// The device cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.profile.exit_flops.len()
    }

    fn check_exit(&self, exit: usize) -> Result<()> {
        if exit >= self.num_exits() {
            return Err(CoreError::UnknownExit { requested: exit, available: self.num_exits() });
        }
        Ok(())
    }

    /// FLOPs to reach `exit` from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `exit` is out of range (use [`Self::num_exits`] to stay in
    /// range; the simulator validates policies before calling this).
    pub fn exit_flops(&self, exit: usize) -> u64 {
        self.profile.exit_flops[exit]
    }

    /// Energy (mJ) of an inference that exits at `exit`.
    pub fn exit_energy_mj(&self, exit: usize) -> f64 {
        self.cost.inference_energy_mj(self.profile.exit_flops[exit])
    }

    /// Compute latency (s) of an inference that exits at `exit`.
    pub fn exit_latency_s(&self, exit: usize) -> f64 {
        self.cost.inference_latency_s(self.profile.exit_flops[exit])
    }

    /// Predicted accuracy of `exit`, in `[0, 1]`.
    pub fn exit_accuracy(&self, exit: usize) -> f64 {
        self.profile.exit_accuracy[exit]
    }

    /// Energy costs of every exit (index = exit).
    pub fn exit_energies_mj(&self) -> Vec<f64> {
        (0..self.num_exits()).map(|e| self.exit_energy_mj(e)).collect()
    }

    /// Accuracies of every exit (index = exit).
    pub fn exit_accuracies(&self) -> Vec<f64> {
        self.profile.exit_accuracy.clone()
    }

    /// Additional FLOPs to continue from `from_exit` to the deeper `to_exit`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownExit`] when the pair is invalid.
    pub fn incremental_flops(&self, from_exit: usize, to_exit: usize) -> Result<u64> {
        self.check_exit(from_exit)?;
        self.check_exit(to_exit)?;
        self.profile
            .incremental_flops(from_exit, to_exit)
            .ok_or(CoreError::UnknownExit { requested: to_exit, available: self.num_exits() })
    }

    /// Additional energy (mJ) to continue from `from_exit` to `to_exit`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownExit`] when the pair is invalid.
    pub fn incremental_energy_mj(&self, from_exit: usize, to_exit: usize) -> Result<f64> {
        Ok(self.cost.inference_energy_mj(self.incremental_flops(from_exit, to_exit)?))
    }

    /// Additional latency (s) to continue from `from_exit` to `to_exit`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownExit`] when the pair is invalid.
    pub fn incremental_latency_s(&self, from_exit: usize, to_exit: usize) -> Result<f64> {
        Ok(self.cost.inference_latency_s(self.incremental_flops(from_exit, to_exit)?))
    }

    /// Model weight size in bytes.
    pub fn model_size_bytes(&self) -> u64 {
        self.profile.model_size_bytes
    }

    /// Total network FLOPs (every unique layer once).
    pub fn total_flops(&self) -> u64 {
        self.profile.total_flops
    }

    /// Checks that the model fits the device's weight storage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Mcu`] wrapping a `ModelTooLarge` error otherwise.
    pub fn check_fits(&self, device: &McuDevice) -> Result<()> {
        device.check_model_fits(self.profile.model_size_bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ie_compress::LayerPolicy;

    fn config() -> ExperimentConfig {
        ExperimentConfig::paper_default()
    }

    #[test]
    fn uncompressed_reference_matches_architecture_accounting() {
        let c = config();
        let m = DeployedModel::uncompressed_reference(&c).unwrap();
        assert_eq!(m.num_exits(), 3);
        assert_eq!(m.exit_flops(2), c.architecture.exit_flops()[2]);
        // Energy at 1.5 mJ/MFLOP.
        let expected = c.architecture.exit_flops()[2] as f64 / 1e6 * 1.5;
        assert!((m.exit_energy_mj(2) - expected).abs() < 1e-9);
        // The fp32 model must NOT fit the MCU (that is the paper's premise).
        assert!(m.check_fits(&c.device).is_err());
    }

    #[test]
    fn compressed_model_fits_and_costs_less() {
        let c = config();
        let layers = c.architecture.compressible_layers();
        let policy: CompressionPolicy = layers
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
            .collect();
        let compressed = DeployedModel::from_policy(&c, &policy).unwrap();
        let reference = DeployedModel::uncompressed_reference(&c).unwrap();
        assert!(compressed.check_fits(&c.device).is_ok(), "size {}", compressed.model_size_bytes());
        for e in 0..3 {
            assert!(compressed.exit_energy_mj(e) < reference.exit_energy_mj(e));
            assert!(compressed.exit_accuracy(e) <= reference.exit_accuracy(e));
            assert!(compressed.exit_latency_s(e) < reference.exit_latency_s(e));
        }
    }

    #[test]
    fn incremental_costs_are_cheaper_than_restart() {
        let m = DeployedModel::uncompressed_reference(&config()).unwrap();
        let inc = m.incremental_energy_mj(0, 2).unwrap();
        assert!(inc < m.exit_energy_mj(2));
        assert!(inc > 0.0);
        assert!(m.incremental_energy_mj(2, 0).is_err());
        assert!(m.incremental_flops(0, 9).is_err());
        assert!(m.incremental_latency_s(0, 1).unwrap() > 0.0);
    }

    #[test]
    fn unknown_exit_errors_are_reported() {
        let m = DeployedModel::uncompressed_reference(&config()).unwrap();
        assert!(m.incremental_flops(5, 6).is_err());
    }

    #[test]
    fn malformed_models_are_rejected_by_both_simulators() {
        use crate::fleet::{FleetConfig, FleetSimulator};
        use crate::policies::GreedyAffordablePolicy;
        use crate::EventLoopSimulator;
        use ie_compress::CompressedProfile;

        fn invalid<T>(result: Result<T>) -> bool {
            matches!(result, Err(CoreError::InvalidConfig(_)))
        }
        let c = ExperimentConfig::small_test();
        let good = DeployedModel::uncompressed_reference(&c).unwrap();
        let edited = |edit: fn(&mut CompressedProfile)| {
            let mut profile = good.profile().clone();
            edit(&mut profile);
            DeployedModel::new(profile, good.cost_model().clone())
        };
        let malformed = [
            edited(|p| {
                p.exit_flops.clear();
                p.branch_flops.clear();
                p.exit_accuracy.clear();
            }),
            edited(|p| p.exit_accuracy.truncate(1)),
            edited(|p| p.branch_flops.truncate(1)),
        ];
        let sim = EventLoopSimulator::new(&c);
        let fleet =
            |threads| FleetSimulator::new(&FleetConfig { threads, ..FleetConfig::new(8, 7) });
        for model in &malformed {
            assert!(invalid(model.validate()));
            assert!(invalid(sim.run(model, &mut GreedyAffordablePolicy::new())));
            assert!(invalid(sim.run_batched(model, &mut GreedyAffordablePolicy::new(), 5)));
            for threads in [1, 4] {
                assert!(invalid(fleet(threads).run(model)), "{threads} fleet workers");
            }
            assert!(invalid(fleet(1).replay_device(model, 0)));
        }
        good.validate().unwrap();
        sim.run(&good, &mut GreedyAffordablePolicy::new()).unwrap();
        sim.run_batched(&good, &mut GreedyAffordablePolicy::new(), 5).unwrap();
        for threads in [1, 4] {
            assert_eq!(fleet(threads).run(&good).unwrap().metrics.devices, 8);
        }
        fleet(1).replay_device(&good, 0).unwrap();
    }
}

use crate::quantize::storage_bytes;
use crate::{CompressionPolicy, ExitAccuracyEstimator, Result};
use ie_nn::spec::{CompressibleLayer, MultiExitArchitecture};

/// What a compression policy does to the deployed model: per-exit FLOPs and
/// accuracy, the total network FLOPs (`F_model` of Eq. 8) and the weight
/// storage footprint (`S_model`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedProfile {
    /// FLOPs to reach each exit under the policy.
    pub exit_flops: Vec<u64>,
    /// FLOPs of each exit's private branch under the policy (used to price
    /// incremental inference: continuing from exit `i` to `j` costs
    /// `exit_flops[j] − (exit_flops[i] − branch_flops[i])`).
    pub branch_flops: Vec<u64>,
    /// Predicted accuracy of each exit under the policy, in `[0, 1]`.
    pub exit_accuracy: Vec<f64>,
    /// FLOPs of the whole network (every unique layer once) under the policy.
    pub total_flops: u64,
    /// Weight storage footprint in bytes under the policy.
    pub model_size_bytes: u64,
}

impl CompressedProfile {
    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.exit_flops.len()
    }

    /// Accuracy-weighted by an exit-selection distribution: `Σ p_i · Acc_i`
    /// (the `R_acc` reward of Eq. 10).
    ///
    /// # Panics
    ///
    /// Panics if `exit_probability` has a different length than the exits.
    pub fn expected_accuracy(&self, exit_probability: &[f64]) -> f64 {
        assert_eq!(exit_probability.len(), self.exit_accuracy.len(), "probability length mismatch");
        self.exit_accuracy.iter().zip(exit_probability).map(|(a, p)| a * p).sum()
    }

    /// Additional FLOPs needed to continue an inference that stopped at
    /// `from_exit` until the strictly deeper `to_exit` (the shared trunk up to
    /// `from_exit` is reused, the deeper branch runs from scratch).
    ///
    /// Returns `None` when `to_exit` is not strictly deeper or either exit is
    /// out of range.
    pub fn incremental_flops(&self, from_exit: usize, to_exit: usize) -> Option<u64> {
        if to_exit <= from_exit || to_exit >= self.exit_flops.len() {
            return None;
        }
        let shared_trunk = self.exit_flops[from_exit].saturating_sub(self.branch_flops[from_exit]);
        Some(self.exit_flops[to_exit].saturating_sub(shared_trunk))
    }
}

/// Evaluates compression policies against an architecture: cost comes from the
/// layer descriptions, accuracy from an [`ExitAccuracyEstimator`].
pub struct PolicyEvaluator {
    layers: Vec<CompressibleLayer>,
    estimator: Box<dyn ExitAccuracyEstimator + Send + Sync>,
    num_exits: usize,
}

impl std::fmt::Debug for PolicyEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEvaluator")
            .field("layers", &self.layers.len())
            .field("num_exits", &self.num_exits)
            .finish()
    }
}

impl PolicyEvaluator {
    /// Creates an evaluator for `arch` using the given accuracy estimator.
    pub fn new<E>(arch: &MultiExitArchitecture, estimator: E) -> Self
    where
        E: ExitAccuracyEstimator + Send + Sync + 'static,
    {
        PolicyEvaluator {
            layers: arch.compressible_layers(),
            estimator: Box::new(estimator),
            num_exits: arch.num_exits(),
        }
    }

    /// The compressible layers of the architecture, in canonical order.
    pub fn layers(&self) -> &[CompressibleLayer] {
        &self.layers
    }

    /// Evaluates a policy.
    ///
    /// # Errors
    ///
    /// Returns [`CompressionPolicy::validate`]'s errors for a policy that
    /// does not cover every compressible layer or has an out-of-range entry,
    /// or whatever the accuracy estimator reports.
    pub fn evaluate(&self, policy: &CompressionPolicy) -> Result<CompressedProfile> {
        let mut profile = self.account_costs(policy)?;
        profile.exit_accuracy = self.estimator.exit_accuracy(&self.layers, policy)?;
        Ok(profile)
    }

    /// Evaluates a policy with the batched, sharded accuracy path: the
    /// estimator streams its calibration set through one
    /// [`ie_nn::BatchPlan`] per worker thread (see
    /// [`crate::ExitAccuracyEstimator::exit_accuracy_batched`]), at the
    /// default evaluation batch ([`ie_nn::train::DEFAULT_EVAL_BATCH`]) and
    /// the environment-driven worker count ([`ie_nn::train::eval_threads`],
    /// `IE_EVAL_THREADS`). Results are identical to [`Self::evaluate`] for
    /// every batch size and thread count; whole-policy scoring just gets
    /// cheaper, which is what the compression search loop cares about.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::evaluate`].
    pub fn evaluate_batched(&self, policy: &CompressionPolicy) -> Result<CompressedProfile> {
        let mut profile = self.account_costs(policy)?;
        profile.exit_accuracy = self.estimator.exit_accuracy_batched(&self.layers, policy)?;
        Ok(profile)
    }

    /// The FLOPs/size accounting every evaluation path shares: the profile
    /// it returns leaves `exit_accuracy` empty for the caller's estimate.
    fn account_costs(&self, policy: &CompressionPolicy) -> Result<CompressedProfile> {
        policy.validate(self.layers.len())?;
        let mut profile = CompressedProfile {
            exit_flops: vec![0; self.num_exits],
            branch_flops: vec![0; self.num_exits],
            exit_accuracy: Vec::new(),
            total_flops: 0,
            model_size_bytes: 0,
        };
        for (layer, lp) in self.layers.iter().zip(policy.layers()) {
            let ratio = f64::from(lp.preserve_ratio.clamp(0.0, 1.0));
            let eff_macs = (layer.macs as f64 * ratio).round() as u64;
            let eff_params = (layer.weight_params as f64 * ratio).round() as u64;
            profile.total_flops += eff_macs;
            profile.model_size_bytes += storage_bytes(eff_params, lp.weight_bits.min(32));
            if !layer.in_trunk() {
                profile.branch_flops[layer.first_exit()] += eff_macs;
            }
            for (exit, flops) in profile.exit_flops.iter_mut().enumerate() {
                if layer.used_by_exit(exit) {
                    *flops += eff_macs;
                }
            }
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalibratedAccuracyModel, CompressionPolicy, LayerPolicy};
    use ie_nn::spec::lenet_multi_exit;

    fn evaluator() -> PolicyEvaluator {
        PolicyEvaluator::new(&lenet_multi_exit(), CalibratedAccuracyModel::for_paper_backbone())
    }

    #[test]
    fn identity_policy_reproduces_uncompressed_costs() {
        let arch = lenet_multi_exit();
        let ev = evaluator();
        let profile = ev.evaluate(&CompressionPolicy::full_precision(ev.layers().len())).unwrap();
        assert_eq!(profile.exit_flops, arch.exit_flops());
        assert_eq!(profile.model_size_bytes, arch.model_size_bytes(32));
        assert_eq!(profile.num_exits(), 3);
        assert!((profile.exit_accuracy[2] - 0.730).abs() < 1e-9);
        // Incremental continuation matches the architecture's accounting.
        assert_eq!(profile.incremental_flops(0, 1), Some(arch.incremental_flops(0, 1).unwrap()));
        assert_eq!(profile.incremental_flops(1, 1), None);
        assert_eq!(profile.incremental_flops(0, 7), None);
        // Continuing 0 -> 1 is cheaper than running exit 1 from scratch.
        assert!(profile.incremental_flops(0, 1).unwrap() < profile.exit_flops[1]);
    }

    #[test]
    fn pruning_halves_flops_and_quantization_shrinks_size() {
        let ev = evaluator();
        let half = CompressionPolicy::uniform(ev.layers().len(), 0.5, 32, 32).unwrap();
        let full = ev.evaluate(&CompressionPolicy::full_precision(ev.layers().len())).unwrap();
        let pruned = ev.evaluate(&half).unwrap();
        for (p, f) in pruned.exit_flops.iter().zip(&full.exit_flops) {
            let ratio = *p as f64 / *f as f64;
            assert!((ratio - 0.5).abs() < 0.02, "FLOPs ratio {ratio}");
        }
        let eight_bit = CompressionPolicy::uniform(ev.layers().len(), 1.0, 8, 8).unwrap();
        let quantized = ev.evaluate(&eight_bit).unwrap();
        let size_ratio = quantized.model_size_bytes as f64 / full.model_size_bytes as f64;
        assert!(
            (size_ratio - 0.25).abs() < 0.01,
            "8/32 bits gives a 4x size reduction, got {size_ratio}"
        );
        assert_eq!(quantized.exit_flops, full.exit_flops, "quantization alone keeps FLOPs");
    }

    #[test]
    fn paper_scale_policy_fits_the_mcu_constraints() {
        // A policy in the spirit of Fig. 4 (8-bit convs pruned harder, 1–2-bit
        // large FC layers) must land under 1.15 M network FLOPs and 16 KB.
        let ev = evaluator();
        let policy: CompressionPolicy = ev
            .layers()
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
        let profile = ev.evaluate(&policy).unwrap();
        assert!(profile.total_flops <= 1_250_000, "total FLOPs {}", profile.total_flops);
        assert!(profile.model_size_bytes <= 16 * 1024, "size {}", profile.model_size_bytes);
        // Accuracy of the exits remains in a usable band.
        assert!(profile.exit_accuracy.iter().all(|&a| a > 0.55), "{:?}", profile.exit_accuracy);
    }

    #[test]
    fn expected_accuracy_weights_exits() {
        let ev = evaluator();
        let profile = ev.evaluate(&CompressionPolicy::full_precision(ev.layers().len())).unwrap();
        let all_exit1 = profile.expected_accuracy(&[1.0, 0.0, 0.0]);
        let all_exit3 = profile.expected_accuracy(&[0.0, 0.0, 1.0]);
        assert!((all_exit1 - 0.649).abs() < 1e-9);
        assert!((all_exit3 - 0.730).abs() < 1e-9);
        let mixed = profile.expected_accuracy(&[0.5, 0.0, 0.5]);
        assert!(mixed > all_exit1 && mixed < all_exit3);
    }

    #[test]
    fn policy_length_is_checked() {
        let ev = evaluator();
        assert!(ev.evaluate(&CompressionPolicy::full_precision(3)).is_err());
    }

    fn empirical_tiny_evaluator() -> PolicyEvaluator {
        use ie_nn::dataset::SyntheticDataset;
        use ie_nn::spec::tiny_multi_exit;
        use ie_nn::MultiExitNetwork;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let data = SyntheticDataset::generate(3, 8, 100, 0.05, 12);
        let arch = tiny_multi_exit(3);
        let mut rng = StdRng::seed_from_u64(13);
        let net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
        PolicyEvaluator::new(
            &arch,
            crate::EmpiricalAccuracyEstimator::new(net, data.test().to_vec()),
        )
    }

    #[test]
    fn batched_evaluation_matches_the_single_input_evaluation() {
        // The worker count (IE_EVAL_THREADS or the machine default) only
        // changes throughput: `ie_nn::train`'s own tests and
        // `batch_equivalence.rs` hold the sharded pass at 1 to 6 workers.
        let ev = empirical_tiny_evaluator();
        let policy = CompressionPolicy::uniform(ev.layers().len(), 0.6, 8, 8).unwrap();
        assert_eq!(ev.evaluate_batched(&policy).unwrap(), ev.evaluate(&policy).unwrap());
    }

    #[test]
    fn analytic_estimators_fall_back_to_the_plain_accuracy_path() {
        let ev = evaluator();
        let policy = CompressionPolicy::uniform(ev.layers().len(), 0.7, 6, 8).unwrap();
        assert_eq!(ev.evaluate_batched(&policy).unwrap(), ev.evaluate(&policy).unwrap());
    }
}

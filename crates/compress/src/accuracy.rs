//! Exit-accuracy estimation under a compression policy.
//!
//! The search needs a deterministic map from a candidate policy to the
//! accuracy of every exit. Two estimators are provided:
//!
//! * [`CalibratedAccuracyModel`] — an analytical model anchored to the
//!   accuracies the paper reports for the CIFAR-10 backbone (64.9 / 72.0 /
//!   73.0 % at full precision and the uniform-vs-nonuniform drops of
//!   Fig. 1(b)). This substitutes for retraining on CIFAR-10, which is not
//!   available in this environment; see `DESIGN.md`.
//! * [`EmpiricalAccuracyEstimator`] — applies the policy to a real
//!   [`ie_nn::MultiExitNetwork`] and measures accuracy on a real dataset, so
//!   the exact same search code also runs end-to-end without the analytical
//!   shortcut (used by the tests and the synthetic examples).

use crate::apply::apply_policy;
use crate::{CompressionPolicy, Result};
use ie_nn::dataset::Sample;
use ie_nn::spec::CompressibleLayer;
use ie_nn::MultiExitNetwork;

/// Maps a compression policy to the accuracy of every exit.
pub trait ExitAccuracyEstimator {
    /// Number of exits the estimator covers.
    fn num_exits(&self) -> usize;

    /// Accuracy (fraction in `[0, 1]`) of each exit under `policy`.
    ///
    /// `layers` are the compressible layers of the architecture in canonical
    /// order; `policy` has one entry per layer.
    ///
    /// # Errors
    ///
    /// Implementations may fail when the policy cannot be applied (length
    /// mismatch, shape problems on a real network, …).
    fn exit_accuracy(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
    ) -> Result<Vec<f64>>;

    /// Batched, sharded variant of [`Self::exit_accuracy`]: estimators that
    /// measure accuracy by actually running a network (the empirical
    /// estimator) stream their calibration set through per-worker
    /// [`ie_nn::BatchPlan`]s across `threads` threads. Results are identical
    /// to [`Self::exit_accuracy`] for every `(batch, threads)` combination —
    /// the batched forward path is bit-identical per sample and the shard
    /// reduction is order-fixed — so this is purely a throughput knob.
    /// Analytical estimators fall back to the plain path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::exit_accuracy`].
    fn exit_accuracy_batched(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
        batch: usize,
        threads: usize,
    ) -> Result<Vec<f64>> {
        let _ = (batch, threads);
        self.exit_accuracy(layers, policy)
    }

    /// Integer-execution variant: estimators that run a real network apply
    /// the policy with [`crate::apply::apply_policy_quantized`] and measure
    /// accuracy through the quantized plans (i8/i16 GEMM + requantization),
    /// so the estimate reflects true integer inference — including
    /// activation quantization, which the fake-quant `f32` round trip does
    /// not model. Analytical estimators fall back to the plain path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::exit_accuracy`].
    fn exit_accuracy_quantized(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
        batch: usize,
        threads: usize,
    ) -> Result<Vec<f64>> {
        let _ = (batch, threads);
        self.exit_accuracy(layers, policy)
    }
}

/// Analytical accuracy model calibrated to the paper's reported numbers.
///
/// Each exit `i` has a full-precision ceiling `A_i`. A policy inflicts a
/// per-layer *damage* `d_l` combining pruning and quantization harm, with
/// convolution layers far more sensitive to low bitwidths than the large,
/// redundant fully-connected layers (which is why the paper's search drives
/// `FC-B21`/`FC-B31` to 1 bit). The exit's accuracy is
/// `A_i · (1 − s_i · Σ_l share_{l,i} · d_l)` where `share_{l,i}` weights each
/// layer by its FLOPs contribution to that exit and `s_i` is the exit's
/// sensitivity — shallow exits have less redundancy and therefore degrade
/// faster, exactly the effect Fig. 1(b) illustrates.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedAccuracyModel {
    max_accuracy: Vec<f64>,
    exit_sensitivity: Vec<f64>,
    prune_weight_conv: f64,
    prune_weight_fc: f64,
    quant_weight_conv: f64,
    quant_weight_fc: f64,
    collapse_weight_conv: f64,
    collapse_weight_fc: f64,
    chance_level: f64,
}

impl CalibratedAccuracyModel {
    /// The calibration used for the paper's 3-exit CIFAR-10 backbone.
    pub fn for_paper_backbone() -> Self {
        CalibratedAccuracyModel {
            max_accuracy: vec![0.649, 0.720, 0.730],
            exit_sensitivity: vec![1.25, 1.0, 0.9],
            prune_weight_conv: 0.08,
            prune_weight_fc: 0.04,
            quant_weight_conv: 0.15,
            quant_weight_fc: 0.03,
            collapse_weight_conv: 1.5,
            collapse_weight_fc: 0.75,
            chance_level: 0.10,
        }
    }

    /// A model with custom per-exit ceilings and default sensitivities — used
    /// for architectures other than the paper backbone (e.g. the tiny test
    /// network).
    pub fn with_ceilings(max_accuracy: Vec<f64>) -> Self {
        let n = max_accuracy.len();
        let exit_sensitivity =
            (0..n).map(|i| 1.25 - 0.35 * i as f64 / (n.max(2) - 1) as f64).collect();
        CalibratedAccuracyModel {
            max_accuracy,
            exit_sensitivity,
            chance_level: 0.10,
            ..Self::for_paper_backbone()
        }
    }

    /// The full-precision ceiling of each exit.
    pub fn ceilings(&self) -> &[f64] {
        &self.max_accuracy
    }

    fn quant_damage(bits: u8) -> f64 {
        if bits >= 8 {
            0.0
        } else {
            let b = f64::from(bits.max(1));
            ((8.0 - b) / 7.0).powi(2)
        }
    }

    fn layer_damage(&self, layer: &CompressibleLayer, policy: &crate::LayerPolicy) -> f64 {
        let (prune_w, quant_w, collapse_w) = if layer.is_conv {
            (self.prune_weight_conv, self.quant_weight_conv, self.collapse_weight_conv)
        } else {
            (self.prune_weight_fc, self.quant_weight_fc, self.collapse_weight_fc)
        };
        let removed = f64::from(1.0 - policy.preserve_ratio.clamp(0.0, 1.0));
        // Moderate pruning is cheap (the quadratic term); pruning away nearly
        // every channel collapses the layer's representational capacity, which
        // the high-order "collapse" term captures. Without it the search would
        // happily prune to the 5 % floor because the cheaper inferences process
        // more events — a behaviour real CIFAR-10 networks do not survive.
        let prune = prune_w * removed.powi(2) + collapse_w * removed.powi(12);
        let quant = quant_w
            * (Self::quant_damage(policy.weight_bits)
                + 0.5 * Self::quant_damage(policy.activation_bits));
        prune + quant
    }
}

impl ExitAccuracyEstimator for CalibratedAccuracyModel {
    fn num_exits(&self) -> usize {
        self.max_accuracy.len()
    }

    fn exit_accuracy(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
    ) -> Result<Vec<f64>> {
        policy.validate(layers.len())?;
        let mut out = Vec::with_capacity(self.num_exits());
        for exit in 0..self.num_exits() {
            let members: Vec<(&CompressibleLayer, &crate::LayerPolicy)> =
                layers.iter().zip(policy.layers()).filter(|(l, _)| l.used_by_exit(exit)).collect();
            let total_macs: f64 = members.iter().map(|(l, _)| l.macs as f64).sum();
            let damage: f64 = if total_macs > 0.0 {
                members
                    .iter()
                    .map(|(l, p)| (l.macs as f64 / total_macs) * self.layer_damage(l, p))
                    .sum()
            } else {
                0.0
            };
            let sens = self.exit_sensitivity.get(exit).copied().unwrap_or(1.0);
            let acc = self.max_accuracy[exit] * (1.0 - sens * damage);
            out.push(acc.max(self.chance_level));
        }
        Ok(out)
    }
}

/// Calibration budget of the quantized path: activation ranges are observed
/// on this many evaluation samples (the estimator's first ones) before the
/// integer plans are built.
const QUANT_CALIBRATION_SAMPLES: usize = 32;

/// Measures exit accuracy by applying the policy to a real network and
/// evaluating it on held-out samples.
///
/// The batched path keeps one [`ie_nn::train::BatchPlanPool`] across calls:
/// compression changes weights but never the architecture, so the per-worker
/// plans warmed by the first candidate policy serve every later one instead
/// of being re-allocated per evaluation. The quantized path keeps a
/// [`ie_nn::train::QuantPlanPool`] the same way — each candidate policy's
/// weight codes are re-packed into the pooled plans' existing buffers.
#[derive(Debug)]
pub struct EmpiricalAccuracyEstimator {
    network: MultiExitNetwork,
    samples: Vec<Sample>,
    plan_pool: std::sync::Mutex<ie_nn::train::BatchPlanPool>,
    quant_plan_pool: std::sync::Mutex<ie_nn::train::QuantPlanPool>,
}

impl Clone for EmpiricalAccuracyEstimator {
    fn clone(&self) -> Self {
        // Plans are per-instance scratch; a clone starts with a cold pool.
        EmpiricalAccuracyEstimator::new(self.network.clone(), self.samples.clone())
    }
}

impl EmpiricalAccuracyEstimator {
    /// Creates an estimator around a trained network and evaluation samples.
    pub fn new(network: MultiExitNetwork, samples: Vec<Sample>) -> Self {
        EmpiricalAccuracyEstimator {
            network,
            samples,
            plan_pool: std::sync::Mutex::new(ie_nn::train::BatchPlanPool::new()),
            quant_plan_pool: std::sync::Mutex::new(ie_nn::train::QuantPlanPool::new()),
        }
    }

    /// The evaluation samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

impl ExitAccuracyEstimator for EmpiricalAccuracyEstimator {
    fn num_exits(&self) -> usize {
        self.network.num_exits()
    }

    fn exit_accuracy(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
    ) -> Result<Vec<f64>> {
        policy.validate(layers.len())?;
        let mut compressed = self.network.clone();
        apply_policy(&mut compressed, policy)?;
        let accs = ie_nn::train::evaluate(&compressed, &self.samples)?;
        Ok(accs.into_iter().map(f64::from).collect())
    }

    fn exit_accuracy_batched(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
        batch: usize,
        threads: usize,
    ) -> Result<Vec<f64>> {
        policy.validate(layers.len())?;
        let mut compressed = self.network.clone();
        apply_policy(&mut compressed, policy)?;
        // A panicked evaluation must not brick the estimator: the pooled
        // plans are plain buffers, safe to reuse after a poisoned lock.
        let mut pool = self.plan_pool.lock().unwrap_or_else(|e| e.into_inner());
        let accs =
            ie_nn::train::evaluate_batched(&compressed, &self.samples, batch, threads, &mut pool)?;
        Ok(accs.into_iter().map(f64::from).collect())
    }

    fn exit_accuracy_quantized(
        &self,
        layers: &[CompressibleLayer],
        policy: &CompressionPolicy,
        batch: usize,
        threads: usize,
    ) -> Result<Vec<f64>> {
        policy.validate(layers.len())?;
        let mut compressed = self.network.clone();
        let calibration = &self.samples[..self.samples.len().min(QUANT_CALIBRATION_SAMPLES)];
        let config = crate::apply::apply_policy_quantized(&mut compressed, policy, calibration)?;
        // As for the batched pool: buffers survive a poisoned lock fine.
        let mut pool = self.quant_plan_pool.lock().unwrap_or_else(|e| e.into_inner());
        let accs = ie_nn::train::evaluate_quantized(
            &compressed,
            &config,
            &self.samples,
            batch,
            threads,
            &mut pool,
        )?;
        Ok(accs.into_iter().map(f64::from).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompressionPolicy;
    use ie_nn::spec::lenet_multi_exit;

    fn layers() -> Vec<CompressibleLayer> {
        lenet_multi_exit().compressible_layers()
    }

    #[test]
    fn full_precision_hits_the_paper_ceilings() {
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        let acc = model.exit_accuracy(&ls, &CompressionPolicy::full_precision(ls.len())).unwrap();
        assert!((acc[0] - 0.649).abs() < 1e-9);
        assert!((acc[1] - 0.720).abs() < 1e-9);
        assert!((acc[2] - 0.730).abs() < 1e-9);
    }

    #[test]
    fn uniform_compression_degrades_shallow_exits_most() {
        // Fig. 1(b): uniform compression costs exit 1 ≈7.6 points and exit 3 ≈5.5.
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        let uniform = CompressionPolicy::uniform(ls.len(), 0.7, 4, 4).unwrap();
        let acc = model.exit_accuracy(&ls, &uniform).unwrap();
        let drop1 = 0.649 - acc[0];
        let drop3 = 0.730 - acc[2];
        assert!(drop1 > drop3, "shallow exit must lose more: {drop1} vs {drop3}");
        assert!((0.04..0.12).contains(&drop1), "exit-1 drop {drop1}");
        assert!((0.03..0.10).contains(&drop3), "exit-3 drop {drop3}");
        // Accuracies stay in the plausible Fig. 1(b) band.
        assert!((0.55..0.62).contains(&acc[0]), "uniform exit-1 accuracy {}", acc[0]);
        assert!((0.63..0.70).contains(&acc[2]), "uniform exit-3 accuracy {}", acc[2]);
    }

    #[test]
    fn nonuniform_compression_beats_uniform_at_every_exit() {
        // Compress the shallow (exit-1) layers less and the deep layers more,
        // as the paper's nonuniform policy does.
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        let uniform = CompressionPolicy::uniform(ls.len(), 0.7, 4, 4).unwrap();
        let nonuniform: CompressionPolicy = ls
            .iter()
            .map(|l| {
                if l.first_exit() == 0 {
                    crate::LayerPolicy::new(0.9, 8, 8).unwrap()
                } else if l.is_conv {
                    crate::LayerPolicy::new(0.6, 6, 6).unwrap()
                } else {
                    crate::LayerPolicy::new(0.6, 2, 6).unwrap()
                }
            })
            .collect();
        let acc_u = model.exit_accuracy(&ls, &uniform).unwrap();
        let acc_n = model.exit_accuracy(&ls, &nonuniform).unwrap();
        for (i, (u, n)) in acc_u.iter().zip(&acc_n).enumerate() {
            assert!(n > u, "exit {i}: nonuniform {n} must beat uniform {u}");
        }
    }

    #[test]
    fn one_bit_fc_layers_are_cheap_but_one_bit_convs_are_not() {
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        let mut fc_one_bit = CompressionPolicy::full_precision(ls.len());
        let mut conv_one_bit = CompressionPolicy::full_precision(ls.len());
        for (i, l) in ls.iter().enumerate() {
            if !l.is_conv {
                fc_one_bit.layers_mut()[i] = crate::LayerPolicy::new(1.0, 1, 8).unwrap();
            } else {
                conv_one_bit.layers_mut()[i] = crate::LayerPolicy::new(1.0, 1, 8).unwrap();
            }
        }
        let acc_fc = model.exit_accuracy(&ls, &fc_one_bit).unwrap();
        let acc_conv = model.exit_accuracy(&ls, &conv_one_bit).unwrap();
        let drop_fc = 0.730 - acc_fc[2];
        let drop_conv = 0.730 - acc_conv[2];
        assert!(drop_fc < 0.03, "1-bit FC layers should be nearly free: {drop_fc}");
        assert!(drop_conv > 2.0 * drop_fc, "1-bit convs must hurt much more: {drop_conv}");
    }

    #[test]
    fn accuracy_never_falls_below_chance() {
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        let brutal = CompressionPolicy::uniform(ls.len(), 0.05, 1, 1).unwrap();
        let acc = model.exit_accuracy(&ls, &brutal).unwrap();
        assert!(acc.iter().all(|&a| a >= 0.10));
    }

    #[test]
    fn policy_length_is_validated() {
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let ls = layers();
        assert!(model.exit_accuracy(&ls, &CompressionPolicy::full_precision(2)).is_err());
    }

    #[test]
    fn with_ceilings_builds_matching_sensitivities() {
        let m = CalibratedAccuracyModel::with_ceilings(vec![0.8, 0.9]);
        assert_eq!(m.num_exits(), 2);
        assert_eq!(m.ceilings(), &[0.8, 0.9]);
    }

    #[test]
    fn empirical_estimator_matches_real_network_behaviour() {
        use ie_nn::dataset::SyntheticDataset;
        use ie_nn::spec::tiny_multi_exit;
        use ie_nn::train::{train, BatchBackwardPlan, TrainConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let data = SyntheticDataset::generate(3, 8, 120, 0.05, 8);
        let arch = tiny_multi_exit(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
        let mut cfg = TrainConfig::for_exits(2);
        cfg.epochs = 5;
        cfg.learning_rate = 0.1;
        let mut plan = BatchBackwardPlan::new();
        train(&mut net, data.train(), data.test(), &cfg, 1, &mut plan).unwrap();

        let estimator = EmpiricalAccuracyEstimator::new(net, data.test().to_vec());
        let ls = arch.compressible_layers();
        let full =
            estimator.exit_accuracy(&ls, &CompressionPolicy::full_precision(ls.len())).unwrap();
        let crushed = estimator
            .exit_accuracy(&ls, &CompressionPolicy::uniform(ls.len(), 0.05, 1, 1).unwrap())
            .unwrap();
        assert!(full.iter().all(|&a| a > 0.5), "trained network beats chance: {full:?}");
        let mean_full: f64 = full.iter().sum::<f64>() / full.len() as f64;
        let mean_crushed: f64 = crushed.iter().sum::<f64>() / crushed.len() as f64;
        assert!(
            mean_crushed <= mean_full + 1e-9,
            "extreme compression cannot improve mean accuracy: {mean_crushed} vs {mean_full}"
        );
    }
}

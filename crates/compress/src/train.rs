//! Quantization-aware finetuning of a pruned network (the paper's "retrain
//! to recover accuracy" step).
//!
//! [`finetune_compressed`] prunes the network in place, derives the
//! fake-quant configuration a [`CompressionPolicy`] implies (MSE-searched
//! weight scales, calibrated activation ranges) and then runs the batched
//! training engine with **fake-quant-in-the-loop**: every forward pass sees
//! the quantize→dequantize round trip of weights and input activations while
//! the straight-through gradients update the full-precision master weights.
//! Pruned channels are removed from their layers, so the training step runs
//! each pruned convolution at its kept width and gives every pruned weight a
//! gradient of exactly `+0.0`: the sparsity structure the policy chose
//! survives finetuning without being re-imposed.

use crate::apply::{calibrated_config, prune_layer};
use crate::quantize::quantize_weights;
use crate::{CompressError, CompressionPolicy, Result};
use ie_nn::dataset::Sample;
use ie_nn::quant::QuantConfig;
use ie_nn::train::BatchBackwardPlan;
use ie_nn::MultiExitNetwork;

/// Widest weight bitwidth the fake-quant training plan models; wider layers
/// train in full precision (their policy entry becomes a `None` config).
const MAX_FAKE_QUANT_WEIGHT_BITS: u8 = 16;
/// Widest activation bitwidth the shared [`QuantParams`] code map supports;
/// wider activation policies are clamped to it during finetuning.
const MAX_FAKE_QUANT_ACT_BITS: u8 = ie_tensor::quant::MAX_ACT_BITS;

/// Hyper-parameters of a finetuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate (constant across the run).
    pub learning_rate: f32,
    /// Per-exit loss weights, one per exit.
    pub exit_weights: Vec<f32>,
    /// Worker threads for the batched backward pass. Results are
    /// byte-identical for any value ≥ 1.
    pub threads: usize,
}

impl FinetuneConfig {
    /// A small default run: 2 epochs, batches of 8, equal exit weights.
    pub fn for_exits(exits: usize) -> Self {
        FinetuneConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 0.05,
            exit_weights: vec![1.0; exits.max(1)],
            threads: 1,
        }
    }
}

/// What a finetuning run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneOutcome {
    /// The fake-quant configuration derived from the policy — pass it to
    /// [`ie_nn::train::BatchBackwardPlan::fake_quant`] to continue training,
    /// or use its scales to deploy the integer model.
    pub quant: QuantConfig,
    /// Mean training loss per epoch.
    pub epoch_loss: Vec<f32>,
}

/// Prunes `network` in place per `policy` and derives the fake-quant
/// configuration: per-layer MSE-searched weight scales (on the pruned
/// weights) plus activation ranges calibrated on `calibration`. Master
/// weights stay full precision — quantization is applied inside the training
/// forward pass, not to the stored tensors.
fn prepare(
    network: &mut MultiExitNetwork,
    policy: &CompressionPolicy,
    calibration: &[Sample],
) -> Result<QuantConfig> {
    let expected = network.architecture().compressible_layers().len();
    policy.validate(expected)?;
    if calibration.is_empty() {
        return Err(CompressError::EmptyCalibrationSet);
    }
    let mut scales = Vec::with_capacity(expected);
    for (layer, entry) in network.compressible_layers_mut().zip(policy.layers()) {
        let weight = prune_layer(layer, entry.preserve_ratio)?;
        scales.push((entry.weight_bits <= MAX_FAKE_QUANT_WEIGHT_BITS).then(|| {
            let scale = quantize_weights(weight, entry.weight_bits).scale;
            (entry.weight_bits, scale, entry.activation_bits.min(MAX_FAKE_QUANT_ACT_BITS))
        }));
    }
    calibrated_config(network, calibration, scales)
}

/// Prunes `network` per `policy` and finetunes it with
/// fake-quant-in-the-loop so the surviving weights adapt to the quantization
/// grid the policy imposes.
///
/// A pruned weight's gradient is exactly `+0.0`, so the returned network
/// has exactly the sparsity structure `policy` chose, recorded in its layers'
/// pruned channels; its weights are full-precision masters whose
/// quantize→dequantize round trip
/// (per the returned [`QuantConfig`]'s scales) is what the deployed integer
/// model computes with.
///
/// # Errors
///
/// Returns [`CompressionPolicy::validate`]'s errors for a policy that does
/// not cover every parameterised layer or has an out-of-range entry,
/// [`CompressError::EmptyCalibrationSet`] when no calibration samples are
/// given, and propagates training errors as [`CompressError::Nn`].
pub fn finetune_compressed(
    network: &mut MultiExitNetwork,
    policy: &CompressionPolicy,
    train_set: &[Sample],
    calibration: &[Sample],
    config: &FinetuneConfig,
) -> Result<FinetuneOutcome> {
    let quant = prepare(network, policy, calibration)?;
    let mut plan = BatchBackwardPlan::fake_quant(quant.clone());
    let batch_size = config.batch_size.max(1);
    // Grown as epochs finish: an absurd epoch count must not reserve its
    // whole history up front.
    let mut epoch_loss = Vec::new();
    for _ in 0..config.epochs {
        let mut total = 0.0f32;
        let mut count = 0usize;
        for batch in train_set.chunks(batch_size) {
            total += plan.train_step(
                network,
                batch,
                &config.exit_weights,
                config.learning_rate,
                config.threads,
            )?;
            count += batch.len();
        }
        epoch_loss.push(if count == 0 { 0.0 } else { total / count as f32 });
    }
    Ok(FinetuneOutcome { quant, epoch_loss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerPolicy;
    use ie_nn::dataset::SyntheticDataset;
    use ie_nn::spec::tiny_multi_exit;
    use ie_nn::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    fn aggressive_policy(n: usize) -> CompressionPolicy {
        let mut policy = CompressionPolicy::full_precision(n);
        policy.layers_mut()[1] = LayerPolicy::new(0.5, 4, 8).unwrap();
        policy.layers_mut()[2] = LayerPolicy::new(0.5, 8, 8).unwrap();
        policy
    }

    #[test]
    fn finetuning_reduces_loss_and_preserves_pruned_channels() {
        let mut net = network(40);
        let n = net.architecture().compressible_layers().len();
        let policy = aggressive_policy(n);
        let data = SyntheticDataset::generate(3, 8, 60, 0.05, 41);
        let mut config = FinetuneConfig::for_exits(2);
        config.epochs = 4;
        config.learning_rate = 0.1;
        let outcome =
            finetune_compressed(&mut net, &policy, data.train(), data.test(), &config).unwrap();
        assert_eq!(outcome.quant.len(), n);
        assert!(outcome.quant.layers()[1].is_some());
        assert!(outcome.quant.layers()[0].is_none(), "32-bit layer trains in full precision");
        assert_eq!(outcome.epoch_loss.len(), 4);
        assert!(
            outcome.epoch_loss.last().unwrap() < &outcome.epoch_loss[0],
            "finetuning loss did not decrease: {:?}",
            outcome.epoch_loss
        );
        // The pruned channels survive training as exact zeros.
        let conv2 = net.segments()[1]
            .iter()
            .find_map(|l| match l {
                Layer::Conv2d(c) => Some(c),
                _ => None,
            })
            .unwrap();
        let block = conv2.geometry().kernel * conv2.geometry().kernel;
        let row = conv2.in_channels() * block;
        assert!(!conv2.pruned_channels().is_empty());
        for filter in conv2.weight().as_slice().chunks_exact(row) {
            for &c in conv2.pruned_channels() {
                let pruned = &filter[c * block..(c + 1) * block];
                assert!(
                    pruned.iter().all(|w| w.to_bits() == 0),
                    "pruned channel {c} was resurrected by finetuning"
                );
            }
        }
    }

    #[test]
    fn finetuning_is_byte_identical_across_worker_counts() {
        let n = network(42).architecture().compressible_layers().len();
        let policy = aggressive_policy(n);
        let data = SyntheticDataset::generate(3, 8, 40, 0.05, 43);
        let mut bits: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 4] {
            let mut net = network(42);
            let mut config = FinetuneConfig::for_exits(2);
            config.threads = threads;
            let outcome =
                finetune_compressed(&mut net, &policy, data.train(), data.test(), &config).unwrap();
            let mut all = Vec::new();
            for exit in 0..net.num_exits() {
                for layer in net.segments()[exit].iter().chain(&net.branches()[exit]) {
                    let w = match layer {
                        Layer::Conv2d(c) => c.weight(),
                        Layer::Dense(d) => d.weight(),
                        _ => continue,
                    };
                    all.extend(w.as_slice().iter().map(|v| v.to_bits()));
                }
            }
            all.extend(outcome.epoch_loss.iter().map(|v| v.to_bits()));
            bits.push(all);
        }
        assert_eq!(bits[0], bits[1], "finetuning diverged across worker counts");
    }

    #[test]
    fn finetuning_validates_policy_and_calibration() {
        let mut net = network(44);
        let data = SyntheticDataset::generate(3, 8, 10, 0.05, 45);
        let config = FinetuneConfig::for_exits(2);
        let short = CompressionPolicy::full_precision(1);
        assert!(matches!(
            finetune_compressed(&mut net, &short, data.train(), data.test(), &config),
            Err(CompressError::PolicyLengthMismatch { .. })
        ));
        let n = net.architecture().compressible_layers().len();
        let ok = CompressionPolicy::full_precision(n);
        assert!(matches!(
            finetune_compressed(&mut net, &ok, data.train(), &[], &config),
            Err(CompressError::EmptyCalibrationSet)
        ));
    }
}

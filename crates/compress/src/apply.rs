//! Applies a [`CompressionPolicy`] to the weights of a real
//! [`ie_nn::MultiExitNetwork`].
//!
//! Pruned input channels are removed from their layer (zeroed, and skipped
//! by the `f32` convolution kernels) and weights are passed through the
//! quantize→dequantize round trip, so the compressed network computes
//! exactly what the deployed integer model would.

use crate::pruning::prune_weight;
use crate::quantize::quantize_weights;
use crate::{CompressError, CompressionPolicy, Result};
use ie_nn::dataset::Sample;
use ie_nn::quant::{LayerQuantConfig, QuantConfig, QuantKernel};
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::quant::MAX_ACT_BITS;
use ie_tensor::{QuantParams, Tensor};

/// Applies `policy` to `network` in place.
///
/// The policy's entries must be in the canonical compressible-layer order of
/// the network's architecture (trunk segment 0, branch 0, trunk segment 1, …),
/// which is the order `MultiExitArchitecture::compressible_layers` reports.
///
/// # Errors
///
/// Returns [`CompressionPolicy::validate`]'s errors for a policy that does
/// not cover every parameterised layer or has an out-of-range entry.
pub fn apply_policy(network: &mut MultiExitNetwork, policy: &CompressionPolicy) -> Result<()> {
    policy.validate(network.architecture().compressible_layers().len())?;
    for (layer, entry) in network.compressible_layers_mut().zip(policy.layers()) {
        let weight = prune_layer(layer, entry.preserve_ratio)?;
        *weight = quantize_weights(weight, entry.weight_bits).values;
    }
    Ok(())
}

/// The prune step every policy applier shares: zeroes the least important
/// input channels of one compressible layer to `preserve_ratio`, records
/// them as the layer's pruned channels, and hands back the layer's weights.
///
/// From then on a pruned convolution lowers and multiplies only its kept
/// channels, and training gives every pruned weight a gradient of `+0.0`, so
/// the pruned channels stay zero without being re-zeroed.
pub(crate) fn prune_layer(layer: &mut Layer, preserve_ratio: f32) -> Result<&mut Tensor> {
    match layer {
        Layer::Conv2d(conv) => {
            let pruned = prune_weight(conv.weight_mut(), preserve_ratio);
            conv.set_pruned_channels(&pruned)?;
            Ok(conv.weight_mut())
        }
        Layer::Dense(dense) => {
            let pruned = prune_weight(dense.weight_mut(), preserve_ratio);
            dense.set_pruned_channels(&pruned)?;
            Ok(dense.weight_mut())
        }
        _ => unreachable!("the compressible-layer walk yields only conv and dense layers"),
    }
}

/// Observed `[min, max]` ranges of every compressible layer's input
/// activation (canonical order), measured by running the calibration samples
/// through the network's allocating forward path.
fn calibrate_ranges(
    network: &MultiExitNetwork,
    samples: &[Sample],
    layers: usize,
) -> Result<Vec<(f32, f32)>> {
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); layers];
    let mut record = |index: usize, act: &ie_tensor::Tensor| {
        let (min, max) = ranges[index];
        let (mut lo, mut hi) = (min, max);
        for &v in act.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        ranges[index] = (lo, hi);
    };
    for sample in samples {
        let mut trunk = sample.image.clone();
        let mut index = 0usize;
        for exit in 0..network.num_exits() {
            for layer in &network.segments()[exit] {
                if layer.is_parameterised() {
                    record(index, &trunk);
                    index += 1;
                }
                trunk = layer.forward(&trunk)?;
            }
            let mut act = trunk.clone();
            for layer in &network.branches()[exit] {
                if layer.is_parameterised() {
                    record(index, &act);
                    index += 1;
                }
                act = layer.forward(&act)?;
            }
        }
    }
    Ok(ranges)
}

/// Applies `policy` to `network` for **quantized (integer) execution**:
/// prunes in place, then returns the [`QuantConfig`] that hands the
/// execution plans real integer parameters — per-layer weight scales plus
/// calibrated activation scale/zero-point — instead of dequantized `f32`
/// weights.
///
/// Layers whose policy assigns ≤16-bit weights **and** ≤8-bit activations
/// run the i8/i16 kernels; their `f32` weights stay pruned-but-unquantized
/// (the plan packs integer codes from them via the shared
/// [`ie_tensor::weight_code`] map, using the same MSE-searched scale as the
/// fake-quant path). Wider layers fall back to the `f32` kernels and get the
/// usual fake-quant round trip, so an arbitrary policy mix stays faithful.
/// Activation ranges are observed by running `calibration` through the
/// pruned network.
///
/// # Errors
///
/// Returns [`CompressionPolicy::validate`]'s errors for a policy that does
/// not cover every parameterised layer or has an out-of-range entry, and
/// [`CompressError::EmptyCalibrationSet`] when no calibration samples are
/// given.
pub fn apply_policy_quantized(
    network: &mut MultiExitNetwork,
    policy: &CompressionPolicy,
    calibration: &[Sample],
) -> Result<QuantConfig> {
    let expected = network.architecture().compressible_layers().len();
    policy.validate(expected)?;
    if calibration.is_empty() {
        return Err(CompressError::EmptyCalibrationSet);
    }
    // Prune in place; integer-kernel layers keep pruned f32 weights and
    // record their MSE-searched scale, f32-kernel layers get the usual
    // fake-quant round trip.
    let mut weight_quant = Vec::with_capacity(expected);
    for (layer, entry) in network.compressible_layers_mut().zip(policy.layers()) {
        let weight = prune_layer(layer, entry.preserve_ratio)?;
        let q = quantize_weights(weight, entry.weight_bits);
        let integer = QuantKernel::for_weight_bits(entry.weight_bits).is_some()
            && entry.activation_bits <= MAX_ACT_BITS;
        weight_quant.push(if integer {
            Some((entry.weight_bits, q.scale, entry.activation_bits))
        } else {
            *weight = q.values;
            None
        });
    }
    calibrated_config(network, calibration, weight_quant)
}

/// Assembles the [`QuantConfig`] of a pruned network: pairs each layer's
/// `(weight bits, weight scale, activation bits)` — `None` keeps the layer on
/// `f32` — with the input range `calibration` produces on `network`.
pub(crate) fn calibrated_config(
    network: &MultiExitNetwork,
    calibration: &[Sample],
    weight_quant: Vec<Option<(u8, f32, u8)>>,
) -> Result<QuantConfig> {
    let ranges = calibrate_ranges(network, calibration, weight_quant.len())?;
    let layers = weight_quant.into_iter().zip(ranges).map(|(entry, (min, max))| {
        entry.map(|(weight_bits, weight_scale, act_bits)| LayerQuantConfig {
            weight_bits,
            weight_scale,
            // Zero must stay representable (post-ReLU activations include it
            // and the quantized im2col pads with the zero point), so the
            // range always includes it.
            input: QuantParams::from_range(min.min(0.0), max.max(0.0), act_bits),
        })
    });
    Ok(QuantConfig::from_layers(layers.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressionPolicy, LayerPolicy};
    use ie_nn::spec::tiny_multi_exit;
    use ie_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    #[test]
    fn identity_policy_leaves_outputs_unchanged() {
        let net = network(3);
        let mut compressed = net.clone();
        let n = net.architecture().compressible_layers().len();
        apply_policy(&mut compressed, &CompressionPolicy::full_precision(n)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let a = net.forward_all(&x).unwrap();
        let b = compressed.forward_all(&x).unwrap();
        for (oa, ob) in a.iter().zip(&b) {
            for (va, vb) in oa.logits.as_slice().iter().zip(ob.logits.as_slice()) {
                assert!((va - vb).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn aggressive_policy_changes_weights_and_zeroes_channels() {
        let mut net = network(4);
        let n = net.architecture().compressible_layers().len();
        let policy = CompressionPolicy::uniform(n, 0.5, 2, 8).unwrap();
        apply_policy(&mut net, &policy).unwrap();
        // The second conv layer (trunk segment 1) must have some zeroed input channels.
        let conv2 = net.segments()[1]
            .iter()
            .find_map(|l| match l {
                Layer::Conv2d(c) => Some(c),
                _ => None,
            })
            .expect("segment 1 contains a conv layer");
        let dims = conv2.weight().dims().to_vec();
        let per_channel: Vec<f32> = (0..dims[1])
            .map(|ic| {
                let mut s = 0.0;
                for oc in 0..dims[0] {
                    for ky in 0..dims[2] {
                        for kx in 0..dims[3] {
                            s += conv2.weight().get(&[oc, ic, ky, kx]).unwrap().abs();
                        }
                    }
                }
                s
            })
            .collect();
        let zeroed = per_channel.iter().filter(|&&s| s == 0.0).count();
        assert!(
            zeroed >= dims[1] / 2 - 1,
            "expected roughly half the channels zeroed, got {zeroed}"
        );
    }

    #[test]
    fn quantized_mode_hands_plans_integer_parameters() {
        use ie_nn::dataset::SyntheticDataset;

        let net = network(7);
        let n = net.architecture().compressible_layers().len();
        let data = SyntheticDataset::generate(3, 8, 20, 0.05, 7);
        // Mixed policy: 8-bit (i8), 12-bit (i16) and 32-bit (f32) layers;
        // Conv2 (canonical index 2, 4 input channels) is also pruned.
        let mut policy = CompressionPolicy::full_precision(n);
        policy.layers_mut()[0] = LayerPolicy::new(1.0, 8, 8).unwrap();
        policy.layers_mut()[1] = LayerPolicy::new(1.0, 12, 8).unwrap();
        policy.layers_mut()[2] = LayerPolicy::new(0.5, 8, 8).unwrap();
        let mut quantized_net = net.clone();
        let cfg = apply_policy_quantized(&mut quantized_net, &policy, data.train()).unwrap();
        assert_eq!(cfg.len(), n);
        let entry0 = cfg.layers()[0].expect("8-bit layer is quantized");
        assert_eq!(entry0.weight_bits, 8);
        assert!(entry0.weight_scale > 0.0);
        assert!(entry0.input.scale() > 0.0);
        assert!(cfg.layers()[1].is_some(), "12-bit layer runs the i16 kernel");
        assert!(cfg.layers()[3].is_none(), "32-bit layer stays f32");
        // Integer layers keep pruned f32 weights (codes are packed by the
        // plan); the pruned channels are still zeroed.
        let conv2 = quantized_net.segments()[1]
            .iter()
            .find_map(|l| match l {
                Layer::Conv2d(c) => Some(c),
                _ => None,
            })
            .unwrap();
        assert!(!conv2.pruned_channels().is_empty());
        let zeros = conv2.weight().as_slice().iter().filter(|&&w| w == 0.0).count();
        assert!(zeros > 0, "pruning still zeroes channels in quantized mode");
        // The config drives a working quantized plan.
        let mut plan = quantized_net.execution_plan_quantized(&cfg).unwrap();
        let out = quantized_net.forward_to_exit_with(&mut plan, &data.train()[0].image, 0).unwrap();
        assert!(out.confidence.is_finite());
        // No calibration samples is an explicit error.
        let mut other = net.clone();
        assert!(matches!(
            apply_policy_quantized(&mut other, &policy, &[]),
            Err(CompressError::EmptyCalibrationSet)
        ));
    }

    #[test]
    fn policy_length_mismatch_is_rejected() {
        let mut net = network(5);
        let err = apply_policy(&mut net, &CompressionPolicy::full_precision(1)).unwrap_err();
        assert!(matches!(err, crate::CompressError::PolicyLengthMismatch { .. }));
    }

    #[test]
    fn per_layer_policies_apply_in_canonical_order() {
        // Give the very first compressible layer (Conv1) 1-bit weights and leave
        // the rest untouched: only Conv1's weights should collapse to two levels.
        let mut net = network(6);
        let n = net.architecture().compressible_layers().len();
        let mut policy = CompressionPolicy::full_precision(n);
        policy.layers_mut()[0] = LayerPolicy::new(1.0, 1, 32).unwrap();
        apply_policy(&mut net, &policy).unwrap();
        let conv1 = net.segments()[0]
            .iter()
            .find_map(|l| match l {
                Layer::Conv2d(c) => Some(c),
                _ => None,
            })
            .unwrap();
        let distinct: std::collections::BTreeSet<i64> =
            conv1.weight().as_slice().iter().map(|v| (v * 1e5).round() as i64).collect();
        assert!(distinct.len() <= 3, "1-bit weights collapse to ≤2 magnitudes (plus zero)");
        // A dense layer elsewhere keeps many distinct values.
        let fc = net.branches()[0]
            .iter()
            .find_map(|l| match l {
                Layer::Dense(d) => Some(d),
                _ => None,
            })
            .unwrap();
        let distinct_fc: std::collections::BTreeSet<i64> =
            fc.weight().as_slice().iter().map(|v| (v * 1e5).round() as i64).collect();
        assert!(distinct_fc.len() > 10);
    }
}

//! Property-based tests of pruning, quantization and policy evaluation.

use ie_compress::{
    pruning, quantize, CalibratedAccuracyModel, CompressionPolicy, ExitAccuracyEstimator,
    LayerPolicy, PolicyEvaluator,
};
use ie_nn::spec::lenet_multi_exit;
use ie_tensor::Tensor;
use proptest::prelude::*;

fn arb_weight_matrix() -> impl Strategy<Value = Tensor> {
    (2usize..10, 2usize..10).prop_flat_map(|(o, c)| {
        proptest::collection::vec(-2.0f32..2.0, o * c)
            .prop_map(move |data| Tensor::from_vec(data, &[o, c]).expect("length matches"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pruning keeps exactly the requested number of channels and always
    /// removes the least-important ones first.
    #[test]
    fn pruning_respects_ratio_and_importance(w in arb_weight_matrix(), ratio in 0.05f32..1.0) {
        let channels = w.dims()[1];
        let importance = pruning::channel_importance(&w);
        let pruned = pruning::select_pruned_channels(&importance, ratio);
        let kept = channels - pruned.len();
        let expected_kept = ((channels as f32 * ratio).round() as usize).clamp(1, channels);
        prop_assert_eq!(kept, expected_kept);
        // Every pruned channel is no more important than every kept channel.
        let max_pruned = pruned.iter().map(|&i| importance[i]).fold(f32::NEG_INFINITY, f32::max);
        let min_kept = (0..channels)
            .filter(|i| !pruned.contains(i))
            .map(|i| importance[i])
            .fold(f32::INFINITY, f32::min);
        if !pruned.is_empty() {
            prop_assert!(max_pruned <= min_kept + 1e-6);
        }
    }

    /// The quantize→dequantize round trip never increases the dynamic range
    /// and its error shrinks (weakly) as bitwidth grows.
    #[test]
    fn quantization_error_shrinks_with_bits(w in arb_weight_matrix()) {
        let max_abs = w.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mut previous = f32::INFINITY;
        for bits in [1u8, 2, 4, 6, 8] {
            let q = quantize::quantize_weights(&w, bits);
            // The scale search is a finite grid, so monotonicity holds up to a
            // small approximation slack.
            prop_assert!(
                q.mse <= previous * 1.05 + 1e-6,
                "mse must not grow materially with more bits: {} -> {}",
                previous,
                q.mse
            );
            previous = q.mse;
            // The MSE-optimal scale may slightly exceed the max-abs scale for
            // sparse tensors, so the bound carries the search range's slack.
            let q_max = q.values.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            prop_assert!(q_max <= max_abs * 1.7 + 1e-4, "quantized range stays bounded: {q_max} vs {max_abs}");
        }
        // 32 bits is lossless.
        prop_assert_eq!(quantize::quantize_weights(&w, 32).mse, 0.0);
    }

    /// The quantize→dequantize round trip of every bitwidth 1..=16 lands
    /// within the quantizer's step size of the original value: half a step
    /// for the rounding quantizers (bits ≥ 2), one step for the two-level
    /// binary quantizer, plus the unavoidable saturation excess for values
    /// beyond the chosen scale's representable range.
    #[test]
    fn quantize_roundtrip_error_is_bounded_by_the_step_size(
        w in arb_weight_matrix(),
        bits in 1u8..=16,
    ) {
        let q = quantize::quantize_weights(&w, bits);
        prop_assert!(q.scale > 0.0 && q.scale.is_finite());
        let hi = if bits == 1 { 1.0f32 } else { ((1i64 << (bits - 1)) - 1) as f32 };
        let step_bound = if bits == 1 { q.scale } else { q.scale * 0.5 };
        for (&orig, &val) in w.as_slice().iter().zip(q.values.as_slice()) {
            let saturation = (orig.abs() - q.scale * hi).max(0.0);
            let err = (val - orig).abs();
            prop_assert!(
                err <= saturation + step_bound + 1e-4,
                "bits {}: |{} -> {}| = {} exceeds saturation {} + step bound {}",
                bits, orig, val, err, saturation, step_bound
            );
        }
    }

    /// Storage accounting: fewer bits or fewer parameters never increases the
    /// byte count.
    #[test]
    fn storage_bytes_is_monotone(params in 1u64..1_000_000, bits in 1u8..32) {
        let base = quantize::storage_bytes(params, bits);
        prop_assert!(quantize::storage_bytes(params, bits + 1) >= base);
        prop_assert!(quantize::storage_bytes(params + 1, bits) >= base);
        prop_assert!(base >= params / 8);
    }

    /// The calibrated accuracy model is monotone: uniformly loosening a policy
    /// (keeping more channels, more bits) never reduces any exit's accuracy.
    #[test]
    fn accuracy_model_is_monotone_in_policy(ratio in 0.05f32..0.95, bits in 1u8..8) {
        let arch = lenet_multi_exit();
        let layers = arch.compressible_layers();
        let model = CalibratedAccuracyModel::for_paper_backbone();
        let tight = CompressionPolicy::uniform(layers.len(), ratio, bits, bits).expect("valid");
        let loose = CompressionPolicy::uniform(
            layers.len(),
            (ratio + 0.05).min(1.0),
            (bits + 1).min(8),
            (bits + 1).min(8),
        ).expect("valid");
        let acc_tight = model.exit_accuracy(&layers, &tight).expect("evaluates");
        let acc_loose = model.exit_accuracy(&layers, &loose).expect("evaluates");
        for (t, l) in acc_tight.iter().zip(&acc_loose) {
            prop_assert!(l + 1e-9 >= *t, "loosening the policy cannot hurt accuracy: {t} -> {l}");
        }
    }

    /// Policy evaluation scales FLOPs linearly with a uniform preserve ratio
    /// and size linearly with the bitwidth.
    #[test]
    fn evaluator_cost_scaling(ratio in 0.1f32..1.0, bits in 1u8..8) {
        let arch = lenet_multi_exit();
        let evaluator = PolicyEvaluator::new(&arch, CalibratedAccuracyModel::for_paper_backbone());
        let n = evaluator.layers().len();
        let policy = CompressionPolicy::uniform(n, ratio, bits, 8).expect("valid");
        let profile = evaluator.evaluate(&policy).expect("evaluates");
        let full = evaluator.evaluate(&CompressionPolicy::full_precision(n)).expect("evaluates");
        let flops_ratio = profile.total_flops as f64 / full.total_flops as f64;
        prop_assert!((flops_ratio - f64::from(ratio)).abs() < 0.02, "flops ratio {flops_ratio} vs {ratio}");
        let size_ratio = profile.model_size_bytes as f64 / full.model_size_bytes as f64;
        let expected = f64::from(ratio) * f64::from(bits) / 32.0;
        prop_assert!((size_ratio - expected).abs() < 0.02, "size ratio {size_ratio} vs {expected}");
    }

    /// Snapping a policy always lands on the legal action grid.
    #[test]
    fn snapped_policies_are_on_the_grid(ratio in 0.0f32..1.5, wbits in 0u8..40, abits in 0u8..40) {
        let snapped = LayerPolicy { preserve_ratio: ratio, weight_bits: wbits, activation_bits: abits }.snapped();
        prop_assert!(snapped.preserve_ratio >= 0.05 - 1e-6 && snapped.preserve_ratio <= 1.0 + 1e-6);
        let steps = snapped.preserve_ratio / 0.05;
        prop_assert!((steps - steps.round()).abs() < 1e-3, "ratio {} is on the 0.05 grid", snapped.preserve_ratio);
        if wbits <= 8 {
            prop_assert!(snapped.weight_bits >= 1 && snapped.weight_bits <= 8);
        }
    }
}

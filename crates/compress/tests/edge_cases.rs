//! Edge-case unit tests for the compression primitives: policy validation
//! boundaries and the extreme 1-bit quantization path.

use ie_compress::apply::{apply_policy, apply_policy_quantized};
use ie_compress::{
    finetune_compressed, quantize, CompressError, CompressionPolicy, EmpiricalAccuracyEstimator,
    FinetuneConfig, LayerPolicy, PolicyEvaluator,
};
use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::MultiExitNetwork;
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn layer_policy_rejects_invalid_preserve_ratios() {
    for ratio in [0.0f32, 0.0499, -0.3, 1.0001, 2.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let err = LayerPolicy::new(ratio, 8, 8).expect_err("ratio must be rejected");
        assert!(
            matches!(err, CompressError::InvalidPreserveRatio { .. }),
            "ratio {ratio} produced the wrong error: {err:?}"
        );
    }
    // The boundaries themselves are legal.
    assert!(LayerPolicy::new(0.05, 8, 8).is_ok());
    assert!(LayerPolicy::new(1.0, 8, 8).is_ok());
}

#[test]
fn layer_policy_rejects_invalid_bitwidths() {
    for (wbits, abits) in [(0u8, 8u8), (8, 0), (33, 8), (8, 33), (0, 0), (255, 255)] {
        let err = LayerPolicy::new(0.5, wbits, abits).expect_err("bitwidth must be rejected");
        assert!(
            matches!(err, CompressError::InvalidBitwidth { .. }),
            "bits ({wbits}, {abits}) produced the wrong error: {err:?}"
        );
    }
    // 1-bit and full-precision 32-bit are both inside the legal range.
    assert!(LayerPolicy::new(0.5, 1, 1).is_ok());
    assert!(LayerPolicy::new(0.5, 32, 32).is_ok());
}

/// `LayerPolicy`'s fields are public, so a policy can hold entries that
/// `LayerPolicy::new` would refuse. Every entry point that applies a policy
/// must reject them with an error, neither panicking nor accepting them.
#[test]
fn every_policy_entry_point_rejects_out_of_range_entries() {
    let arch = tiny_multi_exit(3);
    let net = MultiExitNetwork::from_architecture(&arch, &mut StdRng::seed_from_u64(5)).unwrap();
    let data = SyntheticDataset::generate(3, 8, 12, 0.05, 6);
    let evaluator = PolicyEvaluator::new(
        &arch,
        EmpiricalAccuracyEstimator::new(net.clone(), data.test().to_vec()),
    );
    let config = FinetuneConfig::for_exits(2);
    let valid = LayerPolicy::new(0.5, 4, 8).unwrap();
    let bad = [
        LayerPolicy { weight_bits: 0, ..valid },
        LayerPolicy { activation_bits: 0, ..valid },
        LayerPolicy { preserve_ratio: f32::NAN, ..valid },
        LayerPolicy { weight_bits: 200, ..valid },
    ];
    for entry in bad {
        let mut layers = vec![valid; arch.compressible_layers().len()];
        layers[1] = entry;
        let policy = CompressionPolicy::from_layers(layers);
        let rejected = |err: Option<CompressError>, entry_point: &str| {
            assert!(
                matches!(
                    err,
                    Some(
                        CompressError::InvalidBitwidth { .. }
                            | CompressError::InvalidPreserveRatio { .. }
                    )
                ),
                "{entry_point} on {entry:?} returned {err:?}"
            );
        };
        rejected(apply_policy(&mut net.clone(), &policy).err(), "apply_policy");
        rejected(
            apply_policy_quantized(&mut net.clone(), &policy, data.test()).err(),
            "apply_policy_quantized",
        );
        rejected(
            finetune_compressed(&mut net.clone(), &policy, data.train(), data.test(), &config)
                .err(),
            "finetune_compressed",
        );
        rejected(evaluator.evaluate_batched(&policy).err(), "evaluate_batched");
    }
}

#[test]
fn one_bit_weight_quantization_round_trip_is_sane() {
    let weights =
        Tensor::from_vec(vec![-0.8f32, -0.2, 0.1, 0.4, 0.9, -0.5], &[2, 3]).expect("valid shape");
    let q = quantize::quantize_weights(&weights, 1);

    // The 1-bit signed grid clamps to the levels {-s, 0, +s}; the round trip
    // must land every value on that grid.
    assert!(q.scale > 0.0, "scale must be positive, got {}", q.scale);
    for (i, &v) in q.values.as_slice().iter().enumerate() {
        let on_grid = v == 0.0 || (v.abs() - q.scale).abs() < 1e-6;
        assert!(on_grid, "value {i} ({v}) is off the 1-bit grid for scale {}", q.scale);
    }

    // The error is bounded by the input's energy (quantizing to {-s, 0} can
    // never be worse than the all-zero reconstruction the optimal scale
    // search also considers).
    let mean_sq: f32 =
        weights.as_slice().iter().map(|w| w * w).sum::<f32>() / weights.as_slice().len() as f32;
    assert!(q.mse <= mean_sq + 1e-6, "1-bit mse {} exceeds signal energy {}", q.mse, mean_sq);

    // Determinism: the same tensor quantizes to the same result.
    let q2 = quantize::quantize_weights(&weights, 1);
    assert_eq!(q, q2);
}

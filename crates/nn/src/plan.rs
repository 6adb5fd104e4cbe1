//! Single-input planned inference: a batch of one.
//!
//! An [`ExecutionPlan`] is a [`BatchPlan`] built for one sample
//! ([`MultiExitNetwork::execution_plan`]). It pre-sizes every buffer the
//! forward pass will ever touch, and [`MultiExitNetwork::forward_to_exit_with`]
//! then runs one input entirely inside those buffers: after the plan is
//! constructed, a forward pass performs **zero heap allocations** (asserted
//! by a counting-allocator regression test). Results are bit-identical to
//! the allocating [`MultiExitNetwork::forward_to_exit`]; the batched entry
//! points take a single input as `&[input]`.
//!
//! ```
//! use ie_nn::{spec::tiny_multi_exit, MultiExitNetwork};
//! use ie_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng)?;
//! let mut plan = net.execution_plan();
//! let x = Tensor::zeros(&[1, 8, 8]);
//! let out = net.forward_to_exit_with(&mut plan, &x, 0)?;
//! assert_eq!(out.exit, 0);
//! let deeper = net.forward_to_exit_batch_with(&mut plan, &[&x], 1)?;
//! assert_eq!(deeper.probs(0).len(), 3);
//! # Ok::<(), ie_nn::NnError>(())
//! ```

use crate::quant::QuantConfig;
use crate::{BatchPlan, MultiExitNetwork, Result};
use ie_tensor::Tensor;

/// A plan for single-input inference: a [`BatchPlan`] holding one sample.
pub type ExecutionPlan = BatchPlan;

/// The lightweight, non-allocating result of a planned forward pass over one
/// sample.
///
/// The full logits and probabilities live in the plan's per-exit buffers;
/// read them through the [`crate::BatchOutput`] that
/// [`MultiExitNetwork::forward_to_exit_batch_with`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedOutput {
    /// Which exit produced the result.
    pub exit: usize,
    /// Predicted class (argmax of the probabilities).
    pub prediction: usize,
    /// Entropy-based confidence in `[0, 1]` (see [`crate::loss::confidence`]).
    pub confidence: f32,
}

impl MultiExitNetwork {
    /// Builds an [`ExecutionPlan`] (a batch plan for one sample) sized for
    /// this network's architecture.
    pub fn execution_plan(&self) -> ExecutionPlan {
        self.batch_plan(1)
    }

    /// Builds a **quantized** [`ExecutionPlan`]: layers covered by `config`
    /// run the i8/i16 integer kernels with this network's weights quantized
    /// and packed at construction (see [`BatchPlan::for_network_quantized`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidSpec`] when `config` does not match
    /// this network's compressible layers.
    pub fn execution_plan_quantized(&self, config: &QuantConfig) -> Result<ExecutionPlan> {
        self.batch_plan_quantized(config, 1)
    }

    /// Runs one input up to (and including) `exit` inside `plan` — the
    /// batched pass over a batch of one. After the plan's first (warm-up)
    /// use this performs zero heap allocations. Results are bit-identical to
    /// the allocating [`MultiExitNetwork::forward_to_exit`]; the full
    /// logits/probabilities are in the [`crate::BatchOutput`] of
    /// [`MultiExitNetwork::forward_to_exit_batch_with`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidExit`] for an unknown exit or a shape
    /// error when the input does not match the architecture.
    pub fn forward_to_exit_with(
        &self,
        plan: &mut ExecutionPlan,
        input: &Tensor,
        exit: usize,
    ) -> Result<PlannedOutput> {
        Ok(self.forward_to_exit_batch_with(plan, &[input], exit)?.sample(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{lenet_multi_exit, tiny_multi_exit};
    use crate::NnError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    #[test]
    fn planned_forward_is_bit_identical_to_allocating_forward() {
        let net = tiny_net(1);
        let mut plan = net.execution_plan();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..4 {
            let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
            for exit in 0..net.num_exits() {
                let reference = net.forward_to_exit(&x, exit).unwrap();
                let planned = net.forward_to_exit_with(&mut plan, &x, exit).unwrap();
                assert_eq!(planned.exit, reference.exit);
                assert_eq!(planned.prediction, reference.prediction);
                assert_eq!(planned.confidence.to_bits(), reference.confidence.to_bits());
                let out = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
                assert_eq!(out.logits(0), reference.logits.as_slice());
                assert_eq!(out.probs(0), reference.probs.as_slice());
            }
        }
    }

    #[test]
    fn planned_forward_matches_on_the_paper_backbone() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let mut plan = net.execution_plan();
        let x = Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0);
        for exit in 0..3 {
            let reference = net.forward_to_exit(&x, exit).unwrap();
            let planned = net.forward_to_exit_with(&mut plan, &x, exit).unwrap();
            assert_eq!(planned.prediction, reference.prediction);
            let out = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
            assert_eq!(out.logits(0), reference.logits.as_slice());
        }
    }

    #[test]
    fn planned_forward_all_visits_every_exit_in_order() {
        let net = tiny_net(6);
        let mut plan = net.execution_plan();
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let reference = net.forward_all(&x).unwrap();
        let mut seen = Vec::new();
        net.forward_all_batch_with(&mut plan, &[&x], |out| {
            seen.push((out.sample(0), out.probs(0).to_vec()));
        })
        .unwrap();
        assert_eq!(seen.len(), reference.len());
        for ((planned, probs), reference) in seen.iter().zip(&reference) {
            assert_eq!(planned.exit, reference.exit);
            assert_eq!(planned.prediction, reference.prediction);
            assert_eq!(probs.as_slice(), reference.probs.as_slice());
        }
    }

    #[test]
    fn planned_errors_mirror_the_allocating_path() {
        let net = tiny_net(8);
        let mut plan = net.execution_plan();
        let x = Tensor::zeros(&[1, 8, 8]);
        assert!(matches!(
            net.forward_to_exit_with(&mut plan, &x, 9),
            Err(NnError::InvalidExit { .. })
        ));
        // Wrong input shape is rejected by the first conv layer.
        assert!(net.forward_to_exit_with(&mut plan, &Tensor::zeros(&[1, 9, 8]), 0).is_err());
        // The plan remains usable after errors.
        let reference = net.forward_to_exit(&x, 1).unwrap();
        assert_eq!(
            net.forward_to_exit_with(&mut plan, &x, 1).unwrap().prediction,
            reference.prediction
        );
    }

    #[test]
    fn quantized_plan_is_bit_identical_to_the_fake_quant_reference() {
        use crate::quant::{config_from_bits, fake_quant_logits};
        use ie_tensor::QuantParams;

        let net = tiny_net(20);
        let n = net.architecture().compressible_layers().len();
        // Mixed per-layer kernels: i8, f32, i16, i8, f32 across the canonical
        // order, so float→int and int→float boundaries are all exercised.
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let entries: Vec<Option<(u8, QuantParams)>> = (0..n)
            .map(|i| match i % 5 {
                0 => Some((8, if i == 0 { first } else { act })),
                1 => None,
                2 => Some((12, act)),
                3 => Some((4, act)),
                _ => None,
            })
            .collect();
        let cfg = config_from_bits(&net, &entries).unwrap();
        let model = crate::quant::QuantizedModel::for_network(&net, &cfg).unwrap();
        let mut plan = net.execution_plan_quantized(&cfg).unwrap();
        assert!(plan.quantized_model().is_some());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
            let bits = |logits: &[f32]| logits.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let references: Vec<Vec<u32>> = (0..net.num_exits())
                .map(|exit| bits(&fake_quant_logits(&net, &model, &x, exit).unwrap()))
                .collect();
            for (exit, reference) in references.iter().enumerate() {
                assert_eq!(net.forward_to_exit_with(&mut plan, &x, exit).unwrap().exit, exit);
                let out = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
                assert_eq!(&bits(out.logits(0)), reference, "exit {exit}");
            }
            // One pass over every exit shares the f32 trunk between them.
            net.forward_all_batch_with(&mut plan, &[&x], |out| {
                assert_eq!(
                    &bits(out.logits(0)),
                    &references[out.exit()],
                    "all, exit {}",
                    out.exit()
                );
            })
            .unwrap();
        }
    }

    #[test]
    fn fully_quantized_plan_chains_codes_and_still_matches_the_reference() {
        use crate::quant::{config_from_bits, fake_quant_logits};
        use ie_tensor::QuantParams;

        let net = tiny_net(22);
        let n = net.architecture().compressible_layers().len();
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 6);
        let entries: Vec<Option<(u8, QuantParams)>> =
            (0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect();
        let cfg = config_from_bits(&net, &entries).unwrap();
        let model = crate::quant::QuantizedModel::for_network(&net, &cfg).unwrap();
        let mut plan = net.execution_plan_quantized(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        for exit in 0..net.num_exits() {
            let out = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
            let reference = fake_quant_logits(&net, &model, &x, exit).unwrap();
            assert_eq!(out.logits(0), reference.as_slice(), "exit {exit}");
        }
    }

    #[test]
    fn quantized_plan_rejects_a_mismatched_network() {
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let tiny = tiny_net(24);
        let n = tiny.architecture().compressible_layers().len();
        let entries: Vec<Option<(u8, QuantParams)>> =
            (0..n).map(|_| Some((8, QuantParams::from_range(0.0, 4.0, 8)))).collect();
        let cfg = config_from_bits(&tiny, &entries).unwrap();
        let mut plan = tiny.execution_plan_quantized(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let lenet = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let err =
            lenet.forward_to_exit_with(&mut plan, &Tensor::zeros(&[3, 32, 32]), 0).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec(_)), "got {err:?}");
    }

    #[test]
    fn plan_for_a_smaller_architecture_is_rejected_not_a_panic() {
        // tiny(3 classes, 2 exits) vs lenet (10 classes, 3 exits): exit count
        // differs. Also check the same-exit-count case via class/buffer sizes:
        // a 3-exit plan from lenet against a tiny 2-exit net and vice versa.
        let mut rng = StdRng::seed_from_u64(10);
        let lenet = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let tiny = tiny_net(10);
        let mut tiny_plan = tiny.execution_plan();
        let err = lenet
            .forward_to_exit_with(&mut tiny_plan, &Tensor::zeros(&[3, 32, 32]), 0)
            .unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec(_)), "got {err:?}");
        // A plan from a bigger architecture with matching exit/class counts
        // would be accepted (capacity check, not equality); the lenet plan
        // still rejects the tiny net because the class counts differ.
        let mut lenet_plan = lenet.execution_plan();
        let err =
            tiny.forward_to_exit_with(&mut lenet_plan, &Tensor::zeros(&[1, 8, 8]), 0).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec(_)), "got {err:?}");
    }
}

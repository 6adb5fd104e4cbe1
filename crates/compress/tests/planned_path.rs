//! The planned (allocation-free) forward path and the allocating path must
//! agree bit for bit on *compressed* networks too — after `apply_policy` has
//! pruned channels and flipped the affected conv layers onto the
//! sparsity-aware GEMM.

use ie_compress::{apply::apply_policy, pruning::channel_importance, CompressionPolicy};
use ie_nn::spec::tiny_multi_exit;
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn network(seed: u64) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
}

#[test]
fn pruning_flips_conv_layers_onto_the_sparse_kernel() {
    let mut net = network(1);
    let n = net.architecture().compressible_layers().len();
    apply_policy(&mut net, &CompressionPolicy::uniform(n, 0.5, 8, 8).unwrap()).unwrap();
    // A conv takes the sparse-aware GEMM exactly when pruning zeroed one of
    // its input-channel blocks; the tiny net's 1-channel Conv1 keeps its only
    // channel at any ratio, so only Conv2 is flagged.
    let mut flagged = 0;
    for layer in net.segments().iter().flatten() {
        if let Layer::Conv2d(conv) = layer {
            let pruned = channel_importance(conv.weight()).contains(&0.0);
            assert_eq!(
                conv.sparse_hint(),
                pruned,
                "sparse flag set exactly when a channel is pruned"
            );
            flagged += usize::from(pruned);
        }
    }
    assert!(flagged > 0, "a uniform 0.5 policy prunes at least one conv");
    let mut untouched = network(1);
    apply_policy(&mut untouched, &CompressionPolicy::full_precision(n)).unwrap();
    for layer in untouched.segments().iter().flatten() {
        if let Layer::Conv2d(conv) = layer {
            assert!(!conv.sparse_hint(), "unpruned conv layers keep the dense kernel");
        }
    }
}

#[test]
fn planned_and_allocating_paths_agree_on_compressed_networks() {
    for seed in 0..3u64 {
        let mut net = network(seed);
        let n = net.architecture().compressible_layers().len();
        apply_policy(&mut net, &CompressionPolicy::uniform(n, 0.4, 4, 8).unwrap()).unwrap();
        let mut plan = net.execution_plan();
        let mut rng = StdRng::seed_from_u64(100 + seed);
        for _ in 0..3 {
            let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
            for exit in 0..net.num_exits() {
                let (reference, _) = net.forward_to_exit(&x, exit).unwrap();
                let planned = net.forward_to_exit_with(&mut plan, &x, exit).unwrap();
                assert_eq!(planned.prediction, reference.prediction);
                assert_eq!(plan.output(exit).logits(0), reference.logits.as_slice());
                assert_eq!(plan.output(exit).probs(0), reference.probs.as_slice());
            }
        }
    }
}

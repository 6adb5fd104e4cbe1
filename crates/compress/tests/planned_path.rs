//! The planned (allocation-free) forward path and the allocating path must
//! agree bit for bit on *compressed* networks too — after `apply_policy` has
//! pruned channels, which the conv layers then skip in both paths.

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
fn pruning_records_exactly_the_zeroed_channels() {
    let mut net = network(1);
    let n = net.architecture().compressible_layers().len();
    apply_policy(&mut net, &CompressionPolicy::uniform(n, 0.5, 8, 8).unwrap()).unwrap();
    // A conv's pruned channels are exactly the input-channel blocks pruning
    // zeroed; the tiny net's 1-channel Conv1 keeps its only channel at any
    // ratio, so only Conv2 prunes.
    let mut pruned_convs = 0;
    for layer in net.segments().iter().flatten() {
        if let Layer::Conv2d(conv) = layer {
            let zeroed: Vec<usize> = channel_importance(conv.weight())
                .iter()
                .enumerate()
                .filter(|(_, &s)| s == 0.0)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(conv.pruned_channels(), zeroed, "pruned channels are the zeroed ones");
            pruned_convs += usize::from(!zeroed.is_empty());
        }
    }
    assert!(pruned_convs > 0, "a uniform 0.5 policy prunes at least one conv");
    let mut untouched = network(1);
    apply_policy(&mut untouched, &CompressionPolicy::full_precision(n)).unwrap();
    for layer in untouched.segments().iter().chain(untouched.branches()).flatten() {
        let pruned = match layer {
            Layer::Conv2d(conv) => conv.pruned_channels(),
            Layer::Dense(dense) => dense.pruned_channels(),
            _ => continue,
        };
        assert!(pruned.is_empty(), "a full-precision policy prunes nothing");
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
                let reference = net.forward_to_exit(&x, exit).unwrap();
                let planned = net.forward_to_exit_with(&mut plan, &x, exit).unwrap();
                assert_eq!(planned.prediction, reference.prediction);
                let out = net.forward_to_exit_batch_with(&mut plan, &[&x], exit).unwrap();
                assert_eq!(out.logits(0), reference.logits.as_slice());
                assert_eq!(out.probs(0), reference.probs.as_slice());
            }
        }
    }
}

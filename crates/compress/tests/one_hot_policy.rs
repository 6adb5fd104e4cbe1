//! A policy that prunes one compressible layer must prune that layer and no
//! other, whichever applier runs it: `apply_policy`, `apply_policy_quantized`
//! and `finetune_compressed` all walk the network's layers in the one
//! canonical order `MultiExitArchitecture::compressible_layers` defines, so
//! policy entry `i` lands on the layer at `compressible_layers()[i].site`.

use ie_compress::apply::{apply_policy, apply_policy_quantized};
use ie_compress::pruning::channel_importance;
use ie_compress::{finetune_compressed, CompressionPolicy, FinetuneConfig, LayerPolicy};
use ie_nn::dataset::Sample;
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit, LayerSite, MultiExitArchitecture};
use ie_nn::MultiExitNetwork;
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The sites of the compressible layers with at least one all-zero input
/// channel, read through the architecture's sites rather than the network's
/// own layer walk (the walk is what is under test).
fn pruned_sites(net: &MultiExitNetwork) -> Vec<LayerSite> {
    let layers = net.architecture().compressible_layers();
    let pruned = layers.iter().filter(|l| {
        let layer = match l.site {
            LayerSite::Trunk { segment, layer } => &net.segments()[segment][layer],
            LayerSite::Branch { exit, layer } => &net.branches()[exit][layer],
        };
        channel_importance(layer.weight().expect("a conv or dense layer")).contains(&0.0)
    });
    pruned.map(|l| l.site).collect()
}

fn samples(arch: &MultiExitArchitecture, n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = arch.input_dims();
    (0..n)
        .map(|i| Sample {
            image: Tensor::randn(&mut rng, &dims, 0.0, 1.0),
            label: i % arch.num_classes(),
        })
        .collect()
}

#[test]
fn a_one_hot_policy_prunes_the_layer_at_its_site_in_every_applier() {
    for (arch, seed) in [(lenet_multi_exit(), 1u64), (tiny_multi_exit(3), 2)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
        let data = samples(&arch, 2, seed + 10);
        let finetune = FinetuneConfig {
            epochs: 1,
            batch_size: 2,
            learning_rate: 0.05,
            exit_weights: vec![1.0; arch.num_exits()],
            threads: 1,
        };
        let layers = arch.compressible_layers();
        assert!(pruned_sites(&net).is_empty(), "a fresh network has no zeroed channel");
        let mut checked = 0;
        // A layer with one input channel keeps it at any ratio.
        for (i, target) in layers.iter().enumerate().filter(|(_, l)| l.in_channels >= 2) {
            let mut policy = CompressionPolicy::full_precision(layers.len());
            policy.layers_mut()[i] = LayerPolicy::new(0.5, 32, 32).unwrap();
            let want = vec![target.site];

            let mut applied = net.clone();
            apply_policy(&mut applied, &policy).unwrap();
            assert_eq!(pruned_sites(&applied), want, "apply_policy, {}", target.name);

            let mut quantized = net.clone();
            apply_policy_quantized(&mut quantized, &policy, &data).unwrap();
            assert_eq!(pruned_sites(&quantized), want, "apply_policy_quantized, {}", target.name);

            let mut tuned = net.clone();
            finetune_compressed(&mut tuned, &policy, &data, &data, &finetune).unwrap();
            assert_eq!(pruned_sites(&tuned), want, "finetune_compressed, {}", target.name);
            checked += 1;
        }
        assert!(checked + 1 >= layers.len(), "at most one layer is skipped");
    }
}

//! Property-based equivalence of the planned executor and the allocating
//! forward path.
//!
//! The contract under test: for ANY batch size in `1..=16`, ANY inputs and
//! ANY pruned-channel configuration, every sample's logits,
//! probabilities, prediction and confidence from a [`ie_nn::BatchPlan`] pass
//! are **bit-identical** to running that sample alone through the allocating
//! [`ie_nn::MultiExitNetwork::forward_to_exit`] — an oracle that shares no
//! code with the planned executor above the kernels. The same holds for the
//! per-exit walk ([`ie_nn::MultiExitNetwork::forward_to_exits_batch_with`]),
//! where each input stops at its own exit, on the `f32` and the integer
//! engine, and the pass over every exit
//! ([`ie_nn::MultiExitNetwork::forward_all_batch_with`]) reads at each exit
//! what the pass to that exit reads. The compressed-policy variant (pruning
//! and quantization applied through real `ie_compress` policies) lives in
//! `ie_compress`'s tests to keep the dependency direction intact.

use ie_nn::quant::{config_from_bits, QuantConfig};
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::{BatchOutput, BatchPlan, Layer, MultiExitNetwork, NnError};
use ie_tensor::{QuantParams, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a tiny network, optionally pruning every `prune_mod`-th input
/// channel of each conv (the layer state `ie_compress`'s channel pruning
/// produces).
fn build_net(seed: u64, prune_mod: usize) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
    prune_net(&mut net, prune_mod);
    net
}

/// Prunes every `prune_mod`-th input channel of each conv (none for 0).
fn prune_net(net: &mut MultiExitNetwork, prune_mod: usize) {
    if prune_mod > 0 {
        for layers in net.segments_mut().iter_mut() {
            prune(layers, prune_mod);
        }
        for layers in net.branches_mut().iter_mut() {
            prune(layers, prune_mod);
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn prune(layers: &mut [Layer], prune_mod: usize) {
    for layer in layers.iter_mut() {
        if let Layer::Conv2d(conv) = layer {
            let pruned: Vec<usize> =
                (0..conv.in_channels()).filter(|c| c % prune_mod == 0).collect();
            // A one-channel conv keeps its only channel.
            if pruned.len() < conv.in_channels() {
                conv.set_pruned_channels(&pruned).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched logits are bit-identical to N independent allocating passes,
    /// for random batch sizes, inputs, seeds and pruning densities.
    #[test]
    fn batched_logits_bit_identical_to_single_planned(
        seed in 0u64..1_000,
        batch in 1usize..=16,
        prune_mod in 0usize..=3,
        data in proptest::collection::vec(-3.0f32..3.0, 16 * 64),
    ) {
        // prune_mod 0 => nothing pruned; 2/3 => every 2nd/3rd input channel
        // of each conv pruned, so the convs run at their kept width.
        let net = build_net(seed, if prune_mod == 1 { 2 } else { prune_mod });
        let inputs: Vec<Tensor> = (0..batch)
            .map(|s| {
                Tensor::from_vec(data[s * 64..(s + 1) * 64].to_vec(), &[1, 8, 8])
                    .expect("slice length matches shape")
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut batch_plan = net.batch_plan(batch);
        for exit in 0..net.num_exits() {
            let out = net.forward_to_exit_batch_with(&mut batch_plan, &refs, exit).unwrap();
            prop_assert_eq!(out.len(), batch);
            for (i, input) in inputs.iter().enumerate() {
                let single = net.forward_to_exit(input, exit).unwrap();
                prop_assert_eq!(out.prediction(i), single.prediction);
                prop_assert_eq!(out.confidence(i).to_bits(), single.confidence.to_bits());
                let at = format!("exit {exit} sample {i}");
                prop_assert_eq!(bits(out.logits(i)), bits(single.logits.as_slice()), "{}", at);
                prop_assert_eq!(bits(out.probs(i)), bits(single.probs.as_slice()), "{}", at);
            }
        }
    }

    /// The evaluators' pass over every exit reads, at each exit and for
    /// every input, what the pass to that exit alone reads, bit for bit, on
    /// the `f32` and the integer engine.
    #[test]
    fn forward_all_equals_direct_at_every_exit(
        seed in 0u64..1_000,
        batch in 1usize..=8,
        quantized in proptest::bool::ANY,
        data in proptest::collection::vec(-2.0f32..2.0, 8 * 64),
    ) {
        let net = build_net(seed, 0);
        let inputs: Vec<Tensor> = (0..batch)
            .map(|s| {
                Tensor::from_vec(data[s * 64..(s + 1) * 64].to_vec(), &[1, 8, 8])
                    .expect("slice length matches shape")
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let plan = || {
            if quantized {
                net.batch_plan_quantized(&mixed_config(&net), batch).unwrap()
            } else {
                net.batch_plan(batch)
            }
        };
        let mut all: Vec<(usize, Vec<ExitBits>)> = Vec::new();
        net.forward_all_batch_with(&mut plan(), &refs, |out| {
            all.push((out.exit(), (0..out.len()).map(|i| ExitBits::of(&out, i)).collect()));
        })
        .unwrap();
        prop_assert_eq!(all.len(), net.num_exits());
        let mut direct = plan();
        for (exit, (seen_exit, seen)) in all.into_iter().enumerate() {
            prop_assert_eq!(seen_exit, exit);
            let out = net.forward_to_exit_batch_with(&mut direct, &refs, exit).unwrap();
            let expected: Vec<ExitBits> = (0..batch).map(|i| ExitBits::of(&out, i)).collect();
            prop_assert_eq!(seen, expected, "exit {}", exit);
        }
    }
}

/// One input's result at one exit, as raw bits.
#[derive(Debug, PartialEq)]
struct ExitBits {
    prediction: usize,
    confidence: u32,
    logits: Vec<u32>,
    probs: Vec<u32>,
}

impl ExitBits {
    fn of(out: &BatchOutput<'_>, i: usize) -> Self {
        ExitBits {
            prediction: out.prediction(i),
            confidence: out.confidence(i).to_bits(),
            logits: bits(out.logits(i)),
            probs: bits(out.probs(i)),
        }
    }
}

/// A LeNet whose convs prune every even input channel.
fn pruned_lenet(seed: u64) -> MultiExitNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
    prune_net(&mut net, 2);
    net
}

/// A mixed-precision config: i8, i12 and `f32` layers in turn, so the walk
/// crosses both the code-domain chains and the float boundaries.
fn mixed_config(net: &MultiExitNetwork) -> QuantConfig {
    let first = QuantParams::from_range(-3.0, 3.0, 8);
    let act = QuantParams::from_range(0.0, 8.0, 8);
    let n = net.architecture().compressible_layers().len();
    let entries: Vec<_> = (0..n)
        .map(|i| match i % 3 {
            0 => Some((8, if i == 0 { first } else { act })),
            1 => Some((12, act)),
            _ => None,
        })
        .collect();
    config_from_bits(net, &entries).unwrap()
}

/// Runs `inputs` through the per-exit walk on `plan`, once at `exits` and
/// once at their mirror image, and checks each time that the groups cover
/// every input once, in ascending exit order, and that every result is
/// bit-identical to that input's lone run at its exit: the allocating
/// `forward_to_exit` for an `f32` plan, a single-input plan of the same
/// engine for a quantized one.
fn assert_walk_matches_lone_runs(
    net: &MultiExitNetwork,
    plan: &mut BatchPlan,
    quant: Option<&QuantConfig>,
    inputs: &[Tensor],
    exits: &[usize],
) {
    let mut lone = quant.map(|cfg| net.batch_plan_quantized(cfg, 1).unwrap());
    let mut lone_run = |x: &Tensor, exit: usize| match lone.as_mut() {
        Some(plan) => ExitBits::of(&net.forward_to_exit_batch_with(plan, &[x], exit).unwrap(), 0),
        None => {
            let out = net.forward_to_exit(x, exit).unwrap();
            let (logits, probs) = (bits(out.logits.as_slice()), bits(out.probs.as_slice()));
            ExitBits {
                prediction: out.prediction,
                confidence: out.confidence.to_bits(),
                logits,
                probs,
            }
        }
    };
    let deepest = net.num_exits() - 1;
    let mirrored: Vec<usize> = exits.iter().map(|&e| deepest - e).collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    for mut exits in [exits.to_vec(), mirrored] {
        exits.sort_unstable_by(|a, b| b.cmp(a));
        let expected: Vec<ExitBits> =
            inputs.iter().zip(&exits).map(|(x, &exit)| lone_run(x, exit)).collect();
        let mut seen = vec![0usize; inputs.len()];
        let mut last_exit = None;
        net.forward_to_exits_batch_with(plan, &refs, &exits, |first, out| {
            assert!(last_exit < Some(out.exit()), "exit {} after {last_exit:?}", out.exit());
            last_exit = Some(out.exit());
            for k in 0..out.len() {
                let i = first + k;
                seen[i] += 1;
                assert_eq!(out.exit(), exits[i], "input {i} left at the wrong exit");
                assert_eq!(ExitBits::of(&out, k), expected[i], "input {i} at exit {}", exits[i]);
            }
        })
        .unwrap();
        assert!(seen.iter().all(|&n| n == 1), "groups cover {seen:?} (exits {exits:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-exit walk on the tiny net, `f32` or quantized, pruned or not:
    /// every input's result equals its lone run, bit for bit.
    #[test]
    fn per_exit_walk_matches_lone_runs_on_the_tiny_net(
        seed in 0u64..1_000,
        batch in 1usize..=16,
        prune_mod in 0usize..=3,
        quantized in proptest::bool::ANY,
        exits in proptest::collection::vec(0usize..2, 16),
        data in proptest::collection::vec(-3.0f32..3.0, 16 * 64),
    ) {
        let net = build_net(seed, if prune_mod == 1 { 2 } else { prune_mod });
        let inputs: Vec<Tensor> = (0..batch)
            .map(|s| {
                Tensor::from_vec(data[s * 64..(s + 1) * 64].to_vec(), &[1, 8, 8])
                    .expect("slice length matches shape")
            })
            .collect();
        let quant = quantized.then(|| mixed_config(&net));
        let mut plan = match &quant {
            Some(cfg) => net.batch_plan_quantized(cfg, 16).unwrap(),
            None => net.batch_plan(16),
        };
        assert_walk_matches_lone_runs(&net, &mut plan, quant.as_ref(), &inputs, &exits[..batch]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-exit walk on the pruned three-exit LeNet, `f32` or
    /// quantized, at the serving window's batch sizes.
    #[test]
    fn per_exit_walk_matches_lone_runs_on_the_pruned_lenet(
        seed in 0u64..1_000,
        batch in 1usize..=8,
        quantized in proptest::bool::ANY,
        exits in proptest::collection::vec(0usize..3, 8),
    ) {
        let net = pruned_lenet(seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let inputs: Vec<Tensor> =
            (0..batch).map(|_| Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0)).collect();
        let quant = quantized.then(|| mixed_config(&net));
        let mut plan = match &quant {
            Some(cfg) => net.batch_plan_quantized(cfg, 8).unwrap(),
            None => net.batch_plan(8),
        };
        assert_walk_matches_lone_runs(&net, &mut plan, quant.as_ref(), &inputs, &exits[..batch]);
    }
}

/// Every result of one pass of each batched entry point over `inputs` (two
/// of them) on `plan`, as raw bits: to exit 1, over every exit, and at
/// exits `[1, 0]`.
fn every_result(net: &MultiExitNetwork, plan: &mut BatchPlan, inputs: &[&Tensor]) -> Vec<ExitBits> {
    let all =
        |out: &BatchOutput<'_>| (0..out.len()).map(|i| ExitBits::of(out, i)).collect::<Vec<_>>();
    let mut seen = all(&net.forward_to_exit_batch_with(plan, inputs, 1).unwrap());
    net.forward_all_batch_with(plan, inputs, |out| seen.extend(all(&out))).unwrap();
    net.forward_to_exits_batch_with(plan, inputs, &[1, 0], |_, out| seen.extend(all(&out)))
        .unwrap();
    seen
}

/// Every `exits` the walk refuses is an error, never a panic, and no walk —
/// refused or not — leaves state behind: the next passes on the same plan
/// read, bit for bit, what they read on a fresh plan.
#[test]
fn a_refused_walk_is_an_error_and_leaves_no_state_to_read() {
    let net = build_net(3, 0);
    let mut plan = net.batch_plan(2);
    let x = Tensor::zeros(&[1, 8, 8]);
    // Fits the plan's buffers, but not the first conv.
    let misfit = Tensor::zeros(&[1, 9, 8]);
    let mut rng = StdRng::seed_from_u64(4);
    let probe: Vec<Tensor> =
        (0..2).map(|_| Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0)).collect();
    let probe: Vec<&Tensor> = probe.iter().collect();
    let fresh = every_result(&net, &mut net.batch_plan(2), &probe);
    let refused = |err: &NnError, case: &str| match case {
        "unknown exit" => matches!(err, NnError::InvalidExit { requested: 2, available: 2 }),
        "an input the first conv refuses" => matches!(err, NnError::InputShapeMismatch { .. }),
        _ => matches!(err, NnError::InvalidSpec(_)),
    };
    let cases: [(&str, Vec<&Tensor>, Vec<usize>); 7] = [
        ("length mismatch", vec![&x, &x], vec![1]),
        ("an increasing pair", vec![&x, &x], vec![0, 1]),
        ("unknown exit", vec![&x, &x], vec![2, 0]),
        ("empty batch", vec![], vec![]),
        ("oversized batch", vec![&x, &x, &x], vec![1, 1, 1]),
        ("an input the first conv refuses", vec![&misfit, &misfit], vec![1, 0]),
        ("a walk that succeeds", vec![&x, &x], vec![1, 0]),
    ];
    for (case, inputs, exits) in cases {
        let walked = net.forward_to_exits_batch_with(&mut plan, &inputs, &exits, |_, _| {});
        match walked {
            Err(err) => assert!(refused(&err, case), "{case}: {err:?}"),
            Ok(()) => assert_eq!(case, "a walk that succeeds"),
        }
        let next = every_result(&net, &mut plan, &probe);
        assert_eq!(next, fresh, "{case}: the next passes read what the walk left");
    }
}

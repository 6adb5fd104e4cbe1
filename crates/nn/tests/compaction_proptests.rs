//! Property test of channel-pruned layers run at their kept width.
//!
//! The contract: a network whose layers carry pruned channels (set with
//! `set_pruned_channels`, so its convs lower and multiply only the kept
//! channels) computes, bit for bit, what the same zeroed weights compute at
//! full width — the logits of the batched plan and of the allocating chain,
//! the loss and the kept weights' gradients of the allocating, the planned
//! and the fake-quant planned backward, and every layer's input gradient —
//! and every pruned weight's gradient is exactly `+0.0`. The pruned sets are
//! drawn per layer: none, all but one, or a random subset.
//!
//! The kernels run on the process's ISA tier; in a release build the last
//! test re-runs the property in a child process pinned to `IE_ISA=portable`,
//! so one run of this file covers both tiers, the native one as vector code.

use ie_nn::quant::config_from_bits;
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::{QuantParams, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Input channels of a compressible layer and the weights each one owns
/// per filter row (`k²` for a conv, 1 for a dense layer).
fn channels_and_block(layer: &Layer) -> (usize, usize) {
    match layer {
        Layer::Conv2d(c) => (c.in_channels(), c.geometry().kernel * c.geometry().kernel),
        Layer::Dense(d) => (d.in_features(), 1),
        _ => unreachable!("compressible layers are conv or dense"),
    }
}

/// A random pruned set: none, all but one, or a random proper subset.
fn draw_pruned(rng: &mut StdRng, channels: usize) -> Vec<usize> {
    match rng.gen_range(0..3) {
        0 => Vec::new(),
        1 => {
            let keep = rng.gen_range(0..channels);
            (0..channels).filter(|&c| c != keep).collect()
        }
        _ => {
            let mut set: Vec<usize> = (0..channels).filter(|_| rng.gen_bool(0.5)).collect();
            if set.len() == channels {
                set.remove(rng.gen_range(0..channels));
            }
            set
        }
    }
}

/// `(full, compact, pruned sets)`: the full-width network holds zeros in the
/// pruned channels' weights; the compact one is its clone with the same
/// channels recorded as pruned.
fn networks(lenet: bool, seed: u64) -> (MultiExitNetwork, MultiExitNetwork, Vec<Vec<usize>>) {
    let arch = if lenet { lenet_multi_exit() } else { tiny_multi_exit(3) };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut full = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
    let mut sets = Vec::new();
    for layer in full.compressible_layers_mut() {
        let (channels, block) = channels_and_block(layer);
        let set = draw_pruned(&mut rng, channels);
        let weight = layer.weight_mut().unwrap().as_mut_slice();
        for row in weight.chunks_exact_mut(channels * block) {
            for &c in &set {
                row[c * block..(c + 1) * block].fill(0.0);
            }
        }
        sets.push(set);
    }
    let mut compact = full.clone();
    for (layer, set) in compact.compressible_layers_mut().zip(&sets) {
        match layer {
            Layer::Conv2d(c) => c.set_pruned_channels(set).unwrap(),
            Layer::Dense(d) => d.set_pruned_channels(set).unwrap(),
            _ => unreachable!(),
        }
    }
    (full, compact, sets)
}

/// Every compressible layer's `(weight gradient, bias gradient)` bits.
fn grads(net: &MultiExitNetwork) -> Vec<(Vec<u32>, Vec<u32>)> {
    net.compressible_layers()
        .map(|layer| match layer {
            Layer::Conv2d(c) => (bits(c.grad_weight().as_slice()), bits(c.grad_bias().as_slice())),
            Layer::Dense(d) => (bits(d.grad_weight().as_slice()), bits(d.grad_bias().as_slice())),
            _ => unreachable!(),
        })
        .collect()
}

/// The kept weights' gradients (and all bias gradients) of `compact` equal
/// those of `full`, and each pruned weight's gradient in `compact` is +0.0.
fn assert_grads(
    full: &MultiExitNetwork,
    compact: &MultiExitNetwork,
    sets: &[Vec<usize>],
    what: &str,
) {
    let layers = compact.compressible_layers().map(channels_and_block);
    for (i, (((fw, fb), (cw, cb)), (set, (channels, block)))) in
        grads(full).into_iter().zip(grads(compact)).zip(sets.iter().zip(layers)).enumerate()
    {
        prop_assert_eq!(fb, cb, "{} layer {}: bias gradient", what, i);
        let rows = fw.chunks_exact(channels * block).zip(cw.chunks_exact(channels * block));
        for (r, (frow, crow)) in rows.enumerate() {
            for c in 0..channels {
                let span = c * block..(c + 1) * block;
                if set.contains(&c) {
                    prop_assert!(
                        crow[span].iter().all(|&b| b == 0),
                        "{} layer {} row {} pruned channel {}: gradient is not +0.0",
                        what,
                        i,
                        r,
                        c
                    );
                } else {
                    prop_assert_eq!(
                        &frow[span.clone()],
                        &crow[span],
                        "{} layer {} row {} channel {}",
                        what,
                        i,
                        r,
                        c
                    );
                }
            }
        }
    }
}

fn check(lenet: bool, seed: u64, batch: usize) {
    let (mut full, mut compact, sets) = networks(lenet, seed);
    let arch = full.architecture().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let inputs: Vec<Tensor> =
        (0..batch).map(|_| Tensor::randn(&mut rng, &arch.input_dims(), 0.0, 1.0)).collect();
    let labels: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..arch.num_classes())).collect();
    let exits = arch.num_exits();
    let mut weights: Vec<f32> =
        (0..exits).map(|_| [0.0, 0.5, 1.0][rng.gen_range(0..3usize)]).collect();
    weights[exits - 1] = 1.0;

    // Logits: the batched plan and the allocating chain.
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let (mut full_plan, mut compact_plan) = (full.batch_plan(batch), compact.batch_plan(batch));
    for exit in 0..exits {
        let a = full.forward_to_exit_batch_with(&mut full_plan, &refs, exit).unwrap();
        let b = compact.forward_to_exit_batch_with(&mut compact_plan, &refs, exit).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            prop_assert_eq!(
                bits(a.logits(i)),
                bits(b.logits(i)),
                "batched exit {} sample {}",
                exit,
                i
            );
            let single = compact.forward_to_exit(x, exit).unwrap();
            prop_assert_eq!(
                bits(single.logits.as_slice()),
                bits(b.logits(i)),
                "allocating exit {}",
                exit
            );
        }
    }

    // Loss and gradients: allocating, planned, and fake-quant planned.
    for (i, (x, &label)) in inputs.iter().zip(&labels).enumerate() {
        let a = full.backward(x, label, &weights).unwrap();
        let b = compact.backward(x, label, &weights).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits(), "allocating loss of sample {}", i);
    }
    assert_grads(&full, &compact, &sets, "allocating");

    let entries: Vec<Option<(u8, QuantParams)>> = arch
        .compressible_layers()
        .iter()
        .map(|_| {
            rng.gen_bool(0.6).then(|| {
                let bits = rng.gen_range(2..=8);
                (bits, QuantParams::from_range(-2.0, 2.0, rng.gen_range(4..=8)))
            })
        })
        .collect();
    let config = config_from_bits(&full, &entries).unwrap();
    for fake_quant in [false, true] {
        full.zero_grad();
        compact.zero_grad();
        let (mut fp, mut cp) = if fake_quant {
            let plan = |net: &MultiExitNetwork| net.backward_plan_fake_quant(&config).unwrap();
            (plan(&full), plan(&compact))
        } else {
            (full.backward_plan(), compact.backward_plan())
        };
        for i in 0..batch {
            let a = full.backward_with(&mut fp, &inputs[i], labels[i], &weights).unwrap();
            let b = compact.backward_with(&mut cp, &inputs[i], labels[i], &weights).unwrap();
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "planned loss (fake quant {}) of sample {}",
                fake_quant,
                i
            );
        }
        assert_grads(&full, &compact, &sets, if fake_quant { "fake-quant" } else { "planned" });
    }

    // Input gradients, layer by layer.
    for (li, (f, c)) in full.compressible_layers().zip(compact.compressible_layers()).enumerate() {
        let (in_dims, out_dims): (Vec<usize>, Vec<usize>) = match c {
            Layer::Conv2d(conv) => {
                let g = conv.geometry();
                (vec![g.in_channels, g.in_h, g.in_w], conv.output_dims().to_vec())
            }
            Layer::Dense(d) => (vec![d.in_features()], vec![d.out_features()]),
            _ => unreachable!(),
        };
        let x = Tensor::randn(&mut rng, &in_dims, 0.0, 1.0);
        let g = Tensor::randn(&mut rng, &out_dims, 0.0, 1.0);
        let dx_full = f.clone().backward(&x, &g).unwrap();
        let dx_compact = c.clone().backward(&x, &g).unwrap();
        prop_assert_eq!(bits(dx_full.as_slice()), bits(dx_compact.as_slice()), "layer {} dx", li);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pruned network at its kept width equals its zeroed full-width twin
    /// bit for bit, and its pruned weights' gradients are exactly +0.0.
    #[test]
    fn pruned_network_matches_its_zeroed_full_width_twin(
        lenet in proptest::bool::ANY,
        seed in 0u64..10_000,
        batch in 1usize..=8,
    ) {
        check(lenet, seed, batch);
    }
}

/// What `set_pruned_channels` must do with `list` on a layer of `channels`
/// channels: the sorted list when it is valid, `None` when it must refuse.
fn expected_pruning(list: &[usize], channels: usize) -> Option<Vec<usize>> {
    let mut sorted = list.to_vec();
    sorted.sort_unstable();
    let in_range = sorted.iter().all(|&c| c < channels);
    let unique = sorted.windows(2).all(|w| w[0] != w[1]);
    (in_range && unique && sorted.len() < channels).then_some(sorted)
}

/// Applies `list` to `layer` and checks the outcome against the rule:
/// a valid list is recorded sorted and zeroes exactly its channels' weights;
/// anything else is an error that leaves the layer as it was.
fn check_setter(layer: &mut Layer, list: &[usize]) {
    let (channels, block) = channels_and_block(layer);
    let before = layer.clone();
    let (result, pruned) = match layer {
        Layer::Conv2d(c) => (c.set_pruned_channels(list), c.pruned_channels().to_vec()),
        Layer::Dense(d) => (d.set_pruned_channels(list), d.pruned_channels().to_vec()),
        _ => unreachable!(),
    };
    match expected_pruning(list, channels) {
        Some(sorted) => {
            prop_assert!(result.is_ok(), "{:?} refused: {:?}", list, result);
            prop_assert_eq!(&pruned, &sorted);
            let (old, new) = (before.weight().unwrap(), layer.weight().unwrap());
            let rows = old.as_slice().chunks_exact(channels * block);
            for (orow, nrow) in rows.zip(new.as_slice().chunks_exact(channels * block)) {
                for c in 0..channels {
                    let span = c * block..(c + 1) * block;
                    let want = if sorted.contains(&c) {
                        vec![0; block]
                    } else {
                        bits(&orow[span.clone()])
                    };
                    prop_assert_eq!(bits(&nrow[span]), want, "channel {}", c);
                }
            }
        }
        None => {
            prop_assert!(
                matches!(result, Err(ie_nn::NnError::InvalidPruning(_))),
                "{:?} accepted: {:?}",
                list,
                result
            );
            prop_assert!(*layer == before, "a refused list left the layer changed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The public pruned-channel setters return an error, never panic, on
    /// out-of-range indices, duplicates and lists that name every channel,
    /// and otherwise record the list sorted.
    #[test]
    fn pruned_channel_setters_refuse_bad_lists(
        conv in proptest::bool::ANY,
        channels in 1usize..9,
        list in proptest::collection::vec(0usize..12, 0..12),
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer: Layer = if conv {
            ie_nn::Conv2d::new(&mut rng, channels, 2, 3, 1, 1, 4, 4).into()
        } else {
            ie_nn::Dense::new(&mut rng, channels, 3).into()
        };
        check_setter(&mut layer, &list);
        // Every channel but one, and every channel, on the same layer.
        let all: Vec<usize> = (0..channels).rev().collect();
        check_setter(&mut layer, &all[1..]);
        check_setter(&mut layer, &all);
        // An empty list keeps every channel again.
        check_setter(&mut layer, &[]);
    }
}

#[test]
fn the_property_also_holds_on_the_portable_tier() {
    // A debug build never vectorizes, so there the native tier runs the
    // same scalar code as the portable one; CI's release step runs this
    // file, where the two tiers differ.
    if cfg!(debug_assertions) {
        return;
    }
    let output = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "pruned_network_matches_its_zeroed_full_width_twin"])
        .env("IE_ISA", "portable")
        .output()
        .expect("the test binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stdout}{stderr}");
    assert!(stdout.contains("1 passed"), "the child ran the property: {stdout}");
}

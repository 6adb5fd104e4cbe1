//! Counting-allocator regression test: a warmed-up planned **training step**
//! (planned backward + gradient application) performs **zero** heap
//! allocations, in both the plain and the fake-quant-in-the-loop modes, and
//! so does a one-worker batched step (`BatchBackwardPlan::train_step`), whose
//! single shard runs inline.
//!
//! The counting is per-thread (a `const`-initialised thread-local `Cell`, so
//! the bookkeeping itself never allocates and never races with the other test
//! threads of the harness), and the whole file contains a single test so no
//! sibling test can interleave allocations on this thread.

use ie_nn::dataset::Sample;
use ie_nn::quant::config_from_bits;
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::train::BatchBackwardPlan;
use ie_nn::{Layer, MultiExitNetwork};
use ie_tensor::{QuantParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a thread-local counter bump, which cannot allocate or
// unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Prunes every other input channel (feature) of each conv and dense layer,
/// so the measured passes run the convs at their kept width.
fn prune_every_other(net: &mut MultiExitNetwork) {
    for layer in net.compressible_layers_mut() {
        match layer {
            Layer::Conv2d(c) => {
                let pruned: Vec<usize> = (1..c.in_channels()).step_by(2).collect();
                c.set_pruned_channels(&pruned).unwrap();
            }
            Layer::Dense(d) => {
                let pruned: Vec<usize> = (1..d.in_features()).step_by(2).collect();
                d.set_pruned_channels(&pruned).unwrap();
            }
            _ => unreachable!("compressible layers are conv or dense"),
        }
    }
}

#[test]
fn warmed_planned_training_step_performs_zero_heap_allocations() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut tiny = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
    let mut lenet = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
    let tiny_input = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
    let lenet_input = Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0);
    let mut tiny_plan = tiny.backward_plan();
    let mut lenet_plan = lenet.backward_plan();
    // A pruned backbone, plain and fake-quant: its convs run at their kept
    // width in both halves of the step.
    let mut pruned = lenet.clone();
    prune_every_other(&mut pruned);
    let mut pruned_plan = pruned.backward_plan();
    let lenet_layers = lenet.architecture().compressible_layers().len();
    let lenet_act = QuantParams::from_range(-6.0, 6.0, 8);
    let lenet_entries: Vec<Option<(u8, QuantParams)>> =
        (0..lenet_layers).map(|i| (i % 2 == 0).then_some((4, lenet_act))).collect();
    let pruned_cfg = config_from_bits(&pruned, &lenet_entries).unwrap();
    let mut pruned_fq_plan = pruned.backward_plan_fake_quant(&pruned_cfg).unwrap();

    // A fake-quant plan on the tiny net: the quantize→dequantize round trip
    // of weights and activations runs inside the measured loop.
    let n = tiny.architecture().compressible_layers().len();
    let act = QuantParams::from_range(-6.0, 6.0, 8);
    let entries: Vec<Option<(u8, QuantParams)>> = (0..n).map(|_| Some((8, act))).collect();
    let cfg = config_from_bits(&tiny, &entries).unwrap();
    let mut fq_plan = tiny.backward_plan_fake_quant(&cfg).unwrap();
    let batch: Vec<Sample> =
        (0..4).map(|i| Sample { image: tiny_input.clone(), label: i % 3 }).collect();
    let mut batch_plan = BatchBackwardPlan::fake_quant(cfg.clone());

    let tiny_weights = [0.3f32, 0.7];
    let skip_first = [0.0f32, 1.0];
    let lenet_weights = [0.2f32, 0.3, 0.5];

    // Warm-up: touch every code path the measured section will run.
    for _ in 0..2 {
        tiny.backward_with(&mut tiny_plan, &tiny_input, 1, &tiny_weights).unwrap();
        tiny.apply_gradients(0.0);
        tiny.backward_with(&mut tiny_plan, &tiny_input, 1, &skip_first).unwrap();
        tiny.apply_gradients(0.0);
        tiny.backward_with(&mut fq_plan, &tiny_input, 1, &tiny_weights).unwrap();
        tiny.apply_gradients(0.0);
        lenet.backward_with(&mut lenet_plan, &lenet_input, 2, &lenet_weights).unwrap();
        lenet.apply_gradients(0.0);
        pruned.backward_with(&mut pruned_plan, &lenet_input, 2, &lenet_weights).unwrap();
        pruned.backward_with(&mut pruned_fq_plan, &lenet_input, 2, &lenet_weights).unwrap();
        pruned.apply_gradients(0.0);
        batch_plan.train_step(&mut tiny, &batch, &tiny_weights, 0.0, 1).unwrap();
    }

    let before = allocations_on_this_thread();
    let mut checksum = 0.0f64;
    for _ in 0..10 {
        checksum +=
            tiny.backward_with(&mut tiny_plan, &tiny_input, 1, &tiny_weights).unwrap() as f64;
        tiny.apply_gradients(0.0);
        // A zero-weighted exit (skipped branch) stays allocation-free too.
        checksum += tiny.backward_with(&mut tiny_plan, &tiny_input, 1, &skip_first).unwrap() as f64;
        tiny.apply_gradients(0.0);
        // Fake-quant-in-the-loop.
        checksum += tiny.backward_with(&mut fq_plan, &tiny_input, 1, &tiny_weights).unwrap() as f64;
        tiny.apply_gradients(0.0);
        // The full paper backbone.
        checksum +=
            lenet.backward_with(&mut lenet_plan, &lenet_input, 2, &lenet_weights).unwrap() as f64;
        lenet.apply_gradients(0.0);
        // The pruned backbone, plain and fake-quant.
        checksum +=
            pruned.backward_with(&mut pruned_plan, &lenet_input, 2, &lenet_weights).unwrap() as f64;
        checksum += pruned
            .backward_with(&mut pruned_fq_plan, &lenet_input, 2, &lenet_weights)
            .unwrap() as f64;
        pruned.apply_gradients(0.0);
        // The one-worker batched step: pool handout, inline shard, reduction.
        checksum += batch_plan.train_step(&mut tiny, &batch, &tiny_weights, 0.0, 1).unwrap() as f64;
    }
    let after = allocations_on_this_thread();

    assert_eq!(
        after - before,
        0,
        "warmed planned training steps must not allocate (checksum {checksum})"
    );
}

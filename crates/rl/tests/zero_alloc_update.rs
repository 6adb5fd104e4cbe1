//! Counting-allocator regression test: a warmed-up `DdpgAgent::update`
//! performs **zero** heap allocations.
//!
//! The counting is per-thread (a `const`-initialised thread-local `Cell`, so
//! the bookkeeping itself never allocates and never races with the other test
//! threads of the harness), and the whole file contains a single test so no
//! sibling test can interleave allocations on this thread.

use ie_rl::{DdpgAgent, DdpgConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

#[test]
fn warmed_update_performs_zero_heap_allocations() {
    let mut rng = StdRng::seed_from_u64(11);
    // The compression search's shapes: 12 observation features, a pruning
    // agent with one action and a quantization agent with two.
    let config = DdpgConfig { hidden: 48, replay_capacity: 256, ..DdpgConfig::default() };
    let mut agents: Vec<DdpgAgent> =
        [1, 2].map(|actions| DdpgAgent::new(&mut rng, 12, actions, config.clone())).into();
    for agent in &mut agents {
        let action_dim = agent.action_dim();
        for i in 0..100 {
            agent.observe(Transition {
                state: (0..12).map(|_| rng.gen()).collect(),
                action: (0..action_dim).map(|_| rng.gen()).collect(),
                reward: rng.gen(),
                next_state: (0..12).map(|_| rng.gen()).collect(),
                done: i % 5 == 4,
            });
        }
    }

    // Warm-up: the first update grows every buffer to the batch size.
    for agent in &mut agents {
        agent.update(&mut rng, 48).unwrap();
    }

    let before = allocations_on_this_thread();
    for _ in 0..10 {
        for agent in &mut agents {
            let td = agent.update(&mut rng, 48).unwrap();
            assert!(td.is_some_and(f32::is_finite));
        }
    }
    // A smaller batch reuses the grown buffers.
    for agent in &mut agents {
        agent.update(&mut rng, 7).unwrap();
    }
    let allocations = allocations_on_this_thread() - before;
    assert_eq!(allocations, 0, "warmed DDPG updates performed {allocations} heap allocations");
}

//! Counting-allocator regression test: runtime ISA dispatch adds **zero**
//! per-call heap allocations to the kernels it routes.
//!
//! The dispatch decision is a cached `OnceLock` read; the only allocation it
//! ever performs is reading the `IE_ISA` environment variable once per
//! process, which the warm-up below triggers. After that, every dispatched
//! kernel call must allocate nothing — same contract as the planned
//! inference paths built on top of them.

use ie_tensor::QuantParams;
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
fn dispatched_kernels_perform_zero_allocations_per_call() {
    let (m, k, n) = (12, 64, 48);
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut out = vec![0.0f32; m * n];
    let mut pooled = vec![0.0f32; m * n / 4];
    let mut probs = vec![0.0f32; n];
    let mut codes = vec![0i8; m * n];
    let mut accs = vec![0i32; m * n];
    let a16: Vec<i16> = a.iter().map(|&v| (v * 100.0) as i16).collect();
    let bt16: Vec<i16> = b.iter().map(|&v| (v * 100.0) as i16).collect();
    let cols8: Vec<i8> = b.iter().map(|&v| (v * 100.0) as i8).collect();
    let p = QuantParams::from_range(0.0, 4.0, 8);

    let run_all = |out: &mut [f32],
                   pooled: &mut [f32],
                   probs: &mut [f32],
                   codes: &mut [i8],
                   accs: &mut [i32]| {
        ie_tensor::gemm_into(&a, &b, out, m, k, n);
        ie_tensor::matvec_batch_into(&a, &b[..k], &mut out[..m], m, k, 1);
        ie_tensor::max_pool_planes_into(&b[..m * n], 1, m, n, 2, pooled);
        ie_tensor::relu_slice(out);
        ie_tensor::add_bias_rows(out, n, &a[..m], true);
        ie_tensor::softmax_slice_into(&b[..n], probs);
        p.quantize_slice_into(&b[..m * n], codes);
        for (acc, &c) in accs.iter_mut().zip(codes.iter()) {
            *acc = i32::from(c) * 1000;
        }
        ie_tensor::dequant_slice_into(&accs[..n], 3, 1e-3, 0.1, true, &mut out[..n]);
        ie_tensor::requant_slice_into(&accs[..n], 3, 1e-3, 0.1, &p, p.lo(), &mut codes[..n]);
        ie_tensor::gemm_i16t_into(&a16[..m * k], &bt16[..n * k], &mut accs[..m * n], m, k, n);
        // An odd depth below the row stride and a column remainder: the
        // narrow tiles and the portable remainder must not allocate either.
        let (kc, nc) = (k - 3, n - 7);
        ie_tensor::gemm_i8cols_into(&a16, &cols8[..kc * nc], &mut accs[..m * nc], m, kc, k, nc);
        let mut pooled_codes = [0i8; 4];
        ie_tensor::max_pool_planes_i8_into(&codes[..16], 1, 4, 4, 2, &mut pooled_codes);
        ie_tensor::relu_codes_floor(codes, p.zero_point() as i8);
        pooled_codes[0]
    };

    // Warm-up: triggers the one-time `IE_ISA` read inside the dispatch
    // OnceLock (the only allocation dispatch ever performs).
    let mut checksum = run_all(&mut out, &mut pooled, &mut probs, &mut codes, &mut accs);

    let before = allocations_on_this_thread();
    for _ in 0..10 {
        checksum = checksum.wrapping_add(run_all(
            &mut out,
            &mut pooled,
            &mut probs,
            &mut codes,
            &mut accs,
        ));
    }
    let after = allocations_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "dispatched kernels must not allocate per call (checksum {checksum})"
    );
}

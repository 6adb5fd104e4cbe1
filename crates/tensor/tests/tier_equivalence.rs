//! Tier-equivalence property tests: every dispatched kernel must be
//! **bit-identical** on every ISA tier the running machine supports.
//!
//! The tests iterate [`ie_tensor::dispatch::supported_tiers`] through the
//! explicit-tier entry points (`ie_tensor::tiered::*`), comparing each
//! higher tier against the portable baseline bit for bit. On hardware
//! without AVX-512 VNNI the VNNI tier simply never appears in the list —
//! the `IE_ISA=vnni` override degrades the same way — so the suite passes
//! (with less coverage) everywhere. The CI portable-tier job additionally
//! runs the *whole* workspace suite under `IE_ISA=portable`, which pins the
//! auto-dispatched kernels to the baseline and must change no test outcome.

use ie_tensor::dispatch::{supported_tiers, IsaTier};
use ie_tensor::{tiered, QuantParams};
use proptest::prelude::*;

fn bits_f32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Dense GEMM (the MR=6 register tile): all tiers bit-identical, across
    /// tile/panel remainders.
    #[test]
    fn gemm_tiers_are_bit_identical(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let data = mulberry(seed, m * k + k * n);
        let (a, b) = data.split_at(m * k);
        let mut base = vec![0.0f32; m * n];
        tiered::gemm_into(IsaTier::Portable, a, b, &mut base, m, k, n);
        for &tier in &supported_tiers()[1..] {
            let mut out = vec![0.0f32; m * n];
            tiered::gemm_into(tier, a, b, &mut out, m, k, n);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "tier {:?} {}x{}x{}", tier, m, k, n);
        }
    }

    /// Matrix–vector products (single and batched lane-parallel dot).
    #[test]
    fn matvec_tiers_are_bit_identical(
        m in 1usize..24,
        k in 1usize..50,
        batch in 1usize..6,
        seed in 0u64..1000,
    ) {
        let data = mulberry(seed, m * k + batch * k);
        let (a, xs) = data.split_at(m * k);
        let mut base_single = vec![0.0f32; m];
        tiered::matvec_batch_into(IsaTier::Portable, a, &xs[..k], &mut base_single, m, k, 1);
        let mut base_batch = vec![0.0f32; batch * m];
        tiered::matvec_batch_into(IsaTier::Portable, a, xs, &mut base_batch, m, k, batch);
        for &tier in &supported_tiers()[1..] {
            let mut single = vec![0.0f32; m];
            tiered::matvec_batch_into(tier, a, &xs[..k], &mut single, m, k, 1);
            prop_assert_eq!(bits_f32(&base_single), bits_f32(&single), "tier {:?}", tier);
            let mut batched = vec![0.0f32; batch * m];
            tiered::matvec_batch_into(tier, a, xs, &mut batched, m, k, batch);
            prop_assert_eq!(bits_f32(&base_batch), bits_f32(&batched), "tier {:?}", tier);
        }
    }

    /// Max pooling, `f32` and code domain, across window sizes (2 exercises
    /// the explicit AVX2 kernel, 1 and 3 the shared portable path) and plane
    /// widths around the 8/16-output vector blocks.
    #[test]
    fn max_pool_tiers_are_bit_identical(
        planes in 1usize..4,
        oh in 1usize..6,
        ow in 1usize..24,
        size in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (h, w) = (oh * size, ow * size);
        let src = mulberry(seed, planes * h * w);
        let codes: Vec<i8> = src.iter().map(|&v| (v * 6.0) as i8).collect();
        let mut base = vec![0.0f32; planes * oh * ow];
        tiered::max_pool_planes_into(IsaTier::Portable, &src, planes, h, w, size, &mut base);
        let mut base_codes = vec![0i8; planes * oh * ow];
        tiered::max_pool_planes_i8_into(
            IsaTier::Portable, &codes, planes, h, w, size, &mut base_codes,
        );
        for &tier in &supported_tiers()[1..] {
            let mut out = vec![0.0f32; planes * oh * ow];
            tiered::max_pool_planes_into(tier, &src, planes, h, w, size, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "tier {:?} size {}", tier, size);
            let mut out_codes = vec![0i8; planes * oh * ow];
            tiered::max_pool_planes_i8_into(tier, &codes, planes, h, w, size, &mut out_codes);
            prop_assert_eq!(&base_codes, &out_codes, "codes tier {:?} size {}", tier, size);
        }
    }

    /// ReLU sweeps (`f32` and code floor, codes and floor over the whole
    /// `i8` range) and the fused bias epilogues.
    #[test]
    fn relu_and_bias_tiers_are_bit_identical(
        rows in 1usize..6,
        plane in 1usize..40,
        floor in i8::MIN..=i8::MAX,
        seed in 0u64..1000,
    ) {
        let src = mulberry(seed, rows * plane);
        let bias = mulberry(seed ^ 0x5a5a, rows);
        let codes_src: Vec<i8> = src.iter().map(|&v| (v * 16.0) as i8).collect();
        for &tier in &supported_tiers()[1..] {
            let mut base = src.clone();
            tiered::relu_slice(IsaTier::Portable, &mut base);
            let mut out = src.clone();
            tiered::relu_slice(tier, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "relu tier {:?}", tier);

            let mut base_codes = codes_src.clone();
            tiered::relu_codes_floor(IsaTier::Portable, &mut base_codes, floor);
            let mut out_codes = codes_src.clone();
            tiered::relu_codes_floor(tier, &mut out_codes, floor);
            prop_assert_eq!(&base_codes, &out_codes, "relu codes tier {:?}", tier);

            for relu in [false, true] {
                let mut base_rows = src.clone();
                tiered::add_bias_rows(IsaTier::Portable, &mut base_rows, plane, &bias, relu);
                let mut out_rows = src.clone();
                tiered::add_bias_rows(tier, &mut out_rows, plane, &bias, relu);
                prop_assert_eq!(bits_f32(&base_rows), bits_f32(&out_rows), "bias tier {:?}", tier);

                // Sample-major: reuse `src` as [plane, rows] with `bias` per row.
                let mut base_s = src.clone();
                tiered::add_bias_samples(IsaTier::Portable, &mut base_s, &bias, relu);
                let mut out_s = src.clone();
                tiered::add_bias_samples(tier, &mut out_s, &bias, relu);
                prop_assert_eq!(bits_f32(&base_s), bits_f32(&out_s), "bias samples {:?}", tier);
            }
        }
    }

    /// Softmax: fixed reduction trees plus the shared polynomial exponential.
    #[test]
    fn softmax_tiers_are_bit_identical(len in 1usize..64, seed in 0u64..1000) {
        let logits = mulberry(seed, len);
        let mut base = vec![0.0f32; len];
        tiered::softmax_slice_into(IsaTier::Portable, &logits, &mut base);
        for &tier in &supported_tiers()[1..] {
            let mut out = vec![0.0f32; len];
            tiered::softmax_slice_into(tier, &logits, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "tier {:?} len {}", tier, len);
        }
    }

    /// The transposed madd GEMM: `vpmaddwd` (AVX2) and `vpdpwssd` (VNNI)
    /// tiers against the portable dot, including depths that exercise the
    /// 32/16-element chunking and the scalar tail.
    #[test]
    fn madd_gemm_tiers_are_bit_identical(
        m in 1usize..10,
        kp in 1usize..80,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let data = mulberry(seed, m * kp + n * kp);
        let codes: Vec<i16> = data.iter().map(|&v| (v * 2048.0) as i16).collect();
        let (a, bt) = codes.split_at(m * kp);
        let mut base = vec![0i32; m * n];
        tiered::gemm_i16t_into(IsaTier::Portable, a, bt, &mut base, m, kp, n);
        for &tier in &supported_tiers()[1..] {
            let mut out = vec![0i32; m * n];
            tiered::gemm_i16t_into(tier, a, bt, &mut out, m, kp, n);
            prop_assert_eq!(&base, &out, "tier {:?} {}x{}x{}", tier, m, kp, n);
        }
    }

    /// Activation quantization and both requantization epilogue layouts.
    #[test]
    fn quantize_and_requant_tiers_are_bit_identical(
        len in 1usize..80,
        bits in 2u8..=8,
        seed in 0u64..1000,
    ) {
        let p = QuantParams::from_range(0.0, 9.5, bits);
        let signed = QuantParams::from_range(-4.0, 4.0, bits);
        let src = mulberry(seed, len);
        let accs: Vec<i32> = src.iter().map(|&v| (v * 100_000.0) as i32).collect();
        let corrs: Vec<i32> = mulberry(seed ^ 0x77, len).iter().map(|&v| (v * 50.0) as i32).collect();
        let biases = mulberry(seed ^ 0x99, len);
        let (scale, corr, bias) = (3.1e-3f32, 17i32, 0.37f32);
        for &tier in &supported_tiers()[1..] {
            for params in [&p, &signed] {
                let mut base = vec![0i8; len];
                params.quantize_slice_into_tier(IsaTier::Portable, &src, &mut base);
                let mut out = vec![0i8; len];
                params.quantize_slice_into_tier(tier, &src, &mut out);
                prop_assert_eq!(&base, &out, "quantize tier {:?}", tier);

                for relu in [false, true] {
                    let mut base_f = vec![0.0f32; len];
                    tiered::dequant_slice_into(
                        IsaTier::Portable, &accs, corr, scale, bias, relu, &mut base_f,
                    );
                    let mut out_f = vec![0.0f32; len];
                    tiered::dequant_slice_into(tier, &accs, corr, scale, bias, relu, &mut out_f);
                    prop_assert_eq!(bits_f32(&base_f), bits_f32(&out_f), "dequant {:?}", tier);

                    let mut base_r = vec![0.0f32; len];
                    tiered::dequant_rows_slice_into(
                        IsaTier::Portable, &accs, &corrs, &biases, scale, relu, &mut base_r,
                    );
                    let mut out_r = vec![0.0f32; len];
                    tiered::dequant_rows_slice_into(
                        tier, &accs, &corrs, &biases, scale, relu, &mut out_r,
                    );
                    prop_assert_eq!(bits_f32(&base_r), bits_f32(&out_r), "dequant rows {:?}", tier);

                    let floor = if relu { params.zero_point() } else { params.lo() };
                    let mut base_c = vec![0i8; len];
                    tiered::requant_slice_into(
                        IsaTier::Portable, &accs, corr, scale, bias, params, floor, &mut base_c,
                    );
                    let mut out_c = vec![0i8; len];
                    tiered::requant_slice_into(
                        tier, &accs, corr, scale, bias, params, floor, &mut out_c,
                    );
                    prop_assert_eq!(&base_c, &out_c, "requant tier {:?}", tier);

                    let mut base_rc = vec![0i8; len];
                    tiered::requant_rows_slice_into(
                        IsaTier::Portable, &accs, &corrs, &biases, scale, params, floor,
                        &mut base_rc,
                    );
                    let mut out_rc = vec![0i8; len];
                    tiered::requant_rows_slice_into(
                        tier, &accs, &corrs, &biases, scale, params, floor, &mut out_rc,
                    );
                    prop_assert_eq!(&base_rc, &out_rc, "requant rows tier {:?}", tier);
                }
            }
        }
    }

    /// The dequantize and requantize epilogues at the ends of `i32`:
    /// accumulators and corrections at `i32::MIN` and `i32::MAX`, where
    /// `acc − corr` wraps, wrap identically on every tier.
    #[test]
    fn epilogues_wrap_identically_across_tiers(len in 1usize..80, seed in 0u64..1000) {
        const EDGES: [i32; 6] = [i32::MIN, i32::MIN + 1, -1, 0, i32::MAX - 1, i32::MAX];
        let draw = |salt: u64| -> Vec<i32> {
            mulberry(seed ^ salt, len)
                .iter()
                .map(|&v| match v.to_bits() % 3 {
                    0 => EDGES[(v.to_bits() / 3) as usize % EDGES.len()],
                    _ => (v * 2.6e8) as i32,
                })
                .collect()
        };
        let (accs, corrs) = (draw(0x11), draw(0x22));
        let biases = mulberry(seed ^ 0x33, len);
        let p = QuantParams::from_range(-4.0, 4.0, 8);
        let scale = 3.1e-9f32;
        for &tier in &supported_tiers()[1..] {
            for relu in [false, true] {
                for corr in EDGES {
                    let mut base = vec![0.0f32; len];
                    tiered::dequant_slice_into(
                        IsaTier::Portable, &accs, corr, scale, 0.37, relu, &mut base,
                    );
                    let mut out = vec![0.0f32; len];
                    tiered::dequant_slice_into(tier, &accs, corr, scale, 0.37, relu, &mut out);
                    prop_assert_eq!(bits_f32(&base), bits_f32(&out), "dequant {:?}", tier);

                    let floor = if relu { p.zero_point() } else { p.lo() };
                    let mut base_c = vec![0i8; len];
                    tiered::requant_slice_into(
                        IsaTier::Portable, &accs, corr, scale, 0.37, &p, floor, &mut base_c,
                    );
                    let mut out_c = vec![0i8; len];
                    tiered::requant_slice_into(
                        tier, &accs, corr, scale, 0.37, &p, floor, &mut out_c,
                    );
                    prop_assert_eq!(&base_c, &out_c, "requant {:?}", tier);
                }
                let mut base = vec![0.0f32; len];
                tiered::dequant_rows_slice_into(
                    IsaTier::Portable, &accs, &corrs, &biases, scale, relu, &mut base,
                );
                let mut out = vec![0.0f32; len];
                tiered::dequant_rows_slice_into(
                    tier, &accs, &corrs, &biases, scale, relu, &mut out,
                );
                prop_assert_eq!(bits_f32(&base), bits_f32(&out), "dequant rows {:?}", tier);

                let floor = if relu { p.zero_point() } else { p.lo() };
                let mut base_c = vec![0i8; len];
                tiered::requant_rows_slice_into(
                    IsaTier::Portable, &accs, &corrs, &biases, scale, &p, floor, &mut base_c,
                );
                let mut out_c = vec![0i8; len];
                tiered::requant_rows_slice_into(
                    tier, &accs, &corrs, &biases, scale, &p, floor, &mut out_c,
                );
                prop_assert_eq!(&base_c, &out_c, "requant rows {:?}", tier);
            }
        }
    }

    /// The training-side backward kernels: transpose, ReLU mask-multiply,
    /// argmax-routed pool backward, accumulating outer product, slice
    /// accumulate and the fused cross-entropy gradient epilogue.
    ///
    /// The outer product runs batched, on batches below and above its
    /// 4×16 tile and on widths past 16, into a nonzero accumulator: on every
    /// tier one batched call must equal a batch-of-one call per sample in
    /// ascending order, and those must equal the portable tier's.
    #[test]
    fn backward_kernel_tiers_are_bit_identical(
        rows in 1usize..12,
        cols in 1usize..40,
        batch in 1usize..11,
        seed in 0u64..1000,
    ) {
        let len = rows * cols;
        let data = mulberry(seed, 2 * len);
        let (a, b) = data.split_at(len);
        let label = (seed as usize) % cols;
        let weight = 0.25 + (seed % 7) as f32 * 0.37;
        let us = mulberry(seed ^ 0x55, batch * rows);
        let vs = mulberry(seed ^ 0x99, batch * cols);
        let per_sample = |tier: IsaTier| {
            let mut acc = b.to_vec();
            for (u, v) in us.chunks_exact(rows).zip(vs.chunks_exact(cols)) {
                tiered::outer_accumulate_batch_into(tier, u, v, &mut acc, rows, cols, 1);
            }
            acc
        };
        let base_o = per_sample(IsaTier::Portable);
        for &tier in supported_tiers() {
            let mut out_o = b.to_vec();
            tiered::outer_accumulate_batch_into(tier, &us, &vs, &mut out_o, rows, cols, batch);
            prop_assert_eq!(bits_f32(&per_sample(tier)), bits_f32(&out_o), "outer {:?}", tier);
            prop_assert_eq!(bits_f32(&base_o), bits_f32(&out_o), "outer {:?}", tier);
        }
        for &tier in &supported_tiers()[1..] {
            let mut base = vec![0.0f32; len];
            tiered::transpose_into(IsaTier::Portable, a, rows, cols, &mut base);
            let mut out = vec![0.0f32; len];
            tiered::transpose_into(tier, a, rows, cols, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "transpose {:?}", tier);

            let mut base_r = vec![0.0f32; len];
            tiered::relu_backward_into(IsaTier::Portable, a, b, &mut base_r);
            let mut out_r = vec![0.0f32; len];
            tiered::relu_backward_into(tier, a, b, &mut out_r);
            prop_assert_eq!(bits_f32(&base_r), bits_f32(&out_r), "relu bwd {:?}", tier);

            let mut base_acc = a.to_vec();
            tiered::accumulate_slice_into(IsaTier::Portable, &mut base_acc, b);
            let mut out_acc = a.to_vec();
            tiered::accumulate_slice_into(tier, &mut out_acc, b);
            prop_assert_eq!(bits_f32(&base_acc), bits_f32(&out_acc), "accumulate {:?}", tier);

            let mut base_ce = vec![0.0f32; cols];
            tiered::cross_entropy_grad_into(IsaTier::Portable, &a[..cols], label, weight, &mut base_ce);
            let mut out_ce = vec![0.0f32; cols];
            tiered::cross_entropy_grad_into(tier, &a[..cols], label, weight, &mut out_ce);
            prop_assert_eq!(bits_f32(&base_ce), bits_f32(&out_ce), "ce grad {:?}", tier);
        }
    }

    /// The batched transposed-`A` kernel (`dx = Wᵀ·g`, and the `Mlp`
    /// forward over a transposed copy of `W`) is bit-identical across tiers
    /// and to transpose-then-multiply, on batches below and above its
    /// 4-sample tile and on widths past its 16-column tile; on every tier
    /// each sample of a batched call equals a batch-of-one call on it.
    #[test]
    fn transposed_product_tiers_are_bit_identical(
        m in 1usize..80,
        k in 1usize..40,
        batch in 1usize..11,
        seed in 0u64..1000,
    ) {
        let a = mulberry(seed, k * m);
        let xs = mulberry(seed ^ 0x77, batch * k);
        let mut at = vec![0.0f32; k * m];
        tiered::transpose_into(IsaTier::Portable, &a, k, m, &mut at);
        let mut base_v = vec![0.0f32; batch * m];
        tiered::matvec_batch_into(IsaTier::Portable, &at, &xs, &mut base_v, m, k, batch);
        for &tier in supported_tiers() {
            let mut out_v = vec![f32::NAN; batch * m];
            tiered::matvec_t_batch_into(tier, &a, &xs, &mut out_v, m, k, batch);
            prop_assert_eq!(bits_f32(&base_v), bits_f32(&out_v), "matvec_t {:?}", tier);
            for (x, out) in xs.chunks_exact(k).zip(out_v.chunks_exact(m)) {
                let mut one = vec![f32::NAN; m];
                tiered::matvec_t_batch_into(tier, &a, x, &mut one, m, k, 1);
                prop_assert_eq!(bits_f32(&one), bits_f32(out), "batch of one {:?}", tier);
            }
        }
    }

    /// Max-pool backward across window sizes and ties: the argmax scatter
    /// must pick the same first strict maximum on every tier.
    #[test]
    fn max_pool_backward_tiers_are_bit_identical(
        planes in 1usize..4,
        oh in 1usize..6,
        ow in 1usize..12,
        size in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (h, w) = (oh * size, ow * size);
        let mut src = mulberry(seed, planes * h * w);
        // Inject exact ties so the first-strict-max rule is exercised.
        for v in src.iter_mut().skip(1).step_by(5) {
            *v = 4.0;
        }
        let go = mulberry(seed ^ 0x1234, planes * oh * ow);
        let mut base = vec![0.0f32; planes * h * w];
        tiered::max_pool_backward_into(IsaTier::Portable, &src, planes, h, w, size, &go, &mut base);
        for &tier in &supported_tiers()[1..] {
            let mut out = vec![0.0f32; planes * h * w];
            tiered::max_pool_backward_into(tier, &src, planes, h, w, size, &go, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "pool bwd {:?} size {}", tier, size);
        }
    }

    /// Edge values — NaN, infinities, signed zeros, exact ties — resolve
    /// identically on every tier (the `vmaxps` select semantics, and the
    /// ReLU backward's mask multiply with specials in both operands).
    #[test]
    fn edge_values_resolve_identically_across_tiers(seed in 0u64..200) {
        let mut src = mulberry(seed, 64);
        let mut grad = mulberry(seed ^ 0x3c3c, 64);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.0, -1.0];
        for (i, v) in src.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = specials[i % specials.len()];
            }
        }
        for (i, g) in grad.iter_mut().enumerate() {
            if i % 2 == 0 {
                *g = specials[(i / 2 + seed as usize) % specials.len()];
            }
        }
        for &tier in &supported_tiers()[1..] {
            let mut base_b = vec![0.0f32; 64];
            tiered::relu_backward_into(IsaTier::Portable, &src, &grad, &mut base_b);
            let mut out_b = vec![0.0f32; 64];
            tiered::relu_backward_into(tier, &src, &grad, &mut out_b);
            prop_assert_eq!(bits_f32(&base_b), bits_f32(&out_b), "relu bwd specials {:?}", tier);

            let mut base = src.clone();
            tiered::relu_slice(IsaTier::Portable, &mut base);
            let mut out = src.clone();
            tiered::relu_slice(tier, &mut out);
            prop_assert_eq!(bits_f32(&base), bits_f32(&out), "relu specials {:?}", tier);

            let mut base_p = vec![0.0f32; 16];
            tiered::max_pool_planes_into(IsaTier::Portable, &src, 1, 4, 16, 2, &mut base_p);
            let mut out_p = vec![0.0f32; 16];
            tiered::max_pool_planes_into(tier, &src, 1, 4, 16, 2, &mut out_p);
            prop_assert_eq!(bits_f32(&base_p), bits_f32(&out_p), "pool specials {:?}", tier);

            let p = QuantParams::from_range(0.0, 4.0, 8);
            let mut base_q = vec![0i8; 64];
            p.quantize_slice_into_tier(IsaTier::Portable, &src, &mut base_q);
            let mut out_q = vec![0i8; 64];
            p.quantize_slice_into_tier(tier, &src, &mut out_q);
            prop_assert_eq!(&base_q, &out_q, "quantize specials {:?}", tier);

            let mut base_s = vec![0.0f32; 64];
            tiered::softmax_slice_into(IsaTier::Portable, &src, &mut base_s);
            let mut out_s = vec![0.0f32; 64];
            tiered::softmax_slice_into(tier, &src, &mut out_s);
            prop_assert_eq!(bits_f32(&base_s), bits_f32(&out_s), "softmax specials {:?}", tier);
        }
    }
}

/// Deterministic pseudo-random `f32` generator (mulberry32) so every shape
/// gets stable, seed-addressable data without pulling a full RNG strategy
/// through `prop_flat_map`.
/// The GEMM's last `n % 16` columns run the 16-lane tiles over a
/// zero-padded panel: on every tier each output must equal the naive
/// ascending-depth loop, for every remainder 1..=15, for `n < 16` (no full
/// panel), with and without panel packing (`m` below and above 12 rows), and
/// for `k` past one 256-deep block, where the tiles reload their
/// accumulators from `out`.
#[test]
fn gemm_column_remainder_matches_the_naive_loop_on_every_tier() {
    for (m, k) in [(1usize, 3usize), (5, 17), (7, 256), (13, 300), (16, 513)] {
        for n in (1..16).chain((1..16).map(|r| 32 + r)) {
            let data = mulberry((m * 1_000 + k * 100 + n) as u64, m * k + k * n);
            let (a, b) = data.split_at(m * k);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    for j in 0..n {
                        naive[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            for &tier in supported_tiers() {
                let mut out = vec![f32::NAN; m * n];
                tiered::gemm_into(tier, a, b, &mut out, m, k, n);
                assert_eq!(bits_f32(&out), bits_f32(&naive), "tier {tier:?} {m}x{k}x{n}");
            }
        }
    }
}

/// Every length below and between two 16-lane blocks (1..=15, 17..=31)
/// takes the quantize and requantize kernels' tail path: on every tier it
/// must equal the portable loop, for unsigned and signed ranges and both
/// floors. The proptest above draws lengths at random and may miss some.
#[test]
fn quantize_and_requant_tails_match_portable_at_every_short_length() {
    for len in (1usize..=15).chain(17..=31) {
        let src = mulberry(len as u64, len);
        let accs: Vec<i32> = src.iter().map(|&v| (v * 100_000.0) as i32).collect();
        let corrs: Vec<i32> = mulberry(len as u64 ^ 0x77, len).iter().map(|&v| v as i32).collect();
        let biases = mulberry(len as u64 ^ 0x99, len);
        let (scale, corr, bias) = (3.1e-3f32, 17i32, 0.37f32);
        for params in [QuantParams::from_range(0.0, 9.5, 8), QuantParams::from_range(-4.0, 4.0, 5)]
        {
            let mut base = vec![0i8; len];
            params.quantize_slice_into_tier(IsaTier::Portable, &src, &mut base);
            for &tier in &supported_tiers()[1..] {
                let mut out = vec![0i8; len];
                params.quantize_slice_into_tier(tier, &src, &mut out);
                assert_eq!(base, out, "quantize tier {tier:?} len {len}");
            }
            for floor in [params.zero_point(), params.lo()] {
                let mut base = vec![0i8; len];
                tiered::requant_slice_into(
                    IsaTier::Portable,
                    &accs,
                    corr,
                    scale,
                    bias,
                    &params,
                    floor,
                    &mut base,
                );
                let mut base_rows = vec![0i8; len];
                tiered::requant_rows_slice_into(
                    IsaTier::Portable,
                    &accs,
                    &corrs,
                    &biases,
                    scale,
                    &params,
                    floor,
                    &mut base_rows,
                );
                for &tier in &supported_tiers()[1..] {
                    let mut out = vec![0i8; len];
                    tiered::requant_slice_into(
                        tier, &accs, corr, scale, bias, &params, floor, &mut out,
                    );
                    assert_eq!(base, out, "requant tier {tier:?} len {len}");
                    tiered::requant_rows_slice_into(
                        tier, &accs, &corrs, &biases, scale, &params, floor, &mut out,
                    );
                    assert_eq!(base_rows, out, "requant rows tier {tier:?} len {len}");
                }
            }
        }
    }
}

/// The naive triple loop `out[i][j] = Σ_{p<k} w[i][p] · cols[p][j]` over
/// `[m, kp]` weight rows and a `[k, n]` column matrix, in wrapping `i32`.
fn naive_i8cols(w: &[i16], cols: &[i8], m: usize, k: usize, kp: usize, n: usize) -> Vec<i32> {
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                let prod = i32::from(w[i * kp + p]) * i32::from(cols[p * n + j]);
                out[i * n + j] = out[i * n + j].wrapping_add(prod);
            }
        }
    }
    out
}

/// The convolution GEMM equals the naive triple loop on every tier, over
/// every tile remainder: odd and even depths, padded (`kp > k`) and unpadded
/// rows, `n % 32` in {0, 1, 15, 16, 17} (below and above one 32-column
/// strip), and `m % 8` in 0..=7 (below and above one 8-row tile). The depth
/// pad holds nonzero codes, which the kernel must not read.
#[test]
fn i8cols_gemm_matches_the_naive_loop_on_every_tier() {
    let ms = (1..=9).chain([12, 15, 16, 23]);
    let shapes: Vec<(usize, usize)> = [(1, 1), (2, 2), (5, 5), (75, 0), (50, 14), (144, 0)]
        .into_iter()
        .flat_map(|(k, pad)| [(k, k + pad), (k + 1, k + 1 + pad)])
        .collect();
    for m in ms {
        for &(k, kp) in &shapes {
            for n in [1usize, 15, 16, 17, 32, 33, 47, 48, 49, 64, 81] {
                let data = mulberry((m * 10_000 + k * 100 + n) as u64, m * kp + k * n);
                let (wf, cf) = data.split_at(m * kp);
                let w: Vec<i16> = wf.iter().map(|&v| (v * 4096.0) as i16).collect();
                let cols: Vec<i8> = cf.iter().map(|&v| (v * 16.0) as i8).collect();
                let naive = naive_i8cols(&w, &cols, m, k, kp, n);
                for &tier in supported_tiers() {
                    let mut out = vec![7i32; m * n];
                    tiered::gemm_i8cols_into(tier, &w, &cols, &mut out, m, k, kp, n);
                    assert_eq!(out, naive, "tier {tier:?} m {m} k {k} kp {kp} n {n}");
                }
            }
        }
    }
}

/// Full-range `i16` weights against `i8` codes of −128, deep enough to wrap
/// the `i32` accumulator: row 0 holds only −32768 and column 0 only −128, so
/// cell (0, 0) sums `k` products of 2^22 past `i32::MAX`, and every tier
/// must wrap exactly like the naive loop.
#[test]
fn i8cols_gemm_wraps_like_the_naive_loop_on_every_tier() {
    let (m, k, n) = (9usize, 601usize, 49usize);
    let kp = k.next_multiple_of(16);
    let data = mulberry(17, m * kp + k * n);
    let (wf, cf) = data.split_at(m * kp);
    let mut w: Vec<i16> = wf.iter().map(|&v| (v * 4096.0) as i16).collect();
    let mut cols: Vec<i8> = cf.iter().map(|&v| (v * 16.0) as i8).collect();
    w[..kp].fill(i16::MIN);
    for p in 0..k {
        cols[p * n] = i8::MIN;
    }
    let naive = naive_i8cols(&w, &cols, m, k, kp, n);
    assert_eq!(naive[0], (k as i64 * (1 << 22)) as i32, "cell (0, 0) wraps");
    assert!(k as i64 * (1 << 22) > i64::from(i32::MAX));
    for &tier in supported_tiers() {
        let mut out = vec![0i32; m * n];
        tiered::gemm_i8cols_into(tier, &w, &cols, &mut out, m, k, kp, n);
        assert_eq!(out, naive, "tier {tier:?}");
    }
}

fn mulberry(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to roughly [-8, 8) with plenty of fractional variety.
            ((state >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0) as f32
        })
        .collect()
}

/// The dispatch override contract: `active()` never exceeds the hardware and
/// honours `IE_ISA` when set (the CI portable job relies on this).
#[test]
fn active_tier_is_always_supported() {
    let active = ie_tensor::dispatch::active();
    assert!(supported_tiers().contains(&active));
}

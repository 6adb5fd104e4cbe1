//! Integer (quantized) kernels and the scalar quantization arithmetic shared
//! by every layer of the stack.
//!
//! The compression policies assign per-layer weight/activation bitwidths;
//! executing those layers through true integer arithmetic — instead of
//! dequantizing every weight back to `f32` — is what makes the measured
//! latency reflect the MCU-class deployment the search optimizes. This module
//! provides:
//!
//! * [`QuantParams`] — an affine activation quantization `code = round(v / s)
//!   + zp` clamped to a signed code range that always fits `i8` (activations
//!   are quantized to at most 8 bits), with the scalar
//!   [`QuantParams::quantize`] / [`QuantParams::dequantize`] maps;
//! * [`weight_code`] — the symmetric signed weight quantizer shared by the
//!   fake-quant `f32` round trip in `ie_compress` and the integer plan
//!   construction in `ie_nn`, so both paths derive bit-identical codes from
//!   one scale;
//! * two integer GEMMs with `i32` accumulators, both built on `vpmaddwd`,
//!   the paired `i16` multiply-add (256-bit on AVX2, 512-bit on VNNI): the
//!   register-tiled [`gemm_i8cols_into`], which multiplies the packed weight
//!   rows into the `[k, n]` `i8` column matrix the quantized `im2col` writes
//!   (the convolution), and the transposed dot [`gemm_i16t_into`], whose
//!   every output is one contiguous dot (the dense layer, where `n` is the
//!   batch and too narrow for a column tile);
//! * [`dequant_acc`] — the requantization epilogue's scalar step, fixed here
//!   so the optimized kernels and the naive fake-quant reference agree bit
//!   for bit.
//!
//! # Determinism and overflow
//!
//! Integer addition is associative, so — unlike the `f32` kernels — the
//! vectorized integer GEMM is bit-identical to a naive triple loop by
//! construction, whatever its evaluation order; that naive loop is its test
//! oracle. Accumulation uses **wrapping** `i32` arithmetic: a single `i8·i8`
//! product is at most `2^14`, so 8-bit codes are mathematically exact for
//! depths up to `2^17`; full-range `i16` codes (products up to `2^30`) can
//! wrap at large depths, in which case every tier wraps identically to the
//! naive loop — deterministic on every platform, never undefined behaviour.

use crate::dispatch::{self, tiered, IsaTier};

/// Affine quantization parameters of one activation tensor.
///
/// Codes live in the signed range `[lo, hi]` (always within `i8` because
/// activations are quantized to at most [`MAX_ACT_BITS`] bits), the real
/// value of a code is `(code − zero_point) · scale`, and the real value `0.0`
/// maps exactly to `zero_point` — which is what lets zero padding in the
/// quantized `im2col` be a plain `zero_point` fill.
///
/// The struct caches the reciprocal scale and the `f32`-domain clamp bounds
/// so [`QuantParams::quantize`] is a multiply → `round_ties_even` → clamp →
/// convert chain with no division and no 64-bit clamping. Each step has a
/// one-instruction AVX2 form, which the hand-written AVX2 sweep
/// ([`QuantParams::quantize_slice_into`]) uses lane for lane. The compiler
/// does **not** find that form on its own: on the baseline x86-64 target
/// (SSE2, no `roundps`) a scalar sweep through this function calls `rintf`
/// once per element. Fields are private so the cached values stay
/// consistent; construct via [`QuantParams::new`] /
/// [`QuantParams::from_range`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    /// Cached `1 / scale` (quantization multiplies instead of dividing).
    inv_scale: f32,
    zero_point: i32,
    lo: i32,
    hi: i32,
    /// Cached `(lo − zero_point) as f32` clamp bound.
    qlo: f32,
    /// Cached `(hi − zero_point) as f32` clamp bound.
    qhi: f32,
}

/// Maximum activation bitwidth of the integer engine (codes must fit `i8`).
pub const MAX_ACT_BITS: u8 = 8;

impl QuantParams {
    /// Builds parameters from an explicit scale, zero point and code range.
    ///
    /// # Panics
    ///
    /// Panics when the scale is not a positive finite number or the range is
    /// empty or does not contain the zero point.
    pub fn new(scale: f32, zero_point: i32, lo: i32, hi: i32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive and finite: {scale}");
        assert!(
            lo <= zero_point && zero_point <= hi,
            "zero point {zero_point} outside [{lo},{hi}]"
        );
        QuantParams {
            scale,
            inv_scale: 1.0 / scale,
            zero_point,
            lo,
            hi,
            qlo: (lo - zero_point) as f32,
            qhi: (hi - zero_point) as f32,
        }
    }

    /// Step size between adjacent codes.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Code representing the real value `0.0`.
    #[inline]
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Smallest representable code.
    #[inline]
    pub fn lo(&self) -> i32 {
        self.lo
    }

    /// Largest representable code.
    #[inline]
    pub fn hi(&self) -> i32 {
        self.hi
    }
    /// Builds parameters for a `bits`-bit activation whose observed values
    /// span `[min, max]` (from calibration).
    ///
    /// Non-negative ranges (post-ReLU activations) use the full
    /// `2^bits − 1`-step range with the zero point pinned to the lowest code,
    /// mirroring the paper's unsigned activation quantization; ranges that
    /// cross zero use a symmetric scale with a zero point of 0. Degenerate
    /// ranges (`max ≤ 0` for non-negative, all-zero otherwise) fall back to a
    /// scale of 1 so the parameters stay finite and deterministic.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is zero or exceeds [`MAX_ACT_BITS`].
    pub fn from_range(min: f32, max: f32, bits: u8) -> Self {
        assert!(
            (1..=MAX_ACT_BITS).contains(&bits),
            "activation bits must be in 1..={MAX_ACT_BITS}, got {bits}"
        );
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        if min >= 0.0 {
            // Unsigned-style range mapped onto signed storage: code `lo` is
            // the real value 0, every one of the 2^bits − 1 steps is used.
            let steps = (hi - lo) as f32;
            let scale = if max > 0.0 { (max / steps).max(f32::MIN_POSITIVE) } else { 1.0 };
            QuantParams::new(scale, lo, lo, hi)
        } else {
            let max_abs = max.abs().max(min.abs());
            let denom = hi.max(1) as f32;
            let scale = if max_abs > 0.0 { (max_abs / denom).max(f32::MIN_POSITIVE) } else { 1.0 };
            QuantParams::new(scale, 0, lo, hi)
        }
    }

    /// Quantizes a real value to its code:
    /// `clamp(round_ties_even(v · (1/scale))) + zero_point`, with the clamp
    /// applied in the `f32` domain (bounds pre-shifted by the zero point).
    ///
    /// Deterministic for every input (NaN maps to the zero point, infinities
    /// saturate at the range ends). No division and no widening, but a
    /// scalar sweep through this function does not auto-vectorize on the
    /// baseline x86-64 target: the rounding becomes a `rintf` call per
    /// element. Sweep slices with [`QuantParams::quantize_slice_into`],
    /// whose AVX2 tier rounds eight lanes per instruction.
    #[inline]
    pub fn quantize(&self, v: f32) -> i32 {
        let q = (v * self.inv_scale).round_ties_even().clamp(self.qlo, self.qhi);
        // In-range by the clamp (NaN casts to 0, also in range after the
        // shift), so the cast is exact.
        q as i32 + self.zero_point
    }

    /// Real value of a code: `(code − zero_point) · scale`.
    #[inline]
    pub fn dequantize(&self, code: i32) -> f32 {
        (code - self.zero_point) as f32 * self.scale
    }

    /// Quantizes a whole `f32` slice into `i8` codes — the float→int
    /// boundary of the integer engine, dispatched to the active ISA tier.
    /// Element-for-element identical to calling [`QuantParams::quantize`]
    /// (including NaN → zero point), on every tier.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    pub fn quantize_slice_into(&self, src: &[f32], dst: &mut [i8]) {
        self.quantize_slice_into_tier(dispatch::active(), src, dst);
    }

    /// [`QuantParams::quantize_slice_into`] on an explicitly chosen ISA tier
    /// (clamped to the hardware).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    pub fn quantize_slice_into_tier(&self, tier: IsaTier, src: &[f32], dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len(), "quantize: length mismatch");
        tiered!(
            tier,
            avx2: simd::quantize_slice_avx2(self, src, dst),
            portable: quantize_body(self, src, dst),
        );
    }
}

/// Portable body of [`QuantParams::quantize_slice_into`]; the AVX2 tier runs
/// it on the last `len % 16` elements.
#[inline(always)]
fn quantize_body(p: &QuantParams, src: &[f32], dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = p.quantize(v) as i8;
    }
}

/// `q.round() as i32` without the `roundf` libm call `f32::round` is on
/// baseline x86-64: truncate toward zero, then step one away from zero when
/// the dropped fraction is at least one half. `q - t` is exact wherever a
/// fraction remains (`|q| < 2^23`). It equals `q.round() as i32` on every
/// `f32`, checked over all 2^32 bit patterns: ±0 and NaN give 0, and the
/// infinities and values past `i32` saturate alike.
///
/// The step is added without a branch, at `i32` width: coding a million
/// random weights (one vCPU of a 2-vCPU AVX-512 VNNI box, best of 15) took
/// 3.0–3.4 ms this way against 7.2–7.8 ms through `roundf`, where the same
/// steps at `i64` width took 9.0–9.7 ms and with a branch per step
/// 15.6–16.4 ms (which way a fraction rounds is a coin toss, so the branch
/// mispredicts; the `i32` loop vectorizes).
#[inline]
pub(crate) fn round_to_i32(q: f32) -> i32 {
    let t = q as i32;
    let frac = q - t as f32;
    t.saturating_add(i32::from(frac >= 0.5)).saturating_sub(i32::from(frac <= -0.5))
}

/// Symmetric signed weight quantizer: the integer code of weight `w` at the
/// given `scale` and bitwidth.
///
/// For `bits ≥ 2` this is the usual two's-complement rounding
/// `clamp(round(w / scale), −2^{bits−1}, 2^{bits−1} − 1)`, ties away from
/// zero (see `round_to_i32`, which computes it without a libm call). One-bit weights
/// use the two nonzero levels `{−1, +1}` (binary networks have no zero
/// level), **except** that an exactly-zero weight keeps the code 0: channel
/// pruning zeroes whole filter blocks, and resurrecting them as `+scale`
/// would silently undo the pruning.
#[inline]
pub fn weight_code(w: f32, scale: f32, bits: u8) -> i32 {
    debug_assert!((1..=16).contains(&bits), "weight codes must fit i16");
    if bits == 1 {
        if w == 0.0 {
            0
        } else if w > 0.0 {
            1
        } else {
            -1
        }
    } else {
        let hi = (1i64 << (bits - 1)) - 1;
        let lo = -(1i64 << (bits - 1));
        i64::from(round_to_i32(w / scale)).clamp(lo, hi) as i32
    }
}

/// The requantization epilogue's scalar step: converts one `i32` accumulator
/// back to a real value.
///
/// `corr` is the zero-point correction `zp_in · Σ_k w_code[k]` (so the
/// accumulator may sum raw input codes), `scale` is the combined
/// `w_scale · in_scale` and `bias` the layer's `f32` bias. Both the optimized
/// kernels and the naive fake-quant reference call this exact function, so
/// their results agree bit for bit.
#[inline]
pub fn dequant_acc(acc: i32, corr: i32, scale: f32, bias: f32) -> f32 {
    acc.wrapping_sub(corr) as f32 * scale + bias
}

/// The fused-ReLU select of the epilogues: `f` if strictly positive, else
/// `+0.0` — exactly `vmaxps(f, 0)` on every tier (NaN and `-0.0` map to 0).
#[inline(always)]
fn relu_sel(f: f32, relu: bool) -> f32 {
    if !relu || f > 0.0 {
        f
    } else {
        0.0
    }
}

/// Requantization epilogue over a slice with one shared zero-point
/// correction and bias (the convolution layout: the caller runs it once per
/// output-channel row): `out[i] = relu?([`dequant_acc`])` for every
/// accumulator. Dispatched to the active ISA tier; bit-identical across
/// tiers (subtract, convert, multiply, add — individually rounded, no FMA).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn dequant_slice_into(
    acc: &[i32],
    corr: i32,
    scale: f32,
    bias: f32,
    relu: bool,
    out: &mut [f32],
) {
    dequant_slice_into_tier(dispatch::active(), acc, corr, scale, bias, relu, out);
}

/// [`dequant_slice_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn dequant_slice_into_tier(
    tier: IsaTier,
    acc: &[i32],
    corr: i32,
    scale: f32,
    bias: f32,
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(acc.len(), out.len(), "dequant: length mismatch");
    tiered!(
        tier,
        dequant_slice_body(
            acc: &[i32],
            corr: i32,
            scale: f32,
            bias: f32,
            relu: bool,
            out: &mut [f32],
        )
    );
}

/// Portable body of [`dequant_slice_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn dequant_slice_body(acc: &[i32], corr: i32, scale: f32, bias: f32, relu: bool, out: &mut [f32]) {
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = relu_sel(dequant_acc(a, corr, scale, bias), relu);
    }
}

/// Requantization epilogue emitting the next quantized layer's input codes:
/// `out[i] = max(p.quantize(dequant_acc(acc[i], corr, scale, bias)), floor)`
/// with one shared correction and bias. `floor` is the consumer's zero point
/// when a ReLU is fused (clamping codes below real zero) or its `lo` bound
/// otherwise. Dispatched; bit-identical across tiers.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn requant_slice_into(
    acc: &[i32],
    corr: i32,
    scale: f32,
    bias: f32,
    p: &QuantParams,
    floor: i32,
    out: &mut [i8],
) {
    requant_slice_into_tier(dispatch::active(), acc, corr, scale, bias, p, floor, out);
}

/// [`requant_slice_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when the slice lengths differ.
#[allow(clippy::too_many_arguments)]
pub fn requant_slice_into_tier(
    tier: IsaTier,
    acc: &[i32],
    corr: i32,
    scale: f32,
    bias: f32,
    p: &QuantParams,
    floor: i32,
    out: &mut [i8],
) {
    assert_eq!(acc.len(), out.len(), "requant: length mismatch");
    tiered!(
        tier,
        avx2: simd::requant_slice_avx2(acc, corr, scale, bias, p, floor, out),
        portable: requant_body(acc, corr, scale, bias, p, floor, out),
    );
}

/// Portable body of [`requant_slice_into`]; the AVX2 tier runs it on the last
/// `len % 16` elements.
#[inline(always)]
fn requant_body(
    acc: &[i32],
    corr: i32,
    scale: f32,
    bias: f32,
    p: &QuantParams,
    floor: i32,
    out: &mut [i8],
) {
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = p.quantize(dequant_acc(a, corr, scale, bias)).max(floor) as i8;
    }
}

/// Requantization epilogue over a sample-major accumulator row where the
/// output-row index varies **along** the slice (the dense layout): element
/// `i` uses `corrs[i]` and `biases[i]` with the shared `scale`. Dispatched;
/// bit-identical across tiers.
///
/// # Panics
///
/// Panics when any slice length differs from `out.len()`.
pub fn dequant_rows_slice_into(
    acc: &[i32],
    corrs: &[i32],
    biases: &[f32],
    scale: f32,
    relu: bool,
    out: &mut [f32],
) {
    dequant_rows_slice_into_tier(dispatch::active(), acc, corrs, biases, scale, relu, out);
}

/// [`dequant_rows_slice_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics when any slice length differs from `out.len()`.
pub fn dequant_rows_slice_into_tier(
    tier: IsaTier,
    acc: &[i32],
    corrs: &[i32],
    biases: &[f32],
    scale: f32,
    relu: bool,
    out: &mut [f32],
) {
    assert_eq!(acc.len(), out.len(), "dequant rows: acc length mismatch");
    assert_eq!(corrs.len(), out.len(), "dequant rows: corr length mismatch");
    assert_eq!(biases.len(), out.len(), "dequant rows: bias length mismatch");
    tiered!(
        tier,
        dequant_rows_body(
            acc: &[i32],
            corrs: &[i32],
            biases: &[f32],
            scale: f32,
            relu: bool,
            out: &mut [f32],
        )
    );
}

/// Portable body of [`dequant_rows_slice_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn dequant_rows_body(
    acc: &[i32],
    corrs: &[i32],
    biases: &[f32],
    scale: f32,
    relu: bool,
    out: &mut [f32],
) {
    for (o, ((&a, &corr), &bias)) in out.iter_mut().zip(acc.iter().zip(corrs).zip(biases)) {
        *o = relu_sel(dequant_acc(a, corr, scale, bias), relu);
    }
}

/// Code-emitting counterpart of [`dequant_rows_slice_into`] (dense layout,
/// per-element correction/bias). Dispatched; bit-identical across tiers.
///
/// # Panics
///
/// Panics when any slice length differs from `out.len()`.
pub fn requant_rows_slice_into(
    acc: &[i32],
    corrs: &[i32],
    biases: &[f32],
    scale: f32,
    p: &QuantParams,
    floor: i32,
    out: &mut [i8],
) {
    requant_rows_slice_into_tier(dispatch::active(), acc, corrs, biases, scale, p, floor, out);
}

/// [`requant_rows_slice_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics when any slice length differs from `out.len()`.
#[allow(clippy::too_many_arguments)]
pub fn requant_rows_slice_into_tier(
    tier: IsaTier,
    acc: &[i32],
    corrs: &[i32],
    biases: &[f32],
    scale: f32,
    p: &QuantParams,
    floor: i32,
    out: &mut [i8],
) {
    assert_eq!(acc.len(), out.len(), "requant rows: acc length mismatch");
    assert_eq!(corrs.len(), out.len(), "requant rows: corr length mismatch");
    assert_eq!(biases.len(), out.len(), "requant rows: bias length mismatch");
    tiered!(
        tier,
        avx2: simd::requant_rows_avx2(acc, corrs, biases, scale, p, floor, out),
        portable: for (i, o) in out.iter_mut().enumerate() {
            *o = p.quantize(dequant_acc(acc[i], corrs[i], scale, biases[i])).max(floor) as i8;
        },
    );
}

/// Depth alignment of the transposed madd GEMM operands: callers pad both
/// operands' depth to a multiple of this (zero-filled — integer zeros
/// contribute exactly nothing), which removes the vector loop's scalar tail.
pub const MADD_DEPTH_ALIGN: usize = 16;

/// Contiguous i16 dot product with `i32` wrapping accumulation.
///
/// This exact shape — a single reduction over `sext(i16)·sext(i16)` products
/// — is what LLVM lowers to the x86 `pmaddwd` multiply-add-pairs
/// instruction on the portable tier (SSE2 baseline), two MACs per lane per
/// instruction; the AVX2 tier uses the 256-bit form explicitly and the VNNI
/// tier the 512-bit one. Integer addition is associative, so all tiers are
/// bit-identical.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    let mut sum = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        sum = sum.wrapping_add(i32::from(x) * i32::from(y));
    }
    sum
}

/// Register-tiled integer GEMM of the quantized convolution:
/// `out[i][j] = Σ_{p<k} w[i][p] · cols[p][j]`, with `w` the packed `[m, kp]`
/// row-major `i16` weight codes (only the first `k` codes of each row are
/// read, so the depth pad may hold anything) and `cols` the `[k, n]`
/// row-major `i8` column matrix the quantized `im2col` writes.
///
/// The vector tiers take the depth rows in pairs `(2q, 2q + 1)`: they
/// sign-extend 16 (AVX2) or 32 (VNNI) columns of both rows to `i16`,
/// interleave them in registers, and multiply-add each interleaved pair
/// against the broadcast 32-bit weight pair `w[i][2q..2q + 2]` of every row
/// of the tile — 256-bit `vpmaddwd` + `vpaddd` on AVX2, 512-bit on VNNI
/// (written as `vpdpwssd`, mostly compiled to `vpmaddwd` + `vpaddd`), two
/// MACs per lane per multiply. Each accumulator is stored once. An odd `k`
/// pairs its last row with zeros. The AVX2 tiles are 4 × 16, the VNNI tiles
/// 8 × 32, and both tiers finish a strip's last rows one at a time. The VNNI
/// tier runs the AVX2 strips on its last `n % 32` columns, and the AVX2
/// strips leave their last `n % 16` to the portable body; no byte beyond
/// `[k, n]` is read. Wrapping `i32` accumulation; integer addition is
/// associative, so every tier equals the naive triple loop bit for bit.
/// Never allocates.
///
/// # Panics
///
/// Panics when `kp < k` or a buffer length does not match its
/// `m`/`k`/`kp`/`n` dimensions.
pub fn gemm_i8cols_into(
    w: &[i16],
    cols: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    kp: usize,
    n: usize,
) {
    gemm_i8cols_into_tier(dispatch::active(), w, cols, out, m, k, kp, n);
}

/// [`gemm_i8cols_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when `kp < k` or a buffer length does not match its
/// `m`/`k`/`kp`/`n` dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8cols_into_tier(
    tier: IsaTier,
    w: &[i16],
    cols: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    kp: usize,
    n: usize,
) {
    assert!(kp >= k, "gemm_cols: padded depth {kp} below real depth {k}");
    assert_eq!(w.len(), m * kp, "gemm_cols: weight buffer length {} != {m}x{kp}", w.len());
    assert_eq!(cols.len(), k * n, "gemm_cols: column buffer length {} != {k}x{n}", cols.len());
    assert_eq!(out.len(), m * n, "gemm_cols: out buffer length {} != {m}x{n}", out.len());
    // All columns; the VNNI tier hands the AVX2 strips only those its
    // 32-column tiles leave.
    let from = 0;
    tiered!(
        tier,
        vnni: simd::gemm_i8cols_vnni(w, cols, out, m, k, kp, n),
        avx2: simd::gemm_i8cols_avx2(w, cols, out, m, k, kp, n, from),
        portable: gemm_i8cols_body(w, cols, out, m, k, kp, n, from),
    );
}

/// Portable body of [`gemm_i8cols_into`] over the columns `from..n`.
///
/// Baseline x86-64 has no widening `i32` lane multiply, and LLVM emits the
/// SSE2 `pmaddwd` only for a contiguous `i16` dot-product reduction (see
/// `dot_i16`). So each strip of 8 columns is widened and transposed, 256
/// depth rows at a time, into a 4 KiB stack buffer, and each weight row runs
/// its 8 dots against the strip at once: one weight load feeds 8 products.
/// The vector tiers run this body (inlined, compiled for their features) on
/// the columns their tiles leave.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_i8cols_body(
    w: &[i16],
    cols: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    kp: usize,
    n: usize,
    from: usize,
) {
    const NR: usize = 8;
    const KB: usize = 256;
    let mut strip = [[0i16; KB]; NR];
    for j0 in (from..n).step_by(NR) {
        let nr = NR.min(n - j0);
        for i in 0..m {
            out[i * n + j0..][..nr].fill(0);
        }
        for kb in (0..k).step_by(KB) {
            let kl = KB.min(k - kb);
            for p in 0..kl {
                let src = &cols[(kb + p) * n + j0..][..nr];
                for (dst, &c) in strip.iter_mut().zip(src) {
                    dst[p] = i16::from(c);
                }
            }
            // Every slice below has the known length `kl`, so the dot loop
            // carries no bounds check, and its indexed form is what LLVM
            // turns into 8 `pmaddwd` reductions (zipping `acc` with `lanes`
            // measured 3× slower). Lanes past `nr` of a narrow last strip
            // hold stale codes; their dots are dropped.
            let lanes: [&[i16]; NR] = core::array::from_fn(|l| &strip[l][..kl]);
            for i in 0..m {
                let wr = &w[i * kp + kb..][..kl];
                let mut acc = [0i32; NR];
                for p in 0..kl {
                    let wv = i32::from(wr[p]);
                    #[allow(clippy::needless_range_loop)]
                    for l in 0..NR {
                        acc[l] = acc[l].wrapping_add(wv * i32::from(lanes[l][p]));
                    }
                }
                for (o, &a) in out[i * n + j0..][..nr].iter_mut().zip(&acc) {
                    *o = o.wrapping_add(a);
                }
            }
        }
    }
}

/// Transposed-operand integer GEMM: `out[i][j] = Σ_p a[i][p] · bt[j][p]`
/// with `a` as `[m, kp]` and `bt` as `[n, kp]`, both row-major — i.e. `bt`
/// is the **transposed** right operand, so every output element is a dot of
/// two contiguous rows (see `dot_i16`). `kp` is the padded depth; callers
/// align it to [`MADD_DEPTH_ALIGN`] with zero fill, which changes no result.
///
/// Serves the quantized dense layer only (`a` = sample-major activation
/// vectors, `bt` = packed weight codes): there `n` is the output width and
/// `m` the batch, so the dot keeps every lane busy at batch 1, where a
/// column tile over the batch would leave most of its lanes idle. The
/// convolution runs [`gemm_i8cols_into`]. Wrapping `i32` accumulation;
/// integer addition is associative, so the result is bit-identical to any
/// naive evaluation order. Never allocates.
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`kp`/`n` dimensions.
pub fn gemm_i16t_into(a: &[i16], bt: &[i16], out: &mut [i32], m: usize, kp: usize, n: usize) {
    gemm_i16t_into_tier(dispatch::active(), a, bt, out, m, kp, n);
}

/// [`gemm_i16t_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`kp`/`n` dimensions.
pub fn gemm_i16t_into_tier(
    tier: IsaTier,
    a: &[i16],
    bt: &[i16],
    out: &mut [i32],
    m: usize,
    kp: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * kp, "gemm_t: lhs buffer length {} != {m}x{kp}", a.len());
    assert_eq!(bt.len(), n * kp, "gemm_t: rhs buffer length {} != {n}x{kp}", bt.len());
    assert_eq!(out.len(), m * n, "gemm_t: out buffer length {} != {m}x{n}", out.len());
    if kp == 0 {
        out.fill(0);
        return;
    }
    tiered!(
        tier,
        vnni: simd::gemm_i16t_vnni(a, bt, out, kp, n),
        avx2: simd::gemm_i16t_avx2(a, bt, out, kp, n),
        portable: for (j, brow) in bt.chunks_exact(kp).enumerate() {
            for (i, arow) in a.chunks_exact(kp).enumerate() {
                out[i * n + j] = dot_i16(arow, brow);
            }
        },
    );
}

/// AVX2 / AVX-512-VNNI tier implementations of the integer kernels (explicit
/// `core::arch` intrinsics). All integer accumulation is wrapping and
/// associative, so any vector re-blocking is bit-identical to the portable
/// loops; the `f32` steps of the quantize/requantize kernels replicate the
/// scalar operation sequence exactly (no FMA). The dequantize epilogues need
/// no intrinsics: [`tiered!`] recompiles their portable bodies with AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::*;
    use core::arch::x86_64::*;

    /// 256-bit `vpmaddwd` dot product (16 i16 per step).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dot_i16_avx2(a: &[i16], b: &[i16]) -> i32 {
        let b = &b[..a.len()];
        let chunks = a.len() / 16;
        let mut acc = _mm256_setzero_si256();
        let mut lanes = [0i32; 8];
        // SAFETY: chunk c reads 16 i16 at 16c with 16c + 16 <= len from both
        // slices (`b` is re-sliced to `a`'s length above), and `lanes` is
        // exactly 32 bytes.
        unsafe {
            for c in 0..chunks {
                let va = _mm256_loadu_si256(a.as_ptr().add(c * 16).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(c * 16).cast());
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            }
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        }
        let mut sum = lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l));
        for i in chunks * 16..a.len() {
            sum = sum.wrapping_add(i32::from(a[i]) * i32::from(b[i]));
        }
        sum
    }

    /// [`gemm_i16t_into`] with the 256-bit dot.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_i16t_avx2(a: &[i16], bt: &[i16], out: &mut [i32], kp: usize, n: usize) {
        for (j, brow) in bt.chunks_exact(kp).enumerate() {
            for (i, arow) in a.chunks_exact(kp).enumerate() {
                out[i * n + j] = dot_i16_avx2(arow, brow);
            }
        }
    }

    /// 512-bit dot product (32 i16 per step), with a 256-bit step for a
    /// 16-element remainder — the common case for depth padded to
    /// [`MADD_DEPTH_ALIGN`] but not to 32. Written as `vpdpwssd`
    /// (multiply-add-pairs and accumulate in one instruction); LLVM unrolls
    /// the loop four times and keeps one of the four as `vpdpwssd`, the
    /// others as `vpmaddwd` + `vpaddd`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    fn dot_i16_vnni(a: &[i16], b: &[i16]) -> i32 {
        let b = &b[..a.len()];
        let chunks = a.len() / 32;
        let mut acc = _mm512_setzero_si512();
        // SAFETY: chunk c reads 32 i16 at 32c with 32c + 32 <= len from both
        // slices (`b` is re-sliced to `a`'s length above).
        unsafe {
            for c in 0..chunks {
                let va = _mm512_loadu_si512(a.as_ptr().add(c * 32).cast());
                let vb = _mm512_loadu_si512(b.as_ptr().add(c * 32).cast());
                acc = _mm512_dpwssd_epi32(acc, va, vb);
            }
        }
        let mut sum = _mm512_reduce_add_epi32(acc);
        let mut done = chunks * 32;
        if a.len() - done >= 16 {
            // SAFETY: 16 i16 remain at `done` in both slices, and `lanes` is
            // exactly 32 bytes.
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(done).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(done).cast());
                let part = _mm256_dpwssd_epi32(_mm256_setzero_si256(), va, vb);
                let mut lanes = [0i32; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), part);
                sum = lanes.iter().fold(sum, |s, &l| s.wrapping_add(l));
            }
            done += 16;
        }
        for i in done..a.len() {
            sum = sum.wrapping_add(i32::from(a[i]) * i32::from(b[i]));
        }
        sum
    }

    /// [`gemm_i16t_into`] with the 512-bit dot.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(super) fn gemm_i16t_vnni(a: &[i16], bt: &[i16], out: &mut [i32], kp: usize, n: usize) {
        for (j, brow) in bt.chunks_exact(kp).enumerate() {
            for (i, arow) in a.chunks_exact(kp).enumerate() {
                out[i * n + j] = dot_i16_vnni(arow, brow);
            }
        }
    }

    /// Checks that the `rows × width` tile at `(i0, j0)` of
    /// [`gemm_i8cols_into`] lies inside its operands — the bounds every raw
    /// load and store of the tile kernels relies on.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn check_tile(
        w: &[i16],
        cols: &[i8],
        out: &[i32],
        (i0, rows): (usize, usize),
        (j0, width): (usize, usize),
        k: usize,
        kp: usize,
        n: usize,
    ) {
        // Checked products, so no wrapped size can pass for a fitting one.
        let fits = |len: usize, rows: usize, stride: usize| {
            rows.checked_mul(stride).is_some_and(|need| need <= len)
        };
        assert!(
            kp >= k
                && j0 + width <= n
                && fits(cols.len(), k, n)
                && fits(w.len(), i0 + rows, kp)
                && fits(out.len(), i0 + rows, n),
            "gemm_cols tile out of bounds"
        );
    }

    /// The weight codes `w[at]` and `w[at + 1]` as one 32-bit lane, low half
    /// first — the operand `vpmaddwd`/`vpdpwssd` multiply against an
    /// interleaved `(row 2q, row 2q + 1)` column pair. Without `pair` (the
    /// last row of an odd depth) only `w[at]` is read and the high half is 0.
    ///
    /// # Safety
    ///
    /// `at` must be in bounds of the slice behind `w`, and `at + 1` too when
    /// `pair` is set.
    #[inline(always)]
    unsafe fn weight_pair(w: *const i16, at: usize, pair: bool) -> i32 {
        // SAFETY: the caller guarantees `at` (and `at + 1` with `pair`) lie
        // inside the weight slice.
        unsafe {
            if pair {
                w.add(at).cast::<i32>().read_unaligned()
            } else {
                i32::from(w.add(at).read() as u16)
            }
        }
    }

    /// Sign-extends 16 columns of two depth rows to `i16` and interleaves
    /// them: columns 0..8 and 8..16, each lane a `(row 2q, row 2q + 1)` pair.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn interleave16(x0: __m128i, x1: __m128i) -> [__m256i; 2] {
        [
            _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(x0, x1)),
            _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(x0, x1)),
        ]
    }

    /// [`gemm_i8cols_into`] on AVX2 over the columns `from..n`: 16-column
    /// strips of 4-row tiles, then 1-row tiles; the last `(n - from) % 16`
    /// columns run the portable body.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_i8cols_avx2(
        w: &[i16],
        cols: &[i8],
        out: &mut [i32],
        m: usize,
        k: usize,
        kp: usize,
        n: usize,
        from: usize,
    ) {
        let end = from + (n - from) / 16 * 16;
        for j0 in (from..end).step_by(16) {
            let mut i0 = 0;
            while i0 + 4 <= m {
                tile16_avx2::<4>(w, cols, out, i0, j0, k, kp, n);
                i0 += 4;
            }
            for i in i0..m {
                tile16_avx2::<1>(w, cols, out, i, j0, k, kp, n);
            }
        }
        gemm_i8cols_body(w, cols, out, m, k, kp, n, end);
    }

    /// One `MR × 16` tile of [`gemm_i8cols_avx2`] at rows `i0..i0 + MR`,
    /// columns `j0..j0 + 16`: per depth pair, `vpmaddwd` of the interleaved
    /// columns against each row's broadcast weight pair, then `vpaddd`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn tile16_avx2<const MR: usize>(
        w: &[i16],
        cols: &[i8],
        out: &mut [i32],
        i0: usize,
        j0: usize,
        k: usize,
        kp: usize,
        n: usize,
    ) {
        check_tile(w, cols, out, (i0, MR), (j0, 16), k, kp, n);
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        let madd = |acc: &mut [[__m256i; 2]; MR], b: [__m256i; 2], p: usize, pair: bool| {
            for (r, a) in acc.iter_mut().enumerate() {
                // SAFETY: `check_tile` bounds row i0 + r of `w` (length kp)
                // and p < k <= kp, with p + 1 < k whenever `pair` is set.
                let wp =
                    _mm256_set1_epi32(unsafe { weight_pair(w.as_ptr(), (i0 + r) * kp + p, pair) });
                a[0] = _mm256_add_epi32(a[0], _mm256_madd_epi16(b[0], wp));
                a[1] = _mm256_add_epi32(a[1], _mm256_madd_epi16(b[1], wp));
            }
        };
        let row = |p: usize| {
            // SAFETY: p < k and j0 + 16 <= n (`check_tile`), so the 16 bytes
            // at p·n + j0 lie inside the `[k, n]` column matrix.
            unsafe { _mm_loadu_si128(cols.as_ptr().add(p * n + j0).cast()) }
        };
        for p in (0..k - k % 2).step_by(2) {
            madd(&mut acc, interleave16(row(p), row(p + 1)), p, true);
        }
        if k % 2 == 1 {
            madd(&mut acc, interleave16(row(k - 1), _mm_setzero_si128()), k - 1, false);
        }
        for (r, a) in acc.iter().enumerate() {
            // SAFETY: row i0 + r of `out` holds n >= j0 + 16 lanes
            // (`check_tile`), so both 8-lane stores stay inside it.
            unsafe {
                let dst = out.as_mut_ptr().add((i0 + r) * n + j0);
                _mm256_storeu_si256(dst.cast(), a[0]);
                _mm256_storeu_si256(dst.add(8).cast(), a[1]);
            }
        }
    }

    /// [`gemm_i8cols_into`] on AVX-512 VNNI: 32-column strips of 8-row
    /// tiles, then 1-row tiles; the last `n % 32` columns run the AVX2 strips.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(super) fn gemm_i8cols_vnni(
        w: &[i16],
        cols: &[i8],
        out: &mut [i32],
        m: usize,
        k: usize,
        kp: usize,
        n: usize,
    ) {
        let wide = n / 32 * 32;
        for j0 in (0..wide).step_by(32) {
            let mut i0 = 0;
            while i0 + 8 <= m {
                tile32_vnni::<8>(w, cols, out, i0, j0, k, kp, n);
                i0 += 8;
            }
            for i in i0..m {
                tile32_vnni::<1>(w, cols, out, i, j0, k, kp, n);
            }
        }
        gemm_i8cols_avx2(w, cols, out, m, k, kp, n, wide);
    }

    /// One `MR × 32` tile of [`gemm_i8cols_vnni`]: per depth pair, one
    /// 512-bit multiply-add per 16 columns and row. The source writes
    /// `vpdpwssd`, but LLVM's generic x86-64 tuning splits 14 of the 16 per
    /// depth pair of the 8-row tile into `vpmaddwd` + `vpaddd` (release
    /// build); the tile gains over AVX2 by its width, not by fusing the add.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    #[allow(clippy::too_many_arguments)]
    fn tile32_vnni<const MR: usize>(
        w: &[i16],
        cols: &[i8],
        out: &mut [i32],
        i0: usize,
        j0: usize,
        k: usize,
        kp: usize,
        n: usize,
    ) {
        check_tile(w, cols, out, (i0, MR), (j0, 32), k, kp, n);
        let mut acc = [[_mm512_setzero_si512(); 2]; MR];
        let dp = |acc: &mut [[__m512i; 2]; MR], x0: __m256i, x1: __m256i, p: usize, pair: bool| {
            // Lane l of `lo`/`hi` interleaves columns 0..8 | 16..24 and
            // 8..16 | 24..32; the lane permutes put them back in order.
            let (lo, hi) = (_mm256_unpacklo_epi8(x0, x1), _mm256_unpackhi_epi8(x0, x1));
            let b0 = _mm512_cvtepi8_epi16(_mm256_permute2x128_si256::<0x20>(lo, hi));
            let b1 = _mm512_cvtepi8_epi16(_mm256_permute2x128_si256::<0x31>(lo, hi));
            for (r, a) in acc.iter_mut().enumerate() {
                // SAFETY: `check_tile` bounds row i0 + r of `w` (length kp)
                // and p < k <= kp, with p + 1 < k whenever `pair` is set.
                let wp =
                    _mm512_set1_epi32(unsafe { weight_pair(w.as_ptr(), (i0 + r) * kp + p, pair) });
                a[0] = _mm512_dpwssd_epi32(a[0], b0, wp);
                a[1] = _mm512_dpwssd_epi32(a[1], b1, wp);
            }
        };
        let row = |p: usize| {
            // SAFETY: p < k and j0 + 32 <= n (`check_tile`), so the 32 bytes
            // at p·n + j0 lie inside the `[k, n]` column matrix.
            unsafe { _mm256_loadu_si256(cols.as_ptr().add(p * n + j0).cast()) }
        };
        for p in (0..k - k % 2).step_by(2) {
            dp(&mut acc, row(p), row(p + 1), p, true);
        }
        if k % 2 == 1 {
            dp(&mut acc, row(k - 1), _mm256_setzero_si256(), k - 1, false);
        }
        for (r, a) in acc.iter().enumerate() {
            // SAFETY: row i0 + r of `out` holds n >= j0 + 32 lanes
            // (`check_tile`), so both 16-lane stores stay inside it.
            unsafe {
                let dst = out.as_mut_ptr().add((i0 + r) * n + j0);
                _mm512_storeu_si512(dst.cast(), a[0]);
                _mm512_storeu_si512(dst.add(16).cast(), a[1]);
            }
        }
    }

    /// Quantizes 8 lanes: multiply by the cached reciprocal scale, round to
    /// nearest-even, clamp in the `f32` domain, force NaN lanes to the zero
    /// code, convert and add the zero point — the scalar
    /// [`QuantParams::quantize`] chain, lane for lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn quantize8(p: &QuantParams, x: __m256) -> __m256i {
        let q = _mm256_mul_ps(x, _mm256_set1_ps(p.inv_scale));
        let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(q);
        // vmaxps/vminps return the second operand on NaN, so a NaN lane comes
        // out as qlo here; the unordered-compare blend puts it back to 0.0
        // (→ the zero point), matching the scalar NaN → zero-point mapping.
        let clamped = _mm256_min_ps(_mm256_max_ps(r, _mm256_set1_ps(p.qlo)), _mm256_set1_ps(p.qhi));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(r, r);
        let fixed = _mm256_blendv_ps(clamped, _mm256_setzero_ps(), nan);
        _mm256_add_epi32(_mm256_cvtps_epi32(fixed), _mm256_set1_epi32(p.zero_point))
    }

    /// Packs two 8-lane i32 code vectors (values within `i8`) into 16 `i8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pack16_i8(q0: __m256i, q1: __m256i) -> __m128i {
        let p16 = _mm256_packs_epi32(q0, q1);
        let p16 = _mm256_permute4x64_epi64::<0b11_01_10_00>(p16);
        let p8 = _mm256_packs_epi16(p16, p16);
        _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0b00_00_10_00>(p8))
    }

    /// [`QuantParams::quantize_slice_into`] 16 lanes at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_slice_avx2(p: &QuantParams, src: &[f32], dst: &mut [i8]) {
        let dst = &mut dst[..src.len()];
        let blocks = src.len() / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of both
        // slices (`dst` is re-sliced to `src`'s length above).
        unsafe {
            for b in 0..blocks {
                let x0 = _mm256_loadu_ps(src.as_ptr().add(16 * b));
                let x1 = _mm256_loadu_ps(src.as_ptr().add(16 * b + 8));
                let codes = pack16_i8(quantize8(p, x0), quantize8(p, x1));
                _mm_storeu_si128(dst.as_mut_ptr().add(16 * b).cast(), codes);
            }
        }
        quantize_body(p, &src[blocks * 16..], &mut dst[blocks * 16..]);
    }

    /// Dequantizes 8 lanes: wrapping subtract, exact int→float convert, then
    /// separate multiply and add (two rounded ops, like the scalar
    /// [`dequant_acc`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dequant8(acc: __m256i, corr: __m256i, scale: __m256, bias: __m256) -> __m256 {
        let v = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, corr));
        _mm256_add_ps(_mm256_mul_ps(v, scale), bias)
    }

    /// [`requant_slice_into`] 16 lanes at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn requant_slice_avx2(
        acc: &[i32],
        corr: i32,
        scale: f32,
        bias: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) {
        let out = &mut out[..acc.len()];
        let vcorr = _mm256_set1_epi32(corr);
        let vscale = _mm256_set1_ps(scale);
        let vbias = _mm256_set1_ps(bias);
        let vfloor = _mm256_set1_epi32(floor);
        let blocks = acc.len() / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of both
        // slices (`out` is re-sliced to `acc`'s length above).
        unsafe {
            for b in 0..blocks {
                let a0 = _mm256_loadu_si256(acc.as_ptr().add(16 * b).cast());
                let a1 = _mm256_loadu_si256(acc.as_ptr().add(16 * b + 8).cast());
                let q0 = _mm256_max_epi32(quantize8(p, dequant8(a0, vcorr, vscale, vbias)), vfloor);
                let q1 = _mm256_max_epi32(quantize8(p, dequant8(a1, vcorr, vscale, vbias)), vfloor);
                _mm_storeu_si128(out.as_mut_ptr().add(16 * b).cast(), pack16_i8(q0, q1));
            }
        }
        let tail = blocks * 16;
        requant_body(&acc[tail..], corr, scale, bias, p, floor, &mut out[tail..]);
    }

    /// [`requant_rows_slice_into`] 16 lanes at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn requant_rows_avx2(
        acc: &[i32],
        corrs: &[i32],
        biases: &[f32],
        scale: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) {
        let n = acc.len();
        let (corrs, biases, out) = (&corrs[..n], &biases[..n], &mut out[..n]);
        let vscale = _mm256_set1_ps(scale);
        let vfloor = _mm256_set1_epi32(floor);
        let blocks = n / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of all
        // slices, re-sliced to one length above.
        unsafe {
            for b in 0..blocks {
                let a0 = _mm256_loadu_si256(acc.as_ptr().add(16 * b).cast());
                let a1 = _mm256_loadu_si256(acc.as_ptr().add(16 * b + 8).cast());
                let c0 = _mm256_loadu_si256(corrs.as_ptr().add(16 * b).cast());
                let c1 = _mm256_loadu_si256(corrs.as_ptr().add(16 * b + 8).cast());
                let b0 = _mm256_loadu_ps(biases.as_ptr().add(16 * b));
                let b1 = _mm256_loadu_ps(biases.as_ptr().add(16 * b + 8));
                let q0 = _mm256_max_epi32(quantize8(p, dequant8(a0, c0, vscale, b0)), vfloor);
                let q1 = _mm256_max_epi32(quantize8(p, dequant8(a1, c1, vscale, b1)), vfloor);
                _mm_storeu_si128(out.as_mut_ptr().add(16 * b).cast(), pack16_i8(q0, q1));
            }
        }
        for i in blocks * 16..out.len() {
            out[i] = p.quantize(dequant_acc(acc[i], corrs[i], scale, biases[i])).max(floor) as i8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_gemm<T: Copy + Into<i32>>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    let prod = a[i * k + p].into() * b[p * n + j].into();
                    out[i * n + j] = out[i * n + j].wrapping_add(prod);
                }
            }
        }
        out
    }

    /// Widens and zero-pads `[m, k]` row-major codes to the `[m, kp]` rows
    /// [`gemm_i16t_into`] reads, as the plans pack their operands.
    fn pad_rows<T: Copy + Into<i16>>(codes: &[T], m: usize, k: usize, kp: usize) -> Vec<i16> {
        let mut out = vec![0i16; m * kp];
        for i in 0..m {
            for p in 0..k {
                out[i * kp + p] = codes[i * k + p].into();
            }
        }
        out
    }

    /// Transposes `[k, n]` row-major codes into the `[n, kp]` zero-padded
    /// right operand of [`gemm_i16t_into`].
    fn pad_cols<T: Copy + Into<i16>>(codes: &[T], k: usize, n: usize, kp: usize) -> Vec<i16> {
        let mut out = vec![0i16; n * kp];
        for p in 0..k {
            for j in 0..n {
                out[j * kp + p] = codes[p * n + j].into();
            }
        }
        out
    }

    #[test]
    fn madd_gemm_matches_naive_including_wrapping() {
        let mut rng = StdRng::seed_from_u64(2);
        // Full-range i16 codes at depths of 40 and more force i32
        // wrap-around in some cells. Row 0 of A and column 0 of B hold only
        // -32768, so cell (0, 0) sums `k` products of 2^30 and every
        // multiply-add pair of it reaches 2^31: the vector tiers and the
        // naive loop must wrap identically.
        for (m, k, n) in [(5usize, 40usize, 19usize), (3, 64, 17), (4, 75, 9)] {
            let mut a: Vec<i16> = (0..m * k).map(|_| rng.gen::<i16>()).collect();
            let mut b: Vec<i16> = (0..k * n).map(|_| rng.gen::<i16>()).collect();
            a[..k].fill(i16::MIN);
            for p in 0..k {
                b[p * n] = i16::MIN;
            }
            let expected = naive_gemm(&a, &b, m, k, n);
            // The exact sum k·2^30 exceeds i32::MAX; the cell holds it mod 2^32.
            assert_eq!(expected[0], (k as i64 * (1 << 30)) as i32);
            for kp in [k, k.next_multiple_of(MADD_DEPTH_ALIGN)] {
                let (at, bt) = (pad_rows(&a, m, k, kp), pad_cols(&b, k, n, kp));
                for &tier in crate::dispatch::supported_tiers() {
                    let mut out = vec![7i32; m * n];
                    gemm_i16t_into_tier(tier, &at, &bt, &mut out, m, kp, n);
                    assert_eq!(out, expected, "tier {tier:?} shape {m}x{k}x{n} padded to {kp}");
                }
            }
        }
    }

    #[test]
    fn quant_params_round_trip_and_padding_invariant() {
        let q = QuantParams::from_range(0.0, 4.0, 8);
        assert_eq!(q.zero_point(), q.lo());
        // 0.0 maps exactly to the zero point, so padding can fill codes.
        assert_eq!(q.quantize(0.0), q.zero_point());
        assert_eq!(q.dequantize(q.zero_point()), 0.0);
        // Values round-trip to within half a step inside the range.
        for v in [0.0f32, 0.5, 1.0, 2.5, 3.99] {
            let back = q.dequantize(q.quantize(v));
            assert!((back - v).abs() <= q.scale() / 2.0 + 1e-6, "{v} -> {back}");
        }
        // Out-of-range saturates deterministically.
        assert_eq!(q.quantize(1e30), q.hi());
        assert_eq!(q.quantize(f32::NEG_INFINITY), q.lo());
        assert_eq!(q.quantize(f32::NAN), q.zero_point());

        let s = QuantParams::from_range(-2.0, 1.0, 8);
        assert_eq!(s.zero_point(), 0);
        assert_eq!(s.quantize(0.0), 0);
        assert!(s.quantize(-2.0) < 0 && s.quantize(1.0) > 0);

        // Degenerate ranges stay finite.
        let z = QuantParams::from_range(0.0, 0.0, 4);
        assert_eq!(z.scale(), 1.0);
        assert_eq!(z.quantize(0.0), z.zero_point());
    }

    #[test]
    fn transposed_madd_gemm_matches_the_classic_layout_kernel() {
        // The oracle is `naive_gemm`, the classic-layout triple loop.
        let mut rng = StdRng::seed_from_u64(5);
        for (m, k, n) in [(1usize, 1usize, 1usize), (4, 17, 9), (7, 75, 20), (16, 80, 33)] {
            let a8: Vec<i8> = (0..m * k).map(|_| rng.gen::<i8>()).collect();
            let b8: Vec<i8> = (0..k * n).map(|_| rng.gen::<i8>()).collect();
            let classic = naive_gemm(&a8, &b8, m, k, n);
            // Widen + transpose + zero-pad the depth, as the plans do.
            let kp = k.next_multiple_of(MADD_DEPTH_ALIGN);
            let (at, bt) = (pad_rows(&a8, m, k, kp), pad_cols(&b8, k, n, kp));
            let mut transposed = vec![7i32; m * n];
            gemm_i16t_into(&at, &bt, &mut transposed, m, kp, n);
            assert_eq!(transposed, classic, "shape {m}x{k}x{n}");
        }
        // kp == 0 zero-fills.
        let mut out = vec![3i32; 4];
        gemm_i16t_into(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    fn weight_codes_follow_twos_complement_and_one_bit_signs() {
        assert_eq!(weight_code(0.26, 0.1, 4), 3);
        assert_eq!(weight_code(-0.9, 0.1, 4), -8, "clamped at lo");
        assert_eq!(weight_code(0.9, 0.1, 4), 7, "clamped at hi");
        // 1-bit: two nonzero levels, exact zeros (pruned weights) stay zero.
        assert_eq!(weight_code(0.7, 0.5, 1), 1);
        assert_eq!(weight_code(-0.01, 0.5, 1), -1);
        assert_eq!(weight_code(0.0, 0.5, 1), 0);
        assert_eq!(weight_code(-0.0, 0.5, 1), 0);
    }

    #[test]
    fn rounding_matches_f32_round_at_the_edges() {
        let two = |e: i32| 2f32.powi(e);
        let edges = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_97,
            -0.499_999_97,
            0.500_000_06,
            two(23),
            two(23) + 1.0,
            two(23) - 0.5,
            two(24),
            two(31),
            two(63),
            two(64),
            f32::MAX,
            f32::INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
        ];
        for q in edges.into_iter().flat_map(|q| [q, -q]).chain([f32::NAN, -f32::NAN]) {
            assert_eq!(round_to_i32(q), q.round() as i32, "{q:e} ({:#010x})", q.to_bits());
        }
        assert_eq!(round_to_i32(-0.0), 0);
        assert_eq!(round_to_i32(2.5), 3);
        assert_eq!(round_to_i32(-2.5), -3);
        assert_eq!(round_to_i32(two(23) + 1.0), 8_388_609);
        assert_eq!(round_to_i32(-two(31)), i32::MIN);
        assert_eq!(round_to_i32(two(31)), i32::MAX);
        assert_eq!(round_to_i32(f32::NEG_INFINITY), i32::MIN);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        #[test]
        fn rounding_matches_f32_round_on_random_bit_patterns(bits in proptest::prelude::any::<u32>()) {
            let q = f32::from_bits(bits);
            proptest::prop_assert_eq!(round_to_i32(q), q.round() as i32, "{:#010x}", bits);
        }
    }

    #[test]
    fn dequant_acc_applies_correction_scale_and_bias() {
        assert_eq!(dequant_acc(10, 4, 0.5, 1.0), 4.0);
        // Wrapping subtraction is well-defined at the i32 edges.
        assert_eq!(dequant_acc(i32::MIN, 1, 1.0, 0.0), i32::MAX as f32);
    }

    #[test]
    #[should_panic(expected = "activation bits")]
    fn oversized_activation_bits_panic() {
        let _ = QuantParams::from_range(0.0, 1.0, 9);
    }
}

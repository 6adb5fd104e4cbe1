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
//! * two integer kernel families with `i32` accumulators: the
//!   **classic-layout** kernels ([`gemm_i8_into`], [`gemm_i16_into`],
//!   [`matvec_i8_into`], [`matvec_i16_into`] and their batched variants),
//!   which mirror the `f32` GEMM's blocked register-tile structure and
//!   operand layouts and serve as the cross-checked oracles, and the
//!   **transposed madd** kernel ([`gemm_i16t_into`] with
//!   [`transpose_widen_into`]) the execution plans actually run — on AVX2 an
//!   `i32` lane multiply has no edge over `f32` FMA, so the fast path is the
//!   `vpmaddwd`-shaped contiguous dot (see the kernel docs);
//! * [`dequant_acc`] — the requantization epilogue's scalar step, fixed here
//!   so the optimized kernels and the naive fake-quant reference agree bit
//!   for bit.
//!
//! # Determinism and overflow
//!
//! Integer addition is associative, so — unlike the `f32` kernels — the
//! blocked integer kernels are bit-identical to a naive triple loop by
//! construction, regardless of tile shape. Accumulation uses **wrapping**
//! `i32` arithmetic: a single `i8·i8` product is at most `2^14`, so the i8
//! path is mathematically exact for depths up to `2^17`; the i16 path
//! (products up to `2^30`) can wrap for adversarially large codes at large
//! depths, in which case it wraps identically in the kernel and in the
//! reference — deterministic on every platform, never undefined behaviour.

use crate::dispatch::{self, IsaTier};

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
/// convert chain with no division and no 64-bit clamping: every step maps to
/// one vector instruction, which is what lets LLVM vectorize the activation
/// quantization and requantization epilogues that sweep whole feature maps.
/// Fields are therefore private; construct via [`QuantParams::new`] /
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
    /// saturate at the range ends), and every step lowers to one vector
    /// instruction — no division, no widening — so code sweeping a slice
    /// through this function auto-vectorizes.
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
        #[cfg(target_arch = "x86_64")]
        if simd::try_quantize_slice(tier, self, src, dst) {
            return;
        }
        let _ = tier;
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = self.quantize(v) as i8;
        }
    }
}

/// Symmetric signed weight quantizer: the integer code of weight `w` at the
/// given `scale` and bitwidth.
///
/// For `bits ≥ 2` this is the usual two's-complement rounding
/// `clamp(round(w / scale), −2^{bits−1}, 2^{bits−1} − 1)`. One-bit weights
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
        ((w / scale).round() as i64).clamp(lo, hi) as i32
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
    #[cfg(target_arch = "x86_64")]
    if simd::try_dequant_slice(tier, acc, corr, scale, bias, relu, out) {
        return;
    }
    let _ = tier;
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
    #[cfg(target_arch = "x86_64")]
    if simd::try_requant_slice(tier, acc, corr, scale, bias, p, floor, out) {
        return;
    }
    let _ = tier;
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
    #[cfg(target_arch = "x86_64")]
    if simd::try_dequant_rows(tier, acc, corrs, biases, scale, relu, out) {
        return;
    }
    let _ = tier;
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
    #[cfg(target_arch = "x86_64")]
    if simd::try_requant_rows(tier, acc, corrs, biases, scale, p, floor, out) {
        return;
    }
    let _ = tier;
    for (i, o) in out.iter_mut().enumerate() {
        *o = p.quantize(dequant_acc(acc[i], corrs[i], scale, biases[i])).max(floor) as i8;
    }
}

/// Rows of `A` processed together by the integer register-tiled micro-kernel.
const QGEMM_MR: usize = 4;
/// Columns of `B` covered by one integer register tile.
const QGEMM_NR: usize = 16;

fn check_qgemm_lens<A, B>(a: &[A], b: &[B], out: &[i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "qgemm: lhs buffer length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "qgemm: rhs buffer length {} != {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "qgemm: out buffer length {} != {m}x{n}", out.len());
}

macro_rules! int_gemm {
    ($name:ident, $ty:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// `a` is `[m, k]`, `b` is `[k, n]` and `out` is `[m, n]`, all
        /// row-major. Accumulates in wrapping `i32`; integer addition is
        /// associative, so the blocked tiles produce exactly the naive
        /// triple-loop result. Never allocates.
        ///
        /// # Panics
        ///
        /// Panics when a buffer length does not match its `m`/`k`/`n`
        /// dimensions.
        pub fn $name(a: &[$ty], b: &[$ty], out: &mut [i32], m: usize, k: usize, n: usize) {
            check_qgemm_lens(a, b, out, m, k, n);
            out.fill(0);
            if m == 0 || k == 0 || n == 0 {
                return;
            }
            let n_main = n - n % QGEMM_NR;
            for jb in (0..n_main).step_by(QGEMM_NR) {
                let mut i = 0;
                while i + QGEMM_MR <= m {
                    let mut acc = [[0i32; QGEMM_NR]; QGEMM_MR];
                    for p in 0..k {
                        let brow: &[$ty; QGEMM_NR] =
                            b[p * n + jb..p * n + jb + QGEMM_NR].try_into().expect("tile width");
                        for (r, acc_row) in acc.iter_mut().enumerate() {
                            let v = i32::from(a[(i + r) * k + p]);
                            for t in 0..QGEMM_NR {
                                acc_row[t] = acc_row[t].wrapping_add(v * i32::from(brow[t]));
                            }
                        }
                    }
                    for (r, acc_row) in acc.iter().enumerate() {
                        let row = (i + r) * n + jb;
                        out[row..row + QGEMM_NR].copy_from_slice(acc_row);
                    }
                    i += QGEMM_MR;
                }
                while i < m {
                    let mut acc = [0i32; QGEMM_NR];
                    let arow = &a[i * k..(i + 1) * k];
                    for (p, &av) in arow.iter().enumerate() {
                        let brow: &[$ty; QGEMM_NR] =
                            b[p * n + jb..p * n + jb + QGEMM_NR].try_into().expect("tile width");
                        let v = i32::from(av);
                        for t in 0..QGEMM_NR {
                            acc[t] = acc[t].wrapping_add(v * i32::from(brow[t]));
                        }
                    }
                    out[i * n + jb..i * n + jb + QGEMM_NR].copy_from_slice(&acc);
                    i += 1;
                }
            }
            // Column remainder: plain row-major accumulation.
            if n_main < n {
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut out[i * n + n_main..(i + 1) * n];
                    for (p, &av) in arow.iter().enumerate() {
                        let v = i32::from(av);
                        let brow = &b[p * n + n_main..(p + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o = o.wrapping_add(v * i32::from(bv));
                        }
                    }
                }
            }
        }
    };
}

int_gemm!(
    gemm_i8_into,
    i8,
    "Dense blocked i8 GEMM: writes `A·B` into the `i32` accumulator buffer."
);
int_gemm!(
    gemm_i16_into,
    i16,
    "Dense blocked i16 GEMM: writes `A·B` into the `i32` accumulator buffer."
);

/// Lanes of the integer dot products (mirrors the `f32` `dot_lanes`).
const QDOT_LANES: usize = 8;

macro_rules! int_matvec {
    ($name:ident, $batch_name:ident, $ty:ty) => {
        /// Integer matrix–vector product into a caller-provided `i32`
        /// accumulator buffer: `a` is `[m, k]`, `x` has `k` elements, `out`
        /// has `m` elements. Wrapping `i32` accumulation; never allocates.
        ///
        /// # Panics
        ///
        /// Panics when a buffer length does not match its dimensions.
        pub fn $name(a: &[$ty], x: &[$ty], out: &mut [i32], m: usize, k: usize) {
            assert_eq!(a.len(), m * k, "qmatvec: matrix length {} != {m}x{k}", a.len());
            assert_eq!(x.len(), k, "qmatvec: vector length {} != {k}", x.len());
            assert_eq!(out.len(), m, "qmatvec: out length {} != {m}", out.len());
            for (o, row) in out.iter_mut().zip(a.chunks_exact(k.max(1))) {
                let mut acc = [0i32; QDOT_LANES];
                let chunks = k / QDOT_LANES;
                for c in 0..chunks {
                    for t in 0..QDOT_LANES {
                        let idx = c * QDOT_LANES + t;
                        acc[t] = acc[t].wrapping_add(i32::from(row[idx]) * i32::from(x[idx]));
                    }
                }
                let mut sum = 0i32;
                for lane in acc {
                    sum = sum.wrapping_add(lane);
                }
                for idx in chunks * QDOT_LANES..k {
                    sum = sum.wrapping_add(i32::from(row[idx]) * i32::from(x[idx]));
                }
                *o = sum;
            }
            if k == 0 {
                out.fill(0);
            }
        }

        /// Batched integer matrix–vector product: one shared `[m, k]` matrix
        /// against `batch` sample-major input vectors (`xs` is `[batch, k]`,
        /// `out` is `[batch, m]`). Row-major over the matrix with samples
        /// innermost, like the `f32` batched kernel; each sample's result is
        /// identical to a separate single-vector call.
        ///
        /// # Panics
        ///
        /// Panics when a buffer length does not match its dimensions.
        pub fn $batch_name(
            a: &[$ty],
            xs: &[$ty],
            out: &mut [i32],
            m: usize,
            k: usize,
            batch: usize,
        ) {
            assert_eq!(a.len(), m * k, "qmatvec_batch: matrix length {} != {m}x{k}", a.len());
            assert_eq!(xs.len(), batch * k, "qmatvec_batch: vectors length mismatch");
            assert_eq!(out.len(), batch * m, "qmatvec_batch: out length mismatch");
            if k == 0 {
                out.fill(0);
                return;
            }
            for (i, row) in a.chunks_exact(k).enumerate() {
                for s in 0..batch {
                    let x = &xs[s * k..(s + 1) * k];
                    let mut sum = 0i32;
                    for (&w, &v) in row.iter().zip(x) {
                        sum = sum.wrapping_add(i32::from(w) * i32::from(v));
                    }
                    out[s * m + i] = sum;
                }
            }
        }
    };
}

int_matvec!(matvec_i8_into, matvec_i8_batch_into, i8);
int_matvec!(matvec_i16_into, matvec_i16_batch_into, i16);

/// Depth alignment of the transposed madd GEMM operands: callers pad both
/// operands' depth to a multiple of this (zero-filled — integer zeros
/// contribute exactly nothing), which removes the vector loop's scalar tail.
pub const MADD_DEPTH_ALIGN: usize = 16;

/// Contiguous i16 dot product with `i32` wrapping accumulation.
///
/// This exact shape — a single reduction over `sext(i16)·sext(i16)` products
/// — is what LLVM lowers to the x86 `vpmaddwd` multiply-add-pairs
/// instruction, which retires **two** integer MACs per lane per instruction:
/// twice the multiply throughput of `f32` FMA at equal register width, and
/// the entire reason the quantized engine beats the float kernels on wide
/// layers. Any blocking/interleaving of this loop breaks the pattern match
/// (measured: 2–3× slower), which is why the transposed GEMM calls the
/// plain dot instead of register-tiling like the `f32` kernel. On the
/// portable tier LLVM emits the 128-bit `pmaddwd` (SSE2 baseline); the AVX2
/// tier uses the 256-bit form explicitly and the VNNI tier fuses the
/// multiply-add-pairs *and* the accumulation into one 512-bit `vpdpwssd`.
/// Integer addition is associative, so all tiers are bit-identical.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    let mut sum = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        sum = sum.wrapping_add(i32::from(x) * i32::from(y));
    }
    sum
}

/// Cache-blocked widening transpose: turns the `[k, n]` column matrix the
/// quantized `im2col` produces into the `[n, kp]` row-major, depth-padded
/// `i16` right operand of [`gemm_i16t_into`].
///
/// The plane-major `im2col` lowering is fast (long contiguous copy runs) but
/// emits columns; the madd GEMM needs contiguous depth **rows**. Fusing the
/// transpose into either side is slower than doing it blocked here: 32×32
/// tiles keep both the strided reads and the contiguous writes inside L1,
/// and the depth tail `k..kp` of every row is zero-filled (exact against the
/// zero-padded weight rows).
///
/// # Panics
///
/// Panics when `kp < k` or a buffer length does not match.
pub fn transpose_widen_into(cols: &[i8], k: usize, n: usize, kp: usize, out: &mut [i16]) {
    assert!(kp >= k, "padded depth {kp} below real depth {k}");
    assert_eq!(cols.len(), k * n, "transpose: column buffer length {} != {k}x{n}", cols.len());
    assert_eq!(out.len(), n * kp, "transpose: out buffer length {} != {n}x{kp}", out.len());
    // 16(n) × 8(k) register tiles: every read is a contiguous 16-byte run of
    // one source row, every write a contiguous 16-byte run of one output
    // row; only the in-register tile is permuted. ~2.3× faster than a plain
    // blocked scalar transpose (measured on the conv shapes of the paper
    // backbone).
    const TJ: usize = 16;
    const TP: usize = 8;
    let n_main = n - n % TJ;
    let k_main = k - k % TP;
    for pb in (0..k_main).step_by(TP) {
        for jb in (0..n_main).step_by(TJ) {
            let mut tile = [[0i16; TP]; TJ];
            for pp in 0..TP {
                let row = &cols[(pb + pp) * n + jb..(pb + pp) * n + jb + TJ];
                for (j, t) in tile.iter_mut().enumerate() {
                    t[pp] = i16::from(row[j]);
                }
            }
            for (j, t) in tile.iter().enumerate() {
                out[(jb + j) * kp + pb..(jb + j) * kp + pb + TP].copy_from_slice(t);
            }
        }
        // Column remainder (n % 16).
        for j in n_main..n {
            for pp in 0..TP {
                out[j * kp + pb + pp] = i16::from(cols[(pb + pp) * n + j]);
            }
        }
    }
    // Depth remainder (k % 8) and the zero-filled pad tail of every row.
    for p in k_main..k {
        for j in 0..n {
            out[j * kp + p] = i16::from(cols[p * n + j]);
        }
    }
    for j in 0..n {
        out[j * kp + k..(j + 1) * kp].fill(0);
    }
}

/// Transposed-operand integer GEMM: `out[i][j] = Σ_p a[i][p] · bt[j][p]`
/// with `a` as `[m, kp]` and `bt` as `[n, kp]`, both row-major — i.e. `bt`
/// is the **transposed** right operand, so every output element is a dot of
/// two contiguous rows (see `dot_i16` for why that shape is the fast one
/// on x86). `kp` is the padded depth; callers align it to
/// [`MADD_DEPTH_ALIGN`] with zero fill, which changes no result.
///
/// Serves both the quantized convolution (`a` = packed weight codes, `bt` =
/// the `im2row`-lowered activation patches) and the quantized dense layer
/// (`a` = sample-major activation vectors, `bt` = packed weight codes).
/// Wrapping `i32` accumulation; integer addition is associative, so the
/// result is bit-identical to any naive evaluation order. Never allocates.
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
    #[cfg(target_arch = "x86_64")]
    if simd::try_gemm_i16t(tier, a, bt, out, m, kp, n) {
        return;
    }
    let _ = tier;
    for (j, brow) in bt.chunks_exact(kp).enumerate() {
        for (i, arow) in a.chunks_exact(kp).enumerate() {
            out[i * n + j] = dot_i16(arow, brow);
        }
    }
}

/// AVX2 / AVX-512-VNNI tier implementations of the integer kernels (explicit
/// `core::arch` intrinsics). All integer accumulation is wrapping and
/// associative, so any vector re-blocking is bit-identical to the portable
/// loops; the `f32` steps of the quantize/dequantize kernels replicate the
/// scalar operation sequence exactly (no FMA).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::*;
    use core::arch::x86_64::*;

    /// Runs the AVX2 or VNNI madd GEMM when the clamped tier allows it;
    /// returns `false` when the caller should take the portable path. Safe:
    /// the feature check sits right next to the `unsafe` calls it justifies.
    pub(super) fn try_gemm_i16t(
        tier: IsaTier,
        a: &[i16],
        bt: &[i16],
        out: &mut [i32],
        m: usize,
        kp: usize,
        n: usize,
    ) -> bool {
        match dispatch::clamp(tier) {
            // SAFETY: `clamp` never returns a tier above the detected
            // features, so the required instruction sets are present.
            IsaTier::Vnni => unsafe { gemm_i16t_vnni(a, bt, out, m, kp, n) },
            IsaTier::Avx2 => unsafe { gemm_i16t_avx2(a, bt, out, m, kp, n) },
            IsaTier::Portable => return false,
        }
        true
    }

    /// AVX2 activation-quantization attempt; see [`try_gemm_i16t`].
    pub(super) fn try_quantize_slice(
        tier: IsaTier,
        p: &QuantParams,
        src: &[f32],
        dst: &mut [i8],
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { quantize_slice_avx2(p, src, dst) };
        true
    }

    /// AVX2 dequantization-epilogue attempt; see [`try_gemm_i16t`].
    pub(super) fn try_dequant_slice(
        tier: IsaTier,
        acc: &[i32],
        corr: i32,
        scale: f32,
        bias: f32,
        relu: bool,
        out: &mut [f32],
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { dequant_slice_avx2(acc, corr, scale, bias, relu, out) };
        true
    }

    /// AVX2 requantization-epilogue attempt; see [`try_gemm_i16t`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_requant_slice(
        tier: IsaTier,
        acc: &[i32],
        corr: i32,
        scale: f32,
        bias: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { requant_slice_avx2(acc, corr, scale, bias, p, floor, out) };
        true
    }

    /// AVX2 per-row dequantization attempt; see [`try_gemm_i16t`].
    pub(super) fn try_dequant_rows(
        tier: IsaTier,
        acc: &[i32],
        corrs: &[i32],
        biases: &[f32],
        scale: f32,
        relu: bool,
        out: &mut [f32],
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { dequant_rows_avx2(acc, corrs, biases, scale, relu, out) };
        true
    }

    /// AVX2 per-row requantization attempt; see [`try_gemm_i16t`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_requant_rows(
        tier: IsaTier,
        acc: &[i32],
        corrs: &[i32],
        biases: &[f32],
        scale: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { requant_rows_avx2(acc, corrs, biases, scale, p, floor, out) };
        true
    }

    /// 256-bit `vpmaddwd` dot product (16 i16 per step).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i16_avx2(a: &[i16], b: &[i16]) -> i32 {
        let chunks = a.len() / 16;
        let mut acc = _mm256_setzero_si256();
        // SAFETY: chunk c reads 16 i16 at 16c with 16c + 16 <= len from both
        // equally long slices.
        unsafe {
            for c in 0..chunks {
                let va = _mm256_loadu_si256(a.as_ptr().add(c * 16).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(c * 16).cast());
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            }
        }
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is exactly 32 bytes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        let mut sum = lanes.iter().fold(0i32, |s, &l| s.wrapping_add(l));
        for i in chunks * 16..a.len() {
            sum = sum.wrapping_add(i32::from(a[i]) * i32::from(b[i]));
        }
        sum
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported; buffer lengths are validated by
    /// the dispatching wrapper.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_i16t_avx2(
        a: &[i16],
        bt: &[i16],
        out: &mut [i32],
        _m: usize,
        kp: usize,
        n: usize,
    ) {
        for (j, brow) in bt.chunks_exact(kp).enumerate() {
            for (i, arow) in a.chunks_exact(kp).enumerate() {
                // SAFETY: AVX2 is in effect in this function.
                out[i * n + j] = unsafe { dot_i16_avx2(arow, brow) };
            }
        }
    }

    /// 512-bit `vpdpwssd` dot product (32 i16 per step, multiply-add-pairs
    /// and accumulate in one instruction), with a 256-bit `vpdpwssd` step for
    /// a 16-element remainder — the common case for depth padded to
    /// [`MADD_DEPTH_ALIGN`] but not to 32.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512 F/BW/VL/VNNI are supported.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn dot_i16_vnni(a: &[i16], b: &[i16]) -> i32 {
        let chunks = a.len() / 32;
        let mut acc = _mm512_setzero_si512();
        // SAFETY: chunk c reads 32 i16 at 32c with 32c + 32 <= len from both
        // equally long slices; the remainder step reads 16 more only when
        // they exist.
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
            // SAFETY: 16 i16 remain at `done` in both slices.
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

    /// # Safety
    ///
    /// Caller must ensure AVX-512 F/BW/VL/VNNI are supported; buffer lengths
    /// are validated by the dispatching wrapper.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    unsafe fn gemm_i16t_vnni(
        a: &[i16],
        bt: &[i16],
        out: &mut [i32],
        _m: usize,
        kp: usize,
        n: usize,
    ) {
        for (j, brow) in bt.chunks_exact(kp).enumerate() {
            for (i, arow) in a.chunks_exact(kp).enumerate() {
                // SAFETY: the required features are in effect here.
                out[i * n + j] = unsafe { dot_i16_vnni(arow, brow) };
            }
        }
    }

    /// Quantizes 8 lanes: multiply by the cached reciprocal scale, round to
    /// nearest-even, clamp in the `f32` domain, force NaN lanes to the zero
    /// code, convert and add the zero point — the scalar
    /// [`QuantParams::quantize`] chain, lane for lane.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize8(p: &QuantParams, x: __m256) -> __m256i {
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
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and `dst` has at least 16 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store16_i8(q0: __m256i, q1: __m256i, dst: *mut i8) {
        let p16 = _mm256_packs_epi32(q0, q1);
        let p16 = _mm256_permute4x64_epi64::<0b11_01_10_00>(p16);
        let p8 = _mm256_packs_epi16(p16, p16);
        let p8 = _mm256_permute4x64_epi64::<0b00_00_10_00>(p8);
        // SAFETY: caller guarantees 16 writable bytes at `dst`.
        unsafe { _mm_storeu_si128(dst.cast(), _mm256_castsi256_si128(p8)) };
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and the slices are equally long.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_slice_avx2(p: &QuantParams, src: &[f32], dst: &mut [i8]) {
        let blocks = src.len() / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of both
        // slices.
        unsafe {
            for b in 0..blocks {
                let x0 = _mm256_loadu_ps(src.as_ptr().add(16 * b));
                let x1 = _mm256_loadu_ps(src.as_ptr().add(16 * b + 8));
                store16_i8(quantize8(p, x0), quantize8(p, x1), dst.as_mut_ptr().add(16 * b));
            }
        }
        for (d, &v) in dst[blocks * 16..].iter_mut().zip(&src[blocks * 16..]) {
            *d = p.quantize(v) as i8;
        }
    }

    /// Dequantizes 8 lanes: wrapping subtract, exact int→float convert, then
    /// separate multiply and add (two rounded ops, like the scalar
    /// [`dequant_acc`]).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dequant8(acc: __m256i, corr: __m256i, scale: __m256, bias: __m256) -> __m256 {
        let v = _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, corr));
        _mm256_add_ps(_mm256_mul_ps(v, scale), bias)
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and the slices are equally long.
    #[target_feature(enable = "avx2")]
    unsafe fn dequant_slice_avx2(
        acc: &[i32],
        corr: i32,
        scale: f32,
        bias: f32,
        relu: bool,
        out: &mut [f32],
    ) {
        let vcorr = _mm256_set1_epi32(corr);
        let vscale = _mm256_set1_ps(scale);
        let vbias = _mm256_set1_ps(bias);
        let zero = _mm256_setzero_ps();
        let chunks = acc.len() / 8;
        // SAFETY: chunk c covers [8c, 8c+8) with 8c+8 <= len of both slices.
        unsafe {
            for c in 0..chunks {
                let a = _mm256_loadu_si256(acc.as_ptr().add(c * 8).cast());
                let mut f = dequant8(a, vcorr, vscale, vbias);
                if relu {
                    f = _mm256_max_ps(f, zero);
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), f);
            }
        }
        for (o, &a) in out[chunks * 8..].iter_mut().zip(&acc[chunks * 8..]) {
            *o = relu_sel(dequant_acc(a, corr, scale, bias), relu);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and the slices are equally long.
    #[target_feature(enable = "avx2")]
    unsafe fn requant_slice_avx2(
        acc: &[i32],
        corr: i32,
        scale: f32,
        bias: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) {
        let vcorr = _mm256_set1_epi32(corr);
        let vscale = _mm256_set1_ps(scale);
        let vbias = _mm256_set1_ps(bias);
        let vfloor = _mm256_set1_epi32(floor);
        let blocks = acc.len() / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of both
        // slices.
        unsafe {
            for b in 0..blocks {
                let a0 = _mm256_loadu_si256(acc.as_ptr().add(16 * b).cast());
                let a1 = _mm256_loadu_si256(acc.as_ptr().add(16 * b + 8).cast());
                let q0 = _mm256_max_epi32(quantize8(p, dequant8(a0, vcorr, vscale, vbias)), vfloor);
                let q1 = _mm256_max_epi32(quantize8(p, dequant8(a1, vcorr, vscale, vbias)), vfloor);
                store16_i8(q0, q1, out.as_mut_ptr().add(16 * b));
            }
        }
        for (o, &a) in out[blocks * 16..].iter_mut().zip(&acc[blocks * 16..]) {
            *o = p.quantize(dequant_acc(a, corr, scale, bias)).max(floor) as i8;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and all slices are equally long.
    #[target_feature(enable = "avx2")]
    unsafe fn dequant_rows_avx2(
        acc: &[i32],
        corrs: &[i32],
        biases: &[f32],
        scale: f32,
        relu: bool,
        out: &mut [f32],
    ) {
        let vscale = _mm256_set1_ps(scale);
        let zero = _mm256_setzero_ps();
        let chunks = acc.len() / 8;
        // SAFETY: chunk c covers [8c, 8c+8) with 8c+8 <= len of all slices.
        unsafe {
            for c in 0..chunks {
                let a = _mm256_loadu_si256(acc.as_ptr().add(c * 8).cast());
                let vcorr = _mm256_loadu_si256(corrs.as_ptr().add(c * 8).cast());
                let vbias = _mm256_loadu_ps(biases.as_ptr().add(c * 8));
                let mut f = dequant8(a, vcorr, vscale, vbias);
                if relu {
                    f = _mm256_max_ps(f, zero);
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(c * 8), f);
            }
        }
        for i in chunks * 8..out.len() {
            out[i] = relu_sel(dequant_acc(acc[i], corrs[i], scale, biases[i]), relu);
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported and all slices are equally long.
    #[target_feature(enable = "avx2")]
    unsafe fn requant_rows_avx2(
        acc: &[i32],
        corrs: &[i32],
        biases: &[f32],
        scale: f32,
        p: &QuantParams,
        floor: i32,
        out: &mut [i8],
    ) {
        let vscale = _mm256_set1_ps(scale);
        let vfloor = _mm256_set1_epi32(floor);
        let blocks = acc.len() / 16;
        // SAFETY: block b covers [16b, 16b+16) with 16b+16 <= len of all
        // slices.
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
                store16_i8(q0, q1, out.as_mut_ptr().add(16 * b));
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

    #[test]
    fn i8_gemm_matches_naive_across_tile_boundaries() {
        let mut rng = StdRng::seed_from_u64(1);
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (4, 32, 16), (5, 33, 17), (8, 60, 40)] {
            let a: Vec<i8> = (0..m * k).map(|_| rng.gen::<i8>()).collect();
            let b: Vec<i8> = (0..k * n).map(|_| rng.gen::<i8>()).collect();
            let mut out = vec![7i32; m * n];
            gemm_i8_into(&a, &b, &mut out, m, k, n);
            assert_eq!(out, naive_gemm(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn i16_gemm_matches_naive_including_wrapping() {
        let mut rng = StdRng::seed_from_u64(2);
        // Large codes at depth 40 force i32 wrap-around in some cells; the
        // blocked kernel and the naive loop must wrap identically.
        let (m, k, n) = (5, 40, 19);
        let a: Vec<i16> = (0..m * k).map(|_| rng.gen::<i16>()).collect();
        let b: Vec<i16> = (0..k * n).map(|_| rng.gen::<i16>()).collect();
        let mut out = vec![0i32; m * n];
        gemm_i16_into(&a, &b, &mut out, m, k, n);
        assert_eq!(out, naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn matvec_kernels_match_gemm_column() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k) = (7, 29);
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen::<i8>()).collect();
        let x: Vec<i8> = (0..k).map(|_| rng.gen::<i8>()).collect();
        let mut out = vec![0i32; m];
        matvec_i8_into(&a, &x, &mut out, m, k);
        let mut reference = vec![0i32; m];
        gemm_i8_into(&a, &x, &mut reference, m, k, 1);
        assert_eq!(out, reference);
        let a16: Vec<i16> = a.iter().map(|&v| i16::from(v)).collect();
        let x16: Vec<i16> = x.iter().map(|&v| i16::from(v)).collect();
        let mut out16 = vec![0i32; m];
        matvec_i16_into(&a16, &x16, &mut out16, m, k);
        assert_eq!(out16, reference);
    }

    #[test]
    fn batched_matvec_matches_per_sample_matvec() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, batch) = (5, 17, 6);
        let a: Vec<i8> = (0..m * k).map(|_| rng.gen::<i8>()).collect();
        let xs: Vec<i8> = (0..batch * k).map(|_| rng.gen::<i8>()).collect();
        let mut batched = vec![0i32; batch * m];
        matvec_i8_batch_into(&a, &xs, &mut batched, m, k, batch);
        for s in 0..batch {
            let mut single = vec![0i32; m];
            matvec_i8_into(&a, &xs[s * k..(s + 1) * k], &mut single, m, k);
            assert_eq!(&batched[s * m..(s + 1) * m], &single[..], "sample {s}");
        }
        // k == 0 zero-fills.
        let mut out = vec![9i32; 4];
        matvec_i8_batch_into(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![0; 4]);
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
        let mut rng = StdRng::seed_from_u64(5);
        for (m, k, n) in [(1usize, 1usize, 1usize), (4, 17, 9), (7, 75, 20), (16, 80, 33)] {
            let a8: Vec<i8> = (0..m * k).map(|_| rng.gen::<i8>()).collect();
            let b8: Vec<i8> = (0..k * n).map(|_| rng.gen::<i8>()).collect();
            let mut classic = vec![0i32; m * n];
            gemm_i8_into(&a8, &b8, &mut classic, m, k, n);
            // Widen + transpose + zero-pad the depth, as the plans do.
            let kp = k.next_multiple_of(MADD_DEPTH_ALIGN);
            let mut at = vec![0i16; m * kp];
            for i in 0..m {
                for p in 0..k {
                    at[i * kp + p] = i16::from(a8[i * k + p]);
                }
            }
            let mut bt = vec![0i16; n * kp];
            for p in 0..k {
                for j in 0..n {
                    bt[j * kp + p] = i16::from(b8[p * n + j]);
                }
            }
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

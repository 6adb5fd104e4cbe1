//! Element-wise arithmetic between tensors and scalars, plus the dispatched
//! slice kernels (max-pool window scans, ReLU, softmax) the `ie_nn` forward
//! hot path routes through the runtime ISA dispatch ([`crate::dispatch`]).
//!
//! # Max/ReLU select semantics
//!
//! Every max-style fold in this module uses the select `if v > acc { v }
//! else { acc }` — exactly what the x86 `vmaxps`/`vpmaxsb` instructions
//! compute with `v` as the first operand. That makes the portable and the
//! AVX2 tiers bit-identical on **all** inputs, including NaN (ignored: a NaN
//! candidate never beats the accumulator) and signed-zero ties (the
//! accumulator survives). The pool kernels additionally fix one window
//! reduction order — columns first (ascending `dy`), then across the window
//! row (ascending `dx`) — which every tier implements.

use crate::dispatch::{self, tiered, IsaTier};
use crate::{Result, Tensor, TensorError};

/// The max-select every tier of the `f32` max kernels uses: `v` beats `acc`
/// only when strictly greater, exactly `vmaxps(v, acc)`.
#[inline(always)]
fn sel_max(acc: f32, v: f32) -> f32 {
    if v > acc {
        v
    } else {
        acc
    }
}

// ---------------------------------------------------------------------------
// Max pooling
// ---------------------------------------------------------------------------

/// Portable body of [`max_pool_planes_into`]: pools each `[h, w]` plane
/// into `[h/size, w/size]` with the fixed column-then-row window order.
#[inline(always)]
fn max_pool_f32_body(src: &[f32], planes: usize, h: usize, w: usize, size: usize, dst: &mut [f32]) {
    let (oh, ow) = (h / size, w / size);
    for p in 0..planes {
        max_pool_plane_f32(
            &src[p * h * w..(p + 1) * h * w],
            oh,
            ow,
            w,
            size,
            &mut dst[p * oh * ow..(p + 1) * oh * ow],
        );
    }
}

/// One plane of [`max_pool_f32_body`].
#[inline(always)]
fn max_pool_plane_f32(src: &[f32], oh: usize, ow: usize, w: usize, size: usize, dst: &mut [f32]) {
    for oy in 0..oh {
        let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
        for (ox, o) in dst_row.iter_mut().enumerate() {
            let mut best = f32::NEG_INFINITY;
            for dx in 0..size {
                let mut col = f32::NEG_INFINITY;
                for dy in 0..size {
                    col = sel_max(col, src[(oy * size + dy) * w + ox * size + dx]);
                }
                best = sel_max(best, col);
            }
            *o = best;
        }
    }
}

/// Portable body of [`max_pool_planes_i8_into`]; integer max is a total
/// order, so the reduction order is irrelevant to the result.
#[inline(always)]
fn max_pool_i8_body(src: &[i8], planes: usize, h: usize, w: usize, size: usize, dst: &mut [i8]) {
    let (oh, ow) = (h / size, w / size);
    for p in 0..planes {
        max_pool_plane_i8(
            &src[p * h * w..(p + 1) * h * w],
            oh,
            ow,
            w,
            size,
            &mut dst[p * oh * ow..(p + 1) * oh * ow],
        );
    }
}

/// One plane of [`max_pool_i8_body`].
#[inline(always)]
fn max_pool_plane_i8(src: &[i8], oh: usize, ow: usize, w: usize, size: usize, dst: &mut [i8]) {
    for oy in 0..oh {
        let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
        for (ox, o) in dst_row.iter_mut().enumerate() {
            let mut best = i8::MIN;
            for dy in 0..size {
                for dx in 0..size {
                    best = best.max(src[(oy * size + dy) * w + ox * size + dx]);
                }
            }
            *o = best;
        }
    }
}

fn check_pool(src_len: usize, planes: usize, h: usize, w: usize, size: usize, dst_len: usize) {
    assert!(size > 0, "pool size must be non-zero");
    assert_eq!(h % size, 0, "pool: height {h} not divisible by {size}");
    assert_eq!(w % size, 0, "pool: width {w} not divisible by {size}");
    assert_eq!(src_len, planes * h * w, "pool: src length {src_len} != {planes}x{h}x{w}");
    assert_eq!(
        dst_len,
        planes * (h / size) * (w / size),
        "pool: dst length {dst_len} != pooled {planes}x{}x{}",
        h / size,
        w / size
    );
}

/// Non-overlapping 2-D max pool over `planes` stacked `[h, w]` planes (the
/// window equals the stride). Dispatched to the active ISA tier; on AVX2 the
/// ubiquitous `size == 2` case runs an explicit 8-outputs-per-step vector
/// kernel (vertical `vmaxps` of the two rows, then a pairwise horizontal
/// `vmaxps` after an even/odd deinterleave).
///
/// # Panics
///
/// Panics when `size` is zero, does not divide `h`/`w`, or a buffer length
/// does not match.
pub fn max_pool_planes_into(
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    dst: &mut [f32],
) {
    max_pool_planes_into_tier(dispatch::active(), src, planes, h, w, size, dst);
}

/// [`max_pool_planes_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`max_pool_planes_into`].
pub fn max_pool_planes_into_tier(
    tier: IsaTier,
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    dst: &mut [f32],
) {
    check_pool(src.len(), planes, h, w, size, dst.len());
    tiered!(
        tier,
        avx2: x86::max_pool_f32_avx2(src, planes, h, w, size, dst),
        portable: max_pool_f32_body(src, planes, h, w, size, dst),
    );
}

/// [`max_pool_planes_into`] over `i8` activation codes (the quantized code
/// domain). Quantization is monotone, so pooling codes equals pooling the
/// real values and quantizing after; on AVX2 the `size == 2` case reduces 32
/// codes to 16 outputs per step with `vpmaxsb`.
///
/// # Panics
///
/// Panics under the same conditions as [`max_pool_planes_into`].
pub fn max_pool_planes_i8_into(
    src: &[i8],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    dst: &mut [i8],
) {
    max_pool_planes_i8_into_tier(dispatch::active(), src, planes, h, w, size, dst);
}

/// [`max_pool_planes_i8_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`max_pool_planes_into`].
pub fn max_pool_planes_i8_into_tier(
    tier: IsaTier,
    src: &[i8],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    dst: &mut [i8],
) {
    check_pool(src.len(), planes, h, w, size, dst.len());
    tiered!(
        tier,
        avx2: x86::max_pool_i8_avx2(src, planes, h, w, size, dst),
        portable: max_pool_i8_body(src, planes, h, w, size, dst),
    );
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// In-place ReLU over a slice: `v = if v > 0.0 { v } else { 0.0 }` — exactly
/// `vmaxps(v, 0)`, so NaN and `-0.0` map to `+0.0` on every tier.
pub fn relu_slice(values: &mut [f32]) {
    relu_slice_tier(dispatch::active(), values);
}

/// [`relu_slice`] on an explicitly chosen ISA tier (clamped to the hardware).
pub fn relu_slice_tier(tier: IsaTier, values: &mut [f32]) {
    tiered!(tier, avx2: x86::relu_slice_avx2(values), portable: relu_body(values));
}

/// Portable body of [`relu_slice`]; also the AVX2 tier's tail.
#[inline(always)]
fn relu_body(values: &mut [f32]) {
    for v in values {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// In-place code-domain ReLU: clamps every `i8` activation code to at least
/// `floor` (the quantization zero point — the code of the real value `0.0`).
pub fn relu_codes_floor(codes: &mut [i8], floor: i8) {
    relu_codes_floor_tier(dispatch::active(), codes, floor);
}

/// [`relu_codes_floor`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
pub fn relu_codes_floor_tier(tier: IsaTier, codes: &mut [i8], floor: i8) {
    tiered!(tier, relu_codes_floor_body(codes: &mut [i8], floor: i8));
}

/// Portable body of [`relu_codes_floor`] (recompiled for AVX2 by the
/// dispatcher). Each fixed 32-code chunk becomes one `vpmaxsb` there. A
/// plain loop over the slice vectorizes 128 codes at a time instead and
/// leaves shorter runs to an 8-code epilogue, which made 84–120 codes
/// 1.3–1.45× slower than the hand-written 32-lane kernel.
#[inline(always)]
fn relu_codes_floor_body(codes: &mut [i8], floor: i8) {
    let mut chunks = codes.chunks_exact_mut(32);
    for chunk in &mut chunks {
        for c in chunk {
            *c = (*c).max(floor);
        }
    }
    for c in chunks.into_remainder() {
        *c = (*c).max(floor);
    }
}

// ---------------------------------------------------------------------------
// Fused bias (+ ReLU) epilogues
// ---------------------------------------------------------------------------

/// Portable body of the conv-layout bias epilogue (recompiled for AVX2 by
/// the dispatcher): every `plane`-sized row of `out` gets its row's scalar
/// bias added, with the optional ReLU select fused in.
#[inline(always)]
fn bias_rows_body(out: &mut [f32], plane: usize, bias: &[f32], relu: bool) {
    if relu {
        for (row, &b) in out.chunks_exact_mut(plane.max(1)).zip(bias) {
            for v in row {
                let t = *v + b;
                *v = if t > 0.0 { t } else { 0.0 };
            }
        }
    } else {
        for (row, &b) in out.chunks_exact_mut(plane.max(1)).zip(bias) {
            for v in row {
                *v += b;
            }
        }
    }
}

/// Portable body of the dense-layout bias epilogue: element `i` of each
/// `bias.len()`-sized sample row gets `bias[i]`, optional fused ReLU.
#[inline(always)]
fn bias_samples_body(out: &mut [f32], bias: &[f32], relu: bool) {
    for sample in out.chunks_exact_mut(bias.len().max(1)) {
        if relu {
            for (o, &b) in sample.iter_mut().zip(bias) {
                let t = *o + b;
                *o = if t > 0.0 { t } else { 0.0 };
            }
        } else {
            for (o, &b) in sample.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
}

/// Fused bias (+ ReLU) epilogue over the convolution output layout: `out` is
/// `[rows, plane]` row-major and row `r` receives `bias[r]`; with `relu` the
/// ReLU select (`t` if `t > 0.0`, else `0.0`) is applied in the same sweep.
/// Dispatched to the active ISA tier; bit-identical across tiers.
pub fn add_bias_rows(out: &mut [f32], plane: usize, bias: &[f32], relu: bool) {
    add_bias_rows_tier(dispatch::active(), out, plane, bias, relu);
}

/// [`add_bias_rows`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
pub fn add_bias_rows_tier(tier: IsaTier, out: &mut [f32], plane: usize, bias: &[f32], relu: bool) {
    tiered!(tier, bias_rows_body(out: &mut [f32], plane: usize, bias: &[f32], relu: bool));
}

/// Fused bias (+ ReLU) epilogue over the sample-major dense layout: `out` is
/// `[batch, features]` with `bias` added per feature. Dispatched; bit-
/// identical across tiers.
pub fn add_bias_samples(out: &mut [f32], bias: &[f32], relu: bool) {
    add_bias_samples_tier(dispatch::active(), out, bias, relu);
}

/// [`add_bias_samples`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
pub fn add_bias_samples_tier(tier: IsaTier, out: &mut [f32], bias: &[f32], relu: bool) {
    tiered!(tier, bias_samples_body(out: &mut [f32], bias: &[f32], relu: bool));
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

/// Lanes of the softmax reductions (matches the dot-product lane count).
const SM_LANES: usize = 8;

/// Finishes an 8-lane max fold: fixed pairwise tree, then the tail elements
/// in order. Shared verbatim by every tier, so the reduction order — and
/// therefore the result bits — cannot differ between them.
#[inline(always)]
fn finish_max(lanes: [f32; SM_LANES], tail: &[f32]) -> f32 {
    let m01 = sel_max(lanes[0], lanes[1]);
    let m23 = sel_max(lanes[2], lanes[3]);
    let m45 = sel_max(lanes[4], lanes[5]);
    let m67 = sel_max(lanes[6], lanes[7]);
    let mut m = sel_max(sel_max(m01, m23), sel_max(m45, m67));
    for &x in tail {
        m = sel_max(m, x);
    }
    m
}

/// Finishes an 8-lane sum fold: the dot-product reduction tree, then the
/// tail elements in order. Shared verbatim by every tier.
#[inline(always)]
fn finish_sum(lanes: [f32; SM_LANES], tail: &[f32]) -> f32 {
    let mut sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for &x in tail {
        sum += x;
    }
    sum
}

/// Exponential-function range-reduction and polynomial constants (the classic
/// Cephes/`sse_mathfun` single-precision kernel): `exp(x) = 2^n · exp(r)`
/// with `n = round(x·log2 e)` and `r = x − n·ln 2` split in two steps so the
/// subtraction is exact, then a degree-5 polynomial for `exp(r)` on
/// `|r| ≤ ½·ln 2`. Every step is an individually rounded scalar operation
/// (no FMA), so the vector tiers reproduce the portable tier bit for bit.
mod expc {
    pub(super) const HI: f32 = 88.376_26;
    pub(super) const LO: f32 = -87.336_55;
    pub(super) const LOG2E: f32 = std::f32::consts::LOG2_E;
    pub(super) const LN2_HI: f32 = 0.693_359_4;
    pub(super) const LN2_LO: f32 = -2.121_944_4e-4;
    pub(super) const P0: f32 = 1.987_569_1e-4;
    pub(super) const P1: f32 = 1.398_199_9e-3;
    pub(super) const P2: f32 = 8.333_452e-3;
    pub(super) const P3: f32 = 4.166_579_6e-2;
    pub(super) const P4: f32 = 1.666_666_5e-1;
    pub(super) const P5: f32 = 5.000_000_4e-1;
}

/// Shared scalar exponential (see [`expc`]); maximum relative error ≈ 2⁻²³
/// on the reduced range, `exp_m(0) == 1.0` exactly. NaN inputs are
/// canonicalized to the quiet `f32::NAN` — hardware NaN *payload*
/// propagation depends on operand order, which codegen does not pin down, so
/// both tiers return one fixed NaN instead.
#[inline(always)]
fn exp_m(x: f32) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    let x = if x > expc::HI { expc::HI } else { x };
    let x = if x < expc::LO { expc::LO } else { x };
    let n = (x * expc::LOG2E).round_ties_even();
    let r = x - n * expc::LN2_HI;
    let r = r - n * expc::LN2_LO;
    let r2 = r * r;
    let p =
        ((((expc::P0 * r + expc::P1) * r + expc::P2) * r + expc::P3) * r + expc::P4) * r + expc::P5;
    let y = p * r2 + r + 1.0;
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    y * scale
}

/// Portable softmax body: lane-parallel max, the shared exponential, a
/// lane-parallel sum and an elementwise normalising multiply.
#[inline(always)]
fn softmax_body(logits: &[f32], out: &mut [f32]) {
    let chunks = logits.len() / SM_LANES;
    let mut lanes = [f32::NEG_INFINITY; SM_LANES];
    for c in 0..chunks {
        let v: &[f32; SM_LANES] =
            logits[c * SM_LANES..(c + 1) * SM_LANES].try_into().expect("lane width");
        for t in 0..SM_LANES {
            lanes[t] = sel_max(lanes[t], v[t]);
        }
    }
    let max = finish_max(lanes, &logits[chunks * SM_LANES..]);
    for (o, &x) in out.iter_mut().zip(logits) {
        *o = exp_m(x - max);
    }
    let mut sums = [0.0f32; SM_LANES];
    for c in 0..chunks {
        let v: &[f32; SM_LANES] =
            out[c * SM_LANES..(c + 1) * SM_LANES].try_into().expect("lane width");
        for t in 0..SM_LANES {
            sums[t] += v[t];
        }
    }
    let sum = finish_sum(sums, &out[chunks * SM_LANES..]);
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Numerically stable softmax over a logits slice, written into `out`.
///
/// The maximum is subtracted before exponentiation; the exponential is the
/// shared polynomial kernel (`expc`), identical on every tier, and the
/// max/sum reductions use a fixed 8-lane tree so the result is a
/// deterministic function of the input alone. Dispatched to the active ISA
/// tier; bit-identical across tiers.
///
/// # Panics
///
/// Panics when `logits` is empty or the lengths differ.
pub fn softmax_slice_into(logits: &[f32], out: &mut [f32]) {
    softmax_slice_into_tier(dispatch::active(), logits, out);
}

/// [`softmax_slice_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when `logits` is empty or the lengths differ.
pub fn softmax_slice_into_tier(tier: IsaTier, logits: &[f32], out: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax of an empty slice");
    assert_eq!(logits.len(), out.len(), "softmax: length mismatch");
    tiered!(tier, avx2: x86::softmax_avx2(logits, out), portable: softmax_body(logits, out));
}

// ---------------------------------------------------------------------------
// AVX2 tier implementations (explicit `core::arch` intrinsics)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// [`max_pool_planes_into`] on AVX2: the 2×2 window, one
    /// [`max_pool_plane2_f32_avx2`] per plane; any other window runs the
    /// portable body.
    #[target_feature(enable = "avx2")]
    pub(super) fn max_pool_f32_avx2(
        src: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        size: usize,
        dst: &mut [f32],
    ) {
        if size != 2 {
            return max_pool_f32_body(src, planes, h, w, size, dst);
        }
        let (oh, ow) = (h / 2, w / 2);
        for p in 0..planes {
            max_pool_plane2_f32_avx2(
                &src[p * h * w..(p + 1) * h * w],
                oh,
                w,
                &mut dst[p * oh * ow..(p + 1) * oh * ow],
            );
        }
    }

    /// `i8` counterpart of [`max_pool_f32_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn max_pool_i8_avx2(
        src: &[i8],
        planes: usize,
        h: usize,
        w: usize,
        size: usize,
        dst: &mut [i8],
    ) {
        if size != 2 {
            return max_pool_i8_body(src, planes, h, w, size, dst);
        }
        let (oh, ow) = (h / 2, w / 2);
        for p in 0..planes {
            max_pool_plane2_i8_avx2(
                &src[p * h * w..(p + 1) * h * w],
                oh,
                w,
                &mut dst[p * oh * ow..(p + 1) * oh * ow],
            );
        }
    }

    /// Pools one `[h, w]` plane with a 2×2 window, 8 outputs per step:
    /// vertical `vmaxps` of the two source rows, even/odd deinterleave,
    /// horizontal pairwise `vmaxps` — the same column-then-row select order
    /// as the portable scan, so ties and NaNs resolve identically. `src` is
    /// `[2·oh, w]` with even `w`, `dst` is `[oh, w/2]`. Kept out of line:
    /// inlined into the plane loop, it pooled LeNet's planes 1.1× slower.
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    fn max_pool_plane2_f32_avx2(src: &[f32], oh: usize, w: usize, dst: &mut [f32]) {
        let ow = w / 2;
        let ninf = _mm256_set1_ps(f32::NEG_INFINITY);
        for oy in 0..oh {
            let r0 = &src[(2 * oy) * w..(2 * oy + 1) * w];
            let r1 = &src[(2 * oy + 1) * w..(2 * oy + 2) * w];
            let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
            let blocks = ow / 8;
            // SAFETY: block b reads 16 floats from each row starting at 16b
            // (16b + 16 <= w) and writes 8 outputs at 8b (8b + 8 <= ow).
            unsafe {
                for b in 0..blocks {
                    let a0 = _mm256_loadu_ps(r0.as_ptr().add(16 * b));
                    let a1 = _mm256_loadu_ps(r0.as_ptr().add(16 * b + 8));
                    let b0 = _mm256_loadu_ps(r1.as_ptr().add(16 * b));
                    let b1 = _mm256_loadu_ps(r1.as_ptr().add(16 * b + 8));
                    // Column fold: sel(sel(-inf, row0), row1), candidate first.
                    let v0 = _mm256_max_ps(b0, _mm256_max_ps(a0, ninf));
                    let v1 = _mm256_max_ps(b1, _mm256_max_ps(a1, ninf));
                    // Deinterleave [x0..x15] into even/odd window columns.
                    let lo = _mm256_shuffle_ps::<0b10_00_10_00>(v0, v1);
                    let hi = _mm256_shuffle_ps::<0b11_01_11_01>(v0, v1);
                    let evens = _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                        _mm256_castps_pd(lo),
                    ));
                    let odds = _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(
                        _mm256_castps_pd(hi),
                    ));
                    // Row fold: sel(sel(-inf, even), odd).
                    let out = _mm256_max_ps(odds, _mm256_max_ps(evens, ninf));
                    _mm256_storeu_ps(dst_row.as_mut_ptr().add(8 * b), out);
                }
            }
            for ox in blocks * 8..ow {
                let mut best = f32::NEG_INFINITY;
                for dx in 0..2 {
                    let mut col = f32::NEG_INFINITY;
                    col = sel_max(col, r0[2 * ox + dx]);
                    col = sel_max(col, r1[2 * ox + dx]);
                    best = sel_max(best, col);
                }
                dst_row[ox] = best;
            }
        }
    }

    /// `i8` 2×2 pool, 16 outputs per step: vertical `vpmaxsb`, then the
    /// horizontal pair max via a sign-extending even/odd split to `i16`.
    /// Shapes as in [`max_pool_plane2_f32_avx2`].
    #[target_feature(enable = "avx2")]
    fn max_pool_plane2_i8_avx2(src: &[i8], oh: usize, w: usize, dst: &mut [i8]) {
        let ow = w / 2;
        for oy in 0..oh {
            let r0 = &src[(2 * oy) * w..(2 * oy + 1) * w];
            let r1 = &src[(2 * oy + 1) * w..(2 * oy + 2) * w];
            let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
            let blocks = ow / 16;
            // SAFETY: block b reads 32 codes from each row at 32b
            // (32b + 32 <= w) and writes 16 outputs at 16b (16b + 16 <= ow).
            unsafe {
                for b in 0..blocks {
                    let a = _mm256_loadu_si256(r0.as_ptr().add(32 * b).cast());
                    let c = _mm256_loadu_si256(r1.as_ptr().add(32 * b).cast());
                    let v = _mm256_max_epi8(a, c);
                    // Sign-extend even/odd bytes to i16 and take the pair max.
                    let evens = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(v));
                    let odds = _mm256_srai_epi16::<8>(v);
                    let pairs = _mm256_max_epi16(evens, odds);
                    // Pack the 16 i16 maxima back to i8 (all within range) and
                    // compact the two 128-bit lanes.
                    let packed = _mm256_packs_epi16(pairs, pairs);
                    let compact = _mm256_permute4x64_epi64::<0b00_00_10_00>(packed);
                    _mm_storeu_si128(
                        dst_row.as_mut_ptr().add(16 * b).cast(),
                        _mm256_castsi256_si128(compact),
                    );
                }
            }
            for ox in blocks * 16..ow {
                let mut best = i8::MIN;
                best = best.max(r0[2 * ox]).max(r0[2 * ox + 1]);
                best = best.max(r1[2 * ox]).max(r1[2 * ox + 1]);
                dst_row[ox] = best;
            }
        }
    }

    /// [`relu_slice`] as `vmaxps(v, 0)`, 8 lanes at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn relu_slice_avx2(values: &mut [f32]) {
        let zero = _mm256_setzero_ps();
        let chunks = values.len() / 8;
        // SAFETY: chunk c covers [8c, 8c+8) with 8c+8 <= len.
        unsafe {
            for c in 0..chunks {
                let p = values.as_mut_ptr().add(c * 8);
                _mm256_storeu_ps(p, _mm256_max_ps(_mm256_loadu_ps(p), zero));
            }
        }
        relu_body(&mut values[chunks * 8..]);
    }

    /// Vector exponential: the same constant chain as [`exp_m`], one rounded
    /// operation per step (multiplies and adds kept separate — no FMA), so
    /// each lane reproduces the scalar kernel bit for bit.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn exp_ps(x: __m256) -> __m256 {
        let x0 = x;
        // min/max with x as the *second* operand: NaN passes through, exactly
        // like the scalar `if x > HI { HI } else { x }` chain.
        let x = _mm256_min_ps(_mm256_set1_ps(expc::HI), x);
        let x = _mm256_max_ps(_mm256_set1_ps(expc::LO), x);
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(x, _mm256_set1_ps(expc::LOG2E)),
        );
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(expc::LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(expc::LN2_LO)));
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(expc::P0);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(expc::P1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(expc::P2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(expc::P3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(expc::P4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(expc::P5));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
        // 2^n via the exponent field. NaN lanes convert to i32::MIN, whose
        // scale is garbage — but `y` is NaN there and NaN·anything = NaN with
        // the first operand's payload, matching the scalar path.
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        let result = _mm256_mul_ps(y, scale);
        // Canonicalize NaN lanes like the scalar kernel (payload propagation
        // through the arithmetic above is operand-order dependent).
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x0, x0);
        _mm256_blendv_ps(result, _mm256_set1_ps(f32::NAN), nan)
    }

    /// [`softmax_slice_into`] 8 lanes at a time through [`exp_ps`].
    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_avx2(logits: &[f32], out: &mut [f32]) {
        let out = &mut out[..logits.len()];
        let chunks = logits.len() / SM_LANES;
        // SAFETY: every pointer access below covers [8c, 8c+8) with
        // 8c+8 <= len for both slices (`out` is re-sliced to `logits`'
        // length above).
        unsafe {
            let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
            for c in 0..chunks {
                let v = _mm256_loadu_ps(logits.as_ptr().add(c * SM_LANES));
                vmax = _mm256_max_ps(v, vmax);
            }
            let mut lanes = [f32::NEG_INFINITY; SM_LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
            let max = finish_max(lanes, &logits[chunks * SM_LANES..]);
            let vm = _mm256_set1_ps(max);
            for c in 0..chunks {
                let v = _mm256_loadu_ps(logits.as_ptr().add(c * SM_LANES));
                _mm256_storeu_ps(out.as_mut_ptr().add(c * SM_LANES), exp_ps(_mm256_sub_ps(v, vm)));
            }
            for (o, &x) in out[chunks * SM_LANES..].iter_mut().zip(&logits[chunks * SM_LANES..]) {
                *o = exp_m(x - max);
            }
            let mut vsum = _mm256_setzero_ps();
            for c in 0..chunks {
                vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(out.as_ptr().add(c * SM_LANES)));
            }
            let mut sums = [0.0f32; SM_LANES];
            _mm256_storeu_ps(sums.as_mut_ptr(), vsum);
            let sum = finish_sum(sums, &out[chunks * SM_LANES..]);
            let inv = 1.0 / sum;
            let vinv = _mm256_set1_ps(inv);
            for c in 0..chunks {
                let p = out.as_mut_ptr().add(c * SM_LANES);
                _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), vinv));
            }
            for o in &mut out[chunks * SM_LANES..] {
                *o *= inv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tensor element-wise methods
// ---------------------------------------------------------------------------

impl Tensor {
    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Element-wise difference of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Adds `other * scale` to `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Adds a scalar to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Applies the rectified linear unit (`x` if `x > 0`, else `0.0` — the
    /// same select the dispatched [`relu_slice`] kernel uses on every tier).
    pub fn relu(&self) -> Tensor {
        self.map(|x| if x > 0.0 { x } else { 0.0 })
    }

    /// Applies the hyperbolic tangent element-wise.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Applies the logistic sigmoid element-wise.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that shapes match; public callers go through the checked
    /// arithmetic methods above.
    pub(crate) fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        debug_assert_eq!(self.shape(), other.shape());
        let data = self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(data, self.dims()).expect("zip_with preserves shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn add_sub_mul_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn mismatched_shapes_error() {
        let a = t(&[1.0, 2.0]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        let g = t(&[2.0, -4.0]);
        a.add_scaled_inplace(&g, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn activations_behave() {
        let x = t(&[-1.0, 0.0, 2.0]);
        assert_eq!(x.relu().as_slice(), &[0.0, 0.0, 2.0]);
        let s = x.sigmoid();
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        let c = x.clamp(-0.5, 1.0);
        assert_eq!(c.as_slice(), &[-0.5, 0.0, 1.0]);
        let th = x.tanh();
        assert!(th.as_slice()[2] > 0.9 && th.as_slice()[2] < 1.0);
    }

    #[test]
    fn scalar_ops() {
        let x = t(&[1.0, 2.0]);
        assert_eq!(x.scale(3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!(x.add_scalar(-1.0).as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn pool_kernel_picks_window_maxima() {
        #[rustfmt::skip]
        let src = [
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
            -1.0, -2.0, 0.0, 1.0,
            -3.0, -4.0, 2.0, 3.0f32,
        ];
        let mut out = [0.0f32; 4];
        max_pool_planes_into(&src, 1, 4, 4, 2, &mut out);
        assert_eq!(out, [4.0, 8.0, -1.0, 3.0]);
        let codes: Vec<i8> = src.iter().map(|&v| v as i8).collect();
        let mut cout = [0i8; 4];
        max_pool_planes_i8_into(&codes, 1, 4, 4, 2, &mut cout);
        assert_eq!(cout, [4, 8, -1, 3]);
    }

    #[test]
    fn pool_kernel_size_one_is_identity_and_nan_is_ignored() {
        let src = [1.0, f32::NAN, -2.0, 0.5];
        let mut out = [0.0f32; 4];
        max_pool_planes_into(&src, 1, 2, 2, 1, &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[2], -2.0);
        // A NaN window element never beats the accumulator; a pure-NaN fold
        // yields the -inf initialiser.
        let mut pooled = [0.0f32; 1];
        max_pool_planes_into(&[f32::NAN, 1.0, 2.0, f32::NAN], 1, 2, 2, 2, &mut pooled);
        assert_eq!(pooled[0], 2.0);
        max_pool_planes_into(&[f32::NAN; 4], 1, 2, 2, 2, &mut pooled);
        assert_eq!(pooled[0], f32::NEG_INFINITY);
    }

    #[test]
    fn pools_of_empty_planes_are_empty_on_every_tier() {
        for &tier in crate::dispatch::supported_tiers() {
            for (h, w, size) in [(4, 0, 2), (0, 4, 2), (0, 0, 3)] {
                max_pool_planes_into_tier(tier, &[], 3, h, w, size, &mut []);
                max_pool_planes_i8_into_tier(tier, &[], 3, h, w, size, &mut []);
            }
        }
    }

    #[test]
    fn relu_kernels_clamp_from_below() {
        let mut v = vec![-1.0f32, 0.0, 2.5, -0.0, f32::NAN, 7.0, -3.0, 1.0, -0.25];
        relu_slice(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[2], 2.5);
        assert_eq!(v[3].to_bits(), 0, "-0.0 maps to +0.0");
        assert_eq!(v[4], 0.0, "NaN maps to 0.0 (vmaxps semantics)");
        assert_eq!(v[8], 0.0);
        let mut codes = vec![-7i8, -3, 0, 5, 127, -128];
        relu_codes_floor(&mut codes, -3);
        assert_eq!(codes, vec![-3, -3, 0, 5, 127, -3]);
    }

    #[test]
    fn softmax_kernel_normalises_and_is_stable() {
        let logits: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut probs = vec![0.0f32; logits.len()];
        softmax_slice_into(&logits, &mut probs);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "sum {sum}");
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        // Shift invariance (stability): huge logits do not overflow. The
        // quarter-step logits and the power-of-two shift are all exactly
        // representable, so the shifted differences are bit-identical.
        let exact: Vec<f32> = (0..37).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
        let shifted: Vec<f32> = exact.iter().map(|x| x + 512.0).collect();
        let (mut p1, mut p2) = (vec![0.0f32; exact.len()], vec![0.0f32; exact.len()]);
        softmax_slice_into(&exact, &mut p1);
        softmax_slice_into(&shifted, &mut p2);
        assert_eq!(p1, p2, "softmax must be shift-invariant for representable shifts");
        // Two equal logits split evenly.
        let mut half = [0.0f32; 2];
        softmax_slice_into(&[3.0, 3.0], &mut half);
        assert_eq!(half[0], 0.5);
        assert_eq!(half[1], 0.5);
    }

    #[test]
    fn shared_exponential_tracks_libm() {
        for i in -500..=500 {
            let x = i as f32 * 0.17;
            let got = exp_m(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 3e-7, "exp({x}): {got} vs {want} (rel {rel})");
        }
        assert_eq!(exp_m(0.0), 1.0);
        // The input clamp floors very negative arguments at exp(-87.34),
        // the smallest normal magnitude the kernel emits.
        assert!(exp_m(f32::NEG_INFINITY) < 1.3e-38);
    }
}

//! Training-side slice kernels: the backward counterparts of the forward
//! `_into` kernels, routed through the runtime ISA dispatch
//! ([`crate::dispatch`]) like every other hot-path kernel.
//!
//! The contract mirrors the forward side: every kernel is **bit-identical**
//! across tiers and to the allocating [`crate::Tensor`] reference path it
//! replaces. Concretely:
//!
//! * [`transpose_into`] performs the same element movement as
//!   [`crate::Tensor::transpose`] (pure data movement — no arithmetic).
//! * [`relu_backward_into`] multiplies the upstream gradient by the
//!   `if x > 0.0 { 1.0 } else { 0.0 }` mask, exactly like the allocating
//!   `mask.mul(grad)` path (a masked-off negative gradient yields `-0.0`,
//!   which matters for bit-level equivalence).
//! * [`max_pool_backward_into`] routes each output gradient to the window
//!   argmax found by a row-major strict-`>` scan (first maximum wins), the
//!   same order the allocating pool backward uses.
//! * [`outer_accumulate_batch_into`] / [`accumulate_slice_into`] accumulate
//!   with a single product/add per element and sample, in ascending sample
//!   order, matching one `outer` + `add_scaled_inplace(·, 1.0)` per sample
//!   bit for bit (`1.0 * x == x`).
//! * [`cross_entropy_grad_into`] fuses the `probs − one_hot(label)` epilogue
//!   with the per-exit loss weight: `out[j] = probs[j] * w` except
//!   `out[label] = (probs[label] − 1.0) * w`.

use crate::dispatch::{self, tiered, IsaTier};

// ---------------------------------------------------------------------------
// Transpose
// ---------------------------------------------------------------------------

/// Portable body of [`transpose_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn transpose_body(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for i in 0..rows {
        let row = &src[i * cols..(i + 1) * cols];
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// Writes the transpose of the row-major `[rows, cols]` matrix `src` into
/// `dst` (`[cols, rows]`). Pure data movement, so bit-identical to
/// [`crate::Tensor::transpose`] on every tier by construction.
///
/// # Panics
///
/// Panics when a buffer length does not match `rows * cols`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    transpose_into_tier(dispatch::active(), src, rows, cols, dst);
}

/// [`transpose_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`transpose_into`].
pub fn transpose_into_tier(tier: IsaTier, src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src length {} != {rows}x{cols}", src.len());
    assert_eq!(dst.len(), rows * cols, "transpose: dst length {} != {cols}x{rows}", dst.len());
    tiered!(tier, transpose_body(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]));
}

// ---------------------------------------------------------------------------
// ReLU backward
// ---------------------------------------------------------------------------

/// Portable body of [`relu_backward_into`]. The mask is *multiplied*, not
/// selected: `0.0 * g` keeps the sign of `g` in the zero (and propagates
/// NaN), exactly like the allocating `mask.mul(grad_output)` reference.
#[inline(always)]
fn relu_backward_body(pre: &[f32], grad_out: &[f32], dst: &mut [f32]) {
    for ((d, &x), &g) in dst.iter_mut().zip(pre).zip(grad_out) {
        let m = if x > 0.0 { 1.0 } else { 0.0 };
        *d = m * g;
    }
}

/// ReLU backward: `dst[i] = mask(pre[i]) * grad_out[i]` with the
/// `if x > 0.0 { 1.0 } else { 0.0 }` mask over the layer's pre-activation
/// input.
///
/// # Panics
///
/// Panics when the three slice lengths differ.
pub fn relu_backward_into(pre: &[f32], grad_out: &[f32], dst: &mut [f32]) {
    relu_backward_into_tier(dispatch::active(), pre, grad_out, dst);
}

/// [`relu_backward_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`relu_backward_into`].
pub fn relu_backward_into_tier(tier: IsaTier, pre: &[f32], grad_out: &[f32], dst: &mut [f32]) {
    assert_eq!(pre.len(), grad_out.len(), "relu backward: pre/grad lengths differ");
    assert_eq!(pre.len(), dst.len(), "relu backward: pre/dst lengths differ");
    tiered!(
        tier,
        avx2: x86::relu_backward_avx2(pre, grad_out, dst),
        portable: relu_backward_body(pre, grad_out, dst),
    );
}

// ---------------------------------------------------------------------------
// Max-pool backward
// ---------------------------------------------------------------------------

/// Portable body of [`max_pool_backward_into`] (recompiled for AVX2 by the
/// dispatcher). Window scan order is row-major (ascending `dy`, then `dx`)
/// with a strict `>` select, so the *first* maximum receives the gradient —
/// the same argmax the allocating pool backward resolves.
#[inline(always)]
fn max_pool_backward_body(
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    grad_out: &[f32],
    dst: &mut [f32],
) {
    dst.fill(0.0);
    let (oh, ow) = (h / size, w / size);
    for p in 0..planes {
        let plane = &src[p * h * w..(p + 1) * h * w];
        let go_plane = &grad_out[p * oh * ow..(p + 1) * oh * ow];
        let dst_plane = &mut dst[p * h * w..(p + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_pos = 0usize;
                for dy in 0..size {
                    for dx in 0..size {
                        let pos = (oy * size + dy) * w + ox * size + dx;
                        let v = plane[pos];
                        if v > best {
                            best = v;
                            best_pos = pos;
                        }
                    }
                }
                dst_plane[best_pos] += go_plane[oy * ow + ox];
            }
        }
    }
}

/// Max-pool backward over `planes` stacked `[h, w]` planes: zeroes `dst` and
/// routes each pooled gradient to the position of its window's first strict
/// maximum in the saved forward input `src`.
///
/// # Panics
///
/// Panics when `size` is zero, does not divide `h`/`w`, or a buffer length
/// does not match.
pub fn max_pool_backward_into(
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    grad_out: &[f32],
    dst: &mut [f32],
) {
    max_pool_backward_into_tier(dispatch::active(), src, planes, h, w, size, grad_out, dst);
}

/// [`max_pool_backward_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`max_pool_backward_into`].
#[allow(clippy::too_many_arguments)]
pub fn max_pool_backward_into_tier(
    tier: IsaTier,
    src: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    size: usize,
    grad_out: &[f32],
    dst: &mut [f32],
) {
    assert!(size > 0, "pool backward: size must be non-zero");
    assert_eq!(h % size, 0, "pool backward: height {h} not divisible by {size}");
    assert_eq!(w % size, 0, "pool backward: width {w} not divisible by {size}");
    assert_eq!(src.len(), planes * h * w, "pool backward: src length {} mismatch", src.len());
    assert_eq!(dst.len(), planes * h * w, "pool backward: dst length {} mismatch", dst.len());
    assert_eq!(
        grad_out.len(),
        planes * (h / size) * (w / size),
        "pool backward: grad length {} mismatch",
        grad_out.len()
    );
    tiered!(
        tier,
        max_pool_backward_body(
            src: &[f32],
            planes: usize,
            h: usize,
            w: usize,
            size: usize,
            grad_out: &[f32],
            dst: &mut [f32],
        )
    );
}

// ---------------------------------------------------------------------------
// Accumulating outer product / slice accumulate
// ---------------------------------------------------------------------------

/// Rows of a full [`outer_accumulate_batch_into`] tile.
const OA_ROWS: usize = 4;

/// Columns of a full [`outer_accumulate_batch_into`] tile (two 8-lane vectors
/// per row, so the 4×16 tile fills 8 `ymm` registers).
const OA_COLS: usize = 16;

/// `MR` rows × `NR` columns of `acc`, from row `i` and column `jb`: the tile
/// is loaded from `acc` first, takes one rounded product and one add per
/// element for every sample in ascending order while it stays in
/// registers, and is stored once.
#[inline(always)]
fn outer_tile<const MR: usize, const NR: usize>(
    us: &[f32],
    vs: &[f32],
    acc: &mut [f32],
    rows: usize,
    cols: usize,
    i: usize,
    jb: usize,
) {
    let mut tile = [[0.0f32; NR]; MR];
    for (r, t) in tile.iter_mut().enumerate() {
        let off = (i + r) * cols + jb;
        t.copy_from_slice(&acc[off..off + NR]);
    }
    for (u, v) in us.chunks_exact(rows).zip(vs.chunks_exact(cols)) {
        let u: &[f32; MR] = u[i..i + MR].try_into().expect("tile rows");
        let v: &[f32; NR] = v[jb..jb + NR].try_into().expect("tile width");
        for (t, &a) in tile.iter_mut().zip(u) {
            for j in 0..NR {
                t[j] += a * v[j];
            }
        }
    }
    for (r, t) in tile.iter().enumerate() {
        let off = (i + r) * cols + jb;
        acc[off..off + NR].copy_from_slice(t);
    }
}

/// The tiles of the `MR` rows of `acc` from row `i`: 16 columns at a time,
/// then 8, 4 and single columns for the rest of the row.
#[inline(always)]
fn outer_row_tiles<const MR: usize>(
    us: &[f32],
    vs: &[f32],
    acc: &mut [f32],
    rows: usize,
    cols: usize,
    i: usize,
) {
    let mut jb = 0;
    while jb + OA_COLS <= cols {
        outer_tile::<MR, OA_COLS>(us, vs, acc, rows, cols, i, jb);
        jb += OA_COLS;
    }
    if jb + 8 <= cols {
        outer_tile::<MR, 8>(us, vs, acc, rows, cols, i, jb);
        jb += 8;
    }
    if jb + 4 <= cols {
        outer_tile::<MR, 4>(us, vs, acc, rows, cols, i, jb);
        jb += 4;
    }
    for j in jb..cols {
        outer_tile::<MR, 1>(us, vs, acc, rows, cols, i, j);
    }
}

/// Portable body of [`outer_accumulate_batch_into`] (recompiled for AVX2 by
/// the dispatcher). A batch of one runs row by row: a tile pays for its
/// bookkeeping only by reusing its registers across samples, and at batch 1
/// it made LeNet's dense weight gradients up to 2× slower. From two
/// samples on, [`OA_ROWS`]-row tiles, then single rows for the rest.
#[inline(always)]
fn outer_accumulate_body(
    us: &[f32],
    vs: &[f32],
    acc: &mut [f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    if batch == 1 {
        for (row, &a) in acc.chunks_exact_mut(cols).zip(us) {
            for (o, &b) in row.iter_mut().zip(vs) {
                *o += a * b;
            }
        }
        return;
    }
    let mut i = 0;
    while i + OA_ROWS <= rows {
        outer_row_tiles::<OA_ROWS>(us, vs, acc, rows, cols, i);
        i += OA_ROWS;
    }
    for i in i..rows {
        outer_row_tiles::<1>(us, vs, acc, rows, cols, i);
    }
}

/// Accumulates the outer products of `batch` sample pairs into the
/// row-major `[rows, cols]` buffer `acc`:
/// `acc[i·cols + j] += us[s·rows + i] * vs[s·cols + j]` for each sample `s`
/// in ascending order. `us` is `[batch, rows]` and `vs` is `[batch, cols]`,
/// both sample-major.
///
/// Every element takes one rounded product and one add per sample, so the
/// result is bit-identical to `batch` single-sample calls in order, each the
/// allocating `outer` + `add_scaled_inplace(·, 1.0)` dense-layer gradient
/// path. From two samples on, 4×16 tiles of `acc` stay in registers across
/// the whole batch; a batch of one runs row by row.
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn outer_accumulate_batch_into(
    us: &[f32],
    vs: &[f32],
    acc: &mut [f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    outer_accumulate_batch_into_tier(dispatch::active(), us, vs, acc, rows, cols, batch);
}

/// [`outer_accumulate_batch_into`] on an explicitly chosen ISA tier
/// (clamped to the hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`outer_accumulate_batch_into`].
pub fn outer_accumulate_batch_into_tier(
    tier: IsaTier,
    us: &[f32],
    vs: &[f32],
    acc: &mut [f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    assert_eq!(us.len(), batch * rows, "outer: us length {} != {batch}x{rows}", us.len());
    assert_eq!(vs.len(), batch * cols, "outer: vs length {} != {batch}x{cols}", vs.len());
    assert_eq!(acc.len(), rows * cols, "outer: acc length {} != {rows}x{cols}", acc.len());
    if rows == 0 || cols == 0 {
        return;
    }
    tiered!(
        tier,
        outer_accumulate_body(
            us: &[f32],
            vs: &[f32],
            acc: &mut [f32],
            rows: usize,
            cols: usize,
            batch: usize,
        )
    );
}

/// Portable body of [`accumulate_slice_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn accumulate_body(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise accumulate: `dst[i] += src[i]`. The gradient-reduction
/// primitive of the training plans (branch→trunk merges and the
/// per-sample→network gradient flush).
///
/// # Panics
///
/// Panics when the lengths differ.
pub fn accumulate_slice_into(dst: &mut [f32], src: &[f32]) {
    accumulate_slice_into_tier(dispatch::active(), dst, src);
}

/// [`accumulate_slice_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`accumulate_slice_into`].
pub fn accumulate_slice_into_tier(tier: IsaTier, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "accumulate: dst/src lengths differ");
    tiered!(tier, accumulate_body(dst: &mut [f32], src: &[f32]));
}

// ---------------------------------------------------------------------------
// Cross-entropy gradient epilogue
// ---------------------------------------------------------------------------

/// Portable body of [`cross_entropy_grad_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn cross_entropy_grad_body(probs: &[f32], label: usize, weight: f32, out: &mut [f32]) {
    for (o, &p) in out.iter_mut().zip(probs) {
        *o = p * weight;
    }
    out[label] = (probs[label] - 1.0) * weight;
}

/// Weighted cross-entropy gradient at the logits:
/// `out = (softmax_probs − one_hot(label)) · weight`, fused into one sweep.
/// Bit-identical to the allocating clone → `grad[label] -= 1.0` →
/// `scale(weight)` reference (each element sees the same single
/// multiply, and the label element the same subtract-then-multiply).
///
/// # Panics
///
/// Panics when the lengths differ or `label` is out of range.
pub fn cross_entropy_grad_into(probs: &[f32], label: usize, weight: f32, out: &mut [f32]) {
    cross_entropy_grad_into_tier(dispatch::active(), probs, label, weight, out);
}

/// [`cross_entropy_grad_into`] on an explicitly chosen ISA tier (clamped to
/// the hardware).
///
/// # Panics
///
/// Panics under the same conditions as [`cross_entropy_grad_into`].
pub fn cross_entropy_grad_into_tier(
    tier: IsaTier,
    probs: &[f32],
    label: usize,
    weight: f32,
    out: &mut [f32],
) {
    assert_eq!(probs.len(), out.len(), "ce grad: probs/out lengths differ");
    assert!(label < probs.len(), "ce grad: label {label} out of range {}", probs.len());
    tiered!(
        tier,
        cross_entropy_grad_body(probs: &[f32], label: usize, weight: f32, out: &mut [f32])
    );
}

// ---------------------------------------------------------------------------
// AVX2 tier implementations (explicit `core::arch` intrinsics)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Vector mask-multiply: `cmp_gt` builds the same `{1.0, 0.0}` mask as
    /// the scalar select (NaN compares false, exactly like `x > 0.0`), and
    /// the multiply — not a bitwise AND — preserves the `-0.0`/NaN behaviour
    /// of the reference.
    #[target_feature(enable = "avx2")]
    pub(super) fn relu_backward_avx2(pre: &[f32], grad_out: &[f32], dst: &mut [f32]) {
        let (grad_out, dst) = (&grad_out[..pre.len()], &mut dst[..pre.len()]);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let chunks = pre.len() / 8;
        // SAFETY: chunk c covers [8c, 8c+8) with 8c+8 <= len for all three
        // slices, re-sliced to one length above.
        unsafe {
            for c in 0..chunks {
                let x = _mm256_loadu_ps(pre.as_ptr().add(c * 8));
                let g = _mm256_loadu_ps(grad_out.as_ptr().add(c * 8));
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
                let m = _mm256_blendv_ps(zero, one, gt);
                _mm256_storeu_ps(dst.as_mut_ptr().add(c * 8), _mm256_mul_ps(m, g));
            }
        }
        relu_backward_body(&pre[chunks * 8..], &grad_out[chunks * 8..], &mut dst[chunks * 8..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn seq(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + 11) % 23) as f32 * 0.37 - 3.9).collect()
    }

    #[test]
    fn transpose_matches_tensor_transpose() {
        for (r, c) in [(1, 1), (3, 5), (7, 2), (6, 16)] {
            let src = seq(r * c);
            let t = Tensor::from_vec(src.clone(), &[r, c]).unwrap().transpose().unwrap();
            let mut dst = vec![0.0f32; r * c];
            transpose_into(&src, r, c, &mut dst);
            assert_eq!(dst, t.as_slice());
        }
    }

    #[test]
    fn relu_backward_matches_mask_mul_including_signed_zero() {
        let pre = [1.0, -2.0, 0.0, -0.0, 3.5, f32::NAN];
        let go = [2.0, -3.0, -4.0, 5.0, -1.0, 1.0];
        let mut dst = [0.0f32; 6];
        relu_backward_into(&pre, &go, &mut dst);
        let mask =
            Tensor::from_vec(pre.to_vec(), &[6]).unwrap().map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        let reference = mask.mul(&Tensor::from_vec(go.to_vec(), &[6]).unwrap()).unwrap();
        for (a, b) in dst.iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Masked-off negative gradient must produce -0.0, not +0.0.
        assert_eq!(dst[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn max_pool_backward_routes_to_first_strict_max() {
        // Window [[1, 4], [4, 2]]: the first 4 (row 0, col 1) wins the tie.
        let src = [1.0, 4.0, 4.0, 2.0];
        let go = [10.0];
        let mut dst = [9.0f32; 4];
        max_pool_backward_into(&src, 1, 2, 2, 2, &go, &mut dst);
        assert_eq!(dst, [0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn outer_and_slice_accumulate_add_on_top() {
        let u = [2.0, -1.0];
        let v = [3.0, 0.5, 1.0];
        let mut acc = vec![1.0f32; 6];
        outer_accumulate_batch_into(&u, &v, &mut acc, 2, 3, 1);
        assert_eq!(acc, [7.0, 2.0, 3.0, -2.0, 0.5, 0.0]);
        // A second sample adds on top of the first.
        outer_accumulate_batch_into(&[u, [1.0, 0.0]].concat(), &[v, v].concat(), &mut acc, 2, 3, 2);
        assert_eq!(acc, [16.0, 3.5, 6.0, -5.0, 0.0, -1.0]);
        let mut dst = vec![1.0f32, 2.0];
        accumulate_slice_into(&mut dst, &[0.5, -2.0]);
        assert_eq!(dst, [1.5, 0.0]);
    }

    #[test]
    fn cross_entropy_grad_matches_reference_epilogue() {
        let probs = [0.2f32, 0.5, 0.3];
        let mut out = [0.0f32; 3];
        cross_entropy_grad_into(&probs, 1, 0.25, &mut out);
        let mut reference = Tensor::from_vec(probs.to_vec(), &[3]).unwrap();
        reference.as_mut_slice()[1] -= 1.0;
        let reference = reference.scale(0.25);
        for (a, b) in out.iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_grad_rejects_bad_label() {
        let mut out = [0.0f32; 2];
        cross_entropy_grad_into(&[0.5, 0.5], 2, 1.0, &mut out);
    }
}

//! Matrix multiplication and vector products.
//!
//! The heavy kernels are exposed in two layers:
//!
//! * slice-level out-parameter kernels ([`gemm_into`], [`gemm_sparse_into`],
//!   [`matvec_into`]) that never allocate — these are what the execution-plan
//!   hot path in `ie_nn` drives against reusable [`crate::Workspace`] buffers;
//! * the allocating [`Tensor`] methods ([`Tensor::matmul`],
//!   [`Tensor::matvec`], …), which are thin wrappers that allocate the output
//!   once and delegate to the same kernels, so both paths produce bit-identical
//!   results.
//!
//! Every kernel is routed through the runtime ISA dispatch
//! ([`crate::dispatch`]): the portable tier is the safe-Rust implementation
//! below, the AVX2 tier recompiles the same register-tiled bodies with AVX2
//! enabled (8-lane `f32` vectors) — same scalar semantics, same accumulation
//! order, so results are bit-identical across tiers — and the sparse GEMM's
//! inner axpy additionally has an explicit-intrinsics AVX2 implementation
//! (separate multiply and add; no FMA contraction on any tier).
//!
//! The dense GEMM is cache-blocked (column panels of `B`, depth blocks of the
//! shared dimension) and register-tiled (6 rows of `A` per pass so each loaded
//! `B` element feeds 6 independent multiply–accumulate streams — 12 of the 16
//! AVX2 `ymm` registers hold accumulators). Per output element the
//! contributions are still accumulated in ascending order of the shared
//! dimension, exactly like the naive triple loop, so neither the blocking nor
//! the tile depth changes a single bit of the result for finite inputs.

use crate::dispatch::{self, IsaTier};
use crate::{Result, Tensor, TensorError};

/// Rows of `A` processed together by the register-tiled micro-kernel.
const GEMM_MR: usize = 6;
/// Columns of `B` covered by one register tile (two 8-lane vectors).
const GEMM_NR: usize = 16;
/// Depth (shared dimension) block size; bounds the `B` working set of one
/// column tile to `GEMM_KC · GEMM_NR` floats (16 KB), which fits L1.
const GEMM_KC: usize = 256;

fn check_gemm_lens(a: &[f32], b: &[f32], out: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "gemm: lhs buffer length {} != {m}x{k}", a.len());
    assert_eq!(b.len(), k * n, "gemm: rhs buffer length {} != {k}x{n}", b.len());
    assert_eq!(out.len(), m * n, "gemm: out buffer length {} != {m}x{n}", out.len());
}

/// 6×16 register micro-kernel: accumulates rows `i..i+6`, columns
/// `jb..jb+16` of the product over the depth range `kb..kend`.
///
/// `panel` holds the `B` column panel for that range: depth index `p` reads
/// `panel[(p - kb) * panel_stride ..][..16]` — either a view straight into
/// `B` (`panel_stride == n`) or a packed contiguous copy
/// (`panel_stride == GEMM_NR`).
///
/// The accumulators are *loaded from* and *stored back to* `out`, so across
/// depth blocks every output element still receives its contributions in
/// ascending depth order — bit-identical to the naive triple loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_6x16(
    a: &[f32],
    panel: &[f32],
    panel_stride: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
    kb: usize,
    kend: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
    if kb > 0 {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let row = (i + r) * n + jb;
            acc_row.copy_from_slice(&out[row..row + GEMM_NR]);
        }
    }
    let rows: [&[f32]; GEMM_MR] = core::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    for p in kb..kend {
        let off = (p - kb) * panel_stride;
        let brow: &[f32; GEMM_NR] = panel[off..off + GEMM_NR].try_into().expect("tile width");
        for (acc_row, arow) in acc.iter_mut().zip(&rows) {
            let v = arow[p];
            for t in 0..GEMM_NR {
                acc_row[t] += v * brow[t];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let row = (i + r) * n + jb;
        out[row..row + GEMM_NR].copy_from_slice(acc_row);
    }
}

/// 1×16 register micro-kernel for the row remainder (`m % 6` rows); `panel`
/// addresses `B` exactly as in [`gemm_tile_6x16`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_1x16(
    a: &[f32],
    panel: &[f32],
    panel_stride: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
    kb: usize,
    kend: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [0.0f32; GEMM_NR];
    if kb > 0 {
        acc.copy_from_slice(&out[i * n + jb..i * n + jb + GEMM_NR]);
    }
    let arow = &a[i * k..(i + 1) * k];
    for (step, &v) in arow[kb..kend].iter().enumerate() {
        let off = step * panel_stride;
        let brow: &[f32; GEMM_NR] = panel[off..off + GEMM_NR].try_into().expect("tile width");
        for t in 0..GEMM_NR {
            acc[t] += v * brow[t];
        }
    }
    out[i * n + jb..i * n + jb + GEMM_NR].copy_from_slice(&acc);
}

/// Row tiles that must share one column panel before packing it pays for
/// itself (the packed copy is amortized across the row-tile sweep).
const GEMM_PACK_MIN_TILES: usize = 2;

/// Accumulates `A·B` into `out`, which the caller must have zeroed.
///
/// This body is compiled twice: once at the baseline feature level (the
/// portable tier) and once inside an `#[target_feature(enable = "avx2")]`
/// wrapper, where LLVM autovectorizes the same loops with 8-lane vectors.
/// Identical source, identical per-element operation order — bit-identical
/// output.
#[inline(always)]
fn gemm_accumulate_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let n_main = n - n % GEMM_NR;
    // One column panel of `B` (`GEMM_KC x GEMM_NR`, 16 KB), packed contiguous
    // on the stack. For wide matrices — exactly what batched inference
    // produces — the panel rows sit `n` floats apart, so reading them once
    // into a dense panel turns every row-tile pass into contiguous L1
    // streaming. Packing only moves values; each tile still accumulates in
    // ascending depth order, so results stay bit-identical. With a single
    // row-tile sweep (or when the panel view is already the whole of `B`)
    // the copy cannot be amortized and the kernels read `B` in place — in
    // that case the buffer is never materialized, so small GEMMs skip its
    // 16 KB zero-fill entirely.
    let pack = m >= GEMM_PACK_MIN_TILES * GEMM_MR && n > GEMM_NR;
    let mut packed = if pack { Some([0.0f32; GEMM_KC * GEMM_NR]) } else { None };
    for kb in (0..k).step_by(GEMM_KC) {
        let kend = (kb + GEMM_KC).min(k);
        for jb in (0..n_main).step_by(GEMM_NR) {
            let (panel, panel_stride): (&[f32], usize) = if let Some(packed) = packed.as_mut() {
                for (p, row) in (kb..kend).zip(packed.chunks_exact_mut(GEMM_NR)) {
                    row.copy_from_slice(&b[p * n + jb..p * n + jb + GEMM_NR]);
                }
                (&packed[..], GEMM_NR)
            } else {
                (&b[kb * n + jb..], n)
            };
            let mut i = 0;
            while i + GEMM_MR <= m {
                gemm_tile_6x16(a, panel, panel_stride, out, i, jb, kb, kend, k, n);
                i += GEMM_MR;
            }
            while i < m {
                gemm_tile_1x16(a, panel, panel_stride, out, i, jb, kb, kend, k, n);
                i += 1;
            }
        }
        // Column remainder (n % 16): plain row-major accumulation in the same
        // ascending-depth order.
        if n_main < n {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + n_main..(i + 1) * n];
                for p in kb..kend {
                    let v = arow[p];
                    let brow = &b[p * n + n_main..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += v * bv;
                    }
                }
            }
        }
    }
}

/// The portable body of the sparsity-aware GEMM (see [`gemm_sparse_into`]).
#[inline(always)]
fn gemm_sparse_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// AVX2 tier implementations. The GEMM and matvec wrappers recompile the
/// shared portable bodies with AVX2 enabled; the sparse axpy is written with
/// explicit intrinsics (broadcast + separate multiply and add per 8-lane
/// chunk — the exact scalar operation sequence, so results match bit for
/// bit).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Runs the AVX2 dense accumulation when the clamped tier allows it;
    /// returns `false` when the caller should take the portable path. Safe:
    /// the feature check sits right next to the `unsafe` call it justifies.
    pub(super) fn try_gemm_accumulate(
        tier: IsaTier,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { gemm_accumulate_avx2(a, b, out, m, k, n) };
        true
    }

    /// AVX2 sparse GEMM attempt; see [`try_gemm_accumulate`].
    pub(super) fn try_gemm_sparse(
        tier: IsaTier,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { gemm_sparse_avx2(a, b, out, m, k, n) };
        true
    }

    /// AVX2 matvec attempt; see [`try_gemm_accumulate`].
    pub(super) fn try_matvec(
        tier: IsaTier,
        a: &[f32],
        x: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { matvec_avx2(a, x, out, m, k) };
        true
    }

    /// AVX2 batched matvec attempt; see [`try_gemm_accumulate`].
    pub(super) fn try_matvec_batch(
        tier: IsaTier,
        a: &[f32],
        xs: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        batch: usize,
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { matvec_batch_f32_avx2(a, xs, out, m, k, batch) };
        true
    }

    /// AVX2 transposed matvec attempt; see [`try_gemm_accumulate`].
    pub(super) fn try_matvec_t(
        tier: IsaTier,
        a: &[f32],
        x: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) -> bool {
        if dispatch::clamp(tier) < IsaTier::Avx2 {
            return false;
        }
        // SAFETY: `clamp` only returns Avx2 or above when AVX2 is detected.
        unsafe { matvec_t_avx2(a, x, out, m, k) };
        true
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_t_avx2(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
        matvec_t_body(a, x, out, m, k);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_accumulate_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_accumulate_body(a, b, out, m, k, n);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_avx2(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
        matvec_body(a, x, out, m, k);
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported.
    #[target_feature(enable = "avx2")]
    unsafe fn matvec_batch_f32_avx2(
        a: &[f32],
        xs: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        batch: usize,
    ) {
        matvec_batch_body(a, xs, out, m, k, batch);
    }

    /// Sparsity-aware GEMM with the inner axpy in explicit 8-lane AVX2:
    /// `orow[j] += av · brow[j]` as a broadcast, a multiply and an add —
    /// two individually rounded operations per element, exactly like the
    /// scalar kernel (no FMA).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is supported. Buffer lengths are validated by
    /// the dispatching wrapper.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_sparse_avx2(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // Four independent 8-lane streams per step (32 floats): matches the
        // unroll depth LLVM picks for the portable body, so the explicit
        // kernel never falls behind it.
        let blocks = n / 32;
        let chunks = n / 8;
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let vav = _mm256_set1_ps(av);
                // SAFETY: block t covers [32t, 32t+32) and chunk c covers
                // [8c, 8c+8), both bounded by n — in bounds of `brow` and
                // `orow` (each n long).
                unsafe {
                    for t in 0..blocks {
                        let bp = brow.as_ptr().add(t * 32);
                        let op = orow.as_mut_ptr().add(t * 32);
                        let p0 = _mm256_mul_ps(vav, _mm256_loadu_ps(bp));
                        let p1 = _mm256_mul_ps(vav, _mm256_loadu_ps(bp.add(8)));
                        let p2 = _mm256_mul_ps(vav, _mm256_loadu_ps(bp.add(16)));
                        let p3 = _mm256_mul_ps(vav, _mm256_loadu_ps(bp.add(24)));
                        _mm256_storeu_ps(op, _mm256_add_ps(_mm256_loadu_ps(op), p0));
                        _mm256_storeu_ps(op.add(8), _mm256_add_ps(_mm256_loadu_ps(op.add(8)), p1));
                        _mm256_storeu_ps(
                            op.add(16),
                            _mm256_add_ps(_mm256_loadu_ps(op.add(16)), p2),
                        );
                        _mm256_storeu_ps(
                            op.add(24),
                            _mm256_add_ps(_mm256_loadu_ps(op.add(24)), p3),
                        );
                    }
                    for c in blocks * 4..chunks {
                        let bp = brow.as_ptr().add(c * 8);
                        let op = orow.as_mut_ptr().add(c * 8);
                        let prod = _mm256_mul_ps(vav, _mm256_loadu_ps(bp));
                        _mm256_storeu_ps(op, _mm256_add_ps(_mm256_loadu_ps(op), prod));
                    }
                }
                for j in chunks * 8..n {
                    orow[j] += av * brow[j];
                }
            }
        }
    }
}

/// Dispatches the dense accumulation to the requested (hardware-clamped)
/// tier. The VNNI tier has no dedicated `f32` GEMM — it runs the AVX2 one.
fn gemm_accumulate_tier(
    tier: IsaTier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if x86::try_gemm_accumulate(tier, a, b, out, m, k, n) {
        return;
    }
    let _ = tier;
    gemm_accumulate_body(a, b, out, m, k, n);
}

/// Dense blocked GEMM: writes `A·B` into `out` without allocating.
///
/// `a` is `[m, k]`, `b` is `[k, n]` and `out` is `[m, n]`, all row-major.
/// The inner loop is an unconditional multiply–accumulate — no per-element
/// zero test — which is what dense (unpruned) weights want. Dispatched to the
/// active ISA tier; every tier is bit-identical (see [`crate::dispatch`]).
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`k`/`n` dimensions.
pub fn gemm_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into_tier(dispatch::active(), a, b, out, m, k, n);
}

/// [`gemm_into`] on an explicitly chosen ISA tier (clamped to the hardware) —
/// the entry point the tier-equivalence tests and kernel benchmarks drive.
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`k`/`n` dimensions.
pub fn gemm_into_tier(
    tier: IsaTier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_gemm_lens(a, b, out, m, k, n);
    out.fill(0.0);
    gemm_accumulate_tier(tier, a, b, out, m, k, n);
}

/// Sparsity-aware GEMM: like [`gemm_into`] but skips the whole `B`-row
/// contribution whenever the corresponding `A` element is exactly zero.
///
/// Channel pruning zeroes large contiguous runs of the filter matrix, so on
/// pruned weights the skip pays for its branch many times over; on dense
/// weights it is a pure branch-misprediction tax, which is why the dense path
/// uses [`gemm_into`] instead. For finite inputs both kernels produce
/// identical sums (a skipped term contributes exactly `±0.0`). The surviving
/// rows' axpy runs 8 lanes wide on the AVX2 tier (explicit intrinsics,
/// bit-identical to the portable loop).
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`k`/`n` dimensions.
pub fn gemm_sparse_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_sparse_into_tier(dispatch::active(), a, b, out, m, k, n);
}

/// [`gemm_sparse_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its `m`/`k`/`n` dimensions.
pub fn gemm_sparse_into_tier(
    tier: IsaTier,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    check_gemm_lens(a, b, out, m, k, n);
    out.fill(0.0);
    #[cfg(target_arch = "x86_64")]
    if x86::try_gemm_sparse(tier, a, b, out, m, k, n) {
        return;
    }
    let _ = tier;
    gemm_sparse_body(a, b, out, m, k, n);
}

/// Lanes of the vectorised dot product.
const DOT_LANES: usize = 8;

/// Dot product with eight parallel accumulator lanes and a fixed reduction
/// tree. The lane split lets LLVM vectorise the reduction (a strictly
/// sequential float sum cannot be vectorised without reassociation); the
/// reduction order is a deterministic function of the length only, so results
/// are reproducible across runs and identical for every caller and tier.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    for c in 0..chunks {
        let av: &[f32; DOT_LANES] =
            a[c * DOT_LANES..(c + 1) * DOT_LANES].try_into().expect("lane width");
        let bv: &[f32; DOT_LANES] =
            b[c * DOT_LANES..(c + 1) * DOT_LANES].try_into().expect("lane width");
        for t in 0..DOT_LANES {
            acc[t] += av[t] * bv[t];
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for i in chunks * DOT_LANES..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Portable body of [`matvec_into`] (recompiled for AVX2 by the dispatcher).
#[inline(always)]
fn matvec_body(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
    let _ = m;
    for (o, row) in out.iter_mut().zip(a.chunks_exact(k)) {
        *o = dot_lanes(row, x);
    }
}

/// Portable body of [`matvec_batch_into`].
#[inline(always)]
fn matvec_batch_body(a: &[f32], xs: &[f32], out: &mut [f32], m: usize, k: usize, batch: usize) {
    for (i, row) in a.chunks_exact(k).enumerate() {
        for s in 0..batch {
            out[s * m + i] = dot_lanes(row, &xs[s * k..(s + 1) * k]);
        }
    }
}

/// Matrix–vector product into a caller-provided buffer: `a` is `[m, k]`, `x`
/// has `k` elements, `out` has `m` elements. Never allocates.
///
/// Uses the lane-parallel dot product (`dot_lanes`): deterministic, but the
/// summation order differs from a strictly sequential fold.
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_into(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
    matvec_into_tier(dispatch::active(), a, x, out, m, k);
}

/// [`matvec_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_into_tier(tier: IsaTier, a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
    assert_eq!(a.len(), m * k, "matvec: matrix buffer length {} != {m}x{k}", a.len());
    assert_eq!(x.len(), k, "matvec: vector length {} != {k}", x.len());
    assert_eq!(out.len(), m, "matvec: out length {} != {m}", out.len());
    if k == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::try_matvec(tier, a, x, out, m, k) {
        return;
    }
    let _ = tier;
    matvec_body(a, x, out, m, k);
}

/// Batched matrix–vector product: one shared `[m, k]` matrix against `batch`
/// input vectors. `xs` holds the vectors sample-major (`[batch, k]`), `out`
/// receives the products sample-major (`[batch, m]`). Never allocates.
///
/// Each `(row, sample)` dot product runs through the same lane-parallel
/// kernel as [`matvec_into`], so every sample's result is bit-identical to a
/// separate `matvec_into` call. The loop is row-major over the matrix with
/// the samples innermost: each matrix row is streamed from memory once per
/// batch instead of once per sample, which is where batched dense layers win.
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_batch_into(a: &[f32], xs: &[f32], out: &mut [f32], m: usize, k: usize, batch: usize) {
    matvec_batch_into_tier(dispatch::active(), a, xs, out, m, k, batch);
}

/// [`matvec_batch_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_batch_into_tier(
    tier: IsaTier,
    a: &[f32],
    xs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    batch: usize,
) {
    assert_eq!(a.len(), m * k, "matvec_batch: matrix buffer length {} != {m}x{k}", a.len());
    assert_eq!(xs.len(), batch * k, "matvec_batch: vectors length {} != {batch}x{k}", xs.len());
    assert_eq!(out.len(), batch * m, "matvec_batch: out length {} != {batch}x{m}", out.len());
    if k == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::try_matvec_batch(tier, a, xs, out, m, k, batch) {
        return;
    }
    let _ = tier;
    matvec_batch_body(a, xs, out, m, k, batch);
}

/// Output rows [`matvec_t_into`] processes per pass (8 lane-partials of this
/// width live on the stack: 2 KB).
const MT_BLOCK: usize = 64;

/// Portable body of [`matvec_t_into`]: for every output column block it
/// replays [`dot_lanes`] on the *columns* of `a` — lane `t` accumulates depth
/// indices `p ≡ t (mod 8)` in ascending order, the lanes combine through the
/// identical fixed reduction tree, and the `k % 8` tail folds in afterwards —
/// so each output element is bit-for-bit `dot_lanes(column, x)` without ever
/// materializing the transposed matrix.
#[inline(always)]
fn matvec_t_body(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
    let chunks = k / DOT_LANES;
    let mut ib = 0usize;
    while ib < m {
        let bw = MT_BLOCK.min(m - ib);
        let mut acc = [[0.0f32; MT_BLOCK]; DOT_LANES];
        for c in 0..chunks {
            for (t, lane) in acc.iter_mut().enumerate() {
                let p = c * DOT_LANES + t;
                let xv = x[p];
                let arow = &a[p * m + ib..p * m + ib + bw];
                for (o, &av) in lane[..bw].iter_mut().zip(arow) {
                    *o += xv * av;
                }
            }
        }
        let orow = &mut out[ib..ib + bw];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = ((acc[0][j] + acc[4][j]) + (acc[2][j] + acc[6][j]))
                + ((acc[1][j] + acc[5][j]) + (acc[3][j] + acc[7][j]));
        }
        for p in chunks * DOT_LANES..k {
            let xv = x[p];
            let arow = &a[p * m + ib..p * m + ib + bw];
            for (o, &av) in orow.iter_mut().zip(arow) {
                *o += xv * av;
            }
        }
        ib += bw;
    }
}

/// Transposed matrix–vector product: writes `Aᵀ·x` into `out` without
/// materializing the transpose. `a` is `[k, m]` row-major, `x` has `k`
/// elements and `out` has `m`. Never allocates.
///
/// Each output element reproduces [`matvec_into`]'s lane-parallel dot product
/// (same lane assignment, same reduction tree, same tail order) on the
/// corresponding column of `a` — bit-identical to
/// [`transpose_into`](crate::transpose_into) + [`matvec_into`], minus the
/// transposed copy. This is what the training plans use for the dense
/// input-gradient product `dx = Wᵀ·g`.
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_t_into(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
    matvec_t_into_tier(dispatch::active(), a, x, out, m, k);
}

/// [`matvec_t_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_t_into_tier(
    tier: IsaTier,
    a: &[f32],
    x: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
) {
    assert_eq!(a.len(), k * m, "matvec_t: matrix buffer length {} != {k}x{m}", a.len());
    assert_eq!(x.len(), k, "matvec_t: vector length {} != {k}", x.len());
    assert_eq!(out.len(), m, "matvec_t: out length {} != {m}", out.len());
    if k == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if x86::try_matvec_t(tier, a, x, out, m, k) {
        return;
    }
    let _ = tier;
    matvec_t_body(a, x, out, m, k);
}

impl Tensor {
    fn check_matmul(&self, other: &Tensor) -> Result<(usize, usize, usize)> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        if other.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: other.shape().rank() });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: k2 });
        }
        Ok((m, k, n))
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// Allocates the result once and delegates to the dense blocked kernel
    /// ([`gemm_into`]); use [`Tensor::matmul_into`] to reuse an output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not a
    /// matrix and [`TensorError::MatmulDimMismatch`] when the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = self.check_matmul(other)?;
        let mut out = vec![0.0f32; m * n];
        gemm_accumulate_tier(
            dispatch::active(),
            self.as_slice(),
            other.as_slice(),
            &mut out,
            m,
            k,
            n,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product written into `out`, which must already be `[m, n]`.
    ///
    /// Bit-identical to [`Tensor::matmul`]; allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns shape errors as [`Tensor::matmul`] does, plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k, n) = self.check_matmul(other)?;
        if out.dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                left: out.dims().to_vec(),
                right: vec![m, n],
            });
        }
        gemm_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), m, k, n);
        Ok(())
    }

    /// Matrix product that skips zero elements of `self` (see
    /// [`gemm_sparse_into`]). Intended for the pruned-weight path, where
    /// channel pruning has zeroed large runs of the left operand; on dense
    /// operands prefer [`Tensor::matmul`]. Agrees with [`Tensor::matmul`] on
    /// all finite inputs.
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`Tensor::matmul`].
    pub fn matmul_sparse_aware(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = self.check_matmul(other)?;
        let mut out = Tensor::zeros(&[m, n]);
        gemm_sparse_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), m, k, n);
        Ok(out)
    }

    fn check_matvec(&self, vec: &Tensor) -> Result<(usize, usize)> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch { expected: 2, actual: self.shape().rank() });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        if vec.len() != k {
            return Err(TensorError::MatmulDimMismatch { left_cols: k, right_rows: vec.len() });
        }
        Ok((m, k))
    }

    /// Matrix–vector product: `self` must be `[m, k]`, `vec` must have `k`
    /// elements; the result has `m` elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::MatmulDimMismatch`] on incompatible shapes.
    pub fn matvec(&self, vec: &Tensor) -> Result<Tensor> {
        let (m, k) = self.check_matvec(vec)?;
        let mut out = Tensor::zeros(&[m]);
        matvec_into(self.as_slice(), vec.as_slice(), out.as_mut_slice(), m, k);
        Ok(out)
    }

    /// Matrix–vector product written into `out`, which must have `m` elements.
    ///
    /// Bit-identical to [`Tensor::matvec`]; allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`Tensor::matvec`], plus
    /// [`TensorError::ShapeMismatch`] when `out` has the wrong length.
    pub fn matvec_into(&self, vec: &Tensor, out: &mut Tensor) -> Result<()> {
        let (m, k) = self.check_matvec(vec)?;
        if out.len() != m {
            return Err(TensorError::ShapeMismatch { left: out.dims().to_vec(), right: vec![m] });
        }
        matvec_into(self.as_slice(), vec.as_slice(), out.as_mut_slice(), m, k);
        Ok(())
    }

    /// Dot product of two equally sized tensors (flattened).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| a * b).sum())
    }

    /// Outer product of two vectors: result is `[self.len(), other.len()]`.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        let m = self.len();
        let n = other.len();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a = self.as_slice()[i];
            for j in 0..n {
                out[i * n + j] = a * other.as_slice()[j];
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("outer product shape is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.0], &[2, 2]).unwrap();
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn matmul_into_matches_matmul_and_validates_out() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn(&mut rng, &[7, 9], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, &[9, 11], 0.0, 1.0);
        let reference = a.matmul(&b).unwrap();
        let mut out = Tensor::zeros(&[7, 11]);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, reference);
        let mut wrong = Tensor::zeros(&[7, 10]);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
    }

    #[test]
    fn sparse_aware_matmul_agrees_with_dense_on_pruned_weights() {
        // A pruned-looking matrix: whole input-channel blocks zeroed, exactly
        // what channel pruning produces. Dense and sparse-aware kernels must
        // agree bit for bit.
        let mut rng = StdRng::seed_from_u64(6);
        let mut a = Tensor::randn(&mut rng, &[6, 20], 0.0, 1.0);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if (i / 5) % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&mut rng, &[20, 13], 0.0, 1.0);
        let dense = a.matmul(&b).unwrap();
        let sparse = a.matmul_sparse_aware(&b).unwrap();
        assert_eq!(dense.dims(), sparse.dims());
        assert_eq!(dense.as_slice(), sparse.as_slice());
    }

    #[test]
    fn blocked_gemm_handles_sizes_around_the_block_boundaries() {
        // Exercise the register-tile remainder (m % 6 != 0) and panel edges.
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (4, 128, 256),
            (5, 129, 257),
            (6, 64, 64),
            (7, 33, 48),
            (8, 260, 300),
            (13, 70, 100),
        ] {
            let a = Tensor::randn(&mut rng, &[m, k], 0.0, 1.0);
            let b = Tensor::randn(&mut rng, &[k, n], 0.0, 1.0);
            let blocked = a.matmul(&b).unwrap();
            // Naive reference computed with the same accumulation order.
            let (av, bv) = (a.as_slice(), b.as_slice());
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    for j in 0..n {
                        naive[i * n + j] += av[i * k + p] * bv[p * n + j];
                    }
                }
            }
            assert_eq!(blocked.as_slice(), &naive[..], "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let y = a.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
        let mut out = Tensor::zeros(&[2]);
        a.matvec_into(&x, &mut out).unwrap();
        assert_eq!(out.as_slice(), y.as_slice());
        let mut wrong = Tensor::zeros(&[3]);
        assert!(a.matvec_into(&x, &mut wrong).is_err());
    }

    #[test]
    fn batched_matvec_is_bit_identical_to_per_sample_matvec() {
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, batch) in [(1, 1, 1), (5, 17, 3), (8, 64, 8), (3, 9, 16)] {
            let a = Tensor::randn(&mut rng, &[m, k], 0.0, 1.0);
            let xs = Tensor::randn(&mut rng, &[batch, k], 0.0, 1.0);
            let mut batched = vec![0.0f32; batch * m];
            matvec_batch_into(a.as_slice(), xs.as_slice(), &mut batched, m, k, batch);
            for s in 0..batch {
                let mut single = vec![0.0f32; m];
                matvec_into(a.as_slice(), &xs.as_slice()[s * k..(s + 1) * k], &mut single, m, k);
                assert_eq!(
                    batched[s * m..(s + 1) * m].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "sample {s} of {m}x{k} batch {batch}"
                );
            }
        }
        // k == 0 zero-fills like matvec_into.
        let mut out = vec![1.0f32; 4];
        matvec_batch_into(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn transposed_matvec_is_bit_identical_to_transpose_then_matvec() {
        let mut rng = StdRng::seed_from_u64(22);
        // Exercise the lane tail (k % 8 != 0) and the MT_BLOCK row remainder.
        for (m, k) in [(1, 1), (3, 9), (64, 64), (65, 8), (512, 128), (100, 70), (130, 257)] {
            let a = Tensor::randn(&mut rng, &[k, m], 0.0, 1.0);
            let x = Tensor::randn(&mut rng, &[k], 0.0, 1.0);
            let mut at = vec![0.0f32; k * m];
            crate::transpose_into(a.as_slice(), k, m, &mut at);
            let mut reference = vec![0.0f32; m];
            matvec_into(&at, x.as_slice(), &mut reference, m, k);
            let mut out = vec![f32::NAN; m];
            matvec_t_into(a.as_slice(), x.as_slice(), &mut out, m, k);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape {m}x{k}"
            );
        }
        // k == 0 zero-fills like matvec_into.
        let mut out = vec![1.0f32; 4];
        matvec_t_into(&[], &[], &mut out, 4, 0);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn dot_and_outer() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        let o = a.outer(&b);
        assert_eq!(o.dims(), &[2, 2]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.dot(&c).is_err());
    }
}

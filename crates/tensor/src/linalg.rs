//! Matrix multiplication and vector products.
//!
//! The heavy kernels are exposed in two layers:
//!
//! * slice-level out-parameter kernels ([`gemm_into`], [`matvec_batch_into`])
//!   that never allocate — these are what the execution-plan hot path in
//!   `ie_nn` drives against its own pre-sized buffers; a single vector is a
//!   batch of one;
//! * the allocating [`Tensor`] methods ([`Tensor::matmul`],
//!   [`Tensor::matvec`], …), which are thin wrappers that allocate the output
//!   once and delegate to the same kernels, so both paths produce bit-identical
//!   results.
//!
//! Every kernel is routed through the runtime ISA dispatch
//! ([`crate::dispatch`]): the portable tier is the safe-Rust implementation
//! below, the AVX2 tier recompiles the same register-tiled bodies with AVX2
//! enabled (8-lane `f32` vectors) — same scalar semantics, same accumulation
//! order, so results are bit-identical across tiers (separate multiply and
//! add; no FMA contraction on any tier).
//!
//! The dense GEMM is cache-blocked (column panels of `B`, depth blocks of the
//! shared dimension) and register-tiled (6 rows of `A` per pass so each loaded
//! `B` element feeds 6 independent multiply–accumulate streams — 12 of the 16
//! AVX2 `ymm` registers hold accumulators). The last `n % 16` columns run the
//! same tiles over a zero-padded copy of their panel, storing only the valid
//! columns. Per output element the contributions are still accumulated in
//! ascending order of the shared dimension, exactly like the naive triple
//! loop, so neither the blocking, the tile depth nor the padding changes a
//! single bit of the result for finite inputs.

use crate::dispatch::{self, tiered, IsaTier};
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
/// `jb..jb+cols` of the product over the depth range `kb..kend`.
///
/// `panel` holds the `B` column panel for that range: depth index `p` reads
/// `panel[(p - kb) * panel_stride ..][..16]` — either a view straight into
/// `B` (`panel_stride == n`) or a packed contiguous copy
/// (`panel_stride == GEMM_NR`). All 16 lanes compute; only the first `cols`
/// (16, or `n % 16` for the zero-padded last panel) are loaded from and
/// stored to `out`, so a padding lane never reaches the result.
///
/// The accumulators are *loaded from* and *stored back to* `out`, so across
/// depth blocks every output element still receives its contributions in
/// ascending depth order — bit-identical to the naive triple loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_6x16<const FULL: bool>(
    a: &[f32],
    panel: &[f32],
    panel_stride: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
    cols: usize,
    kb: usize,
    kend: usize,
    k: usize,
    n: usize,
) {
    let cols = if FULL { GEMM_NR } else { cols };
    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
    if kb > 0 {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let row = (i + r) * n + jb;
            acc_row[..cols].copy_from_slice(&out[row..row + cols]);
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
        out[row..row + cols].copy_from_slice(&acc_row[..cols]);
    }
}

/// 1×16 register micro-kernel for the row remainder (`m % 6` rows); `panel`
/// and `cols` address `B` and `out` exactly as in [`gemm_tile_6x16`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tile_1x16<const FULL: bool>(
    a: &[f32],
    panel: &[f32],
    panel_stride: usize,
    out: &mut [f32],
    i: usize,
    jb: usize,
    cols: usize,
    kb: usize,
    kend: usize,
    k: usize,
    n: usize,
) {
    let cols = if FULL { GEMM_NR } else { cols };
    let mut acc = [0.0f32; GEMM_NR];
    if kb > 0 {
        acc[..cols].copy_from_slice(&out[i * n + jb..i * n + jb + cols]);
    }
    let arow = &a[i * k..(i + 1) * k];
    for (step, &v) in arow[kb..kend].iter().enumerate() {
        let off = step * panel_stride;
        let brow: &[f32; GEMM_NR] = panel[off..off + GEMM_NR].try_into().expect("tile width");
        for t in 0..GEMM_NR {
            acc[t] += v * brow[t];
        }
    }
    out[i * n + jb..i * n + jb + cols].copy_from_slice(&acc[..cols]);
}

/// Runs the row tiles of one column panel: 6-row tiles, then single rows
/// for the `m % 6` remainder. `FULL` panels store all 16 columns; the last,
/// zero-padded panel stores its first `cols`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_panel<const FULL: bool>(
    a: &[f32],
    panel: &[f32],
    panel_stride: usize,
    out: &mut [f32],
    jb: usize,
    cols: usize,
    kb: usize,
    kend: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + GEMM_MR <= m {
        gemm_tile_6x16::<FULL>(a, panel, panel_stride, out, i, jb, cols, kb, kend, k, n);
        i += GEMM_MR;
    }
    while i < m {
        gemm_tile_1x16::<FULL>(a, panel, panel_stride, out, i, jb, cols, kb, kend, k, n);
        i += 1;
    }
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
    // the copy cannot be amortized and the kernels read `B` in place. The
    // last `n % 16` columns always go through the buffer, zero-padded to the
    // tile width, so they run the same 16-lane tiles instead of a scalar
    // tail; without such columns and without packing the buffer is never
    // materialized, so small GEMMs skip its 16 KB zero-fill entirely.
    let pack = m >= GEMM_PACK_MIN_TILES * GEMM_MR && n > GEMM_NR;
    let mut packed = if pack || n_main < n { Some([0.0f32; GEMM_KC * GEMM_NR]) } else { None };
    for kb in (0..k).step_by(GEMM_KC) {
        let kend = (kb + GEMM_KC).min(k);
        for jb in (0..n_main).step_by(GEMM_NR) {
            let (panel, panel_stride): (&[f32], usize) = match packed.as_mut() {
                Some(packed) if pack => {
                    for (p, row) in (kb..kend).zip(packed.chunks_exact_mut(GEMM_NR)) {
                        row.copy_from_slice(&b[p * n + jb..p * n + jb + GEMM_NR]);
                    }
                    (&packed[..], GEMM_NR)
                }
                _ => (&b[kb * n + jb..], n),
            };
            gemm_panel::<true>(a, panel, panel_stride, out, jb, GEMM_NR, kb, kend, m, k, n);
        }
        if let Some(packed) = packed.as_mut().filter(|_| n_main < n) {
            let cols = n - n_main;
            for (p, row) in (kb..kend).zip(packed.chunks_exact_mut(GEMM_NR)) {
                row[..cols].copy_from_slice(&b[p * n + n_main..(p + 1) * n]);
                row[cols..].fill(0.0);
            }
            gemm_panel::<false>(a, &packed[..], GEMM_NR, out, n_main, cols, kb, kend, m, k, n);
        }
    }
}

/// Dense blocked GEMM: writes `A·B` into `out` without allocating.
///
/// `a` is `[m, k]`, `b` is `[k, n]` and `out` is `[m, n]`, all row-major.
/// The inner loop is an unconditional multiply–accumulate with no
/// per-element zero test: a channel-pruned layer passes its kept columns
/// only (see `ie_nn::Conv2d`), so it never multiplies a pruned weight.
/// Dispatched to the active ISA tier; every tier is bit-identical (see
/// [`crate::dispatch`]).
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
    tiered!(
        tier,
        gemm_accumulate_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize)
    );
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

/// Portable body of [`matvec_batch_into`] (recompiled for AVX2 by the
/// dispatcher).
#[inline(always)]
fn matvec_batch_body(a: &[f32], xs: &[f32], out: &mut [f32], m: usize, k: usize, batch: usize) {
    for (i, row) in a.chunks_exact(k).enumerate() {
        for s in 0..batch {
            out[s * m + i] = dot_lanes(row, &xs[s * k..(s + 1) * k]);
        }
    }
}

/// Batched matrix–vector product: one shared `[m, k]` matrix against `batch`
/// input vectors. `xs` holds the vectors sample-major (`[batch, k]`), `out`
/// receives the products sample-major (`[batch, m]`). Never allocates. A
/// single matrix–vector product is the `batch == 1` case.
///
/// Every `(row, sample)` element is one lane-parallel dot product
/// (`dot_lanes`): deterministic, but the summation order differs from a
/// strictly sequential fold. The dot product does not depend on the other
/// samples, so each sample's result is bit-identical to a batch of one
/// holding it alone. The loop is row-major over the matrix with the samples
/// innermost: each matrix row is streamed from memory once per batch instead
/// of once per sample, which is where batched dense layers win.
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
    tiered!(
        tier,
        matvec_batch_body(
            a: &[f32],
            xs: &[f32],
            out: &mut [f32],
            m: usize,
            k: usize,
            batch: usize,
        )
    );
}

/// Output rows [`matvec_t_body`] processes per pass (8 lane-partials of this
/// width live on the stack: 2 KB).
const MT_BLOCK: usize = 64;

/// Samples one [`matvec_t_batch_into`] tile covers: each weight row it loads
/// feeds this many samples.
const MT_SAMPLES: usize = 4;

/// Output columns of a full [`matvec_t_batch_into`] tile (two 8-lane vectors
/// per sample, so one lane's partials for the whole tile fill 8 `ymm`
/// registers).
const MT_COLS: usize = 16;

/// One sample of [`matvec_t_batch_into`]: for every output column block it
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

/// [`MT_SAMPLES`] samples × `NR` output columns (starting at column `jb`) of
/// [`matvec_t_batch_into`]; `xs` and `out` hold exactly the tile's sample
/// rows.
///
/// The loop runs lane-major: for lane `t` it sweeps the depth indices
/// `p ≡ t (mod 8)` in ascending order with the tile's partials in registers,
/// so each weight row segment is loaded once for all the samples. The lanes
/// then combine through [`dot_lanes`]'s tree and the `k % 8` tail folds in,
/// per sample — every element takes the operations [`matvec_t_body`] gives
/// it, in the same order.
#[inline(always)]
fn matvec_t_tile<const NR: usize>(
    a: &[f32],
    xs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    jb: usize,
) {
    let chunks = k / DOT_LANES;
    let mut lanes = [[[0.0f32; NR]; MT_SAMPLES]; DOT_LANES];
    for (t, lane) in lanes.iter_mut().enumerate() {
        let mut acc = [[0.0f32; NR]; MT_SAMPLES];
        for c in 0..chunks {
            let p = c * DOT_LANES + t;
            let arow: &[f32; NR] = a[p * m + jb..p * m + jb + NR].try_into().expect("tile width");
            for (s, acc_s) in acc.iter_mut().enumerate() {
                let xv = xs[s * k + p];
                for j in 0..NR {
                    acc_s[j] += xv * arow[j];
                }
            }
        }
        *lane = acc;
    }
    for s in 0..MT_SAMPLES {
        let orow: &mut [f32; NR] =
            (&mut out[s * m + jb..s * m + jb + NR]).try_into().expect("tile width");
        for (j, o) in orow.iter_mut().enumerate() {
            let l = |t: usize| lanes[t][s][j];
            *o = ((l(0) + l(4)) + (l(2) + l(6))) + ((l(1) + l(5)) + (l(3) + l(7)));
        }
        for p in chunks * DOT_LANES..k {
            let xv = xs[s * k + p];
            let arow = &a[p * m + jb..p * m + jb + NR];
            for (o, &av) in orow.iter_mut().zip(arow) {
                *o += xv * av;
            }
        }
    }
}

/// Portable body of [`matvec_t_batch_into`] (recompiled for AVX2 by the
/// dispatcher): full groups of [`MT_SAMPLES`] samples run the tiles — 16
/// columns at a time, then 8, 4 and single columns for the rest of the row —
/// and the leftover samples run [`matvec_t_body`] one at a time.
#[inline(always)]
fn matvec_t_batch_body(a: &[f32], xs: &[f32], out: &mut [f32], m: usize, k: usize, batch: usize) {
    let full = batch - batch % MT_SAMPLES;
    let (tiled, rest) = (&xs[..full * k], &xs[full * k..]);
    for (x, o) in tiled.chunks_exact(MT_SAMPLES * k).zip(out.chunks_exact_mut(MT_SAMPLES * m)) {
        let mut jb = 0;
        while jb + MT_COLS <= m {
            matvec_t_tile::<MT_COLS>(a, x, o, m, k, jb);
            jb += MT_COLS;
        }
        if jb + 8 <= m {
            matvec_t_tile::<8>(a, x, o, m, k, jb);
            jb += 8;
        }
        if jb + 4 <= m {
            matvec_t_tile::<4>(a, x, o, m, k, jb);
            jb += 4;
        }
        for j in jb..m {
            matvec_t_tile::<1>(a, x, o, m, k, j);
        }
    }
    for (x, o) in rest.chunks_exact(k).zip(out[full * m..].chunks_exact_mut(m)) {
        matvec_t_body(a, x, o, m, k);
    }
}

/// Batched transposed matrix–vector product: writes `Aᵀ·x` for each of
/// `batch` vectors without materializing the transpose. `a` is `[k, m]`
/// row-major; `xs` holds the vectors sample-major (`[batch, k]`) and `out`
/// receives the products sample-major (`[batch, m]`). Never allocates.
///
/// Each output element reproduces [`matvec_batch_into`]'s lane-parallel dot
/// product (same lane assignment, same reduction tree, same tail order) on
/// the corresponding column of `a` — bit-identical to
/// [`transpose_into`](crate::transpose_into) + [`matvec_batch_into`], minus
/// the transposed copy — and does not depend on the other samples, so each
/// sample's result is bit-identical to a batch of one holding it alone.
/// Groups of 4 samples share every weight load; a batch of one (the training
/// plans' dense input gradient `dx = Wᵀ·g`) runs the single-sample body.
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_t_batch_into(
    a: &[f32],
    xs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    batch: usize,
) {
    matvec_t_batch_into_tier(dispatch::active(), a, xs, out, m, k, batch);
}

/// [`matvec_t_batch_into`] on an explicitly chosen ISA tier (clamped to the
/// hardware).
///
/// # Panics
///
/// Panics when a buffer length does not match its dimensions.
pub fn matvec_t_batch_into_tier(
    tier: IsaTier,
    a: &[f32],
    xs: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    batch: usize,
) {
    assert_eq!(a.len(), k * m, "matvec_t: matrix buffer length {} != {k}x{m}", a.len());
    assert_eq!(xs.len(), batch * k, "matvec_t: vectors length {} != {batch}x{k}", xs.len());
    assert_eq!(out.len(), batch * m, "matvec_t: out length {} != {batch}x{m}", out.len());
    if k == 0 || m == 0 {
        out.fill(0.0);
        return;
    }
    tiered!(
        tier,
        matvec_t_batch_body(
            a: &[f32],
            xs: &[f32],
            out: &mut [f32],
            m: usize,
            k: usize,
            batch: usize,
        )
    );
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
    /// ([`gemm_into`], which writes into a caller's buffer).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when either operand is not a
    /// matrix and [`TensorError::MatmulDimMismatch`] when the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = self.check_matmul(other)?;
        let mut out = Tensor::zeros(&[m, n]);
        gemm_into(self.as_slice(), other.as_slice(), out.as_mut_slice(), m, k, n);
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
        matvec_batch_into(self.as_slice(), vec.as_slice(), out.as_mut_slice(), m, k, 1);
        Ok(out)
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
    fn kept_columns_product_matches_the_zeroed_full_width_product() {
        // Channel pruning zeroes whole column blocks of the filter matrix.
        // Multiplying only the kept blocks (and the matching rows of `B`)
        // must give the full-width product bit for bit: every skipped term
        // is `±0·x` for a finite `x`, added to a sum that starts at +0.0 and
        // is therefore never -0.0, which leaves the sum unchanged.
        let mut rng = StdRng::seed_from_u64(6);
        let (m, blocks, block, n) = (7, 6, 5, 37);
        let k = blocks * block;
        let kept_blocks = [1usize, 2, 4];
        let mut a = Tensor::randn(&mut rng, &[m, k], 0.0, 1.0);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if !kept_blocks.contains(&((i % k) / block)) {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&mut rng, &[k, n], 0.0, 1.0);
        let full = a.matmul(&b).unwrap();
        let kept_cols: Vec<usize> =
            kept_blocks.iter().flat_map(|&c| c * block..(c + 1) * block).collect();
        let kk = kept_cols.len();
        let ak: Vec<f32> = (0..m)
            .flat_map(|i| kept_cols.iter().map(move |&p| (i, p)))
            .map(|(i, p)| a.as_slice()[i * k + p])
            .collect();
        let bk: Vec<f32> =
            kept_cols.iter().flat_map(|&p| b.as_slice()[p * n..(p + 1) * n].to_vec()).collect();
        let mut compact = vec![f32::NAN; m * n];
        gemm_into(&ak, &bk, &mut compact, m, kk, n);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&compact), bits(full.as_slice()));
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
        assert_eq!(y, a.matmul(&x.reshape(&[3, 1]).unwrap()).unwrap().reshape(&[2]).unwrap());
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
                let x = &xs.as_slice()[s * k..(s + 1) * k];
                matvec_batch_into(a.as_slice(), x, &mut single, m, k, 1);
                assert_eq!(
                    batched[s * m..(s + 1) * m].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "sample {s} of {m}x{k} batch {batch}"
                );
            }
        }
        // k == 0 zero-fills.
        let mut out = vec![1.0f32; 4];
        matvec_batch_into(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn transposed_matvec_is_bit_identical_to_transpose_then_matvec() {
        let mut rng = StdRng::seed_from_u64(22);
        // Exercise the lane tail (k % 8 != 0), the MT_BLOCK row remainder,
        // every tile width (16, 8, 4, 1) and the leftover samples.
        for (m, k, batch) in [
            (1, 1, 1),
            (3, 9, 5),
            (64, 64, 4),
            (65, 8, 1),
            (512, 128, 2),
            (100, 70, 9),
            (130, 257, 3),
            (29, 48, 8),
        ] {
            let a = Tensor::randn(&mut rng, &[k, m], 0.0, 1.0);
            let xs = Tensor::randn(&mut rng, &[batch, k], 0.0, 1.0);
            let mut at = vec![0.0f32; k * m];
            crate::transpose_into(a.as_slice(), k, m, &mut at);
            let mut reference = vec![0.0f32; batch * m];
            matvec_batch_into(&at, xs.as_slice(), &mut reference, m, k, batch);
            let mut out = vec![f32::NAN; batch * m];
            matvec_t_batch_into(a.as_slice(), xs.as_slice(), &mut out, m, k, batch);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape {m}x{k} batch {batch}"
            );
        }
        // k == 0 zero-fills like matvec_batch_into.
        let mut out = vec![1.0f32; 8];
        matvec_t_batch_into(&[], &[], &mut out, 4, 0, 2);
        assert_eq!(out, vec![0.0; 8]);
    }

    #[test]
    fn outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let o = a.outer(&b);
        assert_eq!(o.dims(), &[2, 2]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }
}

//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution over a `[C, H, W]` input with `[O, C, K, K]` filters is
//! computed as a matrix product between the filter matrix `[O, C·K·K]` and
//! the column matrix `[C·K·K, H_out·W_out]` a lowering writes; the backward
//! pass scatters column gradients back into image layout. A channel-pruned
//! layer lowers and scatters only its kept input channels, so its product
//! runs at depth `kept·K·K`.
//!
//! Both directions go through one [`ConvLowering`] per geometry, which
//! works by runs over a padded copy of one input plane. A lowering fills a
//! scratch with the pad value, copies each channel plane into its interior
//! and copies every column row out as `out_h` runs of `out_w` contiguous
//! cells; the scatter adds each run back into the same cells. A stride
//! above 1 splits the padded plane into its `stride²` phase planes, so a
//! strided column row is contiguous runs too (LeNet's stride-2 first
//! convolution splits each input row into its even and odd cells). A run
//! moves many cells per step where a gather through a per-cell index table
//! reads one index and one cell per column cell: pinned to one vCPU of the
//! 2-vCPU VNNI dev box, best of 7 rounds alternating the two in one binary,
//! the six LeNet convolutions at the served policy's kept widths lowered at
//! batch 8 in 38.6 µs (`i8`) and 70.0 µs (`f32`) by runs, against 87.6 and
//! 93.5 µs through a `u16` table, and the kept-width scatter at batch 1
//! took 11.9 µs against 23.4 µs. Those runs are fixed-size moves for
//! LeNet's shapes (see [`ConvLowering`]): through the general loop alone,
//! whose runs are `memcpy` calls, the served walk took 213–241 µs per batch
//! of 8 against 125–149 µs, slower than through the table.
//!
//! Unlike the arithmetic kernels, the lowerings have **no** runtime ISA
//! tiers (see [`crate::dispatch`]): they move values without computing on
//! them, and the scatter adds in one fixed order, so every tier runs the
//! same code and is trivially bit-identical.

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution: input size, kernel, stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Number of input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height of the convolution: 0 for a geometry
    /// [`Self::validate`] refuses in height.
    pub fn out_h(&self) -> usize {
        self.out_size(self.in_h)
    }

    /// Output width of the convolution: 0 for a geometry [`Self::validate`]
    /// refuses in width.
    pub fn out_w(&self) -> usize {
        self.out_size(self.in_w)
    }

    /// Output cells along an input side of `size`, in checked arithmetic: a
    /// zero stride or kernel, an overflowing padding or a kernel wider than
    /// the padded side has none.
    fn out_size(&self, size: usize) -> usize {
        let padded = self.padding.checked_mul(2).and_then(|pad| pad.checked_add(size));
        match padded.and_then(|padded| padded.checked_sub(self.kernel)) {
            Some(span) if self.stride > 0 && self.kernel > 0 => span / self.stride + 1,
            _ => 0,
        }
    }

    /// Validates that the kernel fits in the padded input and the stride is
    /// non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] describing the problem.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidConvGeometry("stride must be non-zero".into()));
        }
        if self.kernel == 0 {
            return Err(TensorError::InvalidConvGeometry("kernel must be non-zero".into()));
        }
        let padded = |size: usize| self.padding.checked_mul(2)?.checked_add(size);
        let (Some(h), Some(w)) = (padded(self.in_h), padded(self.in_w)) else {
            return Err(TensorError::InvalidConvGeometry(format!(
                "padding {} overflows the padded input size",
                self.padding
            )));
        };
        if h < self.kernel || w < self.kernel {
            return Err(TensorError::InvalidConvGeometry(format!(
                "kernel {} larger than padded input {h}x{w}",
                self.kernel
            )));
        }
        Ok(())
    }
}

impl Conv2dGeometry {
    /// Number of rows of the column matrix [`ConvLowering::im2col`] produces
    /// (`in_channels · kernel²`).
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the column matrix (`out_h · out_w`).
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Element count of the column matrix (`col_rows · col_cols`).
    pub fn col_len(&self) -> usize {
        self.col_rows() * self.col_cols()
    }
}

/// The lowering of one convolution geometry, in both directions, by runs
/// over a padded copy of one input plane.
///
/// The scratch holds the `stride²` phase planes of the padded input,
/// `[stride², ⌈(H+2p)/stride⌉, ⌈(W+2p)/stride⌉]`: padded cell `(y, x)` lives
/// in phase `(y mod stride, x mod stride)` at `(y div stride, x div
/// stride)`. At stride 1 that is just the padded plane. Column row
/// `(ky, kx)` of a channel then reads `out_h` runs of `out_w` contiguous
/// cells, which start in phase `(ky mod stride, kx mod stride)` at offset
/// `(ky div stride, kx div stride)` and lie one phase row apart.
/// [`Self::lower_into`] fills the scratch with the pad value once per call,
/// copies each listed plane into its interior (a copy writes only interior
/// cells, so the border keeps the pad) and copies every column row out run
/// by run; [`Self::scatter_into`] adds each run back into the same layout.
/// LeNet's runs are 4, 8 or 16 cells long. The lowering of a square output
/// of one of those sides, the scatter of one of side 4 or 8, the stride-2
/// split and the copy of a 4×4 or 8×8 plane run loops of their own, whose
/// runs are fixed-size moves; anything else takes the general loop.
///
/// # Example
///
/// ```
/// use ie_tensor::{Conv2dGeometry, ConvLowering};
///
/// let geom = Conv2dGeometry { in_channels: 1, in_h: 2, in_w: 2, kernel: 2, stride: 1, padding: 1 };
/// let lowering = ConvLowering::new(geom)?;
/// let mut scratch = vec![0.0f32; lowering.scratch_len()];
/// let mut cols = vec![0.0; geom.col_len()];
/// lowering.lower_into(&[1.0, 2.0, 3.0, 4.0], 1, 0.0, 0..1, &mut scratch, &mut cols)?;
/// // Kernel offset (0, 0) reads the padding except where the window's
/// // top-left corner lands on the plane.
/// assert_eq!(cols[..9], [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
/// # Ok::<(), ie_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLowering {
    geom: Conv2dGeometry,
    /// Output rows: the runs of one column row.
    out_h: usize,
    /// Output columns: the cells of one run.
    out_w: usize,
    /// Rows of one phase plane, `⌈(H+2p)/stride⌉`.
    phase_h: usize,
    /// Columns of one phase plane, `⌈(W+2p)/stride⌉`: the distance between
    /// two runs of a column row.
    phase_w: usize,
    /// Cells of the scratch, `stride² · phase_h · phase_w`.
    scratch_len: usize,
}

impl ConvLowering {
    /// Builds the lowering of `geom`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] when the geometry is
    /// invalid ([`Conv2dGeometry::validate`]) or its scratch length
    /// overflows.
    pub fn new(geom: Conv2dGeometry) -> Result<Self> {
        geom.validate()?;
        let phase = |size: usize| (size + 2 * geom.padding).div_ceil(geom.stride);
        let (phase_h, phase_w) = (phase(geom.in_h), phase(geom.in_w));
        let scratch_len = geom
            .stride
            .checked_mul(geom.stride)
            .and_then(|n| n.checked_mul(phase_h)?.checked_mul(phase_w))
            .ok_or_else(|| {
                TensorError::InvalidConvGeometry(format!(
                    "the padded {}x{} input plane overflows a lowering scratch",
                    geom.in_h, geom.in_w
                ))
            })?;
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        Ok(ConvLowering { geom, out_h, out_w, phase_h, phase_w, scratch_len })
    }

    /// Cells of the scratch [`Self::lower_into`] and [`Self::scatter_into`]
    /// stage a plane in: the `stride²` phase planes of the padded input plane
    /// (at stride 1, `(H+2p)·(W+2p)`).
    pub fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// Cells of one input plane (`H·W`).
    fn plane(&self) -> usize {
        self.geom.in_h * self.geom.in_w
    }

    /// Calls `f(r, start)` for every column row `r = ky·K + kx` in order,
    /// with the scratch offset of the row's first run: row `(ky, kx)` starts
    /// in phase `(ky mod s, kx mod s)` at `(ky div s, kx div s)`, stepped
    /// along each axis without a division.
    #[inline(always)]
    fn for_each_run_start(&self, mut f: impl FnMut(usize, usize)) {
        let (k, s, pitch) = (self.geom.kernel, self.geom.stride, self.phase_w);
        let plane = self.phase_h * pitch;
        let (mut r, mut ya, mut yq) = (0, 0, 0);
        for _ in 0..k {
            let (mut xb, mut xq) = (0, 0);
            for _ in 0..k {
                f(r, (ya * s + xb) * plane + yq * pitch + xq);
                r += 1;
                (xb, xq) = if xb + 1 == s { (0, xq + 1) } else { (xb + 1, xq) };
            }
            (ya, yq) = if ya + 1 == s { (0, yq + 1) } else { (ya + 1, yq) };
        }
    }

    /// The loops of [`Self::lower_into`] once its checks pass and the scratch
    /// holds the pad value: each listed plane of each sample is staged in
    /// the scratch and its `K²` column rows are copied out as `out_h` runs
    /// of `out_w` cells each. `N` is the side of a square output fixed at
    /// compile time, or 0 for the output's own sides (see [`copy_runs`]);
    /// each `N` is a function of its own, so the loops of one output shape
    /// stay together in the instruction cache.
    #[inline(never)]
    fn lower_runs<T: Copy, const N: usize>(
        &self,
        input: &[T],
        batch: usize,
        channels: impl Iterator<Item = usize>,
        scratch: &mut [T],
        out: &mut [T],
    ) {
        let (plane, pitch, kk) = (self.plane(), self.phase_w, self.geom.kernel.pow(2));
        let (h, w) = if N == 0 { (self.out_h, self.out_w) } else { (N, N) };
        let row_stride = batch * h * w;
        for (ci, c) in channels.enumerate() {
            let rows = &mut out[ci * kk * row_stride..][..kk * row_stride];
            for s in 0..batch {
                self.load_plane(&input[(c * batch + s) * plane..][..plane], scratch);
                self.for_each_run_start(|r, mut start| {
                    for d in rows[r * row_stride + s * h * w..][..h * w].chunks_exact_mut(w) {
                        d.copy_from_slice(&scratch[start..start + w]);
                        start += pitch;
                    }
                });
            }
        }
    }

    /// The loops of [`Self::scatter_into`] once its checks pass and the
    /// image is zeroed: each listed plane is staged in the scratch, its `K²`
    /// column rows are added run by run into the cells the lowering copied
    /// them from, and the plane is copied back out. `N` as in
    /// [`Self::lower_runs`].
    #[inline(never)]
    fn scatter_runs<const N: usize>(
        &self,
        cols: &[f32],
        channels: impl Iterator<Item = usize>,
        scratch: &mut [f32],
        image: &mut [f32],
    ) {
        let (plane, pitch, kk) = (self.plane(), self.phase_w, self.geom.kernel.pow(2));
        let (h, w) = if N == 0 { (self.out_h, self.out_w) } else { (N, N) };
        for (ci, c) in channels.enumerate() {
            let dst = &mut image[c * plane..][..plane];
            self.load_plane(dst, scratch);
            let rows = &cols[ci * kk * h * w..][..kk * h * w];
            self.for_each_run_start(|r, mut start| {
                for run in rows[r * h * w..][..h * w].chunks_exact(w) {
                    for (a, &v) in scratch[start..start + w].iter_mut().zip(run) {
                        *a += v;
                    }
                    start += pitch;
                }
            });
            self.store_plane(scratch, dst);
        }
    }

    /// Copies one `[H, W]` plane into the interior of the scratch.
    fn load_plane<T: Copy>(&self, plane: &[T], scratch: &mut [T]) {
        let Conv2dGeometry { in_h, in_w, padding: p, .. } = self.geom;
        match self.geom.stride {
            _ if plane.is_empty() => {}
            1 => copy_runs(
                &mut scratch[p * self.phase_w + p..],
                self.phase_w,
                plane,
                in_w,
                in_w,
                in_h,
            ),
            2 => self.split_rows::<T, 2>(plane, scratch),
            _ => self.split_rows::<T, 0>(plane, scratch),
        }
    }

    /// [`Self::load_plane`] at a stride above 1: each input row splits into
    /// its `stride` phases, every `S`-th cell (`S = 0`: a stride known only
    /// at run time).
    #[inline(always)]
    fn split_rows<T: Copy, const S: usize>(&self, plane: &[T], scratch: &mut [T]) {
        let Conv2dGeometry { in_w, padding: p, .. } = self.geom;
        let s = if S == 0 { self.geom.stride } else { S };
        for (iy, row) in plane.chunks_exact(in_w).enumerate() {
            let y = iy + p;
            for b in 0..s {
                // The input columns whose padded column `x = ix + p` has
                // `x mod s == b`, the first of them at `ix0`.
                let ix0 = (b + s - p % s) % s;
                let Some(cells) = row.get(ix0..) else { continue };
                let start = (((y % s) * s + b) * self.phase_h + y / s) * self.phase_w;
                let dst = &mut scratch[start + (ix0 + p) / s..][..cells.len().div_ceil(s)];
                let (firsts, last) = dst.split_at_mut(cells.len() / s);
                for (d, run) in firsts.iter_mut().zip(cells.chunks_exact(s)) {
                    *d = run[0];
                }
                if let (Some(d), Some(&v)) =
                    (last.first_mut(), cells.chunks_exact(s).remainder().first())
                {
                    *d = v;
                }
            }
        }
    }

    /// Copies the interior of the scratch back out into one `[H, W]` plane:
    /// the inverse of [`Self::load_plane`].
    fn store_plane(&self, scratch: &[f32], plane: &mut [f32]) {
        let Conv2dGeometry { in_h, in_w, stride: s, padding: p, .. } = self.geom;
        if plane.is_empty() {
            return;
        }
        if s == 1 {
            let src = &scratch[p * self.phase_w + p..];
            copy_runs(plane, in_w, src, self.phase_w, in_w, in_h);
            return;
        }
        for (iy, row) in plane.chunks_exact_mut(in_w).enumerate() {
            let y = iy + p;
            for b in 0..s {
                let ix0 = (b + s - p % s) % s;
                let start = (((y % s) * s + b) * self.phase_h + y / s) * self.phase_w;
                let src = &scratch[start + (ix0 + p) / s..];
                for (d, &v) in row.iter_mut().skip(ix0).step_by(s).zip(src) {
                    *d = v;
                }
            }
        }
    }

    /// Checks the channel list against the geometry and the scratch against
    /// [`Self::scratch_len`].
    fn check<T>(&self, mut channels: impl Iterator<Item = usize>, scratch: &[T]) -> Result<()> {
        if let Some(bad) = channels.find(|&c| c >= self.geom.in_channels) {
            return Err(TensorError::InvalidConvGeometry(format!(
                "selected channel {bad} out of range for {} input channels",
                self.geom.in_channels
            )));
        }
        if scratch.len() < self.scratch_len {
            return Err(TensorError::DataShapeMismatch {
                data_len: scratch.len(),
                shape_len: self.scratch_len,
            });
        }
        Ok(())
    }

    /// Lowers the listed input channels of a batch of images into one wide
    /// column matrix, one `K²`-row block per listed channel, in list order.
    /// Never allocates.
    ///
    /// The input uses the *channel-major wide* batch layout `[C, batch, H, W]`
    /// (sample `s` of channel `c` starts at `(c·batch + s)·H·W`; for
    /// `batch == 1` this is the ordinary `[C, H, W]` layout, so a single
    /// image is a batch of one). The output is the
    /// `[len(channels)·K², batch·out_h·out_w]` column matrix in which sample
    /// `s` occupies columns `s·out_h·out_w ..`, one matrix a single widened
    /// GEMM multiplies against the filter matrix; sample `s`'s block equals
    /// the lowering of a batch of one holding that sample alone. Every cell
    /// is written; padding cells get `pad` (`0.0` for real activations, the
    /// activation quantization's zero point for `i8` codes, whose real value
    /// is exactly `0.0`).
    ///
    /// Channel pruning removes whole input channels: a pruned layer lowers
    /// its kept channels only (`0..C` lowers them all), so its product runs
    /// at depth `kept·K²`. `scratch` stages one plane at a time and must hold
    /// [`Self::scratch_len`] cells; its contents on entry do not matter.
    ///
    /// # Errors
    ///
    /// Returns an error when a channel is out of range, the scratch is
    /// shorter than [`Self::scratch_len`], or a buffer length does not match
    /// `batch` copies of the geometry.
    pub fn lower_into<T: Copy>(
        &self,
        input: &[T],
        batch: usize,
        pad: T,
        channels: impl ExactSizeIterator<Item = usize> + Clone,
        scratch: &mut [T],
        out: &mut [T],
    ) -> Result<()> {
        let plane = self.plane();
        let in_len = self.geom.in_channels * batch * plane;
        if input.len() != in_len {
            return Err(TensorError::DataShapeMismatch {
                data_len: input.len(),
                shape_len: in_len,
            });
        }
        let k = self.geom.kernel;
        let cols = self.out_h * self.out_w;
        let row_stride = batch * cols;
        let expected = channels.len() * k * k * row_stride;
        if out.len() != expected {
            return Err(TensorError::DataShapeMismatch {
                data_len: out.len(),
                shape_len: expected,
            });
        }
        self.check(channels.clone(), scratch)?;
        let scratch = &mut scratch[..self.scratch_len];
        scratch.fill(pad);
        match (self.out_h, self.out_w) {
            (4, 4) => self.lower_runs::<T, 4>(input, batch, channels, scratch, out),
            (8, 8) => self.lower_runs::<T, 8>(input, batch, channels, scratch, out),
            (16, 16) => self.lower_runs::<T, 16>(input, batch, channels, scratch, out),
            _ => self.lower_runs::<T, 0>(input, batch, channels, scratch, out),
        }
        Ok(())
    }

    /// Scatters a `[len(channels)·K², out_h·out_w]` column-gradient matrix
    /// back into a `[C, H, W]` image: the adjoint of [`Self::lower_into`] at
    /// `batch == 1`. The image is zeroed first and row block `ci` then adds
    /// into channel `channels[ci]`'s plane, so a channel the list leaves out
    /// (a pruned one) reads exactly `+0.0`. Each plane is staged in the
    /// interior of `scratch` ([`Self::scratch_len`] cells, contents on entry
    /// irrelevant); every column row adds run by run into the same cells the
    /// lowering copied it from, and an add that lands in the border is
    /// dropped with it. Every plane cell receives its adds in one fixed
    /// order: list position, then `ky`, `kx`, `oy`, `ox`, each ascending.
    /// Never allocates.
    ///
    /// # Errors
    ///
    /// Returns an error when a channel is out of range, the scratch is
    /// shorter than [`Self::scratch_len`], or either buffer length does not
    /// match the geometry.
    pub fn scatter_into(
        &self,
        cols: &[f32],
        channels: impl ExactSizeIterator<Item = usize> + Clone,
        scratch: &mut [f32],
        image: &mut [f32],
    ) -> Result<()> {
        let plane = self.plane();
        let k = self.geom.kernel;
        let ncols = self.out_h * self.out_w;
        let expected = channels.len() * k * k * ncols;
        if cols.len() != expected {
            return Err(TensorError::DataShapeMismatch {
                data_len: cols.len(),
                shape_len: expected,
            });
        }
        let image_len = self.geom.in_channels * plane;
        if image.len() != image_len {
            return Err(TensorError::DataShapeMismatch {
                data_len: image.len(),
                shape_len: image_len,
            });
        }
        self.check(channels.clone(), scratch)?;
        image.fill(0.0);
        match (self.out_h, self.out_w) {
            (4, 4) => self.scatter_runs::<4>(cols, channels, scratch, image),
            (8, 8) => self.scatter_runs::<8>(cols, channels, scratch, image),
            _ => self.scatter_runs::<0>(cols, channels, scratch, image),
        }
        Ok(())
    }

    /// Lowers a `[C, H, W]` image into a `[C·K·K, out_h·out_w]` column
    /// matrix: [`Self::lower_into`] over every channel at `batch == 1`, with
    /// a scratch allocated for the call.
    ///
    /// # Errors
    ///
    /// Returns an error when the input tensor is not rank 3 or its
    /// channel/height/width do not match the geometry.
    pub fn im2col(&self, input: &Tensor) -> Result<Tensor> {
        let geom = &self.geom;
        if input.shape().rank() != 3 {
            return Err(TensorError::RankMismatch { expected: 3, actual: input.shape().rank() });
        }
        let dims = input.dims();
        if dims != [geom.in_channels, geom.in_h, geom.in_w] {
            return Err(TensorError::ShapeMismatch {
                left: dims.to_vec(),
                right: vec![geom.in_channels, geom.in_h, geom.in_w],
            });
        }
        let mut out = vec![0.0f32; geom.col_len()];
        let mut scratch = vec![0.0f32; self.scratch_len];
        let all = 0..geom.in_channels;
        self.lower_into(input.as_slice(), 1, 0.0, all, &mut scratch, &mut out)?;
        Tensor::from_vec(out, &[geom.col_rows(), geom.col_cols()])
    }

    /// Scatters a `[C·K·K, out_h·out_w]` column-gradient matrix back into a
    /// `[C, H, W]` image-gradient tensor (the adjoint of [`Self::im2col`]):
    /// [`Self::scatter_into`] over every channel, with a scratch allocated
    /// for the call.
    ///
    /// # Errors
    ///
    /// Returns an error when the column matrix shape does not match the
    /// geometry.
    pub fn col2im(&self, cols: &Tensor) -> Result<Tensor> {
        let geom = &self.geom;
        let expected = [geom.col_rows(), geom.col_cols()];
        if cols.dims() != expected {
            return Err(TensorError::ShapeMismatch {
                left: cols.dims().to_vec(),
                right: expected.to_vec(),
            });
        }
        let mut image = Tensor::zeros(&[geom.in_channels, geom.in_h, geom.in_w]);
        let mut scratch = vec![0.0f32; self.scratch_len];
        let all = 0..geom.in_channels;
        self.scatter_into(cols.as_slice(), all, &mut scratch, image.as_mut_slice())?;
        Ok(image)
    }
}

/// Copies `rows` runs of `width` cells, `src_pitch` apart in `src`, to runs
/// `dst_pitch` apart in `dst`. The copy of a run whose width is a constant
/// compiles to a few moves, where one of a width known only at run time is
/// a `memcpy` call that costs more than a 4- or 8-cell run itself; and a
/// constant run count unrolls the loop. So the 4×4 and 8×8 planes of
/// LeNet's stride-1 convolutions get copies of their own, as the column
/// rows of [`ConvLowering::lower_runs`] and [`ConvLowering::scatter_runs`]
/// do; no stride-1 convolution of LeNet or the tiny net reads a 16×16
/// plane.
fn copy_runs<T: Copy>(
    dst: &mut [T],
    dst_pitch: usize,
    src: &[T],
    src_pitch: usize,
    width: usize,
    rows: usize,
) {
    #[inline(always)]
    fn runs<T: Copy, const N: usize>(
        dst: &mut [T],
        dst_pitch: usize,
        src: &[T],
        src_pitch: usize,
        width: usize,
        rows: usize,
    ) {
        let (h, w) = if N == 0 { (rows, width) } else { (N, N) };
        for r in 0..h {
            dst[r * dst_pitch..][..w].copy_from_slice(&src[r * src_pitch..][..w]);
        }
    }
    match (rows, width) {
        (4, 4) => runs::<T, 4>(dst, dst_pitch, src, src_pitch, width, rows),
        (8, 8) => runs::<T, 8>(dst, dst_pitch, src, src_pitch, width, rows),
        _ => runs::<T, 0>(dst, dst_pitch, src, src_pitch, width, rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_3x3_stride1_nopad() -> Conv2dGeometry {
        Conv2dGeometry { in_channels: 1, in_h: 4, in_w: 4, kernel: 3, stride: 1, padding: 0 }
    }

    fn lowering(g: Conv2dGeometry) -> ConvLowering {
        ConvLowering::new(g).unwrap()
    }

    fn scratch<T: Copy + Default>(lowering: &ConvLowering) -> Vec<T> {
        vec![T::default(); lowering.scratch_len()]
    }

    #[test]
    fn output_dims_follow_conv_arithmetic() {
        let g =
            Conv2dGeometry { in_channels: 3, in_h: 32, in_w: 32, kernel: 5, stride: 1, padding: 2 };
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        let g2 =
            Conv2dGeometry { in_channels: 3, in_h: 32, in_w: 32, kernel: 5, stride: 2, padding: 0 };
        assert_eq!(g2.out_h(), 14);
        // The widest kernel that fits leaves one cell per side.
        let g = geom_3x3_stride1_nopad();
        assert_eq!(Conv2dGeometry { kernel: 8, padding: 2, ..g }.out_h(), 1);
        // A geometry `validate` refuses has no output cells, not a panic: a
        // zero stride, a zero kernel, a kernel wider than the padded input
        // (unchecked, 4 - 9 underflows) and an overflowing padding.
        for bad in [
            Conv2dGeometry { stride: 0, ..g },
            Conv2dGeometry { kernel: 0, ..g },
            Conv2dGeometry { kernel: 9, padding: 2, ..g },
            Conv2dGeometry { padding: usize::MAX / 2 + 1, ..g },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            assert_eq!((bad.out_h(), bad.out_w(), bad.col_cols(), bad.col_len()), (0, 0, 0, 0));
        }
        // Only the side the kernel overhangs is empty.
        let tall = Conv2dGeometry { in_h: 9, in_w: 2, kernel: 3, ..g };
        assert_eq!((tall.out_h(), tall.out_w()), (7, 0));
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        let mut g = geom_3x3_stride1_nopad();
        g.stride = 0;
        assert!(g.validate().is_err());
        assert!(ConvLowering::new(g).is_err());
        let mut g = geom_3x3_stride1_nopad();
        g.kernel = 9;
        assert!(g.validate().is_err());
        assert!(ConvLowering::new(g).is_err());
        // The scratch holds the stride² phase planes of the padded plane.
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 256,
            in_w: 256,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        assert_eq!(ConvLowering::new(g).unwrap().scratch_len(), 65_536);
        let lenet_conv1 =
            Conv2dGeometry { in_h: 32, in_w: 32, kernel: 5, stride: 2, padding: 2, ..g };
        assert_eq!(ConvLowering::new(lenet_conv1).unwrap().scratch_len(), 4 * 18 * 18);
        let odd = Conv2dGeometry { in_h: 4, in_w: 5, kernel: 3, stride: 3, padding: 1, ..g };
        assert_eq!(ConvLowering::new(odd).unwrap().scratch_len(), 9 * 2 * 3);
        let g = Conv2dGeometry { in_h: usize::MAX, in_w: 2, ..g };
        assert!(ConvLowering::new(g).is_err(), "an overflowing scratch is refused, not wrapped");
        let g = Conv2dGeometry { in_h: 4, in_w: 4, padding: usize::MAX / 2 + 1, ..g };
        assert!(g.validate().is_err(), "an overflowing padding is refused, not wrapped");
    }

    #[test]
    fn im2col_produces_expected_columns() {
        let g = geom_3x3_stride1_nopad();
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 4, 4]).unwrap();
        let cols = lowering(g).im2col(&input).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // First column is the top-left 3x3 patch in row-major order.
        let first_col: Vec<f32> = (0..9).map(|r| cols.get(&[r, 0]).unwrap()).collect();
        assert_eq!(first_col, vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
        // Last column is the bottom-right patch.
        let last_col: Vec<f32> = (0..9).map(|r| cols.get(&[r, 3]).unwrap()).collect();
        assert_eq!(last_col, vec![5.0, 6.0, 7.0, 9.0, 10.0, 11.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn im2col_zero_pads_border() {
        let g =
            Conv2dGeometry { in_channels: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, padding: 1 };
        let input = Tensor::ones(&[1, 2, 2]);
        let cols = lowering(g).im2col(&input).unwrap();
        // Top-left output position: only the bottom-right 2x2 of the kernel
        // overlaps real pixels, so exactly 4 ones.
        let first_col_sum: f32 = (0..9).map(|r| cols.get(&[r, 0]).unwrap()).sum();
        assert_eq!(first_col_sum, 4.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_counting() {
        // col2im(im2col(ones)) counts how many patches cover each pixel.
        let lowering = lowering(geom_3x3_stride1_nopad());
        let input = Tensor::ones(&[1, 4, 4]);
        let cols = lowering.im2col(&input).unwrap();
        let back = lowering.col2im(&cols).unwrap();
        // Centre pixels are covered by all 4 patches, corners by exactly 1.
        assert_eq!(back.get(&[0, 0, 0]), Some(1.0));
        assert_eq!(back.get(&[0, 1, 1]), Some(4.0));
        assert_eq!(back.get(&[0, 3, 3]), Some(1.0));
    }

    #[test]
    fn batched_im2col_matches_per_sample_im2col() {
        let g =
            Conv2dGeometry { in_channels: 2, in_h: 5, in_w: 4, kernel: 3, stride: 2, padding: 1 };
        let lowering = lowering(g);
        let mut plane = scratch::<f32>(&lowering);
        let batch = 3;
        let plane_len = g.in_h * g.in_w;
        // Wide layout [C, batch, H, W] with distinct per-(channel, sample) data.
        let wide: Vec<f32> =
            (0..g.in_channels * batch * plane_len).map(|i| (i as f32).sin()).collect();
        let mut wide_cols = vec![f32::NAN; g.col_len() * batch];
        lowering.lower_into(&wide, batch, 0.0, 0..2, &mut plane, &mut wide_cols).unwrap();
        let cols = g.col_cols();
        for s in 0..batch {
            // Reassemble sample s in plain [C, H, W] layout and lower it alone.
            let mut single = Vec::with_capacity(g.in_channels * plane_len);
            for c in 0..g.in_channels {
                single.extend_from_slice(&wide[(c * batch + s) * plane_len..][..plane_len]);
            }
            let single = Tensor::from_vec(single, &[g.in_channels, g.in_h, g.in_w]).unwrap();
            let single_cols = lowering.im2col(&single).unwrap();
            for r in 0..g.col_rows() {
                assert_eq!(
                    &wide_cols[r * batch * cols + s * cols..][..cols],
                    &single_cols.as_slice()[r * cols..][..cols],
                    "sample {s} row {r}"
                );
            }
        }
    }

    #[test]
    fn batched_im2col_validates_lengths() {
        let g = geom_3x3_stride1_nopad();
        let lowering = lowering(g);
        let mut plane = scratch::<f32>(&lowering);
        let mut out = vec![0.0f32; g.col_len() * 2];
        assert!(lowering.lower_into(&[0.0; 16], 2, 0.0, 0..1, &mut plane, &mut out).is_err());
        let ok_input = vec![0.0; 32];
        let mut short = vec![0.0f32; g.col_len()];
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut plane, &mut short).is_err());
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut plane, &mut out).is_ok());
        // A scratch must hold the padded plane: 4x4 without padding here.
        let mut tight = [0.0f32; 16];
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut tight[..], &mut out).is_ok());
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut tight[..15], &mut out).is_err());
        let mut image = vec![0.0f32; 16];
        assert!(lowering.scatter_into(&out[..36], 0..1, &mut tight[..15], &mut image).is_err());
        assert!(lowering.scatter_into(&out[..36], 0..1, &mut tight[..], &mut image).is_ok());
    }

    #[test]
    fn quantized_im2col_matches_float_lowering_cell_for_cell() {
        // The generic lowering moves values without arithmetic, so lowering
        // integer codes must place exactly the same per-cell values as
        // lowering the same values as floats — with `pad` where the float
        // path writes its zero fill.
        let g =
            Conv2dGeometry { in_channels: 2, in_h: 4, in_w: 5, kernel: 3, stride: 2, padding: 1 };
        let lowering = lowering(g);
        let (mut plane8, mut plane) = (scratch::<i8>(&lowering), scratch::<f32>(&lowering));
        let batch = 2;
        let plane_len = g.in_h * g.in_w;
        // Strictly nonzero codes, so a zero in the float lowering can only be
        // padding (and must therefore hold `pad` in the code lowering).
        let codes: Vec<i8> = (0..g.in_channels * batch * plane_len)
            .map(|i| {
                let v = (i % 99) as i8 + 1;
                if i % 2 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let pad: i8 = -7;
        let all = [0, 1];
        let mut lowered = vec![0i8; g.col_len() * batch];
        let all_iter = all.iter().copied();
        lowering.lower_into(&codes, batch, pad, all_iter, &mut plane8, &mut lowered).unwrap();
        let floats: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
        let mut lowered_f = vec![f32::NAN; g.col_len() * batch];
        lowering.lower_into(&floats, batch, 0.0, 0..2, &mut plane, &mut lowered_f).unwrap();
        for (i, (&c, &f)) in lowered.iter().zip(&lowered_f).enumerate() {
            let expected = if f == 0.0 { pad } else { f as i8 };
            assert_eq!(c, expected, "cell {i}");
        }
        // Length validation mirrors the float path.
        let mut short = vec![0i8; g.col_len()];
        assert!(lowering.lower_into(&codes, batch, pad, 0..2, &mut plane8, &mut short).is_err());
        // Channel selection: a subset extracts exactly its channels' row
        // blocks of the full lowering.
        let rows_per_chan = g.kernel * g.kernel * g.col_cols() * batch;
        let mut chan1 = vec![0i8; rows_per_chan];
        lowering.lower_into(&codes, batch, pad, 1..2, &mut plane8, &mut chan1).unwrap();
        assert_eq!(chan1, lowered[rows_per_chan..]);
        assert!(lowering.lower_into(&codes, batch, pad, 2..3, &mut plane8, &mut chan1).is_err());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let lowering = lowering(geom_3x3_stride1_nopad());
        let wrong = Tensor::zeros(&[1, 5, 5]);
        assert!(lowering.im2col(&wrong).is_err());
        let wrong_cols = Tensor::zeros(&[9, 5]);
        assert!(lowering.col2im(&wrong_cols).is_err());
    }
}

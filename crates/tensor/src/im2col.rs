//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution over a `[C, H, W]` input with `[O, C, K, K]` filters is
//! computed as a matrix product between the filter matrix `[O, C·K·K]` and
//! the column matrix `[C·K·K, H_out·W_out]` produced by [`im2col`]. The
//! backward pass uses [`col2im`] to scatter column gradients back into image
//! layout. A channel-pruned layer lowers and scatters only its kept input
//! channels ([`im2col_select_batch_into`], [`col2im_select_into`]), so its
//! product runs at depth `kept·K·K`.
//!
//! Unlike the arithmetic kernels, the lowerings deliberately have **no**
//! runtime ISA tiers (see [`crate::dispatch`]): they move values without
//! computing on them, and the hoisted-bounds hot region of every row is a
//! single contiguous `copy_from_slice` (a `memcpy`) for the stride-1
//! convolutions the backbone uses — explicit vector code could not beat it,
//! and identical data movement on every tier is trivially bit-identical.

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
    /// Output height of the convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width of the convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
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
        if self.in_h + 2 * self.padding < self.kernel || self.in_w + 2 * self.padding < self.kernel
        {
            return Err(TensorError::InvalidConvGeometry(format!(
                "kernel {} larger than padded input {}x{}",
                self.kernel,
                self.in_h + 2 * self.padding,
                self.in_w + 2 * self.padding
            )));
        }
        Ok(())
    }
}

impl Conv2dGeometry {
    /// Number of rows of the column matrix [`im2col`] produces
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

/// The hoisted padding bounds of one `(ky, kx)` kernel offset: for a fixed
/// offset the valid output range is computable in closed form, so the hot
/// middle region of every row is a branch-free copy (a straight memcpy for
/// stride 1). The bounds depend only on the geometry and `(ky, kx)` — not on
/// the channel or sample — which is why the batched lowering computes them
/// once per offset and reuses them across the whole `channels × batch` sweep.
struct KernelOffsetBounds {
    shift: isize,
    vshift: isize,
    ox_lo: usize,
    ox_hi: usize,
    oy_lo: usize,
    oy_hi: usize,
}

impl KernelOffsetBounds {
    fn new(geom: &Conv2dGeometry, ky: usize, kx: usize) -> Self {
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let (stride, in_h, in_w) = (geom.stride, geom.in_h, geom.in_w);
        let shift = kx as isize - geom.padding as isize; // ix = ox·s + shift
        let ox_lo = if shift < 0 { ((-shift) as usize).div_ceil(stride).min(out_w) } else { 0 };
        let last = in_w as isize - 1 - shift;
        let ox_hi = if last < 0 { 0 } else { (last as usize / stride + 1).min(out_w) };
        let ox_hi = ox_hi.max(ox_lo);
        // Same bounds in y: rows fully inside the padding are zeroed with
        // single contiguous fills above and below the valid band.
        let vshift = ky as isize - geom.padding as isize; // iy = oy·s + vshift
        let oy_lo = if vshift < 0 { ((-vshift) as usize).div_ceil(stride).min(out_h) } else { 0 };
        let vlast = in_h as isize - 1 - vshift;
        let oy_hi = if vlast < 0 { 0 } else { (vlast as usize / stride + 1).min(out_h) };
        let oy_hi = oy_hi.max(oy_lo);
        KernelOffsetBounds { shift, vshift, ox_lo, ox_hi, oy_lo, oy_hi }
    }

    /// Lowers one channel plane's `(ky, kx)` row section into `out_row`
    /// (`out_h·out_w` cells), writing every cell including the padding, which
    /// is filled with `pad` (`0.0` for real activations, the quantization
    /// zero point for integer codes — both encode the real value zero).
    ///
    /// Generic over the scalar type so the `f32` path and the quantized
    /// (`i8` code) path share one lowering: the loop moves values without
    /// arithmetic, so the per-sample layout is identical for every element
    /// type.
    fn lower_plane<T: Copy>(&self, geom: &Conv2dGeometry, chan: &[T], out_row: &mut [T], pad: T) {
        let out_w = geom.out_w();
        let (stride, in_w) = (geom.stride, geom.in_w);
        out_row[..self.oy_lo * out_w].fill(pad);
        out_row[self.oy_hi * out_w..].fill(pad);
        for oy in self.oy_lo..self.oy_hi {
            let iy = (oy * stride) as isize + self.vshift;
            let orow = &mut out_row[oy * out_w..(oy + 1) * out_w];
            let src = &chan[iy as usize * in_w..(iy as usize + 1) * in_w];
            orow[..self.ox_lo].fill(pad);
            orow[self.ox_hi..].fill(pad);
            if self.ox_lo >= self.ox_hi {
                continue;
            }
            let start = ((self.ox_lo * stride) as isize + self.shift) as usize;
            if stride == 1 {
                orow[self.ox_lo..self.ox_hi]
                    .copy_from_slice(&src[start..start + (self.ox_hi - self.ox_lo)]);
            } else {
                let mut ix = start;
                for o in &mut orow[self.ox_lo..self.ox_hi] {
                    *o = src[ix];
                    ix += stride;
                }
            }
        }
    }
}

/// The one lowering loop behind [`im2col_batch_into`] and
/// [`im2col_select_batch_into`]: validates lengths against `batch`
/// copies of `geom`, then fills the `[len(channels)·K², batch·out_h·out_w]`
/// column buffer with the rows of the listed input channels, in list order
/// (padding cells get `pad`). The full lowering passes
/// `0..geom.in_channels`.
fn lower_batch<T: Copy>(
    input: &[T],
    batch: usize,
    geom: &Conv2dGeometry,
    pad: T,
    channels: impl ExactSizeIterator<Item = usize> + Clone,
    out: &mut [T],
) -> Result<()> {
    geom.validate()?;
    let plane = geom.in_h * geom.in_w;
    let in_len = geom.in_channels * batch * plane;
    if input.len() != in_len {
        return Err(TensorError::DataShapeMismatch { data_len: input.len(), shape_len: in_len });
    }
    if let Some(bad) = channels.clone().find(|&c| c >= geom.in_channels) {
        return Err(TensorError::InvalidConvGeometry(format!(
            "selected channel {bad} out of range for {} input channels",
            geom.in_channels
        )));
    }
    let k = geom.kernel;
    let cols = geom.col_cols();
    let row_stride = batch * cols;
    let expected = channels.len() * k * k * row_stride;
    if out.len() != expected {
        return Err(TensorError::DataShapeMismatch { data_len: out.len(), shape_len: expected });
    }
    for ky in 0..k {
        for kx in 0..k {
            let bounds = KernelOffsetBounds::new(geom, ky, kx);
            for (ci, c) in channels.clone().enumerate() {
                let row = (ci * k + ky) * k + kx;
                let out_row = &mut out[row * row_stride..(row + 1) * row_stride];
                for (s, block) in out_row.chunks_exact_mut(cols).enumerate() {
                    let chan = &input[(c * batch + s) * plane..][..plane];
                    bounds.lower_plane(geom, chan, block, pad);
                }
            }
        }
    }
    Ok(())
}

/// Lowers a batch of `[C, H, W]` images into one wide column matrix.
///
/// The input uses the *channel-major wide* batch layout `[C, batch, H, W]`
/// (sample `s` of channel `c` starts at `(c·batch + s)·H·W`; for `batch == 1`
/// this is exactly the ordinary `[C, H, W]` layout, so a single image is a
/// batch of one). The output is the `[C·K·K, batch·out_h·out_w]` column
/// matrix in which sample `s` occupies columns `s·out_h·out_w ..` — one
/// contiguous activation matrix a single widened GEMM can multiply against
/// the filter matrix. Sample `s`'s column block is bit-identical to the
/// lowering of a batch of one holding that sample alone. Every output cell —
/// including zero padding — is written, so the buffer needs no prior
/// clearing. Never allocates.
///
/// # Errors
///
/// Returns an error when the geometry is invalid or either buffer length does
/// not match `batch` copies of it.
pub fn im2col_batch_into(
    input: &[f32],
    batch: usize,
    geom: &Conv2dGeometry,
    out: &mut [f32],
) -> Result<()> {
    lower_batch(input, batch, geom, 0.0, 0..geom.in_channels, out)
}

/// Channel-selective batched `im2col`: lowers only the listed input channels
/// of a batch of images, producing a `[len(channels)·K², batch·out_h·out_w]`
/// column matrix with one row block per listed channel, in list order.
///
/// Layouts match [`im2col_batch_into`] (channel-major wide input); padding
/// cells are filled with `pad`: `0.0` for real activations, the activation
/// quantization's zero point for `i8` codes (whose real value is exactly
/// `0.0`, so the lowered codes represent the same padded image the `f32`
/// path sees).
///
/// Channel pruning removes whole input channels: a pruned layer lowers its
/// kept channels only, and its product runs over the matching columns of
/// the filter matrix, so it does proportionally less work — the
/// deployed-MCU behaviour ("pruned channels are physically removed"). With
/// the identity channel list every cell matches [`im2col_batch_into`].
///
/// # Errors
///
/// Returns an error when the geometry is invalid, a channel index is out of
/// range, or a buffer length does not match.
pub fn im2col_select_batch_into<T: Copy>(
    input: &[T],
    batch: usize,
    geom: &Conv2dGeometry,
    pad: T,
    channels: &[usize],
    out: &mut [T],
) -> Result<()> {
    lower_batch(input, batch, geom, pad, channels.iter().copied(), out)
}

/// Lowers a `[C, H, W]` image into a `[C·K·K, out_h·out_w]` column matrix.
///
/// Allocating wrapper over [`im2col_batch_into`] at `batch == 1`; both
/// produce bit-identical columns.
///
/// # Errors
///
/// Returns an error when the input tensor is not rank 3, its channel/height/
/// width do not match `geom`, or the geometry itself is invalid.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    geom.validate()?;
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
    im2col_batch_into(input.as_slice(), 1, geom, &mut out)?;
    Tensor::from_vec(out, &[geom.col_rows(), geom.col_cols()])
}

/// The one scatter loop behind [`col2im_into`], [`col2im_select_into`] and
/// [`col2im`]: zeroes the `[C, H, W]` image, then adds the row block `ci` of
/// `cols` into channel `channels[ci]`'s plane (the adjoint of
/// [`lower_batch`] at `batch == 1`).
fn scatter(
    cols: &[f32],
    geom: &Conv2dGeometry,
    channels: impl ExactSizeIterator<Item = usize>,
    image: &mut [f32],
) -> Result<()> {
    geom.validate()?;
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let ncols = out_h * out_w;
    let expected = channels.len() * k * k * ncols;
    if cols.len() != expected {
        return Err(TensorError::DataShapeMismatch { data_len: cols.len(), shape_len: expected });
    }
    let image_len = geom.in_channels * geom.in_h * geom.in_w;
    if image.len() != image_len {
        return Err(TensorError::DataShapeMismatch { data_len: image.len(), shape_len: image_len });
    }
    image.fill(0.0);
    for (ci, c) in channels.enumerate() {
        if c >= geom.in_channels {
            return Err(TensorError::InvalidConvGeometry(format!(
                "selected channel {c} out of range for {} input channels",
                geom.in_channels
            )));
        }
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        let col = oy * out_w + ox;
                        image[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize] +=
                            cols[row * ncols + col];
                    }
                }
            }
        }
    }
    Ok(())
}

/// Scatters a `[C·K·K, out_h·out_w]` column-gradient slice back into a
/// caller-provided `[C, H, W]` image buffer (the adjoint of
/// [`im2col_batch_into`] at `batch == 1`).
/// The image buffer is zeroed first, then accumulated into; never allocates.
///
/// # Errors
///
/// Returns an error when the geometry is invalid or either buffer length does
/// not match it.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, image: &mut [f32]) -> Result<()> {
    scatter(cols, geom, 0..geom.in_channels, image)
}

/// Scatters a `[len(channels)·K·K, out_h·out_w]` column-gradient slice back
/// into a caller-provided `[C, H, W]` image buffer: the adjoint of
/// [`im2col_select_batch_into`] at `batch == 1`. The image is zeroed first
/// and row block `ci` then accumulates into channel `channels[ci]`, so a
/// channel the list leaves out (a pruned one) reads exactly `+0.0`. With the
/// identity list this is [`col2im_into`]. Never allocates.
///
/// # Errors
///
/// Returns an error when the geometry is invalid, a channel index is out of
/// range, or either buffer length does not match.
pub fn col2im_select_into(
    cols: &[f32],
    geom: &Conv2dGeometry,
    channels: &[usize],
    image: &mut [f32],
) -> Result<()> {
    scatter(cols, geom, channels.iter().copied(), image)
}

/// Scatters a `[C·K·K, out_h·out_w]` column-gradient matrix back into a
/// `[C, H, W]` image-gradient tensor (the adjoint of [`im2col`]).
///
/// Allocating wrapper over [`col2im_into`]; both produce bit-identical images.
///
/// # Errors
///
/// Returns an error when the column matrix shape does not match `geom` or the
/// geometry is invalid.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    geom.validate()?;
    let expected = [geom.col_rows(), geom.col_cols()];
    if cols.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: expected.to_vec(),
        });
    }
    let mut image = Tensor::zeros(&[geom.in_channels, geom.in_h, geom.in_w]);
    scatter(cols.as_slice(), geom, 0..geom.in_channels, image.as_mut_slice())?;
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_3x3_stride1_nopad() -> Conv2dGeometry {
        Conv2dGeometry { in_channels: 1, in_h: 4, in_w: 4, kernel: 3, stride: 1, padding: 0 }
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
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        let mut g = geom_3x3_stride1_nopad();
        g.stride = 0;
        assert!(g.validate().is_err());
        let mut g = geom_3x3_stride1_nopad();
        g.kernel = 9;
        assert!(g.validate().is_err());
    }

    #[test]
    fn im2col_produces_expected_columns() {
        let g = geom_3x3_stride1_nopad();
        let input = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 4, 4]).unwrap();
        let cols = im2col(&input, &g).unwrap();
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
        let cols = im2col(&input, &g).unwrap();
        // Top-left output position: only the bottom-right 2x2 of the kernel
        // overlaps real pixels, so exactly 4 ones.
        let first_col_sum: f32 = (0..9).map(|r| cols.get(&[r, 0]).unwrap()).sum();
        assert_eq!(first_col_sum, 4.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_counting() {
        // col2im(im2col(ones)) counts how many patches cover each pixel.
        let g = geom_3x3_stride1_nopad();
        let input = Tensor::ones(&[1, 4, 4]);
        let cols = im2col(&input, &g).unwrap();
        let back = col2im(&cols, &g).unwrap();
        // Centre pixels are covered by all 4 patches, corners by exactly 1.
        assert_eq!(back.get(&[0, 0, 0]), Some(1.0));
        assert_eq!(back.get(&[0, 1, 1]), Some(4.0));
        assert_eq!(back.get(&[0, 3, 3]), Some(1.0));
    }

    #[test]
    fn batched_im2col_matches_per_sample_im2col() {
        let g =
            Conv2dGeometry { in_channels: 2, in_h: 5, in_w: 4, kernel: 3, stride: 2, padding: 1 };
        let batch = 3;
        let plane = g.in_h * g.in_w;
        // Wide layout [C, batch, H, W] with distinct per-(channel, sample) data.
        let wide: Vec<f32> = (0..g.in_channels * batch * plane).map(|i| (i as f32).sin()).collect();
        let mut wide_cols = vec![f32::NAN; g.col_len() * batch];
        im2col_batch_into(&wide, batch, &g, &mut wide_cols).unwrap();
        let cols = g.col_cols();
        for s in 0..batch {
            // Reassemble sample s in plain [C, H, W] layout and lower it alone.
            let mut single = Vec::with_capacity(g.in_channels * plane);
            for c in 0..g.in_channels {
                single.extend_from_slice(&wide[(c * batch + s) * plane..][..plane]);
            }
            let mut single_cols = vec![0.0f32; g.col_len()];
            im2col_batch_into(&single, 1, &g, &mut single_cols).unwrap();
            for r in 0..g.col_rows() {
                assert_eq!(
                    &wide_cols[r * batch * cols + s * cols..][..cols],
                    &single_cols[r * cols..][..cols],
                    "sample {s} row {r}"
                );
            }
        }
    }

    #[test]
    fn batched_im2col_validates_lengths() {
        let g = geom_3x3_stride1_nopad();
        let mut out = vec![0.0f32; g.col_len() * 2];
        assert!(im2col_batch_into(&[0.0; 16], 2, &g, &mut out).is_err());
        let ok_input = vec![0.0; 32];
        let mut short = vec![0.0f32; g.col_len()];
        assert!(im2col_batch_into(&ok_input, 2, &g, &mut short).is_err());
        assert!(im2col_batch_into(&ok_input, 2, &g, &mut out).is_ok());
    }

    #[test]
    fn quantized_im2col_matches_float_lowering_cell_for_cell() {
        // The generic lowering moves values without arithmetic, so lowering
        // integer codes must place exactly the same per-cell values as
        // lowering the same values as floats — with `pad` where the float
        // path writes its zero fill.
        let g =
            Conv2dGeometry { in_channels: 2, in_h: 4, in_w: 5, kernel: 3, stride: 2, padding: 1 };
        let batch = 2;
        let plane = g.in_h * g.in_w;
        // Strictly nonzero codes, so a zero in the float lowering can only be
        // padding (and must therefore hold `pad` in the code lowering).
        let codes: Vec<i8> = (0..g.in_channels * batch * plane)
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
        im2col_select_batch_into(&codes, batch, &g, pad, &all, &mut lowered).unwrap();
        let floats: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
        let mut lowered_f = vec![f32::NAN; g.col_len() * batch];
        im2col_batch_into(&floats, batch, &g, &mut lowered_f).unwrap();
        for (i, (&c, &f)) in lowered.iter().zip(&lowered_f).enumerate() {
            let expected = if f == 0.0 { pad } else { f as i8 };
            assert_eq!(c, expected, "cell {i}");
        }
        // Length validation mirrors the float path.
        let mut short = vec![0i8; g.col_len()];
        assert!(im2col_select_batch_into(&codes, batch, &g, pad, &all, &mut short).is_err());
        // Channel selection: a subset extracts exactly its channels' row
        // blocks of the full lowering.
        let rows_per_chan = g.kernel * g.kernel * g.col_cols() * batch;
        let mut chan1 = vec![0i8; rows_per_chan];
        im2col_select_batch_into(&codes, batch, &g, pad, &[1], &mut chan1).unwrap();
        assert_eq!(chan1, lowered[rows_per_chan..]);
        assert!(im2col_select_batch_into(&codes, batch, &g, pad, &[2], &mut chan1).is_err());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let g = geom_3x3_stride1_nopad();
        let wrong = Tensor::zeros(&[1, 5, 5]);
        assert!(im2col(&wrong, &g).is_err());
        let wrong_cols = Tensor::zeros(&[9, 5]);
        assert!(col2im(&wrong_cols, &g).is_err());
    }
}

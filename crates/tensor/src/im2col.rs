//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution over a `[C, H, W]` input with `[O, C, K, K]` filters is
//! computed as a matrix product between the filter matrix `[O, C·K·K]` and
//! the column matrix `[C·K·K, H_out·W_out]` a lowering writes; the backward
//! pass scatters column gradients back into image layout. A channel-pruned
//! layer lowers and scatters only its kept input channels, so its product
//! runs at depth `kept·K·K`.
//!
//! Both directions go through one [`ConvLowering`] per geometry: a `u16`
//! table, built once, naming the input-plane cell behind every
//! `(ky, kx, oy, ox)`, or a pad cell just past the plane. A lowering copies
//! each channel plane and the pad value into a scratch and gathers every
//! column row through the table; the scatter adds back through the same
//! table. The table replaced per-row padding bounds, whose hot region was a
//! `copy_from_slice` per lowered row: after LeNet's first convolution the
//! planes are 8×8 and 4×4, so each row was a 4- or 8-byte copy between two
//! fills, and the per-row calls dominated. Pinned to one vCPU of the
//! 2-vCPU VNNI dev box, best of 7 rounds, the six LeNet convolutions at the
//! served policy's kept widths lowered at batch 8 in 498 µs (`i8`) and
//! 365 µs (`f32`) by rows, and in 146 and 142 µs through the table; the
//! full-width `f32` `col2im` at batch 1 went from 148 to 65 µs. A gathered
//! cell costs no bounds check only because the scratch is a
//! `[T; PLANE_CELLS]` indexed by a `u16`: the same gather over a
//! bounds-checked slice of one plane and its pad cell was 1.6–1.7× slower.
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

/// Cells of a plane scratch: one for every `u16` index, so each read a
/// [`ConvLowering`] gathers through its table is in bounds by type. A plane
/// of at most `PLANE_CELLS - 1` cells can be lowered; its pad cell is the
/// one at index `H·W`, just past the plane.
pub const PLANE_CELLS: usize = 1 << 16;

/// A zeroed plane scratch of [`PLANE_CELLS`] cells, the one a
/// [`ConvLowering`] gathers from without a bounds check. It is allocated
/// zeroed (`calloc`), and a lowering writes only one plane and its pad cell
/// of it, so where the allocator maps fresh pages only those become
/// resident.
pub fn plane_scratch<T: Copy + Default>() -> Box<[T; PLANE_CELLS]> {
    match vec![T::default(); PLANE_CELLS].into_boxed_slice().try_into() {
        Ok(scratch) => scratch,
        Err(_) => unreachable!("the vector holds exactly PLANE_CELLS cells"),
    }
}

/// The lowering of one convolution geometry, in both directions: a `u16`
/// table holding, for every kernel offset `(ky, kx)` and output cell
/// `(oy, ox)`, the input-plane cell `iy·W + ix` that column reads, or the
/// pad cell `H·W` when the read falls in the padding.
///
/// The table depends on the geometry alone, so it is built once per layer
/// (a [`Conv2dGeometry`] fixes a convolution's shapes) and every pass reads
/// it. [`Self::lower_into`] copies one channel plane and the pad value into a
/// scratch and fills the channel's `K²` column rows by gathering through the
/// table; [`Self::scatter_into`] adds each column row back through the same
/// table. Neither loop computes a bound: a scratch of [`PLANE_CELLS`] cells
/// (`[T; PLANE_CELLS]`) is in bounds for every `u16`, so the compiler drops
/// the check on each gathered or scattered cell. Any slice longer than the
/// plane also works, at the price of that check (the allocating
/// [`Self::im2col`] and [`Self::col2im`] pass one of `H·W + 1` cells).
///
/// # Example
///
/// ```
/// use ie_tensor::{plane_scratch, Conv2dGeometry, ConvLowering};
///
/// let geom = Conv2dGeometry { in_channels: 1, in_h: 2, in_w: 2, kernel: 2, stride: 1, padding: 1 };
/// let lowering = ConvLowering::new(geom)?;
/// let mut scratch = plane_scratch::<f32>();
/// let mut cols = vec![0.0; geom.col_len()];
/// lowering.lower_into(&[1.0, 2.0, 3.0, 4.0], 1, 0.0, 0..1, &mut *scratch, &mut cols)?;
/// // Kernel offset (0, 0) reads the pad cell except where the window's
/// // top-left corner lands on the plane.
/// assert_eq!(cols[..9], [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
/// # Ok::<(), ie_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvLowering {
    geom: Conv2dGeometry,
    /// `[K·K, out_h·out_w]` row-major plane indices.
    table: Vec<u16>,
}

impl ConvLowering {
    /// Builds the table of `geom`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvGeometry`] when the geometry is
    /// invalid ([`Conv2dGeometry::validate`]), its input plane has more than
    /// `PLANE_CELLS - 1` cells (a `u16` cannot index it and its pad cell), or
    /// its table cannot be allocated.
    pub fn new(geom: Conv2dGeometry) -> Result<Self> {
        geom.validate()?;
        let too_large = || {
            TensorError::InvalidConvGeometry(format!(
                "input plane {}x{} exceeds the {} cells a lowering table indexes",
                geom.in_h,
                geom.in_w,
                PLANE_CELLS - 1
            ))
        };
        let plane = geom.in_h.checked_mul(geom.in_w).ok_or_else(too_large)?;
        let index = |cell: usize| u16::try_from(cell).map_err(|_| too_large());
        let pad = index(plane)?;
        let (out_h, out_w, k) = (geom.out_h(), geom.out_w(), geom.kernel);
        let len = k.checked_mul(k).and_then(|n| n.checked_mul(out_h)?.checked_mul(out_w));
        let mut table = Vec::new();
        len.and_then(|n| table.try_reserve_exact(n).ok()).ok_or_else(|| {
            TensorError::InvalidConvGeometry(format!(
                "the {k}x{k} kernel's lowering table over a {out_h}x{out_w} output cannot be \
                 allocated"
            ))
        })?;
        // Input coordinate `o·stride + kernel offset − padding`, if it lies
        // inside `0..size`.
        let inside = |o: usize, offset: usize, size: usize| {
            (o * geom.stride + offset).checked_sub(geom.padding).filter(|&i| i < size)
        };
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..out_h {
                    let iy = inside(oy, ky, geom.in_h);
                    for ox in 0..out_w {
                        table.push(match (iy, inside(ox, kx, geom.in_w)) {
                            (Some(iy), Some(ix)) => index(iy * geom.in_w + ix)?,
                            _ => pad,
                        });
                    }
                }
            }
        }
        Ok(ConvLowering { geom, table })
    }

    /// Cells of one input plane (`H·W`), which is also the pad cell's index.
    fn plane(&self) -> usize {
        self.geom.in_h * self.geom.in_w
    }

    /// Checks the channel list against the geometry and the scratch against
    /// the plane, and returns the scratch as a slice.
    fn check<'a, T, S: AsMut<[T]> + ?Sized>(
        &self,
        mut channels: impl Iterator<Item = usize>,
        scratch: &'a mut S,
    ) -> Result<&'a mut [T]> {
        if let Some(bad) = channels.find(|&c| c >= self.geom.in_channels) {
            return Err(TensorError::InvalidConvGeometry(format!(
                "selected channel {bad} out of range for {} input channels",
                self.geom.in_channels
            )));
        }
        let scratch = scratch.as_mut();
        if scratch.len() <= self.plane() {
            return Err(TensorError::DataShapeMismatch {
                data_len: scratch.len(),
                shape_len: self.plane() + 1,
            });
        }
        Ok(scratch)
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
    /// at depth `kept·K²`. `scratch` holds one plane and its pad cell at a
    /// time; see [`ConvLowering`] for why a `[T; PLANE_CELLS]` is the fast
    /// one.
    ///
    /// # Errors
    ///
    /// Returns an error when a channel is out of range, the scratch is not
    /// longer than one plane, or a buffer length does not match `batch`
    /// copies of the geometry.
    pub fn lower_into<T: Copy, S: AsMut<[T]> + ?Sized>(
        &self,
        input: &[T],
        batch: usize,
        pad: T,
        channels: impl ExactSizeIterator<Item = usize> + Clone,
        scratch: &mut S,
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
        let kk = self.geom.kernel * self.geom.kernel;
        let cols = self.geom.col_cols();
        let row_stride = batch * cols;
        let expected = channels.len() * kk * row_stride;
        if out.len() != expected {
            return Err(TensorError::DataShapeMismatch {
                data_len: out.len(),
                shape_len: expected,
            });
        }
        let scratch = self.check(channels.clone(), scratch)?;
        for (ci, c) in channels.enumerate() {
            for s in 0..batch {
                scratch[..plane].copy_from_slice(&input[(c * batch + s) * plane..][..plane]);
                scratch[plane] = pad;
                for (r, offsets) in self.table.chunks_exact(cols).enumerate() {
                    let row = &mut out[(ci * kk + r) * row_stride + s * cols..][..cols];
                    for (o, &i) in row.iter_mut().zip(offsets) {
                        *o = scratch[usize::from(i)];
                    }
                }
            }
        }
        Ok(())
    }

    /// Scatters a `[len(channels)·K², out_h·out_w]` column-gradient matrix
    /// back into a `[C, H, W]` image: the adjoint of [`Self::lower_into`] at
    /// `batch == 1`. The image is zeroed first and row block `ci` then adds
    /// into channel `channels[ci]`'s plane, so a channel the list leaves out
    /// (a pruned one) reads exactly `+0.0`. Each plane is staged in
    /// `scratch`; a column the table sends to the pad cell adds nothing (one
    /// compare per cell: adding it into the pad cell would chain every
    /// padded add through that one cell, which made the 4×4 planes slower
    /// than the bounds-checked scatter). Every plane cell receives its adds
    /// in one fixed order: list position, then `ky`, `kx`, `oy`, `ox`, each
    /// ascending. Never allocates.
    ///
    /// # Errors
    ///
    /// Returns an error when a channel is out of range, the scratch is not
    /// longer than one plane, or either buffer length does not match the
    /// geometry.
    pub fn scatter_into<S: AsMut<[f32]> + ?Sized>(
        &self,
        cols: &[f32],
        channels: impl ExactSizeIterator<Item = usize> + Clone,
        scratch: &mut S,
        image: &mut [f32],
    ) -> Result<()> {
        let plane = self.plane();
        let kk = self.geom.kernel * self.geom.kernel;
        let ncols = self.geom.col_cols();
        let expected = channels.len() * kk * ncols;
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
        let scratch = self.check(channels.clone(), scratch)?;
        image.fill(0.0);
        for (ci, c) in channels.enumerate() {
            let dst = &mut image[c * plane..][..plane];
            scratch[..plane].copy_from_slice(dst);
            for (r, offsets) in self.table.chunks_exact(ncols).enumerate() {
                let row = &cols[(ci * kk + r) * ncols..][..ncols];
                for (&v, &i) in row.iter().zip(offsets) {
                    let i = usize::from(i);
                    if i != plane {
                        scratch[i] += v;
                    }
                }
            }
            dst.copy_from_slice(&scratch[..plane]);
        }
        Ok(())
    }

    /// Lowers a `[C, H, W]` image into a `[C·K·K, out_h·out_w]` column
    /// matrix: [`Self::lower_into`] over every channel at `batch == 1`, with
    /// a scratch of `H·W + 1` cells allocated for the call.
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
        let mut scratch = vec![0.0f32; self.plane() + 1];
        let all = 0..geom.in_channels;
        self.lower_into(input.as_slice(), 1, 0.0, all, scratch.as_mut_slice(), &mut out)?;
        Tensor::from_vec(out, &[geom.col_rows(), geom.col_cols()])
    }

    /// Scatters a `[C·K·K, out_h·out_w]` column-gradient matrix back into a
    /// `[C, H, W]` image-gradient tensor (the adjoint of [`Self::im2col`]):
    /// [`Self::scatter_into`] over every channel, with a scratch of
    /// `H·W + 1` cells allocated for the call.
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
        let mut scratch = vec![0.0f32; self.plane() + 1];
        let all = 0..geom.in_channels;
        self.scatter_into(cols.as_slice(), all, scratch.as_mut_slice(), image.as_mut_slice())?;
        Ok(image)
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

    fn scratch<T: Copy + Default>() -> Box<[T; PLANE_CELLS]> {
        plane_scratch()
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
        // A plane a `u16` cannot index together with its pad cell.
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 256,
            in_w: 256,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        assert!(matches!(ConvLowering::new(g), Err(TensorError::InvalidConvGeometry(_))));
        let g = Conv2dGeometry { in_h: 65_535, in_w: 1, ..g };
        assert_eq!(ConvLowering::new(g).unwrap().table.len(), 65_535);
        let g = Conv2dGeometry { in_h: usize::MAX, in_w: 2, ..g };
        assert!(ConvLowering::new(g).is_err(), "an overflowing plane is refused, not wrapped");
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
        let mut plane = scratch::<f32>();
        let batch = 3;
        let plane_len = g.in_h * g.in_w;
        // Wide layout [C, batch, H, W] with distinct per-(channel, sample) data.
        let wide: Vec<f32> =
            (0..g.in_channels * batch * plane_len).map(|i| (i as f32).sin()).collect();
        let mut wide_cols = vec![f32::NAN; g.col_len() * batch];
        lowering.lower_into(&wide, batch, 0.0, 0..2, &mut *plane, &mut wide_cols).unwrap();
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
        let mut plane = scratch::<f32>();
        let mut out = vec![0.0f32; g.col_len() * 2];
        assert!(lowering.lower_into(&[0.0; 16], 2, 0.0, 0..1, &mut *plane, &mut out).is_err());
        let ok_input = vec![0.0; 32];
        let mut short = vec![0.0f32; g.col_len()];
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut *plane, &mut short).is_err());
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut *plane, &mut out).is_ok());
        // A scratch must hold the plane and its pad cell.
        let mut tight = [0.0f32; 17];
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut tight[..], &mut out).is_ok());
        assert!(lowering.lower_into(&ok_input, 2, 0.0, 0..1, &mut tight[..16], &mut out).is_err());
        let mut image = vec![0.0f32; 16];
        assert!(lowering.scatter_into(&out[..36], 0..1, &mut tight[..16], &mut image).is_err());
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
        let (mut plane8, mut plane) = (scratch::<i8>(), scratch::<f32>());
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
        lowering.lower_into(&codes, batch, pad, all_iter, &mut *plane8, &mut lowered).unwrap();
        let floats: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
        let mut lowered_f = vec![f32::NAN; g.col_len() * batch];
        lowering.lower_into(&floats, batch, 0.0, 0..2, &mut *plane, &mut lowered_f).unwrap();
        for (i, (&c, &f)) in lowered.iter().zip(&lowered_f).enumerate() {
            let expected = if f == 0.0 { pad } else { f as i8 };
            assert_eq!(c, expected, "cell {i}");
        }
        // Length validation mirrors the float path.
        let mut short = vec![0i8; g.col_len()];
        assert!(lowering.lower_into(&codes, batch, pad, 0..2, &mut *plane8, &mut short).is_err());
        // Channel selection: a subset extracts exactly its channels' row
        // blocks of the full lowering.
        let rows_per_chan = g.kernel * g.kernel * g.col_cols() * batch;
        let mut chan1 = vec![0i8; rows_per_chan];
        lowering.lower_into(&codes, batch, pad, 1..2, &mut *plane8, &mut chan1).unwrap();
        assert_eq!(chan1, lowered[rows_per_chan..]);
        assert!(lowering.lower_into(&codes, batch, pad, 2..3, &mut *plane8, &mut chan1).is_err());
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

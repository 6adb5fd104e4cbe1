use crate::layer::Pruning;
use crate::{NnError, Result};
use ie_tensor::{gemm_into, Conv2dGeometry, ConvLowering, Tensor, TensorError};
use rand::Rng;

/// A 2-D convolution layer over `[C, H, W]` inputs.
///
/// Filters are stored as `[out_channels, in_channels, k, k]`. The forward
/// pass lowers the input with `im2col` and performs a single matrix product,
/// which is also how the MCU deployment in the paper executes convolutions.
/// The layer builds its geometry's [`ConvLowering`] table once, at
/// construction, and every lowering and input-gradient scatter of every
/// engine reads it.
///
/// Channel pruning ([`Self::set_pruned_channels`]) removes input channels the
/// way the deployed MCU does: from then on every forward and backward pass
/// lowers only the kept channels and multiplies by the kept filter columns,
/// at depth `kept·k²` instead of `in_channels·k²`. The filter tensor keeps
/// its full shape, with the pruned channels' weights held at zero, so the
/// result equals the full-width product bit for bit (see
/// [`Self::forward_batch_into`]).
///
/// # Example
///
/// ```
/// use ie_nn::Conv2d;
/// use ie_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1, 16, 16);
/// let x = Tensor::zeros(&[3, 16, 16]);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.dims(), &[8, 16, 16]);
/// conv.set_pruned_channels(&[1])?;
/// assert_eq!(conv.forward(&x)?.dims(), &[8, 16, 16]);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    geom: Conv2dGeometry,
    /// The geometry's lowering table, or the error a geometry no table can
    /// lower gives every pass.
    lowering: std::result::Result<ConvLowering, TensorError>,
    out_channels: usize,
    pruning: Pruning,
}

impl Conv2d {
    /// Creates a convolution layer with Xavier-uniform initialised filters.
    ///
    /// `in_h`/`in_w` fix the expected input spatial size; the paper's MCU
    /// deployment is fully static, so carrying the geometry in the layer keeps
    /// FLOPs accounting exact.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let geom = Conv2dGeometry { in_channels, in_h, in_w, kernel, stride, padding };
        Conv2d {
            weight: Tensor::uniform(rng, &[out_channels, in_channels, kernel, kernel], limit),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            geom,
            lowering: ConvLowering::new(geom),
            out_channels,
            pruning: Pruning::none(in_channels),
        }
    }

    /// Removes the listed input channels (any order): their filter weights
    /// are zeroed, and from then on the forward pass lowers and multiplies
    /// only the kept channels, while the backward pass gives every pruned
    /// weight a gradient of exactly `+0.0` and writes `+0.0` into the pruned
    /// channels' input gradient. A pruned weight therefore stays zero through
    /// training. An empty list keeps every channel again.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidPruning`] (and leaves the layer unchanged)
    /// for a channel out of range, a channel listed twice, or a list that
    /// names every input channel.
    pub fn set_pruned_channels(&mut self, channels: &[usize]) -> Result<()> {
        self.pruning = Pruning::new(self.geom.in_channels, channels)?;
        let block = self.geom.kernel * self.geom.kernel;
        self.pruning.zero_pruned(self.weight.as_mut_slice(), self.geom.col_rows(), block);
        Ok(())
    }

    /// The input channels pruning removed, ascending (empty when none is).
    pub fn pruned_channels(&self) -> &[usize] {
        self.pruning.pruned()
    }

    /// The pruned and kept input channels, for the kernels that skip the pruned ones.
    pub(crate) fn pruning(&self) -> &Pruning {
        &self.pruning
    }

    /// The convolution geometry (input size, kernel, stride, padding).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// The geometry's lowering table.
    ///
    /// # Errors
    ///
    /// Returns the geometry's [`TensorError::InvalidConvGeometry`] when no
    /// table can lower it (see [`ConvLowering::new`]).
    pub(crate) fn lowering(&self) -> Result<&ConvLowering> {
        self.lowering.as_ref().map_err(|e| e.clone().into())
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.geom.in_channels
    }

    /// Filter tensor, shaped `[out_channels, in_channels, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the filters (used by pruning / quantization). The
    /// forward pass never reads a pruned channel's weights, so they should
    /// stay zero: the full-width and kept-width products agree only then.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Bias vector, one entry per output channel.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Output shape `[out_channels, out_h, out_w]`.
    pub fn output_dims(&self) -> [usize; 3] {
        [self.out_channels, self.geom.out_h(), self.geom.out_w()]
    }

    /// Number of elements of the flat input this layer expects.
    pub fn input_len(&self) -> usize {
        self.geom.in_channels * self.geom.in_h * self.geom.in_w
    }

    /// Number of elements of the flat output this layer produces.
    pub fn output_len(&self) -> usize {
        self.out_channels * self.geom.out_h() * self.geom.out_w()
    }

    /// The GEMM depth: `k²` rows of the lowering per kept input channel.
    fn depth(&self) -> usize {
        self.pruning.kept_len() * self.geom.kernel * self.geom.kernel
    }

    /// Number of elements the `im2col` scratch buffer needs per sample: the
    /// kept channels' rows only.
    pub fn col_len(&self) -> usize {
        self.depth() * self.geom.col_cols()
    }

    /// Number of elements of the filter matrix at the kept width,
    /// `[out_channels, kept·k²]` (what [`Self::forward_batch_into`]'s weight
    /// scratch must hold for a pruned layer).
    pub fn kept_weight_len(&self) -> usize {
        self.out_channels * self.depth()
    }

    /// Gathers the kept columns of `weight` (flattened `[O, C·K·K]`) into
    /// `dst` as the `[O, kept·K·K]` filter matrix, and returns that prefix of
    /// `dst`; for an unpruned layer this is a plain copy.
    pub(crate) fn compact_weight_into<'a>(
        &self,
        weight: &[f32],
        dst: &'a mut [f32],
    ) -> &'a mut [f32] {
        let block = self.geom.kernel * self.geom.kernel;
        let dst = &mut dst[..self.kept_weight_len()];
        let mut d = 0;
        for row in weight.chunks_exact(self.geom.col_rows()) {
            for run in self.pruning.kept_blocks(block) {
                let src = &row[run];
                dst[d..d + src.len()].copy_from_slice(src);
                d += src.len();
            }
        }
        dst
    }

    /// The filter matrix at the kept width: `weight` itself when no channel
    /// is pruned, else its kept columns gathered into `scratch`.
    pub(crate) fn kept_weight<'a>(&self, weight: &'a [f32], scratch: &'a mut [f32]) -> &'a [f32] {
        if self.pruning.is_pruned() {
            self.compact_weight_into(weight, scratch)
        } else {
            weight
        }
    }

    /// Allocation-free forward pass over `batch` samples: lowers the kept
    /// input channels into `col` through the layer's lowering table (one
    /// plane at a time, staged in `scratch`: a `[f32; PLANE_CELLS]` gathers
    /// without a bounds check, any slice longer than one input plane works;
    /// see [`ConvLowering`]), multiplies by the filter matrix with the
    /// bias add (and, when `fuse_relu` is set, the ReLU of a following
    /// activation layer) fused into the GEMM epilogue, and writes the
    /// activations into `out`.
    ///
    /// Input and output use the channel-major wide layout `[C, batch, H, W]`
    /// (see [`ConvLowering::lower_into`]); at `batch == 1` that is the
    /// plain `[C, H, W]` layout, so a single sample is a batch of one. The
    /// batched `im2col` lowers all samples into one
    /// `[kept·K·K, batch·out_h·out_w]` activation matrix, a single GEMM
    /// multiplies it against the filters (read in place in their native
    /// `[O, C·K·K]` row-major layout when nothing is pruned, else gathered at
    /// the kept width into `wk`), and the bias (+ fused ReLU) epilogue sweeps
    /// each output-channel row once. Per sample the results are bit-identical
    /// to a batch of one holding that sample alone: the GEMM accumulates
    /// every output element in ascending depth order regardless of the matrix
    /// width. They are also bit-identical to the full-width product with the
    /// pruned weights at zero: each skipped term is `±0·x` for a finite `x`,
    /// added to a sum that starts at `+0.0` and so is never `-0.0`. Buffer
    /// sizes must be `batch` times [`Self::input_len`], [`Self::output_len`]
    /// and [`Self::col_len`]; `wk` must hold [`Self::kept_weight_len`]
    /// elements when a channel is pruned (it is unused otherwise). At
    /// `batch == 1` without fusion this is [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when a buffer length does not
    /// match `batch` copies of the layer geometry, and the geometry's
    /// [`TensorError::InvalidConvGeometry`] when no table can lower it.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_into<S: AsMut<[f32]> + ?Sized>(
        &self,
        input: &[f32],
        out: &mut [f32],
        col: &mut [f32],
        wk: &mut [f32],
        scratch: &mut S,
        batch: usize,
        fuse_relu: bool,
    ) -> Result<()> {
        let weight = self.kept_weight(self.weight.as_slice(), wk);
        self.forward_batch_with(weight, input, out, col, scratch, batch, fuse_relu)
    }

    /// [`Self::forward_batch_into`] with an explicit filter matrix at the
    /// kept width (flattened `[O, kept·K·K]`, [`Self::kept_weight_len`]
    /// elements): the fake-quant training path substitutes the dequantised
    /// weight codes here while the bias stays full precision.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when a buffer length does not
    /// match `batch` copies of the layer geometry, and the geometry's
    /// [`TensorError::InvalidConvGeometry`] when no table can lower it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_batch_with<S: AsMut<[f32]> + ?Sized>(
        &self,
        weight: &[f32],
        input: &[f32],
        out: &mut [f32],
        col: &mut [f32],
        scratch: &mut S,
        batch: usize,
        fuse_relu: bool,
    ) -> Result<()> {
        debug_assert_eq!(weight.len(), self.kept_weight_len());
        // Before the lengths: a geometry no table lowers has no output
        // cells, so the length checks would report a shape error instead.
        let lowering = self.lowering()?;
        if input.len() != self.input_len() * batch {
            return Err(NnError::InputShapeMismatch {
                layer: "conv2d(batch)".into(),
                expected: vec![batch, self.geom.in_channels, self.geom.in_h, self.geom.in_w],
                actual: vec![input.len()],
            });
        }
        if out.len() != self.output_len() * batch {
            return Err(NnError::InputShapeMismatch {
                layer: "conv2d(batch out)".into(),
                expected: vec![self.output_len() * batch],
                actual: vec![out.len()],
            });
        }
        if self.pruning.is_pruned() {
            let kept = self.pruning.kept().iter().copied();
            lowering.lower_into(input, batch, 0.0, kept, scratch, col)?;
        } else {
            lowering.lower_into(input, batch, 0.0, 0..self.geom.in_channels, scratch, col)?;
        }
        let (m, k, n) = (self.out_channels, self.depth(), batch * self.geom.col_cols());
        gemm_into(weight, col, out, m, k, n);
        ie_tensor::add_bias_rows(out, n, self.bias.as_slice(), fuse_relu);
        Ok(())
    }

    /// Forward pass over a `[in_channels, in_h, in_w]` input.
    ///
    /// Allocating wrapper over [`Self::forward_batch_into`] at `batch == 1`,
    /// whose plane scratch holds just one input plane and its pad cell.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when the input shape does not
    /// match the layer geometry, and the geometry's
    /// [`TensorError::InvalidConvGeometry`] when no table can lower it.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let expected = [self.geom.in_channels, self.geom.in_h, self.geom.in_w];
        if input.dims() != expected {
            return Err(NnError::InputShapeMismatch {
                layer: "conv2d".into(),
                expected: expected.to_vec(),
                actual: input.dims().to_vec(),
            });
        }
        let mut out = Tensor::zeros(&self.output_dims());
        let mut col = vec![0.0f32; self.col_len()];
        let mut wk =
            vec![0.0f32; if self.pruning.is_pruned() { self.kept_weight_len() } else { 0 }];
        let mut scratch = vec![0.0f32; self.geom.in_h * self.geom.in_w + 1];
        let (x, y) = (input.as_slice(), out.as_mut_slice());
        self.forward_batch_into(x, y, &mut col, &mut wk, scratch.as_mut_slice(), 1, false)?;
        Ok(out)
    }

    /// Backward pass: accumulates filter/bias gradients and returns the
    /// gradient with respect to the input image.
    ///
    /// Runs at full width, so it is an independent oracle of the planned
    /// kept-width backward: a pruned weight's gradient is set to `+0.0`, and
    /// a pruned channel's input gradient is `+0.0` because its weights are
    /// zero.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `input` or `grad_output` have unexpected
    /// sizes.
    pub fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        // As in `forward_batch_with`: a geometry no table lowers has no
        // output cells, so the shape check below would hide its error.
        self.lowering()?;
        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        let expected_out = [self.out_channels, oh, ow];
        if grad_output.dims() != expected_out {
            return Err(NnError::InputShapeMismatch {
                layer: "conv2d(backward)".into(),
                expected: expected_out.to_vec(),
                actual: grad_output.dims().to_vec(),
            });
        }
        let k = self.geom.kernel;
        let cols = self.lowering()?.im2col(input)?;
        let go_mat = grad_output.reshape(&[self.out_channels, oh * ow])?;
        // dW = grad_output · colsᵀ
        let cols_t = cols.transpose()?;
        let mut dw = go_mat.matmul(&cols_t)?;
        self.pruning.zero_pruned(dw.as_mut_slice(), self.geom.col_rows(), k * k);
        let dw = dw.reshape(&[self.out_channels, self.geom.in_channels, k, k])?;
        self.grad_weight.add_scaled_inplace(&dw, 1.0)?;
        // dbias = row sums of grad_output
        for c in 0..self.out_channels {
            let s: f32 = go_mat.as_slice()[c * oh * ow..(c + 1) * oh * ow].iter().sum();
            self.grad_bias.as_mut_slice()[c] += s;
        }
        // dcols = Wᵀ · grad_output, then scatter back to image layout.
        let wmat = self.weight.reshape(&[self.out_channels, self.geom.in_channels * k * k])?;
        let wt = wmat.transpose()?;
        let dcols = wt.matmul(&go_mat)?;
        Ok(self.lowering()?.col2im(&dcols)?)
    }

    /// Allocation-free backward pass used by the training plans, at the kept
    /// width. `col` holds the layer input's kept channels already lowered by
    /// `im2col` — the plan caches it from the forward half of the same step,
    /// so the backward half never lowers the input a second time. Computes
    /// `dW = grad_out · colᵀ` into the kept columns of `grad_w` (the caller's
    /// zeroed store region, whose pruned columns therefore keep `+0.0`),
    /// row-sums `grad_out` into `grad_b`, then — when `dx` is present — forms
    /// `dcols = W_keptᵀ · grad_out` (weight transposed into `wt`, GEMM into
    /// `colt`, whose contents are dead after the `dW` product) and scatters
    /// it back through the layer's lowering table (staging each plane in
    /// `scratch`, as the forward lowering does) into the kept channels' planes
    /// of `dx`, whose pruned planes read `+0.0`. `dx: None` skips the
    /// input-gradient products entirely;
    /// the plan passes it for the network's first layer, whose input
    /// gradient nobody reads.
    ///
    /// `weight` is the `[O, kept·K·K]` filter matrix the forward half
    /// multiplied by: normally the kept columns of [`Self::weight`], but the
    /// fake-quant training mode substitutes the quantize–dequantize round
    /// trip for the dx product (straight-through estimator). With the kept
    /// columns of `self.weight` and `col` the kept lowering of `input`, every
    /// step matches the full-width [`Self::backward`] bit for bit: writing
    /// the `dW` GEMM into a zeroed region equals the allocating accumulate
    /// (`0 + x == x` — the GEMM's ascending-depth sums never produce `-0.0`),
    /// the `dcols` product runs the same transpose-then-GEMM sequence, and the
    /// terms the kept width leaves out are `±0·x`, which change no sum (see
    /// [`Self::forward_batch_into`]).
    ///
    /// Scratch lengths: `col`/`colt` hold [`Self::col_len`] elements, `wt`
    /// holds [`Self::kept_weight_len`]. Enforced by the underlying kernels
    /// (panics on mismatch — the plan pre-sizes everything). `scratch` is a
    /// plane scratch, as in [`Self::forward_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the col2im buffer lengths do not match
    /// the geometry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward_slice_into<S: AsMut<[f32]> + ?Sized>(
        &self,
        weight: &[f32],
        col: &[f32],
        grad_out: &[f32],
        dx: Option<&mut [f32]>,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
        colt: &mut [f32],
        wt: &mut [f32],
        scratch: &mut S,
    ) -> Result<()> {
        let (m, depth, ohw) = (self.out_channels, self.depth(), self.geom.col_cols());
        ie_tensor::transpose_into(col, depth, ohw, colt);
        if self.pruning.is_pruned() {
            // The kept-width dW lands in `wt` (free until the dx product) and
            // is copied into the kept columns of the zeroed store region.
            ie_tensor::gemm_into(grad_out, colt, wt, m, ohw, depth);
            let block = self.geom.kernel * self.geom.kernel;
            let rows = grad_w.chunks_exact_mut(self.geom.col_rows()).zip(wt.chunks_exact(depth));
            for (grow, drow) in rows {
                let mut d = 0;
                for run in self.pruning.kept_blocks(block) {
                    grow[run.clone()].copy_from_slice(&drow[d..d + run.len()]);
                    d += run.len();
                }
            }
        } else {
            ie_tensor::gemm_into(grad_out, colt, grad_w, m, ohw, depth);
        }
        for c in 0..m {
            let s: f32 = grad_out[c * ohw..(c + 1) * ohw].iter().sum();
            grad_b[c] += s;
        }
        if let Some(dx) = dx {
            ie_tensor::transpose_into(weight, m, depth, wt);
            ie_tensor::gemm_into(wt, grad_out, colt, depth, m, ohw);
            let lowering = self.lowering()?;
            if self.pruning.is_pruned() {
                let kept = self.pruning.kept().iter().copied();
                lowering.scatter_into(colt, kept, scratch, dx)?;
            } else {
                lowering.scatter_into(colt, 0..self.geom.in_channels, scratch, dx)?;
            }
        }
        Ok(())
    }

    pub(crate) fn grad_weight_mut(&mut self) -> &mut Tensor {
        &mut self.grad_weight
    }

    pub(crate) fn grad_bias_mut(&mut self) -> &mut Tensor {
        &mut self.grad_bias
    }

    /// Accumulated filter gradient.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Accumulated bias gradient.
    pub fn grad_bias(&self) -> &Tensor {
        &self.grad_bias
    }

    /// Applies one SGD step with the given learning rate and clears gradients.
    pub fn apply_gradients(&mut self, lr: f32) {
        for (w, g) in self.weight.as_mut_slice().iter_mut().zip(self.grad_weight.as_slice()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.as_mut_slice().iter_mut().zip(self.grad_bias.as_slice()) {
            *b -= lr * g;
        }
        self.zero_grad();
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and zero bias is the identity on a single channel.
        let mut conv = Conv2d::new(&mut rng(), 1, 1, 1, 1, 0, 3, 3);
        conv.weight_mut().as_mut_slice()[0] = 1.0;
        conv.bias_mut().as_mut_slice()[0] = 0.0;
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // Sum-pooling kernel (all ones) over a 3x3 input with no padding gives
        // the total sum as the single output value.
        let mut conv = Conv2d::new(&mut rng(), 1, 1, 3, 1, 0, 3, 3);
        for w in conv.weight_mut().as_mut_slice() {
            *w = 1.0;
        }
        conv.bias_mut().as_mut_slice()[0] = 0.5;
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.as_slice()[0], 45.5);
    }

    #[test]
    fn output_shape_honours_stride_and_padding() {
        let conv = Conv2d::new(&mut rng(), 3, 6, 5, 2, 2, 32, 32);
        assert_eq!(conv.output_dims(), [6, 16, 16]);
        let y = conv.forward(&Tensor::zeros(&[3, 32, 32])).unwrap();
        assert_eq!(y.dims(), &[6, 16, 16]);
    }

    #[test]
    fn forward_rejects_wrong_shape() {
        let conv = Conv2d::new(&mut rng(), 3, 6, 3, 1, 1, 8, 8);
        assert!(conv.forward(&Tensor::zeros(&[3, 9, 8])).is_err());
    }

    #[test]
    fn an_unlowerable_geometry_builds_and_fails_at_forward() {
        // (kernel, stride, padding, in_h, in_w): a zero kernel, a zero
        // stride, a kernel wider than the padded input, and a plane of
        // 65,536 cells, one more than a `u16` table indexes.
        let cases = [(0, 1, 0, 4, 4), (3, 0, 0, 4, 4), (7, 1, 1, 4, 4), (1, 1, 0, 256, 256)];
        let geometry_error =
            |err: &NnError| matches!(err, NnError::Tensor(TensorError::InvalidConvGeometry(_)));
        for (k, s, p, h, w) in cases {
            let mut conv = Conv2d::new(&mut rng(), 1, 2, k, s, p, h, w);
            let at = format!("kernel {k} stride {s} padding {p} {h}x{w}");
            // The size accessors are total: a refused geometry has no output.
            if conv.geometry().validate().is_err() {
                assert_eq!(conv.output_dims(), [2, 0, 0], "{at}");
                assert_eq!((conv.output_len(), conv.col_len()), (0, 0), "{at}");
            }
            let x = Tensor::zeros(&[1, h, w]);
            let err = conv.forward(&x).unwrap_err();
            assert!(geometry_error(&err), "{at}: {err}");
            let mut out = vec![0.0f32; conv.output_len()];
            let err = conv
                .forward_batch_into(x.as_slice(), &mut out, &mut [], &mut [], &mut [0.0], 1, false)
                .unwrap_err();
            assert!(geometry_error(&err), "{at}: {err}");
            let err = conv.backward(&x, &Tensor::zeros(&conv.output_dims())).unwrap_err();
            assert!(geometry_error(&err), "{at}: {err}");
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 1, 2, 3, 1, 1, 4, 4);
        let x = Tensor::randn(&mut r, &[1, 4, 4], 0.0, 1.0);
        let y = conv.forward(&x).unwrap();
        let go = Tensor::ones(&[2, 4, 4]);
        conv.backward(&x, &go).unwrap();
        let analytic = conv.grad_weight().clone();
        let eps = 1e-2;
        // Spot-check a handful of filter entries.
        for idx in [0usize, 3, 7, 10, 17] {
            let mut up = conv.clone();
            up.weight_mut().as_mut_slice()[idx] += eps;
            let lu = up.forward(&x).unwrap().sum();
            let mut down = conv.clone();
            down.weight_mut().as_mut_slice()[idx] -= eps;
            let ld = down.forward(&x).unwrap().sum();
            let numeric = (lu - ld) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!((numeric - a).abs() < 2e-2, "dW[{idx}]: analytic {a} vs numeric {numeric}");
        }
        let _ = y;
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 1, 1, 3, 1, 0, 4, 4);
        let x = Tensor::randn(&mut r, &[1, 4, 4], 0.0, 1.0);
        let go = Tensor::ones(&[1, 2, 2]);
        let dx = conv.backward(&x, &go).unwrap();
        let eps = 1e-2;
        for idx in [0usize, 5, 10, 15] {
            let mut xu = x.clone();
            xu.as_mut_slice()[idx] += eps;
            let lu = conv.forward(&xu).unwrap().sum();
            let mut xd = x.clone();
            xd.as_mut_slice()[idx] -= eps;
            let ld = conv.forward(&xd).unwrap().sum();
            let numeric = (lu - ld) / (2.0 * eps);
            let a = dx.as_slice()[idx];
            assert!((numeric - a).abs() < 2e-2, "dx[{idx}]: analytic {a} vs numeric {numeric}");
        }
    }

    #[test]
    fn apply_gradients_clears_accumulators() {
        let mut r = rng();
        let mut conv = Conv2d::new(&mut r, 1, 1, 3, 1, 1, 4, 4);
        let x = Tensor::ones(&[1, 4, 4]);
        let go = Tensor::ones(&[1, 4, 4]);
        conv.backward(&x, &go).unwrap();
        assert!(conv.grad_weight().norm_sq() > 0.0);
        conv.apply_gradients(0.01);
        assert_eq!(conv.grad_weight().norm_sq(), 0.0);
    }
}

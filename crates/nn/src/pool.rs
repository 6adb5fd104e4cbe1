use crate::{NnError, Result};
use ie_tensor::{max_pool_planes_i8_into, max_pool_planes_into, Tensor};

/// Non-overlapping 2-D max pooling over `[C, H, W]` inputs.
///
/// The pool size equals the stride (the common LeNet configuration). Input
/// height and width must be divisible by the pool size; the architecture spec
/// guarantees this for the paper's backbone.
///
/// # Example
///
/// ```
/// use ie_nn::MaxPool2d;
/// use ie_tensor::Tensor;
///
/// let pool = MaxPool2d::new(2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
/// let y = pool.forward(&x)?;
/// assert_eq!(y.as_slice(), &[4.0]);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2d {
    size: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window (and stride).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be non-zero");
        MaxPool2d { size }
    }

    /// The pooling window size.
    pub fn size(&self) -> usize {
        self.size
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        if input.shape().rank() != 3 {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d".into(),
                expected: vec![0, 0, 0],
                actual: input.dims().to_vec(),
            });
        }
        let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        if h % self.size != 0 || w % self.size != 0 {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d".into(),
                expected: vec![c, h / self.size * self.size, w / self.size * self.size],
                actual: input.dims().to_vec(),
            });
        }
        Ok((c, h, w))
    }

    /// Allocation-free forward pass over `batch` samples in the
    /// channel-major wide layout: `input` is `[c, batch, h, w]`, `out` is
    /// `[c, batch, h/size, w/size]`; at `batch == 1` that is the plain
    /// `[c, h, w]` layout, so a single sample is a batch of one. Each
    /// `(channel, sample)` plane is pooled on its own, so every sample's
    /// result is bit-identical to pooling it alone. The window scan runs
    /// through the dispatched [`ie_tensor::max_pool_planes_into`] kernel
    /// (AVX2 vectorized for the 2×2 window; bit-identical on every ISA
    /// tier). At `batch == 1` this is [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when the spatial size is not
    /// divisible by the pool size or a buffer length does not match `batch`
    /// copies of the dimensions.
    pub fn forward_batch_slice_into(
        &self,
        input: &[f32],
        dims: [usize; 3],
        batch: usize,
        out: &mut [f32],
    ) -> Result<()> {
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if input.len() != c * batch * h * w || h % self.size != 0 || w % self.size != 0 {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d(batch)".into(),
                expected: vec![c, h / self.size * self.size, w / self.size * self.size],
                actual: vec![input.len()],
            });
        }
        let (oh, ow) = (h / self.size, w / self.size);
        if out.len() != c * batch * oh * ow {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d(batch out)".into(),
                expected: vec![c * batch * oh * ow],
                actual: vec![out.len()],
            });
        }
        max_pool_planes_into(input, c * batch, h, w, self.size, out);
        Ok(())
    }

    /// [`Self::forward_batch_slice_into`] over quantized activation codes
    /// (`[c, batch, h, w]` codes in, pooled codes out).
    ///
    /// Quantization is monotone, so the maximum of the codes is the code of
    /// the maximum: pooling in the code domain is exactly equivalent to
    /// pooling the real values and quantizing afterwards, which is what lets
    /// chained quantized layers keep their activations as `i8` across pools.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] under the same conditions as
    /// [`Self::forward_batch_slice_into`].
    pub fn forward_batch_codes_into(
        &self,
        input: &[i8],
        dims: [usize; 3],
        batch: usize,
        out: &mut [i8],
    ) -> Result<()> {
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if input.len() != c * batch * h * w || h % self.size != 0 || w % self.size != 0 {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d(codes)".into(),
                expected: vec![c, h / self.size * self.size, w / self.size * self.size],
                actual: vec![input.len()],
            });
        }
        let (oh, ow) = (h / self.size, w / self.size);
        if out.len() != c * batch * oh * ow {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d(codes out)".into(),
                expected: vec![c * batch * oh * ow],
                actual: vec![out.len()],
            });
        }
        max_pool_planes_i8_into(input, c * batch, h, w, self.size, out);
        Ok(())
    }

    /// Forward pass.
    ///
    /// Allocating wrapper over [`Self::forward_batch_slice_into`] at
    /// `batch == 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when the input is not rank 3 or
    /// its spatial size is not divisible by the pool size.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let (c, h, w) = self.check_input(input)?;
        let (oh, ow) = (h / self.size, w / self.size);
        let mut out = Tensor::zeros(&[c, oh, ow]);
        self.forward_batch_slice_into(input.as_slice(), [c, h, w], 1, out.as_mut_slice())?;
        Ok(out)
    }

    /// Backward pass: routes each output gradient to the input position that
    /// achieved the maximum (first position on ties).
    ///
    /// # Errors
    ///
    /// Returns a shape error when `input` or `grad_output` have unexpected
    /// shapes.
    pub fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        let (c, h, w) = self.check_input(input)?;
        let (oh, ow) = (h / self.size, w / self.size);
        if grad_output.dims() != [c, oh, ow] {
            return Err(NnError::InputShapeMismatch {
                layer: "maxpool2d(backward)".into(),
                expected: vec![c, oh, ow],
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(&[c, h, w]);
        let src = input.as_slice();
        let go = grad_output.as_slice();
        {
            let dst = dx.as_mut_slice();
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_pos = (0usize, 0usize);
                        for dy in 0..self.size {
                            for dx_ in 0..self.size {
                                let iy = oy * self.size + dy;
                                let ix = ox * self.size + dx_;
                                let v = src[(ch * h + iy) * w + ix];
                                if v > best {
                                    best = v;
                                    best_pos = (iy, ix);
                                }
                            }
                        }
                        dst[(ch * h + best_pos.0) * w + best_pos.1] += go[(ch * oh + oy) * ow + ox];
                    }
                }
            }
        }
        Ok(dx)
    }

    /// Output shape for a `[c, h, w]` input.
    pub fn output_dims(&self, input_dims: &[usize]) -> [usize; 3] {
        [input_dims[0], input_dims[1] / self.size, input_dims[2] / self.size]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_picks_window_maxima() {
        let pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0, -1.0, -2.0, 0.0, 1.0, -3.0, -4.0, 2.0, 3.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, -1.0, 3.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let go = Tensor::from_vec(vec![10.0], &[1, 1, 1]).unwrap();
        let dx = pool.backward(&x, &go).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn rejects_non_divisible_inputs() {
        let pool = MaxPool2d::new(2);
        assert!(pool.forward(&Tensor::zeros(&[1, 3, 4])).is_err());
        assert!(pool.forward(&Tensor::zeros(&[3, 4])).is_err());
    }

    #[test]
    #[should_panic(expected = "pool size must be non-zero")]
    fn zero_pool_size_panics() {
        let _ = MaxPool2d::new(0);
    }

    #[test]
    fn code_pooling_commutes_with_quantization() {
        // max over codes == code of the max (monotone map).
        let pool = MaxPool2d::new(2);
        let codes: Vec<i8> = vec![-8, 3, 127, -128, 0, 5, -1, 2, 9, 9, 9, 9, 1, 2, 3, 4];
        let mut out = vec![0i8; 4];
        pool.forward_batch_codes_into(&codes, [1, 4, 4], 1, &mut out).unwrap();
        let floats: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
        let mut out_f = vec![0.0f32; 4];
        pool.forward_batch_slice_into(&floats, [1, 4, 4], 1, &mut out_f).unwrap();
        assert_eq!(out.iter().map(|&c| f32::from(c)).collect::<Vec<_>>(), out_f);
        // Length validation.
        let mut wrong = vec![0i8; 3];
        assert!(pool.forward_batch_codes_into(&codes, [1, 4, 4], 1, &mut wrong).is_err());
    }

    #[test]
    fn output_dims_halve_spatial_size() {
        let pool = MaxPool2d::new(2);
        assert_eq!(pool.output_dims(&[16, 8, 8]), [16, 4, 4]);
    }
}

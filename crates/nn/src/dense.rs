use crate::layer::Pruning;
use crate::{NnError, Result};
use ie_tensor::Tensor;
use rand::Rng;

/// A fully-connected (dense) layer: `y = W·x + b`.
///
/// Weights are stored as a `[out_features, in_features]` matrix so that the
/// forward pass is a single matrix–vector product. The layer caches nothing;
/// the caller passes the saved input back in for the backward pass, which
/// keeps the layer usable from both the training loop and the incremental
/// inference engine.
///
/// Pruning ([`Self::set_pruned_channels`]) removes input features: their
/// weight columns are zeroed and receive a gradient of exactly `+0.0`. The
/// forward pass stays full width, multiplying the zeroed columns: the
/// lane-parallel dot product's reduction tree depends on the vector length,
/// so a shorter, compacted row would change the sums' bits.
///
/// # Example
///
/// ```
/// use ie_nn::Dense;
/// use ie_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Dense::new(&mut rng, 4, 2);
/// let x = Tensor::ones(&[4]);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.len(), 2);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_features: usize,
    out_features: usize,
    pruning: Pruning,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform initialised weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        let limit = (6.0 / (in_features + out_features) as f32).sqrt();
        Dense {
            weight: Tensor::uniform(rng, &[out_features, in_features], limit),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            in_features,
            out_features,
            pruning: Pruning::none(in_features),
        }
    }

    /// Creates a dense layer from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] if `weight` is not
    /// `[out_features, in_features]` or `bias` is not `[out_features]`.
    pub fn from_parameters(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.shape().rank() != 2 {
            return Err(NnError::InputShapeMismatch {
                layer: "dense".into(),
                expected: vec![0, 0],
                actual: weight.dims().to_vec(),
            });
        }
        let (out_features, in_features) = (weight.dims()[0], weight.dims()[1]);
        if bias.len() != out_features {
            return Err(NnError::InputShapeMismatch {
                layer: "dense(bias)".into(),
                expected: vec![out_features],
                actual: bias.dims().to_vec(),
            });
        }
        Ok(Dense {
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            weight,
            bias,
            in_features,
            out_features,
            pruning: Pruning::none(in_features),
        })
    }

    /// Removes the listed input features (any order): their weight columns
    /// are zeroed, and from then on the backward pass gives them a gradient
    /// of exactly `+0.0`, so they stay zero through training. The forward
    /// pass keeps multiplying them (see the type docs). An empty list keeps
    /// every feature again.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidPruning`] (and leaves the layer unchanged)
    /// for a feature out of range, a feature listed twice, or a list that
    /// names every input feature.
    pub fn set_pruned_channels(&mut self, features: &[usize]) -> Result<()> {
        self.pruning = Pruning::new(self.in_features, features)?;
        self.pruning.zero_pruned(self.weight.as_mut_slice(), self.in_features, 1);
        Ok(())
    }

    /// The input features pruning removed, ascending (empty when none is).
    pub fn pruned_channels(&self) -> &[usize] {
        self.pruning.pruned()
    }

    /// The pruned and kept input features, for the kernels that skip the pruned ones.
    pub(crate) fn pruning(&self) -> &Pruning {
        &self.pruning
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix, shaped `[out_features, in_features]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight matrix (used by pruning / quantization).
    /// A pruned feature's weights should stay zero.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
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

    /// Allocation-free forward pass over `batch` samples: computes `W·x + b`
    /// (and, when `fuse_relu` is set, the ReLU of a following activation
    /// layer) for each input vector. Inputs are sample-major in `input`
    /// (`[batch, in_features]`), results sample-major in `out`
    /// (`[batch, out_features]`); a single sample is a batch of one. Each
    /// sample's result is bit-identical to a batch of one holding it alone
    /// (the kernel runs the same lane-parallel dot product per row and
    /// sample, see [`ie_tensor::matvec_batch_into`]); the win is that each
    /// weight row is streamed from memory once per batch instead of once per
    /// sample. At `batch == 1` without fusion this is [`Self::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when a buffer length does not
    /// match `batch` copies of the layer shape.
    pub fn forward_batch_into(
        &self,
        input: &[f32],
        out: &mut [f32],
        batch: usize,
        fuse_relu: bool,
    ) -> Result<()> {
        self.forward_batch_with(self.weight.as_slice(), input, out, batch, fuse_relu)
    }

    /// [`Self::forward_batch_into`] with an explicit weight matrix (same
    /// shape as [`Self::weight`]): the fake-quant training path substitutes
    /// the dequantised weight codes here while the bias stays full precision.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when a buffer length does not
    /// match `batch` copies of the layer shape.
    pub(crate) fn forward_batch_with(
        &self,
        weight: &[f32],
        input: &[f32],
        out: &mut [f32],
        batch: usize,
        fuse_relu: bool,
    ) -> Result<()> {
        debug_assert_eq!(weight.len(), self.weight.len());
        if input.len() != self.in_features * batch {
            return Err(NnError::InputShapeMismatch {
                layer: "dense(batch)".into(),
                expected: vec![batch, self.in_features],
                actual: vec![input.len()],
            });
        }
        if out.len() != self.out_features * batch {
            return Err(NnError::InputShapeMismatch {
                layer: "dense(batch out)".into(),
                expected: vec![batch, self.out_features],
                actual: vec![out.len()],
            });
        }
        ie_tensor::matvec_batch_into(
            weight,
            input,
            out,
            self.out_features,
            self.in_features,
            batch,
        );
        ie_tensor::add_bias_samples(out, self.bias.as_slice(), fuse_relu);
        Ok(())
    }

    /// Forward pass for a flat input of `in_features` elements.
    ///
    /// Allocating wrapper over [`Self::forward_batch_into`] at `batch == 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when the input length differs
    /// from `in_features`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.len() != self.in_features {
            return Err(NnError::InputShapeMismatch {
                layer: "dense".into(),
                expected: vec![self.in_features],
                actual: input.dims().to_vec(),
            });
        }
        let mut y = Tensor::zeros(&[self.out_features]);
        self.forward_batch_into(input.as_slice(), y.as_mut_slice(), 1, false)?;
        Ok(y)
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input. A pruned feature's weight
    /// gradient is set to `+0.0`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `input` or `grad_output` have unexpected
    /// sizes.
    pub fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        if grad_output.len() != self.out_features {
            return Err(NnError::InputShapeMismatch {
                layer: "dense(backward)".into(),
                expected: vec![self.out_features],
                actual: grad_output.dims().to_vec(),
            });
        }
        let flat_in = input.reshape(&[self.in_features])?;
        let flat_go = grad_output.reshape(&[self.out_features])?;
        // dW = grad_output ⊗ input
        let mut dw = flat_go.outer(&flat_in);
        self.pruning.zero_pruned(dw.as_mut_slice(), self.in_features, 1);
        self.grad_weight.add_scaled_inplace(&dw, 1.0)?;
        self.grad_bias.add_scaled_inplace(&flat_go, 1.0)?;
        // dx = Wᵀ · grad_output
        let wt = self.weight.transpose()?;
        let dx = wt.matvec(&flat_go)?;
        Ok(dx)
    }

    /// Allocation-free backward pass used by the training plans: accumulates
    /// `dW = grad_out ⊗ input` into the kept columns of `grad_w` (a pruned
    /// feature's column is skipped, so the caller's zeroed store keeps
    /// `+0.0` there), `db = grad_out` into `grad_b`,
    /// and — when `dx` is present — writes `dx = Wᵀ · grad_out` without
    /// materializing the transpose. `dx: None` skips the input-gradient
    /// product; the plan passes it for the network's first layer, whose
    /// input gradient nobody reads.
    ///
    /// `weight` is passed explicitly — normally [`Self::weight`], but the
    /// fake-quant training mode substitutes the quantize–dequantize round
    /// trip of the weights for the dx product while the full-precision
    /// master weights keep receiving the gradient (straight-through
    /// estimator). With `weight == self.weight`, every arithmetic operation
    /// matches [`Self::backward`] bit for bit: the accumulating outer
    /// product ([`ie_tensor::outer_accumulate_batch_into`] at batch 1) is one
    /// multiply + add per element like `outer` + `add_scaled_inplace(·, 1.0)`,
    /// and [`ie_tensor::matvec_t_batch_into`] reproduces the lane-parallel dot
    /// product `Tensor::matvec` runs on the transposed rows, element for
    /// element.
    ///
    /// Buffer lengths are enforced by the underlying kernels (panics on
    /// mismatch — the plan pre-sizes everything).
    pub(crate) fn backward_slice_into(
        &self,
        weight: &[f32],
        input: &[f32],
        grad_out: &[f32],
        dx: Option<&mut [f32]>,
        grad_w: &mut [f32],
        grad_b: &mut [f32],
    ) {
        let (n_in, n_out) = (self.in_features, self.out_features);
        if self.pruning.is_pruned() {
            // The batch-1 outer product's arithmetic (one product and one
            // add per element), over the kept runs only.
            for (grow, &g) in grad_w.chunks_exact_mut(n_in).zip(grad_out) {
                for run in self.pruning.kept_blocks(1) {
                    for (w, &x) in grow[run.clone()].iter_mut().zip(&input[run]) {
                        *w += g * x;
                    }
                }
            }
        } else {
            ie_tensor::outer_accumulate_batch_into(grad_out, input, grad_w, n_out, n_in, 1);
        }
        ie_tensor::accumulate_slice_into(grad_b, grad_out);
        if let Some(dx) = dx {
            ie_tensor::matvec_t_batch_into(weight, grad_out, dx, n_in, n_out, 1);
        }
    }

    pub(crate) fn grad_weight_mut(&mut self) -> &mut Tensor {
        &mut self.grad_weight
    }

    pub(crate) fn grad_bias_mut(&mut self) -> &mut Tensor {
        &mut self.grad_bias
    }

    /// Accumulated weight gradient.
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
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let layer = Dense::from_parameters(weight, bias).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[-1.5, -2.5]);
    }

    #[test]
    fn forward_rejects_wrong_input_size() {
        let layer = Dense::new(&mut rng(), 4, 2);
        assert!(layer.forward(&Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut r = rng();
        let mut layer = Dense::new(&mut r, 3, 2);
        let x = Tensor::randn(&mut r, &[3], 0.0, 1.0);
        // Loss = sum(forward(x)); dL/dy = ones.
        let ones = Tensor::ones(&[2]);
        layer.backward(&x, &ones).unwrap();
        let analytic = layer.grad_weight().clone();
        let eps = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let mut bumped = layer.clone();
                let idx = i * 3 + j;
                bumped.weight_mut().as_mut_slice()[idx] += eps;
                let up = bumped.forward(&x).unwrap().sum();
                let mut bumped_down = layer.clone();
                bumped_down.weight_mut().as_mut_slice()[idx] -= eps;
                let down = bumped_down.forward(&x).unwrap().sum();
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic.as_slice()[idx];
                assert!(
                    (numeric - a).abs() < 1e-2,
                    "dW[{i},{j}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn backward_input_gradient_is_weight_transpose_times_grad() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let bias = Tensor::zeros(&[2]);
        let mut layer = Dense::from_parameters(weight, bias).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let go = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let dx = layer.backward(&x, &go).unwrap();
        assert_eq!(dx.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn apply_gradients_moves_weights_and_clears() {
        let mut layer = Dense::new(&mut rng(), 2, 2);
        let before = layer.weight().clone();
        let x = Tensor::ones(&[2]);
        let go = Tensor::ones(&[2]);
        layer.backward(&x, &go).unwrap();
        layer.apply_gradients(0.1);
        assert_ne!(layer.weight(), &before);
        assert_eq!(layer.grad_weight().sum(), 0.0);
        assert_eq!(layer.grad_bias().sum(), 0.0);
    }

    #[test]
    fn from_parameters_validates_shapes() {
        let w = Tensor::zeros(&[2, 3]);
        assert!(Dense::from_parameters(w.clone(), Tensor::zeros(&[3])).is_err());
        assert!(Dense::from_parameters(Tensor::zeros(&[6]), Tensor::zeros(&[2])).is_err());
        assert!(Dense::from_parameters(w, Tensor::zeros(&[2])).is_ok());
    }
}

use crate::{Dense, NnError, Relu, Result};
use ie_tensor::Tensor;
use rand::Rng;

/// Output activation applied by an [`Mlp`] after its final dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputActivation {
    /// No activation (linear output) — used by critics.
    #[default]
    Linear,
    /// Logistic sigmoid, squashing each output into `(0, 1)` — used by the
    /// compression agents whose actions are pruning rates / bitwidth fractions.
    Sigmoid,
    /// Hyperbolic tangent, squashing into `(-1, 1)`.
    Tanh,
}

/// A small multi-layer perceptron with ReLU hidden activations.
///
/// This is the function approximator behind the DDPG actor and critic in
/// `ie-rl`. It supports forward evaluation, backward propagation of an output
/// gradient, SGD updates and the soft ("Polyak") parameter blending DDPG uses
/// for its target networks.
///
/// The passes run a whole batch at a time through a caller-owned
/// [`MlpScratch`] without allocating, with one kernel call per layer
/// ([`ie_tensor::matvec_t_batch_into`] for the forward pass of a layer at
/// least 8 outputs wide and for the input gradients,
/// [`ie_tensor::outer_accumulate_batch_into`] for the weight gradients); a
/// single sample is a batch of one. The allocating single-sample passes
/// ([`Mlp::forward`], [`Mlp::backward`]) are their oracle in tests, and the
/// two agree bit for bit.
///
/// # Example
///
/// ```
/// use ie_nn::{Mlp, MlpScratch, OutputActivation};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&mut rng, &[4, 8, 2], OutputActivation::Tanh);
/// let mut scratch = MlpScratch::default();
/// let y = mlp.forward_batch(&[0.0; 12], 3, &mut scratch)?;
/// assert_eq!(y.len(), 3 * 2);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    relu: Relu,
    output_activation: OutputActivation,
}

/// Caller-owned buffers of the batched [`Mlp`] passes
/// ([`Mlp::forward_batch`], [`Mlp::backward_batch`] and
/// [`Mlp::input_grad_batch`]).
///
/// A scratch holds the sample-major activation rows of the last forward
/// pass, which the backward passes read, and two gradient buffers. Its
/// buffers grow to the largest batch and widest layer they have served and
/// never shrink, so once warm the batched passes allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Layer sizes of the network that last ran forward (`sizes[0]` inputs).
    sizes: Vec<usize>,
    /// Samples of the last forward pass.
    batch: usize,
    /// `acts[0]`: the input rows; `acts[i]`: the ReLU output rows of layer
    /// `i - 1`; `acts[layers]`: the output rows after the output activation.
    acts: Vec<Vec<f32>>,
    /// Gradient rows at the output of the layer being back-propagated.
    grad: Vec<f32>,
    /// Gradient rows at its input (swapped with `grad` after each layer).
    dx: Vec<f32>,
    /// `[in, out]` transposed weights of the wide layer running forward.
    wt: Vec<f32>,
}

/// Outputs from which a layer's forward pass runs the transposed kernel
/// ([`ie_tensor::matvec_t_batch_into`] over a transposed copy of the
/// weights, whose tiles span 8 or 16 outputs). A narrower layer keeps
/// [`Dense::forward_batch_into`], which is faster there; both give the same
/// bits.
const TRANSPOSED_MIN_OUTPUTS: usize = 8;

/// The first `len` elements of `buf`, growing it first when it is shorter.
fn rows(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs) and output activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, sizes: &[usize], output: OutputActivation) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least an input and an output size");
        let layers = sizes.windows(2).map(|w| Dense::new(rng, w[0], w[1])).collect();
        Mlp { layers, relu: Relu::new(), output_activation: output }
    }

    /// Number of inputs.
    pub fn input_size(&self) -> usize {
        self.layers.first().map(Dense::in_features).unwrap_or(0)
    }

    /// Number of outputs.
    pub fn output_size(&self) -> usize {
        self.layers.last().map(Dense::out_features).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    fn apply_output(&self, x: &Tensor) -> Tensor {
        match self.output_activation {
            OutputActivation::Linear => x.clone(),
            OutputActivation::Sigmoid => x.sigmoid(),
            OutputActivation::Tanh => x.tanh(),
        }
    }

    fn output_grad(&self, pre_activation: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        Ok(match self.output_activation {
            OutputActivation::Linear => grad_out.clone(),
            OutputActivation::Sigmoid => {
                let s = pre_activation.sigmoid();
                let ds = s.map(|v| v * (1.0 - v));
                ds.mul(grad_out)?
            }
            OutputActivation::Tanh => {
                let t = pre_activation.tanh();
                let dt = t.map(|v| 1.0 - v * v);
                dt.mul(grad_out)?
            }
        })
    }

    /// Allocating single-sample forward pass: the oracle the tests hold
    /// [`Self::forward_batch`] to. Nothing else runs it.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `input` does not match the first layer.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let (out, _) = self.forward_cached(input)?;
        Ok(out)
    }

    /// Forward pass that also returns the cached layer inputs and the final
    /// pre-activation, as needed by [`Self::backward`].
    fn forward_cached(&self, input: &Tensor) -> Result<(Tensor, (Vec<Tensor>, Tensor))> {
        let mut x = input.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            caches.push(x.clone());
            x = layer.forward(&x)?;
            if i + 1 < self.layers.len() {
                x = self.relu.forward(&x)?;
            }
        }
        let pre = x.clone();
        Ok((self.apply_output(&x), (caches, pre)))
    }

    /// Allocating single-sample backward pass: accumulates parameter
    /// gradients for `dL/d_output` and returns `dL/d_input`. The oracle the
    /// tests hold [`Self::backward_batch`] and [`Self::input_grad_batch`] to;
    /// nothing else runs it.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `grad_output` does not match the output size.
    pub fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        let (_, (caches, pre)) = self.forward_cached(input)?;
        let mut g = self.output_grad(&pre, grad_output)?;
        let n = self.layers.len();
        for i in (0..n).rev() {
            if i + 1 < n {
                // Gradient through the hidden ReLU: its input is the dense output,
                // which equals forward(cache) of that layer.
                let dense_out = self.layers[i].forward(&caches[i])?;
                g = self.relu.backward(&dense_out, &g)?;
            }
            g = self.layers[i].backward(&caches[i], &g)?;
        }
        Ok(g)
    }

    /// Layer sizes, `sizes[0]` inputs and the last one outputs.
    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.input_size()).chain(self.layers.iter().map(Dense::out_features))
    }

    /// Batched forward pass over `batch` sample-major input rows
    /// (`[batch, input_size]`). Returns the output rows
    /// (`[batch, output_size]`) and keeps every layer's activations in
    /// `scratch` for [`Self::backward_batch`] and [`Self::input_grad_batch`].
    ///
    /// Each row of the result is bit-identical to [`Self::forward`] on that
    /// input row. A layer at least 8 outputs wide copies its weights,
    /// transposed, into `scratch` and runs [`ie_tensor::matvec_t_batch_into`]
    /// over the copy, which shares each weight load across 4 samples; a
    /// narrower one runs [`Dense::forward_batch_into`]. Both replay the same
    /// lane-parallel dot product per output, and both end in the same bias
    /// epilogue with the hidden ReLU fused. The output activation is the same
    /// scalar function.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when `input` does not hold
    /// `batch` rows of [`Self::input_size`] values.
    pub fn forward_batch<'s>(
        &self,
        input: &[f32],
        batch: usize,
        scratch: &'s mut MlpScratch,
    ) -> Result<&'s [f32]> {
        if input.len() != batch * self.input_size() {
            return Err(NnError::InputShapeMismatch {
                layer: "mlp(batch)".into(),
                expected: vec![batch, self.input_size()],
                actual: vec![input.len()],
            });
        }
        let depth = self.layers.len();
        scratch.sizes.clear();
        scratch.sizes.extend(self.sizes());
        scratch.batch = batch;
        // Both gradient buffers fit the widest layer, so the swaps in
        // `propagate` never leave a short one behind to regrow.
        let widest = scratch.sizes.iter().copied().max().unwrap_or(0);
        rows(&mut scratch.grad, batch * widest);
        rows(&mut scratch.dx, batch * widest);
        if scratch.acts.len() <= depth {
            scratch.acts.resize_with(depth + 1, Vec::new);
        }
        rows(&mut scratch.acts[0], input.len()).copy_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (n_in, n_out) = (layer.in_features(), layer.out_features());
            let (done, next) = scratch.acts.split_at_mut(i + 1);
            let x = &done[i][..batch * n_in];
            let y = rows(&mut next[0], batch * n_out);
            let relu = i + 1 < depth;
            if n_out < TRANSPOSED_MIN_OUTPUTS {
                layer.forward_batch_into(x, y, batch, relu)?;
            } else {
                let wt = rows(&mut scratch.wt, n_in * n_out);
                ie_tensor::transpose_into(layer.weight().as_slice(), n_out, n_in, wt);
                ie_tensor::matvec_t_batch_into(wt, x, y, n_out, n_in, batch);
                ie_tensor::add_bias_samples(y, layer.bias().as_slice(), relu);
            }
        }
        let out = &mut scratch.acts[depth][..batch * self.output_size()];
        match self.output_activation {
            OutputActivation::Linear => {}
            OutputActivation::Sigmoid => {
                out.iter_mut().for_each(|v| *v = 1.0 / (1.0 + (-*v).exp()));
            }
            OutputActivation::Tanh => out.iter_mut().for_each(|v| *v = v.tanh()),
        }
        Ok(out)
    }

    /// Batched backward pass of the batch that last ran
    /// [`Self::forward_batch`] through `scratch`: accumulates the parameter
    /// gradients for the output-gradient rows `grad_output`
    /// (`[batch, output_size]`) and computes no input gradient.
    ///
    /// Every layer adds the samples' contributions in ascending sample order
    /// with the kernels the training plans use, each called once per layer
    /// ([`ie_tensor::outer_accumulate_batch_into`] and
    /// [`ie_tensor::matvec_t_batch_into`]; the bias takes one
    /// [`ie_tensor::accumulate_slice_into`] per sample), so the gradients are
    /// bit-identical to calling [`Self::backward`] on every row in order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when `scratch` does not hold a
    /// forward pass of a network of this shape, or `grad_output` does not
    /// hold one row per sample of it.
    pub fn backward_batch(&mut self, grad_output: &[f32], scratch: &mut MlpScratch) -> Result<()> {
        self.output_grad_batch(grad_output, scratch)?;
        let batch = scratch.batch;
        for i in (0..self.layers.len()).rev() {
            let layer = &mut self.layers[i];
            let (n_in, n_out) = (layer.in_features(), layer.out_features());
            let g = &scratch.grad[..batch * n_out];
            let x = &scratch.acts[i][..batch * n_in];
            let grad_w = layer.grad_weight_mut().as_mut_slice();
            ie_tensor::outer_accumulate_batch_into(g, x, grad_w, n_out, n_in, batch);
            for s in 0..batch {
                let g = &g[s * n_out..(s + 1) * n_out];
                ie_tensor::accumulate_slice_into(layer.grad_bias_mut().as_mut_slice(), g);
            }
            if i > 0 {
                self.propagate(i, scratch);
            }
        }
        Ok(())
    }

    /// Batched input gradient of the batch that last ran
    /// [`Self::forward_batch`] through `scratch`: returns `dL/d_input` rows
    /// (`[batch, input_size]`) for the output-gradient rows `grad_output`,
    /// each bit-identical to the input gradient [`Self::backward`] returns
    /// for that row. Parameter gradients are left untouched.
    ///
    /// # Errors
    ///
    /// The same as [`Self::backward_batch`].
    pub fn input_grad_batch<'s>(
        &self,
        grad_output: &[f32],
        scratch: &'s mut MlpScratch,
    ) -> Result<&'s [f32]> {
        self.output_grad_batch(grad_output, scratch)?;
        for i in (0..self.layers.len()).rev() {
            self.propagate(i, scratch);
        }
        Ok(&scratch.grad[..scratch.batch * self.input_size()])
    }

    /// Checks that `scratch` holds a forward pass of a network of this shape
    /// and writes the gradient at the last dense layer's output into
    /// `scratch.grad`. The activation slopes are taken from the activated
    /// outputs, the values [`Self::backward`] recomputes from the
    /// pre-activation.
    fn output_grad_batch(&self, grad_output: &[f32], scratch: &mut MlpScratch) -> Result<()> {
        if !scratch.sizes.iter().copied().eq(self.sizes()) {
            return Err(NnError::InputShapeMismatch {
                layer: "mlp(scratch)".into(),
                expected: self.sizes().collect(),
                actual: scratch.sizes.clone(),
            });
        }
        let len = scratch.batch * self.output_size();
        if grad_output.len() != len {
            return Err(NnError::InputShapeMismatch {
                layer: "mlp(batch grad)".into(),
                expected: vec![scratch.batch, self.output_size()],
                actual: vec![grad_output.len()],
            });
        }
        let out = &scratch.acts[self.layers.len()][..len];
        for ((g, &y), &go) in scratch.grad[..len].iter_mut().zip(out).zip(grad_output) {
            *g = match self.output_activation {
                OutputActivation::Linear => go,
                OutputActivation::Sigmoid => (y * (1.0 - y)) * go,
                OutputActivation::Tanh => (1.0 - y * y) * go,
            };
        }
        Ok(())
    }

    /// Back-propagates the gradient rows in `scratch.grad` through layer `i`
    /// (`dx = Wᵀ·g` for every sample in one kernel call), masks them with the
    /// ReLU of layer `i - 1` when there is one, and leaves the result in
    /// `scratch.grad`.
    fn propagate(&self, i: usize, scratch: &mut MlpScratch) {
        let layer = &self.layers[i];
        let (n_in, n_out) = (layer.in_features(), layer.out_features());
        let batch = scratch.batch;
        let dx = &mut scratch.dx[..batch * n_in];
        let g = &scratch.grad[..batch * n_out];
        ie_tensor::matvec_t_batch_into(layer.weight().as_slice(), g, dx, n_in, n_out, batch);
        if i > 0 {
            // Layer i's input is the ReLU output of layer i - 1, which is
            // positive exactly where that layer's pre-activation was. The
            // mask multiplies, like `Relu::backward`, so a masked negative
            // gradient stays `-0.0`.
            for (d, &a) in dx.iter_mut().zip(&scratch.acts[i]) {
                *d *= if a > 0.0 { 1.0 } else { 0.0 };
            }
        }
        std::mem::swap(&mut scratch.grad, &mut scratch.dx);
    }

    /// Applies accumulated gradients with learning rate `lr` and clears them.
    pub fn apply_gradients(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Polyak soft update: `self ← τ·other + (1 − τ)·self`.
    ///
    /// Used to track DDPG target networks. Layer shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if the two MLPs have different layer shapes.
    pub fn blend_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), other.layers.len(), "MLP layer counts differ");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(mine.weight().dims(), theirs.weight().dims(), "MLP layer shapes differ");
            for (w, o) in
                mine.weight_mut().as_mut_slice().iter_mut().zip(theirs.weight().as_slice())
            {
                *w = tau * o + (1.0 - tau) * *w;
            }
            for (b, o) in mine.bias_mut().as_mut_slice().iter_mut().zip(theirs.bias().as_slice()) {
                *b = tau * o + (1.0 - tau) * *b;
            }
        }
    }

    /// Copies all parameters from `other` (equivalent to `blend_from` with τ = 1).
    pub fn copy_from(&mut self, other: &Mlp) {
        self.blend_from(other, 1.0);
    }

    /// The dense layers of the MLP (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_respects_output_activation_ranges() {
        let mut r = rng();
        let x = Tensor::randn(&mut r, &[6], 0.0, 3.0);
        let sig = Mlp::new(&mut r, &[6, 12, 4], OutputActivation::Sigmoid);
        let tanh = Mlp::new(&mut r, &[6, 12, 4], OutputActivation::Tanh);
        let y_sig = sig.forward(&x).unwrap();
        let y_tanh = tanh.forward(&x).unwrap();
        assert!(y_sig.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(y_tanh.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn gradient_descent_fits_a_simple_target() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[2, 16, 1], OutputActivation::Linear);
        // Fit y = x0 + x1 on a few points.
        let data: Vec<(Tensor, f32)> = (0..20)
            .map(|i| {
                let a = (i % 5) as f32 / 5.0;
                let b = (i / 5) as f32 / 4.0;
                (Tensor::from_vec(vec![a, b], &[2]).unwrap(), a + b)
            })
            .collect();
        let loss_of = |m: &Mlp| -> f32 {
            data.iter()
                .map(|(x, y)| {
                    let p = m.forward(x).unwrap().as_slice()[0];
                    (p - y) * (p - y)
                })
                .sum::<f32>()
                / data.len() as f32
        };
        let initial = loss_of(&mlp);
        for _ in 0..300 {
            for (x, y) in &data {
                let p = mlp.forward(x).unwrap().as_slice()[0];
                let grad = Tensor::from_vec(vec![2.0 * (p - y)], &[1]).unwrap();
                mlp.backward(x, &grad).unwrap();
            }
            mlp.apply_gradients(0.01 / data.len() as f32);
        }
        let final_loss = loss_of(&mlp);
        assert!(final_loss < initial * 0.2, "MSE should drop: {initial} -> {final_loss}");
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[3, 5, 2], OutputActivation::Tanh);
        let x = Tensor::randn(&mut r, &[3], 0.0, 1.0);
        let ones = Tensor::ones(&[2]);
        let dx = mlp.backward(&x, &ones).unwrap();
        mlp.zero_grad();
        let eps = 1e-3;
        for i in 0..3 {
            let mut xu = x.clone();
            xu.as_mut_slice()[i] += eps;
            let up = mlp.forward(&xu).unwrap().sum();
            let mut xd = x.clone();
            xd.as_mut_slice()[i] -= eps;
            let down = mlp.forward(&xd).unwrap().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: analytic {} vs numeric {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn blend_from_moves_parameters_towards_source() {
        let mut r = rng();
        let a = Mlp::new(&mut r, &[2, 4, 1], OutputActivation::Linear);
        let mut b = Mlp::new(&mut r, &[2, 4, 1], OutputActivation::Linear);
        let before = b.layers()[0].weight().as_slice()[0];
        let target = a.layers()[0].weight().as_slice()[0];
        b.blend_from(&a, 0.5);
        let after = b.layers()[0].weight().as_slice()[0];
        assert!((after - (0.5 * target + 0.5 * before)).abs() < 1e-6);
        b.copy_from(&a);
        assert_eq!(b.layers()[0].weight().as_slice()[0], target);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that every layer's accumulated gradients match the oracle's
    /// bit for bit.
    fn assert_same_grads(got: &Mlp, want: &Mlp, what: &str) {
        for (i, (got, want)) in got.layers().iter().zip(want.layers()).enumerate() {
            assert_eq!(
                bits(got.grad_weight().as_slice()),
                bits(want.grad_weight().as_slice()),
                "{what} layer {i}: weight grads"
            );
            assert_eq!(
                bits(got.grad_bias().as_slice()),
                bits(want.grad_bias().as_slice()),
                "{what} layer {i}: bias grads"
            );
        }
    }

    #[test]
    fn batched_passes_match_per_sample_passes_bit_for_bit() {
        let mut r = rng();
        // One scratch for every case, so it also serves smaller batches and
        // narrower networks after larger ones.
        let mut scratch = MlpScratch::default();
        // Narrow layers only; the DDPG critic's shape (a 14-wide input, two
        // 48-wide layers with full 16-column tiles); and widths that leave
        // every narrower tile and a lane tail.
        let shapes: [&[usize]; 3] = [&[5, 7, 6, 3], &[14, 48, 48, 2], &[13, 37, 21, 1]];
        for sizes in shapes {
            let (n_in, n_out) = (sizes[0], sizes[sizes.len() - 1]);
            for output in
                [OutputActivation::Linear, OutputActivation::Sigmoid, OutputActivation::Tanh]
            {
                for batch in 1..=16 {
                    let case = format!("{sizes:?} {output:?} batch {batch}");
                    let mut mlp = Mlp::new(&mut r, sizes, output);
                    // A zero weight row gives an exact-zero pre-activation (the
                    // biases start at zero) on every sample, in every hidden
                    // layer.
                    let hidden = mlp.layers.len() - 1;
                    for layer in &mut mlp.layers[..hidden] {
                        let row = layer.in_features();
                        layer.weight_mut().as_mut_slice()[..row].fill(0.0);
                    }
                    // Every third sample is all zeros, so whole rows of every
                    // hidden layer sit exactly at zero.
                    let mut input = Tensor::randn(&mut r, &[batch * n_in], 0.0, 1.0).into_vec();
                    for row in input.chunks_exact_mut(n_in).skip(2).step_by(3) {
                        row.fill(0.0);
                    }
                    let grad_outputs: [Vec<f32>; 2] = std::array::from_fn(|_| {
                        Tensor::randn(&mut r, &[batch * n_out], 0.0, 1.0).into_vec()
                    });

                    let mut oracle = mlp.clone();
                    let (mut want_y, mut want_dx) = (Vec::new(), Vec::new());
                    let sample = |s: usize, g: &[f32]| {
                        let x = &input[s * n_in..(s + 1) * n_in];
                        let g = &g[s * n_out..(s + 1) * n_out];
                        (
                            Tensor::from_vec(x.to_vec(), &[n_in]).unwrap(),
                            Tensor::from_vec(g.to_vec(), &[n_out]).unwrap(),
                        )
                    };
                    for s in 0..batch {
                        let (x, g) = sample(s, &grad_outputs[0]);
                        want_y.extend(mlp.forward(&x).unwrap().into_vec());
                        want_dx.extend(oracle.backward(&x, &g).unwrap().into_vec());
                    }

                    let y = mlp.forward_batch(&input, batch, &mut scratch).unwrap();
                    assert_eq!(bits(y), bits(&want_y), "{case}: outputs");
                    let dx = mlp.input_grad_batch(&grad_outputs[0], &mut scratch).unwrap();
                    assert_eq!(bits(dx), bits(&want_dx), "{case}: input grads");
                    mlp.backward_batch(&grad_outputs[0], &mut scratch).unwrap();
                    assert_same_grads(&mlp, &oracle, &case);
                    // A second pass with no `zero_grad` in between: the
                    // accumulation starts from nonzero gradients.
                    for s in 0..batch {
                        let (x, g) = sample(s, &grad_outputs[1]);
                        oracle.backward(&x, &g).unwrap();
                    }
                    mlp.backward_batch(&grad_outputs[1], &mut scratch).unwrap();
                    assert_same_grads(&mlp, &oracle, &format!("{case} (second pass)"));
                }
            }
        }
    }

    #[test]
    fn batched_passes_reject_mismatched_shapes() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[4, 6, 2], OutputActivation::Sigmoid);
        let other = Mlp::new(&mut r, &[4, 5, 2], OutputActivation::Sigmoid);
        let mut scratch = MlpScratch::default();
        // Nothing has run forward yet.
        assert!(mlp.backward_batch(&[0.0; 6], &mut scratch).is_err());
        assert!(mlp.forward_batch(&[0.0; 11], 3, &mut scratch).is_err());
        mlp.forward_batch(&[0.5; 12], 3, &mut scratch).unwrap();
        assert!(mlp.backward_batch(&[1.0; 4], &mut scratch).is_err(), "two rows for three");
        assert!(mlp.input_grad_batch(&[1.0; 8], &mut scratch).is_err(), "four rows for three");
        // A scratch filled by a differently shaped network is refused.
        other.forward_batch(&[0.5; 12], 3, &mut scratch).unwrap();
        assert!(mlp.backward_batch(&[1.0; 6], &mut scratch).is_err());
        assert!(mlp.layers().iter().all(|l| l.grad_weight().sum() == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least an input and an output size")]
    fn mlp_requires_two_sizes() {
        let mut r = rng();
        let _ = Mlp::new(&mut r, &[4], OutputActivation::Linear);
    }
}

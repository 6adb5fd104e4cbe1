use crate::loss::{confidence, cross_entropy, softmax};
use crate::spec::{LayerSite, LayerSpecKind, MultiExitArchitecture};
use crate::{Conv2d, Dense, Flatten, Layer, MaxPool2d, NnError, Relu, Result};
use ie_tensor::Tensor;
use rand::Rng;

/// The result of evaluating one exit on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitOutput {
    /// Which exit produced the result.
    pub exit: usize,
    /// Raw logits of the exit classifier.
    pub logits: Tensor,
    /// Softmax probabilities.
    pub probs: Tensor,
    /// Predicted class (argmax of the probabilities).
    pub prediction: usize,
    /// Entropy-based confidence in `[0, 1]` (see [`crate::loss::confidence`]).
    pub confidence: f32,
}

/// An executable multi-exit network instantiated from a
/// [`MultiExitArchitecture`].
///
/// # Example
///
/// ```
/// use ie_nn::{spec::tiny_multi_exit, MultiExitNetwork};
/// use ie_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng)?;
/// let x = Tensor::zeros(&[1, 8, 8]);
/// let out = net.forward_to_exit(&x, 0)?;
/// assert_eq!(out.exit, 0);
/// let all = net.forward_all(&x)?;
/// assert_eq!(all[1].exit, 1);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiExitNetwork {
    arch: MultiExitArchitecture,
    segments: Vec<Vec<Layer>>,
    branches: Vec<Vec<Layer>>,
}

fn build_layer<R: Rng + ?Sized>(rng: &mut R, spec: &crate::spec::LayerSpec) -> Layer {
    match &spec.kind {
        LayerSpecKind::Conv { in_channels, out_channels, kernel, stride, padding } => Conv2d::new(
            rng,
            *in_channels,
            *out_channels,
            *kernel,
            *stride,
            *padding,
            spec.input_dims[1],
            spec.input_dims[2],
        )
        .into(),
        LayerSpecKind::Dense { in_features, out_features } => {
            Dense::new(rng, *in_features, *out_features).into()
        }
        LayerSpecKind::Relu => Relu::new().into(),
        LayerSpecKind::MaxPool { size } => MaxPool2d::new(*size).into(),
        LayerSpecKind::Flatten => Flatten::new().into(),
    }
}

impl MultiExitNetwork {
    /// Instantiates a network with freshly initialised weights.
    ///
    /// # Errors
    ///
    /// Infallible: every [`MultiExitArchitecture`] comes from
    /// [`crate::spec::ArchitectureBuilder::build`], which refuses every layer
    /// the kernels cannot run (a zero kernel or width, a zero input
    /// dimension or class count, a convolution plane its lowering table
    /// cannot index), so each convolution built here has a lowering table.
    /// The `Result` is kept for future spec validation.
    pub fn from_architecture<R: Rng + ?Sized>(
        arch: &MultiExitArchitecture,
        rng: &mut R,
    ) -> Result<Self> {
        let segments = arch
            .segments()
            .iter()
            .map(|seg| seg.iter().map(|s| build_layer(rng, s)).collect())
            .collect();
        let branches = arch
            .branches()
            .iter()
            .map(|br| br.iter().map(|s| build_layer(rng, s)).collect())
            .collect();
        Ok(MultiExitNetwork { arch: arch.clone(), segments, branches })
    }

    /// The architecture this network was built from.
    pub fn architecture(&self) -> &MultiExitArchitecture {
        &self.arch
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.branches.len()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.segments
            .iter()
            .flatten()
            .chain(self.branches.iter().flatten())
            .map(Layer::parameter_count)
            .sum()
    }

    /// Mutable access to the trunk-segment layers (used by the compression
    /// crate to prune and quantize weights in place).
    pub fn segments_mut(&mut self) -> &mut Vec<Vec<Layer>> {
        &mut self.segments
    }

    /// Mutable access to the branch layers.
    pub fn branches_mut(&mut self) -> &mut Vec<Vec<Layer>> {
        &mut self.branches
    }

    /// Shared access to the trunk-segment layers.
    pub fn segments(&self) -> &Vec<Vec<Layer>> {
        &self.segments
    }

    /// Shared access to the branch layers.
    pub fn branches(&self) -> &Vec<Vec<Layer>> {
        &self.branches
    }

    /// The parameterised layers in the canonical compressible order of
    /// [`MultiExitArchitecture::compressible_layers`]: for each exit `i`,
    /// trunk segment `i`'s, then branch `i`'s. The `n`-th layer yielded is
    /// the one that architecture's `n`-th entry describes, so a per-layer
    /// policy or config zips with this walk.
    pub fn compressible_layers(&self) -> impl Iterator<Item = &Layer> {
        let lists = self.segments.iter().zip(&self.branches);
        lists
            .flat_map(|(segment, branch)| segment.iter().chain(branch))
            .filter(|l| l.is_parameterised())
    }

    /// Mutable flavour of [`Self::compressible_layers`], in the same order.
    pub fn compressible_layers_mut(&mut self) -> impl Iterator<Item = &mut Layer> {
        let lists = self.segments.iter_mut().zip(self.branches.iter_mut());
        lists
            .flat_map(|(segment, branch)| segment.iter_mut().chain(branch))
            .filter(|l| l.is_parameterised())
    }

    /// The layer at `site`, or `None` when the site is out of range (a list
    /// rebuilt through [`Self::segments_mut`] or [`Self::branches_mut`] may
    /// no longer match the architecture).
    pub(crate) fn layer_at(&self, site: LayerSite) -> Option<&Layer> {
        let (lists, list, pos) = site.pick(&self.segments, &self.branches);
        lists.get(list)?.get(pos)
    }

    /// All layers in gradient-application order: trunk segments flattened,
    /// then branches flattened — the exact iteration order of
    /// [`Self::apply_gradients`] and [`Self::zero_grad`], which the
    /// [`crate::BackwardPlan`] gradient store mirrors.
    pub(crate) fn layers_mut(&mut self) -> impl Iterator<Item = &mut Layer> {
        self.segments.iter_mut().flatten().chain(self.branches.iter_mut().flatten())
    }

    /// Errors with [`NnError::InvalidExit`] when `exit` does not exist.
    pub(crate) fn check_exit(&self, exit: usize) -> Result<()> {
        if exit >= self.num_exits() {
            return Err(NnError::InvalidExit { requested: exit, available: self.num_exits() });
        }
        Ok(())
    }

    fn run_layers(layers: &[Layer], input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    fn exit_output(&self, exit: usize, logits: Tensor) -> Result<ExitOutput> {
        let probs = softmax(&logits)?;
        let prediction = probs.argmax()?;
        let conf = confidence(&probs);
        Ok(ExitOutput { exit, logits, probs, prediction, confidence: conf })
    }

    /// Runs inference from the raw input up to (and including) `exit`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidExit`] for an unknown exit or a shape error
    /// if the input does not match the architecture.
    pub fn forward_to_exit(&self, input: &Tensor, exit: usize) -> Result<ExitOutput> {
        self.check_exit(exit)?;
        let mut trunk = input.clone();
        for segment in &self.segments[..=exit] {
            trunk = Self::run_layers(segment, &trunk)?;
        }
        let logits = Self::run_layers(&self.branches[exit], &trunk)?;
        self.exit_output(exit, logits)
    }

    /// Evaluates every exit on the same input (used for training and for
    /// measuring per-exit accuracy).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_all(&self, input: &Tensor) -> Result<Vec<ExitOutput>> {
        let mut outputs = Vec::with_capacity(self.num_exits());
        let mut trunk = input.clone();
        for (i, segment) in self.segments.iter().enumerate() {
            trunk = Self::run_layers(segment, &trunk)?;
            let logits = Self::run_layers(&self.branches[i], &trunk)?;
            outputs.push(self.exit_output(i, logits)?);
        }
        Ok(outputs)
    }

    /// Accumulates gradients for one `(input, label)` pair using a weighted
    /// sum of the per-exit cross-entropy losses (the standard multi-exit
    /// training objective). Returns the combined loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabel`] for a label outside the class range,
    /// [`NnError::InvalidExit`] when `exit_weights` has the wrong length, or a
    /// shape error from the layers.
    pub fn backward(&mut self, input: &Tensor, label: usize, exit_weights: &[f32]) -> Result<f32> {
        if exit_weights.len() != self.num_exits() {
            return Err(NnError::InvalidExit {
                requested: exit_weights.len(),
                available: self.num_exits(),
            });
        }
        // Forward pass caching every layer input. Branches whose exit weight
        // is exactly zero contribute neither loss nor gradient, so their
        // forward pass (and the per-layer input clones it would cache) is
        // skipped entirely.
        let mut trunk_inputs: Vec<Vec<Tensor>> = Vec::with_capacity(self.segments.len());
        let mut branch_inputs: Vec<Vec<Tensor>> = Vec::with_capacity(self.branches.len());
        let mut logits_per_exit: Vec<Option<Tensor>> = Vec::with_capacity(self.branches.len());
        let mut x = input.clone();
        for (i, (segment, branch)) in self.segments.iter().zip(&self.branches).enumerate() {
            let mut seg_cache = Vec::with_capacity(segment.len());
            for layer in segment {
                seg_cache.push(x.clone());
                x = layer.forward(&x)?;
            }
            trunk_inputs.push(seg_cache);
            if exit_weights[i] == 0.0 {
                branch_inputs.push(Vec::new());
                logits_per_exit.push(None);
                continue;
            }
            let mut b = x.clone();
            let mut br_cache = Vec::with_capacity(branch.len());
            for layer in branch {
                br_cache.push(b.clone());
                b = layer.forward(&b)?;
            }
            branch_inputs.push(br_cache);
            logits_per_exit.push(Some(b));
        }

        // Per-exit losses and gradients at the logits.
        let mut total_loss = 0.0;
        // Gradient flowing into the trunk activation at the end of each segment.
        let mut trunk_grads: Vec<Option<Tensor>> = vec![None; self.segments.len()];
        for (i, logits) in logits_per_exit.iter().enumerate() {
            let w = exit_weights[i];
            let Some(logits) = logits.as_ref() else {
                continue;
            };
            let (loss, grad_logits) = cross_entropy(logits, label)?;
            total_loss += w * loss;
            let mut g = grad_logits.scale(w);
            // Backward through branch i.
            for (layer, layer_input) in self.branches[i].iter_mut().zip(&branch_inputs[i]).rev() {
                g = layer.backward(layer_input, &g)?;
            }
            match &mut trunk_grads[i] {
                Some(acc) => acc.add_scaled_inplace(&g, 1.0)?,
                slot => *slot = Some(g),
            }
        }

        // Backward through the trunk from the deepest segment to the first,
        // accumulating the branch gradients at each segment boundary.
        let mut carried: Option<Tensor> = None;
        for s in (0..self.segments.len()).rev() {
            let mut g = match (carried.take(), trunk_grads[s].take()) {
                (Some(mut c), Some(b)) => {
                    c.add_scaled_inplace(&b, 1.0)?;
                    c
                }
                (Some(c), None) => c,
                (None, Some(b)) => b,
                (None, None) => continue,
            };
            for (layer, layer_input) in self.segments[s].iter_mut().zip(&trunk_inputs[s]).rev() {
                g = layer.backward(layer_input, &g)?;
            }
            carried = Some(g);
        }
        Ok(total_loss)
    }

    /// Applies accumulated gradients with learning rate `lr` and clears them.
    pub fn apply_gradients(&mut self, lr: f32) {
        for layer in self.segments.iter_mut().flatten().chain(self.branches.iter_mut().flatten()) {
            layer.apply_gradients(lr);
        }
    }

    /// Clears accumulated gradients without applying them.
    pub fn zero_grad(&mut self) {
        for layer in self.segments.iter_mut().flatten().chain(self.branches.iter_mut().flatten()) {
            layer.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tiny_multi_exit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    #[test]
    fn forward_to_each_exit_produces_class_probabilities() {
        let net = tiny_net(1);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        for exit in 0..net.num_exits() {
            let out = net.forward_to_exit(&x, exit).unwrap();
            assert_eq!(out.exit, exit);
            assert_eq!(out.probs.len(), 3);
            assert!((out.probs.sum() - 1.0).abs() < 1e-5);
            assert!(out.prediction < 3);
            assert!((0.0..=1.0).contains(&out.confidence));
        }
        assert!(net.forward_to_exit(&x, 5).is_err());
    }

    #[test]
    fn forward_all_agrees_with_forward_to_exit() {
        let net = tiny_net(3);
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let all = net.forward_all(&x).unwrap();
        assert_eq!(all.len(), 2);
        for out in &all {
            let direct = net.forward_to_exit(&x, out.exit).unwrap();
            assert_eq!(direct.prediction, out.prediction);
        }
    }

    #[test]
    fn backward_reduces_loss_after_a_few_steps() {
        let mut net = tiny_net(4);
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let label = 1usize;
        let weights = vec![1.0, 1.0];
        let initial = net.backward(&x, label, &weights).unwrap();
        net.apply_gradients(0.05);
        let mut last = initial;
        for _ in 0..20 {
            last = net.backward(&x, label, &weights).unwrap();
            net.apply_gradients(0.05);
        }
        assert!(last < initial, "training on one sample must reduce its loss: {initial} -> {last}");
    }

    #[test]
    fn backward_validates_arguments() {
        let mut net = tiny_net(5);
        let x = Tensor::zeros(&[1, 8, 8]);
        assert!(net.backward(&x, 7, &[1.0, 1.0]).is_err(), "label out of range");
        assert!(net.backward(&x, 0, &[1.0]).is_err(), "weights length mismatch");
    }

    #[test]
    fn zero_weight_exits_receive_no_gradient() {
        let mut net = tiny_net(6);
        let x = Tensor::ones(&[1, 8, 8]);
        // Only exit 0 contributes; exit-1-only layers must keep zero gradients.
        net.backward(&x, 0, &[1.0, 0.0]).unwrap();
        let exit1_branch = &net.branches()[1];
        for layer in exit1_branch {
            if let Layer::Dense(d) = layer {
                assert_eq!(d.grad_weight().norm_sq(), 0.0);
            }
        }
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let net = tiny_net(7);
        let arch = tiny_multi_exit(3);
        let expected = (arch.total_weight_params() + arch.total_bias_params()) as usize;
        assert_eq!(net.parameter_count(), expected);
    }
}

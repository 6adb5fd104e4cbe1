use crate::{Conv2d, Dense, MaxPool2d, NnError, Relu, Result};
use ie_tensor::Tensor;
use std::ops::Range;

/// The input channels (or, for a dense layer, input features) that pruning
/// removed from a layer, with their complement precomputed for the kernels
/// that read only the kept ones. An unpruned layer's lists are empty, so
/// the many unpruned layers a process builds allocate nothing for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pruning {
    channels: usize,
    /// Removed channels, ascending.
    pruned: Vec<usize>,
    /// Kept channels, ascending (empty when nothing is pruned).
    kept: Vec<usize>,
    /// Maximal runs of consecutive kept channels (empty when nothing is
    /// pruned).
    runs: Vec<Range<usize>>,
}

impl Pruning {
    /// Every one of `channels` kept.
    pub(crate) fn none(channels: usize) -> Self {
        Pruning { channels, pruned: Vec::new(), kept: Vec::new(), runs: Vec::new() }
    }

    /// Removes `pruned` (in any order) from `channels` channels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidPruning`] for a channel out of range, a
    /// channel listed twice, or a list that removes every channel.
    pub(crate) fn new(channels: usize, pruned: &[usize]) -> Result<Self> {
        let mut sorted = pruned.to_vec();
        sorted.sort_unstable();
        if let Some(&bad) = sorted.last().filter(|&&c| c >= channels) {
            return Err(NnError::InvalidPruning(format!(
                "channel {bad} out of range for {channels} channels"
            )));
        }
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(NnError::InvalidPruning(format!("channel {} listed twice", pair[0])));
        }
        if channels > 0 && sorted.len() == channels {
            return Err(NnError::InvalidPruning(format!(
                "all {channels} channels pruned; at least one must stay"
            )));
        }
        if sorted.is_empty() {
            return Ok(Self::none(channels));
        }
        let kept: Vec<usize> = (0..channels).filter(|c| sorted.binary_search(c).is_err()).collect();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for &c in &kept {
            match runs.last_mut() {
                Some(run) if run.end == c => run.end += 1,
                _ => runs.push(c..c + 1),
            }
        }
        Ok(Pruning { channels, pruned: sorted, kept, runs })
    }

    /// Removed channels, ascending (empty when nothing is pruned).
    pub(crate) fn pruned(&self) -> &[usize] {
        &self.pruned
    }

    /// Kept channels, ascending, of a pruned layer (empty when nothing is
    /// pruned: then every channel is kept).
    pub(crate) fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Number of kept channels.
    pub(crate) fn kept_len(&self) -> usize {
        self.channels - self.pruned.len()
    }

    /// Whether any channel is removed.
    pub(crate) fn is_pruned(&self) -> bool {
        !self.pruned.is_empty()
    }

    /// The element ranges of the kept runs inside one weight row whose
    /// channels each hold `block` consecutive values (`k²` for a conv filter
    /// row, 1 for a dense row), in ascending order.
    pub(crate) fn kept_blocks(&self, block: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let all = (!self.is_pruned()).then_some(0..self.channels * block);
        all.into_iter().chain(self.runs.iter().map(move |run| run.start * block..run.end * block))
    }

    /// Zeroes the removed channels of every `row_len`-wide row of `weight`.
    pub(crate) fn zero_pruned(&self, weight: &mut [f32], row_len: usize, block: usize) {
        for row in weight.chunks_exact_mut(row_len) {
            for &c in &self.pruned {
                row[c * block..(c + 1) * block].fill(0.0);
            }
        }
    }
}

/// Flattens a multi-dimensional activation into a vector.
///
/// The backward pass simply reshapes the incoming gradient back to the shape
/// of the saved input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Flatten
    }

    /// Forward pass: reshape to a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the layer signature uniform.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.reshape(&[input.len()])?)
    }

    /// Backward pass: reshape the gradient to the input's shape.
    ///
    /// # Errors
    ///
    /// Returns an error when the gradient has a different element count than
    /// the input.
    pub fn backward(&self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        Ok(grad_output.reshape(input.dims())?)
    }
}

/// A single network layer.
///
/// Using an enum rather than trait objects keeps layers cloneable, comparable
/// and — most importantly for this reproduction — lets the compression crate
/// pattern-match on convolution and dense layers to apply channel pruning and
/// quantization directly to their weights.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Dense(Dense),
    /// ReLU activation.
    Relu(Relu),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Flatten to a vector.
    Flatten(Flatten),
}

impl Layer {
    /// Forward pass through the layer.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => l.forward(input),
            Layer::Dense(l) => l.forward(input),
            Layer::Relu(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::Flatten(l) => l.forward(input),
        }
    }

    /// Backward pass: `input` must be the tensor the forward pass received.
    ///
    /// Parameterised layers accumulate their gradients internally and return
    /// the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's shape errors.
    pub fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => l.backward(input, grad_output),
            Layer::Dense(l) => l.backward(input, grad_output),
            Layer::Relu(l) => l.backward(input, grad_output),
            Layer::MaxPool2d(l) => l.backward(input, grad_output),
            Layer::Flatten(l) => l.backward(input, grad_output),
        }
    }

    /// Number of trainable parameters in the layer.
    pub fn parameter_count(&self) -> usize {
        match self {
            Layer::Conv2d(l) => l.parameter_count(),
            Layer::Dense(l) => l.parameter_count(),
            _ => 0,
        }
    }

    /// Returns `true` when the layer has trainable parameters.
    pub fn is_parameterised(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Dense(_))
    }

    /// The weights of a convolution or dense layer; `None` for a layer
    /// without parameters.
    pub fn weight(&self) -> Option<&Tensor> {
        match self {
            Layer::Conv2d(l) => Some(l.weight()),
            Layer::Dense(l) => Some(l.weight()),
            _ => None,
        }
    }

    /// Mutable access to the weights of a convolution or dense layer; `None`
    /// for a layer without parameters.
    pub fn weight_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Conv2d(l) => Some(l.weight_mut()),
            Layer::Dense(l) => Some(l.weight_mut()),
            _ => None,
        }
    }

    /// Applies accumulated gradients with learning rate `lr` and clears them.
    pub fn apply_gradients(&mut self, lr: f32) {
        match self {
            Layer::Conv2d(l) => l.apply_gradients(lr),
            Layer::Dense(l) => l.apply_gradients(lr),
            _ => {}
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv2d(l) => l.zero_grad(),
            Layer::Dense(l) => l.zero_grad(),
            _ => {}
        }
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Self {
        Layer::Dense(l)
    }
}

impl From<Relu> for Layer {
    fn from(l: Relu) -> Self {
        Layer::Relu(l)
    }
}

impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Self {
        Layer::MaxPool2d(l)
    }
}

impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flatten_roundtrips_shapes() {
        let f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.dims(), &[24]);
        let dx = f.backward(&x, &Tensor::ones(&[24])).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 4]);
    }

    #[test]
    fn layer_enum_dispatches_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let layers: Vec<Layer> = vec![
            Conv2d::new(&mut rng, 1, 2, 3, 1, 1, 4, 4).into(),
            Relu::new().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
        ];
        let mut x = Tensor::ones(&[1, 4, 4]);
        for l in &layers {
            x = l.forward(&x).unwrap();
        }
        assert_eq!(x.dims(), &[8]);
    }

    #[test]
    fn parameter_counts_only_for_weighted_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv: Layer = Conv2d::new(&mut rng, 1, 2, 3, 1, 1, 4, 4).into();
        let dense: Layer = Dense::new(&mut rng, 8, 4).into();
        let relu: Layer = Relu::new().into();
        // 2 out-channels x 1 in-channel x 3x3 kernel, plus 2 biases.
        assert_eq!(conv.parameter_count(), 2 * 9 + 2);
        assert_eq!(dense.parameter_count(), 8 * 4 + 4);
        assert_eq!(relu.parameter_count(), 0);
        assert!(conv.is_parameterised());
        assert!(!relu.is_parameterised());
    }
}

use crate::MultiExitNetwork;

/// A minimal stochastic-gradient-descent optimiser for [`MultiExitNetwork`]s.
///
/// Layers accumulate their own gradients during `backward`; the optimiser
/// simply owns the learning-rate schedule (constant rate with optional decay
/// per epoch) and applies/clears the accumulated gradients.
///
/// # Example
///
/// ```
/// use ie_nn::Sgd;
///
/// let mut sgd = Sgd::new(0.1).with_decay(0.5);
/// assert_eq!(sgd.learning_rate(), 0.1);
/// sgd.end_epoch();
/// assert_eq!(sgd.learning_rate(), 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    learning_rate: f32,
    decay: f32,
}

impl Sgd {
    /// Creates an optimiser with a constant learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not strictly positive.
    pub fn new(learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Sgd { learning_rate, decay: 1.0 }
    }

    /// Sets a multiplicative per-epoch decay factor (1.0 = no decay).
    pub fn with_decay(mut self, decay: f32) -> Self {
        self.decay = decay;
        self
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Applies accumulated gradients of the network and clears them.
    pub fn step(&self, network: &mut MultiExitNetwork) {
        network.apply_gradients(self.learning_rate);
    }

    /// Applies the per-epoch learning-rate decay.
    pub fn end_epoch(&mut self) {
        self.learning_rate *= self.decay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tiny_multi_exit;
    use ie_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_non_positive_learning_rate() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn step_applies_and_clears_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(2), &mut rng).unwrap();
        let x = Tensor::ones(&[1, 8, 8]);
        let before = net.forward_to_exit(&x, 0).unwrap().logits;
        net.backward(&x, 0, &[1.0, 1.0]).unwrap();
        Sgd::new(0.5).step(&mut net);
        let after = net.forward_to_exit(&x, 0).unwrap().logits;
        assert_ne!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn decay_shrinks_learning_rate_each_epoch() {
        let mut sgd = Sgd::new(1.0).with_decay(0.1);
        sgd.end_epoch();
        sgd.end_epoch();
        assert!((sgd.learning_rate() - 0.01).abs() < 1e-7);
    }
}

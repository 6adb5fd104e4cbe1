use crate::{CompressError, Result};

/// Minimum preserve ratio the paper's action space allows.
pub const MIN_PRESERVE_RATIO: f32 = 0.05;
/// Step size of the paper's pruning-rate grid.
pub const PRESERVE_RATIO_STEP: f32 = 0.05;
/// Minimum quantization bitwidth of the search space.
pub const MIN_BITS: u8 = 1;
/// Maximum quantization bitwidth of the search space.
pub const MAX_BITS: u8 = 8;

/// Per-layer compression decision: how many input channels to keep and how
/// many bits to use for weights and activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPolicy {
    /// Fraction of input channels preserved (the paper's pruning rate `α_l`),
    /// in `[0.05, 1.0]`.
    pub preserve_ratio: f32,
    /// Weight bitwidth `b^w_l`, in `1..=32` (32 = uncompressed float).
    pub weight_bits: u8,
    /// Activation bitwidth `b^a_l`, in `1..=32`.
    pub activation_bits: u8,
}

impl LayerPolicy {
    /// A policy that leaves the layer untouched.
    pub fn identity() -> Self {
        LayerPolicy { preserve_ratio: 1.0, weight_bits: 32, activation_bits: 32 }
    }

    /// Creates a validated layer policy.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidPreserveRatio`] or
    /// [`CompressError::InvalidBitwidth`] for out-of-range values.
    pub fn new(preserve_ratio: f32, weight_bits: u8, activation_bits: u8) -> Result<Self> {
        let policy = LayerPolicy { preserve_ratio, weight_bits, activation_bits };
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the entry against [`LayerPolicy::new`]'s rules. The fields are
    /// public, so an entry built field by field has not been checked yet.
    fn validate(&self) -> Result<()> {
        let ratio = self.preserve_ratio;
        if !(MIN_PRESERVE_RATIO..=1.0).contains(&ratio) || !ratio.is_finite() {
            return Err(CompressError::InvalidPreserveRatio { ratio });
        }
        for bits in [self.weight_bits, self.activation_bits] {
            if bits == 0 || bits > 32 {
                return Err(CompressError::InvalidBitwidth { bits });
            }
        }
        Ok(())
    }

    /// Snaps the preserve ratio to the paper's 0.05 grid and the bitwidths to
    /// the `1..=8` search range (values above 8 are treated as "uncompressed"
    /// and left alone).
    pub fn snapped(&self) -> Self {
        let steps = (self.preserve_ratio / PRESERVE_RATIO_STEP).round().max(1.0);
        let ratio = (steps * PRESERVE_RATIO_STEP).clamp(MIN_PRESERVE_RATIO, 1.0);
        let clamp_bits = |b: u8| if b > MAX_BITS { b } else { b.clamp(MIN_BITS, MAX_BITS) };
        LayerPolicy {
            preserve_ratio: ratio,
            weight_bits: clamp_bits(self.weight_bits),
            activation_bits: clamp_bits(self.activation_bits),
        }
    }

    /// Returns `true` when the layer is neither pruned nor quantized.
    pub fn is_identity(&self) -> bool {
        self.preserve_ratio >= 1.0 && self.weight_bits >= 32 && self.activation_bits >= 32
    }
}

impl Default for LayerPolicy {
    fn default() -> Self {
        LayerPolicy::identity()
    }
}

/// A full compression policy: one [`LayerPolicy`] per compressible layer, in
/// the canonical layer order of
/// [`ie_nn::spec::MultiExitArchitecture::compressible_layers`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressionPolicy {
    layers: Vec<LayerPolicy>,
}

impl CompressionPolicy {
    /// Creates a policy from per-layer entries.
    pub fn from_layers(layers: Vec<LayerPolicy>) -> Self {
        CompressionPolicy { layers }
    }

    /// The identity policy (no pruning, full precision) for `n` layers.
    pub fn full_precision(n: usize) -> Self {
        CompressionPolicy { layers: vec![LayerPolicy::identity(); n] }
    }

    /// A uniform policy: every layer gets the same preserve ratio and
    /// bitwidths (the paper's "uniform compression" baseline).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`LayerPolicy::new`].
    pub fn uniform(
        n: usize,
        preserve_ratio: f32,
        weight_bits: u8,
        activation_bits: u8,
    ) -> Result<Self> {
        let layer = LayerPolicy::new(preserve_ratio, weight_bits, activation_bits)?;
        Ok(CompressionPolicy { layers: vec![layer; n] })
    }

    /// Number of layers covered by the policy.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the policy has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Per-layer entries.
    pub fn layers(&self) -> &[LayerPolicy] {
        &self.layers
    }

    /// Mutable per-layer entries (used by the search to write actions).
    pub fn layers_mut(&mut self) -> &mut [LayerPolicy] {
        &mut self.layers
    }

    /// The entry for layer `index`, if it exists.
    pub fn layer(&self, index: usize) -> Option<&LayerPolicy> {
        self.layers.get(index)
    }

    /// Returns a copy with every entry snapped to the paper's action grid.
    pub fn snapped(&self) -> Self {
        CompressionPolicy { layers: self.layers.iter().map(LayerPolicy::snapped).collect() }
    }

    /// Validates that the policy covers exactly `model_layers` layers and
    /// that every entry obeys [`LayerPolicy::new`]'s rules.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::PolicyLengthMismatch`] for a wrong entry
    /// count, and [`CompressError::InvalidPreserveRatio`] or
    /// [`CompressError::InvalidBitwidth`] for the first out-of-range entry.
    pub fn validate(&self, model_layers: usize) -> Result<()> {
        if self.layers.len() != model_layers {
            return Err(CompressError::PolicyLengthMismatch {
                policy_layers: self.layers.len(),
                model_layers,
            });
        }
        self.layers.iter().try_for_each(LayerPolicy::validate)
    }

    /// Mean preserve ratio across layers (a coarse summary used in logs).
    pub fn mean_preserve_ratio(&self) -> f32 {
        if self.layers.is_empty() {
            return 1.0;
        }
        self.layers.iter().map(|l| l.preserve_ratio).sum::<f32>() / self.layers.len() as f32
    }

    /// Mean weight bitwidth across layers.
    pub fn mean_weight_bits(&self) -> f32 {
        if self.layers.is_empty() {
            return 32.0;
        }
        self.layers.iter().map(|l| l.weight_bits as f32).sum::<f32>() / self.layers.len() as f32
    }
}

impl FromIterator<LayerPolicy> for CompressionPolicy {
    fn from_iter<I: IntoIterator<Item = LayerPolicy>>(iter: I) -> Self {
        CompressionPolicy { layers: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_policy_validation() {
        assert!(LayerPolicy::new(0.5, 8, 8).is_ok());
        assert!(LayerPolicy::new(0.01, 8, 8).is_err());
        assert!(LayerPolicy::new(1.2, 8, 8).is_err());
        assert!(LayerPolicy::new(0.5, 0, 8).is_err());
        assert!(LayerPolicy::new(0.5, 8, 64).is_err());
        assert!(LayerPolicy::identity().is_identity());
        assert!(!LayerPolicy::new(0.5, 8, 8).unwrap().is_identity());
    }

    #[test]
    fn snapping_lands_on_the_action_grid() {
        let p = LayerPolicy { preserve_ratio: 0.43, weight_bits: 12, activation_bits: 0 };
        let s = p.snapped();
        assert!((s.preserve_ratio - 0.45).abs() < 1e-6);
        assert_eq!(s.weight_bits, 12, "bitwidths above 8 are treated as uncompressed");
        assert_eq!(s.activation_bits, 1);
        let tiny =
            LayerPolicy { preserve_ratio: 0.001, weight_bits: 4, activation_bits: 4 }.snapped();
        assert!(tiny.preserve_ratio >= MIN_PRESERVE_RATIO);
    }

    #[test]
    fn uniform_and_full_precision_constructors() {
        let u = CompressionPolicy::uniform(11, 0.7, 4, 6).unwrap();
        assert_eq!(u.len(), 11);
        assert!(u.layers().iter().all(|l| l.weight_bits == 4 && l.activation_bits == 6));
        assert!((u.mean_preserve_ratio() - 0.7).abs() < 1e-6);
        let fp = CompressionPolicy::full_precision(3);
        assert!(fp.layers().iter().all(LayerPolicy::is_identity));
        assert_eq!(fp.mean_weight_bits(), 32.0);
        assert!(CompressionPolicy::uniform(4, 2.0, 4, 4).is_err());
    }

    #[test]
    fn length_check() {
        let p = CompressionPolicy::full_precision(5);
        assert!(p.validate(5).is_ok());
        assert!(p.validate(11).is_err());
        // Entries built field by field are checked like `LayerPolicy::new`.
        let valid = LayerPolicy::new(0.5, 4, 8).unwrap();
        let bad = [
            (LayerPolicy { weight_bits: 0, ..valid }, CompressError::InvalidBitwidth { bits: 0 }),
            (
                LayerPolicy { activation_bits: 0, ..valid },
                CompressError::InvalidBitwidth { bits: 0 },
            ),
            (
                LayerPolicy { weight_bits: 200, ..valid },
                CompressError::InvalidBitwidth { bits: 200 },
            ),
            (
                LayerPolicy { preserve_ratio: 0.01, ..valid },
                CompressError::InvalidPreserveRatio { ratio: 0.01 },
            ),
        ];
        for (entry, err) in bad {
            let p = CompressionPolicy::from_layers(vec![valid, entry, valid]);
            assert_eq!(p.validate(3), Err(err), "{entry:?}");
        }
        let nan = LayerPolicy { preserve_ratio: f32::NAN, ..valid };
        let p = CompressionPolicy::from_layers(vec![valid, nan]);
        assert!(matches!(p.validate(2), Err(CompressError::InvalidPreserveRatio { .. })));
    }
}

//! Softmax, cross-entropy loss and the entropy-based confidence measure used
//! by the early-exit decision logic (Section IV of the paper).

use crate::{NnError, Result};
use ie_tensor::Tensor;

/// Numerically stable softmax over a logits vector.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] for an empty input.
///
/// # Example
///
/// ```
/// use ie_nn::loss::softmax;
/// use ie_tensor::Tensor;
///
/// let p = softmax(&Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap())?;
/// assert!((p.as_slice()[0] - 0.5).abs() < 1e-6);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[logits.len()]);
    softmax_into(logits.as_slice(), out.as_mut_slice())?;
    out.reshape(logits.dims()).map_err(NnError::from)
}

/// Numerically stable softmax written into a caller-provided buffer of the
/// same length. Never allocates; bit-identical to [`softmax`].
///
/// Delegates to the dispatched [`ie_tensor::softmax_slice_into`] kernel:
/// fixed 8-lane max/sum reduction trees and a shared polynomial exponential,
/// bit-identical on every ISA tier.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] for an empty input or a length mismatch.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) -> Result<()> {
    if logits.is_empty() {
        return Err(NnError::Tensor(ie_tensor::TensorError::EmptyTensor));
    }
    if logits.len() != out.len() {
        return Err(NnError::Tensor(ie_tensor::TensorError::DataShapeMismatch {
            data_len: out.len(),
            shape_len: logits.len(),
        }));
    }
    ie_tensor::softmax_slice_into(logits, out);
    Ok(())
}

/// Cross-entropy loss between a logits vector and an integer class label.
///
/// Returns the scalar loss and the gradient with respect to the logits
/// (`softmax(logits) - one_hot(label)`), ready to feed into the backward pass.
///
/// # Errors
///
/// Returns [`NnError::InvalidLabel`] when `label >= logits.len()`.
pub fn cross_entropy(logits: &Tensor, label: usize) -> Result<(f32, Tensor)> {
    if label >= logits.len() {
        return Err(NnError::InvalidLabel { label, classes: logits.len() });
    }
    let probs = softmax(logits)?;
    let p_true = probs.as_slice()[label].max(1e-12);
    let loss = -p_true.ln();
    let mut grad = probs;
    grad.as_mut_slice()[label] -= 1.0;
    Ok((loss, grad))
}

/// Shannon entropy (in nats) of a probability vector; never allocates.
///
/// Low entropy means the exit is confident about its prediction; the runtime
/// compares the *normalised* entropy against a threshold to decide whether an
/// incremental inference to the next exit is worthwhile.
pub fn entropy_slice(probs: &[f32]) -> f32 {
    probs.iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum()
}

/// Entropy of `probs` normalised to `[0, 1]` by the maximum possible entropy
/// (`ln(num_classes)`), so thresholds are independent of the class count;
/// never allocates.
pub fn normalized_entropy_slice(probs: &[f32]) -> f32 {
    let n = probs.len();
    if n <= 1 {
        return 0.0;
    }
    entropy_slice(probs) / (n as f32).ln()
}

/// Confidence of a probability vector, defined as `1 − normalized_entropy`.
///
/// A uniform distribution has confidence 0; a one-hot distribution has
/// confidence 1.
pub fn confidence(probs: &Tensor) -> f32 {
    confidence_slice(probs.as_slice())
}

/// Slice form of [`confidence`]; never allocates.
pub fn confidence_slice(probs: &[f32]) -> f32 {
    1.0 - normalized_entropy_slice(probs)
}

/// Index of the maximum element (first one on ties), or `None` for an empty
/// slice. Matches `Tensor::argmax` exactly; never allocates.
pub fn argmax_slice(values: &[f32]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    Some(best)
}

/// Classification accuracy of a batch of (probability, label) pairs.
pub fn accuracy(predictions: &[(Tensor, usize)]) -> f32 {
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .filter(|(p, label)| p.argmax().map(|a| a == *label).unwrap_or(false))
        .count();
    correct as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let p = softmax(&t(&[1.0, 2.0, 3.0])).unwrap();
        assert!((p.sum() - 1.0).abs() < 1e-6);
        assert!(p.as_slice()[2] > p.as_slice()[1] && p.as_slice()[1] > p.as_slice()[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&t(&[1.0, 2.0])).unwrap();
        let b = softmax(&t(&[1001.0, 1002.0])).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(b.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let (loss_good, _) = cross_entropy(&t(&[10.0, 0.0, 0.0]), 0).unwrap();
        let (loss_bad, _) = cross_entropy(&t(&[10.0, 0.0, 0.0]), 1).unwrap();
        assert!(loss_good < 0.01);
        assert!(loss_bad > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let (_, grad) = cross_entropy(&t(&[0.3, -0.2, 1.4]), 2).unwrap();
        assert!(grad.sum().abs() < 1e-6);
        // Gradient at the true class is negative (push logit up).
        assert!(grad.as_slice()[2] < 0.0);
    }

    #[test]
    fn cross_entropy_rejects_out_of_range_label() {
        assert!(cross_entropy(&t(&[0.0, 0.0]), 2).is_err());
    }

    #[test]
    fn entropy_extremes() {
        let uniform = t(&[0.25, 0.25, 0.25, 0.25]);
        let onehot = t(&[1.0, 0.0, 0.0, 0.0]);
        assert!((entropy_slice(uniform.as_slice()) - (4.0f32).ln()).abs() < 1e-6);
        assert_eq!(entropy_slice(onehot.as_slice()), 0.0);
        assert!((normalized_entropy_slice(uniform.as_slice()) - 1.0).abs() < 1e-6);
        assert_eq!(confidence(&onehot), 1.0);
        assert!(confidence(&uniform).abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let preds = vec![(t(&[0.9, 0.1]), 0), (t(&[0.2, 0.8]), 1), (t(&[0.6, 0.4]), 1)];
        assert!((accuracy(&preds) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&[]), 0.0);
    }
}

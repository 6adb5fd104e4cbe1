//! Magnitude-based channel pruning (Eq. 2 of the paper).
//!
//! The importance of input channel `j` is the sum of absolute weights applied
//! to it across all filters, `s_j = Σ_i |W_{i,j}|`; the least important
//! channels are pruned. On the deployed MCU the pruned channels are physically
//! removed, and so they are here: the prune step zeroes them and records them
//! on their layer (`ie_nn::Conv2d::set_pruned_channels`), after which the
//! `f32` convolution kernels lower and multiply only the kept channels and
//! the integer engine packs the zeroed code blocks away. Tensor shapes stay
//! unchanged, so the rest of the pipeline never sees the difference.

use ie_tensor::Tensor;

/// Computes the importance of every input channel of a convolution filter
/// tensor `[out_channels, in_channels, k, k]` or dense weight matrix
/// `[out_features, in_features]`.
///
/// Returns one non-negative score per input channel. Unsupported ranks return
/// an empty vector.
pub fn channel_importance(weight: &Tensor) -> Vec<f32> {
    let dims = weight.dims();
    match dims.len() {
        4 => {
            let (o, c, k1, k2) = (dims[0], dims[1], dims[2], dims[3]);
            let mut scores = vec![0.0f32; c];
            let data = weight.as_slice();
            for oc in 0..o {
                for (ic, score) in scores.iter_mut().enumerate() {
                    let start = ((oc * c) + ic) * k1 * k2;
                    *score += data[start..start + k1 * k2].iter().map(|w| w.abs()).sum::<f32>();
                }
            }
            scores
        }
        2 => {
            let (o, c) = (dims[0], dims[1]);
            let mut scores = vec![0.0f32; c];
            let data = weight.as_slice();
            for oc in 0..o {
                for (ic, score) in scores.iter_mut().enumerate() {
                    *score += data[oc * c + ic].abs();
                }
            }
            scores
        }
        _ => Vec::new(),
    }
}

/// Selects the indices of the input channels to prune so that
/// `preserve_ratio` of the channels survive. The least important channels are
/// pruned first; at least one channel always survives.
pub fn select_pruned_channels(importance: &[f32], preserve_ratio: f32) -> Vec<usize> {
    let c = importance.len();
    if c == 0 {
        return Vec::new();
    }
    let keep = ((c as f32 * preserve_ratio.clamp(0.0, 1.0)).round() as usize).clamp(1, c);
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by(|&a, &b| {
        importance[a].partial_cmp(&importance[b]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut pruned: Vec<usize> = order.into_iter().take(c - keep).collect();
    pruned.sort_unstable();
    pruned
}

/// Zeroes the given input channels of a convolution filter tensor
/// `[o, c, k, k]` or dense weight matrix `[o, c]`.
pub fn zero_channels(weight: &mut Tensor, channels: &[usize]) {
    let dims = weight.dims().to_vec();
    match dims.len() {
        4 => {
            let (o, c, k1, k2) = (dims[0], dims[1], dims[2], dims[3]);
            let data = weight.as_mut_slice();
            for oc in 0..o {
                for &ic in channels {
                    if ic >= c {
                        continue;
                    }
                    let start = ((oc * c) + ic) * k1 * k2;
                    for v in &mut data[start..start + k1 * k2] {
                        *v = 0.0;
                    }
                }
            }
        }
        2 => {
            let (o, c) = (dims[0], dims[1]);
            let data = weight.as_mut_slice();
            for oc in 0..o {
                for &ic in channels {
                    if ic < c {
                        data[oc * c + ic] = 0.0;
                    }
                }
            }
        }
        _ => {}
    }
}

/// Prunes a weight tensor in place to the given preserve ratio and returns the
/// pruned channel indices.
pub fn prune_weight(weight: &mut Tensor, preserve_ratio: f32) -> Vec<usize> {
    let importance = channel_importance(weight);
    let pruned = select_pruned_channels(&importance, preserve_ratio);
    zero_channels(weight, &pruned);
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_sums_absolute_weights_per_input_channel() {
        // Dense [2 out, 3 in].
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.0, 3.0, 1.0, 0.5], &[2, 3]).unwrap();
        let imp = channel_importance(&w);
        assert_eq!(imp.len(), 3);
        assert!((imp[0] - 4.0).abs() < 1e-6);
        assert!((imp[1] - 3.0).abs() < 1e-6);
        assert!((imp[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn importance_for_conv_filters() {
        // [1 out, 2 in, 1x1]: channel 0 weight 0.1, channel 1 weight -5.
        let w = Tensor::from_vec(vec![0.1, -5.0], &[1, 2, 1, 1]).unwrap();
        let imp = channel_importance(&w);
        assert!(imp[1] > imp[0]);
        // Unsupported rank returns empty.
        assert!(channel_importance(&Tensor::zeros(&[4])).is_empty());
    }

    #[test]
    fn least_important_channels_are_pruned_first() {
        let importance = vec![5.0, 0.1, 3.0, 0.2];
        let pruned = select_pruned_channels(&importance, 0.5);
        assert_eq!(pruned, vec![1, 3]);
        // Preserve everything.
        assert!(select_pruned_channels(&importance, 1.0).is_empty());
        // At least one channel survives even with a tiny ratio.
        assert_eq!(select_pruned_channels(&importance, 0.01).len(), 3);
        assert!(select_pruned_channels(&[], 0.5).is_empty());
    }

    #[test]
    fn prune_weight_zeroes_selected_channels_only() {
        let mut w = Tensor::from_vec(vec![1.0, 0.01, 2.0, 0.02, 3.0, 0.03], &[3, 2]).unwrap();
        let pruned = prune_weight(&mut w, 0.5);
        assert_eq!(pruned, vec![1]);
        // Column 1 is zeroed, column 0 untouched.
        assert_eq!(w.get(&[0, 1]), Some(0.0));
        assert_eq!(w.get(&[2, 1]), Some(0.0));
        assert_eq!(w.get(&[0, 0]), Some(1.0));
    }

    #[test]
    fn pruning_a_conv_tensor_preserves_other_channels() {
        let mut w = Tensor::from_vec(
            vec![
                // out 0: in0 kernel, in1 kernel
                1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, // out 1
                2.0, 2.0, 2.0, 2.0, 0.1, 0.1, 0.1, 0.1,
            ],
            &[2, 2, 2, 2],
        )
        .unwrap();
        let pruned = prune_weight(&mut w, 0.5);
        assert_eq!(pruned, vec![1]);
        assert_eq!(w.get(&[0, 1, 0, 0]), Some(0.0));
        assert_eq!(w.get(&[1, 1, 1, 1]), Some(0.0));
        assert_eq!(w.get(&[1, 0, 0, 0]), Some(2.0));
    }
}

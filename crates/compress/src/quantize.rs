//! Linear quantization of weights and activations (Eq. 3 of the paper).
//!
//! Weights are quantized symmetrically into `k`-bit signed integers,
//! `w' = clamp(round(w / s), −2^{k−1}, 2^{k−1} − 1) · s`, with the scale `s`
//! chosen to minimise `‖w' − w‖²`. One-bit weights use the two nonzero
//! levels `{−s, +s}` (a true binary quantizer; exact zeros from pruning stay
//! zero). Activations (non-negative after ReLU) use the unsigned range
//! `[0, 2^k − 1]`.
//!
//! For bitwidths up to 16 the round trip goes through the **shared** integer
//! code map [`ie_tensor::weight_code`] — the same function the quantized
//! execution backend uses to pack its i8/i16 GEMM operands — so the
//! fake-quant `f32` values produced here are exactly `code · scale` for the
//! codes the integer engine multiplies with.

use ie_tensor::{weight_code, Tensor};

/// Result of quantizing a tensor: the dequantized values (what the MCU's
/// integer arithmetic effectively computes with) and the scale used.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// The values after the quantize→dequantize round trip.
    pub values: Tensor,
    /// The scale factor `s`.
    pub scale: f32,
    /// Mean-squared quantization error.
    pub mse: f32,
}

/// Number of candidate scales the search scores: `0.30, 0.32, …, 1.60` times
/// the max-abs scale.
const CANDIDATES: usize = 66;

/// Scans a multiplicative neighbourhood of the max-abs scale `initial` for
/// the scale minimising the mean squared error of the per-element round trip
/// `quantize(w, scale)` — the simple 1-D minimisation the paper's
/// "determined by minimising the quantization error" calls for — and returns
/// the round-tripped values, the scale and its error.
///
/// One pass scores every candidate: each element adds its squared error to
/// every candidate's own sum, in element order, so each sum is bit for bit
/// the serial sum of a pass per candidate. Exact zeros (`±0`) are skipped:
/// each quantizer maps them to `±0` at every finite scale, which would add
/// `+0.0` to a non-negative sum. (Only an infinite scale differs, where
/// `0 · ∞` is NaN; for finite data that is a candidate overflowing past
/// `f32::MAX`, which scores `∞` or NaN either way and never wins.) The first
/// candidate with the smallest error wins.
fn search_scale(
    data: &[f32],
    initial: f32,
    quantize: impl Fn(f32, f32) -> f32,
) -> (Vec<f32>, f32, f32) {
    let scales: [f32; CANDIDATES] =
        std::array::from_fn(|step| (initial * (0.3 + 0.02 * step as f32)).max(f32::MIN_POSITIVE));
    let mut err = [0.0f32; CANDIDATES];
    for &w in data.iter().filter(|&&w| w != 0.0) {
        for (e, &scale) in err.iter_mut().zip(&scales) {
            let d = quantize(w, scale) - w;
            *e += d * d;
        }
    }
    let mse = err.map(|e| e / data.len().max(1) as f32);
    let best = (1..CANDIDATES).fold(0, |best, k| if mse[k] < mse[best] { k } else { best });
    let scale = scales[best];
    (data.iter().map(|&w| quantize(w, scale)).collect(), scale, mse[best])
}

/// Quantizes a weight tensor to `bits` bits with a symmetric signed range.
///
/// For `bits ≤ 16` the values are `code · scale` for the integer codes of
/// [`ie_tensor::weight_code`] — exactly what the quantized execution backend
/// packs into its i8/i16 GEMM operands — with one bit getting the honest
/// two-level binary quantizer `{−s, +s}` (exact zeros stay zero, so pruning
/// survives). Bitwidths of 32 or more return the tensor unchanged (full
/// precision).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn quantize_weights(weights: &Tensor, bits: u8) -> Quantized {
    assert!(bits > 0, "bitwidth must be at least 1");
    if bits >= 32 || weights.is_empty() {
        return Quantized { values: weights.clone(), scale: 1.0, mse: 0.0 };
    }
    let data = weights.as_slice();
    let max_abs = data.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
    if max_abs == 0.0 {
        return Quantized { values: weights.clone(), scale: 1.0, mse: 0.0 };
    }
    let hi = (2f32.powi(i32::from(bits) - 1) - 1.0).max(1.0);
    let initial = max_abs / hi;
    let (vals, scale, mse) = if bits <= 16 {
        // The shared integer code map: bit for bit the values the integer
        // execution backend computes with (`code · scale`).
        search_scale(data, initial, |w, s| weight_code(w, s, bits) as f32 * s)
    } else {
        let lo = -2f32.powi(i32::from(bits) - 1);
        search_scale(data, initial, |w, s| (w / s).round().clamp(lo, hi) * s)
    };
    Quantized {
        values: Tensor::from_vec(vals, weights.dims()).expect("quantization preserves shape"),
        scale,
        mse,
    }
}

/// Quantizes a non-negative activation tensor to `bits` bits with the unsigned
/// range `[0, 2^k − 1]`.
///
/// Bitwidths of 32 or more return the tensor unchanged.
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn quantize_activations(activations: &Tensor, bits: u8) -> Quantized {
    assert!(bits > 0, "bitwidth must be at least 1");
    if bits >= 32 || activations.is_empty() {
        return Quantized { values: activations.clone(), scale: 1.0, mse: 0.0 };
    }
    let data = activations.as_slice();
    let max = data.iter().fold(0.0f32, |m, &v| m.max(v));
    if max <= 0.0 {
        return Quantized { values: activations.clone(), scale: 1.0, mse: 0.0 };
    }
    let hi = 2f32.powi(i32::from(bits)) - 1.0;
    let initial = max / hi;
    let (vals, scale, mse) = search_scale(data, initial, |v, s| (v / s).round().clamp(0.0, hi) * s);
    Quantized {
        values: Tensor::from_vec(vals, activations.dims()).expect("quantization preserves shape"),
        scale,
        mse,
    }
}

/// Size in bytes of `params` weights stored at `bits` bits each.
pub fn storage_bytes(params: u64, bits: u8) -> u64 {
    (params * u64::from(bits)).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn eight_bit_quantization_is_nearly_lossless_for_smooth_weights() {
        let w = t(&(0..100).map(|i| (i as f32 - 50.0) / 50.0).collect::<Vec<_>>());
        let q = quantize_weights(&w, 8);
        assert!(q.mse < 1e-4, "8-bit mse {}", q.mse);
        assert_eq!(q.values.dims(), w.dims());
    }

    #[test]
    fn lower_bitwidths_increase_error_monotonically() {
        let w = t(&(0..64).map(|i| ((i * 37) % 13) as f32 / 13.0 - 0.5).collect::<Vec<_>>());
        let mse: Vec<f32> = [1u8, 2, 4, 8].iter().map(|&b| quantize_weights(&w, b).mse).collect();
        assert!(
            mse[0] >= mse[1] && mse[1] >= mse[2] && mse[2] >= mse[3],
            "mse not monotone: {mse:?}"
        );
        assert!(mse[3] < mse[0]);
    }

    #[test]
    fn one_bit_weights_take_two_levels() {
        let w = t(&[0.9, -0.8, 0.7, -0.6, 0.5]);
        let q = quantize_weights(&w, 1);
        let distinct: std::collections::BTreeSet<i64> =
            q.values.as_slice().iter().map(|v| (v * 1e4).round() as i64).collect();
        assert_eq!(distinct.len(), 2, "1-bit quantization uses exactly two levels: {distinct:?}");
        // The two levels are ±scale: a true binary quantizer, not the
        // three-level {−s, 0, +s} drift of a naive signed clamp.
        assert!(q.values.as_slice().iter().all(|&v| v.abs() == q.scale), "levels are ±scale");
    }

    #[test]
    fn one_bit_quantization_preserves_pruned_zeros() {
        // Channel pruning zeroes whole blocks; a binary quantizer must not
        // resurrect them as +scale.
        let w = t(&[0.0, 0.5, -0.5, 0.0, -0.0]);
        let q = quantize_weights(&w, 1);
        assert_eq!(q.values.as_slice()[0], 0.0);
        assert_eq!(q.values.as_slice()[3], 0.0);
        assert_eq!(q.values.as_slice()[4], 0.0);
        assert!(q.values.as_slice()[1] > 0.0 && q.values.as_slice()[2] < 0.0);
    }

    #[test]
    fn sub_16_bit_round_trips_land_on_integer_code_multiples() {
        // The fake-quant values must be exactly code · scale for the shared
        // integer code map, so the f32 round trip and the integer engine
        // multiply with the same numbers.
        let w = t(&(0..40).map(|i| ((i * 29) % 17) as f32 / 5.0 - 1.5).collect::<Vec<_>>());
        for bits in [2u8, 4, 8, 12, 16] {
            let q = quantize_weights(&w, bits);
            for (&orig, &v) in w.as_slice().iter().zip(q.values.as_slice()) {
                let code = ie_tensor::weight_code(orig, q.scale, bits);
                assert_eq!(v, code as f32 * q.scale, "bits {bits} weight {orig}");
            }
        }
    }

    #[test]
    fn full_precision_and_zero_tensors_pass_through() {
        let w = t(&[0.3, -0.7]);
        let q = quantize_weights(&w, 32);
        assert_eq!(q.values, w);
        assert_eq!(q.mse, 0.0);
        let z = Tensor::zeros(&[8]);
        assert_eq!(quantize_weights(&z, 4).values, z);
        assert_eq!(quantize_activations(&z, 4).values, z);
    }

    #[test]
    fn activation_quantization_stays_non_negative() {
        let a = t(&[0.0, 0.1, 0.5, 2.0, 3.7]);
        let q = quantize_activations(&a, 4);
        assert!(q.values.as_slice().iter().all(|&v| v >= 0.0));
        assert!(q.mse < 0.05);
    }

    /// The per-candidate search — one full pass, and one allocation, per
    /// candidate scale — as the oracle the one-pass sweep must match bit for
    /// bit.
    fn oracle_search<F>(data: &[f32], initial: f32, quantize: F) -> (Vec<f32>, f32, f32)
    where
        F: Fn(&[f32], f32) -> (Vec<f32>, f32),
    {
        let mut best_scale = initial;
        let mut best: Option<(Vec<f32>, f32)> = None;
        for step in 0..=65 {
            let factor = 0.3 + 0.02 * step as f32;
            let scale = (initial * factor).max(f32::MIN_POSITIVE);
            let (vals, mse) = quantize(data, scale);
            if best.as_ref().map(|(_, m)| mse < *m).unwrap_or(true) {
                best = Some((vals, mse));
                best_scale = scale;
            }
        }
        let (vals, mse) = best.expect("at least one candidate scale was evaluated");
        (vals, best_scale, mse)
    }

    fn quantize_with_scale(data: &[f32], scale: f32, lo: f32, hi: f32) -> (Vec<f32>, f32) {
        let mut out = Vec::with_capacity(data.len());
        let mut err = 0.0f32;
        for &w in data {
            let q = (w / scale).round().clamp(lo, hi) * scale;
            err += (q - w) * (q - w);
            out.push(q);
        }
        (out, err / data.len().max(1) as f32)
    }

    fn quantize_codes_with_scale(data: &[f32], scale: f32, bits: u8) -> (Vec<f32>, f32) {
        let mut out = Vec::with_capacity(data.len());
        let mut err = 0.0f32;
        for &w in data {
            let q = weight_code(w, scale, bits) as f32 * scale;
            err += (q - w) * (q - w);
            out.push(q);
        }
        (out, err / data.len().max(1) as f32)
    }

    /// [`quantize_weights`] (or, with `activations`, [`quantize_activations`])
    /// through the oracle search, for `1..=31` bits.
    fn oracle(tensor: &Tensor, bits: u8, activations: bool) -> Quantized {
        let data = tensor.as_slice();
        let (max, hi) = if activations {
            (data.iter().fold(0.0f32, |m, &v| m.max(v)), 2f32.powi(i32::from(bits)) - 1.0)
        } else {
            let max_abs = data.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            (max_abs, (2f32.powi(i32::from(bits) - 1) - 1.0).max(1.0))
        };
        if max <= 0.0 {
            return Quantized { values: tensor.clone(), scale: 1.0, mse: 0.0 };
        }
        let (vals, scale, mse) = if activations {
            oracle_search(data, max / hi, |d, s| quantize_with_scale(d, s, 0.0, hi))
        } else if bits <= 16 {
            oracle_search(data, max / hi, |d, s| quantize_codes_with_scale(d, s, bits))
        } else {
            let lo = -2f32.powi(i32::from(bits) - 1);
            oracle_search(data, max / hi, |d, s| quantize_with_scale(d, s, lo, hi))
        };
        Quantized { values: Tensor::from_vec(vals, tensor.dims()).unwrap(), scale, mse }
    }

    /// Values the search is likeliest to get wrong: signed zeros, rounding
    /// ties and their neighbours, huge values (whose largest candidate
    /// scales overflow to `∞`), tiny and subnormal values.
    const EDGES: [f32; 16] = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        -2.5,
        0.499_999_97,
        -0.499_999_97,
        1e-30,
        -1e-30,
        3e38,
        -3e38,
        f32::MAX,
        1e-45,
        -1e-39,
        f32::MIN_POSITIVE,
        1.5,
    ];

    /// A finite tensor of one to three elements (half the cases) or up to 96:
    /// random values at one of four magnitudes, one element in three taken
    /// from [`EDGES`], with random blocks zeroed as channel pruning does.
    fn arb_tensor() -> impl Strategy<Value = Vec<f32>> {
        (1usize..=100, 0usize..4, 1usize..=8).prop_flat_map(|(pick, magnitude, block)| {
            let len = if pick <= 50 { 1 + pick % 3 } else { pick - 4 };
            let scale = [1.0f32, 1e-30, 1e30, 1e-40][magnitude];
            let element = (0..3 * EDGES.len(), -2.0f32..2.0)
                .prop_map(move |(k, v)| EDGES.get(k).copied().unwrap_or(v * scale));
            (vec(element, len), vec(proptest::bool::ANY, len.div_ceil(block))).prop_map(
                move |(mut vals, keep)| {
                    for (chunk, &kept) in vals.chunks_mut(block).zip(&keep) {
                        if !kept {
                            chunk.fill(0.0);
                        }
                    }
                    vals
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The one-pass sweep returns the per-candidate search's values,
        /// scale and mse bit for bit, for every weight and activation width
        /// the search runs at.
        #[test]
        fn one_pass_search_matches_the_per_candidate_oracle(vals in arb_tensor()) {
            let tensor = t(&vals);
            for bits in 1u8..=31 {
                for activations in [false, true] {
                    let got = if activations {
                        quantize_activations(&tensor, bits)
                    } else {
                        quantize_weights(&tensor, bits)
                    };
                    let want = oracle(&tensor, bits, activations);
                    let bits_of = |q: &Quantized| -> (Vec<u32>, u32, u32) {
                        let values = q.values.as_slice().iter().map(|v| v.to_bits()).collect();
                        (values, q.scale.to_bits(), q.mse.to_bits())
                    };
                    prop_assert_eq!(
                        bits_of(&got),
                        bits_of(&want),
                        "{} bits {bits} on {vals:?}",
                        if activations { "activation" } else { "weight" }
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_error_is_optimised_over_the_scale() {
        // A max-abs outlier makes the naive scale poor; the search must beat it.
        let mut vals: Vec<f32> = (0..200).map(|i| (i as f32 / 200.0) * 0.1).collect();
        vals.push(5.0);
        let w = t(&vals);
        let hi = 2f32.powi(3) - 1.0; // 4-bit signed => hi = 7
        let naive_scale = 5.0 / hi;
        let (_, naive_mse) = quantize_with_scale(w.as_slice(), naive_scale, -8.0, 7.0);
        let q = quantize_weights(&w, 4);
        assert!(q.mse <= naive_mse + 1e-9, "search {} vs naive {naive_mse}", q.mse);
    }

    #[test]
    fn storage_bytes_rounds_up() {
        assert_eq!(storage_bytes(8, 8), 8);
        assert_eq!(storage_bytes(9, 1), 2);
        assert_eq!(storage_bytes(177_904, 32), 711_616);
    }

    #[test]
    #[should_panic(expected = "bitwidth must be at least 1")]
    fn zero_bits_panics() {
        let _ = quantize_weights(&t(&[1.0]), 0);
    }
}

//! The table lowering against naive per-cell references that share none of
//! its code: each reference walks every `(channel, ky, kx, sample, oy, ox)`
//! cell and computes its input coordinate with the index arithmetic of the
//! integer engine's naive convolution (`iy = oy·stride + ky − padding`,
//! likewise `ix`, read only when both fall inside the plane). The table
//! gather must equal it bit for bit in `f32` and `i8`, with a nonzero pad
//! value, and the table scatter must equal a naive scatter that adds in the
//! same order.

use ie_tensor::{plane_scratch, Conv2dGeometry, ConvLowering};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The input cell `(oy, ox)` reads at kernel offset `(ky, kx)`, or `None`
/// inside the padding.
fn source(g: &Conv2dGeometry, ky: usize, kx: usize, oy: usize, ox: usize) -> Option<usize> {
    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
    let ix = (ox * g.stride + kx) as isize - g.padding as isize;
    let inside = iy >= 0 && iy < g.in_h as isize && ix >= 0 && ix < g.in_w as isize;
    inside.then(|| iy as usize * g.in_w + ix as usize)
}

/// Naive lowering of `channels` (in list order) of a `[C, batch, H, W]`
/// input into the `[len·K², batch·out_h·out_w]` column matrix.
fn naive_lower<T: Copy>(
    g: &Conv2dGeometry,
    input: &[T],
    batch: usize,
    pad: T,
    channels: &[usize],
) -> Vec<T> {
    let plane = g.in_h * g.in_w;
    let mut out = Vec::new();
    for &c in channels {
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                for s in 0..batch {
                    for oy in 0..g.out_h() {
                        for ox in 0..g.out_w() {
                            let base = (c * batch + s) * plane;
                            out.push(source(g, ky, kx, oy, ox).map_or(pad, |i| input[base + i]));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Naive scatter of a `[len·K², out_h·out_w]` column matrix into a zeroed
/// `[C, H, W]` image, adding in list order, then `ky`, `kx`, `oy`, `ox`.
fn naive_scatter(g: &Conv2dGeometry, cols: &[f32], channels: &[usize]) -> Vec<f32> {
    let plane = g.in_h * g.in_w;
    let mut image = vec![0.0f32; g.in_channels * plane];
    let mut next = cols.iter();
    for &c in channels {
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                for oy in 0..g.out_h() {
                    for ox in 0..g.out_w() {
                        let v = *next.next().expect("one value per cell");
                        if let Some(i) = source(g, ky, kx, oy, ox) {
                            image[c * plane + i] += v;
                        }
                    }
                }
            }
        }
    }
    image
}

/// A geometry with kernels 1–5, strides 1–3, padding 0–3 (at or beyond the
/// kernel included) over planes from 1×1 up to 7×6, and a distinct
/// kept-channel list in arbitrary order.
fn case(rng: &mut StdRng) -> Option<(Conv2dGeometry, Vec<usize>)> {
    let geom = Conv2dGeometry {
        in_channels: rng.gen_range(1..=4),
        in_h: rng.gen_range(1..=7),
        in_w: rng.gen_range(1..=6),
        kernel: rng.gen_range(1..=5),
        stride: rng.gen_range(1..=3),
        padding: rng.gen_range(0..=3),
    };
    geom.validate().ok()?;
    let mut channels: Vec<usize> = (0..geom.in_channels).collect();
    for i in (1..channels.len()).rev() {
        channels.swap(i, rng.gen_range(0..=i));
    }
    channels.truncate(rng.gen_range(1..=geom.in_channels));
    Some((geom, channels))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f32_gather_matches_the_naive_lowering(seed in any::<u64>(), batch in 1usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some((geom, channels)) = case(&mut rng) else { continue };
        let lowering = ConvLowering::new(geom).expect("valid geometry");
        let len = geom.in_channels * batch * geom.in_h * geom.in_w;
        let input: Vec<f32> = (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        let pad = rng.gen_range(0.5f32..2.0);
        let want = naive_lower(&geom, &input, batch, pad, &channels);
        // The bounds-free scratch the plans hold, dirty from an earlier use,
        // and the tight one the allocating path passes.
        let mut scratch = plane_scratch::<f32>();
        scratch.fill(f32::NAN);
        let mut tight = vec![f32::NAN; geom.in_h * geom.in_w + 1];
        let mut got = vec![f32::NAN; want.len()];
        let kept = channels.iter().copied();
        lowering.lower_into(&input, batch, pad, kept.clone(), &mut *scratch, &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
        got.fill(f32::NAN);
        lowering.lower_into(&input, batch, pad, kept, tight.as_mut_slice(), &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn i8_gather_matches_the_naive_lowering(seed in any::<u64>(), batch in 1usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some((geom, channels)) = case(&mut rng) else { continue };
        let lowering = ConvLowering::new(geom).expect("valid geometry");
        let len = geom.in_channels * batch * geom.in_h * geom.in_w;
        let input: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        let pad = if rng.gen() { rng.gen_range(1i8..=127) } else { rng.gen_range(-128i8..=-1) };
        let want = naive_lower(&geom, &input, batch, pad, &channels);
        let mut scratch = plane_scratch::<i8>();
        scratch.fill(0x55);
        let mut got = vec![0x55i8; want.len()];
        let kept = channels.iter().copied();
        lowering.lower_into(&input, batch, pad, kept, &mut *scratch, &mut got).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scatter_matches_the_naive_scatter_add_for_add(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some((geom, channels)) = case(&mut rng) else { continue };
        let lowering = ConvLowering::new(geom).expect("valid geometry");
        // Non-integer values, so a reordered add shows in the bits.
        let n = channels.len() * geom.kernel * geom.kernel * geom.col_cols();
        let cols: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let want = naive_scatter(&geom, &cols, &channels);
        let mut scratch = plane_scratch::<f32>();
        scratch.fill(f32::NAN);
        let mut got = vec![f32::NAN; want.len()];
        let kept = channels.iter().copied();
        lowering.scatter_into(&cols, kept, &mut *scratch, &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// `⟨lower x, y⟩ = ⟨x, scatter y⟩` exactly: on small integers every
    /// product and partial sum is an integer far below 2^24.
    #[test]
    fn scatter_is_the_exact_adjoint_of_the_lowering(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some((geom, channels)) = case(&mut rng) else { continue };
        let lowering = ConvLowering::new(geom).expect("valid geometry");
        let len = geom.in_channels * geom.in_h * geom.in_w;
        let x: Vec<f32> = (0..len).map(|_| f32::from(rng.gen_range(-3i8..=3))).collect();
        let n = channels.len() * geom.kernel * geom.kernel * geom.col_cols();
        let y: Vec<f32> = (0..n).map(|_| f32::from(rng.gen_range(-3i8..=3))).collect();
        let mut scratch = plane_scratch::<f32>();
        let mut lowered = vec![0.0f32; n];
        let kept = channels.iter().copied();
        lowering.lower_into(&x, 1, 0.0, kept.clone(), &mut *scratch, &mut lowered).unwrap();
        let mut scattered = vec![0.0f32; len];
        lowering.scatter_into(&y, kept, &mut *scratch, &mut scattered).unwrap();
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f32>();
        prop_assert_eq!(dot(&lowered, &y), dot(&x, &scattered));
    }
}

//! The lowering by runs against naive per-cell references that share none
//! of its code: each reference walks every `(channel, ky, kx, sample, oy,
//! ox)` cell and computes its input coordinate with the index arithmetic of
//! the integer engine's naive convolution (`iy = oy·stride + ky − padding`,
//! likewise `ix`, read only when both fall inside the plane). The gather
//! must equal it bit for bit in `f32` and `i8`, with a nonzero pad value,
//! and the scatter must equal a naive scatter that adds in the same order:
//! on small random geometries, on planes up to 40×40 at strides 1–3, and on
//! LeNet's six convolutions with the reference policy's kept channels.

use ie_tensor::{Conv2dGeometry, ConvLowering};
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

/// A geometry with kernels 1–5, strides 1–3 and padding 0–3 over planes up
/// to 40×40, with a distinct kept-channel list in arbitrary order: runs of
/// LeNet's widths and longer, and strided splits of wide rows.
fn large_case(rng: &mut StdRng) -> Option<(Conv2dGeometry, Vec<usize>)> {
    let geom = Conv2dGeometry {
        in_channels: rng.gen_range(1..=3),
        in_h: rng.gen_range(1..=40),
        in_w: rng.gen_range(1..=40),
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

/// LeNet's six convolutions (Conv1, ConvB1, Conv2, ConvB2, Conv3, Conv4)
/// with the input channels the reference compression policy keeps on the
/// seed-1 network.
fn lenet_cases() -> [(Conv2dGeometry, Vec<usize>); 6] {
    let conv = |in_channels, in_hw, kernel, stride, padding| Conv2dGeometry {
        in_channels,
        in_h: in_hw,
        in_w: in_hw,
        kernel,
        stride,
        padding,
    };
    [
        (conv(3, 32, 5, 2, 2), vec![0, 1]),
        (conv(16, 8, 3, 1, 1), vec![0, 5, 7, 9, 10, 13, 14, 15]),
        (conv(16, 8, 5, 1, 2), vec![1, 3, 7, 11]),
        (conv(24, 4, 5, 1, 2), vec![0, 2, 7, 19, 21, 22]),
        (conv(24, 4, 5, 1, 2), vec![5, 6, 11, 16, 17, 20]),
        (conv(40, 4, 3, 1, 1), vec![1, 2, 6, 9, 12, 13, 22, 30, 31, 38]),
    ]
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs one geometry and channel list through every check: the `f32` and
/// `i8` gathers at `batch` against the naive lowering (with a nonzero pad,
/// into a scratch dirty from earlier use and longer than needed), the
/// scatter against the naive scatter, and the exact adjoint identity.
fn check_lowering(
    geom: &Conv2dGeometry,
    channels: &[usize],
    batch: usize,
    rng: &mut StdRng,
) -> Result<(), String> {
    let lowering = ConvLowering::new(*geom).map_err(|e| e.to_string())?;
    let at = format!("{geom:?} channels {channels:?} batch {batch}");
    let len = geom.in_channels * batch * geom.in_h * geom.in_w;
    let kept = channels.iter().copied();

    let input: Vec<f32> = (0..len).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let pad = rng.gen_range(0.5f32..2.0);
    let want = naive_lower(geom, &input, batch, pad, channels);
    let mut scratch = vec![f32::NAN; lowering.scratch_len() + 5];
    let mut got = vec![f32::NAN; want.len()];
    lowering.lower_into(&input, batch, pad, kept.clone(), &mut scratch, &mut got).unwrap();
    if bits(&got) != bits(&want) {
        return Err(format!("f32 gather differs: {at}"));
    }

    let codes: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
    let pad8 = if rng.gen() { rng.gen_range(1i8..=127) } else { rng.gen_range(-128i8..=-1) };
    let want8 = naive_lower(geom, &codes, batch, pad8, channels);
    let mut scratch8 = vec![0x55i8; lowering.scratch_len()];
    let mut got8 = vec![0x55i8; want8.len()];
    lowering.lower_into(&codes, batch, pad8, kept.clone(), &mut scratch8, &mut got8).unwrap();
    if got8 != want8 {
        return Err(format!("i8 gather differs: {at}"));
    }

    // Non-integer values, so a reordered add shows in the bits.
    let n = channels.len() * geom.kernel * geom.kernel * geom.col_cols();
    let cols: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    let want = naive_scatter(geom, &cols, channels);
    let mut image = vec![f32::NAN; want.len()];
    lowering.scatter_into(&cols, kept.clone(), &mut scratch, &mut image).unwrap();
    if bits(&image) != bits(&want) {
        return Err(format!("scatter differs: {at}"));
    }

    // `⟨lower x, y⟩ = ⟨x, scatter y⟩` exactly: on small integers every
    // product and partial sum is an integer far below 2^24.
    let plane_len = geom.in_channels * geom.in_h * geom.in_w;
    let x: Vec<f32> = (0..plane_len).map(|_| f32::from(rng.gen_range(-3i8..=3))).collect();
    let y: Vec<f32> = (0..n).map(|_| f32::from(rng.gen_range(-3i8..=3))).collect();
    let mut lowered = vec![0.0f32; n];
    lowering.lower_into(&x, 1, 0.0, kept.clone(), &mut scratch, &mut lowered).unwrap();
    let mut scattered = vec![0.0f32; plane_len];
    lowering.scatter_into(&y, kept, &mut scratch, &mut scattered).unwrap();
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f32>();
    if dot(&lowered, &y) != dot(&x, &scattered) {
        return Err(format!("adjoint identity fails: {at}"));
    }
    Ok(())
}

#[test]
fn lenet_convolutions_match_the_naive_references() {
    let mut rng = StdRng::seed_from_u64(31);
    for (geom, channels) in lenet_cases() {
        for batch in [1, 8] {
            check_lowering(&geom, &channels, batch, &mut rng).unwrap();
        }
        let all: Vec<usize> = (0..geom.in_channels).collect();
        check_lowering(&geom, &all, 1, &mut rng).unwrap();
    }
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
        // A scratch longer than the geometry needs, as a plan's is, dirty
        // from an earlier use, and the tight one the allocating path passes.
        let mut scratch = vec![f32::NAN; lowering.scratch_len() + 9];
        let mut tight = vec![f32::NAN; lowering.scratch_len()];
        let mut got = vec![f32::NAN; want.len()];
        let kept = channels.iter().copied();
        lowering.lower_into(&input, batch, pad, kept.clone(), &mut scratch, &mut got).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
        got.fill(f32::NAN);
        lowering.lower_into(&input, batch, pad, kept, &mut tight, &mut got).unwrap();
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
        let mut scratch = vec![0x55i8; lowering.scratch_len()];
        let mut got = vec![0x55i8; want.len()];
        let kept = channels.iter().copied();
        lowering.lower_into(&input, batch, pad, kept, &mut scratch, &mut got).unwrap();
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
        let mut scratch = vec![f32::NAN; lowering.scratch_len()];
        let mut got = vec![f32::NAN; want.len()];
        let kept = channels.iter().copied();
        lowering.scatter_into(&cols, kept, &mut scratch, &mut got).unwrap();
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
        let mut scratch = vec![0.0f32; lowering.scratch_len()];
        let mut lowered = vec![0.0f32; n];
        let kept = channels.iter().copied();
        lowering.lower_into(&x, 1, 0.0, kept.clone(), &mut scratch, &mut lowered).unwrap();
        let mut scattered = vec![0.0f32; len];
        lowering.scatter_into(&y, kept, &mut scratch, &mut scattered).unwrap();
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f32>();
        prop_assert_eq!(dot(&lowered, &y), dot(&x, &scattered));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn large_planes_match_the_naive_references(seed in any::<u64>(), batch in 1usize..=3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some((geom, channels)) = large_case(&mut rng) else { continue };
        prop_assert_eq!(check_lowering(&geom, &channels, batch, &mut rng), Ok(()));
    }
}

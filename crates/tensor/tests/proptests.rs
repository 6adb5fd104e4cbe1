//! Property-based tests of the tensor substrate.

use ie_tensor::{
    col2im, col2im_into, col2im_select_into, im2col, im2col_batch_into, im2col_select_batch_into,
    Conv2dGeometry, Tensor,
};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]).expect("length matches shape"))
    })
}

/// Raw bit patterns, so a comparison tells +0.0 from -0.0.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matrix multiplication with the identity is a no-op (up to float exactness,
    /// which holds because identity rows have a single 1).
    #[test]
    fn matmul_identity_is_neutral(m in arb_matrix(6)) {
        let n = m.dims()[1];
        let result = m.matmul(&Tensor::eye(n)).expect("shapes are compatible");
        prop_assert_eq!(result, m);
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ for arbitrary compatible matrices.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(5), b in arb_matrix(5)) {
        // Make the shapes compatible by construction: b reshaped to [a_cols, x].
        let k = a.dims()[1];
        let total = b.len();
        let cols = (total / k).max(1);
        let b = Tensor::from_vec(
            b.as_slice().iter().copied().chain(std::iter::repeat(0.0)).take(k * cols).collect(),
            &[k, cols],
        ).expect("constructed shape is consistent");
        let left = a.matmul(&b).expect("compatible").transpose().expect("rank 2");
        let right = b.transpose().expect("rank 2").matmul(&a.transpose().expect("rank 2")).expect("compatible");
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    /// Element-wise addition commutes and subtraction is its inverse.
    #[test]
    fn add_commutes_and_sub_inverts(a in arb_matrix(6)) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = a.add(&b).expect("same shape");
        let ba = b.add(&a).expect("same shape");
        prop_assert_eq!(ab.clone(), ba);
        let back = ab.sub(&b).expect("same shape");
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Reshape preserves the sum and the element count.
    #[test]
    fn reshape_preserves_contents(a in arb_matrix(6)) {
        let flat = a.reshape(&[a.len()]).expect("same element count");
        prop_assert_eq!(flat.len(), a.len());
        prop_assert!((flat.sum() - a.sum()).abs() < 1e-4);
    }

    /// ReLU output is non-negative and never exceeds the input.
    #[test]
    fn relu_bounds(a in arb_matrix(6)) {
        let r = a.relu();
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            prop_assert!(*x >= 0.0);
            prop_assert!(*x >= *y || *x == 0.0);
        }
    }

    /// `gemm_into` into a reused grow-only buffer is bit-identical to the
    /// allocating `matmul` across random shapes: the buffer carries no stale
    /// state between back-to-back calls.
    #[test]
    fn gemm_into_is_bit_identical_and_workspace_reuse_is_clean(
        a1 in arb_matrix(6),
        a2 in arb_matrix(6),
        n in 1usize..6,
    ) {
        let mut buf: Vec<f32> = Vec::new();
        for a in [&a1, &a2] {
            let (m, k) = (a.dims()[0], a.dims()[1]);
            // A rhs whose contents depend on the lhs, so the two rounds differ.
            let b = Tensor::from_vec(
                (0..k * n).map(|i| (i as f32 * 0.25) - a.as_slice()[i % a.len()]).collect(),
                &[k, n],
            ).expect("constructed shape is consistent");
            let reference = a.matmul(&b).expect("compatible shapes");
            // Reused (possibly dirty, possibly oversized) grow-only buffer.
            if buf.len() < m * n {
                buf.resize(m * n, 0.0);
            }
            ie_tensor::gemm_into(a.as_slice(), b.as_slice(), &mut buf[..m * n], m, k, n);
            for (w, r) in buf[..m * n].iter().zip(reference.as_slice()) {
                prop_assert_eq!(w.to_bits(), r.to_bits());
            }
        }
    }

    /// `im2col_batch_into` at batch 1 and `col2im_into` are bit-identical to
    /// the allocating versions across random geometries, including when the target buffers
    /// start out dirty (reuse must fully overwrite them). Over a channel
    /// subset, the selective lowering holds exactly the subset's row blocks
    /// and the scatter equals the full one with the other blocks zeroed,
    /// leaving +0.0 in every left-out channel.
    #[test]
    fn im2col_and_col2im_into_are_bit_identical(
        c in 1usize..4, hw in 3usize..7, k in 1usize..4, pad in 0usize..2, stride in 1usize..3,
        skip in 0usize..3,
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let geom = Conv2dGeometry {
            in_channels: c, in_h: hw, in_w: hw, kernel: k, stride, padding: pad,
        };
        let image = Tensor::from_vec(
            (0..c * hw * hw).map(|i| (i as f32).sin()).collect(),
            &[c, hw, hw],
        ).expect("length matches shape");
        let cols_ref = im2col(&image, &geom).expect("valid geometry");
        // Poisoned buffers: stale state must not leak.
        let mut cols = vec![f32::NAN; geom.col_len()];
        im2col_batch_into(image.as_slice(), 1, &geom, &mut cols).expect("valid geometry");
        for (w, r) in cols.iter().zip(cols_ref.as_slice()) {
            prop_assert_eq!(w.to_bits(), r.to_bits());
        }
        let back_ref = col2im(&cols_ref, &geom).expect("valid geometry");
        let mut back = vec![f32::NAN; image.len()];
        col2im_into(cols_ref.as_slice(), &geom, &mut back).expect("valid geometry");
        for (w, r) in back.iter().zip(back_ref.as_slice()) {
            prop_assert_eq!(w.to_bits(), r.to_bits());
        }

        let kept: Vec<usize> = (0..c).filter(|&ch| c == 1 || ch != skip % c).collect();
        let block = k * k * geom.col_cols();
        let mut sel = vec![f32::NAN; kept.len() * block];
        im2col_select_batch_into(image.as_slice(), 1, &geom, 0.0, &kept, &mut sel)
            .expect("valid geometry");
        let mut zeroed = cols_ref.as_slice().to_vec();
        for ch in (0..c).filter(|ch| !kept.contains(ch)) {
            zeroed[ch * block..(ch + 1) * block].fill(0.0);
        }
        for (ci, &ch) in kept.iter().enumerate() {
            let (got, want) = (&sel[ci * block..][..block], &zeroed[ch * block..][..block]);
            prop_assert_eq!(bits(got), bits(want));
        }
        let mut back_sel = vec![f32::NAN; image.len()];
        col2im_select_into(&sel, &geom, &kept, &mut back_sel).expect("valid geometry");
        let back_zeroed = col2im(
            &Tensor::from_vec(zeroed, cols_ref.dims()).expect("same shape"),
            &geom,
        ).expect("valid geometry");
        prop_assert_eq!(bits(&back_sel), bits(back_zeroed.as_slice()));
        for ch in (0..c).filter(|ch| !kept.contains(ch)) {
            let plane = &back_sel[ch * hw * hw..(ch + 1) * hw * hw];
            prop_assert!(plane.iter().all(|v| v.to_bits() == 0), "left-out channel {} is +0.0", ch);
        }
    }

    /// im2col of a constant image yields columns whose sums never exceed the
    /// kernel area times the constant (padding only removes mass).
    #[test]
    fn im2col_column_mass_is_bounded(c in 1usize..3, hw in 3usize..7, k in 1usize..4, pad in 0usize..2) {
        prop_assume!(hw + 2 * pad >= k);
        // With padding >= kernel a window can lie entirely in the zero padding,
        // so the "every patch overlaps a pixel" part only holds for pad < k.
        prop_assume!(pad < k);
        let geom = Conv2dGeometry { in_channels: c, in_h: hw, in_w: hw, kernel: k, stride: 1, padding: pad };
        let image = Tensor::full(&[c, hw, hw], 1.0);
        let cols = im2col(&image, &geom).expect("valid geometry");
        let rows = cols.dims()[0];
        let ncols = cols.dims()[1];
        prop_assert_eq!(rows, c * k * k);
        for col in 0..ncols {
            let sum: f32 = (0..rows).map(|r| cols.get(&[r, col]).expect("in range")).sum();
            prop_assert!(sum <= (c * k * k) as f32 + 1e-5);
            prop_assert!(sum >= 1.0 - 1e-5, "every patch overlaps at least one pixel");
        }
    }
}

//! `ie-tensor` — dense `f32` tensor substrate used by the neural-network,
//! compression and reinforcement-learning crates of the intermittent
//! multi-exit inference reproduction.
//!
//! The crate intentionally stays small: row-major dense tensors with up to
//! four dimensions (`[N, C, H, W]` for activations, `[O, I, Kh, Kw]` for
//! convolution filters), the handful of element-wise and linear-algebra
//! operations a LeNet-class network needs, and the `im2col` lowering used by
//! the convolution layers.
//!
//! # Example
//!
//! ```
//! use ie_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), ie_tensor::TensorError>(())
//! ```

// Unsafe code is denied crate-wide and allowed back in two kinds of place:
// the `tiered!` dispatch macro in `dispatch.rs`, which holds the one `unsafe`
// call per ISA tier and makes it only after `clamp` has found the tier's CPU
// features, and the explicit-intrinsics modules `ops::x86`, `backward::x86`
// and `quant::simd`, whose safe `#[target_feature]` kernels wrap their
// raw-pointer vector loads and stores in `unsafe` blocks that each state the
// bounds they rely on.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backward;
pub mod dispatch;
mod error;
mod im2col;
pub mod knobs;
mod linalg;
mod ops;
pub mod quant;
mod shape;
mod tensor;

pub use backward::{
    accumulate_slice_into, cross_entropy_grad_into, max_pool_backward_into,
    outer_accumulate_batch_into, relu_backward_into, transpose_into,
};
pub use dispatch::IsaTier;
pub use error::TensorError;
pub use im2col::{plane_scratch, Conv2dGeometry, ConvLowering, PLANE_CELLS};
pub use linalg::{gemm_into, matvec_batch_into, matvec_t_batch_into};
pub use ops::{
    add_bias_rows, add_bias_samples, max_pool_planes_i8_into, max_pool_planes_into,
    relu_codes_floor, relu_slice, softmax_slice_into,
};
pub use quant::{
    dequant_acc, dequant_rows_slice_into, dequant_slice_into, gemm_i16t_into, gemm_i8cols_into,
    requant_rows_slice_into, requant_slice_into, weight_code, QuantParams, MADD_DEPTH_ALIGN,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Explicit-tier entry points of every dispatched kernel (each clamps the
/// requested [`IsaTier`] to what the hardware supports). The unsuffixed
/// kernels at the crate root select the active tier automatically; these
/// exist for the tier-equivalence property tests and the per-kernel
/// benchmarks, which need two tiers side by side in one process.
pub mod tiered {
    pub use crate::backward::{
        accumulate_slice_into_tier as accumulate_slice_into,
        cross_entropy_grad_into_tier as cross_entropy_grad_into,
        max_pool_backward_into_tier as max_pool_backward_into,
        outer_accumulate_batch_into_tier as outer_accumulate_batch_into,
        relu_backward_into_tier as relu_backward_into, transpose_into_tier as transpose_into,
    };
    pub use crate::linalg::{
        gemm_into_tier as gemm_into, matvec_batch_into_tier as matvec_batch_into,
        matvec_t_batch_into_tier as matvec_t_batch_into,
    };
    pub use crate::ops::{
        add_bias_rows_tier as add_bias_rows, add_bias_samples_tier as add_bias_samples,
        max_pool_planes_i8_into_tier as max_pool_planes_i8_into,
        max_pool_planes_into_tier as max_pool_planes_into,
        relu_codes_floor_tier as relu_codes_floor, relu_slice_tier as relu_slice,
        softmax_slice_into_tier as softmax_slice_into,
    };
    pub use crate::quant::{
        dequant_rows_slice_into_tier as dequant_rows_slice_into,
        dequant_slice_into_tier as dequant_slice_into, gemm_i16t_into_tier as gemm_i16t_into,
        gemm_i8cols_into_tier as gemm_i8cols_into,
        requant_rows_slice_into_tier as requant_rows_slice_into,
        requant_slice_into_tier as requant_slice_into,
    };
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

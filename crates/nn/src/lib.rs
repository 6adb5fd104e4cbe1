//! `ie-nn` — a small, from-scratch convolutional neural-network library.
//!
//! This crate provides everything the reproduction needs from a deep-learning
//! framework:
//!
//! * concrete layers ([`Conv2d`], [`Dense`], [`Relu`], [`MaxPool2d`],
//!   [`Flatten`]) with forward *and* backward passes,
//! * a [`MultiExitNetwork`] that mirrors the paper's early-exit LeNet backbone,
//!   whose exits share one trunk,
//! * one planned, **allocation-free** inference executor, [`BatchPlan`]: it
//!   runs N inputs per pass through one widened GEMM per layer (f32 or
//!   i8/i16 integer kernels) with fused bias+ReLU epilogues, bit-identical
//!   per sample to the allocating path. Every pass is one walk down the
//!   trunk that runs each input only as deep as the deepest exit it reads,
//!   so the exits of a pass share the trunk's work. A single input is a
//!   batch of one ([`ExecutionPlan`], [`MultiExitNetwork::forward_to_exit_with`]),
//! * three dataset evaluators over that executor ([`train::evaluate`],
//!   [`train::evaluate_batched`], [`train::evaluate_quantized`]), the last
//!   two sharded across worker threads with caller-owned plan pools,
//! * a [`BackwardPlan`] for statically planned, **allocation-free** training
//!   steps — bit-identical loss and gradients to the allocating
//!   [`MultiExitNetwork::backward`], with an optional fake-quant-in-the-loop
//!   forward half — and one training loop ([`train::train`]) sharded through
//!   [`train::BatchBackwardPlan`], byte-identical across worker counts,
//! * softmax / cross-entropy losses and the **entropy-based confidence**
//!   measure used to decide whether an exit's prediction is trustworthy,
//! * an SGD optimiser,
//! * an architecture description ([`spec`]) with exact FLOPs and parameter
//!   accounting, including the paper's 11-layer multi-exit LeNet,
//! * a procedurally generated synthetic image dataset so the full
//!   train→compress→deploy pipeline can run end-to-end without external data.
//!
//! # Example
//!
//! ```
//! use ie_nn::spec::lenet_multi_exit;
//!
//! let arch = lenet_multi_exit();
//! assert_eq!(arch.num_exits(), 3);
//! // The cumulative FLOPs of the three exits are strictly increasing.
//! let flops = arch.exit_flops();
//! assert!(flops[0] < flops[1] && flops[1] < flops[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod backward;
mod batch;
mod conv;
pub mod dataset;
mod dense;
mod error;
mod layer;
pub mod loss;
mod mlp;
mod network;
mod optim;
mod plan;
mod pool;
pub mod quant;
pub mod spec;
pub mod train;

pub use activation::Relu;
pub use backward::{BackwardPlan, GradStore};
pub use batch::{BatchOutput, BatchPlan};
pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Flatten, Layer};
pub use mlp::{Mlp, MlpScratch, OutputActivation};
pub use network::{ExitOutput, MultiExitNetwork};
pub use optim::Sgd;
pub use plan::{ExecutionPlan, PlannedOutput};
pub use pool::MaxPool2d;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;

//! Planned, allocation-free inference: N inputs per forward pass.
//!
//! A [`BatchPlan`] is the crate's one inference executor. It pre-sizes every
//! buffer for up to `max_batch` samples and then runs whole batches through
//! **one widened GEMM per layer** instead of one GEMM per sample. A single
//! input is a batch of one ([`crate::ExecutionPlan`] is this type, built with
//! `max_batch = 1`). Spatial activations live in the *channel-major wide*
//! layout `[C, batch, H, W]`, so the batched `im2col`
//! ([`ie_tensor::ConvLowering::lower_into`]) lowers all samples into a single
//! `[C·K·K, batch·out_h·out_w]` column block and the bias+ReLU epilogue
//! sweeps each output-channel row once. Flat activations (after a `Flatten`)
//! are sample-major `[batch, features]`, which is what the batched dense
//! kernel ([`ie_tensor::matvec_batch_into`]) and the per-sample softmax want.
//! At batch 1 the two layouts coincide, so `Flatten` only relabels the shape.
//!
//! Conv→ReLU and Dense→ReLU pairs are fused (the bias add and activation run
//! in the GEMM epilogue) and convolution filters are read in their native
//! row-major layout. Every sample's logits are **bit-identical** to running
//! that sample alone through the allocating
//! [`MultiExitNetwork::forward_to_exit`]: the widened GEMM still accumulates
//! each output element in ascending depth order, the batched dense kernel
//! reuses the same lane-parallel dot product, and pooling/ReLU/bias apply the
//! same per-element operations. A channel-pruned conv lowers and multiplies
//! its kept channels only, gathering its kept filter columns into the plan's
//! weight scratch once per pass; the first pass over a pruned network grows
//! that scratch to the largest kept filter. Property tests assert all of this
//! across random batch sizes and pruned networks.
//!
//! One `BatchPlan` per worker thread is the sharding unit of
//! [`crate::train::evaluate_batched`]; once warm, a pass performs zero heap
//! allocations (asserted by the counting-allocator test).
//!
//! Every batched entry point is one walk over the trunk. It loads the batch,
//! then, for each exit up to the deepest, keeps in the trunk the inputs that
//! reach that segment (compacting the wide activation in place), runs the
//! segment, and runs the branch over the span of inputs that read that exit.
//! The entry points differ only in their span:
//! [`MultiExitNetwork::forward_to_exit_batch_with`] reads every input at one
//! exit, [`MultiExitNetwork::forward_all_batch_with`] every input at every
//! exit, and [`MultiExitNetwork::forward_to_exits_batch_with`] each input at
//! its own, deepest first. Results are read only through the [`BatchOutput`]
//! a pass returns or visits; it borrows the plan, so the next pass cannot
//! start while it is read.
//!
//! ```
//! use ie_nn::{spec::tiny_multi_exit, MultiExitNetwork};
//! use ie_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng)?;
//! let mut plan = net.batch_plan(4);
//! let (a, b) = (Tensor::zeros(&[1, 8, 8]), Tensor::ones(&[1, 8, 8]));
//! let out = net.forward_to_exit_batch_with(&mut plan, &[&a, &b], 0)?;
//! assert_eq!(out.len(), 2);
//! assert_eq!(out.logits(1).len(), 3);
//! let mut exits = Vec::new();
//! net.forward_all_batch_with(&mut plan, &[&a, &b], |out| exits.push(out.exit()))?;
//! assert_eq!(exits, [0, 1]);
//! # Ok::<(), ie_nn::NnError>(())
//! ```

use crate::loss::{argmax_slice, confidence_slice, softmax_into};
use crate::quant::{
    quant_conv_forward, quant_dense_forward, quantize_slice, Domain, QuantBuffers, QuantConfig,
    QuantDst, QuantizedLayer, QuantizedModel,
};
use crate::spec::{LayerSpecKind, MultiExitArchitecture};
use crate::{Layer, MultiExitNetwork, NnError, PlannedOutput, Result};
use ie_tensor::{plane_scratch, Tensor, PLANE_CELLS};
use std::ops::Range;

/// The slot of a ping-pong pair that a pass loads its inputs into.
const SLOT_A: usize = 0;

/// Splits a ping-pong pair (two buffers that trade the input and output
/// roles at each layer) into `(current, other)`.
pub(crate) fn pair<T>(bufs: &mut [Vec<T>; 2], current: usize) -> (&mut [T], &mut [T]) {
    let (a, b) = bufs.split_at_mut(1);
    if current == 0 {
        (&mut a[0], &mut b[0])
    } else {
        (&mut b[0], &mut a[0])
    }
}

/// Shape and layout of the batched activation currently held in a slot.
///
/// The layout is implied by the variant: spatial activations are
/// channel-major wide (`[C, batch, H, W]`), flat activations are sample-major
/// (`[batch, features]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchDims {
    /// A `[C, H, W]` feature map per sample, stored wide.
    Spatial([usize; 3]),
    /// A flat feature vector per sample, stored sample-major.
    Flat(usize),
}

impl BatchDims {
    /// Elements per sample.
    fn per_sample(&self) -> usize {
        match self {
            BatchDims::Spatial([c, h, w]) => c * h * w,
            BatchDims::Flat(n) => *n,
        }
    }

    /// `(channels, plane)` of the wide view `[channels, batch, plane]`: a
    /// flat activation (sample-major) is its one-channel case.
    fn wide(&self) -> (usize, usize) {
        match *self {
            BatchDims::Spatial([c, h, w]) => (c, h * w),
            BatchDims::Flat(n) => (1, n),
        }
    }
}

/// Where an activation lives while a layer list runs: the ping-pong slot
/// holding it and its shape.
#[derive(Debug, Clone, Copy)]
struct Act {
    slot: usize,
    dims: BatchDims,
}

/// The per-exit results of a batched planned pass, borrowed from the plan's
/// pre-sized buffers (nothing is copied or allocated to produce it). The
/// borrow is the only way to read them, and no pass can run while it lives.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutput<'a> {
    exit: usize,
    batch: usize,
    classes: usize,
    logits: &'a [f32],
    probs: &'a [f32],
    predictions: &'a [usize],
    confidences: &'a [f32],
}

impl<'a> BatchOutput<'a> {
    /// Which exit produced these results.
    pub fn exit(&self) -> usize {
        self.exit
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.batch
    }

    /// Returns `true` when the batch is empty (never the case for outputs
    /// produced by the planned entry points, which reject empty batches).
    pub fn is_empty(&self) -> bool {
        self.batch == 0
    }

    /// Raw logits of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn logits(&self, i: usize) -> &'a [f32] {
        assert!(i < self.batch, "sample {i} out of range for batch {}", self.batch);
        &self.logits[i * self.classes..(i + 1) * self.classes]
    }

    /// Softmax probabilities of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn probs(&self, i: usize) -> &'a [f32] {
        assert!(i < self.batch, "sample {i} out of range for batch {}", self.batch);
        &self.probs[i * self.classes..(i + 1) * self.classes]
    }

    /// Predicted class of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn prediction(&self, i: usize) -> usize {
        self.predictions[..self.batch][i]
    }

    /// Entropy-based confidence of sample `i` (see [`crate::loss::confidence`]).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn confidence(&self, i: usize) -> f32 {
        self.confidences[..self.batch][i]
    }

    /// Sample `i` as a [`PlannedOutput`], interchangeable with the
    /// single-input planned API.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn sample(&self, i: usize) -> PlannedOutput {
        PlannedOutput {
            exit: self.exit,
            prediction: self.prediction(i),
            confidence: self.confidence(i),
        }
    }
}

/// Pre-sized buffers for allocation-free batched inference over up to
/// `max_batch` samples.
///
/// Build once per (architecture, worker thread) with
/// [`BatchPlan::for_architecture`] or [`MultiExitNetwork::batch_plan`], then
/// reuse across any number of batched passes. A pass keeps no state for the
/// next: each runs the trunk once for all the exits it reads.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    max_batch: usize,
    num_exits: usize,
    classes: usize,
    /// Per-sample activation capacity.
    act_capacity: usize,
    /// Per-sample `im2col` column capacity.
    col_capacity: usize,
    /// Kept-width filter scratch of the pruned convs: empty until a pass
    /// meets one, then grown to the largest kept filter it has met.
    wk: Vec<f32>,
    /// Plane scratch the `f32` convs' lowering gathers from: absent until a
    /// pass meets an `f32` conv (a quantized plan may never), then built
    /// once, zeroed.
    plane: Option<Box<[f32; PLANE_CELLS]>>,
    /// Trunk activation ping-pong pair, `max_batch` samples wide.
    trunk: [Vec<f32>; 2],
    /// Branch activation ping-pong pair, `max_batch` samples wide.
    branch: [Vec<f32>; 2],
    /// Shared `im2col` column scratch for the widened activation matrix.
    col: Vec<f32>,
    /// Per-exit logits, sample-major `[batch, classes]`.
    logits: Vec<Vec<f32>>,
    /// Per-exit softmax probabilities, sample-major.
    probs: Vec<Vec<f32>>,
    /// Per-exit argmax predictions.
    predictions: Vec<Vec<usize>>,
    /// Per-exit entropy confidences.
    confidences: Vec<Vec<f32>>,
    /// Quantized model whose covered layers run the ≤8/≤16-bit integer
    /// kernels (`None` → pure `f32` engine).
    quant: Option<QuantizedModel>,
    /// Integer scratch of `quant`; zero-length (never allocated) for an
    /// `f32` plan.
    qbufs: QuantBuffers,
}

impl BatchPlan {
    /// Builds a plan for `arch` holding up to `max_batch` samples per pass
    /// (clamped to at least 1), pre-sizing every buffer so that batched
    /// forward passes never allocate — all but the pruned convs' filter
    /// scratch, which the first pass over a pruned network grows, and the
    /// plane scratches of the lowering, which the first pass to meet an
    /// `f32` (or an integer) conv builds.
    pub fn for_architecture(arch: &MultiExitArchitecture, max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        let (act, col) = buffer_requirements(arch);
        let slots = || [vec![0.0; act * max_batch], vec![0.0; act * max_batch]];
        let classes = arch.num_classes();
        let exits = arch.num_exits();
        BatchPlan {
            max_batch,
            num_exits: exits,
            classes,
            act_capacity: act,
            col_capacity: col,
            wk: Vec::new(),
            plane: None,
            trunk: slots(),
            branch: slots(),
            col: vec![0.0; col * max_batch],
            logits: vec![vec![0.0; classes * max_batch]; exits],
            probs: vec![vec![0.0; classes * max_batch]; exits],
            predictions: vec![vec![0; max_batch]; exits],
            confidences: vec![vec![0.0; max_batch]; exits],
            quant: None,
            qbufs: QuantBuffers::default(),
        }
    }

    /// Builds a **quantized** plan for `net`: layers covered by `config` run
    /// the widened i8/i16 GEMM with weights quantized and packed here, once;
    /// everything else stays on the `f32` engine. Integer scratch is
    /// pre-sized for `max_batch` samples, so warmed quantized passes perform
    /// zero heap allocations.
    ///
    /// The quantized parameters are baked from `net`'s **current** weights;
    /// use the plan only with that network (the compatibility check catches
    /// architecture mismatches, not weight changes).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `config` does not match the
    /// network's compressible layers, and the geometry's error for a
    /// configured conv no lowering table can lower.
    pub fn for_network_quantized(
        net: &MultiExitNetwork,
        config: &QuantConfig,
        max_batch: usize,
    ) -> Result<BatchPlan> {
        let model = QuantizedModel::for_network(net, config)?;
        let arch = net.architecture();
        let mut plan = BatchPlan::for_architecture(arch, max_batch);
        plan.quant = Some(model);
        plan.qbufs = QuantBuffers::for_architecture(arch, max_batch);
        Ok(plan)
    }

    /// The quantized model baked into this plan, if any.
    pub fn quantized_model(&self) -> Option<&QuantizedModel> {
        self.quant.as_ref()
    }

    /// Returns `true` when this quantized plan's buffers can serve `net`
    /// with batches of `batch` after a [`BatchPlan::repack_quantized`] —
    /// the capacity side of [`BatchPlan::is_compatible`] without the baked
    /// model check (which repacking replaces).
    pub fn can_repack_quantized(&self, net: &MultiExitNetwork, batch: usize) -> bool {
        let arch = net.architecture();
        let (act, col) = buffer_requirements(arch);
        // The integer scratch (patch/widened-row buffers) has its own
        // capacity requirements that do not follow from act/col — a plan can
        // only be repacked when those fit too, for every batch size up to
        // its own maximum (later calls may legally use any of them).
        self.quant.is_some()
            && self.qbufs.fits(arch, self.max_batch)
            && self.max_batch >= batch
            && self.num_exits == arch.num_exits()
            && self.classes == arch.num_classes()
            && act <= self.act_capacity
            && col <= self.col_capacity
    }

    /// Re-bakes this **quantized** plan for `net` under a (possibly new)
    /// `config`: the per-layer weight codes are re-packed **into the old
    /// model's buffers** (grow-only, so a warmed plan repacks without heap
    /// allocation of the code matrices) and every integer scratch buffer is
    /// kept. The plan pool uses this to serve one candidate policy after
    /// another without rebuilding plans.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when this plan has no quantized
    /// state, its buffers cannot hold `net`, or `config` does not match the
    /// network's compressible layers.
    pub fn repack_quantized(&mut self, net: &MultiExitNetwork, config: &QuantConfig) -> Result<()> {
        let unfit = || {
            NnError::InvalidSpec("plan has no quantized state or cannot hold this network".into())
        };
        if !self.can_repack_quantized(net, 1) {
            return Err(unfit());
        }
        // Validate the config *before* surrendering the old model to the
        // recycling constructor: it consumes the model's buffers, so an
        // error raised after the handover would silently strip the plan of
        // its quantized state (degrading it to the f32 engine) instead of
        // leaving it untouched.
        crate::quant::validate_config(net, config)?;
        let Some(old) = self.quant.take() else {
            return Err(unfit());
        };
        let model = QuantizedModel::for_network_recycling(net, config, Some(old))
            .expect("for_network_recycling cannot fail on a validated config");
        self.quant = Some(model);
        Ok(())
    }

    /// Largest batch one pass can hold.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The results of exit `exit` over its first `batch` samples.
    fn exit_output(&self, exit: usize, batch: usize) -> BatchOutput<'_> {
        BatchOutput {
            exit,
            batch,
            classes: self.classes,
            logits: &self.logits[exit][..batch * self.classes],
            probs: &self.probs[exit][..batch * self.classes],
            predictions: &self.predictions[exit][..batch],
            confidences: &self.confidences[exit][..batch],
        }
    }

    /// Returns `true` when this plan can run `net` — the same check every
    /// batched planned entry point performs. Lets a plan pool decide whether
    /// a cached plan is reusable without paying a failed forward pass.
    pub fn is_compatible(&self, net: &MultiExitNetwork) -> bool {
        self.check_compatible(net).is_ok()
    }

    /// Errors when `net` does not fit this plan's buffers (exit/class count or
    /// per-sample capacity mismatch). Allocation-free on the success path;
    /// the requirements walk is integer math over the layer specs (≤ ~20 of
    /// them), well under 0.1 % of one planned forward pass.
    fn check_compatible(&self, net: &MultiExitNetwork) -> Result<()> {
        let arch = net.architecture();
        let (act, col) = buffer_requirements(arch);
        let compatible = self.num_exits == arch.num_exits()
            && self.classes == arch.num_classes()
            && act <= self.act_capacity
            && col <= self.col_capacity
            && self.quant.as_ref().is_none_or(|model| model.matches(net));
        if !compatible {
            return Err(NnError::InvalidSpec(format!(
                "batch plan ({} exits, {} classes, act {}, col {}) does not fit the network \
                 ({} exits, {} classes, act {act}, col {col})",
                self.num_exits,
                self.classes,
                self.act_capacity,
                self.col_capacity,
                arch.num_exits(),
                arch.num_classes()
            )));
        }
        Ok(())
    }

    /// Flattens a wide spatial activation (`[C, batch, H·W]`) into the
    /// sample-major flat layout (`[batch, C·H·W]`), in whichever domain
    /// holds it — the explicit work the batched `Flatten` performs. Values
    /// are only moved, never changed. At batch 1 the two layouts coincide,
    /// so only the shape is relabeled; a flat activation is left alone.
    fn flatten_to_sample_major(
        ws: &mut [Vec<f32>; 2],
        codes: &mut [Vec<i8>; 2],
        domain: Domain,
        act: &mut Act,
        batch: usize,
    ) {
        let BatchDims::Spatial([c, h, w]) = act.dims else {
            return;
        };
        act.dims = BatchDims::Flat(c * h * w);
        if batch == 1 {
            return;
        }
        match domain {
            Domain::F32 => {
                let (src, dst) = pair(ws, act.slot);
                transpose_wide(src, dst, c, h * w, batch);
            }
            Domain::Codes(_) => {
                let (src, dst) = pair(codes, act.slot);
                transpose_wide(src, dst, c, h * w, batch);
            }
        }
        act.slot = 1 - act.slot;
    }

    /// Runs `layers` over the batched activation held in `ws`, fusing
    /// Conv→ReLU / Dense→ReLU pairs into the kernel epilogues.
    ///
    /// Layers whose aligned entry of `qlist` is `Some` (an `f32` plan passes
    /// an empty list) run the widened i8/i16 integer kernels instead: the
    /// activation is quantized at the float→int boundary (or arrives as codes
    /// from the previous chained quantized layer), the GEMM accumulates in
    /// `i32`, and the requantization epilogue emits either codes for the next
    /// quantized layer or `f32` at the mixed-precision boundary. ReLU,
    /// max-pool and flatten operate directly in the code domain between
    /// chained layers (quantization is elementwise and monotone, so all three
    /// commute with it exactly). Every list starts and ends in the f32 domain.
    #[allow(clippy::too_many_arguments)]
    fn run_layers(
        layers: &[Layer],
        qlist: &[Option<QuantizedLayer>],
        ws: &mut [Vec<f32>; 2],
        col: &mut [f32],
        wk: &mut Vec<f32>,
        plane: &mut Option<Box<[f32; PLANE_CELLS]>>,
        qbufs: &mut QuantBuffers,
        act: &mut Act,
        batch: usize,
    ) -> Result<()> {
        let mut domain = Domain::F32;
        let mut i = 0;
        while i < layers.len() {
            let fuse = matches!(layers.get(i + 1), Some(Layer::Relu(_)));
            let qentry = qlist.get(i).and_then(Option::as_ref);
            match &layers[i] {
                Layer::Conv2d(conv) => {
                    let geom = conv.geometry();
                    let expected = [geom.in_channels, geom.in_h, geom.in_w];
                    if act.dims != BatchDims::Spatial(expected) {
                        return Err(shape_error("conv2d(batch)", &expected, &act.dims));
                    }
                    let (s, in_len) = (act.slot, conv.input_len() * batch);
                    let out_len = conv.output_len() * batch;
                    if let Some(ql) = qentry {
                        let QuantBuffers { codes, col8, plane8, acc, .. } = &mut *qbufs;
                        let plane8 = plane8.get_or_insert_with(plane_scratch);
                        let (src_c, dst_c) = pair(codes, s);
                        if domain == Domain::F32 {
                            quantize_slice(&ws[s][..in_len], &ql.input, &mut src_c[..in_len]);
                        }
                        let dst = match ql.out {
                            None => QuantDst::F32(&mut ws[1 - s][..out_len]),
                            Some(_) => QuantDst::Codes(&mut dst_c[..out_len]),
                        };
                        let src = &src_c[..in_len];
                        quant_conv_forward(conv, ql, src, batch, fuse, col8, plane8, acc, dst)?;
                        domain = ql.out.map_or(Domain::F32, Domain::Codes);
                    } else {
                        debug_assert_eq!(domain, Domain::F32, "float conv fed from code domain");
                        let (src, dst) = pair(ws, s);
                        if !conv.pruned_channels().is_empty() && wk.len() < conv.kept_weight_len() {
                            wk.resize(conv.kept_weight_len(), 0.0);
                        }
                        conv.forward_batch_into(
                            &src[..in_len],
                            &mut dst[..out_len],
                            &mut col[..conv.col_len() * batch],
                            wk,
                            &mut **plane.get_or_insert_with(plane_scratch),
                            batch,
                            fuse,
                        )?;
                    }
                    *act = Act { slot: 1 - s, dims: BatchDims::Spatial(conv.output_dims()) };
                    i += if fuse { 2 } else { 1 };
                }
                Layer::Dense(dense) => {
                    // Dense layers want the sample-major flat layout; a wide
                    // spatial activation is flattened implicitly, tolerating
                    // a missing Flatten like the allocating path does.
                    Self::flatten_to_sample_major(ws, &mut qbufs.codes, domain, act, batch);
                    if act.dims.per_sample() != dense.in_features() {
                        return Err(shape_error("dense(batch)", &[dense.in_features()], &act.dims));
                    }
                    let s = act.slot;
                    let (in_f, out_f) = (dense.in_features(), dense.out_features());
                    let (in_len, out_len) = (in_f * batch, out_f * batch);
                    if let Some(ql) = qentry {
                        let QuantBuffers { codes, xs16, acc, .. } = &mut *qbufs;
                        let (src_c, dst_c) = pair(codes, s);
                        if domain == Domain::F32 {
                            quantize_slice(&ws[s][..in_len], &ql.input, &mut src_c[..in_len]);
                        }
                        let dst = match ql.out {
                            None => QuantDst::F32(&mut ws[1 - s][..out_len]),
                            Some(_) => QuantDst::Codes(&mut dst_c[..out_len]),
                        };
                        let src = &src_c[..in_len];
                        quant_dense_forward(ql, src, in_f, batch, fuse, xs16, acc, dst);
                        domain = ql.out.map_or(Domain::F32, Domain::Codes);
                    } else {
                        debug_assert_eq!(domain, Domain::F32, "float dense fed from code domain");
                        let (src, dst) = pair(ws, s);
                        dense.forward_batch_into(
                            &src[..in_len],
                            &mut dst[..out_len],
                            batch,
                            fuse,
                        )?;
                    }
                    *act = Act { slot: 1 - s, dims: BatchDims::Flat(out_f) };
                    i += if fuse { 2 } else { 1 };
                }
                Layer::Relu(_) => {
                    let (s, len) = (act.slot, act.dims.per_sample() * batch);
                    match domain {
                        Domain::F32 => ie_tensor::relu_slice(&mut ws[s][..len]),
                        Domain::Codes(p) => {
                            let zp = p.zero_point() as i8;
                            ie_tensor::relu_codes_floor(&mut qbufs.codes[s][..len], zp);
                        }
                    }
                    i += 1;
                }
                Layer::MaxPool2d(pool) => {
                    let BatchDims::Spatial(d) = act.dims else {
                        return Err(shape_error("maxpool2d(batch)", &[0, 0, 0], &act.dims));
                    };
                    let (s, out_dims) = (act.slot, pool.output_dims(&d));
                    let in_len: usize = d.iter().product::<usize>() * batch;
                    let out_len: usize = out_dims.iter().product::<usize>() * batch;
                    match domain {
                        Domain::F32 => {
                            let (src, dst) = pair(ws, s);
                            pool.forward_batch_slice_into(
                                &src[..in_len],
                                d,
                                batch,
                                &mut dst[..out_len],
                            )?;
                        }
                        Domain::Codes(_) => {
                            let (src_c, dst_c) = pair(&mut qbufs.codes, s);
                            pool.forward_batch_codes_into(
                                &src_c[..in_len],
                                d,
                                batch,
                                &mut dst_c[..out_len],
                            )?;
                        }
                    }
                    *act = Act { slot: 1 - s, dims: BatchDims::Spatial(out_dims) };
                    i += 1;
                }
                Layer::Flatten(_) => {
                    Self::flatten_to_sample_major(ws, &mut qbufs.codes, domain, act, batch);
                    i += 1;
                }
            }
        }
        if domain != Domain::F32 {
            return Err(NnError::InvalidSpec(
                "batched layer list ended in the code domain (quantized chaining bug)".into(),
            ));
        }
        Ok(())
    }

    /// Runs trunk segment `seg` over the `live` samples of the trunk
    /// activation `trunk`. A segment list rebuilt shorter than the
    /// architecture has no segment `seg` to run.
    fn run_segment(
        &mut self,
        net: &MultiExitNetwork,
        seg: usize,
        trunk: &mut Act,
        live: usize,
    ) -> Result<()> {
        let Some(segment) = net.segments().get(seg) else {
            return Ok(());
        };
        let qlist = self.quant.as_ref().map_or(&[][..], |model| model.segment(seg));
        BatchPlan::run_layers(
            segment,
            qlist,
            &mut self.trunk,
            &mut self.col,
            &mut self.wk,
            &mut self.plane,
            &mut self.qbufs,
            trunk,
            live,
        )
    }

    /// Keeps only the first `keep` of the `live` samples of the trunk
    /// activation `trunk`, compacting its wide layout in place: one move per
    /// channel after the first (a flat activation's leading samples are
    /// already in place).
    fn keep_leading(&mut self, trunk: Act, live: usize, keep: usize) {
        if keep == live {
            return;
        }
        let (channels, plane) = trunk.dims.wide();
        let buf = &mut self.trunk[trunk.slot];
        for ch in 1..channels {
            let from = ch * live * plane;
            buf.copy_within(from..from + keep * plane, ch * keep * plane);
        }
    }

    /// Evaluates branch `exit` on samples `span` of the `live` samples of the
    /// trunk activation `trunk`, filling the first `span.len()` entries of
    /// the per-exit logits/probability/prediction buffers.
    fn eval_branch(
        &mut self,
        net: &MultiExitNetwork,
        exit: usize,
        trunk: Act,
        live: usize,
        span: Range<usize>,
    ) -> Result<()> {
        // Gather the span into the branch ping-pong, one run per channel, so
        // the trunk stays intact for the deeper segments.
        let batch = span.len();
        let (channels, plane) = trunk.dims.wide();
        let src = &self.trunk[trunk.slot];
        for ch in 0..channels {
            let from = (ch * live + span.start) * plane;
            let run = &src[from..from + batch * plane];
            self.branch[SLOT_A][ch * batch * plane..][..batch * plane].copy_from_slice(run);
        }
        let mut act = Act { slot: SLOT_A, dims: trunk.dims };
        let qlist = self.quant.as_ref().map_or(&[][..], |model| model.branch(exit));
        BatchPlan::run_layers(
            &net.branches()[exit],
            qlist,
            &mut self.branch,
            &mut self.col,
            &mut self.wk,
            &mut self.plane,
            &mut self.qbufs,
            &mut act,
            batch,
        )?;
        // A branch that ends spatially (no trailing Flatten/Dense) still needs
        // the sample-major layout before per-sample logits can be read.
        let codes = &mut self.qbufs.codes;
        BatchPlan::flatten_to_sample_major(&mut self.branch, codes, Domain::F32, &mut act, batch);
        let classes = self.classes;
        if act.dims.per_sample() != classes {
            return Err(shape_error("branch(batch logits)", &[classes], &act.dims));
        }
        let logits_src = &self.branch[act.slot][..batch * classes];
        self.logits[exit][..batch * classes].copy_from_slice(logits_src);
        for s in 0..batch {
            let logits = &self.logits[exit][s * classes..(s + 1) * classes];
            let probs = &mut self.probs[exit][s * classes..(s + 1) * classes];
            softmax_into(logits, probs)?;
            self.predictions[exit][s] =
                argmax_slice(probs).expect("exit produces at least one class");
            self.confidences[exit][s] = confidence_slice(probs);
        }
        Ok(())
    }

    /// Copies `inputs` into the trunk slot `SLOT_A` in the batched layout and
    /// returns the activation dims. All inputs must share one shape.
    fn load_inputs(&mut self, inputs: &[&Tensor]) -> Result<BatchDims> {
        let batch = inputs.len();
        if batch == 0 || batch > self.max_batch {
            return Err(NnError::InvalidSpec(format!(
                "batch of {batch} inputs does not fit the plan (1..={} samples)",
                self.max_batch
            )));
        }
        let first = inputs[0].dims();
        for input in inputs {
            if input.dims() != first {
                return Err(NnError::InputShapeMismatch {
                    layer: "batch(input)".into(),
                    expected: first.to_vec(),
                    actual: input.dims().to_vec(),
                });
            }
        }
        let per_sample = inputs[0].len();
        if per_sample > self.act_capacity {
            return Err(NnError::InputShapeMismatch {
                layer: "batch(input)".into(),
                expected: vec![self.act_capacity],
                actual: vec![per_sample],
            });
        }
        let slot = &mut self.trunk[SLOT_A];
        match first.len() {
            3 => {
                let (c, h, w) = (first[0], first[1], first[2]);
                let plane = h * w;
                for (s, input) in inputs.iter().enumerate() {
                    let data = input.as_slice();
                    for ch in 0..c {
                        let dst = (ch * batch + s) * plane;
                        slot[dst..dst + plane].copy_from_slice(&data[ch * plane..][..plane]);
                    }
                }
                Ok(BatchDims::Spatial([c, h, w]))
            }
            _ => {
                for (s, input) in inputs.iter().enumerate() {
                    slot[s * per_sample..(s + 1) * per_sample].copy_from_slice(input.as_slice());
                }
                Ok(BatchDims::Flat(per_sample))
            }
        }
    }

    /// The one pass every batched entry point runs. It loads `inputs`, then,
    /// for each exit up to `deepest`, keeps in the trunk the inputs that
    /// reach that segment, runs the segment, and runs the branch over
    /// `reads(exit)`, the span of inputs that read the exit, handing their
    /// results to `visit(span.start, out)`. No input past a span's end reads
    /// a deeper exit, so the trunk keeps the inputs before it.
    fn walk(
        &mut self,
        net: &MultiExitNetwork,
        inputs: &[&Tensor],
        deepest: usize,
        reads: impl Fn(usize) -> Range<usize>,
        mut visit: impl FnMut(usize, BatchOutput<'_>),
    ) -> Result<()> {
        self.check_compatible(net)?;
        net.check_exit(deepest)?;
        let mut trunk = Act { slot: SLOT_A, dims: self.load_inputs(inputs)? };
        let mut live = inputs.len();
        for exit in 0..=deepest {
            let span = reads(exit);
            self.keep_leading(trunk, live, span.end);
            live = span.end;
            self.run_segment(net, exit, &mut trunk, live)?;
            if !span.is_empty() {
                self.eval_branch(net, exit, trunk, live, span.clone())?;
                visit(span.start, self.exit_output(exit, span.len()));
            }
        }
        Ok(())
    }
}

/// Transposes `channels` planes of `batch` samples from the wide layout
/// (`[C, batch, plane]`) in `src` to the sample-major one (`[batch, C·plane]`)
/// in `dst`.
fn transpose_wide<T: Copy>(src: &[T], dst: &mut [T], channels: usize, plane: usize, batch: usize) {
    let features = channels * plane;
    for ch in 0..channels {
        for s in 0..batch {
            let src_off = (ch * batch + s) * plane;
            let dst_off = s * features + ch * plane;
            dst[dst_off..dst_off + plane].copy_from_slice(&src[src_off..src_off + plane]);
        }
    }
}

/// Largest activation and `im2col` column buffer (per-sample element counts)
/// any layer of `arch` needs. Shared by plan construction, the per-call
/// compatibility check and the integer scratch sizing; iterates the specs
/// without allocating.
pub(crate) fn buffer_requirements(arch: &MultiExitArchitecture) -> (usize, usize) {
    let mut max_act: usize = arch.input_dims().iter().product();
    let mut max_col = 0usize;
    for spec in arch.all_layers() {
        max_act = max_act.max(spec.output_dims.iter().product());
        if let LayerSpecKind::Conv { in_channels, kernel, .. } = &spec.kind {
            let cols: usize = spec.output_dims[1] * spec.output_dims[2];
            max_col = max_col.max(in_channels * kernel * kernel * cols);
        }
    }
    (max_act, max_col)
}

fn shape_error(layer: &str, expected: &[usize], dims: &BatchDims) -> NnError {
    let actual = match dims {
        BatchDims::Spatial(d) => d.to_vec(),
        BatchDims::Flat(n) => vec![*n],
    };
    NnError::InputShapeMismatch { layer: layer.into(), expected: expected.to_vec(), actual }
}

impl MultiExitNetwork {
    /// Builds a [`BatchPlan`] sized for this network's architecture and up to
    /// `max_batch` samples per pass.
    pub fn batch_plan(&self, max_batch: usize) -> BatchPlan {
        BatchPlan::for_architecture(self.architecture(), max_batch)
    }

    /// Builds a **quantized** [`BatchPlan`] (see
    /// [`BatchPlan::for_network_quantized`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `config` does not match this
    /// network's compressible layers.
    pub fn batch_plan_quantized(
        &self,
        config: &QuantConfig,
        max_batch: usize,
    ) -> Result<BatchPlan> {
        BatchPlan::for_network_quantized(self, config, max_batch)
    }

    /// Planned counterpart of [`MultiExitNetwork::forward_to_exit`]: runs
    /// every input of the batch up to (and including) `exit` in one widened
    /// pass inside `plan`'s pre-sized buffers. After the plan's construction
    /// this performs zero heap allocations, and each sample's logits are
    /// bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for an empty or oversized batch or a
    /// plan that does not fit the network, [`NnError::InvalidExit`] for an
    /// unknown exit, or a shape error when the inputs disagree with each
    /// other or the architecture.
    pub fn forward_to_exit_batch_with<'p>(
        &self,
        plan: &'p mut BatchPlan,
        inputs: &[&Tensor],
        exit: usize,
    ) -> Result<BatchOutput<'p>> {
        let n = inputs.len();
        plan.walk(self, inputs, exit, |e| if e == exit { 0..n } else { n..n }, |_, _| {})?;
        Ok(plan.exit_output(exit, n))
    }

    /// Runs each input of a batch only as deep as its own exit, the way the
    /// paper's runtime pays for one exit per inference. `exits[i]` is the
    /// exit of `inputs[i]`, deepest first (non-increasing). Trunk segment
    /// `s` runs over the leading inputs whose exit is at least `s`, and
    /// branch `e` over the trailing group of them whose exit is `e`.
    /// `visit(first, out)` sees each group once, in ascending exit order:
    /// `out.sample(i)` is the result of `inputs[first + i]`, bit-identical
    /// to that input's lone [`MultiExitNetwork::forward_to_exit`]. Performs
    /// zero heap allocations once the plan is warm.
    ///
    /// ```
    /// use ie_nn::{spec::tiny_multi_exit, MultiExitNetwork};
    /// use ie_tensor::Tensor;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng)?;
    /// let mut plan = net.batch_plan(3);
    /// let x = Tensor::zeros(&[1, 8, 8]);
    /// let mut groups = Vec::new();
    /// net.forward_to_exits_batch_with(&mut plan, &[&x, &x, &x], &[1, 0, 0], |first, out| {
    ///     groups.push((out.exit(), first, out.len()));
    /// })?;
    /// assert_eq!(groups, [(0, 1, 2), (1, 0, 1)]);
    /// # Ok::<(), ie_nn::NnError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `exits` and `inputs` differ in
    /// length, when an exit is deeper than the one before it, or for an
    /// empty or oversized batch or a plan that does not fit the network;
    /// [`NnError::InvalidExit`] for an unknown exit; or a shape error when
    /// the inputs disagree with each other or the architecture.
    pub fn forward_to_exits_batch_with<F: FnMut(usize, BatchOutput<'_>)>(
        &self,
        plan: &mut BatchPlan,
        inputs: &[&Tensor],
        exits: &[usize],
        visit: F,
    ) -> Result<()> {
        if exits.len() != inputs.len() {
            return Err(NnError::InvalidSpec(format!(
                "{} exits given for a batch of {} inputs",
                exits.len(),
                inputs.len()
            )));
        }
        if let Some(i) = exits.windows(2).position(|pair| pair[0] < pair[1]) {
            return Err(NnError::InvalidSpec(format!(
                "exits must run deepest first, but input {i} leaves at exit {} and input {} at \
                 exit {}",
                exits[i],
                i + 1,
                exits[i + 1]
            )));
        }
        // The first exit is the deepest. An empty batch has none, and the
        // walk refuses it as it loads.
        let deepest = exits.first().copied().unwrap_or(0);
        // The inputs that reach segment `exit` lead the batch; those of them
        // that leave at branch `exit` close it.
        let reads =
            |exit| exits.partition_point(|&e| e > exit)..exits.partition_point(|&e| e >= exit);
        plan.walk(self, inputs, deepest, reads, visit)
    }

    /// Planned counterpart of [`MultiExitNetwork::forward_all`]: evaluates
    /// every exit on the batch in one pass over the trunk, invoking `visit`
    /// with each exit's [`BatchOutput`] in order. Allocation-free like the
    /// other batched entry points.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] for an empty or oversized batch or a
    /// plan that does not fit the network, or a shape error when the inputs
    /// disagree with each other or the architecture.
    pub fn forward_all_batch_with<F: FnMut(BatchOutput<'_>)>(
        &self,
        plan: &mut BatchPlan,
        inputs: &[&Tensor],
        mut visit: F,
    ) -> Result<()> {
        let n = inputs.len();
        let deepest = self.num_exits().saturating_sub(1);
        plan.walk(self, inputs, deepest, |_| 0..n, |_, out| visit(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{lenet_multi_exit, tiny_multi_exit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    fn random_batch(rng: &mut StdRng, dims: &[usize], n: usize) -> Vec<Tensor> {
        (0..n).map(|_| Tensor::randn(rng, dims, 0.0, 1.0)).collect()
    }

    /// Prunes every odd input channel of each conv; a one-channel conv keeps
    /// its only channel.
    fn prune_convs(layer_groups: &mut [&mut Vec<Layer>]) {
        for layers in layer_groups.iter_mut() {
            for layer in layers.iter_mut() {
                if let Layer::Conv2d(conv) = layer {
                    let pruned: Vec<usize> = (0..conv.in_channels()).skip(1).step_by(2).collect();
                    conv.set_pruned_channels(&pruned).unwrap();
                }
            }
        }
    }

    /// Runs every prefix batch `inputs[..n]` (n = 1..=len) through one plan
    /// and checks each sample, bit for bit, against the allocating
    /// [`MultiExitNetwork::forward_to_exit`] — an independent oracle, since
    /// that path shares no code with the planned executor above the kernels.
    fn assert_batch_matches_singles(net: &MultiExitNetwork, inputs: &[Tensor]) {
        let mut plan = net.batch_plan(inputs.len());
        let references: Vec<Vec<ExitOutputBits>> = inputs
            .iter()
            .map(|x| {
                (0..net.num_exits())
                    .map(|exit| ExitOutputBits::of(&net.forward_to_exit(x, exit).unwrap()))
                    .collect()
            })
            .collect();
        for n in 1..=inputs.len() {
            let refs: Vec<&Tensor> = inputs[..n].iter().collect();
            for exit in 0..net.num_exits() {
                let out = net.forward_to_exit_batch_with(&mut plan, &refs, exit).unwrap();
                for (i, reference) in references[..n].iter().enumerate() {
                    let reference = &reference[exit];
                    let at = format!("batch {n} exit {exit} sample {i}");
                    assert_eq!(out.prediction(i), reference.prediction, "{at}");
                    assert_eq!(out.confidence(i).to_bits(), reference.confidence, "{at}");
                    assert_eq!(bits(out.logits(i)), reference.logits, "{at} logits");
                    assert_eq!(bits(out.probs(i)), reference.probs, "{at} probs");
                }
            }
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// An allocating exit output as raw bits, for bit-exact comparison.
    struct ExitOutputBits {
        prediction: usize,
        confidence: u32,
        logits: Vec<u32>,
        probs: Vec<u32>,
    }

    impl ExitOutputBits {
        fn of(out: &crate::ExitOutput) -> Self {
            ExitOutputBits {
                prediction: out.prediction,
                confidence: out.confidence.to_bits(),
                logits: bits(out.logits.as_slice()),
                probs: bits(out.probs.as_slice()),
            }
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single_planned_forward() {
        let net = tiny_net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let inputs = random_batch(&mut rng, &[1, 8, 8], 16);
        assert_batch_matches_singles(&net, &inputs);
    }

    #[test]
    fn batched_forward_matches_on_the_paper_backbone() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let inputs = random_batch(&mut rng, &[3, 32, 32], 16);
        assert_batch_matches_singles(&net, &inputs);
    }

    #[test]
    fn batched_forward_matches_with_pruned_channels() {
        // Pruned convs lower and multiply only their kept channels, in the
        // batched pass and in the allocating oracle alike.
        let mut net = tiny_net(4);
        let mut all_layers: Vec<&mut Vec<Layer>> = net.segments_mut().iter_mut().collect();
        prune_convs(&mut all_layers);
        let mut branch_layers: Vec<&mut Vec<Layer>> = net.branches_mut().iter_mut().collect();
        prune_convs(&mut branch_layers);
        let mut rng = StdRng::seed_from_u64(5);
        let inputs = random_batch(&mut rng, &[1, 8, 8], 16);
        assert_batch_matches_singles(&net, &inputs);
    }

    #[test]
    fn forward_all_batch_visits_every_exit_in_order() {
        let net = tiny_net(8);
        let mut rng = StdRng::seed_from_u64(9);
        let inputs = random_batch(&mut rng, &[1, 8, 8], 4);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut plan = net.batch_plan(4);
        let mut seen = Vec::new();
        let mut predictions = Vec::new();
        net.forward_all_batch_with(&mut plan, &refs, |out| {
            seen.push((out.exit(), out.len()));
            predictions.push((0..out.len()).map(|i| out.prediction(i)).collect::<Vec<_>>());
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 4), (1, 4)]);
        // And per-sample agreement with the allocating forward_all.
        for (i, input) in inputs.iter().enumerate() {
            for out in net.forward_all(input).unwrap() {
                assert_eq!(predictions[out.exit][i], out.prediction);
            }
        }
    }

    #[test]
    fn batched_errors_mirror_the_single_planned_path() {
        let net = tiny_net(10);
        let mut plan = net.batch_plan(2);
        let x = Tensor::zeros(&[1, 8, 8]);
        // Empty and oversized batches are rejected.
        assert!(matches!(
            net.forward_to_exit_batch_with(&mut plan, &[], 0),
            Err(NnError::InvalidSpec(_))
        ));
        assert!(matches!(
            net.forward_to_exit_batch_with(&mut plan, &[&x, &x, &x], 0),
            Err(NnError::InvalidSpec(_))
        ));
        // Unknown exit, on every entry point.
        assert!(matches!(
            net.forward_to_exit_batch_with(&mut plan, &[&x], 9),
            Err(NnError::InvalidExit { .. })
        ));
        assert!(matches!(
            net.forward_to_exits_batch_with(&mut plan, &[&x], &[9], |_, _| {}),
            Err(NnError::InvalidExit { .. })
        ));
        // Mismatched input shapes within one batch.
        let y = Tensor::zeros(&[1, 8, 7]);
        assert!(matches!(
            net.forward_to_exit_batch_with(&mut plan, &[&x, &y], 0),
            Err(NnError::InputShapeMismatch { .. })
        ));
        assert!(matches!(
            net.forward_all_batch_with(&mut plan, &[&x, &y], |_| {}),
            Err(NnError::InputShapeMismatch { .. })
        ));
        // The plan stays usable after errors.
        let out = net.forward_to_exit_batch_with(&mut plan, &[&x, &x], 0).unwrap();
        assert_eq!((out.exit(), out.len()), (0, 2));
    }

    fn mixed_quant_config(net: &MultiExitNetwork) -> crate::quant::QuantConfig {
        use ie_tensor::QuantParams;
        let n = net.architecture().compressible_layers().len();
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let entries: Vec<Option<(u8, QuantParams)>> = (0..n)
            .map(|i| match i % 4 {
                0 => Some((8, if i == 0 { first } else { act })),
                1 => Some((11, act)),
                2 => None,
                _ => Some((6, act)),
            })
            .collect();
        crate::quant::config_from_bits(net, &entries).unwrap()
    }

    #[test]
    fn quantized_batched_forward_is_bit_identical_to_quantized_single_planned() {
        // The oracle is the naive fake-quant reference, which runs the
        // allocating layer chain with per-layer quantize-dequantize instead of
        // the integer kernels.
        let net = tiny_net(30);
        let cfg = mixed_quant_config(&net);
        let model = crate::quant::QuantizedModel::for_network(&net, &cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let inputs = random_batch(&mut rng, &[1, 8, 8], 16);
        let references: Vec<Vec<Vec<u32>>> = inputs
            .iter()
            .map(|x| {
                (0..net.num_exits())
                    .map(|exit| {
                        bits(&crate::quant::fake_quant_logits(&net, &model, x, exit).unwrap())
                    })
                    .collect()
            })
            .collect();
        let mut plan = net.batch_plan_quantized(&cfg, inputs.len()).unwrap();
        assert!(plan.quantized_model().is_some());
        for n in 1..=inputs.len() {
            let refs: Vec<&Tensor> = inputs[..n].iter().collect();
            for exit in 0..net.num_exits() {
                let out = net.forward_to_exit_batch_with(&mut plan, &refs, exit).unwrap();
                for (i, reference) in references[..n].iter().enumerate() {
                    assert_eq!(
                        bits(out.logits(i)),
                        reference[exit],
                        "batch {n} exit {exit} sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_for_a_smaller_architecture_is_rejected_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(11);
        let lenet = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let tiny = tiny_net(11);
        let mut tiny_plan = tiny.batch_plan(2);
        let x = Tensor::zeros(&[3, 32, 32]);
        let err = lenet.forward_to_exit_batch_with(&mut tiny_plan, &[&x], 0).unwrap_err();
        assert!(matches!(err, NnError::InvalidSpec(_)), "got {err:?}");
    }

    #[test]
    fn a_conv_no_table_lowers_fails_the_pass_instead_of_panicking() {
        // A list rebuilt through `segments_mut` can hold a conv the spec
        // builder would refuse: a zero kernel, a zero stride, or a kernel
        // wider than the padded input.
        for (kernel, stride) in [(0, 1), (3, 0), (11, 1)] {
            let mut net = tiny_net(5);
            let mut rng = StdRng::seed_from_u64(5);
            net.segments_mut()[0][0] =
                crate::Conv2d::new(&mut rng, 1, 4, kernel, stride, 1, 8, 8).into();
            let x = Tensor::zeros(&[1, 8, 8]);
            let geometry_error = |err: NnError| {
                let refused =
                    matches!(err, NnError::Tensor(ie_tensor::TensorError::InvalidConvGeometry(_)));
                assert!(refused, "kernel {kernel} stride {stride}: {err:?}");
            };
            let mut plan = net.batch_plan(2);
            geometry_error(net.forward_to_exit_batch_with(&mut plan, &[&x, &x], 0).unwrap_err());
            let walk = net.forward_to_exits_batch_with(&mut plan, &[&x, &x], &[1, 0], |_, _| {});
            geometry_error(walk.unwrap_err());
            let i8_layer = Some((8, ie_tensor::QuantParams::from_range(-3.0, 3.0, 8)));
            let n = net.architecture().compressible_layers().len();
            let cfg = crate::quant::config_from_bits(&net, &vec![i8_layer; n]).unwrap();
            // A quantized plan refuses the conv as it packs the filters, and
            // so does a warmed plan repacked for it.
            geometry_error(net.batch_plan_quantized(&cfg, 2).unwrap_err());
            let mut warmed = tiny_net(5).batch_plan_quantized(&cfg, 2).unwrap();
            geometry_error(warmed.repack_quantized(&net, &cfg).unwrap_err());
            assert!(warmed.quantized_model().is_some(), "a refused repack keeps the old model");
        }
    }
}

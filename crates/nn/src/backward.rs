//! Statically planned, allocation-free training: [`BackwardPlan`] is the
//! backward-pass counterpart of the inference executor [`crate::BatchPlan`].
//!
//! The plan walks the architecture once at construction time and pre-sizes
//! every buffer the combined forward + backward pass of
//! [`MultiExitNetwork::backward`] needs:
//!
//! * one grow-only activation arena caching each layer's input (the forward
//!   half of a training step must keep pre-activations alive for the
//!   backward half),
//! * a ping-pong pair of gradient buffers sized to the widest activation,
//! * a per-convolution `im2col` arena — the forward half lowers each conv
//!   input once and the backward weight-gradient GEMM re-reads the cached
//!   lowering instead of recomputing it,
//! * one transpose scratch sized to the widest lowering (the column
//!   transpose the weight-gradient GEMM needs, reused as the `dcols`
//!   staging buffer of the data-gradient `col2im`),
//! * a flat [`GradStore`] holding one `f32` per trainable parameter, laid
//!   out in the exact iteration order of
//!   [`MultiExitNetwork::apply_gradients`].
//!
//! Gradients are accumulated into the store and flushed into the network's
//! per-layer gradient tensors only on success, through the same dispatched
//! slice kernels ([`ie_tensor::gemm_into`],
//! [`ie_tensor::matvec_t_into`], [`ie_tensor::relu_backward_into`],
//! [`ie_tensor::max_pool_backward_into`],
//! [`ie_tensor::outer_accumulate_into`],
//! [`ie_tensor::cross_entropy_grad_into`], …) on every ISA tier. Dense data
//! gradients go through the transposed-operand [`ie_tensor::matvec_t_into`],
//! which consumes the weight matrix in its stored layout — no weight
//! transpose; the first layer of the network additionally skips its data
//! gradient entirely (the input image's gradient is never read). The planned
//! step is
//! **bit-identical** to the allocating [`MultiExitNetwork::backward`] —
//! same loss, same gradient bits — and performs zero heap allocations once
//! warm.
//!
//! A plan can additionally carry a fake-quant configuration
//! ([`BackwardPlan::for_architecture_fake_quant`]): the forward half of each
//! step then runs covered layers on quantize–dequantize'd inputs and
//! dequantized weight codes (bias stays full precision), while the backward
//! half applies the straight-through estimator — gradients flow to the
//! full-precision master weights. With an empty configuration the fake-quant
//! plan is bitwise identical to the plain one.

use crate::layer::Layer;
use crate::loss::softmax_into;
use crate::quant::QuantConfig;
use crate::spec::{LayerSpec, LayerSpecKind, MultiExitArchitecture};
use crate::{MultiExitNetwork, NnError, Result};
use ie_tensor::{QuantParams, Tensor};

/// One layer's input/output regions inside the activation arena.
///
/// Regions are allocated in walk order, so for every non-flatten layer
/// `in_off + in_len <= out_off`: input and output never alias and
/// `split_at_mut(out_off)` yields disjoint slices. `Flatten` aliases its
/// input (`out_off == in_off`) and is a no-op in both directions.
#[derive(Debug, Clone, Copy)]
struct StepIo {
    in_off: usize,
    in_len: usize,
    out_off: usize,
    out_len: usize,
    /// `[C, H, W]` of the input when it is rank-3 (used by max-pool).
    in_dims: [usize; 3],
    /// Convolution layers only: offset of this layer's cached `im2col`
    /// lowering inside the plan's `cols` arena. The forward half writes it,
    /// the backward half re-reads it for the weight-gradient GEMM — the
    /// input is never lowered twice per step.
    col_off: usize,
}

/// A parameterised layer's slice of the gradient store. The bias region
/// directly follows the weight region (`b_off == w_off + w_len`).
#[derive(Debug, Clone, Copy)]
struct ParamRegion {
    w_off: usize,
    w_len: usize,
    b_off: usize,
    b_len: usize,
}

/// A flat per-parameter gradient accumulator produced by
/// [`BackwardPlan::make_store`].
///
/// One `f32` per trainable parameter, in the iteration order of
/// [`MultiExitNetwork::apply_gradients`] (trunk segments flattened, then
/// branches flattened). Stores let callers accumulate sample gradients
/// off-network — the batched trainer gives every sample its own store and
/// folds them in ascending sample order, which keeps the reduction
/// bit-identical to a sequential loop regardless of worker count.
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    data: Vec<f32>,
}

impl GradStore {
    /// Number of parameter slots in the store.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the store covers zero parameters.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Fake-quant coverage of one parameterised layer.
#[derive(Debug, Clone, Copy)]
struct FqEntry {
    /// Region of the dequantized weight codes inside [`FqState::weights`].
    w_off: usize,
    w_len: usize,
    /// Region of the quantize–dequantize'd input inside [`FqState::acts`].
    x_off: usize,
    weight_bits: u8,
    weight_scale: f32,
    input: QuantParams,
}

/// Pre-sized fake-quant buffers and per-layer coverage.
#[derive(Debug, Clone)]
struct FqState {
    /// Dequantized weight codes of every covered layer, refreshed from the
    /// full-precision master weights at the start of each step.
    weights: Vec<f32>,
    /// Quantize–dequantize'd inputs of every covered layer, written during
    /// the forward half and re-read by the weight-gradient GEMMs.
    acts: Vec<f32>,
    trunk_entries: Vec<Vec<Option<FqEntry>>>,
    branch_entries: Vec<Vec<Option<FqEntry>>>,
}

/// A pre-sized training plan for a [`MultiExitNetwork`]; the documentation
/// of its source module, `backward`, tells the full story.
#[derive(Debug, Clone)]
pub struct BackwardPlan {
    arch: MultiExitArchitecture,
    classes: usize,
    input_len: usize,
    /// Activation arena: `[input, layer outputs...]` in walk order.
    acts: Vec<f32>,
    trunk_steps: Vec<Vec<StepIo>>,
    branch_steps: Vec<Vec<StepIo>>,
    logits_regions: Vec<(usize, usize)>,
    probs: Vec<f32>,
    /// Ping-pong gradient buffers, each sized to the widest activation.
    grad: [Vec<f32>; 2],
    /// Arena of per-segment boundary gradients (one region per exit).
    trunk_grad: Vec<f32>,
    trunk_grad_regions: Vec<(usize, usize)>,
    trunk_grad_touched: Vec<bool>,
    /// Arena of cached `im2col` lowerings, one region per convolution
    /// (see [`StepIo::col_off`]).
    cols: Vec<f32>,
    /// Transpose scratch sized to the widest lowering; doubles as the
    /// `dcols` staging buffer of the data-gradient `col2im`.
    colt: Vec<f32>,
    /// Weight-transpose scratch for the convolution data-gradient GEMM,
    /// sized to the widest conv filter (dense layers use the
    /// transposed-operand [`ie_tensor::matvec_t_into`] and need none).
    wt: Vec<f32>,
    regions: Vec<ParamRegion>,
    trunk_param: Vec<Vec<Option<usize>>>,
    branch_param: Vec<Vec<Option<usize>>>,
    store_len: usize,
    /// The plan's own store, used by [`MultiExitNetwork::backward_with`].
    store: GradStore,
    quant: Option<QuantConfig>,
    fq: Option<FqState>,
}

/// Accumulates buffer extents while walking the architecture.
struct PlanBuilder {
    cursor: usize,
    max_grad: usize,
    max_col: usize,
    max_conv_w: usize,
    col_cursor: usize,
    pcursor: usize,
    regions: Vec<ParamRegion>,
}

impl PlanBuilder {
    fn walk(
        &mut self,
        specs: &[LayerSpec],
        cur: &mut (usize, usize),
    ) -> (Vec<StepIo>, Vec<Option<usize>>) {
        let mut steps = Vec::with_capacity(specs.len());
        let mut params = Vec::with_capacity(specs.len());
        for spec in specs {
            let (in_off, in_len) = *cur;
            let out_len: usize = spec.output_dims.iter().product();
            let mut in_dims = [0usize; 3];
            if spec.input_dims.len() == 3 {
                in_dims.copy_from_slice(&spec.input_dims);
            }
            let out_off = if matches!(spec.kind, LayerSpecKind::Flatten) {
                in_off
            } else {
                let off = self.cursor;
                self.cursor += out_len;
                off
            };
            self.max_grad = self.max_grad.max(in_len).max(out_len);
            let mut col_off = 0usize;
            if let LayerSpecKind::Conv { in_channels, kernel, .. } = &spec.kind {
                let col_len =
                    in_channels * kernel * kernel * spec.output_dims[1] * spec.output_dims[2];
                self.max_col = self.max_col.max(col_len);
                self.max_conv_w = self.max_conv_w.max(spec.weight_params() as usize);
                col_off = self.col_cursor;
                self.col_cursor += col_len;
            }
            if spec.is_parameterised() {
                let w_len = spec.weight_params() as usize;
                let b_len = spec.bias_params() as usize;
                let region =
                    ParamRegion { w_off: self.pcursor, w_len, b_off: self.pcursor + w_len, b_len };
                self.pcursor += w_len + b_len;
                self.regions.push(region);
                params.push(Some(self.regions.len() - 1));
            } else {
                params.push(None);
            }
            steps.push(StepIo { in_off, in_len, out_off, out_len, in_dims, col_off });
            *cur = (out_off, out_len);
        }
        (steps, params)
    }
}

impl BackwardPlan {
    /// Builds a training plan for `arch`, pre-sizing every buffer.
    pub fn for_architecture(arch: &MultiExitArchitecture) -> BackwardPlan {
        let input_len: usize = arch.input_dims().iter().product();
        let classes = arch.num_classes();
        let mut builder = PlanBuilder {
            cursor: input_len,
            max_grad: input_len,
            max_col: 0,
            max_conv_w: 0,
            col_cursor: 0,
            pcursor: 0,
            regions: Vec::new(),
        };
        let mut cur = (0usize, input_len);
        let mut trunk_steps = Vec::with_capacity(arch.segments().len());
        let mut trunk_param = Vec::with_capacity(arch.segments().len());
        let mut boundaries = Vec::with_capacity(arch.segments().len());
        for segment in arch.segments() {
            let (steps, params) = builder.walk(segment, &mut cur);
            trunk_steps.push(steps);
            trunk_param.push(params);
            boundaries.push(cur);
        }
        let mut branch_steps = Vec::with_capacity(arch.branches().len());
        let mut branch_param = Vec::with_capacity(arch.branches().len());
        let mut logits_regions = Vec::with_capacity(arch.branches().len());
        for (i, branch) in arch.branches().iter().enumerate() {
            let mut bcur = boundaries[i];
            let (steps, params) = builder.walk(branch, &mut bcur);
            branch_steps.push(steps);
            branch_param.push(params);
            debug_assert_eq!(bcur.1, classes, "branch {i} does not end in the class logits");
            logits_regions.push(bcur);
        }
        let mut trunk_grad_regions = Vec::with_capacity(boundaries.len());
        let mut toff = 0usize;
        for &(_, len) in &boundaries {
            trunk_grad_regions.push((toff, len));
            toff += len;
        }
        BackwardPlan {
            arch: arch.clone(),
            classes,
            input_len,
            acts: vec![0.0; builder.cursor],
            trunk_steps,
            branch_steps,
            logits_regions,
            probs: vec![0.0; classes],
            grad: [vec![0.0; builder.max_grad], vec![0.0; builder.max_grad]],
            trunk_grad: vec![0.0; toff],
            trunk_grad_regions,
            trunk_grad_touched: vec![false; boundaries.len()],
            cols: vec![0.0; builder.col_cursor],
            colt: vec![0.0; builder.max_col],
            wt: vec![0.0; builder.max_conv_w],
            regions: builder.regions,
            trunk_param,
            branch_param,
            store_len: builder.pcursor,
            store: GradStore { data: vec![0.0; builder.pcursor] },
            quant: None,
            fq: None,
        }
    }

    /// Builds a training plan whose forward half applies `config`'s
    /// fake-quantization (quantize–dequantize'd inputs and dequantized
    /// weight codes for covered layers, full-precision bias) while the
    /// backward half uses the straight-through estimator. `config` follows
    /// the canonical compressible-layer order of
    /// [`MultiExitArchitecture::compressible_layers`]; an all-`None` config
    /// makes the plan bitwise identical to [`Self::for_architecture`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `config` does not cover exactly
    /// the architecture's compressible layers, or when a covered layer has
    /// weight bits outside `1..=16` or a non-positive / non-finite weight
    /// scale.
    pub fn for_architecture_fake_quant(
        arch: &MultiExitArchitecture,
        config: &QuantConfig,
    ) -> Result<BackwardPlan> {
        let mut plan = Self::for_architecture(arch);
        let compressible = arch.compressible_layers();
        if config.len() != compressible.len() {
            return Err(NnError::InvalidSpec(format!(
                "fake-quant config covers {} layers but the architecture has {} \
                 compressible layers",
                config.len(),
                compressible.len()
            )));
        }
        let mut weights_len = 0usize;
        let mut acts_len = 0usize;
        let mut trunk_entries: Vec<Vec<Option<FqEntry>>> =
            plan.trunk_steps.iter().map(|s| vec![None; s.len()]).collect();
        let mut branch_entries: Vec<Vec<Option<FqEntry>>> =
            plan.branch_steps.iter().map(|s| vec![None; s.len()]).collect();
        let mut ci = 0usize;
        // Builds the fq entry for compressible layer `ci` (or advances past
        // an uncovered one), returning the entry to record.
        let mut build_entry =
            |ci: usize, spec: &LayerSpec, in_len: usize| -> Result<Option<FqEntry>> {
                let Some(lq) = &config.layers()[ci] else { return Ok(None) };
                if !(1..=16).contains(&lq.weight_bits) {
                    return Err(NnError::InvalidSpec(format!(
                        "fake-quant layer {ci} has unsupported weight bits {}",
                        lq.weight_bits
                    )));
                }
                if !(lq.weight_scale.is_finite() && lq.weight_scale > 0.0) {
                    return Err(NnError::InvalidSpec(format!(
                        "fake-quant layer {ci} has invalid weight scale {}",
                        lq.weight_scale
                    )));
                }
                let w_len = spec.weight_params() as usize;
                let entry = FqEntry {
                    w_off: weights_len,
                    w_len,
                    x_off: acts_len,
                    weight_bits: lq.weight_bits,
                    weight_scale: lq.weight_scale,
                    input: lq.input,
                };
                weights_len += w_len;
                acts_len += in_len;
                Ok(Some(entry))
            };
        // The compressible order interleaves per exit: segment `e`'s
        // parameterised layers, then branch `e`'s.
        for exit in 0..arch.num_exits() {
            for (j, spec) in arch.segments()[exit].iter().enumerate() {
                if !spec.is_parameterised() {
                    continue;
                }
                trunk_entries[exit][j] = build_entry(ci, spec, plan.trunk_steps[exit][j].in_len)?;
                ci += 1;
            }
            for (j, spec) in arch.branches()[exit].iter().enumerate() {
                if !spec.is_parameterised() {
                    continue;
                }
                branch_entries[exit][j] = build_entry(ci, spec, plan.branch_steps[exit][j].in_len)?;
                ci += 1;
            }
        }
        debug_assert_eq!(ci, compressible.len());
        plan.quant = Some(config.clone());
        plan.fq = Some(FqState {
            weights: vec![0.0; weights_len],
            acts: vec![0.0; acts_len],
            trunk_entries,
            branch_entries,
        });
        Ok(plan)
    }

    /// Returns `true` when the plan was built for `net`'s architecture.
    pub fn is_compatible(&self, net: &MultiExitNetwork) -> bool {
        net.architecture() == &self.arch
    }

    /// The fake-quant configuration the plan was built with, if any.
    pub fn quant_config(&self) -> Option<&QuantConfig> {
        self.quant.as_ref()
    }

    /// Allocates a zeroed gradient store sized for this plan's architecture.
    pub fn make_store(&self) -> GradStore {
        GradStore { data: vec![0.0; self.store_len] }
    }

    /// Number of parameter slots a compatible [`GradStore`] must have.
    pub(crate) fn store_len(&self) -> usize {
        self.store_len
    }

    /// Analytic memory traffic of one full planned step (every exit
    /// weighted), in bytes.
    ///
    /// Counts, per non-flatten layer, the forward pass reading its input and
    /// writing its output plus the backward pass reading the output gradient
    /// and writing the input gradient (`2·(in + out)` floats), and for
    /// parameterised layers one weight read per direction plus one gradient
    /// write per parameter (`3·(w + b)` floats), plus the final store flush
    /// (read + accumulate, `2·params`). Deliberately a *lower bound* — im2col
    /// scratch and transpose staging are excluded — so the bytes-per-op the
    /// bench records understates, never inflates, the bandwidth story.
    pub fn traffic_bytes(&self) -> u64 {
        let mut floats = 0u64;
        let mut walk = |specs: &[LayerSpec], steps: &[StepIo]| {
            for (spec, step) in specs.iter().zip(steps) {
                if step.out_off == step.in_off && step.out_len == step.in_len {
                    continue; // flatten: aliased, no data moves
                }
                floats += 2 * (step.in_len + step.out_len) as u64;
                if spec.is_parameterised() {
                    floats += 3 * (spec.weight_params() + spec.bias_params());
                }
            }
        };
        for (exit, segment) in self.arch.segments().iter().enumerate() {
            walk(segment, &self.trunk_steps[exit]);
        }
        for (exit, branch) in self.arch.branches().iter().enumerate() {
            walk(branch, &self.branch_steps[exit]);
        }
        floats += 2 * self.store_len as u64;
        floats * std::mem::size_of::<f32>() as u64
    }

    /// Refreshes the dequantized weight codes from the network's current
    /// full-precision weights. No-op for plans without fake-quant state.
    fn prepare_fake_quant(&mut self, net: &MultiExitNetwork) {
        let Some(fq) = &mut self.fq else { return };
        let groups = [(net.segments(), &fq.trunk_entries), (net.branches(), &fq.branch_entries)];
        for (layers, entries) in groups {
            for (s, group) in layers.iter().enumerate() {
                for (j, layer) in group.iter().enumerate() {
                    let Some(e) = &entries[s][j] else { continue };
                    let w = match layer {
                        Layer::Conv2d(c) => c.weight().as_slice(),
                        Layer::Dense(d) => d.weight().as_slice(),
                        _ => continue,
                    };
                    debug_assert_eq!(w.len(), e.w_len);
                    for (q, &v) in fq.weights[e.w_off..e.w_off + e.w_len].iter_mut().zip(w) {
                        *q = ie_tensor::weight_code(v, e.weight_scale, e.weight_bits) as f32
                            * e.weight_scale;
                    }
                }
            }
        }
    }

    /// Runs one forward + backward pass, accumulating the gradients of every
    /// trainable parameter into `store` (which is zeroed first) instead of
    /// the network's gradient tensors. Returns the weighted loss. Loss and
    /// gradient bits are identical to [`MultiExitNetwork::backward`];
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when the plan was built for a
    /// different architecture or `store` has the wrong size,
    /// [`NnError::InvalidExit`] when `exit_weights` has the wrong length,
    /// [`NnError::InputShapeMismatch`] when `input` does not match the
    /// architecture's input dimensions, and [`NnError::InvalidLabel`] when a
    /// non-zero-weighted exit sees a label outside the class range.
    pub fn backward_into_store(
        &mut self,
        net: &MultiExitNetwork,
        input: &Tensor,
        label: usize,
        exit_weights: &[f32],
        store: &mut GradStore,
    ) -> Result<f32> {
        if net.architecture() != &self.arch {
            return Err(NnError::InvalidSpec(
                "backward plan built for a different architecture".into(),
            ));
        }
        if exit_weights.len() != self.trunk_steps.len() {
            return Err(NnError::InvalidExit {
                requested: exit_weights.len(),
                available: self.trunk_steps.len(),
            });
        }
        if store.data.len() != self.store_len {
            return Err(NnError::InvalidSpec(format!(
                "gradient store holds {} parameters, plan expects {}",
                store.data.len(),
                self.store_len
            )));
        }
        if input.dims() != self.arch.input_dims() {
            return Err(NnError::InputShapeMismatch {
                layer: "backward_plan".into(),
                expected: self.arch.input_dims().to_vec(),
                actual: input.dims().to_vec(),
            });
        }
        self.prepare_fake_quant(net);

        let Self {
            classes,
            input_len,
            acts,
            trunk_steps,
            branch_steps,
            logits_regions,
            probs,
            grad,
            trunk_grad,
            trunk_grad_regions,
            trunk_grad_touched,
            cols,
            colt,
            wt,
            regions,
            trunk_param,
            branch_param,
            fq,
            ..
        } = self;
        #[allow(clippy::type_complexity)]
        let (fq_w, fq_a, fq_trunk, fq_branch): (
            &[f32],
            &mut [f32],
            Option<&Vec<Vec<Option<FqEntry>>>>,
            Option<&Vec<Vec<Option<FqEntry>>>>,
        ) = match fq {
            Some(FqState { weights, acts, trunk_entries, branch_entries }) => {
                (&weights[..], &mut acts[..], Some(trunk_entries), Some(branch_entries))
            }
            None => (&[][..], &mut [][..], None, None),
        };

        acts[..*input_len].copy_from_slice(input.as_slice());
        store.data.fill(0.0);
        trunk_grad_touched.iter_mut().for_each(|t| *t = false);
        let mut total_loss = 0.0f32;

        // Forward through trunk segment `s`, then (when its exit carries a
        // non-zero weight) through branch `s`, followed immediately by that
        // exit's loss and branch backward — caches stay warm and
        // zero-weighted branches cost nothing, exactly like the legacy path.
        for s in 0..trunk_steps.len() {
            for (j, step) in trunk_steps[s].iter().enumerate() {
                let entry = fq_trunk.and_then(|t| t[s][j].as_ref());
                forward_layer(&net.segments()[s][j], step, entry, fq_w, fq_a, acts, cols)?;
            }
            let w = exit_weights[s];
            if w == 0.0 {
                continue;
            }
            if label >= *classes {
                return Err(NnError::InvalidLabel { label, classes: *classes });
            }
            for (j, step) in branch_steps[s].iter().enumerate() {
                let entry = fq_branch.and_then(|b| b[s][j].as_ref());
                forward_layer(&net.branches()[s][j], step, entry, fq_w, fq_a, acts, cols)?;
            }
            let (loff, llen) = logits_regions[s];
            softmax_into(&acts[loff..loff + llen], probs)?;
            let p_true = probs[label].max(1e-12);
            total_loss += w * -p_true.ln();
            ie_tensor::cross_entropy_grad_into(probs, label, w, &mut grad[0][..*classes]);
            let mut gslot = 0usize;
            for j in (0..branch_steps[s].len()).rev() {
                let step = &branch_steps[s][j];
                let entry = fq_branch.and_then(|b| b[s][j].as_ref());
                let region = branch_param[s][j].map(|ri| regions[ri]);
                backward_layer(
                    &net.branches()[s][j],
                    step,
                    entry,
                    fq_w,
                    fq_a,
                    region,
                    &mut store.data,
                    acts,
                    grad,
                    &mut gslot,
                    cols,
                    colt,
                    wt,
                    true,
                )?;
            }
            let (toff, tlen) = trunk_grad_regions[s];
            trunk_grad[toff..toff + tlen].copy_from_slice(&grad[gslot][..tlen]);
            trunk_grad_touched[s] = true;
        }

        // Backward through the trunk from the deepest segment to the first,
        // folding each exit's boundary gradient in as it is passed.
        let mut carried = false;
        let mut gslot = 0usize;
        for s in (0..trunk_steps.len()).rev() {
            let (toff, tlen) = trunk_grad_regions[s];
            match (carried, trunk_grad_touched[s]) {
                (true, true) => ie_tensor::accumulate_slice_into(
                    &mut grad[gslot][..tlen],
                    &trunk_grad[toff..toff + tlen],
                ),
                (true, false) => {}
                (false, true) => {
                    grad[0][..tlen].copy_from_slice(&trunk_grad[toff..toff + tlen]);
                    gslot = 0;
                    carried = true;
                }
                (false, false) => continue,
            }
            for j in (0..trunk_steps[s].len()).rev() {
                let step = &trunk_steps[s][j];
                let entry = fq_trunk.and_then(|t| t[s][j].as_ref());
                let region = trunk_param[s][j].map(|ri| regions[ri]);
                // The first layer of the network produces the input image's
                // gradient, which nothing reads — skip computing it.
                let need_dx = s > 0 || j > 0;
                backward_layer(
                    &net.segments()[s][j],
                    step,
                    entry,
                    fq_w,
                    fq_a,
                    region,
                    &mut store.data,
                    acts,
                    grad,
                    &mut gslot,
                    cols,
                    colt,
                    wt,
                    need_dx,
                )?;
            }
        }
        Ok(total_loss)
    }

    /// Adds `store`'s accumulated gradients onto the network's per-layer
    /// gradient tensors, in [`MultiExitNetwork::apply_gradients`] order.
    pub fn flush_store(&self, store: &GradStore, net: &mut MultiExitNetwork) {
        debug_assert_eq!(store.data.len(), self.store_len);
        let mut idx = 0usize;
        for layer in net.layers_mut() {
            if !layer.is_parameterised() {
                continue;
            }
            let r = self.regions[idx];
            idx += 1;
            let (sw, sb) =
                (&store.data[r.w_off..r.w_off + r.w_len], &store.data[r.b_off..r.b_off + r.b_len]);
            match layer {
                Layer::Conv2d(c) => {
                    ie_tensor::accumulate_slice_into(c.grad_weight_mut().as_mut_slice(), sw);
                    ie_tensor::accumulate_slice_into(c.grad_bias_mut().as_mut_slice(), sb);
                }
                Layer::Dense(d) => {
                    ie_tensor::accumulate_slice_into(d.grad_weight_mut().as_mut_slice(), sw);
                    ie_tensor::accumulate_slice_into(d.grad_bias_mut().as_mut_slice(), sb);
                }
                _ => {}
            }
        }
        debug_assert_eq!(idx, self.regions.len());
    }
}

/// Runs one layer's forward pass inside the activation arena. Convolutions
/// write their `im2col` lowering into the layer's cached region of `cols`,
/// where the backward weight-gradient GEMM re-reads it.
fn forward_layer(
    layer: &Layer,
    step: &StepIo,
    entry: Option<&FqEntry>,
    fq_weights: &[f32],
    fq_acts: &mut [f32],
    acts: &mut [f32],
    cols: &mut [f32],
) -> Result<()> {
    if matches!(layer, Layer::Flatten(_)) {
        return Ok(());
    }
    let (head, tail) = acts.split_at_mut(step.out_off);
    let input = &head[step.in_off..step.in_off + step.in_len];
    let out = &mut tail[..step.out_len];
    match layer {
        Layer::Relu(_) => {
            out.copy_from_slice(input);
            ie_tensor::relu_slice(out);
            Ok(())
        }
        Layer::MaxPool2d(p) => p.forward_slice_into(input, step.in_dims, out),
        Layer::Conv2d(c) => {
            let col = &mut cols[step.col_off..step.col_off + c.col_len()];
            if let Some(e) = entry {
                let xq = &mut fq_acts[e.x_off..e.x_off + step.in_len];
                for (q, &v) in xq.iter_mut().zip(input.iter()) {
                    *q = e.input.dequantize(e.input.quantize(v));
                }
                c.forward_with_weight_into(&fq_weights[e.w_off..e.w_off + e.w_len], xq, out, col)
            } else {
                c.forward_into(input, out, col, false)
            }
        }
        Layer::Dense(d) => {
            if let Some(e) = entry {
                let xq = &mut fq_acts[e.x_off..e.x_off + step.in_len];
                for (q, &v) in xq.iter_mut().zip(input.iter()) {
                    *q = e.input.dequantize(e.input.quantize(v));
                }
                d.forward_with_weight_into(&fq_weights[e.w_off..e.w_off + e.w_len], xq, out);
                Ok(())
            } else {
                d.forward_into(input, out, false)
            }
        }
        Layer::Flatten(_) => Ok(()),
    }
}

/// Runs one layer's backward pass: reads the upstream gradient from the
/// active ping-pong slot, writes the input gradient into the other slot
/// (flipping `gslot`), and accumulates parameter gradients into `store`.
///
/// With `need_dx == false` (the network's first layer — the input image's
/// gradient is never read) parameterised layers still accumulate their
/// weight and bias gradients but skip the data-gradient kernel, and
/// non-parameterised layers skip entirely. `gslot` still flips so callers
/// need no special case; the skipped slot's contents are simply unread.
#[allow(clippy::too_many_arguments)]
fn backward_layer(
    layer: &Layer,
    step: &StepIo,
    entry: Option<&FqEntry>,
    fq_weights: &[f32],
    fq_acts: &[f32],
    region: Option<ParamRegion>,
    store: &mut [f32],
    acts: &[f32],
    grad: &mut [Vec<f32>; 2],
    gslot: &mut usize,
    cols: &[f32],
    colt: &mut [f32],
    wt: &mut [f32],
    need_dx: bool,
) -> Result<()> {
    if matches!(layer, Layer::Flatten(_)) {
        return Ok(());
    }
    let (lo, hi) = grad.split_at_mut(1);
    let (src, dst) = if *gslot == 0 {
        (&lo[0][..step.out_len], &mut hi[0][..step.in_len])
    } else {
        (&hi[0][..step.out_len], &mut lo[0][..step.in_len])
    };
    let input = &acts[step.in_off..step.in_off + step.in_len];
    match layer {
        Layer::Relu(_) => {
            if need_dx {
                ie_tensor::relu_backward_into(input, src, dst);
            }
        }
        Layer::MaxPool2d(p) => {
            if need_dx {
                let [c, h, w] = step.in_dims;
                ie_tensor::max_pool_backward_into(input, c, h, w, p.size(), src, dst);
            }
        }
        Layer::Conv2d(conv) => {
            let r = region.expect("conv layer without a parameter region");
            let (gw, gb) = store[r.w_off..r.b_off + r.b_len].split_at_mut(r.w_len);
            let weight = match entry {
                Some(e) => &fq_weights[e.w_off..e.w_off + e.w_len],
                None => conv.weight().as_slice(),
            };
            let (clen, wlen) = (conv.col_len(), weight.len());
            let col = &cols[step.col_off..step.col_off + clen];
            let dx = need_dx.then_some(&mut dst[..]);
            conv.backward_slice_into(
                weight,
                col,
                src,
                dx,
                gw,
                gb,
                &mut colt[..clen],
                &mut wt[..wlen],
            )?;
        }
        Layer::Dense(dense) => {
            let r = region.expect("dense layer without a parameter region");
            let (gw, gb) = store[r.w_off..r.b_off + r.b_len].split_at_mut(r.w_len);
            let (weight, x) = match entry {
                Some(e) => (
                    &fq_weights[e.w_off..e.w_off + e.w_len],
                    &fq_acts[e.x_off..e.x_off + step.in_len],
                ),
                None => (dense.weight().as_slice(), input),
            };
            let dx = need_dx.then_some(&mut dst[..]);
            dense.backward_slice_into(weight, x, src, dx, gw, gb);
        }
        Layer::Flatten(_) => {}
    }
    *gslot ^= 1;
    Ok(())
}

impl MultiExitNetwork {
    /// Builds a [`BackwardPlan`] for this network's architecture.
    pub fn backward_plan(&self) -> BackwardPlan {
        BackwardPlan::for_architecture(self.architecture())
    }

    /// Builds a fake-quant [`BackwardPlan`] for this network's architecture.
    ///
    /// # Errors
    ///
    /// Propagates [`BackwardPlan::for_architecture_fake_quant`]'s validation
    /// errors.
    pub fn backward_plan_fake_quant(&self, config: &QuantConfig) -> Result<BackwardPlan> {
        BackwardPlan::for_architecture_fake_quant(self.architecture(), config)
    }

    /// Planned counterpart of [`Self::backward`]: accumulates the same
    /// gradients (bit-identical) and returns the same loss, but performs no
    /// heap allocation once `plan` is warm. On error the network's gradient
    /// tensors are left untouched (the legacy path may leave partial
    /// gradients behind).
    ///
    /// # Errors
    ///
    /// See [`BackwardPlan::backward_into_store`].
    pub fn backward_with(
        &mut self,
        plan: &mut BackwardPlan,
        input: &Tensor,
        label: usize,
        exit_weights: &[f32],
    ) -> Result<f32> {
        let mut store = std::mem::take(&mut plan.store);
        let result = plan.backward_into_store(self, input, label, exit_weights, &mut store);
        if result.is_ok() {
            plan.flush_store(&store, self);
        }
        plan.store = store;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::config_from_bits;
    use crate::spec::{lenet_multi_exit, tiny_multi_exit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_for(arch: &MultiExitArchitecture, seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(arch, &mut rng).unwrap()
    }

    /// Every parameter gradient in apply-order, as raw bits.
    fn grad_bits(net: &MultiExitNetwork) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in net.segments().iter().flatten().chain(net.branches().iter().flatten()) {
            let (gw, gb) = match layer {
                Layer::Conv2d(c) => (c.grad_weight(), c.grad_bias()),
                Layer::Dense(d) => (d.grad_weight(), d.grad_bias()),
                _ => continue,
            };
            bits.extend(gw.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(gb.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    fn assert_planned_matches_legacy(arch: &MultiExitArchitecture, seed: u64, weights: &[f32]) {
        let reference = net_for(arch, seed);
        let mut legacy = reference.clone();
        let mut planned = reference.clone();
        let mut plan = planned.backward_plan();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let dims: Vec<usize> = arch.input_dims().to_vec();
        for step in 0..3 {
            let x = Tensor::randn(&mut rng, &dims, 0.0, 1.0);
            let label = step % arch.num_classes();
            let l_loss = legacy.backward(&x, label, weights).unwrap();
            let p_loss = planned.backward_with(&mut plan, &x, label, weights).unwrap();
            assert_eq!(l_loss.to_bits(), p_loss.to_bits(), "loss diverged at step {step}");
            assert_eq!(grad_bits(&legacy), grad_bits(&planned), "grads diverged at step {step}");
            legacy.apply_gradients(0.05);
            planned.apply_gradients(0.05);
        }
    }

    #[test]
    fn planned_backward_is_bit_identical_on_tiny_net() {
        let arch = tiny_multi_exit(3);
        assert_planned_matches_legacy(&arch, 7, &[0.5, 1.0]);
        assert_planned_matches_legacy(&arch, 8, &[1.0, 0.0]);
        assert_planned_matches_legacy(&arch, 9, &[0.0, 1.0]);
    }

    #[test]
    fn planned_backward_is_bit_identical_on_lenet() {
        let arch = lenet_multi_exit();
        assert_planned_matches_legacy(&arch, 21, &[0.3, 0.3, 1.0]);
        assert_planned_matches_legacy(&arch, 22, &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn planned_backward_is_bit_identical_with_sparse_hint() {
        let arch = tiny_multi_exit(4);
        let reference = net_for(&arch, 13);
        let mut legacy = reference.clone();
        let mut planned = reference.clone();
        for net in [&mut legacy, &mut planned] {
            for layer in net.segments_mut().iter_mut().flatten() {
                if let Layer::Conv2d(c) = layer {
                    c.set_sparse_hint(true);
                }
            }
        }
        let mut plan = planned.backward_plan();
        let mut rng = StdRng::seed_from_u64(99);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let l = legacy.backward(&x, 2, &[1.0, 1.0]).unwrap();
        let p = planned.backward_with(&mut plan, &x, 2, &[1.0, 1.0]).unwrap();
        assert_eq!(l.to_bits(), p.to_bits());
        assert_eq!(grad_bits(&legacy), grad_bits(&planned));
    }

    #[test]
    fn empty_fake_quant_config_is_bitwise_plain() {
        let arch = tiny_multi_exit(3);
        let reference = net_for(&arch, 31);
        let mut plain = reference.clone();
        let mut quantized = reference.clone();
        let n_layers = arch.compressible_layers().len();
        let config = QuantConfig::from_layers(vec![None; n_layers]);
        let mut plan_plain = plain.backward_plan();
        let mut plan_fq = quantized.backward_plan_fake_quant(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let a = plain.backward_with(&mut plan_plain, &x, 1, &[1.0, 0.5]).unwrap();
        let b = quantized.backward_with(&mut plan_fq, &x, 1, &[1.0, 0.5]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(grad_bits(&plain), grad_bits(&quantized));
    }

    #[test]
    fn fake_quant_training_reduces_loss() {
        let arch = tiny_multi_exit(3);
        let mut net = net_for(&arch, 41);
        let entries: Vec<Option<(u8, QuantParams)>> = arch
            .compressible_layers()
            .iter()
            .map(|_| Some((8, QuantParams::from_range(-4.0, 4.0, 8))))
            .collect();
        let config = config_from_bits(&net, &entries).unwrap();
        let mut plan = net.backward_plan_fake_quant(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        let first = net.backward_with(&mut plan, &x, 2, &[1.0, 1.0]).unwrap();
        net.apply_gradients(0.1);
        let mut last = first;
        for _ in 0..20 {
            last = net.backward_with(&mut plan, &x, 2, &[1.0, 1.0]).unwrap();
            net.apply_gradients(0.1);
        }
        assert!(first.is_finite() && last.is_finite());
        assert!(last < first, "fake-quant loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn fake_quant_forward_actually_quantizes() {
        // A plan whose config rounds aggressively (2-bit weights) must not
        // produce the same gradients as the plain plan.
        let arch = tiny_multi_exit(3);
        let reference = net_for(&arch, 51);
        let mut plain = reference.clone();
        let mut quantized = reference.clone();
        let entries: Vec<Option<(u8, QuantParams)>> = arch
            .compressible_layers()
            .iter()
            .map(|_| Some((2, QuantParams::from_range(-2.0, 2.0, 4))))
            .collect();
        let config = config_from_bits(&reference, &entries).unwrap();
        let mut plan_plain = plain.backward_plan();
        let mut plan_fq = quantized.backward_plan_fake_quant(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        let x = Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0);
        plain.backward_with(&mut plan_plain, &x, 0, &[1.0, 1.0]).unwrap();
        quantized.backward_with(&mut plan_fq, &x, 0, &[1.0, 1.0]).unwrap();
        assert_ne!(grad_bits(&plain), grad_bits(&quantized));
    }

    #[test]
    fn planned_backward_validates_arguments() {
        let arch = tiny_multi_exit(3);
        let mut net = net_for(&arch, 61);
        let mut plan = net.backward_plan();
        let x = Tensor::ones(&[1, 8, 8]);
        assert!(matches!(
            net.backward_with(&mut plan, &x, 9, &[1.0, 1.0]),
            Err(NnError::InvalidLabel { label: 9, classes: 3 })
        ));
        assert!(matches!(
            net.backward_with(&mut plan, &x, 0, &[1.0]),
            Err(NnError::InvalidExit { requested: 1, available: 2 })
        ));
        assert!(net.backward_with(&mut plan, &Tensor::ones(&[1, 4, 4]), 0, &[1.0, 1.0]).is_err());
        // Bad label with all-zero weights matches the legacy lazy validation.
        assert_eq!(net.backward_with(&mut plan, &x, 9, &[0.0, 0.0]).unwrap(), 0.0);
        // A plan built for another architecture is rejected.
        let other = tiny_multi_exit(4);
        let mut other_net = net_for(&other, 62);
        assert!(matches!(
            other_net.backward_with(&mut plan, &Tensor::ones(&[1, 8, 8]), 0, &[1.0, 1.0]),
            Err(NnError::InvalidSpec(_))
        ));
    }

    #[test]
    fn plan_reports_compatibility_and_config() {
        let arch = tiny_multi_exit(3);
        let net = net_for(&arch, 71);
        let plan = net.backward_plan();
        assert!(plan.is_compatible(&net));
        assert!(plan.quant_config().is_none());
        assert_eq!(plan.make_store().len(), net.parameter_count());
        assert!(!plan.make_store().is_empty());
        let other = net_for(&tiny_multi_exit(4), 72);
        assert!(!plan.is_compatible(&other));
    }
}

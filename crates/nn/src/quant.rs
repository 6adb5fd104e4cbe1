//! Quantized (integer) execution: per-layer kernel selection, pre-quantized
//! packed weights, and the fake-quant reference the optimized path is tested
//! against.
//!
//! The compression search assigns every parameterised layer a weight and an
//! activation bitwidth. Instead of dequantizing those weights back to `f32`,
//! the quantized backend runs such layers through true integer kernels:
//!
//! * **Kernel selection** — a layer whose [`LayerQuantConfig`] is present
//!   gets the i8 storage class when its weight bitwidth is ≤ 8 and the i16
//!   class when it is ≤ 16; layers without a config (or with wider weights)
//!   keep the `f32` kernels. Activation codes are always at most 8 bits and
//!   are stored as `i8`. Both integer classes execute through the same
//!   integer GEMMs (see `QuantizedLayer`).
//! * **Packed weights** — [`QuantizedModel::for_network`] quantizes every
//!   configured layer's weights **once**, into depth-padded `[O, kp]` i16
//!   code rows with pruned-away input channels dropped, together with the
//!   per-row code sums used by the zero-point correction.
//! * **Requantization epilogue** — the integer accumulator is mapped back to
//!   a real value as `(acc − zp_in·Σw) · (s_w·s_in) + bias` (see
//!   [`ie_tensor::dequant_acc`]), with an optional fused ReLU. The epilogue
//!   emits **i8 codes** when the next parameterised layer of the same
//!   trunk-segment/branch layer list is also quantized (its input parameters
//!   are known at plan-construction time), and **f32** at quantized→float
//!   boundaries — in particular at the end of every layer list, so cached
//!   trunk activations and logits are always `f32` and any mix of per-layer
//!   policies composes.
//! * **Reference** — [`fake_quant_logits`] recomputes the same quantized
//!   network with naive per-element loops and the same scalar quantization
//!   helpers. Integer accumulation is associative, so the blocked kernels
//!   must (and do — property-tested) reproduce it bit for bit.

use crate::batch::buffer_requirements;
use crate::spec::{CompressibleLayer, LayerSpecKind, MultiExitArchitecture};
use crate::{Conv2d, Dense, Layer, MultiExitNetwork, NnError, Result};
use ie_tensor::{
    dequant_acc, dequant_rows_slice_into, dequant_slice_into, gemm_i16t_into, gemm_i8cols_into,
    requant_rows_slice_into, requant_slice_into, weight_code, QuantParams, Tensor,
    MADD_DEPTH_ALIGN,
};

/// Which integer kernel a quantized layer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKernel {
    /// 8-bit weight codes, `i8` GEMM.
    I8,
    /// 9–16-bit weight codes, `i16` GEMM.
    I16,
}

impl QuantKernel {
    /// Selects the kernel for a weight bitwidth: ≤ 8 → i8, 9–16 → i16, wider
    /// → `None` (the layer stays on the `f32` kernels).
    pub fn for_weight_bits(bits: u8) -> Option<QuantKernel> {
        match bits {
            1..=8 => Some(QuantKernel::I8),
            9..=16 => Some(QuantKernel::I16),
            _ => None,
        }
    }
}

/// Quantization of one parameterised layer: how its weights were scaled and
/// how its input activations are coded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerQuantConfig {
    /// Weight bitwidth (1..=16); selects the i8 or i16 kernel.
    pub weight_bits: u8,
    /// Weight quantization scale: `code = weight_code(w, scale, bits)`.
    pub weight_scale: f32,
    /// Quantization of this layer's **input** activation tensor (at most
    /// 8-bit codes, from calibration).
    pub input: QuantParams,
}

/// Per-layer quantization choices for a whole network, in the canonical
/// compressible-layer order of
/// [`crate::spec::MultiExitArchitecture::compressible_layers`]. `None`
/// entries keep the layer on the `f32` kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantConfig {
    layers: Vec<Option<LayerQuantConfig>>,
}

impl QuantConfig {
    /// Creates a config from per-layer entries in canonical order.
    pub fn from_layers(layers: Vec<Option<LayerQuantConfig>>) -> Self {
        QuantConfig { layers }
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the config covers no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Per-layer entries in canonical order.
    pub fn layers(&self) -> &[Option<LayerQuantConfig>] {
        &self.layers
    }
}

/// One layer's pre-quantized parameters, packed for the integer kernels.
///
/// Weight codes are stored **widened to `i16` and depth-padded** to
/// [`ie_tensor::MADD_DEPTH_ALIGN`] regardless of the selected kernel: both
/// the i8 and the i16 path execute through the `vpmaddwd`-based integer
/// GEMMs — [`ie_tensor::gemm_i8cols_into`] for convolutions,
/// [`ie_tensor::gemm_i16t_into`] for dense layers, which also reads the
/// zero pad. The [`QuantKernel`] tag still records the storage class the
/// policy selected — it is what the 8-vs-16-bit deployment footprint
/// accounting reflects.
#[derive(Debug, Clone)]
pub(crate) struct QuantizedLayer {
    /// Which integer kernel class this layer runs (storage semantics).
    pub(crate) kernel: QuantKernel,
    /// Widened, depth-padded weight codes, `[rows, kp]` row-major, holding
    /// only the **kept** input channels/features.
    pub(crate) w: Vec<i16>,
    /// Output rows (`out_channels` / `out_features`).
    pub(crate) rows: usize,
    /// Input channels (conv) / features (dense) whose weight codes are not
    /// all zero. Channel pruning zeroes whole blocks; packing them away lets
    /// the integer GEMM skip them entirely — the deployed-MCU behaviour —
    /// while changing no result (dropped codes are exactly zero).
    pub(crate) kept: Vec<usize>,
    /// Codes per kept channel (`k²` for conv, 1 for dense).
    pub(crate) block: usize,
    /// Packed real depth (`kept.len() · block`).
    pub(crate) cols: usize,
    /// Padded depth and row stride of `w` (`cols` rounded up to
    /// [`MADD_DEPTH_ALIGN`]; pads are 0).
    pub(crate) kp: usize,
    /// Precomputed per-row zero-point corrections
    /// (`input.zero_point() · Σ_k w_code[row][k]`), so the epilogues can
    /// stream them through the vectorized per-row kernels.
    pub(crate) corr: Vec<i32>,
    /// Combined dequantization scale `input.scale · weight_scale`.
    pub(crate) combined_scale: f32,
    /// Input activation quantization.
    pub(crate) input: QuantParams,
    /// Output emission: `Some` → emit codes for the next quantized layer of
    /// the same list, `None` → emit `f32` (mixed-precision boundary or list
    /// end).
    pub(crate) out: Option<QuantParams>,
    /// The layer's `f32` bias, copied so the epilogue reads contiguously.
    pub(crate) bias: Vec<f32>,
}

impl QuantizedLayer {
    /// Weight code at `(row, full_idx)` in the **unpacked** depth space —
    /// used by the naive reference, which iterates every input
    /// channel/feature. Pruned-away (not kept) positions are exactly zero.
    fn code_at(&self, row: usize, full_idx: usize) -> i32 {
        let (chan, offset) = (full_idx / self.block, full_idx % self.block);
        match self.kept.iter().position(|&c| c == chan) {
            Some(pos) => i32::from(self.w[row * self.kp + pos * self.block + offset]),
            None => 0,
        }
    }

    /// Zero-point correction of one output row: `zp_in · Σ_k w_code[row][k]`.
    pub(crate) fn correction(&self, row: usize) -> i32 {
        self.corr[row]
    }
}

/// Packs one layer's weight codes: `weights` is `[rows, channels·block]`
/// row-major (`block` = `k²` for conv, 1 for dense). Channels whose codes
/// are all zero (pruned) are dropped from the packed matrix; at least one
/// channel is always kept so downstream shapes stay non-degenerate.
fn pack_blocks(
    weights: &[f32],
    rows: usize,
    channels: usize,
    block: usize,
    cfg: &LayerQuantConfig,
    recycle: Option<QuantizedLayer>,
) -> QuantizedLayer {
    let kernel =
        QuantKernel::for_weight_bits(cfg.weight_bits).expect("caller validated weight_bits <= 16");
    let full_cols = channels * block;
    // Reuse a previous policy's packed buffers when offered (the quantized
    // plan pool hands back the old layer): all four vectors are grow-only
    // across repacks, so a warmed pool packs without heap allocation.
    let (mut w, mut kept, mut corr, mut bias) = match recycle {
        Some(old) => (old.w, old.kept, old.corr, old.bias),
        None => Default::default(),
    };
    kept.clear();
    kept.extend((0..channels).filter(|&c| {
        (0..rows).any(|row| {
            weights[row * full_cols + c * block..row * full_cols + (c + 1) * block]
                .iter()
                .any(|&v| weight_code(v, cfg.weight_scale, cfg.weight_bits) != 0)
        })
    }));
    if kept.is_empty() {
        kept.push(0);
    }
    let cols = kept.len() * block;
    let kp = cols.next_multiple_of(MADD_DEPTH_ALIGN);
    w.clear();
    w.resize(rows * kp, 0i16);
    corr.clear();
    bias.clear();
    let zp = cfg.input.zero_point();
    for (row, dst) in w.chunks_exact_mut(kp).enumerate() {
        let src = &weights[row * full_cols..(row + 1) * full_cols];
        let mut row_sum = 0i32;
        for (ci, &chan) in kept.iter().enumerate() {
            for offset in 0..block {
                let c = weight_code(src[chan * block + offset], cfg.weight_scale, cfg.weight_bits);
                row_sum = row_sum.wrapping_add(c);
                dst[ci * block + offset] = c as i16;
            }
        }
        corr.push(zp.wrapping_mul(row_sum));
    }
    QuantizedLayer {
        kernel,
        w,
        rows,
        kept,
        block,
        cols,
        kp,
        corr,
        combined_scale: cfg.input.scale() * cfg.weight_scale,
        input: cfg.input,
        out: None,
        bias,
    }
}

/// Validates a whole config against `net` — the exact error surface of
/// [`QuantizedModel::for_network`]: the entry count, each entry's ranges, and
/// that every configured site holds a convolution a table lowers or a dense
/// layer (a list rebuilt through [`MultiExitNetwork::segments_mut`] may
/// not). Returns the
/// compressible layers the entries belong to. Run before the recycling
/// constructor consumes an old model's buffers, so
/// [`crate::BatchPlan::repack_quantized`] can fail without destroying its
/// plan's quantized state.
pub(crate) fn validate_config(
    net: &MultiExitNetwork,
    config: &QuantConfig,
) -> Result<Vec<CompressibleLayer>> {
    let compressible = net.architecture().compressible_layers();
    if config.len() != compressible.len() {
        return Err(NnError::InvalidSpec(format!(
            "quant config covers {} layers, network has {} compressible layers",
            config.len(),
            compressible.len()
        )));
    }
    for (index, (layer, entry)) in compressible.iter().zip(config.layers()).enumerate() {
        let Some(cfg) = entry else { continue };
        let ok = (1..=16).contains(&cfg.weight_bits)
            && cfg.weight_scale.is_finite()
            && cfg.weight_scale > 0.0
            && cfg.input.lo() >= i32::from(i8::MIN)
            && cfg.input.hi() <= i32::from(i8::MAX);
        if !ok {
            return Err(NnError::InvalidSpec(format!(
                "quant config for layer {index} is invalid: weight_bits {} scale {} input {:?}",
                cfg.weight_bits, cfg.weight_scale, cfg.input
            )));
        }
        let site = net.layer_at(layer.site);
        if !site.is_some_and(Layer::is_parameterised) {
            return Err(NnError::InvalidSpec(format!(
                "compressible layer {index} ({}) is not a convolution or dense layer of the \
                 network",
                layer.name
            )));
        }
        // A conv no table lowers is refused before any pass: a zero kernel
        // has no filter block to pack.
        if let Some(Layer::Conv2d(conv)) = site {
            conv.lowering()?;
        }
    }
    Ok(compressible)
}

/// A network's pre-quantized layer parameters, aligned with its trunk
/// segments and branches — the per-layer side of a quantized
/// [`crate::BatchPlan`], built once at plan construction.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    segments: Vec<Vec<Option<QuantizedLayer>>>,
    branches: Vec<Vec<Option<QuantizedLayer>>>,
}

impl QuantizedModel {
    /// Quantizes `net`'s parameterised layers according to `config` (one
    /// entry per compressible layer in canonical order).
    ///
    /// Weight codes are packed here, once; forward passes never touch the
    /// `f32` weights of configured layers again. Consecutive quantized layers
    /// within one trunk segment or branch are chained in the code domain (the
    /// earlier layer's epilogue emits the later layer's input codes); every
    /// list ends in `f32`, so trunk caching and branch evaluation are
    /// layout-compatible with the float engine.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when the config length does not match
    /// the network's compressible layers, an entry is out of range (weight
    /// bits outside 1..=16, activation codes outside `i8`, or non-positive
    /// scales), or a configured site holds no convolution or dense layer, and
    /// the geometry's [`ie_tensor::TensorError::InvalidConvGeometry`] for a
    /// configured convolution no lowering table can lower.
    pub fn for_network(net: &MultiExitNetwork, config: &QuantConfig) -> Result<QuantizedModel> {
        QuantizedModel::for_network_recycling(net, config, None)
    }

    /// [`QuantizedModel::for_network`] that additionally **recycles** the
    /// buffers of a previous model (typically one packed for an earlier
    /// candidate policy of the same architecture): each layer's packed weight
    /// codes, kept-channel list, correction and bias vectors are reused
    /// grow-only, so a warmed [`crate::train::QuantPlanPool`] re-packs a new
    /// policy's weights without re-allocating them.
    pub(crate) fn for_network_recycling(
        net: &MultiExitNetwork,
        config: &QuantConfig,
        recycle: Option<QuantizedModel>,
    ) -> Result<QuantizedModel> {
        let compressible = validate_config(net, config)?;
        // Recycle the old model's layer at the same site; a structural
        // mismatch simply finds nothing to recycle.
        let (mut old_segments, mut old_branches) = match recycle {
            Some(model) => (model.segments, model.branches),
            None => (Vec::new(), Vec::new()),
        };
        let unset = |lists: &[Vec<Layer>]| -> Vec<Vec<Option<QuantizedLayer>>> {
            lists.iter().map(|list| vec![None; list.len()]).collect()
        };
        let (mut segments, mut branches) = (unset(net.segments()), unset(net.branches()));
        for (spec, cfg) in compressible.iter().zip(config.layers()) {
            let Some(cfg) = cfg else { continue };
            let trunk = (&mut segments, &mut old_segments);
            let ((lists, old), list, pos) =
                spec.site.pick(trunk, (&mut branches, &mut old_branches));
            let recycled = old.get_mut(list).and_then(|l| l.get_mut(pos)).and_then(Option::take);
            let (weights, rows, channels, block, bias) = match net.layer_at(spec.site) {
                Some(Layer::Conv2d(conv)) => {
                    let geom = conv.geometry();
                    let block = geom.kernel * geom.kernel;
                    (conv.weight(), conv.out_channels(), geom.in_channels, block, conv.bias())
                }
                Some(Layer::Dense(dense)) => {
                    (dense.weight(), dense.out_features(), dense.in_features(), 1, dense.bias())
                }
                _ => unreachable!("validate_config checked every configured site"),
            };
            let mut ql = pack_blocks(weights.as_slice(), rows, channels, block, cfg, recycled);
            ql.bias.extend_from_slice(bias.as_slice());
            lists[list][pos] = Some(ql);
        }
        // Chain consecutive quantized layers of each list: each one emits the
        // next one's input codes; the last always emits f32. A *float*
        // parameterised layer breaks the chain — it consumes f32, so the
        // quantized layer before it must emit f32 even when a later layer of
        // the list is quantized again.
        let lists = net.segments().iter().zip(&mut segments);
        for (layers, list) in lists.chain(net.branches().iter().zip(&mut branches)) {
            let mut next_input: Option<QuantParams> = None;
            for (layer, entry) in layers.iter().zip(list.iter_mut()).rev() {
                match entry {
                    Some(ql) => {
                        ql.out = next_input;
                        next_input = Some(ql.input);
                    }
                    None if layer.is_parameterised() => next_input = None,
                    None => {}
                }
            }
        }
        Ok(QuantizedModel { segments, branches })
    }

    /// Quantized entries of trunk segment `i`, aligned with its layers.
    pub(crate) fn segment(&self, i: usize) -> &[Option<QuantizedLayer>] {
        &self.segments[i]
    }

    /// Quantized entries of branch `i`, aligned with its layers.
    pub(crate) fn branch(&self, i: usize) -> &[Option<QuantizedLayer>] {
        &self.branches[i]
    }

    /// Cheap structural compatibility check: the model was built for a
    /// network with these segment/branch layer counts. (Weight changes on a
    /// same-shaped network are undetectable — quantized plans bake weights in
    /// and must be rebuilt after retraining or re-compression.)
    pub(crate) fn matches(&self, net: &MultiExitNetwork) -> bool {
        self.segments.len() == net.segments().len()
            && self.branches.len() == net.branches().len()
            && self.segments.iter().zip(net.segments()).all(|(q, l)| q.len() == l.len())
            && self.branches.iter().zip(net.branches()).all(|(q, l)| q.len() == l.len())
    }

    /// Number of layers running an integer kernel.
    pub fn num_quantized(&self) -> usize {
        self.segments.iter().chain(&self.branches).flatten().filter(|entry| entry.is_some()).count()
    }

    /// Counts of (i8, i16) kernel-class layers — the storage classes the
    /// policy selected (both execute through the same integer GEMMs).
    pub fn kernel_counts(&self) -> (usize, usize) {
        let mut i8_count = 0;
        let mut i16_count = 0;
        for ql in self.segments.iter().chain(&self.branches).flatten().flatten() {
            match ql.kernel {
                QuantKernel::I8 => i8_count += 1,
                QuantKernel::I16 => i16_count += 1,
            }
        }
        (i8_count, i16_count)
    }

    /// Returns `true` when no layer is quantized (the plan degenerates to the
    /// pure `f32` engine).
    pub fn is_empty(&self) -> bool {
        self.num_quantized() == 0
    }
}

/// Pre-sized integer scratch buffers of a quantized plan: activation-code
/// ping-pong slots, the `i8` column matrix of the quantized `im2col` and
/// its plane scratch, the widened sample-major dense-input buffer and the
/// `i32` accumulator. Sized once at plan construction; forward passes never
/// allocate. The default is empty, which is what an `f32` plan holds.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuantBuffers {
    /// Activation-code ping-pong pair (indexed like the `f32` pair).
    pub(crate) codes: [Vec<i8>; 2],
    /// Column scratch of the quantized `im2col` (`[k, n]` i8), which the
    /// convolution's GEMM reads directly.
    pub(crate) col8: Vec<i8>,
    /// Scratch the quantized `im2col` stages each input plane in, sized for
    /// the largest padded plane of the architecture.
    pub(crate) plane8: Vec<i8>,
    /// Widened, depth-padded sample-major dense inputs (`[batch, kp]` i16).
    pub(crate) xs16: Vec<i16>,
    /// `i32` accumulator the integer GEMM writes and the epilogue reads.
    pub(crate) acc: Vec<i32>,
}

/// Per-unit-batch element count of the widened dense input row a quantized
/// plan needs for `arch`: the widest dense input, depth-padded.
fn dense_input_requirement(arch: &MultiExitArchitecture) -> usize {
    arch.all_layers()
        .filter_map(|spec| match spec.kind {
            LayerSpecKind::Dense { in_features, .. } => {
                Some(in_features.next_multiple_of(MADD_DEPTH_ALIGN))
            }
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

impl QuantBuffers {
    /// Buffers sized for `arch` with up to `max_batch` samples per pass.
    pub(crate) fn for_architecture(arch: &MultiExitArchitecture, max_batch: usize) -> Self {
        let mb = max_batch.max(1);
        let (max_act, max_col, max_plane) = buffer_requirements(arch);
        QuantBuffers {
            codes: [vec![0i8; max_act * mb], vec![0i8; max_act * mb]],
            col8: vec![0i8; max_col * mb],
            plane8: vec![0i8; max_plane],
            xs16: vec![0i16; dense_input_requirement(arch) * mb],
            acc: vec![0i32; max_act * mb],
        }
    }

    /// Returns `true` when these buffers can hold `arch` with `max_batch`
    /// samples per pass. The `f32`-side act/col capacities are checked by the
    /// plan itself; this covers the **integer** scratch, whose widened dense
    /// rows (depth-padded to [`MADD_DEPTH_ALIGN`]) do not follow from the
    /// `f32` ones — a repack that skipped this check could pass the plan
    /// compatibility test and still overrun `xs16` mid-forward.
    pub(crate) fn fits(&self, arch: &MultiExitArchitecture, max_batch: usize) -> bool {
        let mb = max_batch.max(1);
        let (max_act, max_col, max_plane) = buffer_requirements(arch);
        self.codes.iter().all(|c| c.len() >= max_act * mb)
            && self.col8.len() >= max_col * mb
            && self.plane8.len() >= max_plane
            && self.xs16.len() >= dense_input_requirement(arch) * mb
            && self.acc.len() >= max_act * mb
    }
}

/// Which representation currently holds the activation while a layer list
/// runs: real values in the `f32` ping-pong pair, or quantized codes (with
/// their parameters) in the plan's code pair. Lists always start and end in
/// [`Domain::F32`]; the code domain exists only between chained quantized
/// layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Domain {
    /// Activation lives in the `f32` ping-pong pair.
    F32,
    /// Activation lives in the code ping-pong pair, quantized with the given
    /// parameters.
    Codes(QuantParams),
}

/// Quantizes an `f32` activation slice into codes (elementwise; layout-
/// preserving, so it works for both the single and the wide batched layout).
/// Routed through the dispatched [`QuantParams::quantize_slice_into`] kernel.
pub(crate) fn quantize_slice(src: &[f32], p: &QuantParams, dst: &mut [i8]) {
    p.quantize_slice_into(src, dst);
}

/// Where a quantized layer's epilogue writes its output.
pub(crate) enum QuantDst<'a> {
    /// Dequantize to `f32` (mixed-precision boundary or list end).
    F32(&'a mut [f32]),
    /// Emit input codes of the next quantized layer.
    Codes(&'a mut [i8]),
}

/// Applies the requantization epilogue over row-major `[rows, row_len]`
/// accumulators (the convolution layout: one row per output channel).
fn epilogue_rows(
    acc: &[i32],
    ql: &QuantizedLayer,
    row_len: usize,
    fuse_relu: bool,
    dst: QuantDst<'_>,
) {
    match dst {
        QuantDst::F32(out) => {
            for (row, (acc_row, out_row)) in
                acc.chunks_exact(row_len).zip(out.chunks_exact_mut(row_len)).enumerate()
            {
                dequant_slice_into(
                    acc_row,
                    ql.correction(row),
                    ql.combined_scale,
                    ql.bias[row],
                    fuse_relu,
                    out_row,
                );
            }
        }
        QuantDst::Codes(out) => {
            let p = ql.out.expect("code emission requires output params");
            let floor = if fuse_relu { p.zero_point() } else { p.lo() };
            for (row, (acc_row, out_row)) in
                acc.chunks_exact(row_len).zip(out.chunks_exact_mut(row_len)).enumerate()
            {
                requant_slice_into(
                    acc_row,
                    ql.correction(row),
                    ql.combined_scale,
                    ql.bias[row],
                    &p,
                    floor,
                    out_row,
                );
            }
        }
    }
}

/// Applies the requantization epilogue over sample-major `[batch, rows]`
/// accumulators (the dense layout).
fn epilogue_samples(
    acc: &[i32],
    ql: &QuantizedLayer,
    rows: usize,
    fuse_relu: bool,
    dst: QuantDst<'_>,
) {
    match dst {
        QuantDst::F32(out) => {
            for (acc_row, out_row) in acc.chunks_exact(rows).zip(out.chunks_exact_mut(rows)) {
                dequant_rows_slice_into(
                    acc_row,
                    &ql.corr,
                    &ql.bias,
                    ql.combined_scale,
                    fuse_relu,
                    out_row,
                );
            }
        }
        QuantDst::Codes(out) => {
            let p = ql.out.expect("code emission requires output params");
            let floor = if fuse_relu { p.zero_point() } else { p.lo() };
            for (acc_row, out_row) in acc.chunks_exact(rows).zip(out.chunks_exact_mut(rows)) {
                requant_rows_slice_into(
                    acc_row,
                    &ql.corr,
                    &ql.bias,
                    ql.combined_scale,
                    &p,
                    floor,
                    out_row,
                );
            }
        }
    }
}

/// Runs one quantized convolution over `batch` samples of input codes (wide
/// channel-major layout for `batch > 1`): the quantized `im2col` lowering of
/// the kept channels into the `[k, n]` i8 column matrix, staging each plane
/// in `plane8`, the register-tiled integer GEMM straight from those columns
/// into the `i32` accumulator, and the requantization epilogue into `dst`.
/// Allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quant_conv_forward(
    conv: &Conv2d,
    ql: &QuantizedLayer,
    codes_in: &[i8],
    batch: usize,
    fuse_relu: bool,
    col8: &mut [i8],
    plane8: &mut [i8],
    acc: &mut [i32],
    dst: QuantDst<'_>,
) -> Result<()> {
    let n = batch * conv.geometry().col_cols();
    let (m, k, kp) = (ql.rows, ql.cols, ql.kp);
    let cols = &mut col8[..k * n];
    let (zp, kept) = (ql.input.zero_point() as i8, ql.kept.iter().copied());
    conv.lowering()?.lower_into(codes_in, batch, zp, kept, plane8, cols)?;
    gemm_i8cols_into(&ql.w, cols, &mut acc[..m * n], m, k, kp, n);
    epilogue_rows(&acc[..m * n], ql, n, fuse_relu, dst);
    Ok(())
}

/// Runs one quantized dense layer over `batch` sample-major input code
/// vectors: widens them into depth-padded i16 rows, runs the transposed GEMM
/// (activations as the left operand, packed weight codes as the transposed
/// right operand) into the `i32` accumulator, then the requantization
/// epilogue into `dst`. Allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn quant_dense_forward(
    ql: &QuantizedLayer,
    codes_in: &[i8],
    in_features: usize,
    batch: usize,
    fuse_relu: bool,
    xs16: &mut [i16],
    acc: &mut [i32],
    dst: QuantDst<'_>,
) {
    let (m, k, kp) = (ql.rows, ql.cols, ql.kp);
    let xs = &mut xs16[..batch * kp];
    for (dst_row, src_row) in xs.chunks_exact_mut(kp).zip(codes_in.chunks_exact(in_features)) {
        // Gather only the kept features (pruned ones multiply zero codes and
        // were packed away from the weight matrix).
        for (d, &feat) in dst_row[..k].iter_mut().zip(&ql.kept) {
            *d = i16::from(src_row[feat]);
        }
        dst_row[k..].fill(0);
    }
    gemm_i16t_into(xs, &ql.w, &mut acc[..batch * m], batch, kp, m);
    epilogue_samples(&acc[..batch * m], ql, m, fuse_relu, dst);
}

/// The activation flowing through the naive reference walk.
enum RefAct {
    /// Real-valued activation.
    F32(Tensor),
    /// Quantized activation: codes, their parameters, and the logical dims.
    Codes(Vec<i8>, QuantParams, Vec<usize>),
}

fn ref_codes_of(act: &RefAct, p: &QuantParams) -> (Vec<i8>, Vec<usize>) {
    match act {
        RefAct::F32(t) => {
            let codes = t.as_slice().iter().map(|&v| p.quantize(v) as i8).collect();
            (codes, t.dims().to_vec())
        }
        RefAct::Codes(codes, params, dims) => {
            debug_assert_eq!(params, p, "chained codes must use the consumer's input params");
            (codes.clone(), dims.clone())
        }
    }
}

fn ref_emit(ql: &QuantizedLayer, raw: Vec<f32>, dims: Vec<usize>) -> Result<RefAct> {
    Ok(match ql.out {
        None => RefAct::F32(Tensor::from_vec(raw, &dims)?),
        Some(p) => RefAct::Codes(raw.iter().map(|&f| p.quantize(f) as i8).collect(), p, dims),
    })
}

fn ref_conv(conv: &Conv2d, ql: &QuantizedLayer, act: &RefAct) -> Result<RefAct> {
    let geom = conv.geometry();
    let (codes, dims) = ref_codes_of(act, &ql.input);
    if dims != [geom.in_channels, geom.in_h, geom.in_w] {
        return Err(NnError::InputShapeMismatch {
            layer: "quant-ref conv2d".into(),
            expected: vec![geom.in_channels, geom.in_h, geom.in_w],
            actual: dims,
        });
    }
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let zp = ql.input.zero_point();
    let mut raw = Vec::with_capacity(ql.rows * out_h * out_w);
    for o in 0..ql.rows {
        let corr = ql.correction(o);
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0i32;
                let mut idx = 0usize;
                for c in 0..geom.in_channels {
                    for ky in 0..geom.kernel {
                        for kx in 0..geom.kernel {
                            let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            let code = if iy >= 0
                                && iy < geom.in_h as isize
                                && ix >= 0
                                && ix < geom.in_w as isize
                            {
                                i32::from(
                                    codes[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize],
                                )
                            } else {
                                zp
                            };
                            acc = acc.wrapping_add(ql.code_at(o, idx).wrapping_mul(code));
                            idx += 1;
                        }
                    }
                }
                raw.push(dequant_acc(acc, corr, ql.combined_scale, ql.bias[o]));
            }
        }
    }
    ref_emit(ql, raw, vec![ql.rows, out_h, out_w])
}

fn ref_dense(dense: &Dense, ql: &QuantizedLayer, act: &RefAct) -> Result<RefAct> {
    let (codes, _) = ref_codes_of(act, &ql.input);
    if codes.len() != dense.in_features() {
        return Err(NnError::InputShapeMismatch {
            layer: "quant-ref dense".into(),
            expected: vec![dense.in_features()],
            actual: vec![codes.len()],
        });
    }
    let mut raw = Vec::with_capacity(ql.rows);
    for o in 0..ql.rows {
        let mut acc = 0i32;
        for (i, &c) in codes.iter().enumerate() {
            acc = acc.wrapping_add(ql.code_at(o, i).wrapping_mul(i32::from(c)));
        }
        raw.push(dequant_acc(acc, ql.correction(o), ql.combined_scale, ql.bias[o]));
    }
    ref_emit(ql, raw, vec![ql.rows])
}

fn ref_run_list(
    layers: &[Layer],
    qlist: &[Option<QuantizedLayer>],
    mut act: RefAct,
) -> Result<RefAct> {
    for (layer, entry) in layers.iter().zip(qlist) {
        act = match (layer, entry) {
            (Layer::Conv2d(conv), Some(ql)) => ref_conv(conv, ql, &act)?,
            (Layer::Dense(dense), Some(ql)) => ref_dense(dense, ql, &act)?,
            (Layer::Relu(relu), _) => match act {
                RefAct::F32(t) => RefAct::F32(relu.forward(&t)?),
                RefAct::Codes(mut codes, p, dims) => {
                    for c in &mut codes {
                        *c = (*c).max(p.zero_point() as i8);
                    }
                    RefAct::Codes(codes, p, dims)
                }
            },
            (Layer::MaxPool2d(pool), _) => match act {
                RefAct::F32(t) => RefAct::F32(pool.forward(&t)?),
                RefAct::Codes(codes, p, dims) => {
                    let d = [dims[0], dims[1], dims[2]];
                    let out_dims = pool.output_dims(&d);
                    let mut out = vec![0i8; out_dims.iter().product()];
                    pool.forward_batch_codes_into(&codes, d, 1, &mut out)?;
                    RefAct::Codes(out, p, out_dims.to_vec())
                }
            },
            (Layer::Flatten(_), _) => match act {
                RefAct::F32(t) => RefAct::F32(t.reshape(&[t.len()])?),
                RefAct::Codes(codes, p, dims) => {
                    let n = dims.iter().product();
                    RefAct::Codes(codes, p, vec![n])
                }
            },
            (other, _) => match act {
                RefAct::F32(t) => RefAct::F32(other.forward(&t)?),
                RefAct::Codes(..) => {
                    return Err(NnError::InvalidSpec(
                        "float layer reached in the code domain (chaining bug)".into(),
                    ))
                }
            },
        };
    }
    Ok(act)
}

/// Naive fake-quant reference of the integer engine: recomputes inference to
/// `exit` with per-element loops, the same packed codes and the same scalar
/// quantization arithmetic as the optimized quantized plans.
///
/// Integer accumulation is associative, so the optimized kernels must return
/// **bit-identical** logits — which the equivalence property tests assert
/// over random policies and batch sizes. This function allocates freely; it
/// exists as a test oracle and a documentation of the exact semantics, not as
/// an execution path.
///
/// # Errors
///
/// Returns [`NnError::InvalidExit`] for an unknown exit or shape errors when
/// `input` does not match the architecture.
pub fn fake_quant_logits(
    net: &MultiExitNetwork,
    model: &QuantizedModel,
    input: &Tensor,
    exit: usize,
) -> Result<Vec<f32>> {
    if exit >= net.num_exits() {
        return Err(NnError::InvalidExit { requested: exit, available: net.num_exits() });
    }
    let mut act = RefAct::F32(input.clone());
    for seg in 0..=exit {
        act = ref_run_list(&net.segments()[seg], model.segment(seg), act)?;
    }
    act = ref_run_list(&net.branches()[exit], model.branch(exit), act)?;
    match act {
        RefAct::F32(t) => Ok(t.as_slice().to_vec()),
        RefAct::Codes(..) => {
            Err(NnError::InvalidSpec("branch ended in the code domain (chaining bug)".into()))
        }
    }
}

/// Derives a [`QuantConfig`] for `net` directly from per-layer bitwidths with
/// max-abs weight scales and caller-provided activation parameters — the
/// plumbing-free construction used by tests and benchmarks that do not run
/// the compression crate's calibrated path.
///
/// `entries` pairs each compressible layer (canonical order) with
/// `Some((weight_bits, input_params))` or `None` to keep it on `f32`.
///
/// # Errors
///
/// Returns [`NnError::InvalidSpec`] when the entry count does not match the
/// network's compressible layers.
pub fn config_from_bits(
    net: &MultiExitNetwork,
    entries: &[Option<(u8, QuantParams)>],
) -> Result<QuantConfig> {
    let expected = net.architecture().compressible_layers().len();
    if entries.len() != expected {
        return Err(NnError::InvalidSpec(format!(
            "{} quant entries for {expected} compressible layers",
            entries.len()
        )));
    }
    let weights = net.compressible_layers().filter_map(Layer::weight);
    let layers = weights.zip(entries).map(|(weights, entry)| {
        entry.map(|(bits, input)| {
            let max_abs = weights.as_slice().iter().fold(0.0f32, |m, &w| m.max(w.abs()));
            let hi = if bits == 1 { 1.0 } else { ((1i64 << (bits - 1)) - 1) as f32 };
            let weight_scale =
                if max_abs > 0.0 { (max_abs / hi).max(f32::MIN_POSITIVE) } else { 1.0 };
            LayerQuantConfig { weight_bits: bits, weight_scale, input }
        })
    });
    Ok(QuantConfig::from_layers(layers.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tiny_multi_exit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> MultiExitNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap()
    }

    fn all_i8_config(net: &MultiExitNetwork) -> QuantConfig {
        let n = net.architecture().compressible_layers().len();
        let act = QuantParams::from_range(0.0, 6.0, 8);
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let entries: Vec<Option<(u8, QuantParams)>> =
            (0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect();
        config_from_bits(net, &entries).unwrap()
    }

    #[test]
    fn model_build_packs_codes_and_chains_within_lists() {
        let net = tiny_net(1);
        let cfg = all_i8_config(&net);
        let model = QuantizedModel::for_network(&net, &cfg).unwrap();
        assert_eq!(model.num_quantized(), cfg.len());
        assert!(!model.is_empty());
        // Branch 1 of the tiny net is Flatten, FC-B21, Relu, FC-B22: the two
        // dense layers are consecutive quantized layers of one list, so the
        // first chains codes into the second and the second emits f32.
        let branch = model.branch(1);
        let quantized: Vec<&QuantizedLayer> = branch.iter().filter_map(|e| e.as_ref()).collect();
        assert_eq!(quantized.len(), 2);
        assert_eq!(quantized[0].out, Some(quantized[1].input));
        assert_eq!(quantized[1].out, None);
        // Trunk segment 0 holds a single conv: it must emit f32 (list end).
        let seg = model.segment(0);
        let conv = seg.iter().find_map(|e| e.as_ref()).unwrap();
        assert_eq!(conv.out, None);
        assert_eq!(conv.kernel, QuantKernel::I8);
        assert_eq!(conv.kp, conv.cols.next_multiple_of(MADD_DEPTH_ALIGN));
        assert_eq!(conv.w.len(), conv.rows * conv.kp);
        assert_eq!(conv.corr.len(), conv.rows);
        let sum0: i32 = conv.w[..conv.kp].iter().map(|&c| i32::from(c)).sum();
        assert_eq!(
            conv.corr[0],
            conv.input.zero_point().wrapping_mul(sum0),
            "depth pads are zero, so they never shift the correction"
        );
    }

    #[test]
    fn model_build_validates_config() {
        let net = tiny_net(2);
        // Wrong length.
        assert!(QuantizedModel::for_network(&net, &QuantConfig::from_layers(vec![None])).is_err());
        // Out-of-range entry (activation codes wider than i8).
        let n = net.architecture().compressible_layers().len();
        let mut layers = vec![None; n];
        layers[0] = Some(LayerQuantConfig {
            weight_bits: 8,
            weight_scale: 0.1,
            input: QuantParams::new(0.1, 0, -300, 300),
        });
        assert!(QuantizedModel::for_network(&net, &QuantConfig::from_layers(layers)).is_err());
        // Invalid weight bits.
        let mut layers = vec![None; n];
        layers[0] = Some(LayerQuantConfig {
            weight_bits: 17,
            weight_scale: 0.1,
            input: QuantParams::from_range(0.0, 1.0, 8),
        });
        assert!(QuantizedModel::for_network(&net, &QuantConfig::from_layers(layers)).is_err());
    }

    #[test]
    fn a_configured_site_without_weights_is_a_spec_error() {
        // A list rebuilt through `segments_mut` can leave a compressible site
        // holding a layer without weights: the builder refuses the config
        // instead of packing another layer, and a refused repack keeps the
        // plan's quantized model.
        let net = tiny_net(5);
        let cfg = all_i8_config(&net);
        let mut plan = net.batch_plan_quantized(&cfg, 2).unwrap();
        let mut rebuilt = net.clone();
        rebuilt.segments_mut()[0][0] = crate::Relu::new().into();
        let refused = |r: Result<()>| matches!(r, Err(NnError::InvalidSpec(_)));
        assert!(refused(QuantizedModel::for_network(&rebuilt, &cfg).map(|_| ())));
        assert!(refused(plan.repack_quantized(&rebuilt, &cfg)));
        assert!(plan.quantized_model().is_some(), "the refused repack kept the model");
    }

    #[test]
    fn kernel_selection_follows_weight_bits() {
        assert_eq!(QuantKernel::for_weight_bits(1), Some(QuantKernel::I8));
        assert_eq!(QuantKernel::for_weight_bits(8), Some(QuantKernel::I8));
        assert_eq!(QuantKernel::for_weight_bits(9), Some(QuantKernel::I16));
        assert_eq!(QuantKernel::for_weight_bits(16), Some(QuantKernel::I16));
        assert_eq!(QuantKernel::for_weight_bits(17), None);
        assert_eq!(QuantKernel::for_weight_bits(32), None);
    }

    #[test]
    fn fake_quant_reference_runs_and_respects_exits() {
        let net = tiny_net(3);
        let cfg = all_i8_config(&net);
        let model = QuantizedModel::for_network(&net, &cfg).unwrap();
        let x = Tensor::ones(&[1, 8, 8]);
        for exit in 0..net.num_exits() {
            let logits = fake_quant_logits(&net, &model, &x, exit).unwrap();
            assert_eq!(logits.len(), 3);
            assert!(logits.iter().all(|l| l.is_finite()));
        }
        assert!(matches!(fake_quant_logits(&net, &model, &x, 9), Err(NnError::InvalidExit { .. })));
    }

    #[test]
    fn a_float_layer_between_two_quantized_layers_breaks_the_code_chain() {
        // lenet branch 1 is ConvB2 → ReLU → Flatten → FC-B21 → ReLU → FC-B22:
        // quantizing ConvB2 and FC-B22 while FC-B21 stays f32 must NOT chain
        // ConvB2's codes across the float dense layer (regression test: the
        // chain used to skip non-quantized parameterised layers, feeding
        // FC-B21 a stale f32 slot in release builds).
        use crate::spec::lenet_multi_exit;
        let mut rng = StdRng::seed_from_u64(7);
        let net = MultiExitNetwork::from_architecture(&lenet_multi_exit(), &mut rng).unwrap();
        let n = net.architecture().compressible_layers().len();
        // Canonical order: Conv1 ConvB1 FC-B1 Conv2 ConvB2 FC-B21 FC-B22 ...
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let mut entries: Vec<Option<(u8, QuantParams)>> = vec![None; n];
        entries[4] = Some((8, act)); // ConvB2
        entries[6] = Some((8, act)); // FC-B22 (FC-B21 stays f32)
        let cfg = config_from_bits(&net, &entries).unwrap();
        let model = QuantizedModel::for_network(&net, &cfg).unwrap();
        let branch = model.branch(1);
        let quantized: Vec<&QuantizedLayer> = branch.iter().filter_map(|e| e.as_ref()).collect();
        assert_eq!(quantized.len(), 2);
        assert_eq!(quantized[0].out, None, "ConvB2 must emit f32 for the float FC-B21");
        assert_eq!(quantized[1].out, None);
        // The engine and the reference agree end to end on that branch.
        let x = Tensor::ones(&[3, 32, 32]);
        let reference = fake_quant_logits(&net, &model, &x, 1).unwrap();
        let mut plan = net.execution_plan_quantized(&cfg).unwrap();
        let out = net.forward_to_exit_batch_with(&mut plan, &[&x], 1).unwrap();
        assert_eq!(out.logits(0), reference.as_slice());
    }

    #[test]
    fn mixed_precision_boundaries_emit_f32() {
        // Quantize only FC-B21 (branch 1's first dense layer): its successor
        // FC-B22 stays f32, so the quantized layer must emit f32.
        let net = tiny_net(4);
        let n = net.architecture().compressible_layers().len();
        let mut entries: Vec<Option<(u8, QuantParams)>> = vec![None; n];
        // Canonical order of tiny: Conv1, FC-B1, Conv2, FC-B21, FC-B22.
        entries[3] = Some((12, QuantParams::from_range(0.0, 4.0, 8)));
        let cfg = config_from_bits(&net, &entries).unwrap();
        let model = QuantizedModel::for_network(&net, &cfg).unwrap();
        assert_eq!(model.num_quantized(), 1);
        let ql = model.branch(1).iter().find_map(|e| e.as_ref()).unwrap();
        assert_eq!(ql.kernel, QuantKernel::I16);
        assert_eq!(ql.out, None);
        let logits = fake_quant_logits(&net, &model, &Tensor::ones(&[1, 8, 8]), 1).unwrap();
        assert_eq!(logits.len(), 3);
    }
}

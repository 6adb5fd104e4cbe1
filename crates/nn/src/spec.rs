//! Architecture descriptions with exact FLOPs and parameter accounting.
//!
//! A [`MultiExitArchitecture`] describes the paper's early-exit network as a
//! *trunk* split into segments plus one *branch* per exit: exit `i` is reached
//! by executing trunk segments `0..=i` followed by branch `i`. This is the
//! structure both the compression search (which needs per-layer FLOPs and
//! weight sizes) and the runtime (which needs per-exit and incremental costs)
//! operate on.
//!
//! FLOPs follow the paper's convention of counting multiply–accumulate
//! operations of convolution and fully-connected layers (activation and
//! pooling costs are negligible and ignored).

use crate::{NnError, Result};

/// The kind of a layer in an architecture description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSpecKind {
    /// 2-D convolution with square kernels.
    Conv {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// ReLU activation.
    Relu,
    /// Non-overlapping max pooling.
    MaxPool {
        /// Window size (and stride).
        size: usize,
    },
    /// Flatten to a vector.
    Flatten,
}

/// A layer in an architecture, together with its resolved input/output shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Human-readable layer name (e.g. `Conv1`, `FC-B21`). Non-parameterised
    /// layers carry an empty name.
    pub name: String,
    /// The layer kind and hyper-parameters.
    pub kind: LayerSpecKind,
    /// Input dimensions (`[C, H, W]` or `[features]`).
    pub input_dims: Vec<usize>,
    /// Output dimensions.
    pub output_dims: Vec<usize>,
}

impl LayerSpec {
    /// Multiply–accumulate operations performed by the layer per inference.
    pub fn macs(&self) -> u64 {
        match &self.kind {
            LayerSpecKind::Conv { in_channels, out_channels, kernel, .. } => {
                let out_spatial: u64 = self.output_dims[1] as u64 * self.output_dims[2] as u64;
                *out_channels as u64 * *in_channels as u64 * (*kernel as u64).pow(2) * out_spatial
            }
            LayerSpecKind::Dense { in_features, out_features } => {
                *in_features as u64 * *out_features as u64
            }
            _ => 0,
        }
    }

    /// FLOPs of the layer (the paper counts MACs, so this equals [`Self::macs`]).
    pub fn flops(&self) -> u64 {
        self.macs()
    }

    /// Number of weight parameters (excluding biases).
    pub fn weight_params(&self) -> u64 {
        match &self.kind {
            LayerSpecKind::Conv { in_channels, out_channels, kernel, .. } => {
                *out_channels as u64 * *in_channels as u64 * (*kernel as u64).pow(2)
            }
            LayerSpecKind::Dense { in_features, out_features } => {
                *in_features as u64 * *out_features as u64
            }
            _ => 0,
        }
    }

    /// Number of bias parameters.
    pub fn bias_params(&self) -> u64 {
        match &self.kind {
            LayerSpecKind::Conv { out_channels, .. } => *out_channels as u64,
            LayerSpecKind::Dense { out_features, .. } => *out_features as u64,
            _ => 0,
        }
    }

    /// Returns `true` when the layer has trainable weights (conv or dense).
    pub fn is_parameterised(&self) -> bool {
        matches!(self.kind, LayerSpecKind::Conv { .. } | LayerSpecKind::Dense { .. })
    }
}

/// A parameterised (prunable / quantizable) layer, in the canonical execution
/// order used by the compression search. Mirrors the observation features of
/// Eq. (9) in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressibleLayer {
    /// Index within the canonical ordering.
    pub index: usize,
    /// Layer name (`Conv1`, `FC-B21`, …).
    pub name: String,
    /// `true` for convolution layers, `false` for fully-connected layers
    /// (the `iconv` feature of the observation).
    pub is_conv: bool,
    /// Input channels (conv) or input features (dense) — `cin`.
    pub in_channels: usize,
    /// Output channels (conv) or output features (dense) — `cout`.
    pub out_channels: usize,
    /// Kernel size (1 for dense layers).
    pub kernel: usize,
    /// MACs of the uncompressed layer.
    pub macs: u64,
    /// Weight parameters of the uncompressed layer.
    pub weight_params: u64,
    /// Where the layer sits: its trunk segment or exit branch, and its
    /// position in that layer list.
    pub site: LayerSite,
}

impl CompressibleLayer {
    /// The shallowest exit whose computation includes this layer.
    pub fn first_exit(&self) -> usize {
        match self.site {
            LayerSite::Trunk { segment, .. } => segment,
            LayerSite::Branch { exit, .. } => exit,
        }
    }

    /// `true` when the layer sits on the shared trunk (and therefore feeds
    /// every exit at or beyond [`Self::first_exit`]); `false` when it belongs
    /// to a single exit's branch.
    pub fn in_trunk(&self) -> bool {
        matches!(self.site, LayerSite::Trunk { .. })
    }

    /// Returns `true` when this layer is executed on the path to `exit`.
    pub fn used_by_exit(&self, exit: usize) -> bool {
        if self.in_trunk() {
            exit >= self.first_exit()
        } else {
            exit == self.first_exit()
        }
    }
}

/// Location of a layer within the trunk/branch structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerSite {
    /// A layer on the shared trunk.
    Trunk {
        /// Trunk segment index.
        segment: usize,
        /// Layer index within the segment.
        layer: usize,
    },
    /// A layer on an exit's private branch.
    Branch {
        /// Exit index the branch belongs to.
        exit: usize,
        /// Layer index within the branch.
        layer: usize,
    },
}

impl LayerSite {
    /// `trunk` for a trunk site and `branch` for a branch site, with the
    /// index of the site's list and its position in that list: how every
    /// structure aligned with the segments and branches is indexed by site.
    pub(crate) fn pick<T>(self, trunk: T, branch: T) -> (T, usize, usize) {
        match self {
            LayerSite::Trunk { segment, layer } => (trunk, segment, layer),
            LayerSite::Branch { exit, layer } => (branch, exit, layer),
        }
    }
}

/// A multi-exit network architecture: trunk segments plus one branch per exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiExitArchitecture {
    input_dims: [usize; 3],
    num_classes: usize,
    segments: Vec<Vec<LayerSpec>>,
    branches: Vec<Vec<LayerSpec>>,
}

impl MultiExitArchitecture {
    /// Input dimensions `[C, H, W]`.
    pub fn input_dims(&self) -> [usize; 3] {
        self.input_dims
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of exits.
    pub fn num_exits(&self) -> usize {
        self.branches.len()
    }

    /// Trunk segments; segment `i` feeds exit `i`'s branch and segment `i+1`.
    pub fn segments(&self) -> &[Vec<LayerSpec>] {
        &self.segments
    }

    /// Exit branches; branch `i` produces the logits of exit `i`.
    pub fn branches(&self) -> &[Vec<LayerSpec>] {
        &self.branches
    }

    /// Cumulative FLOPs to produce the logits of each exit (running trunk
    /// segments `0..=i` and branch `i`).
    pub fn exit_flops(&self) -> Vec<u64> {
        (0..self.num_exits()).map(|i| self.flops_to_exit(i)).collect()
    }

    /// FLOPs to run inference that terminates at `exit`.
    pub fn flops_to_exit(&self, exit: usize) -> u64 {
        let trunk: u64 = self.segments[..=exit.min(self.segments.len() - 1)]
            .iter()
            .flat_map(|s| s.iter().map(LayerSpec::flops))
            .sum();
        let branch: u64 = self.branches[exit].iter().map(LayerSpec::flops).sum();
        trunk + branch
    }

    /// Additional FLOPs needed to continue from `from_exit` to the deeper
    /// `to_exit` (incremental inference re-uses the shared trunk up to
    /// segment `from_exit` but must run the deeper branch from scratch).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NonMonotonicExit`] when `to_exit <= from_exit` and
    /// [`NnError::InvalidExit`] when either exit does not exist.
    pub fn incremental_flops(&self, from_exit: usize, to_exit: usize) -> Result<u64> {
        let n = self.num_exits();
        if from_exit >= n || to_exit >= n {
            return Err(NnError::InvalidExit { requested: from_exit.max(to_exit), available: n });
        }
        if to_exit <= from_exit {
            return Err(NnError::NonMonotonicExit { current: from_exit, requested: to_exit });
        }
        let trunk: u64 = self.segments[from_exit + 1..=to_exit]
            .iter()
            .flat_map(|s| s.iter().map(LayerSpec::flops))
            .sum();
        let branch: u64 = self.branches[to_exit].iter().map(LayerSpec::flops).sum();
        Ok(trunk + branch)
    }

    /// Total weight parameters across trunk and all branches (excluding biases).
    pub fn total_weight_params(&self) -> u64 {
        self.all_layers().map(|l| l.weight_params()).sum()
    }

    /// Total bias parameters.
    pub fn total_bias_params(&self) -> u64 {
        self.all_layers().map(|l| l.bias_params()).sum()
    }

    /// Model size in bytes at the given uniform weight bitwidth.
    pub fn model_size_bytes(&self, bits_per_weight: u32) -> u64 {
        (self.total_weight_params() * bits_per_weight as u64).div_ceil(8)
    }

    /// Iterates over every layer of the architecture (trunk then branches).
    pub fn all_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.segments.iter().flatten().chain(self.branches.iter().flatten())
    }

    /// The parameterised layers in canonical execution order: for each exit
    /// `i`, trunk segment `i` followed by branch `i`. This is the layer-by-
    /// layer order in which the compression agents act, and the one place it
    /// is written on the spec side;
    /// [`crate::MultiExitNetwork::compressible_layers`] walks a network's
    /// layers in the same order.
    pub fn compressible_layers(&self) -> Vec<CompressibleLayer> {
        let mut out = Vec::new();
        for (exit, (segment, branch)) in self.segments.iter().zip(&self.branches).enumerate() {
            let trunk = segment.iter().enumerate();
            let trunk =
                trunk.map(|(layer, spec)| (LayerSite::Trunk { segment: exit, layer }, spec));
            let branch = branch.iter().enumerate();
            let branch = branch.map(|(layer, spec)| (LayerSite::Branch { exit, layer }, spec));
            for (site, spec) in trunk.chain(branch) {
                let (is_conv, in_channels, out_channels, kernel) = match &spec.kind {
                    LayerSpecKind::Conv { in_channels, out_channels, kernel, .. } => {
                        (true, *in_channels, *out_channels, *kernel)
                    }
                    LayerSpecKind::Dense { in_features, out_features } => {
                        (false, *in_features, *out_features, 1)
                    }
                    _ => continue,
                };
                out.push(CompressibleLayer {
                    index: out.len(),
                    name: spec.name.clone(),
                    is_conv,
                    in_channels,
                    out_channels,
                    kernel,
                    macs: spec.macs(),
                    weight_params: spec.weight_params(),
                    site,
                });
            }
        }
        out
    }
}

/// Builder for [`MultiExitArchitecture`].
///
/// Layers are appended to the current trunk segment; calling
/// [`ArchitectureBuilder::begin_branch`] starts collecting layers for the next
/// exit's branch, and [`ArchitectureBuilder::end_exit`] closes it and starts a
/// new trunk segment that continues from where the trunk left off.
#[derive(Debug, Clone)]
pub struct ArchitectureBuilder {
    input_dims: [usize; 3],
    num_classes: usize,
    segments: Vec<Vec<LayerSpec>>,
    branches: Vec<Vec<LayerSpec>>,
    current: Vec<LayerSpec>,
    current_dims: Vec<usize>,
    branch_layers: Option<Vec<LayerSpec>>,
    branch_dims: Vec<usize>,
    error: Option<NnError>,
}

impl ArchitectureBuilder {
    /// Creates a builder for a network over `[C, H, W]` inputs with the given
    /// number of classes.
    pub fn new(input_dims: [usize; 3], num_classes: usize) -> Self {
        ArchitectureBuilder {
            input_dims,
            num_classes,
            segments: Vec::new(),
            branches: Vec::new(),
            current: Vec::new(),
            current_dims: input_dims.to_vec(),
            branch_layers: None,
            branch_dims: Vec::new(),
            error: None,
        }
    }

    fn dims(&self) -> &Vec<usize> {
        if self.branch_layers.is_some() {
            &self.branch_dims
        } else {
            &self.current_dims
        }
    }

    fn push(&mut self, spec: LayerSpec) {
        let out = spec.output_dims.clone();
        if let Some(branch) = &mut self.branch_layers {
            branch.push(spec);
            self.branch_dims = out;
        } else {
            self.current.push(spec);
            self.current_dims = out;
        }
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(NnError::InvalidSpec(msg));
        }
    }

    /// Appends a convolution layer.
    pub fn conv(
        mut self,
        name: &str,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let dims = self.dims().clone();
        if dims.len() != 3 {
            self.fail(format!("conv layer {name} requires a [C, H, W] input, found {dims:?}"));
            return self;
        }
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        if h + 2 * padding < kernel || w + 2 * padding < kernel || stride == 0 {
            self.fail(format!("conv layer {name} has invalid geometry"));
            return self;
        }
        let oh = (h + 2 * padding - kernel) / stride + 1;
        let ow = (w + 2 * padding - kernel) / stride + 1;
        self.push(LayerSpec {
            name: name.to_string(),
            kind: LayerSpecKind::Conv { in_channels: c, out_channels, kernel, stride, padding },
            input_dims: dims,
            output_dims: vec![out_channels, oh, ow],
        });
        self
    }

    /// Appends a ReLU activation.
    pub fn relu(mut self) -> Self {
        let dims = self.dims().clone();
        self.push(LayerSpec {
            name: String::new(),
            kind: LayerSpecKind::Relu,
            input_dims: dims.clone(),
            output_dims: dims,
        });
        self
    }

    /// Appends a non-overlapping max-pool layer.
    pub fn maxpool(mut self, size: usize) -> Self {
        let dims = self.dims().clone();
        if dims.len() != 3
            || size == 0
            || !dims[1].is_multiple_of(size)
            || !dims[2].is_multiple_of(size)
        {
            self.fail(format!("maxpool({size}) incompatible with input {dims:?}"));
            return self;
        }
        self.push(LayerSpec {
            name: String::new(),
            kind: LayerSpecKind::MaxPool { size },
            input_dims: dims.clone(),
            output_dims: vec![dims[0], dims[1] / size, dims[2] / size],
        });
        self
    }

    /// Appends a flatten layer.
    pub fn flatten(mut self) -> Self {
        let dims = self.dims().clone();
        let n: usize = dims.iter().product();
        self.push(LayerSpec {
            name: String::new(),
            kind: LayerSpecKind::Flatten,
            input_dims: dims,
            output_dims: vec![n],
        });
        self
    }

    /// Appends a fully connected layer.
    pub fn dense(mut self, name: &str, out_features: usize) -> Self {
        let dims = self.dims().clone();
        if dims.len() != 1 {
            self.fail(format!("dense layer {name} requires a flat input, found {dims:?}"));
            return self;
        }
        self.push(LayerSpec {
            name: name.to_string(),
            kind: LayerSpecKind::Dense { in_features: dims[0], out_features },
            input_dims: dims,
            output_dims: vec![out_features],
        });
        self
    }

    /// Starts collecting layers for the next exit's branch. Subsequent layer
    /// calls apply to the branch until [`Self::end_exit`] is called.
    pub fn begin_branch(mut self) -> Self {
        if self.branch_layers.is_some() {
            self.fail("begin_branch called while already building a branch".into());
            return self;
        }
        self.branch_layers = Some(Vec::new());
        self.branch_dims = self.current_dims.clone();
        self
    }

    /// Ends the current branch, registering it as the next exit, and starts a
    /// new trunk segment.
    pub fn end_exit(mut self) -> Self {
        match self.branch_layers.take() {
            Some(branch) => {
                if branch.last().map(|l| l.output_dims.as_slice()) != Some(&[self.num_classes][..])
                {
                    self.fail(format!(
                        "exit {} branch must end with {} logits",
                        self.branches.len(),
                        self.num_classes
                    ));
                }
                self.segments.push(std::mem::take(&mut self.current));
                self.branches.push(branch);
            }
            None => self.fail("end_exit called without begin_branch".into()),
        }
        self
    }

    /// Finishes the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when any layer was inconsistent with
    /// its input shape, when no exits were defined, or when a branch was left
    /// open.
    pub fn build(self) -> Result<MultiExitArchitecture> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.branch_layers.is_some() {
            return Err(NnError::InvalidSpec("unterminated branch at build time".into()));
        }
        if self.branches.is_empty() {
            return Err(NnError::InvalidSpec("architecture has no exits".into()));
        }
        if !self.current.is_empty() {
            return Err(NnError::InvalidSpec(
                "trailing trunk layers after the final exit are unreachable".into(),
            ));
        }
        Ok(MultiExitArchitecture {
            input_dims: self.input_dims,
            num_classes: self.num_classes,
            segments: self.segments,
            branches: self.branches,
        })
    }
}

/// The paper's multi-exit LeNet backbone for 32×32 RGB inputs (CIFAR-10
/// scale): four trunk convolutions with two early-exit branches, eleven
/// parameterised layers named as in Fig. 4
/// (`Conv1, ConvB1, Conv2, ConvB2, Conv3, Conv4, FC-B1, FC-B21, FC-B22,
/// FC-B31, FC-B32`).
///
/// Channel counts are chosen so that the uncompressed per-exit FLOPs
/// (≈0.46 M / 1.19 M / 1.56 M) and the ≈0.7 MB fp32 weight size closely track
/// the figures reported in Section V-A of the paper (0.4452 M / 1.2602 M /
/// 1.6202 M FLOPs, 580 KB).
pub fn lenet_multi_exit() -> MultiExitArchitecture {
    ArchitectureBuilder::new([3, 32, 32], 10)
        // Trunk segment 0
        .conv("Conv1", 16, 5, 2, 2)
        .relu()
        .maxpool(2)
        // Exit 1 branch
        .begin_branch()
        .conv("ConvB1", 16, 3, 1, 1)
        .relu()
        .flatten()
        .dense("FC-B1", 10)
        .end_exit()
        // Trunk segment 1
        .conv("Conv2", 24, 5, 1, 2)
        .relu()
        .maxpool(2)
        // Exit 2 branch
        .begin_branch()
        .conv("ConvB2", 24, 5, 1, 2)
        .relu()
        .flatten()
        .dense("FC-B21", 96)
        .relu()
        .dense("FC-B22", 10)
        .end_exit()
        // Trunk segment 2
        .conv("Conv3", 40, 5, 1, 2)
        .relu()
        .conv("Conv4", 32, 3, 1, 1)
        .relu()
        // Exit 3 (final) branch
        .begin_branch()
        .flatten()
        .dense("FC-B31", 128)
        .relu()
        .dense("FC-B32", 10)
        .end_exit()
        .build()
        .expect("the built-in backbone is a valid architecture")
}

/// A tiny two-exit architecture over 8×8 single-channel inputs, used by unit
/// tests and the synthetic end-to-end training example.
pub fn tiny_multi_exit(num_classes: usize) -> MultiExitArchitecture {
    ArchitectureBuilder::new([1, 8, 8], num_classes)
        .conv("Conv1", 4, 3, 1, 1)
        .relu()
        .maxpool(2)
        .begin_branch()
        .flatten()
        .dense("FC-B1", num_classes)
        .end_exit()
        .conv("Conv2", 8, 3, 1, 1)
        .relu()
        .maxpool(2)
        .begin_branch()
        .flatten()
        .dense("FC-B21", 16)
        .relu()
        .dense("FC-B22", num_classes)
        .end_exit()
        .build()
        .expect("the built-in tiny architecture is a valid architecture")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_backbone_has_eleven_parameterised_layers() {
        let arch = lenet_multi_exit();
        let names: Vec<String> = arch.compressible_layers().into_iter().map(|l| l.name).collect();
        assert_eq!(
            names,
            vec![
                "Conv1", "ConvB1", "FC-B1", "Conv2", "ConvB2", "FC-B21", "FC-B22", "Conv3",
                "Conv4", "FC-B31", "FC-B32"
            ]
        );
    }

    #[test]
    fn lenet_exit_flops_track_the_paper() {
        let arch = lenet_multi_exit();
        let flops = arch.exit_flops();
        assert_eq!(flops.len(), 3);
        // Paper: 0.4452 M, 1.2602 M, 1.6202 M. Our channel choices land within ~20 %.
        assert!((0.35e6..0.55e6).contains(&(flops[0] as f64)), "exit1 {}", flops[0]);
        assert!((1.0e6..1.45e6).contains(&(flops[1] as f64)), "exit2 {}", flops[1]);
        assert!((1.35e6..1.85e6).contains(&(flops[2] as f64)), "exit3 {}", flops[2]);
        assert!(flops[0] < flops[1] && flops[1] < flops[2]);
    }

    #[test]
    fn lenet_weight_size_is_mcu_hostile_at_fp32() {
        let arch = lenet_multi_exit();
        let bytes = arch.model_size_bytes(32);
        // Paper reports 580 KB for the fp32 model; ours is the same order of magnitude
        // and far beyond a 16 KB MCU budget, which is what motivates compression.
        assert!(bytes > 400_000 && bytes < 1_000_000, "fp32 size {bytes}");
    }

    #[test]
    fn incremental_flops_are_cheaper_than_from_scratch() {
        let arch = lenet_multi_exit();
        let inc = arch.incremental_flops(0, 1).unwrap();
        let full = arch.flops_to_exit(1);
        assert!(inc < full);
        // Incremental work plus the shared trunk equals at least the deeper exit's cost.
        assert!(inc + arch.flops_to_exit(0) >= full);
        assert!(arch.incremental_flops(1, 1).is_err());
        assert!(arch.incremental_flops(2, 1).is_err());
        assert!(arch.incremental_flops(0, 9).is_err());
    }

    #[test]
    fn compressible_layers_report_first_exit() {
        let arch = lenet_multi_exit();
        let layers = arch.compressible_layers();
        let conv1 = layers.iter().find(|l| l.name == "Conv1").unwrap();
        let fcb31 = layers.iter().find(|l| l.name == "FC-B31").unwrap();
        assert_eq!(conv1.first_exit(), 0);
        assert_eq!(fcb31.first_exit(), 2);
        assert!(conv1.is_conv);
        assert!(!fcb31.is_conv);
        // Conv1 sits on the trunk and therefore feeds every exit; FC-B1 is
        // private to exit 0.
        let fcb1 = layers.iter().find(|l| l.name == "FC-B1").unwrap();
        assert!(conv1.in_trunk() && conv1.used_by_exit(2));
        assert!(!fcb1.in_trunk() && fcb1.used_by_exit(0) && !fcb1.used_by_exit(1));
    }

    #[test]
    fn fc_b21_and_fc_b31_dominate_weight_size() {
        // The paper notes these two layers carry the most weights, which is why
        // the quantization agent drives them to 1 bit.
        let arch = lenet_multi_exit();
        let layers = arch.compressible_layers();
        let mut sizes: Vec<(&str, u64)> =
            layers.iter().map(|l| (l.name.as_str(), l.weight_params)).collect();
        sizes.sort_by_key(|(_, s)| std::cmp::Reverse(*s));
        let top2: Vec<&str> = sizes.iter().take(2).map(|(n, _)| *n).collect();
        assert!(top2.contains(&"FC-B31"));
        assert!(top2.contains(&"FC-B21"));
    }

    #[test]
    fn builder_rejects_inconsistent_specs() {
        // Dense layer directly on a [C, H, W] input.
        let bad = ArchitectureBuilder::new([1, 8, 8], 2).dense("fc", 2);
        assert!(bad.build().is_err());
        // Branch not ending in the class count.
        let bad = ArchitectureBuilder::new([1, 8, 8], 2)
            .conv("c", 2, 3, 1, 1)
            .begin_branch()
            .flatten()
            .dense("fc", 5)
            .end_exit();
        assert!(bad.build().is_err());
        // No exits at all.
        assert!(ArchitectureBuilder::new([1, 8, 8], 2).conv("c", 2, 3, 1, 1).build().is_err());
        // Unterminated branch.
        assert!(ArchitectureBuilder::new([1, 8, 8], 2)
            .conv("c", 2, 3, 1, 1)
            .begin_branch()
            .build()
            .is_err());
        // Trailing trunk layers.
        assert!(ArchitectureBuilder::new([1, 8, 8], 2)
            .conv("c", 2, 3, 1, 1)
            .begin_branch()
            .flatten()
            .dense("fc", 2)
            .end_exit()
            .conv("tail", 2, 3, 1, 1)
            .build()
            .is_err());
        // Maxpool on a non-divisible input.
        let bad = ArchitectureBuilder::new([1, 7, 7], 2).maxpool(2);
        assert!(bad.build().is_err());
    }

    #[test]
    fn tiny_architecture_is_consistent() {
        let arch = tiny_multi_exit(4);
        assert_eq!(arch.num_exits(), 2);
        assert_eq!(arch.num_classes(), 4);
        assert!(arch.exit_flops()[0] < arch.exit_flops()[1]);
    }

    #[test]
    fn layer_spec_accounting_matches_hand_computation() {
        let arch = lenet_multi_exit();
        let conv1 = &arch.segments()[0][0];
        // Conv1: 16 out-channels, 3 in-channels, 5x5 kernel, 16x16 output.
        assert_eq!(conv1.macs(), 16 * 3 * 25 * 16 * 16);
        assert_eq!(conv1.weight_params(), 16 * 3 * 25);
        assert_eq!(conv1.bias_params(), 16);
    }
}

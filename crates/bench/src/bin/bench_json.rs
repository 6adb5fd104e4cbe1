//! Machine-readable inference micro-benchmark seeding the perf trajectory.
//!
//! ```text
//! cargo run --release -p ie_bench --bin bench_json                 # full run
//! cargo run --release -p ie_bench --bin bench_json -- --fast       # CI smoke
//! cargo run --release -p ie_bench --bin bench_json -- \
//!     --fast --out /tmp/smoke.json --check BENCH_inference.json    # CI gate
//! ```
//!
//! Benchmarks the forward-path implementations on the paper's LeNet backbone
//! **in the same binary**:
//!
//! * `pre_pr_allocating` — a faithful replica of the pre-planning forward
//!   path: per-layer output allocation, fresh `im2col` matrix, weight
//!   reshape/copy, the branchy zero-skip GEMM, separate bias and ReLU passes;
//! * `allocating` — the current `MultiExitNetwork::forward_to_exit` (thin
//!   wrappers over the blocked `_into` kernels, still allocating per layer);
//! * `planned` — `forward_to_exit_with` over a reusable single-input plan, the
//!   planned executor (`BatchPlan`) holding a batch of one (zero allocations
//!   after warm-up, fused bias+ReLU epilogues);
//! * `batch_forward/*` — `forward_to_exit_batch_with` over an 8-sample
//!   `BatchPlan` (one widened GEMM per layer), reported as ns/sample against
//!   the batch-of-one `planned` pass;
//! * `quant_forward/*` — the i8-dominant compression policy executed through
//!   the integer engine (quantized plans: i8 GEMM + requantization
//!   epilogues) vs the same policy on the fake-quant f32 planned path;
//! * `policy_eval_loop` — whole-policy scoring through `PolicyEvaluator`
//!   (an empirical estimator over a calibration set), single-input vs the
//!   batched sharded evaluator;
//! * `search_loop` — one full `CompressionEnv::evaluate` step (profile +
//!   event-loop simulation + rewards), nearly all of it the
//!   `EventLoopSimulator` replay of `small_test`. The gate normalizes it
//!   against `policy_eval_loop`'s single-input empirical evaluation
//!   (`reference_eval_ns`), which the step never runs; the bare profile
//!   evaluation the step wraps (`profile_eval_ns`) is recorded for context;
//! * `simd_kernels/*` — each runtime-dispatched kernel (softmax, max-pool,
//!   activation quantize, the quantized convolution's register-tiled i8
//!   column GEMM) timed on the
//!   active ISA tier against its own portable tier, after a bit-identity
//!   assertion (the JSON records the active tier in `isa_tier`);
//! * `sim_loop` — the `EventLoopSimulator` wake-window trace replay,
//!   unbatched and with an 8-event window;
//! * `checkpoint_loop` — the intermittent executor's reboot-and-recover path
//!   (`ie_mcu`): one full task-graph execution under a seeded random fault
//!   plan (power cuts between and inside tasks plus torn checkpoint writes)
//!   against the fault-free execution of the same graph, with recovery
//!   asserted bit-identical (output digest) before anything is timed;
//! * `serve_loop` — the open-loop serving path (`ie_serve`): a fixed request
//!   stream replayed through admission control and the dynamic batching
//!   window at 1 and 4 workers, reported as ns/request plus the p50/p99
//!   latency and throughput of the queueing model;
//! * `overload_loop` — the same serving path at 2× saturation behind a
//!   bounded queue, replayed once under `ShedPolicy::Degrade` and once under
//!   `ShedPolicy::Reject`: the degrade replay is gated against the reject
//!   replay of the same run (both plan the same stream; degradation must not
//!   cost more than flat shedding), and the served/goodput counts of each
//!   policy are recorded so the throughput trade is visible in the JSON;
//! * `fleet_loop` — the fleet-scale intermittent loop (`ie_core::fleet`): a
//!   mixed device population advanced end to end, reported as ns/device-step
//!   for the sequential streaming loop, the 1-worker fleet and the 4-worker
//!   fleet, with byte-identical aggregates asserted across worker counts
//!   before anything is timed.
//!
//! Writes `BENCH_inference.json` (median ns/op per case, with the run `mode`
//! and actual timed sample count recorded) into the current directory and
//! prints a summary table. With `--check <baseline.json>` the freshly
//! measured numbers are compared against the committed baseline and the
//! process exits nonzero when any gated metric regresses by more than 15 % —
//! the CI perf-regression gate — printing the per-case baseline→current
//! numbers for every confirmed regression. All forward paths are checked to produce the
//! same prediction before anything is timed.

use ie_compress::apply::{apply_policy, apply_policy_quantized};
use ie_compress::{
    CalibratedAccuracyModel, CompressionPolicy, EmpiricalAccuracyEstimator, PolicyEvaluator,
};
use ie_core::fleet::FleetAccumulator;
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig, FleetConfig, FleetSimulator};
use ie_mcu::{FaultPlan, IntermittentExecutor, McuDevice, NonvolatileMemory, TaskGraph};
use ie_nn::dataset::{Sample, SyntheticDataset};
use ie_nn::loss::{confidence, softmax};
use ie_nn::quant::{fake_quant_logits, QuantizedModel};
use ie_nn::spec::{lenet_multi_exit, tiny_multi_exit};
use ie_nn::train::{BatchBackwardPlan, BatchPlanPool};
use ie_nn::{Conv2d, Dense, Layer, MultiExitNetwork};
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_search::{CompressionEnv, RewardMode};
use ie_serve::{OverloadConfig, Request, ServeConfig, Server, ShedPolicy, WindowConfig};
use ie_tensor::dispatch::IsaTier;
use ie_tensor::{dispatch, tiered, Conv2dGeometry, QuantParams, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Verbatim copy of the pre-planning `im2col` (fresh allocation plus the
/// per-element padding branch), kept here so the baseline measures the real
/// pre-PR code, not today's hoisted-bounds implementation.
fn pre_pr_im2col(input: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let k = geom.kernel;
    let cols = out_h * out_w;
    let rows = geom.in_channels * k * k;
    let mut out = vec![0.0f32; rows * cols];
    let data = input.as_slice();
    for c in 0..geom.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        let col = oy * out_w + ox;
                        let value = if iy >= 0
                            && iy < geom.in_h as isize
                            && ix >= 0
                            && ix < geom.in_w as isize
                        {
                            data[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize]
                        } else {
                            0.0
                        };
                        out[row * cols + col] = value;
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("bench shapes are valid")
}

/// Copy of the pre-planning zero-skip GEMM: `A·B` into a fresh buffer,
/// skipping every `B` row whose `A` element is exactly zero.
fn pre_pr_zero_skip_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Replica of the pre-planning convolution forward: `im2col` allocation,
/// weight reshape (a full copy), the zero-skip GEMM, an output reshape
/// (another copy) and a separate bias pass.
fn pre_pr_conv_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
    let geom = conv.geometry();
    let k = geom.kernel;
    let cols = pre_pr_im2col(input, geom);
    let wmat = conv
        .weight()
        .reshape(&[conv.out_channels(), geom.in_channels * k * k])
        .expect("bench shapes are valid");
    let (m, depth, n) = (conv.out_channels(), geom.in_channels * k * k, cols.dims()[1]);
    let out = pre_pr_zero_skip_gemm(wmat.as_slice(), cols.as_slice(), m, depth, n);
    let out = Tensor::from_vec(out, &[m, n]).expect("bench shapes are valid");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = out.reshape(&[conv.out_channels(), oh, ow]).expect("bench shapes are valid");
    let plane = oh * ow;
    let data = out.as_mut_slice();
    for c in 0..conv.out_channels() {
        let b = conv.bias().as_slice()[c];
        for v in &mut data[c * plane..(c + 1) * plane] {
            *v += b;
        }
    }
    out
}

/// Verbatim copy of the pre-planning `matvec` (allocating, strictly
/// sequential per-row sum — the form LLVM cannot vectorise).
fn pre_pr_matvec(weight: &Tensor, x: &Tensor) -> Tensor {
    let (m, k) = (weight.dims()[0], weight.dims()[1]);
    let a = weight.as_slice();
    let xs = x.as_slice();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        let row = &a[i * k..(i + 1) * k];
        *o = row.iter().zip(xs).map(|(&w, &v)| w * v).sum();
    }
    Tensor::from_vec(out, &[m]).expect("bench shapes are valid")
}

/// Replica of the pre-planning dense forward: input reshape (copy), allocating
/// sequential matvec, separate bias pass.
fn pre_pr_dense_forward(dense: &Dense, input: &Tensor) -> Tensor {
    let flat = input.reshape(&[dense.in_features()]).expect("bench shapes are valid");
    let mut y = pre_pr_matvec(dense.weight(), &flat);
    y.add_scaled_inplace(dense.bias(), 1.0).expect("bench shapes are valid");
    y
}

fn pre_pr_run_layers(layers: &[Layer], input: &Tensor) -> Tensor {
    let mut x = input.clone();
    for layer in layers {
        x = match layer {
            Layer::Conv2d(conv) => pre_pr_conv_forward(conv, &x),
            Layer::Dense(dense) => pre_pr_dense_forward(dense, &x),
            other => other.forward(&x).expect("bench shapes are valid"),
        };
    }
    x
}

/// Replica of the pre-planning `forward_to_exit`, including the softmax /
/// confidence tensor chain of `ExitOutput`.
fn pre_pr_forward_to_exit(net: &MultiExitNetwork, input: &Tensor, exit: usize) -> (usize, f32) {
    let mut trunk = input.clone();
    for segment in &net.segments()[..=exit] {
        trunk = pre_pr_run_layers(segment, &trunk);
    }
    let logits = pre_pr_run_layers(&net.branches()[exit], &trunk);
    let probs = softmax(&logits).expect("bench shapes are valid");
    let prediction = probs.argmax().expect("non-empty logits");
    (prediction, confidence(&probs))
}

/// Median wall-clock nanoseconds of `f` over `samples` timed invocations
/// (after `warmup` untimed ones).
fn median_ns<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Minimum wall-clock nanoseconds of `f` over `samples` timed invocations —
/// the noise-robust statistic for micro-scale cases, where scheduler
/// interference is strictly one-sided and the minimum is the closest
/// observation to the true cost.
fn min_ns<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> u64 {
    for _ in 0..warmup {
        f();
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one timed sample")
}

struct CaseResult {
    case: String,
    pre_pr_ns: u64,
    allocating_ns: u64,
    planned_ns: u64,
}

impl CaseResult {
    fn speedup_vs_pre_pr(&self) -> f64 {
        self.pre_pr_ns as f64 / self.planned_ns.max(1) as f64
    }
}

struct BatchCaseResult {
    case: String,
    batch: usize,
    /// Timing statistic of this case ("median", or "min" for micro-scale
    /// cases where one-sided scheduler noise would swamp a median).
    statistic: &'static str,
    planned_single_ns: u64,
    batched_ns_per_sample: u64,
}

impl BatchCaseResult {
    fn speedup_vs_planned(&self) -> f64 {
        self.planned_single_ns as f64 / self.batched_ns_per_sample.max(1) as f64
    }
}

/// The training step: the legacy allocating `MultiExitNetwork::backward`
/// against the planned zero-alloc path — `backward_with` for the single-step
/// case, the single-threaded `BatchBackwardPlan::train_step` for batch-8
/// (ns/sample). `traffic_bytes_per_op` is the plan's analytic working-set
/// traffic per step (`BackwardPlan::traffic_bytes`, a deliberate lower
/// bound), so the ROADMAP's bandwidth story is recorded as numbers in the
/// JSON instead of guessed.
struct TrainStepResult {
    case: String,
    /// ns per step through the legacy allocating backward (the same-run
    /// machine-speed reference of the gate).
    legacy_ns: u64,
    /// ns per step through the planned path (the gated metric).
    planned_ns: u64,
    /// Analytic bytes moved per planned step (lower bound).
    traffic_bytes_per_op: u64,
}

impl TrainStepResult {
    fn speedup(&self) -> f64 {
        self.legacy_ns as f64 / self.planned_ns.max(1) as f64
    }

    /// Effective bandwidth of the planned step (bytes/ns == GB/s).
    fn effective_gbps(&self) -> f64 {
        self.traffic_bytes_per_op as f64 / self.planned_ns.max(1) as f64
    }
}

struct PolicyEvalResult {
    case: String,
    single_eval_ns: u64,
    batched_eval_ns: u64,
}

impl PolicyEvalResult {
    fn speedup(&self) -> f64 {
        self.single_eval_ns as f64 / self.batched_eval_ns.max(1) as f64
    }
}

struct QuantCaseResult {
    case: String,
    /// The same policy executed on the fake-quant f32 planned path (the
    /// same-run machine-speed reference of the gate).
    fake_quant_f32_ns: u64,
    /// The integer engine (i8 GEMM + requantization epilogues).
    quantized_ns: u64,
}

impl QuantCaseResult {
    fn speedup(&self) -> f64 {
        self.fake_quant_f32_ns as f64 / self.quantized_ns.max(1) as f64
    }
}

/// One dispatched kernel benchmarked against its own portable tier in the
/// same process — the per-kernel visibility of the SIMD sweep. The portable
/// measurement doubles as the same-run machine-speed reference of the gate.
struct SimdKernelResult {
    case: String,
    /// The kernel pinned to the Portable tier.
    portable_ns: u64,
    /// The kernel on the active (auto-dispatched) tier.
    dispatched_ns: u64,
}

impl SimdKernelResult {
    fn speedup(&self) -> f64 {
        self.portable_ns as f64 / self.dispatched_ns.max(1) as f64
    }
}

/// The `EventLoopSimulator` wake-window loop: one full event-trace replay,
/// unbatched (window 1) and with an 8-event wake window. The unbatched run is
/// the same-run reference of the gate (both replay identical events).
struct SimLoopResult {
    case: String,
    run_ns: u64,
    run_batched8_ns: u64,
}

/// The intermittent executor's reboot-and-recover loop: one full task-graph
/// execution under a seeded random fault plan (injected power cuts plus torn
/// checkpoint writes) against the fault-free execution of the same graph in
/// the same run — the machine-speed reference of the gate. The cut schedule
/// is deterministic per seed, so the recovery/fault-free ratio measures the
/// checkpoint + recovery machinery, not schedule luck.
struct CheckpointLoopResult {
    case: String,
    /// ns per fault-free execution (the same-run reference).
    fault_free_ns: u64,
    /// ns per execution under the fault plan (the gated metric).
    recovery_ns: u64,
    /// Recovery work of one faulty execution (reported for context).
    recovered_boots: u64,
    torn_writes: u64,
}

impl CheckpointLoopResult {
    fn overhead(&self) -> f64 {
        self.recovery_ns as f64 / self.fault_free_ns.max(1) as f64
    }
}

/// The open-loop serving path: a fixed request stream replayed end to end
/// (admission + window composition + batched inference + response merge).
/// `planned_single_ns` — the admitted requests run one at a time through the
/// single-input planned path — is the same-run machine-speed reference of
/// the gate; the 4-worker numbers and the queueing-model latency/throughput
/// are reported, not gated (CI core counts vary).
struct ServeLoopResult {
    case: String,
    requests: usize,
    served: usize,
    /// ns per request: single-input planned loop over the admitted set.
    planned_single_ns: u64,
    /// ns per request: full replay with 1 worker (the gated metric).
    serve1_ns: u64,
    /// ns per request: full replay with 4 workers (reported only).
    serve4_ns: u64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    throughput_rps: u64,
}

/// The overloaded serving path: the 2×-saturation stream replayed behind a
/// bounded queue, once degrading exits under pressure and once flat-shedding.
/// Both replays plan the identical stream in the same run, so the gated
/// degrade/reject ratio measures the pressure-mapping machinery itself —
/// degradation must not cost more than turning requests away. The per-policy
/// served and deadline-met counts are deterministic fixture facts, recorded
/// so the throughput trade (degrade serves more, shallower) stays visible.
struct OverloadLoopResult {
    case: String,
    requests: usize,
    /// ns per request: bounded-queue replay under `ShedPolicy::Degrade`
    /// with 1 worker (the gated metric).
    degrade1_ns: u64,
    /// ns per request: the same replay under `ShedPolicy::Reject` (the
    /// same-run reference).
    reject1_ns: u64,
    degrade_served: usize,
    reject_served: usize,
    degrade_deadline_met: usize,
    reject_deadline_met: usize,
    degraded: usize,
    shed_reject: usize,
}

/// The fleet-scale intermittent loop (`ie_core::fleet`): a mixed population
/// of devices advanced end to end. The same devices streamed sequentially
/// through `simulate_device_into` — no worker scope — are the same-run
/// machine-speed reference of the gate, so the gated ratio is the
/// shard/spawn/merge overhead of the 1-worker fleet (≈1). The multi-worker
/// replay is reported, not gated (runner core counts vary).
struct FleetLoopResult {
    case: String,
    devices: u64,
    device_steps: u64,
    /// ns per device-step: sequential streaming loop (the reference).
    sequential_ns: u64,
    /// ns per device-step: `FleetSimulator::run` with 1 worker (gated).
    fleet1_ns: u64,
    /// ns per device-step: `FleetSimulator::run` with 4 workers (reported).
    fleet4_ns: u64,
}

struct SearchLoopResult {
    case: String,
    /// Bare cost/accuracy profile evaluation through the analytic evaluator
    /// (printed for context; too small to normalize against).
    profile_eval_ns: u64,
    /// The same-run machine-speed reference of the gate: the single-input
    /// empirical policy evaluation (`policy_eval_loop`'s `single_eval_ns`),
    /// a stable millisecond-scale measurement.
    reference_eval_ns: u64,
    /// One full search-loop step: snapped policy → profile → deployed-model
    /// simulation → rewards (`CompressionEnv::evaluate`).
    env_eval_ns: u64,
}

/// Extracts the numeric value of `key` inside the JSON object whose
/// `"case"` equals `case`. A deliberately narrow parser for the flat JSON
/// this binary itself emits — enough for the regression gate without a JSON
/// dependency.
fn case_metric(json: &str, case: &str, key: &str) -> Option<f64> {
    let case_pos = json.find(&format!("\"case\": \"{case}\""))?;
    let object = &json[case_pos..case_pos + json[case_pos..].find('}')?];
    let key_pos = object.find(&format!("\"{key}\":"))?;
    let value = object[key_pos..].split(':').nth(1)?;
    value
        .trim()
        .trim_end_matches(',')
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect::<String>()
        .parse()
        .ok()
}

/// Extracts the `isa_tier` the baseline JSON was measured on, if recorded.
fn baseline_isa_tier(json: &str) -> Option<String> {
    let pos = json.find("\"isa_tier\": \"")?;
    let start = pos + "\"isa_tier\": \"".len();
    let end = start + json[start..].find('"')?;
    Some(json[start..end].to_string())
}

/// One gated metric of the regression check: an absolute ns value plus the
/// same-run reference measurement that normalizes machine speed.
struct GatedMetric {
    case: String,
    /// Field in the baseline JSON holding the gated absolute ns.
    key: &'static str,
    current: u64,
    /// Field in the baseline JSON holding the same-run reference ns (a path
    /// measured by the same binary in the same process, e.g. the pre-PR
    /// replica), so baseline and current runs each carry their own
    /// machine-speed canary.
    ref_key: &'static str,
    current_ref: u64,
    /// Metrics whose gated/reference ratio depends on the **ISA tier** the
    /// binary dispatched to (the `simd_kernels/*` cases compare the active
    /// tier against the portable one; the quantized cases gain a VNNI boost
    /// their f32 reference does not). Such ratios are only comparable when
    /// the baseline was recorded on the same tier; on a different machine
    /// class the gate skips them instead of failing deterministically.
    tier_sensitive: bool,
}

/// Everything the gate knows about one confirmed regression — kept so the
/// failure report can print the old/new numbers per case instead of bare
/// metric names (which used to force a manual diff of the JSON files).
struct Regression {
    /// Stable id `case/key`, intersected across confirmation re-runs.
    id: String,
    /// Baseline absolute ns from the committed JSON.
    baseline_ns: f64,
    /// Freshly measured absolute ns (of the most recent confirmation run).
    current_ns: u64,
    /// `(baseline, current)` reference ratios when both sides carry one.
    ratios: Option<(f64, f64)>,
}

/// Compares the gated metrics of the fresh run against a committed baseline
/// JSON, printing one verdict line per metric. The verdict is the **ratio to
/// the same-run reference**: the baseline may have been recorded on faster
/// or slower hardware, where every absolute number shifts together but the
/// in-binary ratios stay put, so gating the ratio neither fakes a regression
/// on a slow runner nor masks one on a fast runner — a real code regression
/// moves the gated path but not its (unchanged) reference. The absolute ns
/// are printed for context and decide alone only when a reference
/// measurement is missing on either side. The blind spot — a change slowing
/// the gated path and its reference by the same factor — is accepted; for
/// the planned cases the reference is the frozen pre-PR replica, which new
/// code does not touch. Returns the regressed metrics with their old/new
/// numbers, so callers can intersect the sets across confirmation re-runs
/// and print a self-contained failure report.
fn check_against_baseline(
    baseline: &str,
    metrics: &[GatedMetric],
    tolerance: f64,
) -> Vec<Regression> {
    // Tier-sensitive ratios are only meaningful against a baseline measured
    // on the same ISA tier (e.g. a VNNI-recorded conv-GEMM ratio can never be
    // reproduced by an AVX2-only runner, and would fail the gate on every
    // confirmation attempt with zero code change).
    let current_tier = dispatch::active().name();
    let baseline_tier = baseline_isa_tier(baseline);
    let tier_matches = baseline_tier.as_deref() == Some(current_tier);
    let mut regressions = Vec::new();
    for m in metrics {
        let (case, key, current) = (&m.case, m.key, m.current);
        if m.tier_sensitive && !tier_matches {
            // The baseline's ratio was measured on a different tier, so it is
            // not reproducible here — but the *same-run* ratio still carries
            // a hardware-independent invariant: the dispatched path must not
            // be slower than its own reference (the portable tier for the
            // simd_kernels cases, the fake-quant f32 path for the quantized
            // ones) by more than the tolerance. That floor catches
            // catastrophic SIMD regressions on every runner class without
            // ever false-failing on slower machines.
            let current_ratio = current as f64 / m.current_ref.max(1) as f64;
            let regressed = current_ratio > tolerance;
            println!(
                "check: {case}/{key}: baseline tier ({}) differs from this machine's \
                 ({current_tier}); same-run ratio floor decides: {current_ratio:.3} vs {tolerance} \
                 {}",
                baseline_tier.as_deref().unwrap_or("unrecorded"),
                if regressed { "REGRESSED" } else { "ok" }
            );
            if regressed {
                regressions.push(Regression {
                    id: format!("{case}/{key}"),
                    baseline_ns: m.current_ref as f64,
                    current_ns: current,
                    ratios: Some((1.0, current_ratio)),
                });
            }
            continue;
        }
        let Some(base) = case_metric(baseline, case, key) else {
            // Newly added cases are not gated until the baseline records them.
            println!("check: {case}/{key} not in baseline, skipping");
            continue;
        };
        let abs_limit = base * tolerance;
        let abs_regressed = (current as f64) > abs_limit;
        let ratios = match case_metric(baseline, case, m.ref_key) {
            Some(base_ref) if base_ref > 0.0 && m.current_ref > 0 => {
                Some((base / base_ref, current as f64 / m.current_ref as f64))
            }
            _ => None,
        };
        let (regressed, ratio_note) = match ratios {
            Some((base_ratio, current_ratio)) => (
                current_ratio > base_ratio * tolerance,
                format!("ratio {current_ratio:.3} vs baseline {base_ratio:.3}"),
            ),
            None => (abs_regressed, "no reference, absolute decides".to_string()),
        };
        println!(
            "check: {case}/{key}: current {current} vs baseline {base:.0} (abs limit \
             {abs_limit:.0}), {ratio_note} {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(Regression {
                id: format!("{case}/{key}"),
                baseline_ns: base,
                current_ns: current,
                ratios,
            });
        }
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_inference.json".to_string());
    let check_path =
        args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1).cloned());
    let mode = if fast { "fast" } else { "full" };
    let (warmup, samples) = if fast { (2, 9) } else { (5, 41) };
    // Whole-policy scoring is orders of magnitude slower per op than one
    // forward pass, so it gets its own (smaller) repetition budget.
    let (eval_warmup, eval_samples) = if fast { (1, 5) } else { (2, 15) };

    let mut rng = StdRng::seed_from_u64(0);
    let arch = lenet_multi_exit();
    let net = MultiExitNetwork::from_architecture(&arch, &mut rng).unwrap();
    let input = Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0);
    let mut plan = net.execution_plan();

    const BATCH: usize = 8;
    let batch_inputs: Vec<Tensor> =
        (0..BATCH).map(|_| Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0)).collect();
    let batch_refs: Vec<&Tensor> = batch_inputs.iter().collect();
    let mut batch_plan = net.batch_plan(BATCH);

    // Every path must agree before any timing is trusted.
    for exit in 0..3 {
        let (pre_pred, _) = pre_pr_forward_to_exit(&net, &input, exit);
        let alloc_out = net.forward_to_exit(&input, exit).unwrap();
        let planned_out = net.forward_to_exit_with(&mut plan, &input, exit).unwrap();
        assert_eq!(pre_pred, alloc_out.prediction, "pre-PR replica diverged at exit {exit}");
        assert_eq!(planned_out.prediction, alloc_out.prediction, "planned diverged at {exit}");
        let batched = net.forward_to_exit_batch_with(&mut batch_plan, &batch_refs, exit).unwrap();
        for (i, batch_input) in batch_inputs.iter().enumerate() {
            let single = net.forward_to_exit_with(&mut plan, batch_input, exit).unwrap();
            assert_eq!(batched.prediction(i), single.prediction, "batched diverged at {exit}/{i}");
        }
    }

    // Training fixtures: the legacy allocating backward against the planned
    // zero-alloc one on the paper backbone, single-step and batch-8. The
    // batched case runs single-threaded so the ratio measures kernels and
    // allocations, never core counts; lr = 0 keeps the weights frozen so
    // every timed step performs identical work. Loss bit-identity is
    // asserted before anything is timed (the gradient-level equivalence
    // lives in ie_nn's proptests).
    let mut train_net = net.clone();
    let train_weights = [0.2f32, 0.3, 0.5];
    let train_classes = net.forward_to_exit(&input, 0).unwrap().logits.len();
    let mut train_plan = train_net.backward_plan();
    let mut train_batch = BatchBackwardPlan::new();
    let train_samples: Vec<Sample> = batch_inputs
        .iter()
        .enumerate()
        .map(|(i, image)| Sample { image: image.clone(), label: i % train_classes })
        .collect();
    {
        let legacy_loss = train_net.backward(&input, 1, &train_weights).unwrap();
        train_net.apply_gradients(0.0);
        let planned_loss =
            train_net.backward_with(&mut train_plan, &input, 1, &train_weights).unwrap();
        train_net.apply_gradients(0.0);
        assert_eq!(
            legacy_loss.to_bits(),
            planned_loss.to_bits(),
            "planned training loss diverged from the legacy backward"
        );
        let mut legacy_total = 0.0f32;
        for s in &train_samples {
            legacy_total += train_net.backward(&s.image, s.label, &train_weights).unwrap();
        }
        train_net.apply_gradients(0.0);
        let planned_total =
            train_batch.train_step(&mut train_net, &train_samples, &train_weights, 0.0, 1).unwrap();
        assert_eq!(
            legacy_total.to_bits(),
            planned_total.to_bits(),
            "batched training loss diverged from the legacy per-sample loop"
        );
    }

    // Remaining fixtures: the small backbone the search's calibration loop
    // actually runs (fixed per-pass costs dominate there, which is where
    // batching pays most) and the whole-policy evaluator over a synthetic
    // calibration set.
    let tiny_arch = tiny_multi_exit(3);
    let tiny_net = MultiExitNetwork::from_architecture(&tiny_arch, &mut rng).unwrap();
    let tiny_inputs: Vec<Tensor> =
        (0..BATCH).map(|_| Tensor::randn(&mut rng, &[1, 8, 8], 0.0, 1.0)).collect();
    let tiny_refs: Vec<&Tensor> = tiny_inputs.iter().collect();
    let mut tiny_plan = tiny_net.execution_plan();
    let mut tiny_batch_plan = tiny_net.batch_plan(BATCH);
    let tiny_exit = tiny_arch.num_exits() - 1;
    let data = SyntheticDataset::generate(3, 8, 400, 0.05, 17);
    let evaluator = PolicyEvaluator::new(
        &tiny_arch,
        EmpiricalAccuracyEstimator::new(tiny_net.clone(), data.train().to_vec()),
    );
    let policy = CompressionPolicy::uniform(evaluator.layers().len(), 0.6, 8, 8).unwrap();
    assert_eq!(
        evaluator.evaluate(&policy).unwrap(),
        evaluator.evaluate_batched(&policy).unwrap(),
        "batched policy evaluation diverged from the single-input one"
    );

    // Quantized backend fixtures: the paper-style i8-dominant policy (8-bit
    // convs pruned to 0.5/0.25, 1–2-bit large FC layers — the Fig. 4 shape
    // that actually fits the MCU targets) executed once through the
    // fake-quant f32 planned path (pruned convs at their kept width)
    // and once through the integer engine (pruned channels packed away, the
    // integer GEMMs on the kept ones).
    let compressible = arch.compressible_layers();
    let i8_policy: CompressionPolicy = compressible
        .iter()
        .map(|l| {
            if l.is_conv {
                if l.first_exit() == 0 {
                    ie_compress::LayerPolicy::new(0.5, 8, 8).unwrap()
                } else {
                    ie_compress::LayerPolicy::new(0.25, 4, 8).unwrap()
                }
            } else if l.weight_params > 20_000 {
                ie_compress::LayerPolicy::new(0.35, 1, 8).unwrap()
            } else {
                ie_compress::LayerPolicy::new(0.5, 2, 8).unwrap()
            }
        })
        .collect();
    let calib: Vec<Sample> = (0..8)
        .map(|_| Sample { image: Tensor::randn(&mut rng, &[3, 32, 32], 0.0, 1.0), label: 0 })
        .collect();
    let mut fake_net = net.clone();
    apply_policy(&mut fake_net, &i8_policy).unwrap();
    let mut fake_plan = fake_net.execution_plan();
    let mut fake_batch_plan = fake_net.batch_plan(BATCH);
    let mut int_net = net.clone();
    let quant_cfg = apply_policy_quantized(&mut int_net, &i8_policy, &calib).unwrap();
    let quant_model = QuantizedModel::for_network(&int_net, &quant_cfg).unwrap();
    let (i8_layers, i16_layers) = quant_model.kernel_counts();
    assert_eq!(
        i8_layers + i16_layers,
        compressible.len(),
        "the i8-dominant policy quantizes every layer"
    );
    let mut quant_plan = int_net.execution_plan_quantized(&quant_cfg).unwrap();
    let mut quant_batch_plan = int_net.batch_plan_quantized(&quant_cfg, BATCH).unwrap();
    // The integer engine must agree bit-for-bit with its naive fake-quant
    // reference before anything is timed.
    for exit in 0..3 {
        let reference = fake_quant_logits(&int_net, &quant_model, &input, exit).unwrap();
        let single = int_net.forward_to_exit_batch_with(&mut quant_plan, &[&input], exit).unwrap();
        assert_eq!(single.logits(0), reference.as_slice(), "quantized diverged at {exit}");
        let batched =
            int_net.forward_to_exit_batch_with(&mut quant_batch_plan, &batch_refs, exit).unwrap();
        let batched_ref =
            fake_quant_logits(&int_net, &quant_model, &batch_inputs[0], exit).unwrap();
        assert_eq!(batched.logits(0), batched_ref.as_slice(), "batched quantized diverged");
    }

    // Search-loop fixture: one full `CompressionEnv::evaluate` step (profile
    // + event-loop simulation + rewards) on the small test experiment, and
    // the bare profile evaluation it wraps, timed for context. The gate's
    // same-run machine-speed reference is the single-input empirical policy
    // evaluation of `policy_eval_loop`, not this profile evaluation.
    let search_env = CompressionEnv::new(&ExperimentConfig::small_test(), RewardMode::ExitGuided)
        .expect("small test config is valid");
    let search_policy = CompressionPolicy::uniform(search_env.num_layers(), 0.5, 4, 8).unwrap();
    let profile_evaluator =
        PolicyEvaluator::new(&arch, CalibratedAccuracyModel::for_paper_backbone());

    // Simulator-loop fixture: the `EventLoopSimulator` wake-window replay on
    // the small test experiment (the intermittent-side hot loop).
    let sim_config = ExperimentConfig::small_test();
    let sim_model =
        DeployedModel::uncompressed_reference(&sim_config).expect("small test config is valid");
    let simulator = EventLoopSimulator::new(&sim_config);

    // Checkpoint-loop fixture: the SONIC-style intermittent executor on a
    // 16-task MSP432 graph. The harvest is ample, so the timing covers
    // compute + two-bank checkpoint commits + reboot recovery, never waiting
    // for energy; the injected cuts replay identically per seed. Recovery
    // must be bit-identical to the fault-free run before it is timed.
    let ckpt_exec = IntermittentExecutor::new(ie_mcu::CostModel::for_device(&McuDevice::msp432()));
    let ckpt_graph = TaskGraph::split_evenly("bench", 2_000_000, 16);
    let ckpt_plan = FaultPlan::random(0xFA017, 0.25, 48);
    let ckpt_run = |plan: &FaultPlan| {
        let mut sim = ie_energy::HarvestSimulator::new(
            Box::new(ie_energy::ConstantTrace::new(2.0, 10_000_000.0)),
            ie_energy::EnergyStorage::new(200.0, 1.0).with_initial_level(100.0),
        );
        let mut nv = NonvolatileMemory::new(1024);
        ckpt_exec
            .execute_with_faults(&ckpt_graph, &mut sim, &mut nv, &mut plan.injector())
            .expect("an ample harvest always completes")
    };
    let ckpt_reference = ckpt_run(&FaultPlan::None);
    let ckpt_recovered = ckpt_run(&ckpt_plan);
    assert!(ckpt_recovered.recovered_boots > 0, "the bench fault plan must cut something");
    assert_eq!(
        ckpt_recovered.output_digest, ckpt_reference.output_digest,
        "recovery diverged from the fault-free run"
    );

    // Serving-loop fixture: a fixed open-loop request stream on the tiny
    // backbone, admitted through the static-LUT table over a fixed per-exit
    // cost table — the decisions (shed / shallow / deep) are part of the
    // fixture, so the bench times machine speed, never policy drift. Bursts
    // of 8 requests fill the window; the budget ladder exercises all three
    // verdicts.
    let serve_count = 128usize;
    let mut serve_admission = LatencyAdmission::static_lut(
        vec![0.002, 0.006],
        vec![0.6, 0.7],
        StateDiscretizer::paper_default(),
    )
    .expect("serve admission table is valid");
    let serve_stream: Vec<Request> = (0..serve_count)
        .map(|i| Request {
            id: i as u64,
            arrival_s: (i / 8) as f64 * 0.001,
            budget_s: [0.0005, 0.003, 0.004, 0.008][i % 4],
            input: data.train()[i % data.train().len()].image.clone(),
        })
        .collect();
    // Admission is deterministic and stateless here; precompute the admitted
    // set once for the single-input reference loop.
    let serve_admitted: Vec<(usize, usize)> = serve_stream
        .iter()
        .enumerate()
        .filter_map(|(i, r)| serve_admission.admit(r.id, r.budget_s).map(|exit| (i, exit)))
        .collect();
    assert!(
        !serve_admitted.is_empty() && serve_admitted.len() < serve_count,
        "the serve fixture must both admit and shed requests"
    );
    let serve_window = WindowConfig { max_batch: 8, deadline_s: 0.001 };
    let mut serve_pool = BatchPlanPool::new();
    let mut serve1 = Server::new(&tiny_net, ServeConfig::new(serve_window, 1), &mut serve_pool)
        .expect("serve config is valid");
    let mut serve4 = Server::new(&tiny_net, ServeConfig::new(serve_window, 4), &mut serve_pool)
        .expect("serve config is valid");

    // Overload fixture: the same backbone at 2× the cheapest exit's service
    // rate (arrival gap = half its cost) behind a bounded queue, replayed
    // under the two shed policies. The plans are deterministic, so the
    // per-policy served/degraded/shed counts are fixture facts — asserted
    // once here, recorded in the JSON.
    let overload_count = 128usize;
    let overload_stream: Vec<Request> = (0..overload_count)
        .map(|i| Request {
            id: i as u64,
            arrival_s: i as f64 * 0.001,
            budget_s: [0.0005, 0.003, 0.004, 0.008][i % 4],
            input: data.train()[i % data.train().len()].image.clone(),
        })
        .collect();
    let overload_server = |policy: ShedPolicy, pool: &mut BatchPlanPool| {
        let overload = OverloadConfig { queue_cap: 4, policy };
        Server::new(&tiny_net, ServeConfig { window: serve_window, threads: 1, overload }, pool)
            .expect("overload config is valid")
    };
    let mut serve_degrade = overload_server(ShedPolicy::Degrade, &mut serve_pool);
    let mut serve_reject = overload_server(ShedPolicy::Reject, &mut serve_pool);
    {
        let degrade =
            serve_degrade.replay(&mut serve_admission, &overload_stream).expect("degrade replay");
        let reject =
            serve_reject.replay(&mut serve_admission, &overload_stream).expect("reject replay");
        assert!(degrade.report.conservation_holds() && reject.report.conservation_holds());
        assert!(reject.report.shed > 0, "2x saturation must overflow a 4-slot queue");
        assert!(degrade.report.degraded > 0, "queue pressure must degrade some exits");
        // Degrade trades a little raw throughput (it sheds the unmeetable
        // upfront) for goodput: almost everything it serves meets its
        // deadline, where Reject serves a backlog of useless late answers.
        assert!(
            degrade.report.deadline_met > reject.report.deadline_met,
            "degradation exists to convert raw throughput into goodput ({} vs {})",
            degrade.report.deadline_met,
            reject.report.deadline_met
        );
    }

    // Fleet-loop fixture: a mixed population (all three trace kinds, all
    // three policy kinds, a quarter fault-exposed) advanced end to end on
    // the small test model. Worker counts are pinned in the configs so the
    // `IE_FLEET_THREADS` knob cannot skew the bench, and the determinism
    // contract — byte-identical aggregates at any worker count — is asserted
    // before anything is timed.
    let fleet_devices: u64 = if fast { 96 } else { 256 };
    let mut fleet_cfg = FleetConfig::new(fleet_devices, 0xF1EE7);
    fleet_cfg.events_per_device = 8;
    fleet_cfg.device_duration_s = 600.0;
    fleet_cfg.threads = 1;
    let fleet1_sim = FleetSimulator::new(&fleet_cfg);
    fleet_cfg.threads = 4;
    let fleet4_sim = FleetSimulator::new(&fleet_cfg);
    assert_eq!(
        fleet1_sim.run(&sim_model).expect("fleet fixture runs").metrics,
        fleet4_sim.run(&sim_model).expect("fleet fixture runs").metrics,
        "fleet aggregates diverged across worker counts"
    );
    let fleet_steps = fleet_devices * fleet_cfg.events_per_device as u64;

    // SIMD kernel fixtures: each dispatched kernel is timed on the active
    // tier against its own Portable tier in the same process, after a
    // bit-identity assertion — the per-kernel visibility of the ISA sweep.
    let sm_logits: Vec<f32> = (0..4096).map(|i| ((i % 997) as f32 * 0.013).sin() * 4.0).collect();
    let mut sm_out = vec![0.0f32; sm_logits.len()];
    let (pool_planes, pool_h, pool_w) = (64usize, 32usize, 32usize);
    let pool_src: Vec<f32> = (0..pool_planes * pool_h * pool_w)
        .map(|i| ((i % 613) as f32 * 0.021).cos() * 3.0)
        .collect();
    let pool_codes: Vec<i8> = pool_src.iter().map(|&v| (v * 20.0) as i8).collect();
    let mut pool_out = vec![0.0f32; pool_planes * (pool_h / 2) * (pool_w / 2)];
    let mut pool_out_codes = vec![0i8; pool_out.len()];
    // The paper backbone's conv2 GEMM shape (32 filters over 3·5·5 inputs,
    // 16×16 output positions): small enough that the axpy streams from L1/L2
    // — the regime the pruned convolutions actually run in. (At very wide
    // shapes the axpy is memory-bandwidth-bound and vector width stops
    // mattering.)
    let q_params = QuantParams::from_range(0.0, 6.0, 8);
    let q_src: Vec<f32> =
        (0..16_384).map(|i| ((i % 741) as f32 * 0.009).sin() * 5.0 + 2.0).collect();
    let mut q_codes = vec![0i8; q_src.len()];
    // The quantized convolution's GEMM at a conv-shaped size: packed i16
    // weight rows against the `[k, n]` i8 column matrix the quantized
    // `im2col` writes.
    let (cg_m, cg_k, cg_n) = (32usize, 400usize, 1024usize);
    let cg_w: Vec<i16> = (0..cg_m * cg_k).map(|i| ((i % 251) as i16) - 125).collect();
    let cg_cols: Vec<i8> = (0..cg_k * cg_n).map(|i| ((i % 239) as i32 - 119) as i8).collect();
    let mut cg_out = vec![0i32; cg_m * cg_n];
    {
        // Bit-identity of every benchmarked kernel is asserted before any
        // timing is trusted, mirroring the plan verifications above.
        let mut reference = sm_out.clone();
        tiered::softmax_slice_into(IsaTier::Portable, &sm_logits, &mut reference);
        ie_tensor::softmax_slice_into(&sm_logits, &mut sm_out);
        assert_eq!(reference, sm_out, "softmax tiers diverged");
        let mut pref = pool_out.clone();
        tiered::max_pool_planes_into(
            IsaTier::Portable,
            &pool_src,
            pool_planes,
            pool_h,
            pool_w,
            2,
            &mut pref,
        );
        ie_tensor::max_pool_planes_into(&pool_src, pool_planes, pool_h, pool_w, 2, &mut pool_out);
        assert_eq!(pref, pool_out, "max-pool tiers diverged");
        let mut qref = q_codes.clone();
        q_params.quantize_slice_into_tier(IsaTier::Portable, &q_src, &mut qref);
        q_params.quantize_slice_into(&q_src, &mut q_codes);
        assert_eq!(qref, q_codes, "quantize tiers diverged");
        let mut cref = cg_out.clone();
        let (m, k, n) = (cg_m, cg_k, cg_n);
        tiered::gemm_i8cols_into(IsaTier::Portable, &cg_w, &cg_cols, &mut cref, m, k, k, n);
        ie_tensor::gemm_i8cols_into(&cg_w, &cg_cols, &mut cg_out, m, k, k, n);
        assert_eq!(cref, cg_out, "conv GEMM tiers diverged");
    }

    // The whole measurement pass lives in a closure so the --check gate can
    // re-run it to confirm a suspected regression (see below).
    let mut measure_all = || {
        let mut results = Vec::new();
        for exit in 0..3 {
            let pre_pr_ns = median_ns(warmup, samples, || {
                black_box(pre_pr_forward_to_exit(&net, &input, exit).0);
            });
            let allocating_ns = median_ns(warmup, samples, || {
                black_box(net.forward_to_exit(&input, exit).unwrap().prediction);
            });
            let planned_ns = median_ns(warmup, samples, || {
                black_box(net.forward_to_exit_with(&mut plan, &input, exit).unwrap().prediction);
            });
            results.push(CaseResult {
                case: format!("to_exit_{}", exit + 1),
                pre_pr_ns,
                allocating_ns,
                planned_ns,
            });
        }

        // Batched throughput at the deepest exit: ns per *sample*, against
        // the single-input planned pass as the reference. The planned
        // reference is re-measured on a per-sample loop over the same inputs
        // so both sides cover identical work.
        let planned_loop_ns = median_ns(warmup, samples, || {
            for batch_input in &batch_inputs {
                black_box(net.forward_to_exit_with(&mut plan, batch_input, 2).unwrap().prediction);
            }
        }) / BATCH as u64;
        let batch_total_ns = median_ns(warmup, samples, || {
            black_box(
                net.forward_to_exit_batch_with(&mut batch_plan, &batch_refs, 2)
                    .unwrap()
                    .prediction(0),
            );
        });
        let mut batch_results = vec![BatchCaseResult {
            case: format!("to_exit_3_batch{BATCH}"),
            batch: BATCH,
            statistic: "median",
            planned_single_ns: planned_loop_ns,
            batched_ns_per_sample: batch_total_ns / BATCH as u64,
        }];

        // One tiny pass is only ~10-20 µs, where timer and scheduler noise
        // dominate a single invocation; each timed sample therefore covers
        // TINY_REPS passes, and the case is reported as the minimum (see
        // `min_ns`) so one-sided interference cannot fake a regression.
        const TINY_REPS: usize = 16;
        let tiny_planned_ns = min_ns(warmup, samples * 4, || {
            for _ in 0..TINY_REPS {
                for tiny_input in &tiny_inputs {
                    black_box(
                        tiny_net
                            .forward_to_exit_with(&mut tiny_plan, tiny_input, tiny_exit)
                            .unwrap()
                            .prediction,
                    );
                }
            }
        }) / (BATCH * TINY_REPS) as u64;
        let tiny_batched_ns = min_ns(warmup, samples * 4, || {
            for _ in 0..TINY_REPS {
                black_box(
                    tiny_net
                        .forward_to_exit_batch_with(&mut tiny_batch_plan, &tiny_refs, tiny_exit)
                        .unwrap()
                        .prediction(0),
                );
            }
        }) / (BATCH * TINY_REPS) as u64;
        batch_results.push(BatchCaseResult {
            case: format!("tiny_to_exit_{}_batch{BATCH}", tiny_exit + 1),
            batch: BATCH,
            statistic: "min",
            planned_single_ns: tiny_planned_ns,
            batched_ns_per_sample: tiny_batched_ns,
        });

        // Training steps: legacy allocating backward vs the planned path,
        // single-step (ns/step) and batch-8 (ns/sample, single-threaded).
        let mut train_results = Vec::new();
        let train_legacy_single_ns = median_ns(warmup, samples, || {
            black_box(train_net.backward(&input, 1, &train_weights).unwrap());
            train_net.apply_gradients(0.0);
        });
        let train_planned_single_ns = median_ns(warmup, samples, || {
            black_box(train_net.backward_with(&mut train_plan, &input, 1, &train_weights).unwrap());
            train_net.apply_gradients(0.0);
        });
        train_results.push(TrainStepResult {
            case: "lenet_single".to_string(),
            legacy_ns: train_legacy_single_ns,
            planned_ns: train_planned_single_ns,
            traffic_bytes_per_op: train_plan.traffic_bytes(),
        });
        let train_legacy_batch_ns = median_ns(warmup, samples, || {
            let mut total = 0.0f32;
            for s in &train_samples {
                total += train_net.backward(&s.image, s.label, &train_weights).unwrap();
            }
            train_net.apply_gradients(0.0);
            black_box(total);
        }) / BATCH as u64;
        let train_planned_batch_ns = median_ns(warmup, samples, || {
            black_box(
                train_batch
                    .train_step(&mut train_net, &train_samples, &train_weights, 0.0, 1)
                    .unwrap(),
            );
        }) / BATCH as u64;
        train_results.push(TrainStepResult {
            case: "lenet_batch8".to_string(),
            legacy_ns: train_legacy_batch_ns,
            planned_ns: train_planned_batch_ns,
            traffic_bytes_per_op: train_plan.traffic_bytes(),
        });

        // Quantized vs fake-quant f32: the identical i8-dominant policy, the
        // only difference being which kernels execute it.
        let mut quant_results = Vec::new();
        let fake_single_ns = median_ns(warmup, samples, || {
            black_box(fake_net.forward_to_exit_with(&mut fake_plan, &input, 2).unwrap().prediction);
        });
        let quant_single_ns = median_ns(warmup, samples, || {
            black_box(int_net.forward_to_exit_with(&mut quant_plan, &input, 2).unwrap().prediction);
        });
        quant_results.push(QuantCaseResult {
            case: "to_exit_3_i8".to_string(),
            fake_quant_f32_ns: fake_single_ns,
            quantized_ns: quant_single_ns,
        });
        let fake_batch_ns = median_ns(warmup, samples, || {
            black_box(
                fake_net
                    .forward_to_exit_batch_with(&mut fake_batch_plan, &batch_refs, 2)
                    .unwrap()
                    .prediction(0),
            );
        }) / BATCH as u64;
        let quant_batch_ns = median_ns(warmup, samples, || {
            black_box(
                int_net
                    .forward_to_exit_batch_with(&mut quant_batch_plan, &batch_refs, 2)
                    .unwrap()
                    .prediction(0),
            );
        }) / BATCH as u64;
        quant_results.push(QuantCaseResult {
            case: "to_exit_3_i8_batch8".to_string(),
            fake_quant_f32_ns: fake_batch_ns,
            quantized_ns: quant_batch_ns,
        });

        let single_eval_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(evaluator.evaluate(&policy).unwrap().exit_accuracy.len());
        });
        let batched_eval_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(evaluator.evaluate_batched(&policy).unwrap().exit_accuracy.len());
        });
        let policy_eval = PolicyEvalResult {
            case: "empirical_tiny".to_string(),
            single_eval_ns,
            batched_eval_ns,
        };

        let profile_eval_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(profile_evaluator.evaluate(&search_policy).unwrap().total_flops);
        });
        let env_eval_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(search_env.evaluate(&search_policy).unwrap().feasible);
        });
        let search_loop = SearchLoopResult {
            case: "small_env".to_string(),
            profile_eval_ns,
            reference_eval_ns: single_eval_ns,
            env_eval_ns,
        };

        // SIMD kernels, portable tier vs the active tier; micro-scale, so
        // each timed sample covers several invocations and the minimum is
        // reported (one-sided scheduler noise cannot fake a regression).
        const KERNEL_REPS: usize = 4;
        let mut simd_results = Vec::new();
        macro_rules! kernel_case {
            ($case:expr, $portable:expr, $dispatched:expr) => {{
                let portable_ns = min_ns(warmup, samples * 2, || {
                    for _ in 0..KERNEL_REPS {
                        $portable;
                    }
                }) / KERNEL_REPS as u64;
                let dispatched_ns = min_ns(warmup, samples * 2, || {
                    for _ in 0..KERNEL_REPS {
                        $dispatched;
                    }
                }) / KERNEL_REPS as u64;
                simd_results.push(SimdKernelResult {
                    case: $case.to_string(),
                    portable_ns,
                    dispatched_ns,
                });
            }};
        }
        kernel_case!(
            "softmax_4096",
            {
                tiered::softmax_slice_into(IsaTier::Portable, &sm_logits, &mut sm_out);
                black_box(sm_out[0]);
            },
            {
                ie_tensor::softmax_slice_into(&sm_logits, &mut sm_out);
                black_box(sm_out[0]);
            }
        );
        kernel_case!(
            "maxpool_f32_64x32x32",
            {
                tiered::max_pool_planes_into(
                    IsaTier::Portable,
                    &pool_src,
                    pool_planes,
                    pool_h,
                    pool_w,
                    2,
                    &mut pool_out,
                );
                black_box(pool_out[0]);
            },
            {
                ie_tensor::max_pool_planes_into(
                    &pool_src,
                    pool_planes,
                    pool_h,
                    pool_w,
                    2,
                    &mut pool_out,
                );
                black_box(pool_out[0]);
            }
        );
        kernel_case!(
            "maxpool_i8_64x32x32",
            {
                tiered::max_pool_planes_i8_into(
                    IsaTier::Portable,
                    &pool_codes,
                    pool_planes,
                    pool_h,
                    pool_w,
                    2,
                    &mut pool_out_codes,
                );
                black_box(pool_out_codes[0]);
            },
            {
                ie_tensor::max_pool_planes_i8_into(
                    &pool_codes,
                    pool_planes,
                    pool_h,
                    pool_w,
                    2,
                    &mut pool_out_codes,
                );
                black_box(pool_out_codes[0]);
            }
        );
        kernel_case!(
            "quantize_16k",
            {
                q_params.quantize_slice_into_tier(IsaTier::Portable, &q_src, &mut q_codes);
                black_box(q_codes[0]);
            },
            {
                q_params.quantize_slice_into(&q_src, &mut q_codes);
                black_box(q_codes[0]);
            }
        );
        let (m, k, n) = (cg_m, cg_k, cg_n);
        kernel_case!(
            "i8cols_gemm_32x400x1024",
            {
                tiered::gemm_i8cols_into(
                    IsaTier::Portable,
                    &cg_w,
                    &cg_cols,
                    &mut cg_out,
                    m,
                    k,
                    k,
                    n,
                );
                black_box(cg_out[0]);
            },
            {
                ie_tensor::gemm_i8cols_into(&cg_w, &cg_cols, &mut cg_out, m, k, k, n);
                black_box(cg_out[0]);
            }
        );

        // Simulator wake-window loop: full trace replays.
        let run_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(
                simulator
                    .run(&sim_model, &mut GreedyAffordablePolicy::new())
                    .unwrap()
                    .processed_events,
            );
        });
        let run_batched8_ns = median_ns(eval_warmup, eval_samples, || {
            black_box(
                simulator
                    .run_batched(&sim_model, &mut GreedyAffordablePolicy::new(), 8)
                    .unwrap()
                    .processed_events,
            );
        });
        let sim_loop = SimLoopResult { case: "small_env".to_string(), run_ns, run_batched8_ns };

        // Checkpoint/recovery loop: one full task-graph execution per rep,
        // fault-free vs under the deterministic fault plan (a fresh injector
        // per execution replays the identical cut schedule). Micro-scale, so
        // each timed sample covers several executions and the minimum is
        // reported.
        const CKPT_REPS: usize = 4;
        let fault_free_ns = min_ns(warmup, samples * 2, || {
            for _ in 0..CKPT_REPS {
                black_box(ckpt_run(&FaultPlan::None).checkpoints);
            }
        }) / CKPT_REPS as u64;
        let recovery_ns = min_ns(warmup, samples * 2, || {
            for _ in 0..CKPT_REPS {
                black_box(ckpt_run(&ckpt_plan).checkpoints);
            }
        }) / CKPT_REPS as u64;
        let checkpoint_loop = CheckpointLoopResult {
            case: "msp432_16task".to_string(),
            fault_free_ns,
            recovery_ns,
            recovered_boots: ckpt_recovered.recovered_boots,
            torn_writes: ckpt_recovered.torn_writes,
        };

        // Serving loop: the fixed stream replayed end to end, against the
        // same admitted requests run one at a time on the planned path.
        let serve_planned_total = median_ns(eval_warmup, eval_samples, || {
            for &(i, exit) in &serve_admitted {
                black_box(
                    tiny_net
                        .forward_to_exit_with(&mut tiny_plan, &serve_stream[i].input, exit)
                        .unwrap()
                        .prediction,
                );
            }
        });
        let serve1_total = median_ns(eval_warmup, eval_samples, || {
            black_box(serve1.replay(&mut serve_admission, &serve_stream).unwrap().report.served);
        });
        let serve4_total = median_ns(eval_warmup, eval_samples, || {
            black_box(serve4.replay(&mut serve_admission, &serve_stream).unwrap().report.served);
        });
        let serve_outcome = serve4.replay(&mut serve_admission, &serve_stream).unwrap();
        let n_req = serve_stream.len() as u64;
        let serve_loop = ServeLoopResult {
            case: "open_loop_tiny".to_string(),
            requests: serve_stream.len(),
            served: serve_outcome.report.served,
            planned_single_ns: serve_planned_total / n_req,
            serve1_ns: serve1_total / n_req,
            serve4_ns: serve4_total / n_req,
            latency_p50_ns: (serve_outcome.report.latency_p50_s * 1e9) as u64,
            latency_p99_ns: (serve_outcome.report.latency_p99_s * 1e9) as u64,
            throughput_rps: serve_outcome.report.throughput_rps as u64,
        };

        // Overload loop: the 2x-saturation stream behind the bounded queue,
        // degrade vs reject, both with 1 worker so the ratio is pure policy
        // machinery, never core-count luck.
        let degrade_total = median_ns(eval_warmup, eval_samples, || {
            black_box(
                serve_degrade.replay(&mut serve_admission, &overload_stream).unwrap().report.served,
            );
        });
        let reject_total = median_ns(eval_warmup, eval_samples, || {
            black_box(
                serve_reject.replay(&mut serve_admission, &overload_stream).unwrap().report.served,
            );
        });
        let degrade_outcome = serve_degrade.replay(&mut serve_admission, &overload_stream).unwrap();
        let reject_outcome = serve_reject.replay(&mut serve_admission, &overload_stream).unwrap();
        let overload_loop = OverloadLoopResult {
            case: "degrade_vs_reject_2x".to_string(),
            requests: overload_stream.len(),
            degrade1_ns: degrade_total / overload_stream.len() as u64,
            reject1_ns: reject_total / overload_stream.len() as u64,
            degrade_served: degrade_outcome.report.served,
            reject_served: reject_outcome.report.served,
            degrade_deadline_met: degrade_outcome.report.deadline_met,
            reject_deadline_met: reject_outcome.report.deadline_met,
            degraded: degrade_outcome.report.degraded,
            shed_reject: reject_outcome.report.shed,
        };

        // Fleet loop: the same device population advanced three ways — the
        // sequential streaming loop (the same-run reference), the 1-worker
        // fleet (gated) and the 4-worker fleet (reported).
        let fleet_sequential_total = median_ns(eval_warmup, eval_samples, || {
            let mut acc = FleetAccumulator::default();
            for id in 0..fleet_devices {
                fleet1_sim.simulate_device_into(&sim_model, id, &mut acc).unwrap();
            }
            black_box(acc.processed_events);
        });
        let fleet1_total = median_ns(eval_warmup, eval_samples, || {
            black_box(fleet1_sim.run(&sim_model).unwrap().metrics.processed_events);
        });
        let fleet4_total = median_ns(eval_warmup, eval_samples, || {
            black_box(fleet4_sim.run(&sim_model).unwrap().metrics.processed_events);
        });
        // The case name is mode-independent (the device count is recorded in
        // its own field) so the fast-mode CI gate matches the committed
        // full-mode baseline: the gated ratio — fleet1 vs the sequential
        // loop over the same devices — is population-size-invariant.
        let fleet_loop = FleetLoopResult {
            case: "mixed_pop".to_string(),
            devices: fleet_devices,
            device_steps: fleet_steps,
            sequential_ns: fleet_sequential_total / fleet_steps,
            fleet1_ns: fleet1_total / fleet_steps,
            fleet4_ns: fleet4_total / fleet_steps,
        };

        (
            results,
            batch_results,
            train_results,
            quant_results,
            policy_eval,
            search_loop,
            simd_results,
            sim_loop,
            checkpoint_loop,
            serve_loop,
            overload_loop,
            fleet_loop,
        )
    };

    let (
        results,
        batch_results,
        train_results,
        quant_results,
        policy_eval,
        search_loop,
        simd_results,
        sim_loop,
        checkpoint_loop,
        serve_loop,
        overload_loop,
        fleet_loop,
    ) = measure_all();

    println!("# multi_exit_forward — median ns/op over {samples} samples ({mode} mode)\n");
    println!(
        "{:<12} {:>16} {:>14} {:>12} {:>22}",
        "case", "pre_pr_allocating", "allocating", "planned", "planned vs pre-PR"
    );
    for r in &results {
        println!(
            "{:<12} {:>16} {:>14} {:>12} {:>21.2}x",
            r.case,
            r.pre_pr_ns,
            r.allocating_ns,
            r.planned_ns,
            r.speedup_vs_pre_pr()
        );
    }
    println!("\n# batch_forward — median ns/sample\n");
    println!("{:<20} {:>14} {:>18} {:>20}", "case", "planned", "batched", "batched vs planned");
    for r in &batch_results {
        println!(
            "{:<20} {:>14} {:>18} {:>19.2}x",
            r.case,
            r.planned_single_ns,
            r.batched_ns_per_sample,
            r.speedup_vs_planned()
        );
    }
    println!("\n# train_step — median ns/step (batch case: ns/sample)\n");
    println!(
        "{:<16} {:>12} {:>12} {:>20} {:>10}",
        "case", "legacy", "planned", "planned vs legacy", "GB/s"
    );
    for r in &train_results {
        println!(
            "{:<16} {:>12} {:>12} {:>19.2}x {:>10.2}",
            r.case,
            r.legacy_ns,
            r.planned_ns,
            r.speedup(),
            r.effective_gbps()
        );
    }
    println!("\n# quant_forward — median ns/op (batch cases: ns/sample)\n");
    println!(
        "{:<22} {:>18} {:>14} {:>22}",
        "case", "fake_quant_f32", "quantized", "quantized vs f32"
    );
    for r in &quant_results {
        println!(
            "{:<22} {:>18} {:>14} {:>21.2}x",
            r.case,
            r.fake_quant_f32_ns,
            r.quantized_ns,
            r.speedup()
        );
    }
    println!("\n# policy_eval_loop — median ns/policy\n");
    println!(
        "{:<20} {:>14} {:>18} {:>19.2}x",
        policy_eval.case,
        policy_eval.single_eval_ns,
        policy_eval.batched_eval_ns,
        policy_eval.speedup()
    );
    println!("\n# search_loop — median ns/step\n");
    println!(
        "{:<20} {:>14} {:>18}",
        search_loop.case, search_loop.profile_eval_ns, search_loop.env_eval_ns
    );
    println!(
        "\n# simd_kernels — min ns/op, portable tier vs active tier ({})\n",
        dispatch::active().name()
    );
    println!(
        "{:<24} {:>14} {:>14} {:>24}",
        "case", "portable", "dispatched", "dispatched vs portable"
    );
    for r in &simd_results {
        println!(
            "{:<24} {:>14} {:>14} {:>23.2}x",
            r.case,
            r.portable_ns,
            r.dispatched_ns,
            r.speedup()
        );
    }
    println!("\n# sim_loop — median ns/trace replay\n");
    println!("{:<20} {:>14} {:>18}", sim_loop.case, sim_loop.run_ns, sim_loop.run_batched8_ns);
    println!(
        "\n# checkpoint_loop — min ns/execution ({} recovered boots, {} torn writes per faulty \
         run)\n",
        checkpoint_loop.recovered_boots, checkpoint_loop.torn_writes
    );
    println!(
        "{:<20} {:>14} {:>14} {:>24}",
        "case", "fault_free", "recovery", "recovery vs fault-free"
    );
    println!(
        "{:<20} {:>14} {:>14} {:>23.2}x",
        checkpoint_loop.case,
        checkpoint_loop.fault_free_ns,
        checkpoint_loop.recovery_ns,
        checkpoint_loop.overhead()
    );
    println!(
        "\n# serve_loop — median ns/request over {} requests ({} served)\n",
        serve_loop.requests, serve_loop.served
    );
    println!(
        "{:<20} {:>16} {:>12} {:>12} {:>12} {:>12}",
        "case", "planned_single", "serve_t1", "serve_t4", "p99_ns", "req/s"
    );
    println!(
        "{:<20} {:>16} {:>12} {:>12} {:>12} {:>12}",
        serve_loop.case,
        serve_loop.planned_single_ns,
        serve_loop.serve1_ns,
        serve_loop.serve4_ns,
        serve_loop.latency_p99_ns,
        serve_loop.throughput_rps
    );
    println!(
        "\n# overload_loop — median ns/request at 2x saturation over {} requests (cap 4)\n",
        overload_loop.requests
    );
    println!(
        "{:<22} {:>12} {:>12} {:>20} {:>20}",
        "case", "degrade_t1", "reject_t1", "served (deg/rej)", "goodput (deg/rej)"
    );
    println!(
        "{:<22} {:>12} {:>12} {:>17}/{} {:>17}/{}",
        overload_loop.case,
        overload_loop.degrade1_ns,
        overload_loop.reject1_ns,
        overload_loop.degrade_served,
        overload_loop.reject_served,
        overload_loop.degrade_deadline_met,
        overload_loop.reject_deadline_met
    );
    println!(
        "\n# fleet_loop — median ns/device-step over {} devices ({} device-steps)\n",
        fleet_loop.devices, fleet_loop.device_steps
    );
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>16}",
        "case", "sequential", "fleet_t1", "fleet_t4", "device-steps/s"
    );
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>16.0}",
        fleet_loop.case,
        fleet_loop.sequential_ns,
        fleet_loop.fleet1_ns,
        fleet_loop.fleet4_ns,
        1e9 / fleet_loop.fleet1_ns.max(1) as f64
    );

    let gate = results.last().expect("three cases benchmarked");
    let batch_gate = batch_results.last().expect("batch cases benchmarked");
    let mut json_cases: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"case\": \"multi_exit_forward/{}\",\n      \"pre_pr_allocating_ns\": {},\n      \"allocating_ns\": {},\n      \"planned_ns\": {},\n      \"speedup_planned_vs_pre_pr\": {:.3}\n    }}",
                r.case, r.pre_pr_ns, r.allocating_ns, r.planned_ns, r.speedup_vs_pre_pr()
            )
        })
        .collect();
    json_cases.extend(batch_results.iter().map(|r| {
        format!(
            "    {{\n      \"case\": \"batch_forward/{}\",\n      \"batch\": {},\n      \"statistic\": \"{}\",\n      \"planned_single_ns\": {},\n      \"batched_ns_per_sample\": {},\n      \"speedup_batched_vs_planned\": {:.3}\n    }}",
            r.case,
            r.batch,
            r.statistic,
            r.planned_single_ns,
            r.batched_ns_per_sample,
            r.speedup_vs_planned()
        )
    }));
    json_cases.extend(train_results.iter().map(|r| {
        format!(
            "    {{\n      \"case\": \"train_step/{}\",\n      \"legacy_ns\": {},\n      \"planned_ns\": {},\n      \"traffic_bytes_per_op\": {},\n      \"effective_gbps\": {:.3},\n      \"speedup_planned_vs_legacy\": {:.3}\n    }}",
            r.case,
            r.legacy_ns,
            r.planned_ns,
            r.traffic_bytes_per_op,
            r.effective_gbps(),
            r.speedup()
        )
    }));
    json_cases.extend(quant_results.iter().map(|r| {
        format!(
            "    {{\n      \"case\": \"quant_forward/{}\",\n      \"fake_quant_f32_ns\": {},\n      \"quantized_ns\": {},\n      \"speedup_quantized_vs_f32\": {:.3}\n    }}",
            r.case,
            r.fake_quant_f32_ns,
            r.quantized_ns,
            r.speedup()
        )
    }));
    json_cases.push(format!(
        "    {{\n      \"case\": \"policy_eval_loop/{}\",\n      \"single_eval_ns\": {},\n      \"batched_eval_ns\": {},\n      \"speedup_batched_vs_single\": {:.3}\n    }}",
        policy_eval.case, policy_eval.single_eval_ns, policy_eval.batched_eval_ns, policy_eval.speedup()
    ));
    json_cases.push(format!(
        "    {{\n      \"case\": \"search_loop/{}\",\n      \"profile_eval_ns\": {},\n      \"reference_eval_ns\": {},\n      \"env_eval_ns\": {}\n    }}",
        search_loop.case,
        search_loop.profile_eval_ns,
        search_loop.reference_eval_ns,
        search_loop.env_eval_ns
    ));
    json_cases.extend(simd_results.iter().map(|r| {
        format!(
            "    {{\n      \"case\": \"simd_kernels/{}\",\n      \"statistic\": \"min\",\n      \"portable_ns\": {},\n      \"dispatched_ns\": {},\n      \"speedup_dispatched_vs_portable\": {:.3}\n    }}",
            r.case,
            r.portable_ns,
            r.dispatched_ns,
            r.speedup()
        )
    }));
    json_cases.push(format!(
        "    {{\n      \"case\": \"sim_loop/{}\",\n      \"run_ns\": {},\n      \"run_batched8_ns\": {}\n    }}",
        sim_loop.case, sim_loop.run_ns, sim_loop.run_batched8_ns
    ));
    json_cases.push(format!(
        "    {{\n      \"case\": \"checkpoint_loop/{}\",\n      \"statistic\": \"min\",\n      \"fault_free_ns\": {},\n      \"recovery_ns\": {},\n      \"recovered_boots\": {},\n      \"torn_writes\": {}\n    }}",
        checkpoint_loop.case,
        checkpoint_loop.fault_free_ns,
        checkpoint_loop.recovery_ns,
        checkpoint_loop.recovered_boots,
        checkpoint_loop.torn_writes
    ));
    json_cases.push(format!(
        "    {{\n      \"case\": \"serve_loop/{}\",\n      \"requests\": {},\n      \"served\": {},\n      \"planned_single_ns\": {},\n      \"serve1_ns\": {},\n      \"serve4_ns\": {},\n      \"latency_p50_ns\": {},\n      \"latency_p99_ns\": {},\n      \"throughput_rps\": {}\n    }}",
        serve_loop.case,
        serve_loop.requests,
        serve_loop.served,
        serve_loop.planned_single_ns,
        serve_loop.serve1_ns,
        serve_loop.serve4_ns,
        serve_loop.latency_p50_ns,
        serve_loop.latency_p99_ns,
        serve_loop.throughput_rps
    ));
    json_cases.push(format!(
        "    {{\n      \"case\": \"overload_loop/{}\",\n      \"requests\": {},\n      \"degrade1_ns\": {},\n      \"reject1_ns\": {},\n      \"degrade_served\": {},\n      \"reject_served\": {},\n      \"degrade_deadline_met\": {},\n      \"reject_deadline_met\": {},\n      \"degraded\": {},\n      \"shed_reject\": {}\n    }}",
        overload_loop.case,
        overload_loop.requests,
        overload_loop.degrade1_ns,
        overload_loop.reject1_ns,
        overload_loop.degrade_served,
        overload_loop.reject_served,
        overload_loop.degrade_deadline_met,
        overload_loop.reject_deadline_met,
        overload_loop.degraded,
        overload_loop.shed_reject
    ));
    json_cases.push(format!(
        "    {{\n      \"case\": \"fleet_loop/{}\",\n      \"devices\": {},\n      \"device_steps\": {},\n      \"sequential_ns\": {},\n      \"fleet1_ns\": {},\n      \"fleet4_ns\": {}\n    }}",
        fleet_loop.case,
        fleet_loop.devices,
        fleet_loop.device_steps,
        fleet_loop.sequential_ns,
        fleet_loop.fleet1_ns,
        fleet_loop.fleet4_ns
    ));
    // Record the invocation that actually produced this file, so the artifact
    // is reproducible as-is (e.g. CI passes --fast), and the mode + timed
    // sample count so a fast smoke output can never masquerade as the
    // committed full-mode baseline.
    let command = if args.is_empty() {
        "cargo run --release -p ie_bench --bin bench_json".to_string()
    } else {
        format!("cargo run --release -p ie_bench --bin bench_json -- {}", args.join(" "))
    };
    // The batch aspiration is recorded honestly: the ISSUE's 1.5x target is
    // not met by the widened GEMM alone on this hardware (the conv
    // activation matrices are already wide per sample — see DESIGN.md), so
    // `batch_pass` reports the truth next to the measured value instead of
    // folding it into the headline gate.
    const REQUIRED_BATCH_SPEEDUP: f64 = 1.5;
    // The ISSUE's quantized aspiration: the i8-dominant policy must beat the
    // fake-quant f32 planned path, with ≥1.5x as the target.
    const REQUIRED_QUANT_SPEEDUP: f64 = 1.5;
    // The ISSUE's training aspiration: the planned single-sample training
    // step must beat the legacy allocating backward by ≥1.5x median.
    const REQUIRED_TRAIN_SPEEDUP: f64 = 1.5;
    let quant_gate = quant_results.first().expect("quant cases benchmarked");
    let train_gate = train_results.first().expect("train cases benchmarked");
    let json = format!(
        "{{\n  \"benchmark\": \"multi_exit_forward\",\n  \"network\": \"lenet_multi_exit\",\n  \"unit\": \"ns_per_op\",\n  \"statistic\": \"median\",\n  \"mode\": \"{}\",\n  \"isa_tier\": \"{}\",\n  \"samples\": {},\n  \"command\": \"{}\",\n  \"results\": [\n{}\n  ],\n  \"acceptance\": {{\n    \"case\": \"multi_exit_forward/to_exit_3\",\n    \"required_speedup_vs_pre_pr\": 2.0,\n    \"measured_speedup_vs_pre_pr\": {:.3},\n    \"pass\": {},\n    \"batch_case\": \"batch_forward/{}\",\n    \"batch_required_speedup_vs_planned\": {:.1},\n    \"batch_measured_speedup_vs_planned\": {:.3},\n    \"batch_pass\": {},\n    \"quant_case\": \"quant_forward/{}\",\n    \"quant_required_speedup_vs_f32\": {:.1},\n    \"quant_measured_speedup_vs_f32\": {:.3},\n    \"quant_pass\": {},\n    \"train_case\": \"train_step/{}\",\n    \"train_required_speedup_vs_legacy\": {:.1},\n    \"train_measured_speedup_vs_legacy\": {:.3},\n    \"train_pass\": {}\n  }}\n}}\n",
        mode,
        dispatch::active().name(),
        samples,
        command,
        json_cases.join(",\n"),
        gate.speedup_vs_pre_pr(),
        gate.speedup_vs_pre_pr() >= 2.0,
        batch_gate.case,
        REQUIRED_BATCH_SPEEDUP,
        batch_gate.speedup_vs_planned(),
        batch_gate.speedup_vs_planned() >= REQUIRED_BATCH_SPEEDUP,
        quant_gate.case,
        REQUIRED_QUANT_SPEEDUP,
        quant_gate.speedup(),
        quant_gate.speedup() >= REQUIRED_QUANT_SPEEDUP,
        train_gate.case,
        REQUIRED_TRAIN_SPEEDUP,
        train_gate.speedup(),
        train_gate.speedup() >= REQUIRED_TRAIN_SPEEDUP
    );
    // The baseline must be read BEFORE the fresh results are written: with
    // the default out path, `--check BENCH_inference.json` would otherwise
    // compare the fresh run against itself (and silently pass).
    let check_baseline = check_path.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check: cannot read baseline {path}: {e}"))
    });
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!(
        "\nwrote {out_path} (to_exit_3 planned speedup vs pre-PR: {:.2}x, batch8 vs planned: \
         {:.2}x, quantized i8 vs f32: {:.2}x, planned train step vs legacy: {:.2}x)",
        gate.speedup_vs_pre_pr(),
        batch_gate.speedup_vs_planned(),
        quant_gate.speedup(),
        train_gate.speedup()
    );

    // Perf-regression gate: compare the fresh measurements against the
    // committed baseline and fail the process on a >15 % regression of the
    // machine-normalized reference ratio (see `check_against_baseline`). A
    // suspected regression is confirmed by re-measuring up to two more times
    // — only a metric that regresses in *every* attempt fails the gate, so a
    // transient load burst on the runner cannot fake one.
    if let Some(path) = check_path {
        let baseline = check_baseline.expect("baseline read above when --check is present");
        #[allow(clippy::too_many_arguments)]
        let gated = |results: &[CaseResult],
                     batch_results: &[BatchCaseResult],
                     train_results: &[TrainStepResult],
                     quant_results: &[QuantCaseResult],
                     policy_eval: &PolicyEvalResult,
                     search_loop: &SearchLoopResult,
                     simd_results: &[SimdKernelResult],
                     sim_loop: &SimLoopResult,
                     checkpoint_loop: &CheckpointLoopResult,
                     serve_loop: &ServeLoopResult,
                     overload_loop: &OverloadLoopResult,
                     fleet_loop: &FleetLoopResult| {
            // The pre-PR replica (unchanged historical code) is the
            // machine-speed canary of the planned cases; the batched cases
            // normalize against the planned path measured in the same run,
            // the quantized cases against the fake-quant f32 path, and the
            // batched policy eval and the search-loop step both against the
            // single-input empirical policy eval.
            let mut metrics: Vec<GatedMetric> = results
                .iter()
                .map(|r| GatedMetric {
                    case: format!("multi_exit_forward/{}", r.case),
                    key: "planned_ns",
                    current: r.planned_ns,
                    ref_key: "pre_pr_allocating_ns",
                    current_ref: r.pre_pr_ns,
                    tier_sensitive: false,
                })
                .collect();
            metrics.extend(batch_results.iter().map(|r| GatedMetric {
                case: format!("batch_forward/{}", r.case),
                key: "batched_ns_per_sample",
                current: r.batched_ns_per_sample,
                ref_key: "planned_single_ns",
                current_ref: r.planned_single_ns,
                tier_sensitive: false,
            }));
            // The planned training step normalizes against the legacy
            // allocating backward of the same network in the same run.
            metrics.extend(train_results.iter().map(|r| GatedMetric {
                case: format!("train_step/{}", r.case),
                key: "planned_ns",
                current: r.planned_ns,
                ref_key: "legacy_ns",
                current_ref: r.legacy_ns,
                tier_sensitive: false,
            }));
            metrics.extend(quant_results.iter().map(|r| GatedMetric {
                case: format!("quant_forward/{}", r.case),
                key: "quantized_ns",
                current: r.quantized_ns,
                ref_key: "fake_quant_f32_ns",
                current_ref: r.fake_quant_f32_ns,
                tier_sensitive: true,
            }));
            metrics.push(GatedMetric {
                case: format!("policy_eval_loop/{}", policy_eval.case),
                key: "batched_eval_ns",
                current: policy_eval.batched_eval_ns,
                ref_key: "single_eval_ns",
                current_ref: policy_eval.single_eval_ns,
                tier_sensitive: false,
            });
            metrics.push(GatedMetric {
                case: format!("search_loop/{}", search_loop.case),
                key: "env_eval_ns",
                current: search_loop.env_eval_ns,
                ref_key: "reference_eval_ns",
                current_ref: search_loop.reference_eval_ns,
                tier_sensitive: false,
            });
            // Each dispatched kernel normalizes against its own portable
            // tier measured in the same run; the batched simulator replay
            // against the unbatched one (identical event trace).
            metrics.extend(simd_results.iter().map(|r| GatedMetric {
                case: format!("simd_kernels/{}", r.case),
                key: "dispatched_ns",
                current: r.dispatched_ns,
                ref_key: "portable_ns",
                current_ref: r.portable_ns,
                tier_sensitive: true,
            }));
            metrics.push(GatedMetric {
                case: format!("sim_loop/{}", sim_loop.case),
                key: "run_batched8_ns",
                current: sim_loop.run_batched8_ns,
                ref_key: "run_ns",
                current_ref: sim_loop.run_ns,
                tier_sensitive: false,
            });
            // The faulty execution normalizes against the fault-free
            // execution of the same graph in the same run: the gated ratio
            // is the checkpoint + recovery overhead itself, and the cut
            // schedule is deterministic per seed.
            metrics.push(GatedMetric {
                case: format!("checkpoint_loop/{}", checkpoint_loop.case),
                key: "recovery_ns",
                current: checkpoint_loop.recovery_ns,
                ref_key: "fault_free_ns",
                current_ref: checkpoint_loop.fault_free_ns,
                tier_sensitive: false,
            });
            // The 1-worker serving replay normalizes against the admitted
            // requests run one at a time on the planned path in the same
            // run; the 4-worker numbers stay ungated (runner core counts
            // vary).
            metrics.push(GatedMetric {
                case: format!("serve_loop/{}", serve_loop.case),
                key: "serve1_ns",
                current: serve_loop.serve1_ns,
                ref_key: "planned_single_ns",
                current_ref: serve_loop.planned_single_ns,
                tier_sensitive: false,
            });
            // The bounded-queue degrade replay normalizes against the
            // reject replay of the identical stream in the same run: the
            // gated ratio is the pressure-mapping overhead itself (both
            // policies plan the same arrivals; degrade additionally walks
            // the pressure/deadline caps per request).
            metrics.push(GatedMetric {
                case: format!("overload_loop/{}", overload_loop.case),
                key: "degrade1_ns",
                current: overload_loop.degrade1_ns,
                ref_key: "reject1_ns",
                current_ref: overload_loop.reject1_ns,
                tier_sensitive: false,
            });
            // The 1-worker fleet normalizes against the same devices
            // streamed sequentially (no worker scope) in the same run — the
            // gated ratio is the shard/spawn/merge overhead itself. The
            // 4-worker replay stays ungated (runner core counts vary).
            metrics.push(GatedMetric {
                case: format!("fleet_loop/{}", fleet_loop.case),
                key: "fleet1_ns",
                current: fleet_loop.fleet1_ns,
                ref_key: "sequential_ns",
                current_ref: fleet_loop.sequential_ns,
                tier_sensitive: false,
            });
            metrics
        };
        let metrics = gated(
            &results,
            &batch_results,
            &train_results,
            &quant_results,
            &policy_eval,
            &search_loop,
            &simd_results,
            &sim_loop,
            &checkpoint_loop,
            &serve_loop,
            &overload_loop,
            &fleet_loop,
        );
        println!("\n# --check against {path} (15 % tolerance)\n");
        let mut regressions = check_against_baseline(&baseline, &metrics, 1.15);
        const CONFIRM_ATTEMPTS: usize = 2;
        for attempt in 0..CONFIRM_ATTEMPTS {
            if regressions.is_empty() {
                break;
            }
            println!(
                "\nconfirming {} suspected regression(s), re-measurement {} of \
                 {CONFIRM_ATTEMPTS}\n",
                regressions.len(),
                attempt + 1
            );
            let (r2, b2, t2, q2, p2, s2, k2, l2, c2, v2, o2, f2) = measure_all();
            let confirmed = check_against_baseline(
                &baseline,
                &gated(&r2, &b2, &t2, &q2, &p2, &s2, &k2, &l2, &c2, &v2, &o2, &f2),
                1.15,
            );
            // Keep only metrics that regressed again, carrying the freshest
            // measurement so the failure report shows confirmed numbers.
            regressions = confirmed
                .into_iter()
                .filter(|c| regressions.iter().any(|r| r.id == c.id))
                .collect();
        }
        if !regressions.is_empty() {
            eprintln!("perf regression gate FAILED (confirmed on every re-measurement):");
            for r in &regressions {
                let ratio_note = match r.ratios {
                    Some((base_ratio, current_ratio)) => format!(
                        "reference ratio {base_ratio:.3} -> {current_ratio:.3} \
                         ({:+.1} %)",
                        (current_ratio / base_ratio - 1.0) * 100.0
                    ),
                    None => "no same-run reference, absolute ns decided".to_string(),
                };
                eprintln!(
                    "  {}: baseline {:.0} ns -> current {} ns ({:+.1} %), {}",
                    r.id,
                    r.baseline_ns,
                    r.current_ns,
                    (r.current_ns as f64 / r.baseline_ns - 1.0) * 100.0,
                    ratio_note
                );
            }
            std::process::exit(1);
        }
        println!("\nperf regression gate passed ({} metrics checked)", metrics.len());
    }
}

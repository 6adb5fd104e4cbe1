//! The benchmark's catalogue: every workload and metric, with the
//! documentation `BENCHMARK.json` has no room for (loop type and load of a
//! workload; layer, workload and steered end-to-end metric of a per-layer
//! metric). `--describe` prints the `BENCHMARK.json` this table implies and
//! `--catalogue` prints the whole table, so the two cannot drift apart.

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command the benchmark is run with, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Marks a metric that every workload reports.
pub const ALL: &str = "all";

/// Which direction of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    /// `closed` (the next operation starts when the last one ends) or
    /// `open` (operations arrive on a schedule).
    pub loop_kind: &'static str,
    /// Rate or thread count.
    pub load: &'static str,
    /// Why the workload exists: which layers it stresses.
    pub why: &'static str,
}

impl Workload {
    /// The one-line `why` of `BENCHMARK.json`: loop type, load, reason.
    pub fn summary(&self) -> String {
        format!("{} loop, {}: {}", self.loop_kind, self.load, self.why)
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_pipeline",
        loop_kind: "closed",
        load: "1 thread",
        why: "the paper's flow from one seed (search, finetune, evaluate, quantize, simulate, \
              adapt, baseline); rl, search, compress and nn training do their work here",
    },
    Workload {
        name: "fleet_mixed",
        loop_kind: "closed",
        load: "1 worker",
        why: "1024 mixed devices per fleet run; core::fleet, energy traces and mcu fault plans do \
              all the work, nn and serve none",
    },
    Workload {
        name: "serve_lenet_i8",
        loop_kind: "open",
        load: "2000 req/s Poisson between bursts; 1 worker",
        why: "int8 LeNet via serve windows and runtime admission; latency runs from submit, not \
              due time (Response has no completion stamp)",
    },
];

/// One metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed regression share for end-to-end metrics; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
    /// The layer (workspace crate) a per-layer metric measures.
    pub layer: &'static str,
    /// The workload the metric is measured on, or [`ALL`].
    pub workload: &'static str,
    /// The end-to-end metric a per-layer metric should move.
    pub moves: &'static str,
    /// What is measured.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), layer: "", workload: ALL, moves: "", what }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    workload: &'static str,
    moves: &'static str,
    what: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: None, layer, workload, moves, what }
}

use Better::{Higher, Lower};

const PIPE: &str = "paper_pipeline";
const FLEET: &str = "fleet_mixed";
const SERVE: &str = "serve_lenet_i8";

/// End-to-end metrics: reported by every workload in untraced runs. Wall
/// times come from the fast decile of a run's operations or set-ups (see
/// `stats::fast_decile`), except open-loop request latency, which is the
/// median over the one-second segments of the schedule whose generator kept
/// to time.
pub const END_TO_END: [Metric; 5] = [
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "fast decile of 15 set-ups spread over the run: network build, quantize and pack, plan \
         warm-up, input generation (fleet: model build plus a 64-device warm-up fleet run)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.1,
        "peak resident set size after set-up and the run's first few operations",
    ),
    e2e(
        "throughput_per_s",
        "1/s",
        Higher,
        0.25,
        "pipeline: pipelines per second; fleet: device-steps per second; serve: requests per \
         second in the saturation bursts (capacity)",
    ),
    e2e(
        "latency_ms",
        "ms",
        Lower,
        0.25,
        "pipeline: wall time of one pipeline; fleet: wall time of one fleet run; serve: median \
         open-loop request latency from submit to completion, median over the valid segments",
    ),
    e2e(
        "accuracy_all_events",
        "share",
        Higher,
        0.05,
        "deterministic for a seed; pipeline: the Q-learning runtime's accuracy over all \
         events; fleet: FleetAccumulator::accuracy_all_events; serve: calibrated accuracy of \
         the served exits over all open-loop requests",
    ),
];

/// Per-layer metrics: reported in traced runs. A workload reports 0 for
/// the metrics of the other workloads.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 52] = [
    // paper_pipeline
    layer("search.run_s", "s", Lower, "search", PIPE, "latency_ms", "median DdpgCompressionSearch::run span"),
    layer("search.env_evaluate_ms", "ms", Lower, "search", PIPE, "latency_ms", "one CompressionEnv::evaluate of the searched policy"),
    layer("search.episodes", "count", Higher, "search", PIPE, "latency_ms", "episodes per search"),
    layer("rl.update_ms", "ms", Lower, "rl", PIPE, "latency_ms", "one DdpgAgent::update at the search's batch size and hidden width"),
    layer("compress.finetune_s", "s", Lower, "compress", PIPE, "latency_ms", "median finetune_compressed span"),
    layer("nn.train_step_us", "us", Lower, "nn", PIPE, "latency_ms", "fake-quant batched train step, per sample"),
    layer("nn.train_gbps", "GB/s", Higher, "nn", PIPE, "latency_ms", "BackwardPlan::traffic_bytes over the per-sample step time"),
    layer("compress.evaluate_ms", "ms", Lower, "compress", PIPE, "latency_ms", "median PolicyEvaluator::evaluate_batched span"),
    layer("compress.apply_quantized_ms", "ms", Lower, "compress", PIPE, "latency_ms", "median apply_policy_quantized span"),
    layer("core.sim_run_ms", "ms", Lower, "core", PIPE, "latency_ms", "median EventLoopSimulator::run span (greedy policy)"),
    layer("runtime.adaptation_ms", "ms", Lower, "runtime", PIPE, "latency_ms", "median RuntimeAdaptation::run span"),
    layer("baselines.run_ms", "ms", Lower, "baselines", PIPE, "latency_ms", "median BaselineRunner::run(sonic_net) span"),
    layer("core.ie_pmj", "1/mJ", Higher, "core", PIPE, "accuracy_all_events", "IEpmJ of the greedy runtime; deterministic for a seed"),
    // fleet_mixed
    layer("core.fleet.device_us", "us", Lower, "core", FLEET, "throughput_per_s", "mean simulate_device_into time per device, sequential"),
    layer("core.fleet.faulted_device_us", "us", Lower, "core", FLEET, "throughput_per_s", "the same over devices DeviceSpec::derive marks faulty"),
    layer("core.fleet.fault_free_device_us", "us", Lower, "core", FLEET, "throughput_per_s", "the same over fault-free devices"),
    layer("energy.trace_build_us.solar", "us", Lower, "energy", FLEET, "throughput_per_s", "mean solar trace construction"),
    layer("energy.trace_build_us.kinetic", "us", Lower, "energy", FLEET, "throughput_per_s", "mean kinetic-burst trace construction"),
    layer("energy.trace_build_us.stochastic", "us", Lower, "energy", FLEET, "throughput_per_s", "mean stochastic-arrival trace construction"),
    layer("energy.advance_ns", "ns", Lower, "energy", FLEET, "throughput_per_s", "HarvestSimulator::advance_to per event"),
    layer("energy.events_generate_us", "us", Lower, "energy", FLEET, "throughput_per_s", "EventGenerator::generate per device"),
    layer("core.fleet.merge_us", "us", Lower, "core", FLEET, "throughput_per_s", "FleetAccumulator::merge of one device's aggregate"),
    layer("core.fleet.shard_skew", "ratio", Lower, "core", FLEET, "throughput_per_s", "slowest over fastest of min(2, nproc) contiguous shards, timed sequentially"),
    layer("core.fleet.processed_share", "share", Higher, "core", FLEET, "accuracy_all_events", "processed over all events of a fleet run"),
    layer("mcu.recovered_boots", "count", Lower, "mcu", FLEET, "accuracy_all_events", "recovered boots per fleet run"),
    // serve_lenet_i8
    layer("serve.latency_p99_ms", "ms", Lower, "serve", SERVE, "latency_ms", "p99 open-loop request latency, median over the valid one-second segments"),
    layer("serve.wait_p50_ms", "ms", Lower, "serve", SERVE, "latency_ms", "median window wait, open-loop phase"),
    layer("serve.wait_p99_ms", "ms", Lower, "serve", SERVE, "latency_ms", "p99 window wait, open-loop phase"),
    layer("serve.batch_fill", "req/batch", Higher, "serve", SERVE, "throughput_per_s", "mean batch fill in the saturation bursts"),
    layer("serve.worker_busy_share", "share", Higher, "serve", SERVE, "throughput_per_s", "compute_s over makespan in the saturation bursts"),
    layer("serve.submit_us", "us", Lower, "serve", SERVE, "latency_ms", "median LiveHandle::submit call, open-loop phase"),
    layer("serve.generator_late_p99_ms", "ms", Lower, "serve", SERVE, "latency_ms", "p99 lateness of a submission against its due time"),
    layer("runtime.admit_ns", "ns", Lower, "runtime", SERVE, "throughput_per_s", "one LatencyAdmission::admit"),
    layer("nn.qforward_us.b1.exit1", "us", Lower, "nn", SERVE, "latency_ms", "forward_to_exit_batch_with, int8, batch 1, exit 1"),
    layer("nn.qforward_us.b1.exit2", "us", Lower, "nn", SERVE, "latency_ms", "the same to exit 2"),
    layer("nn.qforward_us.b1.exit3", "us", Lower, "nn", SERVE, "latency_ms", "the same to exit 3"),
    layer("nn.qforward_us.b8.exit1", "us", Lower, "nn", SERVE, "throughput_per_s", "forward_to_exit_batch_with, int8, one batch of 8, exit 1"),
    layer("nn.qforward_us.b8.exit2", "us", Lower, "nn", SERVE, "throughput_per_s", "the same to exit 2"),
    layer("nn.qforward_us.b8.exit3", "us", Lower, "nn", SERVE, "throughput_per_s", "the same to exit 3"),
    layer("nn.qforward_gops.exit1", "GFLOP/s", Higher, "nn", SERVE, "throughput_per_s", "exact ie_nn::spec FLOPs over the batch-8 time, exit 1 (covers tensor)"),
    layer("nn.qforward_gops.exit2", "GFLOP/s", Higher, "nn", SERVE, "throughput_per_s", "the same to exit 2"),
    layer("nn.qforward_gops.exit3", "GFLOP/s", Higher, "nn", SERVE, "throughput_per_s", "the same to exit 3"),
    layer("nn.flops.exit1", "count", Lower, "nn", SERVE, "throughput_per_s", "exact ie_nn::spec FLOPs to exit 1"),
    layer("nn.flops.exit2", "count", Lower, "nn", SERVE, "throughput_per_s", "exact ie_nn::spec FLOPs to exit 2"),
    layer("nn.flops.exit3", "count", Lower, "nn", SERVE, "throughput_per_s", "exact ie_nn::spec FLOPs to exit 3"),
    layer("nn.ns_per_flop.exit1", "ns", Lower, "nn", SERVE, "latency_ms", "batch-1 time over spec FLOPs, exit 1"),
    layer("nn.ns_per_flop.exit2", "ns", Lower, "nn", SERVE, "latency_ms", "the same to exit 2"),
    layer("nn.ns_per_flop.exit3", "ns", Lower, "nn", SERVE, "latency_ms", "the same to exit 3"),
    layer("mcu.cost_model_share_err.exit1", "share", Lower, "mcu", SERVE, "latency_ms", "measured batch-1 time share of exit 1 minus the share DeployedModel::exit_latency_s predicts"),
    layer("mcu.cost_model_share_err.exit2", "share", Lower, "mcu", SERVE, "latency_ms", "the same for exit 2"),
    layer("mcu.cost_model_share_err.exit3", "share", Lower, "mcu", SERVE, "latency_ms", "the same for exit 3"),
    // all workloads
    layer("trace_overhead_share", "share", Lower, "perfbench", ALL, "latency_ms", "calibrated span-recording cost over the traced loop's wall time"),
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks up a metric by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// JSON string literal of `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The `BENCHMARK.json` this catalogue implies.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why = w.summary();
            assert!(why.len() <= 200, "workload {} has a why of {} chars", w.name, why.len());
            format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(&why))
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_list(&COMMAND),
        json_list(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The whole catalogue as JSON, including the fields `BENCHMARK.json`
/// cannot hold.
pub fn catalogue_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"loop\": {}, \"load\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.loop_kind),
                json_str(w.load),
                json_str(w.why)
            )
        })
        .collect();
    let metrics: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| {
            let bound = m.bound.map_or("null".to_string(), |b| b.to_string());
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"layer\": {}, \
                 \"workload\": {}, \"moves\": {}, \"what\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.name()),
                bound,
                json_str(if m.layer.is_empty() { "end_to_end" } else { m.layer }),
                json_str(m.workload),
                json_str(m.moves),
                json_str(m.what)
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics.join(",\n")
    )
}

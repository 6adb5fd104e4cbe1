//! `serve_lenet_i8`: `Server::run_live` with one worker serving the LeNet
//! backbone compressed by the fixed i8-dominant policy through the integer
//! engine, admitted by the static-LUT table. One generator thread drives
//! two phases: (a) an open-loop Poisson schedule in the light-load regime,
//! where windows close on their deadline, and (b) saturation bursts that
//! submit a whole stream at once, where windows close on size.

use crate::cpu::Cpus;
use crate::stats::{self, median, percentile, BenchResult, Measured};
use crate::trace::Tracer;
use ie_bench::experiments::reference_nonuniform_policy;
use ie_compress::apply::apply_policy_quantized;
use ie_core::{DeployedModel, ExperimentConfig};
use ie_energy::fork_seed;
use ie_nn::dataset::Sample;
use ie_nn::quant::QuantConfig;
use ie_nn::train::QuantPlanPool;
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{Response, ServeConfig, ServeOutcome, ServeReport, Server, Verdict, WindowConfig};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Open-loop arrival rate of phase (a), requests per second.
const RATE_RPS: f64 = 2000.0;
/// The batching window: up to 8 requests or 0.25 ms after the first.
const WINDOW: WindowConfig = WindowConfig { max_batch: 8, deadline_s: 0.000_25 };
/// Distinct request inputs.
const INPUTS: usize = 256;
/// Calibration inputs for the activation ranges (a prefix of the inputs).
const CALIBRATION: usize = 16;
/// Share of the run's seconds the open-loop phase is scheduled over.
const OPEN_SHARE: f64 = 0.6;
/// Seconds of schedule per open-loop segment; each segment is one
/// `run_live`, and latencies are reported as medians over segments.
const SEGMENT_S: f64 = 1.0;
/// Requests per saturation burst.
const BURST: usize = 2048;
/// Saturation bursts per run at least.
const MIN_BURSTS: usize = 3;
/// Per-exit latency table of the admission LUT. Fixed, so each admission
/// is a pure function of the request's budget and never of machine speed.
const EXIT_COST_S: [f64; 3] = [0.02, 0.04, 0.08];
/// The budgets requests draw from: each admits a different exit, and each
/// is far above what an open-loop request takes to serve.
const BUDGETS_S: [f64; 3] = [0.03, 0.06, 0.15];

/// Seeds derived from the run seed.
pub fn seeds(seed: u64) -> Vec<(&'static str, u64)> {
    vec![("network_and_inputs", fork_seed(seed, &[1])), ("schedule", fork_seed(seed, &[2]))]
}

/// One open-loop request: when it is due (seconds after its segment
/// starts), its budget and its input.
struct Planned {
    due_s: f64,
    budget_s: f64,
    input: usize,
}

struct Fixture {
    net: MultiExitNetwork,
    quant: QuantConfig,
    pool: QuantPlanPool,
    inputs: Vec<Tensor>,
    open: Vec<Planned>,
    /// The open-loop requests of each segment, as ranges of `open`.
    segments: Vec<Range<usize>>,
    burst_budgets: Vec<f64>,
    deployed: DeployedModel,
}

fn admission(deployed: &DeployedModel) -> BenchResult<LatencyAdmission> {
    Ok(LatencyAdmission::static_lut(
        EXIT_COST_S.to_vec(),
        deployed.exit_accuracies(),
        StateDiscretizer::paper_default(),
    )?)
}

fn setup(seed: u64, seconds: f64) -> BenchResult<Fixture> {
    let experiment = ExperimentConfig::paper_default();
    let arch = &experiment.architecture;
    let policy = reference_nonuniform_policy(&arch.compressible_layers());
    let deployed = DeployedModel::from_policy(&experiment, &policy)?;
    let mut probe = admission(&deployed)?;
    for (exit, budget) in BUDGETS_S.iter().enumerate() {
        if probe.admit(0, *budget) != Some(exit) {
            return Err(format!("budget {budget} s does not admit exit {}", exit + 1).into());
        }
    }

    let mut rng = StdRng::seed_from_u64(fork_seed(seed, &[1]));
    let mut net = MultiExitNetwork::from_architecture(arch, &mut rng)?;
    let inputs: Vec<Tensor> =
        (0..INPUTS).map(|_| Tensor::randn(&mut rng, &arch.input_dims(), 0.0, 1.0)).collect();
    let calibration: Vec<Sample> = inputs[..CALIBRATION]
        .iter()
        .map(|image| Sample { image: image.clone(), label: 0 })
        .collect();
    let quant = apply_policy_quantized(&mut net, &policy, &calibration)?;

    // Pack the worker plan and warm it on every exit.
    let mut pool = QuantPlanPool::new();
    let mut plan = pool.take(&net, &quant, WINDOW.max_batch)?;
    let batch: Vec<&Tensor> = inputs[..WINDOW.max_batch].iter().collect();
    for exit in 0..net.num_exits() {
        net.forward_to_exit_batch_with(&mut plan, &batch, exit)?;
    }
    pool.put(plan);

    let mut rng = StdRng::seed_from_u64(fork_seed(seed, &[2]));
    let budget = |rng: &mut StdRng| BUDGETS_S[rng.gen_range(0..BUDGETS_S.len())];
    let (mut open, mut segments) = (Vec::new(), Vec::new());
    for _ in 0..((seconds * OPEN_SHARE / SEGMENT_S).round() as usize).max(1) {
        let start = open.len();
        let mut due_s = -(1.0 - rng.gen::<f64>()).ln() / RATE_RPS;
        while due_s < SEGMENT_S {
            open.push(Planned {
                due_s,
                budget_s: budget(&mut rng),
                input: rng.gen_range(0..INPUTS),
            });
            due_s += -(1.0 - rng.gen::<f64>()).ln() / RATE_RPS;
        }
        segments.push(start..open.len());
    }
    let burst_budgets = (0..BURST).map(|_| budget(&mut rng)).collect();
    Ok(Fixture { net, quant, pool, inputs, open, segments, burst_budgets, deployed })
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> BenchResult<Measured> {
    let mut setups = stats::Setups::new(seconds, || setup(seed, seconds));
    let mut fx = setups.run()?;
    let mut admission = admission(&fx.deployed)?;
    let config = ServeConfig::new(WINDOW, 1);
    let mut server = Server::new_quantized(&fx.net, &fx.quant, config, &mut fx.pool)?;
    let mut out = Measured::default();
    let started = Instant::now();

    // The run is cut into one slot per open-loop segment: each slot runs its
    // phase (a) segment, then phase (b) bursts until the slot's time is up,
    // so both phases sample the whole run.
    let slot_s = seconds / fx.segments.len() as f64;
    let cpus = Cpus::allowed()?;
    let mut late_s = Vec::with_capacity(fx.open.len());
    let mut submit_s = Vec::with_capacity(fx.open.len());
    let mut failure = None;
    let mut open: Vec<ServeOutcome> = Vec::with_capacity(fx.segments.len());
    let (mut capacity, mut fill, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    let mut bursts: Vec<ServeOutcome> = Vec::new();
    for (segment, ids) in fx.segments.iter().enumerate() {
        // Phase (a): one open-loop segment per live run, on any CPU. The
        // generator spins to each due time: on a shared host, waking a
        // sleeping vCPU can take longer than the window deadline.
        cpus.unpin()?;
        let outcome = tracer.span("serve.open_loop", segment as u64, |t| {
            server.run_live(&mut admission, |handle| {
                let origin = Instant::now();
                for id in ids.clone() {
                    let request = &fx.open[id];
                    let due = origin + Duration::from_secs_f64(request.due_s);
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let input = fx.inputs[request.input].clone();
                    let start = Instant::now();
                    let submitted = t.span("serve.submit", id as u64, |_| {
                        handle.submit(id as u64, request.budget_s, input)
                    });
                    submit_s.push(start.elapsed().as_secs_f64());
                    late_s.push(start.saturating_duration_since(due).as_secs_f64());
                    if let Err(e) = submitted {
                        failure = Some(e);
                        return;
                    }
                }
            })
        })?;
        if let Some(e) = failure {
            return Err(e.into());
        }
        open.push(outcome);
        setups.between_operations(started.elapsed().as_secs_f64())?;

        // Phase (b): saturation bursts, the whole stream submitted at once.
        // Each burst's worker is pinned to the next CPU in turn (it inherits
        // the generator's mask when spawned) and the generator moves to the
        // CPU after it, so capacity is sampled on every CPU.
        let last = segment + 1 == fx.segments.len();
        let slot_end_s = (segment + 1) as f64 * slot_s;
        while started.elapsed().as_secs_f64() < slot_end_s || (last && bursts.len() < MIN_BURSTS)
        {
            let turn = bursts.len();
            let first_id = (fx.open.len() + turn * BURST) as u64;
            cpus.pin(turn)?;
            let mut pinned = Ok(());
            let start = Instant::now();
            let outcome = tracer.span("serve.burst", turn as u64, |_| {
                server.run_live(&mut admission, |handle| {
                    pinned = cpus.pin(turn + 1);
                    for (j, budget) in fx.burst_budgets.iter().enumerate() {
                        let input = fx.inputs[j % INPUTS].clone();
                        if let Err(e) = handle.submit(first_id + j as u64, *budget, input) {
                            failure = Some(e);
                            return;
                        }
                    }
                })
            })?;
            let wall_s = start.elapsed().as_secs_f64();
            if let Some(e) = failure {
                return Err(e.into());
            }
            pinned?;
            capacity.push(outcome.report.throughput_rps);
            fill.push(outcome.report.mean_batch_fill);
            busy.push(outcome.report.compute_s / wall_s);
            bursts.push(outcome);
            if bursts.len() == MIN_BURSTS {
                out.peak_rss_mb = stats::peak_rss_mb()?;
            }
            setups.between_operations(started.elapsed().as_secs_f64())?;
        }
    }
    out.loop_s = started.elapsed().as_secs_f64();
    cpus.unpin()?;
    drop(server);

    // Correctness: conservation, exits within admission, and predictions
    // equal to the single-input integer plan's.
    let mut reference = Reference::new(&fx)?;
    let budgets: Vec<f64> = fx.open.iter().map(|r| r.budget_s).collect();
    let inputs: Vec<usize> = fx.open.iter().map(|r| r.input).collect();
    for (outcome, ids) in open.iter().zip(&fx.segments) {
        let (b, i) = (&budgets[ids.clone()], &inputs[ids.clone()]);
        verify(&mut out, &mut reference, outcome, ids.start as u64, b, i, "open loop")?;
    }
    let burst_inputs: Vec<usize> = (0..BURST).map(|j| j % INPUTS).collect();
    for (b, burst) in bursts.iter().enumerate() {
        let first_id = (fx.open.len() + b * BURST) as u64;
        verify(
            &mut out,
            &mut reference,
            burst,
            first_id,
            &fx.burst_budgets,
            &burst_inputs,
            "burst",
        )?;
    }

    // A request fails when the server refuses it (rejected or shed); every
    // budget admits an exit and the queue is unbounded, so none should.
    // Meeting budgets and keeping to the schedule depend on how the host
    // schedules the run, not on the program, so they are reported, not
    // counted as failures. An open-loop segment whose generator ran late
    // beyond the window deadline at p99 measured the generator, not the
    // server: it is reported invalid and left out of the latency figures
    // (unless no segment kept to time).
    let late_p99_s = percentile(&late_s, 0.99);
    let kept_time =
        |ids: &Range<usize>| percentile(&late_s[ids.clone()], 0.99) <= WINDOW.deadline_s;
    let reports = || open.iter().chain(&bursts).map(|o| &o.report);
    out.failed = reports().map(|r| (r.rejected + r.shed) as u64).sum();
    out.attempted = reports().map(|r| r.submitted as u64).sum();
    let mut valid: Vec<&ServeReport> = open
        .iter()
        .zip(&fx.segments)
        .filter(|&(_, ids)| kept_time(ids))
        .map(|(o, _)| &o.report)
        .collect();
    let over_budget: usize = valid.iter().map(|r| r.served - r.deadline_met).sum();
    out.note(format!(
        "open loop: {over_budget} requests served past their budget in segments that kept to time"
    ));
    if valid.len() < open.len() {
        out.note(format!(
            "INVALID: the open-loop generator ran late beyond the {:.3} ms window deadline at p99 \
             in {} of {} segments; they are left out of the latency figures",
            WINDOW.deadline_s * 1e3,
            open.len() - valid.len(),
            open.len()
        ));
    }
    if valid.is_empty() {
        valid = open.iter().map(|o| &o.report).collect();
    }
    let accuracy = open
        .iter()
        .flat_map(|o| &o.responses)
        .map(|r| match r.verdict {
            Verdict::Served { exit, .. } => fx.deployed.exit_accuracy(exit),
            _ => 0.0,
        })
        .sum::<f64>()
        / fx.open.len() as f64;
    let per_segment =
        |f: fn(&ServeReport) -> f64| median(&valid.iter().map(|r| f(r)).collect::<Vec<_>>());
    out.note(format!(
        "open loop: {} requests at {RATE_RPS} req/s in {} segments, generator late p99 {:.4} ms | \
         bursts: {} of {BURST} requests, capacity median {:.0} req/s",
        fx.open.len(),
        open.len(),
        late_p99_s * 1e3,
        bursts.len(),
        median(&capacity)
    ));
    let by_cpu: Vec<String> = (0..cpus.count())
        .map(|c| {
            let on_cpu: Vec<f64> = capacity.iter().skip(c).step_by(cpus.count()).copied().collect();
            format!("{:.0}", percentile(&on_cpu, 0.9))
        })
        .collect();
    out.note(format!("burst capacity p90 by worker CPU, req/s: {}", by_cpu.join(" ")));

    if tracer.enabled() {
        out.set("serve.latency_p99_ms", per_segment(|r| r.latency_p99_s) * 1e3);
        out.set("serve.wait_p50_ms", per_segment(|r| r.wait_p50_s) * 1e3);
        out.set("serve.wait_p99_ms", per_segment(|r| r.wait_p99_s) * 1e3);
        out.set("serve.batch_fill", median(&fill));
        out.set("serve.worker_busy_share", median(&busy));
        out.set("serve.submit_us", median(&submit_s) * 1e6);
        out.set("serve.generator_late_p99_ms", late_p99_s * 1e3);
        probe_inner_layers(&fx, &budgets, &mut out)?;
    } else {
        out.set("setup_s", setups.fast_decile_s());
        out.set("throughput_per_s", percentile(&capacity, 0.9));
        out.set("latency_ms", per_segment(|r| r.latency_p50_s) * 1e3);
        out.set("accuracy_all_events", accuracy);
    }
    Ok(out)
}

/// Predictions of the single-input integer plan, per (input, exit).
struct Reference<'f> {
    fx: &'f Fixture,
    plan: ie_nn::ExecutionPlan,
    admission: LatencyAdmission,
    predictions: HashMap<(usize, usize), usize>,
}

impl<'f> Reference<'f> {
    fn new(fx: &'f Fixture) -> BenchResult<Self> {
        Ok(Reference {
            fx,
            plan: fx.net.execution_plan_quantized(&fx.quant)?,
            admission: admission(&fx.deployed)?,
            predictions: HashMap::new(),
        })
    }

    fn prediction(&mut self, input: usize, exit: usize) -> BenchResult<usize> {
        if let Some(p) = self.predictions.get(&(input, exit)) {
            return Ok(*p);
        }
        let p = self
            .fx
            .net
            .forward_to_exit_with(&mut self.plan, &self.fx.inputs[input], exit)?
            .prediction;
        self.predictions.insert((input, exit), p);
        Ok(p)
    }
}

/// Checks one serving run: conservation, one response per request id, every
/// served exit at most the exit admission grants, and every prediction equal
/// to the single-input plan's.
fn verify(
    out: &mut Measured,
    reference: &mut Reference<'_>,
    outcome: &ServeOutcome,
    first_id: u64,
    budgets: &[f64],
    inputs: &[usize],
    phase: &str,
) -> BenchResult<()> {
    out.check(outcome.report.conservation_holds(), format!("{phase}: requests not conserved"));
    let ids_match = outcome.responses.len() == budgets.len()
        && outcome.responses.iter().enumerate().all(|(i, r)| r.id == first_id + i as u64);
    out.check(ids_match, format!("{phase}: responses do not match the submitted ids"));
    if !ids_match {
        return Ok(());
    }
    let (mut over_admitted, mut mispredicted) = (0usize, 0usize);
    for (i, Response { id, verdict }) in outcome.responses.iter().enumerate() {
        if let Verdict::Served { exit, prediction, .. } = *verdict {
            let admitted = reference.admission.admit(*id, budgets[i]);
            if admitted.is_none_or(|a| exit > a) {
                over_admitted += 1;
            }
            if prediction != reference.prediction(inputs[i], exit)? {
                mispredicted += 1;
            }
        }
    }
    out.check(
        over_admitted == 0,
        format!("{phase}: {over_admitted} served past their admitted exit"),
    );
    out.check(
        mispredicted == 0,
        format!("{phase}: {mispredicted} predictions differ from the plan's"),
    );
    Ok(())
}

/// Times the layers serving reaches only through `serve`: admission and the
/// integer forward per exit at batch 1 and 8 on the served inputs, with the
/// FLOP-linear cost model's per-exit time shares beside the measured ones.
fn probe_inner_layers(fx: &Fixture, budgets: &[f64], out: &mut Measured) -> BenchResult<()> {
    let mut admission = admission(&fx.deployed)?;
    let start = Instant::now();
    for (i, budget) in budgets.iter().enumerate() {
        std::hint::black_box(admission.admit(i as u64, *budget));
    }
    out.set("runtime.admit_ns", start.elapsed().as_secs_f64() * 1e9 / budgets.len() as f64);

    let net = &fx.net;
    let mut plan = net.batch_plan_quantized(&fx.quant, WINDOW.max_batch)?;
    let batch: Vec<&Tensor> = fx.inputs[..WINDOW.max_batch].iter().collect();
    let exits = net.num_exits();
    let mut single_s = Vec::with_capacity(exits);
    for exit in 0..exits {
        let b1 = stats::median_time_s(200, || {
            net.forward_to_exit_batch_with(&mut plan, &batch[..1], exit).map(drop)
        })?;
        let b8 = stats::median_time_s(100, || {
            net.forward_to_exit_batch_with(&mut plan, &batch, exit).map(drop)
        })?;
        let flops = net.architecture().flops_to_exit(exit) as f64;
        let name = |metric: &str| per_exit_name(metric, exit);
        out.set(name("nn.qforward_us.b1"), b1 * 1e6);
        out.set(name("nn.qforward_us.b8"), b8 * 1e6);
        out.set(name("nn.qforward_gops"), flops * batch.len() as f64 / (b8 * 1e9));
        out.set(name("nn.flops"), flops);
        out.set(name("nn.ns_per_flop"), b1 * 1e9 / flops);
        single_s.push(b1);
    }
    let measured_total: f64 = single_s.iter().sum();
    let predicted: Vec<f64> = (0..exits).map(|e| fx.deployed.exit_latency_s(e)).collect();
    let predicted_total: f64 = predicted.iter().sum();
    for exit in 0..exits {
        out.set(
            per_exit_name("mcu.cost_model_share_err", exit),
            single_s[exit] / measured_total - predicted[exit] / predicted_total,
        );
    }
    Ok(())
}

/// The catalogue name of a per-exit metric (`<metric>.exit<N>`, 1-based).
fn per_exit_name(metric: &str, exit: usize) -> &'static str {
    crate::catalogue::metric(&format!("{metric}.exit{}", exit + 1))
        .expect("per-exit metrics are catalogued")
        .name
}

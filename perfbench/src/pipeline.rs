//! `paper_pipeline`: the paper's flow from one seed on
//! `ExperimentConfig::paper_default()`, run back to back on one thread:
//! DDPG compression search, quantization-aware finetuning of the LeNet
//! backbone, empirical policy evaluation, integer quantization, the
//! event-loop simulation with the greedy runtime, the Q-learning runtime
//! adaptation and the SonicNet baseline.

use crate::cpu::Cpus;
use crate::stats::{self, fold, median, BenchResult, Measured};
use crate::trace::Tracer;
use ie_baselines::{BaselineNetwork, BaselineRunner};
use ie_compress::apply::apply_policy_quantized;
use ie_compress::{
    finetune_compressed, CompressionPolicy, EmpiricalAccuracyEstimator, FinetuneConfig,
    PolicyEvaluator,
};
use ie_core::policies::GreedyAffordablePolicy;
use ie_core::{DeployedModel, EventLoopSimulator, ExperimentConfig};
use ie_energy::fork_seed;
use ie_nn::dataset::Sample;
use ie_nn::quant::QuantConfig;
use ie_nn::train::BatchBackwardPlan;
use ie_nn::MultiExitNetwork;
use ie_rl::{DdpgAgent, DdpgConfig, Transition};
use ie_runtime::{AdaptationConfig, RuntimeAdaptation};
use ie_search::{CompressionEnv, DdpgCompressionSearch, RewardMode, SearchConfig, OBSERVATION_DIM};
use ie_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Search episodes per pipeline (a quarter of them random warm-up).
const SEARCH_EPISODES: usize = 40;
/// Finetuning samples (two epochs of batches of 8).
const TRAIN_SAMPLES: usize = 96;
/// Calibration samples for the activation ranges (a prefix of the train set).
const CALIBRATION_SAMPLES: usize = 16;
/// Samples the empirical accuracy estimator scores.
const EVAL_SAMPLES: usize = 64;
/// Q-learning episodes of the runtime adaptation.
const ADAPTATION_EPISODES: usize = 8;
/// Stages of one pipeline (the operations `attempted` counts).
const STAGES: u64 = 7;
/// Pipelines per run at least, however long they take.
const MIN_PIPELINES: usize = 3;

/// Seeds derived from the run seed. The search keeps the configuration's
/// own seed, like the paper environment keeps its trace and event seeds:
/// the run seed varies the data (backbone weights, training and evaluation
/// samples), so the searched policy, and with it IEpmJ and the accuracy
/// over all events, is a fixed result of the code that any change shows.
pub fn seeds(seed: u64) -> Vec<(&'static str, u64)> {
    vec![("search", SearchConfig::default().seed), ("backbone_and_samples", fork_seed(seed, &[1]))]
}

/// Everything built before the first pipeline runs.
struct Fixture {
    config: ExperimentConfig,
    env: CompressionEnv,
    backbone: MultiExitNetwork,
    train: Vec<Sample>,
    eval: Vec<Sample>,
}

fn setup(seed: u64) -> BenchResult<Fixture> {
    let config = ExperimentConfig::paper_default();
    let env = CompressionEnv::new(&config, RewardMode::ExitGuided)?;
    let mut rng = StdRng::seed_from_u64(fork_seed(seed, &[1]));
    let backbone = MultiExitNetwork::from_architecture(&config.architecture, &mut rng)?;
    let dims = config.architecture.input_dims();
    let classes = config.architecture.num_classes();
    let mut samples: Vec<Sample> = (0..TRAIN_SAMPLES + EVAL_SAMPLES)
        .map(|i| Sample { image: Tensor::randn(&mut rng, &dims, 0.0, 1.0), label: i % classes })
        .collect();
    let eval = samples.split_off(TRAIN_SAMPLES);
    Ok(Fixture { config, env, backbone, train: samples, eval })
}

/// What one pipeline produced.
struct PipelineResult {
    policy: CompressionPolicy,
    feasible: bool,
    episodes: usize,
    losses: Vec<f32>,
    quant: QuantConfig,
    finetuned: MultiExitNetwork,
    ie_pmj: f64,
    accuracy_all_events: f64,
    digest: u64,
}

fn run_once(fx: &Fixture, t: &mut Tracer, id: u64) -> BenchResult<PipelineResult> {
    let search = DdpgCompressionSearch::new(SearchConfig {
        episodes: SEARCH_EPISODES,
        warmup_episodes: SEARCH_EPISODES / 4,
        ..SearchConfig::default()
    });
    let found = t.span("search.run", id, |_| search.run(&fx.env))?;
    let policy = found.best_policy;
    let calibration = &fx.train[..CALIBRATION_SAMPLES];

    let mut net = fx.backbone.clone();
    let finetune = FinetuneConfig::for_exits(net.num_exits());
    let tuned = t.span("compress.finetune", id, |_| {
        finetune_compressed(&mut net, &policy, &fx.train, calibration, &finetune)
    })?;

    let evaluator = PolicyEvaluator::new(
        &fx.config.architecture,
        EmpiricalAccuracyEstimator::new(net.clone(), fx.eval.clone()),
    );
    let empirical = t.span("compress.evaluate", id, |_| evaluator.evaluate_batched(&policy))?;

    let mut quantized = net.clone();
    t.span("compress.apply_quantized", id, |_| {
        apply_policy_quantized(&mut quantized, &policy, calibration)
    })?;

    let deployed = DeployedModel::new(found.best_outcome.profile.clone(), fx.config.cost_model());
    let greedy = t.span("core.sim_run", id, |_| {
        EventLoopSimulator::new(&fx.config).run(&deployed, &mut GreedyAffordablePolicy::new())
    })?;
    let adaptation = t.span("runtime.adaptation", id, |_| {
        RuntimeAdaptation::new(AdaptationConfig {
            episodes: ADAPTATION_EPISODES,
            ..AdaptationConfig::default()
        })
        .run(&fx.config, &deployed)
    })?;
    let sonic = t.span("baselines.run", id, |_| {
        BaselineRunner::new(&fx.config).run(&BaselineNetwork::sonic_net())
    })?;

    let ie_pmj = greedy.ie_pmj();
    let accuracy_all_events = adaptation.final_report.accuracy_all_events();
    let mut digest = fold(0, &[ie_pmj.to_bits(), accuracy_all_events.to_bits()]);
    for l in policy.layers() {
        digest = fold(
            digest,
            &[
                u64::from(l.preserve_ratio.to_bits()),
                u64::from(l.weight_bits),
                u64::from(l.activation_bits),
            ],
        );
    }
    for a in &empirical.exit_accuracy {
        digest = fold(digest, &[a.to_bits()]);
    }
    for loss in &tuned.epoch_loss {
        digest = fold(digest, &[u64::from(loss.to_bits())]);
    }
    digest = fold(digest, &[sonic.ie_pmj().to_bits()]);

    Ok(PipelineResult {
        feasible: found.best_outcome.feasible,
        episodes: found.history.len(),
        policy,
        losses: tuned.epoch_loss,
        quant: tuned.quant,
        finetuned: net,
        ie_pmj,
        accuracy_all_events,
        digest,
    })
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> BenchResult<Measured> {
    let mut setups = stats::Setups::new(seconds, || setup(seed));
    let fx = setups.run()?;
    let mut out = Measured::default();

    // Each pipeline runs pinned to the next CPU in turn, so the fast decile
    // samples every CPU.
    let cpus = Cpus::allowed()?;
    let mut times = Vec::new();
    let mut results: Vec<PipelineResult> = Vec::new();
    let started = Instant::now();
    while results.len() < MIN_PIPELINES || started.elapsed().as_secs_f64() < seconds {
        let id = results.len() as u64;
        cpus.pin(results.len())?;
        let start = Instant::now();
        let result = tracer.span("pipeline", id, |t| run_once(&fx, t, id))?;
        times.push(start.elapsed().as_secs_f64());
        results.push(result);
        if results.len() == MIN_PIPELINES {
            out.peak_rss_mb = stats::peak_rss_mb()?;
        }
        setups.between_operations(started.elapsed().as_secs_f64())?;
    }
    out.loop_s = started.elapsed().as_secs_f64();
    cpus.unpin()?;

    let first = &results[0];
    out.attempted = STAGES * results.len() as u64;
    out.failed = results.iter().filter(|r| !r.feasible).count() as u64;
    out.check(first.feasible, "the searched policy is infeasible");
    out.check(
        results.iter().all(|r| r.losses.iter().all(|l| l.is_finite())),
        "a finetune loss is not finite",
    );
    out.check(
        results.iter().all(|r| r.digest == first.digest),
        "repeated pipelines from one seed disagree",
    );
    out.note(format!(
        "pipelines {} | result digest {:016x} | ie_pmj {} | accuracy_all_events {}",
        results.len(),
        first.digest,
        first.ie_pmj,
        first.accuracy_all_events
    ));

    if tracer.enabled() {
        let span_median = |name: &str| median(&tracer.durations_s(name));
        out.set("search.run_s", span_median("search.run"));
        out.set("search.episodes", first.episodes as f64);
        out.set("compress.finetune_s", span_median("compress.finetune"));
        out.set("compress.evaluate_ms", span_median("compress.evaluate") * 1e3);
        out.set("compress.apply_quantized_ms", span_median("compress.apply_quantized") * 1e3);
        out.set("core.sim_run_ms", span_median("core.sim_run") * 1e3);
        out.set("runtime.adaptation_ms", span_median("runtime.adaptation") * 1e3);
        out.set("baselines.run_ms", span_median("baselines.run") * 1e3);
        out.set("core.ie_pmj", first.ie_pmj);
        probe_inner_layers(&fx, seed, first, &mut out)?;
    } else {
        let fast = stats::fast_decile(&times);
        out.set("setup_s", setups.fast_decile_s());
        out.set("throughput_per_s", 1.0 / fast);
        out.set("latency_ms", fast * 1e3);
        out.set("accuracy_all_events", first.accuracy_all_events);
        out.note(format!(
            "pipeline wall time over {} pipelines: fast decile {:.1} ms, median {:.1} ms",
            times.len(),
            fast * 1e3,
            median(&times) * 1e3
        ));
    }
    Ok(out)
}

/// Times the layers the pipeline reaches only through another layer, on
/// the inputs the pipeline fed them.
fn probe_inner_layers(
    fx: &Fixture,
    seed: u64,
    result: &PipelineResult,
    out: &mut Measured,
) -> BenchResult<()> {
    // search: one environment step of the searched policy.
    let env_s = stats::median_time_s(5, || fx.env.evaluate(&result.policy).map(drop))?;
    out.set("search.env_evaluate_ms", env_s * 1e3);

    // rl: one agent update at the search's batch size and hidden width,
    // with the replay buffer as full as at the end of a search.
    let search = SearchConfig::default();
    let transitions = SEARCH_EPISODES * fx.env.num_layers();
    let mut update_s = Vec::new();
    for action_dim in [1usize, 2] {
        let mut rng = StdRng::seed_from_u64(fork_seed(seed, &[2, action_dim as u64]));
        let config = DdpgConfig { hidden: 48, ..DdpgConfig::default() };
        let mut agent = DdpgAgent::new(&mut rng, OBSERVATION_DIM, action_dim, config);
        for i in 0..transitions {
            let state: Vec<f32> = (0..OBSERVATION_DIM).map(|_| rng.gen()).collect();
            let next_state: Vec<f32> = (0..OBSERVATION_DIM).map(|_| rng.gen()).collect();
            agent.observe(Transition {
                state,
                action: (0..action_dim).map(|_| rng.gen()).collect(),
                reward: rng.gen(),
                next_state,
                done: (i + 1) % fx.env.num_layers() == 0,
            });
        }
        update_s.push(stats::median_time_s(20, || {
            agent.update(&mut rng, search.batch_size).map(drop)
        })?);
    }
    out.set("rl.update_ms", stats::mean(&update_s) * 1e3);

    // nn: the fake-quant training step finetuning runs, frozen (lr 0) so
    // every timed step does the same work.
    let mut net = result.finetuned.clone();
    let batch = &fx.train[..FinetuneConfig::for_exits(net.num_exits()).batch_size];
    let weights = FinetuneConfig::for_exits(net.num_exits()).exit_weights;
    let mut plan = BatchBackwardPlan::fake_quant(result.quant.clone());
    let step_s =
        stats::median_time_s(10, || plan.train_step(&mut net, batch, &weights, 0.0, 1).map(drop))?;
    let per_sample_ns = step_s * 1e9 / batch.len() as f64;
    let traffic = net.backward_plan_fake_quant(&result.quant)?.traffic_bytes() as f64;
    out.set("nn.train_step_us", per_sample_ns * 1e-3);
    out.set("nn.train_gbps", traffic / per_sample_ns);
    Ok(())
}

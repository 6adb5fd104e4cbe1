//! Cross-crate integration tests: the full compress → deploy → simulate
//! pipeline, the headline orderings of the paper's evaluation, and the
//! consistency of the metrics across systems.

use intermittent_multiexit::baselines::{BaselineNetwork, BaselineRunner};
use intermittent_multiexit::compress::{
    CalibratedAccuracyModel, CompressionPolicy, PolicyEvaluator,
};
use intermittent_multiexit::core::policies::GreedyAffordablePolicy;
use intermittent_multiexit::core::{DeployedModel, EventLoopSimulator, ExperimentConfig};
use intermittent_multiexit::runtime::{AdaptationConfig, RuntimeAdaptation};
use intermittent_multiexit::search::{best_uniform_policy, CompressionEnv, RewardMode};

/// The reference nonuniform policy used throughout the integration tests
/// (identical in spirit to Fig. 4: keep exit-1 layers wide, prune deep convs,
/// 1-bit for the two large FC layers).
fn nonuniform_policy(config: &ExperimentConfig) -> CompressionPolicy {
    use intermittent_multiexit::compress::LayerPolicy;
    config
        .architecture
        .compressible_layers()
        .iter()
        .map(|l| {
            if l.is_conv {
                if l.first_exit() == 0 {
                    LayerPolicy::new(0.5, 8, 8).expect("valid policy")
                } else {
                    LayerPolicy::new(0.25, 4, 8).expect("valid policy")
                }
            } else if l.weight_params > 20_000 {
                LayerPolicy::new(0.35, 1, 8).expect("valid policy")
            } else {
                LayerPolicy::new(0.5, 2, 8).expect("valid policy")
            }
        })
        .collect()
}

#[test]
fn full_precision_model_cannot_be_deployed_but_compressed_model_can() {
    let config = ExperimentConfig::paper_default();
    let reference = DeployedModel::uncompressed_reference(&config).expect("reference builds");
    assert!(reference.check_fits(&config.device).is_err(), "fp32 model must exceed 16 KB");

    let compressed =
        DeployedModel::from_policy(&config, &nonuniform_policy(&config)).expect("policy evaluates");
    assert!(compressed.check_fits(&config.device).is_ok());
    assert!(compressed.total_flops() <= config.flops_target);
}

#[test]
fn nonuniform_compression_dominates_uniform_compression_per_exit() {
    // The Fig. 1(b) claim, end to end: under the same MCU constraints the
    // nonuniform policy keeps every exit more accurate than the best uniform
    // policy the grid search can find.
    let config = ExperimentConfig::paper_default();
    let env = CompressionEnv::new(&config, RewardMode::ExitGuided).expect("env builds");
    let (_, uniform) = best_uniform_policy(&env, 8).expect("uniform search succeeds");
    let nonuniform = env.evaluate(&nonuniform_policy(&config)).expect("evaluates");
    assert!(uniform.feasible && nonuniform.feasible);
    for (exit, (n, u)) in
        nonuniform.profile.exit_accuracy.iter().zip(&uniform.profile.exit_accuracy).enumerate()
    {
        assert!(n >= u, "exit {exit}: nonuniform {n:.3} must be at least uniform {u:.3}");
    }
}

#[test]
fn multi_exit_system_beats_all_single_exit_baselines_on_ie_pmj() {
    // The Fig. 5 headline: the proposed system wins on interesting events per
    // millijoule against SonicNet, SpArSeNet and LeNet-Cifar.
    let config = ExperimentConfig::paper_default();
    let deployed =
        DeployedModel::from_policy(&config, &nonuniform_policy(&config)).expect("deploys");
    let ours = EventLoopSimulator::new(&config)
        .run(&deployed, &mut GreedyAffordablePolicy::new())
        .expect("simulation runs");

    let runner = BaselineRunner::new(&config);
    for baseline in BaselineNetwork::paper_baselines() {
        let report = runner.run(&baseline).expect("baseline runs");
        assert!(
            ours.ie_pmj() > report.ie_pmj(),
            "ours {:.3} IEpmJ must beat {} at {:.3}",
            ours.ie_pmj(),
            baseline.name(),
            report.ie_pmj()
        );
        assert!(
            ours.accuracy_all_events() > report.accuracy_all_events(),
            "ours must also win on all-event accuracy against {}",
            baseline.name()
        );
    }
}

#[test]
fn multi_exit_system_has_the_lowest_per_event_latency() {
    // Section V-D: early exits remove the multi-power-cycle waits of the
    // baselines, so the mean per-event latency must be the smallest.
    let config = ExperimentConfig::paper_default();
    let deployed =
        DeployedModel::from_policy(&config, &nonuniform_policy(&config)).expect("deploys");
    let ours = EventLoopSimulator::new(&config)
        .run(&deployed, &mut GreedyAffordablePolicy::new())
        .expect("simulation runs");
    let runner = BaselineRunner::new(&config);
    for baseline in BaselineNetwork::paper_baselines() {
        let report = runner.run(&baseline).expect("baseline runs");
        if report.processed_events > 0 {
            assert!(
                ours.mean_latency_s() < report.mean_latency_s(),
                "ours {:.1}s must be faster than {} at {:.1}s",
                ours.mean_latency_s(),
                baseline.name(),
                report.mean_latency_s()
            );
        }
    }
}

#[test]
fn runtime_q_learning_is_competitive_with_the_static_lut() {
    // Fig. 7: after a modest number of learning episodes the Q-learning
    // runtime should match or beat the static LUT, and it must process at
    // least as many events.
    let config = ExperimentConfig::paper_default();
    let deployed =
        DeployedModel::from_policy(&config, &nonuniform_policy(&config)).expect("deploys");
    let outcome = RuntimeAdaptation::new(AdaptationConfig { episodes: 10, ..Default::default() })
        .run(&config, &deployed)
        .expect("adaptation runs");
    let best_learned = outcome.learning_curve.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best_learned >= outcome.static_accuracy - 0.02,
        "best learned accuracy {best_learned:.3} vs static {:.3}",
        outcome.static_accuracy
    );
    assert!(outcome.final_report.processed_events > 0);
    // Q-learning leans on the cheap first exit at least as much as the LUT
    // does (the Fig. 7(b) shift).
    assert!(
        outcome.final_report.exit_counts[0] >= outcome.static_report.exit_counts[0],
        "q-learning exit-1 usage {:?} vs static {:?}",
        outcome.final_report.exit_counts,
        outcome.static_report.exit_counts
    );
}

#[test]
fn metrics_are_consistent_across_every_system() {
    let config = ExperimentConfig { num_events: 200, ..ExperimentConfig::paper_default() };
    let deployed =
        DeployedModel::from_policy(&config, &nonuniform_policy(&config)).expect("deploys");
    let mut reports = vec![EventLoopSimulator::new(&config)
        .run(&deployed, &mut GreedyAffordablePolicy::new())
        .expect("simulation runs")];
    let runner = BaselineRunner::new(&config);
    for baseline in BaselineNetwork::paper_baselines() {
        reports.push(runner.run(&baseline).expect("baseline runs"));
    }
    for report in &reports {
        assert_eq!(report.total_events, 200);
        assert_eq!(report.processed_events + report.missed_events, report.total_events);
        assert!(report.correct_events <= report.processed_events);
        assert_eq!(report.exit_counts.iter().sum::<usize>(), report.processed_events);
        assert!(report.total_consumed_mj <= report.total_harvested_mj + config.initial_energy_mj);
        // IEpmJ and the all-event accuracy are two views of the same quantity.
        let recomputed =
            report.total_events as f64 / report.total_harvested_mj * report.accuracy_all_events();
        assert!((report.ie_pmj() - recomputed).abs() < 1e-9);
    }
}

#[test]
fn evaluator_and_deployed_model_agree_on_costs() {
    let config = ExperimentConfig::paper_default();
    let evaluator =
        PolicyEvaluator::new(&config.architecture, CalibratedAccuracyModel::for_paper_backbone());
    let policy = nonuniform_policy(&config);
    let profile = evaluator.evaluate(&policy).expect("evaluates");
    let deployed = DeployedModel::new(profile.clone(), config.cost_model());
    for exit in 0..3 {
        let expected_energy = profile.exit_flops[exit] as f64 / 1e6 * 1.5;
        assert!((deployed.exit_energy_mj(exit) - expected_energy).abs() < 1e-9);
        assert_eq!(deployed.exit_flops(exit), profile.exit_flops[exit]);
    }
}

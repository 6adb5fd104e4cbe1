//! Shared experiment drivers for the paper's figures and tables.

use ie_baselines::{BaselineNetwork, BaselineRunner};
use ie_compress::{CompressionPolicy, LayerPolicy};
use ie_core::{DeployedModel, ExperimentConfig, SimulationReport};
use ie_nn::spec::CompressibleLayer;
use ie_runtime::{AdaptationConfig, AdaptationOutcome, RuntimeAdaptation};
use ie_search::{
    best_uniform_policy, random_search, CompressionEnv, DdpgCompressionSearch, EpisodeStats,
    PolicyOutcome, RewardMode, SearchConfig,
};

/// Convenience error type of the harness.
pub type BenchError = Box<dyn std::error::Error + Send + Sync + 'static>;
/// Convenience result alias of the harness.
pub type BenchResult<T> = std::result::Result<T, BenchError>;

/// A hand-crafted nonuniform policy in the spirit of Fig. 4 — shallow (exit-1)
/// layers kept wide at 8 bits, deep convolutions pruned hard, the two large
/// fully-connected layers driven to 1 bit. It satisfies the 1.15 M-FLOP /
/// 16 KB targets and is used both as a deterministic reference point and as a
/// fallback when a short DDPG search has not yet found a feasible policy.
pub fn reference_nonuniform_policy(layers: &[CompressibleLayer]) -> CompressionPolicy {
    layers
        .iter()
        .map(|l| {
            if l.is_conv {
                if l.first_exit() == 0 {
                    LayerPolicy::new(0.5, 8, 8).expect("static policy values are valid")
                } else {
                    LayerPolicy::new(0.25, 4, 8).expect("static policy values are valid")
                }
            } else if l.weight_params > 20_000 {
                LayerPolicy::new(0.35, 1, 8).expect("static policy values are valid")
            } else {
                LayerPolicy::new(0.5, 2, 8).expect("static policy values are valid")
            }
        })
        .collect()
}

/// Results of the compression-side experiments (Fig. 1(b), Fig. 4, Fig. 6).
#[derive(Debug, Clone)]
pub struct CompressionStudy {
    /// Evaluation of the uncompressed full-precision network.
    pub full_precision: PolicyOutcome,
    /// Best uniform policy and its evaluation (the Fig. 1(b) comparison).
    pub uniform: (CompressionPolicy, PolicyOutcome),
    /// The nonuniform policy deployed everywhere else (search result, or the
    /// reference policy when it scores better).
    pub nonuniform: (CompressionPolicy, PolicyOutcome),
    /// Per-episode search history (empty when `search_episodes == 0`).
    pub search_history: Vec<EpisodeStats>,
    /// Whether the deployed nonuniform policy came from the DDPG search.
    pub nonuniform_from_search: bool,
}

/// Runs the compression study: evaluates full precision, the best uniform
/// point and a nonuniform policy obtained by the exit-guided DDPG search
/// (falling back to [`reference_nonuniform_policy`] when the short search does
/// not find something better).
///
/// # Errors
///
/// Propagates environment and search errors.
pub fn compression_study(
    config: &ExperimentConfig,
    search_episodes: usize,
) -> BenchResult<CompressionStudy> {
    let env = CompressionEnv::new(config, RewardMode::ExitGuided)?;
    let n = env.num_layers();
    let full_precision = env.evaluate(&CompressionPolicy::full_precision(n))?;
    let uniform = best_uniform_policy(&env, 10)?;

    let reference_policy = reference_nonuniform_policy(env.layers());
    let reference_outcome = env.evaluate(&reference_policy)?;

    let (mut nonuniform, mut history, mut from_search) =
        ((reference_policy, reference_outcome), Vec::new(), false);
    if search_episodes > 0 {
        let search = DdpgCompressionSearch::new(SearchConfig {
            episodes: search_episodes,
            warmup_episodes: (search_episodes / 4).max(1),
            ..SearchConfig::default()
        });
        let result = search.run(&env)?;
        history = result.history;
        let better = result.best_outcome.feasible
            && result.best_outcome.accuracy_reward >= nonuniform.1.accuracy_reward;
        if better {
            nonuniform = (result.best_policy, result.best_outcome);
            from_search = true;
        }
    }

    Ok(CompressionStudy {
        full_precision,
        uniform,
        nonuniform,
        search_history: history,
        nonuniform_from_search: from_search,
    })
}

/// The result of running one system over the shared environment.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// System name (matches [`crate::reference::SYSTEM_NAMES`]).
    pub name: String,
    /// Full per-event report.
    pub report: SimulationReport,
}

/// The four-system comparison behind Fig. 5 and the Section V-C/V-D tables.
#[derive(Debug, Clone)]
pub struct SystemComparison {
    /// Our approach followed by the three baselines.
    pub systems: Vec<SystemResult>,
    /// The runtime-adaptation outcome used for "Our Approach".
    pub adaptation: AdaptationOutcome,
    /// The deployed (compressed) multi-exit model.
    pub deployed: DeployedModel,
}

/// Runs the proposed system (compressed multi-exit model + Q-learning runtime)
/// and the three baselines over the same events and power trace.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn system_comparison(
    config: &ExperimentConfig,
    nonuniform: &PolicyOutcome,
    adaptation_episodes: usize,
) -> BenchResult<SystemComparison> {
    let deployed = DeployedModel::new(nonuniform.profile.clone(), config.cost_model());
    let adaptation = RuntimeAdaptation::new(AdaptationConfig {
        episodes: adaptation_episodes.max(1),
        ..AdaptationConfig::default()
    })
    .run(config, &deployed)?;

    let mut systems = vec![SystemResult {
        name: "Our Approach".to_string(),
        report: adaptation.final_report.clone(),
    }];
    let runner = BaselineRunner::new(config);
    for baseline in BaselineNetwork::paper_baselines() {
        let report = runner.run(&baseline)?;
        systems.push(SystemResult { name: baseline.name().to_string(), report });
    }
    Ok(SystemComparison { systems, adaptation, deployed })
}

/// Results of the design-choice ablations described in `DESIGN.md`.
#[derive(Debug, Clone)]
pub struct AblationResults {
    /// (exit-guided reward, final-exit-only reward) — all-event expected
    /// accuracy of the best policy each reward finds.
    pub reward_mode: (PolicyOutcome, PolicyOutcome),
    /// (with incremental inference, without) — all-event accuracy.
    pub incremental: (f64, f64),
    /// (DDPG search, random search, best uniform) — exit-guided reward of the
    /// best feasible policy each search strategy finds.
    pub search_strategy: (f64, f64, f64),
}

/// Runs the ablations. `search_episodes` bounds the DDPG/random search budgets
/// so the whole set stays fast.
///
/// # Errors
///
/// Propagates environment and simulation errors.
pub fn ablations(
    config: &ExperimentConfig,
    search_episodes: usize,
) -> BenchResult<AblationResults> {
    // Reward-mode ablation: search under both rewards, evaluate both winners
    // under the *exit-guided* (deployment-relevant) criterion.
    let guided_env = CompressionEnv::new(config, RewardMode::ExitGuided)?;
    let final_env = CompressionEnv::new(config, RewardMode::FinalExitOnly)?;
    let search = DdpgCompressionSearch::new(SearchConfig {
        episodes: search_episodes.max(4),
        warmup_episodes: (search_episodes / 4).max(1),
        ..SearchConfig::default()
    });
    let guided_best = search.run(&guided_env)?.best_outcome;
    let final_best_policy = search.run(&final_env)?.best_policy;
    let final_best = guided_env.evaluate(&final_best_policy)?;
    // Fall back to the reference policy for the guided arm if the short search
    // found nothing feasible, mirroring `compression_study`.
    let guided_best = if guided_best.feasible {
        guided_best
    } else {
        guided_env.evaluate(&reference_nonuniform_policy(guided_env.layers()))?
    };

    // Incremental-inference ablation on the deployed nonuniform model.
    let deployed = DeployedModel::new(guided_best.profile.clone(), config.cost_model());
    let with_inc = RuntimeAdaptation::new(AdaptationConfig { episodes: 4, ..Default::default() })
        .run(config, &deployed)?;
    let mut no_inc_config = config.clone();
    no_inc_config.incremental_enabled = false;
    let without_inc =
        RuntimeAdaptation::new(AdaptationConfig { episodes: 4, ..Default::default() })
            .run(&no_inc_config, &deployed)?;

    // Search-strategy ablation.
    let random_best = random_search(&guided_env, search_episodes.max(4), 5)?.1;
    let uniform_best = best_uniform_policy(&guided_env, 8)?.1;

    Ok(AblationResults {
        reward_mode: (guided_best.clone(), final_best),
        incremental: (
            with_inc.final_report.accuracy_all_events(),
            without_inc.final_report.accuracy_all_events(),
        ),
        search_strategy: (
            guided_best.accuracy_reward,
            random_best.accuracy_reward,
            uniform_best.accuracy_reward,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_test()
    }

    #[test]
    fn reference_policy_is_feasible_under_paper_targets() {
        let c = ExperimentConfig::paper_default();
        let env = CompressionEnv::new(&c, RewardMode::ExitGuided).unwrap();
        let outcome = env.evaluate(&reference_nonuniform_policy(env.layers())).unwrap();
        assert!(
            outcome.feasible,
            "size {} flops {}",
            outcome.profile.model_size_bytes, outcome.profile.total_flops
        );
        // Nonuniform compression keeps every exit's accuracy above the uniform point.
        let (_, uniform) = best_uniform_policy(&env, 6).unwrap();
        for (n, u) in outcome.profile.exit_accuracy.iter().zip(&uniform.profile.exit_accuracy) {
            assert!(n >= u, "nonuniform {n} vs uniform {u}");
        }
    }

    #[test]
    fn compression_study_without_search_uses_the_reference_policy() {
        let study = compression_study(&config(), 0).unwrap();
        assert!(!study.nonuniform_from_search);
        assert!(study.search_history.is_empty());
        assert!(study.nonuniform.1.feasible);
        assert!(study.uniform.1.feasible);
        // Compression reduces every exit's FLOPs relative to full precision.
        for (c, f) in study
            .nonuniform
            .1
            .profile
            .exit_flops
            .iter()
            .zip(&study.full_precision.profile.exit_flops)
        {
            assert!(c < f);
        }
    }

    #[test]
    fn system_comparison_covers_four_systems() {
        let c = config();
        let study = compression_study(&c, 0).unwrap();
        let comparison = system_comparison(&c, &study.nonuniform.1, 2).unwrap();
        assert_eq!(comparison.systems.len(), 4);
        assert_eq!(comparison.systems[0].name, "Our Approach");
        for s in &comparison.systems {
            assert_eq!(s.report.total_events, c.num_events);
        }
        // The multi-exit system must beat the heavyweight NAS baseline on IEpmJ.
        let ours = comparison.systems[0].report.ie_pmj();
        let sparse = comparison.systems[2].report.ie_pmj();
        assert!(ours > sparse, "ours {ours} vs SpArSeNet {sparse}");
    }
}

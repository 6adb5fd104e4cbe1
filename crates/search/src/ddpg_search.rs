//! The dual-agent DDPG search over layer-wise pruning rates and bitwidths.

use crate::env::{CompressionEnv, PolicyOutcome};
use crate::observation::{observation_for_layer, OBSERVATION_DIM};
use crate::{Result, SearchError};
use ie_compress::{CompressionPolicy, LayerPolicy};
use ie_rl::{DdpgAgent, DdpgConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the compression search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Number of episodes (one episode assigns a policy to every layer).
    pub episodes: usize,
    /// Episodes of pure random exploration before the agents take over.
    pub warmup_episodes: usize,
    /// Mini-batch size of the DDPG updates.
    pub batch_size: usize,
    /// Gradient updates applied to each agent after every episode.
    pub updates_per_episode: usize,
    /// Exploration noise at the first episode.
    pub initial_noise: f32,
    /// Exploration noise the linear schedule heads for. Episode `e` of `E`
    /// runs at `initial + (final − initial)·e/E`, so even the last episode
    /// stays one step short of it: 40 episodes from 0.45 towards 0.05 end
    /// at σ = 0.06.
    pub final_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            episodes: 120,
            warmup_episodes: 20,
            batch_size: 48,
            updates_per_episode: 10,
            initial_noise: 0.45,
            final_noise: 0.05,
            seed: 0,
        }
    }
}

impl SearchConfig {
    /// A tiny configuration used by unit tests.
    pub fn quick_test() -> Self {
        SearchConfig {
            episodes: 8,
            warmup_episodes: 4,
            batch_size: 16,
            updates_per_episode: 2,
            ..Self::default()
        }
    }
}

/// Per-episode statistics of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeStats {
    /// Episode index.
    pub episode: usize,
    /// Exit-guided accuracy reward of the episode's policy.
    pub accuracy_reward: f64,
    /// Pruning-agent reward (Eq. 11).
    pub prune_reward: f64,
    /// Quantization-agent reward (Eq. 12).
    pub quant_reward: f64,
    /// Whether the policy met both constraints.
    pub feasible: bool,
    /// Best feasible accuracy reward seen up to and including this episode
    /// (0 when nothing feasible has been found yet).
    pub best_so_far: f64,
}

/// Result of a compression search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best policy found (feasible if any feasible policy was seen).
    pub best_policy: CompressionPolicy,
    /// The evaluation of the best policy.
    pub best_outcome: PolicyOutcome,
    /// Per-episode history, useful for plotting search progress.
    pub history: Vec<EpisodeStats>,
}

/// The paper's nonuniform compression search: a pruning agent and a
/// quantization agent walk the layers together and are rewarded with the
/// power-trace-aware, exit-guided accuracy reward.
#[derive(Debug, Clone)]
pub struct DdpgCompressionSearch {
    config: SearchConfig,
}

impl DdpgCompressionSearch {
    /// Creates a search with the given hyper-parameters.
    pub fn new(config: SearchConfig) -> Self {
        DdpgCompressionSearch { config }
    }

    /// The search hyper-parameters.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    fn actions_to_layer_policy(prune_action: f32, quant_action: &[f32]) -> LayerPolicy {
        let ratio = 0.05 + prune_action.clamp(0.0, 1.0) * 0.95;
        let to_bits = |a: f32| 1 + (a.clamp(0.0, 1.0) * 7.0).round() as u8;
        LayerPolicy {
            preserve_ratio: ratio,
            weight_bits: to_bits(quant_action[0]),
            activation_bits: to_bits(quant_action.get(1).copied().unwrap_or(1.0)),
        }
        .snapped()
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::EmptySearch`] for a zero-episode configuration
    /// and propagates environment/agent errors.
    pub fn run(&self, env: &CompressionEnv) -> Result<SearchResult> {
        if self.config.episodes == 0 {
            return Err(SearchError::EmptySearch);
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let ddpg_config = DdpgConfig { hidden: 48, ..DdpgConfig::default() };
        let mut prune_agent = DdpgAgent::new(&mut rng, OBSERVATION_DIM, 1, ddpg_config.clone());
        let mut quant_agent = DdpgAgent::new(&mut rng, OBSERVATION_DIM, 2, ddpg_config);

        let layers = env.layers().to_vec();
        let n_layers = layers.len();
        let mut history = Vec::with_capacity(self.config.episodes);
        let mut best: Option<PolicyOutcome> = None;
        let mut best_any: Option<PolicyOutcome> = None;

        for episode in 0..self.config.episodes {
            let progress = episode as f32 / self.config.episodes.max(1) as f32;
            let sigma = self.config.initial_noise
                + (self.config.final_noise - self.config.initial_noise) * progress;
            prune_agent.set_noise_sigma(sigma);
            quant_agent.set_noise_sigma(sigma);
            prune_agent.begin_episode();
            quant_agent.begin_episode();

            // Roll out one policy layer-by-layer.
            let mut policy = CompressionPolicy::full_precision(n_layers);
            let mut observations = Vec::with_capacity(n_layers);
            let mut prune_actions = Vec::with_capacity(n_layers);
            let mut quant_actions = Vec::with_capacity(n_layers);
            for l in 0..n_layers {
                let obs = observation_for_layer(&layers, &policy, l);
                let (pa, qa) = if episode < self.config.warmup_episodes {
                    (vec![rng.gen::<f32>()], vec![rng.gen::<f32>(), rng.gen::<f32>()])
                } else {
                    (
                        prune_agent.act_exploring(&obs, &mut rng)?,
                        quant_agent.act_exploring(&obs, &mut rng)?,
                    )
                };
                policy.layers_mut()[l] = Self::actions_to_layer_policy(pa[0], &qa);
                observations.push(obs);
                prune_actions.push(pa);
                quant_actions.push(qa);
            }

            // Evaluate the finished policy under the power trace.
            let outcome = env.evaluate(&policy)?;

            // Credit assignment: every step of the episode receives the final
            // reward (the standard AMC/HAQ-style sparse-reward treatment).
            for l in 0..n_layers {
                let next = if l + 1 < n_layers {
                    observations[l + 1].clone()
                } else {
                    vec![0.0; OBSERVATION_DIM]
                };
                prune_agent.observe(Transition {
                    state: observations[l].clone(),
                    action: prune_actions[l].clone(),
                    reward: outcome.prune_reward as f32,
                    next_state: next.clone(),
                    done: l + 1 == n_layers,
                });
                quant_agent.observe(Transition {
                    state: observations[l].clone(),
                    action: quant_actions[l].clone(),
                    reward: outcome.quant_reward as f32,
                    next_state: next,
                    done: l + 1 == n_layers,
                });
            }
            for _ in 0..self.config.updates_per_episode {
                prune_agent.update(&mut rng, self.config.batch_size)?;
                quant_agent.update(&mut rng, self.config.batch_size)?;
            }

            // Track the best feasible policy (and the best overall as fallback).
            if best_any
                .as_ref()
                .map(|b| outcome.accuracy_reward > b.accuracy_reward)
                .unwrap_or(true)
            {
                best_any = Some(outcome.clone());
            }
            if outcome.feasible
                && best
                    .as_ref()
                    .map(|b| outcome.accuracy_reward > b.accuracy_reward)
                    .unwrap_or(true)
            {
                best = Some(outcome.clone());
            }
            history.push(EpisodeStats {
                episode,
                accuracy_reward: outcome.accuracy_reward,
                prune_reward: outcome.prune_reward,
                quant_reward: outcome.quant_reward,
                feasible: outcome.feasible,
                best_so_far: best.as_ref().map(|b| b.accuracy_reward).unwrap_or(0.0),
            });
        }

        let best_outcome = best.or(best_any).ok_or(SearchError::EmptySearch)?;
        Ok(SearchResult { best_policy: best_outcome.policy.clone(), best_outcome, history })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RewardMode;
    use ie_core::ExperimentConfig;

    fn env() -> CompressionEnv {
        CompressionEnv::new(&ExperimentConfig::small_test(), RewardMode::ExitGuided).unwrap()
    }

    #[test]
    fn action_mapping_covers_the_paper_ranges() {
        let low = DdpgCompressionSearch::actions_to_layer_policy(0.0, &[0.0, 0.0]);
        let high = DdpgCompressionSearch::actions_to_layer_policy(1.0, &[1.0, 1.0]);
        assert!((low.preserve_ratio - 0.05).abs() < 1e-6);
        assert_eq!(low.weight_bits, 1);
        assert_eq!(low.activation_bits, 1);
        assert!((high.preserve_ratio - 1.0).abs() < 1e-6);
        assert_eq!(high.weight_bits, 8);
        assert_eq!(high.activation_bits, 8);
        let mid = DdpgCompressionSearch::actions_to_layer_policy(0.5, &[0.5, 0.5]);
        assert!(mid.preserve_ratio > 0.4 && mid.preserve_ratio < 0.65);
        assert!(mid.weight_bits >= 4 && mid.weight_bits <= 5);
    }

    #[test]
    fn quick_search_runs_and_tracks_progress() {
        let env = env();
        let search = DdpgCompressionSearch::new(SearchConfig::quick_test());
        let result = search.run(&env).unwrap();
        assert_eq!(result.history.len(), search.config().episodes);
        assert_eq!(result.best_policy.len(), env.num_layers());
        assert!(result.best_outcome.accuracy_reward > 0.0);
        // best_so_far is non-decreasing.
        for w in result.history.windows(2) {
            assert!(w[1].best_so_far >= w[0].best_so_far);
        }
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let env = env();
        let search = DdpgCompressionSearch::new(SearchConfig::quick_test());
        let a = search.run(&env).unwrap();
        let b = search.run(&env).unwrap();
        assert_eq!(a.best_policy, b.best_policy);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn zero_episodes_is_rejected() {
        let env = env();
        let search =
            DdpgCompressionSearch::new(SearchConfig { episodes: 0, ..SearchConfig::quick_test() });
        assert!(matches!(search.run(&env), Err(SearchError::EmptySearch)));
    }
}

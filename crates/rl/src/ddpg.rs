//! Deep deterministic policy gradient (DDPG) with small MLP actor/critic
//! networks, as used by the paper's compression agents.

use crate::{OrnsteinUhlenbeck, ReplayBuffer};
use ie_nn::{Mlp, MlpScratch, NnError, OutputActivation, Result as NnResult};
use rand::Rng;

/// One experience tuple collected while exploring compression policies.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation before acting.
    pub state: Vec<f32>,
    /// Action taken (each component in `[0, 1]`).
    pub action: Vec<f32>,
    /// Scalar reward.
    pub reward: f32,
    /// Observation after acting.
    pub next_state: Vec<f32>,
    /// Whether the episode ended with this transition.
    pub done: bool,
}

/// Hyper-parameters of a [`DdpgAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// Learning rate of the actor network.
    pub actor_lr: f32,
    /// Learning rate of the critic network.
    pub critic_lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak averaging coefficient τ for the target networks.
    pub tau: f32,
    /// Hidden-layer width of both networks.
    pub hidden: usize,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Initial Ornstein–Uhlenbeck noise magnitude.
    pub noise_sigma: f32,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            actor_lr: 1e-3,
            critic_lr: 1e-2,
            gamma: 0.95,
            tau: 0.01,
            hidden: 64,
            replay_capacity: 2_000,
            noise_sigma: 0.3,
        }
    }
}

/// A DDPG agent over a continuous action space in `[0, 1]^action_dim`.
///
/// The actor ends in a sigmoid so actions land directly in the unit box the
/// compression search expects (pruning rates, normalised bitwidths).
#[derive(Debug, Clone)]
pub struct DdpgAgent {
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    noise: OrnsteinUhlenbeck,
    replay: ReplayBuffer<Transition>,
    config: DdpgConfig,
    state_dim: usize,
    action_dim: usize,
    buffers: UpdateBuffers,
}

/// The rows of one mini-batch, packed once per update, and the scratch of
/// the batched network passes; all reused from update to update.
///
/// [`DdpgAgent::act`] and [`DdpgAgent::q_value`] reuse `actor`, `critic`
/// and `state_actions` at a batch of one between updates. That is safe
/// because every update clears the rows and repacks them before it reads
/// them.
#[derive(Debug, Clone, Default)]
struct UpdateBuffers {
    /// `[n, state_dim]` states.
    states: Vec<f32>,
    /// `[n, state_dim]` next states.
    next_states: Vec<f32>,
    /// `[n, state_dim + action_dim]` critic inputs: `(s, a)` for the critic
    /// update, then `(s, µ(s))` for the actor update; between updates, the
    /// one row `(s, a)` of a [`DdpgAgent::q_value`] call.
    state_actions: Vec<f32>,
    /// `[n, state_dim + action_dim]` target-critic inputs `(s', µ'(s'))`.
    next_state_actions: Vec<f32>,
    /// Rewards, turned into the critic targets `y`.
    targets: Vec<f32>,
    /// Episode-end flags.
    done: Vec<bool>,
    /// Output-gradient rows of the pass being back-propagated.
    grad: Vec<f32>,
    /// Scratch of the actor-shaped passes (actor and target actor), and of
    /// [`DdpgAgent::act`].
    actor: MlpScratch,
    /// Scratch of the critic-shaped passes (critic and target critic), and
    /// of [`DdpgAgent::q_value`].
    critic: MlpScratch,
}

impl UpdateBuffers {
    /// Empties the rows; capacities stay.
    fn clear(&mut self) {
        self.states.clear();
        self.next_states.clear();
        self.state_actions.clear();
        self.next_state_actions.clear();
        self.targets.clear();
        self.done.clear();
    }
}

impl DdpgAgent {
    /// Creates an agent for the given state/action dimensions.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        state_dim: usize,
        action_dim: usize,
        config: DdpgConfig,
    ) -> Self {
        let actor = Mlp::new(
            rng,
            &[state_dim, config.hidden, config.hidden, action_dim],
            OutputActivation::Sigmoid,
        );
        let critic = Mlp::new(
            rng,
            &[state_dim + action_dim, config.hidden, config.hidden, 1],
            OutputActivation::Linear,
        );
        let target_actor = actor.clone();
        let target_critic = critic.clone();
        let noise = OrnsteinUhlenbeck::new(action_dim, 0.15, config.noise_sigma);
        let replay = ReplayBuffer::new(config.replay_capacity);
        DdpgAgent {
            actor,
            critic,
            target_actor,
            target_critic,
            noise,
            replay,
            config,
            state_dim,
            action_dim,
            buffers: UpdateBuffers::default(),
        }
    }

    /// Dimension of the observation vector.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Dimension of the action vector.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Anneals the exploration noise magnitude.
    pub fn set_noise_sigma(&mut self, sigma: f32) {
        self.noise.set_sigma(sigma);
    }

    /// Deterministic (exploitation) action for a state: the actor's batched
    /// forward pass at a batch of one, through the agent's own scratch.
    ///
    /// # Errors
    ///
    /// Returns an error when `state` has the wrong dimension.
    pub fn act(&mut self, state: &[f32]) -> NnResult<Vec<f32>> {
        Ok(self.actor.forward_batch(state, 1, &mut self.buffers.actor)?.to_vec())
    }

    /// Exploratory action: the deterministic action plus OU noise, clamped to
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns an error when `state` has the wrong dimension.
    pub fn act_exploring<R: Rng + ?Sized>(
        &mut self,
        state: &[f32],
        rng: &mut R,
    ) -> NnResult<Vec<f32>> {
        let mut action = self.act(state)?;
        let noise = self.noise.sample(rng);
        for (a, n) in action.iter_mut().zip(noise) {
            *a = (*a + n).clamp(0.0, 1.0);
        }
        Ok(action)
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, transition: Transition) {
        self.replay.push(transition);
    }

    /// Resets the exploration noise (call at the start of each episode).
    pub fn begin_episode(&mut self) {
        self.noise.reset();
    }

    /// Critic value `Q(s, a)`: the critic's batched forward pass at a batch
    /// of one, through the agent's own scratch.
    ///
    /// # Errors
    ///
    /// Returns an error when the concatenated input has the wrong dimension.
    pub fn q_value(&mut self, state: &[f32], action: &[f32]) -> NnResult<f32> {
        let b = &mut self.buffers;
        b.state_actions.clear();
        b.state_actions.extend_from_slice(state);
        b.state_actions.extend_from_slice(action);
        Ok(self.critic.forward_batch(&b.state_actions, 1, &mut b.critic)?[0])
    }

    /// Performs one mini-batch update of the critic and actor and soft-updates
    /// the target networks. Returns the mean absolute critic TD error
    /// `|Q(s, a) − y|` of the batch, or `None` when the replay buffer is
    /// still empty.
    ///
    /// The batch holds `batch_size.max(1)` transitions drawn uniformly with
    /// replacement, and each network pass runs once over the whole batch
    /// ([`Mlp::forward_batch`], [`Mlp::backward_batch`],
    /// [`Mlp::input_grad_batch`]), with one
    /// [`ie_tensor::matvec_t_batch_into`] or
    /// [`ie_tensor::outer_accumulate_batch_into`] call per layer that shares
    /// each weight load across samples. Gradients accumulate in ascending
    /// sample order, so every weight and the returned error are bit-identical
    /// to updating from one transition at a time. Once warm, an update
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ie_nn::NnError::InputShapeMismatch`], before any network
    /// changes, when a drawn transition's `state`, `action` or `next_state`
    /// has the wrong length.
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        batch_size: usize,
    ) -> NnResult<Option<f32>> {
        let n = batch_size.max(1);
        let (s_dim, a_dim) = (self.state_dim, self.action_dim);
        let width = s_dim + a_dim;
        let b = &mut self.buffers;
        b.clear();
        for _ in 0..n {
            let Some(t) = self.replay.sample_one(rng) else {
                return Ok(None);
            };
            check_len("state", s_dim, &t.state)?;
            check_len("action", a_dim, &t.action)?;
            check_len("next_state", s_dim, &t.next_state)?;
            b.states.extend_from_slice(&t.state);
            b.next_states.extend_from_slice(&t.next_state);
            b.state_actions.extend_from_slice(&t.state);
            b.state_actions.extend_from_slice(&t.action);
            b.targets.push(t.reward);
            b.done.push(t.done);
        }

        // --- Critic targets y = r + γ·Q'(s', µ'(s')), evaluated on every row
        // and kept where the episode goes on.
        let next_actions = self.target_actor.forward_batch(&b.next_states, n, &mut b.actor)?;
        for i in 0..n {
            b.next_state_actions.extend_from_slice(&b.next_states[i * s_dim..(i + 1) * s_dim]);
            b.next_state_actions.extend_from_slice(&next_actions[i * a_dim..(i + 1) * a_dim]);
        }
        let next_q = self.target_critic.forward_batch(&b.next_state_actions, n, &mut b.critic)?;
        for ((y, &q), &done) in b.targets.iter_mut().zip(next_q).zip(&b.done) {
            if !done {
                *y += self.config.gamma * q;
            }
        }

        // --- Critic update: minimise (Q(s,a) − y)².
        let q = self.critic.forward_batch(&b.state_actions, n, &mut b.critic)?;
        let mut td_error_sum = 0.0;
        b.grad.clear();
        for (&q, &y) in q.iter().zip(&b.targets) {
            let td = q - y;
            td_error_sum += td.abs();
            b.grad.push(2.0 * td);
        }
        self.critic.backward_batch(&b.grad, &mut b.critic)?;
        self.critic.apply_gradients(self.config.critic_lr / n as f32);

        // --- Actor update: ascend ∇_a Q(s, µ(s)) ∇_θ µ(s).
        let actions = self.actor.forward_batch(&b.states, n, &mut b.actor)?;
        for i in 0..n {
            b.state_actions[i * width + s_dim..(i + 1) * width]
                .copy_from_slice(&actions[i * a_dim..(i + 1) * a_dim]);
        }
        self.critic.forward_batch(&b.state_actions, n, &mut b.critic)?;
        b.grad.clear();
        b.grad.resize(n, 1.0);
        let dq_dinput = self.critic.input_grad_batch(&b.grad, &mut b.critic)?;
        // Gradient ascent on Q == descent on −Q, through the action columns.
        b.grad.clear();
        for i in 0..n {
            b.grad.extend(dq_dinput[i * width + s_dim..(i + 1) * width].iter().map(|g| -g));
        }
        self.actor.backward_batch(&b.grad, &mut b.actor)?;
        self.actor.apply_gradients(self.config.actor_lr / n as f32);

        // --- Target network soft updates.
        self.target_actor.blend_from(&self.actor, self.config.tau);
        self.target_critic.blend_from(&self.critic, self.config.tau);

        Ok(Some(td_error_sum / n as f32))
    }
}

/// Refuses a transition field of the wrong length.
fn check_len(field: &str, expected: usize, values: &[f32]) -> NnResult<()> {
    if values.len() == expected {
        return Ok(());
    }
    Err(NnError::InputShapeMismatch {
        layer: format!("ddpg(transition {field})"),
        expected: vec![expected],
        actual: vec![values.len()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ie_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vector(values: Vec<f32>) -> Tensor {
        let len = values.len();
        Tensor::from_vec(values, &[len]).unwrap()
    }

    /// The oracle of the batched update: the same draws, then one transition
    /// at a time through the allocating `Mlp::forward` / `Mlp::backward`.
    fn reference_update<R: Rng + ?Sized>(
        agent: &mut DdpgAgent,
        rng: &mut R,
        batch_size: usize,
    ) -> Option<f32> {
        let len = agent.replay.len();
        if len == 0 {
            return None;
        }
        let batch: Vec<Transition> = (0..batch_size.max(1))
            .map(|_| agent.replay.iter().nth(rng.gen_range(0..len)).unwrap().clone())
            .collect();
        let n = batch.len() as f32;

        let mut td_error_sum = 0.0;
        for t in &batch {
            let target = if t.done {
                t.reward
            } else {
                let next = vector(t.next_state.clone());
                let a = agent.target_actor.forward(&next).unwrap();
                let x = vector([&t.next_state[..], a.as_slice()].concat());
                t.reward
                    + agent.config.gamma * agent.target_critic.forward(&x).unwrap().as_slice()[0]
            };
            let x = vector([&t.state[..], &t.action[..]].concat());
            let q = agent.critic.forward(&x).unwrap().as_slice()[0];
            let td = q - target;
            td_error_sum += td.abs();
            agent.critic.backward(&x, &vector(vec![2.0 * td])).unwrap();
        }
        agent.critic.apply_gradients(agent.config.critic_lr / n);

        for t in &batch {
            let s = vector(t.state.clone());
            let action = agent.actor.forward(&s).unwrap();
            let x = vector([&t.state[..], action.as_slice()].concat());
            let dq_dinput = agent.critic.backward(&x, &vector(vec![1.0])).unwrap();
            agent.critic.zero_grad();
            let grad = dq_dinput.as_slice()[t.state.len()..].iter().map(|g| -g).collect();
            agent.actor.backward(&s, &vector(grad)).unwrap();
        }
        agent.actor.apply_gradients(agent.config.actor_lr / n);

        agent.target_actor.blend_from(&agent.actor, agent.config.tau);
        agent.target_critic.blend_from(&agent.critic, agent.config.tau);
        Some(td_error_sum / n)
    }

    /// Every parameter and gradient bit of the four networks.
    fn network_bits(agent: &DdpgAgent) -> Vec<u32> {
        [&agent.actor, &agent.critic, &agent.target_actor, &agent.target_critic]
            .into_iter()
            .flat_map(Mlp::layers)
            .flat_map(|l| [l.weight(), l.bias(), l.grad_weight(), l.grad_bias()])
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn random_transition(rng: &mut StdRng, state_dim: usize, action_dim: usize) -> Transition {
        Transition {
            state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: (0..action_dim).map(|_| rng.gen()).collect(),
            reward: rng.gen_range(-1.0..1.0),
            next_state: (0..state_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            done: rng.gen_range(0..3) == 0,
        }
    }

    /// Runs 50 consecutive batched updates beside the oracle for each batch
    /// size and compares the TD error, the replay draws and every network bit
    /// after each one.
    fn assert_update_matches_the_oracle(state_dim: usize, action_dim: usize, hidden: usize) {
        const CAPACITY: usize = 40;
        // The last batch size exceeds what the replay buffer can hold.
        for batch_size in [1, 7, 48, CAPACITY + 1] {
            let case = format!("({state_dim}, {action_dim}, {hidden}) batch {batch_size}");
            let mut rng = StdRng::seed_from_u64(batch_size as u64 * 31 + state_dim as u64);
            let config = DdpgConfig { hidden, replay_capacity: CAPACITY, ..DdpgConfig::default() };
            let mut batched = DdpgAgent::new(&mut rng, state_dim, action_dim, config);
            let mut oracle = batched.clone();
            for _ in 0..CAPACITY / 2 {
                let t = random_transition(&mut rng, state_dim, action_dim);
                batched.observe(t.clone());
                oracle.observe(t);
            }
            // The buffer fills up and starts evicting during the run.
            for step in 0..50 {
                let t = random_transition(&mut rng, state_dim, action_dim);
                batched.observe(t.clone());
                oracle.observe(t);
                let mut oracle_rng = rng.clone();
                let got = batched.update(&mut rng, batch_size).unwrap();
                let want = reference_update(&mut oracle, &mut oracle_rng, batch_size);
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "{case} step {step}");
                assert_eq!(rng, oracle_rng, "{case} step {step}: replay draws");
                assert!(
                    network_bits(&batched) == network_bits(&oracle),
                    "{case} step {step}: network bits differ"
                );
            }
        }
    }

    #[test]
    fn batched_update_matches_the_oracle_for_the_pruning_agent() {
        assert_update_matches_the_oracle(12, 1, 48);
    }

    #[test]
    fn batched_update_matches_the_oracle_for_the_quantization_agent() {
        assert_update_matches_the_oracle(12, 2, 48);
    }

    #[test]
    fn batched_update_matches_the_oracle_for_small_shapes() {
        assert_update_matches_the_oracle(3, 2, 5);
        assert_update_matches_the_oracle(1, 1, 24);
    }

    #[test]
    fn malformed_transitions_are_refused_before_any_change() {
        let good = Transition {
            state: vec![0.1, 0.2],
            action: vec![0.5],
            reward: 1.0,
            next_state: vec![0.3, 0.4],
            done: false,
        };
        let bad = [
            Transition { state: vec![0.1], ..good.clone() },
            Transition { action: vec![0.5, 0.5], ..good.clone() },
            // The target of a done transition never reads its next state, but
            // the batch rows still have a fixed width.
            Transition { next_state: vec![0.3, 0.4, 0.5], done: true, ..good.clone() },
        ];
        for t in bad {
            let mut rng = StdRng::seed_from_u64(6);
            let mut agent = DdpgAgent::new(&mut rng, 2, 1, DdpgConfig::default());
            agent.observe(t.clone());
            let before = network_bits(&agent);
            let err = agent.update(&mut rng, 4).unwrap_err();
            assert!(matches!(err, NnError::InputShapeMismatch { .. }), "{t:?}: {err}");
            assert!(network_bits(&agent) == before, "{t:?}: networks changed");
        }
    }

    #[test]
    fn actions_are_in_the_unit_box() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = DdpgAgent::new(&mut rng, 4, 3, DdpgConfig::default());
        let a = agent.act(&[0.1, 0.5, -0.3, 2.0]).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| (0.0..=1.0).contains(v)));
        let e = agent.act_exploring(&[0.1, 0.5, -0.3, 2.0], &mut rng).unwrap();
        assert!(e.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(agent.act(&[0.0; 3]).is_err(), "wrong state dimension must fail");
    }

    #[test]
    fn update_without_experience_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = DdpgAgent::new(&mut rng, 2, 1, DdpgConfig::default());
        assert_eq!(agent.update(&mut rng, 8).unwrap(), None);
    }

    #[test]
    fn agent_learns_a_simple_bandit() {
        // Reward = 1 − (a − 0.8)²: the optimal action is 0.8 regardless of state.
        let mut rng = StdRng::seed_from_u64(7);
        let config = DdpgConfig {
            actor_lr: 5e-3,
            critic_lr: 2e-2,
            gamma: 0.0,
            tau: 0.05,
            hidden: 24,
            replay_capacity: 512,
            noise_sigma: 0.4,
        };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        let state = vec![0.5f32];
        for episode in 0..60 {
            agent.begin_episode();
            agent.set_noise_sigma(0.4 * (1.0 - episode as f32 / 60.0) + 0.05);
            for _ in 0..10 {
                let a = agent.act_exploring(&state, &mut rng).unwrap();
                let reward = 1.0 - (a[0] - 0.8).powi(2);
                agent.observe(Transition {
                    state: state.clone(),
                    action: a,
                    reward,
                    next_state: state.clone(),
                    done: true,
                });
                agent.update(&mut rng, 32).unwrap();
            }
        }
        let final_action = agent.act(&state).unwrap()[0];
        assert!(
            (final_action - 0.8).abs() < 0.2,
            "agent should converge near 0.8, got {final_action}"
        );
    }

    #[test]
    fn q_values_track_observed_rewards() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = DdpgConfig { gamma: 0.0, critic_lr: 5e-2, ..DdpgConfig::default() };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        // Fixed state/action with constant reward 2.0.
        for _ in 0..200 {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.5],
                reward: 2.0,
                next_state: vec![0.0],
                done: true,
            });
            agent.update(&mut rng, 16).unwrap();
        }
        let q = agent.q_value(&[0.0], &[0.5]).unwrap();
        assert!((q - 2.0).abs() < 0.5, "critic should approach the reward, got {q}");
    }

    #[test]
    fn replay_is_bounded() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = DdpgConfig { replay_capacity: 16, ..DdpgConfig::default() };
        let mut agent = DdpgAgent::new(&mut rng, 1, 1, config);
        for i in 0..100 {
            agent.observe(Transition {
                state: vec![i as f32],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert_eq!(agent.replay_len(), 16);
    }
}

use crate::StateDiscretizer;
use ie_core::{ContinueContext, EventContext, EventFeedback, ExitChoice, ExitPolicy};
use ie_rl::{EpsilonSchedule, QTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters of the runtime Q-learning agent.
#[derive(Debug, Clone, PartialEq)]
pub struct QLearningConfig {
    /// Q-table learning rate α.
    pub learning_rate: f64,
    /// Discount factor γ.
    pub discount: f64,
    /// Exploration rate at the first event.
    pub epsilon_start: f64,
    /// Exploration rate after the decay horizon.
    pub epsilon_end: f64,
    /// Number of events over which ε decays linearly.
    pub epsilon_decay_events: u64,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl Default for QLearningConfig {
    fn default() -> Self {
        QLearningConfig {
            learning_rate: 0.3,
            discount: 0.9,
            epsilon_start: 0.4,
            epsilon_end: 0.02,
            epsilon_decay_events: 2_000,
            seed: 1,
        }
    }
}

/// The paper's runtime exit-selection agent: one Q-table chooses the exit from
/// the discretised `(stored energy, charging efficiency)` state, a second
/// Q-table decides whether a low-confidence result should be refined by an
/// incremental inference. Both are updated online with Eq. (16); the reward is
/// the accuracy of the exit that produced the final result (zero for missed
/// events).
#[derive(Debug, Clone)]
pub struct QLearningExitPolicy {
    discretizer: StateDiscretizer,
    exit_table: QTable,
    continue_table: QTable,
    schedule: EpsilonSchedule,
    rng: StdRng,
    learning: bool,
    events_seen: u64,
    /// `(state, action)` of the event currently awaiting feedback.
    awaiting: Option<(usize, usize)>,
    /// `(state, action, reward)` of the previous event, waiting for the next
    /// event's state to complete the bootstrap update.
    pending: Option<(usize, usize, f64)>,
    /// `(state, action)` of a continuation decision awaiting feedback.
    pending_continue: Option<(usize, usize)>,
}

impl QLearningExitPolicy {
    /// Creates a fresh agent for a model with `num_exits` exits.
    pub fn new(num_exits: usize, discretizer: StateDiscretizer, config: QLearningConfig) -> Self {
        let exit_table = QTable::new(
            discretizer.exit_state_count(),
            num_exits,
            config.learning_rate,
            config.discount,
        );
        let continue_table = QTable::new(
            discretizer.continue_state_count(),
            2,
            config.learning_rate,
            config.discount,
        );
        let schedule = EpsilonSchedule::new(
            config.epsilon_start,
            config.epsilon_end,
            config.epsilon_decay_events,
        );
        let rng = StdRng::seed_from_u64(config.seed);
        QLearningExitPolicy {
            discretizer,
            exit_table,
            continue_table,
            schedule,
            rng,
            learning: true,
            events_seen: 0,
            awaiting: None,
            pending: None,
            pending_continue: None,
        }
    }

    /// Enables or disables learning (exploration and table updates). With
    /// learning disabled the agent acts greedily on its current tables.
    pub fn set_learning(&mut self, learning: bool) {
        self.learning = learning;
    }

    /// The exit-selection Q-table.
    pub fn exit_table(&self) -> &QTable {
        &self.exit_table
    }

    /// The incremental-inference Q-table.
    pub fn continue_table(&self) -> &QTable {
        &self.continue_table
    }

    /// Number of events the agent has seen.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The current exploration rate.
    pub fn epsilon(&self) -> f64 {
        if self.learning {
            self.schedule.epsilon(self.events_seen)
        } else {
            0.0
        }
    }

    /// Marks the end of a learning episode. Decision bookkeeping that only
    /// makes sense within one event (`awaiting`, `pending_continue`) is
    /// cleared; the last exit decision's pending transition is kept and will
    /// be completed by the first event of the next episode — on the real
    /// device the runtime never terminates, so episodes are an experimental
    /// artefact and must not inject artificial terminal updates.
    pub fn end_episode(&mut self) {
        self.awaiting = None;
        self.pending_continue = None;
    }
}

impl ExitPolicy for QLearningExitPolicy {
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
        let state = self.discretizer.exit_state(ctx.energy_fraction(), ctx.charging_efficiency);
        // Complete the previous event's update now that its successor state is
        // known (the SARSA-style bookkeeping of Eq. 16).
        if self.learning {
            if let Some((s, a, r)) = self.pending.take() {
                self.exit_table.update(s, a, r, Some(state));
            }
        }
        let epsilon = self.epsilon();
        let action = self.exit_table.select_epsilon_greedy(state, epsilon, &mut self.rng);
        self.awaiting = Some((state, action));
        self.events_seen += 1;
        ExitChoice::Exit(action)
    }

    fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
        let state = self.discretizer.continue_state(ctx.confidence, ctx.energy_fraction());
        let epsilon = self.epsilon();
        let action = self.continue_table.select_epsilon_greedy(state, epsilon, &mut self.rng);
        self.pending_continue = Some((state, action));
        // Action 1 = continue; the simulator still enforces affordability.
        action == 1 && ctx.affordable()
    }

    fn observe_outcome(&mut self, feedback: &EventFeedback) {
        // Reward of the exit decision: the accuracy of the exit that produced
        // the final result; zero when the event was missed.
        let reward = if feedback.missed { 0.0 } else { feedback.expected_accuracy };
        if self.learning {
            if let Some((state, action)) = self.awaiting.take() {
                self.pending = Some((state, action, reward));
            }
            if let Some((state, action)) = self.pending_continue.take() {
                // The continuation decision is terminal within the event.
                self.continue_table.update(state, action, reward, None);
            }
        } else {
            self.awaiting = None;
            self.pending_continue = None;
        }
    }

    fn name(&self) -> &str {
        "q-learning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(energy: f64, efficiency: f64) -> EventContext {
        EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: energy,
            capacity_mj: 4.0,
            charging_efficiency: efficiency,
            exit_energy_mj: vec![0.2, 0.8, 1.6],
            exit_accuracy: vec![0.62, 0.69, 0.70],
        }
    }

    fn feedback(exit: Option<usize>, acc: f64, missed: bool) -> EventFeedback {
        EventFeedback {
            event_id: 0,
            chosen_exit: exit,
            final_exit: exit,
            expected_accuracy: acc,
            correct: !missed,
            energy_spent_mj: 0.0,
            missed,
        }
    }

    fn policy() -> QLearningExitPolicy {
        QLearningExitPolicy::new(3, StateDiscretizer::paper_default(), QLearningConfig::default())
    }

    #[test]
    fn always_returns_an_exit_and_counts_events() {
        let mut p = policy();
        for i in 0..10 {
            match p.choose_exit(&ctx(2.0, 0.5)) {
                ExitChoice::Exit(e) => assert!(e < 3),
                ExitChoice::Skip => panic!("the Q-learning action space has no skip action"),
            }
            p.observe_outcome(&feedback(Some(0), 0.62, false));
            assert_eq!(p.events_seen(), i + 1);
        }
        assert_eq!(p.name(), "q-learning");
        assert!(p.reads_charging_efficiency(), "the efficiency is part of the exit state");
    }

    #[test]
    fn rewards_propagate_into_the_exit_table() {
        let mut p = policy();
        // Repeatedly visit the same state; reward only exit 1.
        for _ in 0..300 {
            let choice = p.choose_exit(&ctx(2.0, 0.5));
            let exit = match choice {
                ExitChoice::Exit(e) => e,
                ExitChoice::Skip => unreachable!(),
            };
            let reward = if exit == 1 { 0.9 } else { 0.05 };
            p.observe_outcome(&feedback(Some(exit), reward, false));
        }
        p.end_episode();
        let state = StateDiscretizer::paper_default().exit_state(0.5, 0.5);
        assert_eq!(p.exit_table().select_greedy(state), 1);
        assert!(p.exit_table().updates() > 0);
    }

    #[test]
    fn missed_events_receive_zero_reward() {
        let mut p = policy();
        for _ in 0..200 {
            let _ = p.choose_exit(&ctx(0.1, 0.0));
            p.observe_outcome(&feedback(None, 0.0, true));
        }
        p.end_episode();
        let state = StateDiscretizer::paper_default().exit_state(0.1 / 4.0, 0.0);
        // Every action keeps roughly zero value in that starved state.
        for a in 0..3 {
            assert!(p.exit_table().value(state, a) <= 0.05);
        }
    }

    #[test]
    fn continuation_table_learns_from_feedback() {
        let mut p = policy();
        let cc = ContinueContext {
            event_id: 0,
            current_exit: 0,
            next_exit: 1,
            confidence: 0.2,
            available_energy_mj: 3.0,
            capacity_mj: 4.0,
            incremental_energy_mj: 0.5,
        };
        let mut continued = 0;
        for _ in 0..200 {
            let _ = p.choose_exit(&ctx(3.0, 0.5));
            if p.choose_continue(&cc) {
                continued += 1;
                p.observe_outcome(&feedback(Some(1), 0.9, false));
            } else {
                p.observe_outcome(&feedback(Some(0), 0.1, false));
            }
        }
        assert!(continued > 0, "exploration must try continuing at least once");
        let state = StateDiscretizer::paper_default().continue_state(0.2, 0.75);
        assert_eq!(
            p.continue_table().select_greedy(state),
            1,
            "continuing is clearly better in this synthetic setup"
        );
    }

    #[test]
    fn disabling_learning_freezes_the_tables_and_acts_greedily() {
        let mut p = policy();
        p.set_learning(false);
        assert_eq!(p.epsilon(), 0.0);
        let updates_before = p.exit_table().updates();
        let _ = p.choose_exit(&ctx(2.0, 0.5));
        p.observe_outcome(&feedback(Some(0), 0.62, false));
        let _ = p.choose_exit(&ctx(2.0, 0.5));
        assert_eq!(p.exit_table().updates(), updates_before);
    }
}

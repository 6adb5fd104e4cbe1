use rand::Rng;

/// A tabular Q-learning agent over discrete states and actions.
///
/// The table is the only state; the update rule is Eq. (16) of the paper:
/// `Q(s,a) ← Q(s,a) + α (r + γ·max_a' Q(s',a') − Q(s,a))`.
///
/// # Example
///
/// ```
/// use ie_rl::QTable;
///
/// let mut q = QTable::new(2, 3, 0.1, 0.95);
/// for _ in 0..100 {
///     q.update(0, 2, 1.0, None); // action 2 in state 0 always pays off
/// }
/// assert_eq!(q.select_greedy(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    values: Vec<f64>,
    learning_rate: f64,
    discount: f64,
    updates: u64,
}

impl QTable {
    /// Creates a zero-initialised table.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` or `num_actions` is zero, the learning rate is
    /// not in `(0, 1]`, or the discount is not in `[0, 1]`.
    pub fn new(num_states: usize, num_actions: usize, learning_rate: f64, discount: f64) -> Self {
        assert!(num_states > 0 && num_actions > 0, "state and action spaces must be non-empty");
        assert!(learning_rate > 0.0 && learning_rate <= 1.0, "learning rate must be in (0, 1]");
        assert!((0.0..=1.0).contains(&discount), "discount must be in [0, 1]");
        QTable {
            num_states,
            num_actions,
            values: vec![0.0; num_states * num_actions],
            learning_rate,
            discount,
            updates: 0,
        }
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The Q-value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if the state or action is out of range.
    pub fn value(&self, state: usize, action: usize) -> f64 {
        assert!(state < self.num_states && action < self.num_actions, "state/action out of range");
        self.values[state * self.num_actions + action]
    }

    /// Highest Q-value achievable from `state`.
    pub fn max_value(&self, state: usize) -> f64 {
        (0..self.num_actions).map(|a| self.value(state, a)).fold(f64::NEG_INFINITY, f64::max)
    }

    /// The greedy action for `state` (lowest index on ties).
    pub fn select_greedy(&self, state: usize) -> usize {
        let mut best = 0;
        for a in 1..self.num_actions {
            if self.value(state, a) > self.value(state, best) {
                best = a;
            }
        }
        best
    }

    /// ε-greedy action selection.
    pub fn select_epsilon_greedy<R: Rng + ?Sized>(
        &self,
        state: usize,
        epsilon: f64,
        rng: &mut R,
    ) -> usize {
        if rng.gen::<f64>() < epsilon.clamp(0.0, 1.0) {
            rng.gen_range(0..self.num_actions)
        } else {
            self.select_greedy(state)
        }
    }

    /// Applies the Q-learning update for a transition. `next_state == None`
    /// marks a terminal transition (no bootstrap term).
    ///
    /// # Panics
    ///
    /// Panics if the state or action is out of range.
    pub fn update(&mut self, state: usize, action: usize, reward: f64, next_state: Option<usize>) {
        let bootstrap = match next_state {
            Some(s) => self.discount * self.max_value(s),
            None => 0.0,
        };
        let idx = state * self.num_actions + action;
        assert!(state < self.num_states && action < self.num_actions, "state/action out of range");
        let current = self.values[idx];
        self.values[idx] = current + self.learning_rate * (reward + bootstrap - current);
        self.updates += 1;
    }
}

/// A linearly decaying exploration schedule for ε-greedy action selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    start: f64,
    end: f64,
    decay_steps: u64,
}

impl EpsilonSchedule {
    /// Creates a schedule decaying from `start` to `end` over `decay_steps`.
    pub fn new(start: f64, end: f64, decay_steps: u64) -> Self {
        EpsilonSchedule {
            start: start.clamp(0.0, 1.0),
            end: end.clamp(0.0, 1.0),
            decay_steps: decay_steps.max(1),
        }
    }

    /// The exploration rate at `step`.
    pub fn epsilon(&self, step: u64) -> f64 {
        let progress = (step as f64 / self.decay_steps as f64).min(1.0);
        self.start + (self.end - self.start) * progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn update_moves_value_towards_reward() {
        let mut q = QTable::new(3, 2, 0.5, 0.9);
        q.update(1, 0, 2.0, None);
        assert!((q.value(1, 0) - 1.0).abs() < 1e-12);
        q.update(1, 0, 2.0, None);
        assert!((q.value(1, 0) - 1.5).abs() < 1e-12);
        assert_eq!(q.updates(), 2);
    }

    #[test]
    fn bootstrap_uses_best_next_action() {
        let mut q = QTable::new(2, 2, 1.0, 0.5);
        // Make state 1 worth 4 via action 1.
        q.update(1, 1, 4.0, None);
        // Transition from state 0 with zero reward into state 1.
        q.update(0, 0, 0.0, Some(1));
        assert!((q.value(0, 0) - 2.0).abs() < 1e-12, "0 + 0.5 * max_a Q(1,a) = 2");
    }

    #[test]
    fn greedy_selection_finds_learned_optimum() {
        let mut q = QTable::new(4, 3, 0.2, 0.9);
        let mut rng = StdRng::seed_from_u64(0);
        // Reward structure: best action = state index modulo 3.
        for _ in 0..2000 {
            let s = rng.gen_range(0..4);
            let a = rng.gen_range(0..3);
            let r = if a == s % 3 { 1.0 } else { 0.0 };
            q.update(s, a, r, None);
        }
        for s in 0..4 {
            assert_eq!(q.select_greedy(s), s % 3, "state {s}");
        }
    }

    #[test]
    fn epsilon_greedy_explores_and_exploits() {
        let mut q = QTable::new(1, 4, 0.5, 0.9);
        q.update(0, 3, 1.0, None);
        let mut rng = StdRng::seed_from_u64(1);
        let greedy: Vec<usize> =
            (0..50).map(|_| q.select_epsilon_greedy(0, 0.0, &mut rng)).collect();
        assert!(greedy.iter().all(|&a| a == 3));
        let explored: Vec<usize> =
            (0..200).map(|_| q.select_epsilon_greedy(0, 1.0, &mut rng)).collect();
        assert!(explored.iter().any(|&a| a != 3), "pure exploration must try other actions");
    }

    #[test]
    fn epsilon_schedule_decays_linearly_and_saturates() {
        let s = EpsilonSchedule::new(1.0, 0.1, 100);
        assert!((s.epsilon(0) - 1.0).abs() < 1e-12);
        assert!((s.epsilon(50) - 0.55).abs() < 1e-12);
        assert!((s.epsilon(100) - 0.1).abs() < 1e-12);
        assert!((s.epsilon(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "state/action out of range")]
    fn out_of_range_access_panics() {
        let q = QTable::new(2, 2, 0.5, 0.9);
        let _ = q.value(2, 0);
    }
}

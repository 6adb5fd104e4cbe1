//! The decision interface between the event-loop simulator and an exit
//! selection strategy (static LUT, greedy, or the runtime Q-learning agent).

/// Everything a policy can observe when an event arrives (the Q-learning
/// state of Section IV plus the per-exit costs it needs to reason about
/// affordability).
#[derive(Debug, Clone, PartialEq)]
pub struct EventContext {
    /// Sequential event identifier.
    pub event_id: usize,
    /// Arrival time, seconds.
    pub time_s: f64,
    /// Energy currently stored, millijoules.
    pub available_energy_mj: f64,
    /// Storage capacity, millijoules.
    pub capacity_mj: f64,
    /// Charging-efficiency observable in `[0, 1]` (recent harvested power
    /// relative to the trace's peak).
    ///
    /// `EventLoopSimulator` and the fleet share one replay loop, which
    /// computes it fresh before each event only for a policy whose
    /// [`ExitPolicy::reads_charging_efficiency`] returns `true` (the runtime
    /// Q-learning agent, and any policy that keeps the default). Every other
    /// policy, including every fleet policy, sees 0.0 here.
    pub charging_efficiency: f64,
    /// Energy cost of running each exit from scratch, millijoules.
    pub exit_energy_mj: Vec<f64>,
    /// Predicted accuracy of each exit, in `[0, 1]`.
    pub exit_accuracy: Vec<f64>,
}

impl EventContext {
    /// Stored energy as a fraction of capacity, in `[0, 1]`.
    pub fn energy_fraction(&self) -> f64 {
        if self.capacity_mj <= 0.0 {
            0.0
        } else {
            (self.available_energy_mj / self.capacity_mj).clamp(0.0, 1.0)
        }
    }

    /// The deepest exit whose from-scratch energy cost fits the currently
    /// available energy, if any.
    pub fn deepest_affordable_exit(&self) -> Option<usize> {
        self.exit_energy_mj
            .iter()
            .enumerate()
            .filter(|(_, &cost)| cost <= self.available_energy_mj + 1e-12)
            .map(|(i, _)| i)
            .next_back()
    }

    /// Returns `true` when exit `exit` is affordable right now.
    pub fn affordable(&self, exit: usize) -> bool {
        self.exit_energy_mj
            .get(exit)
            .map(|&cost| cost <= self.available_energy_mj + 1e-12)
            .unwrap_or(false)
    }
}

/// Everything a policy can observe when deciding whether to continue an
/// inference to the next exit (the second Q-table's state in Section IV).
#[derive(Debug, Clone, PartialEq)]
pub struct ContinueContext {
    /// Event identifier.
    pub event_id: usize,
    /// The exit that just produced a result.
    pub current_exit: usize,
    /// The next (deeper) exit the inference could continue to.
    pub next_exit: usize,
    /// Normalised confidence of the current result, in `[0, 1]`.
    pub confidence: f64,
    /// Energy still stored after the current inference, millijoules.
    pub available_energy_mj: f64,
    /// Storage capacity, millijoules.
    pub capacity_mj: f64,
    /// Additional energy the continuation would cost, millijoules.
    pub incremental_energy_mj: f64,
}

impl ContinueContext {
    /// Remaining energy as a fraction of capacity.
    pub fn energy_fraction(&self) -> f64 {
        if self.capacity_mj <= 0.0 {
            0.0
        } else {
            (self.available_energy_mj / self.capacity_mj).clamp(0.0, 1.0)
        }
    }

    /// Returns `true` when the continuation is affordable.
    pub fn affordable(&self) -> bool {
        self.incremental_energy_mj <= self.available_energy_mj + 1e-12
    }
}

/// What the simulator reports back after an event is resolved, so learning
/// policies can update themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFeedback {
    /// Event identifier.
    pub event_id: usize,
    /// The exit chosen initially, or `None` when the policy skipped / the
    /// event was missed.
    pub chosen_exit: Option<usize>,
    /// The exit that produced the final result (differs from `chosen_exit`
    /// after an incremental inference), or `None` for missed events.
    pub final_exit: Option<usize>,
    /// Expected accuracy of the final exit (0 for missed events) — the reward
    /// `r = Acc_a` of Eq. (16).
    pub expected_accuracy: f64,
    /// Whether the sampled classification was actually correct.
    pub correct: bool,
    /// Energy spent on this event, millijoules.
    pub energy_spent_mj: f64,
    /// Whether the event was missed.
    pub missed: bool,
}

/// The decision an exit policy makes when an event arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitChoice {
    /// Do not attempt inference for this event (it will count as missed).
    Skip,
    /// Run inference up to the given exit.
    Exit(usize),
}

/// An exit-selection strategy driven by the event-loop simulator.
///
/// All methods take `&mut self` so learning policies (the runtime Q-learning
/// agent) can carry state between events; stateless policies simply ignore the
/// mutability.
pub trait ExitPolicy {
    /// Chooses the exit for a newly arrived event.
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice;

    /// Decides whether to continue a low-confidence result to the next exit.
    /// The default declines.
    fn choose_continue(&mut self, _ctx: &ContinueContext) -> bool {
        false
    }

    /// Receives the outcome of the event (reward signal). The default ignores
    /// it.
    fn observe_outcome(&mut self, _feedback: &EventFeedback) {}

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &str {
        "policy"
    }

    /// Whether [`Self::choose_exit`] reads
    /// [`EventContext::charging_efficiency`]. Both simulators,
    /// `EventLoopSimulator` and the fleet, integrate the efficiency window
    /// before an event only when this returns `true`.
    ///
    /// The default is `true`. Return `false` only when `choose_exit` never
    /// reads that field: the policy then sees 0.0 there.
    fn reads_charging_efficiency(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(available: f64) -> EventContext {
        EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: available,
            capacity_mj: 5.0,
            charging_efficiency: 0.4,
            exit_energy_mj: vec![0.2, 0.8, 1.6],
            exit_accuracy: vec![0.62, 0.69, 0.70],
        }
    }

    #[test]
    fn deepest_affordable_exit_respects_costs() {
        assert_eq!(ctx(0.1).deepest_affordable_exit(), None);
        assert_eq!(ctx(0.3).deepest_affordable_exit(), Some(0));
        assert_eq!(ctx(1.0).deepest_affordable_exit(), Some(1));
        assert_eq!(ctx(3.0).deepest_affordable_exit(), Some(2));
        assert!(ctx(1.0).affordable(1));
        assert!(!ctx(1.0).affordable(2));
        assert!(!ctx(1.0).affordable(9));
    }

    #[test]
    fn energy_fraction_is_clamped() {
        assert!((ctx(2.5).energy_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ctx(99.0).energy_fraction(), 1.0);
        let mut c = ctx(1.0);
        c.capacity_mj = 0.0;
        assert_eq!(c.energy_fraction(), 0.0);
    }

    #[test]
    fn continue_context_affordability() {
        let cc = ContinueContext {
            event_id: 1,
            current_exit: 0,
            next_exit: 1,
            confidence: 0.3,
            available_energy_mj: 0.5,
            capacity_mj: 5.0,
            incremental_energy_mj: 0.6,
        };
        assert!(!cc.affordable());
        assert!((cc.energy_fraction() - 0.1).abs() < 1e-12);
        let cc2 = ContinueContext { incremental_energy_mj: 0.4, ..cc };
        assert!(cc2.affordable());
    }

    #[test]
    fn default_trait_methods_are_benign() {
        struct Always0;
        impl ExitPolicy for Always0 {
            fn choose_exit(&mut self, _ctx: &EventContext) -> ExitChoice {
                ExitChoice::Exit(0)
            }
        }
        let mut p = Always0;
        assert_eq!(p.choose_exit(&ctx(1.0)), ExitChoice::Exit(0));
        assert!(!p.choose_continue(&ContinueContext {
            event_id: 0,
            current_exit: 0,
            next_exit: 1,
            confidence: 0.0,
            available_energy_mj: 9.0,
            capacity_mj: 9.0,
            incremental_energy_mj: 0.1,
        }));
        p.observe_outcome(&EventFeedback {
            event_id: 0,
            chosen_exit: Some(0),
            final_exit: Some(0),
            expected_accuracy: 0.6,
            correct: true,
            energy_spent_mj: 0.2,
            missed: false,
        });
        assert_eq!(p.name(), "policy");
        assert!(p.reads_charging_efficiency(), "an unknown policy keeps the fresh value");
    }
}

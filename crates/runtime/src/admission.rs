//! Runtime exit policies as **admission control** for the serving loop.
//!
//! The paper's runtime policies (the static LUT of Fig. 7 and the Q-learning
//! agent) choose the deepest exit whose *energy* cost fits the energy stored
//! in the capacitor. An open-loop inference server faces the structurally
//! identical decision with a different resource: choose the deepest exit
//! whose *latency* cost fits the request's remaining latency budget. This
//! module adapts any [`ExitPolicy`] to that setting by re-reading the policy's
//! observable state: "available energy" becomes the request's latency budget,
//! the per-exit energy costs become the per-exit predicted latencies, and the
//! storage capacity becomes the deepest exit's latency (so the policy's
//! normalised energy fraction turns into a normalised budget fraction).
//!
//! Determinism contract: [`LatencyAdmission::admit`] never feeds outcome
//! feedback to the wrapped policy, so a frozen policy (the LUT, or a
//! Q-learning agent with learning disabled) is a pure function of the budget
//! — the serving loop's responses stay byte-identical for a fixed request
//! order regardless of worker count or batch composition. Wrapping a policy
//! with learning (and therefore exploration) still yields deterministic
//! decisions for a fixed admission order, because the server admits requests
//! strictly in arrival order, but it is the caller's job to freeze the agent
//! when cross-run reproducibility matters.

use crate::{Result, RuntimeError, StateDiscretizer, StaticLutPolicy};
use ie_core::{EventContext, ExitChoice, ExitPolicy};

/// Deepest exit whose predicted cost fits within `budget_s`, or `None` when
/// even the shallowest exit does not. This is the budget half of the serving
/// layer's deadline-aware degradation: given the time a request has left
/// after its modeled queueing wait, it bounds how deep the network may run.
/// Costs are scanned from the deep end, so with a monotone cost table this
/// is the greedy rule of the paper's static LUT evaluated exactly.
pub fn deepest_affordable(exit_cost_s: &[f64], budget_s: f64) -> Option<usize> {
    exit_cost_s.iter().rposition(|&c| c <= budget_s)
}

/// Adapts an [`ExitPolicy`] into per-request admission control under a
/// latency budget (see the module docs for the observable mapping).
pub struct LatencyAdmission {
    policy: Box<dyn ExitPolicy + Send>,
    /// Reused observation buffer; `exit_energy_mj` holds the per-exit
    /// latency costs in seconds, so admission performs no per-request
    /// allocations.
    ctx: EventContext,
}

impl std::fmt::Debug for LatencyAdmission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyAdmission")
            .field("policy", &self.policy.name())
            .field("exit_cost_s", &self.ctx.exit_energy_mj)
            .finish()
    }
}

impl LatencyAdmission {
    /// Wraps `policy` over the given per-exit latency costs (seconds) and
    /// predicted per-exit accuracies. The budget "capacity" is the deepest
    /// exit's cost: a request whose budget covers the deepest exit looks like
    /// a full capacitor to the policy.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidAdmission`] when the cost table is
    /// empty, the accuracy table has a different length, or any cost is
    /// non-positive or non-finite.
    pub fn new(
        policy: Box<dyn ExitPolicy + Send>,
        exit_cost_s: Vec<f64>,
        exit_accuracy: Vec<f64>,
    ) -> Result<Self> {
        let capacity = exit_cost_s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        LatencyAdmission::with_capacity(policy, exit_cost_s, exit_accuracy, capacity)
    }

    /// [`LatencyAdmission::new`] with an explicit budget capacity — the
    /// budget that maps to a "full capacitor" in the policy's normalised
    /// state. A policy whose decisions were built against a specific
    /// capacity (the static LUT) must observe that same capacity here.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidAdmission`] on an invalid table or a
    /// non-positive/non-finite capacity.
    pub fn with_capacity(
        policy: Box<dyn ExitPolicy + Send>,
        exit_cost_s: Vec<f64>,
        exit_accuracy: Vec<f64>,
        capacity_s: f64,
    ) -> Result<Self> {
        if exit_cost_s.is_empty() {
            return Err(RuntimeError::InvalidAdmission("empty exit cost table".into()));
        }
        if exit_cost_s.len() != exit_accuracy.len() {
            return Err(RuntimeError::InvalidAdmission(format!(
                "{} exit costs but {} exit accuracies",
                exit_cost_s.len(),
                exit_accuracy.len()
            )));
        }
        if exit_cost_s.iter().any(|c| !c.is_finite() || *c <= 0.0) {
            return Err(RuntimeError::InvalidAdmission(format!(
                "exit costs must be positive and finite, got {exit_cost_s:?}"
            )));
        }
        if !capacity_s.is_finite() || capacity_s <= 0.0 {
            return Err(RuntimeError::InvalidAdmission(format!(
                "budget capacity must be positive and finite, got {capacity_s}"
            )));
        }
        let ctx = EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: 0.0,
            capacity_mj: capacity_s,
            charging_efficiency: 0.0,
            exit_energy_mj: exit_cost_s,
            exit_accuracy,
        };
        Ok(LatencyAdmission { policy, ctx })
    }

    /// The paper's static-LUT baseline as admission control: for every
    /// discretised budget level the LUT stores the deepest exit whose latency
    /// fits, built once up front exactly like the compression-phase energy
    /// LUT.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidAdmission`] on an invalid cost table.
    pub fn static_lut(
        exit_cost_s: Vec<f64>,
        exit_accuracy: Vec<f64>,
        discretizer: StateDiscretizer,
    ) -> Result<Self> {
        // Scale the capacity so the top bin's representative (mid-point)
        // budget lands exactly on the deepest exit's cost — otherwise no bin
        // would ever prescribe the deepest exit (its mid-point is strictly
        // below the bin's upper edge).
        let max_cost = exit_cost_s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let capacity = max_cost / discretizer.energy_bin_midpoint(discretizer.energy_bins() - 1);
        let lut = StaticLutPolicy::from_costs(&exit_cost_s, capacity, discretizer);
        LatencyAdmission::with_capacity(Box::new(lut), exit_cost_s, exit_accuracy, capacity)
    }

    /// Number of exits the admission table covers.
    pub fn num_exits(&self) -> usize {
        self.ctx.exit_energy_mj.len()
    }

    /// Per-exit latency costs (seconds) the decisions are based on.
    pub fn exit_cost_s(&self) -> &[f64] {
        &self.ctx.exit_energy_mj
    }

    /// Name of the wrapped policy (for reports).
    pub fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    /// Decides the exit for a request with `budget_s` seconds of latency
    /// budget, or `None` to reject (shed) the request. The observable state
    /// handed to the policy depends only on the budget, so with a frozen
    /// policy this is a pure function.
    ///
    /// An exit index beyond the cost table (possible only with a misbehaving
    /// custom policy) is clamped to the deepest exit instead of panicking —
    /// admission control must not take the serving loop down.
    pub fn admit(&mut self, request_id: u64, budget_s: f64) -> Option<usize> {
        self.ctx.event_id = request_id as usize;
        self.ctx.available_energy_mj = budget_s.max(0.0);
        match self.policy.choose_exit(&self.ctx) {
            ExitChoice::Skip => None,
            ExitChoice::Exit(exit) => Some(exit.min(self.num_exits() - 1)),
        }
    }

    /// [`deepest_affordable`] over this admission table.
    pub fn deepest_affordable(&self, budget_s: f64) -> Option<usize> {
        deepest_affordable(self.exit_cost_s(), budget_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QLearningConfig, QLearningExitPolicy};

    fn costs() -> (Vec<f64>, Vec<f64>) {
        (vec![0.001, 0.004, 0.009], vec![0.62, 0.69, 0.70])
    }

    #[test]
    fn construction_validates_tables() {
        let (c, a) = costs();
        assert!(LatencyAdmission::static_lut(
            c.clone(),
            a.clone(),
            StateDiscretizer::paper_default()
        )
        .is_ok());
        assert!(matches!(
            LatencyAdmission::static_lut(vec![], vec![], StateDiscretizer::paper_default()),
            Err(RuntimeError::InvalidAdmission(_))
        ));
        assert!(LatencyAdmission::static_lut(
            c.clone(),
            a[..2].to_vec(),
            StateDiscretizer::paper_default()
        )
        .is_err());
        assert!(LatencyAdmission::static_lut(
            vec![0.0, 0.1, 0.2],
            a,
            StateDiscretizer::paper_default()
        )
        .is_err());
    }

    #[test]
    fn lut_admission_is_monotone_in_the_budget() {
        let (c, a) = costs();
        let mut adm =
            LatencyAdmission::static_lut(c, a, StateDiscretizer::paper_default()).unwrap();
        assert_eq!(adm.policy_name(), "static-lut");
        assert_eq!(adm.num_exits(), 3);
        // A generous budget buys the deepest exit, a tight one the shallow
        // exit, an impossible one a rejection.
        assert_eq!(adm.admit(0, 0.010), Some(2));
        assert_eq!(adm.admit(1, 0.002), Some(0));
        assert_eq!(adm.admit(2, 0.0), None);
        assert_eq!(adm.admit(3, -1.0), None, "negative budgets are clamped, not UB");
        // The decision sequence only depends on the budgets, so replaying it
        // reproduces the decisions exactly.
        let replay: Vec<Option<usize>> = [0.010, 0.002, 0.0, -1.0]
            .iter()
            .enumerate()
            .map(|(i, b)| adm.admit(i as u64, *b))
            .collect();
        assert_eq!(replay, vec![Some(2), Some(0), None, None]);
    }

    #[test]
    fn admission_never_exceeds_the_exit_table() {
        struct Bogus;
        impl ExitPolicy for Bogus {
            fn choose_exit(&mut self, _ctx: &EventContext) -> ExitChoice {
                ExitChoice::Exit(99)
            }
        }
        let (c, a) = costs();
        let mut adm = LatencyAdmission::new(Box::new(Bogus), c, a).unwrap();
        assert_eq!(adm.admit(0, 1.0), Some(2), "out-of-range exits are clamped to the deepest");
    }

    #[test]
    fn deepest_affordable_walks_the_cost_table() {
        let (c, a) = costs();
        assert_eq!(deepest_affordable(&c, 1.0), Some(2));
        assert_eq!(deepest_affordable(&c, 0.009), Some(2), "exact fit is affordable");
        assert_eq!(deepest_affordable(&c, 0.005), Some(1));
        assert_eq!(deepest_affordable(&c, 0.001), Some(0));
        assert_eq!(deepest_affordable(&c, 0.0005), None);
        assert_eq!(deepest_affordable(&c, f64::NAN), None, "NaN budgets afford nothing");
        let adm = LatencyAdmission::static_lut(c, a, StateDiscretizer::paper_default()).unwrap();
        assert_eq!(adm.deepest_affordable(0.005), Some(1));
    }

    #[test]
    fn frozen_q_policy_admission_is_deterministic() {
        let (c, a) = costs();
        let run = || {
            let mut q = QLearningExitPolicy::new(
                3,
                StateDiscretizer::paper_default(),
                QLearningConfig::default(),
            );
            q.set_learning(false);
            let mut adm = LatencyAdmission::new(Box::new(q), c.clone(), a.clone()).unwrap();
            (0..32).map(|i| adm.admit(i, 0.0003 * i as f64)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

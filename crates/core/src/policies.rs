//! Simple, non-learning exit policies.
//!
//! These serve three purposes: they are the "static" strategies the paper's
//! runtime adaptation is compared against, they are used inside the
//! compression search to estimate how often each exit would be selected under
//! a candidate policy, and they are convenient baselines for tests.

use crate::{ContinueContext, EventContext, ExitChoice, ExitPolicy};

/// Always selects the deepest exit the currently stored energy can pay for
/// ("use all available energy for the best answer now"). This is the simple
/// static policy described in Section III-A's problem formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyAffordablePolicy;

impl GreedyAffordablePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyAffordablePolicy
    }
}

impl ExitPolicy for GreedyAffordablePolicy {
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
        match ctx.deepest_affordable_exit() {
            Some(exit) => ExitChoice::Exit(exit),
            None => ExitChoice::Skip,
        }
    }

    fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
        // Greedy: continue whenever the continuation is affordable.
        ctx.affordable()
    }

    fn name(&self) -> &str {
        "greedy-affordable"
    }

    fn reads_charging_efficiency(&self) -> bool {
        false
    }
}

/// Always requests the same exit (missing the event when it is unaffordable).
/// Single-exit baselines (SonicNet, SpArSeNet, LeNet-Cifar) are a special case
/// with exit 0 on a single-exit profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedExitPolicy {
    exit: usize,
}

impl FixedExitPolicy {
    /// Creates a policy that always chooses `exit`.
    pub fn new(exit: usize) -> Self {
        FixedExitPolicy { exit }
    }

    /// The fixed exit.
    pub fn exit(&self) -> usize {
        self.exit
    }
}

impl ExitPolicy for FixedExitPolicy {
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
        if ctx.affordable(self.exit) {
            ExitChoice::Exit(self.exit)
        } else {
            ExitChoice::Skip
        }
    }

    fn name(&self) -> &str {
        "fixed-exit"
    }

    fn reads_charging_efficiency(&self) -> bool {
        false
    }
}

/// Greedy selection, but only over the energy above a reserve margin: a fixed
/// fraction of the capacity is held back for future events. This captures the
/// "reserve some energy for the future" intuition the paper's Q-learning
/// discovers automatically, without any learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReserveMarginPolicy {
    reserve_fraction: f64,
}

impl ReserveMarginPolicy {
    /// Creates a policy that keeps `reserve_fraction` of the capacity in
    /// reserve (clamped to `[0, 0.9]`).
    pub fn new(reserve_fraction: f64) -> Self {
        ReserveMarginPolicy { reserve_fraction: reserve_fraction.clamp(0.0, 0.9) }
    }

    /// The configured reserve fraction.
    pub fn reserve_fraction(&self) -> f64 {
        self.reserve_fraction
    }
}

impl ExitPolicy for ReserveMarginPolicy {
    fn choose_exit(&mut self, ctx: &EventContext) -> ExitChoice {
        let reserve = self.reserve_fraction * ctx.capacity_mj;
        let spendable = (ctx.available_energy_mj - reserve).max(0.0);
        let affordable = ctx
            .exit_energy_mj
            .iter()
            .enumerate()
            .filter(|(_, &cost)| cost <= spendable + 1e-12)
            .map(|(i, _)| i)
            .next_back();
        match affordable {
            Some(exit) => ExitChoice::Exit(exit),
            // Fall back to the cheapest exit if it is affordable at all, so an
            // event is not missed merely to protect the reserve.
            None if ctx.affordable(0) => ExitChoice::Exit(0),
            None => ExitChoice::Skip,
        }
    }

    fn choose_continue(&mut self, ctx: &ContinueContext) -> bool {
        let reserve = self.reserve_fraction * ctx.capacity_mj;
        ctx.incremental_energy_mj <= (ctx.available_energy_mj - reserve).max(0.0)
    }

    fn name(&self) -> &str {
        "reserve-margin"
    }

    fn reads_charging_efficiency(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx(available: f64) -> EventContext {
        EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: available,
            capacity_mj: 4.0,
            charging_efficiency: 0.5,
            exit_energy_mj: vec![0.2, 0.8, 1.6],
            exit_accuracy: vec![0.62, 0.69, 0.70],
        }
    }

    #[test]
    fn greedy_selects_deepest_affordable_or_skips() {
        let mut p = GreedyAffordablePolicy::new();
        assert_eq!(p.choose_exit(&ctx(2.0)), ExitChoice::Exit(2));
        assert_eq!(p.choose_exit(&ctx(1.0)), ExitChoice::Exit(1));
        assert_eq!(p.choose_exit(&ctx(0.05)), ExitChoice::Skip);
        assert_eq!(p.name(), "greedy-affordable");
    }

    #[test]
    fn fixed_exit_misses_when_unaffordable() {
        let mut p = FixedExitPolicy::new(2);
        assert_eq!(p.exit(), 2);
        assert_eq!(p.choose_exit(&ctx(2.0)), ExitChoice::Exit(2));
        assert_eq!(p.choose_exit(&ctx(1.0)), ExitChoice::Skip);
    }

    #[test]
    fn reserve_margin_prefers_cheaper_exits_than_greedy() {
        let mut greedy = GreedyAffordablePolicy::new();
        let mut reserved = ReserveMarginPolicy::new(0.5);
        assert!((reserved.reserve_fraction() - 0.5).abs() < 1e-12);
        // With 2.0 mJ stored and a 2.0 mJ reserve, only the fallback cheapest
        // exit is selectable, while greedy picks the deepest.
        assert_eq!(greedy.choose_exit(&ctx(2.0)), ExitChoice::Exit(2));
        assert_eq!(reserved.choose_exit(&ctx(2.0)), ExitChoice::Exit(0));
        // With a full buffer the spendable margin allows deeper exits again.
        assert_eq!(reserved.choose_exit(&ctx(4.0)), ExitChoice::Exit(2));
        // If even the cheapest exit is unaffordable, the event is skipped.
        assert_eq!(reserved.choose_exit(&ctx(0.1)), ExitChoice::Skip);
    }

    #[test]
    fn continuation_decisions_respect_reserve() {
        let cc = ContinueContext {
            event_id: 0,
            current_exit: 0,
            next_exit: 1,
            confidence: 0.2,
            available_energy_mj: 1.0,
            capacity_mj: 4.0,
            incremental_energy_mj: 0.8,
        };
        let mut greedy = GreedyAffordablePolicy::new();
        let mut reserved = ReserveMarginPolicy::new(0.5);
        assert!(greedy.choose_continue(&cc));
        assert!(!reserved.choose_continue(&cc), "reserve of 2 mJ blocks the continuation");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The three policies that return `false` from
        /// `reads_charging_efficiency` decide the same whatever the field
        /// holds.
        #[test]
        fn decisions_ignore_the_charging_efficiency(
            available in 0.0f64..5.0,
            capacity in 0.5f64..5.0,
            costs in proptest::collection::vec(0.0f64..3.0, 1..5),
            fixed in 0usize..5,
            reserve in 0.0f64..1.0,
            (confidence, incremental) in (0.0f64..1.0, 0.0f64..3.0),
            efficiency_bits in any::<u64>(),
            uniform in -2.0f64..2.0,
        ) {
            let ctx = EventContext {
                event_id: 3,
                time_s: 100.0,
                available_energy_mj: available,
                capacity_mj: capacity,
                charging_efficiency: 0.0,
                exit_accuracy: vec![0.5; costs.len()],
                exit_energy_mj: costs,
            };
            let cc = ContinueContext {
                event_id: 3,
                current_exit: 0,
                next_exit: 1,
                confidence,
                available_energy_mj: available,
                capacity_mj: capacity,
                incremental_energy_mj: incremental,
            };
            let policies: [&dyn Fn() -> Box<dyn ExitPolicy>; 3] = [
                &|| Box::new(GreedyAffordablePolicy::new()),
                &|| Box::new(FixedExitPolicy::new(fixed)),
                &|| Box::new(ReserveMarginPolicy::new(reserve)),
            ];
            for policy in policies {
                prop_assert!(!policy().reads_charging_efficiency());
                // A fresh policy decides the event, then a continuation.
                let decide = |efficiency: f64| {
                    let mut p = policy();
                    let choice = p
                        .choose_exit(&EventContext { charging_efficiency: efficiency, ..ctx.clone() });
                    (choice, p.choose_continue(&cc))
                };
                let want = decide(0.0);
                for efficiency in
                    [0.5, 1.0, -1.0, f64::NAN, f64::from_bits(efficiency_bits), uniform]
                {
                    prop_assert_eq!(decide(efficiency), want);
                }
            }
        }
    }
}

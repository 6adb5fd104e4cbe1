//! Properties of the overload planner, extending the batching-window
//! partition invariants across the shed/degrade paths: for ANY sorted
//! arrival schedule, budgets, admission decisions, window shape, queue
//! capacity and shed policy —
//!
//! * **conservation**: every request gets exactly one outcome (scheduled,
//!   rejected, or shed), and the planned batches hold exactly the scheduled
//!   requests, once each, in arrival order;
//! * the unbounded planner is **exactly** the window close rule over the
//!   admitted sub-stream, with nothing shed or degraded;
//! * batches respect the size cap, are never empty, and no scheduled
//!   request waits past the window deadline;
//! * degradation only ever *lowers* an exit (and flags it), never invents
//!   capacity, and rejected requests stay rejected whatever the policy.

use ie_serve::{plan_overload, AdmitOutcome, OverloadConfig, ShedPolicy, WindowConfig};
use proptest::prelude::*;

/// Fixed three-exit cost table (seconds) — the planner only reads relative
/// magnitudes, so one table exercises everything.
const COSTS: [f64; 3] = [0.001, 0.004, 0.009];

fn policy_strategy() -> impl Strategy<Value = ShedPolicy> {
    (0usize..3).prop_map(|i| [ShedPolicy::Reject, ShedPolicy::DropOldest, ShedPolicy::Degrade][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn overload_plan_conserves_requests_across_shed_and_degrade(
        gaps in proptest::collection::vec(0.0f64..0.02, 0..80),
        budgets_raw in proptest::collection::vec(0.0f64..0.04, 80),
        // 0..3 = admitted exit, 3 = rejected by admission.
        decisions_raw in proptest::collection::vec(0usize..4, 80),
        max_batch in 1usize..=9,
        deadline_ms in 0.0f64..15.0,
        queue_cap in 1usize..=12,
        policy in policy_strategy(),
    ) {
        let mut arrivals = Vec::with_capacity(gaps.len());
        let mut t = 0.0;
        for g in &gaps {
            t += g;
            arrivals.push(t);
        }
        let n = arrivals.len();
        let budgets = &budgets_raw[..n];
        let decisions: Vec<Option<usize>> =
            decisions_raw[..n].iter().map(|&d| (d < 3).then_some(d)).collect();
        let window = WindowConfig { max_batch, deadline_s: deadline_ms / 1000.0 };
        let config = OverloadConfig { queue_cap, policy };
        let plan = plan_overload(&arrivals, budgets, &decisions, &COSTS, &window, &config).unwrap();

        // Conservation: exactly one outcome each, batches = scheduled set.
        prop_assert_eq!(plan.outcomes.len(), n);
        prop_assert!(
            plan.check_conservation().is_ok(),
            "conservation violated: {:?}",
            plan.check_conservation().err()
        );
        let scheduled = plan.scheduled();
        let shed = plan.shed();
        let rejected =
            plan.outcomes.iter().filter(|o| matches!(o, AdmitOutcome::Rejected)).count();
        prop_assert_eq!(scheduled + shed + rejected, n, "outcomes must partition the stream");

        // Rejection is admission's verdict alone — unchanged by overload.
        for (i, d) in decisions.iter().enumerate() {
            prop_assert_eq!(
                d.is_none(),
                matches!(plan.outcomes[i], AdmitOutcome::Rejected),
                "request {} rejection must mirror its admission decision", i
            );
            // Degradation only lowers, and flags exactly when it lowers.
            if let AdmitOutcome::Scheduled { exit, degraded } = plan.outcomes[i] {
                let admitted = d.unwrap();
                prop_assert!(exit <= admitted, "degradation can only lower an exit");
                prop_assert_eq!(degraded, exit < admitted);
                if policy != ShedPolicy::Degrade {
                    prop_assert_eq!(exit, admitted, "only Degrade may touch the exit");
                }
            }
        }

        // Window invariants survive the overload layer.
        let mut degraded_total = 0;
        for b in &plan.batches {
            prop_assert!(!b.members.is_empty(), "no empty windows");
            prop_assert!(b.members.len() <= max_batch, "size cap respected");
            prop_assert!(b.close_s >= b.open_s);
            prop_assert!(b.done_s >= b.start_s && b.start_s >= b.close_s);
            for &(i, exit) in &b.members {
                let wait = b.close_s - arrivals[i];
                prop_assert!(
                    (-1e-9..=window.deadline_s + 1e-9).contains(&wait),
                    "wait {} vs deadline {}", wait, window.deadline_s
                );
                prop_assert!(exit < COSTS.len());
                if matches!(plan.outcomes[i], AdmitOutcome::Scheduled { degraded: true, .. }) {
                    degraded_total += 1;
                }
            }
        }
        prop_assert_eq!(plan.degraded, degraded_total);
    }

    #[test]
    fn unbounded_plan_applies_the_close_rule(
        // Times on a 1/1024 s grid are exact in f64, so arrivals landing
        // exactly on a window's deadline exercise the edge rule.
        gap_ticks in proptest::collection::vec(0u32..20, 0..80),
        // 0..3 = admitted exit, 3 = rejected by admission.
        decisions_raw in proptest::collection::vec(0usize..4, 80),
        max_batch in 1usize..=9,
        deadline_ticks in 0u32..16,
    ) {
        let tick = 1.0 / 1024.0;
        let mut arrivals = Vec::with_capacity(gap_ticks.len());
        let mut t = 0.0;
        for &g in &gap_ticks {
            t += f64::from(g) * tick;
            arrivals.push(t);
        }
        let n = arrivals.len();
        let decisions: Vec<Option<usize>> =
            decisions_raw[..n].iter().map(|&d| (d < 3).then_some(d)).collect();
        let budgets = vec![1.0; n];
        let window = WindowConfig { max_batch, deadline_s: f64::from(deadline_ticks) * tick };
        let plan = plan_overload(
            &arrivals,
            &budgets,
            &decisions,
            &COSTS,
            &window,
            &OverloadConfig::default(),
        )
        .unwrap();
        prop_assert!(
            plan.check_conservation().is_ok(),
            "conservation violated: {:?}",
            plan.check_conservation().err()
        );
        prop_assert_eq!(plan.shed(), 0, "an unbounded queue never sheds");
        prop_assert_eq!(plan.degraded, 0, "Reject never degrades");

        // The close rule over the admitted sub-stream, stated directly.
        let admitted: Vec<usize> = (0..n).filter(|&i| decisions[i].is_some()).collect();
        let mut next = 0;
        for b in &plan.batches {
            let positions: Vec<usize> = b.members.iter().map(|&(i, _)| i).collect();
            // A window opens at the first admitted arrival not yet batched
            // and takes the admitted arrivals that follow, in order…
            prop_assert_eq!(b.open_s, arrivals[admitted[next]]);
            prop_assert_eq!(Some(&positions[..]), admitted.get(next..next + positions.len()));
            next += positions.len();
            let deadline = b.open_s + window.deadline_s;
            for &i in &positions {
                prop_assert!(arrivals[i] <= deadline, "member {} joined past the deadline", i);
            }
            if positions.len() == max_batch {
                // …closing at its `max_batch`-th member's arrival…
                prop_assert_eq!(b.close_s, arrivals[positions[max_batch - 1]]);
            } else {
                // …or at its deadline, and the first admitted arrival after
                // that opens the next window.
                prop_assert_eq!(b.close_s, deadline);
                if let Some(&following) = admitted.get(next) {
                    prop_assert!(arrivals[following] > deadline);
                }
            }
        }
        prop_assert_eq!(next, admitted.len(), "every admitted request was batched");
    }
}

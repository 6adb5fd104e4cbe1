//! Property: the dynamic batching window partitions the request stream —
//! for ANY sorted arrival schedule, window size and deadline, the replay
//! planner under the default (unbounded) overload config puts every request
//! in exactly one batch (never dropped, never duplicated), batches respect
//! the size cap, and no request waits past the deadline.

use ie_serve::{plan_overload, OverloadConfig, WindowConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn windows_partition_the_stream_without_drops_or_duplicates(
        gaps in proptest::collection::vec(0.0f64..0.02, 0..80),
        max_batch in 1usize..=9,
        deadline_ms in 0.0f64..15.0,
    ) {
        // Arrivals from non-negative gaps are sorted by construction.
        let mut arrivals = Vec::with_capacity(gaps.len());
        let mut t = 0.0;
        for g in &gaps {
            t += g;
            arrivals.push(t);
        }
        let n = arrivals.len();
        let cfg = WindowConfig { max_batch, deadline_s: deadline_ms / 1000.0 };
        let plan = plan_overload(
            &arrivals,
            &vec![1.0; n],
            &vec![Some(0); n],
            &[0.001],
            &cfg,
            &OverloadConfig::default(),
        )
        .unwrap();

        // Exactly once, in order: the concatenated members are 0..n.
        let flat: Vec<usize> =
            plan.batches.iter().flat_map(|b| b.members.iter().map(|&(i, _)| i)).collect();
        prop_assert_eq!(flat, (0..n).collect::<Vec<_>>());

        for b in &plan.batches {
            prop_assert!(!b.members.is_empty(), "no empty windows");
            prop_assert!(b.members.len() <= max_batch, "size cap respected");
            prop_assert!(b.close_s >= b.open_s);
            // A filled window closes at its last arrival, an unfilled one at
            // the deadline — either way nobody waits past the deadline.
            for &(i, _) in &b.members {
                let wait = b.close_s - arrivals[i];
                prop_assert!(
                    (-1e-9..=cfg.deadline_s + 1e-9).contains(&wait),
                    "wait {} vs deadline {}", wait, cfg.deadline_s
                );
                prop_assert!(arrivals[i] >= b.open_s && arrivals[i] <= b.close_s);
            }
        }
    }
}

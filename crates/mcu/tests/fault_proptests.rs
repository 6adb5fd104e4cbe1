//! Property tests over random fault schedules.
//!
//! Whatever the schedule, a run with enough harvestable energy must complete,
//! its output digest must be bit-identical to the fault-free run, the energy
//! ledger `consumed == fault_free + wasted` must close, and the durable
//! checkpoint generation must never regress — within a run or across
//! sequential inferences sharing one NV store.
//!
//! The `IE_FAULT_SEED` env knob (see README) is mixed into every plan seed so
//! CI can exercise disjoint schedule families without code changes.

use ie_mcu::{
    fault_seed_from_env, task_digest, CostModel, FaultInjector, FaultPlan, IntermittentExecutor,
    McuDevice, NonvolatileMemory, TaskGraph, TwoBankCheckpoint,
};
use proptest::prelude::*;

fn executor() -> IntermittentExecutor {
    IntermittentExecutor::new(CostModel::for_device(&McuDevice::msp432()))
}

fn sim() -> ie_energy::HarvestSimulator {
    ie_energy::HarvestSimulator::new(
        Box::new(ie_energy::ConstantTrace::new(2.0, 10_000_000.0)),
        ie_energy::EnergyStorage::new(200.0, 1.0).with_initial_level(100.0),
    )
}

fn env_seed() -> u64 {
    fault_seed_from_env().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_schedules_recover_bit_identically(
        seed in 0u64..1_000_000,
        num_tasks in 1usize..12,
        flops in 100_000u64..3_000_000,
        cut_probability in 0.0f64..0.9,
        max_cuts in 0u64..24,
    ) {
        let graph = TaskGraph::split_evenly("prop", flops, num_tasks);
        let exec = executor();

        let mut free_sim = sim();
        let mut free_nv = NonvolatileMemory::new(1024);
        let fault_free = exec.execute_with_faults(&graph, &mut free_sim, &mut free_nv, &mut FaultInjector::none()).unwrap();
        prop_assert!(fault_free.completed);

        let plan = FaultPlan::random(seed ^ env_seed(), cut_probability, max_cuts);
        let mut faulty_sim = sim();
        let mut nv = NonvolatileMemory::new(1024);
        let mut inj = plan.injector();
        let report = exec.execute_with_faults(&graph, &mut faulty_sim, &mut nv, &mut inj).unwrap();

        prop_assert!(report.completed, "random schedules must terminate (max_cuts bound)");
        prop_assert_eq!(report.output_digest, fault_free.output_digest);
        prop_assert_eq!(report.output_digest, task_digest(&graph, graph.len()));
        prop_assert!(inj.cuts_injected() <= max_cuts);
        prop_assert_eq!(report.torn_writes, nv.torn_writes());
        prop_assert!(report.wasted_reexecution_mj >= 0.0);
        let expected = fault_free.energy_consumed_mj + report.wasted_reexecution_mj;
        prop_assert!(
            (report.energy_consumed_mj - expected).abs() < 1e-9,
            "ledger must close: consumed {} vs fault-free {} + wasted {}",
            report.energy_consumed_mj, fault_free.energy_consumed_mj, report.wasted_reexecution_mj
        );
        // Durable generations: one per committed checkpoint, never regressing.
        prop_assert_eq!(report.checkpoint_generation, report.checkpoints);
        prop_assert!(report.checkpoints >= graph.len() as u64);
        let rec = TwoBankCheckpoint::default().recover(&nv).expect("durable record");
        prop_assert!(rec.done);
        prop_assert_eq!(rec.generation, report.checkpoint_generation);
    }

    #[test]
    fn same_plan_reproduces_the_same_report(
        seed in 0u64..1_000_000,
        cut_probability in 0.0f64..0.9,
    ) {
        let graph = TaskGraph::split_evenly("repro", 1_500_000, 7);
        let exec = executor();
        let plan = FaultPlan::random(seed ^ env_seed(), cut_probability, 16);
        let run = || {
            let mut s = sim();
            let mut nv = NonvolatileMemory::new(1024);
            exec.execute_with_faults(&graph, &mut s, &mut nv, &mut plan.injector()).unwrap()
        };
        prop_assert_eq!(run(), run(), "fault injection must be deterministic per seed");
    }

    #[test]
    fn generation_is_monotone_across_sequential_inferences(
        seed in 0u64..1_000_000,
        rounds in 1usize..5,
        cut_probability in 0.0f64..0.7,
    ) {
        let graph = TaskGraph::split_evenly("mono", 1_000_000, 4);
        let exec = executor();
        let mut nv = NonvolatileMemory::new(1024);
        let mut inj = FaultPlan::random(seed ^ env_seed(), cut_probability, 32).injector();
        let mut last = 0u64;
        for round in 0..rounds {
            let mut s = sim();
            let report = exec.execute_with_faults(&graph, &mut s, &mut nv, &mut inj).unwrap();
            prop_assert!(report.completed);
            prop_assert!(
                report.checkpoint_generation > last,
                "round {}: generation {} did not grow past {}",
                round, report.checkpoint_generation, last
            );
            prop_assert_eq!(report.output_digest, task_digest(&graph, graph.len()));
            last = report.checkpoint_generation;
        }
    }
}

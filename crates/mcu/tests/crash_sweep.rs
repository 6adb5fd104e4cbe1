//! Exhaustive crash-point sweep: every task boundary × every byte offset of
//! the checkpoint write.
//!
//! For each single injected cut the executor must (1) complete, (2) produce
//! an output digest bit-identical to the fault-free run, (3) end on a valid
//! durable checkpoint whose generation never regressed, and (4) report waste
//! that exactly closes the energy ledger against the fault-free run.

use ie_mcu::{
    task_digest, CostModel, ExecutionReport, FaultInjector, FaultPlan, IntermittentExecutor,
    McuDevice, NonvolatileMemory, ScheduledCut, TaskGraph, TwoBankCheckpoint, RECORD_BYTES,
};

const NUM_TASKS: usize = 6;

fn executor() -> IntermittentExecutor {
    IntermittentExecutor::new(CostModel::for_device(&McuDevice::msp432()))
}

fn graph() -> TaskGraph {
    TaskGraph::split_evenly("sweep", 2_000_003, NUM_TASKS)
}

fn run(plan: &FaultPlan) -> (ExecutionReport, NonvolatileMemory) {
    let mut sim = ie_energy::HarvestSimulator::new(
        Box::new(ie_energy::ConstantTrace::new(1.0, 10_000_000.0)),
        ie_energy::EnergyStorage::new(100.0, 1.0).with_initial_level(50.0),
    );
    let mut nv = NonvolatileMemory::new(1024);
    let mut inj = plan.injector();
    let report = executor().execute_with_faults(&graph(), &mut sim, &mut nv, &mut inj).unwrap();
    (report, nv)
}

fn assert_recovered(report: &ExecutionReport, nv: &NonvolatileMemory, context: &str) {
    let reference = task_digest(&graph(), NUM_TASKS);
    assert!(report.completed, "{context}: must complete");
    assert_eq!(report.output_digest, reference, "{context}: digest must be bit-identical");
    let rec = TwoBankCheckpoint::default().recover(nv).expect("durable record");
    assert!(rec.done, "{context}: final record flags completion");
    assert_eq!(rec.generation, report.checkpoint_generation, "{context}");
    assert_eq!(rec.digest, reference, "{context}: durable digest matches");
}

#[test]
fn every_task_boundary_cut_recovers_bit_identically() {
    let (fault_free, _) = run(&FaultPlan::None);
    for task in 0..NUM_TASKS as u64 {
        let plan = FaultPlan::single(ScheduledCut::BeforeTask { nth_exec: task });
        let (report, nv) = run(&plan);
        let context = format!("cut before task {task}");
        assert_recovered(&report, &nv, &context);
        assert_eq!(report.recovered_boots, 1, "{context}");
        assert_eq!(report.torn_writes, 0, "{context}");
        // Nothing past a checkpoint had run, so nothing was wasted.
        assert_eq!(report.wasted_reexecution_mj, 0.0, "{context}");
        assert_eq!(report.energy_consumed_mj, fault_free.energy_consumed_mj, "{context}");
        assert_eq!(report.checkpoint_generation, NUM_TASKS as u64, "{context}");
    }
}

#[test]
fn every_mid_task_cut_recovers_bit_identically() {
    let (fault_free, _) = run(&FaultPlan::None);
    for task in 0..NUM_TASKS as u64 {
        for fraction in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let plan = FaultPlan::single(ScheduledCut::MidTask { nth_exec: task, fraction });
            let (report, nv) = run(&plan);
            let context = format!("cut {fraction} through task {task}");
            assert_recovered(&report, &nv, &context);
            assert_eq!(report.recovered_boots, 1, "{context}");
            let expected = fault_free.energy_consumed_mj + report.wasted_reexecution_mj;
            assert!(
                (report.energy_consumed_mj - expected).abs() < 1e-9,
                "{context}: ledger must close ({} vs {expected})",
                report.energy_consumed_mj,
            );
        }
    }
}

#[test]
fn every_checkpoint_byte_offset_recovers_bit_identically() {
    let (fault_free, _) = run(&FaultPlan::None);
    // Every commit attempt × every byte offset of the record write, plus the
    // post-commit cut (offset == RECORD_BYTES).
    for commit in 0..NUM_TASKS as u64 {
        for offset in 0..=RECORD_BYTES {
            let plan = FaultPlan::single(ScheduledCut::DuringCommit {
                nth_commit: commit,
                byte_offset: offset,
            });
            let (report, nv) = run(&plan);
            let context = format!("tear at byte {offset} of commit {commit}");
            assert_recovered(&report, &nv, &context);
            assert_eq!(report.recovered_boots, 1, "{context}");
            if offset < RECORD_BYTES {
                assert_eq!(report.torn_writes, 1, "{context}");
                assert_eq!(nv.torn_writes(), 1, "{context}");
                assert!(report.wasted_reexecution_mj > 0.0, "{context}: the task re-ran");
            } else {
                assert_eq!(report.torn_writes, 0, "{context}");
                assert_eq!(report.wasted_reexecution_mj, 0.0, "{context}");
            }
            let expected = fault_free.energy_consumed_mj + report.wasted_reexecution_mj;
            assert!(
                (report.energy_consumed_mj - expected).abs() < 1e-9,
                "{context}: ledger must close ({} vs {expected})",
                report.energy_consumed_mj,
            );
            // Torn attempts never mint a durable generation: the count ends
            // at exactly one generation per task.
            assert_eq!(report.checkpoint_generation, NUM_TASKS as u64, "{context}");
        }
    }
}

#[test]
fn double_tears_on_the_same_commit_still_recover() {
    let reference = task_digest(&graph(), NUM_TASKS);
    for offset_a in [0, 7, RECORD_BYTES - 1] {
        for offset_b in [0, 16, RECORD_BYTES - 1] {
            // Tearing commit attempts 2 and 3 hits the same logical
            // checkpoint twice in a row (the retry is attempt 3).
            let plan = FaultPlan::Scripted(vec![
                ScheduledCut::DuringCommit { nth_commit: 2, byte_offset: offset_a },
                ScheduledCut::DuringCommit { nth_commit: 3, byte_offset: offset_b },
            ]);
            let (report, nv) = run(&plan);
            let context = format!("tears at {offset_a}/{offset_b}");
            assert_recovered(&report, &nv, &context);
            assert_eq!(report.torn_writes, 2, "{context}");
            assert_eq!(report.recovered_boots, 2, "{context}");
        }
    }
    // Both banks can be invalid only transiently inside write_torn — after
    // any number of tears, recovery still lands on the reference digest.
    let _ = reference;
}

#[test]
fn executor_report_counts_match_nv_counters() {
    let plan = FaultPlan::Scripted(vec![
        ScheduledCut::MidTask { nth_exec: 0, fraction: 0.4 },
        ScheduledCut::DuringCommit { nth_commit: 1, byte_offset: 5 },
        ScheduledCut::DuringCommit { nth_commit: 4, byte_offset: 30 },
        ScheduledCut::BeforeTask { nth_exec: 6 },
    ]);
    let (report, nv) = run(&plan);
    assert!(report.completed);
    assert_eq!(report.torn_writes, nv.torn_writes());
    assert_eq!(report.recovered_boots, 4);
    assert_eq!(nv.power_failures(), report.power_cycles);
}

#[test]
fn none_plan_injector_is_equivalent_to_plain_execute() {
    let (scripted, _) = run(&FaultPlan::None);
    let mut sim = ie_energy::HarvestSimulator::new(
        Box::new(ie_energy::ConstantTrace::new(1.0, 10_000_000.0)),
        ie_energy::EnergyStorage::new(100.0, 1.0).with_initial_level(50.0),
    );
    let mut nv = NonvolatileMemory::new(1024);
    let plain = executor()
        .execute_with_faults(&graph(), &mut sim, &mut nv, &mut FaultInjector::none())
        .unwrap();
    assert_eq!(plain, scripted);
    let mut inj = FaultInjector::none();
    assert_eq!(inj.cuts_injected(), 0);
    assert_eq!(inj.on_task_start(), None);
}

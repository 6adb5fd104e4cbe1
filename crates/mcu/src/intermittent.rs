//! SONIC-style task-based intermittent execution.
//!
//! Gobieski et al.'s SONIC (the paper's "SonicNet" baseline) splits a DNN
//! inference into tasks, checkpoints progress into non-volatile memory after
//! every task and therefore survives arbitrarily many power failures — at the
//! price of waiting, possibly for a very long time, until enough energy has
//! been harvested to finish all tasks. This module reproduces that execution
//! model over the [`ie_energy::HarvestSimulator`].
//!
//! Execution is a genuine reboot loop: every boot begins by recovering the
//! last committed [`crate::TwoBankCheckpoint`] record from NV memory, and a
//! power cut — natural starvation or one injected by a
//! [`FaultInjector`] — discards all volatile state (the running task index
//! and output digest) and re-enters recovery. Tasks that had run past the
//! last durable checkpoint re-execute, and that re-execution energy is
//! reported as [`ExecutionReport::wasted_reexecution_mj`].

use crate::checkpoint::{CheckpointRecord, TwoBankCheckpoint, RECORD_BYTES};
use crate::fault::{FaultInjector, TaskCut};
use crate::{CostModel, McuError, NonvolatileMemory, Result};
use ie_energy::HarvestSimulator;

/// Initial value of the running output digest (FNV-1a offset basis).
pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one completed task into the running output digest.
///
/// The digest is a stand-in for the inference's actual output bytes: it is
/// held in *volatile* state while tasks run, persisted only inside committed
/// checkpoint records, and depends on every task index in order — so a
/// recovery that skipped, repeated, or reordered a task relative to the last
/// durable checkpoint produces a different final digest. Bit-equality with
/// the fault-free run is therefore exactly the paper's "inference result
/// survives power failure" claim, made checkable.
fn mix_digest(digest: u64, task_index: u64, flops: u64) -> u64 {
    let mut d = digest ^ task_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    d = d.wrapping_mul(FNV_PRIME);
    d ^= flops;
    d.wrapping_mul(FNV_PRIME)
}

/// The output digest of running the first `upto` tasks of `graph` from a
/// fresh start — the reference value crash-recovery tests compare against.
pub fn task_digest(graph: &TaskGraph, upto: usize) -> u64 {
    graph
        .tasks()
        .iter()
        .take(upto)
        .enumerate()
        .fold(DIGEST_INIT, |d, (i, t)| mix_digest(d, i as u64, t.flops))
}

/// One atomic unit of work: runs to completion within a single power cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Task name (used in diagnostics).
    pub name: String,
    /// FLOPs the task performs.
    pub flops: u64,
}

impl Task {
    /// Creates a task.
    pub fn new(name: &str, flops: u64) -> Self {
        Task { name: name.to_string(), flops }
    }
}

/// An ordered collection of tasks making up one inference.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Splits a monolithic inference of `total_flops` into `num_tasks` equal
    /// tasks (SONIC tiles loop iterations; equal splitting captures the same
    /// behaviour at the granularity that matters for energy accounting).
    pub fn split_evenly(name_prefix: &str, total_flops: u64, num_tasks: usize) -> Self {
        let n = num_tasks.max(1) as u64;
        let base = total_flops / n;
        let remainder = total_flops % n;
        let tasks = (0..n)
            .map(|i| Task::new(&format!("{name_prefix}-{i}"), base + u64::from(i < remainder)))
            .collect();
        TaskGraph { tasks }
    }

    /// The tasks in execution order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total FLOPs across all tasks.
    pub fn total_flops(&self) -> u64 {
        self.tasks.iter().map(|t| t.flops).sum()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

impl FromIterator<Task> for TaskGraph {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskGraph { tasks: iter.into_iter().collect() }
    }
}

/// Outcome of running a task graph under intermittent power.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Whether every task completed.
    pub completed: bool,
    /// Wall-clock time spent, in seconds (compute plus waiting for energy).
    pub elapsed_s: f64,
    /// Time spent waiting for energy, in seconds.
    pub waiting_s: f64,
    /// Total energy drawn from storage, in millijoules.
    pub energy_consumed_mj: f64,
    /// Number of power failures (recharge waits) encountered.
    pub power_cycles: u64,
    /// Number of checkpoints durably committed (torn commits excluded).
    pub checkpoints: u64,
    /// Index of the first task that failed to run (when `completed == false`).
    pub failed_task: Option<usize>,
    /// Boots that recovered volatile state from NV after an injected power
    /// cut (natural recharge waits keep the capacitor's progress and are
    /// counted in `power_cycles` only).
    pub recovered_boots: u64,
    /// Checkpoint commits torn mid-write by a power cut.
    pub torn_writes: u64,
    /// Energy spent on work a power cut destroyed: partial task/commit
    /// progress at cut points plus full re-executions of tasks that had
    /// already run past the last durable checkpoint.
    pub wasted_reexecution_mj: f64,
    /// Running digest of the task outputs; bit-identical to the fault-free
    /// run's digest whenever recovery is correct.
    pub output_digest: u64,
    /// Generation of the newest durable checkpoint when execution ended.
    pub checkpoint_generation: u64,
}

/// What a boot found in NV memory (volatile state to resume from).
enum Recovered {
    /// No usable progress for *this* inference; start from task 0.
    /// Carries the generation lineage to continue from.
    Start { generation: u64 },
    /// A mid-run record: resume at `next_task` with the saved digest.
    Resume { generation: u64, next_task: usize, digest: u64 },
    /// A record committed *during this call* says the inference finished
    /// (the cut struck after the final commit became durable); the final
    /// state is re-read from NV by the caller.
    Finished,
}

/// Executes task graphs over a harvesting environment with checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermittentExecutor {
    cost: CostModel,
    /// Maximum time the executor will wait for energy before declaring the
    /// inference dead (the event is then missed).
    max_wait_s: f64,
    /// Polling step while waiting for energy, seconds.
    wait_step_s: f64,
}

impl IntermittentExecutor {
    /// Creates an executor with the given cost model and a default waiting
    /// budget of one hour per task.
    pub fn new(cost: CostModel) -> Self {
        IntermittentExecutor { cost, max_wait_s: 3_600.0, wait_step_s: 1.0 }
    }

    /// Overrides the maximum time to wait for energy before giving up.
    pub fn with_max_wait_s(mut self, max_wait_s: f64) -> Self {
        self.max_wait_s = max_wait_s.max(0.0);
        self
    }

    /// Runs `graph` as a reboot loop under an injected fault schedule
    /// ([`FaultInjector::none`] for none), committing a crash-consistent
    /// checkpoint into `nv` after every task.
    ///
    /// Every boot recovers the newest valid checkpoint from `nv` and resumes
    /// from its `next_task`; an injected cut (before a task, mid-task, or at
    /// a byte offset inside the checkpoint write) loses all volatile state
    /// and re-enters recovery. Injected cuts model brown-outs: the capacitor
    /// keeps its charge, so energy-conservation accounting is unaffected,
    /// but any work past the last durable checkpoint is lost and re-executed.
    ///
    /// A record already in `nv` from a *previous* interrupted call is honoured:
    /// execution resumes from it (true reboot-and-recover across calls), and
    /// the generation lineage continues monotonically across inferences that
    /// share one NV store.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::EmptyTaskGraph`] for an empty graph, or a
    /// propagated NV-capacity error if the store cannot hold the two
    /// checkpoint banks. Starvation is *not* an error: it is reported through
    /// [`ExecutionReport::completed`] so callers can count missed events.
    pub fn execute_with_faults(
        &self,
        graph: &TaskGraph,
        sim: &mut HarvestSimulator,
        nv: &mut NonvolatileMemory,
        faults: &mut FaultInjector,
    ) -> Result<ExecutionReport> {
        if graph.is_empty() {
            return Err(McuError::EmptyTaskGraph);
        }
        let ckpt = TwoBankCheckpoint::default();
        let n = graph.len();
        let start_s = sim.now_s();
        let checkpoint_energy = self.cost.checkpoint_energy_mj();
        let checkpoint_latency = self.cost.checkpoint_latency_s();

        let mut waiting_s = 0.0;
        let mut energy_consumed = 0.0;
        let mut power_cycles = 0u64;
        let mut checkpoints = 0u64;
        let mut recovered_boots = 0u64;
        let mut torn_writes = 0u64;
        let mut wasted = 0.0f64;
        let mut exec_counts = vec![0u32; n];

        // Boot 0: recover whatever a previous life left behind. A done record
        // belongs to a completed earlier inference — only its generation
        // lineage carries over (entry_generation = MAX forces `Start`).
        let (mut generation, mut next_task, mut digest) =
            match Self::recover_state(&ckpt, nv, n, u64::MAX) {
                Recovered::Start { generation } => (generation, 0usize, DIGEST_INIT),
                Recovered::Resume { generation, next_task, digest } => {
                    (generation, next_task, digest)
                }
                Recovered::Finished => unreachable!("entry recovery never Finishes"),
            };
        let entry_generation = generation;

        // One iteration of this loop is one boot: run tasks from `next_task`
        // until completion, starvation or the next power cut. It ends with
        // the index of the task that starved, or `None` once the inference
        // has finished.
        let starved_at = 'boot: loop {
            let mut index = next_task;
            while index < n {
                let task = &graph.tasks()[index];
                let task_energy = self.cost.inference_energy_mj(task.flops);
                let needed = task_energy + checkpoint_energy;

                if !sim.storage().can_supply(needed) {
                    // Natural power failure: progress is safe in NV; wait to
                    // recharge. Volatile state survives in our model because
                    // the wait resumes exactly where the durable checkpoint
                    // says — `index` never moved past the last commit.
                    power_cycles += 1;
                    nv.power_failure();
                    let wait_start = sim.now_s();
                    match sim.wait_for_energy(needed, self.wait_step_s, self.max_wait_s) {
                        Ok(waited) => waiting_s += waited,
                        Err(_) => {
                            // wait_for_energy advances the clock while it
                            // polls, so charge the time actually waited, not
                            // the full budget.
                            waiting_s += sim.now_s() - wait_start;
                            break 'boot Some(index);
                        }
                    }
                }

                // Whether an injected power cut ends this boot at this task.
                let cut = match faults.on_task_start() {
                    // Cut between tasks: nothing consumed, volatile lost.
                    Some(TaskCut::Before) => true,
                    Some(TaskCut::Mid { fraction }) => {
                        // Cut mid-task: the partial energy and latency are
                        // spent and wasted — the task will re-run in full.
                        let f = fraction.clamp(0.0, 1.0);
                        let partial = f * task_energy;
                        sim.consume(partial)?;
                        energy_consumed += partial;
                        wasted += partial;
                        sim.advance_by(f * self.cost.inference_latency_s(task.flops));
                        true
                    }
                    None => {
                        // Run the task to completion.
                        sim.consume(task_energy)?;
                        energy_consumed += task_energy;
                        if exec_counts[index] > 0 {
                            // Re-execution of work a cut destroyed.
                            wasted += task_energy;
                        }
                        exec_counts[index] += 1;
                        sim.advance_by(self.cost.inference_latency_s(task.flops));
                        digest = mix_digest(digest, index as u64, task.flops);

                        // Commit the progress record into the stale bank.
                        let record = CheckpointRecord {
                            generation: generation + 1,
                            next_task: (index + 1) as u32,
                            done: index + 1 == n,
                            digest,
                        };
                        match faults.on_commit(RECORD_BYTES) {
                            Some(offset) if offset < RECORD_BYTES => {
                                // Torn commit: only `offset` bytes reached
                                // NV. The partial write is waste here; the
                                // destroyed task work is charged when the
                                // task re-executes, so the ledger
                                // `consumed == fault_free + wasted` closes.
                                let f = offset as f64 / RECORD_BYTES as f64;
                                let partial = f * checkpoint_energy;
                                sim.consume(partial)?;
                                energy_consumed += partial;
                                wasted += partial;
                                sim.advance_by(f * checkpoint_latency);
                                ckpt.commit_torn(nv, &record, offset)?;
                                torn_writes += 1;
                                true
                            }
                            post_commit_cut => {
                                sim.consume(checkpoint_energy)?;
                                energy_consumed += checkpoint_energy;
                                sim.advance_by(checkpoint_latency);
                                ckpt.commit(nv, &record)?;
                                checkpoints += 1;
                                generation = record.generation;
                                // A cut just after the commit became durable
                                // loses no work, but the device still reboots.
                                post_commit_cut.is_some()
                            }
                        }
                    }
                };
                if cut {
                    match self.reboot(
                        &ckpt,
                        nv,
                        n,
                        entry_generation,
                        generation,
                        &mut power_cycles,
                        &mut recovered_boots,
                    ) {
                        Some((g, t, d)) => {
                            generation = g;
                            next_task = t;
                            digest = d;
                            continue 'boot;
                        }
                        None => break 'boot None,
                    }
                }
                index += 1;
            }
            break None;
        };

        // A starved run reports its volatile digest. A finished one — the
        // task loop ran off the end, or a post-final-commit reboot recovered
        // a done record — reports the newest durable record, the final one.
        let output_digest = match starved_at {
            Some(_) => digest,
            None => {
                let final_record = ckpt.recover(nv).expect("completed run leaves a durable record");
                debug_assert!(final_record.done && final_record.generation == generation);
                final_record.digest
            }
        };
        Ok(ExecutionReport {
            completed: starved_at.is_none(),
            elapsed_s: sim.now_s() - start_s,
            waiting_s,
            energy_consumed_mj: energy_consumed,
            power_cycles,
            checkpoints,
            failed_task: starved_at,
            recovered_boots,
            torn_writes,
            wasted_reexecution_mj: wasted,
            output_digest,
            checkpoint_generation: generation,
        })
    }

    /// Handles one injected power cut: loses volatile state and recovers
    /// from NV. Returns the volatile state for the next boot, or `None` when
    /// the recovered record says this call's inference already finished.
    #[allow(clippy::too_many_arguments)]
    fn reboot(
        &self,
        ckpt: &TwoBankCheckpoint,
        nv: &mut NonvolatileMemory,
        n: usize,
        entry_generation: u64,
        volatile_generation: u64,
        power_cycles: &mut u64,
        recovered_boots: &mut u64,
    ) -> Option<(u64, usize, u64)> {
        *power_cycles += 1;
        *recovered_boots += 1;
        nv.power_failure();
        match Self::recover_state(ckpt, nv, n, entry_generation) {
            Recovered::Start { generation } => {
                debug_assert!(
                    generation >= volatile_generation.min(entry_generation),
                    "checkpoint generation regressed: {generation} < {volatile_generation}"
                );
                Some((generation, 0, DIGEST_INIT))
            }
            Recovered::Resume { generation, next_task, digest } => {
                debug_assert!(
                    generation == volatile_generation,
                    "recovery must land on the newest durable generation"
                );
                Some((generation, next_task, digest))
            }
            Recovered::Finished => None,
        }
    }

    /// Decodes NV into the state a boot should resume from. Records with
    /// `generation <= entry_generation` predate this call and cannot mean
    /// "this inference finished".
    fn recover_state(
        ckpt: &TwoBankCheckpoint,
        nv: &NonvolatileMemory,
        n: usize,
        entry_generation: u64,
    ) -> Recovered {
        match ckpt.recover(nv) {
            None => Recovered::Start { generation: 0 },
            Some(r) if r.done => {
                if r.generation > entry_generation {
                    Recovered::Finished
                } else {
                    Recovered::Start { generation: r.generation }
                }
            }
            Some(r) if (r.next_task as usize) < n => Recovered::Resume {
                generation: r.generation,
                next_task: r.next_task as usize,
                digest: r.digest,
            },
            // A mid-run record pointing past this (shorter) graph: progress
            // is meaningless here; keep the lineage and start over.
            Some(r) => Recovered::Start { generation: r.generation },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, McuDevice, ScheduledCut};
    use ie_energy::{ConstantTrace, EnergyStorage, HarvestSimulator};

    fn executor() -> IntermittentExecutor {
        IntermittentExecutor::new(CostModel::for_device(&McuDevice::msp432()))
    }

    fn sim_with(power_mw: f64, capacity_mj: f64, initial_mj: f64) -> HarvestSimulator {
        HarvestSimulator::new(
            Box::new(ConstantTrace::new(power_mw, 10_000_000.0)),
            EnergyStorage::new(capacity_mj, 1.0).with_initial_level(initial_mj),
        )
    }

    #[test]
    fn split_evenly_preserves_total_flops() {
        let g = TaskGraph::split_evenly("conv", 1_000_003, 7);
        assert_eq!(g.len(), 7);
        assert_eq!(g.total_flops(), 1_000_003);
        // Individual tasks differ by at most one FLOP.
        let min = g.tasks().iter().map(|t| t.flops).min().unwrap();
        let max = g.tasks().iter().map(|t| t.flops).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn ample_energy_completes_in_one_power_cycle() {
        let exec = executor();
        // 2 MFLOPs -> 3 mJ; give the capacitor plenty.
        let graph = TaskGraph::split_evenly("net", 2_000_000, 10);
        let mut sim = sim_with(1.0, 100.0, 50.0);
        let mut nv = NonvolatileMemory::new(1024);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.power_cycles, 0);
        assert_eq!(report.checkpoints, 10);
        assert!(report.energy_consumed_mj >= 3.0);
        assert!(report.waiting_s == 0.0);
        assert!(report.failed_task.is_none());
    }

    #[test]
    fn weak_harvesting_needs_multiple_power_cycles() {
        let exec = executor();
        // 2 MFLOPs -> 3 mJ total, but the capacitor only holds 0.5 mJ, so the
        // executor must repeatedly wait for recharge between tasks.
        let graph = TaskGraph::split_evenly("net", 2_000_000, 10);
        let mut sim = sim_with(0.05, 0.5, 0.0);
        let mut nv = NonvolatileMemory::new(1024);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(report.completed);
        assert!(report.power_cycles >= 5, "power cycles {}", report.power_cycles);
        assert!(report.waiting_s > 0.0);
        assert_eq!(nv.power_failures(), report.power_cycles);
    }

    #[test]
    fn starvation_reports_incomplete_instead_of_erroring() {
        let exec = executor().with_max_wait_s(10.0);
        let graph = TaskGraph::split_evenly("net", 2_000_000, 4);
        // Zero harvest power and an empty capacitor: nothing can ever run.
        let mut sim = sim_with(0.0, 1.0, 0.0);
        let mut nv = NonvolatileMemory::new(1024);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(!report.completed);
        assert_eq!(report.failed_task, Some(0));
        assert_eq!(report.checkpoints, 0);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let exec = executor();
        let mut sim = sim_with(1.0, 10.0, 10.0);
        let mut nv = NonvolatileMemory::new(64);
        assert!(matches!(
            exec.execute_with_faults(
                &TaskGraph::new(),
                &mut sim,
                &mut nv,
                &mut FaultInjector::none()
            ),
            Err(McuError::EmptyTaskGraph)
        ));
    }

    #[test]
    fn fault_free_run_reports_zero_recovery_and_reference_digest() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 2_000_000, 10);
        let mut sim = sim_with(1.0, 100.0, 50.0);
        let mut nv = NonvolatileMemory::new(1024);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.recovered_boots, 0);
        assert_eq!(report.torn_writes, 0);
        assert_eq!(report.wasted_reexecution_mj, 0.0);
        assert_eq!(report.output_digest, task_digest(&graph, graph.len()));
        assert_eq!(report.checkpoint_generation, 10);
    }

    #[test]
    fn injected_cuts_recover_to_the_fault_free_digest() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 2_000_000, 6);
        let reference = task_digest(&graph, graph.len());

        let plans = [
            FaultPlan::single(ScheduledCut::BeforeTask { nth_exec: 2 }),
            FaultPlan::single(ScheduledCut::MidTask { nth_exec: 4, fraction: 0.7 }),
            FaultPlan::single(ScheduledCut::DuringCommit { nth_commit: 3, byte_offset: 13 }),
            FaultPlan::Scripted(vec![
                ScheduledCut::MidTask { nth_exec: 1, fraction: 0.5 },
                ScheduledCut::DuringCommit { nth_commit: 2, byte_offset: 0 },
                ScheduledCut::DuringCommit { nth_commit: 3, byte_offset: 31 },
                ScheduledCut::BeforeTask { nth_exec: 7 },
            ]),
        ];
        for plan in plans {
            let mut sim = sim_with(1.0, 100.0, 50.0);
            let mut nv = NonvolatileMemory::new(1024);
            let mut inj = plan.injector();
            let report = exec.execute_with_faults(&graph, &mut sim, &mut nv, &mut inj).unwrap();
            assert!(report.completed, "plan {plan:?}");
            assert_eq!(report.output_digest, reference, "plan {plan:?}");
            assert_eq!(report.recovered_boots, inj.cuts_injected(), "plan {plan:?}");
            assert_eq!(report.torn_writes, nv.torn_writes(), "plan {plan:?}");
            if inj.cuts_injected() > 0 {
                assert!(report.power_cycles >= report.recovered_boots);
            }
        }
    }

    #[test]
    fn torn_commit_wastes_reexecution_energy() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 2_000_000, 6);
        let mut free_sim = sim_with(1.0, 100.0, 50.0);
        let mut free_nv = NonvolatileMemory::new(1024);
        let fault_free = exec
            .execute_with_faults(&graph, &mut free_sim, &mut free_nv, &mut FaultInjector::none())
            .unwrap();

        let mut sim = sim_with(1.0, 100.0, 50.0);
        let mut nv = NonvolatileMemory::new(1024);
        let mut inj =
            FaultPlan::single(ScheduledCut::DuringCommit { nth_commit: 2, byte_offset: 16 })
                .injector();
        let report = exec.execute_with_faults(&graph, &mut sim, &mut nv, &mut inj).unwrap();
        assert!(report.completed);
        assert_eq!(report.torn_writes, 1);
        assert_eq!(report.recovered_boots, 1);
        assert!(report.wasted_reexecution_mj > 0.0);
        // Total energy = fault-free energy + exactly the reported waste.
        let expected = fault_free.energy_consumed_mj + report.wasted_reexecution_mj;
        assert!(
            (report.energy_consumed_mj - expected).abs() < 1e-9,
            "waste accounting must close the energy ledger: {} vs {expected}",
            report.energy_consumed_mj
        );
        // One torn attempt, then a durable re-commit: one extra durable
        // generation never appears, so the count stays at n.
        assert_eq!(report.checkpoint_generation, graph.len() as u64);
        assert_eq!(report.checkpoints, graph.len() as u64);
    }

    #[test]
    fn post_commit_cut_on_final_task_still_completes() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 2_000_000, 4);
        let mut sim = sim_with(1.0, 100.0, 50.0);
        let mut nv = NonvolatileMemory::new(1024);
        // Offset == RECORD_BYTES: the final commit is durable, then power dies.
        let mut inj = FaultPlan::single(ScheduledCut::DuringCommit {
            nth_commit: 3,
            byte_offset: crate::RECORD_BYTES,
        })
        .injector();
        let report = exec.execute_with_faults(&graph, &mut sim, &mut nv, &mut inj).unwrap();
        assert!(report.completed);
        assert_eq!(report.recovered_boots, 1);
        assert_eq!(report.torn_writes, 0);
        assert_eq!(report.wasted_reexecution_mj, 0.0, "nothing re-executes after a durable commit");
        assert_eq!(report.output_digest, task_digest(&graph, graph.len()));
    }

    #[test]
    fn resumes_a_previous_calls_interrupted_inference() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 2_000_000, 8);
        // A previous life committed progress through task 5 (generation 5).
        let mut nv = NonvolatileMemory::new(1024);
        let ckpt = crate::TwoBankCheckpoint::default();
        ckpt.commit(
            &mut nv,
            &crate::CheckpointRecord {
                generation: 5,
                next_task: 5,
                done: false,
                digest: task_digest(&graph, 5),
            },
        )
        .unwrap();

        let mut sim = sim_with(1.0, 100.0, 50.0);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.checkpoints, 3, "only tasks 5..8 run");
        assert_eq!(report.output_digest, task_digest(&graph, graph.len()));
        assert_eq!(report.checkpoint_generation, 8);
    }

    #[test]
    fn generations_grow_monotonically_across_sequential_inferences() {
        let exec = executor();
        let graph = TaskGraph::split_evenly("net", 1_000_000, 5);
        let mut nv = NonvolatileMemory::new(1024);
        let mut last_generation = 0;
        for round in 0..4 {
            let mut sim = sim_with(1.0, 100.0, 50.0);
            let mut inj = FaultPlan::random(round, 0.2, 8).injector();
            let report = exec.execute_with_faults(&graph, &mut sim, &mut nv, &mut inj).unwrap();
            assert!(report.completed);
            assert!(
                report.checkpoint_generation > last_generation,
                "round {round}: generation must keep growing on a shared NV store"
            );
            last_generation = report.checkpoint_generation;
        }
    }

    #[test]
    fn starvation_reports_actual_waited_time() {
        let exec = executor().with_max_wait_s(10.0);
        let graph = TaskGraph::split_evenly("net", 2_000_000, 4);
        let mut sim = sim_with(0.0, 1.0, 0.0);
        let mut nv = NonvolatileMemory::new(1024);
        let report = exec
            .execute_with_faults(&graph, &mut sim, &mut nv, &mut FaultInjector::none())
            .unwrap();
        assert!(!report.completed);
        // The clock advanced exactly while waiting; the report must agree
        // with the simulator instead of assuming the full budget was burned.
        assert!((report.waiting_s - sim.now_s()).abs() < 1e-9);
        assert!(report.waiting_s >= 10.0);
    }

    #[test]
    fn more_tasks_mean_more_checkpoint_energy() {
        let coarse = TaskGraph::split_evenly("net", 1_000_000, 2);
        let fine = TaskGraph::split_evenly("net", 1_000_000, 50);
        let exec = executor();
        let mut nv1 = NonvolatileMemory::new(1024);
        let mut nv2 = NonvolatileMemory::new(1024);
        let mut sim1 = sim_with(1.0, 100.0, 100.0);
        let mut sim2 = sim_with(1.0, 100.0, 100.0);
        let r1 = exec
            .execute_with_faults(&coarse, &mut sim1, &mut nv1, &mut FaultInjector::none())
            .unwrap();
        let r2 = exec
            .execute_with_faults(&fine, &mut sim2, &mut nv2, &mut FaultInjector::none())
            .unwrap();
        assert!(r2.energy_consumed_mj > r1.energy_consumed_mj);
    }
}

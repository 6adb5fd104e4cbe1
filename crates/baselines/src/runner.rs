use crate::{BaselineNetwork, Result};
use ie_core::metrics::{EventOutcome, EventRecord, RecoveryStats, SimulationReport};
use ie_core::{ExperimentConfig, ReplayInputs};
use ie_mcu::{CostModel, IntermittentExecutor, NonvolatileMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long one inference may wait for energy before its event is abandoned,
/// seconds.
const MAX_WAIT_S: f64 = 1_800.0;

/// Replays the experiment's event sequence for a single-exit baseline network
/// executed by the SONIC-style intermittent runtime.
///
/// Semantics:
///
/// * when an event arrives while the device is still busy finishing (or
///   waiting out) a previous inference, the event is **missed** — the sensor
///   cannot buffer stale events indefinitely,
/// * otherwise the inference's task graph runs across as many power cycles as
///   needed; if even that starves (no energy for longer than 30 minutes)
///   the event is missed,
/// * correctness of a completed inference is sampled from the baseline's
///   published per-inference accuracy.
///
/// The event loop is allocation-free in steady state: the task graph, cost
/// model and executor are built once per run, and the per-task checkpoint
/// writes reuse the non-volatile entry's buffer in place.
#[derive(Debug)]
pub struct BaselineRunner {
    config: ExperimentConfig,
    cost: CostModel,
}

impl BaselineRunner {
    /// Creates a runner over the given experiment environment.
    pub fn new(config: &ExperimentConfig) -> Self {
        BaselineRunner { cost: CostModel::for_device(&config.device), config: config.clone() }
    }

    /// Runs the baseline over the full event sequence.
    ///
    /// # Errors
    ///
    /// Returns configuration or MCU-substrate errors; starvation of individual
    /// events is not an error (they are reported as missed).
    pub fn run(&self, network: &BaselineNetwork) -> Result<SimulationReport> {
        self.config.validate()?;
        let executor = IntermittentExecutor::new(self.cost.clone()).with_max_wait_s(MAX_WAIT_S);
        let graph = network.task_graph();
        let ReplayInputs { trace, events, total_harvestable_mj } = self.config.replay_inputs();
        let mut sim = self.config.build_harvest_simulator(trace);
        let mut nv = NonvolatileMemory::new(self.config.device.nonvolatile_bytes() as usize);
        let mut rng = StdRng::seed_from_u64(self.config.simulation_seed);
        // One injector for the whole run: the cut schedule spans all events,
        // and because every inference shares `nv`, checkpoint generations are
        // monotone across the entire replay.
        let mut injector = self.config.fault_injector();
        let mut recovery = RecoveryStats::default();
        let mut records = Vec::with_capacity(events.len());
        // Time until which the device is still occupied by the previous event.
        let mut busy_until_s = 0.0f64;

        for event in &events {
            if event.time_s < busy_until_s {
                records.push(EventRecord {
                    event_id: event.id,
                    time_s: event.time_s,
                    outcome: EventOutcome::Missed,
                    latency_s: 0.0,
                    energy_mj: 0.0,
                    flops: 0,
                });
                continue;
            }
            sim.advance_to(event.time_s);
            let report = executor.execute_with_faults(&graph, &mut sim, &mut nv, &mut injector)?;
            recovery.absorb(&RecoveryStats {
                recovered_boots: report.recovered_boots,
                torn_writes: report.torn_writes,
                wasted_reexecution_mj: report.wasted_reexecution_mj,
            });
            busy_until_s = sim.now_s();
            if report.completed {
                let correct = rng.gen::<f64>() < network.accuracy();
                records.push(EventRecord {
                    event_id: event.id,
                    time_s: event.time_s,
                    outcome: EventOutcome::Processed { exit: 0, correct, incremental: false },
                    latency_s: report.elapsed_s,
                    energy_mj: report.energy_consumed_mj,
                    flops: network.flops(),
                });
            } else {
                records.push(EventRecord {
                    event_id: event.id,
                    time_s: event.time_s,
                    outcome: EventOutcome::Missed,
                    latency_s: 0.0,
                    energy_mj: report.energy_consumed_mj,
                    flops: 0,
                });
            }
        }

        Ok(SimulationReport::from_records(records, 1, total_harvestable_mj).with_recovery(recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ExperimentConfig {
        ExperimentConfig::small_test()
    }

    #[test]
    fn all_events_are_accounted_for() {
        let c = config();
        let report = BaselineRunner::new(&c).run(&BaselineNetwork::lenet_cifar()).unwrap();
        assert_eq!(report.total_events, c.num_events);
        assert_eq!(report.processed_events + report.missed_events, report.total_events);
        assert!(report.correct_events <= report.processed_events);
        assert_eq!(report.exit_counts.len(), 1);
        assert_eq!(report.exit_counts[0], report.processed_events);
    }

    #[test]
    fn runs_are_deterministic() {
        let c = config();
        let a = BaselineRunner::new(&c).run(&BaselineNetwork::sonic_net()).unwrap();
        let b = BaselineRunner::new(&c).run(&BaselineNetwork::sonic_net()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn heavier_networks_process_fewer_events() {
        // SpArSeNet needs ~5.7x the energy of SonicNet per inference, so under
        // the same harvest it must process fewer events and achieve a lower
        // IEpmJ, mirroring Fig. 5.
        let c = config();
        let runner = BaselineRunner::new(&c);
        let sonic = runner.run(&BaselineNetwork::sonic_net()).unwrap();
        let sparse = runner.run(&BaselineNetwork::sparse_net()).unwrap();
        let lenet = runner.run(&BaselineNetwork::lenet_cifar()).unwrap();
        assert!(sparse.processed_events < sonic.processed_events);
        assert!(sonic.processed_events <= lenet.processed_events);
        assert!(sparse.ie_pmj() < sonic.ie_pmj());
        assert!(sonic.ie_pmj() <= lenet.ie_pmj());
    }

    #[test]
    fn fault_injected_replay_is_deterministic_and_reports_recovery() {
        let mut c = config();
        // `IE_FAULT_SEED` picks the schedule family, as in the CI fault job.
        let seed = 9 ^ ie_mcu::fault_seed_from_env().unwrap_or(0);
        c.fault = Some(ie_core::FaultConfig { seed, cut_probability: 0.6, max_cuts: 48 });
        let a = BaselineRunner::new(&c).run(&BaselineNetwork::sonic_net()).unwrap();
        let b = BaselineRunner::new(&c).run(&BaselineNetwork::sonic_net()).unwrap();
        assert_eq!(a, b, "fault-injected replays must be deterministic");
        assert!(a.recovery.recovered_boots > 0, "p=0.6 across a full replay must cut something");
        assert!(a.recovery.recovered_boots <= 48);
        assert!(a.recovery.wasted_reexecution_mj >= 0.0);
        assert_eq!(a.processed_events + a.missed_events, a.total_events);
    }

    #[test]
    fn fault_free_replay_reports_zero_recovery() {
        let report = BaselineRunner::new(&config()).run(&BaselineNetwork::sonic_net()).unwrap();
        assert_eq!(report.recovery, RecoveryStats::default());
    }

    #[test]
    fn baseline_latency_includes_waiting_for_energy() {
        // With the weak harvest of the paper setup, SonicNet cannot finish an
        // inference in one power cycle, so its mean latency is far above its
        // pure compute time.
        let c = config();
        let report = BaselineRunner::new(&c).run(&BaselineNetwork::sonic_net()).unwrap();
        let compute_s = CostModel::for_device(&c.device).inference_latency_s(2_000_000);
        if report.processed_events > 0 {
            assert!(
                report.mean_latency_s() > compute_s,
                "latency {} should exceed pure compute {compute_s}",
                report.mean_latency_s()
            );
        }
    }
}

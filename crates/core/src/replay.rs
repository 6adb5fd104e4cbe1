//! The one device replay behind both simulators.
//!
//! [`crate::EventLoopSimulator`] replays the paper's device and
//! [`crate::FleetSimulator`] replays each device of a population. Both
//! prepare a [`Device`] and hand it to [`Device::replay`], which runs the
//! event loop, asks the policy for an exit per event, and runs every
//! affordable inference through one analytic step. Only what each caller
//! does with an event's outcome differs: the caller supplies that as a sink.

use crate::metrics::{EventOutcome, EventRecord, RecoveryStats};
use crate::{
    ContinueContext, CoreError, DeployedModel, EventContext, EventFeedback, ExitChoice, ExitPolicy,
    Result,
};
use ie_energy::{Event, HarvestSimulator};
use ie_mcu::{FaultInjector, TaskCut};
use rand::rngs::StdRng;
use rand::Rng;

/// Length in bytes of the analytic checkpoint record committed after each
/// inference; the fault injector may tear the write inside it.
const CHECKPOINT_RECORD_LEN: usize = 64;

/// A device ready to replay its events.
pub(crate) struct Device {
    /// The harvester and energy storage, at the start of the replay.
    pub(crate) harvest: HarvestSimulator,
    /// The events, in arrival order.
    pub(crate) events: Vec<Event>,
    /// The correctness and confidence draws.
    pub(crate) rng: StdRng,
    /// Power cuts at each task start and checkpoint commit. It draws from
    /// its own stream, so a zero-cut plan leaves every other draw as it was.
    pub(crate) faults: FaultInjector,
    /// A result whose confidence falls below this is offered a continuation
    /// to the next exit; `None` offers none.
    pub(crate) continuation_threshold: Option<f64>,
}

impl Device {
    /// Replays every event and hands each one's record, and the recovery
    /// work its power cuts cost, to `sink`, in arrival order.
    ///
    /// The device wakes once per `window` events (at least 1), at the last
    /// arrival of the window, so a queued event's latency includes its wait.
    /// The charging efficiency is computed only for a policy that reads it.
    /// The policy observes every event's outcome.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownExit`] when the policy chooses an exit the
    /// model does not have, and propagates energy-accounting errors (a bug:
    /// every draw is checked for affordability first).
    pub(crate) fn replay(
        mut self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
        window: usize,
        mut sink: impl FnMut(EventRecord, RecoveryStats),
    ) -> Result<()> {
        let num_exits = model.num_exits();
        // The per-exit tables are fixed for the whole replay, so the context
        // is built once and only its scalar fields change per event.
        let mut ctx = EventContext {
            event_id: 0,
            time_s: 0.0,
            available_energy_mj: 0.0,
            capacity_mj: self.harvest.storage().capacity_mj(),
            charging_efficiency: 0.0,
            exit_energy_mj: model.exit_energies_mj(),
            exit_accuracy: model.exit_accuracies(),
        };
        let events = std::mem::take(&mut self.events);
        for batch in events.chunks(window) {
            let wake_time = batch.last().expect("chunks are non-empty").time_s;
            self.harvest.advance_to(wake_time);
            for event in batch {
                ctx.event_id = event.id;
                ctx.time_s = event.time_s;
                ctx.available_energy_mj = self.harvest.storage().level_mj();
                // The efficiency window is the costliest integral per event,
                // and it takes `&self`: skipping it changes no later state.
                if policy.reads_charging_efficiency() {
                    ctx.charging_efficiency = self.harvest.charging_efficiency();
                }
                let mut recovery = RecoveryStats::default();
                let chosen = match policy.choose_exit(&ctx) {
                    ExitChoice::Skip => None,
                    ExitChoice::Exit(exit) => Some(exit),
                };
                let record = match chosen {
                    Some(exit) if exit >= num_exits => {
                        return Err(CoreError::UnknownExit {
                            requested: exit,
                            available: num_exits,
                        })
                    }
                    Some(exit) if self.harvest.storage().can_supply(ctx.exit_energy_mj[exit]) => {
                        let wait_s = wake_time - event.time_s;
                        self.infer(model, policy, event, wait_s, exit, &mut recovery)?
                    }
                    _ => missed(event, 0.0),
                };
                policy.observe_outcome(&feedback(model, &record, chosen));
                sink(record, recovery);
            }
        }
        Ok(())
    }

    /// Runs one affordable inference at `exit` for `event`, which waited
    /// `wait_s` for its window to close, and records what power cuts cost
    /// in `recovery`.
    ///
    /// A cut at the task start destroys the work done so far: the device
    /// reboots and reruns the whole inference if the remaining charge still
    /// affords it, or misses the event with the partial energy on its
    /// ledger. A cut during the checkpoint commit tears the write; the
    /// previous checkpoint stays valid, so recovery costs a boot.
    fn infer(
        &mut self,
        model: &DeployedModel,
        policy: &mut dyn ExitPolicy,
        event: &Event,
        wait_s: f64,
        exit: usize,
        recovery: &mut RecoveryStats,
    ) -> Result<EventRecord> {
        let cost = model.exit_energy_mj(exit);
        let inference_latency = model.exit_latency_s(exit);
        // Queueing delay counts towards latency but does not occupy the
        // device: the harvester is already at the wake time.
        let mut energy = cost;
        let mut latency = wait_s + inference_latency;
        let mut flops = model.exit_flops(exit);

        match self.faults.on_task_start() {
            Some(TaskCut::Before) => recovery.recovered_boots += 1,
            Some(TaskCut::Mid { fraction }) => {
                let fraction = fraction.clamp(0.0, 1.0);
                let partial = fraction * cost;
                self.harvest.consume(partial)?;
                self.harvest.advance_by(fraction * inference_latency);
                recovery.recovered_boots += 1;
                recovery.wasted_reexecution_mj = partial;
                if !self.harvest.storage().can_supply(cost) {
                    return Ok(missed(event, partial));
                }
                energy += partial;
                latency += fraction * inference_latency;
            }
            None => {}
        }
        self.harvest.consume(cost)?;
        self.harvest.advance_by(inference_latency);

        // Wrong results tend to look less confident than right ones, which is
        // what makes a confidence-triggered continuation pay off.
        let mut correct = self.rng.gen::<f64>() < model.exit_accuracy(exit);
        let u = self.rng.gen::<f64>();
        let confidence = if correct { 0.55 + 0.45 * u } else { 0.75 * u };
        let mut final_exit = exit;
        let next_exit = exit + 1;
        if self.continuation_threshold.is_some_and(|t| confidence < t)
            && next_exit < model.num_exits()
        {
            let inc_energy = model.incremental_energy_mj(exit, next_exit)?;
            let cc = ContinueContext {
                event_id: event.id,
                current_exit: exit,
                next_exit,
                confidence,
                available_energy_mj: self.harvest.storage().level_mj(),
                capacity_mj: self.harvest.storage().capacity_mj(),
                incremental_energy_mj: inc_energy,
            };
            if policy.choose_continue(&cc) && self.harvest.storage().can_supply(inc_energy) {
                self.harvest.consume(inc_energy)?;
                let inc_latency = model.incremental_latency_s(exit, next_exit)?;
                self.harvest.advance_by(inc_latency);
                energy += inc_energy;
                latency += inc_latency;
                flops += model.incremental_flops(exit, next_exit)?;
                final_exit = next_exit;
                // Conditional refinement: inputs the shallow exit got right
                // stay right; inputs it got wrong are *hard*, so the deeper
                // exit fixes only the share that makes its unconditional
                // accuracy come out at `exit_accuracy(next_exit)`.
                if !correct {
                    let a_shallow = model.exit_accuracy(exit);
                    let a_deep = model.exit_accuracy(next_exit);
                    let fix_probability =
                        ((a_deep - a_shallow) / (1.0 - a_shallow).max(1e-9)).clamp(0.0, 1.0);
                    correct = self.rng.gen::<f64>() < fix_probability;
                }
            }
        }

        if self.faults.on_commit(CHECKPOINT_RECORD_LEN).is_some_and(|at| at < CHECKPOINT_RECORD_LEN)
        {
            recovery.torn_writes += 1;
            recovery.recovered_boots += 1;
        }

        Ok(EventRecord {
            event_id: event.id,
            time_s: event.time_s,
            outcome: EventOutcome::Processed {
                exit: final_exit,
                correct,
                incremental: final_exit != exit,
            },
            latency_s: latency,
            energy_mj: energy,
            flops,
        })
    }
}

/// The record of an event that produced no result: the policy skipped it,
/// its exit was unaffordable, or a power cut left too little charge to rerun
/// it after spending `energy_mj`.
fn missed(event: &Event, energy_mj: f64) -> EventRecord {
    EventRecord {
        event_id: event.id,
        time_s: event.time_s,
        outcome: EventOutcome::Missed,
        latency_s: 0.0,
        energy_mj,
        flops: 0,
    }
}

/// What the policy learns about an event it chose `chosen` for.
fn feedback(model: &DeployedModel, record: &EventRecord, chosen: Option<usize>) -> EventFeedback {
    let final_exit = match record.outcome {
        EventOutcome::Processed { exit, .. } => Some(exit),
        EventOutcome::Missed => None,
    };
    EventFeedback {
        event_id: record.event_id,
        chosen_exit: chosen,
        final_exit,
        expected_accuracy: final_exit.map_or(0.0, |exit| model.exit_accuracy(exit)),
        correct: record.outcome.is_correct(),
        energy_spent_mj: record.energy_mj,
        missed: final_exit.is_none(),
    }
}

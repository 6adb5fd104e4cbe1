//! Deterministic power-cut fault injection.
//!
//! A [`FaultPlan`] describes *where* power cuts strike an intermittent
//! execution: between tasks, partway through a task, or at a chosen byte
//! offset inside the checkpoint's NV write. Plans are either scripted (an
//! explicit list of cuts, for exhaustive crash-point sweeps) or seeded random
//! (for property tests over arbitrary fault schedules). A plan is turned into
//! a [`FaultInjector`], the stateful cursor the executor consults at each
//! crash opportunity; the same plan always reproduces the same cuts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where an injected cut strikes relative to a task execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskCut {
    /// Power is lost before the task draws any energy.
    Before,
    /// Power is lost after `fraction` (in `[0, 1]`) of the task's work; the
    /// partial energy and latency are spent but the task must re-run.
    Mid {
        /// Fraction of the task completed before the cut.
        fraction: f64,
    },
}

/// One scheduled power cut within a [`FaultPlan`].
///
/// Execution attempts are numbered from 0 **across reboots**: a task that
/// re-runs after a cut occupies a new attempt number, so a scripted plan can
/// target both the first and the retried execution of the same task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduledCut {
    /// Cut immediately before the `nth` task-execution attempt starts.
    BeforeTask {
        /// 0-based task-execution attempt number.
        nth_exec: u64,
    },
    /// Cut partway through the `nth` task-execution attempt.
    MidTask {
        /// 0-based task-execution attempt number.
        nth_exec: u64,
        /// Fraction of the task completed before the cut, clamped to `[0, 1]`.
        fraction: f64,
    },
    /// Cut during the `nth` checkpoint-commit attempt, after `byte_offset`
    /// bytes of the record have reached NV. An offset at or past the record
    /// length completes the write and cuts power just after the commit.
    DuringCommit {
        /// 0-based checkpoint-commit attempt number.
        nth_commit: u64,
        /// Bytes of the record durably written before the cut.
        byte_offset: usize,
    },
}

/// A deterministic schedule of power cuts.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultPlan {
    /// No injected cuts (natural energy starvation still applies).
    #[default]
    None,
    /// An explicit list of cuts, matched against attempt counters.
    Scripted(Vec<ScheduledCut>),
    /// Seeded random cuts: each crash opportunity (task start or commit)
    /// independently suffers a cut with `cut_probability`, up to `max_cuts`
    /// total so every schedule terminates.
    Random {
        /// Seed of the cut stream; the same seed reproduces the same cuts.
        seed: u64,
        /// Per-opportunity cut probability in `[0, 1]`.
        cut_probability: f64,
        /// Hard bound on injected cuts across the injector's lifetime.
        max_cuts: u64,
    },
}

impl FaultPlan {
    /// A scripted plan with a single cut.
    pub fn single(cut: ScheduledCut) -> Self {
        FaultPlan::Scripted(vec![cut])
    }

    /// A seeded random plan.
    pub fn random(seed: u64, cut_probability: f64, max_cuts: u64) -> Self {
        FaultPlan::Random { seed, cut_probability: cut_probability.clamp(0.0, 1.0), max_cuts }
    }

    /// Builds the stateful injector for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self.clone())
    }
}

/// Stateful cursor over a [`FaultPlan`], consulted by the executor at each
/// crash opportunity.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    scripted: Vec<ScheduledCut>,
    random: Option<RandomFaults>,
    exec_attempts: u64,
    commit_attempts: u64,
    cuts_injected: u64,
}

#[derive(Debug, Clone)]
struct RandomFaults {
    rng: StdRng,
    cut_probability: f64,
    max_cuts: u64,
}

impl FaultInjector {
    /// An injector that never cuts power.
    pub fn none() -> Self {
        FaultInjector::new(FaultPlan::None)
    }

    /// Builds an injector from a plan (see also [`FaultPlan::injector`]).
    pub fn new(plan: FaultPlan) -> Self {
        let (scripted, random) = match plan {
            FaultPlan::None => (Vec::new(), None),
            FaultPlan::Scripted(cuts) => (cuts, None),
            FaultPlan::Random { seed, cut_probability, max_cuts } => (
                Vec::new(),
                Some(RandomFaults { rng: StdRng::seed_from_u64(seed), cut_probability, max_cuts }),
            ),
        };
        FaultInjector { scripted, random, exec_attempts: 0, commit_attempts: 0, cuts_injected: 0 }
    }

    /// Total cuts injected so far.
    pub fn cuts_injected(&self) -> u64 {
        self.cuts_injected
    }

    fn random_fires(&mut self) -> bool {
        let Some(rf) = self.random.as_mut() else { return false };
        if self.cuts_injected >= rf.max_cuts {
            return false;
        }
        rf.rng.gen_bool(rf.cut_probability)
    }

    /// Consulted at the start of each task-execution attempt; returns the cut
    /// striking this attempt, if any. Advances the attempt counter.
    pub fn on_task_start(&mut self) -> Option<TaskCut> {
        let attempt = self.exec_attempts;
        self.exec_attempts += 1;

        if let Some(pos) = self.scripted.iter().position(|c| {
            matches!(c, ScheduledCut::BeforeTask { nth_exec } | ScheduledCut::MidTask { nth_exec, .. }
                if *nth_exec == attempt)
        }) {
            self.cuts_injected += 1;
            return Some(match self.scripted.remove(pos) {
                ScheduledCut::BeforeTask { .. } => TaskCut::Before,
                ScheduledCut::MidTask { fraction, .. } => {
                    TaskCut::Mid { fraction: fraction.clamp(0.0, 1.0) }
                }
                ScheduledCut::DuringCommit { .. } => unreachable!("filtered above"),
            });
        }

        if self.random_fires() {
            self.cuts_injected += 1;
            let rf = self.random.as_mut().expect("random_fires implies plan");
            // One third of task cuts strike before any work, the rest mid-task.
            let roll = rf.rng.gen::<f64>();
            return Some(if roll < 1.0 / 3.0 {
                TaskCut::Before
            } else {
                TaskCut::Mid { fraction: rf.rng.gen::<f64>() }
            });
        }
        None
    }

    /// Consulted at each checkpoint-commit attempt; returns the byte offset
    /// at which the NV write is torn (an offset `>= record_len` means the
    /// write completes and power is cut just after). Advances the commit
    /// counter.
    pub fn on_commit(&mut self, record_len: usize) -> Option<usize> {
        let attempt = self.commit_attempts;
        self.commit_attempts += 1;

        if let Some(pos) = self
            .scripted
            .iter()
            .position(|c| matches!(c, ScheduledCut::DuringCommit { nth_commit, .. } if *nth_commit == attempt))
        {
            self.cuts_injected += 1;
            match self.scripted.remove(pos) {
                ScheduledCut::DuringCommit { byte_offset, .. } => {
                    return Some(byte_offset.min(record_len));
                }
                _ => unreachable!("filtered above"),
            }
        }

        if self.random_fires() {
            self.cuts_injected += 1;
            let rf = self.random.as_mut().expect("random_fires implies plan");
            // Uniform over 0..=record_len: every byte offset plus the
            // post-commit cut are all reachable.
            return Some(rf.rng.gen_range(0..record_len + 2).min(record_len));
        }
        None
    }
}

/// Reads the `IE_FAULT_SEED` environment knob, if set to a valid `u64`.
///
/// Harnesses (CI fault-injection jobs, proptests) mix this into their plan
/// seeds so the same suite exercises different fault schedules across runs
/// without code changes. It is read by
/// [`ie_energy::test_support::seed_from_env`], so a set but unparsable value
/// falls back to unset and warns once per process on stderr, and a typo
/// cannot quietly run the unset schedule.
pub fn fault_seed_from_env() -> Option<u64> {
    ie_energy::test_support::seed_from_env("IE_FAULT_SEED")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_cuts_fire_exactly_once_at_their_attempt() {
        let plan = FaultPlan::Scripted(vec![
            ScheduledCut::BeforeTask { nth_exec: 1 },
            ScheduledCut::MidTask { nth_exec: 3, fraction: 0.5 },
            ScheduledCut::DuringCommit { nth_commit: 0, byte_offset: 7 },
        ]);
        let mut inj = plan.injector();
        assert_eq!(inj.on_task_start(), None); // attempt 0
        assert_eq!(inj.on_task_start(), Some(TaskCut::Before)); // attempt 1
        assert_eq!(inj.on_commit(32), Some(7)); // commit attempt 0
        assert_eq!(inj.on_task_start(), None); // attempt 2
        assert_eq!(inj.on_task_start(), Some(TaskCut::Mid { fraction: 0.5 })); // attempt 3
        assert_eq!(inj.on_task_start(), None);
        assert_eq!(inj.on_commit(32), None);
        assert_eq!(inj.cuts_injected(), 3);
    }

    #[test]
    fn commit_offsets_are_clamped_to_record_length() {
        let mut inj =
            FaultPlan::single(ScheduledCut::DuringCommit { nth_commit: 0, byte_offset: 999 })
                .injector();
        assert_eq!(inj.on_commit(32), Some(32));
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let plan = FaultPlan::random(42, 0.8, 5);
        let drive = |mut inj: FaultInjector| {
            let mut trace = Vec::new();
            for _ in 0..50 {
                trace.push(format!("{:?}", inj.on_task_start()));
                trace.push(format!("{:?}", inj.on_commit(32)));
            }
            (trace, inj.cuts_injected())
        };
        let (t1, c1) = drive(plan.injector());
        let (t2, c2) = drive(plan.injector());
        assert_eq!(t1, t2, "same seed must reproduce the same cut schedule");
        assert_eq!(c1, c2);
        assert_eq!(c1, 5, "p=0.8 over 100 opportunities must exhaust max_cuts");

        let (t3, _) = drive(FaultPlan::random(43, 0.8, 5).injector());
        assert_ne!(t1, t3, "different seeds should differ");
    }

    #[test]
    fn fault_seed_parses_u64s_and_rejects_typos_with_a_warning() {
        let seed = |raw| ie_energy::test_support::classify_seed("IE_FAULT_SEED", raw);
        assert_eq!(seed("2"), Ok(2));
        assert_eq!(seed(" 18446744073709551615 "), Ok(u64::MAX));
        for bad in ["", "-1", "1.5", "seed2", "18446744073709551616"] {
            let warning = seed(bad).expect_err("invalid seeds are rejected");
            assert!(warning.contains(&format!("IE_FAULT_SEED={bad:?}")), "{warning}");
        }
    }

    #[test]
    fn zero_probability_never_cuts() {
        let mut inj = FaultPlan::random(7, 0.0, 100).injector();
        for _ in 0..100 {
            assert_eq!(inj.on_task_start(), None);
            assert_eq!(inj.on_commit(32), None);
        }
        assert_eq!(inj.cuts_injected(), 0);
    }
}

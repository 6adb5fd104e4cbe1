//! Overload protection for the serving loop: a **bounded admission queue**
//! with pluggable shed policies, planned deterministically on the virtual
//! clock.
//!
//! The paper's multi-exit network is a built-in graceful-degradation knob:
//! under pressure the runtime can take an *earlier* exit instead of dropping
//! the request outright — exactly the energy rule, with queue pressure as
//! the resource. This module turns that knob into a load-shedding actuator
//! for the server:
//!
//! * [`ShedPolicy::Reject`] — a full queue sheds the newcomer;
//! * [`ShedPolicy::DropOldest`] — a full queue sheds the oldest *queued*
//!   request to make room for the newcomer (freshness-first);
//! * [`ShedPolicy::Degrade`] — queue pressure and the request's remaining
//!   deadline cap the admitted exit at a shallower one (the multi-exit
//!   network as the actuator); only a *completely* full queue still sheds.
//!
//! [`plan_overload`] is the pure replay-mode planner and the one virtual-clock
//! implementation of the batching close rule: a single pass over the
//! arrival-ordered stream that opens a window at its first admitted arrival,
//! closes it at size `max_batch` or deadline `deadline_s`, models service on
//! one *virtual* server using the admission table's **predicted** per-exit
//! costs, and applies the shed policy against the modeled backlog. Because
//! the model never reads a wall clock, a thread count or a measured compute
//! time, the plan — and therefore every response — is byte-identical across
//! worker counts and repeated runs. The live server applies the same close
//! rule and policies against its real queue instead (see `server.rs`); there
//! the pressure signal is genuinely racy, which is the honest closed-loop
//! behaviour.
//!
//! Conservation invariant: every request gets **exactly one** outcome —
//! scheduled, rejected (admission) or shed (overload) — and the planned
//! batches contain exactly the scheduled requests, each exactly once, in
//! arrival order. [`OverloadPlan::check_conservation`] states it
//! mechanically; the proptests in `tests/overload_proptests.rs` hold it over
//! random streams, policies and capacities.

use crate::window::WindowConfig;
use crate::{Result, ServeError};
use ie_runtime::deepest_affordable;

/// How the bounded admission queue sheds load when it is full (and, for
/// [`ShedPolicy::Degrade`], how it degrades before it is full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// A full queue sheds the arriving request.
    Reject,
    /// A full queue sheds the oldest still-queued request and admits the
    /// newcomer. When every backlogged request is already in service (none
    /// can be recalled), the newcomer is shed like [`ShedPolicy::Reject`].
    DropOldest,
    /// Queue pressure and remaining deadline cap the admitted exit at a
    /// shallower one (see [`pressure_exit_cap`]); a full queue still sheds
    /// the newcomer, and a request whose remaining budget no longer covers
    /// even the shallowest exit is shed as deadline-unmeetable.
    Degrade,
}

impl ShedPolicy {
    /// Parses the `IE_SERVE_SHED` spelling (`reject`, `drop-oldest`,
    /// `degrade`).
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reject" => Some(ShedPolicy::Reject),
            "drop-oldest" | "drop_oldest" | "dropoldest" => Some(ShedPolicy::DropOldest),
            "degrade" => Some(ShedPolicy::Degrade),
            _ => None,
        }
    }

    /// The canonical spelling (`reject` / `drop-oldest` / `degrade`).
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::Degrade => "degrade",
        }
    }
}

/// Why an overload shed happened (carried in [`crate::Verdict::Shed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was full on arrival.
    QueueFull,
    /// The request was queued, then evicted by a newer arrival under
    /// [`ShedPolicy::DropOldest`].
    DroppedOldest,
    /// Under [`ShedPolicy::Degrade`], the modeled remaining deadline no
    /// longer covered even the shallowest exit.
    DeadlineUnmeetable,
    /// The request's batch lost its worker, and lost it again on its one
    /// retry.
    RetryExhausted,
}

/// Configuration of the overload-protection layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Bounded admission-queue capacity (backlog: queued plus modeled
    /// in-service requests). `usize::MAX` (the default) is effectively
    /// unbounded and reproduces the pre-overload serving behaviour exactly.
    /// Must be at least 1.
    pub queue_cap: usize,
    /// What happens when the queue is full.
    pub policy: ShedPolicy,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig { queue_cap: usize::MAX, policy: ShedPolicy::Reject }
    }
}

impl OverloadConfig {
    /// Validates the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero queue capacity.
    pub fn validate(&self) -> Result<()> {
        if self.queue_cap == 0 {
            return Err(ServeError::InvalidConfig(
                "overload queue capacity must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Reads the `IE_SERVE_QUEUE_CAP` (0 or unset → unbounded) and
    /// `IE_SERVE_SHED` (`reject`/`drop-oldest`/`degrade`) knobs through
    /// [`ie_tensor::knobs::read`] on top of the defaults; an unparsable value
    /// warns once and keeps the default.
    pub fn from_env() -> Self {
        let default = OverloadConfig::default();
        OverloadConfig {
            queue_cap: ie_tensor::knobs::read(
                "IE_SERVE_QUEUE_CAP",
                "a non-negative integer; 0 means unbounded",
                |s| s.parse().ok(),
            )
            .filter(|&cap| cap != 0)
            .unwrap_or(default.queue_cap),
            policy: ie_tensor::knobs::read(
                "IE_SERVE_SHED",
                "reject, drop-oldest or degrade",
                ShedPolicy::parse,
            )
            .unwrap_or(default.policy),
        }
    }
}

/// The pressure half of [`ShedPolicy::Degrade`]: the deepest exit a request
/// may take when `backlog` of `queue_cap` slots are occupied, over a network
/// with `num_exits` exits.
///
/// The mapping is linear in the remaining headroom with a ceiling, so the
/// full depth survives until the queue is meaningfully loaded and the cap
/// walks down to the shallowest exit exactly at the last slot:
/// `cap = ceil((num_exits-1) · (queue_cap-1-backlog) / (queue_cap-1))`.
/// All-integer arithmetic — monotone non-increasing in `backlog` and
/// deterministic on every platform. The product is taken in `u128`, so it
/// cannot overflow however large the queue. A capacity of 1 (or an
/// effectively unbounded queue) never degrades: there is no pressure
/// gradient to read.
pub fn pressure_exit_cap(backlog: usize, queue_cap: usize, num_exits: usize) -> usize {
    let deepest = num_exits.saturating_sub(1);
    if queue_cap <= 1 || queue_cap == usize::MAX || backlog >= queue_cap {
        return deepest;
    }
    let headroom = (queue_cap - 1 - backlog) as u128;
    // At most `deepest`, since `headroom <= queue_cap - 1`: the cast back is exact.
    (deepest as u128 * headroom).div_ceil((queue_cap - 1) as u128) as usize
}

/// What the overload planner decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admission control (the latency-budget policy) rejected the request
    /// before the queue was consulted.
    Rejected,
    /// The overload layer shed the request.
    Shed(ShedReason),
    /// The request was enqueued and batched; `exit` is its final target
    /// after any degradation, `degraded` whether the cap actually bit.
    Scheduled {
        /// Final target exit (after degradation).
        exit: usize,
        /// Whether the overload layer lowered the admitted exit.
        degraded: bool,
    },
}

/// One planned batching window: original-stream positions with their final
/// exits, plus the modeled service interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBatch {
    /// Arrival time of the first request in the window.
    pub open_s: f64,
    /// When the window closed (filled, or `open_s` + deadline).
    pub close_s: f64,
    /// `(position in the original request stream, final exit)` per member,
    /// in arrival order.
    pub members: Vec<(usize, usize)>,
    /// Modeled service cost: the deepest member exit's predicted cost
    /// (incremental inference pays the deepest distinct exit once).
    pub predicted_cost_s: f64,
    /// Modeled service start (close time, or when the virtual server frees).
    pub start_s: f64,
    /// Modeled completion (`start_s + predicted_cost_s`).
    pub done_s: f64,
}

/// The full deterministic overload plan for a replayed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPlan {
    /// One outcome per request, aligned with the input stream.
    pub outcomes: Vec<AdmitOutcome>,
    /// The planned batches over the scheduled requests.
    pub batches: Vec<PlannedBatch>,
    /// Scheduled requests whose exit was lowered by degradation.
    pub degraded: usize,
}

impl OverloadPlan {
    /// Checks the conservation invariant: every request has exactly one
    /// outcome, and the batches contain exactly the scheduled positions,
    /// each exactly once, in arrival order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_conservation(&self) -> std::result::Result<(), String> {
        let scheduled: Vec<usize> = (0..self.outcomes.len())
            .filter(|&i| matches!(self.outcomes[i], AdmitOutcome::Scheduled { .. }))
            .collect();
        let batched: Vec<usize> =
            self.batches.iter().flat_map(|b| b.members.iter().map(|&(i, _)| i)).collect();
        if batched != scheduled {
            return Err(format!(
                "batches hold positions {batched:?} but the scheduled set is {scheduled:?}"
            ));
        }
        for b in &self.batches {
            if b.members.is_empty() {
                return Err("empty planned batch".into());
            }
            for &(i, exit) in &b.members {
                match self.outcomes[i] {
                    AdmitOutcome::Scheduled { exit: e, .. } if e == exit => {}
                    ref other => {
                        return Err(format!(
                            "batch member {i} (exit {exit}) disagrees with outcome {other:?}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of scheduled (batched) requests.
    pub fn scheduled(&self) -> usize {
        self.batches.iter().map(|b| b.members.len()).sum()
    }

    /// Number of overload-shed requests (admission rejections excluded).
    pub fn shed(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o, AdmitOutcome::Shed(_))).count()
    }
}

/// The deterministic single-pass overload planner for replay mode. Consumes
/// the arrival-ordered stream (`arrivals`, `budgets`), the per-request
/// admission decisions (strictly in arrival order, `None` = rejected), the
/// admission table's predicted per-exit costs, the batching window and the
/// overload configuration, and produces the [`OverloadPlan`].
///
/// A window opens at its first admitted arrival and closes at its
/// `max_batch`-th member's arrival or at `open_s + deadline_s`, whichever
/// comes first; an arrival exactly at the deadline still joins. With an
/// unbounded queue nothing is shed or degraded, so the plan is exactly this
/// close rule over the admitted sub-stream (property-tested).
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for an invalid window/overload
/// configuration or an admission decision beyond the cost table, and
/// [`ServeError::InvalidRequest`] for unsorted or non-finite arrivals or
/// mismatched input lengths.
pub fn plan_overload(
    arrivals: &[f64],
    budgets: &[f64],
    decisions: &[Option<usize>],
    exit_cost_s: &[f64],
    window: &WindowConfig,
    config: &OverloadConfig,
) -> Result<OverloadPlan> {
    window.validate()?;
    config.validate()?;
    if arrivals.len() != budgets.len() || arrivals.len() != decisions.len() {
        return Err(ServeError::InvalidRequest(format!(
            "{} arrivals, {} budgets, {} admission decisions — the stream views must align",
            arrivals.len(),
            budgets.len(),
            decisions.len()
        )));
    }
    if let Some(bad) = arrivals.iter().find(|a| !a.is_finite()) {
        return Err(ServeError::InvalidRequest(format!("non-finite arrival time {bad}")));
    }
    for (i, w) in arrivals.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(ServeError::InvalidRequest(format!(
                "arrivals must be non-decreasing: position {} at {} precedes position {} at {}",
                i + 1,
                w[1],
                i,
                w[0]
            )));
        }
    }
    let num_exits = exit_cost_s.len();
    if let Some(bad) = decisions.iter().flatten().find(|&&e| e >= num_exits) {
        return Err(ServeError::InvalidConfig(format!(
            "admission decided exit {bad} but the cost table covers {num_exits} exits"
        )));
    }

    let mut planner = Planner {
        exit_cost_s,
        server: VirtualServers::new(1),
        in_service: Vec::new(),
        batches: Vec::new(),
        open: Vec::new(),
        open_s: 0.0,
    };
    let mut outcomes = vec![AdmitOutcome::Rejected; arrivals.len()];
    let mut degraded_count = 0usize;
    for i in 0..arrivals.len() {
        let t = arrivals[i];
        // 1. A window whose deadline passed strictly before this arrival
        //    closes at that deadline (an arrival exactly at the deadline
        //    still joins)…
        if !planner.open.is_empty() && t > planner.open_s + window.deadline_s {
            planner.close_open_window(planner.open_s + window.deadline_s);
        }
        // 2. …and modeled service completed by now leaves the backlog.
        planner.in_service.retain(|&(done, _)| done > t);
        // 3. Admission control decided first, strictly in arrival order.
        let Some(admitted_exit) = decisions[i] else {
            outcomes[i] = AdmitOutcome::Rejected;
            continue;
        };
        // 4. The bounded queue: backlog = open window + modeled in-service.
        let backlog = planner.backlog();
        if backlog >= config.queue_cap {
            match config.policy {
                ShedPolicy::Reject | ShedPolicy::Degrade => {
                    outcomes[i] = AdmitOutcome::Shed(ShedReason::QueueFull);
                    continue;
                }
                ShedPolicy::DropOldest => {
                    if planner.open.is_empty() {
                        // The whole backlog is already in (modeled) service —
                        // nothing can be recalled, so the newcomer sheds.
                        outcomes[i] = AdmitOutcome::Shed(ShedReason::QueueFull);
                        continue;
                    }
                    let (evicted, _) = planner.open.remove(0);
                    outcomes[evicted] = AdmitOutcome::Shed(ShedReason::DroppedOldest);
                }
            }
        }
        // 5. Degradation: pressure and remaining deadline cap the exit.
        let mut exit = admitted_exit;
        if config.policy == ShedPolicy::Degrade {
            let cap = pressure_exit_cap(backlog, config.queue_cap, num_exits);
            let expected_wait = (planner.server.earliest_free_s() - t).max(0.0);
            let remaining = budgets[i] - expected_wait;
            let Some(affordable) = deepest_affordable(exit_cost_s, remaining) else {
                outcomes[i] = AdmitOutcome::Shed(ShedReason::DeadlineUnmeetable);
                continue;
            };
            exit = exit.min(cap).min(affordable);
        }
        let degraded = exit < admitted_exit;
        degraded_count += usize::from(degraded);
        outcomes[i] = AdmitOutcome::Scheduled { exit, degraded };
        // 6. Enqueue into the open window; a filled window closes now.
        if planner.open.is_empty() {
            planner.open_s = t;
        }
        planner.open.push((i, exit));
        if planner.open.len() == window.max_batch {
            planner.close_open_window(t);
        }
    }
    if !planner.open.is_empty() {
        planner.close_open_window(planner.open_s + window.deadline_s);
    }
    Ok(OverloadPlan { outcomes, batches: planner.batches, degraded: degraded_count })
}

/// Identical servers on the virtual clock: a job starts when it is ready or
/// when the earliest server frees up, whichever is later. The planner models
/// service on one; replay's latency model runs measured compute on one per
/// worker.
pub(crate) struct VirtualServers {
    free_s: Vec<f64>,
}

impl VirtualServers {
    /// `count` idle servers (at least one).
    pub(crate) fn new(count: usize) -> Self {
        VirtualServers { free_s: vec![f64::NEG_INFINITY; count.max(1)] }
    }

    /// The earliest-free server (the first of equals).
    fn soonest(&self) -> usize {
        let slots = self.free_s.iter().enumerate();
        slots.min_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(slot, _)| slot)
    }

    /// When the earliest server frees up.
    pub(crate) fn earliest_free_s(&self) -> f64 {
        self.free_s[self.soonest()]
    }

    /// Runs a job ready at `ready_s` for `cost_s` on the earliest-free
    /// server and returns its `(start, done)` times.
    pub(crate) fn run(&mut self, ready_s: f64, cost_s: f64) -> (f64, f64) {
        let slot = self.soonest();
        let start_s = ready_s.max(self.free_s[slot]);
        let done_s = start_s + cost_s;
        self.free_s[slot] = done_s;
        (start_s, done_s)
    }
}

/// Internal planner state: the open window, the virtual server and the
/// modeled in-service backlog.
struct Planner<'c> {
    exit_cost_s: &'c [f64],
    server: VirtualServers,
    /// `(modeled completion, batch size)` of scheduled-but-unfinished
    /// batches; retired as the virtual clock passes their completion.
    in_service: Vec<(f64, usize)>,
    batches: Vec<PlannedBatch>,
    open: Vec<(usize, usize)>,
    open_s: f64,
}

impl Planner<'_> {
    fn backlog(&self) -> usize {
        self.open.len() + self.in_service.iter().map(|&(_, n)| n).sum::<usize>()
    }

    /// Closes the open window at `close_s` and schedules it on the virtual
    /// server for its predicted cost (the deepest member exit's cost —
    /// incremental inference pays the deepest exit once).
    fn close_open_window(&mut self, close_s: f64) {
        let members = std::mem::take(&mut self.open);
        let predicted_cost_s = members
            .iter()
            .map(|&(_, exit)| self.exit_cost_s[exit])
            .fold(f64::NEG_INFINITY, f64::max);
        let (start_s, done_s) = self.server.run(close_s, predicted_cost_s);
        self.in_service.push((done_s, members.len()));
        self.batches.push(PlannedBatch {
            open_s: self.open_s,
            close_s,
            members,
            predicted_cost_s,
            start_s,
            done_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: [f64; 3] = [0.001, 0.004, 0.009];

    fn window(max_batch: usize, deadline_s: f64) -> WindowConfig {
        WindowConfig { max_batch, deadline_s }
    }

    fn all_admitted(n: usize, exit: usize) -> Vec<Option<usize>> {
        vec![Some(exit); n]
    }

    #[test]
    fn zero_capacity_and_zero_servers_are_config_errors() {
        let bad = OverloadConfig { queue_cap: 0, ..OverloadConfig::default() };
        assert!(matches!(bad.validate(), Err(ServeError::InvalidConfig(_))));
        assert!(OverloadConfig::default().validate().is_ok());
        let no_workers = crate::ServeConfig::new(window(1, 0.0), 0);
        assert!(matches!(no_workers.validate(), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn shed_policy_spellings_round_trip() {
        for p in [ShedPolicy::Reject, ShedPolicy::DropOldest, ShedPolicy::Degrade] {
            assert_eq!(ShedPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(ShedPolicy::parse("drop_oldest"), Some(ShedPolicy::DropOldest));
        assert_eq!(ShedPolicy::parse("DEGRADE"), Some(ShedPolicy::Degrade));
        assert_eq!(ShedPolicy::parse("lossless"), None);
    }

    #[test]
    fn pressure_cap_is_monotone_and_hits_both_ends() {
        let cap = 8;
        let exits = 4;
        let mut prev = usize::MAX;
        for backlog in 0..cap {
            let c = pressure_exit_cap(backlog, cap, exits);
            assert!(c <= prev, "cap must not grow with backlog");
            prev = c;
        }
        assert_eq!(pressure_exit_cap(0, cap, exits), 3, "empty queue keeps full depth");
        assert_eq!(pressure_exit_cap(cap - 1, cap, exits), 0, "last slot is shallowest-only");
        // No gradient to read: capacity 1 and unbounded queues never degrade.
        assert_eq!(pressure_exit_cap(0, 1, exits), 3);
        assert_eq!(pressure_exit_cap(1_000_000, usize::MAX, exits), 3);
        // Queues too large for `deepest * headroom` in `usize` keep both ends
        // and stay monotone instead of overflowing.
        let huge = usize::MAX - 1;
        assert_eq!(pressure_exit_cap(0, huge, 3), 2, "empty huge queue keeps full depth");
        assert_eq!(pressure_exit_cap(0, usize::MAX / 2 + 2, 3), 2);
        assert_eq!(pressure_exit_cap(huge / 2, huge, 3), 1, "half-full huge queue halves");
        assert_eq!(pressure_exit_cap(huge - 1, huge, 3), 0, "last slot is shallowest-only");
        let caps =
            [0, 1, huge / 3, huge / 2, huge - 2, huge - 1].map(|b| pressure_exit_cap(b, huge, 3));
        assert!(caps.windows(2).all(|w| w[1] <= w[0]), "cap must not grow with backlog: {caps:?}");
    }

    /// The plan of an all-admitted stream behind an unbounded queue.
    fn unbounded(arrivals: &[f64], w: WindowConfig) -> Result<OverloadPlan> {
        let n = arrivals.len();
        let cfg = OverloadConfig::default();
        plan_overload(arrivals, &vec![1.0; n], &all_admitted(n, 0), &COSTS, &w, &cfg)
    }

    fn members(plan: &OverloadPlan) -> Vec<Vec<usize>> {
        plan.batches.iter().map(|b| b.members.iter().map(|&(i, _)| i).collect()).collect()
    }

    #[test]
    fn unbounded_plan_applies_the_close_rule_and_never_sheds() {
        let arrivals = [0.0, 0.0005, 0.001, 0.02, 0.05, 0.0501];
        let plan = unbounded(&arrivals, window(2, 0.004)).unwrap();
        plan.check_conservation().unwrap();
        // Filled windows close at their second arrival; lone ones wait out
        // the deadline, and the next arrival opens the next window.
        assert_eq!(members(&plan), vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]);
        let windows: Vec<(f64, f64)> = plan.batches.iter().map(|b| (b.open_s, b.close_s)).collect();
        assert_eq!(
            windows,
            vec![(0.0, 0.0005), (0.001, 0.001 + 0.004), (0.02, 0.02 + 0.004), (0.05, 0.0501)]
        );
        assert_eq!(plan.shed(), 0);
        assert_eq!(plan.degraded, 0);
    }

    #[test]
    fn windows_close_at_size_or_deadline_whichever_first() {
        let w = window(3, 1.0);
        // 0.0,0.1,0.2 fill a batch (close at 0.2); 5.0 then waits out the
        // full deadline alone (close 6.0); 7.5,7.6 close at 8.5.
        let arrivals = [0.0, 0.1, 0.2, 5.0, 7.5, 7.6];
        let plan = unbounded(&arrivals, w).unwrap();
        assert_eq!(members(&plan), vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
        let b = &plan.batches;
        assert_eq!(b[0].close_s, 0.2, "a filled window closes at the last arrival");
        assert_eq!(b[1].close_s, 6.0, "an unfilled window waits out the deadline");
        assert_eq!(b[2].close_s, 8.5);
        for batch in b {
            for &(i, _) in &batch.members {
                let wait = batch.close_s - arrivals[i];
                assert!((0.0..=w.deadline_s).contains(&wait), "wait {wait} within deadline");
            }
        }
    }

    #[test]
    fn a_zero_deadline_batches_only_simultaneous_arrivals() {
        let plan = unbounded(&[0.0, 0.0, 0.0, 1.0, 2.0], window(8, 0.0)).unwrap();
        let sizes: Vec<usize> = plan.batches.iter().map(|b| b.members.len()).collect();
        assert_eq!(sizes, vec![3, 1, 1]);
    }

    #[test]
    fn unsorted_or_nonfinite_arrivals_are_rejected() {
        let w = window(2, 1.0);
        assert!(matches!(unbounded(&[1.0, 0.5], w), Err(ServeError::InvalidRequest(_))));
        assert!(unbounded(&[0.0, f64::NAN], w).is_err());
        assert!(unbounded(&[], w).unwrap().batches.is_empty());
    }

    #[test]
    fn reject_sheds_newcomers_when_the_queue_is_full() {
        // Capacity 2, slow service (deep exit, long window): the third and
        // later simultaneous arrivals shed.
        let arrivals = [0.0, 0.0, 0.0, 0.0];
        let budgets = [1.0; 4];
        let cfg = OverloadConfig { queue_cap: 2, policy: ShedPolicy::Reject };
        let plan =
            plan_overload(&arrivals, &budgets, &all_admitted(4, 2), &COSTS, &window(8, 0.01), &cfg)
                .unwrap();
        plan.check_conservation().unwrap();
        assert_eq!(plan.outcomes[0], AdmitOutcome::Scheduled { exit: 2, degraded: false });
        assert_eq!(plan.outcomes[1], AdmitOutcome::Scheduled { exit: 2, degraded: false });
        assert_eq!(plan.outcomes[2], AdmitOutcome::Shed(ShedReason::QueueFull));
        assert_eq!(plan.outcomes[3], AdmitOutcome::Shed(ShedReason::QueueFull));
        assert_eq!(plan.scheduled(), 2);
        assert_eq!(plan.shed(), 2);
    }

    #[test]
    fn drop_oldest_evicts_the_queued_front_for_freshness() {
        let arrivals = [0.0, 0.0, 0.0];
        let budgets = [1.0; 3];
        let cfg = OverloadConfig { queue_cap: 2, policy: ShedPolicy::DropOldest };
        let plan =
            plan_overload(&arrivals, &budgets, &all_admitted(3, 1), &COSTS, &window(8, 0.01), &cfg)
                .unwrap();
        plan.check_conservation().unwrap();
        assert_eq!(plan.outcomes[0], AdmitOutcome::Shed(ShedReason::DroppedOldest));
        assert!(matches!(plan.outcomes[1], AdmitOutcome::Scheduled { .. }));
        assert!(matches!(plan.outcomes[2], AdmitOutcome::Scheduled { .. }));
    }

    #[test]
    fn degrade_lowers_exits_under_pressure_and_sheds_only_at_full() {
        // Eight simultaneous deep-exit arrivals into a capacity-6 queue:
        // early ones keep depth, later ones degrade, overflow sheds.
        let n = 8;
        let arrivals = vec![0.0; n];
        let budgets = vec![1.0; n];
        let cfg = OverloadConfig { queue_cap: 6, policy: ShedPolicy::Degrade };
        let plan = plan_overload(
            &arrivals,
            &budgets,
            &all_admitted(n, 2),
            &COSTS,
            &window(16, 0.01),
            &cfg,
        )
        .unwrap();
        plan.check_conservation().unwrap();
        let exits: Vec<Option<usize>> = plan
            .outcomes
            .iter()
            .map(|o| match o {
                AdmitOutcome::Scheduled { exit, .. } => Some(*exit),
                _ => None,
            })
            .collect();
        // Monotone non-increasing depth across the burst, then sheds.
        assert_eq!(exits[0], Some(2));
        assert!(plan.degraded > 0, "pressure must have lowered at least one exit");
        for w in exits.iter().take(6).collect::<Vec<_>>().windows(2) {
            assert!(w[1].unwrap() <= w[0].unwrap(), "degradation is monotone in backlog");
        }
        assert_eq!(plan.outcomes[6], AdmitOutcome::Shed(ShedReason::QueueFull));
        assert_eq!(plan.outcomes[7], AdmitOutcome::Shed(ShedReason::QueueFull));
    }

    #[test]
    fn degrade_sheds_deadline_unmeetable_requests() {
        // The first batch occupies the single virtual server for 9 ms; a
        // request arriving meanwhile with a 2 ms budget can no longer make
        // any exit once the modeled wait is subtracted.
        let arrivals = [0.0, 0.001];
        let budgets = [1.0, 0.002];
        let cfg = OverloadConfig { queue_cap: 100, policy: ShedPolicy::Degrade };
        let plan =
            plan_overload(&arrivals, &budgets, &all_admitted(2, 2), &COSTS, &window(1, 0.0), &cfg)
                .unwrap();
        plan.check_conservation().unwrap();
        assert!(matches!(plan.outcomes[0], AdmitOutcome::Scheduled { exit: 2, .. }));
        assert_eq!(plan.outcomes[1], AdmitOutcome::Shed(ShedReason::DeadlineUnmeetable));
    }

    #[test]
    fn rejected_requests_never_occupy_queue_slots() {
        let arrivals = [0.0, 0.0, 0.0];
        let budgets = [1.0; 3];
        let decisions = vec![None, Some(0), Some(0)];
        let cfg = OverloadConfig { queue_cap: 2, policy: ShedPolicy::Reject };
        let plan =
            plan_overload(&arrivals, &budgets, &decisions, &COSTS, &window(8, 0.01), &cfg).unwrap();
        plan.check_conservation().unwrap();
        assert_eq!(plan.outcomes[0], AdmitOutcome::Rejected);
        assert_eq!(plan.scheduled(), 2, "the rejection freed a slot for both admitted requests");
    }

    #[test]
    fn deadline_met_counts_modeled_goodput() {
        use ie_runtime::{LatencyAdmission, StateDiscretizer};
        use rand::SeedableRng;
        // Replay judges goodput against this planner's modeled completion,
        // not the measured compute: three simultaneous deep-exit requests in
        // single-request windows run back to back on the virtual server,
        // done at 6, 12 and 18 ms. The 8 ms budget of the second misses,
        // though the real compute takes microseconds.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net =
            ie_nn::MultiExitNetwork::from_architecture(&ie_nn::spec::tiny_multi_exit(3), &mut rng)
                .unwrap();
        let mut admission = LatencyAdmission::static_lut(
            vec![0.002, 0.006],
            vec![0.6, 0.7],
            StateDiscretizer::paper_default(),
        )
        .unwrap();
        let requests: Vec<crate::Request> = [1.0, 0.008, 1.0]
            .iter()
            .enumerate()
            .map(|(i, &budget_s)| crate::Request {
                id: i as u64,
                arrival_s: 0.0,
                budget_s,
                input: ie_tensor::Tensor::zeros(&[1, 8, 8]),
            })
            .collect();
        let mut pool = ie_nn::train::BatchPlanPool::new();
        let config = crate::ServeConfig::new(window(1, 0.0), 1);
        let mut server = crate::Server::new(&net, config, &mut pool).unwrap();
        let report = server.replay(&mut admission, &requests).unwrap().report;
        assert_eq!(report.per_exit, vec![0, 3], "every request was admitted to the deep exit");
        assert_eq!(report.deadline_met, 2, "the 8 ms budget misses the 12 ms modeled completion");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let cfg = OverloadConfig::default();
        let w = window(2, 0.01);
        assert!(matches!(
            plan_overload(&[1.0, 0.5], &[1.0, 1.0], &all_admitted(2, 0), &COSTS, &w, &cfg),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(plan_overload(&[0.0], &[], &all_admitted(1, 0), &COSTS, &w, &cfg).is_err());
        assert!(plan_overload(&[f64::NAN], &[1.0], &all_admitted(1, 0), &COSTS, &w, &cfg).is_err());
        assert!(matches!(
            plan_overload(&[0.0], &[1.0], &all_admitted(1, 7), &COSTS, &w, &cfg),
            Err(ServeError::InvalidConfig(_))
        ));
    }
}

//! The serving loop itself: worker threads own warmed [`BatchPlan`]s, a
//! dynamic batching window groups admitted requests, a runtime policy (via
//! [`LatencyAdmission`]) picks each request's early exit under its latency
//! budget, and an overload layer ([`OverloadConfig`]) bounds the queue and
//! sheds or degrades under pressure.
//!
//! Two execution modes share all decision logic, one supervision path and
//! one tally of outcomes:
//!
//! * **replay** ([`Server::replay`]) runs a pre-recorded request stream on a
//!   virtual clock. Batching, shedding and degradation are planned by the
//!   pure [`plan_overload`], the one virtual-clock implementation of the
//!   window close rule, so the whole run — responses, shed decisions *and*
//!   queue waits — is deterministic for a fixed stream and chaos seed,
//!   independent of worker count. This is what the tests, the CI chaos
//!   matrix and the `serve_loop/*` / `overload_loop/*` bench families use.
//! * **live** ([`Server::run_live`]) accepts requests pushed from a load
//!   generator and applies the same close rule against the wall clock.
//!   Response *content* is still deterministic for a fixed submission order
//!   under the default overload config; with a bounded queue the
//!   shed/degrade decisions read the *real* queue occupancy and are honestly
//!   racy.
//!
//! Admission happens strictly in arrival order before batching, and no
//! outcome feedback reaches the policy, so batch composition can never
//! change a decision — the key to byte-identical responses across thread
//! counts. Both modes refuse an input shaped unlike the network's before it
//! can reach a batch: replay checks the whole stream up front, live checks
//! each submission.
//!
//! **Worker supervision**: both modes run every batch through one supervised
//! attempt. A worker that panics mid-batch — injected by a [`ChaosPlan`] or
//! genuine — is caught with `catch_unwind`, its possibly-corrupt plan is
//! replaced by a fresh warmed one from a spare plan pool, and the batch is
//! retried once after a fixed backoff: replay re-enqueues the batch, live
//! puts its members back at the queue front. A request whose batch is lost
//! again resolves to [`Verdict::Shed`] with [`ShedReason::RetryExhausted`] —
//! the conservation invariant (every submitted request answered exactly
//! once) survives any panic schedule.

use crate::chaos::{silence_chaos_panics, ChaosPlan};
use crate::overload::{
    plan_overload, pressure_exit_cap, AdmitOutcome, OverloadConfig, ShedPolicy, ShedReason,
    VirtualServers,
};
use crate::window::WindowConfig;
use crate::{percentile, Request, Response, Result, ServeError, ServeReport, Verdict};
use ie_nn::quant::QuantConfig;
use ie_nn::train::{threads_from_env, MAX_WORKERS};
use ie_nn::train::{BatchPlanPool, QuantPlanPool};
use ie_nn::{BatchPlan, MultiExitNetwork, PlannedOutput};
use ie_runtime::LatencyAdmission;
use ie_tensor::Tensor;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// How many more times a batch that lost its worker runs before its
/// members are shed as [`ShedReason::RetryExhausted`].
const RETRY_BUDGET: u32 = 1;

/// Pause before a lost batch's retry runs: a constant, never a function of
/// the worker or the clock, so chaos replays stay reproducible.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// The dynamic batching window (size-N / deadline-T close rule).
    pub window: WindowConfig,
    /// Worker threads; each owns one warmed [`BatchPlan`], built before the
    /// first request. Must be in `1..=`[`MAX_WORKERS`].
    pub threads: usize,
    /// Overload protection: queue bound and shed policy. The default
    /// (unbounded, [`ShedPolicy::Reject`]) reproduces the original
    /// unbounded-queue serving behaviour exactly.
    pub overload: OverloadConfig,
}

impl ServeConfig {
    /// A configuration with the given window and thread count and default
    /// overload protection (unbounded queue).
    pub fn new(window: WindowConfig, threads: usize) -> Self {
        ServeConfig { window, threads, overload: OverloadConfig::default() }
    }

    /// Validates the window, thread count and overload configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero thread count or one
    /// above [`MAX_WORKERS`], or an invalid window/overload configuration.
    pub fn validate(&self) -> Result<()> {
        self.window.validate()?;
        self.overload.validate()?;
        if self.threads == 0 {
            return Err(ServeError::InvalidConfig("server needs at least one worker".into()));
        }
        if self.threads > MAX_WORKERS {
            return Err(ServeError::InvalidConfig(format!(
                "{} workers exceed the maximum of {MAX_WORKERS}",
                self.threads
            )));
        }
        Ok(())
    }
}

/// Worker-thread count for the server: `IE_SERVE_THREADS` via the shared
/// [`threads_from_env`] helper (same parsing, fallback and warn-once
/// behaviour as `IE_EVAL_THREADS` / `IE_FLEET_THREADS`) — thread count never
/// changes response content, only throughput.
pub fn serve_threads() -> usize {
    threads_from_env("IE_SERVE_THREADS")
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// One response per request, in request order (replay) or id order
    /// (live). Deterministic for a fixed stream and chaos seed.
    pub responses: Vec<Response>,
    /// Aggregate statistics; see [`ServeReport`] for what is deterministic.
    pub report: ServeReport,
}

/// An inference server over one multi-exit network. Worker plans are taken
/// out of a caller-owned pool at construction (the warm handoff) and
/// returned with [`Server::into_plans`].
pub struct Server<'n> {
    network: &'n MultiExitNetwork,
    config: ServeConfig,
    plans: Vec<BatchPlan>,
    /// `Some` for a quantized server — supervision needs it to rebuild a
    /// lost worker's plan with the same quantization.
    quant: Option<QuantConfig>,
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("workers", &self.plans.len())
            .finish()
    }
}

impl<'n> Server<'n> {
    /// Builds an `f32` server: takes `config.threads` warmed plans sized for
    /// the batching window out of `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid configuration.
    pub fn new(
        network: &'n MultiExitNetwork,
        config: ServeConfig,
        pool: &mut BatchPlanPool,
    ) -> Result<Self> {
        Server::with_pool(network, None, config, pool)
    }

    /// Builds a server running the **integer** engine: each worker plan is
    /// a quantized [`BatchPlan`] baked (or repacked) for `quant`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid configuration
    /// and propagates quantization errors from plan building.
    pub fn new_quantized(
        network: &'n MultiExitNetwork,
        quant: &QuantConfig,
        config: ServeConfig,
        pool: &mut QuantPlanPool,
    ) -> Result<Self> {
        Server::with_pool(network, Some(quant), config, pool)
    }

    /// Takes one plan per worker for the engine `quant` names out of `pool`.
    fn with_pool(
        network: &'n MultiExitNetwork,
        quant: Option<&QuantConfig>,
        config: ServeConfig,
        pool: &mut BatchPlanPool,
    ) -> Result<Self> {
        config.validate()?;
        let plans = (0..config.threads)
            .map(|_| pool.take(network, quant, config.window.max_batch))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Server { network, config, plans, quant: quant.cloned() })
    }

    /// Tears the server down, handing the worker plans back so the caller
    /// can [`ie_nn::train::PlanPool::put`] them for the next server. A plan
    /// recycled after a worker loss is handed back in place of the one that
    /// died.
    pub fn into_plans(self) -> Vec<BatchPlan> {
        self.plans
    }

    fn check_admission(&self, admission: &LatencyAdmission) -> Result<()> {
        if admission.num_exits() != self.network.num_exits() {
            return Err(ServeError::InvalidConfig(format!(
                "admission table covers {} exits but the network has {}",
                admission.num_exits(),
                self.network.num_exits()
            )));
        }
        Ok(())
    }

    /// Serves a pre-recorded, arrival-ordered request stream on the virtual
    /// clock. Responses come back in request order and are byte-identical
    /// across worker counts and repeated runs; queue-wait statistics, shed
    /// decisions and the chaos counters in the report are deterministic too,
    /// while latency percentiles and throughput fold in measured compute
    /// time. Equivalent to [`Server::replay_chaotic`] with no chaos.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for an unsorted stream or a
    /// request whose input is shaped unlike the network's (naming its id),
    /// [`ServeError::InvalidConfig`] for an admission table that does not
    /// match the network, [`ServeError::WorkerLost`] when a worker dies
    /// outside supervision, and propagates inference errors.
    pub fn replay(
        &mut self,
        admission: &mut LatencyAdmission,
        requests: &[Request],
    ) -> Result<ServeOutcome> {
        self.replay_chaotic(admission, requests, &ChaosPlan::none())
    }

    /// [`Server::replay`] under a chaos schedule: `chaos` may collapse
    /// arrivals into bursts, stall workers, and panic them mid-batch. All
    /// injections are keyed on *what* is perturbed (batch index, attempt,
    /// submission index) — never on worker identity or wall clock — so for
    /// a fixed seed the outcome stays byte-identical across worker counts
    /// and repeated runs, panics and all.
    ///
    /// # Errors
    ///
    /// See [`Server::replay`].
    pub fn replay_chaotic(
        &mut self,
        admission: &mut LatencyAdmission,
        requests: &[Request],
        chaos: &ChaosPlan,
    ) -> Result<ServeOutcome> {
        self.check_admission(admission)?;
        for r in requests {
            check_input(self.network, r.id, &r.input)?;
        }
        if chaos.is_active() {
            silence_chaos_panics();
        }
        // 1. Chaos may squeeze the arrival process into bursts — this is an
        //    input perturbation, decided before anything reads the stream.
        let mut arrivals: Vec<f64> = requests.iter().map(|r| r.arrival_s).collect();
        chaos.burstify_arrivals(&mut arrivals);
        // 2. Admission control in strict arrival order, before any batching:
        //    each decision depends only on the request's own budget.
        let decisions: Vec<Option<usize>> =
            requests.iter().map(|r| admission.admit(r.id, r.budget_s)).collect();
        let budgets: Vec<f64> = requests.iter().map(|r| r.budget_s).collect();
        // 3. The pure overload planner: windows, sheds, degradations and the
        //    modeled service schedule, all on the virtual clock.
        let plan = plan_overload(
            &arrivals,
            &budgets,
            &decisions,
            admission.exit_cost_s(),
            &self.config.window,
            &self.config.overload,
        )?;
        debug_assert!(plan.check_conservation().is_ok(), "planner broke conservation");
        // 4. Supervised execution: workers pop `(batch, attempt)` jobs, and a
        //    lost batch is re-enqueued with the next attempt number. Pull
        //    order is racy but resolution content is not — each batch's fate
        //    depends only on its own `(batch, attempt)` chaos draws.
        let sup = Supervisor::new(self.network, self.quant.as_ref(), *chaos);
        let jobs: Mutex<VecDeque<(usize, u32)>> =
            Mutex::new((0..plan.batches.len()).map(|b| (b, 0)).collect());
        let remaining = AtomicUsize::new(plan.batches.len());
        let completed = Mutex::new(vec![None; plan.batches.len()]);
        let aborted = AtomicBool::new(false);
        let worker = |plan_buf: &mut BatchPlan| -> Result<()> {
            loop {
                if aborted.load(Ordering::Relaxed) {
                    return Ok(());
                }
                let job = jobs.lock().map_err(|_| poisoned("serve jobs"))?.pop_front();
                let Some((b, attempt)) = job else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        return Ok(());
                    }
                    // Another worker still holds an unresolved batch that
                    // may yet be re-enqueued.
                    std::thread::yield_now();
                    continue;
                };
                let members = &plan.batches[b].members;
                let inputs: Vec<&Tensor> =
                    members.iter().map(|&(i, _)| &requests[i].input).collect();
                let exits: Vec<usize> = members.iter().map(|&(_, e)| e).collect();
                let retry = attempt < RETRY_BUDGET;
                match sup.attempt(plan_buf, b as u64, attempt, retry, &inputs, &exits)? {
                    Some((verdicts, start)) => {
                        let compute_s = start.elapsed().as_secs_f64();
                        completed.lock().map_err(|_| poisoned("serve results"))?[b] =
                            Some((verdicts, compute_s));
                    }
                    None if retry => {
                        sup.tally()?.retried += members.len();
                        jobs.lock()
                            .map_err(|_| poisoned("serve jobs"))?
                            .push_back((b, attempt + 1));
                        continue;
                    }
                    None => {
                        let mut tally = sup.tally()?;
                        for &(i, _) in members {
                            tally.shed(i as u64, requests[i].id, ShedReason::RetryExhausted);
                        }
                    }
                }
                remaining.fetch_sub(1, Ordering::Release);
            }
        };
        let joined = std::thread::scope(|scope| {
            let handles = self
                .plans
                .iter_mut()
                .map(|plan_buf| {
                    let (worker, aborted) = (&worker, &aborted);
                    scope.spawn(move || {
                        let run = worker(plan_buf);
                        if run.is_err() {
                            // Wake the siblings out of their idle spin.
                            aborted.store(true, Ordering::Relaxed);
                        }
                        run
                    })
                })
                .collect();
            join_workers(handles)
        });
        joined?;
        // 5. Fold the plan's rejections and sheds and the completed batches
        //    into the tally. Latency model: a batch starts at its virtual
        //    close time or when a worker frees up, and runs for its measured
        //    compute time.
        let completed = completed.into_inner().map_err(|_| poisoned("serve results"))?;
        let mut tally = sup.into_tally()?;
        tally.degraded = plan.degraded;
        tally.batches = plan.batches.len();
        for (i, (r, outcome)) in requests.iter().zip(&plan.outcomes).enumerate() {
            match outcome {
                AdmitOutcome::Rejected => tally.reject(i as u64, r.id),
                AdmitOutcome::Shed(reason) => tally.shed(i as u64, r.id, *reason),
                AdmitOutcome::Scheduled { .. } => {}
            }
        }
        let mut workers = VirtualServers::new(self.config.threads);
        let (mut first_arrival, mut last_done) = (f64::INFINITY, f64::NEG_INFINITY);
        for (batch, ran) in plan.batches.iter().zip(completed) {
            // A retry-exhausted batch was shed by the worker that lost it.
            let Some((verdicts, compute_s)) = ran else { continue };
            let (_, done_s) = workers.run(batch.close_s, compute_s);
            last_done = last_done.max(done_s);
            tally.compute_s += compute_s;
            for (&(i, _), verdict) in batch.members.iter().zip(verdicts) {
                let arrival = arrivals[i];
                first_arrival = first_arrival.min(arrival);
                // Goodput on the deterministic service model: did the
                // modeled completion meet the budget?
                let met = batch.done_s - arrival <= budgets[i];
                let (wait_s, latency_s) = (batch.close_s - arrival, done_s - arrival);
                tally.serve(i as u64, requests[i].id, verdict, wait_s, latency_s, met);
            }
        }
        let makespan_s = if first_arrival.is_finite() { last_done - first_arrival } else { 0.0 };
        Ok(tally.into_outcome(requests.len(), makespan_s))
    }

    /// Runs the live server: spawns the workers, hands the load generator a
    /// [`LiveHandle`] to push requests through, and shuts down (draining the
    /// queue) when the generator returns. Response content is deterministic
    /// for a fixed submission order under the default overload config;
    /// timing is wall-clock. Equivalent to [`Server::run_live_chaotic`]
    /// with no chaos.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a mismatched admission
    /// table, [`ServeError::WorkerLost`] when a worker dies outside
    /// supervision, and propagates inference errors.
    pub fn run_live<F>(&mut self, admission: &mut LatencyAdmission, load: F) -> Result<ServeOutcome>
    where
        F: FnOnce(&LiveHandle<'_>),
    {
        self.run_live_chaotic(admission, &ChaosPlan::none(), load)
    }

    /// [`Server::run_live`] under a chaos schedule: submissions may be held
    /// and released in bursts, and workers may stall or panic mid-batch —
    /// supervision catches the panic, recycles the plan, and puts the
    /// batch's members back at the queue front (preserving arrival order)
    /// for their one retry, shedding a member lost again as
    /// [`ShedReason::RetryExhausted`]. Live chaos perturbs *timing*;
    /// per-request verdicts stay content-deterministic because exits are
    /// fixed at submission.
    ///
    /// # Errors
    ///
    /// See [`Server::run_live`].
    pub fn run_live_chaotic<F>(
        &mut self,
        admission: &mut LatencyAdmission,
        chaos: &ChaosPlan,
        load: F,
    ) -> Result<ServeOutcome>
    where
        F: FnOnce(&LiveHandle<'_>),
    {
        self.check_admission(admission)?;
        if chaos.is_active() {
            silence_chaos_panics();
        }
        let sup = Supervisor::new(self.network, self.quant.as_ref(), *chaos);
        let started = Instant::now();
        let ctx = LiveCtx {
            sup: &sup,
            state: Mutex::new(LiveState { queue: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            window: self.config.window,
            overload: self.config.overload,
        };
        let submitted = AtomicUsize::new(0);
        let (joined, flushed) = std::thread::scope(|scope| {
            let handles = self
                .plans
                .iter_mut()
                .map(|plan| {
                    let ctx = &ctx;
                    scope.spawn(move || live_worker(ctx, plan))
                })
                .collect();
            let handle = LiveHandle {
                ctx: &ctx,
                admission: Mutex::new(admission),
                burst: Mutex::new(BurstState::default()),
                submitted: &submitted,
            };
            load(&handle);
            // A partial chaos burst may still be held back — release it
            // before shutdown so conservation holds.
            let flushed = handle.flush_pending();
            // Shutdown must reach the workers even if a panicking worker
            // poisoned the queue — the state (a flag and a drainable queue)
            // is still structurally sound, so recover it and close.
            match ctx.state.lock() {
                Ok(mut st) => st.closed = true,
                Err(p) => p.into_inner().closed = true,
            }
            ctx.cond.notify_all();
            (join_workers(handles), flushed)
        });
        let makespan_s = started.elapsed().as_secs_f64();
        joined?;
        flushed?;
        Ok(sup.into_tally()?.into_outcome(submitted.into_inner(), makespan_s))
    }
}

/// Refuses an input shaped unlike the network's input: it would fail the
/// whole batch that carries it, not just itself.
fn check_input(network: &MultiExitNetwork, id: u64, input: &Tensor) -> Result<()> {
    let expected = network.architecture().input_dims();
    if input.dims() != expected {
        return Err(ServeError::InvalidRequest(format!(
            "request {id} has input shape {:?} but the network takes {expected:?}",
            input.dims()
        )));
    }
    Ok(())
}

/// Joins the workers and returns the first error in worker order; a worker
/// that panicked outside supervision is a lost worker.
fn join_workers(handles: Vec<ScopedJoinHandle<'_, Result<()>>>) -> Result<()> {
    let results: Vec<Result<()>> = handles
        .into_iter()
        .enumerate()
        .map(|(worker, h)| {
            h.join().unwrap_or_else(|_| {
                Err(ServeError::WorkerLost(format!(
                    "serve worker {worker} panicked outside supervision"
                )))
            })
        })
        .collect();
    results.into_iter().collect()
}

/// Runs one batch with each request only as deep as its admitted exit,
/// `exits[i]` being the exit of `inputs[i]`: each trunk segment runs over
/// the requests that go on past it, each branch over the requests that leave
/// there ([`MultiExitNetwork::forward_to_exits_batch_with`]). That walk
/// wants the batch deepest first, so the members run in a stable
/// deepest-first order and each verdict is put back at its member's place:
/// the caller's chaos key, retry order and response order never see the
/// sort.
fn run_batch(
    network: &MultiExitNetwork,
    plan: &mut BatchPlan,
    inputs: &[&Tensor],
    exits: &[usize],
) -> Result<Vec<Verdict>> {
    let mut order: Vec<usize> = (0..exits.len()).collect();
    order.sort_by_key(|&i| Reverse(exits[i]));
    let sorted_inputs: Vec<&Tensor> = order.iter().map(|&i| inputs[i]).collect();
    let sorted_exits: Vec<usize> = order.iter().map(|&i| exits[i]).collect();
    let mut verdicts = vec![Verdict::Rejected; exits.len()];
    network.forward_to_exits_batch_with(plan, &sorted_inputs, &sorted_exits, |first, out| {
        for (k, &i) in order[first..first + out.len()].iter().enumerate() {
            let PlannedOutput { exit, prediction, confidence } = out.sample(k);
            verdicts[i] = Verdict::Served { exit, prediction, confidence };
        }
    })?;
    Ok(verdicts)
}

/// A shared mutex poisoned by a panicking worker: degrade to a recoverable
/// [`ServeError::WorkerLost`] instead of cascading the panic into the caller.
fn poisoned(what: &str) -> ServeError {
    ServeError::WorkerLost(format!("{what} mutex poisoned by a panicked worker"))
}

/// The supervision path both modes run every batch through, and the tally
/// both record into.
struct Supervisor<'a> {
    network: &'a MultiExitNetwork,
    quant: Option<&'a QuantConfig>,
    chaos: ChaosPlan,
    /// The pool a lost worker's replacement plan is taken from, for the
    /// engine `quant` names; it builds a fresh warmed plan when empty.
    spare_plans: Mutex<BatchPlanPool>,
    tally: Mutex<Tally>,
}

impl<'a> Supervisor<'a> {
    fn new(
        network: &'a MultiExitNetwork,
        quant: Option<&'a QuantConfig>,
        chaos: ChaosPlan,
    ) -> Self {
        Supervisor {
            network,
            quant,
            chaos,
            spare_plans: Mutex::new(BatchPlanPool::new()),
            tally: Mutex::new(Tally::new(network.num_exits())),
        }
    }

    fn tally(&self) -> Result<MutexGuard<'_, Tally>> {
        self.tally.lock().map_err(|_| poisoned("serve tally"))
    }

    fn into_tally(self) -> Result<Tally> {
        self.tally.into_inner().map_err(|_| poisoned("serve tally"))
    }

    /// One supervised attempt of a batch on `plan`, chaos keyed on
    /// `(key, attempt)`: an injected stall first, then the batch under
    /// `catch_unwind`. Returns the verdicts and the instant compute started,
    /// or `None` when the worker was lost — `plan` has then been replaced by
    /// a fresh warmed one of the same capacity, and if `retry` says another
    /// attempt follows, the backoff has elapsed. A genuine inference error
    /// is not a worker loss: it comes back as `Err` and aborts the run.
    fn attempt(
        &self,
        plan: &mut BatchPlan,
        key: u64,
        attempt: u32,
        retry: bool,
        inputs: &[&Tensor],
        exits: &[usize],
    ) -> Result<Option<(Vec<Verdict>, Instant)>> {
        if let Some(ms) = self.chaos.stall_ms(key, attempt) {
            self.tally()?.stalled += 1;
            std::thread::sleep(Duration::from_millis(ms));
        }
        let start = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.chaos.maybe_panic(key, attempt);
            run_batch(self.network, plan, inputs, exits)
        }));
        match run {
            Ok(verdicts) => Ok(Some((verdicts?, start))),
            Err(_lost) => {
                self.tally()?.restarted += 1;
                *plan = self.spare_plans.lock().map_err(|_| poisoned("serve spare plans"))?.take(
                    self.network,
                    self.quant,
                    plan.max_batch(),
                )?;
                if retry {
                    std::thread::sleep(RETRY_BACKOFF);
                }
                Ok(None)
            }
        }
    }
}

/// What a serving run produced, counted the same way by both modes and
/// folded into its [`ServeOutcome`] by [`Tally::into_outcome`].
#[derive(Default)]
struct Tally {
    /// `(order key, response)`: the stream position in replay, the request
    /// id live. Responses come back sorted by it.
    responses: Vec<(u64, Response)>,
    served: usize,
    rejected: usize,
    shed: usize,
    degraded: usize,
    retried: usize,
    restarted: usize,
    stalled: usize,
    deadline_met: usize,
    per_exit: Vec<usize>,
    batches: usize,
    waits: Vec<f64>,
    latencies: Vec<f64>,
    compute_s: f64,
}

impl Tally {
    fn new(num_exits: usize) -> Self {
        Tally { per_exit: vec![0; num_exits], ..Tally::default() }
    }

    fn reject(&mut self, key: u64, id: u64) {
        self.rejected += 1;
        self.responses.push((key, Response { id, verdict: Verdict::Rejected }));
    }

    fn shed(&mut self, key: u64, id: u64, reason: ShedReason) {
        self.shed += 1;
        self.responses.push((key, Response { id, verdict: Verdict::Shed { reason } }));
    }

    /// Records a request its batch answered, with its queue wait, its
    /// latency and whether it met its budget.
    fn serve(
        &mut self,
        key: u64,
        id: u64,
        verdict: Verdict,
        wait_s: f64,
        latency_s: f64,
        met: bool,
    ) {
        self.served += 1;
        if let Verdict::Served { exit, .. } = verdict {
            self.per_exit[exit] += 1;
        }
        self.deadline_met += usize::from(met);
        self.waits.push(wait_s);
        self.latencies.push(latency_s);
        self.responses.push((key, Response { id, verdict }));
    }

    fn into_outcome(mut self, submitted: usize, makespan_s: f64) -> ServeOutcome {
        self.responses.sort_by_key(|&(key, _)| key);
        let rate = |count: usize| if makespan_s > 0.0 { count as f64 / makespan_s } else { 0.0 };
        let report = ServeReport {
            submitted,
            served: self.served,
            rejected: self.rejected,
            shed: self.shed,
            degraded: self.degraded,
            retried: self.retried,
            restarted: self.restarted,
            stalled: self.stalled,
            deadline_met: self.deadline_met,
            per_exit: self.per_exit,
            batches: self.batches,
            mean_batch_fill: if self.batches > 0 {
                self.served as f64 / self.batches as f64
            } else {
                0.0
            },
            wait_p50_s: percentile(&self.waits, 0.50),
            wait_p99_s: percentile(&self.waits, 0.99),
            latency_p50_s: percentile(&self.latencies, 0.50),
            latency_p99_s: percentile(&self.latencies, 0.99),
            throughput_rps: rate(self.served),
            goodput_rps: rate(self.deadline_met),
            compute_s: self.compute_s,
        };
        debug_assert!(report.conservation_holds(), "serving broke request conservation");
        ServeOutcome { responses: self.responses.into_iter().map(|(_, r)| r).collect(), report }
    }
}

// ---------------------------------------------------------------------------
// Live mode plumbing
// ---------------------------------------------------------------------------

struct LiveRequest {
    id: u64,
    exit: usize,
    input: Tensor,
    arrival: Instant,
    budget_s: f64,
    attempt: u32,
}

struct LiveState {
    queue: VecDeque<LiveRequest>,
    closed: bool,
}

/// Shared context of the live workers and the submission path.
struct LiveCtx<'a> {
    sup: &'a Supervisor<'a>,
    state: Mutex<LiveState>,
    cond: Condvar,
    window: WindowConfig,
    overload: OverloadConfig,
}

/// Chaos burst buffer on the submission path: a burst-opening submission
/// holds itself and the next few back, then releases them all at once.
#[derive(Default)]
struct BurstState {
    /// Total submissions seen (the chaos burst key).
    counter: u64,
    /// How many more submissions the open burst will hold.
    hold_remaining: usize,
    /// The held-back requests.
    pending: Vec<LiveRequest>,
}

/// The load generator's interface to a running live server.
pub struct LiveHandle<'a> {
    ctx: &'a LiveCtx<'a>,
    admission: Mutex<&'a mut LatencyAdmission>,
    burst: Mutex<BurstState>,
    submitted: &'a AtomicUsize,
}

impl LiveHandle<'_> {
    /// Submits one request. Admission runs immediately, in submission order;
    /// a rejected request is answered right away, an admitted one is capped
    /// by the degrade policy's pressure reading (if configured), stamped
    /// with its wall-clock arrival and queued — or shed — under the bounded
    /// queue policy. Under chaos, submissions may be held briefly and
    /// released as an arrival burst.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`], naming `id`, when `input` is
    /// shaped unlike the network's input; such a request does not count as
    /// submitted and the run goes on. Returns [`ServeError::WorkerLost`]
    /// when a panicked worker poisoned the shared queue or tally — the load
    /// generator can stop submitting and let `run_live` report the lost
    /// worker.
    pub fn submit(&self, id: u64, budget_s: f64, input: Tensor) -> Result<()> {
        let sup = self.ctx.sup;
        check_input(sup.network, id, &input)?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let decision =
            self.admission.lock().map_err(|_| poisoned("serve admission"))?.admit(id, budget_s);
        let Some(admitted_exit) = decision else {
            sup.tally()?.reject(id, id);
            return Ok(());
        };
        // Degrade policy, live flavour: the pressure cap reads the *real*
        // queue occupancy at submission. The reading is racy by nature —
        // live pressure is a measurement, not a model — which is why bounded
        // live runs trade away cross-thread-count determinism.
        let mut exit = admitted_exit;
        if self.ctx.overload.policy == ShedPolicy::Degrade {
            let occupancy = self.ctx.state.lock().map_err(|_| poisoned("serve queue"))?.queue.len();
            let num_exits = sup.network.num_exits();
            exit = exit.min(pressure_exit_cap(occupancy, self.ctx.overload.queue_cap, num_exits));
        }
        if exit < admitted_exit {
            sup.tally()?.degraded += 1;
        }
        let req = LiveRequest { id, exit, input, arrival: Instant::now(), budget_s, attempt: 0 };
        // Chaos burst buffer: a burst-opening submission holds the next few
        // back and releases them together.
        let release = {
            let mut burst = self.burst.lock().map_err(|_| poisoned("serve burst buffer"))?;
            let s = burst.counter;
            burst.counter += 1;
            if burst.hold_remaining == 0 && sup.chaos.burst_at(s) {
                burst.hold_remaining = sup.chaos.burst_len;
            }
            if burst.hold_remaining > 0 {
                burst.pending.push(req);
                burst.hold_remaining -= 1;
                if burst.hold_remaining == 0 {
                    std::mem::take(&mut burst.pending)
                } else {
                    Vec::new()
                }
            } else {
                vec![req]
            }
        };
        if !release.is_empty() {
            self.enqueue(release)?;
        }
        Ok(())
    }

    /// Releases a partially filled chaos burst (called at shutdown so held
    /// requests are still answered — conservation over everything).
    fn flush_pending(&self) -> Result<()> {
        let pending = {
            let mut burst = self.burst.lock().map_err(|_| poisoned("serve burst buffer"))?;
            burst.hold_remaining = 0;
            std::mem::take(&mut burst.pending)
        };
        if pending.is_empty() {
            Ok(())
        } else {
            self.enqueue(pending)
        }
    }

    /// Pushes requests through the bounded queue, applying the shed policy,
    /// and records shed responses.
    fn enqueue(&self, requests: Vec<LiveRequest>) -> Result<()> {
        let mut shed_events: Vec<(u64, ShedReason)> = Vec::new();
        {
            let mut st = self.ctx.state.lock().map_err(|_| poisoned("serve queue"))?;
            for mut req in requests {
                if st.queue.len() >= self.ctx.overload.queue_cap {
                    match self.ctx.overload.policy {
                        ShedPolicy::Reject | ShedPolicy::Degrade => {
                            shed_events.push((req.id, ShedReason::QueueFull));
                            continue;
                        }
                        ShedPolicy::DropOldest => match st.queue.pop_front() {
                            Some(old) => shed_events.push((old.id, ShedReason::DroppedOldest)),
                            None => {
                                shed_events.push((req.id, ShedReason::QueueFull));
                                continue;
                            }
                        },
                    }
                }
                // Re-stamp on actual enqueue: a burst-held request "arrives"
                // when the burst lands.
                req.arrival = Instant::now();
                st.queue.push_back(req);
            }
        }
        self.ctx.cond.notify_all();
        if !shed_events.is_empty() {
            let mut tally = self.ctx.sup.tally()?;
            for (id, reason) in shed_events {
                tally.shed(id, id, reason);
            }
        }
        Ok(())
    }
}

/// One live worker: waits for the window to close (size-N, deadline-T or
/// shutdown drain), claims up to `max_batch` requests and runs them through
/// the supervised attempt on its own plan. When the worker is lost, members
/// with a retry left go back to the queue front (arrival order preserved —
/// they were at the front when claimed) and the rest are shed, so the
/// condvar queue never deadlocks and no request is executed-and-recorded
/// twice.
fn live_worker(ctx: &LiveCtx<'_>, plan: &mut BatchPlan) -> Result<()> {
    let deadline = Duration::from_secs_f64(ctx.window.deadline_s);
    loop {
        let mut st = ctx.state.lock().map_err(|_| poisoned("serve queue"))?;
        // Wait for work (or shutdown with an empty queue).
        loop {
            if !st.queue.is_empty() {
                break;
            }
            if st.closed {
                return Ok(());
            }
            st = ctx.cond.wait(st).map_err(|_| poisoned("serve queue"))?;
        }
        // Window phase: hold until filled, the deadline passes, or shutdown
        // starts draining. The front's arrival opens the window.
        while let Some(front) = st.queue.front() {
            if st.queue.len() >= ctx.window.max_batch || st.closed {
                break;
            }
            let elapsed = front.arrival.elapsed();
            if elapsed >= deadline {
                break;
            }
            let (guard, _) = ctx
                .cond
                .wait_timeout(st, deadline - elapsed)
                .map_err(|_| poisoned("serve queue"))?;
            st = guard;
        }
        if st.queue.is_empty() {
            // Another worker claimed the window while this one slept.
            continue;
        }
        let n = st.queue.len().min(ctx.window.max_batch);
        let batch: Vec<LiveRequest> = st.queue.drain(..n).collect();
        drop(st);
        // Chaos keys on the batch head's id and the highest member attempt —
        // stable content keys, never worker identity.
        let key = batch.first().map_or(0, |r| r.id);
        let attempt = batch.iter().map(|r| r.attempt).max().unwrap_or(0);
        let retry = batch.iter().any(|r| r.attempt < RETRY_BUDGET);
        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
        let exits: Vec<usize> = batch.iter().map(|r| r.exit).collect();
        let Some((verdicts, start)) =
            ctx.sup.attempt(plan, key, attempt, retry, &inputs, &exits)?
        else {
            let (again, exhausted): (Vec<_>, Vec<_>) =
                batch.into_iter().partition(|r| r.attempt < RETRY_BUDGET);
            {
                let mut tally = ctx.sup.tally()?;
                tally.retried += again.len();
                for req in &exhausted {
                    tally.shed(req.id, req.id, ShedReason::RetryExhausted);
                }
            }
            if !again.is_empty() {
                let mut st = ctx.state.lock().map_err(|_| poisoned("serve queue"))?;
                for mut req in again.into_iter().rev() {
                    req.attempt += 1;
                    st.queue.push_front(req);
                }
                drop(st);
                ctx.cond.notify_all();
            }
            continue;
        };
        let done = Instant::now();
        let mut tally = ctx.sup.tally()?;
        tally.batches += 1;
        tally.compute_s += (done - start).as_secs_f64();
        for (req, verdict) in batch.iter().zip(verdicts) {
            let wait_s = (start - req.arrival).as_secs_f64();
            let latency_s = (done - req.arrival).as_secs_f64();
            tally.serve(req.id, req.id, verdict, wait_s, latency_s, latency_s <= req.budget_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_above_the_maximum_are_config_errors() {
        let window = WindowConfig { max_batch: 4, deadline_s: 0.001 };
        assert!(ServeConfig::new(window, MAX_WORKERS).validate().is_ok());
        for threads in [0, MAX_WORKERS + 1, usize::MAX] {
            assert!(matches!(
                ServeConfig::new(window, threads).validate(),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }
}

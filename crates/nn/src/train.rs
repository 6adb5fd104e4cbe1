//! The training loop for multi-exit networks on in-memory datasets and the
//! dataset evaluators.
//!
//! There is one training loop, [`train`]: planned, allocation-free once warm,
//! sharded across worker threads with a deterministic reduction. There are
//! three evaluators, all running the same shard/reduce skeleton over
//! [`BatchPlan`]s: [`evaluate`] (one batch-1 plan on the calling thread),
//! [`evaluate_batched`] (pooled `f32` plans) and [`evaluate_quantized`]
//! (pooled integer plans). Every warmed plan, forward or backward, comes
//! from the one [`PlanPool`], and every contiguous-shard worker loop, the
//! fleet simulator's included, is the one [`run_sharded`].

use crate::dataset::Sample;
use crate::quant::QuantConfig;
use crate::{BackwardPlan, BatchPlan, GradStore, MultiExitNetwork, NnError, Result, Sgd};
use ie_tensor::Tensor;
use std::ops::Range;

/// Configuration of a multi-exit training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Per-epoch multiplicative learning-rate decay.
    pub lr_decay: f32,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Loss weight of each exit. Must have one entry per exit; the usual
    /// multi-exit objective weights every exit equally.
    pub exit_weights: Vec<f32>,
}

impl TrainConfig {
    /// A reasonable default configuration for the given number of exits.
    pub fn for_exits(num_exits: usize) -> Self {
        TrainConfig {
            epochs: 10,
            learning_rate: 0.05,
            lr_decay: 0.95,
            batch_size: 8,
            exit_weights: vec![1.0; num_exits],
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean combined loss over the epoch.
    pub mean_loss: f32,
    /// Test accuracy of each exit after the epoch.
    pub exit_accuracy: Vec<f32>,
}

/// Evaluates the accuracy of every exit on the given samples, one sample per
/// pass on the calling thread.
///
/// Runs the shared evaluation skeleton on one batch-1 plan
/// ([`crate::ExecutionPlan`]) built up front and reused across every sample,
/// so the evaluation loop itself performs no per-sample tensor allocations.
/// Accuracies are identical to running the allocating
/// [`MultiExitNetwork::forward_all`] per sample, because the planned path is
/// bit-identical to it.
///
/// # Errors
///
/// Propagates layer shape errors.
pub fn evaluate(network: &MultiExitNetwork, samples: &[Sample]) -> Result<Vec<f32>> {
    if samples.is_empty() {
        return Ok(vec![0.0; network.num_exits()]);
    }
    let mut plan = network.execution_plan();
    evaluate_with_plans(network, samples, 1, std::slice::from_mut(&mut plan))
}

/// Default batch size of the batched evaluators (8 samples per widened pass).
pub const DEFAULT_EVAL_BATCH: usize = 8;

/// Most worker threads a thread knob ([`threads_from_env`]), the fleet
/// simulator's config or the server's config accepts. Each worker is one OS
/// thread, most with a warmed plan of their own, so an absurd count would
/// exhaust memory or thread ids instead of failing validation.
pub const MAX_WORKERS: usize = 256;

/// The parse rule of the thread knobs: an integer in `1..=`[`MAX_WORKERS`].
/// An explicit `0`, which would deadlock a sharded evaluation, is rejected
/// like any other value outside that range.
pub fn parse_threads(value: &str) -> Option<usize> {
    value.parse().ok().filter(|n| (1..=MAX_WORKERS).contains(n))
}

/// What a thread knob accepts, as its warning states it.
const THREADS_WANT: &str = "an integer in 1..=256";

/// Default worker-thread count when no override is set: the machine's
/// available parallelism capped at 4.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(1)
}

/// Resolves a thread-count environment knob (`IE_EVAL_THREADS`,
/// `IE_SERVE_THREADS`, `IE_FLEET_THREADS`, …) through
/// [`ie_tensor::knobs::read`] with [`parse_threads`]: the variable's value
/// when the rule accepts it, otherwise [`default_threads`] (a rejected value
/// warns once per variable). None of these knobs ever changes results — the
/// sharded reductions are deterministic — so they are pure throughput knobs.
pub fn threads_from_env(var: &'static str) -> usize {
    ie_tensor::knobs::read(var, THREADS_WANT, parse_threads).unwrap_or_else(default_threads)
}

/// The one contiguous-shard loop behind the evaluators, the trainer and the
/// fleet simulator: splits `0..len` into shards of `shard_len` items (the
/// last one shorter), pairs shard `i` with the `i`-th item of `states`, runs
/// `work(range, state)` on every shard, and hands each result to `fold` in
/// shard order, stopping at the first error `fold` returns.
///
/// A single shard runs inline on the calling thread, with no spawn and no
/// heap allocation. More shards each get one scoped worker thread, and
/// every worker is joined before the first result is folded. A panicking
/// worker is caught at join and folded as [`NnError::WorkerPanic`] naming
/// the worker and its range, converted into the caller's error type, so a
/// caller degrades instead of dying. A panic in an inline shard propagates
/// as usual.
///
/// `states` must yield at least one item per shard.
///
/// # Errors
///
/// Returns the first error `fold` returns.
pub fn run_sharded<S, R, E>(
    len: usize,
    shard_len: usize,
    states: impl IntoIterator<Item = S>,
    work: impl Fn(Range<usize>, S) -> std::result::Result<R, E> + Sync,
    mut fold: impl FnMut(std::result::Result<R, E>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E>
where
    S: Send,
    R: Send,
    E: From<NnError> + Send,
{
    let shard_len = shard_len.max(1);
    let mut shards =
        (0..len).step_by(shard_len).map(|start| start..(start + shard_len).min(len)).zip(states);
    if len <= shard_len {
        return shards.try_for_each(|(range, state)| fold(work(range, state)));
    }
    let work = &work;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .map(|(range, state)| (range.clone(), scope.spawn(move || work(range, state))))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(worker, (range, handle))| {
                handle.join().unwrap_or_else(|payload| {
                    Err(NnError::WorkerPanic {
                        worker,
                        shard_start: range.start,
                        shard_len: range.len(),
                        message: panic_message(payload.as_ref()),
                    }
                    .into())
                })
            })
            .collect()
    });
    results.into_iter().try_for_each(fold)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker-thread count for sharded evaluation: `IE_EVAL_THREADS` via
/// [`threads_from_env`] (what the CI thread-matrix job varies).
pub fn eval_threads() -> usize {
    threads_from_env("IE_EVAL_THREADS")
}

/// A warmed plan a [`PlanPool`] can hand out. Every plan kind is built for
/// the same key: an architecture plus an optional [`QuantConfig`]. For a
/// [`BatchPlan`] the config selects the integer kernels; for a
/// [`BackwardPlan`] it selects fake-quant training.
pub trait PooledPlan: Clone {
    /// Whether this pooled plan can serve `network` under `quant` for
    /// batches of up to `batch` samples once [`PooledPlan::rebind`] has run.
    /// A plan never fits a request for the other engine: an `f32` request
    /// never gets a quantized plan, and a quantized request never gets an
    /// `f32` plan. A [`BackwardPlan`] runs one sample at a time and ignores
    /// `batch`.
    fn fits(&self, network: &MultiExitNetwork, quant: Option<&QuantConfig>, batch: usize) -> bool;

    /// Builds a fresh plan for the key.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `quant` does not match the
    /// network.
    fn build(network: &MultiExitNetwork, quant: Option<&QuantConfig>, batch: usize)
        -> Result<Self>;

    /// Re-bakes a fitting pooled plan for `quant` before it is handed out
    /// again. Only a quantized [`BatchPlan`] has work to do: it re-packs the
    /// new weight codes into its existing buffers
    /// ([`BatchPlan::repack_quantized`]) instead of being rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `quant` does not match the
    /// network.
    fn rebind(&mut self, network: &MultiExitNetwork, quant: Option<&QuantConfig>) -> Result<()>;
}

impl PooledPlan for BatchPlan {
    fn fits(&self, network: &MultiExitNetwork, quant: Option<&QuantConfig>, batch: usize) -> bool {
        match quant {
            Some(_) => self.can_repack_quantized(network, batch),
            None => {
                self.quantized_model().is_none()
                    && self.is_compatible(network)
                    && self.max_batch() >= batch
            }
        }
    }

    fn build(
        network: &MultiExitNetwork,
        quant: Option<&QuantConfig>,
        batch: usize,
    ) -> Result<Self> {
        match quant {
            Some(config) => BatchPlan::for_network_quantized(network, config, batch),
            None => Ok(BatchPlan::for_architecture(network.architecture(), batch)),
        }
    }

    fn rebind(&mut self, network: &MultiExitNetwork, quant: Option<&QuantConfig>) -> Result<()> {
        match quant {
            Some(config) => self.repack_quantized(network, config),
            None => Ok(()),
        }
    }
}

impl PooledPlan for BackwardPlan {
    fn fits(&self, network: &MultiExitNetwork, quant: Option<&QuantConfig>, _: usize) -> bool {
        self.is_compatible(network) && self.quant_config() == quant
    }

    fn build(network: &MultiExitNetwork, quant: Option<&QuantConfig>, _: usize) -> Result<Self> {
        match quant {
            Some(config) => {
                BackwardPlan::for_architecture_fake_quant(network.architecture(), config)
            }
            None => Ok(BackwardPlan::for_architecture(network.architecture())),
        }
    }

    fn rebind(&mut self, _: &MultiExitNetwork, _: Option<&QuantConfig>) -> Result<()> {
        Ok(())
    }
}

/// The one reusable pool of warmed plans, for every [`PooledPlan`] kind.
///
/// A search loop scores thousands of candidate policies, a trainer runs
/// thousands of steps and a server keeps one plan per worker. Compression
/// and training change a network's weights but never its architecture, so
/// a caller-owned pool keeps the warmed plans across those calls instead of
/// re-allocating them. Pooled plans that do not fit a request are dropped
/// and rebuilt transparently, and a pooled quantized [`BatchPlan`] is
/// re-packed in place for the next policy, never rebuilt. `f32` and
/// quantized [`BatchPlan`]s may share one pool: each request names its
/// engine, and a plan only serves requests of its own.
#[derive(Debug)]
pub struct PlanPool<P> {
    plans: Vec<P>,
}

/// The pool of `f32` [`BatchPlan`]s for [`evaluate_batched`] and the serve
/// workers. The same type as [`QuantPlanPool`]: each request names its
/// engine.
pub type BatchPlanPool = PlanPool<BatchPlan>;

/// The pool of quantized [`BatchPlan`]s for [`evaluate_quantized`] and the
/// integer serve workers. The same type as [`BatchPlanPool`].
pub type QuantPlanPool = PlanPool<BatchPlan>;

/// The pool of per-worker [`BackwardPlan`]s behind [`BatchBackwardPlan`].
pub type BackwardPlanPool = PlanPool<BackwardPlan>;

impl<P> Default for PlanPool<P> {
    fn default() -> Self {
        PlanPool { plans: Vec::new() }
    }
}

impl<P> PlanPool<P> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        PlanPool::default()
    }

    /// Number of plans currently pooled.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` when no plans are pooled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Returns a plan to the pool for later reuse.
    pub fn put(&mut self, plan: P) {
        self.plans.push(plan);
    }
}

impl<P: PooledPlan> PlanPool<P> {
    /// Hands out `count` plans for `network` under `quant`: drops pooled
    /// plans that do not fit, rebinds the pooled ones it hands out and
    /// builds only what is missing, building once and cloning the fresh
    /// plan (a quantized model is packed once, not once per worker).
    fn ensure(
        &mut self,
        network: &MultiExitNetwork,
        quant: Option<&QuantConfig>,
        batch: usize,
        count: usize,
    ) -> Result<&mut [P]> {
        self.plans.retain(|p| p.fits(network, quant, batch));
        for plan in self.plans.iter_mut().take(count) {
            plan.rebind(network, quant)?;
        }
        if self.plans.len() < count {
            let fresh = P::build(network, quant, batch)?;
            self.plans.resize(count, fresh);
        }
        Ok(&mut self.plans[..count])
    }

    /// Hands one plan for `network` under `quant` out of the pool: a fitting
    /// pooled plan is rebound and moved to the caller, otherwise a fresh one
    /// is built, and pooled plans that do not fit stay put. `quant` is
    /// `None` for the `f32` engine and a config for the integer (or
    /// fake-quant) one. This is the serve-worker handoff: each worker takes
    /// a plan at startup, owns it for its lifetime, and the caller
    /// [`PlanPool::put`]s it back on shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSpec`] when `quant` does not match the
    /// network.
    pub fn take<'q>(
        &mut self,
        network: &MultiExitNetwork,
        quant: impl Into<Option<&'q QuantConfig>>,
        batch: usize,
    ) -> Result<P> {
        let quant = quant.into();
        match self.plans.iter().position(|p| p.fits(network, quant, batch)) {
            Some(i) => {
                let mut plan = self.plans.swap_remove(i);
                plan.rebind(network, quant)?;
                Ok(plan)
            }
            None => P::build(network, quant, batch),
        }
    }
}

/// The shared shard/reduce skeleton of the evaluators: splits the (non-empty)
/// samples into one contiguous shard per plan, runs each shard through its
/// plan ([`run_sharded`]) and reduces the per-shard correct counts in shard
/// order.
fn evaluate_with_plans(
    network: &MultiExitNetwork,
    samples: &[Sample],
    batch: usize,
    plans: &mut [BatchPlan],
) -> Result<Vec<f32>> {
    let num_exits = network.num_exits();
    let mut total = vec![0usize; num_exits];
    run_sharded(
        samples.len(),
        samples.len().div_ceil(plans.len()),
        plans.iter_mut(),
        |range, plan| -> Result<Vec<usize>> {
            let mut correct = vec![0usize; num_exits];
            let mut refs: Vec<&Tensor> = Vec::with_capacity(batch);
            for chunk in samples[range].chunks(batch) {
                refs.clear();
                refs.extend(chunk.iter().map(|s| &s.image));
                network.forward_all_batch_with(plan, &refs, |out| {
                    for (i, sample) in chunk.iter().enumerate() {
                        correct[out.exit()] += usize::from(out.prediction(i) == sample.label);
                    }
                })?;
            }
            Ok(correct)
        },
        |counts| {
            for (t, c) in total.iter_mut().zip(counts?) {
                *t += c;
            }
            Ok(())
        },
    )?;
    Ok(total.iter().map(|&c| c as f32 / samples.len() as f32).collect())
}

/// Evaluates the accuracy of every exit on the given samples using batched
/// passes sharded across `threads` worker threads.
///
/// The samples are split into `threads` contiguous shards; each worker owns
/// one [`BatchPlan`] (the per-thread sharding unit), taken from and kept warm
/// in the caller's `pool`, and streams its shard through
/// [`MultiExitNetwork::forward_all_batch_with`] in chunks of `batch` samples.
/// Per-shard correct counts are reduced in shard order — integer sums over a
/// fixed partition — so the result is identical for every thread count and
/// every pool state, and because the batched pass is bit-identical per
/// sample, identical to [`evaluate`] as well.
///
/// # Errors
///
/// Propagates layer shape errors from the workers (first shard's error wins).
/// A panicking worker is caught at join and surfaced as
/// [`NnError::WorkerPanic`] naming the worker and its shard.
pub fn evaluate_batched(
    network: &MultiExitNetwork,
    samples: &[Sample],
    batch: usize,
    threads: usize,
    pool: &mut BatchPlanPool,
) -> Result<Vec<f32>> {
    if samples.is_empty() {
        return Ok(vec![0.0; network.num_exits()]);
    }
    let batch = batch.max(1);
    let plans = pool.ensure(network, None, batch, threads.clamp(1, samples.len()))?;
    evaluate_with_plans(network, samples, batch, plans)
}

/// Evaluates the accuracy of every exit with the **integer** execution
/// backend: each worker owns a quantized [`BatchPlan`] baked from `network`
/// and `config` (pre-quantized packed weights, i8/i16 GEMM + requantization
/// epilogues), so the measured accuracy is that of true integer inference
/// rather than the fake-quant `f32` round trip.
///
/// The plans come from the caller's `pool`: each call re-packs the policy's
/// weight codes into the pooled plans' existing buffers instead of
/// re-allocating them (see [`PlanPool`]). Sharding and reduction are those
/// of [`evaluate_batched`]; results are deterministic and independent of
/// `batch`, `threads` and the pool state.
///
/// # Errors
///
/// Returns [`crate::NnError::InvalidSpec`] when `config` does not match the
/// network, and propagates layer shape errors from the workers.
/// A panicking worker is caught at join and surfaced as
/// [`NnError::WorkerPanic`] naming the worker and its shard.
pub fn evaluate_quantized(
    network: &MultiExitNetwork,
    config: &QuantConfig,
    samples: &[Sample],
    batch: usize,
    threads: usize,
    pool: &mut QuantPlanPool,
) -> Result<Vec<f32>> {
    if samples.is_empty() {
        return Ok(vec![0.0; network.num_exits()]);
    }
    let batch = batch.max(1);
    let plans = pool.ensure(network, Some(config), batch, threads.clamp(1, samples.len()))?;
    evaluate_with_plans(network, samples, batch, plans)
}

/// Worker-thread count for [`train`]: `IE_TRAIN_THREADS` via
/// [`threads_from_env`] (what the CI train-determinism job varies). Like all
/// thread knobs this never changes results — the trainer's gradient
/// reduction is deterministic and byte-identical across worker counts.
pub fn train_threads() -> usize {
    threads_from_env("IE_TRAIN_THREADS")
}

/// A batched, sharded training step: one [`BackwardPlan`] per worker, one
/// [`GradStore`] per sample, deterministic reduction.
///
/// `train_step` splits the mini-batch into one contiguous shard per worker
/// ([`run_sharded`]). Each worker runs its samples through its own plan,
/// accumulating every sample's gradients into that sample's store. The
/// reduction then folds the per-sample losses and flushes the per-sample
/// stores **in ascending sample order** — float addition is not
/// associative, so a per-worker reduction would change bits with the worker
/// count; a per-sample one cannot. The result is bit-identical to calling
/// [`MultiExitNetwork::backward`] on each sample sequentially, and
/// byte-identical for every `threads` value.
///
/// An optional fake-quant configuration ([`BatchBackwardPlan::fake_quant`])
/// makes every worker run the quantize–dequantize forward half (see
/// [`BackwardPlan::for_architecture_fake_quant`]) — training with the
/// deployment-time quantization in the loop. The weights change only after
/// the batch, so each worker re-quantizes its plan's weight codes (and
/// gathers its pruned convs' kept filter columns) once per step, not once
/// per sample.
#[derive(Debug, Default)]
pub struct BatchBackwardPlan {
    pool: BackwardPlanPool,
    stores: Vec<GradStore>,
    losses: Vec<f32>,
    quant: Option<QuantConfig>,
}

impl BatchBackwardPlan {
    /// Creates an empty batched training plan (full-precision forward).
    pub fn new() -> Self {
        BatchBackwardPlan::default()
    }

    /// Creates a batched training plan whose forward half applies `config`'s
    /// fake-quantization on every step.
    pub fn fake_quant(config: QuantConfig) -> Self {
        BatchBackwardPlan { quant: Some(config), ..BatchBackwardPlan::default() }
    }

    /// The fake-quant configuration applied by every step, if any.
    pub fn quant_config(&self) -> Option<&QuantConfig> {
        self.quant.as_ref()
    }

    /// Runs one training step over `samples` sharded across `threads`
    /// workers and applies the batch-averaged gradients with learning rate
    /// `lr`. Returns the summed loss; see the type docs for the determinism
    /// contract. On error the network's gradients and weights are left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`BackwardPlan::backward_into_store`] errors from the
    /// workers (first shard's error wins). A panicking worker is caught at
    /// join and surfaced as [`NnError::WorkerPanic`] naming the worker and
    /// its shard.
    pub fn train_step(
        &mut self,
        network: &mut MultiExitNetwork,
        samples: &[Sample],
        exit_weights: &[f32],
        lr: f32,
        threads: usize,
    ) -> Result<f32> {
        let mut total = 0.0f32;
        self.train_step_into(network, samples, exit_weights, lr, threads, &mut total)?;
        Ok(total)
    }

    /// [`Self::train_step`] folding the per-sample losses into an external
    /// accumulator in ascending sample order, so an epoch-level sum is
    /// bit-identical to a sequential per-sample loop's.
    fn train_step_into(
        &mut self,
        network: &mut MultiExitNetwork,
        samples: &[Sample],
        exit_weights: &[f32],
        lr: f32,
        threads: usize,
        total_loss: &mut f32,
    ) -> Result<()> {
        if samples.is_empty() {
            return Ok(());
        }
        let n = samples.len();
        let threads = threads.clamp(1, n);
        let plans = self.pool.ensure(network, self.quant.as_ref(), 1, threads)?;
        let want = plans[0].store_len();
        self.stores.retain(|s| s.len() == want);
        while self.stores.len() < n {
            self.stores.push(plans[0].make_store());
        }
        if self.losses.len() < n {
            self.losses.resize(n, 0.0);
        }
        let shard_len = n.div_ceil(threads);
        let net: &MultiExitNetwork = network;
        let shards = self.stores.chunks_mut(shard_len).zip(self.losses.chunks_mut(shard_len));
        run_sharded(
            n,
            shard_len,
            shards.zip(plans.iter_mut()),
            |range, ((stores, losses), plan)| -> Result<()> {
                // The weights change only in `apply_gradients` below, so each
                // worker's fake-quant codes and kept-width filters are
                // refreshed once per step.
                plan.refresh_weights(net)?;
                for ((sample, store), loss) in samples[range].iter().zip(stores).zip(losses) {
                    *loss = plan.backward_with_codes(
                        net,
                        &sample.image,
                        sample.label,
                        exit_weights,
                        store,
                    )?;
                }
                Ok(())
            },
            |shard| shard,
        )?;
        // Deterministic reduction: per-sample losses and stores are folded
        // in ascending sample order regardless of how the shards were cut.
        for loss in &self.losses[..n] {
            *total_loss += *loss;
        }
        for store in &self.stores[..n] {
            plans[0].flush_store(store, network);
        }
        network.apply_gradients(lr / n as f32);
        Ok(())
    }
}

/// Trains `network` on the training samples and evaluates each exit on the
/// test samples after every epoch.
///
/// Each mini-batch runs through [`BatchBackwardPlan::train_step`] —
/// allocation-free once warm, sharded across `threads` workers, and (when
/// `plan` carries a fake-quant configuration) with the deployment-time
/// quantization in the training loop. Gradients are averaged over the
/// mini-batch and the learning rate decays once per epoch. The returned
/// history and the trained weights are byte-identical for every `threads`
/// value, and with a full-precision `plan` bit-identical to a sequential
/// loop of [`MultiExitNetwork::backward`] calls.
///
/// # Errors
///
/// Propagates layer shape errors, invalid labels from the dataset, and
/// worker panics (as [`NnError::WorkerPanic`]).
pub fn train(
    network: &mut MultiExitNetwork,
    train_set: &[Sample],
    test_set: &[Sample],
    config: &TrainConfig,
    threads: usize,
    plan: &mut BatchBackwardPlan,
) -> Result<Vec<EpochStats>> {
    let mut sgd = Sgd::new(config.learning_rate).with_decay(config.lr_decay);
    // Grown as epochs finish: an absurd epoch count must not reserve its
    // whole history before the first step.
    let mut history = Vec::new();
    for epoch in 0..config.epochs {
        let mut total_loss = 0.0;
        let mut count = 0usize;
        for batch in train_set.chunks(config.batch_size.max(1)) {
            plan.train_step_into(
                network,
                batch,
                &config.exit_weights,
                sgd.learning_rate(),
                threads,
                &mut total_loss,
            )?;
            count += batch.len();
        }
        sgd.end_epoch();
        let exit_accuracy = evaluate(network, test_set)?;
        history.push(EpochStats {
            epoch,
            mean_loss: if count > 0 { total_loss / count as f32 } else { 0.0 },
            exit_accuracy,
        });
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDataset;
    use crate::spec::tiny_multi_exit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_improves_over_chance_on_synthetic_data() {
        let data = SyntheticDataset::generate(3, 8, 150, 0.05, 21);
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let mut config = TrainConfig::for_exits(2);
        config.epochs = 6;
        config.learning_rate = 0.1;
        let mut plan = BatchBackwardPlan::new();
        let history = train(&mut net, data.train(), data.test(), &config, 1, &mut plan).unwrap();
        let last = history.last().unwrap();
        // Chance level is 1/3; both exits should comfortably beat it.
        assert!(
            last.exit_accuracy.iter().all(|&a| a > 0.5),
            "exit accuracies after training: {:?}",
            last.exit_accuracy
        );
        // Loss should decrease from the first epoch to the last.
        assert!(last.mean_loss < history[0].mean_loss);
    }

    /// Every weight and bias in apply-order, as raw bits.
    fn weight_bits(net: &MultiExitNetwork) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in net.segments().iter().flatten().chain(net.branches().iter().flatten()) {
            let (w, b) = match layer {
                crate::Layer::Conv2d(c) => (c.weight(), c.bias()),
                crate::Layer::Dense(d) => (d.weight(), d.bias()),
                _ => continue,
            };
            bits.extend(w.as_slice().iter().map(|v| v.to_bits()));
            bits.extend(b.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn batched_training_is_bit_identical_to_legacy() {
        let data = SyntheticDataset::generate(3, 8, 60, 0.05, 23);
        let mut rng = StdRng::seed_from_u64(24);
        let reference = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let mut config = TrainConfig::for_exits(2);
        config.epochs = 2;
        config.learning_rate = 0.1;

        // The oracle: the allocating per-sample backward pass, one sample at
        // a time, with the batch-averaged step and per-epoch decay spelled
        // out here rather than shared with `train`.
        let mut legacy = reference.clone();
        let mut sgd = Sgd::new(config.learning_rate).with_decay(config.lr_decay);
        let mut legacy_history = Vec::new();
        for epoch in 0..config.epochs {
            let mut total_loss = 0.0f32;
            for batch in data.train().chunks(config.batch_size) {
                for sample in batch {
                    total_loss +=
                        legacy.backward(&sample.image, sample.label, &config.exit_weights).unwrap();
                }
                legacy.apply_gradients(sgd.learning_rate() / batch.len() as f32);
            }
            sgd.end_epoch();
            legacy_history.push(EpochStats {
                epoch,
                mean_loss: total_loss / data.train().len() as f32,
                exit_accuracy: evaluate(&legacy, data.test()).unwrap(),
            });
        }

        let mut batched = reference.clone();
        let mut plan = BatchBackwardPlan::new();
        let batched_history =
            train(&mut batched, data.train(), data.test(), &config, 1, &mut plan).unwrap();

        assert_eq!(legacy_history, batched_history);
        assert_eq!(weight_bits(&legacy), weight_bits(&batched));
    }

    #[test]
    fn batched_training_is_byte_identical_across_worker_counts() {
        let data = SyntheticDataset::generate(3, 8, 45, 0.05, 25);
        let mut rng = StdRng::seed_from_u64(26);
        let reference = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let mut config = TrainConfig::for_exits(2);
        config.epochs = 2;

        let mut single = reference.clone();
        let mut plan1 = BatchBackwardPlan::new();
        let history1 =
            train(&mut single, data.train(), data.test(), &config, 1, &mut plan1).unwrap();
        let bits1 = weight_bits(&single);

        for threads in [2usize, 3, 4] {
            let mut net = reference.clone();
            let mut plan = BatchBackwardPlan::new();
            let history =
                train(&mut net, data.train(), data.test(), &config, threads, &mut plan).unwrap();
            assert_eq!(history, history1, "{threads} workers diverged from 1");
            assert_eq!(weight_bits(&net), bits1, "{threads}-worker weights diverged from 1");
        }
    }

    #[test]
    fn fake_quant_batched_training_reduces_loss_and_is_thread_invariant() {
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let data = SyntheticDataset::generate(3, 8, 45, 0.05, 27);
        let mut rng = StdRng::seed_from_u64(28);
        let reference = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let n = reference.architecture().compressible_layers().len();
        let act = QuantParams::from_range(-6.0, 6.0, 8);
        let cfg = config_from_bits(&reference, &vec![Some((8, act)); n]).unwrap();
        let mut config = TrainConfig::for_exits(2);
        config.epochs = 3;
        config.learning_rate = 0.1;

        let mut single = reference.clone();
        let mut plan1 = BatchBackwardPlan::fake_quant(cfg.clone());
        assert_eq!(plan1.quant_config(), Some(&cfg));
        let history1 =
            train(&mut single, data.train(), data.test(), &config, 1, &mut plan1).unwrap();
        assert!(
            history1.last().unwrap().mean_loss < history1[0].mean_loss,
            "fake-quant training loss did not decrease: {history1:?}"
        );

        let mut multi = reference.clone();
        let mut plan4 = BatchBackwardPlan::fake_quant(cfg);
        let history4 =
            train(&mut multi, data.train(), data.test(), &config, 4, &mut plan4).unwrap();
        assert_eq!(history1, history4);
        assert_eq!(weight_bits(&single), weight_bits(&multi));
    }

    #[test]
    fn fake_quant_train_step_matches_per_sample_backward() {
        // Each step must run on codes re-quantized from the weights the
        // previous step wrote. The oracle is a per-sample `backward_with`
        // loop, whose public entry refreshes the codes on every call.
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let data = SyntheticDataset::generate(3, 8, 24, 0.05, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let reference = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let n = reference.architecture().compressible_layers().len();
        let act = QuantParams::from_range(-6.0, 6.0, 8);
        let cfg = config_from_bits(&reference, &vec![Some((4, act)); n]).unwrap();
        let (weights, lr) = ([1.0, 0.5], 0.2);

        let mut oracle = reference.clone();
        let mut plan = oracle.backward_plan_fake_quant(&cfg).unwrap();
        let mut oracle_losses = Vec::new();
        for batch in data.train().chunks(6) {
            let mut total = 0.0f32;
            for s in batch {
                total += oracle.backward_with(&mut plan, &s.image, s.label, &weights).unwrap();
            }
            oracle.apply_gradients(lr / batch.len() as f32);
            oracle_losses.push(total.to_bits());
        }
        assert!(oracle_losses.len() > 1, "several steps, so stale codes would show");
        for threads in [1, 3] {
            let mut net = reference.clone();
            let mut batched = BatchBackwardPlan::fake_quant(cfg.clone());
            let losses: Vec<u32> = data
                .train()
                .chunks(6)
                .map(|batch| {
                    batched.train_step(&mut net, batch, &weights, lr, threads).unwrap().to_bits()
                })
                .collect();
            assert_eq!(losses, oracle_losses, "{threads} workers");
            assert_eq!(weight_bits(&net), weight_bits(&oracle), "{threads} workers");
        }
    }

    #[test]
    fn train_step_surfaces_bad_labels_and_leaves_the_network_untouched() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let before = weight_bits(&net);
        let samples = vec![
            Sample { image: Tensor::ones(&[1, 8, 8]), label: 0 },
            Sample { image: Tensor::ones(&[1, 8, 8]), label: 99 },
        ];
        let mut plan = BatchBackwardPlan::new();
        let err = plan.train_step(&mut net, &samples, &[1.0, 1.0], 0.1, 2).unwrap_err();
        assert!(matches!(err, NnError::InvalidLabel { label: 99, classes: 3 }));
        assert_eq!(weight_bits(&net), before, "failed step must not move weights");
    }

    #[test]
    fn backward_plan_pool_hands_out_and_reuses_plans() {
        let mut rng = StdRng::seed_from_u64(30);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let mut pool = BackwardPlanPool::new();
        assert!(pool.is_empty());
        let plan = pool.take(&net, None, 1).unwrap();
        assert!(plan.is_compatible(&net));
        pool.put(plan);
        assert_eq!(pool.len(), 1);
        let again = pool.take(&net, None, 1).unwrap();
        assert!(pool.is_empty(), "the pooled plan was handed back out");
        pool.put(again);
        // A fake-quant request does not match the plain pooled plan.
        let n = net.architecture().compressible_layers().len();
        let cfg = crate::quant::QuantConfig::from_layers(vec![None; n]);
        let fq = pool.take(&net, Some(&cfg), 1).unwrap();
        assert_eq!(fq.quant_config(), Some(&cfg));
        assert_eq!(pool.len(), 1, "the plain pooled plan stays put");
    }

    #[test]
    fn train_threads_reads_the_environment_knob() {
        assert!(train_threads() >= 1);
    }

    #[test]
    fn evaluate_returns_one_accuracy_per_exit() {
        let data = SyntheticDataset::generate(2, 8, 20, 0.1, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(2), &mut rng).unwrap();
        let accs = evaluate(&net, data.test()).unwrap();
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn default_config_matches_exit_count() {
        let c = TrainConfig::for_exits(3);
        assert_eq!(c.exit_weights.len(), 3);
    }

    #[test]
    fn batched_evaluation_is_identical_for_every_batch_and_thread_count() {
        let data = SyntheticDataset::generate(3, 8, 90, 0.1, 7);
        let mut rng = StdRng::seed_from_u64(6);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let reference = evaluate(&net, data.test()).unwrap();
        for batch in [1usize, 3, 8] {
            for threads in [1usize, 2, 4] {
                let sharded =
                    evaluate_batched(&net, data.test(), batch, threads, &mut BatchPlanPool::new())
                        .unwrap();
                assert_eq!(
                    sharded, reference,
                    "batch {batch} x {threads} threads must match the single-input evaluation"
                );
            }
        }
        // More workers than samples degrades gracefully to one per sample.
        let few = &data.test()[..2];
        let mut pool = BatchPlanPool::new();
        assert_eq!(
            evaluate_batched(&net, few, 4, 16, &mut pool).unwrap(),
            evaluate(&net, few).unwrap()
        );
    }

    #[test]
    fn pooled_evaluation_reuses_plans_and_matches_the_fresh_path() {
        let data = SyntheticDataset::generate(3, 8, 60, 0.1, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let reference = evaluate(&net, data.test()).unwrap();
        let mut pool = BatchPlanPool::new();
        assert!(pool.is_empty());
        for _ in 0..3 {
            let pooled = evaluate_batched(&net, data.test(), 4, 2, &mut pool).unwrap();
            assert_eq!(pooled, reference);
            assert_eq!(pool.len(), 2, "both worker plans stay pooled across calls");
        }
        // A different (incompatible) network flushes the stale plans.
        let other = MultiExitNetwork::from_architecture(&tiny_multi_exit(4), &mut rng).unwrap();
        let small = SyntheticDataset::generate(4, 8, 20, 0.1, 11);
        let fresh = evaluate_batched(&other, small.test(), 4, 2, &mut pool).unwrap();
        assert_eq!(fresh, evaluate(&other, small.test()).unwrap());
    }

    #[test]
    fn quantized_evaluation_is_identical_for_every_batch_and_thread_count() {
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let data = SyntheticDataset::generate(3, 8, 60, 0.1, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let n = net.architecture().compressible_layers().len();
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let entries: Vec<Option<(u8, QuantParams)>> =
            (0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect();
        let cfg = config_from_bits(&net, &entries).unwrap();
        let mut pool = QuantPlanPool::new();
        let reference = evaluate_quantized(&net, &cfg, data.test(), 1, 1, &mut pool).unwrap();
        for batch in [3usize, 8] {
            for threads in [1usize, 2, 4] {
                let mut pool = QuantPlanPool::new();
                let accs =
                    evaluate_quantized(&net, &cfg, data.test(), batch, threads, &mut pool).unwrap();
                assert_eq!(accs, reference, "batch {batch} x {threads} threads");
            }
        }
        assert_eq!(evaluate_quantized(&net, &cfg, &[], 8, 4, &mut pool).unwrap(), vec![0.0; 2]);
    }

    #[test]
    fn pooled_quantized_evaluation_matches_fresh_and_reuses_code_buffers() {
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let data = SyntheticDataset::generate(3, 8, 40, 0.1, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let n = net.architecture().compressible_layers().len();
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let cfg_a = config_from_bits(
            &net,
            &(0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect::<Vec<_>>(),
        )
        .unwrap();
        let cfg_b = config_from_bits(
            &net,
            &(0..n)
                .map(|i| Some((if i % 2 == 0 { 4 } else { 12 }, if i == 0 { first } else { act })))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut pool = QuantPlanPool::new();
        assert!(pool.is_empty());
        for cfg in [&cfg_a, &cfg_b, &cfg_a] {
            let fresh = evaluate_quantized(&net, cfg, data.test(), 4, 2, &mut QuantPlanPool::new())
                .unwrap();
            let pooled = evaluate_quantized(&net, cfg, data.test(), 4, 2, &mut pool).unwrap();
            assert_eq!(pooled, fresh, "pooled quantized evaluation must match the fresh path");
            assert_eq!(pool.len(), 2, "both worker plans stay pooled across policies");
        }
        // Buffer reuse: repacking the same-shape policy into a warmed plan
        // keeps the packed weight-code allocation in place.
        let mut plan = pool.plans.pop().unwrap();
        let before = plan.quantized_model().unwrap().segment(0).iter().flatten().next().unwrap().w
            [..1]
            .as_ptr();
        plan.repack_quantized(&net, &cfg_a).unwrap();
        let after = plan.quantized_model().unwrap().segment(0).iter().flatten().next().unwrap().w
            [..1]
            .as_ptr();
        assert_eq!(before, after, "repacking must reuse the packed code buffer");
        // A plan for a different architecture is rejected, not repacked.
        let other = MultiExitNetwork::from_architecture(&tiny_multi_exit(4), &mut rng).unwrap();
        assert!(!plan.can_repack_quantized(&other, 4));
        assert!(plan.repack_quantized(&other, &cfg_a).is_err());
    }

    #[test]
    fn repack_guards_integer_scratch_capacity_and_survives_invalid_configs() {
        use crate::quant::config_from_bits;
        use crate::spec::ArchitectureBuilder;
        use ie_tensor::QuantParams;

        // Arch A: conv to 8x4x4 (act capacity 128, col capacity 18·16 =
        // 288), pooled to 32 dense inputs -> widened dense row 32.
        let arch_a = ArchitectureBuilder::new([2, 6, 6], 3)
            .conv("c", 8, 3, 1, 0)
            .relu()
            .maxpool(2)
            .begin_branch()
            .flatten()
            .dense("d", 3)
            .end_exit()
            .build()
            .unwrap();
        // Arch B: a 1x1 conv to 2x6x6 feeding 72 dense inputs -> widened
        // dense row 80 (> A's 32) while act (72) and col (72) both fit A's
        // f32 capacities — exactly the case the f32-side compatibility check
        // cannot see.
        let arch_b = ArchitectureBuilder::new([2, 6, 6], 3)
            .conv("c", 2, 1, 1, 0)
            .relu()
            .begin_branch()
            .flatten()
            .dense("d", 3)
            .end_exit()
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(16);
        let net_a = MultiExitNetwork::from_architecture(&arch_a, &mut rng).unwrap();
        let net_b = MultiExitNetwork::from_architecture(&arch_b, &mut rng).unwrap();
        let quant_cfg = |net: &MultiExitNetwork| {
            let n = net.architecture().compressible_layers().len();
            let first = QuantParams::from_range(-3.0, 3.0, 8);
            let act = QuantParams::from_range(0.0, 8.0, 8);
            config_from_bits(
                net,
                &(0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let cfg_a = quant_cfg(&net_a);
        let mut plan = BatchPlan::for_network_quantized(&net_a, &cfg_a, 2).unwrap();
        // The f32-side capacities of an A-sized plan do hold B...
        assert!(BatchPlan::for_architecture(net_a.architecture(), 2).is_compatible(&net_b));
        // ...but the widened dense-input scratch does not, so repacking must
        // be refused instead of overrunning `xs16` mid-forward.
        assert!(!plan.can_repack_quantized(&net_b, 2));
        assert!(plan.repack_quantized(&net_b, &quant_cfg(&net_b)).is_err());

        // An invalid config is rejected *without* destroying the plan's
        // quantized state (a failed repack must not silently degrade the
        // plan to the f32 engine).
        assert!(plan.repack_quantized(&net_a, &crate::quant::QuantConfig::default()).is_err());
        assert!(plan.quantized_model().is_some(), "failed repack kept the quantized state");
        // The plan still runs the integer engine correctly afterwards.
        let x = Tensor::ones(&[2, 6, 6]);
        let out = net_a.forward_to_exit_batch_with(&mut plan, &[&x], 0).unwrap();
        let model = crate::quant::QuantizedModel::for_network(&net_a, &cfg_a).unwrap();
        let reference = crate::quant::fake_quant_logits(&net_a, &model, &x, 0).unwrap();
        assert_eq!(out.logits(0), reference.as_slice());
    }

    #[test]
    fn batched_evaluation_handles_empty_sample_sets() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(2), &mut rng).unwrap();
        let mut pool = BatchPlanPool::new();
        assert_eq!(evaluate_batched(&net, &[], 8, 4, &mut pool).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn thread_override_classifies_values_instead_of_swallowing_them() {
        let threads =
            |raw| ie_tensor::knobs::classify("IE_EVAL_THREADS", raw, THREADS_WANT, parse_threads);
        assert_eq!(threads("4"), Ok(4));
        assert_eq!(threads(" 2 "), Ok(2));
        assert_eq!(threads("256"), Ok(MAX_WORKERS));
        // `0` and counts above the one worker bound warn and fall back like
        // garbage: a zero-thread evaluation cannot make progress, and an
        // absurd count is never handed to a shard loop.
        let max = usize::MAX.to_string();
        for bad in ["0", "257", max.as_str(), "-1", "lots", "", "4.5"] {
            let warning = threads(bad).expect_err("an invalid count warns");
            assert!(warning.contains(&format!("IE_EVAL_THREADS={bad:?}")), "{warning}");
            assert!(warning.contains(&format!("1..={MAX_WORKERS}")), "{warning}");
        }
        assert!(eval_threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_surfaces_as_an_error_naming_the_shard() {
        // Drive a panicking shard closure through the one shard loop: the
        // panic must come back as `NnError::WorkerPanic`, not abort.
        let data = SyntheticDataset::generate(2, 8, 20, 0.1, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(2), &mut rng).unwrap();
        let mut pool = BatchPlanPool::new();
        let plans = pool.ensure(&net, None, 4, 3).unwrap();
        let samples = &data.train()[..12];
        let mut results = Vec::new();
        let shard_work = |range: Range<usize>, _plan| -> Result<Vec<usize>> {
            let shard = &samples[range];
            if std::ptr::eq(&shard[0], &samples[4]) {
                panic!("injected shard failure");
            }
            Ok(vec![shard.len(), 0])
        };
        super::run_sharded(samples.len(), 4, plans.iter_mut(), shard_work, |result| {
            results.push(result);
            Ok(())
        })
        .unwrap();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok() && results[2].is_ok(), "healthy shards still report");
        match &results[1] {
            Err(NnError::WorkerPanic { worker, shard_start, shard_len, message }) => {
                assert_eq!((*worker, *shard_start, *shard_len), (1, 4, 4));
                assert!(message.contains("injected shard failure"));
                let text = results[1].as_ref().unwrap_err().to_string();
                assert!(text.contains("worker 1") && text.contains("4..8"), "{text}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn pool_handoff_reuses_warmed_plans() {
        let mut rng = StdRng::seed_from_u64(19);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let mut pool = BatchPlanPool::new();
        // Taking from an empty pool builds; putting back pools it.
        let plan = pool.take(&net, None, 4).unwrap();
        assert!(plan.is_compatible(&net) && plan.max_batch() >= 4);
        assert!(pool.is_empty());
        pool.put(plan);
        assert_eq!(pool.len(), 1);
        // A compatible request reuses the pooled plan instead of building.
        let again = pool.take(&net, None, 4).unwrap();
        assert!(pool.is_empty(), "the pooled plan was handed back out");
        pool.put(again);
        // An incompatible request leaves the pooled plan alone.
        let other = MultiExitNetwork::from_architecture(&tiny_multi_exit(4), &mut rng).unwrap();
        let fresh = pool.take(&other, None, 4).unwrap();
        assert!(fresh.is_compatible(&other));
        assert_eq!(pool.len(), 1, "the incompatible pooled plan stays put");
    }

    #[test]
    fn quant_pool_handoff_repacks_warmed_plans() {
        use crate::quant::config_from_bits;
        use ie_tensor::QuantParams;

        let data = SyntheticDataset::generate(3, 8, 24, 0.1, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).unwrap();
        let n = net.architecture().compressible_layers().len();
        let first = QuantParams::from_range(-3.0, 3.0, 8);
        let act = QuantParams::from_range(0.0, 8.0, 8);
        let cfg = config_from_bits(
            &net,
            &(0..n).map(|i| Some((8, if i == 0 { first } else { act }))).collect::<Vec<_>>(),
        )
        .unwrap();
        let mut pool = QuantPlanPool::new();
        let mut plan = pool.take(&net, &cfg, 4).unwrap();
        assert!(pool.is_empty());
        // The handed-out plan runs the integer engine and matches the
        // pool-less quantized evaluation.
        let reference =
            evaluate_quantized(&net, &cfg, data.test(), 4, 1, &mut QuantPlanPool::new()).unwrap();
        let pooled =
            evaluate_with_plans(&net, data.test(), 4, std::slice::from_mut(&mut plan)).unwrap();
        assert_eq!(pooled, reference);
        pool.put(plan);
        assert_eq!(pool.len(), 1);
        // Taking again repacks the pooled plan in place (same code buffers).
        let warmed = pool.take(&net, &cfg, 4).unwrap();
        assert!(pool.is_empty(), "the pooled plan was repacked and handed out");
        assert!(warmed.quantized_model().is_some());

        // f32 and quantized plans may share one pool. Each order asks first
        // for the engine pooled second, so a request that matched the other
        // engine's plan would take the first one.
        let plain = pool.take(&net, None, 4).unwrap();
        assert!(plain.quantized_model().is_none());
        for quant_first in [true, false] {
            let mut mixed = QuantPlanPool::new();
            let (first, second) = if quant_first { (&warmed, &plain) } else { (&plain, &warmed) };
            mixed.put(first.clone());
            mixed.put(second.clone());
            let requests = if quant_first { [None, Some(&cfg)] } else { [Some(&cfg), None] };
            for quant in requests {
                let plan = mixed.take(&net, quant, 4).unwrap();
                assert_eq!(
                    plan.quantized_model().is_some(),
                    quant.is_some(),
                    "a request received the other engine's plan"
                );
            }
            assert!(mixed.is_empty(), "both requests reused their own engine's pooled plan");
        }
    }
}

//! The training loop for multi-exit networks on in-memory datasets and the
//! dataset evaluators.
//!
//! There is one training loop, [`train`]: planned, allocation-free once warm,
//! sharded across worker threads with a deterministic reduction. There are
//! three evaluators, all running the same shard/reduce skeleton over
//! [`BatchPlan`]s: [`evaluate`] (one batch-1 plan on the calling thread),
//! [`evaluate_batched`] (pooled `f32` plans) and [`evaluate_quantized`]
//! (pooled integer plans).

use crate::dataset::Sample;
use crate::quant::QuantConfig;
use crate::{BackwardPlan, BatchPlan, GradStore, MultiExitNetwork, NnError, Result, Sgd};
use ie_tensor::Tensor;

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

/// Classification of a thread-count override read from the environment
/// (see [`classify_thread_override`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadOverride {
    /// The variable is not set — use the default.
    Unset,
    /// A valid positive-integer override.
    Threads(usize),
    /// The variable is set but unusable. Callers fall back to the default
    /// and should surface the problem once instead of swallowing it.
    Invalid {
        /// The raw value found in the environment.
        value: String,
        /// Why it was rejected.
        reason: &'static str,
    },
}

/// Classifies a thread-count override: `None` is [`ThreadOverride::Unset`],
/// a positive integer is [`ThreadOverride::Threads`], and anything else —
/// including an explicit `0`, which would deadlock a sharded evaluation —
/// is [`ThreadOverride::Invalid`] with the reason.
pub fn classify_thread_override(value: Option<&str>) -> ThreadOverride {
    let Some(raw) = value else { return ThreadOverride::Unset };
    match raw.trim().parse::<usize>() {
        Ok(0) => ThreadOverride::Invalid {
            value: raw.to_string(),
            reason: "thread count must be at least 1",
        },
        Ok(n) => ThreadOverride::Threads(n),
        Err(_) => {
            ThreadOverride::Invalid { value: raw.to_string(), reason: "not a positive integer" }
        }
    }
}

/// Default worker-thread count when no override is set: the machine's
/// available parallelism capped at 4.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(1)
}

/// Resolves a thread-count environment knob (`IE_EVAL_THREADS`,
/// `IE_SERVE_THREADS`, `IE_FLEET_THREADS`, …): the variable's value when it
/// is a positive integer, otherwise [`default_threads`]. A set-but-invalid
/// value (including `0`, which would deadlock a sharded evaluation) falls
/// back to the default and warns once *per variable* on stderr instead of
/// being silently swallowed. Every consumer goes through this one helper so
/// the knobs cannot drift in parsing or fallback behaviour; none of them
/// ever changes results — the sharded reductions are deterministic — so
/// these are pure throughput knobs.
pub fn threads_from_env(var: &'static str) -> usize {
    match classify_thread_override(std::env::var(var).ok().as_deref()) {
        ThreadOverride::Threads(n) => n,
        ThreadOverride::Unset => default_threads(),
        ThreadOverride::Invalid { value, reason } => {
            let fallback = default_threads();
            static WARNED: std::sync::OnceLock<std::sync::Mutex<Vec<&'static str>>> =
                std::sync::OnceLock::new();
            let mut warned = WARNED
                .get_or_init(|| std::sync::Mutex::new(Vec::new()))
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if !warned.contains(&var) {
                warned.push(var);
                eprintln!(
                    "warning: ignoring {var}={value:?} ({reason}); \
                     falling back to {fallback} worker threads"
                );
            }
            fallback
        }
    }
}

/// Worker-thread count for sharded evaluation: `IE_EVAL_THREADS` via
/// [`threads_from_env`] (what the CI thread-matrix job varies).
pub fn eval_threads() -> usize {
    threads_from_env("IE_EVAL_THREADS")
}

/// A reusable pool of per-worker [`BatchPlan`]s for [`evaluate_batched`].
///
/// A search loop scores thousands of candidate policies; a pool owned by the
/// caller (e.g. the accuracy estimator) keeps the warmed plans across those
/// calls instead of re-allocating them per evaluation: compression changes a
/// network's weights but never its architecture, so the same plans serve
/// every candidate policy. Incompatible or undersized plans are dropped and
/// rebuilt transparently.
///
/// Plans in the pool are plain `f32` plans; quantized plans bake per-policy
/// weights in and live in a [`QuantPlanPool`] instead.
#[derive(Debug, Default)]
pub struct BatchPlanPool {
    plans: Vec<BatchPlan>,
}

impl BatchPlanPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BatchPlanPool::default()
    }

    /// Number of plans currently pooled.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` when no plans are pooled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Hands out `count` plans compatible with `network` and `batch`,
    /// reusing pooled ones and building only what is missing.
    fn ensure(
        &mut self,
        network: &MultiExitNetwork,
        batch: usize,
        count: usize,
    ) -> &mut [BatchPlan] {
        self.plans.retain(|p| p.is_compatible(network) && p.max_batch() >= batch);
        while self.plans.len() < count {
            self.plans.push(BatchPlan::for_architecture(network.architecture(), batch));
        }
        &mut self.plans[..count]
    }

    /// Hands one warmed plan compatible with `network` and `batch` out of the
    /// pool, building a fresh one when nothing pooled fits. Ownership moves
    /// to the caller — this is the serve-worker handoff: each worker takes a
    /// plan at startup, owns it for its lifetime, and [`BatchPlanPool::put`]s
    /// it back on shutdown.
    pub fn take(&mut self, network: &MultiExitNetwork, batch: usize) -> BatchPlan {
        match self.plans.iter().position(|p| p.is_compatible(network) && p.max_batch() >= batch) {
            Some(i) => self.plans.swap_remove(i),
            None => BatchPlan::for_architecture(network.architecture(), batch),
        }
    }

    /// Returns a plan to the pool for later reuse.
    pub fn put(&mut self, plan: BatchPlan) {
        self.plans.push(plan);
    }
}

/// The shared shard/reduce skeleton of the evaluators: splits the (non-empty)
/// samples into one contiguous shard per plan, runs each shard through its
/// plan (inline for a single worker, scoped threads otherwise) and reduces
/// the per-shard correct counts in shard order.
fn evaluate_with_plans(
    network: &MultiExitNetwork,
    samples: &[Sample],
    batch: usize,
    plans: &mut [BatchPlan],
) -> Result<Vec<f32>> {
    let num_exits = network.num_exits();
    let eval_shard = |shard: &[Sample], plan: &mut BatchPlan| -> Result<Vec<usize>> {
        let mut correct = vec![0usize; num_exits];
        let mut refs: Vec<&Tensor> = Vec::with_capacity(batch);
        for chunk in shard.chunks(batch) {
            refs.clear();
            refs.extend(chunk.iter().map(|s| &s.image));
            network.forward_all_batch_with(plan, &refs, |out| {
                for (i, sample) in chunk.iter().enumerate() {
                    correct[out.exit()] += usize::from(out.prediction(i) == sample.label);
                }
            })?;
        }
        Ok(correct)
    };
    let threads = plans.len();
    let counts: Vec<Result<Vec<usize>>> = if threads == 1 {
        vec![eval_shard(samples, &mut plans[0])]
    } else {
        join_sharded(samples, plans, eval_shard)
    };
    let mut total = vec![0usize; num_exits];
    for shard_counts in counts {
        for (t, c) in total.iter_mut().zip(shard_counts?) {
            *t += c;
        }
    }
    Ok(total.iter().map(|&c| c as f32 / samples.len() as f32).collect())
}

/// The scoped-thread shard/join skeleton: one contiguous shard per plan,
/// results collected in shard order. A panicking worker is caught at join
/// and surfaced as [`NnError::WorkerPanic`] naming the worker and its shard
/// instead of aborting the whole process — a serving loop that shares this
/// path must degrade gracefully, not die.
fn join_sharded<F>(
    samples: &[Sample],
    plans: &mut [BatchPlan],
    eval_shard: F,
) -> Vec<Result<Vec<usize>>>
where
    F: Fn(&[Sample], &mut BatchPlan) -> Result<Vec<usize>> + Sync,
{
    let shard_len = samples.len().div_ceil(plans.len());
    let eval_shard = &eval_shard;
    std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(shard_len)
            .zip(plans.iter_mut())
            .enumerate()
            .map(|(worker, (shard, plan))| {
                (worker, shard.len(), scope.spawn(move || eval_shard(shard, plan)))
            })
            .collect();
        handles
            .into_iter()
            .map(|(worker, len, handle)| match handle.join() {
                Ok(result) => result,
                Err(payload) => Err(NnError::WorkerPanic {
                    worker,
                    shard_start: worker * shard_len,
                    shard_len: len,
                    message: panic_message(payload.as_ref()),
                }),
            })
            .collect()
    })
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
    let plans = pool.ensure(network, batch, threads.clamp(1, samples.len()));
    evaluate_with_plans(network, samples, batch, plans)
}

/// A reusable pool of per-worker **quantized** [`BatchPlan`]s.
///
/// Quantized plans bake per-policy weight codes in, so unlike
/// [`BatchPlanPool`] the pooled plans cannot be reused as-is — but their
/// buffers can: [`BatchPlan::repack_quantized`] re-packs the next policy's
/// codes into the previous policy's (grow-only) code matrices and keeps all
/// integer scratch. A search loop scoring thousands of candidate policies
/// through the integer backend therefore stops re-allocating the packed
/// weights on every evaluation (the ROADMAP's "QuantizedModel pool").
#[derive(Debug, Default)]
pub struct QuantPlanPool {
    plans: Vec<BatchPlan>,
}

impl QuantPlanPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        QuantPlanPool::default()
    }

    /// Number of plans currently pooled.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` when no plans are pooled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Hands out `count` quantized plans baked for `network` under `config`:
    /// pooled plans are re-packed in place, missing ones are built fresh
    /// (packing once and cloning the packed model into each).
    fn ensure(
        &mut self,
        network: &MultiExitNetwork,
        config: &QuantConfig,
        batch: usize,
        count: usize,
    ) -> Result<&mut [BatchPlan]> {
        self.plans.retain(|p| p.can_repack_quantized(network, batch));
        self.plans.truncate(count);
        for plan in &mut self.plans {
            plan.repack_quantized(network, config)?;
        }
        if self.plans.len() < count {
            let model = crate::quant::QuantizedModel::for_network(network, config)?;
            let arch = network.architecture();
            while self.plans.len() < count - 1 {
                self.plans.push(BatchPlan::for_quantized_model(arch, model.clone(), batch));
            }
            self.plans.push(BatchPlan::for_quantized_model(arch, model, batch));
        }
        Ok(&mut self.plans[..count])
    }

    /// Hands one quantized plan baked for `network` under `config` out of
    /// the pool: a repackable pooled plan is re-packed in place and moved to
    /// the caller, otherwise a fresh plan is built. The serve-worker
    /// counterpart of [`BatchPlanPool::take`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidSpec`] when `config` does not match
    /// the network.
    pub fn take(
        &mut self,
        network: &MultiExitNetwork,
        config: &QuantConfig,
        batch: usize,
    ) -> Result<BatchPlan> {
        match self.plans.iter().position(|p| p.can_repack_quantized(network, batch)) {
            Some(i) => {
                let mut plan = self.plans.swap_remove(i);
                plan.repack_quantized(network, config)?;
                Ok(plan)
            }
            None => {
                let model = crate::quant::QuantizedModel::for_network(network, config)?;
                Ok(BatchPlan::for_quantized_model(network.architecture(), model, batch))
            }
        }
    }

    /// Returns a plan to the pool for later repacking and reuse.
    pub fn put(&mut self, plan: BatchPlan) {
        self.plans.push(plan);
    }
}

/// Evaluates the accuracy of every exit with the **integer** execution
/// backend: each worker owns a quantized [`BatchPlan`] baked from `network`
/// and `config` (pre-quantized packed weights, i8/i16 GEMM + requantization
/// epilogues), so the measured accuracy is that of true integer inference
/// rather than the fake-quant `f32` round trip.
///
/// The plans come from the caller's `pool`: each call re-packs the policy's
/// weight codes into the pooled plans' existing buffers instead of
/// re-allocating them (see [`QuantPlanPool`]). Sharding and reduction are
/// those of [`evaluate_batched`]; results are deterministic and independent
/// of `batch`, `threads` and the pool state.
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
    let plans = pool.ensure(network, config, batch, threads.clamp(1, samples.len()))?;
    evaluate_with_plans(network, samples, batch, plans)
}

/// Worker-thread count for [`train`]: `IE_TRAIN_THREADS` via
/// [`threads_from_env`] (what the CI train-determinism job varies). Like all
/// thread knobs this never changes results — the trainer's gradient
/// reduction is deterministic and byte-identical across worker counts.
pub fn train_threads() -> usize {
    threads_from_env("IE_TRAIN_THREADS")
}

/// A reusable pool of per-worker [`BackwardPlan`]s, mirroring
/// [`BatchPlanPool`] for the training side: compression and training change
/// a network's weights but never its architecture, so the same warmed plans
/// serve every step. Plans built with a different architecture or fake-quant
/// configuration are dropped and rebuilt transparently.
#[derive(Debug, Default)]
pub struct BackwardPlanPool {
    plans: Vec<BackwardPlan>,
}

impl BackwardPlanPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BackwardPlanPool::default()
    }

    /// Number of plans currently pooled.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` when no plans are pooled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Hands out `count` plans compatible with `network` (and the given
    /// fake-quant configuration), reusing pooled ones and building only what
    /// is missing.
    fn ensure(
        &mut self,
        network: &MultiExitNetwork,
        quant: Option<&QuantConfig>,
        count: usize,
    ) -> Result<&mut [BackwardPlan]> {
        self.plans.retain(|p| p.is_compatible(network) && p.quant_config() == quant);
        while self.plans.len() < count {
            self.plans.push(match quant {
                Some(config) => {
                    BackwardPlan::for_architecture_fake_quant(network.architecture(), config)?
                }
                None => BackwardPlan::for_architecture(network.architecture()),
            });
        }
        Ok(&mut self.plans[..count])
    }

    /// Hands one plan compatible with `network` (and the given fake-quant
    /// configuration) out of the pool, building a fresh one when nothing
    /// pooled fits.
    ///
    /// # Errors
    ///
    /// Propagates [`BackwardPlan::for_architecture_fake_quant`]'s validation
    /// errors when a fake-quant plan has to be built.
    pub fn take(
        &mut self,
        network: &MultiExitNetwork,
        quant: Option<&QuantConfig>,
    ) -> Result<BackwardPlan> {
        match self.plans.iter().position(|p| p.is_compatible(network) && p.quant_config() == quant)
        {
            Some(i) => Ok(self.plans.swap_remove(i)),
            None => match quant {
                Some(config) => {
                    BackwardPlan::for_architecture_fake_quant(network.architecture(), config)
                }
                None => Ok(BackwardPlan::for_architecture(network.architecture())),
            },
        }
    }

    /// Returns a plan to the pool for later reuse.
    pub fn put(&mut self, plan: BackwardPlan) {
        self.plans.push(plan);
    }
}

/// A batched, sharded training step: one [`BackwardPlan`] per worker, one
/// [`GradStore`] per sample, deterministic reduction.
///
/// `train_step` splits the mini-batch into one contiguous shard per worker.
/// Each worker runs its samples through its own plan, accumulating every
/// sample's gradients into that sample's store. The reduction then folds the
/// per-sample losses and flushes the per-sample stores **in ascending sample
/// order** — float addition is not associative, so a per-worker reduction
/// would change bits with the worker count; a per-sample one cannot. The
/// result is bit-identical to calling [`MultiExitNetwork::backward`] on each
/// sample sequentially, and byte-identical for every `threads` value.
///
/// An optional fake-quant configuration ([`BatchBackwardPlan::fake_quant`])
/// makes every worker run the quantize–dequantize forward half (see
/// [`BackwardPlan::for_architecture_fake_quant`]) — training with the
/// deployment-time quantization in the loop.
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
        let plans = self.pool.ensure(network, self.quant.as_ref(), threads)?;
        let want = plans[0].store_len();
        self.stores.retain(|s| s.len() == want);
        while self.stores.len() < n {
            self.stores.push(plans[0].make_store());
        }
        if self.losses.len() < n {
            self.losses.resize(n, 0.0);
        }
        let shard_len = n.div_ceil(threads);
        if threads == 1 {
            let plan = &mut plans[0];
            for ((sample, store), loss) in
                samples.iter().zip(&mut self.stores).zip(&mut self.losses)
            {
                *loss = plan.backward_into_store(
                    network,
                    &sample.image,
                    sample.label,
                    exit_weights,
                    store,
                )?;
            }
        } else {
            let net_ref: &MultiExitNetwork = network;
            let results: Vec<Result<()>> = std::thread::scope(|scope| {
                let handles: Vec<_> = samples
                    .chunks(shard_len)
                    .zip(self.stores.chunks_mut(shard_len))
                    .zip(self.losses.chunks_mut(shard_len))
                    .zip(plans.iter_mut())
                    .enumerate()
                    .map(|(worker, (((shard, stores), losses), plan))| {
                        let handle = scope.spawn(move || -> Result<()> {
                            for ((sample, store), loss) in shard.iter().zip(stores).zip(losses) {
                                *loss = plan.backward_into_store(
                                    net_ref,
                                    &sample.image,
                                    sample.label,
                                    exit_weights,
                                    store,
                                )?;
                            }
                            Ok(())
                        });
                        (worker, shard.len(), handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(worker, len, handle)| match handle.join() {
                        Ok(result) => result,
                        Err(payload) => Err(NnError::WorkerPanic {
                            worker,
                            shard_start: worker * shard_len,
                            shard_len: len,
                            message: panic_message(payload.as_ref()),
                        }),
                    })
                    .collect()
            });
            for result in results {
                result?;
            }
        }
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
    let mut history = Vec::with_capacity(config.epochs);
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
        let plan = pool.take(&net, None).unwrap();
        assert!(plan.is_compatible(&net));
        pool.put(plan);
        assert_eq!(pool.len(), 1);
        let again = pool.take(&net, None).unwrap();
        assert!(pool.is_empty(), "the pooled plan was handed back out");
        pool.put(again);
        // A fake-quant request does not match the plain pooled plan.
        let n = net.architecture().compressible_layers().len();
        let cfg = crate::quant::QuantConfig::from_layers(vec![None; n]);
        let fq = pool.take(&net, Some(&cfg)).unwrap();
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

        // Arch A: conv depth 18 (padded 32) over 4x4 positions -> patch
        // scratch 512; act capacity 128, col capacity 288.
        let arch_a = ArchitectureBuilder::new([2, 6, 6], 3)
            .conv("c", 8, 3, 1, 0)
            .relu()
            .begin_branch()
            .flatten()
            .dense("d", 3)
            .end_exit()
            .build()
            .unwrap();
        // Arch B: conv depth 8 (padded 16) over 6x6 positions -> patch
        // scratch 576 (> A's 512) while act (108) and col (288) both fit A's
        // f32 capacities — exactly the case the f32-side compatibility check
        // cannot see.
        let arch_b = ArchitectureBuilder::new([2, 7, 7], 3)
            .conv("c", 3, 2, 1, 0)
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
        // ...but the integer patch scratch does not, so repacking must be
        // refused instead of overrunning `rows16` mid-forward.
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
        assert_eq!(classify_thread_override(Some("4")), ThreadOverride::Threads(4));
        assert_eq!(classify_thread_override(Some(" 2 ")), ThreadOverride::Threads(2));
        assert_eq!(classify_thread_override(None), ThreadOverride::Unset);
        // `0` is rejected explicitly, with its own reason — a zero-thread
        // evaluation cannot make progress.
        assert_eq!(
            classify_thread_override(Some("0")),
            ThreadOverride::Invalid {
                value: "0".into(),
                reason: "thread count must be at least 1"
            }
        );
        for bad in ["-1", "lots", "", "4.5"] {
            assert!(
                matches!(
                    classify_thread_override(Some(bad)),
                    ThreadOverride::Invalid { ref value, reason: "not a positive integer" }
                        if value == bad
                ),
                "{bad:?} must classify as invalid"
            );
        }
        assert!(eval_threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_surfaces_as_an_error_naming_the_shard() {
        // Drive a panicking shard closure through the production join path:
        // the panic must come back as `NnError::WorkerPanic`, not abort.
        let data = SyntheticDataset::generate(2, 8, 20, 0.1, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let net = MultiExitNetwork::from_architecture(&tiny_multi_exit(2), &mut rng).unwrap();
        let mut pool = BatchPlanPool::new();
        let plans = pool.ensure(&net, 4, 3);
        let samples = &data.train()[..12];
        let results = super::join_sharded(samples, plans, |shard, _plan| {
            if std::ptr::eq(&shard[0], &samples[4]) {
                panic!("injected shard failure");
            }
            Ok(vec![shard.len(), 0])
        });
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
        let plan = pool.take(&net, 4);
        assert!(plan.is_compatible(&net) && plan.max_batch() >= 4);
        assert!(pool.is_empty());
        pool.put(plan);
        assert_eq!(pool.len(), 1);
        // A compatible request reuses the pooled plan instead of building.
        let again = pool.take(&net, 4);
        assert!(pool.is_empty(), "the pooled plan was handed back out");
        pool.put(again);
        // An incompatible request leaves the pooled plan alone.
        let other = MultiExitNetwork::from_architecture(&tiny_multi_exit(4), &mut rng).unwrap();
        let fresh = pool.take(&other, 4);
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
    }
}

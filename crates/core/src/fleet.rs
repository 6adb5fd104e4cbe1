//! Fleet-scale intermittent simulation: thousands-to-millions of
//! heterogeneous virtual devices advanced in parallel on one box.
//!
//! The paper evaluates one MSP432 against one solar trace; a production
//! deployment is a *population* of devices with mixed energy environments
//! (solar windows, kinetic bursts, stochastic RF-like arrivals), capacitor
//! sizes, harvest rates, exit policies and fault exposure, whose aggregate
//! completion/exit-depth behaviour is the metric that matters. This module
//! provides that population:
//!
//! * [`DeviceSpec::derive`] — every device's heterogeneity is *derived*, not
//!   stored: a hierarchical RNG fork ([`ie_energy::fork_seed`]) under one
//!   master seed, at path `[device_id, purpose]`, yields the device's spec,
//!   trace, event arrivals, correctness draws and fault schedule as
//!   independent streams. A device's behaviour therefore depends only on
//!   `(master seed, device id)` — never on the worker that ran it or on how
//!   many other devices exist — which is what makes single-device extraction
//!   replay bit-identical ([`FleetSimulator::replay_device`]).
//! * [`FleetSimulator::run`] — shards the device-id range contiguously
//!   across workers through the shard loop the evaluators and the trainer
//!   share ([`ie_nn::train::run_sharded`]) and streams every device into a
//!   fixed-size [`FleetAccumulator`], so memory stays flat no matter how
//!   many devices run.
//! * [`FleetAccumulator`] — a mergeable, order-invariant aggregate: all
//!   counters are integers (energies in nanojoules, latencies in
//!   microseconds) and the merge is commutative and associative, so the
//!   aggregate — and its serialized JSON — is byte-identical for any worker
//!   count and any device ordering. Percentiles come from fixed log-binned
//!   histograms; per-device digests fold into order-insensitive XOR/sum
//!   combiners.
//!
//! See DESIGN.md, "Fleet simulation", for the determinism contract.

use crate::metrics::{EventOutcome, RecoveryStats};
use crate::policies::{FixedExitPolicy, GreedyAffordablePolicy, ReserveMarginPolicy};
use crate::replay::Device;
use crate::{CoreError, DeployedModel, ExitPolicy, Result, MAX_DURATION_S, MAX_EVENTS};
use ie_energy::{
    fork_rng, fork_seed, wrap_time, EnergyStorage, EventDistribution, EventGenerator,
    HarvestSimulator, KineticBurstTrace, PowerTrace, SolarTrace, SolarTraceBuilder,
    StochasticArrivalTrace,
};
use ie_mcu::{FaultInjector, FaultPlan};
use ie_nn::train::{run_sharded, MAX_WORKERS};
use rand::Rng;

/// Purpose component of a device's fork path: the spec (heterogeneity) draws.
const PURPOSE_SPEC: u64 = 0;
/// Purpose component: the power-trace synthesis stream.
const PURPOSE_TRACE: u64 = 1;
/// Purpose component: the event-arrival stream.
const PURPOSE_EVENTS: u64 = 2;
/// Purpose component: the correctness/confidence draws.
const PURPOSE_SIM: u64 = 3;
/// Purpose component: the fault-injection schedule.
const PURPOSE_FAULT: u64 = 4;

/// Length of the diurnal solar day a device's window is cut from, seconds.
const DAY_S: f64 = 24.0 * 3600.0;

/// Fixed number of exit slots in the accumulator (covers any model the repo
/// builds; unused slots stay zero).
pub const EXIT_SLOTS: usize = 8;

/// Number of log-spaced bins in the energy/latency histograms.
pub const HIST_BINS: usize = 48;

/// Every device offers a result whose confidence falls below this a
/// continuation to the next exit.
const CONTINUATION_THRESHOLD: f64 = 0.55;

/// log10 range of the per-event energy histogram, in millijoules.
const ENERGY_LOG10_RANGE: (f64, f64) = (-3.0, 2.0);
/// log10 range of the per-event latency histogram, in seconds.
const LATENCY_LOG10_RANGE: (f64, f64) = (-4.0, 3.0);

/// Worker-thread count for the fleet simulator: `IE_FLEET_THREADS` via the
/// shared [`ie_nn::train::threads_from_env`] helper. Like the other thread
/// knobs this never changes results — the fleet aggregate is byte-identical
/// for every worker count — it only changes throughput.
pub fn fleet_threads() -> usize {
    ie_nn::train::threads_from_env("IE_FLEET_THREADS")
}

/// Configuration of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of virtual devices (ids `0..num_devices`).
    pub num_devices: u64,
    /// Master seed every per-device stream is forked from.
    pub master_seed: u64,
    /// Events each device must classify over its window.
    pub events_per_device: usize,
    /// Simulated duration of each device's window, seconds.
    pub device_duration_s: f64,
    /// Fraction of devices that carry a random fault plan, in `[0, 1]`.
    pub fault_fraction: f64,
    /// Worker threads, in `1..=`[`MAX_WORKERS`] (see [`fleet_threads`] for
    /// the env-driven default).
    pub threads: usize,
    /// Optional device id whose in-fleet outcome is captured in the report,
    /// so an isolated [`FleetSimulator::replay_device`] can be checked
    /// against it digest-for-digest.
    pub probe_device: Option<u64>,
}

impl FleetConfig {
    /// A fleet of `num_devices` devices under `master_seed` with the default
    /// window: 24 events over a 30-minute window, a quarter of the fleet
    /// fault-exposed, and the `IE_FLEET_THREADS`-driven worker count.
    pub fn new(num_devices: u64, master_seed: u64) -> Self {
        FleetConfig {
            num_devices,
            master_seed,
            events_per_device: 24,
            device_duration_s: 1800.0,
            fault_fraction: 0.25,
            threads: fleet_threads(),
            probe_device: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty fleet, a zero
    /// event count or worker count, more than [`MAX_EVENTS`] events per
    /// device or [`MAX_WORKERS`] workers, a window that is not positive and
    /// finite or is longer than [`MAX_DURATION_S`], a fault fraction outside
    /// `[0, 1]`, or a probe id outside the fleet.
    pub fn validate(&self) -> Result<()> {
        if self.num_devices == 0 {
            return Err(CoreError::InvalidConfig("fleet needs at least one device".into()));
        }
        if self.events_per_device == 0 {
            return Err(CoreError::InvalidConfig("devices need at least one event".into()));
        }
        if self.events_per_device > MAX_EVENTS {
            return Err(CoreError::InvalidConfig(format!(
                "events_per_device must be at most {MAX_EVENTS}, got {}",
                self.events_per_device
            )));
        }
        if !(self.device_duration_s.is_finite() && self.device_duration_s > 0.0) {
            return Err(CoreError::InvalidConfig(
                "device window must be positive and finite".into(),
            ));
        }
        if self.device_duration_s > MAX_DURATION_S {
            return Err(CoreError::InvalidConfig(format!(
                "device_duration_s must be at most {MAX_DURATION_S} s (366 days), got {}",
                self.device_duration_s
            )));
        }
        if !(0.0..=1.0).contains(&self.fault_fraction) {
            return Err(CoreError::InvalidConfig("fault fraction must be in [0, 1]".into()));
        }
        if self.threads == 0 {
            return Err(CoreError::InvalidConfig("fleet needs at least one worker".into()));
        }
        if self.threads > MAX_WORKERS {
            return Err(CoreError::InvalidConfig(format!(
                "{} workers exceed the maximum of {MAX_WORKERS}",
                self.threads
            )));
        }
        if let Some(probe) = self.probe_device {
            if probe >= self.num_devices {
                return Err(CoreError::InvalidConfig(format!(
                    "probe device {probe} outside fleet of {}",
                    self.num_devices
                )));
            }
        }
        Ok(())
    }
}

/// The energy environment a device harvests from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A daylight window of the diurnal solar trace.
    Solar,
    /// Kinetic bursts (e.g. footsteps on a wearable).
    Kinetic,
    /// Stochastic packet arrivals (ambient RF / wireless power transfer).
    Stochastic,
}

/// The exit policy a device runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Deepest affordable exit.
    Greedy,
    /// Always the same exit (clamped to the deployed model's exit count).
    Fixed(usize),
    /// Greedy over the energy above a reserve margin.
    Reserve(f64),
}

/// One device's derived heterogeneity. Everything here is a pure function of
/// `(master seed, device id, fault fraction)` — see [`DeviceSpec::derive`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// The device's id (also its fork-path component).
    pub device_id: u64,
    /// Energy environment.
    pub trace_kind: TraceKind,
    /// Capacitor capacity, millijoules.
    pub capacity_mj: f64,
    /// Initial charge as a fraction of capacity.
    pub initial_fraction: f64,
    /// Multiplier on the environment's harvested power.
    pub harvest_scale: f64,
    /// Charging efficiency, in `(0, 1]`.
    pub charge_efficiency: f64,
    /// Where in the day a solar device's window falls, as a fraction of 24 h
    /// (ignored by the other trace kinds).
    pub solar_offset_fraction: f64,
    /// Exit policy.
    pub policy: PolicyKind,
    /// How the device's events arrive.
    pub event_distribution: EventDistribution,
    /// Random fault plan: `(cut probability, max cuts)` under the device's
    /// fault stream, or `None` for the fault-free majority.
    pub fault: Option<(f64, u64)>,
}

impl DeviceSpec {
    /// Derives device `device_id`'s spec from the fleet configuration by
    /// drawing every field, in a fixed order, from the device's spec stream
    /// (fork path `[device_id, PURPOSE_SPEC]`).
    pub fn derive(config: &FleetConfig, device_id: u64) -> DeviceSpec {
        let mut rng = fork_rng(config.master_seed, &[device_id, PURPOSE_SPEC]);
        // Every field is drawn unconditionally so the draw schedule is
        // identical for all devices — no field's value shifts another's.
        let trace_roll = rng.gen_range(0..3u32);
        let capacity_mj = 2.0 + 28.0 * rng.gen::<f64>();
        let initial_fraction = 0.5 * rng.gen::<f64>();
        let harvest_scale = 0.25 + 1.75 * rng.gen::<f64>();
        let charge_efficiency = 0.6 + 0.35 * rng.gen::<f64>();
        let solar_offset_fraction = 0.25 + 0.4 * rng.gen::<f64>();
        let policy_roll = rng.gen_range(0..3u32);
        let fixed_exit = rng.gen_range(0..EXIT_SLOTS);
        let reserve_fraction = 0.1 + 0.5 * rng.gen::<f64>();
        let distribution_roll = rng.gen_range(0..3u32);
        let cluster_center = 0.2 + 0.6 * rng.gen::<f64>();
        let cluster_spread = 0.05 + 0.15 * rng.gen::<f64>();
        let fault_roll = rng.gen::<f64>();
        let cut_probability = 0.05 + 0.2 * rng.gen::<f64>();

        DeviceSpec {
            device_id,
            trace_kind: match trace_roll {
                0 => TraceKind::Solar,
                1 => TraceKind::Kinetic,
                _ => TraceKind::Stochastic,
            },
            capacity_mj,
            initial_fraction,
            harvest_scale,
            charge_efficiency,
            solar_offset_fraction,
            policy: match policy_roll {
                0 => PolicyKind::Greedy,
                1 => PolicyKind::Fixed(fixed_exit),
                _ => PolicyKind::Reserve(reserve_fraction),
            },
            event_distribution: match distribution_roll {
                0 => EventDistribution::Uniform,
                1 => EventDistribution::Poisson,
                _ => EventDistribution::Clustered {
                    center_fraction: cluster_center,
                    spread_fraction: cluster_spread,
                },
            },
            fault: (fault_roll < config.fault_fraction).then_some((cut_probability, 16)),
        }
    }
}

/// A daylight slice of a full-day solar trace: the device's short window
/// maps onto `[offset, offset + window)` of the day, so a 30-minute fleet
/// window can sample midday sun instead of the midnight start of the raw
/// diurnal profile. Only the minutes the window reads are built.
#[derive(Debug)]
struct WindowedTrace {
    /// The day's samples from `first_minute` on.
    minutes: Vec<f64>,
    first_minute: usize,
    /// Samples in the whole day, which [`SolarTrace::minute_index`] clamps to.
    day_minutes: usize,
    offset_s: f64,
    window_s: f64,
}

impl WindowedTrace {
    /// Windows the day `day` builds. A window that ends before midnight
    /// reads only the minutes from its start's to its end's: a time in
    /// `[0, window]` maps to `offset` plus at most `window`, and the minute
    /// index never falls as the time grows within the day. A window that
    /// reaches midnight wraps onto the morning, so it builds the whole day.
    fn new(day: SolarTraceBuilder, offset_s: f64, window_s: f64) -> Self {
        let day_minutes = day.minute_count();
        let read = if offset_s >= 0.0 && offset_s + window_s < DAY_S {
            let minute = |t_s| SolarTrace::minute_index(t_s, DAY_S, day_minutes);
            minute(offset_s)..minute(offset_s + window_s) + 1
        } else {
            0..day_minutes
        };
        WindowedTrace {
            first_minute: read.start,
            minutes: day.build_minutes(read),
            day_minutes,
            offset_s,
            window_s,
        }
    }
}

impl PowerTrace for WindowedTrace {
    fn power_mw(&self, t_s: f64) -> f64 {
        // Every finite time lands in the kept minutes (see `new`); the
        // harvester only asks for finite ones.
        let t = self.offset_s + wrap_time(t_s, self.window_s);
        self.minutes[SolarTrace::minute_index(t, DAY_S, self.day_minutes) - self.first_minute]
    }

    fn duration_s(&self) -> f64 {
        self.window_s
    }
}

/// Summary of one simulated device, used for extraction replay: the digest
/// folds, per event, whether it was processed, whether it was correct, and
/// the bits of its energy. Two runs agree on the digest only if every event
/// agreed on those three; the exit and the latency are not folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceOutcome {
    /// The device's id.
    pub device_id: u64,
    /// Order-sensitive fold of every event's processed and correct flags and
    /// energy bits.
    pub digest: u64,
    /// Events the device saw.
    pub events: u64,
    /// Events that produced a result.
    pub processed: u64,
    /// Events classified correctly.
    pub correct: u64,
    /// Energy drawn for inference, nanojoules.
    pub consumed_nj: u64,
}

/// Fixed-size, mergeable aggregate of a fleet run.
///
/// Every field is an integer (energies rounded to nanojoules, latencies to
/// microseconds) and [`FleetAccumulator::merge`] uses only commutative,
/// associative operations, so the aggregate is exactly invariant under
/// worker count and device ordering — the property the CI
/// `fleet-determinism` job diffs for and `fleet_proptests` quantify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAccumulator {
    /// Devices absorbed.
    pub devices: u64,
    /// Events across all devices.
    pub total_events: u64,
    /// Events that produced a result.
    pub processed_events: u64,
    /// Events missed for lack of energy.
    pub missed_events: u64,
    /// Events classified correctly.
    pub correct_events: u64,
    /// Events that used an incremental continuation.
    pub incremental_events: u64,
    /// Final-exit counts (fixed [`EXIT_SLOTS`] slots).
    pub exit_counts: [u64; EXIT_SLOTS],
    /// Reboots recovered after an injected cut.
    pub recovered_boots: u64,
    /// Checkpoint writes torn by an injected cut.
    pub torn_writes: u64,
    /// Energy destroyed by cuts and re-executed, nanojoules.
    pub wasted_nj: u64,
    /// Energy drawn for inference, nanojoules.
    pub consumed_nj: u64,
    /// Log-binned per-event energy histogram (millijoule decades, see
    /// [`FleetAccumulator::energy_percentile_mj`]).
    pub energy_hist: [u64; HIST_BINS],
    /// Log-binned per-event latency histogram (second decades).
    pub latency_hist: [u64; HIST_BINS],
    /// XOR of per-device digests (order-insensitive).
    pub digest_xor: u64,
    /// Wrapping sum of per-device digests (order-insensitive, catches the
    /// pairs XOR cancels).
    pub digest_sum: u64,
}

impl Default for FleetAccumulator {
    fn default() -> Self {
        FleetAccumulator {
            devices: 0,
            total_events: 0,
            processed_events: 0,
            missed_events: 0,
            correct_events: 0,
            incremental_events: 0,
            exit_counts: [0; EXIT_SLOTS],
            recovered_boots: 0,
            torn_writes: 0,
            wasted_nj: 0,
            consumed_nj: 0,
            energy_hist: [0; HIST_BINS],
            latency_hist: [0; HIST_BINS],
            digest_xor: 0,
            digest_sum: 0,
        }
    }
}

/// Rounds millijoules to integer nanojoules (the accumulator's exact unit).
fn mj_to_nj(mj: f64) -> u64 {
    (mj.max(0.0) * 1e6).round() as u64
}

/// Log-bin index of `value` over the given log10 range.
fn log_bin(value: f64, (lo, hi): (f64, f64)) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let x = (value.log10() - lo) / (hi - lo) * HIST_BINS as f64;
    (x.floor().max(0.0) as usize).min(HIST_BINS - 1)
}

/// Geometric midpoint of bin `idx` over the given log10 range.
fn bin_value(idx: usize, (lo, hi): (f64, f64)) -> f64 {
    10f64.powf(lo + (idx as f64 + 0.5) * (hi - lo) / HIST_BINS as f64)
}

/// Value at quantile `q` of a log-binned histogram.
fn hist_percentile(hist: &[u64; HIST_BINS], q: f64, range: (f64, f64)) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (idx, &count) in hist.iter().enumerate() {
        cumulative += count;
        if cumulative >= target {
            return bin_value(idx, range);
        }
    }
    bin_value(HIST_BINS - 1, range)
}

impl FleetAccumulator {
    /// Merges another accumulator into this one. Commutative and
    /// associative: merging worker shards in any order yields bit-identical
    /// aggregates.
    pub fn merge(&mut self, other: &FleetAccumulator) {
        self.devices += other.devices;
        self.total_events += other.total_events;
        self.processed_events += other.processed_events;
        self.missed_events += other.missed_events;
        self.correct_events += other.correct_events;
        self.incremental_events += other.incremental_events;
        for (mine, theirs) in self.exit_counts.iter_mut().zip(&other.exit_counts) {
            *mine += theirs;
        }
        self.recovered_boots += other.recovered_boots;
        self.torn_writes += other.torn_writes;
        self.wasted_nj += other.wasted_nj;
        self.consumed_nj += other.consumed_nj;
        for (mine, theirs) in self.energy_hist.iter_mut().zip(&other.energy_hist) {
            *mine += theirs;
        }
        for (mine, theirs) in self.latency_hist.iter_mut().zip(&other.latency_hist) {
            *mine += theirs;
        }
        self.digest_xor ^= other.digest_xor;
        self.digest_sum = self.digest_sum.wrapping_add(other.digest_sum);
    }

    /// Folds one device's digest into the order-insensitive combiners.
    fn absorb_digest(&mut self, digest: u64) {
        self.digest_xor ^= digest;
        self.digest_sum = self.digest_sum.wrapping_add(digest);
    }

    /// Fraction of all events that produced a result.
    pub fn completion_rate(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.processed_events as f64 / self.total_events as f64
        }
    }

    /// Accuracy over all events (missed events count as wrong) — the fleet
    /// analogue of the paper's IEpmJ-equivalent metric.
    pub fn accuracy_all_events(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.correct_events as f64 / self.total_events as f64
        }
    }

    /// Per-processed-event energy at quantile `q`, millijoules (log-binned
    /// histogram resolution).
    pub fn energy_percentile_mj(&self, q: f64) -> f64 {
        hist_percentile(&self.energy_hist, q, ENERGY_LOG10_RANGE)
    }

    /// Per-processed-event latency at quantile `q`, seconds (log-binned
    /// histogram resolution).
    pub fn latency_percentile_s(&self, q: f64) -> f64 {
        hist_percentile(&self.latency_hist, q, LATENCY_LOG10_RANGE)
    }

    /// Mean energy per processed event, millijoules.
    pub fn mean_energy_per_inference_mj(&self) -> f64 {
        if self.processed_events == 0 {
            0.0
        } else {
            self.consumed_nj as f64 / 1e6 / self.processed_events as f64
        }
    }

    /// The recovery totals as the shared [`RecoveryStats`] shape.
    pub fn recovery(&self) -> RecoveryStats {
        RecoveryStats {
            recovered_boots: self.recovered_boots,
            torn_writes: self.torn_writes,
            wasted_reexecution_mj: self.wasted_nj as f64 / 1e6,
        }
    }

    /// Serializes the aggregate metrics as deterministic JSON: fixed field
    /// order, integer counters, and derived ratios computed from the merged
    /// integers — byte-identical for any worker count and device ordering.
    /// Deliberately excludes the worker count and any wall-clock time so the
    /// CI determinism job can diff outputs across thread counts.
    pub fn to_json(&self) -> String {
        let exits: Vec<String> = self.exit_counts.iter().map(|c| c.to_string()).collect();
        format!(
            concat!(
                "{{\n",
                "  \"devices\": {},\n",
                "  \"total_events\": {},\n",
                "  \"processed_events\": {},\n",
                "  \"missed_events\": {},\n",
                "  \"correct_events\": {},\n",
                "  \"incremental_events\": {},\n",
                "  \"completion_rate\": {:.9},\n",
                "  \"accuracy_all_events\": {:.9},\n",
                "  \"exit_counts\": [{}],\n",
                "  \"recovered_boots\": {},\n",
                "  \"torn_writes\": {},\n",
                "  \"wasted_reexecution_mj\": {:.6},\n",
                "  \"consumed_mj\": {:.6},\n",
                "  \"mean_energy_per_inference_mj\": {:.9},\n",
                "  \"energy_p50_mj\": {:.9},\n",
                "  \"energy_p90_mj\": {:.9},\n",
                "  \"energy_p99_mj\": {:.9},\n",
                "  \"latency_p50_s\": {:.9},\n",
                "  \"latency_p90_s\": {:.9},\n",
                "  \"latency_p99_s\": {:.9},\n",
                "  \"digest_xor\": \"{:016x}\",\n",
                "  \"digest_sum\": \"{:016x}\"\n",
                "}}\n"
            ),
            self.devices,
            self.total_events,
            self.processed_events,
            self.missed_events,
            self.correct_events,
            self.incremental_events,
            self.completion_rate(),
            self.accuracy_all_events(),
            exits.join(", "),
            self.recovered_boots,
            self.torn_writes,
            self.wasted_nj as f64 / 1e6,
            self.consumed_nj as f64 / 1e6,
            self.mean_energy_per_inference_mj(),
            self.energy_percentile_mj(0.50),
            self.energy_percentile_mj(0.90),
            self.energy_percentile_mj(0.99),
            self.latency_percentile_s(0.50),
            self.latency_percentile_s(0.90),
            self.latency_percentile_s(0.99),
            self.digest_xor,
            self.digest_sum,
        )
    }
}

/// Everything a fleet run produced: the merged aggregate plus, when a probe
/// device was configured, that device's in-fleet outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The merged, order-invariant aggregate.
    pub metrics: FleetAccumulator,
    /// The probe device's in-fleet outcome (see [`FleetConfig::probe_device`]).
    pub probe: Option<DeviceOutcome>,
}

/// Advances a fleet of heterogeneous virtual devices against one deployed
/// model, in parallel, with byte-identical aggregates at any worker count.
///
/// # Example
///
/// ```
/// use ie_core::fleet::{FleetConfig, FleetSimulator};
/// use ie_core::{DeployedModel, ExperimentConfig};
///
/// let model = DeployedModel::uncompressed_reference(&ExperimentConfig::paper_default())?;
/// let mut config = FleetConfig::new(64, 2026);
/// config.threads = 2;
/// let report = FleetSimulator::new(&config).run(&model)?;
/// assert_eq!(report.metrics.devices, 64);
/// # Ok::<(), ie_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetSimulator {
    config: FleetConfig,
}

impl FleetSimulator {
    /// Creates a simulator for the given fleet configuration.
    pub fn new(config: &FleetConfig) -> Self {
        FleetSimulator { config: config.clone() }
    }

    /// Runs the whole fleet, sharding contiguous device-id ranges across
    /// `config.threads` workers through the shared shard loop
    /// ([`ie_nn::train::run_sharded`]; one worker runs inline). Each worker
    /// streams its devices into a private [`FleetAccumulator`], and the
    /// shards are merged in shard order. Because per-device streams are
    /// forked from the master seed and the merge is order-invariant, the
    /// report is bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration or
    /// a malformed model ([`DeployedModel::validate`]), propagates any
    /// per-device simulation error, and returns [`CoreError::Nn`] wrapping
    /// [`ie_nn::NnError::WorkerPanic`] when a worker panics.
    pub fn run(&self, model: &DeployedModel) -> Result<FleetReport> {
        self.config.validate()?;
        let devices = usize::try_from(self.config.num_devices)
            .map_err(|_| CoreError::InvalidConfig("fleet larger than the address space".into()))?;
        let shard_len = devices.div_ceil(self.config.threads.clamp(1, devices));
        let mut metrics = FleetAccumulator::default();
        let mut probe = None;
        run_sharded(
            devices,
            shard_len,
            std::iter::repeat(()),
            |range, ()| -> Result<(FleetAccumulator, Option<DeviceOutcome>)> {
                let mut acc = FleetAccumulator::default();
                let mut probe = None;
                for device_id in range.start as u64..range.end as u64 {
                    let outcome = self.simulate_device_into(model, device_id, &mut acc)?;
                    if self.config.probe_device == Some(device_id) {
                        probe = Some(outcome);
                    }
                }
                Ok((acc, probe))
            },
            |shard| {
                let (shard_acc, shard_probe) = shard?;
                metrics.merge(&shard_acc);
                probe = probe.or(shard_probe);
                Ok(())
            },
        )?;
        Ok(FleetReport { metrics, probe })
    }

    /// Replays one device in complete isolation — same code path as the
    /// in-fleet run, against a throwaway accumulator — and returns its
    /// outcome. The extraction contract: this digest equals the in-fleet
    /// digest of the same device, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration or
    /// a malformed model (as [`Self::run`] does) or an id outside the fleet,
    /// and propagates simulation errors.
    pub fn replay_device(&self, model: &DeployedModel, device_id: u64) -> Result<DeviceOutcome> {
        if device_id >= self.config.num_devices {
            return Err(CoreError::InvalidConfig(format!(
                "device {device_id} outside fleet of {}",
                self.config.num_devices
            )));
        }
        let mut scratch = FleetAccumulator::default();
        self.simulate_device_into(model, device_id, &mut scratch)
    }

    /// Builds the device's power trace from its spec (trace stream fork).
    fn build_trace(&self, spec: &DeviceSpec) -> Box<dyn PowerTrace> {
        let seed = fork_seed(self.config.master_seed, &[spec.device_id, PURPOSE_TRACE]);
        let duration = self.config.device_duration_s;
        match spec.trace_kind {
            TraceKind::Solar => {
                // A full-day diurnal profile, windowed onto the daytime slice
                // the spec chose — a short fleet window would otherwise always
                // start at midnight and harvest nothing.
                let day = SolarTrace::builder()
                    .seed(seed)
                    .peak_power_mw(0.02 * spec.harvest_scale)
                    .duration_s(DAY_S);
                Box::new(WindowedTrace::new(
                    day,
                    spec.solar_offset_fraction * 24.0 * 3600.0,
                    duration,
                ))
            }
            TraceKind::Kinetic => {
                Box::new(KineticBurstTrace::new(duration, 0.02, 0.4 * spec.harvest_scale, seed))
            }
            TraceKind::Stochastic => Box::new(StochasticArrivalTrace::new(
                duration,
                120.0,
                0.5 * spec.harvest_scale,
                3.0,
                seed,
            )),
        }
    }

    /// Simulates one device and streams its events into `acc`. This single
    /// function is used both by the fleet workers and by
    /// [`Self::replay_device`], so in-fleet and isolated behaviour cannot
    /// diverge structurally. The device runs the replay loop and inference
    /// step of [`crate::EventLoopSimulator`], one event per wake-up.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration
    /// ([`FleetConfig::validate`]) or a malformed model
    /// ([`DeployedModel::validate`]), before building anything, and
    /// propagates energy-accounting errors (which indicate a bug — every draw
    /// is affordability-checked first).
    pub fn simulate_device_into(
        &self,
        model: &DeployedModel,
        device_id: u64,
        acc: &mut FleetAccumulator,
    ) -> Result<DeviceOutcome> {
        self.config.validate()?;
        model.validate()?;
        let master = self.config.master_seed;
        let spec = DeviceSpec::derive(&self.config, device_id);
        let storage = EnergyStorage::new(spec.capacity_mj, spec.charge_efficiency)
            .with_initial_level(spec.initial_fraction * spec.capacity_mj);
        let device = Device {
            harvest: HarvestSimulator::new(self.build_trace(&spec), storage),
            events: EventGenerator::new(
                spec.event_distribution,
                fork_seed(master, &[device_id, PURPOSE_EVENTS]),
            )
            .generate(self.config.events_per_device, self.config.device_duration_s),
            rng: fork_rng(master, &[device_id, PURPOSE_SIM]),
            faults: spec
                .fault
                .map(|(p, max_cuts)| {
                    FaultPlan::random(fork_seed(master, &[device_id, PURPOSE_FAULT]), p, max_cuts)
                        .injector()
                })
                .unwrap_or_else(FaultInjector::none),
            continuation_threshold: Some(CONTINUATION_THRESHOLD),
        };
        let num_exits = model.num_exits();
        let mut policy: Box<dyn ExitPolicy> = match spec.policy {
            PolicyKind::Greedy => Box::new(GreedyAffordablePolicy::new()),
            PolicyKind::Fixed(exit) => Box::new(FixedExitPolicy::new(exit.min(num_exits - 1))),
            PolicyKind::Reserve(fraction) => Box::new(ReserveMarginPolicy::new(fraction)),
        };

        let mut outcome = DeviceOutcome {
            device_id,
            digest: fork_seed(master, &[device_id]),
            events: 0,
            processed: 0,
            correct: 0,
            consumed_nj: 0,
        };
        device.replay(model, policy.as_mut(), 1, |record, recovery| {
            acc.recovered_boots += recovery.recovered_boots;
            acc.torn_writes += recovery.torn_writes;
            acc.wasted_nj += mj_to_nj(recovery.wasted_reexecution_mj);
            if let EventOutcome::Processed { exit, incremental, .. } = record.outcome {
                acc.exit_counts[exit.min(EXIT_SLOTS - 1)] += 1;
                acc.incremental_events += u64::from(incremental);
                acc.energy_hist[log_bin(record.energy_mj, ENERGY_LOG10_RANGE)] += 1;
                acc.latency_hist[log_bin(record.latency_s, LATENCY_LOG10_RANGE)] += 1;
            }
            let (processed, correct) = (record.outcome.is_processed(), record.outcome.is_correct());
            outcome.events += 1;
            outcome.processed += u64::from(processed);
            outcome.correct += u64::from(correct);
            outcome.consumed_nj += mj_to_nj(record.energy_mj);
            outcome.digest = fork_seed(
                outcome.digest,
                &[u64::from(processed) | (u64::from(correct) << 1), record.energy_mj.to_bits()],
            );
        })?;

        acc.devices += 1;
        acc.total_events += outcome.events;
        acc.processed_events += outcome.processed;
        acc.missed_events += outcome.events - outcome.processed;
        acc.correct_events += outcome.correct;
        acc.consumed_nj += outcome.consumed_nj;
        acc.absorb_digest(outcome.digest);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use proptest::prelude::*;

    fn model() -> DeployedModel {
        DeployedModel::uncompressed_reference(&ExperimentConfig::paper_default()).unwrap()
    }

    fn small_config() -> FleetConfig {
        let mut c = FleetConfig::new(96, 2026);
        c.threads = 3;
        c
    }

    /// A solar window over the whole day, built in full: the oracle of
    /// [`WindowedTrace`], which builds only the minutes it reads.
    #[derive(Debug)]
    struct FullDayWindow {
        inner: SolarTrace,
        offset_s: f64,
        window_s: f64,
    }

    impl PowerTrace for FullDayWindow {
        fn power_mw(&self, t_s: f64) -> f64 {
            self.inner.power_mw(self.offset_s + wrap_time(t_s, self.window_s))
        }

        fn duration_s(&self) -> f64 {
            self.window_s
        }
    }

    /// A solar device's trace, windowed from the whole day.
    fn full_day_window(config: &FleetConfig, spec: &DeviceSpec) -> FullDayWindow {
        let seed = fork_seed(config.master_seed, &[spec.device_id, PURPOSE_TRACE]);
        FullDayWindow {
            inner: SolarTrace::builder()
                .seed(seed)
                .peak_power_mw(0.02 * spec.harvest_scale)
                .build(),
            offset_s: spec.solar_offset_fraction * 24.0 * 3600.0,
            window_s: config.device_duration_s,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A solar device's trace reads, bit for bit, what the full-day
        /// window reads: the power at every whole second of the window and
        /// at random fractional times (some before it or past its end), and
        /// the energy over random intervals. Windows run from 1 s to about
        /// 3.7 days, so many reach midnight and build the whole day.
        #[test]
        fn solar_windows_match_the_full_day_oracle_bit_for_bit(
            master in any::<u64>(),
            log10_window in 0.0f64..5.5,
            from_device in 0u64..1 << 40,
            times in proptest::collection::vec(-1.0f64..2.0, 64),
        ) {
            let config = FleetConfig {
                device_duration_s: 10f64.powf(log10_window),
                ..FleetConfig::new(1 << 41, master)
            };
            let spec = (from_device..)
                .map(|id| DeviceSpec::derive(&config, id))
                .find(|spec| spec.trace_kind == TraceKind::Solar)
                .expect("about a third of the devices are solar");
            let trace = FleetSimulator::new(&config).build_trace(&spec);
            let oracle = full_day_window(&config, &spec);
            let window = config.device_duration_s;
            prop_assert_eq!(trace.duration_s().to_bits(), window.to_bits());
            let power = |t: f64| (trace.power_mw(t).to_bits(), oracle.power_mw(t).to_bits());
            for second in 0..=window as u64 {
                let (got, want) = power(second as f64);
                prop_assert_eq!(got, want, "second {}", second);
            }
            for &fraction in &times {
                let (got, want) = power(fraction * window);
                prop_assert_eq!(got, want, "t = {}", fraction * window);
            }
            for pair in times.chunks(2).take(8) {
                let t0 = pair[0] * window;
                let t1 = t0 + pair[1].abs().min(1.0) * window.min(20_000.0);
                let (got, want) = (trace.energy_mj(t0, t1), oracle.energy_mj(t0, t1));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "[{}, {}]", t0, t1);
            }
        }
    }

    #[test]
    fn a_solar_window_builds_only_the_minutes_it_reads() {
        let day = || SolarTrace::builder().seed(5);
        // 06:00 to 06:30 reads minutes 360 to 390; 06:00:30 to 06:30:30 too.
        for offset in [21_600.0, 21_630.0] {
            let w = WindowedTrace::new(day(), offset, 1_800.0);
            assert_eq!((w.first_minute, w.minutes.len()), (360, 31));
        }
        // A window that reaches midnight wraps onto the morning.
        for (offset, window) in [(84_600.0, 1_800.0), (56_000.0, 40_000.0), (0.0, 86_400.0)] {
            let w = WindowedTrace::new(day(), offset, window);
            assert_eq!((w.first_minute, w.minutes.len()), (0, 1441));
        }
    }

    #[test]
    fn fleet_accounts_for_every_event_on_every_device() {
        let c = small_config();
        let report = FleetSimulator::new(&c).run(&model()).unwrap();
        let m = &report.metrics;
        assert_eq!(m.devices, c.num_devices);
        assert_eq!(m.total_events, c.num_devices * c.events_per_device as u64);
        assert_eq!(m.processed_events + m.missed_events, m.total_events);
        assert_eq!(m.exit_counts.iter().sum::<u64>(), m.processed_events);
        assert_eq!(m.energy_hist.iter().sum::<u64>(), m.processed_events);
        assert_eq!(m.latency_hist.iter().sum::<u64>(), m.processed_events);
        assert!(m.correct_events <= m.processed_events);
        assert!(m.processed_events > 0, "some devices must afford some events");
        assert!(m.missed_events > 0, "energy must be scarce for someone");
    }

    #[test]
    fn aggregates_are_identical_across_worker_counts() {
        let mut c = small_config();
        c.threads = 1;
        let single = FleetSimulator::new(&c).run(&model()).unwrap();
        for threads in [2usize, 5, 8] {
            c.threads = threads;
            let multi = FleetSimulator::new(&c).run(&model()).unwrap();
            assert_eq!(single.metrics, multi.metrics, "threads={threads}");
            assert_eq!(single.metrics.to_json(), multi.metrics.to_json());
        }
    }

    #[test]
    fn probe_outcome_matches_isolated_replay_bit_for_bit() {
        let mut c = small_config();
        c.probe_device = Some(41);
        let fleet = FleetSimulator::new(&c);
        let report = fleet.run(&model()).unwrap();
        let in_fleet = report.probe.expect("probe device must be captured");
        let replayed = fleet.replay_device(&model(), 41).unwrap();
        assert_eq!(in_fleet, replayed);
        assert_eq!(in_fleet.digest, replayed.digest);
    }

    #[test]
    fn replay_is_independent_of_fleet_size() {
        // Device 7's behaviour depends only on (master seed, id): replaying
        // it from fleets of different sizes gives the same outcome.
        let small = FleetSimulator::new(&FleetConfig::new(8, 99));
        let large = FleetSimulator::new(&FleetConfig::new(4096, 99));
        let a = small.replay_device(&model(), 7).unwrap();
        let b = large.replay_device(&model(), 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn specs_are_heterogeneous_and_deterministic() {
        let c = small_config();
        let specs: Vec<DeviceSpec> =
            (0..c.num_devices).map(|id| DeviceSpec::derive(&c, id)).collect();
        for (id, spec) in specs.iter().enumerate() {
            assert_eq!(spec, &DeviceSpec::derive(&c, id as u64));
            assert!(spec.capacity_mj >= 2.0 && spec.capacity_mj <= 30.0);
            assert!(spec.charge_efficiency > 0.0 && spec.charge_efficiency <= 1.0);
        }
        let kinds: std::collections::HashSet<_> =
            specs.iter().map(|s| format!("{:?}", s.trace_kind)).collect();
        assert_eq!(kinds.len(), 3, "96 devices must cover all trace kinds");
        assert!(specs.iter().any(|s| s.fault.is_some()), "some devices carry fault plans");
        assert!(specs.iter().any(|s| s.fault.is_none()), "most devices are fault-free");
    }

    #[test]
    fn fault_exposed_fleets_record_recovery_activity() {
        let mut c = FleetConfig::new(128, 7);
        c.threads = 2;
        c.fault_fraction = 1.0;
        let faulted = FleetSimulator::new(&c).run(&model()).unwrap();
        assert!(faulted.metrics.recovered_boots > 0, "p≥0.05 cuts over 3072 events must strike");
        c.fault_fraction = 0.0;
        let clean = FleetSimulator::new(&c).run(&model()).unwrap();
        assert_eq!(clean.metrics.recovered_boots, 0);
        assert_eq!(clean.metrics.torn_writes, 0);
        assert_eq!(clean.metrics.wasted_nj, 0);
        assert_eq!(clean.metrics.recovery(), RecoveryStats::default());
    }

    #[test]
    fn fault_streams_never_perturb_fault_free_devices() {
        // Toggling the fleet-wide fault fraction must not change the
        // behaviour of a device that is fault-free either way: its streams
        // are forked per purpose, so the fault schedule is independent.
        let mut with_faults = FleetConfig::new(64, 11);
        with_faults.fault_fraction = 0.5;
        let mut without = with_faults.clone();
        without.fault_fraction = 0.0;
        let sim_with = FleetSimulator::new(&with_faults);
        let sim_without = FleetSimulator::new(&without);
        for id in 0..64 {
            if DeviceSpec::derive(&with_faults, id).fault.is_none() {
                let a = sim_with.replay_device(&model(), id).unwrap();
                let b = sim_without.replay_device(&model(), id).unwrap();
                assert_eq!(a, b, "fault-free device {id} must be unaffected");
            }
        }
    }

    #[test]
    fn different_master_seeds_give_different_fleets() {
        let a = FleetSimulator::new(&FleetConfig::new(32, 1)).run(&model()).unwrap();
        let b = FleetSimulator::new(&FleetConfig::new(32, 2)).run(&model()).unwrap();
        assert_ne!(a.metrics.digest_xor, b.metrics.digest_xor);
    }

    #[test]
    fn merge_is_commutative_and_empty_is_identity() {
        let fleet = FleetSimulator::new(&small_config());
        let m = model();
        let (mut a, mut b) = (FleetAccumulator::default(), FleetAccumulator::default());
        for id in 0..8 {
            fleet.simulate_device_into(&m, id, &mut a).unwrap();
        }
        for id in 8..16 {
            fleet.simulate_device_into(&m, id, &mut b).unwrap();
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut with_empty = ab.clone();
        with_empty.merge(&FleetAccumulator::default());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn percentiles_are_monotone_and_in_range() {
        let report = FleetSimulator::new(&small_config()).run(&model()).unwrap();
        let m = &report.metrics;
        let (p50, p90, p99) = (
            m.energy_percentile_mj(0.50),
            m.energy_percentile_mj(0.90),
            m.energy_percentile_mj(0.99),
        );
        assert!(p50 > 0.0 && p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(
            m.latency_percentile_s(0.50) <= m.latency_percentile_s(0.99),
            "latency percentiles must be monotone"
        );
        assert_eq!(FleetAccumulator::default().energy_percentile_mj(0.5), 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = model();
        let mut c = FleetConfig::new(0, 1);
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        c = FleetConfig::new(4, 1);
        c.threads = 0;
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        // One worker past the bound fails validation before any thread starts.
        c.threads = MAX_WORKERS;
        assert!(c.validate().is_ok());
        c.threads = MAX_WORKERS + 1;
        assert!(matches!(c.validate(), Err(CoreError::InvalidConfig(_))));
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        c = FleetConfig::new(4, 1);
        c.events_per_device = 0;
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        c = FleetConfig::new(4, 1);
        c.fault_fraction = 1.5;
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        c = FleetConfig::new(4, 1);
        c.probe_device = Some(4);
        assert!(FleetSimulator::new(&c).run(&m).is_err());
        assert!(FleetSimulator::new(&FleetConfig::new(4, 1)).replay_device(&m, 99).is_err());
    }

    /// Asserts that a fleet with window `duration_s` fails `validate()`, and
    /// that both the fleet run and a single-device replay reject it instead
    /// of panicking a worker inside the trace constructors.
    fn assert_window_rejected(duration_s: f64) {
        let m = model();
        let config = FleetConfig { device_duration_s: duration_s, ..FleetConfig::new(4, 1) };
        let invalid = |e: Option<CoreError>| matches!(e, Some(CoreError::InvalidConfig(_)));
        assert!(invalid(config.validate().err()));
        let sim = FleetSimulator::new(&config);
        assert!(invalid(sim.run(&m).err()));
        assert!(invalid(sim.replay_device(&m, 0).err()));
    }

    #[test]
    fn infinite_device_window_is_rejected() {
        assert_window_rejected(f64::INFINITY);
    }

    #[test]
    fn nan_device_window_is_rejected() {
        assert_window_rejected(f64::NAN);
    }

    #[test]
    fn device_windows_above_the_bound_are_rejected() {
        let with_window = |d| FleetConfig { device_duration_s: d, ..FleetConfig::new(4, 1) };
        with_window(MAX_DURATION_S).validate().unwrap();
        for duration in [MAX_DURATION_S.next_up(), 1e13, 1e300, f64::MAX] {
            let message = with_window(duration).validate().unwrap_err().to_string();
            assert!(message.contains("device_duration_s") && message.contains("31622400"));
            assert_window_rejected(duration);
        }
    }

    #[test]
    fn a_single_device_refuses_a_config_that_validate_refuses() {
        // perfbench and bench_json drive the devices one by one, not through
        // `run`, so the per-device entry checks the config itself, before it
        // builds a trace or an event list.
        let m = model();
        for n in [MAX_EVENTS + 1, 0] {
            let config = FleetConfig { events_per_device: n, ..FleetConfig::new(4, 1) };
            let mut acc = FleetAccumulator::default();
            let result = FleetSimulator::new(&config).simulate_device_into(&m, 0, &mut acc);
            assert!(matches!(result, Err(CoreError::InvalidConfig(_))), "{n} events: {result:?}");
            assert_eq!(acc, FleetAccumulator::default(), "{n} events reached the accumulator");
        }
    }

    #[test]
    fn event_counts_above_the_bound_are_rejected() {
        let m = model();
        let with_events = |n| FleetConfig { events_per_device: n, ..FleetConfig::new(4, 1) };
        with_events(MAX_EVENTS).validate().unwrap();
        for n in [MAX_EVENTS + 1, 1 << 40, usize::MAX] {
            let config = with_events(n);
            let message = config.validate().unwrap_err().to_string();
            assert!(message.contains("events_per_device") && message.contains("1048576"));
            let sim = FleetSimulator::new(&config);
            assert!(matches!(sim.run(&m), Err(CoreError::InvalidConfig(_))));
            assert!(matches!(sim.replay_device(&m, 0), Err(CoreError::InvalidConfig(_))));
        }
    }

    #[test]
    fn json_is_stable_and_self_consistent() {
        let report = FleetSimulator::new(&small_config()).run(&model()).unwrap();
        let json = report.metrics.to_json();
        assert_eq!(json, report.metrics.to_json());
        assert!(json.contains("\"devices\": 96"));
        assert!(json.contains("\"digest_xor\""));
        assert!(!json.contains("threads"), "worker count must not leak into the aggregate");
    }
}

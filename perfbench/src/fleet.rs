//! `fleet_mixed`: `FleetSimulator::run` over the default heterogeneous
//! population (three trace kinds, three exit policies, a quarter of the
//! devices fault-exposed) at a fixed device count, repeated back to back.
//!
//! The measured runs use one worker. A two-worker run waits for the slower
//! of the host's two vCPUs, and on a shared host the vCPUs slow down
//! independently for minutes at a time: two-worker fleet times swung up to
//! twofold between runs where one-worker times moved far less. The
//! multi-worker fleet is still checked for byte-identical aggregates, and
//! the traced run reports the skew its contiguous shards would have.

use crate::cpu::Cpus;
use crate::stats::{self, median, BenchResult, Measured};
use crate::trace::Tracer;
use ie_bench::experiments::reference_nonuniform_policy;
use ie_core::fleet::{DeviceSpec, FleetAccumulator, TraceKind};
use ie_core::{DeployedModel, ExperimentConfig, FleetConfig, FleetSimulator};
use ie_energy::{
    fork_seed, EnergyStorage, EventGenerator, HarvestSimulator, KineticBurstTrace, PowerTrace,
    SolarTrace, StochasticArrivalTrace,
};
use std::time::Instant;

/// Devices per fleet run.
const DEVICES: u64 = 1024;
/// Workers of the measured fleet runs.
const WORKERS: usize = 1;
/// Devices of the warm-up fleet each set-up runs (the first devices of the
/// measured fleet).
const WARM_UP_DEVICES: u64 = 64;
/// Fleet runs per run at least.
const MIN_RUNS: usize = 5;
/// Fork-path purposes `ie_core::fleet` derives a device's trace and event
/// streams from; the probes rebuild both from the same seeds.
const PURPOSE_TRACE: u64 = 1;
const PURPOSE_EVENTS: u64 = 2;

/// Seeds derived from the run seed.
pub fn seeds(seed: u64) -> Vec<(&'static str, u64)> {
    vec![("master_seed", seed), ("probe_device", seed % DEVICES)]
}

struct Fixture {
    model: DeployedModel,
    config: FleetConfig,
}

fn setup(seed: u64) -> BenchResult<Fixture> {
    let experiment = ExperimentConfig::paper_default();
    let policy = reference_nonuniform_policy(&experiment.architecture.compressible_layers());
    let model = DeployedModel::from_policy(&experiment, &policy)?;
    let mut config = FleetConfig::new(DEVICES, seed);
    config.threads = WORKERS;
    config.probe_device = Some(seed % DEVICES);
    let warm_up =
        FleetConfig { num_devices: WARM_UP_DEVICES, probe_device: None, ..config.clone() };
    FleetSimulator::new(&warm_up).run(&model)?;
    Ok(Fixture { model, config })
}

/// Runs the workload; `shards` is the worker count the determinism check
/// and the shard-skew probe compare against.
pub fn run(seed: u64, seconds: f64, shards: usize, tracer: &mut Tracer) -> BenchResult<Measured> {
    let mut setups = stats::Setups::new(seconds, || setup(seed));
    let fx = setups.run()?;
    let sim = FleetSimulator::new(&fx.config);
    let mut out = Measured::default();

    // Each fleet run is pinned to the next CPU in turn (its worker inherits
    // the mask), so the fast decile samples every CPU.
    let cpus = Cpus::allowed()?;
    let mut times = Vec::new();
    let mut first = None;
    let mut agree = true;
    let started = Instant::now();
    while times.len() < MIN_RUNS || started.elapsed().as_secs_f64() < seconds {
        let id = times.len() as u64;
        cpus.pin(times.len())?;
        let start = Instant::now();
        let report = tracer.span("core.fleet.run", id, |_| sim.run(&fx.model))?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() == MIN_RUNS {
            out.peak_rss_mb = stats::peak_rss_mb()?;
        }
        match &first {
            None => first = Some(report),
            Some(f) => agree &= *f == report,
        }
        setups.between_operations(started.elapsed().as_secs_f64())?;
    }
    out.loop_s = started.elapsed().as_secs_f64();
    cpus.unpin()?;
    let report = first.expect("at least one fleet run");
    let metrics = &report.metrics;

    out.attempted = DEVICES * times.len() as u64;
    out.check(agree, "repeated fleet runs from one seed disagree");
    let probe_id = seed % DEVICES;
    let replayed = sim.replay_device(&fx.model, probe_id)?;
    out.check(
        report.probe.is_some_and(|p| p.digest == replayed.digest),
        format!("device {probe_id} replays differently from its in-fleet run"),
    );
    let mut sharded = fx.config.clone();
    sharded.threads = shards;
    out.check(
        FleetSimulator::new(&sharded).run(&fx.model)?.metrics == *metrics,
        format!("the {shards}-worker fleet disagrees with the {WORKERS}-worker fleet"),
    );
    out.note(format!(
        "fleet runs {} of {DEVICES} devices on {WORKERS} worker | aggregate digest {:016x}/{:016x} \
         | accuracy_all_events {}",
        times.len(),
        metrics.digest_xor,
        metrics.digest_sum,
        metrics.accuracy_all_events()
    ));

    if tracer.enabled() {
        out.set("core.fleet.processed_share", metrics.completion_rate());
        out.set("mcu.recovered_boots", metrics.recovered_boots as f64);
        probe_devices(&fx, &sim, shards, metrics, &mut out)?;
        probe_energy(&fx, &mut out);
    } else {
        let fast = stats::fast_decile(&times);
        out.set("setup_s", setups.fast_decile_s());
        out.set("throughput_per_s", metrics.total_events as f64 / fast);
        out.set("latency_ms", fast * 1e3);
        out.set("accuracy_all_events", metrics.accuracy_all_events());
        out.note(format!(
            "fleet run wall time over {} runs: fast decile {:.3} ms, median {:.3} ms, p90 {:.3} ms",
            times.len(),
            fast * 1e3,
            median(&times) * 1e3,
            stats::percentile(&times, 0.9) * 1e3
        ));
    }
    Ok(out)
}

/// Replays every device alone, in id order: per-device time split by fault
/// exposure, the skew the fleet's contiguous sharding over `shards` workers
/// would see, and the cost of merging each device into the aggregate.
fn probe_devices(
    fx: &Fixture,
    sim: &FleetSimulator,
    shards: usize,
    fleet: &FleetAccumulator,
    out: &mut Measured,
) -> BenchResult<()> {
    let mut device_s = Vec::with_capacity(DEVICES as usize);
    let (mut faulted, mut fault_free) = (Vec::new(), Vec::new());
    let mut merged = FleetAccumulator::default();
    let mut merge_s = 0.0;
    for id in 0..DEVICES {
        let mut acc = FleetAccumulator::default();
        let start = Instant::now();
        sim.simulate_device_into(&fx.model, id, &mut acc)?;
        let elapsed = start.elapsed().as_secs_f64();
        device_s.push(elapsed);
        if DeviceSpec::derive(&fx.config, id).fault.is_some() {
            faulted.push(elapsed);
        } else {
            fault_free.push(elapsed);
        }
        let start = Instant::now();
        merged.merge(&acc);
        merge_s += start.elapsed().as_secs_f64();
    }
    out.check(merged == *fleet, "merging the replayed devices does not reproduce the fleet");
    let shard = DEVICES.div_ceil(shards as u64) as usize;
    let shard_s: Vec<f64> = device_s.chunks(shard).map(|c| c.iter().sum()).collect();
    let slowest = shard_s.iter().copied().fold(0.0, f64::max);
    let fastest = shard_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("core.fleet.device_us", stats::mean(&device_s) * 1e6);
    out.set("core.fleet.faulted_device_us", stats::mean(&faulted) * 1e6);
    out.set("core.fleet.fault_free_device_us", stats::mean(&fault_free) * 1e6);
    out.set("core.fleet.merge_us", merge_s / DEVICES as f64 * 1e6);
    out.set("core.fleet.shard_skew", slowest / fastest);
    Ok(())
}

/// A daylight window of a full-day trace, as the fleet gives solar devices.
#[derive(Debug)]
struct Window {
    day: SolarTrace,
    offset_s: f64,
    window_s: f64,
}

impl PowerTrace for Window {
    fn power_mw(&self, t_s: f64) -> f64 {
        self.day.power_mw(self.offset_s + t_s.rem_euclid(self.window_s))
    }

    fn duration_s(&self) -> f64 {
        self.window_s
    }
}

/// Rebuilds every device's trace and events from its seeds and times the
/// `energy` entry points the fleet calls: trace construction per kind,
/// event generation, and harvest stepping per event.
fn probe_energy(fx: &Fixture, out: &mut Measured) {
    let config = &fx.config;
    let duration = config.device_duration_s;
    let (mut solar, mut kinetic, mut stochastic) = (Vec::new(), Vec::new(), Vec::new());
    let mut generate_s = Vec::with_capacity(DEVICES as usize);
    let (mut advance_s, mut advanced) = (0.0, 0usize);
    for id in 0..DEVICES {
        let spec = DeviceSpec::derive(config, id);
        let seed = fork_seed(config.master_seed, &[id, PURPOSE_TRACE]);
        let start = Instant::now();
        let trace: Box<dyn PowerTrace> = match spec.trace_kind {
            TraceKind::Solar => Box::new(Window {
                day: SolarTrace::builder()
                    .seed(seed)
                    .peak_power_mw(0.02 * spec.harvest_scale)
                    .build(),
                offset_s: spec.solar_offset_fraction * 24.0 * 3600.0,
                window_s: duration,
            }),
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
        };
        let build_s = start.elapsed().as_secs_f64();
        match spec.trace_kind {
            TraceKind::Solar => solar.push(build_s),
            TraceKind::Kinetic => kinetic.push(build_s),
            TraceKind::Stochastic => stochastic.push(build_s),
        }

        let start = Instant::now();
        let events = EventGenerator::new(
            spec.event_distribution,
            fork_seed(config.master_seed, &[id, PURPOSE_EVENTS]),
        )
        .generate(config.events_per_device, duration);
        generate_s.push(start.elapsed().as_secs_f64());

        let storage = EnergyStorage::new(spec.capacity_mj, spec.charge_efficiency)
            .with_initial_level(spec.initial_fraction * spec.capacity_mj);
        let mut harvest = HarvestSimulator::new(trace, storage);
        let start = Instant::now();
        for event in &events {
            harvest.advance_to(event.time_s);
        }
        advance_s += start.elapsed().as_secs_f64();
        advanced += events.len();
    }
    out.set("energy.trace_build_us.solar", stats::mean(&solar) * 1e6);
    out.set("energy.trace_build_us.kinetic", stats::mean(&kinetic) * 1e6);
    out.set("energy.trace_build_us.stochastic", stats::mean(&stochastic) * 1e6);
    out.set("energy.events_generate_us", stats::mean(&generate_s) * 1e6);
    out.set("energy.advance_ns", advance_s / advanced.max(1) as f64 * 1e9);
}

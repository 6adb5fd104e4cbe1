//! Fleet-scale intermittent simulation demo: advance a population of
//! heterogeneous energy-harvesting devices in parallel and print the merged,
//! order-invariant aggregate.
//!
//! Knobs (all environment variables, read by `ie_tensor::knobs::read`; an
//! unparsable value warns once and keeps the default):
//!
//! * `IE_FLEET_DEVICES` — population size (default 4096),
//! * `IE_FLEET_SEED`    — master seed every device stream forks from
//!   (default `0xF1EE7`),
//! * `IE_FLEET_THREADS` — worker threads (default: available parallelism).
//!
//! Flags:
//!
//! * `--out <path>`  — also write the aggregate-metrics JSON to `path`
//!   (byte-identical for any worker count — this is what the CI
//!   `fleet-determinism` job diffs),
//! * `--probe <id>`  — capture device `id` inside the fleet run, then replay
//!   it in isolation and fail (exit 1) unless the two outcomes match bit for
//!   bit.

use ie_core::fleet::{fleet_threads, FleetConfig, FleetSimulator};
use ie_core::{DeployedModel, ExperimentConfig};
use ie_tensor::knobs;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path: Option<String> = None;
    let mut probe: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }));
            }
            "--probe" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("error: --probe needs a device id");
                    std::process::exit(2);
                });
                probe = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --probe id must be a non-negative integer, got {raw:?}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown argument {other:?} (expected --out/--probe)");
                std::process::exit(2);
            }
        }
    }

    let devices = knobs::read("IE_FLEET_DEVICES", "a non-negative integer", |s| s.parse().ok());
    let seed = knobs::read("IE_FLEET_SEED", "a u64", |s| s.parse().ok());
    let mut config = FleetConfig::new(devices.unwrap_or(4096), seed.unwrap_or(0xF1EE7));
    config.threads = fleet_threads();
    config.probe_device = probe;

    let model = DeployedModel::uncompressed_reference(&ExperimentConfig::paper_default())
        .expect("reference model builds");
    let fleet = FleetSimulator::new(&config);

    println!(
        "fleet: {} devices, master seed {:#x}, {} worker thread(s)",
        config.num_devices, config.master_seed, config.threads
    );
    let started = std::time::Instant::now();
    let report = match fleet.run(&model) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: fleet run failed: {err}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();
    let m = &report.metrics;

    let device_steps = m.total_events;
    println!(
        "advanced {} device-events in {:.2?} ({:.0} device-steps/s)",
        device_steps,
        elapsed,
        device_steps as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "completion {:.4}  accuracy(all) {:.4}  incremental {}  recovered boots {}  torn writes {}",
        m.completion_rate(),
        m.accuracy_all_events(),
        m.incremental_events,
        m.recovered_boots,
        m.torn_writes
    );
    println!(
        "energy/inference p50 {:.4} mJ  p99 {:.4} mJ  latency p50 {:.4} s  p99 {:.4} s",
        m.energy_percentile_mj(0.50),
        m.energy_percentile_mj(0.99),
        m.latency_percentile_s(0.50),
        m.latency_percentile_s(0.99)
    );
    println!("digest {:016x}/{:016x}", m.digest_xor, m.digest_sum);

    if let Some(path) = out_path {
        if let Err(err) = std::fs::write(&path, m.to_json()) {
            eprintln!("error: writing {path}: {err}");
            std::process::exit(1);
        }
        println!("wrote aggregate metrics to {path}");
    }

    if let Some(id) = probe {
        let in_fleet = report.probe.expect("validated probe id is always captured");
        let replayed = match fleet.replay_device(&model, id) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("error: replaying device {id}: {err}");
                std::process::exit(1);
            }
        };
        if in_fleet == replayed {
            println!(
                "probe device {id}: isolated replay matches in-fleet outcome (digest {:016x})",
                in_fleet.digest
            );
        } else {
            eprintln!(
                "error: probe device {id} diverged: in-fleet {in_fleet:?} vs replay {replayed:?}"
            );
            std::process::exit(1);
        }
    }
}

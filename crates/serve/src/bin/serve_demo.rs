//! Demo of the open-loop serving path: builds a deterministic static-LUT
//! admission table, replays a synthetic request stream through the dynamic
//! batching window — optionally under a bounded queue, a shed policy and a
//! chaos schedule — and prints the report. Per-exit latencies are also
//! measured and printed for context, but admission uses a **fixed** cost
//! table so the replay outcome (responses, sheds, counters) is byte-identical
//! across machines, thread counts and repeated runs.
//!
//! Knobs (all environment variables, read by `ie_tensor::knobs::read`):
//! * `IE_SERVE_THREADS` — worker threads (default: machine parallelism, ≤4;
//!   `0` or above 256 warns and keeps the default)
//! * `IE_SERVE_WINDOW` — max requests per batch (default 8; at most 256)
//! * `IE_SERVE_DEADLINE_MS` — window deadline in milliseconds (default 2)
//! * `IE_SERVE_REQUESTS` — number of requests to replay (default 512; at
//!   most 65,536)
//! * `IE_SERVE_QUEUE_CAP` — bounded queue capacity (default 0 = unbounded)
//! * `IE_SERVE_SHED` — shed policy: `reject` | `drop-oldest` | `degrade`
//! * `IE_CHAOS_SEED` — chaos schedule seed (default 0 = no chaos)
//!
//! An unparsable value warns once on stderr and keeps the default, and a
//! zero deadline closes every window at once. A zero window or one above
//! 256, a request count of zero or above 65,536, an unknown argument and an
//! `--out` without a path are refused with `error: …` and exit status 2.
//!
//! `--out <path>` writes the deterministic slice of the run (counters,
//! virtual-clock percentiles, a response digest) as JSON — the CI chaos
//! matrix diffs these files across worker counts per seed.

use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::train::BatchPlanPool;
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{
    serve_threads, ChaosPlan, OverloadConfig, Request, Response, ServeConfig, Server, Verdict,
    WindowConfig,
};
use ie_tensor::knobs;
use std::time::Instant;

/// Most requests `IE_SERVE_REQUESTS` may ask for: every request holds a copy
/// of its input, so an absurd count would abort the process on allocation.
const MAX_REQUESTS: usize = 65_536;

/// What the integer knobs accept, as their warnings state it. A zero passes
/// through, so [`WindowConfig::validate`] rejects a zero window and accepts a
/// zero deadline.
const COUNT_WANT: &str = "a non-negative integer";

/// Reports a refused input and exits with status 2.
fn refuse(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Measures each exit's single-input latency (seconds) on the planned path.
/// Informational only — admission uses the fixed cost table below.
fn calibrate(network: &MultiExitNetwork, probe: &ie_tensor::Tensor) -> Vec<f64> {
    let mut plan = network.execution_plan();
    let reps = 20;
    (0..network.num_exits())
        .map(|exit| {
            let t0 = Instant::now();
            for _ in 0..reps {
                network.forward_to_exit_with(&mut plan, probe, exit).expect("calibration pass");
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect()
}

/// FNV-1a over the deterministic response content — the replay byte-identity
/// witness the CI chaos matrix compares across worker counts.
fn digest_responses(responses: &[Response]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in responses {
        eat(&r.id.to_le_bytes());
        match &r.verdict {
            Verdict::Served { exit, prediction, confidence } => {
                eat(&[0]);
                eat(&(*exit as u64).to_le_bytes());
                eat(&(*prediction as u64).to_le_bytes());
                eat(&confidence.to_bits().to_le_bytes());
            }
            Verdict::Rejected => eat(&[1]),
            Verdict::Shed { reason } => {
                eat(&[2]);
                eat(&[*reason as u8]);
            }
        }
    }
    h
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().unwrap_or_else(|| refuse("--out needs a path"))),
            other => refuse(&format!("unknown argument {other:?} (expected --out <path>)")),
        }
    }
    let count = |var, default| knobs::read(var, COUNT_WANT, |s| s.parse().ok()).unwrap_or(default);
    let threads = serve_threads();
    let window = WindowConfig {
        max_batch: count("IE_SERVE_WINDOW", 8),
        deadline_s: count("IE_SERVE_DEADLINE_MS", 2) as f64 / 1000.0,
    };
    let overload = OverloadConfig::from_env();
    let chaos = ChaosPlan::from_env();
    let total = count("IE_SERVE_REQUESTS", 512);
    if !(1..=MAX_REQUESTS).contains(&total) {
        refuse(&format!("IE_SERVE_REQUESTS must be in 1..={MAX_REQUESTS}, got {total}"));
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(42);
    let network =
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).expect("demo network");
    let data = SyntheticDataset::generate(3, 8, total, 0.1, 7);
    let samples: Vec<_> = data.train().iter().chain(data.test()).cloned().collect();

    let measured = calibrate(&network, &samples[0].image);
    println!(
        "measured per-exit latency (us): {:?} (informational)",
        measured.iter().map(|c| (c * 1e6).round()).collect::<Vec<_>>()
    );
    // Fixed, platform-independent cost table: exit i costs 2^i · 2 ms. Using
    // it (instead of the measurement) keeps admission decisions — and
    // therefore the whole replay — byte-identical everywhere.
    let costs: Vec<f64> =
        (0..network.num_exits()).map(|i| 0.002 * f64::powi(2.0, i as i32)).collect();
    let accuracies = vec![0.6; network.num_exits()];
    let mut admission =
        LatencyAdmission::static_lut(costs.clone(), accuracies, StateDiscretizer::paper_default())
            .expect("admission table");

    // Open-loop stream at 2× the deepest-exit service rate (gap = half the
    // cheapest exit's cost), budgets sweeping from below the cheapest exit
    // (rejected) to beyond the deepest (full depth) — sustained overload, so
    // a bounded queue has something to shed and `degrade` something to save.
    let gap_s = costs[0] / 2.0;
    let max_cost = costs.last().copied().unwrap_or(1e-3);
    let requests: Vec<Request> = (0..total)
        .map(|i| Request {
            id: i as u64,
            arrival_s: i as f64 * gap_s,
            budget_s: (i % 10) as f64 / 6.0 * max_cost,
            input: samples[i % samples.len()].image.clone(),
        })
        .collect();

    let mut pool = BatchPlanPool::new();
    let config = ServeConfig { window, threads, overload };
    let mut server = match Server::new(&network, config, &mut pool) {
        Ok(server) => server,
        Err(err) => refuse(&format!("invalid serving config: {err}")),
    };
    let outcome = server.replay_chaotic(&mut admission, &requests, &chaos).expect("replay");
    for plan in server.into_plans() {
        pool.put(plan);
    }

    let r = &outcome.report;
    assert!(r.conservation_holds(), "request conservation violated");
    let queue_cap_knob = if overload.queue_cap == usize::MAX { 0 } else { overload.queue_cap };
    println!("policy          : {}", admission.policy_name());
    println!(
        "threads x window: {threads} x {} (deadline {:.1} ms)",
        window.max_batch,
        window.deadline_s * 1e3
    );
    println!(
        "overload        : cap {} ({}), chaos seed {}",
        queue_cap_knob,
        overload.policy.name(),
        chaos.seed
    );
    println!("served/rej/shed : {} / {} / {} (of {})", r.served, r.rejected, r.shed, r.submitted);
    println!(
        "degraded        : {} | retried {} | restarted {} | stalled {}",
        r.degraded, r.retried, r.restarted, r.stalled
    );
    println!("per-exit served : {:?}", r.per_exit);
    println!("batches (fill)  : {} ({:.2})", r.batches, r.mean_batch_fill);
    println!(
        "queue wait      : p50 {:.3} ms, p99 {:.3} ms",
        r.wait_p50_s * 1e3,
        r.wait_p99_s * 1e3
    );
    println!(
        "latency         : p50 {:.3} ms, p99 {:.3} ms",
        r.latency_p50_s * 1e3,
        r.latency_p99_s * 1e3
    );
    println!(
        "throughput      : {:.0} req/s raw, {:.0} req/s goodput ({} met deadline)",
        r.throughput_rps, r.goodput_rps, r.deadline_met
    );

    if let Some(path) = out_path {
        // Only the deterministic slice of the run: no thread count, no
        // wall-clock timing — `diff` across worker counts must come up empty.
        let per_exit = r.per_exit.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
        let json = format!(
            "{{\n  \"requests\": {},\n  \"window\": {},\n  \"deadline_ms\": {},\n  \
             \"queue_cap\": {},\n  \"shed_policy\": \"{}\",\n  \"chaos_seed\": {},\n  \
             \"submitted\": {},\n  \"served\": {},\n  \"rejected\": {},\n  \"shed\": {},\n  \
             \"degraded\": {},\n  \"retried\": {},\n  \"restarted\": {},\n  \"stalled\": {},\n  \
             \"deadline_met\": {},\n  \"batches\": {},\n  \"per_exit\": [{}],\n  \
             \"wait_p50_us\": {},\n  \"wait_p99_us\": {},\n  \"responses_fnv1a\": \"{:#018x}\"\n}}\n",
            total,
            window.max_batch,
            window.deadline_s * 1e3,
            queue_cap_knob,
            overload.policy.name(),
            chaos.seed,
            r.submitted,
            r.served,
            r.rejected,
            r.shed,
            r.degraded,
            r.retried,
            r.restarted,
            r.stalled,
            r.deadline_met,
            r.batches,
            per_exit,
            r.wait_p50_s * 1e6,
            r.wait_p99_s * 1e6,
            digest_responses(&outcome.responses),
        );
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_pass_zero_through_and_warn_on_garbage() {
        let count = |var, raw| knobs::classify(var, raw, COUNT_WANT, |s| s.parse::<usize>().ok());
        assert_eq!(count("IE_SERVE_WINDOW", " 16 "), Ok(16));
        // Zero reaches the config validation instead of becoming the default.
        assert_eq!(count("IE_SERVE_DEADLINE_MS", "0"), Ok(0));
        for bad in ["", "-1", "2ms", "1.5"] {
            let warning = count("IE_SERVE_DEADLINE_MS", bad).expect_err("an invalid value warns");
            assert!(warning.contains(&format!("IE_SERVE_DEADLINE_MS={bad:?}")), "{warning}");
        }
        assert!(WindowConfig { max_batch: 0, deadline_s: 0.002 }.validate().is_err());
        assert!(WindowConfig { max_batch: 8, deadline_s: 0.0 }.validate().is_ok());
    }
}

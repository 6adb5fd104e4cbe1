//! The repository's benchmark: three workloads that drive the workspace
//! crates from outside, measured end to end (untraced runs) and per layer
//! (traced runs).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_pipeline --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --describe
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --catalogue
//! ```
//!
//! Every run prints a provenance line first, then one `name = value unit`
//! line per metric, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--describe` prints the
//! `BENCHMARK.json` the catalogue implies; `--catalogue` prints every
//! workload and metric with its documentation. Traced runs also write their
//! spans to `perfbench/out/`.

mod catalogue;
mod cpu;
mod fleet;
mod pipeline;
mod serve;
mod stats;
mod trace;

use catalogue::{json_str, ALL};
use stats::{BenchResult, Measured};
use std::process::ExitCode;
use trace::Tracer;

/// Parsed run options.
struct Options {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> BenchResult<Options> {
        let value = |flag: &str| -> BenchResult<&str> {
            let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            Ok(args.get(at + 1).ok_or(format!("{flag} needs a value"))?.as_str())
        };
        let name = value("--workload")?;
        let workload = catalogue::workload(name).ok_or(format!("unknown workload {name:?}"))?.name;
        let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let trace = match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}").into()),
        };
        Ok(Options { workload, seed, seconds, trace })
    }
}

/// The thread knobs the benchmark pins, so the caller's environment cannot
/// skew a run. Every other `IE_*` variable except `IE_ISA` is removed.
fn pin_knobs() -> Vec<(&'static str, String)> {
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("IE_") && k != "IE_ISA")
        .collect();
    for key in stray {
        std::env::remove_var(key);
    }
    let knobs = vec![
        ("IE_EVAL_THREADS", "1".to_string()),
        ("IE_TRAIN_THREADS", "1".to_string()),
        ("IE_FLEET_THREADS", "1".to_string()),
        ("IE_SERVE_THREADS", "1".to_string()),
    ];
    for (key, value) in &knobs {
        std::env::set_var(key, value);
    }
    knobs
}

/// The revision of the checkout, read from `.git` without running git, or
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(opts: &Options, nproc: usize, knobs: &[(&str, String)]) -> String {
    let seeds = match opts.workload {
        "paper_pipeline" => pipeline::seeds(opts.seed),
        "fleet_mixed" => fleet::seeds(opts.seed),
        _ => serve::seeds(opts.seed),
    };
    let seeds: Vec<String> = seeds.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let knobs: Vec<String> =
        knobs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"seeds\": {{{}}}, \
         \"isa_tier\": {}, \"isa_detected\": {}, \"knobs\": {{{}}}, \"nproc\": {nproc}, \
         \"git_revision\": {}}}",
        json_str(opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        seeds.join(", "),
        json_str(ie_tensor::dispatch::active().name()),
        json_str(ie_tensor::dispatch::detected().name()),
        knobs.join(", "),
        json_str(&git_revision())
    )
}

/// Checks the run reported exactly its catalogue metrics, and adds 0 for
/// the per-layer metrics of the other workloads.
fn complete_metrics(opts: &Options, measured: &mut Measured) -> BenchResult<()> {
    let expected: Vec<&catalogue::Metric> = if opts.trace {
        catalogue::PER_LAYER.iter().collect()
    } else {
        catalogue::END_TO_END.iter().collect()
    };
    for name in measured.metrics.keys() {
        if !expected.iter().any(|m| m.name == *name) {
            return Err(format!(
                "{} reported {name}, which is not in the catalogue",
                opts.workload
            )
            .into());
        }
    }
    for m in expected {
        let own = m.workload == ALL || m.workload == opts.workload;
        match measured.metrics.get(m.name) {
            Some(v) if !v.is_finite() => {
                return Err(format!("{} is not finite: {v}", m.name).into())
            }
            Some(_) => {}
            None if own => {
                return Err(format!("{} did not report {}", opts.workload, m.name).into())
            }
            None => {
                measured.metrics.insert(m.name, 0.0);
            }
        }
    }
    Ok(())
}

fn run(opts: &Options) -> BenchResult<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs = pin_knobs();
    let header = provenance(opts, nproc, &knobs);
    println!("{{\"provenance\": {header}}}");

    let mut tracer = Tracer::new(opts.trace);
    let mut measured = match opts.workload {
        "paper_pipeline" => pipeline::run(opts.seed, opts.seconds, &mut tracer)?,
        "fleet_mixed" => fleet::run(opts.seed, opts.seconds, nproc.min(2), &mut tracer)?,
        _ => serve::run(opts.seed, opts.seconds, &mut tracer)?,
    };
    if opts.trace {
        let loop_s = measured.loop_s.max(f64::MIN_POSITIVE);
        let overhead = tracer.spans().len() as f64 * Tracer::calibrate_span_ns() * 1e-9 / loop_s;
        measured.set("trace_overhead_share", overhead);
        measured.note(format!("trace: {} spans over a {loop_s:.3} s loop", tracer.spans().len()));
        std::fs::create_dir_all("perfbench/out")?;
        let path = format!("perfbench/out/trace-{}-seed{}.json", opts.workload, opts.seed);
        std::fs::write(&path, tracer.to_json(&header))?;
        measured.note(format!("spans written to {path}"));
    } else {
        measured.set("peak_rss_mb", measured.peak_rss_mb);
    }
    complete_metrics(opts, &mut measured)?;

    for note in &measured.notes {
        println!("# {note}");
    }
    let mut fields = Vec::with_capacity(measured.metrics.len());
    for (name, value) in &measured.metrics {
        let unit = catalogue::metric(name).map_or("", |m| m.unit);
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for failure in &measured.failed_checks {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.failed_checks.is_empty(),
        measured.attempted.max(1),
        measured.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--describe") => {
            print!("{}", catalogue::benchmark_json());
            Ok(())
        }
        Some("--catalogue") => {
            print!("{}", catalogue::catalogue_json());
            Ok(())
        }
        _ => Options::parse(&args).and_then(|opts| run(&opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

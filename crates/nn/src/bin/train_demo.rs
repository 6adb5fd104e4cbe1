//! Batched-training determinism demo: train a multi-exit network from a
//! fixed seed through [`ie_nn::train::train`] and print the loss
//! trajectory as JSON.
//!
//! The trajectory is byte-identical for every worker count — the batched
//! trainer's per-sample gradient reduction is deterministic — so the CI
//! `train-determinism` job runs this demo with `IE_TRAIN_THREADS=1` and
//! `IE_TRAIN_THREADS=4` under `IE_ISA=portable` and diffs the outputs.
//!
//! Knobs (all environment variables, read by `ie_tensor::knobs::read`; an
//! unparsable value warns once and keeps the default):
//!
//! * `IE_TRAIN_THREADS` — worker threads for the batched trainer
//!   (default: available parallelism),
//! * `IE_TRAIN_SEED`    — seed for the synthetic dataset and the weight
//!   init (default 2026),
//! * `IE_TRAIN_EPOCHS`  — epochs to run, 0 to 10,000 (default 4; a larger
//!   count warns and keeps the default).
//!
//! Flags:
//!
//! * `--out <path>` — also write the trajectory JSON to `path` (this is
//!   what CI diffs across worker counts).

use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::train::{train, train_threads, BatchBackwardPlan, TrainConfig};
use ie_nn::MultiExitNetwork;
use ie_tensor::knobs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest `IE_TRAIN_EPOCHS` accepted: about a minute and a half of
/// training in a release build, far beyond what the demo is for.
const MAX_EPOCHS: usize = 10_000;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown argument {other:?} (expected --out)");
                std::process::exit(2);
            }
        }
    }

    let seed = knobs::read("IE_TRAIN_SEED", "a u64", |s| s.parse().ok()).unwrap_or(2026);
    let threads = train_threads();
    let arch = tiny_multi_exit(3);
    let data = SyntheticDataset::generate(3, 8, 200, 0.05, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea1);
    let mut net =
        MultiExitNetwork::from_architecture(&arch, &mut rng).expect("architecture builds");

    let mut config = TrainConfig::for_exits(arch.num_exits());
    config.epochs = knobs::read("IE_TRAIN_EPOCHS", "an integer in 0..=10000", |s| {
        s.parse().ok().filter(|&epochs| epochs <= MAX_EPOCHS)
    })
    .unwrap_or(4);
    config.batch_size = 16;
    let mut plan = BatchBackwardPlan::new();

    println!("train: seed {seed}, {} worker thread(s), {} epochs", threads, config.epochs);
    let history = match train(&mut net, data.train(), data.test(), &config, threads, &mut plan) {
        Ok(history) => history,
        Err(err) => {
            eprintln!("error: training failed: {err}");
            std::process::exit(1);
        }
    };

    // Losses are serialized both as decimal and as raw bits: the trajectory
    // must match byte for byte across worker counts, not just approximately.
    let epochs: Vec<String> = history
        .iter()
        .map(|e| {
            let accs: Vec<String> = e.exit_accuracy.iter().map(|a| format!("{:.4}", a)).collect();
            format!(
                "    {{\"epoch\": {}, \"mean_loss\": {}, \"loss_bits\": \"{:#010x}\", \
                 \"exit_accuracy\": [{}]}}",
                e.epoch,
                e.mean_loss,
                e.mean_loss.to_bits(),
                accs.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"epochs\": {},\n  \"trajectory\": [\n{}\n  ]\n}}\n",
        config.epochs,
        epochs.join(",\n")
    );
    print!("{json}");
    if let Some(path) = out_path {
        if let Err(err) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {path}: {err}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

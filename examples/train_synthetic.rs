//! End-to-end run on a *real* trainable network: train the tiny multi-exit CNN
//! on the built-in synthetic texture dataset, measure per-exit accuracy
//! empirically, compress it with a nonuniform policy, and compare the measured
//! accuracy of the compressed exits.
//!
//! This exercises the same pipeline as the paper-scale experiments but with
//! the [`ie_compress::EmpiricalAccuracyEstimator`] instead of the calibrated
//! analytical model, proving that nothing in the flow depends on the shortcut.
//!
//! ```text
//! cargo run --release --example train_synthetic
//! ```

use intermittent_multiexit::compress::{
    CompressionPolicy, EmpiricalAccuracyEstimator, ExitAccuracyEstimator, LayerPolicy,
    PolicyEvaluator,
};
use intermittent_multiexit::nn::dataset::SyntheticDataset;
use intermittent_multiexit::nn::spec::tiny_multi_exit;
use intermittent_multiexit::nn::train::{train, BatchBackwardPlan, TrainConfig};
use intermittent_multiexit::nn::MultiExitNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data and architecture.
    let data = SyntheticDataset::generate(4, 8, 400, 0.1, 42);
    let arch = tiny_multi_exit(4);
    let mut rng = StdRng::seed_from_u64(7);
    let mut network = MultiExitNetwork::from_architecture(&arch, &mut rng)?;
    println!(
        "tiny multi-exit network: {} parameters, exits at {:?} FLOPs",
        network.parameter_count(),
        arch.exit_flops()
    );

    // 2. Train with the joint multi-exit objective.
    let mut config = TrainConfig::for_exits(arch.num_exits());
    config.epochs = 12;
    config.learning_rate = 0.1;
    let mut plan = BatchBackwardPlan::new();
    let history = train(&mut network, data.train(), data.test(), &config, 1, &mut plan)?;
    for stats in history.iter().step_by(3) {
        println!(
            "epoch {:>2}: loss {:.3}, exit accuracy {:?}",
            stats.epoch,
            stats.mean_loss,
            stats.exit_accuracy.iter().map(|a| format!("{:.1}%", a * 100.0)).collect::<Vec<_>>()
        );
    }

    // 3. Measure the effect of compression on the real weights.
    let estimator = EmpiricalAccuracyEstimator::new(network, data.test().to_vec());
    let layers = arch.compressible_layers();
    let full =
        estimator.exit_accuracy(&layers, &CompressionPolicy::full_precision(layers.len()))?;
    let gentle: CompressionPolicy =
        layers.iter().map(|_| LayerPolicy::new(0.8, 8, 8).expect("valid")).collect();
    let harsh: CompressionPolicy =
        layers.iter().map(|_| LayerPolicy::new(0.25, 2, 8).expect("valid")).collect();
    let gentle_acc = estimator.exit_accuracy(&layers, &gentle)?;
    let harsh_acc = estimator.exit_accuracy(&layers, &harsh)?;
    println!("\nmeasured exit accuracy on held-out data:");
    println!("  full precision      : {full:?}");
    println!("  gentle (0.8, 8-bit) : {gentle_acc:?}");
    println!("  harsh  (0.25, 2-bit): {harsh_acc:?}");

    // 4. The same estimator plugs into the cost/accuracy evaluator used by the
    //    compression search.
    let evaluator = PolicyEvaluator::new(&arch, estimator);
    let profile = evaluator.evaluate(&gentle)?;
    println!(
        "\ngentle policy deployed: {:.0} KFLOPs to the final exit, {} bytes of weights",
        *profile.exit_flops.last().expect("has exits") as f64 / 1e3,
        profile.model_size_bytes
    );
    Ok(())
}

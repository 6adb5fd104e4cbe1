//! Runtime-adaptation deep dive: deploy the compressed multi-exit model and
//! compare four exit-selection strategies under the same harvesting
//! environment — the static LUT built at compression time, a greedy
//! "spend everything now" rule, a fixed reserve margin, and the paper's
//! Q-learning agent — and show how the Q-learning agent redistributes events
//! across exits as it learns (Fig. 7 of the paper).
//!
//! ```text
//! cargo run --release --example runtime_adaptation
//! ```

use intermittent_multiexit::core::policies::{GreedyAffordablePolicy, ReserveMarginPolicy};
use intermittent_multiexit::core::{
    DeployedModel, EventLoopSimulator, ExitPolicy, ExperimentConfig,
};
use intermittent_multiexit::runtime::{
    AdaptationConfig, RuntimeAdaptation, StateDiscretizer, StaticLutPolicy,
};
use intermittent_multiexit::search::{CompressionEnv, RewardMode};

/// Name, IEpmJ, all-event accuracy and per-exit counts of one simulated run.
type PolicySummary = (String, f64, f64, Vec<usize>);

fn run_policy(
    config: &ExperimentConfig,
    model: &DeployedModel,
    policy: &mut dyn ExitPolicy,
) -> Result<PolicySummary, Box<dyn std::error::Error>> {
    let report = EventLoopSimulator::new(config).run(model, policy)?;
    Ok((
        policy.name().to_string(),
        report.ie_pmj(),
        report.accuracy_all_events(),
        report.exit_counts.clone(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig::paper_default();

    // Deploy the reference nonuniform policy (the search-found policy from the
    // `figures` harness behaves the same way; this keeps the example fast).
    let env = CompressionEnv::new(&config, RewardMode::ExitGuided)?;
    let layers = env.layers();
    let policy = ie_bench_reference(layers);
    let outcome = env.evaluate(&policy)?;
    let model = DeployedModel::new(outcome.profile.clone(), config.cost_model());
    println!(
        "deployed model: {:.1} KB, per-exit energy {:?} mJ, per-exit accuracy {:?}",
        model.model_size_bytes() as f64 / 1024.0,
        model.exit_energies_mj().iter().map(|e| format!("{e:.2}")).collect::<Vec<_>>(),
        model.exit_accuracies().iter().map(|a| format!("{:.1}%", a * 100.0)).collect::<Vec<_>>()
    );

    // Non-learning strategies.
    println!("\nstrategy comparison (same trace, same 500 events):");
    let mut greedy = GreedyAffordablePolicy::new();
    let mut reserve = ReserveMarginPolicy::new(0.5);
    let mut static_lut = StaticLutPolicy::build(
        &model,
        config.storage_capacity_mj,
        StateDiscretizer::paper_default(),
    );
    for entry in [
        run_policy(&config, &model, &mut greedy)?,
        run_policy(&config, &model, &mut reserve)?,
        run_policy(&config, &model, &mut static_lut)?,
    ] {
        println!(
            "  {:<18} IEpmJ {:.3}  accuracy(all events) {:.1}%  exit counts {:?}",
            entry.0,
            entry.1,
            entry.2 * 100.0,
            entry.3
        );
    }

    // The learning strategy (Fig. 7).
    let adaptation =
        RuntimeAdaptation::new(AdaptationConfig { episodes: 16, ..Default::default() })
            .run(&config, &model)?;
    println!("\nq-learning adaptation over 16 episodes:");
    for (i, acc) in adaptation.learning_curve.iter().enumerate() {
        if i % 4 == 0 || i + 1 == adaptation.learning_curve.len() {
            println!("  episode {:>2}: accuracy over all events {:.1}%", i + 1, acc * 100.0);
        }
    }
    println!(
        "  static LUT stays at {:.1}%; final improvement {:+.1} percentage points",
        adaptation.static_accuracy * 100.0,
        adaptation.improvement_over_static() * 100.0
    );
    println!(
        "  final exit distribution (q-learning): {:?} of {} processed events",
        adaptation.final_report.exit_counts, adaptation.final_report.processed_events
    );
    Ok(())
}

/// The Fig. 4-style reference nonuniform policy (duplicated from the bench
/// harness so the example only depends on the published library API).
fn ie_bench_reference(
    layers: &[intermittent_multiexit::nn::spec::CompressibleLayer],
) -> intermittent_multiexit::compress::CompressionPolicy {
    use intermittent_multiexit::compress::LayerPolicy;
    layers
        .iter()
        .map(|l| {
            if l.is_conv {
                if l.first_exit() == 0 {
                    LayerPolicy::new(0.5, 8, 8).expect("valid")
                } else {
                    LayerPolicy::new(0.25, 4, 8).expect("valid")
                }
            } else if l.weight_params > 20_000 {
                LayerPolicy::new(0.35, 1, 8).expect("valid")
            } else {
                LayerPolicy::new(0.5, 2, 8).expect("valid")
            }
        })
        .collect()
}

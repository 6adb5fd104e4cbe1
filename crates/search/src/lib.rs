//! `ie-search` — phase 1 of the paper: power-trace-aware, exit-guided
//! nonuniform compression.
//!
//! The search walks the network layer by layer. At every layer a *pruning
//! agent* emits the channel preserve ratio `α_l` and a *quantization agent*
//! emits the weight/activation bitwidths `(b^w_l, b^a_l)`; both observe the
//! shared layer state of Eq. (9). When the last layer has been assigned, the
//! candidate policy is evaluated under the EH power trace and event
//! distribution: the exit-selection percentages `p_i` it induces and the
//! per-exit accuracies `Acc_i` form the exit-guided reward
//! `R_acc = Σ p_i · Acc_i` (Eq. 10), gated by the FLOPs target for the pruning
//! agent (Eq. 11) and the size target for the quantization agent (Eq. 12).
//!
//! Three searchers are provided:
//!
//! * [`DdpgCompressionSearch`] — the paper's dual-agent DDPG search,
//! * [`random_search`] — a random-sampling baseline over the same action space,
//! * [`best_uniform_policy`] — the "uniform compression" baseline of Fig. 1(b).
//!
//! # Example
//!
//! ```
//! use ie_core::ExperimentConfig;
//! use ie_search::{CompressionEnv, RewardMode, best_uniform_policy};
//!
//! let config = ExperimentConfig::small_test();
//! let env = CompressionEnv::new(&config, RewardMode::ExitGuided)?;
//! let (policy, outcome) = best_uniform_policy(&env, 8)?;
//! assert_eq!(policy.len(), env.num_layers());
//! assert!(outcome.feasible, "a feasible uniform point exists");
//! # Ok::<(), ie_search::SearchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddpg_search;
mod env;
mod error;
mod observation;
mod uniform;

pub use ddpg_search::{DdpgCompressionSearch, EpisodeStats, SearchConfig, SearchResult};
pub use env::{CompressionEnv, PolicyOutcome, RewardMode};
pub use error::SearchError;
pub use observation::{observation_for_layer, OBSERVATION_DIM};
pub use uniform::{best_uniform_policy, random_search};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SearchError>;

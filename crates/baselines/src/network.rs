use ie_mcu::TaskGraph;

/// A single-exit baseline network, described by the figures the paper reports
/// for it: FLOPs per inference, per-inference accuracy and weight size.
///
/// * **SonicNet** — the network deployed by Gobieski et al.'s SONIC/TAILS
///   intermittent inference framework \[9\]: 2.0 M FLOPs, 75.4 % accuracy on
///   the processed events.
/// * **SpArSeNet** — the CNN produced by the SpArSe NAS framework for MCUs
///   \[13\]: 11.4 M FLOPs, 82.7 % accuracy.
/// * **LeNet-Cifar** — LeNet hand-adapted to CIFAR-10: low FLOPs (≈0.72 M),
///   74.7 % accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineNetwork {
    name: String,
    flops: u64,
    accuracy: f64,
    weight_bytes: u64,
    num_tasks: usize,
}

impl BaselineNetwork {
    /// Creates a custom baseline description.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[0, 1]` or `num_tasks` is zero.
    pub fn new(name: &str, flops: u64, accuracy: f64, weight_bytes: u64, num_tasks: usize) -> Self {
        assert!((0.0..=1.0).contains(&accuracy), "accuracy must be a fraction");
        assert!(num_tasks > 0, "a network needs at least one task");
        BaselineNetwork { name: name.to_string(), flops, accuracy, weight_bytes, num_tasks }
    }

    /// The SONIC/TAILS baseline \[9\].
    pub fn sonic_net() -> Self {
        BaselineNetwork::new("SonicNet", 2_000_000, 0.754, 100 * 1024, 20)
    }

    /// The SpArSe NAS baseline \[13\].
    pub fn sparse_net() -> Self {
        BaselineNetwork::new("SpArSeNet", 11_400_000, 0.827, 64 * 1024, 60)
    }

    /// LeNet manually adapted to CIFAR-10.
    pub fn lenet_cifar() -> Self {
        BaselineNetwork::new("LeNet-Cifar", 720_000, 0.747, 300 * 1024, 8)
    }

    /// All three published baselines, in the order of the paper's figures.
    pub fn paper_baselines() -> Vec<BaselineNetwork> {
        vec![Self::sonic_net(), Self::sparse_net(), Self::lenet_cifar()]
    }

    /// Baseline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// FLOPs per inference.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Per-inference accuracy on processed events, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Number of tasks the intermittent runtime splits one inference into.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// The task graph of one inference.
    pub fn task_graph(&self) -> TaskGraph {
        TaskGraph::split_evenly(&self.name, self.flops, self.num_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figures_are_encoded() {
        let sonic = BaselineNetwork::sonic_net();
        assert_eq!(sonic.flops(), 2_000_000);
        assert!((sonic.accuracy() - 0.754).abs() < 1e-12);
        let sparse = BaselineNetwork::sparse_net();
        assert_eq!(sparse.flops(), 11_400_000);
        assert!((sparse.accuracy() - 0.827).abs() < 1e-12);
        let lenet = BaselineNetwork::lenet_cifar();
        assert!(lenet.flops() < sonic.flops());
        assert_eq!(BaselineNetwork::paper_baselines().len(), 3);
    }

    #[test]
    fn task_graph_preserves_total_flops() {
        for b in BaselineNetwork::paper_baselines() {
            let g = b.task_graph();
            assert_eq!(g.total_flops(), b.flops());
            assert_eq!(g.len(), b.num_tasks());
        }
    }

    #[test]
    #[should_panic(expected = "accuracy must be a fraction")]
    fn invalid_accuracy_panics() {
        let _ = BaselineNetwork::new("bad", 1, 1.5, 1, 1);
    }
}

//! Serving-run statistics: what the bench family reports and what the
//! operator watches. Everything derived from the *virtual* clock (queue
//! waits, batch fill, the shed/degraded/retried/restarted counters, the
//! per-exit histogram and the deadline-met goodput numerator) is
//! deterministic for a fixed request stream and chaos seed; the latency
//! percentiles and the throughput/goodput rates fold in measured compute
//! time and are machine-dependent by nature.

/// Aggregate statistics of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests handed to the server (replay: stream length; live: submit
    /// calls). The conservation invariant partitions exactly this count.
    pub submitted: usize,
    /// Requests admitted and answered with a prediction.
    pub served: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Requests shed by the overload layer (full queue, eviction, unmeetable
    /// deadline, or retry exhaustion) — see [`crate::ShedReason`].
    pub shed: usize,
    /// Served requests whose exit was lowered by degradation.
    pub degraded: usize,
    /// Request re-executions scheduled after a worker loss (a re-enqueued
    /// batch counts each of its members once).
    pub retried: usize,
    /// Worker losses caught by supervision (each one recycled its plan and
    /// restarted the worker loop).
    pub restarted: usize,
    /// Injected worker stalls survived.
    pub stalled: usize,
    /// Scheduled requests whose completion met their latency budget — the
    /// goodput numerator. Replay mode counts this on the deterministic
    /// service model; live mode on measured latency.
    pub deadline_met: usize,
    /// Served responses per exit index (length = number of exits).
    pub per_exit: Vec<usize>,
    /// Batching windows. Replay counts every planned window, retry-exhausted
    /// ones included; live counts the batches that completed.
    pub batches: usize,
    /// Mean requests per batch (0 when no batch closed).
    pub mean_batch_fill: f64,
    /// Median queue wait on the virtual clock (deterministic).
    pub wait_p50_s: f64,
    /// 99th-percentile queue wait on the virtual clock (deterministic).
    pub wait_p99_s: f64,
    /// Median request latency — queue wait plus compute, compute measured.
    pub latency_p50_s: f64,
    /// 99th-percentile request latency.
    pub latency_p99_s: f64,
    /// Served requests per second of modeled makespan (raw throughput —
    /// counts deadline-missing answers too).
    pub throughput_rps: f64,
    /// Deadline-meeting requests per second of modeled makespan. Goodput is
    /// the number overload protection actually defends: shedding or
    /// degrading requests sacrifices raw throughput (and accuracy) to keep
    /// this from collapsing.
    pub goodput_rps: f64,
    /// Total measured compute across all batches (seconds).
    pub compute_s: f64,
}

impl ServeReport {
    /// A report for a run that served nothing.
    pub fn empty() -> Self {
        ServeReport {
            submitted: 0,
            served: 0,
            rejected: 0,
            shed: 0,
            degraded: 0,
            retried: 0,
            restarted: 0,
            stalled: 0,
            deadline_met: 0,
            per_exit: Vec::new(),
            batches: 0,
            mean_batch_fill: 0.0,
            wait_p50_s: 0.0,
            wait_p99_s: 0.0,
            latency_p50_s: 0.0,
            latency_p99_s: 0.0,
            throughput_rps: 0.0,
            goodput_rps: 0.0,
            compute_s: 0.0,
        }
    }

    /// The request-conservation invariant: every submitted request was
    /// answered exactly once — served, rejected, or shed. Both serving modes
    /// assert this before returning a report; it is re-checked end-to-end by
    /// the chaos tests and the CI chaos matrix.
    pub fn conservation_holds(&self) -> bool {
        self.served + self.rejected + self.shed == self.submitted
            && self.per_exit.iter().sum::<usize>() == self.served
    }
}

/// Nearest-rank percentile of an unsorted sample set.
///
/// The rule, stated precisely so callers can rely on the edge cases:
///
/// * `q` is clamped to `0.0..=1.0`; a non-finite `q` (NaN, ±∞ — only
///   possible from upstream arithmetic gone wrong) is treated as `0.0`
///   rather than poisoning the rank computation.
/// * The result is always an element of `values` — nearest-rank, no
///   interpolation: element `⌈q·n⌉` (1-indexed) of the sorted sample, with
///   `q = 0` mapping to the minimum and `q = 1` to the maximum.
/// * An empty sample returns `0.0` (the neutral report value), and a
///   single-element sample returns that element for every `q`.
/// * Values sort by IEEE-754 total order (`f64::total_cmp`), so a stray NaN
///   sorts above `+∞` deterministically instead of panicking; duplicates
///   are kept and count toward ranks like any other element.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let q = if q.is_finite() { q.clamp(0.0, 1.0) } else { 0.0 };
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0, "input need not be sorted");
    }

    #[test]
    fn percentile_of_empty_sample_is_zero_for_every_q() {
        for q in [0.0, 0.5, 0.99, 1.0, -3.0, f64::NAN] {
            assert_eq!(percentile(&[], q), 0.0);
        }
    }

    #[test]
    fn percentile_of_single_element_is_that_element_for_every_q() {
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, 7.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(percentile(&[42.5], q), 42.5, "q={q}");
        }
    }

    #[test]
    fn percentile_clamps_out_of_range_and_non_finite_q() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, -0.5), 1.0, "q below 0 clamps to the minimum");
        assert_eq!(percentile(&v, 2.0), 4.0, "q above 1 clamps to the maximum");
        assert_eq!(percentile(&v, f64::NAN), 1.0, "NaN q is treated as 0");
        assert_eq!(percentile(&v, f64::NEG_INFINITY), 1.0);
        assert_eq!(percentile(&v, f64::INFINITY), 1.0, "∞ is non-finite, treated as 0");
    }

    #[test]
    fn percentile_handles_duplicate_heavy_samples() {
        // 90 zeros and 10 ones: the p50 rank lands deep in the zeros, p99 in
        // the ones — duplicates count toward ranks like any other element.
        let mut v = vec![0.0; 90];
        v.extend(vec![1.0; 10]);
        assert_eq!(percentile(&v, 0.50), 0.0);
        assert_eq!(percentile(&v, 0.90), 0.0, "rank 90 is the last zero");
        assert_eq!(percentile(&v, 0.91), 1.0);
        assert_eq!(percentile(&v, 0.99), 1.0);
        let all_same = vec![7.0; 33];
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&all_same, q), 7.0);
        }
    }

    #[test]
    fn percentile_orders_non_finite_values_totally_instead_of_panicking() {
        let v = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&v, 1.0).is_nan(), "NaN sorts above +inf in total order");
    }

    #[test]
    fn conservation_partitions_submitted() {
        let mut r = ServeReport::empty();
        assert!(r.conservation_holds(), "the empty report conserves trivially");
        r.submitted = 10;
        r.served = 6;
        r.rejected = 3;
        r.shed = 1;
        r.per_exit = vec![2, 4];
        assert!(r.conservation_holds());
        r.shed = 2;
        assert!(!r.conservation_holds(), "double-counting must be caught");
        r.shed = 1;
        r.per_exit = vec![2, 3];
        assert!(!r.conservation_holds(), "histogram must sum to served");
    }
}

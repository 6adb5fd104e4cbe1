//! Order statistics, correctness checks and the per-run result the
//! workloads hand back.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// Error type of the benchmark.
pub type BenchError = Box<dyn std::error::Error>;
/// Result alias of the benchmark.
pub type BenchResult<T> = Result<T, BenchError>;

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The fast decile (p10) of operation times. On a shared machine,
/// contention only ever slows an operation down, and it comes in spells of
/// seconds, so the fast end of a run's operations is the steady estimate of
/// what the code costs; the median moves with whichever spell a run hit.
pub fn fast_decile(times: &[f64]) -> f64 {
    percentile(times, 0.1)
}

/// Mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median wall time, in seconds, of `reps` calls of `f` after one untimed
/// warm-up call; the first error ends the timing.
pub fn median_time_s<E>(reps: usize, mut f: impl FnMut() -> Result<(), E>) -> BenchResult<f64>
where
    BenchError: From<E>,
{
    f()?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f()?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Set-ups per run.
const SETUP_REPS: usize = 15;

/// Times a workload's set-up [`SETUP_REPS`] times spread over the run: once
/// before the measured loop, then again each time the loop passes another
/// share of its seconds, so the set-up time samples the whole run the way
/// the operations do instead of the first instant of it.
pub struct Setups<F> {
    setup: F,
    every_s: f64,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> BenchResult<T>> Setups<F> {
    pub fn new(seconds: f64, setup: F) -> Self {
        Setups { setup, every_s: seconds / SETUP_REPS as f64, times: Vec::new() }
    }

    /// Runs and times one set-up.
    pub fn run(&mut self) -> BenchResult<T> {
        let start = Instant::now();
        let fixture = (self.setup)()?;
        self.times.push(start.elapsed().as_secs_f64());
        Ok(fixture)
    }

    /// Between two operations, `elapsed_s` into the loop: repeats the set-up
    /// (and drops what it built) when another one is due.
    pub fn between_operations(&mut self, elapsed_s: f64) -> BenchResult<()> {
        if self.times.len() < SETUP_REPS && elapsed_s >= self.times.len() as f64 * self.every_s {
            self.run()?;
        }
        Ok(())
    }

    /// Fast decile of the set-up times, seconds.
    pub fn fast_decile_s(&self) -> f64 {
        fast_decile(&self.times)
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Folds `values` into a digest with the workspace's seed-forking hash.
pub fn fold(digest: u64, values: &[u64]) -> u64 {
    ie_energy::fork_seed(digest, values)
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Failed correctness checks, by description.
    pub failed_checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured loop, seconds.
    pub loop_s: f64,
    /// Peak resident set size, read after a fixed number of operations so
    /// it does not depend on how many a run fits in.
    pub peak_rss_mb: f64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable side information (sample counts, digests).
    pub notes: Vec<String>,
}

impl Measured {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: impl Display) {
        self.notes.push(note.to_string());
    }
}

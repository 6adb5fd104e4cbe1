//! Harvested-power traces.

use crate::{EnergyError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Wraps `t_s` onto a trace of length `duration_s`. The result is bit for bit
/// `t_s.rem_euclid(duration_s)` for every input, but the `fmod` call behind
/// it is skipped when `0 <= t_s < duration_s`: `fmod` is exact and returns
/// `t_s` unchanged there, and traces wrap every sample they are asked for.
#[inline]
pub fn wrap_time(t_s: f64, duration_s: f64) -> f64 {
    if (0.0..duration_s).contains(&t_s) {
        t_s
    } else {
        t_s.rem_euclid(duration_s)
    }
}

/// Harvested power as a function of time.
///
/// Implementors must return non-negative power (milliwatts) for any time in
/// `[0, duration_s]`; queries beyond the duration wrap around (see
/// [`wrap_time`]), which lets the runtime loop over a day-long trace for
/// arbitrarily long experiments.
///
/// `power_mw` must be a pure function of `t_s`: [`Self::energy_mj`] samples
/// each grid point once and reuses it as the left end of the next step.
pub trait PowerTrace: std::fmt::Debug + Send + Sync {
    /// Instantaneous harvested power at time `t` seconds, in milliwatts.
    fn power_mw(&self, t_s: f64) -> f64;

    /// Length of the trace in seconds.
    fn duration_s(&self) -> f64;

    /// Harvested energy between `t0` and `t1` (both seconds), in millijoules,
    /// obtained by trapezoidal integration on a 1-second grid anchored at
    /// `t0`: whole 1-second steps while a whole second remains, then the
    /// partial remainder.
    ///
    /// Returns 0.0 when `t1 <= t0` and when either end is not finite (NaN or
    /// ±∞), so an unbounded interval cannot loop forever.
    fn energy_mj(&self, t0_s: f64, t1_s: f64) -> f64 {
        if !(t0_s.is_finite() && t1_s.is_finite()) || t1_s <= t0_s {
            return 0.0;
        }
        let mut total = 0.0;
        let mut t = t0_s;
        let mut p0 = self.power_mw(t);
        // While a whole second remains, the general step below would be
        // exactly 1.0 and its `* step` exact, so this loop adds the same bits
        // without computing either.
        while t1_s - t >= 1.0 {
            t += 1.0;
            let p1 = self.power_mw(t);
            total += 0.5 * (p0 + p1);
            p0 = p1;
        }
        while t < t1_s {
            let step = (t1_s - t).min(1.0);
            let p1 = self.power_mw(t + step);
            total += 0.5 * (p0 + p1) * step;
            t += step;
            p0 = p1;
        }
        total
    }

    /// Mean harvested power over the whole trace, in milliwatts.
    fn mean_power_mw(&self) -> f64 {
        let d = self.duration_s();
        if d <= 0.0 {
            0.0
        } else {
            self.energy_mj(0.0, d) / d
        }
    }
}

/// A constant-power trace (useful for tests and as a best-case baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantTrace {
    power_mw: f64,
    duration_s: f64,
}

impl ConstantTrace {
    /// Creates a trace that delivers `power_mw` for `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative.
    pub fn new(power_mw: f64, duration_s: f64) -> Self {
        assert!(power_mw >= 0.0 && duration_s >= 0.0, "power and duration must be non-negative");
        ConstantTrace { power_mw, duration_s }
    }
}

impl PowerTrace for ConstantTrace {
    fn power_mw(&self, _t_s: f64) -> f64 {
        self.power_mw
    }

    fn duration_s(&self) -> f64 {
        self.duration_s
    }
}

/// Builder for [`SolarTrace`].
#[derive(Debug, Clone)]
pub struct SolarTraceBuilder {
    peak_power_mw: f64,
    duration_s: f64,
    cloud_probability: f64,
    cloud_attenuation: f64,
    noise_fraction: f64,
    seed: u64,
}

impl Default for SolarTraceBuilder {
    fn default() -> Self {
        SolarTraceBuilder {
            peak_power_mw: 2.0,
            duration_s: 24.0 * 3600.0,
            cloud_probability: 0.25,
            cloud_attenuation: 0.15,
            noise_fraction: 0.1,
            seed: 0,
        }
    }
}

impl SolarTraceBuilder {
    /// Peak midday harvested power in milliwatts.
    pub fn peak_power_mw(mut self, p: f64) -> Self {
        self.peak_power_mw = p;
        self
    }

    /// Total trace duration in seconds (default: 24 h).
    pub fn duration_s(mut self, d: f64) -> Self {
        self.duration_s = d;
        self
    }

    /// Probability that any given minute is clouded over.
    pub fn cloud_probability(mut self, p: f64) -> Self {
        self.cloud_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Fraction of the clear-sky power that remains under cloud.
    pub fn cloud_attenuation(mut self, a: f64) -> Self {
        self.cloud_attenuation = a.clamp(0.0, 1.0);
        self
    }

    /// Relative standard deviation of the fast multiplicative noise.
    pub fn noise_fraction(mut self, n: f64) -> Self {
        self.noise_fraction = n.max(0.0);
        self
    }

    /// RNG seed; the same seed always produces the same trace.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Number of per-minute samples the trace holds: one per started minute
    /// of the duration, plus one.
    pub fn minute_count(&self) -> usize {
        (self.duration_s / 60.0).ceil() as usize + 1
    }

    /// Builds the trace by sampling the cloud/noise processes once per minute.
    pub fn build(self) -> SolarTrace {
        SolarTrace {
            samples: self.build_minutes(0..self.minute_count()),
            duration_s: self.duration_s,
        }
    }

    /// Builds only the samples of `minutes`, bit for bit
    /// `build().samples()[minutes]`; a range past the last minute stops
    /// there. Every earlier minute still draws its random values, so the
    /// cloud state and each kept minute's noise are the full build's, but
    /// nothing is computed or stored for it.
    // Inlined so that `build`'s constant start folds the skip loop away: an
    // out-of-line call made the full day about 1 % slower.
    #[inline]
    pub fn build_minutes(&self, minutes: Range<usize>) -> Vec<f64> {
        let end = minutes.end.min(self.minute_count());
        if minutes.start >= end {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut clouded = false;
        for _ in 0..minutes.start {
            clouded = self.next_cloud(&mut rng, clouded);
            rng.gen::<f64>(); // the skipped minute's noise
        }
        let mut samples = Vec::with_capacity(end - minutes.start);
        for m in minutes.start..end {
            clouded = self.next_cloud(&mut rng, clouded);
            let t = m as f64 * 60.0;
            // Diurnal clear-sky irradiance: half-sine over the middle of the day,
            // zero at night (first and last quarter of the 24 h cycle).
            let day_fraction = (t / (24.0 * 3600.0)).fract();
            let clear = if (0.25..0.75).contains(&day_fraction) {
                let x = (day_fraction - 0.25) / 0.5;
                (std::f64::consts::PI * x).sin()
            } else {
                0.0
            };
            let cloud_factor = if clouded { self.cloud_attenuation } else { 1.0 };
            let noise = 1.0 + self.noise_fraction * (rng.gen::<f64>() * 2.0 - 1.0);
            samples.push((self.peak_power_mw * clear * cloud_factor * noise).max(0.0));
        }
        samples
    }

    /// The next minute's cloud state. It persists with some stickiness so
    /// overcast periods last several minutes rather than flickering every
    /// sample.
    fn next_cloud(&self, rng: &mut StdRng, clouded: bool) -> bool {
        if rng.gen::<f64>() < 0.2 {
            rng.gen::<f64>() < self.cloud_probability
        } else {
            clouded
        }
    }
}

/// A synthetic solar harvesting trace: diurnal half-sine irradiance with
/// sticky cloud attenuation and fast multiplicative noise, sampled per minute.
///
/// This substitutes for the NREL Oak Ridge rotating-shadowband-radiometer
/// profile the paper uses; see `DESIGN.md` for the substitution argument.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarTrace {
    samples: Vec<f64>,
    duration_s: f64,
}

impl SolarTrace {
    /// Starts building a solar trace.
    pub fn builder() -> SolarTraceBuilder {
        SolarTraceBuilder::default()
    }

    /// The per-minute power samples backing the trace.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The sample that a trace of `minutes` samples over `duration_s` reads
    /// at `t_s`: the minute of the wrapped time, clamped to the last sample.
    /// `minutes` must be positive.
    #[inline]
    pub fn minute_index(t_s: f64, duration_s: f64, minutes: usize) -> usize {
        ((wrap_time(t_s, duration_s) / 60.0) as usize).min(minutes - 1)
    }
}

impl PowerTrace for SolarTrace {
    fn power_mw(&self, t_s: f64) -> f64 {
        if self.samples.is_empty() || self.duration_s <= 0.0 {
            return 0.0;
        }
        self.samples[Self::minute_index(t_s, self.duration_s, self.samples.len())]
    }

    fn duration_s(&self) -> f64 {
        self.duration_s
    }
}

/// A kinetic-harvesting style trace: near-zero baseline with short random
/// bursts of power (e.g. footsteps for a wearable).
#[derive(Debug, Clone, PartialEq)]
pub struct KineticBurstTrace {
    samples: Vec<f64>,
    duration_s: f64,
}

impl KineticBurstTrace {
    /// Creates a burst trace of the given duration where each second has the
    /// given probability of carrying a burst of `burst_power_mw`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` or `burst_power_mw` is negative.
    pub fn new(duration_s: f64, burst_probability: f64, burst_power_mw: f64, seed: u64) -> Self {
        assert!(duration_s >= 0.0 && burst_power_mw >= 0.0, "negative duration or power");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = duration_s.ceil() as usize + 1;
        let p = burst_probability.clamp(0.0, 1.0);
        let samples = (0..n)
            .map(|_| if rng.gen::<f64>() < p { burst_power_mw } else { 0.02 * burst_power_mw })
            .collect();
        KineticBurstTrace { samples, duration_s }
    }
}

impl PowerTrace for KineticBurstTrace {
    fn power_mw(&self, t_s: f64) -> f64 {
        if self.samples.is_empty() || self.duration_s <= 0.0 {
            return 0.0;
        }
        let t = wrap_time(t_s, self.duration_s);
        self.samples[(t as usize).min(self.samples.len() - 1)]
    }

    fn duration_s(&self) -> f64 {
        self.duration_s
    }
}

/// A stochastic energy-arrival trace: discrete energy packets arrive as a
/// Poisson process (exponential inter-arrival gaps) and each delivers a fixed
/// power for a short hold time — the ambient-RF / wireless-power-transfer
/// regime of "Energy-Aware Dynamic Neural Inference" (arXiv 2411.02471),
/// where harvested energy shows up in bursts with memoryless timing rather
/// than on a diurnal schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticArrivalTrace {
    samples: Vec<f64>,
    duration_s: f64,
}

impl StochasticArrivalTrace {
    /// Creates a trace of the given duration where packets arrive with
    /// exponential gaps of mean `mean_gap_s`, each delivering
    /// `packet_power_mw` for `packet_hold_s` seconds (overlapping packets
    /// stack). The trace is sampled per second like the other synthetic
    /// generators, so the same seed always reproduces the same packets.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` or `packet_power_mw` is negative, or if
    /// `mean_gap_s` is not positive.
    pub fn new(
        duration_s: f64,
        mean_gap_s: f64,
        packet_power_mw: f64,
        packet_hold_s: f64,
        seed: u64,
    ) -> Self {
        assert!(duration_s >= 0.0 && packet_power_mw >= 0.0, "negative duration or power");
        assert!(mean_gap_s > 0.0, "mean inter-arrival gap must be positive");
        let n = duration_s.ceil() as usize + 1;
        let mut samples = vec![0.0; n];
        let hold = packet_hold_s.max(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        loop {
            // Inverse-CDF exponential draw; 1 - u keeps the log argument in
            // (0, 1] so the gap is always finite and positive.
            let u: f64 = rng.gen();
            t += -mean_gap_s * (1.0 - u).ln();
            if t >= duration_s {
                break;
            }
            let start = t as usize;
            let end = ((t + hold).ceil() as usize).min(n);
            for sample in &mut samples[start..end] {
                *sample += packet_power_mw;
            }
        }
        StochasticArrivalTrace { samples, duration_s }
    }
}

impl PowerTrace for StochasticArrivalTrace {
    fn power_mw(&self, t_s: f64) -> f64 {
        if self.samples.is_empty() || self.duration_s <= 0.0 {
            return 0.0;
        }
        let t = wrap_time(t_s, self.duration_s);
        self.samples[(t as usize).min(self.samples.len() - 1)]
    }

    fn duration_s(&self) -> f64 {
        self.duration_s
    }
}

/// A trace defined by explicit `(time_s, power_mw)` samples with
/// piecewise-linear interpolation. Can be parsed from two-column CSV text, so
/// real measured profiles (e.g. the NREL data) can be dropped in.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseTrace {
    points: Vec<(f64, f64)>,
}

impl PiecewiseTrace {
    /// Creates a trace from `(time_s, power_mw)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidTrace`] when fewer than two points are
    /// given, times are not strictly increasing, or any power is negative.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self> {
        if points.len() < 2 {
            return Err(EnergyError::InvalidTrace("need at least two samples".into()));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(EnergyError::InvalidTrace("times must be strictly increasing".into()));
            }
        }
        if points.iter().any(|&(_, p)| p < 0.0) {
            return Err(EnergyError::InvalidTrace("power must be non-negative".into()));
        }
        Ok(PiecewiseTrace { points })
    }

    /// Parses two-column CSV text (`time_s,power_mw`), ignoring empty lines
    /// and lines starting with `#`.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::InvalidTrace`] for malformed rows or traces that
    /// violate [`Self::from_points`]'s requirements.
    pub fn from_csv(text: &str) -> Result<Self> {
        let mut points = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cols = line.split(',');
            let t = cols.next().and_then(|c| c.trim().parse::<f64>().ok()).ok_or_else(|| {
                EnergyError::InvalidTrace(format!("bad time on line {}", lineno + 1))
            })?;
            let p = cols.next().and_then(|c| c.trim().parse::<f64>().ok()).ok_or_else(|| {
                EnergyError::InvalidTrace(format!("bad power on line {}", lineno + 1))
            })?;
            points.push((t, p));
        }
        Self::from_points(points)
    }
}

impl PowerTrace for PiecewiseTrace {
    fn power_mw(&self, t_s: f64) -> f64 {
        let duration = self.duration_s();
        let t = if duration > 0.0 { wrap_time(t_s, duration) + self.points[0].0 } else { t_s };
        if t <= self.points[0].0 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            if t <= t1 {
                let alpha = (t - t0) / (t1 - t0);
                return p0 + alpha * (p1 - p0);
            }
        }
        self.points.last().map(|&(_, p)| p).unwrap_or(0.0)
    }

    fn duration_s(&self) -> f64 {
        self.points.last().map(|&(t, _)| t).unwrap_or(0.0)
            - self.points.first().map(|&(t, _)| t).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_integrates_exactly() {
        let t = ConstantTrace::new(2.0, 100.0);
        assert_eq!(t.power_mw(50.0), 2.0);
        assert!((t.energy_mj(0.0, 10.0) - 20.0).abs() < 1e-9);
        assert!((t.mean_power_mw() - 2.0).abs() < 1e-9);
        assert_eq!(t.energy_mj(10.0, 10.0), 0.0);
        assert_eq!(t.energy_mj(10.0, 5.0), 0.0);
    }

    #[test]
    fn non_finite_ends_integrate_to_zero() {
        // Stepping towards an infinite end would count seconds until
        // `t + 1.0 == t` and then never finish.
        let t = SolarTrace::builder().seed(1).build();
        assert_eq!(t.energy_mj(f64::NEG_INFINITY, 0.0), 0.0);
        assert_eq!(t.energy_mj(0.0, f64::INFINITY), 0.0);
        assert_eq!(t.energy_mj(f64::NAN, 10.0), 0.0);
        assert_eq!(t.energy_mj(0.0, f64::NAN), 0.0);
    }

    #[test]
    fn solar_trace_is_dark_at_night_and_bright_at_noon() {
        let t = SolarTrace::builder().seed(1).cloud_probability(0.0).build();
        let midnight = t.power_mw(0.0);
        let noon = t.power_mw(12.0 * 3600.0);
        assert!(midnight < 1e-9, "midnight power {midnight}");
        assert!(noon > 1.0, "noon power {noon}");
    }

    #[test]
    fn solar_trace_is_reproducible_and_seed_sensitive() {
        let a = SolarTrace::builder().seed(5).build();
        let b = SolarTrace::builder().seed(5).build();
        let c = SolarTrace::builder().seed(6).build();
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn solar_trace_wraps_beyond_duration() {
        let t = SolarTrace::builder().seed(2).duration_s(3600.0).build();
        let p_wrapped = t.power_mw(3600.0 + 30.0);
        let p_direct = t.power_mw(30.0);
        assert!((p_wrapped - p_direct).abs() < 1e-12);
    }

    #[test]
    fn clouds_reduce_harvested_energy() {
        let clear =
            SolarTrace::builder().seed(3).cloud_probability(0.0).noise_fraction(0.0).build();
        let cloudy = SolarTrace::builder()
            .seed(3)
            .cloud_probability(0.9)
            .cloud_attenuation(0.1)
            .noise_fraction(0.0)
            .build();
        let e_clear = clear.energy_mj(0.0, clear.duration_s());
        let e_cloudy = cloudy.energy_mj(0.0, cloudy.duration_s());
        assert!(e_cloudy < e_clear * 0.8, "cloudy {e_cloudy} vs clear {e_clear}");
    }

    #[test]
    fn kinetic_trace_has_bursts() {
        let seed = crate::test_support::seeded_rng(None).gen();
        let t = KineticBurstTrace::new(1000.0, 0.3, 5.0, seed);
        let energies: Vec<f64> = (0..1000).map(|s| t.power_mw(s as f64)).collect();
        let bursts = energies.iter().filter(|&&p| p > 4.0).count();
        assert!(bursts > 100 && bursts < 600, "burst count {bursts}");
    }

    #[test]
    fn randomised_traces_are_reproducible_across_runs() {
        // Trace seeds are drawn through the shared seeded helper, so this test
        // exercises the same construction path twice and must see identical
        // stochastic traces — the reproducibility contract of the whole suite.
        let mut rng = crate::test_support::seeded_rng(None);
        for _ in 0..5 {
            let seed = rng.gen();
            let a = SolarTrace::builder().seed(seed).build();
            let b = SolarTrace::builder().seed(seed).build();
            assert_eq!(a.samples(), b.samples());
            let k1 = KineticBurstTrace::new(500.0, 0.2, 4.0, seed);
            let k2 = KineticBurstTrace::new(500.0, 0.2, 4.0, seed);
            assert_eq!(k1, k2);
        }
    }

    #[test]
    fn stochastic_arrival_trace_is_reproducible_and_seed_sensitive() {
        let a = StochasticArrivalTrace::new(600.0, 20.0, 3.0, 2.0, 9);
        let b = StochasticArrivalTrace::new(600.0, 20.0, 3.0, 2.0, 9);
        let c = StochasticArrivalTrace::new(600.0, 20.0, 3.0, 2.0, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stochastic_arrival_rate_matches_mean_gap() {
        // ~duration / mean_gap packets, each hold_s × power_mw millijoules.
        let t = StochasticArrivalTrace::new(20_000.0, 25.0, 4.0, 2.0, 3);
        let expected = 20_000.0 / 25.0 * 4.0 * 2.0;
        let total = t.energy_mj(0.0, t.duration_s());
        assert!(
            total > 0.5 * expected && total < 2.0 * expected,
            "harvested {total} mJ vs expected ≈ {expected} mJ"
        );
        // Most seconds are dark: arrivals are sparse bursts, not a baseline.
        let dark = (0..20_000).filter(|&s| t.power_mw(s as f64) == 0.0).count();
        assert!(dark > 10_000, "only {dark} dark seconds");
    }

    #[test]
    fn stochastic_arrival_trace_wraps_beyond_duration() {
        let t = StochasticArrivalTrace::new(500.0, 10.0, 2.0, 1.0, 7);
        assert_eq!(t.power_mw(500.0 + 42.0).to_bits(), t.power_mw(42.0).to_bits());
    }

    #[test]
    fn piecewise_trace_interpolates_linearly() {
        let t = PiecewiseTrace::from_points(vec![(0.0, 0.0), (10.0, 10.0), (20.0, 0.0)]).unwrap();
        assert!((t.power_mw(5.0) - 5.0).abs() < 1e-9);
        assert!((t.power_mw(15.0) - 5.0).abs() < 1e-9);
        assert_eq!(t.duration_s(), 20.0);
    }

    #[test]
    fn piecewise_trace_validates_input() {
        assert!(PiecewiseTrace::from_points(vec![(0.0, 1.0)]).is_err());
        assert!(PiecewiseTrace::from_points(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(PiecewiseTrace::from_points(vec![(0.0, 1.0), (1.0, -2.0)]).is_err());
    }

    #[test]
    fn csv_parsing_skips_comments_and_rejects_garbage() {
        let t = PiecewiseTrace::from_csv("# header\n0,1.0\n\n10,2.0\n20,0.5\n").unwrap();
        assert_eq!(t.duration_s(), 20.0);
        assert!(PiecewiseTrace::from_csv("0,abc\n1,2\n").is_err());
        assert!(PiecewiseTrace::from_csv("justonecolumn\n").is_err());
    }
}

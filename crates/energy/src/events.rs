//! Generation of "interesting event" arrivals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One event that must be classified by the sensor node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Sequential event identifier.
    pub id: usize,
    /// Arrival time in seconds from the start of the power trace.
    pub time_s: f64,
}

/// How event arrival times are distributed over the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventDistribution {
    /// Arrival times drawn independently and uniformly over the duration
    /// (the paper's "randomly distributed" events).
    Uniform,
    /// Poisson process: exponential inter-arrival times with the rate implied
    /// by the requested event count, truncated to the duration.
    Poisson,
    /// Events clustered around the given fractions of the trace duration,
    /// with the given relative spread — models bursty activity (e.g. wildlife
    /// most active at dawn and dusk).
    Clustered {
        /// Cluster centre as a fraction of the duration, in `[0, 1]`.
        center_fraction: f64,
        /// Standard deviation as a fraction of the duration.
        spread_fraction: f64,
    },
}

/// Generates reproducible event arrival sequences.
#[derive(Debug, Clone)]
pub struct EventGenerator {
    distribution: EventDistribution,
    seed: u64,
}

impl EventGenerator {
    /// Creates a generator with the given distribution and seed.
    pub fn new(distribution: EventDistribution, seed: u64) -> Self {
        EventGenerator { distribution, seed }
    }

    /// Generates `count` events over `[0, duration_s)`, sorted by time.
    pub fn generate(&self, count: usize, duration_s: f64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut times: Vec<f64> = match self.distribution {
            EventDistribution::Uniform => {
                (0..count).map(|_| rng.gen::<f64>() * duration_s).collect()
            }
            EventDistribution::Poisson => {
                let rate = count as f64 / duration_s.max(f64::EPSILON);
                let mut t = 0.0;
                let mut v = Vec::with_capacity(count);
                while v.len() < count {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / rate;
                    if t >= duration_s {
                        // Wrap around so exactly `count` events are produced.
                        t = rng.gen::<f64>() * duration_s;
                    }
                    v.push(t);
                }
                v
            }
            EventDistribution::Clustered { center_fraction, spread_fraction } => {
                let center = center_fraction.clamp(0.0, 1.0) * duration_s;
                let spread = spread_fraction.max(1e-6) * duration_s;
                (0..count)
                    .map(|_| {
                        // Box–Muller normal sample.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        (center + z * spread).clamp(0.0, duration_s - f64::EPSILON)
                    })
                    .collect()
            }
        };
        times.sort_by(|a, b| a.partial_cmp(b).expect("event times are finite"));
        times.into_iter().enumerate().map(|(id, time_s)| Event { id, time_s }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_events_are_sorted_in_range_and_reproducible() {
        let g = EventGenerator::new(EventDistribution::Uniform, 42);
        let events = g.generate(500, 86_400.0);
        assert_eq!(events.len(), 500);
        assert!(events.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(events.iter().all(|e| (0.0..86_400.0).contains(&e.time_s)));
        assert_eq!(events, g.generate(500, 86_400.0));
        let other = EventGenerator::new(EventDistribution::Uniform, 43).generate(500, 86_400.0);
        assert_ne!(events, other);
    }

    #[test]
    fn ids_are_sequential_after_sorting() {
        let g = EventGenerator::new(EventDistribution::Uniform, 1);
        let events = g.generate(10, 100.0);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.id, i);
        }
    }

    #[test]
    fn poisson_generates_requested_count() {
        let g = EventGenerator::new(EventDistribution::Poisson, 7);
        let events = g.generate(200, 10_000.0);
        assert_eq!(events.len(), 200);
        assert!(events.iter().all(|e| e.time_s < 10_000.0));
    }

    #[test]
    fn clustered_events_concentrate_around_the_center() {
        let g = EventGenerator::new(
            EventDistribution::Clustered { center_fraction: 0.5, spread_fraction: 0.05 },
            3,
        );
        let events = g.generate(400, 1_000.0);
        let near_center = events.iter().filter(|e| (e.time_s - 500.0).abs() < 150.0).count() as f64;
        assert!(near_center / 400.0 > 0.9, "only {near_center} events near the cluster centre");
    }

    #[test]
    fn zero_events_is_fine() {
        let g = EventGenerator::new(EventDistribution::Uniform, 0);
        assert!(g.generate(0, 100.0).is_empty());
    }
}

//! Property-based tests of the energy-harvesting substrate.

use ie_energy::test_support::seeded_rng;
use ie_energy::{
    fork_rng, fork_seed, wrap_time, ConstantTrace, EnergyStorage, EventDistribution,
    EventGenerator, HarvestSimulator, KineticBurstTrace, PowerTrace, SolarTrace,
    StochasticArrivalTrace,
};
use proptest::prelude::*;
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The oracle of the trace integral: the plain 1-second trapezoid, sampling
/// both ends of every step and taking `(t1 - t).min(1.0)` each time.
/// `PowerTrace::energy_mj` must match it bit for bit.
fn reference_energy_mj(trace: &dyn PowerTrace, t0_s: f64, t1_s: f64) -> f64 {
    if t1_s <= t0_s {
        return 0.0;
    }
    let mut total = 0.0;
    let mut t = t0_s;
    while t < t1_s {
        let step = (t1_s - t).min(1.0);
        let p0 = trace.power_mw(t);
        let p1 = trace.power_mw(t + step);
        total += 0.5 * (p0 + p1) * step;
        t += step;
    }
    total
}

/// One trace of every kind: the paper's day-long solar trace (seed 17, peak
/// 0.012 mW), a short solar trace that wraps at a fractional second, and the
/// fleet's 30-minute kinetic and stochastic traces. The solar days start at
/// midnight, at 0 mW.
fn oracle_traces() -> Vec<Box<dyn PowerTrace>> {
    vec![
        Box::new(ConstantTrace::new(1.3, 86_400.0)),
        Box::new(SolarTrace::builder().seed(17).peak_power_mw(0.012).build()),
        Box::new(SolarTrace::builder().seed(5).duration_s(7.0 * 3600.0 + 0.5).build()),
        Box::new(KineticBurstTrace::new(1800.0, 0.3, 0.4, 11)),
        Box::new(StochasticArrivalTrace::new(1800.0, 120.0, 0.5, 3.0, 12)),
    ]
}

/// The oracle of the charging efficiency: the simulator's former eager
/// peak scan (513 samples over the trace, done at construction) and its
/// efficiency formula over the 600 s window.
fn reference_efficiency(trace: &dyn PowerTrace, now_s: f64) -> f64 {
    let duration = trace.duration_s().max(1.0);
    let mut peak: f64 = 0.0;
    let samples = 512;
    for i in 0..=samples {
        peak = peak.max(trace.power_mw(duration * i as f64 / samples as f64));
    }
    let peak = peak.max(1e-9);
    let t0 = (now_s - 600.0).max(0.0);
    let window = (now_s - t0).max(1e-9);
    let mean = trace.energy_mj(t0, now_s.max(t0 + 1e-9)) / window;
    (mean / peak).clamp(0.0, 1.0)
}

/// A constant 1 mW hour that counts its `power_mw` calls.
#[derive(Debug)]
struct CountingTrace {
    calls: Arc<AtomicUsize>,
}

impl PowerTrace for CountingTrace {
    fn power_mw(&self, _t_s: f64) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        1.0
    }

    fn duration_s(&self) -> f64 {
        3600.0
    }
}

/// The peak is estimated on the first efficiency read, not in `new`: the
/// first read costs the 513-sample scan plus its window, a second read at
/// the same time only its window (601 samples for the default 600 s).
#[test]
fn the_peak_is_sampled_on_the_first_efficiency_read_only() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<HarvestSimulator>();

    let calls = Arc::new(AtomicUsize::new(0));
    let count = || calls.load(Ordering::Relaxed);
    let mut sim = HarvestSimulator::new(
        Box::new(CountingTrace { calls: Arc::clone(&calls) }),
        EnergyStorage::new(10.0, 1.0),
    );
    assert_eq!(count(), 0, "construction must not sample the trace");
    sim.advance_to(1000.0);
    let before = count();
    let first = sim.charging_efficiency();
    let first_calls = count() - before;
    let second = sim.charging_efficiency();
    let second_calls = count() - before - first_calls;
    assert_eq!(first.to_bits(), second.to_bits());
    assert_eq!(second_calls, 601, "a later read integrates only its window");
    assert_eq!(first_calls, second_calls + 513, "the first read adds the peak scan");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lazily estimated peak gives the eager oracle's efficiency bit for
    /// bit on every trace kind, one of which starts dark: at t = 0 before any
    /// advance, and along a random advance schedule that runs past the
    /// trace's duration.
    #[test]
    fn charging_efficiency_matches_the_eager_oracle_bit_for_bit(
        hops in proptest::collection::vec(0.0f64..0.4, 0..10),
        past in 1.0f64..3.0,
    ) {
        let traces = oracle_traces();
        prop_assert!(traces.iter().any(|t| t.power_mw(0.0) == 0.0), "no trace starts at 0 mW");
        for trace in traces {
            let d = trace.duration_s();
            let mut sim = HarvestSimulator::new(trace, EnergyStorage::new(10.0, 0.9));
            let mut times = vec![0.0];
            let mut t = 0.0;
            for hop in &hops {
                t += hop * d;
                times.push(t);
            }
            times.push(t.max(past * d));
            for t in times {
                sim.advance_to(t);
                let got = sim.charging_efficiency();
                let want = reference_efficiency(sim.trace(), sim.now_s());
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} at {}: {} vs oracle {}", sim.trace(), t, got, want
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trapezoidal energy integration is additive over adjacent intervals and
    /// non-negative for every trace type.
    #[test]
    fn trace_energy_is_additive_and_nonnegative(seed in 0u64..50, t0 in 0.0f64..40_000.0, dt1 in 1.0f64..20_000.0, dt2 in 1.0f64..20_000.0) {
        let traces: Vec<Box<dyn PowerTrace>> = vec![
            Box::new(ConstantTrace::new(1.3, 86_400.0)),
            Box::new(SolarTrace::builder().seed(seed).build()),
        ];
        for trace in &traces {
            let a = trace.energy_mj(t0, t0 + dt1);
            let b = trace.energy_mj(t0 + dt1, t0 + dt1 + dt2);
            let whole = trace.energy_mj(t0, t0 + dt1 + dt2);
            prop_assert!(a >= 0.0 && b >= 0.0);
            // The trapezoidal integrator samples on a 1-second grid anchored at
            // the interval start, so splitting an interval shifts the grid and
            // additivity only holds up to the discretisation error (bounded by
            // a couple of samples around the split point and the trace's
            // per-minute steps).
            prop_assert!(
                (a + b - whole).abs() < 1e-3 * (1.0 + whole) + 0.1,
                "additivity: {a} + {b} vs {whole}"
            );
        }
    }

    /// The storage level never exceeds the capacity and never goes negative,
    /// and the stored energy never exceeds efficiency × harvested energy.
    #[test]
    fn storage_never_creates_energy(
        capacity in 1.0f64..50.0,
        efficiency in 0.1f64..1.0,
        steps in proptest::collection::vec((0.0f64..5.0, 0.0f64..5.0), 1..100),
    ) {
        let mut storage = EnergyStorage::new(capacity, efficiency);
        let mut harvested = 0.0;
        let mut consumed = 0.0;
        for (h, c) in steps {
            harvested += h;
            storage.harvest(h);
            if storage.can_supply(c) {
                storage.consume(c).expect("supply was checked");
                consumed += c;
            }
            prop_assert!(storage.level_mj() >= -1e-12);
            prop_assert!(storage.level_mj() <= capacity + 1e-9);
        }
        prop_assert!(consumed <= harvested * efficiency + 1e-6, "cannot consume more than was stored");
        prop_assert!(storage.conservation_error_mj() < 1e-6);
    }

    /// Event generation always produces the requested number of sorted,
    /// in-range events for every distribution.
    #[test]
    fn event_generation_is_well_formed(count in 0usize..300, duration in 10.0f64..100_000.0, seed in 0u64..100) {
        for distribution in [
            EventDistribution::Uniform,
            EventDistribution::Poisson,
            EventDistribution::Clustered { center_fraction: 0.4, spread_fraction: 0.1 },
        ] {
            let events = EventGenerator::new(distribution, seed).generate(count, duration);
            prop_assert_eq!(events.len(), count);
            prop_assert!(events.windows(2).all(|w| w[0].time_s <= w[1].time_s));
            prop_assert!(events.iter().all(|e| e.time_s >= 0.0 && e.time_s < duration));
            prop_assert!(events.iter().enumerate().all(|(i, e)| e.id == i));
        }
    }

    /// Advancing the harvest simulator monotonically accumulates time and the
    /// charging-efficiency observable stays in [0, 1].
    #[test]
    fn simulator_time_and_efficiency_are_sane(seed in 0u64..30, hops in proptest::collection::vec(0.0f64..5_000.0, 1..40)) {
        let mut sim = HarvestSimulator::new(
            Box::new(SolarTrace::builder().seed(seed).build()),
            EnergyStorage::new(10.0, 0.9),
        );
        let mut t = 0.0;
        for hop in hops {
            t += hop;
            sim.advance_to(t);
            prop_assert!((sim.now_s() - t).abs() < 1e-9);
            let eff = sim.charging_efficiency();
            prop_assert!((0.0..=1.0).contains(&eff));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `energy_mj` equals the oracle bit for bit on every trace kind. Starts
    /// come from `[-2d, 3d]` (negative and wrapped times), from whole
    /// seconds, and from just below 2^8..2^17, where `t + 1.0` rounds; lengths
    /// are under a second, whole seconds, or up to two days.
    #[test]
    fn energy_matches_the_two_sample_oracle_bit_for_bit(
        start_kind in 0u8..3,
        position in 0.0f64..1.0,
        power in 8i32..18,
        below in 0.0f64..4.0,
        length_kind in 0u8..3,
        fraction in 0.0f64..1.0,
        seconds in 0u32..4_000,
    ) {
        for trace in &oracle_traces() {
            let d = trace.duration_s();
            let t0 = match start_kind {
                0 => -2.0 * d + 5.0 * d * position,
                1 => (-2.0 * d + 5.0 * d * position).floor(),
                _ => 2f64.powi(power) - below,
            };
            let length = match length_kind {
                0 => fraction,
                1 => f64::from(seconds),
                _ => 2.0 * 86_400.0 * fraction,
            };
            let t1 = t0 + length;
            let got = trace.energy_mj(t0, t1);
            let want = reference_energy_mj(trace.as_ref(), t0, t1);
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?} over [{}, {}]: {} vs oracle {}", trace, t0, t1, got, want
            );
        }
    }

    /// `wrap_time` is `rem_euclid` bit for bit: at the edges of the range
    /// (signed zeros, `d` and just below it, `-d`), at non-finite and
    /// subnormal times, in range, and for random bit patterns of both the
    /// time and the duration.
    #[test]
    fn wrap_time_is_rem_euclid_bit_for_bit(
        t_bits in any::<u64>(),
        d_bits in any::<u64>(),
        position in 0.0f64..1.0,
    ) {
        let random_d = f64::from_bits(d_bits);
        let subnormal = f64::from_bits(t_bits & 0x000f_ffff_ffff_ffff);
        for d in [86_400.0, 1800.0, 7.0 * 3600.0 + 0.5, 1.0, f64::MIN_POSITIVE, random_d] {
            for t in [
                -0.0,
                0.0,
                d,
                d.next_down(),
                -d,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                subnormal,
                -subnormal,
                position * d,
                f64::from_bits(t_bits),
            ] {
                prop_assert_eq!(
                    wrap_time(t, d).to_bits(),
                    t.rem_euclid(d).to_bits(),
                    "wrap_time({:e}, {:e})", t, d
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bookkeeping contract mirrored by the cross-crate
    /// `metrics_are_consistent_across_every_system` test, checked directly on
    /// the storage: the level stays in `[0, capacity]` at every step, total
    /// consumption never exceeds `efficiency × harvested + initial`, and the
    /// conservation identity (initial + stored = level + consumed,
    /// stored + wasted = harvested) closes.
    #[test]
    fn storage_bookkeeping_matches_the_metrics_contract(
        initial in 0.0f64..30.0,
        capacity in 1.0f64..50.0,
        efficiency in 0.1f64..1.0,
        ops in proptest::collection::vec((0.0f64..4.0, 0.0f64..3.0), 1..150),
    ) {
        let mut storage = EnergyStorage::new(capacity, efficiency).with_initial_level(initial);
        let initial_level = storage.initial_level_mj();
        prop_assert!(initial_level <= capacity + 1e-12);
        for (harvest, consume) in ops {
            storage.harvest(harvest);
            if storage.can_supply(consume) {
                storage.consume(consume).expect("supply was checked");
            }
            prop_assert!(storage.level_mj() >= 0.0, "level must never go negative");
            prop_assert!(storage.level_mj() <= capacity + 1e-9, "level must never exceed capacity");
            prop_assert!(
                storage.total_consumed_mj()
                    <= storage.total_harvested_mj() * efficiency + initial_level + 1e-6,
                "consumed {} must not exceed stored-side supply {}",
                storage.total_consumed_mj(),
                storage.total_harvested_mj() * efficiency + initial_level
            );
            prop_assert!(storage.total_wasted_mj() >= -1e-12);
        }
        prop_assert!(storage.conservation_error_mj() < 1e-6);
    }

    /// Hierarchical RNG forks for distinct device paths never collide on the
    /// first 64 draws: the streams of any two different `[device, purpose]`
    /// paths under the same master seed are pairwise distinct, and so are the
    /// streams of the same path under different masters.
    #[test]
    fn distinct_fork_paths_never_collide_on_the_first_64_draws(
        master in any::<u64>(),
        device_a in 0u64..1_000_000,
        device_b in 0u64..1_000_000,
        purpose_a in 0u64..8,
        purpose_b in 0u64..8,
    ) {
        prop_assume!((device_a, purpose_a) != (device_b, purpose_b));
        let draws = |mut rng: rand::rngs::StdRng| -> Vec<u64> {
            (0..64).map(|_| rng.next_u64()).collect()
        };
        let a = draws(fork_rng(master, &[device_a, purpose_a]));
        let b = draws(fork_rng(master, &[device_b, purpose_b]));
        prop_assert_ne!(&a, &b, "distinct paths must yield distinct streams");
        // Replaying the same path reproduces the stream bit-for-bit.
        prop_assert_eq!(&a, &draws(fork_rng(master, &[device_a, purpose_a])));
        // A different master decorrelates even an identical path.
        let other = draws(fork_rng(master.wrapping_add(1), &[device_a, purpose_a]));
        prop_assert_ne!(&a, &other);
        prop_assert_ne!(
            fork_seed(master, &[device_a, purpose_a]),
            fork_seed(master, &[device_b, purpose_b])
        );
    }

    /// Generated solar traces are physical: every sample is non-negative and
    /// bounded by the configured peak (up to the multiplicative noise), and
    /// the trace integrates to a non-negative daily energy. Seeds come from
    /// the shared seeded helper so reruns see the same traces.
    #[test]
    fn solar_trace_generation_is_physical(offset in 0u64..1000, noise in 0.0f64..0.5) {
        let seed = seeded_rng(None).gen::<u64>().wrapping_add(offset);
        let trace = SolarTrace::builder().seed(seed).noise_fraction(noise).build();
        let peak_bound = 2.0 * (1.0 + 6.0 * noise) + 1e-9;
        for (i, &p) in trace.samples().iter().enumerate() {
            prop_assert!(p >= 0.0, "sample {i} is negative: {p}");
            prop_assert!(p <= peak_bound, "sample {i} exceeds the noisy peak bound: {p}");
        }
        let daily = trace.energy_mj(0.0, trace.duration_s());
        prop_assert!(daily >= 0.0);
        prop_assert!((trace.mean_power_mw() - daily / trace.duration_s()).abs() < 1e-9);
    }

    /// A minute-range build holds exactly the full build's samples of those
    /// minutes: the skipped minutes draw what the full build draws, so the
    /// cloud state and the noise of every kept minute match bit for bit.
    /// The ranges cover the empty range, one minute, the first and the last
    /// minute, the whole trace, an arbitrary span and one that runs past the
    /// end.
    #[test]
    fn minute_range_build_matches_the_full_build_bit_for_bit(
        seed in any::<u64>(),
        peak in 0.001f64..5.0,
        cloud_probability in 0.0f64..1.0,
        cloud_attenuation in 0.0f64..1.0,
        noise in 0.0f64..1.5,
        whole_day in proptest::bool::ANY,
        duration in 60.0f64..200_000.0,
        (a, b) in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let duration = if whole_day { 86_400.0 } else { duration };
        let builder = SolarTrace::builder()
            .seed(seed)
            .peak_power_mw(peak)
            .cloud_probability(cloud_probability)
            .cloud_attenuation(cloud_attenuation)
            .noise_fraction(noise)
            .duration_s(duration);
        let full = builder.clone().build();
        let n = full.samples().len();
        prop_assert_eq!(n, builder.minute_count());
        let (lo, hi) = ((a.min(b) * n as f64) as usize, (a.max(b) * n as f64) as usize);
        let bits = |samples: &[f64]| samples.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for range in [lo..lo, lo..lo + 1, 0..1, n - 1..n, 0..n, lo..hi] {
            let want = bits(&full.samples()[range.clone()]);
            prop_assert_eq!(bits(&builder.build_minutes(range.clone())), want, "{:?}", range);
        }
        prop_assert_eq!(bits(&builder.build_minutes(lo..n + 3)), bits(&full.samples()[lo..]));
    }
}

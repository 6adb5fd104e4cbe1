//! Deterministic chaos injection for the serving loop.
//!
//! A [`ChaosPlan`] injects three failure modes into the server — worker
//! panics, worker stalls, and arrival bursts — all derived from one master
//! seed via [`ie_energy::fork_seed`], the same hierarchical scheme PR 7's
//! `FaultPlan` uses for crash injection. Every decision is keyed on **what**
//! is being perturbed (a batch index and its retry attempt, a submission
//! index) and never on *who* runs it (worker id) or *when* (wall clock), so
//! in replay mode a fixed seed produces byte-identical outcomes across
//! 1 vs N workers and across repeated runs — which is what lets CI diff
//! chaos runs the way it already diffs fault-free ones.
//!
//! Injected panics carry a [`ChaosPanic`] payload thrown with
//! [`std::panic::panic_any`], and the server installs (once, chaining the
//! previous hook) a panic hook that silences exactly that payload type:
//! chaos runs stay byte-identical on stderr too, while every *real* panic
//! still prints through the prior hook.

use ie_energy::fork_rng;
use rand::Rng;
use std::sync::OnceLock;

/// Path components separating the chaos decision streams under the master
/// seed (the `purpose` level of the fork hierarchy).
const KIND_PANIC: u64 = 0;
const KIND_STALL: u64 = 1;
const KIND_BURST: u64 = 2;

/// Payload type of an injected worker panic. Public so embedders can
/// recognise chaos panics in their own hooks; the server's supervision loop
/// treats it like any other worker loss.
#[derive(Debug)]
pub struct ChaosPanic {
    /// The perturbation key (batch index in replay, head request id live).
    pub key: u64,
    /// The retry attempt the panic was injected into.
    pub attempt: u32,
}

/// A seeded, deterministic chaos-injection schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Master seed; 0 disables every injection.
    pub seed: u64,
    /// Probability that a batch's worker panics mid-batch (drawn per
    /// batch key — by default only on the first attempt, so supervision
    /// always recovers within one retry).
    pub panic_probability: f64,
    /// Probability that a worker stalls (sleeps) before serving a batch.
    pub stall_probability: f64,
    /// Probability that a given arrival opens a burst (subsequent arrivals
    /// collapse onto it).
    pub burst_probability: f64,
    /// How many arrivals a burst collapses together.
    pub burst_len: usize,
    /// Upper bound on an injected stall, in milliseconds (kept small so
    /// chaos tests stay fast; the stall is a liveness probe, not a load
    /// test).
    pub stall_max_ms: u64,
    /// When `true`, the panic draw is repeated on every retry attempt —
    /// a batch that draws a panic panics again on its retry, and its members
    /// are shed. Off by default (panics hit only attempt 0), used by tests
    /// that exercise the [`RetryExhausted`](crate::ShedReason) path.
    pub panic_every_attempt: bool,
}

impl ChaosPlan {
    /// The no-op plan: nothing is ever injected.
    pub fn none() -> Self {
        ChaosPlan {
            seed: 0,
            panic_probability: 0.0,
            stall_probability: 0.0,
            burst_probability: 0.0,
            burst_len: 0,
            stall_max_ms: 0,
            panic_every_attempt: false,
        }
    }

    /// The standard chaos mix under `seed` (0 yields [`ChaosPlan::none`]):
    /// 20% of batches lose their worker to a panic, 10% stall for up to
    /// 2 ms, and 25% of arrivals open a 4-request burst.
    pub fn seeded(seed: u64) -> Self {
        if seed == 0 {
            return ChaosPlan::none();
        }
        ChaosPlan {
            seed,
            panic_probability: 0.20,
            stall_probability: 0.10,
            burst_probability: 0.25,
            burst_len: 4,
            stall_max_ms: 2,
            panic_every_attempt: false,
        }
    }

    /// Reads the `IE_CHAOS_SEED` knob through [`ie_tensor::knobs::read`]
    /// (0, unset or unparsable → no chaos; unparsable also warns once).
    pub fn from_env() -> Self {
        ie_tensor::knobs::read("IE_CHAOS_SEED", "a u64; 0 disables chaos", |s| s.parse().ok())
            .map_or_else(ChaosPlan::none, ChaosPlan::seeded)
    }

    /// Whether any injection can ever fire.
    pub fn is_active(&self) -> bool {
        self.seed != 0
            && (self.panic_probability > 0.0
                || self.stall_probability > 0.0
                || self.burst_probability > 0.0)
    }

    /// Whether the worker serving `(key, attempt)` loses itself to an
    /// injected panic. Unless [`ChaosPlan::panic_every_attempt`] is set,
    /// only attempt 0 draws — the retried batch then completes, which keeps
    /// the default chaos mix recoverable by the server's one retry.
    pub fn panics(&self, key: u64, attempt: u32) -> bool {
        if self.seed == 0 || self.panic_probability <= 0.0 {
            return false;
        }
        if attempt > 0 && !self.panic_every_attempt {
            return false;
        }
        // The draw deliberately ignores the attempt: with
        // `panic_every_attempt` the *same* doomed batches keep panicking,
        // which is what drives them into retry exhaustion deterministically.
        let draw: f64 = fork_rng(self.seed, &[KIND_PANIC, key]).gen();
        draw < self.panic_probability
    }

    /// Panics with a [`ChaosPanic`] payload when the schedule says the
    /// worker serving `(key, attempt)` is lost.
    pub fn maybe_panic(&self, key: u64, attempt: u32) {
        if self.panics(key, attempt) {
            std::panic::panic_any(ChaosPanic { key, attempt });
        }
    }

    /// Injected stall (milliseconds) before serving `(key, attempt)`, or
    /// `None`. The duration is drawn from the same fork, in
    /// `1..=stall_max_ms`.
    pub fn stall_ms(&self, key: u64, attempt: u32) -> Option<u64> {
        if self.seed == 0 || self.stall_probability <= 0.0 || self.stall_max_ms == 0 {
            return None;
        }
        let mut rng = fork_rng(self.seed, &[KIND_STALL, key, u64::from(attempt)]);
        let draw: f64 = rng.gen();
        if draw < self.stall_probability {
            Some(rng.gen_range(1..=self.stall_max_ms))
        } else {
            None
        }
    }

    /// Whether submission index `s` opens an arrival burst.
    pub fn burst_at(&self, s: u64) -> bool {
        if self.seed == 0 || self.burst_probability <= 0.0 || self.burst_len < 2 {
            return false;
        }
        let draw: f64 = fork_rng(self.seed, &[KIND_BURST, s]).gen();
        draw < self.burst_probability
    }

    /// Collapses scheduled arrival times into bursts in place: when index
    /// `i` opens a burst, the next `burst_len − 1` arrivals land at the same
    /// instant. Monotonicity is preserved (times only move earlier, toward
    /// a still-earlier-or-equal burst head), so the stream stays a valid
    /// replay input. Returns the number of bursts injected.
    pub fn burstify_arrivals(&self, arrivals: &mut [f64]) -> usize {
        let mut bursts = 0;
        let mut i = 0;
        while i < arrivals.len() {
            if self.burst_at(i as u64) {
                let end = (i + self.burst_len).min(arrivals.len());
                let head = arrivals[i];
                for t in arrivals[i + 1..end].iter_mut() {
                    *t = head;
                }
                bursts += usize::from(end > i + 1);
                i = end;
            } else {
                i += 1;
            }
        }
        bursts
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for [`ChaosPanic`] payloads and chains to the
/// previously installed hook for everything else. Injected panics are
/// expected and caught by supervision — reporting them would drown real
/// failures and make chaos-run stderr nondeterministic across retries.
pub fn silence_chaos_panics() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_inert() {
        let plan = ChaosPlan::seeded(0);
        assert_eq!(plan, ChaosPlan::none());
        assert!(!plan.is_active());
        for k in 0..64 {
            assert!(!plan.panics(k, 0));
            assert!(plan.stall_ms(k, 0).is_none());
            assert!(!plan.burst_at(k));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::seeded(7);
        let b = ChaosPlan::seeded(7);
        let c = ChaosPlan::seeded(8);
        let sig = |p: &ChaosPlan| {
            (0..256).map(|k| (p.panics(k, 0), p.stall_ms(k, 0), p.burst_at(k))).collect::<Vec<_>>()
        };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c));
        // The standard mix actually fires at this sample size.
        assert!(sig(&a).iter().any(|&(p, _, _)| p), "no panic in 256 draws at p=0.2");
        assert!(sig(&a).iter().any(|&(_, s, _)| s.is_some()), "no stall in 256 draws");
    }

    #[test]
    fn panics_hit_only_attempt_zero_unless_exhaustion_mode() {
        let plan = ChaosPlan::seeded(7);
        let doomed = (0..256).find(|&k| plan.panics(k, 0)).expect("some batch panics");
        assert!(!plan.panics(doomed, 1), "the retried attempt must succeed by default");
        let exhausting = ChaosPlan { panic_every_attempt: true, ..plan };
        assert!(exhausting.panics(doomed, 1));
        assert!(exhausting.panics(doomed, 5));
    }

    #[test]
    fn stall_durations_are_bounded() {
        let plan = ChaosPlan { stall_probability: 1.0, ..ChaosPlan::seeded(3) };
        for k in 0..128 {
            let ms = plan.stall_ms(k, 0).expect("p=1 always stalls");
            assert!((1..=plan.stall_max_ms).contains(&ms));
        }
    }

    #[test]
    fn burstify_preserves_monotonicity_and_collapses_heads() {
        let plan = ChaosPlan { burst_probability: 1.0, burst_len: 3, ..ChaosPlan::seeded(11) };
        let mut arrivals: Vec<f64> = (0..10).map(|i| i as f64 * 0.01).collect();
        let bursts = plan.burstify_arrivals(&mut arrivals);
        assert!(bursts >= 3, "p=1 bursts of 3 over 10 arrivals");
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0], "burstified stream must stay sorted");
        }
        assert_eq!(arrivals[0], arrivals[1]);
        assert_eq!(arrivals[0], arrivals[2]);
        assert_ne!(arrivals[2], arrivals[3], "next burst opens at its own head");
    }

    #[test]
    fn maybe_panic_throws_a_recognisable_payload() {
        let plan = ChaosPlan { panic_probability: 1.0, ..ChaosPlan::seeded(5) };
        silence_chaos_panics();
        let caught = std::panic::catch_unwind(|| plan.maybe_panic(0, 0))
            .expect_err("p=1 must panic on attempt 0");
        let payload = caught.downcast_ref::<ChaosPanic>().expect("payload is ChaosPanic");
        assert_eq!(payload.key, 0);
        assert_eq!(payload.attempt, 0);
    }
}

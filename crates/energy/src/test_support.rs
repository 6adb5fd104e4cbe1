//! Shared helpers for deterministic stochastic tests.
//!
//! Stochastic harvesting traces and simulators must be reproducible across
//! runs for the test suite to act as a gate (and for any two systems to be
//! comparable at all — run-to-run energy-trace variation would drown the
//! effects under test). Tests draw their randomness through [`seeded_rng`],
//! which always logs the seed it chose so a failure can be replayed exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used when neither an explicit seed nor `IE_TEST_SEED` is provided.
pub const DEFAULT_TEST_SEED: u64 = 0x1E57_5EED;

/// An RNG suitable for testing.
///
/// The seed is taken from, in order of preference: the `seed` argument, the
/// `IE_TEST_SEED` environment variable, or [`DEFAULT_TEST_SEED`]. The chosen
/// seed is logged to stderr (visible with `cargo test -- --nocapture`), so a
/// failing stochastic test can be reproduced bit-for-bit by exporting
/// `IE_TEST_SEED`. A set but unparsable `IE_TEST_SEED` falls back to the
/// default and warns once per process on stderr, so a typo cannot quietly
/// replay the default stream.
pub fn seeded_rng(seed: Option<u64>) -> StdRng {
    let seed = seed.or_else(test_seed_from_env).unwrap_or(DEFAULT_TEST_SEED);
    eprintln!("seeded_rng: RNG seed: {seed}");
    StdRng::seed_from_u64(seed)
}

/// Reads `IE_TEST_SEED`, warning once when it is set but not a `u64`.
fn test_seed_from_env() -> Option<u64> {
    parse_test_seed(std::env::var("IE_TEST_SEED").ok().as_deref()).unwrap_or_else(|warning| {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("{warning}"));
        None
    })
}

/// Classifies an `IE_TEST_SEED` value: unset is `Ok(None)`, a `u64`
/// (surrounding whitespace allowed) is `Ok(Some(seed))`, and anything else
/// is `Err` with the warning to print.
fn parse_test_seed(value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = value else { return Ok(None) };
    raw.trim().parse().map(Some).map_err(|_| {
        format!(
            "warning: ignoring invalid IE_TEST_SEED={raw:?} (want a u64); \
             using the default seed {DEFAULT_TEST_SEED}"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn explicit_seed_reproduces_the_stream() {
        let mut a = seeded_rng(Some(77));
        let mut b = seeded_rng(Some(77));
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn test_seed_parses_u64s_and_rejects_typos_with_a_warning() {
        assert_eq!(parse_test_seed(None), Ok(None));
        assert_eq!(parse_test_seed(Some("77")), Ok(Some(77)));
        assert_eq!(parse_test_seed(Some(" 18446744073709551615 ")), Ok(Some(u64::MAX)));
        for bad in ["", "-1", "1.5", "0x1E57", "seed7", "18446744073709551616"] {
            let warning = parse_test_seed(Some(bad)).expect_err("invalid seeds are rejected");
            assert!(warning.contains(&format!("IE_TEST_SEED={bad:?}")), "{warning}");
        }
    }

    #[test]
    fn default_seed_is_stable_across_calls() {
        // Without an explicit seed the helper must still be deterministic,
        // otherwise the tier-1 gate would flake.
        let x: u64 = seeded_rng(None).gen();
        let y: u64 = seeded_rng(None).gen();
        if std::env::var("IE_TEST_SEED").is_err() {
            assert_eq!(seeded_rng(Some(DEFAULT_TEST_SEED)).gen::<u64>(), x);
        }
        assert_eq!(x, y);
    }
}

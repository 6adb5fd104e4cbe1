//! Shared helpers for deterministic stochastic tests.
//!
//! Stochastic harvesting traces and simulators must be reproducible across
//! runs for the test suite to act as a gate (and for any two systems to be
//! comparable at all — run-to-run energy-trace variation would drown the
//! effects under test). Tests draw their randomness through [`seeded_rng`],
//! which always logs the seed it chose so a failure can be replayed exactly.
//! The test seed knobs (`IE_TEST_SEED`, `IE_FAULT_SEED`) are read here, by
//! [`seed_from_env`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::env::VarError;
use std::fmt::Debug;
use std::sync::{Mutex, PoisonError};

/// Seed used when neither an explicit seed nor `IE_TEST_SEED` is provided.
pub const DEFAULT_TEST_SEED: u64 = 0x1E57_5EED;

/// An RNG suitable for testing.
///
/// The seed is taken from, in order of preference: the `seed` argument, the
/// `IE_TEST_SEED` environment variable, or [`DEFAULT_TEST_SEED`]. The chosen
/// seed is logged to stderr (visible with `cargo test -- --nocapture`), so a
/// failing stochastic test can be reproduced bit-for-bit by exporting
/// `IE_TEST_SEED`. A set but unparsable `IE_TEST_SEED` falls back to the
/// default and warns once per process on stderr (see [`seed_from_env`]), so
/// a typo cannot quietly replay the default stream.
pub fn seeded_rng(seed: Option<u64>) -> StdRng {
    let seed = seed.or_else(|| seed_from_env("IE_TEST_SEED")).unwrap_or(DEFAULT_TEST_SEED);
    eprintln!("seeded_rng: RNG seed: {seed}");
    StdRng::seed_from_u64(seed)
}

/// Reads the `u64` seed knob `var` (`IE_TEST_SEED`, `IE_FAULT_SEED`) by the
/// rule of `ie_tensor::knobs::read`, which this crate cannot call (each is a
/// root of the crate graph): unset gives `None`, a trimmed `u64` its value,
/// and anything else, a value that is not Unicode included, `None` after a
/// warning, once per variable per process.
#[allow(clippy::disallowed_methods)]
pub fn seed_from_env(var: &'static str) -> Option<u64> {
    let verdict = match std::env::var(var) {
        Ok(raw) => classify_seed(var, &raw),
        Err(VarError::NotPresent) => return None,
        Err(VarError::NotUnicode(raw)) => Err(warning(var, &raw)),
    };
    verdict
        .map_err(|warning| {
            static WARNED: Mutex<Vec<&str>> = Mutex::new(Vec::new());
            let mut warned = WARNED.lock().unwrap_or_else(PoisonError::into_inner);
            if !warned.contains(&var) {
                warned.push(var);
                eprintln!("{warning}");
            }
        })
        .ok()
}

/// The pure step of [`seed_from_env`] for a set value `raw`: the trimmed
/// string as a `u64`, or the warning that names `var` and `raw`.
///
/// # Errors
///
/// Returns the warning text when the trimmed value is not a `u64`.
pub fn classify_seed(var: &str, raw: &str) -> Result<u64, String> {
    raw.trim().parse().map_err(|_| warning(var, raw))
}

/// The warning for a rejected seed `raw` of `var`.
fn warning(var: &str, raw: &(impl Debug + ?Sized)) -> String {
    format!("warning: ignoring {var}={raw:?} (want a u64); using the default")
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
        let seed = |raw| classify_seed("IE_TEST_SEED", raw);
        assert_eq!(seed("77"), Ok(77));
        assert_eq!(seed(" 18446744073709551615 "), Ok(u64::MAX));
        for bad in ["", "-1", "1.5", "0x1E57", "seed7", "18446744073709551616"] {
            let warning = seed(bad).expect_err("invalid seeds are rejected");
            assert!(warning.contains(&format!("IE_TEST_SEED={bad:?}")), "{warning}");
        }
    }

    /// A seed that is not Unicode warns like any other rejected value. The
    /// environment is shared by every test of the process, so this re-runs
    /// one test of this binary in a child process with the seed set.
    #[cfg(unix)]
    #[test]
    fn a_seed_that_is_not_unicode_warns_instead_of_passing_for_unset() {
        use std::os::unix::ffi::OsStrExt;
        let output = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "test_support::tests::default_seed_is_stable_across_calls"])
            .arg("--nocapture")
            .env("IE_TEST_SEED", std::ffi::OsStr::from_bytes(b"7\xff"))
            .output()
            .expect("the test binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{stderr}");
        let warning = r#"warning: ignoring IE_TEST_SEED="7\xFF" (want a u64); using the default"#;
        assert!(stderr.contains(warning), "{stderr}");
    }

    #[test]
    fn default_seed_is_stable_across_calls() {
        // Without an explicit seed the helper must still be deterministic,
        // otherwise the tier-1 gate would flake.
        let x: u64 = seeded_rng(None).gen();
        let y: u64 = seeded_rng(None).gen();
        if seed_from_env("IE_TEST_SEED").is_none() {
            assert_eq!(seeded_rng(Some(DEFAULT_TEST_SEED)).gen::<u64>(), x);
        }
        assert_eq!(x, y);
    }
}

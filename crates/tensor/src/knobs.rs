//! The reader of the `IE_*` environment knobs.
//!
//! Every runtime and demo knob — the ISA tier, the worker counts, the chaos
//! seed, the overload settings and the demo sizes — is read through
//! [`read`], so all of them follow one rule:
//!
//! * an unset variable gives `None`, and the caller keeps its default;
//! * a set value is trimmed and handed to the knob's own parse rule;
//! * a value the rule rejects, or one that is not Unicode, gives `None` too,
//!   after one warning per variable per process on stderr,
//!   `warning: ignoring VAR="raw" (want …); using the default`, so a typo
//!   never passes for "unset" unnoticed.
//!
//! The two test seed knobs (`IE_TEST_SEED`, `IE_FAULT_SEED`) follow the same
//! rule through `ie_energy::test_support::seed_from_env`: `ie_energy` and
//! this crate are the two roots of the crate graph, so neither can call the
//! other's reader. Those two readers are the only code that reads the
//! environment; the workspace's `clippy.toml` disallows `std::env::var`
//! everywhere else.

use std::env::VarError;
use std::fmt::Debug;
use std::sync::{Mutex, PoisonError};

/// Reads the knob `var`: `None` when it is unset, the value `parse` gives the
/// trimmed string when it accepts it, and `None` after a warning (once per
/// variable per process) when it does not or the value is not Unicode.
/// `want` names what the knob accepts, for that warning.
#[allow(clippy::disallowed_methods)]
pub fn read<T>(var: &'static str, want: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let verdict = match std::env::var(var) {
        Ok(raw) => classify(var, &raw, want, parse),
        Err(VarError::NotPresent) => return None,
        Err(VarError::NotUnicode(raw)) => Err(warning(var, &raw, want)),
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

/// The pure step of [`read`] for a set value `raw`: `parse`'s value of the
/// trimmed string, or the warning that names `var`, `raw` and `want`.
///
/// # Errors
///
/// Returns the warning text when `parse` rejects the trimmed value.
pub fn classify<T>(
    var: &str,
    raw: &str,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    parse(raw.trim()).ok_or_else(|| warning(var, raw, want))
}

/// The warning for a rejected value `raw` of `var`.
fn warning(var: &str, raw: &(impl Debug + ?Sized), want: &str) -> String {
    format!("warning: ignoring {var}={raw:?} (want {want}); using the default")
}

//! The dynamic batching window: batches close at size `N` or deadline `T`,
//! whichever comes first.
//!
//! The close rule has one virtual-clock implementation, the replay planner
//! [`plan_overload`](crate::plan_overload), whose proptests state that no
//! request is ever dropped or duplicated; the live server applies the same
//! rule against the wall clock.

use crate::{Result, ServeError};
use std::time::Duration;

/// Widest batching window [`WindowConfig::validate`] accepts (see
/// [`WindowConfig::max_batch`]).
pub(crate) const MAX_WINDOW: usize = 256;

/// Configuration of the dynamic batching window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Maximum requests per batch; reaching it closes the window early.
    /// Must be in `1..=256`. Like
    /// `ie_core::EventLoopSimulator::run_batched`, which rejects a wake
    /// window of zero events, a window that can never admit a request is a
    /// configuration error, not a degenerate loop. The upper bound exists
    /// because every worker pre-sizes its plan for a full window before the
    /// first request, about 0.27 MB per request slot for the int8 LeNet (70
    /// MB per worker at 256): a wider window only buys memory, and an absurd
    /// one would abort the process on allocation.
    pub max_batch: usize,
    /// Seconds a window stays open after its first request arrives. `0.0`
    /// batches only simultaneous arrivals. Must be finite, non-negative and
    /// representable as a [`Duration`] (the live server waits on it).
    pub deadline_s: f64,
}

impl WindowConfig {
    /// Validates the window parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `max_batch` is zero or
    /// above 256, or `deadline_s` is negative, non-finite or beyond
    /// [`Duration::MAX`].
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "batching window must admit at least one request".into(),
            ));
        }
        if self.max_batch > MAX_WINDOW {
            return Err(ServeError::InvalidConfig(format!(
                "batching window of {} requests exceeds the maximum of {MAX_WINDOW}",
                self.max_batch
            )));
        }
        if Duration::try_from_secs_f64(self.deadline_s).is_err() {
            return Err(ServeError::InvalidConfig(format!(
                "window deadline must be a finite, non-negative duration, got {} s",
                self.deadline_s
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_size_windows_and_bad_deadlines_are_config_errors() {
        assert!(matches!(
            WindowConfig { max_batch: 0, deadline_s: 0.1 }.validate(),
            Err(ServeError::InvalidConfig(_))
        ));
        assert!(WindowConfig { max_batch: 1, deadline_s: -0.1 }.validate().is_err());
        assert!(WindowConfig { max_batch: 1, deadline_s: f64::NAN }.validate().is_err());
        assert!(
            WindowConfig { max_batch: 1, deadline_s: 1e20 }.validate().is_err(),
            "a deadline beyond Duration::MAX cannot be waited on"
        );
        assert!(WindowConfig { max_batch: 1, deadline_s: 0.0 }.validate().is_ok());
    }

    #[test]
    fn windows_above_the_maximum_are_config_errors() {
        assert!(WindowConfig { max_batch: MAX_WINDOW, deadline_s: 0.1 }.validate().is_ok());
        for max_batch in [MAX_WINDOW + 1, 1_000_000_000, usize::MAX] {
            assert!(matches!(
                WindowConfig { max_batch, deadline_s: 0.1 }.validate(),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }
}

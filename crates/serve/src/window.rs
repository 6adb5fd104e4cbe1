//! The dynamic batching window: batches close at size `N` or deadline `T`,
//! whichever comes first.
//!
//! The close rule has one virtual-clock implementation, the replay planner
//! [`plan_overload`](crate::plan_overload), whose proptests state that no
//! request is ever dropped or duplicated; the live server applies the same
//! rule against the wall clock.

use crate::{Result, ServeError};
use std::time::Duration;

/// Configuration of the dynamic batching window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Maximum requests per batch; reaching it closes the window early.
    /// Must be at least 1 — like
    /// `ie_core::EventLoopSimulator::run_batched`, which rejects a wake
    /// window of zero events, a window that can never admit a request is a
    /// configuration error, not a degenerate loop.
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
    /// `deadline_s` is negative, non-finite or beyond [`Duration::MAX`].
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "batching window must admit at least one request".into(),
            ));
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
}

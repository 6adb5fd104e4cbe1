use std::fmt;

/// Errors produced by the energy-harvesting substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyError {
    /// The storage does not hold enough energy for the requested draw.
    InsufficientEnergy {
        /// Energy requested, in millijoules.
        requested_mj: f64,
        /// Energy currently available, in millijoules.
        available_mj: f64,
    },
    /// A negative amount of energy or power was supplied.
    NegativeAmount {
        /// The offending value.
        value: f64,
    },
    /// The simulator was asked to move backwards in time.
    TimeRegression {
        /// Current simulator time, seconds.
        current_s: f64,
        /// Requested (earlier) time, seconds.
        requested_s: f64,
    },
}

impl fmt::Display for EnergyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergyError::InsufficientEnergy { requested_mj, available_mj } => write!(
                f,
                "insufficient stored energy: requested {requested_mj:.3} mJ, available {available_mj:.3} mJ"
            ),
            EnergyError::NegativeAmount { value } => {
                write!(f, "energy and power amounts must be non-negative, got {value}")
            }
            EnergyError::TimeRegression { current_s, requested_s } => write!(
                f,
                "cannot advance simulator backwards from {current_s:.3} s to {requested_s:.3} s"
            ),
        }
    }
}

impl std::error::Error for EnergyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let errs = [
            EnergyError::InsufficientEnergy { requested_mj: 5.0, available_mj: 1.0 },
            EnergyError::NegativeAmount { value: -1.0 },
            EnergyError::TimeRegression { current_s: 10.0, requested_s: 5.0 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

use crate::{EnergyError, Result};

/// The energy buffer (super-capacitor) of an energy-harvesting node.
///
/// Harvested energy is charged into the storage subject to a charging
/// efficiency and a hard capacity; inference draws discharge it. The paper's
/// runtime uses the current level and the recent charging efficiency as the
/// Q-learning state.
///
/// # Example
///
/// ```
/// use ie_energy::EnergyStorage;
///
/// let mut cap = EnergyStorage::new(10.0, 0.8);
/// cap.harvest(5.0);                 // 5 mJ harvested, 4 mJ stored
/// assert_eq!(cap.level_mj(), 4.0);
/// cap.consume(1.5)?;                // inference draws 1.5 mJ
/// assert_eq!(cap.level_mj(), 2.5);
/// # Ok::<(), ie_energy::EnergyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyStorage {
    capacity_mj: f64,
    level_mj: f64,
    initial_level_mj: f64,
    charge_efficiency: f64,
    total_harvested_mj: f64,
    total_stored_mj: f64,
    total_consumed_mj: f64,
    total_wasted_mj: f64,
}

impl EnergyStorage {
    /// Creates an empty storage with the given capacity (millijoules) and
    /// charging efficiency in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_mj` is not positive or `charge_efficiency` is not
    /// in `(0, 1]`.
    pub fn new(capacity_mj: f64, charge_efficiency: f64) -> Self {
        assert!(capacity_mj > 0.0, "capacity must be positive");
        assert!(
            charge_efficiency > 0.0 && charge_efficiency <= 1.0,
            "charge efficiency must be in (0, 1]"
        );
        EnergyStorage {
            capacity_mj,
            level_mj: 0.0,
            initial_level_mj: 0.0,
            charge_efficiency,
            total_harvested_mj: 0.0,
            total_stored_mj: 0.0,
            total_consumed_mj: 0.0,
            total_wasted_mj: 0.0,
        }
    }

    /// Returns a copy of this storage pre-charged to `level_mj` (clamped to
    /// the capacity).
    pub fn with_initial_level(mut self, level_mj: f64) -> Self {
        self.level_mj = level_mj.clamp(0.0, self.capacity_mj);
        self.initial_level_mj = self.level_mj;
        self
    }

    /// The pre-charge the storage started with (see [`Self::with_initial_level`]).
    pub fn initial_level_mj(&self) -> f64 {
        self.initial_level_mj
    }

    /// Capacity in millijoules.
    pub fn capacity_mj(&self) -> f64 {
        self.capacity_mj
    }

    /// Currently stored energy in millijoules.
    pub fn level_mj(&self) -> f64 {
        self.level_mj
    }

    /// The charging efficiency applied to harvested energy.
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// Charges harvested energy into the storage, applying the charging
    /// efficiency and discarding whatever exceeds the capacity. Returns the
    /// energy actually stored.
    ///
    /// Negative amounts are treated as zero.
    pub fn harvest(&mut self, harvested_mj: f64) -> f64 {
        if harvested_mj <= 0.0 {
            return 0.0;
        }
        self.total_harvested_mj += harvested_mj;
        let after_efficiency = harvested_mj * self.charge_efficiency;
        let room = self.capacity_mj - self.level_mj;
        let stored = after_efficiency.min(room);
        self.level_mj += stored;
        self.total_stored_mj += stored;
        self.total_wasted_mj += harvested_mj - stored;
        stored
    }

    /// Draws energy for a computation.
    ///
    /// # Errors
    ///
    /// Returns [`EnergyError::NegativeAmount`] for a negative draw and
    /// [`EnergyError::InsufficientEnergy`] when the storage holds less than
    /// the requested amount (nothing is drawn in that case).
    pub fn consume(&mut self, amount_mj: f64) -> Result<()> {
        if amount_mj < 0.0 {
            return Err(EnergyError::NegativeAmount { value: amount_mj });
        }
        if amount_mj > self.level_mj + 1e-12 {
            return Err(EnergyError::InsufficientEnergy {
                requested_mj: amount_mj,
                available_mj: self.level_mj,
            });
        }
        self.level_mj = (self.level_mj - amount_mj).max(0.0);
        self.total_consumed_mj += amount_mj;
        Ok(())
    }

    /// Returns `true` when the storage can supply `amount_mj` right now.
    pub fn can_supply(&self, amount_mj: f64) -> bool {
        amount_mj >= 0.0 && amount_mj <= self.level_mj + 1e-12
    }

    /// Total energy ever offered to the storage (before efficiency losses).
    pub fn total_harvested_mj(&self) -> f64 {
        self.total_harvested_mj
    }

    /// Total energy ever consumed from the storage.
    pub fn total_consumed_mj(&self) -> f64 {
        self.total_consumed_mj
    }

    /// Total harvested energy lost to conversion inefficiency or overflow.
    pub fn total_wasted_mj(&self) -> f64 {
        self.total_wasted_mj
    }

    /// Energy-conservation check: stored + wasted equals harvested, and the
    /// current level equals the initial pre-charge plus stored − consumed (up
    /// to rounding).
    pub fn conservation_error_mj(&self) -> f64 {
        let in_out = (self.total_stored_mj + self.total_wasted_mj - self.total_harvested_mj).abs();
        let level =
            (self.initial_level_mj + self.total_stored_mj - self.total_consumed_mj - self.level_mj)
                .abs();
        in_out.max(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_applies_efficiency_and_capacity() {
        let mut s = EnergyStorage::new(10.0, 0.5);
        assert_eq!(s.harvest(4.0), 2.0);
        assert_eq!(s.level_mj(), 2.0);
        // Overfill: only 8 mJ of room remain.
        assert_eq!(s.harvest(100.0), 8.0);
        assert_eq!(s.level_mj(), 10.0);
        assert_eq!(s.harvest(-3.0), 0.0);
    }

    #[test]
    fn consume_enforces_availability() {
        let mut s = EnergyStorage::new(10.0, 1.0).with_initial_level(3.0);
        assert!(s.consume(2.0).is_ok());
        assert!((s.level_mj() - 1.0).abs() < 1e-12);
        let err = s.consume(5.0).unwrap_err();
        assert!(matches!(err, EnergyError::InsufficientEnergy { .. }));
        assert!((s.level_mj() - 1.0).abs() < 1e-12, "failed draw must not change the level");
        assert!(s.consume(-1.0).is_err());
        assert!(s.can_supply(1.0));
        assert!(!s.can_supply(1.1));
    }

    #[test]
    fn energy_is_conserved_through_arbitrary_usage() {
        let mut s = EnergyStorage::new(5.0, 0.7);
        for i in 0..100 {
            s.harvest((i % 7) as f64 * 0.3);
            let want = (i % 5) as f64 * 0.2;
            if s.can_supply(want) {
                s.consume(want).unwrap();
            }
        }
        assert!(s.conservation_error_mj() < 1e-9);
        assert!(s.level_mj() >= 0.0 && s.level_mj() <= s.capacity_mj());
    }

    #[test]
    fn conservation_holds_for_a_precharged_storage() {
        let mut s = EnergyStorage::new(8.0, 0.6).with_initial_level(3.0);
        assert_eq!(s.initial_level_mj(), 3.0);
        s.harvest(4.0);
        s.consume(1.0).unwrap();
        assert!(s.conservation_error_mj() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "charge efficiency")]
    fn invalid_efficiency_panics() {
        let _ = EnergyStorage::new(1.0, 1.5);
    }

    #[test]
    fn initial_level_is_clamped() {
        let s = EnergyStorage::new(2.0, 1.0).with_initial_level(99.0);
        assert_eq!(s.level_mj(), 2.0);
    }
}

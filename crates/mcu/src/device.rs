use crate::{McuError, Result};

/// Static description of the target microcontroller.
///
/// The constructor [`McuDevice::msp432`] mirrors the paper's experimental
/// platform: a TI MSP432-class MCU with tens of kilobytes of weight storage
/// and an effective inference throughput in the hundreds of kilo-FLOPs per
/// second, which is why a full-precision LeNet (≈0.6 MB, ≈1.6 MFLOPs per
/// inference) is undeployable without compression.
#[derive(Debug, Clone, PartialEq)]
pub struct McuDevice {
    name: String,
    weight_storage_bytes: u64,
    sram_bytes: u64,
    nonvolatile_bytes: u64,
    clock_hz: u64,
    effective_flops_per_s: f64,
    energy_per_mflop_mj: f64,
    nv_write_energy_per_byte_mj: f64,
    sleep_power_mw: f64,
}

impl McuDevice {
    /// The paper's target platform (TI MSP432-class device).
    ///
    /// * 16 KB of weight storage available to the model (the paper's
    ///   compression target `S_target`),
    /// * 64 KB SRAM, 256 KB FRAM-like non-volatile memory,
    /// * 48 MHz clock with an effective 0.2 MFLOP/s of floating-point
    ///   inference throughput (software multiply–accumulate),
    /// * 1.5 mJ of energy per million FLOPs (Section V-A of the paper),
    /// * a small per-byte cost for non-volatile checkpoint writes.
    pub fn msp432() -> Self {
        McuDevice {
            name: "TI MSP432 (model)".to_string(),
            weight_storage_bytes: 16 * 1024,
            sram_bytes: 64 * 1024,
            nonvolatile_bytes: 256 * 1024,
            clock_hz: 48_000_000,
            effective_flops_per_s: 0.2e6,
            energy_per_mflop_mj: 1.5,
            nv_write_energy_per_byte_mj: 2.0e-5,
            sleep_power_mw: 0.001,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes of storage available for model weights.
    pub fn weight_storage_bytes(&self) -> u64 {
        self.weight_storage_bytes
    }

    /// Non-volatile (FRAM) size in bytes.
    pub fn nonvolatile_bytes(&self) -> u64 {
        self.nonvolatile_bytes
    }

    /// Core clock frequency in hertz.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Effective floating-point throughput in FLOPs per second.
    pub fn effective_flops_per_s(&self) -> f64 {
        self.effective_flops_per_s
    }

    /// Energy cost per million FLOPs, in millijoules.
    pub fn energy_per_mflop_mj(&self) -> f64 {
        self.energy_per_mflop_mj
    }

    /// Energy cost of writing one byte to non-volatile memory, in millijoules.
    pub fn nv_write_energy_per_byte_mj(&self) -> f64 {
        self.nv_write_energy_per_byte_mj
    }

    /// Checks that a model of `model_bytes` fits into the weight storage.
    ///
    /// # Errors
    ///
    /// Returns [`McuError::ModelTooLarge`] when it does not.
    pub fn check_model_fits(&self, model_bytes: u64) -> Result<()> {
        if model_bytes > self.weight_storage_bytes {
            return Err(McuError::ModelTooLarge {
                model_bytes,
                storage_bytes: self.weight_storage_bytes,
            });
        }
        Ok(())
    }
}

impl Default for McuDevice {
    fn default() -> Self {
        McuDevice::msp432()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msp432_constants_match_the_paper() {
        let d = McuDevice::msp432();
        assert_eq!(d.weight_storage_bytes(), 16 * 1024);
        assert!((d.energy_per_mflop_mj() - 1.5).abs() < 1e-12);
        assert_eq!(d.clock_hz(), 48_000_000);
    }

    #[test]
    fn full_precision_lenet_does_not_fit() {
        // The uncompressed model is ~580 KB; the MCU offers 16 KB.
        let d = McuDevice::msp432();
        assert!(d.check_model_fits(580_000).is_err());
        assert!(d.check_model_fits(16_000).is_ok());
    }
}

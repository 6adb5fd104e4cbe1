use crate::McuDevice;

/// Converts FLOPs into energy and latency on a particular device, and prices
/// checkpoint writes.
///
/// This is the single place where the paper's "1.5 mJ per million FLOPs" and
/// "FLOPs as the per-inference latency proxy" conventions are applied, so the
/// search, runtime and baselines all agree on costs.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    energy_per_mflop_mj: f64,
    flops_per_s: f64,
    nv_write_energy_per_byte_mj: f64,
    checkpoint_bytes: usize,
}

impl CostModel {
    /// Builds the cost model implied by a device description, with a default
    /// 256-byte checkpoint footprint (progress counters plus a small
    /// activation buffer, as in SONIC-style task systems).
    pub fn for_device(device: &McuDevice) -> Self {
        CostModel {
            energy_per_mflop_mj: device.energy_per_mflop_mj(),
            flops_per_s: device.effective_flops_per_s(),
            nv_write_energy_per_byte_mj: device.nv_write_energy_per_byte_mj(),
            checkpoint_bytes: 256,
        }
    }

    /// Energy (mJ) consumed by an inference of `flops` FLOPs.
    pub fn inference_energy_mj(&self, flops: u64) -> f64 {
        flops as f64 / 1.0e6 * self.energy_per_mflop_mj
    }

    /// Compute latency (seconds) of an inference of `flops` FLOPs, ignoring
    /// any waiting for energy.
    pub fn inference_latency_s(&self, flops: u64) -> f64 {
        flops as f64 / self.flops_per_s
    }

    /// Energy (mJ) of writing one checkpoint to non-volatile memory.
    pub fn checkpoint_energy_mj(&self) -> f64 {
        self.checkpoint_bytes as f64 * self.nv_write_energy_per_byte_mj
    }

    /// Latency (seconds) of writing one checkpoint; modelled as proportional
    /// to its energy at the device's sleep-mode power envelope and therefore
    /// negligible next to compute, but non-zero so ablations can surface it.
    pub fn checkpoint_latency_s(&self) -> f64 {
        // FRAM writes run at bus speed; approximate 1 µs per byte.
        self.checkpoint_bytes as f64 * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_energy_constant_is_applied() {
        let c = CostModel::for_device(&McuDevice::msp432());
        assert!((c.inference_energy_mj(1_000_000) - 1.5).abs() < 1e-12);
        assert!((c.inference_energy_mj(445_200) - 0.6678).abs() < 1e-6);
        assert_eq!(c.inference_energy_mj(0), 0.0);
    }

    #[test]
    fn latency_scales_linearly_with_flops() {
        let c = CostModel::for_device(&McuDevice::msp432());
        let l1 = c.inference_latency_s(200_000);
        let l2 = c.inference_latency_s(400_000);
        assert!((l2 - 2.0 * l1).abs() < 1e-9);
        assert!(l1 > 0.0);
    }

    #[test]
    fn checkpoint_costs_are_small_but_positive() {
        let c = CostModel::for_device(&McuDevice::msp432());
        assert!(c.checkpoint_energy_mj() > 0.0);
        assert!(c.checkpoint_energy_mj() < c.inference_energy_mj(100_000));
        assert!(c.checkpoint_latency_s() < 0.01);
    }
}

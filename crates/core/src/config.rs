//! System configuration, and the fixed hardware figures that more than one
//! unit reads.

/// Bytes per cycle on a physical MAC: 100 Gbps at 250 MHz = 50 B/cycle.
/// Read by the MAC stage and by the loopback port, which runs at line rate.
pub(crate) const MAC_BYTES_PER_CYCLE: u64 = 50;

/// MAC receive FIFO capacity in bytes. Sized so that a saturated 64-byte
/// flood adds the ≈32.8 µs the paper measures (§6.2). Read by the MAC stage
/// and by the diagnostics' bottleneck call.
pub(crate) const MAC_RX_FIFO_BYTES: u64 = 256 * 1024;

/// Size of each packet slot in bytes (16 KB in the case-study firmware).
pub(crate) const SLOT_BYTES: u32 = 16 * 1024;

/// Instruction memory per RPU in bytes.
pub(crate) const IMEM_BYTES: u32 = 32 * 1024;

/// Data memory per RPU in bytes.
pub(crate) const DMEM_BYTES: u32 = 32 * 1024;

/// Packet memory per RPU in bytes (8 URAM blocks × 128 KB).
pub(crate) const PMEM_BYTES: u32 = 1024 * 1024;

/// Most packet slots an RPU can advertise: the descriptor tag is 5 bits.
const MAX_SLOTS_PER_RPU: usize = 32;

// The most slots an RPU can have fit its packet memory, so `validate` needs
// no storage check.
const _: () = assert!(MAX_SLOTS_PER_RPU as u32 * SLOT_BYTES <= PMEM_BYTES);

/// Most RPUs a box can have: every lane-occupancy word and the LB enable
/// mask is one `u64`, one bit per RPU.
const MAX_RPUS: usize = 64;

/// The build-time parameters of a Rosebud instance that a caller chooses:
/// the paper's FPGA images come in 8- and 16-RPU layouts (§5), and the
/// ablation sweeps the RPU link width and the broadcast FIFO depth.
///
/// The fixed figures of the hardware — MAC rate and FIFO size, memory
/// sizes, pipeline latencies, the PCIe round trip — are constants beside
/// the unit that reads them (DESIGN.md, "The public surface and the
/// hardware constants").
///
/// # Examples
///
/// ```
/// use rosebud_core::RosebudConfig;
/// let cfg = RosebudConfig::with_rpus(16);
/// assert_eq!(cfg.rpu_link_bytes_per_cycle, 16); // 128-bit @ 250 MHz = 32 Gbps
/// assert_eq!(cfg.ns_per_cycle(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RosebudConfig {
    /// Number of RPUs (the paper builds 8 and 16).
    pub num_rpus: usize,
    /// Number of 100 Gbps physical Ethernet ports (the VCU1525 has 2).
    pub num_ports: usize,
    /// Clock frequency in Hz (250 MHz for all the paper's designs, §5).
    pub clock_hz: u64,
    /// Bytes per cycle on each RPU's distribution link: the narrowest
    /// switches are 128-bit = 32 Gbps = 16 B/cycle (§5).
    pub rpu_link_bytes_per_cycle: u64,
    /// Packet slots each RPU advertises to the LB at boot (§4.2).
    pub slots_per_rpu: usize,
    /// Depth of each RPU's broadcast-message outbox FIFO: 16 entries plus 2
    /// partial-reconfiguration border registers (§6.3).
    pub bcast_fifo_depth: usize,
    /// Cycles a partial reconfiguration occupies in live simulation. The
    /// wall-clock reload time (756 ms, §4.1) is reported by the analytic
    /// [`PrTimingModel`](crate::PrTimingModel); simulating 189 M cycles per
    /// reload would dominate run time, so live-traffic tests use this
    /// shorter stand-in.
    pub pr_cycles: u64,
}

impl RosebudConfig {
    /// The 16-RPU layout (Fig. 5).
    pub fn with_rpus(num_rpus: usize) -> Self {
        assert!(
            num_rpus > 0 && num_rpus <= MAX_RPUS,
            "RPU count out of supported range"
        );
        Self {
            num_rpus,
            num_ports: 2,
            clock_hz: 250_000_000,
            rpu_link_bytes_per_cycle: 16,
            slots_per_rpu: 16,
            bcast_fifo_depth: 18,
            pr_cycles: 25_000,
        }
    }

    /// Nanoseconds per clock cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1e9 / self.clock_hz as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_rpus == 0 || self.num_rpus > MAX_RPUS {
            return Err(format!(
                "RPU count must be 1–{MAX_RPUS} (one bit per RPU in a 64-bit lane word and LB mask)"
            ));
        }
        if self.num_ports == 0 || self.num_ports > 8 {
            return Err("port count must be 1–8".into());
        }
        if self.slots_per_rpu == 0 || self.slots_per_rpu > MAX_SLOTS_PER_RPU {
            return Err(format!(
                "slots per RPU must be 1–{MAX_SLOTS_PER_RPU} (descriptor tag is 5 bits + context array)"
            ));
        }
        if self.rpu_link_bytes_per_cycle == 0 {
            return Err("the RPU link width must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for RosebudConfig {
    /// The paper's primary 16-RPU configuration.
    fn default() -> Self {
        Self::with_rpus(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_rates() {
        let cfg = RosebudConfig::default();
        // MAC: 50 B/cycle × 8 × 250 MHz = 100 Gbps per port.
        let port_gbps = MAC_BYTES_PER_CYCLE as f64 * 8.0 * cfg.clock_hz as f64 / 1e9;
        assert_eq!(port_gbps, 100.0);
        assert_eq!(cfg.ns_per_cycle(), 4.0);
        assert!(cfg.validate().is_ok());
        // RPU link: 16 B/cycle × 8 × 250 MHz = 32 Gbps (the narrow switches).
        let rpu_gbps = cfg.rpu_link_bytes_per_cycle as f64 * 8.0 * cfg.clock_hz as f64 / 1e9;
        assert_eq!(rpu_gbps, 32.0);
    }

    #[test]
    fn validation_bounds_the_rpu_count() {
        let cfg = RosebudConfig {
            num_rpus: 65,
            ..RosebudConfig::with_rpus(16)
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("1–64"), "{err}");
        assert!(RosebudConfig::with_rpus(64).validate().is_ok());
        let none = RosebudConfig {
            num_rpus: 0,
            ..RosebudConfig::with_rpus(16)
        };
        assert!(none.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_slot_count() {
        let mut cfg = RosebudConfig::with_rpus(8);
        cfg.slots_per_rpu = 33;
        assert!(cfg.validate().is_err());
        // 32 slots × 16 KB = 512 KB fits the 1 MB packet memory.
        cfg.slots_per_rpu = 32;
        assert!(cfg.validate().is_ok());
    }
}

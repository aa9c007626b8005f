//! System configuration.

/// Configuration of a Rosebud instance, mirroring the build-time parameters
/// of the paper's FPGA images (8- or 16-RPU layouts, §5).
///
/// # Examples
///
/// ```
/// use rosebud_core::RosebudConfig;
/// let cfg = RosebudConfig::with_rpus(16);
/// assert_eq!(cfg.rpu_link_bytes_per_cycle, 16); // 128-bit @ 250 MHz = 32 Gbps
/// assert_eq!(cfg.gbps_per_port(), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RosebudConfig {
    /// Number of RPUs (the paper builds 8 and 16).
    pub num_rpus: usize,
    /// Number of 100 Gbps physical Ethernet ports (the VCU1525 has 2).
    pub num_ports: usize,
    /// Clock frequency in Hz (250 MHz for all the paper's designs, §5).
    pub clock_hz: u64,
    /// Bytes per cycle on a physical MAC: 100 Gbps at 250 MHz = 50 B/cycle.
    pub mac_bytes_per_cycle: u64,
    /// Bytes per cycle on each RPU's distribution link: the narrowest
    /// switches are 128-bit = 32 Gbps = 16 B/cycle (§5).
    pub rpu_link_bytes_per_cycle: u64,
    /// Bytes per cycle through a cluster switch: 512-bit = 128 Gbps (§5).
    pub cluster_bytes_per_cycle: u64,
    /// MAC receive FIFO capacity in bytes. Sized so that a saturated
    /// 64-byte flood adds the ≈32.8 µs the paper measures (§6.2).
    pub mac_rx_fifo_bytes: u64,
    /// Packet slots each RPU advertises to the LB at boot (§4.2).
    pub slots_per_rpu: usize,
    /// Size of each packet slot in bytes (16 KB in the case-study firmware).
    pub slot_bytes: u32,
    /// Fixed ingress pipeline latency in cycles: LB decision, cluster-switch
    /// hops, die-crossing registers, DMA setup. Calibrated so the minimum
    /// forwarding RTT matches the paper's 0.765 µs (Eq. 1).
    pub ingress_fixed_cycles: u64,
    /// Fixed egress pipeline latency in cycles (switch hops + MAC FIFO).
    pub egress_fixed_cycles: u64,
    /// Instruction memory size per RPU in bytes.
    pub imem_bytes: u32,
    /// Data memory size per RPU in bytes.
    pub dmem_bytes: u32,
    /// Shared packet memory size per RPU in bytes (8 URAM blocks × 128 KB).
    pub pmem_bytes: u32,
    /// Depth of each RPU's broadcast-message outbox FIFO: 16 entries plus 2
    /// partial-reconfiguration border registers (§6.3).
    pub bcast_fifo_depth: usize,
    /// Pipeline cycles from broadcast arbiter grant to simultaneous delivery
    /// at every core (§6.3's sparse-message latency floor).
    pub bcast_pipeline_cycles: u64,
    /// Cycles between loopback-port packet grants (destination-RPU header
    /// attach, §6.3: loopback tops out at ~60 % of 64 B line rate).
    pub loopback_header_cycles: u64,
    /// Cycles a partial reconfiguration occupies in live simulation. The
    /// wall-clock reload time (756 ms, §4.1) is reported by the analytic
    /// [`pr_reload_model`](crate::pr_reload_model); simulating 189 M cycles
    /// per reload would dominate run time, so live-traffic tests use this
    /// shorter stand-in.
    pub pr_cycles: u64,
    /// Simulated PCIe round-trip latency to host DRAM, in cycles (the paper
    /// cites "order of microseconds"; 1 µs = 250 cycles).
    pub pcie_rtt_cycles: u64,
}

impl RosebudConfig {
    /// The 16-RPU layout (Fig. 5).
    pub fn with_rpus(num_rpus: usize) -> Self {
        assert!(
            num_rpus > 0 && num_rpus <= 64,
            "RPU count out of supported range"
        );
        Self {
            num_rpus,
            num_ports: 2,
            clock_hz: 250_000_000,
            mac_bytes_per_cycle: 50,
            rpu_link_bytes_per_cycle: 16,
            cluster_bytes_per_cycle: 64,
            mac_rx_fifo_bytes: 256 * 1024,
            slots_per_rpu: 16,
            slot_bytes: 16 * 1024,
            ingress_fixed_cycles: 88,
            egress_fixed_cycles: 87,
            imem_bytes: 32 * 1024,
            dmem_bytes: 32 * 1024,
            pmem_bytes: 1024 * 1024,
            bcast_fifo_depth: 18,
            bcast_pipeline_cycles: 12,
            loopback_header_cycles: 3,
            pr_cycles: 25_000,
            pcie_rtt_cycles: 250,
        }
    }

    /// Line rate of one physical port in Gbps.
    pub fn gbps_per_port(&self) -> f64 {
        self.mac_bytes_per_cycle as f64 * 8.0 * self.clock_hz as f64 / 1e9
    }

    /// Aggregate line rate across ports in Gbps.
    pub fn total_gbps(&self) -> f64 {
        self.gbps_per_port() * self.num_ports as f64
    }

    /// Nanoseconds per clock cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        1e9 / self.clock_hz as f64
    }

    /// Number of RPU clusters (the two-stage switch groups RPUs in fours,
    /// §4.3 / Fig. 4a).
    pub fn num_clusters(&self) -> usize {
        self.num_rpus.div_ceil(4)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_rpus == 0 {
            return Err("need at least one RPU".into());
        }
        if self.num_ports == 0 || self.num_ports > 8 {
            return Err("port count must be 1–8".into());
        }
        if self.slots_per_rpu == 0 || self.slots_per_rpu > 32 {
            return Err(
                "slots per RPU must be 1–32 (descriptor tag is 5 bits + context array)".into(),
            );
        }
        let needed = self.slots_per_rpu as u32 * self.slot_bytes;
        if needed > self.pmem_bytes {
            return Err(format!(
                "slot storage ({needed} B) exceeds packet memory ({} B)",
                self.pmem_bytes
            ));
        }
        if self.rpu_link_bytes_per_cycle == 0 || self.mac_bytes_per_cycle == 0 {
            return Err("link widths must be non-zero".into());
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
        assert_eq!(cfg.gbps_per_port(), 100.0);
        assert_eq!(cfg.total_gbps(), 200.0);
        assert_eq!(cfg.ns_per_cycle(), 4.0);
        assert_eq!(cfg.num_clusters(), 4);
        assert!(cfg.validate().is_ok());
        // RPU link: 16 B/cycle × 8 × 250 MHz = 32 Gbps (the narrow switches).
        let rpu_gbps = cfg.rpu_link_bytes_per_cycle as f64 * 8.0 * cfg.clock_hz as f64 / 1e9;
        assert_eq!(rpu_gbps, 32.0);
    }

    #[test]
    fn validation_catches_slot_overflow() {
        let mut cfg = RosebudConfig::with_rpus(8);
        cfg.slots_per_rpu = 32;
        cfg.slot_bytes = 64 * 1024; // 2 MB > 1 MB pmem
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn eight_rpu_layout_has_two_clusters() {
        assert_eq!(RosebudConfig::with_rpus(8).num_clusters(), 2);
    }
}

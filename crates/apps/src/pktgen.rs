//! The tester FPGA (§6, Appendix D): "The tester FPGA is programmed with
//! the Rosebud framework with a 16-RPU design and is mostly used as a
//! high-speed packet generator."
//!
//! `PktGenFirmware` is the `basic_pkt_gen` program: each RPU composes a
//! frame in its own packet memory once, then transmits descriptors for it in
//! a 16-cycle loop — which is why the paper notes "below 128-byte, packets
//! have reduced packet generation performance" (16 RPUs × 250 MHz / 16
//! cycles = 250 Mpps of generation, short of the 284 Mpps 64-byte line
//! rate). [`BackToBack`] cross-connects two complete Rosebud systems with
//! two 100 G cables, exactly like the paper's testbed.

use rosebud_core::{
    memmap, Desc, Device, Firmware, HostOp, Measurement, Rosebud, RosebudConfig, RoundRobinLb,
    RpuIo, RpuProgram, SELF_TAG,
};
use rosebud_net::{Packet, PacketBuilder};

/// The `basic_pkt_gen` firmware: transmit the same pre-composed frame in a
/// fixed-cycle loop, alternating physical ports.
pub(crate) struct PktGenFirmware {
    size: usize,
    /// Cycles per transmitted packet (the paper's loop is 16).
    loop_cycles: u64,
    composed: bool,
    sent: u64,
    scratch: u32,
}

impl PktGenFirmware {
    /// A generator of `size`-byte frames at one packet per `loop_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `size < 60` or `loop_cycles == 0`.
    pub(crate) fn new(size: usize, loop_cycles: u64) -> Self {
        assert!(size >= 60, "frame size below Ethernet minimum");
        assert!(loop_cycles > 0, "loop must take at least a cycle");
        Self {
            size,
            loop_cycles,
            composed: false,
            sent: 0,
            scratch: memmap::PMEM_BASE + 0x200,
        }
    }
}

impl Firmware for PktGenFirmware {
    fn name(&self) -> &str {
        "basic-pkt-gen"
    }

    fn tick(&mut self, io: &mut RpuIo<'_>) {
        if !self.composed {
            // Compose the template frame once, in this RPU's own packet
            // memory (the generator never consumes an LB slot).
            let rpu = io.rpu_id() as u8;
            let pkt = PacketBuilder::new()
                .src_ip([10, 100, rpu, 1])
                .dst_ip([10, 200, 0, 1])
                .udp(30_000 + u16::from(rpu), 9)
                .pad_to(self.size)
                .build();
            io.pmem_write(self.scratch, pkt.bytes());
            self.composed = true;
            io.charge(60); // one-time setup
            return;
        }
        let port = ((self.sent + io.rpu_id() as u64) % 2) as u8;
        let sent = io.send(Desc {
            tag: SELF_TAG,
            len: self.size as u32,
            port,
            data: self.scratch,
        });
        if sent {
            self.sent += 1;
            io.charge(self.loop_cycles - 1);
        }
        // On backpressure (egress queue full), retry next cycle.
    }
}

/// Builds the paper's tester image: 16 RPUs of `basic_pkt_gen`, LB receive
/// mask cleared ("we set the RPUs with incoming traffic to none, as we are
/// only generating packets", Appendix D).
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_pktgen_system(rpus: usize, size: usize) -> Result<Rosebud, String> {
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Native(Box::new(PktGenFirmware::new(size, 16))))
        .build()?;
    // RECV=0x0000
    sys.apply(HostOp::LbWrite {
        addr: rosebud_core::lb_regs::ENABLE_LO,
        value: 0,
    })?;
    Ok(sys)
}

/// Two Rosebud systems cross-connected with two 100 G cables — the complete
/// §6 testbed: one FPGA generates, the other is the device under test, and
/// the generator's receive side measures what comes back.
pub struct BackToBack {
    /// The traffic source/sink FPGA.
    pub tester: Rosebud,
    /// The device under test.
    pub dut: Rosebud,
    received: u64,
    received_bytes: u64,
    /// Cable frames the DUT's receive MAC refused.
    lost: u64,
    window_start: u64,
    window_received: u64,
    window_bytes: u64,
    capture_want: usize,
    captured: Vec<Packet>,
}

impl BackToBack {
    /// Cross-connects the two systems.
    pub fn new(tester: Rosebud, dut: Rosebud) -> Self {
        assert_eq!(
            tester.config().num_ports,
            dut.config().num_ports,
            "cable count mismatch"
        );
        Self {
            tester,
            dut,
            received: 0,
            received_bytes: 0,
            lost: 0,
            window_start: 0,
            window_received: 0,
            window_bytes: 0,
            capture_want: 0,
            captured: Vec::new(),
        }
    }

    /// Advances both FPGAs one cycle and moves frames across the cables.
    pub(crate) fn tick(&mut self) {
        self.tester.tick();
        self.dut.tick();
        let ports = self.tester.config().num_ports;
        // Only the physical lanes are cabled; host deliveries on either
        // FPGA are drained and discarded.
        self.tester.drain(&mut |lane, mut pkt| {
            if lane < ports {
                // Wire p of the tester lands on wire p of the DUT.
                pkt.port = lane as u8;
                // The DUT's MAC may be saturated: the cable has no buffer,
                // so an un-absorbable frame is lost (counted at the DUT's
                // MAC in real hardware; counted here, as `lost`).
                if self.dut.inject(pkt).is_err() {
                    self.lost += 1;
                }
            }
        });
        self.dut.drain(&mut |lane, pkt| {
            if lane < ports {
                self.received += 1;
                self.received_bytes += pkt.len();
                self.window_received += 1;
                self.window_bytes += pkt.len();
                if self.captured.len() < self.capture_want {
                    self.captured.push(pkt);
                }
            }
        });
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Frames the tester put on a cable that the DUT's saturated receive
    /// MAC refused, so the cable lost them.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Starts a measurement window on the tester's receive side.
    pub fn begin_window(&mut self) {
        self.window_start = self.tester.now();
        self.window_received = 0;
        self.window_bytes = 0;
    }

    /// Receive-side results since the window began (the tester's "RX bytes"
    /// table of Appendix D).
    pub fn measure(&self) -> Measurement {
        let cycles = self.tester.now().saturating_sub(self.window_start).max(1);
        let secs = cycles as f64 * self.tester.config().ns_per_cycle() / 1e9;
        Measurement {
            gbps: self.window_bytes as f64 * 8.0 / secs / 1e9,
            mpps: self.window_received as f64 / secs / 1e6,
            packets: self.window_received,
            injected: 0,
            cycles,
        }
    }

    /// Runs the testbed until `n` returning frames have been captured (or
    /// `max_cycles` pass) and hands them over — the tcpdump capture step of
    /// the Appendix D latency experiment.
    pub fn capture(&mut self, n: usize, max_cycles: u64) -> Vec<Packet> {
        self.capture_want = n;
        self.captured.clear();
        for _ in 0..max_cycles {
            if self.captured.len() >= n {
                break;
            }
            self.tick();
        }
        self.capture_want = 0;
        std::mem::take(&mut self.captured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarder::build_forwarding_system;

    #[test]
    fn every_cable_frame_is_taken_or_counted_lost() {
        // 16 generating RPUs at 64 B outrun an 8-RPU forwarder, whose
        // receive MACs fill and refuse frames the cables cannot hold.
        let tester = build_pktgen_system(16, 64).unwrap();
        let mut b2b = BackToBack::new(tester, build_forwarding_system(8).unwrap());
        b2b.run(20_000);
        let sent: u64 = (0..2).map(|p| b2b.tester.port_counters(p).tx_frames).sum();
        assert!(b2b.lost() > 0, "the DUT took all {sent} frames");
        assert_eq!(sent, b2b.dut.ledger().injected + b2b.lost());
    }

    #[test]
    fn pktgen_saturates_the_wire_for_large_frames() {
        let mut sys = build_pktgen_system(16, 1024).unwrap();
        sys.run(30_000);
        sys.drain(&mut |_, _| {}); // discard the warm-up backlog
        let mut b2b_bytes = 0u64;
        let start = sys.now();
        for _ in 0..50_000 {
            sys.tick();
            sys.drain(&mut |_, pkt| b2b_bytes += pkt.len());
        }
        let secs = (sys.now() - start) as f64 * 4e-9;
        let gbps = b2b_bytes as f64 * 8.0 / secs / 1e9;
        let line = rosebud_net::effective_line_rate_gbps(200.0, 1024);
        assert!(
            gbps > line * 0.97,
            "generator produced {gbps:.1} Gbps of 1024B frames (line {line:.1})"
        );
    }

    #[test]
    fn pktgen_is_loop_limited_at_64_bytes() {
        // §6.1: generation caps at 250 Mpps (the 16-cycle loop), 88 % of
        // the 64-byte line rate.
        let mut sys = build_pktgen_system(16, 64).unwrap();
        sys.run(30_000);
        sys.drain(&mut |_, _| {});
        let start = sys.now();
        let mut frames = 0u64;
        for _ in 0..50_000 {
            sys.tick();
            sys.drain(&mut |_, _| frames += 1);
        }
        let mpps = frames as f64 / ((sys.now() - start) as f64 * 4e-9) / 1e6;
        assert!(
            (235.0..260.0).contains(&mpps),
            "generator rate {mpps:.1} Mpps, expected ~250"
        );
    }

    #[test]
    fn back_to_back_testbed_reproduces_the_forwarding_result() {
        // The full two-FPGA experiment: tester generates 512 B frames, DUT
        // forwards them, tester receives them back at line rate.
        let tester = build_pktgen_system(16, 512).unwrap();
        let dut = build_forwarding_system(16).unwrap();
        let mut b2b = BackToBack::new(tester, dut);
        b2b.run(60_000);
        b2b.begin_window();
        b2b.run(100_000);
        let m = b2b.measure();
        let line = rosebud_net::effective_line_rate_gbps(200.0, 512);
        assert!(
            m.gbps > line * 0.95,
            "testbed measured {:.1} Gbps of 512B (line {line:.1})",
            m.gbps
        );
    }

    #[test]
    fn generated_frames_parse_as_the_template() {
        let mut sys = build_pktgen_system(4, 128).unwrap();
        sys.run(5_000);
        let mut out = Vec::new();
        sys.drain(&mut |lane, pkt| {
            if lane == 0 {
                out.push(pkt);
            }
        });
        assert!(!out.is_empty());
        for pkt in out.iter().take(10) {
            let ip = pkt.ipv4().expect("generated frames are IPv4");
            assert_eq!(ip.dst, [10, 200, 0, 1]);
            assert_eq!(pkt.udp().unwrap().dst_port, 9);
        }
    }
}
